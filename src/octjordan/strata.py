"""Numeric sampling of the degeneracy hypersurfaces and corank statistics.

Points on a hypersurface are produced by drawing 26 of the 27 coordinates
at random and solving for the last diagonal scalar in closed form: the
invariants are linear (twisted cubic) or quadratic (the two sextics) in
l3, with leading coefficients that only vanish on a thin set, so sampling
is cheap and unbiased over the chart l1 l2 != |c|^2.  Coranks of the two
24x24 matrices at the samples are decided through singular values with a
relative tolerance, reproducing the generic-rank claims: corank 4 for M
on its sextic, corank 4 for N on the twisted cubic and corank 2 for N on
the twisted sextic (rank 22, the prehomogeneity witness).

There is one sampler, `sample_lanes`, and it works on a lane-stacked
triple: one numpy lane per sample, each lane drawing from its own
generator exactly as a lone sample would.  The invariants, the l3 solve
and the residual check run once per try over all open lanes, and a lane
that fails is redrawn from its own generator on the next try.  `sample_on`
is the one-lane case.  A census samples all its points as one stack and
builds and decomposes their matrices at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import ComplexField, derive_rng
from .jordan import (HermitianTriple, build_M, build_N, lane, random_triple,
                     s_odm, stack_lanes, triple_to_json, twisted_cubic,
                     twisted_sextic, unflatten)


class Hypersurface(enum.Enum):
    S_ODM = "sodm"
    TWISTED_CUBIC = "cubic"
    TWISTED_SEXTIC = "sextic"


_INVARIANTS = {
    Hypersurface.S_ODM: (s_odm, 6, 2),
    Hypersurface.TWISTED_CUBIC: (twisted_cubic, 3, 1),
    Hypersurface.TWISTED_SEXTIC: (twisted_sextic, 6, 2),
}

# expected generic coranks from the sheaf-rank statements
EXPECTED_CORANK = {
    (Hypersurface.S_ODM, "M"): 4,
    (Hypersurface.TWISTED_CUBIC, "N"): 4,
    (Hypersurface.TWISTED_SEXTIC, "N"): 2,
}

LEADING_TOL = 1e-12
RESIDUAL_TOL = 1e-9
MAX_TRIES = 200


class SamplingError(RuntimeError):
    """Sampling kept hitting near-degenerate leading coefficients."""


def surface_value(surface: Hypersurface, t: HermitianTriple):
    return _INVARIANTS[surface][0](t)


def sample_on(surface: Hypersurface, rng) -> HermitianTriple:
    """Random point with |h(A)| <= 1e-9 * max(1, ||A||)^deg on the chosen surface."""
    return lane(sample_lanes(surface, [rng]), 0)


def sample_lanes(surface: Hypersurface, rngs) -> HermitianTriple:
    """One surface point per generator, as the lanes of a stacked triple.

    Each try draws a base from every open lane's own generator and then
    evaluates the invariant for all of them at once.  Lane i consumes
    rngs[i] as a lone sample would: the 27 base coordinates per try, then
    the root-sign draw once the leading coefficient has passed.  A lane
    whose leading coefficient or residual fails is redrawn on the next try,
    up to MAX_TRIES tries.
    """
    ring = ComplexField()
    invariant, degree, l3_degree = _INVARIANTS[surface]
    flat = np.empty((27, len(rngs)), dtype=np.complex128)
    pending = np.arange(len(rngs))
    for _ in range(MAX_TRIES):
        if not pending.size:
            break
        base = stack_lanes(ring, [random_triple(ring, 3, rngs[i]) for i in pending])

        def at(l3val):
            return invariant(HermitianTriple(ring, 3, (*base.lambdas[:2], l3val),
                                             base.a, base.b, base.c))

        q0, q1 = at(0j), at(1 + 0j)
        if l3_degree == 1:
            lead = q1 - q0
            ok = abs(lead) >= LEADING_TOL
            l3 = -q0 / np.where(ok, lead, 1)
        else:
            lead = (at(2 + 0j) - 2 * q1 + q0) / 2
            ok = abs(lead) >= LEADING_TOL
            a1 = q1 - q0 - lead
            disc = np.sqrt(a1 * a1 - 4 * lead * q0)
            plus = np.array([good and rngs[i].random() < 0.5
                             for i, good in zip(pending, ok)], dtype=bool)
            l3 = np.where(plus, -a1 + disc, -a1 - disc) / (2 * np.where(ok, lead, 1))
        point = HermitianTriple(ring, 3, (*base.lambdas[:2], l3), base.a, base.b, base.c)
        coords = np.array(point.flatten())
        scale = np.sqrt(sum(abs(z) ** 2 for z in coords))
        ok &= abs(invariant(point)) <= RESIDUAL_TOL * np.maximum(1.0, scale) ** degree
        flat[:, pending[ok]] = coords[:, ok]
        pending = pending[~ok]
    if pending.size:
        raise SamplingError(f"no well-conditioned sample on {surface.value} "
                            f"after {MAX_TRIES} tries")
    return unflatten(ring, 3, list(flat))


@dataclass
class CorankCensus:
    surface: str
    matrix: str
    samples: int
    tol: float
    seed: int
    histogram: dict
    backend: str = "svd"
    gap_ratios_ok: int = 0          # samples whose rank gap is >= 1e4
    witness_corank: int | None = None
    witness: dict | None = None     # triple JSON of one modal-corank point

    @property
    def mode(self) -> int | None:
        if not self.histogram:
            return None
        return max(self.histogram, key=lambda k: (self.histogram[k], -k))

    def to_json_dict(self) -> dict:
        return {
            "surface": self.surface,
            "matrix": self.matrix,
            "samples": self.samples,
            "tol": self.tol,
            "seed": self.seed,
            "backend": self.backend,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "mode_corank": self.mode,
            "gap_ratios_ok": self.gap_ratios_ok,
            "witness_corank": self.witness_corank,
            "witness": self.witness,
        }


def _corank_and_gap(s: np.ndarray, tol: float):
    """Corank and rank gap from the singular values of one matrix."""
    if s[0] == 0.0:
        return len(s), math.inf
    r = int(np.sum(s > tol * s[0]))
    gap = math.inf if r in (0, len(s)) else float(s[r - 1] / s[r])
    return len(s) - r, gap


def corank_census(surface: Hypersurface, matrix: str, samples: int,
                  tol: float = 1e-8, seed: int = 0) -> CorankCensus:
    """Histogram of 24 - rank at sampled surface points.

    Sample i draws from its own generator, derived from (seed, surface,
    matrix, i); all samples are drawn as one stack and decomposed by one
    batched SVD, and the witness is the first sample of the expected corank.
    """
    if matrix not in ("M", "N"):
        raise ValueError("matrix must be 'M' or 'N'")
    build = build_M if matrix == "M" else build_N
    expected = EXPECTED_CORANK.get((surface, matrix))
    rngs = [derive_rng(seed, "strata", surface.value, matrix, i) for i in range(samples)]
    points = sample_lanes(surface, rngs)
    hist: dict = {}
    gaps_ok = 0
    witness_corank = witness = None
    for j, s in enumerate(np.linalg.svd(build(points), compute_uv=False)):
        corank, gap = _corank_and_gap(s, tol)
        hist[corank] = hist.get(corank, 0) + 1
        if gap >= 1e4:
            gaps_ok += 1
        if witness is None and (corank == expected or expected is None):
            witness_corank, witness = corank, triple_to_json(lane(points, j))
    return CorankCensus(surface.value, matrix, samples, tol, seed, hist,
                        gap_ratios_ok=gaps_ok, witness_corank=witness_corank,
                        witness=witness)
