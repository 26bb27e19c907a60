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
is the one-lane case.  A census chunk samples its index range as one
stack and builds and decomposes the matrices of all its points at once;
lanes do not interact, so any chunking of a census gives the same bytes.
"""

from __future__ import annotations

import enum
import math
import os
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


class SamplingError(RuntimeError):
    """Sampling kept hitting near-degenerate leading coefficients."""


def surface_value(surface: Hypersurface, t: HermitianTriple):
    return _INVARIANTS[surface][0](t)


def sample_on(surface: Hypersurface, rng, ring: ComplexField | None = None,
              max_tries: int = 200) -> HermitianTriple:
    """Random point with |h(A)| <= 1e-9 * max(1, ||A||)^deg on the chosen surface."""
    return lane(sample_lanes(surface, [rng], ring, max_tries), 0)


def sample_lanes(surface: Hypersurface, rngs, ring: ComplexField | None = None,
                 max_tries: int = 200) -> HermitianTriple:
    """One surface point per generator, as the lanes of a stacked triple.

    Each try draws a base from every open lane's own generator and then
    evaluates the invariant for all of them at once.  Lane i consumes
    rngs[i] as a lone sample would: the 27 base coordinates per try, then
    the root-sign draw once the leading coefficient has passed.  A lane
    whose leading coefficient or residual fails is redrawn on the next try.
    """
    ring = ring or ComplexField()
    invariant, degree, l3_degree = _INVARIANTS[surface]
    flat = np.empty((27, len(rngs)), dtype=np.complex128)
    pending = np.arange(len(rngs))
    for _ in range(max_tries):
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
                            f"after {max_tries} tries")
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


def _census_chunk(surface_value: str, matrix: str, tol: float, seed: int,
                  lo: int, hi: int):
    """One index range of the census, sampled and decomposed as one stack;
    merging chunk results is commutative."""
    surface = Hypersurface(surface_value)
    build = build_M if matrix == "M" else build_N
    expected = EXPECTED_CORANK.get((surface, matrix))
    rngs = [derive_rng(seed, "strata", surface_value, matrix, i) for i in range(lo, hi)]
    points = sample_lanes(surface, rngs)
    hist: dict = {}
    gaps_ok = 0
    witness = None  # (index, corank, triple json)
    for j, s in enumerate(np.linalg.svd(build(points), compute_uv=False)):
        corank, gap = _corank_and_gap(s, tol)
        hist[corank] = hist.get(corank, 0) + 1
        if gap >= 1e4:
            gaps_ok += 1
        if witness is None and (corank == expected or expected is None):
            witness = (lo + j, corank, triple_to_json(lane(points, j)))
    return hist, gaps_ok, witness


def corank_census(surface: Hypersurface, matrix: str, samples: int,
                  tol: float = 1e-8, seed: int = 0, jobs: int = 1) -> CorankCensus:
    """Histogram of 24 - rank at sampled surface points.

    Per-sample generators derive from (seed, surface, index), so chunked or
    parallel evaluation produces the identical census.  At most
    min(jobs, samples, os.cpu_count()) worker processes are started.
    """
    if matrix not in ("M", "N"):
        raise ValueError("matrix must be 'M' or 'N'")
    jobs = min(jobs, samples, os.cpu_count() or 1)
    if jobs > 1:
        import multiprocessing
        bounds = [(samples * k // jobs, samples * (k + 1) // jobs) for k in range(jobs)]
        with multiprocessing.Pool(jobs) as pool:
            parts = pool.starmap(_census_chunk,
                                 [(surface.value, matrix, tol, seed, lo, hi)
                                  for lo, hi in bounds])
    else:
        parts = [_census_chunk(surface.value, matrix, tol, seed, 0, samples)]
    return _merge_chunks(surface, matrix, samples, tol, seed, parts)


def _merge_chunks(surface: Hypersurface, matrix: str, samples: int, tol: float,
                  seed: int, parts) -> CorankCensus:
    """The census of _census_chunk results that cover 0..samples, in any order."""
    hist: dict = {}
    gaps_ok = 0
    witness = None
    for h, g, w in parts:
        for k, v in h.items():
            hist[k] = hist.get(k, 0) + v
        gaps_ok += g
        if w is not None and (witness is None or w[0] < witness[0]):
            witness = w
    return CorankCensus(surface.value, matrix, samples, tol, seed, hist,
                        gap_ratios_ok=gaps_ok,
                        witness_corank=None if witness is None else witness[1],
                        witness=None if witness is None else witness[2])
