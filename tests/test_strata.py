import cmath
import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from octjordan import linalg, strata
from octjordan.coeffs import ComplexField, derive_rng
from octjordan.jordan import (HermitianTriple, build_M, build_N,
                              diagonal_triple, random_triple, triple_from_json,
                              twisted_cubic, twisted_sextic)
from octjordan.strata import (_INVARIANTS, EXPECTED_CORANK, LEADING_TOL,
                              RESIDUAL_TOL, Hypersurface, SamplingError,
                              _census_chunk, _merge_chunks, corank_census,
                              sample_lanes, sample_on, surface_value)
from octjordan.reduce import chart_pair, expm
from octjordan.symmetry import TrialityTriple, spin7_act

C = ComplexField()
PAIRS = list(EXPECTED_CORANK)


def _on_surface(surface, t):
    scale = math.sqrt(sum(abs(z) ** 2 for z in t.flatten()))
    degree = _INVARIANTS[surface][1]
    return abs(surface_value(surface, t)) <= RESIDUAL_TOL * max(1.0, scale) ** degree


def _reference_sample(surface, rng):
    """One sample at a time in Python complex arithmetic, drawing as the
    stacked sampler's lanes do."""
    invariant, _degree, l3_degree = _INVARIANTS[surface]
    for _ in range(200):
        base = random_triple(C, 3, rng)

        def at(l3):
            return invariant(HermitianTriple(C, 3, (*base.lambdas[:2], l3),
                                             base.a, base.b, base.c))

        q0, q1 = at(0j), at(1 + 0j)
        if l3_degree == 1:
            lead = q1 - q0
            if abs(lead) < LEADING_TOL:
                continue
            l3 = -q0 / lead
        else:
            lead = (at(2 + 0j) - 2 * q1 + q0) / 2
            if abs(lead) < LEADING_TOL:
                continue
            a1 = q1 - q0 - lead
            disc = cmath.sqrt(a1 * a1 - 4 * lead * q0)
            l3 = (-a1 + disc) / (2 * lead) if rng.random() < 0.5 else \
                (-a1 - disc) / (2 * lead)
        point = HermitianTriple(C, 3, (*base.lambdas[:2], l3), base.a, base.b, base.c)
        if _on_surface(surface, point):
            return point
    raise AssertionError("reference sampler found no point")


def _reference_census(surface, matrix, tol, seed, samples):
    """(histogram, gap_ratios_ok, (index, corank, point)) one sample at a time."""
    build = build_M if matrix == "M" else build_N
    hist, gaps_ok, witness = {}, 0, None
    for i in range(samples):
        point = _reference_sample(surface, derive_rng(seed, "strata", surface.value, matrix, i))
        s = np.linalg.svd(build(point), compute_uv=False)
        rank = int(np.sum(s > tol * s[0]))
        corank = 24 - rank
        hist[corank] = hist.get(corank, 0) + 1
        gaps_ok += rank in (0, 24) or s[rank - 1] / s[rank] >= 1e4
        if witness is None and corank == EXPECTED_CORANK[(surface, matrix)]:
            witness = (i, corank, point)
    return hist, gaps_ok, witness


@pytest.mark.parametrize("surface", list(Hypersurface))
def test_sample_residual_contract(surface):
    rng = derive_rng(0, "resid", surface.value)
    for _ in range(10):
        t = sample_on(surface, rng)
        scale = math.sqrt(sum(abs(z) ** 2 for z in t.flatten()))
        degree = 3 if surface is Hypersurface.TWISTED_CUBIC else 6
        assert abs(surface_value(surface, t)) <= 1e-9 * max(1.0, scale) ** degree


@pytest.mark.parametrize("surface", list(Hypersurface))
def test_sampled_points_hold_python_complex_scalars(surface):
    t = sample_on(surface, derive_rng(0, "plain", surface.value))
    assert type(t.lambdas[2]) is complex
    assert all(type(z) is complex for z in t.flatten())
    matrix = "M" if surface is Hypersurface.S_ODM else "N"
    witness = corank_census(surface, matrix, samples=2, seed=0).witness
    assert all(type(x) is float for key in ("lambda", "a", "b", "c")
               for pair in witness[key] for x in pair)


@pytest.mark.parametrize("tol_name,value,sign_draws", [("LEADING_TOL", math.inf, 0),
                                                       ("RESIDUAL_TOL", 0.0, 1)])
def test_sampler_gives_each_lane_max_tries_draws(monkeypatch, tol_name, value, sign_draws):
    # a failed lead skips the root-sign draw; a failed residual follows it
    monkeypatch.setattr(strata, tol_name, value)
    rngs = [derive_rng(0, "tries", i) for i in range(3)]
    with pytest.raises(SamplingError):
        sample_lanes(Hypersurface.TWISTED_SEXTIC, rngs, max_tries=4)
    for i, rng in enumerate(rngs):
        fresh = derive_rng(0, "tries", i)
        for _ in range(4):
            random_triple(C, 3, fresh)
            for _ in range(sign_draws):
                fresh.random()
        assert rng.random() == fresh.random()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("surface,matrix", PAIRS)
def test_stacked_census_matches_the_per_sample_reference(surface, matrix, seed):
    hist, gaps_ok, (index, corank, witness) = _census_chunk(surface.value, matrix, 1e-8,
                                                            seed, 0, 40)
    ref_hist, ref_gaps, (ref_index, ref_corank, ref_point) = \
        _reference_census(surface, matrix, 1e-8, seed, 40)
    assert (hist, gaps_ok, index, corank) == (ref_hist, ref_gaps, ref_index, ref_corank)
    point = triple_from_json(C, witness)
    assert (point.a, point.b, point.c) == (ref_point.a, ref_point.b, ref_point.c)
    assert point.lambdas[:2] == ref_point.lambdas[:2]
    assert abs(point.lambdas[2] - ref_point.lambdas[2]) <= 1e-9 * abs(ref_point.lambdas[2])
    assert _on_surface(surface, point)


def test_real_offdiagonal_sodm_reduces_to_det():
    # with real a, b, c the sextic degenerates to Det^2, so sampled l3 solves Det=0
    import random

    from octjordan import cayley
    from octjordan.jordan import det_cartan, s_odm
    rng = derive_rng(0, "realdraw")
    rr = random.Random(4)
    for _ in range(5):
        reals = [cayley.embed_scalar(C, 3, complex(rr.uniform(-1, 1))) for _ in range(3)]
        base = HermitianTriple(C, 3, (C.random(rr), C.random(rr), 0j), *reals)
        d0 = det_cartan(base)
        d1 = det_cartan(HermitianTriple(C, 3, (base.lambdas[0], base.lambdas[1], 1 + 0j),
                                        base.a, base.b, base.c))
        slope = d1 - d0
        if abs(slope) < 1e-9:
            continue
        l3 = -d0 / slope
        t = HermitianTriple(C, 3, (base.lambdas[0], base.lambdas[1], l3),
                            base.a, base.b, base.c)
        assert abs(det_cartan(t)) < 1e-9
        assert abs(s_odm(t)) < 1e-9


def test_cubic_sample_keeps_sextic_generic():
    rng = derive_rng(0, "cubgen")
    away = 0
    for _ in range(20):
        t = sample_on(Hypersurface.TWISTED_CUBIC, rng)
        assert abs(twisted_cubic(t)) <= 1e-6
        if abs(twisted_sextic(t)) > 1e-3:
            away += 1
    assert away >= 18  # the sextic generically does not vanish on the cubic


def test_diagonal_point_corank_eight():
    t = diagonal_triple(C, 3, 0j, 1 + 0j, 1 + 0j)
    m = build_M(t)
    assert 24 - linalg.rank(C, m, tol=1e-8) == 8


def test_census_modes_small():
    cens = corank_census(Hypersurface.S_ODM, "M", samples=40, tol=1e-8, seed=0)
    assert cens.mode == 4
    assert cens.histogram[4] >= 38
    cens = corank_census(Hypersurface.TWISTED_CUBIC, "N", samples=40, tol=1e-8, seed=0)
    assert cens.mode == 4
    cens = corank_census(Hypersurface.TWISTED_SEXTIC, "N", samples=40, tol=1e-8, seed=0)
    assert cens.mode == 2
    assert cens.witness_corank == 2
    # the witness is a genuine rank-22 point
    w = triple_from_json(C, cens.witness)
    assert linalg.rank(C, build_N(w), tol=1e-8) == 22


def test_census_gap_ratios():
    cens = corank_census(Hypersurface.S_ODM, "M", samples=40, tol=1e-8, seed=1)
    assert cens.gap_ratios_ok >= 36  # >= 90% well-separated


def test_census_reports_fields():
    cens = corank_census(Hypersurface.TWISTED_SEXTIC, "N", samples=5, tol=1e-7, seed=3)
    d = cens.to_json_dict()
    assert d["tol"] == 1e-7 and d["backend"] == "svd"
    assert sum(cens.histogram.values()) == 5


def test_census_determinism_and_merge_consistency():
    a = corank_census(Hypersurface.S_ODM, "M", samples=10, seed=7).to_json_dict()
    b = corank_census(Hypersurface.S_ODM, "M", samples=10, seed=7).to_json_dict()
    assert a == b
    # lanes are independent: any chunking merges to the same bytes
    for surface, matrix in PAIRS:
        parts = [_census_chunk(surface.value, matrix, 1e-8, 5, lo, hi)
                 for lo, hi in ((7, 20), (0, 1), (1, 7))]
        chunked = _merge_chunks(surface, matrix, 20, 1e-8, 5, parts)
        whole = corank_census(surface, matrix, samples=20, tol=1e-8, seed=5)
        assert json.dumps(chunked.to_json_dict()) == json.dumps(whole.to_json_dict())


def test_group_moves_preserve_corank():
    rng = derive_rng(0, "movecorank")
    a1, a2 = chart_pair()
    theta = np.array([complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5)) for _ in range(len(a2))])
    trip = TrialityTriple(C, expm(np.tensordot(theta, a1, 1)),
                          expm(np.tensordot(theta, a2, 1))).certified()
    for _ in range(3):
        t = sample_on(Hypersurface.TWISTED_SEXTIC, rng)
        moved = spin7_act(trip, t)
        r0 = linalg.rank(C, build_N(t), tol=1e-8)
        r1 = linalg.rank(C, build_N(moved), tol=1e-8)
        assert r0 == r1


def test_census_workers_are_capped_at_the_cpu_count(monkeypatch):
    # a fake pool records its process count and runs the chunks inline, so
    # no worker is started whatever jobs asks for
    started = []

    class InlinePool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return [fn(*a) for a in args]

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    serial = corank_census(Hypersurface.S_ODM, "M", samples=7, seed=2).to_json_dict()
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    capped = corank_census(Hypersurface.S_ODM, "M", samples=7, seed=2, jobs=100_000)
    assert started == [3] and capped.to_json_dict() == serial
    # an unknown cpu count runs the census in this process
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    alone = corank_census(Hypersurface.S_ODM, "M", samples=7, seed=2, jobs=100_000)
    assert started == [3] and alone.to_json_dict() == serial
