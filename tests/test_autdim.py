import numpy as np
import pytest

from octjordan.autdim import (CHART_ROWS, CHART_VARS, PolyRing, SparsePoly,
                              _monomials, _raise_map, _restrict,
                              aut_dimension_bound, expand_sodm,
                              expand_twisted_sextic, gradient,
                              jacobian_image_rank, random_restriction,
                              restriction_plan, symbolic_triple)
from octjordan.coeffs import PrimeField, derive_rng
from octjordan.jordan import random_triple, s_odm

P31 = 2**31 - 1


def test_sparse_poly_arithmetic():
    p = 313
    x = SparsePoly.variable(3, 0)
    y = SparsePoly.variable(3, 1)
    q = x.mul(x, p).add(y.scale(2, p), p)     # x^2 + 2y
    assert q.coefficient((2, 0, 0)) == 1
    assert q.coefficient((0, 1, 0)) == 2
    assert q.sub(q, p).is_zero()
    assert q.eval((5, 7, 0), p) == (25 + 14) % p
    assert q.total_degree() == 2
    # cancellation removes entries
    r = x.sub(x, p)
    assert len(r) == 0


def _reference_mul(a, b, p):
    # one exponent tuple per term pair, reduced as it is summed
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("prime", [313, P31])
def test_packed_product_matches_the_tuple_product(prime):
    rng = derive_rng(0, "packed-mul", prime)
    n = 9

    def random_poly(terms, top):
        return SparsePoly(n, {tuple(rng.randrange(top) for _ in range(n)): rng.randrange(1, prime)
                              for _ in range(terms)})

    for top in (2, 4, 128):
        a, b = random_poly(40, top), random_poly(30, top)
        for x, y in ((a, b), (b, a), (a, a)):
            assert x.mul(y, prime).terms == _reference_mul(x, y, prime)
    # (x - y)(x + y) = x^2 - y^2: the cross terms cancel to zero and vanish
    x, y = SparsePoly.variable(n, 0), SparsePoly.variable(n, n - 1)
    diff_sq = x.sub(y, prime).mul(x.add(y, prime), prime)
    assert diff_sq.terms == x.mul(x, prime).sub(y.mul(y, prime), prime).terms
    assert len(diff_sq) == 2
    assert SparsePoly.const(n, 3, prime).mul(SparsePoly.zero(n), prime).is_zero()


def test_packed_product_refuses_an_exponent_past_one_byte():
    p = 313
    x200 = SparsePoly(3, {(200, 0, 1): 1})
    assert x200.mul(SparsePoly(3, {(55, 2, 0): 1}), p).terms == {(255, 2, 1): 1}
    with pytest.raises(ValueError, match="255"):
        x200.mul(SparsePoly(3, {(56, 0, 0): 1}), p)


def test_poly_ring_inverse_of_constant_only():
    ring = PolyRing(313, 3)
    two = ring.from_int(2)
    assert ring.mul(ring.inv(two), two).coefficient((0, 0, 0)) == 1
    with pytest.raises(ZeroDivisionError):
        ring.inv(ring.variable(0))


def test_gradient_basics():
    p = 313
    ring = PolyRing(p, 27)
    cube = ring.variable(24).mul(ring.variable(24), p)
    for v in (25, 25, 26, 26):
        cube = cube.mul(ring.variable(v), p)
    g = gradient(cube, p)
    assert g[24].coefficient((0,) * 24 + (1, 2, 2)) == 2
    assert all(gi.is_zero() for i, gi in enumerate(g) if i not in (24, 25, 26))
    zg = gradient(SparsePoly.zero(27), p)
    assert len(zg) == 27 and all(q.is_zero() for q in zg)


def test_sodm_expansion_shape():
    s = expand_sodm(313)
    assert s.total_degree() == 6
    assert s.is_homogeneous()
    assert s.coefficient((0,) * 24 + (2, 2, 2)) == 1  # the (l1 l2 l3)^2 term


def test_euler_identity():
    # sum x_i dS/dx_i = 6 S for a homogeneous sextic
    p = 313
    s = expand_sodm(p)
    parts = gradient(s, p)
    rng = derive_rng(0, "euler")
    for _ in range(10):
        pt = [rng.randrange(p) for _ in range(27)]
        lhs = sum(x * g.eval(pt, p) for x, g in zip(pt, parts)) % p
        assert lhs == 6 * s.eval(pt, p) % p


@pytest.mark.parametrize("prime", [313, P31])
def test_expansion_agrees_with_direct_evaluation(prime):
    field = PrimeField(prime)
    s = expand_sodm(prime)
    rng = derive_rng(0, "crossoracle", prime)
    trials = 100 if prime == 313 else 20
    for _ in range(trials):
        t = random_triple(field, 3, rng)
        assert s.eval(t.flatten(), prime) == s_odm(t)


def test_jacobian_rank_zero_map():
    p = 313
    plan = restriction_plan(gradient(expand_sodm(p), p))
    assert jacobian_image_rank(plan, np.zeros((27, 6), dtype=np.int64), p) == 0


def test_jacobian_rank_133_mod_313():
    p = 313
    plan = restriction_plan(gradient(expand_sodm(p), p))
    rng = derive_rng(0, "rank313")
    r = jacobian_image_rank(plan, random_restriction(p, rng), p)
    assert r == 133
    assert r <= CHART_ROWS


def test_jacobian_rank_133_survives_large_prime_rerun():
    # semicontinuity: rerunning over a large prime still reaches 133
    plan = restriction_plan(gradient(expand_sodm(P31), P31))
    rng = derive_rng(0, "rankbig")
    assert jacobian_image_rank(plan, random_restriction(P31, rng), P31) == 133


@pytest.mark.parametrize("prime", [313, P31])
def test_restriction_evaluates_the_partials_on_the_chart(prime):
    # row_i evaluated at z equals dS/dx_i evaluated at x = m z
    parts = gradient(expand_sodm(prime), prime)
    rng = derive_rng(0, "restrict", prime)
    m = random_restriction(prime, rng)
    rows = _restrict(restriction_plan(parts), m, prime)
    assert rows.shape == (27, len(_monomials(5)))
    for _ in range(3):
        z = [rng.randrange(prime) for _ in range(CHART_VARS)]
        x = [sum(int(a) * b for a, b in zip(row, z)) % prime for row in m]
        powers = [SparsePoly(CHART_VARS, {e: 1}).eval(z, prime) for e in _monomials(5)]
        for row, part in zip(rows, parts):
            image = sum(int(c) * w for c, w in zip(row, powers)) % prime
            assert image == part.eval(x, prime)


def _reference_raise_level(prev, coef, degree, p):
    out = np.zeros((len(_monomials(degree)), prev.shape[1]), dtype=np.int64)
    for j in range(CHART_VARS):
        out[_raise_map(degree, j)] += prev * coef[j] % p
    return out % p


def _reference_restrict(partials, m, p):
    """The term-by-term restriction, without a plan: every term's index
    multiset is read from its partial, the chart rows of its five indices
    are multiplied one linear factor at a time, and the scaled products
    are summed per partial."""
    m = np.asarray(m, dtype=np.int64) % p
    out = np.zeros((len(partials), len(_monomials(5))), dtype=np.int64)
    for i, part in enumerate(partials):
        multisets = np.array([[v for v, e in enumerate(expo) for _ in range(e)]
                              for expo in part.terms], dtype=np.int64)
        coeff = np.array(list(part.terms.values()), dtype=np.int64)
        level = np.ones((1, len(coeff)), dtype=np.int64)
        for k in range(5):
            level = _reference_raise_level(level, m[multisets[:, k]].T, k + 1, p)
        out[i] = (level * coeff % p).sum(axis=1) % p
    return out


@pytest.mark.parametrize("prime", [313, P31])
def test_restriction_matches_the_level_by_level_reference(prime):
    partials = gradient(expand_sodm(prime), prime)
    plan = restriction_plan(partials)
    rng = derive_rng(0, "restrict-reference", prime)
    charts = [random_restriction(prime, rng) for _ in range(3)]
    charts.append(np.zeros((27, CHART_VARS), dtype=np.int64))
    twin = random_restriction(prime, rng)
    twin[:, 4] = twin[:, 1]
    charts.append(twin)
    top = np.full((27, CHART_VARS), prime - 1, dtype=np.int64)
    charts.append(top)
    for m in charts:
        assert np.array_equal(_restrict(plan, m, prime), _reference_restrict(partials, m, prime))
    # a gradient with fewer terms and a partial-to-term map of another shape
    twisted = gradient(expand_twisted_sextic(prime), prime)
    assert np.array_equal(_restrict(restriction_plan(twisted), charts[0], prime),
                          _reference_restrict(twisted, charts[0], prime))


def test_restriction_plan_rejects_a_non_quintic_partial():
    p = 313
    ring = PolyRing(p, 27)
    quintic = ring.variable(0)
    for v in (1, 2, 3, 4):
        quintic = quintic.mul(ring.variable(v), p)
    quartic = SparsePoly(27, {(1, 1, 1, 1) + (0,) * 23: 3})
    plan = restriction_plan([quintic, quintic])
    assert plan.terms.shape == (2, 3)
    with pytest.raises(ValueError, match="partial 1 has a term of degree 4"):
        restriction_plan([quintic, quintic.add(quartic, p)])


def test_aut_dimension_bound_reports():
    rep = aut_dimension_bound(313, seed=1, retries=3)
    assert rep["max_rank"] == 133
    stages = [rep[k] for k in ("expand_sec", "restrict_sec", "rank_sec")]
    assert min(stages) >= 0 and sum(stages) <= rep["elapsed_sec"]
    assert rep["aut_dim_bound"] == 29
    assert rep["sodm_degree"] == 6
    assert "162 - 29 = 133" in rep["consistency"]
    empty = aut_dimension_bound(313, seed=1, retries=0)
    assert "max_rank" not in empty and "note" in empty
    assert empty["restrict_sec"] == empty["rank_sec"] == 0


def test_twisted_sextic_variant_reports_without_target():
    rep = aut_dimension_bound(313, seed=0, retries=1, invariant="twisted_sextic")
    assert rep["invariant"] == "twisted_sextic"
    assert rep["sextic_degree"] == 6
    assert 0 < rep["max_rank"] <= CHART_ROWS
    assert rep["aut_dim_bound"] == CHART_ROWS - rep["max_rank"]
    assert "consistency" not in rep  # no published value to compare against


def test_symbolic_triple_layout():
    ring = PolyRing(313, 27)
    t = symbolic_triple(ring)
    flat = t.flatten()
    for i, q in enumerate(flat):
        assert q.coefficient(tuple(1 if j == i else 0 for j in range(27))) == 1
        assert len(q) == 1
