import hashlib

import numpy as np
import pytest

from octjordan import linalg
from octjordan.autdim import (CHART_ROWS, CHART_VARS, PolyRing, SparsePoly,
                              _lane_peak, _monomials, _raise_map, aut_dimension_bound,
                              expand_sodm, expand_twisted_sextic, gradient,
                              jacobian_image_rank, random_points,
                              random_restriction, symbolic_triple)
from octjordan.coeffs import PrimeField, derive_rng, is_prime
from octjordan.jordan import (random_triple, s_odm, s_odm_gradient, twisted_sextic,
                              twisted_sextic_gradient, unflatten)

P31 = 2**31 - 1
EXPANSIONS = ((expand_sodm, s_odm_gradient, s_odm),
              (expand_twisted_sextic, twisted_sextic_gradient, twisted_sextic))


def test_sparse_poly_arithmetic():
    p = 313
    x = SparsePoly.variable(3, 0)
    y = SparsePoly.variable(3, 1)
    q = (x * x + SparsePoly.const(3, 2, p) * y).mod(p)     # x^2 + 2y
    assert q.coefficient((2, 0, 0)) == 1
    assert q.coefficient((0, 1, 0)) == 2
    assert (q - q).mod(p).is_zero()
    assert q.eval((5, 7, 0), p) == (25 + 14) % p
    assert q.total_degree() == 2
    # cancellation removes entries
    r = x - x
    assert len(r) == 0


def test_sparse_poly_operators_leave_coefficients_unreduced():
    p = 7
    x = SparsePoly.variable(2, 0)
    y = SparsePoly.variable(2, 1)
    five = SparsePoly.const(2, 5, p)
    q = five * x * x - y * five + five
    assert q.terms == {(2, 0): 5, (0, 1): -5, (0, 0): 5}
    assert (q * q).coefficient((0, 2)) == 25
    assert (-q).terms == {(2, 0): -5, (0, 1): 5, (0, 0): -5}
    assert (q + -q).is_zero()
    # reduce maps the coefficients mod p and drops the zeros
    ring = PolyRing(p, 2)
    assert ring.reduce(q * q + q).terms == (q * q + q).mod(p).terms
    assert ring.reduce(q - q * five * SparsePoly.const(2, 3, p)).is_zero()
    # the operators and reduce are the whole arithmetic
    assert not any(hasattr(ring, name) for name in ("add", "sub", "mul", "neg", "eq"))
    assert not any(hasattr(q, name) for name in ("add", "sub", "mul", "neg", "scale"))


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
            assert (x * y).mod(prime).terms == _reference_mul(x, y, prime)
    # (x - y)(x + y) = x^2 - y^2: the cross terms cancel to zero and vanish
    x, y = SparsePoly.variable(n, 0), SparsePoly.variable(n, n - 1)
    diff_sq = ((x - y) * (x + y)).mod(prime)
    assert diff_sq.terms == (x * x - y * y).mod(prime).terms
    assert len(diff_sq) == 2
    assert (SparsePoly.const(n, 3, prime) * SparsePoly.zero(n)).is_zero()


def test_packed_product_refuses_an_exponent_past_one_byte():
    x200 = SparsePoly(3, {(200, 0, 1): 1})
    assert (x200 * SparsePoly(3, {(55, 2, 0): 1})).terms == {(255, 2, 1): 1}
    with pytest.raises(ValueError, match="255"):
        x200 * SparsePoly(3, {(56, 0, 0): 1})


def test_exponent_bound_is_rescanned_only_past_one_byte():
    x200 = SparsePoly(3, {(200, 0, 1): 1})
    low = (x200 + SparsePoly.variable(3, 1)) - x200      # y, with bound 200
    assert low.terms == {(0, 1, 0): 1} and low.top == 200
    # the bounds pass 255, the exponents do not
    assert (low * SparsePoly(3, {(100, 0, 0): 1})).terms == {(100, 1, 0): 1}
    with pytest.raises(ValueError, match="255"):
        low * SparsePoly(3, {(0, 255, 0): 1})


def test_terms_is_a_read_only_tuple_keyed_view():
    q = SparsePoly(3, {(1, 2, 0): 4, (0, 0, 3): -1})
    assert dict(q.terms) == {(1, 2, 0): 4, (0, 0, 3): -1}
    with pytest.raises(TypeError):
        q.terms[(1, 2, 0)] = 5
    assert q.coefficient((1, 2, 0)) == 4 and q.coefficient((2, 1, 0)) == 0
    with pytest.raises(ValueError):
        q.coefficient((1, 2))


def test_poly_ring_inverse_of_constant_only():
    ring = PolyRing(313, 3)
    two = ring.from_int(2)
    assert ring.reduce(ring.inv(two) * two).terms == {(0, 0, 0): 1}
    with pytest.raises(ZeroDivisionError):
        ring.inv(ring.variable(0))


def _partials(poly, p):
    return [poly.diff(i, p) for i in range(poly.n)]


def gradient_at(grad: tuple, x: np.ndarray, prime: int) -> np.ndarray:
    """The reference evaluator: every partial of a gradient() at every
    column of x, mod prime; row i holds partial i at the points x[:, k].

    A partial is one sum over its terms of the coefficient times the
    term's coordinates gathered from x, one factor at a time.  The products
    stay unreduced when the partial's whole sum fits in int64 and are
    reduced after every factor otherwise."""
    x = np.asarray(x, dtype=np.int64) % prime
    out = np.zeros((len(grad), x.shape[1]), dtype=np.int64)
    for i, (factors, coeffs) in enumerate(grad):
        if not len(coeffs):
            continue
        lazy = len(coeffs) * (prime - 1) ** (factors.shape[1] + 1) < 1 << 63
        acc = coeffs[:, None]
        for var in factors.T:
            acc = acc * x[var] if lazy else acc * x[var] % prime
        out[i] = acc.sum(axis=0) % prime
    return out


def _gather_terms(factors, coeffs, n):
    # the gather form read back into exponent tuples
    out = {}
    for row, c in zip(factors.tolist(), coeffs.tolist()):
        out[tuple(row.count(v) for v in range(n))] = c
    return out


def test_gradient_basics():
    p = 313
    ring = PolyRing(p, 27)
    cube = ring.variable(24) * ring.variable(24)
    for v in (25, 25, 26, 26):
        cube = cube * ring.variable(v)
    g = gradient(cube, p)
    factors, coeffs = g[24]
    assert factors.tolist() == [[24, 25, 25, 26, 26]] and coeffs.tolist() == [2]
    assert all(not len(g[i][1]) for i in range(27) if i not in (24, 25, 26))
    zg = gradient(SparsePoly.zero(27), p)
    assert len(zg) == 27 and all(not len(c) for _, c in zg)
    # at p = 3 the partials of x^3 y^3 vanish, and so do their gather terms
    x3y3 = SparsePoly(27, {(3, 3) + (0,) * 25: 1})
    assert all(not len(c) for _, c in gradient(x3y3, 3))


@pytest.mark.parametrize("prime", [3, 313, P31])
def test_gradient_gather_form_holds_the_partials(prime):
    for poly in (expand_sodm(prime), expand_twisted_sextic(prime)):
        grad = gradient(poly, prime)
        assert len(grad) == 27
        for (factors, coeffs), part in zip(grad, _partials(poly, prime)):
            assert factors.dtype == coeffs.dtype == np.int64
            assert factors.shape == (len(part), 5)
            assert np.all(np.diff(factors, axis=1) >= 0)
            assert _gather_terms(factors, coeffs, 27) == part.terms


def test_sodm_expansion_shape():
    s = expand_sodm(313)
    assert s.total_degree() == 6
    assert s.is_homogeneous()
    assert s.coefficient((0,) * 24 + (2, 2, 2)) == 1  # the (l1 l2 l3)^2 term


# sha256 of repr(sorted(terms.items())) of each expansion, pinned from the
# tuple-keyed SparsePoly that preceded the packed keys
EXPANSION_DIGESTS = {
    ("sodm", 313): "6d21d4679a4ee4696fb4b4df2eaa8fc082138dd17f62313c059a4a3b7d176575",
    ("twisted_sextic", 313): "1ce87e7a75064168bd0980fe3a1d6493fd970287464e3c6eed630ec3cc59000b",
    ("sodm", P31): "14f5a5a7dfd106abdebcfc33e446b49308ed82a1c044a5105bbcfc8d62407b8c",
    ("twisted_sextic", P31): "11a72cd45388c6251d5996209a69356daa1708fa6f118e8d0dce16fc0d58155b",
}


@pytest.mark.parametrize("invariant, prime", sorted(EXPANSION_DIGESTS))
def test_expansion_digest_is_pinned(invariant, prime):
    poly = expand_sodm(prime) if invariant == "sodm" else expand_twisted_sextic(prime)
    digest = hashlib.sha256(repr(sorted(poly.terms.items())).encode()).hexdigest()
    assert digest == EXPANSION_DIGESTS[invariant, prime]


def test_euler_identity():
    # sum x_i dS/dx_i = 6 S for a homogeneous sextic
    p = 313
    s = expand_sodm(p)
    parts = _partials(s, p)
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


def _chart(prime, rng):
    return random_restriction(prime, rng), random_points(prime, rng)


def test_jacobian_rank_zero_map():
    p = 313
    points = random_points(p, derive_rng(0, "zero-map"))
    zero = np.zeros((27, 6), dtype=np.int64)
    assert jacobian_image_rank(s_odm_gradient, zero, points, p) == 0


def test_jacobian_rank_133_mod_313():
    p = 313
    m, points = _chart(p, derive_rng(0, "rank313"))
    assert points.shape == (CHART_VARS, CHART_ROWS)
    r = jacobian_image_rank(s_odm_gradient, m, points, p)
    assert r == 133
    assert r <= CHART_ROWS


def test_jacobian_rank_133_survives_large_prime_rerun():
    # semicontinuity: rerunning over a large prime still reaches 133
    m, points = _chart(P31, derive_rng(0, "rankbig"))
    assert jacobian_image_rank(s_odm_gradient, m, points, P31) == 133


@pytest.mark.parametrize("prime", [313, P31])
def test_gradient_evaluation_matches_the_term_by_term_eval(prime):
    # 313 keeps every product unreduced, 2^31 - 1 reduces after each factor
    rng = derive_rng(0, "gradient-at", prime)
    x = np.array([[rng.randrange(prime) for _ in range(4)] for _ in range(27)])
    x[:, 0] = prime - 1                         # the largest products
    for poly in (expand_sodm(prime), expand_twisted_sextic(prime)):
        parts = _partials(poly, prime)
        values = gradient_at(gradient(poly, prime), x, prime)
        assert values.shape == (27, 4)
        for i, part in enumerate(parts):
            assert values[i].tolist() == [part.eval(x[:, k].tolist(), prime)
                                          for k in range(4)]
    mixed = SparsePoly(27, {(1,) + (0,) * 26: 1, (2,) + (0,) * 26: 1})
    with pytest.raises(ValueError, match="homogeneous"):
        gradient(mixed, prime)
    with pytest.raises(ValueError, match="int64-safe"):
        gradient(poly, 2**61 - 1)


@pytest.mark.parametrize("prime", [313, P31])
def test_restriction_evaluates_the_partials_on_the_chart(prime):
    # the reference restriction's row_i at z equals dS/dx_i at x = m z
    parts = _partials(expand_sodm(prime), prime)
    rng = derive_rng(0, "restrict", prime)
    m = random_restriction(prime, rng)
    rows = _reference_restrict(parts, m, prime)
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
    """The term-by-term restriction: every term's index multiset is read
    from its partial, the chart rows of its five indices are multiplied one
    linear factor at a time, and the scaled products are summed per
    partial."""
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


def _coefficient_rank(partials, m, p):
    """Rank of the 162 x 462 coefficient matrix of z_j dS/dx_i(m z) in the
    degree-6 monomials of z."""
    restricted = _reference_restrict(partials, m, p)
    rows = np.zeros((len(restricted), CHART_VARS, len(_monomials(6))), dtype=np.int64)
    for j in range(CHART_VARS):
        rows[:, j, _raise_map(6, j)] = restricted
    return linalg.rank(PrimeField(p), rows.reshape(CHART_ROWS, -1))


def test_evaluation_rank_matches_the_coefficient_rank():
    p = 313
    rng = derive_rng(0, "evaluation-rank")
    twin = random_restriction(p, rng)
    twin[:, 4] = twin[:, 1]
    for (expand, grad, _), generic in zip(EXPANSIONS, (133, 104)):
        partials = _partials(expand(p), p)
        charts = [random_restriction(p, rng) for _ in range(2)]
        charts += [np.zeros((27, CHART_VARS), dtype=np.int64), twin]
        ranks = [(jacobian_image_rank(grad, m, random_points(p, rng), p),
                  _coefficient_rank(partials, m, p)) for m in charts]
        assert [a == b for a, b in ranks] == [True] * 4, ranks
        assert [a for a, _ in ranks[:2]] == [generic] * 2
        assert ranks[2] == (0, 0) and ranks[3][0] > 0


def test_aut_dimension_bound_reports():
    rep = aut_dimension_bound(313, seed=1, retries=3)
    assert rep["max_rank"] == 133
    stages = [rep[k] for k in ("restrict_sec", "rank_sec")]
    assert min(stages) > 0 and sum(stages) <= rep["elapsed_sec"]
    assert rep["aut_dim_bound"] == 29
    assert "162 - 29 = 133" in rep["consistency"]
    # nothing is expanded, so no expansion size, degree or stage time
    assert set(rep) == {"prime", "seed", "retries", "invariant", "ranks", "elapsed_sec",
                        "restrict_sec", "rank_sec", "max_rank", "aut_dim_bound",
                        "consistency"}
    empty = aut_dimension_bound(313, seed=1, retries=0)
    assert "max_rank" not in empty and "note" in empty
    assert empty["restrict_sec"] == empty["rank_sec"] == 0


def test_twisted_sextic_variant_reports_without_target():
    rep = aut_dimension_bound(313, seed=0, retries=1, invariant="twisted_sextic")
    assert rep["invariant"] == "twisted_sextic"
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


@pytest.mark.parametrize("prime", [313, P31])
def test_closed_form_gradients_equal_the_expansion_partials(prime):
    # the exact certificate: run on polynomial scalars, the closed forms
    # are the partials of the expansion, term for term
    t = symbolic_triple(PolyRing(prime, 27))
    for expand, grad, _ in EXPANSIONS:
        closed = grad(t)
        assert len(closed) == 27
        for i, part in enumerate(_partials(expand(prime), prime)):
            assert closed[i].terms == part.terms, i


def _largest_int64_lane_prime():
    p = round((1 << 58) ** (1 / 3)) + 2        # just past the int64 lanes
    while _lane_peak(p) >= 1 << 63 or not is_prime(p):
        p -= 1
    return p


P_LANE = _largest_int64_lane_prime()


@pytest.mark.parametrize("prime, dtype", [(313, np.int64), (P_LANE, np.int64),
                                          (P31, object)])
def test_closed_form_gradients_on_lanes_satisfy_euler(prime, dtype):
    # sum x_i dS/dx_i = 6 S at every lane, against the invariants on
    # Python ints; lane 0 holds p - 1 everywhere, the largest products
    field = PrimeField(prime)
    rng = derive_rng(0, "lane-euler", prime)
    x = np.array([[prime - 1] + [rng.randrange(prime) for _ in range(5)] for _ in range(27)],
                 dtype=object)
    lanes = field.array(x, peak=_lane_peak(prime))
    assert lanes.dtype == dtype
    for _, grad, invariant in EXPANSIONS:
        values = np.stack(grad(unflatten(field, 3, list(lanes))))
        assert values.shape == (27, 6) and values.dtype == dtype
        for k in range(6):
            point = [int(v) for v in x[:, k]]
            t = unflatten(field, 3, point)
            assert [int(v) for v in values[:, k]] == grad(t)
            assert sum(a * int(g) for a, g in zip(point, values[:, k])) % prime \
                == 6 * invariant(t) % prime


def test_int64_lanes_stop_at_the_lane_peak():
    above = P_LANE + 2
    while not is_prime(above):
        above += 2
    assert PrimeField(P_LANE).array([1], peak=_lane_peak(P_LANE)).dtype == np.int64
    assert PrimeField(above).array([1], peak=_lane_peak(above)).dtype == object
    assert PrimeField(above).array([1]).dtype == np.int64


@pytest.mark.parametrize("prime", [313, P31])
def test_closed_forms_match_the_gather_form_reference(prime):
    rng = derive_rng(0, "closed-vs-gather", prime)
    x = np.array([[prime - 1] + [rng.randrange(prime) for _ in range(3)] for _ in range(27)])
    field = PrimeField(prime)
    t = unflatten(field, 3, list(field.array(x, peak=_lane_peak(prime))))
    for expand, grad, _ in EXPANSIONS:
        reference = gradient_at(gradient(expand(prime), prime), x, prime)
        assert field.array(np.stack(grad(t))).tolist() == reference.tolist()


def test_the_bound_runs_past_the_int64_safe_primes():
    rep = aut_dimension_bound(2**61 - 1, 1, retries=1)
    assert rep["ranks"] == [133] and rep["aut_dim_bound"] == 29


# ranks of aut_dimension_bound(p, seed, retries=3), seeds 0-5, computed from
# the expansion's gather-form gradient before the closed forms replaced it
PINNED_RANKS = {
    (3, "sodm"): [[126, 130, 132], [129, 123, 132], [132, 133, 131],
                  [131, 126, 128], [131, 126, 131], [126, 127, 133]],
    (3, "twisted_sextic"): [[104, 104, 103], [103, 104, 103], [101, 104, 103],
                            [104, 103, 103], [104, 103, 104], [104, 104, 102]],
    (29, "sodm"): [[133] * 3] * 6,
    (29, "twisted_sextic"): [[104] * 3] * 6,
    (313, "sodm"): [[133] * 3] * 6,
    (313, "twisted_sextic"): [[104] * 3] * 6,
}


@pytest.mark.parametrize("prime, invariant", sorted(PINNED_RANKS))
def test_bound_ranks_are_pinned(prime, invariant):
    ranks = [aut_dimension_bound(prime, seed, retries=3, invariant=invariant)["ranks"]
             for seed in range(6)]
    assert ranks == PINNED_RANKS[prime, invariant]
