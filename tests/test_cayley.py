import random

import numpy as np
import pytest

from octjordan import cayley, linalg
from octjordan.autdim import PolyRing
from octjordan.cayley import (AlgebraElement, associator, basis, bilinear,
                              gram_im, left_mult_matrix, left_table_symbolic,
                              phi, random_element, recompose,
                              right_mult_matrix, right_table_symbolic, split,
                              unit, zero)
from octjordan.coeffs import INT64_SAFE_MODULUS, ComplexField, PrimeField, derive_rng

P31 = 2**31 - 1
F = PrimeField(P31)

# The 8x8 left and right multiplication tables the whole build is calibrated
# against, as signed variable indices (entry -4 means -x_4).
LEFT_TABLE = [
    [1, -2, -3, -4, -5, -6, -7, -8],
    [2, 1, -4, 3, -6, 5, 8, -7],
    [3, 4, 1, -2, -7, -8, 5, 6],
    [4, -3, 2, 1, -8, 7, -6, 5],
    [5, 6, 7, 8, 1, -2, -3, -4],
    [6, -5, 8, -7, 2, 1, 4, -3],
    [7, -8, -5, 6, 3, -4, 1, 2],
    [8, 7, -6, -5, 4, 3, -2, 1],
]
RIGHT_TABLE = [
    [1, -2, -3, -4, -5, -6, -7, -8],
    [2, 1, 4, -3, 6, -5, -8, 7],
    [3, -4, 1, 2, 7, 8, -5, -6],
    [4, 3, -2, 1, 8, -7, 6, -5],
    [5, -6, -7, -8, 1, 2, 3, 4],
    [6, 5, -8, 7, -2, 1, -4, 3],
    [7, 8, 5, -6, -3, 4, 1, -2],
    [8, -7, 6, 5, -4, -3, 2, 1],
]


def test_symbolic_tables_match_fixture():
    assert left_table_symbolic(3) == LEFT_TABLE
    assert right_table_symbolic(3) == RIGHT_TABLE


def test_basis_products():
    e = [basis(F, 3, i) for i in range(8)]
    assert (e[1] * e[2]).coords == e[3].coords          # e2 e3 = e4
    assert (e[1] * e[1]).coords == (-e[0]).coords       # e2 e2 = -e1
    x = random_element(F, 3, random.Random(0))
    assert (e[0] * x).coords == x.coords
    assert (x * e[0]).coords == x.coords


def test_conjugate_and_norms():
    e = [basis(F, 3, i) for i in range(8)]
    assert e[0].conjugate().coords == e[0].coords
    assert e[1].conjugate().coords == (-e[1]).coords
    assert e[4].norm_sq() == 1
    rng = random.Random(1)
    x = random_element(F, 3, rng)
    assert (x * x.conjugate()).coords == cayley.embed_scalar(F, 3, x.norm_sq()).coords


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_composition_law(level):
    rng = derive_rng(0, "comp", level)
    for _ in range(30):
        x = random_element(F, level, rng)
        y = random_element(F, level, rng)
        assert (x * y).norm_sq() == F.reduce(x.norm_sq() * y.norm_sq())


def test_alternative_and_moufang():
    rng = derive_rng(0, "alt")
    for _ in range(25):
        x = random_element(F, 3, rng)
        y = random_element(F, 3, rng)
        u = random_element(F, 3, rng)
        assert (x * (x * y)).coords == ((x * x) * y).coords
        assert ((y * x) * x).coords == (y * (x * x)).coords
        assert ((u * x) * (y * u)).coords == (u * ((x * y) * u)).coords


def test_trace_associativity():
    rng = derive_rng(0, "trace")
    for _ in range(25):
        x, y, z = (random_element(F, 3, rng) for _ in range(3))
        assert ((x * y) * z).real_part() == (x * (y * z)).real_part()


@pytest.mark.parametrize("level", [0, 1, 2])
def test_associative_below_octonions(level):
    rng = derive_rng(0, "assoc", level)
    z = zero(F, level)
    for _ in range(25):
        c, b, a = (random_element(F, level, rng) for _ in range(3))
        assert associator(c, b, a).coords == z.coords


def test_left_right_matrices():
    rng = derive_rng(0, "mats")
    import numpy as np
    assert np.array_equal(left_mult_matrix(unit(F, 3)), np.eye(8, dtype=np.int64))
    for _ in range(10):
        x = random_element(F, 3, rng)
        y = random_element(F, 3, rng)
        lx, rx = left_mult_matrix(x), right_mult_matrix(x)
        yv = np.array(y.coords, dtype=np.int64)
        assert list((lx.astype(object) @ yv.astype(object)) % P31) == list((x * y).coords)
        assert list((rx.astype(object) @ yv.astype(object)) % P31) == list((y * x).coords)
        # transpose(L_x) = L_{conj x}
        assert np.array_equal(lx.T % P31, left_mult_matrix(x.conjugate()) % P31)
        assert np.array_equal(rx.T % P31, right_mult_matrix(x.conjugate()) % P31)


@pytest.mark.parametrize("p", [313, 2**31 - 1, 2**61 - 1])
def test_mult_matrices_are_residues(p):
    # one representation per ring: residues in [0, p), int64 where it is safe
    import numpy as np
    ring = PrimeField(p)
    x = random_element(ring, 3, derive_rng(0, "mats-res", p))
    for m in (left_mult_matrix(x), right_mult_matrix(x)):
        assert m.dtype == (np.int64 if p <= INT64_SAFE_MODULUS else object)
        assert all(0 <= v < p for v in m.ravel().tolist())
        assert m[:, 0].tolist() == list(x.coords)      # L_x e_1 = R_x e_1 = x


def test_phi_and_gram():
    rng = derive_rng(0, "phi")
    e1 = unit(F, 3)
    b = random_element(F, 3, rng)
    a = random_element(F, 3, rng)
    assert associator(e1, b, a).coords == zero(F, 3).coords
    c_real = cayley.embed_scalar(F, 3, F.random(rng))
    assert phi(c_real, b, a) == 0
    # Gram-associator identity: |[c,b,a]|^2 = 4 (Gram(Im) - phi^2)
    for _ in range(25):
        c, b, a = (random_element(F, 3, rng) for _ in range(3))
        lhs = associator(c, b, a).norm_sq()
        ph = phi(c, b, a)
        rhs = F.reduce(4 * (gram_im(c, b, a) - ph * ph))
        assert lhs == rhs


def test_splitting_relations():
    rng = derive_rng(0, "splitrel")
    ell = basis(F, 3, 4)
    for _ in range(25):
        cu = [F.random(rng) for _ in range(4)]
        cv = [F.random(rng) for _ in range(4)]
        u = AlgebraElement(F, 3, tuple(cu) + (0,) * 4)
        v = AlgebraElement(F, 3, tuple(cv) + (0,) * 4)
        assert (u * (v * ell)).coords == ((v * u) * ell).coords
        assert ((u * ell) * (v * ell)).coords == (-(v.conjugate() * u)).coords
        assert (u * ell).coords == (ell * u.conjugate()).coords
        assert ((u * ell) * v).coords == ((u * v.conjugate()) * ell).coords


def test_split_recompose():
    e = [basis(F, 3, i) for i in range(8)]
    s = split(e[1])
    assert s.x0.coords == e[1].coords and s.x1.coords == zero(F, 3).coords
    s = split(e[4])
    assert s.x0.coords == zero(F, 3).coords and s.x1.coords == e[0].coords
    # e6 = q . e5 with q = e2, found by solving against the table
    s = split(e[5])
    assert s.x1.coords == e[1].coords
    rng = derive_rng(0, "split")
    for _ in range(10):
        x = random_element(F, 3, rng)
        assert recompose(split(x)).coords == x.coords


def test_level_mismatch_raises():
    with pytest.raises(ValueError):
        unit(F, 3) * unit(F, 2)


def test_complex_ring_products():
    r = ComplexField()
    rng = random.Random(9)
    for _ in range(10):
        x = random_element(r, 3, rng)
        y = random_element(r, 3, rng)
        defect = (x * y).norm_sq() - x.norm_sq() * y.norm_sq()
        assert abs(defect) < 1e-12 * max(1.0, abs(x.norm_sq()) * abs(y.norm_sq()))


@pytest.mark.parametrize("p", [29, P31, 2**61 - 1])
def test_product_matches_left_multiplication_over_prime_fields(p):
    field = PrimeField(p)
    rng = derive_rng(0, "prodmat", p)
    for _ in range(5):
        x, y = random_element(field, 3, rng), random_element(field, 3, rng)
        # a zero coordinate and the top residue exercise the edges of the sum
        x = AlgebraElement(field, 3, (0,) + x.coords[1:7] + (p - 1,))
        want = linalg.matmul(field, left_mult_matrix(x), np.array(y.coords, dtype=object))
        prod = x * y
        assert prod.coords == tuple(int(v) for v in want)
        assert all(type(v) is int and 0 <= v < p for v in prod.coords)


def _term_by_term(x, y):
    # one term per structure constant, in the table's (i, j) order, each
    # added to its coordinate and reduced at once
    r, tab = x.ring, cayley.mult_table(x.level)
    out = [r.zero] * len(x.coords)
    for i, xi in enumerate(x.coords):
        for j, yj in enumerate(y.coords):
            s, k = tab[i][j]
            out[k] = r.reduce(out[k] + xi * yj if s > 0 else out[k] - xi * yj)
    return out


def test_product_matches_left_multiplication_over_complex_numbers():
    r = ComplexField()
    rng = random.Random(5)
    for _ in range(5):
        x, y = random_element(r, 3, rng), random_element(r, 3, rng)
        want = left_mult_matrix(x) @ np.array(y.coords)
        assert np.allclose((x * y).coords, want, rtol=0, atol=1e-14)
        # the sums run in the order of a term-by-term loop, bit for bit
        assert list((x * y).coords) == _term_by_term(x, y)


def test_product_on_complex_lanes_is_the_product_of_each_lane():
    r = ComplexField()
    rng = random.Random(6)
    xs = [random_element(r, 3, rng) for _ in range(4)]
    ys = [random_element(r, 3, rng) for _ in range(4)]
    stack = lambda els: AlgebraElement(r, 3, tuple(np.array([e.coords for e in els]).T))
    prod = stack(xs) * stack(ys)
    assert all(v.shape == (4,) for v in prod.coords)
    ref = _term_by_term(stack(xs), stack(ys))
    assert all(np.array_equal(v, w) for v, w in zip(prod.coords, ref))
    for i, (x, y) in enumerate(zip(xs, ys)):
        want = left_mult_matrix(x) @ np.array(y.coords)
        assert np.allclose([v[i] for v in prod.coords], want, rtol=0, atol=1e-14)


def test_product_over_polynomial_scalars_matches_left_multiplication():
    ring = PolyRing(313, 16)
    x = AlgebraElement(ring, 3, tuple(ring.variable(i) for i in range(8)))
    y = AlgebraElement(ring, 3, tuple(ring.variable(8 + i) for i in range(8)))
    prod = (x * y).coords
    # coordinate k of xy is sum_i sum_j L[k][j] entry for x_i y_j, read off
    # the signed-index table of left multiplication
    for k in range(8):
        want = {}
        for j in range(8):
            entry = LEFT_TABLE[k][j]
            exps = [0] * 16
            exps[abs(entry) - 1] = 1
            exps[8 + j] = 1
            want[tuple(exps)] = 1 if entry > 0 else 313 - 1
        assert prod[k].terms == want


def test_bilinear_polarizes_norm():
    rng = derive_rng(0, "bil")
    for _ in range(10):
        x = random_element(F, 3, rng)
        y = random_element(F, 3, rng)
        lhs = F.reduce((x + y).norm_sq() - (x.norm_sq() + y.norm_sq()))
        assert lhs == F.reduce(2 * bilinear(x, y))


def _ring_call_bilinear(x, y):
    # one term per coordinate, in coordinate order, reduced at once
    r, acc = x.ring, x.ring.zero
    for a, b in zip(x.coords, y.coords):
        acc = r.reduce(acc + a * b)
    return acc


@pytest.mark.parametrize("ring", [PrimeField(29), F, PrimeField(2**61 - 1), ComplexField()],
                         ids=["F29", "F31", "F61", "C"])
def test_bilinear_and_norm_match_the_ring_call_sum(ring):
    rng = derive_rng(0, "bilinear-sum", repr(ring))
    top = ring.from_int(-1)
    for _ in range(5):
        x, y = random_element(ring, 3, rng), random_element(ring, 3, rng)
        # the top residue in every coordinate is the largest exact sum
        for u, v in ((x, y), (x, x), (zero(ring, 3), y),
                     (AlgebraElement(ring, 3, (top,) * 8), AlgebraElement(ring, 3, (top,) * 8))):
            assert bilinear(u, v) == _ring_call_bilinear(u, v)
            assert type(bilinear(u, v)) is type(_ring_call_bilinear(u, v))
            assert u.norm_sq() == _ring_call_bilinear(u, u)


def test_bilinear_on_complex_lanes_is_the_ring_call_sum_bit_for_bit():
    r = ComplexField()
    rng = random.Random(8)
    xs = [random_element(r, 3, rng) for _ in range(4)]
    ys = [random_element(r, 3, rng) for _ in range(4)]
    stack = lambda els: AlgebraElement(r, 3, tuple(np.array([e.coords for e in els]).T))
    x, y = stack(xs), stack(ys)
    assert np.array_equal(bilinear(x, y), _ring_call_bilinear(x, y))
    assert np.array_equal(x.norm_sq(), _ring_call_bilinear(x, x))
    # numpy's complex multiply rounds apart from Python's, so lanes agree
    # with the scalar form only to rounding
    assert np.allclose(bilinear(x, y), [bilinear(u, v) for u, v in zip(xs, ys)],
                       rtol=0, atol=1e-14)


def test_bilinear_over_polynomial_scalars_keeps_ring_calls():
    ring = PolyRing(313, 16)
    x = AlgebraElement(ring, 3, tuple(ring.variable(i) for i in range(8)))
    y = AlgebraElement(ring, 3, tuple(ring.variable(8 + i) for i in range(8)))
    want = {tuple(int(k in (i, 8 + i)) for k in range(16)): 1 for i in range(8)}
    assert bilinear(x, y).terms == want
    assert x.norm_sq().terms == {tuple(2 * int(k == i) for k in range(16)): 1 for i in range(8)}
