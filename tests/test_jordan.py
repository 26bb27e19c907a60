import cmath
import hashlib

import numpy as np
import pytest

from octjordan import cayley, jordan, linalg, symmetry
from octjordan.cayley import AlgebraElement, basis, zero
from octjordan.coeffs import ComplexField, PrimeField, derive_rng
from octjordan.jordan import (HermitianTriple, build_M, build_N, com,
                              det_cartan, diagonal_triple, full_matmul,
                              identity_triple, lane, random_triple, s_odm,
                              stack_lanes, to_full_matrix, triple_from_json,
                              triple_to_json, twisted_cubic, twisted_sextic,
                              unflatten)

P31 = 2**31 - 1
F = PrimeField(P31)


def test_det_cartan_basics():
    assert det_cartan(identity_triple(F, 3)) == 1
    t = diagonal_triple(F, 3, 2, 3, 5)
    assert det_cartan(t) == 30
    e1 = basis(F, 3, 0)
    t = HermitianTriple(F, 3, (0, 0, 0), e1, e1, e1)
    assert det_cartan(t) == 2  # only the 2Re(cab) term survives


def test_com_basics():
    ident = identity_triple(F, 3)
    cm = com(ident)
    assert cm.lambdas == (1, 1, 1)
    assert cm.a.coords == zero(F, 3).coords
    t = diagonal_triple(F, 3, 2, 3, 5)
    assert com(t).lambdas == (15, 10, 6)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_com_factorization_associative(level):
    rng = derive_rng(0, "comfact", level)
    for _ in range(20):
        t = random_triple(F, level, rng)
        d = det_cartan(t)
        lhs = full_matmul(to_full_matrix(com(t)), to_full_matrix(t))
        rhs = full_matmul(to_full_matrix(t), to_full_matrix(com(t)))
        want = to_full_matrix(diagonal_triple(F, level, d, d, d))
        for i in range(3):
            for j in range(3):
                assert lhs[i][j].coords == want[i][j].coords
                assert rhs[i][j].coords == want[i][j].coords


def test_com_factorization_quaternionic_octonion_data():
    rng = derive_rng(0, "comfactq")
    for _ in range(10):
        def quat():
            return AlgebraElement(F, 3, tuple(F.random(rng) for _ in range(4)) + (0,) * 4)
        t = HermitianTriple(F, 3, tuple(F.random(rng) for _ in range(3)),
                            quat(), quat(), quat())
        d = det_cartan(t)
        lhs = full_matmul(to_full_matrix(com(t)), to_full_matrix(t))
        want = to_full_matrix(diagonal_triple(F, 3, d, d, d))
        for i in range(3):
            for j in range(3):
                assert lhs[i][j].coords == want[i][j].coords


def test_com_factorization_fails_generically_at_level3():
    # the defect must be nonzero for generic octonionic data
    rng = derive_rng(0, "comdefect")
    t = random_triple(F, 3, rng)
    d = det_cartan(t)
    lhs = full_matmul(to_full_matrix(com(t)), to_full_matrix(t))
    want = to_full_matrix(diagonal_triple(F, 3, d, d, d))
    assert any(lhs[i][j].coords != want[i][j].coords for i in range(3) for j in range(3))


@pytest.mark.parametrize("p", [313, P31, 2**61 - 1])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_m_block_columns_give_the_full_matrix_product(level, p):
    # block (i, j) of build_M(Y) is L_{Y_ij} and L_x e_1 = x, so
    # build_M(X) build_M(Y)[:, ::n] stacks the columns of XY; no step
    # associates, so non-associative octonion triples qualify too
    ring = PrimeField(p)
    n = 1 << level
    rng = derive_rng(0, "m-block-product", level, p)
    for _ in range(4):
        x, y = random_triple(ring, level, rng), random_triple(ring, level, rng)
        got = linalg.matmul(ring, build_M(x), build_M(y)[:, ::n])
        prod = full_matmul(to_full_matrix(x), to_full_matrix(y))
        assert got.T.tolist() == [[v for i in range(3) for v in prod[i][j].coords]
                                  for j in range(3)]


def test_s_odm_special_values():
    t = diagonal_triple(F, 3, 2, 3, 5)
    assert s_odm(t) == 900
    rng = derive_rng(0, "sodmreal")
    for _ in range(5):
        reals = [cayley.embed_scalar(F, 3, F.random(rng)) for _ in range(3)]
        t = HermitianTriple(F, 3, tuple(F.random(rng) for _ in range(3)), *reals)
        d = det_cartan(t)
        assert s_odm(t) == F.reduce(d * d)


def test_det_m_is_sodm_fourth_power():
    rng = derive_rng(0, "detm")
    for _ in range(10):
        t = random_triple(F, 3, rng)
        assert linalg.det(F, build_M(t)) == pow(s_odm(t), 4, P31)


@pytest.mark.parametrize("level,na", [(0, 1), (1, 2), (2, 4)])
def test_det_m_associative_levels(level, na):
    rng = derive_rng(0, "detmlow", level)
    for _ in range(10):
        t = random_triple(F, level, rng)
        assert linalg.det(F, build_M(t)) == pow(det_cartan(t), na, P31)


def test_twisted_invariants_special_values():
    t = diagonal_triple(F, 3, 2, 3, 5)
    assert twisted_cubic(t) == 30
    assert twisted_sextic(t) == 900
    # c = 0 specialization
    rng = derive_rng(0, "c0")
    for _ in range(5):
        a = cayley.random_element(F, 3, rng)
        b = cayley.random_element(F, 3, rng)
        l1, l2, l3 = (F.random(rng) for _ in range(3))
        t = HermitianTriple(F, 3, (l1, l2, l3), a, b, zero(F, 3))
        e = l1 * a.norm_sq() + l2 * b.norm_sq() - l1 * l2 * l3
        assert twisted_sextic(t) == F.reduce(e * e)


def test_det_n_factorization():
    rng = derive_rng(0, "detn")
    for _ in range(10):
        t = random_triple(F, 3, rng)
        want = F.reduce(pow(twisted_cubic(t), 4, P31) * pow(twisted_sextic(t), 2, P31))
        assert linalg.det(F, build_N(t)) == want


def test_build_m_structure():
    t = diagonal_triple(F, 3, 2, 3, 5)
    m = build_M(t)
    assert linalg.det(F, m) == pow(30, 8, P31)
    rng = derive_rng(0, "sym")
    t = random_triple(F, 3, rng)
    m = build_M(t)
    assert np.array_equal(m, m.T)
    n = build_N(t)
    assert np.array_equal(n, n.T)


def test_build_n_diagonal_det():
    t = diagonal_triple(F, 3, 2, 3, 5)
    assert linalg.det(F, build_N(t)) == pow(30, 8, P31)


def test_build_n_real_c_equals_m():
    rng = derive_rng(0, "realc")
    t = random_triple(F, 3, rng)
    t = HermitianTriple(F, 3, t.lambdas, t.a, t.b, cayley.embed_scalar(F, 3, 17))
    assert np.array_equal(build_M(t), build_N(t))


def test_homogeneity():
    rng = derive_rng(0, "homog")
    t = random_triple(F, 3, rng)
    s = F.random(rng)
    st = t.scale(s)
    assert det_cartan(st) == F.reduce(s ** 3 * det_cartan(t))
    assert s_odm(st) == F.reduce(s ** 6 * s_odm(t))
    assert twisted_cubic(st) == F.reduce(s ** 3 * twisted_cubic(t))
    assert twisted_sextic(st) == F.reduce(s ** 6 * twisted_sextic(t))


def _complex_points(label, count=17):
    rng = derive_rng(0, label)
    return [random_triple(ComplexField(), 3, rng) for _ in range(count)]


@pytest.mark.parametrize("invariant", [det_cartan, com, s_odm, twisted_cubic,
                                       twisted_sextic])
def test_invariants_on_a_lane_stack_match_scalar_evaluation(invariant):
    # numpy and Python round complex products differently, so not bit-equal
    points = _complex_points("lanes")
    stacked = invariant(stack_lanes(ComplexField(), points))
    for i, t in enumerate(points):
        want = invariant(t)
        if invariant is com:
            got, want = np.array(lane(stacked, i).flatten()), np.array(want.flatten())
        else:
            got = stacked[i]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("build", [build_M, build_N])
def test_lane_stacked_build_equals_per_point_builds(build):
    C = ComplexField()
    points = _complex_points("lanebuild")
    stacked = stack_lanes(C, points)
    assert [lane(stacked, i) for i in range(len(points))] == points
    got = build(stacked)
    assert got.shape == (17, 24, 24) and got.dtype == np.complex128
    assert np.array_equal(got, np.stack([build(t) for t in points]))


def test_twisted_kernel_vectors_complex():
    # nullspace vectors of N at a degenerate point satisfy the twisted system
    C = ComplexField()
    rng = derive_rng(0, "twker")
    for _ in range(5):
        t = random_triple(C, 3, rng)
        # force the cubic to vanish by solving for lambda3 (it is linear)
        base = HermitianTriple(C, 3, (t.lambdas[0], t.lambdas[1], 0j), t.a, t.b, t.c)
        c0 = twisted_cubic(base)
        bump = HermitianTriple(C, 3, (t.lambdas[0], t.lambdas[1], 1 + 0j), t.a, t.b, t.c)
        slope = twisted_cubic(bump) - c0
        if abs(slope) < 1e-6:
            continue
        l3 = -c0 / slope
        tt = HermitianTriple(C, 3, (t.lambdas[0], t.lambdas[1], l3), t.a, t.b, t.c)
        n = build_N(tt)
        ker = linalg.nullspace(C, n, tol=1e-7)
        assert ker.shape[1] >= 1
        v = ker[:, 0]
        x = AlgebraElement(C, 3, tuple(v[:8]))
        y = AlgebraElement(C, 3, tuple(v[8:16]))
        z = AlgebraElement(C, 3, tuple(v[16:]))
        l1, l2, l3 = tt.lambdas
        r1 = x.scale(l1) + y * tt.c + tt.b.conjugate() * z
        r2 = x * tt.c.conjugate() + y.scale(l2) + tt.a * z
        r3 = tt.b * x + tt.a.conjugate() * y + z.scale(l3)
        for res in (r1, r2, r3):
            assert max(abs(w) for w in res.coords) < 1e-6


def test_flatten_roundtrip_and_json():
    rng = derive_rng(0, "flat")
    t = random_triple(F, 3, rng)
    flat = t.flatten()
    assert len(flat) == 27
    t2 = unflatten(F, 3, flat)
    assert t2 == t
    t3 = triple_from_json(F, triple_to_json(t))
    assert t3 == t
    C = ComplexField()
    tc = random_triple(C, 3, rng)
    tc2 = triple_from_json(C, triple_to_json(tc))
    assert all(abs(p - q) < 1e-15 for p, q in zip(tc.flatten(), tc2.flatten()))


def test_prime_field_scalars_are_python_ints():
    # the invariants sum unreduced products of scalars, which must not be
    # numpy int64 (it would overflow past 2^63)
    rng = derive_rng(0, "int-scalars")
    t = random_triple(F, 3, rng)
    h = F.array([[F.random(rng) for _ in range(3)] for _ in range(3)])
    moved = [triple_from_json(F, triple_to_json(t)), com(t), symmetry.sl3_act(F, h, t),
             symmetry.so7_act(F, symmetry.random_spin7(F, rng).t2, t),
             symmetry.spin7_act(symmetry.random_spin7(F, rng), t)]
    for u in [t] + moved:
        assert all(type(v) is int for v in u.flatten())
        for invariant in (det_cartan, s_odm, twisted_cubic, twisted_sextic):
            assert type(invariant(u)) is int
    assert type(linalg.det(F, h)) is int and type(linalg.det(F, build_M(t))) is int


def _digest_points():
    C = ComplexField()
    rng = derive_rng(0, "complex-digest")
    points = [random_triple(C, 3, rng) for _ in range(12)]
    points += [t.scale(s) for t, s in zip(points[:3], (1e-3, 1e6 * cmath.exp(0.7j), -2.5))]
    return points + [identity_triple(C, 3), diagonal_triple(C, 3, -1.5 + 0j, 0j, 2j)]


# sha256 of the bytes of the invariants, the comatrix and build_M / build_N
# on _digest_points one by one and on their lane stack, pinned from the
# code that summed with ring.add / ring.sub / ring.mul calls
COMPLEX_DIGEST = "5ac623757c250c4df0f11ae00930321236b43c3fc45615afb447d82f87590e6c"


def test_complex_invariants_digest_is_pinned():
    points = _digest_points()
    h = hashlib.sha256()
    for t in points + [stack_lanes(ComplexField(), points)]:
        for invariant in (det_cartan, s_odm, twisted_cubic, twisted_sextic):
            h.update(np.asarray(invariant(t), dtype=np.complex128).tobytes())
        h.update(np.array(com(t).flatten(), dtype=np.complex128).tobytes())
        h.update(build_M(t).tobytes())
        h.update(build_N(t).tobytes())
    assert h.hexdigest() == COMPLEX_DIGEST


def _np_block_assemble(t, cblock):
    # the nine blocks of build_M / build_N joined by np.block: the reference
    # for jordan._assemble, which writes the same blocks by slice
    la, lb = cayley.left_mult_matrix(t.a), cayley.left_mult_matrix(t.b)
    idn = np.eye(1 << t.level, dtype=la.dtype)
    l1, l2, l3 = (np.asarray(l)[..., None, None] * idn for l in t.lambdas)
    tr = lambda x: np.swapaxes(x, -1, -2)
    return t.ring.reduce(np.block([[l1, cblock, tr(lb)], [tr(cblock), l2, la],
                                   [lb, tr(la), l3]]))


def _same_array(x, y):
    if x.dtype == object or y.dtype == object:
        return (x.dtype == y.dtype and x.shape == y.shape and x.tolist() == y.tolist()
                and [type(v) for v in x.ravel()] == [type(v) for v in y.ravel()])
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def tensordot_mult_matrix(ring, coords, stack):
    """sum_i coords[i] stack[i] as np.tensordot forms it: the reference for
    the reshape-matmul contraction of left_mult_matrix/right_mult_matrix."""
    return ring.reduce(np.tensordot(ring.array(coords), stack, axes=(0, 0)))


@pytest.mark.parametrize("ring", [PrimeField(29), PrimeField(313), PrimeField(P31),
                                  PrimeField(2**61 - 1), ComplexField()], ids=repr)
def test_mult_matrices_equal_the_tensordot_contraction(ring):
    rng = derive_rng(0, "contraction", repr(ring))

    def coords(count):
        return ring.array([[ring.random(rng) for _ in range(count)] for _ in range(8)])

    lanes = coords(60)
    if isinstance(ring, ComplexField):
        # signed zeros: the one nonzero term of each sum is -0.0 here
        lanes[:, 0] = complex(-0.0, -0.0)
        lanes[:, 1] = complex(0.0, -0.0)
    single = cayley.random_element(ring, 3, rng)
    cases = [single, AlgebraElement(ring, 3, tuple(lanes)),
             AlgebraElement(ring, 3, tuple(coords(8)))]   # the columns of an 8x8 matrix
    for x in cases:
        for mult, stack in ((cayley.left_mult_matrix, cayley.left_basis_matrices(3)),
                            (cayley.right_mult_matrix, cayley.right_basis_matrices(3))):
            assert _same_array(mult(x), tensordot_mult_matrix(ring, x.coords, stack))
    # lane j of the stacked form is the matrix of lane j alone
    stacked = cayley.left_mult_matrix(cases[1])
    for j in (0, 1, 59):
        one = AlgebraElement(ring, 3, tuple(lanes[:, j].tolist()))
        assert _same_array(stacked[j], cayley.left_mult_matrix(one))


def test_assembly_by_slice_equals_np_block():
    C = ComplexField()
    points = _complex_points("assemble", 5)
    cases = [identity_triple(C, 3), diagonal_triple(C, 3, -1.5 + 0j, complex(-0.0, 0.0), 2j),
             stack_lanes(C, points)] + points
    for p in (29, 313, P31, 2**61 - 1):
        ring = PrimeField(p)
        rng = derive_rng(0, "assemble", p)
        cases += [identity_triple(ring, 3), diagonal_triple(ring, 3, 0, 1, p - 1)]
        cases += [random_triple(ring, level, rng) for level in range(4)]
    f313 = PrimeField(313)
    lanes = np.array([random_triple(f313, 3, derive_rng(0, "assemble-lanes", i)).flatten()
                      for i in range(4)], dtype=np.int64)
    cases.append(unflatten(f313, 3, list(lanes.T)))
    for t in cases:
        assert _same_array(build_M(t), _np_block_assemble(t, cayley.left_mult_matrix(t.c)))
        if t.level == 3:
            assert _same_array(build_N(t), _np_block_assemble(t, cayley.right_mult_matrix(t.c)))


def test_invariants_make_their_pinned_number_of_products(monkeypatch):
    # real parts come from cayley.real_product, and twisted_cubic reuses the
    # ab and Re(c(ab)) of det_cartan: full products per call are pinned
    calls = []
    product = AlgebraElement.__mul__

    def counted(x, y):
        calls.append(1)
        return product(x, y)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    t = random_triple(F, 3, derive_rng(0, "product-counts"))
    for invariant, count in ((det_cartan, 1), (twisted_cubic, 2), (twisted_sextic, 0),
                             (s_odm, 7)):
        calls.clear()
        invariant(t)
        assert len(calls) == count, invariant.__name__
