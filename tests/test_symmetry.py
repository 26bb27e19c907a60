import functools
import hashlib

import numpy as np
import pytest

from octjordan import cayley, linalg, symmetry
from octjordan.coeffs import (INT64_SAFE_MODULUS, ComplexField, PrimeField, derive_rng,
                              is_prime)
from octjordan.jordan import (HermitianTriple, build_M, build_N, det_cartan,
                              full_matmul, random_triple, s_odm, to_full_matrix,
                              twisted_cubic, twisted_sextic)
from octjordan.reduce import chart_pair, expm
from octjordan.symmetry import (WORD_LENGTH, LiftError, TrialityTriple,
                                fast_right_companion, kappa,
                                lift_left_companion, lift_right_companion,
                                random_spin7, sl3_act, so7_act, spin7_act,
                                spin7_word, triality_defect)

P31 = 2**31 - 1
F = PrimeField(P31)
C = ComplexField()


def test_lift_identity():
    t = lift_right_companion(F, linalg.eye(F, 8))
    assert np.array_equal(t.t1, linalg.eye(F, 8))
    t2 = lift_left_companion(F, linalg.eye(F, 8))
    assert np.array_equal(t2, linalg.eye(F, 8))


def test_lift_right_field_exact():
    rng = derive_rng(0, "liftf")
    trip = random_spin7(F, rng)
    assert trip.defect() == 0
    assert np.array_equal(linalg.matmul(F, trip.t1.T, trip.t1), linalg.eye(F, 8))


def test_lift_left_field():
    rng = derive_rng(0, "liftl")
    t1, t2 = left_pair(F, rng)
    assert np.array_equal(linalg.matmul(F, t2.T, t2), linalg.eye(F, 8))


def moves_e1(ring):
    # an orthogonal signed permutation swapping e1 and e2 is not in the SO7 image
    m = np.zeros((8, 8), dtype=np.int64)
    m[[1, 0, 3, 2, 5, 4, 7, 6], range(8)] = [1, 1, 1, 1, 1, 1, 1, -1]
    return ring.array(m)


def test_lift_rejects_non_so7():
    with pytest.raises(LiftError):
        lift_right_companion(F, moves_e1(F))


def test_lift_refuses_a_ring_other_than_a_prime_field():
    # the lift runs over F_p; over C it stops before any elimination
    rng = derive_rng(0, "complex-lift")
    t = complex_right_pair(rng)[1]
    for lift in (fast_right_companion, lift_right_companion, lift_left_companion):
        with pytest.raises(ValueError, match="runs over F_p"):
            lift(C, t)
    with pytest.raises(ValueError, match="runs over F_p"):
        random_spin7(C, rng)


def test_kappa():
    assert np.array_equal(kappa(F, linalg.eye(F, 8)), linalg.eye(F, 8))
    rng = derive_rng(0, "kap")
    t = random_spin7(F, rng).t2
    k = kappa(F, t)
    assert np.array_equal(linalg.matmul(F, k.T, k), linalg.eye(F, 8))
    assert np.array_equal(kappa(F, k), t)


def test_kappa_triple_is_triality():
    # if (T1,T2,T1) is a triality then (K_{T1}, T1, T2) is one as well
    rng = derive_rng(0, "kaptrip")
    trip = random_spin7(F, rng)
    k1 = kappa(F, trip.t1)
    tab = cayley.mult_table(3)
    for i in range(8):
        for j in range(8):
            x = cayley.AlgebraElement(F, 3, tuple(k1[:, i].tolist()))
            y = cayley.AlgebraElement(F, 3, tuple(trip.t1[:, j].tolist()))
            s, k = tab[i][j]
            rhs = trip.t2[:, k] if s > 0 else (-trip.t2[:, k]) % P31
            assert list((x * y).coords) == list(rhs)


def test_spin7_act_identity():
    rng = derive_rng(0, "actid")
    a = random_triple(F, 3, rng)
    out = spin7_act(TrialityTriple.identity(F), a)
    assert out == a


def test_spin7_invariance_and_conjugation():
    rng = derive_rng(0, "inv7")
    trip = random_spin7(F, rng)
    blocks = np.zeros((24, 24), dtype=np.int64)
    blocks[0:8, 0:8] = trip.t1
    blocks[8:16, 8:16] = trip.t1
    blocks[16:24, 16:24] = trip.t2
    for _ in range(5):
        a = random_triple(F, 3, rng)
        moved = spin7_act(trip, a)
        assert twisted_cubic(moved) == twisted_cubic(a)
        assert twisted_sextic(moved) == twisted_sextic(a)
        lhs = build_N(moved)
        rhs = linalg.matmul(F, linalg.matmul(F, blocks, build_N(a)), blocks.T)
        assert np.array_equal(lhs, rhs)


def test_so7_m_conjugation():
    rng = derive_rng(0, "conj7")
    t1, t2 = left_pair(F, rng)
    blocks = np.zeros((24, 24), dtype=np.int64)
    for k in range(3):
        blocks[8 * k:8 * k + 8, 8 * k:8 * k + 8] = t2
    for _ in range(5):
        a = random_triple(F, 3, rng)
        moved = so7_act(F, t1, a)
        assert s_odm(moved) == s_odm(a)
        lhs = build_M(moved)
        rhs = linalg.matmul(F, linalg.matmul(F, blocks, build_M(a)), blocks.T)
        assert np.array_equal(lhs, rhs)


def test_sl3_act():
    rng = derive_rng(0, "sl3")
    a = random_triple(F, 3, rng)
    assert sl3_act(F, linalg.eye(F, 3), a) == a
    for _ in range(5):
        h = F.array([[F.random(rng) for _ in range(3)] for _ in range(3)])
        if linalg.det(F, h) == 0:
            continue
        moved = sl3_act(F, h, a)
        dh = linalg.det(F, h)
        assert det_cartan(moved) == F.reduce(dh * dh * det_cartan(a))


def _congruence_by_full_matmul(ring, h, a):
    # H^T A H as products of 3x3 matrices of octonions, scalars embedded
    emb = [[cayley.embed_scalar(ring, 3, v) for v in row] for row in h.tolist()]
    ht = [[emb[j][i] for j in range(3)] for i in range(3)]
    out = full_matmul(full_matmul(ht, to_full_matrix(a)), emb)
    return HermitianTriple(ring, 3, tuple(out[i][i].coords[0] for i in range(3)),
                           out[1][2], out[2][0], out[0][1])


@pytest.mark.parametrize("ring", [PrimeField(313), F, PrimeField(2**61 - 1), C],
                         ids=["F313", "F2^31-1", "F2^61-1", "C"])
def test_sl3_act_is_the_congruence_of_the_full_matrix(ring):
    rng = derive_rng(0, "sl3ref", repr(ring))
    draw = lambda: ring.random(rng)
    for general in (True, False):
        if general:
            rows = [[draw() for _ in range(3)] for _ in range(3)]
        else:  # the block shape of C9's twisted covariance check
            rows = [[draw(), draw(), 0], [draw(), draw(), 0], [0, 0, draw()]]
        h = np.array(rows, dtype=complex) if ring == C else ring.array(rows)
        a = random_triple(ring, 3, rng)
        got, want = sl3_act(ring, h, a), _congruence_by_full_matmul(ring, h, a)
        scalars = got.flatten()
        if ring == C:
            assert all(type(v) is complex for v in scalars)
            assert np.allclose(scalars, want.flatten(), rtol=0, atol=1e-12)
        else:
            assert h.dtype == (np.int64 if ring.p <= INT64_SAFE_MODULUS else object)
            assert all(type(v) is int for v in scalars)
            assert got == want


def test_sl3_spin7_rank_preservation_on_degenerate_point():
    # group moves preserve the rank of N at degenerate points
    rng = derive_rng(0, "rankpres")
    trip = random_spin7(F, rng)
    while True:
        a = random_triple(F, 3, rng)
        # make the cubic vanish by solving the linear equation in lambda3
        base = HermitianTriple(F, 3, (a.lambdas[0], a.lambdas[1], 0), a.a, a.b, a.c)
        c0 = twisted_cubic(base)
        c1 = twisted_cubic(HermitianTriple(F, 3, (a.lambdas[0], a.lambdas[1], 1),
                                           a.a, a.b, a.c))
        slope = F.reduce(c1 - c0)
        if slope == 0:
            continue
        l3 = F.reduce(-c0 * F.inv(slope))
        a = HermitianTriple(F, 3, (a.lambdas[0], a.lambdas[1], l3), a.a, a.b, a.c)
        break
    assert twisted_cubic(a) == 0
    r0 = linalg.rank(F, build_N(a))
    assert r0 < 24
    assert linalg.rank(F, build_N(spin7_act(trip, a))) == r0
    # congruences in the block subgroup compatible with the twist also
    # preserve the rank of N at degenerate points
    hb = F.array([[3, 7, 0], [2, 5, 0], [0, 0, 11]])
    assert linalg.rank(F, build_N(sl3_act(F, hb, a))) == r0


def test_fast_lift_is_the_unique_orthogonal_companion():
    # the fiber is one-dimensional, so the solutions are the multiples of T1;
    # orthogonality leaves T1 and -T1, and the canonical sign picks one
    rng = derive_rng(0, "fastagree")
    t2 = random_spin7(F, rng).t2
    t1 = fast_right_companion(F, t2)
    assert triality_defect(F, t1, t2) == 0
    assert triality_defect(F, (-t1) % P31, t2) == 0
    assert np.array_equal(linalg.matmul(F, t1.T, t1), linalg.eye(F, 8))
    assert linalg.nullspace(F, symmetry._first_column_system(F, t2)).shape[1] == 1
    assert np.array_equal(lift_right_companion(F, t2).t1, t1)


def test_first_column_fiber_contains_identity():
    # for the identity both systems have the unit e_1 as their only solution
    e1 = F.array([[1], [0], [0], [0], [0], [0], [0], [0]])
    for system in (symmetry._first_column_system(F, linalg.eye(F, 8)),
                   reference_first_column_system(F, linalg.eye(F, 8), "left")):
        ker = linalg.nullspace(F, system)
        assert ker.shape[1] == 1
        assert linalg.rank(F, np.concatenate([ker, e1], axis=1)) == 1


def test_first_column_fiber_dimension():
    # for T2 in the SO7 image the right system has a 1-dim solution space,
    # and T1 = L_u T2 satisfies every intertwiner constraint
    # T1 R_{e_j} = R_{T2(e_j)} T1 exactly, before any normalization
    rng = derive_rng(0, "fiber")
    t2 = so7_element(F, rng)
    ker = linalg.nullspace(F, symmetry._first_column_system(F, t2))
    assert ker.shape[1] == 1
    u = cayley.AlgebraElement(F, 3, tuple(ker[:, 0].tolist()))
    x = linalg.matmul(F, cayley.left_mult_matrix(u), t2)
    for j in range(8):
        p = cayley.right_mult_matrix(cayley.basis(F, 3, j))
        q = cayley.right_mult_matrix(cayley.AlgebraElement(F, 3, tuple(t2[:, j].tolist())))
        assert np.array_equal(linalg.matmul(F, x, p), linalg.matmul(F, q, x))
    # likewise T2 = R_w T1 intertwines L_{e_j} with L_{T1(e_j)} on the left side
    t1 = so7_element(F, rng)
    ker = linalg.nullspace(F, reference_first_column_system(F, t1, "left"))
    assert ker.shape[1] == 1
    w = cayley.AlgebraElement(F, 3, tuple(ker[:, 0].tolist()))
    x = linalg.matmul(F, cayley.right_mult_matrix(w), t1)
    for j in range(8):
        p = cayley.left_mult_matrix(cayley.basis(F, 3, j))
        q = cayley.left_mult_matrix(cayley.AlgebraElement(F, 3, tuple(t1[:, j].tolist())))
        assert np.array_equal(linalg.matmul(F, x, p), linalg.matmul(F, q, x))


def test_lift_left_rejects_non_so7():
    with pytest.raises(LiftError):
        lift_left_companion(F, moves_e1(F))


def test_certificate_rejects_non_finite_pairs():
    trip = TrialityTriple.identity(C)
    for bad in (np.nan, np.inf):
        t2 = trip.t2.astype(complex)
        t2[3, 4] = bad
        with np.errstate(invalid="ignore"), pytest.raises(LiftError):
            TrialityTriple(C, trip.t1, t2).certified()


def test_triality_defect_counts():
    rng = derive_rng(0, "defcnt")
    trip = random_spin7(F, rng)
    assert triality_defect(F, trip.t1, trip.t2) == 0
    wrong = trip.t1.copy()
    wrong[0, 0] = (wrong[0, 0] + 1) % P31
    assert triality_defect(F, wrong, trip.t2) > 0


# --- the batched triality kernels against the per-pair loops they replaced

def reference_pair_defect(ring, a, b, c):
    """A(e_i) B(e_j) = C(e_i e_j) checked with 64 octonion products."""
    tab = cayley.mult_table(3)
    cols = [[cayley.AlgebraElement(ring, 3, tuple(m[:, j].tolist())) for j in range(8)]
            for m in (a, b, c)]
    approx = isinstance(ring, ComplexField)
    worst = 0.0 if approx else 0
    for i in range(8):
        for j in range(8):
            lhs = cols[0][i] * cols[1][j]
            s, k = tab[i][j]
            rhs = cols[2][k] if s > 0 else -cols[2][k]
            if approx:
                worst = max(worst, max(abs(x - y) for x, y in zip(lhs.coords, rhs.coords)))
            elif lhs.coords != rhs.coords:
                worst += 1
    return worst


def reference_first_column_system(ring, m, side):
    """The 512x8 system block by block, with 64 explicit 8x8 products."""
    right = side == "right"
    mult = cayley.right_mult_matrix if right else cayley.left_mult_matrix
    byc = [mult(cayley.AlgebraElement(ring, 3, tuple(m[:, j].tolist()))) for j in range(8)]
    tab = cayley.mult_table(3)
    blocks = []
    for i in range(8):
        for j in range(8):
            s, k = tab[i][j]
            a, b = (j, i) if right else (i, j)
            blocks.append((s * byc[k] - linalg.matmul(ring, byc[a], byc[b])) % ring.p)
    return np.concatenate(blocks, axis=0)


def left_pair(ring, rng):
    """(T1, T2) with T2 the certified left companion of T1 = K_{T2'} for a
    random right pair (T1', T2'); the companion is K_{T1'} up to sign."""
    right = random_spin7(ring, rng)
    t1 = kappa(ring, right.t2)
    t2 = lift_left_companion(ring, t1)
    assert np.array_equal(t2, symmetry._canonical_sign(ring, kappa(ring, right.t1)))
    return t1, t2


def so7_element(ring, rng):
    """A random SO7 element fixing e_1 that may lie outside the image of
    Spin7: the T2 of a word draw times two reflections in random vectors
    of Im O, whose spinor norm q(a) q(b) is a non-residue about half the
    time."""
    out = random_spin7(ring, rng).t2.astype(object)
    for _ in range(2):
        v = np.array([0] + [ring.random(rng) for _ in range(7)], dtype=object)
        # x -> x - 2 (x.v) / (v.v) v
        out = out - 2 * ring.inv(int(v @ v)) * np.outer(v, v @ out)
    return ring.array(out % ring.p)


TRIALITY_PRIMES = [313, P31, 2**61 - 1]


@pytest.mark.parametrize("p", TRIALITY_PRIMES)
def test_pair_defect_matches_the_product_loop(p):
    ring = PrimeField(p)
    rng = derive_rng(0, "pair-defect", p)
    trip = random_spin7(ring, rng)
    t1l, t2l = left_pair(ring, rng)
    assert symmetry._pair_defect(ring, trip.t1, trip.t2, trip.t1) == 0
    assert symmetry._pair_defect(ring, t1l, t2l, t2l) == 0
    for j in (0, 5):
        bad_t2, bad_left = trip.t2.copy(), t2l.copy()
        bad_t2[:, j] = (bad_t2[:, j] + rng.randrange(1, p)) % p
        bad_left[:, j] = (bad_left[:, j] + rng.randrange(1, p)) % p
        for args in ((trip.t1, bad_t2, trip.t1), (t1l, bad_left, bad_left)):
            count = symmetry._pair_defect(ring, *args)
            assert count == reference_pair_defect(ring, *args) > 0


def complex_right_pair(rng):
    """(T1, T2) with T1(x) T2(y) = T1(xy): exponentials of the chart pairs."""
    a1, a2 = chart_pair()
    theta = np.array([complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5)) for _ in range(len(a2))])
    return expm(np.tensordot(theta, a1, 1)), expm(np.tensordot(theta, a2, 1))


def test_pair_defect_matches_the_product_loop_complex():
    rng = derive_rng(0, "pair-defect-c")
    trip = TrialityTriple(C, *complex_right_pair(rng))
    # conjugating a right pair gives a left pair: (K_{T2}, K_{T1})
    t1, t2 = complex_right_pair(rng)
    t1l, t2l = kappa(C, t2), kappa(C, t1)
    for bump in (0.0, 1e-3):
        bad_t2, bad_left = trip.t2.copy(), t2l.copy()
        bad_t2[:, 3] += bump
        bad_left[:, 6] += bump
        for args in ((trip.t1, bad_t2, trip.t1), (t1l, bad_left, bad_left)):
            worst = symmetry._pair_defect(C, *args)
            assert abs(worst - reference_pair_defect(C, *args)) <= 1e-12
            assert (worst > 1e-6) == (bump > 0)


@pytest.mark.parametrize("p", TRIALITY_PRIMES)
def test_first_column_system_matches_the_block_loop(p):
    ring = PrimeField(p)
    rng = derive_rng(0, "first-column", p)
    arbitrary = ring.array([[ring.random(rng) for _ in range(8)]
                                          for _ in range(8)])
    for m in (random_spin7(ring, rng).t2, so7_element(ring, rng), arbitrary):
        assert np.array_equal(symmetry._first_column_system(ring, m),
                              reference_first_column_system(ring, m, "right"))


def reference_left_companion(ring, t1):
    """T2 = R_w T1 from the kernel w of the block-loop left system, scaled
    to unit norm and given the canonical sign; None for a non-residue."""
    ker = linalg.nullspace(ring, reference_first_column_system(ring, t1, "left"))
    assert ker.shape[1] == 1
    w = cayley.AlgebraElement(ring, 3, tuple(ker[:, 0].tolist()))
    r = ring.sqrt(w.norm_sq())
    if r is None:
        return None
    factor = cayley.right_mult_matrix(w.scale(ring.inv(r)))
    return symmetry._canonical_sign(ring, linalg.matmul(ring, factor, t1))


@pytest.mark.parametrize("p", TRIALITY_PRIMES)
def test_left_companion_matches_the_block_loop_system(p):
    # the conjugated right lift is the left system's solution, bit for bit,
    # and lacks a square root exactly when the left system's does
    ring = PrimeField(p)
    rng = derive_rng(0, "left-companion", p)
    retries = 0
    for _ in range(12):
        t1 = so7_element(ring, rng)
        want = reference_left_companion(ring, t1)
        if want is None:
            retries += 1
            with pytest.raises(symmetry.NonResidueError):
                lift_left_companion(ring, t1)
        else:
            assert np.array_equal(lift_left_companion(ring, t1), want)
    assert 0 < retries < 12


# --- the F_p Spin7 word, checked against the lift

WORD_PRIMES = [29, 313, P31, 2**61 - 1]


@pytest.mark.parametrize("p", WORD_PRIMES)
def test_word_factors_are_nilpotent_triality_pairs(p):
    ring = PrimeField(p)
    a1, a2, h = symmetry._nilpotent_word(p)
    assert a1.shape == a2.shape == h.shape == (WORD_LENGTH, 8, 8)
    assert np.array_equal(a2, ring.reduce(-a2.transpose(0, 2, 1)))
    assert not np.any(a2[:, 0]) and not np.any(a2[:, :, 0])
    sq = linalg.matmul(ring, a2, a2)
    assert np.array_equal(ring.reduce(2 * h), sq)
    assert not np.any(linalg.matmul(ring, sq, a2))
    assert not np.any(linalg.matmul(ring, a1, a1))
    with pytest.raises(ValueError):
        a2[0, 1, 2] = 0


@pytest.mark.parametrize("p", WORD_PRIMES)
def test_word_draw_matches_the_lift(p):
    # the lift recovers T1 from T2 up to sign, (K_{T2}, K_{T1}) is a left
    # pair, and T2 is in SO7 and fixes e_1
    ring = PrimeField(p)
    rng = derive_rng(0, "word-vs-lift", p)
    for _ in range(3):
        trip = random_spin7(ring, rng)
        assert trip.defect() == 0
        lifted = lift_right_companion(ring, trip.t2).t1
        assert np.array_equal(lifted, trip.t1) or np.array_equal(lifted, ring.reduce(-trip.t1))
        t1, t2 = kappa(ring, trip.t2), kappa(ring, trip.t1)
        assert symmetry._pair_defect(ring, t1, t2, t2) == 0
        assert np.array_equal(linalg.matmul(ring, trip.t2.T, trip.t2), linalg.eye(ring, 8))
        assert linalg.det(ring, trip.t2) == 1
        assert trip.t2[:, 0].tolist() == trip.t2[0].tolist() == [1] + [0] * 7


@pytest.mark.parametrize("p", [313, P31])
def test_word_jacobian_has_rank_dim_so7(p):
    # T2 is quadratic in each parameter, so T2(t + e_k) - T2(t - e_k) is
    # twice its partial derivative in t_k, exactly
    ring = PrimeField(p)
    rng = derive_rng(0, "word-jacobian", p)
    t = [ring.random(rng) for _ in range(WORD_LENGTH)]
    rows = []
    for k in range(WORD_LENGTH):
        up, down = list(t), list(t)
        up[k] += 1
        down[k] -= 1
        rows.append(ring.reduce(spin7_word(ring, up).t2 - spin7_word(ring, down).t2).ravel())
    assert linalg.rank(ring, np.array(rows)) == WORD_LENGTH == 21


def test_word_generators_span_so7_at_small_primes():
    # the derivative at t = 0 is the A2 stack, so rank 21 makes the word dominant
    primes = [q for q in range(29, 400) if is_prime(q)]
    for p in primes + [P31, 2**61 - 1]:
        a2 = symmetry._nilpotent_word(p)[1]
        assert linalg.rank(PrimeField(p), a2.reshape(WORD_LENGTH, 64)) == WORD_LENGTH, p


def test_word_redraws_pairs_that_do_not_span_so7(monkeypatch):
    # a deficient first draw is replaced by the next 21 pairs of the generator
    p = 313
    first = symmetry._nilpotent_word(p)
    echelon, calls = linalg._echelon, []

    def deficient_once(*args, **kwargs):
        m, pivots, detf = echelon(*args, **kwargs)
        calls.append(len(pivots))
        return m, pivots[:-1] if len(calls) == 1 else pivots, detf

    monkeypatch.setattr(linalg, "_echelon", deficient_once)
    symmetry._nilpotent_word.cache_clear()
    try:
        redrawn = symmetry._nilpotent_word(p)
    finally:
        symmetry._nilpotent_word.cache_clear()
    assert calls == [WORD_LENGTH, WORD_LENGTH]
    assert not np.array_equal(redrawn[1], first[1])
    monkeypatch.setattr(symmetry, "_nilpotent_word", lambda q: redrawn)
    assert random_spin7(PrimeField(p), derive_rng(0, "redrawn")).defect() == 0



@pytest.mark.parametrize("p", [29, 313, P31, 2**61 - 1])
def test_word_tree_product_equals_the_left_fold(p):
    # spin7_word multiplies its 21 factor pairs as a balanced tree; over F_p
    # the product is exact, so it equals the left fold f_0 f_1 ... f_20
    ring = PrimeField(p)
    a1, a2, h = symmetry._nilpotent_word(p)
    rng = derive_rng(0, "word-tree", p)
    for _ in range(3):
        t = [ring.random(rng) for _ in range(WORD_LENGTH)]
        tt = ring.array(t)[:, None, None]
        eye = linalg.eye(ring, 8)
        t2 = ring.reduce(eye + ring.reduce(tt * a2) + ring.reduce(ring.reduce(tt * tt) * h))
        factors = np.stack([ring.reduce(eye + tt * a1), t2], axis=1)
        want = functools.reduce(functools.partial(linalg.matmul, ring), factors)
        word = spin7_word(ring, t)
        for got, ref in zip((word.t1, word.t2), want):
            assert got.dtype == ref.dtype and got.tolist() == ref.tolist()


# sha256 over the dtype and values of the stacks A1, A2 and A2^2 / 2 of the
# word, pinned from the word built with hand reductions mod p
WORD_DIGESTS = {
    29: "8447c7ccda30e56b164512967728a809d26b4a4dfced234a7e35e0d4b88f4415",
    313: "7aabaff2995e582f434ac8d7013bd088821c911f37b8282b1a9a1dfd3df7f75c",
    P31: "e2b1e1c684998339bd8c2232d7707da5f4aedde0d615f3eea2182412251cc0e1",
    2**61 - 1: "317c42a7c689de4bc9963b4ae9ec08d809482463090d0280b2dd3d505ef6fcbd",
}


@pytest.mark.parametrize("p", sorted(WORD_DIGESTS))
def test_word_stacks_are_pinned(p):
    stacks = [(m.dtype.str, m.tolist()) for m in symmetry._nilpotent_word(p)]
    assert hashlib.sha256(repr(stacks).encode()).hexdigest() == WORD_DIGESTS[p]
