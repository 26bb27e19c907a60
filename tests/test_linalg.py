import numpy as np
import pytest

from octjordan import linalg
from octjordan.coeffs import (INT64_SAFE_MODULUS, ComplexField, PrimeField,
                              derive_rng, is_prime)
from octjordan.linalg import SingularMatrixError, det, eye, matmul, nullspace, rank

P31 = 2**31 - 1
F = PrimeField(P31)
C = ComplexField()


def rand_mat(ring, n, rng, m=None):
    m = m or n
    return ring.array([[ring.random(rng) for _ in range(m)] for _ in range(n)])


def test_det_identity_and_diagonal():
    assert det(F, eye(F, 24)) == 1
    d = F.array(np.diag([2, 3, 5, 7]))
    assert det(F, d) == 2 * 3 * 5 * 7
    assert abs(det(C, np.eye(24, dtype=complex)) - 1) < 1e-12


def test_det_multiplicative():
    rng = derive_rng(0, "detmul")
    for _ in range(5):
        m = rand_mat(F, 24, rng)
        assert det(F, matmul(F, m.T, m)) == F.reduce(det(F, m) * det(F, m))


def test_rank_and_nullspace():
    assert rank(F, F.array(np.zeros((6, 6), dtype=int))) == 0
    assert rank(F, eye(F, 24)) == 24
    rng = derive_rng(0, "rk")
    for cols in (8, 13):
        m = rand_mat(F, 5, rng, cols)
        ker = nullspace(F, m)
        assert rank(F, m) + ker.shape[1] == cols
        if ker.shape[1]:
            assert not np.any(matmul(F, m, ker))


def test_rank_complex_tolerance():
    rng = np.random.default_rng(3)
    u = rng.normal(size=(24, 20))
    a = u @ u.T  # rank 20
    assert rank(C, a.astype(complex)) == 20
    v = nullspace(C, a.astype(complex))
    assert v.shape[1] == 4
    assert np.linalg.norm(a @ v) <= 1e-7 * np.linalg.norm(a)


def test_complex_zero_tolerance_is_not_the_default():
    # tol=0.0 counts every nonzero singular value; only tol=None means 1e-8
    a = np.diag([1, 1e-12]).astype(complex)
    assert rank(C, a, tol=0.0) == 2 and rank(C, a) == 1
    assert nullspace(C, a, tol=0.0).shape == (2, 0)
    assert nullspace(C, a).shape == (2, 1)


def test_solve_and_inv():
    rng = derive_rng(0, "solve")
    a = rand_mat(F, 6, rng)
    b = F.array([F.random(rng) for _ in range(6)])
    x = linalg.solve(F, a, b)
    assert np.array_equal(matmul(F, a, x), b)
    assert np.array_equal(matmul(F, a, linalg.solve(F, a, eye(F, 6))), eye(F, 6))
    with pytest.raises(SingularMatrixError):
        linalg.solve(F, F.array(np.zeros((3, 3), dtype=int)), eye(F, 3))


@pytest.mark.parametrize("ring", [F, C], ids=["F_p", "C"])
def test_solve_raises_singular_matrix_error_on_both_fields(ring):
    # over C numpy's LinAlgError is translated, so callers catch one type
    with pytest.raises(SingularMatrixError):
        linalg.solve(ring, ring.array(np.array([[1, 2], [2, 4]])), eye(ring, 2))


# --- exact elimination against a pure-Python reference, in all three integer
# regimes: small p, int64 with products near 2^62, and object dtype.  313
# never reduces its unreduced updates before the end, the prime just above
# 2^30 reduces every few pivots, and 2^31 - 1 and the largest int64-safe
# prime reduce after every pivot.

def largest_prime_at_most(n):
    while not is_prime(n):
        n -= 1
    return n


def smallest_prime_at_least(n):
    while not is_prime(n):
        n += 1
    return n


ELIMINATION_PRIMES = [313, smallest_prime_at_least(1 << 30), P31,
                      largest_prime_at_most(INT64_SAFE_MODULUS), 2**61 - 1]


def reference_rank_det(rows, p):
    """Gaussian elimination on Python ints: (rank, det) of a list of rows;
    det is only meaningful for square input."""
    m = [[x % p for x in row] for row in rows]
    rk, d = 0, 1
    for c in range(len(m[0])):
        piv = next((i for i in range(rk, len(m)) if m[i][c]), None)
        if piv is None:
            d = 0
            continue
        if piv != rk:
            m[rk], m[piv] = m[piv], m[rk]
            d = -d
        d = d * m[rk][c]
        inv_c = pow(m[rk][c], -1, p)
        for i in range(rk + 1, len(m)):
            f = m[i][c] * inv_c % p
            m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk, d % p


def known_rank(p, rows, cols, r, rng):
    """B A with B = [I_r; *] and A = [I_r | *], rows and columns shuffled:
    the identity block makes the rank exactly r."""
    b = [[int(i == j) for j in range(r)] for i in range(r)]
    b += [[rng.randrange(p) for _ in range(r)] for _ in range(rows - r)]
    a = [[int(i == j) for j in range(r)] + [rng.randrange(p) for _ in range(cols - r)]
         for i in range(r)]
    prod = [[sum(b[i][k] * a[k][j] for k in range(r)) % p for j in range(cols)]
            for i in range(rows)]
    rng.shuffle(prod)
    perm = list(range(cols))
    rng.shuffle(perm)
    return [[row[j] for j in perm] for row in prod]


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
@pytest.mark.parametrize("rows, cols, r", [(12, 5, 5), (5, 12, 5), (9, 11, 4),
                                            (8, 8, 5), (7, 7, 0)])
def test_echelon_rank_and_nullspace_match_reference(p, rows, cols, r):
    ring = PrimeField(p)
    rng = derive_rng(0, "echelon", p, rows, cols, r)
    for _ in range(3):
        raw = known_rank(p, rows, cols, r, rng)
        a = ring.array(raw)
        assert a.dtype == (np.int64 if ring.p <= INT64_SAFE_MODULUS else object)
        assert rank(ring, a) == r == reference_rank_det(raw, p)[0]
        ker = nullspace(ring, a)
        assert ker.shape == (cols, cols - r)
        assert not np.any(matmul(ring, a, ker))
        assert rank(ring, ker) == cols - r
        if rows == cols:
            assert det(ring, a) == reference_rank_det(raw, p)[1]
            assert (det(ring, a) != 0) == (r == rows)


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
@pytest.mark.parametrize("rows, cols, r, lead", [(20, 60, 13, 0), (30, 90, 17, 40),
                                                  (30, 90, 0, 40), (16, 48, 16, 20)])
def test_wide_rank_with_pivots_right_of_their_row(p, rows, cols, r, lead):
    # lead zero columns push every pivot right of its row; with the column
    # shuffle of known_rank most pivots sit right of their row anyway
    ring = PrimeField(p)
    rng = derive_rng(0, "wide-echelon", p, rows, cols, r, lead)
    for _ in range(3):
        raw = [[0] * lead + row for row in known_rank(p, rows, cols - lead, r, rng)]
        a = ring.array(raw)
        assert rank(ring, a) == r == reference_rank_det(raw, p)[0]
        assert rank(ring, a.T) == r
        ker = nullspace(ring, a)
        assert ker.shape == (cols, cols - r)
        assert not np.any(matmul(ring, a, ker))


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
@pytest.mark.parametrize("r", [12, 9])
def test_det_sign_under_row_swaps(p, r):
    # zeros on the leading diagonal force the elimination itself to swap rows
    ring = PrimeField(p)
    rng = derive_rng(0, "det-swaps", p, r)
    n = 12
    for _ in range(3):
        raw = known_rank(p, n, n, r, rng)
        for i in range(n // 2):
            raw[i][i] = 0
        want = reference_rank_det(raw, p)[1]
        assert det(ring, ring.array(raw)) == want
        perm = list(range(n))
        rng.shuffle(perm)
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        swapped = ring.array([raw[i] for i in perm])
        assert det(ring, swapped) == (-want if inversions % 2 else want) % p


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
def test_det_solve_inv_match_reference(p):
    ring = PrimeField(p)
    rng = derive_rng(0, "det-solve", p)
    n = 9
    for _ in range(3):
        raw_a = known_rank(p, n, n, n, rng)
        raw_b = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        a, b = ring.array(raw_a), ring.array(raw_b)
        da = det(ring, a)
        assert da == reference_rank_det(raw_a, p)[1] != 0
        assert det(ring, b) == reference_rank_det(raw_b, p)[1]
        assert det(ring, a[[1, 0] + list(range(2, n))]) == (-da) % p
        assert det(ring, matmul(ring, a, b)) == da * det(ring, b) % p
        x = linalg.solve(ring, a, b)
        assert np.array_equal(matmul(ring, a, x), b)
        rhs = b[:, 0]
        assert np.array_equal(matmul(ring, a, linalg.solve(ring, a, rhs)), rhs)
        inv = linalg.solve(ring, a, eye(ring, n))
        assert np.array_equal(matmul(ring, a, inv), eye(ring, n))
        assert np.array_equal(matmul(ring, inv, a), eye(ring, n))


@pytest.mark.parametrize("p", ELIMINATION_PRIMES)
def test_elimination_budget_holds_under_worst_growth(p):
    # A = L U with L unit lower and U unit upper, p - 1 off both diagonals:
    # every multiplier and every pivot-row entry is the residue p - 1, so
    # each unreduced update subtracts (p - 1)^2 from every trailing entry
    ring = PrimeField(p)
    rng = derive_rng(0, "worst-growth", p)
    n = 12
    low = [[1 if i == j else p - 1 if j < i else 0 for j in range(n)] for i in range(n)]
    up = [[1 if i == j else p - 1 if j > i else 0 for j in range(n)] for i in range(n)]
    full = reference_matmul(low, up, p)
    cases = [(full, n), ([[p - 1] * n] * n, 1), ([row + row for row in full], n)]
    for raw, r in cases:
        a = ring.array(raw)
        assert rank(ring, a) == r == reference_rank_det(raw, p)[0]
        ker = nullspace(ring, a)
        assert ker.shape == (len(raw[0]), len(raw[0]) - r)
        assert not np.any(matmul(ring, a, ker))
        if len(raw) == len(raw[0]):
            assert det(ring, a) == reference_rank_det(raw, p)[1]
    assert reference_rank_det(full, p)[1] == 1
    b = [[rng.randrange(p) for _ in range(3)] for _ in range(n - 1)] + [[p - 1] * 3]
    x = linalg.solve(ring, ring.array(full), ring.array(b))
    assert reference_matmul(full, x.tolist(), p) == b


# --- matmul against Python ints: a small prime, the int64 limb split at
# 2^31-1 and at the largest int64-safe prime, and object dtype at 2^61-1

MATMUL_PRIMES = [313, P31, largest_prime_at_most(INT64_SAFE_MODULUS), 2**61 - 1]


def reference_matmul(a, b, p):
    """Product mod p of nested lists of Python ints; b a matrix or a vector."""
    if not isinstance(b[0], list):
        return [sum(x * y for x, y in zip(row, b)) % p for row in a]
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def assert_exact_product(ring, a, b, ref):
    out = matmul(ring, np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
    assert out.dtype == (np.int64 if ring.p <= INT64_SAFE_MODULUS else object)
    assert out.tolist() == ref
    if ring.p > INT64_SAFE_MODULUS:
        out = matmul(ring, np.array(a, dtype=object), np.array(b, dtype=object))
        assert out.tolist() == ref


@pytest.mark.parametrize("p", MATMUL_PRIMES)
@pytest.mark.parametrize("k", [1, 2, 3, 8, 24, 512])
def test_matmul_matches_python_ints(p, k):
    ring = PrimeField(p)
    rng = derive_rng(0, "matmul", p, k)
    top_a, top_b = [[p - 1] * k] * 3, [[p - 1] * 4] * k
    neg_a = [[-rng.randrange(1, p) for _ in range(k)] for _ in range(3)]
    neg_b = [[-rng.randrange(1, p) for _ in range(4)] for _ in range(k)]
    # unreduced entries of either sign, as in +-x_i multiplication matrices
    mixed_b = [[rng.randrange(1 - p, p) for _ in range(4)] for _ in range(k)]
    vec = [rng.randrange(1 - p, p) for _ in range(k)]
    for a, b in ((top_a, top_b), (neg_a, neg_b), (neg_a, top_b), (top_a, mixed_b),
                 (neg_a, vec), (top_a, [p - 1] * k)):
        assert_exact_product(ring, a, b, reference_matmul(a, b, p))


@pytest.mark.parametrize("p", MATMUL_PRIMES)
def test_matmul_stacked(p):
    ring = PrimeField(p)
    rng = derive_rng(0, "matmul-stack", p)
    a, b = ([[[rng.randrange(1 - p, p) for _ in range(8)] for _ in range(8)]
             for _ in range(64)] for _ in range(2))
    a[0] = [[p - 1] * 8] * 8
    b[0] = [[1 - p] * 8] * 8
    assert_exact_product(ring, a, b, [reference_matmul(x, y, p) for x, y in zip(a, b)])
