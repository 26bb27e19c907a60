import random

import numpy as np
import pytest

from octjordan import linalg
from octjordan.coeffs import ComplexField, PrimeField, derive_rng
from octjordan.linalg import (IsotropicVectorError, SingularMatrixError,
                              cayley_orthogonal, det, eye, field_array, inv,
                              matmul, nullspace, random_skew, rank,
                              reflection_pair)

P31 = 2**31 - 1
F = PrimeField(P31)
C = ComplexField()


def rand_mat(ring, n, rng, m=None):
    m = m or n
    return field_array(ring, [[ring.random(rng) for _ in range(m)] for _ in range(n)])


def test_det_identity_and_diagonal():
    assert det(F, eye(F, 24)) == 1
    d = field_array(F, np.diag([2, 3, 5, 7]))
    assert det(F, d) == 2 * 3 * 5 * 7
    assert abs(det(C, np.eye(24, dtype=complex)) - 1) < 1e-12


def test_det_multiplicative():
    rng = derive_rng(0, "detmul")
    for _ in range(5):
        m = rand_mat(F, 24, rng)
        assert det(F, matmul(F, m.T, m)) == F.mul(det(F, m), det(F, m))


def test_rank_and_nullspace():
    assert rank(F, field_array(F, np.zeros((6, 6), dtype=int))) == 0
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


def test_solve_and_inv():
    rng = derive_rng(0, "solve")
    a = rand_mat(F, 6, rng)
    b = field_array(F, [F.random(rng) for _ in range(6)])
    x = linalg.solve(F, a, b)
    assert np.array_equal(matmul(F, a, x), b)
    assert np.array_equal(matmul(F, a, inv(F, a)), eye(F, 6))
    with pytest.raises(SingularMatrixError):
        linalg.solve(F, field_array(F, np.zeros((3, 3), dtype=int)), eye(F, 3))


def test_cayley_orthogonal_field():
    rng = derive_rng(0, "cayf")
    assert np.array_equal(cayley_orthogonal(F, field_array(F, np.zeros((5, 5), dtype=int))),
                          eye(F, 5))
    for _ in range(5):
        s = random_skew(F, 8, rng, fix_first=True)
        q = cayley_orthogonal(F, s)
        assert np.array_equal(matmul(F, q.T, q), eye(F, 8))
        assert det(F, q) == 1
        assert list(q[:, 0]) == [1, 0, 0, 0, 0, 0, 0, 0]
        assert list(q[0, :]) == [1, 0, 0, 0, 0, 0, 0, 0]


def test_cayley_orthogonal_complex():
    rng = derive_rng(0, "cayc")
    for _ in range(5):
        s = random_skew(C, 8, rng, fix_first=True)
        q = cayley_orthogonal(C, s)
        assert np.linalg.norm(q.T @ q - np.eye(8)) < 1e-12
        assert np.linalg.norm(q[:, 0] - np.eye(8)[:, 0]) < 1e-12


def test_reflection_pair_complex():
    rng = derive_rng(0, "refl")
    rr = random.Random(11)
    for _ in range(20):
        u = np.array([0.0] + [rr.uniform(-1, 1) for _ in range(7)], dtype=complex)
        v = np.array([0.0] + [rr.uniform(-1, 1) for _ in range(7)], dtype=complex)
        t = reflection_pair(C, u, v)
        assert np.linalg.norm(t.T @ t - np.eye(8)) < 1e-10
        assert abs(np.linalg.det(t) - 1) < 1e-10
        assert np.linalg.norm(t[:, 0] - np.eye(8)[:, 0]) < 1e-10  # fixes e1
        img = t @ u
        # image is parallel to v
        cross = np.outer(img, v) - np.outer(v, img)
        assert np.linalg.norm(cross) < 1e-8 * max(1.0, np.linalg.norm(img) * np.linalg.norm(v))


def test_reflection_pair_same_vector():
    u = np.array([0, 1, 2, 3, 0, 0, 0, 0], dtype=complex)
    t = reflection_pair(C, u, u)
    assert np.linalg.norm(t @ u - u) < 1e-12


def test_reflection_pair_isotropic_raises():
    u = np.array([0, 1, 1j, 0, 0, 0, 0, 0], dtype=complex)  # B(u,u) = 0
    v = np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=complex)
    with pytest.raises(IsotropicVectorError):
        reflection_pair(C, u, v)


def test_reflection_pair_field():
    rng = derive_rng(0, "reflf")
    done = 0
    while done < 5:
        u = field_array(F, [0] + [F.random(rng) for _ in range(7)])
        v = field_array(F, [0] + [F.random(rng) for _ in range(7)])
        try:
            t = reflection_pair(F, u, v)
        except IsotropicVectorError:
            continue
        assert np.array_equal(matmul(F, t.T, t), eye(F, 8))
        img = matmul(F, t, u)
        cross = (np.outer(img, v) - np.outer(v, img)) % P31
        assert not np.any(cross)
        done += 1
