"""Dense linear algebra over prime fields and over complex floats.

Field matrices are numpy arrays of int64 residues at every prime up to
coeffs.INT64_SAFE_MODULUS, and of Python ints (object dtype) past it; all
elimination steps reduce mod p immediately after each scalar product, and
products whose sums could pass 2^63 split the left factor into 16-bit limbs
(see matmul), so no intermediate overflows.  rank and det eliminate by
forward elimination (only the rows below each pivot); nullspace and solve
read the reduced row echelon form.  Complex matrices are complex128 and
the rank/nullspace decisions go through singular values with a tolerance
relative to the largest one.
"""

from __future__ import annotations

import random

import numpy as np

from .coeffs import ComplexField, PrimeField

DEFAULT_RANK_TOL = 1e-8


class SingularMatrixError(ValueError):
    """Inversion attempted on a singular matrix (for Cayley: I+S singular)."""


class IsotropicVectorError(ValueError):
    """A construction needed a non-isotropic vector; caller should resample."""


def _sum_safe(p: int, n: int) -> bool:
    return n * (p - 1) * (p - 1) < (1 << 63) - 1


def _limb_safe(p: int, n: int) -> bool:
    # for |a| < p < 2^32, |a >> 16| <= 2^16 and 0 <= a & 0xFFFF < 2^16, so
    # every partial sum of the split product is below (n + 1) 2^16 (p - 1)
    return p < 1 << 32 and (n + 1) * (p - 1) << 16 < (1 << 63) - 1


def field_array(ring: PrimeField, rows) -> np.ndarray:
    dtype = np.int64 if ring.int64_safe else object
    return np.array(rows, dtype=dtype) % ring.p


def eye(ring, n: int) -> np.ndarray:
    if isinstance(ring, ComplexField):
        return np.eye(n, dtype=np.complex128)
    return field_array(ring, np.eye(n, dtype=np.int64))


def matmul(ring, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product with np.matmul semantics (stacks broadcast): exact residues
    over F_p, the plain product over the complex field.

    Over F_p, int64 operands with entries in (-p, p) stay int64.  When the
    k = a.shape[-1] products of one sum could pass 2^63, the left factor is
    split into 16-bit limbs, a = (a >> 16) 2^16 + (a & 0xFFFF), and
    a b = (((a >> 16) b mod p) 2^16 + (a & 0xFFFF) b) mod p; every partial
    sum then stays below (k + 1) 2^16 p, which is below 2^63 for k < 2^15
    at every prime up to coeffs.INT64_SAFE_MODULUS.  Object operands, larger
    primes and longer sums widen to Python ints.
    """
    if isinstance(ring, ComplexField):
        return a @ b
    p = ring.p
    k = a.shape[-1]
    if a.dtype == np.int64 and b.dtype == np.int64:
        if _sum_safe(p, k):
            return (a @ b) % p
        if _limb_safe(p, k):
            return ((a >> 16) @ b % p * (1 << 16) + (a & 0xFFFF) @ b) % p
    out = (a.astype(object) @ b.astype(object)) % p
    if ring.int64_safe:
        return out.astype(np.int64)
    return out


def _echelon(p: int, a: np.ndarray, reduced: bool = True):
    """Row echelon form mod p.  Returns (matrix, pivot columns, det factor).

    With reduced, every pivot column is cleared above and below its pivot
    (the reduced form nullspace and solve read); otherwise only the rows
    below are eliminated, which is all rank and det need.  The pivot
    columns and the det factor are the same either way."""
    m = a % p  # fresh array, safe to eliminate in place
    rows, cols = m.shape
    pivcols = []
    detf = 1
    r = 0
    for c in range(cols):
        nz = np.flatnonzero(m[r:, c])
        if not nz.size:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
            detf = p - detf if detf else 0
        inv = pow(int(m[r, c]), -1, p)
        detf = detf * int(m[r, c]) % p
        m[r, c:] = m[r, c:] * inv % p
        # row r is zero left of c, so the update touches columns c: only
        if reduced:
            others = np.flatnonzero(m[:, c])
            others = others[others != r]
        else:
            others = r + 1 + np.flatnonzero(m[r + 1:, c])
        m[others, c:] = (m[others, c:] - np.outer(m[others, c], m[r, c:])) % p
        pivcols.append(c)
        r += 1
        if r == rows:
            break
    return m, pivcols, detf


def det(ring, a: np.ndarray):
    """Determinant: exact elimination over F_p, LU over the complex field."""
    if a.shape[0] != a.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    if isinstance(ring, ComplexField):
        return complex(np.linalg.det(a))
    _, pivcols, detf = _echelon(ring.p, a, reduced=False)
    if len(pivcols) < a.shape[0]:
        return 0
    return detf


def rank(ring, a: np.ndarray, tol: float | None = None) -> int:
    if isinstance(ring, ComplexField):
        if a.size == 0:
            return 0
        s = np.linalg.svd(a, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.sum(s > (tol or DEFAULT_RANK_TOL) * s[0]))
    _, pivcols, _ = _echelon(ring.p, a, reduced=False)
    return len(pivcols)


def nullspace(ring, a: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Basis of the right kernel, returned as matrix columns."""
    if isinstance(ring, ComplexField):
        # the full right factor is only needed when there are fewer rows
        _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
        smax = s[0] if s.size else 0.0
        r = int(np.sum(s > (tol or DEFAULT_RANK_TOL) * smax)) if smax else 0
        return vh[r:].conj().T
    p = ring.p
    m, pivcols, _ = _echelon(p, a)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivcols]
    basis = np.zeros((cols, len(free)), dtype=m.dtype)
    basis[free, range(len(free))] = 1
    basis[pivcols] = (-m[:len(pivcols), free]) % p
    return basis


def solve(ring, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for square invertible a."""
    if isinstance(ring, ComplexField):
        return np.linalg.solve(a, b)
    p = ring.p
    n = a.shape[0]
    rhs = b if b.ndim == 2 else b[:, None]
    aug = np.concatenate([a % p, rhs % p], axis=1)
    m, pivcols, _ = _echelon(p, aug)
    if pivcols[:n] != list(range(n)):
        raise SingularMatrixError("singular system")
    x = m[:n, n:]
    return x if b.ndim == 2 else x[:, 0]


def inv(ring, a: np.ndarray) -> np.ndarray:
    if isinstance(ring, ComplexField):
        return np.linalg.inv(a)
    return solve(ring, a, eye(ring, a.shape[0]))


def random_skew(ring, n: int, rng: random.Random, fix_first: bool = False) -> np.ndarray:
    """Random skew-symmetric matrix; with fix_first, row/col 1 are zero."""
    if isinstance(ring, ComplexField):
        s = np.zeros((n, n), dtype=np.complex128)
    else:
        s = np.zeros((n, n), dtype=np.int64 if ring.int64_safe else object)
    start = 1 if fix_first else 0
    for i in range(start, n):
        for j in range(i + 1, n):
            v = ring.random(rng)
            s[i, j] = v
            s[j, i] = ring.neg(v)
    return s


def cayley_orthogonal(ring, skew: np.ndarray) -> np.ndarray:
    """(I - S)(I + S)^{-1}: orthogonal with determinant 1 for skew S.

    Fixes e_1 whenever row/col 1 of S vanish.  Raises SingularMatrixError
    when I + S is singular (resample the skew matrix).
    """
    n = skew.shape[0]
    idn = eye(ring, n)
    if isinstance(ring, ComplexField):
        try:
            rightinv = np.linalg.inv(idn + skew)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("I + S singular") from exc
        return (idn - skew) @ rightinv
    rightinv = solve(ring, (idn + skew) % ring.p, idn)
    return matmul(ring, (idn - skew) % ring.p, rightinv)


def _bil(ring, u, v):
    if isinstance(ring, ComplexField):
        return complex(np.dot(u, v))
    acc = 0
    for a, b in zip(u.tolist(), v.tolist()):
        acc += int(a) * int(b)
    return acc % ring.p


def _reflect_matrix(ring, w: np.ndarray) -> np.ndarray:
    """Hyperplane reflection x -> x - 2 B(x,w)/B(w,w) w."""
    q = _bil(ring, w, w)
    n = w.shape[0]
    if isinstance(ring, ComplexField):
        return np.eye(n, dtype=np.complex128) - (2.0 / q) * np.outer(w, w)
    p = ring.p
    f = 2 * pow(int(q), -1, p) % p
    return (eye(ring, n) - f * (np.outer(w, w) % p)) % p


def reflection_pair(ring, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of two reflections mapping direction u to direction v.

    Determinant 1; fixes e_1 when u and v are supported away from the first
    coordinate.  Needs B(u,u), B(v,v) nonzero and, over F_p, a square root
    of their ratio; failures raise IsotropicVectorError (resample).
    """
    qu = _bil(ring, u, u)
    qv = _bil(ring, v, v)
    approx = isinstance(ring, ComplexField)
    scale_u = float(np.linalg.norm(u)) ** 2 if approx else 1.0
    scale_v = float(np.linalg.norm(v)) ** 2 if approx else 1.0
    if (ring.is_zero(qu, scale_u) if approx else ring.is_zero(qu)):
        raise IsotropicVectorError("B(u,u) = 0")
    if (ring.is_zero(qv, scale_v) if approx else ring.is_zero(qv)):
        raise IsotropicVectorError("B(v,v) = 0")
    ratio = ring.mul(qu, ring.inv(qv))
    s = ring.sqrt(ratio)
    if s is None:
        raise IsotropicVectorError("norm ratio is not a square in F_p")
    v2 = np.array([ring.mul(s, x) for x in v.tolist()], dtype=u.dtype)
    wplus = np.array([ring.add(a, b) for a, b in zip(u.tolist(), v2.tolist())], dtype=u.dtype)
    qw = _bil(ring, wplus, wplus)
    nz = (not ring.is_zero(qw, scale_u)) if approx else qw != 0
    if nz:
        # R_w(u) = -v2, then R_{v2} flips it back: u -> v2
        return matmul(ring, _reflect_matrix(ring, v2), _reflect_matrix(ring, wplus))
    # fallback: R_{u - v2}(u) = v2, then a reflection fixing v2
    wminus = np.array([ring.sub(a, b) for a, b in zip(u.tolist(), v2.tolist())], dtype=u.dtype)
    if (ring.is_zero(_bil(ring, wminus, wminus), scale_u) if approx
            else _bil(ring, wminus, wminus) == 0):
        raise IsotropicVectorError("both reflection vectors isotropic")
    n = u.shape[0]
    # prefer axes away from coordinate 0 so e_1 stays fixed for imaginary data
    for i in list(range(1, n)) + [0]:
        e = np.zeros(n, dtype=u.dtype)
        e[i] = ring.one
        w2 = np.array([ring.sub(ring.mul(qu, a), ring.mul(_bil(ring, e, v2), b))
                       for a, b in zip(e.tolist(), v2.tolist())], dtype=u.dtype)
        q2 = _bil(ring, w2, w2)
        if (not ring.is_zero(q2, scale_u)) if approx else q2 != 0:
            return matmul(ring, _reflect_matrix(ring, w2), _reflect_matrix(ring, wminus))
    raise IsotropicVectorError("no non-isotropic axis found for the second reflection")
