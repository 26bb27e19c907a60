"""Dense linear algebra over prime fields and over complex floats.

Matrices are numpy arrays of the ring's dtype (coeffs: int64 residues at
every prime up to coeffs.INT64_SAFE_MODULUS, Python ints past it,
complex128 over C), built with ring.array and reduced with ring.reduce.
Only the algorithms themselves dispatch on the field: matmul, det, rank,
nullspace and solve.

Every F_p product (matmul's, and the elimination's own) is
_residue_product: float64 BLAS while a sum of k products of residues,
k (p - 1)^2, stays below 2^53, where it is exact (about 9.3e10 terms at
p = 313), int64 below 2^63, the left factor split into 16-bit limbs past
that at every int64-safe prime, and Python ints otherwise, so no
intermediate overflows or rounds.

Over F_p the elimination works through the columns in panels of PANEL.
Inside a panel a step reads its pivot column and pivot row as residues,
and its updates of the panel's other rows stay unreduced for as many
steps as int64 holds (_update_budget: n updates of at most (p - 1)^2 on
top of a residue, n + 1 terms passing _sum_safe).  That is about 9.5e13
steps at p = 313, 6 just above 2^30, and 1 from 2^31 - 1 up and on object
dtype, which reduce after every step.  The columns right of the panel then
take all of its pivots in one product (see _echelon).  rank and det
eliminate by forward elimination (only the rows below each pivot);
nullspace and solve read the reduced row echelon form.  Over C, rank and
nullspace decide through singular values with a tolerance relative to the
largest one.
"""

from __future__ import annotations

import numpy as np

from .coeffs import ComplexField

DEFAULT_RANK_TOL = 1e-8
PANEL = 32  # columns eliminated per panel before one trailing product


class SingularMatrixError(ValueError):
    """A linear system with a singular matrix."""


def _float_safe(p: int, n: int) -> bool:
    return n * (p - 1) * (p - 1) < 1 << 53


def _sum_safe(p: int, n: int) -> bool:
    return n * (p - 1) * (p - 1) < (1 << 63) - 1


def _limb_safe(p: int, n: int) -> bool:
    # for |a| < p < 2^32, |a >> 16| <= 2^16 and 0 <= a & 0xFFFF < 2^16, so
    # every partial sum of the split product is below (n + 1) 2^16 (p - 1)
    return p < 1 << 32 and (n + 1) * (p - 1) << 16 < (1 << 63) - 1


def eye(ring, n: int) -> np.ndarray:
    return ring.array(np.eye(n, dtype=np.int64))


def block(rows) -> np.ndarray:
    """np.block for a square grid of n x n blocks stacked alike on any
    leading axes: each block is written by slice into one np.empty array of
    np.block's dtype, with no intermediate concatenations."""
    n = rows[0][0].shape[-1]
    out = np.empty(rows[0][0].shape[:-2] + (len(rows) * n,) * 2,
                   dtype=np.result_type(*(b for row in rows for b in row)))
    for i, row in enumerate(rows):
        for j, b in enumerate(row):
            out[..., i * n:(i + 1) * n, j * n:(j + 1) * n] = b
    return out


def _residue_product(p: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b mod p for entries in (-p, p), with np.matmul semantics: int64
    from int64 operands at every int64-safe prime (for k < 2^15), Python
    ints otherwise.  Every product of one sum is at most (p - 1)^2 in
    magnitude, so a sum of k = a.shape[-1] of them is exact in float64
    (BLAS) while k (p - 1)^2 < 2^53 (Dumas, Giorgi & Pernet, ACM TOMS
    35(3), 2008) and exact in int64 while it is below 2^63.  Past that
    the left factor is split into 16-bit limbs, a = (a >> 16) 2^16 +
    (a & 0xFFFF), and a b = (((a >> 16) b mod p) 2^16 + (a & 0xFFFF) b) mod
    p; every partial sum then stays below (k + 1) 2^16 p, which is below
    2^63 for k < 2^15 at every prime up to coeffs.INT64_SAFE_MODULUS.
    Object operands, larger primes and longer sums widen to Python ints."""
    k = a.shape[-1]
    if a.dtype == np.int64 and b.dtype == np.int64:
        if _float_safe(p, k):
            return np.matmul(a, b, dtype=np.float64).astype(np.int64) % p
        if _sum_safe(p, k):
            return (a @ b) % p
        if _limb_safe(p, k):
            return ((a >> 16) @ b % p * (1 << 16) + (a & 0xFFFF) @ b) % p
    return (a.astype(object) @ b.astype(object)) % p


def matmul(ring, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product with np.matmul semantics (stacks broadcast): exact residues
    over F_p (see _residue_product; int64 operands with entries in (-p, p)
    stay int64 at every int64-safe prime), the plain product over the
    complex field."""
    if isinstance(ring, ComplexField):
        return a @ b
    out = _residue_product(ring.p, a, b)
    return out if out.dtype != object or ring.dtype is object else out.astype(ring.dtype)


def _update_budget(p: int, dtype) -> int:
    """How many elimination updates an int64 entry can take unreduced.  An
    update subtracts a product of two residues, at most (p - 1)^2, so an
    entry holding n updates since it was last a residue is a sum of n + 1
    terms of that size: n is the largest with _sum_safe(p, n + 1), and at
    least 1, since one update always fits at an int64-safe prime.  Object
    entries are reduced after every update."""
    if dtype == object:
        return 1
    return max(1, ((1 << 63) - 2) // ((p - 1) * (p - 1)) - 1)


def _echelon(p: int, a: np.ndarray, reduced: bool = True):
    """Row echelon form mod p.  Returns (matrix, pivot columns, det factor).

    With reduced, every pivot column is cleared above and below its pivot
    (the reduced form nullspace and solve read); otherwise only the rows
    below are eliminated, which is all rank and det need.  The pivot
    columns and the det factor are the same either way.

    The columns are eliminated in panels of PANEL columns, copied into a
    work array with, when columns follow the panel, one more column per
    pivot.  Each step reduces its pivot column and its pivot row, so the
    pivot search, the multipliers and the det factor read residues, and
    updates the panel's other rows on the panel's columns only.  With a
    budget of 1 the updated rows are reduced at once; otherwise updates
    accumulate unreduced, and the work array is reduced when the budget
    runs out and at the panel's end.

    The extra columns record the panel's row operations on the trailing
    columns: step j writes a 1 into column j of its pivot row, standing for
    that row's own trailing part T1_j, before scaling the row, and the
    updates carry the record along with the panel.  At the panel's end, the
    trailing block of every row in scope (from row 0 with reduced, from the
    panel's first pivot row otherwise) is T + G T1, with G the k recorded
    columns, T1 the k pivot rows' trailing parts and T taken as 0 on the
    pivot rows: one exact product per panel, and no triangular solve."""
    m = a % p  # fresh array, safe to eliminate in place
    rows, cols = m.shape
    budget = _update_budget(p, m.dtype)
    pivcols = []
    detf = 1
    r = 0
    for c0 in range(0, cols, PANEL):
        if r == rows:
            break
        c1 = min(c0 + PANEL, cols)
        width = c1 - c0
        trailing = c1 < cols
        work = np.zeros((rows, 2 * width if trailing else width), dtype=m.dtype)
        work[:, :width] = m[:, c0:c1]
        r0, pending = r, 0
        for c in range(width):
            if pending:
                work[:, c] %= p
            if not work[r, c]:
                nz = work[r:, c].nonzero()[0]
                if not nz.size:
                    continue
                piv = r + int(nz[0])
                work[[r, piv]] = work[[piv, r]]
                m[[r, piv]] = m[[piv, r]]
                detf = p - detf if detf else 0
            end = width
            if trailing:
                end += r - r0 + 1
                work[r, end - 1] = 1
            d = int(work[r, c])
            inv = pow(d, -1, p)
            detf = detf * d % p
            row = work[r, c:end]
            if pending:
                row %= p
            row *= inv
            row %= p
            # row r is zero left of c and on the record columns past its
            # own, so the update touches columns c:end only; forward
            # elimination updates every row below in place through a view
            if reduced:
                others = np.flatnonzero(work[:, c])
                others = others[others != r]
            else:
                others = slice(r + 1, None)
            update = work[others, c:end]
            update -= work[others, c][:, None] * row
            if budget == 1:
                update %= p
            else:
                pending += 1
            if reduced:
                work[others, c:end] = update
            if pending == budget:
                work[:, c + 1:] %= p
                pending = 0
            pivcols.append(c0 + c)
            r += 1
            if r == rows:
                break
        if pending:
            work %= p
        m[:, c0:c1] = work[:, :width]
        if trailing and r > r0:
            top = 0 if reduced else r0
            own = slice(r0 - top, r - top)              # the pivot rows in scope
            trail = m[top:, c1:]
            t1 = trail[own].copy()
            trail[own] = 0
            trail += _residue_product(p, work[top:, width:width + r - r0], t1)
            trail %= p
    return m, pivcols, detf


def det(ring, a: np.ndarray):
    """Determinant: exact elimination over F_p, LU over the complex field."""
    if a.shape[0] != a.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    if isinstance(ring, ComplexField):
        return complex(np.linalg.det(a))
    _, pivcols, detf = _echelon(ring.p, a, reduced=False)
    return detf if len(pivcols) == a.shape[0] else 0


def rank(ring, a: np.ndarray, tol: float | None = None) -> int:
    if isinstance(ring, ComplexField):
        if a.size == 0:
            return 0
        s = np.linalg.svd(a, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.sum(s > (DEFAULT_RANK_TOL if tol is None else tol) * s[0]))
    _, pivcols, _ = _echelon(ring.p, a, reduced=False)
    return len(pivcols)


def nullspace(ring, a: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Basis of the right kernel, returned as matrix columns."""
    if isinstance(ring, ComplexField):
        # the full right factor is only needed when there are fewer rows
        _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
        smax = s[0] if s.size else 0.0
        r = int(np.sum(s > (DEFAULT_RANK_TOL if tol is None else tol) * smax)) if smax else 0
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
    """Solve a x = b for square invertible a; a singular a raises
    SingularMatrixError over either field."""
    if isinstance(ring, ComplexField):
        try:
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError("singular system") from exc
    p = ring.p
    n = a.shape[0]
    rhs = b if b.ndim == 2 else b[:, None]
    aug = np.concatenate([a % p, rhs % p], axis=1)
    m, pivcols, _ = _echelon(p, aug)
    if pivcols[:n] != list(range(n)):
        raise SingularMatrixError("singular system")
    x = m[:n, n:]
    return x if b.ndim == 2 else x[:, 0]
