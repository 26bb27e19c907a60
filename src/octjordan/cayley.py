"""Composition algebras of dimension 2^k, k = 0..3, by Cayley-Dickson doubling.

The doubling rule is (a, b)(c, d) = (ac - conj(d) b,  d a + b conj(c)) with
the level-k basis ordered [lower half | lower half . l].  This convention is
not negotiable: at k = 3 it reproduces, entry for entry, the 8x8 left and
right multiplication tables that the rest of the package (and its test
fixtures) are calibrated against.  Basis vectors are e_1 .. e_{2^k} with
e_1 the unit; the quaternions sit at coords 1..4 and l = e_5.

Scalars come from a ring object (see :mod:`octjordan.coeffs`); everything
here works identically over a prime field, over complex floats, or over a
polynomial ring, through one product path: sum with Python operators,
reduce once, in a straight-line kernel generated per level on first use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_LEVEL = 3


@lru_cache(maxsize=None)
def mult_table(level: int):
    """Structure constants: tables (sign, idx) with e_i e_j = sign * e_idx."""
    if not 0 <= level <= MAX_LEVEL:
        raise ValueError(f"level {level} out of range 0..{MAX_LEVEL}")
    if level == 0:
        return ((( 1, 0),),)
    prev = mult_table(level - 1)
    h = 1 << (level - 1)
    rows = []
    for i in range(2 * h):
        row = []
        for j in range(2 * h):
            if i < h and j < h:
                s, k = prev[i][j]
            elif i < h:
                # (a, 0)(0, d) = (0, d a)
                s, k = prev[j - h][i]
                k += h
            elif j < h:
                # (0, b)(c, 0) = (0, b conj(c))
                s, k = prev[i - h][j]
                if j != 0:
                    s = -s
                k += h
            else:
                # (0, b)(0, d) = (-conj(d) b, 0)
                s, k = prev[j - h][i - h]
                s = -s
                if j != h:
                    s = -s
            row.append((s, k))
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def left_basis_matrices(level: int) -> np.ndarray:
    """Stack of matrices L_{e_i}, shape (n, n, n); L_x = sum_i x_i L_{e_i}."""
    n = 1 << level
    tab = mult_table(level)
    out = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for c in range(n):
            s, k = tab[i][c]
            out[i, k, c] = s
    return out


@lru_cache(maxsize=None)
def right_basis_matrices(level: int) -> np.ndarray:
    """Stack of matrices R_{e_i}; R_x y = coords(y x).  Column c of R_{e_i}
    is e_c e_i, column i of L_{e_c}."""
    return np.ascontiguousarray(left_basis_matrices(level).transpose(2, 1, 0))


@lru_cache(maxsize=None)
def _product_terms(level: int) -> tuple:
    """Per output coordinate k, the (i, j, sign > 0) with e_i e_j = sign e_k,
    in (i, j) order."""
    n = 1 << level
    tab = mult_table(level)
    out = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s, k = tab[i][j]
            out[k].append((i, j, s > 0))
    return tuple(tuple(terms) for terms in out)


@lru_cache(maxsize=None)
def _product_kernel(level: int, real: bool = False):
    """Straight-line code for the product at a level, built on first use.

    kernel(x, y, zero, reduce) unpacks the coordinate tuples into locals and
    returns, per output coordinate k, reduce(zero + x_i*y_j - ...) over the
    terms of _product_terms(level)[k] in their (i, j) order: the additions
    a loop over the table would make, in its order, without the loop.  With
    real, only coordinate 0 is formed and returned as a scalar."""
    n = 1 << level
    sums = ["reduce(zero" + "".join(f" {'+' if plus else '-'} x{i}*y{j}" for i, j, plus in terms)
            + ")" for terms in _product_terms(level)[:1 if real else n]]
    xs, ys = (", ".join(f"{v}{i}" for i in range(n)) + "," for v in "xy")
    ret = sums[0] if real else "(" + ", ".join(sums) + ",)"
    source = f"def kernel(x, y, zero, reduce):\n    {xs} = x\n    {ys} = y\n    return {ret}\n"
    namespace = {}
    exec(source, namespace)
    return namespace["kernel"]


def left_table_symbolic(level: int = 3) -> list[list[int]]:
    """Left multiplication table with entries as signed variable indices.

    Entry (r, c) = s*(i+1) means the matrix of left multiplication by
    x = sum x_i e_i has s * x_{i+1} in that position.
    """
    return _symbolic(left_basis_matrices(level))


def right_table_symbolic(level: int = 3) -> list[list[int]]:
    """Right multiplication table in the same signed-index encoding."""
    return _symbolic(right_basis_matrices(level))


def _symbolic(stack: np.ndarray) -> list[list[int]]:
    # exactly one basis matrix is nonzero at each entry
    return np.tensordot(np.arange(1, len(stack) + 1), stack, axes=(0, 0)).tolist()


@dataclass(frozen=True)
class AlgebraElement:
    """Element of the level-k composition algebra, as a coordinate tuple."""

    ring: object
    level: int
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != 1 << self.level:
            raise ValueError("coordinate count does not match level")

    def _require_same(self, other: "AlgebraElement"):
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} vs {other.level}")
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        self._require_same(other)
        r = self.ring
        return AlgebraElement(r, self.level, tuple(
            r.reduce(a + b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._require_same(other)
        r = self.ring
        return AlgebraElement(r, self.level, tuple(
            r.reduce(a - b) for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        r = self.ring
        return AlgebraElement(r, self.level, tuple(r.reduce(-a) for a in self.coords))

    def __mul__(self, other):
        """The algebra product, via the structure-constant table.

        Each output coordinate is ring.zero plus or minus its terms x_i y_j,
        added with Python operators in the table's (i, j) order and reduced
        once by ring.reduce, in the straight-line kernel generated for the
        level (_product_kernel).  Over F_p the sum is an exact Python int,
        so the coordinates must be Python ints (numpy int64 would overflow);
        over C, and on lane-stacked complex128 scalars, the terms are added
        one at a time in that order, so the result is bit-identical to a
        loop that adds each term to the running sum.  Over autdim.PolyRing
        the scalars are sparse polynomials whose operators leave the
        coefficients unreduced.  real_product forms coordinate 0 alone.
        """
        self._require_same(other)
        r = self.ring
        return AlgebraElement(r, self.level, _product_kernel(self.level)(
            self.coords, other.coords, r.zero, r.reduce))

    def scale(self, s):
        r = self.ring
        return AlgebraElement(r, self.level, tuple(r.reduce(s * a) for a in self.coords))

    def conjugate(self):
        r = self.ring
        return AlgebraElement(r, self.level,
                              (self.coords[0],) + tuple(r.reduce(-a) for a in self.coords[1:]))

    def real_part(self):
        return self.coords[0]

    def imag_part(self):
        r = self.ring
        return AlgebraElement(r, self.level, (r.zero,) + self.coords[1:])

    def norm_sq(self):
        """x conj(x) as a ring scalar; equals the coordinate sum of squares."""
        return bilinear(self, self)


def zero(ring, level: int) -> AlgebraElement:
    return AlgebraElement(ring, level, (ring.zero,) * (1 << level))


def basis(ring, level: int, i: int) -> AlgebraElement:
    """Basis vector e_{i+1} (0-indexed argument)."""
    coords = [ring.zero] * (1 << level)
    coords[i] = ring.one
    return AlgebraElement(ring, level, tuple(coords))


def unit(ring, level: int) -> AlgebraElement:
    return basis(ring, level, 0)


def embed_scalar(ring, level: int, s) -> AlgebraElement:
    coords = [ring.zero] * (1 << level)
    coords[0] = s
    return AlgebraElement(ring, level, tuple(coords))


def random_element(ring, level: int, rng: random.Random) -> AlgebraElement:
    return AlgebraElement(ring, level,
                          tuple(ring.random(rng) for _ in range(1 << level)))


def real_product(x: AlgebraElement, y: AlgebraElement):
    """Re(xy) without the other coordinates: the coordinate-0 sum of the
    product kernel, so it equals (x * y).real_part() bit for bit."""
    x._require_same(y)
    r = x.ring
    return _product_kernel(x.level, True)(x.coords, y.coords, r.zero, r.reduce)


def bilinear(x: AlgebraElement, y: AlgebraElement):
    """The symmetric form polarizing norm_sq: B(x, y) = sum_i x_i y_i.

    Summed in coordinate order from ring.zero with Python operators and
    reduced once, like the product."""
    r = x.ring
    acc = r.zero
    for a, b in zip(x.coords, y.coords):
        acc = acc + a * b
    return r.reduce(acc)


def left_mult_matrix(x: AlgebraElement) -> np.ndarray:
    """Matrix L_x with L_x coords(y) = coords(x y)."""
    return _mult_matrix(x, right=False)


def right_mult_matrix(x: AlgebraElement) -> np.ndarray:
    """Matrix R_x with R_x coords(y) = coords(y x)."""
    return _mult_matrix(x, right=True)


def _mult_matrix(x: AlgebraElement, right: bool) -> np.ndarray:
    r = x.ring
    stack = right_basis_matrices(x.level) if right else left_basis_matrices(x.level)
    return r.reduce(np.tensordot(r.array(x.coords), stack, axes=(0, 0)))


def associator(c: AlgebraElement, b: AlgebraElement, a: AlgebraElement) -> AlgebraElement:
    """[c, b, a] = (cb)a - c(ba); identically zero below level 3."""
    return (c * b) * a - c * (b * a)


def phi(c: AlgebraElement, b: AlgebraElement, a: AlgebraElement):
    """(1/2) Re((c conj(b) - conj(b) c) a), a scalar invariant of the triple."""
    r = c.ring
    bb = b.conjugate()
    comm = c * bb - bb * c
    half = r.inv(r.from_int(2))
    return r.reduce(half * real_product(comm, a))


def gram_im(c: AlgebraElement, b: AlgebraElement, a: AlgebraElement):
    """Gram determinant of the imaginary parts under the polar form of norm_sq."""
    r = c.ring
    u, v, w = c.imag_part(), b.imag_part(), a.imag_part()
    g = [[bilinear(p, q) for q in (u, v, w)] for p in (u, v, w)]
    pos = g[0][0] * g[1][1] * g[2][2] + g[0][1] * g[1][2] * g[2][0] + g[0][2] * g[1][0] * g[2][1]
    neg = g[0][2] * g[1][1] * g[2][0] + g[0][0] * g[1][2] * g[2][1] + g[0][1] * g[1][0] * g[2][2]
    return r.reduce(pos - neg)
