"""Coefficient rings for the algebra stack.

Two fields are used throughout: F_p for exact randomized identity testing
and double-precision complex numbers for the numeric geometry.  Every
decision that depends on how a field represents its scalars is made here,
so the algebra, Jordan, symmetry and linear-algebra code never branches on
the field.  Both fields provide:

- the scalar operations zero, one, from_int, add, sub, mul, neg, inv, div,
  eq, sqrt (None for a non-residue) and random(rng);
- dtype, the numpy dtype of field arrays: int64 at every prime up to
  INT64_SAFE_MODULUS, object (Python ints) past it, complex128 over C; and
  array(x), x as such an array, reduced mod p;
- reduce(a), which maps a value computed with Python or numpy operators on
  scalars or arrays back to the field: `% p` over F_p, the identity over
  C.  Hot loops accumulate with operators and reduce once per result;
- is_zero(a): exact over F_p, |a| <= tol over C;
- encode(s) / decode(v), the JSON scalar: a decimal string from a decimal
  string or integer over F_p, [re, im] from two finite numbers over C.
  decode raises ValueError on bools, floats as residues and non-finite
  parts.

autdim.PolyRing has the scalar operations on sparse polynomials and
reduce (coefficients mod p, zeros dropped), but no dtype, array, div or
JSON form.  Its scalars' operators leave the coefficients unreduced, so
the algebra code sums and reduces once on every ring.
"""

from __future__ import annotations

import cmath
import hashlib
import random

import numpy as np

# deterministic Miller-Rabin witnesses, valid for all n < 3.3e24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# largest modulus for which (p-1)^2 fits in int64, used by linalg fast paths
INT64_SAFE_MODULUS = 3_037_000_499


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit-scale integers."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def derive_rng(seed: int, *path) -> random.Random:
    """Per-task generator derived from a master seed and a label path.

    Hash-based so streams are independent of PYTHONHASHSEED and stable
    across runs; trials may then run in any order or in parallel.
    """
    tag = ":".join([str(seed)] + [str(p) for p in path])
    digest = hashlib.blake2b(tag.encode(), digest_size=16).digest()
    return random.Random(int.from_bytes(digest, "big"))


class PrimeField:
    """Arithmetic in Z/p for an odd prime p.  Elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p == 2:
            raise ValueError("modulus must be odd (square-root handling)")
        self.p = p
        self.zero = 0
        self.one = 1
        self.dtype = np.int64 if p <= INT64_SAFE_MODULUS else object

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def reduce(self, a):
        return a % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def array(self, x) -> np.ndarray:
        return np.array(x, dtype=self.dtype) % self.p

    def encode(self, s) -> str:
        return str(int(s))

    def decode(self, v) -> int:
        if isinstance(v, (bool, float)):
            raise ValueError(f"a residue is a decimal string or an integer, got {v!r}")
        return int(v) % self.p

    def eq(self, a, b) -> bool:
        return (a - b) % self.p == 0

    def random(self, rng: random.Random):
        return rng.randrange(self.p)

    def sqrt(self, a):
        """Square root of a quadratic residue, else None (Tonelli-Shanks)."""
        p = self.p
        a %= p
        if a == 0:
            return 0
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        # Tonelli-Shanks, p = q 2^s + 1
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r


class ComplexField:
    """Double-precision complex scalars with a relative comparison tolerance."""

    dtype = np.complex128

    def __init__(self, tol: float = 1e-9):
        self.tol = tol
        self.zero = 0j
        self.one = 1 + 0j

    def __repr__(self):
        return f"ComplexField(tol={self.tol})"

    def __eq__(self, other):
        return isinstance(other, ComplexField) and other.tol == self.tol

    def __hash__(self):
        return hash(("ComplexField", self.tol))

    def from_int(self, n: int) -> complex:
        return complex(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def reduce(self, a):
        return a

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def div(self, a, b):
        return a / b

    def is_zero(self, a) -> bool:
        return abs(a) <= self.tol

    def array(self, x) -> np.ndarray:
        return np.array(x, dtype=np.complex128)

    def encode(self, s) -> list:
        return [s.real, s.imag]

    def decode(self, v) -> complex:
        re, im = v
        if isinstance(re, bool) or isinstance(im, bool):
            raise ValueError(f"a complex coordinate is two numbers, got {v!r}")
        z = complex(re, im)
        if not cmath.isfinite(z):
            raise ValueError(f"non-finite complex coordinate {v!r}")
        return z

    def eq(self, a, b) -> bool:
        return abs(a - b) <= self.tol * max(1.0, abs(a), abs(b))

    def random(self, rng: random.Random) -> complex:
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    def sqrt(self, a) -> complex:
        return cmath.sqrt(a)
