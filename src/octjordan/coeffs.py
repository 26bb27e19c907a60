"""Coefficient rings for the algebra stack.

Two concrete rings are used throughout: a prime field F_p for exact
randomized identity testing, and double-precision complex numbers for the
numeric geometry (degeneracy sampling, orbit reduction).  Both expose the
same small operation set (add, sub, mul, neg, inv, sqrt, random, ...) so
that the composition-algebra and Jordan-algebra code is ring-agnostic; the
formal-expansion ring in :mod:`octjordan.autdim` implements the same
contract with sparse polynomials as scalars.

Both fields also provide `reduce`, which maps a value computed with Python
or numpy operators on ring scalars (a sum of products, say) back to a ring
scalar: `% p` over F_p, the identity over C.  Hot loops accumulate with
operators and reduce once per result instead of calling add/mul per term.
The polynomial ring sets it to None, because its scalars have no operators.
"""

from __future__ import annotations

import cmath
import hashlib
import random

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

    kind = "exact"

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p == 2:
            raise ValueError("modulus must be odd (square-root handling)")
        self.p = p
        self.zero = 0
        self.one = 1

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

    def is_zero(self, a) -> bool:
        return a % self.p == 0

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

    @property
    def int64_safe(self) -> bool:
        return self.p <= INT64_SAFE_MODULUS


class ComplexField:
    """Double-precision complex scalars with a relative comparison tolerance."""

    kind = "approx"

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

    def is_zero(self, a, scale: float = 1.0) -> bool:
        return abs(a) <= self.tol * max(1.0, scale)

    def eq(self, a, b) -> bool:
        return abs(a - b) <= self.tol * max(1.0, abs(a), abs(b))

    def random(self, rng: random.Random) -> complex:
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    def sqrt(self, a) -> complex:
        return cmath.sqrt(a)
