"""Coefficient rings for the algebra stack.

Two fields are used throughout: F_p for exact randomized identity testing
and double-precision complex numbers for the numeric geometry.  Every
decision that depends on how a field represents its scalars is made here,
so the algebra, Jordan, symmetry and linear-algebra code never branches on
the field, and no code outside this module and linalg's algorithms picks or
tests the dtype of an array of field values or reduces mod p by hand,
except the polynomial ring's own arithmetic; a scan in the tests checks
every module.  F_p is accepted at every odd prime below MR_BOUND (about
3.3e24), the range in which is_prime is a proof; is_prime raises
ValueError from MR_BOUND up.  Scalar arithmetic has
one form on every ring: Python operators (+, -, *, unary -) on the ring's
scalars, mapped back to the ring by reduce once per formula or per
coordinate.  Both fields provide:

- zero, one, from_int, inv, sqrt (None for a non-residue) and random(rng);
- reduce(a), which maps a value computed with Python or numpy operators on
  scalars or arrays back to the field: `% p` over F_p, the identity over
  C.  Over F_p the scalars are Python ints, so an unreduced sum of
  products is exact;
- dtype, the numpy dtype of field arrays: int64 at every prime up to
  INT64_SAFE_MODULUS, object (Python ints) past it, complex128 over C; and
  array(x), x as such an array, reduced mod p.  PrimeField.array(x, peak)
  picks int64 or object from the largest magnitude the caller's unreduced
  arithmetic on the entries reaches, for lane-stacked scalars;
- encode(s) / decode(v), the JSON scalar: a decimal string from a decimal
  string or integer over F_p, [re, im] from two finite numbers over C.
  decode raises ValueError on bools, floats as residues and non-finite
  parts.

autdim.PolyRing has zero, one, from_int, reduce (coefficients mod p, zeros
dropped) and inv (of constants) on sparse polynomials, but no dtype, array
or JSON form, and takes every prime PrimeField accepts.  Its scalars'
operators leave the Python-int coefficients unreduced, like Python ints
over F_p.
"""

from __future__ import annotations

import cmath
import hashlib
import random
from functools import lru_cache

import numpy as np

# Miller-Rabin with the first 13 primes as witnesses is deterministic below
# MR_BOUND, the least strong pseudoprime to all of them (Sorenson & Webster,
# Math. Comp. 86, 2017); with the first 12 it is not (318665857834031151167461)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981

# largest modulus for which (p-1)^2 fits in int64, used by linalg fast paths
INT64_SAFE_MODULUS = 3_037_000_499


@lru_cache(maxsize=1024, typed=True)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below MR_BOUND; a ValueError at or above
    it, where the witnesses no longer decide.  Memoized, since every
    PrimeField construction asks again (a raised ValueError is not cached)."""
    if n >= MR_BOUND:
        raise ValueError(f"primality is decided only below {MR_BOUND}, got {n}")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
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

    def reduce(self, a):
        return a % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def array(self, x, peak: int | None = None) -> np.ndarray:
        """x as an array of residues, of dtype self.dtype.  Given peak, the
        largest magnitude that the caller's unreduced arithmetic on the
        entries can reach, the dtype is int64 when peak fits in it and
        object (Python ints) otherwise."""
        dtype = self.dtype if peak is None else np.int64 if peak < 1 << 63 else object
        return np.array(x, dtype=dtype) % self.p

    def encode(self, s) -> str:
        return str(int(s))

    def decode(self, v) -> int:
        if isinstance(v, (bool, float)):
            raise ValueError(f"a residue is a decimal string or an integer, got {v!r}")
        return int(v) % self.p

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
    """Double-precision complex scalars."""

    dtype = np.complex128
    zero = 0j
    one = 1 + 0j

    def __repr__(self):
        return "ComplexField()"

    def __eq__(self, other):
        return isinstance(other, ComplexField)

    def __hash__(self):
        return hash("ComplexField")

    def from_int(self, n: int) -> complex:
        return complex(n)

    def reduce(self, a):
        return a

    def inv(self, a):
        return 1 / a

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

    def random(self, rng: random.Random) -> complex:
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    def sqrt(self, a) -> complex:
        return cmath.sqrt(a)
