"""The automorphism bound of the degeneracy sextic, and its formal expansion.

The sextic is expanded as an honest polynomial in the 27 coordinates by
running the Jordan-algebra formulas with sparse-polynomial coefficients;
the squared associator enters through the Gram-determinant identity
|[c,b,a]|^2 = 4 (Gram(Im c, Im b, Im a) - phi^2), which keeps the
intermediate term count down.  SparsePoly's operators work on unreduced
integer coefficients and PolyRing.reduce maps them mod p, so the algebra
code takes the same sum-then-reduce product on polynomial scalars as on
field elements.  Terms are keyed end to end by their exponents packed one
byte per variable into an int: a product adds keys, a derivative subtracts
one from a byte, and exponent tuples are spelt out only for the `terms`
view and for eval.  The bound uses no expansion: the expansion, its
gather-form `gradient` and the chart monomials are the reference the
tests hold the bound's closed forms and ranks against.

The bound.  Through a random linear chart x = m z, m: F_p^6 -> F_p^27,
the 162 products z_j dS/dx_i(m z) are degree-6 polynomials in the six
chart variables; if they span a space of dimension r, the automorphism
Lie algebra of the sextic has dim <= 162 - r.  At a generic point
r = 133, which matches 162 - 29 with 29 = dim SO7 + dim SL3.

The span is ranked at points, not on coefficients.  The gradient is
evaluated at CHART_ROWS random points z_k of the chart, and the rank is
taken of the 162 x 162 matrix with entry ((i, j), k) = z_jk dS/dx_i(m z_k).
That matrix is C V, with C the 162 x 462 coefficient matrix of the
products in the degree-6 monomials of z and V the 462 monomials evaluated
at the points, so its rank is at most rank C = r: an evaluation rank never
exceeds the coefficient rank, and 162 minus it is still a valid bound.
For p > 6 the two ranks agree unless the points are a zero of a nonzero
polynomial of degree 6 r in their coordinates (an r x r minor of C V),
which by Schwartz (J. ACM 27, 1980) has probability at most 6 r / p.  That
bound says nothing at p = 313, but there the ranks agreed on the first
chart of every seed 0-399 for S_ODM (133) and 0-149 for the twisted
sextic (104).  At p = 3, where z^3 = z on F_3, they part: the retries of
seed 1 read 129, 123 and 132 where the coefficient ranks are 133 three
times, so the bound reads 30, which still holds.

The partials are not expanded.  jordan.s_odm_gradient and
twisted_sextic_gradient give them in closed form in the octonion algebra
and run once per chart on lane-stacked scalars: each of the 27
coordinates is an array holding its value at all 162 points x = m z_k.
The lanes are int64 while every unreduced value of those formulas fits (a
sum of at most 32 products of three residues, so up to p of about 6.6e5,
which covers p = 313), and Python ints otherwise, so the bound runs at
every odd prime coeffs accepts.

The rank over F_p at a rational point lower-bounds the characteristic-0
rank at the same point (semicontinuity), so the reported bound uses the
maximum rank over the retries and is safe in the monotone direction.
Whether 133 is exactly the generic characteristic-0 rank is reported,
not asserted.
"""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import combinations_with_replacement
from types import MappingProxyType

import numpy as np

from . import cayley, linalg
from .cayley import AlgebraElement
from .coeffs import PrimeField, derive_rng
from .jordan import (HermitianTriple, det_cartan, s_odm_gradient, twisted_sextic,
                     twisted_sextic_gradient, unflatten)

N_VARS = 27
CHART_VARS = 6
CHART_ROWS = N_VARS * CHART_VARS          # 162
SO7_SL3_DIM = 29                          # 21 + 8


def _pack(n: int, expo) -> int:
    """Exponent tuple -> key, one byte per variable (variable i in byte i);
    bytes() refuses an exponent outside 0..255."""
    if len(expo) != n:
        raise ValueError(f"{len(expo)} exponents for {n} variables")
    return int.from_bytes(bytes(expo), "little")


class SparsePoly:
    """Multivariate polynomial: exponents -> nonzero integer coefficient.

    Terms are keyed by the exponents packed one byte per variable into an
    int, so a product of monomials adds keys and a derivative subtracts
    1 << 8 i.  `terms` is a read-only view keyed by exponent tuples, and the
    constructor takes such a dict.  `top` bounds every exponent from above,
    so a product checks the one-byte limit from two ints and rescans its
    factors' keys only when the bounds pass 255.

    The operators +, -, unary - and * leave the coefficients unreduced and
    mod(p) reduces them mod p; diff and eval take p and reduce as they go."""

    __slots__ = ("n", "_terms", "top")

    def __init__(self, n: int, terms: dict | None = None):
        terms = terms or {}
        self.n = n
        self._terms = {_pack(n, e): c for e, c in terms.items()}
        self.top = max(map(max, terms), default=0)

    @classmethod
    def _packed(cls, n: int, terms: dict, top: int) -> "SparsePoly":
        out = cls.__new__(cls)
        out.n, out._terms, out.top = n, terms, top
        return out

    @classmethod
    def zero(cls, n: int) -> "SparsePoly":
        return cls(n)

    @classmethod
    def const(cls, n: int, c: int, p: int) -> "SparsePoly":
        c %= p
        return cls._packed(n, {0: c} if c else {}, 0)

    @classmethod
    def variable(cls, n: int, i: int) -> "SparsePoly":
        return cls._packed(n, {1 << 8 * i: 1}, 1)

    @property
    def terms(self):
        n = self.n
        return MappingProxyType({tuple(k.to_bytes(n, "little")): c
                                 for k, c in self._terms.items()})

    def is_zero(self) -> bool:
        return not self._terms

    def _degrees(self) -> set:
        n = self.n
        return {sum(k.to_bytes(n, "little")) for k in self._terms}

    def total_degree(self) -> int:
        return max(self._degrees(), default=0)

    def max_exponent(self) -> int:
        n = self.n
        return max((max(k.to_bytes(n, "little")) for k in self._terms), default=0)

    def is_homogeneous(self) -> bool:
        return len(self._degrees()) <= 1

    def __len__(self):
        return len(self._terms)

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        out = dict(self._terms)
        get = out.get
        for k, c in other._terms.items():
            v = get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return SparsePoly._packed(self.n, out, max(self.top, other.top))

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._packed(self.n, {k: -c for k, c in self._terms.items()}, self.top)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + -other

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        top = self.top + other.top
        if top > 255:
            top = self.max_exponent() + other.max_exponent()
            if top > 255:
                raise ValueError("an exponent of the product could pass 255, "
                                 "past the one-byte packing")
        right = list(other._terms.items())
        acc: dict = {}
        get = acc.get
        for k1, c1 in self._terms.items():
            for k2, c2 in right:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        return SparsePoly._packed(self.n, {k: v for k, v in acc.items() if v}, top)

    def mod(self, p: int) -> "SparsePoly":
        """The coefficients reduced mod p, zeros dropped."""
        return SparsePoly._packed(self.n, {k: v for k, c in self._terms.items() if (v := c % p)},
                                  self.top)

    def diff(self, i: int, p: int) -> "SparsePoly":
        shift = 8 * i
        unit = 1 << shift
        out = {}
        for k, c in self._terms.items():
            e = k >> shift & 255
            if e and (v := e * c % p):
                out[k - unit] = v
        return SparsePoly._packed(self.n, out, self.top)

    def eval(self, point, p: int) -> int:
        n = self.n
        acc = 0
        for k, c in self._terms.items():
            t = c
            for x, e in zip(point, k.to_bytes(n, "little")):
                if e:
                    t = t * pow(x, e, p) % p
            acc = (acc + t) % p
        return acc

    def coefficient(self, expo: tuple) -> int:
        return self._terms.get(_pack(self.n, expo), 0)


class PolyRing:
    """Ring-contract adapter so the algebra code runs on SparsePoly scalars:
    zero, one, from_int, reduce and inv (of constants).  The arithmetic is
    SparsePoly's operators, reduced once by reduce."""

    def __init__(self, p: int, n: int):
        if PrimeField(p).dtype is not np.int64:
            raise ValueError("formal expansion requires an int64-safe prime")
        self.p = p
        self.n = n
        self.zero = SparsePoly.zero(n)
        self.one = SparsePoly.const(n, 1, p)

    def from_int(self, c: int) -> SparsePoly:
        return SparsePoly.const(self.n, c, self.p)

    def variable(self, i: int) -> SparsePoly:
        return SparsePoly.variable(self.n, i)

    def reduce(self, a):
        return a.mod(self.p)

    def inv(self, a):
        # only constants are invertible here (used for the 1/2 in phi)
        c = a.coefficient((0,) * self.n)
        if c and len(a) == 1:
            return SparsePoly.const(self.n, pow(c, -1, self.p), self.p)
        raise ZeroDivisionError("non-constant polynomial inverse")


def symbolic_triple(ring: PolyRing) -> HermitianTriple:
    """The generic point: c = x1..x8, b = x9..x16, a = x17..x24, l = x25..x27."""
    v = ring.variable
    c = AlgebraElement(ring, 3, tuple(v(i) for i in range(8)))
    b = AlgebraElement(ring, 3, tuple(v(8 + i) for i in range(8)))
    a = AlgebraElement(ring, 3, tuple(v(16 + i) for i in range(8)))
    return HermitianTriple(ring, 3, (v(24), v(25), v(26)), a, b, c)


def expand_sodm(prime: int) -> SparsePoly:
    """The full degree-6 expansion of the degeneracy sextic over F_p."""
    ring = PolyRing(prime, N_VARS)
    t = symbolic_triple(ring)
    det = det_cartan(t)
    ph = cayley.phi(t.c, t.b, t.a)
    gram = cayley.gram_im(t.c, t.b, t.a)
    four = ring.from_int(4)
    return ring.reduce(det * det - four * (ph * det) - four * (gram - ph * ph))


def expand_twisted_sextic(prime: int) -> SparsePoly:
    """Expansion of the twisted-problem sextic; no reference value is
    published for its rank, so the bound is reported without a target."""
    ring = PolyRing(prime, N_VARS)
    return twisted_sextic(symbolic_triple(ring))


def gradient(poly: SparsePoly, prime: int) -> tuple:
    """Every partial of a homogeneous poly mod prime, in gather form: one
    (factors, coeffs) pair per variable.  Row t of the int64 array factors
    lists the variables of the partial's term t with multiplicity (degree
    - 1 of them, ascending), and coeffs holds its nonzero residues.

    One numpy pass over the packed keys: the exponent bytes of every term,
    each term's variables spelt out, and per nonzero (variable, term) pair
    the term's variables with the first occurrence of that variable
    dropped."""
    if PrimeField(prime).dtype is not np.int64:
        raise ValueError("the gradient requires an int64-safe prime")
    n, terms = poly.n, poly._terms
    expo = np.frombuffer(b"".join(k.to_bytes(n, "little") for k in terms),
                         dtype=np.uint8).reshape(len(terms), n)
    degrees = expo.sum(axis=1)
    if np.any(degrees != degrees[:1]):
        raise ValueError("the gradient needs a homogeneous polynomial")
    degree = int(degrees[0]) if len(terms) else 0
    spelt = np.repeat(np.tile(np.arange(n), len(terms)), expo.ravel()).reshape(len(terms), degree)
    coef = np.array([c % prime for c in terms.values()], dtype=np.int64)
    var, term = np.nonzero(expo.T)                # grouped by partial
    coeffs = expo[term, var] * coef[term] % prime
    keep = coeffs != 0
    var, term, coeffs = var[keep], term[keep], coeffs[keep]
    rows = spelt[term]
    first = (rows < var[:, None]).sum(axis=1)
    factors = rows[np.arange(degree) != first[:, None]].reshape(len(term), max(degree - 1, 0))
    bounds = np.searchsorted(var, np.arange(n + 1))
    return tuple((factors[a:b], coeffs[a:b]) for a, b in zip(bounds, bounds[1:]))


@lru_cache(maxsize=None)
def _monomials(degree: int) -> tuple:
    """Degree-d monomials in the 6 chart variables, graded-lex, fixed.

    _monomials, _mono_index and _raise_map build no part of the bound; they
    index the coefficient matrix of the tests' reference restriction and
    are warmed up by the benchmark's set-up probe."""
    out = []
    for combo in combinations_with_replacement(range(CHART_VARS), degree):
        e = [0] * CHART_VARS
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(sorted(out, reverse=True))


@lru_cache(maxsize=None)
def _mono_index(degree: int) -> dict:
    return {e: i for i, e in enumerate(_monomials(degree))}


@lru_cache(maxsize=None)
def _raise_map(degree: int, var: int) -> np.ndarray:
    """Index map: degree-(d-1) monomial slot -> slot of (monomial * z_var)."""
    idx = _mono_index(degree)
    out = np.empty(len(_monomials(degree - 1)), dtype=np.int64)
    for i, e in enumerate(_monomials(degree - 1)):
        e2 = list(e)
        e2[var] += 1
        out[i] = idx[tuple(e2)]
    return out


def _lane_peak(prime: int) -> int:
    """The largest magnitude the closed-form gradients reach on residues:
    each unreduced value is a sum of at most 32 products of at most three
    residues (see jordan.s_odm_gradient)."""
    return 32 * (prime - 1) ** 3


def jacobian_image_rank(partials, m: np.ndarray, points: np.ndarray, prime: int, *,
                        stage_sec: dict | None = None) -> int:
    """Rank of the matrix with entry ((i, j), k) = z_jk dS/dx_i(m z_k), the
    products z_j dS/dx_i on the chart x = m z evaluated at the columns z_k
    of points (6 x K).  partials is jordan.s_odm_gradient or
    twisted_sextic_gradient; it runs once, on the points x = m z_k stacked
    as lanes.

    stage_sec, when given, accumulates the seconds spent evaluating the
    matrix ("restrict") and ranking it ("rank")."""
    start = time.perf_counter()
    field = PrimeField(prime)
    z = field.array(points)
    x = linalg.matmul(field, field.array(m), z)
    t = unflatten(field, 3, list(field.array(x, peak=_lane_peak(prime))))
    values = field.array(np.stack(partials(t)))
    rows = field.reduce(values[:, None, :] * z).reshape(-1, z.shape[1])
    built = time.perf_counter()
    out = linalg.rank(field, rows)
    if stage_sec is not None:
        stage_sec["restrict"] = stage_sec.get("restrict", 0.0) + built - start
        stage_sec["rank"] = stage_sec.get("rank", 0.0) + time.perf_counter() - built
    return out


def random_restriction(prime: int, rng) -> np.ndarray:
    return PrimeField(prime).array([[rng.randrange(prime) for _ in range(CHART_VARS)]
                                    for _ in range(N_VARS)])


def random_points(prime: int, rng) -> np.ndarray:
    """CHART_ROWS points of F_p^6, drawn one point at a time, as the
    columns of a 6 x 162 array."""
    return PrimeField(prime).array([[rng.randrange(prime) for _ in range(CHART_VARS)]
                                    for _ in range(CHART_ROWS)]).T


_GRADIENTS = {"sodm": s_odm_gradient, "twisted_sextic": twisted_sextic_gradient}


def aut_dimension_bound(prime: int, seed: int, retries: int,
                        invariant: str = "sodm") -> dict:
    """The evaluation rank at `retries` random charts; the bound
    dim aut(sextic) <= 162 - max rank.  invariant = "twisted_sextic" runs
    the same pipeline on the twisted-problem sextic (no published target)."""
    if invariant not in _GRADIENTS:
        raise ValueError("invariant must be 'sodm' or 'twisted_sextic'")
    start = time.perf_counter()
    ranks = []
    stage_sec = {"restrict": 0.0, "rank": 0.0}
    for k in range(retries):
        rng = derive_rng(seed, "autdim", invariant, k)
        m = random_restriction(prime, rng)
        points = random_points(prime, rng)
        ranks.append(jacobian_image_rank(_GRADIENTS[invariant], m, points, prime,
                                         stage_sec=stage_sec))
    report = {
        "prime": prime,
        "seed": seed,
        "retries": retries,
        "invariant": invariant,
        "ranks": ranks,
        "elapsed_sec": time.perf_counter() - start,
        "restrict_sec": stage_sec["restrict"],
        "rank_sec": stage_sec["rank"],
    }
    if ranks:
        best = max(ranks)
        report["max_rank"] = best
        report["aut_dim_bound"] = CHART_ROWS - best
        if invariant == "sodm":
            report["consistency"] = (
                f"rank {best} against 162 - 29 = 133 with 29 = dim SO7 x SL3; "
                "rank over F_p lower-bounds the generic characteristic-0 rank")
    else:
        report["note"] = "no retries requested; no rank claim made"
    return report
