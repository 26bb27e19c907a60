"""Formal expansion of the degeneracy sextic and the automorphism bound.

The sextic is expanded as an honest polynomial in the 27 coordinates by
running the Jordan-algebra formulas with sparse-polynomial coefficients;
the squared associator enters through the Gram-determinant identity
|[c,b,a]|^2 = 4 (Gram(Im c, Im b, Im a) - phi^2), which keeps the
intermediate term count down.  Restricting the 27 partial derivatives
through a random linear map F_p^6 -> F_p^27 and multiplying by the six
chart variables gives a 162 x 462 coefficient matrix in the degree-6
space of six variables; its rank r bounds the automorphism Lie algebra
of the sextic by dim <= 162 - r.  At a generic point the rank is 133,
which matches 162 - 29 with 29 = dim SO7 + dim SL3.

The restriction splits every quintic term as cubic x quadratic.  A plan,
built once from the gradient, stores levels 1-3 of the prefix tree of the
terms' sorted index multisets as int64 arrays (one parent slot and one
last variable per node) and each term's last two indices; it does not
depend on the chart, so every retry reuses it.  For a chart, levels 1-3
of the tree are expanded as whole batches (56 cubic coefficients per
node); each term's last two indices and its coefficient give a
quadratic (21 coefficients), and each partial is one matmul of its terms'
cubics with their quadratics, scattered into the 252 quintic slots.  No
degree-4 node is expanded.  Elementwise products are reduced
mod p before they are summed, and linalg.matmul keeps its sums in int64,
so every prime PolyRing accepts stays in int64.

The sextic itself is expanded with SparsePoly products that add exponents
packed one byte per variable into Python ints.

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
from typing import NamedTuple

import numpy as np

from . import cayley, linalg
from .cayley import AlgebraElement
from .coeffs import PrimeField, derive_rng
from .jordan import HermitianTriple, det_cartan, twisted_sextic

N_VARS = 27
CHART_VARS = 6
CHART_ROWS = N_VARS * CHART_VARS          # 162
DEGREE6_DIM = 462                         # monomials of degree 6 in 6 vars
SO7_SL3_DIM = 29                          # 21 + 8


class SparsePoly:
    """Multivariate polynomial over F_p: exponent tuple -> nonzero coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        self.terms = terms or {}

    @classmethod
    def zero(cls, n: int) -> "SparsePoly":
        return cls(n)

    @classmethod
    def const(cls, n: int, c: int, p: int) -> "SparsePoly":
        c %= p
        return cls(n, {(0,) * n: c} if c else {})

    @classmethod
    def variable(cls, n: int, i: int) -> "SparsePoly":
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def max_exponent(self) -> int:
        return max(map(max, self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __len__(self):
        return len(self.terms)

    def add(self, other: "SparsePoly", p: int) -> "SparsePoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = (out.get(e, 0) + c) % p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return SparsePoly(self.n, out)

    def neg(self, p: int) -> "SparsePoly":
        return SparsePoly(self.n, {e: p - c for e, c in self.terms.items()})

    def sub(self, other: "SparsePoly", p: int) -> "SparsePoly":
        return self.add(other.neg(p), p)

    def mul(self, other: "SparsePoly", p: int) -> "SparsePoly":
        """Product.  Each exponent is packed one byte per variable into an
        int, so adding the packed ints adds the exponents; the output keys
        are unpacked into tuples once, after the coefficients are summed."""
        if self.max_exponent() + other.max_exponent() > 255:
            raise ValueError("an exponent of the product could pass 255, "
                             "past the one-byte packing")
        n = self.n
        right = [(int.from_bytes(bytes(e), "little"), c) for e, c in other.terms.items()]
        acc: dict = {}
        get = acc.get
        for e1, c1 in self.terms.items():
            k1 = int.from_bytes(bytes(e1), "little")
            for k2, c2 in right:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        out = {}
        for k, v in acc.items():
            v %= p
            if v:
                out[tuple(k.to_bytes(n, "little"))] = v
        return SparsePoly(n, out)

    def scale(self, c: int, p: int) -> "SparsePoly":
        c %= p
        if not c:
            return SparsePoly.zero(self.n)
        return SparsePoly(self.n, {e: c * v % p for e, v in self.terms.items()})

    def diff(self, i: int, p: int) -> "SparsePoly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                v = e[i] * c % p
                if v:
                    e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
                    out[e2] = v
        return SparsePoly(self.n, out)

    def eval(self, point, p: int) -> int:
        acc = 0
        for e, c in self.terms.items():
            t = c
            for x, k in zip(point, e):
                if k:
                    t = t * pow(x, k, p) % p
            acc = (acc + t) % p
        return acc

    def coefficient(self, expo: tuple) -> int:
        return self.terms.get(tuple(expo), 0)


class PolyRing:
    """Ring-contract adapter so the algebra code runs on SparsePoly scalars."""

    # SparsePoly scalars have no arithmetic operators, so AlgebraElement
    # products take one ring call per term instead of a sum and a reduce
    reduce = None

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

    def add(self, a, b):
        return a.add(b, self.p)

    def sub(self, a, b):
        return a.sub(b, self.p)

    def mul(self, a, b):
        return a.mul(b, self.p)

    def neg(self, a):
        return a.neg(self.p)

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def eq(self, a, b) -> bool:
        return a.sub(b, self.p).is_zero()

    def inv(self, a):
        # only constants are invertible here (used for the 1/2 in phi)
        if set(a.terms) == {(0,) * self.n}:
            return SparsePoly.const(self.n, pow(a.terms[(0,) * self.n], -1, self.p), self.p)
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
    assoc_sq = ring.mul(four, ring.sub(gram, ring.mul(ph, ph)))
    out = ring.sub(ring.mul(det, det), ring.mul(four, ring.mul(ph, det)))
    return ring.sub(out, assoc_sq)


def expand_twisted_sextic(prime: int) -> SparsePoly:
    """Expansion of the twisted-problem sextic; no reference value is
    published for its rank, so the bound is reported without a target."""
    ring = PolyRing(prime, N_VARS)
    return twisted_sextic(symbolic_triple(ring))


def gradient(poly: SparsePoly, prime: int) -> list:
    return [poly.diff(i, prime) for i in range(poly.n)]


@lru_cache(maxsize=None)
def _monomials(degree: int) -> tuple:
    """Degree-d monomials in the 6 chart variables, graded-lex, fixed."""
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


class RestrictionPlan(NamedTuple):
    """Cubic prefix tree of the gradient's terms, independent of the chart.

    Every term of a quintic partial is a sorted multiset of five variable
    indices.  Level k (k = 1..3) holds the distinct length-k prefixes:
    parent[k-1][s] is the level-(k-1) slot of prefix s with its last index
    dropped, last[k-1][s] is that last index.  terms has one row per term,
    (partial, level-3 slot, coefficient), grouped by partial; tails holds
    the term's fourth and fifth indices.
    """

    parent: tuple
    last: tuple
    terms: np.ndarray
    tails: np.ndarray
    n_partials: int


def restriction_plan(partials: list) -> RestrictionPlan:
    """The restriction plan of the partials' terms; every term must have degree 5."""
    owner, exps, coeffs = [], [], []
    for i, part in enumerate(partials):
        owner += [i] * len(part)
        exps += part.terms.keys()
        coeffs += part.terms.values()
    n = partials[0].n
    exps = np.array(exps, dtype=np.int64).reshape(len(owner), n)
    degrees = exps.sum(axis=1)
    bad = np.flatnonzero(degrees != 5)
    if bad.size:
        raise ValueError(f"partial {owner[bad[0]]} has a term of degree "
                         f"{degrees[bad[0]]}; the restriction needs homogeneous "
                         "quintic partials")
    multisets = np.repeat(np.tile(np.arange(n), len(exps)), exps.ravel()).reshape(-1, 5)
    parent, last = [], []
    key = np.zeros(len(exps), dtype=np.int64)     # prefix as base-n digits
    slot = np.zeros(len(exps), dtype=np.int64)    # level 0: the empty prefix
    for k in range(3):
        key = key * n + multisets[:, k]
        _, first, slot_k = np.unique(key, return_index=True, return_inverse=True)
        parent.append(slot[first])
        last.append(multisets[first, k])
        slot = slot_k
    terms = np.column_stack([owner, slot, coeffs]).astype(np.int64)
    return RestrictionPlan(tuple(parent), tuple(last), terms, multisets[:, 3:], len(partials))


def _raise_level(prev: np.ndarray, coef: np.ndarray, degree: int, p: int) -> np.ndarray:
    """Columns prev (degree d-1, one per node) times the linear forms
    sum_j coef[j] z_j, in the degree-d basis.  Every product is reduced
    before it is added, so any int64-safe p stays in int64."""
    out = np.zeros((len(_monomials(degree)), prev.shape[1]), dtype=np.int64)
    for j in range(CHART_VARS):
        out[_raise_map(degree, j)] += prev * coef[j] % p
    return out % p


def _quadratics(m: np.ndarray, p: int) -> np.ndarray:
    """(n, n, 21): the degree-2 coefficients of (m[u] . z)(m[v] . z)."""
    out = np.zeros((len(m), len(m), len(_monomials(2))), dtype=np.int64)
    for a in range(CHART_VARS):
        for b in range(CHART_VARS):
            # degree-1 slot a is z_a, so this is the slot of z_a z_b
            out[:, :, _raise_map(2, b)[a]] += np.outer(m[:, a], m[:, b]) % p
    return out % p


@lru_cache(maxsize=None)
def _product_slots() -> np.ndarray:
    """(56, 21) table: degree-5 slot of (cubic monomial i) * (quadratic j)."""
    idx = _mono_index(5)
    return np.array([[idx[tuple(u + v for u, v in zip(e3, e2))] for e2 in _monomials(2)]
                     for e3 in _monomials(3)], dtype=np.int64)


def _restrict(plan: RestrictionPlan, m: np.ndarray, p: int) -> np.ndarray:
    """The partials restricted through x_i <- sum_j m[i,j] z_j, one row per
    partial, in the fixed graded-lex basis of degree-5 monomials.

    Every term is split as cubic x quadratic.  Levels 1-3 of the prefix
    tree are expanded as whole batches (56 cubic coefficients per node);
    each term's quadratic is the product of the chart rows of its last two
    indices, one scaled by the coefficient (21 coefficients).  A partial's
    restriction is then one product of its terms' cubic columns (56 x n)
    with their quadratics (n x 21), scattered into the 252 quintic slots,
    so no degree-4 node is ever expanded.  Elementwise products are
    reduced before they are summed and linalg.matmul keeps its sums in
    int64, so every prime PolyRing accepts stays in int64."""
    m = np.asarray(m, dtype=np.int64) % p
    level = np.ones((1, 1), dtype=np.int64)
    for k in range(3):
        level = _raise_level(level[:, plan.parent[k]], m[plan.last[k]].T, k + 1, p)
    owner, slot, coeff = plan.terms.T
    cubic = level.T[slot]
    quad = _quadratics(m, p)[plan.tails[:, 0], plan.tails[:, 1]] * coeff[:, None] % p
    field = PrimeField(p)
    table = _product_slots()
    bounds = np.searchsorted(owner, np.arange(plan.n_partials + 1))
    out = np.zeros((plan.n_partials, len(_monomials(5))), dtype=np.int64)
    for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.add.at(out[i], table, linalg.matmul(field, cubic[lo:hi].T, quad[lo:hi]))
    return out % p


def jacobian_image_rank(plan: RestrictionPlan, m: np.ndarray, prime: int, *,
                        stage_sec: dict | None = None) -> int:
    """Rank of the 162 x 462 coefficient matrix of z_j * (dS/dx_i restricted
    through m), in the degree-6 space of the six chart variables.

    stage_sec, when given, accumulates the seconds spent building the
    matrix ("restrict") and ranking it ("rank")."""
    start = time.perf_counter()
    restricted = _restrict(plan, m, prime)
    rows = np.zeros((len(restricted), CHART_VARS, DEGREE6_DIM), dtype=np.int64)
    for j in range(CHART_VARS):
        rows[:, j, _raise_map(6, j)] = restricted
    built = time.perf_counter()
    out = linalg.rank(PrimeField(prime), rows.reshape(-1, DEGREE6_DIM))
    if stage_sec is not None:
        stage_sec["restrict"] = stage_sec.get("restrict", 0.0) + built - start
        stage_sec["rank"] = stage_sec.get("rank", 0.0) + time.perf_counter() - built
    return out


def random_restriction(prime: int, rng) -> np.ndarray:
    return np.array([[rng.randrange(prime) for _ in range(CHART_VARS)]
                     for _ in range(N_VARS)], dtype=np.int64)


def aut_dimension_bound(prime: int, seed: int, retries: int,
                        invariant: str = "sodm") -> dict:
    """Expansion, restriction and rank at `retries` random points; the bound
    dim aut(sextic) <= 162 - max rank.  invariant = "twisted_sextic" runs
    the same pipeline on the twisted-problem sextic (no published target)."""
    if invariant not in ("sodm", "twisted_sextic"):
        raise ValueError("invariant must be 'sodm' or 'twisted_sextic'")
    start = time.perf_counter()
    poly = expand_sodm(prime) if invariant == "sodm" else expand_twisted_sextic(prime)
    expand_elapsed = time.perf_counter() - start
    plan = restriction_plan(gradient(poly, prime))
    ranks = []
    stage_sec = {"restrict": 0.0, "rank": 0.0}
    for k in range(retries):
        rng = derive_rng(seed, "autdim", invariant, k)
        m = random_restriction(prime, rng)
        ranks.append(jacobian_image_rank(plan, m, prime, stage_sec=stage_sec))
    report = {
        "prime": prime,
        "seed": seed,
        "retries": retries,
        "invariant": invariant,
        "sextic_terms": len(poly),
        "sextic_degree": poly.total_degree(),
        "ranks": ranks,
        "elapsed_sec": time.perf_counter() - start,
        "expand_sec": expand_elapsed,
        "restrict_sec": stage_sec["restrict"],
        "rank_sec": stage_sec["rank"],
    }
    if invariant == "sodm":
        report["sodm_terms"] = len(poly)
        report["sodm_degree"] = poly.total_degree()
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
