"""Triality triples and the symmetry actions on hermitian triples.

The group behind the twisted eigenvalue problem is the copy of Spin7 made
of pairs (T1, T2) of orthogonal 8x8 matrices with T1(x) T2(y) = T1(xy) for
all x, y; projecting to T2 double-covers the SO7 stabilizing the unit.
The untwisted problem uses the other copy, T2(uv) = T1(u) T2(v), made of
the pairs (K_{T2}, K_{T1}) with K_T(x) = conj(T(conj(x))).  Random F_p
elements are one fixed word of nilpotent triality pairs at fresh
parameters (random_spin7): no draw inverts, eliminates or takes a square
root.  Complex ones are exponentials of the same infinitesimal pairs
(triality_partner, reduce.chart_pair).  The lift T1 = L_u T2, with
u = T1(e_1) solving a linear system and normalized by a square root that
F_p lacks outside the image of Spin7 (NonResidueError), is the exact
reference the word is checked against.  The actions on hermitian triples
are twisted Spin7 (T2 on c, T1 on a, the conjugation twist of T1 on b),
plain SO7 entrywise, and congruence by 3x3 scalar matrices.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass

import numpy as np

from . import cayley, linalg
from .cayley import AlgebraElement
from .coeffs import ComplexField, PrimeField
from .jordan import HermitianTriple, to_full_matrix

LIFT_TOL = 1e-10


class LiftError(RuntimeError):
    """No usable companion: the first-column solution space is not
    one-dimensional, or the pair fails its defect certificate."""


class NonResidueError(LiftError):
    """Normalization needs a square root that F_p lacks; retry with new input."""


def apply_matrix(ring, m: np.ndarray, x: AlgebraElement) -> AlgebraElement:
    out = linalg.matmul(ring, m, ring.array(x.coords))
    return AlgebraElement(ring, x.level, tuple(out.tolist()))


# structure constants e_i e_j = _SIGN[i, j] e_{_INDEX[i, j]} of the octonions
_SIGN = np.array([[s for s, _ in row] for row in cayley.mult_table(3)])
_INDEX = np.array([[k for _, k in row] for row in cayley.mult_table(3)])


def _pair_defect(ring, a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Worst violation of A(e_i) B(e_j) = C(e_i e_j) over all 64 pairs.

    Returns an exact integer count of failing pairs over a field, a float
    magnitude over the complex numbers.
    """
    # entry [i, :, j] of both sides is a coordinate vector: L_{A(e_i)} B(e_j)
    # on the left, s C(e_k) with e_i e_j = s e_k on the right
    lhs = linalg.matmul(ring, cayley.left_mult_matrix(AlgebraElement(ring, 3, tuple(a))), b)
    rhs = _SIGN[:, None, :] * c[:, _INDEX].transpose(1, 0, 2)
    if isinstance(ring, ComplexField):
        return float(np.max(np.abs(lhs - rhs)))
    return int(np.count_nonzero(np.any(ring.reduce(lhs - rhs) != 0, axis=1)))


def triality_defect(ring, t1: np.ndarray, t2: np.ndarray):
    """Worst violation of T1(e_i) T2(e_j) = T1(e_i e_j) over all 64 pairs."""
    return _pair_defect(ring, t1, t2, t1)


def _certify(defect, what: str) -> None:
    # a failing-pair count over F_p exceeds the tolerance as soon as it is 1;
    # a NaN defect (non-finite entries) is no certificate either
    if not defect <= LIFT_TOL:
        raise LiftError(f"{what}: defect {defect} after normalization")


@dataclass(frozen=True)
class TrialityTriple:
    """A pair (T1, T2) with T1(x)T2(y) = T1(xy); encodes (T1, T2, T1)."""

    ring: object
    t1: np.ndarray
    t2: np.ndarray

    @classmethod
    def identity(cls, ring) -> "TrialityTriple":
        return cls(ring, linalg.eye(ring, 8), linalg.eye(ring, 8))

    def defect(self):
        return triality_defect(self.ring, self.t1, self.t2)

    def certified(self) -> "TrialityTriple":
        """This pair, after checking its defect is within LIFT_TOL (else LiftError)."""
        _certify(self.defect(), "triality pair")
        return self


def _canonical_sign(ring, m: np.ndarray) -> np.ndarray:
    """The sign of the lifts: the first nonzero entry made a least residue."""
    m = ring.reduce(m)
    first = next((v for v in m.ravel().tolist() if v), 0)
    return ring.reduce(-m) if 2 * first > ring.p else m


def _first_column_system(ring, t2: np.ndarray) -> np.ndarray:
    """The 512x8 linear system for the first column u = T1(e_1) of the
    companion T1 = L_u T2: [s R_{T2(e_k)} - R_{T2(e_j)} R_{T2(e_i)}] u = 0
    for every basis product e_i e_j = s e_k."""
    byc = cayley.right_mult_matrix(AlgebraElement(ring, 3, tuple(t2)))
    # prods[i, j] = R_{T2(e_j)} R_{T2(e_i)}
    prods = linalg.matmul(ring, byc[None], byc[:, None])
    return ring.reduce((_SIGN[:, :, None, None] * byc[_INDEX] - prods).reshape(512, 8))


def fast_right_companion(ring, t2: np.ndarray) -> np.ndarray:
    """T1 of the triality pair over T2, with the canonical sign and without
    a certificate.

    The kernel of the first-column system is the double-cover fiber, so it
    must be one-dimensional; scaling its vector to unit norm needs a square
    root, which F_p may lack (NonResidueError).  The lift runs over F_p
    only; any other ring is a ValueError.
    """
    if not isinstance(ring, PrimeField):
        raise ValueError(f"the triality lift runs over F_p, not over {ring!r}")
    ker = linalg.nullspace(ring, _first_column_system(ring, t2))
    if ker.shape[1] != 1:
        raise LiftError(f"right companion: solution dimension {ker.shape[1]}, "
                        "the input is not in the SO7 image")
    v = AlgebraElement(ring, 3, tuple(ker[:, 0].tolist()))
    r = ring.sqrt(v.norm_sq())
    if r is None:
        raise NonResidueError("right companion: normalization scalar is a "
                              f"non-residue mod {ring.p}")
    unit = v.scale(ring.inv(r))
    return _canonical_sign(ring, linalg.matmul(ring, cayley.left_mult_matrix(unit), t2))


def lift_right_companion(ring, t2: np.ndarray) -> TrialityTriple:
    """Lift T2 in SO7 (fixing e_1) to the triality pair (T1, T2).

    The first-column lift followed by the triality_defect certificate.
    """
    t2 = ring.reduce(t2)
    return TrialityTriple(ring, fast_right_companion(ring, t2), t2).certified()


def lift_left_companion(ring, t1: np.ndarray) -> np.ndarray:
    """Companion T2 with T2(uv) = T1(u) T2(v), for T1 in SO7 fixing e_1.

    This is the other Spin7 copy, the one acting in the untwisted problem.
    Conjugating a right pair, T1(x) T2(y) = T1(xy) becomes
    K_{T2}(u) K_{T1}(v) = K_{T1}(uv), so the companion is K of the right
    companion of K_{T1}, with the canonical sign.  Only the lifted T2
    matrix is returned, once it satisfies its defining identity.
    """
    t2 = _canonical_sign(ring, kappa(ring, fast_right_companion(ring, kappa(ring, t1))))
    _certify(_pair_defect(ring, t1, t2, t2), "left companion")
    return t2


def kappa(ring, t: np.ndarray) -> np.ndarray:
    """K_T(x) = conj(T(conj(x))), i.e. C T C with C = diag(1,-1,..,-1)."""
    sign = np.ones(8, dtype=np.int64)
    sign[1:] = -1
    return ring.reduce(t * np.outer(sign, sign))


def spin7_act(t: TrialityTriple, a: HermitianTriple) -> HermitianTriple:
    """The twisted action: c <- T2(c), a <- T1(a), b <- K_{T1}(b)."""
    ring = a.ring
    kt1 = kappa(ring, t.t1)
    return HermitianTriple(ring, a.level, a.lambdas,
                           apply_matrix(ring, t.t1, a.a),
                           apply_matrix(ring, kt1, a.b),
                           apply_matrix(ring, t.t2, a.c))


def so7_act(ring, t1: np.ndarray, a: HermitianTriple) -> HermitianTriple:
    """The untwisted entrywise action of SO7 on the three octonion slots."""
    return HermitianTriple(ring, a.level, a.lambdas,
                           apply_matrix(ring, t1, a.a),
                           apply_matrix(ring, t1, a.b),
                           apply_matrix(ring, t1, a.c))


def sl3_act(ring, h: np.ndarray, a: HermitianTriple) -> HermitianTriple:
    """Transpose-congruence H^T A H; scalar 3x3 coefficients commute with
    the octonion entries so the product is unambiguous.

    Entry (i, j) is sum_{k,l} (h_ki h_lj) A_kl.  Each of its coordinates is
    one ordered sum over the nine (k, l), taken with Python operators and
    reduced once by ring.reduce; only the coordinates a triple keeps are
    formed (the off-diagonal entries and the real parts of the diagonal).
    Over C the additions run in the order of the term-by-term sum, so the
    result is bit-identical to it.  The scalars of the result are Python
    ints or complex numbers.
    """
    hs = h.tolist()
    pairs = [(k, l) for k in range(3) for l in range(3)]
    full = to_full_matrix(a)
    # column c holds coordinate c of the nine A_kl, in (k, l) order
    cols = list(zip(*(full[k][l].coords for k, l in pairs)))

    def entry(i, j, columns):
        weights = [hs[k][i] * hs[l][j] for k, l in pairs]
        return tuple(ring.reduce(functools.reduce(operator.add, map(operator.mul, weights, col),
                                                  ring.zero))
                     for col in columns)

    lams = tuple(entry(i, i, cols[:1])[0] for i in range(3))
    new_a, new_b, new_c = (AlgebraElement(ring, a.level, entry(i, j, cols))
                           for i, j in ((1, 2), (2, 0), (0, 1)))
    return HermitianTriple(ring, a.level, lams, new_a, new_b, new_c)


_IM_PAIRS = np.array([(i, j) for i in range(1, 8) for j in range(i + 1, 8)]).T
WORD_LENGTH = _IM_PAIRS.shape[1]  # 21 = dim SO7


def triality_partner(ring, a2: np.ndarray, half) -> np.ndarray:
    """The partner A1 = A2 + L_u, u = 1/2 sum_{i<j} A2[i, j] e_i e_j, of a
    stack of skew A2 fixing e_1, with half = 1/2 in the ring: it solves
    A1(x) y + x A2(y) = A1(xy), T1(x) T2(y) = T1(xy) at the identity."""
    rows, cols = _IM_PAIRS
    lu = _SIGN[rows, cols][:, None, None] * cayley.left_basis_matrices(3)[_INDEX[rows, cols]]
    return ring.reduce(a2 + half * ring.reduce(np.tensordot(a2[..., rows, cols], lu, 1)))


@functools.lru_cache(maxsize=None)
def _nilpotent_word(p: int) -> tuple:
    """Read-only stacks A1, A2 and A2^2 / 2 of the F_p Spin7 word, drawn
    once per prime from a generator seeded by p.

    A2 = u w^T - w u^T with u, w in Im O, u isotropic and orthogonal to w,
    so A2^2 = -(w.w) u u^T, A2^3 = 0 and A1^2 = 0.  The first u takes one
    square root, and each later u is the second point q(v) u0 - 2 (u0.v) v
    where the line u0 + s v meets the quadric.  A draw whose A2 stack has
    rank below 21 = dim so7 is replaced by the next 21 pairs."""
    ring = PrimeField(p)
    rng = random.Random(f"spin7-word:{p}")

    def draw():
        return [0] + [ring.random(rng) for _ in range(7)]

    def dot(x, y):
        return ring.reduce(sum(a * b for a, b in zip(x, y)))

    u0 = draw()
    while (root := ring.sqrt(-dot(u0[:7], u0[:7]))) is None:
        u0 = draw()
    u0[7] = root
    half = ring.inv(2)
    rank = 0
    # the A2 stack is the word's derivative at t = 0: redraw all its pairs
    # until they span so7, so the word reaches all of Spin7
    while rank < WORD_LENGTH:
        a2, h = [], []
        for _ in range(WORD_LENGTH):
            v, w = draw(), draw()
            u = [ring.reduce(dot(v, v) * a - 2 * dot(u0, v) * b) for a, b in zip(u0, v)]
            i, uw = next((i for i in range(8) if u[i]), 0), dot(u, w)
            w = [ring.reduce(u[i] * b - (uw if k == i else 0)) for k, b in enumerate(w)]  # w.u = 0
            a2.append([[ring.reduce(u[r] * w[c] - w[r] * u[c]) for c in range(8)]
                       for r in range(8)])
            h.append([[ring.reduce(-half * dot(w, w) * x * y) for y in u] for x in u])
        a2 = ring.array(a2)
        rank = len(linalg._echelon(p, a2.reshape(WORD_LENGTH, 64), reduced=False)[1])
    out = (triality_partner(ring, a2, half), a2, ring.array(h))
    for m in out:
        m.flags.writeable = False
    return out


def spin7_word(ring, t) -> TrialityTriple:
    """The word at the parameters t (WORD_LENGTH residues), uncertified:
    the product of the pairs (I + t_k A1_k, I + t_k A2_k + t_k^2 A2_k^2 / 2),
    exact over F_p because the A1_k and A2_k are nilpotent."""
    a1, a2, h = _nilpotent_word(ring.p)
    t = ring.array(t)[:, None, None]
    eye = linalg.eye(ring, 8)
    # t^2 is reduced before it meets A2^2 / 2, so int64 products stay below (p - 1)^2
    t2 = ring.reduce(eye + ring.reduce(t * a2) + ring.reduce(ring.reduce(t * t) * h))
    factors = np.stack([ring.reduce(eye + t * a1), t2], axis=1)
    # the ordered product as a balanced tree: each level multiplies adjacent
    # factors pairwise in one stacked matmul, which over F_p is exact, so the
    # grouping does not change the product
    while len(factors) > 1:
        odd = len(factors) % 2
        pairs = linalg.matmul(ring, factors[:len(factors) - odd:2], factors[1::2])
        factors = np.concatenate([pairs, factors[-1:]]) if odd else pairs
    return TrialityTriple(ring, *factors[0])


def random_spin7(ring, rng: random.Random) -> TrialityTriple:
    """Random triality pair over F_p: the word at fresh parameters, with
    its defect certificate.  Any other ring is a ValueError."""
    if not isinstance(ring, PrimeField):
        raise ValueError(f"the Spin7 word runs over F_p, not over {ring!r}")
    return spin7_word(ring, [ring.random(rng) for _ in range(WORD_LENGTH)]).certified()
