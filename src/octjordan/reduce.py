"""Constructive prehomogeneity: carry a generic point of J3(O) to the identity.

The reduction is Gaussian elimination on the 3x3 hermitian matrix.  Every
Spin7 move is a product of exponentials of closed-form infinitesimal
triality pairs (chart_pair): a genuine group element, with no triality lift.

An input off the diagonal first takes one fixed dressing, a real Spin7 move
and a real congruence of determinant 1 (_dressing), which moves it off the
special sets where elimination would stall on the input itself (a real or
complex point, a zero or isotropic slot, a zero pivot); what still stalls
lies on a proper algebraic subset, such as the inputs whose dressed lambda2
vanishes.  Then come three rounds.  Twisted Spin7 acts through T1
transitively on each level N(x) = const != 0 of O (x) C, with stabilizer G2
(Springer & Veldkamp, Octonions, Jordan Algebras and Exceptional Groups,
2000, ch. 3), so a Gauss-Newton solve on the group (stabilizer_solve) makes
a non-isotropic slot a a complex scalar alpha.  The congruence
I - (alpha / lambda2) E_12 kills it, and the cyclic permutation of the rows
moves b to a, c to b and a to c.  The pivot lambda2 is the dressed input's
in round 1 and the Schur complement lambda3 - alpha^2 / lambda2 of round 1
in round 2.  Round 3 stops after its solve: the state is complex symmetric,
and one congruence carries it to the identity.

Genericity is tested once, at the input, with the cubic the moves keep:
det_cartan(conj t), det_cartan with a, b and c conjugated.  The twisted
Spin7 moves leave it invariant and the congruences, of determinant 1,
leave it unchanged too (det_cartan itself is not invariant under the Spin7
moves).  An input whose det_cartan(conj t), after scaling the input to
unit norm, is at most GENERIC_TOL aborts at step 'input'.  The remaining
guards are the pivots lambda2, relative to the norm of the state, and the
Gauss-Newton stagnation; each commutes, like the action, with scaling the
input by any nonzero complex number, and a failure names its step.  The
emitted word is self-certifying: its residual is that of the replayed word,
which must be within the requested tolerance.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import linalg, symmetry
from .coeffs import ComplexField
from .jordan import HermitianTriple, det_cartan, identity_triple
from .symmetry import TrialityTriple, sl3_act, spin7_act

GENERIC_TOL = 1e-8      # relative threshold on the input det and every pivot
GN_TOL = 1e-10
CONGRUENCE_TOL = 1e-9   # relative symmetry and residual bound of the 3x3 congruence
GN_MAX_ITERS = 50
GN_RESTARTS = 20

_RING = ComplexField()


class NonGenericInput(RuntimeError):
    """A genericity condition of the reduction failed; names the step."""

    def __init__(self, step: str, detail: str):
        super().__init__(f"step '{step}': {detail}")
        self.step = step
        self.detail = detail


@dataclass
class TransformWord:
    """Moves plus a trailing scalar; replaying them reproduces the record."""

    moves: list = field(default_factory=list)       # ("spin7", TrialityTriple) | ("congruence", H)
    steps: list = field(default_factory=list)       # parallel step labels
    solver: list = field(default_factory=list)      # (step label, SolveRecord) per solved move
    scale: complex = 1 + 0j
    intermediates: list = field(default_factory=list)  # flattened states after each move
    residual: float = 0.0

    def record(self, label: str, move, state: HermitianTriple) -> HermitianTriple:
        self.moves.append(move)
        self.steps.append(label)
        self.intermediates.append(list(state.flatten()))
        return state

    def to_json_dict(self) -> dict:
        def mat(m):
            return [[_RING.encode(complex(v)) for v in row] for row in np.asarray(m)]

        moves = []
        for (kind, payload), label in zip(self.moves, self.steps):
            if kind == "spin7":
                moves.append({"kind": "spin7", "step": label,
                              "t1": mat(payload.t1), "t2": mat(payload.t2)})
            else:
                moves.append({"kind": "congruence", "step": label,
                              "h": mat(payload),
                              "det": _RING.encode(complex(np.linalg.det(payload)))})
        return {
            "moves": moves,
            "scale": _RING.encode(self.scale),
            "intermediates": [[_RING.encode(z) for z in s] for s in self.intermediates],
            "residual": self.residual,
            "solver": [{"step": label, "iterations": rec.iterations,
                        "restarts": rec.restarts, "residual": rec.residual}
                       for label, rec in self.solver],
        }


def apply_move(move, t: HermitianTriple) -> HermitianTriple:
    kind, payload = move
    if kind == "spin7":
        return spin7_act(payload, t)
    return sl3_act(t.ring, payload, t)


def replay(word: TransformWord, t: HermitianTriple) -> HermitianTriple:
    for move in word.moves:
        t = apply_move(move, t)
    return t.scale(word.scale)


def _norm(t: HermitianTriple) -> float:
    return math.sqrt(sum(abs(z) ** 2 for z in t.flatten()))


def distance_to_identity(t: HermitianTriple) -> float:
    ident = identity_triple(t.ring, t.level)
    return math.sqrt(sum(abs(p - q) ** 2 for p, q in zip(t.flatten(), ident.flatten())))


def random_generic_triple(rng: random.Random) -> HermitianTriple:
    """Unit-normal coordinates; generic with probability one."""
    coords = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(27)]
    from .jordan import unflatten
    return unflatten(_RING, 3, coords)


# Gauss-Newton on the group, in the Lie algebra of the so7 chart.

def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring.

    a is scaled by 2^-s until its 1-norm is at most 1/4, where the
    degree-12 Taylor polynomial (Horner form) is exact to double precision,
    and the result is squared s times.  A non-finite input gives a NaN
    matrix.
    """
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan, dtype=complex)
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    x = a / 2.0 ** s
    eye = np.eye(a.shape[0], dtype=a.dtype)
    out = eye
    for k in range(12, 0, -1):
        out = eye + (x @ out) / k
    for _ in range(s):
        out = out @ out
    return out


@lru_cache(maxsize=None)
def chart_pair() -> tuple:
    """Infinitesimal triality pairs (A1_k, A2_k) over the so7 chart.

    A2_k runs over the 21 skew generators E_ij (entry [i, j] = 1,
    [j, i] = -1) with 1 <= i < j <= 7, so exp(A2) fixes e_1; A1_k is its
    partner symmetry.triality_partner, which for E_ij is
    E_ij + 1/2 sign_ij L_{e_k} where e_i e_j = sign_ij e_k.  Hence
    (exp(sum d_k A1_k), exp(sum d_k A2_k)) is a triality pair for every
    complex d.  Returns two read-only (21, 8, 8) stacks.
    """
    rows, cols = symmetry._IM_PAIRS
    k = np.arange(rows.size)
    a2 = np.zeros((rows.size, 8, 8))
    a2[k, rows, cols] = 1
    a2[k, cols, rows] = -1
    a1 = symmetry.triality_partner(_RING, a2, 0.5)
    a1.flags.writeable = False
    a2.flags.writeable = False
    return a1, a2


def _exp_pair(theta: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> tuple:
    return expm(np.tensordot(theta, a1, 1)), expm(np.tensordot(theta, a2, 1))


# b -> a, c -> b, a -> c
_CYCLE = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)


@lru_cache(maxsize=None)
def _dressing() -> tuple:
    """The two fixed moves every input off the diagonal takes first: a real
    Spin7 move and the congruence by L U, for real unit-triangular L and U.
    Their entries are not integers, because an integer dressing left inputs
    with entries in {-1, 0, 1} at a zero pivot.  Returns (TrialityTriple,
    H); the pair is certified where it is used."""
    theta = np.linspace(0.3, 1.1, 21).astype(complex)
    lower = np.array([[1, 0, 0], [0.37, 1, 0], [0.61, 0.29, 1]], dtype=complex)
    upper = np.array([[1, 0.53, 0.17], [0, 1, 0.83], [0, 0, 1]], dtype=complex)
    return TrialityTriple(_RING, *_exp_pair(theta, *chart_pair())), lower @ upper


@dataclass(frozen=True)
class SolveRecord:
    """How a stabilizer_solve call converged."""

    iterations: int     # Gauss-Newton steps, summed over every start
    restarts: int       # starts abandoned before the accepted one
    residual: float     # norm of the accepted residual


def stabilizer_solve(t: HermitianTriple, rng: random.Random, step: str,
                     slot: str, span_allowed):
    """Find a Spin7 element that sends the octonion w in the given slot into
    the span of the basis directions span_allowed.

    The a slot is placed by T1 and the c slot by T2; the other matrix of
    the pair follows.  The placement (T w)[banned] = 0 is solved by damped
    Gauss-Newton on the group with the left retraction
    (T1, T2) <- (exp(sum d_k A1_k) T1, exp(sum d_k A2_k) T2) of chart_pair,
    whose Jacobian column k is exactly (A_k T w)[banned] for the placing
    side.  The first start is the identity pair; each restart begins at
    exp(theta A) for a random complex theta.  T1 preserves the norm N(w),
    so span_allowed = (0,) asks for a scalar alpha with alpha^2 = N(w),
    which T1 reaches whenever N(w) != 0.  The accepted pair is certified.
    Returns (move, moved triple, SolveRecord).
    """
    # ga: the chart of the side placing the slot (T1 for a, T2 for c); gb: the other
    ga, gb = chart_pair()
    if slot == "c":
        ga, gb = gb, ga
    w = np.array(getattr(t, slot).coords, dtype=complex)
    banned = [k for k in range(8) if k not in span_allowed]
    tol = GN_TOL * float(np.linalg.norm(w))
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for restart in range(GN_RESTARTS):
            if restart == 0:
                ta = tb = np.eye(8, dtype=complex)
            else:
                spread = 0.4 + 0.2 * (restart % 3)
                theta = np.array([complex(rng.gauss(0, spread), rng.gauss(0, spread))
                                  for _ in range(len(ga))])
                ta, tb = _exp_pair(theta, ga, gb)
            v = ta @ w
            r = v[banned]
            rn = float(np.linalg.norm(r))
            if not math.isfinite(rn):
                continue
            for _ in range(GN_MAX_ITERS):
                if rn <= tol:
                    pair = (ta, tb) if slot == "a" else (tb, ta)
                    try:
                        trip = TrialityTriple(_RING, *pair).certified()
                    except symmetry.LiftError:
                        break
                    record = SolveRecord(iterations, restart, rn)
                    return ("spin7", trip), spin7_act(trip, t), record
                iterations += 1
                jac = (ga @ v)[:, banned].T
                step_vec = np.linalg.lstsq(jac, -r, rcond=None)[0]
                damp = 1.0
                for _ in range(10):
                    d = damp * step_vec
                    tac = expm(np.tensordot(d, ga, 1)) @ ta
                    vc = tac @ w
                    rc = float(np.linalg.norm(vc[banned]))
                    if rc < rn:      # False for a non-finite candidate
                        ta, tb = tac, expm(np.tensordot(d, gb, 1)) @ tb
                        v, r, rn = vc, vc[banned], rc
                        break
                    damp /= 2
                else:
                    break
    raise NonGenericInput(step, "Gauss-Newton stagnated on the pair condition")


def move_c_to_plane(t: HermitianTriple, rng: random.Random, step: str, target: int = 1):
    """Spin7 move whose T2 maps c into span(e1, e_{target+1}).

    The Gauss-Newton placement of stabilizer_solve on the c slot over the
    full 21-dimensional chart: T2 fixes e1, so the real part of c stays and
    its imaginary part is rotated onto the axis, which fails (NonGenericInput)
    whenever that part is isotropic.  A real c is accepted at once with
    the identity move.  Returns (move, moved triple, SolveRecord).  The
    reduction itself places only slot a; the benchmark's tracer binds this
    name (perfbench/spans.py).
    """
    return stabilizer_solve(t, rng, step, "c", (0, target))


def symmetric_congruence_to_identity(s: np.ndarray) -> np.ndarray:
    """H with H^T S H = I for nondegenerate complex symmetric 3x3 S.

    Successive completion of squares with pivot permutation; square roots
    on the principal branch.  A pivot that is exactly zero after the
    off-diagonal patch, or a residual above CONGRUENCE_TOL, raises
    SingularMatrixError.
    """
    s = np.array(s, dtype=complex)
    if s.shape != (3, 3) or np.max(np.abs(s - s.T)) > CONGRUENCE_TOL * max(1.0, np.max(np.abs(s))):
        raise ValueError("expected a symmetric 3x3 matrix")
    scale = max(float(np.max(np.abs(s))), 1e-300)
    h = np.eye(3, dtype=complex)
    work = s.copy()
    for k in range(3):
        piv = k + int(np.argmax(np.abs(np.diag(work)[k:])))
        if abs(work[piv, piv]) <= 1e-12 * scale:
            # all remaining diagonal entries vanish; bring in an off-diagonal
            pair = next(((i, j) for i in range(k, 3) for j in range(i + 1, 3)
                         if abs(work[i, j]) > 1e-12 * scale), None)
            if pair is not None:
                e = _elementary(pair[1], pair[0], 1)  # col_i += col_j: 2 S_ij on the diagonal
                work = e.T @ work @ e
                h = h @ e
            piv = k + int(np.argmax(np.abs(np.diag(work)[k:])))
        if work[piv, piv] == 0:
            raise linalg.SingularMatrixError("congruence target is singular")
        if piv != k:
            perm = np.eye(3, dtype=complex)
            perm[[k, piv]] = perm[[piv, k]]
            work = perm.T @ work @ perm
            h = h @ perm
        d = work[k, k]
        e = np.eye(3, dtype=complex)
        for i in range(k + 1, 3):
            e[k, i] = -work[k, i] / d
        work = e.T @ work @ e
        h = h @ e
    root = np.diag([1 / cmath.sqrt(work[i, i]) for i in range(3)])
    h = h @ root
    if not np.abs(h.T @ s @ h - np.eye(3)).max() <= CONGRUENCE_TOL * max(1.0, scale):  # NaN fails
        raise linalg.SingularMatrixError("congruence residual too large")
    return h


# the reduction pipeline

def _coord(t: HermitianTriple, slot: str, k: int) -> complex:
    return getattr(t, slot).coords[k]


def _guard(step: str, name: str, value: complex, scale: float):
    if abs(value) <= GENERIC_TOL * max(scale, 1e-300):
        raise NonGenericInput(step, f"{name} below the genericity threshold")
    return value


def _elementary(i: int, j: int, v: complex) -> np.ndarray:
    h = np.eye(3, dtype=complex)
    h[i, j] = v
    return h


def _is_offdiag_zero(t: HermitianTriple, tol: float) -> bool:
    return all(max(abs(z) for z in x.coords) <= tol
               for x in (t.a, t.b, t.c))


def reduce_to_identity(t: HermitianTriple, tol: float = 1e-6,
                       seed: int = 0) -> TransformWord:
    """Word in Spin7 moves and congruences carrying a generic triple to the
    identity; the trailing scalar carries the C* factor of the action."""
    if not isinstance(t.ring, ComplexField):
        raise ValueError("the reduction runs in complex arithmetic")
    if t.level != 3:
        raise ValueError("the reduction runs on level-3 (octonion) points")
    rng = random.Random(seed)
    word = TransformWord()
    state = t
    scale0 = _norm(t)

    if distance_to_identity(t) <= tol:
        word.residual = distance_to_identity(t)
        return word
    # det_cartan(conj t), the cubic the moves keep, of the input over its
    # norm: scale-free, with no cube to overflow or underflow
    u = t.scale(1 / scale0) if scale0 else t
    _guard("input", "det_cartan(conj t)",
           det_cartan(HermitianTriple(_RING, 3, u.lambdas, u.a.conjugate(), u.b.conjugate(),
                                      u.c.conjugate())), 1.0)

    if not _is_offdiag_zero(state, GENERIC_TOL * max(scale0, 1e-300)):
        state = _offdiagonal_pipeline(state, word, rng)

    # final congruence: the state is complex symmetric now
    sc = _norm(state)
    for slot in ("a", "b", "c"):
        imax = max(abs(z) for z in getattr(state, slot).coords[1:])
        if imax > 1e-6 * sc:
            raise NonGenericInput("final congruence", f"imaginary residue in {slot}")
    smat = np.array([[state.lambdas[0], _coord(state, "c", 0), _coord(state, "b", 0)],
                     [_coord(state, "c", 0), state.lambdas[1], _coord(state, "a", 0)],
                     [_coord(state, "b", 0), _coord(state, "a", 0), state.lambdas[2]]],
                    dtype=complex)
    # det(smat) is cubic in the state and leaves the double range near a norm
    # of 1e100; smat is then first brought to unit size by an exact power of two
    p = 1.0 if abs(np.linalg.slogdet(smat)[1]) < 690 else 2.0 ** -math.frexp(sc)[1]
    mu = (1 / np.linalg.det(smat * p)) ** (1 / 3) * p
    word.scale = mu
    try:
        h = symmetric_congruence_to_identity(smat * mu)
    except linalg.SingularMatrixError as exc:
        raise NonGenericInput("final congruence", str(exc)) from exc
    if abs(np.linalg.det(h) + 1) < 0.5:  # det -1: flip a column to land in SL3
        h = h @ np.diag([-1, 1, 1]).astype(complex)
    # scaled after the congruence, in the order replay takes: the residual is
    # then the replayed word's, also where the congruence is ill-conditioned
    state = word.record("final congruence", ("congruence", h),
                        sl3_act(_RING, h, state).scale(mu))
    word.residual = distance_to_identity(state)
    if word.residual > tol:
        raise NonGenericInput("final state",
                              f"replay residual {word.residual:.3e} exceeds {tol:.1e}")
    return word


def _congruence(word: TransformWord, label: str, h: np.ndarray,
                state: HermitianTriple) -> HermitianTriple:
    return word.record(label, ("congruence", h), sl3_act(_RING, h, state))


def _offdiagonal_pipeline(state: HermitianTriple, word: TransformWord,
                          rng: random.Random) -> HermitianTriple:
    """The dressing, then three rounds of scalarize a, kill a, cycle; the
    third stops after its solve (see the module docstring)."""
    pair, h = _dressing()
    # certified on every use, not once in the cache, so that every reduction
    # makes the same calls (a traced benchmark round must repeat its counts)
    state = word.record("dressing", ("spin7", pair.certified()), spin7_act(pair, state))
    state = _congruence(word, "dressing", h, state)
    for r in (1, 2, 3):
        step = f"round {r}: scalarize a"
        move, state, record = stabilizer_solve(state, rng, step, "a", (0,))
        word.solver.append((step, record))
        state = word.record(step, move, state)
        if r == 3:
            break
        step = f"round {r}: kill a"
        lam2 = _guard(step, "lambda2", state.lambdas[1], _norm(state))
        # divided as numpy complex scalars (a reciprocal-scaled Smith quotient,
        # which rounds differently from Python's complex division), so the
        # recorded word does not depend on the scalar type of the state
        state = _congruence(word, step,
                            _elementary(1, 2, -np.complex128(_coord(state, "a", 0)) / lam2),
                            state)
        state = _congruence(word, f"round {r}: cycle", _CYCLE, state)
    return state
