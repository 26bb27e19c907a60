"""Constructive prehomogeneity: carry a generic point of J3(O) to the identity.

The reduction follows the orbit argument step by step: alternate Spin7
moves and 3x3 congruences until the triple is complex symmetric, then
finish with one congruence onto the identity matrix.  Triality is a
Lie-algebra isomorphism, so each skew generator of the chart for T2 has a
closed-form partner for T1 (chart_pair), and every Spin7 move is a product
of exponentials of these pairs: a genuine group element, with no triality
lift anywhere.  The moves are found by Gauss-Newton on the group
(stabilizer_solve), whose Jacobian is exact in these coordinates: T1
places a, or T2 places c (move_c_to_plane), in a coordinate plane,
optionally while T2 steers one basis direction to another.  The one
exception is a random element of the stabilizer of c, drawn when a needs
rearranging.

Every denominator of the pipeline (r2, r3, lambda2, r7, the half-space
pairings) is guarded by a threshold relative to the norm of the current
state, so the guards, like the action, commute with scaling the input by
any nonzero complex number; a generic input never trips them, and a
degenerate one aborts with the violated quantity named rather than
limping on.  The emitted word is self-certifying: replaying
it on the input must reproduce the identity up to the requested
tolerance.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import cayley, linalg, symmetry
from .cayley import AlgebraElement
from .coeffs import ComplexField
from .jordan import HermitianTriple, identity_triple
from .symmetry import TrialityTriple, sl3_act, spin7_act

GENERIC_TOL = 1e-8      # relative threshold on every proof denominator
GN_TOL = 1e-10
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

    def record(self, label: str, move, state: HermitianTriple):
        self.moves.append(move)
        self.steps.append(label)
        self.intermediates.append(list(state.flatten()))

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


# Gauss-Newton on the group, in the Lie algebra of the stabilizer chart.

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
def chart_pair(fixed: int | None) -> tuple:
    """Infinitesimal triality pairs (A1_k, A2_k) over the stabilizer chart.

    A2_k runs over the skew generators E_ij (entry [i, j] = 1, [j, i] = -1)
    with 1 <= i < j <= 7 and i, j != fixed, so exp(A2) fixes e_1 and
    e_{fixed+1}.  Linearizing T1(x) T2(y) = T1(xy) at the identity gives
    A1(x) y + x A2(y) = A1(xy), solved by A1 = A2 + L_u with
    u = 1/2 sum theta_ij e_i e_j; for E_ij that is
    A1 = E_ij + 1/2 sign_ij L_{e_k} where e_i e_j = sign_ij e_k.  Hence
    (exp(sum d_k A1_k), exp(sum d_k A2_k)) is a triality pair for every
    complex d.  Returns two read-only (n, 8, 8) stacks.
    """
    rows, cols = np.array([(i, j) for i in range(1, 8) for j in range(i + 1, 8)
                           if fixed not in (i, j)]).T
    k = np.arange(rows.size)
    a2 = np.zeros((rows.size, 8, 8))
    a2[k, rows, cols] = 1
    a2[k, cols, rows] = -1
    lu = cayley.left_basis_matrices(3)[symmetry._INDEX[rows, cols]]
    a1 = a2 + 0.5 * symmetry._SIGN[rows, cols][:, None, None] * lu
    a1.flags.writeable = False
    a2.flags.writeable = False
    return a1, a2


def _exp_pair(theta: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> tuple:
    return expm(np.tensordot(theta, a1, 1)), expm(np.tensordot(theta, a2, 1))


def _random_stabilizer_move(rng: random.Random, fixed: int) -> TrialityTriple:
    """Random Spin7 element whose T2 fixes e1 and the given basis direction."""
    a1, a2 = chart_pair(fixed)
    for _ in range(16):
        theta = np.array([complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5))
                          for _ in range(len(a2))])
        try:
            return TrialityTriple(_RING, *_exp_pair(theta, a1, a2)).certified()
        except symmetry.LiftError:
            continue
    raise NonGenericInput("stabilizer rerandomization", "no usable stabilizer element")


@dataclass(frozen=True)
class SolveRecord:
    """How a stabilizer_solve call converged."""

    iterations: int     # Gauss-Newton steps, summed over every start
    restarts: int       # starts abandoned before the accepted one
    residual: float     # norm of the accepted residual


def _quarter_turn(src: int, dst: int) -> tuple:
    """exp(theta (A1_k, A2_k)) for the chart generator k on the coordinate
    plane of e_{src+1} and e_{dst+1}, with theta = -pi/2 when src < dst and
    pi/2 otherwise, so that T2 sends e_{src+1} to e_{dst+1}."""
    a1, a2 = chart_pair(None)
    k = int(np.argmax(a2[:, min(src, dst), max(src, dst)]))
    theta = -math.pi / 2 if src < dst else math.pi / 2
    return expm(complex(theta) * a1[k]), expm(complex(theta) * a2[k])


def stabilizer_solve(t: HermitianTriple, rng: random.Random, step: str,
                     slot: str, span_allowed, steer: tuple | None = None):
    """Find a Spin7 element that sends the octonion in the given slot into
    the designated coordinate plane, optionally while T2 maps one basis
    direction to another.

    The a slot is placed by T1 and the c slot by T2; the other matrix of
    the pair follows.  steer = (i, j) maps basis direction e_{i+1} to
    e_{j+1} under T2: the base pair is the quarter turn of the chart
    generator on that plane, and every move after it is a left
    multiplication by the chart stabilizing e_1 and e_{j+1} (15
    dimensions; 21 and the identity base when unconstrained), so the
    constraint holds exactly.  The placement (T w)[banned] = 0 is solved by
    damped Gauss-Newton on the group with the left retraction
    (T1, T2) <- (exp(sum d_k A1_k) T1, exp(sum d_k A2_k) T2) of chart_pair,
    whose Jacobian column k is exactly (A_k T w)[banned] for the placing
    side; random restarts begin at exp(theta A) applied to the base pair.
    The accepted pair is certified.  Returns (move, moved triple,
    SolveRecord).
    """
    # ga, base_a: the side placing the slot (T1 for a, T2 for c); gb, base_b: the other
    ga, gb = chart_pair(None if steer is None else steer[1])
    base_a = base_b = np.eye(8, dtype=complex)
    if steer is not None:
        base_a, base_b = _quarter_turn(*steer)
    if slot == "c":
        ga, gb, base_a, base_b = gb, ga, base_b, base_a
    w = np.array(getattr(t, slot).coords, dtype=complex)
    banned = [k for k in range(8) if k not in span_allowed]
    tol = GN_TOL * float(np.linalg.norm(w))
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for restart in range(GN_RESTARTS):
            if restart == 0:
                ta, tb = base_a, base_b
            else:
                spread = 0.4 + 0.2 * (restart % 3)
                theta = np.array([complex(rng.gauss(0, spread), rng.gauss(0, spread))
                                  for _ in range(len(ga))])
                ea, eb = _exp_pair(theta, ga, gb)
                ta, tb = ea @ base_a, eb @ base_b
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
    the identity move.  Returns (move, moved triple, SolveRecord).
    """
    return stabilizer_solve(t, rng, step, "c", (0, target))


def symmetric_congruence_to_identity(s: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """H with H^T S H = I for nondegenerate complex symmetric 3x3 S.

    Successive completion of squares with pivot permutation; square roots
    on the principal branch.
    """
    s = np.array(s, dtype=complex)
    if s.shape != (3, 3) or np.max(np.abs(s - s.T)) > tol * max(1.0, np.max(np.abs(s))):
        raise ValueError("expected a symmetric 3x3 matrix")
    scale = max(float(np.max(np.abs(s))), 1e-300)
    if abs(np.linalg.det(s)) <= 1e-10 * scale ** 3:
        raise linalg.SingularMatrixError("congruence target is numerically singular")
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
    if np.max(np.abs(h.T @ s @ h - np.eye(3))) > tol * max(1.0, scale):
        raise linalg.SingularMatrixError("congruence residual too large")
    return h


# the reduction pipeline

def _coord(t: HermitianTriple, slot: str, k: int) -> complex:
    return getattr(t, slot).coords[k]


def _guard(step: str, name: str, value: complex, scale: float):
    if abs(value) <= GENERIC_TOL * max(scale, 1e-300):
        raise NonGenericInput(step, f"{name} below the genericity threshold")
    return value


def _halves(x: AlgebraElement):
    s = cayley.split(x)
    return (np.array(s.x0.coords[:4], dtype=complex),
            np.array(s.x1.coords[:4], dtype=complex))


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
    rng = random.Random(seed)
    word = TransformWord()
    state = t
    scale0 = _norm(t)

    if distance_to_identity(t) <= tol:
        word.residual = distance_to_identity(t)
        return word

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
    dets = np.linalg.det(smat)
    _guard("final congruence", "det of the symmetric state", dets, sc ** 3)
    mu = (1 / dets) ** (1 / 3)
    word.scale = mu
    state = state.scale(mu)
    smat = smat * mu
    h = symmetric_congruence_to_identity(smat)
    if abs(np.linalg.det(h) + 1) < 0.5:  # det -1: flip a column to land in SL3
        h = h @ np.diag([-1, 1, 1]).astype(complex)
    state = _congruence(word, "final congruence", h, state)
    word.residual = distance_to_identity(state)
    if word.residual > tol:
        raise NonGenericInput("final state",
                              f"replay residual {word.residual:.3e} exceeds {tol:.1e}")
    return word


def _apply_and_record(word: TransformWord, label: str, move, state) -> HermitianTriple:
    word.record(label, move, state)
    return state


def _congruence(word: TransformWord, label: str, h: np.ndarray,
                state: HermitianTriple) -> HermitianTriple:
    return _apply_and_record(word, label, ("congruence", h), sl3_act(_RING, h, state))


def _solve_and_record(word: TransformWord, label: str, solve, state: HermitianTriple,
                      rng: random.Random, *args, **kwargs) -> HermitianTriple:
    move, state, record = solve(state, rng, label, *args, **kwargs)
    word.solver.append((label, record))
    return _apply_and_record(word, label, move, state)


def _offdiagonal_pipeline(state: HermitianTriple, word: TransformWord,
                          rng: random.Random) -> HermitianTriple:
    # step 1: rotate c into span(e1, i)
    state = _solve_and_record(word, "c to (1,i) plane", move_c_to_plane, state, rng)
    sc = _norm(state)
    r1 = _guard("c to (1,i) plane", "r1 = Re(c)", _coord(state, "c", 0), sc)
    r2 = _guard("c to (1,i) plane", "r2 = i-part of c", _coord(state, "c", 1), sc)

    # arrange the half-space pairing <conj(c) half, l-half of a> to be nonzero;
    # the stabilizer of c still acts freely on a if a rerandomization is needed
    for attempt in range(8):
        a0, a1 = _halves(state.a)
        cbar_half = np.array([r1, -r2, 0, 0], dtype=complex)
        pairing = complex(cbar_half @ a1)
        if abs(pairing) > GENERIC_TOL * sc and np.max(np.abs(a0)) > GENERIC_TOL * sc \
                and np.max(np.abs(a1)) > GENERIC_TOL * sc:
            break
        trip = _random_stabilizer_move(rng, fixed=1)  # keeps c = r1 + r2 i in place
        state = spin7_act(trip, state)
        state = _apply_and_record(word, "rearrange a in the c stabilizer",
                                  ("spin7", trip), state)
        sc = _norm(state)
        r1, r2 = _coord(state, "c", 0), _coord(state, "c", 1)
    else:
        raise NonGenericInput("pairing arrangement",
                              "<conj(c), a_1> pairing stayed below the genericity threshold")

    # step 2: congruence making the two quaternion halves of a orthogonal
    q = complex(a0 @ a1) / pairing
    state = _congruence(word, "orthogonalize a halves", _elementary(0, 2, -q), state)

    # step 3: steer c to span(1, n) while T1 puts a into span(i, n)
    state = _solve_and_record(word, "pair-steer c to n, a to (i,n)", stabilizer_solve,
                              state, rng, "a", (1, 6), steer=(1, 6))
    sc = _norm(state)
    r2 = _guard("pair-steer", "r2 = n-part of c", _coord(state, "c", 6), sc)
    r4 = _coord(state, "a", 6)

    # step 4: congruence killing the n-component of a
    state = _congruence(word, "kill n-part of a", _elementary(0, 2, r4 / r2), state)
    sc = _norm(state)
    r3 = _guard("kill n-part of a", "r3 = i-part of a", _coord(state, "a", 1), sc)

    # step 5: steer c back to span(1, i) keeping a in span(1, i)
    state = _solve_and_record(word, "steer c back keeping a in (1,i)", stabilizer_solve,
                              state, rng, "a", (0, 1), steer=(6, 1))
    sc = _norm(state)
    r2 = _coord(state, "c", 1)
    r3 = _guard("steer c back", "r3 = i-part of a", _coord(state, "a", 1), sc)

    # step 6: congruence making c real
    state = _congruence(word, "make c real", _elementary(2, 0, r2 / r3), state)
    sc = _norm(state)
    if max(abs(z) for z in state.c.coords[1:]) > 1e-6 * sc:
        raise NonGenericInput("make c real", "imaginary residue of c")

    # step 7: T1 sends a to a complex scalar (c real is T2-invariant)
    state = _solve_and_record(word, "scalarize a", stabilizer_solve, state, rng, "a", (0,))
    sc = _norm(state)
    r6 = _coord(state, "c", 0)
    r7 = _guard("scalarize a", "r7 = Re(a)", _coord(state, "a", 0), sc)
    _guard("scalarize a", "lambda2", state.lambdas[1], sc)

    # step 8: kill c, then a, then push the octonion in b to the c slot
    state = _congruence(word, "kill c", _elementary(2, 0, -r6 / r7), state)
    # divided as numpy complex scalars (a reciprocal-scaled Smith quotient,
    # which rounds differently from Python's complex division), so the
    # recorded word does not depend on the scalar type of the state
    h = _elementary(1, 2, -np.complex128(_coord(state, "a", 0)) / state.lambdas[1])
    state = _congruence(word, "kill a", h, state)
    h = np.array([[-1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    state = _congruence(word, "swap b into the c slot", h, state)

    # step 9: rotate the remaining octonion into span(1, i)
    state = _solve_and_record(word, "b-octonion to (1,i) plane", move_c_to_plane, state, rng)

    # step 10: permute it into the a slot
    h = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=complex)
    state = _congruence(word, "swap into the a slot", h, state)

    # step 11: T1 scalarizes the last octonion
    sc = _norm(state)
    if max(abs(z) for z in state.a.coords[1:]) > GENERIC_TOL * sc:
        state = _solve_and_record(word, "scalarize the last octonion", stabilizer_solve,
                                  state, rng, "a", (0,))
    return state
