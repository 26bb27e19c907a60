import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octjordan import cayley, reduce, symmetry
from octjordan.cayley import AlgebraElement
from octjordan.coeffs import ComplexField
from octjordan.jordan import (HermitianTriple, diagonal_triple,
                              identity_triple, unflatten)
from octjordan.reduce import (NonGenericInput, chart_pair, distance_to_identity,
                              expm, move_c_to_plane, random_generic_triple,
                              reduce_to_identity, replay, stabilizer_solve,
                              symmetric_congruence_to_identity)
from octjordan.symmetry import LiftError, TrialityTriple, triality_defect

C = ComplexField()


def test_identity_input_empty_word():
    word = reduce_to_identity(identity_triple(C, 3))
    assert word.moves == [] and word.residual == 0.0 and word.scale == 1


def test_diagonal_input_single_congruence():
    t = diagonal_triple(C, 3, 2 + 1j, -0.5 + 0.2j, 1.5 - 0.3j)
    word = reduce_to_identity(t)
    assert len(word.moves) == 1
    assert word.moves[0][0] == "congruence"
    assert word.residual <= 1e-9
    final = replay(word, t)
    assert distance_to_identity(final) <= 1e-9


def test_symmetric_congruence_identity_and_diagonal():
    h = symmetric_congruence_to_identity(np.eye(3, dtype=complex))
    assert np.linalg.norm(h - np.eye(3)) < 1e-12
    s = np.diag([4, 1, 1]).astype(complex)
    h = symmetric_congruence_to_identity(s)
    assert np.linalg.norm(h.T @ s @ h - np.eye(3)) < 1e-12
    assert np.linalg.norm(np.abs(h) - np.diag([0.5, 1, 1])) < 1e-12


def test_symmetric_congruence_random():
    rng = random.Random(3)
    for _ in range(20):
        g = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                       for _ in range(3)] for _ in range(3)])
        s = g + g.T
        if abs(np.linalg.det(s)) < 1e-3:
            continue
        h = symmetric_congruence_to_identity(s)
        scale = np.max(np.abs(s))
        assert np.max(np.abs(h.T @ s @ h - np.eye(3))) <= 1e-9 * max(1.0, scale)


def test_symmetric_congruence_zero_diagonal_pivots():
    # all-zero diagonal forces the off-diagonal congruence trick
    s = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=complex)
    h = symmetric_congruence_to_identity(s)
    assert np.max(np.abs(h.T @ s @ h - np.eye(3))) < 1e-9


def test_symmetric_congruence_singular_raises():
    from octjordan.linalg import SingularMatrixError
    with pytest.raises(SingularMatrixError):
        symmetric_congruence_to_identity(np.zeros((3, 3), dtype=complex))


def test_move_c_to_plane():
    rng = random.Random(5)
    t = random_generic_triple(rng)
    (kind, trip), moved, record = move_c_to_plane(t, rng, "c to plane", target=1)
    assert kind == "spin7" and trip.defect() <= 1e-10
    assert max(abs(z) for z in moved.c.coords[2:]) <= 1e-9
    # T2 fixes e_1: the real part of c stays
    assert abs(moved.c.coords[0] - t.c.coords[0]) <= 1e-12 * abs(t.c.coords[0])
    assert record.iterations >= 1 and record.restarts == 0
    # c already in the plane: the move is near-trivial on c
    _, again, _ = move_c_to_plane(moved, rng, "again", target=1)
    assert max(abs(z) for z in again.c.coords[2:]) <= 1e-9
    # real c is accepted at once: identity move
    real_c = HermitianTriple(C, 3, t.lambdas, t.a, t.b,
                             cayley.embed_scalar(C, 3, 0.7 + 0.1j))
    (_, trip3), unchanged, record3 = move_c_to_plane(real_c, rng, "real", target=1)
    assert np.array_equal(trip3.t1, np.eye(8)) and np.array_equal(trip3.t2, np.eye(8))
    assert unchanged == real_c
    assert (record3.iterations, record3.restarts) == (0, 0)


def test_move_c_isotropic_raises():
    rng = random.Random(6)
    t = random_generic_triple(rng)
    iso = AlgebraElement(C, 3, (0.3 + 0j, 1 + 0j, 1j, 0j, 0j, 0j, 0j, 0j))
    bad = HermitianTriple(C, 3, t.lambdas, t.a, t.b, iso)
    with pytest.raises(NonGenericInput) as info:
        move_c_to_plane(bad, rng, "isotropic c", target=1)
    assert info.value.step == "isotropic c"


def test_stabilizer_solve_already_satisfied():
    rng = random.Random(7)
    t = random_generic_triple(rng)
    in_span = AlgebraElement(C, 3, (0.4 - 0.1j, 0.9 + 0.3j, 0j, 0j, 0j, 0j, 0j, 0j))
    t = HermitianTriple(C, 3, t.lambdas, in_span, t.b, t.c)
    move, moved, record = stabilizer_solve(t, rng, "already satisfied", "a", (0, 1))
    # zero chart parameters are accepted at iteration 0: the move is trivial
    assert np.linalg.norm(np.abs(move[1].t1) - np.eye(8)) < 1e-9
    assert (record.iterations, record.restarts) == (0, 0)
    assert max(abs(z) for z in moved.a.coords[2:]) <= 1e-9


def test_stabilizer_solve_pair_condition():
    rng = random.Random(8)
    t = random_generic_triple(rng)
    move, moved, record = stabilizer_solve(t, rng, "steer to plane", "a", (1, 6),
                                           steer=(1, 6))
    trip = move[1]
    assert trip.defect() <= 1e-10
    # T2 sends e2 to e7 exactly
    assert np.linalg.norm(trip.t2[:, 1] - np.eye(8)[:, 6]) < 1e-9
    banned = [k for k in range(8) if k not in (1, 6)]
    img = trip.t1 @ np.array(t.a.coords)
    assert max(abs(img[k]) for k in banned) <= 1e-8


def test_full_reduction_replay_soundness():
    rng = random.Random(9)
    for trial in range(3):
        t = random_generic_triple(rng)
        word = reduce_to_identity(t, tol=1e-6, seed=trial)
        assert word.residual <= 1e-6
        final = replay(word, t)
        assert abs(distance_to_identity(final) - word.residual) <= 1e-9
        for (kind, payload) in word.moves:
            if kind == "spin7":
                assert payload.defect() <= 1e-10
        assert len(word.intermediates) == len(word.moves)


def test_reduction_determinism():
    rng = random.Random(10)
    t = random_generic_triple(rng)
    w1 = reduce_to_identity(t, seed=3).to_json_dict()
    w2 = reduce_to_identity(t, seed=3).to_json_dict()
    assert w1 == w2


def test_reduction_milestone_shapes():
    rng = random.Random(11)
    t = random_generic_triple(rng)
    word = reduce_to_identity(t, seed=0)
    # after scalarize a: both the a and c slots are real scalars
    idx = word.steps.index("scalarize a")
    state = unflatten(C, 3, word.intermediates[idx])
    sc = max(np.linalg.norm(word.intermediates[idx]), 1.0)
    assert max(abs(z) for z in state.c.coords[1:]) <= 1e-8 * sc
    assert max(abs(z) for z in state.a.coords[1:]) <= 1e-8 * sc
    # the last pipeline state has b = c = 0 and a complex
    state = unflatten(C, 3, word.intermediates[-2])
    assert max(abs(z) for z in state.c.coords) <= 1e-8 * sc
    assert max(abs(z) for z in state.b.coords) <= 1e-8 * sc
    assert max(abs(z) for z in state.a.coords[1:]) <= 1e-8 * sc


def test_non_generic_inputs_raise_with_step():
    rng = random.Random(12)
    t = random_generic_triple(rng)
    # real c: the degenerate branch leaves r2 = 0, which the guard names
    bad = HermitianTriple(C, 3, t.lambdas, t.a, t.b,
                          cayley.embed_scalar(C, 3, 0.8 + 0.2j))
    with pytest.raises(NonGenericInput) as info:
        reduce_to_identity(bad)
    assert "r2" in str(info.value)
    # a = 0 defeats the pairing arrangement
    bad = HermitianTriple(C, 3, t.lambdas, cayley.zero(C, 3), t.b, t.c)
    with pytest.raises(NonGenericInput) as info:
        reduce_to_identity(bad)
    assert "pairing" in str(info.value)


def test_pipeline_spin7_moves_preserve_twisted_invariants():
    # the spin7 moves of the word leave both twisted invariants unchanged;
    # congruence moves mixing the third row into the others do not admit a
    # point-independent multiplier, so only the group moves are checked
    from octjordan.jordan import twisted_cubic, twisted_sextic
    from octjordan.reduce import apply_move
    rng = random.Random(14)
    t = random_generic_triple(rng)
    word = reduce_to_identity(t, seed=0)
    x = t
    checked = 0
    for move in word.moves:
        before = (twisted_cubic(x), twisted_sextic(x))
        x = apply_move(move, x)
        if move[0] != "spin7":
            continue
        after = (twisted_cubic(x), twisted_sextic(x))
        for b, a in zip(before, after):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))
        checked += 1
    assert checked >= 4


def test_transform_word_json_shape():
    rng = random.Random(13)
    t = random_generic_triple(rng)
    word = reduce_to_identity(t, seed=0)
    d = word.to_json_dict()
    assert len(d["moves"]) == len(word.moves)
    kinds = {m["kind"] for m in d["moves"]}
    assert kinds == {"spin7", "congruence"}
    for m in d["moves"]:
        if m["kind"] == "congruence":
            assert len(m["h"]) == 3 and "det" in m
        else:
            assert len(m["t1"]) == 8 and len(m["t2"]) == 8
    assert isinstance(d["residual"], float) and len(d["scale"]) == 2
    # one Gauss-Newton record per stabilizer_solve step, in word order
    solver = d["solver"]
    solved = [s for s in word.steps if s in {r["step"] for r in solver}]
    assert [r["step"] for r in solver] == solved and len(solver) >= 3
    for r in solver:
        assert set(r) == {"step", "iterations", "restarts", "residual"}
        assert isinstance(r["iterations"], int) and r["iterations"] >= 0
        assert isinstance(r["restarts"], int) and 0 <= r["restarts"] < reduce.GN_RESTARTS
        assert isinstance(r["residual"], float) and 0 <= r["residual"] <= 1e-8


def _octonion(v):
    return AlgebraElement(C, 3, tuple(complex(z) for z in v))


@pytest.mark.parametrize("fixed", [None, 1, 6])
def test_chart_pairs_are_infinitesimal_triality_pairs(fixed):
    # A1(e_i) e_j + e_i A2(e_j) = A1(e_i e_j), by octonion products
    a1, a2 = chart_pair(fixed)
    assert a1.shape == a2.shape == (21 if fixed is None else 15, 8, 8)
    eye = np.eye(8)
    for g1, g2 in zip(a1, a2):
        assert np.array_equal(g2, -g2.T)
        assert not g2[0].any() and not g2[:, 0].any()
        if fixed is not None:
            assert not g2[fixed].any() and not g2[:, fixed].any()
        for i in range(8):
            for j in range(8):
                ei, ej = _octonion(eye[i]), _octonion(eye[j])
                lhs = _octonion(g1 @ eye[i]) * ej + ei * _octonion(g2 @ eye[j])
                rhs = g1 @ np.array((ei * ej).coords)
                assert np.max(np.abs(np.array(lhs.coords) - rhs)) <= 1e-14


def _complex_skew(rng, norm):
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    a = g - g.T
    return a * (norm / np.linalg.norm(a, 2))


@pytest.mark.parametrize("norm", [0.01, 0.3, 1.0, 4.0, 10.0])
def test_expm_group_identities_on_complex_skew(norm):
    rng = np.random.default_rng(int(norm * 100))
    eye = np.eye(8)
    for _ in range(10):
        a = _complex_skew(rng, norm)
        e = expm(a)
        tol = 1e-12 * max(1.0, np.linalg.norm(e, 2)) ** 2
        assert np.max(np.abs(e @ expm(-a) - eye)) <= tol
        assert np.max(np.abs(expm(2 * a) - e @ e)) <= 4 * tol
        assert np.max(np.abs(e.T @ e - eye)) <= tol


def test_expm_closed_forms():
    assert np.array_equal(expm(np.zeros((8, 8), dtype=complex)), np.eye(8))
    for t in (0.1, 1.0, 2.5, 7.0):
        rot = expm(np.array([[0, -t], [t, 0]], dtype=complex))
        want = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        assert np.max(np.abs(rot - want)) <= 1e-14
        diag = expm(np.diag([1j * t, -t]))
        assert np.max(np.abs(diag - np.diag([cmath.exp(1j * t), math.exp(-t)]))) <= 1e-14
    bad = np.zeros((8, 8), dtype=complex)
    bad[1, 2] = np.inf
    assert np.isnan(expm(bad)).all()


@pytest.mark.parametrize("fixed", [None, 6])
def test_exponentiated_chart_pairs_are_triality_pairs(fixed):
    a1, a2 = chart_pair(fixed)
    rng = random.Random(21)
    for _ in range(20):
        theta = np.array([complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5))
                          for _ in range(len(a2))])
        t1 = expm(np.tensordot(theta, a1, 1))
        t2 = expm(np.tensordot(theta, a2, 1))
        assert triality_defect(C, t1, t2) <= 1e-12
        assert np.max(np.abs(t2[:, 0] - np.eye(8)[0])) <= 1e-12
        if fixed is not None:
            assert np.max(np.abs(t2[:, fixed] - np.eye(8)[fixed])) <= 1e-12


@pytest.mark.parametrize("steer, allowed, most", [((1, 6), (1, 6), 1), (None, (0,), 0)])
def test_stabilizer_solve_lifts_at_most_once(monkeypatch, steer, allowed, most):
    calls = []
    lift = symmetry.fast_right_companion

    def counted(ring, t2):
        calls.append(1)
        return lift(ring, t2)

    monkeypatch.setattr(symmetry, "fast_right_companion", counted)
    t = random_generic_triple(random.Random(15))
    move, moved, record = stabilizer_solve(t, random.Random(0), "counted", "a", allowed,
                                           steer=steer)
    assert len(calls) <= most
    assert record.iterations >= 1 and record.residual <= 1e-10 * np.linalg.norm(t.a.coords)


def test_stabilizer_solve_restarts_after_a_failed_certificate(monkeypatch):
    # a LiftError from the certificate of the accepted pair fails that start only
    failures = []
    certified = TrialityTriple.certified

    def flaky(self):
        if not failures:
            failures.append(1)
            raise LiftError("forced")
        return certified(self)

    monkeypatch.setattr(TrialityTriple, "certified", flaky)
    t = random_generic_triple(random.Random(16))
    move, moved, record = stabilizer_solve(t, random.Random(0), "flaky", "a", (0,))
    assert failures and record.restarts == 1
    assert move[1].defect() <= 1e-10


def test_full_reduction_lifts_nothing(monkeypatch):
    # every Spin7 move of the word is a product of chart-pair exponentials
    calls = []
    lift = symmetry.fast_right_companion

    def counted(ring, t2):
        calls.append(1)
        return lift(ring, t2)

    monkeypatch.setattr(symmetry, "fast_right_companion", counted)
    t = random_generic_triple(random.Random(18))
    word = reduce_to_identity(t, tol=1e-6, seed=0)
    assert word.residual <= 1e-6 and calls == []
    # both c-moves are solved, and recorded in the transcript's solver list
    solved = [label for label, _ in word.solver]
    assert "c to (1,i) plane" in solved and "b-octonion to (1,i) plane" in solved


@pytest.mark.parametrize("steer", [(1, 6), (6, 1), (2, 5)])
def test_quarter_turn_base_steers_exactly(steer):
    t1, t2 = reduce._quarter_turn(*steer)
    assert triality_defect(C, t1, t2) <= 1e-14
    src, dst = steer
    assert np.max(np.abs(t2[:, src] - np.eye(8)[dst])) <= 1e-15
    assert np.max(np.abs(t2[:, 0] - np.eye(8)[0])) <= 1e-15


def test_ill_conditioned_reflection_pair_does_not_escape_as_lift_error():
    # draw 172 of this stream once aborted: its c-move was a reflection pair
    # whose complex lift certificate read 1.26e-9, above LIFT_TOL.  The
    # c-moves are chart-pair exponentials now, and the draw reduces.
    rng = random.Random(77)
    for d in range(173):
        s = 10 ** rng.uniform(-1, 6) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        pt = random_generic_triple(rng).scale(s)
    word = reduce_to_identity(pt, tol=1e-6, seed=172)
    assert distance_to_identity(replay(word, pt)) <= 1e-6
    for kind, payload in word.moves:
        if kind == "spin7":
            assert payload.defect() <= 1e-10


@settings(derandomize=True, deadline=None, max_examples=60)
@given(k=st.integers(0, 9), log10_s=st.floats(-6, 6), phase=st.floats(0, 2 * math.pi))
def test_reduction_is_homogeneous_in_the_input_scale(k, log10_s, phase):
    t = random_generic_triple(random.Random(k)).scale(10 ** log10_s * cmath.exp(1j * phase))
    word = reduce_to_identity(t, tol=1e-6, seed=0)
    assert distance_to_identity(replay(word, t)) <= 1e-6
    for kind, payload in word.moves:
        if kind == "spin7":
            assert payload.defect() <= 1e-10


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
def test_final_congruence_imaginary_residue_guard_is_scale_free(monkeypatch, s):
    # a state left by the pipeline with an imaginary residue of relative size 1e-3
    monkeypatch.setattr(reduce, "_offdiagonal_pipeline", lambda state, word, rng: state)
    a = AlgebraElement(C, 3, (0.5 + 0j, 1e-3j) + (0j,) * 6)
    t = HermitianTriple(C, 3, (1 + 0j, 2 + 0j, 3 + 0j), a,
                        cayley.zero(C, 3), cayley.zero(C, 3)).scale(s)
    with pytest.raises(NonGenericInput) as info:
        reduce_to_identity(t)
    assert info.value.step == "final congruence"
