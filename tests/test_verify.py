import pytest

from octjordan import cayley, jordan, symmetry, verify
from octjordan.cayley import basis, random_element
from octjordan.coeffs import PrimeField, derive_rng
from octjordan.verify import (charpoly_factor_check, check_ids,
                              multiplicity_defect, run_suite)

P31 = 2**31 - 1
F = PrimeField(P31)


def test_small_suite_all_pass():
    rep = run_suite(P31, seed=0, trials=3)
    assert rep.all_passed
    assert {r.check_id for r in rep.results} == set(check_ids())
    for r in rep.results:
        assert r.failure_bound < 1e-5


def test_zero_trials_empty_passing_report():
    rep = run_suite(P31, seed=0, trials=0)
    assert rep.all_passed
    assert all(r.trials == 0 for r in rep.results)
    # nothing was tested, so nothing is bounded
    assert all(r.failure_bound == 1.0 for r in rep.results)


def test_check_subset_and_unknown():
    rep = run_suite(P31, seed=0, trials=2, checks=["c6", "C7"])
    assert [r.check_id for r in rep.results] == ["C6", "C7"]
    with pytest.raises(ValueError):
        run_suite(P31, seed=0, trials=1, checks=["c99"])
    with pytest.raises(ValueError, match="no check selected"):
        run_suite(P31, seed=0, trials=1, checks=[])


def test_prime_must_exceed_identity_degrees():
    with pytest.raises(ValueError):
        run_suite(23, seed=0, trials=1)


def _strip_timing(rep):
    rep["elapsed_sec"] = 0
    for c in rep["checks"]:
        c["elapsed_sec"] = 0
    return rep


def test_determinism():
    a = _strip_timing(run_suite(P31, seed=5, trials=2, checks=["c6"]).to_json_dict())
    b = _strip_timing(run_suite(P31, seed=5, trials=2, checks=["c6"]).to_json_dict())
    assert a == b


def test_parallel_matches_serial():
    serial = _strip_timing(run_suite(P31, seed=2, trials=2,
                                     checks=["c3", "c6", "c10"]).to_json_dict())
    parallel = _strip_timing(run_suite(P31, seed=2, trials=2,
                                       checks=["c3", "c6", "c10"],
                                       jobs=3).to_json_dict())
    assert serial == parallel


def test_flipped_phi_sign_fails_c6_at_trial_one(monkeypatch):
    # mutation sanity: a wrong phi convention must trip the det oracle
    true_sodm = jordan.s_odm

    def bad_sodm(t):
        r = t.ring
        d = jordan.det_cartan(t)
        ph = cayley.phi(t.c, t.b, t.a)
        asq = cayley.associator(t.c, t.b, t.a).norm_sq()
        return r.reduce(d * d + r.from_int(4) * (ph * d) - asq)

    monkeypatch.setattr(verify, "s_odm", bad_sodm)
    rep = run_suite(P31, seed=0, trials=3, checks=["c6"])
    assert not rep.all_passed
    assert "trial 0" in rep.results[0].detail
    monkeypatch.setattr(verify, "s_odm", true_sodm)


def test_multiplicity_defect_unit_triple():
    e1 = basis(F, 3, 0)
    assert multiplicity_defect(e1, e1, e1) == 0  # operator is exactly 2 I


def test_multiplicity_defect_generic_and_real():
    rng = derive_rng(0, "mult")
    ranks = [multiplicity_defect(*(random_element(F, 3, rng) for _ in range(3)))
             for _ in range(25)]
    assert all(r <= 4 for r in ranks)
    assert ranks.count(4) >= 24  # generic value
    a_real = cayley.embed_scalar(F, 3, F.random(rng))
    b = random_element(F, 3, rng)
    c = random_element(F, 3, rng)
    assert multiplicity_defect(a_real, b, c) <= 4


def test_charpoly_unit_point():
    e1 = basis(F, 3, 0)
    # both sides reduce to (kappa - 2)^8
    for kv in (0, 1, 17, P31 - 3):
        ok, msg = charpoly_factor_check(e1, e1, e1, kv)
        assert ok, msg


def test_charpoly_b_zero():
    rng = derive_rng(0, "cpz")
    a, c = random_element(F, 3, rng), random_element(F, 3, rng)
    z = cayley.zero(F, 3)
    ok, msg = charpoly_factor_check(a, z, c, F.random(rng))
    assert ok, msg  # both sides are kappa^8


def test_charpoly_random():
    rng = derive_rng(0, "cpr")
    for _ in range(10):
        a, b, c = (random_element(F, 3, rng) for _ in range(3))
        ok, msg = charpoly_factor_check(a, b, c, F.random(rng))
        assert ok, msg


def test_charpoly_fails_on_a_wrong_exponent(monkeypatch):
    # det = quad^2 matches the quadratic with the wrong exponent: a false identity
    rng = derive_rng(0, "cpw")
    a, b, c = (random_element(F, 3, rng) for _ in range(3))
    kv = F.random(rng)
    re_cab = (c * (a * b)).real_part()
    re_cba = (c * (b * a)).real_part()
    quad = F.reduce((kv - 2 * re_cab) * (kv - 2 * re_cba)
                    - cayley.associator(c, b, a).norm_sq())
    true_dets = []
    det = verify.linalg.det

    def squared(ring, m):
        true_dets.append(det(ring, m))
        return pow(quad, 2, P31)

    monkeypatch.setattr(verify.linalg, "det", squared)
    ok, msg = charpoly_factor_check(a, b, c, kv)
    assert not ok and "fourth power" in msg
    assert true_dets == [pow(quad, 4, P31)] and quad not in (0, 1, P31 - 1)


def test_c9_redraws_a_singular_congruence(monkeypatch):
    # at p=29, seed 0, trial 72 of C9 draws a singular H first; the trial
    # must redraw it and still test the covariances
    calls = []
    sl3_act = symmetry.sl3_act

    def counting(*args):
        calls.append(1)
        return sl3_act(*args)

    monkeypatch.setattr(symmetry, "sl3_act", counting)
    verify._c9_sl3_and_ratios(PrimeField(29), derive_rng(0, "C9", 72))
    assert calls
