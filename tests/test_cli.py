import json
import random

import pytest

from octjordan import reduce
from octjordan.cli import main
from octjordan.coeffs import ComplexField, PrimeField
from octjordan.jordan import HermitianTriple, identity_triple, random_triple, triple_to_json
from octjordan.reduce import random_generic_triple
from octjordan.symmetry import sl3_act, spin7_act

P31 = 2**31 - 1
P80 = 1208925819614629174706189   # the least prime above 2^80


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass_and_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--prime", str(P31), "--seed", "0",
                       "--trials", "2", "--checks", "c6,c7")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_passed"] is True
    assert [c["id"] for c in rep["checks"]] == ["C6", "C7"]
    assert all(c["failure_bound"] < 1e-5 for c in rep["checks"])


def test_verify_rejects_bad_prime(capsys):
    code, _, err = run(capsys, "verify", "--prime", "360", "--trials", "1")
    assert code == 2
    assert "prime" in err


def test_verify_and_autdim_run_past_int64(capsys):
    code, out, _ = run(capsys, "verify", "--prime", str(P80), "--trials", "1")
    assert code == 0 and json.loads(out)["all_passed"] is True
    code, out, _ = run(capsys, "autdim", "--prime", str(P80), "--retries", "1")
    assert code == 0 and json.loads(out)["aut_dim_bound"] == 29


@pytest.mark.parametrize("prime, message", [
    # composite, but a strong pseudoprime to the bases 2..37
    (318665857834031151167461, "--prime must be an odd prime"),
    # a Mersenne prime past the range in which primality is decided
    (2**89 - 1, "primality is decided only below"),
], ids=["pseudoprime", "past_the_bound"])
@pytest.mark.parametrize("argv", [["verify", "--trials", "2"], ["autdim", "--retries", "2"]],
                         ids=["verify", "autdim"])
def test_a_modulus_that_is_not_a_proven_prime_is_a_usage_error(capsys, argv, prime, message):
    code, out, err = run(capsys, *argv, "--prime", str(prime))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--checks", "c99", "--trials", "1")
    assert code == 2


def test_verify_with_no_check_selected_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--checks", ",", "--trials", "1")
    assert code == 2 and out == ""
    assert "no check selected" in err


def test_verify_zero_trials_bounds_nothing(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "0", "--checks", "c1")
    assert code == 0
    assert [c["failure_bound"] for c in json.loads(out)["checks"]] == [1.0]


def test_negative_counts_rejected(capsys):
    code, _, err = run(capsys, "verify", "--trials", "-1")
    assert code == 2 and "--trials" in err
    code, _, err = run(capsys, "strata", "--surface", "sodm", "--matrix", "M",
                       "--samples", "0")
    assert code == 2 and "--samples" in err


def test_report_determinism(capsys, tmp_path):
    args = ["verify", "--prime", str(P31), "--seed", "3", "--trials", "2",
            "--checks", "c6"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    a, b = json.loads(p1.read_text()), json.loads(p2.read_text())
    a["elapsed_sec"] = b["elapsed_sec"] = 0
    for c in a["checks"] + b["checks"]:
        c["elapsed_sec"] = 0
    assert a == b


def test_report_to_missing_directory(capsys):
    # every report format goes through one writer, with one error path
    strata = ["strata", "--surface", "sodm", "--matrix", "M", "--samples", "1"]
    for argv in (["verify", "--trials", "0"], strata + ["--format", "json"],
                 strata + ["--format", "csv"]):
        code, out, err = run(capsys, *argv, "--out", "/nonexistent-dir/report")
        assert code == 2 and out == ""
        assert "cannot write" in err


def test_autdim_command(capsys):
    code, out, _ = run(capsys, "autdim", "--prime", "313", "--seed", "1",
                       "--retries", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["max_rank"] == 133
    assert rep["aut_dim_bound"] == 29


def test_strata_command_json_and_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "strata", "--surface", "sextic", "--matrix", "N",
                       "--samples", "10", "--seed", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["mode_corank"] == 2
    assert rep["tol"] == 1e-8 and rep["backend"] == "svd"
    csv_path = tmp_path / "census.csv"
    code, _, _ = run(capsys, "strata", "--surface", "sextic", "--matrix", "N",
                     "--samples", "10", "--seed", "0", "--format", "csv",
                     "--out", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "corank,count"
    assert sum(int(l.split(",")[1]) for l in lines[1:]) == 10


def test_eval_identity(capsys, tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(triple_to_json(identity_triple(ComplexField(), 3))))
    code, out, _ = run(capsys, "eval", "--invariant", "det_cartan",
                       "--input", str(path))
    assert code == 0
    assert json.loads(out)["value"] == [1.0, 0.0]
    # eval has no tolerance: no invariant makes a zero test
    code, _, _ = run(capsys, "eval", "--invariant", "det_cartan",
                     "--input", str(path), "--tol", "1e-9")
    assert code == 2


def test_eval_field_mode(capsys, tmp_path):
    field = PrimeField(P31)
    t = random_triple(field, 3, random.Random(0))
    path = tmp_path / "point.json"
    path.write_text(json.dumps(triple_to_json(t)))
    code, out, _ = run(capsys, "eval", "--invariant", "s_odm",
                       "--input", str(path), "--prime", str(P31))
    assert code == 0
    from octjordan.jordan import s_odm
    assert json.loads(out)["value"] == str(s_odm(t))


def test_eval_malformed_input(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"level\": 3}")
    code, _, err = run(capsys, "eval", "--invariant", "det_cartan",
                       "--input", str(path))
    assert code == 2
    code, _, err = run(capsys, "eval", "--invariant", "det_cartan",
                       "--input", str(tmp_path / "missing.json"))
    assert code == 2


def test_eval_field_mode_rejects_bool_and_float_residues(capsys, tmp_path):
    point = triple_to_json(identity_triple(PrimeField(29), 3))
    path = tmp_path / "point.json"
    for lams in ([True, 2.7, "3"], [True, 2, 3], [1, 2.0, 3]):
        point["lambda"] = lams
        path.write_text(json.dumps(point))
        code, out, err = run(capsys, "eval", "--invariant", "det_cartan",
                             "--input", str(path), "--prime", "29")
        assert code == 2 and out == ""
        assert "malformed input point" in err
    # decimal strings and JSON integers stay accepted
    point["lambda"] = [1, "2", 3]
    path.write_text(json.dumps(point))
    code, out, _ = run(capsys, "eval", "--invariant", "det_cartan",
                       "--input", str(path), "--prime", "29")
    assert code == 0
    assert json.loads(out)["value"] == "6"


def test_level_must_be_a_json_integer(capsys, tmp_path):
    # int() would read 3.9 as level 3, and true as level 1
    path = tmp_path / "point.json"
    for ring, prime in ((PrimeField(29), ["--prime", "29"]), (ComplexField(), [])):
        point = triple_to_json(identity_triple(ring, 3))
        for bad in (3.9, True, 4, -1, "3"):
            point["level"] = bad
            path.write_text(json.dumps(point))
            argvs = [["eval", "--invariant", "det_cartan", *prime]]
            if not prime:
                argvs.append(["reduce"])
            for argv in argvs:
                code, out, err = run(capsys, *argv, "--input", str(path))
                assert code == 2 and out == ""
                assert "malformed input point" in err and "level" in err


def test_non_finite_complex_point_is_malformed(capsys, tmp_path):
    point = triple_to_json(random_generic_triple(random.Random(1)))
    path = tmp_path / "point.json"
    for bad in ([float("nan"), 0.0], [0.0, float("inf")]):
        point["a"][2] = bad
        path.write_text(json.dumps(point))
        for argv in (["eval", "--invariant", "det_cartan"], ["reduce"]):
            code, out, err = run(capsys, *argv, "--input", str(path))
            assert code == 2 and out == ""
            assert "malformed input point" in err


def test_reduce_command(capsys, tmp_path):
    t = random_generic_triple(random.Random(1))
    path = tmp_path / "point.json"
    path.write_text(json.dumps(triple_to_json(t)))
    transcript = tmp_path / "word.json"
    code, out, _ = run(capsys, "reduce", "--input", str(path), "--tol", "1e-6",
                       "--seed", "0", "--transcript", str(transcript))
    assert code == 0
    summary = json.loads(out)
    assert summary["residual"] <= 1e-6
    word = json.loads(transcript.read_text())
    assert len(word["moves"]) == summary["moves"]


def test_reduce_rejects_a_tol_that_is_not_finite_and_positive(capsys, tmp_path):
    # nan would never fail the residual gate, inf would certify a word of no
    # moves, and -1 was reported as a non-generic input
    path = tmp_path / "point.json"
    path.write_text(json.dumps(triple_to_json(random_generic_triple(random.Random(1)))))
    for tol in ("nan", "inf", "-1", "0"):
        code, out, err = run(capsys, "reduce", "--input", str(path), "--tol", tol)
        assert code == 2 and out == ""
        assert "--tol" in err


def test_reduce_rejects_a_tol_of_one_or_more(capsys, tmp_path):
    # a residual of 1 says nothing about reaching the identity; 1e300 used to
    # certify the empty word at residual 6.58
    path = tmp_path / "point.json"
    path.write_text(json.dumps(triple_to_json(random_generic_triple(random.Random(1)))))
    for tol in ("1e300", "1.0"):
        code, out, err = run(capsys, "reduce", "--input", str(path), "--tol", tol)
        assert code == 2 and out == ""
        assert "--tol" in err


def test_reduce_reports_an_unreached_tolerance(capsys, tmp_path):
    # a generic point whose word stops short of a tiny tol is not a
    # non-generic input
    path = tmp_path / "point.json"
    path.write_text(json.dumps(triple_to_json(random_generic_triple(random.Random(1)))))
    code, out, err = run(capsys, "reduce", "--input", str(path), "--tol", "1e-17",
                         "--seed", "0")
    assert code == 2 and out == ""
    assert "tolerance not reached: replay residual" in err
    assert "non-generic" not in err


def test_strata_rejects_a_relative_tol_outside_zero_to_one(capsys):
    # nan read every sample as corank 24 and -1 every sample as corank 0
    for tol in ("nan", "inf", "-1", "0", "1"):
        code, out, err = run(capsys, "strata", "--surface", "sodm", "--matrix", "M",
                             "--samples", "1", "--tol", tol)
        assert code == 2 and out == ""
        assert "--tol" in err


def test_reduce_refuses_a_point_below_level_three(capsys, tmp_path):
    # off the diagonal the pipeline would hit a shape error in a level-3 move
    path = tmp_path / "point.json"
    for t in (identity_triple(ComplexField(), 1),
              random_triple(ComplexField(), 1, random.Random(3))):
        path.write_text(json.dumps(triple_to_json(t)))
        code, out, err = run(capsys, "reduce", "--input", str(path))
        assert code == 2 and out == ""
        assert "the reduction runs on level-3 (octonion) points" in err


def test_reduce_non_generic_exit(capsys, tmp_path):
    t = identity_triple(ComplexField(), 3)
    bad = triple_to_json(t)
    bad["lambda"] = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]  # degenerate diagonal
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "reduce", "--input", str(path))
    assert code == 2
    assert "non-generic input" in err and "tolerance" not in err


def _dressed_pivot_zero(rng: random.Random) -> dict:
    """A generic point whose lambda2 vanishes after the reduction's dressing;
    the dressed lambda2 is linear in the input lambda2."""
    t = random_generic_triple(rng)

    def dressed(l2):
        x = HermitianTriple(t.ring, 3, (t.lambdas[0], l2, t.lambdas[2]), t.a, t.b, t.c)
        pair, h = reduce._dressing()
        x = sl3_act(x.ring, h, spin7_act(pair, x))
        return x.lambdas[1]

    f0 = dressed(0j)
    return triple_to_json(HermitianTriple(t.ring, 3, (t.lambdas[0], -f0 / (dressed(1 + 0j) - f0),
                                                      t.lambdas[2]), t.a, t.b, t.c))


def test_reduce_messages_name_the_failed_step(capsys, tmp_path):
    ident = triple_to_json(identity_triple(ComplexField(), 3))
    degenerate = {**ident, "lambda": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]}
    generic = triple_to_json(random_generic_triple(random.Random(1)))
    cases = [
        (degenerate, "1e-6",
         "non-generic input: det_cartan(conj t) below the genericity threshold"),
        (generic, "1e-17", "tolerance not reached: replay residual"),
        (_dressed_pivot_zero(random.Random(12)), "1e-6",
         "reduction failed at step 'round 1: kill a' on an input that passed the "
         "det_cartan(conj t) test: lambda2 below"),
    ]
    for point, tol, message in cases:
        path = tmp_path / "point.json"
        path.write_text(json.dumps(point))
        code, out, err = run(capsys, "reduce", "--input", str(path), "--tol", tol,
                             "--seed", "0")
        assert code == 2 and out == ""
        assert message in err


def test_seed_env_fallback(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("OCTJORDAN_SEED", "3")
    p1 = tmp_path / "env.json"
    assert main(["verify", "--prime", str(P31), "--trials", "2",
                 "--checks", "c6", "--out", str(p1)]) == 0
    assert json.loads(p1.read_text())["seed"] == 3
    monkeypatch.setenv("OCTJORDAN_SEED", "nope")
    code, _, err = run(capsys, "verify", "--trials", "1", "--checks", "c6")
    assert code == 2


def test_jobs_flag_is_refused(capsys):
    # both commands run in this process only
    for argv in (["verify", "--trials", "1", "--checks", "c6"],
                 ["strata", "--surface", "sodm", "--matrix", "M", "--samples", "2"]):
        code, out, err = run(capsys, *argv, "--jobs", "2")
        assert code == 2 and out == ""
        assert "--jobs" in err
