"""The benchmark under perfbench/ binds library names by string: its set-up
probe warms the lazy tables and its tracer wraps functions in every module
that binds them.  Renaming or deleting such a name must fail here, not in
every benchmark run.  The scripts are run from source, so nothing is
written under perfbench/."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

from octjordan import autdim, cayley, linalg, symmetry, verify

ROOT = Path(__file__).resolve().parents[1]


def _script(name: str) -> dict:
    return runpy.run_path(str(ROOT / "perfbench" / f"{name}.py"))


def test_setup_probe_and_tracer_bind_existing_names():
    _script("setup_probe")["prepare"](ROOT)
    spans = _script("spans")
    originals = (autdim.jacobian_image_rank, linalg.rank, cayley.AlgebraElement.__mul__)
    with spans["installed"](spans["RoundTrace"]()):
        assert autdim.jacobian_image_rank is not originals[0]
    assert (autdim.jacobian_image_rank, linalg.rank,
            cayley.AlgebraElement.__mul__) == originals


def test_traced_identity_rounds_repeat_their_counts_on_a_cold_word_cache():
    # the benchmark traces its first round twice in a fresh process and
    # requires equal counts, so building the F_p Spin7 word or a product
    # kernel on first use must call nothing the tracer wraps or counts
    spans = _script("spans")
    symmetry._nilpotent_word.cache_clear()
    cayley._product_kernel.cache_clear()
    signatures = []
    for _ in range(2):
        rt = spans["RoundTrace"]()
        with spans["installed"](rt):
            verify.run_suite(2**31 - 1, 7, trials=1)
        table = spans["layer_table"](rt)
        signatures.append(({layer: row["calls"] for layer, row in table["layers"].items()},
                           table["counts"]))
    assert signatures[0] == signatures[1]
    assert signatures[0][0]["linalg.matmul"] > 0


def test_numeric_geometry_scale_sweep_reduces_at_every_scale():
    # the sweep reduces one generic triple at |s| = 1e-6, 1e-4, ..., 1e6;
    # C* is part of the group action, so no scale may abort
    workload = _script("workloads")["NumericGeometry"]
    for seed in (1, 2):
        assert workload(seed).scale_sweep() == []


def test_benchmark_rounds_answer_right_with_no_failed_op():
    # rounds 0-2 of every workload at seeds 1 and 2, checked as the benchmark
    # checks its rounds, then numeric_geometry's end-of-run report: a wrong
    # answer or a failed op here would be one in every benchmark run
    for seed in (1, 2):
        for name, workload in _script("workloads")["WORKLOADS"].items():
            w = workload(seed)
            for k in range(3):
                inp = w.inputs(k)
                kinds, wrong = w.check(inp, w.run(inp))
                assert wrong == [], (name, seed, k)
                assert all(failed == 0 for _, failed in kinds.values()), (name, seed, kinds)
            if hasattr(w, "finish"):
                assert w.finish()[2] == [], (name, seed)


_TRACE_TWO_REDUCTIONS = """
import random, runpy, sys
spans = runpy.run_path(sys.argv[1])
from octjordan import reduce
t = reduce.random_generic_triple(random.Random(1))
signatures = []
for _ in range(2):
    rt = spans["RoundTrace"]()
    with spans["installed"](rt):
        reduce.reduce_to_identity(t, seed=0)
    table = spans["layer_table"](rt)
    signatures.append(({k: v["calls"] for k, v in table["layers"].items()}, table["counts"]))
assert signatures[0] == signatures[1], signatures
"""


def test_traced_reductions_repeat_their_counts_in_a_fresh_interpreter():
    # the benchmark traces its first numeric_geometry round twice in a fresh
    # process and requires equal counts, so nothing a reduction builds on
    # first use may call what the tracer wraps or counts
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", _TRACE_TWO_REDUCTIONS,
                    str(ROOT / "perfbench" / "spans.py")], check=True, env=env, timeout=120)
