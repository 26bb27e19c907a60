#!/usr/bin/env python3
"""octjordan benchmark: closed-loop rounds of one workload, one process, jobs=1.

    python3 perfbench/run.py --workload identity_suite --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
./src.  --trace 0 reports the end-to-end metrics, --trace 1 alternates
untraced and traced rounds and reports the per-layer metrics, writing the
spans and the full layer table to perfbench/out/.  The metric names and
units printed in the last line (one JSON object) are the ones listed in
BENCHMARK.json.  Exit status: 0 when every headline answer is right, 1
when one is wrong, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# sibling modules; none of them imports numpy at import time, so the BLAS
# thread cap below still takes effect
import spans
from setup_probe import prepare
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
# One BLAS thread, well under nproc: the loop has one caller, and on a 2-vCPU
# VM a second BLAS thread spins on the other vCPU without making the small
# numeric_geometry factorisations faster.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads(limit: int) -> int:
    """Cap BLAS/OpenMP pools at `limit` threads; must run before numpy loads."""
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 0 < int(cur) <= limit):
            os.environ[var] = str(limit)
    return max(int(os.environ[v]) for v in BLAS_VARS)


def git_head(root: Path) -> str | None:
    """The checkout's commit, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_record(blas_threads: int) -> dict:
    import numpy
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": blas_threads,
            "platform": platform.platform(), "commit": git_head(ROOT)}


def setup_seconds() -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    octjordan and filled the lazy tables."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed: {err.strip()}")
    return elapsed


def tail(times: list) -> tuple:
    """The highest percentile with at least 10 rounds beyond it, never below
    the median; returns (value, percentile)."""
    s = sorted(times)
    n = len(s)
    i = max(n - 11, n // 2)
    return s[i], 100.0 * (i + 1) / n


class Tally:
    """Attempted and failed ops per kind, plus wrong headline answers."""

    def __init__(self):
        self.kinds: dict = {}
        self.wrong: list = []

    def add(self, kinds: dict, wrong: list):
        for kind, (attempted, failed) in kinds.items():
            a, f = self.kinds.get(kind, (0, 0))
            self.kinds[kind] = (a + attempted, f + failed)
        self.wrong += wrong

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.kinds.values())


def timed(workload, inp):
    t0 = time.perf_counter()
    out = workload.run(inp)
    return out, time.perf_counter() - t0


def more_time(deadline: float, durations: list) -> bool:
    """Whether a round of typical duration still ends before the deadline,
    so that a run lasts --seconds and not --seconds plus a long round."""
    return time.perf_counter() + statistics.median(durations) <= deadline


def closed_loop(workload, seconds: float, tally: Tally) -> tuple:
    """Untraced rounds back to back for `seconds`, and SETUP_PROBES set-up
    probes spread over the same span: one between two rounds each time
    another 1/SETUP_PROBES of the busy time has passed, so that setup_s
    samples the host over the whole run and not over one moment of it.
    The probes pause the clock.  Returns (round times, set-up times)."""
    times, setup = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while not tally.wrong:
        inp = workload.inputs(k)
        out, dt = timed(workload, inp)
        times.append(dt)
        tally.add(*workload.check(inp, out))
        k += 1
        if len(setup) < SETUP_PROBES and sum(times) >= seconds * len(setup) / SETUP_PROBES:
            t0 = time.perf_counter()
            setup.append(setup_seconds())
            deadline += time.perf_counter() - t0
        if not more_time(deadline, times):
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds())
    return times, setup


def traced_round(workload, inp):
    rt = spans.RoundTrace()
    with spans.installed(rt), rt.span("bench.round"):
        out = workload.run(inp, rt)
    return out, rt


def span_seconds(rt) -> float:
    """Duration of the round's root span."""
    return rt.spans[0][4] - rt.spans[0][3]


def traced_loop(workload, seconds: float, tally: Tally):
    """Round 0 traced twice, whose counts must repeat exactly; then pairs of
    rounds on the same inputs, untraced then traced, for `seconds`.
    Returns the untraced round times, the traces (the second trace of round
    0, then one per pair) and each pair's traced minus untraced time."""
    deadline = time.perf_counter() + seconds
    inp = workload.inputs(0)
    out, first = traced_round(workload, inp)
    tally.add(*workload.check(inp, out))
    _, again = traced_round(workload, inp)
    sigs = [_count_signature(spans.layer_table(rt)) for rt in (first, again)]
    if sigs[0] != sigs[1]:
        diff = sorted(key for key in set(sigs[0]) | set(sigs[1])
                      if sigs[0].get(key) != sigs[1].get(key))
        tally.wrong.append(f"counts differ between two traced runs of round 0: {diff}")
    untraced, traces, overheads, pairs = [], [again], [], []
    k = 1
    while not tally.wrong:
        inp = workload.inputs(k)
        out, dt = timed(workload, inp)
        untraced.append(dt)
        tally.add(*workload.check(inp, out))
        out, rt = traced_round(workload, inp)
        traces.append(rt)
        tally.add(*workload.check(inp, out))
        overheads.append(span_seconds(rt) - dt)
        pairs.append(dt + span_seconds(rt))
        k += 1
        if not more_time(deadline, pairs):
            break
    return untraced, traces, overheads


def _count_signature(table: dict) -> dict:
    sig = {f"{layer}.calls": row["calls"] for layer, row in table["layers"].items()}
    sig.update(table["counts"])
    return sig


def layer_metrics(untraced: list, traces: list, overheads: list) -> dict:
    """Every per-layer metric, as a mean per traced round."""
    tables = [spans.layer_table(rt) for rt in traces]
    n = len(tables)
    from octjordan.verify import check_ids
    layers = sorted({layer for t in tables for layer in t["layers"]}
                    | set(spans.SPAN_TARGETS.values())
                    | {f"verify.{cid}" for cid in check_ids()})
    out = {}

    def row_sum(layer, field):
        return sum(t["layers"].get(layer, {}).get(field, 0) for t in tables)

    def count_sum(key):
        return sum(t["counts"].get(key, 0) for t in tables)

    for layer in layers:
        if layer == "bench.round":
            continue
        if layer.startswith("verify."):
            out[f"{layer}.s"] = row_sum(layer, "total_s") / n
            continue
        out[f"{layer}.calls"] = row_sum(layer, "calls") / n
        out[f"{layer}.self_s"] = row_sum(layer, "self_s") / n
    lift_calls = sum(row_sum(layer, "calls") for layer in spans.LIFTS)
    lift_ok = sum(row_sum(layer, "ok") for layer in spans.LIFTS)
    out["symmetry.lift_yield"] = lift_ok / lift_calls if lift_calls else 0.0
    out["symmetry.lift_calls"] = lift_calls / n
    for key in ("linalg.exact_cells", "autdim.sextic_terms", "reduce.gn_evals",
                "reduce.aborts", spans.PRODUCT_COUNTER, "coeffs.derive_rng.calls"):
        out[key] = count_sum(key) / n
    words = count_sum("reduce.words")
    out["reduce.moves_per_word"] = count_sum("reduce.word_moves") / words if words else 0.0
    layers.remove("bench.round")
    for module in sorted({layer.split(".")[0] for layer in layers}):
        out[f"{module}.self_s"] = sum(row_sum(layer, "self_s") for layer in layers
                                      if layer.startswith(module + ".")) / n
    traced_times = [span_seconds(rt) for rt in traces]
    self_sum = sum(row_sum(layer, "self_s") for layer in layers)
    out["trace.round_p50_s"] = statistics.median(traced_times)
    out["trace.untraced_round_p50_s"] = statistics.median(untraced)
    out["trace.overhead_s"] = statistics.median(overheads)
    out["trace.round_mean_s"] = sum(traced_times) / n
    out["trace.residual_s"] = row_sum("bench.round", "self_s") / n
    out["trace.layer_self_sum_s"] = self_sum / n
    out["trace.rounds"] = n
    out["trace.spans_per_round"] = sum(len(rt.spans) for rt in traces) / n
    return out


def write_trace(name: str, seed: int, traces: list, metrics: dict, machine: dict):
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}"
    with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
        for r, rt in enumerate(traces):
            for i, (parent, layer, func, t0, t1, ok) in enumerate(rt.spans):
                fh.write(json.dumps([r, i, parent, layer, func, t0, t1, ok]) + "\n")
    with open(OUT / f"layers-{stem}.json", "w") as fh:
        json.dump({"workload": name, "seed": seed, "machine": machine,
                   "metrics": metrics}, fh, indent=1, sort_keys=True)


def declared_metrics(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def result_line(tally: Tally, values: dict, declared: dict) -> str:
    missing = sorted(set(declared) - set(values))
    if missing:
        raise RuntimeError(f"no value for declared metrics {missing}")
    return json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    })


def print_ops(tally: Tally):
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"fail_frac     {frac:.6f}     ({tally.failed} failed / {tally.attempted} attempted ops)")
    for kind, (a, f) in sorted(tally.kinds.items()):
        print(f"  {kind:<24} {f} failed / {a} attempted")
    for msg in tally.wrong:
        print(f"WRONG: {msg}")


def finish(workload, tally: Tally) -> dict:
    """The workload's untimed end-of-run report, if it has one: print its
    lines, add its wrong answers to the tally and return its values."""
    if not hasattr(workload, "finish"):
        return {}
    values, lines, wrong = workload.finish()
    for line in lines:
        print(line)
    tally.add({}, wrong)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    blas_threads = cap_blas_threads(min(BLAS_THREADS, nproc()))
    if not (ROOT / "src" / "octjordan" / "__init__.py").is_file():
        print(f"error: no octjordan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prepare(ROOT)
    machine = machine_record(blas_threads)
    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (closed loop, 1 caller, jobs=1)")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in machine.items()))

    if args.trace:
        untraced, traces, overheads = traced_loop(workload, args.seconds, tally)
        values = layer_metrics(untraced, traces, overheads)
        values.update(finish(workload, tally))
        write_trace(args.workload, args.seed, traces, values, machine)
        print(f"traced rounds {values['trace.rounds']}: traced p50 "
              f"{values['trace.round_p50_s']:.4f} s, untraced p50 "
              f"{values['trace.untraced_round_p50_s']:.4f} s, overhead "
              f"{values['trace.overhead_s']:+.4f} s (median over {len(overheads)} "
              "pairs of traced minus untraced round on the same input)")
        print(f"per-layer self times sum to {values['trace.layer_self_sum_s']:.4f} s of a "
              f"{values['trace.round_mean_s']:.4f} s mean traced round; residual "
              f"{values['trace.residual_s']:.4f} s")
        round_s = values["trace.round_mean_s"]
        print("module self time per traced round: " + "  ".join(
            f"{k[:-7]} {100 * v / round_s:.1f}%" for k, v in sorted(values.items())
            if k.count(".") == 1 and k.endswith(".self_s") and not k.startswith("trace.")))
        for name in sorted(values):
            print(f"  {name:<52} {values[name]:.6g}")
        print_ops(tally)
        print(result_line(tally, values, declared_metrics("per_layer")))
        return 1 if tally.wrong else 0

    times, setup = closed_loop(workload, args.seconds, tally)
    tail_s, tail_pct = tail(times)
    busy = sum(times)
    values = {
        "setup_s": statistics.median(setup),
        "round_p50_s": statistics.median(times),
        "round_tail_s": tail_s,
        "rounds_per_s": len(times) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"setup_s       {values['setup_s']:.4f} s   (median of {len(setup)} fresh interpreters)")
    print(f"round_p50_s   {values['round_p50_s']:.4f} s   (n={len(times)} rounds)")
    print(f"round_tail_s  {tail_s:.4f} s   (p{tail_pct:.1f} of n={len(times)} rounds: the "
          "highest percentile with >= 10 rounds beyond it, not below the median)")
    print(f"rounds_per_s  {values['rounds_per_s']:.4f} 1/s ({len(times)} rounds / "
          f"{busy:.2f} s busy)")
    print(f"peak_rss_mb   {values['peak_rss_mb']:.1f} MB")
    finish(workload, tally)
    print_ops(tally)
    print(result_line(tally, values, declared_metrics("end_to_end")))
    return 1 if tally.wrong else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
