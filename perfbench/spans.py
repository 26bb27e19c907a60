"""Spans and counters recorded from outside the library.

The benchmark wraps the public functions of each octjordan module and
records one span per call: (parent, layer, function, start, end, ok).
Wrappers are installed into every module namespace that binds the
function, because several modules import functions by name (verify
binds build_M, reduce binds lift_right_companion and spin7_act, strata
keeps the invariants in a dispatch table).  Scalar-level hot calls
(AlgebraElement.__mul__, derive_rng) only bump a counter, so the tracer
does not swamp the spans around them.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import collections
import functools
import importlib
import time
from contextlib import contextmanager

PACKAGE = "octjordan"
MODULES = ("coeffs", "cayley", "jordan", "linalg", "symmetry", "verify",
           "autdim", "strata", "reduce")

# (defining module, function) -> layer name; several functions share a layer
SPAN_TARGETS = {
    ("symmetry", "lift_right_companion"): "symmetry.lift_right_companion",
    ("symmetry", "lift_left_companion"): "symmetry.lift_left_companion",
    ("symmetry", "fast_right_companion"): "symmetry.fast_right_companion",
    ("symmetry", "triality_defect"): "symmetry.triality_defect",
    ("symmetry", "spin7_act"): "symmetry.actions",
    ("symmetry", "so7_act"): "symmetry.actions",
    ("symmetry", "sl3_act"): "symmetry.actions",
    ("linalg", "det"): "linalg.det",
    ("linalg", "rank"): "linalg.rank",
    ("linalg", "nullspace"): "linalg.nullspace",
    ("linalg", "solve"): "linalg.solve",
    ("linalg", "matmul"): "linalg.matmul",
    ("autdim", "expand_sodm"): "autdim.expand",
    ("autdim", "expand_twisted_sextic"): "autdim.expand",
    ("autdim", "gradient"): "autdim.gradient",
    ("autdim", "jacobian_image_rank"): "autdim.jacobian_image_rank",
    ("reduce", "reduce_to_identity"): "reduce.reduce_to_identity",
    ("reduce", "stabilizer_solve"): "reduce.stabilizer_solve",
    ("reduce", "move_c_to_plane"): "reduce.move_c_to_plane",
    ("reduce", "symmetric_congruence_to_identity"):
        "reduce.symmetric_congruence_to_identity",
    ("strata", "sample_on"): "strata.sample_on",
    ("strata", "corank_census"): "strata.corank_census",
    ("jordan", "build_M"): "jordan.build_MN",
    ("jordan", "build_N"): "jordan.build_MN",
    ("jordan", "det_cartan"): "jordan.invariants",
    ("jordan", "com"): "jordan.invariants",
    ("jordan", "s_odm"): "jordan.invariants",
    ("jordan", "twisted_cubic"): "jordan.invariants",
    ("jordan", "twisted_sextic"): "jordan.invariants",
    ("cayley", "left_mult_matrix"): "cayley.mult_matrix",
    ("cayley", "right_mult_matrix"): "cayley.mult_matrix",
}

# function -> counter; no span, the call is too small to time one by one
COUNT_TARGETS = {
    ("coeffs", "derive_rng"): "coeffs.derive_rng.calls",
}
PRODUCT_COUNTER = "cayley.product.calls"

# dispatch tables holding function objects captured at import time
BOUND_TABLES = (("strata", "_INVARIANTS"),)

LIFTS = ("symmetry.lift_right_companion", "symmetry.lift_left_companion",
         "symmetry.fast_right_companion")


def _modules() -> dict:
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}


def _exact_cells(args) -> int:
    """rows x cols of the matrix entering F_p elimination, 0 over C."""
    from octjordan.coeffs import PrimeField
    ring, a = args[0], args[1]
    if not isinstance(ring, PrimeField):
        return 0
    rows, cols = a.shape
    if len(args) > 2:                       # solve(ring, a, b): augmented system
        b = args[2]
        cols += b.shape[1] if b.ndim == 2 else 1
    return rows * cols


class RoundTrace:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans: list = []               # (parent, layer, func, t0, t1, ok)
        self.stack: list = [-1]
        self.counts = collections.Counter()

    @contextmanager
    def span(self, layer: str, func: str = ""):
        """A span opened by the benchmark itself (round root, per-check)."""
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        ok = False
        t0 = time.perf_counter()
        try:
            yield
            ok = True
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[idx] = (parent, layer, func or layer, t0, t1, ok)

    def wrap_span(self, layer: str, fn, hook=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            ok = False
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (parent, layer, name, t0, t1, ok)
                if hook is not None:
                    hook(counts, args, out, ok)
        return wrapper

    def wrap_count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper


def _cells_hook(counts, args, out, ok):
    counts["linalg.exact_cells"] += _exact_cells(args)


def _expand_hook(counts, args, out, ok):
    if ok:
        counts["autdim.sextic_terms"] += len(out)


def _reduce_hook(counts, args, out, ok):
    if ok:
        counts["reduce.words"] += 1
        counts["reduce.word_moves"] += len(out.moves)
    else:
        counts["reduce.aborts"] += 1


HOOKS = {
    ("linalg", "det"): _cells_hook,
    ("linalg", "rank"): _cells_hook,
    ("linalg", "nullspace"): _cells_hook,
    ("linalg", "solve"): _cells_hook,
    ("autdim", "expand_sodm"): _expand_hook,
    ("autdim", "expand_twisted_sextic"): _expand_hook,
    ("reduce", "reduce_to_identity"): _reduce_hook,
}


@contextmanager
def installed(rt: RoundTrace):
    """Patch every binding of the traced functions for the duration of the
    block, then restore the originals."""
    mods = _modules()
    undo = []                                # (target, key, original)
    replace = {}                             # id(original) -> (original, wrapper)
    for (home, name), layer in SPAN_TARGETS.items():
        orig = getattr(mods[home], name)
        replace[id(orig)] = (orig, rt.wrap_span(layer, orig, HOOKS.get((home, name))))
    for (home, name), key in COUNT_TARGETS.items():
        orig = getattr(mods[home], name)
        replace[id(orig)] = (orig, rt.wrap_count(key, orig))

    def swap(val):
        hit = replace.get(id(val))
        return hit[1] if hit is not None and hit[0] is val else val

    try:
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                new = swap(val)
                if new is not val:
                    undo.append((mod, attr, val))
                    setattr(mod, attr, new)
        for home, table_name in BOUND_TABLES:
            table = getattr(mods[home], table_name)
            for key, entry in list(table.items()):
                new = tuple(swap(v) for v in entry)
                if any(a is not b for a, b in zip(new, entry)):
                    undo.append((table, key, entry))
                    table[key] = new
        cls = mods["cayley"].AlgebraElement
        undo.append((cls, "__mul__", cls.__mul__))
        cls.__mul__ = rt.wrap_count(PRODUCT_COUNTER, cls.__mul__)
        yield rt
    finally:
        for target, key, orig in reversed(undo):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)


def layer_table(rt: RoundTrace) -> dict:
    """Per-layer calls, self time and inclusive time of one round.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly (one thread, synchronous calls), so the
    self times of all spans add up to the root span's duration.
    """
    spans = rt.spans
    child = [0.0] * len(spans)
    in_solve = [False] * len(spans)
    outermost = [True] * len(spans)
    for i, (parent, layer, _func, t0, t1, _ok) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            in_solve[i] = in_solve[parent]
        in_solve[i] = in_solve[i] or layer == "reduce.stabilizer_solve"
        anc = parent
        while anc >= 0 and outermost[i]:
            outermost[i] = spans[anc][1] != layer
            anc = spans[anc][0]
    table: dict = collections.defaultdict(lambda: {"calls": 0, "ok": 0,
                                                   "self_s": 0.0, "total_s": 0.0})
    gn_evals = 0
    for i, (_parent, layer, _func, t0, t1, ok) in enumerate(spans):
        row = table[layer]
        row["calls"] += 1
        row["ok"] += ok
        row["self_s"] += (t1 - t0) - child[i]
        if outermost[i]:
            row["total_s"] += t1 - t0
        if layer == "symmetry.fast_right_companion" and in_solve[i]:
            gn_evals += 1
    counts = dict(rt.counts)
    counts["reduce.gn_evals"] = gn_evals
    return {"layers": {k: dict(v) for k, v in table.items()}, "counts": counts}
