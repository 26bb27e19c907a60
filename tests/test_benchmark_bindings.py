"""The benchmark under perfbench/ binds library names by string: its set-up
probe warms the lazy tables and its tracer wraps functions in every module
that binds them.  Renaming or deleting such a name must fail here, not in
every benchmark run.  The scripts are run from source, so nothing is
written under perfbench/."""

import runpy
from pathlib import Path

from octjordan import autdim, cayley, linalg

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
