"""Set-up that every CLI invocation pays: import octjordan, fill its lazy tables.

Run as a script it performs the set-up in a fresh interpreter and prints
"ready"; the benchmark times the interval from spawning it to that line.
Usage: python3 perfbench/setup_probe.py <checkout root>
"""

from __future__ import annotations

import sys
from pathlib import Path


def prepare(root: Path) -> None:
    """Import the library from <root>/src and fill the tables it builds lazily
    (Cayley-Dickson structure constants, the chart monomials of autdim)."""
    src = str(Path(root) / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import octjordan
    if Path(octjordan.__file__).resolve().parent != (Path(src) / "octjordan").resolve():
        raise ImportError(f"octjordan imported from {octjordan.__file__}, not {src}")
    from octjordan import autdim, cayley, cli  # noqa: F401  (cli imports the rest)
    cayley.mult_table(cayley.MAX_LEVEL)
    cayley.left_basis_matrices(cayley.MAX_LEVEL)
    cayley.right_basis_matrices(cayley.MAX_LEVEL)
    for degree in (5, 6):
        for var in range(autdim.CHART_VARS):
            autdim._raise_map(degree, var)


if __name__ == "__main__":
    prepare(Path(sys.argv[1]))
    print("ready", flush=True)
