"""Command-line front end: verify / autdim / strata / reduce / eval.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or input error.
Reports are canonical JSON (sorted keys, 12-significant-digit floats) so
identical runs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import jordan, linalg, reduce as reduction, strata, verify
from .coeffs import ComplexField, PrimeField, is_prime
from .strata import Hypersurface

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

DEFAULT_PRIME = 2**31 - 1

_INVARIANTS = {
    "det_cartan": jordan.det_cartan,
    "s_odm": jordan.s_odm,
    "twisted_cubic": jordan.twisted_cubic,
    "twisted_sextic": jordan.twisted_sextic,
    "det_m": lambda t: linalg.det(t.ring, jordan.build_M(t)),
    "det_n": lambda t: linalg.det(t.ring, jordan.build_N(t)),
}


class UsageError(Exception):
    pass


def _canonical(obj):
    """Fixed float formatting so reports diff cleanly across runs."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, complex):
        return [_canonical(obj.real), _canonical(obj.imag)]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def emit_report(report: dict, path: str | None) -> None:
    _write_report(json.dumps(_canonical(report), sort_keys=True, indent=2) + "\n", path)


def _write_report(text: str, path: str | None) -> None:
    """The text to stdout, or to path; an unwritable path is a usage error."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write report to {path}: {exc}")


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("OCTJORDAN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"OCTJORDAN_SEED is not an integer: {env!r}")
    return 0


def _checked_prime(p: int) -> int:
    if not is_prime(p) or p == 2:
        raise UsageError(f"--prime must be an odd prime, got {p}")
    return p


def _checked_count(value: int, flag: str, minimum: int = 0) -> int:
    if value < minimum:
        raise UsageError(f"{flag} must be >= {minimum}, got {value}")
    return value


def _checked_tol(value: float, below: float = math.inf) -> float:
    """A tolerance strictly between 0 and below; nan and inf fail too."""
    if not 0 < value < below:
        raise UsageError(f"--tol must be > 0 and < {below}, got {value}")
    return value


def _load_point(ring, path: str):
    """The triple in a JSON point file, decoded by the ring."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    try:
        return jordan.triple_from_json(ring, d)
    except (KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"malformed input point: {exc}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="octjordan",
        description="octonionic and twisted-octonionic eigenvalue problems on "
                    "hermitian 3x3 octonion matrices: exact identity suite, "
                    "automorphism dimension bound, corank census, orbit reduction")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="randomized identity suite over F_p")
    v.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--checks", type=str, default=None,
                   help="comma-separated subset, e.g. c6,c7")
    v.add_argument("--out", type=str, default=None)

    a = sub.add_parser("autdim", help="automorphism dimension bound of the sextic")
    a.add_argument("--prime", type=int, default=313)
    a.add_argument("--seed", type=int, default=None)
    a.add_argument("--retries", type=int, default=3)
    a.add_argument("--invariant", choices=["sodm", "twisted_sextic"],
                   default="sodm",
                   help="twisted_sextic runs the analogous (untargeted) bound")
    a.add_argument("--out", type=str, default=None)

    s = sub.add_parser("strata", help="corank census on a degeneracy hypersurface")
    s.add_argument("--surface", choices=[h.value for h in Hypersurface], required=True)
    s.add_argument("--matrix", choices=["M", "N"], required=True)
    s.add_argument("--samples", type=int, default=200)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--format", choices=["json", "csv"], default="json")
    s.add_argument("--out", type=str, default=None)

    r = sub.add_parser("reduce", help="reduce a generic point to the identity")
    r.add_argument("--input", type=str, required=True)
    r.add_argument("--tol", type=float, default=1e-6)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--transcript", type=str, default=None)

    e = sub.add_parser("eval", help="evaluate an invariant at a JSON point")
    e.add_argument("--invariant", choices=sorted(_INVARIANTS), required=True)
    e.add_argument("--input", type=str, required=True)
    e.add_argument("--prime", type=int, default=None,
                   help="evaluate over F_p (default: complex floats)")
    e.add_argument("--out", type=str, default=None)

    return p


def _cmd_verify(args) -> int:
    prime = _checked_prime(args.prime)
    trials = _checked_count(args.trials, "--trials")
    checks = None if args.checks is None else \
        [c.strip() for c in args.checks.split(",") if c.strip()]
    try:
        rep = verify.run_suite(prime, _seed_from(args), trials, checks=checks)
    except ValueError as exc:
        raise UsageError(str(exc))
    emit_report(rep.to_json_dict(), args.out)
    return EXIT_OK if rep.all_passed else EXIT_CHECK_FAILED


def _cmd_autdim(args) -> int:
    from . import autdim
    prime = _checked_prime(args.prime)
    retries = _checked_count(args.retries, "--retries")
    rep = autdim.aut_dimension_bound(prime, _seed_from(args), retries,
                                     invariant=args.invariant)
    emit_report(rep, args.out)
    return EXIT_OK


def _cmd_strata(args) -> int:
    samples = _checked_count(args.samples, "--samples", minimum=1)
    # a relative singular-value tolerance: at 1 or above every sample is
    # corank 24, at 0 or below corank 0
    tol = _checked_tol(args.tol, below=1.0)
    census = strata.corank_census(Hypersurface(args.surface), args.matrix,
                                  samples, tol=tol, seed=_seed_from(args))
    if args.format == "csv":
        lines = ["corank,count"]
        lines += [f"{k},{v}" for k, v in sorted(census.histogram.items())]
        _write_report("\n".join(lines) + "\n", args.out)
    else:
        emit_report(census.to_json_dict(), args.out)
    return EXIT_OK


def _cmd_reduce(args) -> int:
    # the residual gate certifies the word only against a tol in (0, 1)
    tol = _checked_tol(args.tol, below=1.0)
    triple = _load_point(ComplexField(), args.input)
    try:
        word = reduction.reduce_to_identity(triple, tol=tol,
                                            seed=_seed_from(args))
    except reduction.NonGenericInput as exc:
        if exc.step == "input":
            raise UsageError(f"non-generic input: {exc.detail}")
        if exc.step == "final state":
            raise UsageError(f"tolerance not reached: {exc.detail}")
        raise UsageError(f"reduction failed at step '{exc.step}' on an input that "
                         f"passed the det_cartan test: {exc.detail}")
    transcript = word.to_json_dict()
    if args.transcript is not None:
        emit_report(transcript, args.transcript)
    emit_report({"moves": len(word.moves), "residual": word.residual,
                 "scale": word.scale, "steps": word.steps}, None)
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.prime is not None:
        ring = PrimeField(_checked_prime(args.prime))
    else:
        ring = ComplexField()
    triple = _load_point(ring, args.input)
    value = _INVARIANTS[args.invariant](triple)
    emit_report({"invariant": args.invariant,
                 "value": ring.encode(value)}, args.out)
    return EXIT_OK


_DISPATCH = {
    "verify": _cmd_verify,
    "autdim": _cmd_autdim,
    "strata": _cmd_strata,
    "reduce": _cmd_reduce,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
