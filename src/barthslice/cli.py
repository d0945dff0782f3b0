"""Command-line entry point.

Subcommands: dims, census, witness, family, selftest.  Standard output
carries exactly one JSON document followed by a single newline; everything
else (progress, verdicts, warnings) goes to standard error.  Exit codes:
0 when every expectation is met, 1 when a check fails, 2 on usage or
configuration errors.  All commands that draw randomness require an
explicit seed, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from ._version import __version__
from .census import (
    CERTIFICATE_VERSION,
    _log,
    census_threshold,
    certificate_ok,
    dimension_formulas,
    expected_kernel_dim,
    fiber_census,
    witness_certificate,
)
from .errors import BarthSliceError
from .fields import DEFAULT_PRIME, PrimeField, RationalField
from .rng import SeededRng


def _prime_spec(text: str):
    if text == "rational":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--prime must be an integer or 'rational', got {text!r}"
        ) from None


def _add_range_flags(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, help="single charge, shorthand for --n-min N --n-max N")
    p.add_argument("--n-min", type=int, help="smallest charge")
    p.add_argument("--n-max", type=int, help="largest charge")


def _add_field_flags(p: argparse.ArgumentParser, *, seed_required: bool = True):
    p.add_argument(
        "--prime",
        type=_prime_spec,
        default=DEFAULT_PRIME,
        help="coefficient field: a prime modulus or 'rational' (default %(default)s)",
    )
    p.add_argument(
        "--window",
        type=int,
        default=100,
        help="sampling window for the rational field (default %(default)s)",
    )
    p.add_argument("--seed", type=int, required=seed_required, help="64-bit master seed")
    p.add_argument(
        "--measure-timings",
        action="store_true",
        help="record wall time in certificates (breaks byte reproducibility)",
    )


def _add_out_flag(p: argparse.ArgumentParser):
    p.add_argument("--out", default="-", help="output path, '-' for standard output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barthslice",
        description="Exact certification of instanton monad slice fibers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="closed-form dimension records")
    _add_range_flags(p)
    _add_out_flag(p)

    p = sub.add_parser("census", help="histogram fiber dimensions over random half data")
    _add_range_flags(p)
    p.add_argument("--trials", type=int, default=100, help="trials per charge (default %(default)s)")
    _add_field_flags(p)
    _add_out_flag(p)

    p = sub.add_parser("witness", help="certify one random solution per charge")
    _add_range_flags(p)
    p.add_argument("--points", type=int, default=32, help="rank-check directions (default %(default)s)")
    _add_field_flags(p)
    _add_out_flag(p)

    p = sub.add_parser("family", help="verify the canonical 4-dimensional fiber family (n >= 8)")
    _add_range_flags(p)
    p.add_argument("--trials", type=int, default=20, help="trials per charge (default %(default)s)")
    _add_field_flags(p)
    _add_out_flag(p)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")
    _add_out_flag(p)
    return parser


class UsageError(Exception):
    pass


def _resolve_range(args) -> tuple[int, int]:
    if args.n is not None:
        if args.n_min is not None or args.n_max is not None:
            raise UsageError("--n cannot be combined with --n-min/--n-max")
        return args.n, args.n
    lo, hi = args.n_min, args.n_max
    if lo is None and hi is None:
        raise UsageError("specify --n or --n-min/--n-max")
    if lo is None:
        lo = hi
    if hi is None:
        hi = lo
    if lo > hi:
        raise UsageError(f"--n-min {lo} exceeds --n-max {hi}")
    return lo, hi


def _make_field(args):
    if args.window < 0:
        raise UsageError("--window must be >= 0")
    if args.prime == "rational":
        return RationalField(sample_window=args.window)
    return PrimeField(args.prime)


def _emit(payload: str, out: str):
    if out == "-":
        sys.stdout.write(payload + "\n")
        sys.stdout.flush()
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None


def _run_dims(args) -> int:
    lo, hi = _resolve_range(args)
    records = [dimension_formulas(n).to_json_dict() for n in range(lo, hi + 1)]
    _emit(json.dumps(records, indent=2), args.out)
    return 0


def _certify(args, n: int, rng, field):
    """The certificate of charge n and its log line, without the verdict."""
    if args.command == "witness":
        cert = witness_certificate(
            n, rng, field, points=args.points, measure_timings=args.measure_timings
        )
        w = cert.witness
        return cert, (
            f"witness n={n}: fiber_dim={w.fiber_dim} residual_zero={w.residual_zero} "
            f"pencil=({w.pencil.finite_ok},{w.pencil.infinity_ok}) monad={w.monad_ok} "
            f"ranks={w.point_ranks_ok} jacobian={w.jacobian_rank}"
        )
    family = args.command == "family"
    cert = fiber_census(
        n, args.trials, rng, field, check_family=family, measure_timings=args.measure_timings
    )
    if family:
        return cert, f"family n={n}: canonical span in all trials: {cert.family_check}"
    expected = expected_kernel_dim(n)
    return cert, (
        f"census n={n}: dim {expected} in {cert.fiber_dims.get(expected, 0)}/{args.trials} "
        f"trials (threshold {census_threshold(args.trials)})"
    )


def _run_charges(args) -> int:
    """census, family and witness: certify each charge, log its verdict,
    emit the certificates, and exit 0 iff every one passed."""
    lo, hi = _resolve_range(args)
    field = _make_field(args)
    rng = SeededRng(args.seed)
    certs = []
    ok = True
    for n in range(lo, hi + 1):
        with warnings.catch_warnings():
            # one stderr line per library warning, like every other log line
            warnings.showwarning = lambda msg, *_: _log(f"{args.command} n={n}: warning: {msg}")
            cert, line = _certify(args, n, rng, field)
        certs.append(cert)
        passed = certificate_ok(cert)
        ok = ok and passed
        _log(f"{line} {'pass' if passed else 'FAIL'}")
    _emit(json.dumps([c.to_json_dict() for c in certs], indent=2), args.out)
    return 0 if ok else 1


def _run_selftest(args) -> int:
    from .selftest import run_selftest

    results = run_selftest(args.seed)
    for r in results:
        _log(f"selftest: {r.name}: {'ok' if r.passed else 'FAIL'} ({r.detail})")
    payload = {
        "version": CERTIFICATE_VERSION,
        "seed": str(args.seed),
        "checks": [r.to_json_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0 if payload["passed"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "dims":
            return _run_dims(args)
        if args.command == "selftest":
            return _run_selftest(args)
        return _run_charges(args)
    except (UsageError, BarthSliceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
