"""Command line front end.

Subcommands mirror the library: ``series`` prints closed-form
coefficients, ``count`` runs the enumerative counters, ``quot`` drives
the fixed-locus engine, and ``verify`` runs one of the named claims.

Exit codes: 0 on success (and for a passing claim), 1 for a failing
claim or an exceeded guard, 2 for usage errors including bad parameter
values.
"""

from __future__ import annotations

import argparse
import os
import sys

from .partitions import (
    PLANE_PARTITION_GUARD,
    GuardExceeded,
    box_partition_polynomial_dp,
    enumerate_plane_partitions,
)
from .quotfixed import (
    COLENGTH_GUARD, fixed_locus_summary, quot_fixed_euler, quot_series,
)
from .series import _int, box_product, macmahon
from .verify import (
    verify_product_formula,
    verify_rank2_free,
    verify_stanley,
    verify_hilb_counts,
)


def _coeff_line(series) -> str:
    return " ".join(str(c) for c in series.coeffs)


# (flag, add_argument keywords) of the arguments several commands share
_V = ("--v", {"type": int, "nargs": 3, "required": True, "metavar": ("A", "B", "C")})
_N = ("--n", {"type": int, "required": True})
_ORDER = ("--order", {"type": int, "required": True})
_JSON = ("--json", {"type": str, "default": None, "metavar": "PATH",
                    "help": "write the report as JSON to PATH"})


def _guard(default: int):
    return ("--guard", {"type": int, "default": default})


def _leaf(group, name: str, help: str, handler, *arguments) -> None:
    """Add subcommand name to group, run by handler, with its arguments in
    the order given."""
    p = group.add_parser(name, help=help)
    p.set_defaults(handler=handler)
    for flag, keywords in arguments:
        p.add_argument(flag, **keywords)


def _count_box(args) -> None:
    _int(args.n, "n", 0)
    counts = box_partition_polynomial_dp(args.v).coeffs
    print(counts[args.n] if args.n < len(counts) else 0)


def _quot_euler(args) -> None:
    if not args.strata:
        print(quot_fixed_euler(args.v, args.n, guard=args.guard))
        return
    summary = fixed_locus_summary(args.v, args.n, guard=args.guard)
    for rec in summary.strata:
        cells = " ".join(f"{w}:{c}" for w, c in rec.coprofile.entries)
        print(f"stratum [{cells}] euler={rec.euler}")
    print(f"total {summary.total}")


def _build_parser() -> argparse.ArgumentParser:
    """The subcommand tree.  Each leaf names its handler: a ``verify``
    handler returns its report, the others print and return None.
    Handlers read library names as module globals when they are called."""
    parser = argparse.ArgumentParser(
        prog="quotbox",
        description="Exact counts and series for graded quotients of the "
        "rank-2 modules attached to a positive triple v.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name, help, dest):
        return sub.add_parser(name, help=help).add_subparsers(dest=dest, required=True)

    series = group("series", "closed-form series", "series_cmd")
    _leaf(series, "macmahon", "plane partition series",
          lambda a: print(_coeff_line(macmahon(a.order))), _ORDER)
    _leaf(series, "boxgen", "box-bounded partition polynomial",
          lambda a: print(_coeff_line(box_product(a.v, a.order))),
          _V, ("--order", {"type": int, "default": None}))

    count = group("count", "enumerative counters", "count_cmd")
    _leaf(count, "pp", "plane partitions of n",
          lambda a: print(len(enumerate_plane_partitions(a.n, guard=a.guard))),
          ("n", {"type": int}), _guard(PLANE_PARTITION_GUARD))
    _leaf(count, "box", "box-bounded plane partitions of n", _count_box, _V, _N)

    quot = group("quot", "fixed-locus engine", "quot_cmd")
    strata = ("--strata", {
        "action": "store_true",
        "help": "list every consistent stratum and its Euler characteristic",
    })
    _leaf(quot, "euler", "Euler characteristic at colength n", _quot_euler,
          _V, _N, strata, _guard(COLENGTH_GUARD))
    _leaf(quot, "series", "Euler characteristic series",
          lambda a: print(_coeff_line(quot_series(a.v, a.order, guard=a.guard))),
          _V, _ORDER, _guard(COLENGTH_GUARD))

    verify = group("verify", "run a verification claim", "claim")
    _leaf(verify, "product", "engine series vs closed form",
          lambda a: verify_product_formula(a.v, a.order, guard=a.guard),
          _V, _ORDER, _guard(COLENGTH_GUARD), _JSON)
    _leaf(verify, "stanley", "three-way box counts",
          lambda a: verify_stanley(a.v), _V, _JSON)
    _leaf(verify, "hilb", "fat-point ideal counts vs box counts",
          lambda a: verify_hilb_counts(a.v), _V, _JSON)
    _leaf(verify, "rank2free", "pair counts vs macmahon^2",
          lambda a: verify_rank2_free(a.order, guard=a.guard),
          _ORDER, _guard(PLANE_PARTITION_GUARD), _JSON)
    return parser


def _run(args) -> int:
    """Check the --json path, then call the command's handler; a report it
    returns is written to --json, then printed, and decides the exit code."""
    path = getattr(args, "json", None)
    if path and os.path.isdir(path):
        raise ValueError(f"--json: Is a directory: {path!r}")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ValueError(f"--json: No such file or directory: {path!r}")
    report = args.handler(args)
    if report is None:
        return 0
    if args.json:
        try:
            fh = open(args.json, "w")
        except OSError as exc:
            raise ValueError(f"--json: {exc}") from exc
        with fh:
            fh.write(report.to_json())
    print(report.summary())
    return 0 if report.ok else 1


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _run(args)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
