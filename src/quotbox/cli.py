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
import sys

from .partitions import (
    PLANE_PARTITION_GUARD,
    GuardExceeded,
    box_partition_polynomial_dp,
    enumerate_plane_partitions,
)
from .quotfixed import COLENGTH_GUARD, fixed_locus_summary, quot_fixed_euler, quot_series
from .series import box_product, macmahon
from .verify import (
    verify_product_formula,
    verify_rank2_free,
    verify_stanley,
    verify_hilb_counts,
)


def _coeff_line(series) -> str:
    return " ".join(str(c) for c in series.coeffs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quotbox",
        description="Exact counts and series for graded quotients of the "
        "rank-2 modules attached to a positive triple v.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="closed-form series")
    series_sub = p_series.add_subparsers(dest="series_cmd", required=True)
    p_mac = series_sub.add_parser("macmahon", help="plane partition series")
    p_mac.add_argument("--order", type=int, required=True)
    p_box = series_sub.add_parser("boxgen", help="box-bounded partition polynomial")
    p_box.add_argument("--v", type=int, nargs=3, required=True, metavar=("A", "B", "C"))
    p_box.add_argument("--order", type=int, default=None)

    p_count = sub.add_parser("count", help="enumerative counters")
    count_sub = p_count.add_subparsers(dest="count_cmd", required=True)
    p_pp = count_sub.add_parser("pp", help="plane partitions of n")
    p_pp.add_argument("n", type=int)
    p_pp.add_argument("--guard", type=int, default=PLANE_PARTITION_GUARD)
    p_cb = count_sub.add_parser("box", help="box-bounded plane partitions of n")
    p_cb.add_argument("--v", type=int, nargs=3, required=True, metavar=("A", "B", "C"))
    p_cb.add_argument("--n", type=int, required=True)

    p_quot = sub.add_parser("quot", help="fixed-locus engine")
    quot_sub = p_quot.add_subparsers(dest="quot_cmd", required=True)
    p_qe = quot_sub.add_parser("euler", help="Euler characteristic at colength n")
    p_qe.add_argument("--v", type=int, nargs=3, required=True, metavar=("A", "B", "C"))
    p_qe.add_argument("--n", type=int, required=True)
    p_qe.add_argument(
        "--strata", action="store_true",
        help="list every consistent stratum and its Euler characteristic",
    )
    p_qe.add_argument("--guard", type=int, default=COLENGTH_GUARD)
    p_qs = quot_sub.add_parser("series", help="Euler characteristic series")
    p_qs.add_argument("--v", type=int, nargs=3, required=True, metavar=("A", "B", "C"))
    p_qs.add_argument("--order", type=int, required=True)
    p_qs.add_argument("--guard", type=int, default=COLENGTH_GUARD)

    p_verify = sub.add_parser("verify", help="run a verification claim")
    verify_sub = p_verify.add_subparsers(dest="claim", required=True)
    p_prod = verify_sub.add_parser("product", help="engine series vs closed form")
    p_prod.add_argument("--v", type=int, nargs=3, required=True, metavar=("A", "B", "C"))
    p_prod.add_argument("--order", type=int, required=True)
    p_prod.add_argument("--guard", type=int, default=COLENGTH_GUARD)
    p_st = verify_sub.add_parser("stanley", help="three-way box counts")
    p_st.add_argument("--v", type=int, nargs=3, required=True, metavar=("A", "B", "C"))
    p_hilb = verify_sub.add_parser("hilb", help="fat-point ideal counts vs box counts")
    p_hilb.add_argument("--v", type=int, nargs=3, required=True, metavar=("A", "B", "C"))
    p_r2 = verify_sub.add_parser("rank2free", help="pair counts vs macmahon^2")
    p_r2.add_argument("--order", type=int, required=True)
    p_r2.add_argument("--guard", type=int, default=PLANE_PARTITION_GUARD)
    for p in (p_prod, p_st, p_hilb, p_r2):
        p.add_argument("--json", type=str, default=None, metavar="PATH",
                       help="write the report as JSON to PATH")

    return parser


def _run(args) -> int:
    if args.command == "series":
        if args.series_cmd == "macmahon":
            print(_coeff_line(macmahon(args.order)))
        else:
            print(_coeff_line(box_product(args.v, args.order)))
        return 0

    if args.command == "count":
        if args.count_cmd == "pp":
            print(len(enumerate_plane_partitions(args.n, guard=args.guard)))
        else:
            if args.n < 0:
                raise ValueError("n must be >= 0")
            counts = box_partition_polynomial_dp(args.v).coeffs
            print(counts[args.n] if args.n < len(counts) else 0)
        return 0

    if args.command == "quot":
        if args.quot_cmd == "euler":
            if args.strata:
                summary = fixed_locus_summary(args.v, args.n, guard=args.guard)
                for rec in summary.strata:
                    cells = " ".join(
                        f"{w}:{c}" for w, c in rec.coprofile.entries
                    )
                    print(f"stratum [{cells}] euler={rec.euler}")
                print(f"total {summary.total}")
            else:
                print(quot_fixed_euler(args.v, args.n, guard=args.guard))
        else:
            print(_coeff_line(quot_series(args.v, args.order, guard=args.guard)))
        return 0

    # verify
    if args.claim == "product":
        report = verify_product_formula(args.v, args.order, guard=args.guard)
    elif args.claim == "stanley":
        report = verify_stanley(args.v)
    elif args.claim == "hilb":
        report = verify_hilb_counts(args.v)
    else:
        report = verify_rank2_free(args.order, guard=args.guard)
    print(report.summary())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
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
