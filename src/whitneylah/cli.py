"""Command-line frontend: tables, single values, identity verification,
and generating-function inspection, with CSV/JSON output.

All output is deterministic: identical invocations print identical bytes.
Values are always emitted as strings (classical families as decimal
integers, q-families in the canonical Laurent polynomial form) because the
exact integers routinely exceed what consumers of native JSON numbers can
represent. Integers print in full at any length.

Exit codes: 0 success (and all checks passed), 1 verification failure,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from . import classical, qwhitney, whitney
from .arith import NonExactDivision, NonInvertibleConstantTerm
from .qcalc import InvalidOrder, NegativeArgument, qfact, qint
from .verify import Config, InvalidConfig, report_to_json, run_suite
from .whitney import InvalidAlpha


@dataclass(frozen=True)
class _Family:
    kind: str  # "triangle" or "sequence"
    q: bool
    alpha: str  # "none", "positive", or "nonzero"
    value: Callable  # (alpha, n[, k]) -> int | LaurentPoly


FAMILIES: dict[str, _Family] = {
    "lah": _Family("triangle", False, "none", lambda a, n, k: classical.lah(n, k)),
    "stirling1u": _Family(
        "triangle", False, "none", lambda a, n, k: classical.stirling1u(n, k)
    ),
    "stirling2": _Family(
        "triangle", False, "none", lambda a, n, k: classical.stirling2(n, k)
    ),
    "bell": _Family("sequence", False, "none", lambda a, n: classical.bell(n)),
    "whitney1": _Family("triangle", False, "positive", whitney.tw1),
    "whitney2": _Family("triangle", False, "positive", whitney.tw2),
    "whitney-lah": _Family("triangle", False, "positive", whitney.twl),
    "dowling": _Family("sequence", False, "positive", whitney.dowling),
    "q-whitney1": _Family("triangle", True, "nonzero", qwhitney.qw1),
    "q-whitney2": _Family("triangle", True, "nonzero", qwhitney.qw2),
    "q-whitney-lah": _Family("triangle", True, "positive", qwhitney.qwl),
    "q-lah": _Family("triangle", True, "none", lambda a, n, k: qwhitney.qlah_gr(n, k)),
    "q-dowling": _Family("sequence", True, "positive", qwhitney.qdowling),
}

SERIES_IDS = ("r3", "qr1.1")

_DOMAIN_ERRORS = (
    InvalidAlpha,
    InvalidOrder,
    NegativeArgument,
    NonExactDivision,
    NonInvertibleConstantTerm,
    qwhitney.InvalidRange,
    classical.ScaleExceeded,
    InvalidConfig,
)


class _UsageError(Exception):
    pass


def _resolve_alpha(family: str, alpha: Optional[int]) -> int:
    fam = FAMILIES[family]
    if fam.alpha == "none":
        if alpha not in (None, 1):
            raise _UsageError(f"family {family!r} does not take --alpha")
        return 1
    if alpha is None:
        return 1
    if fam.alpha == "positive" and alpha < 1:
        raise _UsageError(f"family {family!r} needs a positive --alpha, got {alpha}")
    if fam.alpha == "nonzero" and alpha == 0:
        raise _UsageError(f"family {family!r} needs a nonzero --alpha")
    return alpha


def _fmt(value) -> str:
    return value.to_str("q") if hasattr(value, "to_str") else str(value)


def _cmd_table(args) -> int:
    fam = FAMILIES[args.family]
    alpha = _resolve_alpha(args.family, args.alpha)
    if args.n_max < 0:
        raise _UsageError("--n-max must be non-negative")
    if fam.kind == "triangle":
        rows = [
            [_fmt(fam.value(alpha, n, k)) for k in range(n + 1)]
            for n in range(args.n_max + 1)
        ]
        if args.format == "csv":
            print("n,k,value")
            for n, row in enumerate(rows):
                for k, v in enumerate(row):
                    print(f"{n},{k},{v}")
        else:
            print(
                json.dumps(
                    {
                        "family": args.family,
                        "alpha": alpha,
                        "n_max": args.n_max,
                        "rows": rows,
                    },
                    sort_keys=True,
                    indent=2,
                )
            )
    else:
        values = [_fmt(fam.value(alpha, n)) for n in range(args.n_max + 1)]
        if args.format == "csv":
            print("n,value")
            for n, v in enumerate(values):
                print(f"{n},{v}")
        else:
            print(
                json.dumps(
                    {
                        "family": args.family,
                        "alpha": alpha,
                        "n_max": args.n_max,
                        "values": values,
                    },
                    sort_keys=True,
                    indent=2,
                )
            )
    return 0


def _cmd_eval(args) -> int:
    fam = FAMILIES[args.family]
    alpha = _resolve_alpha(args.family, args.alpha)
    if fam.kind == "triangle":
        if args.k is None:
            raise _UsageError(f"family {args.family!r} needs --k")
        value = fam.value(alpha, args.n, args.k)
    else:
        if args.k is not None:
            raise _UsageError(f"family {args.family!r} does not take --k")
        value = fam.value(alpha, args.n)
    print(_fmt(value))
    return 0


def _cmd_verify(args) -> int:
    try:
        alpha_list = tuple(int(a) for a in args.alpha_list.split(","))
    except ValueError:
        raise _UsageError(
            f"--alpha-list must be comma-separated integers, got {args.alpha_list!r}"
        ) from None
    cfg = Config(
        suite=args.suite, alpha_list=alpha_list, n_max=args.n_max, mode=args.mode
    )
    report = run_suite(cfg)
    if args.format == "json":
        print(report_to_json(report, deterministic=True))
    else:
        print(
            f"suite={cfg.suite} alpha_list={','.join(map(str, cfg.alpha_list))}"
            f" n_max={cfg.n_max} mode={cfg.mode}"
        )
        print(f"total={report.total} passed={report.passed} failed={len(report.failed)}")
        for r in report.failed:
            params = json.dumps(r.params, sort_keys=True)
            print(f"FAIL {r.id} {params} lhs={r.lhs_canonical} rhs={r.rhs_canonical}")
    return 0 if not report.failed else 1


def _cmd_series(args) -> int:
    if args.order < 0:
        raise _UsageError("--order must be non-negative")
    if args.k < 0:
        raise _UsageError("--k must be non-negative")
    pairs = []
    if args.id == "r3":
        alpha = args.alpha if args.alpha is not None else 1
        if alpha < 1:
            raise _UsageError("series r3 needs a positive --alpha")
        series = whitney.twl_egf_series(alpha, args.k, args.order)
        for n in range(args.order + 1):
            lhs = series.coeff(n) * math.factorial(n)
            rhs = whitney.twl(alpha, n, args.k)
            pairs.append((str(lhs), str(rhs)))
    else:
        alpha = args.alpha if args.alpha is not None else 1
        if alpha < 1:
            raise _UsageError("series qr1.1 needs a positive --alpha")
        series = qwhitney.qwl_egf_sum_series(alpha, args.k, args.order)
        scale = qfact(args.k, alpha) * qint(alpha) ** args.k
        for n in range(args.order + 1):
            lhs = qfact(n, alpha) * series.coeff(n)
            rhs = scale * qwhitney.qwl(alpha, n, args.k)
            pairs.append((_fmt(lhs), _fmt(rhs)))
    print("n,lhs,rhs")
    for n, (lhs, rhs) in enumerate(pairs):
        print(f"{n},{lhs},{rhs}")
    matched = all(lhs == rhs for lhs, rhs in pairs)
    print(f"match,{'yes' if matched else 'no'}")
    return 0 if matched else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whitneylah",
        description="Exact Lah/Stirling/Whitney/Dowling number families, their"
        " q-analogues, and a machine-checked identity suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit a triangle or sequence table")
    p_table.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p_table.add_argument("--alpha", type=int, default=None)
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(func=_cmd_table)

    p_eval = sub.add_parser("eval", help="evaluate a single family member")
    p_eval.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p_eval.add_argument("--alpha", type=int, default=None)
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--k", type=int, default=None)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument("--suite", choices=("classical", "q", "all"), default="all")
    p_verify.add_argument("--alpha-list", default="1,2")
    p_verify.add_argument("--n-max", type=int, default=8)
    p_verify.add_argument(
        "--mode", choices=("corrected", "as_printed"), default="corrected"
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_series = sub.add_parser(
        "series", help="print both sides of a generating-function identity"
    )
    p_series.add_argument("--id", required=True, choices=SERIES_IDS)
    p_series.add_argument("--alpha", type=int, default=None)
    p_series.add_argument("--k", type=int, required=True)
    p_series.add_argument("--order", type=int, required=True)
    p_series.set_defaults(func=_cmd_series)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # Exact integers of any length must print: lift CPython's int-to-str
    # digit limit (3.11+, some 3.10 patch releases) for the call.
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
