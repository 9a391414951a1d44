"""Command-line frontend: tables, single values, identity verification,
and generating-function inspection, with CSV/JSON output.

All output is deterministic: identical invocations print identical bytes.
Values are always emitted as strings (classical families as decimal
integers, q-families in the canonical Laurent polynomial form) because the
exact integers routinely exceed what consumers of native JSON numbers can
represent. Integers print in full at any length.

The domains of the family functions and identity checks are the library's:
an alpha outside them raises the library's ``InvalidAlpha``, and ``series``
prints both sides of the ``r3``/``qr1.1`` checks, ``whitney.twl_egf_check``
and ``qwhitney.qwl_egf_check``, the very functions the registry holds for
those ids.

Each command imports only the modules it runs, since a cold call pays to
import them. Every call loads the kernel (``arith``, ``qcalc``) and the
engine module ``classical``, which defines ``InvalidAlpha``. A family's
function is read off its family module once per command, which imports
that module on a cold call: the q-families
and ``series --id qr1.1`` load ``qwhitney``; ``whitney1``, ``whitney2``,
``whitney-lah``, ``dowling`` and ``series --id r3`` load ``whitney``; the
classical families load neither. Only ``verify`` imports the identity
registry (``verify``) and ``fractions``; only a JSON table and ``verify``
load ``json``. No command loads ``dataclasses``,
which would bring in ``inspect`` and a dozen more modules: the registry's
records are NamedTuples and ``__slots__`` classes.

Exit codes: 0 success (and all checks passed), 1 verification failure,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from importlib import import_module
from itertools import chain
from typing import Callable, NamedTuple, Optional

from .arith import NonExactDivision
from .classical import InvalidAlpha
from .qcalc import InvalidOrder, NegativeArgument


class _Late:
    """``whitneylah.<module>.<name>``, read when a command binds it. ``bind``
    imports the module and reads the name, so a cold call loads only the
    family module it runs, and a rebound name (perfbench's tracer wraps
    them) is the one run; a command binds its family once."""

    __slots__ = ("path", "name", "takes_alpha")

    def __init__(self, module: str, name: str, takes_alpha: bool):
        self.path, self.name, self.takes_alpha = f"whitneylah.{module}", name, takes_alpha

    def bind(self) -> Callable:
        """(alpha, n[, k]) -> the function at those arguments, the alpha
        dropped if the function takes none."""
        fn = getattr(import_module(self.path), self.name)
        return fn if self.takes_alpha else lambda alpha, *args: fn(*args)


class _Family(NamedTuple):
    """A CLI family: its ``kind`` ("triangle" or "sequence"), whether it
    ``takes_alpha`` (if not, --alpha is a usage error; if so, the library
    checks it) and its ``value``, bound once per command to (alpha, n[, k])
    -> int | LaurentPoly."""

    kind: str
    takes_alpha: bool
    value: _Late


FAMILIES: dict[str, _Family] = {
    family: _Family(kind, takes_alpha, _Late(module, name, takes_alpha))
    for family, kind, takes_alpha, module, name in (
        ("lah", "triangle", False, "classical", "lah"),
        ("stirling1u", "triangle", False, "classical", "stirling1u"),
        ("stirling2", "triangle", False, "classical", "stirling2"),
        ("bell", "sequence", False, "classical", "bell"),
        ("whitney1", "triangle", True, "whitney", "tw1"),
        ("whitney2", "triangle", True, "whitney", "tw2"),
        ("whitney-lah", "triangle", True, "whitney", "twl"),
        ("dowling", "sequence", True, "whitney", "dowling"),
        ("q-whitney1", "triangle", True, "qwhitney", "qw1"),
        ("q-whitney2", "triangle", True, "qwhitney", "qw2"),
        ("q-whitney-lah", "triangle", True, "qwhitney", "qwl"),
        ("q-lah", "triangle", False, "qwhitney", "qlah_gr"),
        ("q-dowling", "sequence", True, "qwhitney", "qdowling"),
    )
}

# series id -> the family module and the name of its check, imported and
# read once per command, as a family's value is
SERIES_CHECKS = {
    "r3": ("whitney", "twl_egf_check"),
    "qr1.1": ("qwhitney", "qwl_egf_check"),
}

# qwhitney.InvalidRange is left out: only the explicit route of qlah_gr
# raises it, and no command takes that route
_DOMAIN_ERRORS = (InvalidAlpha, InvalidOrder, NegativeArgument, NonExactDivision)


class _UsageError(Exception):
    pass


def _resolve_alpha(family: str, alpha: Optional[int]) -> int:
    """The alpha to call the family with; the library rejects an alpha
    outside the family's domain with :class:`InvalidAlpha`."""
    if not FAMILIES[family].takes_alpha and alpha not in (None, 1):
        raise _UsageError(f"family {family!r} does not take --alpha")
    return 1 if alpha is None else alpha


def _cmd_table(args) -> int:
    """A CSV table prints each row as it is computed, so it holds one row in
    memory; row 0 is computed before the header, so that an alpha the
    library rejects exits 2 with nothing on stdout. A JSON table is one
    document, printed once every row is computed."""
    fam = FAMILIES[args.family]
    alpha = _resolve_alpha(args.family, args.alpha)
    if args.n_max < 0:
        raise _UsageError("--n-max must be non-negative")
    ns = range(args.n_max + 1)
    triangle = fam.kind == "triangle"
    value = fam.value.bind()
    if triangle:
        rows = ([str(value(alpha, n, k)) for k in range(n + 1)] for n in ns)
    else:
        rows = (str(value(alpha, n)) for n in ns)
    if args.format == "json":
        import json

        key = "rows" if triangle else "values"
        doc = {"family": args.family, "alpha": alpha, "n_max": args.n_max, key: list(rows)}
        print(json.dumps(doc, sort_keys=True, indent=2))
        return 0
    first = next(rows)
    print("n,k,value" if triangle else "n,value")
    # one print per row: on an unbuffered stdout each print is two writes
    for n, row in enumerate(chain([first], rows)):
        if triangle:
            print("\n".join([f"{n},{k},{cell}" for k, cell in enumerate(row)]))
        else:
            print(f"{n},{row}")
    return 0


def _cmd_eval(args) -> int:
    fam = FAMILIES[args.family]
    alpha = _resolve_alpha(args.family, args.alpha)
    if fam.kind == "triangle":
        if args.k is None:
            raise _UsageError(f"family {args.family!r} needs --k")
        value = fam.value.bind()(alpha, args.n, args.k)
    else:
        if args.k is not None:
            raise _UsageError(f"family {args.family!r} does not take --k")
        value = fam.value.bind()(alpha, args.n)
    print(value)
    return 0


def _cmd_verify(args) -> int:
    import json

    from .verify import Config, InvalidConfig, report_to_json, run_suite

    try:
        alpha_list = tuple(int(a) for a in args.alpha_list.split(","))
    except ValueError:
        raise _UsageError(
            f"--alpha-list must be comma-separated integers, got {args.alpha_list!r}"
        ) from None
    try:
        cfg = Config(
            suite=args.suite, alpha_list=alpha_list, n_max=args.n_max, mode=args.mode
        )
    except InvalidConfig as exc:  # exits 2 with its message, as a domain error does
        raise _UsageError(str(exc)) from None
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
    module, name = SERIES_CHECKS[args.id]
    check = getattr(import_module(f"whitneylah.{module}"), name)
    alpha = 1 if args.alpha is None else args.alpha
    # a row matches when its sides are equal values, as in ``verify``; equal
    # values have one canonical text, so a matching row renders it once
    lines, matched = ["n,lhs,rhs"], True
    for n in range(args.order + 1):
        lhs, rhs = check(alpha=alpha, k=args.k, n=n, order=args.order)
        text = str(lhs)
        if lhs == rhs:
            lines.append(f"{n},{text},{text}")
        else:
            matched = False
            lines.append(f"{n},{text},{rhs}")
    lines.append(f"match,{'yes' if matched else 'no'}")
    print("\n".join(lines))
    return 0 if matched else 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call of a process and
    reused by every later one: parsing leaves it as it was."""
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
    p_series.add_argument("--id", required=True, choices=tuple(SERIES_CHECKS))
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
    except (_UsageError, *_DOMAIN_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
