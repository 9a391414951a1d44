"""Command-line frontend: tables, single values, identity verification,
and generating-function inspection, with CSV/JSON output.

All output is deterministic: identical invocations print identical bytes.
Values are always emitted as strings (classical families as decimal
integers, q-families in the canonical Laurent polynomial form) because the
exact integers routinely exceed what consumers of native JSON numbers can
represent. Integers print in full at any length.

The domains of the family functions and identity checks are the library's:
an input outside them raises the library's ``DomainError``, printed as one
``error:`` line with exit code 2, as the CLI's own checks are. ``series``
prints both sides of the ``r3``/``qr1.1`` checks, ``whitney.twl_egf_check``
and ``qroutes.qwl_egf_check``, the very functions the registry holds for
those ids.

Each command imports only the modules it runs, and each module holds only
code that the commands loading it run: with bytecode writing off
(``PYTHONDONTWRITEBYTECODE=1``, or a read-only install), a cold call
compiles every module it loads from source, whether it runs that code or
not. Every call loads ``classical``, the ring-agnostic core that defines
``DomainError``, the triangle engine and the classical families. A
family's function or a series check is read off its module once per
command, which imports that module on a cold call: the classical families
load nothing more; ``whitney1``, ``whitney2``, ``whitney-lah``,
``dowling`` and ``series --id r3`` load ``whitney``, and compute over the
integers without the Laurent kernel ``arith``; the q-families load
``qwhitney``, ``qcalc`` and ``arith``, and their tables and default routes
run nothing more. ``series --id qr1.1`` loads those and ``qroutes``, the q-families'
second routes and series side, with the dense kernel ``dense`` (sums of
products, the Kronecker product and exact division). Only ``verify``
imports the identity registry (``verify``, which holds the command's body)
and ``fractions``; only a JSON table and ``verify`` load ``json``. No
command loads ``dataclasses``, which would bring in ``inspect`` and a dozen
more modules: the registry's records are NamedTuples and ``__slots__``
classes.

The command-line grammar is declared once, as data: ``COMMANDS`` holds
each command's help, handler and options. ``main`` reads a well-formed
argv, ``COMMAND (--flag VALUE)*``, with ``_read``, a strict reader of that
table, and such a call loads none of ``argparse``, ``gettext`` and
``locale``. Help, usage errors and every other form (an abbreviated flag,
``--flag=value``, ``--``) go to the argparse parser that ``build_parser``
makes from the same table, importing ``argparse`` on its first call.

``main()`` is the process entry: the console script and ``python -m
whitneylah.cli`` call it without argv. Once the command has run, it
flushes stdout and then stderr and ends the process by ``os._exit`` with
the exit code, so a cold call skips the interpreter's teardown of every
module that ``site`` and the command loaded. That process's ``atexit``
handlers do not run, so a coverage tool that records subprocesses through
them misses these calls. ``main(argv)`` always returns the exit code.

Exit codes: 0 success (and all checks passed), 1 verification failure,
2 usage or domain error, a command that ran out of memory, or output that
could not be written.
"""

from __future__ import annotations

import os
import sys
from functools import cache, partial
from importlib import import_module
from itertools import chain
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence

from .classical import DomainError


class _Late(NamedTuple):
    """``whitneylah.<module>.<name>``, read when a command binds it, with
    ``args`` as its fixed leading arguments. ``bind`` imports the module and
    reads the name, so a cold call loads only the module it runs, and a
    rebound name (perfbench's tracer wraps them) is the one run; a command
    binds its function once."""

    module: str
    name: str
    args: tuple = ()

    def bind(self) -> Callable:
        fn = getattr(import_module(f"whitneylah.{self.module}"), self.name)
        return partial(fn, *self.args) if self.args else fn


class _Family(NamedTuple):
    """A CLI family: its ``kind`` ("triangle" or "sequence"), whether it
    ``takes_alpha`` (if not, --alpha is a usage error; if so, the library
    checks it) and its ``value``, bound once per command to (alpha, n[, k])
    -> int | LaurentPoly, or to (n[, k]) if it takes no alpha."""

    kind: str
    takes_alpha: bool
    value: _Late


# q-lah is the q-Whitney-Lah triangle at alpha 1, the Garsia-Remmel q-Lah
# numbers: its value is qwl with alpha fixed, and it takes no --alpha
FAMILIES: dict[str, _Family] = {
    family: _Family(kind, takes_alpha, _Late(module, name, tuple(args)))
    for family, kind, takes_alpha, module, name, *args in (
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
        ("q-lah", "triangle", False, "qwhitney", "qwl", 1),
        ("q-dowling", "sequence", True, "qwhitney", "qdowling"),
    )
}

# series id -> its check, bound once per command, as a family's value is
SERIES_CHECKS = {
    "r3": _Late("whitney", "twl_egf_check"),
    "qr1.1": _Late("qroutes", "qwl_egf_check"),
}


def _bind(family: str, alpha: Optional[int]) -> tuple[int, Callable]:
    """The alpha a family's table prints and its value, bound to that alpha
    if it takes one; the library rejects an alpha outside its domain."""
    fam = FAMILIES[family]
    if not fam.takes_alpha and alpha not in (None, 1):
        raise DomainError(f"family {family!r} does not take --alpha")
    alpha = 1 if alpha is None else alpha
    fn = fam.value.bind()
    return alpha, partial(fn, alpha) if fam.takes_alpha else fn


def _cmd_table(args) -> int:
    """A CSV table prints each row as it is computed, so it holds the text
    of one row at a time. Row 0 is computed before the header: an alpha
    the library rejects in row 0 exits 2 with nothing on stdout, and one it
    rejects in a later row exits 2 after the header and the rows already
    printed (a 20-digit alpha of ``q-whitney1`` prints rows 0 and 1, then
    fails on the q-integer of row 2). A JSON table is one document, printed
    once every row is computed, so a rejection in any row leaves stdout
    empty.

    Either way the engine's memo, ``classical._ROWS``, keeps every row the
    sweep asks for, so the values of the whole triangle stay in memory:
    966k coefficients and 86 MB peak RSS at ``table --family q-whitney-lah
    --alpha 3 --n-max 40`` (ROADMAP.md, item 10)."""
    alpha, value = _bind(args.family, args.alpha)
    if args.n_max < 0:
        raise DomainError("--n-max must be non-negative")
    ns = range(args.n_max + 1)
    triangle = FAMILIES[args.family].kind == "triangle"
    if triangle:
        rows = ([str(value(n, k)) for k in range(n + 1)] for n in ns)
    else:
        rows = (str(value(n)) for n in ns)
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
    _, value = _bind(args.family, args.alpha)
    triangle = FAMILIES[args.family].kind == "triangle"
    if triangle == (args.k is None):
        need = "needs" if triangle else "does not take"
        raise DomainError(f"family {args.family!r} {need} --k")
    print(value(args.n, args.k) if triangle else value(args.n))
    return 0


def _cmd_verify(args) -> int:
    from .verify import _verify_command

    return _verify_command(args)


def _cmd_series(args) -> int:
    if args.order < 0:
        raise DomainError("--order must be non-negative")
    if args.k < 0:
        raise DomainError("--k must be non-negative")
    check = SERIES_CHECKS[args.id].bind()
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


class _Option(NamedTuple):
    """One ``--flag VALUE`` option of a command. Its value is ``type`` of
    the text, one of ``choices`` when they are given; an option left out
    takes ``default``, and a ``required`` one may not be left out."""

    flag: str
    type: Callable[[str], object] = str
    choices: Optional[Sequence] = None
    required: bool = False
    default: object = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class _Command(NamedTuple):
    help: str
    handler: Callable[..., int]
    options: tuple[_Option, ...]


_FAMILY = _Option("--family", choices=sorted(FAMILIES), required=True)
_ALPHA = _Option("--alpha", int)

# The command-line grammar: both the strict reader of ``main`` and the
# argparse parser of ``build_parser`` are made from this table.
COMMANDS: dict[str, _Command] = {
    "table": _Command("emit a triangle or sequence table", _cmd_table, (
        _FAMILY,
        _ALPHA,
        _Option("--n-max", int, required=True),
        _Option("--format", choices=("csv", "json"), default="csv"),
    )),
    "eval": _Command("evaluate a single family member", _cmd_eval, (
        _FAMILY,
        _ALPHA,
        _Option("--n", int, required=True),
        _Option("--k", int),
    )),
    "verify": _Command("run the identity suite", _cmd_verify, (
        _Option("--suite", choices=("classical", "q", "all"), default="all"),
        _Option("--alpha-list", default="1,2"),
        _Option("--n-max", int, default=8),
        _Option("--mode", choices=("corrected", "as_printed"), default="corrected"),
        _Option("--format", choices=("text", "json"), default="text"),
    )),
    "series": _Command("print both sides of a generating-function identity", _cmd_series, (
        _Option("--id", choices=tuple(SERIES_CHECKS), required=True),
        _ALPHA,
        _Option("--k", int, required=True),
        _Option("--order", int, required=True),
    )),
}


@cache
def build_parser():
    """The argparse parser of ``COMMANDS``, built on the first call of a
    process that needs it and reused by every later one: parsing leaves it
    as it was. Only this function imports ``argparse``, which loads
    ``gettext``, and whose first message lookup loads ``locale``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="whitneylah",
        description="Exact Lah/Stirling/Whitney/Dowling number families, their"
        " q-analogues, and a machine-checked identity suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in command.options:
            p.add_argument(
                opt.flag, dest=opt.dest, type=opt.type, choices=opt.choices,
                required=opt.required, default=opt.default,
            )
        p.set_defaults(func=command.handler)
    return parser


def _read(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace that argparse makes of a well-formed ``argv``, or None.

    Well-formed is ``COMMAND (--flag VALUE)*``: each flag one of the
    command's, written out in full, every required flag present, and each
    value converted by its flag's type and one of its choices; a flag given
    twice keeps its last value, as in argparse. A value may start with
    ``-`` only as ``-`` and ASCII digits, a negative number to argparse
    too. Any other argv (help, an abbreviated flag, ``--flag=value``,
    ``--``, a bad value or a missing flag) is for argparse, which reads it
    or reports it."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None or len(argv) % 2 == 0:
        return None
    options = {opt.flag: opt for opt in command.options}
    values = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        opt = options.get(flag)
        if opt is None:
            return None
        if text[:1] == "-" and not (text[1:].isascii() and text[1:].isdigit()):
            return None
        try:
            value = opt.type(text)
        except ValueError:
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        values[opt.dest] = value
    if any(opt.required and opt.dest not in values for opt in command.options):
        return None
    defaults = {opt.dest: opt.default for opt in command.options}
    return SimpleNamespace(command=argv[0], func=command.handler, **(defaults | values))


def main(argv: Optional[list[str]] = None) -> int:
    """Run the command line ``argv`` and return its exit code; without
    ``argv``, run ``sys.argv[1:]`` and end the process (module docstring).

    The commands read no file, so an ``OSError`` that reaches the process
    entry is a failed write of their output, to a pipe with no reader or a
    full disk: the process prints one ``error:`` line on stderr, if stderr
    takes it, and exits 2. ``sys.stdout`` is None when fd 1 was closed at
    start-up; ``print`` then writes nothing."""
    if argv is not None:
        return _run(argv)
    try:
        code = _run(sys.argv[1:])
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        code = 2
        try:
            print(f"error: {exc}", file=sys.stderr)
        except OSError:
            pass
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


def _run(argv: list[str]) -> int:
    """The exit code of the command line ``argv``."""
    args = _read(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
