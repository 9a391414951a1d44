"""The argparse parser of the command line, for what ``cli._read`` leaves.

``cli._run`` imports this module only when its strict reader returns None:
for help, a usage error, or a form of argv that only argparse reads (an
abbreviated flag, ``--flag=value``, ``--``). A well-formed call therefore
neither compiles this module nor loads ``argparse``, which loads
``gettext``, and whose first message lookup loads ``locale``.
"""

from __future__ import annotations

import argparse
from functools import cache

from .cli import COMMANDS


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``cli.COMMANDS``, built on the first call of
    a process that needs it and reused by every later one: parsing leaves
    it as it was."""
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
