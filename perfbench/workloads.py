"""The benchmark's workloads: lists of whitneylah CLI invocations made from a seed.

Each operation is one CLI call, run in its own fresh interpreter, because a
CLI user always starts with empty memo caches. The seed only permutes the
order of the operations and picks among choices that cost the same: the
order of ``--alpha-list`` for ``verify``. Choices that looked
interchangeable but were measured to cost differently (the sign of alpha,
``k`` of ``series r3``, a table's output format in the warm passes) are
fixed, so a run's figures depend on the program and the machine, not on
the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# verify: the corrected suite, plus a smaller as_printed run that renders the
# documented errata. n_max 6 rather than the CLI default of 8 keeps a pass
# near 3 s, so a run fits three cold and four in-process passes. alpha 3 is
# left out because the q-suite drops it without notice, so it would hide
# grid points.
VERIFY_N_MAX = 6
AS_PRINTED_N_MAX = 4

# qtable: n_max where row building dominates (0.2-0.8 s per table on the
# tuning machine). q-whitney1 and q-whitney2 run at both signs of alpha
# because the two signs cost differently.
QTABLES = (
    ("q-whitney1", 2, 14),
    ("q-whitney1", -2, 14),
    ("q-whitney2", 2, 16),
    ("q-whitney2", -2, 16),
    ("q-whitney-lah", 2, 14),
    ("q-lah", None, 16),
    ("q-dowling", 2, 16),
)

# series_deep: (id, alpha, k, order). r3 stays below order ~700, where its
# numbers would pass the 4300-digit limit of str(int).
SERIES = (
    ("r3", 2, 2, 350),
    ("r3", 3, 3, 300),
    ("qr1.1", 3, 3, 10),
    ("qr1.1", 6, 2, 8),
)

# Two evaluations that fail on every run at the parent commit, on fixed
# inputs: a RecursionError traceback (exit 1) from the recursive row cache,
# and the int->str digit limit reported as a domain error (exit 2).
FAILING_EVALS = (
    ("whitney1", 600, 2),
    ("lah", 1700, 1),
)

WORKLOADS = ("verify", "qtable", "series_deep")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the exit code a correct program gives."""

    argv: tuple[str, ...]
    expect_rc: int = 0

    def label(self) -> str:
        return " ".join(self.argv)


def _verify_ops(rng: random.Random, tiny: bool) -> list[Op]:
    ops = []
    for n_max, mode, rc in (
        (2 if tiny else VERIFY_N_MAX, "corrected", 0),
        (2 if tiny else AS_PRINTED_N_MAX, "as_printed", 1),
    ):
        alphas = ["1", "2"]
        rng.shuffle(alphas)
        argv = ("verify", "--suite", "all", "--alpha-list", ",".join(alphas),
                "--n-max", str(n_max), "--mode", mode, "--format", "json")
        ops.append(Op(argv, rc))
    return ops


def _qtable_ops(rng: random.Random, tiny: bool) -> list[Op]:
    ops = []
    for i, (family, alpha, n_max) in enumerate(QTABLES):
        argv = ["table", "--family", family]
        if alpha is not None:
            argv += ["--alpha", str(alpha)]
        argv += ["--n-max", str(4 if tiny else n_max), "--format", ("csv", "json")[i % 2]]
        ops.append(Op(tuple(argv)))
    return ops


def _series_ops(rng: random.Random, tiny: bool) -> list[Op]:
    ops = []
    for ident, alpha, k, order in SERIES:
        argv = ("series", "--id", ident, "--alpha", str(alpha), "--k", str(k),
                "--order", str(min(order, 6) if tiny else order))
        ops.append(Op(argv))
    for family, n, k in FAILING_EVALS:
        ops.append(Op(("eval", "--family", family, "--n", str(n), "--k", str(k))))
    return ops


_BUILDERS = {"verify": _verify_ops, "qtable": _qtable_ops, "series_deep": _series_ops}


def make_ops(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's operations in a seed-dependent order.

    ``tiny`` shrinks every size so the benchmark's own test can run each
    workload end to end in a few seconds; the failing evaluations keep
    their sizes, since they fail at once.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng, tiny)
    rng.shuffle(ops)
    return ops
