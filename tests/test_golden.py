"""CLI output and every identity check must stay byte-identical to the
golden files in tests/golden/.

The CLI files were rendered by the sparse dict-of-Fraction kernel that
preceded the dense integer kernel; each case is (file name, expected exit
code, argv).
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from whitneylah import cli
from whitneylah.verify import Config, check_identity, get_identity, registry_ids

GOLDEN = Path(__file__).parent / "golden"

VERIFY = ["verify", "--suite", "all", "--alpha-list", "1,2,3", "--n-max", "6", "--format", "json"]

CASES = [
    ("verify_corrected.json", 0, VERIFY),
    ("verify_as_printed.json", 1, VERIFY + ["--mode", "as_printed"]),
    ("table_q-whitney1_alpha-2.csv", 0, ["table", "--family", "q-whitney1", "--alpha", "-2"]),
    ("table_q-whitney2_alpha3.csv", 0, ["table", "--family", "q-whitney2", "--alpha", "3"]),
    ("table_q-whitney-lah_alpha2.csv", 0, ["table", "--family", "q-whitney-lah", "--alpha", "2"]),
    ("table_q-lah.csv", 0, ["table", "--family", "q-lah"]),
    ("table_q-dowling_alpha2.csv", 0, ["table", "--family", "q-dowling", "--alpha", "2"]),
    (
        "series_qr1.1_alpha3_k3_order6.csv",
        0,
        ["series", "--id", "qr1.1", "--alpha", "3", "--k", "3", "--order", "6"],
    ),
]


@pytest.mark.parametrize("name,rc,argv", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(capsys, name, rc, argv):
    if argv[0] == "table":
        argv = argv + ["--format", "csv", "--n-max", "8"]
    assert cli.main(argv) == rc
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


# Every check's rendered sides, not only the failures a report prints: for
# each mode, identity id -> [check count, sha256 of its sorted
# (params, passed, lhs, rhs) lines] over the grid that
# run_suite(alpha_list=(1, 2, 3), n_max=12) runs, where every grid reaches
# its cap. Captured from the hand-written registry that preceded the
# declarative one.
CHECKS = "verify_checks.json"


def checks_digest(mode: str) -> dict:
    cfg = Config(suite="all", alpha_list=(1, 2, 3), n_max=12, mode=mode)
    digest = {}
    for ident in registry_ids():
        spec = get_identity(ident)
        point_mode = mode if mode in spec.modes else "corrected"
        results = (
            check_identity(ident, {**p, "mode": point_mode}) for p in spec.domain(cfg)
        )
        lines = sorted(
            json.dumps(
                [r.params, r.passed, r.lhs_canonical, r.rhs_canonical], sort_keys=True
            )
            for r in results
        )
        sha = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        digest[ident] = [len(lines), sha]
    return digest


@pytest.mark.parametrize("mode", ["corrected", "as_printed"])
def test_every_check_matches_golden(mode):
    assert checks_digest(mode) == json.loads((GOLDEN / CHECKS).read_text())[mode]


# Every q-family table at n_max 30, in both formats, at alpha 3, -3 and 1
# (q-lah, which takes no alpha, at 1 alone): family -> format -> alpha ->
# [exit code, sha256 of stdout]. A table that rejects its alpha exits 2 with
# nothing on stdout. Captured from the term-by-term renderer that preceded
# the one-format-per-polynomial ``to_str``.
Q_TABLES = "q_tables_n30.json"


def q_tables_digest() -> dict:
    digest = {}
    for family, fam in cli.FAMILIES.items():
        if not family.startswith("q-"):
            continue
        for fmt in ("csv", "json"):
            for alpha in (3, -3, 1) if fam.takes_alpha else (1,):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    argv = ["table", "--family", family, "--alpha", str(alpha)]
                    rc = cli.main(argv + ["--n-max", "30", "--format", fmt])
                sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
                digest.setdefault(family, {}).setdefault(fmt, {})[str(alpha)] = [rc, sha]
    return digest


def test_q_tables_match_golden():
    assert q_tables_digest() == json.loads((GOLDEN / Q_TABLES).read_text())


# ``series`` rows of both ids, deep and at the edges (k = 0, k > order,
# order 0): id -> "alpha,k,order" -> [exit code, sha256 of stdout].
# Captured from the ``Fraction`` series whose every row rendered both sides.
SERIES_ROWS = "series_rows.json"
SERIES_CASES = {
    "r3": ((2, 2, 350), (3, 3, 300), (1, 0, 40), (2, 7, 40), (3, 9, 4), (1, 2, 0), (2, 3, 1200)),
    "qr1.1": ((3, 3, 10), (6, 2, 8), (1, 4, 12), (2, 0, 6)),
}


def series_rows_digest() -> dict:
    digest = {}
    for ident, cases in SERIES_CASES.items():
        for alpha, k, order in cases:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                argv = ["series", "--id", ident, "--alpha", str(alpha), "--k", str(k)]
                rc = cli.main(argv + ["--order", str(order)])
            sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
            digest.setdefault(ident, {})[f"{alpha},{k},{order}"] = [rc, sha]
    return digest


def test_series_rows_match_golden():
    assert series_rows_digest() == json.loads((GOLDEN / SERIES_ROWS).read_text())


# Command lines that the CLI leaves to argparse: help, usage errors, an
# abbreviated flag, ``--flag=value`` and ``--``: argv -> exit code, stdout
# and stderr, captured with COLUMNS=80 from the CLI that parsed every argv
# with argparse. argparse words its help differently across Python
# versions, so the file records the version it was captured on.
ARGPARSE_PATHS = "cli_argparse_paths.json"
_ARGPARSE_GOLDEN = json.loads((GOLDEN / ARGPARSE_PATHS).read_text())


@pytest.mark.skipif(
    "%d.%d" % sys.version_info[:2] != _ARGPARSE_GOLDEN["python"],
    reason=f"argparse wording of Python {_ARGPARSE_GOLDEN['python']}",
)
@pytest.mark.parametrize(
    "case", _ARGPARSE_GOLDEN["cases"], ids=lambda case: " ".join(case["argv"]) or "no-args"
)
def test_argparse_paths_match_golden(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", str(_ARGPARSE_GOLDEN["columns"]))
    assert cli._read(case["argv"]) is None
    rc = cli.main(list(case["argv"]))
    out, err = capsys.readouterr()
    assert (rc, out, err) == (case["rc"], case["stdout"], case["stderr"])


# ``eval`` at one deep cell of every family and at one cell it rejects:
# family -> argv after the family -> [exit code, sha256 of stdout]. The
# deep cells build rows through the triangle engine, or read a closed form
# where the family has one (``lah``); the rejected cells exit 2 with
# nothing on stdout. Captured from the CLI whose ``twl`` took ``method``
# and whose Qi-type and Dobinski routes were functions of their own.
EVAL_CELLS = "eval_cells.json"
_DEEP = ["--n", "300", "--k", "150"]
_Q_DEEP = ["--n", "24", "--k", "12"]
EVAL_CASES = {
    "lah": (_DEEP, ["--alpha", "2", "--n", "3", "--k", "1"]),
    "stirling1u": (_DEEP, ["--alpha", "2", "--n", "3", "--k", "1"]),
    "stirling2": (_DEEP, ["--alpha", "2", "--n", "3", "--k", "1"]),
    "bell": (["--n", "200"], ["--n", "3", "--k", "1"]),
    "whitney1": (["--alpha", "3", *_DEEP], ["--alpha", "0", "--n", "3", "--k", "1"]),
    "whitney2": (["--alpha", "3", *_DEEP], ["--alpha", "0", "--n", "3", "--k", "1"]),
    "whitney-lah": (["--alpha", "3", *_DEEP], ["--alpha", "0", "--n", "3", "--k", "1"]),
    "dowling": (["--alpha", "3", "--n", "200"], ["--alpha", "0", "--n", "3"]),
    "q-whitney1": (
        ["--alpha", "3", *_Q_DEEP],
        ["--alpha", "-2", *_Q_DEEP],
        ["--alpha", "0", "--n", "3", "--k", "1"],
    ),
    "q-whitney2": (
        ["--alpha", "3", *_Q_DEEP],
        ["--alpha", "-2", *_Q_DEEP],
        ["--alpha", "0", "--n", "3", "--k", "1"],
    ),
    "q-whitney-lah": (["--alpha", "3", *_Q_DEEP], ["--alpha", "-2", "--n", "3", "--k", "1"]),
    "q-lah": (_Q_DEEP, ["--alpha", "2", "--n", "3", "--k", "1"]),
    "q-dowling": (["--alpha", "2", "--n", "16"], ["--alpha", "-2", "--n", "3"]),
}


def eval_cells_digest() -> dict:
    digest = {}
    for family, cells in EVAL_CASES.items():
        for cell in cells:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(["eval", "--family", family, *cell])
            sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
            digest.setdefault(family, {})[" ".join(cell)] = [rc, sha]
    return digest


def test_eval_cells_match_golden():
    assert sorted(EVAL_CASES) == sorted(cli.FAMILIES)
    golden = json.loads((GOLDEN / EVAL_CELLS).read_text())
    assert eval_cells_digest() == golden
    # each family has a cell that computes and one that it rejects
    for family, cells in golden.items():
        assert sorted({rc for rc, _ in cells.values()}) == [0, 2], family
