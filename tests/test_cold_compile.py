"""``tools/cold_compile.py`` on one tiny command line, with one compiling
interpreter: it lists the package modules the call loads with a compile
time each, and the functions and methods the call never enters."""

import importlib.util
import re
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cold_compile.py"
_SPEC = importlib.util.spec_from_file_location("cold_compile", _PATH)
cold_compile = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cold_compile)


def test_one_q_lah_eval(capsys):
    assert cold_compile.main(["--command", "eval --family q-lah --n 3 --k 1", "--runs", "1"]) == 0
    out = capsys.readouterr().out
    timed = dict(re.findall(r"^  (whitneylah[\w.]*) +(\d+\.\d{3})$", out, re.M))
    assert set(timed) == {
        "whitneylah", "whitneylah.arith", "whitneylah.classical", "whitneylah.cli",
        "whitneylah.qcalc", "whitneylah.qwhitney",
    }
    assert out.startswith("1 command lines, exit codes 0\n")
    uncalled = dict(re.findall(r"^  (whitneylah(?:\.\w+){2,3}) (\d+)$", out, re.M))
    # q-lah runs qwl's recurrence at alpha 1: the other families and _cmd_table never run
    assert {"whitneylah.qwhitney.qw1", "whitneylah.cli._cmd_table"} <= set(uncalled)
    assert "whitneylah.qwhitney.qwl" not in uncalled
    assert "whitneylah.cli._cmd_eval" not in uncalled
    # methods are listed as module.Class.method: a cell multiplies no series,
    # and printing it renders a polynomial
    assert "whitneylah.classical.TruncSeries.__mul__" in uncalled
    assert "whitneylah.arith.LaurentPoly.to_str" not in uncalled
    assert all(int(lines) > 0 for lines in uncalled.values())
