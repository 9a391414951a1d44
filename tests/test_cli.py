"""CLI tests: subcommand behavior, output formats, determinism, and the
0/1/2 exit-code contract."""

import contextlib
import importlib
import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whitneylah import cli, cli_parser
from whitneylah.cli import FAMILIES, main
from whitneylah.qwhitney import qwl


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_writes(monkeypatch) -> list:
    """Every string written to stdout from here on, one entry per write."""
    writes = []

    class Counting:
        def write(self, text):
            writes.append(text)
            return len(text)

    monkeypatch.setattr(sys, "stdout", Counting())
    return writes


class TestTable:
    def test_whitney_lah_csv(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--family", "whitney-lah", "--alpha", "2",
            "--n-max", "3", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,value"
        assert "3,2,12" in lines
        assert "3,1,24" in lines

    def test_q_family_csv_uses_canonical_strings(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "q-lah", "--n-max", "2", "--format", "csv",
        )
        assert code == 0
        assert "2,1,1 + q" in out.splitlines()
        assert "2,2,q^2" in out.splitlines()

    def test_json_triangle_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "stirling2", "--n-max", "4",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "stirling2"
        assert doc["alpha"] == 1
        assert doc["n_max"] == 4
        assert doc["rows"][4][2] == "7"
        assert all(isinstance(v, str) for row in doc["rows"] for v in row)

    def test_sequence_family_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "bell", "--n-max", "5", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value"
        assert lines[-1] == "5,52"

    def test_sequence_family_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "dowling", "--alpha", "2",
            "--n-max", "3", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["values"] == ["1", "1", "3", "11"]

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_csv_lists_the_cells_of_the_json_table(self, capsys, family):
        alpha = ["--alpha", "2"] if FAMILIES[family].takes_alpha else []
        argv = ["table", "--family", family, *alpha, "--n-max", "6"]
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        doc = json.loads(run_cli(capsys, *argv, "--format", "json")[1])
        if FAMILIES[family].kind == "triangle":
            cells = [f"{n},{k},{v}" for n, row in enumerate(doc["rows"]) for k, v in enumerate(row)]
            header = "n,k,value"
        else:
            cells = [f"{n},{v}" for n, v in enumerate(doc["values"])]
            header = "n,value"
        assert (code, out) == (0, "".join(f"{line}\n" for line in [header, *cells]))

    def test_csv_prints_each_row_before_the_next_is_computed(self, capsys, monkeypatch):
        """Row 0 is computed before the header, so that a rejected alpha
        prints nothing; then each row is printed before the next is computed."""
        qwhitney = importlib.import_module("whitneylah.qwhitney")
        qw1, events = qwhitney.qw1, []

        def logged(alpha, n, k):
            events.extend(capsys.readouterr().out.splitlines())
            events.append(f"cell {n},{k}")
            return qw1(alpha, n, k)

        monkeypatch.setattr(qwhitney, "qw1", logged)
        assert main(["table", "--family", "q-whitney1", "--alpha", "2", "--n-max", "2"]) == 0
        events.extend(capsys.readouterr().out.splitlines())
        expected = []
        for n in range(3):
            expected += [f"cell {n},{k}" for k in range(n + 1)]
            expected += ["n,k,value"] if n == 0 else []
            expected += [f"{n},{k},{qw1(2, n, k)}" for k in range(n + 1)]
        assert events == expected

    @pytest.mark.parametrize("family", ["q-whitney1", "q-dowling"])
    def test_csv_writes_one_print_per_row(self, monkeypatch, family):
        """The header and each row are one ``print`` each, a text and its
        newline: two writes, however many cells the row holds."""
        writes = count_writes(monkeypatch)
        assert main(["table", "--family", family, "--alpha", "2", "--n-max", "4"]) == 0
        assert len(writes) == 2 * (1 + 5)
        assert writes[2] == "0,0,1" if family == "q-whitney1" else "0,1"

    def test_alpha_rejected_for_fixed_families(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--family", "lah", "--alpha", "2", "--n-max", "3",
        )
        assert code == 2
        assert "alpha" in err


class TestEval:
    def test_q_lah(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "q-lah", "--n", "2", "--k", "1")
        assert code == 0
        assert out == "1 + q\n"

    def test_classical_decimal(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--family", "whitney-lah", "--alpha", "3",
            "--n", "2", "--k", "1",
        )
        assert code == 0
        assert out == "6\n"

    def test_sequence_family(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--family", "bell", "--n", "5")
        assert code == 0
        assert out == "52\n"

    def test_negative_alpha_q_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--family", "q-whitney2", "--alpha", "-1",
            "--n", "2", "--k", "1",
        )
        assert code == 0
        assert out == "-q^-1\n"

    def test_missing_k_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--family", "lah", "--n", "3")
        assert code == 2
        assert "--k" in err

    def test_k_on_sequence_family_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--family", "bell", "--n", "3", "--k", "1"
        )
        assert code == 2

    def test_zero_alpha_on_q_family_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--family", "q-whitney1", "--alpha", "0",
            "--n", "2", "--k", "1",
        )
        assert code == 2


class TestVerify:
    def test_json_report_all_passed(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "classical", "--alpha-list", "1",
            "--n-max", "4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["failed"] == []
        assert doc["total"] == doc["passed"]
        assert doc["wall_ms"] == 0

    def test_text_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "classical", "--alpha-list", "1,2",
            "--n-max", "3",
        )
        assert code == 0
        assert out.startswith("suite=classical alpha_list=1,2 n_max=3 mode=corrected\n")
        assert "failed=0" in out

    def test_as_printed_exits_nonzero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "q", "--alpha-list", "1", "--n-max", "2",
            "--mode", "as_printed", "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert {e["id"] for e in doc["failed"]} == {"qr2", "qr2.1"}

    def test_bad_suite_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "imaginary")
        assert code == 2


class TestParser:
    def test_well_formed_calls_build_no_parser_and_two_errors_build_it_once(self, capsys):
        cli_parser.build_parser.cache_clear()
        assert run_cli(capsys, "eval", "--family", "lah", "--n", "3", "--k", "2")[:2] == (0, "6\n")
        assert run_cli(capsys, "eval", "--family", "q-lah", "--n", "2", "--k", "1")[:2] == (
            0, "1 + q\n"
        )
        assert cli_parser.build_parser.cache_info().misses == 0
        assert run_cli(capsys, "eval", "--family", "lah", "--k", "2")[0] == 2
        assert run_cli(capsys, "eval", "--family", "nope", "--n", "3")[0] == 2
        info = cli_parser.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_bad_family_after_a_good_call_exits_2_as_a_first_call_does(self, capsys):
        bad = ("table", "--family", "q-nothing", "--n-max", "2")
        cli_parser.build_parser.cache_clear()
        first = run_cli(capsys, *bad)
        assert run_cli(capsys, "eval", "--family", "lah", "--n", "3", "--k", "2")[0] == 0
        again = run_cli(capsys, *bad)
        assert again == first
        assert again[0] == 2 and again[1] == ""
        assert "invalid choice: 'q-nothing'" in again[2]
        assert cli_parser.build_parser.cache_info().misses == 1

    def test_the_reader_reads_every_benchmark_command_line(self, bench_ops):
        """The calls the benchmark times, at full size, skip argparse."""
        for workload in bench_ops.WORKLOADS:
            for op in bench_ops.make_ops(workload, 0):
                read = cli._read(list(op.argv))
                assert read is not None, op.argv
                assert read.func is cli.COMMANDS[op.argv[0]].handler

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--family", "q-lah", "--alpha", "-2", "--n-max", "3"),
            ("verify", "--alpha-list", "-1"),
            ("series", "--id", "r3", "--k", "+2", "--order", " 3"),
            ("table", "--family", "lah", "--n-max", "3", "--n-max", "4"),
        ],
    )
    def test_a_negative_or_signed_integer_and_a_repeated_flag_read_as_in_argparse(
        self, argv
    ):
        assert vars(cli._read(list(argv))) == vars(cli_parser.build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("table",),
            ("table", "--family", "lah"),
            ("table", "--family", "lah", "--n-max", "3", "--format"),
            ("table", "--family", "lah", "--n-max", "-٣"),
            ("table", "--family", "lah", "--n-max", "3.0"),
            ("table", "--family", "lah", "--n-max", "3", "--k", "1"),
            ("verify", "--alpha-list", "-1,2"),
            ("verify", "--alpha-list", "-"),
            ("eval", "--family", "lah", "--n", "3", "-h", "1"),
            ("eval", "--family", "lah", "--n", "9" * 5000),
        ],
    )
    def test_any_other_argv_is_for_argparse(self, argv):
        assert cli._read(list(argv)) is None


def argparse_reads(argv: list) -> Optional[dict]:
    """vars() of argparse's namespace for ``argv``, or None where it reports
    an error or prints help."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli_parser.build_parser().parse_args(argv))
    except SystemExit:
        return None


# awkward tokens: abbreviated flags, ``=`` forms, help, ``--``, the empty
# string, and values that int() or argparse read in unusual ways
HOSTILE = (
    "--n", "--fam", "--n-max=3", "--family=lah", "--alpha=-2", "-h", "--help", "--", "",
    "+3", " 4", "5_0", "-٣", "٣", "3.0", "-", "-x", "-2", "0", "1,2", "table",
)
FLAGS = sorted({opt.flag for command in cli.COMMANDS.values() for opt in command.options})


def option_values(opt, ints: st.SearchStrategy) -> st.SearchStrategy:
    if opt.choices is not None:
        return st.sampled_from(opt.choices)
    if opt.type is int:
        return ints.map(str)
    return st.sampled_from(("1,2", "3", "-1", "2,1,3", "x"))


@st.composite
def argvs(draw, ints=st.integers(-30, 30), hostile=HOSTILE) -> list:
    """A command's argv: its required flags and some others, some twice, in
    any order, each with a good value (an int option's drawn from ``ints``)
    or one time in four a ``hostile`` one, and then up to two hostile
    tokens inserted anywhere; with no ``hostile`` tokens, every value is
    good and nothing is inserted."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    options = cli.COMMANDS[name].options
    chosen = [opt for opt in options if opt.required or draw(st.booleans())]
    chosen += draw(st.lists(st.sampled_from(options), max_size=1))
    argv = [name]
    for opt in draw(st.permutations(chosen)):
        bad = bool(hostile) and draw(st.integers(0, 3)) == 0
        argv += [opt.flag, draw(st.sampled_from(hostile) if bad else option_values(opt, ints))]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2))) if hostile else 0):
        token = draw(st.sampled_from(hostile + tuple(FLAGS)))
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@given(argvs())
@settings(max_examples=400, deadline=None)
def test_a_namespace_the_reader_returns_is_the_one_argparse_parses(argv):
    read = cli._read(argv)
    if read is not None:
        assert vars(read) == argparse_reads(argv)


# The CLI contract: exit 0, 1 or 2; no traceback; an exit 2 prints one
# ``error:`` line, or argparse's usage and its error line for a malformed
# command line. Drawn sizes stay at 6 or below so that a call takes
# milliseconds: the hostile "5_0", which int() reads as 50, becomes "0_6".
SMALL_HOSTILE = tuple("0_6" if token == "5_0" else token for token in HOSTILE)
# an alpha of 20 digits: past sys.maxsize, so a q-integer of it cannot be
# stored, and an alpha from about 10^8 to 10^18 is never drawn, since its
# q-integers may allocate gigabytes before they fail
HUGE = "9" * 20


def run_quietly(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def is_usage_error(err: str) -> bool:
    """argparse's report of a malformed command line: its usage, then one
    ``PROG: error: MESSAGE`` line."""
    *usage, last = err.rstrip("\n").split("\n")
    return bool(usage) and usage[0].startswith("usage: whitneylah") and (
        last.startswith("whitneylah") and ": error: " in last
    )


@given(argvs(st.integers(-6, 6), SMALL_HOSTILE))
@settings(max_examples=200, deadline=None)
# the two spellings of one alpha list that argparse and the reader tell
# apart: pinned by test_a_negative_alpha_list_is_read_by_its_spelling
@example(["verify", "--alpha-list", "-1,2"])
@example(["verify", "--alpha-list=-1,2"])
# a 20-digit alpha asks the q-families for a q-integer with more
# coefficients than a tuple holds
@example(["table", "--family", "q-whitney1", "--alpha", HUGE, "--n-max", "7"])
@example(["eval", "--family", "q-whitney2", "--alpha", HUGE, "--n", "3", "--k", "1"])
@example(["eval", "--family", "q-whitney-lah", "--alpha", HUGE, "--n", "3", "--k", "1"])
@example(["eval", "--family", "q-dowling", "--alpha", HUGE, "--n", "3"])
@example(["eval", "--family", "q-whitney1", "--alpha", f"-{HUGE}", "--n", "3", "--k", "1"])
@example(["series", "--id", "qr1.1", "--alpha", HUGE, "--k", "1", "--order", "3"])
def test_every_command_line_keeps_the_cli_contract(argv):
    code, _, err = run_quietly(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        one_line = err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert one_line or is_usage_error(err), err
    else:
        assert err == ""


def test_a_negative_alpha_list_is_read_by_its_spelling():
    """``--alpha-list -1,2`` looks like a flag to argparse, which reports a
    missing value; ``--alpha-list=-1,2`` reaches the library, which rejects
    alpha -1. Both exit 2 within the contract, with different errors for
    one input."""
    code, out, err = run_quietly(["verify", "--alpha-list", "-1,2"])
    assert (code, out) == (2, "")
    assert is_usage_error(err)
    assert err.endswith("error: argument --alpha-list: expected one argument\n")
    assert run_quietly(["verify", "--alpha-list=-1,2"]) == (
        2, "", "error: no identity of suite 'all' checks alpha -1;"
        " the alphas it checks are 1, 2, 3\n",
    )


class TestSeries:
    def test_r3(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--id", "r3", "--alpha", "2", "--k", "2",
            "--order", "5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,lhs,rhs"
        assert lines[1] == "0,0,0"
        assert lines[3] == "2,1,1"
        assert lines[4] == "3,12,12"
        assert lines[-1] == "match,yes"

    def test_qr1_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--id", "qr1.1", "--alpha", "1", "--k", "1",
            "--order", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == "1,1,1"
        assert lines[3] == "2,1 + q,1 + q"
        assert lines[-1] == "match,yes"

    def test_unknown_id_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "series", "--id", "r9", "--k", "1", "--order", "3")
        assert code == 2

    @pytest.mark.parametrize(
        "ident, module, name",
        [("r3", "whitney", "twl_egf_check"), ("qr1.1", "qroutes", "qwl_egf_check")],
    )
    def test_runs_the_registry_check(self, capsys, monkeypatch, ident, module, name):
        """The registry's check for the id is the family function that
        ``series`` calls, so the two cannot drift apart."""
        from whitneylah.verify import get_identity

        family = importlib.import_module(f"whitneylah.{module}")
        check = get_identity(ident).check
        assert check is getattr(family, name)
        ns = []

        def spy(**kwargs):
            ns.append(kwargs["n"])
            return check(**kwargs)

        monkeypatch.setattr(family, name, spy)
        code, out, _ = run_cli(capsys, "series", "--id", ident, "--k", "1", "--order", "3")
        assert (code, ns, out.splitlines()[-1]) == (0, [0, 1, 2, 3], "match,yes")


    def test_a_warm_repeat_takes_no_factorial_per_row(self, capsys, monkeypatch):
        """The memos hold each coefficient times n! or [n]_{q^a}!: a warm
        repeat reads them, and takes only k! (r3's division) and
        [k]_{q^a}! (qr1.1's engine side)."""
        from whitneylah import qroutes

        r3 = ("series", "--id", "r3", "--alpha", "2", "--k", "2", "--order", "350")
        qr1_1 = ("series", "--id", "qr1.1", "--alpha", "3", "--k", "3", "--order", "10")
        cold = [run_cli(capsys, *argv) for argv in (r3, qr1_1)]
        factorial, qfact = math.factorial, qroutes.qfact
        factorials, qfacts = [], []

        def counted_factorial(n):
            factorials.append(n)
            return factorial(n)

        def counted_qfact(n, base=1):
            qfacts.append(n)
            return qfact(n, base)

        monkeypatch.setattr(math, "factorial", counted_factorial)
        monkeypatch.setattr(qroutes, "qfact", counted_qfact)
        assert [run_cli(capsys, *argv) for argv in (r3, qr1_1)] == cold
        assert factorials and max(factorials) <= 2
        assert qfacts and set(qfacts) == {3}

    def test_prints_in_one_write(self, capsys, monkeypatch):
        argv = ["series", "--id", "qr1.1", "--alpha", "2", "--k", "1", "--order", "3"]
        _, out, _ = run_cli(capsys, *argv)
        writes = count_writes(monkeypatch)
        assert main(argv) == 0
        assert writes == [out[:-1], "\n"]  # the text and print's newline
        assert len(out.splitlines()) == 1 + 4 + 1


class TestFamilies:
    @pytest.mark.parametrize("command", ["table", "eval"])
    @pytest.mark.parametrize(
        "family, module, name",
        [("q-whitney1", "qwhitney", "qw1"), ("whitney1", "whitney", "tw1")],
    )
    def test_runs_the_name_bound_in_the_family_module(
        self, capsys, monkeypatch, command, family, module, name
    ):
        """A family's value reads its function off the module at call time,
        so a wrapper bound there (perfbench's tracer binds one) is what
        ``table`` and ``eval`` run."""
        mod = importlib.import_module(f"whitneylah.{module}")
        fn = getattr(mod, name)
        calls = []

        def counting(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(mod, name, counting)
        if command == "table":
            code, out, _ = run_cli(
                capsys, "table", "--family", family, "--alpha", "2", "--n-max", "2"
            )
            cells = [(2, n, k) for n in range(3) for k in range(n + 1)]
            assert (code, calls) == (0, cells)
            assert out.splitlines()[-1] == f"2,2,{fn(2, 2, 2)}"
        else:
            code, out, _ = run_cli(
                capsys, "eval", "--family", family, "--alpha", "2", "--n", "3",
                "--k", "1",
            )
            assert (code, calls, out) == (0, [(2, 3, 1)], f"{fn(2, 3, 1)}\n")

    @pytest.mark.parametrize("family", ["q-whitney1", "lah"])
    def test_a_table_reads_the_family_function_once(self, capsys, monkeypatch, family):
        """A command imports the family module and reads the name once, not
        once per cell."""
        lookups = []

        def import_module(path):
            lookups.append(path)
            return importlib.import_module(path)

        monkeypatch.setattr(cli, "import_module", import_module)
        code, out, _ = run_cli(capsys, "table", "--family", family, "--n-max", "5")
        assert (code, len(out.splitlines())) == (0, 1 + 21)
        assert lookups == [f"whitneylah.{'qwhitney' if family[0] == 'q' else 'classical'}"]


class TestDeterminism:
    EXAMPLES = [
        ("table", "--family", "whitney-lah", "--alpha", "2", "--n-max", "3",
         "--format", "csv"),
        ("table", "--family", "q-whitney1", "--alpha", "-2", "--n-max", "4",
         "--format", "json"),
        ("eval", "--family", "q-lah", "--n", "2", "--k", "1"),
        ("verify", "--suite", "q", "--alpha-list", "1,2", "--n-max", "3",
         "--format", "json"),
        ("series", "--id", "qr1.1", "--alpha", "2", "--k", "2", "--order", "4"),
    ]

    @pytest.mark.parametrize("argv", EXAMPLES, ids=lambda a: a[0])
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2
        assert out1 == out2


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_family(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--family", "catalan", "--n-max", "3")
        assert code == 2

    def test_negative_n_max(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--family", "lah", "--n-max", "-1")
        assert code == 2

    def test_bad_alpha_list_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--alpha-list", "1,x")
        assert code == 2
        assert out == ""
        assert "--alpha-list" in err

    @pytest.mark.parametrize("alphas", ["0", "5"])
    def test_alpha_no_identity_checks_is_domain_error(self, capsys, alphas):
        code, out, err = run_cli(
            capsys, "verify", "--alpha-list", alphas, "--n-max", "3"
        )
        assert code == 2
        assert out == ""
        assert f"checks alpha {alphas}; the alphas it checks are 1, 2, 3" in err

    def test_repeated_alpha_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--alpha-list", "1,1", "--n-max", "3")
        assert code == 2
        assert out == ""
        assert err == "error: alpha_list repeats alpha 1\n"

    def test_q_suite_runs_alpha_three_in_pe1(self, capsys):
        # 44 pe1 checks at alpha 3 plus 36 that take no alpha
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "q", "--alpha-list", "3", "--n-max", "3"
        )
        assert code == 0
        assert "total=80 passed=80 failed=0" in out

    @pytest.mark.parametrize("alpha", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("series", "--id", "r3", "--k", "2", "--order", "4"),
            ("series", "--id", "qr1.1", "--k", "2", "--order", "4"),
            ("table", "--family", "whitney1", "--n-max", "3"),
            ("eval", "--family", "q-whitney-lah", "--n", "3", "--k", "1"),
            ("eval", "--family", "q-dowling", "--n", "3"),
        ],
        ids=lambda argv: " ".join(argv[:3]),
    )
    def test_alpha_outside_the_library_domain_is_a_domain_error(
        self, capsys, argv, alpha
    ):
        code, out, err = run_cli(capsys, *argv, "--alpha", alpha)
        assert (code, out) == (2, "")
        assert err == f"error: alpha must be a positive integer, got {alpha}\n"

    def test_zero_alpha_on_q_whitney1_is_a_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--family", "q-whitney1", "--alpha", "0", "--n-max", "3"
        )
        assert (code, out) == (2, "")
        assert err == "error: alpha must be a nonzero integer, got 0\n"

    def test_an_alpha_rejected_past_row_0_follows_the_rows_already_printed(self, capsys):
        """Row 1 of the first kind reads [0]; row 2 reads [-alpha], which a
        20-digit alpha cannot store, so the header and rows 0 and 1 are out
        before the error."""
        code, out, err = run_cli(
            capsys, "table", "--family", "q-whitney1", "--alpha", HUGE, "--n-max", "7"
        )
        assert (code, out) == (2, "n,k,value\n0,0,1\n1,0,0\n1,1,1\n")
        assert err == (
            f"error: the q-integer [-{HUGE}] over q^1 is too large to store:"
            f" {HUGE} coefficients\n"
        )

    @pytest.mark.parametrize("family", ["bell", "lah", "q-lah"])
    def test_alpha_on_a_family_without_one_is_a_usage_error(self, capsys, family):
        code, out, err = run_cli(
            capsys, "table", "--family", family, "--alpha", "2", "--n-max", "3"
        )
        assert (code, out) == (2, "")
        assert err == f"error: family {family!r} does not take --alpha\n"

    @pytest.mark.parametrize("family", ["bell", "lah", "q-lah"])
    def test_alpha_1_on_a_family_without_one_is_its_own_case(self, capsys, family):
        """These families are the alpha = 1 case of the translated ones."""
        argv = ("table", "--family", family, "--n-max", "3")
        plain = run_cli(capsys, *argv)
        assert plain[0] == 0 and plain[1]
        assert run_cli(capsys, *argv, "--alpha", "1") == plain

    def test_n_max_below_one_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n-max", "0")
        assert code == 2
        assert out == ""
        assert "n_max" in err


def _parse_decimal(text: str) -> int:
    """int(text) in chunks, so it works under any int-to-str digit limit."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _decimal(value: int) -> str:
    """str(value) for value >= 0, in chunks of 1000 digits, so it works
    under any int-to-str digit limit."""
    chunks = []
    while value >= 10**1000:
        value, chunk = divmod(value, 10**1000)
        chunks.append(f"{chunk:01000d}")
    return str(value) + "".join(reversed(chunks))


class TestHugeIntegers:
    def test_integer_past_the_str_digit_limit_prints(self, capsys):
        # L(n, 1) = n!; 1700! has 4756 digits, past CPython's default limit
        # of 4300 digits for int-to-str conversion
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        code, out, err = run_cli(capsys, "eval", "--family", "lah", "--n", "1700", "--k", "1")
        assert (code, err) == (0, "")
        assert out.endswith("\n") and len(out) == 4757
        assert _parse_decimal(out.strip()) == math.factorial(1700)
        # the limit is lifted for the call only
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.usefixtures("cold_memo")
class TestDeepInputs:
    """Values whose rows lie far past the default recursion limit."""

    @staticmethod
    def _check_whitney1_column2(capsys, n):
        # c(n, 2) = (n-1)! H_{n-1}
        harmonic = sum(Fraction(1, i) for i in range(1, n))
        want = math.factorial(n - 1) * harmonic
        code, out, err = run_cli(capsys, "eval", "--family", "whitney1", "--n", str(n), "--k", "2")
        assert (code, err) == (0, "")
        assert want.denominator == 1
        assert out == _decimal(want.numerator) + "\n"

    def test_whitney1_at_600(self, capsys):
        self._check_whitney1_column2(capsys, 600)

    def test_whitney1_at_3000(self, capsys):
        # the engine builds columns 0..2 of each row, not the whole triangle
        self._check_whitney1_column2(capsys, 3000)

    def test_deep_q_whitney_lah(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--family", "q-whitney-lah", "--alpha", "2",
            "--n", "30", "--k", "2",
        )
        assert (code, err) == (0, "")
        assert out == qwl(2, 30, 2, route="explicit").to_str("q") + "\n"

    def test_bell_at_700(self, capsys):
        # Bell triangle: each row starts with the last entry of the row
        # above, and each next entry adds the entry above-left
        row = [1]
        for _ in range(700):
            nxt = [row[-1]]
            for v in row:
                nxt.append(nxt[-1] + v)
            row = nxt
        code, out, err = run_cli(capsys, "eval", "--family", "bell", "--n", "700")
        assert (code, err) == (0, "")
        assert out == f"{row[0]}\n"
