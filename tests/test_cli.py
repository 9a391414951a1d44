"""CLI tests: subcommand behavior, output formats, determinism, and the
0/1/2 exit-code contract."""

import json
import math
import sys
from fractions import Fraction

import pytest

from whitneylah.cli import main
from whitneylah.qwhitney import qwl_explicit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("family", ["bell", "lah", "q-lah"])
    def test_alpha_on_a_family_without_one_is_a_usage_error(self, capsys, family):
        code, out, err = run_cli(
            capsys, "table", "--family", family, "--alpha", "2", "--n-max", "3"
        )
        assert (code, out) == (2, "")
        assert err == f"error: family {family!r} does not take --alpha\n"

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
        assert out == qwl_explicit(2, 30, 2).to_str("q") + "\n"

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
