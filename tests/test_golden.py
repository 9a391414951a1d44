"""CLI output must stay byte-identical to the golden files in tests/golden/.

The files were rendered by the sparse dict-of-Fraction kernel that preceded
the dense integer kernel; each case is (file name, expected exit code, argv).
"""

from pathlib import Path

import pytest

from whitneylah import cli

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
