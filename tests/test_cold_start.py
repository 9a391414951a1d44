"""Cold start: each CLI command, run in a fresh interpreter, imports only
the modules it uses and prints what the in-process call prints; the
package's names are lazy and are the same objects as the submodules'.

The in-process tests of the other files run after earlier tests have
imported every module, so only a fresh interpreter sees a broken lazy
import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import whitneylah
from whitneylah.cli import main

SRC = Path(whitneylah.__file__).resolve().parents[1]

# Every name the package exports, by the submodule that defines it.
EXPORTS = {
    "arith": [
        "DivisionByZero", "LaurentPoly", "NonExactDivision", "TruncSeries",
        "clear_caches", "lp_div_exact", "lp_dot", "lp_eval_q1", "monomial",
        "ts_mul_geometric",
    ],
    "classical": [
        "InvalidAlpha", "bell", "binomial", "falling_poly", "genfact_poly", "lah",
        "rising_poly", "stirling1u", "stirling2",
    ],
    "qcalc": [
        "InvalidOrder", "NegativeArgument", "qbinom", "qfact", "qfalling", "qint",
        "qint_signed",
    ],
    "qwhitney": [
        "InvalidRange", "qdowling", "qdowling_qi", "qlah_gr", "qw1", "qw2", "qwl",
        "qwl_explicit",
    ],
    "verify": [
        "CheckResult", "Config", "IdentitySpec", "InvalidConfig", "ParamsOutOfDomain",
        "Report", "UnknownIdentity", "check_identity", "registry_ids",
        "report_to_json", "run_suite",
    ],
    "whitney": [
        "DuplicateBValues", "MansourSpec", "dowling",
        "dowling_dobinski", "dowling_qi", "mansour_u", "tw1", "tw2", "twl",
    ],
}
ALL_NAMES = sorted(name for names in EXPORTS.values() for name in names)


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env,
        timeout=120,
    )


def cold_cli(*argv: str) -> subprocess.CompletedProcess:
    return fresh_python("import sys; from whitneylah.cli import main; sys.exit(main())", *argv)


def warm_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFreshInterpreterCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--family", "q-whitney-lah", "--alpha", "2", "--n-max", "4"),
            ("table", "--family", "q-lah", "--n-max", "4", "--format", "json"),
            ("eval", "--family", "whitney-lah", "--alpha", "2", "--n", "9", "--k", "3"),
            ("series", "--id", "r3", "--alpha", "2", "--k", "2", "--order", "6"),
            pytest.param(
                ("series", "--id", "qr1.1", "--alpha", "2", "--k", "2", "--order", "5"),
                id="series-qr1.1",
            ),
            ("verify", "--format", "text", "--n-max", "4"),
            ("verify", "--format", "text", "--n-max", "3", "--mode", "as_printed"),
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_cold_call_prints_what_the_in_process_call_prints(self, capsys, argv):
        cold = cold_cli(*argv)
        code, out, err = warm_cli(capsys, *argv)
        assert (cold.returncode, cold.stdout, cold.stderr) == (code, out, err)
        assert out

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ("verify", "--alpha-list", "0"),
                "error: no identity of suite 'all' checks alpha 0;"
                " the alphas it checks are 1, 2, 3",
            ),
            (
                ("series", "--id", "qr1.1", "--alpha", "0", "--k", "1", "--order", "3"),
                "error: alpha must be a positive integer, got 0",
            ),
            (
                ("eval", "--family", "q-lah", "--alpha", "2", "--n", "3", "--k", "1"),
                "error: family 'q-lah' does not take --alpha",
            ),
            (
                ("table", "--family", "q-whitney1", "--alpha", "0", "--n-max", "3"),
                "error: alpha must be a nonzero integer, got 0",
            ),
        ],
        ids=lambda v: v[0] if isinstance(v, tuple) else None,
    )
    def test_errors_across_a_lazy_import_exit_2_with_one_line(self, capsys, argv, line):
        cold = cold_cli(*argv)
        assert (cold.returncode, cold.stdout, cold.stderr) == (2, "", line + "\n")
        assert warm_cli(capsys, *argv) == (2, "", line + "\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--family", "q-whitney-lah", "--alpha", "0", "--n-max", "2"),
            ("eval", "--family", "whitney1", "--alpha", "0", "--n", "2", "--k", "1"),
        ],
        ids=lambda argv: argv[2],
    )
    def test_an_alpha_a_family_module_rejects_exits_2_with_one_line(self, capsys, argv):
        """The family module is imported only when the value is asked for,
        and its ``InvalidAlpha`` is the one the CLI catches."""
        line = "error: alpha must be a positive integer, got 0\n"
        cold = cold_cli(*argv)
        assert (cold.returncode, cold.stdout, cold.stderr) == (2, "", line)
        assert warm_cli(capsys, *argv) == (2, "", line)


# Prints, one per line, the modules of ``watched`` that the calls loaded.
_LOADED_BY = """
import contextlib, io, sys
watched = {
    "whitneylah.verify", "dataclasses", "inspect", "json",
    "whitneylah.whitney", "whitneylah.qwhitney", "fractions", "decimal",
}
before = set(sys.modules)
from whitneylah.cli import main
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0, argv
print("\\n".join(sorted(watched & (set(sys.modules) - before))))
"""


def loaded_by(*argvs: str) -> list[str]:
    """The watched modules that the calls, run in one fresh interpreter, loaded."""
    run = fresh_python(_LOADED_BY, *argvs)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


BOTH_FAMILY_MODULES = ["whitneylah.qwhitney", "whitneylah.whitney"]


class TestImportSet:
    def test_import_whitneylah_loads_no_submodule(self):
        run = fresh_python(
            "import sys, whitneylah;"
            " print([m for m in sys.modules if m.startswith('whitneylah.')])"
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"

    def test_table_and_eval_load_neither_the_registry_nor_dataclasses_nor_json(self):
        loaded = loaded_by(
            "table --family q-whitney1 --alpha 2 --n-max 3",
            "eval --family dowling --alpha 2 --n 5",
            "eval --family q-lah --n 4 --k 2",
        )
        assert loaded == BOTH_FAMILY_MODULES

    def test_series_loads_no_json(self):
        """Nor the registry: ``series`` reads its checks off the families."""
        loaded = loaded_by(
            "series --id r3 --alpha 2 --k 3 --order 5",
            "series --id qr1.1 --alpha 2 --k 1 --order 3",
        )
        assert loaded == BOTH_FAMILY_MODULES

    def test_q_tables_and_qr1_1_load_neither_whitney_nor_fractions(self):
        loaded = loaded_by(
            "table --family q-whitney1 --alpha -2 --n-max 3",
            "table --family q-whitney2 --alpha 2 --n-max 3",
            "table --family q-whitney-lah --alpha 2 --n-max 3",
            "table --family q-lah --n-max 3",
            "table --family q-dowling --alpha 2 --n-max 3",
            "series --id qr1.1 --alpha 2 --k 1 --order 3",
        )
        assert loaded == ["whitneylah.qwhitney"]

    def test_classical_evals_load_no_family_module(self):
        loaded = loaded_by(
            "eval --family lah --n 5 --k 2",
            "eval --family stirling2 --n 5 --k 2",
            "eval --family bell --n 5",
        )
        assert loaded == []

    def test_r3_and_whitney1_load_no_q_family(self):
        """Nor ``fractions`` or ``decimal``: ``r3`` runs over the integers,
        and ``whitney`` imports ``fractions`` (and with it ``decimal``)
        only where it divides."""
        loaded = loaded_by(
            "series --id r3 --alpha 2 --k 3 --order 5",
            "series --id r3 --alpha 3 --k 2 --order 40",
            "eval --family whitney1 --alpha 2 --n 5 --k 2",
            "eval --family dowling --alpha 2 --n 5",
            "table --family whitney-lah --alpha 2 --n-max 5",
        )
        assert loaded == ["whitneylah.whitney"]

    def test_json_verify_loads_json_and_the_registry_only(self):
        """Besides the family modules that the registry checks, and
        ``fractions``, which its rational checks use."""
        loaded = loaded_by("verify --n-max 1 --format json")
        assert sorted(set(loaded) - set(BOTH_FAMILY_MODULES)) == [
            "decimal", "fractions", "json", "whitneylah.verify",
        ]

    def test_json_table_loads_json_only(self):
        assert loaded_by("table --family bell --n-max 3 --format json") == ["json"]


class TestLazyPackage:
    def test_all_lists_every_export(self):
        assert sorted(whitneylah.__all__) == ALL_NAMES
        assert len(ALL_NAMES) == 54

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_name_is_the_submodules_object(self, module):
        sub = getattr(whitneylah, module)
        assert sub is sys.modules[f"whitneylah.{module}"]
        for name in EXPORTS[module]:
            assert getattr(whitneylah, name) is getattr(sub, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from whitneylah import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == ALL_NAMES
        assert all(namespace[name] is getattr(whitneylah, name) for name in ALL_NAMES)

    def test_invalid_alpha_has_one_definition(self):
        """``whitney`` re-exports the engine module's ``InvalidAlpha``, so
        ``qwhitney`` need not import ``whitney`` for it."""
        from whitneylah import classical, qwhitney, whitney

        assert whitney.InvalidAlpha is classical.InvalidAlpha
        assert qwhitney.InvalidAlpha is classical.InvalidAlpha

    def test_dir_lists_every_name(self):
        assert set(ALL_NAMES) <= set(dir(whitneylah))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            whitneylah.no_such_name
        assert not hasattr(whitneylah, "_row")

    @pytest.mark.parametrize(
        "module, name",
        [
            ("classical", "lah_oracle"),
            ("classical", "ScaleExceeded"),
            ("qwhitney", "qbinom_transform"),
            ("qwhitney", "qbinom_inverse_transform"),
        ],
    )
    def test_a_removed_name_raises_attribute_error(self, module, name):
        """Names that left the public API are gone from the package and
        from the submodule that defined them."""
        with pytest.raises(AttributeError, match=name):
            getattr(whitneylah, name)
        with pytest.raises(AttributeError, match=name):
            getattr(getattr(whitneylah, module), name)
        assert name not in whitneylah.__all__

    def test_names_of_a_fresh_package(self):
        """In a new interpreter: ``dir`` lists the names before any is
        loaded, and the first access imports just the defining submodule
        and those it imports: ``qcalc`` reads the triangle engine."""
        run = fresh_python(
            "import sys, whitneylah\n"
            "names = set(dir(whitneylah))\n"
            "whitneylah.qint\n"
            "print(len(set(whitneylah.__all__) - names),"
            " sorted(m for m in sys.modules if m.startswith('whitneylah.')))"
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == (
            "0 ['whitneylah.arith', 'whitneylah.classical', 'whitneylah.qcalc']\n"
        )


def test_cli_families_are_immutable():
    from whitneylah.cli import FAMILIES

    family = FAMILIES["q-lah"]
    with pytest.raises(AttributeError):
        family.value = None
    with pytest.raises(AttributeError):
        del family.kind
    assert (family.kind, family.takes_alpha) == ("triangle", False)
