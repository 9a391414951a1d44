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
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whitneylah
from test_cli import SMALL_HOSTILE, argvs, run_quietly
from whitneylah.cli import main

SRC = Path(whitneylah.__file__).resolve().parents[1]

# Every name the package exports, by the submodule that defines it.
EXPORTS = {
    "arith": ["LaurentPoly", "monomial"],
    "base": [
        "DomainError", "NonExactDivision", "TruncSeries", "clear_caches",
        "ts_mul_geometric",
    ],
    "classical": [
        "InvalidAlpha", "bell", "binomial", "falling_poly", "genfact_poly", "lah",
        "rising_poly", "stirling1u", "stirling2",
    ],
    "dense": ["DivisionByZero", "lp_div_exact", "lp_dot", "lp_eval_q1"],
    "qcalc": [
        "InvalidOrder", "NegativeArgument", "qbinom", "qfact", "qfalling", "qint",
    ],
    "qwhitney": ["qdowling", "qw1", "qw2", "qwl"],
    "verify": [
        "CheckResult", "Config", "IdentitySpec", "InvalidConfig", "ParamsOutOfDomain",
        "Report", "UnknownIdentity", "check_identity", "registry_ids",
        "report_to_json", "run_suite",
    ],
    "whitney": [
        "DuplicateBValues", "MansourSpec", "dowling", "mansour_u", "tw1", "tw2",
        "twl",
    ],
}
ALL_NAMES = sorted(name for names in EXPORTS.values() for name in names)


def fresh_python(code: str, *args: str, **streams) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's package;
    ``streams`` are ``subprocess.run`` arguments, by default a pipe each for
    stdout and stderr."""
    return python("-c", code, *args, **streams)


def python(*args: str, **streams) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` as ``fresh_python`` runs its code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], text=True, env=env, timeout=120,
        **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams},
    )


# what the console script and ``python -m whitneylah.cli`` run
ENTRY = "import sys; from whitneylah.cli import main; sys.exit(main())"


def cold_cli(*argv: str, **streams) -> subprocess.CompletedProcess:
    return fresh_python(ENTRY, *argv, **streams)


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


EVAL = ("eval", "--family", "lah", "--n", "5", "--k", "2")  # prints 240
# fails while the command writes, past the first 8 KiB
BIG_TABLE = ("table", "--family", "q-whitney-lah", "--alpha", "3", "--n-max", "30")
DOMAIN_ERROR = ("table", "--family", "q-whitney1", "--alpha", "0", "--n-max", "3")
DEEP_SERIES = ("series", "--id", "r3", "--alpha", "2", "--k", "3", "--order", "100000")
OUT_OF_MEMORY = "error: series ran out of memory\n"
ATEXIT_MARKER = "an atexit handler ran"
_WITH_ATEXIT = (
    "import atexit, sys\n"
    f"atexit.register(lambda: sys.stderr.write({ATEXIT_MARKER!r}))\n"
    "from whitneylah.cli import main\n"
    "sys.exit(main(%s))\n"
)


class TestProcessEntry:
    """``main()`` ends the process by ``os._exit`` once its output is
    flushed; ``main(argv)`` returns."""

    def test_main_ends_the_process_before_atexit_handlers_run(self):
        run = fresh_python(_WITH_ATEXIT % "", *EVAL)
        assert (run.returncode, run.stdout, run.stderr) == (0, "240\n", "")

    def test_main_with_argv_returns_and_atexit_handlers_run(self):
        run = fresh_python(_WITH_ATEXIT % "sys.argv[1:]", *EVAL)
        assert (run.returncode, run.stdout, run.stderr) == (0, "240\n", ATEXIT_MARKER)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (EVAL, 0),
            (("table", "--help"), 0),
            (("verify", "--n-max", "3", "--mode", "as_printed"), 1),
            (DOMAIN_ERROR, 2),
            (("table", "--family", "lah"), 2),
        ],
        ids=["eval", "help", "verify-as_printed", "domain-error", "usage-error"],
    )
    def test_cold_and_in_process_calls_agree_on_every_exit_code(self, capsys, argv, code):
        cold = cold_cli(*argv)
        assert (cold.returncode, cold.stdout, cold.stderr) == warm_cli(capsys, *argv)
        assert cold.returncode == code

    @given(st.one_of(argvs(st.integers(1, 6), ()), argvs(st.integers(-6, 6), SMALL_HOSTILE)))
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    def test_a_drawn_command_line_prints_alike_from_the_process_entry(self, argv):
        """``python -m whitneylah.cli ARGV`` and ``main(ARGV)`` exit alike
        and print the same bytes, on command lines drawn well formed or as
        the CLI contract's are; argparse wraps its help at a fixed width in
        both. The draw is derandomized, so every run compares the same
        command lines; among them are exits 0, 1 and 2."""
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            cold = python("-m", "whitneylah.cli", *argv)
            assert (cold.returncode, cold.stdout, cold.stderr) == run_quietly(argv)

    def test_python_m_reads_an_argparse_form_without_a_second_cli_module(self, capsys):
        """``--family=lah`` is for argparse; the parser's handlers are those
        of the module run as ``__main__``, which nothing imports again by
        its name."""
        argv = ("table", "--family=lah", "--n-max", "3")
        run = python("-X", "importtime", "-m", "whitneylah.cli", *argv)
        imported = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()]
        assert "argparse" in imported
        assert "whitneylah.cli" not in imported
        assert (run.returncode, run.stdout) == warm_cli(capsys, *argv)[:2]
        assert run.stdout.startswith("n,k,value\n0,0,1\n")

    def test_out_of_memory_exits_2_with_one_line(self):
        """Under a 300 MB address-space limit, set in the child alone, a
        deep series runs out of memory: one ``error:`` line, no traceback."""
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

        run = cold_cli(*DEEP_SERIES, preexec_fn=limit)
        assert (run.returncode, run.stdout, run.stderr) == (2, "", OUT_OF_MEMORY)

    def test_main_with_argv_reports_out_of_memory_as_the_process_entry_does(
        self, capsys, monkeypatch
    ):
        def exhausted(**_):
            raise MemoryError

        monkeypatch.setattr("whitneylah.whitney.twl_egf_check", exhausted)
        assert warm_cli(capsys, *DEEP_SERIES) == (2, "", OUT_OF_MEMORY)

    @pytest.mark.parametrize("argv", [EVAL, BIG_TABLE], ids=["at-the-flush", "mid-command"])
    def test_a_pipe_with_no_reader_exits_2_with_one_line(self, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            run = cold_cli(*argv, stdout=write)
        finally:
            os.close(write)
        assert (run.returncode, run.stderr) == (2, "error: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [EVAL, BIG_TABLE], ids=["at-the-flush", "mid-command"])
    def test_a_full_device_exits_2_with_one_line(self, argv):
        with open("/dev/full", "w") as full:
            run = cold_cli(*argv, stdout=full)
            assert (run.returncode, run.stderr) == (
                2, "error: [Errno 28] No space left on device\n"
            )
            # with stderr broken too, the exit code is all that is left
            assert cold_cli(*argv, stdout=full, stderr=full).returncode == 2

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (EVAL, 0, ""),
            (DOMAIN_ERROR, 2, "error: alpha must be a nonzero integer, got 0\n"),
        ],
        ids=["eval", "domain-error"],
    )
    def test_a_closed_stdout_prints_nothing_and_keeps_the_exit_code(self, argv, code, err):
        """With fd 1 closed, ``sys.stdout`` is None and ``print`` writes
        nothing."""
        run = cold_cli(*argv, preexec_fn=lambda: os.close(1))
        assert (run.returncode, run.stdout, run.stderr) == (code, "", err)


# Prints the exit codes of the calls on one line, then, one per line, the
# modules of ``watched`` that they loaded.
_LOADED_BY = """
import contextlib, io, sys
watched = {
    "whitneylah.verify", "dataclasses", "inspect", "json", "whitneylah.arith",
    "whitneylah.whitney", "whitneylah.qwhitney", "whitneylah.qcalc", "fractions", "decimal",
    "argparse", "gettext", "locale", "whitneylah.dense", "whitneylah.qroutes",
}
before = set(sys.modules)
from whitneylah.cli import main
codes = []
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv.split()))
print(*codes)
print("\\n".join(sorted(watched & (set(sys.modules) - before))))
"""


def loaded_by(*argvs: str, codes: tuple[int, ...] = ()) -> list[str]:
    """The watched modules that the calls, run in one fresh interpreter,
    loaded; each call exits with its entry of ``codes``, by default 0."""
    run = fresh_python(_LOADED_BY, *argvs)
    assert run.returncode == 0, run.stderr
    first, *loaded = run.stdout.split("\n")
    assert first.split() == [str(code) for code in codes or [0] * len(argvs)]
    return [name for name in loaded if name]


# what ``cli.build_parser`` loads
PARSER_MODULES = {"argparse", "gettext", "locale"}
# the q-families' module loads the q-primitives' module ``qcalc`` and the
# Laurent kernel ``arith``
Q_FAMILY_MODULES = ["whitneylah.arith", "whitneylah.qcalc", "whitneylah.qwhitney"]
BOTH_FAMILY_MODULES = [*Q_FAMILY_MODULES, "whitneylah.whitney"]
# the q-families' second routes and series side, and the dense kernel they use
SECOND_ROUTE_MODULES = ["whitneylah.dense", "whitneylah.qroutes"]


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
        assert loaded == sorted([*BOTH_FAMILY_MODULES, *SECOND_ROUTE_MODULES])

    def test_q_tables_and_qr1_1_load_neither_whitney_nor_fractions(self):
        loaded = loaded_by(
            "table --family q-whitney1 --alpha -2 --n-max 3",
            "table --family q-whitney2 --alpha 2 --n-max 3",
            "table --family q-whitney-lah --alpha 2 --n-max 3",
            "table --family q-lah --n-max 3",
            "table --family q-dowling --alpha 2 --n-max 3",
            "series --id qr1.1 --alpha 2 --k 1 --order 3",
        )
        assert loaded == sorted([*Q_FAMILY_MODULES, *SECOND_ROUTE_MODULES])

    def test_q_tables_and_q_evals_load_no_second_route_nor_the_parser(self, bench_ops):
        """The benchmark's q-tables and a q-Whitney-Lah eval run the engine's
        recurrences alone, multiplying by monomials and q-integers: with
        bytecode writing off, they compile neither ``dense`` nor ``qroutes``,
        and they load no ``argparse``."""
        ops = bench_ops.make_ops("qtable", 0)
        loaded = loaded_by(
            *(" ".join(op.argv) for op in ops),
            "eval --family q-whitney-lah --alpha 3 --n 12 --k 6",
        )
        # every other table of the benchmark prints JSON
        assert [name for name in loaded if name != "json"] == Q_FAMILY_MODULES

    def test_qr1_1_loads_the_second_routes_and_not_the_registry(self):
        loaded = loaded_by("series --id qr1.1 --alpha 3 --k 3 --order 6")
        assert set(SECOND_ROUTE_MODULES) <= set(loaded)
        assert "whitneylah.verify" not in loaded

    def test_classical_evals_load_no_family_module(self):
        """Nor ``qcalc`` or the Laurent kernel ``arith``: the CLI imports
        only ``base``, which defines the one error class it catches."""
        loaded = loaded_by(
            "eval --family lah --n 5 --k 2",
            "eval --family stirling2 --n 5 --k 2",
            "eval --family stirling1u --n 5 --k 2",
            "eval --family bell --n 5",
            "table --family lah --n-max 4",
            "table --family stirling1u --n-max 4",
            "table --family stirling2 --n-max 4",
            "table --family bell --n-max 4",
        )
        assert loaded == []

    def test_r3_and_whitney1_load_no_q_family(self):
        """Nor ``qcalc``, ``arith``, ``fractions`` or ``decimal``: ``r3``
        runs over the integers, and ``whitney`` imports ``fractions`` (and
        with it ``decimal``) only where it divides."""
        loaded = loaded_by(
            "series --id r3 --alpha 2 --k 3 --order 5",
            "series --id r3 --alpha 3 --k 2 --order 40",
            "eval --family whitney1 --alpha 2 --n 5 --k 2",
            "eval --family whitney2 --alpha 2 --n 5 --k 2",
            "eval --family whitney-lah --alpha 2 --n 5 --k 2",
            "eval --family dowling --alpha 2 --n 5",
            "table --family whitney-lah --alpha 2 --n-max 5",
            "table --family whitney1 --alpha 3 --n-max 5",
            "table --family whitney2 --alpha 2 --n-max 5",
            "table --family dowling --alpha 2 --n-max 5",
        )
        assert loaded == ["whitneylah.whitney"]

    def test_json_verify_loads_json_and_the_registry_only(self):
        """Besides the family modules that the registry checks, and
        ``fractions``, which its rational checks use."""
        loaded = loaded_by("verify --n-max 1 --format json")
        assert set(BOTH_FAMILY_MODULES) <= set(loaded)
        assert sorted(set(loaded) - set(BOTH_FAMILY_MODULES)) == [
            "decimal", "fractions", "json", "whitneylah.dense", "whitneylah.qroutes",
            "whitneylah.verify",
        ]

    def test_json_table_loads_json_only(self):
        assert loaded_by("table --family bell --n-max 3 --format json") == ["json"]

    @pytest.mark.parametrize("workload", ["verify", "qtable", "series_deep"])
    def test_the_benchmark_command_lines_load_no_parser(self, bench_ops, workload):
        """Nor ``gettext`` or ``locale``, which argparse loads: a
        well-formed command line is read without it."""
        ops = bench_ops.make_ops(workload, 0, tiny=True)
        loaded = loaded_by(
            *(" ".join(op.argv) for op in ops), codes=tuple(op.expect_rc for op in ops)
        )
        assert not PARSER_MODULES & set(loaded)

    @pytest.mark.parametrize(
        "argv, code",
        [
            ("--help", 0),
            ("table --help", 0),
            ("table --family lah", 2),
            ("table --family lah --n 3", 0),
        ],
    )
    def test_help_a_usage_error_and_an_abbreviation_load_the_parser(self, argv, code):
        assert PARSER_MODULES <= set(loaded_by(argv, codes=(code,)))


class TestLazyPackage:
    def test_all_lists_every_export(self):
        assert sorted(whitneylah.__all__) == ALL_NAMES
        assert len(ALL_NAMES) == 48

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

    @pytest.mark.parametrize(
        "old, new, name",
        [
            ("arith", "dense", "DivisionByZero"),
            ("arith", "dense", "lp_div_exact"),
            ("arith", "dense", "lp_dot"),
            ("arith", "dense", "lp_eval_q1"),
            ("qwhitney", "qroutes", "qwl_egf_check"),
            ("qwhitney", "qroutes", "qwl_egf_sum_series"),
        ],
    )
    def test_a_moved_name_leaves_no_alias_in_its_old_module(self, old, new, name):
        from importlib import import_module

        assert not hasattr(import_module(f"whitneylah.{old}"), name)
        assert hasattr(import_module(f"whitneylah.{new}"), name)

    def test_the_kernel_binds_the_series_class_of_base(self):
        """``arith.TruncSeries`` is the one class, defined in ``base``: the
        benchmark's tracer reads it from the kernel."""
        from whitneylah import arith, base

        assert arith.TruncSeries is base.TruncSeries

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
            ("qwhitney", "qwl_explicit"),
            ("qwhitney", "qdowling_qi"),
            ("qwhitney", "qlah_gr"),
            ("whitney", "dowling_qi"),
            ("whitney", "dowling_dobinski"),
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
        and those it imports: ``qcalc`` reads the Laurent kernel, the base
        and the triangle engine."""
        run = fresh_python(
            "import sys, whitneylah\n"
            "names = set(dir(whitneylah))\n"
            "whitneylah.qint\n"
            "print(len(set(whitneylah.__all__) - names),"
            " sorted(m for m in sys.modules if m.startswith('whitneylah.')))"
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == (
            "0 ['whitneylah.arith', 'whitneylah.base', 'whitneylah.classical',"
            " 'whitneylah.qcalc']\n"
        )


def test_cli_families_are_immutable():
    from whitneylah.cli import FAMILIES

    family = FAMILIES["q-lah"]
    with pytest.raises(AttributeError):
        family.value = None
    with pytest.raises(AttributeError):
        del family.kind
    assert (family.kind, family.takes_alpha) == ("triangle", False)
