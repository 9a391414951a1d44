"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest

from whitneylah import classical, dense


@pytest.fixture
def cold_memo():
    """Every memo that ``Report.caches`` counts is empty before and after
    the test."""
    classical.clear_caches()
    yield
    classical.clear_caches()


@pytest.fixture
def kronecker_calls(monkeypatch):
    """The (len(a), len(b)) of every product ``arith._product`` sends down
    its Kronecker path while the test runs, in order."""
    calls = []
    kronecker = dense._kronecker_product

    def counted(a, b):
        calls.append((len(a), len(b)))
        return kronecker(a, b)

    monkeypatch.setattr(dense, "_kronecker_product", counted)
    return calls


@pytest.fixture
def run_quotients(monkeypatch):
    """The (len(a), m, s) of every quotient ``dense.lp_div_exact`` sends
    down its run path while the test runs, in order."""
    calls = []
    run_quotient = dense._run_quotient

    def counted(a, c, m, s):
        calls.append((len(a), m, s))
        return run_quotient(a, c, m, s)

    monkeypatch.setattr(dense, "_run_quotient", counted)
    return calls


@pytest.fixture(scope="session")
def bench_ops():
    """The benchmark's ``perfbench/workloads.py``, which lists the command
    lines the benchmark times (``make_ops``)."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        # registered before it runs: its dataclass looks its module up there
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]
