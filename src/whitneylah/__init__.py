"""Exact computation of the Lah/Stirling/Bell families, the translated
Whitney, Whitney-Lah, and Dowling numbers, and their q-analogues, together
with a registry that machine-checks every identity they satisfy.

The package's names are lazy (PEP 562): ``import whitneylah`` loads no
submodule, and the first access to a name, or to a submodule such as
``whitneylah.verify``, imports the submodule that defines it. A program
that uses only the families never loads the identity registry.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "arith": (
        "LaurentPoly",
        "monomial",
    ),
    "base": (
        "DomainError",
        "NonExactDivision",
        "TruncSeries",
        "clear_caches",
        "ts_mul_geometric",
    ),
    "classical": (
        "InvalidAlpha",
        "bell",
        "binomial",
        "falling_poly",
        "genfact_poly",
        "lah",
        "rising_poly",
        "stirling1u",
        "stirling2",
    ),
    "dense": (
        "DivisionByZero",
        "lp_div_exact",
        "lp_dot",
        "lp_eval_q1",
    ),
    "qcalc": (
        "InvalidOrder",
        "NegativeArgument",
        "qbinom",
        "qfact",
        "qfalling",
        "qint",
    ),
    "qwhitney": (
        "qdowling",
        "qw1",
        "qw2",
        "qwl",
    ),
    "verify": (
        "CheckResult",
        "Config",
        "IdentitySpec",
        "InvalidConfig",
        "ParamsOutOfDomain",
        "Report",
        "UnknownIdentity",
        "check_identity",
        "registry_ids",
        "report_to_json",
        "run_suite",
    ),
    "whitney": (
        "DuplicateBValues",
        "MansourSpec",
        "dowling",
        "mansour_u",
        "tw1",
        "tw2",
        "twl",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
