"""Identity registry and grid runner.

Every identity handled by this package is registered here as a
parameterized, machine-checkable claim. A check evaluates both sides over
exact arithmetic (integers, rationals, Laurent polynomials, or truncated
series coefficients) and compares canonical forms; a suite run produces a
deterministic report whose failures carry both rendered sides.

Three identities also exist in an ``as_printed`` variant that evaluates a
known-defective published form verbatim instead of the corrected one, so
the discrepancy is documented by a failing check rather than silently
patched: the factorial-sum identities ``qr2``/``qr2.1`` and the
denominator bound of the two-sequence explicit formula (``mansour``,
witnessed at (n, k) = (3, 1)).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .arith import (
    LaurentPoly,
    TruncSeries,
    lp_div_exact,
    lp_eval_q1,
    monomial,
    ts_inverse,
)
from .classical import (
    bell,
    binomial,
    falling_poly,
    genfact_poly,
    lah,
    rising_poly,
    stirling1u,
    stirling2,
)
from .qcalc import gqf_at, qbinom, qfact, qfalling, qint
from .whitney import (
    MansourSpec,
    dowling,
    dowling_dobinski,
    dowling_qi,
    mansour_u,
    mansour_u_explicit_as_printed,
    tw1,
    tw2,
    twl,
    twl_egf_series,
)
from .qwhitney import (
    gqf_point,
    qbinom_inverse_transform,
    qbinom_transform,
    qdowling,
    qdowling_qi,
    qint_signed,
    qlah_gr,
    qw1,
    qw2,
    qwl,
    qwl_egf_sum_series,
    qwl_explicit,
)

SUITES = ("classical", "q", "all")
MODES = ("corrected", "as_printed")

DOBINSKI_REL_TOL = 1e-9


class UnknownIdentity(ValueError):
    """No identity is registered under the requested id."""


class ParamsOutOfDomain(ValueError):
    """The parameters fall outside the identity's registered grid."""


class InvalidConfig(ValueError):
    """A suite configuration names an unknown suite or mode, or n_max < 1."""


@dataclass(frozen=True)
class Config:
    """Grid selection for a suite run. Each identity intersects this with
    its own registered parameter grid."""

    suite: str = "all"
    alpha_list: tuple[int, ...] = (1, 2)
    n_max: int = 8
    mode: str = "corrected"

    def __post_init__(self):
        if self.suite not in SUITES:
            raise InvalidConfig(f"suite must be one of {SUITES}, got {self.suite!r}")
        if self.mode not in MODES:
            raise InvalidConfig(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_max < 1:
            raise InvalidConfig(f"n_max must be at least 1, got {self.n_max}")
        object.__setattr__(self, "alpha_list", tuple(self.alpha_list))

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "alpha_list": list(self.alpha_list),
            "n_max": self.n_max,
            "mode": self.mode,
        }


@dataclass(frozen=True)
class CheckResult:
    id: str
    params: dict
    passed: bool
    lhs_canonical: str
    rhs_canonical: str
    elapsed: float


@dataclass
class Report:
    total: int
    passed: int
    failed: list[CheckResult]
    wall_time: float
    config: Config


@dataclass(frozen=True)
class IdentitySpec:
    """One registered identity: an id, a citation anchor, a parameter grid,
    and a two-sided evaluator returning (passed, lhs, rhs) canonical text."""

    id: str
    description: str
    paper_anchor: str
    suite: str
    modes: tuple[str, ...]
    domain: Callable[[Config], list[dict]]
    check: Callable[[dict, str], tuple[bool, str, str]]


_REGISTRY: dict[str, IdentitySpec] = {}


def _register(spec: IdentitySpec) -> None:
    if spec.id in _REGISTRY:
        raise ValueError(f"duplicate identity id {spec.id!r}")
    _REGISTRY[spec.id] = spec


def registry_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_identity(ident: str) -> IdentitySpec:
    try:
        return _REGISTRY[ident]
    except KeyError:
        raise UnknownIdentity(f"no identity registered as {ident!r}") from None


# -- rendering helpers -------------------------------------------------------


def _istr(v: int) -> str:
    return str(v)


def _fstr(v: Fraction) -> str:
    return str(v)


def _qstr(p: LaurentPoly) -> str:
    return p.to_str("q")


def _tstr(p: LaurentPoly) -> str:
    return p.to_str("t")


def _sign(x: int) -> int:
    return 1 if x % 2 == 0 else -1


def _alphas(cfg: Config, allowed: tuple[int, ...]) -> list[int]:
    return [a for a in cfg.alpha_list if a in allowed]


_CLASSICAL_ALPHAS = (1, 2, 3)
_Q_ALPHAS = (1, 2)


# -- classical-suite checks --------------------------------------------------


def _dom_lah_rec(cfg: Config) -> list[dict]:
    cap = min(12, cfg.n_max)
    return [{"n": n, "k": k} for n in range(cap + 1) for k in range(n + 2)]


def _chk_lah_rec(p: dict, mode: str):
    n, k = p["n"], p["k"]
    lhs = lah(n + 1, k)
    rhs = lah(n, k - 1) + (n + k) * lah(n, k)
    return lhs == rhs, _istr(lhs), _istr(rhs)


@lru_cache(maxsize=None)
def _egf_series_cached(alpha: int, k: int, order: int) -> TruncSeries:
    return twl_egf_series(alpha, k, order)


def _dom_lah_egf(cfg: Config) -> list[dict]:
    cap = min(12, cfg.n_max)
    return [{"k": k, "n": n} for k in range(7) for n in range(cap + 1)]


def _chk_lah_egf(p: dict, mode: str):
    k, n = p["k"], p["n"]
    lhs = _egf_series_cached(1, k, 12).coeff(n)
    rhs = Fraction(lah(n, k), math.factorial(n))
    return lhs == rhs, _fstr(lhs), _fstr(rhs)


def _dom_lah_hgf(cfg: Config) -> list[dict]:
    return [{"n": n} for n in range(min(10, cfg.n_max) + 1)]


def _chk_lah_hgf(p: dict, mode: str):
    n = p["n"]
    lhs = rising_poly(n)
    rhs = LaurentPoly.zero()
    for k in range(n + 1):
        rhs = rhs + lah(n, k) * falling_poly(k)
    return lhs == rhs, _tstr(lhs), _tstr(rhs)


def _dom_stirling_hgf(cfg: Config) -> list[dict]:
    cap = min(10, cfg.n_max)
    return [
        {"rel": rel, "n": n}
        for rel in ("falling", "power", "rising")
        for n in range(cap + 1)
    ]


def _chk_stirling_hgf(p: dict, mode: str):
    n, rel = p["n"], p["rel"]
    t = LaurentPoly.var()
    rhs = LaurentPoly.zero()
    if rel == "falling":
        lhs = falling_poly(n)
        for k in range(n + 1):
            rhs = rhs + _sign(n - k) * stirling1u(n, k) * t**k
    elif rel == "power":
        lhs = t**n
        for k in range(n + 1):
            rhs = rhs + stirling2(n, k) * falling_poly(k)
    else:
        lhs = rising_poly(n)
        for k in range(n + 1):
            rhs = rhs + stirling1u(n, k) * t**k
    return lhs == rhs, _tstr(lhs), _tstr(rhs)


def _dom_lah_conv(cfg: Config) -> list[dict]:
    cap = min(12, cfg.n_max)
    return [{"n": n, "k": k} for n in range(cap + 1) for k in range(n + 1)]


def _chk_lah_conv(p: dict, mode: str):
    n, k = p["n"], p["k"]
    lhs = lah(n, k)
    rhs = sum(stirling1u(n, j) * stirling2(j, k) for j in range(k, n + 1))
    return lhs == rhs, _istr(lhs), _istr(rhs)


def _dom_qi_bell(cfg: Config) -> list[dict]:
    return [{"n": n} for n in range(1, min(12, cfg.n_max) + 1)]


def _chk_qi_bell(p: dict, mode: str):
    n = p["n"]
    lhs = bell(n)
    rhs = sum(
        _sign(n - k) * sum(lah(k, l) for l in range(1, k + 1)) * stirling2(n, k)
        for k in range(1, n + 1)
    )
    return lhs == rhs, _istr(lhs), _istr(rhs)


def _dom_w_hgf(cfg: Config) -> list[dict]:
    cap = min(10, cfg.n_max)
    return [
        {"rel": rel, "alpha": a, "n": n}
        for rel in ("first", "second")
        for a in _alphas(cfg, _CLASSICAL_ALPHAS)
        for n in range(cap + 1)
    ]


def _chk_w_hgf(p: dict, mode: str):
    a, n, rel = p["alpha"], p["n"], p["rel"]
    t = LaurentPoly.var()
    rhs = LaurentPoly.zero()
    if rel == "first":
        lhs = genfact_poly(n, -a)
        for k in range(n + 1):
            rhs = rhs + tw1(a, n, k) * t**k
    else:
        lhs = t**n
        for k in range(n + 1):
            rhs = rhs + tw2(a, n, k) * genfact_poly(k, a)
    return lhs == rhs, _tstr(lhs), _tstr(rhs)


def _dom_wl_rec(cfg: Config) -> list[dict]:
    cap = min(12, cfg.n_max)
    return [
        {"alpha": a, "n": n, "k": k}
        for a in _alphas(cfg, _CLASSICAL_ALPHAS)
        for n in range(cap)
        for k in range(n + 2)
    ]


def _chk_wl_rec(p: dict, mode: str):
    # the recurrence checked on the independently computed scaled route
    a, n, k = p["alpha"], p["n"], p["k"]
    lhs = twl(a, n + 1, k, "scaled")
    rhs = twl(a, n, k - 1, "scaled") + a * (n + k) * twl(a, n, k, "scaled")
    return lhs == rhs, _istr(lhs), _istr(rhs)


def _dom_wl_hgf(cfg: Config) -> list[dict]:
    cap = min(10, cfg.n_max)
    return [
        {"alpha": a, "n": n}
        for a in _alphas(cfg, _CLASSICAL_ALPHAS)
        for n in range(cap + 1)
    ]


def _chk_wl_hgf(p: dict, mode: str):
    a, n = p["alpha"], p["n"]
    lhs = genfact_poly(n, -a)
    rhs = LaurentPoly.zero()
    for k in range(n + 1):
        rhs = rhs + twl(a, n, k) * genfact_poly(k, a)
    return lhs == rhs, _tstr(lhs), _tstr(rhs)


def _dom_wl_conv(cfg: Config) -> list[dict]:
    cap = min(12, cfg.n_max)
    return [
        {"alpha": a, "n": n, "j": j}
        for a in _alphas(cfg, _CLASSICAL_ALPHAS)
        for n in range(cap + 1)
        for j in range(n + 1)
    ]


def _chk_wl_conv(p: dict, mode: str):
    a, n, j = p["alpha"], p["n"], p["j"]
    lhs = twl(a, n, j)
    rhs = sum(tw1(a, n, k) * tw2(a, k, j) for k in range(j, n + 1))
    return lhs == rhs, _istr(lhs), _istr(rhs)


def _dom_mansour(cfg: Config) -> list[dict]:
    alphas = _alphas(cfg, _CLASSICAL_ALPHAS)
    if cfg.mode == "as_printed":
        # witness point for the printed denominator bound
        return [{"rel": "explicit", "alpha": a, "n": 3, "k": 1} for a in alphas]
    cap = min(12, cfg.n_max)
    return [
        {"rel": rel, "alpha": a, "n": n, "k": k}
        for rel in ("explicit", "whitney_lah")
        for a in alphas
        for n in range(cap + 1)
        for k in range(n + 1)
    ]


def _chk_mansour(p: dict, mode: str):
    a, n, k, rel = p["alpha"], p["n"], p["k"], p["rel"]
    spec = MansourSpec.linear(a)
    lhs = mansour_u(spec, n, k)
    if rel == "whitney_lah":
        rhs = Fraction(twl(a, n, k))
    elif mode == "as_printed":
        rhs = mansour_u_explicit_as_printed(spec, n, k)
    else:
        rhs = mansour_u(spec, n, k, "explicit")
    return lhs == rhs, _fstr(lhs), _fstr(rhs)


def _dom_twl_routes(cfg: Config) -> list[dict]:
    cap = min(12, cfg.n_max)
    return [
        {"alpha": a, "n": n, "k": k}
        for a in _alphas(cfg, _CLASSICAL_ALPHAS)
        for n in range(cap + 1)
        for k in range(n + 1)
    ]


def _chk_r1(p: dict, mode: str):
    a, n, k = p["alpha"], p["n"], p["k"]
    lhs = twl(a, n, k, "recurrence")
    rhs = twl(a, n, k, "explicit")
    return lhs == rhs, _istr(lhs), _istr(rhs)


def _chk_r2(p: dict, mode: str):
    a, n, k = p["alpha"], p["n"], p["k"]
    lhs = twl(a, n, k, "recurrence")
    rhs = twl(a, n, k, "scaled")
    return lhs == rhs, _istr(lhs), _istr(rhs)


def _chk_r2_1(p: dict, mode: str):
    a, n, k = p["alpha"], p["n"], p["k"]
    lhs = twl(a, n, k, "recurrence")
    rhs = twl(a, n, k, "product")
    return lhs == rhs, _istr(lhs), _istr(rhs)


def _dom_r3(cfg: Config) -> list[dict]:
    cap = min(12, cfg.n_max)
    return [
        {"alpha": a, "k": k, "n": n}
        for a in _alphas(cfg, _CLASSICAL_ALPHAS)
        for k in range(7)
        for n in range(cap + 1)
    ]


def _chk_r3(p: dict, mode: str):
    a, k, n = p["alpha"], p["k"], p["n"]
    lhs = _egf_series_cached(a, k, 12).coeff(n) * math.factorial(n)
    rhs = Fraction(twl(a, n, k))
    return lhs == rhs, _fstr(lhs), _fstr(rhs)


def _dom_graham(cfg: Config) -> list[dict]:
    cap = min(8, cfg.n_max)
    return [
        {"l": l, "m": m, "s": s, "n": n}
        for l in range(cap + 1)
        for m in range(-2, 3)
        for s in range(cap + 1)
        for n in range(cap + 1)
    ]


def _chk_graham(p: dict, mode: str):
    l, m, s, n = p["l"], p["m"], p["s"], p["n"]
    lhs = sum(
        binomial(l, m + j) * binomial(s + j, n) * _sign(j)
        for j in range(-m, l - m + 1)
    )
    rhs = _sign(l + m) * binomial(s - m, n - l)
    return lhs == rhs, _istr(lhs), _istr(rhs)


def _dom_r4(cfg: Config) -> list[dict]:
    cap = min(12, cfg.n_max)
    return [
        {"alpha": a, "k": k, "n": n}
        for a in _alphas(cfg, _CLASSICAL_ALPHAS)
        for k in range(2, 9)
        for n in range(k - 1, cap + 1)
    ]


def _chk_r4(p: dict, mode: str):
    a, k, n = p["alpha"], p["k"], p["n"]
    lhs = sum((-a) ** j * twl(a, k, j) * math.factorial(n + j) for j in range(1, k + 1))
    rhs = (
        (-a) ** k
        * math.factorial(n)
        * (math.factorial(n + 1) // math.factorial(n - k + 1))
    )
    return lhs == rhs, _istr(lhs), _istr(rhs)


def _dom_gouqi(cfg: Config) -> list[dict]:
    cap = min(12, cfg.n_max)
    return [
        {"k": k, "n": n} for k in range(2, 9) for n in range(k - 1, cap + 1)
    ]


def _chk_gouqi(p: dict, mode: str):
    k, n = p["k"], p["n"]
    lhs = sum(_sign(j) * lah(k, j) * math.factorial(n + j) for j in range(1, k + 1))
    rhs = _sign(k) * math.factorial(n) * (
        math.factorial(n + 1) // math.factorial(n - k + 1)
    )
    return lhs == rhs, _istr(lhs), _istr(rhs)


def _dom_ortho(cfg: Config) -> list[dict]:
    cap = min(10, cfg.n_max)
    return [
        {"order": order, "alpha": a, "n": n, "m": m}
        for order in ("second_first", "first_second")
        for a in _alphas(cfg, _CLASSICAL_ALPHAS)
        for n in range(cap + 1)
        for m in range(n + 1)
    ]


def _chk_ortho(p: dict, mode: str):
    a, n, m, order = p["alpha"], p["n"], p["m"], p["order"]
    if order == "second_first":
        lhs = sum(_sign(j - m) * tw2(a, n, j) * tw1(a, j, m) for j in range(m, n + 1))
    else:
        lhs = sum(_sign(n - j) * tw1(a, n, j) * tw2(a, j, m) for j in range(m, n + 1))
    rhs = 1 if n == m else 0
    return lhs == rhs, _istr(lhs), _istr(rhs)


def _dom_gqif1(cfg: Config) -> list[dict]:
    cap = min(12, cfg.n_max)
    return [
        {"alpha": a, "n": n}
        for a in _alphas(cfg, _CLASSICAL_ALPHAS)
        for n in range(cap + 1)
    ]


def _chk_gqif1(p: dict, mode: str):
    a, n = p["alpha"], p["n"]
    lhs = dowling_qi(a, n)
    rhs = dowling(a, n)
    return lhs == rhs, _istr(lhs), _istr(rhs)


def _dom_dobinski(cfg: Config) -> list[dict]:
    cap = min(10, cfg.n_max)
    return [
        {"alpha": a, "n": n}
        for a in _alphas(cfg, _CLASSICAL_ALPHAS)
        for n in range(cap + 1)
    ]


def _chk_dobinski(p: dict, mode: str):
    a, n = p["alpha"], p["n"]
    approx = dowling_dobinski(a, n, 1e-12, 200)
    exact = dowling(a, n)
    passed = abs(approx - exact) / exact < DOBINSKI_REL_TOL
    return passed, f"{approx:.6f}", f"{float(exact):.6f}"


# -- q-suite checks ----------------------------------------------------------


def _dom_q_defs(cfg: Config) -> list[dict]:
    cap = min(8, cfg.n_max)
    out = []
    for rel in ("def1", "def2", "def3"):
        alphas: list[int] = []
        for a in _alphas(cfg, _Q_ALPHAS):
            alphas.append(a)
            if rel != "def3":
                alphas.append(-a)
        for a in alphas:
            for n in range(cap + 1):
                for m in range(n + 1):
                    out.append({"rel": rel, "alpha": a, "n": n, "m": m})
    return out


def _chk_q_defs(p: dict, mode: str):
    rel, a, n, m = p["rel"], p["alpha"], p["n"], p["m"]
    t = m * a
    tval = qint_signed(t)
    rhs = LaurentPoly.zero()
    if rel == "def1":
        lhs = gqf_point(t, a, n)
        for k in range(n + 1):
            rhs = rhs + qw1(a, n, k) * tval**k
    elif rel == "def2":
        lhs = tval**n
        for k in range(n + 1):
            rhs = rhs + qw2(a, n, k) * gqf_point(t, a, k)
    else:
        lhs = gqf_point(t, -a, n)
        for k in range(n + 1):
            rhs = rhs + qwl(a, n, k) * gqf_point(t, a, k)
    return lhs == rhs, _qstr(lhs), _qstr(rhs)


def _dom_qw1w2(cfg: Config) -> list[dict]:
    cap = min(8, cfg.n_max)
    return [
        {"alpha": a, "n": n, "k": k}
        for a in _alphas(cfg, _Q_ALPHAS)
        for n in range(cap + 1)
        for k in range(n + 1)
    ]


def _chk_qw1w2(p: dict, mode: str):
    a, n, k = p["alpha"], p["n"], p["k"]
    lhs = qwl(a, n, k)
    rhs = LaurentPoly.zero()
    for j in range(n + 1):
        rhs = rhs + qw1(-a, n, j) * qw2(a, j, k)
    return lhs == rhs, _qstr(lhs), _qstr(rhs)


def _dom_qr1(cfg: Config) -> list[dict]:
    cap = min(8, cfg.n_max)
    return [
        {"alpha": a, "n": n, "k": k}
        for a in _alphas(cfg, _Q_ALPHAS)
        for n in range(cap + 1)
        for k in range(n + 1)
    ]


def _chk_qr1(p: dict, mode: str):
    a, n, k = p["alpha"], p["n"], p["k"]
    lhs = qwl(a, n, k)
    rhs = qwl_explicit(a, n, k)
    return lhs == rhs, _qstr(lhs), _qstr(rhs)


@lru_cache(maxsize=None)
def _qwl_egf_cached(alpha: int, k: int, order: int) -> TruncSeries:
    return qwl_egf_sum_series(alpha, k, order)


def _dom_qr1_1(cfg: Config) -> list[dict]:
    cap = min(8, cfg.n_max)
    return [
        {"alpha": a, "k": k, "n": n}
        for a in _alphas(cfg, _Q_ALPHAS)
        for k in range(5)
        for n in range(cap + 1)
    ]


def _chk_qr1_1(p: dict, mode: str):
    a, k, n = p["alpha"], p["k"], p["n"]
    lhs = qfact(n, a) * _qwl_egf_cached(a, k, 8).coeff(n)
    rhs = qfact(k, a) * qint(a) ** k * qwl(a, n, k)
    return lhs == rhs, _qstr(lhs), _qstr(rhs)


def _dom_qr2(cfg: Config) -> list[dict]:
    cap = min(8, cfg.n_max)
    return [
        {"alpha": a, "k": k, "n": n}
        for a in _alphas(cfg, _Q_ALPHAS)
        for k in range(1, 7)
        for n in range(k - 1, cap + 1)
    ]


def _qr2_sides(a: int, k: int, n: int, printed: bool):
    aq = qint(a)
    lhs = LaurentPoly.zero()
    for j in range(k + 1):
        exp = n * j + math.comb(j + 1, 2)
        if not printed:
            exp *= a
        lhs = lhs + _sign(j) * (
            aq**j * monomial(-exp) * qwl(a, k, j) * qfact(n + j, a)
        )
    rhs = _sign(k) * (aq**k) * qfact(n, a)
    if not printed:
        rhs = rhs * monomial(-a * (k * (n + 1) - math.comb(k, 2)))
    for i in range(n - k + 2, n + 2):
        rhs = rhs * qint(i, a)
    return lhs, rhs


def _chk_qr2(p: dict, mode: str):
    a, k, n = p["alpha"], p["k"], p["n"]
    lhs, rhs = _qr2_sides(a, k, n, printed=(mode == "as_printed"))
    return lhs == rhs, _qstr(lhs), _qstr(rhs)


def _dom_qr2_1(cfg: Config) -> list[dict]:
    cap = min(8, cfg.n_max)
    return [
        {"k": k, "n": n} for k in range(1, 7) for n in range(k - 1, cap + 1)
    ]


def _chk_qr2_1(p: dict, mode: str):
    k, n = p["k"], p["n"]
    if mode != "as_printed":
        lhs, rhs = _qr2_sides(1, k, n, printed=False)
        return lhs == rhs, _qstr(lhs), _qstr(rhs)
    # printed corollary divides by [n-k+1]_q (not its factorial); compare
    # with that single q-integer cleared
    lhs = LaurentPoly.zero()
    for j in range(k + 1):
        lhs = lhs + _sign(j) * (
            monomial(-(n * j + math.comb(j + 1, 2))) * qlah_gr(k, j) * qfact(n + j)
        )
    lhs = lhs * qint(n - k + 1)
    rhs = _sign(k) * qfact(n) * qint(n + 1)
    return lhs == rhs, _qstr(lhs), _qstr(rhs)


def _dom_inv_qtw(cfg: Config) -> list[dict]:
    cap = min(8, cfg.n_max)
    alphas = []
    for a in _alphas(cfg, _Q_ALPHAS):
        alphas.extend((a, -a))
    return [
        {"order": order, "alpha": a, "n": n, "m": m}
        for order in ("w1w2", "w2w1")
        for a in alphas
        for n in range(cap + 1)
        for m in range(n + 1)
    ]


def _chk_inv_qtw(p: dict, mode: str):
    a, n, m, order = p["alpha"], p["n"], p["m"], p["order"]
    lhs = LaurentPoly.zero()
    for j in range(m, n + 1):
        if order == "w1w2":
            lhs = lhs + qw1(a, n, j) * qw2(a, j, m)
        else:
            lhs = lhs + qw2(a, n, j) * qw1(a, j, m)
    rhs = LaurentPoly.one() if n == m else LaurentPoly.zero()
    return lhs == rhs, _qstr(lhs), _qstr(rhs)


def _qbinom_inv_sample(sample: int, length: int) -> list[LaurentPoly]:
    q = LaurentPoly.var()
    if sample == 0:
        return [monomial(j) for j in range(length)]
    if sample == 1:
        return [(1 + q) ** j for j in range(length)]
    return [monomial(-j) + j for j in range(length)]


def _dom_qbinom_inv(cfg: Config) -> list[dict]:
    cap = min(8, cfg.n_max)
    return [
        {"alpha": a, "sample": s, "k": k}
        for a in _alphas(cfg, _Q_ALPHAS)
        for s in range(3)
        for k in range(cap + 1)
    ]


def _chk_qbinom_inv(p: dict, mode: str):
    a, s, k = p["alpha"], p["sample"], p["k"]
    f = _qbinom_inv_sample(s, k + 1)
    back = qbinom_inverse_transform(qbinom_transform(f, a), a)
    return back[k] == f[k], _qstr(back[k]), _qstr(f[k])


def _dom_pe1(cfg: Config) -> list[dict]:
    cap = min(6, cfg.n_max)
    out = []
    for rel in ("product", "binomial"):
        for a in _alphas(cfg, _CLASSICAL_ALPHAS):
            for j in range(0 if rel == "product" else 1, 6):
                for n in range(cap + 1):
                    out.append({"rel": rel, "alpha": a, "j": j, "n": n})
    return out


def _chk_pe1(p: dict, mode: str):
    rel, a, j, n = p["rel"], p["alpha"], p["j"], p["n"]
    if rel == "product":
        lhs = gqf_at(j, a, "-", n)
        rhs = qint(a) ** n
        for i in range(n):
            rhs = rhs * qint(j + i, a)
    else:
        lhs = lp_div_exact(qfalling(j + n - 1, n, a), qfact(n, a))
        rhs = qbinom(j + n - 1, n, a)
    return lhs == rhs, _qstr(lhs), _qstr(rhs)


def _dom_pe2(cfg: Config) -> list[dict]:
    cap = min(8, cfg.n_max)
    return [{"n": n, "k": k} for n in range(1, 5) for k in range(cap + 1)]


def _chk_pe2(p: dict, mode: str):
    n, k = p["n"], p["k"]
    prod = TruncSeries.one(8)
    for i in range(n):
        prod = prod * ts_inverse(TruncSeries([LaurentPoly.one(), -monomial(i)], 8))
    lhs = prod.coeff(k)
    rhs = qbinom(n + k - 1, k)
    return lhs == rhs, _qstr(lhs), _qstr(rhs)


def _dom_qgqif1(cfg: Config) -> list[dict]:
    cap = min(6, cfg.n_max)
    return [
        {"alpha": a, "n": n}
        for a in _alphas(cfg, _Q_ALPHAS)
        for n in range(cap + 1)
    ]


def _chk_qgqif1(p: dict, mode: str):
    a, n = p["alpha"], p["n"]
    lhs = qdowling_qi(a, n)
    rhs = qdowling(a, n)
    return lhs == rhs, _qstr(lhs), _qstr(rhs)


def _dom_q_limits(cfg: Config) -> list[dict]:
    cap = min(8, cfg.n_max)
    out = []
    for family in ("qw1", "qw2", "qwl", "qlah", "qdowling"):
        alphas = [1] if family == "qlah" else _alphas(cfg, _Q_ALPHAS)
        for a in alphas:
            for n in range(cap + 1):
                if family == "qdowling":
                    out.append({"family": family, "alpha": a, "n": n})
                else:
                    for k in range(n + 1):
                        out.append({"family": family, "alpha": a, "n": n, "k": k})
    return out


def _chk_q_limits(p: dict, mode: str):
    family, a, n = p["family"], p["alpha"], p["n"]
    if family == "qdowling":
        lhs = lp_eval_q1(qdowling(a, n))
        rhs = Fraction(dowling(a, n))
        return lhs == rhs, _fstr(lhs), _fstr(rhs)
    k = p["k"]
    if family == "qw1":
        lhs = lp_eval_q1(qw1(a, n, k))
        rhs = Fraction(_sign(n - k) * a ** (n - k) * stirling1u(n, k))
    elif family == "qw2":
        lhs = lp_eval_q1(qw2(a, n, k))
        rhs = Fraction(a ** (n - k) * stirling2(n, k))
    elif family == "qwl":
        lhs = lp_eval_q1(qwl(a, n, k))
        rhs = Fraction(a ** (n - k) * lah(n, k))
    else:
        lhs = lp_eval_q1(qlah_gr(n, k))
        rhs = Fraction(lah(n, k))
    return lhs == rhs, _fstr(lhs), _fstr(rhs)


# -- registry ----------------------------------------------------------------


def _build_registry() -> None:
    classical = [
        (
            "lah_rec",
            "additive recurrence of the Lah triangle",
            "L(n+1,k) = L(n,k-1) + (n+k) L(n,k)",
            ("corrected",),
            _dom_lah_rec,
            _chk_lah_rec,
        ),
        (
            "lah_egf",
            "exponential generating function of Lah columns",
            "sum_n L(n,k) t^n/n! = (1/k!) (t/(1-t))^k",
            ("corrected",),
            _dom_lah_egf,
            _chk_lah_egf,
        ),
        (
            "lah_hgf",
            "rising factorial expanded in falling factorials",
            "<t>_n = sum_k L(n,k) (t)_k",
            ("corrected",),
            _dom_lah_hgf,
            _chk_lah_hgf,
        ),
        (
            "stirling_hgf",
            "Stirling horizontal generating functions, both kinds",
            "(t)_n = sum_k (-1)^(n-k) c(n,k) t^k; t^n = sum_k S(n,k) (t)_k;"
            " <t>_n = sum_k c(n,k) t^k",
            ("corrected",),
            _dom_stirling_hgf,
            _chk_stirling_hgf,
        ),
        (
            "lah_conv",
            "Lah numbers as a Stirling convolution",
            "L(n,k) = sum_j c(n,j) S(j,k)",
            ("corrected",),
            _dom_lah_conv,
            _chk_lah_conv,
        ),
        (
            "qi_bell",
            "Bell numbers from Lah row sums and second-kind Stirling",
            "B_n = sum_k (-1)^(n-k) (sum_l L(k,l)) S(n,k)",
            ("corrected",),
            _dom_qi_bell,
            _chk_qi_bell,
        ),
        (
            "w_hgf",
            "translated Whitney horizontal generating functions",
            "(t|-a)_n = sum_k tw1 t^k; t^n = sum_k tw2 (t|a)_k",
            ("corrected",),
            _dom_w_hgf,
            _chk_w_hgf,
        ),
        (
            "wl_rec",
            "translated Whitney-Lah additive recurrence",
            "wl(n+1,k) = wl(n,k-1) + a(n+k) wl(n,k)",
            ("corrected",),
            _dom_wl_rec,
            _chk_wl_rec,
        ),
        (
            "wl_hgf",
            "translated Whitney-Lah as a change of factorial basis",
            "(t|-a)_n = sum_k wl(n,k) (t|a)_k",
            ("corrected",),
            _dom_wl_hgf,
            _chk_wl_hgf,
        ),
        (
            "wl_conv",
            "translated Whitney-Lah as a first-kind x second-kind convolution",
            "wl(n,j) = sum_k tw1(n,k) tw2(k,j)",
            ("corrected",),
            _dom_wl_conv,
            _chk_wl_conv,
        ),
        (
            "mansour",
            "two-sequence triangle: recurrence vs partial-fraction formula",
            "u(n,k) = sum_j prod_i (b_j+a_i) / prod_{i<=k, i!=j} (b_j-b_i)",
            ("corrected", "as_printed"),
            _dom_mansour,
            _chk_mansour,
        ),
        (
            "r1",
            "Whitney-Lah alternating binomial sum route",
            "wl(n,k) = (a^(n-k)/k!) sum_j (-1)^(k-j) C(k,j) <j>_n",
            ("corrected",),
            _dom_twl_routes,
            _chk_r1,
        ),
        (
            "r2",
            "Whitney-Lah as scaled Lah numbers",
            "wl(n,k) = a^(n-k) L(n,k)",
            ("corrected",),
            _dom_twl_routes,
            _chk_r2,
        ),
        (
            "r2.1",
            "Whitney-Lah closed product form",
            "wl(n,k) = a^(n-k) (n!/k!) C(n-1,n-k)",
            ("corrected",),
            _dom_twl_routes,
            _chk_r2_1,
        ),
        (
            "r3",
            "Whitney-Lah exponential generating function",
            "sum_n wl(n,k) t^n/n! = (1/k!) (t/(1-at))^k",
            ("corrected",),
            _dom_r3,
            _chk_r3,
        ),
        (
            "graham",
            "alternating double-binomial identity",
            "sum_j C(l,m+j) C(s+j,n) (-1)^j = (-1)^(l+m) C(s-m,n-l)",
            ("corrected",),
            _dom_graham,
            _chk_graham,
        ),
        (
            "r4",
            "Whitney-Lah alternating factorial sum",
            "sum_j (-a)^j wl(k,j) (n+j)! = (-a)^k n!(n+1)!/(n-k+1)!",
            ("corrected",),
            _dom_r4,
            _chk_r4,
        ),
        (
            "gouqi",
            "Lah alternating factorial sum",
            "sum_j (-1)^j L(k,j) (n+j)! = (-1)^k n!(n+1)!/(n-k+1)!",
            ("corrected",),
            _dom_gouqi,
            _chk_gouqi,
        ),
        (
            "ortho",
            "orthogonality of the two translated Whitney kinds",
            "sum_j (-1)^(j-m) tw2(n,j) tw1(j,m) = delta(m,n), both orders",
            ("corrected",),
            _dom_ortho,
            _chk_ortho,
        ),
        (
            "gqif1",
            "translated Dowling numbers by the alternating Whitney-Lah sum",
            "D_a(n) = sum_j (-1)^(n-j) (sum_k wl(j,k)) tw2(n,j)",
            ("corrected",),
            _dom_gqif1,
            _chk_gqif1,
        ),
        (
            "dobinski",
            "Dobinski-style series for translated Dowling numbers",
            "D_a(n) = e^(-1/a) sum_i (ia)^n/(i! a^i)",
            ("corrected",),
            _dom_dobinski,
            _chk_dobinski,
        ),
    ]
    qsuite = [
        (
            "q_defs",
            "defining basis expansions of the three q-Whitney kinds,"
            " proved at n+1 evaluation points",
            "[t|a]_n = sum qw1 [t]^k; [t]^n = sum qw2 [t|a]_k;"
            " [t|-a]_n = sum qwl [t|a]_k",
            ("corrected",),
            _dom_q_defs,
            _chk_q_defs,
        ),
        (
            "qw1w2",
            "q-Whitney-Lah as a first-kind x second-kind convolution",
            "qwl_a(n,k) = sum_j qw1_{-a}(n,j) qw2_a(j,k)",
            ("corrected",),
            _dom_qw1w2,
            _chk_qw1w2,
        ),
        (
            "qr1",
            "q-Whitney-Lah explicit Gaussian-binomial sum route",
            "qwl = (1/([k]_{q^a}! [a]^k)) sum_j (-1)^(k-j) q^(aC(k-j,2))"
            " C(k,j)_{q^a} [aj|-a]_n",
            ("corrected",),
            _dom_qr1,
            _chk_qr1,
        ),
        (
            "qr1.1",
            "q-Whitney-Lah generating function, denominators cleared",
            "[n]_{q^a}! [t^n] sum_j (-1)^(k-j) q^(aC(k-j,2)) C(k,j)_{q^a}"
            " prod_m (1-q^(am)[a]t)^(-1) = [k]_{q^a}! [a]^k qwl(n,k)",
            ("corrected",),
            _dom_qr1_1,
            _chk_qr1_1,
        ),
        (
            "qr2",
            "q-Whitney-Lah alternating q-factorial sum",
            "sum_j (-[a])^j q^(-a(nj+C(j+1,2))) qwl(k,j) [n+j]_{q^a}! ="
            " (-[a])^k q^(-a(k(n+1)-C(k,2))) [n]![n+1]!/[n-k+1]!",
            ("corrected", "as_printed"),
            _dom_qr2,
            _chk_qr2,
        ),
        (
            "qr2.1",
            "q-Lah alternating q-factorial sum (the a = 1 case)",
            "sum_j (-1)^j q^(-(nj+C(j+1,2))) L_q(k,j) [n+j]! ="
            " (-1)^k q^(-(k(n+1)-C(k,2))) [n]![n+1]!/[n-k+1]!",
            ("corrected", "as_printed"),
            _dom_qr2_1,
            _chk_qr2_1,
        ),
        (
            "inv_qtw",
            "the two q-Whitney kinds are mutually inverse triangles",
            "sum_j qw1(n,j) qw2(j,m) = delta(m,n), both orders",
            ("corrected",),
            _dom_inv_qtw,
            _chk_inv_qtw,
        ),
        (
            "qbinom_inv",
            "Gaussian-binomial inversion round trip",
            "f_k = sum_j C(k,j)_{q^a} g_j <=> g_k = sum_j (-1)^(k-j)"
            " q^(aC(k-j,2)) C(k,j)_{q^a} f_j",
            ("corrected",),
            _dom_qbinom_inv,
            _chk_qbinom_inv,
        ),
        (
            "pe1",
            "generalized q-factorial product and quotient identities",
            "[aj|-a]_n = [a]^n prod_i [j+i]_{q^a};"
            " [j+n-1]_{q^a,n}/[n]_{q^a}! = C(j+n-1,n)_{q^a}",
            ("corrected",),
            _dom_pe1,
            _chk_pe1,
        ),
        (
            "pe2",
            "finite geometric product generates Gaussian binomials",
            "prod_{k<n} 1/(1-q^k t) = sum_k C(n+k-1,k)_q t^k",
            ("corrected",),
            _dom_pe2,
            _chk_pe2,
        ),
        (
            "qgqif1",
            "translated q-Dowling numbers by the q-Whitney-Lah sum",
            "D_a[n]_q = sum_j (sum_k qwl(j,k)) qw2_{-a}(n,j)",
            ("corrected",),
            _dom_qgqif1,
            _chk_qgqif1,
        ),
        (
            "q_limits",
            "q -> 1 reduction of every q-family to its classical value",
            "eval at q=1: qw1 -> (-1)^(n-k) a^(n-k) c(n,k);"
            " qw2 -> a^(n-k) S(n,k); qwl -> a^(n-k) L(n,k); qD -> D",
            ("corrected",),
            _dom_q_limits,
            _chk_q_limits,
        ),
    ]
    for ident, desc, anchor, modes, dom, chk in classical:
        _register(
            IdentitySpec(ident, desc, anchor, "classical", modes, dom, chk)
        )
    for ident, desc, anchor, modes, dom, chk in qsuite:
        _register(IdentitySpec(ident, desc, anchor, "q", modes, dom, chk))


_build_registry()


# -- execution ---------------------------------------------------------------


_FULL_N_MAX = 12


@lru_cache(maxsize=None)
def _intrinsic_domain(ident: str, mode: str) -> frozenset:
    spec = get_identity(ident)
    cfg = Config(suite="all", alpha_list=(1, 2, 3), n_max=_FULL_N_MAX, mode=mode)
    return frozenset(tuple(sorted(p.items())) for p in spec.domain(cfg))


def _params_key(params: dict) -> tuple:
    return tuple(sorted(params.items()))


def _run_one(spec: IdentitySpec, params: dict, mode: str) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, lhs, rhs = spec.check(params, mode)
    except Exception as exc:  # isolation: a broken check is a failure, not an abort
        passed, lhs, rhs = False, f"<error: {type(exc).__name__}: {exc}>", ""
    elapsed = time.perf_counter() - start
    shown = dict(params)
    if len(spec.modes) > 1:
        shown["mode"] = mode
    return CheckResult(spec.id, shown, passed, lhs, rhs, elapsed)


def check_identity(ident: str, params: dict) -> CheckResult:
    """Run one registered identity at one parameter point.

    ``params`` may carry a ``mode`` key for identities that document a
    printed discrepancy. Raises :class:`UnknownIdentity` or
    :class:`ParamsOutOfDomain` for bad requests.
    """
    spec = get_identity(ident)
    params = dict(params)
    mode = params.pop("mode", "corrected")
    if mode not in MODES or (mode != "corrected" and mode not in spec.modes):
        raise ParamsOutOfDomain(f"identity {ident!r} has no mode {mode!r}")
    if _params_key(params) not in _intrinsic_domain(ident, mode):
        raise ParamsOutOfDomain(
            f"params {params!r} outside the registered grid of {ident!r}"
        )
    return _run_one(spec, params, mode)


def run_suite(config: Config | None = None, **kwargs) -> Report:
    """Run every registered identity over its grid intersected with the
    configuration. Failures are data: they never abort the run.
    """
    cfg = config if config is not None else Config(**kwargs)
    results: list[CheckResult] = []
    for ident in sorted(_REGISTRY):
        spec = _REGISTRY[ident]
        if cfg.suite != "all" and spec.suite != cfg.suite:
            continue
        mode = cfg.mode if cfg.mode in spec.modes else "corrected"
        for params in spec.domain(cfg):
            results.append(_run_one(spec, params, mode))
    failed = [r for r in results if not r.passed]
    failed.sort(key=lambda r: (r.id, json.dumps(r.params, sort_keys=True)))
    wall = sum(r.elapsed for r in results)
    return Report(
        total=len(results),
        passed=len(results) - len(failed),
        failed=failed,
        wall_time=wall,
        config=cfg,
    )


def report_to_dict(report: Report, *, deterministic: bool = True) -> dict:
    """Report as a JSON-ready dict. ``deterministic`` zeroes the wall-clock
    field so that identical configurations serialize byte-identically."""
    return {
        "config": report.config.as_dict(),
        "total": report.total,
        "passed": report.passed,
        "failed": [
            {
                "id": r.id,
                "params": r.params,
                "lhs": r.lhs_canonical,
                "rhs": r.rhs_canonical,
            }
            for r in report.failed
        ],
        "wall_ms": 0 if deterministic else int(report.wall_time * 1000),
    }


def report_to_json(report: Report, *, deterministic: bool = True) -> str:
    return json.dumps(
        report_to_dict(report, deterministic=deterministic),
        sort_keys=True,
        indent=2,
    )
