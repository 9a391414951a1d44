"""Identity registry and grid runner.

Every identity handled by this package is registered here as a
parameterized, machine-checkable claim: one entry of a table that declares
its parameter grid as data and gives a check returning both sides of the
identity at a grid point as exact values (integers, rationals, or Laurent
polynomials). One routine runs a check, compares the two sides with ``==``
and isolates its errors; a suite run counts each identity's checks and
passes inline, times each identity once, keeps a record only of a failed
point, and produces a deterministic report whose failures carry both sides,
rendered to canonical text when read.

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
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, NamedTuple

from .arith import LaurentPoly, monomial
from .classical import (
    _MEMOS,
    DomainError,
    TruncSeries,
    _is_int,
    _lru_memo,
    bell,
    binomial,
    falling_poly,
    genfact_poly,
    lah,
    rising_poly,
    stirling1u,
    stirling2,
    ts_mul_geometric,
)
from .dense import lp_div_exact, lp_dot, lp_eval_q1
from .qcalc import gqf_point, qbinom, qfact, qfalling, qint
from .whitney import (
    MansourSpec,
    _egf_series_cached,
    dowling,
    mansour_u,
    mansour_u_explicit_as_printed,
    tw1,
    tw2,
    twl,
    twl_egf_check,
)
from .qroutes import _qbinom_inverse_entry, _qbinom_transform_entry, qwl_egf_check
from .qwhitney import qdowling, qw1, qw2, qwl

SUITES = ("classical", "q", "all")
MODES = ("corrected", "as_printed")


class UnknownIdentity(DomainError):
    """No identity is registered under the requested id."""


class ParamsOutOfDomain(DomainError):
    """The parameters fall outside the identity's registered grid."""


class InvalidConfig(DomainError):
    """A suite configuration names an unknown suite or mode, an n_max that is
    not an int or is below 1, an alpha that is not an int, or one that no
    identity of the suite checks."""


class _Frozen:
    """A record whose slots cannot be assigned or deleted. ``_init`` sets
    them with ``object.__setattr__``, and so does perfbench's tracer when it
    swaps ``IdentitySpec.check``, which a NamedTuple would not allow."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Config(_Frozen):
    """Grid selection for a suite run. Each identity intersects this with
    its own registered parameter grid. Two configurations are equal, and
    hash alike, when their fields are."""

    __slots__ = ("suite", "alpha_list", "n_max", "mode")

    def __init__(
        self,
        suite: str = "all",
        alpha_list: tuple[int, ...] = (1, 2),
        n_max: int = 8,
        mode: str = "corrected",
    ):
        if suite not in SUITES:
            raise InvalidConfig(f"suite must be one of {SUITES}, got {suite!r}")
        if mode not in MODES:
            raise InvalidConfig(f"mode must be one of {MODES}, got {mode!r}")
        # 2.0 and True compare as numbers, but no grid or family takes them
        if not _is_int(n_max):
            raise InvalidConfig(f"n_max must be an int, got {n_max!r}")
        if n_max < 1:
            raise InvalidConfig(f"n_max must be at least 1, got {n_max}")
        alpha_list = tuple(alpha_list)
        not_int = [a for a in alpha_list if not _is_int(a)]
        if not_int:
            raise InvalidConfig(f"alpha must be an int, got {not_int[0]!r}")
        repeated = sorted({a for a in alpha_list if alpha_list.count(a) > 1})
        if repeated:
            # each alpha's checks would run once per listing
            raise InvalidConfig(
                f"alpha_list repeats alpha {', '.join(map(str, repeated))}"
            )
        specs = [s for s in _REGISTRY.values() if suite in ("all", s.suite)]
        checked = sorted({a for s in specs for a in s.grid.alphas})
        unchecked = [a for a in alpha_list if a not in checked]
        if unchecked:
            raise InvalidConfig(
                f"no identity of suite {suite!r} checks alpha"
                f" {', '.join(map(str, unchecked))}; the alphas it checks are"
                f" {', '.join(map(str, checked))}"
            )
        self._init(suite, alpha_list, n_max, mode)

    def _fields(self) -> tuple:
        return (self.suite, self.alpha_list, self.n_max, self.mode)

    def __eq__(self, other):
        if type(other) is not Config:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"Config(suite={self.suite!r}, alpha_list={self.alpha_list!r},"
            f" n_max={self.n_max!r}, mode={self.mode!r})"
        )

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "alpha_list": list(self.alpha_list),
            "n_max": self.n_max,
            "mode": self.mode,
        }


class CheckResult(NamedTuple):
    """One check at one grid point: its two sides as values, rendered to
    canonical text in the suite's variable only when that text is read.
    A check that raised has its error message as ``lhs`` and ``""`` as
    ``rhs``. ``check_identity`` returns one for its point, with the
    seconds the check took as ``elapsed``. A suite run builds one only for
    a failed point; it times each identity once, not each point, so its
    records carry 0.0. A result is an immutable tuple of its fields, so it
    also compares equal to a plain tuple of the same values."""

    id: str
    params: dict
    passed: bool
    lhs: object
    rhs: object
    var: str
    elapsed: float

    @property
    def lhs_canonical(self) -> str:
        return _render(self.lhs, self.var)

    @property
    def rhs_canonical(self) -> str:
        return _render(self.rhs, self.var)


class Report(NamedTuple):
    total: int
    passed: int
    failed: list[CheckResult]
    wall_time: float
    config: Config
    # id -> {"checks", "passed", "seconds" (the wall time of the identity's
    # loop over its points), "skipped_alphas", "max_n" (the largest n
    # checked, None without an n)}
    identities: dict[str, dict]
    # the memos at the end of the run by name, as ``classical._MEMOS`` counts them
    caches: dict


# Spans an axis of a grid may run over, by name: the selected alphas (the
# grid's alphas that the configuration lists, in its order), each of them
# followed by its negation, or a range bounded by top = min(cap, n_max) or
# by an outer axis of the point built so far.
_SPANS = {
    "alphas": lambda p, top, alphas: alphas,
    "alphas,-alphas": lambda p, top, alphas: [s for a in alphas for s in (a, -a)],
    "0..top": lambda p, top, alphas: range(top + 1),
    "1..top": lambda p, top, alphas: range(1, top + 1),
    "0..top-1": lambda p, top, alphas: range(top),
    "k-1..top": lambda p, top, alphas: range(p["k"] - 1, top + 1),
    "0..n": lambda p, top, alphas: range(p["n"] + 1),
    "0..n+1": lambda p, top, alphas: range(p["n"] + 2),
}


class Grid(NamedTuple):
    """An identity's parameter grid, declared by its axes.

    ``axes`` lists ``(name, values)`` pairs from the outermost loop in;
    ``values`` is a tuple or range of fixed values or the name of a span in
    ``_SPANS``. An irregular grid is a union: a tuple of such axis lists,
    whose points are concatenated in order. ``alphas`` is every alpha the
    identity checks, ``cap`` the largest n. ``printed`` replaces the axes
    in ``as_printed`` mode.
    """

    cap: int
    alphas: tuple[int, ...]
    axes: tuple
    printed: tuple = ()

    def points(self, alpha_list: tuple[int, ...], n_max: int, mode: str) -> list[dict]:
        alphas = [a for a in alpha_list if a in self.alphas]
        top = min(self.cap, n_max)
        axes = self.printed if mode == "as_printed" and self.printed else self.axes
        # an axis list starts with a (name, values) pair, a union with a list
        union = (axes,) if isinstance(axes[0][0], str) else axes
        points = []
        for axis_list in union:
            part = [{}]
            for name, values in axis_list:
                if isinstance(values, str):
                    span = _SPANS[values]
                    part = [{**p, name: v} for p in part for v in span(p, top, alphas)]
                else:
                    part = [{**p, name: v} for p in part for v in values]
            points += part
        return points


class IdentitySpec(_Frozen):
    """One registered identity: an id, a citation anchor, a parameter grid,
    and a check that takes a grid point as keyword arguments and returns
    the identity's two sides as values, ``(lhs, rhs)``."""

    __slots__ = ("id", "description", "paper_anchor", "grid", "check", "suite", "modes")

    def __init__(
        self,
        id: str,
        description: str,
        paper_anchor: str,
        grid: Grid,
        check: Callable[..., tuple],
        suite: str,
        modes: tuple[str, ...] = ("corrected",),
    ):
        self._init(id, description, paper_anchor, grid, check, suite, modes)

    def domain(self, cfg: Config) -> list[dict]:
        mode = cfg.mode if cfg.mode in self.modes else "corrected"
        points = self.grid.points(cfg.alpha_list, cfg.n_max, mode)
        if len(self.modes) > 1:
            for p in points:
                p["mode"] = mode
        return points


def registry_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_identity(ident: str) -> IdentitySpec:
    try:
        return _REGISTRY[ident]
    except KeyError:
        raise UnknownIdentity(f"no identity registered as {ident!r}") from None


def _sign(x: int) -> int:
    return 1 if x % 2 == 0 else -1


_CLASSICAL_ALPHAS = (1, 2, 3)
_Q_ALPHAS = (1, 2)

# -- classical-suite checks --------------------------------------------------


def _chk_stirling_hgf(rel, n):
    if rel == "falling":
        rhs = lp_dot((_sign(n - k) * stirling1u(n, k), monomial(k)) for k in range(n + 1))
        return falling_poly(n), rhs
    if rel == "power":
        return monomial(n), lp_dot((stirling2(n, k), falling_poly(k)) for k in range(n + 1))
    return rising_poly(n), lp_dot((stirling1u(n, k), monomial(k)) for k in range(n + 1))


def _chk_qi_bell(n):
    rhs = sum(
        _sign(n - k) * sum(lah(k, l) for l in range(1, k + 1)) * stirling2(n, k)
        for k in range(1, n + 1)
    )
    return bell(n), rhs


def _chk_w_hgf(rel, alpha, n):
    if rel == "first":
        rhs = lp_dot((tw1(alpha, n, k), monomial(k)) for k in range(n + 1))
        return genfact_poly(n, -alpha), rhs
    return monomial(n), lp_dot((tw2(alpha, n, k), genfact_poly(k, alpha)) for k in range(n + 1))


def _chk_wl_rec(alpha, n, k):
    # the recurrence checked on the independently computed product route
    product = partial(twl, alpha, route="product")
    return product(n + 1, k), product(n, k - 1) + alpha * (n + k) * product(n, k)


def _chk_mansour(rel, alpha, n, k, mode):
    spec = MansourSpec.linear(alpha)
    lhs = mansour_u(spec, n, k)
    if rel == "whitney_lah":
        return lhs, twl(alpha, n, k)
    if mode == "as_printed":
        return lhs, mansour_u_explicit_as_printed(spec, n, k)
    return lhs, mansour_u(spec, n, k, route="explicit")


def _chk_twl_route(alpha, n, k, route):
    return twl(alpha, n, k), twl(alpha, n, k, route=route)


def _chk_r2(alpha, n, k):
    return twl(alpha, n, k), alpha ** (n - k) * lah(n, k)


def _chk_graham(l, m, s, n):
    # 0 <= m + j <= l: math.comb takes the first binomial, and the second
    # unless its upper argument s + j is negative (n >= 0 on the grid)
    lhs = sum(
        math.comb(l, m + j)
        * (math.comb(s + j, n) if s + j >= 0 else binomial(s + j, n))
        * _sign(j)
        for j in range(-m, l - m + 1)
    )
    return lhs, _sign(l + m) * binomial(s - m, n - l)


def _chk_r4(alpha, k, n):
    lhs = sum(
        (-alpha) ** j * twl(alpha, k, j) * math.factorial(n + j)
        for j in range(1, k + 1)
    )
    rhs = (-alpha) ** k * math.factorial(n) * math.perm(n + 1, k)
    return lhs, rhs


def _chk_gouqi(k, n):
    lhs = sum(_sign(j) * lah(k, j) * math.factorial(n + j) for j in range(1, k + 1))
    rhs = _sign(k) * math.factorial(n) * math.perm(n + 1, k)
    return lhs, rhs


def _chk_ortho(order, alpha, n, m):
    js = range(m, n + 1)
    if order == "second_first":
        lhs = sum(_sign(j - m) * tw2(alpha, n, j) * tw1(alpha, j, m) for j in js)
    else:
        lhs = sum(_sign(n - j) * tw1(alpha, n, j) * tw2(alpha, j, m) for j in js)
    return lhs, int(n == m)


# -- q-suite checks ----------------------------------------------------------


def _horner(coeffs: list, factor: Callable[[int], LaurentPoly]) -> LaurentPoly:
    """``sum_k coeffs[k] * factor(0) * ... * factor(k-1)``, nested from the
    inside out as ``coeffs[0] + factor(0) (coeffs[1] + factor(1) (...))``:
    one product by each ``factor(k)`` for k < len(coeffs) - 1, to which
    ``coeffs[k]`` is added in the product's own list by ``lp_dot``, and none
    between two partial sums."""
    acc = coeffs[-1]
    for k in range(len(coeffs) - 2, -1, -1):
        acc = lp_dot(((factor(k), acc), (coeffs[k], 1)))
    return acc


def _chk_q_defs(rel, alpha, n, m):
    # each rhs sums over the basis its lhs does not read: def1 over [t]^k
    # against the [t - i alpha] of the lhs; def2 and def3 over [t|alpha]_k,
    # by [t - i alpha], against [t]^n and the [t + i alpha] of [t|-alpha]_n
    t = m * alpha
    tval = qint(t)
    if rel == "def1":
        lhs, kind, step = gqf_point(t, alpha, n), qw1, lambda k: tval
    else:
        lhs, kind = (tval**n, qw2) if rel == "def2" else (gqf_point(t, -alpha, n), qwl)
        step = lambda k: qint(t - k * alpha)  # [t|alpha]_(k+1) / [t|alpha]_k
    return lhs, _horner([kind(alpha, n, k) for k in range(n + 1)], step)


def _qr2_sum(a: int, k: int, n: int, printed: bool) -> LaurentPoly:
    # term j over term j - 1 is -[a] q^(-e (n+j)) [n+j]_{q^a}, that is
    # -q^(-e (n+j)) [a (n+j)]_q, with e = 1 as printed and e = a corrected;
    # every term holds [n]_{q^a}!
    e = 1 if printed else a
    return qfact(n, a) * _horner(
        [qwl(a, k, j) for j in range(k + 1)],
        lambda j: monomial(-e * (n + j + 1), -1) * qint(a * (n + j + 1)),
    )


def _qr2_sides(a: int, k: int, n: int, printed: bool):
    lhs = _qr2_sum(a, k, n, printed)
    rhs = _sign(k) * (qint(a) ** k) * qfact(n, a)
    if not printed:
        rhs = rhs * monomial(-a * (k * (n + 1) - math.comb(k, 2)))
    return lhs, rhs * qfalling(n + 1, k, a)  # [n+1]!/[n-k+1]!


def _chk_qr2_1(k, n, mode):
    if mode != "as_printed":
        return _qr2_sides(1, k, n, printed=False)
    # printed corollary divides by [n-k+1]_q (not its factorial); compare
    # with that single q-integer cleared
    lhs = _qr2_sum(1, k, n, printed=True) * qint(n - k + 1)
    return lhs, _sign(k) * qfact(n) * qint(n + 1)


def _chk_inv_qtw(order, alpha, n, m):
    if order == "w1w2":
        lhs = lp_dot((qw1(alpha, n, j), qw2(alpha, j, m)) for j in range(m, n + 1))
    else:
        lhs = lp_dot((qw2(alpha, n, j), qw1(alpha, j, m)) for j in range(m, n + 1))
    return lhs, LaurentPoly.one() if n == m else LaurentPoly.zero()


def _qbinom_inv_sample(sample: int, j: int) -> LaurentPoly:
    """f_j of the sequence ``sample``: q^j, (1 + q)^j or q^-j + j."""
    if sample == 0:
        return monomial(j)
    if sample == 1:
        return (1 + LaurentPoly.var()) ** j
    return monomial(-j) + j


def _chk_qbinom_inv(alpha, sample, k):
    F = [_forward_entry(alpha, sample, j) for j in range(k + 1)]
    return _qbinom_inverse_entry(F, k, alpha), _qbinom_inv_sample(sample, k)


def _chk_pe1(rel, alpha, j, n):
    if rel == "product":
        # [aj|-a]_n against [a]^n [j|-1]_n over q^a: a shared primitive,
        # not a shared route
        rhs = qint(alpha) ** n * gqf_point(j, -1, n, alpha)
        return gqf_point(alpha * j, -alpha, n), rhs
    # [j+n-1]_{q^a,n} divided by [2]_{q^a}, ..., [n]_{q^a} in turn ([1] is
    # 1), against the q-Pascal triangle, which divides nowhere
    lhs = qfalling(j + n - 1, n, alpha)
    for i in range(2, n + 1):
        lhs = lp_div_exact(lhs, qint(i, alpha))
    return lhs, qbinom(j + n - 1, n, alpha)


@_lru_memo("geometric_products")
@lru_cache(maxsize=None)
def _geometric_product(n: int, order: int) -> TruncSeries:
    """prod_{i<n} 1/(1 - q^i t), truncated at ``order``."""
    prod = TruncSeries.one(order)
    for i in range(n):
        prod = ts_mul_geometric(prod, monomial(i))
    return prod


@_lru_memo("forward_entries")
@lru_cache(maxsize=None)
def _forward_entry(alpha: int, sample: int, j: int) -> LaurentPoly:
    """F_j, entry j of the forward Gaussian-binomial transform over q^alpha
    of the ``qbinom_inv`` sequence ``sample``: every k >= j reads it."""
    f = [_qbinom_inv_sample(sample, i) for i in range(j + 1)]
    return _qbinom_transform_entry(f, j, alpha)


def _chk_pe2(n, k):
    # order max(8, k) covers the coefficient read
    return _geometric_product(n, max(8, k)).coeff(k), qbinom(n + k - 1, k)


def _chk_q_limits(family, n, k=None, alpha=None):
    if family == "qdowling":
        return lp_eval_q1(qdowling(alpha, n)), dowling(alpha, n)
    if family == "qw1":
        rhs = _sign(n - k) * alpha ** (n - k) * stirling1u(n, k)
        return lp_eval_q1(qw1(alpha, n, k)), rhs
    if family == "qw2":
        return lp_eval_q1(qw2(alpha, n, k)), alpha ** (n - k) * stirling2(n, k)
    if family == "qwl":
        return lp_eval_q1(qwl(alpha, n, k)), alpha ** (n - k) * lah(n, k)
    return lp_eval_q1(qwl(1, n, k)), lah(n, k)


# -- registry ----------------------------------------------------------------

_BOTH_MODES = ("corrected", "as_printed")
_ALPHA = ("alpha", "alphas")
_N = ("n", "0..top")
_TRIANGLE = (_ALPHA, _N, ("k", "0..n"))

_classical = partial(IdentitySpec, suite="classical")
_q = partial(IdentitySpec, suite="q")

_IDENTITIES = (
    _classical(
        "lah_rec",
        "additive recurrence of the Lah triangle",
        "L(n+1,k) = L(n,k-1) + (n+k) L(n,k)",
        Grid(12, (), (_N, ("k", "0..n+1"))),
        lambda n, k: (lah(n + 1, k), lah(n, k - 1) + (n + k) * lah(n, k)),
    ),
    _classical(
        "lah_egf",
        "exponential generating function of Lah columns",
        "sum_n L(n,k) t^n/n! = (1/k!) (t/(1-t))^k",
        Grid(12, (), (("k", range(7)), _N)),
        lambda k, n: (
            Fraction(
                _egf_series_cached(1, k, max(12, n)).coeff(n),
                math.factorial(k) * math.factorial(n),
            ),
            Fraction(lah(n, k), math.factorial(n)),
        ),
    ),
    _classical(
        "lah_hgf",
        "rising factorial expanded in falling factorials",
        "<t>_n = sum_k L(n,k) (t)_k",
        Grid(10, (), (_N,)),
        lambda n: (
            rising_poly(n),
            lp_dot((lah(n, k), falling_poly(k)) for k in range(n + 1)),
        ),
    ),
    _classical(
        "stirling_hgf",
        "Stirling horizontal generating functions, both kinds",
        "(t)_n = sum_k (-1)^(n-k) c(n,k) t^k; t^n = sum_k S(n,k) (t)_k;"
        " <t>_n = sum_k c(n,k) t^k",
        Grid(10, (), (("rel", ("falling", "power", "rising")), _N)),
        _chk_stirling_hgf,
    ),
    _classical(
        "lah_conv",
        "Lah numbers as a Stirling convolution",
        "L(n,k) = sum_j c(n,j) S(j,k)",
        Grid(12, (), (_N, ("k", "0..n"))),
        lambda n, k: (
            lah(n, k),
            sum(stirling1u(n, j) * stirling2(j, k) for j in range(k, n + 1)),
        ),
    ),
    _classical(
        "qi_bell",
        "Bell numbers from Lah row sums and second-kind Stirling",
        "B_n = sum_k (-1)^(n-k) (sum_l L(k,l)) S(n,k)",
        Grid(12, (), (("n", "1..top"),)),
        _chk_qi_bell,
    ),
    _classical(
        "w_hgf",
        "translated Whitney horizontal generating functions",
        "(t|-a)_n = sum_k tw1 t^k; t^n = sum_k tw2 (t|a)_k",
        Grid(10, _CLASSICAL_ALPHAS, (("rel", ("first", "second")), _ALPHA, _N)),
        _chk_w_hgf,
    ),
    _classical(
        "wl_rec",
        "translated Whitney-Lah additive recurrence",
        "wl(n+1,k) = wl(n,k-1) + a(n+k) wl(n,k)",
        Grid(12, _CLASSICAL_ALPHAS, (_ALPHA, ("n", "0..top-1"), ("k", "0..n+1"))),
        _chk_wl_rec,
    ),
    _classical(
        "wl_hgf",
        "translated Whitney-Lah as a change of factorial basis",
        "(t|-a)_n = sum_k wl(n,k) (t|a)_k",
        Grid(10, _CLASSICAL_ALPHAS, (_ALPHA, _N)),
        lambda alpha, n: (
            genfact_poly(n, -alpha),
            lp_dot((twl(alpha, n, k), genfact_poly(k, alpha)) for k in range(n + 1)),
        ),
    ),
    _classical(
        "wl_conv",
        "translated Whitney-Lah as a first-kind x second-kind convolution",
        "wl(n,j) = sum_k tw1(n,k) tw2(k,j)",
        Grid(12, _CLASSICAL_ALPHAS, (_ALPHA, _N, ("j", "0..n"))),
        lambda alpha, n, j: (
            twl(alpha, n, j),
            sum(tw1(alpha, n, k) * tw2(alpha, k, j) for k in range(j, n + 1)),
        ),
    ),
    _classical(
        "mansour",
        "two-sequence triangle: recurrence vs partial-fraction formula",
        "u(n,k) = sum_j prod_i (b_j+a_i) / prod_{i<=k, i!=j} (b_j-b_i)",
        Grid(
            12,
            _CLASSICAL_ALPHAS,
            (("rel", ("explicit", "whitney_lah")),) + _TRIANGLE,
            # witness point for the printed denominator bound
            printed=(("rel", ("explicit",)), _ALPHA, ("n", (3,)), ("k", (1,))),
        ),
        _chk_mansour,
        modes=_BOTH_MODES,
    ),
    _classical(
        "r1",
        "Whitney-Lah alternating binomial sum route",
        "wl(n,k) = (a^(n-k)/k!) sum_j (-1)^(k-j) C(k,j) <j>_n",
        Grid(12, _CLASSICAL_ALPHAS, _TRIANGLE),
        partial(_chk_twl_route, route="explicit"),
    ),
    _classical(
        "r2",
        "Whitney-Lah as scaled Lah numbers",
        "wl(n,k) = a^(n-k) L(n,k)",
        Grid(12, _CLASSICAL_ALPHAS, _TRIANGLE),
        _chk_r2,
    ),
    _classical(
        "r2.1",
        "Whitney-Lah closed product form",
        "wl(n,k) = a^(n-k) (n!/k!) C(n-1,n-k)",
        Grid(12, _CLASSICAL_ALPHAS, _TRIANGLE),
        partial(_chk_twl_route, route="product"),
    ),
    _classical(
        "r3",
        "Whitney-Lah exponential generating function",
        "sum_n wl(n,k) t^n/n! = (1/k!) (t/(1-at))^k",
        Grid(12, _CLASSICAL_ALPHAS, (_ALPHA, ("k", range(7)), _N)),
        twl_egf_check,
    ),
    _classical(
        "graham",
        "alternating double-binomial identity",
        "sum_j C(l,m+j) C(s+j,n) (-1)^j = (-1)^(l+m) C(s-m,n-l)",
        Grid(8, (), (("l", "0..top"), ("m", range(-2, 3)), ("s", "0..top"), _N)),
        _chk_graham,
    ),
    _classical(
        "r4",
        "Whitney-Lah alternating factorial sum",
        "sum_j (-a)^j wl(k,j) (n+j)! = (-a)^k n!(n+1)!/(n-k+1)!",
        Grid(12, _CLASSICAL_ALPHAS, (_ALPHA, ("k", range(2, 9)), ("n", "k-1..top"))),
        _chk_r4,
    ),
    _classical(
        "gouqi",
        "Lah alternating factorial sum",
        "sum_j (-1)^j L(k,j) (n+j)! = (-1)^k n!(n+1)!/(n-k+1)!",
        Grid(12, (), (("k", range(2, 9)), ("n", "k-1..top"))),
        _chk_gouqi,
    ),
    _classical(
        "ortho",
        "orthogonality of the two translated Whitney kinds",
        "sum_j (-1)^(j-m) tw2(n,j) tw1(j,m) = delta(m,n), both orders",
        Grid(
            10,
            _CLASSICAL_ALPHAS,
            (("order", ("second_first", "first_second")), _ALPHA, _N, ("m", "0..n")),
        ),
        _chk_ortho,
    ),
    _classical(
        "gqif1",
        "translated Dowling numbers by the alternating Whitney-Lah sum",
        "D_a(n) = sum_j (-1)^(n-j) (sum_k wl(j,k)) tw2(n,j)",
        Grid(12, _CLASSICAL_ALPHAS, (_ALPHA, _N)),
        lambda alpha, n: (dowling(alpha, n, route="qi"), dowling(alpha, n)),
    ),
    _classical(
        "dobinski",
        "Dobinski-style series for translated Dowling numbers",
        "D_a(n) = e^(-1/a) sum_i (ia)^n/(i! a^i)",
        Grid(10, _CLASSICAL_ALPHAS, (_ALPHA, _N)),
        lambda alpha, n: (dowling(alpha, n, route="dobinski"), dowling(alpha, n)),
    ),
    _q(
        "q_defs",
        "defining basis expansions of the three q-Whitney kinds,"
        " proved at n+1 evaluation points",
        "[t|a]_n = sum qw1 [t]^k; [t]^n = sum qw2 [t|a]_k;"
        " [t|-a]_n = sum qwl [t|a]_k",
        Grid(
            8,
            _Q_ALPHAS,
            (
                (
                    ("rel", ("def1", "def2")),
                    ("alpha", "alphas,-alphas"),
                    _N,
                    ("m", "0..n"),
                ),
                # qwl needs alpha > 0
                (("rel", ("def3",)), _ALPHA, _N, ("m", "0..n")),
            ),
        ),
        _chk_q_defs,
    ),
    _q(
        "qw1w2",
        "q-Whitney-Lah as a first-kind x second-kind convolution",
        "qwl_a(n,k) = sum_j qw1_{-a}(n,j) qw2_a(j,k)",
        Grid(8, _Q_ALPHAS, _TRIANGLE),
        lambda alpha, n, k: (
            qwl(alpha, n, k),
            lp_dot((qw1(-alpha, n, j), qw2(alpha, j, k)) for j in range(n + 1)),
        ),
    ),
    _q(
        "qr1",
        "q-Whitney-Lah explicit Gaussian-binomial sum route",
        "qwl = (1/([k]_{q^a}! [a]^k)) sum_j (-1)^(k-j) q^(aC(k-j,2))"
        " C(k,j)_{q^a} [aj|-a]_n",
        Grid(8, _Q_ALPHAS, _TRIANGLE),
        lambda alpha, n, k: (qwl(alpha, n, k), qwl(alpha, n, k, route="explicit")),
    ),
    _q(
        "qwl_product",
        "q-Whitney-Lah closed product form, the q-analogue of r2.1",
        "qwl(n,k) = [a]^(n-k) C(n,k)_{q^a} ([n-1]_{q^a}!/[k-1]_{q^a}!) q^(ak(k-1)):"
        " the Garsia-Remmel q-Lah number over q^a (Garsia, Remmel 1980)",
        Grid(8, _Q_ALPHAS, _TRIANGLE),
        lambda alpha, n, k: (qwl(alpha, n, k), qwl(alpha, n, k, route="product")),
    ),
    _q(
        "qr1.1",
        "q-Whitney-Lah generating function, denominators cleared",
        "[n]_{q^a}! [t^n] sum_j (-1)^(k-j) q^(aC(k-j,2)) C(k,j)_{q^a}"
        " prod_m (1-q^(am)[a]t)^(-1) = [k]_{q^a}! [a]^k qwl(n,k)",
        Grid(8, _Q_ALPHAS, (_ALPHA, ("k", range(5)), _N)),
        qwl_egf_check,
    ),
    _q(
        "qr2",
        "q-Whitney-Lah alternating q-factorial sum",
        "sum_j (-[a])^j q^(-a(nj+C(j+1,2))) qwl(k,j) [n+j]_{q^a}! ="
        " (-[a])^k q^(-a(k(n+1)-C(k,2))) [n]![n+1]!/[n-k+1]!",
        Grid(8, _Q_ALPHAS, (_ALPHA, ("k", range(1, 7)), ("n", "k-1..top"))),
        lambda alpha, k, n, mode: _qr2_sides(alpha, k, n, mode == "as_printed"),
        modes=_BOTH_MODES,
    ),
    _q(
        "qr2.1",
        "q-Lah alternating q-factorial sum (the a = 1 case)",
        "sum_j (-1)^j q^(-(nj+C(j+1,2))) L_q(k,j) [n+j]! ="
        " (-1)^k q^(-(k(n+1)-C(k,2))) [n]![n+1]!/[n-k+1]!",
        Grid(8, (), (("k", range(1, 7)), ("n", "k-1..top"))),
        _chk_qr2_1,
        modes=_BOTH_MODES,
    ),
    _q(
        "inv_qtw",
        "the two q-Whitney kinds are mutually inverse triangles",
        "sum_j qw1(n,j) qw2(j,m) = delta(m,n), both orders",
        Grid(
            8,
            _Q_ALPHAS,
            (
                ("order", ("w1w2", "w2w1")),
                ("alpha", "alphas,-alphas"),
                _N,
                ("m", "0..n"),
            ),
        ),
        _chk_inv_qtw,
    ),
    _q(
        "qbinom_inv",
        "Gaussian-binomial inversion round trip",
        "f_k = sum_j C(k,j)_{q^a} g_j <=> g_k = sum_j (-1)^(k-j)"
        " q^(aC(k-j,2)) C(k,j)_{q^a} f_j",
        Grid(8, _Q_ALPHAS, (_ALPHA, ("sample", range(3)), ("k", "0..top"))),
        _chk_qbinom_inv,
    ),
    _q(
        "pe1",
        "generalized q-factorial product and quotient identities",
        "[aj|-a]_n = [a]^n prod_i [j+i]_{q^a};"
        " [j+n-1]_{q^a,n}/[n]_{q^a}! = C(j+n-1,n)_{q^a}",
        Grid(
            6,
            _CLASSICAL_ALPHAS,
            (
                (("rel", ("product",)), _ALPHA, ("j", range(6)), _N),
                (("rel", ("binomial",)), _ALPHA, ("j", range(1, 6)), _N),
            ),
        ),
        _chk_pe1,
    ),
    _q(
        "pe2",
        "finite geometric product generates Gaussian binomials",
        "prod_{k<n} 1/(1-q^k t) = sum_k C(n+k-1,k)_q t^k",
        Grid(8, (), (("n", range(1, 5)), ("k", "0..top"))),
        _chk_pe2,
    ),
    _q(
        "qgqif1",
        "translated q-Dowling numbers by the q-Whitney-Lah sum",
        "D_a[n]_q = sum_j (sum_k qwl(j,k)) qw2_{-a}(n,j)",
        Grid(6, _Q_ALPHAS, (_ALPHA, _N)),
        lambda alpha, n: (qdowling(alpha, n, route="qi"), qdowling(alpha, n)),
    ),
    _q(
        "q_limits",
        "q -> 1 reduction of every q-family to its classical value",
        "eval at q=1: qw1 -> (-1)^(n-k) a^(n-k) c(n,k);"
        " qw2 -> a^(n-k) S(n,k); qwl -> a^(n-k) L(n,k); qD -> D",
        Grid(
            8,
            _Q_ALPHAS,
            (
                (("family", ("qw1", "qw2", "qwl")),) + _TRIANGLE,
                # the q-Lah triangle, qwl at alpha 1, takes no alpha
                (("family", ("qlah",)), _N, ("k", "0..n")),
                (("family", ("qdowling",)), _ALPHA, _N),
            ),
        ),
        _chk_q_limits,
    ),
)
_REGISTRY = {spec.id: spec for spec in _IDENTITIES}


# -- execution ---------------------------------------------------------------


# Polynomials of the classical suite are in t, q-analogues in q.
_VARIABLE = {"classical": "t", "q": "q"}


def _render(value, var: str) -> str:
    return value.to_str(var) if isinstance(value, LaurentPoly) else str(value)


def _outcome(spec: IdentitySpec, params: dict) -> tuple:
    """``(passed, lhs, rhs)`` of the check of ``spec`` at one grid point,
    the one place that runs a check. A check that raised has its error
    message as ``lhs`` and ``""`` as ``rhs``."""
    try:
        lhs, rhs = spec.check(**params)
        return lhs == rhs, lhs, rhs
    except Exception as exc:  # isolation: a broken check is a failure, not an abort
        return False, f"<error: {type(exc).__name__}: {exc}>", ""


@lru_cache(maxsize=None)
def _intrinsic_domain(ident: str, mode: str) -> frozenset:
    spec = get_identity(ident)
    cfg = Config(alpha_list=spec.grid.alphas, n_max=spec.grid.cap, mode=mode)
    return frozenset(_params_key(p) for p in spec.domain(cfg))


def _params_key(params: dict) -> tuple:
    return tuple(sorted(params.items()))


def check_identity(ident: str, params: dict) -> CheckResult:
    """Run one registered identity at one parameter point.

    ``params`` may carry a ``mode`` key for identities that document a
    printed discrepancy. Raises :class:`UnknownIdentity` or
    :class:`ParamsOutOfDomain` for bad requests.
    """
    spec = get_identity(ident)
    params = dict(params)
    mode = params.pop("mode", "corrected")
    if mode not in spec.modes:
        raise ParamsOutOfDomain(f"identity {ident!r} has no mode {mode!r}")
    # True and 2.0 equal 1 and 2, and hash alike, so they would pass the
    # grid test below; every grid value is an int or a str
    for key, value in params.items():
        if not (_is_int(value) or type(value) is str):
            raise ParamsOutOfDomain(
                f"parameter {key!r} of {ident!r} must be an int or a str, got {value!r}"
            )
    point = {**params, "mode": mode} if len(spec.modes) > 1 else params
    if _params_key(point) not in _intrinsic_domain(ident, mode):
        raise ParamsOutOfDomain(
            f"params {params!r} outside the registered grid of {ident!r}"
        )
    start = time.perf_counter()
    passed, lhs, rhs = _outcome(spec, point)
    elapsed = time.perf_counter() - start
    return CheckResult(ident, point, passed, lhs, rhs, _VARIABLE[spec.suite], elapsed)


def run_suite(config: Config | None = None, **kwargs) -> Report:
    """Run every registered identity over its grid intersected with the
    configuration: ``config``, or one built from the keywords; both at once
    is a TypeError. Failures are data: they never abort the run.
    """
    start = time.perf_counter()
    if config is not None and kwargs:
        raise TypeError(
            f"run_suite takes a Config or keywords, not both; got {sorted(kwargs)}"
        )
    cfg = config if config is not None else Config(**kwargs)
    specs = [s for _, s in sorted(_REGISTRY.items()) if cfg.suite in ("all", s.suite)]
    perf = time.perf_counter
    failed, identities = [], {}
    for spec in specs:
        points = spec.domain(cfg)
        var = _VARIABLE[spec.suite]
        passed = 0
        # the clock is read once per identity, not per point
        begun = perf()
        for params in points:
            ok, lhs, rhs = _outcome(spec, params)
            if ok:
                passed += 1
            else:
                failed.append(CheckResult(spec.id, params, False, lhs, rhs, var, 0.0))
        # an identity without alphas skips none; one with alphas skips those it lacks
        identities[spec.id] = {
            "checks": len(points),
            "passed": passed,
            "seconds": perf() - begun if points else 0.0,
            "skipped_alphas": [
                a for a in cfg.alpha_list if spec.grid.alphas and a not in spec.grid.alphas
            ],
            "max_n": max((p["n"] for p in points if "n" in p), default=None),
        }
    failed.sort(key=lambda r: (r.id, json.dumps(r.params, sort_keys=True)))
    total = sum(t["checks"] for t in identities.values())
    return Report(
        total=total,
        passed=total - len(failed),
        failed=failed,
        wall_time=time.perf_counter() - start,
        config=cfg,
        identities=identities,
        caches={name: count() for name, (count, _) in sorted(_MEMOS.items())},
    )


def report_to_dict(report: Report, *, deterministic: bool = True) -> dict:
    """Report as a JSON-ready dict. ``deterministic`` zeroes the wall-clock
    field so that identical configurations serialize byte-identically;
    without it the dict also carries, under ``identities``, every identity
    the suite selected, those that ran no check included: its check count,
    passed count, ``seconds``, the wall time of its loop over its grid
    points (0.0 if it ran no check), ``skipped_alphas``, the configured
    alphas outside the identity's own set, and ``max_n``, the largest n it
    checked (None if its grid has no n or it ran no check); and, under
    ``caches``, the memos at the end of the run: ``triangles`` lists per
    weights function and alpha the stored rows and cells of the triangle
    engine, the Gaussian binomials' ``_qbinom_weights`` keyed by base
    among them; ``gqf_points`` counts the stored generalized q-factorials
    [t|alpha]_n over q^base, the prefixes of ``qfact`` and ``qfalling``
    among them; ``geometric_products`` the stored series products of
    ``pe2``, ``forward_entries`` the stored forward-transform entries F_j
    of ``qbinom_inv`` by (alpha, sample, j), ``inverse_weights`` the stored
    weights of the inverse transform's entries by (alpha, k), ``egf_series``
    and ``qwl_egf_series`` the stored left sides of ``r3``/``lah_egf`` and
    ``qr1.1`` by (alpha, k, order), each a series whose coefficient n is
    already multiplied by n! or [n]_{q^alpha}!, ``qint`` the entries of
    that q-primitive's cache, and
    ``render_formats`` the exponent formats ``LaurentPoly.to_str`` holds,
    over every variable it has rendered. Each memo registers itself in
    ``classical._MEMOS`` where it is defined; ``caches`` reads that table and
    ``clear_caches()`` empties it."""
    doc = {
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
    if not deterministic:
        doc["identities"] = report.identities
        doc["caches"] = report.caches
    return doc


def report_to_json(report: Report, *, deterministic: bool = True) -> str:
    return json.dumps(
        report_to_dict(report, deterministic=deterministic),
        sort_keys=True,
        indent=2,
    )


def _verify_command(args) -> int:
    """The CLI's ``verify`` command on its parsed ``args``: the report of
    the configured suite, as JSON or as text with one line per failure; the
    exit code is 1 if a check failed, else 0."""
    try:
        alpha_list = tuple(int(a) for a in args.alpha_list.split(","))
    except ValueError:
        raise DomainError(
            f"--alpha-list must be comma-separated integers, got {args.alpha_list!r}"
        ) from None
    cfg = Config(suite=args.suite, alpha_list=alpha_list, n_max=args.n_max, mode=args.mode)
    report = run_suite(cfg)
    if args.format == "json":
        print(report_to_json(report, deterministic=True))
    else:
        print(
            f"suite={cfg.suite} alpha_list={','.join(map(str, cfg.alpha_list))}"
            f" n_max={cfg.n_max} mode={cfg.mode}"
        )
        print(f"total={report.total} passed={report.passed} failed={len(report.failed)}")
        for r in report.failed:
            params = json.dumps(r.params, sort_keys=True)
            print(f"FAIL {r.id} {params} lhs={r.lhs_canonical} rhs={r.rhs_canonical}")
    return 0 if not report.failed else 1
