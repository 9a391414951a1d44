"""Each family's routes are declared once, as ``ROUTES`` in its module, and
every route but the default is checked against the default by the registry.

The coverage test rebinds each family function in ``verify``'s namespace
to a recorder, runs each identity alone from cleared memos at alpha 1..3
and n_max 6 in both modes, and compares the non-default routes each
identity reads with ``ROUTE_IDENTITIES``. The guard test corrupts each
family's default route, rebound in every module that holds it, and
requires each identity of ``ROUTE_IDENTITIES`` to fail: a route body that
read the default route would pass with it.

The agreement test holds every route to its family's default over a grid
that runs two past each edge of the triangle, so a route needs no domain
of its own: the one rule, ``classical._off_triangle``, states where every
family is the zero of its ring and that n and k are ints.
"""

import inspect
import re
from pathlib import Path

import pytest

import whitneylah
from test_independence import raise_first_of_row_3, raise_row_3, rebind_everywhere
from whitneylah import base, classical, qroutes, qwhitney, verify, whitney
from whitneylah.base import DomainError
from whitneylah.verify import run_suite

README = Path(__file__).resolve().parents[1] / "README.md"

# family -> its module's declaration of its routes, the default first
ROUTES = {**whitney.ROUTES, **qwhitney.ROUTES}
MODULE = {family: module for module in (whitney, qwhitney) for family in module.ROUTES}

# (family, non-default route) -> the identities that read it
ROUTE_IDENTITIES = {
    ("twl", "explicit"): {"r1"},
    ("twl", "product"): {"r2.1", "wl_rec"},
    ("mansour_u", "explicit"): {"mansour"},
    ("dowling", "qi"): {"gqif1"},
    ("dowling", "dobinski"): {"dobinski"},
    ("qwl", "explicit"): {"qr1"},
    ("qwl", "product"): {"qwl_product"},
    ("qdowling", "qi"): {"qgqif1"},
}


def raise_n_3(recurrence):
    """``_mansour_recurrence`` with every value of row 3 raised by one."""

    def corrupted(spec, n, k):
        value = recurrence(spec, n, k)
        return value + 1 if n == 3 else value

    return corrupted


# family -> the primitive of its default route, as (module, name, corruption):
# the engine weights, or mansour_u's own loop
DEFAULT_ROUTE = {
    "twl": (whitney, "_twl_weights", raise_row_3),
    "mansour_u": (whitney, "_mansour_recurrence", raise_n_3),
    "dowling": (classical, "_tw2_weights", raise_row_3),
    "qwl": (qwhitney, "_qwl_weights", raise_row_3),
    # the first weight: raising all of row 3 is a mutation that qgqif1, a
    # change of basis, cannot see (test_independence.READ_AND_PASS)
    "qdowling": (qwhitney, "_qw2_weights", raise_first_of_row_3),
}
# identity -> the grid points where it compares the route with the default
ROUTE_POINTS = {"mansour": {"rel": "explicit"}}
# identity -> why it passes with the default route corrupted: it reads none
READS_NO_DEFAULT = {
    "wl_rec": "checks the recurrence on the product route's own values",
}

# the arguments of a sample call of each family, before ``route``
SAMPLE = {
    "twl": (2, 3, 1),
    "mansour_u": (whitney.MansourSpec.linear(2), 3, 1),
    "dowling": (2, 3),
    "qwl": (2, 3, 1),
    "qdowling": (2, 3),
}


def test_the_default_route_comes_first_and_is_the_keywords_default():
    assert set(SAMPLE) == set(ROUTES)
    for family, routes in ROUTES.items():
        assert routes[0] == "recurrence", family
        assert len(set(routes)) == len(routes), family
        fn = getattr(MODULE[family], family)
        assert inspect.signature(fn).parameters["route"].default == routes[0], family


@pytest.mark.parametrize("family", sorted(ROUTES))
def test_an_unknown_route_is_one_domain_error_that_names_the_routes(family):
    fn = getattr(MODULE[family], family)
    names = ", ".join(ROUTES[family])
    message = f"unknown route 'oracle' of {family}; its routes are {names}"
    with pytest.raises(DomainError) as caught:
        fn(*SAMPLE[family], route="oracle")
    assert type(caught.value) is DomainError and str(caught.value) == message


def test_no_public_function_takes_method():
    for name in whitneylah.__all__:
        fn = getattr(whitneylah, name)
        if inspect.isfunction(fn):
            assert "method" not in inspect.signature(fn).parameters, name


def test_every_route_but_the_default_is_checked():
    others = {(f, r) for f, routes in ROUTES.items() for r in routes[1:]}
    assert others == set(ROUTE_IDENTITIES)


def test_the_registry_reads_each_route_in_the_identities_named(monkeypatch):
    current, read = [None], {}

    def recorder(family, fn):
        signature = inspect.signature(fn)

        def recorded(*args, **kwargs):
            route = signature.bind(*args, **kwargs).arguments.get("route", ROUTES[family][0])
            if route != ROUTES[family][0]:
                read.setdefault((family, route), set()).add(current[0])
            return fn(*args, **kwargs)

        return recorded

    for family in ROUTES:
        monkeypatch.setattr(verify, family, recorder(family, getattr(verify, family)))
    registry = dict(verify._REGISTRY)
    try:
        for ident, spec in registry.items():
            monkeypatch.setattr(verify, "_REGISTRY", {ident: spec})
            current[0] = ident
            alphas = tuple(a for a in (1, 2, 3) if a in spec.grid.alphas)
            for mode in verify.MODES:
                base.clear_caches()
                run_suite(alpha_list=alphas, n_max=6, mode=mode)
    finally:
        base.clear_caches()
    assert read == ROUTE_IDENTITIES


@pytest.mark.parametrize("key", sorted(ROUTE_IDENTITIES), ids="-".join)
def test_a_corrupted_default_route_fails_each_identity_of_the_route(key, monkeypatch):
    """Each identity runs alone from cleared memos, at alpha 1..3 and n_max
    6, with the family's default route corrupted in every module that holds
    it: its route side, computed apart, no longer agrees."""
    module, name, corrupt = DEFAULT_ROUTE[key[0]]
    calls = rebind_everywhere(monkeypatch, module, name, corrupt)
    registry = dict(verify._REGISTRY)
    try:
        for ident in sorted(ROUTE_IDENTITIES[key]):
            spec = registry[ident]
            monkeypatch.setattr(verify, "_REGISTRY", {ident: spec})
            base.clear_caches()
            calls.clear()
            alphas = tuple(a for a in (1, 2, 3) if a in spec.grid.alphas)
            failed = run_suite(alpha_list=alphas, n_max=6).failed
            if ident in READS_NO_DEFAULT:
                assert not calls and not failed, ident
                continue
            where = ROUTE_POINTS.get(ident, {}).items()
            assert any(all(r.params[p] == v for p, v in where) for r in failed), ident
    finally:
        base.clear_caches()


# family -> its value at (alpha, n, k) by a route; a sequence takes no k, and
# mansour_u reads the spec that specializes it to the Whitney-Lah triangle
CALL = {
    "twl": lambda a, n, k, r: whitney.twl(a, n, k, route=r),
    "mansour_u": lambda a, n, k, r: whitney.mansour_u(
        whitney.MansourSpec.linear(a), n, k, route=r
    ),
    "dowling": lambda a, n, k, r: whitney.dowling(a, n, route=r),
    "qwl": lambda a, n, k, r: qwhitney.qwl(a, n, k, route=r),
    "qdowling": lambda a, n, k, r: qwhitney.qdowling(a, n, route=r),
}
SEQUENCES = {"dowling", "qdowling"}


def agreement_grid(family: str):
    """alpha 1..3, -2 <= n <= 8 (6 for a q-family) and -2 <= k <= n + 2; a
    sequence at k = 0 only."""
    top = 6 if MODULE[family] is qwhitney else 8
    for alpha in (1, 2, 3):
        for n in range(-2, top + 1):
            for k in (0,) if family in SEQUENCES else range(-2, n + 3):
                yield alpha, n, k


@pytest.mark.parametrize("family", sorted(ROUTES))
def test_every_route_equals_the_default_route_on_and_off_the_triangle(family):
    """One domain rule for every route: each holds wherever its family
    does, and off the triangle each is the zero of its ring."""
    call, (default, *others) = CALL[family], ROUTES[family]
    for alpha, n, k in agreement_grid(family):
        expected = call(alpha, n, k, default)
        for route in others:
            assert call(alpha, n, k, route) == expected, (route, alpha, n, k)


def index_calls(n, k):
    """(name, call) of every family by every route, the other families and
    both series checks at (n, k) and alpha 2; a sequence reads n alone."""
    for family, routes in ROUTES.items():
        for route in routes:
            yield f"{family}/{route}", lambda r=route, f=family: CALL[f](2, n, k, r)
    for fn in (whitney.tw1, whitney.tw2, qwhitney.qw1, qwhitney.qw2):
        yield fn.__name__, lambda fn=fn: fn(2, n, k)
    for fn in (classical.stirling1u, classical.stirling2, classical.lah):
        yield fn.__name__, lambda fn=fn: fn(n, k)
    yield "bell", lambda: classical.bell(n)
    yield "twl_egf_check", lambda: whitney.twl_egf_check(2, k, n)
    yield "qwl_egf_check", lambda: qroutes.qwl_egf_check(2, k, n)


@pytest.mark.parametrize("bad", [3.0, 2.5, True], ids=repr)
@pytest.mark.parametrize("at", ["n", "k"])
def test_an_index_that_is_not_an_int_is_a_domain_error_whatever_the_memo_holds(at, bad):
    # 3.0 == 3 and True == 1 hash alike, so a stored row would answer them
    assert whitney.tw1(2, 3, 1) == 8
    n, k = (bad, 1) if at == "n" else (3, bad)
    for name, call in index_calls(n, k):
        if at == "k" and name.split("/")[0] in SEQUENCES | {"bell"}:
            continue
        with pytest.raises(DomainError, match=f"n and k must be integers, got {bad!r}"):
            call()


def readme_routes() -> dict:
    """(family, route) -> the identities the README's route table names for
    it, in the table's order; a default route maps to None."""
    text = README.read_text()
    table = text[text.index("| family | route | checked by |") :].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[2:]:
        family, route, checked = (cell.strip() for cell in line.strip("|").split("|"))
        key = (family.strip("`"), route.split("`")[1])
        rows[key] = None if "default" in route else set(re.findall(r"`([^`]+)`", checked))
    return rows


def test_the_readme_lists_every_route_and_its_identity():
    rows = readme_routes()
    assert list(rows) == [(f, r) for f, routes in ROUTES.items() for r in routes]
    for (family, route), idents in rows.items():
        if route == ROUTES[family][0]:
            assert idents is None, family
        else:
            assert idents == ROUTE_IDENTITIES.get((family, route), set()), (family, route)
