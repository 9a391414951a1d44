"""Each family's routes are declared once, as ``ROUTES`` in its module, and
every route but the default is checked against the default by the registry.

The coverage test rebinds each family function in ``verify``'s namespace
to a recorder, runs each identity alone from cleared memos at alpha 1..3
and n_max 6 in both modes, and compares the non-default routes each
identity reads with ``ROUTE_IDENTITIES``.
"""

import inspect
import re
from pathlib import Path

import pytest

import whitneylah
from whitneylah import base, qwhitney, verify, whitney
from whitneylah.base import DomainError
from whitneylah.verify import run_suite

README = Path(__file__).resolve().parents[1] / "README.md"

# family -> its module's declaration of its routes, the default first
ROUTES = {**whitney.ROUTES, **qwhitney.ROUTES}
MODULE = {family: module for module in (whitney, qwhitney) for family in module.ROUTES}

# (family, non-default route) -> the identities that read it
ROUTE_IDENTITIES = {
    ("twl", "explicit"): {"r1"},
    ("twl", "product"): {"r2.1"},
    ("twl", "scaled"): {"r2", "wl_rec"},
    ("mansour_u", "explicit"): {"mansour"},
    ("dowling", "qi"): {"gqif1"},
    ("dowling", "dobinski"): {"dobinski"},
    ("qwl", "explicit"): {"qr1"},
    ("qdowling", "qi"): {"qgqif1"},
}
# (family, non-default route) -> why no identity reads it
UNCHECKED = {
    ("qlah_gr", "explicit"): "no identity reads it: q_limits reads the q-Lah"
    " recurrence, and no identity compares the closed product form with it",
}

# the arguments of a sample call of each family, before ``route``
SAMPLE = {
    "twl": (2, 3, 1),
    "mansour_u": (whitney.MansourSpec.linear(2), 3, 1),
    "dowling": (2, 3),
    "qwl": (2, 3, 1),
    "qlah_gr": (3, 1),
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


def test_every_route_but_the_default_is_checked_or_named():
    others = {(f, r) for f, routes in ROUTES.items() for r in routes[1:]}
    assert others == set(ROUTE_IDENTITIES) | set(UNCHECKED)
    assert not set(ROUTE_IDENTITIES) & set(UNCHECKED)


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
