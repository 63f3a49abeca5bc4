import ast
import inspect
import json
from collections import Counter

import pytest

from eulab import expand, identities, permstats, stirlingperm, trees
from eulab.errors import OutOfRangeError
from eulab.exactalg import Poly
from eulab.identities import _REGISTRY, IDENTITY_NAMES, _first_mismatch, verify
from eulab.series import Series


def _corrupt_at_3(monkeypatch, module, attr):
    """Make ``module.attr`` return a wrong value (every coefficient + 1) when n == 3."""
    original = getattr(module, attr)

    def corrupted(n, *args):
        value = original(n, *args)
        if n != 3:
            return value
        if isinstance(value, dict):
            return {key: v + 1 for key, v in value.items()}
        return value + 1

    monkeypatch.setattr(module, attr, corrupted)


@pytest.mark.parametrize(
    "module, attr, identity, k",
    [
        (permstats, "perm_poly", "frobenius", None),
        (trees, "tree_weight_poly", "andre", None),
        (stirlingperm, "kth_order_poly", "kth-grammar", 2),
        (permstats, "asc_suc_counts", "roselle", None),
    ],
    ids=["frobenius", "andre", "kth-grammar", "roselle"],
)
def test_corrupted_route_fails_at_first_bad_n(monkeypatch, module, attr, identity, k):
    _corrupt_at_3(monkeypatch, module, attr)
    report = verify(identity, 4, k)
    assert report.status == "fail"
    assert report.counterexample["n"] == 3
    if k is not None:
        assert report.counterexample["k"] == k
    json.dumps(report.to_obj())


def test_series_counterexample_shows_egf_numerators(monkeypatch):
    """A [z^3] one too large in the trivariate EGF shows as n! [z^n]: a difference of 3! = 6."""
    build = identities.egf_build

    def corrupted(name, order, params=None):
        series = build(name, order, params)
        return series + Series([0, 0, 0, 1], order) if name == "trivariate" else series

    monkeypatch.setattr(identities, "egf_build", corrupted)
    report = verify("convolution", 5)
    assert report.status == "fail"
    counterexample = report.counterexample
    assert (counterexample["n"], counterexample["route"]) == (3, "egf")
    lhs = Poly.from_json_obj(counterexample["lhs"])
    rhs = Poly.from_json_obj(counterexample["rhs"])
    assert lhs == permstats.perm_poly(4, "trivariate")
    assert rhs - lhs == 6


@pytest.mark.parametrize("name", IDENTITY_NAMES)
def test_smallest_n_checks_something(name):
    entry = _REGISTRY[name]
    assert next(entry.fn(entry.min_n, None), None) is not None


def test_set_keyed_counterexample_is_json():
    cases = [
        (2, {frozenset(): 1}, {frozenset(): 1}, {}),
        (3, {frozenset({2, 1}): 1}, {frozenset({1, 2}): 2}, {"route": "profile"}),
    ]
    counterexample = json.loads(json.dumps(_first_mismatch(cases)))
    assert counterexample == {"n": 3, "lhs": [[[1, 2], 1]], "rhs": [[[1, 2], 2]], "route": "profile"}


@pytest.mark.parametrize(
    "identity, max_n, message",
    [("chenfu-esym", 9, "|Q_9(2)|"), ("histogram-independence", 10, "34459425 trees")],
)
def test_guard_precedes_every_tree(monkeypatch, identity, max_n, message):
    def tree_oracle(n, *args):
        raise AssertionError(f"tree oracle called at n={n} before the guard")

    monkeypatch.setattr(trees, "tree_weight_poly", tree_oracle)
    report = verify(identity, max_n)
    assert report.status == "guard"
    assert message in report.note


def test_gamma_table_bound_is_a_guard_not_a_failure():
    assert verify("gamma-2n-2n", 11).status == "pass"
    report = verify("gamma-2n-2n", 12)
    assert report.status == "guard"
    assert "table guard" in report.note


@pytest.fixture
def walks(monkeypatch):
    """Make every walk behind a range guard raise; the list records the arguments of each.

    The walks are the three enumeration oracles, the triangle rows and the fills of
    the gamma tables.
    """
    calls = []

    def sweep(*args):
        calls.append(args)
        raise AssertionError(f"walk {args} before the guard")

    monkeypatch.setattr(permstats, "_perm_table", sweep)
    monkeypatch.setattr(stirlingperm, "_walk", sweep)
    monkeypatch.setattr(trees, "_walk", sweep)
    monkeypatch.setattr(permstats, "_triangle_row", sweep)
    for kind in expand.TABLE_KINDS:
        monkeypatch.setitem(expand._FILLS, kind, sweep)
    return calls


@pytest.mark.parametrize(
    "identity, max_n, message",
    [
        ("frobenius", 11, "n=11 exceeds"),
        ("gamma-eulerian", 11, "n=11 exceeds"),
        ("stembridge", 11, "n=11 exceeds"),
        ("roselle", 11, "n=11 exceeds"),
        ("trivariate-grammar", 10, "n=11 exceeds"),
        ("trivariate-egf", 10, "n=11 exceeds"),
        ("partial-gamma", 10, "n=11 exceeds"),
        ("convolution", 10, "n=11 exceeds"),
        ("diaconis", 11, "n=11 exceeds"),
        ("second-order-grammar", 9, "|Q_9(2)|"),
        ("kth-grammar", 10, "|Q_10(2)|"),
        ("forest-gamma", 12, "tree guard"),
        ("andre", 60, "tree guard"),
        ("final-corollary", 10, "34459425 trees"),
    ],
)
def test_guard_precedes_every_sweep(walks, identity, max_n, message):
    report = verify(identity, max_n)
    assert report.status == "guard"
    assert message in report.note
    assert walks == []


@pytest.mark.parametrize("name", sorted(set(IDENTITY_NAMES) - {"transform-catalog"}))
def test_every_check_guards_before_any_walk(walks, name):
    """Past every limit, each check with an n range reports GUARD and starts no walk."""
    assert verify(name, 2000).status == "guard"
    assert walks == []


def test_cn2_guard_is_the_triangle_guard(walks):
    with pytest.raises(OutOfRangeError) as exc:
        permstats.triangle("second-order-eulerian", 2000, 2)
    report = verify("cn2-closed-form", 2000)
    assert (report.status, report.note) == ("guard", str(exc.value))
    assert walks == []


def test_gamma_xy_check_sees_a_planted_row_term(monkeypatch):
    """x(x-1)(x-2) y^3 added to row 5 vanishes at x = 0, 1, 2, so a check at points
    with those x values misses it; comparing whole polynomials does not."""
    fill = expand._FILLS["gamma-n-xy-poly"]
    x, y = Poly.var("x"), Poly.var("y")

    def planted(n_max):
        rows = fill(n_max)
        if n_max >= 5:
            rows[5] = rows[5] + x * (x - 1) * (x - 2) * y**3
        return rows

    monkeypatch.setitem(expand._FILLS, "gamma-n-xy-poly", planted)
    expand.gamma_tables.cache_clear()
    try:
        report = verify("gamma-xy-closed-form")
    finally:
        expand.gamma_tables.cache_clear()
    assert report.status == "fail"
    assert report.counterexample["n"] == 5


def test_mainthm_esym_guards_every_k(walks):
    """mainthm-esym guards every k in range at max_n, so a large k alone meets the word limit."""
    report = verify("mainthm-esym", 10, 8)
    assert report.status == "guard"
    assert "|Q_10(8)|" in report.note
    assert walks == []


def test_verify_all_walks_each_object_set_once(monkeypatch):
    """At default ranges, from cold caches, S_n is swept once per n, Q_n(k) walked once
    per (n, k) and each tree family once per n, whichever identities read them."""
    for module in (permstats, stirlingperm, trees):
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    runs = Counter()

    def count_runs(module, name):
        """Record the arguments of each call of ``module.name`` that runs it: every call,
        or every cache miss of a cached walk."""
        walk = getattr(module, name)
        info = getattr(walk, "cache_info", None)

        def counted(*args):
            misses = info().misses if info else 0
            result = walk(*args)
            if info is None or info().misses > misses:
                runs[(module.__name__, *args)] += 1
            return result

        monkeypatch.setattr(module, name, counted)

    count_runs(permstats, "_perm_table")
    count_runs(stirlingperm, "_walk")
    count_runs(trees, "_walk")
    assert all(report.passed for report in identities.verify_all())
    assert {key[0] for key in runs} == {"eulab.permstats", "eulab.stirlingperm", "eulab.trees"}
    assert {key: c for key, c in runs.items() if c > 1} == {}


def test_transform_catalog_checks_one_multiplicity():
    def g9_pairs(k):
        cases = _REGISTRY["transform-catalog"].fn(0, k)
        return [extra["transform"] for _, _, _, extra in cases if extra["transform"].startswith("G9")]

    assert g9_pairs(3) == ["G9:3->G10:3"]
    assert g9_pairs(None) == [f"G9:{k}->G10:{k}" for k in range(1, 5)]


@pytest.mark.parametrize("oracle", [permstats, stirlingperm, trees], ids=lambda m: m.__name__)
def test_enumeration_oracles_import_no_other_route(oracle):
    """The enumeration route reads the polynomial kernel and the error types only."""
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert "eulab" not in ast.dump(node), ast.dump(node)
    assert imported <= {"errors", "exactalg"}, imported
