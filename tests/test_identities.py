import ast
import builtins
import gc
import inspect
import json
import pkgutil
import subprocess
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

import eulab
from eulab import expand, grammar, identities, permstats, stirlingperm, trees
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

    The walks are the three enumeration oracles, the recurrence rows and the
    histogram's G10 iteration.
    """
    calls = []

    def sweep(*args):
        calls.append(args)
        raise AssertionError(f"walk {args} before the guard")

    monkeypatch.setattr(permstats, "_perm_table", sweep)
    monkeypatch.setattr(stirlingperm, "_walk", sweep)
    monkeypatch.setattr(trees, "_walk", sweep)
    monkeypatch.setattr(expand, "_row", sweep)
    monkeypatch.setattr(grammar, "_histogram_rows", sweep)
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
        expand.triangle("second-order-eulerian", 2000, 2)
    report = verify("cn2-closed-form", 2000)
    assert (report.status, report.note) == ("guard", str(exc.value))
    assert walks == []


@pytest.fixture
def cold_rows():
    """Clear the recurrence rows before and after a test that plants a fault in them."""
    expand._row.cache_clear()
    yield
    expand._row.cache_clear()


def _bump_entry_2(row):
    return row[:2] + (row[2] + 1,) + row[3:]


_x, _y = Poly.var("x"), Poly.var("y")


#: (recurrence kind, the row planted, the fault, {identity that reads the table: first n it fails at})
_PLANTED_ROWS = [
    ("surjection", 3, _bump_entry_2, {"frobenius": 3}),
    (
        "second-order-eulerian",
        3,
        _bump_entry_2,
        {"cn2-closed-form": 3, "second-order-grammar": 3, "final-corollary": 4},  # the last reads row n - 1
    ),
    ("gamma-nij", 3, lambda row: {**row, (1, 1): row[(1, 1)] + 1}, {"partial-gamma": 3, "forest-gamma": 3}),
    # x(x-1)(x-2) y^3 vanishes at x = 0, 1, 2, so a check at points with those x
    # values would miss it; comparing whole polynomials does not
    ("gamma-n-xy-poly", 5, lambda row: row + _x * (_x - 1) * (_x - 2) * _y**3, {"gamma-xy-closed-form": 5}),
    ("eulerian", 3, _bump_entry_2, {"frobenius": 3}),
]


def test_planted_rows_cover_every_recurrence():
    assert {case[0] for case in _PLANTED_ROWS} == set(expand._RULES)


@pytest.mark.parametrize("kind, n, plant, readers", _PLANTED_ROWS, ids=[case[0] for case in _PLANTED_ROWS])
def test_recurrence_route_is_load_bearing(monkeypatch, cold_rows, kind, n, plant, readers):
    """A wrong recurrence row fails exactly the identities that read that table, at that row."""
    row0, rule = expand._RULES[kind]

    def planted(prev, m):
        row = rule(prev, m)
        return plant(row) if m == n else row

    monkeypatch.setitem(expand._RULES, kind, (row0, planted))
    reports = {report.name: report for report in identities.verify_all()}
    failed = {name: report.counterexample["n"] for name, report in reports.items() if report.status == "fail"}
    assert failed == readers
    assert all(report.passed for name, report in reports.items() if name not in readers)


def test_mainthm_esym_guards_every_k(walks):
    """mainthm-esym guards every k in range at max_n, so a large k alone meets the word limit."""
    report = verify("mainthm-esym", 10, 8)
    assert report.status == "guard"
    assert "|Q_10(8)|" in report.note
    assert walks == []


def test_verify_all_walks_each_object_set_once(monkeypatch):
    """At default ranges, from cold caches, S_n is swept once per n, Q_n(k) walked once
    per (n, k), each tree family once per n, each recurrence row built once per
    (kind, n) and G10 iterated once for the histogram, whichever identities read them."""
    for module in (permstats, stirlingperm, trees, expand, grammar):
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
                runs[(module.__name__, name, *args)] += 1
            return result

        monkeypatch.setattr(module, name, counted)

    count_runs(permstats, "_perm_table")
    count_runs(stirlingperm, "_walk")
    count_runs(trees, "_walk")
    count_runs(expand, "_row")
    count_runs(grammar, "_histogram_rows")
    assert all(report.passed for report in identities.verify_all())
    assert {key[:2] for key in runs} == {
        ("eulab.permstats", "_perm_table"),
        ("eulab.stirlingperm", "_walk"),
        ("eulab.trees", "_walk"),
        ("eulab.expand", "_row"),
        ("eulab.grammar", "_histogram_rows"),
    }
    assert {key: c for key, c in runs.items() if c > 1} == {}


def test_a_walk_leaves_no_cyclic_garbage():
    """The recursive closures of the S_n sweep and the tree walk are released when they return,
    so their memos and working dicts are freed at once, not at the next cyclic collection."""
    gc.collect()
    gc.disable()
    try:
        permstats._perm_table.__wrapped__(8)
        trees._walk.__wrapped__(10, trees.FamilySpec("nonplane", 2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_each_tree_family_is_one_cache_entry():
    """Both readers of the deghist family ask for it the same way, so each walk is one tree_weight_poly entry."""
    trees.tree_weight_poly.cache_clear()
    trees._walk.cache_clear()
    assert verify("histogram-independence").passed and verify("final-corollary").passed
    assert trees.tree_weight_poly.cache_info().misses == trees._walk.cache_info().misses


#: identity -> (max_n, cases compared, largest n) at its default range
CHECKED = {
    "andre": (7, 8, 7),
    "chenfu-esym": (6, 6, 6),
    "cn2-closed-form": (20, 19, 20),
    "convolution": (7, 16, 7),
    "diaconis": (7, 7, 7),
    "final-corollary": (7, 42, 7),
    "forest-gamma": (7, 8, 7),
    "frobenius": (8, 16, 8),
    "gamma-2n-2n": (8, 13, 9),
    "gamma-eulerian": (8, 8, 8),
    "gamma-xy-closed-form": (7, 8, 7),
    "histogram-independence": (6, 15, 6),
    "kth-grammar": (5, 20, 5),
    "mainthm-esym": (5, 45, 5),
    "partial-gamma": (7, 8, 7),
    "roselle": (7, 112, 7),
    "second-order-grammar": (6, 12, 6),
    "stembridge": (8, 8, 8),
    "transform-catalog": (0, 10, 0),
    "trivariate-egf": (7, 8, 7),
    "trivariate-grammar": (7, 8, 7),
    "trivariate-pde": (8, 8, 7),
}


def test_each_check_compares_the_pinned_cases():
    """A PASS says nothing of what was compared; this pins the cases and the n they reach."""
    got = {}
    for name, entry in _REGISTRY.items():
        ns = [n for n, *_ in entry.fn(entry.default_max_n, None)]
        got[name] = (entry.default_max_n, len(ns), max(ns))
    assert got == CHECKED


def test_transform_catalog_checks_one_multiplicity():
    def g9_pairs(k):
        cases = _REGISTRY["transform-catalog"].fn(0, k)
        return [extra["transform"] for _, _, _, extra in cases if extra["transform"].startswith("G9")]

    assert g9_pairs(3) == ["G9:3->G10:3"]
    assert g9_pairs(None) == [f"G9:{k}->G10:{k}" for k in range(1, 5)]


#: module -> the package modules it may import (None: any).  Each route reads only the
#: polynomial kernel and the error types, so no route can lean on another.
IMPORT_TABLE = {
    "errors": set(),
    "exactalg": {"errors"},
    "grammar": {"errors", "exactalg"},
    "series": {"errors", "exactalg"},
    "expand": {"errors", "exactalg"},
    "permstats": {"errors", "exactalg"},
    "stirlingperm": {"errors", "exactalg"},
    "trees": {"errors", "exactalg"},
    "identities": None,
    "cli": None,
    "__init__": None,
}


def package_imports(source: str) -> set[str]:
    """The package modules that ``source`` imports, relative or absolute; ``from . import x`` gives x."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("eulab." * bool(node.level) + (node.module or "")).rstrip(".")  # "from ." is eulab
            names += [f"{base}.{alias.name}" for alias in node.names] if base == "eulab" else [base]
    return {name.split(".")[1] for name in names if name.startswith("eulab.")}


def test_package_imports_reads_every_import_form():
    source = (
        "import json\nfrom math import comb\nimport eulab.cli\nfrom eulab import expand\n"
        "from eulab.trees import guard\nfrom . import grammar as g, series\nfrom .errors import EngineError\n"
    )
    assert package_imports(source) == {"cli", "expand", "trees", "grammar", "series", "errors"}


MODULES = sorted({m.name for m in pkgutil.iter_modules(eulab.__path__)} | set(IMPORT_TABLE))


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_only_its_row_of_the_table(name):
    """Every module of the package has a row, and imports from the package only what its row names."""
    assert name in IMPORT_TABLE, f"eulab.{name} has no row in IMPORT_TABLE"
    if IMPORT_TABLE[name] is not None:
        imported = package_imports(inspect.getsource(import_module(f"eulab.{name}")))
        assert imported <= IMPORT_TABLE[name], imported - IMPORT_TABLE[name]


def test_the_cli_starts_without_dataclasses_or_inspect():
    """Every start of ``eulab`` imports the whole package.  ``dataclasses`` would bring
    ``inspect``, ``ast``, ``dis`` and ``tokenize`` with it, so no module uses it."""
    src = str(Path(eulab.__file__).resolve().parents[1])
    probe = f"import sys; sys.path[:0] = [{src!r}]; import eulab.cli; print(*sys.modules)"
    run = subprocess.run([sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    assert "eulab.cli" in loaded
    assert {"dataclasses", "inspect"} & loaded == set()


def raised_names(source: str) -> set[str]:
    """The class names that ``source`` raises: ``raise X(...)``, ``raise X`` and ``raise m.X`` give X."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return names - {None}


def test_raised_names_reads_every_raise_form():
    source = (
        "raise ValueError('x')\nraise TypeError\nraise builtins.KeyError(1) from None\n"
        "try:\n    pass\nexcept OSError:\n    raise\nraise errors.EngineError('y')\n"
    )
    assert raised_names(source) == {"ValueError", "TypeError", "KeyError", "EngineError"}


@pytest.mark.parametrize("name", MODULES)
def test_each_module_refuses_only_with_engine_errors(name):
    """Every deliberate refusal is an ``EngineError``, so no module raises a builtin exception class:
    the CLI and ``verify`` then tell a refusal from a bug by that one type."""
    raised = raised_names(inspect.getsource(import_module(f"eulab.{name}")))
    assert {r for r in raised if isinstance(getattr(builtins, r, None), type)} == set()
