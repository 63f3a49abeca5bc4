"""The names the README and the benchmark's tracer list are the names the code knows."""

import ast
import re
from importlib import import_module
from pathlib import Path

import pytest

from eulab import cli, exactalg, expand, grammar, identities, permstats, series, stirlingperm, trees

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def names(pattern: str) -> list[str]:
    """The backticked names, flags left out, in the README text the pattern's group spans."""
    match = re.search(pattern, README, re.DOTALL)
    assert match, pattern
    return [name for name in re.findall(r"`([^`]+)`", match.group(1)) if not name.startswith("-")]


def test_identity_catalog():
    assert names(r"Identity catalog: (.*?)\.\n") == list(identities.IDENTITY_NAMES)


def test_table_names():
    listed = names(r"Integer tables \((.*?)\)") + names(r"Polynomial tables \((.*?)\) serialize")
    assert sorted(listed) == sorted(cli._TABLES)


def test_tree_weightings():
    assert names(r"read by three weightings \((.*?)\)") == list(trees.WEIGHTINGS)


def test_expand_bases():
    assert names(r"in one of the bases (.*?)\. ") == list(expand.BASES)


@pytest.mark.parametrize(
    "phrase, limit",
    [
        (r"permutation enumeration at `n <= (\d+)`", permstats.MAX_ENUM_N),
        (r"Stirling generation at (\d+\^\d+) words", stirlingperm.PRODUCT_GUARD),
        (r"tree generation at (\d+\^\d+) trees", trees.TREE_GUARD),
        (r"depth bound `n <= (\d+)`", trees.MAX_DEPTH),
        (r"triangles at `n <= (\d+)`", expand.MAX_TRIANGLE_N),
        (r"gamma tables at `n <= (\d+)`", expand.MAX_TABLE_N),
        pytest.param(r"gamma tables at `n <= (\d+)`", grammar.MAX_HISTOGRAM_N, id="gamma-histogram-rows"),
        (r"at order (\d+)", series.MAX_SERIES_ORDER),
        (r"key field at (\d+)", exactalg.MAX_EXPONENT),
    ],
)
def test_guard_limits(phrase, limit):
    """Each limit the Guards paragraph quotes is the constant its guard reads."""
    paragraph = re.search(r"\nGuards: (.*?)\n\n", README, re.DOTALL)
    assert paragraph
    match = re.search(phrase, " ".join(paragraph.group(1).split()))
    assert match, phrase
    base, _, power = match.group(1).partition("^")
    assert int(base) ** int(power or 1) == limit


def traced_entry_points() -> list[str]:
    """The "module:attribute" entry points of ``LAYERS`` in bench/tracing.py, read as text, not imported."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    (layers,) = [node.value for node in tree.body if isinstance(node, ast.AnnAssign) and node.target.id == "LAYERS"]
    return [point for points in ast.literal_eval(layers).values() for point in points]


#: traced names the package no longer has; the tracer reads zero for them
STALE_ENTRY_POINTS = {"eulab.series:Series.compose"}


def test_every_traced_entry_point_resolves():
    missing = []
    for point in traced_entry_points():
        module, path = point.split(":")
        value = import_module(module)
        for attr in path.split("."):
            value = getattr(value, attr, None)
        if value is None:
            missing.append(point)
    assert sorted(set(missing) - STALE_ENTRY_POINTS) == []
