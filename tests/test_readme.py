"""The names the README lists are the names the code knows."""

import re
from pathlib import Path

from eulab import cli, expand, identities

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


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


def test_expand_bases():
    assert names(r"in one of the bases (.*?)\. ") == list(expand.BASES)
