"""``eulab table`` prints exactly what it printed before its dispatch was rewritten.

``table_digests.json`` holds the SHA-256 of the stdout of
``eulab table <name> --n 6 --format <json|csv>`` for every table name, with
``kth-order`` at ``--k 2`` and ``--k 3``, recorded at commit 41650f4, while
the names were still spelled out in ``cli.py``.  Its ``edge_rows`` hold the
same digests for the two gamma tables at ``--n 0`` and at the table guard's
top row, ``--n 12``, recorded at commit 297ce20, before the tables were stored
by row.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from eulab.cli import _TABLES, main

DIGESTS = json.loads(Path(__file__).with_name("table_digests.json").read_text())

N = 6

#: (name, k) of every pinned table; only kth-order takes a k
TABLES = (
    ("eulerian", None),
    ("trivariate", None),
    ("second-order", None),
    ("kth-order", 2),
    ("kth-order", 3),
    ("gamma-nij", None),
    ("gamma-histogram", None),
    ("andre", None),
)

#: (name, n) of the gamma tables pinned at their first row and at the guard's top row
EDGE_ROWS = tuple((name, n) for name in ("gamma-nij", "gamma-histogram") for n in (0, 12))


def table_output(name: str, k: int | None, fmt: str, n: int = N) -> str:
    argv = ["table", name, "--n", str(n), "--format", fmt]
    if k is not None:
        argv += ["--k", str(k)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def record() -> dict:
    """Every pinned digest, computed by the code under test."""
    return {
        "table": [
            [name, k, fmt, hashlib.sha256(table_output(name, k, fmt).encode()).hexdigest()]
            for name, k in TABLES
            for fmt in ("json", "csv")
        ],
        "edge_rows": [
            [name, n, fmt, hashlib.sha256(table_output(name, None, fmt, n).encode()).hexdigest()]
            for name, n in EDGE_ROWS
            for fmt in ("json", "csv")
        ],
    }


@pytest.mark.parametrize(
    "name, k, fmt, digest",
    DIGESTS["table"],
    ids=[f"{name}-{k}-{fmt}" if k else f"{name}-{fmt}" for name, k, fmt, _ in DIGESTS["table"]],
)
def test_table_output(name, k, fmt, digest):
    assert hashlib.sha256(table_output(name, k, fmt).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "name, n, fmt, digest",
    DIGESTS["edge_rows"],
    ids=[f"{name}-{n}-{fmt}" for name, n, fmt, _ in DIGESTS["edge_rows"]],
)
def test_gamma_table_edge_rows(name, n, fmt, digest):
    assert hashlib.sha256(table_output(name, None, fmt, n).encode()).hexdigest() == digest


def test_every_table_name_is_pinned():
    assert sorted({name for name, _ in TABLES}) == sorted(_TABLES)


if __name__ == "__main__":
    # re-recording is only right when the outputs are meant to change
    print(json.dumps(record(), indent=1))
