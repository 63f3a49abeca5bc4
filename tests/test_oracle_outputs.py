"""The enumeration oracles return exactly what they returned before their walks were rewritten.

``oracle_digests.json`` holds SHA-256 digests recorded at commit 53a8aea: of
``Poly.to_json()`` for every ``kth_order_poly`` and ``tree_weight_poly``
argument reached by ``eulab verify all`` at default ranges and by the
oracle-deep benchmark workload (plus the plane-leaf weights n <= 8), and of
the ``repr`` of the full ``gen`` and ``trees_gen`` streams at a few sizes.  Those
two streams now come from the reference walks in ``reference_walks.py``, the
former package walks kept unchanged.  The rows of the two weightings since
folded into ``deghist`` are read off it (``PORTED``), with the digests as recorded.
"""

import hashlib
import json
from pathlib import Path

import pytest

import reference_walks
from eulab import stirlingperm, trees
from eulab.exactalg import Poly

DIGESTS = json.loads(Path(__file__).with_name("oracle_digests.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rows(name: str):
    """The recorded rows of one oracle, each test id naming the arguments only."""
    return pytest.mark.parametrize(
        "args, digest",
        [(row[:-1], row[-1]) for row in DIGESTS[name]],
        ids=["-".join(map(str, row[:-1])) for row in DIGESTS[name]],
    )


@rows("kth_order_poly")
def test_kth_order_poly(args, digest):
    assert sha256(stirlingperm.kth_order_poly(*args).to_json()) == digest


#: a removed weighting -> its polynomial at n, read off deghist
PORTED = {
    # m_1^leaves m_2^(degree-1) m_3^(degree-2) over 0-1-2-3 plane trees
    "chenfu-3": lambda n: trees.tree_weight_poly(n, "deghist", 3),
    # x^leaves over 0-1-2 plane trees: the m_1 column at maxdeg 2, renamed x
    "plane-leaf": lambda n: trees.tree_weight_poly(n, "deghist", 2).subst({"m_1": Poly.var("x"), "m_2": 1, "m_3": 1}),
}


@rows("tree_weight_poly")
def test_tree_weight_poly(args, digest):
    n, weighting, maxdeg = args
    poly = PORTED[weighting](n) if weighting in PORTED else trees.tree_weight_poly(n, weighting, maxdeg)
    assert sha256(poly.to_json()) == digest


@rows("gen")
def test_word_stream(args, digest):
    assert sha256(repr(list(reference_walks.gen(*args)))) == digest


@rows("trees_gen")
def test_tree_stream(args, digest):
    kind, maxdeg, n = args
    stream = reference_walks.trees_gen(n, trees.FamilySpec(kind, maxdeg))
    assert sha256(repr([tree.children for tree in stream])) == digest
