"""Increasing-tree families: weight polynomials counted by leaf insertion.

Three kinds of family are supported (``FamilySpec.attach`` holds the rules):

* ``nonplane`` on {0..n}: the new maximum attaches below any vertex under
  its degree bound, one way per vertex (children kept in label order).
* ``plane`` on [n]: the new maximum goes into any gap; a vertex of degree d
  below the bound offers d+1 gaps.
* ``forest012`` on {0..n}: non-plane; the root takes children freely, a child
  of the root at most one, every other vertex at most two.  This single-
  multiplicity insertion (versus the plane family's gap count) is exactly
  the difference between the v -> u and v -> 2u grammar rules, and is the
  most delicate correctness point of the module.

The weight sums come from one counting walk by leaf insertion (Janson--Kuba--
Panholzer, JCTA 2011).  It builds no tree: it keeps each vertex's degree,
parent and bound, and the tree's statistics as one packed int key, 16 bits
per field (the degree histogram, then the leaf children of the root), as
``exactalg`` packs exponents (Monagan--Pearce, CASC 2007).  An attachment
adds a precomputed int to the key, and every tree adds 1 to its key's count
at the last label, so the route stays exhaustive.  The walk is cached: each
family is walked once per n, as S_n is swept once, for every weighting and
call shape.  ``guard`` refuses an n past the walk's depth bound, then counts
the family over degree states (``tree_count``) until past the 10^7 limit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .errors import SizeLimitError
from .exactalg import Poly

TREE_GUARD = 10**7
MAX_DEPTH = 500  # labels per walk: well inside the recursion limit, and far below MAX_EXPONENT

KINDS = ("nonplane", "plane", "forest012")


@dataclass(frozen=True)
class FamilySpec:
    """A tree family: structural kind plus an optional degree bound.

    ``maxdeg`` is ignored for forest012 (its bounds are built in).  The
    vertex set is {0..n} for nonplane and forest012, [n] for plane.
    """

    kind: str
    maxdeg: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}; expected one of {KINDS}")

    @property
    def root(self) -> int:
        return 0 if self.kind in ("nonplane", "forest012") else 1

    def root_bound(self, n: int) -> int:
        """Most children of the root; n + 1 is no bound."""
        return n + 1 if self.kind == "forest012" or self.maxdeg is None else self.maxdeg

    def attach(self, n: int, at_root: bool, d: int) -> tuple[int, range]:
        """A new leaf below a vertex of degree d: its own bound and its positions."""
        bound = (1 if at_root else 2) if self.kind == "forest012" else self.root_bound(n)
        return bound, range(0 if self.kind == "plane" else d, d + 1)


def tree_count(n: int, spec: FamilySpec, cap: int | None = None) -> int:
    """Number of trees of the family on its vertex set, without building one.

    The ways the next label can attach depend only on the multiset of
    (degree, bound, is root) over the vertices that may still take a child,
    so the count runs over these states instead of over trees.  After the
    first step the total never falls (the newest leaf always has a free slot
    when any bound is positive), so it is returned once it exceeds ``cap``.
    """
    root = spec.root
    if n < root:
        raise ValueError("empty vertex set")
    top = spec.root_bound(n)
    states = Counter({((0, top, True),) if top > 0 else (): 1})
    for _ in range(root + 1, n + 1):
        grown: Counter = Counter()
        for state, ways in states.items():
            for i, (d, bound, is_root) in enumerate(state):
                child, positions = spec.attach(n, is_root, d)
                nxt = list(state)
                nxt[i : i + 1] = [(d + 1, bound, is_root)] if d + 1 < bound else []
                if child > 0:
                    nxt.append((0, child, False))
                grown[tuple(sorted(nxt))] += ways * len(positions)
        states = grown
        if cap is not None and sum(states.values()) > cap:
            break
    return sum(states.values())


def guard(n: int, spec: FamilySpec) -> None:
    """Raise before any tree is built when the family is too deep or too large to walk.

    The depth check comes first: the walk recurses once per label, and
    ``MAX_DEPTH`` also keeps every key field (at most n + 1 vertices) in range.
    """
    if n > MAX_DEPTH:
        raise SizeLimitError(f"tree guard: n={n} exceeds the walk's depth bound {MAX_DEPTH}")
    total = tree_count(n, spec, cap=TREE_GUARD)
    if total > TREE_GUARD:
        raise SizeLimitError(f"tree guard: the family has at least {total} trees, more than {TREE_GUARD}")


@lru_cache(maxsize=None)
def _walk(n: int, spec: FamilySpec) -> dict[int, int]:
    """The number of trees of the family with each degree state, keyed by the packed state.

    Field j of a key (bits 16j and up) counts the vertices of degree j, and
    the last field, ``root_leaf``, the leaf children of the root.  Attaching
    m below v of degree d moves v to degree d+1 and adds the leaf m; only the
    root and its leaf children move the last field.  The walk keeps degrees,
    parents and bounds, not the trees.  Every tree adds 1 to its key's count
    at the last label, a plane vertex's d+1 gaps one tree each.
    """
    guard(n, spec)
    root = spec.root
    degree, parent, bound = [0] * (n + 1), [-1] * (n + 1), [spec.root_bound(n)] * (n + 1)
    rules = [[spec.attach(n, at_root, d) for d in range(n + 1)] for at_root in (False, True)]
    root_leaf = 1 << 16 * (n - root + 1)
    step = [(1 << 16 * (d + 1)) - (1 << 16 * d) + 1 for d in range(n - root)]
    counts: dict[int, int] = {}

    def grow(m: int, key: int) -> None:
        for v in range(root, m):
            d = degree[v]
            if d >= bound[v]:
                continue
            at_root = v == root
            nxt = key + step[d] + (at_root - (d == 0 and parent[v] == root)) * root_leaf
            child, positions = rules[at_root][d]
            if m == n:
                for _ in positions:
                    counts[nxt] = counts.get(nxt, 0) + 1
                continue
            degree[v], parent[m], bound[m] = d + 1, v, child
            for _ in positions:
                grow(m + 1, nxt)
            degree[v] = d

    if n > root:
        grow(root + 1, 1)
    else:
        counts[1] = 1
    return counts


#: weighting -> (family kind, degree bound or None for the caller's maxdeg, the
#: exponents of one tree from its degree counts, root leaf children and n)
_WEIGHTINGS: dict[str, tuple[str, int | None, Callable[[tuple[int, ...], int, int], dict[str, int]]]] = {
    "andre": ("nonplane", 2, lambda c, r, n: {"u": c[0], "v": c[1] if len(c) > 1 else 0}),
    # the root is a leaf only when it is the whole tree
    "forest-gamma": ("forest012", None, lambda c, r, n: {"t": r, "u": c[0] - r - (n == 0)}),
    "deghist": ("plane", None, lambda c, r, n: {f"m_{j + 1}": m for j, m in enumerate(c) if m}),
}

WEIGHTINGS = tuple(_WEIGHTINGS)


def default_spec(weighting: str, maxdeg: int | None = None) -> FamilySpec:
    """The tree family a weighting is defined over."""
    if weighting not in _WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}; expected one of {WEIGHTINGS}")
    kind, bound, _ = _WEIGHTINGS[weighting]
    if kind == "forest012":  # its bounds are built in, so any maxdeg names the one family
        return FamilySpec(kind)
    return FamilySpec(kind, maxdeg if bound is None else bound)


@lru_cache(maxsize=None)
def tree_weight_poly(n: int, weighting: str, maxdeg: int | None = None) -> Poly:
    """Weight-sum over the weighting's family, read off the family's one cached walk.

    andre        u^leaves v^(degree-1 vertices) over 0-1-2 nonplane on {0..n}
    forest-gamma t^(root leaf children) u^(other leaves) over forests on {0..n}
    deghist      prod m_j^(vertices of degree j-1) over plane on [n], degree <= maxdeg
    """
    spec = default_spec(weighting, maxdeg)
    project = _WEIGHTINGS[weighting][2]
    fields = range(0, 16 * (n - spec.root + 2), 16)
    keys = ((tuple([key >> s & 0xFFFF for s in fields]), ways) for key, ways in _walk(n, spec).items())
    return Poly.from_exponents((project(key[:-1], key[-1], n), ways) for key, ways in keys)
