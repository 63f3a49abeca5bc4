"""Increasing-tree families: generation by leaf insertion and weight polynomials.

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

One insertion walk (Janson--Kuba--Panholzer, JCTA 2011) serves both the
snapshot stream and the weight sums: it keeps the children lists, a degree
histogram and the number of leaf children of the root, and updates them in
O(1) per attachment.  ``tree_count`` counts a family over degree states, and
stops once past the 10^7-tree guard, so the guard trips before the walk.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from .errors import SizeLimitError
from .exactalg import Poly

TREE_GUARD = 10**7

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


@dataclass(frozen=True)
class IncTree:
    """Snapshot of an increasing tree: ordered child tuples indexed by label."""

    flavor: str  # "plane" | "nonplane"
    root: int
    children: tuple[tuple[int, ...], ...]

    def degree(self, v: int) -> int:
        return len(self.children[v])

    def canonical(self) -> tuple:
        """Preorder (label, children...) nesting; used for deduplication."""

        def walk(v: int) -> tuple:
            return (v,) + tuple(walk(c) for c in self.children[v])

        return walk(self.root)


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
    """Raise before any tree is built when the family is too large to walk."""
    total = tree_count(n, spec, cap=TREE_GUARD)
    if total > TREE_GUARD:
        raise SizeLimitError(f"tree guard: the family has at least {total} trees, more than {TREE_GUARD}")


def _walk(n: int, spec: FamilySpec) -> Iterator[tuple[list[list[int]], list[int]]]:
    """Every tree of the family once, as the live pair (children, state).

    ``state[j]`` counts the vertices of degree j and ``state[-1]`` the leaf
    children of the root.  Attaching m below v of degree d moves v to degree
    d+1 and adds the leaf m; only the root and its leaf children move the last
    entry, so each attachment is O(1).  Both lists change after each yield.
    """
    guard(n, spec)
    root = spec.root
    children: list[list[int]] = [[] for _ in range(n + 1)]
    parent, bound = [-1] * (n + 1), [spec.root_bound(n)] * (n + 1)
    rules = [[spec.attach(n, at_root, d) for d in range(n + 1)] for at_root in (False, True)]
    state = [1] + [0] * (n - root + 1)

    def grow(m: int) -> Iterator[tuple[list[list[int]], list[int]]]:
        for v in range(root, m):
            kids = children[v]
            d = len(kids)
            if d >= bound[v]:
                continue
            gain = (v == root) - (d == 0 and parent[v] == root)
            parent[m], (bound[m], positions) = v, rules[v == root][d]
            state[d] -= 1
            state[d + 1] += 1
            state[0] += 1
            state[-1] += gain
            for pos in positions:
                kids.insert(pos, m)
                if m == n:
                    yield children, state
                else:
                    yield from grow(m + 1)
                del kids[pos]
            state[-1] -= gain
            state[0] -= 1
            state[d + 1] -= 1
            state[d] += 1

    return grow(root + 1) if n > root else iter([(children, state)])


def trees_gen(n: int, spec: FamilySpec) -> Iterator[IncTree]:
    """Stream every tree of the family on its vertex set, exactly once."""
    flavor = "plane" if spec.kind == "plane" else "nonplane"
    return (IncTree(flavor, spec.root, tuple(map(tuple, kids))) for kids, _ in _walk(n, spec))


def _by_degree(counts: tuple[int, ...], root_leaves: int, n: int) -> dict[str, int]:
    return {f"m_{j + 1}": c for j, c in enumerate(counts) if c}


#: weighting -> (family kind, degree bound or None for the caller's maxdeg, the
#: exponents of one tree from its degree counts, root leaf children and n)
_WEIGHTINGS: dict[str, tuple[str, int | None, Callable[[tuple[int, ...], int, int], dict[str, int]]]] = {
    "andre": ("nonplane", 2, lambda c, r, n: {"u": c[0], "v": c[1] if len(c) > 1 else 0}),
    # the root is a leaf only when it is the whole tree
    "forest-gamma": ("forest012", None, lambda c, r, n: {"t": r, "u": c[0] - r - (n == 0)}),
    "plane-leaf": ("plane", 2, lambda c, r, n: {"x": c[0]}),
    "chenfu-3": ("plane", 3, _by_degree),
    "deghist": ("plane", None, _by_degree),
}

WEIGHTINGS = tuple(_WEIGHTINGS)


def default_spec(weighting: str, maxdeg: int | None = None) -> FamilySpec:
    """The tree family a weighting is defined over."""
    if weighting not in _WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}; expected one of {WEIGHTINGS}")
    kind, bound, _ = _WEIGHTINGS[weighting]
    return FamilySpec(kind, maxdeg if bound is None else bound)


@lru_cache(maxsize=None)
def tree_weight_poly(n: int, weighting: str, maxdeg: int | None = None) -> Poly:
    """Weight-sum over the weighting's family.

    andre        u^leaves v^(degree-1 vertices) over 0-1-2 nonplane on {0..n}
    forest-gamma t^(root leaf children) u^(other leaves) over forests on {0..n}
    plane-leaf   x^leaves over 0-1-2 plane trees on [n]
    chenfu-3     m_1^leaves m_2^(deg-1) m_3^(deg-2) over 0-1-2-3 plane on [n]
    deghist      prod m_j^(vertices of degree j-1) over bounded plane on [n]
    """
    spec = default_spec(weighting, maxdeg)
    project = _WEIGHTINGS[weighting][2]
    keys = Counter(tuple(s) for _, s in _walk(n, spec))
    return Poly.from_exponents((project(key[:-1], key[-1], n), ways) for key, ways in keys.items())


def histogram_table(n: int, maxdeg: int | None = None) -> dict[tuple[int, ...], int]:
    """Degree-histogram counts (i_1..i_n) over plane trees on [n] (tree route)."""
    return tree_weight_poly(n, "deghist", maxdeg).exponent_table([f"m_{j}" for j in range(1, n + 1)])


def leaf_counts_plane(n: int) -> dict[int, int]:
    """#{increasing plane trees on [n] with j leaves}, unbounded degree."""
    out: dict[int, int] = {}
    for key, c in histogram_table(n).items():
        out[key[0]] = out.get(key[0], 0) + c
    return out
