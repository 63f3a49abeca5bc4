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
Panholzer, JCTA 2011), cached per n and family.  It builds no tree: it keeps
the open vertices, those below their degree bound, as a list of states, and
the statistics as one packed int key sized to the family by ``_layout``, as
``exactalg`` packs exponents (Monagan--Pearce, CASC 2007).  An attachment adds
a precomputed int to the key, and every tree adds 1 to its key's count (the
last ``_TAIL`` labels from a memo local to each walk): the route is exhaustive.
``guard`` refuses an n past the walk's depth bound, then counts the family
over multisets of the same states (``tree_count``) until past the 10^7 limit.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Callable

from .errors import InvalidParamError, SizeLimitError
from .exactalg import Poly

TREE_GUARD = 10**7
MAX_DEPTH = 500  # labels per walk: well inside the recursion limit, and a vertex count far below MAX_EXPONENT
_TAIL = 3  # labels each walk places from its memo; andre n = 10 peaks at 176 KB with 3, 780 KB with 4

KINDS = ("nonplane", "plane", "forest012")


class FamilySpec:
    """A tree family: structural kind plus an optional degree bound.

    ``maxdeg`` is ignored for forest012 (its bounds are built in).  The
    vertex set is {0..n} for nonplane and forest012, [n] for plane.  A spec
    is read-only and equal only to a spec of the same family, since the
    walks' caches are keyed by it.
    """

    __slots__ = ("_key",)

    def __init__(self, kind: str, maxdeg: int | None = None) -> None:
        if kind not in KINDS:
            raise InvalidParamError(f"unknown family kind {kind!r}; expected one of {KINDS}")
        self._key = (kind, maxdeg)

    kind = property(lambda self: self._key[0])
    maxdeg = property(lambda self: self._key[1])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FamilySpec) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"FamilySpec(kind={self.kind!r}, maxdeg={self.maxdeg!r})"

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


def _layout(n: int, spec: FamilySpec) -> tuple[int, int]:
    """Bits per key field (at most n + 1) and fields: degrees 0..min(bound, n - root), then root leaves."""
    return (n + 1).bit_length(), min(spec.root_bound(n), n - spec.root) + 2


def _states(n: int, spec: FamilySpec) -> list[tuple[int, tuple[int, ...], int]]:
    """What attaching a child below an open vertex does, by the vertex's state.

    State (n+1) r + d is a vertex of degree d that is the root (r = 0), a child
    of the root (r = 1) or another vertex (r = 2), which fixes its bound, at
    most n - root; the root starts in state 0.  An entry holds the key step,
    the open states that replace the parent (itself a degree up below its
    bound, the new leaf below a positive one) and the number of positions.
    """
    width, fields = _layout(n, spec)
    root_leaf = 1 << width * (fields - 1)
    bounds = [min(b, n - spec.root) for b in (spec.root_bound(n), *(spec.attach(n, r, 0)[0] for r in (True, False)))]
    table = [(0, (), 0)] * (3 * n + 3)  # a vertex at its bound: no position, and no field past the layout
    for r, bound in enumerate(bounds):
        leaf = 2 if r else 1
        for d in range(bound):
            step = (1 << width * (d + 1)) - (1 << width * d) + 1 + ((r == 0) - (r == 1 and d == 0)) * root_leaf
            grown = ((r * (n + 1) + d + 1,) if d + 1 < bound else ()) + ((leaf * (n + 1),) if bounds[leaf] else ())
            table[r * (n + 1) + d] = (step, grown, len(spec.attach(n, r == 0, d)[1]))
    return table


@lru_cache(maxsize=None)
def _sizes(spec: FamilySpec) -> list[int]:  # the family's tree counts by n - root, as far as counted
    return [1]


def tree_count(n: int, spec: FamilySpec, cap: int | None = None) -> int:
    """Number of trees of the family on its vertex set, without building one.

    The ways the next label can attach depend only on the multiset of the open
    vertices' ``_states``, so a pass runs over these multisets, not trees; it
    gives each smaller size too, kept per family (below n no vertex meets the
    n - root cap on a bound).  After the first step no size falls (the newest
    leaf has a free slot if any bound is positive), so a pass stops past ``cap``.
    """
    if n < spec.root:
        raise InvalidParamError("empty vertex set")
    if n - spec.root >= len(sizes := _sizes(spec)):  # past the sizes counted so far
        table, states = _states(n, spec), Counter({(0,): 1})
        for i in range(1, n - spec.root + 1):
            after: Counter = Counter()
            for state, ways in states.items():
                for s in set(state):
                    _, grown, positions = table[s]
                    nxt = [*state, *grown]
                    nxt.remove(s)
                    after[tuple(sorted(nxt))] += ways * state.count(s) * positions
            states = after
            sizes[i:] = [sum(states.values())]
            if cap is not None and sizes[-1] > cap:
                break
    return sizes[min(n - spec.root, len(sizes) - 1)]


def guard(n: int, spec: FamilySpec) -> None:
    """Raise before any tree is built when the family is too deep or too large to walk.

    The depth check comes first: the walk recurses once per label, and
    ``MAX_DEPTH`` also keeps every vertex count far below ``MAX_EXPONENT``.
    """
    if n > MAX_DEPTH:
        raise SizeLimitError(f"tree guard: n={n} exceeds the walk's depth bound {MAX_DEPTH}")
    total = tree_count(n, spec, cap=TREE_GUARD)
    if total > TREE_GUARD:
        raise SizeLimitError(f"tree guard: the family has at least {total} trees, more than {TREE_GUARD}")


@lru_cache(maxsize=None)
def _walk(n: int, spec: FamilySpec) -> dict[int, int]:
    """The number of trees of the family with each degree state, keyed by the packed state.

    Field j of a key (``_layout``) counts the vertices of degree j, and the
    last field, ``root_leaf``, the leaf children of the root.  Attaching
    a child replaces the parent's state in ``opened`` by those that grow from
    it, and backtracking puts it back.  The last ``_TAIL`` labels come from a
    memo local to the walk, keyed by the labels left and the sorted open
    states: its list holds the key steps of the ways to place them, one
    element per way, so every tree adds 1 to its key's count.
    """
    guard(n, spec)
    table = _states(n, spec)
    opened = [0]  # a root with bound 0 offers no position
    counts: Counter = Counter()
    memo: dict[tuple[int, tuple[int, ...]], list[int]] = {}

    def tails(left: int, shape: tuple[int, ...]) -> list[int]:  # the last labels below the sorted open states
        if not left:
            return [0]
        steps = memo.get((left, shape))
        if steps is None:
            steps = []
            for s in dict.fromkeys(shape):
                step, grown, positions = table[s]
                rest = [*shape, *grown]
                rest.remove(s)
                below = tails(left - 1, tuple(sorted(rest)))
                steps += [*map(step.__add__, below)] * (shape.count(s) * positions)
            memo[left, shape] = steps
        return steps

    def grow(m: int, key: int) -> None:  # labels m..n
        if n - m < _TAIL:
            return counts.update(map(key.__add__, tails(n - m + 1, tuple(sorted(opened)))))
        for i, s in enumerate(opened):
            step, grown, positions = table[s]
            opened[i : i + 1] = grown
            for _ in range(positions):
                grow(m + 1, key + step)
            opened[i : i + len(grown)] = (s,)

    grow(spec.root + 1, 1)
    del grow, tails  # break the closures' cycle, so the memo is freed on return
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
        raise InvalidParamError(f"unknown weighting {weighting!r}; expected one of {WEIGHTINGS}")
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
    width, fields = _layout(n, spec)
    shifts, mask = range(0, width * fields, width), (1 << width) - 1
    keys = ((tuple([key >> s & mask for s in shifts]), ways) for key, ways in _walk(n, spec).items())
    return Poly.from_exponents((project(key[:-1], key[-1], n), ways) for key, ways in keys)
