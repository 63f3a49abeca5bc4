"""The insertion walks that yielded every object before the oracles counted at the last label, kept as a test reference.

``word_walk`` and ``gen`` stream the k-Stirling words of Q_n(k) by block
insertion; ``tree_walk``, ``trees_gen`` and ``IncTree`` stream the increasing
trees of a family by leaf insertion.  Each walk keeps the live object and its
statistic vector and yields both after every last insertion, so a test can
recompute the statistics from the object and compare them with the counting
walks of ``eulab.stirlingperm`` and ``eulab.trees`` (``pack`` writes a vector
as their keys).  The size guards are the package's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from eulab.stirlingperm import guard as word_guard
from eulab.trees import FamilySpec
from eulab.trees import guard as tree_guard


def pack(fields) -> int:
    """A statistic vector as the counting walks key it: 16 bits per field, lowest first."""
    return sum(c << 16 * j for j, c in enumerate(fields))


def word_walk(n: int, k: int) -> Iterator[tuple[list[int], list[int]]]:
    """Every word of Q_n(k) once, as the live pair (word, exponent vector).

    A gap's type is the index of its variable: j-1 for a j-plateau, k-1 for a
    descent, k for an ascent; ``vec[t]`` counts the gaps of type t, which is
    the exponent of x_{t+1}.  Both lists change after each yield.
    """
    word_guard(n, k)
    block_gaps = [k, *range(k - 1), k - 1]  # (a, m), (m, m) x (k-1), (m, b)
    word, gaps, vec = [1] * k, list(block_gaps), [1] * (k + 1)  # 1^k put into (0, 0)

    def grow(m: int) -> Iterator[tuple[list[int], list[int]]]:
        block = [m] * k
        for g in range(len(gaps)):
            old = gaps[g]
            word[g:g] = block
            gaps[g : g + 1] = block_gaps
            vec[old] -= 1
            for t in block_gaps:
                vec[t] += 1
            if m == n:
                yield word, vec
            else:
                yield from grow(m + 1)
            for t in block_gaps:
                vec[t] -= 1
            vec[old] += 1
            del word[g : g + k]
            gaps[g : g + k + 1] = (old,)

    return grow(2) if n > 1 else iter([(word, vec)])


def gen(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every word of Q_n(k) exactly once, by block insertion."""
    return (tuple(word) for word, _ in word_walk(n, k))


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


def tree_walk(n: int, spec: FamilySpec) -> Iterator[tuple[list[list[int]], list[int]]]:
    """Every tree of the family once, as the live pair (children, state).

    ``state[j]`` counts the vertices of degree j and ``state[-1]`` the leaf
    children of the root.  Attaching m below v of degree d moves v to degree
    d+1 and adds the leaf m; only the root and its leaf children move the last
    entry, so each attachment is O(1).  Both lists change after each yield.
    """
    tree_guard(n, spec)
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
    return (IncTree(flavor, spec.root, tuple(map(tuple, kids))) for kids, _ in tree_walk(n, spec))
