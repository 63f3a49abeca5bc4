"""The from-scratch references the counting oracles are tested against.

``perm_stats`` and ``word_stats`` recompute every statistic of one
permutation or one k-Stirling word from scratch.  ``perm_row`` and
``perm_sweep`` are the sweep of S_n that ``eulab.permstats`` made before its
prefix walk: ``itertools.permutations`` with every row rescanned.

The insertion walks yielded every object before the oracles counted at the
last label.  ``word_walk`` and ``gen`` stream the k-Stirling words of Q_n(k)
by block insertion; ``tree_walk``, ``trees_gen`` and ``IncTree`` stream the
increasing trees of a family by leaf insertion.  Each walk keeps the live
object and its statistic vector and yields both after every last insertion,
so a test can recompute the statistics from the object and compare them with
the counting walks of ``eulab.stirlingperm`` and ``eulab.trees`` (``pack``
writes a vector as their keys).  The size guards are the package's own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from eulab.permstats import guard as perm_guard
from eulab.stirlingperm import guard as word_guard
from eulab.trees import FamilySpec
from eulab.trees import guard as tree_guard


@dataclass(frozen=True)
class PermStats:
    des: int
    asc: int
    exc: int
    aexc: int
    fix: int
    suc: int
    basc: int
    ddes: int
    ipk: int
    suc_set: frozenset[int]
    fix_set_restricted: frozenset[int]


def perm_stats(perm: Sequence[int]) -> PermStats:
    """All statistics of a permutation given in one-line notation."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of [{n}]: {perm!r}")
    des = asc = suc = basc = exc = aexc = fix = ddes = ipk = 0
    suc_set: set[int] = set()
    fix_restricted: set[int] = set()
    for i in range(n - 1):
        a, b = perm[i], perm[i + 1]
        if a < b:
            asc += 1
            if b == a + 1:
                suc += 1
                suc_set.add(i + 1)
            else:
                basc += 1
        else:
            des += 1
    for i, value in enumerate(perm, start=1):
        if value > i:
            exc += 1
        elif value < i:
            aexc += 1
        else:
            fix += 1
            if i <= n - 1:
                fix_restricted.add(i)
    padded = (0, *perm, 0)
    for i in range(1, n + 1):
        if padded[i - 1] > padded[i] > padded[i + 1]:
            ddes += 1
    for i in range(2, n):
        if perm[i - 2] < perm[i - 1] > perm[i]:
            ipk += 1
    return PermStats(
        des=des,
        asc=asc,
        exc=exc,
        aexc=aexc,
        fix=fix,
        suc=suc,
        basc=basc,
        ddes=ddes,
        ipk=ipk,
        suc_set=frozenset(suc_set),
        fix_set_restricted=frozenset(fix_restricted),
    )


def perm_row(p: tuple[int, ...], n: int) -> tuple[tuple, int, int]:
    """Joint-table key, succession mask and restricted fixed-point mask of p.

    Bit i of the succession mask marks pi(i+1) = pi(i) + 1; bit i of the
    fixed-point mask marks pi(i) = i for i <= n-1.  The hot kernel of the
    sweep: p is trusted to be a permutation of [n] (see ``perm_stats``).
    """
    exc = fix = fix_mask = 0
    i = 0
    for a in p:
        i += 1
        if a > i:
            exc += 1
        elif a == i:
            fix += 1
            fix_mask |= 1 << i
    fix_mask &= ~(1 << n)
    des = suc = ddes = ipk = suc_mask = 0
    fell = rose = False  # was the previous adjacent pair a descent / an ascent
    i = 0
    for a, b in zip(p, p[1:]):
        i += 1
        if a > b:
            des += 1
            if fell:
                ddes += 1
            elif rose:
                ipk += 1
            fell, rose = True, False
        else:
            if b == a + 1:
                suc += 1
                suc_mask |= 1 << i
            fell, rose = False, True
    if fell:  # pi(n) > pi(n+1) = 0 completes a double descent at n
        ddes += 1
    return (des, suc, exc, fix, ddes, ipk, n > 0 and p[0] > 1), suc_mask, fix_mask


def mask_set(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def perm_sweep(n: int) -> tuple[dict[tuple, int], dict[frozenset[int], int], dict[frozenset[int], int]]:
    """Joint key counts and the two set profiles of S_n, one ``perm_row`` per permutation."""
    perm_guard(n)
    joint: dict[tuple, int] = {}
    by_suc: dict[int, int] = {}
    by_fix: dict[int, int] = {}
    for p in itertools.permutations(range(1, n + 1)):
        key, suc_mask, fix_mask = perm_row(p, n)
        joint[key] = joint.get(key, 0) + 1
        by_suc[suc_mask] = by_suc.get(suc_mask, 0) + 1
        by_fix[fix_mask] = by_fix.get(fix_mask, 0) + 1
    return (
        joint,
        {mask_set(m): c for m, c in by_suc.items()},
        {mask_set(m): c for m, c in by_fix.items()},
    )


@dataclass(frozen=True)
class StirlingStats:
    asc: int
    des: int
    plat: int
    plat_j: tuple[int, ...]  # plat_j[j-1] = number of j-plateaux, j = 1..k-1


def word_stats(word: tuple[int, ...], k: int) -> StirlingStats:
    """Ascent/descent/plateau counts with the padded-boundary convention."""
    if len(word) % k:
        raise ValueError(f"word length {len(word)} is not a multiple of k={k}")
    length = len(word)
    asc = des = plat = 0
    plat_j = [0] * max(k - 1, 0)
    seen: dict[int, int] = {}
    prev = 0
    for i in range(length):
        cur = word[i]
        if prev < cur:
            asc += 1
        elif prev > cur:
            des += 1
        else:
            plat += 1
            j = seen[cur]  # occurrences strictly before position i (1-based i)
            plat_j[j - 1] += 1
        seen[cur] = seen.get(cur, 0) + 1
        prev = cur
    des += 1  # final boundary: word[kn] > 0
    return StirlingStats(asc=asc, des=des, plat=plat, plat_j=tuple(plat_j))


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
