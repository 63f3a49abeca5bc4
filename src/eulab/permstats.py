"""Exhaustive permutation enumeration, statistics, and classical triangles.

This is the ground-truth side of the engine: everything here is computed by
direct counting over S_n (lexicographic order, guarded at n <= 10) or by the
defining recurrence of a number triangle, never by the grammar or series
routes it is used to check.

S_n is swept once per n.  ``_perm_table(n)`` checks the enumeration guard,
then makes one pass that records the joint distribution of
(des, suc, exc, fix, ddes, ipk, pi(1) > 1) together with the counts by
succession set and by restricted fixed-point set.  Every weight polynomial
(``perm_poly``), the set profiles (``diaconis_profile``) and the
(asc, suc) counts (``asc_suc_counts``) are projections of that cached table.
Each permutation goes through the lean kernel ``_row``; ``stats`` is the
separate from-scratch reference the tests compare it with.

Descents/ascents use the boundary-free convention (indices in [n-1]); only
double descents use the padded convention pi(0) = pi(n+1) = 0, and interior
peaks use indices 2..n-1.  Anti-excedances run over all of [n] so that
exc + aexc + fix = n holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .errors import OutOfRangeError, SizeLimitError
from .exactalg import Poly

MAX_ENUM_N = 10
MAX_TRIANGLE_N = 60

TRIANGLES = ("stirling2", "eulerian", "second-order-eulerian", "surjection")


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


def stats(perm: Sequence[int]) -> PermStats:
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


def guard(n: int) -> None:
    """Raise before any sweep when S_n is too large to enumerate."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_ENUM_N:
        raise SizeLimitError(f"full enumeration guard: n={n} exceeds {MAX_ENUM_N} (n! blowup)")


class _Key(NamedTuple):
    """One key of the joint table.  The other statistics follow from n:
    asc = n-1-des (0 for n = 0), basc = asc-suc and aexc = n-exc-fix."""

    des: int
    suc: int
    exc: int
    fix: int
    ddes: int
    ipk: int
    first_gt_1: bool


def _row(p: tuple[int, ...], n: int) -> tuple[tuple, int, int]:
    """Joint-table key, succession mask and restricted fixed-point mask of p.

    Bit i of the succession mask marks pi(i+1) = pi(i) + 1; bit i of the
    fixed-point mask marks pi(i) = i for i <= n-1.  The hot kernel of the
    sweep: p is trusted to be a permutation of [n] (see ``stats``).
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


def _mask_set(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


class _PermTable(NamedTuple):
    joint: dict[tuple, int]
    by_suc: dict[frozenset[int], int]
    by_fix: dict[frozenset[int], int]


@lru_cache(maxsize=None)
def _perm_table(n: int) -> _PermTable:
    """The one sweep of S_n: joint key counts and the two set profiles."""
    guard(n)
    joint: dict[tuple, int] = {}
    by_suc: dict[int, int] = {}
    by_fix: dict[int, int] = {}
    for p in itertools.permutations(range(1, n + 1)):
        key, suc_mask, fix_mask = _row(p, n)
        joint[key] = joint.get(key, 0) + 1
        by_suc[suc_mask] = by_suc.get(suc_mask, 0) + 1
        by_fix[fix_mask] = by_fix.get(fix_mask, 0) + 1
    return _PermTable(
        joint,
        {_mask_set(m): c for m, c in by_suc.items()},
        {_mask_set(m): c for m, c in by_fix.items()},
    )


def _asc(n: int, k: _Key) -> int:
    return max(n - 1, 0) - k.des


#: family -> exponents of one joint-table key at size n, or None to leave it out
_PROJECTIONS: dict[str, Callable[[int, _Key], "dict[str, int] | None"]] = {
    "eulerian": lambda n, k: {"x": k.des},
    "trivariate": lambda n, k: {"x": _asc(n, k) - k.suc, "y": k.des, "s": k.suc},
    "fixpoint": lambda n, k: {"x": k.exc, "y": n - k.exc - k.fix, "s": k.fix},
    "bivariate": lambda n, k: {"x": _asc(n, k), "y": k.des + 1},
    "derangement": lambda n, k: {"x": k.exc} if k.fix == 0 else None,
    "no-succession-first-not-1": lambda n, k: {"x": k.des} if k.suc == 0 and k.first_gt_1 else None,
    "gamma-eulerian-no-ddes": lambda n, k: {"x": k.des} if k.ddes == 0 else None,
    "peak": lambda n, k: {"x": k.ipk},
}

FAMILIES = tuple(_PROJECTIONS)


@lru_cache(maxsize=None)
def perm_poly(n: int, family: str) -> Poly:
    """Exact weight-sum over S_n for one of the named statistics families.

    eulerian                   sum x^des
    trivariate                 sum x^basc y^des s^suc
    fixpoint                   sum x^exc y^aexc s^fix
    bivariate                  sum x^asc y^(des+1) for n >= 1, and 1 for n = 0
    derangement                sum over fixed-point-free pi of x^exc
    no-succession-first-not-1  sum over {suc = 0, pi(1) > 1} of x^des
    gamma-eulerian-no-ddes     sum over double-descent-free pi of x^des
    peak                       sum x^(interior peaks)
    """
    project = _PROJECTIONS.get(family)
    if project is None:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    joint = _perm_table(n).joint
    if n == 0:
        return Poly.one()
    projected = ((project(n, _Key._make(key)), count) for key, count in joint.items())
    return Poly.from_exponents(pair for pair in projected if pair[0] is not None)


# ---------------------------------------------------------------------------
# Number triangles
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _triangle_row(name: str, n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _triangle_row(name, n - 1)

    def p(k: int) -> int:
        return prev[k] if 0 <= k < len(prev) else 0

    if name == "stirling2":
        return tuple(p(k - 1) + k * p(k) for k in range(n + 1))
    if name == "surjection":
        # E(n,k) = k! S(n,k):  E(n,k) = k (E(n-1,k) + E(n-1,k-1))
        return tuple(k * (p(k) + p(k - 1)) for k in range(n + 1))
    if name == "eulerian":
        return tuple((k + 1) * p(k) + (n - k) * p(k - 1) for k in range(n + 1))
    if name == "second-order-eulerian":
        return tuple(k * p(k) + (2 * n - k) * p(k - 1) for k in range(n + 1))
    raise ValueError(f"unknown triangle {name!r}; expected one of {TRIANGLES}")


def triangle(name: str, n: int, k: int) -> int:
    """Exact triangle entry via the defining recurrence (memoized rows)."""
    if name not in TRIANGLES:
        raise ValueError(f"unknown triangle {name!r}; expected one of {TRIANGLES}")
    if not (0 <= k <= n <= MAX_TRIANGLE_N):
        raise OutOfRangeError(f"triangle index out of range: need 0 <= k <= n <= {MAX_TRIANGLE_N}")
    return _triangle_row(name, n)[k]


def second_order_poly_from_triangle(n: int) -> Poly:
    """C_n(x) assembled from the second-order Eulerian triangle."""
    if n == 0:
        return Poly.one()
    return Poly.from_exponents(({"x": j}, triangle("second-order-eulerian", n, j)) for j in range(1, n + 1))


# ---------------------------------------------------------------------------
# Set-valued profiles and joint counts
# ---------------------------------------------------------------------------


def diaconis_profile(n: int) -> tuple[dict[frozenset[int], int], dict[frozenset[int], int]]:
    """Count permutations by succession set and by restricted fixed-point set.

    Both mappings are over subsets of [n-1]; the fixed-point mapping ignores
    a fixed point at position n.  The two mappings are claimed (and checked
    elsewhere) to be equal as whole objects.  Each call returns fresh dicts.
    """
    table = _perm_table(n)
    return dict(table.by_suc), dict(table.by_fix)


@lru_cache(maxsize=None)
def asc_suc_counts(n: int) -> dict[tuple[int, int], int]:
    """Joint distribution #{pi : asc = r, suc = s} by direct counting."""
    out: dict[tuple[int, int], int] = {}
    for key, count in _perm_table(n).joint.items():
        k = _Key._make(key)
        pair = (_asc(n, k), k.suc)
        out[pair] = out.get(pair, 0) + count
    return out
