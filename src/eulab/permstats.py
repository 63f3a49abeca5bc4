"""Exhaustive permutation enumeration and the statistics read off it.

This is the ground-truth side of the engine: everything here is computed by
direct counting over S_n (guarded at n <= 10), never by the grammar, series
or recurrence routes it is used to check.

S_n is swept once per n.  ``_perm_table(n)`` checks the enumeration guard,
then makes one prefix walk that records the joint distribution of
(des, suc, exc, fix, ddes, ipk, pi(1) > 1) together with the counts by
succession set and by restricted fixed-point set.  Every weight polynomial
(``perm_poly``), the set profiles (``diaconis_profile``) and the
(asc, suc) counts (``asc_suc_counts``) are projections of that cached table:
``_project`` sums the counts by each key's exponent tuple, so a family packs
one monomial per distinct tuple, not one per joint key.

The walk places the values left to right in lexicographic order and shares
prefixes (Knuth, TAOCP 4A, 7.2.1.2), so each position's statistics are
settled once per prefix, not once per permutation: placing b at position j
settles the excedance or fixed point at j, the pair (j-1, j) and the triple
centred at j-1.  The statistics ride along as one packed int key, 4 bits per
field, and the two sets as bitmasks.  The last value is placed inline, and
every permutation adds 1 to each of the three counts, so the route stays
exhaustive.

Descents/ascents use the boundary-free convention (indices in [n-1]); only
double descents use the padded convention pi(0) = pi(n+1) = 0, and interior
peaks use indices 2..n-1.  Anti-excedances run over all of [n] so that
exc + aexc + fix = n holds.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import SizeLimitError
from .exactalg import Poly

MAX_ENUM_N = 10


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


#: units of the packed joint-table key, 4 bits per field in ``_Key`` order (n <= 10 < 16)
_DES, _SUC, _EXC, _FIX, _DDES, _IPK, _FIRST_GT_1 = (1 << 4 * i for i in range(7))


def _mask_set(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


class _PermTable(NamedTuple):
    joint: dict[_Key, int]
    by_suc: dict[frozenset[int], int]
    by_fix: dict[frozenset[int], int]


@lru_cache(maxsize=None)
def _perm_table(n: int) -> _PermTable:
    """The one sweep of S_n: joint key counts and the two set profiles.

    ``grow(j, rest, key, suc_mask, fix_mask, a, down)`` places each value b
    of ``rest`` at position j after a = pi(j-1); ``down`` is what a descent
    there adds to the key: des, and a double descent after a fall or an
    interior peak after a rise.  Bit i of the succession mask marks
    pi(i+1) = pi(i) + 1, and bit i of the fixed-point mask pi(i) = i for
    i <= n-1.  At j = n-1 the last value is ``rest[1 - idx]``, placed inline.
    """
    guard(n)
    joint: dict[int, int] = {}
    by_suc: dict[int, int] = {}
    by_fix: dict[int, int] = {}
    # b at j is an excedance (at j = 1 also pi(1) > 1) or a fixed point, with its mask bit if j < n
    here = [[_EXC + (j == 1) * _FIRST_GT_1 if b > j else _FIX * (b == j) for b in range(n + 1)] for j in range(n + 1)]
    fixed = [[(b == j < n) << j for b in range(n + 1)] for j in range(n + 1)]
    last = n - 1

    def grow(j: int, rest: list[int], key: int, suc_mask: int, fix_mask: int, a: int, down: int) -> None:
        here_j, fixed_j, bit = here[j], fixed[j], 1 << j - 1
        rise = _DES + _IPK if j > 1 else _DES  # pi(0) < pi(1) is no peak's rise
        for idx, b in enumerate(rest):
            k, s, f = key + here_j[b], suc_mask, fix_mask | fixed_j[b]
            if a > b:
                k, d = k + down, _DES + _DDES
            else:
                d = rise
                if b == a + 1:
                    k, s = k + _SUC, s | bit
            if j < last:
                grow(j + 1, rest[:idx] + rest[idx + 1 :], k, s, f, b, d)
                continue
            c = rest[1 - idx]
            k += here[n][c]
            if b > c:  # and pi(n) > pi(n+1) = 0 closes a double descent at n
                k += d + _DDES
            elif c == b + 1:
                k, s = k + _SUC, s | 1 << last
            joint[k] = joint.get(k, 0) + 1
            by_suc[s] = by_suc.get(s, 0) + 1
            by_fix[f] = by_fix.get(f, 0) + 1

    if n > 1:  # a = -1 stands for pi(0) = 0: below every value, with no succession into pi(1)
        grow(1, list(range(1, n + 1)), 0, 0, 0, -1, 0)
    else:  # the empty permutation, or 1 with its fixed point at n
        joint[_FIX * n] = by_suc[0] = by_fix[0] = 1
    return _PermTable(
        {
            _Key(k & 15, k >> 4 & 15, k >> 8 & 15, k >> 12 & 15, k >> 16 & 15, k >> 20 & 15, k >= _FIRST_GT_1): c
            for k, c in joint.items()
        },
        {_mask_set(m): c for m, c in by_suc.items()},
        {_mask_set(m): c for m, c in by_fix.items()},
    )


def _asc(n: int, k: _Key) -> int:
    return max(n - 1, 0) - k.des


#: family -> (its letters, the exponent tuple of one joint-table key at size n, or None to leave it out)
_PROJECTIONS: dict[str, tuple[tuple[str, ...], Callable[[int, _Key], "tuple[int, ...] | None"]]] = {
    "eulerian": (("x",), lambda n, k: (k.des,)),
    "trivariate": (("x", "y", "s"), lambda n, k: (_asc(n, k) - k.suc, k.des, k.suc)),
    "fixpoint": (("x", "y", "s"), lambda n, k: (k.exc, n - k.exc - k.fix, k.fix)),
    "bivariate": (("x", "y"), lambda n, k: (_asc(n, k), k.des + 1)),
    "derangement": (("x",), lambda n, k: (k.exc,) if k.fix == 0 else None),
    "no-succession-first-not-1": (("x",), lambda n, k: (k.des,) if k.suc == 0 and k.first_gt_1 else None),
    "gamma-eulerian-no-ddes": (("x",), lambda n, k: (k.des,) if k.ddes == 0 else None),
    "peak": (("x",), lambda n, k: (k.ipk,)),
}

FAMILIES = tuple(_PROJECTIONS)


def _project(n: int, exponents: Callable[[int, _Key], "tuple[int, ...] | None"]) -> dict[tuple[int, ...], int]:
    """The counts of S_n summed by the exponent tuple of each joint key (None leaves a key out)."""
    out: dict[tuple[int, ...], int] = {}
    for k, count in _perm_table(n).joint.items():
        e = exponents(n, k)
        if e is not None:
            out[e] = out.get(e, 0) + count
    return out


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
    if family not in _PROJECTIONS:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    letters, exponents = _PROJECTIONS[family]
    counts = _project(n, exponents)
    if n == 0:
        return Poly.one()
    return Poly.from_exponents((dict(zip(letters, e)), count) for e, count in counts.items())


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
    return _project(n, lambda n, k: (_asc(n, k), k.suc))
