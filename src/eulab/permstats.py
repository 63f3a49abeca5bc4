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
centred at j-1.  The statistics ride along as one packed int: the joint key,
4 bits per field, with the succession and fixed-point sets as bitmasks above
it.  The last ``_TAIL`` positions are placed from a memo local to each
sweep: for the values left, the value before them and what a descent there
adds, it lists the packed steps of every way to place them, one element per
permutation.  Every permutation adds 1 to the count of its joint key and to
that of its pair of sets, so the route stays exhaustive; the two set
profiles are summed from the pairs after the walk (990 pairs for S_8's
40 320 permutations).

Descents/ascents use the boundary-free convention (indices in [n-1]); only
double descents use the padded convention pi(0) = pi(n+1) = 0, and interior
peaks use indices 2..n-1.  Anti-excedances run over all of [n] so that
exc + aexc + fix = n holds.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import InvalidParamError, SizeLimitError
from .exactalg import Poly

MAX_ENUM_N = 10


def guard(n: int) -> None:
    """Raise before any sweep when S_n is too large to enumerate."""
    if n < 0:
        raise InvalidParamError("n must be >= 0")
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
#: a walk's packed int: the joint key in bits 0-27, the succession set from bit 28, the fixed-point set from bit 39
_SUC_AT, _FIX_AT = 28, 39
_KEY_BITS, _SUC_BITS = (1 << _SUC_AT) - 1, (1 << _FIX_AT - _SUC_AT) - 1
_FALL = _DES + _DDES  # what a descent adds right after a descent: it makes a double descent
_TAIL = 3  # positions each sweep places from its memo; one S_8 sweep peaks at 0.6 MB with 3, 1.0 MB with 4


def _mask_set(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


class _PermTable(NamedTuple):
    joint: dict[_Key, int]
    by_suc: dict[frozenset[int], int]
    by_fix: dict[frozenset[int], int]


@lru_cache(maxsize=None)
def _perm_table(n: int) -> _PermTable:
    """The one sweep of S_n: joint key counts and the two set profiles.

    ``grow(j, rest, packed, a, down)`` places each value b of ``rest`` at
    position j after a = pi(j-1) (a = 0 before position 1) and adds
    ``moves[j][a][b]`` to the packed int, plus ``down`` on a descent: des,
    and a double descent after a fall or an interior peak after a rise.  Bit
    i of the succession set marks pi(i+1) = pi(i) + 1, and bit i of the
    fixed-point set pi(i) = i for i <= n-1; each bit is set once, so adding
    never carries.  The last ``_TAIL`` positions come from a memo local to
    the sweep, keyed by the values left, a and down: its list holds the
    packed steps of the ways to place them, one element per permutation, so
    every permutation adds 1 to the count of its joint key (bits 0-27) and
    to that of its pair of sets (the bits above), which the walk's end
    splits into the two profiles.
    """
    guard(n)
    joint: dict[int, int] = {}
    by_suc: dict[int, int] = {}
    by_fix: dict[int, int] = {}
    sets: dict[int, int] = {}  # the succession set in bits 0-10, the fixed-point set above
    memo: dict[tuple[tuple[int, ...], int, int], list[int]] = {}

    def move(j: int, a: int, b: int) -> int:
        if b > j:  # an excedance, at j = 1 also pi(1) > 1
            step = _EXC + (j == 1) * _FIRST_GT_1
        else:  # a fixed point, with its bit if j < n
            step = (b == j) * (_FIX + ((j < n) << _FIX_AT + j))
        if a > b:  # and at j = n, pi(n) > pi(n+1) = 0 closes a double descent
            return step + (j == n) * _DDES
        return step + (0 < a == b - 1) * (_SUC + (1 << _SUC_AT + j - 1))

    moves = [[[move(j, a, b) for b in range(n + 1)] for a in range(n + 1)] for j in range(n + 1)]
    rises = [_DES + _IPK * (j > 1) for j in range(n + 1)]  # pi(0) < pi(1) is no peak's rise

    def tails(rest: tuple[int, ...], a: int, down: int) -> list[int]:  # the last positions, from the memo
        if not rest:
            return [0]
        steps = memo.get((rest, a, down))
        if steps is None:
            j = n + 1 - len(rest)
            moves_ja, rise, steps = moves[j][a], rises[j], []
            for idx, b in enumerate(rest):
                step = moves_ja[b] + down if a > b else moves_ja[b]
                steps += map(step.__add__, tails(rest[:idx] + rest[idx + 1 :], b, _FALL if a > b else rise))
            memo[rest, a, down] = steps
        return steps

    def grow(j: int, rest: tuple[int, ...], packed: int, a: int, down: int) -> None:
        if n - j < _TAIL:
            for step in tails(rest, a, down):
                p = packed + step
                k, m = p & _KEY_BITS, p >> _SUC_AT
                joint[k] = joint.get(k, 0) + 1
                sets[m] = sets.get(m, 0) + 1
            return
        moves_ja, rise = moves[j][a], rises[j]
        for idx, b in enumerate(rest):
            step = moves_ja[b] + down if a > b else moves_ja[b]
            grow(j + 1, rest[:idx] + rest[idx + 1 :], packed + step, b, _FALL if a > b else rise)

    grow(1, tuple(range(1, n + 1)), 0, 0, 0)
    del grow, tails, memo  # break the closures' cycle: the memo is freed now, before the table is built
    for m, c in sets.items():
        s, f = m & _SUC_BITS, m >> _FIX_AT - _SUC_AT
        by_suc[s] = by_suc.get(s, 0) + c
        by_fix[f] = by_fix.get(f, 0) + c
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
        raise InvalidParamError(f"unknown family {family!r}; expected one of {FAMILIES}")
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
