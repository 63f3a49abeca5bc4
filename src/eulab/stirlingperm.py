"""k-Stirling permutations: one block-insertion counting walk and plateau statistics.

Words are generated by inserting the block m^k into every gap of each word
of order m-1 (Gessel--Stanley, "Stirling polynomials", JCTA 1978; Janson--
Kuba--Panholzer, JCTA 2011); this is exponentially cheaper than filtering
multiset permutations.  Boundary convention: a word sigma of length kn is
padded with sigma_0 = sigma_{kn+1} = 0, so index 0 is always an ascent and
index kn always a descent.

A plateau at index i is a j-plateau when exactly j-1 earlier positions hold
the same letter; summing x_j over j <= k-1 plateau classes plus descent and
ascent markers x_k, x_{k+1} gives the multivariate k-th order Eulerian
polynomial.

The walk keeps only the type of each of the kn+1 padded gaps, and the statistic
vector as one packed int key with fields as wide as kn + 1, as ``exactalg``
packs exponents (Monagan--Pearce, CASC 2007).  Putting m^k into the gap between
a and b replaces the pair (a, b) by (a, m), (m, m) k-1 times and (m, b): an
ascent, the 1- to (k-1)-plateaux of m and a descent, while every other plateau
keeps its index; so the key changes by one precomputed int per gap type, and
nothing is copied or rescanned.  Every word adds 1 to its key's count at the
last block: the route is exhaustive.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvalidParamError, SizeLimitError
from .exactalg import MAX_EXPONENT, Poly

PRODUCT_GUARD = 10**7


def word_count(n: int, k: int, cap: int | None = None) -> int:
    """|Q_n(k)| = product of (k*i + 1) for i = 0..n-1, returned once it exceeds ``cap``."""
    total = 1
    for i in range(1, n):
        total *= k * i + 1
        if cap is not None and total > cap:
            break
    return total


def guard(n: int, k: int) -> None:
    """Raise before any enumeration when Q_n(k) is empty or too large to walk.

    A gap count is an x_j exponent, so the kn + 1 gaps are checked first against
    ``Poly``'s ``MAX_EXPONENT``; then the words are counted until past ``PRODUCT_GUARD``.
    """
    if n < 1 or k < 1:
        raise InvalidParamError("need n >= 1 and k >= 1")
    if k * n + 1 > MAX_EXPONENT:
        raise SizeLimitError(f"k-Stirling guard: {k * n + 1} gaps exceed the exponent bound {MAX_EXPONENT}")
    if word_count(n, k, cap=PRODUCT_GUARD) > PRODUCT_GUARD:
        raise SizeLimitError(f"k-Stirling guard: |Q_{n}({k})| exceeds {PRODUCT_GUARD} words")


def _layout(n: int, k: int) -> int:  # bits per key field: a field counts at most the kn + 1 gaps
    return (k * n + 1).bit_length()


def _walk(n: int, k: int) -> dict[int, int]:
    """The number of words of Q_n(k) with each exponent vector, keyed by the packed vector.

    A gap's type is the index of its variable: j-1 for a j-plateau, k-1 for a
    descent, k for an ascent; field t of a key (``_layout`` bits each) counts
    the gaps of type t, which is the exponent of x_{t+1}.  Only the gap types
    are kept, and every word adds 1 to its key's count at the last block.
    """
    guard(n, k)
    width = _layout(n, k)
    block_gaps = [k, *range(k - 1), k - 1]  # (a, m), (m, m) x (k-1), (m, b)
    step = [sum(1 << width * t for t in block_gaps) - (1 << width * old) for old in range(k + 1)]
    gaps, counts = list(block_gaps), {}  # 1^k put into (0, 0)

    def grow(m: int, key: int) -> None:
        if m == n:
            for old in gaps:
                last = key + step[old]
                counts[last] = counts.get(last, 0) + 1
            return
        for g in range(len(gaps)):
            old = gaps[g]
            gaps[g : g + 1] = block_gaps
            grow(m + 1, key + step[old])
            gaps[g : g + k + 1] = (old,)

    start = sum(1 << width * t for t in range(k + 1))
    if n > 1:
        grow(2, start)
    else:
        counts[start] = 1
    return counts


@lru_cache(maxsize=None)
def kth_order_poly(n: int, k: int) -> Poly:
    """Multivariate k-th order Eulerian polynomial over x_1..x_{k+1}.

    Weight of a word: x_1^plat_1 ... x_{k-1}^plat_{k-1} x_k^des x_{k+1}^asc.
    """
    width = _layout(n, k)
    shifts, mask = {f"x_{t + 1}": width * t for t in range(k + 1)}, (1 << width) - 1
    return Poly.from_exponents(({v: key >> s & mask for v, s in shifts.items()}, c) for key, c in _walk(n, k).items())


def trivariate_second_order(n: int) -> Poly:
    """C_n(x,y,z): the k = 2 polynomial renamed x_1 -> z, x_2 -> y, x_3 -> x."""
    return kth_order_poly(n, 2).subst({"x_1": Poly.var("z"), "x_2": Poly.var("y"), "x_3": Poly.var("x")})
