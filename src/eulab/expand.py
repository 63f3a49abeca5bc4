"""Basis-expansion solvers and the recurrence tables: number triangles and two gamma tables.

Each solver peels coefficients: it reads one basis coefficient and subtracts that
element's coefficients from a dense list or (esym) a table of partitions, so no basis
polynomial is built.  ``Expansion.reconstruct`` writes them out: it is the certificate.
Every table here is built by recurrence; the gamma-histogram rows, read off grammar
iteration, are ``grammar.histogram_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, factorial, prod
from typing import Callable, Iterator, Sequence

from .errors import InvalidParamError, NotExpandableError, NotPalindromicError, NotSymmetricError, OutOfRangeError
from .exactalg import Poly, Rational, elementary_symmetric, sum_of_products

MAX_TABLE_N = 12

BASES = ("gamma", "frobenius", "partial-gamma", "esym")


@dataclass
class Expansion:
    """Coefficients of a polynomial in one of the four combinatorial bases.

    ``coeffs`` maps index tuples to exact rationals:
      gamma          (k,)            f = sum gamma_k v^k (1+v)^(n-2k)
      frobenius      (k,)            f = sum c_k v^k (1-v)^(n-k)
      partial-gamma  (i, j)          f = sum g_ij (s+y)^i (2xy)^j (x+y)^(n-i-2j)
      esym           (b_1..b_m)      f = sum c_b e_1^b_1 ... e_m^b_m
    """

    basis: str
    coeffs: dict[tuple[int, ...], Rational]
    n: int | None = None
    var: str | None = None
    variables: tuple[str, ...] = field(default_factory=tuple)

    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def reconstruct(self) -> Poly:
        """Substitute the basis polynomials back in; must reproduce the input."""
        if self.basis in ("gamma", "frobenius"):
            v = Poly.var(self.var)
            step, w = (2, 1 + v) if self.basis == "gamma" else (1, 1 - v)
            return sum_of_products((c, v**k, w ** (self.n - step * k)) for (k,), c in self.coeffs.items())
        if self.basis == "partial-gamma":
            x, y, s = Poly.var("x"), Poly.var("y"), Poly.var("s")
            return sum_of_products(
                (c, (s + y) ** i * (2 * x * y) ** j, (x + y) ** (self.n - i - 2 * j))
                for (i, j), c in self.coeffs.items()
            )
        if self.basis == "esym":
            e = [elementary_symmetric(self.variables, i) for i in range(1, len(self.variables) + 1)]
            one = Poly.one()
            return sum_of_products(
                (c, prod((ei**bi for ei, bi in zip(e, b) if bi), start=one), one) for b, c in self.coeffs.items()
            )
        raise InvalidParamError(f"unknown basis {self.basis!r}")


def _dense(f: Poly, var: str, n: int) -> list[Rational]:
    """f's coefficients in var, padded to n + 1; refused unless f is univariate of degree <= n."""
    coeffs = f.coeffs_in(var)
    if len(coeffs) - 1 > n:
        raise NotExpandableError(f"degree {len(coeffs) - 1} exceeds n={n}")
    return coeffs + [0] * (n + 1 - len(coeffs))


def _peel(coeffs: list[Rational], n: int, step: int, sign: int) -> dict[tuple[int, ...], Rational]:
    """Peel c_k v^k (1 + sign*v)^(n - step*k) off the n + 1 coefficients, lowest k first, in place."""
    out: dict[tuple[int, ...], Rational] = {}
    for k in range(n // step + 1):
        c = coeffs[k]
        if c:
            out[(k,)] = c
            w = n - step * k
            for i in range(w + 1):
                coeffs[k + i] -= c * sign**i * comb(w, i)
    if any(coeffs):
        raise NotExpandableError("nonzero residual after peeling")
    return out


def gamma_expand(f: Poly, var: str, n: int) -> Expansion:
    """Expand a palindromic polynomial in the basis v^k (1+v)^(n-2k)."""
    coeffs = _dense(f, var, n)
    if coeffs != coeffs[::-1]:
        raise NotPalindromicError(f"coefficients of {var}^i and {var}^(n-i) differ")
    return Expansion(basis="gamma", coeffs=_peel(coeffs, n, 2, 1), n=n, var=var)


def frobenius_expand(f: Poly, var: str, n: int) -> Expansion:
    """Expand a polynomial vanishing at 0 in the basis v^k (1-v)^(n-k), k >= 1."""
    if f.constant_term():
        raise NotExpandableError("constant term must vanish (expected the x*A_n(x) shape)")
    return Expansion(basis="frobenius", coeffs=_peel(_dense(f, var, n), n, 1, -1), n=n, var=var)


def partial_gamma_expand(f: Poly, n: int) -> Expansion:
    """Expand in the basis (s+y)^i (2xy)^j (x+y)^(n-i-2j).

    Routes through s -> t-y so the symmetric (x,y) pair separates from the
    t = s+y direction; every t-slice must then be symmetric in (x,y) and
    homogeneous of degree n - i, which is asserted rather than assumed.
    """
    extra = set(f.variables()) - {"x", "y", "s"}
    if extra:
        raise NotExpandableError(f"expected a polynomial in x, y, s; also found {sorted(extra)}")
    g = f.subst({"s": Poly.var("t") - Poly.var("y")})
    slices: dict[int, dict[tuple[int, int], Rational]] = {}
    for (i, a, b), c in g.exponent_table(["t", "x", "y"]).items():
        slices.setdefault(i, {})[(a, b)] = c
    out: dict[tuple[int, ...], Rational] = {}
    for i, terms in sorted(slices.items()):
        if i > n:
            raise NotExpandableError(f"t-degree {i} exceeds n={n}")
        if any(terms.get((b, a)) != c for (a, b), c in terms.items()):
            raise NotExpandableError(f"coefficient of (s+y)^{i} is not symmetric in x, y")
        d = n - i
        if any(a + b != d for a, b in terms):
            raise NotExpandableError(f"coefficient of (s+y)^{i} is not homogeneous of degree {d}")
        # at y = 1 the slice is palindromic of degree d, and (2x)^j (x+1)^(d-2j) is its basis
        at_y1 = [terms.get((a, d - a), 0) for a in range(d + 1)]
        for (j,), c in _peel(at_y1, d, 2, 1).items():
            gamma = Fraction(c) / 2**j
            out[(i, j)] = int(gamma) if gamma.denominator == 1 else gamma
    return Expansion(basis="partial-gamma", coeffs=out, n=n)


def _e_coefficient(mu: tuple[int, ...], lam: Sequence[int], memo: dict) -> int:
    """[x^lam] e_mu_1 e_mu_2 ... for weakly decreasing mu: the 0-1 matrices with row sums mu and column sums lam.

    Column order is immaterial, so lam is sorted and its zeros dropped.  A matrix more than half full is counted
    by its complement, rows of single 1s by the multinomial |mu|!/prod lam_j!, any other by row 1's columns.
    """
    lam = tuple(sorted(filter(None, lam), reverse=True))
    count = memo.get((mu, lam))
    if count is None:
        r, m, total = len(mu), len(lam), sum(mu)
        if total != sum(lam) or (lam and lam[0] > r) or (mu and mu[0] > m):
            count = 0
        elif 2 * total > r * m:
            count = _e_coefficient(tuple(m - x for x in reversed(mu) if x < m), [r - c for c in lam], memo)
        elif not mu or mu[0] == 1:
            count = factorial(total) // prod(map(factorial, lam))
        else:
            count = sum(
                _e_coefficient(mu[1:], [c - (j in cols) for j, c in enumerate(lam)], memo)
                for cols in combinations(range(m), mu[0])
            )
        memo[mu, lam] = count
    return count


def _dominated(a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The weakly decreasing len(a)-tuples with sum |a| that a dominates.

    a dominates lam when every prefix sum of lam is at most a's.  Only there can
    [x^lam] e_mu be nonzero for mu = a' (Gale-Ryser), so the peeling step skips the rest.
    """
    bounds = list(accumulate(a))
    total = bounds[-1] if a else 0

    def fill(i: int, used: int, top: int) -> list[tuple[int, ...]]:
        if i == len(a):
            return [()]
        low = -(-(total - used) // (len(a) - i))  # no part may be below the mean of what is left
        return [
            (first,) + rest
            for first in range(min(top, bounds[i] - used), low - 1, -1)
            for rest in fill(i + 1, used + first, first)
        ]

    return fill(0, 0, total)


def esym_expand(f: Poly, variables: Sequence[str]) -> Expansion:
    """Express a symmetric polynomial in monomials of e_1..e_m (leading-term reduction).

    A symmetric polynomial is fixed by its coefficients at partitions.  The leading
    partition a gives the exponent b_i = a_i - a_{i+1} (a_{m+1} = 0) of e_i, and
    c e^b is subtracted at every partition of |a| that a dominates, which removes a from
    the table; e^b is zero at the other partitions.
    """
    variables = tuple(variables)
    stray = set(f.variables()) - set(variables)
    if stray:
        raise NotSymmetricError(f"polynomial uses variables outside the given set: {sorted(stray)}")
    if not f.is_symmetric(variables):
        raise NotSymmetricError("polynomial is not symmetric in the given variables")
    table = f.exponent_table(variables)
    table = {a: c for a, c in table.items() if list(a) == sorted(a, reverse=True)}
    out: dict[tuple[int, ...], Rational] = {}
    memo: dict = {}  # the count's states, shared by every step of this expansion
    while table:
        a = max(table, key=lambda vec: (sum(vec), vec))  # graded-lex leading partition
        c = table[a]
        b = tuple(ai - aj for ai, aj in zip(a, a[1:] + (0,)))
        out[b] = c
        mu = tuple(i for i in range(len(b), 0, -1) for _ in range(b[i - 1]))
        for lam in _dominated(a):
            table[lam] = table.get(lam, 0) - c * _e_coefficient(mu, lam, memo)
        table = {lam: v for lam, v in table.items() if v}
    return Expansion(basis="esym", coeffs=out, variables=variables)


# ---------------------------------------------------------------------------
# Recurrence tables: number triangles and gamma tables
# ---------------------------------------------------------------------------

MAX_TRIANGLE_N = 60

TRIANGLES = ("eulerian", "second-order-eulerian", "surjection")


def _above(prev: tuple[int, ...], n: int) -> Iterator[tuple[int, int, int]]:
    """(k, T(n-1, k), T(n-1, k-1)) for k = 0..n, with zeros outside row n - 1."""
    p = prev + (0,)  # p[n] and p[-1] are the zeros beside row n - 1
    return ((k, p[k], p[k - 1]) for k in range(n + 1))


def _gamma_nij_rule(prev: dict[tuple[int, int], int], n: int) -> dict[tuple[int, int], int]:
    row = {}
    for i in range(n + 1):
        for j in range((n - i) // 2 + 1):
            val = (
                prev.get((i - 1, j), 0)
                + (1 + i) * prev.get((i + 1, j - 1), 0)
                + j * prev.get((i, j), 0)
                + (n - i - 2 * j + 1) * prev.get((i, j - 1), 0)
            )
            if val:
                row[(i, j)] = val
    return row


def _gamma_xy_rule(g: Poly, n: int) -> Poly:
    x, y = Poly.var("x"), Poly.var("y")
    return sum_of_products(
        ((1, x + (n - 1) * y, g), (1, y * (1 - x), g.diff("x")), (1, y * (1 - 2 * y), g.diff("y")))
    )


#: kind -> (row 0, the rule that builds row n from row n - 1 and n)
_RULES: dict[str, tuple[object, Callable]] = {
    "surjection": ((1,), lambda prev, n: tuple(k * (t + s) for k, t, s in _above(prev, n))),  # E(n, k) = k! S(n, k)
    "eulerian": ((1,), lambda prev, n: tuple((k + 1) * t + (n - k) * s for k, t, s in _above(prev, n))),
    "second-order-eulerian": ((1,), lambda prev, n: tuple(k * t + (2 * n - k) * s for k, t, s in _above(prev, n))),
    "gamma-nij": ({(0, 0): 1}, _gamma_nij_rule),
    "gamma-n-xy-poly": (Poly.one(), _gamma_xy_rule),
}


@lru_cache(maxsize=None)
def _row(kind: str, n: int):
    """Row n of the recurrence table ``kind``; each row is built once per process."""
    row0, rule = _RULES[kind]
    return row0 if n == 0 else rule(_row(kind, n - 1), n)


def triangle_guard(n: int, k: int = 0) -> None:
    """Raise before any row is built when (n, k) lies outside the triangles."""
    if not (0 <= k <= n <= MAX_TRIANGLE_N):
        raise OutOfRangeError(f"triangle index out of range: need 0 <= k <= n <= {MAX_TRIANGLE_N}")


def triangle(name: str, n: int, k: int) -> int:
    """Exact triangle entry via the defining recurrence."""
    if name not in TRIANGLES:
        raise InvalidParamError(f"unknown triangle {name!r}; expected one of {TRIANGLES}")
    triangle_guard(n, k)
    return _row(name, n)[k]


def second_order_poly_from_triangle(n: int) -> Poly:
    """C_n(x) assembled from the second-order Eulerian triangle."""
    if n == 0:
        return Poly.one()
    return Poly.from_exponents(({"x": j}, triangle("second-order-eulerian", n, j)) for j in range(1, n + 1))


@dataclass(frozen=True)
class GammaTable:
    """One of the two recurrence gamma tables, stored by row: ``values[n]`` is row n.

    gamma-nij         values[n] -> {(i, j): gamma_{n,i,j}}
    gamma-n-xy-poly   values[n] -> gamma_n(x, y) as a Poly in x, y
    """

    values: tuple


TABLE_KINDS = ("gamma-nij", "gamma-n-xy-poly")


def gamma_tables(kind: str, n_max: int) -> GammaTable:
    """Rows 0..n_max of the recurrence table ``kind``; refused past ``MAX_TABLE_N``."""
    if kind not in TABLE_KINDS:
        raise InvalidParamError(f"unknown table kind {kind!r}; expected one of {TABLE_KINDS}")
    if not 0 <= n_max <= MAX_TABLE_N:
        raise OutOfRangeError(f"table guard: need 0 <= n_max <= {MAX_TABLE_N}")
    return GammaTable(tuple(_row(kind, n) for n in range(n_max + 1)))
