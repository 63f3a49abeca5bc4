"""Truncated formal power series in z with exact polynomial coefficients.

Every value carries its own truncation order; binary operations truncate at
the minimum of the operands' orders, so precision can only be lost visibly.
Division is supported whenever the constant term is invertible or, more
generally, whenever every coefficient division happens to be exact in the
polynomial ring (this is how quotients like (y-x)/(y*e^{xz}-x*e^{yz}) stay
polynomial even though y-x is not a unit).

A series is stored in divided-power (Hurwitz) form, as its numerators h_n = n! [z^n]:
products are binomial convolutions, each numerator accumulated into one dict
(``exactalg.sum_of_products``), e^{pz} has h_n = p^n and d/dz is a shift, so the
symbolic EGFs are built from integer polynomials.  ``coeffs`` and ``coefficient(n)``
still give the ordinary coefficients [z^n]; ``egf_coefficient(n)`` is h_n.

The gamma-xy EGF takes optional x and y: each is an exact rational or, when left
out, a symbol.  y enters only through q^2 = 2y-1, so no square root is taken and
any rational y builds.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Mapping, Sequence, Union

from .errors import (
    InexactDivisionError,
    InvalidParamError,
    NonInvertibleConstantTermError,
    NonzeroConstantTermError,
    SizeLimitError,
)
from .exactalg import Poly, Rational, sum_of_products

PolyLike = Union[Poly, int, Fraction]

#: Largest truncation order ``egf_build`` accepts; the trivariate EGF at order 30
#: takes about 0.025 s (2 vCPU VM, CPython 3.11.7), and its cost grows steeply with the order.
MAX_SERIES_ORDER = 30


def _as_poly(v: PolyLike) -> Poly:
    return v if isinstance(v, Poly) else Poly.const(v)


class Series:
    """Power series  sum_{n<=order} h[n] * z^n / n!,  built from its coefficients [z^n]."""

    __slots__ = ("order", "h")

    def __init__(self, coeffs: Sequence[PolyLike], order: int | None = None):
        cs = [_as_poly(c) for c in coeffs]
        if order is None:
            if not cs:
                raise InvalidParamError("a series needs at least its constant coefficient")
            order = len(cs) - 1
        if order < 0:
            raise InvalidParamError("order must be >= 0")
        if len(cs) < order + 1:
            cs.extend([Poly.zero()] * (order + 1 - len(cs)))
        else:
            cs = cs[: order + 1]
        self.order = order
        self.h = tuple(c.scale(factorial(n)) for n, c in enumerate(cs))

    @classmethod
    def _of(cls, h: Sequence[Poly], order: int) -> Series:
        """The series with numerators h[0..order], taken as they are."""
        out = object.__new__(cls)
        out.order, out.h = order, tuple(h)
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: PolyLike, order: int) -> Series:
        return cls([_as_poly(value)], order)

    @classmethod
    def z(cls, order: int) -> Series:
        return cls([Poly.zero(), Poly.one()], order)

    @classmethod
    def exp_zp(cls, p: PolyLike, order: int) -> Series:
        """e^{z*p} = sum p^n z^n / n!  for a z-free multiplier p."""
        p = _as_poly(p)
        h = [Poly.one()]
        for _ in range(order):
            h.append(h[-1] * p)
        return cls._of(h, order)

    # -- helpers -----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Poly, ...]:
        """The ordinary coefficients [z^0], ..., [z^order]."""
        return tuple(self.coefficient(n) for n in range(self.order + 1))

    def coefficient(self, n: int) -> Poly:
        """The z^n coefficient h_n / n!."""
        return self.egf_coefficient(n).scale(Fraction(1, factorial(n)))

    def egf_coefficient(self, n: int) -> Poly:
        """n! times the z^n coefficient: the n-th EGF numerator polynomial."""
        if not 0 <= n <= self.order:
            raise InvalidParamError(f"coefficient index {n} outside truncation order {self.order}")
        return self.h[n]

    def truncate(self, order: int) -> Series:
        if order >= self.order:
            return self
        return Series._of(self.h[: order + 1], order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.h == other.h

    def __repr__(self) -> str:
        inner = " + ".join(f"({c})z^{n}" for n, c in enumerate(self.coeffs) if c)
        return f"Series[O(z^{self.order + 1})]({inner or '0'})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Series | PolyLike) -> Series:
        if not isinstance(other, Series):
            other = Series.const(other, self.order)
        n = min(self.order, other.order)
        return Series._of([self.h[i] + other.h[i] for i in range(n + 1)], n)

    __radd__ = __add__

    def __sub__(self, other: Series | PolyLike) -> Series:
        if not isinstance(other, Series):
            other = Series.const(other, self.order)
        n = min(self.order, other.order)
        return Series._of([self.h[i] - other.h[i] for i in range(n + 1)], n)

    def __mul__(self, other: Series | PolyLike) -> Series:
        if isinstance(other, (Poly, int, Fraction)):
            p = _as_poly(other)
            return Series._of([c * p for c in self.h], self.order)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.h, other.h
        out = [sum_of_products((comb(m, i), a[i], b[m - i]) for i in range(m + 1)) for m in range(n + 1)]
        return Series._of(out, n)

    __rmul__ = __mul__

    def div(self, other: Series) -> Series:
        """Quotient self / other, exact at every coefficient.

        Raises NonInvertibleConstantTermError when the divisor constant term
        is zero or some required coefficient division is inexact.
        """
        n = min(self.order, other.order)
        b = other.h
        b0 = b[0]
        if not b0:
            raise NonInvertibleConstantTermError("divisor has zero constant term")
        out: list[Poly] = []
        try:
            for i in range(n + 1):
                known = sum_of_products((comb(i, j), out[i - j], b[j]) for j in range(1, i + 1))
                out.append((self.h[i] - known).divexact(b0))
        except InexactDivisionError as exc:
            raise NonInvertibleConstantTermError(
                "divisor constant term is not invertible and division is not exact"
            ) from exc
        return Series._of(out, n)

    __truediv__ = div

    def exp(self) -> Series:
        """Exponential of a series with zero constant term."""
        if self.h[0]:
            raise NonzeroConstantTermError("exp requires zero constant term")
        n = self.order
        e = [Poly.one()] + [Poly.zero()] * n
        # E' = a' E  gives  E_m = sum_{k=1..m} C(m-1, k-1) a_k E_{m-k}
        a = self.h
        for m in range(1, n + 1):
            e[m] = sum_of_products((comb(m - 1, k - 1), a[k], e[m - k]) for k in range(1, m + 1))
        return Series._of(e, n)

    def diff_z(self) -> Series:
        """d/dz, truncated one order lower: the numerators shift down by one."""
        if self.order == 0:
            raise InvalidParamError("d/dz of a series of order 0 has no known coefficient")
        return Series._of(self.h[1:], self.order - 1)

    def specialize(self, assignment: Mapping[str, PolyLike]) -> Series:
        sub = {v: _as_poly(p) for v, p in assignment.items()}
        return Series._of([c.subst(sub) for c in self.h], self.order)


EGF_NAMES = ("trivariate", "derangement", "fixpoint", "bivariate", "no-succession", "gamma-xy")


def _core_quotient(order: int) -> Series:
    # (y - x) / (y e^{xz} - x e^{yz})
    x, y = Poly.var("x"), Poly.var("y")
    den = Series.exp_zp(x, order) * y - Series.exp_zp(y, order) * x
    return Series.const(y - x, order).div(den)


def egf_build(name: str, order: int, params: Mapping[str, Rational] | None = None) -> Series:
    """Build one of the named exponential generating functions, truncated.

    trivariate     e^{z(y+s)} ((y-x)/(y e^{xz}-x e^{yz}))^2
    fixpoint       (y-x) e^{sz} / (y e^{xz}-x e^{yz})
    bivariate      (y-x) e^{yz} / (y e^{xz}-x e^{yz})
    derangement    the fixpoint form specialized at y=1, s=0
    no-succession  (1-x) / (e^{xz} - x e^{z})
    gamma-xy       e^{z(x-1)} (q sec(qz/2) / (q - tan(qz/2)))^2,  q = sqrt(2y-1);
                   ``params`` may fix x, y or both at an int or Fraction (any y, since
                   only q^2 enters), and each one it leaves out stays a symbol; any
                   other params raise ``InvalidParamError`` before any series work
    """
    if order > MAX_SERIES_ORDER:
        raise SizeLimitError(f"series order guard: order={order} exceeds {MAX_SERIES_ORDER}")
    params = params or {}
    for key, value in params.items():
        if name != "gamma-xy" or key not in ("x", "y") or type(value) not in (int, Fraction):
            raise InvalidParamError(f"EGF {name!r} takes no {key}={value!r}; gamma-xy takes int or Fraction x, y")
    x, y, s = Poly.var("x"), Poly.var("y"), Poly.var("s")
    if name == "trivariate":
        q = _core_quotient(order)
        return Series.exp_zp(y + s, order) * (q * q)
    if name == "fixpoint":
        return Series.exp_zp(s, order) * _core_quotient(order)
    if name == "bivariate":
        return Series.exp_zp(y, order) * _core_quotient(order)
    if name == "derangement":
        return egf_build("fixpoint", order).specialize({"y": 1, "s": 0})
    if name == "no-succession":
        den = Series.exp_zp(x, order) - Series.exp_zp(Poly.one(), order) * x
        return Series.const(1 - x, order).div(den)
    if name == "gamma-xy":
        # q sec(qz/2) / (q - tan(qz/2)) = 1 / D,  D = cos(qz/2) - sin(qz/2)/q, a series in
        # c = q^2/4 = (2y-1)/4 with numerators (-c)^m at z^(2m) and -(-c)^m/2 at z^(2m+1)
        x_val, y_val = (Poly.const(params[v]) if v in params else Poly.var(v) for v in "xy")
        minus_c = (1 - 2 * y_val).scale(Fraction(1, 4))
        powers = [Poly.one()]
        for _ in range(order // 2):
            powers.append(powers[-1] * minus_c)
        den = [h for p in powers for h in (p, p.scale(Fraction(-1, 2)))]
        base = Series.const(1, order).div(Series._of(den[: order + 1], order))
        return Series.exp_zp(x_val - 1, order) * base * base
    raise InvalidParamError(f"unknown EGF name {name!r}; expected one of {EGF_NAMES}")
