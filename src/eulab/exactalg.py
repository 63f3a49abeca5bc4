"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a mapping from monomials to exact rational coefficients.
Monomials are tuples of (variable, exponent) pairs sorted by variable name,
with zero exponents never stored; coefficients are ``int`` or ``Fraction``
(integers are kept as ``int`` as an unobservable fast path).  The zero
polynomial has no terms.  All arithmetic is exact; there is no floating
point anywhere in this package.

The monomial tuple is private to this module: no other module of the
package builds or takes one apart.  They read a polynomial as an exponent
table (``Poly.exponent_table``: exponent vectors of named letters to summed
coefficients), build one from exponent mappings (``Poly.from_exponents``)
and print its monomials through ``Poly.text_terms``, so a change of monomial
representation stays inside this file.  ``Poly.items`` still yields the
tuples for the tests' term-by-term reference implementations.

Monomials are ordered graded-lexicographically over sorted variable names,
which fixes a canonical serialization and a leading-term notion used by the
exact division and symmetric-function reduction routines.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import InexactDivisionError, PolyParseError

Rational = Union[int, Fraction]

#: A monomial: ((var, exp), ...) sorted by var, every exp > 0.
Mono = tuple[tuple[str, int], ...]

_ONE: Mono = ()

#: The exact coefficient strings of the wire form: an integer or p/q.
_COEFF_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _norm_coeff(c: Rational) -> Rational:
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def mono_from_exps(exps: Mapping[str, int]) -> Mono:
    """Build a canonical monomial from an exponent mapping (zeros dropped)."""
    items = []
    for v, e in exps.items():
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent of {v!r} must be a nonnegative int, got {e!r}")
        if e:
            items.append((v, e))
    items.sort()
    return tuple(items)


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out: list[tuple[str, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_div(a: Mono, b: Mono) -> Mono | None:
    """Return a / b as a monomial, or None when b does not divide a."""
    if not b:
        return a
    da = dict(a)
    for v, e in b:
        r = da.get(v, 0) - e
        if r < 0:
            return None
        if r:
            da[v] = r
        else:
            del da[v]
    return tuple(sorted(da.items()))


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_key(m: Mono, universe: Sequence[str]) -> tuple:
    """Graded-lex sort key: total degree first, then exponents along sorted names."""
    d = dict(m)
    return (mono_degree(m), tuple(d.get(v, 0) for v in universe))


class Poly:
    """Immutable exact sparse polynomial over Q with named variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Mono, Rational] | None = None):
        clean: dict[Mono, Rational] = {}
        if terms:
            for m, c in terms.items():
                if type(c) is not int:
                    c = _norm_coeff(c)
                if c:
                    clean[m] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def one(cls) -> Poly:
        return cls({_ONE: 1})

    @classmethod
    def const(cls, c: Rational) -> Poly:
        return cls({_ONE: c})

    @classmethod
    def var(cls, name: str) -> Poly:
        return cls({((name, 1),): 1})

    @classmethod
    def monomial(cls, exps: Mapping[str, int], coeff: Rational = 1) -> Poly:
        return cls({mono_from_exps(exps): coeff})

    @classmethod
    def from_exponents(cls, pairs: Iterable[tuple[Mapping[str, int], Rational]]) -> Poly:
        """Sum of coeff * prod v^e over (exponent mapping, coeff) pairs; equal monomials add up."""
        out: dict[Mono, Rational] = {}
        for exps, c in pairs:
            m = mono_from_exps(exps)
            out[m] = out.get(m, 0) + c
        return cls(out)

    # -- introspection -----------------------------------------------------

    def items(self) -> Iterator[tuple[Mono, Rational]]:
        return iter(self._terms.items())

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> tuple[str, ...]:
        seen: set[str] = set()
        for m in self._terms:
            for v, _ in m:
                seen.add(v)
        return tuple(sorted(seen))

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(mono_degree(m) for m in self._terms)

    def degree_in(self, var: str) -> int:
        deg = 0
        for m in self._terms:
            for v, e in m:
                if v == var and e > deg:
                    deg = e
        return deg

    def coefficient(self, exps: Mapping[str, int]) -> Rational:
        """Coefficient of the given monomial (0 if absent)."""
        return self._terms.get(mono_from_exps(exps), 0)

    def exponent_table(self, letters: Sequence[str]) -> dict[tuple[int, ...], Rational]:
        """Coefficients summed by the exponents of ``letters``, zero sums dropped.

        A letter a monomial lacks reads exponent 0; letters not listed are
        summed over, as if set to 1.
        """
        out: dict[tuple[int, ...], Rational] = {}
        for m, c in self._terms.items():
            exps = dict(m)
            key = tuple([exps.get(v, 0) for v in letters])
            out[key] = out.get(key, 0) + c
        return {key: c for key, c in out.items() if c}

    def constant_term(self) -> Rational:
        return self._terms.get(_ONE, 0)

    def constant_value(self) -> Rational:
        """The value of a constant polynomial; raises if any variable occurs."""
        if any(m for m in self._terms):
            raise ValueError("polynomial is not constant")
        return self._terms.get(_ONE, 0)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Poly.const(other)._terms
        return NotImplemented

    # Normalization is canonical, so structural equality is semantic equality.

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Poly | Rational) -> Poly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other: Poly | Rational) -> Poly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0) - c
        return Poly(out)

    def __rsub__(self, other: Rational) -> Poly:
        return _coerce(other) - self

    def __neg__(self) -> Poly:
        return Poly({m: -c for m, c in self._terms.items()})

    def __mul__(self, other: Poly | Rational) -> Poly:
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        if not self._terms or not other._terms:
            return Poly.zero()
        out: dict[Mono, Rational] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                m = mono_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return Poly(out)

    def __rmul__(self, other: Rational) -> Poly:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Rational) -> Poly:
        if not c:
            return Poly.zero()
        if c == 1:
            return self
        return Poly({m: co * c for m, co in self._terms.items()})

    def __pow__(self, n: int) -> Poly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> Poly:
        """Formal partial derivative with respect to ``var``."""
        out: dict[Mono, Rational] = {}
        for m, c in self._terms.items():
            for i, (v, e) in enumerate(m):
                if v == var:
                    if e == 1:
                        nm = m[:i] + m[i + 1 :]
                    else:
                        nm = m[:i] + ((v, e - 1),) + m[i + 1 :]
                    out[nm] = out.get(nm, 0) + c * e
                    break
        return Poly(out)

    def subst(self, mapping: Mapping[str, Poly | Rational]) -> Poly:
        """Simultaneous substitution; unmapped variables are left in place."""
        images: dict[str, Poly] = {}
        for v, img in mapping.items():
            images[v] = img if isinstance(img, Poly) else Poly.const(img)
        power_cache: dict[tuple[str, int], Poly] = {}

        def var_power(v: str, e: int) -> Poly:
            key = (v, e)
            got = power_cache.get(key)
            if got is None:
                got = images[v] ** e
                power_cache[key] = got
            return got

        # every term goes into one dict: adding Polys would copy the running total per term
        out: dict[Mono, Rational] = {}
        for m, c in self._terms.items():
            untouched: list[tuple[str, int]] = []
            image: Poly | None = None
            for v, e in m:
                if v in images:
                    power = var_power(v, e)
                    image = power if image is None else image * power
                else:
                    untouched.append((v, e))
            rest = tuple(untouched)
            if image is None:
                out[rest] = out.get(rest, 0) + c
                continue
            for im, ic in image._terms.items():
                nm = mono_mul(im, rest)
                out[nm] = out.get(nm, 0) + ic * c
        return Poly(out)

    def evaluate(self, assign: Mapping[str, Rational]) -> Rational:
        """Evaluate at an exact rational point (all variables must be bound)."""
        total: Rational = Fraction(0)
        for m, c in self._terms.items():
            term: Rational = Fraction(c)
            for v, e in m:
                if v not in assign:
                    raise ValueError(f"no value bound for variable {v!r}")
                term *= Fraction(assign[v]) ** e
            total += term
        return _norm_coeff(Fraction(total))

    # -- predicates --------------------------------------------------------

    def is_symmetric(self, variables: Sequence[str]) -> bool:
        """True iff invariant under all transpositions of ``variables``.

        Checking adjacent transpositions suffices since they generate the
        symmetric group.  A transposition is a bijection on monomials, so the
        polynomial is invariant under it iff every term's swapped monomial
        carries the same coefficient.
        """
        vs = list(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("variables must be distinct")
        terms = self._terms
        for a, b in zip(vs, vs[1:]):
            for m, c in terms.items():
                exps = dict(m)
                ea, eb = exps.pop(a, 0), exps.pop(b, 0)
                if ea == eb:
                    continue
                if eb:
                    exps[a] = eb
                if ea:
                    exps[b] = ea
                if terms.get(tuple(sorted(exps.items()))) != c:
                    return False
        return True

    def is_palindromic(self, var: str, n: int) -> bool:
        """True iff [var^i] == [var^(n-i)] for all i (univariate input required)."""
        coeffs = self.coeffs_in(var)
        if len(coeffs) - 1 > n:
            raise ValueError(f"degree {len(coeffs) - 1} exceeds palindrome center bound n={n}")
        padded = coeffs + [0] * (n + 1 - len(coeffs))
        return all(padded[i] == padded[n - i] for i in range(n + 1))

    def coeffs_in(self, var: str) -> list[Rational]:
        """Dense coefficient list of a polynomial univariate in ``var``."""
        extra = [v for v in self.variables() if v != var]
        if extra:
            raise ValueError(f"polynomial is not univariate in {var!r} (also uses {extra})")
        out: list[Rational] = [0] * (self.degree_in(var) + 1)
        for m, c in self._terms.items():
            out[m[0][1] if m else 0] = c
        return out

    # -- ordering, division ------------------------------------------------

    def sorted_terms(self, universe: Sequence[str] | None = None) -> list[tuple[Mono, Rational]]:
        """Terms sorted descending by graded-lex order (leading term first)."""
        uni = tuple(universe) if universe is not None else self.variables()
        return sorted(self._terms.items(), key=lambda t: mono_key(t[0], uni), reverse=True)

    def leading_term(self, universe: Sequence[str] | None = None) -> tuple[Mono, Rational]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        uni = tuple(universe) if universe is not None else self.variables()
        m = max(self._terms, key=lambda mo: mono_key(mo, uni))
        return m, self._terms[m]

    def divexact(self, divisor: Poly) -> Poly:
        """Exact division; raises InexactDivisionError when the quotient is not a Poly."""
        if not divisor:
            raise InexactDivisionError("division by the zero polynomial")
        if not self._terms:
            return Poly.zero()
        if len(divisor._terms) == 1:
            # a monomial (or a constant) divides term by term, with no remainder to rescan
            ((dm, dc),) = divisor._terms.items()
            out: dict[Mono, Rational] = {}
            for m, c in self._terms.items():
                qm = mono_div(m, dm)
                if qm is None:
                    raise InexactDivisionError("polynomial division is not exact")
                out[qm] = c if dc == 1 else Fraction(c) / dc
            return Poly(out)
        universe = tuple(sorted(set(self.variables()) | set(divisor.variables())))
        lt_m, lt_c = divisor.leading_term(universe)
        remainder = self
        quotient: dict[Mono, Rational] = {}
        while remainder:
            rm, rc = remainder.leading_term(universe)
            qm = mono_div(rm, lt_m)
            if qm is None:
                raise InexactDivisionError("polynomial division is not exact")
            qc = _norm_coeff(Fraction(rc) / Fraction(lt_c))
            quotient[qm] = quotient.get(qm, 0) + qc
            remainder = remainder - Poly({qm: qc}) * divisor
        return Poly(quotient)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> list[dict]:
        """Canonical JSON form: term list sorted leading-first by graded-lex."""
        return [
            {"exponents": dict(m), "coeff": _coeff_str(c)}
            for m, c in self.sorted_terms()
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: object) -> Poly:
        if not isinstance(obj, list):
            raise PolyParseError("polynomial JSON must be an array of terms")
        terms: dict[Mono, Rational] = {}
        for entry in obj:
            if not isinstance(entry, dict) or set(entry) != {"exponents", "coeff"}:
                raise PolyParseError(f"bad term entry: {entry!r}")
            exps = entry["exponents"]
            if not isinstance(exps, dict):
                raise PolyParseError("exponents must be an object")
            for v, e in exps.items():
                if v == "" or type(e) is bool:
                    raise PolyParseError(f"bad exponent entry {v!r}: {e!r}")
            try:
                mono = mono_from_exps(exps)
            except ValueError as exc:
                raise PolyParseError(str(exc)) from exc
            raw = entry["coeff"]
            # type() rather than isinstance(): a JSON true must not pass as the int 1
            if not (type(raw) is int or (isinstance(raw, str) and _COEFF_RE.fullmatch(raw))):
                raise PolyParseError(f"bad coefficient {raw!r}: need an integer or a p/q string")
            try:
                coeff = Fraction(raw)
            except ZeroDivisionError as exc:
                raise PolyParseError(f"bad coefficient {raw!r}") from exc
            if mono in terms:
                raise PolyParseError(f"duplicate monomial {dict(mono)!r}")
            terms[mono] = coeff
        return cls(terms)

    @classmethod
    def from_json(cls, text: str) -> Poly:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PolyParseError(f"invalid JSON: {exc}") from exc
        return cls.from_json_obj(obj)

    # -- display -----------------------------------------------------------

    def text_terms(self) -> list[tuple[str, Rational]]:
        """Terms leading-first as (monomial text, coeff), e.g. ("x^2*y", 3); a constant reads "1"."""
        return [(_mono_text(m) or "1", c) for m, c in self.sorted_terms()]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            text, a = _mono_text(m), abs(c)
            body = str(a) if not text else text if a == 1 else f"{a}*{text}"
            parts.append(("-" if c < 0 else "+", body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"


def _coerce(value: Poly | Rational) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    return NotImplemented


def _mono_text(m: Mono) -> str:
    """"x^2*y" for x^2 y; the empty string for the constant monomial."""
    return "*".join(f"{v}^{e}" if e > 1 else v for v, e in m)


def _coeff_str(c: Rational) -> str:
    return str(c)


def poly_sum(parts: Iterable[Poly]) -> Poly:
    """Sum many polynomials with a single normalization pass."""
    out: dict[Mono, Rational] = {}
    for p in parts:
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return Poly(out)


def elementary_symmetric(variables: Sequence[str], k: int) -> Poly:
    """The k-th elementary symmetric polynomial in the given variables (e_0 = 1)."""
    if k < 0 or k > len(variables):
        return Poly.zero()
    if k == 0:
        return Poly.one()
    terms: dict[Mono, Rational] = {}
    for combo in combinations(sorted(variables), k):
        terms[tuple((v, 1) for v in combo)] = 1
    return Poly(terms)
