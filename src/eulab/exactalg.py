"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a mapping from monomials to exact rational coefficients;
coefficients are ``int`` or ``Fraction`` (integers are kept as ``int`` as an
unobservable fast path).  The zero polynomial has no terms.  All arithmetic is
exact; there is no floating point anywhere in this package.

A monomial is one packed ``int`` (Monagan and Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  Each
variable owns a field of ``_FIELD_BITS`` bits: the exponent in the low bits
and one guard bit on top, so an exponent is at most ``MAX_EXPONENT``.  A
process-wide, append-only registry gives each variable name its field in the
order names are first seen.  A monomial product is then one integer add, and
``a`` divides ``b`` exactly when ``(b | guard) - a`` keeps every guard bit.
A product, power or substitution whose exponent passes ``MAX_EXPONENT`` sets
a guard bit and raises ``SizeLimitError``; it never wraps into the next field.
A sum of products (``sum_of_products``, which ``*`` uses too) and a derivation
(``derivation``) add every term into one dict and check the guard once.

The packed format is private to this module: no other module of the package
builds or takes one apart.  They read a polynomial as an exponent table
(``Poly.exponent_table``: exponent vectors of named letters to summed
coefficients), build one from exponent mappings (``Poly.from_exponents``)
and print its monomials through ``Poly.text_terms``.  ``Poly.items`` and
``Poly.sorted_terms`` decode monomials into ``((name, exponent), ...)``
tuples sorted by name (the tests' tuple-kernel reference reads them).

Monomials are ordered graded-lexicographically over sorted variable names,
whatever the registry order, which fixes a canonical serialization and a
leading-term notion used by the exact division routine.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .errors import InexactDivisionError, InvalidParamError, PolyParseError, SizeLimitError

Rational = Union[int, Fraction]

#: A decoded monomial: ((var, exp), ...) sorted by var, every exp > 0.
Mono = tuple[tuple[str, int], ...]

#: Bits per variable in a packed monomial: the exponent, then one guard bit.
_FIELD_BITS = 16
#: The largest exponent a monomial holds; it is also the exponent mask of a field.
MAX_EXPONENT = (1 << (_FIELD_BITS - 1)) - 1

#: The registry: a variable's bit offset, the names by field, and every field's guard bit.
_SHIFT: dict[str, int] = {}
_NAMES: list[str] = []
_GUARD = 0

#: The exact coefficient strings of the wire form: an integer or p/q.
_COEFF_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _shift(name: str) -> int:
    """The bit offset of ``name``'s field, registering the name on first sight."""
    s = _SHIFT.get(name)
    if s is None:
        if type(name) is not str or not name:  # the wire form could not name it
            raise InvalidParamError(f"a variable name must be a non-empty str, got {name!r}")
        global _GUARD
        s = len(_NAMES) * _FIELD_BITS
        _SHIFT[name] = s
        _NAMES.append(name)
        _GUARD |= 1 << (s + _FIELD_BITS - 1)
    return s


def _encode(exps: Mapping[str, int]) -> int:
    """Pack an exponent mapping (zeros dropped); InvalidParamError off the monomial rule builders and reader share."""
    m = 0
    for v, e in exps.items():
        # type() rather than isinstance(): True must not pass as the int 1
        if v == "" or type(e) is not int or not 0 <= e <= MAX_EXPONENT:
            raise InvalidParamError(f"bad exponent entry {v!r}: {e!r} (the limit is {MAX_EXPONENT})")
        if e:
            m |= e << _shift(v)
    return m


def _decode(m: int) -> Mono:
    pairs = []
    field = 0
    while m:
        e = m & MAX_EXPONENT
        if e:
            pairs.append((_NAMES[field], e))
        m >>= _FIELD_BITS
        field += 1
    pairs.sort()
    return tuple(pairs)


def _degree(m: int) -> int:
    d = 0
    while m:
        d += m & MAX_EXPONENT
        m >>= _FIELD_BITS
    return d


def _grlex_key(names: Sequence[str]) -> Callable[[int], tuple]:
    """Graded-lex sort key of a packed monomial whose letters are among the sorted ``names``: degree, then exponents."""
    shifts = [_shift(v) for v in names]

    def key(m: int) -> tuple:
        exps = tuple([m >> s & MAX_EXPONENT for s in shifts])
        return (sum(exps), exps)

    return key


def _mono_div(a: int, b: int) -> int:
    """a / b; InexactDivisionError unless b divides a."""
    q = (a | _GUARD) - b  # a field borrows, and so clears its guard bit, iff b's exponent is larger
    if q & _GUARD != _GUARD:
        raise InexactDivisionError("polynomial division is not exact")
    return q ^ _GUARD


def _guarded(terms: dict[int, Rational]) -> dict[int, Rational]:
    """The terms of a product, unless an exponent carried into a guard bit."""
    if reduce(or_, terms, 0) & _GUARD:
        raise SizeLimitError(f"exponent guard: a product has an exponent above {MAX_EXPONENT}")
    return terms


#: The coefficient type that needs no normalizing.
_INT = frozenset([int])


def _norm_coeff(c: Rational) -> Rational:
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, int):
        return c
    raise InvalidParamError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class Poly:
    """Immutable exact sparse polynomial over Q with named variables.

    ``Poly(terms)`` takes packed monomials; outside this module build with
    ``var``, ``monomial``, ``from_exponents`` or ``from_json``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Rational] | None = None):
        clean = {m: c for m, c in terms.items() if c} if terms else {}
        if not _INT.issuperset(map(type, clean.values())):
            clean = {m: _norm_coeff(c) for m, c in clean.items()}
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def one(cls) -> Poly:
        return cls({0: 1})

    @classmethod
    def const(cls, c: Rational) -> Poly:
        return cls({0: c})

    @classmethod
    def var(cls, name: str) -> Poly:
        return cls({1 << _shift(name): 1})

    @classmethod
    def monomial(cls, exps: Mapping[str, int], coeff: Rational = 1) -> Poly:
        return cls({_encode(exps): coeff})

    @classmethod
    def from_exponents(cls, pairs: Iterable[tuple[Mapping[str, int], Rational]]) -> Poly:
        """Sum of coeff * prod v^e over (exponent mapping, coeff) pairs; equal monomials add up."""
        out: dict[int, Rational] = {}
        for exps, c in pairs:
            m = _encode(exps)
            out[m] = out.get(m, 0) + c
        return cls(out)

    # -- introspection -----------------------------------------------------

    def items(self) -> Iterator[tuple[Mono, Rational]]:
        """The terms with decoded monomials, in storage order."""
        return ((_decode(m), c) for m, c in self._terms.items())

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in _decode(reduce(or_, self._terms, 0)))

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(_degree(m) for m in self._terms)

    def degree_in(self, var: str) -> int:
        s = _shift(var)
        return max((m >> s & MAX_EXPONENT for m in self._terms), default=0)

    def coefficient(self, exps: Mapping[str, int]) -> Rational:
        """Coefficient of the given monomial (0 if absent)."""
        return self._terms.get(_encode(exps), 0)

    def exponent_table(self, letters: Sequence[str]) -> dict[tuple[int, ...], Rational]:
        """Coefficients summed by the exponents of ``letters``, zero sums dropped.

        A letter a monomial lacks reads exponent 0; letters not listed are
        summed over, as if set to 1.
        """
        shifts = [_shift(v) for v in letters]
        out: dict[tuple[int, ...], Rational] = {}
        for m, c in self._terms.items():
            key = tuple([m >> s & MAX_EXPONENT for s in shifts])
            out[key] = out.get(key, 0) + c
        return {key: c for key, c in out.items() if c}

    def constant_term(self) -> Rational:
        return self._terms.get(0, 0)

    def constant_value(self) -> Rational:
        """The value of a constant polynomial; raises if any variable occurs."""
        if any(self._terms):
            raise InvalidParamError("polynomial is not constant")
        return self._terms.get(0, 0)

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
        return sum_of_products(((1, self, other),))

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
            raise InvalidParamError("exponent must be a nonnegative integer")
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
        s = _shift(var)
        unit = 1 << s
        # m -> m - unit is one-to-one, so no two terms meet
        return Poly({m - unit: c * e for m, c in self._terms.items() if (e := m >> s & MAX_EXPONENT)})

    def subst(self, mapping: Mapping[str, Poly | Rational]) -> Poly:
        """Simultaneous substitution; unmapped variables are left in place."""
        # in name order, as each monomial reads; a constant image just scales the coefficient
        images: list[tuple[int, Poly]] = []
        scalars: list[tuple[int, Rational]] = []
        for v, img in sorted(mapping.items(), key=lambda item: item[0]):
            (images if isinstance(img, Poly) else scalars).append((_shift(v), img))
        power_cache: dict[tuple[int, int], Poly] = {}

        # every term goes into one dict: adding Polys would copy the running total per term
        out: dict[int, Rational] = {}
        for m, c in self._terms.items():
            rest = m
            for s, val in scalars:
                e = m >> s & MAX_EXPONENT
                if e:
                    c *= val**e
                    rest -= e << s
            if not c:
                continue
            image: Poly | None = None
            for s, img in images:
                e = m >> s & MAX_EXPONENT
                if e:
                    power = power_cache.get((s, e))
                    if power is None:
                        power = power_cache[s, e] = img**e
                    image = power if image is None else image * power
                    rest -= e << s
            if image is None:
                out[rest] = out.get(rest, 0) + c
                continue
            for im, ic in image._terms.items():
                nm = im + rest
                out[nm] = out.get(nm, 0) + ic * c
        return Poly(_guarded(out))

    def evaluate(self, assign: Mapping[str, Rational]) -> Rational:
        """Evaluate at an exact rational point (all variables must be bound)."""
        for v in self.variables():
            if v not in assign:
                raise InvalidParamError(f"no value bound for variable {v!r}")
        return self.subst(assign).constant_value()

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
            raise InvalidParamError("variables must be distinct")
        terms = self._terms
        for a, b in zip(vs, vs[1:]):
            sa, sb = _shift(a), _shift(b)
            for m, c in terms.items():
                ea, eb = m >> sa & MAX_EXPONENT, m >> sb & MAX_EXPONENT
                if ea != eb and terms.get(m + ((eb - ea) << sa) + ((ea - eb) << sb)) != c:
                    return False
        return True

    def coeffs_in(self, var: str) -> list[Rational]:
        """Dense coefficient list of a polynomial univariate in ``var``."""
        extra = [v for v in self.variables() if v != var]
        if extra:
            raise InvalidParamError(f"polynomial is not univariate in {var!r} (also uses {extra})")
        s = _shift(var)
        out: list[Rational] = [0] * (self.degree_in(var) + 1)
        for m, c in self._terms.items():
            out[m >> s] = c
        return out

    # -- ordering, division ------------------------------------------------

    def sorted_terms(self) -> list[tuple[Mono, Rational]]:
        """Terms sorted descending by graded-lex order (leading term first)."""
        key = _grlex_key(self.variables())
        return [(_decode(m), c) for m, c in sorted(self._terms.items(), key=lambda t: key(t[0]), reverse=True)]

    def divexact(self, divisor: Poly) -> Poly:
        """Exact division; raises InexactDivisionError when the quotient is not a Poly."""
        if not divisor:
            raise InexactDivisionError("division by the zero polynomial")
        if not self._terms:
            return Poly.zero()
        if len(divisor._terms) == 1:
            # a monomial (or a constant) divides term by term, with no remainder to rescan
            ((dm, dc),) = divisor._terms.items()
            return Poly({_mono_div(m, dm): c if dc == 1 else Fraction(c) / dc for m, c in self._terms.items()})
        key = _grlex_key(sorted(set(self.variables()) | set(divisor.variables())))
        lt_m = max(divisor._terms, key=key)
        lt_c = Fraction(divisor._terms[lt_m])
        rest = [(m, c) for m, c in divisor._terms.items() if m != lt_m]
        remainder = dict(self._terms)  # the leading term cancels; the rest of qc * divisor is subtracted in place
        quotient: dict[int, Rational] = {}
        while remainder:
            rm = max(remainder, key=key)
            qm, qc = _mono_div(rm, lt_m), _norm_coeff(remainder.pop(rm) / lt_c)
            quotient[qm] = qc  # leading monomials strictly fall, so each qm is new
            for m, c in _guarded({qm + dm: qc * dc for dm, dc in rest}).items():
                c = remainder.pop(m, 0) - c
                if c:
                    remainder[m] = c
        return Poly(quotient)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON text: the terms leading-first by graded-lex, each
        ``{"coeff":"p/q","exponents":{name:e,...}}`` with sorted keys and no spaces."""
        names = self.variables()
        fields = [(_SHIFT[v], json.dumps(v) + ":") for v in names]  # each name's JSON text once
        key = _grlex_key(names)
        out = []
        with writer_guard():
            for m in sorted(self._terms, key=key, reverse=True):
                exps = ",".join([f + str(e) for s, f in fields if (e := m >> s & MAX_EXPONENT)])
                out.append(f'{{"coeff":"{self._terms[m]}","exponents":{{{exps}}}}}')
        return "[" + ",".join(out) + "]"

    @classmethod
    def from_json_obj(cls, obj: object) -> Poly:
        if not isinstance(obj, list):
            raise PolyParseError("polynomial JSON must be an array of terms")
        terms: dict[int, Rational] = {}
        for entry in obj:
            if not isinstance(entry, dict) or entry.keys() != {"exponents", "coeff"}:
                raise PolyParseError(f"bad term entry: {entry!r}")
            exps = entry["exponents"]
            if not isinstance(exps, dict):
                raise PolyParseError("exponents must be an object")
            try:
                mono = _encode(exps)
            except InvalidParamError as exc:
                raise PolyParseError(str(exc)) from exc
            raw = entry["coeff"]
            if type(raw) is not int:
                if not (isinstance(raw, str) and _COEFF_RE.fullmatch(raw)):
                    raise PolyParseError(f"bad coefficient {raw!r}: need an integer or a p/q string")
                try:
                    raw = Fraction(raw) if "/" in raw else int(raw)
                except (ValueError, ZeroDivisionError) as exc:  # a zero denominator, or past the digit limit
                    raise PolyParseError(f"bad coefficient {raw[:40]!r}: {exc}") from exc
            if mono in terms:
                raise PolyParseError(f"duplicate monomial {dict(_decode(mono))!r}")
            terms[mono] = raw
        return cls(terms)

    @classmethod
    def from_json(cls, text: str) -> Poly:
        try:
            obj = json.loads(text)
        except ValueError as exc:  # malformed JSON, or an integer past the digit limit
            raise PolyParseError(f"invalid JSON: {exc}") from exc
        return cls.from_json_obj(obj)

    # -- display -----------------------------------------------------------

    def text_terms(self) -> list[tuple[str, Rational]]:
        """Terms leading-first as (monomial text, coeff), e.g. ("x^2*y", 3); a constant reads "1"."""
        return [(_mono_text(m) or "1", c) for m, c in self.sorted_terms()]

    def __repr__(self) -> str:
        return f"Poly({self.to_json()})"


@contextmanager
def writer_guard() -> Iterator[None]:
    """Refuse with ``PolyParseError``, as the reader does, a coefficient whose text CPython will not write."""
    try:
        yield
    except ValueError as exc:  # str() of an int past the digit limit
        raise PolyParseError("a coefficient has more than 4300 digits, the limit on integer text") from exc


def _coerce(value: Poly | Rational) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    return NotImplemented


def _mono_text(m: Mono) -> str:
    """"x^2*y" for x^2 y; the empty string for the constant monomial."""
    return "*".join(f"{v}^{e}" if e > 1 else v for v, e in m)


def poly_sum(parts: Iterable[Poly]) -> Poly:
    """Sum many polynomials with a single normalization pass."""
    out: dict[int, Rational] = {}
    for p in parts:
        for m, c in p._terms.items():
            out[m] = out.get(m, 0) + c
    return Poly(out)


def sum_of_products(triples: Iterable[tuple[Rational, Poly, Poly]]) -> Poly:
    """The sum of c * a * b over (c, a, b) triples, every term accumulated in one dict.

    The guard reads every accumulated monomial, those whose coefficients cancel too,
    so it raises exactly when some product a * b would.
    """
    out: dict[int, Rational] = {}
    get = out.get
    for c, a, b in triples:
        bterms = b._terms.items()
        for ma, ca in a._terms.items():
            if c != 1:
                ca *= c
            for mb, cb in bterms:
                m = ma + mb
                out[m] = get(m, 0) + ca * cb
    return Poly(_guarded(out))


def derivation(p: Poly, images: Mapping[str, Poly]) -> Poly:
    """The sum of images[v] * dp/dv over the letters v, every term accumulated in one dict.

    Guarded as ``sum_of_products``: it raises exactly when some images[v] * dp/dv would.
    """
    out: dict[int, Rational] = {}
    get = out.get
    terms = p._terms.items()
    for v, image in images.items():
        s = _shift(v)
        unit = 1 << s
        # the terms of dp/dv: m -> m - unit is one-to-one, so no two terms meet
        dp = [(m - unit, c * e) for m, c in terms if (e := m >> s & MAX_EXPONENT)]
        for mi, ci in image._terms.items():
            for m, c in dp:
                k = m + mi
                out[k] = get(k, 0) + c * ci
    return Poly(_guarded(out))


def elementary_symmetric(variables: Sequence[str], k: int) -> Poly:
    """The k-th elementary symmetric polynomial in the given variables (e_0 = 1)."""
    if k < 0 or k > len(variables):
        return Poly.zero()
    if k == 0:
        return Poly.one()
    units = [1 << _shift(v) for v in sorted(variables)]
    return Poly({sum(combo): 1 for combo in combinations(units, k)})
