"""The tuple-monomial kernel that ``Poly`` ran before monomials were packed, kept as a test reference.

A monomial is a tuple of ``(name, exponent)`` pairs sorted by name, zero
exponents never stored: the form ``Poly.items()`` and ``Poly.sorted_terms()``
decode to.  A polynomial here is a dict of such monomials to nonzero
coefficients, so ``dict(p.items())`` is directly comparable.  Nothing bounds an
exponent, so a result that ``Poly`` must refuse shows up as an exponent above
``MAX_EXPONENT`` (see ``max_exponent``).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping, Sequence

from eulab.errors import InexactDivisionError

Mono = tuple[tuple[str, int], ...]
Terms = dict[Mono, object]


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


def max_exponent(terms: Terms) -> int:
    return max((e for m in terms for _, e in m), default=0)


def _clean(terms: Terms) -> Terms:
    out = {}
    for m, c in terms.items():
        if isinstance(c, Fraction) and c.denominator == 1:
            c = int(c)
        if c:
            out[m] = c
    return out


def add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return _clean(out)


def mul(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return _clean(out)


def power(a: Terms, n: int) -> Terms:
    result: Terms = {(): 1}
    for _ in range(n):
        result = mul(result, a)
    return result


def diff(a: Terms, var: str) -> Terms:
    out: Terms = {}
    for m, c in a.items():
        for i, (v, e) in enumerate(m):
            if v == var:
                nm = m[:i] + m[i + 1 :] if e == 1 else m[:i] + ((v, e - 1),) + m[i + 1 :]
                out[nm] = out.get(nm, 0) + c * e
                break
    return _clean(out)


def subst(a: Terms, mapping: Mapping[str, Terms]) -> Terms:
    """Simultaneous substitution of term dicts for names; unmapped names stay."""
    out: Terms = {}
    for m, c in a.items():
        image: Terms = {(): c}
        for v, e in m:
            image = mul(image, power(mapping[v], e) if v in mapping else {((v, e),): 1})
        out = add(out, image)
    return out


def variables(a: Terms) -> tuple[str, ...]:
    return tuple(sorted({v for m in a for v, _ in m}))


def sorted_terms(a: Terms, universe: Sequence[str] | None = None) -> list[tuple[Mono, object]]:
    uni = tuple(universe) if universe is not None else variables(a)
    return sorted(a.items(), key=lambda t: mono_key(t[0], uni), reverse=True)


def divexact(a: Terms, b: Terms) -> Terms:
    """Leading-term division; InexactDivisionError when a leading monomial does not divide."""
    if len(b) == 1:
        ((bm, bc),) = b.items()
        out: Terms = {}
        for m, c in a.items():
            qm = mono_div(m, bm)
            if qm is None:
                raise InexactDivisionError("polynomial division is not exact")
            out[qm] = Fraction(c) / bc
        return _clean(out)
    universe = tuple(sorted(set(variables(a)) | set(variables(b))))
    lt_m, lt_c = sorted_terms(b, universe)[0]
    remainder, quotient = a, {}
    while remainder:
        rm, rc = sorted_terms(remainder, universe)[0]
        qm = mono_div(rm, lt_m)
        if qm is None:
            raise InexactDivisionError("polynomial division is not exact")
        qc = Fraction(rc) / lt_c
        quotient = add(quotient, {qm: qc})
        remainder = add(remainder, mul({qm: -qc}, b))
    return quotient


def is_symmetric(a: Terms, names: Sequence[str]) -> bool:
    for x, y in zip(names, names[1:]):
        for m, c in a.items():
            exps = dict(m)
            ex, ey = exps.pop(x, 0), exps.pop(y, 0)
            if ey:
                exps[x] = ey
            if ex:
                exps[y] = ex
            if a.get(tuple(sorted(exps.items()))) != c:
                return False
    return True


def exponent_table(a: Terms, letters: Sequence[str]) -> dict[tuple[int, ...], object]:
    out: dict[tuple[int, ...], object] = {}
    for m, c in a.items():
        exps = dict(m)
        key = tuple(exps.get(v, 0) for v in letters)
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def to_json(a: Terms) -> str:
    obj = [{"exponents": dict(m), "coeff": str(c)} for m, c in sorted_terms(a)]
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
