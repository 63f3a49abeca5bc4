"""Context-free grammar calculus: formal derivatives driven by substitution rules.

A grammar maps letters to polynomials; its formal derivative acts on any
polynomial by linearity and the Leibniz rule, with unlisted letters treated
as constants.  The catalog below collects the ten grammars used throughout
the engine; G9 and G10 are parameterized by the Stirling multiplicity k.

In G10 the symbols e_0..e_{k+1} are opaque letters (e_0 is an inert letter
with derivative zero); they are only expanded into genuine elementary
symmetric polynomials by the explicit substitution built by
symmetric_expansion_map().  The gamma-histogram rows gamma(n; i_1..i_n) are
read off G10 iteration (``histogram_rows``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import EngineError, InvalidParamError, OutOfRangeError
from .exactalg import Poly, Rational, derivation, elementary_symmetric


class Grammar(NamedTuple):
    """Substitution rules letter -> Poly; letters without a rule derive to 0."""

    rules: Mapping[str, Poly]

    def derive(self, p: Poly) -> Poly:
        """One application of the formal derivative D_G: the sum of rule(v) * dp/dv (Leibniz)."""
        return derivation(p, self.rules)

    def iterates(self, seed: Poly) -> Iterator[Poly]:
        """seed, D_G(seed), D_G^2(seed), ...; each derivative is taken only when asked for."""
        while True:
            yield seed
            seed = self.derive(seed)

    def iterate(self, seed: Poly, n: int) -> Poly:
        """n-fold derivative D_G^n(seed); n = 0 returns the seed."""
        if n < 0:
            raise InvalidParamError("iteration count must be >= 0")
        return next(islice(self.iterates(seed), n, None))


def transform_check(old: Grammar, defs: Mapping[str, Poly], new: Grammar) -> bool:
    """Does the new grammar commute with the change of variables?

    For every new letter u with definition defs[u] (a polynomial in the old
    letters), the rule image of u substituted through defs must equal the
    old derivative of defs[u].  Letters of the new grammar without a rule
    are constants and must have derivative zero under the old grammar.
    """
    zero = Poly.zero()
    for u in sorted(defs.keys() | new.rules.keys()):  # in name order, whatever the hash seed
        definition = defs.get(u)
        if definition is None:
            # a rule letter with no definition cannot be checked
            return False
        image = new.rules.get(u, zero)
        if image.subst(defs) != old.derive(definition):
            return False
    return True


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

_x, _y, _z, _s = Poly.var("x"), Poly.var("y"), Poly.var("z"), Poly.var("s")
_u, _v, _w, _t = Poly.var("u"), Poly.var("v"), Poly.var("w"), Poly.var("t")
_L, _M, _I = Poly.var("L"), Poly.var("M"), Poly.var("I")


def g1() -> Grammar:
    """Eulerian grammar {x -> xy, y -> xy}."""
    return Grammar({"x": _x * _y, "y": _x * _y})


def g2() -> Grammar:
    """gamma-basis transform of g1: {u -> uv, v -> 2u} with u=xy, v=x+y."""
    return Grammar({"u": _u * _v, "v": 2 * _u})


def g3() -> Grammar:
    """Surjection grammar {x -> x(u+x), u -> 0} with u=y-x."""
    return Grammar({"x": _x * (_u + _x), "u": Poly.zero()})


def g4() -> Grammar:
    """Andre-polynomial grammar {u -> uv, v -> u} with u=2xy, v=x+y."""
    return Grammar({"u": _u * _v, "v": _u})


def g5() -> Grammar:
    """Trivariate Eulerian grammar {L -> Ly, M -> Ms, s -> xy, x -> xy, y -> xy}."""
    xy = _x * _y
    return Grammar({"L": _L * _y, "M": _M * _s, "s": xy, "x": xy, "y": xy})


def g6() -> Grammar:
    """Partial-gamma transform of g5: {I -> It, t -> u, u -> uv, v -> u}."""
    return Grammar({"I": _I * _t, "t": _u, "u": _u * _v, "v": _u})


def g7() -> Grammar:
    """Second-order Eulerian grammar {x -> xyz, y -> xyz, z -> xyz}."""
    xyz = _x * _y * _z
    return Grammar({"x": xyz, "y": xyz, "z": xyz})


def g8() -> Grammar:
    """Symmetric transform of g7: {u -> 3w, v -> 2uw, w -> vw}."""
    return Grammar({"u": 3 * _w, "v": 2 * _u * _w, "w": _v * _w})


def stirling_vars(k: int) -> tuple[str, ...]:
    """The letters x_1..x_{k+1}."""
    return tuple(f"x_{i}" for i in range(1, k + 2))


def e_letter(i: int) -> str:
    return f"e_{i}"


def g9(k: int) -> Grammar:
    """k-Stirling grammar: every x_i derives to the full product x_1...x_{k+1}."""
    if k < 1:
        raise InvalidParamError("k must be >= 1")
    vs = stirling_vars(k)
    product = Poly.monomial(dict.fromkeys(vs, 1))
    return Grammar({v: product for v in vs})


def g10(k: int) -> Grammar:
    """e-alphabet transform of g9: x_1 -> e_{k+1}, e_i -> (k-i+2) e_{i-1} e_{k+1}.

    The rule for e_i is defined for 1 <= i <= k+1 only; e_0 is an inert
    letter (derivative zero) that the expansion map later sends to 1.
    """
    if k < 1:
        raise InvalidParamError("k must be >= 1")
    top = Poly.var(e_letter(k + 1))
    rules: dict[str, Poly] = {"x_1": top}
    for i in range(1, k + 2):
        rules[e_letter(i)] = (k - i + 2) * Poly.var(e_letter(i - 1)) * top
    return Grammar(rules)


def symmetric_expansion_map(k: int) -> dict[str, Poly]:
    """Substitution sending each e_i letter to the elementary symmetric Poly.

    Covers e_0..e_{k+1} over x_1..x_{k+1} (e_0 -> 1) and keeps x_1 fixed, so
    it can be applied directly to any G10 output.
    """
    vs = stirling_vars(k)
    out: dict[str, Poly] = {"x_1": Poly.var("x_1")}
    for i in range(0, k + 2):
        out[e_letter(i)] = elementary_symmetric(vs, i)
    return out


def e_exponent_table(p: Poly, k: int) -> dict[tuple[int, ...], Rational]:
    """Read a polynomial in the letters e_0..e_{k+1} as an exponent table.

    Keys are exponent vectors (b_1, ..., b_{k+1}) of e_1..e_{k+1}; the inert
    letter e_0 is folded to 1 (its exponent dropped).  Raises InvalidParamError on
    any letter outside the e-alphabet.
    """
    stray = set(p.variables()) - {e_letter(i) for i in range(0, k + 2)}
    if stray:
        raise InvalidParamError(f"letters {sorted(stray)} are not in the e-alphabet for k={k}")
    return p.exponent_table([e_letter(i) for i in range(1, k + 2)])


MAX_HISTOGRAM_N = 12


def histogram_rows(n_max: int) -> tuple[dict[tuple[int, ...], int], ...]:
    """Rows 0..n_max of gamma(n; i_1..i_n); refused past ``MAX_HISTOGRAM_N``.  Row 0 is {}."""
    if not 0 <= n_max <= MAX_HISTOGRAM_N:
        raise OutOfRangeError(f"table guard: need 0 <= n_max <= {MAX_HISTOGRAM_N}")
    return _histogram_rows()[: n_max + 1]


@lru_cache(maxsize=None)
def _histogram_rows() -> tuple[dict[tuple[int, ...], int], ...]:
    """Rows gamma(n; i_1..i_n) for n <= MAX_HISTOGRAM_N, read off one G10 iteration.

    Iterating with k = MAX_HISTOGRAM_N - 1 keeps every e-index in range (the smallest
    index reached in row n is k - n + 2 >= 1).  The entries do not depend on k
    once k >= n - 2, but i_n, the exponent of e_{k-n+2}, is read only at k >= n - 1,
    so every table is a prefix of these rows.
    """
    rows: list[dict[tuple[int, ...], int]] = [{}]
    k = MAX_HISTOGRAM_N - 1
    for n, p in islice(enumerate(g10(k).iterates(Poly.var("x_1"))), 1, MAX_HISTOGRAM_N + 1):
        row = {}
        for exps, coeff in e_exponent_table(p, k).items():
            # exponent of e_{k-j+2} is i_j;  exps is indexed by e_1..e_{k+1}
            hist = tuple(exps[k - j + 1] for j in range(1, n + 1))
            _check_histogram_entry(n, hist, coeff)
            row[hist] = int(coeff)
        rows.append(row)
    return tuple(rows)


def _check_histogram_entry(n: int, hist: tuple[int, ...], coeff: Rational) -> None:
    """Raise ``EngineError`` unless gamma(n; hist) = coeff has the shape the theorem gives."""
    if coeff != int(coeff) or coeff <= 0:
        raise EngineError(f"histogram entry gamma({n};{hist}) = {coeff} is not a positive int")
    if sum(hist) != n:
        raise EngineError(f"histogram row gamma({n};{hist}) does not sum to {n}")
    if n >= 2:
        if not 1 <= hist[0] <= n - 1:
            raise EngineError(f"gamma({n};{hist}): i_1 out of range")
        if hist[-1] not in (0, 1):
            raise EngineError(f"gamma({n};{hist}): i_n must be 0 or 1")
        if hist[-1] == 1 and hist[0] != n - 1:
            raise EngineError(f"gamma({n};{hist}): i_n = 1 forces i_1 = n - 1")


def catalog(name: str) -> Grammar:
    """Look up a grammar by its catalog identifier: G1..G8, G9:k, G10:k."""
    fixed = {"G1": g1, "G2": g2, "G3": g3, "G4": g4, "G5": g5, "G6": g6, "G7": g7, "G8": g8}
    if name in fixed:
        return fixed[name]()
    for prefix, builder in (("G9:", g9), ("G10:", g10)):
        if name.startswith(prefix):
            try:
                k = int(name[len(prefix) :])
            except ValueError:
                raise InvalidParamError(f"bad multiplicity in grammar name {name!r}") from None
            return builder(k)
    raise InvalidParamError(f"unknown grammar {name!r}")


def transform_catalog(ks: Iterable[int]) -> list[tuple[str, Grammar, dict[str, Poly], Grammar, bool]]:
    """The change-of-grammar pairs with their expected outcomes, G9:k -> G10:k for each k in ``ks``.

    Includes one deliberately mismatched pair (g1 with u=xy against g4,
    which belongs to u=2xy) as a negative control.
    """
    entries: list[tuple[str, Grammar, dict[str, Poly], Grammar, bool]] = [
        ("G1->G2", g1(), {"u": _x * _y, "v": _x + _y}, g2(), True),
        ("G1->G3", g1(), {"x": _x, "u": _y - _x}, g3(), True),
        ("G1->G4", g1(), {"u": 2 * _x * _y, "v": _x + _y}, g4(), True),
        ("G5->G6", g5(), {"I": _L * _M, "t": _s + _y, "u": 2 * _x * _y, "v": _x + _y}, g6(), True),
        (
            "G7->G8",
            g7(),
            {"u": _x + _y + _z, "v": _x * _y + _y * _z + _z * _x, "w": _x * _y * _z},
            g8(),
            True,
        ),
        ("G1->G4-mismatch", g1(), {"u": _x * _y, "v": _x + _y}, g4(), False),
    ]
    for k in ks:
        entries.append((f"G9:{k}->G10:{k}", g9(k), symmetric_expansion_map(k), g10(k), True))
    return entries
