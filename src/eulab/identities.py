"""The cross-module identity catalog behind ``eulab verify``.

Every identity compares two (or three) independently computed routes:
grammar iteration, recurrence tables, closed-form series, or exhaustive
enumeration.  Each check is a generator of cases ``(n, lhs, rhs, extra)``;
one runner compares the two sides of every case and turns the first mismatch
into a counterexample ``{"n", "lhs", "rhs", **extra}`` with both sides
serialized, so a red result is always reproducible.

Default ranges are sized so the whole catalog finishes in under a second of
pure Python: permutation oracles n <= 7 or 8, Stirling and tree oracles well
under 10^6 words or trees, series order <= 8.  Every check meets each range
guard of the routes it reads (an oracle's size guard, the triangle, gamma-table
and series-order bounds) at its largest n before its first case, so a PASS at
``max_n`` means every route ran every n up to it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Iterator

from . import expand, grammar, permstats, stirlingperm, trees
from .errors import EngineError, InvalidParamError, SizeLimitError, UnknownIdentityError
from .exactalg import Poly, derivation, sum_of_products
from .series import egf_build

Counterexample = dict
Case = tuple[int, object, object, dict]  # (n, lhs, rhs, extra fields of a counterexample)


@dataclass
class IdentityReport:
    name: str
    params: dict
    status: str  # "pass" | "fail" | "guard" (a size guard stopped it) | "empty" (max_n below min_n) | "error"
    counterexample: Counterexample | None
    seconds: float
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_obj(self) -> dict:
        obj = {
            "identity": self.name,
            "params": self.params,
            "status": self.status,
            "seconds": round(self.seconds, 3),
        }
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample
        if self.note is not None:
            obj["note"] = self.note
        return obj


# ---------------------------------------------------------------------------
# the runner and its helpers
# ---------------------------------------------------------------------------


def _wire(value: object) -> object:
    """One side of a case as JSON-ready data."""
    if isinstance(value, Poly):
        return json.loads(value.to_json())
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, dict):
        return sorted((_wire(key), _wire(v)) for key, v in value.items())
    return value


def _first_mismatch(cases: Iterable[Case]) -> Counterexample | None:
    """The counterexample for the first case whose sides differ, else None."""
    for n, lhs, rhs, extra in cases:
        if lhs != rhs:
            return {"n": n, "lhs": _wire(lhs), "rhs": _wire(rhs), **extra}
    return None


# ---------------------------------------------------------------------------
# individual identities; each yields its cases in increasing n
# ---------------------------------------------------------------------------


def _frobenius(max_n: int, k: int | None) -> Iterator[Case]:
    permstats.guard(max_n)
    expand.triangle_guard(max_n)
    x = Poly.var("x")
    for n in range(1, max_n + 1):
        eulerian = permstats.perm_poly(n, "eulerian")
        surjections = {(m,): expand.triangle("surjection", n, m) for m in range(1, n + 1)}
        rhs = expand.Expansion("frobenius", surjections, n=n, var="x").reconstruct()
        yield n, x * eulerian, rhs, {}
        row = Poly.from_exponents(({"x": m}, expand.triangle("eulerian", n, m)) for m in range(n + 1))
        yield n, eulerian, row, {"route": "triangle"}


def _gamma_eulerian(max_n: int, k: int | None) -> Iterator[Case]:
    permstats.guard(max_n)
    for n in range(1, max_n + 1):
        expansion = expand.gamma_expand(permstats.perm_poly(n, "eulerian"), "x", n - 1)
        counts = permstats.perm_poly(n, "gamma-eulerian-no-ddes")
        yield n, expansion.coeffs, counts.exponent_table(["x"]), {}


def _stembridge(max_n: int, k: int | None) -> Iterator[Case]:
    permstats.guard(max_n)
    for n in range(1, max_n + 1):
        lhs = permstats.perm_poly(n, "eulerian").scale(2 ** (n - 1))
        peaks = permstats.perm_poly(n, "peak").exponent_table(["x"])
        gamma = {(i,): c * 4**i for (i,), c in peaks.items()}
        rhs = expand.Expansion("gamma", gamma, n=n - 1, var="x").reconstruct()
        yield n, lhs, rhs, {}


def _trivariate_grammar(max_n: int, k: int | None) -> Iterator[Case]:
    permstats.guard(max_n + 1)
    lm = Poly.var("L") * Poly.var("M")
    for n, current in zip(range(max_n + 1), grammar.g5().iterates(lm)):
        yield n, current.divexact(lm), permstats.perm_poly(n + 1, "trivariate"), {}


def _trivariate_egf(max_n: int, k: int | None) -> Iterator[Case]:
    permstats.guard(max_n + 1)
    series = egf_build("trivariate", max_n)
    for n in range(max_n + 1):
        yield n, series.egf_coefficient(n), permstats.perm_poly(n + 1, "trivariate"), {}


def _trivariate_pde(order: int, k: int | None) -> Iterator[Case]:
    a = egf_build("trivariate", order)
    lhs, xy, y_plus_s = a.diff_z(), Poly.var("x") * Poly.var("y"), Poly.var("y") + Poly.var("s")
    for n in range(order):  # n! [z^n] of a (y + s) + (da/dx + da/dy + da/ds) xy
        h = a.egf_coefficient(n)
        yield n, lhs.egf_coefficient(n), derivation(h, {"x": xy, "y": xy, "s": xy}) + h * y_plus_s, {}


def _partial_gamma(max_n: int, k: int | None) -> Iterator[Case]:
    permstats.guard(max_n + 1)
    table = expand.gamma_tables("gamma-nij", max_n)
    for n in range(max_n + 1):
        expansion = expand.partial_gamma_expand(permstats.perm_poly(n + 1, "trivariate"), n)
        yield n, expansion.coeffs, table.values[n], {}


def _forest_gamma(max_n: int, k: int | None) -> Iterator[Case]:
    trees.guard(max_n, trees.default_spec("forest-gamma"))
    table = expand.gamma_tables("gamma-nij", max_n)
    for n in range(max_n + 1):
        got = trees.tree_weight_poly(n, "forest-gamma").exponent_table(["t", "u"])
        yield n, got, table.values[n], {}


def _convolution(max_n: int, k: int | None) -> Iterator[Case]:
    permstats.guard(max_n + 1)
    lhs = egf_build("bivariate", max_n) * egf_build("fixpoint", max_n)
    rhs = egf_build("trivariate", max_n)
    for n in range(max_n + 1):  # the EGF numerators n! [z^n]
        yield n, lhs.egf_coefficient(n), rhs.egf_coefficient(n), {"route": "egf"}
    for n in range(max_n + 1):
        direct = sum_of_products(
            (comb(n, i), permstats.perm_poly(i, "bivariate"), permstats.perm_poly(n - i, "fixpoint"))
            for i in range(n + 1)
        )
        yield n, direct, permstats.perm_poly(n + 1, "trivariate"), {"route": "enumeration"}


def _diaconis(max_n: int, k: int | None) -> Iterator[Case]:
    permstats.guard(max_n)
    for n in range(1, max_n + 1):
        by_suc, by_fix = permstats.diaconis_profile(n)
        yield n, by_suc, by_fix, {}


def _roselle(max_n: int, k: int | None) -> Iterator[Case]:
    permstats.guard(max_n)
    for n in range(2, max_n + 1):
        counts = permstats.asc_suc_counts(n)
        for r in range(n):
            for s in range(1, n):
                rhs = 0
                if r >= s:
                    rhs = comb(n - 1, s) * permstats.asc_suc_counts(n - s).get((r - s, 0), 0)
                yield n, counts.get((r, s), 0), rhs, {"r": r, "s": s}


def _gamma_xy_closed_form(order: int, k: int | None) -> Iterator[Case]:
    table = expand.gamma_tables("gamma-n-xy-poly", order)
    series = egf_build("gamma-xy", order)
    for n in range(order + 1):
        yield n, series.egf_coefficient(n), table.values[n], {}


def _second_order_grammar(max_n: int, k: int | None) -> Iterator[Case]:
    stirlingperm.guard(max_n, 2)
    g7, x = grammar.g7(), Poly.var("x")
    for n, current in zip(range(1, max_n + 1), g7.iterates(g7.derive(x))):
        enumerated = stirlingperm.trivariate_second_order(n)
        yield n, current, enumerated, {"route": "grammar-vs-enumeration"}
        univariate = enumerated.subst({"x": 1, "y": x, "z": 1})
        from_triangle = expand.second_order_poly_from_triangle(n)
        yield n, univariate, from_triangle, {"route": "univariate-vs-recurrence"}


def _chenfu_esym(max_n: int, k: int | None) -> Iterator[Case]:
    stirlingperm.guard(max_n, 2)  # the whole range first; the words outnumber the trees
    for n in range(1, max_n + 1):
        gamma_kj = trees.tree_weight_poly(n, "deghist", 3).exponent_table(["m_1", "m_2"])
        # gamma_kj[k, j] multiplies e_1^(2n+1-2j-3k) e_2^j e_3^k, the e_i taken in x, y, z
        esym = {(2 * n + 1 - 2 * j - 3 * kk, j, kk): c for (kk, j), c in gamma_kj.items()}
        rhs = expand.Expansion("esym", esym, variables=("x", "y", "z")).reconstruct()
        yield n, stirlingperm.trivariate_second_order(n), rhs, {}


def _k_range(k: int | None) -> range:
    return range(k, k + 1) if k is not None else range(1, 5)


def _kth_grammar(max_n: int, k: int | None) -> Iterator[Case]:
    for kk in _k_range(k):
        stirlingperm.guard(max_n, kk)
    for kk in _k_range(k):
        g9 = grammar.g9(kk)
        for n, current in zip(range(1, max_n + 1), g9.iterates(g9.derive(Poly.var("x_1")))):
            yield n, current, stirlingperm.kth_order_poly(n, kk), {"k": kk}


def _known_g10_forms(kk: int) -> dict[int, Poly]:
    e = lambda i: Poly.var(grammar.e_letter(i))
    forms = {}
    if kk >= 2:
        forms[4] = e(kk) ** 3 * e(kk + 1) + 8 * e(kk - 1) * e(kk) * e(kk + 1) ** 2
        forms[4] += 6 * e(kk - 2) * e(kk + 1) ** 3
    if kk >= 3:
        forms[5] = (
            e(kk) ** 4 * e(kk + 1)
            + 22 * e(kk) ** 2 * e(kk - 1) * e(kk + 1) ** 2
            + 16 * e(kk - 1) ** 2 * e(kk + 1) ** 3
            + 42 * e(kk - 2) * e(kk) * e(kk + 1) ** 3
            + 24 * e(kk - 3) * e(kk + 1) ** 4
        )
    return forms


def _mainthm_esym(max_n: int, k: int | None) -> Iterator[Case]:
    for kk in _k_range(k):
        stirlingperm.guard(max_n, kk)
    for kk in _k_range(k):
        g10 = grammar.g10(kk)
        known = _known_g10_forms(kk)
        steps = zip(range(1, max_n + 1), g10.iterates(g10.derive(Poly.var("x_1"))))
        for n, current in steps:
            if n in known:
                yield n, current, known[n], {"k": kk, "route": "closed-form"}
            expansion = expand.esym_expand(stirlingperm.kth_order_poly(n, kk), grammar.stirling_vars(kk))
            yield n, expansion.is_positive(), True, {"k": kk, "route": "e-positivity"}
            yield n, expansion.coeffs, grammar.e_exponent_table(current, kk), {"k": kk}


def _histogram_independence(max_n: int, k: int | None) -> Iterator[Case]:
    trees.guard(max_n, trees.default_spec("deghist"))  # the whole range: the largest family
    for n in range(2, max_n + 1):
        base = trees.tree_weight_poly(n, "deghist")
        for kk in (n - 2, n - 1, n):
            yield n, trees.tree_weight_poly(n, "deghist", kk + 1), base, {"k": kk}


def _gamma_closed_values(max_n: int, k: int | None) -> Iterator[Case]:
    rows = grammar.histogram_rows(max_n + 1)  # row n + 1 is read below
    for n in range(3, max_n + 1):
        key = (2, n - 3, 1) + (0,) * (n - 3)
        yield n, rows[n].get(key, 0), 2**n - 2 * n, {"key": list(key)}
    for n in range(2, max_n + 1):
        key = (n,) + (0,) * (n - 1) + (1,)
        yield n + 1, rows[n + 1].get(key, 0), factorial(n), {"key": list(key)}


def _cn2_closed_form(max_n: int, k: int | None) -> Iterator[Case]:
    expand.triangle_guard(max_n)
    for n in range(2, max_n + 1):
        yield n, expand.triangle("second-order-eulerian", n, 2), 2 ** (n + 1) - 2 * (n + 1), {}


def _final_corollary(max_n: int, k: int | None) -> Iterator[Case]:
    trees.guard(max_n, trees.default_spec("deghist"))
    rows = grammar.histogram_rows(max_n)
    for n in range(2, max_n + 1):
        want = {j: expand.triangle("second-order-eulerian", n - 1, j) for j in range(1, n)}
        for j in range(1, n):
            yield n, sum(v for key, v in rows[n].items() if key[0] == j), want[j], {"j": j}
        leaf_counts = trees.tree_weight_poly(n, "deghist").exponent_table(["m_1"])
        for j in range(1, n):
            yield n, leaf_counts.get((j,), 0), want[j], {"j": j, "route": "leaf-count"}


def _andre(max_n: int, k: int | None) -> Iterator[Case]:
    trees.guard(max_n, trees.default_spec("andre"))
    for n, current in zip(range(max_n + 1), grammar.g4().iterates(Poly.var("u"))):
        yield n, current, trees.tree_weight_poly(n, "andre"), {}


def _transform_catalog(max_n: int, k: int | None) -> Iterator[Case]:
    """Change-of-grammar checks; they do not depend on n, so every case has n = 0."""
    for name, old, defs, new, expected in grammar.transform_catalog(_k_range(k)):
        yield 0, grammar.transform_check(old, defs, new), expected, {"transform": name}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CheckFn = Callable[[int, "int | None"], Iterator[Case]]


@dataclass(frozen=True)
class _Entry:
    fn: CheckFn
    min_n: int  # smallest n the check covers; a max_n below it is an empty range
    default_max_n: int
    uses_k: bool = False


_REGISTRY: dict[str, _Entry] = {
    "frobenius": _Entry(_frobenius, 1, 8),
    "gamma-eulerian": _Entry(_gamma_eulerian, 1, 8),
    "stembridge": _Entry(_stembridge, 1, 8),
    "trivariate-grammar": _Entry(_trivariate_grammar, 0, 7),
    "trivariate-egf": _Entry(_trivariate_egf, 0, 7),
    "trivariate-pde": _Entry(_trivariate_pde, 1, 8),
    "partial-gamma": _Entry(_partial_gamma, 0, 7),
    "forest-gamma": _Entry(_forest_gamma, 0, 7),
    "convolution": _Entry(_convolution, 0, 7),
    "diaconis": _Entry(_diaconis, 1, 7),
    "roselle": _Entry(_roselle, 2, 7),
    "gamma-xy-closed-form": _Entry(_gamma_xy_closed_form, 0, 7),
    "second-order-grammar": _Entry(_second_order_grammar, 1, 6),
    "chenfu-esym": _Entry(_chenfu_esym, 1, 6),
    "kth-grammar": _Entry(_kth_grammar, 1, 5, uses_k=True),
    "mainthm-esym": _Entry(_mainthm_esym, 1, 5, uses_k=True),
    "histogram-independence": _Entry(_histogram_independence, 2, 6),
    "gamma-2n-2n": _Entry(_gamma_closed_values, 2, 8),
    "cn2-closed-form": _Entry(_cn2_closed_form, 2, 20),
    "final-corollary": _Entry(_final_corollary, 2, 7),
    "andre": _Entry(_andre, 0, 7),
    "transform-catalog": _Entry(_transform_catalog, 0, 0, uses_k=True),
}

IDENTITY_NAMES = tuple(sorted(_REGISTRY))


def verify(name: str, max_n: int | None = None, k: int | None = None) -> IdentityReport:
    """Run one catalog identity and report pass/fail with timing.

    A ``max_n`` below the identity's smallest n checks nothing, so it is
    reported with status ``"empty"``, which does not count as passed.  A size
    guard hit during the check is reported with status ``"guard"`` and the
    guard's message as the note, so the rest of a catalog run can go on.
    Any other ``EngineError`` raised while the cases run means a route broke
    a precondition of what reads it: it is reported as ``"fail"`` with no
    counterexample and the exception's type and message as the note.  Any
    other exception means the checker itself broke: it is reported as
    ``"error"``, with the same note, so the rest of a catalog run can go on.
    A ``k`` below 1, or for an identity that takes none, raises
    ``InvalidParamError`` before the check.
    """
    entry = _REGISTRY.get(name)
    if entry is None:
        raise UnknownIdentityError(f"unknown identity {name!r}; known: {', '.join(IDENTITY_NAMES)}")
    if k is not None and not entry.uses_k:
        raise InvalidParamError(f"identity {name} takes no k")
    if k is not None and k < 1:
        raise InvalidParamError(f"k must be >= 1, got {k}")
    bound = entry.default_max_n if max_n is None else max_n
    params = {"max_n": bound}
    if entry.uses_k:
        params["k"] = k
    if bound < entry.min_n:
        note = f"empty range: max_n={bound} is below the smallest n checked, {entry.min_n}"
        return IdentityReport(name, params, "empty", None, 0.0, note=note)
    start = time.perf_counter()
    try:
        counterexample = _first_mismatch(entry.fn(bound, k))
    except SizeLimitError as exc:
        return IdentityReport(name, params, "guard", None, time.perf_counter() - start, str(exc))
    except Exception as exc:
        # a route's output that broke a solver's or a table's precondition fails the
        # claim; any other exception is a broken checker, which is not a failed claim
        status = "fail" if isinstance(exc, EngineError) else "error"
        note = f"{type(exc).__name__}: {exc}"
        return IdentityReport(name, params, status, None, time.perf_counter() - start, note)
    return IdentityReport(
        name=name,
        params=params,
        status="pass" if counterexample is None else "fail",
        counterexample=counterexample,
        seconds=time.perf_counter() - start,
    )


def verify_all(max_n: int | None = None, k: int | None = None) -> list[IdentityReport]:
    """Run the whole catalog (deterministic name order); ``k`` reaches the identities that take one."""
    return [verify(name, max_n, k if _REGISTRY[name].uses_k else None) for name in IDENTITY_NAMES]
