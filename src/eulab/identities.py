"""The cross-module identity catalog behind ``eulab verify``.

Every identity compares two (or three) independently computed routes:
grammar iteration, recurrence tables, closed-form series, or exhaustive
enumeration.  A failing check reports the first counterexample with both
sides serialized, so a red result is always reproducible.

Default ranges are sized so the whole catalog finishes in a few minutes of
pure Python: permutation oracles n <= 7 or 8, Stirling oracles capped at
10^6 words, tree oracles well under 10^6 trees, series order <= 8.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable

from . import expand, grammar, permstats, stirlingperm, trees
from .errors import UnknownIdentityError
from .exactalg import Poly, poly_sum
from .series import egf_build

STIRLING_IDENTITY_GUARD = 10**6

Counterexample = dict


@dataclass
class IdentityReport:
    name: str
    params: dict
    status: str  # "pass" | "fail" | "empty" (max_n below the identity's smallest n)
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


def _cx(n: int, lhs: Poly, rhs: Poly, **extra) -> Counterexample:
    out = {"n": n, "lhs": lhs.to_json_obj(), "rhs": rhs.to_json_obj()}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# individual identities; each returns None (pass) or a counterexample dict
# ---------------------------------------------------------------------------


def _frobenius(max_n: int, k: int | None) -> Counterexample | None:
    x = Poly.var("x")
    for n in range(1, max_n + 1):
        lhs = x * permstats.perm_poly(n, "eulerian")
        rhs = poly_sum(
            permstats.triangle("surjection", n, m) * x**m * (1 - x) ** (n - m)
            for m in range(1, n + 1)
        )
        if lhs != rhs:
            return _cx(n, lhs, rhs)
    return None


def _gamma_eulerian(max_n: int, k: int | None) -> Counterexample | None:
    for n in range(1, max_n + 1):
        an = permstats.perm_poly(n, "eulerian")
        expansion = expand.gamma_expand(an, "x", n - 1)
        counts = permstats.perm_poly(n, "gamma-eulerian-no-ddes")
        got = {i: c for (i,), c in expansion.coeffs.items()}
        want = {dict(m).get("x", 0): c for m, c in counts.items()}
        if got != want:
            return {"n": n, "lhs": sorted(got.items()), "rhs": sorted(want.items())}
    return None


def _stembridge(max_n: int, k: int | None) -> Counterexample | None:
    x = Poly.var("x")
    for n in range(1, max_n + 1):
        lhs = permstats.perm_poly(n, "eulerian").scale(2 ** (n - 1))
        parts = []
        for mono, c in permstats.perm_poly(n, "peak").items():
            i = dict(mono).get("x", 0)
            parts.append(c * 4**i * x**i * (1 + x) ** (n - 1 - 2 * i))
        rhs = poly_sum(parts)
        if lhs != rhs:
            return _cx(n, lhs, rhs)
    return None


def _trivariate_grammar(max_n: int, k: int | None) -> Counterexample | None:
    g5 = grammar.g5()
    lm = Poly.var("L") * Poly.var("M")
    current = lm
    for n in range(0, max_n + 1):
        lhs = current.divexact(lm)
        rhs = permstats.perm_poly(n + 1, "trivariate")
        if lhs != rhs:
            return _cx(n, lhs, rhs)
        current = g5.derive(current)
    return None


def _trivariate_egf(max_n: int, k: int | None) -> Counterexample | None:
    series = egf_build("trivariate", max_n)
    for n in range(0, max_n + 1):
        lhs = series.egf_coefficient(n)
        rhs = permstats.perm_poly(n + 1, "trivariate")
        if lhs != rhs:
            return _cx(n, lhs, rhs)
    return None


def _trivariate_pde(order: int, k: int | None) -> Counterexample | None:
    a = egf_build("trivariate", order)
    x, y, s = Poly.var("x"), Poly.var("y"), Poly.var("s")
    lhs = a.diff_z()
    rhs = (a * (y + s) + (a.diff_var("x") + a.diff_var("y") + a.diff_var("s")) * (x * y)).truncate(
        order - 1
    )
    if lhs != rhs:
        for n in range(order):
            if lhs.coefficient(n) != rhs.coefficient(n):
                return _cx(n, lhs.coefficient(n), rhs.coefficient(n))
    return None


def _partial_gamma(max_n: int, k: int | None) -> Counterexample | None:
    table = expand.gamma_tables("gamma-nij", max_n)
    for n in range(0, max_n + 1):
        expansion = expand.partial_gamma_expand(permstats.perm_poly(n + 1, "trivariate"), n)
        got = {key: int(v) for key, v in expansion.coeffs.items()}
        want = {(i, j): v for (nn, i, j), v in table.values.items() if nn == n}
        if got != want:
            return {"n": n, "lhs": sorted(got.items()), "rhs": sorted(want.items())}
    return None


def _forest_gamma(max_n: int, k: int | None) -> Counterexample | None:
    table = expand.gamma_tables("gamma-nij", max_n)
    for n in range(0, max_n + 1):
        weights = trees.tree_weight_poly(n, "forest-gamma")
        got: dict[tuple[int, int], int] = {}
        for mono, c in weights.items():
            exps = dict(mono)
            got[(exps.get("t", 0), exps.get("u", 0))] = c
        want = {(i, j): v for (nn, i, j), v in table.values.items() if nn == n}
        if got != want:
            return {"n": n, "lhs": sorted(got.items()), "rhs": sorted(want.items())}
    return None


def _convolution(max_n: int, k: int | None) -> Counterexample | None:
    order = max_n
    lhs = egf_build("bivariate", order) * egf_build("fixpoint", order)
    rhs = egf_build("trivariate", order)
    if lhs != rhs:
        for n in range(order + 1):
            if lhs.coefficient(n) != rhs.coefficient(n):
                return _cx(n, lhs.coefficient(n), rhs.coefficient(n), route="egf")
    for n in range(0, min(max_n, 7) + 1):
        direct = poly_sum(
            comb(n, i)
            * permstats.perm_poly(i, "bivariate")
            * permstats.perm_poly(n - i, "fixpoint")
            for i in range(n + 1)
        )
        target = permstats.perm_poly(n + 1, "trivariate")
        if direct != target:
            return _cx(n, direct, target, route="enumeration")
    return None


def _diaconis(max_n: int, k: int | None) -> Counterexample | None:
    for n in range(1, max_n + 1):
        by_suc, by_fix = permstats.diaconis_profile(n)
        if by_suc != by_fix:
            diff = {
                tuple(sorted(key)): (by_suc.get(key, 0), by_fix.get(key, 0))
                for key in set(by_suc) | set(by_fix)
                if by_suc.get(key, 0) != by_fix.get(key, 0)
            }
            return {"n": n, "mismatched_sets": sorted(diff.items())}
    return None


def _roselle(max_n: int, k: int | None) -> Counterexample | None:
    for n in range(1, max_n + 1):
        counts = permstats.asc_suc_counts(n)
        for r in range(n):
            for s in range(1, n):
                lhs = counts.get((r, s), 0)
                rhs = 0
                if n - s >= 1 and r - s >= 0:
                    rhs = comb(n - 1, s) * permstats.asc_suc_counts(n - s).get((r - s, 0), 0)
                if lhs != rhs:
                    return {"n": n, "r": r, "s": s, "lhs": lhs, "rhs": rhs}
    return None


GAMMA_XY_POINTS = tuple(
    (Fraction(x0), Fraction(y0))
    for x0 in (0, 1, 2)
    for y0 in (Fraction(1), Fraction(5, 2), Fraction(13, 8))
)

GAMMA_XY_NOTE = (
    "closed form checked against the recurrence table at nine exact rational "
    "points; the one-line PDE restatement of that recurrence is dimensionally "
    "inconsistent as commonly stated, so no PDE route is implemented for it"
)


def _gamma_xy_closed_form(order: int, k: int | None) -> Counterexample | None:
    table = expand.gamma_tables("gamma-n-xy-poly", order)
    for x0, y0 in GAMMA_XY_POINTS:
        series = egf_build("gamma-xy", order, {"x": x0, "y": y0})
        for n in range(order + 1):
            lhs = series.egf_coefficient(n).constant_value()
            rhs = table.values[n].evaluate({"x": x0, "y": y0})
            if lhs != rhs:
                return {
                    "n": n,
                    "x": str(x0),
                    "y": str(y0),
                    "lhs": str(lhs),
                    "rhs": str(rhs),
                }
    return None


def _second_order_grammar(max_n: int, k: int | None) -> Counterexample | None:
    g7 = grammar.g7()
    x = Poly.var("x")
    current = x
    for n in range(1, max_n + 1):
        current = g7.derive(current)
        enumerated = stirlingperm.trivariate_second_order(n)
        if current != enumerated:
            return _cx(n, current, enumerated, route="grammar-vs-enumeration")
        univariate = enumerated.subst({"x": 1, "y": x, "z": 1})
        from_triangle = permstats.second_order_poly_from_triangle(n)
        if univariate != from_triangle:
            return _cx(n, univariate, from_triangle, route="univariate-vs-recurrence")
    return None


def _chenfu_esym(max_n: int, k: int | None) -> Counterexample | None:
    x, y, z = Poly.var("x"), Poly.var("y"), Poly.var("z")
    e1, e2, e3 = x + y + z, x * y + y * z + z * x, x * y * z
    for n in range(1, max_n + 1):
        weights = trees.tree_weight_poly(n, "chenfu-3")
        gamma_kj: dict[tuple[int, int], int] = {}
        for mono, c in weights.items():
            exps = dict(mono)
            key = (exps.get("m_1", 0), exps.get("m_2", 0))
            gamma_kj[key] = gamma_kj.get(key, 0) + c
        rhs = poly_sum(
            c * e3**kk * e2**j * e1 ** (2 * n + 1 - 2 * j - 3 * kk)
            for (kk, j), c in gamma_kj.items()
        )
        lhs = stirlingperm.trivariate_second_order(n)
        if lhs != rhs:
            return _cx(n, lhs, rhs)
    return None


def _k_range(k: int | None, k_max: int = 4) -> range:
    return range(k, k + 1) if k is not None else range(1, k_max + 1)


def _kth_grammar(max_n: int, k: int | None) -> Counterexample | None:
    for kk in _k_range(k):
        g9 = grammar.g9(kk)
        seed = Poly.var("x_1")
        current = seed
        for n in range(1, max_n + 1):
            current = g9.derive(current)
            if stirlingperm.word_count(n, kk) > STIRLING_IDENTITY_GUARD:
                break
            enumerated = stirlingperm.kth_order_poly(n, kk)
            if current != enumerated:
                return _cx(n, current, enumerated, k=kk)
    return None


def _known_g10_forms(kk: int) -> dict[int, Poly]:
    e = lambda i: Poly.var(grammar.e_letter(i))
    forms = {}
    if kk >= 2:
        forms[4] = e(kk) ** 3 * e(kk + 1) + 8 * e(kk - 1) * e(kk) * e(kk + 1) ** 2 + 6 * e(
            kk - 2
        ) * e(kk + 1) ** 3
    if kk >= 3:
        forms[5] = (
            e(kk) ** 4 * e(kk + 1)
            + 22 * e(kk) ** 2 * e(kk - 1) * e(kk + 1) ** 2
            + 16 * e(kk - 1) ** 2 * e(kk + 1) ** 3
            + 42 * e(kk - 2) * e(kk) * e(kk + 1) ** 3
            + 24 * e(kk - 3) * e(kk + 1) ** 4
        )
    return forms


def _mainthm_esym(max_n: int, k: int | None) -> Counterexample | None:
    for kk in _k_range(k):
        g10 = grammar.g10(kk)
        seed = Poly.var("x_1")
        known = _known_g10_forms(kk)
        current = seed
        for n in range(1, min(max_n, kk + 2) + 1):
            current = g10.derive(current)
            if n in known and current != known[n]:
                return _cx(n, current, known[n], k=kk, route="closed-form")
            if stirlingperm.word_count(n, kk) > STIRLING_IDENTITY_GUARD:
                continue
            expansion = expand.esym_expand(
                stirlingperm.kth_order_poly(n, kk), grammar.stirling_vars(kk)
            )
            if not expansion.is_positive():
                return {"n": n, "k": kk, "reason": "expansion not e-positive"}
            got = dict(expansion.coeffs)
            want = grammar.e_exponent_table(current, kk)
            if got != want:
                return {
                    "n": n,
                    "k": kk,
                    "lhs": sorted(got.items()),
                    "rhs": sorted(want.items()),
                }
    return None


def _histogram_independence(max_n: int, k: int | None) -> Counterexample | None:
    for n in range(2, max_n + 1):
        base = trees.tree_weight_poly(n, "deghist", None)
        for kk in (n - 2, n - 1, n):
            bounded = trees.tree_weight_poly(n, "deghist", kk + 1)
            if bounded != base:
                return _cx(n, bounded, base, k=kk)
    return None


def _gamma_closed_values(max_n: int, k: int | None) -> Counterexample | None:
    table = expand.gamma_tables("gamma-n-histogram", min(max_n + 1, expand.MAX_TABLE_N))
    for n in range(3, max_n + 1):
        row = expand.histogram_row(table, n)
        key = (2, n - 3, 1) + (0,) * (n - 3)
        if row.get(key, 0) != 2**n - 2 * n:
            return {"n": n, "key": list(key), "lhs": row.get(key, 0), "rhs": 2**n - 2 * n}
    for n in range(2, max_n + 1):
        row = expand.histogram_row(table, n + 1)
        key = (n,) + (0,) * (n - 1) + (1,)
        if row.get(key, 0) != factorial(n):
            return {"n": n + 1, "key": list(key), "lhs": row.get(key, 0), "rhs": factorial(n)}
    return None


def _cn2_closed_form(max_n: int, k: int | None) -> Counterexample | None:
    for n in range(2, max_n + 1):
        lhs = permstats.triangle("second-order-eulerian", n, 2)
        rhs = 2 ** (n + 1) - 2 * (n + 1)
        if lhs != rhs:
            return {"n": n, "lhs": lhs, "rhs": rhs}
    return None


def _final_corollary(max_n: int, k: int | None) -> Counterexample | None:
    table = expand.gamma_tables("gamma-n-histogram", max_n)
    for n in range(2, max_n + 1):
        row = expand.histogram_row(table, n)
        for j in range(1, n):
            total = sum(v for key, v in row.items() if key[0] == j)
            want = permstats.triangle("second-order-eulerian", n - 1, j)
            if total != want:
                return {"n": n, "j": j, "lhs": total, "rhs": want}
        if n <= 7:
            leaf_counts = trees.leaf_counts_plane(n)
            for j in range(1, n):
                if leaf_counts.get(j, 0) != permstats.triangle("second-order-eulerian", n - 1, j):
                    return {
                        "n": n,
                        "j": j,
                        "lhs": leaf_counts.get(j, 0),
                        "rhs": permstats.triangle("second-order-eulerian", n - 1, j),
                        "route": "leaf-count",
                    }
    return None


def _andre(max_n: int, k: int | None) -> Counterexample | None:
    g4 = grammar.g4()
    current = Poly.var("u")
    for n in range(0, max_n + 1):
        enumerated = trees.tree_weight_poly(n, "andre")
        if current != enumerated:
            return _cx(n, current, enumerated)
        current = g4.derive(current)
    return None


def _transform_catalog(max_n: int, k: int | None) -> Counterexample | None:
    k_max = k if k is not None else 4
    for name, old, defs, new, expected in grammar.transform_catalog(k_max):
        got = grammar.transform_check(old, defs, new)
        if got != expected:
            return {"transform": name, "lhs": got, "rhs": expected}
    return None


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CheckFn = Callable[[int, "int | None"], "Counterexample | None"]


@dataclass(frozen=True)
class _Entry:
    fn: CheckFn
    min_n: int  # smallest n the check covers; a max_n below it is an empty range
    default_max_n: int
    uses_k: bool = False
    note: str | None = None


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
    "roselle": _Entry(_roselle, 1, 7),
    "gamma-xy-closed-form": _Entry(_gamma_xy_closed_form, 0, 7, note=GAMMA_XY_NOTE),
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
    reported with status ``"empty"``, which does not count as passed.
    """
    entry = _REGISTRY.get(name)
    if entry is None:
        raise UnknownIdentityError(f"unknown identity {name!r}; known: {', '.join(IDENTITY_NAMES)}")
    bound = entry.default_max_n if max_n is None else max_n
    params = {"max_n": bound}
    if entry.uses_k:
        params["k"] = k
    if bound < entry.min_n:
        note = f"empty range: max_n={bound} is below the smallest n checked, {entry.min_n}"
        return IdentityReport(name, params, "empty", None, 0.0, note=note)
    start = time.perf_counter()
    counterexample = entry.fn(bound, k)
    elapsed = time.perf_counter() - start
    return IdentityReport(
        name=name,
        params=params,
        status="pass" if counterexample is None else "fail",
        counterexample=counterexample,
        seconds=elapsed,
        note=entry.note,
    )


def verify_all(max_n: int | None = None, k: int | None = None) -> list[IdentityReport]:
    """Run the whole catalog (deterministic name order)."""
    return [verify(name, max_n, k) for name in IDENTITY_NAMES]
