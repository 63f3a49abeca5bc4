"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines, or use ``eulab verify all`` for the CLI equivalent of the identity
checks.  Every comparison is exact; the time limits are wall-clock bounds
asserted after the computation.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction
from math import factorial
from time import perf_counter

import reference_walks
from eulab import expand, grammar, permstats, stirlingperm, trees
from eulab.exactalg import Poly, poly_sum
from eulab.series import Series, egf_build

x, y, s = Poly.var("x"), Poly.var("y"), Poly.var("s")
u, v, t = Poly.var("u"), Poly.var("v"), Poly.var("t")


@contextmanager
def criterion(number, label, limit_seconds):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    elapsed = perf_counter() - start
    assert elapsed < limit_seconds, f"{label} took {elapsed:.1f}s (limit {limit_seconds}s)"
    print(f"ACCEPTANCE {number:02d} {label}: PASS ({elapsed:.2f}s, limit {limit_seconds:.0f}s)")


def test_01_trivariate_table():
    with criterion(1, "trivariate table n<=5", 1.0):
        expected = {
            0: Poly.one(),
            1: Poly.one(),
            2: s + y,
            3: (s + y) ** 2 + 2 * x * y,
            4: (s + y) ** 3 + 6 * x * y * (s + y) + 2 * x * y * (x + y),
            5: (s + y) ** 4
            + 12 * x * y * (s + y) ** 2
            + 8 * x * y * (s + y) * (x + y)
            + 2 * x * y * (x + y) ** 2
            + 16 * x**2 * y**2,
        }
        for n, value in expected.items():
            assert permstats.perm_poly(n, "trivariate") == value, n


def test_02_three_route_agreement():
    with criterion(2, "three-route agreement n<=7", 60.0):
        g5 = grammar.g5()
        lm = Poly.var("L") * Poly.var("M")
        series = egf_build("trivariate", 7)
        current = lm
        for n in range(8):
            enumerated = permstats.perm_poly(n + 1, "trivariate")
            assert current.divexact(lm) == enumerated, ("grammar", n)
            assert series.egf_coefficient(n) == enumerated, ("egf", n)
            current = g5.derive(current)


def test_03_gamma_table_vs_forests():
    with criterion(3, "gamma table matches forests n<=7", 60.0):
        table = expand.gamma_tables("gamma-nij", 7)
        for n in range(8):
            got = {}
            for mono, c in trees.tree_weight_poly(n, "forest-gamma").items():
                exps = dict(mono)
                got[(exps.get("t", 0), exps.get("u", 0))] = c
            assert got == table.values[n], n


def test_04_frobenius():
    with criterion(4, "Frobenius expansion n<=8", 30.0):
        for n in range(1, 9):
            lhs = x * permstats.perm_poly(n, "eulerian")
            rhs = poly_sum(
                expand.triangle("surjection", n, k) * x**k * (1 - x) ** (n - k)
                for k in range(1, n + 1)
            )
            assert lhs == rhs, n


def test_05_gamma_positivity_interpretations():
    with criterion(5, "gamma interpretations n<=8", 60.0):
        for n in range(1, 9):
            a = permstats.perm_poly(n, "eulerian")
            expansion = expand.gamma_expand(a, "x", n - 1)
            counts = permstats.perm_poly(n, "gamma-eulerian-no-ddes")
            assert {i: c for (i,), c in expansion.coeffs.items()} == {
                dict(m).get("x", 0): c for m, c in counts.items()
            }, n
            lhs = a.scale(2 ** (n - 1))
            parts = []
            for mono, c in permstats.perm_poly(n, "peak").items():
                i = dict(mono).get("x", 0)
                parts.append(c * 4**i * x**i * (1 + x) ** (n - 1 - 2 * i))
            assert lhs == poly_sum(parts), n


def test_06_diaconis_profiles():
    with criterion(6, "Diaconis profiles n<=7", 30.0):
        for n in range(1, 8):
            by_suc, by_fix = permstats.diaconis_profile(n)
            assert by_suc == by_fix, n


def test_07_second_order_table_and_chenfu():
    with criterion(7, "second-order table and three-variable expansion n<=6", 60.0):
        c5 = stirlingperm.kth_order_poly(5, 2).subst({"x_1": 1, "x_2": x, "x_3": 1})
        assert c5 == x + 52 * x**2 + 328 * x**3 + 444 * x**4 + 120 * x**5
        xv, yv, zv = Poly.var("x"), Poly.var("y"), Poly.var("z")
        e1, e2, e3 = xv + yv + zv, xv * yv + yv * zv + zv * xv, xv * yv * zv
        for n in range(1, 7):
            weights = trees.tree_weight_poly(n, "deghist", 3)
            gamma_kj = {}
            for mono, c in weights.items():
                exps = dict(mono)
                key = (exps.get("m_1", 0), exps.get("m_2", 0))
                gamma_kj[key] = gamma_kj.get(key, 0) + c
            rhs = poly_sum(
                c * e3**kk * e2**j * e1 ** (2 * n + 1 - 2 * j - 3 * kk)
                for (kk, j), c in gamma_kj.items()
            )
            assert stirlingperm.trivariate_second_order(n) == rhs, n


def test_08_kth_order_routes():
    with criterion(8, "k-th order grammar and e-expansion k<=4", 120.0):
        for k in range(1, 5):
            g9 = grammar.g9(k)
            g10 = grammar.g10(k)
            seed = Poly.var("x_1")
            for n in range(1, min(k + 2, 5) + 1):
                enumerated = stirlingperm.kth_order_poly(n, k)
                assert g9.iterate(seed, n) == enumerated, ("G9", k, n)
                expansion = expand.esym_expand(enumerated, grammar.stirling_vars(k))
                assert expansion.is_positive(), (k, n)
                assert dict(expansion.coeffs) == grammar.e_exponent_table(
                    g10.iterate(seed, n), k
                ), ("G10", k, n)
        # known closed forms of the fourth and fifth iterates in the e-alphabet
        for k in range(2, 5):
            e = [Poly.var(f"e_{i}") for i in range(k + 2)]
            got4 = grammar.g10(k).iterate(Poly.var("x_1"), 4)
            assert got4 == e[k] ** 3 * e[k + 1] + 8 * e[k - 1] * e[k] * e[k + 1] ** 2 + 6 * e[
                k - 2
            ] * e[k + 1] ** 3, k
        for k in range(3, 5):
            e = [Poly.var(f"e_{i}") for i in range(k + 2)]
            got5 = grammar.g10(k).iterate(Poly.var("x_1"), 5)
            assert got5 == (
                e[k] ** 4 * e[k + 1]
                + 22 * e[k] ** 2 * e[k - 1] * e[k + 1] ** 2
                + 16 * e[k - 1] ** 2 * e[k + 1] ** 3
                + 42 * e[k - 2] * e[k] * e[k + 1] ** 3
                + 24 * e[k - 3] * e[k + 1] ** 4
            ), k


def test_09_closed_form_gamma_values():
    with criterion(9, "closed-form gamma and second-order values", 60.0):
        rows = grammar.histogram_rows(9)
        for n in range(3, 9):
            row = rows[n]
            assert row[(2, n - 3, 1) + (0,) * (n - 3)] == 2**n - 2 * n, n
        for n in range(2, 9):
            row = rows[n + 1]
            key = (n,) + (0,) * (n - 1) + (1,)
            assert row[key] == factorial(n), n
        for n in range(2, 21):
            assert expand.triangle("second-order-eulerian", n, 2) == 2 ** (n + 1) - 2 * (n + 1)
        for n in range(2, 8):
            row = rows[n]
            for j in range(1, n):
                total = sum(c for key, c in row.items() if key[0] == j)
                assert total == expand.triangle("second-order-eulerian", n - 1, j), (n, j)


def test_10_egf_suite():
    with criterion(10, "EGF suite at order 7", 30.0):
        order = 7
        assert egf_build("bivariate", order) * egf_build("fixpoint", order) == egf_build(
            "trivariate", order
        )
        a = egf_build("trivariate", order)
        gradient = Series([c.diff("x") + c.diff("y") + c.diff("s") for c in a.coeffs])
        rhs = a * (s + y) + gradient * (x * y)
        assert a.diff_z() == rhs.truncate(order - 1)
        assert egf_build("no-succession", order + 1) == egf_build("derangement", order + 1)
        table = expand.gamma_tables("gamma-n-xy-poly", order)
        for x0 in (0, 1, 2):
            for y0 in (Fraction(1), Fraction(5, 2), Fraction(13, 8)):
                series = egf_build("gamma-xy", order, {"x": x0, "y": y0})
                for n in range(order + 1):
                    assert series.egf_coefficient(n).constant_value() == table.values[n].evaluate(
                        {"x": x0, "y": y0}
                    ), (n, x0, y0)


def _random_poly(rng, variables=("x", "y", "s")):
    p = Poly.zero()
    for _ in range(rng.randint(0, 4)):
        exps = {w: rng.randint(0, 3) for w in variables}
        p = p + Poly.monomial(exps, rng.randint(-6, 6))
    return p


def test_11_property_suites():
    with criterion(11, "property suites", 120.0):
        rng = random.Random(0xE01AB)
        g5 = grammar.g5()
        for _ in range(60):
            p, q, r = (_random_poly(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
            for w in ("x", "y"):
                assert (p * q).diff(w) == p.diff(w) * q + p * q.diff(w)
            assert g5.derive(p * q) == g5.derive(p) * q + p * g5.derive(q)
        # round trips of all four expansions
        for n in range(1, 8):
            a = permstats.perm_poly(n, "eulerian")
            assert expand.gamma_expand(a, "x", n - 1).reconstruct() == a
            assert expand.frobenius_expand(x * a, "x", n).reconstruct() == x * a
            f = permstats.perm_poly(n + 1, "trivariate")
            assert expand.partial_gamma_expand(f, n).reconstruct() == f
        for k in (2, 3):
            for n in range(1, 5):
                f = stirlingperm.kth_order_poly(n, k)
                assert expand.esym_expand(f, grammar.stirling_vars(k)).reconstruct() == f
        # tree-family deduplication
        for spec in (
            trees.FamilySpec("nonplane", 2),
            trees.FamilySpec("plane", 2),
            trees.FamilySpec("plane", 3),
            trees.FamilySpec("forest012"),
        ):
            for n in range(spec.root, 7):
                seen = set()
                for tree in reference_walks.trees_gen(n, spec):
                    key = tree.canonical()
                    assert key not in seen
                    seen.add(key)
                assert len(seen) == sum(trees._walk(n, spec).values())
        # statistic identities, exhaustive small cases
        for n in range(1, 8):
            for p in itertools.permutations(range(1, n + 1)):
                st = reference_walks.perm_stats(p)
                assert st.asc == st.suc + st.basc
                assert st.asc + st.des == n - 1
        for n, k in ((4, 2), (3, 3), (2, 4), (5, 1)):
            for w in reference_walks.gen(n, k):
                st = reference_walks.word_stats(w, k)
                assert st.asc + st.des + st.plat == k * n + 1
