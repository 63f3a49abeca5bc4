import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

import eulab
from conftest import polys
from eulab import expand, permstats, stirlingperm, trees
from eulab.errors import EngineError, InvalidParamError, OutOfRangeError
from eulab.exactalg import Poly, poly_sum
from eulab.grammar import (
    MAX_HISTOGRAM_N,
    Grammar,
    _check_histogram_entry,
    catalog,
    e_exponent_table,
    g1,
    g3,
    g4,
    g5,
    g6,
    g7,
    g9,
    g10,
    histogram_rows,
    stirling_vars,
    symmetric_expansion_map,
    transform_catalog,
    transform_check,
)

x, y, s, u, v, t = (Poly.var(c) for c in "xysuvt")
L, M, I = Poly.var("L"), Poly.var("M"), Poly.var("I")

GRAMMAR_NAMES = [f"G{i}" for i in range(1, 9)] + [f"G{j}:{k}" for j in (9, 10) for k in range(1, 5)]

#: counts the derivatives taken by ``verify transform-catalog`` in a fresh interpreter
DERIVE_COUNT_SCRIPT = """
from eulab import grammar, identities
calls = []
derive = grammar.Grammar.derive
grammar.Grammar.derive = lambda self, p: calls.append(p) or derive(self, p)
assert identities.verify("transform-catalog").passed
print(len(calls))
"""


def derive_term_by_term(g, p):
    """D_G by the Leibniz rule, one monomial and one letter at a time."""
    parts = []
    for mono, coeff in p.items():
        for i, (letter, e) in enumerate(mono):
            rule = g.rules.get(letter)
            if rule is None:
                continue
            if e == 1:
                rest = mono[:i] + mono[i + 1 :]
            else:
                rest = mono[:i] + ((letter, e - 1),) + mono[i + 1 :]
            parts.append(rule * Poly.monomial(dict(rest), coeff * e))
    return poly_sum(parts)


def letters(g):
    """The rule letters of a grammar and every letter its rules use."""
    return tuple(sorted(set(g.rules).union(*(rule.variables() for rule in g.rules.values()))))


@st.composite
def grammar_and_poly(draw):
    g = catalog(draw(st.sampled_from(GRAMMAR_NAMES)))
    return g, draw(polys(variables=letters(g), max_terms=4, max_exp=2))


class TestDerive:
    def test_eulerian_grammar_step(self):
        assert g1().derive(x) == x * y

    def test_constant_derives_to_zero(self):
        for g in (g1(), g5(), g9(2)):
            assert not g.derive(Poly.const(5))

    def test_marker_product_step(self):
        assert g5().derive(L * M) == L * M * (s + y)

    def test_iterate_zero_times(self):
        seed = x**2 + y
        assert g1().iterate(seed, 0) == seed

    def test_iterate_negative_rejected(self):
        with pytest.raises(InvalidParamError):
            g1().iterate(x, -1)

    def test_iterates_derives_only_when_asked(self, monkeypatch):
        calls = []
        derive = Grammar.derive
        monkeypatch.setattr(Grammar, "derive", lambda self, p: calls.append(p) or derive(self, p))
        steps = list(itertools.islice(g5().iterates(L * M), 4))
        assert len(calls) == 3
        assert steps == [L * M, L * M * (s + y)] + [g5().iterate(L * M, n) for n in (2, 3)]
        assert len(calls) == 3 + 2 + 3

    @given(polys(), polys())
    def test_derivation_satisfies_leibniz(self, p, q):
        g = g5()
        assert g.derive(p * q) == g.derive(p) * q + p * g.derive(q)

    @given(grammar_and_poly())
    def test_derive_equals_term_by_term_leibniz(self, case):
        g, p = case
        assert g.derive(p) == derive_term_by_term(g, p)


class TestIterate:
    def test_partial_gamma_grammar_cube(self):
        assert g6().iterate(I, 3) == I * (t**3 + 3 * t * u + u * v)

    def test_e_alphabet_fourth_power(self):
        for k in range(3, 5):
            e = [Poly.var(f"e_{i}") for i in range(k + 2)]
            got = g10(k).iterate(Poly.var("x_1"), 4)
            expected = (
                e[k] ** 3 * e[k + 1]
                + 8 * e[k - 1] * e[k] * e[k + 1] ** 2
                + 6 * e[k - 2] * e[k + 1] ** 3
            )
            assert got == expected, k

    def test_eulerian_iterate_matches_descent_counts(self):
        # oracle first: descent distribution of S_3 is 1, 4, 1
        counts = {}
        for p in itertools.permutations(range(1, 4)):
            d = sum(1 for i in range(2) if p[i] > p[i + 1])
            counts[d] = counts.get(d, 0) + 1
        assert counts == {0: 1, 1: 4, 2: 1}
        expected = x * sum(
            (counts[k] * x**k * y ** (3 - k) for k in range(3)), Poly.zero()
        )
        assert g1().iterate(x, 3) == expected


class TestTransformChecks:
    def test_catalog_entries_have_expected_outcomes(self):
        for name, old, defs, new, expected in transform_catalog(range(1, 5)):
            assert transform_check(old, defs, new) == expected, name

    def test_plane_vs_nonplane_insertion_multiplicity(self):
        # u=xy pairs with v -> 2u; u=2xy pairs with v -> u; crossing them fails
        assert transform_check(g1(), {"u": x * y, "v": x + y}, catalog("G2"))
        assert not transform_check(g1(), {"u": x * y, "v": x + y}, g4())

    def test_wrong_map_fails(self):
        assert not transform_check(g7(), {"u": x, "v": y, "w": x * y}, catalog("G8"))

    def test_work_does_not_depend_on_the_hash_seed(self):
        """``verify transform-catalog`` takes as many derivatives under any PYTHONHASHSEED."""
        src = str(Path(eulab.__file__).resolve().parents[1])
        counts = [
            subprocess.run(
                [sys.executable, "-c", DERIVE_COUNT_SCRIPT],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert counts[0] == counts[1]


class TestCrossRoutes:
    def test_eulerian_triangle_route(self):
        for n in range(1, 8):
            expected = x * sum(
                (
                    expand.triangle("eulerian", n, k) * x**k * y ** (n - k)
                    for k in range(n)
                ),
                Poly.zero(),
            )
            assert g1().iterate(x, n) == expected

    def test_surjection_triangle_route(self):
        for n in range(1, 8):
            expected = (u + x) * sum(
                (
                    expand.triangle("surjection", n, k) * x**k * u ** (n - k)
                    for k in range(1, n + 1)
                ),
                Poly.zero(),
            )
            assert g3().iterate(x, n) == expected

    def test_andre_route(self):
        for n in range(8):
            assert g4().iterate(u, n) == trees.tree_weight_poly(n, "andre")

    def test_marker_grammar_vs_enumeration(self):
        lm = L * M
        current = lm
        for n in range(8):
            assert current.divexact(lm) == permstats.perm_poly(n + 1, "trivariate")
            current = g5().derive(current)

    def test_substitution_coherence_partial_gamma(self):
        mapping = {"I": L * M, "t": s + y, "u": 2 * x * y, "v": x + y}
        for n in range(9):
            assert g6().iterate(I, n).subst(mapping) == g5().iterate(L * M, n)

    def test_second_order_route(self):
        for n in range(1, 7):
            assert g7().iterate(x, n) == stirlingperm.trivariate_second_order(n)

    def test_stirling_grammar_route(self):
        for k in range(1, 5):
            for n in range(1, 7):
                if stirlingperm.word_count(n, k) > 10**6:
                    continue
                assert g9(k).iterate(Poly.var("x_1"), n) == stirlingperm.kth_order_poly(n, k)

    def test_symmetric_transformation_coherence(self):
        for k in range(1, 5):
            mapping = symmetric_expansion_map(k)
            for n in range(k + 3):
                lhs = g10(k).iterate(Poly.var("x_1"), n).subst(mapping)
                rhs = g9(k).iterate(Poly.var("x_1"), n)
                assert lhs == rhs, (k, n)


class TestHistogramRows:
    def test_histogram_entries(self):
        rows = histogram_rows(5)
        assert rows[4][(2, 1, 1, 0)] == 8
        assert rows[3][(2, 0, 1)] == 2
        assert rows[2] == {(1, 1): 1}

    def test_histogram_matches_grammar_exponents(self):
        """Row n read off G10:k equals the table's row for every k >= n - 1, so the rows
        do not depend on the k they are read at."""
        rows = histogram_rows(MAX_HISTOGRAM_N)
        for k in range(1, MAX_HISTOGRAM_N):
            grammar = g10(k)
            p = Poly.var("x_1")
            for n in range(1, k + 2):
                p = grammar.derive(p)
                exps = e_exponent_table(p, k)
                rebuilt = {}
                for key, c in exps.items():
                    hist = tuple(key[k - j + 1] for j in range(1, n + 1))
                    rebuilt[hist] = int(c)
                assert rebuilt == rows[n], (k, n)

    @pytest.mark.parametrize(
        "n, hist, coeff, message",
        [
            (2, (1, 1), 0, "not a positive int"),
            (2, (1, 1), Fraction(1, 2), "not a positive int"),
            (3, (2, 0, 0), 1, "does not sum to 3"),
            (3, (0, 3, 0), 1, "i_1 out of range"),
            (3, (1, 0, 2), 1, "i_n must be 0 or 1"),
            (4, (2, 1, 0, 1), 1, "i_n = 1 forces i_1 = n - 1"),
        ],
    )
    def test_histogram_entry_off_shape_is_an_engine_error(self, n, hist, coeff, message):
        _check_histogram_entry(3, (2, 0, 1), 2)
        with pytest.raises(EngineError, match=message):
            _check_histogram_entry(n, hist, coeff)

    def test_rows_do_not_depend_on_n_max(self):
        """Rows up to n_max are rows 0..n_max, each equal to that row of the largest table."""
        largest = histogram_rows(MAX_HISTOGRAM_N)
        for n_max in range(MAX_HISTOGRAM_N + 1):
            rows = histogram_rows(n_max)
            assert len(rows) == n_max + 1
            assert rows == largest[: n_max + 1], n_max

    def test_guard(self):
        with pytest.raises(OutOfRangeError, match=r"table guard: need 0 <= n_max <= 12"):
            histogram_rows(MAX_HISTOGRAM_N + 1)
        with pytest.raises(OutOfRangeError):
            histogram_rows(-1)


class TestCatalogLookup:
    def test_names(self):
        assert catalog("G1").rules.keys() == {"x", "y"}
        assert catalog("G9:3").rules.keys() == set(stirling_vars(3))
        assert "e_4" in catalog("G10:3").rules

    def test_bad_names(self):
        with pytest.raises(InvalidParamError):
            catalog("G11")
        with pytest.raises(InvalidParamError):
            catalog("G9:x")

    def test_e_exponent_table_rejects_foreign_letters(self):
        with pytest.raises(InvalidParamError):
            e_exponent_table(x + 1, 2)
