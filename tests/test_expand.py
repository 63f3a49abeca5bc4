from fractions import Fraction
from math import factorial

import pytest

from eulab.errors import (
    NotExpandableError,
    NotPalindromicError,
    NotSymmetricError,
    OutOfRangeError,
)
from eulab.exactalg import Poly
from eulab.expand import (
    esym_expand,
    frobenius_expand,
    gamma_expand,
    gamma_tables,
    histogram_row,
    partial_gamma_expand,
)
from eulab.grammar import e_exponent_table, g10, stirling_vars
from eulab.permstats import perm_poly, perms, stats, triangle
from eulab.series import egf_build
from eulab.stirlingperm import kth_order_poly

x, y, s = Poly.var("x"), Poly.var("y"), Poly.var("s")


class TestGammaExpand:
    def test_three_letter_eulerian(self):
        # oracle: permutations of [3] without double descents, by descents
        free = {}
        for p in perms(3):
            st = stats(p)
            if st.ddes == 0:
                free[st.des] = free.get(st.des, 0) + 1
        assert free == {0: 1, 1: 2}
        expansion = gamma_expand(perm_poly(3, "eulerian"), "x", 2)
        assert expansion.coeffs == {(0,): 1, (1,): 2}

    def test_pure_binomial(self):
        expansion = gamma_expand((1 + x) ** 4, "x", 4)
        assert expansion.coeffs == {(0,): 1}

    def test_four_letter_eulerian(self):
        expansion = gamma_expand(perm_poly(4, "eulerian"), "x", 3)
        assert expansion.coeffs == {(0,): 1, (1,): 8}

    def test_round_trip(self):
        for n in range(1, 9):
            a = perm_poly(n, "eulerian")
            expansion = gamma_expand(a, "x", n - 1)
            assert expansion.reconstruct() == a

    def test_not_palindromic(self):
        with pytest.raises(NotPalindromicError):
            gamma_expand(1 + 2 * x, "x", 1)


class TestFrobeniusExpand:
    def test_three_letters(self):
        expansion = frobenius_expand(x * perm_poly(3, "eulerian"), "x", 3)
        assert expansion.coeffs == {(1,): 1, (2,): 6, (3,): 6}

    def test_single_letter(self):
        expansion = frobenius_expand(x, "x", 1)
        assert expansion.coeffs == {(1,): 1}

    def test_four_letters_from_triangle(self):
        # oracle: k! S(4,k) with S(4,2) = 7, S(4,3) = 6
        assert triangle("stirling2", 4, 2) == 7
        assert triangle("stirling2", 4, 3) == 6
        expansion = frobenius_expand(x * perm_poly(4, "eulerian"), "x", 4)
        assert expansion.coeffs == {(1,): 1, (2,): 14, (3,): 36, (4,): 24}

    def test_round_trip_and_triangle_agreement(self):
        for n in range(1, 9):
            f = x * perm_poly(n, "eulerian")
            expansion = frobenius_expand(f, "x", n)
            assert expansion.reconstruct() == f
            assert expansion.coeffs == {
                (k,): triangle("surjection", n, k) for k in range(1, n + 1)
            }

    def test_nonzero_constant_rejected(self):
        with pytest.raises(NotExpandableError):
            frobenius_expand(1 + x, "x", 1)


class TestPartialGammaExpand:
    def test_four_letters(self):
        expansion = partial_gamma_expand(perm_poly(4, "trivariate"), 3)
        assert expansion.coeffs == {(3, 0): 1, (1, 1): 3, (0, 1): 1}

    def test_trivial(self):
        expansion = partial_gamma_expand(perm_poly(1, "trivariate"), 0)
        assert expansion.coeffs == {(0, 0): 1}

    def test_five_letters(self):
        expansion = partial_gamma_expand(perm_poly(5, "trivariate"), 4)
        assert expansion.coeffs == {
            (4, 0): 1,
            (2, 1): 6,
            (1, 1): 4,
            (0, 1): 1,
            (0, 2): 4,
        }

    def test_round_trip(self):
        for n in range(8):
            f = perm_poly(n + 1, "trivariate")
            assert partial_gamma_expand(f, n).reconstruct() == f

    def test_asymmetric_slice_rejected(self):
        with pytest.raises(NotExpandableError):
            partial_gamma_expand(x**2 + x * y, 2)

    def test_nonzero_residual_rejected(self):
        with pytest.raises(NotExpandableError):
            partial_gamma_expand(x**2 + y**2, 1)

    def test_t_degree_above_n_rejected(self):
        # (s+y)^2 is the single slice t^2; s^2 alone would stop at its asymmetric t^0 slice
        with pytest.raises(NotExpandableError, match="t-degree 2 exceeds n=1"):
            partial_gamma_expand((s + y) ** 2, 1)

    def test_specialization_collapses_to_gamma_basis(self):
        # setting y = 1 then s = x must reproduce the one-variable expansion
        for n in range(1, 8):
            expansion = partial_gamma_expand(perm_poly(n + 1, "trivariate"), n)
            collapsed = {}
            for (i, j), c in expansion.coeffs.items():
                collapsed[j] = collapsed.get(j, Poly.zero()) + c * (1 + x) ** i * 2**j * (
                    1 + x
                ) ** (n - i - 2 * j)
            total = Poly.zero()
            for j, weight in collapsed.items():
                total = total + weight * x**j
            assert total == perm_poly(n + 1, "eulerian")


class TestEsymExpand:
    def test_order_two(self):
        expansion = esym_expand(kth_order_poly(2, 2), stirling_vars(2))
        assert expansion.coeffs == {(0, 1, 1): 1}
        assert expansion.is_positive()

    def test_identity_on_basis_element(self):
        e1 = Poly.var("a") + Poly.var("b")
        expansion = esym_expand(e1, ("a", "b"))
        assert expansion.coeffs == {(1, 0): 1}

    def test_order_four(self):
        expansion = esym_expand(kth_order_poly(4, 2), stirling_vars(2))
        assert expansion.coeffs == {(0, 3, 1): 1, (1, 1, 2): 8, (0, 0, 3): 6}

    def test_round_trip(self):
        for k in (2, 3):
            for n in range(1, 5):
                f = kth_order_poly(n, k)
                expansion = esym_expand(f, stirling_vars(k))
                assert expansion.reconstruct() == f
                assert expansion.is_positive()

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            esym_expand(x + 2 * y, ("x", "y"))
        with pytest.raises(NotSymmetricError):
            esym_expand(x + Poly.var("q"), ("x", "y"))

    def test_agrees_with_e_alphabet_iteration(self):
        # inactive-bound range: k >= n - 2, up to k = 5 and n = 6
        for k in range(1, 6):
            grammar = g10(k)
            p = Poly.var("x_1")
            for n in range(1, 7):
                p = grammar.derive(p)
                if k < n - 2:
                    continue
                expansion = esym_expand(kth_order_poly(n, k), stirling_vars(k))
                assert expansion.is_positive(), (k, n)
                assert dict(expansion.coeffs) == e_exponent_table(p, k), (k, n)


class TestRandomizedRecovery:
    """Coefficients planted in a basis must be recovered exactly."""

    def test_gamma_recovery(self):
        import random

        rng = random.Random(101)
        v = Poly.var("x")
        for _ in range(30):
            n = rng.randint(0, 9)
            planted = {k: rng.randint(0, 9) for k in range(n // 2 + 1)}
            f = Poly.zero()
            for k, c in planted.items():
                f = f + c * v**k * (1 + v) ** (n - 2 * k)
            got = gamma_expand(f, "x", n).coeffs
            assert got == {(k,): c for k, c in planted.items() if c}

    def test_frobenius_recovery(self):
        import random

        rng = random.Random(202)
        v = Poly.var("x")
        for _ in range(30):
            n = rng.randint(1, 9)
            planted = {k: rng.randint(-9, 9) for k in range(1, n + 1)}
            f = Poly.zero()
            for k, c in planted.items():
                f = f + c * v**k * (1 - v) ** (n - k)
            got = frobenius_expand(f, "x", n).coeffs
            assert got == {(k,): c for k, c in planted.items() if c}

    def test_partial_gamma_recovery(self):
        import random

        rng = random.Random(303)
        for _ in range(20):
            n = rng.randint(0, 6)
            f = Poly.zero()
            planted = {}
            for i in range(n + 1):
                for j in range((n - i) // 2 + 1):
                    c = rng.randint(0, 4)
                    if c:
                        planted[(i, j)] = c
                        f = f + c * (s + y) ** i * (2 * x * y) ** j * (x + y) ** (n - i - 2 * j)
            got = partial_gamma_expand(f, n).coeffs
            assert got == planted

    def test_esym_recovery(self):
        import random
        from eulab.exactalg import elementary_symmetric

        rng = random.Random(404)
        variables = ("x_1", "x_2", "x_3")
        for _ in range(20):
            planted = {}
            f = Poly.zero()
            for _ in range(rng.randint(0, 4)):
                b = tuple(rng.randint(0, 2) for _ in variables)
                c = rng.randint(-5, 5)
                if c == 0 or b in planted:
                    continue
                planted[b] = c
                term = Poly.const(c)
                for i, bi in enumerate(b, start=1):
                    term = term * elementary_symmetric(variables, i) ** bi
                f = f + term
            got = esym_expand(f, variables).coeffs
            combined = {}
            for b, c in planted.items():
                combined[b] = combined.get(b, 0) + c
            assert got == {b: c for b, c in combined.items() if c}


class TestGammaTables:
    def test_nij_small_entries(self):
        table = gamma_tables("gamma-nij", 4)
        assert table.values[(2, 0, 1)] == 1
        assert table.values[(2, 2, 0)] == 1
        assert table.values[(4, 0, 2)] == 4

    def test_nij_matches_partial_gamma(self):
        table = gamma_tables("gamma-nij", 7)
        for n in range(8):
            expansion = partial_gamma_expand(perm_poly(n + 1, "trivariate"), n)
            want = {(i, j): c for (nn, i, j), c in table.values.items() if nn == n}
            assert {k: int(c) for k, c in expansion.coeffs.items()} == want

    def test_histogram_entries(self):
        table = gamma_tables("gamma-n-histogram", 5)
        assert table.values[(4, 2, 1, 1, 0)] == 8
        assert table.values[(3, 2, 0, 1)] == 2
        assert histogram_row(table, 2) == {(1, 1): 1}

    def test_histogram_closed_forms(self):
        table = gamma_tables("gamma-n-histogram", 9)
        for n in range(3, 9):
            row = histogram_row(table, n)
            assert row[(2, n - 3, 1) + (0,) * (n - 3)] == 2**n - 2 * n
        for n in range(2, 9):
            row = histogram_row(table, n + 1)
            assert row[(n,) + (0,) * (n - 1) + (1,)] == factorial(n)

    def test_histogram_matches_grammar_exponents(self):
        table = gamma_tables("gamma-n-histogram", 5)
        k = 4
        grammar = g10(k)
        p = Poly.var("x_1")
        for n in range(1, 6):
            p = grammar.derive(p)
            exps = e_exponent_table(p, k)
            row = histogram_row(table, n)
            rebuilt = {}
            for key, c in exps.items():
                hist = tuple(key[k - j + 1] for j in range(1, n + 1))
                rebuilt[hist] = int(c)
            assert rebuilt == row

    def test_xy_poly_matches_nij(self):
        xy = gamma_tables("gamma-n-xy-poly", 8)
        nij = gamma_tables("gamma-nij", 8)
        for n in range(9):
            expected = Poly.zero()
            for (nn, i, j), c in nij.values.items():
                if nn == n:
                    expected = expected + c * x**i * y**j
            assert xy.values[n] == expected

    def test_xy_poly_matches_closed_form_at_sample_points(self):
        order = 7
        table = gamma_tables("gamma-n-xy-poly", order)
        for x0 in (0, 1, 2):
            for y0 in (Fraction(1), Fraction(5, 2), Fraction(13, 8)):
                series = egf_build("gamma-xy", order, {"x": x0, "y": y0})
                for n in range(order + 1):
                    lhs = series.egf_coefficient(n).constant_value()
                    rhs = table.values[n].evaluate({"x": x0, "y": y0})
                    assert lhs == rhs, (n, x0, y0)

    def test_guard(self):
        with pytest.raises(OutOfRangeError):
            gamma_tables("gamma-nij", 13)
        with pytest.raises(ValueError):
            gamma_tables("nope", 3)
