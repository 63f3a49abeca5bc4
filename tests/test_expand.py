from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import coefficients
from eulab.errors import (
    InvalidParamError,
    NotExpandableError,
    NotPalindromicError,
    NotSymmetricError,
    OutOfRangeError,
)
from eulab.exactalg import Poly, elementary_symmetric, poly_sum
from eulab.expand import (
    MAX_TABLE_N,
    TABLE_KINDS,
    _dominated,
    _e_coefficient,
    esym_expand,
    frobenius_expand,
    gamma_expand,
    gamma_tables,
    partial_gamma_expand,
    triangle,
)
from eulab.grammar import e_exponent_table, g10, histogram_rows, stirling_vars
from eulab.permstats import perm_poly
from eulab.series import egf_build
from eulab.stirlingperm import kth_order_poly
from reference_walks import perm_stats as stats

x, y, s = Poly.var("x"), Poly.var("y"), Poly.var("s")


# The polynomial peel loops that the coefficient peels replaced, kept as references:
# each step builds the basis polynomial and subtracts it from the residual.


def gamma_peel_reference(f, var, n):
    v, residual, out = Poly.var(var), f, {}
    for k in range(n // 2 + 1):
        c = residual.coefficient({var: k})
        if c:
            out[(k,)] = c
            residual = residual - c * v**k * (1 + v) ** (n - 2 * k)
    assert not residual
    return out


def frobenius_peel_reference(f, var, n):
    v, residual, out = Poly.var(var), f, {}
    for k in range(1, n + 1):
        c = residual.coefficient({var: k})
        if c:
            out[(k,)] = c
            residual = residual - c * v**k * (1 - v) ** (n - k)
    assert not residual
    return out


def e_power(variables, b):
    """e_1^b_1 ... e_m^b_m in the given variables."""
    term = Poly.one()
    for i, bi in enumerate(b, start=1):
        term = term * elementary_symmetric(variables, i) ** bi
    return term


def esym_peel_reference(f, variables):
    """Leading-term reduction that multiplies out c e_1^b_1 ... e_m^b_m at every step."""
    m = len(variables)
    residual, out = f, {}
    while residual:
        table = residual.exponent_table(variables)
        a = max(table, key=lambda vec: (sum(vec), vec))
        c = table[a]
        b = tuple(a[i] - a[i + 1] for i in range(m - 1)) + (a[m - 1],)
        out[b] = out.get(b, 0) + c
        residual = residual - c * e_power(variables, b)
    return out


class TestGammaExpand:
    def test_three_letter_eulerian(self):
        # oracle: permutations of [3] without double descents, by descents
        free = {}
        for p in permutations(range(1, 4)):
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

    def test_reads_one_letter_up_to_degree_n(self):
        assert gamma_expand(x, "x", 2).coeffs == {(1,): 1}  # [0, 1] is compared padded, as [0, 1, 0]
        with pytest.raises(InvalidParamError, match="not univariate"):
            gamma_expand(x + y, "x", 1)
        with pytest.raises(NotExpandableError, match="degree 2 exceeds n=1"):
            gamma_expand(1 + 4 * x + x**2, "x", 1)


class TestFrobeniusExpand:
    def test_three_letters(self):
        expansion = frobenius_expand(x * perm_poly(3, "eulerian"), "x", 3)
        assert expansion.coeffs == {(1,): 1, (2,): 6, (3,): 6}

    def test_single_letter(self):
        expansion = frobenius_expand(x, "x", 1)
        assert expansion.coeffs == {(1,): 1}

    def test_four_letters_from_triangle(self):
        # oracle: k! S(4,k) with S(4,2) = 7, S(4,3) = 6
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


def weak_partitions(total, parts):
    """Every weakly decreasing ``parts``-tuple of nonnegative integers with the given sum."""
    return [
        lam
        for lam in product(range(total + 1), repeat=parts)
        if sum(lam) == total and list(lam) == sorted(lam, reverse=True)
    ]


def dominates(a, lam):
    return all(sum(lam[:i]) <= sum(a[:i]) for i in range(1, len(a) + 1))


@st.composite
def leading_partitions(draw):
    """A partition a with 1..4 parts of at most 3 (zeros allowed), and mu = a' as esym_expand forms it."""
    a = tuple(sorted(draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)), reverse=True))
    b = tuple(ai - aj for ai, aj in zip(a, a[1:] + (0,)))
    return a, tuple(i for i in range(len(b), 0, -1) for _ in range(b[i - 1]))


def zero_one_margins(rows, cols):
    """How many rows x cols 0-1 matrices have each (row sums, column sums) pair, by listing them all."""
    counts = Counter()
    for bits in product((0, 1), repeat=rows * cols):
        row_sums = tuple(sum(bits[i * cols : (i + 1) * cols]) for i in range(rows))
        counts[row_sums, tuple(sum(bits[j::cols]) for j in range(cols))] += 1
    return counts


def test_e_coefficient_counts_zero_one_matrices():
    """Every margin pair of at most 4 rows and 4 columns, lam in every order, through one memo."""
    memo = {}
    for rows, cols in product(range(5), repeat=2):
        counts = zero_one_margins(rows, cols)
        for mu in combinations_with_replacement(range(4, -1, -1), rows):
            for lam in product(range(5), repeat=cols):
                want = counts[mu, lam]
                assert _e_coefficient(mu, lam, memo) == want, (mu, lam)
                assert _e_coefficient(mu, tuple(sorted(lam, reverse=True)), memo) == want, (mu, lam)


class TestDominanceFilter:
    """[x^lam] e_mu is 0 unless a = mu' dominates lam (Gale-Ryser), so only those lam are peeled."""

    @given(leading_partitions())
    def test_e_coefficient_vanishes_off_the_dominated_partitions(self, case):
        a, mu = case
        for lam in weak_partitions(sum(a), len(a)):
            coefficient = _e_coefficient(mu, lam, {})
            assert (coefficient > 0) == dominates(a, lam), (a, lam, coefficient)

    @given(leading_partitions())
    def test_dominated_lists_exactly_those(self, case):
        a, _ = case
        want = [lam for lam in weak_partitions(sum(a), len(a)) if dominates(a, lam)]
        assert sorted(_dominated(a)) == want


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


@st.composite
def gamma_inputs(draw):
    """(f, n): gamma coefficients planted in the basis, or a palindromised random list."""
    n = draw(st.integers(0, 9))
    v = Poly.var("x")
    if draw(st.booleans()):
        planted = {k: draw(coefficients()) for k in range(n // 2 + 1)}
        return poly_sum(c * v**k * (1 + v) ** (n - 2 * k) for k, c in planted.items()), n
    g = [draw(coefficients()) for _ in range(n + 1)]
    return Poly.from_exponents(({"x": i}, g[i] + g[n - i]) for i in range(n + 1)), n


@st.composite
def frobenius_inputs(draw):
    """(f, n): Frobenius coefficients planted in the basis, or a random list with no constant."""
    n = draw(st.integers(1, 9))
    v = Poly.var("x")
    if draw(st.booleans()):
        planted = {k: draw(coefficients()) for k in range(1, n + 1)}
        return poly_sum(c * v**k * (1 - v) ** (n - k) for k, c in planted.items()), n
    return Poly.from_exponents(({"x": i}, draw(coefficients())) for i in range(1, n + 1)), n


@st.composite
def esym_inputs(draw):
    """(f, variables, planted): e-products with rational coefficients, or symmetrised monomials.

    ``planted`` is the expansion when f was built from e-products, else None.
    """
    m = draw(st.integers(1, 5))
    variables = stirling_vars(m - 1)
    if draw(st.booleans()):
        planted = {}
        for _ in range(draw(st.integers(0, 3))):
            rows = draw(st.lists(st.integers(1, m), max_size=3))
            b = tuple(rows.count(i) for i in range(1, m + 1))
            planted[b] = planted.get(b, 0) + draw(coefficients())
        f = poly_sum(c * e_power(variables, b) for b, c in planted.items())
        return f, variables, {b: c for b, c in planted.items() if c}
    exponents = st.tuples(*[st.integers(0, 3)] * m)
    orbits = draw(st.lists(st.tuples(exponents, coefficients()), max_size=3))
    f = Poly.from_exponents(
        (dict(zip(variables, perm)), c) for vec, c in orbits for perm in set(permutations(vec))
    )
    return f, variables, None


class TestCoefficientPeels:
    """The coefficient peels against the polynomial peels they replaced."""

    @given(gamma_inputs())
    def test_gamma_matches_polynomial_peel(self, case):
        f, n = case
        assert gamma_expand(f, "x", n).coeffs == gamma_peel_reference(f, "x", n)

    @given(frobenius_inputs())
    def test_frobenius_matches_polynomial_peel(self, case):
        f, n = case
        assert frobenius_expand(f, "x", n).coeffs == frobenius_peel_reference(f, "x", n)

    @settings(deadline=None, max_examples=60)
    @given(esym_inputs())
    def test_esym_matches_polynomial_peel(self, case):
        f, variables, planted = case
        got = esym_expand(f, variables).coeffs
        assert got == esym_peel_reference(f, variables)
        if planted is not None:
            assert got == planted

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_e_coefficient_is_a_coefficient_of_the_product(self, data):
        m = data.draw(st.integers(1, 5))
        rows = data.draw(st.lists(st.integers(1, m), max_size=4))
        variables = stirling_vars(m - 1)
        mu = tuple(sorted(rows, reverse=True))
        b = [rows.count(i) for i in range(1, m + 1)]
        table = e_power(variables, b).exponent_table(variables)
        memo = {}
        for lam in product(range(len(mu) + 1), repeat=m):
            if sum(lam) == sum(mu):
                assert _e_coefficient(mu, lam, memo) == table.get(lam, 0), lam

    def test_esym_of_a_constant(self):
        assert esym_expand(Poly.const(Fraction(3, 2)), ()).coeffs == {(): Fraction(3, 2)}
        assert esym_expand(Poly.zero(), ()).coeffs == {}

    def test_no_polynomial_is_multiplied(self, monkeypatch):
        eulerian = perm_poly(7, "eulerian")
        shifted = x * eulerian
        kth = kth_order_poly(5, 3)

        def forbidden(self, other):
            raise AssertionError("Poly.__mul__ called")

        monkeypatch.setattr(Poly, "__mul__", forbidden)
        assert gamma_expand(eulerian, "x", 6).coeffs == {(0,): 1, (1,): 114, (2,): 720, (3,): 272}
        assert frobenius_expand(shifted, "x", 7).coeffs[(7,)] == factorial(7)
        assert esym_expand(kth, stirling_vars(3)).is_positive()


class TestGammaTables:
    def test_nij_small_entries(self):
        table = gamma_tables("gamma-nij", 4)
        assert table.values[2][(0, 1)] == 1
        assert table.values[2][(2, 0)] == 1
        assert table.values[4][(0, 2)] == 4

    def test_nij_matches_partial_gamma(self):
        table = gamma_tables("gamma-nij", 7)
        for n in range(8):
            expansion = partial_gamma_expand(perm_poly(n + 1, "trivariate"), n)
            assert {k: int(c) for k, c in expansion.coeffs.items()} == table.values[n]

    def test_xy_poly_matches_nij(self):
        xy = gamma_tables("gamma-n-xy-poly", 8)
        nij = gamma_tables("gamma-nij", 8)
        for n in range(9):
            expected = Poly.zero()
            for (i, j), c in nij.values[n].items():
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

    def test_histogram_closed_forms(self):
        rows = histogram_rows(9)
        for n in range(3, 9):
            row = rows[n]
            assert row[(2, n - 3, 1) + (0,) * (n - 3)] == 2**n - 2 * n
        for n in range(2, 9):
            row = rows[n + 1]
            assert row[(n,) + (0,) * (n - 1) + (1,)] == factorial(n)

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_rows_do_not_depend_on_n_max(self, kind):
        """A table up to n_max holds rows 0..n_max, each equal to that row of the largest table."""
        largest = gamma_tables(kind, MAX_TABLE_N).values
        for n_max in range(MAX_TABLE_N + 1):
            rows = gamma_tables(kind, n_max).values
            assert len(rows) == n_max + 1
            assert rows == largest[: n_max + 1], n_max

    def test_guard(self):
        with pytest.raises(OutOfRangeError):
            gamma_tables("gamma-nij", 13)
        with pytest.raises(InvalidParamError):
            gamma_tables("nope", 3)
