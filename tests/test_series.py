import itertools
import random
from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from conftest import coefficients, polys
from eulab.errors import (
    InvalidParamError,
    NonInvertibleConstantTermError,
    NonzeroConstantTermError,
    SizeLimitError,
)
from eulab.exactalg import Poly
from eulab.expand import MAX_TABLE_N, gamma_tables
from eulab.series import EGF_NAMES, MAX_SERIES_ORDER, Series, egf_build

x, y, s = Poly.var("x"), Poly.var("y"), Poly.var("s")


def compose(outer: Series, inner: Series) -> Series:
    """outer(inner(z)) by Horner's rule, for an inner series with zero constant term."""
    if inner.coefficient(0):
        raise NonzeroConstantTermError("composition requires inner constant term zero")
    n = min(outer.order, inner.order)
    inner = inner.truncate(n)
    result = Series.const(outer.coefficient(n), n)
    for i in range(n - 1, -1, -1):
        result = result * inner + Series.const(outer.coefficient(i), n)
    return result


def brute_derangement_poly(n):
    """Independent oracle: sum of x^excedances over fixed-point-free permutations."""
    total = Poly.zero()
    for p in itertools.permutations(range(1, n + 1)):
        if any(p[i - 1] == i for i in range(1, n + 1)):
            continue
        exc = sum(1 for i in range(1, n + 1) if p[i - 1] > i)
        total = total + Poly.monomial({"x": exc})
    return total


def random_series(rng, order, unit=False):
    coeffs = []
    for i in range(order + 1):
        p = Poly.zero()
        for _ in range(rng.randint(0, 2)):
            p = p + Poly.monomial(
                {"x": rng.randint(0, 2), "y": rng.randint(0, 2)}, rng.randint(-3, 3)
            )
        coeffs.append(p)
    if unit:
        coeffs[0] = Poly.const(rng.choice([1, -1, 2, Fraction(1, 2), 3]))
    return Series(coeffs, order)


class TestArith:
    def test_exp_of_linear(self):
        e = Series.exp_zp(s, 2)
        assert e.coeffs == (Poly.one(), s, (s**2).scale(Fraction(1, 2)))

    def test_division_reproduces_derangements(self):
        d3 = brute_derangement_poly(3)
        assert d3 == x + x**2  # oracle value frozen
        den = Series.exp_zp(x, 3) - Series.exp_zp(Poly.one(), 3) * x
        ratio = Series.const(1 - x, 3).div(den)
        assert ratio.egf_coefficient(3) == d3

    def test_squared_quotient_form(self):
        t = egf_build("trivariate", 3)
        assert t.egf_coefficient(3) == (s + y) ** 3 + 6 * x * y * (s + y) + 2 * x * y * (x + y)

    def test_mixed_orders_truncate_to_min(self):
        a = Series.const(1, 5)
        b = Series.z(3)
        assert (a + b).order == 3
        assert (a * b).order == 3

    def test_compose(self):
        # e^{qz} == e^{z} composed with q*z, for a rational and a symbolic q
        for q in (Fraction(3, 2), x):
            inner = Series([Poly.zero(), q], 8)
            assert compose(Series.exp_zp(1, 8), inner) == Series.exp_zp(q, 8)

    def test_diff_z(self):
        e = Series.exp_zp(x, 6)
        assert e.diff_z() == (e * x).truncate(5)

    def test_diff_z_at_order_zero_is_unknown(self):
        # the z^0 coefficient of the derivative is the untracked a_1
        with pytest.raises(InvalidParamError, match="order 0"):
            Series([1, 2], 0).diff_z()


class TestErrors:
    def test_div_zero_constant_term(self):
        with pytest.raises(NonInvertibleConstantTermError):
            Series.const(1, 3).div(Series.z(3))

    def test_div_inexact_coefficient(self):
        with pytest.raises(NonInvertibleConstantTermError):
            Series.const(1, 2).div(Series.const(x, 2))

    def test_exp_nonzero_constant(self):
        with pytest.raises(NonzeroConstantTermError):
            Series.const(1, 2).exp()

    def test_compose_nonzero_constant(self):
        with pytest.raises(NonzeroConstantTermError):
            compose(Series.z(3), Series.const(1, 3))

    def test_unknown_name(self):
        with pytest.raises(InvalidParamError):
            egf_build("nope", 3)


def series(unit: bool = False, zero_constant: bool = False) -> st.SearchStrategy:
    """Short series in x, y; the constant term optionally a nonzero number or zero."""
    coeff = polys(variables=("x", "y"), max_terms=3, max_exp=2)
    head = coeff
    if unit:
        head = coefficients().filter(bool).map(Poly.const)
    if zero_constant:
        head = st.just(Poly.zero())
    return st.builds(lambda h, tail: Series([h, *tail]), head, st.lists(coeff, max_size=4))


def naive_mul(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    out = [Poly.zero()] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] = out[i + j] + a.coeffs[i] * b.coeffs[j]
    return Series(out, n)


def naive_div(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    out: list[Poly] = []
    for i in range(n + 1):
        acc = a.coeffs[i]
        for j in range(1, i + 1):
            acc = acc - out[i - j] * b.coeffs[j]
        out.append(acc.divexact(b.coeffs[0]))
    return Series(out, n)


def naive_exp(a: Series) -> Series:
    out = [Poly.one()] + [Poly.zero()] * a.order
    for m in range(1, a.order + 1):
        acc = Poly.zero()
        for k in range(1, m + 1):
            acc = acc + (a.coeffs[k] * out[m - k]).scale(k)
        out[m] = acc.scale(Fraction(1, m))
    return Series(out, a.order)


class TestAgainstNaiveLoops:
    """Each product builds a coefficient in one sum; the loops adding one term at a time agree."""

    @given(series(), series())
    def test_mul(self, a, b):
        assert a * b == naive_mul(a, b)

    @given(series(), series(unit=True))
    def test_div_by_a_unit(self, a, b):
        assert a.div(b) == naive_div(a, b)

    @given(series(), series())
    def test_exact_div_by_a_non_unit(self, c, b):
        if not b.coeffs[0]:
            return
        a = c * b
        assert a.div(b) == naive_div(a, b) == c.truncate(a.order)

    @given(series(zero_constant=True))
    def test_exp(self, a):
        assert a.exp() == naive_exp(a)


class TestDividedPowerForm:
    """A series keeps its numerators n! [z^n]; the symbolic EGFs never leave the integers."""

    @pytest.mark.parametrize("name", EGF_NAMES)
    def test_symbolic_numerators_are_integer_polynomials(self, name):
        series = egf_build(name, 12)
        assert len(series.h) == 13
        for n, h in enumerate(series.h):
            assert all(type(c) is int for _, c in h.items()), (name, n)
            assert series.egf_coefficient(n) == series.coefficient(n).scale(factorial(n))

    @given(st.lists(polys(), min_size=1, max_size=6), st.integers(0, 7))
    def test_coeffs_round_trip(self, cs, order):
        assert Series(cs).coeffs == tuple(cs)
        padded = (cs + [Poly.zero()] * order)[: order + 1]
        assert Series(cs, order).coeffs == tuple(padded)


class TestOrderGuard:
    @pytest.mark.parametrize("name", EGF_NAMES)
    def test_guard_raises_before_any_work(self, monkeypatch, name):
        def work(*args):
            raise AssertionError("series built before the order guard")

        monkeypatch.setattr(Series, "exp_zp", work)
        monkeypatch.setattr(Series, "div", work)
        with pytest.raises(SizeLimitError, match="series order guard"):
            egf_build(name, MAX_SERIES_ORDER + 1, {"x": 1, "y": 1})

    def test_benchmark_orders_still_build(self):
        assert MAX_SERIES_ORDER >= 30
        values = egf_build("gamma-xy", 30, {"x": 1, "y": 1}).egf_coefficient(6)
        assert values.constant_value() == 272


class TestParams:
    @pytest.mark.parametrize(
        "name, params",
        [
            ("gamma-xy", {"x": 0.1, "y": 1}),  # a float is not exact
            ("gamma-xy", {"x": 1, "y": 0.5}),
            ("gamma-xy", {"Y": 1}),  # a misspelled y
            ("gamma-xy", {"x": 1, "y": 1, "z": 2}),
            ("gamma-xy", {"x": True}),  # a bool is not a number here
            ("gamma-xy", {"y": "1/2"}),
            *((name, {"x": 1}) for name in EGF_NAMES if name != "gamma-xy"),
            ("trivariate", {"s": Fraction(1, 2)}),
        ],
    )
    def test_bad_params_raise_before_any_work(self, monkeypatch, name, params):
        def work(*args):
            raise AssertionError("series built before the params were checked")

        monkeypatch.setattr(Series, "exp_zp", work)
        monkeypatch.setattr(Series, "div", work)
        with pytest.raises(InvalidParamError, match=f"EGF '{name}' takes no"):
            egf_build(name, 3, params)

    @pytest.mark.parametrize("name", EGF_NAMES)
    def test_no_params_and_empty_params_agree(self, name):
        assert egf_build(name, 4, {}) == egf_build(name, 4) == egf_build(name, 4, None)


class TestRandomizedLaws:
    def test_mul_div_round_trip(self):
        rng = random.Random(20240811)
        for _ in range(25):
            order = rng.randint(1, 5)
            a = random_series(rng, order)
            b = random_series(rng, order, unit=True)
            assert a.div(b) * b == a

    def test_compose_agrees_with_exp(self):
        # composing the exponential series with a reproduces a.exp()
        rng = random.Random(31)
        for _ in range(10):
            order = rng.randint(1, 5)
            a = random_series(rng, order)
            a = Series((Poly.zero(),) + a.coeffs[1:], order)
            exp_z = Series.exp_zp(Poly.one(), order)
            assert compose(exp_z, a) == a.exp()

    def test_exp_is_a_homomorphism(self):
        rng = random.Random(7)
        for _ in range(10):
            order = rng.randint(1, 5)
            a = random_series(rng, order)
            b = random_series(rng, order)
            a = Series((Poly.zero(),) + a.coeffs[1:], order)
            b = Series((Poly.zero(),) + b.coeffs[1:], order)
            assert (a + b).exp() == a.exp() * b.exp()


class TestEgfCatalog:
    def test_derangement_order_zero(self):
        assert egf_build("derangement", 0).coefficient(0) == Poly.one()

    def test_trivariate_low_orders(self):
        t = egf_build("trivariate", 4)
        expected = {
            0: Poly.one(),
            1: s + y,
            2: (s + y) ** 2 + 2 * x * y,
            3: (s + y) ** 3 + 6 * x * y * (s + y) + 2 * x * y * (x + y),
            4: (s + y) ** 4
            + 12 * x * y * (s + y) ** 2
            + 8 * x * y * (s + y) * (x + y)
            + 2 * x * y * (x + y) ** 2
            + 16 * x**2 * y**2,
        }
        for n, value in expected.items():
            assert t.egf_coefficient(n) == value

    def test_derangement_specializes_fixpoint(self):
        d = egf_build("derangement", 6)
        for n in range(7):
            assert d.egf_coefficient(n) == brute_derangement_poly(n)

    def test_no_succession_equals_derangement(self):
        assert egf_build("no-succession", 8) == egf_build("derangement", 8)

    def test_convolution_of_egfs(self):
        order = 7
        lhs = egf_build("bivariate", order) * egf_build("fixpoint", order)
        assert lhs == egf_build("trivariate", order)

    def test_pde_for_trivariate(self):
        order = 8
        a = egf_build("trivariate", order)
        lhs = a.diff_z()
        gradient = Series([c.diff("x") + c.diff("y") + c.diff("s") for c in a.coeffs])
        rhs = a * (s + y) + gradient * (x * y)
        assert lhs == rhs.truncate(order - 1)

    def test_gamma_xy_at_unit_point(self):
        g = egf_build("gamma-xy", 6, {"x": 1, "y": 1})
        values = [g.egf_coefficient(n).constant_value() for n in range(7)]
        assert values == [1, 1, 2, 5, 16, 61, 272]

    def test_gamma_xy_symbolic_x(self):
        g = egf_build("gamma-xy", 3, {"y": 1})
        assert g.egf_coefficient(1) == x


#: the symbolic gamma-xy series at the order the point property compares
GAMMA_XY_SYMBOLIC = egf_build("gamma-xy", 6)

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


class TestGammaXy:
    def test_symbolic_numerators_are_the_recurrence_rows(self):
        g = egf_build("gamma-xy", MAX_TABLE_N)
        rows = gamma_tables("gamma-n-xy-poly", MAX_TABLE_N).values
        for n in range(MAX_TABLE_N + 1):
            assert g.egf_coefficient(n) == rows[n], n

    @given(small_rationals, small_rationals, st.sampled_from(["x", "y", "xy"]))
    @example(Fraction(1, 2), Fraction(2), "xy")  # 2y-1 = 3 is not a rational square
    @example(Fraction(-1), Fraction(0), "xy")  # 2y-1 < 0
    @example(Fraction(2), Fraction(1, 3), "xy")
    @example(Fraction(0), Fraction(1, 3), "y")
    def test_point_build_specializes_the_symbolic_build(self, x0, y0, fixed):
        point = {v: value for v, value in (("x", x0), ("y", y0)) if v in fixed}
        assert egf_build("gamma-xy", 6, point) == GAMMA_XY_SYMBOLIC.specialize(point)
