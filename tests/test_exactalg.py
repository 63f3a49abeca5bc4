import itertools
import json
from fractions import Fraction
from math import prod

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

import tuple_kernel as ref
from conftest import coefficients, polys
from eulab.errors import InexactDivisionError, InvalidParamError, PolyParseError
from eulab.exactalg import MAX_EXPONENT, Poly, elementary_symmetric, poly_sum

x, y, s, z = Poly.var("x"), Poly.var("y"), Poly.var("s"), Poly.var("z")

#: names that JSON escapes (a quote, a backslash, non-ASCII, a control character),
#: registered in the reverse of their sorted order so that the field order differs from it
WIRE_NAMES = ('wire_z"', "wire_y\\", "wire_x\u00e9", "wire_w\u2603", "wire_v\n")
for _name in sorted(WIRE_NAMES, reverse=True):
    Poly.var(_name)

#: one wire-form term, for the rejection cases below
TERM = {"exponents": {"x": 1}, "coeff": "1"}


def brute_descent_poly(n):
    """Independent oracle: sum of x^descents over all permutations of [n]."""
    total = Poly.zero()
    for p in itertools.permutations(range(1, n + 1)):
        d = sum(1 for i in range(n - 1) if p[i] > p[i + 1])
        total = total + Poly.monomial({"x": d})
    return total


class TestArithmetic:
    def test_trivariate_three_term_build(self):
        assert (s + y) ** 2 + 2 * x * y == s**2 + 2 * s * y + y**2 + 2 * x * y

    def test_mul_identity(self):
        p = 3 * x**2 * y - s + Fraction(1, 2)
        assert p * Poly.one() == p

    def test_eulerian_gamma_form_matches_brute_force(self):
        # oracle first: descent counting over all 24 permutations of [4]
        a4 = brute_descent_poly(4)
        assert a4 == 1 + 11 * x + 11 * x**2 + x**3
        assert (1 + x) ** 3 + 8 * x * (1 + x) == a4

    def test_scale_and_pow(self):
        assert (x + y) ** 0 == Poly.one()
        assert (2 * x).scale(Fraction(1, 2)) == x
        assert x**3 * x**4 == x**7

    def test_zero_handling(self):
        assert not x - x
        assert not Poly.zero()
        assert Poly.const(0) == Poly.zero()


class TestDiff:
    def test_simple_partial(self):
        assert (x**2 * y).diff("x") == 2 * x * y

    def test_second_order_recursion_step(self):
        c1 = x * y * z
        image = x * y * z * (c1.diff("x") + c1.diff("y") + c1.diff("z"))
        assert image == x * y * z * (y * z + x * z + x * y)

    def test_derivative_of_constant(self):
        assert not Poly.const(7).diff("s")


class TestSubst:
    def test_two_variable_image(self):
        p = Poly.var("u") * Poly.var("v")
        assert p.subst({"u": 2 * x * y, "v": x + y}) == 2 * x**2 * y + 2 * x * y**2

    def test_identity_default(self):
        p = x * y + s
        assert p.subst({}) == p

    def test_three_variable_image(self):
        t, u, v = Poly.var("t"), Poly.var("u"), Poly.var("v")
        p = t**3 + 3 * t * u + u * v
        image = p.subst({"t": s + y, "u": 2 * x * y, "v": x + y})
        a4 = (s + y) ** 3 + 6 * x * y * (s + y) + 2 * x * y * (x + y)
        assert image == a4

    @given(polys(), coefficients(), coefficients(), coefficients())
    def test_evaluate_term_by_term(self, p, x0, y0, s0):
        point = {"x": x0, "y": y0, "s": s0}
        want = sum(
            (Fraction(c) * prod(Fraction(point[v]) ** e for v, e in m) for m, c in p.items()),
            Fraction(0),
        )
        got = p.evaluate(point)
        assert got == want
        assert isinstance(got, int) == (want.denominator == 1)

    def test_evaluate_needs_every_variable(self):
        with pytest.raises(InvalidParamError, match="no value bound for variable 'y'"):
            (x * y + y).evaluate({"x": -1})  # the y terms cancel at x = -1, but y is unbound
        assert Poly.const(Fraction(3, 2)).evaluate({}) == Fraction(3, 2)


class TestPredicates:
    def test_symmetric_trivariate(self):
        c2 = x * y**2 * z + x**2 * y * z + x * y * z**2
        assert c2.is_symmetric(["x", "y", "z"])

    def test_not_symmetric(self):
        assert not (x + 2 * y).is_symmetric(["x", "y"])

    def test_elementary_symmetric_is_symmetric(self):
        e2 = elementary_symmetric(["x_1", "x_2", "x_3"], 2)
        v1, v2, v3 = (Poly.var(f"x_{i}") for i in (1, 2, 3))
        assert e2 == v1 * v2 + v1 * v3 + v2 * v3
        assert e2.is_symmetric(["x_1", "x_2", "x_3"])


class TestDivexact:
    def test_strip_marker_product(self):
        lm = Poly.var("L") * Poly.var("M")
        p = lm * ((s + y) ** 2 + 2 * x * y)
        assert p.divexact(lm) == (s + y) ** 2 + 2 * x * y

    def test_binomial_quotient(self):
        assert ((x + y) ** 3).divexact(x + y) == (x + y) ** 2

    def test_inexact_raises(self):
        with pytest.raises(InexactDivisionError):
            (x + 1).divexact(y)

    def test_divide_by_constant(self):
        assert (2 * x + 4).divexact(Poly.const(2)) == x + 2


class TestJson:
    def test_round_trip_bit_exact(self):
        p = (s + y) ** 2 + 2 * x * y - Poly.const(Fraction(5, 3))
        text = p.to_json()
        assert Poly.from_json(text) == p
        assert Poly.from_json(text).to_json() == text

    def test_serialization_is_sorted_leading_first(self):
        p = 1 + x + x**2
        exps = [t["exponents"].get("x", 0) for t in json.loads(p.to_json())]
        assert exps == [2, 1, 0]

    def test_parse_errors(self):
        with pytest.raises(PolyParseError):
            Poly.from_json("{}")
        with pytest.raises(PolyParseError):
            Poly.from_json('[{"exponents":{"x":-1},"coeff":"1"}]')
        with pytest.raises(PolyParseError):
            Poly.from_json('[{"exponents":{"x":1},"coeff":"1/0"}]')

    def test_rejects_float_coefficient(self):
        # a float would be read as its binary value, 3602879701896397/36028797018963968
        with pytest.raises(PolyParseError):
            Poly.from_json('[{"exponents":{},"coeff":0.1}]')

    def test_rejects_bool_coefficient(self):
        with pytest.raises(PolyParseError):
            Poly.from_json('[{"exponents":{},"coeff":true}]')

    def test_rejects_bool_exponent(self):
        with pytest.raises(PolyParseError):
            Poly.from_json('[{"exponents":{"x":true},"coeff":"1"}]')

    def test_rejects_decimal_coefficient_string(self):
        with pytest.raises(PolyParseError):
            Poly.from_json('[{"exponents":{},"coeff":"1.5"}]')

    def test_rejects_exponent_notation_coefficient_string(self):
        with pytest.raises(PolyParseError):
            Poly.from_json('[{"exponents":{},"coeff":"1e3"}]')

    def test_rejects_empty_variable_name(self):
        with pytest.raises(PolyParseError):
            Poly.from_json('[{"exponents":{"":1},"coeff":"1"}]')

    def test_accepts_exact_forms(self):
        text = '[{"exponents":{"x":2},"coeff":"-3/4"},{"exponents":{},"coeff":7}]'
        assert Poly.from_json(text) == Fraction(-3, 4) * x**2 + 7

    @given(polys())
    def test_serialization_round_trip(self, p):
        assert Poly.from_json(p.to_json()).to_json() == p.to_json()

    @given(st.lists(st.sampled_from(WIRE_NAMES + ("x", "s")), unique=True, max_size=4).flatmap(polys))
    def test_text_is_the_canonical_dump_of_the_json_object(self, p):
        assert p.to_json() == ref.to_json(dict(p.items()))
        assert Poly.from_json(p.to_json()) == p

    @pytest.mark.parametrize(
        "obj",
        [
            {"not": "a list"},
            [[1, 2]],
            [{**TERM, "extra": 1}],
            [{"exponents": {"x": 1}}],
            [{"coeff": "1"}],
            [{"exponents": [["x", 1]], "coeff": "1"}],
            [{"exponents": {"x": 1.0}, "coeff": "1"}],
            [{"exponents": {"x": -1}, "coeff": "1"}],
            [{"exponents": {"x": True}, "coeff": "1"}],
            [{"exponents": {"x": 32768}, "coeff": "1"}],
            [{"exponents": {"x": "1"}, "coeff": "1"}],
            [{"exponents": {"": 1}, "coeff": "1"}],
            [{"exponents": {"": 0}, "coeff": "1"}],
            [{"exponents": {"x": 0}, "coeff": "1"}, {"exponents": {}, "coeff": "2"}],
            [TERM, TERM],
            [{"exponents": {}, "coeff": "1/0"}],
            [{"exponents": {}, "coeff": "1.5"}],
            [{"exponents": {}, "coeff": "1e3"}],
            [{"exponents": {}, "coeff": " 1"}],
            [{"exponents": {}, "coeff": "+1"}],
            [{"exponents": {}, "coeff": "1_000"}],
            [{"exponents": {}, "coeff": "\u0663"}],
            [{"exponents": {}, "coeff": "1/-2"}],
            [{"exponents": {}, "coeff": True}],
            [{"exponents": {}, "coeff": 0.5}],
            [{"exponents": {}, "coeff": None}],
        ],
    )
    def test_every_rejection_is_a_parse_error(self, obj):
        with pytest.raises(PolyParseError):
            Poly.from_json(json.dumps(obj))

    @pytest.mark.parametrize(
        "coeff", ["1" * 5000, '"%s"' % ("1" * 5000), '"1/%s"' % ("1" * 5000)], ids=["literal", "string", "denominator"]
    )
    def test_an_integer_past_the_digit_limit_is_a_parse_error(self, coeff):
        with pytest.raises(PolyParseError):
            Poly.from_json('[{"exponents":{},"coeff":%s}]' % coeff)

    def test_an_exponent_past_the_digit_limit_is_a_parse_error(self):
        with pytest.raises(PolyParseError):
            Poly.from_json('[{"exponents":{"x":%s},"coeff":1}]' % ("1" * 5000))


def _outcome(build, error):
    """What ``build()`` returns, or the message of the ``error`` it raises."""
    try:
        return build()
    except error as exc:
        return str(exc)


class TestOneMonomialRule:
    """The builders refuse, with an InvalidParamError, exactly the exponent mappings the reader refuses."""

    @given(
        st.dictionaries(
            st.sampled_from(["", "x", "y"]),
            st.sampled_from([True, False, -1, 0, 1, MAX_EXPONENT, MAX_EXPONENT + 1, 1.0, "1", None]),
            max_size=3,
        )
    )
    @example({"": 0})
    @example({"": 2})
    @example({"x": True})
    @example({"x": False, "y": 1})
    @example({"x": MAX_EXPONENT, "y": 0})
    @example({"x": MAX_EXPONENT + 1})
    def test_builders_and_reader_agree(self, exps):
        monomial = _outcome(lambda: Poly.monomial(exps), InvalidParamError)
        summed = _outcome(lambda: Poly.from_exponents([(exps, 1)]), InvalidParamError)
        read = _outcome(lambda: Poly.from_json_obj([{"exponents": exps, "coeff": "1"}]), PolyParseError)
        assert monomial == summed == read
        # the rule: a nonempty name, and an int (not a bool) exponent from 0 to MAX_EXPONENT
        assert isinstance(read, Poly) == all(v and type(e) is int and 0 <= e <= MAX_EXPONENT for v, e in exps.items())
        if isinstance(read, Poly):
            assert Poly.from_json(read.to_json()) == read

    @pytest.mark.parametrize("name", ["", 1, None])
    def test_every_builder_refuses_a_name_the_wire_form_cannot_hold(self, name):
        for build in (Poly.var, lambda v: Poly.monomial({v: 1}), lambda v: x.diff(v)):
            with pytest.raises(InvalidParamError):
                build(name)


class TestRingLaws:
    @given(polys(), polys(), polys())
    def test_add_mul_laws(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r

    @given(polys(), polys())
    def test_leibniz_rule(self, p, q):
        for v in ("x", "y", "s"):
            assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)

    @given(polys())
    def test_normalization_is_canonical(self, p):
        assert p - p == Poly.zero()
        assert dict((p + Poly.zero()).items()) == dict(p.items())

    @given(polys(), polys(variables=("u", "v")), polys(variables=("u", "v")))
    def test_subst_composes(self, p, img_x, img_y):
        m1 = {"x": img_x, "y": img_y, "s": Poly.var("u") + 1}
        m2 = {"u": x * y, "v": x - y}
        composed = {k: v.subst(m2) for k, v in m1.items()}
        assert p.subst(m1).subst(m2) == p.subst(composed)

    @given(polys(), polys())
    def test_divexact_inverts_mul(self, p, q):
        if not q:
            return
        assert (p * q).divexact(q) == p


def subst_by_adding_terms(p, mapping):
    """Substitution as a running Poly sum, one term at a time."""
    total = Poly.zero()
    for m, c in p.items():
        term = Poly.const(c)
        for v, e in m:
            image = mapping.get(v, Poly.var(v))
            term = term * (image if isinstance(image, Poly) else Poly.const(image)) ** e
        total = total + term
    return total


def symmetric_by_subst(p, variables):
    """Invariance under each adjacent transposition, tested by substitution."""
    swaps = zip(variables, variables[1:])
    return all(p.subst({a: Poly.var(b), b: Poly.var(a)}) == p for a, b in swaps)


def symmetrized(p, variables):
    """The sum of p over every permutation of ``variables``."""
    perms = itertools.permutations(variables)
    return poly_sum(p.subst(dict(zip(variables, map(Poly.var, perm)))) for perm in perms)


def exponent_table_by_lookup(p, letters):
    """Set the other letters to 1, then look up every exponent vector in the degree box."""
    q = p.subst({v: 1 for v in p.variables() if v not in letters})
    box = itertools.product(*(range(q.degree_in(v) + 1) for v in letters))
    table = {key: q.coefficient(dict(zip(letters, key))) for key in box}
    return {key: c for key, c in table.items() if c}


images = st.one_of(coefficients(), polys(variables=("x", "u"), max_terms=3, max_exp=2))
variable_lists = st.sampled_from([["x", "y"], ["x", "y", "s"], ["s", "x"], ["x", "y", "w"]])
monomials = st.fixed_dictionaries({v: st.integers(0, 2) for v in ("x", "y", "u")})
letter_lists = st.sampled_from([(), ("x",), ("y", "x"), ("x", "w"), ("s", "x", "y"), ("w", "y", "s", "x")])
exponent_pairs = st.lists(
    st.tuples(st.dictionaries(st.sampled_from(["x", "y", "u"]), st.integers(0, 2)), coefficients()),
    max_size=6,
)


class TestKernelAgainstReferences:
    """Each kernel routine equals the formulation it replaced."""

    @given(polys(), st.dictionaries(st.sampled_from(["x", "y", "s"]), images))
    def test_subst_equals_term_by_term_sum(self, p, mapping):
        assert p.subst(mapping) == subst_by_adding_terms(p, mapping)

    @given(polys(), variable_lists)
    def test_is_symmetric_matches_subst(self, p, variables):
        assert p.is_symmetric(variables) == symmetric_by_subst(p, variables)

    @given(polys(max_terms=3), variable_lists, st.integers(0, 50), coefficients().filter(bool))
    def test_is_symmetric_on_symmetrized_input(self, p, variables, index, delta):
        sym = symmetrized(p, variables)
        assert sym.is_symmetric(variables)
        assert symmetric_by_subst(sym, variables)
        if sym:
            terms = sorted(sym.items())
            mono, _ = terms[index % len(terms)]
            perturbed = sym + Poly.monomial(dict(mono), delta)
            assert perturbed.is_symmetric(variables) == symmetric_by_subst(perturbed, variables)

    @given(polys(variables=("x", "y", "u")), monomials, coefficients().filter(bool))
    def test_monomial_divexact_round_trip(self, q, exps, c):
        m = Poly.monomial(exps, c)
        assert (q * m).divexact(m) == q

    @given(polys(variables=("x", "y", "u")), monomials, coefficients().filter(bool))
    def test_monomial_divexact_rejects_a_stray_term(self, q, exps, c):
        m = Poly.monomial(dict(exps, x=exps["x"] + 1), c)
        stray = Poly.monomial(exps)  # each term of q * m has a higher power of x
        with pytest.raises(InexactDivisionError):
            (q * m + stray).divexact(m)

    @given(polys(), letter_lists)
    def test_exponent_table_equals_lookup(self, p, letters):
        assert p.exponent_table(letters) == exponent_table_by_lookup(p, letters)

    @given(polys(), letter_lists)
    def test_exponent_table_drops_cancelled_sums(self, p, letters):
        # swapping y and s permutes the monomials of each (x, w) class, so every sum cancels
        swapped = p.subst({"y": s, "s": y})
        assert (p - swapped).exponent_table([v for v in letters if v in ("x", "w")]) == {}

    @given(exponent_pairs)
    def test_from_exponents_equals_sum_of_monomials(self, pairs):
        assert Poly.from_exponents(pairs) == poly_sum(Poly.monomial(e, c) for e, c in pairs)

    @given(polys())
    def test_from_exponents_inverts_exponent_table(self, p):
        letters = ("s", "x", "y")
        table = p.exponent_table(letters)
        assert Poly.from_exponents((dict(zip(letters, key)), c) for key, c in table.items()) == p
