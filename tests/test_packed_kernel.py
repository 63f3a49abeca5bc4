"""The packed-monomial kernel against the tuple kernel it replaced, and its exponent limit.

``tuple_kernel`` is the former implementation, kept as a reference: each
property computes the same thing both ways, on small exponents and on
exponents next to ``MAX_EXPONENT``, where a packed field is about to carry
into its guard bit.  The fused sums (``sum_of_products``, ``derivation``) are
checked against sums of tuple-kernel products.
"""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

import eulab
import tuple_kernel as ref
from conftest import coefficients
from eulab.errors import InexactDivisionError, InvalidParamError, PolyParseError, SizeLimitError
from eulab.exactalg import MAX_EXPONENT, Poly, derivation, sum_of_products

LIMIT = MAX_EXPONENT
HALF = (LIMIT + 1) // 2

# registered in reverse name order, so the registry order and the output order disagree
for _name in ("w_c", "w_b", "w_a"):
    Poly.var(_name)
NAMES = ("w_a", "w_b", "w_c")

small_exponents = st.integers(0, 3)
# two of these add up to just below, at, or just above the limit
edge_exponents = st.sampled_from([0, 1, 2, HALF - 1, HALF, LIMIT - 1, LIMIT])
positive = st.one_of(st.integers(1, 6), st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)))


@st.composite
def pairs(draw, names=NAMES, exponents=small_exponents, coeffs=coefficients(), max_terms=4):
    """The same polynomial as a Poly and as a tuple-kernel term dict.

    ``exponents`` is one strategy for every letter, or a mapping of letters to strategies.
    """
    if not isinstance(exponents, dict):
        exponents = dict.fromkeys(names, exponents)
    drawn = [
        ({v: draw(exponents[v]) for v in names}, draw(coeffs))
        for _ in range(draw(st.integers(0, max_terms)))
    ]
    terms = {}
    for exps, c in drawn:
        terms = ref.add(terms, {ref.mono_from_exps(exps): c})
    return Poly.from_exponents(drawn), terms


def overflows(terms_a, terms_b):
    """True iff some monomial product of the two sets of terms has an exponent above the limit."""
    return any(e > LIMIT for ma in terms_a for mb in terms_b for _, e in ref.mono_mul(ma, mb))


class TestAgainstTupleKernel:
    @given(pairs())
    def test_items_decode_the_terms(self, a):
        p, terms = a
        assert dict(p.items()) == terms

    @given(pairs(), pairs())
    def test_mul(self, a, b):
        (p, pt), (q, qt) = a, b
        assert dict((p * q).items()) == ref.mul(pt, qt)

    @given(pairs(exponents=edge_exponents, coeffs=positive), pairs(exponents=edge_exponents, coeffs=positive))
    def test_mul_near_the_limit(self, a, b):
        (p, pt), (q, qt) = a, b
        if overflows(pt, qt):
            with pytest.raises(SizeLimitError):
                p * q
        else:
            assert dict((p * q).items()) == ref.mul(pt, qt)

    @given(pairs(exponents=edge_exponents, max_terms=3), st.integers(0, 3))
    def test_pow_near_the_limit(self, a, n):
        p, pt = a
        want = ref.power(pt, n)  # the top power of each letter cannot cancel
        if ref.max_exponent(want) > LIMIT:
            with pytest.raises(SizeLimitError):
                p**n
        else:
            assert dict((p**n).items()) == want

    @given(pairs(exponents=edge_exponents), st.sampled_from(NAMES + ("x",)))
    def test_diff(self, a, v):
        p, pt = a
        assert dict(p.diff(v).items()) == ref.diff(pt, v)

    @given(
        # substituted letters keep small powers: an image to the power LIMIT has LIMIT + 1 terms
        pairs(exponents={"w_a": small_exponents, "w_b": small_exponents, "w_c": edge_exponents}, coeffs=positive),
        st.dictionaries(
            st.sampled_from(NAMES[:2]),
            pairs(names=("w_a", "w_c"), exponents=st.integers(0, 2), coeffs=positive, max_terms=2),
        ),
    )
    def test_subst_near_the_limit(self, a, mapping):
        p, pt = a
        want = ref.subst(pt, {v: t for v, (_, t) in mapping.items()})
        images = {v: img for v, (img, _) in mapping.items()}
        if ref.max_exponent(want) > LIMIT:  # positive coefficients: nothing cancels
            with pytest.raises(SizeLimitError):
                p.subst(images)
        else:
            assert dict(p.subst(images).items()) == want

    @given(pairs(), st.dictionaries(st.sampled_from(NAMES), pairs(names=NAMES[1:], max_terms=2)))
    def test_subst(self, a, mapping):
        p, pt = a
        want = ref.subst(pt, {v: t for v, (_, t) in mapping.items()})
        assert dict(p.subst({v: img for v, (img, _) in mapping.items()}).items()) == want

    @given(
        pairs(exponents=st.sampled_from([0, 1, HALF - 1, HALF]), max_terms=3),
        pairs(exponents=st.sampled_from([0, 1, HALF - 1]), max_terms=3),
    )
    def test_divexact_exact(self, a, b):
        (p, pt), (q, qt) = a, b
        if not q:
            return
        product = ref.mul(pt, qt)
        assert dict((p * q).divexact(q).items()) == ref.divexact(product, qt) == pt

    @given(pairs(max_terms=3), pairs(max_terms=3), pairs(max_terms=2))
    def test_divexact_inexact(self, a, b, c):
        (p, pt), (q, qt), (r, rt) = a, b, c
        if not q:
            return
        dividend, terms = p * q + r, ref.add(ref.mul(pt, qt), rt)
        try:
            want = ref.divexact(terms, qt)
        except InexactDivisionError:
            with pytest.raises(InexactDivisionError):
                dividend.divexact(q)
        else:
            assert dict(dividend.divexact(q).items()) == want

    @given(
        st.fixed_dictionaries({v: edge_exponents for v in NAMES}),
        st.fixed_dictionaries({v: edge_exponents for v in NAMES}),
    )
    def test_monomial_divexact_near_the_limit(self, ea, eb):
        quotient = ref.mono_div(ref.mono_from_exps(ea), ref.mono_from_exps(eb))
        a, b = Poly.monomial(ea), Poly.monomial(eb, 2)
        if quotient is None:
            with pytest.raises(InexactDivisionError):
                a.divexact(b)
        else:
            assert dict(a.divexact(b).items()) == {quotient: Fraction(1, 2)}

    @given(pairs(exponents=edge_exponents, max_terms=3), st.booleans(), coefficients().filter(bool))
    def test_is_symmetric(self, a, perturb, delta):
        _, pt = a
        # the sum over all relabellings of the letters is symmetric; one more term may break it
        sym = {}
        for perm in itertools.permutations(NAMES):
            relabel = dict(zip(NAMES, perm))
            for m, c in pt.items():
                sym = ref.add(sym, {tuple(sorted((relabel[v], e) for v, e in m)): c})
        if perturb and sym:
            sym = ref.add(sym, {next(iter(sym)): delta})
        p = Poly.from_exponents((dict(m), c) for m, c in sym.items())
        for names in (NAMES, NAMES[:2], ("w_c", "w_a")):
            assert p.is_symmetric(names) == ref.is_symmetric(sym, names)

    @given(pairs(exponents=edge_exponents), st.sampled_from([(), ("w_b",), ("w_c", "w_a"), ("x", "w_a"), NAMES]))
    def test_exponent_table(self, a, letters):
        p, pt = a
        assert p.exponent_table(letters) == ref.exponent_table(pt, letters)

    @given(pairs(exponents=edge_exponents))
    def test_sorted_terms(self, a):
        p, pt = a
        assert p.sorted_terms() == ref.sorted_terms(pt)

    @given(pairs(exponents=edge_exponents))
    def test_to_json(self, a):
        p, pt = a
        assert p.to_json() == ref.to_json(pt)
        assert Poly.from_json(p.to_json()) == p


def power_of(name, e):
    return Poly.monomial({name: e})


by_exponents = pytest.mark.parametrize("exponents", [small_exponents, edge_exponents], ids=["small", "edge"])


class TestFusedSums:
    """Each fused sum equals the sum of its tuple-kernel products, and raises exactly when one of them passes the limit."""

    @by_exponents
    @given(data=st.data())
    def test_sum_of_products(self, exponents, data):
        factor = pairs(exponents=exponents, max_terms=3)
        triples = data.draw(st.lists(st.tuples(coefficients(), factor, factor), max_size=3))
        polys = [(c, a, b) for c, (a, _), (b, _) in triples]
        want = {}
        for c, (_, at), (_, bt) in triples:
            want = ref.add(want, ref.mul({(): c}, ref.mul(at, bt)))
        if any(overflows(at, bt) for _, (_, at), (_, bt) in triples):
            with pytest.raises(SizeLimitError):
                sum_of_products(polys)
        else:
            assert dict(sum_of_products(polys).items()) == want

    @given(pairs(exponents=edge_exponents), pairs(exponents=edge_exponents), coefficients())
    def test_cancelling_products_are_guarded(self, a, b, c):
        (p, pt), (q, qt) = a, b
        if overflows(pt, qt):
            with pytest.raises(SizeLimitError):
                sum_of_products([(c, p, q), (-c, q, p)])
        else:
            assert not sum_of_products([(c, p, q), (-c, q, p)])

    @by_exponents
    @given(data=st.data())
    def test_derivation(self, exponents, data):
        p, pt = data.draw(pairs(exponents=exponents))
        drawn = data.draw(st.dictionaries(st.sampled_from(NAMES + ("x",)), pairs(exponents=exponents, max_terms=2)))
        images = {v: img for v, (img, _) in drawn.items()}
        want = {}
        for v, (_, it) in drawn.items():
            want = ref.add(want, ref.mul(it, ref.diff(pt, v)))
        if any(overflows(it, ref.diff(pt, v)) for v, (_, it) in drawn.items()):
            with pytest.raises(SizeLimitError):
                derivation(p, images)
        else:
            assert dict(derivation(p, images).items()) == want

    @pytest.mark.parametrize("e", [LIMIT - 1, LIMIT, LIMIT + 1])
    def test_cancelling_derivation_terms_are_guarded(self, e):
        # p = w_a w_b^HALF: the w_a term and the w_b term are +-w_a w_b^e, so the derivation is 0
        p = Poly.var("w_a") * power_of("w_b", HALF)
        images = {
            "w_a": Poly.var("w_a") * power_of("w_b", e - HALF),
            "w_b": power_of("w_b", e - HALF + 1).scale(Fraction(-1, HALF)),
        }
        if e > LIMIT:
            with pytest.raises(SizeLimitError):
                derivation(p, images)
        else:
            assert not derivation(p, images)


class TestExponentLimit:
    """At the limit an exponent is stored; one above it raises, and never wraps into the next field."""

    @pytest.mark.parametrize("e", [LIMIT - 1, LIMIT, LIMIT + 1])
    def test_from_json(self, e):
        text = json.dumps([{"coeff": "1", "exponents": {"w_a": e}}])
        if e > LIMIT:
            with pytest.raises(PolyParseError, match="limit"):
                Poly.from_json(text)
        else:
            assert Poly.from_json(text).degree_in("w_a") == e

    def test_constructors_refuse_an_exponent_above_the_limit(self):
        with pytest.raises(InvalidParamError, match="limit"):
            Poly.monomial({"w_a": LIMIT + 1})
        with pytest.raises(InvalidParamError, match="limit"):
            Poly.from_exponents([({"w_b": 1, "w_a": LIMIT + 1}, 1)])

    @pytest.mark.parametrize("e", [LIMIT - 1, LIMIT, LIMIT + 1])
    def test_mul(self, e):
        # w_c's field lies just below w_b's (registered above), so a wrapped carry would land in w_b
        left, right = power_of("w_c", e - 1) * Poly.var("w_b"), Poly.var("w_c") + Poly.var("w_a")
        if e > LIMIT:
            with pytest.raises(SizeLimitError):
                left * right
        else:
            product = left * right
            assert product.exponent_table(["w_c", "w_b", "w_a"]) == {(e, 1, 0): 1, (e - 1, 1, 1): 1}

    @pytest.mark.parametrize("e", [LIMIT - 1, LIMIT, LIMIT + 1])
    def test_pow(self, e):
        if e > LIMIT:
            with pytest.raises(SizeLimitError):
                Poly.var("w_b") ** e
            with pytest.raises(SizeLimitError):
                (2 * Poly.var("w_b") * Poly.var("w_c")) ** e
        else:
            assert Poly.var("w_b") ** e == power_of("w_b", e)

    @pytest.mark.parametrize("e", [LIMIT - 1, LIMIT, LIMIT + 1])
    def test_subst(self, e):
        p = power_of("w_c", e - 1) * Poly.var("w_a")
        if e > LIMIT:
            with pytest.raises(SizeLimitError):
                p.subst({"w_a": Poly.var("w_c")})
        else:
            assert p.subst({"w_a": Poly.var("w_c")}) == power_of("w_c", e)

    @pytest.mark.parametrize("e", [LIMIT - 1, LIMIT, LIMIT + 1])
    def test_divexact(self, e):
        # the leading term of the divisor is w_b^2, so its other term meets the quotient term w_c^(e-1)
        p, divisor = power_of("w_c", e - 1) * power_of("w_b", 2), power_of("w_b", 2) + Poly.var("w_c")
        with pytest.raises(SizeLimitError if e > LIMIT else InexactDivisionError):
            p.divexact(divisor)


ORDER_SCRIPT = r"""
import json, sys
from eulab import catalog
from eulab.exactalg import _NAMES, Poly, elementary_symmetric

letters = ["q_b", "q_a"] + [f"x_{i}" for i in range(5, 0, -1)]
if sys.argv[1] == "forward":
    letters.reverse()
for v in letters:
    Poly.var(v)
a, b = Poly.var("q_a"), Poly.var("q_b")
xs = [f"x_{i}" for i in range(1, 6)]
polys = [
    (a + 2 * b) ** 3 * (a - b) + Poly.var("x"),
    catalog("G9:4").iterate(Poly.var("x_1"), 4),
    elementary_symmetric(xs, 2) * b - elementary_symmetric(xs, 3) * a,
    ((a * b + 1) ** 3).subst({"q_a": Poly.var("x_3") - 1}),
    ((a + Poly.var("x_5")) ** 2 * (b - Poly.var("x_1"))).divexact(b - Poly.var("x_1")),
]
print(json.dumps([_NAMES.index(v) for v in ("q_a", "q_b", "x_1", "x_5")]))
print(json.dumps([[p.to_json(), str(p), [[t, str(c)] for t, c in p.text_terms()]] for p in polys]))
"""


def test_output_does_not_depend_on_registry_order():
    """Letters first seen in opposite orders, in two processes, print byte-identical output."""
    env = dict(os.environ, PYTHONPATH=str(Path(eulab.__file__).resolve().parents[1]))
    runs = [
        subprocess.run(
            [sys.executable, "-c", ORDER_SCRIPT, order], capture_output=True, text=True, env=env, check=True
        ).stdout.splitlines()
        for order in ("forward", "reverse")
    ]
    (fwd_fields, fwd_out), (rev_fields, rev_out) = runs
    qa, qb, x1, x5 = json.loads(fwd_fields)
    assert qa < qb and x1 < x5
    qa, qb, x1, x5 = json.loads(rev_fields)
    assert qa > qb and x1 > x5
    assert fwd_out == rev_out
