"""The exact kernel against sympy's ``Poly`` over QQ, an independent implementation.

The EGF numerators are checked against sympy's truncated power series
(``sympy.polys.ring_series``) of the closed forms in the ``egf_build`` docstring.
sympy is a test aid only: without it this module is skipped.
"""

import itertools
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import coefficients, polys
from eulab.errors import InexactDivisionError
from eulab.exactalg import Poly, poly_sum
from eulab.series import egf_build

sympy = pytest.importorskip("sympy")
from sympy.polys.polyerrors import ExactQuotientFailed  # noqa: E402
from sympy.polys.ring_series import rs_exp, rs_mul, rs_series_inversion  # noqa: E402

NAMES = ("s", "u", "w", "x", "y")
GENS = sympy.symbols(NAMES)


def to_sympy(p):
    """The same polynomial as a sympy Poly in s, u, w, x, y over QQ."""
    assert set(p.variables()) <= set(NAMES)
    table = p.exponent_table(NAMES)
    return sympy.Poly.from_dict(
        {key: sympy.QQ(c.numerator, c.denominator) for key, c in table.items()}, *GENS, domain=sympy.QQ
    )


def sympy_symmetric(p, variables):
    """Invariance of the expression under every permutation of ``variables``."""
    expr = to_sympy(p).as_expr()
    symbols = [sympy.Symbol(v) for v in variables]
    return all(
        sympy.expand(expr.xreplace(dict(zip(symbols, perm))) - expr) == 0
        for perm in itertools.permutations(symbols)
    )


small = polys(max_terms=3, max_exp=2)
images = st.one_of(coefficients(), polys(variables=("x", "u"), max_terms=3, max_exp=2))
variable_lists = st.sampled_from([["x", "y"], ["x", "y", "s"], ["s", "x"], ["x", "y", "w"]])


class TestKernelAgainstSympy:
    @given(polys(), polys())
    def test_mul(self, p, q):
        assert to_sympy(p * q) == to_sympy(p) * to_sympy(q)

    @given(small, st.integers(0, 4))
    def test_pow(self, p, n):
        assert to_sympy(p**n) == to_sympy(p) ** n

    @given(polys(), st.sampled_from(NAMES))
    def test_diff(self, p, var):
        assert to_sympy(p.diff(var)) == to_sympy(p).diff(sympy.Symbol(var))

    @given(polys(), st.dictionaries(st.sampled_from(["x", "y", "s"]), images))
    def test_subst(self, p, mapping):
        replace = {
            sympy.Symbol(v): to_sympy(img if isinstance(img, Poly) else Poly.const(img)).as_expr()
            for v, img in mapping.items()
        }
        expected = sympy.Poly(to_sympy(p).as_expr().xreplace(replace), *GENS, domain=sympy.QQ)
        assert to_sympy(p.subst(mapping)) == expected

    @given(polys(), polys().filter(bool), polys(max_terms=2))
    def test_divexact(self, p, q, r):
        f = p * q + r
        try:
            expected = to_sympy(f).exquo(to_sympy(q))
        except ExactQuotientFailed:
            with pytest.raises(InexactDivisionError):
                f.divexact(q)
        else:
            assert to_sympy(f.divexact(q)) == expected

    @given(small, variable_lists, st.integers(0, 3), st.integers(0, 50), coefficients())
    def test_is_symmetric(self, p, variables, orbit, index, delta):
        # symmetrize over the first ``orbit`` variables, then perhaps move one coefficient
        head = variables[:orbit]
        cand = poly_sum(
            p.subst(dict(zip(head, map(Poly.var, perm)))) for perm in itertools.permutations(head)
        )
        if cand:
            table = sorted(cand.exponent_table(NAMES))
            key = table[index % len(table)]
            cand = cand + Poly.from_exponents([(dict(zip(NAMES, key)), delta)])
        assert cand.is_symmetric(variables) == sympy_symmetric(cand, variables)


#: the EGF numerators n! [z^n] compared, for n = 0 .. EGF_ORDER
EGF_ORDER = 7
FIELD = sympy.QQ.frac_field(*sympy.symbols("x y s"))


def sympy_egf(name):
    """The closed form of ``name`` as a series in z over QQ(x, y, s), to O(z^(EGF_ORDER + 1))."""
    _, z = sympy.polys.rings.ring("z", FIELD)
    x, y, s = FIELD.gens
    prec = EGF_ORDER + 1

    def e(c):
        return rs_exp(c * z, z, prec)

    core = (y - x) * rs_series_inversion(y * e(x) - x * e(y), z, prec)
    forms = {
        "trivariate": lambda: rs_mul(rs_mul(e(y + s), core, z, prec), core, z, prec),
        "fixpoint": lambda: rs_mul(e(s), core, z, prec),
        "bivariate": lambda: rs_mul(e(y), core, z, prec),
        "no-succession": lambda: (1 - x) * rs_series_inversion(e(x) - x * e(FIELD.one), z, prec),
    }
    return forms[name]()


class TestSeriesAgainstSympy:
    @pytest.mark.parametrize("name", ["trivariate", "fixpoint", "bivariate", "no-succession"])
    def test_egf_numerators(self, name):
        expected = sympy_egf(name)
        series = egf_build(name, EGF_ORDER)
        for n in range(EGF_ORDER + 1):
            got = FIELD.from_sympy(to_sympy(series.egf_coefficient(n)).as_expr())
            assert got == expected.get((n,), FIELD.zero) * factorial(n), (name, n)
