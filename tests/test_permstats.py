import itertools
import sys
from math import comb

import pytest

from eulab import permstats
from eulab.errors import InvalidParamError, OutOfRangeError, SizeLimitError
from eulab.exactalg import Poly
from eulab.expand import second_order_poly_from_triangle, triangle
from eulab.permstats import (
    FAMILIES,
    _perm_table,
    asc_suc_counts,
    diaconis_profile,
    perm_poly,
)
from eulab.series import egf_build
from reference_walks import perm_row, perm_sweep
from reference_walks import perm_stats as stats
from tuple_kernel import mono_from_exps

x, y, s = Poly.var("x"), Poly.var("y"), Poly.var("s")


def derangement_poly(n):
    """Sum of x^exc over the fixed-point-free permutations of [n]: the fixpoint family at y = 1, s = 0."""
    return perm_poly(n, "fixpoint").subst({"y": 1, "s": 0})


class TestStats:
    def test_single_descent(self):
        st = stats((2, 1))
        assert (st.des, st.asc, st.basc, st.suc) == (1, 0, 0, 0)

    def test_identity_permutation(self):
        n = 6
        st = stats(tuple(range(1, n + 1)))
        assert st.des == 0
        assert st.asc == n - 1
        assert st.suc == n - 1
        assert st.basc == 0
        assert st.fix == n

    def test_succession_and_fixed_sets(self):
        st = stats((2, 3, 1))
        assert st.suc_set == frozenset({1})
        assert st.fix_set_restricted == frozenset()

    def test_double_descent_boundary(self):
        # final positions count: 321 has a double descent at index 2
        assert stats((3, 2, 1)).ddes == 2
        assert stats((1, 3, 2)).ddes == 1
        assert stats((2, 1, 3)).ddes == 0

    def test_interior_peaks(self):
        assert stats((1, 3, 2)).ipk == 1
        assert stats((3, 1, 2)).ipk == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            stats((1, 1, 2))

    def test_decomposition_identities(self):
        for n in range(1, 9):
            for p in itertools.permutations(range(1, n + 1)):
                st = stats(p)
                assert st.asc == st.suc + st.basc
                assert st.asc + st.des == n - 1
                assert st.exc + st.aexc + st.fix == n


class TestPermPoly:
    def test_trivariate_closed_list(self):
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
            assert perm_poly(n, "trivariate") == value

    def test_small_sizes_per_family(self):
        assert perm_poly(1, "eulerian") == Poly.one()
        assert perm_poly(1, "trivariate") == Poly.one()
        assert perm_poly(1, "fixpoint") == s
        assert perm_poly(1, "bivariate") == y
        assert not derangement_poly(1)

    def test_derangements_of_three(self):
        # oracle: 231 has excedances at 1, 2; 312 has one at 1
        assert stats((2, 3, 1)).exc == 2
        assert stats((3, 1, 2)).exc == 1
        assert derangement_poly(3) == x + x**2

    def test_unknown_family(self):
        with pytest.raises(InvalidParamError):
            perm_poly(3, "nope")

    def test_factorial_guard(self):
        with pytest.raises(SizeLimitError):
            perm_poly(11, "eulerian")

    def test_eulerian_specializations(self):
        for n in range(8):
            a = perm_poly(n, "eulerian")
            tv = perm_poly(n, "trivariate")
            assert tv.subst({"y": 1, "s": x}) == a
            assert tv.subst({"x": 1, "y": x, "s": 1}) == a

    def test_eulerian_matches_triangle(self):
        for n in range(9):
            row = Poly.from_exponents(({"x": k}, triangle("eulerian", n, k)) for k in range(n + 1))
            assert perm_poly(n, "eulerian") == row

    def test_families_against_their_egfs(self):
        for name, read in (
            ("bivariate", lambda n: perm_poly(n, "bivariate")),
            ("fixpoint", lambda n: perm_poly(n, "fixpoint")),
            ("derangement", derangement_poly),
        ):
            series = egf_build(name, 6)
            for n in range(7):
                assert series.egf_coefficient(n) == read(n), (name, n)


class TestFrobeniusAndGammaInterpretations:
    def test_frobenius_identity(self):
        for n in range(1, 9):
            lhs = x * perm_poly(n, "eulerian")
            rhs = Poly.zero()
            for k in range(1, n + 1):
                rhs = rhs + triangle("surjection", n, k) * x**k * (1 - x) ** (n - k)
            assert lhs == rhs

    def test_no_double_descent_counts_for_small_n(self):
        # oracle: the double-descent-free permutations of [3] are 123, 213, 312
        free = [p for p in itertools.permutations(range(1, 4)) if stats(p).ddes == 0]
        assert sorted(free) == [(1, 2, 3), (2, 1, 3), (3, 1, 2)]
        assert perm_poly(3, "gamma-eulerian-no-ddes") == 1 + 2 * x

    def test_stembridge_identity(self):
        for n in range(1, 9):
            lhs = perm_poly(n, "eulerian").scale(2 ** (n - 1))
            rhs = Poly.zero()
            for mono, c in perm_poly(n, "peak").items():
                i = dict(mono).get("x", 0)
                rhs = rhs + c * 4**i * x**i * (1 + x) ** (n - 1 - 2 * i)
            assert lhs == rhs


class TestTriangles:
    def test_values(self):
        assert triangle("second-order-eulerian", 3, 2) == 8
        assert triangle("surjection", 4, 3) == 36  # 3! S(4, 3)
        assert triangle("eulerian", 4, 1) == 11

    def test_second_order_closed_form(self):
        for n in range(2, 21):
            assert triangle("second-order-eulerian", n, 2) == 2 ** (n + 1) - 2 * (n + 1)

    def test_second_order_row_five(self):
        assert [triangle("second-order-eulerian", 5, j) for j in range(1, 6)] == [
            1,
            52,
            328,
            444,
            120,
        ]

    def test_polynomial_assembly(self):
        assert second_order_poly_from_triangle(2) == x + 2 * x**2
        assert [triangle("eulerian", 3, k) for k in range(4)] == [1, 4, 1, 0]
        assert perm_poly(3, "eulerian") == 1 + 4 * x + x**2

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            triangle("surjection", 61, 3)
        with pytest.raises(OutOfRangeError):
            triangle("surjection", 4, 5)
        with pytest.raises(InvalidParamError):
            triangle("nope", 3, 1)


class TestProfilesAndJointCounts:
    def test_diaconis_profile_small(self):
        by_suc, by_fix = diaconis_profile(3)
        expected = {
            frozenset(): 3,
            frozenset({1}): 1,
            frozenset({2}): 1,
            frozenset({1, 2}): 1,
        }
        assert by_suc == expected
        assert by_fix == expected

    def test_diaconis_profile_trivial(self):
        by_suc, by_fix = diaconis_profile(1)
        assert by_suc == {frozenset(): 1}
        assert by_fix == {frozenset(): 1}

    def test_diaconis_profiles_equal(self):
        for n in range(1, 7):
            by_suc, by_fix = diaconis_profile(n)
            assert by_suc == by_fix

    def test_diaconis_profile_empty(self):
        assert diaconis_profile(0) == ({frozenset(): 1}, {frozenset(): 1})

    def test_profile_guard(self):
        with pytest.raises(SizeLimitError, match="n=11 exceeds"):
            diaconis_profile(11)

    def test_roselle_relation(self):
        for n in range(1, 8):
            counts = asc_suc_counts(n)
            for r in range(n):
                for sc in range(1, n):
                    lhs = counts.get((r, sc), 0)
                    rhs = 0
                    if r - sc >= 0:
                        rhs = comb(n - 1, sc) * asc_suc_counts(n - sc).get((r - sc, 0), 0)
                    assert lhs == rhs, (n, r, sc)


def _row_as_stats(p, n):
    """What ``perm_row`` computes, in the terms of ``stats``."""
    key, suc_mask, fix_mask = perm_row(p, n)
    as_set = lambda mask: frozenset(i for i in range(n + 1) if mask >> i & 1)
    return key, as_set(suc_mask), as_set(fix_mask)


def _stats_as_row(p):
    st = stats(p)
    key = (st.des, st.suc, st.exc, st.fix, st.ddes, st.ipk)
    return key, st.suc_set, st.fix_set_restricted


def _reference_weights(st):
    """Exponents of p in every family, read off ``stats`` (None: p is left out)."""
    return {
        "eulerian": {"x": st.des},
        "trivariate": {"x": st.basc, "y": st.des, "s": st.suc},
        "fixpoint": {"x": st.exc, "y": st.aexc, "s": st.fix},
        "bivariate": {"x": st.asc, "y": st.des + 1},
        "gamma-eulerian-no-ddes": {"x": st.des} if st.ddes == 0 else None,
        "peak": {"x": st.ipk},
    }


class TestOneSweepTable:
    """The prefix walk against the reference sweep, and every projection against ``stats``."""

    def test_walk_equals_reference_sweep(self):
        # S_10 is left out: its reference sweep takes about 10 s
        for n in range(10):
            assert _perm_table(n) == perm_sweep(n), n

    def test_memo_depth_does_not_change_the_walk(self, monkeypatch):
        # from the whole sweep out of the memo (tail n) down to one position from it
        for n in range(8):
            want = perm_sweep(n)
            for tail in range(1, n + 1):
                monkeypatch.setattr(permstats, "_TAIL", tail)
                assert _perm_table.__wrapped__(n) == want, (n, tail)

    def test_each_cold_sweep_builds_its_own_memo(self):
        # S_8 reads the memo below each of its 8!/3! prefixes; a memo kept from
        # the first sweep would leave the second nothing to build
        calls = []

        def count_tails(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == permstats.__file__ and frame.f_code.co_name == "tails":
                calls[-1] += 1

        sys.setprofile(count_tails)
        try:
            for _ in range(2):
                calls.append(0)
                _perm_table.__wrapped__(8)
        finally:
            sys.setprofile(None)
        assert calls[0] == calls[1] > 40320 // 6

    def test_reference_rows_agree_with_stats(self):
        for n in range(8):
            for p in itertools.permutations(range(1, n + 1)):
                assert _row_as_stats(p, n) == _stats_as_row(p), p

    def test_projections_match_direct_counting(self):
        for f in FAMILIES:
            assert perm_poly(0, f) == Poly.one()
        assert asc_suc_counts(0) == {(0, 0): 1}
        for n in range(1, 9):
            terms = {f: {} for f in FAMILIES}
            by_suc, by_fix, asc_suc = {}, {}, {}
            for p in itertools.permutations(range(1, n + 1)):
                st = stats(p)
                for f, exps in _reference_weights(st).items():
                    if exps is not None:
                        mono = mono_from_exps(exps)
                        terms[f][mono] = terms[f].get(mono, 0) + 1
                by_suc[st.suc_set] = by_suc.get(st.suc_set, 0) + 1
                by_fix[st.fix_set_restricted] = by_fix.get(st.fix_set_restricted, 0) + 1
                asc_suc[(st.asc, st.suc)] = asc_suc.get((st.asc, st.suc), 0) + 1
            for f in FAMILIES:
                assert dict(perm_poly(n, f).items()) == terms[f], (n, f)
            assert diaconis_profile(n) == (by_suc, by_fix), n
            assert asc_suc_counts(n) == asc_suc, n

    def test_profile_returns_fresh_dicts(self):
        by_suc, by_fix = diaconis_profile(5)
        expected = (dict(by_suc), dict(by_fix))
        by_suc[frozenset({1})] += 100
        by_fix.clear()
        assert diaconis_profile(5) == expected

    def test_guard_runs_before_any_enumeration(self):
        def no_walk(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename == permstats.__file__ and code.co_name == "grow":
                raise AssertionError("enumeration started")

        sys.setprofile(no_walk)
        try:
            with pytest.raises(SizeLimitError):
                perm_poly(11, "eulerian")
            with pytest.raises(SizeLimitError):
                diaconis_profile(12)
            with pytest.raises(AssertionError, match="enumeration started"):
                _perm_table.__wrapped__(3)  # the watch sees a walk that starts
        finally:
            sys.setprofile(None)
