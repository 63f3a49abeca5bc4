import itertools
import random
import time
from collections import Counter

import pytest

import eulab.stirlingperm as stirlingperm_mod
from eulab.errors import InvalidParamError, SizeLimitError
from eulab.exactalg import MAX_EXPONENT, Poly, elementary_symmetric
from eulab.expand import second_order_poly_from_triangle
from eulab.grammar import g9, stirling_vars
from eulab.permstats import perm_poly
from eulab.stirlingperm import (
    _walk,
    guard,
    kth_order_poly,
    trivariate_second_order,
    word_count,
)
from reference_walks import gen, unpack, word_walk
from reference_walks import word_stats as stats

x = Poly.var("x")


def brute_words(n, k):
    """Independent oracle: filter all multiset arrangements by the gap condition."""
    letters = [i for i in range(1, n + 1) for _ in range(k)]
    found = set()
    for w in set(itertools.permutations(letters)):
        ok = True
        for value in range(1, n + 1):
            first = w.index(value)
            last = len(w) - 1 - w[::-1].index(value)
            if any(w[i] < value for i in range(first, last)):
                ok = False
                break
        if ok:
            found.add(w)
    return found


class TestGeneration:
    def test_order_two_words(self):
        assert sorted(gen(2, 2)) == [(1, 1, 2, 2), (1, 2, 2, 1), (2, 2, 1, 1)]

    def test_single_block(self):
        assert list(gen(1, 4)) == [(1, 1, 1, 1)]

    def test_cardinality_by_gap_product(self):
        assert len(list(gen(3, 2))) == 15
        assert word_count(3, 2) == 15
        assert word_count(5, 4) == 5 * 9 * 13 * 17

    def test_against_filtering_oracle(self):
        for n, k in ((4, 1), (3, 2), (2, 3), (3, 3)):
            assert set(gen(n, k)) == brute_words(n, k)

    def test_generated_words_satisfy_gap_condition(self):
        for n, k in ((5, 3), (4, 4)):
            for w in gen(n, k):
                for value in range(1, n + 1):
                    first = w.index(value)
                    last = len(w) - 1 - w[::-1].index(value)
                    assert all(w[i] >= value for i in range(first, last)), (w, value)

    def test_no_duplicates(self):
        words = list(gen(4, 2))
        assert len(words) == len(set(words))

    def test_guard(self):
        with pytest.raises(SizeLimitError):
            list(gen(12, 3))
        with pytest.raises(InvalidParamError):
            list(gen(0, 2))


def stats_vector(word, k):
    """The exponents of x_1..x_{k+1} recomputed from scratch by ``stats``."""
    st = stats(tuple(word), k)
    return [*st.plat_j, st.des, st.asc]


def walked(n, k):
    """The counting walk's counts by exponent vector, its keys decoded by the module's layout."""
    return unpack(_walk(n, k), stirlingperm_mod._layout(n, k), k + 1)


#: (n, k) for k = 1..4 and every n >= 1 with at most 10^4 words
SMALL = [(n, k) for k in range(1, 5) for n in range(1, 9) if word_count(n, k) <= 10**4]


class TestIncrementalWalk:
    """The counting walk against the reference walk and ``stats``, the from-scratch reference."""

    @pytest.mark.parametrize("n, k", [(4, 1), (5, 2), (4, 3), (3, 4)])
    def test_every_word(self, n, k):
        seen = 0
        for word, vec in word_walk(n, k):
            assert vec == stats_vector(word, k), word
            seen += 1
        assert seen == word_count(n, k)

    @pytest.mark.parametrize("n, k", [(7, 2), (6, 3)])
    def test_seeded_sample(self, n, k):
        picked = set(random.Random(n * 10 + k).sample(range(word_count(n, k)), 2000))
        checked = 0
        for i, (word, vec) in enumerate(word_walk(n, k)):
            if i in picked:
                assert vec == stats_vector(word, k), word
                checked += 1
        assert checked == 2000

    @pytest.mark.parametrize("n, k", SMALL)
    def test_counting_walk_matches_reference_walk(self, n, k):
        assert walked(n, k) == Counter(tuple(vec) for _, vec in word_walk(n, k))

    @pytest.mark.parametrize("n, k", SMALL)
    def test_counting_walk_matches_stats(self, n, k):
        assert walked(n, k) == Counter(tuple(stats_vector(w, k)) for w in gen(n, k))

    def test_counting_walk_larger_sizes(self):
        for n, k in ((7, 2), (6, 3), (5, 4)):
            assert walked(n, k) == Counter(tuple(vec) for _, vec in word_walk(n, k)), (n, k)

    def test_polynomial_decodes_the_reference_vectors(self):
        for n, k in SMALL:
            names = [f"x_{t + 1}" for t in range(k + 1)]
            keys = Counter(tuple(vec) for _, vec in word_walk(n, k))
            want = Poly.from_exponents((dict(zip(names, key)), c) for key, c in keys.items())
            assert kth_order_poly(n, k) == want, (n, k)

    def test_guard_runs_before_the_walk(self, monkeypatch):
        counted = []

        def spy(n, k, cap=None):  # the word count is the guard's last step before the walk
            counted.append((n, k))
            return word_count(n, k, cap)

        monkeypatch.setattr(stirlingperm_mod, "word_count", spy)
        with pytest.raises(SizeLimitError, match="32768 gaps"):
            _walk(MAX_EXPONENT, 1)
        with pytest.raises(SizeLimitError, match="32768 gaps"):
            gen(MAX_EXPONENT, 1)
        with pytest.raises(InvalidParamError):
            _walk(0, 2)
        assert counted == []
        with pytest.raises(SizeLimitError, match=r"\|Q_12\(3\)\| exceeds"):
            _walk(12, 3)
        assert counted == [(12, 3)]
        # 1122, 1221 and 2211 as (x_1, x_2, x_3) exponents
        assert walked(2, 2) == {(2, 1, 2): 1, (1, 2, 2): 1, (2, 2, 1): 1}
        assert counted == [(12, 3), (2, 2)]

    def test_key_fields_are_checked_before_the_walk(self, monkeypatch):
        guard(1, MAX_EXPONENT - 1)  # k + 1 = 32767 gaps, one word
        guard(2, MAX_EXPONENT // 2)  # 2k + 1 = 32767 gaps, k + 1 words
        with pytest.raises(SizeLimitError, match="32769 gaps"):
            guard(2, MAX_EXPONENT // 2 + 1)
        with pytest.raises(SizeLimitError, match="32770 gaps"):
            guard(MAX_EXPONENT // 3 + 1, 3)
        with pytest.raises(SizeLimitError, match="32768 gaps"):
            guard(MAX_EXPONENT, 1)
        # with a smaller field limit, a walk whose counts would pass it does not start
        monkeypatch.setattr(stirlingperm_mod, "MAX_EXPONENT", 7)
        assert _walk(3, 2)
        with pytest.raises(SizeLimitError, match="9 gaps"):
            _walk(4, 2)

    def test_guard_stops_counting_once_past_the_limit(self):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match=r"\|Q_2000\(1\)\| exceeds"):
            guard(2000, 1)
        assert time.perf_counter() - start < 0.1
        # a capped count is past the cap, and an uncapped one below it is exact
        assert 10**3 < word_count(2000, 1, cap=10**3) < 10**5
        assert word_count(9, 2, cap=10**8) == word_count(9, 2) == 34459425


class TestStats:
    def test_four_fold_example(self):
        st = stats((1, 1, 1, 2, 2, 3, 3, 3, 3, 2, 2, 1), 4)
        assert st.plat_j == (3, 2, 2)

    def test_boundary_convention(self):
        st = stats((1, 1, 2, 2), 2)
        assert (st.asc, st.plat, st.des) == (2, 2, 1)
        assert st.plat_j == (2,)

    def test_single_value_word(self):
        for k in (1, 2, 5):
            st = stats(tuple([1] * k), k)
            assert st.asc == 1 and st.des == 1
            assert st.plat_j == tuple([1] * (k - 1))

    def test_totals(self):
        for n, k in ((4, 2), (3, 3), (2, 4)):
            for w in gen(n, k):
                st = stats(w, k)
                assert st.asc + st.des + st.plat == k * n + 1
                assert sum(st.plat_j) == st.plat
                assert all(c <= n for c in st.plat_j)


class TestKthOrderPoly:
    def test_order_two_is_elementary_product(self):
        vs = stirling_vars(2)
        expected = elementary_symmetric(vs, 2) * elementary_symmetric(vs, 3)
        assert kth_order_poly(2, 2) == expected

    def test_univariate_specialization_second_order(self):
        for n in range(1, 6):
            got = kth_order_poly(n, 2).subst({"x_1": 1, "x_2": x, "x_3": 1})
            assert got == second_order_poly_from_triangle(n)

    def test_univariate_specialization_eulerian(self):
        # with the padded boundary, S_n words carry one forced descent and
        # one forced ascent, so the specialization carries a factor x
        for n in range(1, 6):
            got = kth_order_poly(n, 1).subst({"x_1": x, "x_2": 1})
            assert got == x * perm_poly(n, "eulerian")

    def test_symmetry(self):
        for k in range(1, 5):
            for n in range(1, 6):
                if word_count(n, k) > 10**5:
                    continue
                assert kth_order_poly(n, k).is_symmetric(list(stirling_vars(k)))

    def test_grammar_route(self):
        for k in range(1, 5):
            for n in range(1, 6):
                if word_count(n, k) > 10**5:
                    continue
                assert g9(k).iterate(Poly.var("x_1"), n) == kth_order_poly(n, k)

    def test_differential_recursion(self):
        xyz = Poly.var("x") * Poly.var("y") * Poly.var("z")
        for n in range(1, 7):
            c = trivariate_second_order(n)
            step = xyz * (c.diff("x") + c.diff("y") + c.diff("z"))
            assert step == trivariate_second_order(n + 1)

    def test_first_step_of_differential_recursion(self):
        c1 = trivariate_second_order(1)
        assert c1 == Poly.var("x") * Poly.var("y") * Poly.var("z")
        xyz = c1
        assert xyz * (c1.diff("x") + c1.diff("y") + c1.diff("z")) == trivariate_second_order(2)
