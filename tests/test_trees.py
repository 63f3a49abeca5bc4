import time
from collections import Counter

import pytest

import eulab.trees as trees_mod
from eulab.errors import InvalidParamError, SizeLimitError
from eulab.exactalg import MAX_EXPONENT, Poly
from eulab.expand import gamma_expand, gamma_tables, triangle
from eulab.grammar import g4, histogram_rows
from eulab.permstats import perm_poly
from eulab.trees import (
    WEIGHTINGS,
    FamilySpec,
    default_spec,
    tree_count,
    tree_weight_poly,
)
from reference_walks import pack, tree_walk, trees_gen

u, v, t, x = Poly.var("u"), Poly.var("v"), Poly.var("t"), Poly.var("x")


def histogram_table(n):
    """Degree-histogram counts (i_1..i_n) over plane trees on [n] (tree route)."""
    return tree_weight_poly(n, "deghist").exponent_table([f"m_{j}" for j in range(1, n + 1)])


class TestGeneration:
    def test_two_vertex_families_are_singletons(self):
        assert len(list(trees_gen(1, FamilySpec("plane", None)))) == 1
        assert len(list(trees_gen(1, FamilySpec("nonplane", 2)))) == 1
        assert len(list(trees_gen(1, FamilySpec("forest012")))) == 1

    def test_degree_two_chain_and_star(self):
        ts = list(trees_gen(2, FamilySpec("nonplane", 2)))
        shapes = {tree.canonical() for tree in ts}
        assert shapes == {(0, (1, (2,))), (0, (1,), (2,))}

    def test_plane_orders_are_distinct(self):
        ts = list(trees_gen(3, FamilySpec("plane", None)))
        assert len(ts) == 3  # chain plus two orders of the two-leaf star
        assert len({tree.canonical() for tree in ts}) == 3

    def test_unbounded_plane_counts_are_double_factorials(self):
        counts = [len(list(trees_gen(n, FamilySpec("plane", None)))) for n in range(1, 7)]
        assert counts == [1, 1, 3, 15, 105, 945]

    def test_no_family_produces_duplicates(self):
        specs = [
            FamilySpec("nonplane", 2),
            FamilySpec("plane", 2),
            FamilySpec("plane", 3),
            FamilySpec("forest012"),
        ]
        for spec in specs:
            for n in range(spec.root, 7):
                seen = set()
                for tree in trees_gen(n, spec):
                    key = tree.canonical()
                    assert key not in seen, (spec, n)
                    seen.add(key)

    def test_labels_increase_along_paths(self):
        for tree in trees_gen(5, FamilySpec("plane", 3)):
            for parent_label in range(1, 6):
                for child in tree.children[parent_label]:
                    assert child > parent_label

    def test_forest_degree_constraints(self):
        for tree in trees_gen(6, FamilySpec("forest012")):
            for child in tree.children[0]:
                assert tree.degree(child) <= 1
            for vertex in range(1, 7):
                if vertex not in tree.children[0]:
                    assert tree.degree(vertex) <= 2

    def test_bad_kind(self):
        with pytest.raises(InvalidParamError):
            FamilySpec("triangular")


class TestWeights:
    def test_andre_two(self):
        assert tree_weight_poly(2, "andre") == u * v**2 + u**2

    def test_andre_equals_grammar_route(self):
        for n in range(8):
            assert tree_weight_poly(n, "andre") == g4().iterate(u, n)

    def test_forest_histogram_three(self):
        assert tree_weight_poly(3, "forest-gamma") == t**3 + 3 * t * u + u

    def test_forest_matches_recurrence_table(self):
        table = gamma_tables("gamma-nij", 7)
        for n in range(8):
            got = {}
            for mono, c in tree_weight_poly(n, "forest-gamma").items():
                exps = dict(mono)
                got[(exps.get("t", 0), exps.get("u", 0))] = c
            assert got == table.values[n], n

    def test_plane_leaf_counts_give_gamma_coefficients(self):
        for n in range(1, 9):
            xa = x * perm_poly(n, "eulerian")
            expansion = gamma_expand(xa, "x", n + 1)
            # the leaf counts of 0-1-2 plane trees: the m_1 column of deghist at maxdeg 2
            got = {i: c for (i,), c in tree_weight_poly(n, "deghist", 2).exponent_table(["m_1"]).items()}
            # gamma_(n,i-1) in x^i (1+x)^(n+1-2i) equals trees with i leaves
            want = {i: c for (i,), c in expansion.coeffs.items()}
            assert got == want, n

    def test_histogram_small(self):
        assert histogram_table(3) == {(1, 2, 0): 1, (2, 0, 1): 2}

    def test_histogram_five_matches_expansion_coefficients(self):
        assert histogram_table(5) == {
            (1, 4, 0, 0, 0): 1,
            (2, 2, 1, 0, 0): 22,
            (3, 0, 2, 0, 0): 16,
            (3, 1, 0, 1, 0): 42,
            (4, 0, 0, 0, 1): 24,
        }

    def test_histogram_independent_of_inactive_bound(self):
        for n in range(2, 7):
            base = tree_weight_poly(n, "deghist", None)
            for k in (n - 2, n - 1, n):
                assert tree_weight_poly(n, "deghist", k + 1) == base

    def test_closed_form_rows_from_trees(self):
        for n in range(3, 8):
            table = histogram_table(n)
            key = (2, n - 3, 1) + (0,) * (n - 3)
            assert table[key] == 2**n - 2 * n

    def test_histograms_match_grammar_table(self):
        rows = histogram_rows(6)
        for n in range(1, 7):
            assert histogram_table(n) == rows[n], n

    def test_leaf_counts_match_second_order_numbers(self):
        for n in range(1, 8):
            counts = tree_weight_poly(n + 1, "deghist").exponent_table(["m_1"])
            for (j,), c in counts.items():
                assert c == triangle("second-order-eulerian", n, j)

    def test_degree_histogram_edge_identity(self):
        # sum of (j-1) * i_j over any histogram equals vertex count - 1
        for key, _ in histogram_table(6).items():
            assert sum(j * c for j, c in enumerate(key)) == 5
            assert sum(key) == 6

    def test_default_specs(self):
        assert default_spec("andre") == FamilySpec("nonplane", 2)
        assert default_spec("deghist", 4) == FamilySpec("plane", 4)
        with pytest.raises(InvalidParamError):
            default_spec("nope")

    def test_forest_gamma_walks_one_family_whatever_maxdeg(self):
        tree_weight_poly.cache_clear()
        trees_mod._walk.cache_clear()
        assert default_spec("forest-gamma", 3) == FamilySpec("forest012")
        assert tree_weight_poly(6, "forest-gamma") == tree_weight_poly(6, "forest-gamma", 3)
        assert trees_mod._walk.cache_info().misses == 1


def key_from_snapshot(tree, n):
    """Degree histogram plus leaf children of the root, recomputed from the children."""
    degrees = [tree.degree(v) for v in range(tree.root, n + 1)]
    hist = [degrees.count(j) for j in range(n - tree.root + 1)]
    root_leaves = sum(1 for c in tree.children[tree.root] if not tree.children[c])
    return (*hist, root_leaves)


FAMILIES = [
    FamilySpec("nonplane", 0),
    FamilySpec("nonplane", 1),
    FamilySpec("nonplane", 2),
    FamilySpec("nonplane", None),
    FamilySpec("plane", 0),
    FamilySpec("plane", 1),
    FamilySpec("plane", 2),
    FamilySpec("plane", 3),
    FamilySpec("plane", None),
    FamilySpec("forest012"),
]


#: every family a weighting is summed over: the caller's maxdeg reaches deghist only
WALKED = list(dict.fromkeys([*map(default_spec, WEIGHTINGS), *(default_spec("deghist", d) for d in range(9))]))


class TestIncrementalWalk:
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_walk_key_matches_snapshot(self, weighting):
        for spec in dict.fromkeys(default_spec(weighting, maxdeg) for maxdeg in (None, 2, 3)):
            for n in range(spec.root, 8):
                seen = 0
                for tree, (_, state) in zip(trees_gen(n, spec), tree_walk(n, spec)):
                    assert tuple(state) == key_from_snapshot(tree, n), tree
                    seen += 1
                assert seen == tree_count(n, spec)

    @pytest.mark.parametrize("spec", WALKED, ids=lambda s: f"{s.kind}-{s.maxdeg}")
    def test_counting_walk_matches_reference_walk(self, spec):
        for n in range(spec.root, 8):
            want = Counter(pack(state) for _, state in tree_walk(n, spec))
            assert trees_mod._walk(n, spec) == want, n

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.kind}-{s.maxdeg}")
    def test_counting_walk_matches_snapshots(self, spec):
        for n in range(spec.root, 7):
            want = Counter(pack(key_from_snapshot(tree, n)) for tree in trees_gen(n, spec))
            assert trees_mod._walk(n, spec) == want, n

    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_weights_decode_the_reference_keys(self, weighting):
        project = trees_mod._WEIGHTINGS[weighting][2]
        for maxdeg in (None, 2, 3, 4):
            spec = default_spec(weighting, maxdeg)
            for n in range(spec.root, 8):
                keys = Counter(tuple(state) for _, state in tree_walk(n, spec))
                want = Poly.from_exponents((project(key[:-1], key[-1], n), c) for key, c in keys.items())
                assert tree_weight_poly(n, weighting, maxdeg) == want, (n, maxdeg)

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.kind}-{s.maxdeg}")
    def test_count_matches_enumeration(self, spec):
        for n in range(spec.root, 8):
            assert tree_count(n, spec) == sum(1 for _ in trees_gen(n, spec)), n
            assert tree_count(n, spec) == sum(trees_mod._walk(n, spec).values()), n

    def test_count_closed_forms(self):
        double_factorial = lambda m: 1 if m < 1 else m * double_factorial(m - 2)
        factorial = lambda m: 1 if m < 1 else m * factorial(m - 1)
        for n in range(1, 16):
            assert tree_count(n, FamilySpec("plane", None)) == double_factorial(2 * n - 3)
            assert tree_count(n, FamilySpec("nonplane", None)) == factorial(n)

    def test_guard_trips_before_any_tree(self, monkeypatch):
        # the count is the guard's last step before the walk
        counted = []
        count = trees_mod.tree_count

        def spy(n, spec, cap=None):
            counted.append(n)
            return count(n, spec, cap)

        monkeypatch.setattr(trees_mod, "TREE_GUARD", 10)
        monkeypatch.setattr(trees_mod, "tree_count", spy)
        tree_weight_poly.cache_clear()
        trees_mod._walk.cache_clear()  # a cached family is not walked, so not guarded, again
        with pytest.raises(SizeLimitError, match="more than 10$"):
            tree_weight_poly(5, "deghist")
        with pytest.raises(SizeLimitError, match="more than 10$"):
            trees_mod._walk(5, FamilySpec("plane", None))
        with pytest.raises(SizeLimitError, match="more than 10$"):
            list(trees_gen(5, FamilySpec("plane", None)))
        with pytest.raises(SizeLimitError, match="depth bound"):
            trees_mod._walk(trees_mod.MAX_DEPTH + 1, FamilySpec("plane", 1))
        assert counted == [5, 5, 5]
        assert trees_mod._walk(3, FamilySpec("plane", None)) == {pack((1, 2, 0, 0)): 1, pack((2, 0, 1, 2)): 2}
        assert counted == [5, 5, 5, 3]

    def test_key_fields_are_checked_before_the_walk(self, monkeypatch):
        # a field counts at most the n + 1 vertices, so the depth bound keeps every field in range
        assert trees_mod.MAX_DEPTH + 1 <= MAX_EXPONENT
        depth = trees_mod.MAX_DEPTH
        assert tree_weight_poly(depth, "deghist", 1) == Poly.var("m_1") * Poly.var("m_2") ** (depth - 1)
        with pytest.raises(SizeLimitError, match=f"n={depth + 1} exceeds"):
            trees_mod.guard(depth + 1, FamilySpec("plane", 1))
        with pytest.raises(SizeLimitError, match="depth bound"):
            tree_weight_poly(1500, "deghist", 1)  # a path: one tree, deeper than the walk can recurse
        # with a smaller depth bound, a walk past it does not start
        monkeypatch.setattr(trees_mod, "MAX_DEPTH", 3)
        trees_mod._walk.cache_clear()
        assert trees_mod._walk(3, FamilySpec("plane", None))
        with pytest.raises(SizeLimitError, match="n=4 exceeds"):
            trees_mod._walk(4, FamilySpec("plane", None))

    def test_guard_is_checked_when_the_stream_is_made(self):
        with pytest.raises(SizeLimitError, match="34459425 trees"):
            trees_mod._walk(10, FamilySpec("plane", None))
        with pytest.raises(SizeLimitError, match="34459425 trees"):
            trees_gen(10, FamilySpec("plane", None))
        with pytest.raises(SizeLimitError):
            tree_weight_poly(40, "andre")

    def test_guard_stops_counting_once_past_the_limit(self):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError):
            trees_mod._walk(200, FamilySpec("plane", None))
        with pytest.raises(SizeLimitError):
            trees_gen(200, FamilySpec("plane", None))
        with pytest.raises(SizeLimitError):
            tree_weight_poly(500, "andre")
        assert time.perf_counter() - start < 1.0
        # a capped count is past the cap, and an uncapped one below it is exact
        assert 10**3 < tree_count(60, FamilySpec("plane", None), cap=10**3) < 10**5
        assert tree_count(9, FamilySpec("plane", None), cap=10**7) == 2027025


#: the families and depths the oracle-deep benchmark walks, past the range of the tests above
DEEP_WALKS = [
    (FamilySpec("nonplane", 2), 9),
    (FamilySpec("nonplane", 2), 10),
    (FamilySpec("forest012"), 9),
    (FamilySpec("plane", None), 8),
]


class TestOpenVertexWalk:
    @pytest.mark.parametrize("spec, n", DEEP_WALKS, ids=[f"{s.kind}-{s.maxdeg}-{n}" for s, n in DEEP_WALKS])
    def test_deep_walk_matches_reference_walk(self, spec, n):
        want = Counter(pack(state) for _, state in tree_walk(n, spec))
        assert trees_mod._walk(n, spec) == want

    @pytest.mark.parametrize("spec", WALKED, ids=lambda s: f"{s.kind}-{s.maxdeg}")
    def test_memo_depth_does_not_change_the_walk(self, spec, monkeypatch):
        # from the whole walk out of the memo (tail n - root + 1) down to one label from it
        for n in range(spec.root, 8):
            want = Counter(pack(state) for _, state in tree_walk(n, spec))
            for tail in range(1, n - spec.root + 2):
                monkeypatch.setattr(trees_mod, "_TAIL", tail)
                assert trees_mod._walk.__wrapped__(n, spec) == want, (n, tail)

    def test_tails_are_read_once_per_prefix_tree(self, monkeypatch):
        # andre n = 10 places labels 8..10 from the memo below each tree on {0..7}, one update each
        made, updates = [], []

        class Spy(Counter):
            def __init__(self, *args):
                made.append(self)
                super().__init__(*args)

            def update(self, *args, **kwds):
                updates.append(self)
                super().update(*args, **kwds)

        spec = FamilySpec("nonplane", 2)
        monkeypatch.setattr(trees_mod, "Counter", Spy)
        walked = trees_mod._walk.__wrapped__(10, spec)
        assert sum(walked.values()) == tree_count(10, spec) == 353792
        # each Counter made calls update once, from __init__
        assert len(updates) - len(made) == tree_count(7, spec) == 1385

    def test_small_families_by_hand(self):
        walk = trees_mod._walk
        assert walk(0, FamilySpec("nonplane", 2)) == {1: 1}  # the root alone
        assert walk(1, FamilySpec("nonplane", 2)) == {pack((1, 1, 1)): 1}  # one leaf child of the root
        # a root bound of 0 leaves only the lone root
        assert walk(0, FamilySpec("nonplane", 0)) == {1: 1}
        assert walk(1, FamilySpec("nonplane", 0)) == {} and tree_count(1, FamilySpec("nonplane", 0)) == 0
        assert walk(1, FamilySpec("plane", 0)) == {1: 1}
        assert walk(3, FamilySpec("plane", 0)) == {} and tree_count(3, FamilySpec("plane", 0)) == 0
        # plane maxdeg 1: one path on [n], with one leaf and n - 1 vertices of degree 1
        for n in range(1, 8):
            assert walk(n, FamilySpec("plane", 1)) == {pack((1, n - 1) + (0,) * (n - 2) + (int(n == 2),)): 1}, n
        # a plane vertex of degree d offers d + 1 gaps: the two orders of the star on [3], and its chain
        assert walk(3, FamilySpec("plane", None)) == {pack((2, 0, 1, 2)): 2, pack((1, 2, 0, 0)): 1}
        assert walk(4, FamilySpec("plane", None))[pack((3, 0, 0, 1, 3))] == 6  # 3! orders of the 3-star

    def test_saturated_vertices_are_not_visited(self, monkeypatch):
        # no attachment below a vertex at its bound: every state the walk reads offers a position
        table = trees_mod._states(10, FamilySpec("nonplane", 2))
        read = []

        class Spy(list):
            def __getitem__(self, s):
                read.append(s)
                return list.__getitem__(self, s)

        monkeypatch.setattr(trees_mod, "_states", lambda n, spec: Spy(table))
        trees_mod._walk.cache_clear()
        trees_mod._walk(10, FamilySpec("nonplane", 2))
        assert read and all(table[s][2] for s in read)


def test_size_guard(monkeypatch):
    monkeypatch.setattr(trees_mod, "TREE_GUARD", 10)
    trees_mod._walk.cache_clear()
    with pytest.raises(SizeLimitError):
        trees_mod._walk(5, FamilySpec("plane", None))
    with pytest.raises(SizeLimitError):
        list(trees_gen(5, FamilySpec("plane", None)))
