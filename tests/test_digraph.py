"""Core digraph operations: frozen examples plus relational property tests."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domainlearn.digraph import (
    LabeledDigraph,
    equivalence_partition,
    error_set,
    induced_subgraph,
    is_irreducible,
)
from domainlearn.oracle import is_strong_homomorphism, oracle_partition

from .strategies import clone_vertex, digraphs, digraphs_with_pair


def two_edge_graph() -> LabeledDigraph:
    # vertices 0,1,2 with edges (0,r,2) and (1,r,2): 0 and 1 are twins
    return LabeledDigraph(1, range(3), [(0, 0, 2), (1, 0, 2)])


def indistinguishable(g: LabeledDigraph, u: int, v: int) -> bool:
    """Test-local literal definition: true iff u and v have identical
    labelled adjacency toward every vertex, with the pair itself treated
    interchangeably.

    Linear in |V| * k, and independent of both partitions it checks: for every
    right the four pair edges (u,a,u), (u,a,v), (v,a,u), (v,a,v) must be all
    present or all absent, and every third vertex x must see u and v
    identically in both directions.
    """
    for x in (u, v):
        if not g.has_vertex(x):
            raise ValueError(f"vertex {x} not in graph")
    if u == v:
        return True
    for a in range(g.k):
        four = (
            g.has_edge(u, a, u),
            g.has_edge(u, a, v),
            g.has_edge(v, a, u),
            g.has_edge(v, a, v),
        )
        if any(four) and not all(four):
            return False
    for x in g.vertices:
        if x == u or x == v:
            continue
        for a in range(g.k):
            if g.has_edge(u, a, x) != g.has_edge(v, a, x):
                return False
            if g.has_edge(x, a, u) != g.has_edge(x, a, v):
                return False
    return True


def brute_force_errors(g: LabeledDigraph, summary: LabeledDigraph, assignment):
    """Test-local exhaustive enumeration of all |V|^2 * k requests."""
    grants, denies = set(), set()
    for u in g.vertices:
        for a in range(g.k):
            for v in g.vertices:
                allowed = summary.has_edge(assignment[u], a, assignment[v])
                actual = g.has_edge(u, a, v)
                if allowed and not actual:
                    grants.add((u, a, v))
                elif actual and not allowed:
                    denies.add((u, a, v))
    return grants, denies


class TestConstruction:
    def test_rejects_duplicate_vertex(self):
        g = LabeledDigraph(1, [0])
        with pytest.raises(ValueError):
            g.add_vertex(0)

    def test_rejects_edge_with_unknown_endpoint(self):
        g = LabeledDigraph(1, [0])
        with pytest.raises(ValueError):
            g.add_edge(0, 0, 5)

    def test_rejects_out_of_range_right(self):
        g = LabeledDigraph(2, [0, 1])
        with pytest.raises(ValueError):
            g.add_edge(0, 2, 1)

    def test_duplicate_edge_is_noop(self):
        g = LabeledDigraph(1, [0, 1], [(0, 0, 1)])
        g.add_edge(0, 0, 1)
        assert g.edge_count == 1

    def test_equality_ignores_insertion_order(self):
        a = LabeledDigraph(2, [0, 1], [(0, 1, 1), (1, 0, 0)])
        b = LabeledDigraph(2, [1, 0], [(1, 0, 0), (0, 1, 1)])
        assert a == b


class TestMaskStore:
    """The per-right bitmasks are the only edge store; every view of the
    edges is derived from them and must agree with the others."""

    @given(digraphs())
    def test_in_masks_mirror_out_masks(self, g):
        for a in range(g.k):
            for u in g.vertices:
                for v in g.vertices:
                    out_bit = (g.out_mask(a, u) >> v) & 1
                    in_bit = (g.in_mask(a, v) >> u) & 1
                    assert out_bit == in_bit == g.has_edge(u, a, v)

    @given(digraphs())
    def test_edges_sorted_counted_and_round_trip(self, g):
        edges = g.edges()
        assert edges == sorted(set(edges))
        assert g.edge_count == len(edges)
        assert LabeledDigraph(g.k, g.vertices, edges) == g

    @given(digraphs())
    def test_dropping_an_edge_breaks_equality(self, g):
        edges = g.edges()
        if edges:
            assert LabeledDigraph(g.k, g.vertices, edges[1:]) != g


def _copy(g: LabeledDigraph) -> LabeledDigraph:
    return LabeledDigraph(g.k, g.vertices, g.edges())


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


class TestConnect:
    """``connect`` inserts a vertex's edges under one right from two masks;
    it must build exactly what per-bit ``add_edge`` calls build."""

    @given(digraphs(min_n=1), st.data())
    def test_matches_per_bit_add_edge(self, g, data):
        vertices = g.vertices
        v = data.draw(st.sampled_from(vertices))
        a = data.draw(st.integers(0, g.k - 1))
        targets = data.draw(st.sets(st.sampled_from(vertices)))
        sources = data.draw(st.sets(st.sampled_from(vertices)))
        expected = _copy(g)
        for t in targets:
            expected.add_edge(v, a, t)
        for s in sources:
            expected.add_edge(s, a, v)
        g.connect(v, a, _mask(targets), _mask(sources))
        assert g == expected
        assert g.edge_count == expected.edge_count == len(expected.edges())
        for b in range(g.k):
            for u in vertices:
                for w in vertices:
                    assert (g.out_mask(b, u) >> w) & 1 == (g.in_mask(b, w) >> u) & 1

    def test_self_loop_in_both_masks_counts_once(self):
        g = LabeledDigraph(1, [0, 1], [(0, 0, 1)])
        g.connect(0, 0, 0b11, 0b01)
        assert g.edges() == [(0, 0, 0), (0, 0, 1)]
        assert g.edge_count == 2

    @given(digraphs(min_n=1), st.data())
    def test_rejection_leaves_graph_unchanged(self, g, data):
        n = g.vertex_count  # vertices are 0..n-1, so n is unknown
        vertices = g.vertices
        v = data.draw(st.sampled_from(vertices))
        a = data.draw(st.integers(0, g.k - 1))
        targets = _mask(data.draw(st.sets(st.sampled_from(vertices))))
        sources = _mask(data.draw(st.sets(st.sampled_from(vertices))))
        before = _copy(g)
        for bad in (
            (n, a, targets, sources),
            (v, g.k, targets, sources),
            (v, -1, targets, sources),
            (v, a, targets | 1 << n, sources),
            (v, a, targets, sources | 1 << n),
        ):
            with pytest.raises(ValueError):
                g.connect(*bad)
            assert g == before
            assert g.edge_count == before.edge_count
            assert [g.in_mask(b, w) for b in range(g.k) for w in vertices] == [
                before.in_mask(b, w) for b in range(g.k) for w in vertices
            ]


class TestIndistinguishable:
    def test_empty_graph_all_pairs_indistinguishable(self):
        g = LabeledDigraph(2, range(4))
        assert indistinguishable(g, 0, 3)

    def test_twins_are_indistinguishable(self):
        assert indistinguishable(two_edge_graph(), 0, 1)

    def test_witness_breaks_indistinguishability(self):
        assert not indistinguishable(two_edge_graph(), 0, 2)

    def test_pair_edges_must_agree_with_loops(self):
        # 0 has a loop, the cross edges exist, but 1 has no loop: condition
        # on the four pair edges fails
        g = LabeledDigraph(1, [0, 1], [(0, 0, 0), (0, 0, 1), (1, 0, 0)])
        assert not indistinguishable(g, 0, 1)

    def test_full_pair_block_is_indistinguishable(self):
        g = LabeledDigraph(1, [0, 1], [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)])
        assert indistinguishable(g, 0, 1)

    @given(digraphs_with_pair())
    def test_symmetric(self, case):
        g, u, v = case
        assert indistinguishable(g, u, v) == indistinguishable(g, v, u)

    @given(digraphs_with_pair())
    def test_reflexive(self, case):
        g, u, _ = case
        assert indistinguishable(g, u, u)

    @given(digraphs(min_n=3, max_n=6))
    @settings(max_examples=60)
    def test_transitive(self, g):
        vertices = g.vertices
        for u, v, w in itertools.permutations(vertices, 3):
            if indistinguishable(g, u, v) and indistinguishable(g, v, w):
                assert indistinguishable(g, u, w)


class TestEquivalencePartition:
    def test_single_vertex(self):
        g = LabeledDigraph(1, [0])
        assert equivalence_partition(g) == [[0]]

    def test_two_edge_graph(self):
        assert equivalence_partition(two_edge_graph()) == [[0, 1], [2]]

    def test_complete_digraph_single_class(self):
        n, k = 3, 2
        edges = [(u, a, v) for u in range(n) for a in range(k) for v in range(n)]
        g = LabeledDigraph(k, range(n), edges)
        assert equivalence_partition(g) == [[0, 1, 2]]

    @given(digraphs())
    def test_partition_covers_vertices_once(self, g):
        partition = equivalence_partition(g)
        flattened = [v for cls in partition for v in cls]
        assert sorted(flattened) == list(g.vertices)
        assert len(set(flattened)) == len(flattened)

    @given(digraphs(max_n=6))
    @settings(max_examples=80)
    def test_partition_matches_pairwise_definition(self, g):
        partition = equivalence_partition(g)
        cls_of = {v: i for i, cls in enumerate(partition) for v in cls}
        for u, v in itertools.combinations(g.vertices, 2):
            assert indistinguishable(g, u, v) == (cls_of[u] == cls_of[v])

    def test_mutual_edges_without_loops_split_the_pair(self):
        g = LabeledDigraph(1, [0, 1], [(0, 0, 1), (1, 0, 0)])
        assert equivalence_partition(g) == [[0], [1]]

    @given(digraphs(min_n=1, max_n=6), st.data())
    def test_clone_joins_its_original(self, g, data):
        original = data.draw(st.sampled_from(g.vertices))
        loops = data.draw(st.sets(st.integers(0, g.k - 1)))
        for a in loops:  # a looped original gives the pair all four edges
            g.add_edge(original, a, original)
        clone = g.vertex_count
        extended = clone_vertex(g, original, clone)
        partition = equivalence_partition(extended)
        assert partition == oracle_partition(extended)
        assert any(original in cls and clone in cls for cls in partition)


class TestInducedSubgraph:
    def test_full_vertex_set_is_identity(self):
        g = two_edge_graph()
        assert induced_subgraph(g, g.vertices) == g

    def test_empty_subset(self):
        sub = induced_subgraph(two_edge_graph(), [])
        assert sub.vertex_count == 0 and sub.edge_count == 0

    def test_filters_edges(self):
        sub = induced_subgraph(two_edge_graph(), [0, 1])
        assert sub.vertices == (0, 1)
        assert sub.edges() == []

    @given(digraphs(min_n=1), st.data())
    def test_filters_edges_matches_brute_force(self, g, data):
        subset = data.draw(st.sets(st.sampled_from(g.vertices)))
        sub = induced_subgraph(g, subset)
        expected = [(u, a, v) for u, a, v in g.edges() if u in subset and v in subset]
        assert sub == LabeledDigraph(g.k, subset, expected)
        assert sub.edges() == expected
        assert sub.edge_count == len(expected)

    def test_rejects_foreign_vertices(self):
        with pytest.raises(ValueError):
            induced_subgraph(two_edge_graph(), [0, 7])


class TestStrongHomomorphism:
    def test_identity_map(self):
        g = two_edge_graph()
        assert is_strong_homomorphism(g, g, {v: v for v in g.vertices})

    def test_collapsing_twins(self):
        g = two_edge_graph()
        h = LabeledDigraph(1, [0, 2], [(0, 0, 2)])
        assert is_strong_homomorphism(g, h, {0: 0, 1: 0, 2: 2})

    def test_bad_map_rejected(self):
        g = two_edge_graph()
        h = LabeledDigraph(1, [0, 2], [(0, 0, 2)])
        # maps 1 to 2: (1,r,2) lands on (2,r,2) which is not in H
        assert not is_strong_homomorphism(g, h, {0: 0, 1: 2, 2: 2})

    def test_reflection_failure_detected(self):
        # map preserves the only edge but H has an extra edge reflected
        # onto a non-edge of G
        g = LabeledDigraph(1, [0, 1], [(0, 0, 1)])
        h = LabeledDigraph(1, [0, 1], [(0, 0, 1), (1, 0, 0)])
        assert not is_strong_homomorphism(g, h, {0: 0, 1: 1})

    def test_partial_map_rejected(self):
        g = two_edge_graph()
        with pytest.raises(ValueError):
            is_strong_homomorphism(g, g, {0: 0})

    @given(digraphs())
    def test_identity_always_strong(self, g):
        assert is_strong_homomorphism(g, g, {v: v for v in g.vertices})

    @given(digraphs(max_n=6), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_matches_literal_definition(self, g, rnd):
        images = list(range(rnd.randint(1, 4)))
        assignment = {v: rnd.choice(images) for v in g.vertices}
        h_vertices = images + [9]  # 9 is never an image: the map is not onto H
        candidates = [(x, a, y) for x in h_vertices for a in range(g.k) for y in h_vertices]
        h_edges = [e for e in candidates if rnd.random() < 0.3]
        if rnd.random() < 0.5:
            # the image of G's edges, often a strong homomorphism
            h_edges = [e for e in h_edges if 9 in (e[0], e[2])]
            h_edges += [(assignment[u], a, assignment[v]) for u, a, v in g.edges()]
        h = LabeledDigraph(g.k, h_vertices, h_edges)
        literal = all(
            g.has_edge(u, a, v) == h.has_edge(assignment[u], a, assignment[v])
            for u in g.vertices
            for a in range(g.k)
            for v in g.vertices
        )
        assert is_strong_homomorphism(g, h, assignment) == literal


class TestIrreducible:
    def test_empty_graph(self):
        assert is_irreducible(LabeledDigraph(1))

    def test_two_isolated_vertices_reducible(self):
        assert not is_irreducible(LabeledDigraph(1, [0, 1]))

    def test_single_edge_graph_irreducible(self):
        assert is_irreducible(LabeledDigraph(1, [0, 1], [(0, 0, 1)]))


class TestErrorSet:
    def test_enforcing_policy_has_no_errors(self):
        g = two_edge_graph()
        h = LabeledDigraph(1, [0, 2], [(0, 0, 2)])
        assert len(error_set(g, h, {0: 0, 1: 0, 2: 2})) == 0

    def test_all_loop_policy_seven_grant_errors(self):
        g = two_edge_graph()
        h = LabeledDigraph(1, [0], [(0, 0, 0)])
        errors = error_set(g, h, {0: 0, 1: 0, 2: 0})
        # the policy allows every request, so every error is a grant error
        assert sorted(errors) == [
            (0, 0, 0),
            (0, 0, 1),
            (1, 0, 0),
            (1, 0, 1),
            (2, 0, 0),
            (2, 0, 1),
            (2, 0, 2),
        ]

    def test_edgeless_policy_two_deny_errors(self):
        g = two_edge_graph()
        h = LabeledDigraph(1, [0, 1])
        errors = error_set(g, h, {0: 0, 1: 0, 2: 1})
        # the policy allows nothing, so every error is a deny error
        assert sorted(errors) == [(0, 0, 2), (1, 0, 2)]

    def test_partial_assignment_rejected(self):
        g = two_edge_graph()
        h = LabeledDigraph(1, [0])
        with pytest.raises(ValueError, match="not total"):
            error_set(g, h, {0: 0})

    @given(digraphs(max_n=5), st.integers(0, 3), st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_matches_exhaustive_enumeration(self, g, h_seed, rnd):
        if g.vertex_count == 0:
            return
        domains = sorted(rnd.sample(list(g.vertices), rnd.randint(1, g.vertex_count)))
        candidates = [
            (x, a, y) for x in domains for a in range(g.k) for y in domains
        ]
        h_edges = [e for e in candidates if rnd.random() < 0.4]
        h = LabeledDigraph(g.k, domains, h_edges)
        assignment = {v: rnd.choice(domains) for v in g.vertices}
        errors = error_set(g, h, assignment)
        grants, denies = brute_force_errors(g, h, assignment)
        assert errors == grants | denies
        # the policy tells the grant errors apart: they are the ones it allows
        allowed = {
            (u, a, v) for u, a, v in errors if h.has_edge(assignment[u], a, assignment[v])
        }
        assert allowed == grants

    @given(digraphs(max_n=5), st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_empty_errors_iff_strong_homomorphism(self, g, rnd):
        if g.vertex_count == 0:
            return
        domains = sorted(rnd.sample(list(g.vertices), rnd.randint(1, g.vertex_count)))
        candidates = [(x, a, y) for x in domains for a in range(g.k) for y in domains]
        h = LabeledDigraph(g.k, domains, [e for e in candidates if rnd.random() < 0.5])
        assignment = {v: rnd.choice(domains) for v in g.vertices}
        empty = len(error_set(g, h, assignment)) == 0
        assert empty == is_strong_homomorphism(g, h, assignment)


class TestMonotonicity:
    """Distinguishability persists as the revealed subgraph grows, and a
    non-novel newcomer never merges or splits existing classes."""

    @given(digraphs(min_n=2, max_n=7), st.data())
    @settings(max_examples=80)
    def test_distinguishable_stays_distinguishable(self, g, data):
        vertices = list(g.vertices)
        u1 = sorted(
            data.draw(st.sets(st.sampled_from(vertices), min_size=2), label="U1")
        )
        u2 = sorted(
            set(
                u1
                + data.draw(
                    st.lists(st.sampled_from(vertices), max_size=len(vertices)),
                    label="U2 extra",
                )
            )
        )
        g1 = induced_subgraph(g, u1)
        g2 = induced_subgraph(g, u2)
        for x, y in itertools.combinations(u1, 2):
            if not indistinguishable(g1, x, y):
                assert not indistinguishable(g2, x, y)

    @given(digraphs(min_n=1, max_n=6), st.data())
    @settings(max_examples=80)
    def test_non_novel_newcomer_preserves_classes(self, g, data):
        original = data.draw(st.sampled_from(g.vertices), label="cloned vertex")
        clone = max(g.vertices) + 1
        extended = clone_vertex(g, original, clone)
        assert indistinguishable(extended, original, clone)
        for x, y in itertools.combinations(g.vertices, 2):
            if indistinguishable(g, x, y):
                assert indistinguishable(extended, x, y)
