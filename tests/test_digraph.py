"""Core digraph operations: frozen examples plus relational property tests."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domainlearn import (
    DomainPolicy,
    LabeledDigraph,
    equivalence_partition,
    error_set,
    induced_subgraph,
    is_irreducible,
    is_strong_homomorphism,
)
from domainlearn.oracle import indistinguishable

from .strategies import clone_vertex, digraphs, digraphs_with_pair


def two_edge_graph() -> LabeledDigraph:
    # vertices 0,1,2 with edges (0,r,2) and (1,r,2): 0 and 1 are twins
    return LabeledDigraph(1, range(3), [(0, 0, 2), (1, 0, 2)])


def brute_force_errors(g: LabeledDigraph, policy: DomainPolicy):
    """Test-local exhaustive enumeration of all |V|^2 * k requests."""
    grants, denies = set(), set()
    for u in g.vertices:
        for a in range(g.k):
            for v in g.vertices:
                allowed = policy.allows(u, a, v)
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
        policy = DomainPolicy(h, {0: 0, 1: 0, 2: 2})
        assert len(error_set(g, policy)) == 0

    def test_all_loop_policy_seven_grant_errors(self):
        g = two_edge_graph()
        h = LabeledDigraph(1, [0], [(0, 0, 0)])
        errors = error_set(g, DomainPolicy(h, {0: 0, 1: 0, 2: 0}))
        assert len(errors.deny) == 0
        assert sorted(errors.grant) == [
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
        errors = error_set(g, DomainPolicy(h, {0: 0, 1: 0, 2: 1}))
        assert len(errors.grant) == 0
        assert sorted(errors.deny) == [(0, 0, 2), (1, 0, 2)]

    def test_partial_assignment_rejected(self):
        g = two_edge_graph()
        h = LabeledDigraph(1, [0])
        with pytest.raises(ValueError):
            error_set(g, DomainPolicy(h, {0: 0}))

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
        policy = DomainPolicy(h, assignment)
        errors = error_set(g, policy)
        grants, denies = brute_force_errors(g, policy)
        assert set(errors.grant) == grants
        assert set(errors.deny) == denies

    @given(digraphs(max_n=5), st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_empty_errors_iff_strong_homomorphism(self, g, rnd):
        if g.vertex_count == 0:
            return
        domains = sorted(rnd.sample(list(g.vertices), rnd.randint(1, g.vertex_count)))
        candidates = [(x, a, y) for x in domains for a in range(g.k) for y in domains]
        h = LabeledDigraph(g.k, domains, [e for e in candidates if rnd.random() < 0.5])
        assignment = {v: rnd.choice(domains) for v in g.vertices}
        empty = len(error_set(g, DomainPolicy(h, assignment))) == 0
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
