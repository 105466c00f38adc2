"""The brute-force conformance oracle: cross-checks, isomorphism search, and
round-invariant reports."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from domainlearn import oracle
from domainlearn.digraph import LabeledDigraph, equivalence_partition
from domainlearn.learners import ConservativeLearner
from domainlearn.oracle import (
    OracleLimitError,
    check_round_invariants,
    isomorphic_small,
    oracle_partition,
)
from domainlearn.protocol import Session
from domainlearn.summarize import summarize
from domainlearn.teacher import (
    IidUniform,
    SyntheticTeacher,
    TemplateInstances,
    generate_template,
)

from .strategies import blown_up_digraphs, digraphs, graph_of, random_digraph, sparse_digraphs
from .test_digraph import indistinguishable


def literal_classes(g: LabeledDigraph) -> list[list[int]]:
    """The classes of the cell-by-cell relation, in the oracle's order:
    by smallest member, members ascending."""
    classes: list[list[int]] = []
    for v in g.vertices:
        home = next((cls for cls in classes if indistinguishable(g, cls[0], v)), None)
        if home is None:
            classes.append([v])
        else:
            home.append(v)
    return classes


class TestOraclePartition:
    def test_empty_graph_has_no_classes(self):
        assert oracle_partition(LabeledDigraph(1)) == []

    def test_complete_digraph_single_class(self):
        edges = [(u, a, v) for u in range(4) for a in range(2) for v in range(4)]
        g = graph_of(2, range(4), edges)
        assert oracle_partition(g) == [[0, 1, 2, 3]]

    def test_limit_enforced(self, monkeypatch):
        monkeypatch.setattr(oracle, "ORACLE_VERTEX_LIMIT", 4)
        with pytest.raises(OracleLimitError, match="limited to 4 vertices, got 5"):
            oracle_partition(LabeledDigraph(1, range(5)))
        assert oracle_partition(LabeledDigraph(1, range(4))) == [[0, 1, 2, 3]]

    @pytest.mark.parametrize("related,message", [
        # 0~1 and 1~2 but not 0~2: vertex 2 matches one member of [0, 1]
        ({(0, 1), (1, 2)}, "indistinguishability is not transitive at vertex 2: [[0, 1]]"),
        # not 0~1 but 2~0 and 2~1: vertex 2 matches both classes
        ({(0, 2), (1, 2)}, "vertex 2 matches multiple classes [[0], [1]]: relation not transitive"),
    ], ids=["partial-match", "two-classes"])
    def test_intransitive_relation_aborts(self, related, message, monkeypatch):
        # no digraph makes the pair test intransitive, so a fake one stands in
        monkeypatch.setattr(
            oracle, "_agreeing",
            lambda rows, members, v: sum((min(u, v), max(u, v)) in related for u in members),
        )
        with pytest.raises(AssertionError) as raised:
            oracle_partition(LabeledDigraph(1, range(3)))
        assert str(raised.value) == message

    @given(st.one_of(blown_up_digraphs(), sparse_digraphs()), st.data())
    @settings(max_examples=150)
    def test_counts_every_agreeing_member_of_a_mixed_class(self, g, data):
        # no digraph makes a class mixed, so draw the members from any
        # classes, in any order: the count, not just all or none, is checked
        assume(g.vertex_count)
        v = data.draw(st.sampled_from(g.vertices))
        others = [u for u in g.vertices if u != v]
        members = data.draw(st.lists(st.sampled_from(others), unique=True) if others else st.just([]))
        expected = sum(indistinguishable(g, u, v) for u in members)
        assert oracle._agreeing(oracle._rows(g), members, v) == expected

    @given(sparse_digraphs())
    @settings(max_examples=150)
    def test_agrees_with_the_definition_on_sparse_ids(self, g):
        # rows are as wide as the largest id, not the vertex count
        assert oracle_partition(g) == literal_classes(g)

    @given(st.one_of(digraphs(), blown_up_digraphs()))
    @settings(max_examples=150)
    def test_agrees_with_production_partition(self, g):
        # the whole list, so class order and member order count too
        assert oracle_partition(g) == equivalence_partition(g)

    def test_agrees_on_seeded_corpus(self):
        # 1,000 seeded random graphs, n <= 16, k <= 3
        for i in range(1_000):
            n = (i % 16) + 1
            k = (i % 3) + 1
            density = ((i * 7) % 10) / 10.0
            g = random_digraph(seed=i, n=n, k=k, density=density)
            assert oracle_partition(g) == equivalence_partition(g), f"graph {i}"


# k = 3 on vertices {0, 4, 9}: W = 10, the last right's in-field is field 5
SPARSE = (0, 4, 9)


def pair_same(edges) -> bool:
    """``_agreeing`` on the pair (0, 4), asked in both orders, each as a
    one-member class."""
    rows = oracle._rows(graph_of(3, SPARSE, edges))
    same = oracle._agreeing(rows, [0], 4) == 1
    assert (oracle._agreeing(rows, [4], 0) == 1) is same
    return same


class TestPairFields:
    @pytest.mark.parametrize("edges,same", [
        ([(0, 2, 4)], False),
        ([(4, 2, 0)], False),
        ([(0, 2, 0), (4, 2, 4), (0, 2, 4)], False),
        ([(0, 2, 0), (4, 2, 4), (4, 2, 0)], False),
        ([(0, 2, 0), (4, 2, 4), (0, 2, 4), (4, 2, 0)], True),
    ], ids=["u-to-v", "v-to-u", "loops-and-u-to-v", "loops-and-v-to-u", "all-four"])
    def test_one_pair_edge(self, edges, same):
        assert pair_same(edges) is same

    @pytest.mark.parametrize("edges,same", [
        ([(0, 0, 0)], False),
        ([(4, 2, 4)], False),
        ([(0, 0, 0), (4, 0, 4)], False),
    ], ids=["u-loop", "v-loop-last-right", "both-loops-no-cross-edges"])
    def test_one_self_loop(self, edges, same):
        assert pair_same(edges) is same

    @pytest.mark.parametrize("edges,same", [
        ([(9, 2, 0)], False),
        ([(9, 2, 4)], False),
        ([(9, 2, 0), (9, 2, 4)], True),
    ], ids=["into-u", "into-v", "into-both"])
    def test_one_bit_of_the_last_in_field(self, edges, same):
        # bit 9 of in_mask(2, .): the top bit of a 60-bit row
        assert pair_same(edges) is same

    @pytest.mark.parametrize("edges,same", [
        ([(0, 0, 9)], False),
        ([(4, 1, 9)], False),
        ([(0, 0, 9), (4, 0, 9)], True),
        ([(9, 0, 9)], True),
    ], ids=["u-to-top", "v-to-top", "both-to-top", "top-loop"])
    def test_a_bit_at_the_largest_id(self, edges, same):
        # bit W-1 of an out field is the last before the next field's bit 0
        assert pair_same(edges) is same


class TestIsomorphicSmall:
    def test_graph_isomorphic_to_itself(self):
        g = random_digraph(seed=3, n=6, k=2, density=0.4)
        assert isomorphic_small(g, g)

    def test_relabelled_copy(self):
        g = random_digraph(seed=4, n=6, k=2, density=0.4)
        permutation = {0: 5, 1: 3, 2: 0, 3: 4, 4: 1, 5: 2}
        relabelled = graph_of(
            g.k,
            range(6),
            [(permutation[u], a, permutation[v]) for u, a, v in g.edges()],
        )
        assert isomorphic_small(g, relabelled)

    def test_different_edge_count_not_isomorphic(self):
        a = graph_of(1, range(2), [(0, 0, 1)])
        b = graph_of(1, range(2), [(0, 0, 1), (1, 0, 0)])
        assert not isomorphic_small(a, b)

    def test_same_degrees_different_structure(self):
        # 4-cycle vs two 2-cycles: identical degree signatures everywhere
        cycle4 = graph_of(1, range(4), [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 0)])
        two_cycles = graph_of(1, range(4), [(0, 0, 1), (1, 0, 0), (2, 0, 3), (3, 0, 2)])
        assert not isomorphic_small(cycle4, two_cycles)

    def test_label_mismatch_not_isomorphic(self):
        a = graph_of(2, range(2), [(0, 0, 1)])
        b = graph_of(2, range(2), [(0, 1, 1)])
        assert not isomorphic_small(a, b)

    @given(digraphs(min_n=2), st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_relabelling_is_isomorphic_and_a_flipped_cell_is_not(self, g, data):
        n = g.vertex_count
        order = data.draw(st.permutations(range(n)))
        if order == list(range(n)):
            order[0], order[1] = order[1], order[0]  # never the identity map
        edges = {(order[u], a, order[v]) for u, a, v in g.edges()}
        assert isomorphic_small(g, graph_of(g.k, range(n), edges))
        cell = (
            data.draw(st.integers(0, n - 1)),
            data.draw(st.integers(0, g.k - 1)),
            data.draw(st.integers(0, n - 1)),
        )
        assert not isomorphic_small(g, graph_of(g.k, range(n), edges ^ {cell}))

    def test_limit_enforced(self, monkeypatch):
        g = LabeledDigraph(1, range(13))
        with pytest.raises(OracleLimitError):
            isomorphic_small(g, g)
        monkeypatch.setattr(oracle, "ISOMORPHISM_VERTEX_LIMIT", 13)
        assert isomorphic_small(g, g)

    @pytest.mark.parametrize("g1,g2", [
        (LabeledDigraph(1, range(3)), LabeledDigraph(1, range(13))),
        (LabeledDigraph(1, range(13)), LabeledDigraph(2, range(13))),
        (LabeledDigraph(1, range(13)), graph_of(1, range(13), [(0, 0, 1)])),
    ], ids=["vertex-count", "k", "edge-count"])
    def test_a_mismatch_is_decided_before_the_limit(self, g1, g2):
        # over the limit is no reason to refuse graphs that cannot match
        assert not isomorphic_small(g1, g2)
        assert not isomorphic_small(g2, g1)


def learner_after_rounds(seed: int, rounds: int, m: int = 3, k: int = 2):
    template = generate_template(seed, m=m, k=k, edge_density=0.5)
    instances = TemplateInstances(template, IidUniform(template.m), draw_seed=seed + 1)
    teacher = SyntheticTeacher(instances)
    session = Session(teacher)
    learner = ConservativeLearner(session)
    for _ in range(rounds):
        learner.run_round()
    return learner, teacher


class TestRoundInvariants:
    def test_clean_state_passes(self):
        learner, teacher = learner_after_rounds(seed=11, rounds=8)
        failed = check_round_invariants(
            teacher.peek_ground_truth(),
            learner.summary,
            learner.assignment,
            learner.tree,
        )
        assert failed == {}

    def test_corrupted_assignment_fails_partition_check(self):
        learner, teacher = learner_after_rounds(seed=12, rounds=8)
        corrupted = dict(learner.assignment)
        reps = sorted(set(corrupted.values()))
        if len(reps) < 2:
            pytest.skip("world collapsed to one domain")
        victim = max(v for v in corrupted if corrupted[v] == reps[0])
        corrupted[victim] = reps[1]
        failed = check_round_invariants(
            teacher.peek_ground_truth(), learner.summary, corrupted, learner.tree
        )
        assert "partition-matches-oracle" in failed

    def test_deleted_summary_edge_fails_homomorphism(self):
        learner, teacher = learner_after_rounds(seed=13, rounds=8)
        summary = learner.summary
        if summary.edge_count == 0:
            pytest.skip("edgeless summary")
        kept = summary.edges()[1:]
        broken = graph_of(summary.k, summary.vertices, kept)
        failed = check_round_invariants(
            teacher.peek_ground_truth(), broken, learner.assignment, learner.tree
        )
        assert "strong-homomorphism" in failed

    def test_foreign_summary_edge_fails_subgraph(self):
        learner, teacher = learner_after_rounds(seed=13, rounds=8)
        ground_truth, summary = teacher.peek_ground_truth(), learner.summary
        foreign = next(
            (x, a, y)
            for x in summary.vertices
            for a in range(summary.k)
            for y in summary.vertices
            if not ground_truth.has_edge(x, a, y)
        )
        broken = graph_of(summary.k, summary.vertices, [*summary.edges(), foreign])
        failed = check_round_invariants(ground_truth, broken, learner.assignment, learner.tree)
        assert failed["summary-subgraph"] == (
            f"foreign vertices [], foreign edges [{foreign}]"
        )

    def test_indistinguishable_domains_fail_irreducibility(self):
        # two edgeless domains cannot be told apart, though the assignment
        # is a surjective strong homomorphism onto them
        world = LabeledDigraph(1, [0, 1])
        failed = check_round_invariants(world, LabeledDigraph(1, [0, 1]), {0: 0, 1: 1}, None)
        assert "summary-irreducible" in failed
        assert {"strong-homomorphism", "assignment-surjective"}.isdisjoint(failed)

    def test_summary_matches_reference_summary(self):
        learner, teacher = learner_after_rounds(seed=14, rounds=10)
        reference, _ = summarize(teacher.peek_ground_truth())
        assert isomorphic_small(reference, learner.summary)
