"""Synthetic teacher: template generation, revelation schedules, the edge
rule, and ground-truth consistency."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domainlearn.digraph import LabeledDigraph, equivalence_partition, error_set
from domainlearn.oracle import oracle_partition
from domainlearn.rng import SplitMix64
from domainlearn.summarize import summarize
from domainlearn.teacher import (
    IidUniform,
    IidWeighted,
    Scripted,
    SyntheticTeacher,
    TeacherExhausted,
    TemplateGenerationError,
    TemplateInstances,
    WorldTemplate,
    generate_template,
    parse_schedule,
    template_to_text,
)

from .ground_truth import revealed_class_count, revealed_domains
from .strategies import graph_of


class TestGenerateTemplate:
    def test_single_domain_density_zero(self):
        template = generate_template(seed=1, m=1, k=3, edge_density=0.0)
        assert template.m == 1
        assert template.graph.edge_count == 0

    def test_deterministic_for_seed(self):
        a = generate_template(seed=99, m=2, k=1, edge_density=0.5)
        b = generate_template(seed=99, m=2, k=1, edge_density=0.5)
        assert a.graph == b.graph

    def test_different_seeds_vary(self):
        graphs = {
            tuple(generate_template(seed=s, m=3, k=2, edge_density=0.5).graph.edges())
            for s in range(8)
        }
        assert len(graphs) > 1

    def test_unreachable_irreducibility_fails(self):
        # a density this low keeps no edge, and an edgeless 2-vertex digraph
        # is always reducible
        with pytest.raises(TemplateGenerationError):
            generate_template(seed=0, m=2, k=1, edge_density=1e-9)

    @pytest.mark.parametrize("density", [0.0, 1.0])
    def test_density_that_cannot_separate_domains(self, density):
        # every domain gets the same edges: rejected before any attempt
        with pytest.raises(ValueError, match="indistinguishable"):
            generate_template(seed=0, m=2, k=2, edge_density=density)
        assert generate_template(seed=0, m=1, k=2, edge_density=density).m == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            generate_template(seed=0, m=0, k=1, edge_density=0.5)
        with pytest.raises(ValueError):
            generate_template(seed=0, m=1, k=1, edge_density=1.5)

    def test_reducible_template_rejected_by_type(self):
        with pytest.raises(ValueError, match="irreducible"):
            WorldTemplate(LabeledDigraph(1, range(2)))

    def test_template_grid_digest(self):
        # every template of the grid, bit for bit; each cell has one, since
        # seed 0, a fixed point of mix64, retries with seed 1
        digest = hashlib.sha256()
        for seed in range(10):
            for m in (1, 2, 5, 8, 16):
                for k in (1, 2, 3):
                    for density in (0.3, 0.5, 0.8):
                        text = template_to_text(generate_template(seed, m, k, density))
                        digest.update(text.encode())
        assert digest.hexdigest() == TEMPLATE_GRID_DIGEST


TEMPLATE_GRID_DIGEST = "3311763805f37c89cfaa840e2ea9327cd2ae4aaad4a85b20046807b29e66d8e8"


class TestSchedules:
    def test_scripted_order(self):
        template = generate_template(seed=5, m=2, k=1, edge_density=0.5)
        instances = TemplateInstances(template, Scripted((0, 0, 1), 2), draw_seed=1)
        teacher = SyntheticTeacher(instances)
        for _ in range(3):
            teacher.next_vertex()
        assert revealed_domains(instances) == (0, 0, 1)

    def test_scripted_exhausts(self):
        template = generate_template(seed=5, m=2, k=1, edge_density=0.5)
        teacher = SyntheticTeacher(TemplateInstances(template, Scripted((0,), 2), draw_seed=1))
        teacher.next_vertex()
        with pytest.raises(TeacherExhausted):
            teacher.next_vertex()

    def test_novel_last_order(self):
        draws = list(parse_schedule("novel-last:5", 3).draws(SplitMix64(0)))
        assert draws == [0, 0, 0, 0, 0, 1, 2]

    def test_iid_uniform_frequencies(self):
        counts = Counter()
        rng = SplitMix64(1234)
        draws = IidUniform(3).draws(rng)
        for _ in range(30_000):
            counts[next(draws)] += 1
        for domain in range(3):
            assert abs(counts[domain] / 30_000 - 1 / 3) < 0.02

    def test_iid_weighted_frequencies(self):
        probs = (0.5, 0.3, 0.2)
        rng = SplitMix64(77)
        draws = IidWeighted(probs).draws(rng)
        counts = Counter(next(draws) for _ in range(30_000))
        for domain, p in enumerate(probs):
            assert abs(counts[domain] / 30_000 - p) < 0.02

    def test_weighted_validation(self):
        with pytest.raises(ValueError):
            IidWeighted((0.5, 0.6))
        with pytest.raises(ValueError):
            IidWeighted((1.0, 0.0))

    def test_weighted_rejects_nan(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="finite and positive"):
            IidWeighted((nan, nan))
        with pytest.raises(ValueError, match="finite and positive"):
            IidWeighted((0.5, nan, 0.5))

    def test_parse_schedule_forms(self):
        assert parse_schedule("iid-uniform", 3) == IidUniform(3)
        assert parse_schedule("iid-weighted:0.5,0.3,0.2", 3) == IidWeighted((0.5, 0.3, 0.2))
        assert parse_schedule("scripted:0,0,1", 3) == Scripted((0, 0, 1), 3)
        assert parse_schedule("novel-last:5", 3) == Scripted((0, 0, 0, 0, 0, 1, 2), 3)
        assert parse_schedule("novel-last:5", 1) == Scripted((0, 0, 0, 0, 0), 1)
        with pytest.raises(ValueError, match="prefix_len must be >= 1"):
            parse_schedule("novel-last:0", 3)
        # the script is built in full, so its length is bounded
        assert len(parse_schedule("novel-last:1000000", 1).domains) == 10**6
        with pytest.raises(ValueError, match="prefix_len must be <= 1000000"):
            parse_schedule("novel-last:1000001", 3)
        with pytest.raises(ValueError):
            parse_schedule("bogus", 3)

    def test_schedule_probabilities(self):
        assert IidUniform(4).probs == (0.25, 0.25, 0.25, 0.25)
        assert IidWeighted((0.5, 0.5)).probs == (0.5, 0.5)

    def test_schedules_are_valid_for_their_m(self):
        with pytest.raises(ValueError, match="at least one domain"):
            Scripted((), 2)
        with pytest.raises(ValueError, match=r"out of range \[0, 2\)"):
            Scripted((0, 2), 2)
        with pytest.raises(ValueError, match="m must be >= 1"):
            IidUniform(0)
        assert IidWeighted((0.25, 0.75)).m == 2

    @pytest.mark.parametrize("schedule", [
        Scripted((0, 1), 2), IidUniform(2), IidWeighted((0.5, 0.5)),
    ], ids=["scripted", "uniform", "weighted"])
    def test_teacher_rejects_a_schedule_for_another_m(self, schedule, monkeypatch):
        # the schedule is checked when the teacher is built, before any draw
        monkeypatch.setattr(type(schedule), "draws", _no_draws)
        template = generate_template(seed=5, m=3, k=1, edge_density=0.5)
        with pytest.raises(ValueError, match="schedule draws from 2 domains, the template has 3"):
            SyntheticTeacher(TemplateInstances(template, schedule, draw_seed=1))


def _no_draws(*args):
    raise AssertionError("a schedule for another m was drawn from")


# schedules for a template of m domains: each strategy value maps m to one
SCHEDULES = st.one_of(
    st.just(IidUniform),
    st.integers(1, 4).map(lambda p: lambda m: parse_schedule(f"novel-last:{p}", m)),
    st.lists(st.integers(0, 4), min_size=1, max_size=14).map(
        lambda ds: lambda m: Scripted(tuple(d % m for d in ds), m)
    ),
)


def loop_free_pair_world() -> WorldTemplate:
    # two domains, single edge d0 -> d1
    return WorldTemplate(graph_of(1, range(2), [(0, 0, 1)]))


class TestEdgeRule:
    def test_cross_domain_edge(self):
        instances = TemplateInstances(loop_free_pair_world(), Scripted((0, 1), 2), draw_seed=3)
        teacher = SyntheticTeacher(instances)
        teacher.next_vertex()
        teacher.next_vertex()
        assert teacher.connection(0, 0, 1) is True
        assert teacher.connection(1, 0, 0) is False

    def test_same_domain_pairs_follow_template_loop(self):
        instances = TemplateInstances(loop_free_pair_world(), Scripted((0, 0), 2), draw_seed=3)
        teacher = SyntheticTeacher(instances)
        teacher.next_vertex()
        teacher.next_vertex()
        # no (d0, r, d0) loop in the template: no edges among instances
        assert teacher.connection(0, 0, 0) is False
        assert teacher.connection(0, 0, 1) is False
        assert teacher.connection(1, 0, 0) is False

    def test_spurious_loop_grants_every_same_domain_pair(self):
        instances = TemplateInstances(loop_free_pair_world(), Scripted((0, 0, 0), 2), draw_seed=3)
        teacher = SyntheticTeacher(instances)
        for _ in range(3):
            teacher.next_vertex()
        # hypothesis claims domain 0 has a self-loop the world lacks
        summary = graph_of(1, [0], [(0, 0, 0)])
        # the policy allows every request, so every error is a grant error
        errors = teacher.hypothesis_test(summary, {0: 0, 1: 0, 2: 0})
        assert sorted(errors) == [
            (u, 0, v) for u in range(3) for v in range(3)
        ]

    @given(
        st.integers(0, 10_000),
        st.integers(1, 5),
        st.integers(1, 3),
        st.sampled_from([0.3, 0.5, 0.8]),
        SCHEDULES,
        st.integers(0, 14),
    )
    @settings(max_examples=80, deadline=None)
    def test_revealed_subgraph_matches_edge_rule(self, seed, m, k, density, schedule, reveals):
        try:
            template = generate_template(seed, m, k, edge_density=density)
        except TemplateGenerationError:
            return
        instances = TemplateInstances(template, schedule(m), draw_seed=seed + 1)
        teacher = SyntheticTeacher(instances)
        for _ in range(reveals):
            try:
                teacher.next_vertex()
            except TeacherExhausted:
                break
        world = teacher.peek_ground_truth()
        expected = 0
        for u in world.vertices:
            for a in range(k):
                for v in world.vertices:
                    edge = template.graph.has_edge(
                        instances.row_of[u], a, instances.row_of[v]
                    )
                    assert world.has_edge(u, a, v) == edge
                    assert teacher.connection(u, a, v) == edge
                    expected += edge
        assert world.edge_count == expected


class TestRowView:
    """Hypothesis tests are answered from the per-(right, domain) rows, and
    the revealed graph is caught up only when peeked; both must agree with
    the edge rule and with ``error_set`` on the materialized graph."""

    @given(
        st.data(),
        st.integers(0, 10_000),
        st.integers(1, 5),
        st.integers(1, 3),
        st.sampled_from([0.3, 0.5, 0.8]),
        SCHEDULES,
        st.integers(1, 14),
    )
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_test_equals_error_set_of_the_peeked_graph(
        self, data, seed, m, k, density, schedule, reveals
    ):
        try:
            template = generate_template(seed, m, k, edge_density=density)
        except TemplateGenerationError:
            return
        instances = TemplateInstances(template, schedule(m), draw_seed=seed + 1)
        teacher = SyntheticTeacher(instances)
        for n in range(1, reveals + 1):
            try:
                teacher.next_vertex()
            except TeacherExhausted:
                break
            # peek on some rounds only, so each catch-up starts part-way
            if not data.draw(st.booleans(), label="peek"):
                continue
            world = teacher.peek_ground_truth()
            domains = [instances.row_of[v] for v in range(n)]
            expected = graph_of(
                k,
                range(n),
                [
                    (u, a, v)
                    for u in range(n)
                    for a in range(k)
                    for v in range(n)
                    if template.graph.has_edge(domains[u], a, domains[v])
                ],
            )
            assert world == expected
            assert world.edge_count == expected.edge_count
            size = data.draw(st.integers(1, 4), label="summary size")
            cells = st.tuples(
                st.integers(0, size - 1), st.integers(0, k - 1), st.integers(0, size - 1)
            )
            summary = graph_of(k, range(size), data.draw(st.sets(cells), label="edges"))
            assignment = {
                v: data.draw(st.integers(0, size - 1), label=f"domain of {v}")
                for v in range(n)
            }
            for policy in ((summary, assignment), summarize(world)):
                assert teacher.hypothesis_test(*policy) == error_set(world, *policy)


class TestDeterminism:
    def test_replay_reproduces_answers(self):
        template = generate_template(seed=8, m=4, k=2, edge_density=0.4)

        def transcript():
            instances = TemplateInstances(template, IidUniform(template.m), draw_seed=44)
            teacher = SyntheticTeacher(instances)
            log = []
            for _ in range(20):
                v = teacher.next_vertex()
                log.append((v, instances.row_of[v]))
            for u in range(20):
                for a in range(2):
                    log.append(teacher.connection(u, a, (u * 3 + a) % 20))
            return log

        assert transcript() == transcript()


class TestClassStructure:
    @given(st.integers(0, 500), st.integers(1, 4), st.integers(1, 3), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_revealed_class_count_matches_full_subgraph_oracle(self, seed, m, k, reveals):
        try:
            template = generate_template(seed, m, k, edge_density=0.5)
        except TemplateGenerationError:
            return
        instances = TemplateInstances(template, IidUniform(template.m), draw_seed=seed + 1)
        teacher = SyntheticTeacher(instances)
        for _ in range(reveals):
            teacher.next_vertex()
            assert revealed_class_count(template, instances) == len(
                oracle_partition(teacher.peek_ground_truth())
            )

    def test_full_coverage_classes_are_domain_instance_sets(self):
        template = generate_template(seed=33, m=3, k=2, edge_density=0.5)
        instances = TemplateInstances(template, Scripted((0, 1, 2, 0, 1, 2, 1), 3), draw_seed=2)
        teacher = SyntheticTeacher(instances)
        for _ in range(7):
            teacher.next_vertex()
        partition = equivalence_partition(teacher.peek_ground_truth())
        assert len(partition) == 3
        by_domain = {}
        for v in teacher.peek_ground_truth().vertices:
            by_domain.setdefault(instances.row_of[v], []).append(v)
        assert sorted(partition) == sorted(by_domain.values())

    def test_partial_coverage_classes_are_domain_unions(self):
        template = generate_template(seed=33, m=4, k=2, edge_density=0.5)
        instances = TemplateInstances(template, Scripted((0, 1, 0, 1), 4), draw_seed=2)
        teacher = SyntheticTeacher(instances)
        for _ in range(4):
            teacher.next_vertex()
        partition = equivalence_partition(teacher.peek_ground_truth())
        assert len(partition) <= 4
        for cls in partition:
            domains = {instances.row_of[v] for v in cls}
            # every instance of a mentioned domain is inside the class
            for v in teacher.peek_ground_truth().vertices:
                if instances.row_of[v] in domains:
                    assert v in cls
