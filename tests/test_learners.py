"""Learner behavior: exact tireless costs, the conservative repair machinery
(classification, edge deduction, revision), invariant preservation, and
injected-fault detection."""

from __future__ import annotations

import itertools

import pytest

from domainlearn import (
    Alphabet,
    ConservativeLearner,
    ErrorSet,
    LabeledDigraph,
    SC1Violation,
    SC2Violation,
    Session,
    TirelessLearner,
    classify,
    edg,
    revise,
)
from domainlearn.learners import (
    From,
    LearnerInternalError,
    Loop,
    To,
    TreeNode,
    make_learner,
    tree_to_dot,
    tree_to_text,
)
from domainlearn.oracle import (
    check_round_invariants,
    indistinguishable,
    isomorphic_small,
    oracle_partition,
    replay_classification,
)
from domainlearn.summarize import summarize
from domainlearn.teacher import (
    IidUniform,
    Scripted,
    SyntheticTeacher,
    WorldTemplate,
    generate_template,
)


def world(edges, m=2, k=1) -> WorldTemplate:
    return WorldTemplate(LabeledDigraph(k, range(m), edges), seed=0)


def start_session(template, script) -> tuple[Session, SyntheticTeacher]:
    teacher = SyntheticTeacher(template, Scripted(tuple(script)), draw_seed=17)
    return Session(teacher), teacher


# one cross edge d0 -> d1: the pinned worked revision trace
PAIR_WORLD = world([(0, 0, 1)])
# d1 self-loop plus both cross edges: forces the revision to split on a loop test
LOOP_WORLD = world([(0, 0, 1), (1, 0, 0), (1, 0, 1)])
# d1 -> d0 only: forces the revision to split on a from test
FROM_WORLD = world([(1, 0, 0)])


class TestTireless:
    def test_per_round_cnq_counts(self):
        template = generate_template(seed=3, m=3, k=2, edge_density=0.5)
        teacher = SyntheticTeacher(template, IidUniform(), draw_seed=7)
        session = Session(teacher)
        learner = TirelessLearner(session)
        seen = 0
        for round_no in range(1, 6):
            learner.run_round()
            delta = session.ledger.cnq_count - seen
            seen = session.ledger.cnq_count
            assert delta == 2 * (2 * round_no - 1)  # k(2i-1) with k=2

    def test_total_cnqs_quadratic(self):
        template = generate_template(seed=4, m=2, k=1, edge_density=0.5)
        teacher = SyntheticTeacher(template, IidUniform(), draw_seed=8)
        session = Session(teacher)
        learner = TirelessLearner(session)
        for _ in range(3):
            learner.run_round()
        assert session.ledger.cnq_count == 9  # k * n^2

    def test_reconstruction_equals_revealed_subgraph(self):
        template = generate_template(seed=5, m=4, k=2, edge_density=0.4)
        teacher = SyntheticTeacher(template, IidUniform(), draw_seed=9)
        session = Session(teacher)
        learner = TirelessLearner(session)
        for _ in range(8):
            learner.run_round()
            assert learner.reconstruction == teacher.peek_ground_truth()

    def test_every_hypothesis_clean(self):
        template = generate_template(seed=6, m=3, k=3, edge_density=0.5)
        teacher = SyntheticTeacher(template, IidUniform(), draw_seed=10)
        session = Session(teacher)
        learner = TirelessLearner(session)
        for _ in range(10):
            learner.run_round()
        assert session.ledger.errors_cumulative == 0
        assert len(session.ledger.per_round) == 10

    def test_single_domain_loop_world(self):
        template = world([(0, 0, 0)], m=1)
        session, _ = start_session(template, (0, 0))
        learner = TirelessLearner(session)
        learner.run_round()
        learner.run_round()
        policy = learner.hypothesis
        assert policy.summary.vertices == (0,)
        assert policy.summary.edges() == [(0, 0, 0)]
        assert policy.assignment == {0: 0, 1: 0}


class TestConservativeInit:
    def test_ledger_after_first_round(self):
        template = generate_template(seed=7, m=2, k=3, edge_density=0.5)
        teacher = SyntheticTeacher(template, IidUniform(), draw_seed=11)
        session = Session(teacher)
        ConservativeLearner(session).run_round()
        ledger = session.ledger
        assert (ledger.nvq_count, ledger.cnq_count, ledger.htq_count) == (1, 3, 1)
        assert ledger.errors_cumulative == 0

    def test_detects_self_loops(self):
        template = world([(0, 0, 0), (0, 0, 1)], k=1)
        session, _ = start_session(template, (0,))
        learner = ConservativeLearner(session)
        learner.run_round()
        assert learner.summary.edges() == [(0, 0, 0)]
        assert learner.assignment == {0: 0}
        assert learner.tree.is_leaf and learner.tree.label == 0

    def test_no_loops_edgeless_summary(self):
        template = generate_template(seed=1, m=2, k=3, edge_density=0.0) if False else None
        # density 0 cannot be irreducible for m=2; build the world directly
        template = world([(0, 0, 1), (0, 1, 1), (0, 2, 1)], k=3)
        session, _ = start_session(template, (0,))
        learner = ConservativeLearner(session)
        learner.run_round()
        assert learner.summary.edge_count == 0
        assert session.ledger.cnq_count == 3


class TestClassify:
    def test_leaf_is_free(self):
        calls = []

        def query(u, a, v):
            calls.append((u, a, v))
            return True

        assert classify(TreeNode.leaf(0), 9, query) == 0
        assert calls == []

    def test_to_node_yes_branch(self):
        tree = TreeNode(test=To(0, 2), yes=TreeNode.leaf(0), no=TreeNode.leaf(2))
        calls = []

        def query(u, a, v):
            calls.append((u, a, v))
            return (u, a, v) == (1, 0, 2)

        assert classify(tree, 1, query) == 0
        assert calls == [(1, 0, 2)]

    def test_to_node_no_branch(self):
        tree = TreeNode(test=To(0, 2), yes=TreeNode.leaf(0), no=TreeNode.leaf(2))
        assert classify(tree, 3, lambda u, a, v: False) == 2

    def test_from_and_loop_request_shapes(self):
        assert From(5, 1).request_for(8) == (5, 1, 8)
        assert To(1, 5).request_for(8) == (8, 1, 5)
        assert Loop(2).request_for(8) == (8, 2, 8)

    def test_query_count_bounded_by_leaves_minus_one(self):
        # a maximally unbalanced tree: every classification walks <= leaves-1 nodes
        tree = TreeNode.leaf(0)
        node = tree
        for i in range(1, 5):
            node.label = None
            node.test = To(0, i)
            node.yes = TreeNode.leaf(i)
            node.no = TreeNode.leaf(0)
            node = node.no
        calls = []

        def query(u, a, v):
            calls.append(1)
            return False

        classify(tree, 99, query)
        assert len(calls) == tree.leaf_count - 1


class TestEdg:
    """The xor table: policy verdict xor error-set membership."""

    H = LabeledDigraph(1, [0], [(0, 0, 0)])  # allows everything within domain 0

    def test_allowed_not_error(self):
        errors = ErrorSet.empty()
        assert edg(0, 0, 1, self.H, {0: 0, 1: 0}, errors) is True

    def test_allowed_and_error(self):
        errors = ErrorSet(grant=frozenset({(0, 0, 1)}), deny=frozenset())
        assert edg(0, 0, 1, self.H, {0: 0, 1: 0}, errors) is False

    def test_denied_and_error(self):
        empty_h = LabeledDigraph(1, [0])
        errors = ErrorSet(grant=frozenset(), deny=frozenset({(0, 0, 1)}))
        assert edg(0, 0, 1, empty_h, {0: 0, 1: 0}, errors) is True

    def test_denied_not_error(self):
        empty_h = LabeledDigraph(1, [0])
        assert edg(0, 0, 1, empty_h, {0: 0, 1: 0}, ErrorSet.empty()) is False


class TestReviseWorkedTrace:
    """The pinned end-to-end revision trace on the single-cross-edge world."""

    def run_two_rounds(self):
        session, teacher = start_session(PAIR_WORLD, (0, 1))
        learner = ConservativeLearner(session)
        learner.run_round()
        before = session.ledger.cnq_count
        learner.run_round()
        return session, learner, before

    def test_round_two_costs(self):
        session, learner, cnq_before = self.run_two_rounds()
        ledger = session.ledger
        assert ledger.cnq_count == cnq_before  # single-leaf tree: zero classify cost
        assert ledger.htq_count == 3  # init + failed bet + confirmation
        assert ledger.errors_cumulative == 1  # one deny error

    def test_final_policy(self):
        _, learner, _ = self.run_two_rounds()
        assert learner.assignment == {0: 0, 1: 1}
        assert learner.summary.vertices == (0, 1)
        assert learner.summary.edges() == [(0, 0, 1)]

    def test_final_tree_golden_text(self):
        _, learner, _ = self.run_two_rounds()
        assert tree_to_text(learner.tree, Alphabet.default(1)) == (
            "node to(r0, 1)\n  leaf 0\n  leaf 1\n"
        )

    def test_final_tree_golden_dot(self):
        _, learner, _ = self.run_two_rounds()
        assert tree_to_dot(learner.tree, Alphabet.default(1)) == (
            "digraph decision_tree {\n"
            '  n0 [label="to(r0, 1)"];\n'
            '  n1 [shape=box, label="leaf: 0"];\n'
            '  n2 [shape=box, label="leaf: 1"];\n'
            '  n0 -> n1 [label="yes"];\n'
            '  n0 -> n2 [label="no"];\n'
            "}\n"
        )

    def test_revise_directly_matches_trace(self):
        # the same trace exercised as a pure function call
        summary = LabeledDigraph(1, [0])
        tree = TreeNode.leaf(0)
        errors = ErrorSet(grant=frozenset(), deny=frozenset({(0, 0, 1)}))
        new_tree, assignment = revise(tree, summary, {0: 0}, 1, 0, errors)
        assert assignment == {0: 0, 1: 1}
        assert new_tree.test == To(0, 1)
        assert new_tree.yes.label == 0 and new_tree.no.label == 1


class TestReviseSplitKinds:
    def final_tree(self, template):
        session, _ = start_session(template, (0, 1))
        learner = ConservativeLearner(session)
        learner.run_round()
        learner.run_round()
        return learner

    def test_loop_split(self):
        learner = self.final_tree(LOOP_WORLD)
        assert learner.tree.test == Loop(0)
        assert learner.assignment == {0: 0, 1: 1}
        # per-round error ceiling k(2i-1) is attained here: all 3 cells wrong
        assert learner.summary.edges() == [(0, 0, 1), (1, 0, 0), (1, 0, 1)]

    def test_from_split(self):
        learner = self.final_tree(FROM_WORLD)
        assert learner.tree.test == From(1, 0)
        assert learner.assignment == {0: 0, 1: 1}
        assert learner.summary.edges() == [(1, 0, 0)]

    def test_single_split_adds_one_node(self):
        session, _ = start_session(PAIR_WORLD, (0, 0, 1))
        learner = ConservativeLearner(session)
        learner.run_round()
        learner.run_round()  # duplicate of domain 0: no revision
        assert learner.tree.leaf_count == 1
        learner.run_round()  # novel vertex: exactly one split
        assert learner.tree.leaf_count == 2

    def test_splits_never_produce_empty_sides(self):
        # members of a partition share the frozen assignment image, so a
        # firing discrepancy check always yields two non-empty sides; the
        # revision's internal guard is unreachable defensive depth.  Exercise
        # a batch of revising worlds and check the guard stayed silent.
        for seed in range(20):
            template = generate_template(seed + 200, m=4, k=2, edge_density=0.5)
            teacher = SyntheticTeacher(template, IidUniform(), draw_seed=seed)
            session = Session(teacher)
            learner = ConservativeLearner(session)
            for _ in range(10):
                learner.run_round()  # raises LearnerInternalError on any breach


class TestReviseInvariants:
    """The revision loop invariants hold at every worklist iteration, and
    the worklist finishes within 2m iterations."""

    def run_instrumented(self, seed: int, rounds: int, m: int, k: int):
        template = generate_template(seed, m=m, k=k, edge_density=0.5)
        teacher = SyntheticTeacher(template, IidUniform(), draw_seed=seed * 31 + 1)
        session = Session(teacher)
        iteration_counts: list[int] = []
        revision_state = {"iterations": 0}

        def observer(tree, assignment, worklist):
            revision_state["iterations"] += 1
            ground_truth = teacher.peek_ground_truth()
            revealed = sorted(assignment)
            # equivalent vertices share an assigned representative
            for v1, v2 in itertools.combinations(revealed, 2):
                if indistinguishable(ground_truth, v1, v2):
                    assert assignment[v1] == assignment[v2]
            # representatives map to themselves
            for rep in set(assignment.values()):
                assert assignment[rep] == rep
            # settled leaves hold pairwise-equivalent partitions
            pending = {id(leaf) for leaf in worklist}
            for leaf in tree.leaves():
                if id(leaf) in pending:
                    continue
                members = [v for v in revealed if assignment[v] == leaf.label]
                for v1, v2 in itertools.combinations(members, 2):
                    assert indistinguishable(ground_truth, v1, v2)
            # tree and assignment classify identically
            for v in revealed:
                assert replay_classification(tree, v, ground_truth) == assignment[v]
            # leaf labels are exactly the representatives, no repeats
            labels = [leaf.label for leaf in tree.leaves()]
            assert len(labels) == len(set(labels))
            assert set(labels) == set(assignment.values())

        learner = ConservativeLearner(session, revise_observer=observer)
        for _ in range(rounds):
            revision_state["iterations"] = 0
            learner.run_round()
            if revision_state["iterations"]:
                classes = len(oracle_partition(teacher.peek_ground_truth()))
                assert revision_state["iterations"] <= 2 * classes
                iteration_counts.append(revision_state["iterations"])
        return iteration_counts

    def test_observer_sees_valid_states(self):
        revisions = 0
        for seed in range(6):
            revisions += len(
                self.run_instrumented(seed=seed + 50, rounds=10, m=4, k=2)
            )
        assert revisions >= 4  # the instrumented runs actually revised


class TestConservativeRounds:
    def test_non_novel_round_costs(self):
        session, _ = start_session(PAIR_WORLD, (0, 1, 0, 1, 0))
        learner = ConservativeLearner(session)
        for _ in range(2):
            learner.run_round()
        ledger = session.ledger
        for _ in range(3):
            cnq_before = ledger.cnq_count
            htq_before = ledger.htq_count
            errors_before = ledger.errors_cumulative
            leaves = learner.tree.leaf_count
            learner.run_round()
            assert ledger.cnq_count - cnq_before <= leaves - 1
            assert ledger.htq_count - htq_before == 1
            assert ledger.errors_cumulative == errors_before

    def test_cost_bound_holds_per_round(self):
        template = generate_template(seed=23, m=5, k=3, edge_density=0.5)
        teacher = SyntheticTeacher(template, IidUniform(), draw_seed=29)
        session = Session(teacher)
        learner = ConservativeLearner(session)
        for _ in range(30):
            learner.run_round()
            snapshot = session.ledger.per_round[-1]
            m_now = teacher.revealed_class_count()
            assert snapshot.cnq_cum <= 3 + (snapshot.n - 1) * (m_now - 1)

    def test_error_bounds_per_round_and_cumulative(self):
        template = generate_template(seed=24, m=4, k=2, edge_density=0.5)
        teacher = SyntheticTeacher(template, IidUniform(), draw_seed=30)
        session = Session(teacher)
        learner = ConservativeLearner(session)
        errors_before = 0
        for round_no in range(1, 26):
            learner.run_round()
            round_errors = session.ledger.errors_cumulative - errors_before
            errors_before = session.ledger.errors_cumulative
            assert round_errors <= 2 * (2 * round_no - 1)  # |E| <= k(2i-1)
            m_now = teacher.revealed_class_count()
            assert errors_before <= 2 * (2 * round_no + 1) * (m_now - 1)

    def test_invariants_after_every_round(self):
        for seed in (31, 32, 33):
            template = generate_template(seed=seed, m=4, k=2, edge_density=0.5)
            teacher = SyntheticTeacher(template, IidUniform(), draw_seed=seed)
            session = Session(teacher)
            learner = ConservativeLearner(session)
            for _ in range(12):
                learner.run_round()
                report = check_round_invariants(
                    teacher.peek_ground_truth(),
                    learner.summary,
                    learner.assignment,
                    learner.tree,
                )
                assert report.all_passed, report.failures()
                assert isomorphic_small(
                    summarize(teacher.peek_ground_truth()).summary, learner.summary
                )

    def test_zero_errors_after_full_coverage(self):
        template = generate_template(seed=41, m=3, k=2, edge_density=0.5)
        teacher = SyntheticTeacher(template, IidUniform(), draw_seed=77)
        session = Session(teacher)
        learner = ConservativeLearner(session)
        coverage_round = None
        for round_no in range(1, 40):
            learner.run_round()
            if coverage_round is None and len(set(teacher.revealed_domains())) == 3:
                coverage_round = round_no
                errors_at_coverage = session.ledger.errors_cumulative
        assert coverage_round is not None
        assert session.ledger.errors_cumulative == errors_at_coverage

    def test_make_learner_dispatch(self):
        session, _ = start_session(PAIR_WORLD, (0,))
        assert isinstance(make_learner("tireless", session), TirelessLearner)
        assert isinstance(make_learner("conservative", session), ConservativeLearner)
        with pytest.raises(ValueError):
            make_learner("lazy", session)


class SkipReviseLearner(ConservativeLearner):
    """Fault injection: ignores hypothesis-test errors instead of revising."""

    def _later_round(self):
        session = self._session
        u = session.next_vertex()
        guess = classify(self.tree, u, session.connection)
        extended = dict(self.assignment)
        extended[u] = guess
        session.hypothesis_test(self.summary, extended)
        self.assignment = extended  # pretend the bet always pays off


class ReducibleHypothesisLearner(ConservativeLearner):
    """Fault injection: submits a summary with a redundant duplicate domain."""

    def _later_round(self):
        session = self._session
        u = session.next_vertex()
        reducible = LabeledDigraph(session.k, [self.tree.label, u])
        session.hypothesis_test(reducible, {**self.assignment, u: u})


class InconsistentTeacher(SyntheticTeacher):
    """A lying teacher: denies every connection query while hypothesis tests
    are still answered against the real revealed subgraph."""

    def connection(self, u, a, v):
        super().connection(u, a, v)
        return False


class TestInternalFailures:
    def test_tireless_rejects_inconsistent_teacher(self):
        teacher = InconsistentTeacher(PAIR_WORLD, Scripted((0, 1)), draw_seed=1)
        session = Session(teacher)
        learner = TirelessLearner(session)
        learner.run_round()
        with pytest.raises(LearnerInternalError):
            learner.run_round()  # CNQ answers contradict the hypothesis test

    def test_conservative_rejects_dirty_initial_hypothesis(self):
        class DirtyHtqTeacher(SyntheticTeacher):
            def hypothesis_test(self, summary, assignment):
                u = next(iter(assignment))
                return ErrorSet(grant=frozenset({(u, 0, u)}), deny=frozenset())

        teacher = DirtyHtqTeacher(PAIR_WORLD, Scripted((0,)), draw_seed=1)
        session = Session(teacher)
        learner = ConservativeLearner(session)
        with pytest.raises(LearnerInternalError):
            learner.run_round()


class TestInjectedFaults:
    def test_skip_revise_caught_within_one_round(self):
        session, teacher = start_session(PAIR_WORLD, (0, 1, 0))
        learner = SkipReviseLearner(session)
        learner.run_round()
        learner.run_round()  # novel vertex mishandled: round never closed
        with pytest.raises(SC2Violation):
            learner.run_round()

    def test_skip_revise_invariant_failure_detected(self):
        session, teacher = start_session(PAIR_WORLD, (0, 1))
        learner = SkipReviseLearner(session)
        learner.run_round()
        learner.run_round()
        report = check_round_invariants(
            teacher.peek_ground_truth(),
            learner.summary,
            learner.assignment,
            learner.tree,
        )
        failed = {c.name for c in report.failures()}
        assert "partition-matches-oracle" in failed

    def test_reducible_hypothesis_caught_immediately(self):
        session, _ = start_session(PAIR_WORLD, (0, 0))
        learner = ReducibleHypothesisLearner(session)
        learner.run_round()
        with pytest.raises(SC1Violation):
            learner.run_round()
