"""Learner behavior: exact tireless costs, the conservative repair machinery
(classification, edge deduction, revision), invariant preservation, and
injected-fault detection."""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter

import pytest

from domainlearn.digraph import LabeledDigraph
from domainlearn.experiments import ExperimentConfig, _play
from domainlearn.graphio import policy_to_text
from domainlearn.learners import (
    ConservativeLearner,
    From,
    LearnerInternalError,
    Loop,
    TirelessLearner,
    To,
    TreeNode,
    classify,
    make_learner,
    revise,
    tree_to_dot,
    tree_to_text,
)
from domainlearn.oracle import (
    check_round_invariants,
    isomorphic_small,
    oracle_partition,
    replay_classification,
)
from domainlearn.protocol import SC1Violation, SC2Violation, Session
from domainlearn.summarize import summarize
from domainlearn.teacher import (
    IidUniform,
    Scripted,
    SyntheticTeacher,
    TemplateInstances,
    WorldTemplate,
    generate_template,
    parse_schedule,
)

from .ground_truth import revealed_class_count, revealed_domains


def world(edges, m=2, k=1) -> WorldTemplate:
    return WorldTemplate(LabeledDigraph(k, range(m), edges))


def start_session(template, script) -> tuple[Session, SyntheticTeacher]:
    instances = TemplateInstances(template, Scripted(tuple(script), template.m), draw_seed=17)
    teacher = SyntheticTeacher(instances)
    return Session(teacher), teacher


# one cross edge d0 -> d1: the pinned worked revision trace
PAIR_WORLD = world([(0, 0, 1)])
# d1 self-loop plus both cross edges: forces the revision to split on a loop test
LOOP_WORLD = world([(0, 0, 1), (1, 0, 0), (1, 0, 1)])
# d1 -> d0 only: forces the revision to split on a from test
FROM_WORLD = world([(1, 0, 0)])
# d0 -> d2 only: revealed in the order d0, d2, d1, the third vertex differs
# from its guessed class only through the first one, a third-party witness
WITNESS_WORLD = world([(0, 0, 2)], m=3)


class TestTireless:
    def test_per_round_cnq_counts(self):
        template = generate_template(seed=3, m=3, k=2, edge_density=0.5)
        teacher = SyntheticTeacher(TemplateInstances(template, IidUniform(template.m), draw_seed=7))
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
        teacher = SyntheticTeacher(TemplateInstances(template, IidUniform(template.m), draw_seed=8))
        session = Session(teacher)
        learner = TirelessLearner(session)
        for _ in range(3):
            learner.run_round()
        assert session.ledger.cnq_count == 9  # k * n^2

    def test_reconstruction_equals_revealed_subgraph(self):
        template = generate_template(seed=5, m=4, k=2, edge_density=0.4)
        teacher = SyntheticTeacher(TemplateInstances(template, IidUniform(template.m), draw_seed=9))
        session = Session(teacher)
        learner = TirelessLearner(session)
        for _ in range(8):
            learner.run_round()
            assert learner.reconstruction == teacher.peek_ground_truth()

    def test_every_hypothesis_clean(self):
        template = generate_template(seed=6, m=3, k=3, edge_density=0.5)
        instances = TemplateInstances(template, IidUniform(template.m), draw_seed=10)
        teacher = SyntheticTeacher(instances)
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
        assert learner.summary.vertices == (0,)
        assert learner.summary.edges() == [(0, 0, 0)]
        assert learner.assignment == {0: 0, 1: 0}


class TestConservativeInit:
    def test_ledger_after_first_round(self):
        template = generate_template(seed=7, m=2, k=3, edge_density=0.5)
        instances = TemplateInstances(template, IidUniform(template.m), draw_seed=11)
        teacher = SyntheticTeacher(instances)
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


class TestRebuildXor:
    """The summary rebuilt after a failed bet reads each edge as the frozen
    policy's verdict xor the error verdict.  Vertex 1 is revealed second and
    guessed into vertex 0's domain, so the frozen policy decides every
    request by its one summary loop; each case checks one cell of the
    rebuilt summary."""

    # d0 has a loop: the frozen policy allows every request
    ALLOWS = [(0, 0, 0), (0, 0, 1)]
    # no loop: the frozen policy denies every request
    DENIES = [(0, 0, 1)]

    @pytest.mark.parametrize("edges,source,target,allowed,error", [
        pytest.param(ALLOWS, 0, 1, True, False, id="allowed_not_error"),
        pytest.param(ALLOWS, 1, 0, True, True, id="allowed_and_error"),  # wrongly granted
        pytest.param(DENIES, 0, 1, False, True, id="denied_and_error"),  # wrongly denied
        pytest.param(DENIES, 1, 0, False, False, id="denied_not_error"),
    ])
    def test_rebuilt_row(self, edges, source, target, allowed, error):
        session, _ = start_session(world(edges), (0, 1))
        dirty = []
        test = session.hypothesis_test

        def recording(summary, assignment):
            errors = test(summary, assignment)
            if errors:
                dirty.append((summary.has_edge(0, 0, 0), errors))
            return errors

        session.hypothesis_test = recording
        learner = ConservativeLearner(session)
        learner.run_round()
        learner.run_round()
        (policy, errors), = dirty  # the failed bet; its repair tested clean
        assert policy is allowed
        assert ((source, 0, target) in errors) is error
        row = learner.summary.out_mask(0, source)
        assert (row >> target) & 1 == (allowed != error)


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
        assert tree_to_text(learner.tree) == (
            "node to(r0, 1)\n  leaf 0\n  leaf 1\n"
        )

    def test_final_tree_golden_dot(self):
        _, learner, _ = self.run_two_rounds()
        assert tree_to_dot(learner.tree) == (
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
        errors = frozenset({(0, 0, 1)})  # denied by the edgeless summary
        frozen = {0: 0, 1: 0}
        assignment = revise(tree, summary, frozen, 1, errors)
        assert assignment == {0: 0, 1: 1}
        assert frozen == {0: 0, 1: 0} and assignment is not frozen
        assert tree.test == To(0, 1)
        assert tree.yes.label == 0 and tree.no.label == 1


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

    def test_witness_split(self):
        session, _ = start_session(WITNESS_WORLD, (0, 2, 1))
        learner = ConservativeLearner(session)
        learner.run_round()
        learner.run_round()
        assert tree_to_text(learner.tree) == "node to(r0, 1)\n  leaf 0\n  leaf 1\n"
        learner.run_round()  # vertex 2 is classified to leaf 1
        assert learner.tree.no.test == From(0, 0)
        assert learner.assignment == {0: 0, 1: 1, 2: 2}
        assert tree_to_text(learner.tree) == (
            "node to(r0, 1)\n  leaf 0\n  node from(0, r0)\n    leaf 1\n    leaf 2\n"
        )

    def test_single_split_adds_one_node(self):
        session, _ = start_session(PAIR_WORLD, (0, 0, 1))
        learner = ConservativeLearner(session)
        learner.run_round()
        learner.run_round()  # duplicate of domain 0: no revision
        assert learner.tree.leaf_count == 1
        learner.run_round()  # novel vertex: exactly one split
        assert learner.tree.leaf_count == 2

    def test_splits_never_produce_empty_sides(self):
        # members of a leaf share one policy bit per test, so a mixed error
        # column always yields two non-empty sides.  Exercise a batch of
        # revising worlds and check the learner's guards stayed silent.
        for seed in range(20):
            template = generate_template(seed + 200, m=4, k=2, edge_density=0.5)
            instances = TemplateInstances(template, IidUniform(template.m), draw_seed=seed)
            teacher = SyntheticTeacher(instances)
            session = Session(teacher)
            learner = ConservativeLearner(session)
            for _ in range(10):
                learner.run_round()  # raises LearnerInternalError on any breach


def tree_tests(node: TreeNode):
    """Every decision test of a tree, in preorder."""
    if not node.is_leaf:
        yield node.test
        yield from tree_tests(node.yes)
        yield from tree_tests(node.no)


# conservative sessions over k 1-3, m 2-8, ten template seeds, one iid and
# one adversarial schedule each: 240 sessions, about 6,400 rounds and 830
# splits, 32 of them on a witness other than the newcomer
REVISION_CORPUS = [
    ExperimentConfig(k=k, m=m, template_seed=seed, schedule=schedule, rounds=30)
    for k, m, seed in itertools.product((1, 2, 3), (2, 3, 5, 8), range(10))
    for schedule in ("iid-uniform", "novel-last:20")
]
REVISION_CORPUS_DIGEST = "d68df4fb5aaf827cd721753cac0a53cfd4c02c5cc33089d9bc0c7a0a376ccefd"


class TestPinnedRevisions:
    """Revision pinned round by round: the tree text, the policy text and
    the ledger snapshot of every completed round of a fixed corpus hash to
    one recorded digest."""

    def test_revision_corpus_digest(self):
        digest = hashlib.sha256()
        witness_splits = 0
        for config in REVISION_CORPUS:
            seen = Counter()

            def record(_round_no, session, _teacher, learner):
                nonlocal seen, witness_splits
                snapshot = session.ledger.per_round[-1]
                digest.update(tree_to_text(learner.tree).encode())
                digest.update(policy_to_text(learner.summary, learner.assignment).encode())
                digest.update(
                    f"{snapshot.n},{snapshot.cnq_cum},{snapshot.htq_cum},"
                    f"{snapshot.errors_cum}\n".encode()
                )
                tests = Counter(tree_tests(learner.tree))
                newcomer = snapshot.n - 1
                for test in (tests - seen).elements():
                    witness = getattr(test, "target", getattr(test, "source", newcomer))
                    witness_splits += witness != newcomer
                seen = tests

            assert _play(config, record).violations == []
        assert witness_splits > 0  # the corpus still covers third-party witnesses
        assert digest.hexdigest() == REVISION_CORPUS_DIGEST


def failed_bets(config: ExperimentConfig, monkeypatch) -> list[tuple[int, int, frozenset, int]]:
    """(round, k, errors, newcomer) of every hypothesis test of ``config``'s
    session that returned errors; for the conservative learner these are
    its failed bets, since any other dirty test is an internal error.  The
    newcomer is the largest vertex of the tested assignment."""
    bets = []
    original = Session.hypothesis_test

    def recording(session, summary, assignment):
        errors = original(session, summary, assignment)
        if errors:
            bets.append((len(assignment), session.k, errors, max(assignment)))
        return errors

    with monkeypatch.context() as patch:
        patch.setattr(Session, "hypothesis_test", recording)
        assert _play(config, lambda *_: None).violations == []
    return bets


class TestFailedBetErrors:
    """The per-round facts behind the cumulative error bound k(2n+1)(m-1):
    a failed bet at round n returns at most k(2n-1) errors, all of them in
    the newcomer's row or column, the fact :func:`revise` rests on."""

    def test_bound_and_newcomer_over_the_corpus(self, monkeypatch):
        count = 0
        for config in REVISION_CORPUS:
            for n, k, errors, newcomer in failed_bets(config, monkeypatch):
                count += 1
                assert newcomer == n - 1  # vertex ids are reveal order
                assert len(errors) <= k * (2 * n - 1)
                assert all(newcomer in (u, v) for u, _, v in errors)
        assert count == 817

    @pytest.mark.parametrize("k,m,seed,schedule,round_no,size", [
        (1, 2, 6, "novel-last:5", 6, 11),
        (2, 5, 9, "iid-uniform", 4, 14),
    ])
    def test_bound_is_met_with_equality(self, k, m, seed, schedule, round_no, size, monkeypatch):
        config = ExperimentConfig(k=k, m=m, template_seed=seed, schedule=schedule, rounds=round_no)
        bets = {n: len(errors) for n, _, errors, _ in failed_bets(config, monkeypatch)}
        assert bets[round_no] == size == k * (2 * round_no - 1)


class TestReviseInvariants:
    """Every revision of a batch of revising sessions, checked against
    ground truth as it returns: the repaired assignment partitions the
    revealed vertices as the oracle does, with each representative mapping
    to itself; the leaf labels are unique and are the representatives; the
    tree classifies every revealed vertex as the assignment does; and the
    leaf count is the oracle class count, so at most 2m leaves were taken."""

    def test_observer_sees_valid_states(self, monkeypatch):
        teacher = None
        leaves_added = []

        def checked(tree, summary, frozen, new_vertex, errors):
            leaves_before = tree.leaf_count
            assignment = revise(tree, summary, frozen, new_vertex, errors)
            ground_truth = teacher.peek_ground_truth()
            classes = oracle_partition(ground_truth)
            by_domain = {}
            for v in sorted(assignment):
                by_domain.setdefault(assignment[v], []).append(v)
            assert sorted(by_domain.values()) == classes
            assert all(assignment[rep] == rep for rep in by_domain)
            labels = [leaf.label for leaf in tree.leaves()]
            assert len(labels) == len(set(labels)) == len(classes)
            assert set(labels) == set(by_domain)
            for v in assignment:
                assert replay_classification(tree, v, ground_truth) == assignment[v]
            leaves_added.append(len(labels) - leaves_before)
            return assignment

        monkeypatch.setattr("domainlearn.learners.revise", checked)
        # iid sessions, and novel-last sessions whose newcomer also splits
        # an earlier class as a witness, so one revision splits twice or more
        for k, spec, rounds in ((2, "iid-uniform", 10), (1, "novel-last:3", 6)):
            for seed in range(50, 62):
                template = generate_template(seed, m=4, k=k, edge_density=0.5)
                schedule = parse_schedule(spec, template.m)
                instances = TemplateInstances(template, schedule, draw_seed=seed * 31 + 1)
                teacher = SyntheticTeacher(instances)
                learner = ConservativeLearner(Session(teacher))
                for _ in range(rounds):
                    learner.run_round()
        assert len(leaves_added) == 63
        assert sum(added > 1 for added in leaves_added) == 7


class TestReviseContract:
    """``revise`` leaves the frozen hypothesis it is given as it was, since
    the learner rebuilds the summary from that same dict afterwards, and
    returns the repaired assignment as a new dict."""

    def test_frozen_hypothesis_is_not_mutated(self, monkeypatch):
        calls = []

        def checked(tree, summary, frozen, new_vertex, errors):
            before = dict(frozen)
            assignment = revise(tree, summary, frozen, new_vertex, errors)
            assert frozen == before
            assert assignment is not frozen
            calls.append(new_vertex)
            return assignment

        monkeypatch.setattr("domainlearn.learners.revise", checked)
        for seed in range(6):
            template = generate_template(seed + 300, m=4, k=2, edge_density=0.5)
            instances = TemplateInstances(template, IidUniform(template.m), draw_seed=seed)
            session = Session(SyntheticTeacher(instances))
            learner = ConservativeLearner(session)
            for _ in range(12):
                learner.run_round()
        assert len(calls) >= 6  # the sessions actually revised

    def test_no_column_lookup_repeats(self, monkeypatch):
        # Within one revision each (test, member) request is looked up once,
        # save one more look-up per split that reads the split test's policy
        # bit; a leaf retrying To(a, x) at witness w = x, or a split side
        # retrying the tests its leaf already tried, repeats look-ups.
        lookups = []
        for test_class in (To, From):
            def recording(test, candidate, original=test_class.request_for):
                lookups.append((test, candidate))
                return original(test, candidate)

            monkeypatch.setattr(test_class, "request_for", recording)
        revisions = 0

        def checked(tree, summary, frozen, new_vertex, errors):
            nonlocal revisions
            before = Counter(tree_tests(tree))
            lookups.clear()
            assignment = revise(tree, summary, frozen, new_vertex, errors)
            split_tests = Counter(tree_tests(tree)) - before
            repeated = Counter(lookups) - Counter(set(lookups))
            assert set(repeated.values()) <= {1}
            assert Counter(test for test, _ in repeated) <= split_tests
            revisions += 1
            return assignment

        monkeypatch.setattr("domainlearn.learners.revise", checked)
        for seed in range(4):
            template = generate_template(seed + 40, m=5, k=2, edge_density=0.5)
            schedule = parse_schedule("novel-last:4", 5)
            instances = TemplateInstances(template, schedule, draw_seed=seed)
            teacher = SyntheticTeacher(instances)
            learner = ConservativeLearner(Session(teacher))
            for _ in range(8):
                learner.run_round()
        assert revisions >= 8


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
        instances = TemplateInstances(template, IidUniform(template.m), draw_seed=29)
        teacher = SyntheticTeacher(instances)
        session = Session(teacher)
        learner = ConservativeLearner(session)
        for _ in range(30):
            learner.run_round()
            snapshot = session.ledger.per_round[-1]
            m_now = revealed_class_count(template, instances)
            assert snapshot.cnq_cum <= 3 + (snapshot.n - 1) * (m_now - 1)

    def test_error_bounds_per_round_and_cumulative(self):
        template = generate_template(seed=24, m=4, k=2, edge_density=0.5)
        instances = TemplateInstances(template, IidUniform(template.m), draw_seed=30)
        teacher = SyntheticTeacher(instances)
        session = Session(teacher)
        learner = ConservativeLearner(session)
        errors_before = 0
        for round_no in range(1, 26):
            learner.run_round()
            round_errors = session.ledger.errors_cumulative - errors_before
            errors_before = session.ledger.errors_cumulative
            assert round_errors <= 2 * (2 * round_no - 1)  # |E| <= k(2i-1)
            m_now = revealed_class_count(template, instances)
            assert errors_before <= 2 * (2 * round_no + 1) * (m_now - 1)

    def test_invariants_after_every_round(self):
        for seed in (31, 32, 33):
            template = generate_template(seed=seed, m=4, k=2, edge_density=0.5)
            instances = TemplateInstances(template, IidUniform(template.m), draw_seed=seed)
            teacher = SyntheticTeacher(instances)
            session = Session(teacher)
            learner = ConservativeLearner(session)
            for _ in range(12):
                learner.run_round()
                failed = check_round_invariants(
                    teacher.peek_ground_truth(),
                    learner.summary,
                    learner.assignment,
                    learner.tree,
                )
                assert not failed, failed
                assert isomorphic_small(
                    summarize(teacher.peek_ground_truth())[0], learner.summary
                )

    def test_zero_errors_after_full_coverage(self):
        template = generate_template(seed=41, m=3, k=2, edge_density=0.5)
        instances = TemplateInstances(template, IidUniform(template.m), draw_seed=77)
        teacher = SyntheticTeacher(instances)
        session = Session(teacher)
        learner = ConservativeLearner(session)
        coverage_round = None
        for round_no in range(1, 40):
            learner.run_round()
            if coverage_round is None and len(set(revealed_domains(instances))) == 3:
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
        instances = TemplateInstances(PAIR_WORLD, Scripted((0, 1), 2), draw_seed=1)
        teacher = InconsistentTeacher(instances)
        session = Session(teacher)
        learner = TirelessLearner(session)
        learner.run_round()
        with pytest.raises(LearnerInternalError):
            learner.run_round()  # CNQ answers contradict the hypothesis test

    def test_conservative_rejects_dirty_initial_hypothesis(self):
        class DirtyHtqTeacher(SyntheticTeacher):
            def hypothesis_test(self, summary, assignment):
                u = next(iter(assignment))
                return frozenset({(u, 0, u)})

        teacher = DirtyHtqTeacher(TemplateInstances(PAIR_WORLD, Scripted((0,), 2), draw_seed=1))
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
        failed = check_round_invariants(
            teacher.peek_ground_truth(),
            learner.summary,
            learner.assignment,
            learner.tree,
        )
        assert "partition-matches-oracle" in failed

    def test_reducible_hypothesis_caught_immediately(self):
        session, _ = start_session(PAIR_WORLD, (0, 0))
        learner = ReducibleHypothesisLearner(session)
        learner.run_round()
        with pytest.raises(SC1Violation):
            learner.run_round()
