"""Session monitor: success-criteria enforcement and ledger accounting."""

from __future__ import annotations

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from domainlearn import learners, protocol
from domainlearn.digraph import LabeledDigraph
from domainlearn.experiments import ExperimentConfig, run_experiment
from domainlearn.oracle import oracle_partition
from domainlearn.protocol import (
    ProtocolViolation,
    SC1Violation,
    SC2Violation,
    Session,
    Teacher,
)
from domainlearn.summarize import summarize
from domainlearn.teacher import (
    IidUniform,
    Scripted,
    SyntheticTeacher,
    TemplateInstances,
    WorldTemplate,
    generate_template,
)

from .strategies import digraphs, graph_of


def edge_world(with_loop: bool = False) -> WorldTemplate:
    edges = [(0, 0, 1)] + ([(0, 0, 0)] if with_loop else [])
    return WorldTemplate(graph_of(1, range(2), edges))


def make_session(script=(0, 1, 0, 1), with_loop=False) -> Session:
    instances = TemplateInstances(edge_world(with_loop), Scripted(tuple(script), 2), draw_seed=5)
    teacher = SyntheticTeacher(instances)
    return Session(teacher)


def clean_hypothesis_for(u: int) -> tuple[LabeledDigraph, dict[int, int]]:
    """An enforcing single-domain hypothesis for a revealed prefix of the
    one vertex ``u``, which has no edges yet (first reveal of the edge_world
    script)."""
    return LabeledDigraph(1, [u]), {u: u}


class TestSC2:
    def test_first_nvq_succeeds(self):
        session = make_session()
        assert session.next_vertex() == 0
        assert session.ledger.nvq_count == 1

    def test_nvq_without_clean_htq_violates(self):
        session = make_session()
        session.next_vertex()
        with pytest.raises(SC2Violation):
            session.next_vertex()

    def test_nvq_after_clean_htq_succeeds(self):
        session = make_session()
        u = session.next_vertex()
        summary, assignment = clean_hypothesis_for(u)
        assert not session.hypothesis_test(summary, assignment)
        assert session.next_vertex() == 1

    def test_dirty_htq_does_not_close_round(self):
        session = make_session(script=(0, 1))
        u = session.next_vertex()
        summary, assignment = clean_hypothesis_for(u)
        session.hypothesis_test(summary, assignment)
        session.next_vertex()
        # hypothesis keeps both vertices in one domain: misses edge (0,r,1)
        dirty = {0: 0, 1: 0}
        errors = session.hypothesis_test(LabeledDigraph(1, [0]), dirty)
        assert len(errors) == 1
        with pytest.raises(SC2Violation):
            session.next_vertex()


class TestSC1:
    def test_reducible_hypothesis_rejected(self):
        session = make_session()
        u = session.next_vertex()
        session.hypothesis_test(*clean_hypothesis_for(u))
        session.next_vertex()
        # two isolated vertices are mutually indistinguishable: reducible
        reducible = LabeledDigraph(1, [0, 1])
        with pytest.raises(SC1Violation, match="reducible"):
            session.hypothesis_test(reducible, {0: 0, 1: 1})

    def test_non_surjective_assignment_rejected(self):
        session = make_session()
        u = session.next_vertex()
        session.hypothesis_test(*clean_hypothesis_for(u))
        session.next_vertex()
        summary = graph_of(1, [0, 1], [(0, 0, 1)])
        with pytest.raises(SC1Violation, match="surjective"):
            session.hypothesis_test(summary, {0: 0, 1: 0})


class TestProtocolChecks:
    def test_connection_requires_revealed_vertices(self):
        session = make_session()
        session.next_vertex()
        with pytest.raises(ProtocolViolation):
            session.connection(0, 0, 1)

    def test_connection_rejects_bad_right(self):
        session = make_session()
        session.next_vertex()
        with pytest.raises(ProtocolViolation):
            session.connection(0, 5, 0)

    def test_htq_domain_must_equal_revealed_set(self):
        session = make_session()
        session.next_vertex()
        with pytest.raises(ProtocolViolation, match="revealed"):
            session.hypothesis_test(LabeledDigraph(1, [0]), {0: 0, 7: 0})

    @pytest.mark.parametrize("extra", ["x", None])
    def test_htq_domain_message_names_keys_of_any_type(self, extra):
        session = make_session()
        session.next_vertex()
        with pytest.raises(ProtocolViolation, match=rf"missing \[\], extra \[{extra!r}\]$"):
            session.hypothesis_test(LabeledDigraph(1, [0]), {0: 0, extra: 0})


class RecordingTeacher(Teacher):
    """Passes every query to a synthetic teacher and records its name."""

    def __init__(self, inner: SyntheticTeacher):
        self._inner = inner
        self.calls: list[str] = []

    @property
    def k(self) -> int:
        return self._inner.k

    def next_vertex(self) -> int:
        self.calls.append("next_vertex")
        return self._inner.next_vertex()

    def connection(self, u, a, v):
        self.calls.append("connection")
        return self._inner.connection(u, a, v)

    def hypothesis_test(self, summary, assignment):
        self.calls.append("hypothesis_test")
        return self._inner.hypothesis_test(summary, assignment)


def ledger_counters(session: Session) -> tuple[int, ...]:
    ledger = session.ledger
    return (
        ledger.nvq_count,
        ledger.cnq_count,
        ledger.htq_count,
        ledger.errors_cumulative,
        len(ledger.per_round),
    )


# the enforcing policy of the edge_world after reveals d0, d1: vertex 0
# (domain 0) has the edge to vertex 1 (domain 1)
TWO_DOMAINS = graph_of(1, [0, 1], [(0, 0, 1)])

MALFORMED_QUERIES = {
    "cnq-unrevealed-vertex": lambda s: s.connection(0, 0, 3),
    "cnq-right-k": lambda s: s.connection(0, 1, 1),
    "cnq-right-minus-one": lambda s: s.connection(0, -1, 1),
    # a right of another type, even one inside the range, is no right
    "cnq-right-half": lambda s: s.connection(0, 0.5, 1),
    "cnq-right-str": lambda s: s.connection(0, "0", 1),
    "cnq-right-none": lambda s: s.connection(0, None, 1),
    # an id or right that is not an int is refused before any lookup: a
    # list is unhashable, and an integral float or a bool equals, and
    # hashes as, a revealed id or a right
    "cnq-u-unhashable": lambda s: s.connection([0], 0, 1),
    "cnq-right-unhashable": lambda s: s.connection(0, [0], 1),
    "cnq-v-unhashable": lambda s: s.connection(0, 0, [0]),
    "cnq-u-float": lambda s: s.connection(0.0, 0, 1),
    "cnq-u-bool": lambda s: s.connection(True, 0, 1),
    "cnq-right-float": lambda s: s.connection(0, 0.0, 1),
    "cnq-right-bool": lambda s: s.connection(0, False, 1),  # the one right is 0
    "cnq-v-float": lambda s: s.connection(0, 0, 0.0),
    "cnq-v-bool": lambda s: s.connection(0, 0, True),
    "htq-extra-vertex": lambda s: s.hypothesis_test(
        TWO_DOMAINS, {0: 0, 1: 1, 2: 0, 3: 0}
    ),
    "htq-missing-vertex": lambda s: s.hypothesis_test(TWO_DOMAINS, {0: 0, 1: 1}),
    "htq-reducible-summary": lambda s: s.hypothesis_test(
        LabeledDigraph(1, [0, 1]), {0: 0, 1: 1, 2: 0}
    ),
    "htq-not-surjective": lambda s: s.hypothesis_test(
        TWO_DOMAINS, {0: 0, 1: 0, 2: 0}
    ),
    "htq-maps-outside-summary": lambda s: s.hypothesis_test(
        TWO_DOMAINS, {0: 0, 1: 1, 2: 7}
    ),
    "htq-other-alphabet": lambda s: s.hypothesis_test(
        graph_of(2, [0, 1], [(0, 0, 1)]), {0: 0, 1: 1, 2: 0}
    ),
    # these once ended in AttributeError or TypeError, not a violation
    "htq-summary-none": lambda s: s.hypothesis_test(None, {0: 0, 1: 1, 2: 0}),
    # a list of the revealed ids passes a test of its set of items
    "htq-assignment-list": lambda s: s.hypothesis_test(TWO_DOMAINS, [0, 1, 2]),
    "htq-domain-unhashable": lambda s: s.hypothesis_test(TWO_DOMAINS, {0: 0, 1: 1, 2: [0]}),
    # a key of another type does not compare with the ids in the message
    "htq-key-str": lambda s: s.hypothesis_test(TWO_DOMAINS, {0: 0, 1: 1, 2: 0, "x": 0}),
    "htq-key-none": lambda s: s.hypothesis_test(TWO_DOMAINS, {0: 0, 1: 1, 2: 0, None: 0}),
}


def open_third_round(summary: LabeledDigraph = TWO_DOMAINS) -> tuple[Session, RecordingTeacher]:
    """A session whose second round was closed by a clean test of
    ``summary``, a digraph equal to TWO_DOMAINS, with vertex 2 revealed."""
    instances = TemplateInstances(edge_world(), Scripted((0, 1, 0), 2), draw_seed=5)
    inner = SyntheticTeacher(instances)
    teacher = RecordingTeacher(inner)
    session = Session(teacher)
    u = session.next_vertex()
    assert not session.hypothesis_test(*clean_hypothesis_for(u))
    session.next_vertex()
    assert not session.hypothesis_test(summary, {0: 0, 1: 1})
    assert session.next_vertex() == 2  # revealed: 0, 1, 2; round 3 open
    teacher.calls.clear()
    return session, teacher


class TestSessionIsTheGate:
    """A malformed query raises at the session, before the teacher is
    called and before any ledger counter moves."""

    @pytest.mark.parametrize("query", MALFORMED_QUERIES.values(), ids=MALFORMED_QUERIES)
    def test_malformed_query_never_reaches_teacher(self, query):
        session, teacher = open_third_round()
        before = ledger_counters(session)
        with pytest.raises(ProtocolViolation):
            query(session)
        assert teacher.calls == []
        assert ledger_counters(session) == before

    def test_well_formed_queries_reach_teacher(self):
        session, teacher = open_third_round()
        assert session.connection(2, 0, 1) is True
        assert not session.hypothesis_test(TWO_DOMAINS, {0: 0, 1: 1, 2: 0})
        assert teacher.calls == ["connection", "hypothesis_test"]


class RepeatingTeacher(RecordingTeacher):
    """Answers every next-vertex query with vertex 0, so its second reveal
    repeats a vertex while its world reveals a new one."""

    def next_vertex(self) -> int:
        super().next_vertex()
        return 0


def test_a_repeated_vertex_is_rejected_before_the_ledger_counts_it():
    instances = TemplateInstances(edge_world(), Scripted((0, 1), 2), draw_seed=5)
    session = Session(RepeatingTeacher(SyntheticTeacher(instances)))
    u = session.next_vertex()
    assert not session.hypothesis_test(*clean_hypothesis_for(u))
    before = ledger_counters(session)
    with pytest.raises(ProtocolViolation, match="^teacher repeated vertex 0$"):
        session.next_vertex()
    assert ledger_counters(session) == before


class TestLedger:
    def test_connection_answers_and_counts(self):
        session = make_session(script=(0, 1))
        u = session.next_vertex()
        session.hypothesis_test(*clean_hypothesis_for(u))
        session.next_vertex()
        assert session.connection(0, 0, 1) is True
        assert session.connection(1, 0, 0) is False
        assert session.connection(0, 0, 0) is False
        assert session.ledger.cnq_count == 3

    def test_cnq_not_cached(self):
        session = make_session()
        session.next_vertex()
        session.connection(0, 0, 0)
        session.connection(0, 0, 0)
        assert session.ledger.cnq_count == 2

    def test_snapshot_per_completed_round(self):
        session = make_session(script=(0, 1))
        u = session.next_vertex()
        session.hypothesis_test(*clean_hypothesis_for(u))
        session.next_vertex()
        errors = session.hypothesis_test(LabeledDigraph(1, [0]), {0: 0, 1: 0})
        assert errors
        good = graph_of(1, [0, 1], [(0, 0, 1)])
        assert not session.hypothesis_test(good, {0: 0, 1: 1})
        ledger = session.ledger
        assert [snap.n for snap in ledger.per_round] == [1, 2]
        assert ledger.per_round[1].htq_cum == 3
        assert ledger.per_round[1].errors_cum == 1
        assert ledger.errors_cumulative == 1

    def test_errors_accumulate_per_htq(self):
        session = make_session(script=(0, 1))
        u = session.next_vertex()
        session.hypothesis_test(*clean_hypothesis_for(u))
        session.next_vertex()
        dirty_summary, dirty_assignment = LabeledDigraph(1, [0]), {0: 0, 1: 0}
        session.hypothesis_test(dirty_summary, dirty_assignment)
        session.hypothesis_test(dirty_summary, dirty_assignment)
        assert session.ledger.errors_cumulative == 2
        assert session.ledger.htq_count == 3


def count_partitions(monkeypatch) -> list[LabeledDigraph]:
    """Record every summary the session partitions for SC-1."""
    partitioned: list[LabeledDigraph] = []
    real = protocol.is_irreducible

    def recording(summary):
        partitioned.append(summary)
        return real(summary)

    monkeypatch.setattr(protocol, "is_irreducible", recording)
    return partitioned


class AlwaysEqual(LabeledDigraph):
    """A digraph that claims to equal anything."""

    __slots__ = ()

    def __eq__(self, other):
        return True


class TestSC1Once:
    """The monitor partitions a summary value once: an equal value is
    answered by one comparison with the monitor's own copy, and any other
    value, an in-place edit of an accepted summary included, is checked."""

    def test_an_equal_copy_is_not_partitioned_again(self, monkeypatch):
        session, teacher = open_third_round(graph_of(1, [0, 1], [(0, 0, 1)]))
        partitioned = count_partitions(monkeypatch)
        copy = graph_of(1, [0, 1], [(0, 0, 1)])
        assert not session.hypothesis_test(copy, {0: 0, 1: 1, 2: 0})
        assert partitioned == []
        assert session.ledger.per_round[-1].observed_m == 2
        # another value is partitioned, once
        other = graph_of(1, [0, 1], [(0, 0, 1), (1, 0, 1)])
        assert session.hypothesis_test(other, {0: 0, 1: 1, 2: 0})
        assert session.hypothesis_test(other, {0: 0, 1: 1, 2: 0})
        assert partitioned == [other]
        assert teacher.calls == ["hypothesis_test"] * 3

    def test_an_accepted_summary_edited_in_place_is_checked_again(self):
        summary = graph_of(1, [0, 1], [(0, 0, 1)])
        session, teacher = open_third_round(summary)
        # with all four pair edges, 0 and 1 are indistinguishable
        for u, v in ((0, 0), (1, 0), (1, 1)):
            summary.connect(u, 0, 1 << v, 0)
        before = ledger_counters(session)
        with pytest.raises(SC1Violation, match="reducible"):
            session.hypothesis_test(summary, {0: 0, 1: 1, 2: 0})
        assert ledger_counters(session) == before
        assert teacher.calls == []

    def test_a_subclass_cannot_vouch_for_itself(self):
        session, teacher = open_third_round()
        before = ledger_counters(session)
        with pytest.raises(SC1Violation, match="reducible"):
            session.hypothesis_test(AlwaysEqual(1, [0, 1]), {0: 0, 1: 1, 2: 0})
        assert ledger_counters(session) == before
        assert teacher.calls == []

    def test_a_conservative_play_partitions_each_summary_once(self, monkeypatch):
        partitioned = count_partitions(monkeypatch)
        revisions = []
        real_revise = learners.revise

        def counted_revise(*args, **kwargs):
            revisions.append(args[3])  # the newcomer that forced it
            return real_revise(*args, **kwargs)

        monkeypatch.setattr(learners, "revise", counted_revise)
        config = ExperimentConfig(k=2, m=6, template_seed=3, schedule="novel-last:20", rounds=26)
        report = run_experiment(config)
        assert not report.violations
        assert len(report.rows) == 25
        assert len(revisions) >= 1
        # the first summary and one per revision, against one HTQ per round
        # and one more per revision
        assert len(partitioned) == 1 + len(revisions)
        assert report.rows[-1].htq_cum == 25 + len(revisions)
        # no value is partitioned twice
        assert all(a != b for i, a in enumerate(partitioned) for b in partitioned[:i])


class SessionMachine(RuleBasedStateMachine):
    """One session over a small template world, driven by interleaved
    next-vertex, connection and hypothesis queries, valid and malformed.
    A model predicts every outcome from first principles: the oracle's
    partition of the submitted value, the revealed set, surjectivity and
    SC-2, and each error from ground truth, cell by cell."""

    K = 2
    MAX_REVEALED = 8

    @initialize(
        template_seed=st.integers(0, 3), draw_seed=st.integers(0, 3), rounds=st.integers(0, 6)
    )
    def open_session(self, template_seed, draw_seed, rounds):
        """A session after ``rounds`` rounds, each closed by a clean test."""
        template = generate_template(template_seed, 3, self.K, 0.5)
        self.inner = SyntheticTeacher(TemplateInstances(template, IidUniform(3), draw_seed))
        self.teacher = RecordingTeacher(self.inner)
        self.session = Session(self.teacher)
        self.revealed: list[int] = []
        self.awaiting = False
        self.counters = [0, 0, 0, 0]  # nvq, cnq, htq, errors
        self.observed_m: list[int] = []
        self.calls: list[str] = []
        self.accepted: LabeledDigraph | None = None  # the last accepted object
        for _ in range(rounds):
            self.next_vertex()
            self.clean_test()

    @rule()
    def next_vertex(self):
        if self.awaiting:
            with pytest.raises(SC2Violation):
                self.session.next_vertex()
            return
        if len(self.revealed) == self.MAX_REVEALED:
            return
        assert self.session.next_vertex() == len(self.revealed)
        self.revealed.append(len(self.revealed))
        self.awaiting = True
        self.counters[0] += 1
        self.calls.append("next_vertex")

    @rule(data=st.data(), bad=st.sampled_from([None, "u", "a", "v"]))
    def connection(self, data, bad):
        """Over revealed vertices and a right in range, but for the
        argument ``bad`` names, which is drawn malformed."""
        ids = st.sampled_from(self.revealed or [0])
        bad_ids = st.sampled_from([-1, len(self.revealed), [0], 0.0, True])
        u = data.draw(bad_ids if bad == "u" else ids)
        v = data.draw(bad_ids if bad == "v" else ids)
        bad_rights = st.sampled_from([2, -1, 0.5, "0", None, [0], 0.0, True])
        a = data.draw(bad_rights if bad == "a" else st.integers(0, self.K - 1))
        if (
            all(type(x) is int for x in (u, a, v))
            and u in self.revealed
            and v in self.revealed
            and 0 <= a < self.K
        ):
            truth = self.inner.peek_ground_truth().has_edge(u, a, v)
            assert self.session.connection(u, a, v) is truth
            self.counters[1] += 1
            self.calls.append("connection")
        else:
            with pytest.raises(ProtocolViolation):
                self.session.connection(u, a, v)

    @rule()
    def clean_test(self):
        """The revealed graph's own quotient: always accepted, and clean."""
        self.hypothesis_test(*summarize(self.inner.peek_ground_truth()))

    @rule(data=st.data(), kind=st.sampled_from(["accepted", "copy", "edited", "fresh"]),
          assignment_kind=st.sampled_from(["total", "partial", "not surjective", "outside"]))
    def any_test(self, data, kind, assignment_kind):
        summary = self.accepted
        if summary is None or kind == "fresh":
            summary = data.draw(digraphs(max_n=4, max_k=self.K))
        elif kind == "copy":
            summary = graph_of(summary.k, summary.vertices, summary.edges())
        elif kind == "edited":
            vertices = summary.vertices
            if vertices and data.draw(st.booleans()):
                pick, right = st.sampled_from(vertices), st.integers(0, summary.k - 1)
                u, a, v = data.draw(pick), data.draw(right), data.draw(pick)
                summary.connect(u, a, 1 << v, 0)
            else:
                summary.add_vertex(max(vertices, default=-1) + 1)
        domains = summary.vertices or (0,)
        # the first vertices of a permutation take one domain each, so a
        # total assignment is surjective whenever it can be
        order = data.draw(st.permutations(self.revealed))
        assignment = {
            u: domains[i] if i < len(domains) else data.draw(st.sampled_from(domains))
            for i, u in enumerate(order)
        }
        if assignment_kind == "partial":
            if assignment and data.draw(st.booleans()):
                del assignment[data.draw(st.sampled_from(sorted(assignment)))]
            else:
                extra = data.draw(st.sampled_from([self.MAX_REVEALED + 1, "x", None]))
                assignment[extra] = domains[0]
        elif assignment_kind == "not surjective":
            assignment = dict.fromkeys(self.revealed, domains[0])
        elif assignment_kind == "outside" and assignment:
            assignment[data.draw(st.sampled_from(sorted(assignment)))] = max(domains) + 1
        self.hypothesis_test(summary, assignment)

    def hypothesis_test(self, summary, assignment):
        if summary.k != self.K or set(assignment) != set(self.revealed):
            with pytest.raises(ProtocolViolation) as raised:
                self.session.hypothesis_test(summary, assignment)
            assert not isinstance(raised.value, SC1Violation)
            return
        if len(oracle_partition(summary)) != summary.vertex_count:
            with pytest.raises(SC1Violation, match="reducible"):
                self.session.hypothesis_test(summary, assignment)
            return
        if set(assignment.values()) != set(summary.vertices):
            with pytest.raises(SC1Violation, match="surjective"):
                self.session.hypothesis_test(summary, assignment)
            return
        truth = self.inner.peek_ground_truth()
        expected = {
            (u, a, v)
            for u in self.revealed
            for a in range(self.K)
            for v in self.revealed
            if summary.has_edge(assignment[u], a, assignment[v]) != truth.has_edge(u, a, v)
        }
        assert self.session.hypothesis_test(summary, assignment) == expected
        self.counters[2] += 1
        self.counters[3] += len(expected)
        self.calls.append("hypothesis_test")
        self.accepted = summary
        if not expected and self.awaiting:
            self.awaiting = False
            self.observed_m.append(summary.vertex_count)

    @invariant()
    def the_ledger_counts_only_accepted_queries(self):
        counters = (*self.counters, len(self.observed_m))
        assert ledger_counters(self.session) == counters
        assert self.teacher.calls == self.calls

    @invariant()
    def every_round_but_the_open_one_was_closed_by_a_clean_test(self):
        per_round = self.session.ledger.per_round
        assert [snapshot.n for snapshot in per_round] == list(range(1, len(per_round) + 1))
        assert len(per_round) == self.counters[0] - self.awaiting
        assert [snapshot.observed_m for snapshot in per_round] == self.observed_m


# no shrink phase: a failing machine reports its first failing run, since
# shrinking one can take minutes at hundreds of MB
SessionMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
test_session_machine = SessionMachine.TestCase
