"""Session monitor: success-criteria enforcement and ledger accounting."""

from __future__ import annotations

import pytest

from domainlearn.digraph import LabeledDigraph
from domainlearn.protocol import (
    ProtocolViolation,
    SC1Violation,
    SC2Violation,
    Session,
    Teacher,
)
from domainlearn.teacher import Scripted, SyntheticTeacher, TemplateInstances, WorldTemplate


def edge_world(with_loop: bool = False) -> WorldTemplate:
    edges = [(0, 0, 1)] + ([(0, 0, 0)] if with_loop else [])
    return WorldTemplate(LabeledDigraph(1, range(2), edges))


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
        summary = LabeledDigraph(1, [0, 1], [(0, 0, 1)])
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
TWO_DOMAINS = LabeledDigraph(1, [0, 1], [(0, 0, 1)])

MALFORMED_QUERIES = {
    "cnq-unrevealed-vertex": lambda s: s.connection(0, 0, 3),
    "cnq-right-k": lambda s: s.connection(0, 1, 1),
    "cnq-right-minus-one": lambda s: s.connection(0, -1, 1),
    # a right of another type, even one inside the range, is no right
    "cnq-right-half": lambda s: s.connection(0, 0.5, 1),
    "cnq-right-str": lambda s: s.connection(0, "0", 1),
    "cnq-right-none": lambda s: s.connection(0, None, 1),
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
        LabeledDigraph(2, [0, 1], [(0, 0, 1)]), {0: 0, 1: 1, 2: 0}
    ),
}


class TestSessionIsTheGate:
    """A malformed query raises at the session, before the teacher is
    called and before any ledger counter moves."""

    def open_third_round(self) -> tuple[Session, RecordingTeacher]:
        instances = TemplateInstances(edge_world(), Scripted((0, 1, 0), 2), draw_seed=5)
        inner = SyntheticTeacher(instances)
        teacher = RecordingTeacher(inner)
        session = Session(teacher)
        u = session.next_vertex()
        assert not session.hypothesis_test(*clean_hypothesis_for(u))
        session.next_vertex()
        assert not session.hypothesis_test(TWO_DOMAINS, {0: 0, 1: 1})
        assert session.next_vertex() == 2  # revealed: 0, 1, 2; round 3 open
        teacher.calls.clear()
        return session, teacher

    @pytest.mark.parametrize("query", MALFORMED_QUERIES.values(), ids=MALFORMED_QUERIES)
    def test_malformed_query_never_reaches_teacher(self, query):
        session, teacher = self.open_third_round()
        before = ledger_counters(session)
        with pytest.raises(ProtocolViolation):
            query(session)
        assert teacher.calls == []
        assert ledger_counters(session) == before

    def test_well_formed_queries_reach_teacher(self):
        session, teacher = self.open_third_round()
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
        good = LabeledDigraph(1, [0, 1], [(0, 0, 1)])
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
