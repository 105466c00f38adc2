"""Both learners on arbitrary ground-truth graphs: an explicit-graph world
behind the production teacher, its every hypothesis test compared with the
brute-force error set, cross-checked after every round against the oracle,
the closed-form bounds and the per-bet error facts; and on template worlds
whose domains are relabelled."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from domainlearn.digraph import LabeledDigraph, induced_subgraph
from domainlearn.learners import ConservativeLearner, TirelessLearner, tree_to_text
from domainlearn.oracle import check_round_invariants, oracle_partition
from domainlearn.protocol import Session
from domainlearn.teacher import (
    Scripted,
    SyntheticTeacher,
    TeacherExhausted,
    TemplateInstances,
    WorldTemplate,
    generate_template,
)

from .strategies import blown_up_digraphs, brute_force_errors, digraphs, graph_of


class GraphWorld:
    """A world over an explicit digraph on ids 0..n-1, revealed in id order.
    Each vertex is its own row: ``rows[a][u]`` is u's out-mask under a over
    the revealed ids."""

    def __init__(self, graph: LabeledDigraph):
        self._graph = graph
        self.rows: list[list[int]] = [[] for _ in range(graph.k)]
        self.row_of: list[int] = []

    def reveal(self) -> int:
        u = len(self.row_of)
        if u == self._graph.vertex_count:
            raise TeacherExhausted(f"all {u} vertices revealed")
        revealed, bit = (2 << u) - 1, 1 << u
        for a, rows in enumerate(self.rows):
            for s in range(u):
                if self._graph.has_edge(s, a, u):
                    rows[s] |= bit
            rows.append(self._graph.out_mask(a, u) & revealed)
        self.row_of.append(u)
        return u


class ContractWorld:
    """A world that holds the world contract and nothing else: its only
    slots are ``rows``, ``row_of`` and ``reveal``, taken from a
    :class:`GraphWorld`, so a teacher that reads anything more fails."""

    __slots__ = ("rows", "row_of", "reveal")

    def __init__(self, graph: LabeledDigraph):
        world = GraphWorld(graph)
        self.rows, self.row_of, self.reveal = world.rows, world.row_of, world.reveal


class RecordingSession(Session):
    """A session that compares every hypothesis test it forwards with the
    brute-force error set over the revealed graph, counts them, and keeps
    (round, errors) of every dirty one."""

    def __init__(self, teacher: SyntheticTeacher):
        super().__init__(teacher)
        self.teacher = teacher
        self.checked = 0
        self.failed_bets: list[tuple[int, frozenset]] = []

    def hypothesis_test(self, summary, assignment):
        errors = super().hypothesis_test(summary, assignment)
        grants, denies = brute_force_errors(self.teacher.peek_ground_truth(), summary, assignment)
        assert errors == grants | denies
        self.checked += 1
        if errors:
            self.failed_bets.append((self.ledger.nvq_count, errors))
        return errors


# MAX_K is the most rights that digraphs, and so blown_up_digraphs, draws
MAX_COPIES, MAX_WITNESSES, MAX_K = 12, 3, 3


@st.composite
def witnessed_blowups(draw) -> LabeledDigraph:
    """A blown-up digraph plus 0-3 witness vertices (1-3 when it has no
    vertex), each with random out and in masks under every right, all under
    a random relabelling.  Revealed in id order, a late witness can split
    classes of earlier copies, so one round can add several classes.  Every
    example makes the same draws whatever the base: the witness count from
    a range that both counts divide, every mask of the largest graph, and a
    permutation of its ids, of which the labels of absent ids are dropped."""
    base = draw(blown_up_digraphs(max_n=MAX_COPIES))
    copies, k = base.vertex_count, base.k
    fewest = 0 if copies else 1
    counts = st.integers(0, math.lcm(MAX_WITNESSES, MAX_WITNESSES + 1) - 1)
    n = copies + fewest + draw(counts) % (MAX_WITNESSES + 1 - fewest)
    g = graph_of(k, range(n), base.edges())
    largest, full = MAX_COPIES + MAX_WITNESSES, (1 << n) - 1
    masks = st.integers(0, (1 << largest) - 1)
    for w in range(copies, copies + MAX_WITNESSES):
        for a in range(MAX_K):
            out_mask, in_mask = draw(masks), draw(masks)
            if w < n and a < k:
                g.connect(w, a, out_mask & full, in_mask & full)
    label = [v for v in draw(st.permutations(range(largest))) if v < n]
    return graph_of(k, range(n), [(label[u], a, label[v]) for u, a, v in g.edges()])


def play_both_learners(g: LabeledDigraph, world_class=GraphWorld) -> None:
    k = g.k
    for learner_class in (TirelessLearner, ConservativeLearner):
        teacher = SyntheticTeacher(world_class(g))
        session = RecordingSession(teacher)
        learner = learner_class(session)
        m_before = 0
        for r in range(1, g.vertex_count + 1):
            learner.run_round()
            peek = teacher.peek_ground_truth()
            assert peek == induced_subgraph(g, range(r))
            assert learner.summary == induced_subgraph(peek, learner.summary.vertices)
            failed = check_round_invariants(
                peek, learner.summary, learner.assignment, learner.tree
            )
            assert failed == {}
            m = len(oracle_partition(peek))
            assert m >= m_before  # classes only split as vertices arrive
            m_before = m
            snapshot = session.ledger.per_round[-1]
            assert snapshot.n == r
            if learner_class is TirelessLearner:
                assert snapshot.cnq_cum == k * r * r
                assert snapshot.errors_cum == 0
                assert learner.reconstruction == peek
            else:
                assert snapshot.cnq_cum <= k + (r - 1) * (m - 1)
                assert snapshot.errors_cum <= k * (2 * r + 1) * (m - 1)
        assert session.checked == session.ledger.htq_count
        for r, errors in session.failed_bets:
            newcomer = r - 1  # ids are revelation order
            assert len(errors) <= k * (2 * r - 1)
            assert all(newcomer in (u, v) for u, _, v in errors)


class TestAnyGraph:
    @given(digraphs(min_n=1, max_n=9))
    @settings(max_examples=430, deadline=None)
    def test_random_digraphs(self, g):
        play_both_learners(g)

    @given(witnessed_blowups())
    @settings(max_examples=430, deadline=None)
    def test_blown_up_digraphs_with_late_witnesses(self, g):
        play_both_learners(g)

    @given(witnessed_blowups())
    @settings(max_examples=200, deadline=None)
    def test_a_world_of_only_the_contract(self, g):
        # the teacher derives ground truth from the row table alone: a late
        # witness's edges into earlier vertices are its row's targets, and
        # theirs into it are read off the rows whose targets name it
        assert not hasattr(ContractWorld(g), "__dict__")
        play_both_learners(g, ContractWorld)


def play_script(learner_class, template: WorldTemplate, script: tuple[int, ...]) -> list:
    """What the learner shows after each round of ``script``: its ledger,
    tree, summary and assignment, copied, since a learner edits them."""
    teacher = SyntheticTeacher(TemplateInstances(template, Scripted(script, template.m), 0))
    session = Session(teacher)
    learner = learner_class(session)
    shown = []
    for _ in script:
        learner.run_round()
        tree = tree_to_text(learner.tree) if learner.keeps_tree else None
        summary = induced_subgraph(learner.summary, learner.summary.vertices)
        shown.append((list(session.ledger.per_round), tree, summary, dict(learner.assignment)))
    return shown


class TestRelabelledDomains:
    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(1, 5),
        k=st.integers(1, 2),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_learners_see_no_domain_index(self, seed, m, k, data):
        # the learners see vertex ids only: relabelling the template's
        # domains by a permutation, and the script with them, changes nothing
        template = generate_template(seed, m, k, 0.5)
        pi = data.draw(st.permutations(range(m)))
        relabelled = WorldTemplate(
            graph_of(k, range(m), [(pi[u], a, pi[v]) for u, a, v in template.graph.edges()])
        )
        script = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=12)))
        for learner_class in (TirelessLearner, ConservativeLearner):
            assert play_script(learner_class, relabelled, tuple(pi[d] for d in script)) == (
                play_script(learner_class, template, script)
            )
