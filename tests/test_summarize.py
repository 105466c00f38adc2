"""Summary construction: contract examples and structural properties."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from domainlearn.digraph import LabeledDigraph, equivalence_partition, is_irreducible
from domainlearn.oracle import is_strong_homomorphism, isomorphic_small
from domainlearn.summarize import summarize

from .strategies import digraphs


def test_empty_graph():
    summary, assignment = summarize(LabeledDigraph(1))
    assert summary.vertex_count == 0
    assert assignment == {}


def test_twin_collapse_example():
    g = LabeledDigraph(1, range(3), [(0, 0, 2), (1, 0, 2)])
    summary, assignment = summarize(g)
    assert summary.vertices == (0, 2)
    assert summary.edges() == [(0, 0, 2)]
    assert assignment == {0: 0, 1: 0, 2: 2}


def test_irreducible_input_maps_bijectively():
    g = LabeledDigraph(1, [0, 1], [(0, 0, 1)])
    summary, assignment = summarize(g)
    assert summary == g
    assert assignment == {0: 0, 1: 1}


@given(digraphs())
@settings(max_examples=120)
def test_summary_contract(g):
    summary, assignment = summarize(g)
    # surjective strong homomorphism onto an irreducible subgraph of g
    assert is_strong_homomorphism(g, summary, assignment)
    assert set(assignment.values()) == set(summary.vertices)
    assert is_irreducible(summary)
    assert all(g.has_vertex(v) for v in summary.vertices)
    assert all(g.has_edge(*e) for e in summary.edges())
    assert summary.vertex_count == len(equivalence_partition(g))


def relabel(g: LabeledDigraph, permutation: dict[int, int]) -> LabeledDigraph:
    return LabeledDigraph(
        g.k,
        [permutation[v] for v in g.vertices],
        [(permutation[u], a, permutation[v]) for u, a, v in g.edges()],
    )


@given(digraphs(max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=80)
def test_unique_up_to_isomorphism(g, rnd):
    vertices = list(g.vertices)
    shuffled = vertices[:]
    rnd.shuffle(shuffled)
    permutation = dict(zip(vertices, shuffled))
    relabelled = relabel(g, permutation)
    original_summary, _ = summarize(g)
    relabelled_summary, _ = summarize(relabelled)
    assert isomorphic_small(original_summary, relabelled_summary)
