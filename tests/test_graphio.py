"""Text and DOT serialization round trips."""

from __future__ import annotations

import pytest
from hypothesis import given

from domainlearn import LabeledDigraph
from domainlearn.graphio import (
    digraph_from_text,
    digraph_to_dot,
    digraph_to_text,
    policy_to_dot,
    policy_to_text,
)

from .strategies import digraphs


def test_text_dump_format():
    g = LabeledDigraph(2, range(3), [(0, 1, 2), (0, 0, 1)])
    assert digraph_to_text(g) == "digraph k=2 n=3\n0 r0 1\n0 r1 2\n"


def test_text_requires_dense_ids():
    g = LabeledDigraph(1, [0, 2], [(0, 0, 2)])
    with pytest.raises(ValueError):
        digraph_to_text(g)


def test_parse_rejects_malformed_header():
    with pytest.raises(ValueError):
        digraph_from_text("graph n=1 k=1\n")


def test_parse_rejects_unknown_right():
    # right a is spelled exactly r<a>, 0 <= a < k
    assert digraph_from_text("digraph k=2 n=2\n0 r1 1\n").has_edge(0, 1, 1)
    for name in ("bogus", "r01", "r1", "r-0", "R0"):
        with pytest.raises(ValueError, match="unknown access right name"):
            digraph_from_text(f"digraph k=1 n=2\n0 {name} 1\n")


@given(digraphs())
def test_text_round_trip(g):
    assert digraph_from_text(digraph_to_text(g)) == g


def test_dot_export_labels_edges_with_right_names():
    g = LabeledDigraph(2, range(2), [(0, 1, 1)])
    dot = digraph_to_dot(g)
    assert '"0" -> "1" [label="r1"];' in dot
    assert dot.startswith("digraph G {") and dot.rstrip().endswith("}")


def test_policy_text_lists_summary_and_assignment():
    summary = LabeledDigraph(1, [0, 2], [(0, 0, 2)])
    text = policy_to_text(summary, {0: 0, 1: 0, 2: 2})
    assert text == (
        "summary k=1 vertices=0,2\n"
        "edge 0 r0 2\n"
        "assign 0 -> 0\n"
        "assign 1 -> 0\n"
        "assign 2 -> 2\n"
    )


def test_policy_dot_mentions_membership():
    summary = LabeledDigraph(1, [0, 2], [(0, 0, 2)])
    dot = policy_to_dot(summary, {0: 0, 1: 0, 2: 2})
    assert "2 member(s)" in dot
    assert '"0" -> "2" [label="r0"];' in dot
