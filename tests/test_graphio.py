"""Text and DOT serialization of digraphs and policies."""

from __future__ import annotations

import pytest

from domainlearn.graphio import (
    digraph_to_dot,
    digraph_to_text,
    policy_to_dot,
    policy_to_text,
)

from .strategies import graph_of


def test_text_dump_format():
    g = graph_of(2, range(3), [(0, 1, 2), (0, 0, 1)])
    assert digraph_to_text(g) == "digraph k=2 n=3\n0 r0 1\n0 r1 2\n"
    # edges sorted by (source, right, target); an isolated vertex still counts in n
    g = graph_of(3, range(4), [(2, 2, 2), (1, 0, 0), (1, 2, 0), (0, 1, 1)])
    assert digraph_to_text(g) == "digraph k=3 n=4\n0 r1 1\n1 r0 0\n1 r2 0\n2 r2 2\n"


def test_text_requires_dense_ids():
    g = graph_of(1, [0, 2], [(0, 0, 2)])
    with pytest.raises(ValueError):
        digraph_to_text(g)


def test_dot_export_labels_edges_with_right_names():
    g = graph_of(2, range(2), [(0, 1, 1)])
    dot = digraph_to_dot(g)
    assert '"0" -> "1" [label="r1"];' in dot
    assert dot.startswith("digraph template {") and dot.rstrip().endswith("}")


def test_policy_text_lists_summary_and_assignment():
    summary = graph_of(1, [0, 2], [(0, 0, 2)])
    text = policy_to_text(summary, {0: 0, 1: 0, 2: 2})
    assert text == (
        "summary k=1 vertices=0,2\n"
        "edge 0 r0 2\n"
        "assign 0 -> 0\n"
        "assign 1 -> 0\n"
        "assign 2 -> 2\n"
    )


def test_policy_dot_mentions_membership():
    summary = graph_of(1, [0, 2], [(0, 0, 2)])
    dot = policy_to_dot(summary, {0: 0, 1: 0, 2: 2})
    assert "2 member(s)" in dot
    assert '"0" -> "2" [label="r0"];' in dot
