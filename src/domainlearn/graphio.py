"""Text and DOT writers for digraphs and policies; nothing here reads them.

The digraph text format, which template dumps use, is line-oriented:

    digraph k=<k> n=<n>
    <u> r<a> <v>

with one line per edge in sorted (u, a, v) order; right a is written
``r<a>``, 0 <= a < k.  It requires the vertex set to be exactly 0..n-1
(which holds for world templates); graphs with id gaps are rejected.
Policy debug dumps use a looser format with an explicit vertex list,
because summaries keep their original representative ids.
"""

from __future__ import annotations

from typing import Mapping

from .digraph import LabeledDigraph


def digraph_to_text(g: LabeledDigraph) -> str:
    n = g.vertex_count
    if set(g.vertices) != set(range(n)):
        raise ValueError("text format requires dense vertex ids 0..n-1")
    lines = [f"digraph k={g.k} n={n}"]
    for u, a, v in g.edges():
        lines.append(f"{u} r{a} {v}")
    return "\n".join(lines) + "\n"


def digraph_to_dot(g: LabeledDigraph) -> str:
    lines = ["digraph template {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for u, a, v in g.edges():
        lines.append(f'  "{u}" -> "{v}" [label="r{a}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def policy_to_text(summary: LabeledDigraph, assignment: Mapping[int, int]) -> str:
    """Debug dump of a policy: summary vertices and edges, then one
    ``assign <entity> -> <domain>`` line per entity."""
    vertex_list = ",".join(str(v) for v in summary.vertices)
    lines = [f"summary k={summary.k} vertices={vertex_list}"]
    for u, a, v in summary.edges():
        lines.append(f"edge {u} r{a} {v}")
    for v in sorted(assignment):
        lines.append(f"assign {v} -> {assignment[v]}")
    return "\n".join(lines) + "\n"


def policy_to_dot(summary: LabeledDigraph, assignment: Mapping[int, int]) -> str:
    """DOT rendering of a policy: domain nodes sized by membership."""
    members: dict[int, list[int]] = {v: [] for v in summary.vertices}
    for entity in sorted(assignment):
        members[assignment[entity]].append(entity)
    lines = ["digraph policy {"]
    for v in summary.vertices:
        lines.append(f'  "{v}" [label="domain {v}\\n{len(members[v])} member(s)"];')
    for u, a, v in summary.edges():
        lines.append(f'  "{u}" -> "{v}" [label="r{a}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
