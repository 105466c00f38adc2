"""Summary construction: compress a digraph to its unique (up to
isomorphism) irreducible quotient.

The summary of G groups indistinguishable vertices into protection domains.
The construction here picks the minimum-id vertex of each equivalence class
as its representative, takes the induced subgraph on the representatives as
the summary, and maps every vertex to its class representative.  The result
is therefore both a subgraph of G and canonical: relabelling G yields an
isomorphic (not identical) summary.
"""

from __future__ import annotations

from .digraph import LabeledDigraph, equivalence_partition, induced_subgraph


def summarize(g: LabeledDigraph) -> tuple[LabeledDigraph, dict[int, int]]:
    """Compute the canonical summary policy of ``g`` as the pair
    ``(summary, assignment)``.

    The summary is irreducible and its vertex set is the minimum-id
    representative of each indistinguishability class; the assignment maps
    every vertex of g to its class representative, a surjective strong
    homomorphism from g onto the summary.  Runs in time polynomial in
    |V(g)| and k.
    """
    partition = equivalence_partition(g)
    assignment: dict[int, int] = {}
    representatives = []
    for vertex_class in partition:
        rep = vertex_class[0]  # classes are sorted; min id is the representative
        representatives.append(rep)
        for v in vertex_class:
            assignment[v] = rep
    summary = induced_subgraph(g, representatives)
    return summary, assignment
