"""Shared hypothesis strategies and seeded random-graph generators."""

from __future__ import annotations

from hypothesis import strategies as st

from domainlearn.digraph import LabeledDigraph
from domainlearn.rng import SplitMix64, derive_seed


@st.composite
def digraphs(draw, min_n: int = 0, max_n: int = 8, max_k: int = 3) -> LabeledDigraph:
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, max_k))
    candidates = [(u, a, v) for u in range(n) for a in range(k) for v in range(n)]
    edges = draw(st.sets(st.sampled_from(candidates))) if candidates else set()
    return LabeledDigraph(k, range(n), edges)


@st.composite
def blown_up_digraphs(draw, max_base: int = 4, max_n: int = 12) -> LabeledDigraph:
    """A digraph whose vertices are copies of the vertices of a drawn base
    digraph, in a drawn order: (u, a, v) is an edge iff (base[u], a, base[v])
    is a base edge.  Copies of one base vertex are indistinguishable, so the
    classes have several members with interleaved ids."""
    base = draw(digraphs(min_n=1, max_n=max_base))
    copies = draw(st.lists(st.sampled_from(base.vertices), max_size=max_n))
    n = len(copies)
    return LabeledDigraph(
        base.k,
        range(n),
        [
            (u, a, v)
            for u in range(n)
            for a in range(base.k)
            for v in range(n)
            if base.has_edge(copies[u], a, copies[v])
        ],
    )


@st.composite
def digraphs_with_pair(draw, max_n: int = 8, max_k: int = 3):
    g = draw(digraphs(min_n=2, max_n=max_n, max_k=max_k))
    vertices = g.vertices
    u = draw(st.sampled_from(vertices))
    v = draw(st.sampled_from(vertices))
    return g, u, v


def random_digraph(seed: int, n: int, k: int, density: float) -> LabeledDigraph:
    """Seeded random digraph; deterministic companion to the strategies."""
    rng = SplitMix64(derive_seed(seed, n, k))
    g = LabeledDigraph(k, range(n))
    for u in range(n):
        for a in range(k):
            for v in range(n):
                if rng.random() < density:
                    g.add_edge(u, a, v)
    return g


def clone_vertex(g: LabeledDigraph, original: int, clone: int) -> LabeledDigraph:
    """Extend g with ``clone``, indistinguishable from ``original`` by
    construction: same adjacency toward everyone, and the four pair edges
    follow the original's self-loops."""
    extended = LabeledDigraph(g.k, list(g.vertices) + [clone], g.edges())
    for a in range(g.k):
        for x in g.vertices:
            if x == original:
                continue
            if g.has_edge(original, a, x):
                extended.add_edge(clone, a, x)
            if g.has_edge(x, a, original):
                extended.add_edge(x, a, clone)
        if g.has_edge(original, a, original):
            extended.add_edge(clone, a, clone)
            extended.add_edge(clone, a, original)
            extended.add_edge(original, a, clone)
    return extended
