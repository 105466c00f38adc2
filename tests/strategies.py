"""Shared hypothesis strategies and seeded random-graph generators."""

from __future__ import annotations

import functools
import itertools
import math
import operator

from hypothesis import strategies as st

from domainlearn.digraph import LabeledDigraph
from domainlearn.rng import SplitMix64, derive_seed


DENSITY_LEVELS = 3


@st.composite
def digraphs(draw, min_n: int = 0, max_n: int = 8, max_k: int = 3) -> LabeledDigraph:
    """A digraph on vertices 0..n-1 over k rights, drawn as one target mask
    per (u, a).

    A density level L in [-3, 3] makes every mask the AND (L > 0) or OR
    (L < 0) of |L| + 1 uniform slices of one drawn integer, so sparse
    graphs, rich in indistinguishable vertices, and near-complete ones are
    drawn as well as dense random ones.  Every example makes the same
    draws whatever its n and k: the level, then max_n * max_k integers of
    one range, of which the cells outside n x k are dropped.  No draw's
    range or count depends on an earlier draw, so hypothesis discards no
    example as misaligned.
    """
    n = draw(st.integers(min_n, max_n))
    k = draw(st.integers(1, max_k))
    level = draw(st.integers(-DENSITY_LEVELS, DENSITY_LEVELS))
    combine = operator.and_ if level > 0 else operator.or_
    full = (1 << n) - 1
    g = LabeledDigraph(k, range(n))
    for u in range(max_n):
        for a in range(max_k):
            bits = draw(st.integers(0, (1 << ((DENSITY_LEVELS + 1) * max_n)) - 1))
            if u < n and a < k:
                slices = [(bits >> (i * max_n)) & full for i in range(abs(level) + 1)]
                g.connect(u, a, functools.reduce(combine, slices), 0)
    return g


@st.composite
def blown_up_digraphs(draw, max_base: int = 4, max_n: int = 12) -> LabeledDigraph:
    """A digraph whose vertices are copies of the vertices of a drawn base
    digraph, in a drawn order: (u, a, v) is an edge iff (base[u], a, base[v])
    is a base edge.  Copies of one base vertex are indistinguishable, so the
    classes have several members with interleaved ids.  Like
    :func:`digraphs`, every example makes the same draws: n, then max_n
    picks from one range, a multiple of every base size, reduced modulo
    the base size, of which the picks past n are dropped."""
    base = draw(digraphs(min_n=1, max_n=max_base))
    n = draw(st.integers(0, max_n))
    picks = st.integers(0, math.lcm(*range(1, max_base + 1)) - 1)
    copies = [draw(picks) % base.vertex_count for _ in range(max_n)][:n]
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
def sparse_digraphs(draw, max_n: int = 8, max_id: int = 4095) -> LabeledDigraph:
    """A :func:`digraphs` example relabelled onto sparse ids in [0,
    max_id], the way a summary's vertices are its representatives, the
    least member of each class, so 0 always among them.  The n ids are 0
    and running sums of drawn gaps, each at most max_id // (max_n - 1),
    handed out in a drawn order.  Every example draws max_n - 1 gaps and
    a permutation of max_n, whatever its n, so no draw is filtered."""
    g = draw(digraphs(max_n=max_n))
    n = g.vertex_count
    gap = st.integers(1, max_id // (max_n - 1))
    ids = list(itertools.accumulate([0] + [draw(gap) for _ in range(max_n - 1)]))
    order = [ids[i] for i in draw(st.permutations(range(max_n))) if i < n]
    return LabeledDigraph(
        g.k, [order[v] for v in g.vertices], [(order[u], a, order[v]) for u, a, v in g.edges()]
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
