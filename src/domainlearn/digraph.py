"""Edge-labelled directed graphs and the relational machinery behind
domain-based access-control policies.

An access-control matrix over k rights is a digraph whose vertices are
entities and whose edge (u, a, v) grants entity u the right a over entity v.
A domain-based policy compresses such a graph into a small "summary" digraph
of protection domains plus an assignment of entities to domains.  This module
provides the graph type itself plus the relational operations everything else
is built on: the partition into indistinguishable vertices, induced
subgraphs, irreducibility, a policy's grants and its error sets.

Determinism contract: vertex ids are non-negative integers and every
iteration order exposed by this module is sorted, so identical inputs always
produce identical outputs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

Edge = tuple[int, int, int]  # (source vertex, right index, target vertex)


class LabeledDigraph:
    """Finite edge-labelled digraph stored as per-right adjacency bitmasks.

    Mutable only through :meth:`add_vertex`, :meth:`add_edge` and
    :meth:`connect`; treat instances as immutable values once fully
    constructed.  The masks are the only edge store: for each right,
    ``out_mask(a, u)`` has bit v set iff (u, a, v) is an edge, and
    ``in_mask(a, v)`` mirrors it.  Only non-zero masks are kept, so two
    graphs are equal exactly when their vertex sets and mask dicts are.
    Nothing else is stored about the edges: :attr:`edge_count` is the
    popcount of the out masks.
    """

    __slots__ = ("k", "_vertices", "_vertex_mask", "_out", "_in")

    def __init__(self, k: int, vertices: Iterable[int] = (), edges: Iterable[Edge] = ()):
        if k < 1:
            raise ValueError(f"alphabet size must be >= 1, got {k}")
        self.k = k
        self._vertices: set[int] = set()
        self._vertex_mask = 0
        self._out: list[dict[int, int]] = [{} for _ in range(k)]
        self._in: list[dict[int, int]] = [{} for _ in range(k)]
        for v in vertices:
            self.add_vertex(v)
        for u, a, v in edges:
            self.add_edge(u, a, v)

    # -- construction ------------------------------------------------------

    def add_vertex(self, v: int) -> None:
        if v < 0:
            raise ValueError(f"vertex ids must be non-negative, got {v}")
        if v in self._vertices:
            raise ValueError(f"vertex {v} already present")
        self._vertices.add(v)
        self._vertex_mask |= 1 << v

    def add_edge(self, u: int, a: int, v: int) -> None:
        """Insert edge (u, a, v); inserting an existing edge is a no-op."""
        if u not in self._vertices or v not in self._vertices:
            raise ValueError(f"edge ({u}, {a}, {v}) has an unknown endpoint")
        if not 0 <= a < self.k:
            raise ValueError(f"right index {a} out of range [0, {self.k})")
        out = self._out[a]
        targets = out.get(u, 0)
        bit = 1 << v
        if targets & bit:
            return
        out[u] = targets | bit
        inn = self._in[a]
        inn[v] = inn.get(v, 0) | (1 << u)

    def connect(self, v: int, a: int, targets: int, sources: int) -> None:
        """Insert (v, a, t) for every bit t of ``targets`` and (s, a, v) for
        every bit s of ``sources``; existing edges are kept as they are.

        Every argument is checked before anything is inserted, so a rejected
        call leaves the graph unchanged.  A self-loop named by both masks is
        one edge.
        """
        if v not in self._vertices:
            raise ValueError(f"vertex {v} is not in the graph")
        if not 0 <= a < self.k:
            raise ValueError(f"right index {a} out of range [0, {self.k})")
        if (targets | sources) & ~self._vertex_mask:
            raise ValueError(
                f"connect({v}, {a}, ...) names an endpoint outside the graph"
            )
        out, inn = self._out[a], self._in[a]
        bit = 1 << v
        known = out.get(v, 0)
        new_targets = targets & ~known
        if new_targets:
            out[v] = known | new_targets
            for t in _mask_bits(new_targets):
                inn[t] = inn.get(t, 0) | bit
        # read after the targets, so a self-loop inserted above is not new
        known = inn.get(v, 0)
        new_sources = sources & ~known
        if new_sources:
            inn[v] = known | new_sources
            for s in _mask_bits(new_sources):
                out[s] = out.get(s, 0) | bit

    # -- inspection --------------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._vertices))

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for out in self._out for mask in out.values())

    def has_vertex(self, v: int) -> bool:
        return v in self._vertices

    def has_edge(self, u: int, a: int, v: int) -> bool:
        """Bit v of ``out_mask(a, u)``; ``a`` must be a right in [0, k)."""
        return (self._out[a].get(u, 0) >> v) & 1 == 1

    def edges(self) -> list[Edge]:
        """All edges in sorted (u, a, v) order."""
        return [
            (u, a, v)
            for u in sorted(self._vertices)
            for a in range(self.k)
            for v in _mask_bits(self._out[a].get(u, 0))
        ]

    def out_mask(self, a: int, u: int) -> int:
        """Bitmask of targets v with (u, a, v) an edge."""
        return self._out[a].get(u, 0)

    def in_mask(self, a: int, v: int) -> int:
        """Bitmask of sources u with (u, a, v) an edge."""
        return self._in[a].get(v, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledDigraph):
            return NotImplemented
        return (
            self.k == other.k
            and self._vertices == other._vertices
            and self._out == other._out
        )

    __hash__ = None  # type: ignore[assignment]  # mutable: not hashable

    def __repr__(self) -> str:
        return (
            f"LabeledDigraph(k={self.k}, n={self.vertex_count}, "
            f"edges={self.edge_count})"
        )


def _mask_bits(mask: int) -> Iterator[int]:
    # Yield set bit positions in ascending order.
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def equivalence_partition(g: LabeledDigraph) -> list[list[int]]:
    """Partition V(G) into maximal classes of pairwise-indistinguishable
    vertices.

    u and v are indistinguishable exactly when, for every right a,
    ``out_mask(a, u) == out_mask(a, v)`` and ``in_mask(a, u) ==
    in_mask(a, v)``.  Outside the pair that is the definition; on the pair,
    equal bits u and v in those masks say that the four pair edges (u, a, u),
    (u, a, v), (v, a, u), (v, a, v) are all present or all absent.  So each
    vertex is keyed by the tuple of its 2k masks and the classes are the key
    groups.  Each of the 2k mask dicts is read once, as a column over the
    sorted vertices, and the columns are zipped into the keys: 2k list
    comprehensions of n dict lookups, then one dict pass hashing n keys of
    2k n-bit masks.  Classes are ordered by their minimum vertex id and
    sorted internally.
    """
    vertices = g.vertices
    columns = [[masks.get(v, 0) for v in vertices] for masks in (*g._out, *g._in)]
    classes: dict[tuple[int, ...], list[int]] = {}
    for v, key in zip(vertices, zip(*columns)):
        classes.setdefault(key, []).append(v)
    return list(classes.values())


def induced_subgraph(g: LabeledDigraph, subset: Iterable[int]) -> LabeledDigraph:
    """The subgraph of g induced by ``subset``: keeps exactly the edges with
    both endpoints inside the subset.  Each kept vertex's masks are ANDed
    with the subset's mask, so the cost is O(k * |subset|), not O(|E|)."""
    keep = set(subset)
    missing = keep - g._vertices
    if missing:
        raise ValueError(f"vertices {sorted(missing)} not in graph")
    sub = LabeledDigraph(g.k, keep)
    keep_mask = sum(1 << v for v in keep)
    for a in range(g.k):
        for source, target in ((g._out[a], sub._out[a]), (g._in[a], sub._in[a])):
            for v in keep:
                mask = source.get(v, 0) & keep_mask
                if mask:
                    target[v] = mask
    return sub


def is_irreducible(g: LabeledDigraph) -> bool:
    """True iff no two distinct vertices of g are indistinguishable, i.e.
    the graph cannot be summarized any further."""
    return len(equivalence_partition(g)) == g.vertex_count


def granted(
    summary: LabeledDigraph, member_mask: Mapping[int, int]
) -> dict[tuple[int, int], int]:
    """What a policy grants, by rows: ``grants[(x, a)]`` is the union of
    ``member_mask[y]``, the members of domain y as a bitmask, over the bits
    y of ``summary.out_mask(a, x)``, for each domain x of ``member_mask``
    and right a; zero masks are left out.  The cost is
    O(len(member_mask) * k + |E(summary)|) mask operations."""
    grants: dict[tuple[int, int], int] = {}
    for x in member_mask:
        for a in range(summary.k):
            targets = 0
            for y in _mask_bits(summary.out_mask(a, x)):
                targets |= member_mask.get(y, 0)
            if targets:
                grants[(x, a)] = targets
    return grants


def error_set(
    g: LabeledDigraph, summary: LabeledDigraph, assignment: Mapping[int, int]
) -> frozenset[Edge]:
    """All requests (u, a, v) over V(G) x rights x V(G) where the policy
    (``summary``, ``assignment``) decides differently from graph membership.

    The policy grants (u, a, v) iff (assignment[u], a, assignment[v]) is an
    edge of ``summary``.  The set does not record which way a request is
    wrong, because the policy already says it: a wrong request was wrongly
    granted (the graph lacks it) exactly when the policy allows it, and
    wrongly denied otherwise.  ``assignment`` must map every vertex of g,
    or ``ValueError`` is raised.  Each vertex's row is xored with what
    :func:`granted` gives its domain, so the cost is O(n * k + |E(summary)|)
    mask operations plus the size of the output.  Of g it reads only
    ``k``, ``vertices`` and ``out_mask``, so any object answering those
    three stands in for the graph: the synthetic teacher passes itself.
    """
    vertices = g.vertices
    member_mask: dict[int, int] = {}
    for v in vertices:
        try:
            domain = assignment[v]
        except KeyError:
            raise ValueError(f"assignment is not total: vertex {v} unmapped") from None
        member_mask[domain] = member_mask.get(domain, 0) | (1 << v)
    allowed_mask = granted(summary, member_mask)
    errors: list[Edge] = []
    k = g.k
    for u in vertices:
        domain = assignment[u]
        for a in range(k):
            difference = allowed_mask.get((domain, a), 0) ^ g.out_mask(a, u)
            if not difference:
                continue
            for v in _mask_bits(difference):
                errors.append((u, a, v))
    return frozenset(errors)
