"""Edge-labelled directed graphs and the relational machinery behind
domain-based access-control policies.

An access-control matrix over k rights is a digraph whose vertices are
entities and whose edge (u, a, v) grants entity u the right a over entity v.
A domain-based policy compresses such a graph into a small "summary" digraph
of protection domains plus an assignment of entities to domains.  This module
provides the graph type itself plus the relational operations everything else
is built on: the partition into indistinguishable vertices, induced
subgraphs, strong homomorphisms, irreducibility, and policy error sets.

Determinism contract: vertex ids are non-negative integers and every
iteration order exposed by this module is sorted, so identical inputs always
produce identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

Edge = tuple[int, int, int]  # (source vertex, right index, target vertex)


@dataclass(frozen=True)
class AccessRight:
    """A named access right; ``index`` is its position in the alphabet."""

    index: int
    name: str


class Alphabet:
    """Dense, ordered collection of access rights with unique names."""

    __slots__ = ("_rights", "_by_name")

    def __init__(self, names: Iterable[str]):
        rights = tuple(AccessRight(i, name) for i, name in enumerate(names))
        if not rights:
            raise ValueError("alphabet must contain at least one right")
        by_name = {r.name: r.index for r in rights}
        if len(by_name) != len(rights):
            raise ValueError("access right names must be unique")
        self._rights = rights
        self._by_name = by_name

    @classmethod
    def default(cls, k: int) -> "Alphabet":
        """The conventional alphabet r0, r1, ... r<k-1>."""
        return cls(f"r{i}" for i in range(k))

    def __len__(self) -> int:
        return len(self._rights)

    def __getitem__(self, index: int) -> AccessRight:
        return self._rights[index]

    def __iter__(self) -> Iterator[AccessRight]:
        return iter(self._rights)

    def index_of(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown access right name {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self._rights)


class LabeledDigraph:
    """Finite edge-labelled digraph stored as per-right adjacency bitmasks.

    Mutable only through :meth:`add_vertex` / :meth:`add_edge`; treat
    instances as immutable values once fully constructed.  The masks are the
    only edge store: for each right, ``out_mask(a, u)`` has bit v set iff
    (u, a, v) is an edge, and ``in_mask(a, v)`` mirrors it.  Only non-zero
    masks are kept, so two graphs are equal exactly when their vertex sets
    and mask dicts are.
    """

    __slots__ = ("k", "_vertices", "_edge_count", "_out", "_in")

    def __init__(self, k: int, vertices: Iterable[int] = (), edges: Iterable[Edge] = ()):
        if k < 1:
            raise ValueError(f"alphabet size must be >= 1, got {k}")
        self.k = k
        self._vertices: set[int] = set()
        self._edge_count = 0
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
        self._edge_count += 1

    # -- inspection --------------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._vertices))

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return self._edge_count

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


def _masks_indistinguishable(g: LabeledDigraph, u: int, v: int) -> bool:
    # u and v see every vertex identically, with the pair itself treated
    # interchangeably: per right the four pair edges are all present or all
    # absent, and the out and in masks agree outside the pair.
    pair = (1 << u) | (1 << v)
    for a in range(g.k):
        ou = g.out_mask(a, u)
        ov = g.out_mask(a, v)
        four = ((ou >> u) & 1) + ((ou >> v) & 1) + ((ov >> u) & 1) + ((ov >> v) & 1)
        if four != 0 and four != 4:
            return False
        if (ou ^ ov) & ~pair:
            return False
        if (g.in_mask(a, u) ^ g.in_mask(a, v)) & ~pair:
            return False
    return True


def equivalence_partition(g: LabeledDigraph) -> list[list[int]]:
    """Partition V(G) into maximal classes of pairwise-indistinguishable
    vertices.

    Classes are ordered by their minimum vertex id and sorted internally.
    Each vertex is compared against one representative per known class, so
    the cost is O(k * n * classes) bitmask comparisons.
    """
    classes: list[list[int]] = []
    reps: list[int] = []
    for v in g.vertices:
        for idx, rep in enumerate(reps):
            if _masks_indistinguishable(g, rep, v):
                classes[idx].append(v)
                break
        else:
            reps.append(v)
            classes.append([v])
    return classes


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
        sub._edge_count += sum(mask.bit_count() for mask in sub._out[a].values())
    return sub


def is_strong_homomorphism(
    g: LabeledDigraph, h: LabeledDigraph, assignment: Mapping[int, int]
) -> bool:
    """True iff ``assignment`` preserves and reflects labelled edges:
    (u, a, v) in E(G) exactly when (assignment[u], a, assignment[v]) in E(H).

    Checked by bucketing G's edges per image triple and comparing counts,
    which is O(|E(G)| + |E(H)|) instead of the naive n^2 k sweep.
    """
    vertices = g.vertices
    for v in vertices:
        if v not in assignment:
            raise ValueError(f"assignment is not total: vertex {v} unmapped")
    class_size: dict[int, int] = {}
    for v in vertices:
        image = assignment[v]
        if not h.has_vertex(image):
            raise ValueError(f"assignment maps {v} to unknown vertex {image}")
        class_size[image] = class_size.get(image, 0) + 1
    mapped_count: dict[Edge, int] = {}
    for u, a, v in g.edges():
        key = (assignment[u], a, assignment[v])
        if not h.has_edge(*key):
            return False
        mapped_count[key] = mapped_count.get(key, 0) + 1
    for x, a, y in h.edges():
        expected = class_size.get(x, 0) * class_size.get(y, 0)
        if mapped_count.get((x, a, y), 0) != expected:
            return False
    return True


def is_irreducible(g: LabeledDigraph) -> bool:
    """True iff no two distinct vertices of g are indistinguishable, i.e.
    the graph cannot be summarized any further."""
    return len(equivalence_partition(g)) == g.vertex_count


@dataclass(frozen=True)
class DomainPolicy:
    """A domain-based policy: a summary digraph plus the assignment of
    entities to its vertices (protection domains).

    A request (u, a, v) is granted iff
    (assignment[u], a, assignment[v]) is an edge of the summary.
    """

    summary: LabeledDigraph
    assignment: dict[int, int]

    def __post_init__(self) -> None:
        for v, domain in self.assignment.items():
            if not self.summary.has_vertex(domain):
                raise ValueError(
                    f"assignment maps {v} to {domain}, not a summary vertex"
                )

    def allows(self, u: int, a: int, v: int) -> bool:
        return self.summary.has_edge(self.assignment[u], a, self.assignment[v])


@dataclass(frozen=True)
class ErrorSet:
    """Requests on which a policy and the ground-truth graph disagree."""

    grant: frozenset[Edge]
    deny: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.grant & self.deny:
            raise ValueError("a request cannot be both a grant and a deny error")

    @classmethod
    def empty(cls) -> "ErrorSet":
        return cls(frozenset(), frozenset())

    def __len__(self) -> int:
        return len(self.grant) + len(self.deny)

    def __bool__(self) -> bool:
        return bool(self.grant) or bool(self.deny)

    def __contains__(self, request: Edge) -> bool:
        return request in self.grant or request in self.deny


def error_set(g: LabeledDigraph, policy: DomainPolicy) -> ErrorSet:
    """All requests (u, a, v) over V(G) x rights x V(G) where the policy
    decision differs from graph membership.

    Grant errors are requests the policy allows but the graph lacks; deny
    errors the reverse.  Evaluated per (source, right) with bitmasks, so the
    cost is O(n * k * |V(summary)|) plus the size of the output.
    """
    vertices = g.vertices
    assignment = policy.assignment
    for v in vertices:
        if v not in assignment:
            raise ValueError(f"assignment is not total: vertex {v} unmapped")
    summary = policy.summary
    member_mask: dict[int, int] = {}
    for v in vertices:
        domain = assignment[v]
        member_mask[domain] = member_mask.get(domain, 0) | (1 << v)
    # allowed_mask[(x, a)]: targets granted to any source assigned to x.
    allowed_mask: dict[tuple[int, int], int] = {}
    for x, a, y in summary.edges():
        if y in member_mask:
            key = (x, a)
            allowed_mask[key] = allowed_mask.get(key, 0) | member_mask[y]
    grant: list[Edge] = []
    deny: list[Edge] = []
    for u in vertices:
        domain = assignment[u]
        for a in range(g.k):
            predicted = allowed_mask.get((domain, a), 0)
            actual = g.out_mask(a, u)
            difference = predicted ^ actual
            if not difference:
                continue
            for v in _mask_bits(difference & predicted):
                grant.append((u, a, v))
            for v in _mask_bits(difference & actual):
                deny.append((u, a, v))
    return ErrorSet(frozenset(grant), frozenset(deny))
