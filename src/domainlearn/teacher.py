"""Synthetic teacher: a concrete ground truth generated from an irreducible
domain template.

The world behind the teacher is conceptually infinite: every vertex is an
instance of one of m protection domains, and (u, a, v) is an edge iff the
template has the edge (domain(u), a, domain(v)).  Instances are minted
lazily as the revelation schedule asks for them.  The teacher holds the
revealed world as one target row per (right, domain), since all instances
of a domain share their out-edges; the revealed induced subgraph is built
as a :class:`LabeledDigraph` only when ground truth is peeked.

A revelation schedule is a value built for one m: :func:`parse_schedule`
turns a spec into :class:`IidUniform`, :class:`IidWeighted` or
:class:`Scripted` (the adversarial ``novel-last`` order is a script).  Each
rejects at construction what cannot draw from m domains, and each yields
its domains from ``draws(rng)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping

from .digraph import Edge, LabeledDigraph, error_set, is_irreducible
from .graphio import digraph_to_text
from .protocol import Teacher
from .rng import SplitMix64, mix64


class TemplateGenerationError(RuntimeError):
    """Random template generation failed to reach irreducibility."""


class TeacherExhausted(RuntimeError):
    """A scripted revelation schedule has no more vertices to reveal."""


@dataclass(frozen=True)
class WorldTemplate:
    """An irreducible digraph over m domain-vertices."""

    graph: LabeledDigraph

    def __post_init__(self) -> None:
        if self.graph.vertex_count < 1:
            raise ValueError("template needs at least one domain")
        if tuple(self.graph.vertices) != tuple(range(self.graph.vertex_count)):
            raise ValueError("template domains must be numbered 0..m-1")
        if not is_irreducible(self.graph):
            raise ValueError("template must be irreducible")

    @property
    def m(self) -> int:
        return self.graph.vertex_count

    @property
    def k(self) -> int:
        return self.graph.k


MAX_GENERATION_ATTEMPTS = 10_000


def check_template_parameters(m: int, k: int, edge_density: float) -> None:
    """Raise ``ValueError`` unless :func:`generate_template` can succeed on
    these parameters.  With m > 1, a density of 0 or 1 makes every domain
    indistinguishable, so no attempt could succeed."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 <= edge_density <= 1.0:
        raise ValueError(f"edge_density must be in [0, 1], got {edge_density}")
    if m > 1 and edge_density in (0.0, 1.0):
        raise ValueError(
            f"edge_density {edge_density} makes all {m} domains indistinguishable; "
            "use a value strictly between 0 and 1"
        )


def generate_template(
    seed: int, m: int, k: int, edge_density: float
) -> WorldTemplate:
    """Sample an irreducible m-domain template.

    Each of the m*m*k candidate edges is kept independently with probability
    ``edge_density``.  Deterministic given (seed, m, k, edge_density): failed
    attempts retry with a seed derived by remixing the previous one.
    Parameters that :func:`check_template_parameters` rejects raise its
    ``ValueError`` before any attempt.
    """
    check_template_parameters(m, k, edge_density)
    attempt_seed = seed
    for _ in range(MAX_GENERATION_ATTEMPTS):
        rng = SplitMix64(attempt_seed)
        graph = LabeledDigraph(k, range(m))
        for u in range(m):
            for a in range(k):
                for v in range(m):
                    if rng.random() < edge_density:
                        graph.add_edge(u, a, v)
        if is_irreducible(graph):
            return WorldTemplate(graph=graph)
        attempt_seed = mix64(attempt_seed)
    raise TemplateGenerationError(
        f"no irreducible template after {MAX_GENERATION_ATTEMPTS} attempts "
        f"(seed={seed}, m={m}, k={k}, edge_density={edge_density})"
    )


def template_to_text(template: WorldTemplate) -> str:
    return f"domains m={template.m}\n" + digraph_to_text(template.graph)


# -- revelation schedules ---------------------------------------------------


@dataclass(frozen=True)
class Scripted:
    """Reveal instances of exactly these domains of m, in order, then stop."""

    domains: tuple[int, ...]
    m: int

    def __post_init__(self) -> None:
        if not self.domains:
            raise ValueError("a scripted schedule needs at least one domain")
        for d in self.domains:
            if not 0 <= d < self.m:
                raise ValueError(f"scripted domain {d} out of range [0, {self.m})")

    def draws(self, rng: SplitMix64) -> Iterator[int]:
        return iter(self.domains)


@dataclass(frozen=True)
class IidUniform:
    """Each reveal draws one of m domains uniformly; never exhausts."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(1.0 / self.m for _ in range(self.m))

    def draws(self, rng: SplitMix64) -> Iterator[int]:
        while True:
            yield rng.randrange(self.m)


@dataclass(frozen=True)
class IidWeighted:
    """Each reveal draws domain i with probability probs[i]; never exhausts."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(0.0 < p < math.inf for p in self.probs):
            raise ValueError("all schedule probabilities must be finite and positive")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {sum(self.probs)}")

    @property
    def m(self) -> int:
        return len(self.probs)

    def draws(self, rng: SplitMix64) -> Iterator[int]:
        cumulative = list(itertools.accumulate(self.probs))
        while True:
            x = rng.random()
            for i, threshold in enumerate(cumulative):
                if x < threshold:
                    yield i
                    break
            else:
                yield self.m - 1  # guard against fp rounding at the top end


RevelationSchedule = Scripted | IidUniform | IidWeighted

# the longest novel-last prefix: its script is held in full (8 bytes a
# reveal), and no session plays anywhere near this many rounds
MAX_NOVEL_LAST_PREFIX = 10**6


def _spec_items(text: str, arg: str) -> list[str]:
    """The comma-separated items of a spec's argument; none may be empty."""
    items = arg.split(",")
    if not all(item.strip() for item in items):
        raise ValueError(f"schedule spec {text!r} has an empty list item")
    return items


def parse_schedule(text: str, m: int) -> RevelationSchedule:
    """Parse a schedule spec string into a schedule over m domains.

    Forms: ``iid-uniform``, ``iid-weighted:<p0>,<p1>,...`` (m
    probabilities), ``scripted:<d0>,<d1>,...`` and ``novel-last:<p>``, the
    adversarial script of p instances of domain 0, then one fresh instance
    of every other domain in ascending order.
    """
    kind, colon, arg = text.partition(":")
    kind = kind.strip()
    if kind == "iid-uniform":
        if colon:
            raise ValueError(f"iid-uniform takes no argument, got {text!r}")
        return IidUniform(m)
    if kind == "iid-weighted":
        schedule = IidWeighted(tuple(float(p) for p in _spec_items(text, arg)))
        if schedule.m != m:
            raise ValueError(
                f"schedule has {schedule.m} probabilities for m={m} domains"
            )
        return schedule
    if kind == "scripted":
        return Scripted(tuple(int(d) for d in _spec_items(text, arg)), m)
    if kind == "novel-last":
        prefix_len = int(arg)
        if prefix_len < 1:
            raise ValueError("prefix_len must be >= 1")
        if prefix_len > MAX_NOVEL_LAST_PREFIX:
            raise ValueError(f"prefix_len must be <= {MAX_NOVEL_LAST_PREFIX}")
        return Scripted((0,) * prefix_len + tuple(range(1, m)), m)
    raise ValueError(f"unknown schedule spec {text!r}")


# -- the teacher itself ------------------------------------------------------


class _RevealedRows:
    """Read-only view of the revealed graph, answering exactly what
    :func:`error_set` reads: ``k``, ``vertices`` and ``out_mask``.  Vertex
    u's targets under right a are the row of its domain."""

    __slots__ = ("k", "_rows", "_domains")

    def __init__(self, rows: list[list[int]], domains: list[int]):
        self.k = len(rows)
        self._rows = rows
        self._domains = domains

    @property
    def vertices(self) -> range:
        return range(len(self._domains))

    def out_mask(self, a: int, u: int) -> int:
        return self._rows[a][self._domains[u]]


class SyntheticTeacher(Teacher):
    """Teacher over a template world with a configurable revelation schedule.

    Vertex ids are minted 0, 1, 2, ... in revelation order.  The teacher
    keeps, per right a and domain d, the row ``_rows[a][d]``: the mask of
    revealed targets of any instance of d under a.  Revealing an instance of
    domain x ORs its bit into the row of every template in-neighbour of x,
    O(k * m) big-int ORs.  Connection queries and hypothesis tests are
    answered from the rows alone: (u, a, v) is an edge iff bit v of u's
    domain row under a is set, so the template is not kept past
    ``__init__``.  The revealed induced subgraph is built only by
    :meth:`peek_ground_truth`.  Like every :class:`Teacher` it answers only
    queries a :class:`~domainlearn.protocol.Session` has already validated,
    and checks none of them again.
    """

    def __init__(
        self,
        template: WorldTemplate,
        schedule: RevelationSchedule,
        draw_seed: int,
    ):
        if schedule.m != template.m:
            raise ValueError(
                f"schedule draws from {schedule.m} domains, "
                f"the template has {template.m}"
            )
        self._draws = schedule.draws(SplitMix64(draw_seed))
        # _in_domains[a][x]: the template domains d with edge (d, a, x)
        m = template.m
        self._in_domains = [
            [[d for d in range(m) if template.graph.has_edge(d, a, x)] for x in range(m)]
            for a in range(template.k)
        ]
        self._domains: list[int] = []  # template domain of each revealed vertex
        self._members = [0] * m  # revealed instances of each domain, as a bitmask
        self._rows = [[0] * m for _ in range(template.k)]
        self._view = _RevealedRows(self._rows, self._domains)
        self._graph = LabeledDigraph(template.k)  # caught up by peek_ground_truth

    @property
    def k(self) -> int:
        return len(self._rows)

    def next_vertex(self) -> int:
        try:
            domain = next(self._draws)
        except StopIteration:
            raise TeacherExhausted(
                f"revelation schedule exhausted after {len(self._domains)} vertices"
            ) from None
        vertex = len(self._domains)
        self._domains.append(domain)
        bit = 1 << vertex
        self._members[domain] |= bit
        for rows, in_domains in zip(self._rows, self._in_domains):
            for d in in_domains[domain]:
                rows[d] |= bit
        return vertex

    def connection(self, u: int, a: int, v: int) -> bool:
        return (self._rows[a][self._domains[u]] >> v) & 1 == 1

    def hypothesis_test(
        self, summary: LabeledDigraph, assignment: Mapping[int, int]
    ) -> frozenset[Edge]:
        return error_set(self._view, summary, assignment)

    # -- ground-truth backdoors: verification and tests only ----------------

    def peek_ground_truth(self) -> LabeledDigraph:
        """The revealed induced subgraph.  Verification/test harness only;
        learners must never touch this.  Treat as read-only.

        The graph is built lazily: each call adds the vertices revealed since
        the last one and connects each to its domain's targets and to the
        instances of its domain's template in-neighbours, so the same object
        is returned, caught up, every time.
        """
        graph = self._graph
        built, n = graph.vertex_count, len(self._domains)
        for v in range(built, n):
            graph.add_vertex(v)
        members = self._members
        for v in range(built, n):
            domain = self._domains[v]
            for a in range(graph.k):
                sources = 0
                for d in self._in_domains[a][domain]:
                    sources |= members[d]
                graph.connect(v, a, self._rows[a][domain], sources)
        return graph

    def domain_of(self, v: int) -> int:
        """Template domain of a revealed vertex (ground-truth backdoor)."""
        return self._domains[v]
