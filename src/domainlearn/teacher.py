"""Synthetic teacher: one teacher for any ground-truth graph, read through
a world, and the template world it is usually given.

A world reveals vertices 0, 1, 2, ... and keeps the revealed part of its
graph as a row table, updated in place: ``rows[a][r]`` is a target mask over
the revealed ids and ``row_of[u]`` is the row of vertex u, so (u, a, v) is an
edge iff bit v of ``rows[a][row_of[u]]`` is set.  It also answers
``reveal()``, the next id, or :class:`TeacherExhausted`.  That is the whole
world contract: :class:`SyntheticTeacher` answers every query from these,
and derives a vertex's sources from the rows whose targets name it.  The
template world, :class:`TemplateInstances`, is conceptually infinite: every
vertex is an instance of one of m protection domains, and (u, a, v) is an
edge iff the template has the edge (domain(u), a, domain(v)).  Instances
are minted lazily as the revelation schedule asks for them.

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
from typing import Callable, Iterator, Mapping

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
    ``edge_density``, drawn in (u, a, v) order and inserted one (u, a) row
    at a time.  Deterministic given (seed, m, k, edge_density): failed
    attempts retry with a seed derived by remixing the previous one, or
    with the next seed where remixing leaves it unchanged (seed 0).
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
                targets = 0
                for v in range(m):
                    if rng.random() < edge_density:
                        targets |= 1 << v
                graph.connect(u, a, targets, 0)
        if is_irreducible(graph):
            return WorldTemplate(graph=graph)
        remixed = mix64(attempt_seed)
        # at a fixed point of mix64, such as 0, remixing would repeat one attempt
        attempt_seed = remixed if remixed != attempt_seed else attempt_seed + 1
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


def parse_number(what: str, item: str, convert: Callable[[str], float]) -> float:
    """``convert(item)`` (``int`` or ``float``), or a ``ValueError`` naming
    ``what``, a flag or spec, and the item."""
    try:
        return convert(item)
    except ValueError:
        raise ValueError(f"{what}: {item!r} is not a valid {convert.__name__}") from None


def parse_items(what: str, text: str, convert: Callable[[str], float]) -> list[float]:
    """The comma-separated items of ``text``, each read by
    :func:`parse_number`; none may be empty."""
    items = text.split(",")
    if not all(item.strip() for item in items):
        raise ValueError(f"{what} has an empty list item")
    return [parse_number(what, item, convert) for item in items]


def parse_schedule(text: str, m: int) -> RevelationSchedule:
    """Parse a schedule spec string into a schedule over m domains.

    Forms: ``iid-uniform``, ``iid-weighted:<p0>,<p1>,...`` (m
    probabilities), ``scripted:<d0>,<d1>,...`` and ``novel-last:<p>``, the
    adversarial script of p instances of domain 0, then one fresh instance
    of every other domain in ascending order.
    """
    kind, colon, arg = text.partition(":")
    kind, what = kind.strip(), f"schedule spec {text!r}"
    if kind == "iid-uniform":
        if colon:
            raise ValueError(f"iid-uniform takes no argument, got {text!r}")
        return IidUniform(m)
    if kind == "iid-weighted":
        schedule = IidWeighted(tuple(parse_items(what, arg, float)))
        if schedule.m != m:
            raise ValueError(f"schedule has {schedule.m} probabilities for m={m} domains")
        return schedule
    if kind == "scripted":
        return Scripted(tuple(parse_items(what, arg, int)), m)
    if kind == "novel-last":
        prefix_len = parse_number(what, arg, int)
        if prefix_len < 1:
            raise ValueError("prefix_len must be >= 1")
        if prefix_len > MAX_NOVEL_LAST_PREFIX:
            raise ValueError(f"prefix_len must be <= {MAX_NOVEL_LAST_PREFIX}")
        return Scripted((0,) * prefix_len + tuple(range(1, m)), m)
    raise ValueError(f"unknown schedule spec {text!r}")


# -- the template world and the teacher ---------------------------------------


class TemplateInstances:
    """The template world: vertex u is an instance of the domain its
    schedule draws, and its row is that domain, since all instances of a
    domain share their out-edges.  Revealing an instance of domain x ORs
    its bit into the row of every template in-neighbour of x, O(k * m)
    big-int ORs, so the template is not kept past ``__init__``."""

    def __init__(self, template: WorldTemplate, schedule: RevelationSchedule, draw_seed: int):
        if schedule.m != template.m:
            raise ValueError(
                f"schedule draws from {schedule.m} domains, the template has {template.m}"
            )
        self._draws = schedule.draws(SplitMix64(draw_seed))
        # _in_domains[a][x]: the template domains d with edge (d, a, x)
        m = template.m
        self._in_domains = [
            [[d for d in range(m) if template.graph.has_edge(d, a, x)] for x in range(m)]
            for a in range(template.k)
        ]
        self.rows = [[0] * m for _ in range(template.k)]
        self.row_of: list[int] = []  # template domain of each revealed vertex

    def reveal(self) -> int:
        try:
            domain = next(self._draws)
        except StopIteration:
            raise TeacherExhausted(
                f"revelation schedule exhausted after {len(self.row_of)} vertices"
            ) from None
        vertex = len(self.row_of)
        self.row_of.append(domain)
        bit = 1 << vertex
        for rows, in_domains in zip(self.rows, self._in_domains):
            for d in in_domains[domain]:
                rows[d] |= bit
        return vertex


class SyntheticTeacher(Teacher):
    """The teacher over any world: a row table ``rows``/``row_of`` over the
    revealed ids 0..n-1 and ``reveal()`` (module docstring), and nothing
    else.  A connection query reads one row bit, and a hypothesis test is
    :func:`error_set` with the teacher standing in for the revealed graph.
    Like every :class:`Teacher` it answers only queries a
    :class:`~domainlearn.protocol.Session` has already validated, and checks
    none of them again."""

    def __init__(self, world):
        self._world = world
        self._rows = world.rows
        self._row_of = world.row_of
        # caught up by peek_ground_truth, with the vertices it built of each row
        self._graph = LabeledDigraph(len(world.rows))
        self._members: dict[int, int] = {}

    @property
    def k(self) -> int:
        return len(self._rows)

    @property
    def vertices(self) -> range:
        return range(len(self._row_of))

    def out_mask(self, a: int, u: int) -> int:
        return self._rows[a][self._row_of[u]]

    def next_vertex(self) -> int:
        return self._world.reveal()

    def connection(self, u: int, a: int, v: int) -> bool:
        return (self._rows[a][self._row_of[u]] >> v) & 1 == 1

    def hypothesis_test(
        self, summary: LabeledDigraph, assignment: Mapping[int, int]
    ) -> frozenset[Edge]:
        return error_set(self, summary, assignment)

    def peek_ground_truth(self) -> LabeledDigraph:
        """The revealed induced subgraph.  Verification/test harness only;
        learners must never touch this.  Treat as read-only.

        The graph is built lazily: each call adds the vertices revealed since
        the last one and connects each, under every right, to its row's
        targets and to its sources, the members of every row whose targets
        have its bit, so the same object is returned, caught up, every time.
        """
        graph, members, row_of = self._graph, self._members, self._row_of
        built, n = graph.vertex_count, len(row_of)
        for v in range(built, n):
            graph.add_vertex(v)
            members[row_of[v]] = members.get(row_of[v], 0) | 1 << v
        for v in range(built, n):
            for a, rows in enumerate(self._rows):
                sources = 0
                for row, mask in members.items():
                    if rows[row] >> v & 1:
                        sources |= mask
                graph.connect(v, a, rows[row_of[v]], sources)
        return graph
