"""The teacher/learner query protocol: three queries, a cost ledger, and the
success-criteria monitor.

A learner interrogates a teacher holding a fixed ground-truth graph through
three queries: next-vertex (a new entity joins), connection (deliberate on a
single access-control cell), and hypothesis-test (release a policy and
collect its errors over the revealed subgraph).  The :class:`Session`
monitor mediates every query, owns the cost ledger, and enforces the two
success criteria:

* SC-1: every hypothesis submitted must be irreducible with a surjective
  assignment.  The monitor partitions a summary value once, and again
  only when it changes, in-place edits included: a bet pays one comparison.
* SC-2: after a next-vertex query, the learner must obtain at least one
  error-free hypothesis test before requesting another vertex.

Violations abort the run with a diagnostic; they are learner failures, not
recoverable conditions.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

from .digraph import Edge, LabeledDigraph, induced_subgraph, is_irreducible


class ProtocolViolation(RuntimeError):
    """A query was malformed: unrevealed vertex, wrong assignment domain, ..."""


class SC1Violation(ProtocolViolation):
    """A hypothesis test broke success criterion 1 (irreducible + surjective)."""


class SC2Violation(ProtocolViolation):
    """A next-vertex query arrived before the current round was closed by an
    error-free hypothesis test (success criterion 2)."""


class Teacher(abc.ABC):
    """Contract for the party holding ground truth.

    A teacher is called only through a :class:`Session`, which validates
    every query before passing it on: a teacher receives only connection
    queries whose vertices are revealed ids and whose right is in [0, k),
    each of type ``int`` exactly (never a bool or a float), and only hypotheses
    that pass SC-1 and whose assignment domain is exactly the revealed set.
    It need not check them again.  The summary it receives is the monitor's
    own copy of the one that passed SC-1, a plain :class:`LabeledDigraph`,
    never the learner's object.  Implementations must be truthful: all
    answers consistent with one fixed graph and the set of vertices
    revealed so far.
    """

    @property
    @abc.abstractmethod
    def k(self) -> int:
        """Number of access rights."""

    @abc.abstractmethod
    def next_vertex(self) -> int:
        """Reveal a never-before-seen vertex."""

    @abc.abstractmethod
    def connection(self, u: int, a: int, v: int) -> bool:
        """Whether edge (u, a, v) exists; u and v are revealed."""

    @abc.abstractmethod
    def hypothesis_test(
        self, summary: LabeledDigraph, assignment: Mapping[int, int]
    ) -> frozenset[Edge]:
        """The requests over the revealed vertices that the policy decides
        differently from the revealed induced subgraph, as one set.  Which
        of them were wrongly granted needs no answer: those the policy
        allows."""


class RoundSnapshot(NamedTuple):
    """Cumulative ledger state at the moment a round completed, and
    ``observed_m``, the vertex count of the summary whose clean test
    completed it.  SC-1 and the clean test make that the class count of
    the revealed graph, whatever the learner.  A named tuple: its fields
    cannot be set, and a bound row extends it positionally."""

    n: int
    cnq_cum: int
    htq_cum: int
    errors_cum: int
    observed_m: int


@dataclass
class QueryLedger:
    """Monotone query counters; the cost metric of a learning run.

    ``nvq_count`` doubles as the round counter.  ``errors_cumulative`` sums
    the sizes of every returned error set.  One snapshot is appended per
    completed round (a round completes at its first clean hypothesis test),
    so the last round is open exactly while ``len(per_round) < nvq_count``.
    """

    nvq_count: int = 0
    cnq_count: int = 0
    htq_count: int = 0
    errors_cumulative: int = 0
    per_round: list[RoundSnapshot] = field(default_factory=list)


class Session:
    """Monitored protocol session binding one learner to one teacher.

    The monitor is the only place a query is validated: a malformed query
    raises before the teacher sees it and before the ledger counts it.  The
    monitor, not the learner, owns the ledger, so reported cost cannot be
    understated.  It keeps its own copy of the last summary found
    irreducible, and that copy's vertex set, so a learner that edits a
    summary it submitted cannot change what the monitor checked.  Whether
    the last round is still open (SC-2) is read off the ledger.  Strictly
    single-threaded; run independent sessions for parallel experiments.
    """

    def __init__(self, teacher: Teacher):
        self._teacher = teacher
        self._k = teacher.k
        self.ledger = QueryLedger()
        self._revealed_set: set[int] = set()
        # a copy of the last summary found irreducible (at first the empty one)
        self._irreducible = LabeledDigraph(self._k)
        self._irreducible_vertices: set[int] = set()

    @property
    def k(self) -> int:
        return self._k

    def next_vertex(self) -> int:
        ledger = self.ledger
        if len(ledger.per_round) < ledger.nvq_count:  # the last round is open (SC-2)
            raise SC2Violation(
                "next-vertex query issued before an error-free hypothesis test "
                f"closed round {ledger.nvq_count}"
            )
        vertex = self._teacher.next_vertex()
        if vertex in self._revealed_set:
            raise ProtocolViolation(f"teacher repeated vertex {vertex}")
        ledger.nvq_count += 1
        self._revealed_set.add(vertex)
        return vertex

    def connection(self, u: int, a: int, v: int) -> bool:
        # type first: 0.0 and True would pass the membership and range tests
        if not (type(u) is int and type(a) is int and type(v) is int):
            raise ProtocolViolation(
                f"connection query ({u!r}, {a!r}, {v!r}) holds a vertex or right "
                "that is not an int"
            )
        if u not in self._revealed_set or v not in self._revealed_set:
            raise ProtocolViolation(
                f"connection query ({u}, {a}, {v}) references an unrevealed vertex"
            )
        if not 0 <= a < self._k:
            raise ProtocolViolation(f"right index {a} out of range [0, {self._k})")
        self.ledger.cnq_count += 1
        return self._teacher.connection(u, a, v)

    def hypothesis_test(
        self, summary: LabeledDigraph, assignment: Mapping[int, int]
    ) -> frozenset[Edge]:
        """Check types, alphabet, domain and SC-1, in that order, then ask
        the teacher about the monitor's copy of the summary, so a subclass
        cannot answer the teacher other than it answered SC-1.  A summary
        equal to that copy, by the copy's own ``LabeledDigraph.__eq__``, is
        not partitioned again."""
        if not (isinstance(summary, LabeledDigraph) and isinstance(assignment, Mapping)):
            got = f"{type(summary).__name__} and a {type(assignment).__name__}"
            raise ProtocolViolation(f"hypothesis is a {got}, not a LabeledDigraph and a Mapping")
        if summary.k != self._k:
            raise ProtocolViolation(f"summary is over {summary.k} rights, not {self._k}")
        # a keys view compares with a set as a set, so no key set is built
        # unless the check fails and its message needs one
        if assignment.keys() != self._revealed_set:
            keys = set(assignment)
            # sorted by repr: a key of another type does not compare with an id
            raise ProtocolViolation(
                "hypothesis assignment domain must be exactly the revealed set; "
                f"missing {sorted(self._revealed_set - keys, key=repr)}, "
                f"extra {sorted(keys - self._revealed_set, key=repr)}"
            )
        if not LabeledDigraph.__eq__(self._irreducible, summary):
            if not is_irreducible(summary):
                raise SC1Violation("submitted summary is reducible")
            self._irreducible = induced_subgraph(summary, summary.vertices)
            self._irreducible_vertices = set(summary.vertices)
        try:
            domains = set(assignment.values())
        except TypeError:  # an unhashable domain fails the set
            raise ProtocolViolation("hypothesis assignment maps to an unhashable domain") from None
        if domains != self._irreducible_vertices:
            raise SC1Violation(
                "submitted assignment is not surjective onto the summary vertices, "
                "or maps a vertex outside them"
            )
        errors = self._teacher.hypothesis_test(self._irreducible, assignment)
        ledger = self.ledger
        ledger.htq_count += 1
        ledger.errors_cumulative += len(errors)
        # the round's first clean test closes it
        if not errors and len(ledger.per_round) < ledger.nvq_count:
            ledger.per_round.append(
                RoundSnapshot(
                    n=ledger.nvq_count,
                    cnq_cum=ledger.cnq_count,
                    htq_cum=ledger.htq_count,
                    errors_cum=ledger.errors_cumulative,
                    observed_m=self._irreducible.vertex_count,
                )
            )
        return errors
