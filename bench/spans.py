"""In-memory spans around the calls into domainlearn's layers.

Each traced function is replaced where its caller looks the name up: a
module global for functions imported by name (``domainlearn.protocol`` calls
its own ``is_irreducible``), a class attribute for methods.  Spans are kept
in flat arrays and self times are derived from them after the block; the
originals are put back when the patches are restored.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from dataclasses import dataclass

# (span name, owner, attribute); the owner is "module" or "module:Class".
# A span name's first component is its layer.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("experiments.run", "domainlearn.experiments", "run_experiment"),
    ("experiments.verify", "domainlearn.experiments", "verify_experiment"),
    ("setup.build_session", "domainlearn.experiments", "build_session"),
    ("learners.round", "domainlearn.learners:TirelessLearner", "run_round"),
    ("learners.round", "domainlearn.learners:ConservativeLearner", "run_round"),
    ("learners.classify", "domainlearn.learners", "classify"),
    ("learners.revise", "domainlearn.learners", "revise"),
    ("summarize.summarize", "domainlearn.learners", "summarize"),
    ("summarize.summarize", "domainlearn.experiments", "summarize"),
    ("digraph.equivalence_partition", "domainlearn.summarize", "equivalence_partition"),
    ("digraph.induced_subgraph", "domainlearn.summarize", "induced_subgraph"),
    ("protocol.nvq", "domainlearn.protocol:Session", "next_vertex"),
    ("protocol.cnq", "domainlearn.protocol:Session", "connection"),
    ("protocol.htq", "domainlearn.protocol:Session", "hypothesis_test"),
    ("protocol.sc1", "domainlearn.protocol", "is_irreducible"),
    ("teacher.reveal", "domainlearn.teacher:SyntheticTeacher", "next_vertex"),
    ("teacher.cnq", "domainlearn.teacher:SyntheticTeacher", "connection"),
    ("teacher.htq", "domainlearn.teacher:SyntheticTeacher", "hypothesis_test"),
    ("digraph.error_set", "domainlearn.teacher", "error_set"),
    ("oracle.invariants", "domainlearn.experiments", "check_round_invariants"),
    ("oracle.partition", "domainlearn.oracle", "oracle_partition"),
    ("oracle.partition", "domainlearn.experiments", "oracle_partition"),
    ("oracle.isomorphic", "domainlearn.experiments", "isomorphic_small"),
    ("digraph.is_strong_homomorphism", "domainlearn.oracle", "is_strong_homomorphism"),
)


def resolve(owner: str):
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


class Patches:
    """Attribute replacements that are undone last-first by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make) -> None:
        """Set ``owner.name`` to ``make(original)``; the attribute must be
        defined on ``owner`` itself, so restoring it cannot shadow a base."""
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


@dataclass(frozen=True)
class SpanStats:
    """Per span name: call count, inclusive seconds and self seconds."""

    calls: Counter
    total_s: Counter
    self_s: Counter
    calls_by_parent: Counter  # (parent name, child name) -> calls

    def layer_self_s(self, layer: str) -> float:
        return sum(v for name, v in self.self_s.items() if name.split(".")[0] == layer)


class Tracer:
    """Records one span per call into each of :data:`TARGETS`."""

    def __init__(self) -> None:
        self.names: list[str] = sorted({name for name, _, _ in TARGETS})
        self._name = array("H")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]

    def install(self, patches: Patches) -> None:
        for name, owner, attr in TARGETS:
            name_id = self.names.index(name)
            patches.replace(resolve(owner), attr, lambda fn, i=name_id: self._wrap(i, fn))

    def clear(self) -> None:
        for spans in (self._name, self._parent, self._start, self._end):
            del spans[:]
        self._stack[:] = [-1]

    def _wrap(self, name_id: int, fn):
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def stats(self) -> SpanStats:
        """Derive counts, inclusive and self times from the recorded spans.

        A span's self time is its duration minus the durations of the spans
        it called directly; children lie inside their parent's interval, so
        self times are never negative.
        """
        durations = [e - s for s, e in zip(self._start, self._end)]
        child_ns = [0] * len(durations)
        by_parent: Counter = Counter()
        for index, parent in enumerate(self._parent):
            if parent >= 0:
                child_ns[parent] += durations[index]
                by_parent[(self.names[self._name[parent]], self.names[self._name[index]])] += 1
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for index, name_id in enumerate(self._name):
            name = self.names[name_id]
            calls[name] += 1
            total[name] += durations[index] / 1e9
            own[name] += (durations[index] - child_ns[index]) / 1e9
        return SpanStats(calls, total, own, by_parent)
