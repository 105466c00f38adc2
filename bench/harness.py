"""Run one block of a workload and turn blocks into the benchmark's metrics.

A block runs every session of a workload through domainlearn's own harness
(``run_experiment`` or ``verify_experiment``).  Two light patches are always
in place: one keeps each session's ``Session`` so its query ledger can be
read and digested, and one stamps the start of every ``run_round`` call, so
a round's latency is the time from its start to the next round's start (or
the end of the session), harness and oracle work included.  A traced block
adds the spans of :mod:`spans` on top.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads  # noqa: F401  (puts the sources on sys.path)
from domainlearn import experiments
from domainlearn.learners import ConservativeLearner, TirelessLearner
from spans import Patches, SpanStats, Tracer

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Rounds beyond the tail percentile: round_tail_ms is the (TAIL_BEYOND + 1)-th
# slowest round of the round profile.
TAIL_BEYOND = 10


@dataclass
class BlockResult:
    wall_s: float = 0.0
    rounds: int = 0
    nvq: int = 0
    cnq: int = 0
    htq: int = 0
    errors: int = 0
    bet_rounds: int = 0  # rounds after a session's first
    bet_held: int = 0  # ... whose first hypothesis test was clean
    intervals: list[float] = field(default_factory=list)  # seconds per round
    digests: list[str | None] = field(default_factory=list)  # one per session
    problems: list[str | None] = field(default_factory=list)  # one per session
    stats: SpanStats | None = None


def ledger_digest(session) -> str:
    """Digest of the per-round ledger CSV: n,cnq_cum,htq_cum,errors_cum."""
    text = "".join(
        f"{s.n},{s.cnq_cum},{s.htq_cum},{s.errors_cum}\n" for s in session.ledger.per_round
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _session_problem(report) -> str | None:
    if isinstance(report, experiments.VerifyReport):
        if report.all_passed:
            return None
        bad = [r for r in report.rounds if not r.passed]
        return "; ".join(report.violations) or f"verify round {bad[0].round_no}: {bad[0].failures}"
    return "; ".join(report.violations) or None


def run_block(configs, tracer: Tracer | None = None) -> BlockResult:
    """Run every session in ``configs`` once and collect its figures."""
    result = BlockResult()
    sessions: list = []
    starts: list[float] = []
    clock = time.perf_counter

    def capture(fn):
        def build_session(config):
            built = fn(config)
            sessions.append(built[0])
            return built
        return build_session

    def stamp(fn):
        def run_round(self):
            starts.append(clock())
            return fn(self)
        return run_round

    patches = Patches()
    patches.replace(experiments, "build_session", capture)
    for cls in (TirelessLearner, ConservativeLearner):
        patches.replace(cls, "run_round", stamp)
    if tracer is not None:
        tracer.clear()
        tracer.install(patches)
    try:
        block_start = clock()
        for config in configs:
            starts.clear()
            del sessions[:]
            run = (
                experiments.run_experiment
                if config.oracle_checks == "off"
                else experiments.verify_experiment
            )
            try:
                report = run(config)
            except Exception as exc:  # one broken session must not hide the others
                traceback.print_exc(file=sys.stderr)
                result.digests.append(None)
                result.problems.append(f"{type(exc).__name__}: {exc}")
                continue
            end = clock()
            _add_session(result, sessions[0], starts + [end], _session_problem(report))
        result.wall_s = clock() - block_start
    finally:
        patches.restore()
    if tracer is not None:
        result.stats = tracer.stats()
    return result


def _add_session(result: BlockResult, session, marks: list[float], problem) -> None:
    ledger = session.ledger
    completed = len(ledger.per_round)
    result.rounds += completed
    result.nvq += ledger.nvq_count
    result.cnq += ledger.cnq_count
    result.htq += ledger.htq_count
    result.errors += ledger.errors_cumulative
    result.intervals.extend(b - a for a, b in zip(marks, marks[1:][:completed]))
    htq = [s.htq_cum for s in ledger.per_round]
    result.bet_rounds += max(completed - 1, 0)
    result.bet_held += sum(1 for a, b in zip(htq, htq[1:]) if b - a == 1)
    result.digests.append(ledger_digest(session))
    result.problems.append(problem)


def load_reference(workload: str, seed: int) -> list[str] | None:
    """Recorded per-session ledger digests of ``workload`` at ``seed``."""
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def failed_sessions(blocks: list[BlockResult], expected: list[str]) -> list[str]:
    """One line per failed session run: a bound or monitor violation, a
    failed verify check, a crash, or a ledger that differs from ``expected``."""
    failures = []
    for number, block in enumerate(blocks):
        for index, (digest, problem) in enumerate(zip(block.digests, block.problems)):
            if problem is None and digest != expected[index]:
                problem = f"ledger digest {digest} != reference {expected[index]}"
            if problem is not None:
                failures.append(f"block {number} session {index}: {problem}")
    return failures


def tail(values: list[float]) -> float:
    """The value with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - TAIL_BEYOND - 1, 0)]


def tail_percentile(samples: int) -> float:
    return 100.0 * max(samples - TAIL_BEYOND, 0) / samples


def round_profile(blocks: list[BlockResult], hosts: list[float] | None = None) -> list[float]:
    """Each round's median time, in seconds, over the blocks of a run, each
    block's times divided by its entry in ``hosts`` (see :mod:`calibrate`).

    The simulator is deterministic, so the i-th round of every block does
    the same work; what differs between repetitions is interference from
    other tenants of the host.  The median converges as blocks are added;
    the fastest time does not (on a shared 2-vCPU host it kept falling,
    from 2.4 s to 1.6 s a block, between 3 and 23 blocks of one run), so it
    would make the figures depend on how many blocks fit in a run.
    """
    hosts = hosts or [1.0] * len(blocks)
    rounds = len(blocks[0].intervals)
    scaled = [
        [t / host for t in block.intervals]
        for block, host in zip(blocks, hosts)
        if len(block.intervals) == rounds
    ]
    return [statistics.median(t) for t in zip(*scaled)]


def end_to_end(blocks: list[BlockResult], hosts: list[float] | None = None) -> dict[str, float]:
    """Throughput and latency of the round profile, at the reference host
    speed when ``hosts`` holds each block's host factor, and the exact query
    counts of one block."""
    profile = round_profile(blocks, hosts)
    busy = sum(profile)
    first = blocks[0]
    return {
        "rounds_per_s": len(profile) / busy,
        "queries_per_s": (first.nvq + first.cnq + first.htq) / busy,
        "round_p50_ms": statistics.median(profile) * 1e3,
        "round_tail_ms": tail(profile) * 1e3,
        "cnq_total": first.cnq,
        "htq_total": first.htq,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(block: BlockResult) -> dict[str, float]:
    """Per-layer counts and seconds of one traced block."""
    st = block.stats
    calls, total, own = st.calls, st.total_s, st.self_s
    return {
        "protocol.nvq_calls": calls["protocol.nvq"],
        "protocol.cnq_calls": calls["protocol.cnq"],
        "protocol.htq_calls": calls["protocol.htq"],
        "protocol.nvq_s": total["protocol.nvq"],
        "protocol.cnq_s": total["protocol.cnq"],
        "protocol.htq_s": total["protocol.htq"],
        "protocol.sc1_s": total["protocol.sc1"],
        "protocol.self_s": st.layer_self_s("protocol"),
        "protocol.errors_total": block.errors,
        "teacher.reveal_s": total["teacher.reveal"],
        "teacher.cnq_s": total["teacher.cnq"],
        "teacher.htq_s": total["teacher.htq"],
        "teacher.self_s": own["teacher.htq"],
        "teacher.errors_per_htq": _ratio(block.errors, block.htq),
        "digraph.error_set_s": total["digraph.error_set"],
        "digraph.error_set_calls": calls["digraph.error_set"],
        "digraph.equivalence_partition_s": total["digraph.equivalence_partition"],
        "digraph.induced_subgraph_s": total["digraph.induced_subgraph"],
        "digraph.is_strong_homomorphism_s": total["digraph.is_strong_homomorphism"],
        "learners.round_s": total["learners.round"],
        "learners.self_s": st.layer_self_s("learners"),
        "learners.classify_s": total["learners.classify"],
        "learners.classify_calls": calls["learners.classify"],
        "learners.cnq_per_classify": _ratio(
            st.calls_by_parent[("learners.classify", "protocol.cnq")],
            calls["learners.classify"],
        ),
        "learners.revise_s": total["learners.revise"],
        "learners.revise_calls": calls["learners.revise"],
        "learners.bet_held_ratio": _ratio(block.bet_held, block.bet_rounds),
        "summarize.calls": calls["summarize.summarize"],
        "summarize.s": total["summarize.summarize"],
        "oracle.checks": calls["oracle.invariants"],
        "oracle.invariants_s": total["oracle.invariants"],
        "oracle.partition_s": total["oracle.partition"],
        "oracle.isomorphic_s": total["oracle.isomorphic"],
        "experiments.self_s": st.layer_self_s("experiments"),
        "trace.wall_s": block.wall_s,
    }
