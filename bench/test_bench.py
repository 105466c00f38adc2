"""The benchmark's own tests: python3 -m pytest bench/test_bench.py

Small sessions of every kind the workloads run (iid, novel-last, tireless,
verify) keep these fast; the workloads themselves are exercised by run.py.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from workloads import WORKLOADS  # first: puts the sources on sys.path
from domainlearn.experiments import ExperimentConfig
from calibrate import REFERENCE_S, host_factor
from harness import REFERENCE, BlockResult, end_to_end, failed_sessions, per_layer, run_block, tail
from spans import TARGETS, Tracer, resolve

SMALL = [
    ExperimentConfig(learner="conservative", k=2, m=5, template_seed=11, rounds=60),
    ExperimentConfig(
        learner="conservative", k=2, m=6, template_seed=12,
        schedule="novel-last:25", rounds=31,
    ),
    ExperimentConfig(learner="tireless", k=2, m=4, template_seed=13, rounds=30),
    ExperimentConfig(
        learner="conservative", k=3, m=4, template_seed=14, rounds=20,
        oracle_checks="every",
    ),
]


def _originals():
    owners = {(owner, attr): vars(resolve(owner))[attr] for _, owner, attr in TARGETS}
    for cls in ("TirelessLearner", "ConservativeLearner"):
        owner = f"domainlearn.learners:{cls}"
        owners[(owner, "run_round")] = vars(resolve(owner))["run_round"]
    return owners


@pytest.fixture(scope="module")
def blocks():
    before = _originals()
    plain = run_block(SMALL)
    traced = run_block(SMALL, Tracer())
    return before, plain, traced


def test_sessions_pass_their_checks(blocks):
    _, plain, traced = blocks
    assert plain.problems == [None] * len(SMALL)
    assert traced.problems == [None] * len(SMALL)
    assert not failed_sessions([plain, traced], plain.digests)


def test_traced_ledgers_equal_untraced(blocks):
    _, plain, traced = blocks
    assert None not in plain.digests
    assert traced.digests == plain.digests
    assert (traced.rounds, traced.cnq, traced.htq, traced.errors) == (
        plain.rounds, plain.cnq, plain.htq, plain.errors,
    )


def test_wrappers_are_removed(blocks):
    before, _, _ = blocks
    assert _originals() == before
    for (owner, attr), original in before.items():
        assert getattr(resolve(owner), attr) is original


def test_self_times_are_non_negative_and_fit_in_the_wall(blocks):
    _, _, traced = blocks
    stats = traced.stats
    assert all(v >= 0 for v in stats.self_s.values())
    assert sum(stats.self_s.values()) <= traced.wall_s


def test_span_counts_match_the_ledger(blocks):
    _, _, traced = blocks
    calls = traced.stats.calls
    # plus the call that finds the novel-last schedule spent
    assert calls["protocol.nvq"] == traced.nvq + 1
    assert calls["protocol.cnq"] == traced.cnq
    assert calls["protocol.htq"] == traced.htq
    assert calls["teacher.htq"] == calls["digraph.error_set"] == traced.htq
    assert calls["oracle.invariants"] == SMALL[3].rounds
    assert calls["summarize.summarize"] == SMALL[2].rounds + SMALL[3].rounds


def test_round_latencies_cover_every_completed_round(blocks):
    _, plain, _ = blocks
    assert len(plain.intervals) == plain.rounds
    # novel-last:25 with m=6 reveals 30 vertices, then the schedule is spent
    assert plain.rounds == 60 + 30 + 30 + 20
    assert all(t > 0 for t in plain.intervals)


def test_timings_are_divided_by_the_host_factor(blocks):
    _, plain, _ = blocks
    assert host_factor([REFERENCE_S] * 3) == 1.0
    measured, normalised = end_to_end([plain]), end_to_end([plain], [2.0])
    assert normalised["rounds_per_s"] == pytest.approx(2 * measured["rounds_per_s"])
    assert normalised["round_tail_ms"] == pytest.approx(measured["round_tail_ms"] / 2)
    assert normalised["cnq_total"] == measured["cnq_total"]


def test_a_changed_ledger_counts_as_failed():
    block = BlockResult(digests=["a", "b"], problems=[None, None])
    assert failed_sessions([block], ["a", "b"]) == []
    assert len(failed_sessions([block], ["a", "c"])) == 1
    block.problems[0] = "round 3: monitor violation"
    assert len(failed_sessions([block], ["a", "c"])) == 2


def test_tail_leaves_ten_rounds_beyond_it():
    values = [float(i) for i in range(300)]
    assert tail(values) == 289.0
    assert sum(v > tail(values) for v in values) == 10


def test_reference_covers_every_workload():
    reference = json.loads(REFERENCE.read_text())
    assert set(reference) == set(WORKLOADS)
    for name, by_seed in reference.items():
        assert {"0", "7777"} <= set(by_seed)
        sessions = len(WORKLOADS[name].configs(0))
        assert all(len(digests) == sessions for digests in by_seed.values())


def test_benchmark_json_names_the_workloads_and_metrics(blocks):
    _, plain, traced = blocks
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    # run.py adds set-up, RSS and the tracing overhead to what harness derives
    assert {m["name"] for m in spec["end_to_end"]} == {*end_to_end([plain]), "setup_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["per_layer"]} == {
        *per_layer(traced), "trace.untraced_wall_s", "trace.overhead_frac",
    }
