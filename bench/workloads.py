"""The benchmark's workloads: one fixed block of sessions per workload.

A block is the unit of measured work.  It is made only from the workload
seed, so the same seed gives the same sessions, and every repetition of a
block must produce the same query ledgers.  Blocks are short (one to three
seconds on a 2-core x86 host) so that a run repeats every round several
times, and each workload has a different dominant layer.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from domainlearn.experiments import ExperimentConfig  # noqa: E402
from domainlearn.rng import derive_seed  # noqa: E402


def _cons_iid(template_seed) -> list[ExperimentConfig]:
    # One long session in the steady state, where almost every bet holds
    # and host time goes to revealing vertices and evaluating hypothesis
    # tests.  m=8 keeps revision to a few early rounds: with m=32 at this
    # length, 31 revisions of heavy-tailed cost (one took 194 ms of an
    # 800 ms block) set both throughput and tail, differently per seed.
    # At 500 rounds the revealed graph has 0.2M-0.3M edges, inside one size
    # of the edge set's hash table, so peak RSS does not jump between seeds.
    # Two templates, because one template's revision count moved the median
    # round by 15% between seeds.
    return [
        ExperimentConfig(
            learner="conservative", k=2, m=8, edge_density=0.5,
            template_seed=template_seed(i), schedule="iid-uniform", rounds=500,
        )
        for i in range(2)
    ]


def _cons_adversarial(template_seed) -> list[ExperimentConfig]:
    # Sixteen templates rather than one long prefix, so that one template's
    # revision cost and edge count do not set the whole figure: a prefix
    # round costs more when domain 0 has self-loops, and eight templates
    # left the median round 21% apart between seeds.  rounds exceeds the
    # schedule by one: each session ends when the schedule is exhausted.
    prefix, m = 50, 16
    return [
        ExperimentConfig(
            learner="conservative", k=2, m=m, edge_density=0.5,
            template_seed=template_seed(i), schedule=f"novel-last:{prefix}",
            rounds=prefix + m,
        )
        for i in range(16)
    ]


def _tireless(template_seed) -> list[ExperimentConfig]:
    return [
        ExperimentConfig(
            learner="tireless", k=2, m=8, edge_density=0.5,
            template_seed=template_seed(0), schedule="iid-uniform", rounds=200,
        )
    ]


def _verify(template_seed) -> list[ExperimentConfig]:
    # Every (k, m) pair with k in 1..3 and m in 1..6, twice, oracle on every
    # round.  The slowest rounds come from the largest worlds; with one world
    # per pair, which templates those were moved round_tail_ms by 19%
    # between seeds.
    return [
        ExperimentConfig(
            learner="conservative", k=i % 3 + 1, m=(i // 3) % 6 + 1,
            edge_density=0.5, template_seed=template_seed(i), rounds=40,
            oracle_checks="every",
        )
        for i in range(36)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    salt: int
    build: Callable[[Callable[[int], int]], list[ExperimentConfig]]

    def configs(self, seed: int) -> list[ExperimentConfig]:
        """The sessions of one block, derived from ``seed`` alone."""
        return self.build(lambda i: derive_seed(seed, self.salt, i))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cons-iid",
            "conservative learner in steady state (k=2, m=8, 2 x 500 iid rounds): "
            "teacher reveal and HTQ evaluation dominate",
            0xB1,
            _cons_iid,
        ),
        Workload(
            "cons-adversarial",
            "conservative learner on novel-last schedules (k=2, m=16, prefix 50, "
            "16 templates): revision dominates",
            0xB2,
            _cons_adversarial,
        ),
        Workload(
            "tireless",
            "tireless learner (k=2, m=8, 200 rounds): k*n^2 CNQs and summarize "
            "on every round dominate",
            0xB3,
            _tireless,
        ),
        Workload(
            "verify",
            "verify mode over 36 worlds (k 1-3, m 1-6, 40 rounds, oracle every "
            "round): the brute-force oracle dominates",
            0xB4,
            _verify,
        ),
    )
}
