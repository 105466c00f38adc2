"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing one pass/fail line (visible with ``pytest -s``).

The shared 50-world corpus (k in {1,2,3}, m in {1..6}, 100 rounds, both
learners on identical teacher streams, ten adversarial novel-last schedules)
is built once per module run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import pytest

from domainlearn.cli import main
from domainlearn.digraph import LabeledDigraph, equivalence_partition, is_irreducible
from domainlearn.experiments import (
    ExperimentConfig,
    coupon_experiment,
    run_experiment,
    sweep_experiment,
    verify_experiment,
)
from domainlearn.learners import ConservativeLearner, TirelessLearner
from domainlearn.oracle import is_strong_homomorphism, isomorphic_small, oracle_partition
from domainlearn.protocol import (
    ProtocolViolation,
    RoundSnapshot,
    SC1Violation,
    SC2Violation,
    Session,
)
from domainlearn.rng import SplitMix64, derive_seed
from domainlearn.summarize import summarize
from domainlearn.teacher import (
    IidUniform,
    SyntheticTeacher,
    TemplateInstances,
    generate_template,
    parse_schedule,
)

from .ground_truth import revealed_class_count, revealed_domains
from .strategies import random_digraph
from .test_learners import ReducibleHypothesisLearner, SkipReviseLearner

CORPUS_WORLDS = 50
CORPUS_ROUNDS = 100


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name} failed: {detail}"


@dataclass
class WorldRecord:
    index: int
    k: int
    m: int
    schedule_kind: str
    tireless_rows: list[RoundSnapshot] = field(default_factory=list)
    conservative_rows: list[RoundSnapshot] = field(default_factory=list)
    class_counts: list[int] = field(default_factory=list)  # m_t per round
    error_deltas: list[int] = field(default_factory=list)
    coverage_round: int | None = None  # first round with all m domains seen
    violations: list[str] = field(default_factory=list)


def world_parameters(index: int) -> tuple[int, int, str]:
    k = (index % 3) + 1
    m = ((index // 3) % 6) + 1
    schedule_kind = "novel-last" if index % 5 == 4 else "iid-uniform"
    return k, m, schedule_kind


def build_schedule(kind: str, m: int):
    if kind == "novel-last":
        # exactly CORPUS_ROUNDS reveals
        return parse_schedule(f"novel-last:{CORPUS_ROUNDS + 1 - m}", m)
    return IidUniform(m)


@pytest.fixture(scope="module")
def corpus():
    worlds: list[WorldRecord] = []
    tireless_elapsed = 0.0
    for index in range(CORPUS_WORLDS):
        k, m, schedule_kind = world_parameters(index)
        record = WorldRecord(index=index, k=k, m=m, schedule_kind=schedule_kind)
        template = generate_template(1000 + index, m, k, edge_density=0.5)
        draw_seed = derive_seed(1000 + index, 0xACCE)

        started = time.perf_counter()
        instances = TemplateInstances(template, build_schedule(schedule_kind, m), draw_seed)
        teacher = SyntheticTeacher(instances)
        session = Session(teacher)
        learner = TirelessLearner(session)
        try:
            for _ in range(CORPUS_ROUNDS):
                learner.run_round()
        except ProtocolViolation as exc:
            record.violations.append(f"tireless: {exc}")
        record.tireless_rows = list(session.ledger.per_round)
        tireless_elapsed += time.perf_counter() - started

        instances = TemplateInstances(template, build_schedule(schedule_kind, m), draw_seed)
        teacher = SyntheticTeacher(instances)
        session = Session(teacher)
        learner = ConservativeLearner(session)
        previous_errors = 0
        try:
            for _ in range(CORPUS_ROUNDS):
                learner.run_round()
                snapshot = session.ledger.per_round[-1]
                record.conservative_rows.append(snapshot)
                record.class_counts.append(revealed_class_count(template, instances))
                record.error_deltas.append(snapshot.errors_cum - previous_errors)
                previous_errors = snapshot.errors_cum
                if (
                    record.coverage_round is None
                    and len(set(revealed_domains(instances))) == m
                ):
                    record.coverage_round = snapshot.n
        except ProtocolViolation as exc:
            record.violations.append(f"conservative: {exc}")
        worlds.append(record)
    return {"worlds": worlds, "tireless_elapsed": tireless_elapsed}


def test_criterion_1_tireless_exactness(corpus):
    failures = []
    for record in corpus["worlds"]:
        if len(record.tireless_rows) != CORPUS_ROUNDS:
            failures.append(f"world {record.index}: {len(record.tireless_rows)} rounds")
        for snap in record.tireless_rows:
            if snap.cnq_cum != record.k * snap.n * snap.n:
                failures.append(
                    f"world {record.index} round {snap.n}: cnq {snap.cnq_cum}"
                )
                break
            if snap.errors_cum != 0:
                failures.append(f"world {record.index}: non-empty hypothesis test")
                break
    elapsed = corpus["tireless_elapsed"]
    if elapsed >= 30.0:
        failures.append(f"tireless corpus took {elapsed:.1f}s (budget 30s)")
    report(
        "1 tireless-exactness",
        not failures,
        failures[0] if failures else f"50 worlds x 100 rounds, {elapsed:.1f}s",
    )


def test_criterion_2_conservative_cost_bound(corpus):
    failures = []
    tight_witness = None
    for record in corpus["worlds"]:
        for snap, m_t in zip(record.conservative_rows, record.class_counts):
            bound = record.k + (snap.n - 1) * (m_t - 1)
            if snap.cnq_cum > bound:
                failures.append(
                    f"world {record.index} round {snap.n}: "
                    f"cnq {snap.cnq_cum} > {bound}"
                )
                break
        if record.conservative_rows:
            final = record.conservative_rows[-1]
            final_m = record.class_counts[-1]
            bound = record.k + (final.n - 1) * (final_m - 1)
            if final.n >= 4 * record.m and 2 * final.cnq_cum >= bound:
                tight_witness = record.index
    if tight_witness is None:
        failures.append("no world shows the bound tight within a factor of 2")
    report(
        "2 conservative-cost-bound",
        not failures,
        failures[0] if failures else f"tight witness: world {tight_witness}",
    )


def test_criterion_3_conservative_error_bound(corpus):
    failures = []
    novel_last_with_errors = False
    for record in corpus["worlds"]:
        for snap, m_t, delta in zip(
            record.conservative_rows, record.class_counts, record.error_deltas
        ):
            if snap.errors_cum > record.k * (2 * snap.n + 1) * (m_t - 1):
                failures.append(
                    f"world {record.index} round {snap.n}: cumulative errors"
                )
                break
            if delta > record.k * (2 * snap.n - 1):
                failures.append(
                    f"world {record.index} round {snap.n}: per-round error set"
                )
                break
        if (
            record.schedule_kind == "novel-last"
            and record.m >= 2
            and record.conservative_rows
            and record.conservative_rows[-1].errors_cum > 0
        ):
            novel_last_with_errors = True
    if not novel_last_with_errors:
        failures.append("no adversarial novel-last world accumulated errors")
    report("3 conservative-error-bound", not failures, failures[0] if failures else "")


def test_criterion_4_success_criteria(corpus):
    failures = [
        f"world {record.index}: {violation}"
        for record in corpus["worlds"]
        for violation in record.violations
    ]

    template = generate_template(1, m=2, k=1, edge_density=0.5)
    from domainlearn.teacher import Scripted

    teacher = SyntheticTeacher(TemplateInstances(template, Scripted((0, 1, 0), 2), draw_seed=1))
    session = Session(teacher)
    faulty = SkipReviseLearner(session)
    try:
        for _ in range(3):
            faulty.run_round()
        failures.append("skip-revise fault was not caught")
    except SC2Violation:
        pass  # caught within one round of the mishandled novelty

    teacher = SyntheticTeacher(TemplateInstances(template, Scripted((0, 0), 2), draw_seed=1))
    session = Session(teacher)
    reducible = ReducibleHypothesisLearner(session)
    try:
        reducible.run_round()
        reducible.run_round()
        failures.append("reducible hypothesis was not caught")
    except SC1Violation:
        pass
    report("4 success-criteria", not failures, failures[0] if failures else "")


def test_criterion_5_invariant_suite():
    started = time.perf_counter()
    failures = []
    for i in range(100):
        config = ExperimentConfig(
            learner="conservative",
            k=(i % 3) + 1,
            m=(i % 6) + 1,
            edge_density=0.5,
            template_seed=2000 + i,
            rounds=64,
            oracle_checks="every",
        )
        result = verify_experiment(config)
        if not result.all_passed:
            bad = [r for r in result.rounds if not r.passed][:1]
            failures.append(f"seed {config.template_seed}: {bad}")
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 120.0:
        failures.append(f"verify suite took {elapsed:.1f}s (budget 120s)")
    report(
        "5 invariant-suite",
        not failures,
        failures[0] if failures else f"100 seeds x 64 rounds, {elapsed:.1f}s",
    )


def test_criterion_6_zero_error_steady_state(corpus):
    failures = []
    for record in corpus["worlds"]:
        if record.coverage_round is None:
            continue  # some iid runs never reveal every domain in 100 rounds
        for snap in record.conservative_rows:
            if (
                snap.n > record.coverage_round
                and snap.errors_cum
                != record.conservative_rows[record.coverage_round - 1].errors_cum
            ):
                failures.append(
                    f"world {record.index}: errors after coverage "
                    f"round {record.coverage_round}"
                )
                break
    covered = sum(1 for r in corpus["worlds"] if r.coverage_round is not None)
    report(
        "6 zero-error-steady-state",
        not failures,
        failures[0] if failures else f"{covered}/50 worlds reached full coverage",
    )


def test_criterion_7_coupon_collector():
    failures = []
    config = ExperimentConfig(m=5, k=1, trials=20_000, schedule="iid-uniform",
                              template_seed=7)
    uniform = coupon_experiment(config)
    closed_form = 5 * (1 + 1 / 2 + 1 / 3 + 1 / 4 + 1 / 5)
    assert uniform.uniform_closed_form == pytest.approx(closed_form)
    assert uniform.exact_mean == pytest.approx(closed_form)
    if abs(uniform.empirical_mean - closed_form) / closed_form >= 0.03:
        failures.append(
            f"uniform empirical {uniform.empirical_mean:.4f} vs {closed_form:.4f}"
        )

    config = ExperimentConfig(m=3, k=1, trials=20_000,
                              schedule="iid-weighted:0.5,0.3,0.2", template_seed=8)
    weighted = coupon_experiment(config)
    if abs(weighted.empirical_mean - weighted.exact_mean) / weighted.exact_mean >= 0.03:
        failures.append(
            f"weighted empirical {weighted.empirical_mean:.4f} "
            f"vs exact {weighted.exact_mean:.4f}"
        )
    report(
        "7 coupon-collector",
        not failures,
        failures[0]
        if failures
        else f"uniform {uniform.empirical_mean:.4f}/{closed_form:.4f}, "
        f"weighted {weighted.empirical_mean:.4f}/{weighted.exact_mean:.4f}",
    )


def test_criterion_8_summarizer_correctness():
    started = time.perf_counter()
    failures = []
    for i in range(1_000):
        n = (i % 16) + 1
        k = (i % 3) + 1
        density = ((i * 7) % 10) / 10.0
        g = random_digraph(seed=10_000 + i, n=n, k=k, density=density)
        summary, assignment = summarize(g)
        ok = (
            is_strong_homomorphism(g, summary, assignment)
            and set(assignment.values()) == set(summary.vertices)
            and is_irreducible(summary)
            and all(g.has_edge(*e) for e in summary.edges())
            and equivalence_partition(g) == oracle_partition(g)
        )
        if not ok:
            failures.append(f"graph {i}: summary contract")
            break
        # a seeded relabelling must summarize to an isomorphic quotient
        rng = SplitMix64(derive_seed(555, i))
        shuffled = list(g.vertices)
        for j in range(len(shuffled) - 1, 0, -1):
            swap = rng.randrange(j + 1)
            shuffled[j], shuffled[swap] = shuffled[swap], shuffled[j]
        permutation = dict(zip(g.vertices, shuffled))
        relabelled = LabeledDigraph(
            k,
            range(n),
            [(permutation[u], a, permutation[v]) for u, a, v in g.edges()],
        )
        if not isomorphic_small(summary, summarize(relabelled)[0], limit=16):
            failures.append(f"graph {i}: relabelled summary not isomorphic")
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"summarizer corpus took {elapsed:.1f}s (budget 60s)")
    report(
        "8 summarizer-correctness",
        not failures,
        failures[0] if failures else f"1000 digraphs, {elapsed:.1f}s",
    )


def test_criterion_9_determinism(tmp_path):
    failures = []
    run_config = ExperimentConfig(
        learner="conservative", k=2, m=4, template_seed=77, rounds=25
    )
    if run_experiment(run_config).to_csv() != run_experiment(run_config).to_csv():
        failures.append("run_experiment CSV differs across repeats")
    sweep_config = ExperimentConfig(k=2, m=3, template_seed=78)
    sweep_csv = [sweep_experiment(sweep_config, [5, 10]).to_csv() for _ in range(2)]
    if sweep_csv[0] != sweep_csv[1]:
        failures.append("sweep_experiment CSV differs across repeats")

    args = ["run", "--learner", "tireless", "--k", "2", "--m", "3",
            "--seed", "79", "--rounds", "12"]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    if first.read_bytes() != second.read_bytes():
        failures.append("CLI run output differs across repeats")
    report("9 determinism", not failures, failures[0] if failures else "")
