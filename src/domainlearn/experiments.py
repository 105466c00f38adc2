"""Experiment harness: run learning sessions, compare ledgers against the
closed-form cost and error bounds, and emit deterministic CSV reports.

Bound columns are pure functions of (k, n, observed_m):

* ``bound_tireless``  = k * n^2            (exact tireless cost)
* ``bound_cons_cnq``  = k + (n-1)(m-1)     (conservative cost ceiling)
* ``bound_cons_err``  = k(2n+1)(m-1)       (conservative error ceiling)

``observed_m`` is the oracle class count of the revealed subgraph when
oracle checks are enabled; otherwise it is the learner-visible summary size,
so measured runs stay uncontaminated by ground-truth access.
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .digraph import LabeledDigraph
from .learners import LEARNER_KINDS, make_learner
from .oracle import (
    ISOMORPHISM_VERTEX_LIMIT,
    check_round_invariants,
    isomorphic_small,
    oracle_partition,
)
from .protocol import ProtocolViolation, Session
from .rng import SplitMix64, derive_seed
from .summarize import summarize
from .teacher import (
    IidUniform,
    IidWeighted,
    SyntheticTeacher,
    TeacherExhausted,
    domain_sequence,
    generate_template,
    parse_schedule,
    schedule_probabilities,
)

CSV_HEADER = "n,cnq_cum,htq_cum,errors_cum,observed_m,bound_tireless,bound_cons_cnq,bound_cons_err"

# salt for deriving the teacher's draw stream from the template seed
_DRAW_STREAM = 0x1D5A7


@dataclass
class ExperimentConfig:
    """Config for one experiment; JSON file fields and CLI flags are 1:1."""

    learner: str = "conservative"
    k: int = 1
    m: int = 2
    edge_density: float = 0.5
    template_seed: int = 0
    schedule: str = "iid-uniform"
    rounds: int = 10
    oracle_checks: str = "off"
    trials: int = 1
    out: str | None = None

    def validate(self) -> None:
        if self.learner not in LEARNER_KINDS:
            raise ValueError(f"unknown learner {self.learner!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        mode, step = parse_oracle_checks(self.oracle_checks)
        if mode == "every" and step == 1 and self.rounds > 256:
            raise ValueError(
                "per-round oracle checks are limited to 256 rounds; "
                "use oracle=every=<j> or fewer rounds"
            )
        parse_schedule(self.schedule)

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "ExperimentConfig":
        data = json.loads(Path(path).read_text())
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields {sorted(unknown)}")
        config = cls(**data)
        return replace(config, **overrides) if overrides else config


def parse_oracle_checks(spec: str) -> tuple[str, int]:
    """Parse an oracle-checks spec into (mode, step): ``off`` -> ("off", 0),
    ``every`` -> ("every", 1), ``every=<j>`` -> ("every", j)."""
    if spec == "off":
        return "off", 0
    if spec == "every":
        return "every", 1
    if spec.startswith("every="):
        step = int(spec.removeprefix("every="))
        if step < 1:
            raise ValueError("oracle check interval must be >= 1")
        return "every", step
    raise ValueError(f"unknown oracle_checks spec {spec!r}")


@dataclass(frozen=True)
class RoundRow:
    n: int
    cnq_cum: int
    htq_cum: int
    errors_cum: int
    observed_m: int
    bound_tireless: int
    bound_cons_cnq: int
    bound_cons_err: int

    def as_csv(self) -> str:
        return (
            f"{self.n},{self.cnq_cum},{self.htq_cum},{self.errors_cum},"
            f"{self.observed_m},{self.bound_tireless},{self.bound_cons_cnq},"
            f"{self.bound_cons_err}"
        )


def bound_row(
    k: int,
    snapshot,
    observed_m: int,
) -> RoundRow:
    n = snapshot.n
    return RoundRow(
        n=n,
        cnq_cum=snapshot.cnq_cum,
        htq_cum=snapshot.htq_cum,
        errors_cum=snapshot.errors_cum,
        observed_m=observed_m,
        bound_tireless=k * n * n,
        bound_cons_cnq=k + (n - 1) * (observed_m - 1),
        bound_cons_err=k * (2 * n + 1) * (observed_m - 1),
    )


def _bound_violations(learner_kind: str, rows: list[RoundRow]) -> list[str]:
    violations = []
    for row in rows:
        if learner_kind == "tireless":
            if row.cnq_cum != row.bound_tireless:
                violations.append(
                    f"round {row.n}: tireless cnq_cum {row.cnq_cum} != {row.bound_tireless}"
                )
            if row.errors_cum != 0:
                violations.append(f"round {row.n}: tireless errors_cum {row.errors_cum} != 0")
        else:
            if row.cnq_cum > row.bound_cons_cnq:
                violations.append(
                    f"round {row.n}: conservative cnq_cum {row.cnq_cum} > {row.bound_cons_cnq}"
                )
            if row.errors_cum > row.bound_cons_err:
                violations.append(
                    f"round {row.n}: conservative errors_cum {row.errors_cum} > {row.bound_cons_err}"
                )
    return violations


@dataclass
class RunReport:
    config: ExperimentConfig
    rows: list[RoundRow]
    violations: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for row in self.rows:
            buf.write(row.as_csv() + "\n")
        return buf.getvalue()


def build_session(config: ExperimentConfig) -> tuple[Session, SyntheticTeacher]:
    template = generate_template(
        config.template_seed, config.m, config.k, config.edge_density
    )
    schedule = parse_schedule(config.schedule)
    teacher = SyntheticTeacher(
        template, schedule, derive_seed(config.template_seed, _DRAW_STREAM)
    )
    return Session(teacher), teacher


def run_experiment(config: ExperimentConfig) -> RunReport:
    config.validate()
    session, teacher = build_session(config)
    learner = make_learner(config.learner, session)
    mode, step = parse_oracle_checks(config.oracle_checks)
    rows: list[RoundRow] = []
    violations: list[str] = []
    for round_no in range(1, config.rounds + 1):
        try:
            learner.run_round()
        except TeacherExhausted:
            break
        except ProtocolViolation as exc:
            violations.append(f"round {round_no}: monitor violation: {exc}")
            break
        snapshot = session.ledger.per_round[-1]
        if mode == "every" and round_no % step == 0:
            observed_m = len(oracle_partition(teacher.peek_ground_truth()))
        else:
            observed_m = learner.summary.vertex_count
        rows.append(bound_row(config.k, snapshot, observed_m))
    violations.extend(_bound_violations(config.learner, rows))
    return RunReport(config=config, rows=rows, violations=violations)


# -- verify mode --------------------------------------------------------------


@dataclass(frozen=True)
class RoundVerdict:
    round_no: int
    passed: bool
    failures: tuple[str, ...] = ()


@dataclass
class VerifyReport:
    config: ExperimentConfig
    rounds: list[RoundVerdict]
    violations: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return not self.violations and all(r.passed for r in self.rounds)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1


def _verify_round(
    learner, ground_truth: LabeledDigraph
) -> list[str]:
    failures: list[str] = []
    reconstruction = learner.reconstruction
    if reconstruction is not None and reconstruction != ground_truth:
        failures.append("reconstruction differs from the revealed subgraph")
    summary = learner.summary
    report = check_round_invariants(
        ground_truth, summary, learner.assignment, learner.tree
    )
    failures.extend(
        f"{check.name}: {check.detail}".rstrip(": ") for check in report.failures()
    )
    reference = summarize(ground_truth).summary
    if reference.vertex_count <= ISOMORPHISM_VERTEX_LIMIT:
        if not isomorphic_small(reference, summary):
            failures.append("summary not isomorphic to the reference summary")
    return failures


def verify_experiment(config: ExperimentConfig) -> VerifyReport:
    config.validate()
    mode, step = parse_oracle_checks(config.oracle_checks)
    if mode == "off":
        raise ValueError("verify requires oracle checks enabled (every or every=<j>)")
    session, teacher = build_session(config)
    learner = make_learner(config.learner, session)
    rounds: list[RoundVerdict] = []
    violations: list[str] = []
    for round_no in range(1, config.rounds + 1):
        try:
            learner.run_round()
        except TeacherExhausted:
            break
        except ProtocolViolation as exc:
            violations.append(f"round {round_no}: monitor violation: {exc}")
            break
        if round_no % step == 0:
            failures = _verify_round(learner, teacher.peek_ground_truth())
            rounds.append(
                RoundVerdict(round_no, passed=not failures, failures=tuple(failures))
            )
    return VerifyReport(config=config, rounds=rounds, violations=violations)


# -- sweep --------------------------------------------------------------------


@dataclass
class SweepReport:
    config: ExperimentConfig
    rows: list[tuple[str, RoundRow]]
    violations: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("learner," + CSV_HEADER + "\n")
        for learner_kind, row in self.rows:
            buf.write(f"{learner_kind},{row.as_csv()}\n")
        return buf.getvalue()


def sweep_experiment(config: ExperimentConfig, round_counts: list[int]) -> SweepReport:
    """Run both learners over shared seeds for each round count; one final
    row per (cell, learner), cells in the given order."""
    rows: list[tuple[str, RoundRow]] = []
    violations: list[str] = []
    for rounds in round_counts:
        for learner_kind in LEARNER_KINDS:
            cell = replace(config, learner=learner_kind, rounds=rounds)
            report = run_experiment(cell)
            if report.rows:
                rows.append((learner_kind, report.rows[-1]))
            violations.extend(
                f"n={rounds} {learner_kind}: {v}" for v in report.violations
            )
    return SweepReport(config=config, rows=rows, violations=violations)


# -- coupon-collector experiment -----------------------------------------------


def exact_coverage_expectation(probs: tuple[float, ...]) -> float:
    """Expected draws until every class has appeared at least once, by
    inclusion-exclusion over the per-class probabilities."""
    m = len(probs)
    if m > 20:
        raise ValueError("inclusion-exclusion limited to 20 classes")
    total = 0.0
    for size in range(1, m + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for subset in itertools.combinations(probs, size):
            total += sign / sum(subset)
    return total


def harmonic_number(m: int) -> float:
    return sum(1.0 / i for i in range(1, m + 1))


@dataclass(frozen=True)
class CouponSummary:
    m: int
    trials: int
    empirical_mean: float
    exact_mean: float
    uniform_closed_form: float | None

    def to_csv(self) -> str:
        closed = "" if self.uniform_closed_form is None else f"{self.uniform_closed_form:.6f}"
        return (
            "m,trials,empirical_mean,exact_mean,uniform_closed_form\n"
            f"{self.m},{self.trials},{self.empirical_mean:.6f},"
            f"{self.exact_mean:.6f},{closed}\n"
        )


def coupon_experiment(config: ExperimentConfig) -> CouponSummary:
    """Monte Carlo draws-until-coverage versus the exact expectation."""
    config.validate()
    schedule = parse_schedule(config.schedule)
    if not isinstance(schedule, (IidUniform, IidWeighted)):
        raise ValueError("coupon requires an IID schedule")
    m = config.m
    probs = schedule_probabilities(schedule, m)
    total_draws = 0
    for trial in range(config.trials):
        rng = SplitMix64(derive_seed(config.template_seed, 0xC0F0, trial))
        seen: set[int] = set()
        draws = 0
        for domain in domain_sequence(schedule, m, rng):
            draws += 1
            seen.add(domain)
            if len(seen) == m:
                break
        total_draws += draws
    empirical = total_draws / config.trials
    exact = exact_coverage_expectation(probs)
    closed = m * harmonic_number(m) if isinstance(schedule, IidUniform) else None
    return CouponSummary(
        m=m,
        trials=config.trials,
        empirical_mean=empirical,
        exact_mean=exact,
        uniform_closed_form=closed,
    )
