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
from functools import cached_property
from pathlib import Path

from .digraph import LabeledDigraph
from .learners import LEARNER_KINDS, Learner, make_learner
from .oracle import (
    ISOMORPHISM_VERTEX_LIMIT,
    ORACLE_VERTEX_LIMIT,
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
    RevelationSchedule,
    SyntheticTeacher,
    TeacherExhausted,
    TemplateInstances,
    check_template_parameters,
    generate_template,
    parse_number,
    parse_schedule,
)

CSV_HEADER = "n,cnq_cum,htq_cum,errors_cum,observed_m,bound_tireless,bound_cons_cnq,bound_cons_err"

# salt for deriving the teacher's draw stream from the template seed
_DRAW_STREAM = 0x1D5A7


# JSON value types accepted per annotation of an ExperimentConfig field
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "str | None": (str, type(None))}


@dataclass(frozen=True)
class ExperimentConfig:
    """Config for one experiment; JSON file fields and CLI flags are 1:1.
    It is checked when made, by ``replace`` too, and ``ValueError`` rejects
    an invalid one: an int field takes an integer, ``edge_density`` any
    number, and no field a boolean."""

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

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[f.type]):
                raise ValueError(f"config field {f.name!r} has the wrong type: {value!r}")
        if self.learner not in LEARNER_KINDS:
            raise ValueError(f"unknown learner {self.learner!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # the generators keep 64 bits, so a seed outside would alias one inside
        if not 0 <= self.template_seed < 1 << 64:
            raise ValueError(f"template_seed must be in [0, 2**64), got {self.template_seed}")
        step = parse_oracle_checks(self.oracle_checks)
        last_check = self.rounds - self.rounds % step if step else 0
        if last_check > ORACLE_VERTEX_LIMIT:
            raise ValueError(
                f"oracle checks are limited to {ORACLE_VERTEX_LIMIT} vertices, "
                f"but the last check would run at round {last_check}; "
                "use a larger every=<j> or fewer rounds"
            )
        check_template_parameters(self.m, self.k, self.edge_density)
        self.revelation  # parses the schedule spec and keeps it

    @cached_property
    def revelation(self) -> RevelationSchedule:
        """The parsed ``schedule``; parsed once, when the config is made."""
        return parse_schedule(self.schedule, self.m)

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "ExperimentConfig":
        """Load a JSON object of config fields, ``overrides`` replacing the
        file's values before the merged config is checked; unknown fields
        raise ``ValueError``."""
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"config {path} must hold a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields {sorted(unknown)}")
        return cls(**{**data, **overrides})


def parse_oracle_checks(spec: str) -> int:
    """Parse an oracle-checks spec into its check interval, 0 for off:
    ``off`` -> 0, ``every`` -> 1, ``every=<j>`` -> j."""
    if spec == "off":
        return 0
    if spec == "every":
        return 1
    if spec.startswith("every="):
        step = parse_number(f"oracle_checks spec {spec!r}", spec.removeprefix("every="), int)
        if step < 1:
            raise ValueError("oracle check interval must be >= 1")
        return step
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
class Outcome:
    """How a play ended: its violation lines, and the rounds played when
    the schedule ran out first (else None).  Running out is no failure."""

    violations: list[str] = field(default_factory=list)
    exhausted_after: int | None = None

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0


@dataclass
class RunReport(Outcome):
    rows: list[RoundRow] = field(default_factory=list)
    # the learner after its last completed round, None before the first
    learner: Learner | None = None

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for row in self.rows:
            buf.write(row.as_csv() + "\n")
        return buf.getvalue()


def build_session(config: ExperimentConfig) -> tuple[Session, SyntheticTeacher]:
    template = generate_template(config.template_seed, config.m, config.k, config.edge_density)
    schedule = config.revelation
    seed = derive_seed(config.template_seed, _DRAW_STREAM)
    teacher = SyntheticTeacher(TemplateInstances(template, schedule, seed))
    return Session(teacher), teacher


def _play(config: ExperimentConfig, on_round) -> Outcome:
    """Play one monitored session of ``config``, calling
    ``on_round(round_no, session, teacher, learner)`` after each completed
    round.  The play stops after ``config.rounds`` rounds, when the schedule
    is exhausted, or at a monitor violation, whose single line is the
    outcome's only violation.  The config is valid, so only template
    generation can fail before round 1."""
    session, teacher = build_session(config)
    learner = make_learner(config.learner, session)
    for round_no in range(1, config.rounds + 1):
        try:
            learner.run_round()
        except TeacherExhausted:
            return Outcome(exhausted_after=round_no - 1)
        except ProtocolViolation as exc:
            return Outcome([f"round {round_no}: monitor violation: {exc}"])
        on_round(round_no, session, teacher, learner)
    return Outcome()


def run_experiment(config: ExperimentConfig) -> RunReport:
    step = parse_oracle_checks(config.oracle_checks)
    report = RunReport()

    def record(round_no, session, teacher, learner) -> None:
        if step and round_no % step == 0:
            observed_m = len(oracle_partition(teacher.peek_ground_truth()))
        else:
            observed_m = learner.summary.vertex_count
        report.rows.append(bound_row(config.k, session.ledger.per_round[-1], observed_m))
        report.learner = learner

    outcome = _play(config, record)
    report.violations = outcome.violations + _bound_violations(config.learner, report.rows)
    report.exhausted_after = outcome.exhausted_after
    return report


# -- verify mode --------------------------------------------------------------


@dataclass(frozen=True)
class RoundVerdict:
    round_no: int
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class VerifyReport(Outcome):
    rounds: list[RoundVerdict] = field(default_factory=list)  # the checked rounds only

    @property
    def all_passed(self) -> bool:
        return not self.violations and all(r.passed for r in self.rounds)

    @property
    def exit_code(self) -> int:
        # a failed check is no violation line
        return 0 if self.all_passed else 1


def _verify_round(
    learner, ground_truth: LabeledDigraph
) -> list[str]:
    failures: list[str] = []
    reconstruction = learner.reconstruction
    if reconstruction is not None and reconstruction != ground_truth:
        failures.append("reconstruction differs from the revealed subgraph")
    summary = learner.summary
    failed = check_round_invariants(
        ground_truth, summary, learner.assignment, learner.tree
    )
    failures.extend(f"{name}: {detail}" for name, detail in failed.items())
    reference, _ = summarize(ground_truth)
    if reference.vertex_count <= ISOMORPHISM_VERTEX_LIMIT:
        if not isomorphic_small(reference, summary):
            failures.append("summary not isomorphic to the reference summary")
    return failures


def verify_step(config: ExperimentConfig) -> int:
    """The oracle check interval of a verify config; ``ValueError`` unless
    the oracle is on and checks at least one of the config's rounds."""
    step = parse_oracle_checks(config.oracle_checks)
    if not step:
        raise ValueError("verify requires oracle checks enabled (every or every=<j>)")
    if step > config.rounds:
        raise ValueError(f"oracle checks every {step} rounds check none of {config.rounds}")
    return step


def verify_experiment(config: ExperimentConfig) -> VerifyReport:
    """Check every step-th round against ground truth; checking none fails."""
    step = verify_step(config)
    rounds: list[RoundVerdict] = []

    def check(round_no, session, teacher, learner) -> None:
        if round_no % step == 0:
            failures = _verify_round(learner, teacher.peek_ground_truth())
            rounds.append(RoundVerdict(round_no, tuple(failures)))

    outcome = _play(config, check)
    if not rounds:
        outcome.violations.append("no round was checked")
    return VerifyReport(rounds=rounds, **vars(outcome))


# -- sweep --------------------------------------------------------------------


@dataclass
class SweepReport(Outcome):
    rows: list[tuple[str, RoundRow]] = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("learner," + CSV_HEADER + "\n")
        for learner_kind, row in self.rows:
            buf.write(f"{learner_kind},{row.as_csv()}\n")
        return buf.getvalue()


def sweep_experiment(cells: list[ExperimentConfig]) -> SweepReport:
    """Run both learners on each cell, the configs of the round counts,
    made before any is played; one final row per (cell, learner), cells in
    the given order.  Every learner is revealed the same vertices, so every
    cell whose schedule runs out stops after the same round."""
    sweep = SweepReport()
    for cell in cells:
        for learner_kind in LEARNER_KINDS:
            report = run_experiment(replace(cell, learner=learner_kind))
            if report.rows:
                sweep.rows.append((learner_kind, report.rows[-1]))
            sweep.violations.extend(
                f"n={cell.rounds} {learner_kind}: {v}" for v in report.violations
            )
            if report.exhausted_after is not None:
                sweep.exhausted_after = report.exhausted_after
    return sweep


# -- coupon-collector experiment -----------------------------------------------


EXACT_COVERAGE_LIMIT = 20
# the most draws to coverage a coupon trial may expect to take
MAX_EXPECTED_DRAWS = 10**6


def exact_coverage_expectation(probs: tuple[float, ...]) -> float:
    """Expected draws until every class has appeared at least once, by
    inclusion-exclusion over the per-class probabilities."""
    m = len(probs)
    if m > EXACT_COVERAGE_LIMIT:
        raise ValueError(f"inclusion-exclusion limited to {EXACT_COVERAGE_LIMIT} classes")
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


def coupon_schedule(config: ExperimentConfig) -> tuple[RevelationSchedule, float]:
    """The schedule of a coupon config and its exact expected draws to
    coverage; ``ValueError`` unless its schedule is IID, its domains few
    enough for the exact expectation and that expectation at most
    ``MAX_EXPECTED_DRAWS``, so every trial ends."""
    schedule = config.revelation
    if not isinstance(schedule, (IidUniform, IidWeighted)):
        raise ValueError("coupon requires an IID schedule")
    exact = exact_coverage_expectation(schedule.probs)
    # NaN (inf - inf from two underflowing weights) fails the test too
    if not exact <= MAX_EXPECTED_DRAWS:
        raise ValueError(
            f"expected draws to coverage {exact:.6g} are not at most "
            f"{MAX_EXPECTED_DRAWS}, the most a coupon trial may take"
        )
    return schedule, exact


def coupon_experiment(
    config: ExperimentConfig, planned: tuple[RevelationSchedule, float]
) -> CouponSummary:
    """Monte Carlo draws-until-coverage versus the exact expectation;
    ``planned`` is ``coupon_schedule(config)``."""
    schedule, exact = planned
    m = config.m
    total_draws = 0
    for trial in range(config.trials):
        rng = SplitMix64(derive_seed(config.template_seed, 0xC0F0, trial))
        seen: set[int] = set()
        draws = 0
        for domain in schedule.draws(rng):
            draws += 1
            seen.add(domain)
            if len(seen) == m:
                break
        total_draws += draws
    empirical = total_draws / config.trials
    closed = m * harmonic_number(m) if isinstance(schedule, IidUniform) else None
    return CouponSummary(
        m=m,
        trials=config.trials,
        empirical_mean=empirical,
        exact_mean=exact,
        uniform_closed_form=closed,
    )
