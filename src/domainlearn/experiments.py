"""Experiment harness: run learning sessions, compare ledgers against the
closed-form cost and error bounds, and emit deterministic CSV reports.

Bound columns are pure functions of (k, n, observed_m):

* ``bound_tireless``  = k * n^2            (exact tireless cost)
* ``bound_cons_cnq``  = k + (n-1)(m-1)     (conservative cost ceiling)
* ``bound_cons_err``  = k(2n+1)(m-1)       (conservative error ceiling)

A row extends the round's :class:`RoundSnapshot`, which the Session
records: its ``observed_m`` is the size of the summary whose clean test
closed the round, the revealed graph's class count by SC-1.  So no play
reads ground truth for its rows; only verify's checks do.  Every play
checks its rows against the bound that the learner's class states.
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .digraph import LabeledDigraph
from .learners import LEARNERS, Learner, make_learner
from .oracle import (
    ISOMORPHISM_VERTEX_LIMIT,
    ORACLE_VERTEX_LIMIT,
    check_round_invariants,
    isomorphic_small,
    oracle_partition,  # no caller here: bench/spans.py patches it here, KeyError without it
)
from .protocol import ProtocolViolation, RoundSnapshot, Session
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
        if self.learner not in LEARNERS:
            raise ValueError(f"unknown learner {self.learner!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # the generators keep 64 bits, so a seed outside would alias one inside
        if not 0 <= self.template_seed < 1 << 64:
            raise ValueError(f"template_seed must be in [0, 2**64), got {self.template_seed}")
        parse_oracle_checks(self.oracle_checks)  # its limits are verify's
        check_template_parameters(self.m, self.k, self.edge_density)
        self.revelation  # parses the schedule spec and keeps it

    @cached_property
    def revelation(self) -> RevelationSchedule:
        """The parsed ``schedule``; parsed once, when the config is made."""
        return parse_schedule(self.schedule, self.m)

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "ExperimentConfig":
        """Load a JSON object of config fields, ``overrides`` replacing the
        file's values before the merged config is checked; unknown fields,
        and a file that is not UTF-8 JSON, raise ``ValueError``."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from None
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


class RoundRow(NamedTuple):
    """A round's snapshot and its bound columns: one CSV row.  Its fields
    start with :class:`RoundSnapshot`'s, in order, so :func:`bound_row`
    extends a snapshot positionally."""

    n: int
    cnq_cum: int
    htq_cum: int
    errors_cum: int
    observed_m: int
    bound_tireless: int
    bound_cons_cnq: int
    bound_cons_err: int

    def as_csv(self) -> str:
        return ",".join(map(str, self))


CSV_HEADER = ",".join(RoundRow._fields)


def bound_row(k: int, snapshot: RoundSnapshot) -> RoundRow:
    n, m = snapshot.n, snapshot.observed_m
    return RoundRow(
        *snapshot, k * n * n, k + (n - 1) * (m - 1), k * (2 * n + 1) * (m - 1)
    )


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


def _play(config: ExperimentConfig, on_round) -> RunReport:
    """Play one monitored session of ``config``, calling
    ``on_round(round_no, session, teacher, learner)`` after each completed
    round.  Each completed round adds the bound row of the Session's
    snapshot, and a line for each bound of the learner's class that the row
    breaks; the play reads neither the learner's summary nor ground truth.
    The play stops after ``config.rounds`` rounds, when the schedule is
    exhausted, or at a monitor violation, whose line comes before the bound
    lines.  The config is valid, so only template generation can fail
    before round 1."""
    session, teacher = build_session(config)
    learner = make_learner(config.learner, session)
    report = RunReport()
    for round_no in range(1, config.rounds + 1):
        try:
            learner.run_round()
        except TeacherExhausted:
            report.exhausted_after = round_no - 1
            break
        except ProtocolViolation as exc:
            report.violations.insert(0, f"round {round_no}: monitor violation: {exc}")
            break
        row = bound_row(config.k, session.ledger.per_round[-1])
        report.rows.append(row)
        report.violations += learner.bound_violations(row)
        report.learner = learner
        on_round(round_no, session, teacher, learner)
    return report


def run_experiment(config: ExperimentConfig) -> RunReport:
    return _play(config, lambda *_: None)


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


def _verify_round(learner, ground_truth: LabeledDigraph) -> list[str]:
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


def verify_experiment(config: ExperimentConfig) -> VerifyReport:
    """Check every step-th round against ground truth, the only reading of
    it, ``off`` checking every round; checking none fails.  ``ValueError``
    before any round unless a check falls within the config's rounds and
    within the oracle's vertex limit."""
    step = parse_oracle_checks(config.oracle_checks) or 1
    if step > config.rounds:
        raise ValueError(f"oracle checks every {step} rounds check none of {config.rounds}")
    if (last_check := config.rounds - config.rounds % step) > ORACLE_VERTEX_LIMIT:
        raise ValueError(
            f"oracle checks are limited to {ORACLE_VERTEX_LIMIT} vertices, but the last check "
            f"would run at round {last_check}; use a larger every=<j> or fewer rounds"
        )
    rounds: list[RoundVerdict] = []

    def check(round_no, session, teacher, learner) -> None:
        if round_no % step == 0:
            failures = _verify_round(learner, teacher.peek_ground_truth())
            rounds.append(RoundVerdict(round_no, tuple(failures)))

    play = _play(config, check)
    if not rounds:
        play.violations.append("no round was checked")
    return VerifyReport(play.violations, play.exhausted_after, rounds=rounds)


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


def sweep_experiment(config: ExperimentConfig, round_counts: list[int]) -> SweepReport:
    """Play each learner once, for the largest count, and read each count's
    row from that play: counts in the given order, learners inner, none
    from a play with no completed round.  Only the play's loop bound reads
    ``rounds``, so round n of any longer play is round n of an n-round play.
    ``ValueError`` before any play for a count below 1."""
    if min(round_counts) < 1:
        raise ValueError("rounds must be >= 1")
    last = max(round_counts)
    plays = {kind: run_experiment(replace(config, learner=kind, rounds=last)) for kind in LEARNERS}
    sweep = SweepReport()
    for kind, play in plays.items():
        sweep.violations.extend(f"n={last} {kind}: {v}" for v in play.violations)
        if play.exhausted_after is not None:
            sweep.exhausted_after = play.exhausted_after
    sweep.rows = [
        (kind, play.rows[:n][-1]) for n in round_counts for kind, play in plays.items() if play.rows
    ]
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


def coupon_experiment(config: ExperimentConfig) -> CouponSummary:
    """Monte Carlo draws-until-coverage versus the exact expectation.
    ``ValueError`` before any trial unless the schedule is IID, its domains
    few enough for the exact expectation and that expectation at most
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
