"""Experiment harness and CLI: CSV contracts, bound columns, determinism,
coupon-collector statistics, and subcommand plumbing."""

from __future__ import annotations

import hashlib
import json
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domainlearn import cli, experiments
from domainlearn.cli import main
from domainlearn.digraph import LabeledDigraph
from domainlearn.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    RoundRow,
    bound_row,
    build_session,
    coupon_experiment,
    exact_coverage_expectation,
    harmonic_number,
    parse_oracle_checks,
    run_experiment,
    sweep_experiment,
    verify_experiment,
)
from domainlearn.learners import LEARNERS, ConservativeLearner, TirelessLearner
from domainlearn.oracle import ISOMORPHISM_VERTEX_LIMIT
from domainlearn.protocol import ProtocolViolation, RoundSnapshot
from domainlearn.teacher import SyntheticTeacher, generate_template, template_to_text


class TestConfig:
    def test_defaults_valid(self):
        ExperimentConfig()

    def test_rejects_unknown_learner(self):
        with pytest.raises(ValueError):
            ExperimentConfig(learner="psychic")

    def test_oracle_spec_parsing(self):
        assert parse_oracle_checks("off") == 0
        assert parse_oracle_checks("every") == 1
        assert parse_oracle_checks("every=8") == 8
        with pytest.raises(ValueError):
            parse_oracle_checks("sometimes")

    @pytest.mark.parametrize("seed,alias", [(-1, 2**64 - 1), (2**64, 0)])
    def test_a_seed_outside_64_bits_is_rejected(self, seed, alias):
        # the generators reduce a seed mod 2**64, so it would play as its alias
        ExperimentConfig(template_seed=alias)
        with pytest.raises(ValueError) as raised:
            ExperimentConfig(template_seed=seed)
        assert str(raised.value) == f"template_seed must be in [0, 2**64), got {seed}"

    def test_a_config_cannot_be_changed(self):
        config = ExperimentConfig()
        with pytest.raises(FrozenInstanceError):
            config.rounds = 0

    def test_replace_checks_the_new_config(self):
        with pytest.raises(ValueError, match="^rounds must be >= 1$"):
            replace(ExperimentConfig(), rounds=0)

    def test_the_schedule_spec_is_parsed_once_per_config(self, monkeypatch):
        config = ExperimentConfig(m=3, schedule="iid-uniform")

        def parse_again(*args):
            raise AssertionError("the schedule spec was parsed again")

        monkeypatch.setattr(experiments, "parse_schedule", parse_again)
        _, teacher = build_session(config)
        assert teacher.next_vertex() == 0
        assert coupon_experiment(config).exact_mean == pytest.approx(3 * harmonic_number(3))

    def test_a_field_of_the_wrong_type_is_named(self):
        # the message a JSON config file gets (test_config_field_of_the_wrong_type_exits_2)
        with pytest.raises(ValueError) as raised:
            ExperimentConfig(k="2")
        assert str(raised.value) == "config field 'k' has the wrong type: '2'"

    def test_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learner": "tireless", "k": 2, "rounds": 5}))
        config = ExperimentConfig.from_file(path, rounds=9)
        assert config.learner == "tireless"
        assert config.k == 2
        assert config.rounds == 9

    def test_from_file_takes_an_integer_density(self, tmp_path):
        path = tmp_path / "config.json"
        # density 1 makes every domain alike, so only m=1 can take it
        path.write_text(json.dumps({"edge_density": 1, "m": 1, "out": None}))
        assert ExperimentConfig.from_file(path).edge_density == 1

    def test_from_file_rejects_unknown_fields(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learner": "tireless", "speed": 11}))
        with pytest.raises(ValueError, match="speed"):
            ExperimentConfig.from_file(path)


class TestRun:
    def test_tireless_rows_exact(self):
        config = ExperimentConfig(
            learner="tireless", k=1, m=2, template_seed=5, rounds=3
        )
        report = run_experiment(config)
        assert not report.violations
        assert [row.cnq_cum for row in report.rows] == [1, 4, 9]
        assert all(row.cnq_cum == row.bound_tireless for row in report.rows)
        assert all(row.errors_cum == 0 for row in report.rows)

    def test_conservative_rows_within_bounds(self):
        config = ExperimentConfig(
            learner="conservative", k=2, m=3, template_seed=9, rounds=12
        )
        report = run_experiment(config)
        assert not report.violations
        for row in report.rows:
            assert row.cnq_cum <= row.bound_cons_cnq
            assert row.errors_cum <= row.bound_cons_err

    def test_csv_header_contract(self):
        config = ExperimentConfig(learner="tireless", rounds=1)
        csv = run_experiment(config).to_csv()
        assert csv.splitlines()[0] == CSV_HEADER
        assert (
            CSV_HEADER
            == "n,cnq_cum,htq_cum,errors_cum,observed_m,bound_tireless,bound_cons_cnq,bound_cons_err"
        )

    def test_oracle_mode_observed_m(self):
        base = dict(learner="conservative", k=1, m=3, template_seed=3, rounds=10)
        measured = run_experiment(ExperimentConfig(**base))
        oracled = run_experiment(ExperimentConfig(**base, oracle_checks="every"))
        # conservative |V(H)| equals the true class count, so both agree
        assert [r.observed_m for r in measured.rows] == [
            r.observed_m for r in oracled.rows
        ]

    def test_scripted_exhaustion_stops_cleanly(self):
        config = ExperimentConfig(
            learner="tireless", k=1, m=2, schedule="scripted:0,1", rounds=10
        )
        report = run_experiment(config)
        assert len(report.rows) == 2

    def test_deterministic_rows(self):
        config = ExperimentConfig(learner="conservative", k=2, m=4, rounds=15)
        assert run_experiment(config).to_csv() == run_experiment(config).to_csv()

    def test_violation_detector(self):
        row = RoundRow(
            n=2,
            cnq_cum=5,
            htq_cum=2,
            errors_cum=1,
            observed_m=2,
            bound_tireless=4,
            bound_cons_cnq=2,
            bound_cons_err=10,
        )
        assert any("tireless" in v for v in TirelessLearner.bound_violations(row))
        assert any("conservative" in v for v in ConservativeLearner.bound_violations(row))
        clean = RoundRow(2, 4, 2, 0, 2, 4, 4, 10)
        assert TirelessLearner.bound_violations(clean) == []


class TestBoundRow:
    """A row is built positionally from the Session's snapshot, so its
    fields must start with the snapshot's, in the same order."""

    def test_row_fields_extend_the_snapshot_fields(self):
        assert RoundRow._fields[: len(RoundSnapshot._fields)] == RoundSnapshot._fields
        assert RoundRow._fields[len(RoundSnapshot._fields) :] == (
            "bound_tireless", "bound_cons_cnq", "bound_cons_err",
        )

    @pytest.mark.parametrize("k,n,m", [(1, 1, 1), (2, 5, 3), (3, 40, 8), (2, 500, 16)])
    def test_bound_columns(self, k, n, m):
        snapshot = RoundSnapshot(n=n, cnq_cum=7, htq_cum=9, errors_cum=11, observed_m=m)
        row = bound_row(k, snapshot)
        assert row[: len(snapshot)] == snapshot
        assert (row.n, row.cnq_cum, row.htq_cum, row.errors_cum, row.observed_m) == (n, 7, 9, 11, m)
        assert row.bound_tireless == k * n**2
        assert row.bound_cons_cnq == k + (n - 1) * (m - 1)
        assert row.bound_cons_err == k * (2 * n + 1) * (m - 1)

    def test_as_csv_joins_the_fields_in_header_order(self):
        row = bound_row(2, RoundSnapshot(n=3, cnq_cum=4, htq_cum=5, errors_cum=6, observed_m=2))
        assert row.as_csv() == ",".join(
            str(getattr(row, column)) for column in CSV_HEADER.split(",")
        )
        assert row.as_csv() == "3,4,5,6,2,18,4,14"

    def test_a_row_cannot_be_changed(self):
        row = RoundRow(2, 4, 2, 0, 2, 4, 4, 10)
        with pytest.raises(AttributeError):
            row.cnq_cum = 0


class TestVerify:
    def test_conservative_all_pass(self):
        config = ExperimentConfig(
            learner="conservative", k=2, m=3, template_seed=11, rounds=8,
            oracle_checks="every",
        )
        report = verify_experiment(config)
        assert report.all_passed
        assert len(report.rounds) == 8
        assert report.exit_code == 0

    def test_tireless_all_pass(self):
        config = ExperimentConfig(
            learner="tireless", k=2, m=3, template_seed=12, rounds=8,
            oracle_checks="every",
        )
        assert verify_experiment(config).all_passed

    def test_off_checks_every_round(self):
        config = ExperimentConfig(learner="conservative", k=1, m=2, rounds=3)
        assert config.oracle_checks == "off"
        report = verify_experiment(config)
        assert [r.round_no for r in report.rounds] == [1, 2, 3]
        assert report.all_passed

    def test_per_round_oracle_round_guard(self, monkeypatch):
        # the oracle's limit is verify's, checked before any round
        monkeypatch.setattr(experiments, "_play", _must_not_run)
        # every=4 over 300 rounds would check the oracle at round 300
        for oracle_checks in ("off", "every", "every=4"):
            with pytest.raises(ValueError, match="256"):
                verify_experiment(ExperimentConfig(oracle_checks=oracle_checks, rounds=300))
        # ... while over 259 rounds its last check is at round 256
        for oracle_checks, rounds in (("every=4", 259), ("every", 256)):
            with pytest.raises(AssertionError, match="no round may be played"):
                verify_experiment(ExperimentConfig(oracle_checks=oracle_checks, rounds=rounds))

    def test_interval_checking(self):
        config = ExperimentConfig(
            learner="conservative", k=1, m=2, rounds=9, oracle_checks="every=3"
        )
        report = verify_experiment(config)
        assert [r.round_no for r in report.rounds] == [3, 6, 9]


class Overspends(TirelessLearner):
    """Fault injection: asks one connection query more after each round,
    past the tireless learner's exact k*n^2."""

    def run_round(self):
        super().run_round()
        self._session.connection(0, 0, 0)


class TestBoundViolation:
    """Every play checks the bound that the learner's class states."""

    ARGS = ["--learner", "tireless", "--k", "1", "--m", "2", "--rounds", "4"]
    LINE = "round 2: tireless cnq_cum 5 != 4"

    @pytest.fixture(autouse=True)
    def overspending_learner(self, monkeypatch):
        monkeypatch.setattr(experiments, "make_learner", lambda kind, session: Overspends(session))

    def test_verify_fails_a_broken_bound(self, capsys):
        assert main(["verify", *self.ARGS]) == 1
        captured = capsys.readouterr()
        assert f"violation: {self.LINE}" in captured.err.splitlines()
        assert captured.out.splitlines()[-1] == "verify: FAILED"

    @pytest.mark.parametrize(
        "command", [["run"], ["sweep"], ["dump", "--what", "policy"]], ids=["run", "sweep", "dump"]
    )
    def test_every_play_command_reports_it(self, command, capsys):
        assert main([*command, *self.ARGS]) == 1
        prefix = "n=4 tireless: " if command == ["sweep"] else ""
        assert f"violation: {prefix}{self.LINE}" in capsys.readouterr().err.splitlines()

    def test_a_sweep_reports_each_play_once(self, capsys):
        # one play per learner, of the largest count: the n=2 rows are read
        # from it, and its lines are not repeated for n=2
        assert main(["sweep", "--k", "1", "--m", "2", "--rounds", "2,4"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"violation: n=4 {kind}: round {n}: tireless cnq_cum {n * n + n - 1} != {n * n}"
            for kind in LEARNERS
            for n in (2, 3, 4)
        ]


class HidesItsCost(ConservativeLearner):
    """Fault injection: after each round asks 30 connection queries more,
    then shows a 40-vertex edgeless summary, whose m would lift the
    conservative bounds over that cost; the tested summary is back before
    its next round."""

    tested = None

    def run_round(self):
        if self.tested is not None:
            self.summary = self.tested
        super().run_round()
        for _ in range(30):
            self._session.connection(0, 0, 0)
        self.tested = self.summary
        self.summary = LabeledDigraph(self._session.k, range(40))


@pytest.mark.parametrize(
    "command", [["run"], ["dump", "--what", "policy"]], ids=["run", "dump"]
)
def test_a_shown_summary_cannot_hide_the_cost(command, monkeypatch, capsys):
    # a row's m is the Session's record of the tested summary, not the
    # summary the learner shows after its round
    monkeypatch.setattr(experiments, "make_learner", lambda kind, session: HidesItsCost(session))
    assert main([*command, "--k", "1", "--m", "2", "--seed", "3", "--rounds", "4"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "violation: round 2: conservative cnq_cum 31 > 2",
        "violation: round 3: conservative cnq_cum 62 > 3",
        "violation: round 4: conservative cnq_cum 93 > 4",
    ]


class ReducibleAfterFirstRound(ConservativeLearner):
    """Fault injection: from round 2 on, submits an edgeless two-domain
    summary, which SC-1 rejects as reducible."""

    def _later_round(self):
        u = self._session.next_vertex()
        reducible = LabeledDigraph(self._session.k, [self.tree.label, u])
        self._session.hypothesis_test(reducible, {**self.assignment, u: u})


class TestMonitorViolation:
    VIOLATION = "round 2: monitor violation: submitted summary is reducible"

    @pytest.fixture(autouse=True)
    def faulty_learner(self, monkeypatch):
        monkeypatch.setattr(
            experiments, "make_learner", lambda kind, session: ReducibleAfterFirstRound(session)
        )

    def test_run_stops_at_the_violation(self):
        report = run_experiment(ExperimentConfig(k=1, m=2, rounds=5))
        assert report.violations == [self.VIOLATION]
        assert [row.n for row in report.rows] == [1]
        assert report.exit_code == 1

    def test_verify_stops_at_the_violation(self):
        report = verify_experiment(ExperimentConfig(k=1, m=2, rounds=5, oracle_checks="every"))
        assert report.violations == [self.VIOLATION]
        assert [verdict.round_no for verdict in report.rounds] == [1]
        assert report.exit_code == 1

    def test_dump_reports_the_round(self, capsys):
        assert main(["dump", "--what", "policy", "--k", "1", "--m", "2", "--rounds", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"violation: {self.VIOLATION}\n"

    def test_dump_leaves_out_untouched(self, tmp_path, capsys):
        # the dump renders nothing, so an earlier file is no output of it
        kept, absent = tmp_path / "kept.txt", tmp_path / "absent.txt"
        kept.write_text("earlier output\n")
        for out in (kept, absent):
            argv = ["dump", "--what", "policy", "--k", "1", "--m", "2", "--rounds", "5"]
            assert main([*argv, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"violation: {self.VIOLATION}\n"
        assert kept.read_text() == "earlier output\n"
        assert not absent.exists()

    def test_run_still_writes_its_csv_to_out(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert main(["run", "--k", "1", "--m", "2", "--rounds", "5", "--out", str(out)]) == 1
        assert out.read_text().splitlines() == [CSV_HEADER, "1,1,1,0,1,1,1,0"]
        assert capsys.readouterr().err == f"violation: {self.VIOLATION}\n"


@st.composite
def sweep_configs(draw) -> tuple[ExperimentConfig, list[int]]:
    """A small world, a schedule that may end before the largest count (a
    short script or ``novel-last``) and 1 to 4 round counts."""
    m = draw(st.integers(1, 4))
    schedule = draw(st.sampled_from(["iid-uniform", "novel-last", "scripted"]))
    if schedule == "novel-last":
        schedule += f":{draw(st.integers(1, 4))}"
    elif schedule == "scripted":
        script = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6))
        schedule += ":" + ",".join(map(str, script))
    config = ExperimentConfig(
        k=draw(st.integers(1, 2)), m=m, template_seed=draw(st.integers(0, 2**16)),
        schedule=schedule,
    )
    return config, draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))


class TestSweep:
    @given(sweep_configs())
    @settings(max_examples=60)
    def test_each_count_reads_the_row_of_its_own_play(self, drawn):
        # round n of the longest play is the last round of an n-round play,
        # exhausted scripts included
        config, round_counts = drawn
        expected = []
        for n in round_counts:
            for kind in LEARNERS:
                rows = run_experiment(replace(config, learner=kind, rounds=n)).rows
                expected += [(kind, rows[-1])] if rows else []
        assert sweep_experiment(config, round_counts).rows == expected

    def test_plays_each_learner_once(self, monkeypatch):
        plays = []

        def counting(config):
            plays.append((config.learner, config.rounds))
            return run_experiment(config)

        monkeypatch.setattr(experiments, "run_experiment", counting)
        report = sweep_experiment(ExperimentConfig(k=1, m=2), [3, 7, 5])
        assert plays == [(kind, 7) for kind in LEARNERS]
        assert [row.n for _, row in report.rows] == [3, 3, 7, 7, 5, 5]

    def test_a_count_below_1_is_refused_before_any_play(self, monkeypatch):
        monkeypatch.setattr(experiments, "run_experiment", _must_not_run)
        with pytest.raises(ValueError, match="^rounds must be >= 1$"):
            sweep_experiment(ExperimentConfig(), [10, 0])

    def test_learner_column_and_cell_order(self):
        config = ExperimentConfig(k=1, m=2, template_seed=4)
        report = sweep_experiment(config, [4, 8])
        assert [kind for kind, _ in report.rows] == [
            "tireless",
            "conservative",
            "tireless",
            "conservative",
        ]
        assert report.to_csv().splitlines()[0] == "learner," + CSV_HEADER

    def test_single_round_both_learners_cost_k(self):
        config = ExperimentConfig(k=3, m=2, template_seed=6)
        report = sweep_experiment(config, [1])
        assert all(row.cnq_cum == 3 for _, row in report.rows)

    def test_growth_contrast(self):
        # tireless quadruples per doubling of n; conservative roughly doubles
        config = ExperimentConfig(k=2, m=4, template_seed=13)
        report = sweep_experiment(config, [10, 20, 40, 80])
        tireless = [row for kind, row in report.rows if kind == "tireless"]
        conservative = [row for kind, row in report.rows if kind == "conservative"]
        for prev, cur in zip(tireless, tireless[1:]):
            assert cur.cnq_cum == 4 * prev.cnq_cum
        for prev, cur in zip(conservative, conservative[1:]):
            # linear cost: doubling n roughly doubles the count
            # (exactly 2 + 1/(n-1) growth of the k + (n-1)(m-1) bound)
            assert cur.cnq_cum <= 2 * prev.cnq_cum + (cur.observed_m - 1) + config.k

    def test_deterministic_csv(self):
        config = ExperimentConfig(k=2, m=3, template_seed=21)
        first = sweep_experiment(config, [5, 10]).to_csv()
        second = sweep_experiment(config, [5, 10]).to_csv()
        assert first == second


class TestCoupon:
    def test_exact_uniform_three(self):
        assert exact_coverage_expectation((1 / 3, 1 / 3, 1 / 3)) == pytest.approx(5.5)

    def test_exact_matches_harmonic_form(self):
        for m in (1, 2, 5, 8):
            uniform = tuple(1.0 / m for _ in range(m))
            assert exact_coverage_expectation(uniform) == pytest.approx(
                m * harmonic_number(m)
            )

    def test_single_domain_no_variance(self):
        config = ExperimentConfig(m=1, k=1, trials=50, schedule="iid-uniform")
        summary = coupon_experiment(config)
        assert summary.empirical_mean == 1.0
        assert summary.exact_mean == pytest.approx(1.0)

    def test_weighted_formula(self):
        expected = (2 + 1 / 0.3 + 5) - (1 / 0.8 + 1 / 0.7 + 1 / 0.5) + 1.0
        assert exact_coverage_expectation((0.5, 0.3, 0.2)) == pytest.approx(expected)

    def test_simulation_tracks_exact_value(self):
        config = ExperimentConfig(
            m=3, k=1, trials=4000, schedule="iid-weighted:0.5,0.3,0.2",
            template_seed=2,
        )
        summary = coupon_experiment(config)
        assert summary.uniform_closed_form is None
        assert abs(summary.empirical_mean - summary.exact_mean) / summary.exact_mean < 0.05

    def test_requires_iid_schedule(self):
        config = ExperimentConfig(m=2, schedule="scripted:0,1")
        with pytest.raises(ValueError, match="IID"):
            coupon_experiment(config)

    def test_too_many_classes_rejected_before_any_trial(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran before the m > 20 check")

        # each trial seeds its own draw stream first
        monkeypatch.setattr(experiments, "SplitMix64", no_trials)
        config = ExperimentConfig(m=21, trials=20_000, schedule="iid-uniform")
        with pytest.raises(ValueError, match="20 classes"):
            coupon_experiment(config)

    @pytest.mark.parametrize("m,schedule", [
        (2, "iid-weighted:1e-300,1"),
        # two underflowing weights make the inclusion-exclusion sum NaN
        (3, "iid-weighted:1e-320,1e-320,1"),
    ])
    def test_unending_schedule_rejected_before_any_trial(self, m, schedule, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran before the expected-draws check")

        monkeypatch.setattr(experiments, "SplitMix64", no_trials)
        config = ExperimentConfig(m=m, trials=1, schedule=schedule)
        with pytest.raises(ValueError, match="not at most 1000000"):
            coupon_experiment(config)


def _must_not_run(*args, **kwargs):
    raise AssertionError("no round may be played")


def _violate(*args, **kwargs):
    raise ProtocolViolation("injected")


# each command that writes --out, and the experiment function it plays: a
# name in cli, or experiments' _play, which dump reaches through run_experiment
_EXPERIMENT_OF_COMMAND = [
    (["run"], "run_experiment"),
    (["sweep"], "sweep_experiment"),
    (["verify"], "verify_experiment"),
    (["coupon"], "coupon_experiment"),
    (["dump", "--what", "policy"], "_play"),
]


def _refuse(monkeypatch, experiment: str) -> None:
    """Make the experiment function named in ``_EXPERIMENT_OF_COMMAND`` raise."""
    monkeypatch.setattr(experiments if experiment == "_play" else cli, experiment, _must_not_run)


class TestCli:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(
            ["run", "--learner", "tireless", "--k", "1", "--m", "2",
             "--seed", "5", "--rounds", "3", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1:] == ["1,1,1,0,1,1,1,0", "2,4,2,0,2,4,2,5", "3,9,3,0,2,9,3,7"]

    def test_out_replaces_an_earlier_file(self, tmp_path, capsys):
        args = ["run", "--k", "2", "--m", "3", "--seed", "8", "--rounds", "4"]
        out = tmp_path / "run.csv"
        out.write_text("earlier output, longer than the CSV\n" * 50)
        assert main(args + ["--out", str(out)]) == 0
        assert main(args) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_run_repeated_byte_identical(self, tmp_path):
        args = ["run", "--learner", "conservative", "--k", "2", "--m", "3",
                "--seed", "8", "--rounds", "10"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"learner": "tireless", "k": 1, "m": 2, "rounds": 2,
                        "template_seed": 5})
        )
        assert main(["run", "--config", str(config), "--rounds", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("3,9,")

    @pytest.mark.parametrize("stored,flags,rounds", [
        # a file value that a flag replaces is never checked on its own
        ({"rounds": 0}, ["--rounds", "5"], 5),
        ({"m": 3, "schedule": "iid-weighted:0.5,0.5"}, ["--m", "2"], 10),
    ])
    def test_config_file_value_a_flag_replaces_is_not_checked(
        self, stored, flags, rounds, tmp_path, capsys
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(stored))
        assert main(["run", "--config", str(config), *flags]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(captured.out.splitlines()) == 1 + rounds

    def test_verify_subcommand(self, capsys):
        code = main(
            ["verify", "--learner", "conservative", "--k", "2", "--m", "3",
             "--seed", "11", "--rounds", "5"]
        )
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_sweep_subcommand(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--k", "1", "--m", "2", "--seed", "4",
             "--rounds", "4,8", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "learner," + CSV_HEADER

    def test_coupon_subcommand(self, capsys):
        code = main(
            ["coupon", "--m", "3", "--trials", "500", "--schedule", "iid-uniform"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "exact expectation (inclusion-exclusion): 5.500000" in output

    def test_coupon_csv_output(self, tmp_path, capsys):
        out = tmp_path / "coupon.csv"
        code = main(
            ["coupon", "--m", "3", "--trials", "400", "--schedule",
             "iid-weighted:0.5,0.3,0.2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,trials,empirical_mean,exact_mean,uniform_closed_form"
        fields = lines[1].split(",")
        assert fields[0] == "3" and fields[1] == "400"
        assert fields[4] == ""  # weighted schedule: no uniform closed form

    def test_dump_template_round_trips(self, tmp_path, capsys):
        code = main(["dump", "--what", "template", "--k", "2", "--m", "3",
                     "--seed", "7"])
        assert code == 0
        template = generate_template(seed=7, m=3, k=2, edge_density=0.5)
        output = capsys.readouterr().out
        assert output == template_to_text(template)
        assert output.splitlines() == ["domains m=3", "digraph k=2 n=3"] + [
            f"{u} r{a} {v}" for u, a, v in template.graph.edges()
        ]

    def test_dump_tree_and_policy(self, capsys):
        assert main(["dump", "--what", "tree", "--learner", "conservative",
                     "--k", "1", "--m", "2", "--seed", "5", "--rounds", "6"]) == 0
        tree_text = capsys.readouterr().out
        assert tree_text.startswith("node ") or tree_text.startswith("leaf ")
        assert main(["dump", "--what", "policy", "--format", "dot",
                     "--learner", "conservative", "--k", "1", "--m", "2",
                     "--seed", "5", "--rounds", "6"]) == 0
        assert "digraph policy" in capsys.readouterr().out

    def test_dump_tree_requires_conservative(self, monkeypatch, capsys):
        # a usage error: rejected before any round is played
        monkeypatch.setattr(cli, "run_experiment", _must_not_run)
        code = main(["dump", "--what", "tree", "--learner", "tireless",
                     "--k", "1", "--m", "2", "--seed", "5", "--rounds", "3"])
        assert code == 2
        assert capsys.readouterr().err == "error: the tireless learner has no decision tree\n"

    def test_bad_config_exits_2(self, capsys):
        assert main(["run", "--schedule", "bogus"]) == 2

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["run", "--config", str(missing)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n"
        )

    @pytest.mark.parametrize(
        "field,value",
        [("k", "2"), ("rounds", 2.5), ("m", True), ("edge_density", "0.5"), ("out", 3)],
    )
    def test_config_field_of_the_wrong_type_exits_2(self, field, value, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({field: value}))
        assert main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"error: config field {field!r} has the wrong type: {value!r}\n"
        )

    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("content,reason", [
        (b'{"k": 2,', "Expecting property name enclosed in double quotes: line 1 column 9 (char 8)"),
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b'{"k": 2}\xff', "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"),
    ], ids=["truncated", "empty", "not-utf-8"])
    def test_config_that_is_not_json_is_named(self, command, content, reason, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        assert main([command, "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: config {config} is not valid JSON: {reason}\n"
        assert captured.out == ""

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        assert main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"error: config {config} must hold a JSON object\n"

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "run.csv"
        assert main(["run", "--rounds", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n"
        )

    @pytest.mark.parametrize("invalid,message", [
        (["--schedule", "novel-last:3"], "coupon requires an IID schedule"),
        (["--m", "21"], "inclusion-exclusion limited to 20 classes"),
        # coverage would take about 1e300 draws: the trial would never end
        (["--m", "2", "--schedule", "iid-weighted:1e-300,1"],
         "expected draws to coverage 1e+300 are not at most 1000000, "
         "the most a coupon trial may take"),
    ])
    def test_coupon_rejects_before_writing(
        self, invalid, message, monkeypatch, tmp_path, capsys
    ):
        # each trial seeds its own draw stream first
        monkeypatch.setattr(experiments, "SplitMix64", _must_not_run)
        out = tmp_path / "coupon.csv"
        out.write_text("earlier output\n")
        assert main(["coupon", *invalid, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert out.read_text() == "earlier output\n"

    @pytest.mark.parametrize("command,experiment", _EXPERIMENT_OF_COMMAND)
    def test_unwritable_out_fails_before_any_round(
        self, command, experiment, monkeypatch, tmp_path, capsys
    ):
        _refuse(monkeypatch, experiment)
        out = tmp_path / "missing" / "x.csv"
        assert main([*command, "--rounds", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n"
        )

    @pytest.mark.parametrize("command,experiment", _EXPERIMENT_OF_COMMAND)
    @pytest.mark.parametrize("invalid", [
        ["--rounds", "0"],
        ["--density", "1.0", "--m", "3"],
        ["--schedule", "iid-weighted:0.5,0.5", "--m", "3"],
        ["--schedule", "scripted:0,1,2", "--m", "2"],
        # NaN once passed validation: coupon never ended, run drew one domain
        ["--schedule", "iid-weighted:nan,nan", "--m", "2"],
        # these once ran as iid-uniform, scripted:0,1, iid-weighted:0.5,0.5
        # and an empty script of 0 rounds
        ["--schedule", "iid-uniform:junk", "--m", "2"],
        ["--schedule", "scripted:0,,1", "--m", "2"],
        ["--schedule", "iid-weighted:0.5,,0.5", "--m", "2"],
        ["--schedule", "scripted:", "--m", "2"],
        # sweep once skipped the empty item: these played 5, and 10 and 20
        ["--rounds", "5,"],
        ["--rounds", "10,,20"],
        # items that are no number: each error names its flag or spec
        ["--rounds", "abc"],
        ["--rounds", "5,abc"],
        ["--schedule", "scripted:0,x", "--m", "2"],
        ["--schedule", "novel-last:abc"],
        ["--schedule", "iid-weighted:0.5,abc", "--m", "2"],
        ["--oracle", "every=abc"],
        # these once played as the seeds 2**64 - 1 and 0
        ["--seed", "-1"],
        ["--seed", str(2**64)],
    ])
    def test_invalid_config_leaves_out_untouched(
        self, command, experiment, invalid, monkeypatch, tmp_path, capsys
    ):
        _refuse(monkeypatch, experiment)
        kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
        kept.write_text("earlier output\n")
        for out in (kept, absent):
            assert main([*command, *invalid, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        assert kept.read_text() == "earlier output\n"
        assert not absent.exists()

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--rounds", "5,abc"], "--rounds '5,abc': 'abc' is not a valid int"),
        (["run", "--rounds", "abc"], "--rounds 'abc': 'abc' is not a valid int"),
        (["run", "--schedule", "scripted:0,x", "--m", "2"],
         "schedule spec 'scripted:0,x': 'x' is not a valid int"),
        (["run", "--schedule", "novel-last:abc"],
         "schedule spec 'novel-last:abc': 'abc' is not a valid int"),
        (["run", "--schedule", "iid-weighted:0.5,abc", "--m", "2"],
         "schedule spec 'iid-weighted:0.5,abc': 'abc' is not a valid float"),
        (["verify", "--oracle", "every=abc"],
         "oracle_checks spec 'every=abc': 'abc' is not a valid int"),
    ])
    def test_non_numeric_item_names_its_flag_or_spec(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_verify_interval_past_the_rounds_exits_2(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(experiments, "_play", _must_not_run)
        kept = tmp_path / "kept.txt"
        kept.write_text("earlier output\n")
        argv = ["verify", "--k", "2", "--m", "4", "--rounds", "10", "--oracle", "every=300"]
        assert main([*argv, "--out", str(kept)]) == 2
        assert capsys.readouterr().err == (
            "error: oracle checks every 300 rounds check none of 10\n"
        )
        assert kept.read_text() == "earlier output\n"

    def test_only_verify_applies_the_oracle_limit(self, monkeypatch, capsys):
        # run reads no ground truth, so the oracle's limit is no concern of it
        def refuse(*args):
            raise AssertionError("a measured run built the revealed graph")

        monkeypatch.setattr(SyntheticTeacher, "peek_ground_truth", refuse)
        argv = ["--k", "1", "--m", "2", "--oracle", "every", "--rounds", "300"]
        assert main(["run", *argv]) == 0
        captured = capsys.readouterr()
        assert (len(captured.out.splitlines()), captured.err) == (301, "")
        monkeypatch.setattr(experiments, "_play", _must_not_run)
        assert main(["verify", *argv[:-4], "--rounds", "300"]) == 2
        assert capsys.readouterr().err == (
            "error: oracle checks are limited to 256 vertices, but the last check would run "
            "at round 300; use a larger every=<j> or fewer rounds\n"
        )

    def test_verify_that_checks_no_round_fails(self, capsys):
        # the schedule ends after 4 rounds, before the first check at 10
        argv = ["verify", "--k", "1", "--m", "2", "--schedule", "novel-last:3",
                "--oracle", "every=10", "--rounds", "20"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "verify: FAILED\n"
        assert captured.err == (
            "violation: no round was checked\n"
            "stopped: schedule exhausted after 4 of 20 rounds\n"
        )

    @pytest.mark.parametrize("command", ["run", "verify", "dump"])
    def test_round_list_only_for_sweep(self, command, capsys):
        assert main([command, "--rounds", "3,50"]) == 2
        assert capsys.readouterr().err == (
            "error: --rounds 3,50: only sweep accepts a comma list\n"
        )

    def test_infeasible_density_exits_2(self, capsys):
        assert main(["run", "--k", "1", "--m", "3", "--density", "1.0"]) == 2
        assert "indistinguishable" in capsys.readouterr().err

    def test_template_generation_failure_exits_2(self, tmp_path, capsys):
        # an absent --out was once left behind as an empty file
        kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
        kept.write_text("earlier output\n")
        for out in (kept, absent):
            args = ["run", "--k", "1", "--m", "2", "--density", "1e-9", "--out", str(out)]
            assert main(args) == 2
            assert capsys.readouterr().err.startswith("error: no irreducible template")
        assert kept.read_text() == "earlier output\n"
        assert not absent.exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_learner_internal_error_exits_3(self, command, monkeypatch, tmp_path, capsys):
        # a single-vertex hypothesis read off its own loops cannot be wrong,
        # so an error on the first test is a state the learner rules out
        monkeypatch.setattr(
            SyntheticTeacher, "hypothesis_test", lambda *_: frozenset({(0, 0, 0)})
        )
        kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
        kept.write_text("earlier output\n")
        for out in (kept, absent):
            args = [command, "--learner", "conservative", "--rounds", "3", "--out", str(out)]
            assert main(args) == 3
            err = capsys.readouterr().err
            assert err == "internal error: initial single-vertex hypothesis returned errors\n"
            assert "Traceback" not in err
        assert kept.read_text() == "earlier output\n"
        assert not absent.exists()

    def test_dump_policy_generates_the_template_once(self, monkeypatch, capsys):
        calls = []
        original = experiments.generate_template

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "generate_template", counting)
        monkeypatch.setattr(experiments, "generate_template", counting)
        assert main(["dump", "--what", "policy", *_PINNED_BASE]) == 0
        assert calls == [(13, 4, 2, 0.5)]

    @pytest.mark.parametrize("extra", [[], ["--density", "1.0"]])
    def test_dump_validates_before_generating(self, extra, capsys):
        argv = ["dump", "--what", "template", "--rounds", "0", "--m", "3", "--k", "1"]
        assert main(argv + extra) == 2
        assert capsys.readouterr().err == "error: rounds must be >= 1\n"


# SHA-256 of each command's stdout, recorded at commit bf956c5: run and sweep
# CSVs are a contract, so a refactor of how sessions are played must not move
# them.
_PINNED_BASE = ["--learner", "conservative", "--k", "2", "--m", "4", "--seed", "13",
                "--rounds", "40"]
PINNED_OUTPUTS = [
    pytest.param(
        ["run", *_PINNED_BASE],
        "af535c21ecd945dfa4d29271f1a1d95d1cb43386472af249d462098cb25cb55b",
        id="run-conservative",
    ),
    pytest.param(
        ["run", "--learner", "conservative", "--k", "2", "--m", "5", "--seed", "13",
         "--schedule", "novel-last:10", "--rounds", "20"],
        "94f3c1806683ba67e32114ebb2a8042499203bc19ff1da863cd80e15361964f6",
        id="run-novel-last",
    ),
    pytest.param(
        ["run", "--learner", "tireless", "--k", "2", "--m", "3", "--seed", "13",
         "--rounds", "20"],
        "d7a024e6be4833bc81ceb5507c1dc80396dd7f447afcd622d3348fcde244675b",
        id="run-tireless",
    ),
    pytest.param(
        ["run", *_PINNED_BASE, "--oracle", "every"],
        "af535c21ecd945dfa4d29271f1a1d95d1cb43386472af249d462098cb25cb55b",
        id="run-conservative-oracle",
    ),
    pytest.param(
        ["run", "--schedule", "scripted:0,1", "--rounds", "5"],
        "91531e7c277e3f4a84ae86606cf08ef7bebe8135c3da83c2360939fea3ed938e",
        id="run-scripted-exhausted",
    ),
    pytest.param(
        ["sweep", "--k", "2", "--m", "4", "--seed", "13", "--rounds", "10,20,40"],
        "152d495b5b18ff6da7251f1331d3db17823f73eb179171067747487c4fb61eb9",
        id="sweep",
    ),
    # recorded at commit 854ba15: dumps and verify reports, so that a change
    # to how rights or check results are represented must not move them
    pytest.param(
        ["dump", "--what", "template", "--format", "text", *_PINNED_BASE],
        "49cc05d0e7d646783678ad1a126c21e247328f8434fe9c7637306ebba4a3dc16",
        id="dump-template-text",
    ),
    pytest.param(
        ["dump", "--what", "template", "--format", "dot", *_PINNED_BASE],
        "9bc1134472f5909571b1bff660c5587c7ae1960cee093bf82b071c5108847708",
        id="dump-template-dot",
    ),
    pytest.param(
        ["dump", "--what", "policy", "--format", "text", *_PINNED_BASE],
        "9a95d263acd831efa7f8ba167534bbe19675465ac8c321d81b720de7baa58114",
        id="dump-policy-text",
    ),
    pytest.param(
        ["dump", "--what", "policy", "--format", "dot", *_PINNED_BASE],
        "12b97e4b41fcc2c86a4f0fd602a2c7066998a0e64d135b3c9ba4501f2119577b",
        id="dump-policy-dot",
    ),
    pytest.param(
        ["dump", "--what", "tree", "--format", "text", *_PINNED_BASE],
        "d32150eaeca2f3d345a32114ca024f1f0823d9294a65485a517a89b386710164",
        id="dump-tree-text",
    ),
    pytest.param(
        ["dump", "--what", "tree", "--format", "dot", *_PINNED_BASE],
        "6d231a261393044831bad61d837443e39514600164f8643a08ec4d18c7e9627a",
        id="dump-tree-dot",
    ),
    pytest.param(
        ["verify", *_PINNED_BASE],
        "170658c79d41a51cbd4711d136d30cf93b4f24d3fb61bd5f1fa4eb4d2f74de5c",
        id="verify",
    ),
    # recorded at commit e66f521: the weighted draw stream, which the
    # tolerance tests of the coupon statistics would not pin
    pytest.param(
        ["run", "--k", "2", "--m", "3", "--seed", "13",
         "--schedule", "iid-weighted:0.5,0.3,0.2", "--rounds", "40"],
        "802315af608a7180d9b91cf833c03d5713e74a624618d5c2beca976925d16fdb",
        id="run-iid-weighted",
    ),
    pytest.param(
        ["coupon", "--m", "3", "--schedule", "iid-weighted:0.5,0.3,0.2",
         "--trials", "200", "--seed", "7"],
        "67f2d11ac945366dda5333bb0f9fffd340643759fd1bcd735b7dbfcc5a7b8de5",
        id="coupon-iid-weighted",
    ),
]


class CorruptsThirdRound(ConservativeLearner):
    """Fault injection: after round 3 (its last), moves the newest vertex to
    another domain, behind the monitor's back."""

    def run_round(self):
        super().run_round()
        if self._session.ledger.nvq_count == 3:
            newest = max(self.assignment)
            other = [x for x in self.summary.vertices if x != self.assignment[newest]]
            self.assignment = {**self.assignment, newest: other[0]}


class OutgrowsTheIsomorphismLimit(ConservativeLearner):
    """Fault injection: after round 3 (its last), swaps in an edgeless
    summary with one vertex more than the isomorphism search accepts."""

    def run_round(self):
        super().run_round()
        if self._session.ledger.nvq_count == 3:
            self.summary = LabeledDigraph(self.summary.k, range(ISOMORPHISM_VERTEX_LIMIT + 1))


class TestPinnedOutputs:
    @pytest.mark.parametrize("argv,digest", PINNED_OUTPUTS)
    def test_csv_digest(self, argv, digest, capsys):
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name", ["run-conservative", "run-conservative-oracle", "run-novel-last", "run-tireless"]
    )
    def test_measured_runs_build_no_ground_truth(self, name, monkeypatch, capsys):
        (argv, digest), = [p.values for p in PINNED_OUTPUTS if p.id == name]

        def refuse(*args):
            raise AssertionError("a measured run built the revealed graph")

        monkeypatch.setattr(SyntheticTeacher, "peek_ground_truth", refuse)
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_verify_failure_lines(self, monkeypatch, capsys):
        monkeypatch.setattr(
            experiments, "make_learner", lambda kind, session: CorruptsThirdRound(session)
        )
        assert main(["verify", "--k", "2", "--m", "3", "--seed", "13", "--rounds", "3"]) == 1
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "aef45f14b5803a0ea7ec3badce0ae6f1f7adb0bad24db538b6959673b9aac838"
        )
        assert "  leaf-count: 2 leaves vs 1 domains" in out.splitlines()

    def test_verify_fails_a_summary_over_the_isomorphism_limit(self, monkeypatch, capsys):
        # the reference summary is small, so the oversized one is a FAIL,
        # not an error about the limit
        monkeypatch.setattr(
            experiments, "make_learner",
            lambda kind, session: OutgrowsTheIsomorphismLimit(session),
        )
        assert main(["verify", "--k", "2", "--m", "3", "--seed", "13", "--rounds", "3"]) == 1
        captured = capsys.readouterr()
        assert "  summary not isomorphic to the reference summary" in captured.out.splitlines()
        assert captured.err == ""

    def test_exhausted_schedule_stops_every_command(self, capsys):
        short = ["--schedule", "scripted:0,1", "--rounds", "5"]
        stopped = "stopped: schedule exhausted after 2 of 5 rounds\n"
        assert main(["verify", *short]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "round 1: ok", "round 2: ok", "verify: all checks passed"
        ]
        assert captured.err == stopped
        assert main(["run", *short]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 3  # header and two rounds
        assert captured.err == stopped
        assert main(["dump", "--what", "policy", *short]) == 0
        captured = capsys.readouterr()
        assert [line for line in captured.out.splitlines() if line.startswith("assign ")] == [
            "assign 0 -> 0", "assign 1 -> 1"
        ]
        assert captured.err == stopped

    @pytest.mark.parametrize("command,rounds", [
        pytest.param(["run"], "5", id="run"),
        pytest.param(["verify"], "5", id="verify"),
        pytest.param(["sweep"], "5,1", id="sweep-5,1"),
        pytest.param(["sweep"], "1,5", id="sweep-1,5"),
        pytest.param(["dump", "--what", "policy"], "5", id="dump-policy"),
    ])
    def test_every_play_command_ends_the_same_way(self, command, rounds, monkeypatch, capsys):
        argv = [*command, "--k", "1", "--m", "2"]
        assert main([*argv, "--schedule", "scripted:0,1", "--rounds", rounds]) == 0
        captured = capsys.readouterr()
        assert captured.err == "stopped: schedule exhausted after 2 of 5 rounds\n"
        monkeypatch.setattr(
            experiments, "make_learner", lambda kind, session: ReducibleAfterFirstRound(session)
        )
        assert main([*argv, "--rounds", "5"]) == 1
        captured = capsys.readouterr()
        assert "violation" not in captured.out
        violation = "round 2: monitor violation: submitted summary is reducible"
        if command == ["sweep"]:
            expected = [f"n=5 {kind}: {violation}" for kind in ("tireless", "conservative")]
        else:
            expected = [violation]
        assert captured.err.splitlines() == [f"violation: {line}" for line in expected]

    def test_a_completed_or_violated_run_names_no_exhaustion(self, monkeypatch, capsys):
        assert main(["run", "--schedule", "scripted:0,1", "--rounds", "2"]) == 0
        assert capsys.readouterr().err == ""
        # a monitor violation also stops the play early, but it is no exhaustion
        monkeypatch.setattr(ConservativeLearner, "run_round", _violate)
        assert main(["verify", "--rounds", "3"]) == 1
        assert "stopped:" not in capsys.readouterr().err

    def test_dump_before_any_round_exits_2(self, capsys):
        # an empty script, the only schedule that ends before round 1, is
        # rejected before any round is played
        assert main(["dump", "--what", "policy", "--schedule", "scripted:"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: schedule spec 'scripted:' has an empty list item\n"
