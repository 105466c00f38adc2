"""Smoke tests of the experiment scripts in ``scripts/``: each runs with
small arguments, in its own interpreter or in-process through ``runpy``.
``cost_curves.py`` and ``coupon_demo.py`` play through ``cli.main``, so a
renamed CLI flag fails here instead of silently."""

from __future__ import annotations

import importlib.util
import json
import os
import re
import runpy
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from domainlearn import experiments
from domainlearn.experiments import CSV_HEADER
from domainlearn.learners import LearnerInternalError

from .test_experiments import ReducibleAfterFirstRound

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cost_curves(tmp_path):
    out = tmp_path / "cost_curves.csv"
    result = run_script("cost_curves.py", "--rounds", "5,10", "--out", str(out), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "learner," + CSV_HEADER
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["tireless", "5"], ["conservative", "5"], ["tireless", "10"], ["conservative", "10"],
    ]


@pytest.mark.parametrize("args,message", [
    (["--rounds", "5,abc"], "--rounds '5,abc': 'abc' is not a valid int"),
    # this once played the n=10 cells, then ended in a traceback
    (["--rounds", "10,0"], "rounds must be >= 1"),
    (["--m", "0"], "m must be >= 1, got 0"),
    # an --out that cannot be opened; this once played the whole sweep,
    # then ended in a traceback (exit 1)
    (["--out", "missing/x.csv"], "[Errno 2] No such file or directory: 'missing/x.csv'"),
])
def test_cost_curves_rejects_an_invalid_cell_before_any_play(tmp_path, args, message):
    out = tmp_path / "cost_curves.csv"
    result = run_script("cost_curves.py", "--out", str(out), *args, cwd=tmp_path)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {message}\n"
    assert not out.exists()


def run_cost_curves_in_process(monkeypatch, out: Path, make_learner) -> int:
    """Run cost_curves.py as ``__main__`` with ``make_learner`` patched in
    for every learner; returns its exit status."""
    monkeypatch.setattr(experiments, "make_learner", make_learner)
    script = str(ROOT / "scripts" / "cost_curves.py")
    monkeypatch.setattr(sys, "argv", [script, "--rounds", "5", "--out", str(out)])
    with pytest.raises(SystemExit) as ended:
        runpy.run_path(script, run_name="__main__")
    return ended.value.code


def test_cost_curves_reports_violations_on_stderr(monkeypatch, tmp_path, capsys):
    out = tmp_path / "cost_curves.csv"
    status = run_cost_curves_in_process(
        monkeypatch, out, lambda kind, session: ReducibleAfterFirstRound(session)
    )
    captured = capsys.readouterr()
    assert status == 1
    # both learners stop after round 1, so the table reads the n=1 rows:
    # k=2 connection queries each
    assert captured.out.splitlines()[0] == f"wrote {out}"
    assert captured.out.splitlines()[-1].split() == ["1", "2", "2", "1.0"]
    assert "violation" not in captured.out
    assert captured.err.splitlines() == [
        f"violation: n=5 {kind}: round 2: monitor violation: submitted summary is reducible"
        for kind in ("tireless", "conservative")
    ]


class InternalErrorLearner:
    def __init__(self, session):
        pass

    def run_round(self):
        raise LearnerInternalError("a state the learner rules out")


def test_cost_curves_internal_error_exits_3(monkeypatch, tmp_path, capsys):
    out = tmp_path / "cost_curves.csv"
    status = run_cost_curves_in_process(
        monkeypatch, out, lambda kind, session: InternalErrorLearner(session)
    )
    captured = capsys.readouterr()
    assert (status, captured.out) == (3, "")
    assert captured.err == "internal error: a state the learner rules out\n"


def test_coupon_demo(tmp_path):
    result = run_script("coupon_demo.py", "--trials", "50", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "uniform domains (m=5, 50 trials)" in result.stdout
    assert "skewed domains (0.5, 0.3, 0.2) (m=3, 50 trials)" in result.stdout


def test_coupon_demo_rejects_zero_trials(tmp_path):
    # this once ended in a ValueError traceback (exit 1)
    result = run_script("coupon_demo.py", "--trials", "0", cwd=tmp_path)
    assert (result.returncode, result.stderr) == (2, "error: trials must be >= 1\n")


def test_scaling(tmp_path):
    result = run_script("scaling.py", "--scale", "0.01", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line for line in lines if not line.startswith(" ")] == [
        "cons-iid-m:", "cons-iid-n:", "tireless-n:", "novel-last-p:",
    ]
    assert sum(line.startswith("  slope in ") and ", excess " in line for line in lines) == 4
    assert sum(re.fullmatch(r"  memory in [mnp]: -?\d+ B per [mnp]", line) is not None
               for line in lines) == 4
    # tireless at n = 2, 4, 8: k*n^2 connection queries, n clean hypothesis tests
    header = lines.index("tireless-n:") + 1
    assert lines[header].split() == ["n", "seconds", "ledger", "rss_kib"]
    tireless = [line.split() for line in lines[header + 1:header + 4]]
    assert [(int(n), int(ledger)) for n, _, ledger, _ in tireless] == [
        (n, 2 * n * n + n) for n in (2, 4, 8)
    ]
    assert all(int(rss_kib) > 0 for *_, rss_kib in tireless)


def test_scaling_only_plays_the_named_scenarios(tmp_path):
    result = run_script(
        "scaling.py", "--scale", "0.01", "--only", "novel-last-p,tireless-n", cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line for line in lines if not line.startswith(" ")] == ["tireless-n:", "novel-last-p:"]
    assert sum(line.startswith("  slope in ") for line in lines) == 2


@pytest.mark.parametrize("args,message", [
    (["--scale", "nan"], "--scale must be positive"),
    # n = 1500, 3000 and 6000 all round to 1: no slope can be fitted
    (["--scale", "0.0001"],
     "--scale 0.0001 leaves cons-iid-n with equal n values [1, 1, 1]"),
    (["--only", "tireless-n,novel-last"],
     "--only names no scenario 'novel-last'; "
     "scenarios: cons-iid-m, cons-iid-n, tireless-n, novel-last-p"),
])
def test_scaling_rejects_what_it_cannot_play(tmp_path, args, message):
    result = run_script("scaling.py", *args, cwd=tmp_path)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {message}\n"


def test_bench_pairs(tmp_path):
    # one pair of 1 s with the repo on both sides
    result = run_script(
        "bench_pairs.py", str(ROOT), str(ROOT), "--label", "smoke", "--pairs", "tireless=1",
        "--seconds", "1", cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["label"] == "smoke"
    assert record["src_lines"]["parent"] == record["src_lines"]["change"] > 0
    assert f"src_lines parent {record['src_lines']['parent']} " in result.stdout
    assert record["src_code_lines"]["parent"] == record["src_code_lines"]["change"] > 0
    assert f"src_code_lines parent {record['src_code_lines']['parent']} " in result.stdout
    modules = record["module_code_lines"]
    assert modules["parent"] == modules["change"]
    assert sum(modules["change"].values()) == record["src_code_lines"]["change"]
    assert [(r["side"], r["workload"], r["trace"]) for r in record["runs"]] == [
        ("parent", "tireless", 0), ("change", "tireless", 0),
        ("parent", "tireless", 1), ("change", "tireless", 1),
    ]
    assert all(r["result"]["failed"] == 0 and r["lines"] for r in record["runs"])
    summary = record["summary"]["tireless"]
    assert summary["pairs"] == 1
    assert summary["failed"] == {"parent": [0], "change": [0]}
    assert summary["failed_share"] == {"parent": 0.0, "change": 0.0}
    assert summary["failed_share_grew"] is False
    rate = summary["rounds_per_s"]
    assert rate["parent"]["q1"] == rate["parent"]["median"] == rate["parent"]["q3"] > 0
    assert rate["change_wins"] in (0, 1)
    assert summary["cnq_total"]["parent"] == summary["cnq_total"]["change"]
    assert summary["cnq_total"]["change_wins"] == 0
    assert not summary["cnq_total"]["gain_claimable"]
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert all(isinstance(summary[name]["exceeds_bound"], bool) for name in metrics)
    # one parent run has no spread, so no metric is unresolved
    assert not any(summary[name]["unresolved"] for name in metrics)
    assert summary["cnq_total"]["exceeds_bound"] is False
    assert "peak_rss_mb" in result.stdout and "blocks" in result.stdout
    # with one block count per side the figure is there exactly when they differ
    per_block = summary["rss_per_extra_block_kb"]
    assert (per_block is None) == (summary["blocks"]["parent"] == summary["blocks"]["change"])
    assert (summary["rss_bound_block_rise"] is None) == (per_block is None or per_block <= 0)
    # one pair has no spread, so a won pair is a claimable gain
    assert rate["gain_claimable"] == (rate["change_wins"] == 1)
    # the raw figures behind the normalised ones, printed beside them
    raw = summary["unnormalised"]
    for side in ("parent", "change"):
        assert raw[side]["host_factor"] > 0
        assert raw[side]["rounds_per_s"] > 0
        assert raw[side]["round_p50_ms"] <= raw[side]["round_tail_ms"]
    assert f"; unnormalised parent {raw['parent']['rounds_per_s']:.5g} " in result.stdout
    assert f"host_factor    parent {raw['parent']['host_factor']:12.5g} " in result.stdout
    cnq_calls = record["traced"]["tireless"]["protocol.cnq_calls"]
    assert cnq_calls["parent"] == cnq_calls["change"] == summary["cnq_total"]["parent"]["median"]


def test_bench_pairs_sigterm_kills_the_run_it_waits_on(tmp_path):
    # a stub tree whose bench/run.py records its pid and then sleeps
    tree = tmp_path / "tree"
    (tree / "bench").mkdir(parents=True)
    (tree / "BENCHMARK.json").write_text('{"end_to_end": [], "per_layer": []}')
    (tree / "bench" / "run.py").write_text(
        "import os, time\n"
        "with open('pid.tmp', 'w') as f:\n"
        "    f.write(str(os.getpid()))\n"
        "os.rename('pid.tmp', 'pid')\n"
        "time.sleep(120)\n"
    )
    pid_file = tree / "pid"
    script = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(tree), str(tree),
         "--label", "stub", "--pairs", "stub=1", "--seconds", "1"],
        cwd=tmp_path, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    child = None
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists():
            assert script.poll() is None, "bench_pairs.py exited before its run started"
            assert time.monotonic() < deadline, "the stub run never started"
            time.sleep(0.05)
        child = int(pid_file.read_text())
        script.send_signal(signal.SIGTERM)
        assert script.wait(timeout=10) != 0
        deadline = time.monotonic() + 5
        while True:
            try:
                os.kill(child, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "the bench/run.py child outlived the script"
            time.sleep(0.05)
    finally:
        script.kill()
        script.wait()
        if child is not None:
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_counts_code_lines_apart_from_comments_and_docstrings(tmp_path):
    package = tmp_path / "src" / "domainlearn"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        '"""Module docstring,\non two lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # a trailing comment\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """Docstring."""\n'
        "    return (\n"
        "        x\n"
        "    )\n"
    )
    (package / "b.py").write_text('TEXT = """a string,\nnot a docstring"""\n\n')
    bench_pairs = load_bench_pairs()
    assert bench_pairs.src_lines(tmp_path) == 12 + 3
    # import, def, the three lines of the return, and the two of TEXT
    assert bench_pairs.src_code_lines(tmp_path) == 7


def test_bench_pairs_counts_code_lines_per_module(tmp_path):
    # f moves from a.py to b.py, c.py is added and e.py removed: the totals
    # differ by 0, the modules show the move
    sources = {
        "parent": {
            "a.py": "def f():\n    return 1\n\n\nX = 2\n",
            "b.py": "Y = 3\n",
            "d.py": "Z = 4\n",
            "e.py": "V = 6\n",
        },
        "change": {
            "a.py": "X = 2\n",
            "b.py": "# f moved here\nY = 3\n\n\ndef f():\n    return 1\n",
            "c.py": "W = 5\n",
            "d.py": "Z = 4\n",
        },
    }
    for side, files in sources.items():
        package = tmp_path / side / "src" / "domainlearn"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
    bench_pairs = load_bench_pairs()
    by_side = {side: bench_pairs.module_code_lines(tmp_path / side) for side in sources}
    assert by_side == {
        "parent": {"a.py": 3, "b.py": 1, "d.py": 1, "e.py": 1},
        "change": {"a.py": 1, "b.py": 3, "c.py": 1, "d.py": 1},
    }
    assert bench_pairs.src_code_lines(tmp_path / "parent") == 6
    assert bench_pairs.src_code_lines(tmp_path / "change") == 6
    assert bench_pairs.changed_modules(by_side) == {
        "a.py": (3, 1), "b.py": (1, 3), "c.py": (0, 1), "e.py": (1, 0),
    }


def test_bench_pairs_flags_a_change_past_its_bound():
    bench_pairs = load_bench_pairs()
    metrics = [
        {"name": "rounds_per_s", "better": "higher", "bound": 0.25},
        {"name": "round_p50_ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ]
    # rounds_per_s -26% and peak_rss_mb +12.5% are past their bounds,
    # round_p50_ms +20% is within it
    values = {"parent": (100.0, 1.0, 20.0), "change": (74.0, 1.2, 22.5)}

    def runs(failed):
        return [
            {"side": side, "lines": [], "result": {
                "attempted": 10, "failed": failed[side], "metrics": {
                    m["name"]: {"value": value} for m, value in zip(metrics, values[side])
                }}}
            for side in ("parent", "change")
        ]

    summary = bench_pairs.summarise(runs({"parent": 0, "change": 0}), metrics)
    assert summary["rounds_per_s"]["exceeds_bound"] is True
    assert summary["round_p50_ms"]["exceeds_bound"] is False
    assert summary["peak_rss_mb"]["exceeds_bound"] is True
    # equal failed shares are no regression, one failure against none is
    assert summary["failed_share_grew"] is False
    summary = bench_pairs.summarise(runs({"parent": 1, "change": 1}), metrics)
    assert summary["failed_share"] == {"parent": 0.1, "change": 0.1}
    assert summary["failed_share_grew"] is False
    summary = bench_pairs.summarise(runs({"parent": 0, "change": 1}), metrics)
    assert summary["failed_share"] == {"parent": 0.0, "change": 0.1}
    assert summary["failed_share_grew"] is True


def rss_runs(parent, change):
    """One run per (peak_rss_mb, untraced blocks) pair; a block count of
    None leaves the run with no lines to read it from."""
    return [
        {"side": side, "lines": [f"cons-iid seed 0: {blocks} untraced and 0 traced blocks"]
         if blocks is not None else [],
         "result": {"attempted": 2, "failed": 0, "metrics": {"peak_rss_mb": {"value": rss}}}}
        for side, values in (("parent", parent), ("change", change))
        for rss, blocks in values
    ]


def test_bench_pairs_ties_a_peak_rss_move_to_the_block_count():
    metrics = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    summarise = load_bench_pairs().summarise
    # the least-squares slope over all four runs: block deviations -7.5,
    # -5.5, 5.5, 7.5 against MB deviations -0.6, -0.4, 0.4, 0.6 give
    # 13.4 / 173 MB per block
    summary = summarise(rss_runs([(37.0, 200), (37.2, 202)], [(38.0, 213), (38.2, 215)]), metrics)
    assert summary["blocks"] == {"parent": [200, 202], "change": [213, 215]}
    assert summary["rss_per_extra_block_kb"] == pytest.approx(13.4 * 1024 / 173)
    # equal block medians whose runs differ still give the fitted slope,
    # 0.1 MB per block
    summary = summarise(rss_runs([(37.0, 200), (37.4, 204)], [(37.2, 202), (37.2, 202)]), metrics)
    assert summary["rss_per_extra_block_kb"] == pytest.approx(102.4)
    # one block count, or none known, gives no figure
    summary = summarise(rss_runs([(37.0, 200)], [(38.0, 200)]), metrics)
    assert summary["rss_per_extra_block_kb"] is None
    summary = summarise(rss_runs([(37.0, 200), (37.5, None)], [(38.0, 200), (38.5, None)]), metrics)
    assert summary["rss_per_extra_block_kb"] is None
    summary = summarise(rss_runs([(37.0, None)], [(38.0, None)]), metrics)
    assert summary["rss_per_extra_block_kb"] is None


def test_bench_pairs_reports_the_block_rise_that_crosses_the_rss_bound():
    metrics = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    summarise = load_bench_pairs().summarise
    # +1.0 MB over +10 blocks is 102.4 KB per block; the 0.1 bound of a
    # 30 MB parent is 3 MB, 30 such blocks, +30% of the parent's 100
    summary = summarise(rss_runs([(30.0, 100)], [(31.0, 110)]), metrics)
    assert summary["rss_per_extra_block_kb"] == pytest.approx(102.4)
    assert summary["rss_bound_block_rise"] == pytest.approx(0.3)
    # the bound scales the rise
    bound = [{**metrics[0], "bound": 0.2}]
    assert summarise(rss_runs([(30.0, 100)], [(31.0, 110)]), bound)["rss_bound_block_rise"] == pytest.approx(0.6)
    # no figure when the KB per extra block is unknown, or not positive
    for parent, change in (
        ([(30.0, 100)], [(31.0, 100)]),
        ([(30.0, None)], [(31.0, None)]),
        ([(30.0, 100)], [(30.0, 110)]),
        ([(30.0, 100)], [(29.0, 110)]),
    ):
        assert summarise(rss_runs(parent, change), metrics)["rss_bound_block_rise"] is None


def host_line(factor: float, rate: float, p50: float, tail: float) -> str:
    """A ``host factor`` line as ``bench/run.py`` prints it."""
    return (
        f"host factor {factor:.4f} (median over blocks), 0.9500 over set-ups; unnormalised: "
        f"rounds_per_s={rate:.6g} queries_per_s=99999 round_p50_ms={p50:.6g} "
        f"round_tail_ms={tail:.6g} setup_s=0.05"
    )


def test_bench_pairs_records_the_host_factor_and_the_unnormalised_medians():
    metrics = [{"name": "rounds_per_s", "better": "higher", "bound": 0.25}]
    readings = {
        "parent": [(0.9, 900.0, 1.1, 3.0), (0.7, 700.0, 1.4, 4.0), (0.8, 850.0, 1.2, 3.5)],
        "change": [(1.0, 1000.0, 1.0, 2.5), (1.1, 1050.0, 0.9, 2.0), (None,) * 4],
    }
    runs = [
        {"side": side, "lines": [
            "verify seed 0: 20 untraced and 0 traced blocks of 36 sessions; ledger checked ...",
            "round_tail_ms is p99.00 of 1440 rounds, each the median of 20 blocks; ...",
            *([host_line(*reading)] if reading[0] is not None else []),
        ], "result": {"attempted": 1, "failed": 0, "metrics": {"rounds_per_s": {"value": 1.0}}}}
        for side in ("parent", "change")
        for reading in readings[side]
    ]
    summary = load_bench_pairs().summarise(runs, metrics)
    # medians per side over the runs that printed the line
    assert summary["unnormalised"] == {
        "parent": {"host_factor": 0.8, "rounds_per_s": 850.0, "round_p50_ms": 1.2,
                   "round_tail_ms": 3.5},
        "change": {"host_factor": pytest.approx(1.05), "rounds_per_s": 1025.0,
                   "round_p50_ms": pytest.approx(0.95), "round_tail_ms": 2.25},
    }
    # a side whose runs printed no such line has no medians
    for run in runs:
        run["lines"] = run["lines"][:2]
    assert load_bench_pairs().summarise(runs, metrics)["unnormalised"] == {
        "parent": None, "change": None,
    }


def test_bench_pairs_flags_a_spread_past_its_bound():
    metrics = [{"name": "setup_s", "better": "lower", "bound": 0.25}]

    def runs(parent, change):
        return [
            {"side": side, "lines": [], "result": {
                "attempted": 1, "failed": 0, "metrics": {"setup_s": {"value": value}}}}
            for side, values in (("parent", parent), ("change", change))
            for value in values
        ]

    summarise = load_bench_pairs().summarise
    # the parent's own runs read 0.059-0.091 s: its IQR is 0.4 of its median
    wide = [0.059, 0.06, 0.075, 0.09, 0.091]
    summary = summarise(runs(wide, [0.06, 0.07, 0.075, 0.08, 0.09]), metrics)
    assert summary["setup_s"]["exceeds_bound"] is False
    assert summary["setup_s"]["unresolved"] is True
    # ... unless every change run beats every parent run
    summary = summarise(runs(wide, [0.05, 0.052, 0.055, 0.056, 0.058]), metrics)
    assert summary["setup_s"]["unresolved"] is False
    # a spread within the bound resolves the metric, whatever the change reads
    narrow = [0.070, 0.072, 0.075, 0.078, 0.080]
    summary = summarise(runs(narrow, [0.09, 0.095, 0.1, 0.105, 0.11]), metrics)
    assert summary["setup_s"]["unresolved"] is False
    assert summary["setup_s"]["exceeds_bound"] is True
