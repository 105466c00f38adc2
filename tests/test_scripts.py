"""Smoke tests of the experiment scripts in ``scripts/``: each runs in its
own interpreter with small arguments, so a renamed import or field in
``domainlearn.experiments`` fails here instead of silently."""

from __future__ import annotations

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from domainlearn.experiments import CSV_HEADER

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


def test_coupon_demo(tmp_path):
    result = run_script("coupon_demo.py", "--trials", "50", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "uniform domains (m=5, 50 trials)" in result.stdout
    assert "skewed domains (0.5, 0.3, 0.2) (m=3, 50 trials)" in result.stdout


def test_scaling(tmp_path):
    result = run_script("scaling.py", "--scale", "0.01", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line for line in lines if not line.startswith(" ")] == [
        "cons-iid-m:", "cons-iid-n:", "tireless-n:", "novel-last-p:",
    ]
    assert sum(line.startswith("  slope in ") and ", excess " in line for line in lines) == 4
    # tireless at n = 2, 4, 8: k*n^2 connection queries, n clean hypothesis tests
    tireless = lines[lines.index("tireless-n:") + 2:lines.index("tireless-n:") + 5]
    assert [(int(n), int(ledger)) for n, _, ledger in map(str.split, tireless)] == [
        (n, 2 * n * n + n) for n in (2, 4, 8)
    ]


@pytest.mark.parametrize("args,message", [
    (["--scale", "nan"], "--scale must be positive"),
    # n = 1500, 3000 and 6000 all round to 1: no slope can be fitted
    (["--scale", "0.0001"],
     "--scale 0.0001 leaves cons-iid-n with equal n values [1, 1, 1]"),
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
    # one pair has no spread, so a won pair is a claimable gain
    assert rate["gain_claimable"] == (rate["change_wins"] == 1)
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
