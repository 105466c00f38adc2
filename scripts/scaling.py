#!/usr/bin/env python3
"""Scaling exponents: does wall time grow with the queries a run issues?

Each scenario plays a ladder of runs that differ in one variable: the rounds
n, or the domain count m at fixed n.  Every run is a ``domainlearn`` command
in a fresh interpreter, timed around ``cli.main`` and kept as the best of
3.  Per scenario the script fits the log-log slope of wall time
and of the ledger total (cnq + htq + errors of the last CSV row) against the
variable.  Their difference is the *excess exponent*: 0 when the simulator's
time tracks the queries, above 0 when hidden bookkeeping grows faster.

Scenarios (template seed 13, k=2, density 0.5):
  cons-iid-m    conservative, iid-uniform, n=1000, m = 8, 16, 32, 64
  cons-iid-n    conservative, iid-uniform, m=8, n = 1500, 3000, 6000
  tireless-n    tireless, iid-uniform, m=8, n = 200, 400, 800
  novel-last-p  conservative, novel-last:<p>, m=16, p = 200, 400, 800,
                played to the end of the script (n = p + 15)

``--scale`` multiplies every n and p (at least 1), so a quick check can
run the same ladders small; m is never scaled.

Usage: python3 scripts/scaling.py [--scale 1]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASE = ["run", "--k", "2", "--seed", "13"]
REPEAT = 3

# Plays argv[1:] through cli.main and prints the time and the ledger total.
CHILD = """
import contextlib, io, json, sys, time
from domainlearn.cli import main
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    status = main(sys.argv[1:])
seconds = time.perf_counter() - start
_, cnq, htq, errors = out.getvalue().splitlines()[-1].split(",")[:4]
print(json.dumps({"status": status, "seconds": seconds,
                  "ledger": int(cnq) + int(htq) + int(errors)}))
"""


def ladders(scale: float) -> dict[str, tuple[str, list[tuple[int, list[str]]]]]:
    """Scenario name -> (variable, [(value, command argv)]); n and p are
    multiplied by ``scale``, m is not."""

    def n(value: int) -> int:
        return max(1, round(value * scale))

    return {
        "cons-iid-m": ("m", [
            (m, [*BASE, "--m", str(m), "--rounds", str(n(1000))]) for m in (8, 16, 32, 64)
        ]),
        "cons-iid-n": ("n", [
            (n(v), [*BASE, "--m", "8", "--rounds", str(n(v))]) for v in (1500, 3000, 6000)
        ]),
        "tireless-n": ("n", [
            (n(v), [*BASE, "--m", "8", "--learner", "tireless", "--rounds", str(n(v))])
            for v in (200, 400, 800)
        ]),
        "novel-last-p": ("p", [
            (n(p), [*BASE, "--m", "16", "--schedule", f"novel-last:{n(p)}",
                    "--rounds", str(n(p) + 15)])
            for p in (200, 400, 800)
        ]),
    }


def play(argv: list[str]) -> dict:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=False,
    )
    if result.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} failed: {result.stderr.strip()}")
    point = json.loads(result.stdout)
    if point["status"] != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {point['status']}")
    return point


def slope(xs: list[int], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    logs = statistics.linear_regression([math.log(x) for x in xs], [math.log(y) for y in ys])
    return logs.slope


def invalid(scale: float) -> str | None:
    """Why ``--scale`` cannot be played, or None."""
    if not 0 < scale < math.inf:
        return "--scale must be positive"
    for name, (variable, ladder) in ladders(scale).items():
        values = [value for value, _ in ladder]
        if len(set(values)) < len(values):
            return f"--scale {scale:g} leaves {name} with equal {variable} values {values}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    problem = invalid(args.scale)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    for name, (variable, ladder) in ladders(args.scale).items():
        print(f"{name}:")
        print(f"  {variable:>6} {'seconds':>9} {'ledger':>8}")
        values, times, ledgers = [], [], []
        for value, argv in ladder:
            points = [play(argv) for _ in range(REPEAT)]
            values.append(value)
            times.append(min(point["seconds"] for point in points))
            ledgers.append(points[0]["ledger"])
            print(f"  {value:>6} {times[-1]:>9.3f} {ledgers[-1]:>8}", flush=True)
        time_slope, ledger_slope = slope(values, times), slope(values, ledgers)
        print(
            f"  slope in {variable}: time {time_slope:.2f}, "
            f"ledger {ledger_slope:.2f}, excess {time_slope - ledger_slope:.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
