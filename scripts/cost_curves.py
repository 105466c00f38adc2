#!/usr/bin/env python3
"""Cost-growth contrast experiment.

Runs both policy-administration strategies over shared worlds for a doubling
ladder of round counts and tabulates cumulative connection-query cost:
the exhaustive strategy grows quadratically (k*n^2) while the classify-and-
repair strategy stays linear (<= k + (n-1)(m-1)).  It plays one
``domainlearn sweep`` through ``cli.main`` and ends as sweep does (exit 1
with violations on stderr, 2 or 3 after one ``error:`` or ``internal
error:`` line); below 2 it reads the written CSV back into a table.

Usage: python3 scripts/cost_curves.py [--k 2] [--m 4] [--seed 13]
       [--rounds 10,20,40,80,160] [--out cost_curves.csv]
"""

from __future__ import annotations

import argparse
import csv

from domainlearn.cli import main as domainlearn


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--m", type=int, default=4)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--rounds", default="10,20,40,80,160")
    parser.add_argument("--out", default="cost_curves.csv")
    args = parser.parse_args()

    status = domainlearn(["sweep", f"--k={args.k}", f"--m={args.m}", f"--seed={args.seed}",
                          f"--rounds={args.rounds}", f"--out={args.out}"])
    if status >= 2:
        return status
    print(f"wrote {args.out}")

    by_cell: dict[str, dict[str, int]] = {}
    with open(args.out, newline="") as handle:
        for row in csv.DictReader(handle):
            by_cell.setdefault(row["n"], {})[row["learner"]] = int(row["cnq_cum"])
    print(f"\nk={args.k} m={args.m} seed={args.seed}")
    print(f"{'n':>6} {'exhaustive':>12} {'classify':>10} {'ratio':>8}")
    for n, cell in by_cell.items():
        tireless = cell.get("tireless", 0)
        conservative = cell.get("conservative", 0)
        ratio = tireless / conservative if conservative else float("nan")
        print(f"{n:>6} {tireless:>12} {conservative:>10} {ratio:>8.1f}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
