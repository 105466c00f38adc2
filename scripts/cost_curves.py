#!/usr/bin/env python3
"""Cost-growth contrast experiment.

Runs both policy-administration strategies over shared worlds for a doubling
ladder of round counts and tabulates cumulative connection-query cost:
the exhaustive strategy grows quadratically (k*n^2) while the classify-and-
repair strategy stays linear (<= k + (n-1)(m-1)).  Writes the combined CSV
and prints a small table.  Every cell's config is made, and so checked,
and ``--out`` is opened for appending before any cell is played; an
invalid cell or an unwritable ``--out`` prints one ``error:`` line and
exits 2.  The file is truncated and written only when the sweep is done.

Usage: python3 scripts/cost_curves.py [--k 2] [--m 4] [--seed 13]
       [--rounds 10,20,40,80,160] [--out cost_curves.csv]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from domainlearn.experiments import ExperimentConfig, sweep_experiment
from domainlearn.teacher import parse_items


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--m", type=int, default=4)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--rounds", default="10,20,40,80,160")
    parser.add_argument("--out", default="cost_curves.csv")
    args = parser.parse_args()

    try:
        rounds = parse_items(f"--rounds {args.rounds!r}", args.rounds, int)
        config = ExperimentConfig(k=args.k, m=args.m, template_seed=args.seed)
        cells = [replace(config, rounds=n) for n in rounds]
        handle = open(args.out, "a", newline="")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with handle:
        result = sweep_experiment(cells)
        handle.truncate(0)
        handle.write(result.to_csv())
    print(f"wrote {args.out}")

    by_cell: dict[int, dict[str, int]] = {}
    for learner, row in result.rows:
        by_cell.setdefault(row.n, {})[learner] = row.cnq_cum
    print(f"\nk={args.k} m={args.m} seed={args.seed}")
    print(f"{'n':>6} {'exhaustive':>12} {'classify':>10} {'ratio':>8}")
    for n in rounds:
        cell = by_cell.get(n, {})
        tireless = cell.get("tireless", 0)
        conservative = cell.get("conservative", 0)
        ratio = tireless / conservative if conservative else float("nan")
        print(f"{n:>6} {tireless:>12} {conservative:>10} {ratio:>8.1f}")
    for violation in result.violations:
        print(f"violation: {violation}")
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
