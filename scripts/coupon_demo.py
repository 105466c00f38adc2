#!/usr/bin/env python3
"""Rounds-until-coverage experiment.

After the classify-and-repair strategy has seen one entity from every
protection domain, learning is error-free, so the expected number of rounds
until full coverage bounds the error-accumulating phase.  For a uniform and
a skewed schedule, the script prints a label line, then plays one
``domainlearn coupon`` through ``cli.main``: the Monte Carlo mean against
the exact inclusion-exclusion expectation.  It ends as the CLI does.

Usage: python3 scripts/coupon_demo.py [--trials 20000] [--seed 7]
"""

from __future__ import annotations

import argparse

from domainlearn.cli import main as domainlearn

# label, m, schedule spec and the offset of its seed from --seed
SCHEDULES = (
    ("uniform domains", 5, "iid-uniform", 0),
    ("skewed domains (0.5, 0.3, 0.2)", 3, "iid-weighted:0.5,0.3,0.2", 1),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    for label, m, schedule, offset in SCHEDULES:
        print(f"{label} (m={m}, {args.trials} trials)")
        status = domainlearn(["coupon", f"--m={m}", f"--trials={args.trials}",
                              f"--schedule={schedule}", f"--seed={args.seed + offset}"])
        if status:
            return status
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
