#!/usr/bin/env python3
"""Compare two source trees on the benchmark in alternating pairs.

Runs ``bench/run.py`` of each tree, strictly one run at a time.  Pair i of a
workload uses seed i; the parent runs first in even pairs and the change
first in odd ones, so drift of the host's speed favours neither side.
Then it runs as many ``--trace 1`` pairs per workload, in the same order,
a third as long.  Writes ``BENCH_<label>.json``: per workload and
end-to-end metric, each side's median and quartiles, how many pairs the
change won (ties count for neither), whether that win is a claimable
gain (at least nine tenths of the pairs won, and the medians further apart
than the parent's quartiles) and whether the change's median is worse than
the parent's by more than the metric's ``BENCHMARK.json`` bound (printed
as ``REGRESSION``), and whether the metric is unresolved: the parent's
own spread (its interquartile range over its median) is wider than that
bound, so the runs cannot tell a change within the bound from none,
unless every change run reads better than every parent run (printed as
``UNRESOLVED``); per workload, each side's share of failed sessions
(``REGRESSION`` when the change's is larger), the ``peak_rss_mb``
change per extra untraced block, in KB, fitted over every run of the
workload, and the rise in block count at which ``peak_rss_mb`` would
cross its bound; each per-layer metric's traced median per side; each
side's medians of the host factor and of the unnormalised
``rounds_per_s``, ``round_p50_ms`` and ``round_tail_ms``, read from the
``host factor ... unnormalised: ...`` line of each untraced run and printed
beside the normalised medians, so that a normalisation that favours one
side shows; each side's source size (``src_lines``, the lines of
``src/domainlearn/*.py``, and ``src_code_lines``, those of them that are
not blank, comments or docstrings, in all and per module in
``module_code_lines``, printing the modules whose count changed, so code
moved between modules shows apart from code removed); and every run's raw
output lines and result.

Usage: python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --label LABEL
       --pairs tireless=10,cons-iid=3,cons-adversarial=3,verify=3
       [--seconds 28]

Each directory must be a checkout holding ``bench/`` and ``src/``; in a
``git clone`` at the revision to measure, the record also names each
side's revision and the subjects of the change's commits since the
parent.  The record is written to the current directory.  A SIGTERM, like
Ctrl-C, stops the script and kills the run it is waiting on.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

SIDES = ("parent", "change")
# the metrics whose unnormalised medians are recorded beside the host factor
UNNORMALISED = ("rounds_per_s", "round_p50_ms", "round_tail_ms")
TRACE_SHARE = 1 / 3  # traced pairs run this share of --seconds
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def parse_pairs(text: str) -> dict[str, int]:
    pairs = {}
    for item in text.split(","):
        name, _, count = item.partition("=")
        if not name.strip() or not count.strip().isdigit() or int(count) < 1:
            raise argparse.ArgumentTypeError(f"--pairs item {item!r} is not <workload>=<count>")
        pairs[name.strip()] = int(count)
    return pairs


def git_log(tree: Path, fmt: str, revisions: str = "-1") -> str:
    """``git log --format=<fmt> <revisions>`` in ``tree``, or "unknown"
    outside git or when a revision is not in its history."""
    try:
        out = subprocess.run(
            ["git", "log", f"--format={fmt}", revisions], capture_output=True, text=True,
            cwd=tree, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def src_lines(tree: Path) -> int:
    """The total line count of ``tree``'s ``src/domainlearn/*.py``."""
    return sum(
        len(path.read_text().splitlines()) for path in (tree / "src" / "domainlearn").glob("*.py")
    )


def module_code_lines(tree: Path) -> dict[str, int]:
    """Per module of ``tree``'s ``src/domainlearn/*.py``, by file name, the
    lines that hold code: a line counts when a token other than a comment
    or a line break is on it, unless that token is part of a string
    statement (a docstring)."""
    counts = {}
    for path in sorted((tree / "src" / "domainlearn").glob("*.py")):
        text = path.read_text()
        code: set[int] = set()
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type not in NOT_CODE:
                code.update(range(token.start[0], token.end[0] + 1))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Expr) and isinstance(getattr(node.value, "value", None), str):
                code.difference_update(range(node.lineno, node.end_lineno + 1))
        counts[path.name] = len(code)
    return counts


def src_code_lines(tree: Path) -> int:
    """The code lines of all of ``tree``'s modules (:func:`module_code_lines`)."""
    return sum(module_code_lines(tree).values())


def changed_modules(by_side: dict[str, dict[str, int]]) -> dict[str, tuple[int, int]]:
    """(parent, change) code lines of each module whose count differs
    between the sides, a module missing on one side counting 0 there, in
    module order."""
    parent, change = (by_side[side] for side in SIDES)
    return {
        module: (parent.get(module, 0), change.get(module, 0))
        for module in sorted(parent.keys() | change.keys())
        if parent.get(module, 0) != change.get(module, 0)
    }


def bench_run(tree: Path, workload: str, seed: int, trace: int, seconds: float) -> dict:
    """One bench/run.py of ``tree``; its printed lines and its result."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--trace", str(trace), "--seconds", str(seconds),
    ]
    # The tree's own src/ must be the one imported: drop an inherited path.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    out = subprocess.run(
        command, capture_output=True, text=True, cwd=tree, env=env, timeout=seconds * 4 + 300
    )
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"{tree}: {' '.join(command)} exited {out.returncode}:\n{out.stdout}\n{out.stderr}")
    return {"lines": lines[:-1] + out.stderr.strip().splitlines(), "result": result}


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's quartiles, the change's wins over
    the pairs, its median's relative change, whether the gain is claimable,
    whether the change exceeds the metric's bound and whether the parent's
    spread leaves the metric unresolved; plus blocks, the RSS change per
    extra block, failures, each side's failed share of the attempted
    sessions and whether the change's share is the larger; and each side's
    :func:`unnormalised` medians."""
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    summary: dict = {"pairs": len(by_side["change"])}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["result"]["metrics"][name]["value"] for r in by_side[side]] for side in SIDES}
        wins = sum(
            (change > parent) if higher else (change < parent)
            for parent, change in zip(values["parent"], values["change"])
        )
        stats = {side: quartiles(values[side]) for side in SIDES}
        parent_median = stats["parent"]["median"]
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        median_change = stats["change"]["median"] / parent_median - 1 if parent_median else 0.0
        spread = parent_iqr / parent_median if parent_median else 0.0
        if higher:
            every_run_better = min(values["change"]) > max(values["parent"])
        else:
            every_run_better = max(values["change"]) < min(values["parent"])
        summary[name] = {
            **stats,
            "change_wins": wins,
            "median_change": median_change,
            "gain_claimable": wins >= 0.9 * summary["pairs"]
            and abs(stats["change"]["median"] - parent_median) > parent_iqr,
            "exceeds_bound": (-median_change if higher else median_change) > metric["bound"],
            "unresolved": spread > metric["bound"] and not every_run_better,
        }
    summary["unnormalised"] = {side: unnormalised(by_side[side]) for side in SIDES}
    summary["blocks"] = {side: [blocks(r) for r in by_side[side]] for side in SIDES}
    summary["rss_per_extra_block_kb"] = rss_per_extra_block_kb(runs)
    summary["rss_bound_block_rise"] = rss_bound_block_rise(summary, metrics)
    summary["failed"] = {side: [r["result"]["failed"] for r in by_side[side]] for side in SIDES}
    attempted = {side: sum(r["result"]["attempted"] for r in by_side[side]) for side in SIDES}
    summary["failed_share"] = {
        side: sum(summary["failed"][side]) / max(1, attempted[side]) for side in SIDES
    }
    summary["failed_share_grew"] = summary["failed_share"]["change"] > summary["failed_share"]["parent"]
    return summary


def host_reading(run: dict) -> dict[str, float] | None:
    """The host factor over blocks and the unnormalised UNNORMALISED metrics
    from a run's ``host factor <f> (median over blocks), ...; unnormalised:
    <name>=<value> ...`` line, or None when it printed none."""
    for line in run["lines"]:
        if line.startswith("host factor "):
            raw = dict(item.split("=", 1) for item in line.partition("unnormalised: ")[2].split())
            return {"host_factor": float(line.split()[2]),
                    **{name: float(raw[name]) for name in UNNORMALISED}}
    return None


def unnormalised(runs: list[dict]) -> dict[str, float] | None:
    """The medians of :func:`host_reading` over the runs that printed one,
    or None when none did."""
    readings = [reading for reading in map(host_reading, runs) if reading is not None]
    if not readings:
        return None
    return {name: statistics.median(r[name] for r in readings) for name in readings[0]}


def blocks(run: dict) -> int | None:
    match = re.search(r": (\d+) untraced", run["lines"][0] if run["lines"] else "")
    return int(match.group(1)) if match else None


def median_blocks(counts: list[int | None]) -> float:
    """The median of the known block counts, or NaN if none is known."""
    known = [count for count in counts if count is not None]
    return statistics.median(known) if known else float("nan")


def rss_per_extra_block_kb(runs: list[dict]) -> float | None:
    """The least-squares slope of ``peak_rss_mb`` on untraced block count,
    in KB per block, fitted over every run whose block count is known, both
    sides pooled: a figure near what the harness keeps per block says that
    a ``peak_rss_mb`` move is the harness's retention of the extra blocks,
    not the simulator's memory.  With one run per side it is the change in
    ``peak_rss_mb`` over the change in block count.  None when
    ``peak_rss_mb`` is not measured or fewer than two distinct block counts
    are known."""
    points = []
    for run in runs:
        count, metrics = blocks(run), run["result"]["metrics"]
        if count is not None and "peak_rss_mb" in metrics:
            points.append((count, metrics["peak_rss_mb"]["value"]))
    if len({count for count, _ in points}) < 2:
        return None
    counts, rss = zip(*points)
    return statistics.linear_regression(counts, rss).slope * 1024


def rss_bound_block_rise(summary: dict, metrics: list[dict]) -> float | None:
    """The rise in untraced block count, as a share of the parent's
    median, at which ``peak_rss_mb`` would cross its bound if every extra
    block kept ``rss_per_extra_block_kb``: bound x parent median
    ``peak_rss_mb`` x 1024 / KB per extra block / parent median blocks.
    A change that only speeds the simulator runs about that many more
    blocks at that much more ``rounds_per_s``.  None when the KB per extra
    block is unknown or not positive."""
    per_block = summary["rss_per_extra_block_kb"]
    if per_block is None or per_block <= 0:
        return None
    bound = next(m["bound"] for m in metrics if m["name"] == "peak_rss_mb")
    rss = summary["peak_rss_mb"]["parent"]["median"]
    return bound * rss * 1024 / per_block / median_blocks(summary["blocks"]["parent"])


def stop(signum: int, frame) -> None:
    """Raise on a signal, so the run being waited on is killed on the way out."""
    raise SystemExit(128 + signum)


def main() -> int:
    # subprocess.run kills its child on any exception, as it does on Ctrl-C;
    # without this a SIGTERM would leave the bench/run.py child running.
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=parse_pairs, required=True, help="<workload>=<count>,...")
    parser.add_argument("--seconds", type=float, default=28)
    args = parser.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    lengths = {0: args.seconds, 1: args.seconds * TRACE_SHARE}
    runs: list[dict] = []
    for workload, count in args.pairs.items():
        for trace, seconds in lengths.items():
            for seed in range(count):
                for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
                    run = bench_run(trees[side], workload, seed, trace, seconds)
                    runs.append({"side": side, "workload": workload, "seed": seed,
                                 "trace": trace, "seconds": seconds, **run})
                    print(f"{workload} pair {seed} trace {trace} {side}: "
                          f"failed {run['result']['failed']}", flush=True)

    parent_revision = git_log(trees["parent"], "%H")
    untraced = [r for r in runs if r["trace"] == 0]
    summary = {
        workload: summarise([r for r in untraced if r["workload"] == workload], spec["end_to_end"])
        for workload in args.pairs
    }
    traced = {
        workload: {
            metric: {
                side: statistics.median(
                    r["result"]["metrics"][metric]["value"] for r in runs
                    if r["trace"] == 1 and r["workload"] == workload and r["side"] == side
                )
                for side in SIDES
            }
            for metric in (m["name"] for m in spec["per_layer"])
        }
        for workload in args.pairs
    }
    record = {
        "label": args.label,
        "change": "; ".join(
            reversed(git_log(trees["change"], "%s", f"{parent_revision}..HEAD").splitlines())
        ),
        "parent_revision": parent_revision,
        "change_revision": git_log(trees["change"], "%H"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host": f"{platform.machine()} {platform.system()}; timings are host-normalised by bench/calibrate.py",
        "command": "python3 bench/run.py --workload <workload> --seed <seed> --trace <trace> --seconds <seconds>",
        "protocol": (
            "Runs were strictly sequential. Pair i used seed i, with the parent first in even "
            f"pairs and the change first in odd ones, all at {args.seconds:g} s. Then as many "
            f"trace 1 pairs per workload, in the same order, at {lengths[1]:g} s; 'traced' "
            "holds each per-layer metric's median."
        ),
        "repeats": dict(args.pairs),
        "src_lines": {side: src_lines(trees[side]) for side in SIDES},
        "src_code_lines": {side: src_code_lines(trees[side]) for side in SIDES},
        "module_code_lines": {side: module_code_lines(trees[side]) for side in SIDES},
        "summary": summary,
        "traced": traced,
        "runs": runs,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    for name in ("src_lines", "src_code_lines"):
        lines = record[name]
        print(f"  {name} parent {lines['parent']} change {lines['change']} "
              f"({lines['change'] - lines['parent']:+d})")
    for module, (parent, change) in changed_modules(record["module_code_lines"]).items():
        print(f"    {module} parent {parent} change {change} ({change - parent:+d})")
    for workload, entry in summary.items():
        raw = entry["unnormalised"]
        for metric in (m["name"] for m in spec["end_to_end"]):
            parent, change = entry[metric]["parent"], entry[metric]["change"]
            blocks_note = ""
            if metric == "peak_rss_mb":
                parent_blocks, change_blocks = (median_blocks(entry["blocks"][side]) for side in SIDES)
                blocks_note = f", blocks {parent_blocks:g} -> {change_blocks:g}"
                per_block = entry["rss_per_extra_block_kb"]
                if per_block is not None:
                    blocks_note += f", {per_block:.3g} KB per extra block"
                rise = entry["rss_bound_block_rise"]
                if rise is not None:
                    blocks_note += f", bound at {rise:+.0%} blocks"
            raw_note = ""
            if metric in UNNORMALISED and raw["parent"] and raw["change"]:
                raw_note = (f"; unnormalised parent {raw['parent'][metric]:.5g} "
                            f"change {raw['change'][metric]:.5g}")
            print(f"  {workload:17} {metric:14} parent {parent['median']:12.5g} "
                  f"change {change['median']:12.5g} ({entry[metric]['median_change']:+.1%}, "
                  f"wins {entry[metric]['change_wins']}/{entry['pairs']}"
                  f"{', claimable' if entry[metric]['gain_claimable'] else ''}{blocks_note})"
                  f"{' REGRESSION' if entry[metric]['exceeds_bound'] else ''}"
                  f"{' UNRESOLVED' if entry[metric]['unresolved'] else ''}{raw_note}")
        if raw["parent"] and raw["change"]:
            print(f"  {workload:17} {'host_factor':14} parent {raw['parent']['host_factor']:12.5g} "
                  f"change {raw['change']['host_factor']:12.5g}")
        share = entry["failed_share"]
        print(f"  {workload:17} {'failed_share':14} parent {share['parent']:12.5g} "
              f"change {share['change']:12.5g}{' REGRESSION' if entry['failed_share_grew'] else ''}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
