"""domainlearn benchmark: one workload, one process.

    python3 bench/run.py --workload cons-iid --seed 0 --seconds 20 --trace 0

Repeats the workload's block of sessions until ``--seconds`` have passed and
checks every session's query ledger: closed-form bounds and monitor
(``RunReport.violations``), verify verdicts, and the ledger digest against
``reference.json`` when the seed is recorded there, otherwise against the
first block.  The last line of standard output is one JSON object.

With ``--trace 0`` it reports the end-to-end metrics: throughput and round
latency of the round profile (each round's median time over the blocks, see
``harness.round_profile``), the median set-up time in fresh interpreters,
the process's peak RSS and the query counts of one block.  Timings are at
the reference host speed (see ``calibrate``): a fixed kernel runs before
and after every block, and each block's times are divided by the host
factor of the kernel times on both sides of it; set-up time is divided by
the host factor of the kernel times between the set-ups.  The raw figures
are printed too.  With
``--trace 1`` untraced and traced blocks alternate; it reports the per-layer
metrics of the fastest traced block, and the tracing overhead as its wall
time over that of the fastest untraced block.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SOURCES = BENCH.parent / "src" / "domainlearn" / "__init__.py"
SPEC = BENCH.parent / "BENCHMARK.json"
# The first set-ups of a run took up to twice as long as the rest (0.11 s
# against 0.06 s), so two are run and discarded before SETUP_REPEATS.
SETUP_WARMUPS = 2
SETUP_REPEATS = 9
# Host-speed samples: seconds of the calibration kernel after each set-up
# and before the first block, and its share of each untraced block's time
# after that block.
SETUP_CALIBRATION_S = 0.1
FIRST_CALIBRATION_S = 0.2
BLOCK_CALIBRATION_SHARE = 0.15


def time_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds of SETUP_REPEATS set-ups, each in its own interpreter, and
    the calibration kernel's times between them."""
    from calibrate import calibrate

    command = [sys.executable, str(BENCH / "setup_child.py"), workload, str(seed)]
    setups, host_times = [], []
    for _ in range(SETUP_WARMUPS + SETUP_REPEATS):
        out = subprocess.run(command, capture_output=True, text=True, check=True, timeout=120)
        setups.append(float(out.stdout))
        host_times.extend(calibrate(SETUP_CALIBRATION_S))
    return setups[SETUP_WARMUPS:], host_times


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not SOURCES.is_file():
        print(f"bench: {SOURCES} is missing; run from a checkout of domainlearn", file=sys.stderr)
        return 2
    from calibrate import calibrate, host_factor
    from harness import end_to_end, failed_sessions, load_reference, per_layer, run_block, tail_percentile
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    configs = WORKLOADS[args.workload].configs(args.seed)

    setup, setup_host_times = ([], []) if args.trace else time_setup(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    untraced, traced, hosts = [], [], []
    before = [] if args.trace else calibrate(FIRST_CALIBRATION_S)
    start = time.perf_counter()
    while True:
        untraced.append(run_block(configs))
        if tracer is not None:
            traced.append(run_block(configs, tracer))
        else:
            after = calibrate(BLOCK_CALIBRATION_SHARE * untraced[-1].wall_s)
            hosts.append(host_factor(before + after))
            before = after
        # Stop before a repetition that would end past --seconds.
        elapsed = time.perf_counter() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break

    reference = load_reference(args.workload, args.seed)
    expected = reference or untraced[0].digests
    failures = failed_sessions(untraced + traced, expected)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = sum(len(b.digests) for b in untraced + traced)
    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced "
        f"blocks of {len(configs)} sessions; ledger checked against "
        f"{'the recorded reference' if reference else 'the first block'}"
    )

    if tracer is None:
        metrics = end_to_end(untraced, hosts)
        metrics["setup_s"] = statistics.median(setup) / host_factor(setup_host_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        raw = end_to_end(untraced)
        raw["setup_s"] = statistics.median(setup)
        samples = len(untraced[0].intervals)
        print(
            f"round_tail_ms is p{tail_percentile(samples):.2f} of {samples} rounds, each the "
            f"median of {len(untraced)} blocks; setup_s is the median of {len(setup)} set-ups"
        )
        print(
            f"host factor {statistics.median(hosts):.4f} (median over blocks), "
            f"{host_factor(setup_host_times):.4f} over set-ups; unnormalised: "
            + " ".join(f"{name}={raw[name]:.6g}" for name in
                       ("rounds_per_s", "queries_per_s", "round_p50_ms", "round_tail_ms", "setup_s"))
        )
    else:
        metrics = per_layer(min(traced, key=lambda b: b.wall_s))
        metrics["trace.untraced_wall_s"] = min(b.wall_s for b in untraced)
        metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
