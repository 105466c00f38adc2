"""Command-line interface.

Subcommands::

    run     execute one learning session, emit a per-round CSV ledger
    verify  run with full per-round invariant checking against ground truth
    sweep   play each learner once, reading its row at each of several round counts
    coupon  Monte Carlo rounds-until-coverage vs the exact expectation
    dump    write a template, learned policy, or decision tree as text/DOT

All subcommands accept ``--config <path>`` (a JSON file with the same field
names as the flags); flags override the file.  ``--oracle`` sets verify's
check interval, ``off`` checking every round; only verify reads ground
truth and applies the oracle's vertex limit.  A configuration is checked
when it is made from the file and flags together, before ``--out`` is
opened; a command's own checks (verify's interval and limit, sweep's
counts, coupon's schedule) run before any round or trial is played.  Exit
status 2, after one ``error: ...`` line, means the configuration is
invalid (those checks included), a template cannot be generated or a file
cannot be read or written; 3, after one ``internal error: ...`` line,
means the learner saw a state its algorithm rules out with a truthful
teacher (``LearnerInternalError``).

Every play command (``run``, ``verify``, ``sweep``, ``dump --what
policy|tree``) ends the same way: one ``violation: ...`` line on stderr per
bound or monitor violation (and for a verify that checked no round), then,
if the schedule ran out before ``--rounds``, one ``stopped: schedule
exhausted after N of R rounds`` line, which is no failure; a sweep's are
those of its one play per learner.  Exit status 1 means a violation or a
failed verify check, else 0.  A dump with a violation renders nothing.
``--out`` receives the command's output when the command completes with
some; one that fails or writes nothing leaves an earlier file as it was and
removes a file that its own open created.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from typing import Iterator, TextIO

from .experiments import (
    CouponSummary,
    ExperimentConfig,
    Outcome,
    VerifyReport,
    coupon_experiment,
    run_experiment,
    sweep_experiment,
    verify_experiment,
)
from .graphio import digraph_to_dot, policy_to_dot, policy_to_text
from .learners import LEARNERS, Learner, LearnerInternalError, tree_to_dot, tree_to_text
from .teacher import TemplateGenerationError, generate_template, parse_items, template_to_text


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """The config flags; each stores into the ExperimentConfig field it sets."""
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--learner", choices=LEARNERS)
    parser.add_argument("--k", type=int, help="alphabet size (number of rights)")
    parser.add_argument("--m", type=int, help="number of world domains")
    parser.add_argument(
        "--density", dest="edge_density", metavar="DENSITY", type=float,
        help="template edge density",
    )
    parser.add_argument(
        "--seed", dest="template_seed", metavar="SEED", type=int, help="template seed"
    )
    parser.add_argument(
        "--schedule",
        help="iid-uniform | iid-weighted:p0,p1,... | scripted:d0,d1,... | novel-last:<prefix>",
    )
    parser.add_argument("--rounds", help="round count (comma list for sweep)")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials (coupon)")
    parser.add_argument(
        "--oracle", dest="oracle_checks", metavar="ORACLE", help="off | every | every=<j>"
    )
    parser.add_argument("--out", help="output file path (default: stdout)")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {
        field.name: getattr(args, field.name)
        for field in fields(ExperimentConfig)
        if getattr(args, field.name) is not None
    }
    if args.rounds is not None:
        # a single run plays the first count of the list
        overrides["rounds"] = _round_list(args)[0]
    if args.config:
        return ExperimentConfig.from_file(args.config, **overrides)
    return ExperimentConfig(**overrides)


def _round_list(args: argparse.Namespace) -> list[int]:
    """The round counts of ``--rounds``; only sweep accepts a comma list."""
    if "," in args.rounds and args.command != "sweep":
        raise ValueError(f"--rounds {args.rounds}: only sweep accepts a comma list")
    return parse_items(f"--rounds {args.rounds!r}", args.rounds, int)


@contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The stream a command writes to: stdout, or a buffer for ``out``.
    Commands enter it once their configuration is made and before doing
    any work.  ``out`` is opened for appending, so an unwritable path
    fails at once but nothing is truncated.  The file receives the buffer
    only when the command returns having written some; otherwise an
    earlier file is left as it was and one the open created is removed."""
    if not out:
        yield sys.stdout
        return
    created = not os.path.exists(out)
    with open(out, "a", newline="") as handle:
        buffer, text = io.StringIO(), ""
        try:
            yield buffer
            text = buffer.getvalue()
        finally:
            if text:
                handle.truncate(0)
                handle.write(text)
            elif created:
                os.remove(out)


def _end(outcome: Outcome, rounds: int) -> int:
    """End a play command on stderr: one line per violation, then one if
    the schedule ran out before ``rounds``, which is no failure.  Returns
    the exit status."""
    for violation in outcome.violations:
        print(f"violation: {violation}", file=sys.stderr)
    if outcome.exhausted_after is not None:
        print(
            f"stopped: schedule exhausted after {outcome.exhausted_after} of {rounds} rounds",
            file=sys.stderr,
        )
    return outcome.exit_code


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    with _output(config.out) as stream:
        report = run_experiment(config)
        stream.write(report.to_csv())
    return _end(report, config.rounds)


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    with _output(config.out) as stream:
        report = verify_experiment(config)
        stream.write(_verify_text(report))
    return _end(report, config.rounds)


def _verify_text(report: VerifyReport) -> str:
    lines = []
    for verdict in report.rounds:
        status = "ok" if verdict.passed else "FAIL"
        lines.append(f"round {verdict.round_no}: {status}")
        for failure in verdict.failures:
            lines.append(f"  {failure}")
    lines.append("verify: " + ("all checks passed" if report.all_passed else "FAILED"))
    return "\n".join(lines) + "\n"


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    round_counts = [config.rounds] if args.rounds is None else _round_list(args)
    with _output(config.out) as stream:
        report = sweep_experiment(config, round_counts)
        stream.write(report.to_csv())
    return _end(report, max(round_counts))


def _cmd_coupon(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    with _output(config.out) as stream:
        summary: CouponSummary = coupon_experiment(config)
        if config.out:
            stream.write(summary.to_csv())
    lines = [
        f"domains: {summary.m}",
        f"trials: {summary.trials}",
        f"empirical mean rounds to coverage: {summary.empirical_mean:.6f}",
        f"exact expectation (inclusion-exclusion): {summary.exact_mean:.6f}",
    ]
    if summary.uniform_closed_form is not None:
        lines.append(
            f"uniform closed form m*H_m: {summary.uniform_closed_form:.6f}"
        )
    print("\n".join(lines))
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.what == "tree" and not LEARNERS[config.learner].keeps_tree:
        raise ValueError(f"the {config.learner} learner has no decision tree")
    with _output(config.out) as stream:
        if args.what == "template":
            template = generate_template(
                config.template_seed, config.m, config.k, config.edge_density
            )
            if args.format == "text":
                stream.write(template_to_text(template))
            else:
                stream.write(digraph_to_dot(template.graph))
            return 0
        # policy and tree dumps render the learner of a run without violations
        report = run_experiment(config)
        if not report.violations:
            stream.write(_render(args, report.learner))
    return _end(report, config.rounds)


def _render(args: argparse.Namespace, learner: Learner) -> str:
    if args.what == "policy":
        render = policy_to_text if args.format == "text" else policy_to_dot
        return render(learner.summary, learner.assignment)
    render = tree_to_text if args.format == "text" else tree_to_dot
    return render(learner.tree)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domainlearn",
        description="Active-learning simulator for domain-based policy administration",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, handler in (
        ("run", _cmd_run),
        ("verify", _cmd_verify),
        ("sweep", _cmd_sweep),
        ("coupon", _cmd_coupon),
        ("dump", _cmd_dump),
    ):
        sub = subparsers.add_parser(name)
        _add_config_flags(sub)
        sub.set_defaults(handler=handler)
    dump = subparsers.choices["dump"]
    dump.add_argument("--what", choices=("template", "policy", "tree"), default="template")
    dump.add_argument("--format", choices=("text", "dot"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, TemplateGenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LearnerInternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
