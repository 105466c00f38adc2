"""Command-line interface.

Subcommands::

    run     execute one learning session, emit a per-round CSV ledger
    verify  run with full per-round invariant checking against ground truth
    sweep   run both learners over shared seeds for several round counts
    coupon  Monte Carlo rounds-until-coverage vs the exact expectation
    dump    write a template, learned policy, or decision tree as text/DOT

All subcommands accept ``--config <path>`` (a JSON file with the same field
names as the flags); flags override the file.  Exit status is nonzero when a
bound is violated, a monitor violation occurs, or a verify check fails.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .digraph import Alphabet
from .experiments import (
    CouponSummary,
    ExperimentConfig,
    build_session,
    coupon_experiment,
    run_experiment,
    sweep_experiment,
    verify_experiment,
)
from .graphio import digraph_to_dot, policy_to_dot, policy_to_text
from .learners import LEARNER_KINDS, make_learner, tree_to_dot, tree_to_text
from .protocol import ProtocolViolation
from .teacher import TeacherExhausted, generate_template, template_to_text


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--learner", choices=LEARNER_KINDS)
    parser.add_argument("--k", type=int, help="alphabet size (number of rights)")
    parser.add_argument("--m", type=int, help="number of world domains")
    parser.add_argument("--density", type=float, help="template edge density")
    parser.add_argument("--seed", type=int, help="template seed")
    parser.add_argument(
        "--schedule",
        help="iid-uniform | iid-weighted:p0,p1,... | scripted:d0,d1,... | novel-last:<prefix>",
    )
    parser.add_argument("--rounds", help="round count (comma list for sweep)")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials (coupon)")
    parser.add_argument("--oracle", help="off | every | every=<j>")
    parser.add_argument("--out", help="output file path (default: stdout)")


_FLAG_TO_FIELD = {
    "learner": "learner",
    "k": "k",
    "m": "m",
    "density": "edge_density",
    "seed": "template_seed",
    "schedule": "schedule",
    "trials": "trials",
    "oracle": "oracle_checks",
    "out": "out",
}


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {}
    for flag, field_name in _FLAG_TO_FIELD.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field_name] = value
    rounds = getattr(args, "rounds", None)
    if rounds is not None:
        overrides["rounds"] = int(rounds.split(",")[0]) if "," in rounds else int(rounds)
    if args.config:
        return ExperimentConfig.from_file(args.config, **overrides)
    return replace(ExperimentConfig(), **overrides)


def _round_list(args: argparse.Namespace, config: ExperimentConfig) -> list[int]:
    rounds = getattr(args, "rounds", None)
    if rounds is None:
        return [config.rounds]
    return [int(part) for part in rounds.split(",") if part.strip()]


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report = run_experiment(config)
    _emit(report.to_csv(), config.out)
    for violation in report.violations:
        print(f"violation: {violation}", file=sys.stderr)
    return report.exit_code


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if config.oracle_checks == "off":
        config = replace(config, oracle_checks="every")
    report = verify_experiment(config)
    lines = []
    for verdict in report.rounds:
        status = "ok" if verdict.passed else "FAIL"
        lines.append(f"round {verdict.round_no}: {status}")
        for failure in verdict.failures:
            lines.append(f"  {failure}")
    for violation in report.violations:
        lines.append(f"violation: {violation}")
    lines.append("verify: " + ("all checks passed" if report.all_passed else "FAILED"))
    _emit("\n".join(lines) + "\n", config.out)
    return report.exit_code


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report = sweep_experiment(config, _round_list(args, config))
    _emit(report.to_csv(), config.out)
    for violation in report.violations:
        print(f"violation: {violation}", file=sys.stderr)
    return report.exit_code


def _cmd_coupon(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    summary: CouponSummary = coupon_experiment(config)
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
    if config.out:
        _emit(summary.to_csv(), config.out)
        print("\n".join(lines))
    else:
        print("\n".join(lines))
    return 0


def _cmd_dump(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    alphabet = Alphabet.default(config.k)
    template = generate_template(
        config.template_seed, config.m, config.k, config.edge_density
    )
    if args.what == "template":
        if args.format == "text":
            _emit(template_to_text(template, alphabet), config.out)
        else:
            _emit(digraph_to_dot(template.graph, alphabet, name="template"), config.out)
        return 0

    # policy and tree dumps require running the configured learner first
    session, _teacher = build_session(config)
    learner = make_learner(config.learner, session)
    try:
        for _ in range(config.rounds):
            learner.run_round()
    except TeacherExhausted:
        pass
    except ProtocolViolation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    policy = learner.hypothesis
    if args.what == "policy":
        if args.format == "text":
            _emit(policy_to_text(policy.summary, policy.assignment, alphabet), config.out)
        else:
            _emit(policy_to_dot(policy.summary, policy.assignment, alphabet), config.out)
        return 0
    if learner.tree is None:
        print("only the conservative learner has a decision tree", file=sys.stderr)
        return 1
    if args.format == "text":
        _emit(tree_to_text(learner.tree, alphabet), config.out)
    else:
        _emit(tree_to_dot(learner.tree, alphabet), config.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domainlearn",
        description="Active-learning simulator for domain-based policy administration",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, handler, extra in (
        ("run", _cmd_run, None),
        ("verify", _cmd_verify, None),
        ("sweep", _cmd_sweep, None),
        ("coupon", _cmd_coupon, None),
        ("dump", _cmd_dump, "dump"),
    ):
        sub = subparsers.add_parser(name)
        _add_config_flags(sub)
        if extra == "dump":
            sub.add_argument(
                "--what", choices=("template", "policy", "tree"), default="template"
            )
            sub.add_argument("--format", choices=("text", "dot"), default="text")
        sub.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ProtocolViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
