"""Command-line entry points: learn, check, oracle and bench.

Exit codes: 0 success, 2 usage or parse error (including oracle ceiling
refusals), 3 linter findings from `check`, 4 timeout with no result,
5 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import run_record, run_suite, write_csv, write_json
from .datalog import least_model
from .logic import canonicalize_hypothesis
from .oracle import DEFAULT_CEILING, OracleCeilingError, oracle_optimal
from .pointless import DetectMode, Detector, find_pointless
from .search import LearnConfig, TIMEOUT, learn
from .taskio import (
    TaskError,
    parse_rules,
    parse_task,
    read_text,
    render_evidence,
    render_hypothesis,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_FINDINGS = 3
EXIT_TIMEOUT = 4
EXIT_INTERNAL = 5

_POINTLESS_FLAGS = {
    "on": DetectMode.BOTH,
    "off": DetectMode.OFF,
    "reducible-only": DetectMode.REDUCIBLE_ONLY,
    "indiscriminate-only": DetectMode.INDISCRIMINATE_ONLY,
}


def _at_least(convert, low):
    """An argparse type: the converted text, refused below low."""
    def parse(text: str):
        value = convert(text)
        if not value >= low:  # also refuses nan
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse's message for unparsable text uses it
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="razor",
        description="Learn optimal definite-program hypotheses, pruning "
                    "redundant and indiscriminate rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_learn = sub.add_parser("learn", help="search a task for an optimal hypothesis")
    p_learn.add_argument("task", help="task directory (bias.pl, bk.pl, exs.pl)")
    p_learn.add_argument("--max-size", type=_at_least(int, 2), default=None)
    p_learn.add_argument("--timeout", type=_at_least(float, 0), default=None, help="seconds")
    p_learn.add_argument("--pointless", choices=sorted(_POINTLESS_FLAGS), default="on")
    p_learn.add_argument("--noisy", action="store_true",
                         help="drop failure-driven constraints (sound on noisy data)")
    p_learn.add_argument("--audit", action="store_true",
                         help="force-test every candidate blocked by pointless pruning")
    p_learn.add_argument("--stats", type=Path, default=None, help="write a JSON stats record")
    p_learn.add_argument("--seed", type=int, default=None,
                         help="recorded as config.seed in the stats record; "
                              "the search itself is deterministic")

    p_check = sub.add_parser("check", help="report pointless rules in a ruleset")
    p_check.add_argument("task", help="task directory providing BK and examples")
    p_check.add_argument("rules", help="file of rules to check")

    p_oracle = sub.add_parser("oracle", help="brute-force certified optimum")
    p_oracle.add_argument("task")
    p_oracle.add_argument("--max-size", type=_at_least(int, 2), default=None)
    p_oracle.add_argument("--ceiling", type=_at_least(int, 1), default=DEFAULT_CEILING)

    p_bench = sub.add_parser("bench", help="run the ablation harness on a suite")
    p_bench.add_argument("suite", help="directory of task directories")
    p_bench.add_argument("--out", type=Path, required=True, help="JSON output path")
    p_bench.add_argument("--csv", type=Path, default=None, help="optional CSV flattening")
    p_bench.add_argument("--repeats", type=_at_least(int, 1), default=1)
    p_bench.add_argument("--timeout", type=_at_least(float, 0), default=None)
    p_bench.add_argument("--noisy", action="store_true")
    return parser


def _cmd_learn(args) -> int:
    task = parse_task(args.task)
    config = LearnConfig(
        max_size=args.max_size,
        timeout=args.timeout,
        pointless=_POINTLESS_FLAGS[args.pointless],
        audit=args.audit,
        noisy=args.noisy,
        seed=args.seed,
    )
    result = learn(task, config)

    if args.stats is not None:
        record = run_record(task.name, config, result)
        args.stats.write_text(json.dumps(record, indent=2) + "\n")

    if result.best is None:
        print("no hypothesis found before the timeout")
        return EXIT_TIMEOUT if result.termination == TIMEOUT else EXIT_OK

    print(render_hypothesis(result.best))
    score = result.best_score
    print(f"cost: errors={score.errors} size={score.literals} ({result.termination})")
    stats = result.stats
    print(
        f"generated={stats.generated} tested={stats.tested} "
        f"time={stats.time_total:.3f}s detection={stats.time_detection:.3f}s"
    )
    if stats.noiseless_violated:
        print("noiseless assumption violated: no zero-error hypothesis in the space, "
              "so the failure constraints may have pruned the optimum (try --noisy)")

    if config.audit:
        from .reference import verify_audit  # not loaded unless audited

        problems = verify_audit(task, result)
        for p in problems:
            print(f"AUDIT VIOLATION: {p}", file=sys.stderr)
        if problems:
            return EXIT_INTERNAL
        print(f"audit: {len(result.audit_records)} pruned candidates and "
              f"{len(result.ban_records)} bans verified")
    return EXIT_OK


def _cmd_check(args) -> int:
    task = parse_task(args.task)
    rules = parse_rules(read_text(args.rules), task, path=str(args.rules))
    # the admit-all detector: the user's rules may have any head, which no
    # coverage pack over the task's examples serves
    detector = Detector(least_model(task.bk), task.neg, list(task.constant_domain))
    findings = find_pointless(canonicalize_hypothesis(rules), detector)
    # an indiscriminate claim with no matching negative examples is vacuous
    # and not worth reporting to a user
    findings = [ev for ev in findings if not ev.vacuous]
    for ev in findings:
        print(render_evidence(ev))
    if findings:
        print(f"{len(findings)} pointless literal(s) found")
        return EXIT_FINDINGS
    print("no pointless literals found")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    task = parse_task(args.task)
    max_size = args.max_size if args.max_size is not None else task.bias.max_size
    best, witnesses = oracle_optimal(task, max_size, ceiling=args.ceiling)
    print(f"optimum: errors={best.errors} size={best.literals} "
          f"({len(witnesses)} witness(es))")
    for h in sorted(witnesses, key=lambda h: render_hypothesis(h)):
        print("---")
        print(render_hypothesis(h))
    return EXIT_OK


def _cmd_bench(args) -> int:
    records = run_suite(args.suite, repeats=args.repeats,
                        timeout=args.timeout, noisy=args.noisy)
    write_json(records, args.out)
    if args.csv is not None:
        write_csv(records, args.csv)
    for r in records:
        if r["error"]:
            print(f"{r['task']}: ERROR {r['error']}", file=sys.stderr)
            continue
        acc = r["balanced_accuracy"]
        print(
            f"{r['task']} [{r['config']['pointless']}] errors={r['best_errors']} "
            f"size={r['best_size']} generated={r['stats']['generated']} "
            f"overhead={r['stats']['overhead_fraction']:.3f} "
            f"accuracy={'n/a' if acc is None else format(acc, '.3f')}"
        )
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "learn":
            return _cmd_learn(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "bench":
            return _cmd_bench(args)
        parser.error(f"unknown command {args.command!r}")
    except TaskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OracleCeilingError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # pragma: no cover - invariant breaches
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
