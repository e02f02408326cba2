"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import random
import time

import pytest

from helpers import parse_hypothesis, random_super_rules

from razor import (
    CostScore,
    DetectMode,
    Detector,
    LearnConfig,
    find_pointless,
    is_indiscriminate_direct,
    learn,
    least_model,
    oracle_optimal,
    parse_rules,
    render_hypothesis,
    verify_audit,
)
from razor.bench import run_task
from razor.cli import main as cli_main
from razor.generate import ConstraintStore, HypothesisGenerator
from razor.logic import canonicalize_hypothesis, captured, concrete_key
from razor.microtask import random_task, random_program
from razor.oracle import _rule_stratum, enumerate_all
from razor.reference import is_indiscriminate, least_model_naive
from razor.search import CoverageTester

pytestmark = pytest.mark.acceptance

SUITE_SEEDS = range(1, 51)
FIXTURE_NAMES = ["intro", "transitive_gt", "eight_puzzle_mini", "trains_mini"]


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def suite():
    """The seeded random micro-task suite with learn (audit on) and oracle
    results per task."""
    out = []
    for seed in SUITE_SEEDS:
        mt = random_task(seed)
        config = LearnConfig(max_size=mt.search_size,
                             pointless=DetectMode.BOTH, audit=True)
        result = learn(mt.task, config)
        optimum, witnesses = oracle_optimal(mt.task, mt.search_size)
        out.append((mt, result, optimum, witnesses))
    return out


@pytest.fixture(scope="module")
def fixture_bench(fixtures_dir):
    from razor import parse_task

    records = {}
    for name in FIXTURE_NAMES:
        task = parse_task(fixtures_dir / name)
        records[name] = {r["config"]["pointless"]: r for r in run_task(task)}
    return records


def test_criterion_1_intro_optimality(fixtures_dir, intro_task):
    t0 = time.perf_counter()
    result = learn(intro_task)
    elapsed = time.perf_counter() - t0
    optimum, witnesses = oracle_optimal(intro_task, 4)
    target = canonicalize_hypothesis(
        parse_hypothesis("f(A) :- odd(A), gt(A,3), lt(A,8).")
    )
    ok = (
        result.best_score == CostScore(0, 4)
        and optimum == CostScore(0, 4)
        and target in witnesses
        and elapsed < 5.0
    )
    report(1, ok, f"learn={result.best_score} oracle={optimum} "
                  f"witnesses={len(witnesses)} elapsed={elapsed:.2f}s (< 5 s)")


def test_criterion_2_theorem1_equivalence(suite):
    mismatches = [
        (mt.seed, result.best_score, optimum)
        for mt, result, optimum, _ in suite
        if result.best_score != optimum
    ]
    report(2, not mismatches,
           f"{len(suite)} seeded micro-tasks, learn == oracle on "
           f"{len(suite) - len(mismatches)}/{len(suite)}"
           + (f"; first mismatch {mismatches[0]}" if mismatches else ""))


def test_criterion_3_pruning_soundness(suite, fixtures_dir):
    from razor import parse_task

    problems = []
    blocked_total = 0
    for name in FIXTURE_NAMES:
        task = parse_task(fixtures_dir / name)
        result = learn(task, LearnConfig(audit=True))
        blocked_total += len(result.audit_records)
        problems += [f"{name}: {p}" for p in verify_audit(task, result)]
    for mt, result, _, _ in suite:
        blocked_total += len(result.audit_records)
        problems += [f"micro-{mt.seed}: {p}" for p in verify_audit(mt.task, result)]
    report(3, not problems and blocked_total > 0,
           f"{blocked_total} pruned candidates force-tested, "
           f"{len(problems)} violations" +
           (f"; first: {problems[0]}" if problems else ""))


def test_criterion_4_closure_of_detections(suite):
    rng = random.Random(20240817)
    checked = 0
    failures = []
    for mt, result, _, _ in suite:
        task = mt.task
        detector = Detector(least_model(task.bk), task.neg, list(task.constant_domain),
                            DetectMode.BOTH)
        for ev in result.evidence:
            for bigger in random_super_rules(task, ev.rule, rng, 20):
                checked += 1
                found = find_pointless(frozenset({bigger}), detector)
                if not found:
                    failures.append((mt.seed, repr(ev), repr(bigger)))
    report(4, checked > 0 and not failures,
           f"{checked} super-rules of detected evidence re-checked, "
           f"{len(failures)} counterexamples" +
           (f"; first: {failures[0]}" if failures else ""))


def test_criterion_5_def9_alg2_equivalence(suite):
    total = 0
    disagreements = []
    for mt, _, _, _ in suite:
        task = mt.task
        tester = CoverageTester(task.bk, task.pos, task.neg)
        dom = list(task.constant_domain)
        pool = []
        for rule_size in range(2, 2 + min(task.bias.max_body, 3)):
            pool.extend(_rule_stratum(task.bias, rule_size, ceiling=200_000))
        for rule in pool:
            for literal in sorted(rule.body, key=concrete_key):
                if not captured(rule, literal):
                    continue
                total += 1
                by_coverage = is_indiscriminate(tester.model, task.neg, rule, literal)
                by_implication = is_indiscriminate_direct(
                    tester.model, task.neg, rule, literal, dom)
                if by_coverage != by_implication:
                    disagreements.append((mt.seed, repr(rule), repr(literal),
                                          by_coverage, by_implication))
    detail = (f"{total} (rule, captured literal) pairs; "
              f"{len(disagreements)} disagreements "
              f"({100 * (total - len(disagreements)) / total:.2f}% agreement)")
    if disagreements:
        seed, rule, literal, cov, direct = disagreements[0]
        detail += (f"; e.g. micro-{seed} {rule} literal {literal}: "
                   f"coverage-equality={cov}, per-negative implication={direct}"
                   "; the coverage shortcut over-approximates whenever the "
                   "captured literal shares an existential body variable")
    report(5, not disagreements, detail)


def test_criterion_6_paper_quoted_detections(fixtures_dir, capsys):
    cases = [
        ("intro", "intro_reducible.pl", 3, ["reducible:"], ["int(A)"]),
        ("transitive_gt", "gt_transitive.pl", 3, ["reducible:"], ["gt(A,C)"]),
        ("intro", "intro_indiscriminate.pl", 3, ["indiscriminate:"], ["lt(A,10)"]),
        ("eight_puzzle_mini", "puzzle_indiscriminate.pl", 3,
         ["indiscriminate:"] * 3, ["role(B)", "index(C)", "index(D)"]),
        ("intro", "intro_good.pl", 0, [], []),
        ("intro", "member_uncaptured.pl", 0, [], []),
    ]
    problems = []
    for task_name, rules_file, want_code, want_kinds, want_literals in cases:
        code = cli_main(["check", str(fixtures_dir / task_name),
                         str(fixtures_dir / "checks" / rules_file)])
        out = capsys.readouterr().out
        findings = [l for l in out.splitlines() if "redundant literal" in l]
        if code != want_code:
            problems.append(f"{rules_file}: exit {code} != {want_code}")
        if len(findings) != len(want_kinds):
            problems.append(f"{rules_file}: {len(findings)} findings, "
                            f"wanted {len(want_kinds)}: {findings}")
            continue
        for kind in want_kinds:
            if not any(kind in f for f in findings):
                problems.append(f"{rules_file}: no {kind} finding")
        for literal in want_literals:
            if not any(literal in f for f in findings):
                problems.append(f"{rules_file}: literal {literal} not flagged")
    report(6, not problems,
           f"{len(cases)} rule files checked, exact findings" +
           (f"; problems: {problems}" if problems else ""))


def test_criterion_7_ablation_direction(fixture_bench):
    problems = []
    for name, records in fixture_bench.items():
        both = records["both"]["stats"]["generated"]
        red = records["reducible-only"]["stats"]["generated"]
        ind = records["indiscriminate-only"]["stats"]["generated"]
        off = records["off"]["stats"]["generated"]
        if not (both <= red <= off and both <= ind <= off):
            problems.append(f"{name}: counts not monotone "
                            f"(both={both} red={red} ind={ind} off={off})")
        scores = {(r["best_errors"], r["best_size"]) for r in records.values()}
        if len(scores) != 1:
            problems.append(f"{name}: scores differ across configurations {scores}")
        accs = {round(r["balanced_accuracy"], 9) for r in records.values()}
        if len(accs) != 1:
            problems.append(f"{name}: accuracies differ {accs}")
    # regression floor pinned from the first harness run (measured 519/242 = 2.14)
    tg = fixture_bench["transitive_gt"]
    ratio = tg["off"]["stats"]["generated"] / tg["both"]["stats"]["generated"]
    if ratio < 2.0:
        problems.append(f"transitive_gt reduction {ratio:.2f}x below the 2x floor")
    report(7, not problems,
           f"monotone ablations on {len(fixture_bench)} fixtures; "
           f"transitive_gt off/both = {ratio:.2f}x (>= 2.0x)" +
           (f"; problems: {problems}" if problems else ""))


def test_criterion_8_overhead_metric(fixture_bench):
    problems = []
    worst = 0.0
    for name, records in fixture_bench.items():
        for mode, r in records.items():
            s = r["stats"]
            worst = max(worst, s["overhead_fraction"])
            if s["overhead_fraction"] >= 0.5:
                problems.append(f"{name}/{mode}: overhead {s['overhead_fraction']:.3f}")
            recomputed = (s["time_detection"] / s["time_total"]) if s["time_total"] else 0.0
            if not math.isclose(s["overhead_fraction"], recomputed):
                problems.append(f"{name}/{mode}: overhead field mismatch")
    print("note: the corpus-scale mean overhead reported upstream (~2%) is "
          "context only and is not asserted at desk scale")
    report(8, not problems,
           f"overhead fraction < 0.5 on every fixture run (max {worst:.3f}), "
           f"schema consistent" + (f"; problems: {problems}" if problems else ""))


def test_criterion_9_engine_correctness():
    rng = random.Random(99)
    model_mismatches = 0
    for _ in range(100):
        program = random_program(rng)
        m1 = least_model(program)
        m2 = least_model_naive(program)
        s1 = {(k, t) for k in m1._facts for t in m1.tuples(k)}
        s2 = {(k, t) for k in m2._facts for t in m2.tuples(k)}
        if s1 != s2:
            model_mismatches += 1

    stratum_mismatches = 0
    for seed in range(300, 320):
        task = random_task(seed).task
        gen = HypothesisGenerator(task.bias, ConstraintStore())
        for size in range(2, min(task.bias.max_size, 5) + 1):
            got = set()
            while (h := gen.next_hypothesis(size)) is not None:
                got.add(h)
            if got != enumerate_all(task.bias, size):
                stratum_mismatches += 1

    round_trip_failures = 0
    for seed in range(400, 500):
        mt = random_task(seed)
        h = canonicalize_hypothesis(mt.target)
        back = canonicalize_hypothesis(frozenset(parse_rules(render_hypothesis(h))))
        if back != h:
            round_trip_failures += 1

    ok = model_mismatches == 0 and stratum_mismatches == 0 and round_trip_failures == 0
    report(9, ok,
           f"semi-naive == naive on 100 programs ({model_mismatches} diffs); "
           f"generator == oracle strata on 20 biases ({stratum_mismatches} diffs); "
           f"render/parse round-trip on 100 hypotheses ({round_trip_failures} failures)")
