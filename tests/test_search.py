import dataclasses
import gc
import random
import time

import pytest

from helpers import (bench_chain_tasks, chain_task, checked_learn, ground, lit,
                     parse_hypothesis, parse_rule, random_goal_program, rule_ids)

from razor import (
    Const,
    CostScore,
    DetectMode,
    Detector,
    LearnConfig,
    LearnResult,
    find_pointless,
    learn,
    least_model,
    parse_task,
    render_hypothesis,
    verify_audit,
)
from razor import generate, search
from razor.deadline import DeadlineExceeded
from razor.generate import ConstraintStore, HypothesisGenerator
from razor.search import EXHAUSTED, PERFECT, TIMEOUT, build_cons, CoverageTester
from razor.logic import hypothesis_size
from razor.microtask import random_task
from razor.oracle import _rule_stratum
from razor.reference import find_pointless_ungated
from razor.taskio import parse_task_strings


# ---------------------------------------------------------------------------
# cost scores
# ---------------------------------------------------------------------------

def test_cost_score_lexicographic_order():
    assert CostScore(0, 5) < CostScore(1, 2)
    assert CostScore(1, 2) < CostScore(1, 3)
    assert not CostScore(1, 2) < CostScore(1, 2)


def test_score_examples(intro_task):
    score = CoverageTester(intro_task.bk, intro_task.pos, intro_task.neg).score
    assert score(parse_hypothesis("f(A) :- odd(A), int(A).")) == (2, 3)
    assert score(frozenset()) == (2, 0)
    assert score(parse_hypothesis("f(A) :- odd(A), gt(A,3), lt(A,8).")) == (0, 4)


# ---------------------------------------------------------------------------
# build_cons
# ---------------------------------------------------------------------------

def _kinds(cons):
    return sorted(c.kind.value for c in cons)


# a tested hypothesis itself gets no constraint: the generator never
# offers it again

def test_build_cons_missed_positive_dooms_specialisations():
    h = parse_hypothesis("f(A) :- even(A).")
    cons = build_cons(h, fn=2, fp=0)
    assert _kinds(cons) == ["specialisation"]


def test_build_cons_covered_negative_dooms_generalisations():
    h = parse_hypothesis("f(A) :- odd(A), int(A).")
    cons = build_cons(h, fn=0, fp=2)
    assert _kinds(cons) == ["generalisation"]


def test_build_cons_perfect_hypothesis_gets_no_constraint():
    h = parse_hypothesis("f(A) :- odd(A).")
    assert build_cons(h, fn=0, fp=0) == []


def test_build_cons_noisy_mode_stores_no_constraint():
    h = parse_hypothesis("f(A) :- odd(A).")
    assert build_cons(h, fn=2, fp=1, noisy=True) == []


def test_build_cons_one_rule_bias_gets_no_generalisation_constraint():
    # every generalisation of a one-rule hypothesis was offered before it
    h = parse_hypothesis("f(A) :- odd(A), int(A).")
    assert _kinds(build_cons(h, fn=0, fp=2, max_rules=1)) == []
    assert _kinds(build_cons(h, fn=1, fp=2, max_rules=1)) == ["specialisation"]
    assert _kinds(build_cons(h, fn=0, fp=2, max_rules=2)) == ["generalisation"]


# ---------------------------------------------------------------------------
# learn
# ---------------------------------------------------------------------------

def test_learn_intro_finds_minimal_perfect_hypothesis(intro_task):
    result = learn(intro_task)
    assert result.best_score == CostScore(0, 4)
    assert result.termination == PERFECT
    assert hypothesis_size(result.best) == 4


def test_learn_pruning_preserves_score_and_reduces_candidates(intro_task):
    both = learn(intro_task, LearnConfig(pointless=DetectMode.BOTH))
    off = learn(intro_task, LearnConfig(pointless=DetectMode.OFF))
    assert both.best_score == off.best_score
    assert both.stats.generated < off.stats.generated


def test_learn_exhausts_small_bounds(intro_task):
    from razor import oracle_optimal

    result = learn(intro_task, LearnConfig(max_size=3))
    assert result.termination == EXHAUSTED
    assert result.best_score.errors > 0
    best, _ = oracle_optimal(intro_task, 3)
    assert result.best_score == best


def test_learn_timeout_returns_best_seen(intro_task):
    result = learn(intro_task, LearnConfig(timeout=0.0))
    assert result.termination == TIMEOUT
    assert result.best is None and result.best_score is None


def test_learn_timeout_is_honoured_during_stratum_assembly(puzzle_task):
    # learn hands its deadline to the generator.  Under max_body(4),
    # eight_puzzle_mini's size-5 stratum holds 24,075 rules and takes far
    # longer than the timeout to assemble, and it is the first thing a
    # size-5 stream does, so the deadline lands inside the assembly
    bias = dataclasses.replace(puzzle_task.bias, max_body=4)
    gen = HypothesisGenerator(bias, ConstraintStore())
    # after the rest of the suite a full collection takes 0.15-0.25 s;
    # collecting first keeps one out of the timed window
    gc.collect()
    t0 = time.perf_counter()
    gen.deadline = t0 + 0.05
    with pytest.raises(DeadlineExceeded):
        gen.next_hypothesis(5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.05 + 0.2
    assert gen.nodes_explored > 0 and gen.considered == 0
    assert 5 not in gen._strata  # a stratum cut short is not cached


_CHAIN_TASK = (
    "head_pred(p,2). body_pred(e,2). max_vars(3). max_body(2). max_rules(2). enable_recursion.",
    " ".join(f"e({i},{i + 1})." for i in range(8)),
    "pos(p(0,3)). pos(p(2,7)). pos(p(4,5)). neg(p(3,0)). neg(p(5,5)). neg(p(7,2)).",
)


def test_rule_masks_split_one_mask_into_positives_then_negatives():
    task = parse_task_strings(
        "head_pred(f,1). body_pred(odd,1). max_vars(1). max_body(1). max_rules(1).",
        "odd(3). odd(5). odd(7).",
        "pos(f(1)).",
    )
    tester = CoverageTester(task.bk, [ground("f", 3), ground("f", 4), ground("f", 5)],
                            [ground("f", 7), ground("f", 2)])
    assert tester.rule_masks(parse_rule("f(A) :- odd(A).")) == (0b101, 0b01)


def test_pass_through_restriction_keeps_the_recursive_masks():
    # recursive goal/2 hypotheses, heads with a repeated variable or a
    # constant among them, over backgrounds that hold goal/2 facts: the
    # masks read from the fixpoint cut to the examples' values at the
    # pass-through positions equal those of the whole model
    rng = random.Random(43)
    restricted = 0
    for _ in range(200):
        bk, h = random_goal_program(rng, any_head=True)
        if not CoverageTester._is_recursive(h):
            continue
        consts = sorted({t.name for r in bk for t in r.head.args if isinstance(t, Const)})
        pairs = [ground("goal", a, b) for a in consts for b in consts]
        examples = rng.sample(pairs, rng.randint(1, 6))
        split = rng.randint(0, len(examples))
        pos, neg = examples[:split], examples[split:]
        model = least_model([*bk, *h])
        expected = tuple(sum(1 << i for i, e in enumerate(exs) if model.contains(e))
                         for exs in (pos, neg))
        assert CoverageTester(bk, pos, neg).masks(h) == expected, h
        restricted += search.pass_through(h, ("goal", 2)) != ()
    assert restricted > 20


def test_closure_fixpoint_is_cut_to_the_examples_values(monkeypatch):
    # on the 200-node task of the benchmark's recursive-chain workload the
    # closure passes its second argument through, and only the facts
    # whose second argument is an example's are derived; the reversed
    # closure passes nothing through and derives the whole relation
    task = bench_chain_tasks(1)[2]
    tester = CoverageTester(task.bk, task.pos, task.neg)
    closure = parse_hypothesis("reach(A,B) :- edge(A,B). reach(A,B) :- edge(A,C), reach(C,B).")
    reversed_closure = parse_hypothesis(
        "reach(A,B) :- edge(A,B). reach(A,B) :- edge(A,C), reach(B,C).")
    runs = []
    real = search.least_model

    def recording(program, base=None, deadline=None):
        model = real(program, base=base, deadline=deadline)
        runs.append((frozenset(program), base, len(model.tuples(("reach", 2)))))
        return model

    monkeypatch.setattr(search, "least_model", recording)
    for h in (closure, reversed_closure):
        full = real(h, base=tester.model)
        expected = tuple(sum(1 << i for i, e in enumerate(exs) if full.contains(e))
                         for exs in (tester.pos, tester.neg))
        assert tester.masks(h) == expected
    (cut, cut_base, cut_facts), (whole, whole_base, whole_facts) = runs
    assert search.pass_through(closure, ("reach", 2)) == (1,)
    assert cut != closure and cut_base is not tester.model
    assert cut_facts == 4888 < len(real(closure, base=tester.model).tuples(("reach", 2))) == 19900
    assert search.pass_through(reversed_closure, ("reach", 2)) == ()
    assert (whole, whole_base, whole_facts) == (reversed_closure, tester.model, 25236)


def test_tester_refuses_examples_of_two_predicates():
    with pytest.raises(ValueError, match="more than one predicate"):
        CoverageTester([], [ground("f", 3)], [ground("g", 5)])


def test_recursive_testing_checks_the_deadline():
    task = parse_task_strings(*_CHAIN_TASK)
    closure = parse_hypothesis("p(A,B) :- e(A,B). p(A,B) :- e(A,C), p(C,B).")
    tester = CoverageTester(task.bk, task.pos, task.neg, deadline=0.0)
    with pytest.raises(DeadlineExceeded):
        tester.masks(closure)
    # a non-recursive hypothesis runs no fixpoint
    assert tester.masks(parse_hypothesis("p(A,B) :- e(A,B).")) == (0b100, 0)


def test_recursive_hypothesis_masks_come_from_its_fixpoint():
    # b/2 has no facts and nothing derives it, so the rule needing it
    # never fires; a lone recursive rule needs p, which only it derives
    task = parse_task_strings(
        "head_pred(p,2). body_pred(e,2). body_pred(b,2). max_vars(3). max_body(2). "
        "max_rules(2). enable_recursion.", *_CHAIN_TASK[1:])
    tester = CoverageTester(task.bk, task.pos, task.neg)
    base = parse_hypothesis("p(A,B) :- e(A,B).")
    blocked = parse_hypothesis("p(A,B) :- b(A,C), p(C,B).")
    recursive = parse_hypothesis("p(A,B) :- e(A,C), p(C,B).")
    assert tester.masks(recursive) == tester.masks(blocked) == (0, 0)
    assert tester.masks(recursive | blocked) == (0, 0)
    assert tester.masks(base | blocked) == (0b100, 0)
    assert tester.masks(base | recursive) == (0b111, 0)


def test_learn_times_out_when_testing_passes_the_deadline(monkeypatch):
    task = parse_task_strings(*_CHAIN_TASK)
    assert learn(task).termination == PERFECT
    real = CoverageTester.masks

    def expiring(self, h):
        if self._is_recursive(h):
            self.deadline = 0.0
        return real(self, h)

    monkeypatch.setattr(CoverageTester, "masks", expiring)
    result = learn(task)
    assert result.termination == TIMEOUT
    assert result.stats.tested > 0
    assert result.best is not None and not CoverageTester._is_recursive(result.best)


def test_learn_times_out_when_detection_passes_the_deadline(monkeypatch, intro_task):
    # the first detection sleeps until the deadline has passed; learn must
    # stop there with the best hypothesis tested so far
    from razor import search

    real = search.find_pointless
    raised = []

    def slow(*args, deadline, **kwargs):
        time.sleep(max(0.0, deadline - time.perf_counter()) + 0.01)
        try:
            return real(*args, deadline=deadline, **kwargs)
        except DeadlineExceeded:
            raised.append(True)
            raise

    monkeypatch.setattr(search, "find_pointless", slow)
    result = learn(intro_task, LearnConfig(timeout=0.5, noisy=True))
    assert raised == [True]
    assert result.termination == TIMEOUT
    assert result.stats.tested == 1 and result.best is not None


def test_learn_times_out_inside_gated_detection(monkeypatch, intro_task):
    # the first implication test that the coverage gate lets through
    # sleeps until the deadline has passed; the check before the next
    # negative or captured literal must stop learn there
    from razor import pointless, search

    real_find, real_implies = search.find_pointless, pointless.implies
    deadlines, raised = [], []

    def gated(*args, deadline, detector, **kwargs):
        assert detector is not None
        deadlines.append(deadline)
        try:
            return real_find(*args, deadline=deadline, detector=detector, **kwargs)
        except DeadlineExceeded:
            raised.append(True)
            raise

    def slow(*args, **kwargs):
        time.sleep(max(0.0, deadlines[-1] - time.perf_counter()) + 0.01)
        return real_implies(*args, **kwargs)

    monkeypatch.setattr(search, "find_pointless", gated)
    monkeypatch.setattr(pointless, "implies", slow)
    result = learn(intro_task, LearnConfig(timeout=0.5, noisy=True))
    assert raised == [True]
    assert result.termination == TIMEOUT
    assert result.best is not None


_CLOSURE_BK_TASK = (
    "head_pred(p,2). body_pred(reach,2). max_vars(2). max_body(1). max_rules(1).",
    " ".join(f"e({i},{i + 1})." for i in range(8))
    + " reach(A,B) :- e(A,B). reach(A,B) :- e(A,C), reach(C,B).",
    "pos(p(0,3)). neg(p(3,0)).",
)


def test_learn_times_out_while_building_the_bk_model(monkeypatch):
    task = parse_task_strings(*_CLOSURE_BK_TASK)
    with pytest.raises(DeadlineExceeded):
        CoverageTester(task.bk, task.pos, task.neg, deadline=0.0)

    def unreachable(self, size):
        raise AssertionError("the generator ran after the BK model timed out")

    monkeypatch.setattr(HypothesisGenerator, "next_hypothesis", unreachable)
    result = learn(task, LearnConfig(timeout=0.0))
    assert result.termination == TIMEOUT
    assert result.best is None and result.best_score is None
    assert result.stats.tested == 0


def test_learn_empty_hypothesis_is_the_baseline():
    # nothing in the space covers the positive example
    task = parse_task_strings(
        "head_pred(f,1). body_pred(p,1). max_vars(1). max_body(1). max_rules(1).",
        "p(1). p(2).",
        "pos(f(9)). neg(f(1)).",
    )
    result = learn(task)
    assert result.best == frozenset()
    assert result.best_score == CostScore(1, 0)
    assert result.termination == EXHAUSTED


def test_empty_hypothesis_is_scored_on_what_the_background_covers():
    # under enable_recursion the background may hold facts of the target:
    # here f(1), a positive, and f(2) and f(5), two negatives
    from razor import oracle_optimal

    bias = ("head_pred(f,1). body_pred(p,1). body_pred(q,1). max_vars(1). "
            "max_body(1). enable_recursion.")
    task = parse_task_strings(bias, "f(1). f(2). f(5). p(3). q(4).",
                              "pos(f(1)). pos(f(3)). neg(f(2)). neg(f(5)). neg(f(4)).")
    assert CoverageTester(task.bk, task.pos, task.neg).score(frozenset()) == (3, 0)
    result = learn(task)
    assert render_hypothesis(result.best) == "f(A) :- p(A)."
    assert result.best_score == CostScore(2, 2)
    # a background with target facts: no candidate is skipped for having
    # no base rule
    s = result.stats
    assert (s.generated, s.considered, s.baseless) == (3, 3, 0)
    assert oracle_optimal(task, 2)[0] == CostScore(2, 2)
    # when the background alone classifies every example, nothing is tested
    task = parse_task_strings(bias, "f(1). p(3).", "pos(f(1)). neg(f(3)).")
    result = learn(task)
    assert (result.best, result.best_score) == (frozenset(), CostScore(0, 0))
    assert result.termination == PERFECT
    assert result.stats.tested == 0
    assert oracle_optimal(task, 2) == (CostScore(0, 0), {frozenset()})


def test_recursive_one_rule_bias_offers_no_recursive_candidate(monkeypatch):
    # under max_rules(1) a recursive hypothesis is one rule with a target
    # literal in its body: with no target fact in the background it can
    # derive nothing, and the generator offers none
    task = parse_task_strings(
        """head_pred(reach,1). body_pred(start,1). body_pred(edge,2).
           max_vars(2). max_body(2). max_rules(1). enable_recursion.""",
        "start(1). edge(1,2). edge(2,3). edge(3,4). edge(9,9).",
        "pos(reach(1)). pos(reach(2)). neg(reach(9)). neg(reach(5)).")
    emitted, _ = _emitted(monkeypatch, task, LearnConfig(noisy=True))
    assert emitted and not any(map(CoverageTester._is_recursive, emitted))
    # a generator that is not told offers them
    gen, offered = HypothesisGenerator(task.bias, ConstraintStore()), []
    for size in range(2, task.bias.max_size + 1):
        while (h := gen.next_hypothesis(size)) is not None:
            offered.append(h)
    assert any(map(CoverageTester._is_recursive, offered))


def test_learn_stats_are_consistent(intro_task):
    result = learn(intro_task, LearnConfig(pointless=DetectMode.BOTH))
    s = result.stats
    assert s.tested <= s.generated <= s.considered
    assert s.time_detection <= s.time_total
    assert s.time_testing <= s.time_total
    assert 0 < s.time_stratum <= s.time_total
    assert 0 <= s.time_check <= s.time_total
    assert sum(s.evidence.values()) <= s.tested
    assert set(s.constraints) == {"specialisation", "generalisation", "pointless-super-rule"}
    # intro has one rule per hypothesis: no generalisation constraint
    assert s.constraints["generalisation"] == 0


def test_learn_stores_generalisation_constraints_under_a_multi_rule_bias():
    mt = random_task(1, recursion=True)
    assert mt.task.bias.max_rules == 2
    s = learn(mt.task, LearnConfig(max_size=mt.search_size)).stats
    assert s.constraints["generalisation"] > 0


def test_learn_is_deterministic(intro_task):
    r1 = learn(intro_task)
    r2 = learn(intro_task)
    assert r1.best == r2.best
    assert r1.best_score == r2.best_score
    assert r1.stats.generated == r2.stats.generated
    assert r1.stats.tested == r2.stats.tested
    assert [repr(e) for e in r1.evidence] == [repr(e) for e in r2.evidence]


# per fixture under the default config: generated, tested, considered,
# nodes explored (bodies built by stratum assembly, see
# HypothesisGenerator), the literals and pairs the background model bans,
# the returned hypothesis, the stored specialisation and generalisation
# constraints (none of the latter: every fixture has one rule per
# hypothesis), the reducible and indiscriminate evidence and the stored
# pointless constraints.  A speed-up that loses pruning moves one of them.
FIXTURE_COUNTERS = {
    "intro": (100, 100, 150, 588, 63, "f(A) :- gt(A,3), lt(A,8), odd(A).", 2, 0, 0, 4, 4),
    "transitive_gt": (156, 156, 242, 774, 94, "f(A) :- gt(A,B), gt(B,C), gt(C,D).",
                      4, 0, 1, 0, 1),
    "eight_puzzle_mini": (150, 150, 174, 621, 90,
                          "legal_move(A,B,C,D) :- adjacent(C,D), role(B), state(A).",
                          149, 0, 0, 0, 0),
    "trains_mini": (17, 17, 32, 210, 93, "eastbound(A) :- closed(B), has_car(A,B), short(B).",
                    8, 0, 0, 1, 1),
}


@pytest.fixture(scope="module")
def fixture_runs(fixtures_dir):
    return {name: learn(parse_task(fixtures_dir / name)) for name in FIXTURE_COUNTERS}


@pytest.mark.parametrize("name", list(FIXTURE_COUNTERS))
def test_fixture_counters_are_pinned(fixture_runs, name):
    result = fixture_runs[name]
    s = result.stats
    got = (s.generated, s.tested, s.considered, s.nodes_explored, s.bans,
           render_hypothesis(result.best),
           s.constraints["specialisation"], s.constraints["generalisation"],
           s.evidence["reducible"], s.evidence["indiscriminate"],
           s.constraints["pointless-super-rule"])
    assert got == FIXTURE_COUNTERS[name]


# per task of the benchmark's recursive-chain workload, seed 1: generated,
# tested, considered, the candidates skipped for having no base rule (the
# background holds no reach fact), the literals and pairs the background
# model bans, the reducible and indiscriminate evidence, and the stored
# specialisation, generalisation and pointless constraints
CHAIN_COUNTERS = {
    "chain0_n120": (33, 33, 100, 97, 21, 0, 0, 32, 11, 0),
    "chain1_n160": (34, 34, 97, 97, 27, 0, 0, 33, 8, 0),
    "chain2_n200": (33, 33, 101, 97, 18, 0, 0, 31, 12, 0),
}


def test_recursive_chain_counters_are_pinned():
    got = {}
    for task in bench_chain_tasks(1):
        result = learn(task)
        s = result.stats
        assert result.best_score == (0, 5), task.name
        got[task.name] = (s.generated, s.tested, s.considered, s.baseless, s.bans,
                          s.evidence["reducible"], s.evidence["indiscriminate"],
                          s.constraints["specialisation"], s.constraints["generalisation"],
                          s.constraints["pointless-super-rule"])
    assert got == CHAIN_COUNTERS


def _scan_gated_and_ungated(tester, domain, hypotheses) -> Detector:
    """Test each hypothesis and scan it through one gated detector over
    the tester, as learn does, asserting the ungated reference's
    findings; the detector is returned for its counters."""
    detector = Detector(tester.model, tester.neg, domain, DetectMode.BOTH,
                        tester.detection_masks)
    for h in hypotheses:
        tester.masks(h)
        assert find_pointless(h, detector) == \
            find_pointless_ungated(tester.model, h, tester.neg, domain), set(h)
    return detector


def test_gated_detection_finds_what_ungated_detection_finds(fixtures_dir, monkeypatch):
    # every detection learn runs, behind the coverage gate or from the
    # run's table, returns the findings of the ungated reference scan; the
    # small chain tasks scan their basic rules again in later hypotheses
    real = search.find_pointless
    checked = []

    def compared(h, detector, deadline):
        found = real(h, detector, deadline)
        assert found == find_pointless_ungated(detector.store, h, detector.neg,
                                               detector.domain, detector.mode), set(h)
        checked.append(h)
        return found

    monkeypatch.setattr(search, "find_pointless", compared)
    tasks = [(parse_task(fixtures_dir / name), None) for name in FIXTURE_COUNTERS]
    tasks += [(mt.task, mt.search_size)
              for seed in range(1, 41) for mt in (random_task(seed), random_task(seed, True))]
    tasks += [(chain_task(seed), None) for seed in (1, 2)]
    cached = settled = 0
    for task, max_size in tasks:
        for noisy in (False, True):
            s = learn(task, LearnConfig(max_size=max_size, noisy=noisy)).stats
            cached += s.detect_cached
            settled += s.detect_mask_settled
    assert checked and cached > 0 and settled > 0

    # hypotheses learn never offers: two goal/2 rules, heads with a
    # repeated variable or a constant among them, over random backgrounds
    # that hold goal/2 facts, scanned rule by rule and then together
    rng = random.Random(61)
    settled = 0
    for i in range(300):
        bk, h = random_goal_program(rng, any_head=i % 2 == 1)
        if CoverageTester._is_recursive(h):
            continue
        consts = sorted({t.name for r in bk for t in r.head.args if isinstance(t, Const)})
        pairs = [ground("goal", a, b) for a in consts for b in consts]
        examples = rng.sample(pairs, rng.randint(2, min(8, len(pairs))))
        split = rng.randint(0, len(examples))
        tester = CoverageTester(bk, examples[:split], examples[split:])
        detector = _scan_gated_and_ungated(
            tester, [Const(c) for c in consts], [*(frozenset({r}) for r in h), h])
        assert detector.cached == 2
        settled += detector.mask_settled
    # one- and two-rule hypotheses over up to 60 rules of each micro
    # stratum, in stratum order, so that a rule's later scans are answered
    # from the detector's table
    for seed in range(1, 13):
        task = random_task(seed).task
        stratum = []
        for size in (2, 3, 4):
            rules = _rule_stratum(task.bias, size, 200_000)
            stratum += [rules[i] for i in sorted(rng.sample(range(len(rules)),
                                                            min(len(rules), 60)))]
        picks = sorted(rng.sample(range(len(stratum)), min(len(stratum), 40)))
        hypotheses = [frozenset({r}) for r in stratum]
        hypotheses += [frozenset({stratum[a], stratum[b]}) for a, b in zip(picks, picks[1:])]
        detector = _scan_gated_and_ungated(
            CoverageTester(task.bk, task.pos, task.neg), list(task.constant_domain), hypotheses)
        assert detector.cached > 0
        settled += detector.mask_settled
    assert settled > 0


@pytest.mark.parametrize("noisy", [False, True])
def test_learn_never_tests_a_hypothesis_twice(fixtures_dir, monkeypatch, noisy):
    tested = []
    real = CoverageTester.masks
    monkeypatch.setattr(CoverageTester, "masks",
                        lambda self, h: tested.append(h) or real(self, h))
    for name in FIXTURE_COUNTERS:
        tested.clear()
        learn(parse_task(fixtures_dir / name), LearnConfig(noisy=noisy))
        assert tested, name
        assert len(tested) == len(set(tested)), name


def test_detection_is_skipped_when_a_specialisation_constraint_covers_it(
        fixture_runs, trains_task):
    # eight_puzzle_mini has one rule per hypothesis and every tested
    # hypothesis but the last misses a positive
    s = fixture_runs["eight_puzzle_mini"].stats
    assert s.detect_subsumed == 149
    assert s.evidence == {"reducible": 0, "indiscriminate": 0}
    assert s.constraints["pointless-super-rule"] == 0
    # the other fixtures' one-rule hypotheses that cover every positive
    # but a negative skip detection only where their rule has a full body
    assert {name: run.stats.detect_futile for name, run in fixture_runs.items()} == {
        "intro": 59, "transitive_gt": 129, "eight_puzzle_mini": 0, "trains_mini": 2}
    # noisy mode stores no specialisation constraints, so detection runs
    # on every hypothesis whose rule can still grow
    noisy = learn(trains_task, LearnConfig(noisy=True)).stats
    assert noisy.detect_subsumed == 0
    assert noisy.detect_futile == 3
    assert noisy.detect_futile + sum(noisy.evidence.values()) <= noisy.tested
    assert sum(noisy.evidence.values()) == noisy.constraints["pointless-super-rule"] > 0


def _futile_detections(monkeypatch, task, config) -> list:
    """The hypotheses whose detection learn skipped as futile."""
    from razor import search

    skipped = []
    real = search.detection_is_futile

    def recording(h, *bounds):
        futile = real(h, *bounds)
        if futile:
            skipped.append(h)
        return futile

    monkeypatch.setattr(search, "detection_is_futile", recording)
    result = learn(task, config)
    monkeypatch.undo()
    assert result.stats.detect_futile == len(skipped)
    return skipped


def _assert_futile_constraints_ban_nothing_else(task, space, skipped):
    # The constraints detection finds on a skipped hypothesis
    # {R} may match {R} itself, which is never offered again, and nothing
    # else.  A store of every skipped hypothesis's constraints matches a
    # hypothesis exactly when one of the per-hypothesis stores does.  A
    # constraint from R' matches R only through an injective renaming of
    # R' into R, so it has fewer literals than R, or R' and R are the same
    # canonical rule; a skipped {R} is therefore checked against the
    # constraints of the skipped rules smaller than R.
    from razor.generate import Constraint, ConstraintKind, ConstraintStore

    detector = Detector(CoverageTester(task.bk, task.pos, task.neg).model, task.neg,
                        list(task.constant_domain))
    everything = max(next(iter(h)).size for h in skipped) + 1
    smaller_than = {size: ConstraintStore() for size in range(2, everything + 1)}
    for h in skipped:
        (rule,) = h
        for ev in find_pointless(h, detector):
            for size, store in smaller_than.items():
                if rule.size < size:
                    store.add(Constraint(ConstraintKind.POINTLESS_SUPER_RULE, evidence=ev))
    skipped_sizes = {h: next(iter(h)).size for h in skipped}
    for h in space:
        store = smaller_than[skipped_sizes.get(h, everything)]
        assert store.first_pointless_violation(rule_ids(store, h)) is None, (task.name, set(h))


def test_skipped_detections_could_ban_nothing(fixtures_dir, monkeypatch):
    from razor.oracle import enumerate_all

    tasks = [(parse_task(fixtures_dir / name), None) for name in FIXTURE_COUNTERS]
    tasks += [(mt.task, mt.search_size) for mt in map(random_task, range(1, 51))]
    total = 0
    for task, max_size in tasks:
        space = None
        for noisy in (False, True):
            config = LearnConfig(max_size=max_size, noisy=noisy)
            skipped = _futile_detections(monkeypatch, task, config)
            if skipped:
                if space is None:
                    space = [h for size in range(2, (max_size or task.bias.max_size) + 1)
                             for h in enumerate_all(task.bias, size)]
                _assert_futile_constraints_ban_nothing_else(task, space, skipped)
            total += len(skipped)
    assert total > 0


def test_learn_noisy_mode_matches_oracle_on_shuffled_labels():
    from razor.oracle import oracle_optimal

    mt = random_task(321)
    task = mt.task
    task.pos, task.neg = task.pos[1:] + task.neg[:1], task.neg[1:] + task.pos[:1]
    result = learn(task, LearnConfig(max_size=mt.search_size, noisy=True))
    best, _ = oracle_optimal(task, mt.search_size)
    assert result.best_score == best


def _flip_labels(task, seed: int):
    """The task with a tenth of its examples (at least one) relabelled."""
    rng = random.Random(seed)
    labelled = [(e, True) for e in task.pos] + [(e, False) for e in task.neg]
    flipped = set(rng.sample(range(len(labelled)), max(1, len(labelled) // 10)))
    task.pos = [e for i, (e, pos) in enumerate(labelled) if pos != (i in flipped)]
    task.neg = [e for i, (e, pos) in enumerate(labelled) if pos == (i in flipped)]
    return task


def test_noisy_micro_suite_matches_oracle_with_clean_audit():
    from razor.oracle import oracle_optimal

    blocked = 0
    multi_rule = 0
    for seed in range(101, 141):
        mt = random_task(seed)
        task = _flip_labels(mt.task, seed)
        result = learn(task, LearnConfig(max_size=mt.search_size, noisy=True, audit=True))
        best, _ = oracle_optimal(task, mt.search_size)
        assert result.best_score == best, seed
        assert verify_audit(task, result) == [], seed
        blocked += len(result.audit_records)
        multi_rule += task.bias.max_rules > 1
    assert blocked > 0 and multi_rule > 0


def test_noiseless_run_says_when_its_assumption_broke():
    # flipped micro seeds 101-140 in noiseless mode: a run that exhausts
    # the space with errors left had no zero-error hypothesis to find, so
    # its failure constraints may have cut the optimum; every run that
    # misses the oracle's optimum is among them, and every other run stops
    # at a perfect hypothesis
    from razor.oracle import oracle_optimal

    violated, worse = [], []
    for seed in range(101, 141):
        mt = random_task(seed)
        task = _flip_labels(mt.task, seed)
        result = learn(task, LearnConfig(max_size=mt.search_size))
        if not result.stats.noiseless_violated:
            assert result.termination == PERFECT, seed
            continue
        assert result.termination == EXHAUSTED and result.best_score.errors > 0, seed
        violated.append(seed)
        if result.best_score > oracle_optimal(task, mt.search_size)[0]:
            worse.append(seed)
    assert len(violated) == 29
    assert worse == [108, 128, 130, 138]
    # noisy mode makes no assumption to break
    mt = random_task(108)
    noisy = learn(_flip_labels(mt.task, 108), LearnConfig(max_size=mt.search_size, noisy=True))
    assert noisy.termination == EXHAUSTED and not noisy.stats.noiseless_violated


def _is_subsequence(short: list, long: list) -> bool:
    rest = iter(long)
    return all(item in rest for item in short)


def test_bans_emit_a_subsequence_with_the_same_result(fixtures_dir, monkeypatch):
    # the background-only bans only ever drop candidates: the run emits a
    # subsequence of what the unbanned generator emits, and returns the
    # same optimum, score and termination
    tasks = [(parse_task(fixtures_dir / name), None) for name in FIXTURE_COUNTERS]
    tasks += [(task, None) for task in bench_chain_tasks(1)]
    tasks += [(mt.task, mt.search_size)
              for mt in (random_task(seed, recursion=seed % 3 == 0) for seed in range(1, 41))]
    dropped = 0
    for task, max_size in tasks:
        for noisy in (False, True):
            config = LearnConfig(max_size=max_size, noisy=noisy)
            banned, got = _emitted(monkeypatch, task, config)
            full, want = _emitted(monkeypatch, task, config, bans=False)
            assert _is_subsequence(banned, full), (task.name, noisy)
            assert (got.best, got.best_score, got.termination) == \
                (want.best, want.best_score, want.termination), (task.name, noisy)
            assert want.stats.bans == 0
            dropped += len(full) - len(banned)
    assert dropped > 0


def test_learn_ablation_modes_agree_on_score(trains_task):
    scores = set()
    for mode in DetectMode:
        res = learn(trains_task, LearnConfig(pointless=mode))
        scores.add(res.best_score)
    assert len(scores) == 1


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_records_are_verified(intro_task):
    result = learn(intro_task, LearnConfig(audit=True))
    assert result.audit_records, "pruning never fired"
    assert verify_audit(intro_task, result) == []


def test_verify_audit_rechecks_every_ban(intro_task):
    # intro's audited run records its bans, all of which hold; a ban that
    # does not hold on the reference implementations, one that keeps the
    # larger key or names other variables, and one of an unknown kind are
    # reported
    from razor.generate import Ban

    result = learn(intro_task, LearnConfig(audit=True))
    assert {ban.kind for ban in result.ban_records} == {
        "dead-literal", "dead-pair", "implied-pair", "equivalent-literal"}
    assert len(result.ban_records) == result.stats.bans == 63
    assert learn(intro_task).ban_records == []
    odd, gt, int_, f = lit("odd", "A"), lit("gt", "A", "B"), lit("int", "A"), lit("f", "A")
    even, gt_ba, lt_ab = lit("even", "A"), lit("gt", "B", "A"), lit("lt", "A", "B")
    assert Ban("equivalent-literal", (lt_ab, gt_ba)) in result.ban_records
    for wrong in (Ban("dead-literal", (odd,)), Ban("dead-pair", (odd, gt)),
                  Ban("implied-pair", (int_, odd)), Ban("dead-literal", (f,)),
                  Ban("equivalent-literal", (odd, even)),
                  Ban("equivalent-literal", (gt_ba, lt_ab)),
                  Ban("equivalent-literal", (gt, lt_ab)),
                  Ban("mystery", (odd,))):
        bad = dataclasses.replace(result, ban_records=[*result.ban_records, wrong])
        assert len(verify_audit(intro_task, bad)) == 1, wrong


def test_audit_mode_does_not_change_the_search(intro_task):
    plain = learn(intro_task)
    audited = learn(intro_task, LearnConfig(audit=True))
    assert audited.best == plain.best
    assert audited.best_score == plain.best_score
    assert audited.stats.generated == plain.stats.generated
    assert audited.stats.tested == plain.stats.tested


def _emitted(monkeypatch, task, config, bans=True) -> tuple[list, LearnResult]:
    """Every hypothesis the generator emits during one learn run, in
    order, and the run's result; with bans=False the generator builds no
    background-only bans."""
    emitted = []
    real = HypothesisGenerator.next_hypothesis

    def recording(self, size):
        h = real(self, size)
        if h is not None:
            emitted.append(h)
        return h

    monkeypatch.setattr(HypothesisGenerator, "next_hypothesis", recording)
    if not bans:
        monkeypatch.setattr(generate, "background_bans", lambda lits, *_: ([0] * len(lits), []))
    result = learn(task, config)
    monkeypatch.undo()
    return emitted, result


def test_audit_runs_the_plain_path(fixtures_dir, monkeypatch):
    # audit only records the pointless rejections: a plain and an audited
    # run check the same candidates in the same order and emit the same
    # sequence
    tasks = [(parse_task(fixtures_dir / name), None) for name in FIXTURE_COUNTERS]
    tasks += [(mt.task, mt.search_size) for mt in map(random_task, range(1, 51))]
    assert any(task.bias.max_rules == 2 for task, _ in tasks)
    for task, max_size in tasks:
        for noisy in (False, True):
            plain, plain_run = _emitted(monkeypatch, task,
                                        LearnConfig(max_size=max_size, noisy=noisy))
            audited, audited_run = _emitted(monkeypatch, task, LearnConfig(
                max_size=max_size, noisy=noisy, audit=True))
            assert plain == audited, (task.name, noisy)
            assert plain_run.stats.considered == audited_run.stats.considered, (task.name, noisy)


def test_one_rule_slot_matches_no_rule_past_the_optimum(intro_task, monkeypatch):
    # the noiseless search stops at intro's size-4 optimum, so the rules
    # after it in the stratum are never reached and never matched
    from razor.generate import ConstraintStore

    matched = []
    real = ConstraintStore.pointless_match
    monkeypatch.setattr(ConstraintStore, "pointless_match",
                        lambda self, rid: matched.append(self.rules[rid]) or real(self, rid))
    result = learn(intro_task)
    (optimum,) = result.best
    stratum = HypothesisGenerator(intro_task.bias, ConstraintStore()).rule_stratum(4)
    position = {r: i for i, r in enumerate(stratum)}
    assert position[optimum] < len(stratum) - 1
    reached = [position[r] for r in matched if r.size == 4]
    assert reached and max(reached) == position[optimum]


def test_recursion_enabled_micro_tasks_match_oracle(monkeypatch):
    # the audited recursive micro suite, seeds 1-50 noiseless and seeds
    # 1-10 also with a tenth of the labels flipped (noisy mode, which runs
    # to the size bound): every tested recursive hypothesis's masks equal
    # the least model's
    from razor.oracle import oracle_optimal

    recursive = 0
    for seed in range(1, 51):
        for noisy in (False, True) if seed <= 10 else (False,):
            mt = random_task(seed, recursion=True)
            task = _flip_labels(mt.task, seed) if noisy else mt.task
            config = LearnConfig(max_size=mt.search_size, audit=True, noisy=noisy)
            result, _, checked = checked_learn(monkeypatch, task, config)
            best, _ = oracle_optimal(task, mt.search_size)
            assert result.best_score == best, (seed, noisy)
            assert verify_audit(task, result) == [], (seed, noisy)
            recursive += checked
    assert recursive > 0


def test_audit_blocked_candidates_score_no_better_than_optimum(intro_task):
    result = learn(intro_task, LearnConfig(audit=True))
    tester = CoverageTester(intro_task.bk, intro_task.pos, intro_task.neg)
    for rec in result.audit_records:
        assert tester.score(rec.hypothesis) >= result.best_score


def test_recursive_task_learns_through_least_model():
    # the self-loop at 9 poisons every non-recursive edge rule, so only the
    # recursive program reaches zero error
    task = parse_task_strings(
        """head_pred(reach,1). body_pred(start,1). body_pred(edge,2).
           max_vars(2). max_body(2). max_rules(2). enable_recursion.""",
        "start(1). edge(1,2). edge(2,3). edge(3,4). edge(9,9).",
        """pos(reach(1)). pos(reach(2)). pos(reach(3)). pos(reach(4)).
           neg(reach(9)).""",
    )
    result = learn(task, LearnConfig(max_size=5))
    assert result.best_score == CostScore(0, 5)
    rendered = render_hypothesis(result.best)
    assert "reach(B)" in rendered or "reach(A)" in rendered
    assert result.termination == PERFECT

    from razor.oracle import oracle_optimal

    best, witnesses = oracle_optimal(task, 5)
    assert best == result.best_score
    assert result.best in witnesses
