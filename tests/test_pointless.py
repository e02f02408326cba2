import random

import pytest

from helpers import ground, lit, parse_hypothesis, parse_rule

from razor import (
    DetectMode,
    Detector,
    PointlessKind,
    find_pointless,
    is_indiscriminate_direct,
    is_reducible,
    least_model,
    subrule,
)
from razor.deadline import DeadlineExceeded
from razor.logic import Rule, captured
from razor.reference import is_indiscriminate


def _detect(task, h, mode=DetectMode.BOTH):
    model = least_model(task.bk)
    return find_pointless(h, Detector(model, task.neg, list(task.constant_domain), mode))


# ---------------------------------------------------------------------------
# find_pointless
# ---------------------------------------------------------------------------

def test_intro_reducible_literal_found(intro_task):
    h = parse_hypothesis("f(A) :- odd(A), int(A).")
    [ev] = _detect(intro_task, h)
    assert ev.kind is PointlessKind.REDUCIBLE
    assert ev.literal == lit("int", "A")
    assert ev.reduced_rule == parse_rule("f(A) :- odd(A).")


def test_find_pointless_checks_the_deadline(intro_task, intro_model):
    domain = list(intro_task.constant_domain)
    h = parse_hypothesis("f(A) :- odd(A), int(A).")
    with pytest.raises(DeadlineExceeded):
        find_pointless(h, Detector(intro_model, intro_task.neg, domain), deadline=0.0)
    # the indiscriminate test checks it before each negative's implication
    rule = parse_rule("f(A) :- lt(A,10).")
    with pytest.raises(DeadlineExceeded):
        is_indiscriminate_direct(intro_model, intro_task.neg, rule, lit("lt", "A", "10"),
                                 domain, deadline=0.0)
    # a deadline in the future changes nothing
    far = find_pointless(h, Detector(intro_model, intro_task.neg, domain),
                         deadline=float("inf"))
    assert far == _detect(intro_task, h)


def test_intro_indiscriminate_literal_found(intro_task):
    h = parse_hypothesis("f(A) :- lt(A,10).")
    [ev] = _detect(intro_task, h)
    assert ev.kind is PointlessKind.INDISCRIMINATE
    assert ev.literal == lit("lt", "A", "10")
    assert not ev.vacuous


def test_uncaptured_literals_yield_nothing(intro_task):
    h = parse_hypothesis("h :- member(L,X), member(L,Y).")
    assert _detect(intro_task, h) == []


def test_non_basic_rules_are_skipped(intro_task):
    h = parse_hypothesis("f(A) :- odd(A), int(A), f(A).")
    assert _detect(intro_task, h) == []


def test_reducible_checked_before_indiscriminate(intro_task):
    # int(A) is implied by odd(A) *and* holds on every negative example;
    # the reducible classification wins
    h = parse_hypothesis("f(A) :- odd(A), int(A).")
    [ev] = _detect(intro_task, h)
    assert ev.kind is PointlessKind.REDUCIBLE


def test_exhaustive_mode_collects_all(transitive_task):
    h = parse_hypothesis("f(A) :- bounded(A), defined(A), gt(A,B).")
    evs = _detect(transitive_task, h)
    flagged = {repr(ev.literal) for ev in evs}
    assert {"bounded(A)", "defined(A)"} <= flagged


def test_first_hit_is_deterministic(intro_task):
    h = parse_hypothesis("f(A) :- odd(A), int(A), lt(A,10).")
    first = _detect(intro_task, h)
    for _ in range(3):
        assert _detect(intro_task, h) == first


def test_detect_modes_gate_the_checks(intro_task):
    reducible_h = parse_hypothesis("f(A) :- odd(A), int(A).")
    indis_h = parse_hypothesis("f(A) :- lt(A,10).")
    assert _detect(intro_task, reducible_h, DetectMode.REDUCIBLE_ONLY)
    assert _detect(intro_task, indis_h, DetectMode.REDUCIBLE_ONLY) == []
    assert _detect(intro_task, indis_h, DetectMode.INDISCRIMINATE_ONLY)
    assert _detect(intro_task, frozenset(), DetectMode.OFF) == []


# ---------------------------------------------------------------------------
# is_reducible
# ---------------------------------------------------------------------------

def test_reducible_puzzle_successor_rule(puzzle_task):
    m = least_model(puzzle_task.bk)
    dom = list(puzzle_task.constant_domain)
    r = parse_rule("legal_move(A,B,C,D) :- succ(D,E), pos1(D), pos2(E).")
    assert is_reducible(m, r, lit("pos2", "E"), dom)


def test_not_reducible_intro_gt(intro_task, intro_model):
    dom = list(intro_task.constant_domain)
    r = parse_rule("f(A) :- odd(A), gt(A,3).")
    assert not is_reducible(intro_model, r, lit("gt", "A", "3"), dom)


def test_reducible_vacuously_with_unsatisfiable_rest(intro_task, intro_model):
    dom = list(intro_task.constant_domain)
    r = parse_rule("f(A) :- odd(A), even(A), gt(A,3).")
    assert is_reducible(intro_model, r, lit("gt", "A", "3"), dom)


# ---------------------------------------------------------------------------
# is_indiscriminate (coverage equality) and the direct test
# ---------------------------------------------------------------------------

def test_indiscriminate_no_negative_beyond_bound():
    bk = [parse_rule(f"odd({i}).") for i in (1, 3, 5)] + \
         [parse_rule(f"lt({i},10).") for i in range(1, 10)]
    m = least_model(bk)
    r = parse_rule("f(A) :- odd(A), lt(A,10).")
    neg = [ground("f", i) for i in (1, 2, 3)]
    assert is_indiscriminate(m, neg, r, lit("lt", "A", "10"))
    dom = [__import__("razor").Const(str(i)) for i in range(1, 11)]
    assert is_indiscriminate_direct(m, neg, r, lit("lt", "A", "10"), dom)


def test_indiscriminate_role_style_literal(puzzle_task):
    m = least_model(puzzle_task.bk)
    r = parse_rule("legal_move(A,B,C,D) :- role(B).")
    neg = list(puzzle_task.neg)
    assert is_indiscriminate(m, neg, r, lit("role", "B"))
    assert is_indiscriminate_direct(m, neg, r, lit("role", "B"),
                                    list(puzzle_task.constant_domain))


def test_not_indiscriminate_when_removal_covers_new_negatives(intro_task, intro_model):
    r = parse_rule("f(A) :- odd(A), gt(A,3).")
    neg = list(intro_task.neg)
    assert not is_indiscriminate(intro_model, neg, r, lit("gt", "A", "3"))
    assert not is_indiscriminate_direct(intro_model, neg, r, lit("gt", "A", "3"),
                                        list(intro_task.constant_domain))


def test_indiscriminate_vacuous_on_empty_negatives(intro_model, intro_task):
    r = parse_rule("f(A) :- odd(A), int(A).")
    assert is_indiscriminate(intro_model, [], r, lit("odd", "A"))
    assert is_indiscriminate_direct(intro_model, [], r, lit("odd", "A"),
                                    list(intro_task.constant_domain))


def test_direct_test_implies_coverage_equality(intro_task, intro_model):
    # one direction of the two formulations always holds
    rng = random.Random(41)
    pool = [lit("odd", "A"), lit("even", "A"), lit("int", "A"),
            lit("gt", "A", "3"), lit("lt", "A", "8"), lit("lt", "A", "10"),
            lit("succ", "A", "B"), lit("lt", "B", "8")]
    dom = list(intro_task.constant_domain)
    checked = 0
    for _ in range(300):
        body = frozenset(rng.sample(pool, rng.randint(2, 3)))
        r = Rule(lit("f", "A"), body)
        for l in body:
            if not captured(r, l):
                continue
            checked += 1
            if is_indiscriminate_direct(intro_model, intro_task.neg, r, l, dom):
                assert is_indiscriminate(intro_model, intro_task.neg, r, l)
    assert checked > 50


def test_reducible_implies_direct_indiscriminate(intro_task, intro_model):
    # database implication over the whole domain subsumes the per-negative one
    rng = random.Random(43)
    pool = [lit("odd", "A"), lit("even", "A"), lit("int", "A"),
            lit("gt", "A", "3"), lit("lt", "A", "8"), lit("succ", "A", "B")]
    dom = list(intro_task.constant_domain)
    for _ in range(300):
        body = frozenset(rng.sample(pool, rng.randint(2, 3)))
        r = Rule(lit("f", "A"), body)
        for l in body:
            if captured(r, l) and is_reducible(intro_model, r, l, dom):
                assert is_indiscriminate_direct(intro_model, intro_task.neg, r, l, dom)


# ---------------------------------------------------------------------------
# consequences of the definitions
# ---------------------------------------------------------------------------

def test_reducible_removal_preserves_semantics(intro_task):
    # dropping the redundant literal leaves the least model unchanged
    h = parse_hypothesis("f(A) :- odd(A), int(A).")
    [ev] = _detect(intro_task, h)
    assert ev.kind is PointlessKind.REDUCIBLE
    m1 = least_model(list(intro_task.bk) + [ev.rule])
    m2 = least_model(list(intro_task.bk) + [ev.reduced_rule])
    s1 = {(k, t) for k in m1._facts for t in m1.tuples(k)}
    s2 = {(k, t) for k in m2._facts for t in m2.tuples(k)}
    assert s1 == s2


def test_indiscriminate_removal_never_worsens_cost(intro_task, intro_model):
    # same false positives, no new false negatives (the reduced rule may be
    # unsafe, so per-rule coverage with head binding does the scoring)
    from razor import covers_rule

    h = parse_hypothesis("f(A) :- lt(A,10).")
    [ev] = _detect(intro_task, h)
    assert ev.kind is PointlessKind.INDISCRIMINATE
    neg_before = {e for e in intro_task.neg if covers_rule(intro_model, ev.rule, [e]) == 1}
    neg_after = {e for e in intro_task.neg if covers_rule(intro_model, ev.reduced_rule, [e]) == 1}
    pos_before = {e for e in intro_task.pos if covers_rule(intro_model, ev.rule, [e]) == 1}
    pos_after = {e for e in intro_task.pos if covers_rule(intro_model, ev.reduced_rule, [e]) == 1}
    assert neg_after == neg_before
    assert pos_before <= pos_after


def test_specialisations_of_flagged_rules_stay_pointless(intro_task):
    # closure property behind the pruning constraints, sampled
    from helpers import random_super_rules

    rng = random.Random(47)
    detector = Detector(least_model(intro_task.bk), intro_task.neg,
                        list(intro_task.constant_domain))
    flagged = [
        parse_hypothesis("f(A) :- odd(A), int(A)."),
        parse_hypothesis("f(A) :- lt(A,10)."),
    ]
    for h in flagged:
        [ev] = _detect(intro_task, h)
        for bigger in random_super_rules(intro_task, ev.rule, rng, 20):
            assert subrule(ev.rule, bigger)
            found = find_pointless(frozenset({bigger}), detector)
            assert found, f"extension lost the pointless literal: {bigger!r}"
