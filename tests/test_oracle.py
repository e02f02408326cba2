from itertools import combinations

import pytest

from helpers import parse_hypothesis

from razor import (Bias, CostScore, LearnConfig, enumerate_all, hypothesis_size,
                   oracle_optimal)
from razor.logic import canonicalize_hypothesis
from razor.microtask import random_task
from razor.oracle import (DEFAULT_CEILING, OracleCeilingError, _hypothesis_count,
                          _rule_stratum)
from razor.taskio import parse_task_strings


def test_enumerate_all_tiny_bias_by_hand():
    bias = Bias(head=("f", 1), body_preds=(("odd", 1), ("even", 1)),
                max_vars=1, max_body=1, max_rules=1)
    got = enumerate_all(bias, 2)
    want = {
        canonicalize_hypothesis(parse_hypothesis("f(A) :- odd(A).")),
        canonicalize_hypothesis(parse_hypothesis("f(A) :- even(A).")),
    }
    assert got == want


def test_enumerate_all_size_one_is_empty():
    bias = Bias(head=("f", 1), body_preds=(("odd", 1),),
                max_vars=1, max_body=1, max_rules=1)
    assert enumerate_all(bias, 1) == set()


def test_enumerate_all_two_rule_stratum():
    bias = Bias(head=("f", 1), body_preds=(("odd", 1), ("even", 1)),
                max_vars=1, max_body=1, max_rules=2)
    got = enumerate_all(bias, 4)
    assert got == {
        canonicalize_hypothesis(
            parse_hypothesis("f(A) :- odd(A).\nf(A) :- even(A).")
        )
    }


def test_enumerate_all_is_every_rule_set_of_the_size():
    # counted from plain rule subsets, without the composition helpers
    two_rule_biases = [random_task(3).task.bias, random_task(5).task.bias,
                       random_task(1, recursion=True).task.bias,
                       Bias(head=("f", 1), body_preds=(("odd", 1), ("even", 1)),
                            max_vars=1, max_body=1, max_rules=2)]
    for bias in two_rule_biases:
        assert bias.max_rules == 2
        strata = {s: _rule_stratum(bias, s, DEFAULT_CEILING)
                  for s in range(2, bias.max_body + 2)}
        rules = [r for stratum in strata.values() for r in stratum]
        by_size: dict[int, set] = {}
        for k in range(1, bias.max_rules + 1):
            for chosen in combinations(rules, k):
                h = frozenset(chosen)
                by_size.setdefault(hypothesis_size(h), set()).add(h)
        counts = {s: len(stratum) for s, stratum in strata.items()}
        for size in range(1, bias.max_size + 1):
            want = by_size.get(size, set())
            assert enumerate_all(bias, size) == want, (bias, size)
            assert _hypothesis_count(counts, size, bias.max_rules) == len(want)


def test_ceiling_refusal_is_explicit():
    bias = Bias(head=("f", 2), body_preds=(("p", 2), ("q", 2), ("r", 2)),
                max_vars=5, max_body=5, max_rules=2)
    with pytest.raises(OracleCeilingError):
        enumerate_all(bias, 10, ceiling=1000)


def test_oracle_intro_optimum(intro_task):
    best, witnesses = oracle_optimal(intro_task, 4)
    assert best == CostScore(0, 4)
    target = canonicalize_hypothesis(
        parse_hypothesis("f(A) :- odd(A), gt(A,3), lt(A,8).")
    )
    assert target in witnesses


def test_oracle_unreachable_positive_keeps_empty_hypothesis():
    task = parse_task_strings(
        "head_pred(f,1). body_pred(p,1). max_vars(1). max_body(1). max_rules(1).",
        "p(1).",
        "pos(f(9)). neg(f(1)).",
    )
    best, witnesses = oracle_optimal(task, 2)
    assert best == CostScore(1, 0)
    assert frozenset() in witnesses


def test_oracle_results_are_order_independent(trains_task):
    b1, w1 = oracle_optimal(trains_task, 4)
    b2, w2 = oracle_optimal(trains_task, 4)
    assert b1 == b2 and w1 == w2


def test_learn_agrees_with_oracle_on_every_fixture(
        intro_task, transitive_task, puzzle_task, trains_task):
    from razor import learn

    for task in (intro_task, transitive_task, puzzle_task, trains_task):
        best, _ = oracle_optimal(task, task.bias.max_size)
        result = learn(task)
        assert result.best_score == best, task.name
        audited = learn(task, LearnConfig(audit=True))
        assert audited.stats.generated == result.stats.generated, task.name
        assert audited.best_score == result.best_score, task.name
