import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (brute_force_renamed_subrule, brute_force_renamings, hypothesis_key, lit,
                     parse_rule, random_rule)

from razor import (
    Rule,
    canonicalize,
    captured,
    connected,
    is_basic,
    renamed_subrule,
    subrule,
)
from razor import logic
from razor.logic import in_search_space, iter_renamings, rename_literal
from razor.oracle import _literal_pool, oracle_optimal
from razor.reference import sub_hypothesis


# ---------------------------------------------------------------------------
# subrule / sub-hypothesis
# ---------------------------------------------------------------------------

def test_subrule_body_subset():
    r1 = parse_rule("f(A) :- odd(A).")
    r2 = parse_rule("f(A) :- odd(A), int(A).")
    assert subrule(r1, r2)
    assert not subrule(r2, r1)


def test_subrule_reflexive():
    r = parse_rule("f(A) :- odd(A), gt(A,3).")
    assert subrule(r, r)


def test_subrule_is_renaming_free():
    r1 = parse_rule("f(A) :- odd(A).")
    r2 = parse_rule("f(B) :- odd(B).")
    assert not subrule(r1, r2)


def test_sub_hypothesis_vacuous_for_empty():
    h2 = frozenset({parse_rule("f(A) :- odd(A).")})
    assert sub_hypothesis(frozenset(), h2)
    assert sub_hypothesis(frozenset(), frozenset())


def test_sub_hypothesis_each_rule_needs_a_superrule():
    h1 = frozenset({parse_rule("f(A) :- odd(A).")})
    h2 = frozenset({
        parse_rule("f(A) :- odd(A), int(A)."),
        parse_rule("f(A) :- even(A)."),
    })
    assert sub_hypothesis(h1, h2)
    h3 = frozenset({parse_rule("f(A) :- even(A).")})
    h4 = frozenset({parse_rule("f(A) :- odd(A).")})
    assert not sub_hypothesis(h3, h4)


def _random_rules(seed, n=40):
    rng = random.Random(seed)
    return [random_rule(rng) for _ in range(n)]


def test_subrule_transitive_on_random_rules():
    rules = _random_rules(7)
    for r1 in rules:
        for r2 in rules:
            for r3 in rules:
                if subrule(r1, r2) and subrule(r2, r3):
                    assert subrule(r1, r3)


def test_sub_hypothesis_reflexive_transitive_on_random_sets():
    rng = random.Random(11)
    hyps = [frozenset(random_rule(rng) for _ in range(rng.randint(1, 3)))
            for _ in range(12)]
    for h in hyps:
        assert sub_hypothesis(h, h)
    for h1 in hyps:
        for h2 in hyps:
            for h3 in hyps:
                if sub_hypothesis(h1, h2) and sub_hypothesis(h2, h3):
                    assert sub_hypothesis(h1, h3)


# ---------------------------------------------------------------------------
# basic
# ---------------------------------------------------------------------------

def test_basic_when_head_pred_absent_from_bodies():
    r = parse_rule("f(A) :- odd(A).")
    assert is_basic(r, frozenset({r}))


def test_self_recursive_rule_is_not_basic():
    r = parse_rule("f(A) :- succ(A,B), f(B).")
    assert not is_basic(r, frozenset({r}))


def test_rule_used_by_another_body_is_not_basic():
    fr = parse_rule("f(A) :- g(A).")
    gr = parse_rule("g(A) :- odd(A).")
    h = frozenset({fr, gr})
    assert not is_basic(gr, h)
    assert is_basic(fr, h)


# ---------------------------------------------------------------------------
# captured
# ---------------------------------------------------------------------------

def test_captured_variable_shared_elsewhere():
    r = parse_rule("h :- succ(A,B), succ(B,C), gt(C,A), gt(C,D).")
    assert captured(r, lit("gt", "C", "A"))
    assert not captured(r, lit("gt", "C", "D"))


def test_captured_head_variable_with_constant():
    r = parse_rule("f(A) :- lt(A,10).")
    assert captured(r, lit("lt", "A", "10"))


def test_captured_requires_body_membership():
    r = parse_rule("f(A) :- odd(A).")
    with pytest.raises(ValueError):
        captured(r, lit("even", "A"))


def test_capture_transfers_to_extensions():
    # adding body literals never un-captures a literal
    rng = random.Random(3)
    for _ in range(200):
        r = random_rule(rng)
        bigger = Rule(r.head, r.body | random_rule(rng).body)
        for l in r.body:
            if captured(r, l):
                assert captured(bigger, l)


# ---------------------------------------------------------------------------
# connected
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("f(A) :- odd(A), gt(A,3).", True),
    ("f(A) :- odd(B).", False),
    ("f(A) :- succ(A,B), lt(B,C), odd(D).", False),
    ("h :- gt(A,B), gt(B,C), gt(A,C).", True),   # ground head attaches anywhere
    ("f(A) :- odd(A), lt(3,4).", True),          # ground body literal too
])
def test_connected(text, expected):
    assert connected(parse_rule(text)) is expected


def test_search_space_membership():
    assert in_search_space(parse_rule("f(A) :- odd(A)."))
    assert not in_search_space(parse_rule("f(A) :- odd(B)."))      # unsafe
    assert not in_search_space(parse_rule("f(A) :- odd(A), gt(B,C)."))  # disconnected
    assert not in_search_space(Rule(lit("f", "A"), frozenset()))   # empty body


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------

def test_canonicalize_renames_to_alphabet():
    r = parse_rule("f(X) :- odd(X).")
    assert canonicalize(r) == parse_rule("f(A) :- odd(A).")


def test_canonicalize_identifies_renamings():
    r1 = parse_rule("f(P) :- succ(P,Q), lt(Q,R).")
    r2 = parse_rule("f(A) :- succ(A,B), lt(B,C).")
    assert canonicalize(r1) == canonicalize(r2)


def test_canonicalize_ground_rule_unchanged():
    r = parse_rule("f(3) :- odd(3).")
    assert canonicalize(r) == r


def test_canonicalize_idempotent_and_renaming_invariant():
    rng = random.Random(5)
    names = ["X", "Y", "Z", "W"]
    for _ in range(300):
        r = random_rule(rng)
        c = canonicalize(r)
        assert canonicalize(c) == c
        # bijective renaming of r must canonicalize identically
        mapping = dict(zip(sorted(r.vars()), rng.sample(names, len(r.vars()))))
        renamed = Rule(
            rename_literal(r.head, mapping),
            frozenset(rename_literal(b, mapping) for b in r.body),
        )
        assert canonicalize(renamed) == c


def test_an_oracle_run_adds_no_cache_entry_per_rule(trains_task):
    # the module-level memos are keyed by literal; the thousands of rules
    # the oracle enumerates and canonicalizes leave nothing behind
    cached = sorted(name for name, obj in vars(logic).items() if hasattr(obj, "cache_info"))
    assert cached == ["abstract_key", "concrete_key"]

    def held():
        return sum(getattr(logic, name).cache_info().currsize for name in cached)

    before = held()
    oracle_optimal(trains_task, 4)
    assert held() - before <= 2 * len(_literal_pool(trains_task.bias))


# ---------------------------------------------------------------------------
# renamed subrule
# ---------------------------------------------------------------------------

def test_renamed_subrule_identity():
    p = parse_rule("f(A) :- odd(A), int(A).")
    r = parse_rule("f(A) :- odd(A), int(A), gt(A,3), lt(A,8).")
    assert renamed_subrule(p, r)


def test_renamed_subrule_fresh_variable():
    p = parse_rule("f(A) :- lt(A,B).")
    r = parse_rule("f(A) :- lt(A,C), odd(C).")
    assert renamed_subrule(p, r)


def test_renamed_subrule_respects_argument_order():
    p = parse_rule("f(A) :- lt(A,B).")
    r = parse_rule("f(A) :- lt(B,A).")
    assert not renamed_subrule(p, r)


def test_renamed_subrule_identity_renaming_matches_subrule():
    rng = random.Random(13)
    rules = [random_rule(rng) for _ in range(60)]
    for p in rules:
        for r in rules:
            if subrule(p, r):
                assert renamed_subrule(p, r)
            thetas = list(iter_renamings(p, r))
            identity = {v: v for v in p.vars()}
            assert (identity in thetas) == subrule(p, r)


def test_renamed_subrule_against_brute_force():
    rng = random.Random(17)
    rules = [random_rule(rng, max_body=2) for _ in range(40)]
    for p in rules:
        for r in rules:
            assert renamed_subrule(p, r) == brute_force_renamed_subrule(p, r)


def test_iter_renamings_yields_each_renaming_once_against_brute_force():
    rng = random.Random(19)
    rules = [random_rule(rng, preds=[("p", 1), ("q", 2)], max_vars=4) for _ in range(40)]
    several = 0
    for p in rules:
        for r in rules:
            thetas = [tuple(sorted(t.items())) for t in iter_renamings(p, r)]
            assert len(thetas) == len(set(thetas)), (p, r)
            assert set(thetas) == {tuple(sorted(t.items())) for t in brute_force_renamings(p, r)}
            several += len(thetas) > 1
    assert several > 0


def test_renamed_subrule_maps_variables_only():
    p = parse_rule("f(A) :- lt(A,B).")
    r = parse_rule("f(A) :- lt(A,8).")
    # a renaming maps variables to variables, never to constants
    assert not renamed_subrule(p, r)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_hypothesis_key_is_renaming_invariant(seed):
    rng = random.Random(seed)
    r = random_rule(rng)
    mapping = dict(zip(sorted(r.vars()), ["Q", "R", "S", "T"]))
    renamed = Rule(
        rename_literal(r.head, mapping),
        frozenset(rename_literal(b, mapping) for b in r.body),
    )
    h1 = frozenset({canonicalize(r)})
    h2 = frozenset({canonicalize(renamed)})
    assert hypothesis_key(h1) == hypothesis_key(h2)
