import random
import time
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (bias_literal_pool, chain_task, checked_learn, ground, lit,
                     parse_hypothesis, parse_rule, random_goal_program)

from razor import (
    Const,
    LearnConfig,
    UnsafeRuleError,
    covers_rule,
    implies,
    least_model,
    parse_task,
    subrule,
)
from razor.datalog import CoveragePack, FactStore, _plan, head_binding
from razor.deadline import DeadlineExceeded
from razor.reference import (
    coverage,
    implies_by_refutation,
    least_model_naive,
    satisfying_substitutions,
)
from razor.logic import Literal, Rule, Var, captured, concrete_key
from razor.microtask import random_program, random_task
from razor.oracle import _rule_stratum, enumerate_all
from razor.taskio import parse_rules


def facts(*atoms):
    return [parse_rule(a) for a in atoms]


# ---------------------------------------------------------------------------
# least model
# ---------------------------------------------------------------------------

def test_least_model_facts_only():
    m = least_model(facts("odd(1).", "odd(3)."))
    assert sorted(map(repr, m.atoms())) == ["odd(1)", "odd(3)"]


def test_least_model_transitive_closure():
    program = parse_rules(
        "e(1,2). e(2,3). p(A,B) :- e(A,B). p(A,C) :- e(A,B), p(B,C)."
    )
    m = least_model(program)
    p_facts = {a for a in m.atoms() if a.pred == "p"}
    assert p_facts == {ground("p", 1, 2), ground("p", 2, 3), ground("p", 1, 3)}


def test_least_model_empty_program():
    assert len(least_model([])) == 0


def test_least_model_rejects_unsafe_rule():
    bad = parse_rule("p(A,B) :- q(A).")
    with pytest.raises(UnsafeRuleError, match="B"):
        least_model([bad])


def test_least_model_is_a_fixpoint():
    rng = random.Random(23)
    for _ in range(30):
        program = random_program(rng)
        m = least_model(program)
        for rule in program:
            for theta in satisfying_substitutions(m, rule.body):
                from razor.logic import apply_subst

                assert m.contains(apply_subst(rule.head, theta))


def test_semi_naive_equals_naive_on_random_programs():
    rng = random.Random(29)
    for _ in range(60):
        program = random_program(rng)
        m1 = least_model(program)
        m2 = least_model_naive(program)
        s1 = {(key, args) for key in m1._facts for args in m1.tuples(key)}
        s2 = {(key, args) for key in m2._facts for args in m2.tuples(key)}
        assert s1 == s2


def test_least_model_checks_the_deadline_between_rounds():
    # the closure of a 30-edge chain takes 30 rounds
    chain = " ".join(f"e({i},{i + 1})." for i in range(30))
    program = parse_rules(chain + " p(A,B) :- e(A,B). p(A,C) :- e(A,B), p(B,C).")
    with pytest.raises(DeadlineExceeded):
        least_model(program, deadline=time.perf_counter() - 1.0)
    model = least_model(program)
    assert {a.args for a in model.atoms() if a.pred == "p"} == \
        {(Const(str(i)), Const(str(j))) for i in range(31) for j in range(i + 1, 31)}
    base = least_model(parse_rules(chain))
    with pytest.raises(DeadlineExceeded):
        least_model(program[-2:], base=base, deadline=0.0)
    assert _fact_set(least_model(program[-2:], base=base)) == _fact_set(model)


def test_first_round_builds_no_index_over_a_predicate_without_facts():
    # the closure's whole-body join would look p/2 up by its first
    # argument before any p fact exists, and every later round would
    # keep that index up to date; the join derives nothing, so it is
    # skipped and the delta pipelines need no index over p
    chain = parse_rules(" ".join(f"e({i},{i + 1})." for i in range(10)))
    closure = parse_rules("p(A,B) :- e(A,B). p(A,C) :- e(A,B), p(B,C).")
    model = least_model(closure, base=least_model(chain))
    assert len(model.tuples(("p", 2))) == 55
    assert [pos for key, pos in model._pos_index if key == ("p", 2)] == []


_BK_PREDS = (("e", 2), ("t", 3), ("u", 1), ("z", 0))
_H_PREDS = (("g", 2), ("k", 0), ("w", 3))


@st.composite
def _bk_and_hypotheses(draw):
    """A background program and a hypothesis over one to three constants.
    The background has facts of every predicate (the hypothesis's head
    predicates included) and rules over its own predicates; the
    hypothesis's rules have heads g/2, k/0 or w/3 and bodies of one to
    three literals over every predicate.  Arguments are drawn from the variables
    A-D and the constants, so rules get constants in heads and bodies,
    variables repeated inside one literal and literals sharing no
    variable with the others; t/3 makes steps with two bound positions
    and one free, z/0 and k/0 make steps with no position at all."""
    consts = [Const(c) for c in "abc"[:draw(st.integers(1, 3))]]
    variables = [Var(v) for v in "ABCD"]

    def rule(heads, bodies):
        body = []
        for _ in range(draw(st.integers(1, 3))):
            name, arity = draw(st.sampled_from(bodies))
            terms = st.sampled_from(variables + consts)
            body.append(Literal(name, tuple(draw(terms) for _ in range(arity))))
        name, arity = draw(st.sampled_from(heads))
        safe = sorted({t for b in body for t in b.args if isinstance(t, Var)}, key=str) + consts
        return Rule(Literal(name, tuple(draw(st.sampled_from(safe)) for _ in range(arity))),
                    frozenset(body))

    bk = [Rule(Literal(name, combo), frozenset())
          for name, arity in _BK_PREDS + _H_PREDS
          for combo in product(consts, repeat=arity) if draw(st.integers(0, 2)) == 0]
    bk += [rule(_BK_PREDS, _BK_PREDS) for _ in range(draw(st.integers(0, 2)))]
    h = [rule(_H_PREDS, _BK_PREDS + _H_PREDS) for _ in range(draw(st.integers(1, 3)))]
    return bk, h


# the examples pin shapes the draws reach rarely: constant heads, a
# ternary join with two bound positions, 0-ary literals, cross products,
# repeated variables, a checked lookup whose new variable is unused, and
# the fused last step under the four heads of _FUSED_HEADS
_FUSED_HEADS = parse_rules("g(A,B) :- g(C,B), e(A,C). g(A,B) :- g(A,C), e(C,B). "
                           "g(c,B) :- g(A,C), e(C,B). w(A,B,C) :- w(A,B,D), e(D,C).")


@settings(max_examples=300, deadline=None)
@given(_bk_and_hypotheses())
@example((parse_rules("e(a,b). e(b,c). e(c,d). g(b,c). w(c,a,a)."), _FUSED_HEADS))
@example((parse_rules("e(a,b). e(b,c). e(c,c). t(a,b,c). t(b,c,a). t(c,c,c). u(a). z. g(c,a)."),
          parse_rules("g(A,c) :- e(A,B), t(A,B,C), u(C). g(A,B) :- g(B,A), z. k :- t(A,A,A). "
                      "g(a,B) :- u(B), e(C,C), k. g(A,B) :- g(A,C), t(C,b,B).")))
@example((parse_rules("e(a,b). e(b,a). u(b). t(a,a,b). u(A) :- e(A,A). u(B) :- t(A,A,B)."),
          parse_rules("g(A,B) :- u(A), u(B). g(A,A) :- g(A,B), g(B,a). k :- g(A,A), z.")))
@example((parse_rules("e(a,c). e(b,c). t(a,c,c). t(b,b,a)."),
          parse_rules("g(A,A) :- e(A,c), t(A,b,C).")))
def test_semi_naive_equals_naive_and_extension_on_generated_programs(programs):
    bk, h = programs
    full = _fact_set(least_model([*bk, *h]))
    assert full == _fact_set(least_model_naive([*bk, *h]))
    assert _fact_set(least_model(h, base=least_model(bk))) == full


def test_fused_last_step_covers_every_head_shape():
    # the delta pipeline of each _FUSED_HEADS rule starts from the
    # recursive literal's facts as rows and ends in a fused lookup of e/2:
    # the appended value first or last in a binary head, beside a constant,
    # or in a ternary head
    for rule in _FUSED_HEADS:
        plan = _plan(rule.body, rule.head)
        first = next(i for i, (key, _) in enumerate(plan.body) if key == rule.head.pred_key)
        pipe = plan.pipeline(first)
        assert [step.whole for step in pipe.steps] == [True], rule
        assert pipe.last is not None, rule


# ---------------------------------------------------------------------------
# satisfying substitutions
# ---------------------------------------------------------------------------

def _subs_set(store, body, seed=None):
    return {
        tuple(sorted((v, t.name) for v, t in theta.items()))
        for theta in satisfying_substitutions(store, body, seed)
    }


def test_substitutions_direct_lookup():
    m = least_model(facts("odd(1).", "odd(3)."))
    assert _subs_set(m, [lit("odd", "A")]) == {(("A", "1"),), (("A", "3"),)}


def test_substitutions_intro_conjunction(intro_model):
    body = [lit("odd", "A"), lit("gt", "A", "3"), lit("lt", "A", "8")]
    assert _subs_set(intro_model, body) == {(("A", "5"),), (("A", "7"),)}


def test_substitutions_contradicting_seed():
    m = least_model(facts("odd(1)."))
    assert _subs_set(m, [lit("odd", "A")], {"A": Const("2")}) == set()


def test_substitutions_empty_body_yields_seed():
    m = least_model(facts("odd(1)."))
    seed = {"A": Const("2")}
    assert _subs_set(m, [], seed) == {(("A", "2"),)}


# ---------------------------------------------------------------------------
# covers_rule
# ---------------------------------------------------------------------------

def test_covers_rule_intro_examples(intro_model):
    r = parse_rule("f(A) :- odd(A), int(A).")
    assert covers_rule(intro_model, r, [ground("f", 3)]) == 1
    assert covers_rule(intro_model, r, [ground("f", 9)]) == 1
    r2 = parse_rule("f(A) :- even(A).")
    assert covers_rule(intro_model, r2, [ground("f", 5)]) == 0


def test_covers_rule_empty_body_covers_everything(intro_model):
    r = parse_rule("f(A).")
    assert covers_rule(intro_model, r, [ground("f", 2)]) == 1
    assert covers_rule(intro_model, r, [ground("f", 10)]) == 1


def test_covers_rule_head_mismatch_is_an_error(intro_model):
    r = parse_rule("f(A) :- odd(A).")
    with pytest.raises(ValueError):
        covers_rule(intro_model, r, [ground("g", 3)])
    with pytest.raises(ValueError):
        covers_rule(intro_model, r, [ground("f", 1, 2)])
    # also when the mismatched example follows matching ones
    with pytest.raises(ValueError):
        covers_rule(intro_model, r, [ground("f", 3), ground("g", 3)])


def test_covers_rule_head_variable_missing_from_body(intro_model):
    # arises when a literal is deleted during the indiscriminate check
    r = parse_rule("g(A,B) :- odd(A).")
    assert covers_rule(intro_model, r, [ground("g", 3, 10)]) == 1
    assert covers_rule(intro_model, r, [ground("g", 2, 10)]) == 0


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def test_coverage_intro_perfect_rule(intro_task):
    h = parse_hypothesis("f(A) :- odd(A), gt(A,3), lt(A,8).")
    cov = coverage(intro_task.bk, h, intro_task.pos, intro_task.neg)
    assert (cov.tp, cov.fn, cov.fp, cov.tn) == (2, 0, 0, 6)


def test_coverage_overly_general_rule(intro_task):
    h = parse_hypothesis("f(A) :- lt(A,B).")
    cov = coverage(intro_task.bk, h, intro_task.pos, intro_task.neg)
    assert (cov.tp, cov.fp) == (2, 6)


def test_coverage_empty_hypothesis(intro_task):
    cov = coverage(intro_task.bk, frozenset(), intro_task.pos, intro_task.neg)
    assert (cov.tp, cov.fp, cov.fn, cov.tn) == (0, 0, 2, 6)


def test_coverage_recursive_hypothesis():
    bk = parse_rules("succ(1,2). succ(2,3). succ(3,4). start(1).")
    h = parse_hypothesis(
        "reach(A) :- start(A). reach(A) :- succ(B,A), reach(B)."
    )
    pos = [ground("reach", i) for i in (1, 2, 3, 4)]
    cov = coverage(bk, h, pos, [])
    assert cov.tp == 4 and cov.fn == 0


def test_body_extension_never_grows_coverage(intro_model, intro_task):
    rng = random.Random(31)
    pool = [lit("odd", "A"), lit("even", "A"), lit("gt", "A", "3"),
            lit("lt", "A", "8"), lit("int", "A"), lit("gt", "A", "B")]
    examples = intro_task.pos + intro_task.neg
    for _ in range(100):
        body = set(rng.sample(pool, rng.randint(1, 3)))
        r1 = parse_rule("f(A) :- odd(A).")
        r1 = r1.__class__(r1.head, frozenset(body))
        r2 = r1.__class__(r1.head, frozenset(body | {rng.choice(pool)}))
        assert subrule(r1, r2)
        for e in examples:
            if covers_rule(intro_model, r2, [e]) == 1:
                assert covers_rule(intro_model, r1, [e]) == 1


def test_adding_rules_never_shrinks_coverage(intro_task):
    h1 = parse_hypothesis("f(A) :- odd(A), gt(A,3).")
    h2 = h1 | parse_hypothesis("f(A) :- even(A).")
    cov1 = coverage(intro_task.bk, h1, intro_task.pos, intro_task.neg)
    cov2 = coverage(intro_task.bk, h2, intro_task.pos, intro_task.neg)
    assert cov1.covered_pos <= cov2.covered_pos
    assert cov1.covered_neg <= cov2.covered_neg


def test_covers_rule_agrees_with_least_model(intro_task, intro_model):
    # the two coverage paths coincide for safe non-recursive rules whose
    # head predicate is new to the background knowledge
    rng = random.Random(37)
    texts = [
        "f(A) :- odd(A).",
        "f(A) :- even(A), gt(A,2).",
        "f(A) :- succ(A,B), odd(B).",
        "f(A) :- gt(A,3), lt(A,8).",
        "f(A) :- succ(A,B), succ(B,C).",
    ]
    examples = [ground("f", i) for i in range(1, 11)]
    for text in texts:
        r = parse_rule(text)
        m = least_model(list(intro_task.bk) + [r])
        mask = covers_rule(intro_model, r, examples)
        for i, e in enumerate(examples):
            assert covers_rule(intro_model, r, [e]) == m.contains(e)
            assert (mask >> i & 1) == m.contains(e)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_covers_rule_mask_agrees_with_least_model_on_micro_strata(seed):
    # every rule of every stratum against all of the task's examples: bit i
    # of the mask is example i's membership in the model of BK plus the rule
    task = random_task(seed).task
    model = least_model(task.bk)
    examples = [*task.pos, *task.neg]
    rules = 0
    for rule_size in range(2, 2 + task.bias.max_body):
        for rule in _rule_stratum(task.bias, rule_size, ceiling=200_000):
            m = least_model([rule], base=model)
            want = sum(1 << i for i, e in enumerate(examples) if m.contains(e))
            assert covers_rule(model, rule, examples) == want, rule
            rules += 1
    assert rules > 0


def test_covers_rule_empty_example_list_is_zero(intro_model):
    assert covers_rule(intro_model, parse_rule("f(A) :- odd(A)."), []) == 0
    assert covers_rule(intro_model, parse_rule("f(A)."), []) == 0


# ---------------------------------------------------------------------------
# coverage packs
# ---------------------------------------------------------------------------

def _per_example_mask(store, rule, examples):
    """Reference coverage: one satisfiability join of the body per example
    whose atom the head matches."""
    mask = 0
    for i, e in enumerate(examples):
        theta = head_binding(rule, e)
        if theta is not None and \
                next(satisfying_substitutions(store, rule.body, theta), None) is not None:
            mask |= 1 << i
    return mask


_PACK_CONSTS = ("a", "b", "c", "d")
_PACK_HEADS = (lit("f", "A", "B"), lit("f", "B", "A"), lit("f", "A", "A"),
               lit("f", "A", "b"), lit("f", "a", "B"))
_PACK_BODY = (lit("edge", "A", "B"), lit("edge", "A", "C"), lit("edge", "B", "C"),
              lit("edge", "C", "C"), lit("edge", "A", "c"), lit("edge", "C", "A"),
              lit("node", "C"), lit("node", "B"), lit("node", "a"))


@st.composite
def _pack_sequences(draw):
    """A store of edge/2 and node/1 facts over four constants, and a
    sequence of f/2 rules in which each drawn rule appears at least twice,
    in another order the second time.  Heads repeat a variable or hold a
    constant, bodies of zero to three literals repeat a variable inside a
    literal (edge(C,C)), hold constants, may miss a head variable and
    share prefixes in plan order with their neighbours."""
    pairs = [(x, y) for x in _PACK_CONSTS for y in _PACK_CONSTS]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=10))
    nodes = draw(st.sets(st.sampled_from(_PACK_CONSTS)))
    store = FactStore([*(ground("edge", x, y) for x, y in edges),
                       *(ground("node", x) for x in nodes)])
    rule = st.builds(Rule, st.sampled_from(_PACK_HEADS),
                     st.frozensets(st.sampled_from(_PACK_BODY), max_size=3))
    rules = draw(st.lists(rule, min_size=1, max_size=10))
    return store, rules + draw(st.permutations(rules))


@settings(max_examples=200, deadline=None)
@given(_pack_sequences())
@example((FactStore([ground("edge", "a", "a"), ground("edge", "b", "c"), ground("node", "a")]),
          [parse_rule("f(A,B) :- edge(A,C), edge(C,C)."),
           parse_rule("f(A,B) :- edge(A,C), node(C)."),
           parse_rule("f(A,A) :- edge(A,C), node(C)."),
           parse_rule("f(A,B) :- edge(A,C)."),
           parse_rule("f(A,b)."),
           parse_rule("f(A,B) :- edge(A,C), edge(C,C).")]))
@example((FactStore([ground("edge", "a", "b"), ground("edge", "b", "b"), ground("edge", "c", "a")]),
          [parse_rule("f(A,A) :- edge(B,C), edge(C,A)."),
           parse_rule("f(A,A) :- edge(B,C), edge(C,C)."),
           parse_rule("f(A,A) :- edge(B,C), node(C)."),
           parse_rule("f(A,B) :- edge(A,B), node(C)."),
           parse_rule("f(A,B) :- edge(A,B), edge(C,C)."),
           parse_rule("f(A,A) :- edge(B,C), edge(C,A).")]))
def test_coverage_pack_matches_per_example_joins_on_any_rule_sequence(sequence):
    # one pack answers the whole sequence, so a prefix state kept from an
    # earlier rule that does not belong to the current one would show
    store, rules = sequence
    examples = [ground("f", x, y) for x in _PACK_CONSTS for y in _PACK_CONSTS]
    pack = CoveragePack(store, examples)
    for rule in rules:
        assert covers_rule(store, rule, examples, pack) == \
            _per_example_mask(store, rule, examples), rule
    assert pack.extensions <= sum(len(r.body) for r in rules)


def test_coverage_pack_is_tied_to_its_store_and_examples(intro_model):
    examples = [ground("f", 3)]
    pack = CoveragePack(intro_model, examples)
    rule = parse_rule("f(A) :- odd(A).")
    with pytest.raises(ValueError, match="pack"):
        covers_rule(intro_model, rule, list(examples), pack)
    with pytest.raises(ValueError, match="pack"):
        covers_rule(FactStore(), rule, examples, pack)
    assert covers_rule(intro_model, rule, examples, pack) == 1


def test_coverage_pack_checks_the_deadline_between_extensions(intro_model):
    examples = [ground("f", i) for i in range(1, 11)]
    pack = CoveragePack(intro_model, examples, deadline=0.0)
    # a single extension runs without a check
    assert covers_rule(intro_model, parse_rule("f(A) :- odd(A)."), examples, pack) == 0b101010101
    with pytest.raises(DeadlineExceeded):
        covers_rule(intro_model, parse_rule("f(A) :- gt(A,3), odd(A)."), examples, pack)
    # the prefix built before the deadline passed is kept and consistent
    pack.deadline = None
    assert covers_rule(intro_model, parse_rule("f(A) :- gt(A,3), odd(A)."), examples, pack) == \
        0b101010000
    assert pack.extensions == 3


def test_coverage_pack_defers_a_literal_no_bound_variable_reaches():
    # a(B,C) comes first in concrete-key order but shares no variable with
    # the head: joined there, it would cross every example with every a/2
    # fact, so it waits until b(A,B) binds B
    store = FactStore([*(ground("a", f"x{i}", f"y{i}") for i in range(50)),
                       ground("b", "n1", "x3"), ground("b", "n2", "z"), ground("c", "z")])
    examples = [ground("f", f"n{i}") for i in range(4)]
    pack = CoveragePack(store, examples)
    assert covers_rule(store, parse_rule("f(A) :- a(B,C), b(A,B)."), examples, pack) == 0b10
    assert len(pack._states) == 2
    assert all(len(rows) <= len(examples) for _, rows in pack._states)
    assert covers_rule(store, parse_rule("f(A) :- a(B,C), b(A,D)."), examples, pack) == 0b110
    # literals that no literal reaches need a solution of their own
    assert covers_rule(store, parse_rule("f(A) :- b(A,B), d(C)."), examples) == 0
    assert covers_rule(store, parse_rule("f(A) :- b(A,B), c(C)."), examples) == 0b110
    assert covers_rule(store, parse_rule("f(A) :- a(B,C), c(C)."), examples) == 0
    assert covers_rule(store, parse_rule("f(A) :- a(B,C), c(D)."), examples) == 0b1111


def test_coverage_pack_shares_the_prefixes_of_a_stratum(intro_task, intro_model):
    # intro's size-4 stratum in generator order: each rule's parent prefix
    # was built for an earlier rule, so most rules cost one extension
    from razor import ConstraintStore, HypothesisGenerator

    stratum = HypothesisGenerator(intro_task.bias, ConstraintStore()).rule_stratum(4)
    examples = [*intro_task.pos, *intro_task.neg]
    pack = CoveragePack(intro_model, examples)
    for rule in stratum:
        assert covers_rule(intro_model, rule, examples, pack) == \
            _per_example_mask(intro_model, rule, examples), rule
    assert len(stratum) < pack.extensions < 2 * len(stratum)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("name", ["intro", "transitive_gt", "eight_puzzle_mini", "trains_mini"])
def test_coverage_pack_agrees_with_least_model_on_every_tested_fixture_rule(
        fixtures_dir, monkeypatch, name, noisy):
    task = parse_task(fixtures_dir / name)
    _, rules, _ = checked_learn(monkeypatch, task, LearnConfig(noisy=noisy))
    assert rules > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_coverage_pack_and_recursive_masks_agree_with_least_model_on_chain_tasks(
        monkeypatch, seed):
    result, rules, recursive = checked_learn(monkeypatch, chain_task(seed), LearnConfig())
    assert result.best_score == (0, 5)
    assert rules > 0 and recursive > 0


# ---------------------------------------------------------------------------
# implies
# ---------------------------------------------------------------------------

def test_implies_odd_implies_int(intro_task, intro_model):
    dom = list(intro_task.constant_domain)
    assert implies(intro_model, [lit("odd", "A")], lit("int", "A"), dom)
    assert not implies(intro_model, [lit("int", "A")], lit("odd", "A"), dom)


def test_implies_gt_transitive(transitive_task):
    m = least_model(transitive_task.bk)
    dom = list(transitive_task.constant_domain)
    assert implies(m, [lit("gt", "A", "B"), lit("gt", "B", "C")],
                   lit("gt", "A", "C"), dom)


def test_implies_falsified_by_out_of_range_constant():
    program = facts(*(f"odd({i})." for i in (1, 3, 5, 7, 9, 11)),
                    *(f"lt({i},10)." for i in range(1, 10)))
    m = least_model(program)
    dom = [Const(str(i)) for i in range(1, 13)]
    assert not implies(m, [lit("odd", "A")], lit("lt", "A", "10"), dom)


def test_implies_vacuous_when_body_unsatisfiable(intro_model, intro_task):
    dom = list(intro_task.constant_domain)
    body = [lit("odd", "A"), lit("even", "A")]
    assert implies(intro_model, body, lit("gt", "A", "3"), dom)


def test_implies_residual_variable_ranges_over_domain(intro_model, intro_task):
    dom = list(intro_task.constant_domain)
    # A occurs only in the conclusion: lt(A,10) fails at A=10
    assert not implies(intro_model, [], lit("lt", "A", "10"), dom)
    small = [Const(str(i)) for i in range(1, 10)]
    assert implies(intro_model, [], lit("lt", "A", "10"), small)


def test_implies_with_seed_binding(intro_model, intro_task):
    dom = list(intro_task.constant_domain)
    body = [lit("gt", "A", "B")]
    # under A=5: every B with gt(5,B) also satisfies lt(B,5)
    assert implies(intro_model, body, lit("lt", "B", "5"), dom,
                   seed={"A": Const("5")})
    assert not implies(intro_model, body, lit("lt", "B", "4"), dom,
                       seed={"A": Const("5")})


def test_head_binding_is_none_for_an_example_of_another_predicate():
    rule = parse_rule("f(A,B) :- edge(A,B).")
    assert head_binding(rule, ground("f", "a", "b")) == {"A": Const("a"), "B": Const("b")}
    assert head_binding(rule, ground("g", "a", "b")) is None
    assert head_binding(rule, ground("f", "a")) is None


# ---------------------------------------------------------------------------
# brute-force cross-checks of the query engine
# ---------------------------------------------------------------------------

def _random_store_and_query(seed):
    from itertools import product

    from razor import Literal, Var
    from razor.datalog import FactStore

    rng = random.Random(seed)
    domain = [str(i) for i in range(1, rng.randint(3, 5))]
    preds = [("p", 1), ("q", 2), ("r", 2)][: rng.randint(2, 3)]
    store = FactStore()
    for name, arity in preds:
        for combo in product(domain, repeat=arity):
            if rng.random() < 0.45:
                store.add(Literal(name, tuple(Const(c) for c in combo)))
    variables = [Var(v) for v in "ABC"]
    body = []
    for _ in range(rng.randint(1, 3)):
        name, arity = rng.choice(preds)
        args = tuple(
            rng.choice(variables) if rng.random() < 0.8 else Const(rng.choice(domain))
            for _ in range(arity)
        )
        body.append(Literal(name, args))
    name, arity = rng.choice(preds)
    target = Literal(name, tuple(rng.choice(variables) for _ in range(arity)))
    return store, body, target, [Const(c) for c in domain]


def _ground_all(body, assignment):
    from razor.logic import apply_subst

    return [apply_subst(l, assignment) for l in body]


def test_substitutions_match_exhaustive_grounding():
    from itertools import product

    for seed in range(60):
        store, body, _, domain = _random_store_and_query(seed)
        body_vars = sorted({v for l in body for v in l.vars()})
        got = _subs_set(store, body)
        want = set()
        for combo in product(domain, repeat=len(body_vars)):
            theta = dict(zip(body_vars, combo))
            if all(store.contains(g) for g in _ground_all(body, theta)):
                want.add(tuple(sorted((v, t.name) for v, t in theta.items())))
        assert got == want, seed


def test_implies_matches_exhaustive_grounding():
    from itertools import product

    agree = 0
    for seed in range(120):
        store, body, target, domain = _random_store_and_query(seed)
        all_vars = sorted({v for l in body for v in l.vars()} | set(target.vars()))
        expected = True
        for combo in product(domain, repeat=len(all_vars)):
            theta = dict(zip(all_vars, combo))
            if all(store.contains(g) for g in _ground_all(body, theta)) \
                    and not store.contains(_ground_all([target], theta)[0]):
                expected = False
                break
        got = implies(store, body, target, domain)
        assert got == expected, (seed, body, target)
        agree += 1
    assert agree == 120


# ---------------------------------------------------------------------------
# implies against the refutation-first reference
# ---------------------------------------------------------------------------

def _captured_pairs(task):
    for rule_size in range(2, 2 + task.bias.max_body):
        for rule in _rule_stratum(task.bias, rule_size, ceiling=200_000):
            for literal in sorted(rule.body, key=concrete_key):
                if captured(rule, literal):
                    yield rule, literal


@pytest.mark.parametrize("seed,recursion",
                         [(s, False) for s in range(1, 13)] + [(s, True) for s in range(1, 5)])
def test_implies_agrees_with_reference_on_micro_strata(seed, recursion):
    # every (rule, captured literal) pair: the reducible query without a
    # seed, and the indiscriminate query under each negative's head binding
    task = random_task(seed, recursion=recursion).task
    model = least_model(task.bk)
    domain = list(task.constant_domain)
    pairs = 0
    for rule, literal in _captured_pairs(task):
        pairs += 1
        body = rule.body - {literal}
        assert implies(model, body, literal, domain) == \
            implies_by_refutation(model, body, literal, domain), (rule, literal)
        for e in task.neg:
            theta = head_binding(rule, e)
            if theta is None:
                continue
            assert implies(model, body, literal, domain, theta) == \
                implies_by_refutation(model, body, literal, domain, theta), (rule, literal, e)
    assert pairs > 0


def test_implies_by_solutions_agrees_with_refutation_on_micro_pairs():
    # the implied-pair test verify_audit uses, against the refutation
    # reference with the containment of variables, on random pairs of
    # literals each micro bias allows, recursive tasks included
    from razor.reference import implies_by_solutions

    rng = random.Random(29)
    outcomes = set()
    for seed in range(1, 61):
        task = random_task(seed, recursion=seed % 3 == 0).task
        model = least_model(task.bk)
        domain = list(task.constant_domain)
        pool = bias_literal_pool(task.bias)
        for _ in range(40):
            a, l = rng.choice(pool), rng.choice(pool)
            want = l.vars() <= a.vars() and implies_by_refutation(model, [a], l, domain)
            assert implies_by_solutions(model, a, l) == want, (seed, a, l)
            outcomes.add(want)
    assert outcomes == {False, True}


@st.composite
def _implication_queries(draw):
    """A random store over a small domain, a body over A-C (possibly
    unsatisfiable, possibly empty) and a literal over A-D, so that D never
    occurs in the body, with an optional seed.  The ternary predicate makes
    joins with two bound positions and a free one."""
    domain = [str(i) for i in range(1, draw(st.integers(1, 4)) + 1)]
    preds = [("p", 1), ("q", 2), ("r", 2), ("s", 3)]
    store = FactStore()
    for name, arity in preds:
        for combo in product(domain, repeat=arity):
            if draw(st.booleans()):
                store.add(Literal(name, tuple(Const(c) for c in combo)))
    consts = [Const(c) for c in domain]

    def literal(names):
        name, arity = draw(st.sampled_from(preds))
        terms = st.sampled_from([Var(v) for v in names] + consts)
        return Literal(name, tuple(draw(terms) for _ in range(arity)))

    body = [literal("ABC") for _ in range(draw(st.integers(0, 3)))]
    target = literal("ABCD")
    seed = draw(st.none() | st.dictionaries(st.sampled_from("ABCD"), st.sampled_from(consts)))
    return store, body, target, consts, seed


@settings(max_examples=300, deadline=None)
@given(_implication_queries())
def test_substitutions_match_exhaustive_grounding_on_generated_stores(query):
    from razor.logic import apply_subst

    store, body, _, domain, seed = query
    seed = seed or {}
    free = sorted({v for b in body for v in b.vars()} - set(seed))
    want = set()
    for combo in product(domain, repeat=len(free)):
        theta = {**seed, **dict(zip(free, combo))}
        if all(store.contains(apply_subst(b, theta)) for b in body):
            want.add(tuple(sorted((v, t.name) for v, t in theta.items())))
    assert _subs_set(store, body, seed) == want


@settings(max_examples=400, deadline=None)
@given(_implication_queries())
def test_implies_agrees_with_reference_on_generated_stores(query):
    store, body, target, domain, seed = query
    assert implies(store, body, target, domain, seed) == \
        implies_by_refutation(store, body, target, domain, seed)


@st.composite
def _lone_variable_queries(draw):
    """Queries whose literal has lone variables, D and E, which occur in no
    body literal: two of them, a repeated one (as in s(A,D,D)) or one beside
    a constant.  The store is dense enough for a lone variable to take
    every value now and then, and the domain is a strict subset or a strict
    superset of the store's constants."""
    consts = [str(i) for i in range(1, draw(st.integers(2, 4)) + 1)]
    preds = [("p", 1), ("q", 2), ("r", 2), ("s", 3)]
    density = draw(st.sampled_from([4, 7, 9]))
    store = FactStore()
    for name, arity in preds:
        for combo in product(consts, repeat=arity):
            if draw(st.integers(0, 9)) < density:
                store.add(Literal(name, tuple(Const(c) for c in combo)))
    if draw(st.booleans()):
        domain = draw(st.lists(st.sampled_from(consts), unique=True,
                               min_size=1, max_size=len(consts) - 1))
    else:
        domain = consts + ["8", "9"][:draw(st.integers(1, 2))]
    body_terms = st.sampled_from([Var(v) for v in "ABC"] + [Const(c) for c in consts])

    def body_literal():
        name, arity = draw(st.sampled_from(preds))
        return Literal(name, tuple(draw(body_terms) for _ in range(arity)))

    body = [body_literal() for _ in range(draw(st.integers(0, 3)))]
    shape = draw(st.sampled_from(["two lone", "repeated lone", "constant beside lone"]))
    fixed = {"two lone": [Var("D"), Var("E")],
             "repeated lone": [Var("D"), Var("D")],
             "constant beside lone": [Var("D"), Const(draw(st.sampled_from(consts)))]}[shape]
    name, arity = draw(st.sampled_from([("q", 2), ("r", 2), ("s", 3)]))
    args = fixed + [draw(body_terms) for _ in range(arity - 2)]
    target = Literal(name, tuple(draw(st.permutations(args))))
    seed = draw(st.none() | st.dictionaries(st.sampled_from("ABC"),
                                            st.sampled_from([Const(c) for c in consts])))
    return store, body, target, [Const(c) for c in domain], seed


@settings(max_examples=300, deadline=None)
@given(_lone_variable_queries())
# a body solution binding A outside the domain is no grounding to check
@example((FactStore([ground("p", 1), ground("p", 2), ground("s", 1, 1, 1)]),
          [lit("p", "A")], lit("s", "A", "D", "D"), [Const("1")], None))
def test_implies_agrees_with_reference_on_lone_variable_queries(query):
    store, body, target, domain, seed = query
    assert implies(store, body, target, domain, seed) == \
        implies_by_refutation(store, body, target, domain, seed)


def test_lone_variable_query_makes_no_check_per_domain_value(monkeypatch):
    # a 200-node chain: link(D,B) asks, for each edge(A,B), whether every
    # node D links to B; node(D) holds for every D
    from razor import datalog

    n = 200
    store = FactStore()
    for i in range(n):
        store.add(ground("node", f"n{i}"))
        if i + 1 < n:
            store.add(ground("edge", f"n{i}", f"n{i + 1}"))
            store.add(ground("link", f"n{i}", f"n{i + 1}"))
    domain = [Const(f"n{i}") for i in range(n)]
    calls = []
    real = datalog._satisfiable

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(datalog, "_satisfiable", counting)
    body = [lit("edge", "A", "B")]
    for target, implied in [(lit("link", "D", "B"), False), (lit("node", "D"), True),
                            (lit("edge", "D", "E"), False)]:
        calls.clear()
        assert implies(store, body, target, domain) == implied
        # at most one check of the body component apart from the target,
        # none per value of D
        assert len(calls) <= 1, target


def test_implies_checks_a_component_apart_from_the_target_once(monkeypatch):
    # succ(C,C) shares no variable with p(A,B) or q(B): its one check must
    # not be repeated for each of the 1,000 solutions of p(a,B)
    from razor import datalog

    n = 1000
    store = FactStore([*(ground("p", "a", f"b{i}") for i in range(n)),
                       *(ground("succ", f"c{i}", f"c{i + 1}") for i in range(n))])
    calls = []
    real = datalog._filter

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(datalog, "_filter", counting)
    body = [lit("p", "A", "B"), lit("succ", "C", "C")]
    seed = {"A": Const("a")}
    assert implies(store, body, lit("q", "B"), [Const("b0")], seed)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# least_model extending a base model
# ---------------------------------------------------------------------------

def _fact_set(store):
    return {(key, args) for key in store._facts for args in store.tuples(key)}


def _recursive_hypotheses(mt):
    for size in range(2, mt.search_size + 1):
        for h in enumerate_all(mt.task.bias, size):
            heads = {r.head.pred_key for r in h}
            if any(b.pred_key in heads for r in h for b in r.body):
                yield h


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_extension_equals_full_model_on_recursive_micro_hypotheses(seed):
    mt = random_task(seed, recursion=True)
    bk = mt.task.bk
    base = least_model(bk)
    checked = 0
    for h in _recursive_hypotheses(mt):
        assert _fact_set(least_model(h, base=base)) == _fact_set(least_model([*bk, *h])), h
        checked += 1
    assert checked > 0


def test_extension_equals_full_model_with_target_facts_in_bk():
    # background facts of the target predicate are legal under recursion;
    # the extension copies their bucket instead of sharing it
    rng = random.Random(41)
    recursive = 0
    for _ in range(80):
        bk, h = random_goal_program(rng)
        base = least_model(bk)
        assert _fact_set(least_model(h, base=base)) == _fact_set(least_model([*bk, *h])), h
        recursive += any(b.pred == "goal" for r in h for b in r.body)
    assert recursive > 0


def test_extension_leaves_the_base_unchanged():
    mt = random_task(2, recursion=True)
    base = least_model(mt.task.bk)
    for key in list(base._facts):
        for pos in range(key[1]):
            base._index(key, pos)
    facts = {key: set(bucket) for key, bucket in base._facts.items()}
    indexes = {k: {v: list(b) for v, b in idx.items()} for k, idx in base._pos_index.items()}
    target = mt.task.bias.head
    grown = 0
    for h in _recursive_hypotheses(mt):
        ext = least_model(h, base=base)
        grown += len(ext) > len(base)
    assert grown > 0
    assert base._facts == facts
    assert base._pos_index == indexes
    shared = next(key for key in base._facts if key != target)
    with pytest.raises(ValueError, match="shared"):
        ext.add_tuple(shared, ("x",) * shared[1])
