import dataclasses
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (GROUND_LITERAL_FILES, bench_chain_tasks, chain_task, hypothesis_key,
                     parse_hypothesis, parse_rule, rule_ids)

from razor import (
    Bias,
    BiasError,
    Constraint,
    ConstraintKind,
    ConstraintStore,
    DetectMode,
    Detector,
    HypothesisGenerator,
    LearnConfig,
    find_pointless,
    learn,
    least_model,
    parse_task,
    parse_task_strings,
)
from razor import generate
from razor.generate import DeadlineExceeded, _literal_key
from razor.reference import implies_by_solutions, satisfying_substitutions, violates
from razor.logic import (
    Rule,
    canonicalize,
    canonicalize_hypothesis,
    hypothesis_size,
    in_search_space,
    rename_literal,
    var_name,
)
from razor.microtask import random_task
from razor.oracle import DEFAULT_CEILING, _rule_stratum, enumerate_all
from razor.pointless import PointlessEvidence, PointlessKind, reduce_rule
from razor.search import CoverageTester


def _evidence(task, text):
    h = frozenset(canonicalize(r) for r in parse_hypothesis(text))
    model = least_model(task.bk)
    found = find_pointless(h, Detector(model, task.neg, list(task.constant_domain),
                                       DetectMode.BOTH))
    assert found, f"no evidence in {text!r}"
    return found[0]


def _pointless_con(task, text):
    return Constraint(ConstraintKind.POINTLESS_SUPER_RULE,
                      evidence=_evidence(task, text))


def _canon(text):
    return canonicalize_hypothesis(parse_hypothesis(text))


def _store_rejects(store, h):
    ids = rule_ids(store, h)
    return store.violated_non_pointless(ids) or store.first_pointless_violation(ids) is not None


# ---------------------------------------------------------------------------
# bias validation
# ---------------------------------------------------------------------------

def test_bias_rejects_zero_bounds():
    with pytest.raises(BiasError):
        Bias(head=("f", 1), body_preds=(("p", 1),), max_vars=0)


def test_bias_rejects_head_among_body_preds_without_recursion():
    with pytest.raises(BiasError):
        Bias(head=("f", 1), body_preds=(("f", 1), ("p", 1)))
    Bias(head=("f", 1), body_preds=(("f", 1), ("p", 1)), recursion=True)


def test_bias_rejects_head_arity_beyond_max_vars():
    with pytest.raises(BiasError):
        Bias(head=("f", 3), body_preds=(("p", 1),), max_vars=2)


# ---------------------------------------------------------------------------
# violates
# ---------------------------------------------------------------------------

def test_violates_pointless_super_rule(intro_task):
    c = _pointless_con(intro_task, "f(A) :- odd(A), int(A).")
    h = _canon("f(A) :- odd(A), int(A), gt(A,3), lt(A,8).")
    assert violates(h, c)
    assert not violates(_canon("f(A) :- odd(A), gt(A,3)."), c)


def test_violates_pointless_requires_basic(intro_task):
    c = _pointless_con(intro_task, "f(A) :- odd(A), int(A).")
    recursive = _canon("f(A) :- odd(A), int(A), succ(A,B), f(B).")
    assert not violates(recursive, c)


def test_violates_pointless_requires_reduction_in_space(intro_task):
    # the redundant literal may not be the one carrying the head variable
    c = _pointless_con(intro_task, "f(A) :- lt(A,10).")
    assert violates(_canon("f(A) :- odd(A), lt(A,10)."), c)
    # dropping lt(A,10) would leave the head variable uncovered
    assert not violates(_canon("f(A) :- lt(A,10)."), c)


def test_violates_specialisation(intro_task):
    c = Constraint(ConstraintKind.SPECIALISATION,
                   hypothesis=_canon("f(A) :- even(A)."))
    assert violates(_canon("f(A) :- even(A), gt(A,2)."), c)
    assert not violates(_canon("f(A) :- odd(A)."), c)


def test_violates_specialisation_needs_every_rule_matched():
    c = Constraint(ConstraintKind.SPECIALISATION,
                   hypothesis=_canon("f(A) :- even(A)."))
    h = _canon("f(A) :- even(A), gt(A,2).\nf(A) :- odd(A).")
    assert not violates(h, c)


def test_violates_generalisation():
    c = Constraint(ConstraintKind.GENERALISATION,
                   hypothesis=_canon("f(A) :- odd(A), int(A)."))
    assert violates(_canon("f(A) :- odd(A)."), c)
    assert not violates(_canon("f(A) :- odd(A), int(A), gt(A,3)."), c)


# ---------------------------------------------------------------------------
# constraint store
# ---------------------------------------------------------------------------

def test_add_constraint_idempotent(intro_task):
    store = ConstraintStore()
    c = _pointless_con(intro_task, "f(A) :- odd(A), int(A).")
    assert store.add(c)
    assert not store.add(c)
    assert len(store) == 1

    store = ConstraintStore()
    h = _canon("f(A) :- odd(A).")
    one_of_each = [
        Constraint(ConstraintKind.SPECIALISATION, hypothesis=h),
        Constraint(ConstraintKind.GENERALISATION, hypothesis=h),
        c,
    ]
    for con in one_of_each + one_of_each:
        store.add(con)
    assert len(store) == 3
    assert store.counts() == {kind.value: 1 for kind in ConstraintKind}


def test_store_mirrors_violates_semantics(intro_task):
    rng = random.Random(3)
    store = ConstraintStore()
    cons = [
        Constraint(ConstraintKind.SPECIALISATION, hypothesis=_canon("f(A) :- even(A).")),
        Constraint(ConstraintKind.GENERALISATION, hypothesis=_canon("f(A) :- odd(A), int(A).")),
        _pointless_con(intro_task, "f(A) :- odd(A), int(A)."),
        _pointless_con(intro_task, "f(A) :- lt(A,10)."),
    ]
    for c in cons:
        store.add(c)
    candidates = [
        _canon("f(A) :- odd(A)."),
        _canon("f(A) :- even(A), gt(A,2)."),
        _canon("f(A) :- odd(A), int(A), gt(A,3)."),
        _canon("f(A) :- odd(A), lt(A,10)."),
        _canon("f(A) :- lt(A,10)."),
        _canon("f(A) :- odd(A), gt(A,3), lt(A,8)."),
        _canon("f(A) :- even(A).\nf(A) :- odd(A)."),
    ]
    for h in candidates:
        expected = any(violates(h, c) for c in cons)
        assert _store_rejects(store, h) == expected, f"{h} expected {expected}"


def test_refresh_tests_only_new_pointless_constraints(monkeypatch):
    calls = []
    real = generate._pointless_match
    monkeypatch.setattr(generate, "_pointless_match",
                        lambda c, r: calls.append(c) or real(c, r))
    rule = next(iter(_canon("f(A) :- lt(A,B), gt(B,3).")))

    def con(text):
        lit = next(l for l in rule.body if repr(l) == text)
        ev = PointlessEvidence(rule, lit, PointlessKind.REDUCIBLE, reduce_rule(rule, lit))
        return Constraint(ConstraintKind.POINTLESS_SUPER_RULE, evidence=ev)

    # dropping lt(A,B) leaves an unsafe rule, so the first never matches
    first, second = con("lt(A,B)"), con("gt(B,3)")
    store = ConstraintStore()
    store.add(first)
    (rid,) = rule_ids(store, {rule})
    assert store.pointless_match(rid) is None
    assert store.pointless_match(rid) is None
    assert calls == [first]
    store.add(second)
    assert store.pointless_match(rid)[0] is second
    assert calls == [first, second]


def test_a_head_of_another_shape_shares_no_bucket(monkeypatch):
    # constraints on rules headed f(A,A) are filed apart from the
    # generator's f(A,B) rules, so no candidate of the generator is ever
    # tested against them, and a candidate headed f(A,A) still is
    calls = []
    for name in ("renamed_subrule", "_pointless_match"):
        real = getattr(generate, name)
        monkeypatch.setattr(generate, name, lambda *a, real=real: calls.append(a) or real(*a))
    bias = Bias(head=("f", 2), body_preds=(("e", 2),), max_vars=3, max_body=2, max_rules=2)
    wide = parse_rule("f(A,A) :- e(A,A), e(A,B).")
    ev = PointlessEvidence(wide, next(l for l in wide.body if repr(l) == "e(A,B)"),
                           PointlessKind.REDUCIBLE, parse_rule("f(A,A) :- e(A,A)."))
    cons = [
        Constraint(ConstraintKind.SPECIALISATION, hypothesis=_canon("f(A,A) :- e(A,B).")),
        Constraint(ConstraintKind.GENERALISATION, hypothesis=frozenset({wide})),
        Constraint(ConstraintKind.POINTLESS_SUPER_RULE, evidence=ev),
    ]
    store = ConstraintStore()
    for c in cons:
        store.add(c)
    candidates = [h for size in range(2, bias.max_size + 1) for h in enumerate_all(bias, size)]
    assert candidates
    for h in candidates:
        assert not any(violates(h, c) for c in cons), h
        assert not _store_rejects(store, h), h
    gen = HypothesisGenerator(bias, store)
    emitted = [h for size in range(2, bias.max_size + 1) for h in _drain(gen, size)]
    assert sorted(map(hypothesis_key, emitted)) == sorted(map(hypothesis_key, candidates))
    assert calls == []
    # the control: the same head shape is matched
    assert _store_rejects(store, _canon("f(A,A) :- e(A,B), e(B,B)."))
    assert calls


def test_no_rule_cache_outlives_a_run(intro_task):
    defined = [obj for obj in vars(generate).values()
               if getattr(obj, "__module__", None) == generate.__name__]
    members = [m for cls in defined if isinstance(cls, type) for m in vars(cls).values()]
    assert [obj for obj in defined + members if hasattr(obj, "cache_info")] == []

    def counters(result):
        stats = {k: v for k, v in result.stats.to_dict().items()
                 if not k.startswith("time_") and not k.endswith("fraction")}
        return stats, result.best, result.best_score, result.evidence, result.audit_records

    config = LearnConfig(audit=True)
    assert counters(learn(intro_task, config)) == counters(learn(intro_task, config))


def _all_candidates(mt):
    return sorted(
        (h for size in range(2, mt.search_size + 1) for h in enumerate_all(mt.task.bias, size)),
        key=hypothesis_key,
    )


def _renamed(rule, rng):
    """The rule under a random injective renaming to non-canonical names."""
    names = sorted(rule.vars())
    theta = dict(zip(names, rng.sample(["X", "Y", "Z", "W", "Tmp", "V9"], len(names))))
    return Rule(rename_literal(rule.head, theta),
                frozenset(rename_literal(lit, theta) for lit in rule.body))


def _random_constraint(candidates, rng):
    kind = rng.choice([ConstraintKind.SPECIALISATION, ConstraintKind.GENERALISATION,
                       ConstraintKind.POINTLESS_SUPER_RULE])
    # specialisations and super-rules of small hypotheses are plentiful
    if kind is not ConstraintKind.GENERALISATION:
        candidates = [h for h in candidates if hypothesis_size(h) <= 3]
    rules = [_renamed(r, rng) for r in rng.choice(candidates)]
    if kind is not ConstraintKind.POINTLESS_SUPER_RULE:
        return Constraint(kind, hypothesis=frozenset(rules))
    rule = rng.choice(rules)
    lit = rng.choice(sorted(rule.body, key=repr))
    ev = PointlessEvidence(rule, lit, PointlessKind.REDUCIBLE, reduce_rule(rule, lit))
    return Constraint(kind, evidence=ev)


# micro-tasks whose bias allows constants: single- and two-rule, head
# arity 1 and 2
@pytest.mark.parametrize("seed", [2, 3, 5, 8, 12, 21])
def test_store_index_agrees_with_violates_on_micro_strata(seed):
    mt = random_task(seed)
    assert mt.task.bias.constants
    candidates = _all_candidates(mt)
    rng = random.Random(seed)
    store = ConstraintStore()
    cons = []
    # constraints arrive in batches, so the per-rule caches are refreshed
    for _ in range(3):
        for _ in range(6):
            c = _random_constraint(candidates, rng)
            cons.append(c)
            store.add(c)
        allowed = set()
        for h in candidates:
            expected = any(violates(h, c) for c in cons)
            assert _store_rejects(store, h) == expected, (h, expected)
            if not expected:
                allowed.add(h)
    gen = HypothesisGenerator(mt.task.bias, store)
    emitted = {h for size in range(2, mt.search_size + 1) for h in _drain(gen, size)}
    assert emitted == allowed


@pytest.mark.parametrize("seed", [1, 2, 8, 12])
def test_pointless_constraints_from_a_missed_positive_are_subsumed(seed):
    # with one rule per hypothesis, a hypothesis that misses a positive
    # gets a specialisation constraint that bans everything its pointless
    # constraints would ban
    mt = random_task(seed)
    task = mt.task
    assert task.bias.max_rules == 1
    candidates = _all_candidates(mt)
    tester = CoverageTester(task.bk, task.pos, task.neg)
    detector = Detector(tester.model, task.neg, list(task.constant_domain))
    rng = random.Random(seed)
    banned = 0
    for h0 in rng.sample(candidates, 40):
        pm, _ = tester.masks(h0)
        if pm.bit_count() == len(task.pos):
            continue
        spec = Constraint(ConstraintKind.SPECIALISATION, hypothesis=h0)
        for ev in find_pointless(h0, detector):
            c = Constraint(ConstraintKind.POINTLESS_SUPER_RULE, evidence=ev)
            for h in candidates:
                if violates(h, c):
                    banned += 1
                    assert violates(h, spec), (h0, ev, h)
    assert banned > 0


@pytest.mark.parametrize("seed", [1, 2, 8, 12])
def test_generalisation_constraints_of_one_rule_hypotheses_ban_nothing_new(seed):
    # with one rule per hypothesis, a generalisation constraint bans only
    # renamed subrules of the tested rule: smaller hypotheses, which the
    # ascending-size enumerator offered before, and the tested one itself
    mt = random_task(seed)
    assert mt.task.bias.max_rules == 1
    candidates = _all_candidates(mt)
    rng = random.Random(seed)
    smaller = 0
    for h0 in rng.sample(candidates, 40):
        c = Constraint(ConstraintKind.GENERALISATION, hypothesis=h0)
        for h in candidates:
            if violates(h, c):
                assert h == h0 or hypothesis_size(h) < hypothesis_size(h0), (h0, h)
                smaller += h != h0
    assert smaller > 0


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _drain(gen, size):
    out = []
    while (h := gen.next_hypothesis(size)) is not None:
        out.append(h)
    return out


def test_intro_size2_stream_contents(intro_task):
    gen = HypothesisGenerator(intro_task.bias, ConstraintStore())
    got = set(_drain(gen, 2))
    assert _canon("f(A) :- odd(A).") in got
    assert _canon("f(A) :- int(A).") in got
    # unsafe and disconnected rules never appear
    assert all(len(h) == 1 for h in got)


def test_stream_exhaustion_returns_none(intro_task):
    gen = HypothesisGenerator(intro_task.bias, ConstraintStore())
    _drain(gen, 2)
    assert gen.next_hypothesis(2) is None
    assert gen.next_hypothesis(2) is None


def test_pointless_constraint_blocks_future_candidates(intro_task):
    store = ConstraintStore()
    store.add(_pointless_con(intro_task, "f(A) :- odd(A), int(A)."))
    gen = HypothesisGenerator(intro_task.bias, store)
    for size in (2, 3, 4):
        for h in _drain(gen, size):
            for rule in h:
                body = {repr(l) for l in rule.body}
                assert not {"odd(A)", "int(A)"} <= body, repr(rule)


def test_emission_is_sound_against_violates(intro_task):
    # every emitted hypothesis satisfies every stored constraint
    store = ConstraintStore()
    cons = [
        Constraint(ConstraintKind.SPECIALISATION, hypothesis=_canon("f(A) :- even(A).")),
        Constraint(ConstraintKind.GENERALISATION, hypothesis=_canon("f(A) :- lt(A,B).")),
        _pointless_con(intro_task, "f(A) :- odd(A), int(A)."),
        _pointless_con(intro_task, "f(A) :- lt(A,10)."),
    ]
    for c in cons:
        store.add(c)
    gen = HypothesisGenerator(intro_task.bias, store)
    for size in (2, 3):
        for h in _drain(gen, size):
            for c in cons:
                assert not violates(h, c), (h, c.kind)


def test_constraint_added_mid_stream_binds_the_pools_already_read(intro_task):
    # a pick of two rules of one size reads its filtered pool before the
    # constraint arrives, so only the hypothesis-level check can reject
    # the later pairs holding a rule the constraint matches
    bias = dataclasses.replace(intro_task.bias, body_preds=(("odd", 1), ("int", 1), ("even", 1)),
                               max_vars=1, max_body=2, max_rules=2, constants={})
    con = _pointless_con(intro_task, "f(A) :- odd(A), int(A).")
    free = _drain(HypothesisGenerator(bias, ConstraintStore()), 6)
    first = next(i for i, h in enumerate(free) if violates(h, con))
    assert len(free[first]) == 2
    assert any(violates(h, con) for h in free[first + 1:])
    store = ConstraintStore()
    gen = HypothesisGenerator(bias, store)
    assert [gen.next_hypothesis(6) for _ in range(first + 1)] == free[:first + 1]
    store.add(con)
    assert _drain(gen, 6) == [h for h in free[first + 1:] if not violates(h, con)]


def test_monotone_pruning(intro_task):
    gen0 = HypothesisGenerator(intro_task.bias, ConstraintStore())
    baseline = {s: set(_drain(gen0, s)) for s in (2, 3)}

    store = ConstraintStore()
    store.add(_pointless_con(intro_task, "f(A) :- odd(A), int(A)."))
    store.add(Constraint(ConstraintKind.SPECIALISATION,
                         hypothesis=_canon("f(A) :- even(A).")))
    gen1 = HypothesisGenerator(intro_task.bias, store)
    for s in (2, 3):
        assert set(_drain(gen1, s)) <= baseline[s]


def _drained_tasks(fixtures_dir):
    for name in ("intro", "transitive_gt", "eight_puzzle_mini", "trains_mini"):
        task = parse_task(fixtures_dir / name)
        yield name, task, task.bias.max_size
    for seed in range(1, 13):
        mt = random_task(seed)
        yield f"micro-{seed}", mt.task, mt.search_size
    for seed in range(1, 5):
        mt = random_task(seed, recursion=True)
        yield f"recursive-{seed}", mt.task, mt.search_size


def test_no_duplicate_emissions_across_sizes(fixtures_dir):
    # learn stores no constraint against a tested hypothesis: it relies on
    # the generator offering each one at most once per run
    for name, task, max_size in _drained_tasks(fixtures_dir):
        gen = HypothesisGenerator(task.bias, ConstraintStore())
        emitted = [h for size in range(2, max_size + 1) for h in _drain(gen, size)]
        assert emitted, name
        assert len(emitted) == len(set(emitted)), name


def _baseless(h) -> bool:
    """Whether every rule of h has a body literal of its head predicate."""
    return all(any(lit.pred_key == r.head.pred_key for lit in r.body) for r in h)


def test_generator_skips_exactly_the_candidates_with_no_base_rule():
    # two generators over empty stores, one without the background model
    # and one given it (which holds no target fact) and building no bans:
    # the second offers the first's stream less the candidates with no
    # base rule, each of which covers what the background alone covers
    tasks = [(mt.task, mt.search_size)
             for mt in (random_task(seed, recursion=True) for seed in range(1, 51))]
    tasks.append((chain_task(1), 5))
    skipped_total = multi_rule = 0
    for task, max_size in tasks:
        tester = CoverageTester(task.bk, task.pos, task.neg)
        assert not tester.model.tuples(task.bias.head), task.name
        full_gen = HypothesisGenerator(task.bias, ConstraintStore())
        cut_gen = HypothesisGenerator(task.bias, ConstraintStore(), model=tester.model,
                                      mode=DetectMode.OFF)
        for size in range(2, max_size + 1):
            full, cut = _drain(full_gen, size), _drain(cut_gen, size)
            assert cut == [h for h in full if not _baseless(h)], (task.name, size)
            for h in full:
                if _baseless(h):
                    assert tester.masks(h) == (tester.base_pos, tester.base_neg), set(h)
                    skipped_total += 1
                    multi_rule += len(h) > 1
        assert cut_gen.baseless == full_gen.considered - cut_gen.considered, task.name
        assert full_gen.baseless == 0
    assert skipped_total > 0 and multi_rule > 0


def _reference_bans(task, model, lits, reducible=True,
                    equivalents=True) -> dict[frozenset, tuple]:
    """Every ban over the table's literals, straight from the reference
    implementations: a literal of a background predicate with no solution;
    if reducible and equivalents are set, of each class of live literals
    with one variable set that imply each other, every one whose
    head-anchored key is above the class's least, kept as equivalent to
    the first of the least key; and a pair of remaining ones with no
    joint solution or, if reducible is set, a pair (a, l) with a implying
    l and holding its variables.  Each is keyed by its literal set and
    given as (kind, literals)."""
    def dead(*body):
        return next(satisfying_substitutions(model, body), None) is None

    def implied(a, l):
        return reducible and implies_by_solutions(model, a, l)

    head = HypothesisGenerator(task.bias, ConstraintStore())._head()
    lits = [lit for lit in lits if lit.pred_key != task.bias.head]
    out = {frozenset([lit]): ("dead-literal", (lit,)) for lit in lits if dead(lit)}
    live = [lit for lit in lits if frozenset([lit]) not in out]
    classes: list[list] = []
    for lit in live if reducible and equivalents else ():
        for members in classes:
            if lit.vars() == members[0].vars() and implied(lit, members[0]) \
                    and implied(members[0], lit):
                members.append(lit)
                break
        else:
            classes.append([lit])
    for members in classes:
        least = min(_literal_key(lit, head) for lit in members)
        kept = next(lit for lit in members if _literal_key(lit, head) == least)
        for lit in members:
            if _literal_key(lit, head) != least:
                out[frozenset([lit])] = ("equivalent-literal", (lit, kept))
    live = [lit for lit in live if frozenset([lit]) not in out]
    for a, b in combinations(live, 2):
        if dead(a, b):
            out[frozenset([a, b])] = ("dead-pair", (a, b))
        elif implied(a, b):
            out[frozenset([a, b])] = ("implied-pair", (a, b))
        elif implied(b, a):
            out[frozenset([a, b])] = ("implied-pair", (b, a))
    return out


def _keyed(bans) -> dict[frozenset, tuple]:
    """A generator's ban records keyed as _reference_bans keys them: by
    the banned literal or pair."""
    return {frozenset(ban.literals[:1] if ban.kind == "equivalent-literal" else ban.literals):
            (ban.kind, ban.literals) for ban in bans}


@pytest.fixture(scope="module")
def banned_tasks(fixtures_dir):
    """Per task (the four fixtures, eight_puzzle_mini with six variables,
    the benchmark's recursive-chain tasks of seed 1, micro seeds 1-12,
    recursive micro seeds 1-4 and a task with a constant at every
    argument of q/2): the task, a generator given its background model
    and the reference bans.  With six variables two of them are not in
    the head, so the symmetric adjacent/2 has class-mates tied at the
    least key that rename into each other.  Of the ground literals
    q(a,c) holds and q(b,c) is dead."""
    tasks = [parse_task(fixtures_dir / name) for name in
             ("intro", "transitive_gt", "eight_puzzle_mini", "trains_mini")]
    wide = parse_task(fixtures_dir / "eight_puzzle_mini")
    wide.name, wide.bias = "eight_puzzle_mini-6", dataclasses.replace(wide.bias, max_vars=6)
    tasks.append(wide)
    tasks += bench_chain_tasks(1)
    tasks += [random_task(seed).task for seed in range(1, 13)]
    tasks += [random_task(seed, recursion=True).task for seed in range(1, 5)]
    tasks.append(parse_task_strings(*GROUND_LITERAL_FILES.values(), name="ground-literals"))
    out = []
    for task in tasks:
        model = CoverageTester(task.bk, task.pos, task.neg).model
        gen = HypothesisGenerator(task.bias, ConstraintStore(), audit=True, model=model)
        out.append((task, gen, _reference_bans(task, model, gen._choice_table().lits)))
    return out


def _banned(table) -> tuple[set, set]:
    """The literals in no row of a choice table, and the pairs of the
    others that it bans, each pair's ban carried by both literals."""
    n = len(table.lits)
    choices = {c[1]: c for row in table.rows for c in row}
    literals = {lit for r, lit in enumerate(table.lits) if r not in choices}
    pairs = set()
    for r, s in combinations(sorted(choices), 2):
        banned = choices[r][6] >> (n - 1 - s) & 1
        assert banned == choices[s][6] >> (n - 1 - r) & 1
        if banned:
            pairs.add(frozenset([table.lits[r], table.lits[s]]))
    return literals, pairs


def test_ban_table_is_exact(banned_tasks):
    # a table literal is dead or equivalent, and a pair of table literals
    # banned, iff the reference says so; the table's ban list names each
    # once, with its kind; without the reducible mode the equivalent
    # literals and implied pairs go, and off builds no bans
    kinds = set()
    for task, gen, expected in banned_tasks:
        table = gen._choice_table()
        literals, pairs = _banned(table)
        assert {frozenset([lit]) for lit in literals} | pairs == set(expected), task.name
        assert _keyed(gen.ban_records) == expected, task.name
        assert len(gen.ban_records) == gen.bans == len(expected), task.name
        kinds |= {kind for kind, _ in expected.values()}
        no_implied, off = (HypothesisGenerator(task.bias, ConstraintStore(), audit=True,
                                               model=gen.model, mode=mode)
                           for mode in (DetectMode.INDISCRIMINATE_ONLY, DetectMode.OFF))
        no_implied.rule_stratum(2)
        off.rule_stratum(2)
        assert _keyed(no_implied.ban_records) == \
            _reference_bans(task, gen.model, table.lits, reducible=False), task.name
        assert off.bans == 0 and off.ban_records == []
    assert kinds == {"dead-literal", "dead-pair", "implied-pair", "equivalent-literal"}


def test_banned_stratum_is_the_full_stratum_less_the_banned_rules(banned_tasks):
    # for every rule size, the generator given the model assembles the
    # stratum of one without it, in the same order, less the rules holding
    # a banned literal or pair
    cut = 0
    for task, gen, expected in banned_tasks:
        full = HypothesisGenerator(task.bias, ConstraintStore())
        for rule_size in range(2, task.bias.max_body + 2):
            kept = [rule for rule in full.rule_stratum(rule_size)
                    if not any(frozenset(sub) in expected
                               for k in (1, 2) for sub in combinations(rule.body, k))]
            assert gen.rule_stratum(rule_size) == kept, (task.name, rule_size)
            cut += len(full.rule_stratum(rule_size)) - len(kept)
    assert cut > 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bans_are_closed_under_renamings_that_fix_the_head(banned_tasks, data):
    # a ban, equivalent-literal ones included, depends on no name of a
    # non-head variable: every injective renaming of the non-head
    # variables maps the banned literals and pairs onto themselves
    task, gen, _ = data.draw(st.sampled_from(banned_tasks))
    names = [var_name(i) for i in range(task.bias.max_vars)]
    n_head = task.bias.head[1]
    theta = dict(zip(names, names[:n_head] + data.draw(st.permutations(names[n_head:]))))
    literals, pairs = _banned(gen._choice_table())
    assert {rename_literal(lit, theta) for lit in literals} == literals, task.name
    assert {frozenset(rename_literal(lit, theta) for lit in pair) for pair in pairs} == pairs


def test_every_rule_with_an_equivalent_literal_has_a_kept_twin():
    # micro seeds 1-140, every third recursive: a rule of the unbanned
    # stratum that holds no dead literal or pair and no implied pair has,
    # once each equivalent-literal ban is swapped for its kept literal, a
    # canonical form in the banned stratum, of the same size and with the
    # same coverage masks
    swapped = 0
    for seed in range(1, 141):
        task = random_task(seed, recursion=seed % 3 == 0).task
        tester = CoverageTester(task.bk, task.pos, task.neg)
        full = HypothesisGenerator(task.bias, ConstraintStore())
        gen = HypothesisGenerator(task.bias, ConstraintStore(), audit=True, model=tester.model)
        gen._choice_table()
        kept = {ban.literals[0]: ban.literals[1] for ban in gen.ban_records
                if ban.kind == "equivalent-literal"}
        unswapped = _reference_bans(task, tester.model, full._choice_table().lits,
                                    equivalents=False)
        for rule_size in range(2, task.bias.max_body + 2):
            banned = set(gen.rule_stratum(rule_size))
            for rule in full.rule_stratum(rule_size):
                if rule in banned or any(frozenset(sub) in unswapped for k in (1, 2)
                                         for sub in combinations(rule.body, k)):
                    continue
                twin = canonicalize(Rule(rule.head, frozenset(kept.get(l, l) for l in rule.body)))
                assert twin in banned and len(twin.body) == len(rule.body), (seed, rule)
                assert tester.masks(frozenset([twin])) == tester.masks(frozenset([rule])), \
                    (seed, rule)
                swapped += 1
    assert swapped > 0


def test_empty_store_stratum_is_the_oracle_stratum(fixtures_dir):
    # the assembler and oracle._rule_stratum share no code: the same rules
    # in the same rule_sort_key order, for every rule size of the bias
    for name, task, _ in _drained_tasks(fixtures_dir):
        gen = HypothesisGenerator(task.bias, ConstraintStore())
        for rule_size in range(2, task.bias.max_body + 2):
            stratum = gen.rule_stratum(rule_size)
            assert stratum == _rule_stratum(task.bias, rule_size, DEFAULT_CEILING), \
                (name, rule_size)
            for rule in stratum:
                assert canonicalize(rule) == rule, (name, rule)
                assert in_search_space(rule), (name, rule)


def test_canonical_test_agrees_with_canonicalize(fixtures_dir, monkeypatch):
    # every complete body the assembler hands to its canonical test, the
    # rejected ones included, gets canonicalize's answer for its rule
    real = generate._is_canonical
    answers = []

    def checked(body, own, table, n_head):
        got = real(body, own, table, n_head)
        answers.append((frozenset(table.lits[c[1]] for c in body), got))
        return got

    monkeypatch.setattr(generate, "_is_canonical", checked)
    checked_n = rejected = 0
    for name, task, _ in _drained_tasks(fixtures_dir):
        gen = HypothesisGenerator(task.bias, ConstraintStore())
        for rule_size in range(2, task.bias.max_body + 2):
            gen.rule_stratum(rule_size)
        for body, got in answers:
            rule = Rule(gen._head(), body)
            assert got == (canonicalize(rule) == rule), (name, rule)
            rejected += not got
        checked_n += len(answers)
        answers.clear()
    assert 0 < rejected < checked_n


def test_stratum_matches_oracle_enumeration():
    for seed in (201, 202, 203):
        task = random_task(seed).task
        gen = HypothesisGenerator(task.bias, ConstraintStore())
        for size in range(2, min(task.bias.max_size, 5) + 1):
            got = set(_drain(gen, size))
            assert got == enumerate_all(task.bias, size)


def test_deadline_never_leaves_a_partial_stratum(intro_task):
    # nor a partial ban table: a generator given the model finds its bans
    # while building the table, and checks the deadline there
    for model in (None, least_model(intro_task.bk)):
        fresh = HypothesisGenerator(intro_task.bias, ConstraintStore(), model=model)
        gen = HypothesisGenerator(intro_task.bias, ConstraintStore(), deadline=0.0, model=model)
        with pytest.raises(DeadlineExceeded):
            gen.next_hypothesis(3)
        gen.deadline = None
        assert _drain(gen, 3) == _drain(fresh, 3)
        assert gen.bans == fresh.bans == (63 if model else 0)


def test_deadline_fires_before_any_candidate_is_matched(intro_task, monkeypatch):
    store = ConstraintStore()
    store.add(_pointless_con(intro_task, "f(A) :- odd(A), int(A)."))
    gen = HypothesisGenerator(intro_task.bias, store)
    assert gen.rule_stratum(4)  # assembled and cached before the deadline
    matched = []
    real = store.pointless_match
    monkeypatch.setattr(store, "pointless_match", lambda rid: matched.append(rid) or real(rid))
    gen.deadline = 0.0
    with pytest.raises(DeadlineExceeded):
        gen.next_hypothesis(4)
    assert gen.considered == 0
    assert matched == []


def test_size_below_two_rejected(intro_task):
    gen = HypothesisGenerator(intro_task.bias, ConstraintStore())
    with pytest.raises(ValueError):
        gen.next_hypothesis(1)
