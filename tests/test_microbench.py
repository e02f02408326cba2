"""Microbenchmarks of hot primitives.  The entailment primitives, pointless
detection (admit-all and gated), least_model and a recursive candidate's
masks run on a store the size of a recursive-chain task: a 200-node
chain with forward skips, its reverse and 100 random links.  Constraint
matching, pack coverage, canonicalize and iter_renamings run over
intro's strata, stratum assembly over eight_puzzle_mini's size-4
stratum, and the task parser over a 1,000-edge chain.  Each runs a fixed number of rounds, so the module stays under
four seconds; nothing is saved unless pytest-benchmark is asked to
(``--benchmark-autosave``).
``--benchmark-disable`` runs each body once as a plain test."""

import random

import pytest

from helpers import ground, lit, parse_rule, rule_ids

from razor import (Const, Detector, Rule, covers_rule, find_pointless, implies, least_model,
                   parse_rules, parse_task_strings)
from razor.datalog import CoveragePack, FactStore
from razor.generate import Constraint, ConstraintKind, ConstraintStore, HypothesisGenerator
from razor.logic import canonicalize, iter_renamings
from razor.search import CoverageTester, pass_through

pytest.importorskip("pytest_benchmark")

N = 200
ROUNDS = 30
SLOW_ROUNDS = 8  # for the primitives that take tens of milliseconds a round


@pytest.fixture(scope="module")
def chain():
    rng = random.Random(10)
    edges = {(i, i + 1) for i in range(N - 1)}
    for _ in range(2 * N):
        a = rng.randrange(N - 3)
        edges.add((a, a + rng.randint(2, 3)))
    links = set()
    while len(links) < N // 2:
        a, b = rng.randrange(N), rng.randrange(N)
        if a != b:
            links.add((a, b))
    store = FactStore()
    for a, b in edges:
        store.add(ground("edge", f"n{a}", f"n{b}"))
        store.add(ground("prev", f"n{b}", f"n{a}"))
    for a, b in links:
        store.add(ground("link", f"n{a}", f"n{b}"))
    # 30 positives two hops apart and 30 reversed edges
    pairs = sorted(edges)
    pos = [ground("reach", f"n{a}", f"n{a + 2}") for a in range(0, 2 * 30, 2)]
    neg = [ground("reach", f"n{b}", f"n{a}") for a, b in rng.sample(pairs, 30)]
    domain = [Const(f"n{i}") for i in range(N)]
    return store, pos + neg, domain


def test_bench_implies_lone_variable(benchmark, chain):
    # reducible query of link(C,A) in reach(A,B) :- edge(A,B), link(C,A):
    # C occurs in no other body literal and would range over all 200 nodes
    store, _, domain = chain
    body = [lit("edge", "A", "B")]
    target = lit("link", "C", "A")
    result = benchmark.pedantic(implies, args=(store, body, target, domain),
                                rounds=ROUNDS, iterations=1, warmup_rounds=1)
    assert result is False


def test_bench_covers_rule_one_rule_examples(benchmark, chain):
    store, examples, _ = chain
    rule = parse_rule("reach(A,B) :- edge(A,C), edge(C,B).")
    mask = benchmark.pedantic(covers_rule, args=(store, rule, examples),
                              rounds=ROUNDS, iterations=1, warmup_rounds=1)
    assert mask & (1 << 30) - 1 == (1 << 30) - 1  # every two-hop positive
    assert mask >> 30 == 0  # no reversed edge


# detection's rule on the chain: edge(A,C) and prev(C,A) imply each other
# (reducible), and the other two literals pass the implication test of
# every reversed-edge negative
_DETECTED = parse_rule("reach(A,B) :- edge(A,C), prev(C,A), edge(C,B), link(B,C).")
_FINDINGS = [("indiscriminate", "edge(C,B)", False), ("indiscriminate", "link(B,C)", False),
             ("reducible", "edge(A,C)", False), ("reducible", "prev(C,A)", False)]


def _chain_tester(chain) -> CoverageTester:
    """A tester over the chain's facts, its 30 positives and its 30
    negatives."""
    store, examples, _ = chain
    return CoverageTester([Rule(atom, frozenset()) for atom in store.atoms()],
                          examples[:30], examples[30:])


def test_bench_find_pointless_chain(benchmark, chain):
    # admit-all detection on one rule against the 30 reversed-edge
    # negatives: a fresh detector each round, so no round is answered from
    # an earlier round's table
    store, examples, domain = chain
    detectors = []

    def fresh_detector():
        detectors.append(Detector(store, examples[30:], domain))
        return (frozenset({_DETECTED}), detectors[-1]), {}

    found = benchmark.pedantic(find_pointless, setup=fresh_detector, rounds=ROUNDS,
                               iterations=1, warmup_rounds=1)
    assert not any(d.cached for d in detectors)
    assert sorted((ev.kind.value, str(ev.literal), ev.vacuous) for ev in found) == _FINDINGS


def test_bench_gated_detection_chain(benchmark, chain):
    # the same detection behind the coverage gate, as a run's first scan of
    # the rule: a fresh tester and detector each round, so every mask is
    # joined on the tester's second pack
    _, _, domain = chain
    detectors = []

    def fresh_detector():
        tester = _chain_tester(chain)
        detectors.append(Detector(tester.model, tester.neg, domain,
                                  masks=tester.detection_masks))
        return (frozenset({_DETECTED}), detectors[-1]), {}

    found = benchmark.pedantic(find_pointless, setup=fresh_detector, rounds=SLOW_ROUNDS,
                               iterations=1, warmup_rounds=1)
    assert not any(d.cached for d in detectors)
    assert sorted((ev.kind.value, str(ev.literal), ev.vacuous) for ev in found) == _FINDINGS


@pytest.mark.parametrize("text, cut", [
    ("reach(A,B) :- edge(A,B). reach(A,B) :- edge(A,C), reach(C,B).", True),
    ("reach(A,B) :- edge(A,B). reach(A,B) :- edge(A,C), reach(B,C).", False),
], ids=["closure", "reversed-closure"])
def test_bench_tester_masks_recursive(benchmark, chain, text, cut):
    # a recursive candidate's masks: the closure passes its second argument
    # through, so its fixpoint is cut to the examples' second arguments;
    # the reversed closure passes nothing through and derives the whole
    # relation
    tester = _chain_tester(chain)
    h = frozenset(parse_rules(text))
    got = benchmark.pedantic(tester.masks, args=(h,), rounds=SLOW_ROUNDS, iterations=1,
                             warmup_rounds=1)
    full = least_model(h, base=tester.model)
    assert got == tuple(sum(1 << i for i, e in enumerate(exs) if full.contains(e))
                        for exs in (tester.pos, tester.neg))
    assert (pass_through(h, ("reach", 2)) != ()) is cut


def test_bench_least_model_chain_closure(benchmark, chain):
    # the transitive closure of the chain's edges, extending the store as
    # a recursive candidate extends the background model
    store, _, _ = chain
    closure = parse_rules("reach(A,B) :- edge(A,B).\nreach(A,B) :- edge(A,C), reach(C,B).")
    model = benchmark.pedantic(least_model, args=(closure,), kwargs={"base": store},
                               rounds=SLOW_ROUNDS, iterations=1, warmup_rounds=1)
    assert len(model.tuples(("reach", 2))) == N * (N - 1) // 2


def test_bench_pointless_match_over_a_stratum(benchmark, intro_task):
    # matching every rule of intro's size-4 stratum against the pointless
    # constraints that detection finds in its size-3 stratum,
    # as the generator's pointless check does; each round starts from a
    # fresh store, as a run does
    gen = HypothesisGenerator(intro_task.bias, ConstraintStore())
    detector = Detector(CoverageTester(intro_task.bk, intro_task.pos, intro_task.neg).model,
                        intro_task.neg, list(intro_task.constant_domain))
    constraints = [Constraint(ConstraintKind.POINTLESS_SUPER_RULE, evidence=ev)
                   for r in gen.rule_stratum(3)
                   for ev in find_pointless(frozenset({r}), detector)]
    stratum = gen.rule_stratum(4)

    def fresh_store():
        store = ConstraintStore()
        for c in constraints:
            store.add(c)
        return (store, rule_ids(store, stratum)), {}

    def unmatched(store, ids):
        return sum(store.pointless_match(rid) is None for rid in ids)

    kept = benchmark.pedantic(unmatched, setup=fresh_store, rounds=SLOW_ROUNDS,
                              iterations=1, warmup_rounds=1)
    assert 0 < kept < len(stratum)


def test_bench_spec_check_over_a_stratum(benchmark, intro_task):
    # checking every rule of intro's size-4 stratum, as a one-rule
    # candidate, against the specialisation constraints of the smaller
    # rules that miss a positive, as a noiseless run stores them; each
    # round starts from a fresh store with the stratum registered
    gen = HypothesisGenerator(intro_task.bias, ConstraintStore())
    tester = CoverageTester(intro_task.bk, intro_task.pos, intro_task.neg)
    constraints = [Constraint(ConstraintKind.SPECIALISATION, hypothesis=frozenset({r}))
                   for size in (2, 3) for r in gen.rule_stratum(size)
                   if tester.rule_masks(r)[0].bit_count() < len(intro_task.pos)]
    stratum = gen.rule_stratum(4)

    def fresh_store():
        store = ConstraintStore()
        for c in constraints:
            store.add(c)
        return (store, rule_ids(store, stratum)), {}

    def passed(store, ids):
        return sum(not store.violated_non_pointless((rid,)) for rid in ids)

    kept = benchmark.pedantic(passed, setup=fresh_store, rounds=SLOW_ROUNDS,
                              iterations=1, warmup_rounds=1)
    assert 0 < kept < len(stratum)


@pytest.fixture(scope="module")
def intro_strata(intro_task):
    gen = HypothesisGenerator(intro_task.bias, ConstraintStore())
    return gen.rule_stratum(3), gen.rule_stratum(4)


def test_bench_pack_coverage_over_a_stratum(benchmark, intro_task, intro_strata):
    # a rule_masks miss for every rule of intro's size-4 stratum, in
    # generator order, on one pack per round, as a run fills its cache
    model = CoverageTester(intro_task.bk, intro_task.pos, intro_task.neg).model
    examples = [*intro_task.pos, *intro_task.neg]
    _, stratum = intro_strata

    def fresh_pack():
        return (CoveragePack(model, examples),), {}

    def masks(pack):
        return [covers_rule(model, r, examples, pack) for r in stratum]

    got = benchmark.pedantic(masks, setup=fresh_pack, rounds=SLOW_ROUNDS,
                             iterations=1, warmup_rounds=1)
    assert got == [covers_rule(model, r, examples) for r in stratum]
    assert 0 < sum(m != 0 for m in got) < len(stratum)


def test_bench_canonicalize_a_stratum(benchmark, intro_strata):
    # every rule of intro's size-4 stratum, which the generator builds
    # canonical
    _, stratum = intro_strata
    got = benchmark.pedantic(lambda: [canonicalize(r) for r in stratum],
                             rounds=SLOW_ROUNDS, iterations=1, warmup_rounds=1)
    assert got == stratum


def test_bench_iter_renamings_between_strata(benchmark, intro_strata):
    # every renaming of each size-3 rule into every 40th size-4 rule, the
    # search a pointless constraint's match runs
    smaller, larger = intro_strata
    pairs = [(p, r) for p in smaller for r in larger[::40]]

    def renamings():
        return sum(1 for p, r in pairs for _ in iter_renamings(p, r))

    found = benchmark.pedantic(renamings, rounds=SLOW_ROUNDS, iterations=1, warmup_rounds=1)
    assert 0 < found < len(pairs)


def test_bench_stratum_assembly(benchmark, puzzle_task):
    # a fresh generator, choice table included, assembles eight_puzzle_mini's
    # size-4 stratum each round, as the first run to reach that size does
    def fresh_generator():
        return (HypothesisGenerator(puzzle_task.bias, ConstraintStore()),), {}

    def assemble(gen):
        return len(gen.rule_stratum(4)), gen.nodes_explored

    got = benchmark.pedantic(assemble, setup=fresh_generator, rounds=SLOW_ROUNDS,
                             iterations=1, warmup_rounds=1)
    assert got == (1148, 3021)


def test_bench_parse_chain_task(benchmark):
    # the background knowledge of a 1,000-edge chain with 500 two-hop
    # positives and 500 reversed negatives
    bias = "head_pred(reach,2).\nbody_pred(edge,2).\nmax_vars(3).\n"
    bk = "".join(f"edge(n{i},n{i + 1}).\n" for i in range(1000))
    exs = "".join(f"pos(reach(n{i},n{i + 2})).\nneg(reach(n{i + 2},n{i})).\n"
                  for i in range(500))
    task = benchmark.pedantic(parse_task_strings, args=(bias, bk, exs),
                              rounds=SLOW_ROUNDS, iterations=1, warmup_rounds=1)
    assert len(task.bk) == 1000
    assert len(task.pos) == len(task.neg) == 500
