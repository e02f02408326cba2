"""Microbenchmarks of the two entailment primitives on a store the size of
a recursive-chain task: a 200-node chain with forward skips, its reverse
and 100 random links.  Each runs a fixed number of rounds, so the module
stays well under two seconds; nothing is saved unless pytest-benchmark is
asked to (``--benchmark-autosave``).  ``--benchmark-disable`` runs each
body once as a plain test."""

import random

import pytest

from helpers import ground, lit, parse_rule

from razor import Const, covers_rule, implies
from razor.datalog import FactStore

pytest.importorskip("pytest_benchmark")

N = 200
ROUNDS = 30


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
