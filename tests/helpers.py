"""Shared test utilities: terse rule construction and independent oracles
used to cross-check the implementation."""

from __future__ import annotations

import importlib.util
import random
import sys
from itertools import permutations, product
from pathlib import Path
from typing import Iterable, Iterator

from razor import Const, Literal, Rule, Var, learn, least_model, search
from razor.logic import Hypothesis, hypothesis_sorted, is_safe, rule_sort_key, var_name
from razor.microtask import random_program
from razor.taskio import parse_rules, parse_task_strings


def parse_rule(text: str) -> Rule:
    """Build a rule from its surface syntax, e.g. 'f(A) :- odd(A).'"""
    rules = parse_rules(text if text.rstrip().endswith(".") else text + ".")
    assert len(rules) == 1
    return rules[0]


def parse_hypothesis(text: str) -> Hypothesis:
    return frozenset(parse_rules(text))


def hypothesis_key(h: Hypothesis) -> tuple:
    """A sort key of a hypothesis: its rules' sort keys in rule_sort_key
    order."""
    return tuple(rule_sort_key(r) for r in hypothesis_sorted(h))


def rule_ids(store, rules: Iterable[Rule]) -> tuple[int, ...]:
    """The rules as the generator hands a candidate to a ConstraintStore:
    their ids in rule_sort_key order, each rule registered on first
    sight."""
    return tuple(store.rule_id(r) for r in hypothesis_sorted(rules))


def lit(pred: str, *args: str) -> Literal:
    terms = tuple(
        Var(a) if a[0].isupper() or a[0] == "_" else Const(a) for a in args
    )
    return Literal(pred, terms)


def ground(pred: str, *args) -> Literal:
    return Literal(pred, tuple(Const(str(a)) for a in args))


def brute_force_renamings(p: Rule, r: Rule) -> Iterator[dict[str, str]]:
    """Reference renamings: every injective mapping of p's variables onto
    r's variables that maps p's head onto r's head and p's body into r's
    body, tried explicitly."""
    p_vars = sorted(p.vars())
    for image in permutations(sorted(r.vars()), len(p_vars)):
        theta = dict(zip(p_vars, image))

        def rename(l: Literal) -> Literal:
            return Literal(
                l.pred,
                tuple(Var(theta[t.name]) if isinstance(t, Var) else t for t in l.args),
            )

        if rename(p.head) == r.head and all(rename(b) in r.body for b in p.body):
            yield theta


def brute_force_renamed_subrule(p: Rule, r: Rule) -> bool:
    """Reference matcher: whether some brute-force renaming exists."""
    return next(brute_force_renamings(p, r), None) is not None


def random_rule(rng: random.Random, preds=None, max_body=3, max_vars=3,
                head=("f", 1)) -> Rule:
    preds = preds or [("p", 1), ("q", 2), ("r", 2)]
    variables = [Var(var_name(i)) for i in range(max_vars)]
    head_lit = Literal(head[0], tuple(variables[i] for i in range(head[1])))
    body = set()
    for _ in range(rng.randint(1, max_body)):
        name, arity = rng.choice(preds)
        args = tuple(rng.choice(variables) for _ in range(arity))
        body.add(Literal(name, args))
    return Rule(head_lit, frozenset(body))


def random_goal_program(rng: random.Random, any_head: bool = False):
    """A random background program (microtask.random_program) with one to
    four facts of goal/2, and a hypothesis of two safe goal/2 rules whose
    bodies draw from every predicate, goal/2 included, over the variables
    A-C.  Each head is goal(A,B), or with any_head also one with a
    repeated variable or a constant of the background."""
    bk = random_program(rng)
    consts = sorted({t.name for r in bk for t in r.head.args if isinstance(t, Const)})
    for _ in range(rng.randint(1, 4)):
        pair = tuple(Const(rng.choice(consts)) for _ in range(2))
        bk.append(Rule(Literal("goal", pair), frozenset()))
    preds = sorted({r.head.pred_key for r in bk})
    variables = [Var(v) for v in "ABC"]
    heads = [(Var("A"), Var("B"))]
    if any_head:
        c = Const(rng.choice(consts))
        heads += [(Var("A"), Var("A")), (Var("A"), c), (c, Var("B"))]
    h = set()
    while len(h) < 2:
        body = frozenset(
            Literal(name, tuple(rng.choice(variables) for _ in range(arity)))
            for name, arity in (rng.choice(preds) for _ in range(rng.randint(1, 3)))
        )
        rule = Rule(Literal("goal", rng.choice(heads) if any_head else heads[0]), body)
        if is_safe(rule):
            h.add(rule)
    return bk, frozenset(h)


def all_ground_atoms(preds, constants):
    out = []
    for name, arity in preds:
        for combo in product(constants, repeat=arity):
            out.append(Literal(name, tuple(Const(c) for c in combo)))
    return out


def bias_literal_pool(bias):
    """Every body literal the bias can express (variables plus allow-listed
    constants)."""
    variables = [Var(var_name(i)) for i in range(bias.max_vars)]
    pool = []
    for pred in bias.body_preds:
        name, arity = pred
        per_pos = [
            list(variables) + list(bias.allowed_constants(pred, pos))
            for pos in range(arity)
        ]
        for args in product(*per_pos):
            pool.append(Literal(name, tuple(args)))
    return pool


def random_super_rules(task, rule: Rule, rng: random.Random, count: int):
    """Random connected, non-recursive bias-legal strict super-rules."""
    from razor.logic import connected

    pool = bias_literal_pool(task.bias)
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 50:
        attempts += 1
        extra = set(rng.sample(pool, rng.randint(1, 2)))
        bigger = Rule(rule.head, rule.body | extra)
        if bigger.body == rule.body or not connected(bigger):
            continue
        out.append(bigger)
    return out


CHAIN_BIAS = """head_pred(reach,2).
body_pred(edge,2).
body_pred(link,2).
body_pred(prev,2).
max_vars(3).
max_body(2).
max_rules(2).
enable_recursion.
"""


# constants at every argument of q/2: the ground literal q(a,c) holds and
# q(b,c) has no fact, so it is a dead literal, not q(a,c)'s equivalent
GROUND_LITERAL_FILES = {
    "bias.pl": "head_pred(f,1). body_pred(p,1). body_pred(q,2). "
               "constant(q,1,[a,b]). constant(q,2,[c]). max_vars(2). max_body(2).",
    "bk.pl": "p(x1). p(x2). p(x3). q(a,c). q(x1,x2).",
    "exs.pl": "pos(f(x1)). pos(f(x2)). neg(f(x3)).",
}


def bench_chain_tasks(seed: int) -> list:
    """The tasks of the benchmark's recursive-chain workload for a seed,
    parsed, from the benchmark's own task builder (loaded by path and
    only read)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return [parse_task_strings(t.files["bias.pl"], t.files["bk.pl"], t.files["exs.pl"],
                              name=t.name)
            for t in module.recursive_chain(None, seed, None).tasks]


def chain_task(seed: int):
    """A small transitive-closure task shaped like the recursive-chain
    benchmark workload: ``edge`` is a chain of 30 nodes plus 30 forward
    skips of 2-3 nodes, ``prev`` reverses it and ``link`` holds 15
    random pairs.  The 12 positives are reachable pairs and the 12
    negatives unreachable ones, so the optimum is the size-5 recursive
    closure of ``edge``."""
    n, examples = 30, 12
    rng = random.Random(seed)
    edges = {(i, i + 1) for i in range(n - 1)}
    for _ in range(n):
        a = rng.randrange(n - 3)
        edges.add((a, a + rng.randint(2, 3)))
    links = set()
    while len(links) < n // 2:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            links.add((a, b))
    pos = set()
    while len(pos) < examples:
        a = rng.randrange(n - 1)
        pos.add((a, min(n - 1, a + rng.choice((1, 2, 3, 5, 8)))))
    neg = set(rng.sample(sorted((b, a) for a, b in edges), examples // 2))
    while len(neg) < examples:
        a, b = rng.randrange(n), rng.randrange(n)
        if a >= b:
            neg.add((a, b))

    def facts(pred, pairs):
        return "".join(f"{pred}(n{a},n{b}).\n" for a, b in sorted(pairs))

    bk = facts("edge", edges) + facts("link", links) + facts("prev", {(b, a) for a, b in edges})
    exs = "".join(f"pos(reach(n{a},n{b})).\n" for a, b in sorted(pos))
    exs += "".join(f"neg(reach(n{a},n{b})).\n" for a, b in sorted(neg))
    return parse_task_strings(CHAIN_BIAS, bk, exs, name=f"chain-{seed}")


def checked_learn(monkeypatch, task, config):
    """Run learn with every covers_rule answer checked against the least
    model of the rule over the background model, and every tested
    recursive hypothesis's masks against the least model of background
    and hypothesis together.  Returns the result and the number of
    checks of each kind."""
    real_covers, real_masks = search.covers_rule, search.CoverageTester.masks
    rules, recursive = [], []

    def covers_checked(store, rule, examples, pack=None):
        mask = real_covers(store, rule, examples, pack)
        model = least_model([rule], base=store)
        assert mask == sum(1 << i for i, e in enumerate(examples) if model.contains(e)), rule
        rules.append(rule)
        return mask

    def masks_checked(self, h):
        masks = real_masks(self, h)
        if self._is_recursive(h):
            model = least_model([*self.bk, *h])
            expected = tuple(sum(1 << i for i, e in enumerate(examples) if model.contains(e))
                             for examples in (self.pos, self.neg))
            assert masks == expected, h
            recursive.append(h)
        return masks

    monkeypatch.setattr(search, "covers_rule", covers_checked)
    monkeypatch.setattr(search.CoverageTester, "masks", masks_checked)
    result = learn(task, config)
    monkeypatch.undo()
    return result, len(rules), len(recursive)
