"""Exhaustive, pruning-free ground truth.

Enumerates the complete canonical hypothesis space of a bias by brute
force and certifies optima by testing everything.  Only the split of a
size into rule sizes (``rule_groups``) is shared with the search-time
generator; rule assembly is independent of it and applies no constraint.
A hard candidate ceiling guards against silent under-enumeration: the
oracle refuses rather than truncates.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb
from .generate import Bias, rule_groups
from .logic import (
    Hypothesis,
    Literal,
    Rule,
    Var,
    canonicalize,
    connected,
    is_safe,
    rule_sort_key,
    var_name,
)
from .search import CostScore, CoverageTester

DEFAULT_CEILING = 10 ** 6


class OracleCeilingError(RuntimeError):
    """The bias is too large to exhaust under the configured ceiling."""


def _literal_pool(bias: Bias) -> list[Literal]:
    pool: list[Literal] = []
    variables = [Var(var_name(i)) for i in range(bias.max_vars)]
    for pred in bias.generatable_preds():
        name, arity = pred
        per_pos = [
            list(variables) + list(bias.allowed_constants(pred, pos))
            for pos in range(arity)
        ]
        for args in product(*per_pos):
            pool.append(Literal(name, tuple(args)))
    return pool


def _rule_stratum(bias: Bias, rule_size: int, ceiling: int) -> list[Rule]:
    body_size = rule_size - 1
    if body_size < 1 or body_size > bias.max_body:
        return []
    pool = _literal_pool(bias)
    raw = comb(len(pool), body_size)
    if raw > ceiling:
        raise OracleCeilingError(
            f"{raw} candidate bodies of size {body_size} exceed the ceiling {ceiling}"
        )
    name, arity = bias.head
    head = Literal(name, tuple(Var(var_name(i)) for i in range(arity)))
    out: dict[tuple, Rule] = {}
    for body in combinations(pool, body_size):
        rule = Rule(head, frozenset(body))
        if len(rule.body) == body_size and is_safe(rule) and connected(rule):
            canon = canonicalize(rule)
            out.setdefault(rule_sort_key(canon), canon)
    return [out[k] for k in sorted(out)]


def _hypothesis_count(per_size: dict[int, int], size: int, max_rules: int) -> int:
    total = 0
    for groups in rule_groups(size, max_rules):
        n = 1
        for part, count in groups:
            n *= comb(per_size.get(part, 0), count)
        total += n
    return total


def enumerate_all(bias: Bias, size: int, ceiling: int = DEFAULT_CEILING) -> set[Hypothesis]:
    """The complete canonical stratum of hypotheses of exactly the given
    total literal count."""
    strata: dict[int, list[Rule]] = {}
    for rule_size in range(2, min(size, 1 + bias.max_body) + 1):
        strata[rule_size] = _rule_stratum(bias, rule_size, ceiling)
    counts = {s: len(rules) for s, rules in strata.items()}
    if _hypothesis_count(counts, size, bias.max_rules) > ceiling:
        raise OracleCeilingError(
            f"hypothesis stratum at size {size} exceeds the ceiling {ceiling}"
        )
    out: set[Hypothesis] = set()
    for groups in rule_groups(size, bias.max_rules):
        pools = [combinations(strata.get(part, ()), count) for part, count in groups]
        for selection in product(*pools):
            rules = tuple(r for group in selection for r in group)
            out.add(frozenset(rules))
    return out


def oracle_optimal(
    task,
    max_size: int,
    ceiling: int = DEFAULT_CEILING,
) -> tuple[CostScore, set[Hypothesis]]:
    """Exact lexicographic optimum over every canonical hypothesis of total
    size up to max_size, plus all witnesses achieving it.  The empty
    hypothesis is part of the space."""
    tester = CoverageTester(task.bk, task.pos, task.neg)
    empty: Hypothesis = frozenset()
    best = tester.score(empty)
    witnesses: set[Hypothesis] = {empty}
    for size in range(2, max_size + 1):
        for h in enumerate_all(task.bias, size, ceiling):
            s = tester.score(h)
            if s < best:
                best = s
                witnesses = {h}
            elif s == best:
                witnesses.add(h)
    return best, witnesses
