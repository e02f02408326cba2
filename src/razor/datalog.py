"""Bottom-up evaluation of function-free definite programs and the
entailment queries used for coverage testing and redundancy detection."""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

from .logic import (
    Const,
    Literal,
    Rule,
    Substitution,
    apply_subst,
    concrete_key,
    unsafe_head_vars,
)

PredKey = tuple[str, int]

Program = list[Rule]


class UnsafeRuleError(ValueError):
    """A rule whose head variables do not all occur in its body."""

    def __init__(self, rule: Rule, variables: Sequence[str]):
        self.rule = rule
        self.variables = tuple(variables)
        names = ", ".join(variables)
        super().__init__(f"unsafe rule {rule!r}: head variable(s) {names} missing from the body")


class FactStore:
    """A materialized set of ground atoms with per-predicate and
    per-argument-position indexes.  Read-only once built; safe to query
    concurrently."""

    def __init__(self, atoms: Iterable[Literal] = ()):
        self._facts: dict[PredKey, set[tuple[str, ...]]] = {}
        self._pos_index: dict[tuple[PredKey, int], dict[str, list[tuple[str, ...]]]] = {}
        for atom in atoms:
            self.add(atom)

    def add(self, atom: Literal) -> bool:
        if not atom.is_ground():
            raise ValueError(f"cannot store non-ground atom {atom!r}")
        args = tuple(t.name for t in atom.args)
        return self.add_tuple(atom.pred_key, args)

    def add_tuple(self, key: PredKey, args: tuple[str, ...]) -> bool:
        bucket = self._facts.setdefault(key, set())
        if args in bucket:
            return False
        bucket.add(args)
        for pos in range(len(args)):
            idx = self._pos_index.get((key, pos))
            if idx is not None:
                idx.setdefault(args[pos], []).append(args)
        return True

    def has(self, key: PredKey, args: tuple[str, ...]) -> bool:
        bucket = self._facts.get(key)
        return bucket is not None and args in bucket

    def contains(self, atom: Literal) -> bool:
        return self.has(atom.pred_key, tuple(t.name for t in atom.args))

    def tuples(self, key: PredKey) -> set[tuple[str, ...]]:
        return self._facts.get(key, set())

    def _index(self, key: PredKey, pos: int) -> dict[str, list[tuple[str, ...]]]:
        idx = self._pos_index.get((key, pos))
        if idx is None:
            idx = {}
            for args in self._facts.get(key, ()):
                idx.setdefault(args[pos], []).append(args)
            self._pos_index[(key, pos)] = idx
        return idx

    def candidates(self, key: PredKey, pattern: Sequence[Optional[str]]) -> Iterable[tuple[str, ...]]:
        """Fact tuples matching the partially bound pattern (None = free)."""
        best_pos = None
        best = None
        for pos, val in enumerate(pattern):
            if val is None:
                continue
            bucket = self._index(key, pos).get(val, [])
            if best is None or len(bucket) < len(best):
                best, best_pos = bucket, pos
        if best is None:
            return self._facts.get(key, set())
        return [
            args for args in best
            if all(v is None or args[i] == v for i, v in enumerate(pattern))
        ]

    def estimate(self, key: PredKey, pattern: Sequence[Optional[str]]) -> int:
        best = None
        for pos, val in enumerate(pattern):
            if val is None:
                continue
            n = len(self._index(key, pos).get(val, ()))
            if best is None or n < best:
                best = n
        if best is None:
            return len(self._facts.get(key, ()))
        return best

    def atoms(self) -> Iterator[Literal]:
        for key in sorted(self._facts):
            for args in sorted(self._facts[key]):
                yield Literal(key[0], tuple(Const(a) for a in args))

    def __len__(self) -> int:
        return sum(len(b) for b in self._facts.values())


def _pattern(lit: Literal, theta: Substitution) -> list[Optional[str]]:
    pat: list[Optional[str]] = []
    for t in lit.args:
        if isinstance(t, Const):
            pat.append(t.name)
        else:
            bound = theta.get(t.name)
            pat.append(bound.name if isinstance(bound, Const) else None)
    return pat


def _bind(lit: Literal, fact: tuple[str, ...], theta: Substitution) -> Optional[Substitution]:
    """Extend theta so lit matches the fact tuple, or None on conflict."""
    out = theta
    copied = False
    for t, val in zip(lit.args, fact):
        if isinstance(t, Const):
            if t.name != val:
                return None
        else:
            bound = out.get(t.name)
            if bound is None:
                if not copied:
                    out = dict(out)
                    copied = True
                out[t.name] = Const(val)
            elif bound.name != val:
                return None
    return out


def satisfying_substitutions(
    store: FactStore,
    body: Iterable[Literal],
    seed: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """All substitutions extending seed that ground every body literal to a
    fact of the store.  An empty body yields the seed itself."""
    literals = list(body)
    theta0: Substitution = dict(seed) if seed else {}

    def solve(remaining: list[Literal], theta: Substitution) -> Iterator[Substitution]:
        if not remaining:
            yield theta
            return
        # cheapest literal first: ground literals are membership checks,
        # otherwise prefer the smallest index bucket
        best_i, best_cost = 0, None
        for i, lit in enumerate(remaining):
            pat = _pattern(lit, theta)
            cost = 0 if all(v is not None for v in pat) else store.estimate(lit.pred_key, pat)
            if best_cost is None or cost < best_cost:
                best_i, best_cost = i, cost
                if cost == 0:
                    break
        lit = remaining[best_i]
        rest = remaining[:best_i] + remaining[best_i + 1:]
        pat = _pattern(lit, theta)
        if all(v is not None for v in pat):
            if store.has(lit.pred_key, tuple(pat)):  # type: ignore[arg-type]
                yield from solve(rest, theta)
            return
        for fact in store.candidates(lit.pred_key, pat):
            theta2 = _bind(lit, fact, theta)
            if theta2 is not None:
                yield from solve(rest, theta2)

    yield from solve(literals, theta0)


def _check_safe(rules: Iterable[Rule]) -> None:
    for rule in rules:
        missing = unsafe_head_vars(rule)
        if missing:
            raise UnsafeRuleError(rule, missing)


def least_model(program: Iterable[Rule]) -> FactStore:
    """Least Herbrand model of a safe, function-free definite program,
    computed by semi-naive bottom-up iteration."""
    rules = list(program)
    _check_safe(rules)
    store = FactStore()
    delta: list[tuple[PredKey, tuple[str, ...]]] = []
    clauses: list[Rule] = []
    for rule in rules:
        if rule.body:
            clauses.append(rule)
        else:
            key = rule.head.pred_key
            args = tuple(t.name for t in rule.head.args)
            if store.add_tuple(key, args):
                delta.append((key, args))

    while delta:
        delta_by_pred: dict[PredKey, list[tuple[str, ...]]] = {}
        for key, args in delta:
            delta_by_pred.setdefault(key, []).append(args)
        new: list[tuple[PredKey, tuple[str, ...]]] = []
        new_set: set[tuple[PredKey, tuple[str, ...]]] = set()
        for rule in clauses:
            body = sorted(rule.body, key=concrete_key)
            for i, lit in enumerate(body):
                fresh = delta_by_pred.get(lit.pred_key)
                if not fresh:
                    continue
                rest = body[:i] + body[i + 1:]
                for fact in fresh:
                    theta0 = _bind(lit, fact, {})
                    if theta0 is None:
                        continue
                    for theta in satisfying_substitutions(store, rest, theta0):
                        head = apply_subst(rule.head, theta)
                        args = tuple(t.name for t in head.args)
                        item = (head.pred_key, args)
                        if item not in new_set and not store.has(*item):
                            new_set.add(item)
                            new.append(item)
        for key, args in new:
            store.add_tuple(key, args)
        delta = new
    return store


def least_model_naive(program: Iterable[Rule]) -> FactStore:
    """Reference implementation: naive iteration with exhaustive grounding.
    Exponential in rule arity; only suitable for small programs."""
    rules = list(program)
    _check_safe(rules)
    consts: set[str] = set()
    for rule in rules:
        for lit in [rule.head, *rule.body]:
            consts.update(t.name for t in lit.args if isinstance(t, Const))

    model: set[tuple[PredKey, tuple[str, ...]]] = set()
    for rule in rules:
        if not rule.body:
            model.add((rule.head.pred_key, tuple(t.name for t in rule.head.args)))

    changed = True
    while changed:
        changed = False
        domain = sorted(consts)
        for rule in rules:
            if not rule.body:
                continue
            rule_vars = sorted(rule.vars())
            for combo in product(domain, repeat=len(rule_vars)):
                theta = {v: Const(c) for v, c in zip(rule_vars, combo)}
                ok = True
                for lit in rule.body:
                    g = apply_subst(lit, theta)
                    if (g.pred_key, tuple(t.name for t in g.args)) not in model:
                        ok = False
                        break
                if not ok:
                    continue
                head = apply_subst(rule.head, theta)
                item = (head.pred_key, tuple(t.name for t in head.args))
                if item not in model:
                    model.add(item)
                    changed = True

    store = FactStore()
    for key, args in model:
        store.add_tuple(key, args)
    return store


def head_binding(rule: Rule, example: Literal) -> Optional[Substitution]:
    """Substitution binding the head variables so the head equals the
    example, or None when the head cannot match."""
    if rule.head.pred_key != example.pred_key:
        raise ValueError(
            f"example {example!r} does not match head {rule.head!r}"
        )
    theta: Substitution = {}
    for t, e in zip(rule.head.args, example.args):
        if isinstance(t, Const):
            if t.name != e.name:  # type: ignore[union-attr]
                return None
        else:
            bound = theta.get(t.name)
            if bound is None:
                theta[t.name] = e
            elif bound != e:
                return None
    return theta


def covers_rule(store: FactStore, rule: Rule, example: Literal) -> bool:
    """Whether the single rule, evaluated against the given model of the
    background knowledge, entails the ground example.  Head variables
    missing from the body are simply left bound by the example."""
    theta = head_binding(rule, example)
    if theta is None:
        return False
    return next(satisfying_substitutions(store, rule.body, theta), None) is not None


class Coverage:
    """Classification of the examples under a hypothesis."""

    __slots__ = ("tp", "fn", "fp", "tn", "covered_pos", "covered_neg")

    def __init__(self, covered_pos: frozenset[Literal], covered_neg: frozenset[Literal],
                 pos: Sequence[Literal], neg: Sequence[Literal]):
        self.covered_pos = covered_pos
        self.covered_neg = covered_neg
        self.tp = len(covered_pos)
        self.fn = len(pos) - self.tp
        self.fp = len(covered_neg)
        self.tn = len(neg) - self.fp

    @property
    def errors(self) -> int:
        return self.fp + self.fn


def coverage(bk: Iterable[Rule], h: Iterable[Rule],
             pos: Sequence[Literal], neg: Sequence[Literal]) -> Coverage:
    """Classify every example against the least model of bk together with
    the hypothesis.  Correct for recursive and multi-rule hypotheses."""
    model = least_model([*bk, *h])
    covered_pos = frozenset(e for e in pos if model.contains(e))
    covered_neg = frozenset(e for e in neg if model.contains(e))
    return Coverage(covered_pos, covered_neg, pos, neg)


def _split_relevant(body: list[Literal], lit_vars: set[str],
                    seed_vars: set[str]) -> tuple[list[Literal], list[Literal]]:
    """Split the body into the literals whose variable component reaches
    lit's variables and the rest (which only matter for satisfiability)."""
    reached = set(lit_vars)
    relevant: list[Literal] = []
    rest = list(body)
    changed = True
    while changed:
        changed = False
        still = []
        for b in rest:
            bv = b.vars() - seed_vars
            if bv & reached:
                reached |= bv
                relevant.append(b)
                changed = True
            else:
                still.append(b)
        rest = still
    return relevant, rest


def implies(
    store: FactStore,
    body: Iterable[Literal],
    lit: Literal,
    domain: Sequence[Const],
    seed: Optional[Substitution] = None,
) -> bool:
    """Whether every grounding that satisfies the body also satisfies lit.

    Variables of lit absent from the body (and from the seed) range over
    the given constant domain.  Vacuously true when the body is
    unsatisfiable.

    Solved refutation-first: enumerate the groundings of lit's variables
    that FALSIFY lit and ask whether the body is satisfiable under any of
    them.  Dense relations (few falsifying groundings) resolve in near
    constant time.  Body literals sharing no variable chain with lit only
    contribute one satisfiability check.

    The domain must cover the constants the store's facts are built from
    (a task's constant domain always does).
    """
    body = list(body)
    seed_vars = set(seed) if seed else set()
    relevant, rest = _split_relevant(body, set(lit.vars()), seed_vars)

    free = sorted(v for v in lit.vars() if v not in seed_vars)
    base: Substitution = dict(seed) if seed else {}
    sat_cache: dict[bool, bool] = {}

    def body_sat(binding: Substitution) -> bool:
        if next(satisfying_substitutions(store, relevant, binding), None) is None:
            return False
        if rest:
            if True not in sat_cache:
                sat_cache[True] = next(
                    satisfying_substitutions(store, rest, seed), None
                ) is not None
            return sat_cache[True]
        return True

    for combo in product(domain, repeat=len(free)):
        binding = dict(base)
        binding.update(zip(free, combo))
        if store.contains(apply_subst(lit, binding)):
            continue
        if body_sat(binding):
            return False
    return True
