"""Slow reference implementations kept apart from the hot path: the
naive least model, whole-model coverage, refutation-first implication,
the enumeration of satisfying substitutions and the implication test it
gives, the coverage-equality indiscriminate test, pointless detection
without a coverage gate or a memo, the per-constraint violation test and
sub-hypothesis, and ``verify_audit``, which re-checks an audited run on
them.  The tests check the fast queries of ``razor.datalog``, the
``ConstraintStore`` index and ``pointless.Detector`` against them;
nothing on the learner's path imports this module, and
``razor.verify_audit`` loads it on first use."""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

from .datalog import (Fact, FactStore, PredKey, _check_safe, _plan, _solve, covers_rule,
                      head_binding, least_model)
from .deadline import check_deadline
from .generate import Constraint, ConstraintKind, _literal_key, _pointless_match
from .logic import (Const, Hypothesis, Literal, Rule, Substitution, Var, apply_subst,
                    is_basic, renamed_subrule, rule_sort_key, subrule, var_name)
from .pointless import (DetectMode, PointlessEvidence, PointlessKind, _captured_literals,
                        is_indiscriminate_direct, is_reducible, reduce_rule)
from .search import CoverageTester, LearnResult


def least_model_naive(program: Iterable[Rule]) -> FactStore:
    """Reference implementation: naive iteration with exhaustive grounding.
    Exponential in rule arity; only suitable for small programs."""
    rules = list(program)
    _check_safe(rules)
    consts: set[str] = set()
    for rule in rules:
        for lit in [rule.head, *rule.body]:
            consts.update(t.name for t in lit.args if isinstance(t, Const))

    model: set[tuple[PredKey, Fact]] = set()
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


def satisfying_substitutions(
    store: FactStore,
    body: Iterable[Literal],
    seed: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """All substitutions extending seed that ground every body literal to a
    fact of the store.  An empty body yields the seed itself."""
    plan = _plan(frozenset(body))
    base: Substitution = dict(seed) if seed else {}
    for b in _solve(store, plan.body, plan.binding(seed)):
        theta = dict(base)
        theta.update((name, Const(val)) for name, val in zip(plan.names, b))  # type: ignore[arg-type]
        yield theta


def implies_by_refutation(
    store: FactStore,
    body: Iterable[Literal],
    lit: Literal,
    domain: Sequence[Const],
    seed: Optional[Substitution] = None,
) -> bool:
    """Reference implementation of ``implies``, straight from its
    definition: every grounding of lit's k free variables over the domain
    that falsifies lit gets a satisfiability check of the body.  |domain|^k
    checks even when the body has no solution, where ``implies`` joins the
    body once and settles the variables the body does not bind with one
    index bucket per body solution; for tests only."""
    body = list(body)
    free = sorted(lit.vars() - set(seed or ()))
    for combo in product(domain, repeat=len(free)):
        binding: Substitution = dict(seed or {})
        binding.update(zip(free, combo))
        if not store.contains(apply_subst(lit, binding)) and \
                next(satisfying_substitutions(store, body, binding), None) is not None:
            return False
    return True


def implies_by_solutions(store: FactStore, a: Literal, lit: Literal) -> bool:
    """Whether lit's variables are among a's and every solution of a over
    the store grounds lit to a fact of it: the reference test of an
    implied pair, linear in a's solutions where ``implies_by_refutation``
    grounds lit over the whole domain."""
    return lit.vars() <= a.vars() and all(
        store.contains(apply_subst(lit, theta)) for theta in satisfying_substitutions(store, [a]))


def sub_hypothesis(h1: Hypothesis, h2: Hypothesis) -> bool:
    """Every rule of h1 has a super-rule in h2."""
    return all(any(subrule(r1, r2) for r2 in h2) for r1 in h1)


def is_indiscriminate(store: FactStore, neg: Iterable[Literal],
                      rule: Rule, lit: Literal) -> bool:
    """Coverage-equality test: removing lit covers exactly the same
    negative examples.  Vacuously true when neg is empty."""
    neg = list(neg)
    return covers_rule(store, reduce_rule(rule, lit), neg) & ~covers_rule(store, rule, neg) == 0


def check_literal(store: FactStore, rule: Rule, lit: Literal,
                  neg: Sequence[Literal], domain: Sequence[Const],
                  mode: DetectMode = DetectMode.BOTH,
                  deadline: Optional[float] = None) -> Optional[PointlessEvidence]:
    """Classify one captured body literal; reducible is tried first."""
    if mode.reducible and is_reducible(store, rule, lit, domain):
        return PointlessEvidence(rule, lit, PointlessKind.REDUCIBLE, reduce_rule(rule, lit))
    if mode.indiscriminate and is_indiscriminate_direct(store, neg, rule, lit, domain, deadline):
        return PointlessEvidence(
            rule, lit, PointlessKind.INDISCRIMINATE, reduce_rule(rule, lit),
            vacuous=all(head_binding(rule, e) is None for e in neg),
        )
    return None


def find_pointless_ungated(
    store: FactStore,
    h: Hypothesis,
    neg: Sequence[Literal],
    domain: Sequence[Const],
    mode: DetectMode = DetectMode.BOTH,
    deadline: Optional[float] = None,
) -> list[PointlessEvidence]:
    """Reference for ``pointless.find_pointless``: every captured literal
    of every basic rule of h, in canonical rule order, gets the reducible
    test and then the per-negative test over every negative, with no
    coverage gate and no table of earlier findings."""
    if mode is DetectMode.OFF:
        return []
    out: list[PointlessEvidence] = []
    for rule in sorted(h, key=rule_sort_key):
        if not is_basic(rule, h):
            continue
        for lit in _captured_literals(rule):
            check_deadline(deadline)
            ev = check_literal(store, rule, lit, neg, domain, mode, deadline)
            if ev is not None:
                out.append(ev)
    return out


def violates(h: Hypothesis, c: Constraint) -> bool:
    """Whether the (canonical) hypothesis h is excluded by the constraint.

    - Specialisation(h0): every rule of h specialises some rule of h0, so
      h covers no more than h0 and misses whatever h0 missed.
    - Generalisation(h0): every rule of h0 has a generalisation in h, so h
      covers at least what h0 covered, false positives included.
    - PointlessSuperRule(evidence): some basic rule of h contains a renamed
      image of the pointless rule and stays in the search space once the
      redundant literal is dropped.
    """
    if c.kind is ConstraintKind.SPECIALISATION:
        assert c.hypothesis is not None
        return all(
            any(renamed_subrule(r0, r) for r0 in c.hypothesis) for r in h
        )
    if c.kind is ConstraintKind.GENERALISATION:
        assert c.hypothesis is not None
        return all(
            any(renamed_subrule(r, r0) for r in h) for r0 in c.hypothesis
        )
    if c.kind is ConstraintKind.POINTLESS_SUPER_RULE:
        return any(is_basic(r, h) and _pointless_match(c, r) is not None for r in h)
    raise ValueError(f"unknown constraint kind {c.kind!r}")


def verify_audit(task, result: LearnResult) -> list[str]:
    """Re-test every audited rejection: the blocked hypothesis must score
    strictly worse than its reduced variant, and no better than the final
    optimum.  Re-check every ban on the reference implementations: a dead
    literal or pair has no solution over the background model, an implied
    pair's first literal holds the second's variables and implies it, and
    an equivalent literal has its kept class-mate's variables, implies it
    and is implied by it, under a larger head-anchored key; no ban names
    the target predicate, and a ban of any other kind is reported.
    Returns human-readable descriptions of any violations."""
    problems: list[str] = []
    tester = CoverageTester(task.bk, task.pos, task.neg)
    model = tester.model
    name, arity = task.bias.head
    head = Literal(name, tuple(Var(var_name(i)) for i in range(arity)))
    for ban in result.ban_records:
        lits = ban.literals
        if ban.kind in ("dead-literal", "dead-pair"):
            holds = next(satisfying_substitutions(model, lits), None) is None
        elif ban.kind == "implied-pair":
            holds = implies_by_solutions(model, *lits)
        elif ban.kind == "equivalent-literal":
            banned, kept = lits
            holds = (banned.vars() == kept.vars()
                     and _literal_key(banned, head) > _literal_key(kept, head)
                     and implies_by_solutions(model, banned, kept)
                     and implies_by_solutions(model, kept, banned))
        else:
            problems.append(f"ban of unknown kind {ban.kind!r} on {list(lits)}")
            continue
        if not holds or any(l.pred_key == task.bias.head for l in lits):
            problems.append(f"banned {ban.kind} {list(lits)} does not hold")
    for rec in result.audit_records:
        blocked = tester.score(rec.hypothesis)
        reduced_h = (rec.hypothesis - {rec.rule}) | {rec.reduced_rule}
        reduced = tester.score(reduced_h)
        if not blocked > reduced:
            problems.append(
                f"blocked {set(rec.hypothesis)} scored {blocked}, "
                f"not worse than reduced variant {set(reduced_h)} at {reduced}"
            )
        if result.best_score is not None and blocked < result.best_score:
            problems.append(
                f"blocked {set(rec.hypothesis)} scored {blocked}, "
                f"better than the returned optimum {result.best_score}"
            )
    return problems
