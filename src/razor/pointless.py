"""Detection of pointless rules: rules with a captured body literal that is
either implied by the rest of the body (reducible) or unable to exclude any
negative example (indiscriminate)."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .datalog import FactStore, head_binding, implies
from .deadline import check_deadline
from .logic import (
    Const,
    Hypothesis,
    Literal,
    Rule,
    captured,
    concrete_key,
    is_basic,
    rule_sort_key,
)


class PointlessKind(enum.Enum):
    REDUCIBLE = "reducible"
    INDISCRIMINATE = "indiscriminate"


class DetectMode(enum.Enum):
    OFF = "off"
    REDUCIBLE_ONLY = "reducible-only"
    INDISCRIMINATE_ONLY = "indiscriminate-only"
    BOTH = "both"

    @property
    def reducible(self) -> bool:
        return self in (DetectMode.REDUCIBLE_ONLY, DetectMode.BOTH)

    @property
    def indiscriminate(self) -> bool:
        return self in (DetectMode.INDISCRIMINATE_ONLY, DetectMode.BOTH)


@dataclass(frozen=True)
class PointlessEvidence:
    """A redundant captured literal found in a rule of the hypothesis
    detection ran on."""

    rule: Rule
    literal: Literal
    kind: PointlessKind
    reduced_rule: Rule
    vacuous: bool = False  # indiscriminate with no negative example matching the head

    def __repr__(self):
        return f"{self.kind.value}: {self.rule!r} [literal {self.literal!r}]"


def reduce_rule(rule: Rule, lit: Literal) -> Rule:
    return Rule(rule.head, rule.body - {lit})


def is_reducible(store: FactStore, rule: Rule, lit: Literal,
                 domain: Sequence[Const]) -> bool:
    """The rest of the body implies lit over the background knowledge."""
    return implies(store, rule.body - {lit}, lit, domain)


def is_indiscriminate_direct(store: FactStore, neg: Iterable[Literal],
                             rule: Rule, lit: Literal,
                             domain: Sequence[Const],
                             deadline: Optional[float] = None) -> bool:
    """Per-negative implication test: for every negative example, every
    grounding that satisfies the rest of the body under the example's head
    binding also satisfies lit.  Strictly stronger than the
    coverage-equality test and the one that licenses pruning.  Raises
    DeadlineExceeded past the deadline, checked before each example."""
    body = rule.body - {lit}
    for e in neg:
        theta = head_binding(rule, e)
        if theta is None:
            continue
        check_deadline(deadline)
        if not implies(store, body, lit, domain, seed=theta):
            return False
    return True


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


def find_pointless(
    store: FactStore,
    h: Hypothesis,
    neg: Sequence[Literal],
    domain: Sequence[Const],
    mode: DetectMode = DetectMode.BOTH,
    deadline: Optional[float] = None,
) -> list[PointlessEvidence]:
    """Scan a hypothesis for pointless rules.

    Rules are visited in canonical order and only basic rules are
    considered; evidence names each rule as given (the generator builds
    every rule canonical).  For each captured body literal the reducible
    test runs before the indiscriminate test, and every (rule, literal)
    finding in the hypothesis is returned: each licenses a constraint of
    its own.  The negatives are passed through as given: the
    indiscriminate test skips each one the rule's head cannot bind
    (head_binding is None), as any of another predicate, so a rule about
    another predicate than theirs gets at most a vacuous indiscriminate
    claim.  Past the deadline (a time.perf_counter value), checked before
    each captured literal and each negative example's implication test,
    it raises DeadlineExceeded.
    """
    if mode is DetectMode.OFF:
        return []
    out: list[PointlessEvidence] = []
    for rule in sorted(h, key=rule_sort_key):
        if not is_basic(rule, h):
            continue
        for lit in sorted(rule.body, key=concrete_key):
            if not captured(rule, lit):
                continue
            check_deadline(deadline)
            ev = check_literal(store, rule, lit, neg, domain, mode, deadline)
            if ev is not None:
                out.append(ev)
    return out
