"""Detection of pointless rules: rules with a captured body literal that is
either implied by the rest of the body (reducible) or unable to exclude any
negative example (indiscriminate)."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

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


class Detector:
    """Pointless detection over one background model, negative list,
    domain and mode, all fixed when it is built: a coverage gate in front
    of the implication tests, and each basic rule's findings, kept for the
    detector's life.

    ``masks`` gives a rule's coverage masks over some positives and over
    the negatives, bit i of the second for ``neg[i]``.  Write R' for rule R
    with captured literal l dropped.  With a domain that holds every
    constant of the store, as a task's constant domain does (the
    background model is function-free):

    - R reducible at l makes R and R' cover the same examples;
    - R indiscriminate at l makes them cover the same negatives;
    - a negative that R' does not cover passes the per-negative test
      vacuously.

    So the reducible test runs only when both masks agree, and the
    indiscriminate test only when the negative masks do, over the
    negatives R' covers.  Without ``masks`` every rule gets the same
    masks, no positive and every negative, so the gate admits both tests
    on every captured literal and every negative: the scan for rules of
    any head, or a domain that may miss a constant of the store.

    Findings on a basic rule depend on the rule and on what the detector
    fixes alone.  ``cached`` counts the rules answered from its table,
    ``mask_settled`` the captured literals the masks settled without an
    implication test."""

    def __init__(self, store: FactStore, neg: Sequence[Literal], domain: Sequence[Const],
                 mode: DetectMode = DetectMode.BOTH,
                 masks: Optional[Callable[[Rule], tuple[int, int]]] = None):
        self.store = store
        self.neg = neg
        self.domain = domain
        self.mode = mode
        admit_all = (0, (1 << len(neg)) - 1)
        self.masks = masks or (lambda rule: admit_all)
        self.findings: dict[Rule, list[PointlessEvidence]] = {}
        self.cached = 0
        self.mask_settled = 0

    def scan(self, rule: Rule, deadline: Optional[float]) -> list[PointlessEvidence]:
        """The findings on a basic rule, computed on its first scan."""
        found = self.findings.get(rule)
        if found is not None:
            self.cached += 1
            return found
        found = []
        store, neg, domain, mode = self.store, self.neg, self.domain, self.mode
        pm, nm = self.masks(rule)
        for lit in _captured_literals(rule):
            check_deadline(deadline)
            reduced = reduce_rule(rule, lit)
            rpm, rnm = self.masks(reduced)
            reducible = mode.reducible and rpm == pm and rnm == nm
            tested = [e for i, e in enumerate(neg) if rnm >> i & 1] \
                if mode.indiscriminate and rnm == nm else None
            self.mask_settled += not reducible and not tested
            if reducible and is_reducible(store, rule, lit, domain):
                found.append(PointlessEvidence(rule, lit, PointlessKind.REDUCIBLE, reduced))
            elif tested is not None and \
                    is_indiscriminate_direct(store, tested, rule, lit, domain, deadline):
                found.append(PointlessEvidence(
                    rule, lit, PointlessKind.INDISCRIMINATE, reduced,
                    vacuous=all(head_binding(rule, e) is None for e in neg)))
        self.findings[rule] = found
        return found


def _captured_literals(rule: Rule) -> list[Literal]:
    return [lit for lit in sorted(rule.body, key=concrete_key) if captured(rule, lit)]


def find_pointless(h: Hypothesis, detector: Detector,
                   deadline: Optional[float] = None) -> list[PointlessEvidence]:
    """Scan a hypothesis for pointless rules with the detector.

    Rules are visited in canonical order and only basic rules are
    considered; evidence names each rule as given (the generator builds
    every rule canonical).  For each captured body literal the reducible
    test runs before the indiscriminate test, and every (rule, literal)
    finding in the hypothesis is returned: each licenses a constraint of
    its own.  The indiscriminate test skips each of the detector's
    negatives that the rule's head cannot bind (head_binding is None), as
    any of another predicate, so a rule about another predicate than
    theirs gets at most a vacuous indiscriminate claim.  A rule the
    detector has scanned before is answered from its table.  Past the
    deadline (a time.perf_counter value), checked before each captured
    literal and each negative example's implication test, it raises
    DeadlineExceeded.
    """
    if detector.mode is DetectMode.OFF:
        return []
    out: list[PointlessEvidence] = []
    for rule in sorted(h, key=rule_sort_key):
        if is_basic(rule, h):
            out += detector.scan(rule, deadline)
    return out
