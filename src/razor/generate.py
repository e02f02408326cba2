"""Bias-bounded enumeration of candidate hypotheses under pruning
constraints.  A native backtracking enumerator with canonical symmetry
breaking replaces an external solver; constraint semantics follow the
soundness propositions for pointless rules and the usual failure-driven
specialisation/generalisation pruning."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, groupby
from typing import Iterator, Mapping, Optional

from .logic import (
    Const,
    Hypothesis,
    Literal,
    Rule,
    Var,
    abstract_key,
    canonicalize,
    connected,
    hypothesis_key,
    hypothesis_sorted,
    in_search_space,
    is_basic,
    is_safe,
    iter_renamings,
    rename_literal,
    renamed_subrule,
    rule_sort_key,
    var_name,
)
from .pointless import PointlessEvidence

PredKey = tuple[str, int]


class BiasError(ValueError):
    pass


class DeadlineExceeded(Exception):
    """The generator's deadline passed before the next candidate was
    found."""


@dataclass(frozen=True)
class Bias:
    """Search-space declaration: the head predicate, the body vocabulary,
    size bounds and per-argument constant allow-lists."""

    head: PredKey
    body_preds: tuple[PredKey, ...]
    max_vars: int = 4
    max_body: int = 4
    max_rules: int = 1
    constants: Mapping[tuple[PredKey, int], tuple[Const, ...]] = field(default_factory=dict)
    recursion: bool = False

    def __post_init__(self):
        if self.max_vars < 1 or self.max_body < 1 or self.max_rules < 1:
            raise BiasError("max_vars, max_body and max_rules must all be at least 1")
        if self.head[1] > self.max_vars:
            raise BiasError(
                f"head arity {self.head[1]} exceeds max_vars {self.max_vars}"
            )
        if self.head in self.body_preds and not self.recursion:
            raise BiasError(
                f"head predicate {self.head[0]}/{self.head[1]} used as a body predicate; "
                "declare enable_recursion instead"
            )

    @property
    def max_size(self) -> int:
        return (1 + self.max_body) * self.max_rules

    def allowed_constants(self, pred: PredKey, pos: int) -> tuple[Const, ...]:
        return tuple(self.constants.get((pred, pos), ()))

    def generatable_preds(self) -> list[PredKey]:
        preds = set(self.body_preds)
        if self.recursion:
            preds.add(self.head)
        return sorted(preds)


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

class ConstraintKind(enum.Enum):
    SPECIALISATION = "specialisation"
    GENERALISATION = "generalisation"
    POINTLESS_SUPER_RULE = "pointless-super-rule"


@dataclass(frozen=True)
class Constraint:
    kind: ConstraintKind
    hypothesis: Optional[Hypothesis] = None
    evidence: Optional[PointlessEvidence] = None

    def key(self) -> tuple:
        if self.kind is ConstraintKind.POINTLESS_SUPER_RULE:
            assert self.evidence is not None
            ev = self.evidence
            return (self.kind.value, rule_sort_key(ev.rule), repr(ev.literal))
        assert self.hypothesis is not None
        return (self.kind.value, hypothesis_key(self.hypothesis))


@lru_cache(maxsize=None)
def _literal_key(lit: Literal, head: Literal) -> tuple:
    """Head-anchored index key of a body literal: its predicate and
    arguments, where a constant stays itself, a head variable becomes its
    first head position and any other variable is masked.  An injective
    renaming that maps one head onto another sends head variables to the
    same positions and the other variables to other variables, so it
    preserves every key."""
    toks = []
    for t in lit.args:
        if isinstance(t, Const):
            toks.append((0, t.name))
        elif t in head.args:
            toks.append((1, head.args.index(t)))
        else:
            toks.append((2,))
    return (lit.pred, tuple(toks))


@lru_cache(maxsize=None)
def _rule_key(rule: Rule) -> tuple:
    """Index key of a rule: p renames into r only if _rule_key(p) is one of
    the sub-keys of r."""
    return (abstract_key(rule.head),
            *sorted(_literal_key(lit, rule.head) for lit in rule.body))


def _sub_keys(rule: Rule) -> tuple[tuple, ...]:
    """The index key of every sub-body of the rule, the empty one included."""
    head_key = abstract_key(rule.head)
    keys = sorted(_literal_key(lit, rule.head) for lit in rule.body)
    return tuple(dict.fromkeys(
        (head_key, *sub) for n in range(len(keys) + 1) for sub in combinations(keys, n)))


_rule_sub_keys = lru_cache(maxsize=None)(_sub_keys)


def _pointless_match(c: Constraint, r: Rule) -> Optional[tuple[Rule, Literal, Rule]]:
    """A renaming of the evidence rule into r whose redundant-literal image
    can be removed while keeping r inside the search space.  Returns
    (rule, literal image, reduced rule) or None.

    The search-space condition is what keeps the pruning sound: the cheaper
    hypothesis built by dropping the literal must itself be safe, connected
    and nonempty, otherwise nothing in the space witnesses that r is
    dispensable.
    """
    assert c.evidence is not None
    for theta in iter_renamings(c.evidence.rule, r):
        image = rename_literal(c.evidence.literal, theta)
        reduced = Rule(r.head, r.body - {image})
        if in_search_space(reduced):
            return (r, image, reduced)
    return None


def pointless_violation(h: Hypothesis, c: Constraint) -> Optional[tuple[Rule, Literal, Rule]]:
    for r in hypothesis_sorted(h):
        if not is_basic(r, h):
            continue
        m = _pointless_match(c, r)
        if m is not None:
            return m
    return None


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
        return pointless_violation(h, c) is not None
    raise ValueError(f"unknown constraint kind {c.kind!r}")


class _RuleHits:
    """Memoized record of which constraints a single rule triggers; refreshed
    lazily when the store has grown."""

    __slots__ = ("spec_seen", "spec_ids", "gen_seen", "gen_hits",
                 "pointless_seen", "pointless_match")

    def __init__(self):
        self.spec_seen = -1
        self.spec_ids: set[int] = set()
        self.gen_seen = -1
        self.gen_hits: dict[int, set[int]] = {}
        self.pointless_seen = -1
        self.pointless_match: Optional[tuple[Constraint, Rule, Literal, Rule]] = None


class ConstraintStore:
    """Insert-only collection of constraints, indexed by head-anchored rule
    keys (see _literal_key) for fast matching; duplicate adds are no-ops."""

    def __init__(self):
        self._keys: set[tuple] = set()
        self.count = dict.fromkeys(ConstraintKind, 0)  # stored constraints per kind
        # specialisation: stored rule -> matches into a candidate rule;
        # bucketed by the stored rule's key
        self.spec_by_key: dict[tuple, list[tuple[int, Rule]]] = {}
        # generalisation: candidate rule -> matches into the stored rule;
        # entries bucketed under every sub-key of the stored rule so a
        # candidate resolves with a single lookup of its own key
        self.gen: list[tuple[Rule, ...]] = []
        self.gen_by_key: dict[tuple, list[tuple[int, int, Rule]]] = {}
        self.pointless_by_key: dict[tuple, list[tuple[int, Constraint]]] = {}
        self._hits: dict[Rule, _RuleHits] = {}

    def add(self, c: Constraint) -> bool:
        key = c.key()
        if key in self._keys:
            return False
        self._keys.add(key)
        if c.kind is ConstraintKind.SPECIALISATION:
            assert c.hypothesis is not None
            cid = self.count[ConstraintKind.SPECIALISATION]
            for r0 in hypothesis_sorted(c.hypothesis):
                self.spec_by_key.setdefault(_rule_key(r0), []).append((cid, r0))
        elif c.kind is ConstraintKind.GENERALISATION:
            assert c.hypothesis is not None
            rules = tuple(hypothesis_sorted(c.hypothesis))
            cid = len(self.gen)
            self.gen.append(rules)
            for idx, r0 in enumerate(rules):
                for key in _rule_sub_keys(r0):
                    self.gen_by_key.setdefault(key, []).append((cid, idx, r0))
        else:
            assert c.evidence is not None
            pid = self.count[ConstraintKind.POINTLESS_SUPER_RULE]
            self.pointless_by_key.setdefault(_rule_key(c.evidence.rule), []).append((pid, c))
        self.count[c.kind] += 1
        return True

    def __len__(self) -> int:
        return sum(self.count.values())

    def counts(self) -> dict[str, int]:
        return {kind.value: n for kind, n in self.count.items()}

    # -- per-rule caches --------------------------------------------------
    # Bucket entries carry the insertion id of their constraint, so a
    # refresh tests only the constraints added since the rule's last scan.

    def _rule_hits(self, r: Rule) -> _RuleHits:
        hits = self._hits.get(r)
        if hits is None:
            hits = _RuleHits()
            self._hits[r] = hits
        return hits

    def spec_ids(self, r: Rule) -> set[int]:
        hits = self._rule_hits(r)
        n_spec = self.count[ConstraintKind.SPECIALISATION]
        if hits.spec_seen != n_spec:
            for key in _rule_sub_keys(r):
                for cid, r0 in self.spec_by_key.get(key, ()):
                    # a multi-rule constraint files several rules under one cid
                    if (cid >= hits.spec_seen and cid not in hits.spec_ids
                            and renamed_subrule(r0, r)):
                        hits.spec_ids.add(cid)
            hits.spec_seen = n_spec
        return hits.spec_ids

    def gen_hits(self, r: Rule) -> dict[int, set[int]]:
        hits = self._rule_hits(r)
        if hits.gen_seen != len(self.gen):
            for cid, idx, r0 in self.gen_by_key.get(_rule_key(r), ()):
                if cid >= hits.gen_seen and renamed_subrule(r, r0):
                    hits.gen_hits.setdefault(cid, set()).add(idx)
            hits.gen_seen = len(self.gen)
        return hits.gen_hits

    def pointless_match(self, r: Rule) -> Optional[tuple[Constraint, Rule, Literal, Rule]]:
        hits = self._rule_hits(r)
        if hits.pointless_match is not None:
            return hits.pointless_match
        n_pointless = self.count[ConstraintKind.POINTLESS_SUPER_RULE]
        if hits.pointless_seen != n_pointless:
            for key in _rule_sub_keys(r):
                for pid, c in self.pointless_by_key.get(key, ()):
                    if pid < hits.pointless_seen:
                        continue
                    m = _pointless_match(c, r)
                    if m is not None:
                        hits.pointless_match = (c, *m)
                        hits.pointless_seen = n_pointless
                        return hits.pointless_match
            hits.pointless_seen = n_pointless
        return hits.pointless_match

    # -- hypothesis-level checks ------------------------------------------

    def violated_non_pointless(self, h: Hypothesis) -> bool:
        rules = list(h)
        if self.count[ConstraintKind.SPECIALISATION]:
            common: Optional[set[int]] = None
            for r in rules:
                ids = self.spec_ids(r)
                common = set(ids) if common is None else (common & ids)
                if not common:
                    break
            if common:
                return True
        if self.gen:
            agg: dict[int, set[int]] = {}
            for r in rules:
                for cid, idxs in self.gen_hits(r).items():
                    agg.setdefault(cid, set()).update(idxs)
            for cid, idxs in agg.items():
                if len(idxs) == len(self.gen[cid]):
                    return True
        return False

    def first_pointless_violation(
        self, h: Hypothesis
    ) -> Optional[tuple[Constraint, Rule, Literal, Rule]]:
        if not self.count[ConstraintKind.POINTLESS_SUPER_RULE]:
            return None
        for r in hypothesis_sorted(h):
            m = self.pointless_match(r)
            if m is not None and is_basic(r, h):
                return m
        return None


@dataclass(frozen=True)
class AuditRecord:
    """A candidate that only a pointless-super-rule constraint rejected."""

    hypothesis: Hypothesis
    constraint: Constraint
    rule: Rule
    literal: Literal
    reduced_rule: Rule


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int, minimum: int = 2) -> Iterator[tuple[int, ...]]:
    """Nondecreasing compositions of total into the given number of parts."""
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // parts + 1):
        for rest in _compositions(total - first, parts - 1, first):
            yield (first, *rest)


def rule_groups(size: int, max_rules: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The (rule size, count) groups, ascending by rule size, of every
    nondecreasing split of a total size into 1..max_rules rules of at
    least two literals each."""
    for k in range(1, max_rules + 1):
        for comp in _compositions(size, k):
            yield tuple((part, len(list(run))) for part, run in groupby(comp))


class HypothesisGenerator:
    """Streams canonical, bias-legal, constraint-satisfying hypotheses of a
    requested total size.  Constraints added between calls take effect for
    all subsequent candidates.  Each canonical hypothesis is offered at
    most once per run: strata are deduplicated by canonical key, a
    hypothesis's rule sizes pick one rule group and one selection from it,
    and each size has one stream.  Past the deadline (a time.perf_counter
    value) next_hypothesis raises DeadlineExceeded, and a later call for
    that size starts the size over."""

    def __init__(self, bias: Bias, store: ConstraintStore, audit: bool = False,
                 deadline: Optional[float] = None):
        self.bias = bias
        self.store = store
        self.audit = audit
        self.deadline = deadline
        self.nodes_explored = 0
        self.emitted = 0
        self.considered = 0
        self.audit_records: list[AuditRecord] = []
        self._strata: dict[int, list[Rule]] = {}
        self._streams: dict[int, Iterator[Hypothesis]] = {}

    def _check_deadline(self):
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise DeadlineExceeded

    # -- rule-level enumeration ------------------------------------------

    def _head(self) -> Literal:
        name, arity = self.bias.head
        return Literal(name, tuple(Var(var_name(i)) for i in range(arity)))

    def _literal_choices(self, pred: PredKey, used: int) -> Iterator[tuple[Literal, int]]:
        name, arity = pred
        bias = self.bias

        def fill(i: int, args: tuple, cur: int) -> Iterator[tuple[Literal, int]]:
            if i == arity:
                yield Literal(name, args), cur
                return
            for v in range(cur):
                yield from fill(i + 1, args + (Var(var_name(v)),), cur)
            if cur < bias.max_vars:
                yield from fill(i + 1, args + (Var(var_name(cur)),), cur + 1)
            for const in bias.allowed_constants(pred, i):
                yield from fill(i + 1, args + (const,), cur)

        yield from fill(0, (), used)

    def _partial_prunable(self, head: Literal, body: list[Literal]) -> bool:
        """Fail-fast: every completion of this partial body is excluded by
        some pointless constraint.  Only sound when every rule is basic
        (recursion off) and when the reduced partial already carries the
        head variables and the image's variables, so that completions keep
        their reductions inside the search space."""
        index = self.store.pointless_by_key
        head_vars = head.vars()
        partial = Rule(head, frozenset(body))
        for key in _sub_keys(partial):
            for _, c in index.get(key, ()):
                ev = c.evidence
                assert ev is not None
                for theta in iter_renamings(ev.rule, partial):
                    image = rename_literal(ev.literal, theta)
                    reduced = Rule(head, partial.body - {image})
                    if not in_search_space(reduced):
                        continue
                    core_vars = set(head_vars)
                    for lit in reduced.body:
                        core_vars |= lit.vars()
                    if image.vars() <= core_vars:
                        return True
        return False

    def _assemble(self, rule_size: int) -> list[Rule]:
        bias = self.bias
        body_size = rule_size - 1
        if body_size < 1 or body_size > bias.max_body:
            return []
        head = self._head()
        preds = bias.generatable_preds()
        fail_fast = (not bias.recursion and not self.audit
                     and self.store.count[ConstraintKind.POINTLESS_SUPER_RULE] > 0)
        out: dict[tuple, Rule] = {}

        def extend(body: list[Literal], used: int):
            self._check_deadline()
            self.nodes_explored += 1
            if len(body) == body_size:
                rule = Rule(head, frozenset(body))
                if is_safe(rule) and connected(rule):
                    canon = canonicalize(rule)
                    out.setdefault(rule_sort_key(canon), canon)
                return
            last = abstract_key(body[-1]) if body else None
            # interior nodes only: complete rules are filtered against the
            # constraint store at selection time anyway
            check = fail_fast and len(body) + 2 <= body_size
            for pred in preds:
                for lit, used2 in self._literal_choices(pred, used):
                    if last is not None and abstract_key(lit) < last:
                        continue
                    if lit in body:
                        continue
                    if check and self._partial_prunable(head, body + [lit]):
                        continue
                    extend(body + [lit], used2)

        extend([], bias.head[1])
        return [out[k] for k in sorted(out)]

    def rule_stratum(self, rule_size: int) -> list[Rule]:
        # a stratum whose assembly ran past the deadline is never cached
        if rule_size not in self._strata:
            self._strata[rule_size] = self._assemble(rule_size)
        return self._strata[rule_size]

    # -- hypothesis-level enumeration ------------------------------------

    def _candidates(self, size: int) -> Iterator[Hypothesis]:
        filter_rules = not self.bias.recursion and not self.audit
        store = self.store
        for groups in rule_groups(size, self.bias.max_rules):

            def pick(gi: int, chosen: tuple[Rule, ...]) -> Iterator[Hypothesis]:
                if gi == len(groups):
                    yield frozenset(chosen)
                    return
                part, count = groups[gi]
                pool = self.rule_stratum(part)
                if filter_rules and store.count[ConstraintKind.POINTLESS_SUPER_RULE]:
                    pool = [r for r in pool if store.pointless_match(r) is None]
                for sel in combinations(pool, count):
                    yield from pick(gi + 1, chosen + sel)

            yield from pick(0, ())

    def _passes(self, h: Hypothesis) -> bool:
        """Whether h survives every stored constraint; under audit, a
        rejection by a pointless constraint alone is recorded."""
        if self.store.violated_non_pointless(h):
            return False
        pv = self.store.first_pointless_violation(h)
        if pv is None:
            return True
        if self.audit:
            self.audit_records.append(AuditRecord(h, *pv))
        return False

    def _stream(self, size: int) -> Iterator[Hypothesis]:
        for h in self._candidates(size):
            self._check_deadline()
            self.considered += 1
            if self._passes(h):
                self.emitted += 1
                yield h

    def next_hypothesis(self, size: int) -> Optional[Hypothesis]:
        if size < 2:
            raise ValueError("hypothesis size must be at least 2")
        stream = self._streams.get(size)
        if stream is None:
            stream = self._stream(size)
            self._streams[size] = stream
        try:
            return next(stream, None)
        except DeadlineExceeded:
            del self._streams[size]  # a generator that raised is finished
            raise
