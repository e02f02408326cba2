"""Generate-test-constrain search for an optimal hypothesis.

Candidates are enumerated by ascending total size; every tested hypothesis
yields failure-driven constraints, and hypotheses containing a pointless
rule additionally yield a super-rule pruning constraint.  In noiseless mode
the first zero-error hypothesis is optimal because sizes ascend.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional, Sequence

from .bans import Ban
from .datalog import CoveragePack, FactStore, PredKey, covers_rule, least_model
from .deadline import DeadlineExceeded
from .generate import (
    AuditRecord,
    Constraint,
    ConstraintKind,
    ConstraintStore,
    HypothesisGenerator,
)
from .logic import (
    Hypothesis,
    Literal,
    Rule,
    Var,
    hypothesis_size,
)
from .pointless import DetectMode, Detector, PointlessEvidence, find_pointless

EXHAUSTED = "exhausted"
TIMEOUT = "timeout"
PERFECT = "perfect-at-size"


class CostScore(NamedTuple):
    """Lexicographic cost: misclassified examples first, then literals."""

    errors: int
    literals: int


@dataclass
class LearnConfig:
    max_size: Optional[int] = None  # default: bias bound
    timeout: Optional[float] = None
    pointless: DetectMode = DetectMode.BOTH
    audit: bool = False
    noisy: bool = False
    seed: Optional[int] = None  # recorded in the run record; the search is deterministic


@dataclass
class Stats:
    generated: int = 0
    # candidates checked against the store, the baseless ones not among
    # them; generated of them passed
    considered: int = 0
    baseless: int = 0  # candidates skipped unchecked: no base rule, no target fact in the background
    bans: int = 0  # literals and pairs the background model bans from every rule body
    tested: int = 0
    nodes_explored: int = 0
    constraints: dict = field(default_factory=dict)
    evidence: dict = field(default_factory=lambda: {"reducible": 0, "indiscriminate": 0})
    detect_subsumed: int = 0  # detections skipped: a specialisation constraint covers them
    detect_futile: int = 0  # detections skipped: their constraints could ban nothing
    detect_cached: int = 0  # basic rules whose findings came from the run's table
    detect_mask_settled: int = 0  # captured literals the coverage masks settled alone
    coverage_extensions: int = 0  # body literals the coverage pack joined to a batch of rows
    # a noiseless run exhausted the space with no zero-error hypothesis, so
    # its failure constraints may have pruned the optimum
    noiseless_violated: bool = False
    time_total: float = 0.0
    time_detection: float = 0.0
    time_testing: float = 0.0
    time_stratum: float = 0.0  # rule-stratum assembly in the generator
    time_pointless_match: float = 0.0  # pointless-constraint matching in the generator
    time_check: float = 0.0  # specialisation/generalisation checks in the generator
    time_bans: float = 0.0  # finding the bans, a part of time_stratum

    def to_dict(self) -> dict:
        """The fields plus `overhead_fraction`, detection time over total
        time, and `pruning_overhead_fraction`, detection and generator
        pointless matching over total time (both 0.0 when the total is 0)."""
        d = asdict(self)
        total = self.time_total
        d["overhead_fraction"] = self.time_detection / total if total else 0.0
        d["pruning_overhead_fraction"] = (
            (self.time_detection + self.time_pointless_match) / total if total else 0.0)
        return d


@dataclass
class LearnResult:
    best: Optional[Hypothesis]
    best_score: Optional[CostScore]
    termination: str
    stats: Stats
    evidence: list[PointlessEvidence] = field(default_factory=list)
    audit_records: list[AuditRecord] = field(default_factory=list)
    ban_records: list[Ban] = field(default_factory=list)


class CoverageTester:
    """Coverage testing against the examples of one target predicate, with
    per-rule memoization keyed by the rule as given: the generator builds
    every rule in canonical form, so it never offers two renamings of one
    rule.

    A task learns one predicate (one bias head; the parser refuses an
    example of another), so the tester refuses examples of two predicates
    with ValueError.  The positives and then the negatives are the bits of
    one mask, whose low len(pos) bits are the positive mask and the rest,
    shifted down, the negative mask.

    A non-recursive hypothesis is tested by OR-ing cached per-rule coverage
    bitmasks over the background model.  A rule missing from the cache is
    answered by the examples' coverage pack (datalog.CoveragePack), built
    once for the tester's lifetime, which shares body-prefix joins between
    the rules of a stratum; coverage_extensions counts the body literals it
    joined.

    A recursive hypothesis extends the background model with the fixpoint
    of its rules, and the examples are looked up among the fixpoint's
    facts of the target predicate.  When the hypothesis has pass-through
    positions (see pass_through), each rule gets one more body literal, of
    a predicate no task can declare, over its head's variables at those
    positions.  Its facts are the examples' values there, in an extension
    of the background model built once per position set, so the fixpoint
    derives only the target facts that can reach an example.  Building the
    background model, extending it and the pack's joins raise
    DeadlineExceeded past the deadline (a time.perf_counter value).
    """

    def __init__(self, bk: Sequence[Rule], pos: Sequence[Literal], neg: Sequence[Literal],
                 deadline: Optional[float] = None):
        self.bk = list(bk)
        self.pos = list(pos)
        self.neg = list(neg)
        examples = [*self.pos, *self.neg]
        keys = {e.pred_key for e in examples}
        if len(keys) > 1:
            raise ValueError(f"examples of more than one predicate: {sorted(keys)}")
        self._target: Optional[PredKey] = keys.pop() if keys else None
        self.deadline = deadline
        self.model = least_model(self.bk, deadline=deadline)
        self._pack = CoveragePack(self.model, examples, deadline)
        # detection's rules that testing has not met, and their masks
        self._side_pack = CoveragePack(self.model, examples, deadline)
        self._side_cache: dict[Rule, tuple[int, int]] = {}
        self.base_pos, self.base_neg = self._split(self._found(self.model))
        self._rule_cache: dict[Rule, tuple[int, int]] = {}
        # pass-through positions -> the background model with their demand facts
        self._demand: dict[tuple[int, ...], FactStore] = {}

    @property
    def coverage_extensions(self) -> int:
        return self._pack.extensions

    def _split(self, covered: int) -> tuple[int, int]:
        """The positive and the negative mask of a mask over the pack's
        examples."""
        return covered & ((1 << len(self.pos)) - 1), covered >> len(self.pos)

    def _found(self, model: FactStore) -> int:
        """The mask of the examples that are facts of the model."""
        facts = model.tuples(self._target)
        return sum(1 << i for i, args in enumerate(self._pack.args) if args in facts)

    def rule_masks(self, rule: Rule) -> tuple[int, int]:
        masks = self._rule_cache.get(rule)
        if masks is None:
            masks = self._split(covers_rule(self.model, rule, self._pack.examples, self._pack))
            self._rule_cache[rule] = masks
        return masks

    def detection_masks(self, rule: Rule) -> tuple[int, int]:
        """The masks of a rule that pointless detection compares: a tested
        rule's from the cache, and a rule with a body literal dropped from
        a second pack over the same examples and a cache of its own, so
        that the first pack keeps the prefixes its strata share and
        coverage_extensions counts testing alone.  No other rule comes
        here: detection scans basic rules only, which a recursive
        hypothesis (of the one target predicate) does not have."""
        masks = self._rule_cache.get(rule) or self._side_cache.get(rule)
        if masks is None:
            masks = self._side_cache[rule] = self._split(self._side_pack.mask(rule))
        return masks

    @staticmethod
    def _is_recursive(h: Hypothesis) -> bool:
        heads = {r.head.pred_key for r in h}
        return any(lit.pred_key in heads for r in h for lit in r.body)

    def _fixpoint(self, h: Hypothesis) -> FactStore:
        """The model of a recursive hypothesis over the background model,
        cut to the examples' values at its pass-through positions."""
        positions = pass_through(h, self._target) if self._target is not None else ()
        if not positions:
            return least_model(h, base=self.model, deadline=self.deadline)
        key = (_DEMAND, len(positions))
        base = self._demand.get(positions)
        if base is None:
            base = self._demand[positions] = self.model.extension({key})
            base.update(key, {tuple([args[p] for p in positions]) for args in self._pack.args})
        restricted = [
            Rule(r.head, r.body | {Literal(_DEMAND, tuple([r.head.args[p] for p in positions]))})
            for r in h]
        return least_model(restricted, base=base, deadline=self.deadline)

    def masks(self, h: Hypothesis) -> tuple[int, int]:
        if self._is_recursive(h):
            return self._split(self._found(self._fixpoint(h)))
        pm, nm = self.base_pos, self.base_neg
        for rule in h:
            rp, rn = self.rule_masks(rule)
            pm |= rp
            nm |= rn
        return (pm, nm)

    def score(self, h: Hypothesis) -> CostScore:
        pm, nm = self.masks(h)
        fn = len(self.pos) - pm.bit_count()
        fp = nm.bit_count()
        return CostScore(fn + fp, hypothesis_size(h))


# the predicate of a restricted fixpoint's demand literals; no task can
# declare it, since a parsed predicate name starts with a lowercase letter
_DEMAND = "$demand"


def pass_through(h: Hypothesis, target: PredKey) -> tuple[int, ...]:
    """The target positions at which every rule of h, all of them rules for
    the target, has a head variable that its body binds and that every
    target literal of its body holds at the same position.  A target fact
    derived by h then has, at each of these positions, the value of the
    target facts it was derived from, so the ones that can reach an
    example are those whose values there are an example's."""
    positions = set(range(target[1]))
    for rule in h:
        head = rule.head
        if head.pred_key != target:
            return ()
        bound = set().union(*(lit.vars() for lit in rule.body))
        for p in list(positions):
            t = head.args[p]
            if not isinstance(t, Var) or t.name not in bound or any(
                    lit.pred_key == target and lit.args[p] != t for lit in rule.body):
                positions.discard(p)
    return tuple(sorted(positions))


def build_cons(h: Hypothesis, fn: int, fp: int, noisy: bool = False,
               max_rules: Optional[int] = None) -> list[Constraint]:
    """Failure-driven constraints for a tested hypothesis: missing a
    positive dooms its specialisations and covering a negative dooms its
    generalisations, which is sound only when a zero-error hypothesis
    exists (noiseless mode).  The hypothesis itself needs no constraint:
    the generator never offers it again.  Under a one-rule bias
    (max_rules == 1) there is no generalisation constraint either: a
    generalisation of a one-rule hypothesis is a renamed subrule of it,
    so it is smaller, and already offered, or a renaming of it."""
    cons = []
    if not noisy:
        if fn > 0:
            cons.append(Constraint(ConstraintKind.SPECIALISATION, hypothesis=h))
        if fp > 0 and max_rules != 1:
            cons.append(Constraint(ConstraintKind.GENERALISATION, hypothesis=h))
    return cons


def detection_is_futile(h: Hypothesis, max_rules: int, max_body: int, max_size: int) -> bool:
    """Whether no pointless-super-rule constraint from h can ban a
    hypothesis the search has still to offer.  Such a constraint from rule
    R bans only hypotheses holding an injective renaming of a super-rule
    of R, and the enumerator never offers h again.  So detection on a
    one-rule h is futile when R has no proper super-rule in the space (a
    full body, or R alone fills max_size) and R cannot sit beside another
    rule (max_rules(1), or R and a two-literal rule exceed max_size).  A
    hypothesis of several rules never qualifies."""
    if len(h) != 1:
        return False
    (rule,) = h
    return ((len(rule.body) == max_body or rule.size == max_size)
            and (max_rules == 1 or rule.size + 2 > max_size))


def learn(task, config: Optional[LearnConfig] = None) -> LearnResult:
    """Search the task for an optimal hypothesis up to the size bound.

    The empty hypothesis is scored first, on what the background alone
    covers, and returned as perfect-at-size when it has no error.  Each
    tested hypothesis gets its failure-driven constraints and, unless
    pruning is off, pointless detection, whose every finding becomes a
    pointless-super-rule constraint.  Detection is skipped where its
    constraint could not ban anything new: under max_rules(1), a hypothesis
    that build_cons gave a specialisation constraint (which bans every
    super-rule already; counted in detect_subsumed), and any hypothesis for
    which detection_is_futile holds (counted in detect_futile).  Detection
    runs behind a coverage gate and keeps each rule's findings for the run
    (pointless.Detector, fed by CoverageTester.detection_masks); its
    findings are those of the ungated reference.find_pointless_ungated.
    The generator gets the background model: when it holds no fact of
    the target, the generator skips every candidate with no base rule,
    which derives nothing (counted in baseless), and unless pruning is
    off it never assembles a rule holding a literal or pair the model
    bans (counted in bans; see HypothesisGenerator).  A recursive
    hypothesis has no basic rule (one target predicate), so detection
    skips it."""
    config = config or LearnConfig()
    bias = task.bias
    max_size = config.max_size if config.max_size is not None else bias.max_size
    if max_size < 2:
        raise ValueError("max_size must be at least 2")

    t_start = time.perf_counter()
    deadline = t_start + config.timeout if config.timeout is not None else None
    stats = Stats()

    store = ConstraintStore()
    gen: Optional[HypothesisGenerator] = None
    domain = list(task.constant_domain)

    best: Optional[Hypothesis] = frozenset()
    best_score: Optional[CostScore] = None
    evidence_log: list[PointlessEvidence] = []
    termination = EXHAUSTED
    tester: Optional[CoverageTester] = None
    detector: Optional[Detector] = None

    def finish() -> LearnResult:
        stats.constraints = store.counts()
        if gen is None:  # building the background model ran past the deadline
            stats.time_total = time.perf_counter() - t_start
            return LearnResult(None, None, TIMEOUT, stats)
        stats.generated = gen.emitted
        stats.considered = gen.considered
        stats.baseless = gen.baseless
        stats.nodes_explored = gen.nodes_explored
        stats.time_stratum = gen.time_stratum
        stats.time_pointless_match = gen.time_pointless_match
        stats.time_check = gen.time_check
        stats.bans = gen.bans
        stats.time_bans = gen.time_bans
        stats.coverage_extensions = tester.coverage_extensions
        stats.detect_cached = detector.cached
        stats.detect_mask_settled = detector.mask_settled
        stats.noiseless_violated = (not config.noisy and termination == EXHAUSTED
                                    and best_score.errors > 0)
        stats.time_total = time.perf_counter() - t_start
        if termination == TIMEOUT and stats.tested == 0:
            return LearnResult(None, None, TIMEOUT, stats,
                               evidence_log, gen.audit_records, gen.ban_records)
        return LearnResult(best, best_score, termination, stats,
                           evidence_log, gen.audit_records, gen.ban_records)

    try:
        tester = CoverageTester(task.bk, task.pos, task.neg, deadline)
        detector = Detector(tester.model, tester.neg, domain, config.pointless,
                            tester.detection_masks)
        gen = HypothesisGenerator(bias, store, audit=config.audit, deadline=deadline,
                                  model=tester.model, mode=config.pointless)
        # under enable_recursion the background may hold facts of the
        # target, so the empty hypothesis can cover examples
        best_score = tester.score(best)
        if best_score.errors == 0:
            termination = PERFECT
            return finish()
        for size in range(2, max_size + 1):
            while (h := gen.next_hypothesis(size)) is not None:
                t0 = time.perf_counter()
                pm, nm = tester.masks(h)
                stats.time_testing += time.perf_counter() - t0
                stats.tested += 1
                fn = len(tester.pos) - pm.bit_count()
                fp = nm.bit_count()
                h_score = CostScore(fn + fp, hypothesis_size(h))

                if h_score < best_score:
                    best, best_score = h, h_score

                if h_score.errors == 0:
                    termination = PERFECT
                    return finish()

                cons = build_cons(h, fn, fp, config.noisy, bias.max_rules)
                for c in cons:
                    store.add(c)

                if config.pointless is DetectMode.OFF:
                    continue
                if bias.max_rules == 1 and any(
                        c.kind is ConstraintKind.SPECIALISATION for c in cons):
                    # h's specialisation constraint already bans every
                    # hypothesis whose one rule contains a renaming of h's
                    # rule, which is all a pointless constraint from h
                    # could ban
                    stats.detect_subsumed += 1
                    continue
                if detection_is_futile(h, bias.max_rules, bias.max_body, max_size):
                    stats.detect_futile += 1
                    continue
                if bias.recursion and CoverageTester._is_recursive(h):
                    continue
                t0 = time.perf_counter()
                found = find_pointless(h, detector=detector, deadline=deadline)
                stats.time_detection += time.perf_counter() - t0
                for ev in found:
                    evidence_log.append(ev)
                    stats.evidence[ev.kind.value] += 1
                    store.add(Constraint(
                        ConstraintKind.POINTLESS_SUPER_RULE, evidence=ev))
    except DeadlineExceeded:
        # building the tester, generating, testing or detecting ran past
        # the deadline; the timers above count only completed calls
        termination = TIMEOUT
    return finish()

