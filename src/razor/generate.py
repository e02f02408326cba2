"""Bias-bounded enumeration of candidate hypotheses under pruning
constraints.  A native backtracking enumerator with canonical symmetry
breaking replaces an external solver; constraint semantics follow the
soundness propositions for pointless rules and the usual failure-driven
specialisation/generalisation pruning."""

from __future__ import annotations

import enum
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, combinations, groupby, permutations, product
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .bans import Ban, background_bans
from .datalog import FactStore
from .deadline import DeadlineExceeded, check_deadline
from .logic import (
    Const,
    Hypothesis,
    Literal,
    Rule,
    Var,
    abstract_key,
    concrete_key,
    in_search_space,
    iter_renamings,
    rename_literal,
    renamed_subrule,
    var_name,
)
from .pointless import DetectMode, PointlessEvidence

PredKey = tuple[str, int]


class BiasError(ValueError):
    pass


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


def _sub_keys(key: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The integer key of every sub-body of a rule with the given key, the
    empty one included, each listing its literal ids in the rule's order.
    Literal ids repeat (p(A,B) and p(A,C) share one), so equal sub-keys are
    kept once, at their first place."""
    head, lits = key[:1], key[1:]
    return tuple(dict.fromkeys([head + sub for n in range(len(key))
                                for sub in combinations(lits, n)]))


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


class _RuleHits:
    """The sub-keys of one rule and a memoized record of which constraints
    it triggers; refreshed lazily when the store has grown."""

    __slots__ = ("sub_keys", "spec_seen", "spec_ids", "gen_seen", "gen_hits",
                 "pointless_seen", "pointless_match")

    def __init__(self, sub_keys: tuple[tuple[int, ...], ...]):
        self.sub_keys = sub_keys
        self.spec_seen = -1
        self.spec_ids: set[int] = set()
        self.gen_seen = -1
        self.gen_hits: dict[int, set[int]] = {}
        self.pointless_seen = -1
        self.pointless_match: Optional[tuple[Constraint, Rule, Literal, Rule]] = None


class ConstraintStore:
    """Insert-only collection of constraints, indexed by integer rule keys
    for fast matching; duplicate adds are no-ops.

    The store keeps a rule table for its own lifetime, one learn run.  A
    rule's id, a small integer, indexes the rule (rules), its key
    (rule_keys) and its _RuleHits, built on first use.  A key is the id
    of the head's abstract key followed by the sorted ids of the body
    literals' head-anchored keys (see _literal_key), so p renames into r
    only if p's key is one of the sub-keys of r, and a head of another
    shape never shares a bucket.  The generator registers each stratum's
    rules as it assembles them; any other rule gets an id the first time
    the store sees it (rule_id).  The hypothesis-level checks take a tuple
    of rule ids in rule_sort_key order, so a check hashes no Rule.
    target_body flags, per rule id, a rule with a body literal of its head
    predicate: a rule that is no base rule."""

    def __init__(self):
        self._seen: set[tuple] = set()  # what add compares: kind, rule ids, literal
        self.count = dict.fromkeys(ConstraintKind, 0)  # stored constraints per kind
        # specialisation: stored rule -> matches into a candidate rule;
        # bucketed by the stored rule's key, with whether the rule has only
        # head variables: then its key fixes every literal once the head
        # is mapped, and every rule whose sub-keys hold it matches
        self.spec_by_key: dict[tuple[int, ...], list[tuple[int, Rule, bool]]] = {}
        # generalisation: candidate rule -> matches into the stored rule;
        # entries bucketed under every sub-key of the stored rule so a
        # candidate resolves with a single lookup of its own key.  gen
        # holds each constraint's rule count.
        self.gen: list[int] = []
        self.gen_by_key: dict[tuple[int, ...], list[tuple[int, int, Rule]]] = {}
        self.pointless_by_key: dict[tuple[int, ...], list[tuple[int, Constraint]]] = {}
        # the rule table, and the ids of rules and of head and literal keys
        self.rules: list[Rule] = []
        self.rule_keys: list[tuple[int, ...]] = []
        self.target_body: list[bool] = []
        self._hits: list[Optional[_RuleHits]] = []
        self._rule_ids: dict[Rule, int] = {}
        self._key_ids: dict[tuple, int] = {}

    # -- the rule table ---------------------------------------------------

    def key_ids(self, keys: Iterable[tuple]) -> list[int]:
        """The id of each head or literal key, a new key numbered in the
        order given."""
        ids = self._key_ids
        return [ids.setdefault(k, len(ids)) for k in keys]

    def register(self, rule: Rule, key: tuple[int, ...]) -> int:
        """The id of a rule whose integer key the caller built."""
        rid = self._rule_ids.setdefault(rule, len(self.rules))
        if rid == len(self.rules):
            self.rules.append(rule)
            self.rule_keys.append(key)
            self.target_body.append(
                any(lit.pred_key == rule.head.pred_key for lit in rule.body))
            self._hits.append(None)
        return rid

    def rule_id(self, rule: Rule) -> int:
        """The id of any rule, registered the first time it is seen."""
        rid = self._rule_ids.get(rule)
        if rid is not None:
            return rid
        (head,) = self.key_ids((abstract_key(rule.head),))
        lits = self.key_ids(sorted(_literal_key(lit, rule.head) for lit in rule.body))
        return self.register(rule, (head, *sorted(lits)))

    def add(self, c: Constraint) -> bool:
        """Store c unless an equal constraint is stored: one of the same
        kind on the same rules, and for a pointless constraint on the same
        literal.  Returns whether c was new."""
        if c.kind is ConstraintKind.POINTLESS_SUPER_RULE:
            assert c.evidence is not None
            rids: tuple[int, ...] = (self.rule_id(c.evidence.rule),)
            key: tuple = (c.kind, rids, c.evidence.literal)
        else:
            assert c.hypothesis is not None
            rids = tuple(map(self.rule_id, c.hypothesis))
            key = (c.kind, frozenset(rids))
        if key in self._seen:
            return False
        self._seen.add(key)
        if c.kind is ConstraintKind.SPECIALISATION:
            cid = self.count[ConstraintKind.SPECIALISATION]
            for rid in rids:
                r0 = self.rules[rid]
                self.spec_by_key.setdefault(self.rule_keys[rid], []).append(
                    (cid, r0, r0.vars() <= r0.head.vars()))
        elif c.kind is ConstraintKind.GENERALISATION:
            cid = len(self.gen)
            self.gen.append(len(rids))
            for idx, rid in enumerate(rids):
                for sub in self._rule_hits(rid).sub_keys:
                    self.gen_by_key.setdefault(sub, []).append((cid, idx, self.rules[rid]))
        else:
            pid = self.count[ConstraintKind.POINTLESS_SUPER_RULE]
            self.pointless_by_key.setdefault(self.rule_keys[rids[0]], []).append((pid, c))
        self.count[c.kind] += 1
        return True

    def __len__(self) -> int:
        return sum(self.count.values())

    def counts(self) -> dict[str, int]:
        return {kind.value: n for kind, n in self.count.items()}

    # -- per-rule caches --------------------------------------------------
    # Bucket entries carry the insertion id of their constraint, so a
    # refresh tests only the constraints added since the rule's last scan.

    def _rule_hits(self, rid: int) -> _RuleHits:
        hits = self._hits[rid]
        if hits is None:
            hits = self._hits[rid] = _RuleHits(_sub_keys(self.rule_keys[rid]))
        return hits

    def spec_ids(self, rid: int) -> set[int]:
        hits = self._rule_hits(rid)
        n_spec = self.count[ConstraintKind.SPECIALISATION]
        if hits.spec_seen != n_spec:
            r = self.rules[rid]
            for key in hits.sub_keys:
                for cid, r0, exact in self.spec_by_key.get(key, ()):
                    # a multi-rule constraint files several rules under one cid
                    if (cid >= hits.spec_seen and cid not in hits.spec_ids
                            and (exact or renamed_subrule(r0, r))):
                        hits.spec_ids.add(cid)
            hits.spec_seen = n_spec
        return hits.spec_ids

    def gen_hits(self, rid: int) -> dict[int, set[int]]:
        hits = self._rule_hits(rid)
        if hits.gen_seen != len(self.gen):
            r = self.rules[rid]
            for cid, idx, r0 in self.gen_by_key.get(self.rule_keys[rid], ()):
                if cid >= hits.gen_seen and renamed_subrule(r, r0):
                    hits.gen_hits.setdefault(cid, set()).add(idx)
            hits.gen_seen = len(self.gen)
        return hits.gen_hits

    def pointless_match(self, rid: int) -> Optional[tuple[Constraint, Rule, Literal, Rule]]:
        hits = self._rule_hits(rid)
        if hits.pointless_match is not None:
            return hits.pointless_match
        n_pointless = self.count[ConstraintKind.POINTLESS_SUPER_RULE]
        if hits.pointless_seen != n_pointless:
            r = self.rules[rid]
            for key in hits.sub_keys:
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

    def violated_non_pointless(self, ids: tuple[int, ...]) -> bool:
        if self.count[ConstraintKind.SPECIALISATION]:
            common: Optional[set[int]] = None
            for rid in ids:
                found = self.spec_ids(rid)
                common = found if common is None else common & found
                if not common:
                    break
            if common:
                return True
        if self.gen:
            agg: dict[int, set[int]] = {}
            for rid in ids:
                for cid, idxs in self.gen_hits(rid).items():
                    agg.setdefault(cid, set()).update(idxs)
            for cid, idxs in agg.items():
                if len(idxs) == self.gen[cid]:
                    return True
        return False

    def first_pointless_violation(
        self, ids: tuple[int, ...]
    ) -> Optional[tuple[Constraint, Rule, Literal, Rule]]:
        # one target predicate: no rule of h is basic if one is flagged, else all are
        if not self.count[ConstraintKind.POINTLESS_SUPER_RULE] or \
                any(map(self.target_body.__getitem__, ids)):
            return None
        for rid in ids:
            m = self.pointless_match(rid)
            if m is not None:
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


# A choice is a literal the choice table allows next, as a tuple of
# integers: (abstract rank, concrete rank, rank bit, bitmask of its
# variables, variables used after it, whether it names a new variable,
# rank set of the literals it must not meet).
_Choice = tuple[int, int, int, int, int, bool, int]


class _ChoiceTable(NamedTuple):
    """The literals a bias allows in a body, numbered by concrete rank (their
    order under concrete_key), and the choices that may come next after
    each count of used variables.

    The literal of concrete rank r has the rank bit 1 << (n - 1 - r), n
    being the number of literals.  A body's rank set is the OR of its
    literals' rank bits, and of two bodies of one size the one with the
    larger rank set has the smaller sorted tuple of concrete ranks: the
    lowest rank in one body and not the other is in that body.

    A literal's code is an integer that names it: the index of its
    predicate plus the number of predicates times the digits of its
    arguments, read in a base above every digit.  A variable's digit is
    its index and a constant's is max_vars plus its number.  renames
    holds, for each literal, its code with every variable that is not a
    head variable read as 0, and the (multiplier, variable) of each such
    argument: renaming those variables adds multiplier times new name
    for each.

    A dead or equivalent literal (see background_bans) is in no row, and
    a choice carries the rank set of the literals it makes a banned pair
    with."""

    rows: list[list[_Choice]]  # per count of used variables, by abstract rank
    starts: list[list[int]]  # starts[u][a + 1]: the index of row u's first choice of abstract rank a or more
    lits: list[Literal]  # by concrete rank
    kids: list[int]  # by concrete rank: the store's id of the head-anchored key
    renames: list[tuple[int, tuple[tuple[int, int], ...]]]  # by concrete rank
    bit_of: dict[int, int]  # a literal's code -> its rank bit
    bans: list[Ban]


def _is_canonical(body: tuple[_Choice, ...], own: int, table: _ChoiceTable,
                  n_head: int) -> bool:
    """canonicalize's test on integers: whether no reordering of the tie
    groups (choices of equal abstract rank) that bind a variable renames
    the body, in first-occurrence order, to a larger rank set than own,
    the body's own.  A group binds when the count of used variables grows
    across it.  The groups before the first tied group that binds keep
    their order, and so their literals and the names of their variables;
    the identity ordering, which renames the body to itself, is skipped."""
    fixed, used, start = 0, n_head, -1
    factors = []  # the orderings of each group from the first tied one that binds
    for _, group in groupby(body, key=itemgetter(0)):
        g = tuple(group)
        after = g[-1][4]
        if start >= 0:
            factors.append(permutations(g) if after > used else (g,))
        elif after > used and len(g) > 1:
            start = used
            factors.append(permutations(g))
        else:
            for c in g:
                fixed |= c[2]
        used = after
    orderings = product(*factors)
    next(orderings)
    renames, bit_of = table.renames, table.bit_of
    for seq in orderings:
        names: dict[int, int] = {}  # the new names of the variables from start on
        bits = fixed
        for c in chain.from_iterable(seq):
            code, slots = renames[c[1]]
            if not slots:
                bits |= c[2]
                continue
            for mult, v in slots:
                if v < start:
                    code += mult * v
                else:
                    code += mult * names.setdefault(v, start + len(names))
            bits |= bit_of[code]
        if bits > own:
            return False
    return True


class HypothesisGenerator:
    """Streams canonical, bias-legal, constraint-satisfying hypotheses of a
    requested total size.  Constraints added between calls take effect for
    all subsequent candidates.  Each canonical hypothesis is offered at
    most once per run: a stratum holds each canonical rule once, a
    hypothesis's rule sizes pick one rule group and one selection from it,
    and each size has one stream.  Past the deadline (a time.perf_counter
    value) next_hypothesis raises DeadlineExceeded, and a later call for
    that size starts the size over.

    Stratum assembly registers each stratum's rules with the store, in
    stratum order, under integer keys built from the choice table, so a
    candidate is a tuple of rule ids in rule_sort_key order.  Every
    candidate meets the stored constraints in _passes: the specialisation
    and generalisation constraints first, then the pointless ones.  A
    frozenset of rules is built only for an emitted hypothesis or an audit
    record; audit only decides whether a pointless rejection is recorded,
    so an audited run takes the same path as a plain one.

    A generator given the background model (model, which no rule of the
    head predicate may feed) prunes what that model alone decides; one
    without enumerates the full space.

    Background-only bans: unless mode is OFF, the choice table leaves out
    every dead literal and dead pair that background_bans finds and, if
    mode.reducible, every implied pair and equivalent literal, so no rule
    holding one is assembled (bans counts them, time_bans the seconds
    finding them).  In any hypothesis H holding such a rule r, H without r
    (dead literal or pair: r covers nothing) or with r minus the implied
    literal l in place of r (r minus l is safe, connected and non-empty,
    since l's variables are in the literal that implies it, and it covers
    what r covers in every hypothesis, recursive ones included) covers the
    same examples with fewer literals; it is in the space, or it is the
    empty hypothesis, which is scored first.  An equivalent literal has a
    kept class-mate with its variables and solutions and the class's
    least head-anchored key (_literal_key).  Replacing each in r by its
    kept class-mate gives a rule of r's size that covers what r covers in
    every hypothesis, recursive ones included, since no rule of the head
    predicate feeds the model; and it holds a dead or implied pair
    exactly when r does, as pair verdicts depend on solutions alone (two
    class-mates make an implied pair).  A pair ban depends only on the
    literals' pattern and an equivalence ban on solutions and keys, and
    every renaming that fixes the head preserves both.  So the banned set
    is closed under those renamings, the replaced rule's canonical form
    is assembled, and canonical selection is unchanged.  Keeping one
    literal per class by concrete rank instead would break that closure
    (adjacent(C,D) and adjacent(D,C) rename into each other), so the
    class-mates tied at the least key all stay.  A specialisation or
    pointless constraint from a hypothesis holding r would ban only rules
    holding a renamed banned literal or pair, banned anyway.  Under audit
    the bans are kept in ban_records.

    A base rule is one with no body literal of the head predicate.  When
    the model holds no fact of the head predicate, a candidate with no
    base rule (every id flagged in the store's target_body) is skipped
    before the constraint checks; baseless counts the skipped candidates
    and considered does not.  Such a candidate h cannot be optimal, and
    nothing it would teach the search matters:
      - it derives nothing: in the first fixpoint round every rule of h
        needs a target fact and the background has none, so h covers
        exactly what the empty hypothesis covers, with more literals;
      - it is never returned: the empty hypothesis is scored first and is
        replaced only by a strictly better score;
      - it covers no negative, so it gets no generalisation constraint;
        its specialisation constraint bans only candidates in which every
        rule holds a renamed rule of h, and with it a target literal, so
        they are baseless too; and h is recursive, so it gets no
        pointless detection.
    Every other candidate is offered, tested and constrained as before.

    nodes_explored counts the bodies stratum assembly builds: every
    partial body it extends, the empty one included, and every complete
    body that is safe and connected, before the test against its
    renamings.  time_stratum is the seconds spent in assembly,
    time_check the seconds spent checking candidates against
    specialisation and generalisation constraints and
    time_pointless_match the seconds spent matching them against
    pointless constraints."""

    def __init__(self, bias: Bias, store: ConstraintStore, audit: bool = False,
                 deadline: Optional[float] = None, model: Optional[FactStore] = None,
                 mode: DetectMode = DetectMode.BOTH):
        self.bias = bias
        self.store = store
        self.audit = audit
        self.deadline = deadline
        self.model = model
        self.mode = mode
        self.nodes_explored = 0
        self.time_stratum = 0.0
        self.time_check = 0.0
        self.time_pointless_match = 0.0
        self.time_bans = 0.0
        self.emitted = 0
        self.considered = 0
        self.baseless = 0
        self.audit_records: list[AuditRecord] = []
        self._table: Optional[_ChoiceTable] = None
        self._strata: dict[int, list[Rule]] = {}
        self._stratum_ids: dict[int, list[int]] = {}
        self._streams: dict[int, Iterator[Hypothesis]] = {}

    @property
    def bans(self) -> int:
        return len(self._table.bans) if self._table is not None else 0

    @property
    def ban_records(self) -> list[Ban]:
        return self._table.bans if self.audit and self._table is not None else []

    # -- rule-level enumeration ------------------------------------------

    def _head(self) -> Literal:
        name, arity = self.bias.head
        return Literal(name, tuple(Var(var_name(i)) for i in range(arity)))

    def _choice_table(self) -> _ChoiceTable:
        """For each count of variables used so far, every literal the bias
        allows next, sorted by abstract rank.  Variables are numbered in
        first-occurrence order, so each argument is a used variable, the
        next unused one or an allowed constant.  Built once per generator.
        The literals' head-anchored keys are interned in sorted order: in a
        store that interned no other key first, a rule's sorted key ids
        then list its literal keys in sorted order, and its sub-keys, with
        them its first pointless match, follow that order.  With a model
        and a mode other than OFF, the background-only bans are found
        here, checking the deadline."""
        if self._table is not None:
            return self._table
        bias = self.bias
        preds = bias.generatable_preds()
        consts: dict[Const, int] = {}
        args_of: dict[Literal, tuple[int, ...]] = {}  # a variable by its index, a constant below zero
        rows: list[list[tuple[Literal, int, int]]] = []
        for used in range(bias.max_vars + 1):
            row: list[tuple[Literal, int, int]] = []
            for pred in preds:
                name, arity = pred

                def fill(i: int, terms: tuple, args: tuple, cur: int, mask: int):
                    if i == arity:
                        lit = Literal(name, terms)
                        args_of[lit] = args
                        row.append((lit, cur, mask))
                        return
                    for v in range(min(cur + 1, bias.max_vars)):
                        fill(i + 1, terms + (Var(var_name(v)),), args + (v,),
                             max(cur, v + 1), mask | 1 << v)
                    for const in bias.allowed_constants(pred, i):
                        code = -1 - consts.setdefault(const, len(consts))
                        fill(i + 1, terms + (const,), args + (code,), cur, mask)

                fill(0, (), (), used, 0)
            rows.append(row)
        lits = sorted(args_of, key=concrete_key)
        n = len(lits)
        crank = {l: i for i, l in enumerate(lits)}
        arank = {k: i for i, k in enumerate(sorted({abstract_key(l) for l in lits}))}
        head = self._head()
        lkey = {l: _literal_key(l, head) for l in lits}
        keys = sorted(set(lkey.values()))
        kid = dict(zip(keys, self.store.key_ids(keys)))
        n_head, base = bias.head[1], bias.max_vars + len(consts)
        pred_index = {pred: i for i, pred in enumerate(preds)}
        renames, bit_of = [], {}
        for r, lit in enumerate(lits):
            code, mult, slots = pred_index[lit.pred_key], len(preds), []
            for a in args_of[lit]:
                if a >= n_head:
                    slots.append((mult, a))
                else:
                    code += mult * (a if a >= 0 else bias.max_vars - 1 - a)
                mult *= base
            renames.append((code, tuple(slots)))
            bit_of[code + sum(m * a for m, a in slots)] = 1 << (n - 1 - r)
        conflict, bans = [0] * n, []
        if self.model is not None and self.mode is not DetectMode.OFF:
            t0 = time.perf_counter()
            conflict, bans = background_bans(lits, [lkey[l] for l in lits], self.model,
                                             bias.head, self.mode.reducible, self.deadline)
            self.time_bans += time.perf_counter() - t0
        table_rows = [sorted(((arank[abstract_key(lit)], crank[lit], 1 << (n - 1 - crank[lit]),
                               mask, cur, cur > used, conflict[crank[lit]])
                              for lit, cur, mask in row if conflict[crank[lit]] != -1),
                             key=itemgetter(0))
                      for used, row in enumerate(rows)]
        starts = [[bisect_left(row, (a,)) for a in range(-1, len(arank))] for row in table_rows]
        self._table = _ChoiceTable(table_rows, starts, lits, [kid[lkey[l]] for l in lits],
                                   renames, bit_of, bans)
        return self._table

    def _assemble(self, rule_size: int) -> list[tuple[Rule, tuple[int, ...]]]:
        """The canonical, safe, connected rules of the given size, sorted by
        rule_sort_key, each with its integer key in the store.

        A body is built choice by choice from the choice table, with
        nondecreasing abstract ranks and variables named in first-occurrence
        order: the order in which canonicalize names them.  The search runs
        on the table's integers alone: body variables, components and
        concrete ranks (the rank set) are bitmasks, and no Literal is
        touched until a kept body becomes a Rule.  The last slot takes only
        the choices that cover the head variables still missing and join
        every component into one, filtered from the row once per count of
        used variables, missing head variables and components.  A body is
        its own canonical form, and the only body of its rule, when no tie
        group (literals of equal abstract rank) names a new variable and
        each run of tied literals that name none is in concrete order; only
        the remaining bodies are tested against their renamings
        (_is_canonical), and kept once.  A choice whose banned rank set
        meets the body's is skipped, so no body holding a banned pair is
        built; its renamings are banned alike.  Within a stratum a larger
        rank set orders rules as a smaller sorted tuple of concrete ranks,
        which is how rule_sort_key orders them."""
        bias = self.bias
        body_size = rule_size - 1
        if body_size < 1 or body_size > bias.max_body:
            return []
        head = self._head()
        n_head = bias.head[1]
        table = self._choice_table()
        rows, starts, lits, kids = table.rows, table.starts, table.lits, table.kids
        (head_id,) = self.store.key_ids((abstract_key(head),))
        head_mask = (1 << n_head) - 1
        deadline = self.deadline
        out: dict[int, tuple[Rule, tuple[int, ...]]] = {}
        # the choices that can end a body: (used, missing head variables,
        # components) -> the row's choices that cover and join them all
        closing: dict[tuple[int, ...], list[_Choice]] = {}

        def extend(body: tuple[_Choice, ...], used: int, bound: int, comps: list[int],
                   bits: int, group_binds: bool, tied: bool):
            # bound: bitmask of the body's variables; comps: bitmasks of the
            # components of the head and body; bits: the body's rank set;
            # group_binds: the last tie group names a new variable; tied:
            # some tie group did
            check_deadline(deadline)
            self.nodes_explored += 1
            if body:
                arank0, crank0, _, _, _, binds0, _ = body[-1]
            else:
                arank0, crank0, binds0 = -1, -1, False
            if len(body) + 1 < body_size:
                for c in rows[used][starts[used][arank0 + 1]:]:
                    arank, crank, rbit, mask, cur, binds, banned = c
                    if bits & banned:
                        continue
                    ambiguous = tied
                    if arank == arank0:
                        if not binds and (bits & rbit or not binds0 and crank < crank0):
                            continue
                        binds = binds or group_binds
                        ambiguous = tied or binds
                    joined = comps
                    if mask:
                        merged, joined = mask, []
                        for k in comps:
                            if k & mask:
                                merged |= k
                            else:
                                joined.append(k)
                        joined.append(merged)
                    extend(body + (c,), cur, bound | mask, joined, bits | rbit, binds, ambiguous)
                return
            # the last literal makes the rule safe and connected
            missing = head_mask & ~bound
            key = (used, missing, *comps)
            fits = closing.get(key)
            if fits is None:
                fits = closing[key] = [
                    c for c in rows[used] if not missing & ~c[3]
                    and (all(map(c[3].__and__, comps)) if c[3] else len(comps) <= 1)]
            for c in fits[bisect_left(fits, (arank0,)):]:
                arank, crank, rbit, _, _, binds, banned = c
                if bits & banned:
                    continue
                ambiguous = tied
                if arank == arank0:
                    if not binds and (bits & rbit or not binds0 and crank < crank0):
                        continue
                    ambiguous = tied or binds or group_binds
                check_deadline(deadline)
                self.nodes_explored += 1
                own = bits | rbit
                full = body + (c,)
                if ambiguous and (own in out or not _is_canonical(full, own, table, n_head)):
                    continue
                out[own] = (Rule(head, frozenset([lits[b[1]] for b in full])),
                            (head_id, *sorted([kids[b[1]] for b in full])))

        extend((), n_head, 0, [head_mask] if head_mask else [], 0, False, False)
        return [out[k] for k in sorted(out, reverse=True)]

    def rule_stratum(self, rule_size: int) -> list[Rule]:
        """The stratum of rules of the given size, assembled and registered
        with the store on the first call."""
        # a stratum whose assembly ran past the deadline is never cached
        if rule_size not in self._strata:
            t0 = time.perf_counter()
            try:
                assembled = self._assemble(rule_size)
                self._stratum_ids[rule_size] = [self.store.register(rule, key)
                                                for rule, key in assembled]
                self._strata[rule_size] = [rule for rule, _ in assembled]
            finally:
                self.time_stratum += time.perf_counter() - t0
        return self._strata[rule_size]

    # -- hypothesis-level enumeration ------------------------------------

    def _candidates(self, size: int) -> Iterator[tuple[int, ...]]:
        """The rule-id tuples of the given total size.  Groups ascend by rule
        size and a stratum's ids are in stratum order, so each tuple lists
        its rules in rule_sort_key order."""
        for groups in rule_groups(size, self.bias.max_rules):

            def pick(gi: int, chosen: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
                if gi == len(groups):
                    yield chosen
                    return
                part, count = groups[gi]
                self.rule_stratum(part)
                for sel in combinations(self._stratum_ids[part], count):
                    yield from pick(gi + 1, chosen + sel)

            yield from pick(0, ())

    def _hypothesis(self, ids: tuple[int, ...]) -> Hypothesis:
        return frozenset(self.store.rules[rid] for rid in ids)

    def _passes(self, ids: tuple[int, ...]) -> bool:
        """Whether the candidate survives every stored constraint; under
        audit, a rejection by a pointless constraint alone is recorded."""
        t0 = time.perf_counter()
        violated = self.store.violated_non_pointless(ids)
        t1 = time.perf_counter()
        self.time_check += t1 - t0
        if violated:
            return False
        pv = self.store.first_pointless_violation(ids)
        self.time_pointless_match += time.perf_counter() - t1
        if pv is None:
            return True
        if self.audit:
            self.audit_records.append(AuditRecord(self._hypothesis(ids), *pv))
        return False

    def _stream(self, size: int) -> Iterator[Hypothesis]:
        skip = (self.bias.recursion and self.model is not None
                and not self.model.tuples(self.bias.head))
        target_body = self.store.target_body
        for ids in self._candidates(size):
            check_deadline(self.deadline)
            if skip and all(map(target_body.__getitem__, ids)):
                self.baseless += 1
                continue
            self.considered += 1
            if self._passes(ids):
                self.emitted += 1
                yield self._hypothesis(ids)

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
