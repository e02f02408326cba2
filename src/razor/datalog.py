"""Bottom-up evaluation of function-free definite programs and the
entailment queries used for coverage testing and redundancy detection.

Every join runs on one primitive, ``_Step``: one literal joined set at a
time against a whole batch of rows, each holding the values of the
variables bound so far.  Each query compiles its literals into steps
before its first join, in a static greedy order (``_chain``) unless
stated:

- ``least_model`` runs semi-naive fixpoint rounds on pipelines, one per
  rule body and body position a delta can feed, whose final rows are
  projected onto the head.
- ``covers_rule`` runs on a ``CoveragePack``: rows of an example index
  and variable values are extended one body literal at a time, in
  concrete-key order except that a literal waits until the head or an
  earlier literal binds one of its variables, and the rows of each body
  prefix are kept for the next rule that shares it.  Over a stratum a
  rule costs about one extension, its last literal.
- ``implies``, the existential query of redundancy detection, is
  compiled once per body, tested literal and set of seeded variables,
  and the seed's values are its first row.  Each body component apart
  from the literal is an existential chain checked once, the others one
  chain kept to the literal's variables, and the literal one last step
  over their distinct bindings: a membership test, or a step appending
  its lone variables, never one check per domain value.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence, Union

from .deadline import check_deadline
from .logic import (
    Const,
    Literal,
    Rule,
    Substitution,
    concrete_key,
    unsafe_head_vars,
)

PredKey = tuple[str, int]

Fact = tuple[str, ...]


class UnsafeRuleError(ValueError):
    """A rule whose head variables do not all occur in its body."""

    def __init__(self, rule: Rule, variables: Sequence[str]):
        self.rule = rule
        self.variables = tuple(variables)
        names = ", ".join(variables)
        super().__init__(f"unsafe rule {rule!r}: head variable(s) {names} missing from the body")


class FactStore:
    """A materialized set of ground atoms with per-predicate and lazily
    built per-argument-position indexes.  Read-only once built; safe to
    query concurrently.

    An extension (``extension``; ``least_model(program, base=store)``
    builds one for the program's head predicates) shares the base's
    buckets and indexes for every predicate except the ones it may grow,
    which it copies; the base is never modified."""

    def __init__(self, atoms: Iterable[Literal] = ()):
        self._facts: dict[PredKey, set[Fact]] = {}
        self._pos_index: dict[tuple[PredKey, int], dict[str, list[Fact]]] = {}
        self._base: Optional[FactStore] = None
        self._owned: frozenset[PredKey] = frozenset()
        for atom in atoms:
            self.add(atom)

    def extension(self, keys: Iterable[PredKey]) -> FactStore:
        """A store holding this one's atoms that may grow the given
        predicates without touching this store."""
        out = FactStore()
        out._base = self
        out._owned = frozenset(keys)
        out._facts = dict(self._facts)
        for key in out._owned:
            out._facts[key] = set(self._facts.get(key, ()))
        for (key, pos), idx in self._pos_index.items():
            if key in out._owned:
                out._pos_index[(key, pos)] = {v: list(b) for v, b in idx.items()}
        return out

    def add(self, atom: Literal) -> bool:
        if not atom.is_ground():
            raise ValueError(f"cannot store non-ground atom {atom!r}")
        args = tuple(t.name for t in atom.args)
        return self.add_tuple(atom.pred_key, args)

    def _own_bucket(self, key: PredKey) -> set[Fact]:
        if self._base is not None and key not in self._owned:
            raise ValueError(f"predicate {key[0]}/{key[1]} is shared with the base store")
        return self._facts.setdefault(key, set())

    def add_tuple(self, key: PredKey, args: Fact) -> bool:
        bucket = self._own_bucket(key)
        if args in bucket:
            return False
        bucket.add(args)
        for pos in range(len(args)):
            idx = self._pos_index.get((key, pos))
            if idx is not None:
                idx.setdefault(args[pos], []).append(args)
        return True

    def update(self, key: PredKey, facts: set[Fact]) -> set[Fact]:
        """Add the facts to the predicate's bucket and to every index built
        over it; return the ones that were new."""
        bucket = self._own_bucket(key)
        fresh = facts - bucket
        bucket |= fresh
        for pos in range(key[1]):
            idx = self._pos_index.get((key, pos))
            if idx is not None:
                for args in fresh:
                    idx.setdefault(args[pos], []).append(args)
        return fresh

    def contains(self, atom: Literal) -> bool:
        return tuple([t.name for t in atom.args]) in self._facts.get(atom.pred_key, ())

    def tuples(self, key: PredKey) -> set[Fact]:
        return self._facts.get(key, set())

    def _index(self, key: PredKey, pos: int) -> dict[str, list[Fact]]:
        idx = self._pos_index.get((key, pos))
        if idx is None:
            if self._base is not None and key not in self._owned:
                return self._base._index(key, pos)
            idx = {}
            for args in self._facts.get(key, ()):
                idx.setdefault(args[pos], []).append(args)
            self._pos_index[(key, pos)] = idx
        return idx

    def atoms(self) -> Iterator[Literal]:
        for key in sorted(self._facts):
            for args in sorted(self._facts[key]):
                yield Literal(key[0], tuple(Const(a) for a in args))

    def __len__(self) -> int:
        return sum(len(b) for b in self._facts.values())


# ---------------------------------------------------------------------------
# the join engine
# ---------------------------------------------------------------------------

# a compiled argument: a slot number for a variable, the name for a constant
Arg = Union[int, str]
CompiledLiteral = tuple[PredKey, tuple[Arg, ...]]


class _Plan:
    """A conjunction compiled for joins: body literals in a fixed order
    with their arguments resolved to slots or constant names, plus an
    optional extra literal (a rule head, or the literal an implication
    tests) sharing the slots."""

    __slots__ = ("slot", "body", "head", "pipelines", "queries")

    def __init__(self, body: Iterable[Literal], head: Optional[Literal]):
        self.slot: dict[str, int] = {}
        self.body = tuple(_compile(lit, self.slot) for lit in sorted(body, key=concrete_key))
        self.head = _compile(head, self.slot) if head is not None else None
        # compiled on first use: fixpoint pipelines (key None joins the
        # whole body, key i starts from delta facts of body literal i) and
        # implication queries, keyed by their seeded slots
        self.pipelines: dict[Optional[int], _Pipeline] = {}
        self.queries: dict[tuple[int, ...], _Query] = {}

    def pipeline(self, first: Optional[int] = None) -> _Pipeline:
        pipe = self.pipelines.get(first)
        if pipe is None:
            pipe = self.pipelines[first] = _Pipeline(self.body, self.head, first)  # type: ignore[arg-type]
        return pipe

    def query(self, seeded: tuple[int, ...]) -> _Query:
        query = self.queries.get(seeded)
        if query is None:
            query = self.queries[seeded] = _Query(self, seeded)
        return query


def _compile(lit: Literal, slots: dict[str, int]) -> CompiledLiteral:
    """The literal with its arguments resolved to constant names and to
    slots, giving each new variable the next slot."""
    return (lit.pred_key, tuple(
        t.name if isinstance(t, Const) else slots.setdefault(t.name, len(slots))
        for t in lit.args))


@lru_cache(maxsize=32)
def _plan(body: frozenset[Literal], head: Optional[Literal] = None) -> _Plan:
    return _Plan(body, head)


def _check_safe(rules: Iterable[Rule]) -> None:
    for rule in rules:
        missing = unsafe_head_vars(rule)
        if missing:
            raise UnsafeRuleError(rule, missing)


# a row: the values of the bound variables in binding order
Row = tuple
_nothing = itemgetter(slice(0, 0))  # the projector of no item


def _projector(items: Sequence[Arg]) -> Callable[[tuple], tuple]:
    """The function building a tuple from a row or a fact: an int item is
    a position in it, a str item a constant."""
    if not items:
        return _nothing
    if any(a.__class__ is str for a in items):
        return lambda row: tuple([a if a.__class__ is str else row[a] for a in items])
    if len(items) > 1:
        return itemgetter(*items)
    (q,) = items
    return itemgetter(slice(q, q + 1))


class _Step:
    """One literal joined against a whole batch of rows, the join primitive
    of every query.  The literal's arguments split into the one index
    lookup, the remaining equality checks and the appended positions:

    - ``pos`` and ``src``: the lookup, the argument at fact position pos
      against ``src``, a row position (int) or a constant (str); pos is -1
      when the step scans the predicate (no bound argument) or given facts
      (the delta of a delta pipeline's first step, or a pack's examples);
    - ``check_at`` and ``check_of``: the other bound arguments, as the
      facts' values at those positions and the values a row demands there
      (constants when the lookup is not a row's);
    - ``rep_at`` and ``rep_of``: a variable repeated among the new ones
      makes equal the facts' values at these two lists of positions (None
      when none repeats);
    - ``appends``: the fact positions of the new variables, in binding
      order, appended to each row; empty when nothing later reads them,
      and the step then keeps each row that some fact matches, once.

    A literal with no new variable is a membership test: ``member`` builds
    its fact from a row.  A scan that checks nothing and appends every
    argument in order (``whole``) takes the scanned facts as its rows."""

    __slots__ = ("key", "pos", "src", "filtered", "check_at", "check_of",
                 "rep_at", "rep_of", "appends", "get", "member", "whole")

    def __init__(self, lit: CompiledLiteral, at: dict[int, int], live: set[Arg], scan: bool):
        key, args = lit
        self.key = key
        self.pos = -1
        self.src = self.member = self.rep_at = self.rep_of = None
        self.check_at = self.check_of = self.get = _nothing
        self.appends: tuple[int, ...] = ()
        self.filtered = self.whole = False
        # the bound arguments' fact positions and what a row demands there
        check_at: list[int] = []
        check_of: list[Arg] = []
        repeats: list[tuple[int, int]] = []
        first: dict[int, int] = {}  # new slot -> its first fact position
        bound = -1  # the first check on a row position
        for j, a in enumerate(args):
            if a.__class__ is str:
                check_at.append(j)
                check_of.append(a)
            elif a in at:
                if bound < 0:
                    bound = len(check_at)
                check_at.append(j)
                check_of.append(at[a])  # type: ignore[index]
            elif a in first:
                repeats.append((first[a], j))  # type: ignore[index]
            else:
                first[a] = j  # type: ignore[index]
        if not first:
            self.member = _projector(check_of)
            return
        if check_at and not scan:
            # a row position is the selective lookup; a constant picks one
            # bucket for the whole batch
            k = max(bound, 0)
            self.pos, self.src = check_at.pop(k), check_of.pop(k)
        self.filtered = bool(check_at or repeats)
        if check_at:
            self.check_at, self.check_of = _projector(check_at), _projector(check_of)
        if repeats:
            self.rep_at = itemgetter(*[j for j, _ in repeats])
            self.rep_of = itemgetter(*[k for _, k in repeats])
        if live & first.keys():
            self.appends = tuple(first.values())
            self.get = _projector(self.appends)
            for s in first:
                at[s] = len(at)
        # counted on the literal's arguments: a pack's head step joins
        # (index, *args) facts under the head's predicate key
        self.whole = not self.filtered and self.appends == tuple(range(len(args)))

    def _matches(self, facts: Collection[Fact], want: tuple) -> Collection[Fact]:
        if not self.filtered:
            return facts
        check_at, rep_at, rep_of = self.check_at, self.rep_at, self.rep_of
        if rep_at is None:
            return [f for f in facts if check_at(f) == want]
        return [f for f in facts if (not want or check_at(f) == want) and rep_at(f) == rep_of(f)]

    def run(self, store: FactStore, rows: list[Row],
            facts: Optional[Collection[Fact]] = None) -> list[Row]:
        """The rows extended by the matching facts of the store, or of the
        given facts for a scanning step."""
        if self.member is not None:
            have = store.tuples(self.key) if facts is None else facts
            member = self.member
            return [row for row in rows if member(row) in have]
        src, get = self.src, self.get
        if src.__class__ is not int:
            # one candidate list for every row, a constant's bucket or a
            # scan; no variable is bound, so every check is on a constant
            if facts is None:
                facts = store.tuples(self.key) if src is None else \
                    store._index(self.key, self.pos).get(src, ())  # type: ignore[arg-type]
            if self.whole and rows == [()]:
                return list(facts)
            cands = self._matches(facts, self.check_of(()))
            if not self.appends:
                return rows if cands else []
            values = [get(f) for f in cands]
            return [row + v for row in rows for v in values]
        idx = store._index(self.key, self.pos)
        if not self.filtered and len(self.appends) == 1:
            (j,) = self.appends
            return [row + (f[j],) for row in rows for f in idx.get(row[src], ())]
        out = []
        for row in rows:
            bucket = idx.get(row[src])
            if bucket:
                cands = self._matches(bucket, self.check_of(row))
                if not self.appends:
                    if cands:
                        out.append(row)
                else:
                    out.extend([row + get(f) for f in cands])
        return out


def _chain(body: Sequence[CompiledLiteral], at: dict[int, int], needed: set[Arg],
           first: Optional[int] = None) -> tuple[_Step, ...]:
    """The body literals compiled into steps in a static join order: the
    first one, when given, as a step scanning given facts, then greedily
    the literal with the most bound arguments (a literal with none free
    first; ties keep the body's order).  Rows start with the slots of at
    (slot -> row position), which grows as steps append new variables: a
    step does so when a later step, or the caller (needed), reads one."""
    order = [] if first is None else [first]
    rest = [i for i in range(len(body)) if i != first]
    if len(rest) > 1:
        bound: set[Arg] = {*at, *(body[first][1] if order else ())}  # type: ignore[index]

        def rank(i: int) -> tuple[bool, int]:
            free = sum(1 for a in body[i][1] if a.__class__ is int and a not in bound)
            return (free > 0, free - len(body[i][1]))

        while len(rest) > 1:
            i = min(rest, key=rank)
            rest.remove(i)
            order.append(i)
            bound.update(body[i][1])
    order += rest
    # the slots each step must bind for the later steps and the caller
    # (a constant among them matches no slot)
    live = [needed]
    for i in reversed(order[1:]):
        live.append(live[-1].union(body[i][1]))  # type: ignore[arg-type]
    steps = []
    for i, after in zip(order, reversed(live)):
        steps.append(_Step(body[i], at, after, scan=not steps and first is not None))
    return tuple(steps)


def _run(steps: Sequence[_Step], store: FactStore, rows: list[Row],
         facts: Optional[Collection[Fact]] = None) -> list[Row]:
    """The rows joined through the steps (a scanning first step scans the
    given facts), stopping at the first empty batch."""
    for step in steps:
        rows = step.run(store, rows, facts)
        if not rows:
            break
        facts = None
    return rows


class _Pipeline:
    """A rule body compiled for fixpoint rounds: its literals as a chain of
    steps (``_chain``), the first one fixed when the pipeline starts from
    a delta, and the head as a projection of the final rows.

    When the last step is an unfiltered index lookup appending one value,
    ``last`` takes its place after ``steps``: one comprehension builds
    each head fact from a row and a matched fact, with no row of the final
    batch built."""

    __slots__ = ("steps", "head", "last")

    def __init__(self, body: Sequence[CompiledLiteral], head: CompiledLiteral,
                 first: Optional[int]):
        at: dict[int, int] = {}
        self.steps = _chain(body, at, set(head[1]), first)  # type: ignore[arg-type]
        items = [a if a.__class__ is str else at[a] for a in head[1]]
        self.head = _projector(items)
        self.last: Optional[_LastStep] = None
        if self.steps:
            step = self.steps[-1]
            if step.src.__class__ is int and not step.filtered and len(step.appends) == 1:
                self.steps = self.steps[:-1]
                self.last = _fused(step, items, len(at) - 1)

    def run(self, store: FactStore, delta: Optional[Collection[Fact]] = None) -> Iterable[Fact]:
        """The head facts the body derives, starting from the given delta
        facts of the first literal when the pipeline has one."""
        rows = _run(self.steps, store, [()], delta)
        if not rows:
            return ()
        if self.last is not None:
            return self.last(store, rows)
        return map(self.head, rows)


_LastStep = Callable[[FactStore, list[Row]], list[Fact]]


def _fused(step: _Step, items: list[Arg], value: int) -> _LastStep:
    """A last step joined to the head projection.  The head's items are
    constants and row positions, value being the position of the value the
    step appends; a binary head of one row value and the appended value
    is built directly, any other head by its projector."""
    key, pos, src = step.key, step.pos, step.src
    (j,) = step.appends
    if len(items) == 2 and items.count(value) == 1 and all(a.__class__ is int for a in items):
        q = items[1] if items[0] == value else items[0]
        if items[1] == value:
            def last(store: FactStore, rows: list[Row]) -> list[Fact]:
                get = store._index(key, pos).get
                return [(row[q], f[j]) for row in rows for f in get(row[src], ())]
        else:
            def last(store: FactStore, rows: list[Row]) -> list[Fact]:
                get = store._index(key, pos).get
                return [(f[j], row[q]) for row in rows for f in get(row[src], ())]
        return last
    head = _projector(items)

    def projected(store: FactStore, rows: list[Row]) -> list[Fact]:
        get = store._index(key, pos).get
        return [head(row + (f[j],)) for row in rows for f in get(row[src], ())]
    return projected


def _round(store: FactStore, plans: Sequence[_Plan],
           delta: Optional[dict[PredKey, set[Fact]]]) -> dict[PredKey, set[Fact]]:
    """One bottom-up round: the head facts the rules derive, joining every
    body against the whole store (delta None) or, semi-naively, one body
    literal against the delta facts and the others against the store.
    The store is only grown after the round.  A whole-body join with a
    literal whose predicate has no facts yet is skipped: it derives
    nothing, and its lookups would build indexes that every later round
    maintains."""
    new: dict[PredKey, set[Fact]] = {}
    for plan in plans:
        derived = new.setdefault(plan.head[0], set())  # type: ignore[index]
        if delta is None:
            if all(store.tuples(key) for key, _ in plan.body):
                derived.update(plan.pipeline().run(store))
            continue
        for i, (key, _) in enumerate(plan.body):
            fresh = delta.get(key)
            if fresh:
                derived.update(plan.pipeline(i).run(store, fresh))
    return new


def least_model(program: Iterable[Rule], base: Optional[FactStore] = None,
                deadline: Optional[float] = None) -> FactStore:
    """Least Herbrand model of a safe, function-free definite program,
    computed by semi-naive bottom-up iteration, one set-at-a-time round
    after another.  Past the deadline (a time.perf_counter value), checked
    between rounds, it raises DeadlineExceeded.

    With ``base``, the model of the program together with the base's atoms
    as facts, built as an extension of the base: only the buckets of the
    program's head predicates are copied, everything else is shared, and
    the base is left unchanged.  This is how a hypothesis is tested against
    a cached background model; it equals the model of background and
    hypothesis together when no background rule body mentions a head
    predicate of the program, which task parsing enforces for the target.
    """
    rules = list(program)
    _check_safe(rules)
    if base is None:
        store = FactStore()
    else:
        store = base.extension({rule.head.pred_key for rule in rules})
    plans: list[_Plan] = []
    for rule in rules:
        if rule.body:
            plans.append(_plan(rule.body, rule.head))
        else:
            store.add_tuple(rule.head.pred_key, tuple(t.name for t in rule.head.args))

    derived = _round(store, plans, None)
    while True:
        delta = {}
        for key, facts in derived.items():
            fresh = store.update(key, facts)
            if fresh:
                delta[key] = fresh
        if not delta:
            return store
        check_deadline(deadline)
        derived = _round(store, plans, delta)


def head_binding(rule: Rule, example: Literal) -> Optional[Substitution]:
    """Substitution binding the head variables so the head equals the
    example, or None when the head cannot match: the example is of another
    predicate, or a head constant or repeated head variable disagrees with
    it."""
    if rule.head.pred_key != example.pred_key:
        return None
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


# ---------------------------------------------------------------------------
# coverage packs
# ---------------------------------------------------------------------------

# the slot of a pack row's example index; no variable has an empty name
_EXAMPLE = ""


class CoveragePack:
    """Coverage of the rules of one head predicate against a fixed list of
    examples and a fixed store, sharing body-prefix joins between the
    rules it is asked about.

    A rule's body is ordered once, before the first join (``_join_order``).
    A literal that nothing binds (such as c(C) beside b(A,B)) is never
    joined: it only needs a solution of its own, checked once when the
    rule is answered.

    A row is an example index followed by the values of the variables bound
    so far: the head's, then each joined literal's new ones, in order of
    first occurrence.  The pack keeps the rows that match the last rule's
    head and the state after each proper prefix of its ordered body, set at
    a time.  A rule with the same head starts from the deepest prefix it
    shares with that rule, so a stratum, whose rules arrive in
    concrete-rank order and share their prefixes with their neighbours,
    costs about one extension per rule: its last literal, joined only to
    learn which rows some fact matches.  A state's rows grow with the
    fan-out of its literals: the pack pays off when each example has few
    bindings per prefix.

    Head constants, repeated head variables and head variables missing
    from the body are settled by the head match, one scan of the examples
    as (index, *args) facts, and repeated body variables by the
    extension's checks.  Past the deadline (a time.perf_counter value),
    checked between prefix extensions, a query raises DeadlineExceeded
    and leaves the kept states consistent."""

    def __init__(self, store: FactStore, examples: Sequence[Literal],
                 deadline: Optional[float] = None):
        self.store = store
        self.examples = examples
        self.deadline = deadline
        self.extensions = 0  # body literals joined to a batch of rows
        self.args = [tuple([t.name for t in e.args]) for e in examples]  # as fact tuples
        self._head: Optional[Literal] = None
        self._lits: list[Literal] = []  # the ordered body prefix the states cover
        # _states[k]: slots and rows after the head and the first k literals
        self._states: list[tuple[dict[str, int], list[Row]]] = []

    def mask(self, rule: Rule) -> int:
        """The bitmask of the examples (bit i for examples[i]) that the rule
        entails against the store."""
        if rule.head != self._head:
            self._match_head(rule.head)
        order, unreached = _join_order(rule)
        last = len(order) - 1
        k = 0
        while k < min(last, len(self._lits)) and self._lits[k] == order[k]:
            k += 1
        del self._lits[k:], self._states[k + 1:]
        while k < last:
            self._states.append(self._extend(self._states[k], order[k], keep=True))
            self._lits.append(order[k])
            k += 1
            check_deadline(self.deadline)
        state = self._states[k]
        if order:
            state = self._extend(state, order[k], keep=False)
        _, rows = state
        if rows and unreached:
            comps = _components(_plan(frozenset(unreached)).body, ())
            if not all(_run(_chain(lits, {}, set()), self.store, [()]) for _, lits in comps):
                return 0
        mask = 0
        for i in {row[0] for row in rows}:
            mask |= 1 << i
        return mask

    def _match_head(self, head: Literal) -> None:
        key = head.pred_key
        for e in self.examples:
            if e.pred_key != key:
                raise ValueError(f"example {e!r} does not match head {head!r}")
        slots = {_EXAMPLE: 0}
        _, args = _compile(head, slots)
        step = _Step((key, (0, *args)), {}, set(slots.values()), scan=True)
        self._head = head
        self._lits = []
        facts = [(i, *e) for i, e in enumerate(self.args)]
        self._states = [(slots, step.run(self.store, [()], facts))]

    def _extend(self, state: tuple[dict[str, int], list[Row]], lit: Literal,
                keep: bool) -> tuple[dict[str, int], list[Row]]:
        """The state joined to the literal, compiled into a copy of its
        slots: each row extended by each matching fact's values of the new
        variables when keep is set, otherwise each row some fact matches,
        once."""
        self.extensions += 1
        slots, rows = state
        slots = dict(slots)
        bound = len(slots)
        compiled = _compile(lit, slots)
        if rows:
            live = set(range(bound, len(slots))) if keep else set()
            step = _Step(compiled, {s: s for s in range(bound)}, live, scan=False)
            rows = step.run(self.store, rows)
        return slots, rows


def _join_order(rule: Rule) -> tuple[list[Literal], list[Literal]]:
    """The rule's body in a pack's join order, and the literals left out:
    each time the first literal in concrete-key order that is ground or
    shares a variable with the head or an earlier literal, until none
    does."""
    bound = set(rule.head.vars())
    order: list[Literal] = []
    waiting = [(lit, lit.vars()) for lit in rule.body_sorted()]
    k = 0
    while k < len(waiting):
        lit, names = waiting[k]
        if names and bound.isdisjoint(names):
            k += 1
            continue
        order.append(lit)
        bound |= names
        del waiting[k]
        k = 0
    return order, [lit for lit, _ in waiting]


def covers_rule(store: FactStore, rule: Rule, examples: Sequence[Literal],
                pack: Optional[CoveragePack] = None) -> int:
    """The bitmask of the ground examples (bit i for examples[i]) that the
    single rule, evaluated against the given model of the background
    knowledge, entails.  The query runs on the given pack, which must have
    been built for this store and these examples, or on a fresh one."""
    if pack is None:
        pack = CoveragePack(store, examples)
    elif pack.store is not store or pack.examples is not examples:
        raise ValueError("the coverage pack was built for another store or example list")
    return pack.mask(rule)


# ---------------------------------------------------------------------------
# implication queries
# ---------------------------------------------------------------------------

def _components(lits: Sequence[CompiledLiteral],
                bound: Collection[int]) -> list[tuple[set[int], list[CompiledLiteral]]]:
    """The literals split into the components that chains of slots outside
    bound join, each with those slots and its literals in the given
    order; a literal with no such slot is a component of its own."""
    comps: list[tuple[set[int], list[int]]] = []
    for i, (_, args) in enumerate(lits):
        slots = {a for a in args if a.__class__ is int and a not in bound}
        members = [i]
        for comp in [c for c in comps if c[0] & slots]:
            comps.remove(comp)
            slots |= comp[0]
            members += comp[1]
        comps.append((slots, members))
    return [(slots, [lits[i] for i in sorted(members)]) for slots, members in comps]


class _Query:
    """``implies`` compiled for one plan, whose head is the tested literal,
    and one tuple of seeded slots, whose values form the first row:

    - ``apart``: an existential chain per body component (``_components``)
      sharing no unbound slot with the literal, checked once;
    - ``steps``: the other components, one chain keeping the literal's
      unbound slots that occur in the body, its shared slots;
    - ``key``: a final row's projection onto the seeded and shared values,
      a binding (None when the rows are that);
    - ``last``: the literal, one step over the distinct bindings: a
      membership test, or a step appending the values of its ``lone``
      unbound slots, the ones in no body literal."""

    __slots__ = ("apart", "steps", "key", "last", "lone")

    def __init__(self, plan: _Plan, seeded: tuple[int, ...]):
        at = dict(zip(seeded, range(len(seeded))))
        free = {a for a in plan.head[1] if a.__class__ is int and a not in at}  # type: ignore
        relevant: list[CompiledLiteral] = []
        self.apart = []
        for slots, lits in _components(plan.body, at):
            if slots & free:
                relevant += lits
            else:
                self.apart.append(_chain(lits, dict(at), set()))
        shared = free.intersection([a for _, args in relevant for a in args])
        self.steps = _chain(relevant, at, shared)
        kept = [*seeded, *sorted(shared, key=at.__getitem__)]
        # in row order: the final rows are the bindings if they hold no more
        self.key = None
        if len(kept) < len(at):
            self.key = _projector([at[s] for s in kept])
            at = dict(zip(kept, range(len(kept))))
        lone = free - shared
        self.lone = len(lone)
        self.last = _Step(plan.head, at, lone, False)  # type: ignore[arg-type]

    def holds(self, store: FactStore, row: Row, domain: Sequence[Const]) -> bool:
        """Whether under the seed values row every binding with its shared
        values in the domain grounds the literal to facts for every value
        of its lone variables in the domain: |domain|^k distinct in-domain
        values appended for k of them, or a fact for none."""
        for chain in self.apart:
            if not _run(chain, store, [row]):
                return True  # an unsatisfiable body implies anything
        # the bindings, distinct: a step's rows are (row, fact) extensions
        rows = _run(self.steps, store, [row])
        if self.key is not None:
            rows = list(set(map(self.key, rows)))
        if not rows:
            return True
        width = len(rows[0])  # the seed values, then the shared ones
        if width > len(row) or self.lone:
            names = {c.name for c in domain}
            if width > len(row):
                rows = [k for k in rows if names.issuperset(k[len(row):])]
        out = self.last.run(store, rows)
        if not self.lone:
            return len(out) == len(rows)
        # a binding has at most |domain|^k distinct in-domain groundings
        need = len(names) ** self.lone * len(rows)
        return len(out) >= need and len([r for r in out if names.issuperset(r[width:])]) == need


def implies(
    store: FactStore,
    body: Iterable[Literal],
    lit: Literal,
    domain: Sequence[Const],
    seed: Optional[Substitution] = None,
) -> bool:
    """Whether every grounding of lit's free variables (those not bound by
    the seed) over the given constant domain that satisfies the body also
    satisfies lit.  Body variables absent from lit range over the store.

    The query is compiled once per body, literal and set of seeded
    variables (a ``_Query``), and the seed's values are its first row.
    No query pays a join per domain value.
    """
    plan = _plan(frozenset(body), lit)
    seeded = [(s, t.name) for name, s in plan.slot.items()
              if isinstance(t := seed.get(name), Const)] if seed else []
    query = plan.query(tuple([s for s, _ in seeded]))
    return query.holds(store, tuple([v for _, v in seeded]), domain)
