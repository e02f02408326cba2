"""Bottom-up evaluation of function-free definite programs and the
entailment queries used for coverage testing and redundancy detection.

Rule bodies are compiled into argument slots and constants, and three
kinds of join run on them.  Each query fixes its join structure before
its first join:

- ``_solve`` serves the existential queries of redundancy detection
  (``implies``) and the enumeration of ``reference.satisfying_substitutions``:
  it works tuple at a time on a binding list indexed by slot, picks the
  smallest index bucket per binding and stops at the first solution its
  caller wants.  ``implies`` splits its body into components under the
  seed once, checks each component apart from the tested literal once,
  and runs one join of the rest and one bucket check per distinct
  solution, never one check per domain value.
- ``covers_rule`` runs on a ``CoveragePack``, which holds one example
  list and joins set at a time: rows of an example index and variable
  values are extended by one body literal at a time, and the rows of
  each body prefix are kept for the next rule that shares it.  The body
  is ordered once, in concrete-key order except that a literal waits
  until the head or an earlier literal binds one of its variables, so no
  example is crossed with a whole predicate.  Over a stratum, whose
  rules arrive in concrete-key order, a rule costs about one extension:
  its last literal, joined to its parent prefix's rows only to learn
  which rows some fact matches.
- The fixpoint rounds of ``least_model`` run set at a time: each rule
  body, once per body position a delta can feed, is compiled into a
  pipeline of steps with a static join order, and every step joins a
  whole batch of bindings against the store in one comprehension.  The
  packs' extensions are such steps.
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

Program = list[Rule]

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

    def has(self, key: PredKey, args: Fact) -> bool:
        bucket = self._facts.get(key)
        return bucket is not None and args in bucket

    def contains(self, atom: Literal) -> bool:
        return self.has(atom.pred_key, tuple(t.name for t in atom.args))

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

    def _bucket(self, key: PredKey, pattern: Sequence[Optional[str]]) -> tuple[Collection[Fact], int]:
        """The smallest index bucket over the bound positions of the
        pattern (None = free) and its position, or every fact and -1 when
        none is bound.  Facts in it may still disagree with the pattern at
        the other bound positions."""
        best: Optional[Collection[Fact]] = None
        best_pos = -1
        for pos, val in enumerate(pattern):
            if val is not None:
                bucket = self._index(key, pos).get(val, ())
                if best is None or len(bucket) < len(best):
                    best, best_pos = bucket, pos
        if best is None:
            return self._facts.get(key, ()), -1
        return best, best_pos

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
Binding = list[Optional[str]]


class _Plan:
    """A conjunction compiled for joins: body literals in a fixed order
    with their arguments resolved to slots or constant names, plus an
    optional extra literal (a rule head, or the literal an implication
    tests) sharing the slots."""

    __slots__ = ("names", "slot", "body", "head", "pipelines")

    def __init__(self, body: Iterable[Literal], head: Optional[Literal]):
        self.slot: dict[str, int] = {}
        self.body = tuple(self.compile(lit) for lit in sorted(body, key=concrete_key))
        self.head = self.compile(head) if head is not None else None
        self.names = tuple(self.slot)
        # fixpoint pipelines, compiled on first use: key None joins the
        # whole body, key i starts from delta facts of body literal i
        self.pipelines: dict[Optional[int], _Pipeline] = {}

    def compile(self, lit: Literal) -> CompiledLiteral:
        return _compile(lit, self.slot)

    def binding(self, seed: Optional[Substitution] = None) -> Binding:
        b: Binding = [None] * len(self.names)
        for name, term in (seed or {}).items():
            s = self.slot.get(name)
            if s is not None and isinstance(term, Const):
                b[s] = term.name
        return b

    def pipeline(self, first: Optional[int] = None) -> _Pipeline:
        pipe = self.pipelines.get(first)
        if pipe is None:
            pipe = self.pipelines[first] = _Pipeline(self.body, self.head, first)  # type: ignore[arg-type]
        return pipe


def _compile(lit: Literal, slots: dict[str, int]) -> CompiledLiteral:
    """The literal with its arguments resolved to constant names and to
    slots, giving each new variable the next slot."""
    return (lit.pred_key, tuple(
        t.name if isinstance(t, Const) else slots.setdefault(t.name, len(slots))
        for t in lit.args))


@lru_cache(maxsize=32)
def _plan(body: frozenset[Literal], head: Optional[Literal] = None) -> _Plan:
    return _Plan(body, head)


def _ground(args: tuple[Arg, ...], b: Binding) -> tuple:
    """The literal's arguments under b, None at a free slot."""
    return tuple([a if a.__class__ is str else b[a] for a in args])


def _solve(store: FactStore, lits: Sequence[CompiledLiteral], b: Binding) -> Iterator[Binding]:
    """Yield b once per extension that grounds every literal to a fact of
    the store.  b is extended in place and restored when the generator
    is exhausted, so read it before resuming."""
    # cheapest literal first: a ground literal is one membership test that
    # either fails the conjunction or drops out; otherwise take the
    # literal with the smallest index bucket
    best = best_pat = None
    best_i = best_pos = -1
    ground_true = []
    for i, (key, args) in enumerate(lits):
        pat = _ground(args, b)
        if None not in pat:
            if pat not in store.tuples(key):
                return
            ground_true.append(i)
            continue
        bucket, pos = store._bucket(key, pat)
        if best is None or len(bucket) < len(best):
            if not bucket:
                return
            best, best_pat, best_i, best_pos = bucket, pat, i, pos
    if best is None:
        yield b
        return
    args = lits[best_i][1]
    rest = [lit for i, lit in enumerate(lits) if i != best_i and i not in ground_true]
    # the bucket agrees with the pattern at best_pos; check the other
    # bound positions and the repeats of a free variable
    first: dict[int, int] = {}
    checks: list[tuple[int, str]] = []
    repeats: list[tuple[int, int]] = []
    for j, v in enumerate(best_pat):
        if v is None:
            s = args[j]
            if s in first:
                repeats.append((j, first[s]))
            else:
                first[s] = j
        elif j != best_pos:
            checks.append((j, v))
    facts = _filter(best, checks, repeats) if checks or repeats else best
    free = [(j, s) for s, j in first.items()]
    # each fact overwrites every free slot
    for fact in facts:
        for j, s in free:
            b[s] = fact[j]
        if rest:
            yield from _solve(store, rest, b)
        else:
            yield b
    for _, s in free:
        b[s] = None


def _filter(facts: Collection[Fact], checks: list[tuple[int, str]],
            repeats: list[tuple[int, int]]) -> list[Fact]:
    """The facts holding the given constants at the given positions and
    equal values at the given pairs of positions."""
    if len(checks) == 1 and not repeats:
        (j, v), = checks
        return [f for f in facts if f[j] == v]
    if len(repeats) == 1 and not checks:
        (j, k), = repeats
        return [f for f in facts if f[j] == f[k]]
    return [f for f in facts
            if all(f[j] == v for j, v in checks) and all(f[j] == f[k] for j, k in repeats)]


def _satisfiable(store: FactStore, lits: Sequence[CompiledLiteral], b: Binding) -> bool:
    """Whether the literals have a solution extending b; b is left as
    it was (an abandoned join does not restore it)."""
    saved = b[:]
    found = next(_solve(store, lits, b), None) is not None
    b[:] = saved
    return found


def _check_safe(rules: Iterable[Rule]) -> None:
    for rule in rules:
        missing = unsafe_head_vars(rule)
        if missing:
            raise UnsafeRuleError(rule, missing)


# ---------------------------------------------------------------------------
# set-at-a-time fixpoint rounds
# ---------------------------------------------------------------------------

# a pipeline binding: the values of the bound variables in binding order
Row = tuple


def _projector(items: Sequence[Arg]) -> Callable[[tuple], tuple]:
    """The function building a tuple from a row or a fact: an int item is
    a position in it, a str item a constant."""
    if any(a.__class__ is str for a in items):
        return lambda row: tuple([a if a.__class__ is str else row[a] for a in items])
    if len(items) > 1:
        return itemgetter(*items)
    if items:
        (q,) = items
        return itemgetter(slice(q, q + 1))
    return lambda row: ()


class _Step:
    """One body literal joined against a whole batch of rows.

    The literal's arguments split into the one index lookup, the remaining
    equality checks and the appended positions:

    - ``pos`` and ``src``: the lookup, the argument at fact position pos
      against ``src``, a row position (int) or a constant (str); pos is -1
      when the step scans the predicate (no bound argument) or given facts
      (the delta of a delta pipeline's first step, or a pack's examples);
    - ``check_at`` and ``check_of``: the other bound arguments, as the
      facts' values at those positions and the values a row demands there
      (constants when the lookup is not a row's);
    - ``rep_at`` and ``rep_of``: a variable repeated among the new ones
      makes equal the facts' values at these two lists of positions
      (None when no variable repeats);
    - ``appends``: the fact positions of the new variables, in binding
      order, appended to each row; empty when nothing later reads them,
      and the step then keeps each row that some fact matches, once.

    A literal with no new variable is a membership test: ``member``
    builds its fact from a row.  A scan that checks nothing and appends
    every argument in order (``whole``) takes given facts as its rows."""

    __slots__ = ("key", "pos", "src", "filtered", "check_at", "check_of",
                 "rep_at", "rep_of", "appends", "get", "member", "whole")

    def __init__(self, lit: CompiledLiteral, at: dict[int, int], live: set[int], scan: bool):
        key, args = lit
        self.key = key
        self.pos, self.src = -1, None
        self.member: Optional[Callable[[Row], Fact]] = None
        checked: list[tuple[int, Arg]] = []
        repeats: list[tuple[int, int]] = []
        first: dict[int, int] = {}  # new slot -> its first fact position
        for j, a in enumerate(args):
            if a.__class__ is str or a in at:
                checked.append((j, a if a.__class__ is str else at[a]))  # type: ignore[index]
            elif a in first:
                repeats.append((first[a], j))
            else:
                first[a] = j  # type: ignore[index]
        if not first:
            self.member = _projector([v for _, v in checked])
        elif not scan:
            # a row position is the selective lookup; a constant picks one
            # bucket for the whole batch
            lookup = next((c for c in checked if c[1].__class__ is int), None) \
                or next(iter(checked), None)
            if lookup is not None:
                checked.remove(lookup)
                self.pos, self.src = lookup
        self.filtered = bool(checked or repeats)
        self.check_at = _projector([j for j, _ in checked])
        self.check_of = _projector([v for _, v in checked])
        self.rep_at = itemgetter(*[j for j, _ in repeats]) if repeats else None
        self.rep_of = itemgetter(*[k for _, k in repeats]) if repeats else None
        self.appends: tuple[int, ...] = ()
        if self.member is None and live & first.keys():
            self.appends = tuple(first.values())
            for s in first:
                at[s] = len(at)
        self.get = _projector(self.appends)
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
            elif self.whole and rows == [()]:
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


class _Pipeline:
    """A rule body compiled for fixpoint rounds: its literals as steps in a
    static join order, the first one fixed when the pipeline starts from
    a delta, then greedily the literal with the most bound arguments
    (a literal with none free first; ties keep the plan's order), and the
    head as a projection of the final rows.

    When the last step is an unfiltered index lookup appending one value,
    ``last`` takes its place after ``steps``: one comprehension builds
    each head fact from a row and a matched fact, with no row of the final
    batch built."""

    __slots__ = ("steps", "head", "last")

    def __init__(self, body: Sequence[CompiledLiteral], head: CompiledLiteral,
                 first: Optional[int]):
        rest = [i for i in range(len(body)) if i != first]
        order = [] if first is None else [first]
        bound: set[Arg] = set() if first is None else set(body[first][1])

        def rank(i: int) -> tuple[bool, int]:
            args = body[i][1]
            free = sum(1 for a in args if a.__class__ is int and a not in bound)
            return (free > 0, free - len(args))

        while rest:
            i = min(rest, key=rank)
            rest.remove(i)
            order.append(i)
            bound.update(body[i][1])
        # the slots each step must bind for the later steps and the head
        live: list[set[int]] = []
        needed = {a for a in head[1] if a.__class__ is int}
        for i in reversed(order):
            live.append(set(needed))
            needed.update(a for a in body[i][1] if a.__class__ is int)  # type: ignore[misc]
        live.reverse()
        at: dict[int, int] = {}
        self.steps = tuple(_Step(body[i], at, needed_after, scan=(k == 0 and first is not None))
                           for k, (i, needed_after) in enumerate(zip(order, live)))
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
        rows: list[Row] = [()]
        for k, step in enumerate(self.steps):
            rows = step.run(store, rows, delta if k == 0 else None)
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
            plan = _plan(frozenset(unreached))
            if not _satisfiable(self.store, plan.body, plan.binding()):
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


def _components(lits: Sequence[CompiledLiteral],
                b: Binding) -> list[tuple[set[int], list[CompiledLiteral]]]:
    """The literals split into the components that chains of free slots
    under b join, each with its free slots and its literals in the given
    order; a literal with no free slot is a component of its own."""
    comps: list[tuple[set[int], list[int]]] = []
    for i, (_, args) in enumerate(lits):
        slots = {a for a in args if a.__class__ is int and b[a] is None}
        members = [i]
        for comp in [c for c in comps if c[0] & slots]:
            comps.remove(comp)
            slots |= comp[0]
            members += comp[1]
        comps.append((slots, members))
    return [(slots, [lits[i] for i in sorted(members)]) for slots, members in comps]


def _holds_every_grounding(store: FactStore, key: PredKey, pat: tuple,
                           lone_at: Sequence[int], repeats: list[tuple[int, int]],
                           names: set[str], need: int) -> bool:
    """Whether the facts matching the pattern (None at the positions of
    the lone variables) hold every grounding of the lone variables over
    the domain names, i.e. their in-domain projections onto the lone
    variables' first positions number need = |names|^k.  Facts must also
    agree at the repeats of a lone variable."""
    bucket, pos = store._bucket(key, pat)
    if len(bucket) < need:
        return False
    checks = [(j, v) for j, v in enumerate(pat) if v is not None and j != pos]
    facts = _filter(bucket, checks, repeats) if checks or repeats else bucket
    if len(facts) < need:
        return False
    if len(lone_at) == 1:
        (j,) = lone_at
        return len(names.intersection([f[j] for f in facts])) == need
    get = itemgetter(*lone_at)
    return len({p for p in map(get, facts) if names.issuperset(p)}) == need


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

    The query is planned once, before the first join: under the seed the
    body splits into components, the literals that chains of free
    variables join (a literal with no free variable is one of its own).

    1. Each component sharing no free variable with lit gets one
       satisfiability check: an unsatisfiable component makes the body
       unsatisfiable, and such a body implies anything.
    2. Body-first: enumerate the solutions of the other components,
       skipping those that bind a variable of lit outside the domain.
    3. Under each distinct solution, lit's lone variables (free variables
       in no body literal) must take every grounding over the domain: one
       index bucket must hold |domain|^k facts with distinct in-domain
       projections onto the k lone variables.  Without a lone variable
       this is one membership test.

    No literal takes part in two of these steps, and no step ranges a
    variable over the domain, so no query pays |domain| satisfiability
    checks.
    """
    plan = _plan(frozenset(body), lit)
    b = plan.binding(seed)
    key, args = plan.head  # type: ignore[misc]
    free = {a for a in args if a.__class__ is int and b[a] is None}
    relevant: list[CompiledLiteral] = []
    for slots, lits in _components(plan.body, b):
        if slots & free:
            relevant += lits
        elif not _satisfiable(store, lits, b):
            return True
    shared = free.intersection([a for _, rel_args in relevant for a in rel_args])
    lone_first: dict[int, int] = {}
    repeats: list[tuple[int, int]] = []
    for j, a in enumerate(args):
        if a in free and a not in shared:
            if a in lone_first:
                repeats.append((j, lone_first[a]))  # type: ignore[index]
            else:
                lone_first[a] = j  # type: ignore[index]
    solutions = _solve(store, relevant, b)
    if lone_first:
        names = {c.name for c in domain}
        lone_at = list(lone_first.values())
        need = len(names) ** len(lone_at)
        seen: set[tuple] = set()

        def refutes(sol: Binding) -> bool:
            pat = _ground(args, sol)
            if pat in seen:
                return False
            seen.add(pat)
            return not _holds_every_grounding(store, key, pat, lone_at, repeats, names, need)

        refuting = filter(refutes, solutions)
    else:
        facts = store.tuples(key)
        refuting = (sol for sol in solutions if _ground(args, sol) not in facts)
    if shared:
        refuting = _in_domain(refuting, shared, domain)
    return next(refuting, None) is None


def _in_domain(solutions: Iterable[Binding], slots: set[int],
               domain: Sequence[Const]) -> Iterator[Binding]:
    """The solutions binding every given slot to a constant of the domain,
    whose names are collected only once a solution arrives."""
    names: Optional[set[str]] = None
    for sol in solutions:
        if names is None:
            names = {c.name for c in domain}
        if all(sol[s] in names for s in slots):
            yield sol
