"""Bottom-up evaluation of function-free definite programs and the
entailment queries used for coverage testing and redundancy detection.

Every query runs on one join engine: a conjunction is compiled once into
a plan of argument slots, and a binding is a list of constant names
indexed by slot (``None`` while the slot is free) that the join extends
in place and restores on backtracking."""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Collection, Iterable, Iterator, Optional, Sequence, Union

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

    An extension (``least_model(program, base=store)``) shares the base's
    buckets and indexes for every predicate except those its program
    derives, which it copies; the base is never modified."""

    def __init__(self, atoms: Iterable[Literal] = ()):
        self._facts: dict[PredKey, set[Fact]] = {}
        self._pos_index: dict[tuple[PredKey, int], dict[str, list[Fact]]] = {}
        self._base: Optional[FactStore] = None
        self._owned: frozenset[PredKey] = frozenset()
        for atom in atoms:
            self.add(atom)

    def _extension(self, keys: Iterable[PredKey]) -> FactStore:
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

    def add_tuple(self, key: PredKey, args: Fact) -> bool:
        if self._base is not None and key not in self._owned:
            raise ValueError(f"predicate {key[0]}/{key[1]} is shared with the base store")
        bucket = self._facts.setdefault(key, set())
        if args in bucket:
            return False
        bucket.add(args)
        for pos in range(len(args)):
            idx = self._pos_index.get((key, pos))
            if idx is not None:
                idx.setdefault(args[pos], []).append(args)
        return True

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

    __slots__ = ("names", "slot", "body", "head", "rests")

    def __init__(self, body: Iterable[Literal], head: Optional[Literal]):
        self.slot: dict[str, int] = {}
        self.body = tuple(self.compile(lit) for lit in sorted(body, key=concrete_key))
        self.head = self.compile(head) if head is not None else None
        self.names = tuple(self.slot)
        # the body without literal i, for semi-naive rounds
        self.rests = tuple(self.body[:i] + self.body[i + 1:] for i in range(len(self.body)))

    def compile(self, lit: Literal) -> CompiledLiteral:
        args = tuple(
            t.name if isinstance(t, Const) else self.slot.setdefault(t.name, len(self.slot))
            for t in lit.args
        )
        return (lit.pred_key, args)

    def binding(self, seed: Optional[Substitution] = None) -> Binding:
        b: Binding = [None] * len(self.names)
        for name, term in (seed or {}).items():
            s = self.slot.get(name)
            if s is not None and isinstance(term, Const):
                b[s] = term.name
        return b


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


def _match(args: tuple[Arg, ...], fact: Fact, b: Binding) -> bool:
    """Bind the free slots of args to the fact; False on a clash (b may
    then hold partial bindings)."""
    for a, v in zip(args, fact):
        if a.__class__ is str:
            if a != v:
                return False
        else:
            cur = b[a]
            if cur is None:
                b[a] = v
            elif cur != v:
                return False
    return True


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


def _check_safe(rules: Iterable[Rule]) -> None:
    for rule in rules:
        missing = unsafe_head_vars(rule)
        if missing:
            raise UnsafeRuleError(rule, missing)


def _round(store: FactStore, plans: Sequence[_Plan],
           delta: Optional[dict[PredKey, set[Fact]]]) -> dict[PredKey, set[Fact]]:
    """One bottom-up round: the head facts not yet in the store that the
    rules derive, joining every body against the whole store (delta None)
    or, semi-naively, one body literal against the delta facts.  The
    store is only grown after the round."""
    new: dict[PredKey, set[Fact]] = {}
    for plan in plans:
        key, head = plan.head  # type: ignore[misc]
        known = store.tuples(key)
        derived = new.setdefault(key, set())
        empty: Binding = [None] * len(plan.names)
        if delta is None:
            for b in _solve(store, plan.body, empty):
                fact = _ground(head, b)
                if fact not in known:
                    derived.add(fact)
            continue
        for (lit_key, args), rest in zip(plan.body, plan.rests):
            for fresh in delta.get(lit_key, ()):
                b = empty[:]
                if not _match(args, fresh, b):
                    continue
                for b in _solve(store, rest, b):
                    fact = _ground(head, b)
                    if fact not in known:
                        derived.add(fact)
    return {key: facts for key, facts in new.items() if facts}


def least_model(program: Iterable[Rule], base: Optional[FactStore] = None) -> FactStore:
    """Least Herbrand model of a safe, function-free definite program,
    computed by semi-naive bottom-up iteration.

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
        store = base._extension({rule.head.pred_key for rule in rules})
    plans: list[_Plan] = []
    for rule in rules:
        if rule.body:
            plans.append(_plan(rule.body, rule.head))
        else:
            store.add_tuple(rule.head.pred_key, tuple(t.name for t in rule.head.args))

    delta = _round(store, plans, None)
    while delta:
        for key, facts in delta.items():
            for fact in facts:
                store.add_tuple(key, fact)
        delta = _round(store, plans, delta)
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
    if rule.head.pred_key != example.pred_key:
        raise ValueError(
            f"example {example!r} does not match head {rule.head!r}"
        )
    plan = _plan(rule.body, rule.head)
    b: Binding = [None] * len(plan.names)
    if not _match(plan.head[1], tuple(t.name for t in example.args), b):  # type: ignore[index]
        return False
    return next(_solve(store, plan.body, b), None) is not None


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


def _component(lits: Sequence[CompiledLiteral], slots: set[int],
               b: Binding) -> list[CompiledLiteral]:
    """The literals joined to the given slots through chains of free
    slots; the others only matter for satisfiability."""
    reached = set(slots)
    relevant: list[CompiledLiteral] = []
    rest = list(lits)
    changed = True
    while changed:
        changed = False
        still = []
        for lit in rest:
            free = {a for a in lit[1] if a.__class__ is int and b[a] is None}
            if free & reached:
                reached |= free
                relevant.append(lit)
                changed = True
            else:
                still.append(lit)
        rest = still
    return relevant


def implies(
    store: FactStore,
    body: Iterable[Literal],
    lit: Literal,
    domain: Sequence[Const],
    seed: Optional[Substitution] = None,
) -> bool:
    """Whether every grounding that satisfies the body also satisfies lit.

    Variables of lit absent from the body (and from the seed) range over
    the given constant domain, which must cover the constants the store's
    facts are built from (a task's constant domain always does).

    1. Vacuity: one satisfiability check of the whole body under the seed;
       an unsatisfiable body implies anything.
    2. Body-first, when every free variable of lit occurs in the body:
       enumerate the solutions of the body literals that share a chain of
       free variables with lit, and look lit up under each.
    3. Refutation-first otherwise: enumerate the groundings of lit's free
       variables over the domain that falsify lit, and ask whether those
       body literals are satisfiable under any of them.

    The body literals sharing no variable chain with lit are satisfiable
    once step 1 passes, so they are never joined again.
    """
    plan = _plan(frozenset(body), lit)
    b = plan.binding(seed)
    if not _satisfiable(store, plan.body, b):
        return True
    key, args = plan.head  # type: ignore[misc]
    facts = store.tuples(key)
    free = {a for a in args if a.__class__ is int and b[a] is None}
    relevant = _component(plan.body, free, b)
    if free <= {a for _, rel_args in relevant for a in rel_args}:
        return all(_ground(args, sol) in facts for sol in _solve(store, relevant, b))
    order = sorted(free)
    for combo in product([c.name for c in domain], repeat=len(order)):
        for s, val in zip(order, combo):
            b[s] = val
        if _ground(args, b) not in facts and _satisfiable(store, relevant, b):
            return False
    return True


def implies_by_refutation(
    store: FactStore,
    body: Iterable[Literal],
    lit: Literal,
    domain: Sequence[Const],
    seed: Optional[Substitution] = None,
) -> bool:
    """Reference implementation of ``implies``, refutation-first only:
    every grounding of lit's free variables over the domain that falsifies
    lit gets a satisfiability check of the body.  |domain|^k checks even
    when the body has no solution; for tests only."""
    body = list(body)
    free = sorted(lit.vars() - set(seed or ()))
    for combo in product(domain, repeat=len(free)):
        binding: Substitution = dict(seed or {})
        binding.update(zip(free, combo))
        if not store.contains(apply_subst(lit, binding)) and \
                next(satisfying_substitutions(store, body, binding), None) is not None:
            return False
    return True
