"""Function-free first-order terms, literals, rules and the structural
relations the learner is built on: subrule, basic rules, captured
literals, connectedness and canonical forms."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Iterator

VAR_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class Const:
    name: str

    def __repr__(self):
        return self.name


Term = Var | Const

# Substitutions map variable *names* to terms; application is simultaneous.
Substitution = dict[str, Term]


def var_name(i: int) -> str:
    """i-th name of the canonical variable alphabet (A, B, ..., Z, V26, ...)."""
    return VAR_ALPHABET[i] if i < len(VAR_ALPHABET) else f"V{i}"


@dataclass(frozen=True, slots=True)
class Literal:
    pred: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def pred_key(self) -> tuple[str, int]:
        return (self.pred, len(self.args))

    def vars(self) -> frozenset[str]:
        return frozenset(t.name for t in self.args if isinstance(t, Var))

    def is_ground(self) -> bool:
        return all(isinstance(t, Const) for t in self.args)

    def __repr__(self):
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(repr(a) for a in self.args)})"


@dataclass(frozen=True, slots=True)
class Rule:
    head: Literal
    body: frozenset[Literal]

    @property
    def size(self) -> int:
        # the head counts as one literal
        return 1 + len(self.body)

    def vars(self) -> frozenset[str]:
        vs = set(self.head.vars())
        for lit in self.body:
            vs |= lit.vars()
        return frozenset(vs)

    def body_sorted(self) -> list[Literal]:
        return sorted(self.body, key=concrete_key)

    def __repr__(self):
        if not self.body:
            return f"{self.head!r}."
        return f"{self.head!r} :- {', '.join(repr(l) for l in self.body_sorted())}."


Hypothesis = frozenset[Rule]


def hypothesis_size(h: Hypothesis) -> int:
    return sum(r.size for r in h)


def apply_subst(lit: Literal, theta: Substitution) -> Literal:
    args = tuple(
        theta.get(t.name, t) if isinstance(t, Var) else t for t in lit.args
    )
    return Literal(lit.pred, args)


def is_safe(rule: Rule) -> bool:
    """Every head variable occurs in the body (facts must be ground)."""
    body_vars = set()
    for lit in rule.body:
        body_vars |= lit.vars()
    return rule.head.vars() <= body_vars


def unsafe_head_vars(rule: Rule) -> list[str]:
    body_vars = set()
    for lit in rule.body:
        body_vars |= lit.vars()
    return sorted(rule.head.vars() - body_vars)


# ---------------------------------------------------------------------------
# generality relations
# ---------------------------------------------------------------------------

def subrule(r1: Rule, r2: Rule) -> bool:
    """r1 is a subrule of r2: identical head and body(r1) is a subset of
    body(r2).  No variable renaming is involved."""
    return r1.head == r2.head and r1.body <= r2.body


def is_basic(rule: Rule, h: Hypothesis) -> bool:
    """rule's head predicate occurs in no body literal of h (including its
    own body), i.e. the rule is not part of a recursive definition."""
    key = rule.head.pred_key
    return all(lit.pred_key != key for r2 in h for lit in r2.body)


def captured(rule: Rule, lit: Literal) -> bool:
    """All of lit's variables occur elsewhere in the rule (other body
    literals or the head).  lit must be a body literal."""
    if lit not in rule.body:
        raise ValueError(f"{lit!r} is not a body literal of {rule!r}")
    rest = set(rule.head.vars())
    for other in rule.body:
        if other != lit:
            rest |= other.vars()
    return lit.vars() <= rest


def connected(rule: Rule) -> bool:
    """The variable-bearing literals of the rule (head included) form a
    single component under shared variables.  Ground literals constrain
    nothing structurally and attach anywhere."""
    groups = [lit.vars() for lit in [rule.head, *rule.body] if lit.vars()]
    if len(groups) <= 1:
        return True
    # union-find over variable groups
    parent = list(range(len(groups)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    var_home: dict[str, int] = {}
    for i, vs in enumerate(groups):
        for v in vs:
            if v in var_home:
                parent[find(i)] = find(var_home[v])
            else:
                var_home[v] = i
    return len({find(i) for i in range(len(groups))}) == 1


def in_search_space(rule: Rule) -> bool:
    """Whether the rule is a legal search-space member: safe, connected and
    with a nonempty body."""
    return bool(rule.body) and is_safe(rule) and connected(rule)


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def abstract_key(lit: Literal) -> tuple:
    """Literal sort key invariant under variable renaming: constants are
    concrete, variables are abstracted by first occurrence inside the
    literal."""
    seen: dict[str, int] = {}
    toks = []
    for t in lit.args:
        if isinstance(t, Const):
            toks.append((0, t.name))
        else:
            if t.name not in seen:
                seen[t.name] = len(seen)
            toks.append((1, str(seen[t.name])))
    return (lit.pred, len(lit.args), tuple(toks))


@lru_cache(maxsize=None)
def concrete_key(lit: Literal) -> tuple:
    toks = tuple(
        (0, t.name) if isinstance(t, Const) else (1, t.name) for t in lit.args
    )
    return (lit.pred, len(lit.args), toks)


def _rename_in_order(head: Literal, body_seq: list[Literal]) -> tuple[Literal, list[Literal]]:
    """Rename variables to the fixed alphabet in first-occurrence order over
    the head and then the body literals in the given order."""
    mapping: dict[str, str] = {}

    def walk(lit: Literal) -> Literal:
        args = []
        for t in lit.args:
            if isinstance(t, Var):
                if t.name not in mapping:
                    mapping[t.name] = var_name(len(mapping))
                args.append(Var(mapping[t.name]))
            else:
                args.append(t)
        return Literal(lit.pred, tuple(args))

    new_head = walk(head)
    return new_head, [walk(l) for l in body_seq]


def canonicalize(rule: Rule) -> Rule:
    """Canonical representative of the rule's variable-renaming class.

    Body literals are ordered by their renaming-invariant key; ties are
    broken by trying every ordering of each tie group and keeping the
    lexicographically least renamed rule.  Two rules that differ only by a
    bijective renaming canonicalize identically.
    """
    lits = sorted(rule.body, key=abstract_key)
    groups: list[list[Literal]] = []
    for lit in lits:
        if groups and abstract_key(groups[-1][0]) == abstract_key(lit):
            groups[-1].append(lit)
        else:
            groups.append([lit])

    if all(len(g) == 1 for g in groups):
        head, body = _rename_in_order(rule.head, lits)
        return Rule(head, frozenset(body))

    best = None
    best_key = None
    for perm_combo in product(*(permutations(g) for g in groups)):
        seq = [lit for group in perm_combo for lit in group]
        head, body = _rename_in_order(rule.head, seq)
        key = (concrete_key(head), tuple(sorted(concrete_key(l) for l in body)))
        if best_key is None or key < best_key:
            best_key = key
            best = Rule(head, frozenset(body))
    assert best is not None
    return best


def rule_sort_key(rule: Rule) -> tuple:
    return (
        rule.size,
        concrete_key(rule.head),
        tuple(concrete_key(l) for l in rule.body_sorted()),
    )


def canonicalize_hypothesis(h: Iterable[Rule]) -> Hypothesis:
    return frozenset(canonicalize(r) for r in h)


def hypothesis_sorted(h: Hypothesis) -> list[Rule]:
    return sorted(h, key=rule_sort_key)


# ---------------------------------------------------------------------------
# renaming-aware subrule matching
# ---------------------------------------------------------------------------

def _match_literal(pat: Literal, target: Literal, theta: dict[str, str],
                   used: set[str], trail: list[str]) -> bool:
    """Extend the injective renaming theta in place so that pat maps onto
    target, recording new bindings on the trail; on failure the caller's
    state is already restored."""
    if pat.pred != target.pred or len(pat.args) != len(target.args):
        return False
    added = 0
    for pt, tt in zip(pat.args, target.args):
        ok = True
        if isinstance(pt, Const):
            ok = isinstance(tt, Const) and pt.name == tt.name
        elif not isinstance(tt, Var):
            ok = False
        else:
            bound = theta.get(pt.name)
            if bound is None:
                if tt.name in used:
                    ok = False
                else:
                    theta[pt.name] = tt.name
                    used.add(tt.name)
                    trail.append(pt.name)
                    added += 1
            else:
                ok = bound == tt.name
        if not ok:
            for _ in range(added):
                v = trail.pop()
                used.discard(theta.pop(v))
            return False
    return True


def iter_renamings(p: Rule, r: Rule) -> Iterator[dict[str, str]]:
    """All injective variable renamings theta of p's variables with
    head(p)theta = head(r) and body(p)theta a subset of body(r)."""
    theta: dict[str, str] = {}
    used: set[str] = set()
    trail: list[str] = []
    if not _match_literal(p.head, r.head, theta, used, trail):
        return
    body_p = p.body_sorted()
    body_r = list(r.body)

    # a renaming fixes the image of every pattern literal, so it is reached
    # along one path only and yielded once
    def backtrack(i: int) -> Iterator[dict[str, str]]:
        if i == len(body_p):
            yield dict(theta)
            return
        pat = body_p[i]
        for cand in body_r:
            mark = len(trail)
            if _match_literal(pat, cand, theta, used, trail):
                yield from backtrack(i + 1)
                while len(trail) > mark:
                    v = trail.pop()
                    used.discard(theta.pop(v))

    yield from backtrack(0)


def renamed_subrule(p: Rule, r: Rule) -> bool:
    """Whether some injective variable renaming maps p's head onto r's head
    and p's body into r's body."""
    return next(iter_renamings(p, r), None) is not None


def rename_literal(lit: Literal, theta: dict[str, str]) -> Literal:
    args = tuple(
        Var(theta[t.name]) if isinstance(t, Var) else t for t in lit.args
    )
    return Literal(lit.pred, args)
