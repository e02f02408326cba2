"""Bans the background model decides before the search: literals and
pairs of literals that no rule worth building holds.  A dead literal has
no solution over the model, a dead pair no joint solution, and in an
implied pair every solution of the first literal satisfies the second,
whose variables it holds.  HypothesisGenerator leaves them out of its
choice table; the soundness argument is in its docstring."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional

from .datalog import FactStore, PredKey
from .deadline import check_deadline
from .logic import Const, Literal


@dataclass(frozen=True)
class Ban:
    """A literal or a pair of literals that no rule the generator builds
    holds, and why, over the background model: "dead-literal" (no
    solution), "dead-pair" (no joint solution) or "implied-pair" (the
    second literal's variables are among the first's, and every solution
    of the first satisfies the second)."""

    kind: str
    literals: tuple[Literal, ...]


def _project(rows: Iterable[tuple], idx: tuple[int, ...]) -> set[tuple]:
    """Each row cut to the given positions, in their order."""
    if len(idx) == 1:
        return set(zip(map(itemgetter(idx[0]), rows)))
    return set(map(itemgetter(*idx), rows)) if idx else {()}


def _solutions(model: FactStore, pattern: tuple) -> set[tuple[str, ...]]:
    """The values of a literal's distinct variables, in first-occurrence
    order, over the facts matching its pattern: its predicate and its
    arguments, a constant by name and a variable by first occurrence."""
    pred, args = pattern
    firsts = tuple(args.index(v) for v in range(len({a for a in args if isinstance(a, int)})))
    rows = model.tuples(pred)
    if len(firsts) == len(args):
        return rows
    for p, a in enumerate(args):
        if isinstance(a, str):
            rows = [f for f in rows if f[p] == a]
        elif firsts[a] != p:
            q = firsts[a]
            rows = [f for f in rows if f[p] == f[q]]
    return _project(rows, firsts)


def background_bans(lits: list[Literal], model: FactStore, target: PredKey, implied: bool,
                    deadline: Optional[float]) -> tuple[list[int], list[Ban]]:
    """Per literal of lits, -1 for a dead one and otherwise the bitmask,
    over lits numbered as rank bits (the first literal the highest bit),
    of the literals it must not meet in a body; and every ban found.

    A literal of the target predicate is never banned.  Any other is
    dead when the model holds no solution of it.  Two live literals that
    share a variable make a dead pair when they have no joint solution,
    and, if implied is set, an implied pair when one's variables are
    among the other's and every solution of the other satisfies it.  The
    tests are set operations on the solutions of each literal pattern,
    projected onto the shared variables, and each verdict is kept per
    pair pattern, so a test serves every renaming of a pair.  Raises
    DeadlineExceeded past the deadline, checked once per literal."""
    n = len(lits)
    sols: dict[tuple, set] = {}
    projections: dict[tuple, set] = {}
    verdicts: dict[tuple, int] = {}
    conflict, bans, live = [0] * n, [], []

    def projection(pattern: tuple, idx: tuple[int, ...]) -> set:
        out = projections.get((pattern, idx))
        if out is None:
            sol = sols[pattern]
            whole = idx == tuple(range(len(next(iter(sol)))))
            out = projections[pattern, idx] = sol if whole else _project(sol, idx)
        return out

    for r, lit in enumerate(lits):
        check_deadline(deadline)
        if lit.pred_key == target:
            continue
        names: dict[str, int] = {}
        pattern = (lit.pred_key, tuple(t.name if isinstance(t, Const)
                                       else names.setdefault(t.name, len(names))
                                       for t in lit.args))
        if pattern not in sols:
            sols[pattern] = _solutions(model, pattern)
        if sols[pattern]:
            live.append((r, pattern, tuple(names)))
        else:
            conflict[r] = -1
            bans.append(Ban("dead-literal", (lit,)))
    for i, (r, pa, va) in enumerate(live):
        check_deadline(deadline)
        for s, pb, vb in live[i + 1:]:
            shared = [v for v in vb if v in va]
            if va and vb and not shared:
                continue  # both live, so they have a joint solution
            ia, ib = tuple([va.index(v) for v in shared]), tuple([vb.index(v) for v in shared])
            key = (pa, pb, ia, ib)
            verdict = verdicts.get(key)
            if verdict is None:
                ma, mb = projection(pa, ia), projection(pb, ib)
                verdict = verdicts[key] = (
                    2 if implied and len(ib) == len(vb) and ma <= mb
                    else 3 if implied and len(ia) == len(va) and mb <= ma
                    else int(ma.isdisjoint(mb)))
            if verdict:
                conflict[r] |= 1 << (n - 1 - s)
                conflict[s] |= 1 << (n - 1 - r)
                a, b = lits[r], lits[s]
                bans.append(Ban("dead-pair", (a, b)) if verdict == 1 else
                            Ban("implied-pair", (a, b) if verdict == 2 else (b, a)))
    return conflict, bans


