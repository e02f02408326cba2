"""Bans the background model decides before the search: literals and
pairs of literals that no rule worth building holds.  A dead literal has
no solution over the model, a dead pair no joint solution, and in an
implied pair every solution of the first literal satisfies the second,
whose variables it holds.  Of a class of equivalent literals (the same
variables and the same solutions over them) only those of the least
head-anchored key stay; the others are equivalent-literal bans.  The
solutions come from the join step of ``razor.datalog``, so a ground
literal is live exactly when its fact holds.  HypothesisGenerator leaves
the bans out of its choice table; the soundness argument is in its
docstring."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .datalog import FactStore, PredKey, _compile, _projector, _Step
from .deadline import check_deadline
from .logic import Literal


@dataclass(frozen=True)
class Ban:
    """A literal or a pair of literals that no rule the generator builds
    holds, and why, over the background model: "dead-literal" (no
    solution), "dead-pair" (no joint solution), "implied-pair" (the
    second literal's variables are among the first's, and every solution
    of the first satisfies the second) or "equivalent-literal" (the first
    literal has the second's variables and solutions, and a larger key)."""

    kind: str
    literals: tuple[Literal, ...]


def background_bans(lits: list[Literal], keys: list[tuple], model: FactStore, target: PredKey,
                    implied: bool, deadline: Optional[float]) -> tuple[list[int], list[Ban]]:
    """Per literal of lits, -1 for a banned one and otherwise the bitmask,
    over lits numbered as rank bits (the first literal the highest bit),
    of the literals it must not meet in a body; and every ban found.
    keys holds each literal's head-anchored key (see
    generate._literal_key).

    A literal of the target predicate is never banned.  Any other is
    dead when the model holds no solution of it.  If implied is set, the
    live ones fall into classes of equivalent literals, with the same
    variables and the same solutions over them, and in each class every
    literal whose key is above the class's least is banned as an
    equivalent literal; the literals tied at the least key all stay.  Two
    remaining literals that share a variable make a dead pair when they
    have no joint solution, and, if implied is set, an implied pair when
    one's variables are among the other's and every solution of the other
    satisfies it.  The tests are set operations on the solutions of each
    literal pattern, projected onto the variables compared, and each pair
    verdict is kept per pair pattern, so a test serves every renaming of
    a pair.  Raises DeadlineExceeded past the deadline, checked once per
    literal."""
    n = len(lits)
    sols: dict[tuple, set] = {}
    projections: dict[tuple, frozenset] = {}
    verdicts: dict[tuple, int] = {}
    conflict, bans, live = [0] * n, [], []

    def projection(pattern: tuple, idx: tuple[int, ...]) -> frozenset:
        out = projections.get((pattern, idx))
        if out is None:
            sol = sols[pattern]
            whole = idx == tuple(range(len(next(iter(sol)))))
            out = projections[pattern, idx] = frozenset(sol if whole else map(_projector(idx), sol))
        return out

    for r, lit in enumerate(lits):
        check_deadline(deadline)
        if lit.pred_key == target:
            continue
        names: dict[str, int] = {}
        pattern = _compile(lit, names)
        if pattern not in sols:
            # distinct variables and no constant: the facts themselves
            sols[pattern] = model.tuples(lit.pred_key) if len(names) == len(lit.args) else \
                set(_Step(pattern, {}, set(range(len(names))), scan=False).run(model, [()]))
        if sols[pattern]:
            live.append((r, pattern, tuple(names)))
        else:
            conflict[r] = -1
            bans.append(Ban("dead-literal", (lit,)))
    if implied:
        for r, kept in _equivalents(live, keys, sols, projection):
            conflict[r] = -1
            bans.append(Ban("equivalent-literal", (lits[r], lits[kept])))
        live = [entry for entry in live if conflict[entry[0]] != -1]
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


def _equivalents(live: list, keys: list[tuple], sols: dict,
                 projection) -> Iterator[tuple[int, int]]:
    """(r, kept) for each live literal r that background_bans bans as
    equivalent, kept being its first class-mate of the class's least
    key.  Literals are grouped by variable set and solution count, and
    only within a group are their solutions, over the variables in name
    order, compared."""
    groups: dict[tuple, list] = {}
    for entry in live:
        groups.setdefault((frozenset(entry[2]), len(sols[entry[1]])), []).append(entry)
    for group in groups.values():
        classes: dict[frozenset, list[int]] = {}
        for r, pattern, names in group if len(group) > 1 else ():
            rel = projection(pattern, tuple(sorted(range(len(names)), key=names.__getitem__)))
            classes.setdefault(rel, []).append(r)
        for members in classes.values():
            least = min(keys[r] for r in members)
            kept = next(r for r in members if keys[r] == least)
            yield from ((r, kept) for r in members if keys[r] != least)
