"""Seeded workload generation for the razor benchmark.

Every workload is a list of task texts (bias, background knowledge,
examples) built from the workload seed alone, the learner configuration
it runs under, and a reference optimum per task.  The references come
from ``razor.oracle.oracle_optimal`` and are computed before any timed
region; the recursive-chain optimum is too slow to certify per run, so it
was certified once and is stored in ``reference.json``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
FIXTURES = ("intro", "transitive_gt", "eight_puzzle_mini", "trains_mini")
TASK_FILES = ("bias.pl", "bk.pl", "exs.pl")
CHAIN_SIZES = (120, 160, 200)
WORKLOADS = ("fixtures", "noisy-fixtures", "recursive-chain")


@dataclass(frozen=True)
class TaskSpec:
    name: str
    files: dict  # file name -> text, one entry per TASK_FILES

    def write(self, directory: Path) -> Path:
        d = directory / self.name
        d.mkdir(parents=True, exist_ok=True)
        for fname, text in self.files.items():
            (d / fname).write_text(text)
        return d


@dataclass(frozen=True)
class Workload:
    name: str
    tasks: list  # of TaskSpec
    noisy: bool
    refs: Optional[list] = None  # oracle optima already computed while building


def _rng(seed: int, workload: str, part: str) -> random.Random:
    # string seeds hash through SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{seed}/{workload}/{part}")


def fixture_spec(root: Path, name: str) -> TaskSpec:
    d = root / "fixtures" / name
    return TaskSpec(name, {f: (d / f).read_text() for f in TASK_FILES})


def fixtures(root: Path, seed: int, workdir: Path) -> Workload:
    """The four bundled fixtures, in an order drawn from the seed."""
    names = list(FIXTURES)
    _rng(seed, "fixtures", "order").shuffle(names)
    return Workload("fixtures", [fixture_spec(root, n) for n in names], noisy=False)


def flip_labels(exs_text: str, rng: random.Random) -> str:
    """Relabel one positive as negative and one negative as positive."""
    lines = [ln for ln in exs_text.splitlines() if ln.strip() and not ln.startswith("%")]
    pos = [i for i, ln in enumerate(lines) if ln.startswith("pos(")]
    neg = [i for i, ln in enumerate(lines) if ln.startswith("neg(")]
    for i in (rng.choice(pos), rng.choice(neg)):
        label, rest = lines[i][:3], lines[i][3:]
        lines[i] = ("neg" if label == "pos" else "pos") + rest
    return "\n".join(lines) + "\n"


def noisy_fixtures(root: Path, seed: int, workdir: Path) -> Workload:
    """The four fixtures with one positive and one negative label flipped
    per task.  Flips are redrawn until the oracle finds no zero-error
    hypothesis, so the noisy search always runs to the bias max size."""
    tasks, refs = [], []
    for name in FIXTURES:
        base = fixture_spec(root, name)
        rng = _rng(seed, "noisy-fixtures", name)
        for _ in range(100):
            spec = TaskSpec(name, {**base.files, "exs.pl": flip_labels(base.files["exs.pl"], rng)})
            ref = oracle_score(spec, workdir)
            if ref[0] > 0:
                break
        else:
            raise RuntimeError(f"seed {seed}: no noisy relabelling of {name} without a perfect hypothesis")
        tasks.append(spec)
        refs.append(ref)
    return Workload("noisy-fixtures", tasks, noisy=True, refs=refs)


CHAIN_BIAS = """\
% target: reach/2 is the transitive closure of edge/2
head_pred(reach,2).
body_pred(edge,2).
body_pred(link,2).
body_pred(prev,2).
max_vars(3).
max_body(2).
max_rules(2).
enable_recursion.
"""

HOPS = (1, 1, 2, 3, 5, 8, 13)
SKIPS_PER_NODE = 2
N_EXAMPLES = 30


def chain_task(seed: int, index: int, n: int) -> TaskSpec:
    """A transitive-closure task over n nodes.

    ``edge`` is a chain for odd ``index`` and a DAG (a chain plus 2n forward
    skips of 2-3 nodes) for even ``index``; ``prev`` reverses ``edge`` and
    ``link`` holds n/2 random pairs.
    Positives are reachable pairs at hop distances up to 13, negatives are
    unreachable pairs, so the optimum is the size-5 recursive definition
    ``reach(A,B) :- edge(A,B).  reach(A,B) :- edge(A,C), reach(C,B).``
    """
    rng = _rng(seed, "recursive-chain", str(index))
    edges = {(i, i + 1) for i in range(n - 1)}
    if index % 2 == 0:
        for _ in range(SKIPS_PER_NODE * n):
            a = rng.randrange(n - 3)
            edges.add((a, a + rng.randint(2, 3)))
    succ: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in edges:
        succ[a].append(b)
    reach: list[set[int]] = [set() for _ in range(n)]
    for a in reversed(range(n)):
        for b in succ[a]:
            reach[a].add(b)
            reach[a] |= reach[b]
    link: set[tuple[int, int]] = set()
    while len(link) < n // 2:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            link.add((a, b))
    # stratified examples, so every task has the same mix: positives cycle
    # through the hop distances, and negatives are one third reversed
    # edges, one third backward link pairs and one third any unreachable pair
    pos: set[tuple[int, int]] = set()
    while len(pos) < N_EXAMPLES:
        a = rng.randrange(n - 1)
        pos.add((a, min(n - 1, a + HOPS[len(pos) % len(HOPS)])))
    strata = (
        sorted((b, a) for a, b in edges),
        sorted((a, b) for a, b in link if b not in reach[a]),
        [(a, b) for a in range(n) for b in range(n) if a != b and b not in reach[a]],
    )
    neg: set[tuple[int, int]] = set()
    for k, pool in enumerate(strata):
        fresh = [pair for pair in pool if pair not in neg]
        want = N_EXAMPLES * (k + 1) // len(strata) - len(neg)
        neg.update(rng.sample(fresh, min(want, len(fresh))))

    def facts(pred: str, pairs) -> str:
        return "".join(f"{pred}(n{a},n{b}).\n" for a, b in sorted(pairs))

    bk = facts("edge", edges) + facts("link", link) + facts("prev", {(b, a) for a, b in edges})
    exs = "".join(f"pos(reach(n{a},n{b})).\n" for a, b in sorted(pos))
    exs += "".join(f"neg(reach(n{a},n{b})).\n" for a, b in sorted(neg))
    return TaskSpec(f"chain{index}_n{n}", {"bias.pl": CHAIN_BIAS, "bk.pl": bk, "exs.pl": exs})


def recursive_chain(root: Path, seed: int, workdir: Path, sizes=CHAIN_SIZES) -> Workload:
    tasks = [chain_task(seed, i, n) for i, n in enumerate(sizes)]
    return Workload("recursive-chain", tasks, noisy=False)


BUILDERS = {
    "fixtures": fixtures,
    "noisy-fixtures": noisy_fixtures,
    "recursive-chain": recursive_chain,
}


def build(name: str, root: Path, seed: int, workdir: Path) -> Workload:
    """The named workload for a seed; task files are written under workdir
    when a builder has to parse them."""
    return BUILDERS[name](root, seed, workdir)


def oracle_score(spec: TaskSpec, workdir: Path, max_size: Optional[int] = None) -> tuple[int, int]:
    """Certified (errors, literals) optimum, by default at the task's bias
    max size."""
    from razor import oracle_optimal, parse_task

    task = parse_task(spec.write(workdir))
    best, _ = oracle_optimal(task, max_size or task.bias.max_size)
    return (best.errors, best.literals)


def stored_reference(workload: str) -> tuple[int, int]:
    record = json.loads((HERE / "reference.json").read_text())[workload]
    return tuple(record["best_score"])


def references(workload: Workload, workdir: Path) -> list[tuple[int, int]]:
    """Reference optimum per task, in task order."""
    if workload.refs is not None:
        return list(workload.refs)
    if workload.name == "recursive-chain":
        ref = stored_reference(workload.name)
        return [ref for _ in workload.tasks]
    return [oracle_score(spec, workdir) for spec in workload.tasks]
