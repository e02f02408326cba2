"""Benchmark harness: runs every pointless-detection configuration on a
suite of tasks and emits machine-readable records for ablation studies and
the detection-overhead metric."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .logic import Hypothesis
from .pointless import DetectMode
from .search import CoverageTester, LearnConfig, LearnResult, learn
from .taskio import Task, parse_task, render_hypothesis

SCHEMA_VERSION = 2

CONFIG_ORDER = [
    DetectMode.OFF,
    DetectMode.REDUCIBLE_ONLY,
    DetectMode.INDISCRIMINATE_ONLY,
    DetectMode.BOTH,
]

CSV_COLUMNS = [
    "schema_version", "task", "pointless", "noisy", "repeat", "max_size",
    "timeout", "seed", "best_errors", "best_size", "termination",
    "balanced_accuracy", "accuracy_on", "time_total", "time_detection",
    "time_testing", "overhead_fraction", "generated", "tested",
    "nodes_explored", "constraints_specialisation",
    "constraints_generalisation", "constraints_pointless",
    "evidence_reducible", "evidence_indiscriminate", "hypothesis", "error",
]


def balanced_accuracy(tp: int, fn: int, tn: int, fp: int) -> float:
    """Mean of true-positive and true-negative rates.  A rate with an empty
    class counts as 1.0 (no example of that class can be misclassified)."""
    tpr = tp / (tp + fn) if tp + fn else 1.0
    tnr = tn / (tn + fp) if tn + fp else 1.0
    return 0.5 * (tpr + tnr)


def hypothesis_accuracy(task: Task, h: Hypothesis) -> tuple[float, str]:
    """Balanced accuracy on held-out examples when the task ships them,
    otherwise on the training examples."""
    if task.test_pos or task.test_neg:
        pos, neg, which = task.test_pos, task.test_neg, "heldout"
    else:
        pos, neg, which = task.pos, task.neg, "train"
    tester = CoverageTester(task.bk, pos, neg)
    pm, nm = tester.masks(h)
    tp = pm.bit_count()
    fp = nm.bit_count()
    return balanced_accuracy(tp, len(pos) - tp, len(neg) - fp, fp), which


@dataclass
class BenchRecord:
    task: str
    pointless: str
    noisy: bool
    repeat: int
    max_size: Optional[int]
    timeout: Optional[float]
    seed: Optional[int]
    best_errors: int
    best_size: int
    termination: str
    balanced_accuracy: float
    accuracy_on: str
    time_total: float
    time_detection: float
    time_testing: float
    overhead_fraction: float
    generated: int
    tested: int
    nodes_explored: int
    constraints: dict = field(default_factory=dict)
    evidence: dict = field(default_factory=dict)
    hypothesis: str = ""
    error: str = ""
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "task": self.task,
            "config": {
                "pointless": self.pointless,
                "noisy": self.noisy,
                "repeat": self.repeat,
                "max_size": self.max_size,
                "timeout": self.timeout,
                "seed": self.seed,
            },
            "best_errors": self.best_errors,
            "best_size": self.best_size,
            "termination": self.termination,
            "balanced_accuracy": self.balanced_accuracy,
            "accuracy_on": self.accuracy_on,
            "time_total": self.time_total,
            "time_detection": self.time_detection,
            "time_testing": self.time_testing,
            "overhead_fraction": self.overhead_fraction,
            "generated": self.generated,
            "tested": self.tested,
            "nodes_explored": self.nodes_explored,
            "constraints": dict(self.constraints),
            "evidence": dict(self.evidence),
            "hypothesis": self.hypothesis,
            "error": self.error,
        }

    def to_row(self) -> dict:
        d = self.to_dict()
        cons = d.pop("constraints")
        ev = d.pop("evidence")
        cfg = d.pop("config")
        d.update({f"{k}": v for k, v in cfg.items()})
        d["constraints_specialisation"] = cons.get("specialisation", 0)
        d["constraints_generalisation"] = cons.get("generalisation", 0)
        d["constraints_pointless"] = cons.get("pointless-super-rule", 0)
        d["evidence_reducible"] = ev.get("reducible", 0)
        d["evidence_indiscriminate"] = ev.get("indiscriminate", 0)
        return {col: d.get(col, "") for col in CSV_COLUMNS}


def record_from_result(task: Task, mode: DetectMode, repeat: int,
                       config: LearnConfig, result: LearnResult) -> BenchRecord:
    best: Hypothesis = result.best if result.best is not None else frozenset()
    score = result.best_score
    if score is None:
        tester = CoverageTester(task.bk, task.pos, task.neg)
        score = tester.score(best)
    acc, which = hypothesis_accuracy(task, best)
    stats = result.stats
    overhead = stats.time_detection / stats.time_total if stats.time_total else 0.0
    return BenchRecord(
        task=task.name,
        pointless=mode.value,
        noisy=config.noisy,
        repeat=repeat,
        max_size=config.max_size,
        timeout=config.timeout,
        seed=config.seed,
        best_errors=score.errors,
        best_size=score.literals,
        termination=result.termination,
        balanced_accuracy=acc,
        accuracy_on=which,
        time_total=stats.time_total,
        time_detection=stats.time_detection,
        time_testing=stats.time_testing,
        overhead_fraction=overhead,
        generated=stats.generated,
        tested=stats.tested,
        nodes_explored=stats.nodes_explored,
        constraints=stats.constraints,
        evidence=stats.evidence,
        hypothesis=render_hypothesis(best),
    )


def run_task(task: Task, repeats: int = 1, timeout: Optional[float] = None,
             max_size: Optional[int] = None, noisy: bool = False,
             seed: Optional[int] = None) -> list[BenchRecord]:
    """One record per (configuration, repeat).  Evidence collection is
    exhaustive so that the constraint set of `both` contains each single
    ablation's and the generated-candidate counts nest monotonically."""
    records = []
    for mode in CONFIG_ORDER:
        for repeat in range(repeats):
            config = LearnConfig(max_size=max_size, timeout=timeout,
                                 pointless=mode, noisy=noisy, seed=seed,
                                 exhaustive_evidence=True)
            result = learn(task, config)
            records.append(record_from_result(task, mode, repeat, config, result))
    return records


def run_suite(suite_dir, repeats: int = 1, timeout: Optional[float] = None,
              noisy: bool = False) -> list[BenchRecord]:
    """Run the four configurations on every task directory of the suite.
    Per-task failures become error records; the suite continues."""
    suite = Path(suite_dir)
    records: list[BenchRecord] = []
    task_dirs = sorted(
        d for d in suite.iterdir()
        if d.is_dir() and (d / "bias.pl").is_file()
    )
    for d in task_dirs:
        try:
            task = parse_task(d)
            records.extend(run_task(task, repeats=repeats, timeout=timeout, noisy=noisy))
        except Exception as exc:  # record and continue
            records.append(BenchRecord(
                task=d.name, pointless="", noisy=noisy, repeat=0,
                max_size=None, timeout=timeout, seed=None,
                best_errors=-1, best_size=-1, termination="error",
                balanced_accuracy=0.0, accuracy_on="", time_total=0.0,
                time_detection=0.0, time_testing=0.0, overhead_fraction=0.0,
                generated=0, tested=0, nodes_explored=0,
                error=str(exc),
            ))
    return records


def write_json(records: Sequence[BenchRecord], path) -> None:
    Path(path).write_text(
        json.dumps([r.to_dict() for r in records], indent=2) + "\n"
    )


def write_csv(records: Sequence[BenchRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for r in records:
            writer.writerow(r.to_row())
