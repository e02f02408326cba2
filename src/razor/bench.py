"""Benchmark harness: runs every pointless-detection configuration on a
suite of tasks and emits machine-readable records for ablation studies and
the detection-overhead metric."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional, Sequence

from .logic import Hypothesis
from .pointless import DetectMode
from .search import CoverageTester, LearnConfig, LearnResult, Stats, learn
from .taskio import Task, parse_task, render_hypothesis

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


def run_record(task_name: str, config: LearnConfig, result: LearnResult) -> dict:
    """The record of one learn run, as `razor learn --stats` writes it.
    The score and hypothesis are None when the run ended before testing
    anything; every counter and timing lives under `stats`."""
    score = result.best_score
    return {
        "schema_version": 4,
        "task": task_name,
        "config": {
            "max_size": config.max_size,
            "timeout": config.timeout,
            "pointless": config.pointless.value,
            "noisy": config.noisy,
            "audit": config.audit,
            "seed": config.seed,
        },
        "termination": result.termination,
        "best_errors": score.errors if score else None,
        "best_size": score.literals if score else None,
        "hypothesis": render_hypothesis(result.best) if result.best is not None else None,
        "stats": result.stats.to_dict(),
    }


def _bench_record(task_name: str, config: LearnConfig, repeat: int,
                  result: LearnResult, accuracy: tuple, error: Optional[str]) -> dict:
    record = run_record(task_name, config, result)
    record["config"]["repeat"] = repeat
    record["balanced_accuracy"], record["accuracy_on"] = accuracy
    record["error"] = error
    return record


def run_task(task: Task, repeats: int = 1, timeout: Optional[float] = None,
             max_size: Optional[int] = None, noisy: bool = False,
             seed: Optional[int] = None) -> list[dict]:
    """One record per (configuration, repeat): the run record plus the
    repeat and the balanced accuracy of the best hypothesis.  Each run is
    the `learn` run of its configuration, keeping every pointless
    finding."""
    records = []
    for mode in DetectMode:
        for repeat in range(repeats):
            config = LearnConfig(max_size=max_size, timeout=timeout,
                                 pointless=mode, noisy=noisy, seed=seed)
            result = learn(task, config)
            accuracy = (hypothesis_accuracy(task, result.best)
                        if result.best is not None else (None, None))
            records.append(_bench_record(task.name, config, repeat, result, accuracy, None))
    return records


def run_suite(suite_dir, repeats: int = 1, timeout: Optional[float] = None,
              noisy: bool = False) -> list[dict]:
    """Run the four configurations on every task directory of the suite.
    A task that fails gives one record with termination `error` and the
    message in `error`; the suite continues."""
    suite = Path(suite_dir)
    records: list[dict] = []
    task_dirs = sorted(
        d for d in suite.iterdir()
        if d.is_dir() and (d / "bias.pl").is_file()
    )
    for d in task_dirs:
        try:
            task = parse_task(d)
            records.extend(run_task(task, repeats=repeats, timeout=timeout, noisy=noisy))
        except Exception as exc:  # record and continue
            failed = LearnResult(None, None, "error", Stats())
            config = LearnConfig(timeout=timeout, noisy=noisy)
            record = _bench_record(d.name, config, 0, failed, (None, None), str(exc))
            record["config"]["pointless"] = None  # no configuration ran
            records.append(record)
    return records


def csv_row(record: dict) -> dict:
    """A bench record flattened to CSV_COLUMNS."""
    stats = record["stats"]
    cons = stats["constraints"]
    ev = stats["evidence"]
    flat = {
        **record, **record["config"], **stats,
        "constraints_specialisation": cons.get("specialisation", 0),
        "constraints_generalisation": cons.get("generalisation", 0),
        "constraints_pointless": cons.get("pointless-super-rule", 0),
        "evidence_reducible": ev.get("reducible", 0),
        "evidence_indiscriminate": ev.get("indiscriminate", 0),
    }
    return {col: flat[col] for col in CSV_COLUMNS}


def write_json(records: Sequence[dict], path) -> None:
    Path(path).write_text(json.dumps(list(records), indent=2) + "\n")


def write_csv(records: Sequence[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for r in records:
            writer.writerow(csv_row(r))
