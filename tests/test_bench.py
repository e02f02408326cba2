import csv
import json
import math

import pytest

from razor import DetectMode, LearnConfig, learn, parse_task
from razor.bench import (
    CSV_COLUMNS,
    balanced_accuracy,
    csv_row,
    hypothesis_accuracy,
    run_record,
    run_task,
    write_csv,
)
from razor.cli import main as cli_main
from helpers import parse_hypothesis


def test_balanced_accuracy_formula():
    assert balanced_accuracy(tp=2, fn=0, tn=6, fp=0) == 1.0
    assert balanced_accuracy(tp=1, fn=1, tn=3, fp=3) == 0.5
    assert math.isclose(balanced_accuracy(tp=2, fn=0, tn=3, fp=3), 0.75)


def test_balanced_accuracy_empty_class_counts_as_perfect():
    # documented convention: a class with no examples contributes rate 1.0
    assert balanced_accuracy(tp=0, fn=0, tn=4, fp=0) == 1.0
    assert balanced_accuracy(tp=3, fn=0, tn=0, fp=0) == 1.0


def test_accuracy_prefers_held_out_examples(trains_task, intro_task):
    h = parse_hypothesis("eastbound(A) :- has_car(A,B), closed(B), short(B).")
    acc, which = hypothesis_accuracy(trains_task, h)
    assert which == "heldout"
    assert acc == 1.0
    h2 = parse_hypothesis("f(A) :- odd(A), gt(A,3), lt(A,8).")
    acc2, which2 = hypothesis_accuracy(intro_task, h2)
    assert which2 == "train"
    assert acc2 == 1.0


def test_records_have_every_csv_field(trains_task):
    records = run_task(trains_task)
    for record in records:
        row = csv_row(record)
        assert list(row) == CSV_COLUMNS
        for col in ("best_errors", "best_size", "generated", "tested",
                    "time_total", "time_detection", "overhead_fraction",
                    "balanced_accuracy"):
            assert row[col] != ""
        assert 0.0 <= record["balanced_accuracy"] <= 1.0


def test_overhead_fraction_matches_times(trains_task):
    for record in run_task(trains_task):
        stats = record["stats"]
        if stats["time_total"]:
            assert math.isclose(
                stats["overhead_fraction"],
                stats["time_detection"] / stats["time_total"],
            )


def test_repeats_are_deterministic_in_outcome(trains_task):
    records = run_task(trains_task, repeats=2)
    by_mode = {}
    for r in records:
        by_mode.setdefault(r["config"]["pointless"], set()).add(
            (r["best_errors"], r["best_size"], r["stats"]["generated"],
             r["stats"]["tested"], r["hypothesis"])
        )
    for mode, outcomes in by_mode.items():
        assert len(outcomes) == 1, mode


@pytest.mark.parametrize("name", ["intro", "transitive_gt", "eight_puzzle_mini", "trains_mini"])
def test_learn_and_bench_store_the_same_pruning(fixtures_dir, name):
    task = parse_task(fixtures_dir / name)
    bench = {r["config"]["pointless"]: r["stats"] for r in run_task(task)}
    for mode in DetectMode:
        config = LearnConfig(pointless=mode)
        stats = run_record(task.name, config, learn(task, config))["stats"]
        for key in ("evidence", "constraints"):
            assert stats[key] == bench[mode.value][key], (mode, key)


def _learn_stats_record(fixtures_dir, tmp_path, *flags):
    path = tmp_path / "stats.json"
    assert cli_main(["learn", str(fixtures_dir / "trains_mini"),
                     "--stats", str(path), *flags]) in (0, 4)
    return json.loads(path.read_text())


def test_bench_record_extends_the_stats_record(fixtures_dir, tmp_path, trains_task, capsys):
    stats_record = _learn_stats_record(fixtures_dir, tmp_path)
    capsys.readouterr()
    for record in run_task(trains_task):
        assert set(record) - set(stats_record) == \
            {"balanced_accuracy", "accuracy_on", "error"}
        assert set(stats_record) <= set(record)
        assert set(record["config"]) - set(stats_record["config"]) == {"repeat"}
        assert set(stats_record["config"]) <= set(record["config"])
        assert set(record["stats"]) == set(stats_record["stats"])
        assert record["schema_version"] == stats_record["schema_version"] == 4


def test_csv_columns_are_unchanged():
    assert CSV_COLUMNS == [
        "schema_version", "task", "pointless", "noisy", "repeat", "max_size",
        "timeout", "seed", "best_errors", "best_size", "termination",
        "balanced_accuracy", "accuracy_on", "time_total", "time_detection",
        "time_testing", "overhead_fraction", "generated", "tested",
        "nodes_explored", "constraints_specialisation",
        "constraints_generalisation", "constraints_pointless",
        "evidence_reducible", "evidence_indiscriminate", "hypothesis", "error",
    ]


def test_timed_out_bench_record_has_no_result(fixtures_dir, tmp_path, trains_task, capsys):
    stats_record = _learn_stats_record(fixtures_dir, tmp_path, "--timeout", "0")
    capsys.readouterr()
    assert stats_record["termination"] == "timeout"
    records = run_task(trains_task, timeout=0.0)
    for record in records:
        assert record["termination"] == "timeout"
        assert record["stats"]["tested"] == 0
        for key in ("best_errors", "best_size", "hypothesis"):
            assert record[key] is None and stats_record[key] is None, key
        assert record["balanced_accuracy"] is None
    out = tmp_path / "bench.csv"
    write_csv(records, out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(records)
    assert rows[0]["termination"] == "timeout" and rows[0]["best_errors"] == ""
