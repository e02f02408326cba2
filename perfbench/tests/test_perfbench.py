"""Self-tests of the benchmark: seeded inputs, span accounting and
repeatable counters.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import razor  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def small_tasks() -> list:
    """A fixture and a small recursive-chain task: quick, and between them
    they reach every traced layer."""
    return [workloads.fixture_spec(ROOT, "trains_mini"), workloads.chain_task(3, 0, 24)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_task_texts(name, tmp_path):
    a = workloads.build(name, ROOT, 11, tmp_path / "a")
    b = workloads.build(name, ROOT, 11, tmp_path / "b")
    texts_a = [(t.name, f, t.files[f].encode()) for t in a.tasks for f in workloads.TASK_FILES]
    texts_b = [(t.name, f, t.files[f].encode()) for t in b.tasks for f in workloads.TASK_FILES]
    assert texts_a == texts_b
    if name != "fixtures":
        other = workloads.build(name, ROOT, 12, tmp_path / "c")
        assert [t.files for t in other.tasks] != [t.files for t in a.tasks]


def test_self_times_of_spans_sum_to_root_learn_span(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        learn = tracer.wrap(razor.learn, spans.ROOT_SPAN)
        for spec in small_tasks():
            learn(razor.parse_task(spec.write(tmp_path)), razor.LearnConfig())
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    self_t = tracer.self_times()
    roots = tracer.roots()
    assert len(roots) == 2
    for root in roots:
        subtree = tracer.subtree(root)
        assert len(subtree) > 1
        assert all(tracer.parent[i] in subtree for i in subtree if i != root)
        assert min(self_t[i] for i in subtree) > -1e-9
        duration = tracer.end[root] - tracer.start[root]
        assert sum(self_t[i] for i in subtree) == pytest.approx(duration, rel=1e-9, abs=1e-12)


def test_counts_repeat_exactly_across_runs(tmp_path):
    dirs = [str(spec.write(tmp_path)) for spec in small_tasks()]
    job = {"dirs": dirs, "noisy": False, "trace": True, "setup_only": False}
    counts = []
    for _ in range(2):
        p = run.run_child(job, timeout=120)
        generated = [rec["generated"] for rec in p["tasks"]]
        layer = spans.layer_metrics(run.pass_raw(p))
        counts.append((generated, {name: layer[name] for name, unit, _ in spans.LAYER_METRICS
                                   if unit == "count"}))
    assert all(g > 0 for g in counts[0][0])
    assert counts[0][1]["datalog.least_model_calls"] > 2  # the chain tests recursive candidates
    assert counts[0] == counts[1]
