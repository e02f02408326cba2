"""razor benchmark runner.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 55 --trace 0

Builds the workload's tasks from the seed, computes each task's reference
optimum, then runs passes over the tasks for ``--seconds``.  Every pass runs in a fresh child interpreter (``child.py``), one
at a time, so no pass inherits razor's module-level caches from another.
With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5  # set-up-only children per run, on top of the passes
MIN_PASSES = 3  # untraced passes per run, however long they take
MIN_TRACE_PAIRS = 2  # untraced + traced pass pairs per traced run
HARD_LIMIT_S = 170.0  # a run ends by then, killing a pass that overruns


class BenchError(Exception):
    pass


def run_child(job: dict, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")],
        input=json.dumps(job), capture_output=True, text=True, env=env, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"pass failed with exit code {proc.returncode}:\n{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout)


def is_optimal(rec: dict, ref) -> bool:
    return rec["error"] is None and rec["best_score"] == list(ref)


def is_failed(rec: dict) -> bool:
    return rec["error"] is not None or rec["termination"] == "timeout"


def killed_pass(names: list) -> dict:
    return {"killed": True, "tasks": [
        {"name": n, "error": "killed at the run's time limit", "best_score": None,
         "generated": None, "termination": None, "learn_s": 0.0} for n in names]}


def pass_raw(p: dict) -> dict:
    """Raw per-layer sums of one traced pass."""
    import spans

    raw: dict = {}
    for rec in p["tasks"]:
        raw = spans.add_raw(raw, rec["raw"])
    raw.update(generator=p["generator"], evidence=p["evidence"], cache=p["cache"],
               parse_s=p["parse_s"])
    return raw


def main(argv=None) -> int:
    t_begin = time.perf_counter()
    ap = argparse.ArgumentParser(description="razor benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "razor" / "__init__.py").is_file():
        raise BenchError(f"no razor package under {SRC}: run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        return measure(args, workloads, workdir, t_begin)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, workdir: Path, t_begin: float) -> int:
    wl = workloads.build(args.workload, ROOT, args.seed, workdir)
    refs = workloads.references(wl, workdir)
    dirs = [str(spec.write(workdir)) for spec in wl.tasks]
    names = [spec.name for spec in wl.tasks]

    def remaining() -> float:
        return HARD_LIMIT_S - (time.perf_counter() - t_begin)

    def job(trace: bool, setup_only: bool = False) -> dict:
        return {"dirs": dirs, "noisy": wl.noisy, "trace": trace, "setup_only": setup_only}

    setups = [run_child(job(False, setup_only=True), remaining())["setup_s"]
              for _ in range(SETUP_PROBES)]

    # one round is a pass, or an untraced and a traced pass; rounds go on
    # while the next one is expected to end within --seconds
    modes = (False, True) if args.trace else (False,)
    min_rounds = MIN_TRACE_PAIRS if args.trace else MIN_PASSES
    plain: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    t0 = time.perf_counter()
    while len(rounds) < min_rounds or \
            time.perf_counter() - t0 + statistics.median(rounds) <= args.seconds:
        t_round = time.perf_counter()
        try:
            for trace in modes:
                p = run_child(job(trace), max(remaining(), 1.0))
                (traced if trace else plain).append(p)
        except subprocess.TimeoutExpired:
            plain.append(killed_pass(names))
            break
        rounds.append(time.perf_counter() - t_round)

    passes = plain + traced
    attempted = failed = optimal = 0
    for p in passes:
        for rec, ref in zip(p["tasks"], refs):
            attempted += 1
            failed += is_failed(rec)
            optimal += is_optimal(rec, ref)
    generated = [sum(r["generated"] or 0 for r in p["tasks"]) for p in passes]
    correct = failed == 0 and optimal == attempted and len(set(generated)) == 1

    for p in passes:
        for rec, ref in zip(p["tasks"], refs):
            if rec["error"]:
                print(f"{rec['name']}: {rec['error']}", file=sys.stderr)
            elif not is_optimal(rec, ref):
                print(f"{rec['name']}: best {rec['best_score']} differs from reference {list(ref)}",
                      file=sys.stderr)

    complete = [p for p in plain if not p.get("killed")]
    if not complete or (args.trace and not traced):
        raise BenchError(f"no pass finished within {HARD_LIMIT_S:.0f} s")
    walls = [sum(r["learn_s"] for r in p["tasks"]) for p in complete]
    if args.trace:
        metrics = trace_metrics(traced, complete)
    else:
        setups += [p["setup_s"] for p in complete]
        metrics = {
            "wall_s": (median_wall(complete), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in complete), "MB"),
            "candidates_generated": (statistics.median(generated), "count"),
            "optimal_frac": (optimal / attempted, "ratio"),
        }
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
          f"passes; per-pass wall {[round(w, 3) for w in walls]}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def median_wall(passes: list[dict]) -> float:
    """Summed learn time of a pass, taking each task's median over the
    passes: a burst of contention on the machine slows one task of one
    pass, not the task's median."""
    n_tasks = len(passes[0]["tasks"])
    return sum(statistics.median(p["tasks"][i]["learn_s"] for p in passes) for i in range(n_tasks))


def trace_metrics(traced: list[dict], plain: list[dict]) -> dict:
    import spans

    per_pass = [spans.layer_metrics(pass_raw(p)) for p in traced]
    units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    # counts repeat from pass to pass; take a measured value, not a mean
    out = {name: ((statistics.median_low if units[name] == "count" else statistics.median)(
        m[name] for m in per_pass), units[name]) for name in per_pass[0]}
    out["trace.overhead_frac"] = (median_wall(traced) / median_wall(plain) - 1.0, "ratio")

    # human-readable breakdown: per-task cost of pruning and self time per span
    first = traced[0]
    for rec in first["tasks"]:
        raw = rec["raw"]
        print(f"  {rec['name']}: learn {raw['learn_s']:.3f} s, "
              f"pointless.cost_frac {spans.cost_frac(raw):.3f}", file=sys.stderr)
    selfs = pass_raw(first)["spans"]
    for span, (calls, self_s) in sorted(selfs.items(), key=lambda kv: -kv[1][1]):
        print(f"  self {span:<28} {self_s:9.4f} s {calls:9d} calls", file=sys.stderr)
    return out


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(2)
