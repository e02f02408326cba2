"""One benchmark pass, run in a fresh interpreter so that razor's
module-level caches start empty and ``ru_maxrss`` belongs to this pass.

Reads a JSON job on stdin and prints one JSON object on stdout:

    {"dirs": [task dirs], "noisy": bool, "trace": bool, "setup_only": bool}

Set-up is ``import razor`` plus parsing every task.  Each task is then
learned in turn (one caller, closed loop) with ``LearnConfig()`` defaults
and the workload's ``noisy`` flag.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main() -> int:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    import razor
    import_s = time.perf_counter() - t0

    tracer = None
    parse = razor.parse_task
    learn = razor.learn
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        parse = tracer.wrap(parse, spans.PARSE_SPAN)
        learn = tracer.wrap(learn, spans.ROOT_SPAN)

    t0 = time.perf_counter()
    tasks = [parse(d) for d in job["dirs"]]
    parse_s = time.perf_counter() - t0
    out = {"setup_s": import_s + parse_s, "parse_s": parse_s, "tasks": []}

    if not job["setup_only"]:
        for task in tasks:
            rec = {"name": task.name, "error": None, "best_score": None,
                   "generated": None, "termination": None, "constraints": {}}
            t0 = time.perf_counter()
            try:
                result = learn(task, razor.LearnConfig(noisy=job["noisy"]))
            except Exception:
                rec["error"] = traceback.format_exc()
            else:
                rec["best_score"] = list(result.best_score) if result.best_score else None
                rec["generated"] = result.stats.generated
                rec["termination"] = result.termination
                rec["constraints"] = dict(result.stats.constraints)
            rec["learn_s"] = time.perf_counter() - t0
            out["tasks"].append(rec)

    if tracer is not None:
        self_t = tracer.self_times()
        roots = tracer.roots()
        for rec, root in zip(out["tasks"], roots):
            raw = tracer.summarize(tracer.subtree(root), self_t)
            raw["learn_s"] = tracer.end[root] - tracer.start[root]
            raw["constraints"] = rec["constraints"]
            rec["raw"] = raw
        # counters that live on objects or caches are read once per pass
        out["generator"] = spans.generator_counts(tracer)
        out["evidence"] = dict(tracer.evidence)
        out["cache"] = spans.cache_state()

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
