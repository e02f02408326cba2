"""Certify the stored recursive-chain reference optimum with the oracle.

The brute-force oracle needs minutes per recursive-chain task, far more
than a benchmark run may take, so its verdict is computed once and stored
in ``reference.json``.  Every task of the family shares the optimum by
construction (see ``workloads.chain_task``); this script re-derives it for
the tasks of one seed and rewrites the file.

The oracle searches sizes up to ``--max-size`` (default: the bias max
size).  A zero-error optimum found within that bound is the optimum of the
whole space, since any larger hypothesis has more literals.

    python3 perfbench/certify_reference.py --seed 0 --max-size 5 --tasks 0
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-size", type=int, default=None)
    ap.add_argument("--tasks", type=int, nargs="*", default=None,
                    help="indices of the tasks to certify (default: all)")
    args = ap.parse_args()
    root = workloads.HERE.parent
    sys.path.insert(0, str(root / "src"))
    checked = []
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.recursive_chain(root, args.seed, Path(tmp))
        chosen = wl.tasks if args.tasks is None else [wl.tasks[i] for i in args.tasks]
        for spec in chosen:
            t0 = time.perf_counter()
            score = workloads.oracle_score(spec, Path(tmp), args.max_size)
            secs = time.perf_counter() - t0
            print(f"{spec.name}: optimum {score} in {secs:.1f} s", file=sys.stderr)
            checked.append({"task": spec.name, "best_score": list(score), "oracle_s": round(secs, 1)})
    scores = {tuple(c["best_score"]) for c in checked}
    if len(scores) != 1:
        print(f"tasks disagree on the optimum: {sorted(scores)}", file=sys.stderr)
        return 1
    if args.max_size is not None and min(scores)[0] != 0:
        print("a size-bounded certificate needs a zero-error optimum", file=sys.stderr)
        return 1
    path = workloads.HERE / "reference.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data["recursive-chain"] = {
        "best_score": list(scores.pop()),
        "certified_with": "razor.oracle.oracle_optimal",
        "max_size": args.max_size or "bias max size",
        "seed": args.seed,
        "tasks": checked,
    }
    path.write_text(json.dumps(data, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
