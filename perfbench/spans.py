"""In-memory span tracing of razor's layers, installed from outside the
package.

Each hook replaces one name where its caller looks it up: ``search`` and
``pointless`` import functions by name, so the functions are patched in
those modules, and the methods of ``HypothesisGenerator``,
``ConstraintStore`` and ``CoverageTester`` are patched on their classes.
A span records its name, start, end and parent in flat arrays; a span's
self time is its duration minus the durations of its direct children, so
the self times of a ``learn`` root and everything under it add up to the
root's duration.  Per-literal primitives such as ``iter_renamings`` are
not wrapped: the wrapper would cost more than the call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

ROOT_SPAN = "search.learn"
PARSE_SPAN = "taskio.parse"

# (module, class or None, attribute, span name); two hooks may share a span
HOOKS = (
    ("razor.search", None, "find_pointless", "pointless.detect"),
    ("razor.search", None, "least_model", "datalog.least_model"),
    ("razor.search", None, "covers_rule", "datalog.covers_rule"),
    ("razor.pointless", None, "implies", "pointless.implies"),
    ("razor.search", "CoverageTester", "masks", "search.test"),
    ("razor.search", "CoverageTester", "rule_masks", "search.rule_masks"),
    ("razor.generate", "HypothesisGenerator", "next_hypothesis", "generate.next"),
    ("razor.generate", "HypothesisGenerator", "rule_stratum", "generate.stratum"),
    ("razor.generate", "ConstraintStore", "violated_non_pointless", "generate.check"),
    ("razor.generate", "ConstraintStore", "pointless_match", "generate.pointless_match"),
    ("razor.generate", "ConstraintStore", "first_pointless_violation", "generate.pointless_match"),
    ("razor.generate", "ConstraintStore", "add", "generate.store_add"),
)

CONSTRAINT_KINDS = ("specialisation", "generalisation", "pointless-super-rule", "banish")
EVIDENCE_KINDS = ("reducible", "indiscriminate")
CACHE_MODULES = ("razor.logic", "razor.generate")

# per-layer metrics read off one traced pass, in report order
LAYER_METRICS = (
    ("generate.stratum_s", "s", "lower"),
    ("generate.nodes_explored", "count", "lower"),
    ("generate.check_s", "s", "lower"),
    ("generate.check_calls", "count", "lower"),
    ("generate.pointless_match_s", "s", "lower"),
    ("generate.pointless_match_calls", "count", "lower"),
    ("generate.next_self_s", "s", "lower"),
    ("generate.store_add_s", "s", "lower"),
    ("generate.considered", "count", "lower"),
    ("generate.emitted", "count", "lower"),
    ("generate.yield_ratio", "ratio", "higher"),
    *((f"generate.constraints.{k}", "count", "lower") for k in CONSTRAINT_KINDS),
    ("pointless.detect_s", "s", "lower"),
    ("pointless.detect_calls", "count", "lower"),
    ("pointless.evidence.reducible", "count", "higher"),
    ("pointless.evidence.indiscriminate", "count", "higher"),
    ("pointless.evidence_ratio", "ratio", "higher"),
    ("pointless.implies_s", "s", "lower"),
    ("pointless.implies_calls", "count", "lower"),
    ("pointless.cost_frac", "ratio", "lower"),
    ("search.learn_s", "s", "lower"),
    ("search.learn_self_s", "s", "lower"),
    ("search.test_s", "s", "lower"),
    ("search.test_calls", "count", "lower"),
    ("search.rule_masks_s", "s", "lower"),
    ("search.rule_masks_calls", "count", "lower"),
    ("search.rule_cache_hit_ratio", "ratio", "higher"),
    ("datalog.least_model_s", "s", "lower"),
    ("datalog.least_model_calls", "count", "lower"),
    ("datalog.covers_rule_s", "s", "lower"),
    ("datalog.covers_rule_calls", "count", "lower"),
    ("logic.canonicalize_hit_ratio", "ratio", "higher"),
    ("logic.cache_entries", "count", "lower"),
    ("taskio.parse_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# metric prefix -> span whose self time and call count it reports
SPAN_OF = {
    "generate.stratum": "generate.stratum",
    "generate.check": "generate.check",
    "generate.pointless_match": "generate.pointless_match",
    "generate.next_self": "generate.next",
    "generate.store_add": "generate.store_add",
    "pointless.detect": "pointless.detect",
    "pointless.implies": "pointless.implies",
    "search.learn_self": ROOT_SPAN,
    "search.test": "search.test",
    "search.rule_masks": "search.rule_masks",
    "datalog.least_model": "datalog.least_model",
    "datalog.covers_rule": "datalog.covers_rule",
}


class Tracer:
    """Span recorder.  Spans live in parallel arrays indexed by start
    order, so the spans under a root form a contiguous index range."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.generators: dict[int, object] = {}
        self.evidence = dict.fromkeys(EVIDENCE_KINDS, 0)
        self.missing: list[str] = []
        self._patched: list[tuple] = []

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, fn, span: str, on_return=None):
        nid = self._id(span)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    # -- hooks ------------------------------------------------------------

    def _seen_generator(self, args, _result):
        gen = args[0]
        self.generators.setdefault(id(gen), gen)

    def _seen_evidence(self, _args, found):
        for ev in found:
            self.evidence[ev.kind.value] = self.evidence.get(ev.kind.value, 0) + 1

    def install(self) -> None:
        """Patch every hook that exists; a missing one is reported on
        stderr and its metrics read 0."""
        extra = {
            "generate.next": self._seen_generator,
            "pointless.detect": self._seen_evidence,
        }
        for mod_name, cls_name, attr, span in HOOKS:
            owner = importlib.import_module(mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
                continue
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, span, extra.get(span)))
        for name in self.missing:
            print(f"trace: hook {name} not found", file=sys.stderr)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def roots(self, span: str = ROOT_SPAN) -> list[int]:
        nid = self._ids.get(span)
        return [i for i in range(len(self.start)) if self.parent[i] == -1 and self.name[i] == nid]

    def subtree(self, root: int) -> range:
        """Indices of the root and every span under it."""
        i = root + 1
        n = len(self.start)
        while i < n and self.start[i] < self.end[root]:
            i += 1
        return range(root, i)

    def summarize(self, indices, self_t: list[float]) -> dict:
        """Additive raw sums over a set of spans: calls and self time per
        span name, inclusive time of pointless detection and rule_masks
        calls answered from the cache (no covers_rule child)."""
        spans: dict[str, list] = {}
        miss_parents: set[int] = set()
        covers = self._ids.get("datalog.covers_rule")
        rule_masks = self._ids.get("search.rule_masks")
        detect = self._ids.get("pointless.detect")
        detect_incl = 0.0
        for i in indices:
            nid = self.name[i]
            entry = spans.setdefault(self.names[nid], [0, 0.0])
            entry[0] += 1
            entry[1] += self_t[i]
            if nid == covers and self.parent[i] >= 0 and self.name[self.parent[i]] == rule_masks:
                miss_parents.add(self.parent[i])
            if nid == detect:
                detect_incl += self.end[i] - self.start[i]
        rule_masks_calls = spans.get("search.rule_masks", [0])[0]
        return {
            "spans": spans,
            "detect_incl_s": detect_incl,
            "rule_masks_hits": rule_masks_calls - len(miss_parents),
        }


def generator_counts(tracer: Tracer) -> dict:
    out = {"considered": 0, "emitted": 0, "nodes_explored": 0}
    for gen in tracer.generators.values():
        for key in out:
            out[key] += getattr(gen, key, 0)
    return out


def cache_state() -> dict:
    """Entries held by the module-level lru_caches of logic and generate,
    and canonicalize's hit and miss counts."""
    seen: dict[int, object] = {}
    for mod_name in CACHE_MODULES:
        mod = sys.modules.get(mod_name)
        for obj in vars(mod).values() if mod is not None else ():
            if callable(getattr(obj, "cache_info", None)):
                seen[id(obj)] = obj
    entries = sum(obj.cache_info().currsize for obj in seen.values())
    canon = getattr(sys.modules.get("razor.logic"), "canonicalize", None)
    info = canon.cache_info() if callable(getattr(canon, "cache_info", None)) else None
    return {
        "cache_entries": entries,
        "canonicalize_hits": info.hits if info else 0,
        "canonicalize_misses": info.misses if info else 0,
    }


def add_raw(total: dict, part: dict) -> dict:
    """Sum two raw per-task records (nested dicts of numbers and lists)."""
    out = dict(total)
    for key, val in part.items():
        if isinstance(val, dict):
            out[key] = add_raw(total.get(key, {}), val)
        elif isinstance(val, list):
            prev = total.get(key, [0] * len(val))
            out[key] = [a + b for a, b in zip(prev, val)]
        else:
            out[key] = total.get(key, 0) + val
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def cost_frac(raw: dict) -> float:
    """Share of learn time spent on pointless pruning: detection, with the
    implies calls under it, plus constraint matching in the generator."""
    matching = raw["spans"].get("generate.pointless_match", [0, 0.0])[1]
    return _ratio(raw["detect_incl_s"] + matching, raw["learn_s"])


def layer_metrics(raw: dict) -> dict:
    """Named per-layer metrics from the raw sums of a pass (everything but
    trace.overhead_frac, which needs an untraced pass)."""
    spans = raw["spans"]

    def calls(span):
        return spans.get(span, [0, 0.0])[0]

    def self_s(span):
        return spans.get(span, [0, 0.0])[1]

    m: dict[str, float] = {}
    for prefix, span in SPAN_OF.items():
        m[f"{prefix}_s"] = self_s(span)
        m[f"{prefix}_calls"] = calls(span)
    gen = raw["generator"]
    m["generate.nodes_explored"] = gen["nodes_explored"]
    m["generate.considered"] = gen["considered"]
    m["generate.emitted"] = gen["emitted"]
    m["generate.yield_ratio"] = _ratio(gen["emitted"], gen["considered"])
    for kind in CONSTRAINT_KINDS:
        m[f"generate.constraints.{kind}"] = raw["constraints"].get(kind, 0)
    for kind in EVIDENCE_KINDS:
        m[f"pointless.evidence.{kind}"] = raw["evidence"].get(kind, 0)
    m["pointless.evidence_ratio"] = _ratio(sum(raw["evidence"].values()), calls("pointless.detect"))
    m["search.learn_s"] = raw["learn_s"]
    m["pointless.cost_frac"] = cost_frac(raw)
    m["search.rule_cache_hit_ratio"] = _ratio(raw["rule_masks_hits"], calls("search.rule_masks"))
    cache = raw["cache"]
    m["logic.canonicalize_hit_ratio"] = _ratio(
        cache["canonicalize_hits"], cache["canonicalize_hits"] + cache["canonicalize_misses"])
    m["logic.cache_entries"] = cache["cache_entries"]
    m["taskio.parse_s"] = raw["parse_s"]
    return {name: m[name] for name, _, _ in LAYER_METRICS if name in m}
