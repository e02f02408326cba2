"""The benchmark's tracer (perfbench/spans.py) patches razor functions and
methods by name.  A rename that drops one of them must fail here, not
print "trace: hook ... not found" when the benchmark runs, and so must a
refactor that keeps a hooked name but stops calling it, which would
silently zero its span."""

import importlib
import importlib.util
from pathlib import Path

from razor import learn

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves_to_a_callable():
    hooks = _load_spans().HOOKS
    assert hooks
    for mod_name, cls_name, attr, _span in hooks:
        owner = importlib.import_module(mod_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        assert callable(getattr(owner, attr, None)), (mod_name, cls_name, attr)


def test_every_trace_hook_fires_on_a_learn_run(monkeypatch, intro_task):
    calls = {}
    for mod_name, cls_name, attr, _span in _load_spans().HOOKS:
        owner = importlib.import_module(mod_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        key = (mod_name, cls_name, attr)
        calls[key] = 0

        def counted(*args, real=getattr(owner, attr), key=key, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    learn(intro_task)
    assert [key for key, n in calls.items() if n == 0] == []
