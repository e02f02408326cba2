"""The benchmark's tracer (perfbench/spans.py) patches razor functions and
methods by name.  A rename that drops one of them must fail here, not
print "trace: hook ... not found" when the benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

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
