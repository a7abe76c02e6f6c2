"""The benchmark's span tracer must find every name it wraps.

perfbench/tracer.py looks up each entry of its TARGETS on entry: module
attributes with getattr, methods through the class __dict__.  A traced name
that is deleted or renamed in evomin (a method moved to a base class counts)
makes every traced benchmark job raise; entering the tracer once here makes
that a failure of this suite first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_under_test", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module, cls):
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


def test_every_traced_name_resolves_and_is_restored():
    tracer = _tracer_module()
    before = [_owner(m, c).__dict__[attr] if c else getattr(_owner(m, c), attr)
              for m, c, attr, _, _ in tracer.TARGETS]
    with tracer.Tracer():
        wrapped = [getattr(_owner(m, c), attr) for m, c, attr, _, _ in tracer.TARGETS]
        assert all(hasattr(w, "__wrapped__") for w in wrapped)
    after = [_owner(m, c).__dict__[attr] if c else getattr(_owner(m, c), attr)
             for m, c, attr, _, _ in tracer.TARGETS]
    assert all(a is b for a, b in zip(after, before))
