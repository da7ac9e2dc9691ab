"""The benchmark's tracer wraps sgdd functions by name; a renamed or deleted
target would make ``perfbench --trace 1`` fail or go silent.  The tracer
module is loaded read-only from its file."""

import importlib
import importlib.util
import sys
from pathlib import Path

import sgdd.cli  # noqa: F401  (loads every module the tracer patches)
import sgdd.linked
from sgdd.algebra import IntMatrix, Surd
from sgdd.linked import verify_linked_system

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    for module, names in tracer.LAYERS.values():
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"
    assert callable(IntMatrix.__matmul__) and callable(IntMatrix.max_abs)
    for op in tracer.SURD_OPS:
        assert callable(getattr(Surd, op, None)), f"Surd.{op}"


def test_tracer_records_a_certification(sys16):
    tracer = _load_tracer()
    t = tracer.Tracer(0)
    t.install([mod for name, mod in sys.modules.items() if name == "sgdd" or name.startswith("sgdd.")])
    try:
        assert sgdd.linked.verify_linked_system(sys16).ok
    finally:
        t.uninstall()
    assert sgdd.linked.verify_linked_system is verify_linked_system
    metrics = tracer.layer_metrics({"surd_ops": t.surd_ops, "spans": t.spans})
    assert metrics["linked.verify_linked_system.calls"] == 1
    # the blocks are certified as one stack: two Gram products, two for
    # A K = K A and one triple product per middle index, no verify_gdd call
    assert metrics["algebra.matmul.calls"] == sys16.params.f + 4
    assert metrics["designs.verify_gdd.calls"] == 0
