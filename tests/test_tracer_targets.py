"""The benchmark's tracer wraps sgdd functions by name; a renamed or deleted
target would make ``perfbench --trace 1`` fail or go silent.  The tracer
module is loaded read-only from its file."""

import importlib
import importlib.util
import sys
from pathlib import Path

import sgdd.cli  # loads every module the tracer patches
import sgdd.linked
from sgdd import fileio
from sgdd.algebra import IntMatrix, Surd
from sgdd.latin import verify_linked
from sgdd.linked import verify_linked_system
from sgdd.resolvable import verify_auxiliary

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


def _traced(tracer, call):
    """The layer metrics of one traced ``call()``, which must certify; it
    looks its function up while the tracer is installed."""
    t = tracer.Tracer(0)
    t.install([mod for name, mod in sys.modules.items() if name == "sgdd" or name.startswith("sgdd.")])
    try:
        assert call().ok
    finally:
        t.uninstall()
    return tracer.layer_metrics({"surd_ops": t.surd_ops, "spans": t.spans})


def test_tracer_records_a_certification(sys16, aux_ag23, fam_gf4):
    tracer = _load_tracer()
    metrics = _traced(tracer, lambda: sgdd.linked.verify_linked_system(sys16))
    assert sgdd.linked.verify_linked_system is verify_linked_system
    assert metrics["linked.verify_linked_system.calls"] == 1
    # the blocks are certified as one stack: the grids of every middle
    # index as one product, which gives the triple law and both Gram
    # identities; A K = K A as row sums over the groups; no verify_gdd call
    assert metrics["algebra.matmul.calls"] == 1
    assert metrics["designs.verify_gdd.calls"] == 0
    # one grid of C_a C_b^T; the two grids of every third index of a linked
    # family as two batches
    assert _traced(tracer, lambda: verify_auxiliary(aux_ag23))["algebra.matmul.calls"] == 1
    assert _traced(tracer, lambda: verify_linked(fam_gf4))["algebra.matmul.calls"] == 2


def test_traced_cli_reads_and_writes_files(sys16, tmp_path):
    """The CLI under the installed tracer, which wraps every ``fileio``
    function named ``parse_*`` or ``format_*`` and takes len() of its first
    argument and its result: verifying and assembling the sys16 file exits
    0, so no such name takes a stream or returns a generator."""
    lsys, scm = tmp_path / "sys16.lsys", tmp_path / "scheme48.scm"
    lsys.write_bytes(b"".join(fileio.linked_system_chunks(sys16)))
    t = _load_tracer().Tracer(0)
    t.install([mod for name, mod in sys.modules.items() if name == "sgdd" or name.startswith("sgdd.")])
    try:
        assert sgdd.cli.main(["verify", "linked-system", str(lsys)]) == 0
        assert sgdd.cli.main(["scheme", "assemble", "--in", str(lsys), "-o", str(scm)]) == 0
    finally:
        t.uninstall()
    assert scm.read_bytes() == b"".join(fileio.scheme_chunks(sgdd.schemes.assemble_scheme(sys16).relation))
