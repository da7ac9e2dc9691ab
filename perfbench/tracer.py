"""Spans around the calls into sgdd's layers, recorded from outside the
package, and the per-layer metrics derived from them.

``Tracer.install`` replaces each traced function by a wrapper in every
``sgdd`` module namespace that binds it, so calls made inside the package
are seen as well as calls made by the CLI.  ``IntMatrix.__matmul__`` and the
``Surd`` operators are patched on their classes.  A span is
``[name, start, end, parent, attrs]``; a call into a layer whose span is
already open (for example ``format_matrix`` inside ``format_linked_system``)
is folded into the open span, so every layer's time and bytes count once.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# layer name -> (module, function names)
LAYERS = {
    "schemes.intersection_numbers": ("sgdd.schemes", ("compute_intersection_numbers",)),
    "schemes.spectra": ("sgdd.schemes", ("compute_spectra",)),
    "schemes.krein": ("sgdd.schemes", ("compute_krein",)),
    "schemes.assemble": ("sgdd.schemes", ("assemble_scheme",)),
    "schemes.extract": ("sgdd.schemes", ("extract_linked_system",)),
    "schemes.fusion": ("sgdd.schemes", ("check_fusion",)),
    "designs.verify_gdd": ("sgdd.designs", ("verify_gdd",)),
    "linked.verify_linked_system": ("sgdd.linked", ("verify_linked_system",)),
    "linked.construct": (
        "sgdd.linked",
        ("build_tilde_l", "build_from_mub_bush", "build_twin", "conference_to_gdd", "gcm_to_gdd", "bgw_generate"),
    ),
    "linked.bush_search": ("sgdd.linked", ("bush_search",)),
    "latin.search_linked_mols": ("sgdd.latin", ("search_linked_mols",)),
    "scanner.table1": ("sgdd.scanner", ("scan_table1",)),
    "scanner.table2": ("sgdd.scanner", ("scan_table2",)),
}

SURD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__")

# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "algebra.matmul.calls": "count",
    "algebra.matmul.s": "s",
    "algebra.matmul.madds": "count",
    "algebra.matmul.gmadd_per_s": "Gmadd/s",
    "algebra.matmul.bytes": "B",
    "algebra.matmul.lane_int64": "count",
    "algebra.matmul.lane_object": "count",
    "algebra.surd.ops": "count",
    "schemes.intersection_numbers.calls": "count",
    "schemes.intersection_numbers.s": "s",
    "schemes.spectra.calls": "count",
    "schemes.spectra.s": "s",
    "schemes.krein.calls": "count",
    "schemes.krein.s": "s",
    "schemes.assemble.self_s": "s",
    "schemes.extract.self_s": "s",
    "schemes.fusion.self_s": "s",
    "designs.verify_gdd.calls": "count",
    "designs.verify_gdd.s": "s",
    "designs.certificate.checks": "count",
    "linked.verify_linked_system.calls": "count",
    "linked.verify_linked_system.s": "s",
    "linked.triple_products": "count",
    "linked.construct.self_s": "s",
    "latin.search_linked_mols.s": "s",
    "linked.bush_search.s": "s",
    "fileio.parse.s": "s",
    "fileio.parse.bytes": "B",
    "fileio.format.s": "s",
    "fileio.format.bytes": "B",
    "scanner.table1.s": "s",
    "scanner.table2.s": "s",
    "scanner.cells": "count",
    "scanner.rows": "count",
    "scanner.yield": "ratio",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}

_INT64_SAFE = 2**62  # the bound IntMatrix.__matmul__ gates its int64 lane on


def _checks(result) -> int:
    """Identities passed, read from a returned certificate or a
    ``(value, certificate)`` pair."""
    cert = result[1] if isinstance(result, tuple) else result
    return len(getattr(cert, "checks", ()))


def _matmul_attrs(args, result):
    a, b = args
    rows, inner, cols = a.rows, a.cols, b.cols
    bound = max(a.max_abs(), 1) * max(b.max_abs(), 1) * max(inner, 1)
    int64 = a.a.dtype.kind == "i" and b.a.dtype.kind == "i" and bound < _INT64_SAFE
    return {
        "madds": rows * inner * cols,
        "bytes": a.a.nbytes + b.a.nbytes + result.a.nbytes,
        "lane": "int64" if int64 else "object",
    }


def _scan_cells(v_max: int) -> int:
    """Size of the (m, n) grid a scan walks for ``v_max``: 3 <= m, 2 <= n, mn <= v_max."""
    return sum(max(0, v_max // m - 1) for m in range(3, v_max // 2 + 1))


def _scan_attrs(args, result):
    return {"cells": _scan_cells(args[0]), "rows": len(result)}


def _linked_attrs(args, result):
    f = args[0].params.f
    return {"triples": f * (f - 1) * (f - 2) if f >= 3 else 0, "checks": _checks(result)}


def _certifier_attrs(args, result):
    return {"checks": _checks(result)}


def _parse_attrs(args, result):
    return {"bytes": len(args[0])}


def _format_attrs(args, result):
    return {"bytes": len(result)}


_ATTRS = {
    "schemes.intersection_numbers": _certifier_attrs,
    "schemes.spectra": _certifier_attrs,
    "schemes.krein": _certifier_attrs,
    "designs.verify_gdd": _certifier_attrs,
    "linked.verify_linked_system": _linked_attrs,
    "scanner.table1": _scan_attrs,
    "scanner.table2": _scan_attrs,
    "fileio.parse": _parse_attrs,
    "fileio.format": _format_attrs,
}


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.surd_ops = 0
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._in_surd = False
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        kwargs = kwargs or {}
        if name in self._open:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._open.add(name)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            span[1] = start
            self._stack.pop()
            self._open.discard(name)
        if attrs is not None:
            span[4] = attrs(args, result)
        return result

    def _wrap(self, name: str, fn):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return traced

    def _count_surd(self, fn):
        @functools.wraps(fn)
        def counted(a, b):
            if self._in_surd:
                return fn(a, b)
            self._in_surd = True
            self.surd_ops += 1
            try:
                return fn(a, b)
            finally:
                self._in_surd = False

        return counted

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, modules):
        """Wrap the traced functions in every module of ``modules`` (the
        loaded ``sgdd`` modules) that binds them."""
        by_name = {m.__name__: m for m in modules}
        targets = {}  # original function -> wrapper
        for layer, (module, names) in LAYERS.items():
            for fname in names:
                fn = getattr(by_name[module], fname)
                targets[fn] = self._wrap(layer, fn)
        fileio = by_name["sgdd.fileio"]
        for fname, fn in vars(fileio).items():
            if callable(fn) and fname.startswith(("parse_", "format_")):
                targets[fn] = self._wrap("fileio." + fname.split("_", 1)[0], fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in targets:
                    self._patch(mod, attr, targets[value])
        algebra = by_name["sgdd.algebra"]
        matmul = algebra.IntMatrix.__matmul__

        def traced_matmul(a, b):
            return self.call("algebra.matmul", matmul, (a, b), None, _matmul_attrs)

        self._patch(algebra.IntMatrix, "__matmul__", traced_matmul)
        for op in SURD_OPS:
            self._patch(algebra.Surd, op, self._count_surd(getattr(algebra.Surd, op)))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def dump(self, path):
        with open(path, "w", encoding="ascii") as out:
            json.dump({"pass": self.pass_id, "surd_ops": self.surd_ops, "spans": self.spans}, out)


# -- metrics from spans ----------------------------------------------------------


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer counts, times and self times of one traced pass."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    total = Counter()
    for idx, (name, start, end, _, attrs) in enumerate(spans):
        total[name + ".calls"] += 1
        total[name + ".s"] += end - start
        total[name + ".self_s"] += end - start - child_time[idx]
        for key, value in (attrs or {}).items():
            if key == "lane":
                total[f"{name}.lane_{value}"] += 1
            else:
                total[f"{name}.{key}"] += value
    checks = sum(total[f"{layer}.checks"] for layer in _ATTRS)
    cells = total["scanner.table1.cells"] + total["scanner.table2.cells"]
    rows = total["scanner.table1.rows"] + total["scanner.table2.rows"]
    matmul_s = total["algebra.matmul.s"]
    derived = {
        "algebra.matmul.gmadd_per_s": total["algebra.matmul.madds"] / matmul_s / 1e9 if matmul_s else 0.0,
        "algebra.surd.ops": trace["surd_ops"],
        "designs.certificate.checks": checks,
        "linked.triple_products": total["linked.verify_linked_system.triples"],
        "scanner.cells": cells,
        "scanner.rows": rows,
        "scanner.yield": rows / cells if cells else 0.0,
    }
    return {name: derived.get(name, total[name]) for name in LAYER_METRICS if name != "trace.overhead"}
