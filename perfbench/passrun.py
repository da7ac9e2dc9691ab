"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/passrun.py WORKLOAD SEED PASS_DIR PASS_ID TRACE [--setup-only]

Imports ``sgdd.cli`` and writes the pass plan into PASS_DIR (the set-up a
user's CLI invocation pays), then runs every step through
``sgdd.cli.main(argv)`` inside PASS_DIR and writes ``result.json`` there:
per step its wall time, exit status and the SHA-256 of its stdout and
output files, plus the pass's peak RSS and the environment.  Each step also
gets its reference seconds from a ``speed.Sampler`` that runs from the start
of the process; with ``--setup-only`` the sampler's mean speed (reference
over mean probe) goes to ``setup.json`` instead.  With TRACE = 1 the layers
are traced and the spans go to ``trace.json``.  The caller (``run.py``) owns
every correctness check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import speed
import workloads


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _peak_rss_mb() -> float:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024


def run_pass(cli_main, steps: list[dict], tracer, sampler) -> list[dict]:
    results = []
    for step in steps:
        if "corrupt" in step:
            kind, source, target, seed = step["corrupt"]
            text = Path(source).read_text(encoding="ascii")
            Path(target).write_text(workloads.CORRUPTIONS[kind](text, seed), encoding="ascii")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if tracer is None:
                code = cli_main(step["argv"])
            else:
                code = tracer.call("cli", cli_main, (step["argv"],))
            end = time.perf_counter()
        outputs = {}
        for name in step["outputs"]:
            path = Path(name)
            outputs[name] = _sha(path.read_bytes()) if path.exists() else None
        results.append(
            {
                "id": step["id"],
                "seconds": end - start,
                "ref_seconds": sampler.reference_seconds(start, end),
                "exit": code,
                "stdout": _sha(out.getvalue().encode()),
                "outputs": outputs,
                "stderr": err.getvalue()[-2000:],
            }
        )
    return results


def main(argv: list[str]) -> int:
    workload, seed, pass_dir, pass_id, trace = argv[:5]
    setup_only = "--setup-only" in argv[5:]
    sampler = speed.Sampler(workloads.PROBE[workload])
    sampler.start()
    import sgdd
    import sgdd.cli

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(sgdd.__file__).resolve().parent.parent != src:
        print(f"sgdd imported from {sgdd.__file__}, not from {src}", file=sys.stderr)
        return 2
    steps = workloads.plan(workload, int(seed))
    os.makedirs(pass_dir, exist_ok=True)
    os.chdir(pass_dir)
    Path("plan.json").write_text(json.dumps(steps, indent=1), encoding="ascii")
    if setup_only:
        sampler.stop()
        Path("setup.json").write_text(json.dumps({"speed": sampler.ref / sampler.mean_probe()}), encoding="ascii")
        return 0

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer(int(pass_id))
        tracer.install([m for name, m in sys.modules.items() if name == "sgdd" or name.startswith("sgdd.")])
    results = run_pass(sgdd.cli.main, steps, tracer, sampler)
    sampler.stop()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump("trace.json")
    record = {"steps": results, "peak_rss_mb": _peak_rss_mb(), "env": _environment()}
    Path("result.json").write_text(json.dumps(record), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
