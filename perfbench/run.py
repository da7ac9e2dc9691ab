"""sgdd benchmark: times the user-facing CLI over three pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Every pass runs in a fresh interpreter (``passrun.py``), so no cache such as
``gf.gf_make``'s ``lru_cache`` carries over from one pass to the next.  With
``--trace 0`` the run times a fresh set-up before each pass, runs passes
until ``--seconds`` have gone (at least one), tops the set-ups up to
``SETUP_PROBES`` and reports medians of the end-to-end metrics, in the
reference seconds of ``speed.py``.  With ``--trace 1`` it runs one untraced
and one traced pass and reports the per-layer metrics of the traced one.
Children run with ``PYTHONHASHSEED=0``.  Every pass is gated: exit
statuses, output digests recorded at the seed commit, the golden scan rows
and the extract round trip.  ``--record`` rewrites ``expected.json`` from
one pass of each workload.

The last stdout line is the result: ``correct``, ``attempted`` and
``failed`` count CLI operations.  The line before it, also written to
``.perfbench/<run>/result.json``, holds every metric, the environment and
the failures.  The exit status is 0 only when every operation passed its
gate; it is 2, with no result, when the sgdd sources are not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"
GOLDEN = ROOT / "tests" / "golden"

SETUP_PROBES = 9
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
VERB_METRICS = {f"{kind}_s": "s" for kind in workloads.KINDS}
WALL_METRICS = {"pass_wall_s": "s"}


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["TMPDIR"] = str(work)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list[str], env: dict, timeout: float) -> tuple[int | None, str]:
    """Run passrun.py; on timeout kill its whole process group (scan pool
    workers included) and wait for it."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passrun.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        return None, "timed out\n" + err
    return proc.returncode, err


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


# -- gate ------------------------------------------------------------------------------


def _golden_rows_match(path: Path, golden: str, vmax: int) -> bool:
    lines = path.read_text(encoding="ascii").splitlines()
    head = [lines[0]] + [line for line in lines[1:] if int(line.split(",", 1)[0]) <= vmax]
    return head == (GOLDEN / golden).read_text(encoding="ascii").splitlines()


def gate(workload: str, steps: list[dict], results: list[dict], pass_dir: Path, expected: dict | None) -> list[str]:
    """One line per failed operation; an operation fails on a wrong exit
    status, a digest that differs from the recorded one, a scan whose
    golden rows differ, or an extract that does not round-trip."""
    failures = []
    for step, res in zip(steps, results):
        problems = []
        if res["exit"] != step["exit"]:
            problems.append(f"exit {res['exit']}, expected {step['exit']}: {res['stderr'].strip()[-300:]}")
        if step["digest"] and expected is not None:
            want = expected[workload].get(step["id"], {})
            if res["stdout"] != want.get("stdout"):
                problems.append("stdout digest differs")
            problems += [f"{name} digest differs" for name, sha in res["outputs"].items() if sha != want.get("outputs", {}).get(name)]
        out = pass_dir / step["outputs"][0] if step["outputs"] else None
        if "equals" in step and not (out.is_file() and out.read_bytes() == (pass_dir / step["equals"]).read_bytes()):
            problems.append(f"{out.name} differs from {step['equals']}")
        if "golden" in step and not (out.is_file() and _golden_rows_match(out, *step["golden"])):
            problems.append(f"{out.name} rows differ from tests/golden/{step['golden'][0]}")
        if problems:
            failures.append(f"{step['id']}: " + "; ".join(problems))
    return failures


# -- passes ------------------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, work: Path, expected: dict | None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.expected = expected
        self.env = _child_env(work)
        self.steps = workloads.plan(workload, seed)
        self.start = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self.pass_env: dict = {}

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def setup(self, idx: int) -> float:
        pass_dir = self.work / f"setup{idx}"
        t0 = time.perf_counter()
        code, err = _spawn([self.workload, str(self.seed), str(pass_dir), str(idx), "0", "--setup-only"], self.env, self.remaining())
        seconds = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"set-up failed: {err.strip()[-500:]}")
        speed = json.loads((pass_dir / "setup.json").read_text())["speed"]
        shutil.rmtree(pass_dir)
        return seconds * speed

    def run_pass(self, idx: int, trace: bool) -> dict | None:
        """One gated pass; returns its result record, or None if it did not finish."""
        pass_dir = self.work / f"pass{idx}"
        args = [self.workload, str(self.seed), str(pass_dir), str(idx), "1" if trace else "0"]
        code, err = _spawn(args, self.env, self.remaining())
        self.attempted += len(self.steps)
        result_file = pass_dir / "result.json"
        if code != 0 or not result_file.is_file():
            self.failures += [f"{step['id']}: pass {idx} exited {code}" for step in self.steps]
            self.failures[-1] += ": " + err.strip()[-500:]
            return None
        record = json.loads(result_file.read_text())
        self.failures += gate(self.workload, self.steps, record["steps"], pass_dir, self.expected)
        self.pass_env = record["env"]
        if trace:
            trace_file = self.work / "trace.json"
            shutil.move(pass_dir / "trace.json", trace_file)
            record["trace"] = json.loads(trace_file.read_text())
        shutil.rmtree(pass_dir)
        return record

    def verb_times(self, record: dict) -> dict[str, float]:
        kinds = {step["id"]: step["kind"] for step in self.steps}
        times = dict.fromkeys((kind + "_s" for kind in kinds.values()), 0.0)
        for res in record["steps"]:
            times[kinds[res["id"]] + "_s"] += res["ref_seconds"]
        times["pass_s"] = sum(res["ref_seconds"] for res in record["steps"])
        times["pass_wall_s"] = sum(res["seconds"] for res in record["steps"])
        times["peak_rss_mb"] = record["peak_rss_mb"]
        return times

    def environment(self, trace: int, passes: int) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": trace,
            "passes": passes,
            "fresh_process_per_pass": True,
            "pythonhashseed": self.env["PYTHONHASHSEED"],
            "speed_probe": workloads.PROBE[self.workload],
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "git_commit": _git_commit(),
            **self.pass_env,
        }


def measure(run: Run, seconds: int) -> tuple[dict, dict]:
    """End-to-end metrics: medians over the set-up probes and the passes;
    also every sample.  One set-up probe precedes each pass and the rest
    follow the last, so the probes span the run."""
    setups = []
    passes = []
    began = time.monotonic()
    while True:
        t0 = time.monotonic()
        setups.append(run.setup(len(setups)))
        record = run.run_pass(len(passes), trace=False)
        if record is None:
            break
        passes.append(run.verb_times(record))
        last = time.monotonic() - t0
        if time.monotonic() - began >= seconds or run.remaining() < 1.5 * last:
            break
    setups += [run.setup(i) for i in range(len(setups), SETUP_PROBES)]
    samples = {name: [p[name] for p in passes] for name in (passes[0] if passes else ())}
    samples["setup_s"] = setups
    return {name: statistics.median(values) for name, values in samples.items() if values}, samples


def measure_layers(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, the verb times of an untraced
    pass, and the tracing overhead between the two."""
    plain = run.run_pass(0, trace=False)
    traced = run.run_pass(1, trace=True) if plain is not None else None
    if traced is None:
        return {}, {}
    metrics = run.verb_times(plain)
    metrics.update(tracer.layer_metrics(traced["trace"]))
    traced_s = run.verb_times(traced)["pass_s"]
    metrics["trace.overhead"] = traced_s / metrics["pass_s"] - 1
    return metrics, {"pass_s": [metrics["pass_s"], traced_s]}


def record_expected() -> int:
    """Rewrite expected.json from one gated pass of each workload."""
    expected = {}
    for workload in workloads.WORKLOADS:
        work = WORK / f"record-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        run = Run(workload, 0, work, None)
        record = run.run_pass(0, trace=False)
        if record is None or run.failures:
            print("\n".join(run.failures), file=sys.stderr)
            return 1
        digests = {}
        for step, res in zip(run.steps, record["steps"]):
            if step["digest"]:
                digests[step["id"]] = {"stdout": res["stdout"], "outputs": res["outputs"]}
        expected[workload] = dict(sorted(digests.items()))
        print(f"{workload}: {len(digests)} operations recorded", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite expected.json and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sgdd" / "cli.py").is_file() or not GOLDEN.is_dir():
        print(f"error: no sgdd sources and golden tables under {ROOT}", file=sys.stderr)
        return 2
    if args.record:
        return record_expected()
    if args.workload is None:
        parser.error("--workload is required")

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, work, json.loads(EXPECTED.read_text()))
    if args.trace:
        metrics, samples = measure_layers(run)
        names = {**VERB_METRICS, **tracer.LAYER_METRICS}
    else:
        metrics, samples = measure(run, args.seconds)
        names = END_TO_END

    units = {**END_TO_END, **VERB_METRICS, **WALL_METRICS, **tracer.LAYER_METRICS}
    full = {
        "environment": run.environment(args.trace, len(samples.get("pass_s", ()))),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "samples": samples,
        "failures": run.failures,
    }
    (work / "result.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(full))
    failed = len(run.failures)
    correct = failed == 0 and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(run.attempted, 1),
                "failed": failed,
                "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in names.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
