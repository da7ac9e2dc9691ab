#!/usr/bin/env python3
"""Run the GF(q) chain of CLI verbs, each in a fresh process, and print the
wall seconds and peak resident MB of each verb (from ``os.wait4``) as JSON.

    python scripts/scale_chain.py [--q 16] [--out DIR]

The chain builds the auxiliary set of the order-q Hadamard matrix and the
linked family over GF(q), joins them into a linked system (f = q - 1 blocks
per row, v = q^2), certifies it, assembles its scheme of (q - 1) q^2
vertices, certifies and analyses the scheme, extracts the system back and
tests the fusion.  The extracted system must equal the constructed one byte
for byte.  The files go to ``--out`` (a temporary directory by default).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def chain(q: int) -> list[tuple[str, list[str], int]]:
    """(name, CLI arguments, expected exit status) of every verb in order."""
    return [
        ("hadamard-aux", ["construct", "hadamard-aux", "--order", str(q), "-o", "had.aux"], 0),
        ("linked-mols", ["construct", "linked-mols", "--q", str(q), "-o", "gf.fam"], 0),
        ("tilde-l", ["construct", "tilde-l", "--aux", "had.aux", "--mols", "gf.fam", "-o", "sys.lsys"], 0),
        ("verify linked-system", ["verify", "linked-system", "sys.lsys"], 0),
        ("assemble", ["scheme", "assemble", "--in", "sys.lsys", "-o", "scheme.scm"], 0),
        ("verify scheme", ["verify", "scheme", "scheme.scm"], 0),
        ("analyze", ["scheme", "analyze", "--in", "scheme.scm"], 0),
        ("extract", ["scheme", "extract", "--in", "scheme.scm", "-o", "back.lsys"], 0),
        ("fusion", ["scheme", "fusion", "--in", "scheme.scm"], 0),
    ]


def run_verb(argv: list[str], cwd: Path) -> tuple[int, float, float]:
    """Exit status, wall seconds and peak resident MB of ``sgdd`` with
    ``argv`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "sgdd.cli", *argv], cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, seconds, usage.ru_maxrss / 1024


def measure(q: int, out: Path) -> dict:
    steps = []
    for name, argv, want in chain(q):
        code, seconds, peak = run_verb(argv, out)
        if code != want:
            raise SystemExit(f"{name}: exit status {code}, expected {want}")
        steps.append({"verb": name, "seconds": round(seconds, 3), "peak_mb": round(peak, 1)})
    roundtrip = (out / "back.lsys").read_bytes() == (out / "sys.lsys").read_bytes()
    if not roundtrip:
        raise SystemExit("the extracted system differs from the constructed one")
    sizes = {name: (out / name).stat().st_size for name in ("sys.lsys", "scheme.scm")}
    return {"q": q, "vertices": (q - 1) * q * q, "bytes": sizes, "steps": steps, "roundtrip": roundtrip}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--q", type=int, default=16, help="field order: a power of 2, at least 4")
    ap.add_argument("--out", help="directory for the chain's files (default: a temporary one)")
    args = ap.parse_args()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        record = measure(args.q, out)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            record = measure(args.q, Path(tmp))
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
