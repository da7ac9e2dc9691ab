#!/usr/bin/env python3
"""Run the GF(q) chain of CLI verbs, each in a fresh process, and print the
wall seconds and peak resident MB of each verb (from ``os.wait4``) as JSON.

    python scripts/scale_chain.py [--q 16] [--out DIR]

The chain builds the auxiliary set of the order-q Hadamard matrix and the
linked family over GF(q), joins them into a linked system (f = q - 1 blocks
per row, v = q^2), certifies it, and certifies a copy with one seeded entry
flipped, which must fail (exit 1).  It then assembles the scheme of
(q - 1) q^2 vertices, certifies and analyses the scheme, extracts the system
back and tests the fusion.  The extracted system must equal the constructed
one byte for byte.  The files go to ``--out`` (a temporary directory by
default).
"""

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FLIPPED = "verify linked-system (one entry flipped)"


def chain(q: int) -> list[tuple[str, list[str], int]]:
    """(name, CLI arguments, expected exit status) of every verb in order."""
    return [
        ("hadamard-aux", ["construct", "hadamard-aux", "--order", str(q), "-o", "had.aux"], 0),
        ("linked-mols", ["construct", "linked-mols", "--q", str(q), "-o", "gf.fam"], 0),
        ("tilde-l", ["construct", "tilde-l", "--aux", "had.aux", "--mols", "gf.fam", "-o", "sys.lsys"], 0),
        ("verify linked-system", ["verify", "linked-system", "sys.lsys"], 0),
        (FLIPPED, ["verify", "linked-system", "bad.lsys"], 1),
        ("assemble", ["scheme", "assemble", "--in", "sys.lsys", "-o", "scheme.scm"], 0),
        ("verify scheme", ["verify", "scheme", "scheme.scm"], 0),
        ("analyze", ["scheme", "analyze", "--in", "scheme.scm"], 0),
        ("extract", ["scheme", "extract", "--in", "scheme.scm", "-o", "back.lsys"], 0),
        ("fusion", ["scheme", "fusion", "--in", "scheme.scm"], 0),
    ]


def flip_one_entry(src: Path, dst: Path, seed: int = 0):
    """Copy the linked-system file ``src`` to ``dst`` with one seeded entry
    of some A_ij flipped, in an off-diagonal group block, so that A + K
    stays 0/1 and only the design and triple-product laws can catch it."""
    rng = random.Random(seed)
    lines = src.read_bytes().split(b"\n")
    f, v, m, n = (int(x) for x in lines[0].split()[:4])
    block, row = rng.randrange(f * (f - 1)), rng.randrange(v)
    col = rng.choice([c for c in range(v) if c // n != row // n])
    line = 1 + block * (v + 1) + 1 + row  # the header, then a size line and v rows per block
    entries = lines[line].split(b" ")
    entries[col] = b"1" if entries[col] == b"0" else b"0"
    lines[line] = b" ".join(entries)
    dst.write_bytes(b"\n".join(lines))


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
        if name == FLIPPED:
            flip_one_entry(out / "sys.lsys", out / "bad.lsys")
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
