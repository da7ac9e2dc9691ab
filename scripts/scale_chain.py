#!/usr/bin/env python3
"""Run the GF(q) chain of CLI verbs, each in a fresh process, and print the
wall seconds and peak resident MB of each verb (from ``os.wait4``) as JSON,
with the SHA-256 of its stdout and of each file it writes.

    python scripts/scale_chain.py [--q 16] [--out DIR]

The chain builds the auxiliary set of the order-q Hadamard matrix and the
linked family over GF(q), joins them into a linked system (f = q - 1 blocks
per row, v = q^2), certifies it, and certifies a copy with one seeded entry
flipped, which must fail (exit 1).  It then assembles the scheme of
(q - 1) q^2 vertices, certifies it, certifies a copy with one seeded
symmetric pair moved from class 3 to class 4, which must fail (exit 1),
a copy with one seeded symmetric pair of class 1 also set in class 5,
which must fail (exit 1), and a copy with one seeded entry of class 2 set
to 2, which must fail (exit 1), analyses the scheme, extracts the system back
and tests the fusion, writing the fused 3-class scheme.  The extracted
system must equal the constructed one byte for byte.  The files go to
``--out`` (a temporary directory by default).  Two records of
identical output hold the same digests, so comparing the output of two
checkouts at one q is a diff of their records.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FLIPPED = "verify linked-system (one entry flipped)"
MOVED = "verify scheme (one pair moved)"
TWICE = "verify scheme (one pair claimed twice)"
ENTRY_2 = "verify scheme (one entry set to 2)"


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
        (MOVED, ["verify", "scheme", "bad.scm"], 1),
        (TWICE, ["verify", "scheme", "twice.scm"], 1),
        (ENTRY_2, ["verify", "scheme", "two.scm"], 1),
        ("analyze", ["scheme", "analyze", "--in", "scheme.scm"], 0),
        ("extract", ["scheme", "extract", "--in", "scheme.scm", "-o", "back.lsys"], 0),
        ("fusion", ["scheme", "fusion", "--in", "scheme.scm", "-o", "fused.scm"], 0),
    ]


class DigitBlocks:
    """A file of square 0/1 digit blocks (a header line, then per block a
    size line and rows of one digit and one separator per entry, as the
    linked-system and scheme writers lay them out), opened to be patched in
    place entry by entry, so no copy of it is held in memory: a verb's peak
    resident size counts the peak of the process that started it."""

    def __init__(self, path: Path):
        self.file = open(path, "r+b")
        self.header = self.file.readline()
        self.size = int(self.header.split()[1])
        self.size_line = f"{self.size} {self.size}\n".encode()

    def at(self, block: int, row: int, col: int = 0) -> int:
        """The offset of entry (row, col) of a block."""
        head = len(self.header) + block * (len(self.size_line) + 2 * self.size * self.size)
        self.file.seek(head)
        if self.file.read(len(self.size_line)) != self.size_line:
            raise SystemExit(f"{self.file.name}: block {block} is not where a file of digit blocks holds it")
        return head + len(self.size_line) + 2 * (row * self.size + col)

    def row(self, block: int, row: int) -> bytes:
        self.file.seek(self.at(block, row))
        return self.file.read(2 * self.size)[::2]

    def put(self, block: int, row: int, col: int, digit: bytes):
        self.file.seek(self.at(block, row, col))
        self.file.write(digit)


def flip_one_entry(src: Path, dst: Path, seed: int = 0):
    """Copy the linked-system file ``src`` to ``dst`` with one seeded entry
    of some A_ij flipped, in an off-diagonal group block, so that A + K
    stays 0/1 and only the design and triple-product laws can catch it."""
    rng = random.Random(seed)
    shutil.copyfile(src, dst)
    blocks = DigitBlocks(dst)
    with blocks.file:
        f, v, m, n = (int(x) for x in blocks.header.split()[:4])
        block, row = rng.randrange(f * (f - 1)), rng.randrange(v)
        col = rng.choice([c for c in range(v) if c // n != row // n])
        blocks.put(block, row, col, b"1" if blocks.row(block, row)[col : col + 1] == b"0" else b"0")


def seeded_pair(classes: DigitBlocks, c: int, rng: random.Random) -> tuple[int, int]:
    """A seeded pair (x, y), x < y, of class c of a scheme file."""
    ones = []
    while not ones:  # a row of class c with a 1 right of the diagonal
        x = rng.randrange(classes.size)
        row = classes.row(c, x)
        ones = [y for y in range(x + 1, classes.size) if row[y] == ord("1")]
    return x, rng.choice(ones)


def move_one_pair(src: Path, dst: Path, seed: int = 0):
    """Copy the scheme file ``src`` to ``dst`` with one seeded symmetric
    pair (x, y), (y, x) moved from class 3 to class 4, which keeps every
    class 0/1 and symmetric and their sum J, so only the intersection
    numbers can catch it."""
    shutil.copyfile(src, dst)
    classes = DigitBlocks(dst)
    with classes.file:
        x, y = seeded_pair(classes, 3, random.Random(seed))
        for a, b in ((x, y), (y, x)):
            classes.put(3, a, b, b"0")
            classes.put(4, a, b, b"1")


def claim_one_pair_twice(src: Path, dst: Path, seed: int = 0):
    """Copy the scheme file ``src`` to ``dst`` with one seeded symmetric
    pair (x, y), (y, x) of class 1 also set in class 5, so the classes sum
    to 2 there and the reader holds class 5 beside its label array."""
    shutil.copyfile(src, dst)
    classes = DigitBlocks(dst)
    with classes.file:
        x, y = seeded_pair(classes, 1, random.Random(seed))
        for a, b in ((x, y), (y, x)):
            classes.put(5, a, b, b"1")


def set_one_entry_to_2(src: Path, dst: Path, seed: int = 0):
    """Copy the scheme file ``src`` to ``dst`` with one seeded entry of
    class 2 set to 2, so class 2 is no 0/1 matrix and the reader holds it
    beside its label array."""
    rng = random.Random(seed)
    shutil.copyfile(src, dst)
    classes = DigitBlocks(dst)
    with classes.file:
        classes.put(2, rng.randrange(classes.size), rng.randrange(classes.size), b"2")


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_verb(argv: list[str], cwd: Path) -> tuple[int, float, float, str]:
    """Exit status, wall seconds, peak resident MB and the SHA-256 of the
    stdout of ``sgdd`` with ``argv`` in a fresh interpreter.  The stdout
    goes to a file, not a pipe, so the child never waits on a reader."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sgdd.cli", *argv], cwd=cwd, env=env, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        stdout = hashlib.sha256(out.read()).hexdigest()
    return proc.returncode, seconds, usage.ru_maxrss / 1024, stdout


def measure(q: int, out: Path) -> dict:
    steps = []
    for name, argv, want in chain(q):
        if name == FLIPPED:
            flip_one_entry(out / "sys.lsys", out / "bad.lsys")
        if name == MOVED:
            move_one_pair(out / "scheme.scm", out / "bad.scm")
        if name == TWICE:
            claim_one_pair_twice(out / "scheme.scm", out / "twice.scm")
        if name == ENTRY_2:
            set_one_entry_to_2(out / "scheme.scm", out / "two.scm")
        code, seconds, peak, stdout = run_verb(argv, out)
        if code != want:
            raise SystemExit(f"{name}: exit status {code}, expected {want}")
        written = {path: sha256(out / path) for flag, path in zip(argv, argv[1:]) if flag == "-o"}
        steps.append({"verb": name, "seconds": round(seconds, 3), "peak_mb": round(peak, 1), "stdout_sha256": stdout, "files_sha256": written})
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
