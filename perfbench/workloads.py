"""The three benchmark pipelines, as lists of CLI steps, and the seeded
fail-closed controls.

A step is a dict:

* ``id``: unique within the workload; keys the recorded digests;
* ``kind``: the verb family its time is summed into (``construct``,
  ``search``, ``verify``, ``assemble``, ``analyze``, ``extract``, ``fusion``,
  ``scan``);
* ``argv``: arguments for ``sgdd.cli.main``, with paths relative to the pass
  directory;
* ``exit``: the exit status the step must return;
* ``outputs``: files the step writes, whose bytes are gated;
* ``digest``: whether stdout and ``outputs`` are compared with the digests
  recorded at the seed commit (controls are not: their report names the
  seeded position);
* ``corrupt``: for a control, ``(kind, source, target, seed)``: before the
  step the pass writes ``target``, a copy of ``source`` with the corruption
  ``CORRUPTIONS[kind]`` draws from ``seed``;
* ``equals``: a file that ``outputs[0]`` must equal byte for byte;
* ``golden``: ``(name, vmax)``: the rows of ``outputs[0]`` with v <= vmax
  must equal ``tests/golden/<name>``.

The seed never changes what a pipeline computes, only where the controls
corrupt and the order of steps that do not depend on each other, so one set
of recorded digests serves every seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("gf8-448", "desk-schemes", "scan")

# the speed.PROBES kernel most like each workload's hot code
PROBE = {"gf8-448": "int64", "desk-schemes": "mix", "scan": "int"}

KINDS = ("construct", "search", "verify", "assemble", "analyze", "extract", "fusion", "scan")


def _step(id_, kind, argv, outputs=(), exit_=0, **extra):
    step = {"id": id_, "kind": kind, "argv": list(argv), "exit": exit_, "outputs": list(outputs), "digest": True}
    step.update(extra)
    return step


def _scheme_steps(name: str, system: str) -> list[dict]:
    """assemble, analyze, extract and fusion of the scheme of one system file."""
    scm = f"{name}.scm"
    back = f"{name}.back.lsys"
    return [
        _step(f"{name}.assemble", "assemble", ["scheme", "assemble", "--in", system, "-o", scm], [scm]),
        _step(f"{name}.analyze", "analyze", ["scheme", "analyze", "--in", scm]),
        _step(f"{name}.extract", "extract", ["scheme", "extract", "--in", scm, "-o", back], [back], equals=system),
        _step(f"{name}.fusion", "fusion", ["scheme", "fusion", "--in", scm]),
    ]


def _control(id_, kind, argv, corrupt):
    step = _step(id_, kind, argv, exit_=1, corrupt=corrupt)
    step["digest"] = False
    return step


def _gf8_448(rng: random.Random) -> list[dict]:
    steps = [
        _step("had8", "construct", ["construct", "hadamard-aux", "--order", "8", "-o", "had8.aux"], ["had8.aux"]),
        _step("gf8", "construct", ["construct", "linked-mols", "--q", "8", "-o", "gf8.fam"], ["gf8.fam"]),
        _step(
            "sys64",
            "construct",
            ["construct", "tilde-l", "--aux", "had8.aux", "--mols", "gf8.fam", "-o", "sys64.lsys"],
            ["sys64.lsys"],
        ),
        _step("sys64.verify", "verify", ["verify", "linked-system", "sys64.lsys"]),
    ]
    scheme = _scheme_steps("s448", "sys64.lsys")
    steps += scheme[:1]
    steps.append(_step("s448.verify", "verify", ["verify", "scheme", "s448.scm"]))
    steps += scheme[1:]
    sys_seed, scm_seed = rng.randrange(2**32), rng.randrange(2**32)
    steps += [
        _control(
            "control.system.verify",
            "verify",
            ["verify", "linked-system", "bad.lsys"],
            ("system", "sys64.lsys", "bad.lsys", sys_seed),
        ),
        _control(
            "control.system.assemble",
            "verify",
            ["scheme", "assemble", "--in", "bad.lsys", "-o", "bad-assembled.scm"],
            ("system", "sys64.lsys", "bad.lsys", sys_seed),
        ),
        _control(
            "control.scheme.verify",
            "verify",
            ["verify", "scheme", "bad.scm"],
            ("scheme", "s448.scm", "bad.scm", scm_seed),
        ),
        _control(
            "control.scheme.analyze",
            "verify",
            ["scheme", "analyze", "--in", "bad.scm"],
            ("scheme", "s448.scm", "bad.scm", scm_seed),
        ),
    ]
    return steps


def _desk_schemes(rng: random.Random) -> list[dict]:
    chains = [
        [
            _step("o53", "search", ["oracle", "linked-mols", "--order", "5", "--f", "3", "-o", "o53.fam"], ["o53.fam"]),
            _step("o55", "search", ["oracle", "linked-mols", "--order", "5", "--f", "5", "-o", "o55.fam"], ["o55.fam"]),
            _step("ag3", "construct", ["construct", "ag-aux", "--q", "3", "-o", "ag3.aux"], ["ag3.aux"]),
            _step(
                "sys45f3",
                "construct",
                ["construct", "tilde-l", "--aux", "ag3.aux", "--mols", "o53.fam", "-o", "sys45f3.lsys"],
                ["sys45f3.lsys"],
            ),
            _step(
                "sys45f5",
                "construct",
                ["construct", "tilde-l", "--aux", "ag3.aux", "--mols", "o55.fam", "-o", "sys45f5.lsys"],
                ["sys45f5.lsys"],
            ),
        ],
        [
            _step("had4", "construct", ["construct", "hadamard-aux", "--order", "4", "-o", "had4.aux"], ["had4.aux"]),
            _step("gf4", "construct", ["construct", "linked-mols", "--q", "4", "-o", "gf4.fam"], ["gf4.fam"]),
            _step(
                "sys16",
                "construct",
                ["construct", "tilde-l", "--aux", "had4.aux", "--mols", "gf4.fam", "-o", "sys16.lsys"],
                ["sys16.lsys"],
            ),
        ],
        [
            _step("bush", "search", ["oracle", "bush", "--n", "2", "--f", "2", "-o", "bush.hset"], ["bush.hset"]),
            _step("mub16", "construct", ["construct", "mub-system", "--in", "bush.hset", "-o", "mub16.lsys"], ["mub16.lsys"]),
        ],
        [
            _step(
                "conf12",
                "construct",
                ["construct", "conference-gdd", "--order", "6", "-o", "conf12.mat", "--params-out", "conf12.params"],
                ["conf12.mat", "conf12.params"],
            ),
        ],
        [
            _step("bgw5", "construct", ["construct", "bgw", "--q", "5", "-o", "bgw5.gcm"], ["bgw5.gcm"]),
            _step(
                "gcm24",
                "construct",
                ["construct", "gcm-gdd", "--in", "bgw5.gcm", "-o", "gcm24.mat", "--params-out", "gcm24.params"],
                ["gcm24.mat", "gcm24.params"],
            ),
        ],
        [
            _step(
                "twin16",
                "construct",
                ["construct", "twin", "--order", "4", "-o", "twin16", "--params-out", "twin16.params"],
                ["twin16.plus.mat", "twin16.minus.mat", "twin16.params"],
            ),
        ],
    ]
    schemes = [_scheme_steps(name, f"{name}.lsys") for name in ("sys16", "sys45f3", "sys45f5")]
    rng.shuffle(chains)
    rng.shuffle(schemes)
    return [step for chain in chains + schemes for step in chain]


def _scan(rng: random.Random) -> list[dict]:
    steps = [
        _step(
            "table1",
            "scan",
            ["scan", "table1", "--vmax", "100000", "-o", "table1.csv"],
            ["table1.csv"],
            golden=("table1.csv", 1000),
        ),
        _step(
            "table2",
            "scan",
            ["scan", "table2", "--vmax", "5000", "-o", "table2.csv"],
            ["table2.csv"],
            golden=("table2.csv", 500),
        ),
    ]
    rng.shuffle(steps)
    return steps


_PIPELINES = {"gf8-448": _gf8_448, "desk-schemes": _desk_schemes, "scan": _scan}


def plan(workload: str, seed: int) -> list[dict]:
    """The steps of one pass of ``workload`` for ``seed``."""
    return _PIPELINES[workload](random.Random(f"{workload}:{seed}"))


# -- seeded corruptions ------------------------------------------------------------


def _matrix_row_line(header_lines: int, size: int, index: int, row: int) -> int:
    """Line number of row ``row`` of the ``index``-th square matrix of order
    ``size`` in a file whose matrices follow ``header_lines`` lines."""
    return header_lines + index * (size + 1) + 1 + row


def _set_entry(lines: list[str], line: int, col: int, value: int):
    entries = lines[line].split(" ")
    entries[col] = str(value)
    lines[line] = " ".join(entries)


def corrupt_system(text: str, seed: int) -> str:
    """Flip one entry of a linked-system file that lies in an off-diagonal
    group block of some A_{i,j}, so that A + K stays 0/1 and only the design
    and triple-product identities can catch it."""
    rng = random.Random(seed)
    lines = text.split("\n")
    f, v, m, n = (int(x) for x in lines[0].split()[:4])
    block = rng.randrange(f * (f - 1))
    row = rng.randrange(v)
    col = rng.choice([c for c in range(v) if c // n != row // n])
    line = _matrix_row_line(1, v, block, row)
    old = int(lines[line].split(" ")[col])
    _set_entry(lines, line, col, 1 - old)
    return "\n".join(lines)


def corrupt_scheme(text: str, seed: int) -> str:
    """Move one symmetric pair of entries from class 3 to class 4, which
    keeps every class 0/1 and symmetric and their sum J."""
    rng = random.Random(seed)
    lines = text.split("\n")
    size = int(lines[0].split()[1])
    ones = []
    for row in range(size):
        entries = lines[_matrix_row_line(1, size, 3, row)].split(" ")
        ones += [(row, col) for col in range(row + 1, size) if entries[col] == "1"]
    x, y = rng.choice(ones)
    for a, b in ((x, y), (y, x)):
        _set_entry(lines, _matrix_row_line(1, size, 3, a), b, 0)
        _set_entry(lines, _matrix_row_line(1, size, 4, a), b, 1)
    return "\n".join(lines)


CORRUPTIONS = {"system": corrupt_system, "scheme": corrupt_scheme}
