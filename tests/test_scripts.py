"""The scripts in ``scripts/`` run end to end and write what the CLI and the
golden tables hold."""

import hashlib
import json
import runpy
import sys
from pathlib import Path

from sgdd.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *argv: str, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")


def test_build_witnesses_writes_what_the_cli_assembles(tmp_path: Path, monkeypatch, capsys):
    out = tmp_path / "out"
    _run_script("build_witnesses.py", "--out", str(out), monkeypatch=monkeypatch)
    assert "extraction round-trip: True" in capsys.readouterr().out
    cli_scm = tmp_path / "cli.scm"
    assert main(["scheme", "assemble", "--in", str(out / "sys16.lsys"), "-o", str(cli_scm)]) == 0
    assert (out / "scheme48.scm").read_bytes() == cli_scm.read_bytes()
    cli = tmp_path / "cli"
    cli.mkdir()
    for argv in (
        "construct conference-gdd --order 6 -o {}conf12.mat --params-out {}conf12.params",
        "construct bgw --q 5 -o {}bgw654.gcm",
        "construct gcm-gdd --in {}bgw654.gcm -o {}gcm24.mat --params-out {}gcm24.params",
        "construct twin --order 4 -o {}twin16",
        "construct ag-aux --q 3 -o {}ag23.aux",
        "oracle linked-mols --order 5 --f 3 -o {}order5.fam",
        "construct tilde-l --aux {}ag23.aux --mols {}order5.fam -o {}sys45.lsys",
        "scheme assemble --in {}sys45.lsys -o {}scheme135.scm",
        "oracle bush --n 2 --f 2 -o {}bush16.hset",
        "construct mub-system --in {}bush16.hset -o {}mub16.lsys",
    ):
        assert main(argv.replace("{}", f"{cli}/").split()) == 0
    for name in (
        "conf12.mat", "conf12.params", "bgw654.gcm", "gcm24.mat", "gcm24.params", "twin16.plus.mat", "twin16.minus.mat",
        "ag23.aux", "order5.fam", "sys45.lsys", "scheme135.scm", "bush16.hset", "mub16.lsys",
    ):
        assert (out / name).read_bytes() == (cli / name).read_bytes(), name


def test_reproduce_tables_writes_the_golden_tables(tmp_path: Path, monkeypatch):
    out = tmp_path / "out"
    _run_script("reproduce_tables.py", "--out", str(out), monkeypatch=monkeypatch)
    for name in ("table1.csv", "table2.csv"):
        assert (out / name).read_bytes() == (ROOT / "tests" / "golden" / name).read_bytes()


def test_scale_chain_times_every_verb_at_q_4(tmp_path: Path, monkeypatch, capsys):
    """The chain at q = 4 (the 48-vertex scheme), one fresh process per
    verb, reports every verb, the flipped system, the scheme with a moved
    pair, the scheme with a pair claimed twice and the scheme with an entry
    set to 2 rejected, a byte-identical extract round trip and the digest
    of the fused scheme the fusion writes; a second run records the same
    digests of every stdout and written file."""
    _run_script("scale_chain.py", "--q", "4", "--out", str(tmp_path), monkeypatch=monkeypatch)
    record = json.loads(capsys.readouterr().out)
    _run_script("scale_chain.py", "--q", "4", "--out", str(tmp_path / "again"), monkeypatch=monkeypatch)
    again = json.loads(capsys.readouterr().out)
    digests = [(step["stdout_sha256"], step["files_sha256"]) for step in record["steps"]]
    assert digests == [(step["stdout_sha256"], step["files_sha256"]) for step in again["steps"]]
    assert [sorted(files) for _, files in digests] == [
        ["had.aux"], ["gf.fam"], ["sys.lsys"], [], [], ["scheme.scm"], [], [], [], [], [], ["back.lsys"], ["fused.scm"],
    ]
    assert digests[11][1]["back.lsys"] == hashlib.sha256((tmp_path / "sys.lsys").read_bytes()).hexdigest()
    fused = tmp_path / "cli-fused.scm"
    assert main(["scheme", "fusion", "--in", str(tmp_path / "scheme.scm"), "-o", str(fused)]) == 0
    assert fused.read_bytes().startswith(b"3 48\n")
    assert digests[12][1]["fused.scm"] == hashlib.sha256(fused.read_bytes()).hexdigest()
    assert (record["q"], record["vertices"], record["roundtrip"]) == (4, 48, True)
    assert [step["verb"] for step in record["steps"]] == [
        "hadamard-aux", "linked-mols", "tilde-l", "verify linked-system",
        "verify linked-system (one entry flipped)", "assemble", "verify scheme", "verify scheme (one pair moved)",
        "verify scheme (one pair claimed twice)", "verify scheme (one entry set to 2)", "analyze", "extract", "fusion",
    ]
    assert all(step["seconds"] > 0 and step["peak_mb"] > 0 for step in record["steps"])
    assert (tmp_path / "back.lsys").read_bytes() == (tmp_path / "sys.lsys").read_bytes()
    good, bad = (tmp_path / "scheme.scm").read_bytes(), (tmp_path / "bad.scm").read_bytes()
    moved = [at for at, (x, y) in enumerate(zip(good, bad)) if x != y]
    assert len(good) == len(bad) and len(moved) == 4
    twice = (tmp_path / "twice.scm").read_bytes()
    claimed = [at for at, (x, y) in enumerate(zip(good, twice)) if x != y]
    assert len(good) == len(twice) and len(claimed) == 2 and {twice[at] for at in claimed} == {ord("1")}
    two = (tmp_path / "two.scm").read_bytes()
    set_to_2 = [at for at, (x, y) in enumerate(zip(good, two)) if x != y]
    assert len(good) == len(two) and len(set_to_2) == 1 and two[set_to_2[0]] == ord("2")
