"""The scripts in ``scripts/`` run end to end and write what the CLI and the
golden tables hold."""

import hashlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_ab_pairs_summary_on_canned_results(monkeypatch):
    """The A/B summary of canned pairs, with no benchmark run: a claim
    needs nine tenths of the pairs won (ties count for neither side), a
    median gain wider than the parent's interquartile range, and no failed
    operation."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab_pairs

    better = ab_pairs.end_to_end()
    assert better == {"pass_s": "lower", "setup_s": "lower", "peak_rss_mb": "lower"}

    def pairs(parent, change, failed=0):
        def result(value, fails):
            return {"correct": not fails, "failed": fails, "metrics": {"pass_s": value, "setup_s": 0.28, "peak_rss_mb": 51.0}}

        return [(result(p, 0), result(c, failed if i == 0 else 0)) for i, (p, c) in enumerate(zip(parent, change))]

    parent = [0.118, 0.119, 0.120, 0.121, 0.122, 0.118, 0.119, 0.120, 0.121, 0.122]
    lines, holds = ab_pairs.summary(pairs(parent, [p - 0.008 for p in parent]), better, "pass_s")
    assert holds
    assert "pass_s (lower is better) parent: median 0.1200 [0.1190, 0.1210]" in lines
    assert "pass_s (lower is better) change: median 0.1120 [0.1110, 0.1130]" in lines
    assert "pass_s: the change won 10 and lost 0 of 10 pairs" in lines
    assert "pass_s: median gain 0.0080 against a parent interquartile range of 0.0020" in lines
    assert lines[-1] == "gain on pass_s may be claimed: yes"
    # one tie still leaves 9 of 10 won; a second tie does not
    tie = [p - 0.008 for p in parent]
    tie[0] = parent[0]
    assert ab_pairs.summary(pairs(parent, tie), better, "pass_s")[1]
    tie[1] = parent[1]
    lines, holds = ab_pairs.summary(pairs(parent, tie), better, "pass_s")
    assert not holds and "pass_s: the change won 8 and lost 0 of 10 pairs" in lines
    # every pair won, but by less than the parent's spread
    assert not ab_pairs.summary(pairs(parent, [p - 0.001 for p in parent]), better, "pass_s")[1]
    # a failed operation voids the claim
    lines, holds = ab_pairs.summary(pairs(parent, [p - 0.008 for p in parent], failed=1), better, "pass_s")
    assert not holds and "runs with a failed operation: 1" in lines
    # a higher-is-better reading of the same numbers is a loss
    assert not ab_pairs.summary(pairs(parent, [p - 0.008 for p in parent]), {"pass_s": "higher"}, "pass_s")[1]
    # each side's median of every per-layer metric that every run holds, in
    # the benchmark's order, with no verdict; scan_s is missing from one run
    timed = pairs(parent, [p - 0.008 for p in parent])
    for i, (old, new) in enumerate(timed):
        old["layers"] = {"analyze_s": 0.013 + i / 1000, "construct_s": 0.024, **({"scan_s": 0.02} if i else {})}
        new["layers"] = {"analyze_s": 0.010 + i / 1000, "construct_s": 0.024, "scan_s": 0.02}
    lines, holds = ab_pairs.summary(timed, better, "pass_s")
    layer_lines = [line for line in lines if "(per layer)" in line]
    assert holds and layer_lines == [
        "construct_s (per layer): parent median 0.0240, change median 0.0240",
        "analyze_s (per layer): parent median 0.0175, change median 0.0145",
    ]
    item = ab_pairs.entry(timed, better, ab_pairs.bounds(), "pass_s", holds, {}, "desk-schemes", list(range(10)), 15)
    assert item["per_layer"] == {
        "construct_s": {"parent": 0.024, "change": 0.024},
        "analyze_s": {"parent": pytest.approx(0.0175), "change": pytest.approx(0.0145)},
    }
    assert set(item["metrics"]) == set(better)
    # with no wall time in a run there is no wall-time line and no entry
    assert item["wall"] is None and not any(line.startswith("pass_wall_s") for line in lines)
    # each side's median wall time, and the pairs whose wall-time winner is
    # not their pass_s winner: pair 0 is won on pass_s by the change and on
    # wall time by the parent, pair 1 is a wall-time tie
    for i, (old, new) in enumerate(timed):
        old["wall"] = 0.130 + i / 1000
        new["wall"] = old["wall"] + (0.002 if i == 0 else 0 if i == 1 else -0.010)
    lines, holds = ab_pairs.summary(timed, better, "pass_s")
    assert holds and [line for line in lines if line.startswith("pass_wall_s")] == [
        "pass_wall_s (wall time): parent median 0.1345, change median 0.1265",
        "pass_wall_s: the wall-time winner differs from the pass_s winner in 2 of 10 pairs",
    ]
    item = ab_pairs.entry(timed, better, ab_pairs.bounds(), "pass_s", holds, {}, "desk-schemes", list(range(10)), 15)
    assert item["wall"] == {"parent": pytest.approx(0.1345), "change": pytest.approx(0.1265), "inverted": 2}
    del timed[3][1]["wall"]
    assert ab_pairs.wall_times(timed) is None
    # a run's per-layer metrics and wall time come from the full record line before its result line
    full = {"metrics": {"pass_s": {"value": 0.09}, "analyze_s": {"value": 0.012}, "pass_wall_s": {"value": 0.1}}}
    result = {"correct": True, "failed": 0, "metrics": {"pass_s": {"value": 0.09}}}
    stdout = json.dumps(full) + "\n" + json.dumps(result) + "\n"
    monkeypatch.setattr(ab_pairs.subprocess, "run", lambda *a, **k: subprocess.CompletedProcess(a, 0, stdout, ""))
    assert ab_pairs.run(ROOT, "desk-schemes", 1, 1) == {
        "correct": True, "failed": 0, "metrics": {"pass_s": 0.09}, "layers": {"analyze_s": 0.012}, "wall": 0.1
    }


def test_ab_pairs_verdicts_and_record_on_canned_results(monkeypatch, tmp_path):
    """The no-regression verdict of canned pairs against each metric's
    bound, and the entry ``--record`` appends, with no benchmark run: a
    change median within the bound is not worse, past it worse, and a parent
    spread wider than the bound leaves it unresolved unless every change
    run beats every parent run."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import ab_pairs

    better, limits = ab_pairs.end_to_end(), ab_pairs.bounds()
    assert limits == {"pass_s": 0.25, "setup_s": 0.25, "peak_rss_mb": 0.1}
    parent = [0.118, 0.119, 0.120, 0.121, 0.122, 0.118, 0.119, 0.120, 0.121, 0.122]
    # the bound allows 0.25 * 0.120 = 0.030 on pass_s
    assert ab_pairs.regression(parent, [p + 0.029 for p in parent], "lower", 0.25) == "not worse"
    assert ab_pairs.regression(parent, [p + 0.031 for p in parent], "lower", 0.25) == "worse"
    assert ab_pairs.regression(parent, [p - 0.031 for p in parent], "higher", 0.25) == "worse"
    wide = [0.06, 0.18, 0.09, 0.15, 0.12, 0.06, 0.18, 0.09, 0.15, 0.12]
    assert ab_pairs.regression(wide, wide, "lower", 0.25) == "unresolved"
    assert ab_pairs.regression(wide, [0.05] * 10, "lower", 0.25) == "not worse"
    assert ab_pairs.regression(wide, [0.19] * 10, "higher", 0.25) == "not worse"

    def result(value, rss):
        return {"correct": True, "failed": 0, "metrics": {"pass_s": value, "setup_s": 0.28, "peak_rss_mb": rss}}

    pairs = [(result(p, 51.0), result(p - 0.008, 57.0)) for p in parent]
    commits = {"parent": "be6acd2", "change": "be6acd2-dirty"}
    item = ab_pairs.entry(pairs, better, limits, "pass_s", True, commits, "gf8-448", list(range(11, 21)), 10)
    assert item["metrics"]["pass_s"]["verdict"] == "not worse"
    assert item["metrics"]["setup_s"] == {
        "better": "lower",
        "bound": 0.25,
        "parent": {"q1": 0.28, "median": 0.28, "q3": 0.28},
        "change": {"q1": 0.28, "median": 0.28, "q3": 0.28},
        "won": 0,
        "lost": 0,
        "verdict": "not worse",
    }
    # 57 MB against 51 MB is past the 10 % bound of peak RSS
    assert item["metrics"]["peak_rss_mb"]["verdict"] == "worse" and item["metrics"]["peak_rss_mb"]["lost"] == 10
    assert item["metrics"]["pass_s"]["won"] == 10 and item["gain"] == {"metric": "pass_s", "claimed": True}
    path = tmp_path / "BENCH_gf8-448.json"
    ab_pairs.record(path, item)
    ab_pairs.record(path, item)
    assert json.loads(path.read_text()) == [item, item]
    assert item["commits"] == commits and item["seeds"] == list(range(11, 21)) and item["failed_runs"] == 0
    assert item["wall"] is None
