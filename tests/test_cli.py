"""The command table of ``sgdd.cli``: one parser per call, the verb and
target menus, the removed options, and the commands the README shows."""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sgdd import fileio
from sgdd.cli import COMMANDS, command_parser, main
from conftest import text_of

ROOT = Path(__file__).resolve().parents[1]

PAIRS = [
    *(("construct", t) for t in ("hadamard-aux", "ag-aux", "mols", "linked-mols", "tilde-l")),
    *(("construct", t) for t in ("conference-gdd", "bgw", "gcm-gdd", "twin", "mub-system")),
    *(("verify", t) for t in ("gdd", "aux", "latin", "linked-system", "scheme")),
    *(("scheme", t) for t in ("assemble", "analyze", "extract", "fusion")),
    ("scan", "table1"),
    ("scan", "table2"),
    ("oracle", "linked-mols"),
    ("oracle", "bush"),
]


def test_the_table_holds_every_command():
    assert [(verb, target) for verb, targets in COMMANDS.items() for target in targets] == PAIRS


def test_main_builds_one_parser_per_call(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["scan", "table2", "--vmax", "50"]) == 0
    assert built == ["sgdd scan table2"]
    built.clear()
    assert main(["construct", "mols", "--q", "4"]) == 0
    assert built == ["sgdd construct mols"]
    capsys.readouterr()


@pytest.mark.parametrize("verb, target", PAIRS)
def test_every_command_answers_help(verb, target, capsys):
    assert main([verb, target, "-h"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0].startswith(f"usage: sgdd {verb} {target} ") and err == ""


@pytest.mark.parametrize(
    "argv",
    [[], ["construct"], ["nonsense"], ["scan", "nonsense"], ["--jobs", "2", "scan", "table1"]],
)
def test_a_missing_or_unknown_verb_or_target_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: sgdd ")
    assert err.splitlines()[-1].startswith("sgdd")


@pytest.mark.parametrize("argv, choices", [(["-h"], COMMANDS), (["construct", "--help"], COMMANDS["construct"])])
def test_help_lists_the_verbs_or_targets(argv, choices, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    listed = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
    assert listed == list(choices)


@pytest.mark.parametrize("weight", ["1", "2"])
def test_twin_has_no_weight_option(weight, tmp_path: Path, capsys):
    argv = ["construct", "twin", "--order", "4", "--weight", weight, "-o", str(tmp_path / "tw")]
    assert main(argv) == 2
    assert "unrecognized arguments: --weight" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_analyze_has_no_output_option(tmp_path: Path, scheme48, capsys):
    scm = tmp_path / "s.scm"
    scm.write_text(text_of(fileio.scheme_chunks(scheme48.relation)))
    report = tmp_path / "report.txt"
    assert main(["scheme", "analyze", "--in", str(scm), "-o", str(report)]) == 2
    assert "unrecognized arguments: -o" in capsys.readouterr().err
    assert not report.exists()


def _readme_commands():
    text = (ROOT / "README.md").read_text()
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.splitlines():
            if line.startswith("sgdd "):
                yield shlex.split(line, comments=True)[1:]


def test_readme_commands_resolve_to_the_table():
    """Every ``sgdd`` line of the README names a registered command whose
    parser accepts its arguments; no command is run."""
    seen = 0
    for argv in _readme_commands():
        seen += 1
        if argv[-1] == "-h":  # a menu, or one command's help
            assert len(argv) == 1 or argv[0] in COMMANDS, argv
            assert len(argv) <= 2 or argv[1] in COMMANDS[argv[0]], argv
            continue
        verb, target, *rest = argv
        assert target in COMMANDS.get(verb, {}), argv
        command_parser(verb, target).parse_args(rest)
    assert seen


def test_module_entry_point_matches_main(capsys):
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    argv = ["scan", "table2", "--vmax", "50"]
    run = subprocess.run(
        [sys.executable, "-m", "sgdd.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert main(argv) == 0
    assert (run.returncode, run.stdout, run.stderr) == (0, capsys.readouterr().out, "")


def test_oracle_linked_mols_certifies_the_family_once(monkeypatch, capsys):
    import sgdd.cli
    import sgdd.latin

    calls = []
    verify = sgdd.latin.verify_linked

    def counted(fam):
        calls.append(fam)
        return verify(fam)

    monkeypatch.setattr(sgdd.latin, "verify_linked", counted)
    monkeypatch.setattr(sgdd.cli, "verify_linked", counted)
    assert main(["oracle", "linked-mols", "--order", "5", "--f", "3"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out
