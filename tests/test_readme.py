"""The README's command-line and library examples run as written."""

import shlex
from pathlib import Path

import numpy as np
import pytest

from qollide import bath_to_csv
from qollide.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    """Bodies of the README's fenced code blocks tagged ``lang``."""
    blocks, body, tag = [], None, None
    for line in README.splitlines(keepends=True):
        if not line.startswith("```"):
            if body is not None:
                body.append(line)
        elif body is None:
            tag, body = line[3:].strip(), []
        else:
            if tag == lang:
                blocks.append("".join(body))
            body = None
    return blocks


def readme_commands():
    """Every ``qollide`` line of the README's bash blocks, with ``\\``
    continuations joined and ``#`` comments stripped, as argument lists."""
    commands = []
    for block in _blocks("bash"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["qollide"]:
                commands.append(words[1:])
    return commands


COMMANDS = readme_commands()


def test_every_subcommand_has_an_example():
    assert {argv[0] for argv in COMMANDS} == {
        "coeffs", "evolve", "sweep", "classify", "prepare", "figures",
    }


@pytest.fixture
def readme_dir(tmp_path, monkeypatch):
    """A working directory holding the files the examples read: README's
    ``run.cfg`` and a one-qubit ``rho.csv``."""
    (config,) = [b for b in _blocks("") if b.startswith("# run.cfg\n")]
    (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
    (tmp_path / "rho.csv").write_text(bath_to_csv(np.eye(2) / 2.0, 1), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_command_runs(argv, readme_dir, capsys):
    code = main(argv)
    assert code == 0, capsys.readouterr().err


def test_library_quick_start(readme_dir, capsys):
    (code,) = _blocks("python")
    namespace = {}
    exec(code, namespace)
    c = namespace["c"]
    assert (c.r_e, c.r_d) == (18.0, 20.0)
    assert capsys.readouterr().out.startswith("9.491")
