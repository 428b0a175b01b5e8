"""The README's command-line examples, run through cli.main."""

import json
import pathlib
import re
import shlex

from padic_mahler.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _command_lines():
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("padic-mahler ")]


def test_every_documented_command_exits_zero(capsys):
    lines = _command_lines()
    assert len(lines) >= 10
    failed = [line for line in lines if main(line[1:]) != 0]
    capsys.readouterr()
    assert not failed, failed


def test_documented_json_form_parses(capsys):
    json_lines = [line for line in _command_lines() if "--format" in line]
    assert json_lines
    for line in json_lines:
        assert main(line[1:]) == 0
        json.loads(capsys.readouterr().out)
