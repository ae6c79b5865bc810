"""The README's examples run as documented."""

import pathlib
import re
import shlex

import pytest

from rank3affine.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


CLI_LINES = [line for block in fenced_blocks("") for line in block.splitlines()
             if line.startswith("rank3affine ")]


def test_python_block_prints_what_its_comments_say(capsys):
    (block,) = fenced_blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "(49, 24, 11, 12)", "['paley', 'peisert(1)', 'peisert(3)']", "0"]


def test_cli_block_has_every_subcommand():
    assert {shlex.split(line)[1] for line in CLI_LINES} == {
        "construct", "classify", "verify"}


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_exits_0(line, tmp_path, capsys):
    argv = shlex.split(line)[1:]
    if "--output" in argv:
        at = argv.index("--output") + 1
        argv[at] = str(tmp_path / argv[at])
    else:
        argv += ["--output", str(tmp_path / "report")]
    assert main(argv) == 0
    capsys.readouterr()
