"""The README's examples, run as written: every `$ genuscalc ...` command
against the lines shown under it, and the library block against the value
in each of its `# ...` comments."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from genuscalc.cli import run

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
_BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", _README, flags=re.MULTILINE | re.DOTALL)


def _commands() -> list[tuple[str, list[str]]]:
    """Each `$ genuscalc` line with the lines printed under it, up to the
    next command or the end of its block."""
    found = []
    for _, body in _BLOCKS:
        for chunk in re.split(r"^(?=\$ genuscalc )", body, flags=re.MULTILINE)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            found.append((command[2:], shown))
    return found


_COMMANDS = _commands()


def test_the_readme_shows_every_command_with_its_output():
    assert len(_COMMANDS) == 12
    assert sum(shown[0].startswith("genuscalc: error: ") for _, shown in _COMMANDS) == 4


@pytest.mark.parametrize("command, shown", _COMMANDS, ids=[c for c, _ in _COMMANDS])
def test_readme_command_prints_what_the_readme_shows(capsys, command, shown):
    status = run(shlex.split(command)[1:])
    captured = capsys.readouterr()
    assert status == (2 if shown[0].startswith("genuscalc: error: ") else 0)
    assert (captured.out + captured.err).splitlines() == shown


def test_readme_library_block_prints_its_comments():
    (source,) = [body for lang, body in _BLOCKS if lang == "python"]
    comments = re.findall(r"# (.+)$", source, flags=re.MULTILINE)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == comments
    assert len(comments) == 5
