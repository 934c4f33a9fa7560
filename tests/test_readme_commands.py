"""The README's "Reproducing the paper" commands run and print what it says.

Each `fusionwitt ...` command of the section's first shell block (a
trailing backslash continues it on the next line) runs through cli.main
from the repository root; it must exit 0 and print the fragment its
`# ...` comment gives.
"""

from __future__ import annotations

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from fusionwitt import cli

ROOT = Path(__file__).resolve().parents[1]


def readme_commands(text: str) -> list[tuple[str, str]]:
    """(command, fragment) of each line of the section's first sh block."""
    section = text.split("\n## Reproducing the paper\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [tuple(part.strip() for part in line.partition(" # ")[::2]) for line in lines]


def test_readme_commands_are_found():
    text = ("# Title\n\n## Reproducing the paper\n\n```sh\nfusionwitt scan 10   # none\nfusionwitt classify \\\n"
            "    4                # kind\n```\n\n```sh\npython3 other.py\n```\n\n## Next\n")
    assert readme_commands(text) == [("fusionwitt scan 10", "none"), ("fusionwitt classify      4", "kind")]


COMMANDS = readme_commands((ROOT / "README.md").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command,fragment", COMMANDS, ids=[f for _, f in COMMANDS])
def test_readme_command_prints_its_fragment(monkeypatch, command, fragment):
    program, *argv = shlex.split(command)
    assert program == "fusionwitt" and fragment
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert fragment in out.getvalue()
