"""Every documented ``python -m repro`` command parses.

Scans the README, ``docs/*.md``, EXPERIMENTS.md, the verify skill
notes and the CLI module docstring for ``python -m repro ...`` lines.
Backslash continuations are joined, ``# ...`` comments dropped, and a
command ends at a closing backtick.  Each argument vector goes through
the CLI's own parser and nothing else, so a documented subcommand or
flag that no longer exists fails here without running anything.
"""

import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SOURCES = (
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / "EXPERIMENTS.md",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
)
COMMAND = re.compile(r"python3? -m repro\b([^`]*)")


def _commands(origin: str, text: str):
    """(origin:line, argv) for each documented command in ``text``;
    ``<placeholder>`` commands such as ``repro <command> ...`` are
    skipped."""
    lines = enumerate(text.splitlines(), 1)
    for number, line in lines:
        while line.endswith("\\"):
            line = line[:-1] + " " + next(lines, (0, ""))[1]
        match = COMMAND.search(line)
        if match is None:
            continue
        argv = shlex.split(match[1], comments=True)
        if not any(token.startswith("<") for token in argv):
            yield f"{origin}:{number}", argv


DOCUMENTED = [
    *(
        command
        for path in SOURCES
        for command in _commands(
            str(path.relative_to(ROOT)), path.read_text(encoding="utf-8")
        )
    ),
    *_commands("src/repro/cli.py", repro.cli.__doc__),
]


def test_every_source_documents_commands():
    origins = {where.rsplit(":", 1)[0] for where, _ in DOCUMENTED}
    assert {
        "README.md", "EXPERIMENTS.md", "docs/tutorial.md",
        ".claude/skills/verify/SKILL.md", "src/repro/cli.py",
    } <= origins


@pytest.mark.parametrize(
    "argv", [argv for _, argv in DOCUMENTED],
    ids=[where for where, _ in DOCUMENTED],
)
def test_documented_command_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"'repro {shlex.join(argv)}' does not parse: exit {exc.code}")
