"""The documentation must not rot: link check + runnable doc examples.

These tests mirror the CI ``docs`` job so a broken doc reference or a stale
doctest fails the tier-1 suite locally too.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = ("docs/ARCHITECTURE.md", "docs/EXPERIMENTS.md", "README.md")

#: Documents whose fenced ``python -m repro.cli`` lines must parse.
CLI_DOC_GLOBS = ("README.md", "docs/*.md", ".claude/skills/verify/SKILL.md")

_FENCE = re.compile(r"^```.*?$(.*?)^```", re.MULTILINE | re.DOTALL)


def _run(command):
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + environment["PYTHONPATH"]
        if environment.get("PYTHONPATH")
        else ""
    )
    return subprocess.run(
        command,
        cwd=REPO_ROOT,
        env=environment,
        capture_output=True,
        text=True,
    )


def test_doc_links_resolve():
    result = _run([sys.executable, "scripts/check_doc_links.py"])
    assert result.returncode == 0, result.stderr
    assert "doc links ok" in result.stdout


def test_doc_examples_run():
    for document in DOC_FILES:
        result = _run([sys.executable, "-m", "doctest", document])
        assert result.returncode == 0, f"{document}:\n{result.stdout}"


def test_architecture_documents_every_package():
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    packages = sorted(
        path.name
        for path in (REPO_ROOT / "src" / "repro").iterdir()
        if path.is_dir() and (path / "__init__.py").exists()
    )
    missing = [name for name in packages if f"repro.{name}" not in text]
    assert not missing, f"docs/ARCHITECTURE.md does not mention: {missing}"


def _documented_cli_commands():
    """``(document, arguments)`` of every fenced ``python -m repro.cli`` line."""
    for pattern in CLI_DOC_GLOBS:
        for path in sorted(REPO_ROOT.glob(pattern)):
            for block in _FENCE.findall(path.read_text()):
                for line in block.replace("\\\n", " ").splitlines():
                    _, found, command = line.partition("python -m repro.cli")
                    if found:
                        words = shlex.split(command, comments=True)
                        for stop in ("&&", "||", "|", ";"):
                            if stop in words:
                                words = words[: words.index(stop)]
                        yield path.relative_to(REPO_ROOT), words


def test_documented_cli_commands_parse():
    """A flag removed from the CLI must not linger in a documented command."""
    parser = build_parser()
    commands = list(_documented_cli_commands())
    assert commands
    for document, words in commands:
        try:
            parser.parse_args(words)
        except SystemExit:
            raise AssertionError(f"{document}: `repro.cli {' '.join(words)}` does not parse")
