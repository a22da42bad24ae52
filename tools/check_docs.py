#!/usr/bin/env python
"""Documentation checks: resolvable links + runnable doc snippets.

Three passes over ``README.md`` and ``docs/*.md`` (plus any extra paths
given on the command line):

1. **link check** — every relative markdown link/image target
   (``[text](path)``) must exist on disk, anchors and query strings
   stripped; ``http(s)``/``mailto`` links are skipped (the suite must
   pass offline).
2. **doctests** — every ``>>>`` example in the files is executed via
   :mod:`doctest` (run with ``PYTHONPATH=src`` so ``repro`` imports).
3. **CLI commands** — every ``python -m repro.cli …`` command in a
   fenced ``bash`` block (backslash continuations joined) must be accepted
   by the CLI's argument parser.  Commands are only parsed, never run.

Exit status is non-zero on any broken link, failing example or rejected
command, which is what CI's docs job and ``tests/test_docs.py`` assert.
"""

from __future__ import annotations

import contextlib
import doctest
import io
import pathlib
import re
import shlex
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Markdown inline links/images: [text](target) — target captured.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Targets that are not files to check.
_EXTERNAL = ("http://", "https://", "mailto:")


def default_docs() -> list[pathlib.Path]:
    """README.md plus every markdown file under docs/."""
    paths = [REPO_ROOT / "README.md"]
    paths.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in paths if path.exists()]


def check_links(path: pathlib.Path) -> list[str]:
    """All broken relative link targets of one markdown file."""
    problems = []
    text = path.read_text(encoding="utf-8")
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        plain = target.split("#", 1)[0].split("?", 1)[0]
        if not plain:
            continue
        resolved = (path.parent / plain).resolve()
        if not resolved.exists():
            try:
                shown = path.relative_to(REPO_ROOT)
            except ValueError:
                shown = path
            problems.append(f"{shown}: broken link -> {target}")
    return problems


def check_doctests(path: pathlib.Path) -> tuple[int, int]:
    """Run a markdown file's ``>>>`` examples; returns (failures, attempts)."""
    results = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
    )
    return results.failed, results.attempted


#: Fenced ``bash`` blocks of a markdown file (body captured).
_BASH_BLOCK_RE = re.compile(r"^```bash\n(.*?)^```", re.MULTILINE | re.DOTALL)

_CLI_PREFIX = "python -m repro.cli"

#: Shell tokens that end a command's argument list.
_SHELL_OPERATORS = {"|", "||", "&", "&&", ";", ">", ">>", "<", "2>", "2>&1"}


def cli_commands(path: pathlib.Path) -> list[list[str]]:
    """The argument lists of a file's documented ``repro.cli`` commands.

    Continuation lines are joined, comments dropped, and each command's
    arguments end at the first shell operator (pipe, redirect, ``&``).
    """
    commands = []
    text = path.read_text(encoding="utf-8")
    for block in _BASH_BLOCK_RE.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            _, found, rest = line.partition(_CLI_PREFIX)
            if not found:
                continue
            argv = []
            for token in shlex.split(rest, comments=True):
                if token in _SHELL_OPERATORS:
                    break
                argv.append(token)
            commands.append(argv)
    return commands


def check_cli_commands(path: pathlib.Path) -> list[str]:
    """Every documented ``repro.cli`` command the CLI parser rejects."""
    from repro.cli import build_parser  # local: needs PYTHONPATH=src

    problems = []
    for argv in cli_commands(path):
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                build_parser().parse_args(argv)
        except SystemExit:
            message = stderr.getvalue().strip().splitlines()[-1:]
            problems.append(
                f"{path.name}: {_CLI_PREFIX} {shlex.join(argv)}: "
                + (message[0] if message else "rejected")
            )
    return problems


def main(argv: list[str]) -> int:
    paths = [pathlib.Path(arg) for arg in argv] or default_docs()
    broken: list[str] = []
    failed = attempted = 0
    for path in paths:
        broken.extend(check_links(path))
        broken.extend(check_cli_commands(path))
        file_failed, file_attempted = check_doctests(path)
        failed += file_failed
        attempted += file_attempted
    for problem in broken:
        print(problem)
    print(
        f"checked {len(paths)} docs: {len(broken)} broken links or commands, "
        f"{failed}/{attempted} doc examples failed"
    )
    return 1 if broken or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
