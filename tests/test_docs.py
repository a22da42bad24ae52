"""The documentation suite stays healthy: links resolve, examples run.

Wraps ``tools/check_docs.py`` so the docs are part of tier-1: a broken
relative link in README/docs, a ``>>>`` example that no longer matches
the code, or a documented ``python -m repro.cli`` command the parser
rejects fails the suite, not just the CI docs job.
"""

import importlib.util
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "check_docs.py"
_spec = importlib.util.spec_from_file_location("check_docs", _TOOL)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_docs_exist():
    names = {path.name for path in check_docs.default_docs()}
    assert "README.md" in names
    assert "architecture.md" in names
    assert "parallel_campaigns.md" in names


@pytest.mark.parametrize("path", check_docs.default_docs(), ids=lambda p: p.name)
def test_links_resolve(path):
    assert check_docs.check_links(path) == []


@pytest.mark.parametrize("path", check_docs.default_docs(), ids=lambda p: p.name)
def test_doc_examples_run(path):
    failed, _attempted = check_docs.check_doctests(path)
    assert failed == 0


def test_doc_examples_are_actually_exercised():
    """The doctest pass must not silently go no-op: the suite contains
    at least the README and architecture examples."""
    total = sum(check_docs.check_doctests(p)[1] for p in check_docs.default_docs())
    assert total >= 4


def test_link_checker_catches_breakage(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("see [missing](no/such/file.md) and [ok](doc.md)", encoding="utf-8")
    problems = check_docs.check_links(doc)
    assert len(problems) == 1 and "no/such/file.md" in problems[0]


@pytest.mark.parametrize("path", check_docs.default_docs(), ids=lambda p: p.name)
def test_documented_cli_commands_parse(path):
    assert check_docs.check_cli_commands(path) == []


def test_cli_command_check_is_exercised(tmp_path):
    """The command pass finds the documented commands, joins
    continuations, and reports one the parser rejects."""
    total = sum(len(check_docs.cli_commands(p)) for p in check_docs.default_docs())
    assert total >= 20
    doc = tmp_path / "doc.md"
    doc.write_text(
        "```bash\n"
        "PYTHONPATH=src python -m repro.cli --jobs 2 \\\n"
        "    campaign --runs 3 > out.txt  # joined\n"
        "PYTHONPATH=src python -m repro.cli table 7 --seed 1\n"
        "```\n",
        encoding="utf-8",
    )
    assert check_docs.cli_commands(doc) == [
        ["--jobs", "2", "campaign", "--runs", "3"],
        ["table", "7", "--seed", "1"],
    ]
    problems = check_docs.check_cli_commands(doc)
    assert len(problems) == 1 and "--seed 1" in problems[0]
