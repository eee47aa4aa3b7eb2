"""The README's worked examples and flag table, checked against the program.

The library quickstart's `print` lines carry their output as a trailing
comment; each `$ turnpike ...` example is followed by its output, indented
like the command. Output lines elided with `...` are not compared, and
examples that print nothing (`--out FILE`) are not run.
"""
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from turnpike.cli import COMMANDS, main

REPO_ROOT = Path(__file__).resolve().parent.parent
README = (REPO_ROOT / "README.md").read_text()


def _cli_examples():
    """(argv, expected output lines) of each `$ turnpike` example."""
    lines = README.splitlines()
    examples = []
    i = 0
    while i < len(lines):
        if not lines[i].startswith("    $ turnpike "):
            i += 1
            continue
        cmd = lines[i][len("    $ "):]
        while cmd.endswith("\\"):
            i += 1
            cmd = cmd[:-1] + lines[i].strip()
        i += 1
        out = []
        while i < len(lines) and lines[i].startswith("    "):
            out.append(lines[i][4:])
            i += 1
        if out:
            examples.append((shlex.split(cmd)[1:], out))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_every_documented_command_is_collected():
    assert [argv[0] for argv, _ in CLI_EXAMPLES] == [
        "hypotheses", "pv-check", "delta0", "dulac", "converge", "nge2",
        "canard-solve"]


@pytest.mark.parametrize("argv, expected", CLI_EXAMPLES,
                         ids=[argv[0] for argv, _ in CLI_EXAMPLES])
def test_cli_example(argv, expected, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)  # the examples name models/ relative to it
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    printed = buf.getvalue().splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if "..." not in want:
            assert got == want


def test_flag_table_matches_the_parser():
    rows = re.findall(r"^\| `([a-z0-9-]+)[^`]*` \| (.*) \|$", README, re.M)
    assert {name: sorted(re.findall(r"`(--[a-z-]+)`", flags))
            for name, flags in rows} == \
        {name: sorted(cmd.flags) for name, cmd in COMMANDS.items()}


def test_library_quickstart():
    code = re.search(r"## Library quickstart\n\n```python\n(.*?)```",
                     README, re.S).group(1)
    expected = [line.split("#", 1)[1].strip()
                for line in code.splitlines() if line.startswith("print(")]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, "README quickstart", "exec"), {})
    assert buf.getvalue().splitlines() == expected
