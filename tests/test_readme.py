"""README's command line and library examples print what README says."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from troplift.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"
_EXIT = re.compile(r"\s*\(exit code (\d+)\)$")


def _block(section, language):
    """The first fenced block of the given language under a ## heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split("\n## %s\n" % section, 1)[1]
    return body.split("```%s\n" % language, 1)[1].split("\n```", 1)[0]


def _examples():
    """(argv, expected stdout lines, expected exit code) per troplift
    command, with \\ continuations joined; the expected lines are the
    '# ' lines directly under the command, up to the next blank line."""
    lines = _block("Command line", "sh").replace("\\\n", " ").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("troplift "):
            continue
        expected, code = [], 0
        for comment in lines[i + 1:]:
            if not comment.startswith("#"):
                break
            text = comment[2:]
            found = _EXIT.search(text)
            if found:
                code, text = int(found.group(1)), text[:found.start()]
            expected.append(text)
        examples.append((shlex.split(line)[1:], expected, code))
    return examples


def test_readme_command_line_examples():
    examples = _examples()
    assert len(examples) >= 5
    for argv, expected, code in examples:
        out, err = io.StringIO(), io.StringIO()
        assert (run(argv, out, err), err.getvalue()) == (code, ""), argv
        if expected and expected[0].startswith("{"):
            assert json.loads(out.getvalue()) == json.loads(" ".join(expected)), argv
        elif expected:
            assert out.getvalue().splitlines() == expected, argv


def test_readme_library_example():
    """The block runs, and each print prints the comment beside it."""
    source = _block("Library example", "python")
    expected = [line.split("#", 1)[1].strip()
                for line in source.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected
