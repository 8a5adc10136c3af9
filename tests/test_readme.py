"""The README's Python examples run as written, and its command lines parse."""

import re
import shlex
from pathlib import Path

from zenopt.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 2
    for i, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python example {i}", "exec"), {"__name__": "readme"})


def test_readme_command_lines_parse():
    """Every ``zenopt ...`` line, with its backslash continuations, is
    accepted by the argument parser. The commands are not run: their
    default budgets take minutes."""
    text = README.read_text().replace("\\\n", " ")
    commands = [line for line in text.splitlines() if line.startswith("zenopt ")]
    assert len(commands) == 13
    parser = build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line
