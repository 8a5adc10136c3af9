"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 2
    for i, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md python example {i}", "exec"), {"__name__": "readme"})
