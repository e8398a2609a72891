"""The README's ```python examples, run through doctest."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_hold():
    # Only the inside of each fence is parsed: a closing fence right under
    # an expected output line would otherwise be read as more output.
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) >= 3
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    # Each block imports its own names: it runs in a fresh namespace.
    for number, block in enumerate(blocks, 1):
        test = parser.get_doctest(block, {}, f"README.md python block {number}", str(README), 0)
        assert test.examples
        runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} README examples failed"
