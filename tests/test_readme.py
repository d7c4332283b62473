"""The README's library quick start runs as written."""

import re
from pathlib import Path

from numpy.testing import assert_allclose

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    assert scope["result"].certified
    assert_allclose(scope["result"].x_hat, [1.0, 0.0], atol=1e-3)
    assert_allclose(scope["x"], [1.0, 0.0], atol=1e-6)
