"""README's library example runs as written, through the module import path."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        namespace: dict = {}
        exec(compile(block, str(README), "exec"), namespace)
    # The example ends on an AAggFFD decision, which lies on the simplex.
    decision = namespace["decision"]
    assert np.all(decision >= 0.0) and abs(float(decision.sum()) - 1.0) <= 1e-12
