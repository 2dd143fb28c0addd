"""The README's library quickstart runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_quickstart"})
