"""The README's Python examples run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {"__name__": "readme"}
    with contextlib.redirect_stdout(io.StringIO()):
        for i, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
