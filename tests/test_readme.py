"""Every ```python block of README.md runs as written."""
import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def python_blocks() -> list:
    with open(README) as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(),
                          re.DOTALL | re.MULTILINE)


def test_the_readme_has_python_blocks():
    assert len(python_blocks()) >= 3


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_readme_block_runs(index):
    exec(compile(python_blocks()[index], f"README.md block {index}", "exec"),
         {"__name__": "readme"})
