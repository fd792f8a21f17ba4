"""The README's library example must keep importing."""

from __future__ import annotations

import ast
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_example_imports_resolve():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.DOTALL)
    assert blocks, "README has no python example"
    for block in blocks:
        imports = [
            node
            for node in ast.parse(block).body
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert imports, "README python example imports nothing"
        exec(compile(ast.Module(body=imports, type_ignores=[]), README, "exec"), {})
