"""The README quick start runs as written and its comments quote true values."""

import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"
_LITERAL_NODES = (ast.Expression, ast.Constant, ast.Tuple, ast.List, ast.BinOp, ast.Div,
                  ast.UnaryOp, ast.USub, ast.Load)


def _quoted_value(comment: str):
    """The longest leading literal of a comment, such as `[1/8, 3/8]` in `[1/8, 3/8] for ...`."""
    for end in range(len(comment), 0, -1):
        try:
            tree = ast.parse(comment[:end], mode="eval")
        except SyntaxError:
            continue
        if all(isinstance(node, _LITERAL_NODES) for node in ast.walk(tree)):
            return eval(compile(tree, "<comment>", "eval"))
    raise AssertionError(f"no quoted value in {comment!r}")


def test_quick_start_values():
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", README.read_text(), re.S)[1]
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        code = ast.get_source_segment(block, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        comment = lines[stmt.lineno - 1].partition("#")[2].strip()
        approximate = comment.startswith("≈")
        quoted = _quoted_value(comment.removeprefix("≈").strip())
        if isinstance(quoted, str):
            assert value == quoted and not approximate, code
        else:
            value = np.asarray(value, dtype=float)
            np.testing.assert_allclose(value, quoted, rtol=0, atol=1e-12, err_msg=code)
            # a value that does not print as quoted is marked approximate
            assert approximate == (not np.array_equal(value, quoted)), code
        checked += 1
    assert checked == 5
