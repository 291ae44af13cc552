import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _leading_literal(comment):
    """The literal a comment starts with: its first token, or the
    bracketed group that token opens."""
    depth = 0
    for tok in tokenize.generate_tokens(io.StringIO(comment).readline):
        depth += (tok.string in ("(", "[", "{")) - (tok.string in (")", "]", "}"))
        if depth == 0:
            return ast.literal_eval(comment[: tok.end[1]])
    raise AssertionError(f"no literal in {comment!r}")


def test_readme_library_tour():
    # the tour runs in a fresh namespace, and every "expr  # value" line
    # whose value is a plain int, bool, tuple, list or dict shows it
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "<tour>", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "<tour>", "eval"), namespace)
        if type(value) in (int, bool, tuple, list, dict) and stmt.lineno in comments:
            assert _leading_literal(comments[stmt.lineno]) == value, ast.unparse(stmt)
            checked += 1
    assert checked == 14
