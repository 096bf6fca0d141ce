"""The README's library example runs as written and gives the results its
comments state, so the example cannot drift from the package."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_python_example_gives_its_commented_results():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert len(blocks) == 1
    source = blocks[0]
    comments = {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    # Statements run in order; each bare expression must end on a line whose
    # comment is the Python literal it evaluates to.
    for statement in ast.parse(source).body:
        code = ast.get_source_segment(source, statement)
        if not isinstance(statement, ast.Expr):
            exec(code, namespace)
            continue
        assert statement.end_lineno in comments, f"no result comment after {code!r}"
        assert eval(code, namespace) == ast.literal_eval(comments[statement.end_lineno]), code
        checked += 1
    assert checked > 0
