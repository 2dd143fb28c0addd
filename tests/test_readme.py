"""The README's library quickstart runs against the current API, and prints
the values its comments give."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _leading_literal(comment: str) -> list:
    """[value] of the longest whitespace-ended prefix of comment that is a
    Python literal, or [] when no prefix is one: "3.99 (~ 4)" gives [3.99]
    and "grid engine, ..." gives []."""
    ends = [m.start() for m in re.finditer(r"\s", comment)] + [len(comment)]
    for end in reversed(ends):
        try:
            return [ast.literal_eval(comment[:end])]
        except (ValueError, SyntaxError):
            continue
    return []


@pytest.fixture(scope="module")
def quickstart():
    """Run the quickstart block one statement at a time, and return a
    (source, value, literal) triple for each expression statement whose
    comment, on its last line, starts with a Python literal."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    source = blocks[0]
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {"__name__": "readme_quickstart"}
    checks = []
    for node in ast.parse(source).body:
        literal = _leading_literal(comments.get(node.end_lineno, ""))
        if isinstance(node, ast.Expr) and literal:
            code = compile(ast.Expression(node.value), str(README), "eval")
            value = eval(code, namespace)
            checks.append((ast.get_source_segment(source, node), value, literal[0]))
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
    return checks


def test_quickstart_block_runs(quickstart):
    assert quickstart


def test_quickstart_values_match_their_comments(quickstart):
    # prob_x0, fisher_phi, dj_statistics and response.fishers carry a value
    assert len(quickstart) == 4
    for source, value, literal in quickstart:
        assert value == literal, f"{source} gives {value!r}, the README says {literal!r}"

