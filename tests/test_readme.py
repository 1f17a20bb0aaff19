"""The README's library example runs and gives what its comments show."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_gives_its_commented_results():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    lines = code.splitlines()
    namespace, shown = {}, []
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            # an expression line: its value's repr against the first word
            # of its comment
            value = eval(compile(ast.Expression(node.value), "README.md",
                                 "eval"), namespace)
            comment = lines[node.end_lineno - 1].split("#", 1)[1].split()[0]
            shown.append((repr(value), comment))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
    assert shown == [("'gapped'", "'gapped'"), ("2", "2"),
                     ("'plus'", "'plus'")]
