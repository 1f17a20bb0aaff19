"""The README's library example runs and gives what its comments show,
and its command examples print what it shows under them."""

import ast
import io
import re
import shlex
from pathlib import Path

from ordcut import cli

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


def test_readme_commands_print_the_lines_shown_under_them():
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(),
                                    re.S) if b.startswith("$ ordcut ")]
    assert len(blocks) == 1
    # each "$ ordcut ..." line, then the lines up to the next one
    runs = re.findall(r"^\$ ordcut (.*)\n((?:[^$].*\n)*)", blocks[0], re.M)
    assert len(runs) == 3
    for command, shown in runs:
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(shlex.split(command), out=out, err=err) == 0, command
        assert (out.getvalue(), err.getvalue()) == (shown, ""), command
