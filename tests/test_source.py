"""Checks on the library source itself."""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ordcut"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so library checks must raise
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_records_take_their_constructor_from_record():
    # Record builds each record class's __init__, so that no class can store
    # its fields and forget to call __post_init__
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and "Record" in [
                    getattr(b, "id", None) for b in node.bases]:
                found += ["%s:%d %s" % (path.name, item.lineno, node.name)
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name == "__init__"]
    assert found == []


# Functions that may build a GroupElement without its membership check.
# Each one checks its input first: operands from one group (__add__, and
# __sub__ through it), an operand already in the group (__neg__), or an
# element of the morphism domain (apply).
UNCHECKED_ELEMENT_CALLERS = {"GroupElement.__add__", "GroupElement.__neg__",
                             "FactorwiseInjection.apply"}


def _uses(tree, name):
    """(enclosing function, line) of each reference to `name` outside its
    own definition; the enclosing function is qualified by its class."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Name) and node.id == name or \
                isinstance(node, ast.Attribute) and node.attr == name or \
                isinstance(node, ast.alias) and name in (node.name,
                                                         node.asname):
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def _library_uses(name):
    """{enclosing function: ["file:line", ...]} for each reference to `name`
    in the library."""
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for scope, line in _uses(tree, name):
            uses.setdefault(scope, []).append("%s:%d" % (path.name, line))
    return uses


def test_unchecked_element_has_only_allowed_callers():
    uses = _library_uses("_unchecked_element")
    assert set(uses) == UNCHECKED_ELEMENT_CALLERS, uses
    assert all(p.startswith("lexgroups.py:")
               for places in uses.values() for p in places), uses


# Every lexicographic decision walks its coordinates through
# first_difference; the witness builders compare against their bounds.
COMPARE_CROSS_CALLERS = {"first_difference", "small_positive",
                         "element_below"}


def test_compare_cross_has_only_allowed_callers():
    uses = _library_uses("compare_cross")
    assert set(uses) == COMPARE_CROSS_CALLERS, uses
    assert all(p.startswith("scalars.py:")
               for places in uses.values() for p in places), uses


def _unused_imports(tree):
    """Names a module imports but never reads; a read of a local variable
    of the same name counts as a read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in read}


def test_library_has_no_unused_imports():
    # the package imports the names it re-exports in __all__
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and \
                    getattr(node.targets[0], "id", None) == "__all__":
                exported = set(ast.literal_eval(node.value))
        found += ["%s:%d %s" % (path.name, line, name)
                  for name, line in _unused_imports(tree).items()
                  if name not in exported]
    assert found == []


# The integer scalar core: these bodies work on the ints (p, q, n, d) alone,
# and so does the sign kernel under them and the witness builders over them.
FRACTION_FREE = {"Scalar.__add__", "Scalar.__neg__", "Scalar.__sub__",
                 "Scalar.__mul__", "Scalar.sign", "Scalar.floor",
                 "Scalar._merged", "Scalar.__eq__", "Scalar.__hash__",
                 "_over", "from_ratios", "compare_cross", "first_difference",
                 "contains", "_sgn", "_quad_sign", "_sign3", "small_positive",
                 "element_below"}


def test_scalar_arithmetic_and_signs_name_no_fraction():
    tree = ast.parse((SRC / "scalars.py").read_text(), "scalars.py")
    bodies = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            bodies[node.name] = node
        elif isinstance(node, ast.ClassDef) and node.name == "Scalar":
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    bodies["Scalar." + item.name] = item
    assert FRACTION_FREE <= set(bodies)
    found = ["%s:%d" % (name, line) for name in sorted(FRACTION_FREE)
             for _, line in _uses(bodies[name], "Fraction")]
    assert found == []


def _bounded_lru_cache(call):
    """Whether the call is lru_cache(maxsize=<int literal>)."""
    size = call.args[:1] + [k.value for k in call.keywords
                            if k.arg == "maxsize"]
    return len(size) == 1 and isinstance(size[0], ast.Constant) and \
        type(size[0].value) is int


# The library's memos: the radicand splits, the parsed group texts and the
# injections into the divisible hull, as (module file, function).
MEMOS = {("scalars.py", "_split"), ("dsl.py", "parse_group"),
         ("lexgroups.py", "widening")}


def test_memos_are_bounded():
    # memory stays bounded by the size of the input: every lru_cache is
    # called with an integer maxsize, and functools.cache is not used
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        nodes = list(ast.walk(tree))
        bounded = {id(node.func) for node in nodes
                   if isinstance(node, ast.Call) and _bounded_lru_cache(node)}
        for node in nodes:
            name = getattr(node, "id", getattr(node, "attr", None))
            unbounded = name == "lru_cache" and id(node) not in bounded
            owner = getattr(getattr(node, "value", None), "id", None)
            cache = isinstance(node, ast.ImportFrom) and \
                node.module == "functools" and \
                "cache" in [a.name for a in node.names] or \
                name == "cache" and owner == "functools"
            if unbounded or cache:
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
    # and each memo is there, by name, under a bounded lru_cache
    memos = {(path.name, node.name) for path in sorted(SRC.glob("*.py"))
             for node in ast.parse(path.read_text(), str(path)).body
             if isinstance(node, ast.FunctionDef) and any(
                 isinstance(d, ast.Call) and _bounded_lru_cache(d) and
                 getattr(d.func, "id", None) == "lru_cache"
                 for d in node.decorator_list)}
    assert memos == MEMOS


# Modules a cold `ordcut` command should not pay for: the records need no
# dataclasses (nor the inspect it imports), fractions, with the decimal it
# imports, loads only when a Fraction is read or made, and the CLI's tables
# are namedtuples from collections, which re loads anyway, not typing's.
COLD_IMPORT_FREE = ("dataclasses", "inspect", "decimal", "fractions",
                    "typing")


def test_cli_import_leaves_heavy_modules_out():
    # -I -S: no environment variables and no site hooks, whose .pth files
    # may import modules of their own; -B: no bytecode left in src/
    code = ("import sys; sys.path.insert(0, %r); import ordcut.cli; "
            "import json; print(json.dumps(sorted(sys.modules)))"
            % str(SRC.parent))
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "ordcut.cli" in loaded
    assert [m for m in COLD_IMPORT_FREE if m in loaded] == []
