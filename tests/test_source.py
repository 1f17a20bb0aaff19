"""Checks on the library as a whole: what its source may hold, how many
scalar comparisons its lex decisions make, and which modules it loads."""

import ast
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

from ordcut import cuts, lexgroups, scalars
from ordcut.lexgroups import LexGroup
from ordcut.scalars import KIND_Q, KIND_Z

import sampling
from sampling import quad_q, quad_z, sample_descriptor, sample_element

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


def _scoped(tree, match):
    """(enclosing function, line) of each node that `match` accepts; the
    enclosing function is qualified by its class."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if match(node):
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def _uses(tree, name):
    """(enclosing function, line) of each reference to `name` outside its
    own definition."""
    return _scoped(tree, lambda node: (
        isinstance(node, ast.Name) and node.id == name or
        isinstance(node, ast.Attribute) and node.attr == name or
        isinstance(node, ast.alias) and name in (node.name, node.asname)))


# errors.integer, errors.index and errors.same_group say the common
# refusals: an index that is not exactly an int, one outside its range, and
# an argument over another group.  No other module words them, or tests
# `__class__ is not int` itself but in the scopes listed here, each with its
# reason.
INT_TEST_EXEMPT = {
    "RankOneKind.__post_init__":
        "its `d.__class__ is not int` decides whether to split d; "
        "_square_free does the refusing",
}
# As patterns: a range may be written `outside %d..` or `outside 0..%d`.
REFUSAL_WORDS = ("must be an integer", "different group", "must be nonnegative",
                 r"outside \S*\.\.", "is an int or a Fraction, not")


def _int_tests(tree):
    """(enclosing function, line) of each `x.__class__ is not int`."""
    return _scoped(tree, lambda node: (
        isinstance(node, ast.Compare) and
        isinstance(node.left, ast.Attribute) and
        node.left.attr == "__class__" and
        [op.__class__ for op in node.ops] == [ast.IsNot] and
        [getattr(c, "id", None) for c in node.comparators] == ["int"]))


def test_common_refusals_are_said_once():
    words, tests = [], {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        text = path.read_text()
        words += ["%s:%d" % (path.name, n)
                  for n, line in enumerate(text.splitlines(), 1)
                  if any(re.search(w, line) for w in REFUSAL_WORDS)]
        for scope, line in _int_tests(ast.parse(text, str(path))):
            tests.setdefault(scope, []).append("%s:%d" % (path.name, line))
    assert words == []
    assert set(tests) == set(INT_TEST_EXEMPT), tests
    assert all(reason for reason in INT_TEST_EXEMPT.values())
    # and errors.py says each
    text = (SRC / "errors.py").read_text()
    assert all(re.search(w, text) for w in REFUSAL_WORDS)
    assert "outside %d.." in text
    assert [s for s, _ in _int_tests(ast.parse(text))] == ["integer"]


# Public definitions that no library code uses, each with the file outside
# src/ that uses it: an acceptance criterion, the README's example or the
# benchmark.  A definition that only other tests use lives in tests/.  An
# import counts as a use.
OUTSIDE_USERS = {
    "cuts.Principal.anchor": "perfbench/adapter.py",
    "cuts.invariance_witness": "tests/test_acceptance.py",
    "dsl.print_morphism": "perfbench/adapter.py",
    "hahnomega.omega_gap_at": "tests/test_acceptance.py",
    "hahnomega.omega_invariance_witness": "tests/test_acceptance.py",
    "hahnomega.omega_periodic": "tests/test_acceptance.py",
    "lexgroups.epsilon_upper": "tests/test_acceptance.py",
    "lexgroups.initial_part": "tests/test_acceptance.py",
    "lexgroups.zero": "tests/test_acceptance.py",
    "ordsets.MonotoneMap.is_injective": "tests/test_acceptance.py",
    "ordsets.MonotoneMap.is_surjective": "tests/test_acceptance.py",
    "ordsets.all_monotone_maps": "tests/test_acceptance.py",
    "ordsets.lower_image": "tests/test_acceptance.py",
    "ordsets.cut_witness": "tests/test_acceptance.py",
    "ordsets.pullback": "tests/test_acceptance.py",
    "ordsets.reconstruct": "tests/test_acceptance.py",
    "ordsets.upper_image": "tests/test_acceptance.py",
    "scalars.Scalar.a": "perfbench/adapter.py",
    "scalars.Scalar.b": "perfbench/adapter.py",
}
USER_FILES = ("tests/test_acceptance.py", "README.md", "perfbench/")


def _references(nodes, names, modules):
    """What the code of these nodes refers to: "module.name" for a bare
    name the module defines or imports from the library, or an attribute of
    a library module (`dsl.parse_group`); "*.name" for any other attribute,
    or a string that getattr could read, since it may name any method."""
    found = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id in names:
                found.add(names[n.id])
            elif isinstance(n, ast.Attribute):
                owner = getattr(n.value, "id", None)
                found.add("%s.%s" % (modules[owner], n.attr)
                          if owner in modules else "*." + n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                    and n.value.isidentifier():
                found.add("*." + n.value)
    return found


def _library_definitions():
    """(defs, roots): defs maps each function and class of the library, as
    "module.name", and each method, as "module.Class.name", to (its class,
    or None, and what its code refers to); roots is what module-level code,
    which runs at import, refers to."""
    defs, roots = {}, set()
    for path in sorted(SRC.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text(), str(path))
        names = {node.name: "%s.%s" % (module, node.name)
                 for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        modules = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:  # from . import dsl
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = "%s.%s" % (
                            node.module, alias.name)
        top = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[names[node.name]] = None, _references(
                    [node], names, modules)
            elif isinstance(node, ast.ClassDef):
                cls = names[node.name]
                own = node.bases + node.decorator_list + [
                    item for item in node.body
                    if not isinstance(item, ast.FunctionDef)]
                defs[cls] = None, _references(own, names, modules)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs["%s.%s" % (cls, item.name)] = cls, _references(
                            [item], names, modules)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                top.append(node)
        roots |= _references(top, names, modules)
    return defs, roots


def _unused_public_names(defs, roots, outside_users):
    """The public definitions of defs that neither roots nor outside_users
    reach, through the code of what they reach.  A method is reached when
    its class is and its name is read ("*.name"), or, for a dunder, when its
    class is; the methods of an unreached class go with it."""
    reached = roots | set(outside_users)
    live, grew = set(), True
    while grew:
        grew = False
        for name, (cls, refs) in defs.items():
            if name in live:
                continue
            short = name.rsplit(".", 1)[1]
            if cls is None:
                hit = name in reached
            else:
                hit = cls in live and (name in reached or short[:2] == "__"
                                       or "*." + short in reached)
            if hit:
                live.add(name)
                reached |= refs
                grew = True
    return sorted(name for name, (cls, _) in defs.items()
                  if name not in live and cls in live | {None} and
                  not any(part.startswith("_")
                          for part in name.split(".")))


def _mentions(path, name):
    """Whether the Python code of the file, or of a Markdown file's python
    blocks, refers to name."""
    text = (SRC.parents[1] / path).read_text()
    if path.endswith(".md"):
        text = "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))
    return bool(_uses(ast.parse(text, path), name))


def test_public_names_have_a_user():
    # a definition stays in the library only while library code, an
    # acceptance criterion, the README's example or the benchmark uses it
    defs, roots = _library_definitions()
    assert _unused_public_names(defs, roots, OUTSIDE_USERS) == []
    for name, path in OUTSIDE_USERS.items():
        # each entry is needed, and its file uses the name
        assert name in _unused_public_names(
            defs, roots, set(OUTSIDE_USERS) - {name}), name
        assert path.startswith(USER_FILES), (name, path)
        assert _mentions(path, name.rsplit(".", 1)[1]), (name, path)


LEX_GROUPS = [LexGroup(f) for f in ((KIND_Z,), (KIND_Q, KIND_Z),
                                    (quad_z(2), KIND_Z, quad_q(3)),
                                    (KIND_Z, quad_q(2), KIND_Q))]


def test_a_lex_decision_compares_each_coordinate_once_at_most(monkeypatch):
    # a comparison, a membership and a comparison of cuts over rank k make
    # at most k scalar comparisons, k when every coordinate ties
    calls = []
    compare = scalars.compare_cross

    def counted(x, y):
        calls.append(None)
        return compare(x, y)

    monkeypatch.setattr(scalars, "compare_cross", counted)
    rng = sampling.rng_for(31)
    for g in LEX_GROUPS:
        for _ in range(20):
            x, y = sample_element(g, rng, 2), sample_element(g, rng, 2)
            c, c2 = sample_descriptor(g, rng, 2), sample_descriptor(g, rng, 2)
            k = len(c.ref)
            for decide, most, tie in (
                    (lambda: lexgroups.lex_compare(x, x), g.rank, True),
                    (lambda: lexgroups.lex_compare(x, y), g.rank, False),
                    (lambda: cuts.member(c, x), k, False),
                    (lambda: cuts.compare_cuts(c, c), k, True),
                    (lambda: cuts.compare_cuts(c, c2), min(k, len(c2.ref)),
                     False)):
                calls.clear()
                decide()
                assert len(calls) == most if tie else len(calls) <= most


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


# Scalars built from ints, over one radical, over two and over one square
# class, and the arithmetic, signs, floors, comparisons and witness builders
# over them, printed as one list.
SCALAR_CORE = """
from ordcut.errors import DomainError
from ordcut.scalars import (RankOneKind, Scalar, compare_cross, contains,
                            element_below, first_difference, small_positive)
xs = [Scalar.make(a, b, d) for a, b, d in (
    (3, 0, 0), (-7, 2, 2), (1, -1, 8), (5, 3, 3), (-2, 5, 12),
    (10 ** 30, -7 * 10 ** 29, 2), (0, 1, 1031 ** 2 * 1033), (1, 1031, 1033))]
kinds = [RankOneKind(t, d) for t in "ZQ" for d in (0, 2, 3)]
out = [first_difference(zip(xs, xs[::-1]))]
for x in xs:
    out += [x.sign(), x.floor(), hash(x), -x, x * 3, 3 * x, x / 7, x + 1,
            x - 2]
    for y in xs:
        out += [compare_cross(x, y), x == y]
        try:
            out += [x + y, x - y, x * y, x / y]
        except (DomainError, ZeroDivisionError) as e:
            out.append(e)
    for kind in kinds:
        out.append(contains(kind, x))
        for call in (lambda: small_positive(kind, x),
                     lambda: element_below(kind, x, xs[3] / 5),
                     lambda: element_below(kind, x, xs[0] - 1)):
            try:
                out.append(call())
            except DomainError as e:
                out.append(e)
print([str(v) for v in out])
"""


def test_scalar_core_runs_where_fractions_cannot_be_imported():
    # a Scalar is four ints: arithmetic, signs, floors, comparisons and the
    # witness builders on scalars built from ints import no fractions, and
    # answer as they do beside it
    code = ("import sys; sys.path.insert(0, %r)\n"
            "sys.modules['fractions'] = None  # import fractions fails\n"
            % str(SRC.parent) + SCALAR_CORE)
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(SCALAR_CORE, {})
    assert done.stdout == here.getvalue()


def _bounded_lru_cache(call):
    """Whether the call is lru_cache(maxsize=<int literal>)."""
    size = call.args[:1] + [k.value for k in call.keywords
                            if k.arg == "maxsize"]
    return len(size) == 1 and isinstance(size[0], ast.Constant) and \
        type(size[0].value) is int


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


def test_scale_push_loads_no_number_modules():
    # the scales are rational Scalars: parsing, checking and applying them
    # reads no Fraction, so neither fractions nor the decimal and numbers
    # it imports are loaded
    code = ("import sys; sys.path.insert(0, %r); from ordcut import cli; "
            "cli.main(['push', 'lex(Z,Q)', 'scale(1/2,3)', "
            "'below([1,0]; C 1)']); print(sorted({'fractions', 'decimal', "
            "'numbers'} & set(sys.modules)))" % str(SRC.parent))
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "result_group: lex(Q,Q)", "lower: below([1/2,0]; C 1)",
        "upper: above([1,0]; C 1)", "[]"]


def test_refusing_a_float_loads_no_number_modules():
    # errors.rational tells an int from a Fraction without importing
    # fractions: a float is refused as a make coefficient, an arithmetic
    # operand and a scale, and neither fractions nor decimal is loaded
    code = ("import sys; sys.path.insert(0, %r); "
            "from ordcut import lexgroups, scalars\n"
            "g = lexgroups.LexGroup((scalars.KIND_Q,))\n"
            "for call in (lambda: scalars.Scalar.make(0.5), "
            "lambda: scalars.ONE * 0.5, "
            "lambda: lexgroups.FactorwiseInjection(g, g, (0.5,))):\n"
            "    try:\n        call()\n"
            "    except scalars.DomainError as e:\n        print(e)\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
            % str(SRC.parent))
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "a coefficient is an int or a Fraction, not float",
        "a coefficient is an int or a Fraction, not float",
        "a scale is an int or a Fraction, not float", "[]"]
