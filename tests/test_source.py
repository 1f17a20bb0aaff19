"""Checks on the library source itself."""

import ast
import json
import re
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


# The callers of a record class's `trusted`, the one constructor that skips its
# checks, each with the reason its inputs pass them.
TRUSTED_CALLERS = {
    "GroupElement.__add__":
        "operands of one group: each coordinate sum stays in its factor",
    "GroupElement.__neg__":
        "an element's negated coordinates stay in their factors",
    "FactorwiseInjection.apply":
        "an element of the domain: the morphism's check puts each scaled "
        "coordinate in its codomain factor",
    "_cut":
        "ref entries but the last lie in their factors and _cut settles the "
        "last: a principal ref ends inside its factor, closed over a "
        "discrete one, and a gap's ends outside a dense one",
    "OmegaElement.__add__":
        "operands of one group: sums stay in the factor, zeros are dropped "
        "and indices sorted",
    "OmegaElement.__neg__":
        "negated nonzero values stay in the factor, in index order",
    "omega_translate":
        "an anchor plus an element of its group: entries stay in the factor, "
        "a gap's delta stays outside it and its prefix below its index",
    "divisible_hull_kind":
        "the radicand is that of a kind that passed the check",
}


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


def _library_scopes(find):
    """{enclosing function: ["file:line", ...]} for each node that
    find(tree) reports in the library."""
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for scope, line in find(tree):
            uses.setdefault(scope, []).append("%s:%d" % (path.name, line))
    return uses


def _library_uses(name):
    return _library_scopes(lambda tree: _uses(tree, name))


def test_trusted_constructor_has_only_allowed_callers():
    uses = _library_uses("trusted")
    # Record gives each class its `trusted`; every other use is a call
    assert [p.split(":")[0] for p in uses.pop("Record.__init_subclass__")] \
        == ["record.py"]
    assert set(uses) == set(TRUSTED_CALLERS), uses
    assert all(reason for reason in TRUSTED_CALLERS.values())
    # and it is the only constructor that goes round __post_init__: no
    # other code makes a bare instance, but for scalars' `_new`, which
    # `_raw` uses to build a Scalar (not a record)
    files = {scope: [p.split(":")[0] for p in places]
             for scope, places in _library_uses("__new__").items()}
    assert files == {"_constructors": ["record.py"], "": ["scalars.py"]}


def _builds(cls):
    """Calls that construct cls, checked or trusted."""
    def match(node):
        f = getattr(node, "func", None)
        if isinstance(f, ast.Attribute) and f.attr == "trusted":
            f = f.value
        return isinstance(node, ast.Call) and getattr(f, "id", None) == cls
    return lambda tree: _scoped(tree, match)


def test_only_cut_builds_principal_and_gap_descriptors():
    # principal, gap_cut and every operation return through cuts._cut
    for cls in ("Principal", "GapCut"):
        uses = _library_scopes(_builds(cls))
        assert set(uses) == {"_cut"}, uses
        assert all(p.startswith("cuts.py:")
                   for places in uses.values() for p in places), uses


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


# Every lexicographic decision walks its coordinates through
# first_difference; the witness builders compare against their bounds, and
# scalar equality is the sign rule's zero.
COMPARE_CROSS_CALLERS = {"first_difference", "small_positive",
                         "element_below", "Scalar.__eq__"}


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
                 "Scalar.__mul__", "Scalar.__truediv__",
                 "Scalar.sign", "Scalar.floor",
                 "Scalar._merged", "Scalar.__eq__", "Scalar.__hash__",
                 "class_root", "_over", "from_ratios", "compare_cross",
                 "first_difference", "contains", "_sgn", "_quad_sign",
                 "small_positive", "element_below"}


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
MEMOS = {("scalars.py", "_split"), ("dsl.py", "_group"),
         ("lexgroups.py", "_widening")}


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
