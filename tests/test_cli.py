"""Command-line front end: outputs, exit codes, JSON parity."""

import io
import json
import time

from ordcut import cli


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_invariance_example():
    code, out, _ = run("invariance", "lex(Z,Z)", "below([2,0]; C 1)")
    assert code == 0
    assert out == "invariance_level: 1\n"


def test_classify_examples():
    assert run("classify", "hahn_omega(Z)", "periodic([]; [1])")[1] == \
        "type: tightened\n"
    assert run("classify", "lex(Z)", "below([3]; C 1)")[1] == \
        "type: relative_jump\n"
    assert run("classify", "lex(Z,Q)",
               "gap([1]; 2; 0+1*sqrt(2))")[1] == "type: gapped\n"


def test_member_example():
    code, out, _ = run("member", "lex(Z,Z)", "below([1,0]; C 1)", "[1,100]")
    assert code == 0 and out == "side: minus\n"


def test_exit_code_table():
    cases_syntax = [
        (),  # no verb
        ("frobnicate", "lex(Z)"),
        ("classify",),  # missing args
        ("classify", "lex(Z", "below([3]; C 1)"),
        ("classify", "lex(Z)", "below([3]; C )"),
        ("member", "lex(Z,Z)", "below([1,0]; C 1)", "[1]"),
        ("classify", "lex(Z)", "below([3]; C 1)", "--seed", "x"),
        ("classify", "lex(Z)", "below([3]; C 1)", "--frob"),
        ("project", "lex(Z,Z)", "below([1,0]; C 1)", "one"),
    ]
    for argv in cases_syntax:
        code, out, err = run(*argv)
        assert code == 1, argv
        assert err.startswith("syntax error:") and out == ""
    cases_domain = [
        ("classify", "lex(Z)", "gap([]; 1; 1/2)"),
        ("classify", "lex(Q)", "gap([]; 1; 1/2)"),
        ("classify", "lex(Z)", "below([3]; C 0)"),
        ("project", "lex(Z,Z)", "below([1,0]; C 1)", "3"),
        ("trace", "lex(Z,Z)", "below([1,0]; C 1)", "1"),
        ("orders", "-1"),
    ]
    for argv in cases_domain:
        code, out, err = run(*argv)
        assert code == 2, argv
        assert err.startswith("domain error:") and out == ""
    ok = [
        ("classify", "lex(Z)", "below([3]; C 1)"),
        ("orders", "0"),
        ("skeleton", "hahn_omega(Q)"),
    ]
    for argv in ok:
        code, _, err = run(*argv)
        assert code == 0 and err == "", argv


def test_gap_normalization_message():
    code, _, err = run("classify", "lex(Z)", "gap([]; 1; 1/2)")
    assert code == 2
    assert "discrete factor normalizes gap to principal; use below/above" \
        in err


def test_project_error_reports_witness():
    code, _, err = run("project", "lex(Z,Z)", "below([1,0]; C 2)", "1")
    assert code == 2
    assert "witness: [1]" in err


def test_push_pull_examples():
    code, out, _ = run("push", "lex(Z[sqrt 2])", "widen", "gap([]; 1; 1/2)")
    assert code == 0
    assert "lower: above([1/2]; C 1)" in out
    assert "upper: below([1/2]; C 1)" in out
    code, out, _ = run("pull", "lex(Z,Q)", "widen", "below([1/2,0]; C 2)")
    assert code == 0
    assert "result_cut: below([0,0]; C 1)" in out
    assert "invariance_level: 1" in out


def test_transport_and_bounds():
    code, out, _ = run("transport", "lex(Z,Z,Z,Z)", "below([1,2,3,0]; C 3)",
                       "3", "1")
    assert code == 0
    assert "result_group: lex(Z,Z)" in out
    assert "result_cut: below([2,3]; C 2)" in out
    code, out, _ = run("bounds", "lex(Z,Z)", "below([1,0]; C 1)", "[1,0]")
    assert out == "psi_minus: 2\nphi_minus: 1\npsi_plus: 1\nphi_plus: 0\n"


def test_omega_invariance_output():
    code, out, _ = run("invariance", "hahn_omega(Q)",
                       "gap_at({}; 1; 0+1*sqrt(2))")
    assert code == 0
    assert "invariance: tail(2)" in out
    assert "index_cut: L^{>1}" in out


def test_orders_output():
    code, out, _ = run("orders", "3")
    assert code == 0
    assert "count: 4" in out
    assert "bounds: (-,0),(0,1),(1,2),(2,-)" in out


def test_misc_verbs():
    assert run("discreteness", "lex(Q,Z)")[1] == \
        "discrete: true\ndiscretely_ordered: false\nmin_positive: [0,1]\n"
    assert run("hull", "lex(Z,Z[sqrt 2])")[1] == \
        "result_group: lex(Q,Q[sqrt 2])\n"
    assert run("convex-subgroups", "lex(Z,Q)")[1] == \
        "levels: 0,1,2\nprincipal: 0,1\n"
    assert run("embed", "lex(Z,Z)", "[2,-1]")[1] == "image: [2,-1]\n"
    assert run("compare", "lex(Z,Z)", "[1,-5]", "[1,3]")[1] == "order: less\n"
    assert run("compare", "lex(Q)", "above([0]; C 1)",
               "below([0]; C 1)")[1] == "order: less\n"
    assert run("translate", "lex(Z,Z)", "below([1,0]; C 1)",
               "[2,5]")[1] == "result_cut: below([3,0]; C 1)\n"
    assert run("trace", "lex(Z,Z,Q)", "gap([1,2]; 3; 0+1*sqrt(2))",
               "1")[1] == \
        "result_group: lex(Z,Q)\nresult_cut: gap([2]; 2; 0 + 1*sqrt(2))\n"


def test_json_parity():
    commands = [
        ("classify", "lex(Z)", "below([3]; C 1)"),
        ("invariance", "lex(Z,Z)", "below([2,0]; C 1)"),
        ("bounds", "lex(Z,Z)", "below([1,0]; C 1)", "[1,0]"),
        ("push", "lex(Z[sqrt 2])", "widen", "gap([]; 1; 1/2)"),
        ("orders", "3"),
        ("invariance", "hahn_omega(Z)", "periodic([]; [1])"),
    ]
    for argv in commands:
        code, plain, _ = run(*argv)
        code_j, out_j, _ = run(*argv, "--json")
        assert code == code_j == 0
        data = json.loads(out_j)
        lines = dict(line.split(": ", 1)
                     for line in plain.rstrip("\n").split("\n"))
        assert {k: str(v) for k, v in data.items()} == lines


def test_flag_forms():
    a = run("classify", "lex(Z)", "below([3]; C 1)", "--seed", "7", "--box=9")
    b = run("classify", "lex(Z)", "below([3]; C 1)")
    assert a == b


def test_hull_of_large_radicand_is_quick():
    # about 1e6 trial divisions up to the cube root; up to sqrt(d), 1e9
    t0 = time.perf_counter()
    code, out, _ = run("hull", "lex(Z[sqrt 1000000000000000003])")
    assert code == 0
    assert out == "result_group: lex(Q[sqrt 1000000000000000003])\n"
    assert time.perf_counter() - t0 < 5


def test_bad_integer_literals_are_syntax_errors():
    # '²' passes str.isdigit but not int(); int() takes the Arabic-Indic
    # '٣', but the grammar's INT is ASCII; a literal past the interpreter's
    # int-to-str digit limit makes int() raise
    long_literal = "1" * 5000
    cases = [("hull", "lex(Z[sqrt ²])", "sqrt "),
             ("hull", "lex(Z[sqrt ٣])", "sqrt "),
             ("hull", "lex(Z[sqrt %s])" % long_literal, "sqrt "),
             ("member", "lex(Q)", "below([%s]; C 1)" % long_literal, "[1]",
              "[")]
    for *argv, before in cases:
        code, out, err = run(*argv)
        assert code == 1 and out == "", argv[:2]
        assert err.startswith("syntax error:"), err[:200]
        text = argv[1] if argv[0] == "hull" else argv[2]
        pos = text.index(before) + len(before)
        assert err.rstrip().endswith("(at position %d)" % pos), err[:200]
