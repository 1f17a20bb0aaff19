"""Command-line front end: outputs, exit codes, JSON parity."""

import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from ordcut import cli, scalars

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_signed_periods_answer():
    assert run("classify", "hahn_omega(Z)", "periodic([]; [-1,2])") == \
        (0, "type: tightened\n", "")
    assert run("invariance", "hahn_omega(Q)", "periodic([]; [0,-3/2])") == \
        (0, "invariance: zero\nindex_cut: top\n", "")
    assert run("member", "hahn_omega(Z)", "periodic([]; [-1,2])",
               "{0:-1,1:3}") == (0, "side: plus\n", "")
    assert run("translate", "hahn_omega(Q)", "periodic([1/2]; [-3/2])",
               "{2:1}") == \
        (0, "result_anchor: periodic([1/2,-3/2,-1/2]; [-3/2])\n", "")


def test_domain_error_prints_dsl_text():
    code, out, err = run("embed", "lex(Z[sqrt 2],Q)",
                         "[1/3 + 1/3*sqrt(1009),-3/2]")
    assert (code, out) == (2, "")
    assert err == "domain error: coordinate 1/3 + 1/3*sqrt(1009) outside " \
        "factor\n"


def test_module_runs_main_and_exits_with_its_code():
    # `python -m ordcut.cli` ends in sys.exit(main()): exit codes 0, 1 and 2
    # with the result on stdout and the error on stderr
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cases = [(["member", "lex(Z,Z)", "below([2,0]; C 1)", "[1,5]"],
              0, "side: minus\n", ""),
             (["member", "lex(Z,Z)", "below([2,0]; C 1", "[1,5]"],
              1, "", "syntax error: expected ')' (at position 16)\n"),
             (["project", "hahn_omega(Z)", "point({0:1})", "1"],
              2, "", "domain error: project takes a lex group\n")]
    for argv, code, out, err in cases:
        done = subprocess.run([sys.executable, "-m", "ordcut.cli"] + argv,
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == \
            (code, out, err), argv


def test_member_example():
    code, out, _ = run("member", "lex(Z,Z)", "below([1,0]; C 1)", "[1,100]")
    assert code == 0 and out == "side: minus\n"


def test_compare_reports_the_malformed_argument():
    # A's first token picks two cuts or two elements; each is parsed once
    assert run("compare", "lex(Z)", "below([1]; C 1)", "above([x]; C 1)") \
        == (1, "", "syntax error: expected an integer (at position 7)\n")
    assert run("compare", "lex(Z)", "[1]", "[x]") == \
        (1, "", "syntax error: expected an integer (at position 1)\n")
    assert run("compare", "lex(Z)", "all_below", "[1]") == \
        (1, "", "syntax error: expected a cut expression (at position 0)\n")
    assert run("compare", "lex(Z)", " \u3000[1]", "below([1]; C 1)") == \
        (1, "", "syntax error: expected '[' (at position 0)\n")
    assert run("compare", "lex(Z)", "\t[2]", "[1]") == \
        (0, "order: greater\n", "")


def test_repeated_omega_index_is_a_domain_error():
    for x in ("{1:2,1:3}", "{1:2,1:0}"):
        assert run("member", "hahn_omega(Z)", "point({0:1})", x) == \
            (2, "", "domain error: index 1 repeats\n")


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


def test_scale_over_the_rank_zero_group_takes_no_entries():
    # scale takes one entry per factor: none over lex(), as elsewhere
    assert run("pull", "lex()", "scale()", "all_above") == (
        0, "result_group: lex()\nresult_cut: all_above\n"
        "invariance_level: 0\n", "")
    assert run("push", "lex()", "scale()", "all_below") == (
        0, "result_group: lex()\nlower: all_below\nupper: all_below\n", "")
    code, out, err = run("pull", "lex(Z)", "scale()", "all_above")
    assert (code, out) == (1, "") and "expected an integer" in err


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
        ("member", "lex(Z,Z)", "below([1,0]; C 1)", "[1,100]"),
        ("compare", "lex(Q)", "above([0]; C 1)", "below([0]; C 1)"),
        ("compare", "lex(Z,Z)", "[1,-5]", "[1,3]"),
        ("translate", "lex(Z,Z)", "below([1,0]; C 1)", "[2,5]"),
        ("project", "lex(Z,Z)", "below([1,0]; C 1)", "1"),
        ("trace", "lex(Z,Z,Q)", "gap([1,2]; 3; 0+1*sqrt(2))", "1"),
        ("transport", "lex(Z,Z,Z,Z)", "below([1,2,3,0]; C 3)", "3", "1"),
        ("pull", "lex(Z,Q)", "widen", "below([1/2,0]; C 2)"),
        ("skeleton", "lex(Z,Q[sqrt 3])"),
        ("embed", "lex(Z,Z)", "[2,-1]"),
        ("convex-subgroups", "lex(Z,Q)"),
        ("discreteness", "lex(Q,Z)"),
        ("hull", "lex(Z,Z[sqrt 2])"),
        ("classify", "hahn_omega(Z)", "periodic([]; [1])"),
        ("member", "hahn_omega(Q)", "gap_at({}; 1; 0+1*sqrt(2))", "{1:1}"),
        ("compare", "hahn_omega(Z)", "{0:1}", "{0:1,2:-3}"),
        ("translate", "hahn_omega(Q)", "point({0:1})", "{1:1/2}"),
        ("skeleton", "hahn_omega(Q)"),
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
    # --json in any position; no other flag exists
    a = run("classify", "--json", "lex(Z)", "below([3]; C 1)")
    b = run("classify", "lex(Z)", "below([3]; C 1)", "--json")
    assert a == b == (0, '{"type": "relative_jump"}\n', "")
    for argv in (("--seed", "7"), ("--box=9",)):
        code, out, err = run("classify", "lex(Z)", "below([3]; C 1)", *argv)
        assert code == 1 and out == "", argv
        assert err == "syntax error: unknown flag %s\n" % argv[0]


# the usage line of every verb, as each verb reports one argument too few
USAGES = {
    "classify": "classify GROUP CUT",
    "invariance": "invariance GROUP CUT",
    "member": "member GROUP CUT ELEMENT",
    "compare": "compare GROUP A B",
    "translate": "translate GROUP CUT ELEMENT",
    "project": "project GROUP CUT LEVEL",
    "trace": "trace GROUP CUT LEVEL",
    "transport": "transport GROUP CUT LEVEL1 LEVEL2",
    "bounds": "bounds GROUP CUT ELEMENT",
    "push": "push GROUP MORPHISM CUT",
    "pull": "pull GROUP MORPHISM CUT",
    "skeleton": "skeleton GROUP",
    "embed": "embed GROUP ELEMENT",
    "convex-subgroups": "convex-subgroups GROUP",
    "discreteness": "discreteness GROUP",
    "hull": "hull GROUP",
    "orders": "orders SIZE",
}


def test_usage_lines():
    for verb, usage in USAGES.items():
        words = usage.split()
        too_few = [verb] + ["lex(Z)"] * (len(words) - 2)
        assert run(*too_few) == (1, "", "syntax error: expected: %s\n"
                                 % usage), verb
        too_many = [verb] + ["lex(Z)"] * len(words)
        assert run(*too_many)[0] == 1, verb


# arguments as each verb takes them over lex(Q)
LEX_ONLY = [
    ("project", "below([1]; C 1)", "1"),
    ("trace", "below([1]; C 1)", "1"),
    ("transport", "below([1]; C 1)", "1", "0"),
    ("bounds", "below([1]; C 1)", "[1]"),
    ("push", "widen", "below([1]; C 1)"),
    ("pull", "widen", "below([1]; C 1)"),
    ("embed", "[1]"),
    ("convex-subgroups",),
    ("discreteness",),
    ("hull",),
]


def test_lex_only_verbs_refuse_omega_groups():
    assert sorted(v for v, *_ in LEX_ONLY) == sorted(
        set(USAGES) - {"classify", "invariance", "member", "compare",
                       "translate", "skeleton", "orders"})
    for verb, *args in LEX_ONLY:
        for json_flag in ((), ("--json",)):
            code, out, err = run(verb, "hahn_omega(Q)", *args, *json_flag)
            assert code == 2 and out == "", verb
            assert err == "domain error: %s takes a lex group\n" % verb


def test_hull_of_large_radicand_is_quick():
    # trial division to 2^10, then one isqrt of the cofactor, which is no
    # square; trial division to the cube root would take about 1e6 steps
    t0 = time.perf_counter()
    code, out, _ = run("hull", "lex(Z[sqrt 1000000000000000003])")
    assert code == 0
    assert out == "result_group: lex(Q[sqrt 1000000000000000003])\n"
    assert time.perf_counter() - t0 < 5


def test_radicands_past_trial_division_are_decided_quickly():
    # 10^24 + 7 is prime: trial division stops at 2^10, not at its cube
    # root (about 5e7 steps); in 3 * 100000000003^2 one isqrt finds the
    # square cofactor left after the 3
    t0 = time.perf_counter()
    code, out, _ = run("hull", "lex(Z[sqrt 1000000000000000000000007])")
    assert code == 0
    assert out == "result_group: lex(Q[sqrt 1000000000000000000000007])\n"
    code, _, err = run("hull", "lex(Z[sqrt 30000000001800000000027])")
    assert code == 2
    assert "not square-free" in err
    assert time.perf_counter() - t0 < 5


def test_hull_of_any_radicand_answers_within_a_second():
    # a prime near 10^30, semiprimes of 40 and 100 digits, and p^2 * q with
    # p and q primes near 10^20: none is factored
    p, q = 10 ** 20 + 39, 10 ** 20 + 129
    for d in (10 ** 30 + 57, (10 ** 19 + 51) * p,
              (10 ** 49 + 9) * (10 ** 50 + 151), p * p * q):
        t0 = time.perf_counter()
        assert run("hull", "lex(Z[sqrt %d])" % d) == \
            (0, "result_group: lex(Q[sqrt %d])\n" % d, "")
        assert time.perf_counter() - t0 < 1, d


def test_one_square_class_mixes_its_radicands():
    # P^2 * c with P and c primes past 2^10: sqrt(P^2*c) and P*sqrt(c) are
    # one value, whichever the group's radicand is
    P, c = 1031, 1033
    wide, narrow = "1*sqrt(%d)" % (P * P * c), "%d*sqrt(%d)" % (P, c)
    for group in ("lex(Q[sqrt %d])" % c, "lex(Z[sqrt %d])" % (P * P * c)):
        for x, y, order in (("0+", "0+", "equal"), ("0+", "1+", "less")):
            assert run("compare", group, "[%s%s]" % (x, wide),
                       "[%s%s]" % (y, narrow)) == (0, "order: %s\n" % order,
                                                   "")
        assert run("compare", group, "below([0+%s]; C 1)" % wide,
                   "below([0+%s]; C 1)" % narrow) == (0, "order: equal\n", "")
        for x, side in (("0+", "minus"), ("1+", "plus")):
            assert run("member", group, "below([0+%s]; C 1)" % narrow,
                       "[%s%s]" % (x, wide)) == (0, "side: %s\n" % side, "")
        assert run("translate", group, "above([0+%s]; C 1)" % wide,
                   "[0-%s]" % narrow) == \
            (0, "result_cut: above([0]; C 1)\n", "")
    assert run("translate", "lex(Q[sqrt %d])" % c, "below([0+%s]; C 1)" % wide,
               "[0+%s]" % narrow) == \
        (0, "result_cut: below([0 + %d*sqrt(%d)]; C 1)\n" % (2 * P, c), "")
    # 1*sqrt(c) is not in Z + Z*sqrt(P^2*c)
    code, _, err = run("member", "lex(Z[sqrt %d])" % (P * P * c),
                       "below([0+1*sqrt(%d)]; C 1)" % c, "[1]")
    assert code == 2 and "outside factor" in err


def test_one_query_splits_its_radicand_once():
    # the group, the anchor and the element all carry sqrt(100000007)
    misses = scalars._split.cache_info().misses
    assert run("member", "lex(Z[sqrt 100000007])",
               "below([1+2*sqrt(100000007)]; C 1)",
               "[3+1*sqrt(100000007)]") == (0, "side: minus\n", "")
    assert scalars._split.cache_info().misses == misses + 1


def test_anchor_coordinates_past_the_level_lie_in_their_factors():
    for argv in [("member", "lex(Z,Z)", "below([1,1/2]; C 1)", "[0,0]"),
                 ("translate", "lex(Z,Z)", "below([1,0]; C 1)", "[0,1/2]"),
                 ("classify", "lex(Z,Z[sqrt 2])",
                  "above([1,1+1*sqrt(3)]; C 1)")]:
        code, out, err = run(*argv)
        assert code == 2 and out == "", argv
        assert err.startswith("domain error: coordinate ") and \
            err.endswith(" outside factor\n"), argv


def test_bad_integer_literals_are_syntax_errors():
    # '²' passes str.isdigit but not int(); int() takes the Arabic-Indic
    # '٣', but the grammar's INT is ASCII; a literal past the interpreter's
    # int-to-str digit limit makes int() raise
    long_literal = "1" * 5000
    cases = [("hull", "lex(Z[sqrt ²])", "sqrt "),
             ("hull", "lex(Z[sqrt ٣])", "sqrt "),
             ("hull", "lex(Z[sqrt %s])" % long_literal, "sqrt "),
             ("member", "lex(Q)", "below([%s]; C 1)" % long_literal, "[1]",
              "["),
             # not hidden by the scalar's optional radical part
             ("member", "lex(Q)", "below([1+%s*sqrt(2)]; C 1)" % long_literal,
              "[1]", "[1+")]
    for *argv, before in cases:
        code, out, err = run(*argv)
        assert code == 1 and out == "", argv[:2]
        assert err.startswith("syntax error:"), err[:200]
        text = argv[1] if argv[0] == "hull" else argv[2]
        pos = text.index(before) + len(before)
        assert err.rstrip().endswith("(at position %d)" % pos), err[:200]


def test_results_past_the_int_to_str_limit_print_in_full():
    # each literal is under the limit, the sum's denominator (about 8000
    # digits) is past it; Decimal reads the digits back without the limit
    den1, den2 = "7" * 4000, "3" * 4001
    code, out, err = run("translate", "lex(Q)", "below([1/%s]; C 1)" % den1,
                         "[1/%s]" % den2)
    assert code == 0 and err == ""
    assert out.startswith("result_cut: below([")
    assert out.endswith("]; C 1)\n")
    num, den = out[len("result_cut: below(["):-len("]; C 1)\n")].split("/")
    assert len(den) > 8000
    total = Fraction(1, int(Decimal(den1))) + Fraction(1, int(Decimal(den2)))
    # lowest terms, as print_rat prints every rational
    assert (int(Decimal(num)), int(Decimal(den))) == (total.numerator,
                                                       total.denominator)


def test_omega_groups_over_a_quadratic_factor():
    g = "hahn_omega(Z[sqrt 2])"
    assert run("classify", g, "periodic([]; [1])") == \
        (0, "type: tightened\n", "")
    assert run("invariance", g, "gap_at({0:1+1*sqrt(2)}; 2; 1/2)") == \
        (0, "invariance: tail(3)\nindex_cut: L^{>2}\n", "")
    # 1 - sqrt(2) < 0 at index 0
    assert run("member", g, "periodic([]; [1-1*sqrt(2)])", "{0:-1}") == \
        (0, "side: minus\n", "")
    assert run("member", g, "periodic([]; [1-1*sqrt(2)])", "{1:1}") == \
        (0, "side: plus\n", "")
    assert run("translate", g, "gap_at({}; 0; 1/2)", "{0:2+1*sqrt(2)}") == \
        (0, "result_anchor: gap_at({}; 0; 5/2 + 1*sqrt(2))\n", "")
    assert run("translate", g, "point({0:1})", "{1:0+1*sqrt(2)}") == \
        (0, "result_anchor: point({0:1,1:0 + 1*sqrt(2)})\n", "")
    # values outside the factor are still refused
    assert run("member", g, "point({0:1/2})", "{}")[:2] == (2, "")


def test_level_and_size_take_ascii_digits_only():
    # int() accepts each of these; the grammar's INT does not
    for text in ("١", "1_0", "+1", " 1"):
        for argv in (("orders", text),
                     ("project", "lex(Z,Z)", "below([1,0]; C 1)", text)):
            code, out, err = run(*argv)
            assert (code, out) == (1, ""), argv
            assert err == "syntax error: expected a level integer, got " \
                "%r\n" % text
    # a negative value is well formed and refused as a domain error
    assert run("orders", "-1")[0] == 2
    assert run("project", "lex(Z,Z)", "below([1,0]; C 1)", "-1")[0] == 2


def test_member_of_a_far_gap_is_quick():
    t0 = time.perf_counter()
    assert run("member", "hahn_omega(Q)",
               "gap_at({}; 100000000000; 1+1*sqrt(2))", "{}") == \
        (0, "side: minus\n", "")
    assert time.perf_counter() - t0 < 1


def test_long_supports_take_linear_time():
    # a scan of the support per index would make each of these quadratic
    n = 20000
    x = "{%s}" % ",".join("%d:%d" % (i, i % 7 + 1) for i in range(n))
    y = x[:-1] + ",%d:1}" % n
    assert run("compare", "hahn_omega(Z)", x, x) == (0, "order: equal\n", "")
    t0 = time.perf_counter()
    assert run("compare", "hahn_omega(Z)", x, y) == (0, "order: less\n", "")
    assert time.perf_counter() - t0 < 2
    t0 = time.perf_counter()
    # x follows this anchor up to its last entry
    assert run("member", "hahn_omega(Z)", "periodic([]; [1,2,3,4,5,6,7])",
               x) == (0, "side: minus\n", "")
    code, out, _ = run("translate", "hahn_omega(Z)", "periodic([]; [1])", x)
    assert code == 0 and out.count(",") == n - 1
    assert time.perf_counter() - t0 < 2
