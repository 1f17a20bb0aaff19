"""Print the queries whose answers differ between this tree and another.

Usage: python tests/corpus_diff.py OTHER_CHECKOUT

Two corpora, each of seeds 1-3 of this tree's perfbench (imported, never
edited).  The argv are those of `test_cli_corpus.py`, the cli_text workload
rendered as command lines; each runs through `cli.main`.  The library
queries are those of the lex_small and radical_tall workloads; each runs
through `perfbench.adapter.call`, and its answer is `adapter.plain` of the
result, the text of the DomainError it raised, or the name and text of any
other exception.  Each tree runs both
corpora in one fresh interpreter, with only its own `src/` ahead of this
tree's perfbench on the path.  Every argv whose exit code, stdout or stderr
differ, and every query whose answer or refusal differs, is printed with
both answers; the exit status is 1 when one does.  pytest does not collect
this file; OTHER_CHECKOUT is any copy of the repo, such as one made by
`git archive`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
LIBRARY_WORKLOADS = ("lex_small", "radical_tall")

# Runs in each tree, with this tree's root (for perfbench) as argv[1]: the
# argv lists in on stdin; out, a [code, stdout, stderr] row per argv and a
# [repr(query), answer] row per library query.
RUNNER = """
import io, json, sys
import ordcut
from ordcut import cli
sys.path.append(sys.argv[1])
from perfbench import adapter, workloads
rows = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    rows.append([cli.main(argv, out=out, err=err), out.getvalue(),
                 err.getvalue()])
queries = []
for name in %r:
    for seed in %r:
        for query in workloads.WORKLOADS[name](seed):
            try:
                answer = repr(adapter.plain(query, adapter.call(query)))
            except adapter.DomainError as e:
                answer = "refused: %%s" %% e
            except Exception as e:  # a fault is an answer that differs
                answer = "raised %%s: %%s" %% (type(e).__name__, e)
            queries.append([repr(query), answer])
json.dump({"module": ordcut.__file__, "rows": rows, "queries": queries},
          sys.stdout)
""" % (LIBRARY_WORKLOADS, SEEDS)


def corpus():
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]  # perfbench reads ordcut
    from perfbench import adapter, workloads
    return [list(adapter.render_cli(command))
            for seed in SEEDS for command in workloads.cli_text(seed)]


def answers(tree, argvs):
    src = (Path(tree) / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", RUNNER, str(ROOT)], env=env,
                          input=json.dumps(argvs), capture_output=True,
                          text=True, check=True)
    result = json.loads(done.stdout)
    if not Path(result["module"]).resolve().is_relative_to(src):
        sys.exit("%s imported ordcut from %s" % (tree, result["module"]))
    return result


def main(other):
    argvs = corpus()
    ours, theirs = answers(ROOT, argvs), answers(other, argvs)
    differ = 0
    for argv, a, b in zip(argvs, ours["rows"], theirs["rows"]):
        if a != b:
            differ += 1
            print(json.dumps(argv))
            print("  this tree: %s" % json.dumps(a))
            print("  %s: %s" % (other, json.dumps(b)))
    print("%d argv, %d differ" % (len(argvs), differ))
    qdiffer = 0
    for (query, a), (_, b) in zip(ours["queries"], theirs["queries"]):
        if a != b:
            qdiffer += 1
            print(query)
            print("  this tree: %s" % a)
            print("  %s: %s" % (other, b))
    print("%d library queries, %d differ" % (len(ours["queries"]), qdiffer))
    return 1 if differ or qdiffer else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(main(sys.argv[1]))
