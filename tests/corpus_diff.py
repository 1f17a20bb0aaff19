"""Print the cli_text argv whose answers differ between this tree and another.

Usage: python tests/corpus_diff.py OTHER_CHECKOUT

The argv are those of `test_cli_corpus.py`: the cli_text workload of seeds
1-3, rendered by this tree's perfbench (imported, never edited).  Each tree
runs all of them through `cli.main` in one fresh interpreter, with only its
own `src/` on the path.  Every argv whose exit code, stdout or stderr
differ is printed with both answers; the exit status is 1 when one does.
pytest does not collect this file; OTHER_CHECKOUT is any copy of the repo,
such as one made by `git archive`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)

# Runs in each tree: argv lists in on stdin, [code, stdout, stderr] rows out.
RUNNER = """
import io, json, sys
import ordcut
from ordcut import cli
rows = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    rows.append([cli.main(argv, out=out, err=err), out.getvalue(),
                 err.getvalue()])
json.dump({"module": ordcut.__file__, "rows": rows}, sys.stdout)
"""


def corpus():
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]  # perfbench reads ordcut
    from perfbench import adapter, workloads
    return [list(adapter.render_cli(command))
            for seed in SEEDS for command in workloads.cli_text(seed)]


def answers(tree, argvs):
    src = (Path(tree) / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", RUNNER], env=env,
                          input=json.dumps(argvs), capture_output=True,
                          text=True, check=True)
    result = json.loads(done.stdout)
    if not Path(result["module"]).resolve().is_relative_to(src):
        sys.exit("%s imported ordcut from %s" % (tree, result["module"]))
    return result["rows"]


def main(other):
    argvs = corpus()
    ours, theirs = answers(ROOT, argvs), answers(other, argvs)
    differ = 0
    for argv, a, b in zip(argvs, ours, theirs):
        if a != b:
            differ += 1
            print(json.dumps(argv))
            print("  this tree: %s" % json.dumps(a))
            print("  %s: %s" % (other, json.dumps(b)))
    print("%d argv, %d differ" % (len(argvs), differ))
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(main(sys.argv[1]))
