"""The command-line answers of the cli_text benchmark workload, pinned.

The cli_text argv of seeds 1-3 (rendered by perfbench, which is imported,
never edited here) run through `cli.main` in-process.  Each (seed, first argv
word) bucket is digested by sha256 over its (argv, exit code, stdout,
stderr) in order, and the digests must equal those in cli_corpus.json.  A
change that means to alter an answer rewrites that file with the one this
test prints, and names the changed buckets in CHANGES.md.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

from ordcut import cli

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).with_name("cli_corpus.json")
SEEDS = (1, 2, 3)


def digests():
    if str(ROOT) not in sys.path:  # perfbench sits beside src/, not in it
        sys.path.insert(0, str(ROOT))
    from perfbench import adapter, workloads
    hashes = {}
    for seed in SEEDS:
        for command in workloads.cli_text(seed):
            argv = adapter.render_cli(command)
            out, err = io.StringIO(), io.StringIO()
            code = cli.main(list(argv), out=out, err=err)
            key = "%d:%s" % (seed, argv[0])
            if key not in hashes:
                hashes[key] = hashlib.sha256()
            hashes[key].update(json.dumps(
                [argv, code, out.getvalue(), err.getvalue()]).encode())
    return {key: h.hexdigest() for key, h in sorted(hashes.items())}


def test_cli_text_answers_match_the_corpus():
    now = digests()
    pinned = json.loads(CORPUS.read_text())
    changed = sorted(k for k in now.keys() | pinned.keys()
                     if now.get(k) != pinned.get(k))
    assert not changed, "changed buckets: %s\nnew %s:\n%s" % (
        ", ".join(changed), CORPUS.name, json.dumps(now, indent=1))
