"""Run the mutant catalogue of tests/mutants.py against Tier-1.

Usage: python tests/run_mutants.py [INDEX ...]

For each mutant, or for those at the given 0-based indices, the repo is
copied into a fresh temporary directory, the mutant's old text (which must
occur exactly once in its file) is replaced by its new text, and
`python -m pytest -x -q` runs there with that copy's src/ first on
PYTHONPATH.  A mutant whose run passes survives; one that runs past
TIMEOUT seconds counts as killed.  One line per mutant, then the survivors,
are printed.  The exit status is 1 when a mutant not marked equivalent
survives, or when an old text does not apply.  pytest does not collect
this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from mutants import MUTANTS  # noqa: E402

TIMEOUT = 240
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                              ".pytest_cache", ".perfbench_out",
                              ".benchmarks", "*.egg-info")


def run(i, mutant, tmp):
    """'killed', 'survived', 'timeout' or 'stale' for one mutant."""
    copy = Path(tmp) / ("m%d" % i)
    shutil.copytree(ROOT, copy, ignore=SKIP)
    path = copy / mutant["file"]
    text = path.read_text()
    if text.count(mutant["old"]) != 1:
        return "stale"
    path.write_text(text.replace(mutant["old"], mutant["new"]))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q"],
                              cwd=copy, env=env, capture_output=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    return "survived" if done.returncode == 0 else "killed"


def main(argv):
    picked = [int(a) for a in argv] or range(len(MUTANTS))
    outcomes = {}
    with tempfile.TemporaryDirectory(prefix="ordcut-mutants-") as tmp:
        for i in picked:
            mutant = MUTANTS[i]
            t0 = time.monotonic()
            outcomes[i] = run(i, mutant, tmp)
            print("%3d %-8s %5.1fs %s: %s%s" % (
                i, outcomes[i], time.monotonic() - t0, mutant["file"],
                mutant["reason"],
                " (equivalent)" if "equivalent" in MUTANTS[i] else ""),
                flush=True)
    survivors = [i for i, o in outcomes.items() if o == "survived"]
    stale = [i for i, o in outcomes.items() if o == "stale"]
    print("survivors:", survivors or "none")
    print("stale:", stale or "none")
    unexpected = [i for i in survivors if "equivalent" not in MUTANTS[i]]
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
