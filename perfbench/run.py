"""ordcut benchmark: seeded, oracle-checked query workloads in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/ordcut.  The query list is
generated from the seed before timing.  One client sends the queries in a
closed loop: after a short warm-up it makes whole passes over the list until
S seconds have gone by, each query under a SIGALRM deadline.  Every answer of
the first pass is checked against oracle.py afterwards; later passes must
repeat its outcomes.  --trace 0 prints the end-to-end metrics; --trace 1
runs untraced and traced passes over the same list and prints the per-layer
metrics with the tracing overhead, and writes the spans to
.perfbench_out/.  A report goes to stdout; the last line is one JSON object.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEADLINE_S = 0.5       # per-query deadline
DEADLINE_NS = int(DEADLINE_S * 1e9)
WARMUP = 50            # queries run before timing
# Timed parts of a pass.  A slice lasts well under a second on every
# workload, shorter than the spells of several seconds in which a shared
# machine runs a pass up to twice as slow, so some pass of each slice
# meets a quiet spell.
SLICES = 16
COLD_STARTS = 15       # fresh interpreters per run for setup_s
FAILING = ("wrong", "refused", "timeout", "error", "unstable")


class Deadline(BaseException):
    """Raised by SIGALRM inside a query that overran DEADLINE_S."""


def _alarm(signum, frame):
    raise Deadline()


def build(workload, seed):
    """The workload's query list (cli commands rendered to argv)."""
    from perfbench import adapter, workloads
    queries = workloads.WORKLOADS[workload](seed)
    if workload == "cli_text":
        queries = [("cli", tuple(adapter.render_cli(c)), c) for c in queries]
    return queries


def one(call, query, domain_error):
    """(status, value, ns) for one query under the deadline."""
    try:
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        t0 = time.perf_counter_ns()
        try:
            value, status = call(query), "ok"
        except domain_error as e:
            value, status = str(e), "domain"
        except Deadline:
            value, status = None, "timeout"
        except Exception as e:  # an escaped exception is a failed query
            value, status = "%s: %s" % (type(e).__name__, e), "error"
        ns = time.perf_counter_ns() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        value, status, ns = None, "timeout", DEADLINE_NS
    return status, value, ns


def timed_passes(queries, seconds):
    """Whole passes over the list until `seconds` have gone by.

    A query that overran the deadline in the first pass is not sent again:
    it would only wait out another deadline.  Later passes count it as a
    timed-out sample at the deadline's time.

    Each pass is timed in SLICES consecutive slices of the list.  For each
    slice the fastest of its passes is kept as (time less what its
    timed-out samples waited for the deadline, latency samples, indices of
    samples whose status differs from the first pass).  Also keeps the first
    pass's outcomes and the (pass, index, status) of every such changed
    sample; memory does not grow with the number of passes.  Returns a
    namespace with first, passes, wall (total time), waited (total deadline
    time of timed-out samples), best (one entry per slice) and
    mismatches."""
    from perfbench import adapter
    call, derr = adapter.call, adapter.DomainError
    n = len(queries)
    bounds = [n * j // SLICES for j in range(SLICES + 1)]
    first, mismatches = [], []
    best = [None] * SLICES
    passes, waited_ns = 0, 0
    t_start = time.perf_counter()
    t_end = t_start + seconds
    while not passes or time.perf_counter() < t_end:
        for j in range(SLICES):
            lat, changed, timed_out_ns = array("q"), [], 0
            t0 = time.perf_counter()
            for i in range(bounds[j], bounds[j + 1]):
                if passes and first[i][0] == "timeout":
                    lat.append(DEADLINE_NS)
                    continue
                status, value, ns = one(call, queries[i], derr)
                if not passes:
                    first.append((status, value))
                elif status != first[i][0]:
                    mismatches.append((passes, i, status))
                    changed.append(i)
                if status == "timeout":
                    timed_out_ns += ns
                lat.append(ns)
            net = time.perf_counter() - t0 - timed_out_ns / 1e9
            waited_ns += timed_out_ns
            if best[j] is None or net < best[j][0]:
                best[j] = (net, lat, changed)
        passes += 1
    return SimpleNamespace(first=first, passes=passes,
                           wall=time.perf_counter() - t_start,
                           waited=waited_ns / 1e9, best=best,
                           mismatches=mismatches)


def cold_start(query):
    """Median wall time of fresh interpreters importing ordcut and answering
    the first query, and the median in-process import time of ordcut.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    probe = str(ROOT / "perfbench" / "probe.py")
    walls, imports = [], []
    for _ in range(COLD_STARTS):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, probe], input=repr(query),
                              capture_output=True, text=True, env=env,
                              cwd=str(ROOT), timeout=120)
        walls.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError("cold-start probe failed: %s" % done.stderr)
        imports.append(json.loads(done.stdout.splitlines()[-1])["import_ms"])
    return statistics.median(walls), statistics.median(imports)


def verdicts(queries, first):
    """The oracle's verdict on each query of the first pass."""
    from perfbench import adapter, verify
    out = []
    for q, (status, value) in zip(queries, first):
        if status == "ok":
            value = adapter.plain(q, value)
        out.append(verify.check(q, status, value))
    return out


def percentile(sorted_ns, q):
    """Nearest-rank percentile, in microseconds."""
    i = min(len(sorted_ns) - 1, max(0, int(q * len(sorted_ns) + 0.5) - 1))
    return sorted_ns[i] / 1e3


def _label(q):
    return q[2][0] if q[0] == "cli" else q[0]


def failure_report(queries, per_query):
    """Lines listing failures by verb and kind, each with a replayable
    first failing query."""
    from perfbench import adapter
    by_verb = {}
    for q, v in zip(queries, per_query):
        if v in FAILING:
            by_verb.setdefault(_label(q), []).append((v, q))
    lines = []
    for verb in sorted(by_verb):
        kinds = {}
        for v, _ in by_verb[verb]:
            kinds[v] = kinds.get(v, 0) + 1
        lines.append("  %-18s %s" % (verb, ", ".join(
            "%s=%d" % kv for kv in sorted(kinds.items()))))
        lines.append("    first: %s" % adapter.replay(by_verb[verb][0][1]))
    return lines


def reference_ms():
    """Median time of a fixed Fraction loop that shares no code with ordcut:
    how fast the machine ran Python arithmetic during this run."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 6000):
            acc += Fraction(i % 97, i)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def environment(workload, seed):
    load = os.getloadavg()
    return ("python %s, nproc %d, load %.2f %.2f %.2f, reference loop %.1f "
            "ms, workload %s, seed %d" % (
                sys.version.split()[0], os.cpu_count() or 0, load[0],
                load[1], load[2], reference_ms(), workload, seed))


def run(workload, seed, seconds, trace):
    from perfbench import oracle
    oracle.self_test()
    queries = build(workload, seed)
    setup_s, import_ms = cold_start(queries[0])
    signal.signal(signal.SIGALRM, _alarm)
    timed_passes(queries[:WARMUP], 0)  # one pass: warm-up
    report = [environment(workload, seed),
              "queries per pass %d, deadline %.2f s, single client, closed "
              "loop" % (len(queries), DEADLINE_S)]
    if trace:
        metrics, attempted, failed, correct = traced(
            workload, queries, seconds, import_ms, report)
    else:
        metrics, attempted, failed, correct = untraced(
            queries, seconds, setup_s, report)
    for name, m in metrics.items():
        report.append("%-28s %.6g %s" % (name, m["value"], m["unit"]))
    print("\n".join(report))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def _outcome(queries, first, mismatches, passes, report):
    """(failing, failed, correct): failing[i] tells whether query i's verdict
    fails; a sample fails when its query's verdict fails or its status
    differs from the first pass.  Answers are correct when none disagrees
    with the oracle and no later pass changes an outcome other than by
    overrunning the deadline."""
    per_query = verdicts(queries, first)
    failing = [v in FAILING for v in per_query]
    wrong = per_query.count("wrong")
    report.append("oracle: %d first-pass answers checked, %d wrong, %d "
                  "failed, %d later samples changed outcome" % (
                      len(per_query), wrong, sum(failing), len(mismatches)))
    report.extend(failure_report(queries, per_query))
    failed = passes * sum(failing) + sum(not failing[i]
                                         for _, i, _ in mismatches)
    changed = [m for m in mismatches if "timeout" not in (m[2],
                                                         first[m[1]][0])]
    return failing, failed, wrong == 0 and not changed


def untraced(queries, seconds, setup_s, report):
    t = timed_passes(queries, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failing, failed, correct = _outcome(queries, t.first, t.mismatches,
                                        t.passes, report)
    n = len(queries)
    # every query once: each slice as its fastest pass ran it
    lat = sorted(ns for _, samples, _ in t.best for ns in samples)
    answered = n - sum(failing) - sum(not failing[i]
                                      for _, _, changed in t.best
                                      for i in changed)
    report.append("timed: %d passes in %.3f s, %.3f s of it waiting for the "
                  "deadline in the first pass's timed-out queries (left out "
                  "of the rate; not sent again in later passes); "
                  "each pass timed in %d slices, rate and latency from each "
                  "slice's fastest pass: %d samples (%d above p99)" % (
                      t.passes, t.wall, t.waited, SLICES, n,
                      n - int(0.99 * n + 0.5)))
    metrics = {
        "queries_per_s": {"value": answered / sum(b[0] for b in t.best),
                          "unit": "1/s"},
        "latency_p50_us": {"value": percentile(lat, 0.50), "unit": "us"},
        "latency_p99_us": {"value": percentile(lat, 0.99), "unit": "us"},
        "fail_ratio": {"value": failed / (t.passes * n), "unit": "ratio"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    return metrics, t.passes * n, failed, correct


def traced(workload, queries, seconds, import_ms, report):
    """Untraced passes for half the time, then as many traced passes."""
    from perfbench import adapter
    from perfbench.tracer import Tracer
    t = timed_passes(queries, seconds / 2)
    # as in the untraced passes, neither side waits out a known timeout
    passes, plain_wall = t.passes, t.wall - t.waited
    call, derr = adapter.call, adapter.DomainError
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for _ in range(passes):
            for i, q in enumerate(queries):
                if t.first[i][0] == "timeout":
                    continue
                tracer.qid = i
                one(call, q, derr)
                # a deadline can land inside a wrapper before it pops
                tracer.stack.clear()
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = tracer.write(str(out_dir / ("spans-" + workload)))
    _, failed, correct = _outcome(queries, t.first, t.mismatches, passes,
                                  report)
    report.append("traced: %d passes, %d spans kept in %s, untraced %.3f s, "
                  "traced %.3f s" % (passes, spans, out_dir.name, plain_wall,
                                     traced_wall))
    metrics = {name: {"value": v, "unit": u}
               for name, (v, u) in tracer.metrics(passes).items()}
    metrics["cli.import_ms"] = {"value": import_ms, "unit": "ms"}
    metrics["trace.overhead_ratio"] = {"value": traced_wall / plain_wall,
                                       "unit": "ratio"}
    return metrics, passes * len(queries), failed, correct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ordcut" / "__init__.py").is_file():
        print("error: %s/ordcut not found; run from an ordcut checkout"
              % SRC, file=sys.stderr)
        return 1
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (have %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 1
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
