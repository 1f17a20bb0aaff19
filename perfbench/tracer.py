"""Spans around ordcut's public functions, installed from outside the library.

`Tracer.install()` replaces every public module-level function of the traced
modules (in every ordcut module namespace that holds it) and the public and
arithmetic methods of the classes they define with timing wrappers;
`uninstall()` puts the originals back.  Each call records a span (name,
start, end, parent, query id) in flat integer arrays, up to a cap; self
time per layer (a span's duration minus its child spans) and the counters
the per-layer metrics need are aggregated for every call, capped or not.
"""

import json
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("scalars", "lexgroups", "cuts", "hahnomega", "dsl", "cli",
          "ordsets")
METHODS = ("__post_init__", "__add__", "__sub__", "__mul__", "__rmul__",
           "__truediv__", "__neg__")
SPAN_CAP = 500_000
LOG10_2 = 0.30102999566398120


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.incl_ns = []
        self.self_ns = [0] * len(LAYERS)
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name_id = array("l")
        self.qid_of = array("l")
        self.qid = -1
        self.stack = []
        self.patched = []
        self.max_coeff_bits = 0
        self.exit_codes = {}
        self.parse_bytes = 0
        self.top_ns = {"parse": 0, "print": 0}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer, name, fn):
        nid = len(self.names)
        self.names.append("%s.%s" % (layer, name))
        self.calls.append(0)
        self.incl_ns.append(0)
        lid = LAYERS.index(layer)
        after = self._after_hook(layer, name)
        top = self._top_kind(layer, name)
        stack, start, end, parent, name_id, qid_of = (
            self.stack, self.start, self.end, self.parent, self.name_id,
            self.qid_of)
        calls, incl, selfs = self.calls, self.incl_ns, self.self_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(start)
            frame = [0, idx, top]
            if idx < SPAN_CAP:
                start.append(0)
                end.append(0)
                parent.append(stack[-1][1] if stack else -1)
                name_id.append(nid)
                qid_of.append(tracer.qid)
            if top is not None and any(f[2] == top for f in stack):
                frame[2] = None
            stack.append(frame)
            t0 = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                incl[nid] += dur
                selfs[lid] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if idx < SPAN_CAP:
                    start[idx] = t0
                    end[idx] = t1
                if frame[2] is not None:
                    tracer.top_ns[frame[2]] += dur
                    if frame[2] == "parse":
                        tracer.parse_bytes += len(args[0])
                if after is not None:
                    after(result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _top_kind(self, layer, name):
        if layer == "dsl" and name.startswith("parse_"):
            return "parse"
        if layer == "dsl" and name.startswith("print_"):
            return "print"
        return None

    def _after_hook(self, layer, name):
        if name == "Scalar.make":
            def after(s):
                if s is not None:
                    self.max_coeff_bits = max(
                        self.max_coeff_bits, abs(s.a.numerator).bit_length(),
                        s.a.denominator.bit_length(),
                        abs(s.b.numerator).bit_length(),
                        s.b.denominator.bit_length())
            return after
        if name == "main" and layer == "cli":
            def after(code):
                self.exit_codes[code] = self.exit_codes.get(code, 0) + 1
            return after
        return None

    def install(self):
        mods = {name: sys.modules["ordcut." + name] for name in LAYERS}
        holders = [m for n, m in sys.modules.items()
                   if n == "ordcut" or n.startswith("ordcut.")]
        for layer, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if callable(val) and getattr(val, "__module__", None) == \
                        mod.__name__ and not isinstance(val, type):
                    w = self._wrap(layer, attr, val)
                    for h in holders:
                        for a2, v2 in list(vars(h).items()):
                            if v2 is val:
                                self._patch(h, a2, val, w)
                elif isinstance(val, type) and val.__module__ == mod.__name__:
                    self._wrap_class(layer, val)

    def _wrap_class(self, layer, cls):
        wrapped = {}
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in METHODS:
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if not callable(fn) or isinstance(fn, type):
                continue
            if fn not in wrapped:
                wrapped[fn] = self._wrap(layer, "%s.%s" % (cls.__name__,
                                                           attr), fn)
            w = wrapped[fn]
            self._patch(cls, attr, raw,
                        staticmethod(w) if isinstance(raw, staticmethod)
                        else w)

    def _patch(self, owner, attr, old, new):
        self.patched.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self.patched):
            setattr(owner, attr, old)
        self.patched.clear()

    # -- results ------------------------------------------------------------

    def _incl_s(self, full):
        return sum(t for n, t in zip(self.names, self.incl_ns)
                   if n == full) / 1e9

    def _count(self, *full):
        return sum(c for n, c in zip(self.names, self.calls) if n in full)

    def metrics(self, passes):
        """Per-layer figures per pass over the query list."""
        per = float(passes)
        layer_s = {layer: self.self_ns[i] / 1e9 / per
                   for i, layer in enumerate(LAYERS)}
        parse_s = self.top_ns["parse"] / 1e9
        out = {
            "scalars.self_s": (layer_s["scalars"], "s"),
            "scalars.make_calls": (self._count("scalars.Scalar.make") / per,
                                   "count"),
            "scalars.compare_calls": (
                self._count("scalars.compare_cross") / per, "count"),
            "scalars.floor_s": (self._incl_s("scalars.Scalar.floor") / per,
                                "s"),
            "scalars.small_positive_s": (
                self._incl_s("scalars.small_positive") / per, "s"),
            "scalars.max_coeff_digits": (
                round(self.max_coeff_bits * LOG10_2, 3), "digits"),
            "lexgroups.self_s": (layer_s["lexgroups"], "s"),
            "lexgroups.element_inits": (
                self._count("lexgroups.GroupElement.__post_init__") / per,
                "count"),
            "lexgroups.lex_compare_calls": (
                self._count("lexgroups.lex_compare") / per, "count"),
            "cuts.self_s": (layer_s["cuts"], "s"),
            "cuts.witness_s": (self._incl_s("cuts.invariance_witness") / per,
                               "s"),
            "hahnomega.self_s": (layer_s["hahnomega"], "s"),
            "hahnomega.member_calls": (
                self._count("hahnomega.omega_member") / per, "count"),
            "dsl.parse_s": (parse_s / per, "s"),
            "dsl.print_s": (self.top_ns["print"] / 1e9 / per, "s"),
            "dsl.parse_bytes_per_s": (
                self.parse_bytes / parse_s if parse_s else 0.0, "B/s"),
            "cli.self_s": (layer_s["cli"], "s"),
            "cli.exit1_count": (self.exit_codes.get(1, 0) / per, "count"),
            "cli.exit2_count": (self.exit_codes.get(2, 0) / per, "count"),
            "ordsets.self_s": (layer_s["ordsets"], "s"),
        }
        return out

    def write(self, path):
        """Spans as four int64 arrays plus a JSON header naming them."""
        n = len(self.start)
        header = {"names": self.names, "spans": n,
                  "layout": ["start_ns", "end_ns", "parent", "name_id",
                             "query"],
                  "dtype": ["int64", "int64", "int64", "long", "long"]}
        with open(path + ".json", "w") as f:
            json.dump(header, f)
        with open(path + ".bin", "wb") as f:
            for arr in (self.start, self.end, self.parent, self.name_id,
                        self.qid_of):
                arr.tofile(f)
        return n
