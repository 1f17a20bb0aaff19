"""Seeded query lists, as plain data (see oracle.py for the formats).

Each workload walks a schedule of query shapes (verb, cut shape, rank,
factor kinds, height rung, ...): a full factorial of its axes, shuffled, and
filled in by a random stream keyed by the workload name alone.  The seed
draws only the values (coefficients, radicands, anchors' entries), so every
seed gives the same mix of shapes and the same share of the queries the
library is known to fail.  Nothing here calls ordcut; cli_text commands are
rendered to argv by adapter.py.
"""

import random
from fractions import Fraction as F

from . import oracle

LEX_VERBS = ("member", "compare_cuts", "translate", "classify",
             "interval_bounds", "push", "pull", "witness", "lex_compare")
SMALL_KINDS = (("Z", 0), ("Q", 0), ("Z", 2), ("Q", 3))
DENSE_KINDS = (("Q", 0), ("Z", 2), ("Q", 3))
SECOND_RADICALS = (2, 3, 5, 7)
CUT_SHAPES = ("below", "above", "gap")
ZERO = (F(0), F(0), 0)
BOX = 6

# Rungs skip 10^21..10^27: there Scalar.floor's step count (height over
# 10^20) passes through any per-query deadline, so the timeout count would
# depend on timing; from 10^30 on floor overruns every deadline.
RUNGS = (10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12, 10 ** 15, 10 ** 18, 10 ** 20,
         10 ** 30)


def schedule(name, **axes):
    """The full factorial of the axes, in an order fixed by the workload
    name alone."""
    combos = [{}]
    for axis, values in axes.items():
        combos = [dict(c, **{axis: v}) for c in combos for v in values]
    random.Random(name + ":schedule").shuffle(combos)
    return combos


class Gen:
    """Draws for one workload: `shape` (keyed by the workload name) picks
    structure, `rng` (keyed by name and seed) picks values."""

    def __init__(self, name, seed):
        self.shape = random.Random(name + ":shapes")
        self.rng = random.Random("%s:%d" % (name, seed))

    def rat(self, h, den):
        r = self.rng
        return F(r.randint(-h, h), r.randint(1, h) if den else 1)

    def scalar(self, factor, h):
        tag, d = factor
        a = self.rat(h, tag == "Q")
        b = self.rat(h, tag == "Q") if d else F(0)
        return (a, b, d if b else 0)

    def element(self, group, h):
        return tuple(self.scalar(f, h) for f in group)

    def nonzero(self, group, h, lead):
        """An element whose first `lead` coordinates are zero."""
        while True:
            x = (ZERO,) * lead + self.element(group[lead:], h)
            if any(c[0] or c[1] for c in x):
                return x

    def shifted(self, group, h, k, radical):
        """An element whose coordinate k has a nonzero radical part
        (radical=True, quadratic factors) or none (radical=False)."""
        x = list(self.element(group, h))
        tag, d = group[k - 1]
        b = F(0)
        while d and radical and b == 0:
            b = self.rat(h, tag == "Q")
        x[k - 1] = (x[k - 1][0], b, d if b else 0)
        return tuple(x)

    def irrational(self, factor, h, second=True):
        """A gap anchor outside the dense factor: over a second radical, or
        (second=False, factors Z[sqrt d]) a rational off the factor."""
        tag, d = factor
        if tag == "Z" and d and not second:
            return (F(2 * self.rng.randint(-h, h) + 1, 2), F(0), 0)
        e = self.shape.choice([x for x in SECOND_RADICALS if x != d])
        c = F(0)
        while c == 0:
            c = self.rat(h, tag == "Q")
        return (self.rat(h, tag == "Q"), c, e)

    def cut(self, group, h, shape, k, second=True):
        prefix = self.element(group[:k - 1], h)
        if shape == "gap":
            return ("gap", prefix, k, self.irrational(group[k - 1], h, second))
        return (shape, prefix + self.element(group[k - 1:], h), k)

    def near(self, group, cut, h):
        """An element agreeing with the cut's boundary on a random prefix."""
        x = list(self.element(group, h))
        ents = cut[1] if cut[0] != "gap" else cut[1] + (cut[3],)
        for i in range(self.shape.randint(0, len(ents))):
            e = oracle.from_plain(ents[i])
            if oracle.in_factor(group[i], e):
                x[i] = ents[i]
            else:
                x[i] = (F(oracle.floor(e)), F(0), 0)
        return tuple(x)

    def morphism(self, group):
        if self.shape.random() < 0.5:
            return ("widen",)
        return ("scale", tuple(F(self.rng.randint(1, BOX),
                                 self.rng.randint(1, BOX)) for _ in group))


def _lex_query(gen, verb, group, h, shape, k, second, variant):
    """One library query over a lex group, as (verb, args).  `variant`
    splits two verbs: for translate, whether the shift has a radical part
    at the cut's level; for witness, whether the element leaves the
    invariance subgroup C_k (else the query is ill-posed)."""
    c = gen.cut(group, h, shape, k, second)
    n = len(group)
    if verb in ("member", "interval_bounds"):
        return (verb, group, c, gen.near(group, c, h))
    if verb == "compare_cuts":
        if gen.shape.random() < 0.3:
            return (verb, group, c, c)
        other = [s for s in CUT_SHAPES if s != "gap" or group[k - 1] !=
                 ("Z", 0)]
        c2 = gen.cut(group, h, gen.shape.choice(other), k)
        if gen.shape.random() < 0.5 and c[1] and c2[1]:
            # share the leading coordinate so deeper levels decide
            c2 = (c2[0], c[1][:1] + c2[1][1:]) + c2[2:]
        return (verb, group, c, c2)
    if verb == "translate":
        return (verb, group, c, gen.shifted(group, h, k, variant))
    if verb == "classify":
        return (verb, group, c)
    if verb in ("push", "pull"):
        morph = gen.morphism(group)
        cod = oracle.morphism_cod(group, morph)
        if verb == "push":
            return (verb, group, morph, cod, c)
        if shape == "gap" and cod[k - 1] == ("Z", 0):
            shape = "below"
        return (verb, group, morph, cod, gen.cut(cod, h, shape, k, second))
    if verb == "witness":
        lead = gen.shape.randint(k, n - 1) if not variant and k < n else \
            gen.shape.randint(0, k - 1)
        return (verb, group, c, gen.nonzero(group, h, lead))
    return (verb, group, gen.near(group, c, h), gen.element(group, h))


def lex_small(seed):
    """Mixed verbs over lex groups of rank 1-4 with small factors, box 6."""
    gen = Gen("lex_small", seed)
    out = []
    for i, s in enumerate(schedule(
            "lex_small", verb=LEX_VERBS, rank=(1, 2, 3, 4),
            shape=CUT_SHAPES, gap_kind=DENSE_KINDS, second=(True, False),
            variant=(True, True, False))):
        rank = s["rank"]
        group = [gen.shape.choice(SMALL_KINDS) for _ in range(rank)]
        k = 1 + i % rank
        if s["shape"] == "gap":
            group[k - 1] = s["gap_kind"]
        out.append(_lex_query(gen, s["verb"], tuple(group), BOX, s["shape"],
                              k, s["second"], s["variant"]))
    return out


def squarefree_in(rng, lo, hi):
    while True:
        d = rng.randrange(lo, hi)
        if oracle.square_part(d) == (1, d):
            return d


def radical_tall(seed):
    """The lex verb mix over Z[sqrt d] / Q[sqrt d] factors: radicands in the
    bands [10^b, 1.1 * 10^b) for b = 1..8, coefficient heights on a ladder
    from 10^3 to 10^30, gap anchors over a second radical (or, over
    Z[sqrt d], off it)."""
    gen = Gen("radical_tall", seed)
    out = []
    for i, s in enumerate(schedule(
            "radical_tall", verb=LEX_VERBS, rung=RUNGS, shape=CUT_SHAPES,
            tag=("Z", "Q"), second=(True, False), variant=(True, False))):
        band = 1 + i % 8
        rank = 1 + (i // 8) % 3
        k = 1 + (i // 24) % rank
        # narrow bands: trial division costs about sqrt(d) per Scalar.make
        d = squarefree_in(gen.rng, 10 ** band, 11 * 10 ** (band - 1))
        group = [(gen.shape.choice("ZQ"), d) for _ in range(rank)]
        group[k - 1] = (s["tag"], d)
        out.append(_lex_query(gen, s["verb"], tuple(group), s["rung"],
                              s["shape"], k, s["second"], s["variant"]))
    return out


def _oelement(gen, factor, h, max_index, density=0.4):
    pairs = []
    for i in range(max_index + 1):
        if gen.shape.random() < density:
            v = ZERO
            while not v[0]:
                v = gen.scalar(factor, h)
            pairs.append((i, v))
    return tuple(pairs)


def _anchor(gen, factor, shape, lead_sign):
    if shape == "point":
        return ("point", _oelement(gen, factor, BOX, 5))
    if shape == "gap_at":
        index = gen.shape.randint(0, 4)
        return ("gap_at", _oelement(gen, factor, BOX, index - 1), index,
                gen.irrational(factor, BOX))
    pre = tuple(gen.scalar(factor, BOX)
                for _ in range(gen.shape.randint(0, 2)))
    per = [gen.scalar(factor, BOX) for _ in range(gen.shape.randint(1, 3))]
    lead = next((i for i, v in enumerate(per) if v[0]), 0)
    a = max(abs(per[lead][0]), F(1)) * lead_sign
    per[lead] = (a, F(0), 0)
    return ("periodic", pre, tuple(per))


def _omega_near(gen, factor, anchor):
    """An element tracking the anchor's stream on a random prefix."""
    x = dict(_oelement(gen, factor, BOX, 6, 0.3))
    for i in range(gen.shape.randint(0, 6)):
        v = oracle.anchor_coord(anchor, i)
        if v is None:
            break
        if v[0]:
            x[i] = v
        else:
            x.pop(i, None)
    return tuple(sorted(x.items()))


def _omega_g(gen, factor):
    while True:
        g = _oelement(gen, factor, 3, 3, 0.5)
        if g:
            return g


CLI_VERBS = ("classify", "invariance", "member", "compare", "translate",
             "project", "trace", "transport", "bounds", "push", "pull",
             "skeleton", "embed", "convex-subgroups", "discreteness", "hull",
             "orders")
OMEGA_CLI_VERBS = ("classify", "invariance", "member", "compare", "translate",
                   "skeleton")
CUT_VERBS = ("classify", "invariance", "member", "translate", "project",
             "trace", "transport", "bounds", "push", "pull")
ELEMENT_VERBS = ("member", "translate", "bounds", "embed")
MALFORMED = ("unknown_verb", "missing_arg", "unclosed_group", "unknown_flag",
             "extra_arg")
ILL_POSED = ("non_square_free", "coordinate_outside", "anchor_inside",
             "negative_orders")
# one command in ten malformed, one in ten ill-posed, the rest well formed
# (over hahn_omega for a quarter of those whose verb takes it)
CLI_KINDS = ("lex",) * 6 + ("omega",) * 2 + ("malformed", "ill_posed")


def cli_text(seed):
    """Structured commands (verb, form, spec, json, defect): form 'lex' or
    'omega', spec the plain-data arguments, defect an injected malformation
    (exit 1) or ill-posed input (exit 2), else None."""
    gen = Gen("cli_text", seed)
    out = []
    for i, s in enumerate(schedule(
            "cli_text", verb=CLI_VERBS, json=(False, True),
            shape=CUT_SHAPES, second=(True, False), kind=CLI_KINDS)):
        verb, kind = s["verb"], s["kind"]
        if kind == "omega" and verb in OMEGA_CLI_VERBS:
            spec = _cli_omega(gen, verb, s["shape"], s["second"])
            out.append((verb, "omega", spec, s["json"], None))
            continue
        spec = _cli_lex(gen, verb, s["shape"], s["second"])
        defect = None
        if kind == "malformed":
            defect = MALFORMED[i % len(MALFORMED)]
        elif kind == "ill_posed":
            defect = _applicable(verb, spec, ILL_POSED[i % len(ILL_POSED)])
        out.append((verb, "lex", spec, s["json"], defect))
    return out


def _applicable(verb, spec, defect):
    """The scheduled ill-posed input, or one this verb's arguments carry."""
    if verb == "orders":
        return "negative_orders"
    has_cut = verb in CUT_VERBS or (verb == "compare" and spec["cut"])
    has_element = verb in ELEMENT_VERBS or (verb == "compare" and
                                            not spec["cut"])
    if defect == "coordinate_outside" and (has_cut or has_element):
        return defect
    if defect == "anchor_inside" and has_cut:
        return defect
    return "non_square_free"


def _cli_lex(gen, verb, shape, second):
    sh = gen.shape
    rank = sh.randint(1, 3)
    group = [sh.choice(SMALL_KINDS) for _ in range(rank)]
    k = sh.randint(1, rank)
    if shape == "gap":
        group[k - 1] = sh.choice(DENSE_KINDS)
    group = tuple(group)
    c = gen.cut(group, BOX, shape, k, second)
    spec = {"group": group, "cut": c}
    if verb in ("member", "bounds", "embed"):
        spec["x"] = gen.near(group, c, BOX)
    elif verb == "translate":
        spec["x"] = gen.shifted(group, BOX, k, True)
    elif verb == "compare":
        if sh.random() < 0.5:
            other = [s for s in CUT_SHAPES if s != "gap" or group[k - 1] !=
                     ("Z", 0)]
            spec["c2"] = gen.cut(group, BOX, sh.choice(other), k)
        else:
            spec["cut"] = None
            spec["x"] = gen.element(group, BOX)
            spec["y"] = gen.near(group, ("below", spec["x"], rank), BOX)
    elif verb in ("project", "trace"):
        spec["m"] = sh.randint(0, rank)
    elif verb == "transport":
        spec["m1"] = sh.randint(0, rank)
        spec["m2"] = sh.randint(0, rank)
    elif verb in ("push", "pull"):
        morph = gen.morphism(group)
        spec["morph"] = morph
        cod = spec["cod"] = oracle.morphism_cod(group, morph)
        if verb == "pull":
            if shape == "gap" and cod[k - 1] == ("Z", 0):
                shape = "below"
            spec["cut"] = gen.cut(cod, BOX, shape, k, second)
    elif verb == "orders":
        spec["n"] = sh.randint(0, 12)
    return spec


def _cli_omega(gen, verb, shape, positive):
    shape = {"below": "point", "above": "periodic", "gap": "gap_at"}[shape]
    factor = ("Q", 0) if shape == "gap_at" else gen.shape.choice(
        (("Z", 0), ("Q", 0)))
    anchor = _anchor(gen, factor, shape, 1 if positive else -1)
    spec = {"factor": factor, "anchor": anchor}
    if verb == "member":
        spec["x"] = _omega_near(gen, factor, anchor)
    elif verb == "compare":
        spec["x"] = _oelement(gen, factor, BOX, 6)
        spec["y"] = _omega_near(gen, factor, ("point", spec["x"]))
    elif verb == "translate":
        spec["x"] = _omega_g(gen, factor)
    return spec


WORKLOADS = {
    "lex_small": lex_small,
    "radical_tall": radical_tall,
    "cli_text": cli_text,
}
