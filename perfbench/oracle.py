"""Independent oracle for the benchmark: decides every answer from plain data.

Nothing here imports ordcut.  Numbers are sums r + sum c_d * sqrt(d) over
distinct square-free radicands d >= 2, kept as (r, ((d, c), ...)).  Zero is
decided exactly (the square roots of distinct square-free integers are
linearly independent over Q); a nonzero sign is decided by rational interval
arithmetic on integer square roots, at a precision that starts from the
operand height and doubles until the interval excludes zero.

Plain data used by the workloads:
  factor   (tag, d)           tag "Z" or "Q", d = 0 or a square-free d >= 2
  scalar   (a, b, d)          the real a + b*sqrt(d), a and b Fractions
  element  tuple of scalars
  cut      ("all_below",) | ("all_above",) | (side, coords, k) with side
           "below" / "above" | ("gap", prefix, k, delta)
  morphism ("widen",) | ("scale", (s_1, ..., s_n))
  oelement tuple of (index, scalar), indices increasing
  anchor   ("point", oelement) | ("gap_at", oelement, index, delta)
           | ("periodic", preperiod, period)
"""

import re
from fractions import Fraction
from functools import lru_cache
from math import floor as _rat_floor, isqrt

MINUS = "minus"
PLUS = "plus"


# ---------------------------------------------------------------------------
# numbers

@lru_cache(maxsize=None)
def square_part(d):
    """(k, m) with d = k*k*m and m square-free, from the factorization."""
    k, m, n, p = 1, 1, d, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        k *= p ** (e // 2)
        m *= p ** (e % 2)
        p += 1 if p == 2 else 2
    return k, m * n


def num(a, b=0, d=0):
    """The number a + b*sqrt(d) in canonical form."""
    a, b = Fraction(a), Fraction(b)
    if b == 0 or d == 0:
        return (a, ())
    k, m = square_part(d)
    if m == 1:
        return (a + b * k, ())
    return (a, ((m, b * k),))


ZERO = num(0)
ONE = num(1)


def add(x, y):
    terms = dict(x[1])
    for d, c in y[1]:
        terms[d] = terms.get(d, 0) + c
    return (x[0] + y[0], tuple(sorted((d, c) for d, c in terms.items()
                                      if c != 0)))


def scale(x, q):
    q = Fraction(q)
    if q == 0:
        return ZERO
    return (x[0] * q, tuple((d, c * q) for d, c in x[1]))


def neg(x):
    return scale(x, -1)


def sub(x, y):
    return add(x, neg(y))


def _digits(q):
    return max(len(str(abs(q.numerator))), len(str(q.denominator)))


def _interval(x, p):
    s = 10 ** p
    lo = hi = x[0]
    for d, c in x[1]:
        r = isqrt(d * s * s)
        lo += c * Fraction(r if c > 0 else r + 1, s)
        hi += c * Fraction(r + 1 if c > 0 else r, s)
    return lo, hi


def sign(x):
    if not x[1]:
        return (x[0] > 0) - (x[0] < 0)
    p = 8 + 2 * max(_digits(q) for q in (x[0],) + tuple(c for _, c in x[1]))
    while True:
        lo, hi = _interval(x, p)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        p *= 2


def cmp(x, y):
    return sign(sub(x, y))


def floor(x):
    if not x[1]:
        return _rat_floor(x[0])
    p = 8 + 2 * max(_digits(q) for q in (x[0],) + tuple(c for _, c in x[1]))
    while True:
        lo, hi = _interval(x, p)
        if _rat_floor(lo) == _rat_floor(hi):
            return _rat_floor(lo)
        p *= 2


def in_factor(factor, x):
    tag, d = factor
    if any(r != d for r, _ in x[1]):
        return False
    if tag == "Q":
        return True
    return x[0].denominator == 1 and all(c.denominator == 1 for _, c in x[1])


def from_plain(s):
    return num(*s)


# ---------------------------------------------------------------------------
# lex groups and cuts

def lex_cmp(xs, ys):
    for x, y in zip(xs, ys):
        s = cmp(x, y)
        if s:
            return s
    return 0


def cut_key(group, cut):
    """("bot",) for the empty lower part, ("top",) for the whole group, else
    (entries, tie): the lower part is {x : x[:len(entries)] < entries}, with
    equality counted below when tie = +1 and above when tie = -1 (tie 0 for
    gaps, where equality cannot occur).  A strict cut over a discrete last
    factor is rewritten to the closed cut at the predecessor."""
    if cut[0] == "all_above":
        return ("bot",)
    if cut[0] == "all_below":
        return ("top",)
    if cut[0] == "gap":
        _, prefix, k, delta = cut
        return (tuple(map(from_plain, prefix)) + (from_plain(delta),), 0)
    side, coords, k = cut
    ents = tuple(from_plain(c) for c in coords[:k])
    return _norm(group, (ents, 1 if side == "below" else -1))


def _norm(group, key):
    if key in (("bot",), ("top",)):
        return key
    ents, tie = key
    if tie == -1 and group[len(ents) - 1] == ("Z", 0):
        return (ents[:-1] + (sub(ents[-1], ONE),), 1)
    return key


def key_member(key, xs):
    if key == ("bot",):
        return PLUS
    if key == ("top",):
        return MINUS
    ents, tie = key
    s = lex_cmp(xs[:len(ents)], ents)
    if s == 0:
        s = -tie
    return MINUS if s < 0 else PLUS


def key_cmp(group, k1, k2):
    """Order of two cuts by inclusion of lower parts."""
    k1, k2 = _norm(group, k1), _norm(group, k2)
    rank = {("bot",): -1, ("top",): 1}
    if k1 in rank or k2 in rank:
        r1, r2 = rank.get(k1, 0), rank.get(k2, 0)
        return (r1 > r2) - (r1 < r2)
    (e1, t1), (e2, t2) = k1, k2
    s = lex_cmp(e1, e2)
    if s:
        return s
    if len(e1) == len(e2):
        return (t1 > t2) - (t1 < t2)
    if len(e1) < len(e2):
        return 1 if t1 == 1 else -1
    return -1 if t2 == 1 else 1


def key_level(key):
    return 0 if key in (("bot",), ("top",)) else len(key[0])


def elem(xs):
    return tuple(map(from_plain, xs))


def classify(group, cut):
    if cut[0] in ("all_below", "all_above"):
        return "trivial"
    if cut[0] == "gap":
        return "gapped"
    if group[cut[2] - 1] == ("Z", 0):
        return "relative_jump"
    return ("relatively_principal_below" if cut[0] == "below"
            else "relatively_principal_above")


def _dense(factor):
    return factor != ("Z", 0)


def interval_bounds(group, cut, sigma):
    """(psi_minus, phi_minus, psi_plus, phi_plus) from the definitions.

    phi_minus is the least j with sigma + C_j on sigma's side, phi_plus the
    next larger subgroup C_{phi_minus - 1} (C_0 at the top).  S is the set of
    xi with sigma + |xi| (minus side) or sigma - |xi| (plus side) still on
    sigma's side; psi_plus is the least level containing S and psi_minus one
    below the shallowest nonzero member of S (capped at the rank)."""
    n = len(group)
    key = cut_key(group, cut)
    xs = elem(sigma)
    side = key_member(key, xs)
    if key in (("bot",), ("top",)):
        return (min(1, n), 0, 0, 0)
    ents, tie = key
    k = len(ents)
    diff = next((i + 1 for i in range(k) if cmp(xs[i], ents[i]) != 0), None)
    phi = k if diff is None else min(diff, k)
    step = 1 if side == MINUS else -1

    def has_member_at_depth(j):
        # xi > 0 whose first nonzero coordinate is j+1, later ones free
        if j == n:
            return True
        if diff is not None and diff <= j:
            return True
        if j >= k:
            return True
        gap = scale(sub(ents[j], xs[j]), step)
        g = sign(gap)
        if g <= 0:
            return False
        if _dense(group[j]):
            return True
        over = cmp(gap, ONE)
        if over > 0:
            return True
        if over < 0:
            return False
        # sigma + xi meets the boundary coordinate exactly
        if j + 1 < k:
            return True
        return tie == (1 if side == MINUS else -1)

    psi_plus = next(j for j in range(n + 1) if has_member_at_depth(j))
    psi_minus = min(psi_plus + 1, n)
    return (psi_minus, phi, psi_plus, max(phi - 1, 0))


def morphism_scales(group, morph):
    if morph[0] == "widen":
        return tuple(Fraction(1) for _ in group)
    return tuple(Fraction(s) for s in morph[1])


def morphism_cod(group, morph):
    if morph[0] == "widen":
        return tuple(("Q", d) for _, d in group)
    return tuple(f if (f[0] == "Q" or s.denominator == 1) else ("Q", f[1])
                 for f, s in zip(group, morph[1]))


def push_keys(group, morph, cut):
    """Expected (lower, upper) cut keys over the codomain."""
    key = cut_key(group, cut)
    if key in (("bot",), ("top",)):
        return key, key
    cod = morphism_cod(group, morph)
    sc = morphism_scales(group, morph)
    ents, tie = key
    k = len(ents)
    img = tuple(scale(e, s) for e, s in zip(ents, sc))
    if tie == 0:
        if in_factor(cod[k - 1], img[-1]):
            return (img, -1), (img, 1)
        return (img, 0), (img, 0)
    if tie == 1 and group[k - 1] == ("Z", 0):
        succ = img[:-1] + (scale(add(ents[-1], ONE), sc[k - 1]),)
        return (img, 1), (succ, -1)
    return (img, tie), (img, tie)


def pull_key(group, morph, cut):
    """Expected preimage key over the domain for a cut over the codomain."""
    cod = morphism_cod(group, morph)
    key = cut_key(cod, cut)
    if key in (("bot",), ("top",)):
        return key
    sc = morphism_scales(group, morph)
    ents, tie = key
    pulled = []
    for i, (e, s) in enumerate(zip(ents, sc)):
        beta = scale(e, 1 / s)
        if in_factor(group[i], beta):
            pulled.append(beta)
            continue
        if group[i] == ("Z", 0):
            return (tuple(pulled) + (num(floor(beta)),), 1)
        return (tuple(pulled) + (beta,), 0)
    return (tuple(pulled), tie)


def translate_key(group, cut, g):
    key = cut_key(group, cut)
    if key in (("bot",), ("top",)):
        return key
    ents, tie = key
    return (tuple(add(e, x) for e, x in zip(ents, elem(g))), tie)


def witness_expected(group, cut, g):
    """True when invariance_witness must answer, False when it must refuse."""
    key = cut_key(group, cut)
    if key in (("bot",), ("top",)):
        return False
    gs = elem(g)
    return any(sign(x) != 0 for x in gs[:len(key[0])])


def probe_elements(group, key):
    """Group elements on and next to the boundary, for sampled checks."""
    n = len(group)
    out = [tuple(ZERO for _ in group)]
    if key not in (("bot",), ("top",)):
        ents = key[0]
        base = []
        for i in range(n):
            if i < len(ents):
                e = ents[i]
                if not in_factor(group[i], e):
                    e = num(floor(e))
            else:
                e = ZERO
            base.append(e)
        out.append(tuple(base))
        for i in range(n):
            for dv in (ONE, neg(ONE)):
                v = list(base)
                v[i] = add(v[i], dv)
                out.append(tuple(v))
    return out


def add_elems(xs, ys):
    return tuple(add(x, y) for x, y in zip(xs, ys))


# ---------------------------------------------------------------------------
# omega groups

def omega_coord(ox, i):
    for j, v in ox:
        if j == i:
            return v
    return ZERO


def omega_elem(pairs):
    return tuple((i, from_plain(v)) for i, v in pairs if from_plain(v) != ZERO)


def omega_add(x, y):
    vals = dict(x)
    for i, v in y:
        vals[i] = add(vals.get(i, ZERO), v)
    return tuple(sorted((i, v) for i, v in vals.items() if v != ZERO))


def anchor_coord(anchor, i):
    """Coordinate i of the full-product point the anchor denotes (gap
    anchors: None at the gap index and beyond)."""
    if anchor[0] == "point":
        return omega_coord(anchor[1], i)
    if anchor[0] == "gap_at":
        return omega_coord(anchor[1], i) if i < anchor[2] else None
    pre, per = anchor[1], anchor[2]
    if i < len(pre):
        return pre[i]
    return per[(i - len(pre)) % len(per)]


def omega_anchor(anchor):
    """Anchor with its values converted to oracle numbers."""
    if anchor[0] == "point":
        return ("point", omega_elem(anchor[1]))
    if anchor[0] == "gap_at":
        return ("gap_at", omega_elem(anchor[1]), anchor[2],
                from_plain(anchor[3]))
    return ("periodic", tuple(map(from_plain, anchor[1])),
            tuple(map(from_plain, anchor[2])))


def omega_member(anchor, ox):
    """Side of x for an oracle-number anchor (point cuts are closed)."""
    last = ox[-1][0] if ox else -1
    if anchor[0] == "point":
        idx = sorted({i for i, _ in ox} | {i for i, _ in anchor[1]})
        for i in idx:
            s = cmp(omega_coord(ox, i), omega_coord(anchor[1], i))
            if s:
                return MINUS if s < 0 else PLUS
        return MINUS
    if anchor[0] == "gap_at":
        for i in range(anchor[2]):
            s = cmp(omega_coord(ox, i), omega_coord(anchor[1], i))
            if s:
                return MINUS if s < 0 else PLUS
        s = cmp(omega_coord(ox, anchor[2]), anchor[3])
        return MINUS if s < 0 else PLUS
    pre, per = anchor[1], anchor[2]
    i = 0
    while True:
        s = cmp(omega_coord(ox, i), anchor_coord(anchor, i))
        if s:
            return MINUS if s < 0 else PLUS
        if i > last and i >= len(pre) and \
                all(v == ZERO for v in per):
            return MINUS
        i += 1


def omega_translate(anchor, g):
    if anchor[0] == "point":
        return ("point", omega_add(anchor[1], g))
    if anchor[0] == "gap_at":
        head = tuple((i, v) for i, v in omega_add(anchor[1], g)
                     if i < anchor[2])
        return ("gap_at", head, anchor[2],
                add(anchor[3], omega_coord(g, anchor[2])))
    return ("translated", anchor, g)


def omega_anchor_coord(anchor, i):
    if anchor[0] == "translated":
        return add(omega_anchor_coord(anchor[1], i), omega_coord(anchor[2], i))
    return anchor_coord(anchor, i)


# ---------------------------------------------------------------------------
# reading the command line's printed output

_RAT = r"-?\d+(?:/\d+)?"
_SCALAR = re.compile(r"^\s*(%s)(?:\s*\+\s*(%s)\*sqrt\((\d+)\))?\s*$"
                     % (_RAT, _RAT))


def read_scalar(text):
    m = _SCALAR.match(text)
    if not m:
        raise ValueError("unreadable scalar %r" % text)
    if m.group(2) is None:
        return num(Fraction(m.group(1)))
    return num(Fraction(m.group(1)), Fraction(m.group(2)), int(m.group(3)))


def _read_list(text):
    text = text.strip()
    if not (text[0] in "[{" and text[-1] in "]}"):
        raise ValueError("unreadable list %r" % text)
    body = text[1:-1].strip()
    return [p for p in body.split(",")] if body else []


def read_element(text):
    return tuple(read_scalar(p) for p in _read_list(text))


def read_oelement(text):
    out = []
    for p in _read_list(text):
        i, _, v = p.partition(":")
        out.append((int(i), read_scalar(v)))
    return tuple(out)


def read_cut_key(group, text):
    """The oracle key of a printed cut descriptor."""
    text = text.strip()
    if text == "all_below":
        return ("top",)
    if text == "all_above":
        return ("bot",)
    m = re.match(r"^(below|above)\((\[.*\]); C (\d+)\)$", text)
    if m:
        k = int(m.group(3))
        ents = read_element(m.group(2))[:k]
        return _norm(group, (ents, 1 if m.group(1) == "below" else -1))
    m = re.match(r"^gap\((\[.*\]); (\d+); (.*)\)$", text)
    if m:
        return (read_element(m.group(1)) + (read_scalar(m.group(3)),), 0)
    raise ValueError("unreadable cut %r" % text)


def read_anchor(text):
    text = text.strip()
    m = re.match(r"^point\((\{.*\})\)$", text)
    if m:
        return ("point", read_oelement(m.group(1)))
    m = re.match(r"^gap_at\((\{.*\}); (\d+); (.*)\)$", text)
    if m:
        return ("gap_at", read_oelement(m.group(1)), int(m.group(2)),
                read_scalar(m.group(3)))
    m = re.match(r"^periodic\((\[.*\]); (\[.*\])\)$", text)
    if m:
        return ("periodic", read_element(m.group(1)),
                read_element(m.group(2)))
    raise ValueError("unreadable anchor %r" % text)


def anchors_equal(a, b):
    """Equality of the cuts two oracle-number anchors denote."""
    if a[0] == "gap_at" and b[0] == "gap_at":
        return a[2] == b[2] and a[3] == b[3] and all(
            cmp(omega_coord(a[1], i), omega_coord(b[1], i)) == 0
            for i in range(a[2]))
    if a[0] == "point" and b[0] == "point":
        return omega_add(a[1], tuple((i, neg(v)) for i, v in b[1])) == ()
    kinds = {a[0], b[0]} - {"translated"}
    if kinds != {"periodic"}:
        return False
    p = a if a[0] == "periodic" else b
    horizon = 4 * (len(p[1]) + len(p[2])) + 16
    if a[0] == "translated":
        horizon += a[2][-1][0] if a[2] else 0
    if b[0] == "translated":
        horizon += b[2][-1][0] if b[2] else 0
    return all(cmp(omega_anchor_coord(a, i), omega_anchor_coord(b, i)) == 0
               for i in range(horizon))


# ---------------------------------------------------------------------------
# self-test on hand-worked cases

def self_test():
    """Raise AssertionError when a hand-worked case disagrees."""
    checks = [
        (cmp(num(Fraction(3, 2)), num(0, 1, 2)), 1),      # 3/2 > sqrt 2
        (cmp(num(Fraction(7, 5)), num(0, 1, 2)), -1),     # 7/5 < sqrt 2
        (cmp(num(0, 2, 2), num(0, 1, 8)), 0),             # 2 sqrt2 = sqrt8
        (cmp(num(0, 3, 2), num(0, 1, 18)), 0),            # 3 sqrt2 = sqrt18
        (sign(num(-3, 1, 9)), 0),                         # sqrt 9 = 3
        (sign(add(num(0, 1, 2), num(0, 1, 3))), 1),
        (sign(add(num(Fraction(16, 5), -1, 2), num(0, -1, 3))), 1),
        (sign(add(num(Fraction(31, 10), -1, 2), num(0, -1, 3))), -1),
        # Pell pair 665857^2 - 2 * 470832^2 = 1: a hair above sqrt 2
        (cmp(num(Fraction(665857, 470832)), num(0, 1, 2)), 1),
        # heights >= 10^30: the best rational below sqrt 2 at that height
        (cmp(num(Fraction(isqrt(2 * 10 ** 60), 10 ** 30)), num(0, 1, 2)), -1),
        (cmp(num(Fraction(isqrt(2 * 10 ** 60) + 1, 10 ** 30)),
             num(0, 1, 2)), 1),
        (sign(num(-isqrt(7 * 10 ** 62), 10 ** 31, 7)), 1),
        (floor(num(0, 10 ** 30, 2)), isqrt(2 * 10 ** 60)),
        (floor(num(0, -1, 2)), -2),
        (square_part(12), (2, 3)),
        (square_part(99999999), (3, 11111111)),
    ]
    for got, want in checks:
        assert got == want, (got, want)
    zz = (("Z", 0), ("Z", 0))
    zq = (("Z", 0), ("Q", 0))
    half = Fraction(1, 2)
    one = (Fraction(1), Fraction(0), 0)
    zero = (Fraction(0), Fraction(0), 0)
    sqrt2 = (Fraction(0), Fraction(1), 2)
    below10 = ("below", (one, zero), 1)
    # above((1,0); C 1) over Z equals below((0,0); C 1)
    assert key_cmp(zz, cut_key(zz, ("above", (one, zero), 1)),
                   cut_key(zz, ("below", (zero, zero), 1))) == 0
    assert key_cmp(zz, cut_key(zz, below10),
                   cut_key(zz, ("above", (one, zero), 1))) == 1
    assert key_member(cut_key(zq, ("gap", (zero,), 2, sqrt2)),
                      elem((zero, (Fraction(3, 2), Fraction(0), 0)))) == PLUS
    # symmetric-interval levels worked by hand from the definitions
    assert interval_bounds(zz, below10, (one, zero)) == (2, 1, 1, 0)
    assert interval_bounds(zz, below10,
                           (zero, (Fraction(5), Fraction(0), 0))) == \
        (1, 1, 0, 0)
    assert interval_bounds(zq, ("gap", (zero,), 2, sqrt2), (zero, one)) == \
        (2, 2, 1, 1)
    assert interval_bounds(zq, ("above", (zero, (half, 0, 0)), 2),
                           (zero, zero)) == (2, 2, 1, 1)
    ones = ("periodic", (), (ONE,))
    assert omega_member(ones, ((0, ONE), (1, ONE))) == MINUS
    assert omega_member(ones, ((0, ONE), (1, num(2)))) == PLUS
    assert read_cut_key(zz, "above([1,0]; C 1)") == ((num(0),), 1)
    assert read_scalar("1/2 + -3*sqrt(8)") == num(Fraction(1, 2), -6, 2)
    return len(checks) + 9
