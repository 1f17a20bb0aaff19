"""The mutant catalogue: small deliberate faults that Tier-1 must catch.

Each entry is a dict with
  file    the path from the repo root;
  old     text that occurs exactly once in that file;
  new     the text that replaces it;
  reason  what the mutant breaks;
and, for a mutant that no test can kill because it changes no behaviour,
  equivalent  why it changes none.

`python tests/run_mutants.py` applies each mutant to a fresh copy of the
repo and runs `pytest -x -q` there; a mutant that passes is a survivor.
pytest does not collect this file.  A refactor that removes a mutant's
old text drops or rewrites the entry with it.
"""

S, C, L, R, D = ("src/ordcut/%s.py" % m for m in
                 ("scalars", "cuts", "lexgroups", "record", "dsl"))
H, O, E, CLI = ("src/ordcut/%s.py" % m for m in
                ("hahnomega", "ordsets", "errors", "cli"))


def _m(file, old, new, reason, equivalent=None):
    entry = {"file": file, "old": old, "new": new, "reason": reason}
    if equivalent:
        entry["equivalent"] = equivalent
    return entry


MUTANTS = [
    # ---- scalars: the integer core and the sign rule ----------------------
    _m(S, "t = isqrt(t) if q > 0 else -isqrt(t - 1) - 1",
       "t = isqrt(t) if q > 0 else -isqrt(t - 1)",
       "floor of a negative irrational part off by one (integer core)"),
    _m(S, "p, q, n = p // g, q // g, n // g", "p, q, n = p, q, n",
       "_scalar leaves results unreduced (integer core)"),
    _m(S, "                if norm < 0:\n"
          "                    norm, m = -norm, -m",
       "                if norm < 0:\n"
          "                    norm = -norm",
       "division by a scalar of negative norm loses the sign flip"),
    _m(S, "        if x.sign() < 0:\n            x = -x\n", "",
       "small_positive over Z[sqrt d] keeps a negative convergent error"),
    _m(S, "        bn, bd = rational(b, \"a coefficient\")  # whatever d is\n"
          "        if d == 0:\n"
          "            return _raw(an, 0, ad, 0)  # an/ad is in lowest terms",
       "        if d == 0:\n"
          "            return _raw(an, 0, ad, 0)  # an/ad is in lowest terms\n"
          "        bn, bd = rational(b, \"a coefficient\")  # whatever d is",
       "Scalar.make skips reading b when d = 0, so a float b is accepted"),
    _m(S, "return _scalar(self.p * m, self.q * m, self.n * k, self.d)",
       "return _scalar(self.p * m, self.q * m, self.n, self.d)",
       "multiplying by a Fraction drops its denominator"),
    _m(S, "u, d, e = x.p * m - y.p * n, x.d, y.d",
       "u, d, e = x.p * n - y.p * m, x.d, y.d",
       "compare_cross cross-multiplies the wrong way"),
    _m(S, "return _quad_sign(u, b, d or e) if b else (u > 0) - (u < 0)",
       "return _quad_sign(u, b, d or e) if b else (u < 0) - (u > 0)",
       "rational comparison reversed"),
    _m(S, "        return not compare_cross(self, other)",
       "        return (self.p, self.q, self.n, self.d) == \\\n"
          "            (other.p, other.q, other.n, other.d)",
       "scalar equality by fields, not by value across one square class"),
    _m(S, "        return _raw(-self.p, -self.q, self.n, self.d)",
       "        from fractions import Fraction\n"
       "        return _raw(-self.p, -self.q, Fraction(self.n).numerator, "
       "self.d)",
       "Scalar.__neg__ reads a Fraction: the integer core imports fractions"),
    _m(S, "    def __reduce__(self):\n"
          "        return _raw, (self.p, self.q, self.n, self.d)\n", "",
       "a Scalar no longer pickles or copies"),
    _m(S, "    return _sgn(a) * _sgn(a * a - b * b * d)",
       "    return _sgn(a) * _sgn(a - b * b * d)",
       "_quad_sign compares an unsquared a"),
    _m(S, "    return _sgn(a) * _sgn(a * a - b * b * d)",
       "    return _sgn(a) * _sgn(a * a - b * b * d + 1)",
       "_quad_sign squaring off by one"),
    _m(S, "    if not a or (a > 0) == (b > 0):",
       "    if not a or (a > 0) != (b > 0):",
       "_quad_sign's same-sign test flipped"),
    _m(S, "    if not s or (s > 0) == (w > 0):",
       "    if not s or (s > 0) != (w > 0):",
       "compare_cross's same-sign test over two radicals flipped"),
    _m(S, "    return _raw(p, q, n, d if q else 0)",
       "    return _raw(p, q, n, d)",
       "_scalar keeps d when q = 0: a non-canonical rational"),
    _m(S, "    return _scalar(x.p * d, x.q * t, x.n * d, d) if t else None",
       "    return None",
       "_over never rewrites across one square class"),
    _m(S, "        return hash((p // g, n // g, q > 0, t // h, u // h))",
       "        return hash((p, q, n, self.d))",
       "hash by representation: equal scalars of one class hash apart"),
    _m(S, "    if x.d not in (0, kind.d):\n        x = _over(kind.d, x)",
       "    if x.d not in (0, kind.d):\n        x = None",
       "contains refuses a value written over another radicand of the "
       "class"),
    _m(S, "        return x, y, min(d, e)", "        return x, y, max(d, e)",
       "sums and products of one class land on the larger radicand"),
    _m(S, "_TRIAL = 1 << 10", "_TRIAL = 1 << 6",
       "radicand split stops at the primes below 64"),
    _m(S, "        if d or d.__class__ is not int:", "        if d:",
       "RankOneKind takes 0.0, False and None as radicand 0"),
    _m(S, "1 << max(1, (ONE / bound).floor().bit_length())",
       "1 << (ONE / bound).floor().bit_length()",
       "small_positive over Q returns 1 for a bound above 1"),
    _m(S, "1 << max(1, (ONE / bound).floor().bit_length())",
       "1 << max(1, (ONE / bound).floor().bit_length() + 1)",
       "small_positive over Q is not the largest power 1/2^t below bound"),
    _m(S, "            step = gap / 2", "            step = gap",
       "element_below over Z[sqrt d] does not halve the gap for a t over "
       "another radical"),
    _m(S, "        if a.__class__ is Scalar and b == 0 and d == 0:\n"
          "            return a\n", "",
       "Scalar.make no longer returns a Scalar itself"),
    _m(S, "    return (x > 0) - (x < 0)",
       "    return (x > 0) - (x < 0) or Fraction",
       "_sgn names a Fraction, which scalars never imports"),
    _m(S, "    return RankOneKind.trusted(\"Q\", kind.d)",
       "    return RankOneKind(\"Q\", kind.d)",
       "the hull re-checks a radicand its kind already passed"),
    _m(S, "    return _scalar(an, 0, ad, 0)", "    return _raw(an, 0, ad, 0)",
       "from_ratios leaves a rational unreduced"),
    _m(S, "        n, m = self.n, other.n\n        if n == m:",
       "        from fractions import Fraction\n"
       "        n, m = Fraction(self.n).numerator, other.n\n        if n == m:",
       "a Fraction inside Scalar.__add__: the integer core imports fractions"),
    _m(S, "from functools import lru_cache",
       "import decimal\nfrom functools import lru_cache",
       "a cold start loads decimal"),
    # ---- lexgroups --------------------------------------------------------
    _m(L, "    return tuple([c if c.__class__ is Scalar else Scalar.make(c)",
       "    return tuple([c if c.__class__ is not int else Scalar.make(c)",
       "the Scalar pass-through lets a Fraction coordinate through unread"),
    _m(L, "        same_group(x, self.dom, GroupElement)\n", "",
       "FactorwiseInjection.apply maps an element of another group"),
    _m(L, "    return expect(c, ConvexSubgroup, \"subgroup\").level",
       "    return c.level",
       "is_principal reads a value that is not a subgroup"),
    _m(L, "        same_group(other, self.group, GroupElement)\n"
          "        return GroupElement.trusted",
       "        return GroupElement.trusted",
       "GroupElement.__add__ adds elements of two groups"),
    _m(L, "    if kc.tag != \"Q\" and (kd.tag == \"Q\" or s.n != 1):",
       "    if kc.tag != \"Q\" and s.n != 1:",
       "a divisible factor may map into a Z-tag factor"),
    _m(L, "    return GroupElement(group, _scalars(coords))",
       "    return GroupElement.trusted(group, _scalars(coords))",
       "element builds its result with trusted, past the checks"),
    _m(L, "    if expect(g, LexGroup, \"group\").rank == 0:\n"
          "        return False, True, None",
       "    if expect(g, LexGroup, \"group\").rank == 0:\n"
          "        return True, True, None",
       "lex() is said to have a least positive element"),
    _m(L, "            c * s for c, s in zip(x.coords, self.scales)))",
       "            c * s / 2 for c, s in zip(x.coords, self.scales)))",
       "FactorwiseInjection.apply halves its result"),
    _m(L, "    index(k1, \"slice bound\", 0, "
          "expect(g, LexGroup, \"group\").rank)",
       "    if not 0 <= k1 <= g.rank:\n"
       "        raise DomainError(\"slice bound %d outside 0..%d\" "
       "% (k1, g.rank))\n"
       "    index(k1, \"slice bound\", 0, g.rank)",
       "a range refusal worded outside errors.py"),
    _m(L, "    return scalars.first_difference(zip(x.coords, y.coords))[1]",
       "    for a, b in zip(x.coords, y.coords):\n"
       "        scalars.compare_cross(a, b)\n"
       "    return scalars.first_difference(zip(x.coords, y.coords))[1]",
       "lex_compare makes one extra compare_cross per coordinate"),
    _m(L, "    same_group(y, expect(x, GroupElement, \"element\").group, "
          "GroupElement)\n"
          "    return scalars.first_difference",
       "    if y.group != x.group:\n"
       "        raise DomainError(\"elements of different groups\")\n"
       "    return scalars.first_difference",
       "the old lex_compare refusal, worded outside errors.py"),
    # ---- record -----------------------------------------------------------
    _m(R, "        if other.__class__ is not self.__class__:\n"
          "            return NotImplemented\n", "",
       "records of two classes with equal fields compare equal"),
    _m(R, "    def __reduce__(self):\n"
          "        return self.__class__, tuple(getattr(self, name)\n"
          "                                     for name in "
          "self.__slots__)\n", "",
       "records no longer pickle through their checked constructor"),
    _m(R, "    def __setattr__(self, name, value):\n"
          "        raise AttributeError(\"%s is immutable\" % "
          "self.__class__.__name__)\n", "",
       "records are no longer immutable on set"),
    _m(R, "    def __delattr__(self, name):\n"
          "        raise AttributeError(\"%s is immutable\" % "
          "self.__class__.__name__)\n", "",
       "records are no longer immutable on delete"),
    _m(R, "        return \"%s(%s)\" % (self.__class__.__qualname__,",
       "        return \"%s(%s)\" % (\"Record\",",
       "repr names no class"),
    _m(R, "        return hash(self._fields(self))", "        return id(self)",
       "equal records hash apart"),
    _m(R, "        b(self, x)\n        if check:\n"
          "            self.__post_init__()",
       "        b(self, x)\n        if False:\n"
          "            self.__post_init__()",
       "two-field records skip their checks"),
    _m(R, "        init.__qualname__ = cls.__qualname__ + \".__init__\"\n", "",
       "a wrong argument count no longer names the class"),
    _m(R, "    if not 1 <= len(names) <= 4:\n"
          "        raise TypeError(\"a record has 1 to 4 fields, not %d\" "
          "% len(names))\n", "",
       "no field-count guard"),
    _m(R, "    def init1(self, w, /):", "    def init1(self, w):",
       "a one-field record takes its field by keyword"),
    _m(R, "        if self is other:\n            return True\n", "",
       "Record.__eq__ without its identity shortcut",
       equivalent="the field comparison gives the same answer for one "
                  "object; only the speed changes"),
    _m(R, "        self = new(cls)\n        a(self, w)\n"
          "        b(self, x)\n        return self",
       "        self = new(cls)\n        a(self, w)\n"
          "        b(self, w)\n        return self",
       "a two-field trusted record stores its first field twice"),
    _m(R, "[cls.__dict__[name].__set__ for name in names]",
       "[cls.__dict__[name].__set__ for name in reversed(names)]",
       "the slot setters bound in the wrong field order"),
    # ---- ordsets ----------------------------------------------------------
    _m(O, "class FiniteChain(Record):\n    __slots__ = (\"size\",)\n",
       "class FiniteChain(Record):\n    __slots__ = (\"size\",)\n\n"
       "    def __init__(self, size, /):\n"
       "        object.__setattr__(self, \"size\", size)\n",
       "a record class writes its own __init__"),
    _m(O, "class Segment(Record):", "class Segment:",
       "Segment is not a record"),
    _m(O, "        index(self.size, \"chain size\")",
       "        if self.size.__class__ is not int:\n"
       "            raise DomainError(\"chain size must be an integer\")\n"
       "        index(self.size, \"chain size\")",
       "an int refusal worded outside errors.py"),
    _m(O, "        index(self.cutoff, \"cutoff\", 0,\n"
          "              expect(self.chain, FiniteChain, \"chain\").size)",
       "        index(self.cutoff, \"cutoff\", 0, self.chain.size)",
       "Segment reads a chain that is not one"),
    _m(O, "    expect(u, MonotoneMap, \"map\")\n", "",
       "pullback and the images read a map that is not one"),
    _m(O, "from bisect import bisect_left",
       "import os\nfrom bisect import bisect_left",
       "an unused import in the library"),
    _m(O, "def cut_bounds(s):",
       "def unused_helper():\n    return 0\n\n\ndef cut_bounds(s):",
       "a public definition with no user"),
    # ---- errors -----------------------------------------------------------
    _m(E, "    return value._numerator, value._denominator",
       "    return value._denominator, value._numerator",
       "a Fraction read with its numerator and denominator swapped"),
    _m(E, "    if isinstance(x, kinds) and x.group is group:\n"
          "        return\n"
          "    if expect(x, kinds, what).group != group:",
       "    if x.group is group:\n        return\n"
       "    if x.group != group:",
       "same_group reads the group of an argument of the wrong kind"),
    # ---- cuts -------------------------------------------------------------
    _m(C, "    return closed1 - closed2", "    return closed2 - closed1",
       "compare_cuts orders equal refs by the flags the wrong way"),
    _m(C, "    return closed1 - closed2", "    return 0",
       "compare_cuts without closed1 - closed2: x <= r and x < r tie"),
    _m(C, "    if len(r1) < len(r2):\n        return 1 if closed1 else -1",
       "    if len(r1) < len(r2):\n        return -1 if closed1 else 1",
       "compare_cuts reads a shorter first ref's flag the wrong way"),
    _m(C, "    if len(r2) < len(r1):\n        return -1 if closed2 else 1",
       "    if len(r2) < len(r1):\n        return 1 if closed2 else -1",
       "compare_cuts reads a shorter second ref's flag the wrong way"),
    _m(C, "class AllBelow(Record):\n    __slots__ = (\"group\",)\n"
          "    ref, closed = (), True",
       "class AllBelow(Record):\n    __slots__ = (\"group\",)\n"
       "    ref, closed = (), False",
       "AllBelow read as open"),
    _m(C, "class AllAbove(Record):\n    __slots__ = (\"group\",)\n"
          "    ref, closed = (), False",
       "class AllAbove(Record):\n    __slots__ = (\"group\",)\n"
       "    ref, closed = (), True",
       "AllAbove.closed = True: AllAbove read as closed"),
    _m(C, "    elif not scalars.contains(kind, t):\n"
          "        return GapCut.trusted(group, ref)",
       "    elif False:\n        return GapCut.trusted(group, ref)",
       "_cut without the contains test on a dense last entry: no gaps"),
    _m(C, "        if not scalars.contains(kind, t):\n"
          "            ref, closed = ref[:-1] + (Scalar.make(t.floor()),), "
          "True",
       "        if not scalars.contains(kind, t):\n"
          "            ref, closed = ref, True",
       "_cut drops the canonical floor over a discrete factor"),
    _m(C, "        elif not closed:\n"
          "            ref, closed = ref[:-1] + (t - ONE,), True",
       "        elif not closed:\n            pass",
       "_cut drops the relative-jump identification {z < r} = "
       "{z <= r - 1}"),
    _m(C, "    if _cut(c.group, c.ref, c.closed) != c:",
       "    if False:",
       "the canonical check without its _cut comparison"),
    _m(C, "    _inside(c.group, c.ref[:-1])\n", "",
       "a directly built cut takes any prefix entries"),
    _m(C, "    if c.closed.__class__ is not bool:",
       "    if c.closed.__class__ is bool and False:",
       "a directly built Principal takes a closed flag that is not a bool"),
    _m(C, "    if isinstance(c, CUTS):\n        return c.group\n"
          "    expect(c, CUTS, \"cut\")",
       "    return c.group",
       "the operations read a cut that is not one"),
    _m(C, "        bound = ONE if j < k else g.coords[k - 1]",
       "        bound = ONE",
       "the lex witness moves an open ref's last entry by a fixed 1"),
    _m(C, "    index(level, \"level\", 1, group.rank)\n"
          "    coords = _scalars(coords)",
       "    if level.__class__ is not int:\n"
       "        raise DomainError(\"level must be an integer\")\n"
       "    index(level, \"level\", 1, group.rank)\n"
       "    coords = _scalars(coords)",
       "an int refusal worded outside errors.py"),
    _m(C, "                          \"invariance subgroup\")\n"
          "    return _cut(slice_group",
       "                          \"invariance subgroup.\")\n"
          "    return _cut(slice_group",
       "a refusal message changes (the corpus digests and CASES)"),
    _m(C, "it\n        closed = True", "it\n        pass",
       "push_upper no longer closes a gap whose image lies in the codomain"),
    _m(C, "(ref[-1] + ONE,), False", "(ref[-1],), False",
       "push_upper closes below the image of the cut, not of the next coset"),
    _m(C, "            break  # outside", "            pass  # outside",
       "pull reads on past an entry outside its factor: a non-canonical cut"),
    _m(C, "    if m < len(ref):", "    if m < len(ref) - 1:",
       "quotient_image answers for a window one level too small"),
    _m(C, "g.coords)),\n                c.closed)",
       "g.coords)),\n                True)", "translate closes every cut"),
    _m(C, "c.ref[m:], c.closed)", "c.ref[m + 1:], c.closed)",
       "trace drops one entry too many"),
    _m(C, "    if j > len(c.ref):", "    if j >= len(c.ref):",
       "invariance_witness refuses a g whose first entry is at the level"),
    _m(C, "    return _cut(group, coords[:level], side == BELOW)",
       "    return Principal.trusted(group, coords[:level], side == BELOW)",
       "principal builds a trusted record that is not canonical: an open "
       "cut over Z"),
    # ---- dsl and cli ------------------------------------------------------
    _m(D, "\",0\" * (c.group.rank - k)", "\"\" * (c.group.rank - k)",
       "print_cut without the zero padding of a principal anchor"),
    _m(D, "|\\*sqrt\\(|[ZQ]\\[sqrt|[0-9]+|\\S)\")",
       "|\\*sqrt\\(|[ZQ]\\[sqrt|[0-9]+|.)\")",
       "the scanner's catch-all matches whitespace"),
    _m(D, "|\\*sqrt\\(|[ZQ]\\[sqrt|[0-9]+|\\S)\")",
       "|\\*sqrt\\(|[ZQ]\\[sqrt|[0-9]+|[^ \\t\\n\\r\\f\\v])\")",
       "the scanner's catch-all misses Unicode whitespace"),
    _m(D, "        return m.end() if after else m.start(1)",
       "        return m.end() if after else m.start()",
       "an error position counts the whitespace before a token"),
    _m(D, "self.error(\"zero denominator\", after=True)",
       "self.error(\"zero denominator\")",
       "a zero denominator is reported at the next token"),
    _m(D, "        if not \"0\" <= tok < \":\":",
       "        if not tok.isdigit():",
       "a superscript digit passes the integer test"),
    _m(D, "    def eat(self, lit):\n"
          "        \"\"\"Consume the current token if it is lit.\"\"\"\n",
       "    def eat(self, lit):\n"
          "        \"\"\"Consume the current token if it is lit.\"\"\"\n"
          "        self.pos()\n",
       "the scanner re-scans the text on every token"),
    _m(D, "@lru_cache(maxsize=256)  # the group texts of a session",
       "@lru_cache(maxsize=0)  # the group texts of a session",
       "one group text parses to a new record each time"),
    _m(D, "        if isinstance(group[0], (LexGroup, OmegaGroup)):",
       "        if True:",
       "the parse functions read a group of neither family"),
    _m(CLI, "        except ValueError:  # more digits than int() converts\n"
            "            pass",
       "        except ValueError:  # more digits than int() converts\n"
            "            return 0",
       "a LEVEL past the int-to-str limit is read as 0"),
    _m(CLI, "import json\n", "import json\nimport typing\n",
       "a cold start loads typing"),
    _m(CLI, "    if len(args) != 1 + len(row.args):",
       "    if not 1 + len(row.args) <= len(args) <= 2 + len(row.args):",
       "_run accepts one argument too many"),
    _m(CLI, "    except (_Usage, ParseError) as e:\n"
            "        print(\"syntax error: %s\" % e, file=err)\n"
            "        return 1\n",
       "    except _Usage as e:\n"
       "        print(\"syntax error: %s\" % e, file=err)\n"
       "        return 1\n"
       "    except ParseError as e:\n"
       "        print(\"syntax error: %s\" % e, file=err)\n"
       "        return 2\n",
       "a ParseError exits 2"),
    _m(CLI, "_ORDER_NAMES = {-1: \"less\", 0: \"equal\", 1: \"greater\"}",
       "_ORDER_NAMES = {-1: \"greater\", 0: \"equal\", 1: \"less\"}",
       "compare prints the order reversed"),
    _m(CLI, "        if e.payload is not None:", "        if False:",
       "a domain error drops its witness"),
    # ---- hahnomega --------------------------------------------------------
    _m(H, "            if w.sign() == 0:\n                vals.pop(i, None)",
       "            if False:\n                vals.pop(i, None)",
       "an omega sum keeps a zero value"),
    _m(H, "                                  anchor.delta + "
          "g.coord(anchor.index))",
       "                                  anchor.delta)",
       "a translated omega gap keeps its delta"),
    _m(H, "            if i < anchor.index))",
       "            if i <= anchor.index))",
       "a translated omega gap's prefix reaches its index"),
    _m(H, "    return lo if anchor.coord(t).sign() > 0 else lo - g",
       "    return lo",
       "the periodic witness drops its lo - g branch"),
    _m(H, "        bound = ONE if j < anchor.index else head",
       "        bound = ONE",
       "the omega gap witness moves delta by a fixed 1"),
    _m(H, "        if i in vals:\n"
          "            raise DomainError(\"index %s repeats\" % "
          "scalars._print_ratio(i, 1))\n", "",
       "omega_element takes a repeated index, the last value winning"),
    _m(H, "        pairs, closed = _pairs(x.support, anchor.point.support), True",
       "        pairs, closed = _pairs(x.support, anchor.point.support), False",
       "a point's tie lands on PLUS"),
    _m(H, "        return OmegaConvexSubgroup(group, anchor.index + 1)",
       "        return OmegaConvexSubgroup(group, anchor.index)",
       "omega_invariance gives a gap Tail(index), not Tail(index + 1)"),
    _m(H, "    sequence(pairs, \"support pairs\")\n", "",
       "omega_element iterates a value that is not a sequence"),
    _m(H, "_scalars(preperiod, \"preperiod\")",
       "tuple(map(Scalar.make, preperiod))",
       "omega_periodic iterates a preperiod that is not a sequence"),
    _m(H, "    # invariance (0) is not an immediate predecessor on the Tail "
          "chain\n    return TIGHTENED",
       "    # invariance (0) is not an immediate predecessor on the Tail "
       "chain\n    return GAPPED",
       "a periodic anchor classified gapped, not tightened"),
    # ---- the README's commands --------------------------------------------
    _m("README.md", "upper: below([1/2]; C 1)", "upper: below([1/2,0]; C 1)",
       "a README command's shown output no longer matches"),
]
