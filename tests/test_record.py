"""The value classes: immutable slotted records, compared, hashed, printed,
pickled and copied by class and fields."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from ordcut import cuts, hahnomega, lexgroups, ordsets, scalars
from ordcut.errors import DomainError
from ordcut.record import Record
from ordcut.scalars import KIND_Z, Scalar, quad_q

import sampling

MODULES = (scalars, lexgroups, cuts, hahnomega, ordsets)


def _samples():
    """One record of each class, built through the public constructors."""
    g = lexgroups.LexGroup((KIND_Z, quad_q(2)))
    root2, root3 = Scalar.make(0, 1, 2), Scalar.make(0, 1, 3)
    x = lexgroups.element(g, (1, Scalar.make(Fraction(1, 2), 3, 2)))
    og = hahnomega.OmegaGroup(quad_q(2))
    chain = ordsets.FiniteChain(3)
    return [
        scalars.quad_z(5),
        g,
        x,
        lexgroups.ConvexSubgroup(g, 1),
        # built directly: widening(g) returns one shared record per group
        lexgroups.FactorwiseInjection(
            g, lexgroups.LexGroup((scalars.KIND_Q, quad_q(2))),
            (Fraction(1), Fraction(1))),
        cuts.AllBelow(g),
        cuts.AllAbove(g),
        cuts.principal(g, cuts.BELOW, (1, root2), 2),
        cuts.gap_cut(g, (1,), 2, root3),
        og,
        hahnomega.omega_element(og, [(0, 1), (3, root2)]),
        sampling.omega_point(og, [(1, 2)]),
        hahnomega.omega_gap_at(og, [(0, 1)], 2, root3),
        hahnomega.omega_periodic(og, [1], [0, root2]),
        hahnomega.OmegaConvexSubgroup(og, 2),
        chain,
        ordsets.Segment(chain, 1),
        ordsets.MonotoneMap(ordsets.FiniteChain(2), chain, (0, 2)),
    ]


def _record_classes():
    return {v for m in MODULES for v in vars(m).values()
            if isinstance(v, type) and issubclass(v, Record)
            and v.__module__ == m.__name__}


def _fields(x):
    return tuple(getattr(x, name) for name in x.__slots__)


def test_samples_cover_every_record_class():
    classes = [type(x) for x in _samples()]
    assert len(classes) == len(set(classes)) == 18
    assert set(classes) == _record_classes()


def test_records_are_immutable_and_slotted():
    for x in _samples():
        assert not hasattr(x, "__dict__"), type(x)
        for name in x.__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)


def test_equality_and_hash_go_by_class_and_fields():
    samples, again = _samples(), _samples()
    for x, y in zip(samples, again):
        assert x is not y
        assert x == y and not x != y and hash(x) == hash(y)
        assert x != _fields(x)
    for i, x in enumerate(samples):
        for y in samples[i + 1:]:
            assert x != y and y != x
    g = samples[1]
    # equal fields, different classes
    assert cuts.AllBelow(g) != cuts.AllAbove(g)


def test_repr_reads_name_and_fields():
    for x in _samples():
        assert repr(x) == "%s(%s)" % (type(x).__name__, ", ".join(
            "%s=%r" % (name, getattr(x, name)) for name in x.__slots__))
    assert repr(scalars.KIND_Q) == "RankOneKind(tag='Q', d=0)"
    chain = ordsets.FiniteChain(3)
    assert repr(ordsets.Segment(chain, 1)) == \
        "Segment(chain=FiniteChain(size=3), cutoff=1)"
    assert repr(lexgroups.LexGroup((KIND_Z,))) == \
        "LexGroup(factors=(RankOneKind(tag='Z', d=0),))"


def test_pickle_and_copy_round_trip():
    samples = _samples()
    for x in samples:
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                  copy.deepcopy(x)):
            assert type(y) is type(x) and _fields(y) == _fields(x)
            assert y == x and hash(y) == hash(x)
    keyed = {x: i for i, x in enumerate(samples)}
    for y in (pickle.loads(pickle.dumps(keyed)), copy.copy(keyed),
              copy.deepcopy(keyed)):
        assert y == keyed and \
            [y[x] for x in samples] == list(range(len(samples)))


CHAIN = ordsets.FiniteChain(3)
LEX = lexgroups.LexGroup((KIND_Z, scalars.KIND_Q))
OMEGA = hahnomega.OmegaGroup(scalars.KIND_Q)
ROOT2 = Scalar.make(0, 1, 2)

# Each argument that indexes or counts: a builder of one value from it, a
# valid argument and arguments out of range.
INDEXED = {
    "ConvexSubgroup": (lambda i: lexgroups.ConvexSubgroup(LEX, i), 1, (-1, 3)),
    "principal": (lambda i: cuts.principal(LEX, cuts.BELOW, (1, 0), i), 1,
                  (0, 3)),
    "gap_cut": (lambda i: cuts.gap_cut(LEX, (1,), i, ROOT2), 2, (0, 3)),
    "slice_group k1": (lambda i: lexgroups.slice_group(LEX, i, 2), 1,
                       (-1, 3)),
    "slice_group k2": (lambda i: lexgroups.slice_group(LEX, 0, i), 1,
                       (-1, 3)),
    "unit": (lambda i: lexgroups.unit(LEX, i), 1, (0, -1, 3)),
    "omega_element": (lambda i: hahnomega.omega_element(OMEGA, [(i, 1)]), 1,
                      (-1, -2)),
    "OmegaElement": (lambda i: hahnomega.OmegaElement(
        OMEGA, ((i, scalars.ONE),)), 1, (-1, -2)),
    "OmegaGapAt": (lambda i: hahnomega.OmegaGapAt(
        OMEGA, hahnomega.omega_element(OMEGA, []), i, ROOT2), 1, (-1,)),
    "FiniteChain": (ordsets.FiniteChain, 1, (-1,)),
    "Segment": (lambda i: ordsets.Segment(CHAIN, i), 1, (-1, 4)),
    "MonotoneMap image": (lambda i: ordsets.MonotoneMap(
        ordsets.FiniteChain(2), CHAIN, (i, 2)), 1, (-1, 3)),
}


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_index_arguments_are_ints_in_range(name):
    build, valid, out_of_range = INDEXED[name]
    build(valid)
    # bool is refused too, as radicands refuse it
    for bad in (1.5, float(valid), True, Fraction(valid), "1", None):
        with pytest.raises(DomainError, match="must be an integer, not %s$"
                           % type(bad).__name__):
            build(bad)
    for bad in out_of_range:
        with pytest.raises(DomainError) as e:
            build(bad)
        assert "strictly increase" not in str(e.value)


OTHER = lexgroups.LexGroup((KIND_Z, KIND_Z))
OMEGA_Z = hahnomega.OmegaGroup(KIND_Z)


def _other_group_calls():
    """(call, what) for each entry point that takes two values of one
    group, called with the second from a group of the same shape."""
    x, y = lexgroups.element(LEX, (1, 0)), lexgroups.element(OTHER, (1, 0))
    c = cuts.principal(LEX, cuts.BELOW, (1, 0), 2)
    sub = lexgroups.ConvexSubgroup(OTHER, 1)
    ox = hahnomega.omega_element(OMEGA, [(0, 1)])
    oy = hahnomega.omega_element(OMEGA_Z, [(0, 1)])
    anchor = hahnomega.omega_gap_at(OMEGA, [(0, 1)], 2, ROOT2)
    m = lexgroups.widening(OTHER)
    return [
        (lambda: x + y, "element"),
        (lambda: x - y, "element"),
        (lambda: lexgroups.lex_compare(x, y), "element"),
        (lambda: lexgroups.ConvexSubgroup(LEX, 1).member(y), "element"),
        (lambda: lexgroups.epsilon_upper(
            m, lexgroups.ConvexSubgroup(LEX, 1)), "subgroup"),
        (lambda: cuts.member(c, y), "element"),
        (lambda: cuts.translate(c, y), "element"),
        (lambda: cuts.compare_cuts(c, cuts.AllBelow(OTHER)), "cut"),
        (lambda: cuts.quotient_image(c, sub), "subgroup"),
        (lambda: cuts.trace(c, sub), "subgroup"),
        (lambda: cuts.transport(c, sub, sub), "subgroup"),
        (lambda: cuts.interval_bounds(c, y), "element"),
        (lambda: cuts.invariance_witness(c, y), "element"),
        (lambda: ox + oy, "element"),
        (lambda: ox - oy, "element"),
        (lambda: hahnomega.omega_compare(ox, oy), "element"),
        (lambda: hahnomega.omega_member(anchor, oy), "element"),
        (lambda: hahnomega.omega_tail(OMEGA, 1).member(oy), "element"),
        (lambda: hahnomega.omega_translate(anchor, oy), "element"),
        (lambda: hahnomega.omega_invariance_witness(anchor, oy), "element"),
    ]


def test_arguments_of_another_group_are_refused_in_one_wording():
    # one wording everywhere, for sums and comparisons too
    for call, what in _other_group_calls():
        with pytest.raises(DomainError) as e:
            call()
        assert str(e.value) == "%s belongs to a different group" % what


def test_unpickling_runs_the_checks_again():
    # a record that skipped its __init__ is refused when it is rebuilt
    bad = object.__new__(ordsets.FiniteChain)
    object.__setattr__(bad, "size", -1)
    data = pickle.dumps(bad)
    with pytest.raises(DomainError):
        pickle.loads(data)
    with pytest.raises(DomainError):
        copy.copy(bad)
    # records from the unchecked element builders and the hull pass the
    # checks when they are rebuilt
    g = lexgroups.LexGroup((KIND_Z, quad_q(2)))
    x = lexgroups.element(g, (1, 2))
    for y in (x + x, -x, scalars.divisible_hull_kind(scalars.quad_z(7))):
        assert pickle.loads(pickle.dumps(y)) == y



def test_constructors_take_the_fields_positionally():
    # one argument per field, in __slots__ order; a wrong count or a keyword
    # is a TypeError that names the class
    for x in _samples():
        cls, fields = type(x), _fields(x)
        assert cls(*fields) == x
        params = list(inspect.signature(cls).parameters.values())
        assert [p.kind for p in params] == \
            [inspect.Parameter.POSITIONAL_ONLY] * len(fields)
        named = "^%s.__init__\\(\\) " % cls.__qualname__
        for args in ((), fields[:-1], fields + (None,)):
            with pytest.raises(TypeError, match=named):
                cls(*args)
        with pytest.raises(TypeError, match=named):
            cls(**dict(zip(cls.__slots__, fields)))


def test_records_have_one_to_four_fields():
    for slots in ((), ("a", "b", "c", "d", "e")):
        with pytest.raises(TypeError, match="^a record has 1 to 4 fields"):
            type("Odd", (Record,), {"__slots__": slots})


def test_init_runs_post_init_once(monkeypatch):
    # the benchmark counts GroupElement.__post_init__ calls
    calls = []
    check = lexgroups.GroupElement.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(lexgroups.GroupElement, "__post_init__", counted)
    g = lexgroups.LexGroup((KIND_Z,))
    x = lexgroups.element(g, (3,))
    assert calls == [x]
    x + x
    assert len(calls) == 1
