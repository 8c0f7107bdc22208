import dataclasses
import functools
import inspect
import json
import os
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horokit import serialize
from horokit.boundary import FixedPointAuditReport, limit_restrictions, unboundedness_check
from horokit.dynamics import AlmostFixedReport, DisplacementReport, TauReport, TracialReport
from horokit.cli import main
from horokit.errors import InvalidParameterError, InvalidSpaceError
from horokit.extension import FailureReport, FailureWitness, RestrictionAudit, ZeroObstructionReport
from horokit.functionals import BallFunctional
from horokit.groups import (
    CayleyGraphSpace,
    FreeGroup,
    GeneratingSet,
    Heisenberg,
    Zd,
    cyclic_group,
)
from horokit.metric import FiniteMetricSpace, MetricReport, real_field
from horokit.serialize import (
    SCHEMA_VERSION,
    RowTable,
    emit_json,
    point_from_json,
    space_from_descriptor,
)
from horokit.spaces import (
    DISTORTIONS,
    HUB,
    DistortedLine,
    DistortionReport,
    LpSpace,
    PoincareDisk,
    SpokeRaySpace,
    StarTreeSpace,
    UpperHalfPlane,
)
import oracles
from oracles import json_report


def test_scalar_round_trip():
    # A Fraction is written as "p/q" in lowest terms ("p" when integral), a
    # NumPy scalar as the Python int or float it holds.
    values = [Fraction(7, 2), Fraction(3), Fraction(-6, 4), 0.25, np.int64(-3), np.float64(0.25)]
    text = emit_json(values)
    assert text == json_report(["7/2", "3", "-3/2", 0.25, -3, 0.25])
    assert [Fraction(v) for v in json.loads(text)[:3]] == values[:3]


def test_ball_functional_is_written_as_radius_order_and_values():
    # Its labels are written as "order", its points not at all, and a value
    # that is not an int as its scalar, as a Fraction or a NumPy int is anywhere.
    labels, points = ("e", "a", "A"), ((0,), (1,), (-1,))
    exact = BallFunctional(1, labels, (0, 1, -1), points)
    assert emit_json(exact) == json_report({"radius": 1, "order": list(labels), "values": [0, 1, -1]})
    mixed = BallFunctional(Fraction(3, 2), labels, (0, Fraction(1, 2), np.int64(-1)), points)
    want = {"radius": "3/2", "order": list(labels), "values": [0, "1/2", -1]}
    assert emit_json(mixed) == json_report(mixed) == json_report(want)


def test_space_descriptors():
    fin = space_from_descriptor(
        {"type": "finite", "params": {"matrix": [["0", "1/2"], ["1/2", "0"]]}, "base": 1}
    )
    assert isinstance(fin, FiniteMetricSpace)
    assert fin.base_point == 1
    assert fin.distance(0, 1) == Fraction(1, 2)
    assert isinstance(space_from_descriptor({"type": "zd", "params": {"dim": 3}}), CayleyGraphSpace)
    assert isinstance(space_from_descriptor({"type": "spoke_ray"}), SpokeRaySpace)
    assert isinstance(space_from_descriptor({"type": "poincare_disk"}), PoincareDisk)
    assert isinstance(space_from_descriptor({"type": "star_tree"}), StarTreeSpace)
    assert isinstance(space_from_descriptor({"type": "half_plane"}), UpperHalfPlane)
    lp = space_from_descriptor({"type": "lp", "params": {"p": 3, "dim": 4}})
    assert isinstance(lp, LpSpace) and lp.p == 3.0
    with pytest.raises(InvalidParameterError):
        space_from_descriptor({"type": "banach"})
    with pytest.raises(InvalidParameterError):
        space_from_descriptor([1, 2])


def test_descriptor_params_are_the_constructor_keywords():
    # A type given no params is its constructor's defaults, and a group
    # family is the Cayley graph of its standard generators.
    for kind, ctor in serialize.SPACE_TYPES.items():
        if kind == "finite_group":  # its table has no default
            continue
        space = space_from_descriptor({"type": kind})
        if isinstance(space, CayleyGraphSpace):
            assert type(space.family) is ctor and space.gens == GeneratingSet.standard(space.family)
        else:
            assert type(space) is ctor
    assert space_from_descriptor({"type": "zd"}).family.dim == Zd().dim == 1
    assert space_from_descriptor({"type": "free"}).family.rank == FreeGroup().rank == 2
    assert (space_from_descriptor({"type": "lp"}).p, space_from_descriptor({"type": "lp"}).dim) == (2.0, 2)
    assert (LpSpace().p, LpSpace().dim, LpSpace(3.5).dim) == (2.0, 2, 2)
    assert space_from_descriptor({"type": "distorted_line"}).dfun is DistortedLine().dfun is DISTORTIONS["sqrt"]
    gens = space_from_descriptor({"type": "finite_group", "params": {"table": [[0, 1], [1, 0]], "generators": [1]}})
    assert gens.family.table == ((0, 1), (1, 0)) and gens.gens.elements == (1,)
    # Library callers have their parameters checked as JSON callers do.
    with pytest.raises(InvalidParameterError, match="^p must be a real number in the float range, got 1000"):
        LpSpace(10**400)
    with pytest.raises(InvalidParameterError, match="^dim must be an integer, got 1.5"):
        LpSpace(2, 1.5)


# Entries as JSON text: strings of every form Fraction reads or rejects,
# JSON ints, JSON floats, and values that are no number at all.
MATRIX_ENTRIES = [
    '"2/4"', '"007/010"', '"0/5"', '" 3 "', '"+1"', '"1_0"', '"\u0661"', '"\u00b2"', '"0.5"', '"1e3"',
    '"-1/2"', '"-3"', '"1/0"', '"0/0"', '"x"', '""', '"1/"', '"/2"', '"1/2/3"', '"nan"',
    "0", "7", "-3", str(10**30), "0.5", "2.0", "1e-300", "1e300", "NaN", "true", "null", "[1]",
]


def _outcome(make):
    try:
        return make()
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("text", MATRIX_ENTRIES)
def test_finite_descriptor_reads_entries_as_fraction_of_str(text):
    """Each entry gives the distance that a Fraction(str(v)) entry gives, or
    the same exception class."""
    v = json.loads(text)
    desc = {"type": "finite", "params": {"matrix": [[0, v], [v, 0]]}}
    got = _outcome(lambda: space_from_descriptor(desc).distance(0, 1))
    want = _outcome(lambda: FiniteMetricSpace([[0, Fraction(str(v))], [Fraction(str(v)), 0]]).distance(0, 1))
    assert got == want and type(got) is type(want)


# Denominators of points on a line; the last two have an lcm past 2^61.
LINE_DENOMINATORS = [1, 2, 3, 4, 2**31 - 1, 2**32 - 5]
# Entries that Fraction(str(v)) rejects, reads oddly, or that break an axiom.
ODD_ENTRIES = ["x", "", "1/0", "0/0", "1/", "/2", "1/2/3", True, None, [1], "-1/2", "nan", "1e3",
               " 3 ", "+1", 0.5, "\u0661/\u0662"]


def _text_of(x: Fraction):
    """A distance x >= 0 in one of the forms a descriptor may give it."""
    p, q = x.numerator, x.denominator
    arabic = "".join(chr(0x660 + int(c)) for c in str(p))  # non-ASCII digits
    forms = [f"{p}/{q}", f"{2 * p}/{2 * q}", f"{arabic}/{q}"]
    if q == 1:
        forms += [p, str(p), f"{p}.0"]
    if q == 2:
        forms.append(f"{p // 2}.5")
    return st.sampled_from(forms)


def _raised(make):
    """What make() returns, or the class and text of what it raises."""
    try:
        return make()
    except Exception as exc:
        return RAISED, type(exc), str(exc)


RAISED = object()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), faults=st.integers(0, 2))
def test_finite_descriptor_table_matches_fraction_of_str(data, n, faults):
    """Whole matrices of mixed entry forms give the table and denominator of
    Fraction(str(v)), or its exception, or the first axiom failure."""
    dens = data.draw(st.lists(st.sampled_from(LINE_DENOMINATORS), min_size=n, max_size=n))
    line = [Fraction(data.draw(st.integers(-40, 40)), q) for q in dens]
    matrix = [[data.draw(_text_of(abs(x - y))) for y in line] for x in line]
    for _ in range(faults):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        matrix[i][j] = data.draw(st.sampled_from(ODD_ENTRIES))
    matrix = json.loads(json.dumps(matrix))
    got = _raised(lambda: space_from_descriptor({"type": "finite", "params": {"matrix": matrix}}))
    want = _raised(lambda: oracles.descriptor_rows(matrix))
    if want[0] is RAISED:
        assert got == want
        return
    rows, den = want
    hit = oracles.first_axiom_violation(rows)
    pos = oracles.first_triangle_violation(rows) if hit is None else None
    if hit is not None or pos is not None:
        if hit is None:
            expected = f"triangle inequality fails at triple ({pos // (n * n)}, {pos // n % n}, {pos % n})"
        elif hit[0] == "diagonal":
            expected = f"nonzero diagonal at point {hit[1]}"
        else:
            expected = f"{hit[0]} distance at pair ({hit[1]}, {hit[2]})"
        assert got == (RAISED, InvalidSpaceError, expected)
        return
    M, d = got.distance_block(got.points())(got.points(), np.arange(n))
    table = [[int(v * den) for v in row] for row in rows]
    assert d == den and M.tolist() == table
    assert M.dtype == (object if max(den, *map(abs, sum(table, []))) >= 2**61 else np.int64)


def test_points_parse_from_literal_json():
    sr = SpokeRaySpace()
    assert point_from_json(sr, {"kind": "hub"}) == sr.base_point
    assert point_from_json(sr, {"kind": "ray", "t": "7/2"}) == sr.ray_point(Fraction(7, 2))
    assert point_from_json(sr, {"kind": "head", "n": 3}) == sr.spoke_head(3)
    assert point_from_json(sr, {"kind": "spoke", "n": 4, "s": "1"}) == sr.spoke_interior(4, 1)
    st = StarTreeSpace()
    assert point_from_json(st, {"kind": "hub"}) == st.base_point
    assert point_from_json(st, {"kind": "int", "n": 5, "s": "9/2"}) == st.interval_point(5, Fraction(9, 2))
    assert point_from_json(CayleyGraphSpace(Zd(2)), [3, -4]) == (3, -4)
    f2 = CayleyGraphSpace(FreeGroup(2))
    assert point_from_json(f2, "abA") == f2.family.word("abA") == (1, 2, -1)
    assert point_from_json(PoincareDisk(), [0.3, 0.2]) == 0.3 + 0.2j


def test_integer_fields_read_integral_values_and_name_the_rest():
    # An integral float reads as its int, as before; a fraction of one, an
    # infinity, NaN or a value of no number type names its field.
    sr, st, z2 = SpokeRaySpace(), StarTreeSpace(), CayleyGraphSpace(Zd(2))
    assert point_from_json(sr, {"kind": "head", "n": 3.0}) == ("head", 3)
    assert point_from_json(st, {"n": 2.0, "s": 1}) == ("int", 2, Fraction(1))
    assert point_from_json(z2, [2.0, -1]) == (2, -1)
    assert space_from_descriptor({"type": "zd", "params": {"dim": 3.0}}).family.dim == 3
    assert space_from_descriptor({"type": "lp", "params": {"dim": 4.0}}).dim == 4
    bad = [
        (lambda v: point_from_json(sr, {"kind": "head", "n": v}), "n"),
        (lambda v: point_from_json(sr, {"kind": "spoke", "n": v, "s": "1/2"}), "n"),
        (lambda v: point_from_json(st, {"n": v, "s": 1}), "n"),
        (lambda v: point_from_json(z2, [0, v]), "coordinate"),
        (lambda v: point_from_json(CayleyGraphSpace(Heisenberg()), [0, v, 0]), "coordinate"),
        (lambda v: point_from_json(FiniteMetricSpace([[0, 1], [1, 0]]), v), "point"),
        (lambda v: point_from_json(CayleyGraphSpace(cyclic_group(4)), v), "element"),
        (lambda v: space_from_descriptor({"type": "zd", "params": {"dim": v}}), "dim"),
        (lambda v: space_from_descriptor({"type": "free", "params": {"rank": v}}), "rank"),
        (lambda v: space_from_descriptor({"type": "lp", "params": {"dim": v}}), "dim"),
        (lambda v: space_from_descriptor({"type": "finite", "params": {"matrix": [[0]]}, "base": v}), "base"),
    ]
    for read, field in bad:
        for v in (1.5, float("inf"), float("nan"), "1/2", None, [1], True, False, np.True_):
            with pytest.raises(InvalidParameterError, match=f"^{field} must be an integer, got "):
                read(v)
    # A real field reads any number in the float range, but no boolean: JSON
    # true read as 1.0, and as the ray parameter 1.
    assert point_from_json(DistortedLine(), 2) == 2.0 and LpSpace(3).p == 3.0
    real = [
        (lambda v: point_from_json(DistortedLine(), v), "point"),
        (lambda v: LpSpace(v), "p"),
        (lambda v: real_field(v, "value"), "value"),
    ]
    for read, field in real:
        for v in (10**400, True, False, np.True_):
            with pytest.raises(InvalidParameterError, match=f"^{field} must be a real number in the float range, got "):
                read(v)
    for v in (True, False, np.True_):
        with pytest.raises(InvalidParameterError, match=f"^t must be a rational number, got {v!r}$"):
            point_from_json(sr, {"kind": "ray", "t": v})


# The JSON fields of each kind of tagged point, as README lists them.
POINT_FIELDS = {
    SpokeRaySpace: {"hub": [], "ray": ["t"], "head": ["n"], "spoke": ["n", "s"]},
    StarTreeSpace: {"hub": [], "int": ["n", "s"]},
}


def test_point_fields_are_the_constructor_keywords():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for space, fields in POINT_FIELDS.items():
        assert {kind: list(inspect.signature(ctor).parameters) for kind, ctor in space.kinds.items()} == fields
        for kind, ctor in space.kinds.items():
            assert f"`{ctor.__name__}({', '.join(fields[kind])})`" in readme


@pytest.mark.parametrize("make, message", [
    # A missing key reached the constructor: a TypeError naming a Python
    # function, or for the finite matrix a KeyError.
    (lambda: point_from_json(SpokeRaySpace(), {"kind": "spoke", "n": 2}), "missing point key 's' for kind 'spoke'"),
    (lambda: point_from_json(SpokeRaySpace(), {"kind": "spoke"}), "missing point key 'n' for kind 'spoke'"),
    (lambda: point_from_json(SpokeRaySpace(), {"kind": "ray"}), "missing point key 't' for kind 'ray'"),
    (lambda: point_from_json(StarTreeSpace(), {"s": 1}), "missing point key 'n' for kind 'int'"),
    (lambda: point_from_json(StarTreeSpace(), {"kind": "int", "n": 1}), "missing point key 's' for kind 'int'"),
    (lambda: space_from_descriptor({"type": "finite_group"}), "missing params key 'table' for space type 'finite_group'"),
    (lambda: space_from_descriptor({"type": "finite_group", "params": {"generators": [1]}}),
     "missing params key 'table' for space type 'finite_group'"),
    (lambda: space_from_descriptor({"type": "finite"}), "missing params key 'matrix' for space type 'finite'"),
    (lambda: space_from_descriptor({"type": "finite", "params": {}, "base": 0}),
     "missing params key 'matrix' for space type 'finite'"),
    # An unknown key is named first.
    (lambda: point_from_json(SpokeRaySpace(), {"kind": "spoke", "x": 1}), "unknown point key 'x' for kind 'spoke'"),
    (lambda: space_from_descriptor({"type": "finite", "params": {"base": 0}}),
     "unknown params key 'base' for space type 'finite'"),
], ids=lambda a: None if callable(a) else a)
def test_missing_keys_are_named(make, message):
    with pytest.raises(InvalidParameterError) as err:
        make()
    assert str(err.value) == message


def _rebuilt(space, p):
    """``kinds[tag](**fields)`` of the tagged point p = (tag, field, ...)."""
    ctor = space.kinds[p[0]]
    return ctor(**dict(zip(inspect.signature(ctor).parameters, p[1:], strict=True)))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["spoke_ray", "star_tree"]), data=st.data(), seed=st.integers(0, 2**32))
def test_each_tagged_point_is_its_kinds_constructor_call(kind, data, seed):
    # Every valid point, drawn from the round-trip strategies and from
    # sample_points, is the call of its tag's constructor on its fields.
    space, pairs = data.draw(SPACES[kind])
    for p in [data.draw(pairs)[1], *space.sample_points(random.Random(seed), 8)]:
        q = _rebuilt(space, p)
        assert q == p and list(map(type, q)) == list(map(type, p))


def test_emit_json_deterministic_and_typed():
    payload = {
        "b": Fraction(1, 3),
        "a": np.float64(0.5),
        "c": np.array([1.0, 2.0]),
        "d": 1 + 2j,
    }
    one = emit_json(payload)
    two = emit_json(payload)
    assert one == two
    data = json.loads(one)
    assert data["b"] == "1/3"
    assert data["c"] == [1.0, 2.0]
    assert data["d"] == [1.0, 2.0]
    assert list(data) == sorted(data)


# ---------------------------------------------------------------------------
# Literal JSON points over every space type
# ---------------------------------------------------------------------------

SR, ST = SpokeRaySpace(), StarTreeSpace()
COORD = st.floats(-1e3, 1e3)
FRACS = functools.partial(st.fractions, max_denominator=16)


def _free_word(rank):
    """A word label over a-d, x5, x6 (upper case inverts), maybe unreduced,
    and the reduced word it names."""
    fam = FreeGroup(rank)
    letters = st.sampled_from([x for i in range(1, rank + 1) for x in (i, -i)])

    def label(x):
        name = "abcd"[abs(x) - 1] if abs(x) <= 4 else f"x{abs(x)}"
        return name if x > 0 else name.upper()

    return st.lists(letters, max_size=8).map(
        lambda xs: ("".join(map(label, xs)) or "e",
                    functools.reduce(fam.multiply, [(x,) for x in xs], fam.identity()))
    )


def _with_points(space, pairs):
    return st.just((space, pairs))


def _same(points):
    """Points whose JSON form is the point itself."""
    return points.map(lambda p: (p, p))


def _complex(z):
    return [z.real, z.imag], z


# Each draws (space, strategy for (literal JSON, the point it names)).
SPACES = {
    "finite": st.integers(1, 6).flatmap(
        lambda n: _with_points(
            FiniteMetricSpace([[abs(i - j) for j in range(n)] for i in range(n)]),
            _same(st.integers(0, n - 1)),
        )
    ),
    "zd": st.integers(1, 4).flatmap(
        lambda d: _with_points(
            CayleyGraphSpace(Zd(d)),
            st.lists(st.integers(-6, 6), min_size=d, max_size=d).map(lambda xs: (xs, tuple(xs))),
        )
    ),
    "free": st.integers(1, 6).flatmap(
        lambda k: _with_points(CayleyGraphSpace(FreeGroup(k)), _free_word(k))
    ),
    "heisenberg": _with_points(
        CayleyGraphSpace(Heisenberg()),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3)).map(lambda g: (list(g), g)),
    ),
    "finite_group": st.integers(2, 9).flatmap(
        lambda n: _with_points(CayleyGraphSpace(cyclic_group(n)), _same(st.integers(0, n - 1)))
    ),
    "spoke_ray": _with_points(
        SR,
        st.one_of(
            st.just(({"kind": "hub"}, HUB)),
            FRACS(min_value=0, max_value=200).map(lambda t: ({"kind": "ray", "t": str(t)}, SR.ray_point(t))),
            st.integers(1, 50).map(lambda n: ({"kind": "head", "n": n}, SR.spoke_head(n))),
            st.integers(1, 20).flatmap(
                lambda n: FRACS(min_value=0, max_value=Fraction(2 * n - 1, 2)).map(
                    lambda s: ({"kind": "spoke", "n": n, "s": str(s)}, SR.spoke_interior(n, s))
                )
            ),
        ),
    ),
    "star_tree": _with_points(
        ST,
        st.one_of(
            st.just(({"kind": "hub"}, ST.base_point)),
            st.integers(1, 20).flatmap(
                lambda n: FRACS(min_value=0, max_value=n).map(
                    lambda s: ({"kind": "int", "n": n, "s": str(s)}, ST.interval_point(n, s))
                )
            ),
        ),
    ),
    "distorted_line": _with_points(DistortedLine("sqrt"), _same(COORD)),
    "poincare_disk": _with_points(
        PoincareDisk(), st.complex_numbers(max_magnitude=0.99, allow_subnormal=False).map(_complex)
    ),
    "half_plane": _with_points(
        UpperHalfPlane(), st.builds(complex, COORD, st.floats(1e-3, 1e3)).map(_complex)
    ),
    "lp": st.integers(1, 5).flatmap(
        lambda d: _with_points(
            LpSpace(3, d), st.lists(COORD, min_size=d, max_size=d).map(lambda xs: (xs, np.array(xs)))
        )
    ),
}


def _wire(obj):
    return json.loads(emit_json(obj))


def _same_point(p, q):
    if isinstance(p, np.ndarray):
        return isinstance(q, np.ndarray) and np.array_equal(p, q)
    return type(p) is type(q) and p == q


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(SPACES)), data=st.data())
def test_point_json_parses_every_space(kind, data):
    # The literal goes through the report writer and back, as a CLI flag would.
    space, pairs = data.draw(SPACES[kind])
    literal, p = data.draw(pairs)
    assert _same_point(point_from_json(space, _wire(literal)), p)


# ---------------------------------------------------------------------------
# Report emission: the same text as the stdlib encoder
# ---------------------------------------------------------------------------


class _Reported:
    """Any object with ``as_dict`` is written as the value it returns."""

    def __init__(self, body):
        self.body = body

    def as_dict(self):
        return self.body


@dataclasses.dataclass
class _Fields:
    """A dataclass with no ``as_dict`` is written as its fields, one level deep."""

    name: str
    value: Fraction
    inner: object = None


@dataclasses.dataclass
class _Keyed:
    """A dataclass whose fields use each metadata key of the writer."""

    hidden: object = dataclasses.field(metadata={"skip": True})
    renamed: object = dataclasses.field(metadata={"key": "name"})
    whole: object = dataclasses.field(default=None, metadata={"json": lambda v: {"was": v}})
    items: object = dataclasses.field(default=None, metadata={"each": lambda v: [v, Fraction(-1, 3)]})


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
TEXT = st.text(max_size=6) | st.sampled_from(["", '"', "\\", "\n\t\x00\x1f\x7f", "é", "☃", "\U0001d11e", "\ud800"])
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    FLOATS,
    TEXT,
    FRACS(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    FLOATS.map(np.float64),
    st.complex_numbers(),
    st.lists(FLOATS, max_size=3).map(np.array),
    st.lists(st.integers(-99, 99), max_size=3).map(np.array),
)
# the shapes the two fast paths take, and near misses that must not
LEAF_LISTS = st.one_of(
    st.lists(st.integers(), max_size=6),
    st.lists(st.integers(), max_size=6).map(tuple),
    st.lists(st.integers() | st.booleans(), max_size=6),
    st.lists(TEXT, max_size=6),
    st.lists(TEXT, max_size=6).map(tuple),
    st.lists(TEXT | st.integers(), max_size=6).map(tuple),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(st.integers() | FLOATS | st.booleans(), children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1),
        children.map(_Reported),
        children.map(lambda c: _Fields("x", Fraction(1, 3), c)),
        children.map(lambda c: _Keyed(object(), c, c, (c, None))),
    )


@st.composite
def _reports(draw):
    """A nested value in which one str tuple recurs at several depths."""
    shared = draw(st.lists(TEXT, min_size=1, max_size=4).map(tuple))
    leaves = st.one_of(SCALARS, LEAF_LISTS, st.just(shared))
    tree = draw(st.recursive(leaves, _containers, max_leaves=12))
    return [shared, {"deeper": [shared, tree]}, tree]


@settings(max_examples=150, deadline=None)
@given(_reports())
def test_emit_json_matches_stdlib_oracle(obj):
    assert emit_json(obj) == json_report(obj)


@pytest.mark.parametrize("obj", [{"x": object()}, {(1, 2): 0}, {1: 0, "a": 0}, [{1, 2}]])
def test_emit_json_rejects_what_stdlib_rejects(obj):
    with pytest.raises(TypeError):
        json_report(obj)
    with pytest.raises(TypeError):
        emit_json(obj)


def test_emit_json_converts_only_non_json_values(monkeypatch):
    """str, None, bools, ints and floats, subclasses such as np.float64
    included, are written as the stdlib writes them, never converted."""
    seen = []
    convert = serialize._default
    monkeypatch.setattr(serialize, "_default", lambda o: seen.append(o) or convert(o))
    natives = {"f": np.float64(0.1), "nan": np.float64("nan"), "xs": [1, True, None, "s", 2.5, -np.float64("inf")]}
    assert emit_json(natives) == json_report(natives)
    assert seen == []
    assert emit_json([np.int64(3), Fraction(1, 2)]) == json_report([np.int64(3), Fraction(1, 2)])
    assert len(seen) == 2


def test_emit_json_writes_a_dataclass_as_its_fields():
    plain = _Fields("a", Fraction(1, 2), [1, 2])
    assert emit_json(plain) == json_report(plain)
    assert json.loads(emit_json(plain)) == {"name": "a", "value": "1/2", "inner": [1, 2]}


def test_emit_json_writes_a_nested_as_dict_object_by_its_as_dict():
    table = RowTable({"radius": Fraction(1, 2), "order": ["e", "a"]}, np.array([[0, -1], [0, 1]]))
    nested = _Fields("outer", Fraction(3), table)
    assert emit_json(nested) == json_report(nested)
    assert json.loads(emit_json(nested))["inner"] == [{"radius": "1/2", "order": ["e", "a"], "values": [0, -1]},
                                                      {"radius": "1/2", "order": ["e", "a"], "values": [0, 1]}]
    deeper = _Fields("outer", Fraction(0), _Fields("inner", Fraction(2), None))
    assert emit_json(deeper) == json_report(deeper)
    assert json.loads(emit_json(deeper))["inner"] == {"name": "inner", "value": "2", "inner": None}


def test_emit_json_writes_a_dataclass_by_its_field_metadata():
    keyed = _Keyed(object(), Fraction(1, 2), np.int64(3), [1, None])
    assert emit_json(keyed) == json_report(keyed)
    assert json.loads(emit_json(keyed)) == {"name": "1/2", "whole": {"was": 3}, "items": [[1, "-1/3"], [None, "-1/3"]]}
    bare = _Keyed(object(), None)
    assert json.loads(emit_json(bare)) == {"name": None, "whole": None, "items": None}


def test_emit_json_does_not_write_a_dataclass_class():
    with pytest.raises(TypeError):
        json_report({"kind": _Fields})
    with pytest.raises(TypeError):
        emit_json({"kind": _Fields})


LABELS = st.lists(TEXT | st.sampled_from(["%", "%d", "%%s", "100%", '"%"', "\\%", "\u00e9%"]), min_size=1, max_size=8)


@st.composite
def _row_tables(draw):
    """A row table over an int16 or int64 matrix with negative values, 0 rows
    and 1 column included, with labels that carry %, quotes, backslashes and
    non-ASCII text."""
    labels = draw(LABELS)
    dtype = draw(st.sampled_from([np.int16, np.int64]))
    info = np.iinfo(dtype)
    rows = draw(st.integers(0, 5))
    cells = st.integers(int(info.min), int(info.max)) | st.integers(-3, 3)
    values = np.array(draw(st.lists(cells, min_size=rows * len(labels), max_size=rows * len(labels))), dtype=dtype)
    fields = {"radius": draw(st.integers(-2, 9)), "order": tuple(labels), "%": draw(TEXT)}
    return RowTable(fields, values.reshape(rows, len(labels)))


@settings(max_examples=150, deadline=None)
@given(_row_tables(), st.integers(0, 3))
def test_row_table_matches_stdlib_oracle(table, depth):
    """At the top and nested at other indents, alone and beside other values."""
    obj = table
    for _ in range(depth):
        obj = {"functionals": obj, "count": len(table.values), "rest": [table.fields]}
    assert emit_json(obj) == json_report(obj)


@pytest.mark.parametrize("shape", [(0, 3), (0, 1), (4, 1), (1, 1), (3, 0), (2, 3)])
def test_row_table_edge_shapes(shape):
    values = np.arange(-6, -6 + shape[0] * shape[1], dtype=np.int64).reshape(shape)
    table = RowTable({"radius": 0, "order": ("e%", "\u00e9", '"\\')[: shape[1]]}, values)
    for obj in (table, [table, table], {"r": {"functionals": table}}):
        assert emit_json(obj) == json_report(obj)
    assert (emit_json(table) == "[]") == (shape[0] == 0)


def test_row_table_memory_does_not_follow_the_span_of_its_values():
    # Four entries spanning 2^64 integers: a table of the text of every
    # integer from min to max would not fit in memory.
    values = np.array([[0, 10**6], [-(2**63), 2**63 - 1]], dtype=np.int64)
    table = RowTable({"radius": 1, "order": ("e", "a")}, values)
    tracemalloc.start()
    try:
        text = emit_json(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == json_report(table)
    assert peak < 2**20


@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize(
    "dtype, lo, n, cols",
    [
        (np.int16, -3, 12, 4),
        (np.int64, -3, 12, 4),
        (np.int16, int(np.iinfo(np.int16).min), 2**16 - 1, 5),
        (np.int64, -(2**63), 12, 4),
        (np.int64, 2**63 - 13, 12, 4),
    ],
)
def test_row_table_writes_values_by_offset_or_by_unique(monkeypatch, extra, dtype, lo, n, cols):
    # n entries spanning n integers are written from the texts of every
    # integer in the span, and n entries spanning n + 1 (one inner value
    # left out) from np.unique.  On int16's ends the offsets leave int16.
    values = list(range(lo, lo + n + extra))
    if extra:
        del values[n // 2]
    values = np.random.default_rng(n).permutation(np.array(values, dtype=dtype)).reshape(-1, cols)
    unique, calls = np.unique, []
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
    table = RowTable({"radius": 0, "order": tuple("eabcd"[:cols])}, values)
    assert emit_json(table) == json_report(table)
    assert len(calls) == extra


def test_h3_boundary_report_matches_stdlib_oracle(capsys):
    """H3, r = 3, R = 8, window 3: 1,110 functionals sharing their label
    tuples, a 2.4 MB report."""
    assert main(["boundary", "--group", "heisenberg", "--r", "3", "--rmax", "8", "--window", "3"]) == 0
    family = Heisenberg()
    lrs = limit_restrictions(family, GeneratingSet.standard(family), 3, 8, 3)
    assert lrs.values.shape[0] == 1110
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "boundary",
        "config": {"group": "heisenberg", "dim": 2, "rank": 2, "r": 3, "rmax": 8, "window": 3},
        "result": {"restrictions": lrs, "unboundedness": unboundedness_check(lrs)},
    }
    out, expected = capsys.readouterr().out, json_report(report) + "\n"
    if out != expected:  # no bare assert: pytest's diff of two 2.4 MB texts takes minutes
        at = len(os.path.commonprefix([out, expected]))
        pytest.fail(f"report differs from the oracle at line {out.count(chr(10), 0, at) + 1}")


# ---------------------------------------------------------------------------
# Report classes: each as the literal dict its fields are written as
# ---------------------------------------------------------------------------

_MISMATCH = ("restriction_mismatch", (1,), Fraction(1, 2), 0)
_WITNESS = FailureWitness(Fraction(3), "head(2)", Fraction(1, 2), 0, Fraction(1, 2))
_WITNESS_DICT = {"stage": "3", "point": "head(2)", "value_at_stage": "1/2", "limit_value": 0, "gap": "1/2"}
REPORTS = [
    (
        FixedPointAuditReport(False, Fraction(3, 2), Fraction(5, 2), 7, (1, 2)),
        {"passed": False, "bound": 1.5, "worst": 2.5, "checked": 7, "violating": "(1, 2)"},
    ),
    (FixedPointAuditReport(True, 2, 0, 4), {"passed": True, "bound": 2.0, "worst": 0.0, "checked": 4, "violating": None}),
    (
        TauReport(3, [0, 2, 3, 3], 1, Fraction(2, 3), [2, Fraction(3, 2), 1], Fraction(1, 4)),
        {"n": 3, "estimate": 1.0, "bound": 0.6666666666666666, "bound_trace": [2.0, 1.5, 1.0], "closed_form": 0.25},
    ),
    (TauReport(1, [0, 1], 1.0, 1.0, [1.0]), {"n": 1, "estimate": 1.0, "bound": 1.0, "bound_trace": [1.0], "closed_form": None}),
    (
        DisplacementReport(Fraction(1, 2), (1, -1), [1, Fraction(1, 2)]),
        {"bound": 0.5, "argmin": "(1, -1)", "trace": [1.0, 0.5]},
    ),
    (DisplacementReport(0, "e", []), {"bound": 0.0, "argmin": "e", "trace": []}),
    (
        TracialReport(0.5, 0.25, 0.25, 1.0, True, Fraction(1, 8)),
        {"estimate_fg": 0.5, "estimate_gf": 0.25, "estimate_gap": 0.25, "proof_bound": 1.0, "passed": True,
         "closed_form_gap": 0.125},
    ),
    (
        TracialReport(0.5, 0.5, 0.0, 1.0, True),
        {"estimate_fg": 0.5, "estimate_gf": 0.5, "estimate_gap": 0.0, "proof_bound": 1.0, "passed": True,
         "closed_form_gap": None},
    ),
    (
        AlmostFixedReport(object(), Fraction(1, 4), False, 0.5, 9, True),
        {"displacement_bound": 0.25, "audit_passed": False, "audit_worst": 0.5, "audit_checked": 9, "equality_mode": True},
    ),
    (
        RestrictionAudit(False, 3, Fraction(1, 3), _MISMATCH),
        {"passed": False, "checked": 3, "worst": 0.3333333333333333,
         "failure": ["restriction_mismatch", "(1,)", "1/2", "0"]},
    ),
    (RestrictionAudit(True, 5, 0), {"passed": True, "checked": 5, "worst": 0.0, "failure": None}),
    (
        FailureReport("spoke_ray", Fraction(3, 2), [_WITNESS], [("hub", 0), ("head(2)", 3)]),
        {"space": "spoke_ray", "r": "3/2", "witnesses": [_WITNESS_DICT],
         "pointwise_stabilization": [{"point": "hub", "stage": 0}, {"point": "head(2)", "stage": 3}]},
    ),
    (FailureReport("star_tree", 2, [], []), {"space": "star_tree", "r": 2, "witnesses": [], "pointwise_stabilization": []}),
    (
        ZeroObstructionReport(True, 5, Fraction(1), True, False),
        {"passed": True, "grid": 5, "min_of_max": "1", "outside_identity": True, "inside_identity": False},
    ),
    (
        ZeroObstructionReport(False, 0, 0.5, False, True),
        {"passed": False, "grid": 0, "min_of_max": 0.5, "outside_identity": False, "inside_identity": True},
    ),
    (
        MetricReport(False, 3, 3, 27, Fraction(1, 2), ("triangle", (0, 1), Fraction(1, 2), 2)),
        {"passed": False, "points": 3, "pairs": 3, "triples": 27, "failure": ["triangle", "(0, 1)", "1/2", "2"]},
    ),
    (MetricReport(True, 2, 1, 8, 0), {"passed": True, "points": 2, "pairs": 1, "triples": 8, "failure": None}),
    (
        DistortionReport(False, 4, ("ratio_increasing", 0.5, 1.0)),
        {"passed": False, "grid": 4, "failure": ["ratio_increasing", "0.5", "1.0"]},
    ),
    (DistortionReport(True, 4), {"passed": True, "grid": 4, "failure": None}),
]


@pytest.mark.parametrize("report, literal", REPORTS, ids=lambda v: type(v).__name__ if not isinstance(v, dict) else "")
def test_report_is_written_as_its_literal_dict(report, literal):
    text = emit_json(report)
    assert text == json_report(literal)
    assert text == json_report(report)
    assert emit_json({"result": [report]}) == json_report({"result": [literal]})
