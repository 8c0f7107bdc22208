import itertools
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import horokit.metric as metric
import oracles
from horokit.errors import (
    InvalidParameterError,
    InvalidSpaceError,
    PreconditionError,
    ResourceLimitError,
)
from horokit.extension import PartialFunctional
from horokit.functionals import BallFunctional
from horokit.groups import CayleyGraphSpace, FiniteGroup, FreeGroup, GeneratingSet, Heisenberg, Zd, cayley_ball, cyclic_group
from horokit.metric import (
    FiniteMetricSpace,
    MetricSpace,
    exact_table,
    first_axiom_violation,
    first_lipschitz_violation,
    first_triangle_violation,
    numeric_arrays,
    validate_metric,
)
from horokit.spaces import PoincareDisk, SpokeRaySpace, StarTreeSpace, UpperHalfPlane

from oracles import bfs_ball, random_rational_metric


def test_first_failure_is_the_audits_stop_and_count_rule():
    # Items are walked in order: an item whose gap is None (an outcome that
    # did not stabilize) stops the walk uncounted; any other is counted, the
    # largest gap kept, and the first gap above the limit stops it.
    gaps = {"a": 1, "b": 3, "c": None, "d": 5}
    assert metric.first_failure("abd", gaps.get, 5) == (3, 5, None, None)
    assert metric.first_failure("abd", gaps.get, 2) == (2, 3, "b", 3)
    assert metric.first_failure("dab", gaps.get, 4) == (1, 5, "d", 5)
    assert metric.first_failure("acd", gaps.get, 0) == (1, 1, "a", 1)
    assert metric.first_failure("acd", gaps.get, 9) == (1, 1, "c", None)
    assert metric.first_failure("cab", gaps.get, 9) == (0, 0, "c", None)
    assert metric.first_failure("", gaps.get, 0) == (0, 0, None, None)
    # A NaN gap is counted, is never the worst and never above the limit.
    assert metric.first_failure("ab", lambda _: math.nan, 0) == (2, 0, None, None)


def test_triangle_violation_reported():
    with pytest.raises(InvalidSpaceError, match="triangle"):
        FiniteMetricSpace([[0, 1, 3], [1, 0, 1], [3, 1, 0]])


def test_finite_space_reads_an_array_matrix():
    D = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    for matrix in (np.array(D), np.array(D, dtype=float) / 2):
        space = FiniteMetricSpace(matrix)
        assert [[space.distance(i, j) for j in range(3)] for i in range(3)] == matrix.tolist()


def test_single_point_space_passes():
    space = FiniteMetricSpace([[0]])
    assert validate_metric(space).passed


def test_z2_ball_matrix_is_a_metric():
    # 13-point ball B(2) of Z^2 under l1, distances from an independent BFS
    z2 = Zd(2)
    dist = bfs_ball(z2.identity(), z2.standard_generators(), z2._mul, 8)
    pts = sorted(p for p in dist if dist[p] <= 2)
    assert len(pts) == 13
    matrix = [[Fraction(sum(abs(a - b) for a, b in zip(p, q))) for q in pts] for p in pts]
    space = FiniteMetricSpace(matrix)  # constructor checks all triples
    assert validate_metric(space).passed


def test_finite_space_reads_every_entry_type_exactly():
    # Off-diagonal entries in [1/2, 1] make a metric; a denominator of 2^63
    # puts the matrix past int64, into Python ints.
    for wide in (0.75, Fraction(2**62 + 1, 2**63)):
        entries = [[0, 0.5, "2/3", Fraction(5, 7)], [0.5, 0, "1/2", 1],
                   ["2/3", "1/2", 0, wide], [Fraction(5, 7), 1, wide, 0]]
        space = FiniteMetricSpace(entries)
        for i, row in enumerate(entries):
            for j, v in enumerate(row):
                d = space.distance(i, j)
                assert type(d) is Fraction and d == Fraction(v)
    assert space._D.dtype == object


@pytest.mark.parametrize("seed", range(4))
def test_draw_indices_matches_randrange(seed):
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits
    ns = [*range(1, 71), *(2**k + e for k in range(1, 32) for e in (-1, 0, 1)), 2**40 + 3]
    for n in ns:
        for m in (0, 1, 3, 40):
            rng, ref = random.Random(f"{seed}/{n}/{m}"), random.Random(f"{seed}/{n}/{m}")
            got = metric.draw_indices(rng, n, m)
            assert got.dtype == np.intp and got.tolist() == [ref.randrange(n) for _ in range(m)]
            assert rng.getstate() == ref.getstate()
    assert metric.draw_indices(random.Random(seed), 0, 0).tolist() == []
    with pytest.raises(ValueError):
        metric.draw_indices(random.Random(seed), 0, 1)


def test_asymmetric_matrix_rejected():
    with pytest.raises(InvalidSpaceError, match="asymmetric"):
        FiniteMetricSpace([[0, 1], [2, 0]])


def test_negative_distance_rejected():
    with pytest.raises(InvalidSpaceError, match="negative"):
        FiniteMetricSpace([[0, -1], [-1, 0]])


def _point_functional(space, x):
    """h_x(y) = d(y, x) - d(x0, x) as ``functional_rows`` reads it."""
    rows = space.functional_rows([x], space.base_point)

    def h(y):
        M, den = rows([y], np.arange(1))
        return Fraction(int(M[0, 0]), den) if space.exact else float(M[0, 0])

    return h


def test_point_functional_values():
    h = _point_functional(CayleyGraphSpace(Zd(1)), (5,))
    assert h((0,)) == 0  # vanishes at the base point
    assert h((5,)) == -5  # equals -d(x0, x) at the anchor
    assert h((3,)) == -3


def test_point_functional_bounds_on_disk():
    disk = PoincareDisk()
    x, y = 0.9, 0.5j
    val = _point_functional(disk, x)(y)
    assert val == disk.distance(y, x) - disk.distance(0j, x)
    assert abs(val) <= disk.distance(0j, y) + 1e-12


def test_point_functional_lipschitz_samples():
    rng = random.Random(3)
    for space in (CayleyGraphSpace(Zd(2)), SpokeRaySpace(), UpperHalfPlane()):
        pts = space.sample_points(rng, 12)
        tol = 0 if space.exact else 1e-12
        for x in pts[:4]:
            h = _point_functional(space, x)
            for y in pts:
                for z in pts:
                    assert abs(h(y) - h(z)) <= space.distance(y, z) + tol
                assert abs(h(y)) <= space.distance(space.base_point, y) + tol


@pytest.mark.parametrize(
    "space",
    [
        CayleyGraphSpace(Zd(1)),
        CayleyGraphSpace(Zd(2)),
        CayleyGraphSpace(FreeGroup(2)),
        CayleyGraphSpace(Heisenberg()),
        SpokeRaySpace(),
        StarTreeSpace(),
        PoincareDisk(),
        UpperHalfPlane(),
    ],
    ids=lambda s: type(s).__name__ + getattr(getattr(s, "family", None), "name", ""),
)
def test_builtin_spaces_validate(space):
    report = validate_metric(space, max_triples=2_000)
    assert report.passed, report.failure


def _standard_ball(family, r):
    return cayley_ball(family, GeneratingSet.standard(family), r)


def test_ball_sizes():
    for family, r, size in ((Zd(1), 3, 7), (FreeGroup(2), 2, 17), (Zd(2), 2, 13)):
        ball = _standard_ball(family, r)
        assert ball.sphere_offsets[-1] == sum(len(ball.sphere(n)) for n in range(r + 1)) == size


def test_ball_canonical_order_and_distances():
    ball = _standard_ball(Zd(1), 2)
    assert [g for n in range(3) for g in ball.sphere(n)] == [(0,), (-1,), (1,), (-2,), (2,)]
    assert np.repeat(np.arange(3), np.diff(ball.sphere_offsets)).tolist() == [0, 1, 1, 2, 2]


def test_ball_limit(monkeypatch):
    monkeypatch.setenv("HOROKIT_MAX_BALL", "100")
    with pytest.raises(ResourceLimitError):
        _standard_ball(FreeGroup(2), 8)


class _Oracle(MetricSpace):
    """A plain space on the integers 0..11 whose distance is the given
    function: ``distance_block`` is the default, which reads ``distance``."""

    def __init__(self, dist, exact=True):
        self.dist, self.exact = dist, exact

    @property
    def base_point(self):
        return 0

    def distance(self, p, q):
        return self.dist(p, q)

    def sample_points(self, rng, count):
        return [rng.randrange(12) for _ in range(count)]


def test_bad_distance_oracle_reported():
    # A plain subclass: a space that overrides ``distance`` over an inherited
    # closed-form ``distance_block`` must override that block too.
    broken = _Oracle(lambda p, q: Fraction(-1) if p != q else Fraction(0))
    report_error = None
    try:
        validate_metric(broken, max_triples=50)
    except InvalidSpaceError as exc:
        report_error = str(exc)
    assert report_error is not None and "negative" in report_error


def test_nan_distance_reported():
    space = _Oracle(lambda p, q: math.nan if {p, q} == {2, 9} else float(abs(p - q)), exact=False)
    with pytest.raises(InvalidSpaceError, match="^non-finite distance for pair"):
        validate_metric(space, max_triples=50)


@pytest.mark.parametrize("seed", range(4))
def test_self_distance_failure_reports_no_pairs(seed):
    space = _Oracle(lambda p, q: abs(p - q) + (p == q == 5))
    pts = space.sample_points(random.Random(seed), 48)
    report = validate_metric(space, max_triples=50, seed=seed)
    assert not report.passed
    assert report.failure == ("self_distance", 5) and 5 in pts
    assert (report.pairs_checked, report.triples_checked) == (0, 0)


@pytest.mark.parametrize("tol, passed", [(Fraction(1, 3), True), (Fraction(1, 4), False),
                                         (Fraction(1, 3) - Fraction(1, 10**30), False)])
def test_validate_metric_reads_exact_tolerances_exactly(tol, passed):
    space = _Oracle(lambda p, q: abs(p - q) + Fraction((p, q) == (3, 7), 3))
    assert {3, 7} <= set(space.sample_points(random.Random(0), 48))
    report = validate_metric(space, max_triples=500, tol=tol)
    assert report.passed == passed
    assert passed or report.failure[0] == "symmetry"


@pytest.mark.parametrize("seed", range(4))
def test_symmetry_failure_reports_the_pairs_up_to_it(seed):
    space = _Oracle(lambda p, q: abs(p - q) + ((p, q) == (3, 7)))
    pts = space.sample_points(random.Random(seed), 48)
    pairs = itertools.combinations(range(48), 2)
    count, (a, b) = next((c, (a, b)) for c, (a, b) in enumerate(pairs, 1) if {pts[a], pts[b]} == {3, 7})
    report = validate_metric(space, max_triples=50, seed=seed)
    assert not report.passed
    assert report.failure == ("symmetry", pts[a], pts[b])
    assert (report.pairs_checked, report.triples_checked) == (count, 0)


def test_finite_space_ball_scan():
    # The points within 1 of the base point, read off its row of one block.
    space = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    D, den = space.distance_block(space.points())([space.base_point], np.arange(3))
    assert np.flatnonzero(D[0] <= den).tolist() == [0, 1]


def test_ball_spheres_match_independent_bfs():
    for family, r in ((Zd(2), 3), (FreeGroup(2), 3), (Heisenberg(), 2)):
        gens = CayleyGraphSpace(family).gens.elements
        dist = bfs_ball(family.identity(), gens, family._mul, r)
        expected = sorted(dist.items(), key=lambda t: (t[1], family.element_key(t[0])))
        ball = _standard_ball(family, r)
        assert [(g, n) for n in range(r + 1) for g in ball.sphere(n)] == expected


def test_ball_limit_reports_radius_reached(monkeypatch):
    monkeypatch.setenv("HOROKIT_MAX_BALL", "100")
    with pytest.raises(ResourceLimitError) as exc:
        _standard_ball(FreeGroup(2), 8)
    assert exc.value.radius_reached == 3  # |B(3)| = 53 <= 100 < |B(4)| = 161


S3_PERMS = sorted(itertools.permutations(range(3)))
S3_TABLE = [[S3_PERMS.index(tuple(p[i] for i in q)) for q in S3_PERMS] for p in S3_PERMS]


@pytest.mark.parametrize(
    "family, points",
    [
        (FiniteGroup(S3_TABLE, [1, 2]), 6),  # two transpositions generate S3
        (cyclic_group(12, step=3), 4),  # 3 generates the subgroup {0, 3, 6, 9}
    ],
    ids=["S3", "C12-step-3"],
)
def test_validate_metric_checks_a_finite_cayley_graph_exhaustively(family, points):
    # every element the generators reach, each pair and each triple once,
    # however many triples were asked for
    report = validate_metric(CayleyGraphSpace(family), max_triples=40, seed=2)
    assert report.passed
    assert report.points_checked == points
    assert report.pairs_checked == points * (points - 1) // 2
    assert report.triples_checked == points**3


def test_negative_triple_count_rejected():
    with pytest.raises(PreconditionError):
        validate_metric(CayleyGraphSpace(Zd(2)), max_triples=-5)


# ---------------------------------------------------------------------------
# The checker against the brute-force loops in oracles.py
# ---------------------------------------------------------------------------

# ints, Fractions with mixed denominators, Fractions too large for int64
# once scaled, and floats
KINDS = ("int", "fraction", "huge", "float")
EXACT_KINDS = KINDS[:3]
CHUNKS = st.sampled_from([1, 5, 64, metric.CHUNK])


@contextmanager
def chunk_size(size):
    """Run the checker with small chunks, so that inputs span many."""
    old = metric.CHUNK
    metric.CHUNK = size
    try:
        yield
    finally:
        metric.CHUNK = old


def _unit(kind):
    return {"int": 1, "fraction": Fraction(1, 3), "huge": Fraction(2**70, 7), "float": 1.0}[kind]


def _recast(kind, v):
    if kind == "int":
        return int(v)
    if kind == "float":
        return float(v)
    return v * _unit(kind) if kind == "huge" else v


def _metric(rng, kind, n):
    m = random_rational_metric(rng, n, integral=kind in ("int", "huge"))
    return [[_recast(kind, v) for v in row] for row in m]


def _corrupt(rng, kind, M, count):
    """Move ``count`` random entries by a few units, or negate or zero them."""
    for _ in range(count):
        i, j = rng.randrange(len(M)), rng.randrange(len(M[0]))
        how = rng.randrange(3)
        if how == 0:
            M[i][j] = M[i][j] + rng.choice([-2, -1, 1, 2]) * _unit(kind)
        elif how == 1:
            M[i][j] = -M[i][j]
        else:
            M[i][j] = 0 * _unit(kind)
    return M


def _tol(rng, kind):
    return rng.choice([0.0, 1e-10]) if kind == "float" else rng.choice([0, Fraction(1, 3)])


def test_numeric_arrays_scaling():
    D, tol = numeric_arrays([[0, Fraction(1, 2)], [Fraction(1, 3), 0]], tol=Fraction(1, 4))
    assert D.dtype == np.int64 and D.tolist() == [[0, 6], [4, 0]] and tol == 3
    D, _ = numeric_arrays([[0, Fraction(2**70, 7)]])
    assert D.dtype == object and D.tolist() == [[0, 2**70]]
    D, tol = numeric_arrays([[0, Fraction(1, 2)]], tol=1e-12)
    assert D.dtype == np.float64 and tol == 1e-12
    M, den = exact_table([[1 - 2**61, 3]])
    assert M.dtype == np.int64 and M.tolist() == [[1 - 2**61, 3]] and den == 1
    wide, den = exact_table([[-(2**61), 3]])
    assert wide.dtype == object and wide.tolist() == [[-(2**61), 3]] and den == 1
    # the denominator reaches 2^61 too, though the integers stay small
    M, den = exact_table([[0, Fraction(1, 2**61)]])
    assert M.dtype == object and M.tolist() == [[0, 1]] and den == 2**61
    M, den = exact_table([[0, Fraction(1, 2**61 - 1)], [Fraction(2, 3), 1]])
    assert M.dtype == object and den == 3 * (2**61 - 1)  # two denominators below 2^61, their lcm above
    M, den = exact_table([[Fraction(1, 2), 3], [Fraction(-5, 6), 0]])
    assert M.dtype == np.int64 and M.tolist() == [[3, 18], [-5, 0]] and den == 6
    assert exact_table([])[0].shape == (0,)
    # NumPy ints are read as Python ints: an int64 2^60 scaled by 8 would wrap.
    V, D, tol = numeric_arrays([[0, Fraction(1, 8)]], np.array([[0, 2**60], [2**60, 0]]))
    assert D.dtype == object and D.tolist() == [[0, 2**63], [2**63, 0]]
    assert V.tolist() == [[0, 1]] and tol == 0
    V, D, tol = numeric_arrays([[np.int64(0), np.int64(1)]], [[0, 1], [1, 0]], tol=np.int64(1))
    assert V.dtype == D.dtype == np.int64 and tol == 1 and type(tol) is int


# Entries of every form exact_table reads, several of them one value spelt
# differently (1, True, "1", 1.0, "2/2"; 0 and -0.0), and entries that
# Fraction() rejects, each with its own exception.
TABLE_ENTRIES = [0, 1, True, -3, 2**62, 1.0, -0.0, 0.5, 0.1, Fraction(1, 2), Fraction(-7, 3), Fraction(1, 2**62),
                 "1", "2/2", "1/2", "2/4", "0", "10/6", "0.5", "-1/2", " 3 ", "+1", "١/٢"]
BAD_ENTRIES = ["x", "1/0", "", "1/-2", None, float("nan"), float("inf")]


def _raised(make):
    """What make() returns, or the class and text of what it raises."""
    try:
        return make()
    except Exception as exc:
        return "raised", type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 5), m=st.integers(1, 5), bad=st.integers(0, 3))
def test_exact_table_reads_each_distinct_entry_as_fraction_does(data, n, m, bad):
    """The one read per distinct entry gives the table of reading every entry
    by Fraction(v), or the exception of the first entry it rejects in
    row-major order, also when that entry repeats."""
    rows = [[data.draw(st.sampled_from(TABLE_ENTRIES)) for _ in range(m)] for _ in range(n)]
    for _ in range(bad if n else 0):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))
        rows[i][j] = data.draw(st.sampled_from(BAD_ENTRIES))
    want = _raised(lambda: [[Fraction(v) for v in row] for row in rows])
    got = _raised(lambda: exact_table(rows))
    if isinstance(want, tuple):
        assert got == want
        return
    M, den = got
    assert den == math.lcm(*(v.denominator for row in want for v in row))
    table = [[int(v * den) for v in row] for row in want]
    assert M.tolist() == (table if n else [])
    assert M.dtype == (object if max(den, *map(abs, sum(table, [0]))) >= 2**61 else np.int64)


def test_exact_table_reads_a_table_holding_a_fraction_per_entry(monkeypatch):
    # Fraction's hash is Python code: such a table is read without hashing an entry.
    monkeypatch.setattr(Fraction, "__hash__", None)
    M, den = exact_table([[Fraction(1, 2), "1/3", 1], ["1/3", Fraction(1, 2), 1]])
    assert (M.tolist(), den) == ([[3, 2, 6], [2, 3, 6]], 6)


def test_exact_table_names_the_first_bad_entry_in_row_major_order():
    for rows, bad in [
        ([["0", "x"], ["y", "x"]], "x"),
        ([["0", "1/2"], ["y", "y"]], "y"),  # a repeated bad entry after good ones
        ([["0", "1/2", "x"], ["1/2", "0", "1/0"], ["x", "1/0", "0"]], "x"),
        ([["1/0", None], [None, "1/0"]], "1/0"),
        ([[0, 1], [None, 0]], None),
    ]:
        assert _raised(lambda: exact_table(rows)) == _raised(lambda: Fraction(bad))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(KINDS),
    n=st.integers(1, 7),
    count=st.integers(0, 3),
)
def test_axiom_checker_matches_brute_force(seed, kind, n, count):
    rng = random.Random(seed)
    D = _corrupt(rng, kind, _metric(rng, kind, n), count)
    tol = _tol(rng, kind)
    assert first_axiom_violation(*numeric_arrays(D, tol=tol)) == oracles.first_axiom_violation(D, tol)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(KINDS),
    n=st.integers(1, 7),
    count=st.integers(0, 2),
    chunk=CHUNKS,
)
def test_triangle_checker_matches_brute_force(seed, kind, n, count, chunk):
    rng = random.Random(seed)
    D = _corrupt(rng, kind, _metric(rng, kind, n), count)
    tol = _tol(rng, kind)
    triples = [[rng.randrange(n) for _ in range(3)] for _ in range(rng.randrange(80))]
    Dn, t = numeric_arrays(D, tol=tol)
    with chunk_size(chunk):
        assert first_triangle_violation(Dn, t) == oracles.first_triangle_violation(D, tol)
        assert first_triangle_violation(Dn, t, triples) == oracles.first_triangle_violation(
            D, tol, triples
        )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(KINDS),
    n=st.integers(1, 7),
    rows=st.integers(1, 12),
    count=st.integers(0, 3),
    chunk=CHUNKS,
)
def test_lipschitz_checker_matches_brute_force(seed, kind, n, rows, count, chunk):
    rng = random.Random(seed)
    D = _metric(rng, kind, n)
    # point functionals d(., x) - d(x0, x): 1-Lipschitz and 0 at index 0
    V = [[D[y][x] - D[0][x] for y in range(n)] for x in rng.choices(range(n), k=rows)]
    _corrupt(rng, kind, V, count)
    _corrupt(rng, kind, D, rng.randrange(2))
    tol = _tol(rng, kind)
    Vn, Dn, t = numeric_arrays(V, D, tol=tol)
    with chunk_size(chunk):
        assert first_lipschitz_violation(Vn, Dn, t) == oracles.first_lipschitz_violation(V, D, tol)


def test_lipschitz_check_does_not_wrap_in_int16():
    # 0 - (-32768) wraps to -32768 in int16, and np.abs leaves it negative.
    V = np.array([[0, -32768]], np.int16)
    assert first_lipschitz_violation(V, np.array([[0, 1], [1, 0]])) == (0, 0, 1)
    assert first_lipschitz_violation(V, np.array([[0, 1], [1, 0]], np.int16)) == (0, 0, 1)


def _extremes(dtype):
    info = np.iinfo(dtype)
    edges = [info.min, info.min + 1, -2, -1, 0, 1, 2, info.max - 1, info.max]
    return st.sampled_from(edges) | st.integers(int(info.min), int(info.max))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    vtype=st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
    dtype=st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
    n=st.integers(1, 5),
    rows=st.integers(1, 6),
    chunk=CHUNKS,
)
def test_lipschitz_check_at_extreme_values_matches_brute_force(data, vtype, dtype, n, rows, chunk):
    # Values and distances at the ends of each integer type; the oracle
    # subtracts Python ints, so no difference wraps there.
    V, D = _extreme_rows(data, vtype, dtype, n, rows)
    with chunk_size(chunk):
        got = first_lipschitz_violation(np.array(V, vtype), np.array(D, dtype))
    assert got == oracles.first_lipschitz_violation(V, D)


def _extreme_rows(data, vtype, dtype, n, rows):
    """Value rows of vtype and a symmetric distance matrix of dtype, both
    drawn with the ends of their types."""
    draw_row = st.lists(_extremes(vtype), min_size=n - 1, max_size=n - 1)
    V = [[data.draw(st.sampled_from([0, 0, 0, 1, -1]))] + data.draw(draw_row) for _ in range(rows)]
    upper = data.draw(st.lists(_extremes(dtype).map(abs).filter(lambda v: v <= np.iinfo(dtype).max),
                               min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    D = [[0] * n for _ in range(n)]
    for (i, j), v in zip(itertools.combinations(range(n), 2), upper):
        D[i][j] = D[j][i] = v
    return V, D


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    vtype=st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
    dtype=st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
    n=st.integers(1, 6),
    rows=st.integers(1, 6),
    chunk=CHUNKS,
)
def test_lipschitz_check_on_a_pair_set_matches_brute_force(data, vtype, dtype, n, rows, chunk):
    # A random sorted subset of the pairs i < j, compared in its order, as
    # the boundary compares the kept pairs of B(r).
    V, D = _extreme_rows(data, vtype, dtype, n, rows)
    every = list(itertools.combinations(range(n), 2))
    keep = data.draw(st.lists(st.booleans(), min_size=len(every), max_size=len(every)))
    pairs = [p for p, k in zip(every, keep) if k]
    with chunk_size(chunk):
        got = first_lipschitz_violation(np.array(V, vtype), np.array(D, dtype),
                                        pairs=tuple(np.array(pairs, np.intp).reshape(-1, 2).T))
    assert got == oracles.first_lipschitz_violation(V, D, pairs=pairs)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(EXACT_KINDS),
    n=st.integers(1, 7),
    count=st.integers(0, 2),
)
def test_finite_space_reports_the_first_violation(seed, kind, n, count):
    rng = random.Random(seed)
    D = _corrupt(rng, kind, _metric(rng, kind, n), count)
    hit = oracles.first_axiom_violation(D)
    pos = oracles.first_triangle_violation(D) if hit is None else None
    if hit is None and pos is None:
        space = FiniteMetricSpace(D)
        assert [[space.distance(i, j) for j in range(n)] for i in range(n)] == D
        return
    if hit is None:
        i, j, k = pos // (n * n), pos // n % n, pos % n
        expected = f"triangle inequality fails at triple ({i}, {j}, {k})"
    elif hit[0] == "diagonal":
        expected = f"nonzero diagonal at point {hit[1]}"
    else:
        expected = f"{hit[0]} distance at pair ({hit[1]}, {hit[2]})"
    with pytest.raises(InvalidSpaceError) as exc:
        FiniteMetricSpace(D)
    assert str(exc.value) == expected


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), count=st.integers(0, 2))
def test_partial_functional_reports_the_first_pair(seed, n, count):
    rng = random.Random(seed)
    matrix = random_rational_metric(rng, n)
    space = FiniteMetricSpace(matrix)
    domain = rng.sample(range(n), rng.randrange(1, n + 1))
    anchor = rng.randrange(n)
    values = [matrix[p][anchor] - matrix[0][anchor] for p in domain]
    for _ in range(count):
        values[rng.randrange(len(values))] += Fraction(rng.choice([-3, -1, 1, 3]), rng.randrange(1, 4))
    D = [[matrix[p][q] for q in domain] for p in domain]
    hit = oracles.first_lipschitz_violation([[v - values[0] for v in values]], D)
    if hit is None:
        assert PartialFunctional(space, domain, values).values == values
        return
    _, i, j = hit
    with pytest.raises(InvalidParameterError) as exc:
        PartialFunctional(space, domain, values)
    assert str(exc.value) == (
        f"not 1-Lipschitz on pair ({domain[i]!r}, {domain[j]!r}): "
        f"|{values[i]} - {values[j]}| > {D[i][j]}"
    )


def _l1(p, q):
    return sum(abs(a - b) for a, b in zip(p, q))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 2))
def test_ball_functional_check_reports_the_first_failure(seed, count):
    rng = random.Random(seed)
    points = list(_standard_ball(Zd(2), 2).ball(2))
    labels = [str(p) for p in points]
    anchor = (rng.randrange(-6, 7), rng.randrange(-6, 7))
    values = [_l1(p, anchor) - _l1(points[0], anchor) for p in points]
    for _ in range(count):
        values[rng.randrange(len(values))] += rng.choice([-2, -1, 1, 2])
    D = [[_l1(p, q) for q in points] for p in points]
    hit = oracles.first_lipschitz_violation([values], D)
    bf = BallFunctional(2, tuple(labels), tuple(values), tuple(points))
    if hit is None:
        bf.check(_l1)
        return
    _, i, j = hit
    with pytest.raises(InvalidParameterError) as exc:
        bf.check(_l1)
    if i == j:
        assert str(exc.value) == "value at the base point must be 0"
    else:
        assert str(exc.value) == f"restriction is not 1-Lipschitz on pair ({labels[i]}, {labels[j]})"


class _Planted(MetricSpace):
    """|p - q| on the integers 0..11, except one pair pushed further apart,
    which breaks the triangle inequality through any point between them."""

    exact = True

    def __init__(self, a, b, bump):
        self.pair, self.bump = {a, b}, bump

    @property
    def base_point(self):
        return 0

    def distance(self, p, q):
        return abs(p - q) + (self.bump if {p, q} == self.pair and p != q else 0)

    def sample_points(self, rng, count):
        return [rng.randrange(12) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    a=st.integers(0, 11),
    b=st.integers(0, 11),
    bump=st.integers(0, 3),
    max_triples=st.integers(0, 3000),
)
def test_validate_metric_reports_the_first_drawn_violation(seed, a, b, bump, max_triples):
    space = _Planted(a, b, bump)
    pts = space.sample_points(random.Random(seed), 48)
    D = [[space.distance(p, q) for q in pts] for p in pts]
    rng = random.Random(seed)
    draws = [[rng.randrange(48) for _ in range(3)] for _ in range(max_triples)]
    pos = oracles.first_triangle_violation(D, 0, [(p, r, q) for p, q, r in draws])
    report = validate_metric(space, max_triples=max_triples, seed=seed)
    assert report.pairs_checked == 48 * 47 // 2
    if pos is None:
        assert report.passed and report.failure is None
        assert report.triples_checked == max_triples
    else:
        p, q, r = draws[pos]
        assert not report.passed
        assert report.failure == ("triangle", pts[p], pts[q], pts[r])
        assert report.triples_checked == pos + 1
