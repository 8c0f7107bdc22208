import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horokit.dynamics import MoebiusMap
from horokit.errors import InvalidDistortionError, InvalidParameterError, InvalidPointError
from horokit.groups import CayleyGraphSpace, FreeGroup, Heisenberg, Zd, cyclic_group
from horokit.metric import FiniteMetricSpace, rational_field, validate_metric
from horokit.spaces import (
    DISTORTIONS,
    DistortedLine,
    DistortionReport,
    HUB,
    LpSpace,
    PoincareDisk,
    SpokeRaySpace,
    StarTreeSpace,
    UpperHalfPlane,
    cayley_to_disk,
    cayley_to_half_plane,
    distorted_line_validate,
    lp_norm,
)

from oracles import (
    disk_distance,
    half_plane_distance,
    random_rational_metric,
    spoke_ray_graph_distance,
    star_tree_distance,
)

SR = SpokeRaySpace()
ST = StarTreeSpace()


@pytest.mark.parametrize("x,want", [
    (1e-13, Fraction(1, 10**13)),
    (0.3333333333333, Fraction(3333333333333, 10**13)),
    (0.1, Fraction(1, 10)),
    (2.5, Fraction(5, 2)),
    (1e22, Fraction(10**22)),
])
def test_rational_field_reads_a_float_as_its_printed_decimal(x, want):
    # As --values reads a float: Fraction(str(x)), not a nearby fraction of
    # small denominator (1e-13 used to become 0, the hub).
    assert rational_field(x, "t") == want
    assert SR.point_label(SR.ray_point(x)) == f"ray({want})"


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_rational_field_rejects_non_finite_floats(x):
    with pytest.raises(InvalidParameterError, match=f"^t must be a rational number, got {x!r}$"):
        rational_field(x, "t")


class TestSpokeRay:
    def test_head_to_head_is_two(self):
        assert SR.distance(SR.spoke_head(3), SR.spoke_head(7)) == 2

    def test_hub_to_head_is_one(self):
        assert SR.distance(HUB, SR.spoke_head(5)) == 1

    def test_own_spoke_beats_hub_past_attachment(self):
        # own spoke: (n - 1/2) + (t - n); hub route: 1 + t
        for n, t in [(3, 10), (1, 1), (5, Fraction(11, 2))]:
            assert SR.distance(SR.spoke_head(n), SR.ray_point(t)) == Fraction(t) - Fraction(1, 2)

    def test_hub_route_wins_before_attachment(self):
        assert SR.distance(SR.spoke_head(11), SR.ray_point(10)) == 11

    def test_hub_to_ray(self):
        assert SR.distance(HUB, SR.ray_point(Fraction(7, 2))) == Fraction(7, 2)

    def test_head_offset_invariant(self):
        # d(head(n), gamma(t)) - t = -1/2 exactly for every t >= n
        for n in (1, 2, 4, 9):
            for t in (n, n + 1, 3 * n, Fraction(4 * n + 1, 2)):
                assert SR.distance(SR.spoke_head(n), SR.ray_point(t)) - t == Fraction(-1, 2)

    def test_spoke_interior_positions(self):
        p = SR.spoke_interior(5, 2)
        assert SR.distance(p, SR.spoke_head(5)) == 2
        assert SR.distance(p, SR.ray_point(5)) == Fraction(5, 2)

    def test_interior_normalization(self):
        assert SR.spoke_interior(5, 0) == SR.spoke_head(5)
        assert SR.spoke_interior(5, Fraction(9, 2)) == SR.ray_point(5)
        assert SR.ray_point(0) == HUB

    def test_malformed_points_rejected(self):
        with pytest.raises(InvalidPointError):
            SR.ray_point(-1)
        with pytest.raises(InvalidPointError):
            SR.spoke_head(0)
        with pytest.raises(InvalidPointError):
            SR.spoke_interior(3, 10)
        with pytest.raises(InvalidPointError):
            SR.distance(("bogus",), HUB)

    def test_heads_are_two_apart(self):
        assert SR.distance(SR.spoke_head(1), SR.spoke_head(2)) == 2

    def test_against_dijkstra_oracle(self):
        rng = random.Random(11)
        pts = [
            p
            for p in SR.sample_points(rng, 40)
            if (p[0] != "ray" or p[1] <= 14) and (p[0] not in ("head", "spoke") or p[1] <= 12)
        ][:14]
        for i in range(len(pts)):
            for j in range(i, len(pts)):
                assert SR.distance(pts[i], pts[j]) == spoke_ray_graph_distance(pts[i], pts[j])

    def test_metric_axioms_sampled(self):
        assert validate_metric(SR, max_triples=10_000).passed


class TestStarTree:
    def test_endpoint_distances(self):
        assert ST.distance(ST.endpoint(5), HUB) == 5
        assert ST.distance(ST.endpoint(5), ST.endpoint(3)) == 8
        assert ST.distance(ST.interval_point(5, 2), ST.interval_point(5, Fraction(9, 2))) == Fraction(5, 2)

    def test_pointwise_limit_identity(self):
        # d(x_n, y) - n = d(x0, y) exactly for y on a different branch
        for n in (2, 5, 9):
            for m in (1, 3, 7):
                if m == n:
                    continue
                y = ST.interval_point(m, Fraction(m, 2))
                assert ST.distance(ST.endpoint(n), y) - n == ST.distance(HUB, y)

    def test_position_out_of_range(self):
        with pytest.raises(InvalidPointError):
            ST.interval_point(3, 4)

    def test_metric_axioms_sampled(self):
        assert validate_metric(ST, max_triples=10_000).passed


# ---------------------------------------------------------------------------
# Functional rows: the closed-form row kernels of the two exact tree spaces
# ---------------------------------------------------------------------------

# A Mersenne prime: a denominator this size scales codes past int64.
BIG = 2**61 - 1

SR_EDGES = [
    HUB,
    SR.ray_point(1),
    SR.ray_point(14),
    SR.ray_point(Fraction(1, 2)),
    SR.spoke_head(1),
    SR.spoke_head(12),
    SR.spoke_interior(1, Fraction(1, 4)),
    SR.spoke_interior(5, Fraction(9, 4)),
    SR.spoke_interior(7, 0),  # endpoints normalize to head(7) and ray(7)
    SR.spoke_interior(7, Fraction(13, 2)),
    SR.ray_point(3 + Fraction(1, 2**54)),  # near the int64 bound, still int64
    SR.ray_point(3 + Fraction(1, BIG)),
    SR.spoke_interior(5, Fraction(1, BIG)),
    SR.spoke_interior(6, Fraction(11, 2) - Fraction(1, BIG)),
    SR.ray_point(2**62 + 1),  # integer codes past the int64 bound
    SR.spoke_head(2**61 - 1),
]

ST_EDGES = [
    HUB,
    ST.endpoint(1),
    ST.endpoint(12),
    ST.interval_point(3, Fraction(1, 2)),
    ST.interval_point(3, Fraction(5, 2)),
    ST.interval_point(4, Fraction(1, 2**55)),
    ST.interval_point(5, Fraction(1, BIG)),
    ST.interval_point(7, 7 - Fraction(1, BIG)),
    ST.endpoint(2**62),
    ST.endpoint(2**62 + 1),
]


def in_graph_oracle_range(p):
    # spoke_ray_graph_distance models ray parameters <= 14 and spokes <= 14
    return p[0] == "hub" or p[1] <= 14


def test_coded_distance_against_oracles():
    # Scalar distance reads the block's code formula; the oracles do not.
    pts = ST_EDGES + ST.sample_points(random.Random(3), 30)
    for p in pts:
        for q in pts:
            d = ST.distance(p, q)
            assert type(d) is Fraction and d == star_tree_distance(p, q)
    pts = [p for p in SR_EDGES if in_graph_oracle_range(p)]
    for i, p in enumerate(pts):
        for q in pts[i:]:
            d = SR.distance(p, q)
            assert type(d) is Fraction and d == spoke_ray_graph_distance(p, q) == SR.distance(q, p)


# Two primes below 2^32: each denominator alone keeps the codes in int64,
# and the lcm of both passes 2^61, so a block or a pair over both holds
# Python ints.
P, Q = 2147483647, 4294967291


@pytest.mark.parametrize(
    "space, pts, oracle",
    [
        (SR, [HUB, SR.ray_point(Fraction(3, P)), SR.spoke_interior(2, Fraction(1, Q)),
              SR.spoke_interior(2, Fraction(2, P)), SR.spoke_head(4), SR.ray_point(Fraction(21, 2))],
         spoke_ray_graph_distance),
        (ST, [HUB, ST.interval_point(3, Fraction(1, P)), ST.interval_point(3, Fraction(2, Q)),
              ST.interval_point(5, 5 - Fraction(1, Q)), ST.endpoint(4)],
         star_tree_distance),
    ],
    ids=["spoke-ray", "star-tree"],
)
def test_coded_block_and_distance_past_int64_by_the_lcm(space, pts, oracle):
    M, den = space.distance_block(pts)(pts, np.arange(len(pts)))
    assert M.dtype == object and den >= 2**61
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            d = space.distance(p, q)
            assert type(d) is Fraction and d == Fraction(int(M[i, j]), den) == oracle(p, q)


@given(st.integers(0, 2**32), st.integers(0, 6), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_functional_rows_against_oracles(seed, sampled, queries):
    rng = random.Random(seed)
    for space, edges, oracle in (
        (SR, SR_EDGES, spoke_ray_graph_distance),
        (ST, ST_EDGES, star_tree_distance),
    ):
        pts = space.sample_points(rng, sampled) + rng.sample(edges, rng.randrange(1, 6))
        rng.shuffle(pts)
        origin = rng.choice([*pts, *edges])
        rows = space.functional_rows(pts, origin)
        ys = space.sample_points(rng, queries) + rng.sample(edges, 2)
        for y in ys:
            idx = np.array(sorted(rng.sample(range(len(pts)), rng.randrange(1, len(pts) + 1))))
            (r,), den = rows([y], idx)
            assert len(r) == len(idx)
            for k, i in enumerate(idx):
                h = Fraction(int(r[k]), den)
                assert h == space.distance(y, pts[i]) - space.distance(origin, pts[i])
                if space is ST or all(map(in_graph_oracle_range, (y, origin, pts[i]))):
                    assert h == oracle(y, pts[i]) - oracle(origin, pts[i])


# Each call scales its own ys, origin and columns: a call's rows are Python
# ints exactly when one of their codes, or their denominator, reaches 2^61,
# whatever an earlier call held.
@pytest.mark.parametrize(
    "space, origin, columns, ys",
    [
        # a y with a new, large denominator, then a y without it
        (SR, HUB, [HUB, SR.ray_point(3 + Fraction(1, 2**54))],
         [(SR.spoke_interior(5, Fraction(1, BIG)), object), (SR.spoke_head(3), np.int64)]),
        (ST, HUB, [HUB, ST.interval_point(4, Fraction(1, 2**55))],
         [(ST.interval_point(5, Fraction(1, BIG)), object), (ST.endpoint(3), np.int64)]),
        # integer codes too wide for int64 sums: in a column, then only in y
        (SR, HUB, [HUB, SR.spoke_head(2**61 - 1)], [(HUB, object), (SR.ray_point(5), object)]),
        (SR, HUB, [HUB, SR.ray_point(5)], [(SR.spoke_head(2**61 - 1), object), (HUB, np.int64)]),
        (ST, HUB, [HUB, ST.endpoint(2**62 + 1)], [(ST.endpoint(2**62), object), (HUB, object)]),
        (ST, HUB, [HUB, ST.endpoint(5)], [(ST.endpoint(2**62 + 1), object), (HUB, np.int64)]),
        # ... or only in the origin
        (SR, SR.ray_point(2**62), [HUB, SR.ray_point(5)], [(SR.spoke_head(3), object), (HUB, object)]),
        (ST, ST.endpoint(2**62), [HUB, ST.endpoint(5)], [(ST.endpoint(3), object), (HUB, object)]),
    ],
)
def test_functional_rows_past_int64_hold_python_ints(space, origin, columns, ys):
    rows = space.functional_rows(columns, origin)
    idx = np.arange(len(columns))
    if origin == HUB and columns[-1][-1] < 2**32:  # narrow codes, asked from one of them
        assert rows([columns[-1]], idx)[0].dtype == np.int64
    for y, dtype in ys:
        (r,), den = rows([y], idx)
        assert r.dtype == dtype
        assert [Fraction(int(v), den) for v in r] == [
            space.distance(y, p) - space.distance(origin, p) for p in columns
        ]


def test_functional_rows_stay_int64_up_to_the_bound():
    # scaled codes just below 2^61, so that route sums reach about 3 * 2^61
    columns = [HUB, SR.ray_point(2**60 - 1), SR.spoke_head(2**60 - 1)]
    rows = SR.functional_rows(columns, HUB)
    for y in columns:
        (r,), den = rows([y], np.arange(3))
        assert r.dtype == np.int64
        assert [Fraction(int(v), den) for v in r] == [
            SR.distance(y, p) - SR.distance(HUB, p) for p in columns
        ]


# Every space class, with points that the sampler does not give: mixed
# denominators and codes or distances past 2^61.
BLOCK_SPACES = {
    "finite": (lambda rng: FiniteMetricSpace(random_rational_metric(rng, 7)), []),
    "z3": (lambda rng: CayleyGraphSpace(Zd(3)), [(2**62, -1, 0), (-(2**62), 0, 5)]),
    "f2": (lambda rng: CayleyGraphSpace(FreeGroup(2)), [(1, 2, -1, -2) * 5]),
    "h3": (lambda rng: CayleyGraphSpace(Heisenberg()), [(0, 0, 2**62), (3, -2**40, 7)]),
    "c12": (lambda rng: CayleyGraphSpace(cyclic_group(12, step=3)), [9]),
    "spoke-ray": (lambda rng: SR, SR_EDGES),
    "star-tree": (lambda rng: ST, ST_EDGES),
    "sqrt-line": (lambda rng: DistortedLine("sqrt"), [0.0, 1e300, -2.5]),
    "disk": (lambda rng: PoincareDisk(), [0j, 0.999999 + 0j, -0.3 + 0.9j]),
    "half-plane": (lambda rng: UpperHalfPlane(), [1j, 3 + 1e-9j, -1e6 + 1e6j]),
    "l3": (lambda rng: LpSpace(3, 4), [np.zeros(4), np.array([1e90, 0, -1, 2])]),
}


def _reads(space, value, den, want):
    if space.exact:
        return Fraction(int(value), den) == want
    return den == 1 and float(value).hex() == float(want).hex()


@pytest.mark.parametrize("name", sorted(BLOCK_SPACES))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_distance_block_and_rows_match_distance(name, seed):
    rng = random.Random(seed)
    make, edges = BLOCK_SPACES[name]
    space = make(rng)

    def draw(most):
        return space.sample_points(rng, rng.randrange(1, most)) + rng.sample(edges, min(len(edges), rng.randrange(3)))

    pts = draw(7)
    origin = rng.choice(draw(3))
    block, rows = space.distance_block(pts), space.functional_rows(pts, origin)
    for _ in range(3):  # each call scales its own ys with the points
        ys = draw(4)
        idx = np.array(rng.choices(range(len(pts)), k=rng.randrange(1, len(pts) + 1)))
        M, den = block(ys, idx)
        assert M.shape == (len(ys), len(idx))
        assert M.dtype in ((np.int64, object) if space.exact else (np.float64,))
        for i, y in enumerate(ys):
            (h,), hden = rows([y], idx)
            for k, j in enumerate(idx):
                assert _reads(space, M[i, k], den, space.distance(y, pts[j]))
                assert _reads(space, h[k], hden, space.distance(y, pts[j]) - space.distance(origin, pts[j]))


@pytest.mark.parametrize("name", sorted(BLOCK_SPACES))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_rows_of_many_ys_equal_the_rows_of_each(name, seed):
    # The per-y rows come from a second rows function, whose columns see one
    # y at a time, so that the two may hold their values over different
    # denominators.
    rng = random.Random(seed)
    make, edges = BLOCK_SPACES[name]
    space = make(rng)

    def draw(most):
        return space.sample_points(rng, rng.randrange(1, most)) + rng.sample(edges, min(len(edges), rng.randrange(3)))

    pts, origin, ys = draw(7), rng.choice(draw(3)), draw(8)
    idx = np.array(rng.choices(range(len(pts)), k=rng.randrange(1, len(pts) + 1)))
    many, den = space.functional_rows(pts, origin)(ys, idx)
    assert many.shape == (len(ys), len(idx))
    each = space.functional_rows(pts, origin)

    def value(v, d):
        return Fraction(int(v), d) if space.exact else float(v).hex()

    for y, row in zip(ys, many):
        (alone,), aden = each([y], idx)
        assert [value(v, den) for v in row] == [value(v, aden) for v in alone]


# The distorted line and l^p stand for the default block, which checks its
# columns when it is prepared.
MALFORMED = {
    "finite": (FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]]), 0, [-1, 3, 1.0, "1", None]),
    "sr": (SR, HUB, [("bogus",), "hub", ("hub", 1), ("ray", Fraction(0)), ("ray", 1.5),
                     ("head", 0), ("head", Fraction(2)), ("spoke", 3, Fraction(10)), ("spoke", 3)]),
    "st": (ST, HUB, [("hub", 1), ("int", 3, Fraction(4)), ("int", 0, Fraction(1, 2)),
                     ("int", 3, 1), ("ray", Fraction(1))]),
    "half-plane": (UpperHalfPlane(), 1j, [1 - 1j, 2.0, complex(0, math.nan), complex(math.inf, 1), "x", None]),
    "disk": (PoincareDisk(), 0j, [2 + 0j, 1.0, -1j, complex(math.nan, 0), "x", None]),
    "sqrt-line": (DistortedLine("sqrt"), 0.0, [math.nan, math.inf, -math.inf, "1", None, 1j]),
    "lp": (LpSpace(2, 2), np.zeros(2), [[math.nan, 1], [0, math.inf], ["1", "2"], [1j, 0], None]),
    "z2": (CayleyGraphSpace(Zd(2)), (0, 0), [(1,), (0, 0, 0), (1.0, 0), [0, 0], "a", None]),
    # step 3 generates only {0, 3, 6, 9}
    "c12{3}": (CayleyGraphSpace(cyclic_group(12, step=3)), 0, [1, 5, 12, -1, "1", None]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_functional_rows_reject_malformed_points_like_distance(name):
    space, good, bads = MALFORMED[name]
    rows = space.functional_rows([good], good)
    for bad in bads:
        with pytest.raises(InvalidPointError) as direct:
            space.distance(bad, good)
        for ask in (lambda: space.point_key(bad),
                    lambda: rows([bad], np.arange(1)),
                    lambda: space.functional_rows([good, bad], good),
                    lambda: space.functional_rows([good], bad),
                    lambda: space.distance_block([good, bad])):
            with pytest.raises(InvalidPointError) as by_row:
                ask()
            assert str(by_row.value) == str(direct.value)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_an_empty_block_has_one_column_per_index(name):
    space, good, _ = MALFORMED[name]
    block = space.distance_block([good])
    assert block([], np.arange(1))[0].shape == (0, 1)
    block([good], np.arange(1))  # an earlier call leaves no state behind
    assert block([], np.arange(1))[0].shape == (0, 1)


class TestDistortedLine:
    def test_sqrt_profile_passes(self):
        assert distorted_line_validate(DISTORTIONS["sqrt"], range(1, 1001)).passed

    def test_log1p_profile_passes(self):
        assert distorted_line_validate(DISTORTIONS["log1p"], range(1, 1001)).passed

    def test_superadditive_profile_fails(self):
        rep = distorted_line_validate(lambda t: t * t, range(1, 100))
        assert not rep.passed
        assert rep.failure[0] == "ratio_increasing"

    def test_decreasing_profile_fails_first_on_order(self):
        rep = distorted_line_validate(lambda t: 0.0 if t == 0 else 1.0 / t, [3, 1, 2])
        assert rep == DistortionReport(False, 3, ("not_nondecreasing", 1.0, 2.0))

    def test_profile_past_the_grid_fails_subadditivity(self):
        # D(t) = t on the one-point grid {1}, so order and ratio pass, but D(2) = 20.
        rep = distorted_line_validate(lambda t: t if t in (0.0, 1.0) else 10.0 * t, [1])
        assert rep == DistortionReport(False, 1, ("not_subadditive", 1.0, 1.0))

    def test_nonzero_at_zero_rejected(self):
        with pytest.raises(InvalidDistortionError):
            distorted_line_validate(lambda t: t + 1, range(1, 10))

    def test_far_anchor_flattens(self):
        line = DistortedLine("sqrt")
        r, eps = 5.0, 1e-3
        x = 1e8
        assert max(
            line.dfun(x + r) - line.dfun(x), line.dfun(x) - line.dfun(x - r)
        ) <= eps

    def test_metric_axioms_sampled(self):
        assert validate_metric(DistortedLine("sqrt"), max_triples=5_000).passed
        assert validate_metric(DistortedLine("log1p"), max_triples=5_000).passed


class TestHyperbolic:
    def test_disk_radial_closed_form(self):
        disk = PoincareDisk()
        assert abs(disk.distance(0, 0.5) - math.log(3)) < 1e-12
        assert disk.distance(0.3 + 0.2j, 0.3 + 0.2j) == 0

    def test_disk_distance_near_the_boundary(self):
        disk = PoincareDisk()
        # the atanh form raised "math domain error" on this pair
        z, w = -0.848687267781645 - 0.5288950003950973j, -0.8490562052607962 - 0.5283025272586541j
        assert math.isclose(disk.distance(z, w), disk_distance(z, w), rel_tol=1e-5)
        # and was off by a relative 3.2e-11 here
        assert disk.distance(0.999999, 0.9999995) == disk_distance(0.999999, 0.9999995)

    def test_disk_distance_against_mpmath(self):
        # 1 - |z|^2 is formed exactly up to one rounding, so the distance
        # is good to a few ulps however close to the circle.  Rounding |z|
        # to a float first was off by a relative 1.4e-6 on this pair.
        disk = PoincareDisk()
        z, w = -0.848687267781645 - 0.5288950003950973j, -0.8490562052607962 - 0.5283025272586541j
        assert math.isclose(disk.distance(z, w), disk_distance(z, w), rel_tol=1e-14)
        rng = random.Random(3)
        for _ in range(400):
            r1, r2 = (1 - 10 ** rng.uniform(-12, 0) for _ in range(2))
            t1 = rng.uniform(0, 2 * math.pi)
            t2 = t1 + rng.choice([1, -1]) * 10 ** rng.uniform(-12, 0.5)
            z, w = r1 * complex(math.cos(t1), math.sin(t1)), r2 * complex(math.cos(t2), math.sin(t2))
            if max(abs(z), abs(w)) >= 1 or z == w:
                continue
            assert math.isclose(disk.distance(z, w), disk_distance(z, w), rel_tol=1e-14)

    def test_disk_points_key_by_coordinates_and_label_by_repr(self):
        disk = PoincareDisk()
        assert disk.point_key(0.5) == (0.5, 0.0) and disk.point_key(0.25 - 0.5j) == (0.25, -0.5)
        assert sorted([0.5j, -0.5, 0j, -0.5j], key=disk.point_key) == [-0.5, -0.5j, 0j, 0.5j]
        assert [disk.point_label(p) for p in (0, 0.5, 0.25 - 0.5j)] == ["0j", "(0.5+0j)", "(0.25-0.5j)"]
        with pytest.raises(InvalidPointError):
            disk.point_key(1.0)

    def test_half_plane_closed_form(self):
        hp = UpperHalfPlane()
        assert abs(hp.distance(1j, 1 + 1j) - math.acosh(1.5)) < 1e-12

    def test_half_plane_distance_at_the_edge_of_the_float_range(self):
        hp = UpperHalfPlane()
        # Im z Im w overflows to inf in the first pair and underflows to a
        # subnormal in the second
        for z, w in ((2.0**511 * 1j, 2.0**513 * 1j), (1e-170j, 4e-170j)):
            assert hp.distance(z, w) == pytest.approx(math.log(4), rel=1e-15)
            assert hp.distance(z, w) == pytest.approx(half_plane_distance(z, w), rel=1e-15)
        rng = random.Random(11)
        for _ in range(400):
            y = 10.0 ** rng.uniform(-300, 300)
            z = complex(y * rng.uniform(-3, 3), y * 10 ** rng.uniform(-1, 1))
            w = complex(y * rng.uniform(-3, 3), y * 10 ** rng.uniform(-1, 1))
            assert math.isclose(hp.distance(z, w), half_plane_distance(z, w), rel_tol=1e-14)

    def test_half_plane_block_is_distance_bit_for_bit(self):
        hp = UpperHalfPlane()
        # Im z Im w falls below the least normal float for the first pair of
        # points, and overflows for the second.
        edge = [1e-170j, 4e-170j + 3e-170, 2.0**511 * 1j, 2.0**513 * 1j - 1e154]
        rng = random.Random(3)
        pts = edge + hp.sample_points(rng, 12)
        ys = hp.sample_points(rng, 8) + edge
        idx = np.array([*range(len(pts)), 3, 0, 3])
        M, den = hp.distance_block(pts)(ys, idx)
        assert den == 1 and M.shape == (len(ys), len(idx))
        for i, y in enumerate(ys):
            for k, j in enumerate(idx):
                assert M[i, k].hex() == hp.distance(y, pts[j]).hex()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_array_blocks_are_distance_bit_for_bit_across_the_float_range(self, seed):
        # Im z from subnormal to 1e300 on the half-plane, and 1 - |z| down to
        # 1e-12 on the disk; no entry may warn, not even where Im z Im w
        # overflows or underflows and the other root form is taken.
        rng = random.Random(seed)
        hp, disk = UpperHalfPlane(), PoincareDisk()

        def half_plane_point():
            y = 10.0 ** rng.uniform(-323, 300)
            return complex(y * rng.uniform(-3, 3), y * 10 ** rng.uniform(-1, 1) or 5e-324)

        def disk_point():
            r, t = 1 - 10 ** rng.uniform(-12, 0), rng.uniform(0, 2 * math.pi)
            return r * complex(math.cos(t), math.sin(t))

        hp_edge = [5e-324j, 1e-320j, 1e-310 + 1e-310j, 1e-308j, 2.3e-308j, 1e300j, -1e300 + 1e300j, 1e150j]
        disk_edge = [1 - 1e-12 + 0j, -(1 - 1e-12) * 1j, 0.6 * (1 - 1e-12) - 0.8j * (1 - 1e-12), 0.999999 + 0j]
        for space, draw, edge in ((hp, half_plane_point, hp_edge), (disk, disk_point, disk_edge)):
            pts = [draw() for _ in range(rng.randrange(1, 12))] + rng.sample(edge, rng.randrange(len(edge)))
            ys = [draw() for _ in range(rng.randrange(0, 8))] + rng.sample(edge, rng.randrange(len(edge)))
            idx = np.array(rng.choices(range(len(pts)), k=rng.randrange(0, 2 * len(pts))), dtype=np.intp)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                M, den = space.distance_block(pts)(ys, idx)
            assert den == 1 and M.dtype == np.float64 and M.shape == (len(ys), len(idx))
            for i, y in enumerate(ys):
                for k, j in enumerate(idx):
                    assert M[i, k].hex() == space.distance(y, pts[j]).hex()

    def test_half_plane_block_checks_every_point(self):
        hp = UpperHalfPlane()
        for bad in (complex(0, math.nan), complex(1, 0), complex(1, -2), 2.0, "x", None):
            with pytest.raises(InvalidPointError):
                hp.distance_block([1j, bad])
            block = hp.distance_block([1j, 2j])
            for idx in (np.arange(2), np.arange(0)):
                with pytest.raises(InvalidPointError):
                    block([3j, bad], idx)

    def test_disk_block_is_distance_bit_for_bit(self):
        disk = PoincareDisk()
        # 1 - |z|^2 is as small as 1e-15 on the first points, and the last
        # pair lies within 1e-12 of each other near the circle.
        edge = [1 - 5e-16 + 0j, -0.999999 + 1e-7j, 0.6 - 0.79999999j, 0.999999 + 0j, 0.9999995 + 1e-12j]
        rng = random.Random(4)
        pts = edge + disk.sample_points(rng, 12)
        ys = disk.sample_points(rng, 8) + edge
        idx = np.array([*range(len(pts)), 4, 0, 4])
        M, den = disk.distance_block(pts)(ys, idx)
        assert den == 1 and M.dtype == np.float64 and M.shape == (len(ys), len(idx))
        for i, y in enumerate(ys):
            for k, j in enumerate(idx):
                assert M[i, k].hex() == disk.distance(y, pts[j]).hex()
        assert disk.distance_block(pts)([], idx)[0].shape == (0, len(idx))

    def test_disk_block_checks_every_point(self):
        disk = PoincareDisk()
        for bad in (1 + 0j, 0.6 + 0.8j, 2.0, complex(math.nan, 0), "x", None):
            with pytest.raises(InvalidPointError) as direct:
                disk.distance(bad, 0j)
            with pytest.raises(InvalidPointError) as fixed:
                disk.distance_block([0j, bad])
            block = disk.distance_block([0j, 0.5j])
            for idx in (np.arange(2), np.arange(0)):
                with pytest.raises(InvalidPointError) as moving:
                    block([0.1j, bad], idx)
                assert str(moving.value) == str(fixed.value) == str(direct.value)

    def test_half_plane_rejects_non_finite_points(self):
        hp = UpperHalfPlane()
        for p in (complex(0, math.nan), complex(math.nan, 1), complex(0, math.inf), complex(math.inf, 1)):
            with pytest.raises(InvalidPointError):
                hp.check_point(p)
            with pytest.raises(InvalidPointError):
                hp.distance(1j, p)

    def test_domain_errors(self):
        with pytest.raises(InvalidPointError):
            PoincareDisk().distance(0, 1.0)
        with pytest.raises(InvalidPointError):
            UpperHalfPlane().distance(1j, 1 - 1j)

    def test_cayley_transform_is_isometry(self):
        hp, disk = UpperHalfPlane(), PoincareDisk()
        rng = random.Random(5)
        pts = hp.sample_points(rng, 24)
        for i in range(0, 24, 2):
            z, w = pts[i], pts[i + 1]
            assert abs(
                hp.distance(z, w) - disk.distance(cayley_to_disk(z), cayley_to_disk(w))
            ) < 1e-10
            assert abs(cayley_to_half_plane(cayley_to_disk(z)) - z) < 1e-12

    def test_moebius_invariance(self):
        hp = UpperHalfPlane()
        maps = [MoebiusMap(1, 2, 0, 1), MoebiusMap(2, 0, 0, Fraction(1, 2)), MoebiusMap(1, 0, 1, 1)]
        rng = random.Random(9)
        pts = hp.sample_points(rng, 16)
        for m in maps:
            for i in range(0, 16, 2):
                z, w = pts[i], pts[i + 1]
                assert abs(
                    hp.distance(z, w)
                    - hp.distance(m.apply_half_plane(z), m.apply_half_plane(w))
                ) < 1e-12

    def test_metric_axioms_sampled(self):
        assert validate_metric(PoincareDisk(), max_triples=10_000, tol=1e-10).passed
        assert validate_metric(UpperHalfPlane(), max_triples=10_000, tol=1e-10).passed


class TestLp:
    @given(st.integers(1, 4), st.integers(0, 2))
    @settings(max_examples=20, deadline=None)
    def test_norm_axioms(self, pi, seed):
        p = [1.0, 1.5, 2.0, 3.0][pi - 1]
        space = LpSpace(p, 5)
        rng = random.Random(seed)
        x, y = space.sample_points(rng, 2)
        assert space.distance(x, y) <= space.norm(x) + space.norm(y) + 1e-9
        assert space.distance(x, y) == pytest.approx(space.distance(y, x))

    def test_coordinate_zeroing_monotone(self):
        space = LpSpace(3, 4)
        x = [1.0, -2.0, 0.5, 3.0]
        for i in range(4):
            y = list(x)
            y[i] = 0.0
            assert space.norm(y) <= space.norm(x)

    @pytest.mark.parametrize("p", [math.nan, 0.5, -math.inf])
    def test_p_below_one_or_nan_rejected(self, p):
        with pytest.raises(InvalidParameterError, match="^p must be >= 1$"):
            LpSpace(p, 2)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("scale", [1e308, 1e-160, 1e-200, 5e-324])
    def test_norm_neither_overflows_nor_underflows(self, p, scale):
        # The plain sums overflow to inf, underflow to 0 or fall below the
        # normal floats (2e-320 at p = 2, 5.6e-6 off in the norm); scaled by
        # max|x_j| first, the norm is scale * 2^(1/p), with or without axis.
        # (1e-200 at p = 1.5 is not rescaled: its sum 2e-300 is a normal
        # float, and s^(1/p) with 1/p rounded is off by about |ln s| ulps.)
        want = scale * 2 ** (1 / p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isclose(lp_norm([scale, -scale], p), want, rel_tol=1e-12)
            rows = np.array([[scale, -scale], [3.0, 4.0], [0.0, 0.0], [math.inf, 1.0], [math.nan, 1.0]])
            by_row = lp_norm(rows, p, axis=1)
            by_col = lp_norm(rows.T, p, axis=0)
        for got in (by_row, by_col):
            assert math.isclose(got[0], want, rel_tol=1e-12)
            assert got[1] == lp_norm([3.0, 4.0], p) and got[2] == 0.0
            assert got[3] == math.inf and math.isnan(got[4])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_norm_keeps_its_bits_in_range(self, p):
        # Only slices whose plain value is 0 or not finite are rescaled; the
        # rest keep the bits of the unscaled formula.
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 7)) * 10.0 ** rng.integers(-90, 90, size=(50, 1))

        def plain(v, axis):
            if p == 2.0:
                return np.linalg.norm(v, axis=axis)
            if math.isinf(p):
                return np.max(np.abs(v), axis=axis)
            return np.sum(np.abs(v) ** p, axis=axis) ** (1.0 / p)

        assert lp_norm(X, p, axis=1).tolist() == plain(X, 1).tolist()
        assert lp_norm(X.T, p, axis=0).tolist() == plain(X.T, 0).tolist()
        assert [lp_norm(x, p) for x in X] == [float(plain(x, None)) for x in X]

    def test_padding(self):
        space = LpSpace(2, 3)
        assert space.distance([1.0], [0.0, 0.0, 1.0]) == pytest.approx(math.sqrt(2))
