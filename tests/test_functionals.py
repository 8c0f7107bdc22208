import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horokit.dynamics import SelfMap, almost_fixed_invariant_functional
from horokit.errors import (
    BudgetError,
    InvalidParameterError,
    InvalidPointError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedError,
)
from horokit.extension import PigeonholeLimit
from horokit.functionals import (
    BallFunctional,
    CheckOutcome,
    DiskBusemann,
    HalfPlaneBusemannInfinity,
    Linear,
    LpMu,
    LpZC,
    RealizedFunctional,
    ZdLinear,
    Zero,
    distance_recovery_check,
    eval_functional,
    functional_norm_estimate,
    lipschitz_check,
    lp_limit_convergence_check,
    midpoint_convexity_check,
)
from horokit.groups import CayleyGraphSpace, GeneratingSet, Zd
from horokit.metric import FiniteMetricSpace, MetricSpace
from horokit.spaces import LpSpace, PoincareDisk, SpokeRaySpace, StarTreeSpace, UpperHalfPlane, lp_norm

from oracles import disk_busemann, lp_mu_value, lp_zc_value, pigeonhole_reference, realized_reference

Z1 = CayleyGraphSpace(Zd(1))


# ---------------------------------------------------------------------------
# Ball functionals
# ---------------------------------------------------------------------------


def z_ball_functional(values):
    pts = ((0,), (-1,), (1,))
    bf = BallFunctional(1, tuple(Z1.point_label(p) for p in pts), tuple(values), pts)
    bf.check(lambda p, q: abs(p[0] - q[0]))
    return bf


def test_ball_functional_invariants_enforced():
    bf = z_ball_functional([0, 1, -1])
    assert dict(zip(bf.points, bf.values))[(1,)] == -1
    with pytest.raises(InvalidParameterError):
        z_ball_functional([1, 0, -1])  # nonzero at base
    with pytest.raises(InvalidParameterError):
        z_ball_functional([0, 2, -1])  # not 1-Lipschitz against the base


def test_ball_functional_lipschitz_violation_detected():
    pts = ((0,), (-1,), (1,), (2,))
    labels = tuple(map(str, pts))
    dist = lambda p, q: abs(p[0] - q[0])
    ok = BallFunctional(2, labels, (0, 1, -1, -2), pts)
    ok.check(dist)
    assert ok.values == (0, 1, -1, -2)
    with pytest.raises(InvalidParameterError, match="Lipschitz"):
        BallFunctional(2, labels, (0, 1, -1, 2), pts).check(dist)  # |2 - (-1)| = 3 > d = 1


def test_ball_functional_check_does_not_wrap_numpy_ints():
    # As objects, np.int64 0 - (-2^63) wraps to -2^63, whose abs is negative and passes any bound.
    bf = BallFunctional(1, ("0", "1"), (np.int64(0), np.int64(-(2**63))), (0, 1))
    with pytest.raises(InvalidParameterError, match=r"not 1-Lipschitz on pair \(0, 1\)"):
        bf.check(lambda p, q: abs(p - q))


# ---------------------------------------------------------------------------
# Closed-form models
# ---------------------------------------------------------------------------


def test_disk_busemann_values():
    h = DiskBusemann(1)
    assert h.evaluate(0) == 0
    assert h.evaluate(0.5) == pytest.approx(math.log(1 / 3))
    with pytest.raises(InvalidPointError):
        h.evaluate(1.2)
    with pytest.raises(InvalidParameterError):
        DiskBusemann(0.5)


def test_disk_busemann_against_mpmath():
    # 1 - abs(z)**2 cancelled on these points: the worst error was 4.5e-5.
    rng = random.Random(11)
    for zeta in (1, 1j, -1, complex(math.cos(2.0), math.sin(2.0))):
        h = DiskBusemann(zeta)
        for _ in range(300):
            r = 1 - 10 ** rng.uniform(-12, -1)
            t = rng.uniform(0, 2 * math.pi)
            z = r * complex(math.cos(t), math.sin(t))
            assert abs(h.evaluate(z) - disk_busemann(h.zeta, z)) <= 1e-12


def test_lp_zc_values():
    h = LpZC([0.0], 1.0, 2.0)
    assert h.evaluate([1.0]) == pytest.approx(math.sqrt(2) - 1)
    with pytest.raises(InvalidParameterError):
        LpZC([3.0, 4.0], 1.0, 2.0)  # c < ||z||


def test_linear_values():
    v = np.array([0.6, 0.8])
    h = Linear(v)
    assert h.evaluate(3 * v) == pytest.approx(-3.0)
    with pytest.raises(InvalidParameterError):
        Linear([2.0, 0.0])


def test_lp_mu_values():
    h = LpMu([0.5, 0.5], 2.0)
    assert h.evaluate([1.0, 1.0]) == pytest.approx(-1.0)
    with pytest.raises(InvalidParameterError):
        LpMu([1.0, 1.0], 2.0)  # ||mu||_2 > 1


def test_lp_models_reject_p_infinite():
    # At p = inf, LpMu's conjugate exponent is nan, so ||mu||_q <= 1 never
    # failed; LpZC read inf^0 = 1 for a zero coordinate of x - z.
    with pytest.raises(InvalidParameterError):
        LpMu([0.9, 0.9], math.inf)
    with pytest.raises(InvalidParameterError):
        LpZC([1.0], 2.0, math.inf)


def test_linear_is_lp_mu_at_p_2():
    # Its p stays 2 in a sup-norm space (test_linear_lipschitz_sup_norm).
    h = Linear([0.6, 0.8])
    assert isinstance(h, LpMu) and h.p == h.ambient_p == 2.0
    assert h.v.tolist() == h.mu.tolist() == [0.6, 0.8]


def test_lp_models_pad_rows_narrower_than_their_parameter():
    # Rows are zero-padded to the parameter's width, as LpSpace pads points.
    for f in (LpZC([1.0, 2.0, 3.0], 4.0, 2.0), LpMu([0.3, -0.4, 0.5], 2.0), Linear([0.6, 0.0, 0.8])):
        assert f.evaluate_batch(np.zeros((2, 2))) == pytest.approx([0.0, 0.0], abs=1e-12)
        assert f.evaluate_batch(np.array([[1.0, 0.0]]))[0] == f.evaluate([1.0, 0.0])
        assert f.evaluate([1.0, 0.0]) == f.evaluate([1.0, 0.0, 0.0])
        assert lipschitz_check(f, LpSpace(2, 2), pairs=2000, tol=1e-12).passed
        assert midpoint_convexity_check(f, 2, pairs=2000, tol=1e-12).passed
    assert LpZC([1.0, 2.0, 3.0], 4.0, 2.0).evaluate([1.0, 0.0]) == pytest.approx(
        lp_zc_value([1.0, 2.0, 3.0], 4.0, 2.0, [1.0, 0.0]), rel=1e-12)


def test_lp_zc_at_c_equal_to_the_norm_of_z_is_real():
    # c a hair below ||z||_p is accepted (relative tolerance 1e-12); c^p - ||z||_p^p
    # then rounds below 0, which once made the value at x = z complex and
    # the witness check raise TypeError.
    f = LpZC([3.0, 4.0], 5.0 - 1e-13, 2.0)
    assert f.evaluate([3.0, 4.0]) == pytest.approx(-5.0)
    assert lp_limit_convergence_check(f, [[3.0, 4.0], [0.0, 1.0]], k_range=4).threshold == 1


def test_lp_zc_accepts_c_equal_to_a_large_norm_of_z():
    # c = ||z||_p summed another way differs from ||z||_p by rounding, which
    # grows with ||z||_p: an absolute margin of 1e-12 refused some of these.
    rng = random.Random(7)
    for _ in range(2000):
        z = [rng.uniform(-1e5, 1e5) for _ in range(5)]
        p = rng.choice([1.5, 2.0, 3.0])
        f = LpZC(z, math.fsum(abs(v) ** p for v in z) ** (1 / p), p)
        assert -f.c <= f.evaluate(z) < 0
    with pytest.raises(InvalidParameterError):
        LpZC([3e5, 4e5], 5e5 * (1 - 1e-9), 2.0)


def test_lp_zc_tail_does_not_cancel():
    # Near c = ||z||_p, c^p - ||z||_p^p is a small difference of two large
    # p-th powers.  The reference is exact: Fractions over the same floats,
    # with ||z||_p the float the model holds (near 1e5, one ulp more of c
    # moves h(z) by about 1, so no float ||z||_p makes h(z) = -c exactly).
    # As a difference of p-th powers the tail was off by up to 0.1 in h.
    rng = random.Random(7)
    for _ in range(1000):
        z = [rng.uniform(-1e5, 1e5) for _ in range(5)]
        p = rng.choice([2, 3])
        c = math.fsum(abs(v) ** p for v in z) ** (1 / p) * (1 + rng.choice([0, 1, 8, 1e3, 1e6]) * 2.0**-52)
        f = LpZC(z, c, p)
        tail = max(Fraction(f.c) ** p - Fraction(f.znorm) ** p, 0)
        for x in (z, [v + rng.choice([1e-3, 1.0]) for v in z]):
            base = tail + sum(abs(Fraction(a) - Fraction(b)) ** p for a, b in zip(x, z))
            assert f.evaluate(x) == pytest.approx(float(base) ** (1 / p) - c, rel=0, abs=1e-9 * c)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("scale", [1e-160, 1.76e-193, 1e-300, 1e200, 1e300])
def test_lp_zc_neither_underflows_nor_overflows(p, scale):
    # The plain sums of p-th powers, c^p among them, underflow to 0, fall
    # below the normal floats or overflow to inf: h(0) = ||z||_p - c read -c,
    # -5.6e-6 c (1e-160 at p = 2) or inf for c = ||z||_p.
    # Taken over m = max(max_j |x_j - z_j|, c) first, h is 0 at x = 0 and
    # x = 2z, c at x = -z and c (2^(1/p) - 1) at x = c e_2.
    f = LpZC([scale], scale, p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = f.evaluate_batch([[0.0, 0.0], [2 * scale, 0.0], [-scale, 0.0], [0.0, scale]])
        at_zero = f.evaluate([0.0])
    want = [0.0, 0.0, scale, scale * (2 ** (1 / p) - 1)]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)
    assert at_zero == pytest.approx(0.0, abs=1e-12 * scale)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_lp_zc_keeps_its_bits_in_range(p):
    # Only rows whose plain sum is 0 or not finite are rescaled; the rest
    # keep the bits of the unscaled formula, tail included.
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = rng.normal(size=4) * 10.0 ** rng.integers(-60, 60)
        c = lp_norm(z, p) * (1 + rng.choice([0.0, 1e-9, 1.0]))
        X = rng.normal(size=(30, 4)) * 10.0 ** rng.integers(-60, 60, size=(30, 1))
        f = LpZC(z, c, p)
        n = f.znorm
        tail = max(-(c**p) * math.expm1(p * math.log1p((n - c) / c)) if 2 * n > c else c**p - n**p, 0.0)
        plain = ((np.abs(X - z) ** p).sum(axis=1) + tail) ** (1.0 / p) - c
        assert f.evaluate_batch(X).tolist() == plain.tolist()


COORD = st.floats(-4.0, 4.0)


@given(st.data(), st.floats(1.0, 6.0), st.integers(1, 5), st.floats(0.0, 4.0), st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_lp_models_match_the_independent_oracle(data, p, n, margin, shrink):
    # x shorter than, as long as and longer than the parameter, with
    # c = ||z||_p + margin and ||mu||_q = shrink * (at most 1).
    param = data.draw(st.lists(COORD, min_size=n, max_size=n))
    xs = [data.draw(st.lists(COORD, min_size=m, max_size=m)) for m in (n - 1, n, n + 2)]
    # ||z||_p scaled by max|z_j|, so that a tiny z does not underflow to c = 0
    top = max(map(abs, param))
    c = (top * math.fsum((abs(v) / top) ** p for v in param) ** (1.0 / p) if top else 0.0) + margin
    models = [(LpZC(param, c, p), lambda x: lp_zc_value(param, c, p, x))]
    if p > 1:
        q = p / (p - 1.0)
        mu = [v / 4.0 for v in param]  # |mu_j| <= 1, so |mu_j|^q cannot overflow
        qnorm = math.fsum(abs(v) ** q for v in mu) ** (1.0 / q)
        mu = [shrink * v / max(qnorm, 1.0) for v in mu]
        models.append((LpMu(mu, p), lambda x: lp_mu_value(mu, x)))

    def close(f, got, want, x):
        if isinstance(f, LpMu):  # to 1e-12 of the sum of its terms' magnitudes
            return abs(got - want) <= 1e-12 * math.fsum(abs(m * a) for m, a in zip(mu, x))
        # Compared under the root: the base ||x - z||_p^p + c^p - ||z||_p^p is
        # well conditioned, while its p-th root is not near x = z, c = ||z||_p.
        base = (want + c) ** p
        return abs((got + c) ** p - base) <= 1e-12 * (base + c**p)

    for x in xs:
        X = np.array([x, [2.0 * v for v in x], [-v for v in x]]).reshape(3, len(x))
        for f, oracle in models:
            rows = f.evaluate_batch(X)
            assert f.evaluate(x) == f.evaluate_batch([x])[0]
            assert close(f, f.evaluate(x), oracle(x), x)
            assert all(close(f, got, oracle(row), row) for got, row in zip(rows.tolist(), X.tolist()))
        assert Zero().evaluate(x) == Zero().evaluate_batch(X).tolist()[0] == 0.0


def test_half_plane_busemann():
    h = HalfPlaneBusemannInfinity()
    assert h.evaluate(1j) == 0
    assert h.evaluate(5 + 4j) == pytest.approx(-math.log(4))


def test_zd_linear_exact():
    h = ZdLinear([1, Fraction(-1, 2)])
    assert h.evaluate((4, 2)) == -3
    assert h.translate((7, 7)) is h
    with pytest.raises(InvalidParameterError):
        ZdLinear([2])


# ---------------------------------------------------------------------------
# Lipschitz and convexity suites
# ---------------------------------------------------------------------------

MODEL_FUNCTIONALS_L2 = [
    LpZC([1.0, -2.0, 0.0], 4.0, 2.0),
    LpMu([0.3, -0.4, 0.5], 2.0),
    Linear([0.6, 0.8]),
    Zero(),
]


@pytest.mark.parametrize("f", MODEL_FUNCTIONALS_L2, ids=["lp_zc", "lp_mu", "linear", "zero"])
def test_models_lipschitz_l2(f):
    assert lipschitz_check(f, LpSpace(2, 8), pairs=10_000, tol=1e-12).passed


def test_lp_zc_lipschitz_p3():
    f = LpZC([1.0, 2.0], 3.0, 3.0)
    assert lipschitz_check(f, LpSpace(3, 6), pairs=10_000, tol=1e-12).passed


def test_linear_lipschitz_sup_norm():
    # ||v||_1 <= 1 makes -<x, v> 1-Lipschitz for the sup norm; the batched
    # draws once took every sup-norm distance to be 1.
    assert lipschitz_check(Linear([0.5, -0.5]), LpSpace(math.inf, 2), pairs=10_000, tol=1e-12).passed


def test_lipschitz_check_reports_the_worst_batched_pair():
    # ||v||_1 = 1.4 > 1: -<x, v> is not 1-Lipschitz for the sup norm.  The
    # pairs are the documented draws of N(0, 3) from default_rng(seed).
    pairs, seed = 500, 4
    out = lipschitz_check(Linear([0.6, 0.8]), LpSpace(math.inf, 2), pairs=pairs, tol=1e-12, seed=seed)
    rng = np.random.default_rng(seed)
    Y, Z = rng.normal(0.0, 3.0, size=(pairs, 2)), rng.normal(0.0, 3.0, size=(pairs, 2))
    gaps = [abs(0.6 * (y[0] - z[0]) + 0.8 * (y[1] - z[1])) - max(abs(y - z)) for y, z in zip(Y, Z)]
    i = int(np.argmax(gaps))
    assert (out.passed, out.checked) == (False, pairs)
    assert out.worst == pytest.approx(gaps[i], abs=1e-12) and out.worst > 0.1
    assert out.witness[0].tolist() == Y[i].tolist() and out.witness[1].tolist() == Z[i].tolist()


def test_lipschitz_check_stops_at_the_first_sampled_pair_over_tol():
    # f(p) = 2p on two points at distance 1: a pair of equal points has gap 0,
    # the first pair of distinct points gap 1.
    space = FiniteMetricSpace([[0, 1], [1, 0]])
    pts = space.sample_points(random.Random(0), 2 * 50)
    first = next(i for i in range(50) if pts[2 * i] != pts[2 * i + 1])
    out = lipschitz_check(lambda p: 2 * p, space, pairs=50, tol=0)
    assert out == CheckOutcome(False, first + 1, 1.0, (pts[2 * first], pts[2 * first + 1]))


def test_disk_busemann_lipschitz():
    assert lipschitz_check(DiskBusemann(1j), PoincareDisk(), pairs=10_000, tol=1e-12).passed


def test_point_functional_lipschitz_exact_space():
    # h_x(y) = d(y, x) - d(x0, x) for x = 4, as functional_rows reads it
    rows = Z1.functional_rows([(4,)], Z1.base_point)

    def h(y):
        M, den = rows([y], np.arange(1))
        return Fraction(int(M[0, 0]), den)

    assert [h((y,)) for y in (0, 4, 7)] == [0, -4, -1]
    assert lipschitz_check(h, Z1, pairs=300, tol=0).passed


def test_corrupted_restriction_reports_violating_pair():
    # bump one value of a valid restriction by 2: the pair check trips
    bf = z_ball_functional([0, 1, -1])
    corrupted = BallFunctional(1, bf.labels, (0, 3, -1), bf.points)
    with pytest.raises(InvalidParameterError, match="pair"):
        corrupted.check(lambda p, q: abs(p[0] - q[0]))


@pytest.mark.parametrize(
    "f",
    [
        LpZC([1.0, -2.0, 0.0], 4.0, 2.0),
        Linear([0.6, 0.8]),
        Zero(),
        LpMu([0.3, -0.4, 0.5], 2.0),
    ],
    ids=["lp_zc", "linear", "zero", "lp_mu"],
)
def test_models_midpoint_convex(f):
    assert midpoint_convexity_check(f, 8, pairs=10_000, tol=1e-12).passed


def test_lp3_functionals_midpoint_convex():
    assert midpoint_convexity_check(LpZC([1.0, 0.5], 2.0, 3.0), 6, pairs=10_000).passed
    assert midpoint_convexity_check(LpMu([0.5, -0.5], 3.0), 6, pairs=10_000).passed


def test_point_functional_convex_in_l2():
    z = np.array([1.0, 2.0])
    f = LpZC(z, float(np.linalg.norm(z)), 2.0)  # h_z is the c = ||z|| case
    assert midpoint_convexity_check(f, 4, pairs=10_000, tol=1e-12).passed


def test_concave_witness_fails_convexity():
    class Concave:
        ambient_p = 2.0

        def evaluate(self, x):
            return 2.0 * min(0.0, float(np.asarray(x).ravel()[0]))

    out = midpoint_convexity_check(Concave(), 2, pairs=500, tol=1e-12)
    assert not out.passed
    assert out.witness is not None


def test_convexity_needs_normed_ambient():
    with pytest.raises(UnsupportedError):
        midpoint_convexity_check(DiskBusemann(1), 2)


# ---------------------------------------------------------------------------
# Norm estimates and distance recovery
# ---------------------------------------------------------------------------


def test_disk_busemann_norm_estimate():
    est = functional_norm_estimate(DiskBusemann(1), PoincareDisk(), [1, 2, 4, 8])
    assert est.estimate >= 1 - 1e-3
    assert est.estimate <= 1 + 1e-12
    assert all(b >= a for a, b in zip([r for _, r in est.rows], [r for _, r in est.rows][1:]))


def test_linear_norm_estimate_half():
    est = functional_norm_estimate(Linear([0.5, 0.0]), LpSpace(2, 2), [1, 2, 4], per_radius=4096)
    assert est.estimate == pytest.approx(0.5, abs=1e-3)


def test_zero_norm_estimate():
    assert functional_norm_estimate(Zero(), LpSpace(2, 3), [1, 2]).estimate == 0.0


def test_norm_estimate_needs_increasing_schedule():
    with pytest.raises(Exception):
        functional_norm_estimate(Zero(), LpSpace(2, 2), [2, 1])


def test_sample_counts_below_one_are_precondition_errors():
    with pytest.raises(PreconditionError):
        midpoint_convexity_check(LpZC([1.0], 2.0, 2.0), 2, pairs=0)
    with pytest.raises(PreconditionError):
        functional_norm_estimate(Linear([0.5, 0.0]), LpSpace(2, 2), [1, 2], per_radius=0)


def test_distance_recovery_z():
    rep = distance_recovery_check(Z1, (7,))
    assert rep.passed and rep.supremum == 7


def test_distance_recovery_euclidean():
    rep = distance_recovery_check(LpSpace(2, 2), [3.0, 4.0], tol=1e-9)
    assert rep.passed
    assert rep.supremum == pytest.approx(5.0, abs=1e-9)


def test_distance_recovery_disk():
    rep = distance_recovery_check(PoincareDisk(), 0.6, tol=1e-6)
    assert rep.passed
    assert rep.distance == pytest.approx(math.log(4))


def test_distance_recovery_unsupported():
    with pytest.raises(UnsupportedError):
        distance_recovery_check(StarTreeSpace(), None)


# ---------------------------------------------------------------------------
# Realized limits
# ---------------------------------------------------------------------------


def test_realized_spoke_ray_stabilizes_past_head_index():
    space = SpokeRaySpace()
    rf = RealizedFunctional(space, (space.gamma(k) for k in range(1, 60)), stable_window=4)
    for n in (1, 3, 7, 20):
        out = rf.evaluate(space.spoke_head(n))
        assert out.stabilized
        assert out.value == Fraction(-1, 2)
        assert out.index == max(0, n - 1)  # witness gamma(n) starts the final run


def test_realized_budget_report_not_silent():
    space = SpokeRaySpace()
    # trailing run of length 5 < stable_window: reported, not certified
    rf = RealizedFunctional(space, (space.gamma(k) for k in range(1, 6)), stable_window=10)
    out = rf.evaluate(space.spoke_head(9))  # the drop at t = 9 is never reached
    assert not out.stabilized
    assert out.value == 1  # hub route value, the transient
    with pytest.raises(BudgetError):
        rf.value(space.spoke_head(9))


def test_realized_oscillating_witnesses_not_stabilized():
    space = StarTreeSpace()
    witnesses = [space.endpoint(1 + (k % 2)) for k in range(24)]
    rf = RealizedFunctional(space, witnesses, stable_window=4)
    out = rf.evaluate(space.interval_point(1, 1))
    assert not out.stabilized  # values alternate -1, +1


def test_realized_float_stabilization():
    hp = UpperHalfPlane()
    rf = RealizedFunctional(hp, (complex(0, 2.0**k) for k in range(0, 40)), tol=1e-9)
    out = rf.evaluate(2 + 3j)
    assert out.stabilized
    assert out.value == pytest.approx(-math.log(3.0), abs=1e-9)
    assert out.residual < 1e-10


# A Mersenne prime: a y with this denominator pushes the rows past int64.
BIG = 2**61 - 1


def realized_case(case, rng):
    """(space, witnesses, evaluation points): a schedule heading to the
    boundary with draws from a small pool mixed in, so that values run
    constant, drop late, or never settle."""
    if case == "spoke-ray":
        space = SpokeRaySpace()
        schedule = [space.gamma(k) for k in range(1, 40)]
        pool = space.sample_points(rng, 4)
        extra = [space.spoke_interior(rng.randrange(2, 9), Fraction(1, BIG)),
                 space.ray_point(Fraction(rng.randrange(1, 60), BIG))]
    elif case == "star-tree":
        space = StarTreeSpace()
        schedule = [space.endpoint(n) for n in range(1, 30)]
        pool = space.sample_points(rng, 4)
        extra = [space.interval_point(rng.randrange(1, 9), Fraction(1, BIG))]
    elif case == "cayley":
        space = CayleyGraphSpace(Zd(2))
        c = rng.randrange(-2, 3)
        schedule = [(k, c) for k in range(1, 40)]
        pool = space.sample_points(rng, 4)
        extra = []
    else:  # the half-plane, for the float early stop
        space = UpperHalfPlane()
        x = rng.uniform(-1.0, 1.0)
        schedule = [complex(x, 2.0**k) for k in range(0, 46)]
        pool = space.sample_points(rng, 4)
        extra = []
    witnesses = schedule[: rng.randrange(1, len(schedule) + 1)]
    for _ in range(rng.randrange(0, 4)):
        witnesses.insert(rng.randrange(len(witnesses) + 1), rng.choice(pool))
    ys = space.sample_points(rng, 5) + extra + pool[:1] + witnesses[-1:]
    return space, witnesses, ys


@pytest.mark.parametrize("case", ["spoke-ray", "star-tree", "cayley", "half-plane"])
@given(
    st.integers(0, 2**32),
    st.integers(1, 60),
    st.integers(1, 10),
    st.sampled_from([1e-9, 1e-3, 0.5]),
)
@settings(max_examples=40, deadline=None)
def test_realized_matches_per_witness_loop(case, seed, budget, stable_window, tol):
    space, witnesses, ys = realized_case(case, random.Random(seed))
    rf = RealizedFunctional(space, iter(witnesses), budget=budget, tol=tol, stable_window=stable_window)
    for y in ys:
        out = rf.evaluate(y)
        expected = realized_reference(space, iter(witnesses), y, budget=budget, tol=tol,
                                      stable_window=stable_window)
        assert (out.value, out.stabilized, out.index, out.residual, out.used) == expected


def preload_case(case, rng):
    """``realized_case``, plus the plane l^2 for a float pigeonhole."""
    if case != "plane":
        return realized_case(case, rng)
    space = LpSpace(2, 2)
    schedule = [np.array([2.0**k, 0.0]) for k in range(1, 48)]
    pool = [np.array([1.0, 2.0])] + space.sample_points(rng, 3)
    witnesses = schedule[: rng.randrange(1, len(schedule) + 1)]
    for _ in range(rng.randrange(0, 4)):
        witnesses.insert(rng.randrange(len(witnesses) + 1), rng.choice(pool))
    ys = space.sample_points(rng, 5) + pool[:1] + witnesses[-1:]
    return space, witnesses, ys


@pytest.mark.parametrize("case", ["half-plane", "plane"])
@given(st.integers(0, 2**32), st.integers(1, 60), st.sampled_from([1e-9, 1e-3, 0.5, 4.0]))
@settings(max_examples=60, deadline=None)
def test_realized_float_outcomes_equal_the_reference_bit_for_bit(case, seed, budget, tol):
    # The float rule stops at the first two successive steps below tol/10;
    # value and residual equal the per-witness loop's by float.hex.
    space, witnesses, ys = preload_case(case, random.Random(seed))
    rf = RealizedFunctional(space, iter(witnesses), budget=budget, tol=tol)

    def bits(x):
        return None if x is None else float(x).hex()

    for y in ys:
        out = rf.evaluate(y)
        value, stabilized, index, residual, used = realized_reference(space, iter(witnesses), y, budget=budget, tol=tol)
        assert type(out.value) is float
        assert (bits(out.value), out.stabilized, out.index, bits(out.residual), out.used) == (
            bits(value), stabilized, index, bits(residual), used,
        )


def outcome_fields(out):
    return (out.value, type(out.value), out.stabilized, out.index, out.residual, out.used)


@pytest.mark.parametrize("case", ["spoke-ray", "star-tree", "cayley", "half-plane", "plane"])
@given(st.integers(0, 2**32), st.sampled_from([1e-9, 1e-3]))
@settings(max_examples=30, deadline=None)
def test_preloading_changes_no_outcome(case, seed, tol):
    # Shuffled and duplicated preloads, points preloaded but never evaluated,
    # and a second preload after some evaluations, against limits that read
    # each point alone and against the per-witness loops.
    rng = random.Random(seed)
    space, witnesses, ys = preload_case(case, rng)
    ys = ys + ys[:2]
    never = space.sample_points(rng, 2)
    cut = rng.randrange(len(ys) + 1)
    first = rng.sample(ys, rng.randrange(len(ys) + 1)) + never
    first += rng.sample(first, len(first) // 2)
    rng.shuffle(first)
    second = ys[cut:] + never + ys[:cut]
    rng.shuffle(second)
    pigeonhole = pigeonhole_reference(space, witnesses, ys, tol=tol)
    for limit in (RealizedFunctional, PigeonholeLimit):
        alone, batched = limit(space, witnesses, tol=tol), limit(space, witnesses, tol=tol)
        batched.preload(first)
        for i, y in enumerate(ys):
            if i == cut:
                batched.preload(second)
            out = batched.evaluate(y)
            assert outcome_fields(out) == outcome_fields(alone.evaluate(y))
            assert list(batched.active) == list(alone.active)
            if limit is RealizedFunctional:
                expected = realized_reference(space, iter(witnesses), y, tol=tol)
            else:
                expected, active = pigeonhole[i]
                assert list(batched.active) == active
            assert (out.value, out.stabilized, out.index, out.residual, out.used) == expected


class RowSpace(MetricSpace):
    """Prescribed rows for the witness-limit kernels: witness ("w", k) is at
    distance 0 from the base point "o", and ("y", i) at distance rows[i][k]
    from it, so h_k(("y", i)) = rows[i][k].  The default block reads these
    distances one by one; no metric axiom is asked of them."""

    base_point = "o"

    def __init__(self, rows, exact: bool):
        self.rows, self.exact = rows, exact

    def distance(self, p, q):
        if p[0] == "y" and q[0] == "w":
            return self.rows[p[1]][q[1]]
        return Fraction(0) if self.exact else 0.0


# Two primes below 2^32: values over both are held as Python ints, as their
# lcm passes 2^61.
P, Q = 2147483647, 4294967291
INF, NAN = math.inf, math.nan

# Rows of 1, 2, 5 and 6 witnesses, with runs, all distinct, and non-finite.
# A NaN sorts last in both: in [1, NaN, 1, 1, 1, 1] at recur_min 5 the run
# of 1s is whole only once the NaN is moved out of it.
KERNEL_ROWS = {
    "one witness": (False, [[0.5], [INF], [NAN]]),
    "one witness, Python ints": (True, [[Fraction(1, P)], [Fraction(1, Q)]]),
    "two witnesses": (False, [[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]]),
    "two witnesses, Python ints": (True, [[Fraction(1, P), Fraction(1, P)], [Fraction(1, Q), Fraction(1, P)]]),
    "all distinct": (False, [[5.0, 4.0, 3.0, 2.0, 1.0], [1.0, 2.0, 3.0, 4.0, 5.0]]),
    "all distinct, Python ints": (True, [[Fraction(k, P) for k in (5, 4, 3, 2, 1)], [Fraction(k, Q) for k in range(5)]]),
    "runs, Python ints": (True, [[Fraction(3, Q), 1, 1, Fraction(1, P), Fraction(1, P), Fraction(1, P)],
                                 [2**62, 2**62, 1, 1, 2**63, 2**63]]),
    "non-finite": (False, [[INF, 1.0, INF, 1.0, 1.0, NAN], [-INF, -INF, 2.0, 2.0, 2.0, 2.0],
                           [NAN, 1.0, 1.0 + 1e-12, 1.0, 1.0, 1.0], [INF, INF, INF, INF, INF, INF]]),
    "NaN inside a run": (False, [[1.0, NAN, 1.0, 1.0, 1.0, 1.0]]),
}


def float_bits(outcome):
    """An outcome tuple with each float as its hex text, so that NaN equals NaN."""
    return tuple(x.hex() if type(x) is float else (x, type(x)) for x in outcome)


@pytest.mark.parametrize("exact, rows", KERNEL_ROWS.values(), ids=KERNEL_ROWS)
@pytest.mark.parametrize("k", [2, 3, 5, 7])  # recur_min and stable_window; 7 is past every row
def test_witness_limit_kernels_match_the_per_witness_loops(exact, rows, k):
    space = RowSpace(rows, exact)
    witnesses = [("w", j) for j in range(len(rows[0]))]
    ys = [("y", i) for i in range(len(rows))]
    if exact:
        assert space.functional_rows(witnesses, "o")(ys, np.arange(len(witnesses)))[0].dtype == object
    pigeonhole = pigeonhole_reference(space, witnesses, ys, recur_min=k)
    realized = [realized_reference(space, iter(witnesses), y, stable_window=k) for y in ys]
    for limit, options in ((PigeonholeLimit, {"recur_min": k}), (RealizedFunctional, {"stable_window": k})):
        alone, batched = limit(space, witnesses, **options), limit(space, witnesses, **options)
        batched.preload(ys)
        for i, y in enumerate(ys):
            expected = pigeonhole[i][0] if limit is PigeonholeLimit else realized[i]
            for out in (alone.evaluate(y), batched.evaluate(y)):
                assert float_bits((out.value, out.stabilized, out.index, out.residual, out.used)) == float_bits(expected)
            if limit is PigeonholeLimit:
                assert list(alone.active) == list(batched.active) == pigeonhole[i][1]


class CountingFiniteSpace(FiniteMetricSpace):
    """A finite space that counts the distance blocks its rows read."""

    blocks = 0

    def distance_block(self, points):
        inner = super().distance_block(points)

        def block(ys, idx):
            self.blocks += 1
            return inner(ys, idx)

        return block


def test_each_rows_call_reads_one_block_with_the_origin():
    space = CountingFiniteSpace([[abs(i - j) for j in range(6)] for i in range(6)])
    rows = space.functional_rows([5, 4, 3], 0)
    assert space.blocks == 0
    M, den = rows([1, 2], np.arange(3))
    assert space.blocks == 1
    assert (M.tolist(), den) == ([[-1, -1, -1], [-2, -2, -2]], 1)
    rows([], np.arange(1))
    assert space.blocks == 2
    # A preloaded limit reads its points in one block in all, and evaluates
    # them without reading another.
    space.blocks = 0
    limit = PigeonholeLimit(space, [5, 4, 3, 5, 4])
    limit.preload([1, 2, 3, 1])
    assert space.blocks == 1
    assert [limit.value(y) for y in (1, 2, 3)] == [-1, -2, -3]
    assert space.blocks == 1


SR_WITNESSES = [SpokeRaySpace.ray_point(k) for k in range(1, 20)]
HP_WITNESSES = [complex(0, 2.0**k) for k in range(0, 40)]


@pytest.mark.parametrize("limit", [RealizedFunctional, PigeonholeLimit])
@pytest.mark.parametrize(
    "space, witnesses, good, bad",
    [
        (SpokeRaySpace(), SR_WITNESSES, [("hub",), ("head", 3)], ("ray", 1.5)),
        (SpokeRaySpace(), SR_WITNESSES, [("hub",), ("head", 3)], "hub"),
        (UpperHalfPlane(), HP_WITNESSES, [1j, 2 + 3j], 1 - 1j),
        (UpperHalfPlane(), HP_WITNESSES, [1j, 2 + 3j], "x"),
    ],
)
def test_a_malformed_point_in_a_preload_raises_only_when_evaluated(limit, space, witnesses, good, bad):
    alone, batched = limit(space, witnesses), limit(space, witnesses)
    with pytest.raises(InvalidPointError) as direct:
        alone.evaluate(bad)
    batched.preload([good[0], bad, good[1], bad])
    for y in good:
        assert outcome_fields(batched.evaluate(y)) == outcome_fields(alone.evaluate(y))
    with pytest.raises(InvalidPointError) as late:
        batched.evaluate(bad)
    assert str(late.value) == str(direct.value)


def test_a_failing_audit_stops_before_a_malformed_grid_point():
    # z -> z + 1 near the witnesses, z -> 2z below them: the audit fails at
    # 0.1i, before it reaches the malformed points after it; f applied to "x"
    # raises, so its image and every later one are left to the audit.
    hp = UpperHalfPlane()

    def func(z):
        return z + 1 if z.imag > 0.5 else 2 * z

    f = SelfMap(hp, func, kind="isometry")
    grid = [2j, 0.1j, 1 - 1j, "x", 3j]
    rep = almost_fixed_invariant_functional(f, HP_WITNESSES, [2.0**-j for j in range(31)], grid)
    assert (rep.audit_passed, rep.audit_checked) == (False, 2)
    alone = RealizedFunctional(hp, rep.functional.points)
    gaps = [abs(alone.evaluate(func(x)).value - alone.evaluate(x).value) for x in grid[:2]]
    assert rep.audit_worst == max(gaps) and gaps[1] > 1e-9
    for x in grid[:2]:
        assert outcome_fields(rep.functional.evaluate(x)) == outcome_fields(alone.evaluate(x))
    with pytest.raises(InvalidPointError):
        rep.functional.evaluate("x")


def test_a_block_past_the_ball_limit_is_read_point_by_point(monkeypatch):
    # Z^2 under {x, y, xy} is a search: |(5, 0)| = 5 fits under the limit,
    # but d((-5, 0), (5, 0)) = 10 needs a ball past it.  The preload drops
    # its block; the near point reads its own row, and the far one raises
    # the search's error when it is evaluated.
    monkeypatch.setenv("HOROKIT_MAX_BALL", "200")
    z2 = Zd(2)
    space = CayleyGraphSpace(z2, GeneratingSet.create(z2, [(1, 0), (0, 1), (1, 1)]))
    witnesses = [(5, 0), (5, 0), (4, 0)]
    near, far = (4, 1), (-5, 0)
    with pytest.raises(ResourceLimitError) as direct:
        PigeonholeLimit(space, witnesses).evaluate(far)
    batched = PigeonholeLimit(space, witnesses)
    batched.preload([near, far])
    alone = PigeonholeLimit(space, witnesses).evaluate(near)
    assert outcome_fields(batched.evaluate(near)) == outcome_fields(alone)
    assert alone.value == -3  # |(1, -1)| - |(5, 0)|
    with pytest.raises(ResourceLimitError) as late:
        batched.evaluate(far)
    assert str(late.value) == str(direct.value)


def test_realized_cache_and_eval_functional():
    space = StarTreeSpace()
    rf = RealizedFunctional(space, (space.endpoint(n) for n in range(1, 40)), stable_window=4)
    y = space.interval_point(3, 2)
    assert rf.evaluate(y).value == 2
    assert eval_functional(rf, y) == 2
    assert rf.evaluate(y) is rf.evaluate(y)  # cached


# ---------------------------------------------------------------------------
# l^p limit witnesses
# ---------------------------------------------------------------------------


def test_lp_zc_witnesses_match_closed_form():
    rng = random.Random(0)
    for _ in range(20):
        dim = rng.randrange(1, 5)
        z = [rng.uniform(-2, 2) for _ in range(dim)]
        p = rng.choice([1.5, 2.0, 3.0])
        znorm = sum(abs(v) ** p for v in z) ** (1 / p)
        c = znorm + rng.uniform(0.0, 3.0)
        xs = [[rng.uniform(-3, 3) for _ in range(dim)] for _ in range(3)]
        rep = lp_limit_convergence_check(LpZC(z, c, p), xs, k_range=8, tol=1e-6)
        assert rep.threshold is not None and rep.threshold <= 2
        assert max(rep.deviations) <= 1e-6


def test_zero_witness_rate():
    rep = lp_limit_convergence_check(Zero(), [[1.0, 1.0]], k_range=1000, tol=1e-6)
    assert rep.deviations[999] <= 1e-6
    assert rep.threshold is not None and rep.threshold <= 1000


def test_linear_witness_converges():
    rep = lp_limit_convergence_check(
        Linear([0.5, 0.0]), [[4.0, 1.0]], k_range=64, tol=1e-3
    )
    assert rep.deviations[-1] <= 1e-3
    # target value is -<x, v> = -2
    assert Linear([0.5, 0.0]).evaluate([4.0, 1.0]) == pytest.approx(-2.0)


def test_unit_linear_witness_on_ray_rate():
    # witnesses sit on the ray itself; deviation decays like 1/(2 s(k))
    rep = lp_limit_convergence_check(Linear([1.0, 0.0]), [[4.0, 1.0]], k_range=64, tol=1e-3)
    assert rep.threshold is not None
    assert rep.deviations[-1] == pytest.approx(1.0 / (4.0 * 64**2), rel=0.1)
