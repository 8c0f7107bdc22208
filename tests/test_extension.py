import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horokit.errors import BudgetError, InvalidParameterError, PreconditionError
from horokit.cli import main
from horokit.extension import (
    McShaneExtension,
    PartialFunctional,
    PigeonholeLimit,
    RestrictionAudit,
    euclidean_zero_nonmembership_check,
    hahn_banach_extend,
    spoke_ray_failure_witness,
    star_tree_failure_witness,
)
from horokit.functionals import RealizedFunctional, eval_functional, lipschitz_check
from horokit.groups import CayleyGraphSpace, Heisenberg
from horokit.metric import FiniteMetricSpace
from horokit.spaces import DistortedLine, HUB, LpSpace, PoincareDisk, SpokeRaySpace, StarTreeSpace, UpperHalfPlane

import oracles
from oracles import integer_grid_extensions, pigeonhole_reference, random_rational_metric

SR = SpokeRaySpace()
ST = StarTreeSpace()


# ---------------------------------------------------------------------------
# McShane extensions
# ---------------------------------------------------------------------------


def test_single_point_extensions_are_signed_distance():
    space = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    pf = PartialFunctional(space, [0], [Fraction(0)])
    sup = McShaneExtension(pf, "sup")
    inf = McShaneExtension(pf, "inf")
    assert sup.evaluate([0, 1, 2]) == [0, -1, -2]
    assert inf.evaluate([0, 1, 2]) == [0, 1, 2]


def test_full_domain_reproduces_function():
    space = FiniteMetricSpace([[0, 2, 3], [2, 0, 1], [3, 1, 0]])
    vals = [Fraction(0), Fraction(2), Fraction(3)]
    pf = PartialFunctional(space, [0, 1, 2], vals)
    for mode in ("sup", "inf"):
        ext = McShaneExtension(pf, mode)
        assert ext.evaluate([0, 1, 2]) == vals


def test_non_lipschitz_input_rejected_with_pair():
    space = FiniteMetricSpace([[0, 1], [1, 0]])
    with pytest.raises(InvalidParameterError, match="not 1-Lipschitz"):
        PartialFunctional(space, [0, 1], [Fraction(0), Fraction(5)])


def test_bad_mode_rejected():
    space = FiniteMetricSpace([[0]])
    pf = PartialFunctional(space, [0], [Fraction(0)])
    with pytest.raises(InvalidParameterError):
        McShaneExtension(pf, "mid")


def test_mcshane_random_spaces_exact_properties():
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randrange(3, 12)
        matrix = random_rational_metric(rng, n)
        space = FiniteMetricSpace(matrix)
        k = rng.randrange(1, n)
        domain = sorted(rng.sample(range(n), k))
        base = domain[0]
        values = [matrix[base][i] * (1 if rng.randrange(2) else -1) for i in domain]
        # force 1-Lipschitz via the sup formula over a random seed function
        values = [
            max(values[j] - matrix[domain[j]][domain[i]] for j in range(k))
            for i in range(k)
        ]
        pf = PartialFunctional(space, domain, values)
        sup = McShaneExtension(pf, "sup")
        inf = McShaneExtension(pf, "inf")
        sup_vals = sup.evaluate(list(range(n)))
        inf_vals = inf.evaluate(list(range(n)))
        for i, p in enumerate(domain):
            assert sup_vals[p] == values[i] == inf_vals[p]
        for i in range(n):
            assert sup_vals[i] <= inf_vals[i]
            for j in range(n):
                assert abs(sup_vals[i] - sup_vals[j]) <= matrix[i][j]
                assert abs(inf_vals[i] - inf_vals[j]) <= matrix[i][j]


def test_mcshane_sandwich_against_brute_force():
    rng = random.Random(1)
    for _ in range(6):
        n = 5
        matrix = random_rational_metric(rng, n, integral=True)
        space = FiniteMetricSpace(matrix)
        domain = [0, 2]
        values = [Fraction(0), Fraction(min(2, matrix[0][2]))]
        pf = PartialFunctional(space, domain, values)
        lo = McShaneExtension(pf, "sup").evaluate(list(range(n)))
        hi = McShaneExtension(pf, "inf").evaluate(list(range(n)))
        free = [i for i in range(n) if i not in domain]
        span = int(max(max(row) for row in matrix)) + 2
        grid = range(-span, span + 1)
        extensions = integer_grid_extensions(matrix, domain, values, free, grid)
        assert extensions, "oracle found no integer extensions"
        for ext in extensions:
            for i in range(n):
                assert lo[i] <= ext[i] <= hi[i]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), mode=st.sampled_from(["sup", "inf"]))
def test_mcshane_block_matches_the_per_pair_oracle_on_finite_spaces(seed, n, mode):
    rng = random.Random(seed)
    matrix = random_rational_metric(rng, n)
    domain = [rng.randrange(n) for _ in range(rng.randrange(1, n + 2))]  # repeats allowed
    seed_values = [Fraction(rng.randrange(-20, 21), rng.randrange(1, 5)) for _ in domain]
    values = [max(s - matrix[a][b] for a, s in zip(domain, seed_values)) for b in domain]  # 1-Lipschitz
    targets = [rng.randrange(n) for _ in range(rng.randrange(0, 2 * n))]  # any order, repeats, or none
    got = McShaneExtension(PartialFunctional(FiniteMetricSpace(matrix), domain, values), mode).evaluate(targets)
    assert got == oracles.mcshane_reference(matrix, domain, values, targets, mode)
    assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("mode", ["sup", "inf"])
@pytest.mark.parametrize(
    "far, values",
    [
        (2**40 + 3, [Fraction(0), Fraction(1, 2**30)]),  # 2^40 over 2^30 is 2^70, past int64
        (2**60, [Fraction(0), Fraction(1, 8)]),  # the finite repro of the CI step at the int64 edge
        (2**62 + 1, [Fraction(-5, 3), Fraction(2**61, 7)]),  # the matrix itself past int64
    ],
    ids=["2^40 over 2^30", "2^60 over 8", "2^62 matrix"],
)
def test_mcshane_block_holds_values_past_int64_as_python_ints(far, values, mode):
    matrix = [[0, far, far], [far, 0, 1], [far, 1, 0]]
    space = FiniteMetricSpace(matrix)
    targets = [2, 1, 0, 2]
    got = McShaneExtension(PartialFunctional(space, [0, 1], values), mode).evaluate(targets)
    assert got == oracles.mcshane_reference(matrix, [0, 1], values, targets, mode)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["sup", "inf"]))
@pytest.mark.parametrize(
    "make",
    [DistortedLine, lambda: LpSpace(3, 2), lambda: LpSpace(math.inf, 3), PoincareDisk, UpperHalfPlane,
     SpokeRaySpace, StarTreeSpace, lambda: CayleyGraphSpace(Heisenberg())],
    ids=["distorted-line", "l3", "linf", "disk", "half-plane", "spoke-ray", "star-tree", "heisenberg"],
)
def test_mcshane_block_matches_the_per_pair_oracle_on_other_spaces(make, seed, mode):
    # Float values are v -+ d(a, b) of distance() bit for bit; exact ones are equal Fractions.
    rng = random.Random(seed)
    space = make()
    domain = space.sample_points(rng, rng.randrange(1, 6))
    z = space.sample_points(rng, 1)[0]
    values = [space.distance(a, z) - space.distance(space.base_point, z) for a in domain]
    targets = space.sample_points(rng, rng.randrange(0, 6)) + domain[:1]
    got = McShaneExtension(PartialFunctional(space, domain, values), mode).evaluate(targets)
    want = oracles.mcshane_reference(space.distance, domain, values, targets, mode)
    if space.exact:
        assert got == want and all(type(v) is Fraction for v in got)
    else:
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


def test_mcshane_reads_values_of_any_number_type_exactly_on_exact_spaces():
    # A float or NumPy value on an exact space is the rational it holds.
    pf = PartialFunctional(FiniteMetricSpace([[0, 1], [1, 0]]), [0, 1], [0.5, np.int64(1)])
    assert McShaneExtension(pf, "sup").evaluate([0, 1]) == [Fraction(1, 2), Fraction(1)]
    assert McShaneExtension(pf, "inf").evaluate([0, 1]) == [Fraction(1, 2), Fraction(1)]


def test_mcshane_extension_is_a_functional_of_one_point():
    # eval_functional and lipschitz_check read an extension at one point at a time.
    matrix = random_rational_metric(random.Random(4), 5)
    space = FiniteMetricSpace(matrix)
    for mode in ("sup", "inf"):
        ext = McShaneExtension(PartialFunctional(space, [1, 3], [Fraction(0), matrix[1][3] / 2]), mode)
        assert [eval_functional(ext, b) for b in range(5)] == [ext(b) for b in range(5)] == ext.evaluate(range(5))
        assert lipschitz_check(ext, space, pairs=40).passed


def test_mcshane_reads_one_block_per_extension(monkeypatch):
    matrix = random_rational_metric(random.Random(3), 6)
    values = [Fraction(0), matrix[0][4]]
    ext = McShaneExtension(PartialFunctional(FiniteMetricSpace(matrix), [0, 4], values), "inf")
    blocks = []
    real = FiniteMetricSpace.distance_block
    monkeypatch.setattr(FiniteMetricSpace, "distance_block", lambda self, pts: blocks.append(pts) or real(self, pts))
    monkeypatch.setattr(FiniteMetricSpace, "distance", None)  # no pair is read alone
    assert ext.evaluate(list(range(6))) == oracles.mcshane_reference(matrix, [0, 4], values, range(6), "inf")
    assert blocks == [[0, 4]]


# ---------------------------------------------------------------------------
# Subset-to-space extension
# ---------------------------------------------------------------------------


def ray_limit_on_ray(y):
    return Fraction(0) if y == HUB else -y[1]


def test_extension_spoke_ray_heads():
    res = hahn_banach_extend(
        SR,
        ray_limit_on_ray,
        (SR.gamma(k) for k in range(1, 70)),
        eval_points=[SR.spoke_head(n) for n in range(1, 51)],
        audit_points=[HUB] + [SR.gamma(s) for s in range(1, 13)],
    )
    assert res.audit.passed
    for out in res.table.values():
        assert out.stabilized
        assert out.value == Fraction(-1, 2)


def test_extension_restriction_audit_exact():
    res = hahn_banach_extend(
        SR,
        ray_limit_on_ray,
        (SR.gamma(k) for k in range(1, 40)),
        audit_points=[SR.gamma(Fraction(s, 2)) for s in range(0, 20)],
    )
    assert res.audit.passed
    assert res.audit.worst == 0


def test_extension_plane_from_axis():
    lp = LpSpace(2, 2)
    res = hahn_banach_extend(
        lp,
        lambda y: -float(np.asarray(y).ravel()[0]),
        (np.array([2.0**k, 0.0]) for k in range(1, 48)),
        eval_points=[np.array([3.0, 4.0]), np.array([-2.0, 1.0])],
        audit_points=[np.array([s, 0.0]) for s in (0.0, 1.0, 5.0, 17.0)],
    )
    assert res.audit.passed
    vals = {k: v.value for k, v in res.table.items()}
    assert vals["(3.0,4.0)"] == pytest.approx(-3.0, abs=1e-9)
    assert vals["(-2.0,1.0)"] == pytest.approx(2.0, abs=1e-9)


def test_extension_star_tree_endpoint_witnesses():
    # h on Y = {hub, x_1, x_2, ...} is the limit of h_{x_n}: h(x_m) = m = d(hub, x_m)
    res = hahn_banach_extend(
        ST,
        lambda y: ST.distance(HUB, y),
        (ST.endpoint(n) for n in range(1, 40)),
        eval_points=[ST.interval_point(m, Fraction(1, 2)) for m in range(1, 8)],
        audit_points=[ST.endpoint(m) for m in range(1, 10)],
    )
    assert res.audit.passed
    for out in res.table.values():
        assert out.stabilized
        assert out.value == Fraction(1, 2)  # extension is d(hub, .) everywhere


def test_extension_trivial_subset_equals_function():
    res = hahn_banach_extend(
        SR,
        ray_limit_on_ray,
        (SR.gamma(k) for k in range(1, 30)),
        eval_points=[SR.gamma(5), SR.gamma(Fraction(7, 2))],
        audit_points=[SR.gamma(5)],
    )
    assert res.table["ray(5)"].value == -5


def test_extension_audit_reports_the_first_mismatch():
    # h is off by 1 at ray(3): the audit compares hub, ray(1), ray(2) and
    # ray(3) in point-key order, stops there, and never reaches ray(5).
    res = hahn_banach_extend(
        SR,
        lambda y: ray_limit_on_ray(y) + (y == SR.gamma(3)),
        (SR.gamma(k) for k in range(1, 40)),
        audit_points=[SR.gamma(s) for s in (5, 1, 3, 2)] + [HUB],
    )
    assert res.audit == RestrictionAudit(False, 4, 1, ("restriction_mismatch", SR.gamma(3), -3, -2))


def test_extension_audit_reports_an_unstabilized_point():
    # Two witnesses give ray(5) the values -1 and -3: no value recurs, so
    # the audit stops there without counting it, after the hub's exact 0.
    res = hahn_banach_extend(SR, ray_limit_on_ray, (SR.gamma(k) for k in (1, 2)), audit_points=[SR.gamma(5), HUB])
    assert res.audit == RestrictionAudit(False, 1, 0, ("no_stabilization", SR.gamma(5)))
    assert not res.functional.evaluate(SR.gamma(5)).stabilized


def test_mcshane_report_labels_distorted_line_points(capsys):
    # A distorted-line point is labelled by the repr of its float.
    code = main(["extend", "mcshane", "--space", '{"type": "distorted_line"}', "--domain", "[0, 4]",
                 "--values", '["0", "1"]', "--eval", "[2.5, -1, 9]"])
    assert code == 0
    values = json.loads(capsys.readouterr().out)["result"]["values"]
    expected = [max(0 - math.sqrt(abs(x)), 1 - math.sqrt(abs(x - 4))) for x in (2.5, -1, 9)]
    assert values == [{"point": p, "value": v} for p, v in zip(["2.5", "-1.0", "9.0"], expected)]


def test_pigeonhole_needs_witnesses():
    # Both limit classes refuse an empty schedule when built, not at the
    # first evaluation.
    for limit in (PigeonholeLimit, RealizedFunctional):
        with pytest.raises(PreconditionError, match="empty"):
            limit(SR, iter(()))


def test_pigeonhole_limit_is_evaluated_by_its_value():
    # eval_functional gives the stabilized value of either limit class, so
    # the generic checks accept a pigeonhole limit: on the star tree the
    # endpoints' limit is d(hub, .) on branches below 40.
    H = PigeonholeLimit(ST, [ST.endpoint(n) for n in range(1, 40)])
    y = ST.interval_point(3, 2)
    assert eval_functional(H, y) == 2
    assert lipschitz_check(H, ST, pairs=50).passed
    with pytest.raises(BudgetError):
        eval_functional(PigeonholeLimit(ST, [ST.endpoint(1), ST.endpoint(2)]), ST.interval_point(1, 1))


def test_pigeonhole_budget_report():
    # alternating witnesses between two branch ends never recur pointwise
    wit = [ST.endpoint(1), ST.endpoint(2), ST.endpoint(3)]
    H = PigeonholeLimit(ST, wit, recur_min=4)
    out = H.evaluate(ST.interval_point(1, 1))
    assert not out.stabilized
    with pytest.raises(BudgetError):
        H.value(ST.interval_point(1, 1))


# A Mersenne prime: a y with this denominator pushes the rows past int64.
BIG = 2**61 - 1


def pigeonhole_case(case, rng):
    """(space, witnesses, evaluation points) drawn from small pools, so that
    values recur, with repeated points and, on the exact tree spaces, new
    denominators arriving mid-sequence."""
    if case == "spoke-ray":
        space = SR
        pool = [SR.gamma(k) for k in range(1, 30)] + SR.sample_points(rng, 6)
        extra = [SR.ray_point(Fraction(rng.randrange(1, 60), 7)),
                 SR.spoke_interior(rng.randrange(2, 9), Fraction(1, BIG))]
    elif case == "star-tree":
        space = ST
        pool = [ST.endpoint(n) for n in range(1, 20)] + ST.sample_points(rng, 6)
        extra = [ST.interval_point(rng.randrange(1, 9), Fraction(1, 11)),
                 ST.interval_point(rng.randrange(1, 9), Fraction(1, BIG))]
    elif case == "finite":
        space = FiniteMetricSpace(random_rational_metric(rng, 7))
        pool, extra = space.points(), []
    elif case == "plane":
        space = LpSpace(2, 2)
        pool = [np.array([2.0**k, 0.0]) for k in range(1, 48)] + space.sample_points(rng, 4)
        extra = []
    else:  # the distorted line
        space = DistortedLine("sqrt")
        pool = [float(4**k) for k in range(1, 30)] + space.sample_points(rng, 4)
        extra = []
    witnesses = [rng.choice(pool) for _ in range(rng.randrange(1, 40))]
    if rng.random() < 0.5:
        witnesses.sort(key=space.point_key)
    ys = space.sample_points(rng, 5) + extra + [rng.choice(pool) for _ in range(3)]
    rng.shuffle(ys)
    return space, witnesses, ys + ys[:2]


@given(
    st.sampled_from(["spoke-ray", "star-tree", "finite", "plane", "line"]),
    st.integers(0, 2**32),
    st.integers(1, 5),
    st.sampled_from([1e-9, 1e-3, 0.5]),
)
@settings(max_examples=80, deadline=None)
def test_pigeonhole_matches_per_witness_loop(case, seed, recur_min, tol):
    space, witnesses, ys = pigeonhole_case(case, random.Random(seed))
    H = PigeonholeLimit(space, witnesses, tol=tol, recur_min=recur_min)
    expected = pigeonhole_reference(space, witnesses, ys, tol=tol, recur_min=recur_min)
    for y, (outcome, active) in zip(ys, expected):
        out = H.evaluate(y)
        assert (out.value, out.stabilized, out.index, out.residual, out.used) == outcome
        assert type(out.value) is type(outcome[0])
        assert list(H.active) == active


def test_pigeonhole_spoke_ray_fixture_never_asks_distance(monkeypatch, tmp_path):
    # The batched rows must serve every evaluation: no per-pair fallback.
    def refuse(self, p, q):
        raise AssertionError("SpokeRaySpace.distance called")

    monkeypatch.setattr(SpokeRaySpace, "distance", refuse)
    out = tmp_path / "report.json"
    code = main(["extend", "hahn-banach", "--fixture", "spoke-ray", "--n", "40", "--out", str(out)])
    assert code == 0
    result = json.loads(out.read_text())["result"]
    assert set(result["values"].values()) == {"-1/2"}
    assert result["audit"]["passed"] and result["audit"]["checked"] == 12


# ---------------------------------------------------------------------------
# Failure witnesses
# ---------------------------------------------------------------------------


def test_spoke_ray_gap_is_three_halves_for_all_stages():
    rep = spoke_ray_failure_witness(1, list(range(1, 40, 4)))
    for w in rep.witnesses:
        assert w.gap == Fraction(3, 2)
        assert w.value_at_stage == 1
        assert w.limit_value == Fraction(-1, 2)


def test_spoke_ray_witness_point_inside_unit_ball():
    rep = spoke_ray_failure_witness(1, [10])
    assert rep.witnesses[0].point == "head(11)"
    assert SR.distance(HUB, SR.spoke_head(11)) == 1


def test_star_tree_gap_is_twice_depth():
    rep = star_tree_failure_witness(2, [3, 6, 9])
    for w in rep.witnesses:
        assert w.gap == 4  # 2s with s = min(r, n) = 2


def test_star_tree_pointwise_limit_stabilizes():
    # realized limit of h_{x_n} equals d(hub, .) pointwise, stabilizing past
    # the point's own branch index
    rf = RealizedFunctional(ST, (ST.endpoint(n) for n in range(1, 30)), stable_window=4)
    for m in (1, 2, 4):
        y = ST.interval_point(m, Fraction(1))
        out = rf.evaluate(y)
        assert out.stabilized
        assert out.value == ST.distance(HUB, y)
        assert out.index == m  # witness x_{m+1} starts the constant tail


def test_failure_witness_preconditions():
    with pytest.raises(PreconditionError):
        spoke_ray_failure_witness(0, [3])
    with pytest.raises(PreconditionError):
        spoke_ray_failure_witness(1, [Fraction(1, 2)])


@pytest.mark.parametrize("call, message", [
    (lambda: spoke_ray_failure_witness(1, ["x"]), "stage must be a rational number, got 'x'"),
    (lambda: spoke_ray_failure_witness(math.nan, [3]), "r must be a rational number, got nan"),
    (lambda: star_tree_failure_witness(math.inf, [3]), "r must be a rational number, got inf"),
    (lambda: star_tree_failure_witness("x", [3]), "r must be a rational number, got 'x'"),  # was a TypeError
    (lambda: euclidean_zero_nonmembership_check([1, None]), "anchor must be a rational number, got None"),
], ids=["stage", "spoke r", "star r", "star r text", "anchor"])
def test_witness_fields_are_named(call, message):
    with pytest.raises(InvalidParameterError) as exc:
        call()
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# The zero functional and the one-dimensional obstruction
# ---------------------------------------------------------------------------


def test_zero_obstruction_clospd_forms():
    rep = euclidean_zero_nonmembership_check([10, -10, 0, Fraction(1, 2), 1, -1])
    assert rep.passed
    assert rep.min_of_max == 1
    assert rep.outside_identity_ok and rep.inside_identity_ok


def test_zero_obstruction_specific_values():
    # h_z(1) = |1 - z| - |z|
    assert abs(1 - 10) - 10 == -1
    assert abs(1 + 10) - 10 == 1
    assert abs(1 - 0) - 0 == 1


@given(st.fractions(min_value=-50, max_value=50))
@settings(max_examples=80, deadline=None)
def test_zero_obstruction_any_rational_anchor(z):
    rep = euclidean_zero_nonmembership_check([z])
    assert rep.min_of_max == 1


def test_perpendicular_ray_vanishes_on_axis_yet_zero_not_of_axis():
    # Busemann functional along (0, t) in the plane restricts to 0 on the
    # x-axis, although the zero function is not a limit there: extension
    # enlarges the functional set, restriction can leave it.
    lp = LpSpace(2, 2)
    rf = RealizedFunctional(lp, (np.array([0.0, 2.0**k]) for k in range(1, 48)), tol=1e-9)
    for s in (-3.0, 0.0, 1.0, 7.0):
        out = rf.evaluate(np.array([s, 0.0]))
        assert out.stabilized
        assert abs(out.value) <= 1e-9
    rep = euclidean_zero_nonmembership_check([Fraction(k, 3) for k in range(-30, 31)])
    assert rep.passed
