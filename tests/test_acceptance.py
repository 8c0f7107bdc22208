"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run pytest with -s or read the captured
output; everything asserts, so a red criterion fails the suite).
"""

import math
import random
import time
from fractions import Fraction

from horokit.boundary import (
    DriftMeasure,
    ZFunctional,
    drift_audit,
    limit_restrictions,
    reduced_classify_z,
    sphere_restrictions,
    unboundedness_check,
)
from horokit.dynamics import (
    MoebiusMap,
    OrbitSpace,
    almost_fixed_invariant_functional,
    disk_parabolic_horocycle_audit,
    distorted_compactification_check,
    group_translation,
    half_plane_translation,
    parabolic_orbit_functional,
    random_hyperbolic_pair,
    spectral_principle_witness,
    tracial_check,
)
from horokit.extension import (
    McShaneExtension,
    PartialFunctional,
    hahn_banach_extend,
    spoke_ray_failure_witness,
    star_tree_failure_witness,
)
from horokit.functionals import (
    DiskBusemann,
    HalfPlaneBusemannInfinity,
    Linear,
    LpMu,
    LpZC,
    RealizedFunctional,
    ZdLinear,
    Zero,
    distance_recovery_check,
    functional_norm_estimate,
    lipschitz_check,
    lp_limit_convergence_check,
    midpoint_convexity_check,
)
from horokit.groups import (
    CayleyGraphSpace,
    FreeGroup,
    GeneratingSet,
    Heisenberg,
    Zd,
    cayley_ball,
)
from horokit.metric import FiniteMetricSpace
from horokit.spaces import (
    HUB,
    DistortedLine,
    LpSpace,
    PoincareDisk,
    SpokeRaySpace,
    StarTreeSpace,
    UpperHalfPlane,
)

from oracles import (
    free_end_restrictions,
    integer_grid_extensions,
    l1_restrictions,
    random_rational_metric,
)


def _report(number: int, label: str, started: float, limit: float, ok: bool):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} {label} ({elapsed:.2f}s < {limit}s)")
    assert ok, label
    assert elapsed < limit, f"{label}: {elapsed:.2f}s exceeded {limit}s"


def test_acceptance_01_two_point_theorem_z():
    t0 = time.perf_counter()
    z1 = Zd(1)
    lrs = limit_restrictions(z1, GeneratingSet.standard(z1), 3, 20, 5)
    ok = (
        len(lrs.values) == 2
        and lrs.certificate.kind == "stabilized"
        and (lrs.values.min(axis=1) == -3).all()
        and unboundedness_check(lrs).passed
    )
    _report(1, "two-point theorem on Z (r=3, R=20, window=5)", t0, 1.0, ok)


def test_acceptance_02_two_point_theorem_f2():
    t0 = time.perf_counter()
    f2 = FreeGroup(2)
    lrs = limit_restrictions(f2, GeneratingSet.standard(f2), 2, 8, 3)
    oracle = free_end_restrictions(2, 2)
    ok = (
        len(lrs.values) == 12
        and lrs.certificate.kind == "stabilized"
        and list(map(tuple, lrs.values.tolist())) == oracle
        and ((lrs.values == -2).sum(axis=1) == 1).all()
    )
    _report(2, "two-point theorem on F2 (r=2): 12 tree ends", t0, 5.0, ok)


def test_acceptance_03_z2_restrictions():
    t0 = time.perf_counter()
    z2 = Zd(2)
    gens = GeneratingSet.standard(z2)
    lrs = limit_restrictions(z2, gens, 1, 12, 4)
    oracle = l1_restrictions(2, 1, 4)
    ball = cayley_ball(z2, gens, 13)
    per_radius_ok = all(
        list(map(tuple, sphere_restrictions(ball, 1, R).tolist())) == oracle
        for R in range(4, 13)
    )
    ok = (
        len(lrs.values) == 8
        and list(map(tuple, lrs.values.tolist())) == oracle
        and per_radius_ok
        and unboundedness_check(lrs).passed
    )
    _report(3, "Z^2 restrictions (r=1): 8 patterns at R=4..12", t0, 5.0, ok)


def test_acceptance_04_heisenberg_unboundedness():
    t0 = time.perf_counter()
    h3 = Heisenberg()
    lrs = limit_restrictions(h3, GeneratingSet.standard(h3), 2, 12, 4)
    ok = (
        lrs.certificate.kind in ("stabilized", "heuristic")
        and len(lrs.values) >= 2
        and (lrs.values.min(axis=1) == -2).all()
    )
    _report(4, "Heisenberg unboundedness (r=2, R=12)", t0, 60.0, ok)


def test_acceptance_05_mcshane_suite():
    t0 = time.perf_counter()
    rng = random.Random(0)
    ok = True
    for _ in range(100):
        n = rng.randrange(3, 21)
        matrix = random_rational_metric(rng, n)
        space = FiniteMetricSpace(matrix)
        k = rng.randrange(1, max(2, n // 2))
        domain = sorted(rng.sample(range(n), k))
        seed_vals = [matrix[domain[0]][i] for i in domain]
        values = [
            max(seed_vals[j] - matrix[domain[j]][domain[i]] for j in range(k))
            for i in range(k)
        ]
        pf = PartialFunctional(space, domain, values)
        sup = McShaneExtension(pf, "sup")
        inf = McShaneExtension(pf, "inf")
        sup_vals = sup.evaluate(list(range(n)))
        inf_vals = inf.evaluate(list(range(n)))
        for i, p in enumerate(domain):
            ok = ok and sup_vals[p] == values[i] == inf_vals[p]
        for i in range(n):
            ok = ok and sup_vals[i] <= inf_vals[i]
            for j in range(i + 1, n):
                ok = ok and abs(sup_vals[i] - sup_vals[j]) <= matrix[i][j]
                ok = ok and abs(inf_vals[i] - inf_vals[j]) <= matrix[i][j]
    # sandwich against the brute-force enumeration on small instances
    for _ in range(4):
        n = rng.randrange(4, 7)
        matrix = random_rational_metric(rng, n, integral=True)
        space = FiniteMetricSpace(matrix)
        domain = [0, n - 1]
        values = [Fraction(0), Fraction(min(1, matrix[0][n - 1]))]
        pf = PartialFunctional(space, domain, values)
        lo = McShaneExtension(pf, "sup").evaluate(list(range(n)))
        hi = McShaneExtension(pf, "inf").evaluate(list(range(n)))
        free = [i for i in range(n) if i not in domain]
        span = int(max(max(row) for row in matrix)) + 1
        for ext in integer_grid_extensions(matrix, domain, values, free, range(-span, span + 1)):
            for i in range(n):
                ok = ok and lo[i] <= ext[i] <= hi[i]
    _report(5, "sup/inf extension suite: 100 exact spaces + brute-force sandwich", t0, 10.0, ok)


def test_acceptance_06_hahn_banach_and_failure_witnesses():
    t0 = time.perf_counter()
    sr = SpokeRaySpace()
    res = hahn_banach_extend(
        sr,
        lambda y: Fraction(0) if y == HUB else -y[1],
        (sr.gamma(k) for k in range(1, 70)),
        eval_points=[sr.spoke_head(n) for n in range(1, 51)],
        audit_points=[HUB] + [sr.gamma(s) for s in range(1, 13)],
    )
    ok = res.audit.passed and all(
        out.stabilized and out.value == Fraction(-1, 2) for out in res.table.values()
    )
    gaps = spoke_ray_failure_witness(1, list(range(1, 31, 3)))
    ok = ok and len(gaps.witnesses) == 10
    ok = ok and all(w.gap == Fraction(3, 2) for w in gaps.witnesses)
    st = StarTreeSpace()
    rf = RealizedFunctional(st, (st.endpoint(n) for n in range(1, 40)), stable_window=4)
    for m in (1, 2, 3, 5, 8):
        y = st.interval_point(m, Fraction(1))
        out = rf.evaluate(y)
        ok = ok and out.stabilized and out.value == st.distance(HUB, y) and out.index == m
    tree_gaps = star_tree_failure_witness(2, [3, 5, 9])
    ok = ok and all(w.gap == 2 * min(2, int(w.stage)) for w in tree_gaps.witnesses)
    _report(6, "subset extension exact on spokes; non-uniformity gaps 3/2 and 2s", t0, 1.0, ok)


def test_acceptance_07_tracial_property():
    t0 = time.perf_counter()
    rng = random.Random(0)
    hp = UpperHalfPlane()
    pairs = [random_hyperbolic_pair(rng) for _ in range(50)]
    ok = all(f.compose(g).trace() == g.compose(f).trace() for f, g in pairs)  # exact
    for rep in tracial_check([(f.as_selfmap(hp), g.as_selfmap(hp)) for f, g in pairs], 200):
        ok = ok and rep.closed_form_gap == 0 and rep.estimate_gap <= rep.proof_bound + 1e-9
    _report(7, "tracial property: 50 pairs, exact trace identity + bounded estimates", t0, 10.0, ok)


def test_acceptance_08_spectral_principle():
    t0 = time.perf_counter()
    hp = UpperHalfPlane()
    m = MoebiusMap(2, 0, 0, Fraction(1, 2))  # z -> 4z, axis through i
    f = m.as_selfmap(hp)
    h = HalfPlaneBusemannInfinity()
    ok = True
    z = 1j
    for n in range(1, 101):
        z = f.apply(z)
        ok = ok and abs(h.evaluate(z) + n * math.log(4)) <= 1e-9
    rep = spectral_principle_witness(f, [h], 100, tol=1e-9)
    ok = ok and rep.passed
    _report(8, "spectral principle along z -> 4z: decay rate log 4 within 1e-9", t0, 1.0, ok)


def test_acceptance_09_parabolic_theorem():
    t0 = time.perf_counter()
    worst, vals = disk_parabolic_horocycle_audit(-100, 100)
    ok = worst <= 1e-9 and len(vals) == 201
    fam = Heisenberg()
    space = CayleyGraphSpace(fam)
    orbit = OrbitSpace.from_selfmap(group_translation(space, fam.central(1)), 64)
    rep = parabolic_orbit_functional(orbit, eval_hi=16, averaging=16, delta=1.0)
    base = rep.indices.index(0)
    frozen = [0, 0, 0, 0, 0, 0, 0, -2, -2, -2, -2, -2, -2, -4, -4, -4, -4]
    ok = ok and rep.monotone_ok
    ok = ok and rep.values[base : base + 17] == frozen
    # vanishing trend: the candidate shrinks as the window grows
    rep32 = parabolic_orbit_functional(OrbitSpace(orbit.D[:33]), eval_hi=16, averaging=16, delta=1.0)
    ok = ok and rep.vanishing_sup < rep32.vanishing_sup
    _report(9, "parabolic fixtures: horocycle invariance 1e-9; central orbit candidate", t0, 60.0, ok)


def test_acceptance_10_almost_fixed_point():
    t0 = time.perf_counter()
    hp = UpperHalfPlane()
    f = half_plane_translation(1.0).as_selfmap(hp)
    grid = hp.sample_points(random.Random(0), 100)
    rep = almost_fixed_invariant_functional(
        f,
        [complex(0.0, 2.0**k) for k in range(0, 46)],
        [2.0**-j for j in range(0, 31)],
        grid,
        tol=1e-9,
    )
    ok = rep.equality_mode and rep.audit_passed and rep.audit_checked == 100
    ok = ok and rep.audit_worst <= 1e-9
    _report(10, "almost-fixed invariance: h(f(x)) = h(x) within 1e-9 on 100 points", t0, 1.0, ok)


def test_acceptance_11_distorted_line():
    t0 = time.perf_counter()
    rep = distorted_compactification_check(DistortedLine("log1p"), 10.0, [1e2, 1e4, 1e6])
    ok = rep.decreasing and rep.sups[-1] <= 1e-4
    _report(11, "distorted line log1p: sup <= 1e-4 at |x| = 1e6, strictly decreasing", t0, 1.0, ok)


def test_acceptance_12_convexity_and_lipschitz_suites():
    t0 = time.perf_counter()
    l2 = LpSpace(2, 8)
    functionals = [
        LpZC([1.0, -2.0, 0.5], 4.0, 2.0),
        LpMu([0.3, -0.4, 0.5], 2.0),
        Linear([0.6, 0.8]),
        Zero(),
    ]
    ok = True
    for f in functionals:
        ok = ok and lipschitz_check(f, l2, pairs=10_000, tol=1e-12).passed
        ok = ok and midpoint_convexity_check(f, 8, pairs=10_000, tol=1e-12).passed
    f3 = LpZC([1.0, 0.5], 2.0, 3.0)
    ok = ok and lipschitz_check(f3, LpSpace(3, 6), pairs=10_000, tol=1e-12).passed
    ok = ok and midpoint_convexity_check(f3, 6, pairs=10_000, tol=1e-12).passed
    ok = ok and lipschitz_check(DiskBusemann(1), PoincareDisk(), pairs=10_000, tol=1e-12).passed
    _report(12, "model functionals: 1-Lipschitz and midpoint convexity at 1e-12", t0, 10.0, ok)


def test_acceptance_13_reduced_compactification_z():
    t0 = time.perf_counter()
    fs = [ZFunctional.point(n) for n in range(-10, 11)]
    fs += [ZFunctional.plus_end(), ZFunctional.minus_end()]
    classes = reduced_classify_z(fs)
    sizes = sorted(len(c) for c in classes)
    ok = len(classes) == 3 and sizes == [1, 1, 21]
    _report(13, "reduced classes of Z: {finite, +end, -end}", t0, 1.0, ok)


def test_acceptance_14_norm_and_distance_recovery():
    t0 = time.perf_counter()
    est = functional_norm_estimate(DiskBusemann(1), PoincareDisk(), [1, 2, 4, 8])
    ok = 1 - 1e-3 <= est.estimate <= 1 + 1e-12
    ok = ok and distance_recovery_check(PoincareDisk(), 0.6, tol=1e-6).passed
    ok = ok and distance_recovery_check(LpSpace(2, 2), [3.0, 4.0], tol=1e-6).passed
    z_rep = distance_recovery_check(CayleyGraphSpace(Zd(1)), (7,))
    ok = ok and z_rep.gap == 0
    _report(14, "functional norm -> 1; distance recovery on disk/plane/Z", t0, 5.0, ok)


def test_acceptance_15_lp_limits():
    t0 = time.perf_counter()
    rng = random.Random(0)
    ok = True
    for _ in range(20):
        dim = rng.randrange(1, 5)
        z = [rng.uniform(-2, 2) for _ in range(dim)]
        p = rng.choice([1.5, 2.0, 3.0])
        znorm = sum(abs(v) ** p for v in z) ** (1 / p)
        c = znorm + rng.uniform(0.0, 3.0)
        xs = [[rng.uniform(-3, 3) for _ in range(dim)] for _ in range(3)]
        rep = lp_limit_convergence_check(LpZC(z, c, p), xs, k_range=8, tol=1e-6)
        ok = ok and rep.threshold is not None and max(rep.deviations) <= 1e-6
    zero_rep = lp_limit_convergence_check(Zero(), [[1.0, 1.0]], k_range=1000, tol=1e-6)
    ok = ok and zero_rep.deviations[999] <= 1e-6
    _report(15, "l^p witnesses: 20 seeded (z,c,p) fixtures; zero witness at k=1000", t0, 5.0, ok)


def test_acceptance_16_drift_homomorphism():
    t0 = time.perf_counter()
    ok = True
    z_space = CayleyGraphSpace(Zd(1))
    m1 = DriftMeasure.create(
        z_space, [(ZdLinear([1]), Fraction(1, 2)), (ZdLinear([-1]), Fraction(1, 2))]
    )
    rep1 = drift_audit(m1, [(k,) for k in range(-10, 11)])
    ok = ok and rep1.passed and all(m1.integrate((k,)) == 0 for k in range(-10, 11))
    z2_space = CayleyGraphSpace(Zd(2))
    m2 = DriftMeasure.create(z2_space, [(ZdLinear([1, 0]), Fraction(1))])
    els = [(a, b) for a in range(-5, 6) for b in range(-5, 6) if abs(a) + abs(b) <= 10]
    rep2 = drift_audit(m2, els)
    ok = ok and rep2.passed
    _report(16, "drift homomorphism on Z and Z^2: exact additivity and 1-Lipschitz", t0, 1.0, ok)
