import dataclasses
import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from horokit import boundary
from horokit.boundary import (
    DriftAuditReport,
    DriftMeasure,
    ZFunctional,
    _unique_rows,
    act_on_rows,
    drift_audit,
    limit_restrictions,
    reduced_classify_z,
    reduced_fixed_point_audit,
    sphere_restrictions,
    unboundedness_check,
)
from horokit.dynamics import MoebiusMap, group_translation, half_plane_translation
from horokit.errors import (
    InvalidParameterError,
    PreconditionError,
    UnsupportedError,
)
from horokit.functionals import BallFunctional, HalfPlaneBusemannInfinity, ZdLinear, check_rows
from horokit.groups import (
    CayleyGraphSpace,
    FiniteGroup,
    FreeGroup,
    cyclic_group,
    GeneratingSet,
    Heisenberg,
    Zd,
    cayley_ball,
)
from horokit.serialize import emit_json
from horokit.spaces import PoincareDisk, UpperHalfPlane

import oracles
from oracles import (
    bfs_ball,
    bfs_restrictions,
    free_end_restrictions,
    free_reduce,
    free_restrictions,
    free_restrictions_array,
    h3_restrictions,
    heis_mul,
    l1_restrictions,
    l1_restrictions_array,
    translated_rows,
)

Z1 = Zd(1)
Z1_GENS = GeneratingSet.standard(Z1)


def test_z_sphere_restrictions_two_patterns():
    ball = cayley_ball(Z1, Z1_GENS, 6)
    out = sphere_restrictions(ball, 1, 5)
    assert out.tolist() == [[0, -1, 1], [0, 1, -1]]


def test_f2_first_letter_patterns():
    f2 = FreeGroup(2)
    gens = GeneratingSet.standard(f2)
    ball = cayley_ball(f2, gens, 4)
    out = sphere_restrictions(ball, 1, 3)
    assert len(out) == 4  # one pattern per first letter of g


def test_z2_restrictions_match_l1_oracle():
    z2 = Zd(2)
    gens = GeneratingSet.standard(z2)
    ball = cayley_ball(z2, gens, 5)
    out = sphere_restrictions(ball, 1, 4)
    assert _values(out) == l1_restrictions(2, 1, 4)
    assert out.shape == (8, 5)


def test_sphere_restriction_values_in_range_and_lipschitz():
    h3 = Heisenberg()
    gens = GeneratingSet.standard(h3)
    ball = cayley_ball(h3, gens, 6)
    out = sphere_restrictions(ball, 2, 4)
    assert ((-2 <= out) & (out <= 2)).all()
    assert (out[:, 0] == 0).all()  # identity first in canonical order


# Searched word lengths: the ball's space grows its search past the ball as x^-1 g needs.
SEARCH_CASES = [
    ("H3 skew", Heisenberg(), [(1, 0, 0), (0, 1, 0), (1, 1, 0)]),
    ("Z^2{x,y,xy}", Zd(2), [(1, 0), (0, 1), (1, 1)]),
    ("C12", cyclic_group(12), None),
]


def test_sphere_restrictions_preconditions():
    ball = cayley_ball(Z1, Z1_GENS, 4)
    with pytest.raises(PreconditionError):
        sphere_restrictions(ball, 3, 2)  # R < r
    # On a search a radius-R ball gives what a radius-(R + r) ball gives.
    for _, fam, steps in SEARCH_CASES:
        gens = GeneratingSet.create(fam, steps) if steps else GeneratingSet.standard(fam)
        want = _values(sphere_restrictions(cayley_ball(fam, gens, 5), 2, 3))
        assert _values(sphere_restrictions(cayley_ball(fam, gens, 3), 2, 3)) == want
        with pytest.raises(PreconditionError, match="need >= 3"):
            sphere_restrictions(cayley_ball(fam, gens, 2), 2, 3)
    # Under the standard generators H3 has a closed form: radius R suffices.
    h3 = Heisenberg()
    assert len(sphere_restrictions(cayley_ball(h3, GeneratingSet.standard(h3), 3), 2, 3))
    with pytest.raises(PreconditionError):
        sphere_restrictions(cayley_ball(h3, GeneratingSet.standard(h3), 2), 2, 3)


def test_limit_restrictions_z():
    lrs = limit_restrictions(Z1, Z1_GENS, 2, 20, 5)
    assert lrs.labels == ("(0)", "(-1)", "(1)", "(-2)", "(2)")
    assert lrs.values.tolist() == [[0, -1, 1, -2, 2], [0, 1, -1, 2, -2]]
    assert lrs.certificate.kind == "stabilized"
    assert unboundedness_check(lrs).passed


def test_limit_restrictions_f2_matches_tree_end_oracle():
    f2 = FreeGroup(2)
    lrs = limit_restrictions(f2, GeneratingSet.standard(f2), 2, 8, 3)
    assert lrs.values.shape == (12, 17)
    assert lrs.certificate.kind == "stabilized"
    assert _values(lrs.values) == free_end_restrictions(2, 2)
    # each functional attains -2 at exactly one sphere point
    assert ((lrs.values == -2).sum(axis=1) == 1).all()


def test_limit_restrictions_window_invariance_zd():
    # same accepted set for any window >= 3 at radius 4r + 8
    for family, r in ((Zd(1), 3), (Zd(2), 2), (Zd(3), 1)):
        gens = GeneratingSet.standard(family)
        r_max = 4 * r + 8
        sets = []
        for window in (3, 4, 5):
            lrs = limit_restrictions(family, gens, r, r_max, window)
            assert lrs.certificate.kind == "stabilized"
            sets.append(_values(lrs.values))
        assert sets[0] == sets[1] == sets[2]


def test_limit_restrictions_window_invariance_free():
    # Free-group restriction sets are literally constant in the sphere
    # radius, which forces stabilization at every feasible r_max (the
    # 4r + 8 scaling would need a sphere of ~3^(4r+7) words).
    f2 = FreeGroup(2)
    gens = GeneratingSet.standard(f2)
    for r in (1, 2):
        ball = cayley_ball(f2, gens, r + 6)
        tables = [_values(sphere_restrictions(ball, r, R)) for R in range(r, r + 7)]
        assert all(t == tables[0] for t in tables)
        sets = []
        for window in (3, 4):
            lrs = limit_restrictions(f2, gens, r, r + window + 2, window)
            assert lrs.certificate.kind == "stabilized"
            sets.append(_values(lrs.values))
        assert sets[0] == sets[1] == tables[0]


@pytest.mark.parametrize(
    "family", [Zd(1), Zd(2), Zd(3), FreeGroup(2), Heisenberg()], ids=lambda f: f.name
)
def test_at_least_two_limit_restrictions(family):
    gens = GeneratingSet.standard(family)
    lrs = limit_restrictions(family, gens, 1, 8, 3)
    assert len(lrs.values) >= 2
    assert unboundedness_check(lrs).passed


def test_limit_restrictions_precondition():
    with pytest.raises(PreconditionError):
        limit_restrictions(Z1, Z1_GENS, 3, 5, 3)  # r_max <= r + window


def test_restriction_table_keys():
    ball = cayley_ball(Z1, Z1_GENS, 4)
    assert all(len(sphere_restrictions(ball, 1, R)) == 2 for R in (2, 3, 4))


# Z under {+-2, +-3} and the skew H3 set take the search; the rest closed forms.
# Each case scans the default (r, window, r_max) triples or its own: the
# heuristic Z^4 and H3 scans, a Z scan straddling int16 and int64 spheres,
# and C12 past its diameter, where the later spheres are empty.
RADII = ((1, 1, 3), (1, 2, 5), (2, 1, 5), (1, 3, 6))
GUARD_CASES = [
    ("Z^2", Zd(2), None, RADII),
    ("F_2", FreeGroup(2), None, RADII),
    ("H3", Heisenberg(), None, RADII),
    ("Z{2,3}", Z1, [(2,), (3,)], RADII),
    ("H3 skew", Heisenberg(), [(1, 0, 0), (0, 1, 0), (1, 1, 0)], RADII),
    ("Z^4 r=2 R=7", Zd(4), None, ((2, 3, 7),)),
    ("H3 r=2 R=10", Heisenberg(), None, ((2, 3, 10),)),
    ("Z R=32770", Z1, None, ((1, 3, 32_770),)),
    ("C12 r=1 R=10", cyclic_group(12), None, ((1, 3, 10),)),
]


@pytest.mark.parametrize("name, family, steps, radii", GUARD_CASES, ids=[c[0] for c in GUARD_CASES])
def test_limit_restrictions_match_their_definition(name, family, steps, radii):
    # The accepted set is the union of the sphere restrictions over the
    # trailing window [r_max - window, r_max], and it is stabilized iff every
    # end radius in that window gives the same union.  Python sets of value
    # tuples stand in for the presence table over the scanned spheres.
    gens = GeneratingSet.create(family, steps) if steps else GeneratingSet.standard(family)
    for r, window, r_max in radii:
        ball = cayley_ball(family, gens, r_max)
        lo = max(r, r_max - 2 * window)
        spheres = {R: set(map(tuple, sphere_restrictions(ball, r, R).tolist())) for R in range(lo, r_max + 1)}

        def union(end):
            return set().union(*(spheres[R] for R in range(max(r, end - window), end + 1)))

        final = union(r_max)
        stable = all(union(end) == final for end in range(r_max - window, r_max + 1))
        kind = "stabilized" if stable else "heuristic"
        lrs = limit_restrictions(family, gens, r, r_max, window)
        assert lrs.labels == tuple(family.element_label(p) for p in ball.ball(r))
        assert lrs.values.dtype == np.int64
        assert lrs.values.shape == (len(final), len(lrs.labels))
        assert _values(lrs.values) == sorted(final)
        assert vars(lrs.certificate) == {
            "kind": kind, "window_start": r_max - window, "window_length": window, "r_max": r_max,
        }


@pytest.mark.parametrize("fam", [Zd(2), FreeGroup(2), Heisenberg()], ids=lambda f: f.name)
def test_limit_restrictions_dedup_the_scan_once(fam, monkeypatch):
    # Each sphere dedups its own rows; the scan then dedups their union once,
    # not once per window end.
    depth, outside = [0], []
    unique_rows, spheres = boundary._unique_rows, boundary.sphere_restrictions

    def counting(V):
        if not depth[0]:
            outside.append(len(V))
        return unique_rows(V)

    def sphere(*args):
        depth[0] += 1
        try:
            return spheres(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(boundary, "_unique_rows", counting)
    monkeypatch.setattr(boundary, "sphere_restrictions", sphere)
    lrs = limit_restrictions(fam, GeneratingSet.standard(fam), 2, 9, 3)
    assert len(lrs.values) > 1
    assert len(outside) == 1


def test_a_finite_group_has_no_restrictions_past_its_diameter():
    # C12 under {+-1} has diameter 6: every sphere past it is empty.
    c12 = cyclic_group(12)
    gens = GeneratingSet.standard(c12)
    assert sphere_restrictions(cayley_ball(c12, gens, 8), 1, 7).shape == (0, 3)
    lrs = limit_restrictions(c12, gens, 1, 10, 3)
    assert lrs.values.shape == (0, 3)
    with pytest.raises(PreconditionError, match="accepted set is empty"):
        unboundedness_check(lrs)


def test_unboundedness_violation_detected():
    # The first row whose minimum is not -r is reported, as a BallFunctional
    # over the set's labels whose values are plain ints.
    lrs = limit_restrictions(Z1, Z1_GENS, 2, 16, 4)
    fakes = [[0, 1, -1, 1, 1], [0, 1, 1, 1, 1]]
    broken = dataclasses.replace(lrs, values=np.array([lrs.values[0], *fakes, lrs.values[1]]))
    rep = unboundedness_check(broken)
    assert not rep.passed
    assert rep.violating == BallFunctional(2, lrs.labels, (0, 1, -1, 1, 1))
    want = {"radius": 2, "order": list(lrs.labels), "values": [0, 1, -1, 1, 1]}
    assert emit_json(rep.violating) == oracles.json_report(want)
    assert all(type(v) is int for v in rep.violating.values)


def test_translation_action_on_restrictions():
    # Translating the +end restriction of Z by a generator leaves it fixed.
    ball = cayley_ball(Z1, Z1_GENS, 8)
    big = sphere_restrictions(ball, 4, 8)
    plus_end = big[big[:, ball.ball(4).index((1,))] == -1]
    assert _values(plus_end) == [tuple(-x for (x,) in ball.ball(4))]  # h(x) = -x
    acted = act_on_rows(ball, (1,), plus_end, 3)
    assert _values(acted) == [tuple(-x for (x,) in ball.ball(3))]


def test_action_requires_room():
    ball = cayley_ball(Z1, Z1_GENS, 8)
    with pytest.raises(PreconditionError, match=r"R >= r \+ \|g\| = 3"):
        act_on_rows(ball, (1,), sphere_restrictions(ball, 2, 6), 2)


# ---------------------------------------------------------------------------
# Drift measures
# ---------------------------------------------------------------------------


def test_drift_uniform_on_ends_is_zero():
    space = CayleyGraphSpace(Z1)
    m = DriftMeasure.create(
        space, [(ZdLinear([1]), Fraction(1, 2)), (ZdLinear([-1]), Fraction(1, 2))]
    )
    assert all(m.integrate((n,)) == 0 for n in range(-10, 11))
    assert drift_audit(m, [(n,) for n in range(-10, 11)]).passed


def test_drift_point_mass_minus_id():
    space = CayleyGraphSpace(Z1)
    m = DriftMeasure.create(space, [(ZdLinear([1]), Fraction(1))])
    assert m.integrate((7,)) == -7
    rep = drift_audit(m, [(n,) for n in range(-10, 11)])
    assert rep.passed
    assert rep.additive_pairs == 21 * 21


def test_drift_z2_coordinate():
    space = CayleyGraphSpace(Zd(2))
    m = DriftMeasure.create(space, [(ZdLinear([1, 0]), Fraction(1))])
    assert m.integrate((3, -4)) == -3
    els = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    assert drift_audit(m, els).passed


def test_drift_measure_validation():
    space = CayleyGraphSpace(Z1)
    with pytest.raises(InvalidParameterError):
        DriftMeasure.create(space, [(ZdLinear([1]), Fraction(1, 2))])  # mass 1/2
    with pytest.raises(InvalidParameterError):
        DriftMeasure.create(space, [(ZdLinear([1]), Fraction(-1)), (ZdLinear([-1]), Fraction(2))])
    with pytest.raises(UnsupportedError):
        DriftMeasure.create(space, [(lambda x: 0, Fraction(1))])


def test_drift_audit_reports_its_first_failure():
    # Built without ``create``, a measure may hold functionals the audit must reject.
    space = CayleyGraphSpace(Z1)

    class Scaled:  # T(g) = -2 g: additive, but |T(1)| = 2 > |1|
        def evaluate(self, g):
            return Fraction(-2 * g[0])

    class Point:  # T(g) = |g - 2| - 2: 1-Lipschitz, but T(1) + T(3) = -2 != T(4) = 0
        def evaluate(self, g):
            return Fraction(abs(g[0] - 2) - 2)

    els = [(0,), (1,), (3,)]
    assert drift_audit(DriftMeasure(space, ((Scaled(), Fraction(1)),)), els) == DriftAuditReport(
        False, 0, 1, ("lipschitz", (1,)))
    # pairs in order: (0, 0), (0, 1), (0, 3), (1, 0), (1, 1) pass, and (1, 3) is the sixth
    assert drift_audit(DriftMeasure(space, ((Point(), Fraction(1)),)), els) == DriftAuditReport(
        False, 6, 3, ("additivity", (1,), (3,)))


# ---------------------------------------------------------------------------
# Reduced compactification
# ---------------------------------------------------------------------------


def test_reduced_classify_three_classes():
    fs = [ZFunctional.point(n) for n in (-10, 0, 5, 10)]
    fs += [ZFunctional.plus_end(), ZFunctional.minus_end()]
    classes = reduced_classify_z(fs)
    assert len(classes) == 3
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 1, 4]


def test_reduced_classify_duplicates_one_class():
    assert len(reduced_classify_z([ZFunctional.point(3), ZFunctional.point(3)])) == 1


def test_reduced_classify_two_ends():
    assert len(reduced_classify_z([ZFunctional.plus_end(), ZFunctional.minus_end()])) == 2


def test_reduced_classify_rejects_unknown():
    with pytest.raises(UnsupportedError):
        reduced_classify_z([ZFunctional("bogus")])


def test_z_functional_closed_forms():
    assert ZFunctional.point(5).evaluate(3) == -3
    assert ZFunctional.plus_end().evaluate(4) == -4
    assert ZFunctional.minus_end().evaluate(4) == 4


# ---------------------------------------------------------------------------
# Reduced fixed point audits
# ---------------------------------------------------------------------------


def test_fixed_point_audit_z_shift():
    space = CayleyGraphSpace(Z1)
    g = group_translation(space, (1,))
    rep = reduced_fixed_point_audit(g, ZdLinear([1]), [(k,) for k in range(-20, 21)])
    assert rep.passed
    assert rep.bound == 1
    assert rep.worst == 1  # |h(x-1) - h(x)| = 1 exactly


def test_fixed_point_audit_counts_only_the_samples_it_compared():
    # h(x) = x^2 moves by |2x - 1| under the shift by 1, whose bound is 1:
    # (0,) and (1,) pass at 1, (5,) fails at 9, and (6,) is never compared.
    g = group_translation(CayleyGraphSpace(Z1), (1,))
    rep = reduced_fixed_point_audit(g, lambda p: p[0] ** 2, [(0,), (1,), (5,), (6,)])
    assert (rep.passed, rep.bound, rep.worst, rep.checked, rep.violating) == (False, 1, 9, 3, (5,))


def test_fixed_point_audit_disk_rotation():
    disk = PoincareDisk()
    rot = MoebiusMap(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5))
    g = rot.as_selfmap(disk)
    h = lambda y: disk.distance(y, 0j)  # orbit of 0 is {0}; h is its point functional
    import random

    rep = reduced_fixed_point_audit(g, h, disk.sample_points(random.Random(1), 48), tol=1e-12)
    assert rep.passed
    assert rep.bound < 1e-12  # rotation fixes the base point


def test_fixed_point_audit_parabolic_exact_invariance():
    hp = UpperHalfPlane()
    g = half_plane_translation(1.0).as_selfmap(hp)
    h = HalfPlaneBusemannInfinity()
    import random

    rep = reduced_fixed_point_audit(g, h, hp.sample_points(random.Random(2), 48), tol=1e-12)
    assert rep.passed
    assert rep.worst == 0  # Im is translation-invariant


# ---------------------------------------------------------------------------
# The sphere restriction kernel against independent oracles
# ---------------------------------------------------------------------------


def _values(rows):
    """A restriction matrix as its list of value tuples, of plain ints."""
    values = list(map(tuple, rows.tolist()))
    assert all(type(v) is int for row in values for v in row)
    return values


@pytest.fixture(scope="module")
def h3_ball():
    h3 = Heisenberg()
    return cayley_ball(h3, GeneratingSet.standard(h3), 12)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_h3_sphere_restrictions_match_matrix_oracle(h3_ball, r):
    # r = 1 reads spheres far past r, and r = 3 the largest B(r); each closes
    # the sector 0 <= a <= b under the 8 automorphisms.
    r_max = {1: 12, 2: 8, 3: 9}[r]
    oracle = h3_restrictions(r, range(r, r_max + 1))
    for R in range(r, r_max + 1):
        assert _values(sphere_restrictions(h3_ball, r, R)) == oracle[R], R


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_zd_sphere_restrictions_match_l1_oracle(d, r):
    # R = r..r + 6 reaches R0 = d r, where the corner keys appear, on every
    # case but d = 4, r = 3: the oracle walks the (2R + 1)^d box, so it stops
    # at 100,000 points.
    zd = Zd(d)
    radii = [R for R in range(r, r + 7) if (2 * R + 1) ** d <= 100_000]
    ball = cayley_ball(zd, GeneratingSet.standard(zd), radii[-1])
    for R in radii:
        assert _values(sphere_restrictions(ball, r, R)) == l1_restrictions(d, r, R), R


@pytest.mark.parametrize(
    "rank,r,r_max",
    [(1, 1, 8), (1, 3, 9), (2, 1, 6), (2, 2, 6), (2, 3, 5), (3, 1, 5), (3, 2, 4), (4, 1, 4), (4, 2, 4)],
)
def test_free_sphere_restrictions_match_reduction_oracle(rank, r, r_max):
    fam = FreeGroup(rank)
    ball = cayley_ball(fam, GeneratingSet.standard(fam), r_max)
    for R in range(r, r_max + 1):
        assert _values(sphere_restrictions(ball, r, R)) == free_restrictions(rank, r, R), R


@pytest.mark.parametrize("rank,r,R", [(2, 1, 6), (2, 1, 8), (2, 2, 7), (2, 2, 8), (2, 3, 8), (3, 1, 6)])
def test_free_sphere_restrictions_far_out_match_reduction_oracle(rank, r, R):
    # At R >= r + 5 many words share each r-prefix, so the kernel keeps a
    # small share of the sphere.
    fam = FreeGroup(rank)
    ball = cayley_ball(fam, GeneratingSet.standard(fam), R)
    assert _values(sphere_restrictions(ball, r, R)) == free_restrictions(rank, r, R)


# Stable spheres.  On Z^d every S(R), R >= R0 = d r, has the keys with some
# |k_i| = r, since a key's sum is at most d r <= R; F_n reads S(r) from
# R0 = r on.  So every sphere past R0 gives the set of S(R0).
STABLE_CASES = [(Zd(d), d) for d in (1, 2, 3, 4)] + [(FreeGroup(2), 1), (FreeGroup(3), 1)]


def _oracle(fam, r, R):
    """``l1_restrictions`` or ``free_restrictions`` where their loops are
    cheap, else the same brute force by arrays (checked against them below)."""
    if isinstance(fam, Zd):
        small = (2 * R + 1) ** fam.dim <= 100_000
        return (l1_restrictions if small else l1_restrictions_array)(fam.dim, r, R)
    small = oracles.free_sphere_count(fam.rank, R) * oracles.free_sphere_count(fam.rank, r) <= 100_000
    return (free_restrictions if small else free_restrictions_array)(fam.rank, r, R)


@pytest.mark.parametrize("fam, per_r", STABLE_CASES, ids=[c[0].name for c in STABLE_CASES])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_spheres_past_the_stable_radius_match_the_oracles(fam, per_r, r):
    R0 = fam.stable_radius(r)
    assert R0 == per_r * r
    ball = cayley_ball(fam, GeneratingSet.standard(fam), R0 + 4)
    for R in range(R0, R0 + 5):
        assert _values(sphere_restrictions(ball, r, R)) == _oracle(fam, r, R), R


@pytest.mark.parametrize(
    "rank, r, R", [(1, 2, 5), (2, 0, 3), (2, 2, 4), (2, 3, 5), (3, 1, 4), (3, 2, 4)],
)
def test_free_array_oracle_matches_the_reduction_oracle(rank, r, R):
    assert free_restrictions_array(rank, r, R) == free_restrictions(rank, r, R)


@pytest.mark.parametrize(
    "d, r, R", [(1, 0, 3), (1, 2, 5), (2, 0, 2), (2, 2, 4), (2, 3, 3), (3, 1, 5), (3, 2, 6), (4, 1, 4)],
)
def test_l1_array_oracle_matches_the_l1_oracle(d, r, R):
    assert l1_restrictions_array(d, r, R) == l1_restrictions(d, r, R)


def _counting(monkeypatch, cls, *names):
    """Count the calls of cls's methods ``names``, by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(cls, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize(
    "fam, r", [(Zd(1), 2), (Zd(2), 1), (Zd(3), 2), (FreeGroup(2), 2), (FreeGroup(3), 1), (Heisenberg(), 1)],
    ids=lambda c: getattr(c, "name", c),
)
def test_one_kernel_run_per_stable_sphere(fam, r, monkeypatch):
    # Each sphere's rows and distances are built once per ball for each
    # distinct min(R, R0); H3 proves no R0, so it builds each R.  Every R
    # past R0 returns the one read-only set of S(R0).
    R0 = fam.stable_radius(r)
    radii = range(r, (R0 or 6) + 4)
    ball = cayley_ball(fam, GeneratingSet.standard(fam), radii[-1])
    boundary._ball_facts(ball, r)  # D of B(r) reads distance_rows once per ball
    calls = _counting(monkeypatch, type(fam), "sphere_rows", "distance_rows")
    sets = {R: sphere_restrictions(ball, r, R) for R in [*radii, *radii]}
    distinct = len({R if R0 is None else min(R, R0) for R in radii})
    assert calls == {"sphere_rows": distinct, "distance_rows": distinct}
    assert distinct == (len(radii) if R0 is None else R0 - r + 1)
    if R0 is not None:
        assert all(sets[R] is sets[R0] for R in radii if R >= R0)
    for V in sets.values():
        with pytest.raises(ValueError, match="read-only"):
            V[0, 0] = 1


@pytest.mark.parametrize("case", SEARCH_CASES, ids=lambda c: c[0])
def test_a_searched_ball_builds_each_sphere(case, monkeypatch):
    # A search proves no stable radius, even for Z^2: each R reads its own
    # sphere's distance block, once, and repeated radii come from the memo.
    _, fam, steps = case
    gens = GeneratingSet.create(fam, steps) if steps else GeneratingSet.standard(fam)
    ball = cayley_ball(fam, gens, 6)
    boundary._ball_facts(ball, 1)
    calls = _counting(monkeypatch, CayleyGraphSpace, "distance_block")
    sets = {R: sphere_restrictions(ball, 1, R) for R in [*range(1, 7), *range(1, 7)]}
    assert calls == {"distance_block": 6}
    assert len({id(V) for V in sets.values()}) == 6
    with pytest.raises(ValueError, match="read-only"):
        sets[6][...] = 0


@st.composite
def integer_blocks(draw):
    """Int16 or int64 blocks of values within a span of 2^bits - 1, with
    repeated rows, and often 64 // bits columns (one full word) or more."""
    dtype = draw(st.sampled_from([np.int16, np.int64]))
    info = np.iinfo(dtype)
    bits = draw(st.integers(0, 16 if dtype is np.int16 else 40))
    span = (1 << bits) - 1
    lo = draw(st.integers(int(info.min), int(info.max) - span))
    per = 64 // max(1, bits)
    n = draw(st.one_of(st.integers(1, 12), st.sampled_from([per, per + 1, 3 * per])))
    pool = draw(hnp.arrays(dtype, (draw(st.integers(1, 6)), n), elements=st.integers(lo, lo + span)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=24))
    return pool[np.array(picks, dtype=np.intp)]


TWO_BIT_ROW = [-1, 0, 1, 2] * 8  # 32 columns of 2 bits: exactly one 64-bit word


@settings(max_examples=300, deadline=None)
@given(V=integer_blocks())
@example(V=np.zeros((3, 1), np.int16))  # r = 0: the identity column alone
@example(V=np.array([[0], [-1], [0], [1]], np.int16))
@example(V=np.empty((0, 7), np.int16))
@example(V=np.empty((0, 7), np.int64))
@example(V=np.array([TWO_BIT_ROW, TWO_BIT_ROW[::-1], TWO_BIT_ROW], np.int16))
@example(V=np.array([TWO_BIT_ROW + [0], TWO_BIT_ROW[::-1] + [2], TWO_BIT_ROW + [0]], np.int16))
@example(V=np.array([[-40_000, 0, 40_000], [40_000, 0, -40_000], [-40_000, 0, 40_000]], np.int64))
@example(V=np.array([[np.iinfo(np.int64).min, 3], [np.iinfo(np.int64).max, -3], [0, 0]], np.int64))
def test_unique_rows_matches_np_unique(V):
    got, inverse = _unique_rows(V)
    want, want_inverse = np.unique(V, axis=0, return_inverse=True)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert (got == want).all()
    assert inverse.shape == (len(V),)
    assert inverse.tolist() == want_inverse.reshape(-1).tolist()
    assert (got[inverse] == V).all()


def test_spheres_over_several_blocks_match_the_oracles(monkeypatch, h3_ball):
    # A small chunk splits each sphere into many blocks, so the per-block
    # dedup and the merge of their rows both run.
    monkeypatch.setattr(boundary, "CHUNK", 1 << 9)
    real, counts = boundary._distance_blocks, []

    def counted(*args, **kwargs):
        blocks = list(real(*args, **kwargs))
        counts.append(len(blocks))
        return iter(blocks)

    monkeypatch.setattr(boundary, "_distance_blocks", counted)
    z3, f2 = Zd(3), FreeGroup(2)
    z3_ball = cayley_ball(z3, GeneratingSet.standard(z3), 5)
    f2_ball = cayley_ball(f2, GeneratingSet.standard(f2), 6)
    for R in range(2, 6):
        assert _values(sphere_restrictions(z3_ball, 2, R)) == l1_restrictions(3, 2, R), R
    for R in range(2, 7):
        assert _values(sphere_restrictions(f2_ball, 2, R)) == free_restrictions(2, 2, R), R
    oracle = h3_restrictions(2, range(2, 9))
    for R in range(2, 9):
        assert _values(sphere_restrictions(h3_ball, 2, R)) == oracle[R], R
    assert max(counts) > 1


@pytest.mark.parametrize("low, high", [(-1, 4), (0, 8), (0, -9)])
def test_a_row_out_of_range_is_not_merged_away(monkeypatch, low, high):
    # H3 reads S(R) on the sector 0 <= a <= b.  On r = 1, R = 4, the columns
    # are (0,0,0), (-1,0,0), (0,-1,0), (0,1,0), (1,0,0), and g = (2,2,3)
    # shares its row [0, 1, 1, 1, -1] with g = (1,3,3) earlier in the sector.
    # Adding (low, high) to its last two values puts 3, 7 or -10 outside
    # [-r, r].  Packed at 2 bits per value offset by r, the first two forged
    # rows would share (1,3,3)'s key (by a carry if the fields were added, by
    # overlapping bits if OR-ed) and vanish.  The row must reach check_rows
    # and raise what np.unique(axis=0) and check_rows give on the sector's
    # rows closed under the automorphisms.
    h3 = Heisenberg()
    r, R = 1, 4
    ball = cayley_ball(h3, GeneratingSet.standard(h3), R)
    real = h3.distance_rows

    def forged(X, G, dtype):
        out = real(X, G, dtype)
        hit = np.flatnonzero((G == (2, 2, 3)).all(axis=1))
        out[hit, -2:] += np.array([low, high], dtype)
        return out

    X = ball.rows(r)
    G = h3.sphere_rows(X, r, [R])[0]
    D = real(X, X, np.int64)
    labels = tuple(h3.element_label(p) for p in ball.ball(r))
    V = forged(X, G, np.int64)
    H = V - V[:, :1]
    earlier, forged_at = (np.flatnonzero((G == g).all(axis=1)).tolist() for g in ((1, 3, 3), (2, 2, 3)))
    assert len(earlier) == len(forged_at) == 1 and earlier < forged_at
    assert (real(X, G, np.int64)[forged_at] - R).tolist() == H[earlier].tolist() == [[0, 1, 1, 1, -1]]
    closed = np.concatenate([H[:, p] for p in h3.automorphisms(X)])
    with pytest.raises(InvalidParameterError) as want:
        check_rows(labels, np.unique(closed, axis=0), D)
    monkeypatch.setattr(h3, "distance_rows", forged)
    with pytest.raises(InvalidParameterError) as got:
        sphere_restrictions(ball, r, R)
    assert str(got.value) == str(want.value)


def test_table_walk_on_nonstandard_generators_matches_bfs_oracle():
    z2 = Zd(2)
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
    gens = GeneratingSet.create(z2, steps)
    ball = cayley_ball(z2, gens, 9)
    oracle = bfs_restrictions(
        (0, 0),
        steps,
        lambda p, q: (p[0] + q[0], p[1] + q[1]),
        lambda p: (-p[0], -p[1]),
        lambda p: p,
        2,
        range(2, 8),
    )
    for R in range(2, 8):
        assert _values(sphere_restrictions(ball, 2, R)) == oracle[R], R


Z2_XY = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]


def _z2_add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _z2_neg(p):
    return (-p[0], -p[1])


# The oracles' own group arithmetic, (mul, inv) by family name.
ARITHMETIC = {
    "Z^2": (_z2_add, _z2_neg),
    "F_2": (lambda g, h: free_reduce(g + h), lambda g: tuple(-x for x in reversed(g))),
    "H3": (heis_mul, lambda g: (-g[0], -g[1], g[0] * g[1] - g[2])),
    "finite(12)": (lambda g, h: (g + h) % 12, lambda g: -g % 12),
}
ACTION_CASES = [
    ("Z^2", Zd(2), None),
    ("F_2", FreeGroup(2), None),
    ("H3", Heisenberg(), None),
    ("Z^2{x,y,xy}", Zd(2), Z2_XY),  # table walk
    ("C12", cyclic_group(12), None),  # table walk
]


@pytest.mark.parametrize("case", ACTION_CASES, ids=lambda c: c[0])
def test_action_on_restrictions_translates_values(case):
    _, fam, steps = case
    gens = GeneratingSet.create(fam, steps) if steps else GeneratingSet.standard(fam)
    ball = cayley_ball(fam, gens, 6)
    V = sphere_restrictions(ball, 2, 4)
    for g in gens.elements:
        want = translated_rows(ball.ball(2), V.tolist(), ball.ball(1), g, *ARITHMETIC[fam.name])
        assert _values(act_on_rows(ball, g, V, 1)) == want


@pytest.mark.parametrize("case", SEARCH_CASES, ids=lambda c: c[0])
def test_action_needs_room_for_the_table_walk(case):
    # Rows over B(r + |g|) suffice and rows over B(r + |g| - 1) do not, for
    # g and for g.g; |g| comes from the ball's space.
    _, fam, steps = case
    gens = GeneratingSet.create(fam, steps) if steps else GeneratingSet.standard(fam)
    ball = cayley_ball(fam, gens, 4)
    g = gens.elements[0]
    for h in (g, fam.multiply(g, g)):
        need = 2 + ball.space.point_key(h)[0]
        V = sphere_restrictions(ball, need, 4)
        want = translated_rows(ball.ball(need), V.tolist(), ball.ball(2), h, *ARITHMETIC[fam.name])
        assert _values(act_on_rows(ball, h, V, 2)) == want
        with pytest.raises(PreconditionError, match=f"= {need}$"):
            act_on_rows(ball, h, sphere_restrictions(ball, need - 1, 4), 2)


def test_action_past_a_finite_groups_diameter():
    # Every B(R) with R >= 6 is all of C12; rows over it are read as B(9),
    # the largest, which holds g^-1 x for every x in B(6) and |g| <= 3.
    c12 = cyclic_group(12)
    ball = cayley_ball(c12, GeneratingSet.standard(c12), 9)
    V = sphere_restrictions(ball, 6, 6)
    for g in (1, 3):
        want = translated_rows(ball.ball(9), V.tolist(), ball.ball(6), g, *ARITHMETIC["finite(12)"])
        assert _values(act_on_rows(ball, g, V, 6)) == want
    with pytest.raises(PreconditionError, match="= 10$"):
        act_on_rows(ball, 4, V, 6)


def test_h3_xyz_boundary_runs_one_search(monkeypatch):
    # H3 under {x, y, z}: the ball's search grows to r_max = 14, and the
    # sphere distances continue the same search to R + r = 16.  A second
    # search from the identity would take 30 sphere steps in all.
    steps, grow = [], CayleyGraphSpace.grow

    def counted(self, radius):
        n = len(self.layers)
        grow(self, radius)
        steps.append(len(self.layers) - n)

    monkeypatch.setattr(CayleyGraphSpace, "grow", counted)
    h3 = Heisenberg()
    lrs = limit_restrictions(h3, GeneratingSet.create(h3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), 2, 14, 3)
    assert (len(lrs.values), lrs.certificate.kind, sum(steps)) == (1602, "heuristic", 16)


def test_action_fails_with_the_per_pair_message():
    z2 = Zd(2)
    ball = cayley_ball(z2, GeneratingSet.create(z2, Z2_XY), 6)
    dist = bfs_ball((0, 0), Z2_XY, _z2_add, 4)
    forged = sphere_restrictions(ball, 2, 4)[:1].copy()
    forged[0, 0] = 3  # h(e) = 3
    points = ball.ball(1)
    labels = tuple(z2.element_label(p) for p in points)
    # translation by g = (1, 0): x -> h(x - g) - h(-g)
    (values,) = translated_rows(ball.ball(2), forged.tolist(), points, (1, 0), _z2_add, _z2_neg)
    with pytest.raises(InvalidParameterError) as per_pair:
        BallFunctional(1, labels, values, points).check(lambda p, q: dist[q[0] - p[0], q[1] - p[1]])
    with pytest.raises(InvalidParameterError) as acted:
        act_on_rows(ball, (1, 0), forged, 1)
    assert str(acted.value) == str(per_pair.value)
    assert "not 1-Lipschitz" in str(acted.value)


def test_sphere_restrictions_beyond_int16():
    # R + r leaves int16, so values and distances switch to a wider type.
    ball = cayley_ball(Z1, Z1_GENS, 32_800)
    out = sphere_restrictions(ball, 1, 32_799)
    assert out.dtype == np.int64
    assert boundary._ball_facts(ball, 1)[0].dtype == np.int16  # D's entries are at most 2r
    assert _values(out) == [(0, -1, 1), (0, 1, -1)]


def test_ball_distances_and_automorphisms_are_built_once_per_ball(monkeypatch):
    # Every sphere and every action on B(r) reads one D of B(r) and one set
    # of automorphisms, kept by the ball; D is int16, its entries at most 2r.
    h3, calls = Heisenberg(), []
    real = Heisenberg.automorphisms
    monkeypatch.setattr(Heisenberg, "automorphisms", lambda self, X: calls.append(len(X)) or real(self, X))
    ball = cayley_ball(h3, GeneratingSet.standard(h3), 6)
    V = sphere_restrictions(ball, 3, 6)
    monkeypatch.setattr(type(ball.space), "distance_block", None)  # the action builds no block
    for R in range(2, 7):
        assert _values(sphere_restrictions(ball, 2, R)) == h3_restrictions(2, [R])[R]
    for g in ball.sphere(1):
        act_on_rows(ball, g, V, 2)
    assert calls == [len(ball.ball(3)), len(ball.ball(2))]
    D, perms = boundary._ball_facts(ball, 2)
    assert D.dtype == np.int16 and len(perms) == 8
    dist = bfs_ball((0, 0, 0), [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], heis_mul, 4)
    assert D.tolist() == [[dist[heis_mul(h3.inverse(x), y)] for y in ball.ball(2)] for x in ball.ball(2)]


def test_a_window_straddling_int16_and_int64_spheres():
    # With r = 1, spheres up to R = 32_766 are int16 and later ones int64;
    # every window ending in [32_767, 32_770] holds both kinds.
    ball = cayley_ball(Z1, Z1_GENS, 32_770)
    assert sphere_restrictions(ball, 1, 32_766).dtype == np.int16
    assert sphere_restrictions(ball, 1, 32_767).dtype == np.int64
    lrs = limit_restrictions(Z1, Z1_GENS, 1, 32_770, 3)
    assert lrs.values.dtype == np.int64
    assert lrs.values.tolist() == [[0, -1, 1], [0, 1, -1]]
    assert lrs.certificate.kind == "stabilized"


# One scan per window: (family, steps, r, r_max, window).  The Z^d windows
# lie on both sides of R0 = d r (Z^1's start at R0 = r), C12's spheres past
# its diameter 6 are empty, and Z^1 at r = 1 straddles int16 and int64.
SCAN_CASES = [
    (Zd(1), None, 2, 7, 2),
    (Zd(2), None, 2, 7, 2),
    (Zd(3), None, 2, 9, 2),
    (Zd(4), None, 1, 7, 2),
    (FreeGroup(2), None, 2, 7, 2),
    (FreeGroup(3), None, 1, 5, 2),
    (Heisenberg(), None, 1, 8, 3),
    (Heisenberg(), None, 2, 8, 2),
    (Heisenberg(), None, 3, 7, 2),
    (cyclic_group(12), None, 1, 10, 3),
    (Zd(2), Z2_XY, 2, 8, 2),
    (Zd(1), None, 1, 32_770, 3),
]


def _window_oracle(fam, steps, r, radii):
    """{R: the oracle's set of S(R)} for R in radii."""
    if isinstance(fam, Heisenberg):
        return h3_restrictions(r, radii)
    if isinstance(fam, FiniteGroup):
        return bfs_restrictions(0, [1, 11], lambda p, q: (p + q) % 12, lambda p: -p % 12, lambda p: p, r, radii)
    if steps:
        return bfs_restrictions((0, 0), steps, _z2_add, _z2_neg, lambda p: p, r, radii)
    return {R: _oracle(fam, r, R) for R in radii}


def _recorded_balls(monkeypatch):
    """The balls that boundary's cayley_ball builds, in order."""
    balls, real = [], boundary.cayley_ball
    monkeypatch.setattr(boundary, "cayley_ball", lambda *args: balls.append(real(*args)) or balls[-1])
    return balls


@pytest.mark.parametrize("case", SCAN_CASES, ids=lambda c: f"{c[0].name}{'{x,y,xy}' if c[1] else ''} r={c[2]} R={c[3]}")
def test_one_window_scan_gives_each_spheres_own_set(case, monkeypatch):
    # limit_restrictions scans its window's spheres at once; each sphere's
    # set, read back from its ball, is the set a fresh ball gives that
    # sphere alone, and the oracle's, with the same dtype.
    fam, steps, r, r_max, window = case
    gens = GeneratingSet.create(fam, steps) if steps else GeneratingSet.standard(fam)
    balls = _recorded_balls(monkeypatch)
    limit_restrictions(fam, gens, r, r_max, window)
    radii = range(max(r, r_max - 2 * window), r_max + 1)
    alone = {R: sphere_restrictions(cayley_ball(fam, gens, R), r, R) for R in radii}
    monkeypatch.setattr(boundary, "_distance_blocks", None)  # the window's sets are read, not built
    monkeypatch.setattr(CayleyGraphSpace, "distance_block", None)
    oracle = _window_oracle(fam, steps, r, radii)
    for R in radii:
        got = sphere_restrictions(balls[0], r, R)
        assert _values(got) == _values(alone[R]) == oracle[R], R
        assert got.dtype == alone[R].dtype
        assert not got.flags.writeable


def test_a_window_is_one_scan(monkeypatch):
    # H3 at r = 2 over S(8..14): one sphere_rows and one distance_rows call
    # for all seven spheres, beside the distance_rows of B(2)'s own facts.
    h3 = Heisenberg()
    calls = _counting(monkeypatch, Heisenberg, "sphere_rows", "distance_rows")
    lrs = limit_restrictions(h3, GeneratingSet.standard(h3), 2, 14, 3)
    assert calls == {"sphere_rows": 1, "distance_rows": 2}
    assert (len(lrs.values), lrs.certificate.kind) == (459, "heuristic")


@pytest.mark.parametrize("fam", [Zd(2), Zd(3), FreeGroup(2), FreeGroup(3), Heisenberg()], ids=lambda f: f.name)
def test_limit_restrictions_build_only_the_small_ball(fam, monkeypatch):
    # Every closed-form family reads B(r) alone, once per ball, whatever
    # r_max is: its sphere_rows stand in for S(R).
    radii, real = [], type(fam).ball_coords

    def recording(self, radius):
        radii.append(radius)
        return real(self, radius)

    monkeypatch.setattr(type(fam), "ball_coords", recording)
    r, r_max = 2, 8
    lrs = limit_restrictions(fam, GeneratingSet.standard(fam), r, r_max, 3)
    assert len(lrs.values) > 1
    assert radii == [r]


def test_limit_restrictions_decode_and_label_the_small_ball_once(monkeypatch):
    # Every sphere reads B(r) and its labels from the ball: F_3's B(2) is
    # 1 + 6 + 30 points, decoded and labelled once over seven spheres.
    f3 = FreeGroup(3)
    decoded, labelled = [], []
    row_elements, element_label = FreeGroup.row_elements, FreeGroup.element_label

    def decode(self, rows, r):
        decoded.append(len(rows))
        return row_elements(self, rows, r)

    def label(self, g):
        labelled.append(g)
        return element_label(self, g)

    monkeypatch.setattr(FreeGroup, "row_elements", decode)
    monkeypatch.setattr(FreeGroup, "element_label", label)
    lrs = limit_restrictions(f3, GeneratingSet.standard(f3), 2, 6, 3)
    assert sum(decoded) == len(labelled) == len(lrs.labels) == 37
    assert len(set(labelled)) == 37


@pytest.mark.parametrize("fam", [Zd(2), FreeGroup(2), Heisenberg()], ids=lambda f: f.name)
def test_sphere_restrictions_decode_only_the_small_ball(fam):
    # A closed-form ball is its rows; the boundary decodes B(r), not B(R).
    ball = cayley_ball(fam, GeneratingSet.standard(fam), 6)
    out = sphere_restrictions(ball, 2, 6)
    assert "elements" not in vars(ball)
    assert out.shape[1] == len(ball.ball(2))


def test_forged_row_fails_with_the_per_pair_message():
    z2 = Zd(2)
    ball = cayley_ball(z2, GeneratingSet.standard(z2), 6)
    genuine = sphere_restrictions(ball, 2, 6)
    points = ball.ball(2)
    labels = tuple(z2.element_label(p) for p in points)

    def l1(p, q):
        return sum(abs(a - b) for a, b in zip(p, q))

    D = np.array([[l1(p, q) for q in points] for p in points], dtype=np.int16)
    forged = genuine[0].tolist()
    forged[points.index((1, 0))], forged[points.index((2, 0))] = 1, -1  # gap 2 at distance 1
    with pytest.raises(InvalidParameterError) as per_pair:
        BallFunctional(2, labels, tuple(forged), points).check(l1)
    rows = np.array([genuine[0], forged], dtype=np.int16)
    with pytest.raises(InvalidParameterError) as batch:
        check_rows(labels, rows, D)
    assert str(batch.value) == str(per_pair.value)
    assert "not 1-Lipschitz" in str(batch.value)


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
def test_a_row_at_the_int16_edge_fails_both_row_checks(dtype):
    # In int16, 0 - (-32768) wraps to -32768; the row must fail as in int64.
    z = Zd(1)
    ball = cayley_ball(z, GeneratingSet.standard(z), 1)
    D = boundary._ball_facts(ball, 1)[0]
    V = np.array([[0, -32768, -32768]], dtype)
    want = "restriction is not 1-Lipschitz on pair ((0), (-1))"
    assert _message(check_rows, ball.labels(1), V, D) == want
    assert _message(boundary._check_rows, ball, 1, V) == want


# ---------------------------------------------------------------------------
# The row check on the kept pairs of B(r)
# ---------------------------------------------------------------------------


def _symmetric_group(n):
    """S_n as a multiplication table of its permutations, under a
    transposition and an n-cycle: finite, non-abelian, with cycles of
    every parity in its Cayley graph."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[k] for k in q)] for q in perms] for p in perms]
    return FiniteGroup(table, generators=[index[(1, 0, *range(2, n))], index[(*range(1, n), 0)]])


# (family, generator steps or None for the standard ones, r, R)
CHECK_CASES = {
    "Z^2 r=3": (Zd(2), None, 3, 6),
    "Z^3 r=2": (Zd(3), None, 2, 5),
    "F_2 r=3": (FreeGroup(2), None, 3, 6),
    "F_3 r=2": (FreeGroup(3), None, 2, 5),
    "H3 r=1": (Heisenberg(), None, 1, 5),
    "H3 r=2": (Heisenberg(), None, 2, 6),
    "H3 r=3": (Heisenberg(), None, 3, 7),
    "Z^2{x,y,xy} r=2": (Zd(2), [(1, 0), (0, 1), (1, 1)], 2, 5),
    "S4 r=3": (_symmetric_group(4), None, 3, 4),
}


def _edge_path_rows(D):
    """Row p is x -> P[p, x] - P[p, 0], P the path metric of the graph on
    B(r) with the pairs at distance 1 as edges: 1-Lipschitz on every edge,
    and not on a pair that no path inside B(r) joins at its distance."""
    n = len(D)
    P = np.where(D == 1, 1, n)
    np.fill_diagonal(P, 0)
    for k in range(n):
        P = np.minimum(P, P[:, k : k + 1] + P[k])
    return P - P[:, :1]


@functools.lru_cache(maxsize=None)
def _check_case(name):
    """The ball of a case, its r, the distance matrix D of B(r) and a pool
    of rows that vanish at e: the genuine restriction rows of S(R), then
    the ``_edge_path_rows`` of D."""
    fam, steps, r, R = CHECK_CASES[name]
    gens = GeneratingSet.create(fam, steps) if steps else GeneratingSet.standard(fam)
    ball = cayley_ball(fam, gens, R)
    genuine = sphere_restrictions(ball, r, R)
    D = boundary._ball_facts(ball, r)[0]
    return ball, r, D, np.concatenate([genuine, _edge_path_rows(D).astype(genuine.dtype)])


def _message(check, *args):
    try:
        check(*args)
    except InvalidParameterError as err:
        return str(err)
    return None


@pytest.mark.parametrize("chunk", [None, 64])
@pytest.mark.parametrize("case", sorted(CHECK_CASES))
def test_kept_pairs_match_their_definition(case, chunk, monkeypatch):
    if chunk:
        monkeypatch.setattr(boundary, "CHUNK", chunk)  # one gather per few rows of D
    _, _, D, _ = _check_case(case)
    i, j = boundary._kept_pairs(D)
    assert list(zip(i.tolist(), j.tolist())) == oracles.kept_pairs(D.tolist())


@pytest.mark.parametrize("fam, r", [(Zd(1), 4), (Zd(2), 3), (Zd(3), 2), (Zd(4), 2), (FreeGroup(2), 3), (FreeGroup(3), 2)],
                         ids=lambda v: getattr(v, "name", v))
def test_kept_pairs_on_zd_and_free_groups_are_the_edges(fam, r):
    # Balls of Z^d and F_n are geodesically convex: every pair at distance
    # d > 1 has a neighbour one step closer inside B(r).
    ball = cayley_ball(fam, GeneratingSet.standard(fam), r)
    D = boundary._ball_facts(ball, r)[0]
    i, j = boundary._kept_pairs(D)
    edges = np.argwhere(np.triu(D == 1, 1))
    assert np.column_stack([i, j]).tolist() == edges.tolist()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), case=st.sampled_from(sorted(CHECK_CASES)))
def test_the_kept_pairs_check_flags_the_rows_the_full_check_flags(data, case):
    # Pointwise max and min of genuine rows vanish at e and are 1-Lipschitz;
    # those of edge path rows are so on the edges.  A few bumps of up to 2
    # then break some of them, at the base point too.
    ball, r, D, pool = _check_case(case)
    n, k = D.shape[1], len(pool)
    bump = st.tuples(st.integers(0, n - 1), st.integers(-2, 2))
    picks = data.draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.booleans(),
                                         st.lists(bump, max_size=3)), min_size=1, max_size=6))
    rows = []
    for a, b, lower, bumps in picks:
        v = (np.minimum if lower else np.maximum)(pool[a], pool[b])
        for col, step in bumps:
            v[col] += step
        rows.append(v)
    V = np.array(rows, dtype=pool.dtype)
    want = [oracles.first_lipschitz_violation([v], D.tolist()) is not None for v in V.tolist()]
    got = [_message(boundary._check_rows, ball, r, v[None]) is not None for v in V]
    assert got == want
    assert _message(boundary._check_rows, ball, r, V) == _message(check_rows, ball.labels(r), V, D)
