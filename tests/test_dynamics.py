import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horokit import dynamics
from horokit.dynamics import (
    MoebiusMap,
    OrbitSpace,
    SelfMap,
    almost_fixed_invariant_functional,
    cayley_to_disk,
    disk_parabolic_horocycle_audit,
    disk_parabolic_orbit,
    distorted_compactification_check,
    group_translation,
    half_plane_translation,
    minimal_displacement,
    orbit_distances,
    parabolic_orbit_functional,
    random_hyperbolic_pair,
    spectral_principle_witness,
    tracial_check,
    translation_number,
)
from horokit.errors import (
    InvalidParameterError,
    NotMonotoneError,
    PreconditionError,
)
from horokit.functionals import EvalOutcome, HalfPlaneBusemannInfinity, Linear, ZdLinear
from horokit.groups import CayleyGraphSpace, Heisenberg, Zd, cyclic_group
from horokit.metric import FiniteMetricSpace
from horokit.spaces import DistortedLine, LpSpace, PoincareDisk, UpperHalfPlane

from oracles import (
    hyperbolic_pair_reference,
    matmul2,
    moebius_orbit_distances,
    moebius_orbit_scalar,
    moebius_translation_length,
)

HP = UpperHalfPlane()

# Entries at the top of the float range: the first matrix's second power
# cancels to 0, the second's overflows; both have determinant exactly 1.
N = 2**1023
CANCELLING = (N, -N, N, Fraction(1 - N * N, N))
OVERFLOWING = (N, N, N, Fraction(N * N + 1, N))

# Frozen by tests/test_groups.py against the matrix-representation BFS.
HEISENBERG_CENTRAL_LENGTHS = [0, 4, 6, 8, 8, 10, 10, 12, 12, 12, 14, 14, 14, 16, 16, 16, 16]


# ---------------------------------------------------------------------------
# Moebius maps
# ---------------------------------------------------------------------------


def test_moebius_determinant_checked():
    with pytest.raises(InvalidParameterError):
        MoebiusMap(2, 0, 0, 1)
    MoebiusMap(2, 0, 0, Fraction(1, 2))  # exact det 1


def test_moebius_classification():
    assert MoebiusMap(1, 1, 0, 1).classify() == "parabolic"
    assert MoebiusMap(2, 0, 0, Fraction(1, 2)).classify() == "hyperbolic"
    assert MoebiusMap(0, 1, -1, 0).classify() == "elliptic"


def test_moebius_translation_length():
    m = MoebiusMap(2, 0, 0, Fraction(1, 2))
    assert m.translation_length() == pytest.approx(math.log(4))
    assert MoebiusMap(1, 1, 0, 1).translation_length() == 0.0
    # halving the exact trace before rounding keeps every bit of the float form
    for m in _products(range(40)) + SPECIAL:
        t = abs(float(m.trace()))
        assert m.translation_length() == (2.0 * math.acosh(t / 2.0) if t > 2.0 else 0.0)


def test_moebius_translation_length_past_the_float_range():
    m = MoebiusMap(*OVERFLOWING)  # |tr| = 2N + 1/N rounds past the float range
    with pytest.raises(OverflowError):
        float(m.trace())
    assert m.translation_length() == 2.0 * math.acosh(float(N))
    assert MoebiusMap(*CANCELLING).translation_length() == 0.0


NEAR_PARABOLIC = (1, Fraction(1, 8), Fraction(1, 10**15), Fraction(8 * 10**15 + 1, 8 * 10**15))


@pytest.mark.parametrize("k", [0, 1, 12, 30, 60, 100])
def test_near_parabolic_translation_length_keeps_its_digits(k):
    # |tr| / 2 = 1 + delta with delta = 2^-20 / 3^k: rounding |tr| / 2 to a
    # float loses delta (to 1.0 past 2^-53) or most of its digits, while
    # tau = 2 arccosh(1 + delta) is about 2 sqrt(2 delta).
    delta = Fraction(1, 2**20 * 3**k)
    entries = (1, 1, 2 * delta, 1 + 2 * delta)  # det 1, trace 2 + 2 delta
    assert MoebiusMap(*entries).translation_length() == pytest.approx(moebius_translation_length(entries), rel=4e-16, abs=0)


def test_near_parabolic_repro_is_hyperbolic():
    m = MoebiusMap(*NEAR_PARABOLIC)  # |tr| = 2 + 10^-15 / 8
    assert m.classify() == "hyperbolic"
    assert m.translation_length() == pytest.approx(moebius_translation_length(NEAR_PARABOLIC), rel=4e-16, abs=0)
    assert m.translation_length() == pytest.approx(2.2360679775e-08, rel=1e-10, abs=0)
    # the bits of 2 acosh(|tr| / 2) stay wherever delta >= 2^-20, as on
    # every map that test_moebius_translation_length pins
    assert all(abs(m.trace()) <= 2 or abs(m.trace()) / 2 - 1 >= Fraction(1, 2**20) for m in _products(range(40)) + SPECIAL)


def test_moebius_composition_and_inverse():
    rng = random.Random(4)
    f, g = random_hyperbolic_pair(rng)
    fg = f.compose(g)
    assert all(type(v) is Fraction for v in fg.entries())
    ident = fg.compose(fg.inverse())
    assert ident.entries() == (1, 0, 0, 1)


# Determinant-one factors, most with entries that are not integers.
MOEBIUS_FACTORS = [
    ("1", "1/2", "0", "1"),
    ("1", "0", "-3/7", "1"),
    ("2", "0", "0", "1/2"),
    ("3/2", "0", "0", "2/3"),
    ("3/5", "-4/5", "4/5", "3/5"),  # the 3-4-5 rotation
    ("1", "-2", "0", "1"),
    ("0", "-1", "1", "0"),
]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(MOEBIUS_FACTORS), min_size=1, max_size=6),
       st.lists(st.sampled_from(MOEBIUS_FACTORS), min_size=1, max_size=6))
def test_compose_and_inverse_equal_the_fraction_product(left, right):
    def build(factors):
        m, ref = MoebiusMap(1, 0, 0, 1), (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
        for f in factors:
            m, ref = m.compose(MoebiusMap(*f)), matmul2(ref, tuple(map(Fraction, f)))
        return m, ref

    (f, f_ref), (g, g_ref) = build(left), build(right)
    fg, ref = f.compose(g), matmul2(f_ref, g_ref)
    assert fg.entries() == ref and all(type(v) is Fraction for v in fg.entries())
    assert (fg.a, fg.b, fg.c, fg.d) == ref and fg.trace() == ref[0] + ref[3]
    assert fg._floats == tuple(float(v) for v in ref)  # each rounded once, as float(Fraction)
    a, b, c, d = f_ref
    assert f.inverse().entries() == (d, -b, -c, a)
    assert f.compose(f.inverse()).entries() == (1, 0, 0, 1)
    t = float(abs(ref[0] + ref[3]) / 2)
    assert fg.translation_length() == (2.0 * math.acosh(t) if t > 1.0 else 0.0)


def test_the_inverse_is_built_when_first_applied(monkeypatch):
    m, ref = MoebiusMap(2, 1, 3, 2), MoebiusMap(2, -1, -3, 2)
    built = []
    hold = MoebiusMap._hold

    def counting(self, nums, den):
        built.append((nums, den))
        return hold(self, nums, den)

    monkeypatch.setattr(MoebiusMap, "_hold", counting)
    hp, disk = UpperHalfPlane(), PoincareDisk()
    maps = ((m.as_selfmap(hp), ref.apply_half_plane, hp), (m.as_selfmap(disk), ref.apply_disk, disk))
    assert built == []
    for f, apply_ref, space in maps:
        for x in space.sample_points(random.Random(2), 6):
            assert f.apply_inverse(x) == apply_ref(x)
    assert len(built) == 1 and m.inverse().entries() == ref.entries()
    assert all(type(v) is Fraction for v in m.inverse().entries())


def test_the_inverse_is_read_from_the_held_integers(monkeypatch):
    # (d, -b, -c, a) over the held denominator: no entry is read again.
    m, ref = MoebiusMap("3/2", "1/3", "3/4", "5/6"), MoebiusMap("5/6", "-1/3", "-3/4", "3/2")

    def refuse(*args, **kw):
        raise AssertionError("an entry was read again")

    monkeypatch.setattr(dynamics, "real_field", refuse)
    inv = m.inverse()
    assert inv.entries() == ref.entries() and inv._floats == ref._floats
    assert m.inverse() is inv


def test_orbit_distances_match_direct_evaluation():
    m = MoebiusMap(1, 1, 1, 2)  # det 1, trace 3, hyperbolic
    [dists] = orbit_distances([m], 12)
    for n in range(1, 13):
        z_n = 1j
        for _ in range(n):
            z_n = m.apply_half_plane(z_n)
        assert dists[n] == pytest.approx(HP.distance(1j, z_n), abs=1e-9)


def test_orbit_distances_no_overflow_at_large_n():
    m = MoebiusMap(8, 3, 5, 2)  # trace 10
    [dists] = orbit_distances([m], 800)
    tau = m.translation_length()
    # d(i, g^n i) = n tau + 2 d(i, axis) + o(1): increments converge to tau
    assert dists[800] - dists[400] == pytest.approx(400 * tau, abs=1e-6)
    assert dists[400] / 400 == pytest.approx(tau, abs=1e-3)


def _products(seeds):
    """fg and gf of the seeded hyperbolic pair of each seed."""
    out = []
    for seed in seeds:
        f, g = random_hyperbolic_pair(random.Random(seed))
        out += [f.compose(g), g.compose(f)]
    return out


def _scalar_hex(m, n):
    return [float.hex(v) for v in moebius_orbit_scalar([float(v) for v in m.entries()], n)]


def _hex(rows):
    return [[float.hex(v) for v in row] for row in rows]


SPECIAL = [MoebiusMap(0, -1, 1, 0), MoebiusMap(1, 1, 0, 1), MoebiusMap(1, 0, 0, 1)]


def test_orbit_kernel_matches_scalar_loop_bit_for_bit():
    # fg and gf of seeds 0..199, then elliptic, parabolic and the identity.
    maps = _products(range(200)) + SPECIAL
    got = _hex(orbit_distances(maps, 200))
    assert got == [_scalar_hex(m, 200) for m in maps]
    assert _hex(orbit_distances(maps, 200, last_only=True)) == [[row[-1]] for row in got]


def test_orbit_kernel_far_branch_bit_for_bit():
    m = MoebiusMap(8, 3, 5, 2)
    [row] = orbit_distances([m], 800)
    assert max(row) > 50.0  # past 50, log T stands for arccosh(T / 2)
    assert _hex([row]) == [_scalar_hex(m, 800)]


@pytest.mark.parametrize("size", [1, 2, 60])
def test_orbit_kernel_batches(size):
    maps = (_products(range(size)) + SPECIAL)[:size]
    assert _hex(orbit_distances(maps, 150)) == [_scalar_hex(m, 150) for m in maps]


def test_orbit_kernel_rows_do_not_depend_on_neighbours():
    maps = _products(range(30)) + SPECIAL + [MoebiusMap(8, 3, 5, 2)]
    order = list(range(len(maps)))
    random.Random(5).shuffle(order)
    whole = _hex(orbit_distances(maps, 120))
    shuffled = _hex(orbit_distances([maps[i] for i in order], 120))
    assert shuffled == [whole[i] for i in order]
    assert whole == [_hex(orbit_distances([m], 120))[0] for m in maps]
    assert orbit_distances([], 10) == []


@pytest.mark.parametrize("entries", [CANCELLING, OVERFLOWING], ids=["cancels", "overflows"])
def test_orbit_kernel_rejects_a_power_past_the_float_range(entries):
    m = MoebiusMap(*entries)
    with pytest.raises(ValueError):
        moebius_orbit_scalar([float(v) for v in entries], 4)
    for batch in ([m], [MoebiusMap(1, 1, 1, 2), m, MoebiusMap(1, 1, 0, 1)]):
        for last_only in (False, True):
            with pytest.raises(InvalidParameterError, match="step 2"):
                orbit_distances(batch, 4, last_only=last_only)
    with pytest.raises(InvalidParameterError):
        translation_number(m.as_selfmap(HP), 4)
    [first] = orbit_distances([m], 1)
    assert first[0] == 0.0 and math.isfinite(first[1])


def test_orbit_distances_match_exact_powers():
    # Hyperbolic products: relative 1e-13 (measured worst 9.1e-15).  Elliptic
    # and parabolic products keep the orbit near arccosh(1), where the float
    # norm's rounding is amplified: absolute 1.5e-6 (measured 1.06e-6).
    maps = _products(range(40))
    for m, got in zip(maps, orbit_distances(maps, 200)):
        ref = moebius_orbit_distances(m.entries(), 200)
        if m.classify() == "hyperbolic":
            assert got == pytest.approx(ref, rel=1e-13, abs=0)
        else:
            assert got == pytest.approx(ref, rel=0, abs=1.5e-6)
    m = MoebiusMap(8, 3, 5, 2)
    assert orbit_distances([m], 800)[0] == pytest.approx(moebius_orbit_distances(m.entries(), 800), rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "entries",
    [
        (math.nan, 0, 0, 1),
        (math.inf, 0, 0, 0),
        (1, -math.inf, 0, 1),
        (1, "x", 0, 1),
        (1, None, 0, 1),
        (1, 1j, 0, 1),
        (10**400, 0, 0, Fraction(1, 10**400)),  # exact, but past the float range
    ],
)
def test_moebius_rejects_non_finite_and_non_numeric_entries(entries):
    with pytest.raises(InvalidParameterError):
        MoebiusMap(*entries)


@pytest.mark.parametrize("entry", [math.nan, "x", None, True, "1/0"])
def test_moebius_entry_message_names_the_entry(entry):
    # Python's own text was appended ("Invalid literal for Fraction: 'x'"),
    # and a bool was read as 1.
    with pytest.raises(InvalidParameterError) as exc:
        MoebiusMap(1, entry, 0, 1)
    assert str(exc.value) == f"matrix entry must be a real number in the float range, got {entry!r}"


_BIG = MoebiusMap(2**600, 0, 0, Fraction(1, 2**600))


@pytest.mark.parametrize(
    "build, got",
    [
        (lambda: MoebiusMap(10**400, 0, 0, Fraction(1, 10**400)), "1.000000e+400"),
        (lambda: MoebiusMap(1, 1, 1, 10**999), "1.000000e+999"),
        # past the 4,300 digits of int's str() limit
        (lambda: MoebiusMap(Fraction(-(10**5000), 3), 0, 0, Fraction(-3, 10**5000)), "-3.333333e+4999"),
        (lambda: _BIG.compose(_BIG), "1.721848e+361"),  # 2^1200, made by a product
    ],
    ids=["1e400", "1e999", "1e5000", "product"],
)
def test_moebius_overflow_names_the_entry(build, got):
    # Python's "integer division result too large for a float" was appended.
    with pytest.raises(InvalidParameterError) as exc:
        build()
    assert str(exc.value) == f"matrix entry must be a real number in the float range, got {got}"


def test_moebius_float_entries_read_at_their_binary_value():
    m = MoebiusMap(2.0, 0.0, 0.0, 0.5)
    assert m.entries() == (2, 0, 0, Fraction(1, 2))
    assert all(type(v) is Fraction for v in m.entries())
    # a float rotation misses determinant one by a rounding error
    c, s = math.cos(1.0), math.sin(1.0)
    assert Fraction(c) ** 2 + Fraction(s) ** 2 != 1
    with pytest.raises(InvalidParameterError):
        MoebiusMap(c, -s, s, c)


def test_random_hyperbolic_pair_matches_reference():
    for seed in range(200):
        pair = random_hyperbolic_pair(random.Random(seed))
        ref = hyperbolic_pair_reference(random.Random(seed))
        for m, r in zip(pair, ref):
            assert m.entries() == r
            assert all(type(v) is Fraction for v in m.entries())


# ---------------------------------------------------------------------------
# Translation number
# ---------------------------------------------------------------------------


def test_translation_number_z_shift():
    space = CayleyGraphSpace(Zd(1))
    rep = translation_number(group_translation(space, (3,)), 10)
    assert rep.estimate == 3.0
    assert rep.bound == 3.0


def test_translation_number_moebius_close_to_closed_form():
    m = MoebiusMap(1, 1, 1, 2)  # trace 3
    rep = translation_number(m.as_selfmap(HP), 200)
    assert rep.closed_form == pytest.approx(2 * math.acosh(1.5))
    assert rep.bound >= rep.closed_form - 1e-12
    assert rep.bound - rep.closed_form < 0.05


def test_fekete_bound_trace_nonincreasing():
    m = MoebiusMap(1, 2, 1, 3)
    rep = translation_number(m.as_selfmap(HP), 64)
    assert all(b >= a - 1e-15 for a, b in zip(rep.bound_trace[1:], rep.bound_trace))
    # every a_n / n sits above the final bound
    for n in range(1, 65):
        assert rep.displacements[n] / n >= rep.bound - 1e-12


def test_translation_number_heisenberg_central_decreasing():
    fam = Heisenberg()
    space = CayleyGraphSpace(fam)
    f = group_translation(space, fam.central(1))
    rep = translation_number(f, 16)
    assert rep.displacements == HEISENBERG_CENTRAL_LENGTHS
    assert rep.displacements[16] / 16 < rep.displacements[1]
    # strictly decreasing certified bound along powers of two
    bounds = [rep.bound_trace[n - 1] for n in (1, 2, 4, 8, 16)]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))


def test_translation_number_requires_step():
    space = CayleyGraphSpace(Zd(1))
    with pytest.raises(PreconditionError):
        translation_number(group_translation(space, (1,)), 0)


# ---------------------------------------------------------------------------
# Minimal displacement
# ---------------------------------------------------------------------------


def test_fixed_point_gives_zero_displacement():
    space = FiniteMetricSpace([[0, 1], [1, 0]])
    f = SelfMap(space, lambda x: 0, kind="semi-contraction")
    rep = minimal_displacement(f, [0, 1])
    assert rep.bound == 0
    assert rep.argmin == 0


def test_parabolic_displacement_bound_decays():
    f = half_plane_translation(1.0).as_selfmap(HP)
    rep = minimal_displacement(f, [complex(0.0, 2.0**k) for k in range(0, 40)])
    assert float(rep.bound) < 1e-11
    assert all(b <= a for a, b in zip(rep.trace, rep.trace[1:]))
    # closed form: d(iy, 1 + iy) = arccosh(1 + 1/(2y^2))
    y = 4.0
    assert HP.distance(4j, 1 + 4j) == pytest.approx(math.acosh(1 + 1 / (2 * y * y)))


def test_rotation_displacement_vs_tau():
    space = CayleyGraphSpace(cyclic_group(12))
    rot = group_translation(space, 3)
    rep = minimal_displacement(rot, list(range(12)))
    assert rep.bound == 3
    tau = translation_number(rot, 12)
    assert tau.bound == 0.0  # a_4 = |12 mod 12| = 0


def test_tau_below_displacement_on_fixtures():
    # certified tau upper bound sits below the displacement bound wherever
    # the Fekete bound has converged (it cannot for slowly-distorted maps,
    # where only upper bounds are computable)
    fixtures = []
    space = CayleyGraphSpace(Zd(1))
    fixtures.append((group_translation(space, (2,)), [(k,) for k in range(-5, 6)]))
    axis_map = MoebiusMap(2, 0, 0, Fraction(1, 2)).as_selfmap(HP)  # z -> 4z
    fixtures.append((axis_map, [complex(0.0, 2.0**k) for k in range(0, 8)]))
    rot = group_translation(CayleyGraphSpace(cyclic_group(12)), 3)
    fixtures.append((rot, list(range(12))))
    for f, pts in fixtures:
        tau = translation_number(f, 32).bound
        disp = minimal_displacement(f, pts).bound
        assert tau <= float(disp) + 1e-9


# ---------------------------------------------------------------------------
# Tracial property
# ---------------------------------------------------------------------------


def test_tracial_exact_trace_identity_seeded_pairs():
    rng = random.Random(0)
    for _ in range(50):
        f, g = random_hyperbolic_pair(rng)
        fg = f.compose(g)
        gf = g.compose(f)
        assert fg.trace() == gf.trace()  # exact rational equality


@pytest.mark.parametrize("space", [HP, PoincareDisk()], ids=["half-plane", "disk"])
def test_tracial_estimates_within_proof_bound(space):
    # On the disk, 33 of these 40 pairs had orbits that, stepped point by
    # point in floats, rounded onto the unit circle.
    pairs = [random_hyperbolic_pair(random.Random(seed)) for seed in range(40)]
    reps = tracial_check([(f.as_selfmap(space), g.as_selfmap(space)) for f, g in pairs], 200)
    refs = tracial_check([(f.as_selfmap(HP), g.as_selfmap(HP)) for f, g in pairs], 200)
    assert len(reps) == 40
    for (f, g), rep, ref in zip(pairs, reps, refs):
        assert rep.closed_form_gap == 0
        assert rep.passed
        assert rep.estimate_gap <= rep.proof_bound + 1e-9
        assert (rep.estimate_fg, rep.estimate_gf) == (ref.estimate_fg, ref.estimate_gf)
        # a_200 / 200 of the exact products, by the scalar recurrence
        for est, m in ((rep.estimate_fg, f.compose(g)), (rep.estimate_gf, g.compose(f))):
            assert float.hex(est) == float.hex(float.fromhex(_scalar_hex(m, 200)[-1]) / 200)


def test_tracial_commuting_translations():
    space = CayleyGraphSpace(Zd(2))
    f = group_translation(space, (1, 0))
    g = group_translation(space, (0, 1))
    fg = SelfMap(space, lambda x: f.apply(g.apply(x)), kind="isometry")
    rep_fg = translation_number(fg, 20)
    assert rep_fg.bound == 2.0
    [rep] = tracial_check([(f, g)], 50)
    assert rep.passed
    assert rep.estimate_fg == rep.estimate_gf == 2.0


def test_tracial_with_identity():
    space = CayleyGraphSpace(Zd(1))
    f = group_translation(space, (4,))
    e = SelfMap(space, lambda x: x, kind="isometry")
    [rep] = tracial_check([(f, e)], 30)
    assert rep.estimate_gap == 0.0


def test_tracial_mixed_batch_equals_pair_by_pair():
    disk, z2 = PoincareDisk(), CayleyGraphSpace(Zd(2))
    pairs = []
    for seed in range(12):
        f, g = random_hyperbolic_pair(random.Random(seed))
        space = (HP, disk)[seed % 2]
        pairs.append((f.as_selfmap(space), g.as_selfmap(space)))
        if seed % 3 == 0:
            pairs.append((group_translation(z2, (seed, 1)), group_translation(z2, (-1, seed % 4))))
    reps = tracial_check(pairs, 60)
    assert reps == [tracial_check([p], 60)[0] for p in pairs]
    assert [r.closed_form_gap for r in reps].count(None) == 4


def test_tracial_checks_arguments_before_stepping():
    space = CayleyGraphSpace(Zd(1))
    calls = []

    def shift(x):
        calls.append(x)
        return (x[0] + 1,)

    f = SelfMap(space, shift)
    g = group_translation(space, (2,))
    m = MoebiusMap(1, 1, 1, 2)
    with pytest.raises(PreconditionError, match="n >= 1"):
        tracial_check([(f, g)], 0)
    with pytest.raises(PreconditionError, match="same space"):
        tracial_check([(f, g), (m.as_selfmap(HP), m.as_selfmap(PoincareDisk()))], 10)
    assert calls == []
    assert tracial_check([], 10) == []


# ---------------------------------------------------------------------------
# Spectral principle
# ---------------------------------------------------------------------------


def test_principle_halfplane_axis_map():
    m = MoebiusMap(2, 0, 0, Fraction(1, 2))  # z -> 4z
    f = m.as_selfmap(HP)
    rep = spectral_principle_witness(f, [HalfPlaneBusemannInfinity()], 100)
    assert rep.passed
    assert rep.tau_bound == pytest.approx(math.log(4), abs=1e-12)
    # h(f^n i) = -n log 4 exactly along the axis
    h = HalfPlaneBusemannInfinity()
    assert h.evaluate((4.0**10) * 1j) == pytest.approx(-10 * math.log(4))


def test_principle_z_shift():
    space = CayleyGraphSpace(Zd(1))
    f = group_translation(space, (1,))
    rep = spectral_principle_witness(f, [ZdLinear([1])], 50, tol=0)
    assert rep.passed
    assert rep.violations[0] == 0


def test_principle_l2_translation():
    space = LpSpace(2, 4)
    v = np.array([0.6, 0.8, 0.0, 0.0])
    f = SelfMap(space, lambda x: np.asarray(x, dtype=float) + v, kind="isometry")
    rep = spectral_principle_witness(f, [Linear(v)], 60, tol=1e-9)
    assert rep.passed


def test_principle_picks_best_candidate():
    space = CayleyGraphSpace(Zd(1))
    f = group_translation(space, (1,))
    rep = spectral_principle_witness(f, [ZdLinear([-1]), ZdLinear([1])], 20)
    assert rep.best_index == 1
    with pytest.raises(InvalidParameterError):
        spectral_principle_witness(f, [], 20)


# ---------------------------------------------------------------------------
# Almost fixed points
# ---------------------------------------------------------------------------


def test_almost_fixed_halfplane_parabolic_equality():
    f = half_plane_translation(1.0).as_selfmap(HP)
    rng = random.Random(0)
    grid = HP.sample_points(rng, 100)
    rep = almost_fixed_invariant_functional(
        f,
        [complex(0.0, 2.0**k) for k in range(0, 46)],
        [2.0**-j for j in range(0, 31)],
        grid,
        tol=1e-9,
    )
    assert rep.equality_mode
    assert rep.audit_passed
    assert rep.audit_checked == 100
    assert rep.audit_worst <= 1e-9


def test_almost_fixed_contraction_toward_origin():
    space = LpSpace(2, 1)
    f = SelfMap(space, lambda x: np.asarray(x, dtype=float) / 2.0)
    witnesses = [np.array([2.0**-k]) for k in range(0, 44)]
    grid = [np.array([v]) for v in (-3.0, -1.0, 0.5, 2.0)]
    rep = almost_fixed_invariant_functional(
        f, witnesses, [2.0**-j for j in range(0, 42)], grid, tol=1e-6
    )
    assert rep.audit_passed
    # the limit functional is h_0 = |.|, so h(x/2) <= h(x) strictly off 0
    assert rep.functional.evaluate(np.array([2.0])).value == pytest.approx(2.0, abs=1e-6)


def test_almost_fixed_finite_space_fixed_point():
    space = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    f = SelfMap(space, lambda x: {0: 0, 1: 0, 2: 1}[x])
    # the constant witness schedule at the fixed point certifies h = h_0
    rep = almost_fixed_invariant_functional(
        f, [0], [Fraction(0)] * 10, [0, 1, 2], tol=0
    )
    assert rep.audit_passed
    assert rep.functional.evaluate(2).value == 2


def test_almost_fixed_audit_stops_at_an_unstabilized_point():
    # On the path 0-1-2-3 with f = 0, the chosen witnesses are 3, 2 and six
    # 1s: every h_w(0) is 0, but at 3 the trailing run of 1s is shorter than
    # the stable window, so the audit stops there, counting only x = 0.
    space = FiniteMetricSpace([[abs(i - j) for j in range(4)] for i in range(4)])
    f = SelfMap(space, lambda x: 0)
    rep = almost_fixed_invariant_functional(f, [3, 2, 1], [3, 2] + [1] * 6, [0, 3, 1], tol=0)
    assert (rep.audit_passed, rep.audit_checked, rep.audit_worst, rep.equality_mode) == (False, 1, 0.0, False)
    assert type(rep.audit_worst) is float
    assert rep.functional.evaluate(3) == EvalOutcome(Fraction(1), False, 2, None, 8)


def test_almost_fixed_requires_displacement_cert():
    f = half_plane_translation(1.0).as_selfmap(HP)
    with pytest.raises(PreconditionError):
        almost_fixed_invariant_functional(f, [1j], [1e-6], [1j])


# ---------------------------------------------------------------------------
# Orbit functionals for distorted isometries
# ---------------------------------------------------------------------------


def test_orbit_space_monotone_marker():
    orb = OrbitSpace([0, 4, 6, 8, 8, 10])
    assert orb.n0 == 0
    orb2 = OrbitSpace([0, 3, 2, 4, 5, 6])
    assert orb2.n0 == 2
    with pytest.raises(InvalidParameterError):
        OrbitSpace([1, 2])


def test_identity_orbit_trivial_functional():
    orb = OrbitSpace([0] * 33)
    rep = parabolic_orbit_functional(orb, eval_hi=4, averaging=4, delta=1.0)
    assert all(v == 0 for v in rep.values)
    assert rep.certificate == "stabilized"
    assert rep.monotone_ok
    assert rep.cesaro_sup == 0.0


def test_parabolic_orbit_requires_early_monotonicity():
    D = [0] + list(range(30, 0, -1)) + list(range(1, 40))
    with pytest.raises(NotMonotoneError) as exc:
        parabolic_orbit_functional(OrbitSpace(D), eval_hi=2, averaging=2)
    assert exc.value.witness_index is not None


def test_parabolic_orbit_requires_small_tau():
    orb = OrbitSpace([3 * k for k in range(33)])
    with pytest.raises(PreconditionError):
        parabolic_orbit_functional(orb, eval_hi=4, averaging=4, delta=1.0)


def test_disk_parabolic_horocycle_values_vanish():
    worst, vals = disk_parabolic_horocycle_audit(-100, 100)
    assert worst <= 1e-9
    assert len(vals) == 201


def test_disk_parabolic_orbit_points():
    # g^n(0) = n / (n + 2i) in the disk model
    pts = disk_parabolic_orbit(-3, 3)
    for n, w in zip(range(-3, 4), pts):
        assert w == pytest.approx(n / (n + 2j), abs=1e-12)


def test_disk_parabolic_orbit_equals_composed_matrices():
    # The n-th point of the composed orbit: |n| steps of z -> z +- 1 composed
    # as MoebiusMaps from the identity, then i mapped and Cayley-transformed.
    step = half_plane_translation(1.0)
    for factor, ns in ((step, range(0, 151)), (step.inverse(), range(0, -151, -1))):
        m = MoebiusMap(1.0, 0.0, 0.0, 1.0)
        composed = []
        for _ in ns:
            composed.append(cayley_to_disk(m.apply_half_plane(1j)))
            m = m.compose(factor)
        lo, hi = min(ns), max(ns)
        got = disk_parabolic_orbit(lo, hi)
        assert (got if lo == 0 else got[::-1]) == composed  # bit for bit


def test_disk_parabolic_orbit_functional_trend():
    disk = PoincareDisk()
    D32 = [disk.distance(0j, w) for w in disk_parabolic_orbit(0, 32)]
    D128 = [disk.distance(0j, w) for w in disk_parabolic_orbit(0, 128)]
    rep32 = parabolic_orbit_functional(OrbitSpace(D32), eval_hi=4, averaging=4, delta=2.0)
    rep128 = parabolic_orbit_functional(OrbitSpace(D128), eval_hi=4, averaging=4, delta=2.0)
    assert rep32.monotone_ok and rep128.monotone_ok
    # candidate values shrink toward 0 as the window grows (log growth)
    assert rep128.vanishing_sup < rep32.vanishing_sup
    assert rep128.tau_bound < rep32.tau_bound


HEISENBERG_CANDIDATE_VALUES_0_TO_16 = [0, 0, 0, 0, 0, 0, 0, -2, -2, -2, -2, -2, -2, -4, -4, -4, -4]


def test_heisenberg_central_orbit_functional():
    fam = Heisenberg()
    space = CayleyGraphSpace(fam)
    f = group_translation(space, fam.central(1))
    orbit = OrbitSpace.from_selfmap(f, 64)
    assert orbit.D[:17] == HEISENBERG_CENTRAL_LENGTHS
    assert orbit.n0 == 0
    rep = parabolic_orbit_functional(orbit, eval_hi=16, averaging=16, delta=1.0)
    assert rep.monotone_ok  # h(n) <= h(m) for n >= m, exactly
    base = rep.indices.index(0)
    assert rep.values[base : base + 17] == HEISENBERG_CANDIDATE_VALUES_0_TO_16
    # window-growth trend toward the vanishing functional
    orbit32 = OrbitSpace(orbit.D[:33])
    rep32 = parabolic_orbit_functional(orbit32, eval_hi=16, averaging=16, delta=1.0)
    assert rep.vanishing_sup < rep32.vanishing_sup


# ---------------------------------------------------------------------------
# Distorted line compactification
# ---------------------------------------------------------------------------


def test_distorted_line_log1p_bounds():
    line = DistortedLine("log1p")
    rep = distorted_compactification_check(line, 10.0, [1e2, 1e4, 1e6])
    assert rep.decreasing
    assert rep.sups[-1] <= 1e-4
    assert rep.crude_bounds[-1] == pytest.approx(
        math.log((1 + 1e6 + 10) / (1 + 1e6 - 10)), rel=1e-6
    )


def test_distorted_line_sqrt_bounds():
    line = DistortedLine("sqrt")
    rep = distorted_compactification_check(line, 10.0, [1e4, 1e6, 1e8])
    assert rep.decreasing
    assert rep.sups[-1] <= 1e-3


def test_distorted_line_zero_radius():
    line = DistortedLine("sqrt")
    rep = distorted_compactification_check(line, 0.0, [10.0, 100.0])
    assert rep.sups == [0.0, 0.0]


def test_distorted_line_anchor_validation():
    line = DistortedLine("sqrt")
    with pytest.raises(PreconditionError):
        distorted_compactification_check(line, 10.0, [5.0])
    with pytest.raises(PreconditionError):
        distorted_compactification_check(line, 1.0, [100.0, 50.0])


@pytest.mark.parametrize("r, anchors", [(math.nan, [1e2, 1e4]), (math.inf, [1e2]), (10.0, [math.nan, 1e4]),
                                        (10.0, [1e2, math.inf]), (10.0, [-math.inf]),
                                        (1e308, [1.5e308])])  # D(x + r) = D(inf)
def test_distorted_line_rejects_non_finite_inputs(r, anchors):
    with pytest.raises(PreconditionError, match="finite"):
        distorted_compactification_check(DistortedLine("log1p"), r, anchors)


# ---------------------------------------------------------------------------
# Isometries: d(f x, f y) = d(x, y) on sampled pairs
# ---------------------------------------------------------------------------


def sampled_pair_gaps(f, pairs):
    pts = f.space.sample_points(random.Random(0), 2 * pairs)
    d = f.space.distance
    return [
        d(f.apply(x), f.apply(y)) - d(x, y) for x, y in zip(pts[::2], pts[1::2])
    ]


def test_group_translation_is_isometry_on_word_metric():
    f = group_translation(CayleyGraphSpace(Zd(2)), (2, -1))
    assert sampled_pair_gaps(f, 128) == [0] * 128


def test_moebius_map_is_isometry_on_half_plane():
    f = MoebiusMap(1, 1, 1, 2).as_selfmap(HP)
    assert max(abs(g) for g in sampled_pair_gaps(f, 256)) <= 1e-12
