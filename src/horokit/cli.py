"""Command-line driver with machine-readable output.

Each computation is one leaf command (``horokit boundary``, ``horokit
spectral tau``, ...) that takes ``--format json|csv``, ``--out`` and
``--selftest`` plus exactly the flags its handler reads; any other flag is a
usage error.  Every handler returns an :class:`Outcome`, and ``main`` writes
either its JSON report or, only for ``--format csv``, its plot-ready CSV
rows.  Exit codes: 0 success, 1 a property audit failed, 2 invalid input,
3 resource or iteration budget exhausted.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import random
import sys
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .boundary import (
    ZFunctional,
    limit_restrictions,
    reduced_classify_z,
    reduced_fixed_point_audit,
    unboundedness_check,
)
from .dynamics import (
    MoebiusMap,
    OrbitSpace,
    almost_fixed_invariant_functional,
    disk_parabolic_horocycle_audit,
    distorted_compactification_check,
    group_translation,
    half_plane_translation,
    minimal_displacement,
    parabolic_orbit_functional,
    random_hyperbolic_pair,
    spectral_principle_witness,
    tracial_check,
    translation_number,
)
from .errors import (
    BudgetError,
    HorokitError,
    InvalidParameterError,
    ResourceLimitError,
)
from .extension import (
    McShaneExtension,
    PartialFunctional,
    euclidean_zero_nonmembership_check,
    hahn_banach_extend,
    spoke_ray_failure_witness,
    star_tree_failure_witness,
)
from .functionals import HalfPlaneBusemannInfinity, ZdLinear
from .groups import CayleyGraphSpace, FreeGroup, GeneratingSet, Heisenberg, Zd
from .metric import exact_text, finite_float, integer_field, list_field, rational_field, real_field, validate_metric
from .serialize import (
    SCHEMA_VERSION,
    emit_json,
    point_from_json,
    space_from_descriptor,
)
from .spaces import (
    DISTORTIONS,
    DistortedLine,
    HUB,
    LpSpace,
    PoincareDisk,
    SpokeRaySpace,
    StarTreeSpace,
    UpperHalfPlane,
    distorted_line_validate,
)

SLICE = 1 << 16  # characters of a report written at a time


class Outcome(NamedTuple):
    """One computation's report: ``result`` is any value ``emit_json`` writes,
    and ``rows`` returns the CSV rows, called only when CSV is asked for."""

    command: str
    config: dict
    result: object
    ok: bool
    rows: Callable[[], Iterable[Sequence]]


def _group_family(args):
    if args.group == "free":
        return FreeGroup(args.rank)
    if args.group == "heisenberg":
        return Heisenberg()
    return Zd(1 if args.group == "z" else args.dim)


def _json(flag: str, text: str):
    """The JSON value of ``flag``: text that does not parse, nests too deep or
    holds a number past int's text limit is invalid input (exit 2)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"malformed {flag}: {exc}") from exc
    except ValueError as exc:  # only int's, on a number past its digit limit
        raise InvalidParameterError(f"malformed {flag}: a number past {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise InvalidParameterError(f"malformed {flag}: nesting too deep") from exc


def _count(flag: str, value: int, minimum: int = 0) -> int:
    """A count or tolerance flag: below ``minimum``, infinite or NaN, a
    check would pass vacuously or could not pass at all."""
    if not minimum <= value < math.inf:
        raise InvalidParameterError(f"{flag} must be finite and >= {minimum}, got {value}")
    return value


def _load_space(text: str):
    desc = _json("--space", text)
    try:
        return space_from_descriptor(desc)
    except (ValueError, ZeroDivisionError):  # only Fraction's, on a finite matrix entry: name the first
        [rational_field(v, "matrix entry") for row in desc["params"]["matrix"] for v in row]
        raise


def _mobius_from_flag(text: str | None) -> MoebiusMap:
    if text is None:
        raise InvalidParameterError("--map mobius needs --matrix")
    parts = [rational_field(p, "--matrix entry") for p in text.split(",")]
    if len(parts) != 4:
        raise InvalidParameterError("matrix flag needs four comma-separated entries")
    return MoebiusMap(*parts)


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------


def _boundary(args) -> Outcome:
    family = _group_family(args)
    lrs = limit_restrictions(family, GeneratingSet.standard(family), args.r, args.rmax, args.window)
    audit = unboundedness_check(lrs)
    config = {k: getattr(args, k) for k in ("group", "dim", "rank", "r", "rmax", "window")}

    def rows():
        yield [f"# certificate={lrs.certificate.kind} count={len(lrs.values)}"]
        if len(lrs.values):
            yield lrs.labels
        yield from lrs.values.tolist()

    result = {"restrictions": lrs, "unboundedness": audit}
    return Outcome("boundary", config, result, audit.passed, rows)


def _selftest_boundary() -> list[tuple[str, bool]]:
    z1 = Zd(1)
    lrs = limit_restrictions(z1, GeneratingSet.standard(z1), 2, 12, 3)
    checks = [
        ("z_two_points", len(lrs.values) == 2),
        ("z_stabilized", lrs.certificate.kind == "stabilized"),
        ("z_unbounded", unboundedness_check(lrs).passed),
    ]
    # One run per closed-form distance kernel: the count and certificate (F_3's rows span 9 words).
    for name, family, r, rmax, count in (("free_count", FreeGroup(2), 1, 6, 4),
                                         ("z2_sign_patterns", Zd(2), 1, 8, 3**2 - 1),
                                         ("h3_count", Heisenberg(), 1, 8, 13),
                                         ("f3_prefixes", FreeGroup(3), 3, 7, 2 * 3 * 5**2)):
        lrs = limit_restrictions(family, GeneratingSet.standard(family), r, rmax, 2)
        checks.append((name, len(lrs.values) == count and lrs.certificate.kind == "stabilized"))
    return checks


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------


def _extend_mcshane(args) -> Outcome:
    for flag in ("space", "domain", "values"):  # not required of --selftest, so checked here
        if getattr(args, flag) is None:
            raise InvalidParameterError(f"--{flag} is required")
    space = _load_space(args.space)
    pts = [point_from_json(space, p) for p in list_field(_json("--domain", args.domain), "--domain")]
    read = rational_field if space.exact else lambda v, name: real_field(v, name, finite_float)
    vals = [read(v, "value") for v in list_field(_json("--values", args.values), "--values")]
    ext = McShaneExtension(PartialFunctional(space, pts, vals), args.mode)
    if args.eval == "all":
        targets = space.points()
        if targets is None:
            raise InvalidParameterError("--eval all needs a space with finitely many points")
    else:
        targets = [point_from_json(space, p) for p in list_field(_json("--eval", args.eval), "--eval")]
    values = list(zip(map(space.point_label, targets), ext.evaluate(targets)))
    result = {"mode": args.mode, "values": [{"point": p, "value": v} for p, v in values]}
    return Outcome("extend.mcshane", {"mode": args.mode}, result, True,
                   lambda: [("point", "value"), *values])


def _spoke_ray_hahn_banach(n_max: int):
    """h = -t on the ray of the spoke-ray space, extended from the
    witnesses gamma(1..n_max + 15) and evaluated at head(1..n_max)."""
    space = SpokeRaySpace()
    return hahn_banach_extend(
        space,
        lambda y: Fraction(0) if y == HUB else -y[1],
        (space.gamma(k) for k in range(1, n_max + 16)),
        eval_points=[space.spoke_head(n) for n in range(1, n_max + 1)],
        audit_points=[HUB] + [space.gamma(s) for s in range(1, min(n_max, 12))],
    )


def _extend_hahn_banach(args) -> Outcome:
    # spoke-ray at n = 0 would evaluate no point
    n_max = _count("--n", args.n, 1 if args.fixture == "spoke-ray" else 0)
    if args.fixture == "spoke-ray":
        res = _spoke_ray_hahn_banach(n_max)
    elif args.fixture == "plane-axis":
        space = LpSpace(2, 2)
        res = hahn_banach_extend(
            space,
            lambda y: -float(np.asarray(y).ravel()[0]),
            (np.array([2.0**k, 0.0]) for k in range(1, 48)),
            eval_points=[np.array([3.0, 4.0]), np.array([-1.0, 2.0])],
            audit_points=[np.array([s, 0.0]) for s in (0.0, 1.0, 5.0, 20.0)],
        )
    else:  # star-tree
        space = StarTreeSpace()
        res = hahn_banach_extend(
            space,
            lambda y: space.distance(HUB, y),
            (space.endpoint(n) for n in range(1, n_max + 16)),
            eval_points=[space.interval_point(m, Fraction(1, 2)) for m in range(1, 9)],
            audit_points=[space.endpoint(m) for m in range(1, 9)],
        )
    # an evaluated point whose limit did not stabilize is no silent value
    ok = res.audit.passed and all(v.stabilized for v in res.table.values())
    values = {k: v.value for k, v in res.table.items()}
    result = {"fixture": args.fixture, "values": values, "audit": res.audit}
    return Outcome("extend.hahn_banach", {"fixture": args.fixture, "n": args.n}, result, ok,
                   lambda: [("point", "value"), *values.items()])


def _selftest_extend() -> list[tuple[str, bool]]:
    from .metric import FiniteMetricSpace

    space = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    pf = PartialFunctional(space, [0], [Fraction(0)])
    sup = McShaneExtension(pf, "sup")
    inf = McShaneExtension(pf, "inf")
    lo, hi = sup.evaluate([0, 1, 2]), inf.evaluate([0, 1, 2])
    checks = [
        ("single_point_sup", lo == [0, -1, -2]),
        ("single_point_inf", hi == [0, 1, 2]),
        ("ordering", all(a <= b for a, b in zip(lo, hi))),
    ]
    # n = 8: the witnesses gamma(1..23), head(3) among the evaluated points
    checks.append(("spoke_ray_half", _spoke_ray_hahn_banach(8).table["head(3)"].value == Fraction(-1, 2)))
    return checks


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------


def _spectral_map(args):
    if args.map == "mobius":
        return _mobius_from_flag(args.matrix).as_selfmap(UpperHalfPlane())
    space = CayleyGraphSpace(_group_family(args))
    vector = tuple(integer_field(v, "--vector entry") for v in args.vector.split(","))
    space.check_point(vector)
    return group_translation(space, vector)


def _spectral_tau(args) -> Outcome:
    rep = translation_number(_spectral_map(args), args.n)
    ok = rep.closed_form is None or rep.bound >= rep.closed_form - 1e-9
    return Outcome("spectral.tau", {"n": args.n}, rep, ok,
                   lambda: [("n", "bound"), *enumerate(rep.bound_trace, 1)])


def _spectral_displacement(args) -> Outcome:
    f = _spectral_map(args)
    if args.map == "mobius":
        if args.budget > 1024:  # 2.0**1024 is past the float range
            raise InvalidParameterError(f"--budget {args.budget} puts i 2^k past the float range (max 1024)")
        pts = [complex(0.0, 2.0**k) for k in range(0, args.budget)]
    else:
        pts = f.space.sample_points(random.Random(args.seed), args.budget)
    rep = minimal_displacement(f, pts)
    tau = translation_number(f, min(args.n, 64))
    # Both bounds are upper bounds on tau: only an exact tau can fail the audit.
    ok = tau.closed_form is None or tau.closed_form <= float(rep.bound) + 1e-9
    return Outcome("spectral.displacement", {"budget": args.budget},
                   {"displacement": rep, "tau_bound": tau.bound}, ok,
                   lambda: [("k", "bound"), *enumerate(rep.trace)])


def _spectral_tracial(args) -> Outcome:
    rng = random.Random(args.seed)
    space = UpperHalfPlane()
    drawn = [random_hyperbolic_pair(rng) for _ in range(_count("--count", args.count, 1))]
    pairs = tracial_check([(fm.as_selfmap(space), gm.as_selfmap(space)) for fm, gm in drawn], args.n)
    ok = all(p.passed and p.closed_form_gap == 0 for p in pairs)
    return Outcome("spectral.tracial", {"count": args.count, "n": args.n}, {"pairs": pairs}, ok,
                   lambda: [("estimate_gap", "proof_bound"),
                            *((p.estimate_gap, p.proof_bound) for p in pairs)])


def _spectral_principle(args) -> Outcome:
    f = _mobius_from_flag(args.matrix).as_selfmap(UpperHalfPlane())
    rep = spectral_principle_witness(f, [HalfPlaneBusemannInfinity()], args.n)
    return Outcome("spectral.principle", {"n": args.n}, rep, rep.passed,
                   lambda: [("candidate", "violation"), *enumerate(rep.violations)])


def _selftest_spectral() -> list[tuple[str, bool]]:
    space = UpperHalfPlane()
    m = MoebiusMap(2, 0, 0, Fraction(1, 2))
    rep = translation_number(m.as_selfmap(space), 64)
    checks = [("tau_closed_form", abs(rep.bound - math.log(4)) < 1e-9)]
    fm, gm = random_hyperbolic_pair(random.Random(0))
    tr, td = tracial_check([(fm.as_selfmap(s), gm.as_selfmap(s)) for s in (space, PoincareDisk())], 100)
    checks.append(("tracial_exact", tr.closed_form_gap == 0))
    checks.append(("tracial_bound", tr.passed))
    same = (td.estimate_fg, td.estimate_gf) == (tr.estimate_fg, tr.estimate_gf)
    checks.append(("tracial_disk", td.passed and same))
    z1 = CayleyGraphSpace(Zd(1))
    t3 = translation_number(group_translation(z1, (3,)), 12)
    checks.append(("z_translation", t3.bound == 3.0))
    return checks


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def _half_plane_almost_fixed(grid: int, seed: int, tol: float):
    """The invariant functional of z -> z + 1 on the half-plane from its
    almost-fixed points i 2^k, audited on ``grid`` seeded points."""
    space = UpperHalfPlane()
    return almost_fixed_invariant_functional(
        half_plane_translation(1.0).as_selfmap(space),
        [complex(0.0, 2.0**k) for k in range(0, 46)],
        [2.0 ** -j for j in range(0, 31)],
        space.sample_points(random.Random(seed), grid),
        tol=tol,
    )


def _dynamics_almost_fixed(args) -> Outcome:
    rep = _half_plane_almost_fixed(_count("--grid", args.grid, 1), args.seed, _count("--tol", args.tol))
    return Outcome("dynamics.almost_fixed", {"grid": args.grid}, rep, rep.audit_passed,
                   lambda: [("audit_worst", rep.audit_worst)])


def _dynamics_parabolic(args) -> Outcome:
    if args.fixture == "disk-parabolic":
        # at n = 0 the audit would check only the point where h is 0 by construction
        n, tol = _count("--n", args.n, 1), _count("--tol", args.tol)
        worst, vals = disk_parabolic_horocycle_audit(-n, n)
        return Outcome("dynamics.parabolic.disk", {"n": n},
                       {"max_abs": worst, "values_head": vals[:5]}, worst <= tol,
                       lambda: [("n", "value"), *enumerate(vals, -n)])
    _count("--eval-hi", args.eval_hi)
    family, n = Heisenberg(), _count("--n", args.n, 1)  # at n = 0 the orbit has no point to bound tau by
    orbit = OrbitSpace.from_selfmap(group_translation(CayleyGraphSpace(family), family.central(1)), n)
    rep = parabolic_orbit_functional(orbit, eval_hi=args.eval_hi, averaging=args.averaging)
    return Outcome("dynamics.parabolic.heisenberg", {"n": args.n},
                   {**vars(rep), "displacements": orbit.D}, rep.monotone_ok,
                   lambda: [("m", "value"), *zip(rep.indices, rep.values)])


def _dynamics_distorted_line(args) -> Outcome:
    anchors = [real_field(a, "--anchors entry") for a in args.anchors.split(",")]
    rep = distorted_compactification_check(DistortedLine(args.distortion), args.r, anchors)
    return Outcome("dynamics.distorted_line", {"r": args.r}, rep, rep.decreasing,
                   lambda: [("anchor", "sup"), *zip(rep.anchors, rep.sups)])


def _selftest_dynamics() -> list[tuple[str, bool]]:
    worst, _ = disk_parabolic_horocycle_audit(-20, 20)
    checks = [("horocycle_invariance", worst < 1e-10)]
    line = DistortedLine("log1p")
    rep = distorted_compactification_check(line, 10.0, [1e2, 1e4, 1e6])
    checks.append(("one_point_compactification", rep.decreasing and rep.sups[-1] < 1e-4))
    fixed = _half_plane_almost_fixed(4, 0, 1e-9)
    checks.append(("almost_fixed_invariance", fixed.audit_passed and fixed.audit_checked == 4))
    return checks


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------


def _failure_witness(args, piece: str, witness, gap_ok) -> Outcome:
    stages = list(range(2, 2 + _count("--count", args.count, 1)))
    rep = witness(args.r, stages)
    return Outcome(f"gallery.{piece}", {"r": args.r}, rep, all(gap_ok(w) for w in rep.witnesses),
                   lambda: [("stage", "point", "gap"),
                            *((w.stage, w.point, w.gap) for w in rep.witnesses)])


def _gallery_spoke_ray(args) -> Outcome:
    return _failure_witness(args, "spoke-ray", spoke_ray_failure_witness, lambda w: w.gap == Fraction(3, 2))


def _gallery_star_tree(args) -> Outcome:
    return _failure_witness(args, "star-tree", star_tree_failure_witness,
                            lambda w: w.gap == 2 * min(args.r, w.stage))


def _gallery_euclidean_zero(args) -> Outcome:
    count = _count("--count", args.count, 1)
    rep = euclidean_zero_nonmembership_check([Fraction(k, 4) for k in range(-4 * count, 4 * count + 1)])
    return Outcome("gallery.euclidean_zero", {"count": args.count}, rep, rep.passed,
                   lambda: [("min_of_max", rep.min_of_max)])


def _selftest_gallery() -> list[tuple[str, bool]]:
    rep = spoke_ray_failure_witness(1, [5, 9])
    checks = [("spoke_gap", all(w.gap == Fraction(3, 2) for w in rep.witnesses))]
    rep2 = euclidean_zero_nonmembership_check([Fraction(k, 2) for k in range(-8, 9)])
    checks.append(("zero_obstruction", rep2.passed))
    return checks


# ---------------------------------------------------------------------------
# reduced
# ---------------------------------------------------------------------------


def _reduced_classify_z(args) -> Outcome:
    lo, hi = map(integer_field, args.anchors.partition(":")[::2], ("--anchors start", "--anchors end"))
    if lo > hi:
        raise InvalidParameterError(f"--anchors range {args.anchors} is empty")
    fs = [ZFunctional.point(n) for n in range(lo, hi + 1)] + [ZFunctional.plus_end(), ZFunctional.minus_end()]
    classes = [[f.label() for f in cls] for cls in reduced_classify_z(fs)]
    return Outcome("reduced.classify_z", {"anchors": args.anchors}, {"classes": classes, "count": len(classes)},
                   len(classes) == 3,
                   lambda: [("class", "members"), *((i, ";".join(cls)) for i, cls in enumerate(classes))])


def _z_shift_audit():
    """The shift by 1 on Z moves the linear functional h(k) = k boundedly."""
    g = group_translation(CayleyGraphSpace(Zd(1)), (1,))
    return reduced_fixed_point_audit(g, ZdLinear([1]), [(k,) for k in range(-20, 21)])


def _reduced_fixed_point(args) -> Outcome:
    if args.fixture == "z-shift":
        rep = _z_shift_audit()
    elif args.fixture == "halfplane-parabolic":
        space = UpperHalfPlane()
        g = half_plane_translation(1.0).as_selfmap(space)
        samples = space.sample_points(random.Random(args.seed), 64)
        rep = reduced_fixed_point_audit(g, HalfPlaneBusemannInfinity(), samples, tol=1e-12)
    else:  # disk-rotation
        space = PoincareDisk()
        rot = MoebiusMap(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5))
        h = lambda y: space.distance(y, 0j)  # h_{x0}, orbit of 0 is {0}
        samples = space.sample_points(random.Random(args.seed), 64)
        rep = reduced_fixed_point_audit(rot.as_selfmap(space), h, samples, tol=1e-12)
    return Outcome("reduced.fixed_point", {"fixture": args.fixture}, rep, rep.passed,
                   lambda: [("bound", "worst"), (float(rep.bound), float(rep.worst))])


def _selftest_reduced() -> list[tuple[str, bool]]:
    fs = [ZFunctional.point(0), ZFunctional.point(5), ZFunctional.plus_end(), ZFunctional.minus_end()]
    return [("three_classes", len(reduced_classify_z(fs)) == 3), ("z_shift_audit", _z_shift_audit().passed)]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _validate_metric(args) -> Outcome:
    space = _load_space(args.space)
    rep = validate_metric(space, max_triples=_count("--triples", args.triples, 1), seed=args.seed)
    return Outcome("validate.metric", {"triples": args.triples}, rep, rep.passed,
                   lambda: [("passed", rep.passed)])


def _validate_distortion(args) -> Outcome:
    # one grid point has no consecutive pair to check
    grid = range(1, _count("--grid-max", args.grid_max, 2) + 1)
    rep = distorted_line_validate(DISTORTIONS[args.name], grid)
    return Outcome("validate.distortion", {"name": args.name}, rep, rep.passed,
                   lambda: [("passed", rep.passed)])


def _selftest_validate() -> list[tuple[str, bool]]:
    space = CayleyGraphSpace(Zd(2))
    rep = validate_metric(space, max_triples=2000)
    checks = [("z2_metric", rep.passed)]
    rep2 = distorted_line_validate(DISTORTIONS["sqrt"], range(1, 200))
    checks.append(("sqrt_distortion", rep2.passed))
    return checks


# ---------------------------------------------------------------------------
# parser and emitter
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command grammar, built once per process because in-process
    callers such as ``perfbench/run.py`` call ``main`` once per job."""
    parser = argparse.ArgumentParser(
        prog="horokit",
        description="Metric functionals, boundary restrictions, and semi-contraction spectra",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write the report to a file")
    common.add_argument("--selftest", action="store_true", help="run the command's invariant suite")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    groups = argparse.ArgumentParser(add_help=False)
    groups.add_argument("--group", choices=("z", "zd", "free", "heisenberg"), default="z")
    groups.add_argument("--dim", type=int, default=2)
    groups.add_argument("--rank", type=int, default=2)
    maps = argparse.ArgumentParser(add_help=False, parents=[groups])
    maps.add_argument("--map", choices=("mobius", "translation"), default="mobius")
    maps.add_argument("--matrix", default=None, help="a,b,c,d entries (rationals allowed)")
    maps.add_argument("--vector", default="1", help="translation vector, comma-separated")
    maps.add_argument("--n", type=int, default=200)
    commands = parser.add_subparsers(dest="command", required=True)

    def family(name, selftest, help):
        p = commands.add_parser(name, help=help)
        p.set_defaults(selftest_fn=selftest)
        return p.add_subparsers(dest="variant", required=True)

    def leaf(sub, name, handler, *parents, **kw):
        p = sub.add_parser(name, parents=[common, *parents], **kw)
        p.set_defaults(handler=handler)
        return p

    p = leaf(commands, "boundary", _boundary, groups, help="limit restriction sets of Cayley graphs")
    p.set_defaults(selftest_fn=_selftest_boundary)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--rmax", type=int, default=12)
    p.add_argument("--window", type=int, default=4)

    sub = family("extend", _selftest_extend, "1-Lipschitz extension")
    p = leaf(sub, "mcshane", _extend_mcshane)
    p.add_argument("--space", default=None, help="space descriptor JSON")
    p.add_argument("--domain", default=None, help="JSON list of domain points")
    p.add_argument("--values", default=None, help="JSON list of values")
    p.add_argument("--mode", choices=("sup", "inf"), default="sup")
    p.add_argument("--eval", default="all", help="JSON list of points or 'all'")
    p = leaf(sub, "hahn-banach", _extend_hahn_banach)
    p.add_argument("--fixture", choices=("spoke-ray", "plane-axis", "star-tree"), default="spoke-ray")
    p.add_argument("--n", type=int, default=50)

    sub = family("spectral", _selftest_spectral, "translation numbers and displacement")
    leaf(sub, "tau", _spectral_tau, maps)
    p = leaf(sub, "displacement", _spectral_displacement, maps, seed)
    p.add_argument("--budget", type=int, default=40)
    p = leaf(sub, "tracial", _spectral_tracial, seed)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--n", type=int, default=200)
    p = leaf(sub, "principle", _spectral_principle)
    p.add_argument("--matrix", default="2,0,0,1/2", help="a,b,c,d entries (rationals allowed)")
    p.add_argument("--n", type=int, default=200)

    sub = family("dynamics", _selftest_dynamics, "invariant functionals and distorted lines")
    p = leaf(sub, "almost-fixed", _dynamics_almost_fixed, seed)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p = leaf(sub, "parabolic", _dynamics_parabolic)
    p.add_argument("--fixture", choices=("disk-parabolic", "heisenberg-z"), default="disk-parabolic")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--eval-hi", type=int, default=16)
    p.add_argument("--averaging", type=int, default=16)
    p = leaf(sub, "distorted-line", _dynamics_distorted_line)
    p.add_argument("--distortion", choices=tuple(DISTORTIONS), default="log1p")
    p.add_argument("--r", type=float, default=10.0)
    p.add_argument("--anchors", default="100,10000,1000000")

    sub = family("gallery", _selftest_gallery, "counterexample spaces")
    count = argparse.ArgumentParser(add_help=False)
    count.add_argument("--count", type=int, default=10)
    leaf(sub, "spoke-ray", _gallery_spoke_ray, count).add_argument("--r", type=int, default=1)
    leaf(sub, "star-tree", _gallery_star_tree, count).add_argument("--r", type=int, default=1)
    leaf(sub, "euclidean-zero", _gallery_euclidean_zero, count)

    sub = family("reduced", _selftest_reduced, "reduced compactification")
    leaf(sub, "classify-z", _reduced_classify_z).add_argument("--anchors", default="-10:10")
    p = leaf(sub, "fixed-point", _reduced_fixed_point, seed)
    p.add_argument("--fixture", choices=("z-shift", "halfplane-parabolic", "disk-rotation"), default="z-shift")

    sub = family("validate", _selftest_validate, "metric and distortion validation")
    p = leaf(sub, "metric", _validate_metric, seed)
    p.add_argument("--space", default='{"type": "zd", "params": {"dim": 2}}')
    p.add_argument("--triples", type=int, default=10_000)
    p = leaf(sub, "distortion", _validate_distortion)
    p.add_argument("--name", choices=tuple(DISTORTIONS), default="sqrt")
    p.add_argument("--grid-max", type=int, default=1000)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.selftest:
            checks = args.selftest_fn()
            for name, ok in checks:
                print(f"{'PASS' if ok else 'FAIL'} {args.command}.{name}")
            return 0 if all(ok for _, ok in checks) else 1
        outcome = args.handler(args)
        if args.format == "csv":
            text, end = "".join(",".join(map(exact_text, row)) + "\n" for row in outcome.rows()), ""
        else:
            report = {"schema_version": SCHEMA_VERSION, "command": outcome.command,
                      "config": outcome.config, "result": outcome.result}
            text, end = emit_json(report), "\n"  # written apart: no copy of the report
        fh = contextlib.nullcontext(sys.stdout)
        if args.out:
            try:  # opened only now: a failed computation leaves no file
                fh = open(args.out, "w")
            except OSError as exc:
                raise InvalidParameterError(f"cannot write --out {args.out}: {exc.strerror}") from exc
        with fh as sink:  # in slices: a text handle encodes each write whole into a second buffer
            for i in range(0, len(text), SLICE):
                sink.write(text[i:i + SLICE])
            sink.write(end)
    except HorokitError as exc:
        sys.stderr.write(emit_json({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 3 if isinstance(exc, (ResourceLimitError, BudgetError)) else 2
    return 0 if outcome.ok else 1


if __name__ == "__main__":
    sys.exit(main())
