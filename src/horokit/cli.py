"""Command-line driver with machine-readable output.

One subcommand per computation family; reports are JSON (default) or
plot-ready CSV.  Exit codes: 0 success, 1 a property audit failed,
2 invalid input, 3 resource or iteration budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

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
    PartialFunctional,
    euclidean_zero_nonmembership_check,
    hahn_banach_extend,
    horofunction_failure_witness,
    mcshane_extend,
)
from .functionals import HalfPlaneBusemannInfinity, ZdLinear
from .groups import CayleyGraphSpace, FreeGroup, GeneratingSet, Heisenberg, Zd
from .metric import validate_metric
from .serialize import (
    SCHEMA_VERSION,
    emit_json,
    point_from_json,
    scalar_to_json,
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
    frac,
)


def _group_family(args):
    name = args.group
    if name in ("z", "zd"):
        dim = 1 if name == "z" else args.dim
        return Zd(dim)
    if name == "free":
        return FreeGroup(args.rank)
    if name == "heisenberg":
        return Heisenberg()
    raise InvalidParameterError(f"unknown group {name!r}")


@contextmanager
def _parsing(flag: str):
    """Report malformed text in ``flag`` as invalid input (exit 2); the same
    exception types raised anywhere else are internal errors."""
    try:
        yield
    except (TypeError, ValueError, KeyError) as exc:
        raise InvalidParameterError(f"malformed {flag}: {exc}") from exc


def _count(flag: str, value: int, minimum: int = 0) -> int:
    """A count flag: below ``minimum`` the check would pass vacuously."""
    if value < minimum:
        raise InvalidParameterError(f"{flag} must be >= {minimum}, got {value}")
    return value


def _load_space(text: str):
    with _parsing("--space"):
        return space_from_descriptor(json.loads(text))


def _mobius_from_flag(text: str | None) -> MoebiusMap:
    with _parsing("--matrix"):
        if text is None:
            raise InvalidParameterError("--map mobius needs --matrix")
        parts = [Fraction(p) for p in text.split(",")]
    if len(parts) != 4:
        raise InvalidParameterError("matrix flag needs four comma-separated entries")
    return MoebiusMap(*parts)


def _report(command: str, payload: dict, config: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "result": payload,
    }


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------


def _cmd_boundary(args) -> tuple[dict, bool, str]:
    family = _group_family(args)
    gens = GeneratingSet.standard(family)
    lrs = limit_restrictions(family, gens, args.r, args.rmax, args.window)
    audit = unboundedness_check(lrs)
    payload = {
        "restrictions": lrs.as_dict(),
        "unboundedness": audit.as_dict(),
    }
    config = {
        "group": args.group,
        "dim": getattr(args, "dim", None),
        "rank": getattr(args, "rank", None),
        "r": args.r,
        "rmax": args.rmax,
        "window": args.window,
    }
    csv_lines = [f"# certificate={lrs.certificate.kind} count={len(lrs.functionals)}"]
    csv_lines.append(",".join(lrs.functionals[0].labels) if lrs.functionals else "")
    for bf in lrs.functionals:
        csv_lines.append(",".join(str(scalar_to_json(v)) for v in bf.values))
    return _report("boundary", payload, config), audit.passed, "\n".join(csv_lines)


def _selftest_boundary(args) -> list[tuple[str, bool]]:
    z1 = Zd(1)
    lrs = limit_restrictions(z1, GeneratingSet.standard(z1), 2, 12, 3)
    checks = [
        ("z_two_points", len(lrs.functionals) == 2),
        ("z_stabilized", lrs.certificate.kind == "stabilized"),
        ("z_unbounded", unboundedness_check(lrs).passed),
    ]
    f2 = FreeGroup(2)
    lf = limit_restrictions(f2, GeneratingSet.standard(f2), 1, 6, 2)
    checks.append(("free_count", len(lf.functionals) == 4))
    return checks


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------


def _cmd_extend(args) -> tuple[dict, bool, str]:
    if args.variant == "mcshane":
        space = _load_space(args.space)
        with _parsing("--domain"):
            pts = [point_from_json(space, p) for p in json.loads(args.domain)]
        with _parsing("--values"):
            values = json.loads(args.values)
            vals = [Fraction(str(v)) if space.exact else float(v) for v in values]
        pf = PartialFunctional(space, pts, vals)
        ext = mcshane_extend(pf, args.mode)
        if args.eval == "all":
            targets = space.points() if hasattr(space, "points") else pts
        else:
            with _parsing("--eval"):
                targets = [point_from_json(space, p) for p in json.loads(args.eval)]
        rows = [
            {"point": space.point_label(p), "value": scalar_to_json(ext.evaluate(p))}
            for p in targets
        ]
        payload = {"mode": args.mode, "values": rows}
        ok = True
        csv = "\n".join(["point,value"] + [f"{r['point']},{r['value']}" for r in rows])
        return _report("extend.mcshane", payload, {"mode": args.mode}), ok, csv
    # hahn-banach fixtures; spoke-ray at n = 0 would evaluate no point
    _count("--n", args.n, 1 if args.fixture == "spoke-ray" else 0)
    if args.fixture == "spoke-ray":
        space = SpokeRaySpace()
        n_max = args.n
        res = hahn_banach_extend(
            space,
            lambda y: Fraction(0) if y == HUB else -y[1],
            (space.gamma(k) for k in range(1, n_max + 16)),
            eval_points=[space.spoke_head(n) for n in range(1, n_max + 1)],
            audit_points=[HUB] + [space.gamma(s) for s in range(1, min(n_max, 12))],
        )
        rows = {k: scalar_to_json(v.value) for k, v in res.table.items()}
        ok = res.audit.passed and all(v.stabilized for v in res.table.values())
    elif args.fixture == "plane-axis":
        space = LpSpace(2, 2)
        res = hahn_banach_extend(
            space,
            lambda y: -float(np.asarray(y).ravel()[0]),
            (np.array([2.0**k, 0.0]) for k in range(1, 48)),
            eval_points=[np.array([3.0, 4.0]), np.array([-1.0, 2.0])],
            audit_points=[np.array([s, 0.0]) for s in (0.0, 1.0, 5.0, 20.0)],
        )
        rows = {k: v.value for k, v in res.table.items()}
        ok = res.audit.passed
    elif args.fixture == "star-tree":
        space = StarTreeSpace()
        res = hahn_banach_extend(
            space,
            lambda y: space.distance(HUB, y),
            (space.endpoint(n) for n in range(1, args.n + 16)),
            eval_points=[space.interval_point(m, Fraction(1, 2)) for m in range(1, 9)],
            audit_points=[space.endpoint(m) for m in range(1, 9)],
        )
        rows = {k: scalar_to_json(v.value) for k, v in res.table.items()}
        ok = res.audit.passed
    else:
        raise InvalidParameterError(f"unknown fixture {args.fixture!r}")
    payload = {"fixture": args.fixture, "values": rows, "audit": res.audit.as_dict()}
    csv = "\n".join(["point,value"] + [f"{k},{v}" for k, v in rows.items()])
    return _report("extend.hahn_banach", payload, {"fixture": args.fixture, "n": args.n}), ok, csv


def _selftest_extend(args) -> list[tuple[str, bool]]:
    from .metric import FiniteMetricSpace

    space = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    pf = PartialFunctional(space, [0], [Fraction(0)])
    sup = mcshane_extend(pf, "sup")
    inf = mcshane_extend(pf, "inf")
    checks = [
        ("single_point_sup", [sup.evaluate(i) for i in range(3)] == [0, -1, -2]),
        ("single_point_inf", [inf.evaluate(i) for i in range(3)] == [0, 1, 2]),
        ("ordering", all(sup.evaluate(i) <= inf.evaluate(i) for i in range(3))),
    ]
    sr = SpokeRaySpace()
    res = hahn_banach_extend(
        sr,
        lambda y: Fraction(0) if y == HUB else -y[1],
        (sr.gamma(k) for k in range(1, 24)),
        eval_points=[sr.spoke_head(3)],
        audit_points=[sr.gamma(2)],
    )
    checks.append(("spoke_ray_half", list(res.table.values())[0].value == Fraction(-1, 2)))
    return checks


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------


def _spectral_map(args):
    if args.map == "mobius":
        m = _mobius_from_flag(args.matrix)
        return m.as_selfmap(UpperHalfPlane())
    if args.map == "translation":
        family = _group_family(args)
        space = CayleyGraphSpace(family)
        with _parsing("--vector"):
            vector = tuple(int(v) for v in args.vector.split(","))
        space.check_point(vector)
        return group_translation(space, vector)
    raise InvalidParameterError(f"unknown map {args.map!r}")


def _cmd_spectral(args) -> tuple[dict, bool, str]:
    if args.variant == "tau":
        f = _spectral_map(args)
        rep = translation_number(f, args.n)
        ok = True
        if rep.closed_form is not None:
            ok = rep.bound >= rep.closed_form - 1e-9
        payload = rep.as_dict()
        csv = "\n".join(
            ["n,bound"] + [f"{k + 1},{v}" for k, v in enumerate(rep.bound_trace)]
        )
        return _report("spectral.tau", payload, {"n": args.n}), ok, csv
    if args.variant == "displacement":
        f = _spectral_map(args)
        if args.map == "mobius":
            pts = [complex(0.0, 2.0**k) for k in range(0, args.budget)]
        else:
            rng = random.Random(args.seed)
            pts = f.space.sample_points(rng, args.budget)
        rep = minimal_displacement(f, pts)
        tau = translation_number(f, min(args.n, 64)).bound
        ok = tau <= float(rep.bound) + 1e-9
        payload = {"displacement": rep.as_dict(), "tau_bound": tau}
        csv = "\n".join(["k,bound"] + [f"{i},{v}" for i, v in enumerate(rep.trace)])
        return _report("spectral.displacement", payload, {"budget": args.budget}), ok, csv
    if args.variant == "tracial":
        rng = random.Random(args.seed)
        space = UpperHalfPlane()
        rows = []
        ok = True
        for _ in range(_count("--count", args.count, 1)):
            fm, gm = random_hyperbolic_pair(rng)
            rep = tracial_check(fm.as_selfmap(space), gm.as_selfmap(space), args.n)
            ok = ok and rep.passed and rep.closed_form_gap == 0
            rows.append(rep.as_dict())
        payload = {"pairs": rows}
        csv = "\n".join(
            ["estimate_gap,proof_bound"]
            + [f"{r['estimate_gap']},{r['proof_bound']}" for r in rows]
        )
        return _report("spectral.tracial", payload, {"count": args.count, "n": args.n}), ok, csv
    if args.variant == "principle":
        space = UpperHalfPlane()
        m = MoebiusMap(2, 0, 0, Fraction(1, 2)) if args.matrix is None else _mobius_from_flag(args.matrix)
        f = m.as_selfmap(space)
        rep = spectral_principle_witness(f, [HalfPlaneBusemannInfinity()], args.n)
        payload = rep.as_dict()
        csv = "\n".join(["candidate,violation"] + [f"{i},{v}" for i, v in enumerate(rep.violations)])
        return _report("spectral.principle", payload, {"n": args.n}), rep.passed, csv
    raise InvalidParameterError(f"unknown spectral variant {args.variant!r}")


def _selftest_spectral(args) -> list[tuple[str, bool]]:
    space = UpperHalfPlane()
    m = MoebiusMap(2, 0, 0, Fraction(1, 2))
    rep = translation_number(m.as_selfmap(space), 64)
    checks = [("tau_closed_form", abs(rep.bound - math.log(4)) < 1e-9)]
    rng = random.Random(0)
    fm, gm = random_hyperbolic_pair(rng)
    tr = tracial_check(fm.as_selfmap(space), gm.as_selfmap(space), 100)
    checks.append(("tracial_exact", tr.closed_form_gap == 0))
    checks.append(("tracial_bound", tr.passed))
    z1 = CayleyGraphSpace(Zd(1))
    t3 = translation_number(group_translation(z1, (3,)), 12)
    checks.append(("z_translation", t3.bound == 3.0))
    return checks


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def _cmd_dynamics(args) -> tuple[dict, bool, str]:
    if args.variant == "almost-fixed":
        space = UpperHalfPlane()
        f = half_plane_translation(1.0).as_selfmap(space)
        rng = random.Random(args.seed)
        grid = space.sample_points(rng, args.grid)
        rep = almost_fixed_invariant_functional(
            f,
            [complex(0.0, 2.0**k) for k in range(0, 46)],
            [2.0 ** -j for j in range(0, 31)],
            grid,
            tol=args.tol,
        )
        payload = rep.as_dict()
        csv = f"audit_worst,{rep.audit_worst}"
        return _report("dynamics.almost_fixed", payload, {"grid": args.grid}), rep.audit_passed, csv
    if args.variant == "parabolic":
        if args.fixture == "disk-parabolic":
            worst, vals = disk_parabolic_horocycle_audit(-args.n, args.n)
            ok = worst <= args.tol
            payload = {"max_abs": worst, "values_head": vals[:5]}
            csv = "\n".join(["n,value"] + [f"{n - args.n},{v}" for n, v in enumerate(vals)])
            return _report("dynamics.parabolic.disk", payload, {"n": args.n}), ok, csv
        if args.fixture == "heisenberg-z":
            _count("--eval-hi", args.eval_hi)
            family = Heisenberg()
            space = CayleyGraphSpace(family)
            f = group_translation(space, family.central(1))
            orbit = OrbitSpace.from_selfmap(f, args.n)
            rep = parabolic_orbit_functional(
                orbit, eval_hi=args.eval_hi, averaging=args.averaging
            )
            payload = rep.as_dict()
            payload["displacements"] = orbit.D
            ok = rep.monotone_ok
            csv = "\n".join(
                ["m,value"]
                + [f"{m},{scalar_to_json(v)}" for m, v in zip(rep.indices, rep.values)]
            )
            return _report("dynamics.parabolic.heisenberg", payload, {"n": args.n}), ok, csv
        raise InvalidParameterError(f"unknown fixture {args.fixture!r}")
    if args.variant == "distorted-line":
        line = DistortedLine(args.distortion)
        with _parsing("--anchors"):
            anchors = [float(a) for a in args.anchors.split(",")]
        rep = distorted_compactification_check(line, args.r, anchors)
        payload = rep.as_dict()
        csv = "\n".join(
            ["anchor,sup"] + [f"{a},{s}" for a, s in zip(rep.anchors, rep.sups)]
        )
        return _report("dynamics.distorted_line", payload, {"r": args.r}), rep.decreasing, csv
    raise InvalidParameterError(f"unknown dynamics variant {args.variant!r}")


def _selftest_dynamics(args) -> list[tuple[str, bool]]:
    worst, _ = disk_parabolic_horocycle_audit(-20, 20)
    checks = [("horocycle_invariance", worst < 1e-10)]
    line = DistortedLine("log1p")
    rep = distorted_compactification_check(line, 10.0, [1e2, 1e4, 1e6])
    checks.append(("one_point_compactification", rep.decreasing and rep.sups[-1] < 1e-4))
    return checks


# ---------------------------------------------------------------------------
# gallery
# ---------------------------------------------------------------------------


def _cmd_gallery(args) -> tuple[dict, bool, str]:
    _count("--count", args.count, 1)
    if args.piece == "spoke-ray":
        rep = horofunction_failure_witness("spoke_ray", args.r, list(range(2, 2 + args.count)))
        ok = all(w.gap == Fraction(3, 2) for w in rep.witnesses)
    elif args.piece == "star-tree":
        rep = horofunction_failure_witness("star_tree", args.r, list(range(2, 2 + args.count)))
        ok = all(
            w.gap == 2 * min(frac(args.r), Fraction(int(w.stage))) for w in rep.witnesses
        )
    elif args.piece == "euclidean-zero":
        grid = [Fraction(k, 4) for k in range(-4 * args.count, 4 * args.count + 1)]
        rep = euclidean_zero_nonmembership_check(grid)
        payload = rep.as_dict()
        csv = f"min_of_max,{scalar_to_json(rep.min_of_max)}"
        return _report("gallery.euclidean_zero", payload, {"count": args.count}), rep.passed, csv
    else:
        raise InvalidParameterError(f"unknown gallery piece {args.piece!r}")
    payload = rep.as_dict()
    csv = "\n".join(
        ["stage,point,gap"]
        + [f"{scalar_to_json(w.stage)},{w.point},{scalar_to_json(w.gap)}" for w in rep.witnesses]
    )
    return _report(f"gallery.{args.piece}", payload, {"r": args.r}), ok, csv


def _selftest_gallery(args) -> list[tuple[str, bool]]:
    rep = horofunction_failure_witness("spoke_ray", 1, [5, 9])
    checks = [("spoke_gap", all(w.gap == Fraction(3, 2) for w in rep.witnesses))]
    rep2 = euclidean_zero_nonmembership_check([Fraction(k, 2) for k in range(-8, 9)])
    checks.append(("zero_obstruction", rep2.passed))
    return checks


# ---------------------------------------------------------------------------
# reduced
# ---------------------------------------------------------------------------


def _cmd_reduced(args) -> tuple[dict, bool, str]:
    if args.variant == "classify-z":
        with _parsing("--anchors"):
            lo, hi = (int(v) for v in args.anchors.split(":"))
        fs = [ZFunctional.point(n) for n in range(lo, hi + 1)]
        fs += [ZFunctional.plus_end(), ZFunctional.minus_end()]
        classes = reduced_classify_z(fs)
        payload = {
            "classes": [[f.label() for f in cls] for cls in classes],
            "count": len(classes),
        }
        ok = len(classes) == 3
        csv = "\n".join(
            ["class,members"]
            + [f"{i},{';'.join(f.label() for f in cls)}" for i, cls in enumerate(classes)]
        )
        return _report("reduced.classify_z", payload, {"anchors": args.anchors}), ok, csv
    if args.variant == "fixed-point":
        if args.fixture == "z-shift":
            space = CayleyGraphSpace(Zd(1))
            g = group_translation(space, (1,))
            h = ZdLinear([1])
            samples = [(k,) for k in range(-20, 21)]
            rep = reduced_fixed_point_audit(g, h, samples)
        elif args.fixture == "halfplane-parabolic":
            space = UpperHalfPlane()
            g = half_plane_translation(1.0).as_selfmap(space)
            h = HalfPlaneBusemannInfinity()
            rng = random.Random(args.seed)
            rep = reduced_fixed_point_audit(g, h, space.sample_points(rng, 64), tol=1e-12)
        elif args.fixture == "disk-rotation":
            space = PoincareDisk()
            rot = MoebiusMap(Fraction(3, 5), Fraction(-4, 5), Fraction(4, 5), Fraction(3, 5))
            g = rot.as_selfmap(space)
            h = lambda y: space.distance(y, 0j)  # h_{x0}, orbit of 0 is {0}
            rng = random.Random(args.seed)
            rep = reduced_fixed_point_audit(g, h, space.sample_points(rng, 64), tol=1e-12)
        else:
            raise InvalidParameterError(f"unknown fixture {args.fixture!r}")
        payload = rep.as_dict()
        csv = f"bound,worst\n{payload['bound']},{payload['worst']}"
        return _report("reduced.fixed_point", payload, {"fixture": args.fixture}), rep.passed, csv
    raise InvalidParameterError(f"unknown reduced variant {args.variant!r}")


def _selftest_reduced(args) -> list[tuple[str, bool]]:
    fs = [ZFunctional.point(0), ZFunctional.point(5), ZFunctional.plus_end(), ZFunctional.minus_end()]
    checks = [("three_classes", len(reduced_classify_z(fs)) == 3)]
    space = CayleyGraphSpace(Zd(1))
    rep = reduced_fixed_point_audit(
        group_translation(space, (1,)), ZdLinear([1]), [(k,) for k in range(-10, 11)]
    )
    checks.append(("z_shift_audit", rep.passed))
    return checks


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> tuple[dict, bool, str]:
    if args.variant == "metric":
        space = _load_space(args.space)
        _count("--triples", args.triples, 1)
        rep = validate_metric(space, max_triples=args.triples, seed=args.seed)
        payload = rep.as_dict()
        csv = f"passed,{rep.passed}"
        return _report("validate.metric", payload, {"triples": args.triples}), rep.passed, csv
    if args.variant == "distortion":
        if args.name not in DISTORTIONS:
            raise InvalidParameterError(f"unknown distortion {args.name!r}")
        rep = distorted_line_validate(DISTORTIONS[args.name], range(1, args.grid_max + 1))
        payload = rep.as_dict()
        csv = f"passed,{rep.passed}"
        return _report("validate.distortion", payload, {"name": args.name}), rep.passed, csv
    raise InvalidParameterError(f"unknown validate variant {args.variant!r}")


def _selftest_validate(args) -> list[tuple[str, bool]]:
    space = CayleyGraphSpace(Zd(2))
    rep = validate_metric(space, max_triples=2000)
    checks = [("z2_metric", rep.passed)]
    rep2 = distorted_line_validate(DISTORTIONS["sqrt"], range(1, 200))
    checks.append(("sqrt_distortion", rep2.passed))
    return checks


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horokit",
        description="Metric functionals, boundary restrictions, and semi-contraction spectra",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write the report to a file")
    common.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("boundary", parents=[common], help="limit restriction sets of Cayley graphs")
    p.add_argument("--group", choices=("z", "zd", "free", "heisenberg"), default="z")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--rmax", type=int, default=12)
    p.add_argument("--window", type=int, default=4)
    p.add_argument("--selftest", action="store_true")
    p.set_defaults(handler=_cmd_boundary, selftest_fn=_selftest_boundary)

    p = sub.add_parser("extend", parents=[common], help="1-Lipschitz extension")
    p.add_argument("variant", choices=("mcshane", "hahn-banach"))
    p.add_argument("--space", default=None, help="space descriptor JSON")
    p.add_argument("--domain", default=None, help="JSON list of domain points")
    p.add_argument("--values", default=None, help="JSON list of values")
    p.add_argument("--mode", choices=("sup", "inf"), default="sup")
    p.add_argument("--eval", default="all", help="JSON list of points or 'all'")
    p.add_argument("--fixture", choices=("spoke-ray", "plane-axis", "star-tree"), default="spoke-ray")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--selftest", action="store_true")
    p.set_defaults(handler=_cmd_extend, selftest_fn=_selftest_extend)

    p = sub.add_parser("spectral", parents=[common], help="translation numbers and displacement")
    p.add_argument("variant", choices=("tau", "displacement", "tracial", "principle"))
    p.add_argument("--map", choices=("mobius", "translation"), default="mobius")
    p.add_argument("--matrix", default=None, help="a,b,c,d entries (rationals allowed)")
    p.add_argument("--group", choices=("z", "zd", "free", "heisenberg"), default="z")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--vector", default="1", help="translation vector, comma-separated")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--budget", type=int, default=40)
    p.add_argument("--selftest", action="store_true")
    p.set_defaults(handler=_cmd_spectral, selftest_fn=_selftest_spectral)

    p = sub.add_parser("dynamics", parents=[common], help="invariant functionals and distorted lines")
    p.add_argument("variant", choices=("almost-fixed", "parabolic", "distorted-line"))
    p.add_argument("--fixture", choices=("disk-parabolic", "heisenberg-z"), default="disk-parabolic")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--eval-hi", type=int, default=16)
    p.add_argument("--averaging", type=int, default=16)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--distortion", choices=tuple(DISTORTIONS), default="log1p")
    p.add_argument("--r", type=float, default=10.0)
    p.add_argument("--anchors", default="100,10000,1000000")
    p.add_argument("--selftest", action="store_true")
    p.set_defaults(handler=_cmd_dynamics, selftest_fn=_selftest_dynamics)

    p = sub.add_parser("gallery", parents=[common], help="counterexample spaces")
    p.add_argument("piece", choices=("spoke-ray", "star-tree", "euclidean-zero"))
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--check", action="store_true")
    p.add_argument("--selftest", action="store_true")
    p.set_defaults(handler=_cmd_gallery, selftest_fn=_selftest_gallery)

    p = sub.add_parser("reduced", parents=[common], help="reduced compactification")
    p.add_argument("variant", choices=("classify-z", "fixed-point"))
    p.add_argument("--anchors", default="-10:10")
    p.add_argument("--fixture", choices=("z-shift", "halfplane-parabolic", "disk-rotation"), default="z-shift")
    p.add_argument("--selftest", action="store_true")
    p.set_defaults(handler=_cmd_reduced, selftest_fn=_selftest_reduced)

    p = sub.add_parser("validate", parents=[common], help="metric and distortion validation")
    p.add_argument("variant", choices=("metric", "distortion"))
    p.add_argument("--space", default='{"type": "zd", "params": {"dim": 2}}')
    p.add_argument("--triples", type=int, default=10_000)
    p.add_argument("--name", default="sqrt")
    p.add_argument("--grid-max", type=int, default=1000)
    p.add_argument("--selftest", action="store_true")
    p.set_defaults(handler=_cmd_validate, selftest_fn=_selftest_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "selftest", False):
            checks = args.selftest_fn(args)
            for name, ok in checks:
                print(f"{'PASS' if ok else 'FAIL'} {args.command}.{name}")
            return 0 if all(ok for _, ok in checks) else 1
        report, ok, csv_text = args.handler(args)
    except (ResourceLimitError, BudgetError) as exc:
        sys.stderr.write(emit_json({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 3
    except (HorokitError, json.JSONDecodeError) as exc:
        sys.stderr.write(emit_json({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2
    if args.format == "csv":
        _write(csv_text, args)
    else:
        _write(emit_json(report), args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
