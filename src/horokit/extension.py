"""1-Lipschitz extension machinery and the counterexamples separating
pointwise limits from uniform-on-balls limits.

The sup/inf extension formulas extend any 1-Lipschitz real function from a
subset exactly; the subset-to-space extension of limit functionals is
realized along a deterministic witness subsequence chosen by pigeonhole on
evaluation tables.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidParameterError, PreconditionError
from .functionals import EvalOutcome, WitnessLimit
from .metric import MetricSpace, Point, Scalar
from .metric import first_failure, first_lipschitz_violation, numeric_arrays, rational_field
from .spaces import HUB, SpokeRaySpace, StarTreeSpace


# ---------------------------------------------------------------------------
# Partial functionals and the sup/inf extensions
# ---------------------------------------------------------------------------


class PartialFunctional:
    """A 1-Lipschitz real function on a finite subset of a space.

    The Lipschitz certificate is checked over all domain pairs at
    construction; the first violating pair in row-major order is reported
    in the error.
    """

    def __init__(
        self,
        space: MetricSpace,
        points: Sequence[Point],
        values: Sequence[Scalar],
    ):
        if len(points) != len(values):
            raise InvalidParameterError("domain and value lists differ in length")
        if not points:
            raise InvalidParameterError("domain must be nonempty")
        self.space = space
        self.points = list(points)
        self.values = list(values)
        D, den = space.distance_block(self.points)(self.points, np.arange(len(self.points)))
        # The checker wants 0 at index 0, which a shift gives; times den is D's scale.
        shifted = [[(v - self.values[0]) * den for v in self.values]]
        hit = first_lipschitz_violation(*numeric_arrays(shifted, D, tol=0 if space.exact else 1e-12))
        if hit is not None:
            _, i, j = hit
            d = D[i, j] if den == 1 else Fraction(int(D[i, j]), den)
            raise InvalidParameterError(
                f"not 1-Lipschitz on pair ({space.point_label(points[i])}, {space.point_label(points[j])}): "
                f"|{values[i]} - {values[j]}| > {d}"
            )


@dataclass
class McShaneExtension:
    """Exact sup- or inf-extension of a partial functional.

    sup mode: F(b) = max_a (f(a) - d(a, b)) is the least 1-Lipschitz
    extension; inf mode: F(b) = min_a (f(a) + d(a, b)) is the greatest.
    """

    partial: PartialFunctional
    mode: str

    def __post_init__(self):
        if self.mode not in ("sup", "inf"):
            raise InvalidParameterError(f"mode must be 'sup' or 'inf', got {self.mode!r}")

    def evaluate(self, targets: Sequence[Point]) -> list[Scalar]:
        """F at each of ``targets``, from one ``distance_block`` of them
        against the domain.  On an exact space the values go onto the
        block's denominator L as Python ints, so no pair builds a Fraction
        or scales in int64, and each target is one Fraction over L."""
        pf, exact = self.partial, self.partial.space.exact
        D, den = pf.space.distance_block(pf.points)(targets, np.arange(len(pf.points)))
        fr = list(map(Fraction, pf.values)) if exact else pf.values  # a float value is read exactly
        L = math.lcm(den, *(v.denominator for v in fr)) if exact else den  # a float block's den is 1
        V = [v.numerator * (L // v.denominator) for v in fr] if exact else fr
        op, best = (operator.sub, max) if self.mode == "sup" else (operator.add, min)
        rows = (D if L == den else D.astype(object) * (L // den)).tolist()
        out = [best(map(op, V, row)) for row in rows]
        return [Fraction(x, L) for x in out] if exact else out

    def __call__(self, b: Point) -> Scalar:
        """F at the one point b, as ``evaluate([b])[0]``: how
        :func:`~horokit.functionals.eval_functional` reads it."""
        return self.evaluate([b])[0]


# ---------------------------------------------------------------------------
# Pigeonhole limits along witness sequences
# ---------------------------------------------------------------------------


class PigeonholeLimit(WitnessLimit):
    """Limit of h_{y_k} along a deterministic subsequence.

    At each newly requested point the row over the active witnesses is
    grouped by value (exactly for exact spaces, by tol/10 clustering for
    float ones); among values recurring at least ``recur_min`` times the
    smallest is chosen and the subsequence restricted to it.  Restricting a
    convergent subsequence never changes already-chosen values, so earlier
    evaluations stay valid.  Failure to find a recurring value is reported,
    not hidden.
    """

    def __init__(
        self,
        space: MetricSpace,
        witnesses: Iterable[Point],
        *,
        budget: int = 4096,
        tol: float = 1e-9,
        recur_min: int = 2,
    ):
        super().__init__(space, witnesses, budget, tol)
        self.recur_min = max(2, recur_min)

    evaluate = WitnessLimit.evaluate  # its own entry, so the layer tracer times it apart

    def _batch(self, M: np.ndarray, den: int) -> list[tuple]:
        return [(row, den) for row in M]  # each row waits for the active witnesses at its evaluation

    def _limit(self, y: Point, kept: Optional[tuple]) -> EvalOutcome:
        active = self.active
        # A preloaded row is over every witness, a point read alone over the active ones.
        (vals,), den = self._rows([y], active) if kept is None else ([kept[0][active]], kept[1])
        j, width = self._choose(vals, active)
        k = -1 if j is None else j  # unstabilized: report the last witness
        exact = self.space.exact
        value = Fraction(int(vals[k]), den) if exact else float(vals[k])
        if j is not None:
            self.active = active[vals == vals[j] if exact else abs(vals - vals[j]) <= self.tol]
        return EvalOutcome(value, j is not None, int(active[k]), width, len(vals))

    def _choose(self, vals: np.ndarray, active: np.ndarray) -> tuple:
        """(position in ``vals`` of the chosen value, cluster width), or
        (None, None) when no value recurs, from one stable sort of the row.
        Exact: the least value in a run of at least ``recur_min``, at its
        first witness.  Float: the least cluster of sorted values with gaps
        at most tol/10, at its member from the deepest witness; a NaN sorts
        last, and is a cluster of its own."""
        order = vals.argsort(kind="stable")
        ordered = vals[order]
        if self.space.exact:
            # The first i with ordered[i] == ordered[i + recur_min - 1] starts the least long run.
            tail = ordered[self.recur_min - 1 :]
            same = tail == ordered[: len(tail)]
            return (int(order[same.argmax()]), None) if same.any() else (None, None)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, a break as no gap is
            breaks = np.flatnonzero(~(np.diff(ordered) <= self.tol / 10.0)) + 1
        cuts = np.concatenate(([0], breaks, [len(vals)]))  # run k is ordered[cuts[k]:cuts[k + 1]]
        hits = np.flatnonzero(np.diff(cuts) >= self.recur_min)
        if not hits.size:
            return None, None
        lo, hi = cuts[hits[0]], cuts[hits[0] + 1]
        members = order[lo:hi]
        return int(members[np.argmax(active[members])]), float(ordered[hi - 1] - ordered[lo])


@dataclass
class RestrictionAudit:
    passed: bool
    checked: int
    worst: Scalar = field(metadata={"json": float})
    failure: Optional[tuple] = field(default=None, metadata={"each": str})


@dataclass
class HahnBanachResult:
    functional: PigeonholeLimit
    table: dict
    audit: RestrictionAudit


def hahn_banach_extend(
    space: MetricSpace,
    h_on_subset: Callable[[Point], Scalar],
    witnesses: Iterable[Point],
    *,
    eval_points: Sequence[Point] = (),
    audit_points: Sequence[Point] = (),
) -> HahnBanachResult:
    """Extend a limit functional of a subset to the whole space.

    ``witnesses`` is a sequence of subset points realizing h pointwise on
    the subset; the extension is the pigeonhole limit of their point
    functionals computed in the ambient space, with the rows of every
    evaluated point read in one block.  The audit re-evaluates the
    extension on subset points and compares with h (exactly on exact
    spaces, within the limit's tol otherwise).
    """
    H = PigeonholeLimit(space, witnesses)
    H.preload([*eval_points, *audit_points])
    table = {space.point_label(p): H.evaluate(p) for p in sorted(eval_points, key=space.point_key)}

    def gap(y):
        out = H.evaluate(y)
        return abs(out.value - h_on_subset(y)) if out.stabilized else None

    slack = 0 if space.exact else H.tol
    checked, worst, y, g = first_failure(sorted(audit_points, key=space.point_key), gap, slack)
    failure = None if y is None else ("no_stabilization", y)
    if g is not None:
        failure = ("restriction_mismatch", y, H.evaluate(y).value, h_on_subset(y))
    return HahnBanachResult(H, table, RestrictionAudit(failure is None, checked, worst, failure))


# ---------------------------------------------------------------------------
# Horofunction failure witnesses
# ---------------------------------------------------------------------------


@dataclass
class FailureWitness:
    """One witness of non-uniform convergence: at stage ``stage`` the point
    functional still differs from the limit by ``gap`` at ``point`` inside
    the ball of radius r."""

    stage: Scalar
    point: str
    value_at_stage: Scalar
    limit_value: Scalar
    gap: Scalar


@dataclass
class FailureReport:
    space: str
    r: Scalar
    witnesses: list[FailureWitness]
    # (point, stage index where exact), each written as {"point", "stage"}
    pointwise_stabilization: list[tuple] = field(metadata={"each": lambda p: {"point": p[0], "stage": p[1]}})


def spoke_ray_failure_witness(r, stages: Sequence) -> FailureReport:
    """For each ray stage t, exhibit a satellite head past t where the ray's
    point functional is still 3/2 away from its pointwise limit.

    The head sits at distance 1 <= r from the base point, so convergence is
    not uniform on B(r) no matter how large t is; at any FIXED head the
    values stabilize exactly once t passes its index.
    """
    r = rational_field(r, "r")
    if r < 1:
        raise PreconditionError("need r >= 1 so that the heads are inside the ball")
    space = SpokeRaySpace()
    witnesses = []
    for t in stages:
        t = rational_field(t, "stage")
        if t < 1:
            raise PreconditionError("stages must be >= 1")
        n = int(t) + 1
        head = space.spoke_head(n)
        at_stage = space.distance(head, space.gamma(t)) - t
        limit = Fraction(-1, 2)  # own-spoke route: (n - 1/2) + (t - n) - t
        witnesses.append(
            FailureWitness(t, space.point_label(head), at_stage, limit, abs(at_stage - limit))
        )
    stab = []
    for n in (1, 2, 3, 5, 8):
        head = space.spoke_head(n)
        # d(head, gamma(t)) - t equals -1/2 for every t >= n.
        stab.append((space.point_label(head), n))
    return FailureReport("spoke_ray", r, witnesses, stab)


def star_tree_failure_witness(r, branch_indices: Sequence[int]) -> FailureReport:
    """On the interval star, h_{x_n} converges pointwise to d(x0, .) while
    missing it by exactly 2s at the depth-s point of branch n."""
    r = rational_field(r, "r")
    if r < 1:
        raise PreconditionError("need r >= 1")
    space = StarTreeSpace()
    witnesses = []
    for n in branch_indices:
        s = min(r, Fraction(n))
        y = space.interval_point(n, s)
        xn = space.endpoint(n)
        at_stage = space.distance(y, xn) - space.distance(HUB, xn)  # = -s
        limit = space.distance(HUB, y)  # pointwise limit is h at the hub
        witnesses.append(
            FailureWitness(n, space.point_label(y), at_stage, limit, abs(at_stage - limit))
        )
    stab = []
    for m in (1, 2, 3, 5):
        y = space.interval_point(m, min(r, Fraction(m)))
        # h_{x_n}(y) equals d(x0, y) for every n != m: stabilizes past m.
        stab.append((space.point_label(y), m + 1))
    return FailureReport("star_tree", r, witnesses, stab)


# ---------------------------------------------------------------------------
# The zero functional is not a limit on the two-point set {-1, +1} of R
# ---------------------------------------------------------------------------


@dataclass
class ZeroObstructionReport:
    """Closed-form obstruction: max(|h_z(1)|, |h_z(-1)|) = 1 for every real
    anchor z, so no anchor sequence can take both values to 0."""

    passed: bool
    grid_size: int = field(metadata={"key": "grid"})
    min_of_max: Scalar
    # |h_z(1)| = 1 exactly for all |z| >= 1; h_z(1) + h_z(-1) = 2(1 - |z|) for |z| <= 1
    outside_identity_ok: bool = field(metadata={"key": "outside_identity"})
    inside_identity_ok: bool = field(metadata={"key": "inside_identity"})


def euclidean_zero_nonmembership_check(grid: Sequence) -> ZeroObstructionReport:
    """Check the obstruction over a grid of rational anchors z on the line.

    h_z(y) = |y - z| - |z|.  For |z| >= 1, |h_z(1)| = 1 exactly; for
    |z| <= 1, h_z(1) + h_z(-1) = 2(1 - |z|) and still max(|h_z(+-1)|) = 1.
    """
    anchors = [rational_field(z, "anchor") for z in grid]
    if not anchors:
        raise PreconditionError("anchor grid must be nonempty")
    # Over the anchors' common denominator q, z = p / q, q h_z(1) = |q - p| - |p|
    # and q h_z(-1) = |q + p| - |p|: each identity is checked on the integers.
    q = math.lcm(*{z.denominator for z in anchors})
    ps = [z.numerator * (q // z.denominator) for z in anchors]
    h1 = [abs(q - p) - abs(p) for p in ps]
    hm1 = [abs(q + p) - abs(p) for p in ps]
    min_of_max = Fraction(min(map(max, map(abs, h1), map(abs, hm1))), q)
    outside_ok = all(abs(h) == q for p, h in zip(ps, h1) if abs(p) >= q)
    inside_ok = all(a + b == 2 * (q - abs(p)) for p, a, b in zip(ps, h1, hm1) if abs(p) <= q)
    passed = min_of_max >= 1 and outside_ok and inside_ok
    return ZeroObstructionReport(passed, len(anchors), min_of_max, outside_ok, inside_ok)
