"""Metric functionals: exact ball restrictions, closed-form models, and
limits realized along witness sequences, together with the property checks
used throughout (1-Lipschitz, midpoint convexity, functional norm, distance
recovery, l^p limit witnesses).
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BudgetError,
    InvalidParameterError,
    InvalidPointError,
    PreconditionError,
    UnsupportedError,
)
from .metric import MetricSpace, Point, Scalar
from .metric import first_lipschitz_violation
from .spaces import LpSpace, PoincareDisk, disk_gap, lp_norm, pad_pair


# ---------------------------------------------------------------------------
# Ball restrictions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallFunctional:
    """Exact restriction of a metric functional to a finite ball, as one
    reported row: the boundary keeps restrictions as integer matrices.

    The domain is the canonical-ordered point list of B(x0, r) with the
    base point first; identity of a restriction is its value tuple over
    that fixed order.
    """

    radius: Any
    labels: tuple[str, ...] = field(metadata={"key": "order"})
    values: tuple[Any, ...]
    points: tuple = field(compare=False, repr=False, default=(), metadata={"skip": True})

    def check(self, dist: Callable[[Point, Point], Scalar]) -> None:
        """Check the value at the base point (points[0]) is 0 and every pair
        is 1-Lipschitz under ``dist``; |value| <= d(base, .) follows."""
        if len(self.points) != len(self.values):
            raise InvalidParameterError("domain and value lists differ in length")
        pts = self.points
        D = [[dist(p, q) if i < j else 0 for j, q in enumerate(pts)] for i, p in enumerate(pts)]
        check_rows(self.labels, np.array([self.values]), np.array(D, object))  # int64, not np.int64 objects that wrap


def check_rows(labels: Sequence[str], V: np.ndarray, D: np.ndarray) -> None:
    """Raise the first failure of the value rows V of ball restrictions
    against the distance matrix D of their points, as BallFunctional.check
    reports it (see ``first_lipschitz_violation`` for the order)."""
    hit = first_lipschitz_violation(V, D)
    if hit is None:
        return
    _, i, j = hit
    if i == j:
        raise InvalidParameterError("value at the base point must be 0")
    raise InvalidParameterError(
        f"restriction is not 1-Lipschitz on pair ({labels[i]}, {labels[j]})"
    )


# ---------------------------------------------------------------------------
# Closed-form models
# ---------------------------------------------------------------------------


def _vec(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float)).ravel()


class _LpModel:
    """A closed-form l^p model: ``evaluate_batch`` states its formula once,
    over rows of points, and ``evaluate`` reads its first row."""

    def evaluate(self, x) -> float:
        return float(self.evaluate_batch([_vec(x)])[0])


class LpZC(_LpModel):
    """Curved l^p functional with parameters (z, c), c >= ||z||_p to a
    relative 1e-12, p finite.

    h(x) = (||x - z||_p^p + c^p - ||z||_p^p)^(1/p) - c; the limit of point
    functionals anchored at z + (c^p - ||z||_p^p)^(1/p) e_j along fresh
    coordinates j.
    """

    def __init__(self, z, c: float, p: float):
        self.z = _vec(z)
        self.c = float(c)
        self.p = self.ambient_p = float(p)
        if not 1 <= self.p < math.inf:
            raise InvalidParameterError("p must be >= 1 and finite")
        self.znorm = lp_norm(self.z, self.p)
        if self.c < self.znorm * (1 - 1e-12):
            raise InvalidParameterError(
                f"c = {self.c} must be >= ||z||_p = {self.znorm}"
            )
        p = self.p

        def tail(n, c):
            # c^p - n^p, near c = n as c^p (1 - (n / c)^p) from c - n, so that
            # it does not cancel; 0 where rounding takes c below n.
            return max(-(c**p) * math.expm1(p * math.log1p((n - c) / c)) if 2 * n > c else c**p - n**p, 0.0)

        try:
            self._tail_p = tail(self.znorm, self.c)
        except OverflowError:  # c^p past the float range: every row is rescaled
            self._tail_p = math.inf
        self._tail_1 = tail(self.znorm / self.c, 1.0) if self.c else 0.0  # the tail over c^p

    def evaluate_batch(self, X) -> np.ndarray:
        X, z = pad_pair(X, self.z)
        D, p = np.abs(X - z), self.p
        with np.errstate(over="ignore", under="ignore"):
            s = (D**p).sum(axis=1) + self._tail_p
            # A sum below the normal floats (0, or a subnormal that has lost
            # digits) or past them is taken over m = max(max_j |x_j - z_j|, c)
            # first, as lp_norm does; every other row keeps the plain value.
            m = np.maximum(D.max(axis=1, initial=0.0), self.c)
            bad = ~((sys.float_info.min <= s) & (s < math.inf)) & (0 < m) & (m < math.inf)
            if not bad.any():
                return s ** (1.0 / p) - self.c
            m = np.where(bad, m, 1.0)
            s = np.where(bad, ((D / m[:, None]) ** p).sum(axis=1) + (self.c / m) ** p * self._tail_1, s)
            return m * s ** (1.0 / p) - self.c


class LpMu(_LpModel):
    """Linear-type l^p functional h(x) = -sum mu_j x_j with ||mu||_q <= 1,
    1 < p < inf and q its conjugate exponent."""

    def __init__(self, mu, p: float):
        self.mu = _vec(mu)
        self.p = self.ambient_p = float(p)
        if not 1 < self.p < math.inf:
            raise InvalidParameterError("p must be > 1 and finite for the conjugate exponent")
        self.q = self.p / (self.p - 1.0)
        if lp_norm(self.mu, self.q) > 1 + 1e-12:
            raise InvalidParameterError("||mu||_q must be <= 1")

    def evaluate_batch(self, X) -> np.ndarray:
        X, mu = pad_pair(X, self.mu)
        return -(X * mu).sum(axis=1)


class Linear(LpMu):
    """Euclidean linear functional h(x) = -<x, v> with ||v||_2 <= 1: the
    model LpMu(v, 2), whatever the norm of the space it is checked in."""

    def __init__(self, v):
        super().__init__(v, 2.0)
        self.v = self.mu


class Zero(_LpModel):
    """The identically-zero functional."""

    ambient_p = 2.0

    def evaluate_batch(self, X) -> np.ndarray:
        return np.zeros(len(X))


class DiskBusemann:
    """Boundary functional of the disk model at a unit complex zeta:
    h(z) = log(|zeta - z|^2 / (1 - |z|^2)), vanishing at 0."""

    def __init__(self, zeta: complex):
        zeta = complex(zeta)
        if abs(abs(zeta) - 1.0) > 1e-9:
            raise InvalidParameterError("zeta must lie on the unit circle")
        self.zeta = zeta / abs(zeta)

    def evaluate(self, z) -> float:
        return math.log(abs(self.zeta - complex(z)) ** 2 / disk_gap(z))


class HalfPlaneBusemannInfinity:
    """Boundary functional of the half-plane at infinity: h(z) = -log Im z,
    normalized to vanish at i."""

    def evaluate(self, z) -> float:
        z = complex(z)
        if z.imag <= 0:
            raise InvalidPointError(f"{z!r} is not in the upper half-plane")
        return -math.log(z.imag)


class ZdLinear:
    """Lattice functional h(g) = -<g, u> with ||u||_inf <= 1, exact.

    Fixed pointwise by every translation of the lattice, which is what the
    invariance audits of boundary measures rely on.
    """

    def __init__(self, u: Sequence):
        self.u = tuple(Fraction(v) for v in u)
        if any(abs(v) > 1 for v in self.u):
            raise InvalidParameterError("||u||_inf must be <= 1 for a word-metric functional")

    def evaluate(self, g) -> Fraction:
        if len(g) != len(self.u):
            raise InvalidPointError(f"{g!r} has wrong dimension for {self.u}")
        return -sum((Fraction(a) * b for a, b in zip(g, self.u)), Fraction(0))

    def translate(self, g) -> "ZdLinear":
        # (g.h)(x) = h(x - g) - h(-g) = h(x) for linear h.
        return self


def eval_functional(f, y) -> Scalar:
    """Evaluate any functional-like object at a point.

    Accepts model functionals, witness limits (whose stabilized value is
    returned, raising BudgetError otherwise), and callables, read first: a
    McShane extension is called, as its ``evaluate`` takes a list.
    """
    if isinstance(f, WitnessLimit):
        return f.value(y)
    if callable(f):
        return f(y)
    if hasattr(f, "evaluate"):
        return f.evaluate(y)
    raise UnsupportedError(f"cannot evaluate {type(f).__name__}")


# ---------------------------------------------------------------------------
# Limits of point functionals along witness sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalOutcome:
    """One limit evaluation: value, whether it stabilized, at which witness
    index the final run began, the last successive change, and how many
    witnesses were consumed."""

    value: Scalar
    stabilized: bool
    index: int
    residual: Optional[float]
    used: int


class WitnessLimit:
    """Pointwise limit of h_k = d(., x_k) - d(x0, x_k) along at most
    ``budget`` witness points x_k.

    ``space.functional_rows`` checks the witnesses once and reads h_k at
    points as rows (integers over one denominator on exact spaces, floats
    otherwise), each read one block with the base point's row.  ``preload``
    reads the rows of the points to come in one, over every witness, and
    keeps the subclass's ``_batch`` of them; ``_limit(y, kept)`` returns the
    EvalOutcome at y from what was kept for it, or from a read of its own.
    Outcomes are cached per point, and one that did not stabilize is
    reported, never a silent value.
    """

    def __init__(self, space: MetricSpace, witnesses: Iterable[Point], budget: int, tol: float):
        self.space = space
        self.tol = tol
        self.points: list[Point] = list(itertools.islice(witnesses, max(budget, 1)))
        if not self.points:
            raise PreconditionError("witness sequence is empty")
        self._rows = space.functional_rows(self.points, space.base_point)
        self.active = np.arange(len(self.points))
        self._cache: dict[Any, EvalOutcome] = {}
        self._preloaded: dict[Any, Any] = {}

    def preload(self, ys: Iterable[Point]) -> None:
        """Read the rows of the distinct ys not yet evaluated or preloaded,
        over every witness, in one ``rows`` call, and keep ``_batch`` of
        them until each point is evaluated.  A y whose key cannot be read is
        skipped, and a block that cannot be read is dropped: either error is
        raised again by ``evaluate`` at that point, if the caller gets there."""
        new: dict[Any, Point] = {}
        for y in ys:
            try:
                key = self.space.point_key(y)
            except Exception:
                continue
            if key not in self._cache and key not in self._preloaded:
                new.setdefault(key, y)
        try:
            M, den = self._rows(list(new.values()), np.arange(len(self.points)))
        except Exception:
            return
        self._preloaded.update(zip(new, self._batch(M, den)))

    def evaluate(self, y: Point) -> EvalOutcome:
        key = self.space.point_key(y)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = self._limit(y, self._preloaded.pop(key, None))
        return hit

    def value(self, y: Point) -> Scalar:
        """Stabilized value at y; BudgetError if the limit did not stabilize."""
        out = self.evaluate(y)
        if not out.stabilized:
            raise BudgetError(
                f"{type(self).__name__}: evaluation at {y!r} did not stabilize "
                f"within {out.used} witnesses (last value {out.value})"
            )
        return out.value


class RealizedFunctional(WitnessLimit):
    """The limit read along the whole witness sequence.

    Exact spaces report the trailing constant run of the row, stabilized
    when it is at least ``stable_window`` long: an earlier run may still
    drop later (ray witnesses are nonincreasing), so it would be a
    transient value.  Float spaces stop at the first witness where two
    successive changes are both below tol/10, which guards against a single
    accidental coincidence of values.

    Every witness stays active, so ``_batch`` is the limit over a matrix of
    rows: ``preload`` keeps outcomes, and a point read alone is one row.
    """

    def __init__(
        self,
        space: MetricSpace,
        witnesses: Iterable[Point],
        *,
        budget: int = 100_000,
        tol: float = 1e-9,
        stable_window: int = 8,
    ):
        super().__init__(space, witnesses, budget, tol)
        self.stable_window = max(2, stable_window)

    evaluate = WitnessLimit.evaluate  # its own entry, so the layer tracer times it apart

    def _limit(self, y: Point, kept: Optional[EvalOutcome]) -> EvalOutcome:
        return self._batch(*self._rows([y], self.active))[0] if kept is None else kept

    def _batch(self, M: np.ndarray, den: int) -> list[EvalOutcome]:
        m, n = M.shape
        if self.space.exact:  # the trailing run starts at the last k where M[:, k] != M[:, k - 1], or 0
            starts = ((M[:, 1:] != M[:, :-1]) * np.arange(1, n)).max(axis=1, initial=0)
            return [EvalOutcome(Fraction(int(v), den), n - k >= self.stable_window, k, None, n)
                    for v, k in zip(M[:, -1].tolist(), starts.tolist())]
        with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf steps, as in Python: not small
            steps = np.abs(np.diff(M, axis=1))
        small = steps < self.tol / 10.0
        # The first k >= 2 whose last two steps are small, else n: unstabilized, at witness n - 1.
        ks = np.where(small[:, :-1] & small[:, 1:], np.arange(2, n), n).min(axis=1, initial=n)
        at, rows = np.minimum(ks, n - 1), np.arange(m)
        residuals = steps[rows, at - 1].tolist() if n > 1 else [None] * m
        return [EvalOutcome(v, k < n, i, r, i + 1)
                for v, k, i, r in zip(M[rows, at].tolist(), ks.tolist(), at.tolist(), residuals)]


# ---------------------------------------------------------------------------
# Property checks
# ---------------------------------------------------------------------------


@dataclass
class CheckOutcome:
    passed: bool
    checked: int
    worst: float
    witness: Optional[tuple] = None


def _ambient_for(f, dim: int) -> LpSpace:
    p = getattr(f, "ambient_p", None)
    if p is None:
        raise UnsupportedError(f"{type(f).__name__} has no normed ambient space")
    return LpSpace(p, dim)


def lipschitz_check(
    f,
    space: MetricSpace,
    *,
    pairs: int = 10_000,
    tol: Scalar = 0,
    seed: int = 0,
) -> CheckOutcome:
    """Verify |f(y) - f(z)| <= d(y, z) + tol over seeded sample pairs."""
    rng = random.Random(seed)
    if pairs < 1:
        raise PreconditionError("need at least one sample pair")
    if isinstance(space, LpSpace) and hasattr(f, "evaluate_batch"):
        nprng = np.random.default_rng(seed)
        Y = nprng.normal(0.0, 3.0, size=(pairs, space.dim))
        Z = nprng.normal(0.0, 3.0, size=(pairs, space.dim))
        d = lp_norm(Y - Z, space.p, axis=1)
        slack = np.abs(f.evaluate_batch(Y) - f.evaluate_batch(Z)) - d
        worst = float(slack.max())
        if worst > tol:
            i = int(slack.argmax())
            return CheckOutcome(False, pairs, worst, (Y[i], Z[i]))
        return CheckOutcome(True, pairs, worst)
    pts = space.sample_points(rng, 2 * pairs)
    worst = -math.inf
    for i in range(pairs):
        y, z = pts[2 * i], pts[2 * i + 1]
        gap = abs(eval_functional(f, y) - eval_functional(f, z)) - space.distance(y, z)
        if gap > worst:
            worst = gap
            if gap > tol:
                return CheckOutcome(False, i + 1, float(gap), (y, z))
    return CheckOutcome(True, pairs, float(worst))


def midpoint_convexity_check(
    f,
    dim: int,
    *,
    pairs: int = 10_000,
    tol: float = 1e-12,
    seed: int = 0,
) -> CheckOutcome:
    """Verify f((x+y)/2) <= (f(x) + f(y))/2 + tol over seeded pairs in the
    functional's normed ambient space."""
    _ambient_for(f, dim)  # raises UnsupportedError for non-normed ambients
    if pairs < 1:
        raise PreconditionError("need at least one sample pair")
    nprng = np.random.default_rng(seed)
    X = nprng.normal(0.0, 3.0, size=(pairs, dim))
    Y = nprng.normal(0.0, 3.0, size=(pairs, dim))
    M = (X + Y) / 2.0
    if hasattr(f, "evaluate_batch"):
        fx, fy, fm = f.evaluate_batch(X), f.evaluate_batch(Y), f.evaluate_batch(M)
    else:
        fx = np.array([eval_functional(f, x) for x in X])
        fy = np.array([eval_functional(f, y) for y in Y])
        fm = np.array([eval_functional(f, m) for m in M])
    slack = fm - (fx + fy) / 2.0
    worst = float(slack.max())
    if worst > tol:
        i = int(slack.argmax())
        return CheckOutcome(False, pairs, worst, (X[i], Y[i], M[i]))
    return CheckOutcome(True, pairs, worst)


@dataclass
class NormEstimate:
    """Certified lower bounds for sup |f(x)| / d(x0, x) over a radius schedule."""

    rows: list[tuple[float, float]]
    estimate: float


def functional_norm_estimate(
    f,
    space: MetricSpace,
    radius_schedule: Sequence,
    *,
    per_radius: int = 4096,
    seed: int = 0,
) -> NormEstimate:
    """Lower-bound the functional norm by maximizing |f|/d over sampled
    spheres of increasing radius.  The bound sequence is the running max."""
    if not radius_schedule:
        raise PreconditionError("radius schedule must be nonempty")
    if any(b <= a for a, b in zip(radius_schedule, radius_schedule[1:])):
        raise PreconditionError("radius schedule must be increasing")
    if per_radius < 1:
        raise PreconditionError("need at least one sample per radius")
    rng = random.Random(seed)
    rows: list[tuple[float, float]] = []
    best = 0.0
    for radius in radius_schedule:
        if isinstance(space, PoincareDisk):
            pts = space.sphere_points(float(radius), per_radius)
        elif isinstance(space, LpSpace):
            pts = space.sphere_points(float(radius), per_radius, rng)
        elif hasattr(space, "family"):  # word metric: sample the sphere via BFS order
            ball = space.ball(int(radius))
            pts = list(ball.sphere(int(radius)))
            if len(pts) > per_radius:
                pts = [pts[rng.randrange(len(pts))] for _ in range(per_radius)]
        else:
            raise UnsupportedError(f"no sphere sampler for {type(space).__name__}")
        ratio = 0.0
        for x in pts:
            d = space.distance(space.base_point, x)
            if d == 0:
                continue
            ratio = max(ratio, abs(eval_functional(f, x)) / d)
        best = max(best, float(ratio))
        rows.append((float(radius), best))
    return NormEstimate(rows, best)


@dataclass
class RecoveryReport:
    distance: float
    supremum: float
    gap: float
    passed: bool


def distance_recovery_check(space, x, *, tol: float = 1e-6, grid: int = 10_000) -> RecoveryReport:
    """Check d(x0, x) = sup over the boundary family of |h(x)|.

    Supported closed-form families: directional linear functionals on
    Euclidean space, the two ends of Z under its word metric, and the
    circle of boundary functionals of the disk model.  The direction grid
    always includes the closed-form optimizer.
    """
    from .groups import CayleyGraphSpace, Zd

    if isinstance(space, LpSpace) and space.p == 2.0:
        xv = _vec(x)
        d = float(np.linalg.norm(xv))
        sup = 0.0
        nprng = np.random.default_rng(0)
        dirs = nprng.normal(size=(grid, xv.size))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        if d > 0:
            dirs = np.vstack([dirs, xv / d])
        sup = float(np.abs(dirs @ xv).max())
        gap = abs(sup - d)
        return RecoveryReport(d, sup, gap, gap <= tol)
    if isinstance(space, CayleyGraphSpace) and isinstance(space.family, Zd) and space.family.dim == 1:
        n = x[0] if isinstance(x, tuple) else int(x)
        d = abs(n)
        sup = max(abs(-n), abs(n))
        gap = abs(sup - d)
        return RecoveryReport(float(d), float(sup), float(gap), gap == 0)
    if isinstance(space, PoincareDisk):
        z = complex(x)
        d = space.distance(0j, z)
        sup = 0.0
        zetas = [cmath.exp(2j * math.pi * k / grid) for k in range(grid)]
        if abs(z) > 0:
            zetas.append(-z / abs(z))
        for zeta in zetas:
            sup = max(sup, abs(DiskBusemann(zeta).evaluate(z)))
        gap = abs(sup - d)
        return RecoveryReport(d, sup, gap, gap <= tol)
    raise UnsupportedError(f"no closed-form boundary family for {type(space).__name__}")


@dataclass
class LimitConvergenceReport:
    """Per-witness deviations from the closed-form target, plus the first
    index from which every later deviation stays within tolerance."""

    deviations: list[float]
    threshold: Optional[int]
    tol: float


def lp_limit_convergence_check(
    target,
    test_vectors: Sequence,
    *,
    k_range: int = 32,
    tol: float = 1e-6,
) -> LimitConvergenceReport:
    """Evaluate the defining witness sequence of a closed-form l^p
    functional against the functional itself.

    Witnesses anchor at fresh coordinates beyond the support of all test
    vectors: LpZC uses z + (c^p - ||z||_p^p)^(1/p) e_j; Linear(v) uses
    a_k v-hat + b_k e_j with (a_k, b_k) = s(k) (||v||, sqrt(1 - ||v||^2));
    Zero uses s(k) e_j, with s(k) = 2k^2.  Deviations are max over the
    test vectors.
    """
    xs = [_vec(x) for x in test_vectors]
    if not xs:
        raise PreconditionError("need at least one test vector")
    # Per witness k, the anchor's head (its leading coordinates) and its
    # tail (its entry at the fresh coordinate j).
    scales = [2.0 * k * k for k in range(1, k_range + 1)]
    if isinstance(target, LpZC):
        p = target.p
        t = target._tail_p ** (1.0 / p)
        anchors = [(target.z, t)] * k_range
    elif isinstance(target, Linear):
        p = 2.0
        vnorm = float(np.linalg.norm(target.v))
        vhat = target.v / vnorm if vnorm > 0 else target.v
        b = math.sqrt(max(0.0, 1.0 - vnorm**2))
        anchors = [(s * vnorm * vhat, s * b) for s in scales]
    elif isinstance(target, Zero):
        p = 2.0
        anchors = [(np.zeros(0), s) for s in scales]
    else:
        raise UnsupportedError(f"no witness construction for {type(target).__name__}")
    support = max(v.size for v in xs + [head for head, _ in anchors])
    devs: list[float] = []
    for k, (head, tail) in enumerate(anchors, 1):
        j = support + k - 1
        anchor = np.zeros(j + 1)
        anchor[: head.size] = head
        anchor[j] = tail
        dev = 0.0
        for x in xs:
            xv, av = pad_pair(x, anchor)
            h = lp_norm(xv - av, p) - lp_norm(av, p)
            dev = max(dev, abs(h - target.evaluate(x)))
        devs.append(dev)
    threshold = None
    for k in range(len(devs), 0, -1):
        if devs[k - 1] <= tol:
            threshold = k
        else:
            break
    return LimitConvergenceReport(devs, threshold, tol)
