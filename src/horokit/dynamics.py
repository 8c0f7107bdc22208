"""Semi-contraction and isometry dynamics: translation numbers with
certified subadditive bounds, minimal displacement, the trace-style
commutation of translation numbers, orbit functionals for distorted
isometries, and the one-point compactification of distorted lines.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    InvalidParameterError,
    NotMonotoneError,
    PreconditionError,
    UnsupportedError,
)
from .functionals import DiskBusemann, RealizedFunctional, eval_functional
from .metric import MetricSpace, Point, Scalar, exact_text, first_failure, on_one_scale, real_field
from .spaces import (
    DistortedLine,
    PoincareDisk,
    UpperHalfPlane,
    cayley_to_disk,
    cayley_to_half_plane,
)

# ---------------------------------------------------------------------------
# Self-maps
# ---------------------------------------------------------------------------


class SelfMap:
    """A distance-nonincreasing self-map given as a mapping oracle."""

    def __init__(
        self,
        space: MetricSpace,
        func: Callable[[Point], Point],
        *,
        kind: str = "semi-contraction",
        inverse: Callable[[Point], Point] | None = None,
        matrix: "MoebiusMap | None" = None,
    ):
        if kind not in ("semi-contraction", "isometry"):
            raise InvalidParameterError(f"unknown map kind {kind!r}")
        self.space = space
        self.func = func
        self.kind = kind
        self.inverse_func = inverse
        self.matrix = matrix

    def apply(self, x: Point) -> Point:
        return self.func(x)

    def apply_inverse(self, x: Point) -> Point:
        if self.inverse_func is None:
            raise UnsupportedError("this map has no inverse oracle")
        return self.inverse_func(x)

    def orbit(self, n: int) -> list[Point]:
        """[x0, f(x0), ..., f^n(x0)] from the base point x0."""
        x = self.space.base_point
        out = [x]
        for _ in range(n):
            x = self.func(x)
            out.append(x)
        return out


def group_translation(space, g) -> SelfMap:
    """Left translation x -> g x on a Cayley graph space (an isometry)."""
    fam = space.family
    fam.check_element(g)
    ginv = fam.inverse(g)
    return SelfMap(
        space,
        lambda x: fam._mul(g, x),
        kind="isometry",
        inverse=lambda x: fam._mul(ginv, x),
    )


# ---------------------------------------------------------------------------
# Moebius maps
# ---------------------------------------------------------------------------


class MoebiusMap:
    """A real 2x2 determinant-one matrix acting on the half-plane, with the
    disk action obtained by conjugating with the Cayley transform.

    The entries are held exactly, as four integers over one positive
    denominator in lowest terms, and read back as ``Fraction``s.  Ints,
    Fractions and strings such as ``"1/2"`` are read exactly, floats at
    their exact binary value, and a bool is no entry.  The determinant must
    be exactly one, so a float matrix whose rounded entries miss it (a float
    rotation, say) is rejected, and traces of products compare exactly.  The
    actions on points and the orbit distances read the entries rounded to
    floats, so each must lie in the float range.
    """

    def __init__(self, a, b, c, d):
        entries = [v if type(v) is int else real_field(v, "matrix entry", Fraction) for v in (a, b, c, d)]
        self._hold(*on_one_scale(entries)[:2])

    def _hold(self, nums, den: int) -> "MoebiusMap":
        """Hold the entries nums / den, den > 0, reduced by their one gcd, and
        return the map; int division rounds each float as ``float(Fraction)``."""
        g = math.gcd(*nums, den)
        self._nums, self._den = tuple(v // g for v in nums), den // g
        try:
            self._floats = tuple(v / self._den for v in self._nums)
        except OverflowError as exc:  # the largest entry is past the range; no str() of its digits
            big = Decimal(max(self._nums, key=abs)) / self._den
            raise InvalidParameterError(f"matrix entry must be a real number in the float range, got {big:.6e}") from exc
        a, b, c, d = self._nums
        if a * d - b * c != self._den**2:
            raise InvalidParameterError(f"determinant must be 1, got {exact_text(Fraction(a * d - b * c, self._den**2))}")
        self._inverse: Optional[MoebiusMap] = None
        return self

    a, b, c, d = (property(lambda self, k=k: Fraction(self._nums[k], self._den)) for k in range(4))

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def trace(self) -> Fraction:
        return Fraction(self._nums[0] + self._nums[3], self._den)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """The product, multiplied on the integers over den * other's den."""
        (a, b, c, d), (e, f, g, h) = self._nums, other._nums
        nums = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        return MoebiusMap.__new__(MoebiusMap)._hold(nums, self._den * other._den)

    def inverse(self) -> "MoebiusMap":
        """The inverse map, built on the first call."""
        if self._inverse is None:
            a, b, c, d = self._nums
            self._inverse = MoebiusMap.__new__(MoebiusMap)._hold((d, -b, -c, a), self._den)
        return self._inverse

    def classify(self) -> str:
        t = abs(self.trace())
        if t < 2:
            return "elliptic"
        if t == 2:
            return "parabolic"
        return "hyperbolic"

    def translation_length(self) -> float:
        """Closed-form translation number: 2*arccosh(|tr|/2) when
        hyperbolic, 0 for parabolic and elliptic maps.  Rounding |tr|/2 =
        1 + delta costs about 2^-54/delta of the result, so below delta =
        2^-20 it is 2*log1p(delta + sqrt(delta (2 + delta))), delta rounded once."""
        s, den = abs(self._nums[0] + self._nums[3]), 2 * self._den
        if (s - den) << 20 < den:  # delta < 2^-20, or not hyperbolic (delta <= 0)
            e = max(0.0, (s - den) / den)
            return 2.0 * math.log1p(e + math.sqrt(e * (2.0 + e)))
        return 2.0 * math.acosh(s / den)  # |tr| / 2, rounded once: it stays in range

    def apply_half_plane(self, z: complex) -> complex:
        a, b, c, d = self._floats
        w = (a * z + b) / (c * z + d)
        if not cmath.isfinite(w):
            raise InvalidParameterError(f"the image of the point {z!r} is outside the float range")
        return w

    def apply_disk(self, w: complex) -> complex:
        return cayley_to_disk(self.apply_half_plane(cayley_to_half_plane(w)))

    def as_selfmap(self, space: MetricSpace) -> SelfMap:
        if isinstance(space, UpperHalfPlane):
            name = "apply_half_plane"
        elif isinstance(space, PoincareDisk):
            name = "apply_disk"
        else:
            raise UnsupportedError("Moebius maps act on the hyperbolic models only")
        return SelfMap(space, getattr(self, name), kind="isometry",
                       inverse=lambda x: getattr(self.inverse(), name)(x), matrix=self)


def orbit_distances(maps: Sequence[MoebiusMap], n: int, *, last_only: bool = False) -> list[list[float]]:
    """Per map M, [d(i, M^k i) for k = 0..n], or [d(i, M^n i)] alone when
    ``last_only``: d(i, M i) = arccosh(||M||_F^2 / 2) at determinant one.

    The maps' powers are stepped together as one (2, 2, k) array, kept
    max-normalized beside a log scale per map, so hyperbolic growth never
    overflows.  Products, sums, abs, max and division are elementwise
    ufuncs, correctly rounded and never fused, so each lane repeats the
    scalar recurrence bit for bit whatever its neighbours; logs, exps and
    arccosh are ``math`` calls, as NumPy's may round differently.  A step
    whose scale is not finite and positive raises InvalidParameterError.
    """
    a, b, c, d = np.array([m._floats for m in maps]).reshape(-1, 4).T
    top, bottom = np.array([[a, b]]), np.array([[c, d]])  # the rows of each M, (1, 2, k)
    power, logscale = np.eye(2)[:, :, None] * np.ones_like(a), np.zeros_like(a)
    out = [[] if last_only else [0.0] for _ in maps]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            power = power[:, :1] * top + power[:, 1:] * bottom
            m = np.abs(power).max(axis=(0, 1))
            if not ((m > 0.0) & (m < math.inf)).all():
                raise InvalidParameterError(f"a matrix power leaves the float range at step {k}")
            power /= m
            logscale += list(map(math.log, m.tolist()))
            if last_only and k < n:
                continue
            # log of ||M^k||_F^2 = 2*logscale + log(||u||_F^2), u the normalized power
            sq = power * power
            norm = sq[0, 0] + sq[0, 1] + sq[1, 0] + sq[1, 1]
            for lane, s, v in zip(out, logscale.tolist(), norm.tolist()):
                log_t = 2.0 * s + math.log(v)
                # arccosh(T/2) = log T + O(1/T^2)
                lane.append(log_t if log_t > 50.0 else math.acosh(max(1.0, math.exp(log_t) / 2.0)))
    return out


def random_hyperbolic_pair(rng: random.Random) -> tuple[MoebiusMap, MoebiusMap]:
    """Seeded pair of exact hyperbolic maps, each a product of two to four
    integer shears [[1, p], [0, 1]] or [[1, 0], [p, 1]] with |p| <= 2 and
    absolute trace in (2, 12]; products are redrawn until one qualifies."""

    def one() -> MoebiusMap:
        while True:
            a, b, c, d = 1, 0, 0, 1
            for _ in range(rng.randrange(2, 5)):
                p = rng.randrange(-2, 3)
                if rng.randrange(2):
                    b, d = a * p + b, c * p + d
                else:
                    a, c = a + b * p, c + d * p
            if 2 < abs(a + d) <= 12:
                return MoebiusMap(a, b, c, d)

    return one(), one()


# ---------------------------------------------------------------------------
# Translation number and minimal displacement
# ---------------------------------------------------------------------------


@dataclass
class TauReport:
    """Subadditive estimate a_N/N and the certified upper bound
    min_{n<=N} a_n/n for the translation number."""

    n: int
    displacements: list = field(metadata={"skip": True})
    estimate: float = field(metadata={"json": float})
    bound: float = field(metadata={"json": float})
    bound_trace: list = field(metadata={"each": float})
    closed_form: Optional[float] = field(default=None, metadata={"json": float})


def _orbit_displacements(f: SelfMap, n: int) -> list:
    """a_k = d(x0, f^k(x0)) for k = 0..n from the base point x0, exact where
    the space is.  A Moebius map reads them from ``orbit_distances`` on
    either model: the Cayley transform sends the disk's base point 0 to i."""
    if f.matrix is not None:
        return orbit_distances([f.matrix], n)[0]
    base, *rest = f.orbit(n)
    return [0, *(f.space.distance(base, x) for x in rest)]


def translation_number(f: SelfMap, n: int) -> TauReport:
    """Estimate and certify the translation number from n orbit steps.

    Subadditivity of a_k = d(x0, f^k x0) makes min a_k/k a true upper
    bound for the limit a_k/k; the estimate is a_n/n.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    a = _orbit_displacements(f, n)
    bound_trace = list(accumulate((a[k] / k for k in range(1, n + 1)), min))
    closed = f.matrix.translation_length() if f.matrix is not None else None
    return TauReport(n, a, float(a[n] / n), float(bound_trace[-1]), bound_trace, closed)


@dataclass
class DisplacementReport:
    bound: Scalar = field(metadata={"json": float})
    argmin: Point = field(metadata={"json": str})
    trace: list = field(metadata={"each": float})


def minimal_displacement(f: SelfMap, points: Iterable[Point]) -> DisplacementReport:
    """Certified upper bound inf_x d(x, f(x)) over the visited points."""
    best = None
    arg = None
    trace = []
    for x in points:
        d = f.space.distance(x, f.apply(x))
        if best is None or d < best:
            best, arg = d, x
        trace.append(best)
    if best is None:
        raise PreconditionError("point generator yielded nothing")
    return DisplacementReport(best, arg, trace)


@dataclass
class TracialReport:
    """Difference of translation-number estimates for fg vs gf, with the
    additive bound 2(d(x0,f x0) + d(x0,g x0))/N from the triangle chain."""

    estimate_fg: float
    estimate_gf: float
    estimate_gap: float
    proof_bound: float
    passed: bool
    closed_form_gap: Optional[Fraction] = field(default=None, metadata={"json": float})


def tracial_check(pairs: Sequence[tuple[SelfMap, SelfMap]], n: int) -> list[TracialReport]:
    """One report per pair (f, g), in order, comparing the translation
    numbers of fg and gf.

    The exact products fg and gf of every Moebius pair go through one
    ``orbit_distances`` call that keeps only a_n (estimate a_n/n); their
    closed-form gap is the exact trace difference, zero as tr(AB) = tr(BA).
    Other pairs run ``translation_number`` on the composed maps.  The
    estimates agree within the additive bound either way.  n and the spaces
    are checked before any orbit is stepped.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    if any(f.space is not g.space for f, g in pairs):
        raise PreconditionError("maps must act on the same space")
    products = [(f.matrix.compose(g.matrix), g.matrix.compose(f.matrix))
                for f, g in pairs if f.matrix is not None and g.matrix is not None]
    ests = iter([a_n / n for (a_n,) in orbit_distances([m for p in products for m in p], n, last_only=True)])
    # the closed forms 2 arccosh(|tr|/2) agree iff the traces do
    gaps = iter([abs(fg.trace() - gf.trace()) for fg, gf in products])
    out = []
    for f, g in pairs:
        space, x0 = f.space, f.space.base_point
        if f.matrix is not None and g.matrix is not None:
            est_fg, est_gf, closed_gap = next(ests), next(ests), next(gaps)
        else:
            est_fg = translation_number(SelfMap(space, lambda x: f.apply(g.apply(x))), n).estimate
            est_gf = translation_number(SelfMap(space, lambda x: g.apply(f.apply(x))), n).estimate
            closed_gap = None
        bound = 2.0 * (float(space.distance(x0, f.apply(x0))) + float(space.distance(x0, g.apply(x0)))) / n
        gap = abs(est_fg - est_gf)
        out.append(TracialReport(est_fg, est_gf, gap, bound, gap <= bound + 1e-9, closed_gap))
    return out


@dataclass
class PrincipleReport:
    """Best candidate for a functional decaying at rate tau along the orbit:
    h(f^n x0) <= -tau n up to the reported violation."""

    best_index: int
    violations: list
    tau_bound: float
    passed: bool


def spectral_principle_witness(
    f: SelfMap,
    candidates: Sequence,
    n: int,
    *,
    tol: float = 1e-9,
) -> PrincipleReport:
    """Among the candidate functionals, find the one minimizing the maximal
    violation of h(f^k x0) <= -tau_hat k over k = 1..n."""
    if not candidates:
        raise InvalidParameterError("candidate list is empty")
    tau = translation_number(f, n).bound
    orbit = f.orbit(n)
    worst = [max(float(eval_functional(h, orbit[k])) + tau * k for k in range(1, n + 1)) for h in candidates]
    best = min(range(len(candidates)), key=lambda i: worst[i])
    return PrincipleReport(best, worst, float(tau), worst[best] <= tol)


# ---------------------------------------------------------------------------
# Invariant functionals from almost-fixed points
# ---------------------------------------------------------------------------


@dataclass
class AlmostFixedReport:
    functional: RealizedFunctional = field(metadata={"skip": True})
    displacement_bound: Scalar = field(metadata={"json": float})
    audit_passed: bool
    audit_worst: float
    audit_checked: int
    equality_mode: bool


def almost_fixed_invariant_functional(
    f: SelfMap,
    witness_points: Sequence[Point],
    eps_schedule: Sequence,
    eval_grid: Sequence[Point],
    *,
    tol: float = 1e-9,
) -> AlmostFixedReport:
    """Build the limit functional along points moved less and less by f and
    audit h(f(x)) <= h(x) on the grid (equality when f is an isometry); the
    rows of every x and f(x) are read in one block.

    Precondition: the certified displacement bound over the witnesses must
    reach below the smallest epsilon in the schedule.
    """
    eps_schedule = sorted((e for e in eps_schedule), reverse=True)
    if not eps_schedule:
        raise PreconditionError("epsilon schedule is empty")
    disp = minimal_displacement(f, witness_points)
    if disp.bound > min(eps_schedule):
        raise PreconditionError(
            f"displacement bound {disp.bound} does not reach min epsilon {min(eps_schedule)}"
        )
    # Each level's first member: the first witness where the running minimum reaches eps.
    chosen = [witness_points[next(i for i, d in enumerate(disp.trace) if d <= eps)] for eps in eps_schedule]
    if not f.space.exact:
        # a repeated witness would satisfy the successive-difference
        # criterion vacuously; exact spaces keep repeats (constant runs are
        # their stabilization evidence)
        key = f.space.point_key
        chosen = [
            w for i, w in enumerate(chosen) if i == 0 or key(w) != key(chosen[i - 1])
        ]
    h = RealizedFunctional(f.space, chosen, tol=tol)
    grid, images = list(eval_grid), []
    for x in grid:
        try:
            images.append(f.apply(x))
        except Exception:
            break  # the audit applies f there again, and raises if it gets there
    h.preload([p for pair in zip(grid, images) for p in pair])
    equality = f.kind == "isometry"

    def gap(i):
        hx, hfx = h.evaluate(grid[i]), h.evaluate(images[i] if i < len(images) else f.apply(grid[i]))
        d = hfx.value - hx.value
        return (abs(d) if equality else max(0, d)) if hx.stabilized and hfx.stabilized else None

    checked, worst, i, _ = first_failure(range(len(grid)), gap, tol)
    return AlmostFixedReport(h, disp.bound, i is None, float(worst), checked, equality)


# ---------------------------------------------------------------------------
# Orbit functionals for monotone distorted isometries
# ---------------------------------------------------------------------------


class OrbitSpace:
    """Distances D(k) = d(x0, g^k x0) for k = 0..N and the induced metric
    d(m, n) = D(|m - n|) on orbit indices.

    ``n0`` marks the least index from which D is nondecreasing.
    """

    def __init__(self, displacements: Sequence):
        self.D = list(displacements)
        if not self.D or self.D[0] != 0:
            raise InvalidParameterError("displacement table must start with D(0) = 0")
        self.N = len(self.D) - 1
        n0 = self.N
        for k in range(self.N - 1, -1, -1):
            if self.D[k] <= self.D[k + 1]:
                n0 = k
            else:
                break
        self.n0 = n0
        self.exact = all(isinstance(v, (int, Fraction)) for v in self.D)

    @classmethod
    def from_selfmap(cls, f: SelfMap, n: int) -> "OrbitSpace":
        return cls(_orbit_displacements(f, n))

    def tau_bound(self) -> float:
        return min(self.D[k] / k for k in range(1, self.N + 1))


@dataclass
class OrbitFunctionalReport:
    """Candidate boundary functional on orbit indices and its audits."""

    indices: list
    values: list
    certificate: str  # "stabilized" | "tail"
    recurrences: int
    monotone_ok: bool
    vanishing_sup: float
    cesaro_indices: list
    cesaro_values: list
    cesaro_sup: float
    tau_bound: float


def parabolic_orbit_functional(
    orbit: OrbitSpace,
    *,
    eval_hi: int,
    averaging: int = 64,
    delta: float = 1.0,
    tol: float = 1e-9,
) -> OrbitFunctionalReport:
    """Candidate functional h(m) = lim_n D(n - m) - D(n) on orbit indices.

    Requires the orbit to be eventually monotone early (n0 <= N/4) and the
    certified translation-number bound to sit below ``delta``.  The limit
    is taken along the recurring difference vector when one recurs
    (exactly for integer D, within tol/10 for floats); otherwise the last
    window is reported with a "tail" certificate.  The candidate always
    lies in the monotone set {h : h(n) <= h(m) for n >= m}, which is
    audited exactly, and a Cesaro average over ``averaging`` shifts
    approximates the invariant-measure integral, which would vanish on the
    whole orbit in the limit.
    """
    N = orbit.N
    if orbit.n0 > N / 4:
        raise NotMonotoneError(
            f"orbit distances not monotone early enough (n0 = {orbit.n0} > N/4)",
            witness_index=orbit.n0 - 1,
        )
    tau = orbit.tau_bound()
    if tau >= delta:
        raise PreconditionError(f"certified tau bound {tau} is not below delta = {delta}")
    if eval_hi < 0:
        raise PreconditionError(f"eval_hi must be >= 0, got {eval_hi}")
    if averaging < 1:
        raise PreconditionError(f"averaging must be >= 1, got {averaging}")
    M = averaging
    lo = -(M - 1)
    idx = list(range(lo, eval_hi + 1))
    n_lo = orbit.n0 + eval_hi
    n_hi = N + lo
    if n_lo > n_hi:
        raise PreconditionError(
            f"window empty: need D up to {eval_hi - lo + orbit.n0}, have N = {N}"
        )
    vectors = [tuple(orbit.D[n - m] - orbit.D[n] for m in idx) for n in range(n_lo, n_hi + 1)]
    # Count each key and keep its latest vector.  Exact keys are the vectors
    # themselves, and the first one is kept: 0 and Fraction(0) are equal keys
    # but are written differently.
    quantum = tol / 10.0
    keys = [v if orbit.exact else tuple(round(float(x) / quantum) for x in v) for v in vectors]
    counts, latest = Counter(keys), dict(zip(keys, vectors))
    key = min((k for k, c in counts.items() if c >= 2), default=None)
    if key is not None:
        certificate, recurrences = "stabilized", counts[key]
        values = list(key if orbit.exact else latest[key])
    else:
        certificate, recurrences = "tail", 1
        values = list(vectors[-1])
    monotone_ok = all(values[i + 1] <= values[i] for i in range(len(values) - 1))
    # audit range 0..eval_hi for the vanishing trend
    # values[k - lo] is h(k): idx runs over lo..eval_hi in steps of one.
    vanish = max(abs(float(values[k - lo])) for k in range(0, eval_hi + 1))
    # Cesaro average of the shifted candidates approximates the invariant
    # integral: (1/M) sum_j [h(m - j) - h(-j)].
    ces_idx = list(range(0, eval_hi + 1))
    ces_vals = []
    for m in ces_idx:
        total = 0.0
        for j in range(M):
            total += float(values[m - j - lo]) - float(values[-j - lo])
        ces_vals.append(total / M)
    ces_sup = max(abs(v) for v in ces_vals)
    return OrbitFunctionalReport(
        idx,
        values,
        certificate,
        recurrences,
        monotone_ok,
        vanish,
        ces_idx,
        ces_vals,
        ces_sup,
        float(tau),
    )


# ---------------------------------------------------------------------------
# Fixtures: parabolic maps with closed-form invariant functionals
# ---------------------------------------------------------------------------


def half_plane_translation(t: float = 1.0) -> MoebiusMap:
    """The parabolic z -> z + t fixing infinity."""
    return MoebiusMap(1, t, 0, 1)


def disk_parabolic_orbit(n_lo: int, n_hi: int) -> list[complex]:
    """Orbit of 0 under the disk conjugate of z -> z + 1 (fixes zeta = 1).

    The n-th point is the Cayley image of i + n.  The float matrix of
    z -> z + n has exact integer entries and determinant exactly 1, so this
    equals the orbit through composed ``MoebiusMap`` powers bit for bit.
    """
    return [cayley_to_disk(complex(n, 1.0)) for n in range(n_lo, n_hi + 1)]


def disk_parabolic_horocycle_audit(n_lo: int, n_hi: int) -> tuple[float, list[float]]:
    """Values of the boundary functional at 1 along the parabolic orbit of
    0; exactly zero in exact arithmetic, tiny float drift in practice."""
    if n_lo > n_hi:
        raise PreconditionError(f"empty orbit range [{n_lo}, {n_hi}]")
    h = DiskBusemann(1)
    vals = [h.evaluate(w) for w in disk_parabolic_orbit(n_lo, n_hi)]
    return max(abs(v) for v in vals), vals


# ---------------------------------------------------------------------------
# Distorted line compactification
# ---------------------------------------------------------------------------


@dataclass
class CompactificationReport:
    """sup_{|y| <= r} |h_x(y)| per anchor; tends to zero for sublinear
    distortions, witnessing the one-point compactification."""

    r: float
    anchors: list
    sups: list
    crude_bounds: list  # D(|x| + r) - D(|x| - r)
    decreasing: bool


def distorted_compactification_check(
    line: DistortedLine, r: float, anchors: Sequence[float]
) -> CompactificationReport:
    """Evaluate sup_{|y| <= r} |D(|y - x|) - D(|x|)| at each anchor.

    For nondecreasing D and |x| > r the supremum is attained at the
    endpoints y = +-r, so it equals max(D(|x|+r) - D(|x|), D(|x|) -
    D(|x|-r)).
    """
    if r < 0:
        raise PreconditionError("r must be >= 0")
    anchors = [abs(float(a)) for a in anchors]
    if not all(map(math.isfinite, [r, *anchors, r + max(anchors, default=0.0)])):
        raise PreconditionError("r, the anchors and r + each anchor must be finite")
    if any(a <= r for a in anchors):
        raise PreconditionError("anchors must exceed r")
    if any(b <= a for a, b in zip(anchors, anchors[1:])):
        raise PreconditionError("anchor schedule must be increasing")
    D = line.dfun
    sups = []
    crude = []
    for x in anchors:
        up = D(x + r) - D(x)
        down = D(x) - D(x - r)
        sups.append(max(up, down))
        crude.append(D(x + r) - D(x - r))
    decreasing = all(b < a for a, b in zip(sups, sups[1:]))
    return CompactificationReport(float(r), anchors, sups, crude, decreasing)
