"""Model spaces: ray-with-spokes, star of intervals, distorted lines,
hyperbolic plane models, and finite l^p truncations.

The two tree-like spaces use exact rational scalars throughout; the
hyperbolic and l^p models are float-valued.
"""

from __future__ import annotations

import cmath
import math
import numbers
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidDistortionError, InvalidPointError, InvalidParameterError
from .metric import MetricSpace, int_dtype, integer_field, over_one_denominator, rational_field, real_field


HUB = ("hub",)


def hub() -> tuple:
    """The hub, base point of both tree-like spaces."""
    return HUB


class _CodedSpace(MetricSpace):
    """An exact space whose distance is a closed form of per-point codes:
    ``_codes(p)`` checks p and returns (codes, q), its integer codes over its
    own denominator q, and ``_code_distances(y_codes, columns)`` adds at most
    three code magnitudes per entry of the block from the ys to the columns.
    Codes scaled to the points' lcm are int64 while below 2^61
    (:func:`int_dtype`), keeping distances and differences below 2^63.

    A point is a tuple (tag, field, ...) built by ``kinds[tag](**fields)``,
    whose keyword arguments are its JSON fields; the constructor normalizes
    them, and ``_codes`` is the one check of a point, for it and
    ``check_point`` alike.  A label is "tag(field,...)", or the bare tag; a
    key is the tag's place in ``kinds``, then the fields padded with 0 to two."""

    base_point = HUB

    def __init_subclass__(cls):
        cls.places = dict(zip(cls.kinds, range(len(cls.kinds))))  # each tag's place in point keys

    @classmethod
    def _checked(cls, *p) -> tuple:
        """The point p, once ``_codes`` has checked it."""
        cls._codes(p)
        return p

    def check_point(self, p) -> None:
        self._codes(p)

    def distance(self, p, q) -> Fraction:
        (a, m), (b, n) = self._codes(p), self._codes(q)
        den = m * n // math.gcd(m, n)
        y, cols = [v * (den // m) for v in a], [v * (den // n) for v in b]
        if int_dtype(den, y + cols) is object:  # NumPy would wrap such ints: hold them in arrays
            y, cols = np.array(y, dtype=object)[:, None], np.array(cols, dtype=object)[:, None]
        return Fraction(self._code_distances(y, cols).item(), den)

    def distance_block(self, points):
        """Each point is checked and encoded once; each call scales the codes
        of its ys and of the points together to one denominator, by
        :func:`over_one_denominator`."""
        codes = [self._codes(p) for p in points]

        def block(ys, idx):
            coded = [*map(self._codes, ys), *codes]
            C, den = over_one_denominator([v for c, _ in coded for v in c], [q for c, q in coded for _ in c])
            C = C.reshape(len(coded), -1).T  # one row per code
            return self._code_distances(C[:, : len(ys), None], C[:, len(ys) + idx]), den

        return block

    def point_label(self, p) -> str:
        return p[0] + (f"({','.join(map(str, p[1:]))})" if len(p) > 1 else "")

    def point_key(self, p):
        self._codes(p)
        return (self.places[p[0]], *p[1:], 0, 0)[:3]


# ---------------------------------------------------------------------------
# Ray with spokes
# ---------------------------------------------------------------------------


class SpokeRaySpace(_CodedSpace):
    """A geodesic ray with unit-distance satellites around its origin.

    Points: the hub (base point, ray parameter 0), ray points at parameter
    t >= 0, spoke heads (one per integer n >= 1, at distance 1 from the hub
    and 2 from each other), and interior points of the length-(n - 1/2)
    spoke joining head n to ray point n.

    Distances come from a four-way route analysis (same locale direct,
    through the hub, down the own spoke, or via another spoke head); each
    point contributes its exit costs onto the hub/ray skeleton and the
    minimum route wins.
    """

    @staticmethod
    def ray_point(t) -> tuple:
        t = rational_field(t, "t")
        return HUB if t == 0 else SpokeRaySpace._checked("ray", t)

    @staticmethod
    def spoke_head(n) -> tuple:
        return SpokeRaySpace._checked("head", integer_field(n, "n"))

    @staticmethod
    def spoke_interior(n, s) -> tuple:
        """The point at s along spoke n: its head at s = 0, ray point n at s = n - 1/2."""
        n, s = integer_field(n, "n"), rational_field(s, "s")
        p = ("head", n) if s == 0 else ("ray", Fraction(n)) if 2 * s == 2 * n - 1 > 0 else ("spoke", n, s)
        return SpokeRaySpace._checked(*p)

    kinds = {"hub": hub, "ray": ray_point, "head": spoke_head, "spoke": spoke_interior}
    gamma = ray_point  # the distinguished geodesic ray

    @staticmethod
    def _codes(p) -> tuple:
        """(spoke, position, hub cost, ray anchor, ray cost) of a point over
        its denominator (2q at a/q on a spoke): spoke index (0 off the
        spokes) and position along it, then the costs of its exits onto the
        skeleton, the half-line of ray parameters with the hub at 0.  Fields
        out of range are named; a tuple no constructor gives is malformed."""
        tag = p[0] if isinstance(p, tuple) and p else None
        if tag == "hub" and len(p) == 1:
            return (0, 0, 0, 0, 0), 1
        if tag == "ray" and len(p) == 2 and isinstance(p[1], Fraction) and p[1]:
            if p[1].numerator < 0:
                raise InvalidPointError(f"ray parameter {p[1]} must be >= 0")
            return (0, 0, p[1].numerator, p[1].numerator, 0), p[1].denominator
        if tag == "head" and len(p) == 2 or tag == "spoke" and len(p) == 3 and isinstance(p[2], Fraction):
            n, a, q = (p[1], 0, 1) if tag == "head" else (p[1], p[2].numerator, p[2].denominator)
            if type(n) is not int or n < 1:
                raise InvalidPointError(f"spoke index {n!r} must be an integer >= 1")
            ray = (2 * n - 1) * q - 2 * a  # the distance to the spoke's far end, over 2q
            if a < 0 or ray < 0:
                raise InvalidPointError(f"spoke position {p[2]} outside [0, {Fraction(2 * n - 1, 2)}]")
            if tag == "head" or a and ray:
                return (2 * q * n, 2 * a, 2 * (q + a), 2 * q * n, ray), 2 * q
        raise InvalidPointError(f"malformed spoke-ray point {p!r}")

    @staticmethod
    def _code_distances(y, cols):
        # The four exit routes (hub-hub, hub-ray, ray-hub, ray-ray), or
        # direct travel along a shared spoke.
        spoke, pos, hub, anchor, ray = cols
        y_spoke, y_pos, y_hub, y_anchor, y_ray = y
        routes = np.minimum(
            np.minimum(y_hub + hub, y_hub + anchor + ray),
            np.minimum(y_ray + y_anchor + hub, y_ray + abs(y_anchor - anchor) + ray),
        )
        return np.where((spoke == y_spoke) & (spoke != 0), abs(pos - y_pos), routes)

    distance = _CodedSpace.distance  # an entry of its own, which the layer tracer wraps per class

    def sample_points(self, rng: random.Random, count: int) -> list:
        out = []
        for _ in range(count):
            kind = rng.randrange(4)
            if kind == 0:
                out.append(HUB)
            elif kind == 1:
                out.append(self.ray_point(Fraction(rng.randrange(0, 120), rng.randrange(1, 5))))
            elif kind == 2:
                out.append(self.spoke_head(rng.randrange(1, 13)))
            else:
                n = rng.randrange(1, 13)
                length = Fraction(2 * n - 1, 2)
                s = length * Fraction(rng.randrange(1, 16), 16)
                out.append(self.spoke_interior(n, s))
        return out


# ---------------------------------------------------------------------------
# Star of intervals
# ---------------------------------------------------------------------------


class StarTreeSpace(_CodedSpace):
    """Intervals [0, n] for n = 1, 2, ... all glued at 0 to a hub.

    Unbounded, but contains no infinite geodesic ray: every branch is a
    dead end of finite length n with endpoint x_n.
    """

    @staticmethod
    def interval_point(n, s) -> tuple:
        """The point at depth s on interval n >= 1: the hub at depth 0."""
        n, s = integer_field(n, "n"), rational_field(s, "s")
        return HUB if s == 0 and n > 0 else StarTreeSpace._checked("int", n, s)

    kinds = {"hub": hub, "int": interval_point}

    @classmethod
    def endpoint(cls, n: int) -> tuple:
        return cls.interval_point(n, n)

    distance = _CodedSpace.distance

    @staticmethod
    def _codes(p) -> tuple:
        """(branch, depth) of a point over the depth's denominator, the hub
        on branch 0; fields out of range are named, as for spoke-ray points."""
        tag = p[0] if isinstance(p, tuple) and p else None
        if tag == "hub" and len(p) == 1:
            return (0, 0), 1
        if tag == "int" and len(p) == 3 and isinstance(p[2], Fraction):
            n, a, q = p[1], p[2].numerator, p[2].denominator
            if type(n) is not int or n < 1:
                raise InvalidPointError(f"interval index {n!r} must be an integer >= 1")
            if not 0 <= a <= n * q:
                raise InvalidPointError(f"position {p[2]} outside [0, {n}]")
            if a:
                return (n * q, a), q
        raise InvalidPointError(f"{p!r} is not a point of the interval star")

    @staticmethod
    def _code_distances(y, cols):
        branch, depth = cols
        return np.where(branch == y[0], abs(depth - y[1]), depth + y[1])

    def sample_points(self, rng: random.Random, count: int) -> list:
        out = []
        for _ in range(count):
            if rng.randrange(8) == 0:
                out.append(HUB)
            else:
                n = rng.randrange(1, 13)
                out.append(self.interval_point(n, Fraction(rng.randrange(0, 16 * n + 1), 16)))
        return out


# ---------------------------------------------------------------------------
# Distorted line
# ---------------------------------------------------------------------------

DISTORTIONS: dict[str, Callable[[float], float]] = {
    "sqrt": math.sqrt,
    "log1p": math.log1p,
}


@dataclass
class DistortionReport:
    passed: bool
    grid_size: int = field(metadata={"key": "grid"})
    failure: Optional[tuple] = field(default=None, metadata={"each": str})  # (kind, values...)


def distorted_line_validate(
    dfun: Callable[[float], float],
    grid: Sequence[float],
) -> DistortionReport:
    """Grid-check a distortion profile: D(0)=0, D nondecreasing, D(t)/t
    nonincreasing, plus a subadditivity spot check on grid pairs."""
    if dfun(0.0) != 0.0:
        raise InvalidDistortionError("D(0) must be 0")
    pts = sorted(float(t) for t in grid)
    if not pts or pts[0] <= 0:
        raise InvalidDistortionError("grid must be sorted and positive")
    vals = [dfun(t) for t in pts]
    for i in range(1, len(pts)):
        if vals[i] < vals[i - 1]:
            return DistortionReport(False, len(pts), ("not_nondecreasing", pts[i - 1], pts[i]))
        if vals[i] / pts[i] > vals[i - 1] / pts[i - 1] + 1e-12:
            return DistortionReport(False, len(pts), ("ratio_increasing", pts[i - 1], pts[i]))
    rng = random.Random(0)
    for _ in range(2000):
        t = pts[rng.randrange(len(pts))]
        s = pts[rng.randrange(len(pts))]
        if dfun(t + s) > dfun(t) + dfun(s) + 1e-12:
            return DistortionReport(False, len(pts), ("not_subadditive", t, s))
    return DistortionReport(True, len(pts))


class DistortedLine(MetricSpace):
    """The real line with distance D(|x - y|) for a sublinear distortion D,
    named by its key in ``DISTORTIONS``."""

    exact = False
    base_point = 0.0

    def __init__(self, distortion: str = "sqrt"):
        if not isinstance(distortion, str) or distortion not in DISTORTIONS:
            raise InvalidParameterError(f"unknown distortion {distortion!r}")
        self.dfun = DISTORTIONS[distortion]

    def distance(self, p, q) -> float:
        self.check_point(p)
        self.check_point(q)
        return self.dfun(abs(float(p) - float(q)))

    def check_point(self, p) -> None:
        # The exact-type test spares float points the slower ABC check.
        if not ((type(p) is float or isinstance(p, numbers.Real)) and math.isfinite(p)):
            raise InvalidPointError(f"{p!r} is not a finite real number")

    def point_label(self, p) -> str:
        return repr(float(p))

    def point_key(self, p):
        self.check_point(p)
        return float(p)

    def sample_points(self, rng: random.Random, count: int) -> list:
        return [rng.uniform(-1000.0, 1000.0) for _ in range(count)]


# ---------------------------------------------------------------------------
# Hyperbolic plane models
# ---------------------------------------------------------------------------


def cayley_to_disk(z: complex) -> complex:
    """Isometry from the upper half-plane model to the disk model (i -> 0)."""
    return (z - 1j) / (z + 1j)


def cayley_to_half_plane(w: complex) -> complex:
    return 1j * (1 + w) / (1 - w)


def _complex_or_nan(p) -> complex:
    """p as a complex number, or NaN (in neither model) if p is no number.
    The exact-type test spares complex points the slower ABC check."""
    if type(p) is complex or isinstance(p, numbers.Complex):
        return complex(p)
    return complex(math.nan)


def disk_gap(p) -> float:
    """1 - |p|^2, correctly rounded; raises unless p is inside the unit disk,
    that is unless the gap is positive.  Each component is split into
    26-bit halves (Veltkamp), so its square is a sum of three exact
    products, and ``math.fsum`` rounds the exact total once."""
    z = _complex_or_nan(p)
    terms = [1.0]
    for x in (z.real, z.imag):
        t = 134217729.0 * x  # 2^27 + 1
        hi = t - (t - x)
        lo = x - hi
        terms += (-hi * hi, -2.0 * hi * lo, -lo * lo)
    gap = math.fsum(terms)
    if not gap > 0:
        raise InvalidPointError(f"{p!r} is not inside the unit disk")
    return gap


def _twice_asinh(diff: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """2*asinh(|diff| / scale) entrywise, as the scalar distances round it:
    the division and products are ufuncs, correctly rounded like Python's
    float operators, while each complex abs and asinh is the builtin
    ``abs`` or ``math.asinh`` over ``tolist()``, as NumPy's need not round
    like them."""
    size = np.fromiter(map(abs, diff.ravel().tolist()), float, diff.size).reshape(diff.shape)
    with np.errstate(over="ignore"):  # a quotient past the float range is inf, as in Python
        q = (size / scale).ravel().tolist()
    return 2.0 * np.fromiter(map(math.asinh, q), float, len(q)).reshape(diff.shape)


class _HyperbolicModel(MetricSpace):
    """A model of the hyperbolic plane whose distance is
    2*asinh(|z-w| / (scale*sqrt(f(z) f(w)))), where ``_point(p)`` checks p
    and returns (f(p), p as a complex number).  While f(z) f(w) is a normal
    float the square root is taken of the product; past either end of the
    float range it would overflow or underflow, so the two square roots are
    taken apart."""

    exact = False

    def check_point(self, p) -> None:
        self._point(p)

    def distance(self, p, q) -> float:
        (f, z), (g, w) = self._point(p), self._point(q)
        s = f * g
        root = math.sqrt(s) if sys.float_info.min <= s < math.inf else math.sqrt(f) * math.sqrt(g)
        return 2.0 * math.asinh(abs(z - w) / (self.scale * root))

    def _columns(self, points) -> tuple[np.ndarray, np.ndarray]:
        pairs = [self._point(p) for p in points]
        return np.array([f for f, _ in pairs], float), np.array([z for _, z in pairs], complex)

    def distance_block(self, points):
        """``distance``'s formula over whole rows, bit for bit (see
        :func:`_twice_asinh`), its two root forms picked per entry."""
        fs, zs = self._columns(points)

        def block(ys, idx):
            g, w = self._columns(ys)
            g, f = g[:, None], fs[idx]
            with np.errstate(over="ignore"):  # the product form is not taken where it overflows
                s = g * f
                normal = (sys.float_info.min <= s) & (s < math.inf)
                root = np.where(normal, np.sqrt(s), np.sqrt(g) * np.sqrt(f))
                return _twice_asinh(w[:, None] - zs[idx], self.scale * root), 1

        return block

    def point_label(self, p) -> str:
        return repr(complex(p))

    def point_key(self, p):
        z = self._point(p)[1]
        return (z.real, z.imag)


class PoincareDisk(_HyperbolicModel):
    """Open unit disk with the conformal metric of curvature -1; base 0.

    f(z) = 1 - |z|^2 from :func:`disk_gap`, which is exact up to one
    rounding and positive exactly inside the disk, and scale 1: the
    distance is accurate to a few ulps up to the boundary circle.
    """

    scale = 1.0
    base_point = 0j

    @staticmethod
    def _point(p) -> tuple[float, complex]:
        return disk_gap(p), complex(p)  # checks p before complex() reads it

    distance = _HyperbolicModel.distance  # an entry of its own, which the layer tracer wraps per class

    def sample_points(self, rng: random.Random, count: int) -> list[complex]:
        out = []
        while len(out) < count:
            z = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
            if abs(z) < 0.95:
                out.append(z)
        return out

    def sphere_points(self, radius: float, count: int) -> list[complex]:
        r = math.tanh(radius / 2.0)
        return [r * cmath.exp(2j * math.pi * k / count) for k in range(count)]


class UpperHalfPlane(_HyperbolicModel):
    """Upper half-plane model; base point i.  f(z) = Im z and scale 2, which
    is stable for nearby points."""

    scale = 2.0
    base_point = 1j

    @staticmethod
    def _point(p) -> tuple[float, complex]:
        """(Im p, p); raises unless p is finite with Im p > 0."""
        z = _complex_or_nan(p)
        if not (z.imag > 0 and cmath.isfinite(z)):
            raise InvalidPointError(f"{p!r} is not in the upper half-plane")
        return z.imag, z

    distance = _HyperbolicModel.distance

    def sample_points(self, rng: random.Random, count: int) -> list[complex]:
        return [
            complex(rng.uniform(-5.0, 5.0), math.exp(rng.uniform(-2.5, 2.5)))
            for _ in range(count)
        ]


# ---------------------------------------------------------------------------
# l^p truncations
# ---------------------------------------------------------------------------


def lp_norm(x, p: float, axis=None):
    """The l^p norm, p in [1, inf]: of x flattened, as a float, or of each
    slice of x along ``axis``, as an array.  A slice whose plain sum of
    p-th powers overflows to inf or falls below the normal floats (to 0, or
    to a subnormal that has lost digits) is divided by m = max|x_j| first,
    and its norm multiplied by m after, where m is finite and positive;
    every other slice keeps the plain value."""
    v = np.asarray(x, dtype=float)
    if axis is None:
        v = v.ravel()

    def plain(v):
        if p == 2.0:
            return np.linalg.norm(v, axis=axis)
        if math.isinf(p):
            return np.max(np.abs(v), axis=axis)
        return np.sum(np.abs(v) ** p, axis=axis) ** (1.0 / p)

    low = sys.float_info.min ** (1.0 / p) if p < math.inf else 0.0  # the norm of a sum at the least normal
    with np.errstate(over="ignore", under="ignore"):
        n = plain(v)
        if axis is None and low < n < math.inf:
            return float(n)
        bad = ~((low < n) & (n < math.inf))  # below the normal sums, inf or NaN
        if bad.any():
            m = np.max(np.abs(v), axis=axis, initial=0.0)
            m = np.where(bad & (0 < m) & (m < math.inf), m, 1.0)  # 1: the plain value again
            n = np.where(bad, m * plain(v / (m if axis is None else np.expand_dims(m, axis))), n)
    return float(n) if axis is None else n


def pad_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """a and the vector b as floats, zero-padded to the wider of the two
    along a's last axis.  A vector a (a point of LpSpace) comes back as it
    is when the widths match; the 2-D rows of a batch (the l^p models) are
    always copied, so that row sums run over one C-ordered array."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float).ravel()
    if a.ndim == 1 and a.size == b.size:
        return a, b
    n = max(a.shape[-1], b.size)
    W, u = np.zeros((*a.shape[:-1], n)), np.zeros(n)
    W[..., : a.shape[-1]], u[: b.size] = a, b
    return W, u


class LpSpace(MetricSpace):
    """R^m with the l^p norm distance and base point 0."""

    exact = False

    def __init__(self, p: float = 2, dim: int = 2):
        self.p, self.dim = real_field(p, "p"), integer_field(dim, "dim")
        if not self.p >= 1:  # NaN too
            raise InvalidParameterError("p must be >= 1")
        if self.dim < 1:
            raise InvalidParameterError("dimension must be >= 1")

    def norm(self, x) -> float:
        return lp_norm(x, self.p)

    def distance(self, p, q) -> float:
        self.check_point(p)
        self.check_point(q)
        a, b = pad_pair(np.asarray(p, dtype=float).ravel(), q)
        return self.norm(a - b)

    @property
    def base_point(self):
        return np.zeros(self.dim)

    def check_point(self, p) -> None:
        # Shorter vectors are zero-padded, so any length is a point.
        a = np.asarray(p)
        if a.dtype.kind not in "iuf" or not np.isfinite(a).all():
            raise InvalidPointError(f"{p!r} is not a vector of finite real numbers")

    def point_label(self, p) -> str:
        return "(" + ",".join(repr(float(v)) for v in np.asarray(p, dtype=float).ravel()) + ")"

    def point_key(self, p):
        self.check_point(p)
        return tuple(float(v) for v in np.asarray(p, dtype=float).ravel())

    def sample_points(self, rng: random.Random, count: int) -> list[np.ndarray]:
        return [
            np.array([rng.gauss(0.0, 3.0) for _ in range(self.dim)]) for _ in range(count)
        ]

    def sphere_points(self, radius: float, count: int, rng: random.Random) -> list[np.ndarray]:
        out = []
        for _ in range(count):
            v = np.array([rng.gauss(0.0, 1.0) for _ in range(self.dim)])
            n = self.norm(v)
            if n == 0:
                continue
            out.append(v * (radius / n))
        return out
