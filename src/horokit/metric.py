"""Metric spaces as distance oracles with a distinguished base point.

A space is either *exact* (all distances are :class:`fractions.Fraction`
and every assertion about it can be checked with zero tolerance) or
float-valued with explicit tolerances.

This module also holds the one checker of the metric axioms, the triangle
inequality and the 1-Lipschitz condition.  It works on distance matrices
and reports the first violation in a fixed canonical order; callers build
the matrix, through their distance oracle or an array kernel, and call it.
It also holds :func:`first_failure`, the one stop-and-count rule of the
audits that certify the paper's existence statements.
"""

from __future__ import annotations

import math
import operator
import os
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from typing import Any, Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    InvalidParameterError,
    InvalidPointError,
    InvalidSpaceError,
    PreconditionError,
    UnsupportedError,
)

Scalar = Union[Fraction, float]
Point = Any

DEFAULT_BALL_LIMIT = 10**6


def ball_limit() -> int:
    """The one ball-size limit of every Cayley ball and word-length search:
    HOROKIT_MAX_BALL, else the default.

    The variable must be a positive integer in decimal digits."""
    env = os.environ.get("HOROKIT_MAX_BALL")
    if not env:
        return DEFAULT_BALL_LIMIT
    if not (env.isascii() and env.isdigit() and int(env) > 0):
        raise InvalidParameterError(f"HOROKIT_MAX_BALL must be a positive integer, got {env!r}")
    return int(env)


def integer_field(v, name: str) -> int:
    """An integer field of input, read by ``int()`` where that keeps its
    value (an int, an integral float, an int's text); a bool, fraction,
    infinity, NaN or any other value raises an error naming the field."""
    try:
        n = int(v)
        if (n == v or isinstance(v, str)) and not isinstance(v, (bool, np.bool_)):
            return n
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidParameterError(f"{name} must be an integer, got {v!r}")


def real_field(v, name: str, read=float, kind="real number in the float range"):
    """``read(v)`` (float, a reader of float arrays, or of a ``kind`` such as
    a rational number) of a field of input; a bool, a number past the float
    range or anything ``read`` cannot read is an error naming the field."""
    try:
        if not isinstance(v, (bool, np.bool_)):
            return read(v)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        pass
    raise InvalidParameterError(f"{name} must be a {kind}, got {v!r}")


def finite_float(v) -> float:
    """A finite float: float() also reads "inf", "nan" and JSON's 1e999, which are no values."""
    if not math.isfinite(x := float(v)):
        raise ValueError(v)
    return x


def rational_field(v, name: str) -> Fraction:
    """A rational field of input: a Fraction as it is, a float as the decimal
    text Python prints for it (1e-13 is 1/10^13) and any other value as
    ``_fraction(v)`` reads it; a bool, NaN, an infinity or anything Fraction
    cannot read is an error naming the field."""
    if isinstance(v, Fraction):
        return v
    return real_field(v, name, lambda x: _fraction(str(x) if isinstance(x, float) else x), "rational number")


def _fraction(v) -> Fraction:
    """``Fraction(v)``, which builds 10**e for a text's exponent e (seconds of
    work for "1e10000000"): past |e| = 10,000 the text is a ValueError, as a
    digit string past int's 4,300-digit text limit already is."""
    if isinstance(v, str) and abs(int(v.lower().partition("e")[2] or 0)) > 10_000:
        raise ValueError(v)
    return Fraction(v)


def exact_text(v) -> str:
    """``str(v)``; an int or Fraction past int's 4,300-digit text limit in the
    same digits ("p", or "p/q" in lowest terms), written through Decimal."""
    try:
        return str(v)
    except ValueError:
        return "/".join(map(str, map(Decimal, (v.numerator, v.denominator)[: 1 + (v.denominator > 1)])))


def list_field(v, name: str, rows: bool = False):
    """A list field of input (a sequence or array, not text), with ``rows``
    a list of such lists; any other shape is an error naming the field."""
    if _listlike(v) and (not rows or all(map(_listlike, v))):
        return v
    raise InvalidParameterError(f"{name} must be a list{' of lists' if rows else ''}, got {v!r}")


def _listlike(v) -> bool:
    return isinstance(v, (Sequence, np.ndarray)) and not isinstance(v, (str, bytes))


class MetricSpace(ABC):
    """A point universe with a distance oracle and a base point.

    Subclasses are immutable after construction, except for caches that a
    distance oracle grows as it is queried (``CayleyGraphSpace`` grows its
    one unlocked search), so distance oracles are not safe for concurrent
    evaluation.
    """

    exact: bool = True

    @abstractmethod
    def distance(self, p: Point, q: Point) -> Scalar:
        ...

    @property
    @abstractmethod
    def base_point(self) -> Point:
        ...

    def check_point(self, p: Point) -> None:
        """Raise InvalidPointError if ``p`` is not a point of this space."""

    def point_label(self, p: Point) -> str:
        return str(p)

    def point_key(self, p: Point):
        """Sort key inducing the space's canonical total order on points;
        every override checks ``p`` first, as here."""
        self.check_point(p)
        return self.point_label(p)

    def points(self) -> Optional[list]:
        """Every point in canonical order if the space is finite, else None."""
        return None

    def sample_points(self, rng: random.Random, count: int) -> list:
        raise UnsupportedError(f"{type(self).__name__} has no point sampler")

    def distance_block(self, points: Sequence[Point]) -> Callable:
        """Check the fixed ``points`` once, and return block(ys, idx) -> (M, den),
        M[i, k] / den = d(ys[i], points[idx[k]]): an :func:`exact_table` on
        an exact space, float64 with den 1 otherwise.  This default asks
        ``distance`` per entry; a subclass that overrides ``distance`` must
        override this too, as a closed-form block never reads it."""
        for p in points:
            self.check_point(p)

        def block(ys: Sequence[Point], idx: np.ndarray) -> tuple[np.ndarray, int]:
            rows = [[self.distance(y, points[i]) for i in idx.tolist()] for y in ys]
            M, den = exact_table(rows) if self.exact else (np.array(rows, dtype=float), 1)
            return M.reshape(len(ys), len(idx)), den  # no ys: (0, len(idx)), not (0,)

        return block

    def functional_rows(self, points: Sequence[Point], origin: Point) -> Callable:
        """rows(ys, idx) -> (M, den), M[i, k] / den = h_p(ys[i]) = d(ys[i], p) - d(origin, p)
        for p = points[idx[k]], held as in ``distance_block``.  The origin is
        checked here; each batch is one block over the ys and the origin, its
        last row subtracted from the others, so they share one denominator."""
        block = self.distance_block(points)
        self.check_point(origin)

        def rows(ys: Sequence[Point], idx: np.ndarray) -> tuple[np.ndarray, int]:
            M, den = block([*ys, origin], idx)
            return M[:-1] - M[-1], den

        return rows


# ---------------------------------------------------------------------------
# The checker: metric axioms, triangle inequality, 1-Lipschitz rows
# ---------------------------------------------------------------------------

# Check temporaries hold at most about this many elements per chunk, 256 KB
# of int64.  Passes over many value rows (the Lipschitz check, boundary's
# blocks) take 8 CHUNK: at CHUNK their per-chunk calls cost large cells 10-24%.
CHUNK = 1 << 15

# Exact integers below this magnitude are held in int64: sums of three fit.
INT64_SAFE = 1 << 61


def exact_table(rows) -> tuple[np.ndarray, int]:
    """The 2-D table ``rows`` of exact scalars as (M, den) with M / den = rows,
    by :func:`over_one_denominator`.  Each distinct entry is read once, in
    row-major order of first occurrence (entries that compare equal are
    equal rationals), and repeats are one fancy index of those values; a
    table holding a Fraction is read per entry, as Fraction's hash is Python
    code that costs more than the read.  Ints and Fractions are read as they
    are, and strings "p" and "p/q" in ASCII digits as the ints p and q, so
    none of them builds a Fraction; any other entry is read by
    ``_fraction(v)``, with its value or its exception."""
    flat = list(chain.from_iterable(rows))
    keys = flat if Fraction in map(type, flat) else [*dict.fromkeys(flat)]
    ps, qs = [], []
    for v in keys:
        if type(v) is str and v.isascii():
            p, slash, q = v.partition("/")
            if p.isdigit() and (q.isdigit() or not slash):
                p, q = int(p), int(q or 1)
                if q:  # else Fraction(v) raises for the zero denominator
                    ps.append(p)
                    qs.append(q)
                    continue
        v = v if isinstance(v, (int, Fraction)) else _fraction(v)
        ps.append(v.numerator)
        qs.append(v.denominator)
    M, den = over_one_denominator(ps, qs)
    if len(keys) < len(flat):
        at = dict(zip(keys, range(len(keys))))
        M = M[np.fromiter(map(at.__getitem__, flat), np.intp, len(flat))]
    return (M.reshape(len(rows), -1) if len(rows) else M), den


def over_one_denominator(ps: list[int], qs: list[int]) -> tuple[np.ndarray, int]:
    """The rationals ps[i] / qs[i] (ints over positive ints) as a flat array
    M / den, den least: the lcm of the qs, which an unreduced p/q can only
    enlarge, over one gcd of M and den.  M's dtype is :func:`int_dtype`'s."""
    den = math.lcm(*set(qs))
    M = list(map(operator.mul, ps, map(den.__floordiv__, qs)))
    if (g := math.gcd(den, *M)) > 1:
        den, M = den // g, [m // g for m in M]
    return np.array(M, dtype=int_dtype(den, M)), den


def int_dtype(den: int, M: list[int]):
    """int64 while den and the ints M are below INT64_SAFE in magnitude, else object (Python ints)."""
    return object if max(den, max(map(abs, M), default=0)) >= INT64_SAFE else np.int64


def on_one_scale(values, den: int = 1, D=None) -> tuple[list[int], int, Any]:
    """The exact ``values`` as Python ints V over L = lcm(den, their
    denominators), and the block D / den as E / L: D itself while L = den,
    Python ints past it.  Ints and Fractions are read as they are, any other
    value by ``Fraction(v)`` (a float exactly), and a NaN, say, is an error."""
    fr = [v if isinstance(v, (int, Fraction)) else real_field(v, "value", Fraction, "rational number") for v in values]
    L = math.lcm(den, *{v.denominator for v in fr})
    V = [v.numerator * (L // v.denominator) for v in fr]
    return V, L, D if D is None or L == den else D.astype(object) * (L // den)


def first_axiom_violation(D: np.ndarray, tol: Scalar = 0) -> Optional[tuple[str, int, int]]:
    """First (kind, i, j) where the square matrix D breaks a metric axiom, or
    None.  Rows are scanned in order; within row i the diagonal entry comes
    first (kind "diagonal", j = i, if |D[i, i]| > tol), then for each column
    j a negative entry ("negative") before an asymmetric one ("asymmetric",
    |D[i, j] - D[j, i]| > tol)."""
    bad = (D < 0) | (abs(D - D.T) > tol)
    diagonal = abs(np.diagonal(D)) > tol
    rows = np.flatnonzero(diagonal | bad.any(axis=1))
    if not rows.size:
        return None
    i = int(rows[0])
    if diagonal[i]:
        return ("diagonal", i, i)
    j = int(np.argmax(bad[i]))
    return ("negative" if D[i, j] < 0 else "asymmetric", i, j)


def first_triangle_violation(D: np.ndarray, tol: Scalar = 0, triples=None) -> Optional[int]:
    """Position of the first triple (i, j, k), k the middle point, with
    D[i, j] > D[i, k] + D[k, j] + tol, or None: over all triples in
    lexicographic order (position i n^2 + j n + k), or over the rows of
    ``triples`` in order (position = row index)."""
    if triples is None:
        n = len(D)
        step = max(1, CHUNK // max(1, n * n))
        for a in range(0, n, step):
            bad = D[a : a + step, :, None] > D[a : a + step, None, :] + D.T + tol
            if bad.any():
                return a * n * n + int(np.argmax(bad))
        return None
    triples = np.asarray(triples, dtype=np.intp).reshape(-1, 3)
    for a in range(0, len(triples), CHUNK):
        i, j, k = triples[a : a + CHUNK].T
        bad = D[i, j] > D[i, k] + D[k, j] + tol
        if bad.any():
            return a + int(np.argmax(bad))
    return None


def unwrapped(X: np.ndarray) -> np.ndarray:
    """X in a dtype where no difference of two entries wraps: X itself,
    unless X holds integers whose range its dtype cannot hold, then int64,
    or Python ints past that."""
    if X.dtype.kind not in "iu" or not X.size:
        return X
    lo, hi = int(X.min()), int(X.max())
    if X.dtype.kind == "i" and hi - lo <= np.iinfo(X.dtype).max:
        return X
    return X.astype(np.int64 if hi - lo < 1 << 63 and hi < 1 << 63 else object)


def first_lipschitz_violation(V: np.ndarray, D: np.ndarray, tol: Scalar = 0, pairs=None) -> Optional[tuple]:
    """First (row, i, j) where a value row of V fails against the distance
    matrix D, or None.  Within a row, a nonzero value at the base point,
    index 0, comes first (i = j = 0); then the first pair with
    |V[row, i] - V[row, j]| > D[i, j] + tol, the difference taken in a dtype
    that cannot wrap: over all i < j in row-major order, or over the index
    arrays ``pairs = (i, j)`` in their order."""
    i, j = np.triu_indices(D.shape[0], 1) if pairs is None else pairs
    bound = D[i, j] + tol
    step = max(1, (CHUNK << 3) // max(1, len(i)))
    for a in range(0, len(V), step):
        chunk = unwrapped(V[a : a + step])
        bad = np.abs(chunk[:, i] - chunk[:, j]) > bound
        based = chunk[:, 0] != 0
        rows = np.flatnonzero(based | bad.any(axis=1))
        if rows.size:
            r = int(rows[0])
            if based[r]:
                return (a + r, 0, 0)
            p = int(np.argmax(bad[r]))
            return (a + r, int(i[p]), int(j[p]))
    return None


def first_failure(items: Iterable, gap: Callable, limit: Scalar) -> tuple:
    """(checked, worst, item, gap) of the audits' one rule: walk ``items``
    in order, stop uncounted at the first whose ``gap`` is None (an outcome
    that did not stabilize), else count it, keep the largest gap (from 0),
    and stop at the first gap above ``limit``.  item and gap are None when
    every item passes."""
    checked, worst = 0, 0
    for item in items:
        g = gap(item)
        if g is None:
            return checked, worst, item, None
        checked += 1
        worst = max(worst, g)
        if g > limit:
            return checked, worst, item, g
    return checked, worst, None, None


class FiniteMetricSpace(MetricSpace):
    """An explicit n-point space with exact rational distances.

    Entries are read as :func:`exact_table` reads them: ints, Fractions and
    "p/q" strings without a Fraction each, any other entry by
    ``Fraction(v)``.  Only the matrix scaled to exact integers over one
    denominator is kept, and validated exhaustively at construction:
    symmetry, zero diagonal, nonnegativity, and the triangle inequality over
    all n^3 triples.
    """

    def __init__(self, matrix: Sequence[Sequence[Scalar | str]], base_index: int = 0):
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise InvalidSpaceError("distance matrix is not square")
        self._D, self._den = exact_table(matrix)
        self.n = n
        if not 0 <= base_index < n:
            raise InvalidSpaceError(f"base index {base_index} outside [0, {n})")
        self.base_index = base_index
        hit = first_axiom_violation(self._D)
        if hit is not None:
            kind, i, j = hit
            if kind == "diagonal":
                raise InvalidSpaceError(f"nonzero diagonal at point {i}")
            raise InvalidSpaceError(f"{kind} distance at pair ({i}, {j})")
        pos = first_triangle_violation(self._D)
        if pos is not None:
            i, j, k = (int(v) for v in np.unravel_index(pos, (self.n,) * 3))
            raise InvalidSpaceError(f"triangle inequality fails at triple ({i}, {j}, {k})")

    def distance(self, p: int, q: int) -> Fraction:
        self.check_point(p)
        self.check_point(q)
        return Fraction(int(self._D[p, q]), self._den)

    def distance_block(self, points: Sequence[int]) -> Callable:
        """Slices of the matrix that ``__init__`` scaled, with its one
        denominator."""
        for p in points:
            self.check_point(p)
        cols = np.array(points, np.intp)

        def block(ys: Sequence[int], idx: np.ndarray) -> tuple[np.ndarray, int]:
            for y in ys:
                self.check_point(y)
            return self._D[np.ix_(np.array(ys, np.intp), cols[idx])], self._den

        return block

    @property
    def base_point(self) -> int:
        return self.base_index

    def points(self) -> list[int]:
        return list(range(self.n))

    def check_point(self, p) -> None:
        if not isinstance(p, int) or not 0 <= p < self.n:
            raise InvalidPointError(f"{p!r} is not a point index in [0, {self.n})")

    def point_key(self, p: int):
        self.check_point(p)
        return p

    def sample_points(self, rng: random.Random, count: int) -> list[int]:
        return [rng.randrange(self.n) for _ in range(count)]


def draw_indices(rng: random.Random, n: int, m: int) -> np.ndarray:
    """``[rng.randrange(n) for _ in range(m)]`` as an intp array, leaving rng in
    the same state: for 0 < n < 2^32 randrange keeps the top n.bit_length() bits
    of the next 32-bit word if below n, and one getrandbits call gives the words."""
    if not 0 < n < 1 << 32:
        return np.array([rng.randrange(n) for _ in range(m)], dtype=np.intp)
    out, need = np.empty(m, dtype=np.intp), m
    while need:
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"), "<u4")
        vals = words >> np.uint32(32 - n.bit_length())
        vals = vals[vals < n]
        out[m - need : m - need + len(vals)] = vals
        need -= len(vals)
    return out


@dataclass
class MetricReport:
    """Outcome of a metric-axiom validation run."""

    passed: bool
    points_checked: int = field(metadata={"key": "points"})
    pairs_checked: int = field(metadata={"key": "pairs"})
    triples_checked: int = field(metadata={"key": "triples"})
    tolerance: Scalar = field(metadata={"skip": True})
    failure: Optional[tuple] = field(default=None, metadata={"each": str})  # (kind, points...), first violation


def validate_metric(
    space: MetricSpace,
    *,
    max_triples: int = 10_000,
    seed: int = 0,
    tol: Scalar | None = None,
) -> MetricReport:
    """Check symmetry, zero self-distance, and the triangle inequality.

    The matrix is one ``distance_block`` of the points.  A space whose
    ``points()`` lists them all is checked exhaustively over all triples;
    otherwise the triangle inequality is checked on ``max_triples`` seeded
    random triples of 48 points of the space's sampler, drawn in one block by
    :func:`draw_indices`.  The first violation is reported in the row order
    of :func:`first_axiom_violation`, then in canonical order for exhaustive
    checks and in draw order for sampled ones.
    """
    if tol is None:
        tol = Fraction(0) if space.exact else 1e-10
    if max_triples < 0:
        raise PreconditionError(f"max_triples must be >= 0, got {max_triples}")

    pts = space.points()
    exhaustive = pts is not None
    if not exhaustive:
        pts = space.sample_points(random.Random(seed), 48)

    n = len(pts)
    D, den = space.distance_block(pts)(pts, np.arange(n))
    # Exact entries are integers over den, so D > x + tol*den iff D > x + floor(tol*den).
    t = float(tol) if D.dtype == float else math.floor(Fraction(tol) * den)
    if D.dtype == float and not np.isfinite(D).all():
        i, j = divmod(int(np.argmin(np.isfinite(D))), n)
        raise InvalidSpaceError(f"non-finite distance for pair ({pts[i]!r}, {pts[j]!r})")
    hit = first_axiom_violation(D, t)
    if hit is not None:
        kind, i, j = hit
        if D[i, j] < 0:
            raise InvalidSpaceError(f"negative distance for pair ({pts[i]!r}, {pts[j]!r})")
        if kind == "diagonal":
            return MetricReport(False, n, 0, 0, tol, ("self_distance", pts[i]))
        pairs = i * (2 * n - i - 1) // 2 + j - i  # pairs (a, b), a < b, up to (i, j)
        return MetricReport(False, n, pairs, 0, tol, ("symmetry", pts[i], pts[j]))

    triples = None
    if not exhaustive:
        # A drawn (p, q, r) has q in the middle: the checker's (i, j, k) is (p, r, q).
        triples = draw_indices(random.Random(seed), n, 3 * max_triples).reshape(-1, 3)[:, [0, 2, 1]]
    pos = first_triangle_violation(D, t, triples)
    if pos is None:
        return MetricReport(True, n, n * (n - 1) // 2, n**3 if exhaustive else max_triples, tol)
    p, r, q = np.unravel_index(pos, (n, n, n)) if exhaustive else triples[pos]
    return MetricReport(False, n, n * (n - 1) // 2, pos + 1, tol, ("triangle", pts[p], pts[q], pts[r]))
