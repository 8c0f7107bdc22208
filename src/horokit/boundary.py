"""Boundary restrictions of Cayley graphs and related invariants.

The restriction of h_g = d(., g) - d(e, g) to a finite ball B(r) is an
exact integer table.  As |g| grows, only finitely many such tables exist,
and the ones that recur are the ball restrictions of boundary functionals.
Acceptance over a trailing sphere-radius window, with an explicit
Stabilized/Heuristic certificate, is the computable surrogate for the
limit: no general bound on the stabilization radius exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    InvalidParameterError,
    PreconditionError,
    UnsupportedError,
)
from .functionals import BallFunctional, ZdLinear, check_rows, eval_functional
from .groups import CayleyBall, GeneratingSet, GroupFamily, cayley_ball
from .metric import CHUNK, Scalar, first_failure, first_lipschitz_violation
from .serialize import RowTable


def _distance_blocks(fam, X: np.ndarray, G: np.ndarray, dtype) -> Iterator[np.ndarray]:
    """Row blocks of the |G| x |X| matrix of d(x, g) = |x^-1 g| for the
    coordinate rows x of X and g of G: the family's ``distance_rows`` in
    chunks of about ``CHUNK`` values."""
    step = max(1, CHUNK // (len(X) * max(1, G.shape[1])))
    for a in range(0, len(G), step):
        yield fam.distance_rows(X, G[a : a + step], dtype)


def _sorted_rows(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, first) for the integer block V: V[order] holds V's rows in
    lexicographic order, and first[k] marks the first of each run of equal
    rows there.

    Each value less m = min(0, the block's minimum) takes the bits of the
    block's max - m, column 0 most significant, and a row packs into uint64
    words in row order: one word sorts as a 1-D key, several by
    ``np.lexsort``.  The block's own range sets offset and width, so no
    two distinct rows share a key."""
    U = V.astype(np.uint64)
    U -= V.min(initial=0).astype(np.uint64)  # modulo 2^64: the true offset in [0, 2^64)
    width = max(1, int(U.max(initial=0)).bit_length())
    per = 64 // width
    scale = np.uint64(1) << np.arange(per - 1, -1, -1, dtype=np.uint64) * np.uint64(width)
    words = []
    for a in range(0, V.shape[1], per):
        cols = U[:, a : a + per]
        words.append(cols @ scale[: cols.shape[1]])  # the fields do not overlap: the sum is their OR
    order = np.argsort(words[0], kind="stable") if len(words) == 1 else np.lexsort(words[::-1])
    first = np.arange(len(V)) == 0
    for w in words:
        w = w[order]
        first[1:] |= w[1:] != w[:-1]
    return order, first


def _merged_rows(V: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the integer block V in lexicographic order, and
    the rows of the bool table P OR-ed over each run of V's equal rows."""
    order, first = _sorted_rows(V)
    return V[order[first]], np.logical_or.reduceat(P[order], np.flatnonzero(first), axis=0)


def _unique_rows(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the integer block V as ``np.unique(V, axis=0)``
    gives them, and the inverse index: V[i] is their row ``inverse[i]``."""
    order, first = _sorted_rows(V)
    inverse = np.empty(len(V), np.intp)
    inverse[order] = np.cumsum(first) - 1
    return V[order[first]], inverse


def _ball_facts(ball: CayleyBall, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The distance matrix D of B(r), int16 unless 2r leaves int16, and the
    column permutations of B(r) by its automorphisms, built once per ball:
    under a closed form from ``ball.rows(r)``, on a searched ball from one
    ``distance_block`` of B(r), with the identity alone."""

    def build():
        dtype = np.int16 if 2 * r <= np.iinfo(np.int16).max else np.int64
        X = ball.rows(r)
        if X is not None:
            fam = ball.space.family
            return np.concatenate(list(_distance_blocks(fam, X, X, dtype))), fam.automorphisms(X)
        points = ball.ball(r)
        D = ball.space.distance_block(points)(points, np.arange(len(points)))[0]
        return D.astype(dtype), np.arange(len(points))[None]

    return ball.once("facts", r, build)


def _kept_pairs(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i < j, that ``_check_rows`` compares on the integer
    distance matrix D: those at distance 1, and those where neither point
    has a neighbour (a point at distance 1) one step closer to the other.
    If i has a neighbour k with D[k, j] = D[i, j] - 1, a row
    1-Lipschitz on {i, k} and {k, j} is so on {i, j}; so, by induction on
    D[i, j], a row 1-Lipschitz on the kept pairs is so on all.  Each row
    chunk gathers D's rows at each point's neighbours, padded with itself."""
    n = len(D)
    x, z = np.nonzero(D == 1)
    nbr = np.repeat(np.arange(n)[:, None], max(1, np.bincount(x, minlength=n).max(initial=0)), axis=1)
    nbr[x, np.arange(len(x)) - np.searchsorted(x, x)] = z
    closer = np.empty((n, n), dtype=bool)
    step = max(1, CHUNK // (n * nbr.shape[1]))
    for a in range(0, n, step):
        closer[a : a + step] = D[nbr[a : a + step]].min(axis=1) == D[a : a + step] - 1
    return np.nonzero(np.triu((D == 1) | ~(closer | closer.T), 1))


def _check_rows(ball: CayleyBall, r: int, V: np.ndarray) -> None:
    """``check_rows(ball.labels(r), V, D)`` with D of B(r), on the base
    column and the ``_kept_pairs`` of D alone, built once per ball.  A row
    fails there exactly when it fails on all pairs; the first failing row
    goes to ``check_rows`` for its message."""
    D = _ball_facts(ball, r)[0]
    hit = first_lipschitz_violation(V, D, pairs=ball.once("pairs", r, lambda: _kept_pairs(D)))
    if hit is not None:
        check_rows(ball.labels(r), V[[hit[0]]], D)


def _scan(ball: CayleyBall, r: int, radii: Sequence[int]) -> list[np.ndarray]:
    """``sphere_restrictions(ball, r, R)`` for the increasing ``radii``, kept
    by the ball under (min(R, R0), dtype of the last R): the first not kept
    builds them all.  Rows G and their presence table P are the family's
    ``sphere_rows(X, r, radii)`` on X = ``ball.rows(r)``, with d(x, g) by
    ``_distance_blocks``, or a searched ball's spheres, with one
    ``distance_block`` and P by ``sphere_offsets``.  Less its identity
    column, a row is h_g.  One sort keeps the distinct rows, P OR-ed over
    copies (``_merged_rows``), one more their closure under
    ``automorphisms``; ``_check_rows`` checks each exactly (|h| <= r).
    Stable spheres: S(R), R >= R0 = ``fam.stable_radius(r)``, gives the set
    of S(R0): F_n's ``sphere_rows`` is S(r) for every R (R0 = r), and Z^d's
    keys, of sum <= d r <= R (R0 = d r), are those with some |k_i| = r."""
    if not 0 <= r <= radii[0]:
        raise PreconditionError(f"need 0 <= ball radius {r} <= sphere radius {radii[0]}")
    if ball.radius < radii[-1]:
        raise PreconditionError(f"ball radius {ball.radius} is insufficient; need >= {radii[-1]}")
    fam, n, X = ball.space.family, ball.sphere_offsets[r + 1], ball.rows(r)
    dtype = np.int16 if radii[-1] + r < 1 << 15 else np.int64
    R0 = None if X is None else fam.stable_radius(r)
    keys, sets = [R if R0 is None else min(R, R0) for R in radii], {}

    def build(scan):
        if X is None:
            lo, hi, at = scan[0], scan[-1], ball.sphere_offsets
            P = np.repeat(np.arange(lo, hi + 1), np.diff(at[lo : hi + 2]))[:, None] == scan
            V = ball.space.distance_block(ball.ball(r))(ball.elements[at[lo] : at[hi + 1]], np.arange(n))[0].astype(dtype)
        else:
            G, P = fam.sphere_rows(X, r, scan)
            V = np.concatenate([*_distance_blocks(fam, X, G, dtype)])
        rows, seen = _merged_rows(V - V[:, :1], P)
        if len(perms := _ball_facts(ball, r)[1]) > 1:
            rows, seen = _merged_rows(np.concatenate([rows[:, p] for p in perms]), np.tile(seen, (len(perms), 1)))
        _check_rows(ball, r, rows)
        for R, present in zip(scan, seen.T):
            sets[R] = rows[present]
            sets[R].flags.writeable = False
        return sets

    return [ball.once(("restrictions", r, dtype), k, lambda: (sets or build(sorted(set(keys))))[k]) for k in keys]


def sphere_restrictions(ball: CayleyBall, r: int, R: int) -> np.ndarray:
    """Deduplicated restrictions h_g|B(r) over all g with |g| = R, as the
    read-only (k, |B(r)|) matrix of their distinct value rows in value-tuple
    order, one column per point of ``ball.ball(r)``, int16 (int64 once R + r
    leaves int16): the ``_scan`` of R alone, unless a window's scan kept it."""
    return _scan(ball, r, [R])[0]


@dataclass(frozen=True)
class Certificate:
    """Stabilized(window start, length) or Heuristic(max radius scanned)."""

    kind: str  # "stabilized" | "heuristic"
    window_start: int
    window_length: int
    r_max: int


@dataclass(frozen=True, eq=False)
class LimitRestrictionSet:
    """Ball restrictions accepted as boundary restrictions at radius r: the
    distinct int64 rows of ``values`` in lexicographic (value-tuple) order,
    one column per label of B(r).  Sets compare by identity."""

    r: int
    labels: tuple[str, ...]
    values: np.ndarray
    certificate: Certificate

    def as_dict(self) -> dict:
        # One {"radius", "order", "values"} dict per row, as a RowTable:
        # emit_json writes all rows in one formatting pass over the matrix.
        return {
            "r": self.r,
            "count": len(self.values),
            "certificate": self.certificate,
            "functionals": RowTable({"radius": self.r, "order": self.labels}, self.values),
        }


def limit_restrictions(
    family: GroupFamily,
    gens: GeneratingSet,
    r: int,
    r_max: int,
    window: int,
) -> LimitRestrictionSet:
    """Accept a restriction iff it appears at some sphere radius in the
    trailing window [r_max - window, r_max].

    The certificate is Stabilized when the accepted set is unchanged when
    r_max is replaced by any value in that window, Heuristic otherwise.
    One ``_scan`` builds the spheres R = lo..r_max, lo = max(r, r_max - 2
    window).  One dedup of their sets gives their distinct rows and
    a presence table seen[row, R - lo]; the set accepted at each end radius
    is a column ``any`` over that table.
    """
    if window < 1:
        raise PreconditionError("window must be >= 1")
    if r_max <= r + window:
        raise PreconditionError("need r_max > r + window")
    ball = cayley_ball(family, gens, r_max)
    lo = max(r, r_max - 2 * window)
    _scan(ball, r, range(lo, r_max + 1))
    spheres = [sphere_restrictions(ball, r, R) for R in range(lo, r_max + 1)]
    rows, inverse = _unique_rows(np.concatenate(spheres))
    seen = np.zeros((len(rows), len(spheres)), dtype=bool)
    seen[inverse, np.repeat(np.arange(len(spheres)), [len(v) for v in spheres])] = True
    ends = range(r_max - window, r_max + 1)
    *earlier, final = [seen[:, max(r, e - window) - lo : e - lo + 1].any(axis=1) for e in ends]
    stabilized = all(np.array_equal(mask, final) for mask in earlier)
    cert = Certificate("stabilized" if stabilized else "heuristic", r_max - window, window, r_max)
    return LimitRestrictionSet(r, ball.labels(r), rows[final].astype(np.int64, copy=False), cert)


@dataclass
class UnboundednessReport:
    passed: bool
    r: int
    violating: Optional[BallFunctional] = None


def unboundedness_check(lrs: LimitRestrictionSet) -> UnboundednessReport:
    """Every accepted restriction must attain -r somewhere on the sphere S(r):
    the testable trace of metric functionals being unbounded."""
    if not len(lrs.values):
        raise PreconditionError("accepted set is empty")
    bad = np.flatnonzero(lrs.values.min(axis=1) != -lrs.r)
    if len(bad):
        row = tuple(lrs.values[bad[0]].tolist())
        return UnboundednessReport(False, lrs.r, BallFunctional(lrs.r, lrs.labels, row))
    return UnboundednessReport(True, lrs.r)


def act_on_rows(ball: CayleyBall, g, V: np.ndarray, r: int) -> np.ndarray:
    """Translate restriction rows by g: (g.h)(x) = h(g^-1 x) - h(g^-1) on B(r).

    V's columns are B(R) of ``ball`` in ball order, R read from
    ``sphere_offsets`` (past a finite group's diameter, the largest R of that
    size).  R >= r + |g|, |g| from the ball's ``space``, keeps every g^-1 x
    in B(R).  The rows are checked like those of ``sphere_restrictions``.
    """
    R = max((R for R, n in enumerate(ball.sphere_offsets[1:]) if n == V.shape[1]), default=None)
    need = r + ball.space.point_key(g)[0]
    if R is None or R < need:
        raise PreconditionError(f"rows over {V.shape[1]} points are no B(R) with R >= r + |g| = {need}")
    fam, points = ball.space.family, ball.ball(r)
    pos = {p: i for i, p in enumerate(ball.ball(R))}
    ginv = fam.inverse(g)
    out = V[:, [pos[fam.multiply(ginv, x)] for x in points]] - V[:, [pos[ginv]]]
    _check_rows(ball, r, out)
    return out


# ---------------------------------------------------------------------------
# Invariant measures on the boundary and the drift homomorphism
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftMeasure:
    """Finitely supported probability measure on closed-form boundary
    functionals.  It is invariant under the group action because each atom
    is: the support is ``ZdLinear`` functionals, and for linear h,
    (g.h)(x) = h(x - g) - h(-g) = h(x) (``ZdLinear.translate`` returns h)."""

    space: "object"  # CayleyGraphSpace
    support: tuple[tuple[ZdLinear, Fraction], ...]

    @classmethod
    def create(cls, space, support: Iterable[tuple[ZdLinear, Scalar]]) -> "DriftMeasure":
        rows = []
        total = Fraction(0)
        for h, w in support:
            if not isinstance(h, ZdLinear):
                raise UnsupportedError(
                    "drift measures support closed-form lattice functionals only"
                )
            w = Fraction(w)
            if w < 0:
                raise InvalidParameterError("weights must be nonnegative")
            rows.append((h, w))
            total += w
        if total != 1:
            raise InvalidParameterError(f"weights sum to {total}, expected 1")
        return cls(space, tuple(rows))

    def integrate(self, g) -> Fraction:
        """The drift homomorphism T(g): the integral of h(g) over the measure."""
        return sum((w * h.evaluate(g) for h, w in self.support), Fraction(0))


@dataclass
class DriftAuditReport:
    passed: bool
    additive_pairs: int
    lipschitz_points: int
    failure: Optional[tuple] = None


def drift_audit(measure: DriftMeasure, elements: Sequence) -> DriftAuditReport:
    """Exact additivity T(gh) = T(g) + T(h) over all pairs, and
    |T(g)| <= |g| for every audited element."""
    space = measure.space
    fam = space.family
    lip = 0
    for g in elements:
        if abs(measure.integrate(g)) > space.distance(space.base_point, g):
            return DriftAuditReport(False, 0, lip, ("lipschitz", g))
        lip += 1
    pairs = 0
    for g in elements:
        tg = measure.integrate(g)
        for h in elements:
            pairs += 1
            if measure.integrate(fam.multiply(g, h)) != tg + measure.integrate(h):
                return DriftAuditReport(False, pairs, lip, ("additivity", g, h))
    return DriftAuditReport(True, pairs, lip)


# ---------------------------------------------------------------------------
# Reduced compactification of Z
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZFunctional:
    """Closed-form functional on Z: a point functional h_n, or one of the
    two ends (h(x) = -x toward +infinity, h(x) = +x toward -infinity)."""

    kind: str  # "point" | "plus_end" | "minus_end"
    anchor: int = 0

    @classmethod
    def point(cls, n: int) -> "ZFunctional":
        return cls("point", int(n))

    @classmethod
    def plus_end(cls) -> "ZFunctional":
        # limit of h_n as n -> +infinity: x |-> -x
        return cls("plus_end")

    @classmethod
    def minus_end(cls) -> "ZFunctional":
        return cls("minus_end")

    def evaluate(self, x: int) -> int:
        if self.kind == "point":
            return abs(x - self.anchor) - abs(self.anchor)
        if self.kind == "plus_end":
            return -x
        return x

    def label(self) -> str:
        if self.kind == "point":
            return f"h_{self.anchor}"
        return "+end" if self.kind == "plus_end" else "-end"


def reduced_classify_z(functionals: Sequence[ZFunctional]) -> list[list[ZFunctional]]:
    """Partition by bounded difference, using the closed forms.

    sup |h_n - h_m| = 2|n - m| is finite, while a point functional differs
    from either end by an unbounded function, and the two ends differ by
    2|x|; so the classes are: all point functionals, the +end, the -end.
    """
    for f in functionals:
        if not isinstance(f, ZFunctional) or f.kind not in ("point", "plus_end", "minus_end"):
            raise UnsupportedError(f"unsupported functional {f!r} for exact classification")
    classes: dict[str, list[ZFunctional]] = {}
    for f in functionals:
        key = "finite" if f.kind == "point" else f.kind
        classes.setdefault(key, []).append(f)
    return [classes[k] for k in sorted(classes)]


@dataclass
class FixedPointAuditReport:
    passed: bool
    bound: Scalar = field(metadata={"json": float})
    worst: Scalar = field(metadata={"json": float})
    checked: int
    violating: Optional[object] = field(default=None, metadata={"json": str})


def reduced_fixed_point_audit(
    isometry,
    h,
    samples: Sequence,
    *,
    tol: Scalar = 0,
) -> FixedPointAuditReport:
    """Check |h(g^-1 x) - h(x)| <= d(g^-1 x0, x0) + tol over the samples.

    This is the two-sided bound showing an orbit-limit functional moves by
    a bounded amount under the isometry, i.e. its reduced class is fixed.
    ``isometry`` must expose ``space``, ``apply`` and ``apply_inverse``.
    """
    space = isometry.space
    x0 = space.base_point
    bound = space.distance(isometry.apply_inverse(x0), x0)
    checked, worst, x, _ = first_failure(
        samples, lambda y: abs(eval_functional(h, isometry.apply_inverse(y)) - eval_functional(h, y)), bound + tol
    )
    return FixedPointAuditReport(x is None, bound, worst, checked, x)
