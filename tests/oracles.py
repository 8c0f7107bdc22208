"""Independent oracles for the test suite.

Everything here recomputes expected values from first principles (plain
BFS, Dijkstra, closed-form counts, brute-force enumeration) without going
through the library code paths under test.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import json
import math
from fractions import Fraction
from math import comb

import mpmath
import numpy as np


def bfs_ball(identity, gens, mul, radius):
    """Plain BFS ball: {element: distance} using only a multiply callable."""
    dist = {identity: 0}
    frontier = [identity]
    for r in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for s in gens:
                h = mul(g, s)
                if h not in dist:
                    dist[h] = r
                    nxt.append(h)
        frontier = nxt
    return dist


def disk_distance(z: complex, w: complex) -> float:
    """Poincare disk distance 2 atanh(|z - w| / |1 - conj(z) w|), evaluated
    on the exact binary values of z and w at 60 decimal digits and rounded
    to a float."""
    with mpmath.workdps(60):
        z, w = mpmath.mpc(z), mpmath.mpc(w)
        return float(2 * mpmath.atanh(abs(z - w) / abs(1 - mpmath.conj(z) * w)))


def disk_busemann(zeta: complex, z: complex) -> float:
    """Disk Busemann function log(|zeta - z|^2 / (1 - |z|^2)), evaluated on
    the exact binary values of zeta and z at 60 decimal digits and rounded
    to a float."""
    with mpmath.workdps(60):
        zeta, z = mpmath.mpc(zeta), mpmath.mpc(z)
        return float(mpmath.log(abs(zeta - z) ** 2 / (1 - abs(z) ** 2)))


def half_plane_distance(z: complex, w: complex) -> float:
    """Half-plane distance 2 asinh(|z - w| / (2 sqrt(Im z Im w))), evaluated
    on the exact binary values of z and w at 60 decimal digits and rounded
    to a float."""
    with mpmath.workdps(60):
        z, w = mpmath.mpc(z), mpmath.mpc(w)
        return float(2 * mpmath.asinh(abs(z - w) / (2 * mpmath.sqrt(z.imag * w.imag))))


def matmul2(m, n):
    """The product m n of 2x2 matrices given as tuples (a, b, c, d)."""
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def hyperbolic_pair_reference(rng):
    """Two 2x2 matrices as Fraction tuples (a, b, c, d), each a product of
    two to four shears [[1, p], [0, 1]] or [[1, 0], [p, 1]], p in -2..2,
    drawn from ``rng`` and redrawn until 2 < |trace| <= 12."""

    def one():
        while True:
            m = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
            for _ in range(rng.randrange(2, 5)):
                p = Fraction(rng.randrange(-2, 3))
                if rng.randrange(2):
                    m = matmul2(m, (Fraction(1), p, Fraction(0), Fraction(1)))
                else:
                    m = matmul2(m, (Fraction(1), Fraction(0), p, Fraction(1)))
            if 2 < abs(m[0] + m[3]) <= 12:
                return m

    return one(), one()


def moebius_orbit_distances(entries, n_max: int) -> list[float]:
    """d(i, M^n i) = arccosh(||M^n||_F^2 / 2) for n = 0..n_max and a
    determinant-one matrix M = (a, b, c, d): exact Fraction powers, then
    the arccosh at 60 decimal digits, rounded to a float."""
    m = tuple(Fraction(v) for v in entries)
    power = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    out = []
    with mpmath.workdps(60):
        for n in range(n_max + 1):
            t = sum(v * v for v in power)
            out.append(float(mpmath.acosh(mpmath.mpf(t.numerator) / t.denominator / 2)))
            power = matmul2(power, m)
    return out


def moebius_orbit_scalar(floats, n_max: int) -> list[float]:
    """d(i, M^n i) for n = 0..n_max by the scalar float recurrence the
    library's orbit kernel must repeat bit for bit: four Python floats per
    power, each new entry two separately rounded products and one sum,
    renormalized by the largest absolute entry into a log scale.  The
    entries are read in order (a, b, c, d).  A step whose scale is zero,
    infinite or NaN raises ValueError."""
    a, b, c, d = floats
    ua, ub, uc, ud = 1.0, 0.0, 0.0, 1.0
    logscale = 0.0
    out = [0.0]
    for _ in range(n_max):
        ua, ub, uc, ud = ua * a + ub * c, ua * b + ub * d, uc * a + ud * c, uc * b + ud * d
        m = max(abs(ua), abs(ub), abs(uc), abs(ud))
        if not 0.0 < m < float("inf"):
            raise ValueError(f"scale {m!r} is not finite and positive")
        ua, ub, uc, ud = ua / m, ub / m, uc / m, ud / m
        logscale += math.log(m)
        log_t = 2.0 * logscale + math.log(ua * ua + ub * ub + uc * uc + ud * ud)
        if log_t > 50.0:
            out.append(log_t)
        else:
            out.append(math.acosh(max(1.0, math.exp(log_t) / 2.0)))
    return out


def zd_sphere_count(d: int, r: int) -> int:
    """Number of lattice points with l1 norm exactly r."""
    if r == 0:
        return 1
    return sum(2**k * comb(d, k) * comb(r - 1, k - 1) for k in range(1, min(d, r) + 1))


def free_sphere_count(rank: int, r: int) -> int:
    if r == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (r - 1)


# --- Heisenberg via the defining 3x3 integer matrices -----------------------


def heis_matrix(a: int, b: int, c: int):
    return ((1, a, c), (0, 1, b), (0, 0, 1))


def heis_matmul(m, n):
    return tuple(
        tuple(sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )


def heis_triple(m) -> tuple[int, int, int]:
    return (m[0][1], m[1][2], m[0][2])


def heis_mul(g, h):
    """heis_matmul on triples: entries (0, 1), (1, 2) and (0, 2) of the
    product of the two matrices."""
    a, b, c = g
    x, y, z = h
    return (a + x, b + y, c + z + a * y)


def h3_lengths_by_area(targets, max_length):
    """Word lengths under x^+-1, y^+-1 of the (a, b, c) in targets, or None
    past max_length, from the signed areas of lattice paths.

    A word is a lattice path from (0, 0); a step y^+-1 taken at x adds
    +-x to c.  Over the words of length exactly t ending at (x, y), the
    areas form an integer interval: swapping two adjacent letters moves c
    by at most 1, replacing x x^-1 by y y^-1 keeps it, and these moves
    connect all such words.  Padding with x x^-1 keeps c, so the length of
    (a, b, c) is the least t whose interval at (a, b) holds c.
    """
    ranges = {(0, 0): (0, 0)}
    out = {g: (0 if tuple(g) == (0, 0, 0) else None) for g in targets}
    for t in range(1, max_length + 1):
        nxt = {}
        for (x, y), (lo, hi) in ranges.items():
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                key, dc = (x + dx, y + dy), x * dy
                old = nxt.get(key)
                nxt[key] = (lo + dc, hi + dc) if old is None else (
                    min(old[0], lo + dc), max(old[1], hi + dc))
        ranges = nxt
        for (a, b, c), n in out.items():
            if n is None and (a, b) in ranges and ranges[a, b][0] <= c <= ranges[a, b][1]:
                out[a, b, c] = t
    return out


def inverse3(m):
    """Inverse of a determinant-one integer 3x3 matrix: its adjugate."""

    def minor(i, j):
        a, b = ([v for col, v in enumerate(row) if col != j] for k, row in enumerate(m) if k != i)
        return a[0] * b[1] - a[1] * b[0]

    return tuple(tuple((-1) ** (i + j) * minor(j, i) for j in range(3)) for i in range(3))


# --- sphere restriction patterns from a plain BFS ball -----------------------


def bfs_restrictions(identity, gens, mul, inv, key, ball_r, radii):
    """{R: sorted distinct tuples h_g|B(ball_r)} over |g| = R, for each R in
    radii, from one BFS ball of radius ball_r + max(radii).  Ball points are
    in shortlex order (word length, key)."""
    radii = list(radii)
    dist = bfs_ball(identity, gens, mul, ball_r + max(radii))
    ball = sorted((p for p, d in dist.items() if d <= ball_r), key=lambda p: (dist[p], key(p)))
    inverses = [inv(x) for x in ball]
    out = {}
    for R in radii:
        sphere = [g for g, d in dist.items() if d == R]
        out[R] = sorted({tuple(dist[mul(xi, g)] - R for xi in inverses) for g in sphere})
    return out


def h3_restrictions(ball_r, radii):
    """Heisenberg restriction patterns, computed on the defining 3x3 integer
    matrices with the generators x^+-1, y^+-1; points ordered by (length,
    (a, b, c))."""
    gens = [heis_matrix(*v) for v in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))]
    return bfs_restrictions(
        heis_matrix(0, 0, 0), gens, heis_matmul, inverse3, heis_triple, ball_r, radii
    )


def translated_rows(big, rows, small, g, mul, inv):
    """[(g.h)(x) = h(g^-1 x) - h(g^-1) for x in small] for each value row h
    over the points big, read through one {point: value} dict per row."""
    ginv = inv(g)
    out = []
    for row in rows:
        h = dict(zip(big, row))
        out.append(tuple(h[mul(ginv, x)] - h[ginv] for x in small))
    return out


# --- Spoke-ray space as a discretized weighted graph -------------------------


def spoke_ray_graph_distance(u, v, *, n_max: int = 14, steps: int = 8) -> Fraction:
    """Dijkstra over a rational discretization of the ray-with-spokes space.

    Vertices: hub, ray points on a 1/steps grid up to n_max + 2, spoke heads
    up to n_max, and spoke interior grid points; edges follow the defining
    segments (hub-head length 1, head-to-ray-point-n spoke of length
    n - 1/2, consecutive ray grid points).  The query points u, v are glued
    into the graph on their own segments, and to each other when one grid
    segment holds both.
    """
    h = Fraction(1, steps)
    nodes = set()
    edges: dict = {}

    def add_edge(p, q, w):
        edges.setdefault(p, []).append((q, w))
        edges.setdefault(q, []).append((p, w))
        nodes.add(p)
        nodes.add(q)

    top = (n_max + 2) * steps
    for k in range(top):
        add_edge(("ray", k * h), ("ray", (k + 1) * h), h)
    for n in range(1, n_max + 1):
        add_edge(("hub",), ("head", n), Fraction(1))
        length = Fraction(2 * n - 1, 2)
        grid = [Fraction(j) * length / (steps) for j in range(steps + 1)]
        prev = ("head", n)
        for s in grid[1:-1]:
            add_edge(prev, ("spoke", n, s), s - (prev[2] if prev[0] == "spoke" else 0))
            prev = ("spoke", n, s)
        add_edge(prev, ("ray", Fraction(n)), length - (prev[2] if prev[0] == "spoke" else 0))
    # identify hub with ray parameter 0
    add_edge(("hub",), ("ray", Fraction(0)), Fraction(0))

    def glue(p):
        # (node, the grid segment it was glued into, or None)
        tag = p[0]
        if tag in ("hub", "head"):
            return p, None
        if tag == "ray":
            t = p[1]
            lo = (t * steps).__floor__() * h
            node = ("ray", t)
            if node in nodes:
                return node, None
            add_edge(node, ("ray", lo), t - lo)
            add_edge(node, ("ray", lo + h), lo + h - t)
            return node, ("ray", lo)
        n, s = p[1], p[2]
        length = Fraction(2 * n - 1, 2)
        grid_step = length / steps
        j = (s / grid_step).__floor__()
        lo = j * grid_step
        node = ("spoke", n, s)
        if node in nodes:
            return node, None
        lo_node = ("head", n) if lo == 0 else ("spoke", n, lo)
        hi = lo + grid_step
        hi_node = ("ray", Fraction(n)) if hi >= length else ("spoke", n, hi)
        add_edge(node, lo_node, s - lo)
        add_edge(node, hi_node, min(hi, length) - s)
        return node, ("spoke", n, j)

    src, seg_u = glue(u)
    dst, seg_v = glue(v)
    if seg_u is not None and seg_u == seg_v:
        add_edge(src, dst, abs(src[-1] - dst[-1]))
    dist = {src: Fraction(0)}
    heap = [(Fraction(0), repr(src), src)]
    while heap:
        d, _, p = heapq.heappop(heap)
        if p == dst:
            return d
        if d > dist[p]:
            continue
        for q, w in edges.get(p, []):
            nd = d + w
            if q not in dist or nd < dist[q]:
                dist[q] = nd
                heapq.heappush(heap, (nd, repr(q), q))
    raise AssertionError(f"no path between {u} and {v}")


def star_tree_distance(u, v) -> Fraction:
    """Path length in the star of intervals [0, n] glued at 0.

    A point is the hub or ("int", n, s), at depth s on branch n.  The
    geodesics from the hub to u and to v share their first min(s, t) when
    both lie on one branch and nothing otherwise, so the tree metric is
    depth(u) + depth(v) - 2 * (shared length).
    """

    def branch_depth(p):
        return (0, Fraction(0)) if p == ("hub",) else (p[1], p[2])

    (m, s), (n, t) = branch_depth(u), branch_depth(v)
    shared = min(s, t) if m == n and m != 0 else Fraction(0)
    return s + t - 2 * shared


# --- pigeonhole limits, one distance call per active witness ------------------


def pigeonhole_reference(space, witnesses, ys, *, budget=4096, tol=1e-9, recur_min=2):
    """Evaluate the pigeonhole limit of the witnesses' point functionals at
    each y in turn, by the per-witness loop: one ``space.distance`` call per
    active witness.  Returns, per y, the outcome (value, stabilized, index,
    residual, used) and the active witness indices after it."""
    recur_min = max(2, recur_min)
    points = []
    for w in witnesses:
        points.append(w)
        if len(points) >= budget:
            break
    x0 = space.base_point
    offsets = [space.distance(x0, w) for w in points]
    active = list(range(len(points)))
    cache = {}

    def choose(vals):
        used = len(vals)
        if space.exact:
            counts = {}
            for v, _ in vals:
                counts[v] = counts.get(v, 0) + 1
            recurring = sorted(v for v, c in counts.items() if c >= recur_min)
            if not recurring:
                return (vals[-1][0], False, vals[-1][1], None, used)
            chosen = recurring[0]
            first = next(i for v, i in vals if v == chosen)
            return (chosen, True, first, None, used)
        # Float: cluster sorted values, breaking at gaps larger than tol/10.
        # A NaN sorts last, as in NumPy; Python's sort would leave it in place.
        ordered = sorted(vals, key=lambda t: (t[0] != t[0], t))
        clusters = [[ordered[0]]]
        for v, i in ordered[1:]:
            if v - clusters[-1][-1][0] <= tol / 10.0:
                clusters[-1].append((v, i))
            else:
                clusters.append([(v, i)])
        recurring = [c for c in clusters if len(c) >= recur_min]
        if not recurring:
            return (vals[-1][0], False, vals[-1][1], None, used)
        cluster = recurring[0]
        # Report the member computed from the deepest witness.
        v, i = max(cluster, key=lambda t: t[1])
        width = cluster[-1][0] - cluster[0][0]
        return (v, True, i, width, used)

    out = []
    for y in ys:
        key = space.point_key(y)
        if key not in cache:
            vals = [(space.distance(y, points[i]) - offsets[i], i) for i in active]
            outcome = choose(vals)
            if outcome[1]:
                chosen = outcome[0]
                if space.exact:
                    active = [i for v, i in vals if v == chosen]
                else:
                    active = [i for v, i in vals if abs(v - chosen) <= tol]
            cache[key] = outcome
        out.append((cache[key], list(active)))
    return out


# --- realized limits, one distance call per witness ---------------------------


def realized_reference(space, witnesses, y, *, budget=100_000, tol=1e-9, stable_window=8):
    """Evaluate the realized limit of the witnesses' point functionals at y
    by the per-witness loop, pulling witnesses one at a time: one
    ``space.distance`` call per witness read.  Returns the outcome (value,
    stabilized, index, residual, used).

    Exact spaces read every witness and report the trailing constant run,
    stabilized when it is at least ``stable_window`` long; float spaces
    stop once two successive changes are both below tol/10."""
    stable_window = max(2, stable_window)
    x0 = space.base_point
    run_value, run_start, run_len = None, 0, 0
    prev, last_diff, small_run = None, None, 0
    k = 0
    for w in itertools.islice(witnesses, max(budget, 1)):
        v = space.distance(y, w) - space.distance(x0, w)
        if space.exact:
            if v == run_value:
                run_len += 1
            else:
                run_value, run_start, run_len = v, k, 1
        else:
            run_start = k
            if prev is not None:
                last_diff = abs(v - prev)
                small_run = small_run + 1 if last_diff < tol / 10.0 else 0
                if small_run >= 2:
                    return (v, True, k, last_diff, k + 1)
        prev = v
        k += 1
    if prev is None:
        raise ValueError("witness sequence is empty")
    if space.exact:
        return (run_value, run_len >= stable_window, run_start, None, k)
    return (prev, False, run_start, last_diff, k)


# --- l1 sphere restriction patterns ------------------------------------------


def lp_zc_value(z, c, p, x) -> float:
    """The (z, c) metric functional of l^p, c >= ||z||_p (Gutierrez, Canad.
    Math. Bull. 2019): (||x - z||_p^p + c^p - ||z||_p^p)^(1/p) - c, in plain
    floats, with x and z zero-padded to one length.  c^p - ||z||_p^p >= 0,
    so it is clamped there where rounding takes it below."""
    n = max(len(x), len(z))
    xs, zs = [*map(float, x), *[0.0] * (n - len(x))], [*map(float, z), *[0.0] * (n - len(z))]
    tail = max(c**p - math.fsum(abs(b) ** p for b in zs), 0.0)
    return (math.fsum(abs(a - b) ** p for a, b in zip(xs, zs)) + tail) ** (1.0 / p) - c


def lp_mu_value(mu, x) -> float:
    """The mu functional of l^p, -sum mu_j x_j; a coordinate that one of
    mu and x lacks is 0, so its term is too."""
    return -math.fsum(m * a for m, a in zip(mu, x))


def l1_sphere(d: int, r: int):
    """All integer vectors with l1 norm exactly r."""
    out = []
    for signs_support in itertools.product(range(-r, r + 1), repeat=d):
        if sum(abs(v) for v in signs_support) == r:
            out.append(signs_support)
    return out


def l1_restrictions(d: int, ball_r: int, sphere_r: int):
    """Deduplicated restriction patterns of h_g to the l1 ball, direct."""
    ball = sorted(
        (p for p in itertools.product(range(-ball_r, ball_r + 1), repeat=d)
         if sum(abs(v) for v in p) <= ball_r),
        key=lambda p: (sum(abs(v) for v in p), p),
    )
    patterns = set()
    for g in l1_sphere(d, sphere_r):
        patterns.add(
            tuple(sum(abs(x - y) for x, y in zip(p, g)) - sphere_r for p in ball)
        )
    return sorted(patterns)


def l1_restrictions_array(d: int, ball_r: int, sphere_r: int):
    """``l1_restrictions`` by NumPy, for spheres too large for its loops: the
    same l1 distances from every g of the sphere, which is enumerated as its
    first d - 1 coordinates (l1 norm at most sphere_r) and a last one of
    either sign making up the rest."""
    ball = sorted(
        (p for p in itertools.product(range(-ball_r, ball_r + 1), repeat=d) if sum(map(abs, p)) <= ball_r),
        key=lambda p: (sum(map(abs, p)), p),
    )
    heads = list(itertools.product(range(-sphere_r, sphere_r + 1), repeat=d - 1))
    head = np.array(heads, np.int64).reshape(len(heads), d - 1)
    last = sphere_r - np.abs(head).sum(axis=1)
    sphere = np.concatenate([np.c_[head, last][last >= 0], np.c_[head, -last][last > 0]])
    B = np.array(ball, np.int64)
    rows = sum(np.abs(sphere[:, None, i] - B[None, :, i]) for i in range(d)) - sphere_r
    return sorted(set(map(tuple, rows.tolist())))


# --- free group tree ends -----------------------------------------------------


def free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def free_words(rank: int, r: int):
    """Every reduced word of length <= r over letters +-1..+-rank."""
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    out = [()]
    frontier = [()]
    for _ in range(r):
        frontier = [w + (x,) for w in frontier for x in letters if not w or w[-1] != -x]
        out.extend(frontier)
    return out


def free_restrictions(rank: int, ball_r: int, sphere_r: int):
    """Deduplicated restriction patterns of h_g, |g| = sphere_r, to the free
    group ball, by brute-force word reduction.  Ball points are in shortlex
    order with letters a < a^-1 < b < b^-1 < ..."""
    ball = sorted(
        free_words(rank, ball_r),
        key=lambda w: (len(w), [2 * abs(x) + (x < 0) for x in w]),
    )
    sphere = [g for g in free_words(rank, sphere_r) if len(g) == sphere_r]
    patterns = {
        tuple(len(free_reduce(tuple(-x for x in reversed(p)) + g)) - sphere_r for p in ball)
        for g in sphere
    }
    return sorted(patterns)


def free_restrictions_array(rank: int, ball_r: int, sphere_r: int):
    """``free_restrictions`` by NumPy, for spheres too large for its loops.
    For each ball point p, every word p^-1 g, g on the sphere, is reduced at
    once by the stack rule of ``free_reduce``: a letter pops the top of its
    row's stack if it is the top's inverse, and is pushed otherwise.  Every
    row starts from the stack of p^-1, which ``free_reduce`` leaves as it is.
    Each row's stack is a slice of one flat array."""
    ball = sorted(
        free_words(rank, ball_r),
        key=lambda w: (len(w), [2 * abs(x) + (x < 0) for x in w]),
    )
    sphere = [g for g in free_words(rank, sphere_r) if len(g) == sphere_r]
    G = np.array(sphere, np.int8).reshape(len(sphere), sphere_r)
    rows = np.empty((len(G), len(ball)), np.int8)
    for k, p in enumerate(ball):
        width = len(p) + sphere_r
        stack = np.zeros((len(G), width), np.int8)
        stack[:, : len(p)] = [-x for x in reversed(p)]
        stack = stack.reshape(-1)
        base = np.arange(len(G)) * width
        top = base + len(p)  # one past the top of each row's stack
        for x in G.T:
            pop = (top > base) & (stack[top - 1] == -x)
            top -= pop
            stack[top] = np.where(pop, 0, x)
            top += ~pop
        rows[:, k] = top - base - sphere_r
    distinct = np.unique(rows.view(f"V{len(ball)}")).view(np.int8).reshape(-1, len(ball))
    return sorted(map(tuple, distinct.tolist()))


def free_end_restrictions(rank: int, ball_r: int, depth: int = 24):
    """Restriction of the end through each word w with |w| = ball_r, taken
    at a deep anchor continuing w by repeating its last letter."""
    ball_pts = sorted(free_words(rank, ball_r), key=lambda w: (len(w), w))
    patterns = set()
    for w in ball_pts:
        if len(w) != ball_r:
            continue
        g = w + (w[-1],) * depth
        glen = len(g)
        patterns.add(
            tuple(
                len(free_reduce(tuple(-x for x in reversed(p)) + g)) - glen
                for p in ball_pts
            )
        )
    return sorted(patterns)


# --- brute-force Lipschitz extensions ----------------------------------------


def integer_grid_extensions(matrix, domain, values, free_idx, grid):
    """All integer-grid assignments on free_idx extending (domain, values)
    1-Lipschitz w.r.t. the given distance matrix."""
    n = len(matrix)
    fixed = dict(zip(domain, values))
    out = []
    for combo in itertools.product(grid, repeat=len(free_idx)):
        assign = dict(fixed)
        assign.update(dict(zip(free_idx, combo)))
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if abs(assign[i] - assign[j]) > matrix[i][j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append([assign[i] for i in range(n)])
    return out


def mcshane_reference(dist, domain, values, targets, mode):
    """McShane's extension at each target b, one pair at a time:
    max_a (f(a) - d(a, b)) in sup mode, min_a (f(a) + d(a, b)) in inf mode.
    ``dist`` is a distance matrix, read entry by entry as Fractions, or a
    callable d(a, b)."""
    d = dist if callable(dist) else (lambda a, b: Fraction(str(dist[a][b])))
    if mode == "sup":
        return [max(v - d(a, b) for a, v in zip(domain, values)) for b in targets]
    return [min(v + d(a, b) for a, v in zip(domain, values)) for b in targets]


def random_rational_metric(rng, n: int, *, integral: bool = False):
    """Random exact metric on n points via shortest-path closure."""
    INF = Fraction(10**9)
    w = [[INF] * n for _ in range(n)]
    for i in range(n):
        w[i][i] = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            if integral:
                val = Fraction(rng.randrange(1, 9))
            else:
                val = Fraction(rng.randrange(1, 25), rng.randrange(1, 5))
            w[i][j] = w[j][i] = val
    for k in range(n):
        for i in range(n):
            wik = w[i][k]
            for j in range(n):
                if wik + w[k][j] < w[i][j]:
                    w[i][j] = wik + w[k][j]
    return w


# --- brute-force metric and Lipschitz checks ----------------------------------


def descriptor_rows(matrix):
    """A finite descriptor's matrix as Fraction(str(v)) reads each entry, in
    row-major order: (rows of Fractions, their least common denominator)."""
    rows = [[Fraction(str(v)) for v in row] for row in matrix]
    return rows, math.lcm(*(v.denominator for row in rows for v in row))


def first_axiom_violation(D, tol=0):
    """First (kind, i, j) where the matrix breaks a metric axiom beyond tol:
    row by row, the diagonal first, then per column a negative entry before
    an asymmetric one."""
    n = len(D)
    for i in range(n):
        if abs(D[i][i]) > tol:
            return ("diagonal", i, i)
        for j in range(n):
            if D[i][j] < 0:
                return ("negative", i, j)
            if abs(D[i][j] - D[j][i]) > tol:
                return ("asymmetric", i, j)
    return None


def first_triangle_violation(D, tol=0, triples=None):
    """Position of the first (i, j, k), k the middle point, with
    D[i][j] > D[i][k] + D[k][j] + tol: over all triples in lexicographic
    order, or over the given triples in their order."""
    order = itertools.product(range(len(D)), repeat=3) if triples is None else triples
    for pos, (i, j, k) in enumerate(order):
        if D[i][j] > D[i][k] + D[k][j] + tol:
            return pos
    return None


def first_lipschitz_violation(V, D, tol=0, pairs=None):
    """First (row, i, j) where a value row fails: a nonzero value at index 0
    (reported as i = j = 0), else the first pair with |v_i - v_j| >
    D[i][j] + tol, over all i < j in row-major order or over the list
    ``pairs`` of (i, j) in its order."""
    for row, v in enumerate(V):
        if v[0] != 0:
            return (row, 0, 0)
        for i, j in itertools.combinations(range(len(v)), 2) if pairs is None else pairs:
            if abs(v[i] - v[j]) > D[i][j] + tol:
                return (row, i, j)
    return None


def kept_pairs(D):
    """The pairs (x, y), x < y, that an exact 1-Lipschitz check of rows
    vanishing at index 0 needs on the integer distance matrix D: those with
    D[x][y] = 1, and those where neither point has a neighbour z (a point
    at distance 1 from it) with D[z][other point] = D[x][y] - 1."""
    n = len(D)

    def closer(x, y):
        return any(D[x][z] == 1 and D[z][y] == D[x][y] - 1 for z in range(n))

    return [(x, y) for x in range(n) for y in range(x + 1, n)
            if D[x][y] == 1 or not (closer(x, y) or closer(y, x))]


def _json_default(o):
    if isinstance(o, Fraction):
        return str(o)  # "p/q", or "p" when integral
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, complex):
        return [o.real, o.imag]
    if hasattr(o, "as_dict"):
        return o.as_dict()
    if dataclasses.is_dataclass(o) and not isinstance(o, type):
        # A field's metadata may leave it out ("skip"), rename it ("key"),
        # or convert a value that is not None whole ("json") or item by item ("each").
        out = {}
        for f in dataclasses.fields(o):
            if f.metadata.get("skip"):
                continue
            value = getattr(o, f.name)
            if value is not None and "json" in f.metadata:
                value = f.metadata["json"](value)
            elif value is not None and "each" in f.metadata:
                value = [f.metadata["each"](item) for item in value]
            out[f.metadata.get("key", f.name)] = value
        return out
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def json_report(obj) -> str:
    """A report as the stdlib's pure-Python encoder writes it: sorted keys,
    a two-space indent, ASCII escapes."""
    return json.dumps(obj, default=_json_default, sort_keys=True, indent=2)
