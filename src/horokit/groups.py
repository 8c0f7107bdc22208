"""Exact group arithmetic and Cayley balls under word metrics.

Supported families: Z^d, free groups, the discrete Heisenberg group, and
finite groups given by a multiplication table.  Elements are plain tuples
(or ints for finite groups) interpreted by a family object, so all
arithmetic is exact and hashable.
"""

from __future__ import annotations

import bisect
import random
import re
from functools import cached_property
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from math import comb, inf, isqrt
from typing import Any, Callable, Hashable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    InvalidParameterError,
    InvalidPointError,
    PreconditionError,
    ResourceLimitError,
)
from .metric import MetricSpace, ball_limit, exact_table, integer_field, list_field

Element = Any

# Free-group letters: generators 1-4 are a-d, generator i >= 5 is x<i>; the
# inverse is the upper-case form.  "e" names the identity and no generator.
_LETTERS = "abcd"
_TOKEN = re.compile(r"e|[a-dA-D]|[xX][1-9][0-9]*")
_WORD = re.compile(f"(?:{_TOKEN.pattern})*")


class GroupFamily(ABC):
    """Element arithmetic for one group, with a canonical element order."""

    name: str

    @abstractmethod
    def identity(self) -> Element:
        ...

    def multiply(self, g: Element, h: Element) -> Element:
        self.check_element(g)
        self.check_element(h)
        return self._mul(g, h)

    def inverse(self, g: Element) -> Element:
        self.check_element(g)
        return self._inv(g)

    @abstractmethod
    def _mul(self, g: Element, h: Element) -> Element:
        """Product without membership validation (internal hot path)."""

    @abstractmethod
    def _inv(self, g: Element) -> Element:
        ...

    @abstractmethod
    def check_element(self, g: Element) -> None:
        """Raise TypeError if ``g`` does not belong to this family."""

    def element_key(self, g: Element):
        """Tie-break key within a sphere; shortlex order is (length, key).
        By default the element itself."""
        return g

    @abstractmethod
    def element_label(self, g: Element) -> str:
        ...

    @abstractmethod
    def standard_generators(self) -> tuple[Element, ...]:
        ...


class ClosedFormFamily(GroupFamily):
    """A family whose word length under its standard generators has a
    closed form, with all that it gives: ball sizes, each B(r) as one
    coordinate array (``CayleyBall.rows``), ``coords`` of any elements,
    the distance kernel on such rows, and the restriction rows of a sphere
    (``sphere_rows``) up to the automorphisms that permute the generators
    (``automorphisms``).  Under its standard generators nothing is searched,
    and no other module reads the coordinate layout."""

    @abstractmethod
    def closed_form_length(self, g: Element) -> int:
        """Exact word length w.r.t. the standard generators."""

    @abstractmethod
    def ball_sizes(self, radius: int, cap: int) -> np.ndarray:
        """min(|B(r)|, cap + 1) for r = 0..radius, without building a ball."""

    @abstractmethod
    def ball_coords(self, radius: int) -> np.ndarray:
        """B(radius) as coordinate rows in shortlex order."""

    def element_label(self, g: Element) -> str:
        """Elements are integer tuples unless a family says otherwise: "(a,b,c)"."""
        return "(" + ",".join(map(str, g)) + ")"

    def row_elements(self, rows: np.ndarray, r: int) -> Iterable[Element]:
        """The element tuples of the coordinate rows of S(r)."""
        return map(tuple, rows.tolist())

    def coords(self, elements: Sequence[Element]) -> np.ndarray:
        """Elements as int64 rows in the layout of ``ball_coords``: their
        entries, padded with 0 to the longest (F_n words; 0 is no letter)."""
        width = max(map(len, elements), default=len(self.identity()))
        rows = [g + (0,) * (width - len(g)) for g in elements]
        return np.array(rows, np.int64).reshape(len(rows), width)

    @abstractmethod
    def sphere_rows(self, X: np.ndarray, r: int, radii: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate rows G, built without any S(R), and a bool table P: the
        h-rows d(x, .) - d(e, .) of G[P[:, t]] over the rows X of B(r), r <=
        radii[t], give exactly the set of S(radii[t]) up to ``automorphisms``,
        taken with their columns permuted by each p."""

    def stable_radius(self, r: int) -> Optional[int]:
        """R0 with the set of S(R0) for every S(R), R >= R0; None: nothing proved."""
        return None

    def automorphisms(self, X: np.ndarray) -> np.ndarray:
        """Index arrays p, one row per automorphism s that permutes the
        generators, the identity first, with X[p] = s(X) on the rows X of
        B(r): s maps B(r) onto itself and h_sg(x) = h_g(s^-1 x), so the rows
        of S(R) are closed under p.  By default the identity alone."""
        return np.arange(len(X))[None]

    @abstractmethod
    def distance_rows(self, X: np.ndarray, G: np.ndarray, dtype) -> np.ndarray:
        """The |G| x |X| ``dtype`` array of d(x, g) = |x^-1 g|, for the
        coordinate rows x of X and g of G, which may be narrower than
        ``dtype`` but must keep every value in range."""


class Zd(ClosedFormFamily):
    """Free abelian group of rank d; elements are integer d-tuples."""

    def __init__(self, dim: int = 1):
        dim = integer_field(dim, "dim")
        if dim < 1:
            raise InvalidParameterError("dimension must be >= 1")
        self.dim = dim
        self.name = f"Z^{dim}" if dim > 1 else "Z"

    def identity(self):
        return (0,) * self.dim

    def _mul(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def _inv(self, g):
        return tuple(-a for a in g)

    def check_element(self, g):
        if not (isinstance(g, tuple) and len(g) == self.dim and all(isinstance(a, int) for a in g)):
            raise TypeError(f"{g!r} is not an element of {self.name}")

    def standard_generators(self):
        return tuple(tuple(s * (i == k) for k in range(self.dim)) for i in range(self.dim) for s in (1, -1))

    def closed_form_length(self, g):
        return sum(abs(a) for a in g)

    def ball_sizes(self, radius, cap):
        # The sums of 2^k C(d, k) C(r, k) over k, each term from the one before,
        # in Python ints where cap or a product (below (2r + 1)^d 2d(r + 1)) could pass int64.
        wide = max(cap, (2 * radius + 1) ** self.dim * 2 * self.dim * (radius + 1)) >> 62
        rs = np.arange(radius + 1).astype(object if wide else np.int64)
        total = term = np.ones_like(rs)
        for k in range(1, min(self.dim, radius) + 1):
            term = term * 2 * (self.dim - k + 1) * (rs - k + 1) // (k * k)
            total = total + term
        return np.minimum(total, cap + 1)

    def ball_coords(self, radius):
        """Coordinate rows (int16, int64 once the radius leaves int16).

        Z^1 is 0, -1, 1, -2, 2, ...  Then S_k(r) is the union over a = -r..r,
        in that order, of {a} x S_(k-1)(r - |a|): one gather per dimension.
        """
        dtype = np.int16 if radius <= np.iinfo(np.int16).max else np.int64
        rs = np.arange(radius + 1)
        X = np.stack([-rs, rs], axis=1).reshape(-1, 1)[1:].astype(dtype)
        sizes = np.where(rs > 0, 2, 1)
        for _ in range(1, self.dim):
            rr = np.repeat(rs, 2 * rs + 1)
            aa = np.arange(len(rr)) - rr * rr - rr  # block (r, a) is number r^2 + r + a
            offsets = np.concatenate([[0], np.cumsum(sizes)])
            sub = rr - np.abs(aa)
            count = sizes[sub]
            ends = np.cumsum(count)
            idx = np.arange(ends[-1]) + np.repeat(offsets[sub] - ends + count, count)
            X = np.concatenate([np.repeat(aa.astype(dtype), count)[:, None], X[idx]], axis=1)
            sizes = np.add.reduceat(count, rs * rs)
        return X

    def sphere_rows(self, X, r, radii):
        """The keys k = clip(g, -r, r) of S(R), R in radii: at most (2r + 1)^d.

        For |x_i| <= r, |x_i - g_i| - |g_i| is -sign(g_i) x_i once |g_i| >= r,
        so h_g = h_k on B(r).  The g with key k have |g| = sum |k_i| plus any
        amount on the coordinates with |k_i| = r, so k occurs on S(R) iff
        sum |k_i| = R, or sum |k_i| < R and some |k_i| = r.  Keys grow one
        coordinate at a time; a prefix of sum <= max(radii) extends to a key.
        """
        K, size, edge = np.zeros((1, 0), X.dtype), np.zeros(1, np.int64), np.zeros(1, bool)
        for _ in range(self.dim):
            w = 2 * (m := np.minimum(r, max(radii) - size)) + 1  # a prefix of sum s takes a = -m..m
            idx = np.repeat(np.arange(len(K)), w)
            a = np.arange(len(idx)) - np.repeat(np.cumsum(w) - m - 1, w)
            K = np.concatenate([K[idx], a[:, None].astype(X.dtype)], axis=1)
            size, edge = size[idx] + (b := np.abs(a)), edge[idx] | (b == r)
        P = (size[:, None] == radii) | ((size[:, None] < radii) & edge[:, None])
        return K[(hit := P.any(axis=1))], P[hit]

    def stable_radius(self, r):
        return self.dim * r

    def distance_rows(self, X, G, dtype):
        """l1 distance of the coordinate rows, one coordinate at a time."""
        return sum(np.abs(np.subtract.outer(g, x, dtype=dtype)) for g, x in zip(G.T, X.T))


class FreeGroup(ClosedFormFamily):
    """Free group of given rank; elements are reduced tuples of nonzero ints.

    Letter +i is the i-th generator, -i its inverse (1-based).
    """

    def __init__(self, rank: int = 2):
        rank = integer_field(rank, "rank")
        if rank < 1:
            raise InvalidParameterError("rank must be >= 1")
        self.rank = rank
        self.name = f"F_{rank}"

    def identity(self):
        return ()

    def _mul(self, g, h):
        out = list(g)
        for x in h:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def _inv(self, g):
        return tuple(-x for x in reversed(g))

    def check_element(self, g):
        if not isinstance(g, tuple):
            raise TypeError(f"{g!r} is not a free group element")
        for i, x in enumerate(g):
            if not isinstance(x, int) or x == 0 or abs(x) > self.rank:
                raise TypeError(f"letter {x!r} outside rank {self.rank}")
            if i and g[i - 1] == -x:
                raise TypeError(f"word {g!r} is not reduced")

    @staticmethod
    def _letter_key(x: int) -> int:
        # order: a < a^-1 < b < b^-1 < ...
        return 2 * (abs(x) - 1) + (0 if x > 0 else 1)

    def element_key(self, g):
        return tuple(self._letter_key(x) for x in g)

    def element_label(self, g):
        if not g:
            return "e"
        return "".join(self._letter_label(x) for x in g)

    @staticmethod
    def _letter_label(x: int) -> str:
        i = abs(x)
        name = _LETTERS[i - 1] if i <= len(_LETTERS) else f"x{i}"
        return name if x > 0 else name.upper()

    def standard_generators(self):
        return tuple((x,) for i in range(1, self.rank + 1) for x in (i, -i))

    def closed_form_length(self, g):
        return len(g)

    def ball_sizes(self, radius, cap):
        if self.rank == 1:
            return Zd(1).ball_sizes(radius, cap)  # F_1 is Z
        q, top = 2 * self.rank - 1, min(radius, cap.bit_length())  # past top, |S(r)| > 2^r > cap
        sizes = [min(1 + (q + 1) * (q**r - 1) // (q - 1), cap + 1) for r in range(top + 1)]
        return np.array(sizes + [cap + 1] * (radius - top))

    def ball_coords(self, radius):
        """Letter rows padded with 0 to the radius (int8, int64 past rank 127).

        Each word of S(r - 1) is followed by its non-cancelling letters in
        key order a < a^-1 < b < ..., so every sphere comes out sorted.
        """
        dtype = np.int8 if self.rank <= np.iinfo(np.int8).max else np.int64
        letters = np.array([x for i in range(1, self.rank + 1) for x in (i, -i)], dtype)
        sizes = [1] + [2 * self.rank * (2 * self.rank - 1) ** (r - 1) for r in range(1, radius + 1)]
        offsets = np.cumsum([0] + sizes)
        coords = np.zeros((offsets[-1], radius), dtype)
        for r in range(1, radius + 1):
            a, b, c = offsets[r - 1 : r + 2]
            last = coords[a:b, r - 2] if r > 1 else np.zeros(1, dtype)
            allowed = letters != -last[:, None]
            children = coords[b:c].reshape(b - a, -1, radius)
            children[:, :, : r - 1] = coords[a:b, None, : r - 1]
            children[:, :, r - 1] = np.broadcast_to(letters, allowed.shape)[allowed].reshape(b - a, -1)
        return coords

    def row_elements(self, rows, r):
        return super().row_elements(rows[:, :r], r)

    def sphere_rows(self, X, r, radii):
        """S(r), the last rows of X, on every sphere.  lcp(x, g) <= |x| <= r,
        so d(x, g) - |g| = |x| - 2 lcp(x, g) over B(r) is also the row of g's
        first r letters, and every word of S(r) begins some word of S(R)
        (repeat its last letter): |S(r)| rows whatever R is."""
        return (G := X if r == 0 else X[X[:, r - 1] != 0]), np.ones((len(G), len(radii)), bool)

    def stable_radius(self, r):
        return r

    def distance_rows(self, X, G, dtype):
        """|x| + |g| - 2 lcp(x, g) on the letter rows, whose padding 0 is
        never a letter.  The lcp counts the columns, of those X and G share,
        where a running AND of equal entries holds: past the end of x only
        padding is equal (x = g), which min(count, |x|) drops."""
        run, lcp = np.ones((len(G), len(X)), bool), np.zeros((len(G), len(X)), dtype)
        for k in range(min(X.shape[1], G.shape[1])):
            run &= G[:, k, None] == X[:, k]
            lcp += run
        size = (X != 0).sum(axis=1, dtype=dtype)
        return size + (G != 0).sum(axis=1, dtype=dtype)[:, None] - 2 * np.minimum(lcp, size)

    def word(self, text: str) -> Element:
        """Parse a label like "abA" or "ax7X12" back into an element."""
        if not _WORD.fullmatch(text):
            raise InvalidPointError(f"{text!r} is not a free group word")
        letters = [(_LETTERS.index(tok.lower()) + 1 if len(tok) == 1 else int(tok[1:])) * (1 if tok[0].islower() else -1)
                   for tok in _TOKEN.findall(text) if tok != "e"]
        return self._mul((), letters)


class _IntOps:
    """The four primitives of ``heisenberg_length`` on Python ints."""

    minimum, maximum, isqrt = min, max, isqrt

    @staticmethod
    def ceil_div(e, d):
        return -(-e // d)


class _ArrayOps:
    """The same primitives elementwise on int32 or int64 arrays, in their dtype."""

    minimum, maximum = np.minimum, np.maximum

    @staticmethod
    def isqrt(e):
        # A float square root is off by at most one below 2^62.
        s = np.sqrt(e).astype(e.dtype)
        s -= s * s > e
        s += (s + 1) * (s + 1) <= e
        return s

    @staticmethod
    def ceil_div(e, d):
        # For e < 2^53 and d >= 1 the float e/d errs by under 1/d, the least gap from e/d to an integer it is not.
        return np.ceil(e / d).astype(e.dtype) if e.max(initial=0) < 1 << 53 else -(-e // d)


def heisenberg_length(a, b, c):
    """Word length of (a, b, c) in H3 under x^+-1, y^+-1 (Blachere 2003).

    Works on Python ints (exact at any size) and elementwise on int64
    arrays (exact while |ab|, |c| < 2^61, with float ceilings while e <
    2^53) or int32 ones (``Heisenberg.distance_rows``).  The automorphisms
    x -> x^-1 and y -> y^-1 map (a, b, c) to (-a, b, -c) and (a, -b, -c),
    so a, b >= 0 after flipping c when the signs differ.  Then e = max(c,
    ab - c) <= ab just when 0 <= c <= ab, of length a + b.  Otherwise e is
    c or ab - c, as c > ab or c < 0 (the inverse with a and b negated is
    (a, b, ab - c)); the length is 2 min{P + Q : P >= a, Q >= b, PQ >= e} - a - b.

    With a <= b, e > ab puts both P = ceil(e/b) (with Q = b) and
    P = isqrt(e) above a.  Past ceil(e/b) the sum P + b only grows, and
    below it the sum is P + ceil(e/P) >= ceil(2 sqrt(e)), which isqrt(e)
    attains, so the minimum is at one of the two.
    """
    ops = _IntOps if isinstance(a, int) else _ArrayOps
    c = c - 2 * c * ((a ^ b) < 0)
    a, b = abs(a), abs(b)
    ab = a * b
    e = ops.maximum(c, ab - c)
    # The clamps at 1 only guard the divisions where e = 0 or a = b = 0.
    hi = ops.maximum(ops.maximum(a, b), 1)
    s = ops.maximum(ops.isqrt(e), 1)
    best = ops.minimum(ops.ceil_div(e, hi) + hi, s + ops.maximum(hi, ops.ceil_div(e, s)))
    return a + b + 2 * (best - a - b) * (e > ab)


class Heisenberg(ClosedFormFamily):
    """Discrete Heisenberg group as integer triples (a, b, c).

    (a, b, c) stands for the upper-triangular matrix [[1, a, c], [0, 1, b],
    [0, 0, 1]]; multiplication follows from the matrix product, and c is
    the area term of the lattice path.
    """

    name = "H3"

    def identity(self):
        return (0, 0, 0)

    def _mul(self, g, h):
        a, b, c = g
        x, y, z = h
        return (a + x, b + y, c + z + a * y)

    def _inv(self, g):
        a, b, c = g
        return (-a, -b, a * b - c)

    def check_element(self, g):
        if not (isinstance(g, tuple) and len(g) == 3 and all(isinstance(v, int) for v in g)):
            raise TypeError(f"{g!r} is not a Heisenberg element")

    def standard_generators(self):
        # x = (1,0,0), y = (0,1,0) and inverses; the commutator [x, y] is
        # the central element z = (0,0,1).
        return ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))

    def closed_form_length(self, g):
        return heisenberg_length(*g)

    def ball_sizes(self, radius, cap):
        # B(r) holds (a, b, c) for a, b >= 0, a + b <= r and 0 <= c <= ab:
        # more than the sum of ab, which is C(r + 2, 4).  Radii below top are
        # counted in one broadcast over the columns with a, b >= 0, each of
        # which stands for 1, 2 or 4 columns of the same length.
        top = next((r for r in range(radius + 1) if comb(r + 2, 4) > cap), radius + 1)
        a, b = self._columns(top - 1)[:2]
        a, b, rs = a[(a >= 0) & (b >= 0)], b[(a >= 0) & (b >= 0)], np.arange(top)[:, None]
        count = np.where(a + b <= rs, 2 * self._reach(a, b, rs) - a * b + 1, 0)
        sizes = (count * ((a > 0) + 1) * ((b > 0) + 1)).sum(axis=1).tolist()
        return np.array([min(n, cap + 1) for n in sizes] + [cap + 1] * (radius + 1 - top))

    @staticmethod
    def _reach(a, b, radius):
        """For a, b >= 0, the length of (a, b, c) is at most radius iff e <= E
        = max{PQ : P >= a, Q >= b, P + Q <= T}, T = (radius + a + b) // 2 (see
        ``heisenberg_length``), so c runs over [ab - E, E] while a + b <= radius.
        E is taken at P = T // 2 clamped to [a, T - b]."""
        T = (radius + a + b) // 2
        P = np.clip(T // 2, a, T - b)
        return P * (T - P)

    @staticmethod
    def _columns(radius: int) -> tuple[np.ndarray, ...]:
        """Every (a, b) with |a| + |b| <= radius, and the c-interval [lo, hi]
        of its column in the ball B(radius): [ab - E, E] for |a| and |b|
        (``_reach``), or [-E, E - ab] when the signs of a and b differ."""
        av = np.arange(-radius, radius + 1)
        span = radius - np.abs(av)
        a = np.repeat(av, 2 * span + 1)
        # b runs over -span..span; the run of av[i] ends at cumsum[i].
        b = np.arange(len(a)) - np.repeat(np.cumsum(2 * span + 1) - span - 1, 2 * span + 1)
        A, B = np.abs(a), np.abs(b)
        E, ab = Heisenberg._reach(A, B, radius), A * B
        flip = (a < 0) ^ (b < 0)
        return a, b, np.where(flip, -E, ab - E), np.where(flip, E - ab, E)

    @staticmethod
    def _runs(a, b, lo, hi) -> np.ndarray:
        """The int64 rows (a, b, c), c = lo..hi, of each column run in turn."""
        count = np.maximum(hi - lo + 1, 0)
        c = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
        return np.stack([np.repeat(a, count), np.repeat(b, count), c], axis=1)

    def ball_coords(self, radius):
        """int64 (a, b, c) rows: every column interval, sorted by
        (length, a, b, c)."""
        rows = self._runs(*self._columns(radius))
        return rows[np.lexsort((*rows.T[::-1], heisenberg_length(*rows.T)))]

    def sphere_rows(self, X, r, radii):
        """B(max radii) less B(min radii - 1) on the sector 0 <= a <= b, which
        meets every orbit of ``automorphisms``, P by each row's length.  In
        each column it is B(max)'s c-interval [ab - E, E] less B(min - 1)'s
        [ab - E', E'], none where a + b >= min radii: two runs."""
        a, b = self._columns(max(radii))[:2]
        a, b = a[(0 <= a) & (a <= b)], b[(0 <= a) & (a <= b)]
        E, E1 = self._reach(a, b, max(radii)), self._reach(a, b, min(radii) - 1)
        cut = np.where(a + b < min(radii), a * b - E1, E + 1)  # where B(min radii - 1) starts, if anywhere
        lo, hi = np.concatenate([a * b - E, np.maximum(E1 + 1, cut)]), np.concatenate([cut - 1, E])
        return (G := self._runs(np.tile(a, 2), np.tile(b, 2), lo, hi)), heisenberg_length(*G.T)[:, None] == radii

    def automorphisms(self, X):
        """The 8 automorphisms that permute x^+-1, y^+-1: (a, b, c) -> (s a,
        t b, s t c), s, t = +-1, after (a, b, c) -> (b, a, ab - c) or not
        (``heisenberg_length`` uses the first kind).  Rows are found by
        their packed (a, b, c), each entry offset by the largest |entry| m;
        one image per row of keys, the identity first."""
        a, b, c = X.T
        m = int(np.abs(X).max(initial=0))
        s, t = np.array([[1, 1, -1, -1] * 2, [1, -1, 1, -1] * 2])[..., None]
        swap = np.arange(8)[:, None] >= 4
        u, v, w = np.where(swap, b, a) * s, np.where(swap, a, b) * t, np.where(swap, a * b - c, c) * s * t
        keys = ((u + m) * (2 * m + 1) + v + m) * (2 * m + 1) + w + m
        order = np.argsort(keys[0])
        return order[np.searchsorted(keys[0], keys, sorter=order)]

    def distance_rows(self, X, G, dtype):
        """``heisenberg_length`` of x^-1 g, in int32 while all entries are below 2^14."""
        # x^-1 g = (g_a - x_a, g_b - x_b, g_c - x_c - x_a (g_b - x_b)).  Entries below 2^14 give
        # |a|, |b| < 2^15, ab < 2^30, |c| < 2^29 + 2^15: 2|c|, e <= ab + |c|, e + max(a, b) and
        # (isqrt(e) + 1)^2, the largest values of heisenberg_length, stay below 2^31 - 2^28.
        wide = max(np.abs(X).max(initial=0), np.abs(G).max(initial=0)) >= 1 << 14
        X, G = (A.astype(np.int64 if wide else np.int32) for A in (X, G))
        db = G[:, 1, None] - X[:, 1]
        return heisenberg_length(G[:, 0, None] - X[:, 0], db, G[:, 2, None] - X[:, 2] - X[:, 0] * db).astype(dtype)

    def central(self, n: int = 1) -> Element:
        return (0, 0, n)


class FiniteGroup(GroupFamily):
    """Finite group from a multiplication table; elements are indices."""

    def __init__(self, table: Sequence[Sequence[int]], generators: Sequence[int] | None = None):
        n = len(list_field(table, "table", rows=True))
        self.table = tuple(tuple(integer_field(v, "table entry") for v in row) for row in table)
        self.n = n
        self.name = f"finite({n})"
        for i, row in enumerate(self.table):
            if len(row) != n or sorted(row) != list(range(n)):
                raise InvalidParameterError(f"row {i} is not a permutation of 0..{n - 1}")
        ident = next((e for e in range(n) if all(self.table[e][j] == j == self.table[j][e] for j in range(n))), None)
        if ident is None:
            raise InvalidParameterError("table has no identity element")
        self._identity = ident
        self._inverses = [row.index(ident) for row in self.table]  # each row is a permutation
        gens = () if generators is None else list_field(generators, "generators")
        self._default_gens = tuple(integer_field(g, "generator") for g in gens)
        for g in self._default_gens:
            if not 0 <= g < n:
                raise InvalidParameterError(f"generator {g} is not an index into a {n}-element group")

    def identity(self):
        return self._identity

    def _mul(self, g, h):
        return self.table[g][h]

    def _inv(self, g):
        return self._inverses[g]

    def check_element(self, g):
        if not isinstance(g, int) or not 0 <= g < self.n:
            raise TypeError(f"{g!r} is not an index into a {self.n}-element group")

    def element_label(self, g):
        return str(g)

    def standard_generators(self):
        if not self._default_gens:
            raise InvalidParameterError("finite group was built without generators")
        closed = set(self._default_gens) | {self._inverses[g] for g in self._default_gens}
        return tuple(sorted(closed))


def cyclic_group(n: int, step: int = 1) -> FiniteGroup:
    """Cyclic group Z/n with generator ``step``."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, generators=[step % n])


@dataclass(frozen=True)
class GeneratingSet:
    """Inverse-closed, identity-free generator list in canonical order."""

    family: GroupFamily
    elements: tuple[Element, ...]

    @classmethod
    def create(cls, family: GroupFamily, elements: Iterable[Element]) -> "GeneratingSet":
        ident = family.identity()
        seen = {}  # each element once, in the order first seen, which the sort keeps on ties
        for g in elements:
            family.check_element(g)
            if g == ident:
                raise InvalidParameterError("generating set must not contain the identity")
            seen[g] = seen[family.inverse(g)] = None
        return cls(family, tuple(sorted(seen, key=family.element_key)))

    @classmethod
    def standard(cls, family: GroupFamily) -> "GeneratingSet":
        gens = cls.create(family, family.standard_generators())
        vars(gens)["is_standard"] = True  # the cached value, so that is_standard forms no second set
        return gens

    @cached_property
    def is_standard(self) -> bool:
        try:
            std = GeneratingSet.standard(self.family)
        except InvalidParameterError:
            return False
        return self.elements == std.elements


@dataclass
class CayleyBall:
    """The radius-R ball of a Cayley graph, in canonical (shortlex) order.

    ``space`` is the ``CayleyGraphSpace`` that built the ball: its distances,
    ``points()`` and ``check_point`` continue the same search.
    ``sphere_offsets[r]`` is the index where sphere S(r) starts: the one
    record of word lengths of the ball.  Under the space's ``closed`` form
    each B(r) is ``rows(r)``, the family's ``ball_coords(r)`` (row i for
    element i); ``sphere``, ``ball`` and ``elements`` decode rows on demand.
    ``rows``, ``ball`` and ``labels`` build each B(r) once per ball, and only
    for r <= radius.  The boundary reads B(r) alone: each family's
    ``sphere_rows`` stands in for S(R), so no boundary computation builds
    ``rows(radius)`` or ``elements``.  Searched balls (non-standard
    generators, finite groups) keep their ``elements``, and ``rows`` is None.
    """

    space: CayleyGraphSpace
    radius: int
    sphere_offsets: tuple[int, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def once(self, what: Hashable, r: int, build: Callable[[], Any]):
        """``build()``, kept under (what, r): the ball's per-radius memo; r
        past the radius raises first."""
        if not 0 <= r <= self.radius:
            raise PreconditionError(f"ball radius {r} outside ball of radius {self.radius}")
        if (what, r) not in self._memo:
            self._memo[what, r] = build()
        return self._memo[what, r]

    def rows(self, r: int) -> Optional[np.ndarray]:
        """B(r) as the family's ``ball_coords(r)`` rows; None on a searched ball."""
        return self.once("rows", r, lambda: self.space.family.ball_coords(r) if self.space.closed else None)

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """The whole ball, decoded from ``rows(radius)`` when first read."""
        return self.ball(self.radius)

    def sphere(self, r: int) -> tuple[Element, ...]:
        if not 0 <= r <= self.radius:
            raise PreconditionError(f"sphere radius {r} outside ball of radius {self.radius}")
        return self._decode(r, r)

    def ball(self, r: int) -> tuple[Element, ...]:
        return self.once("ball", r, lambda: self._decode(0, r))

    def labels(self, r: int) -> tuple[str, ...]:
        """The ``element_label`` of each point of ``ball(r)``."""
        return self.once("labels", r, lambda: tuple(map(self.space.family.element_label, self.ball(r))))

    def _decode(self, lo: int, hi: int) -> tuple[Element, ...]:
        """S(lo) to S(hi), from a search's ``elements`` or decoded from
        ``rows(hi)`` (a ball) or ``rows(radius)`` (a sphere)."""
        at = self.sphere_offsets
        rows = self.rows(hi if lo == 0 else self.radius)
        if rows is None:
            return self.elements[at[lo] : at[hi + 1]]
        decode = self.space.family.row_elements
        return tuple(g for r in range(lo, hi + 1) for g in decode(rows[at[r] : at[r + 1]], r))


def cayley_ball(
    family: GroupFamily,
    gens: GeneratingSet,
    radius: int,
) -> CayleyBall:
    """``CayleyGraphSpace(gens.family, gens).ball(radius)``: ``family`` is
    that of ``gens``, or another instance of the same group, and the ball
    keeps the new space as its ``space``."""
    return CayleyGraphSpace(gens.family, gens).ball(radius)


def word_length(
    family: GroupFamily,
    gens: GeneratingSet,
    g: Element,
    bound: int,
    *,
    space: CayleyGraphSpace | None = None,
) -> Optional[int]:
    """Word length of ``g`` w.r.t. ``gens`` if <= bound, else None.

    ``g`` is not checked (callers use ``family.check_element``), and
    ``family`` is that of ``gens`` or another instance of it.  ``space`` (a
    new ``CayleyGraphSpace`` of ``gens`` if None) answers from the family's
    closed form or its search; an unreached element gives None.
    """
    if space is None:
        space = CayleyGraphSpace(gens.family, gens)
    return space.length(g, bound)


class CayleyGraphSpace(MetricSpace):
    """A group with a word metric, as a discrete exact metric space, and the
    one breadth-first search of the package: the ball around the identity,
    grown sphere by sphere as callers need it.

    ``layers[r]`` is S(r) in discovery order, empty past the reach of a
    finite group.  ``ball`` grows the search to a radius, and the same search
    answers every word-length query, from the closed form when ``closed``
    (a ``ClosedFormFamily`` under its standard generators, decided once).
    ``cap`` is the ``ball_limit`` when the space is built.
    """

    distance_bound = 4096  # longest word length a search looks for; closed forms have none
    kernel_range = 1 << 20  # distance_block's kernels read element entries below this

    def __init__(
        self,
        family: GroupFamily,
        gens: GeneratingSet | None = None,
    ):
        self.family = family
        self.gens = gens if gens is not None else GeneratingSet.standard(family)
        if self.gens.family is not family:
            raise InvalidParameterError("generating set belongs to a different family")
        self.closed = isinstance(family, ClosedFormFamily) and self.gens.is_standard
        self.cap = ball_limit()
        self._dist: dict[Element, int] = {family.identity(): 0}
        self.layers: list[list[Element]] = [[family.identity()]]

    def grow(self, radius: int) -> None:
        """Grow the search to ``radius``, one whole sphere at a time.

        Each new sphere is collected apart and kept only once it fits under
        the limit, so a grow that raises leaves the search as it was, and
        every retry raises the same error."""
        while len(self.layers) <= radius:
            r = len(self.layers)
            nxt: dict[Element, int] = {}  # S(r) in discovery order
            for g in self.layers[-1]:
                for s in self.gens.elements:
                    h = self.family._mul(g, s)
                    if h not in self._dist and h not in nxt:
                        nxt[h] = r
                        if len(self._dist) + len(nxt) > self.cap:
                            raise ResourceLimitError(
                                f"ball size exceeded limit {self.cap}", radius_reached=r - 1
                            )
            self._dist.update(nxt)
            self.layers.append(list(nxt))

    def length(self, g: Element, bound: int) -> Optional[int]:
        """Exact word length of the unchecked ``g`` if <= bound, else None."""
        if bound < 0:
            raise PreconditionError("bound must be >= 0")
        if self.closed:
            n = self.family.closed_form_length(g)
        else:
            while g not in self._dist and len(self.layers) <= bound and self.layers[-1]:
                self.grow(len(self.layers))
            n = self._dist.get(g)
        return n if n is not None and n <= bound else None

    def ball(self, radius: int) -> CayleyBall:
        """B(radius) with exact word lengths, in shortlex order, keeping this
        space as its ``space``.

        Under ``closed`` the family's ``ball_sizes`` are checked against the
        ball limit first, and give ``sphere_offsets`` without a search; the
        ball's ``rows`` are built only when read.  Otherwise the search grows
        to the radius (it may already reach further), and each of its
        spheres up to the radius is sorted by ``element_key``; the ball keeps
        the elements.  One over the limit raises
        ``ResourceLimitError("ball size exceeded limit N")`` with the last
        radius that fits.
        """
        if radius < 0:
            raise PreconditionError("radius must be >= 0")
        if not self.closed:
            self.grow(radius)
            layers = [sorted(layer, key=self.family.element_key) for layer in self.layers[: radius + 1]]
            ball = CayleyBall(self, radius, tuple(np.cumsum([0, *map(len, layers)]).tolist()))
            ball.elements = tuple(g for layer in layers for g in layer)
            return ball
        sizes = self.family.ball_sizes(min(radius, self.cap), self.cap).tolist()  # |B(r)| > r: B(cap) is over
        if sizes[-1] > self.cap:
            fits = bisect.bisect_right(sizes, self.cap) - 1
            raise ResourceLimitError(f"ball size exceeded limit {self.cap}", radius_reached=fits)
        return CayleyBall(self, radius, (0, *sizes))

    def _length(self, g: Element) -> int:
        n = word_length(self.family, self.gens, g, inf if self.closed else self.distance_bound, space=self)
        if n is None:
            raise ResourceLimitError(f"word length exceeds distance bound {self.distance_bound}")
        return n

    def distance(self, p: Element, q: Element) -> int:
        self.check_point(p)
        self.check_point(q)
        return self._length(self.family._mul(self.family._inv(p), q))

    def distance_block(self, points: Sequence[Element]) -> Callable:
        """Under a closed form, the family's ``distance_rows`` on its int64
        ``coords``, while element entries stay below ``kernel_range``: far
        inside the range where each kernel is exact (``heisenberg_length``:
        |ab|, |c| < 2^61).  Past it, and on searches, each entry is one
        |y^-1 x| from the space's one search.  Each point is checked with
        ``check_point`` once, as ``distance`` checks it."""
        for p in points:
            self.check_point(p)
        fam = self.family

        def fits(elements: Sequence[Element]) -> bool:
            return all(-self.kernel_range < v < self.kernel_range for g in elements for v in g)

        X = fam.coords(points) if self.closed and fits(points) else None

        def block(ys: Sequence[Element], idx: np.ndarray) -> tuple[np.ndarray, int]:
            for y in ys:
                self.check_point(y)
            if X is not None and fits(ys):
                return fam.distance_rows(X[idx], fam.coords(ys), np.int64), 1
            xs = [points[i] for i in idx.tolist()]
            rows = [[self._length(fam._mul(yinv, x)) for x in xs] for yinv in map(fam._inv, ys)]
            return exact_table(rows)[0].reshape(len(ys), len(xs)), 1

        return block

    @property
    def base_point(self) -> Element:
        return self.family.identity()

    def check_point(self, p) -> None:
        try:
            self.family.check_element(p)
        except TypeError as exc:
            raise InvalidPointError(str(exc)) from exc
        if isinstance(self.family, FiniteGroup) and self.length(p, self.family.n) is None:
            raise InvalidPointError(f"{p!r} is not reached by the generators")

    def point_label(self, p) -> str:
        return self.family.element_label(p)

    def point_key(self, p):
        self.check_point(p)
        return (self._length(p), self.family.element_key(p))

    def points(self) -> Optional[list]:
        """Every element a finite group's generators reach, in shortlex
        order, from the space's own search."""
        if not isinstance(self.family, FiniteGroup):
            return None
        return list(self.ball(self.family.n).elements)

    def sample_points(self, rng: random.Random, count: int) -> list:
        out = []
        gens = self.gens.elements
        for _ in range(count):
            g = self.family.identity()
            for _ in range(rng.randrange(0, 9)):
                g = self.family.multiply(g, gens[rng.randrange(len(gens))])
            out.append(g)
        return out
