import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from horokit.boundary import limit_restrictions
from horokit.dynamics import group_translation, translation_number
from horokit.errors import InvalidParameterError, InvalidPointError, PreconditionError, ResourceLimitError
from horokit.functionals import functional_norm_estimate
from horokit.groups import (
    CayleyGraphSpace,
    FiniteGroup,
    FreeGroup,
    GeneratingSet,
    Heisenberg,
    Zd,
    cayley_ball,
    cyclic_group,
    heisenberg_length,
    word_length,
)
from horokit.metric import validate_metric

from oracles import (
    bfs_ball,
    free_reduce,
    free_sphere_count,
    h3_lengths_by_area,
    heis_matmul,
    heis_matrix,
    heis_mul,
    heis_triple,
    zd_sphere_count,
)

H3_GENS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))

# Frozen from the independent matrix-BFS oracle (see test below).
HEISENBERG_CENTRAL_LENGTHS = [0, 4, 6, 8, 8, 10, 10, 12, 12, 12, 14, 14, 14, 16, 16, 16, 16]


def test_zd_multiply():
    z2 = Zd(2)
    assert z2.multiply((3, 4), (-1, 2)) == (2, 6)


def test_free_reduction():
    f2 = FreeGroup(2)
    ab = f2.word("ab")
    Ba = f2.word("Ba")
    assert f2.multiply(ab, Ba) == f2.word("aa")


def test_heisenberg_commutator_is_central():
    h = Heisenberg()
    x, y = (1, 0, 0), (0, 1, 0)
    comm = h.multiply(h.multiply(x, y), h.multiply(h.inverse(x), h.inverse(y)))
    assert comm == h.central(1)
    # against the defining representation
    mx, my = heis_matrix(1, 0, 0), heis_matrix(0, 1, 0)
    minv = heis_matrix(-1, 0, 0)
    myinv = heis_matrix(0, -1, 0)
    oracle = heis_triple(heis_matmul(heis_matmul(mx, my), heis_matmul(minv, myinv)))
    assert comm == oracle


@given(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
)
def test_heisenberg_matches_matrix_representation(g, h):
    fam = Heisenberg()
    assert fam.multiply(g, h) == heis_triple(heis_matmul(heis_matrix(*g), heis_matrix(*h)))
    assert heis_mul(g, h) == fam.multiply(g, h)
    assert fam.multiply(g, fam.inverse(g)) == (0, 0, 0)


@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12),
       st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12))
def test_free_multiplication_is_reduction(wa, wb):
    f2 = FreeGroup(2)
    a = free_reduce(tuple(wa))
    b = free_reduce(tuple(wb))
    assert f2.multiply(a, b) == free_reduce(a + b)
    assert f2.multiply(a, f2.inverse(a)) == ()


def test_family_mismatch_raises_type_error():
    with pytest.raises(TypeError):
        Zd(2).multiply((1, 0), (1,))
    with pytest.raises(TypeError):
        FreeGroup(2).multiply((3,), ())


def test_generating_set_rejects_identity():
    z = Zd(1)
    with pytest.raises(InvalidParameterError):
        GeneratingSet.create(z, [(0,), (1,)])


def test_generating_set_closes_inverses():
    z = Zd(1)
    gens = GeneratingSet.create(z, [(1,)])
    assert gens.elements == ((-1,), (1,))


class _Eq(tuple):
    """A Z^d element that counts the == tests made on it."""

    calls = 0

    def __eq__(self, other):
        _Eq.calls += 1
        return tuple.__eq__(self, other)

    __hash__ = tuple.__hash__


class _CountedZd(Zd):
    def identity(self):
        return _Eq(super().identity())

    def _inv(self, g):
        return _Eq(super()._inv(g))

    def standard_generators(self):
        return tuple(map(_Eq, super().standard_generators()))


class _Tied(Zd):
    """Z, with every element on one key and ints as elements."""

    def __init__(self):
        super().__init__(1)

    def identity(self):
        return 0

    def _inv(self, g):
        return -g

    def check_element(self, g):
        pass

    def element_key(self, g):
        return 0


def test_generating_sets_dedup_in_linear_time():
    # Each generator and its inverse is one dict entry, so the == tests grow
    # linearly in d, where a list scan made about (2d)^2 / 2 of them; and the
    # Cayley graph of the standard set forms it once, not again for is_standard.
    d = 200
    _Eq.calls = 0
    space = CayleyGraphSpace(_CountedZd(d))
    assert _Eq.calls <= 6 * d
    assert space.closed and space.gens.elements == tuple(sorted(Zd(d).standard_generators()))
    # Order is kept for elements that tie on element_key: first seen first.
    tied = GeneratingSet.create(_Tied(), [3, 1, 2])
    assert tied.elements == (3, -3, 1, -1, 2, -2)


def _sphere_sizes(ball):
    return np.diff(ball.sphere_offsets).tolist()


def test_cayley_ball_sphere_sizes():
    z1 = Zd(1)
    assert _sphere_sizes(cayley_ball(z1, GeneratingSet.standard(z1), 3)) == [1, 2, 2, 2]
    f2 = FreeGroup(2)
    ball = cayley_ball(f2, GeneratingSet.standard(f2), 2)
    assert _sphere_sizes(ball) == [len(ball.sphere(r)) for r in range(3)] == [1, 4, 12]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_zd_sphere_sizes_match_closed_form(d):
    fam = Zd(d)
    ball = cayley_ball(fam, GeneratingSet.standard(fam), 10)
    for r, size in enumerate(_sphere_sizes(ball)):
        assert size == zd_sphere_count(d, r)


@pytest.mark.parametrize("rank", [2, 3])
def test_free_sphere_sizes_match_closed_form(rank):
    fam = FreeGroup(rank)
    ball = cayley_ball(fam, GeneratingSet.standard(fam), 8 if rank == 2 else 6)
    for r, size in enumerate(_sphere_sizes(ball)):
        assert size == free_sphere_count(rank, r)


def test_heisenberg_sphere_sizes_regression():
    # frozen from the BFS oracle
    fam = Heisenberg()
    ball = cayley_ball(fam, GeneratingSet.standard(fam), 5)
    assert _sphere_sizes(ball) == [1, 4, 12, 36, 82, 164]


def test_heisenberg_ball_matches_plain_bfs():
    fam = Heisenberg()
    ball = cayley_ball(fam, GeneratingSet.standard(fam), 5)
    oracle = bfs_ball(fam.identity(), fam.standard_generators(), fam._mul, 5)
    assert len(ball.elements) == len(oracle)
    for r in range(ball.radius + 1):
        for g in ball.sphere(r):
            assert oracle[g] == r


def test_ball_edges_shift_length_by_at_most_one():
    # A generator step changes word length by at most one: every edge of
    # the Cayley graph that stays inside the ball joins lengths r and r' with
    # |r - r'| <= 1.
    fam = Heisenberg()
    ball = cayley_ball(fam, GeneratingSet.standard(fam), 4)
    lengths = {g: r for r in range(ball.radius + 1) for g in ball.sphere(r)}
    for g, length in lengths.items():
        for s in ball.space.gens.elements:
            h = fam._mul(g, s)
            if h in lengths:
                assert abs(lengths[h] - length) <= 1


def test_ball_resource_limit_reports_radius(monkeypatch):
    f2 = FreeGroup(2)
    monkeypatch.setenv("HOROKIT_MAX_BALL", "50")
    with pytest.raises(ResourceLimitError) as exc:
        cayley_ball(f2, GeneratingSet.standard(f2), 10)
    assert exc.value.radius_reached is not None


def _zd_oracle(d):
    units = [tuple(sign * (i == k) for k in range(d)) for i in range(d) for sign in (1, -1)]
    return (0,) * d, units, lambda g, s: tuple(a + b for a, b in zip(g, s)), lambda g: g


def _free_oracle(rank):
    letters = [(x,) for i in range(1, rank + 1) for x in (i, -i)]
    # shortlex letter order a < a^-1 < b < b^-1 < ...
    return (), letters, lambda g, s: free_reduce(g + s), lambda g: [2 * abs(x) + (x < 0) for x in g]


def _oracle(fam):
    if isinstance(fam, Zd):
        return _zd_oracle(fam.dim)
    if isinstance(fam, FreeGroup):
        return _free_oracle(fam.rank)
    return (0, 0, 0), H3_GENS, heis_mul, lambda g: g


BALL_CASES = [(Zd(d), R) for d, radii in [(1, (0, 1, 9)), (2, (0, 1, 2, 7)), (3, (0, 3, 5)),
                                          (4, (0, 2, 4)), (5, (0, 1, 3))] for R in radii]
BALL_CASES += [(FreeGroup(n), R) for n, radii in [(1, (0, 1, 8)), (2, (0, 1, 2, 6)), (3, (0, 3, 4)),
                                                  (4, (0, 1, 3)), (128, (2,))] for R in radii]
BALL_CASES += [(Heisenberg(), R) for R in range(11)]


@pytest.mark.parametrize("fam,R", BALL_CASES, ids=lambda c: getattr(c, "name", c))
def test_closed_form_ball_matches_plain_bfs(fam, R):
    ident, gens, mul, key = _oracle(fam)
    dist = bfs_ball(ident, gens, mul, R)
    order = sorted(dist, key=lambda g: (dist[g], key(g)))
    ball = cayley_ball(fam, GeneratingSet.standard(fam), R)
    assert "elements" not in vars(ball)  # the ball is its rows until read
    assert ball.elements == tuple(order)
    assert [r for r, size in enumerate(_sphere_sizes(ball)) for _ in range(size)] == [
        dist[g] for g in order
    ]
    assert ball.sphere_offsets == tuple(
        sum(1 for g in order if dist[g] < r) for r in range(R + 2)
    )
    assert {g: i for i, g in enumerate(ball.elements)} == {g: i for i, g in enumerate(order)}
    assert all(type(a) is int for g in ball.elements for a in g)
    # sphere and ball decode their own rows; S(0) is (ident,), () on F_n
    for r in range(R + 1):
        inside = [g for g in order if dist[g] <= r]
        assert ball.sphere(r) == tuple(g for g in inside if dist[g] == r)
        assert ball.ball(r) == tuple(inside)
    assert ball.sphere(0) == (ident,)
    # rows(R) holds the same elements, letters padded with 0 on free groups
    width = R if isinstance(fam, FreeGroup) else len(ident)
    assert ball.rows(R).tolist() == [list(g) + [0] * (width - len(g)) for g in order]


@pytest.mark.parametrize("fam", [Zd(2), FreeGroup(2), Heisenberg()], ids=lambda f: f.name)
def test_rows_are_built_once_per_radius_and_prefix_coords(fam, monkeypatch):
    # rows(r) is the family's ball_coords(r): the shortlex prefix B(r) of
    # rows(R), narrower on F_n by the zero padding past r letters.
    R = 5
    ball = cayley_ball(fam, GeneratingSet.standard(fam), R)
    for r in range(R + 1):
        X, n, full = ball.rows(r), ball.sphere_offsets[r + 1], ball.rows(R)
        assert ball.rows(r) is X
        assert X.dtype == full.dtype
        assert np.array_equal(X, full[:n, : X.shape[1]])
        assert not full[:n, X.shape[1] :].any()
        assert ball.labels(r) == tuple(fam.element_label(g) for g in ball.ball(r))
    built = []
    monkeypatch.setattr(type(fam), "ball_coords", lambda self, radius: built.append(radius))
    with pytest.raises(PreconditionError, match="outside ball of radius 5"):
        ball.rows(R + 1)
    with pytest.raises(PreconditionError, match="outside ball of radius 5"):
        cayley_ball(fam, GeneratingSet.standard(fam), R).rows(R + 1)
    assert built == []


def _sizes(fam, R):
    if isinstance(fam, Heisenberg):
        dist = bfs_ball((0, 0, 0), H3_GENS, heis_mul, R)
        return [sum(1 for d in dist.values() if d <= r) for r in range(R + 1)]
    count = zd_sphere_count if isinstance(fam, Zd) else free_sphere_count
    param = fam.dim if isinstance(fam, Zd) else fam.rank
    return [sum(count(param, k) for k in range(r + 1)) for r in range(R + 1)]


@pytest.mark.parametrize("fam", [Zd(1), Zd(2), Zd(3), FreeGroup(1), FreeGroup(2), FreeGroup(3),
                                 Heisenberg()], ids=lambda f: f.name)
def test_closed_form_ball_limit_inside_a_sphere(fam, monkeypatch):
    gens = GeneratingSet.standard(fam)
    size = _sizes(fam, 4)
    # limits that fall inside S(3): B(2) fits, B(3) does not
    for limit in (size[2] + 1, size[3] - 1):
        monkeypatch.setenv("HOROKIT_MAX_BALL", str(limit))
        with pytest.raises(ResourceLimitError, match=f"^ball size exceeded limit {limit}$") as exc:
            cayley_ball(fam, gens, 4)
        assert exc.value.radius_reached == 2
    monkeypatch.setenv("HOROKIT_MAX_BALL", str(size[3]))
    assert len(cayley_ball(fam, gens, 3).elements) == size[3]


@pytest.mark.parametrize("fam", [Zd(1), Zd(2), Zd(6), FreeGroup(1), FreeGroup(2), FreeGroup(200),
                                 Heisenberg()], ids=lambda f: f.name)
def test_closed_form_ball_limit_checked_before_building(fam, monkeypatch):
    # B(10^9) would need far more than the memory of any machine.
    gens = GeneratingSet.standard(fam)
    monkeypatch.setenv("HOROKIT_MAX_BALL", "1000")
    with pytest.raises(ResourceLimitError, match="^ball size exceeded limit 1000$") as exc:
        cayley_ball(fam, gens, 10**9)
    size = _sizes(fam, exc.value.radius_reached + 1)
    assert size[-2] <= 1000 < size[-1]


# S3 as permutations of (0, 1, 2), indexed in lexicographic order; the
# product p.q applies q first.
S3_PERMS = sorted(itertools.permutations(range(3)))
S3_TABLE = [[S3_PERMS.index(tuple(p[i] for i in q)) for q in S3_PERMS] for p in S3_PERMS]


def _table_case(table, gens, name):
    """A finite group with its own closure of gens under inverses."""
    n = len(table)
    inv = {g: next(h for h in range(n) if table[g][h] == 0) for g in range(n)}
    closed = sorted(set(gens) | {inv[g] for g in gens})
    return name, FiniteGroup(table, generators=gens), 0, closed, lambda g, s: table[g][s]


def _cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


# (name, family, identity, inverse-closed generators, multiply) for the
# generating sets with no closed form, which cayley_ball reaches by search.
SEARCH_CASES = [
    ("Z^2{x,y,xy}", Zd(2), (0, 0), [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)],
     lambda g, s: (g[0] + s[0], g[1] + s[1])),
    ("H3{x,y,xy}", Heisenberg(), (0, 0, 0),
     [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 0), (-1, -1, 1)], heis_mul),
    _table_case(_cyclic_table(12), [1], "C12"),
    _table_case(_cyclic_table(12), [5], "C12{5}"),
    _table_case(S3_TABLE, [1, 2], "S3"),
    _table_case(_cyclic_table(12), [3], "C12{3}"),  # generates only {0, 3, 6, 9}
]


@pytest.mark.parametrize("R", [0, 1, 2, 4, 7])
@pytest.mark.parametrize("case", SEARCH_CASES, ids=lambda c: c[0])
def test_search_ball_matches_plain_bfs(case, R):
    _, fam, ident, gens, mul = case
    dist = bfs_ball(ident, gens, mul, R)
    order = sorted(dist, key=lambda g: (dist[g], g))
    ball = cayley_ball(fam, GeneratingSet.create(fam, gens), R)
    assert ball.rows(R) is None
    assert ball.elements == tuple(order)
    assert [r for r, size in enumerate(_sphere_sizes(ball)) for _ in range(size)] == [
        dist[g] for g in order
    ]
    assert ball.sphere_offsets == tuple(
        sum(1 for g in order if dist[g] < r) for r in range(R + 2)
    )
    assert {g: i for i, g in enumerate(ball.elements)} == {g: i for i, g in enumerate(order)}


@pytest.mark.parametrize("case", SEARCH_CASES, ids=lambda c: c[0])
def test_search_ball_limit_inside_a_sphere(case, monkeypatch):
    _, fam, ident, gens, mul = case
    dist = bfs_ball(ident, gens, mul, 3)
    size = [sum(1 for d in dist.values() if d <= r) for r in range(4)]
    gset = GeneratingSet.create(fam, gens)
    # every limit that B(2) fits and B(3) does not
    for limit in range(size[2], size[3]):
        monkeypatch.setenv("HOROKIT_MAX_BALL", str(limit))
        with pytest.raises(ResourceLimitError, match=f"^ball size exceeded limit {limit}$") as exc:
            cayley_ball(fam, gset, 4)
        assert exc.value.radius_reached == 2
    monkeypatch.setenv("HOROKIT_MAX_BALL", str(size[3]))
    assert len(cayley_ball(fam, gset, 3).elements) == size[3]


@pytest.mark.parametrize("case", [c for c in SEARCH_CASES if isinstance(c[1], FiniteGroup)],
                         ids=lambda c: c[0])
def test_finite_word_length_of_every_element(case):
    _, fam, ident, gens, mul = case
    dist = bfs_ball(ident, gens, mul, fam.n)
    gset = GeneratingSet.create(fam, gens)
    for g in range(fam.n):
        assert word_length(fam, gset, g, fam.n) == dist.get(g), g
        if dist.get(g):
            assert word_length(fam, gset, g, dist[g] - 1) is None, g


@pytest.fixture(scope="module")
def h3_matrix_lengths():
    """{(a, b, c): word length} over B(12), by BFS on the 3x3 matrices."""
    dist = bfs_ball(heis_matrix(0, 0, 0), [heis_matrix(*g) for g in H3_GENS], heis_matmul, 12)
    return {heis_triple(m): d for m, d in dist.items()}


def _columns(elements):
    return [np.array(col, dtype=np.int64) for col in zip(*elements)]


def test_heisenberg_length_matches_plain_bfs(h3_matrix_lengths):
    fam, gens = Heisenberg(), GeneratingSet.standard(Heisenberg())
    for g, d in h3_matrix_lengths.items():
        assert heisenberg_length(*g) == d, g
        assert word_length(fam, gens, g, 100) == d, g
    got = heisenberg_length(*_columns(h3_matrix_lengths))
    assert got.tolist() == list(h3_matrix_lengths.values())
    # No other box element has length <= 12 (the box holds B(12) with room).
    assert max(abs(v) for g in h3_matrix_lengths for v in g) <= 36
    a, b, c = np.meshgrid(np.arange(-13, 14), np.arange(-13, 14), np.arange(-150, 151), indexing="ij")
    assert (heisenberg_length(a.ravel(), b.ravel(), c.ravel()) <= 12).sum() == len(h3_matrix_lengths)


def test_heisenberg_length_on_seeded_far_elements():
    rng = random.Random(2003)
    dist = bfs_ball((0, 0, 0), H3_GENS, heis_mul, 20)
    far = rng.sample(sorted(g for g, d in dist.items() if d >= 13), 400)
    assert [heisenberg_length(*g) for g in far] == [dist[g] for g in far]
    assert heisenberg_length(*_columns(far)).tolist() == [dist[g] for g in far]
    # Farther still, against the lattice-path area oracle, itself checked on B(20).
    assert h3_lengths_by_area(list(dist), 20) == dist
    far = [(rng.randint(-25, 25), rng.randint(-25, 25), rng.randint(-300, 300)) for _ in range(300)]
    want = h3_lengths_by_area(far, 72)
    assert None not in want.values()
    assert [heisenberg_length(*g) for g in far] == [want[g] for g in far]
    assert heisenberg_length(*_columns(far)).tolist() == [want[g] for g in far]


def _brute_length(a, b, c):
    """a, b >= 0: the length formula with the minimum taken over every P."""
    if 0 <= c <= a * b:
        return a + b
    e = c if c > a * b else a * b - c
    return 2 * min(P + max(b, -(-e // P)) for P in range(max(a, 1), max(a, e) + 2)) - a - b


@given(
    st.integers(0, 40),
    st.integers(0, 40),
    st.sampled_from(("zero", "ab", "aa", "bb", "any")),
    st.integers(-3, 3),
    st.integers(-2000, 2000),
)
def test_heisenberg_length_min_search_matches_brute_force(a, b, near, offset, anywhere):
    c = {"zero": 0, "ab": a * b, "aa": a * a, "bb": b * b, "any": anywhere}[near] + offset
    want = _brute_length(a, b, c)
    # every sign combination, through x -> x^-1 and y -> y^-1
    images = [(a, b, c), (-a, b, -c), (a, -b, -c), (-a, -b, c)]
    assert [heisenberg_length(*g) for g in images] == [want] * 4
    assert heisenberg_length(*_columns(images)).tolist() == [want] * 4


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(-10**12, 10**12))
def test_heisenberg_length_scalar_and_array_agree(a, b, c):
    n = heisenberg_length(a, b, c)
    assert type(n) is int
    assert n >= abs(a) + abs(b) and (n - a - b) % 2 == 0
    assert heisenberg_length(*_columns([(a, b, c)])).tolist() == [n]


@given(st.integers(1, 2**30), st.integers(-1, 1), st.integers(0, 3))
def test_heisenberg_length_near_large_squares(m, offset, a):
    # A float square root of e can be off by one near m^2 at this size.
    g = (a, a, a * a + m * m + offset)
    assert heisenberg_length(*_columns([g])).tolist() == [heisenberg_length(*g)]


@pytest.mark.parametrize("c", [2**53 - 1, 2**53, 2**53 + 2**13 + 1])
def test_heisenberg_length_across_the_float_ceiling_edge(c):
    # e = c near 2^53, and the length is 2 ceil(e/b) + b - 1 with b = 2^40 + 1.
    # Past 2^53 the float of e is 2^53 + 2^13 = 2^13 b: a float ceiling 2^13.
    g = (1, 2**40 + 1, c)
    assert heisenberg_length(*_columns([g])).tolist() == [heisenberg_length(*g)] == [2 * -(-c // (2**40 + 1)) + 2**40]


def test_ball_deterministic():
    fam = Heisenberg()
    gens = GeneratingSet.standard(fam)
    assert cayley_ball(fam, gens, 4).elements == cayley_ball(fam, gens, 4).elements


def test_word_length_closed_forms():
    z2 = Zd(2)
    assert word_length(z2, GeneratingSet.standard(z2), (3, 4), 100) == 7
    f2 = FreeGroup(2)
    assert word_length(f2, GeneratingSet.standard(f2), f2.word("abA"), 100) == 3
    assert word_length(z2, GeneratingSet.standard(z2), (3, 4), 6) is None


def test_word_length_inverse_symmetric():
    fam = Heisenberg()
    gens = GeneratingSet.standard(fam)
    space = CayleyGraphSpace(fam, gens)
    rng = random.Random(1)
    for _ in range(20):
        g = (rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(-5, 6))
        n = space.length(g, 64)
        assert n == space.length(fam.inverse(g), 64)


def test_heisenberg_central_lengths_fixture():
    fam = Heisenberg()
    gens = GeneratingSet.standard(fam)
    space = CayleyGraphSpace(fam, gens)
    got = [space.length(fam.central(k), 64) for k in range(17)]
    assert got == HEISENBERG_CENTRAL_LENGTHS
    assert [fam.closed_form_length(fam.central(k)) for k in range(17)] == got
    # sublinear: consistent with sqrt-type growth
    assert got[16] / 16 < got[1] / 1
    assert got[16] <= 4 * (16**0.5) + 4


def test_heisenberg_central_lengths_against_plain_bfs():
    fam = Heisenberg()
    # independent BFS in the matrix representation, radius 12
    gens_m = [heis_matrix(*g) for g in fam.standard_generators()]
    dist = bfs_ball(heis_matrix(0, 0, 0), gens_m, heis_matmul, 12)
    by_triple = {heis_triple(m): d for m, d in dist.items()}
    for k in range(7):
        assert by_triple[(0, 0, k)] == HEISENBERG_CENTRAL_LENGTHS[k]


def test_word_length_custom_generators():
    z1 = Zd(1)
    gens = GeneratingSet.create(z1, [(2,), (3,)])
    assert word_length(z1, gens, (1,), 10) == 2  # 3 - 2
    assert word_length(z1, gens, (7,), 10) == 3  # 2 + 2 + 3


def test_closed_form_distance_has_no_search_bound():
    assert CayleyGraphSpace(Zd(1)).distance((0,), (5000,)) == 5000
    h3 = CayleyGraphSpace(Heisenberg())
    assert h3.distance((0, 0, 0), (0, 0, 20_000_000)) == heisenberg_length(0, 0, 20_000_000)


def test_search_distance_stops_at_the_bound():
    z1 = Zd(1)
    space = CayleyGraphSpace(z1, GeneratingSet.create(z1, [(2,), (3,)]))
    assert space.distance_bound == 4096
    assert space.distance((0,), (12285,)) == 4095  # 3 * 4095
    with pytest.raises(ResourceLimitError, match="distance bound 4096"):
        space.distance((0,), (12300,))  # 3 * 4100
    block = space.distance_block([(0,)])  # the search block obeys the same bound
    assert block([(12285,)], np.arange(1))[0].tolist() == [[4095]]
    with pytest.raises(ResourceLimitError, match="distance bound 4096"):
        block([(12300,)], np.arange(1))


# Every ClosedFormFamily; a new one joins this list to get its kernel checked.
CLOSED_FORM_FAMILIES = [Zd(1), Zd(2), Zd(3), FreeGroup(1), FreeGroup(2), FreeGroup(3), Heisenberg()]


# Largest entries of far points: below H3's int32 bound 2^14, at it, one bit
# past it (where int32 would overflow), and below kernel_range.
DTYPE_EDGES = [2**14 - 1, 2**14, 2**15 - 1, CayleyGraphSpace.kernel_range - 1]


def _far_points(fam, m):
    """Every tuple of entries -m, 0, m and 20 drawn from [-m, m], for
    entries that reach m; F_n's entries are letters, so its points are 20
    reduced words of 0-16 letters and their halves, sharing prefixes."""
    rng = random.Random(m)
    if isinstance(fam, FreeGroup):
        letters = [x for i in range(1, fam.rank + 1) for x in (i, -i)]
        words = [free_reduce(rng.choices(letters, k=rng.randint(0, 16))) for _ in range(20)]
        return words + [w[: len(w) // 2] for w in words]
    dim = len(fam.identity())
    return [*itertools.product((-m, 0, m), repeat=dim), *(tuple(rng.randint(-m, m) for _ in range(dim)) for _ in range(20))]


@pytest.mark.parametrize("r,R", [(0, 3), (1, 1), (1, 4), (2, 5), *(pytest.param(m, None, id=f"far-{m}") for m in DTYPE_EDGES)])
@pytest.mark.parametrize("fam", CLOSED_FORM_FAMILIES, ids=lambda f: f.name)
def test_distance_rows_match_closed_form_lengths(fam, r, R):
    if R is None:  # far points, every entry at most r, against Python ints pair by pair
        points = _far_points(fam, r)
        want = [[fam.closed_form_length(fam.multiply(fam.inverse(x), g)) for x in points] for g in points]
        assert fam.distance_rows(fam.coords(points), fam.coords(points), np.int64).tolist() == want
        return
    ball = cayley_ball(fam, GeneratingSet.standard(fam), R)
    n, lo, hi = ball.sphere_offsets[r + 1], ball.sphere_offsets[R], ball.sphere_offsets[R + 1]
    points, sphere = ball.ball(r), ball.sphere(R)
    want = [[fam.closed_form_length(fam.multiply(fam.inverse(x), g)) for x in points] for g in sphere]
    # on the encoder's rows, and on the ball's own (narrower, padded) rows
    assert fam.distance_rows(fam.coords(points), fam.coords(sphere), np.int64).tolist() == want
    X = ball.rows(R)
    assert fam.distance_rows(X[:n], X[lo:hi], np.int64).tolist() == want


def _assert_sphere_rows_keep_the_sphere_h_rows(fam, r, R):
    # The rows of sphere_rows, closed under automorphisms (the identity
    # alone on Z^d and F_n), against the decoded S(R) under closed_form_length.
    ball = cayley_ball(fam, GeneratingSet.standard(fam), R)
    X = fam.ball_coords(r)
    G = fam.sphere_rows(X, r, [R])[0]
    assert len(G) <= ball.sphere_offsets[R + 1] - ball.sphere_offsets[R]
    M = fam.distance_rows(X, G, np.int64)
    H = M - M[:, :1]
    points = ball.ball(r)
    want = {tuple(fam.closed_form_length(fam.multiply(fam.inverse(x), g)) - R for x in points)
            for g in ball.sphere(R)}
    perms = fam.automorphisms(X)
    assert len(perms) == (8 if isinstance(fam, Heisenberg) else 1)
    assert {tuple(row) for p in perms for row in H[:, p].tolist()} == want


@pytest.mark.parametrize("r,R", [(0, 3), (1, 1), (1, 4), (2, 5)])
@pytest.mark.parametrize("fam", CLOSED_FORM_FAMILIES, ids=lambda f: f.name)
def test_sphere_rows_keep_the_sphere_h_rows(fam, r, R):
    _assert_sphere_rows_keep_the_sphere_h_rows(fam, r, R)


@pytest.mark.parametrize("r, radii", [(0, [0, 1, 2, 3]), (1, [1, 2, 3, 4]), (2, [3, 4, 5, 6, 7])])
@pytest.mark.parametrize("fam", CLOSED_FORM_FAMILIES, ids=lambda f: f.name)
def test_sphere_rows_of_several_radii_hold_each_spheres_rows(fam, r, radii):
    # Column t of the presence table picks rows with the set of S(radii[t]):
    # the h-rows, closed under the automorphisms, of that sphere's own call.
    X = fam.ball_coords(r)
    G, P = fam.sphere_rows(X, r, radii)
    assert P.dtype == bool and P.shape == (len(G), len(radii)) and P.any(axis=1).all()
    perms = fam.automorphisms(X)

    def closed(rows):
        M = fam.distance_rows(X, rows, np.int64)
        return {tuple(row) for p in perms for row in (M - M[:, :1])[:, p].tolist()}

    for t, R in enumerate(radii):
        assert closed(G[P[:, t]]) == closed(fam.sphere_rows(X, r, [R])[0]), R


# Both sides of R0 = d r, the first sphere that holds the 2^d corner keys.
@pytest.mark.parametrize("d,r,R", [(2, 2, R) for R in range(2, 7)] + [(3, 1, R) for R in range(1, 6)])
def test_zd_sphere_rows_around_the_corner_radius(d, r, R):
    _assert_sphere_rows_keep_the_sphere_h_rows(Zd(d), r, R)
    keys = {tuple(k) for k in Zd(d).sphere_rows(Zd(d).ball_coords(r), r, [R])[0].tolist()}
    assert all((c in keys) == (R >= d * r) for c in itertools.product([-r, r], repeat=d))


@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("fam", CLOSED_FORM_FAMILIES, ids=lambda f: f.name)
def test_automorphisms_fix_the_identity_and_keep_distances(fam, r):
    X = fam.ball_coords(r)
    D = fam.distance_rows(X, X, np.int64)
    for p in fam.automorphisms(X):
        assert p[0] == 0
        assert sorted(p.tolist()) == list(range(len(X)))
        assert (D[p][:, p] == D).all()


def test_h3_automorphisms_agree_with_matrix_arithmetic():
    # Eight distinct index arrays on B(4); each maps the generators onto the
    # generators and, on B(2) x B(2), products to products under heis_matmul.
    fam = Heisenberg()
    X = fam.ball_coords(4)
    rows = list(map(tuple, X.tolist()))
    perms = fam.automorphisms(X)
    assert perms.shape == (8, len(X)) and len({tuple(p) for p in perms.tolist()}) == 8
    small = rows[: len(fam.ball_coords(2))]
    for p in perms.tolist():
        image = {g: rows[i] for g, i in zip(rows, p)}
        assert sorted(image[g] for g in H3_GENS) == sorted(H3_GENS)
        for x, y in itertools.product(small, repeat=2):
            xy = heis_triple(heis_matmul(heis_matrix(*x), heis_matrix(*y)))  # in B(4)
            want = heis_triple(heis_matmul(heis_matrix(*image[x]), heis_matrix(*image[y])))
            assert image[xy] == want, (x, y)


def test_h3_sphere_rows_are_the_sector_of_the_sphere(h3_matrix_lengths):
    # S(R) on 0 <= a <= b, each element once, against BFS on the matrices.
    fam = Heisenberg()
    for R in range(13):
        got = list(map(tuple, fam.sphere_rows(fam.ball_coords(1), 1, [R])[0].tolist()))
        want = {g for g, d in h3_matrix_lengths.items() if d == R and 0 <= g[0] <= g[1]}
        assert len(got) == len(want) and set(got) == want, R


@pytest.mark.parametrize("fam,R", [(Zd(1), 30), (Zd(3), 8), (FreeGroup(1), 30), (FreeGroup(2), 6),
                                   (FreeGroup(3), 4), (Heisenberg(), 12)],
                         ids=lambda c: getattr(c, "name", c))
def test_ball_sizes_match_per_radius_counts_and_bfs(fam, R):
    ident, gens, mul, _ = _oracle(fam)
    dist = bfs_ball(ident, gens, mul, R)
    bfs = [sum(d <= r for d in dist.values()) for r in range(R + 1)]
    assert fam.ball_sizes(R, 10**9).tolist() == bfs == [len(fam.ball_coords(r)) for r in range(R + 1)]
    for cap in sorted({1, 2**70, *bfs, *(n - 1 for n in bfs[1:]), *(n + 1 for n in bfs)}):
        assert fam.ball_sizes(R, cap).tolist() == [min(n, cap + 1) for n in bfs], cap


@pytest.mark.parametrize("fam", [Zd(1), Zd(6), Zd(40), FreeGroup(1), FreeGroup(2), FreeGroup(200)],
                         ids=lambda f: f.name)
@pytest.mark.parametrize("cap", [10**6, 2**62, 2**70])
def test_ball_sizes_stay_exact_past_int64(fam, cap):
    # Sizes, and the cap itself, may pass int64; each entry is an exact int.
    sizes = fam.ball_sizes(60, cap).tolist()
    assert sizes == [min(n, cap + 1) for n in _sizes(fam, 60)]
    assert all(type(n) is int for n in sizes)


@pytest.mark.parametrize("fam", CLOSED_FORM_FAMILIES, ids=lambda f: f.name)
def test_closed_form_block_never_calls_distance(fam, monkeypatch):
    space = CayleyGraphSpace(fam)
    pts = space.sample_points(random.Random(3), 24)
    want = [[space.distance(y, p) for p in pts] for y in pts]

    def refuse(self, p, q):
        raise AssertionError("the closed-form block called distance")

    monkeypatch.setattr(CayleyGraphSpace, "distance", refuse)
    M, den = space.distance_block(pts)(pts, np.arange(len(pts)))
    assert (M.dtype, den) == (np.int64, 1)
    assert M.tolist() == want


def test_search_lengths_on_nonstandard_generators():
    fam = Heisenberg()
    steps = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    dist = bfs_ball((0, 0, 0), steps + [(-1, 0, 0), (0, -1, 0), (-1, -1, 1)], heis_mul, 6)
    space = CayleyGraphSpace(fam, GeneratingSet.create(fam, steps))
    rng = random.Random(6)
    for g in rng.sample(sorted(dist), 300):
        assert space.length(g, dist[g]) == dist[g], g
        if dist[g]:
            assert space.length(g, dist[g] - 1) is None, g


# every search case but the last has a sphere S(3)
@pytest.mark.parametrize("case", SEARCH_CASES[:-1], ids=lambda c: c[0])
def test_search_limit_inside_a_sphere(case, monkeypatch):
    _, fam, ident, gens, mul = case
    dist = bfs_ball(ident, gens, mul, 3)
    size = [sum(1 for d in dist.values() if d <= r) for r in range(4)]
    near, far = (next(g for g, d in dist.items() if d == r) for r in (2, 3))
    for limit in range(size[2], size[3]):
        monkeypatch.setenv("HOROKIT_MAX_BALL", str(limit))
        space = CayleyGraphSpace(fam, GeneratingSet.create(fam, gens))
        assert space.length(near, 8) == 2
        with pytest.raises(ResourceLimitError, match=f"^ball size exceeded limit {limit}$") as exc:
            space.length(far, 8)
        assert exc.value.radius_reached == 2


def test_finite_group_distance_obeys_the_ball_limit(monkeypatch):
    monkeypatch.setenv("HOROKIT_MAX_BALL", "6")
    space = CayleyGraphSpace(cyclic_group(12))
    assert space.distance(0, 2) == 2  # |B(2)| = 5
    with pytest.raises(ResourceLimitError, match="^ball size exceeded limit 6$") as exc:
        space.distance(0, 6)  # |B(3)| = 7
    assert exc.value.radius_reached == 2


Z2 = Zd(2)
Z2_XY = GeneratingSet.create(Z2, [(1, 0), (0, 1), (1, 1)])  # no closed form: a search


# Each builder needs a ball of more than 50 elements.
BALL_BUILDERS = {
    "closed-form ball": lambda: cayley_ball(FreeGroup(2), GeneratingSet.standard(FreeGroup(2)), 10),
    "search ball": lambda: cayley_ball(Z2, Z2_XY, 5),
    "search length": lambda: CayleyGraphSpace(Z2, Z2_XY).length((5, 0), 10),
    "search distance": lambda: CayleyGraphSpace(Z2, Z2_XY).distance((0, 0), (5, 0)),
    "limit_restrictions": lambda: limit_restrictions(
        FreeGroup(2), GeneratingSet.standard(FreeGroup(2)), 1, 8, 2),
    "validate_metric": lambda: validate_metric(CayleyGraphSpace(cyclic_group(64))),
    "functional_norm_estimate": lambda: functional_norm_estimate(
        lambda g: 0, CayleyGraphSpace(FreeGroup(2)), [1, 2, 3, 4, 5]),
}


@pytest.mark.parametrize("name", sorted(BALL_BUILDERS))
def test_every_ball_builder_obeys_the_one_ball_limit(name, monkeypatch):
    monkeypatch.setenv("HOROKIT_MAX_BALL", "50")
    with pytest.raises(ResourceLimitError, match="^ball size exceeded limit 50$"):
        BALL_BUILDERS[name]()


@pytest.mark.parametrize("family,gens,ask,limit,reached", [
    (Z2, Z2_XY, lambda s: s.length((3, 3), 10), "5", 0),  # |B(1)| = 7
    (Z2, Z2_XY, lambda s: s.ball(1), "5", 0),
    (cyclic_group(12), None, lambda s: s.check_point(6), "6", 2),  # |B(3)| = 7
], ids=["Z^2{x,y,xy}", "Z^2{x,y,xy} ball", "C12"])
def test_a_search_over_the_limit_keeps_raising(family, gens, ask, limit, reached, monkeypatch):
    # A sphere that does not fit is not kept: every retry raises the same
    # error, and the search is left as it was.
    monkeypatch.setenv("HOROKIT_MAX_BALL", limit)
    space = CayleyGraphSpace(family, gens)
    space.grow(reached)
    before = (dict(space._dist), [list(layer) for layer in space.layers])
    for _ in range(3):
        with pytest.raises(ResourceLimitError, match=f"^ball size exceeded limit {limit}$") as exc:
            ask(space)
        assert exc.value.radius_reached == reached
        assert (space._dist, space.layers) == before


def test_a_searched_ball_keeps_the_search_that_built_it():
    # The ball's space is the search grown to R: distances inside B(R) read
    # it without growing it, and a ball of the same space at a smaller
    # radius slices the spheres that the search already holds.
    R = 6
    ball = cayley_ball(Z2, Z2_XY, R)
    space = ball.space
    assert (space.family, space.gens, len(space.layers)) == (Z2, Z2_XY, R + 1)
    dist = bfs_ball((0, 0), list(Z2_XY.elements), lambda g, s: (g[0] + s[0], g[1] + s[1]), R)
    pts = ball.ball(3)
    for p in pts:
        for q in pts:
            assert space.distance(p, q) == dist[q[0] - p[0], q[1] - p[1]]
    assert [ball.space.point_key(g)[0] for g in ball.elements] == [dist[g] for g in ball.elements]
    assert len(space.layers) == R + 1
    small = space.ball(2)
    assert small.space is space and len(space.layers) == R + 1
    assert (small.elements, small.sphere_offsets) == (ball.ball(2), ball.sphere_offsets[:4])
    assert small.elements == cayley_ball(Z2, Z2_XY, 2).elements


def test_finite_points_share_the_space_search(monkeypatch):
    # S3 under two transpositions: points() grows the space's own search to
    # the group's order, and validation then reads every distance from it.
    space = CayleyGraphSpace(FiniteGroup(S3_TABLE, [1, 2]))
    assert space.points() == [0, 1, 2, 3, 4, 5]
    assert len(space.layers) == 7 and [len(layer) for layer in space.layers[:4]] == [1, 2, 2, 1]

    def grow(radius, grow=space.grow):
        assert radius < len(space.layers), "the search grew again"
        grow(radius)

    monkeypatch.setattr(space, "grow", grow)
    rep = validate_metric(space)
    assert rep.passed and rep.triples_checked == 6**3


@pytest.mark.parametrize("space,bad", [
    (CayleyGraphSpace(Zd(2)), (1,)),
    (CayleyGraphSpace(cyclic_group(12, step=3)), 1),  # step 3 reaches only 0, 3, 6, 9
], ids=["Z^2", "C12{3}"])
def test_point_key_checks_its_point(space, bad):
    with pytest.raises(InvalidPointError) as by_key:
        space.point_key(bad)
    with pytest.raises(InvalidPointError) as by_check:
        space.check_point(bad)
    assert str(by_key.value) == str(by_check.value)


def test_finite_group_lengths():
    c12 = cyclic_group(12)
    gens = GeneratingSet.standard(c12)
    assert word_length(c12, gens, 3, 100) == 3
    assert word_length(c12, gens, 11, 100) == 1
    with pytest.raises(InvalidParameterError):
        FiniteGroup([[0, 1], [1, 1]])  # not a permutation row


def test_finite_group_reads_its_table_and_generators_when_built():
    # Integral floats and ints' texts are integers; every generator is an element.
    c2 = FiniteGroup([[0.0, "1"], [1.0, 0]], [1.0])
    assert c2.table == ((0, 1), (1, 0)) and c2.standard_generators() == (1,)
    assert type(c2.table[0][0]) is type(c2.standard_generators()[0]) is int
    for table, gens, message in [
        ([[0, 1], [1, 0.5]], [1], "table entry must be an integer, got 0.5"),
        ([[0, 1], [1, None]], [1], "table entry must be an integer, got None"),
        ([[0, 1], [1, 0]], [2], "generator 2 is not an index into a 2-element group"),
        ([[0, 1], [1, 0]], [1, -1], "generator -1 is not an index into a 2-element group"),
        ([[0, 1], [1, 0]], ["a"], "generator must be an integer, got 'a'"),
        # Shapes: len() of 3 and iteration over 1 raised Python's own TypeError.
        (3, [1], "table must be a list of lists, got 3"),
        ([0, 1], [1], "table must be a list of lists, got [0, 1]"),
        ([[0, 1], "10"], [1], "table must be a list of lists, got [[0, 1], '10']"),
        ([[0, 1], [1, 0]], 1, "generators must be a list, got 1"),
        ([[0, 1], [1, 0]], 0, "generators must be a list, got 0"),
        ([[0, 1], [1, 0]], "1", "generators must be a list, got '1'"),
    ]:
        with pytest.raises(InvalidParameterError) as exc:
            FiniteGroup(table, gens)
        assert str(exc.value) == message
    # Any sequence that is not text is a list too, and no generators is the default.
    for table, gens in (
        (((0, 1), (1, 0)), (1,)),
        (np.array([[0, 1], [1, 0]]), np.array([1])),
        ([range(2), range(1, -1, -1)], range(1, 2)),
    ):
        assert FiniteGroup(table, gens).standard_generators() == (1,)
    assert FiniteGroup([[0, 1], [1, 0]])._default_gens == ()


def test_group_parameters_are_read_by_their_constructors():
    assert (Zd().dim, Zd(3.0).dim, Zd("2").dim, FreeGroup().rank, FreeGroup(3.0).rank) == (1, 3, 2, 2, 3)
    for make, field in ((Zd, "dim"), (FreeGroup, "rank")):
        for v in (1.5, float("inf"), None, "1/2"):
            with pytest.raises(InvalidParameterError, match=f"^{field} must be an integer, got "):
                make(v)


KLEIN = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def test_finite_group_points_are_the_elements_its_generators_reach():
    space = CayleyGraphSpace(FiniteGroup(KLEIN, [1]))  # 1 generates {0, 1}
    for g in (0, 1):
        space.check_point(g)
    for g in (2, 3):
        with pytest.raises(InvalidPointError, match="not reached by the generators"):
            space.check_point(g)
    CayleyGraphSpace(FiniteGroup(KLEIN, [1, 2])).check_point(3)


class _CountingH3(Heisenberg):
    checks = 0

    def check_element(self, g):
        type(self).checks += 1
        super().check_element(g)


def test_cayley_distance_checks_each_point_once():
    space = CayleyGraphSpace(_CountingH3())
    _CountingH3.checks = 0
    assert space.distance((1, 2, 3), (-4, 0, 7)) == heisenberg_length(-5, -2, 6)
    assert _CountingH3.checks <= 2
    steps = 40
    f = group_translation(space, (1, 0, 2))
    _CountingH3.checks = 0
    translation_number(f, steps)
    assert _CountingH3.checks <= 2 * steps


def test_cayley_graph_space_distance():
    space = CayleyGraphSpace(Zd(2))
    assert space.distance((0, 0), (3, 4)) == 7
    assert space.distance((1, 1), (1, 1)) == 0


def test_free_label_of_fifth_generator_is_not_identity():
    f5 = FreeGroup(5)
    assert f5.element_label((5,)) != f5.element_label(())
    assert f5.word(f5.element_label((5,))) == (5,)


def test_free_labels_of_small_ranks_unchanged():
    f4 = FreeGroup(4)
    assert f4.element_label(()) == "e"
    assert f4.element_label((1, 2, -3, 4, -1)) == "abCdA"
    assert f4.word("abCdA") == (1, 2, -3, 4, -1)


@st.composite
def _free_words(draw):
    rank = draw(st.integers(1, 40))
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    raw = draw(st.lists(st.sampled_from(letters), max_size=12))
    return rank, free_reduce(raw)


@given(_free_words())
def test_free_label_round_trip(case):
    rank, w = case
    fam = FreeGroup(rank)
    assert fam.word(fam.element_label(w)) == w
