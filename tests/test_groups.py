import itertools
import json
import math
import re
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupapprox import cli
from groupapprox import groups as G_
from groupapprox import profiles as P_

Z = G_.FreeAbelian(1)
Z2 = G_.FreeAbelian(2)
H3 = G_.Heisenberg(1)

# ball cardinalities computed independently of the BFS (closed forms for the
# abelian cases, a direct normal-form count for Heisenberg)
HEIS_BALL = [1, 5, 17, 53, 135, 299, 593, 1069, 1793, 2845, 4309]


def test_ball_sizes_Z():
    for n in range(0, 30):
        assert G_.growth(Z, n) == 2 * n + 1


def test_ball_sizes_Z2():
    for n in range(0, 12):
        assert G_.growth(Z2, n) == 2 * n * n + 2 * n + 1


def test_ball_sizes_heisenberg():
    for n, want in enumerate(HEIS_BALL):
        assert G_.growth(H3, n) == want


@pytest.mark.parametrize("G, n", [(Z, 7), (Z2, 5), (G_.FreeAbelian(3), 3),
                                  (H3, 4), (G_.Heisenberg(2), 2)])
def test_ball_tree_is_a_spanning_tree_of_geodesics(G, n, monkeypatch):
    """Ball.tree(): each element but the identity is its parent times its
    letter, the parent one length down, the first letter in generator
    order that steps down; in blocks of rows, the same tree. The sizes
    are the elements of each length, in ball order."""
    B = G_.ball(G, n)
    parent, letter = B.tree()
    assert B.tree() is B.tree()
    assert B.sizes == tuple(np.bincount(
        [B.length(p) for p in B.elements]).tolist())
    assert (parent[0], letter[0]) == (-1, -1)
    gens = G.generators()
    for g in range(1, len(B)):
        p = B.elements[g]
        down = [s for s, (_, x) in enumerate(gens)
                if G.mul(p, G.inv(x)) in B
                and B.length(G.mul(p, G.inv(x))) == B.length(p) - 1]
        assert letter[g] == down[0]
        assert G.mul(B.elements[parent[g]], gens[letter[g]][1]) == p
    with pytest.raises(ValueError, match="read-only"):
        parent[1] = 0
    monkeypatch.setattr(G_, "BLOCK", 2 * B.coords().shape[1])
    blocked = G_._tree(B)
    assert all(np.array_equal(a, b) for a, b in zip(blocked, (parent, letter)))


def test_a_loop_ball_has_sizes_and_no_tree():
    """Sym(3) on two transpositions: 1, 2, 2 and 1 elements of length 0 to
    3, the last the longest element."""
    B = G_.ball(G_.FiniteSym(3), 3)
    assert B.sizes == (1, 2, 2, 1) and B.tree() is None


@pytest.mark.parametrize("d, r_max", [(1, 30), (2, 12), (3, 7), (4, 5)])
def test_growth_of_Zd_counts_the_array_bfs_without_a_ball(
        d, r_max, monkeypatch):
    G = G_.FreeAbelian(d)
    sizes = [len(G_._array_bfs_ball(G, r, G_.DEFAULT_BALL_CAP))
             for r in range(r_max + 1)]
    monkeypatch.setattr(G_, "ball", None)  # growth never asks for one
    assert [G_.growth(G, r) for r in range(r_max + 1)] == sizes


def test_growth_of_heisenberg_counts_the_array_bfs_without_a_ball(
        monkeypatch):
    sizes = [len(G_._array_bfs_ball(H3, r, G_.DEFAULT_BALL_CAP))
             for r in range(13)]
    monkeypatch.setattr(G_, "ball", None)
    assert [G_.growth(H3, r) for r in range(13)] == sizes


@pytest.mark.parametrize("G, n", [(Z, 10 ** 6), (Z2, 1000), (H3, 100),
                                  (H3, 10 ** 5)])
def test_growth_above_the_default_cap_raises_as_the_ball_does(G, n):
    with pytest.raises(G_.BallCapExceeded) as counted:
        G_.growth(G, n)
    assert (counted.value.group, counted.value.radius, counted.value.cap) \
        == (G, n, G_.DEFAULT_BALL_CAP)
    for bad in (-1, 1.0):
        with pytest.raises((ValueError, TypeError)):
            G_.growth(G, bad)


def test_ball_order_and_lengths():
    B = G_.ball(Z, 3)
    assert B.elements[0] == (0,)
    lens = [B.length(p) for p in B.elements]
    assert lens == sorted(lens)
    assert set(B.elements) == {(k,) for k in range(-3, 4)}
    assert (2,) in B and (4,) not in B
    assert B.index((0,)) == 0


def test_ball_cap():
    with pytest.raises(G_.BallCapExceeded):
        G_.ball(Z2, 40, cap=100)


def _elems(G, r):
    return list(G_.ball(G, r).elements)


# ---------------------------------------------------------------------------
# the memoized ball layer

CATALOG = {
    "Z": Z,
    "Z^2": Z2,
    "F2": G_.Free(2),
    "Heisenberg(1)": H3,
    "Z/5": G_.FiniteCyclic(5),
    "Sym(3)": G_.FiniteSym(3),
    "Z x Z/3": G_.DirectProduct(Z, G_.FiniteCyclic(3)),
    "Z/2 wr Z/3": G_.WreathProduct(G_.FiniteCyclic(2), G_.FiniteCyclic(3)),
    "Lamplighter(Z/2)": G_.Lamplighter(G_.FiniteCyclic(2)),
}


@pytest.mark.parametrize("G", [
    *CATALOG.values(), *(entry.group for entry in P_.CATALOG.values()),
    G_.FreeAbelian(3), G_.Free(3), G_.Heisenberg(2),
    G_.DirectProduct(G_.DirectProduct(Z, H3), G_.FiniteSym(3)),
    G_.WreathProduct(G_.DirectProduct(G_.FiniteCyclic(2), Z),
                     G_.FiniteSym(3)),
    G_.Lamplighter(G_.WreathProduct(G_.FiniteCyclic(2),
                                    G_.FiniteCyclic(3)))], ids=repr)
def test_a_group_is_named_as_parse_group_reads_it(G):
    """Messages name a group by repr, which parse_group reads back."""
    assert G_.parse_group(repr(G)) == G


def test_groups_are_named_in_their_short_spelling():
    assert [repr(G) for G in CATALOG.values()] == [
        "Z", "Z^2", "F2", "Heisenberg(1)", "Z/5", "Sym(3)",
        json.dumps(CATALOG["Z x Z/3"].descriptor()), "Wreath(Z/2;Z/3)",
        "Lamplighter(Z/2)"]


def _bfs_reference(G, n):
    """(elements in (length, key) order, lengths) by a plain BFS."""
    lengths = {G.identity(): 0}
    layer = [G.identity()]
    for r in range(1, n + 1):
        layer = [h for h in {G.mul(g, s) for g in layer
                             for _, s in G.generators()}
                 if h not in lengths]
        lengths.update((h, r) for h in layer)
    return sorted(lengths, key=lambda p: (lengths[p], G.key(p))), lengths


@pytest.mark.parametrize("name", CATALOG)
def test_memoized_ball_matches_bfs_reference(name):
    G = CATALOG[name]
    for n in range(4):
        want_elements, want_lengths = _bfs_reference(G, n)
        for B in (G_.ball(G, n), G_.ball(G, n)):  # build or hit, then hit
            assert list(B.elements) == want_elements
            assert dict(B.lengths) == want_lengths


def test_equal_groups_share_one_ball():
    assert G_.ball(H3, 4) is G_.ball(H3, 4)
    again = G_.group_from_descriptor(H3.descriptor())
    assert again is not H3
    assert G_.ball(again, 4) is G_.ball(G_.parse_group("Heisenberg(1)"), 4)
    assert G_.ball(again, 4) is G_.ball(H3, 4)
    assert G_.ball(H3, 3) is not G_.ball(H3, 4)


def test_memo_hit_honours_cap():
    H = G_.Heisenberg(1)
    B = G_.ball(H, 5)
    with pytest.raises(G_.BallCapExceeded):
        G_.ball(H, 5, cap=10)
    assert G_.ball(H, 5, cap=len(B)) is B
    # a one-element ball exceeds cap 0, though the BFS never counts the identity
    trivial = G_.FiniteCyclic(1)
    for _ in ("build", "hit"):
        with pytest.raises(G_.BallCapExceeded):
            G_.ball(trivial, 2, cap=0)
    assert cli.main(["ball", "--group", "Heisenberg(1)", "--n", "5",
                     "--cap", "10"]) == 3


def test_capped_build_is_not_kept():
    with pytest.raises(G_.BallCapExceeded):
        G_.ball(Z2, 7, cap=20)
    assert len(G_.ball(Z2, 7)) == 2 * 7 * 7 + 2 * 7 + 1
    with pytest.raises(G_.BallCapExceeded):
        G_.ball(H3, 7, cap=HEIS_BALL[7] - 1)
    assert len(G_.ball(H3, 7)) == HEIS_BALL[7]


def test_heisenberg_cap_is_counted_before_the_rows_are_built():
    count = G_.growth(H3, 24)
    assert count == len(G_.ball(H3, 24))
    tracemalloc.start()
    try:
        with pytest.raises(G_.BallCapExceeded) as capped:
            G_._bfs_ball(H3, 24, count - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (capped.value.radius, capped.value.cap) == (24, count - 1)
    # the rows of B(24) take 24 bytes each; the count a few per (a, b)
    assert peak < 24 * count // 10
    assert len(G_._bfs_ball(H3, 24, count)) == count


def test_free_abelian_cap_is_counted_before_the_rows_are_built():
    G = G_.FreeAbelian(3)
    count = G_.growth(G, 40)
    assert count == len(G_.ball(G, 40))
    tracemalloc.start()
    try:
        with pytest.raises(G_.BallCapExceeded) as capped:
            G_._bfs_ball(G, 40, count - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (capped.value.radius, capped.value.cap) == (40, count - 1)
    # the rows of B(40) take 24 bytes each; the count none
    assert peak < 24 * count // 100
    assert len(G_._bfs_ball(G, 40, count)) == count
    # a cap above the default one counts the same way
    over = G_.DEFAULT_BALL_CAP // 2
    assert len(G_._bfs_ball(Z, over, 2 * over + 1)) == 2 * over + 1


def test_a_large_ball_of_Z_takes_no_bfs():
    """B(40000) of Z (80,001 elements) took 0.8 s as 40,000 BFS levels and
    takes a few milliseconds in closed form; the bound leaves room for a
    loaded machine."""
    G_._l1_ball(Z, 10, G_.DEFAULT_BALL_CAP)  # numpy's first calls
    start = time.perf_counter()
    B = G_._bfs_ball(Z, 40000, G_.DEFAULT_BALL_CAP)
    assert time.perf_counter() - start < 0.2
    assert len(B) == 80001 and B._sizes == (1,) + (2,) * 40000
    assert B.coords()[-2:].tolist() == [[-40000], [40000]]


def test_huge_radius_stops_at_the_cap(capsys):
    start = time.perf_counter()
    assert cli.main(["ball", "--group", "Heisenberg(1)", "--n", "100000",
                     "--cap", "100"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "cap" in capsys.readouterr().err


def test_shared_ball_is_read_only():
    B = G_.ball(H3, 2)
    with pytest.raises(TypeError):
        B.elements[0] = B.elements[1]
    with pytest.raises(TypeError):
        B.lengths[H3.identity()] = 1
    table = B.products()
    assert table is B.products()
    with pytest.raises(ValueError):
        table[0, 0] = 1
    coords = B.coords()
    assert coords is B.coords()
    with pytest.raises(ValueError):
        coords[0, 0] = 1


def test_evicted_ball_is_rebuilt_equal():
    B = G_.ball(Z2, 3)
    # radius-0 balls of cyclic groups no other test asks for
    for m in range(10 ** 6, 10 ** 6 + G_._BALL_MEMO_SIZE):
        G_.ball(G_.FiniteCyclic(m), 0)
    again = G_.ball(Z2, 3)
    assert again is not B
    assert again.elements == B.elements
    assert dict(again.lengths) == dict(B.lengths)


# ---------------------------------------------------------------------------
# the coordinate arrays against the scalar loops

# (group, largest radius drawn): Z^40 stays at radius 2 (3,281 elements)
COORDINATE_BALLS = [(Z, 12), (Z2, 6), (G_.FreeAbelian(3), 4),
                    (G_.FreeAbelian(40), 2), (H3, 5), (G_.Heisenberg(2), 2)]


@st.composite
def coordinate_balls(draw):
    G, r_max = draw(st.sampled_from(COORDINATE_BALLS))
    return G, draw(st.integers(0, r_max))


@settings(max_examples=40, deadline=None)
@given(coordinate_balls())
def test_array_bfs_matches_the_loop(case):
    G, r = case
    want = G_._bfs_ball_loop(G, r, G_.DEFAULT_BALL_CAP)
    got = G_._bfs_ball(G, r, G_.DEFAULT_BALL_CAP)
    assert got.elements == want.elements
    assert dict(got.lengths) == dict(want.lengths)
    assert got.coords().tolist() == [list(G.coords(p)) for p in got.elements]
    assert want.coords() is None


def test_heisenberg_intervals_give_the_array_bfs_ball():
    """The closed form's rows and level sizes against the array BFS at
    every radius 0..24 (B(24) has 141,225 elements)."""
    for r in range(25):
        want = G_._array_bfs_ball(H3, r, G_.DEFAULT_BALL_CAP)
        got = G_._interval_ball(H3, r, G_.DEFAULT_BALL_CAP)
        assert np.array_equal(got.coords(), want.coords()), r
        assert got._sizes == want._sizes, r


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 12))
def test_l1_ball_is_the_array_bfs_ball(d, r):
    """The closed form of Z^d's ball against the array BFS: the same rows
    in the same order, level sizes and labels."""
    G = G_.FreeAbelian(d)
    want = G_._array_bfs_ball(G, r, G_.DEFAULT_BALL_CAP)
    got = G_._l1_ball(G, r, G_.DEFAULT_BALL_CAP)
    assert np.array_equal(got.coords(), want.coords())
    assert got._sizes == want._sizes
    assert got.labels() == want.labels()


def test_only_free_abelian_takes_the_l1_ball(monkeypatch):
    closed = []
    monkeypatch.setattr(G_, "_l1_ball", lambda *args: closed.append(args))
    for G in (Z, Z2, H3, G_.Heisenberg(2), G_.Free(2)):
        G_._bfs_ball(G, 2, G_.DEFAULT_BALL_CAP)
    assert closed == [(Z, 2, G_.DEFAULT_BALL_CAP),
                      (Z2, 2, G_.DEFAULT_BALL_CAP)]


def test_only_heisenberg_1_takes_the_intervals(monkeypatch):
    intervals = []
    monkeypatch.setattr(G_, "_interval_ball",
                        lambda *args: intervals.append(args))
    for G in (Z2, G_.Heisenberg(2), H3):
        G_._bfs_ball(G, 2, G_.DEFAULT_BALL_CAP)
    assert intervals == [(H3, 2, G_.DEFAULT_BALL_CAP)]


# the coordinate groups whose balls are rows, each up to radius 6
LAZY_GROUPS = [Z, Z2, G_.FreeAbelian(3), H3, G_.Heisenberg(2)]


@pytest.mark.parametrize("G", LAZY_GROUPS, ids=[
    "FreeAbelian(1)", "FreeAbelian(2)", "FreeAbelian(3)", "Heisenberg(1)",
    "Heisenberg(2)"])
def test_lazy_ball_fields_equal_an_eager_reference(G):
    for r in range(7):
        B = G_._bfs_ball(G, r, G_.DEFAULT_BALL_CAP)
        # the loop BFS's lengths do not come from the array BFS's levels
        want = G_._bfs_ball_loop(G, r, G_.DEFAULT_BALL_CAP)
        elements = tuple(G.payloads(B.coords()))
        assert len(B) == len(want)
        assert B.labels() == [G.fmt(p) for p in elements]
        assert B._elements is None  # the length and labels read the rows
        assert B.elements == elements == want.elements
        assert dict(B.lengths) == dict(want.lengths)
        assert [B.index(p) for p in elements] == list(range(len(B)))
        assert all(p in B for p in elements)
        outside = G_._bfs_ball(G, r + 1, G_.DEFAULT_BALL_CAP).elements[-1]
        assert outside not in B
        assert B.labels() == [G.fmt(p) for p in B]
        assert len(B) == len(want)


@pytest.mark.parametrize("G, n", [
    (Z, 40000), (Z2, 130), (G_.FreeAbelian(3), 26), (H3, 20),
    (G_.Heisenberg(2), 8)])
def test_labels_are_the_fmt_of_each_element(G, n):
    """Ball.labels() and the chunks of Ball.label_text() spell every
    element as fmt does, over balls of more than one block of rows (Z^2
    at n = 130 has 34,061 > BLOCK // 2 rows): Z's blocks are one % each,
    the others' are gathers from tables of column values."""
    B = G_.ball(G, n)
    want = [G.fmt(p) for p in G.payloads(B.coords())]
    assert len(B) > G_.BLOCK // B.coords().shape[1]
    assert B.labels() == want
    assert "".join(B.label_text()) == "".join(x + "\0" for x in want)
    assert B._elements is None


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LAZY_GROUPS), st.sampled_from([1, 3, 2 ** 62]),
       st.sampled_from([1, 4, 1 << 16]), st.data())
def test_fmt_rows_is_fmt_on_any_rows(G, bound, rows_per_block, data):
    """fmt_rows and row_text on arbitrary rows, in blocks of 1, 4 or many
    rows, gathered or formatted with one %: fmt of each row."""
    k = len(G.coords(G.identity()))
    rows = data.draw(st.lists(st.lists(st.integers(-bound, bound),
                                       min_size=k, max_size=k), max_size=30))
    X = np.array(rows, dtype=np.int64).reshape(-1, k)
    want = [G.fmt(p) for p in G.payloads(X)]
    with mock.patch.object(G_, "BLOCK", rows_per_block * k):
        assert G.fmt_rows(X) == want
        assert "".join(G.row_text(X)) == "".join(x + "\0" for x in want)


def test_a_loop_ball_gives_its_labels_as_one_chunk():
    for G, n in ((G_.Free(2), 3), (G_.FiniteSym(3), 3),
                 (G_.parse_group("Lamplighter(Z/2)"), 2)):
        B = G_.ball(G, n)
        assert list(B.label_text()) == [
            "".join(G.fmt(p) + "\0" for p in B)]


def test_built_fields_stay_read_only():
    B = G_._bfs_ball(H3, 3, G_.DEFAULT_BALL_CAP)
    assert B.index(B.elements[-1]) == len(B) - 1
    with pytest.raises(TypeError):
        B.elements[0] = B.elements[1]
    with pytest.raises(TypeError):
        B.lengths[H3.identity()] = 1
    for field in ("elements", "lengths"):
        with pytest.raises(AttributeError):
            setattr(B, field, getattr(B, field))


def test_threads_never_see_a_half_built_field():
    size = HEIS_BALL[10]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            B = G_._bfs_ball(H3, 10, G_.DEFAULT_BALL_CAP)
            last = H3.payloads(B.coords()[-1:])[0]
            seen = []

            def read():
                seen.append((len(B.lengths), B.length(last), last in B,
                             B.index(last), len(B.elements)))

            workers = [threading.Thread(target=read) for _ in range(6)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
                assert not w.is_alive()
            assert seen == [(size, 10, True, size - 1, size)] * 6
    finally:
        sys.setswitchinterval(saved)


@settings(max_examples=25, deadline=None)
@given(coordinate_balls())
def test_array_products_match_the_loop(case):
    G, r = case
    B = G_.ball(G, r)
    if len(B) > 700:  # the loop reference is quadratic in Python
        r -= 1
        B = G_.ball(G, r)
    assert (G_._products_array(B) == G_._products_loop(B)).all()


@pytest.mark.parametrize("G, r, grid", [
    (Z, 12, True), (Z2, 2, True), (H3, 3, True), (G_.Heisenberg(2), 1, True),
    (G_.FreeAbelian(3), 0, True), (G_.FreeAbelian(5), 1, False),
    (G_.FreeAbelian(40), 1, False)])
def test_products_take_the_grid_only_when_the_box_fits(G, r, grid):
    """A ball's products are looked up in a dense grid over its bounding
    box when the box has at most |B|^2 cells (Z^5 at radius 1 has 3^5 =
    243 > 11^2), else by the sorted search; both give the loop's table."""
    B = G_.ball(G, r)
    C = B.coords()
    box = math.prod((C.max(axis=0) - C.min(axis=0) + 1).tolist())
    assert (G_._grid_slots(C) is not None) == grid == (box <= len(B) ** 2)
    assert (G_._products_array(B) == G_._products_loop(B)).all()


def test_a_product_inside_the_box_but_outside_the_ball_is_minus_1():
    # (2, 0) + (0, 2) = (2, 2) lies in the box [-2, 2]^2 of B(2) in Z^2
    B = G_.ball(Z2, 2)
    assert G_._grid_slots(B.coords()) is not None
    assert B.products()[B.index((2, 0)), B.index((0, 2))] == -1
    assert B.products()[B.index((1, 0)), B.index((0, 1))] == B.index((1, 1))


@settings(max_examples=40, deadline=None)
@given(coordinate_balls(), st.integers(0, 2 ** 32 - 1))
def test_grid_and_sorted_lookups_agree(case, seed):
    """Both lookups give the slot in the ball of rows in, around and far
    outside its bounding box, -1 for a row outside the ball."""
    G, r = case
    B = G_.ball(G, r)
    C = B.coords()
    rng = np.random.default_rng(seed)
    lo, hi = C.min(axis=0), C.max(axis=0)
    R = np.concatenate([C, rng.integers(lo - 2, hi + 3, size=(200, len(lo))),
                        C[:1] + [[10 ** 12] + [0] * (len(lo) - 1)]])
    slot = {row: i for i, row in enumerate(map(tuple, C.tolist()))}
    want = [slot.get(row, -1) for row in map(tuple, R.tolist())]
    assert G_._sorted_slots(C)(R).tolist() == want
    grid = G_._grid_slots(C)
    assert grid is None or grid(R).tolist() == want


def _in_kernel(Q, p):
    """Whether the quotient map G -> Q sends p to the identity."""
    return Q.map(p) == Q.identity()


def _kernel_witness_loop(G, Q, r):
    e = G.identity()
    return next((p for p in G_.ball(G, r)
                 if p != e and _in_kernel(Q, p)), None)


@st.composite
def lattices(draw):
    """An HNF-ready lattice of Z^1, Z^2 or Z^3: an upper triangular basis
    with positive diagonal, plus a radius."""
    d = draw(st.integers(1, 3))
    rows = [tuple(draw(st.integers(1, 7)) if j == i
                  else draw(st.integers(-6, 6)) if j > i else 0
                  for j in range(d)) for i in range(d)]
    return G_.LatticeHNF(G_.FreeAbelian(d), rows), draw(st.integers(0, 5))


@settings(max_examples=80, deadline=None)
@given(lattices())
def test_kernel_witness_matches_the_loop_on_lattices(case):
    Q, r = case
    assert G_.kernel_witness(Q.parent, Q, r) \
        == _kernel_witness_loop(Q.parent, Q, r)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([H3, G_.Heisenberg(2)]), st.integers(1, 9),
       st.integers(0, 4))
def test_kernel_witness_matches_the_loop_on_congruences(G, m, r):
    Q = G_.CongruenceMod(G, m)
    assert G_.kernel_witness(G, Q, r) == _kernel_witness_loop(G, Q, r)


def test_kernel_witness_rejects_a_quotient_of_another_group():
    with pytest.raises(ValueError, match=re.escape("quotient of Z^2, not of Z")):
        G_.kernel_witness(Z, G_.LatticeHNF(Z2, [(3, 0), (0, 3)]), 2)


def _table_loop(F):
    """The product table of the finite group F by scalar ``mul``."""
    elems = F.elements()
    slot = {p: i for i, p in enumerate(elems)}
    return [[slot[F.mul(a, b)] for b in elems] for a in elems]


def quotients():
    """A lattice quotient of Z, Z^2 or Z^3, or a congruence quotient of
    Heisenberg(1) with m <= 6 or of Heisenberg(2) with m <= 2."""
    return st.one_of(
        lattices().map(lambda case: case[0]),
        st.integers(1, 6).map(lambda m: G_.CongruenceMod(H3, m)),
        st.integers(1, 2).map(
            lambda m: G_.CongruenceMod(G_.Heisenberg(2), m)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(1, 8).map(G_.FiniteCyclic),
                 st.integers(1, 4).map(G_.FiniteSym), quotients()))
def test_table_matches_the_loop(F):
    T = G_.table(F)
    assert T.dtype == np.int64
    assert T.tolist() == _table_loop(F)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(1, 8).map(G_.FiniteCyclic),
                 st.integers(1, 4).map(G_.FiniteSym), quotients()),
       st.data())
def test_table_of_left_factors_is_rows_of_the_table(F, data):
    elems = F.elements()
    slots = data.draw(st.lists(st.integers(0, len(elems) - 1), min_size=1,
                               max_size=6))
    rows = G_.table(F, [elems[i] for i in slots])
    assert rows.dtype == np.int64
    assert rows.tolist() == G_.table(F)[slots].tolist()


@settings(max_examples=40, deadline=None)
@given(quotients(), st.data())
def test_quotient_action_is_rows_of_the_table(Q, data):
    k = len(Q.parent.coords(Q.parent.identity()))
    X = np.array(data.draw(st.lists(
        st.lists(st.integers(-30, 30), min_size=k, max_size=k),
        max_size=12)), dtype=np.int64).reshape(-1, k)
    want = G_.table(Q)[Q.slot(Q.map_array(X))]
    assert G_.quotient_action(Q, X).tolist() == want.tolist()


@st.composite
def heis_elements(draw):
    pool = _elems(H3, 3)
    return draw(st.sampled_from(pool))


@settings(max_examples=80, deadline=None)
@given(heis_elements(), heis_elements(), heis_elements())
def test_heisenberg_group_laws(a, b, c):
    assert H3.mul(H3.mul(a, b), c) == H3.mul(a, H3.mul(b, c))
    assert H3.mul(a, H3.inv(a)) == H3.identity()
    assert H3.mul(H3.identity(), a) == a


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
       st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_free_abelian_laws(a, b):
    assert Z2.mul(a, b) == Z2.mul(b, a)
    assert Z2.mul(a, Z2.inv(a)) == Z2.identity()


def test_wreath_product_laws():
    W = G_.WreathProduct(G_.FiniteCyclic(2), G_.FiniteCyclic(3))
    elems = _elems(W, 3)
    for a, b, c in itertools.islice(itertools.product(elems, repeat=3), 400):
        assert W.mul(W.mul(a, b), c) == W.mul(a, W.mul(b, c))
    for a in elems:
        assert W.mul(a, W.inv(a)) == W.identity()


def test_direct_product_ball():
    D = G_.DirectProduct(Z, Z)
    assert G_.growth(D, 2) == G_.growth(Z2, 2)


def test_parse_group_round_trip():
    for text in ("Z", "Z^1", "Z^2", "Z^3", "F2", "F10", "Heisenberg(1)",
                 "Z/5", "Z/7", "Sym(4)", "Lamplighter(Z/2)",
                 "Wreath(Z/2;Z/3)"):
        G = G_.parse_group(text)
        again = G_.group_from_descriptor(G.descriptor())
        assert again.descriptor() == G.descriptor()


def test_parse_group_rejects_junk():
    with pytest.raises(ValueError):
        G_.parse_group("Klein bottle")


# ---------------------------------------------------------------------------
# quotient descriptors

@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 4),
       st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
def test_lattice_membership_matches_span(a, c, b, v):
    L = G_.LatticeHNF(Z2, [(a, b % c if c else 0), (0, c)])
    span = {(al * a, al * (b % c) + be * c)
            for al in range(-10, 11) for be in range(-10, 11)}
    assert _in_kernel(L, v) == (v in span)


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3),
       st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
       st.tuples(st.integers(-8, 8), st.integers(-8, 8)))
def test_lattice_map_is_canonical_hom(a, c, b, v, w):
    L = G_.LatticeHNF(Z2, [(a, b % c), (0, c)])
    rv = L.map(v)
    assert 0 <= rv[0] < a and 0 <= rv[1] < c
    assert _in_kernel(L, (v[0] - rv[0], v[1] - rv[1]))
    # homomorphism into the finite group
    rw = L.map(w)
    assert L.map(tuple(x + y for x, y in zip(v, w))) == L.mul(rv, rw)
    _assert_finite_group_laws(L, rv, rw)


def _assert_finite_group_laws(Q, x, y):
    """elements() is key-sorted with one element per coset, and the group
    laws hold at x, y and every element z."""
    els = Q.elements()
    assert els == sorted(els, key=Q.key)
    assert len(els) == len(set(els)) == Q.index
    e = Q.identity()
    assert e in els and x in els and y in els
    for z in els:
        assert Q.mul(e, z) == Q.mul(z, e) == z
        assert Q.mul(z, Q.inv(z)) == Q.mul(Q.inv(z), z) == e
        assert Q.mul(Q.mul(x, y), z) == Q.mul(x, Q.mul(y, z))


def test_hnf_normalizes_row_span():
    rows = G_.hnf([(2, 4), (1, 3)])
    assert rows == ((1, 1), (0, 2))
    L = G_.LatticeHNF(Z2, [(2, 4), (1, 3)])
    assert L.index == 2
    assert _in_kernel(L, (1, 3)) and _in_kernel(L, (2, 4))


def test_hnf_rejects_singular():
    with pytest.raises(ValueError):
        G_.hnf([(1, 2), (2, 4)])


def test_lattice_residues_count():
    L = G_.LatticeHNF(Z2, [(3, 1), (0, 4)])
    rs = L.elements()
    assert len(rs) == L.index == 12
    assert len(set(rs)) == 12


def test_congruence_mod_heisenberg():
    Q = G_.CongruenceMod(H3, 3)
    assert Q.index == 27
    e = H3.identity()
    for p in G_.ball(H3, 4):
        a, b, c = p
        assert _in_kernel(Q, p) == all(x % 3 == 0 for x in (*a, *b, c))
    # kernel contains the cube of a generator
    x = ((1,), (0,), 0)
    x3 = H3.mul(x, H3.mul(x, x))
    assert _in_kernel(Q, x3)
    assert not _in_kernel(Q, x)


def test_kernel_witness_is_first_kernel_element_in_ball_order():
    L = G_.LatticeHNF(Z2, [(1, 0), (0, 3)])  # kernel Z x 3Z
    assert G_.kernel_witness(Z2, L, 1) == next(
        p for p in G_.ball(Z2, 1) if p != (0, 0) and _in_kernel(L, p))
    assert G_.kernel_witness(Z2, G_.LatticeHNF(Z2, [(3, 0), (0, 3)]), 2) \
        is None
    assert G_.kernel_witness(H3, G_.CongruenceMod(H3, 3), 2) is None
    assert G_.kernel_witness(H3, G_.CongruenceMod(H3, 2), 2) is not None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-9, 9)),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-9, 9)))
def test_congruence_quotient_is_hom(m, u, v):
    Q = G_.CongruenceMod(H3, m)
    a, b = ((u[0],), (u[1],), u[2]), ((v[0],), (v[1],), v[2])
    assert Q.map(H3.mul(a, b)) == Q.mul(Q.map(a), Q.map(b))
    _assert_finite_group_laws(Q, Q.map(a), Q.map(b))


# ---------------------------------------------------------------------------
# subgroups

def test_index_subgroup_of_Z_decompose():
    data = G_.index_subgroup_of_Z(3)
    for k in range(-10, 11):
        i, h = data.decompose((k,))
        assert data.parent.mul(data.reps[i], data.embed(h)) == (k,)
        assert 0 <= i < 3


@pytest.mark.parametrize("kind, key", [
    ("FreeAbelian", "d"), ("Free", "rank"), ("Heisenberg", "l"),
    ("FiniteCyclic", "m"), ("FiniteSym", "k")])
@pytest.mark.parametrize("value", [True, 2.0, "2"], ids=["bool", "float",
                                                         "string"])
def test_group_descriptor_takes_exact_ints(kind, key, value):
    d = {"kind": kind, "params": {key: 2}}
    assert G_.group_from_descriptor(d).descriptor() == d
    d["params"][key] = value
    with pytest.raises(ValueError, match="JSON integer"):
        G_.group_from_descriptor(d)
