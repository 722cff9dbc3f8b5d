"""Catalog of finitely generated groups with decidable normal forms.

Every group exposes a normal-form payload type (nested tuples of ints), a
symmetric generating set, and deterministic element ordering, so that
word-metric balls, certificates and searches are reproducible byte for byte.

An element's one written form is its label: ``fmt(p)``, ``fmt_rows(X)`` on
coordinate rows, ``Ball.labels()`` for a ball (``row_text(X)`` and
``Ball.label_text()`` give the same labels as NUL-ended text chunks, the
form ``canonical.Chunks`` writes). No group parses a label; a
reader looks it up among its ball's labels. ``group_from_descriptor``
reads back exactly a group's ``descriptor()``.

Word-metric balls come from ``ball()``, the one ball layer. It keeps the
balls it built in a bounded process-wide memo, so every caller asking for
the same (group, radius) gets the same ``Ball`` object. Balls are therefore
read-only: their elements, lengths and product table cannot be written.

A finite quotient G -> F (``LatticeHNF``, ``CongruenceMod``) is a finite
group in the same vocabulary as ``FiniteCyclic`` and ``FiniteSym``:
``elements()`` in key order, ``identity()``, ``mul``, ``inv``, ``key`` and
``fmt``, plus ``map`` (the quotient map G -> F) and ``index`` (the order
of F).

``FreeAbelian`` and ``Heisenberg`` have a coordinate form: ``coords(p)`` is
a payload's ints in ``key`` order, ``payloads(X)`` its inverse row by row,
``fmt_rows(X)`` the ``fmt`` of each row (``row_text(X)`` the same as text
chunks), and ``mul_array(X, Y)`` the group
law on broadcasting int64 arrays of such rows. Their quotients add
``map_array`` (the quotient map on rows) and ``slot`` (a residue row's
position in ``elements()``). For these groups the ball is its elements'
rows, ``Ball.coords()``, in ball order; its payloads are built only when
read. The ball of Z^d is the l^1 ball in closed form (``_l1_ball``), that
of Heisenberg(1) is built from its word-length intervals, level by level
(``_interval_ball``), and that of Heisenberg(l >= 2) one BFS level at a
time on arrays. ``Ball.products()`` and
``kernel_witness`` are array computations. ``Ball.products()`` finds each
product row in a dense int32 grid of slots over the ball's bounding box, a
bounds check and a gather, when the box has at most |B|^2 cells (no more
than the table it fills), and by a search over the sorted rows otherwise
(Z^40 at radius 2, say); the rule reads only the ball, never an option.
``quotient_action(Q, X)`` is
the left translation of Q by the images of coordinate rows X, one int64
row of slots per row of X.
Every other group keeps the scalar loops over ``mul``; ``Ball.coords()``
is then None.

``table(F)`` is the one product table of a finite group F, an int64 array
indexed by the slots of ``F.elements()``: a quotient's is
``quotient_action`` on its own elements' rows, and ``FiniteCyclic`` and
``FiniteSym`` fill theirs from ``mul``. ``table(F, xs)`` is only the rows
of the left factors xs, so a ball's rows cost O(|B| |F|), not O(|F|^2).
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import re
import threading
from collections import OrderedDict
from types import MappingProxyType

import numpy as np


class BallCapExceeded(Exception):
    """Raised when ball enumeration would exceed the configured element cap."""

    def __init__(self, group, radius, cap):
        self.group = group
        self.radius = radius
        self.cap = cap
        super().__init__(
            f"ball of radius {radius} in {group} exceeds element cap {cap}")


class Group:
    """Base class: a group with fixed symmetric generating set and normal forms.

    Payloads are hashable nested tuples; two elements are equal iff their
    payloads are identical (normal forms are canonical).
    """

    kind = "abstract"

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def generators(self):
        """List of (label, payload), closed under formal inverse, fixed order."""
        raise NotImplementedError

    def key(self, p):
        """Total-order sort key (nested tuple of ints) for determinism."""
        raise NotImplementedError

    def fmt(self, p):
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError

    def presentation(self):
        """A complete presentation of the group on its generator labels, a
        list of relator words (tuples of labels), or None when none is
        written down. Complete: the relators' normal closure in the free
        group on the labels, each label x^-1 the formal inverse of x, is the
        whole kernel onto the group, so by von Dyck's theorem images that
        satisfy every relator define a homomorphism of the group."""
        return None

    def __repr__(self):
        """The group as parse_group reads it: its JSON descriptor, unless
        the kind has a shorter spelling."""
        return json.dumps(self.descriptor())

    def __eq__(self, other):
        return isinstance(other, Group) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(json.dumps(self.descriptor(), sort_keys=True))


class Ball:
    """Word-metric ball B(n) of a group: canonically ordered elements (the
    identity first) plus length map.

    A loop-built ball holds its payloads ``elements`` and their
    ``lengths``. A ball of a group with a coordinate form holds only its
    rows ``coords()`` and the number of elements of each length,
    ``sizes``; it builds ``elements``, ``lengths`` and the slot dict behind
    ``in`` and ``index()`` on first read, from the rows. ``len()``,
    ``labels()``, ``label_text()`` and ``tree()`` read the rows and build
    none of them.

    A Ball is shared by every caller of ``ball()`` in the process, so it is
    read-only: ``elements`` and ``sizes`` are tuples, ``lengths`` a
    read-only mapping and ``coords()``, ``products()`` and ``tree()``
    read-only arrays. Each field built on demand is stored only once it is
    complete, so a thread that reads it sees all of it or builds its own
    equal copy."""

    def __init__(self, group, radius, elements=None, lengths=None,
                 coords=None, sizes=None):
        """Either the payloads ``elements`` in ball order and their
        ``lengths``, or the int64 rows ``coords`` in ball order and
        ``sizes``, the number of rows of each length 0, 1, ..."""
        self.group = group
        self.radius = radius
        if coords is None:
            self._elements = tuple(elements)
            self._lengths = MappingProxyType(lengths)
            self._size = len(self._elements)
        else:
            coords.flags.writeable = False
            self._elements = self._lengths = None
            self._sizes = tuple(sizes)
            self._size = len(coords)
        self._coords = coords
        self._slots = None
        self._lookup = None
        self._products = None
        self._tree = None

    @property
    def elements(self):
        """The payloads in ball order, a tuple."""
        if self._elements is None:
            self._elements = tuple(self.group.payloads(self._coords))
        return self._elements

    @property
    def lengths(self):
        """The word length of each element, a read-only mapping."""
        if self._lengths is None:
            self._lengths = MappingProxyType(dict(zip(
                self.elements, itertools.chain.from_iterable(
                    itertools.repeat(r, size)
                    for r, size in enumerate(self._sizes)))))
        return self._lengths

    @property
    def sizes(self):
        """The number of elements of each length 0, 1, ..., a tuple; the
        elements of length r are the slots after those of the lengths
        below r."""
        if self._coords is not None:
            return self._sizes
        return tuple(np.bincount(list(self._lengths.values())).tolist())

    def _slot_dict(self):
        if self._slots is None:
            self._slots = dict(zip(self.elements, range(self._size)))
        return self._slots

    def __len__(self):
        return self._size

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p):
        return p in self._slot_dict()

    def index(self, p):
        return self._slot_dict()[p]

    def length(self, p):
        return self.lengths[p]

    def labels(self):
        """``group.fmt(p)`` for each element p, in ball order. A group with
        a coordinate form formats the rows, without building payloads."""
        if self._coords is None:
            return [self.group.fmt(p) for p in self._elements]
        return self.group.fmt_rows(self._coords)

    def label_text(self):
        """The labels in ball order as an iterable of text chunks, each
        label ended by NUL (no label holds one), as ``canonical.Chunks``
        writes a list of strs. A group with a coordinate form formats the
        rows block by block, with no str per label."""
        if self._coords is None:
            return ["".join([label + "\0" for label in self.labels()])]
        return self.group.row_text(self._coords)

    def coords(self):
        """The elements' coordinate rows in ball order, an int64 |B| x k
        array, for a group with a coordinate form; None otherwise."""
        return self._coords

    def slots(self, R):
        """The slot of each row of the int64 array R among ``coords()``,
        int32, or -1 for a row outside the ball; a ball with a coordinate
        form only. The lookup (_grid_slots) is built on the first call and
        kept."""
        if self._lookup is None:
            self._lookup = _grid_slots(self._coords) \
                or _sorted_slots(self._coords)
        return self._lookup(R)

    def tree(self):
        """A spanning tree of the ball along geodesics, for a ball with a
        coordinate form; None otherwise. (parent, letter), two read-only
        intp arrays over the slots: for each slot g > 0, elements[parent[g]]
        has length one less than elements[g], and times the generator at
        position letter[g] of ``group.generators()`` it is elements[g]; the
        identity's entries are -1. Each element takes the first generator s
        whose inverse steps it one length down, its parent being g s^-1.
        Built on the first call and kept."""
        if self._tree is None and self._coords is not None:
            self._tree = _tree(self)
        return self._tree

    def products(self):
        """Product table: an int32 |B| x |B| array whose entry [i, j] is the
        slot of elements[i] * elements[j], or -1 when that product leaves
        the ball. Built on the first call and kept; the array is read-only."""
        if self._products is None:
            table = _products_loop(self) if self._coords is None \
                else _products_array(self)
            table.flags.writeable = False
            self._products = table
        return self._products


def _products_loop(B):
    mul, slot = B.group.mul, B._slot_dict().get
    els = B.elements
    # filled row by row, so no |B|^2 list of Python ints is built
    table = np.empty((len(els), len(els)), dtype=np.int32)
    for i, g in enumerate(els):
        table[i] = [slot(mul(g, h), -1) for h in els]
    return table


# entries of the largest int64 temporary an array computation over a ball
# builds at once (512 kB); longer computations run in blocks of rows
BLOCK = 1 << 16


def _rows(X):
    """The rows of a 2-d int64 array as one opaque value each, so that rows
    sort, compare and search as scalars. The byte order is not the
    numeric one: use it for equality and membership only."""
    X = np.ascontiguousarray(X)
    return X.view(np.dtype((np.void, X.dtype.itemsize * X.shape[1]))).ravel()


def _products_array(B):
    C = B.coords()
    size, k = C.shape
    table = np.empty((size, size), dtype=np.int32)
    step = max(1, BLOCK // (size * k))
    for i in range(0, size, step):
        P = B.group.mul_array(C[i:i + step, None], C[None])
        table[i:i + step] = B.slots(P.reshape(-1, k)).reshape(-1, size)
    return table


def _tree(B):
    """Ball.tree() of the coordinate ball B, in blocks of BLOCK entries of
    rows: every element but the identity has a geodesic, and its last
    letter s gives a parent g s^-1 one length down, inside B."""
    G, C = B.group, B.coords()
    size, k = C.shape
    back = np.array([G.coords(G.inv(s)) for _, s in G.generators()],
                    dtype=np.int64)
    length = np.repeat(np.arange(len(B.sizes)), B.sizes)
    parent = np.full(size, -1, dtype=np.intp)
    letter = np.full(size, -1, dtype=np.intp)
    step = max(1, BLOCK // k)
    for i in range(1, size, step):
        below = length[i:i + step] - 1
        # views of this block's entries, filled letter by letter
        par, let = parent[i:i + step], letter[i:i + step]
        for s, row in enumerate(back):
            q = B.slots(G.mul_array(C[i:i + step], row[None]))
            new = (par < 0) & (q >= 0) & (length[q] == below)
            par[new], let[new] = q[new], s
    if (parent[1:] < 0).any():
        raise AssertionError(f"an element of B({B.radius}) has no parent")
    parent.flags.writeable = letter.flags.writeable = False
    return parent, letter


def _grid_slots(C):
    """The lookup of rows among the rows C: a function from an int64 array
    of rows to the int32 slot in C of each, or -1. A dense int32 grid over
    the bounding box of C, slot at the mixed-radix position of the row (see
    _box_slot) and -1 elsewhere, so a lookup is a bounds check and a
    gather. None when the box has more than len(C)^2 cells: the product
    table a ball fills has len(C)^2 entries, so the grid never costs more
    than the table."""
    lo, hi = C.min(axis=0), C.max(axis=0)
    sides = (hi - lo + 1).tolist()
    if math.prod(sides) > len(C) ** 2:
        return None
    grid = np.full(math.prod(sides), -1, dtype=np.int32)
    grid[_box_slot(C - lo, sides)] = np.arange(len(C), dtype=np.int32)

    def slots(R):
        R = R - lo
        inside = np.clip(R, 0, hi - lo)
        return np.where((inside == R).all(axis=1),
                        grid[_box_slot(inside, sides)], -1)
    return slots


def _sorted_slots(C):
    """The lookup of _grid_slots by a search over the sorted void keys of
    the rows C (_rows), for a bounding box too large for a grid."""
    keys = _rows(C)
    order = np.argsort(keys)
    keys = keys[order]

    def slots(R):
        R = _rows(R)
        pos = np.minimum(np.searchsorted(keys, R), len(keys) - 1)
        return np.where(keys[pos] == R, order[pos], -1)
    return slots


DEFAULT_BALL_CAP = 10 ** 6

# Distinct (group, radius) balls kept by ball(), least recently used evicted
# first. The profile/audit/rfgrowth pipelines ask for ~130 distinct balls, so
# all of them stay resident; the bound keeps a long-lived process from growing
# without limit.
_BALL_MEMO_SIZE = 256
_balls = OrderedDict()
_balls_lock = threading.Lock()


def ball(G, n, cap=DEFAULT_BALL_CAP):
    """Exact ball of radius n around the identity: the l^1 ball for Z^d,
    word-length intervals for Heisenberg(1), BFS over the generating set
    otherwise.

    Elements are ordered by (word length, payload sort key). Raises
    BallCapExceeded if the ball has more than ``cap`` elements; a ball not
    yet built stops its BFS as soon as it passes the cap, and the closed
    forms count it before building a row.

    Balls are memoized per process by (group descriptor, radius): repeated
    calls return the same read-only Ball. A BFS aborted by the cap is never
    kept.
    """
    n = _radius(n)
    # Group.__eq__'s descriptor equality, serialized once per call
    key = (json.dumps(G.descriptor(), sort_keys=True), n)
    with _balls_lock:
        B = _balls.get(key)
        if B is not None:
            _balls.move_to_end(key)
    if B is None:
        built = _bfs_ball(G, n, cap)
        with _balls_lock:
            B = _balls.setdefault(key, built)
            if len(_balls) > _BALL_MEMO_SIZE:
                _balls.popitem(last=False)
    # checked after a fresh build too: the BFS never counts the identity
    # against the cap, so a cap below 1 is caught only here
    if len(B) > cap:
        raise BallCapExceeded(G, n, cap)
    return B


def _radius(n):
    # a non-integer radius fails here whether or not its ball is memoized
    n = operator.index(n)
    if n < 0:
        raise ValueError("radius must be nonnegative")
    return n


def _bfs_ball(G, n, cap):
    if not hasattr(G, "mul_array"):
        return _bfs_ball_loop(G, n, cap)
    if isinstance(G, FreeAbelian):
        return _l1_ball(G, n, cap)
    if isinstance(G, Heisenberg) and G.l == 1:
        return _interval_ball(G, n, cap)
    return _array_bfs_ball(G, n, cap)


def _l1_size(d, n):
    """|B(n)| of Z^d: 2^k C(d, k) C(n, k) elements with k nonzero
    coordinates."""
    return sum(2 ** k * math.comb(d, k) * math.comb(n, k)
               for k in range(min(d, n) + 1))


def _l1_ball(G, n, cap):
    """B(n) of Z^d, the x with |x|_1 <= n, with no BFS. BallCapExceeded is
    raised from the count, before a row is built. The rows are listed in
    key (lexicographic) order one coordinate at a time: each prefix is
    repeated once for every value -b..b of the next coordinate, b the
    budget n - |prefix|_1 it has left, as _heisenberg_pairs lists its (a,
    b). A stable sort on the length n - b then gives the ball order."""
    if _l1_size(G.d, n) > cap:
        raise BallCapExceeded(G, n, cap)
    coords = np.zeros((1, G.d), dtype=np.int64)
    budget = np.array([n], dtype=np.int64)
    for column in range(G.d):
        reps = 2 * budget + 1
        coords = np.repeat(coords, reps, axis=0)
        # the values -b..b of each prefix, one run of 2b + 1 per prefix
        budget = np.repeat(budget, reps)
        values = np.arange(len(coords)) \
            - np.repeat(np.cumsum(reps) - reps, reps) - budget
        coords[:, column] = values
        budget -= np.abs(values)
    lengths = n - budget
    return Ball(G, n, coords=coords[np.argsort(lengths, kind="stable")],
                sizes=np.bincount(lengths).tolist())


def _array_bfs_ball(G, n, cap):
    gens = np.array([G.coords(s) for _, s in G.generators()], dtype=np.int64)
    k = gens.shape[1]
    levels = [np.array([G.coords(G.identity())], dtype=np.int64)]
    total = 1
    for _ in range(n):
        reached = G.mul_array(levels[-1][:, None], gens[None]).reshape(-1, k)
        # the generating set is symmetric, so a neighbour of level r - 1
        # lies in level r - 2, r - 1 or r
        level = _new_rows(reached, levels[-2:])
        if not len(level):
            break
        total += len(level)
        if total > cap:
            raise BallCapExceeded(G, n, cap)
        levels.append(level)
    return Ball(G, n, coords=np.concatenate(levels),
                sizes=[len(level) for level in levels])


def _new_rows(rows, old):
    """The distinct rows of ``rows`` that are no row of an array in ``old``,
    sorted lexicographically: by (length, key) within one BFS level."""
    A = np.concatenate(old + [rows])
    fresh = np.arange(len(A)) >= len(A) - len(rows)
    # columns left to right, then an old row before an equal fresh one
    order = np.lexsort((fresh,) + tuple(A.T[::-1]))
    A, fresh = A[order], fresh[order]
    first = np.ones(len(A), dtype=bool)
    first[1:] = (A[1:] != A[:-1]).any(axis=1)
    return A[first & fresh]


def _heisenberg_pairs(G, n, cap):
    """The (a, b) with |a| + |b| <= n in lexicographic order, two int64
    arrays, and |B(n)| of Heisenberg(1), counted from the intervals of
    _heisenberg_interval. BallCapExceeded when |B(n)| > cap, raised first
    from the count of pairs, one element of B(n) at least each, so a huge
    radius builds no array."""
    if 2 * n * (n + 1) + 1 > cap:
        raise BallCapExceeded(G, n, cap)
    side = n - np.abs(np.arange(-n, n + 1))
    a = np.repeat(np.arange(-n, n + 1), 2 * side + 1)
    # the position of (a, 0) in each row of pairs
    middle = np.repeat(np.cumsum(2 * side + 1) - side - 1, 2 * side + 1)
    b = np.arange(len(a)) - middle
    low, high = _heisenberg_interval(a, b, n)
    size = int((high - low + 1).sum())
    if size > cap:
        raise BallCapExceeded(G, n, cap)
    return a, b, size


def _heisenberg_interval(a, b, r):
    """The c with |(a, b, c)| <= r in Heisenberg(1), an interval [low,
    high], for r >= |a| + |b|; broadcasts over a, b and r.

    In the coordinates x^a y^b = (a, b, ab), take a, b >= 0 first. The c
    in [0, ab] have length a + b. Above ab the shortest words are
    y^(b-t) x^p y^t x^(a-p) with p >= a and t >= b, which give c = pt at
    length 2(p + t) - a - b (S. Blachère, "Word distance on the discrete
    Heisenberg group", Colloq. Math. 95 (2003) 21-36). With s = (r + a +
    b) // 2 the largest c of length at most r is therefore M = p0 (s - p0)
    at p0 = clamp(s // 2, a, s - b). The inverse with both signs of a, b
    flipped maps c to ab - c, so the interval is [ab - M, M]. Negating a,
    or b, negates c: for ab < 0 it is [-M, M - |a||b|]."""
    u, v = np.abs(a), np.abs(b)
    s = (r + u + v) // 2
    p = np.clip(s // 2, u, s - v)
    M = p * (s - p)
    low = np.where(a * b < 0, -M, u * v - M)
    return low, low + 2 * M - u * v


def _interval_ball(G, n, cap):
    """B(n) of Heisenberg(1) from the intervals of _heisenberg_interval,
    with no BFS: level r is the interval at r less the one at r - 1 for
    each (a, b), a run of c below it and a run above it. Listed by (a, b),
    below before above, the runs are (a, b, c) in key order, so the levels
    one after another are the ball order."""
    a, b, size = _heisenberg_pairs(G, n, cap)
    k = np.abs(a) + np.abs(b)
    # one row per level r = 0..n; below its first level k a pair keeps I_k
    r = np.arange(n + 1)[:, None]
    low, high = _heisenberg_interval(a, b, np.maximum(r, k))
    # the interval one level down, and at level k an empty one above I_k
    low_before = np.where(r == k, high + 1, np.vstack([low[:1], low[:-1]]))
    high_before = np.where(r == k, high, np.vstack([high[:1], high[:-1]]))
    # the runs by (level, pair, below or above): the ball order
    starts = np.stack([low, high_before + 1], axis=-1).ravel()
    runs = np.stack([low_before - low, high - high_before], axis=-1)
    sizes = runs.sum(axis=(1, 2)).tolist()
    runs = runs.ravel()
    coords = np.empty((size, 3), dtype=np.int64)
    for column, values in enumerate((a, b)):
        coords[:, column] = np.repeat(np.tile(np.repeat(values, 2), n + 1),
                                      runs)
    coords[:, 2] = np.repeat(starts - (np.cumsum(runs) - runs), runs)
    coords[:, 2] += np.arange(size)
    return Ball(G, n, coords=coords, sizes=sizes)


def _bfs_ball_loop(G, n, cap):
    e = G.identity()
    lengths = {e: 0}
    frontier = [e]
    gens = [p for _, p in G.generators()]
    for r in range(1, n + 1):
        nxt = []
        for g in frontier:
            for s in gens:
                h = G.mul(g, s)
                if h not in lengths:
                    lengths[h] = r
                    nxt.append(h)
                    if len(lengths) > cap:
                        raise BallCapExceeded(G, n, cap)
        frontier = nxt
        if not nxt:
            break
    elements = sorted(lengths, key=lambda p: (lengths[p], G.key(p)))
    return Ball(G, n, elements, lengths)


def growth(G, n):
    """|B(n)|, the growth function: len(ball(G, n)), BallCapExceeded above
    DEFAULT_BALL_CAP included. Z^d and Heisenberg(1) count without a ball:
    Z^d by _l1_size, and Heisenberg(1) sums the intervals of
    _heisenberg_interval."""
    n, cap = _radius(n), DEFAULT_BALL_CAP
    if isinstance(G, FreeAbelian):
        size = _l1_size(G.d, n)
        if size > cap:
            raise BallCapExceeded(G, n, cap)
        return size
    if isinstance(G, Heisenberg) and G.l == 1:
        return _heisenberg_pairs(G, n, cap)[2]
    return len(ball(G, n))


def kernel_witness(G, Q, r):
    """First non-identity element of B(r), in ball order, lying in the
    kernel of the finite quotient Q of G; None when the kernel misses it."""
    if Q.parent != G:
        raise ValueError(f"{Q.kind} is a quotient of {Q.parent}, not of {G}")
    C = ball(G, r).coords()
    hits = np.flatnonzero(~Q.map_array(C[1:]).any(axis=1))
    # the one payload asked for, not the ball's whole elements tuple
    return G.payloads(C[hits[:1] + 1])[0] if len(hits) else None


def quotient_action(Q, X):
    """Left translation of the finite quotient Q by the image of each
    coordinate row of X, an int64 array of rows of Q.parent: the int64
    array whose row i lists the slots in Q.elements() of Q.map(X[i]) * y,
    for y in Q.elements()."""
    G = Q.parent
    X = Q.map_array(X)
    E = np.array([G.coords(y) for y in Q.elements()], dtype=np.int64)
    out = np.empty((len(X), len(E)), dtype=np.int64)
    step = max(1, BLOCK // E.size)
    for i in range(0, len(X), step):
        out[i:i + step] = Q.slot(Q.map_array(
            G.mul_array(X[i:i + step, None], E[None])))
    return out


def table(F, xs=None):
    """Product table of the finite group F: an int64 array with one row per
    left factor of the nonempty ``xs`` (by default F.elements(), giving the
    |F| x |F| table) whose entry [i, j] is the slot in F.elements() of
    xs[i] * elements[j]. A quotient with ``map_array`` is the action of the
    factors' rows; any other finite group multiplies with ``mul``."""
    elems = F.elements()
    xs = elems if xs is None else list(xs)
    if hasattr(F, "map_array"):
        X = np.array([F.parent.coords(y) for y in xs], dtype=np.int64)
        return quotient_action(F, X)
    slot = {p: i for i, p in enumerate(elems)}
    # filled row by row, so no |xs| x |F| list of Python ints is built
    out = np.empty((len(xs), len(elems)), dtype=np.int64)
    for i, a in enumerate(xs):
        out[i] = [slot[F.mul(a, b)] for b in elems]
    return out


# ---------------------------------------------------------------------------
# string helpers

def _split_top(s, sep):
    """Split s at occurrences of sep that sit at bracket depth 0."""
    parts = []
    depth = 0
    cur = []
    for ch in s:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _template(n):
    """The %-template that prints n ints as one coordinate tuple."""
    return "(" + ",".join(["%d"] * n) + ")"


def _row_text(template, X):
    """The labels ``template % row`` of the rows of the int64 array X as
    text chunks, one per block of rows (BLOCK ints), each label ended by
    NUL, so that no temporary grows with the ball. A block whose columns
    repeat their values is one gather from a table that holds each value
    of each column's range once, already formatted with its piece of the
    template, and one join. A block whose columns hardly repeat, such as
    one of Z's, is one ``%`` over its ints: a table entry costs about as
    much as two formatted ints, so the table pays only when it has fewer
    entries than half the block's ints."""
    parts = template.split("%d")
    ends = [""] * (len(parts) - 2) + [parts[-1] + "\0"]
    step = BLOCK // X.shape[1]
    for i in range(0, len(X), step):
        Y = X[i:i + step]
        lo, hi = Y.min(axis=0), Y.max(axis=0)
        entries = sum(hi.tolist()) - sum(lo.tolist()) + len(lo)
        if 2 * entries > Y.size:
            yield (template + "\0") * len(Y) % tuple(Y.ravel().tolist())
            continue
        pieces, start = [], []
        for pre, end, a, b in zip(parts, ends, lo.tolist(), hi.tolist()):
            start.append(len(pieces))
            pieces += [f"{pre}{v}{end}" for v in range(a, b + 1)]
        index = Y - lo
        index += start
        yield "".join(np.array(pieces, dtype=object)[index].ravel().tolist())


def _fmt_rows(template, X):
    """``template % row`` for each row of the int64 array X, read off
    _row_text's chunks."""
    labels = []
    for text in _row_text(template, X):
        labels += text.split("\0")[:-1]
    return labels


# ---------------------------------------------------------------------------
# catalog groups

class FreeAbelian(Group):
    """Z^d with generating set {+-e_i}, l^1 word metric."""

    kind = "FreeAbelian"

    def __init__(self, d):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = d
        # fmt, fmt_rows and row_text share it, so a row and its payload
        # print alike
        self._template = "%d" if d == 1 else _template(d)

    def identity(self):
        return (0,) * self.d

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def generators(self):
        gens = []
        for i in range(self.d):
            e = tuple(1 if j == i else 0 for j in range(self.d))
            gens.append((f"x{i + 1}", e))
            gens.append((f"x{i + 1}^-1", self.inv(e)))
        return gens

    def presentation(self):
        """The commutators x_i x_j x_i^-1 x_j^-1, i < j."""
        return [(f"x{i}", f"x{j}", f"x{i}^-1", f"x{j}^-1")
                for i in range(1, self.d + 1)
                for j in range(i + 1, self.d + 1)]

    def key(self, p):
        return p

    def coords(self, p):
        return p

    def payloads(self, X):
        return list(zip(*X.T.tolist()))

    def mul_array(self, X, Y):
        return X + Y

    def fmt(self, p):
        return self._template % p

    def fmt_rows(self, X):
        return _fmt_rows(self._template, X)

    def row_text(self, X):
        return _row_text(self._template, X)

    def descriptor(self):
        return {"kind": self.kind, "params": {"d": self.d}}

    def __repr__(self):
        return "Z" if self.d == 1 else f"Z^{self.d}"


class Free(Group):
    """Free group of given rank; payloads are reduced words.

    Letters are nonzero ints: i stands for x_i, -i for its inverse.
    """

    kind = "Free"

    def __init__(self, rank):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank

    def identity(self):
        return ()

    def mul(self, a, b):
        out = list(a)
        for ch in b:
            if out and out[-1] == -ch:
                out.pop()
            else:
                out.append(ch)
        return tuple(out)

    def inv(self, a):
        return tuple(-ch for ch in reversed(a))

    def generators(self):
        gens = []
        for i in range(1, self.rank + 1):
            gens.append((f"x{i}", (i,)))
            gens.append((f"x{i}^-1", (-i,)))
        return gens

    def presentation(self):
        return []

    def key(self, p):
        # sort by length, then letters; encode sign so x1 < x1^-1
        return (len(p),) + tuple(2 * abs(c) + (1 if c < 0 else 0) for c in p)

    def fmt(self, p):
        if not p:
            return "e"
        return " ".join(f"x{c}" if c > 0 else f"x{-c}^-1" for c in p)

    def descriptor(self):
        return {"kind": self.kind, "params": {"rank": self.rank}}

    def __repr__(self):
        return f"F{self.rank}"


class Heisenberg(Group):
    """Discrete Heisenberg group H_{2l+1} in normal-form coordinates.

    Payload (a, b, c) with a, b integer l-vectors and c an integer; the law is
        (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a.b')
    which matches multiplication of (l+2)x(l+2) upper-unitriangular matrices
    [[1, a, c], [0, I, b^T], [0, 0, 1]]. Generators x_i (a-direction) and
    y_i (b-direction) with inverses.
    """

    kind = "Heisenberg"

    def __init__(self, l=1):
        if l < 1:
            raise ValueError("l must be >= 1")
        self.l = l
        # fmt, fmt_rows and row_text share it, so a row and its payload
        # print alike
        self._template = _template(2 * l + 1)

    def identity(self):
        return ((0,) * self.l, (0,) * self.l, 0)

    def mul(self, p, q):
        a, b, c = p
        a2, b2, c2 = q
        dot = sum(x * y for x, y in zip(a, b2))
        return (tuple(x + y for x, y in zip(a, a2)),
                tuple(x + y for x, y in zip(b, b2)),
                c + c2 + dot)

    def inv(self, p):
        a, b, c = p
        dot = sum(x * y for x, y in zip(a, b))
        return (tuple(-x for x in a), tuple(-x for x in b), -c + dot)

    def generators(self):
        gens = []
        for i in range(self.l):
            a = tuple(1 if j == i else 0 for j in range(self.l))
            z = (0,) * self.l
            x = (a, z, 0)
            y = (z, a, 0)
            gens.append((f"x{i + 1}", x))
            gens.append((f"x{i + 1}^-1", self.inv(x)))
            gens.append((f"y{i + 1}", y))
            gens.append((f"y{i + 1}^-1", self.inv(y)))
        return gens

    def presentation(self):
        """For l = 1 the class-two relators [x1, [x1, y1]] and [y1, [x1,
        y1]], [a, b] = a b a^-1 b^-1: Heisenberg(1) is the free nilpotent
        group of class two on x1, y1. None is written for l >= 2."""
        if self.l != 1:
            return None
        comm = ("x1", "y1", "x1^-1", "y1^-1")
        comm_inv = ("y1", "x1", "y1^-1", "x1^-1")
        return [(t,) + comm + (t + "^-1",) + comm_inv for t in ("x1", "y1")]

    def key(self, p):
        return p[0] + p[1] + (p[2],)

    def coords(self, p):
        return self.key(p)

    def payloads(self, X):
        l = self.l
        cols = X.T.tolist()
        return list(zip(zip(*cols[:l]), zip(*cols[l:2 * l]), cols[2 * l]))

    def mul_array(self, X, Y):
        l = self.l
        Z = X + Y
        Z[..., 2 * l] += (X[..., :l] * Y[..., l:2 * l]).sum(axis=-1)
        return Z

    def fmt(self, p):
        return self._template % self.key(p)

    def fmt_rows(self, X):
        return _fmt_rows(self._template, X)

    def row_text(self, X):
        return _row_text(self._template, X)

    def descriptor(self):
        return {"kind": self.kind, "params": {"l": self.l}}

    def __repr__(self):
        return f"Heisenberg({self.l})"


class FiniteCyclic(Group):
    """Z/mZ with generators +-1."""

    kind = "FiniteCyclic"

    def __init__(self, m):
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m

    def identity(self):
        return 0

    def mul(self, a, b):
        return (a + b) % self.m

    def inv(self, a):
        return (-a) % self.m

    def generators(self):
        if self.m == 1:
            return [("x", 0)]
        return [("x", 1 % self.m), ("x^-1", (-1) % self.m)]

    def presentation(self):
        return [("x",) * self.m]

    def key(self, p):
        return (p,)

    def fmt(self, p):
        return str(p)

    def order(self):
        return self.m

    def elements(self):
        return list(range(self.m))

    def descriptor(self):
        return {"kind": self.kind, "params": {"m": self.m}}

    def __repr__(self):
        return f"Z/{self.m}"


class FiniteSym(Group):
    """Sym(k) on {0..k-1} with adjacent transpositions, left-action composition."""

    kind = "FiniteSym"

    def __init__(self, k):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k

    def identity(self):
        return tuple(range(self.k))

    def mul(self, a, b):
        # (a o b)(i) = a(b(i))
        return tuple(a[b[i]] for i in range(self.k))

    def inv(self, a):
        out = [0] * self.k
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    def generators(self):
        gens = []
        for i in range(self.k - 1):
            t = list(range(self.k))
            t[i], t[i + 1] = t[i + 1], t[i]
            gens.append((f"s{i + 1}", tuple(t)))
        return gens or [("s1", self.identity())]

    def key(self, p):
        return p

    def fmt(self, p):
        return "[" + ",".join(str(x) for x in p) + "]"

    def order(self):
        return math.factorial(self.k)

    def elements(self):
        return list(itertools.permutations(range(self.k)))

    def descriptor(self):
        return {"kind": self.kind, "params": {"k": self.k}}

    def __repr__(self):
        return f"Sym({self.k})"


class DirectProduct(Group):
    """G x H with generating set S_G x {e} together with {e} x S_H."""

    kind = "DirectProduct"

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def inv(self, a):
        return (self.left.inv(a[0]), self.right.inv(a[1]))

    def generators(self):
        gens = []
        er = self.right.identity()
        el = self.left.identity()
        for lab, p in self.left.generators():
            gens.append((f"L.{lab}", (p, er)))
        for lab, p in self.right.generators():
            gens.append((f"R.{lab}", (el, p)))
        return gens

    def key(self, p):
        return (self.left.key(p[0]), self.right.key(p[1]))

    def fmt(self, p):
        return f"({self.left.fmt(p[0])} | {self.right.fmt(p[1])})"

    def descriptor(self):
        return {"kind": self.kind,
                "params": {"left": self.left.descriptor(),
                           "right": self.right.descriptor()}}


class WreathProduct(Group):
    """Restricted wreath product base wr top.

    Elements are pairs (f, h): f a finitely supported function top -> base
    stored as a support-sorted tuple of (position, value), h in top. The law is

        (f0, h0)(f1, h1) = (t -> f0(h1 t) f1(t), h0 h1)

    so conjugating a lamp at e by a top element h moves it to position h.
    Generators: base generators supported at the top identity, plus top
    generators with empty lamp configuration.
    """

    kind = "WreathFiniteTop"

    def __init__(self, base, top, kind=None):
        self.base = base
        self.top = top
        if kind is not None:
            self.kind = kind

    def identity(self):
        return ((), self.top.identity())

    def normalize(self, fdict):
        """Lamp dict -> support-sorted (position, value) tuple, identity
        values dropped: the lamp part of a payload."""
        eb = self.base.identity()
        items = [(t, v) for t, v in fdict.items() if v != eb]
        items.sort(key=lambda tv: self.top.key(tv[0]))
        return tuple(items)

    def mul(self, p, q):
        f0, h0 = p
        f1, h1 = q
        out = {}
        for t, v in f1:
            out[t] = v
        for t, v in f0:
            # f0 contributes at position s with h1 s = t, i.e. s = h1^-1 t
            s = self.top.mul(self.top.inv(h1), t)
            if s in out:
                out[s] = self.base.mul(v, out[s])
            else:
                out[s] = v
        return (self.normalize(out), self.top.mul(h0, h1))

    def inv(self, p):
        f, h = p
        hinv = self.top.inv(h)
        out = {}
        for t, v in f:
            # (f,h)(g,h^-1) = e forces g(s) = f(h^-1 s)^-1, so the lamp at t
            # moves to h t
            out[self.top.mul(h, t)] = self.base.inv(v)
        return (self.normalize(out), hinv)

    def generators(self):
        gens = []
        et = self.top.identity()
        for lab, v in self.base.generators():
            gens.append((f"b.{lab}", (((et, v),), et)))
        for lab, h in self.top.generators():
            gens.append((f"t.{lab}", ((), h)))
        return gens

    def key(self, p):
        f, h = p
        return (tuple((self.top.key(t), self.base.key(v)) for t, v in f),
                self.top.key(h))

    def fmt(self, p):
        f, h = p
        sup = ", ".join(f"{self.top.fmt(t)}:{self.base.fmt(v)}" for t, v in f)
        return "{" + sup + " | " + self.top.fmt(h) + "}"

    def descriptor(self):
        return {"kind": self.kind,
                "params": {"base": self.base.descriptor(),
                           "top": self.top.descriptor()}}

    def __repr__(self):
        if self.kind == "Lamplighter":
            return f"Lamplighter({self.base!r})"
        return f"Wreath({self.base!r};{self.top!r})"


def Lamplighter(base):
    """base wr Z, e.g. the classical lamplighter for base = Z/2."""
    return WreathProduct(base, FreeAbelian(1), kind="Lamplighter")


# the params each kind's descriptor holds; a size (d, rank, l, m or k) is
# an exact JSON int: true and 1.0 are no ranks
_SIZES = ("d", "rank", "l", "m", "k")
_PARAMS = {"FreeAbelian": ("d",), "Free": ("rank",), "Heisenberg": ("l",),
           "FiniteCyclic": ("m",), "FiniteSym": ("k",),
           "DirectProduct": ("left", "right"),
           "WreathFiniteTop": ("base", "top"), "Lamplighter": ("base", "top")}


def group_from_descriptor(d):
    """The group whose ``descriptor()`` is d, read exactly as written: a
    value that is not a JSON object, a missing field, a field its writer
    does not write, or another value of one it does (a ``Lamplighter`` top
    other than Z), is a ValueError naming it."""
    if not isinstance(d, dict):
        raise ValueError(f"group descriptor {json.dumps(d)} is not a JSON "
                         f"object")
    if "kind" not in d:
        raise ValueError(f"group descriptor {json.dumps(d)} lacks field "
                         f"'kind'")
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in _PARAMS:
        raise ValueError(f"unknown group kind {kind!r}")
    params = d.get("params")
    if not isinstance(params, dict):
        raise ValueError(f"group descriptor {json.dumps(d)} has no params "
                         f"object")
    for key in _PARAMS[kind]:
        if key not in params:
            raise ValueError(f"group descriptor {json.dumps(d)} lacks "
                             f"field {key!r}")
        if key in _SIZES and type(params[key]) is not int:
            raise ValueError(
                f"{key} must be a JSON integer, not {params[key]!r}")
    if kind == "FreeAbelian":
        G = FreeAbelian(params["d"])
    elif kind == "Free":
        G = Free(params["rank"])
    elif kind == "Heisenberg":
        G = Heisenberg(params["l"])
    elif kind == "FiniteCyclic":
        G = FiniteCyclic(params["m"])
    elif kind == "FiniteSym":
        G = FiniteSym(params["k"])
    elif kind == "DirectProduct":
        G = DirectProduct(group_from_descriptor(params["left"]),
                          group_from_descriptor(params["right"]))
    elif kind == "WreathFiniteTop":
        G = WreathProduct(group_from_descriptor(params["base"]),
                          group_from_descriptor(params["top"]))
    else:
        G = Lamplighter(group_from_descriptor(params["base"]))
    if G.descriptor() != d:
        raise ValueError(f"group descriptor {json.dumps(d)} is not "
                         f"{json.dumps(G.descriptor())}, that of its group")
    return G


# the short specs of groups of one size, as repr writes them: the size is
# plain ASCII digits, without a sign or leading zeros
_SHORT_SPECS = [
    (re.compile(pattern.replace("N", "(0|[1-9][0-9]*)")), make)
    for pattern, make in [
        (r"Z\^N", FreeAbelian), (r"FN", Free),
        (r"Heisenberg\(N\)", Heisenberg), (r"Z/N", FiniteCyclic),
        (r"Sym\(N\)", FiniteSym)]]


def parse_group(text):
    """Parse a group spec as repr writes it, like 'Z', 'Z^2',
    'Heisenberg(1)', 'Z/5', 'Sym(3)', 'F2', 'Lamplighter(Z/2)' or
    'Wreath(Z/2;Z/3)' ('Z^1' also reads as Z), or a JSON descriptor;
    repr(G) of every group G parses back to G. Any other spelling is a
    ValueError naming the spec."""
    if text == "Z":
        return FreeAbelian(1)
    for pattern, make in _SHORT_SPECS:
        match = pattern.fullmatch(text)
        if match:
            return make(int(match[1]))
    if text.startswith("Lamplighter(") and text.endswith(")"):
        return Lamplighter(parse_group(text[len("Lamplighter("):-1]))
    if text.startswith("Wreath(") and text.endswith(")"):
        parts = _split_top(text[len("Wreath("):-1], ";")
        if len(parts) == 2:
            return WreathProduct(*map(parse_group, parts))
    try:
        return group_from_descriptor(json.loads(text))
    except json.JSONDecodeError:
        raise ValueError(f"cannot parse group {text!r}") from None


# ---------------------------------------------------------------------------
# quotients

def hnf(rows):
    """Row-style Hermite normal form of a full-rank integer matrix.

    Returns an upper-triangular matrix with positive diagonal and entries
    above each pivot reduced into [0, pivot). Row span is preserved.
    """
    m = [list(r) for r in rows]
    d = len(m[0])
    if any(len(r) != d for r in m):
        raise ValueError("ragged matrix")
    # eliminate below the diagonal, column by column
    for col in range(d):
        piv = None
        for r in range(col, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            raise ValueError("matrix is not full rank")
        m[col], m[piv] = m[piv], m[col]
        r = col + 1
        while r < len(m):
            if m[r][col] == 0:
                r += 1
                continue
            q = m[r][col] // m[col][col]
            m[r] = [x - q * y for x, y in zip(m[r], m[col])]
            if m[r][col] != 0:
                m[col], m[r] = m[r], m[col]
            else:
                r += 1
        if m[col][col] < 0:
            m[col] = [-x for x in m[col]]
    m = m[:d]
    # reduce entries above each pivot
    for col in range(d):
        for r in range(col):
            q = m[r][col] // m[col][col]
            if q:
                m[r] = [x - q * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(r) for r in m)


def _box_slot(R, sides):
    """Positions of the rows R in the box of the given sides listed in key
    order, the last coordinate fastest: mixed-radix numbers."""
    weights = np.cumprod([1] + sides[:0:-1])[::-1]
    return R @ weights


class LatticeHNF:
    """Z^d / L for a finite-index sublattice L, as a finite group.

    Stores the HNF basis of L; elements are the box {v : 0 <= v_i < H_ii}
    and ``map`` subtracts basis rows coordinate by coordinate. Rows are
    upper triangular, so clearing coordinate i only disturbs later
    coordinates and a single ascending sweep lands in the box.
    """

    kind = "LatticeHNF"

    def __init__(self, parent, rows):
        if not isinstance(parent, FreeAbelian):
            raise ValueError("LatticeHNF requires a FreeAbelian parent")
        if not rows or any(len(r) != parent.d for r in rows):
            raise ValueError(f"lattice rows need {parent.d} coordinates each")
        self.parent = parent
        self.rows = hnf(rows)
        self.index = 1
        for i in range(parent.d):
            self.index *= self.rows[i][i]

    def map(self, p):
        v = list(p)
        for i in range(self.parent.d):
            q = v[i] // self.rows[i][i]
            if q:
                v = [x - q * y for x, y in zip(v, self.rows[i])]
        return tuple(v)

    def map_array(self, X):
        for i, row in enumerate(self.rows):
            X = X - (X[..., i] // row[i])[..., None] * np.array(row)
        return X

    def elements(self):
        return list(itertools.product(
            *(range(self.rows[i][i]) for i in range(self.parent.d))))

    def slot(self, R):
        return _box_slot(R, [row[i] for i, row in enumerate(self.rows)])

    def identity(self):
        return self.parent.identity()

    def mul(self, r1, r2):
        return self.map(tuple(x + y for x, y in zip(r1, r2)))

    def inv(self, r):
        return self.map(tuple(-x for x in r))

    def key(self, r):
        return r

    def fmt(self, r):
        return str(r)

    def descriptor(self):
        return {"kind": self.kind, "rows": [list(r) for r in self.rows],
                "parent": self.parent.descriptor()}


class CongruenceMod:
    """Heisenberg(l) with every coordinate reduced mod m, as a finite group."""

    kind = "CongruenceMod"

    def __init__(self, parent, m):
        if not isinstance(parent, Heisenberg):
            raise ValueError("CongruenceMod requires a Heisenberg parent")
        if m < 1:
            raise ValueError("modulus must be >= 1")
        self.parent = parent
        self.m = m
        self.index = m ** (2 * parent.l + 1)

    def map(self, p):
        a, b, c = p
        m = self.m
        return (tuple(x % m for x in a), tuple(x % m for x in b), c % m)

    def map_array(self, X):
        return X % self.m

    def elements(self):
        vecs = list(itertools.product(range(self.m), repeat=self.parent.l))
        return [(a, b, c) for a in vecs for b in vecs for c in range(self.m)]

    def slot(self, R):
        return _box_slot(R, [self.m] * (2 * self.parent.l + 1))

    def identity(self):
        return self.parent.identity()

    def mul(self, r1, r2):
        return self.map(self.parent.mul(r1, r2))

    def inv(self, r):
        return self.map(self.parent.inv(r))

    def key(self, r):
        return self.parent.key(r)

    def fmt(self, r):
        return str(r)

    def descriptor(self):
        return {"kind": self.kind, "m": self.m,
                "parent": self.parent.descriptor()}


class SubgroupIndexData:
    """Finite-index subgroup H <= G given by coset data.

    Carries the subgroup as a group in its own right (with its own word
    metric), the embedding H -> G, left-coset representatives (identity
    first), and the partial inverse restrict: G -> H or None.
    """

    kind = "SubgroupIndexData"

    def __init__(self, parent, sub, embed, restrict, reps):
        self.parent = parent
        self.sub = sub
        self.embed = embed
        self.restrict = restrict
        self.reps = list(reps)
        self.index = len(self.reps)
        if self.reps[0] != parent.identity():
            raise ValueError("first coset representative must be the identity")

    def rep_index(self, p):
        """Index i with p in reps[i]H."""
        for i, r in enumerate(self.reps):
            h = self.restrict(self.parent.mul(self.parent.inv(r), p))
            if h is not None:
                return i
        raise ValueError(f"element {p} not covered by coset representatives")

    def decompose(self, p):
        """Return (i, h) with p = reps[i] * embed(h)."""
        i = self.rep_index(p)
        h = self.restrict(self.parent.mul(self.parent.inv(self.reps[i]), p))
        return i, h

    def descriptor(self):
        return {"kind": self.kind, "index": self.index,
                "parent": self.parent.descriptor()}


def index_subgroup_of_Z(m):
    """mZ <= Z as SubgroupIndexData; the subgroup is Z with generator m."""
    parent = FreeAbelian(1)
    sub = FreeAbelian(1)
    return SubgroupIndexData(
        parent, sub,
        embed=lambda h: (m * h[0],),
        restrict=lambda p: (p[0] // m,) if p[0] % m == 0 else None,
        reps=[(i,) for i in range(m)])
