"""Catalog of finitely generated groups with decidable normal forms.

Every group exposes a normal-form payload type (nested tuples of ints), a
symmetric generating set, and deterministic element ordering, so that
word-metric balls, certificates and searches are reproducible byte for byte.

Word-metric balls come from ``ball()``, the one ball layer. It keeps the
balls it built in a bounded process-wide memo, so every caller asking for
the same (group, radius) gets the same ``Ball`` object. Balls are therefore
read-only: their elements, lengths and product table cannot be written.
"""
from __future__ import annotations

import json
import operator
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

    def parse(self, s):
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError

    def __repr__(self):
        return self.fmt_descriptor()

    def fmt_descriptor(self):
        d = self.descriptor()
        params = d.get("params", {})
        inner = ",".join(str(v) for v in params.values())
        return f"{d['kind']}({inner})"

    def __eq__(self, other):
        return isinstance(other, Group) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(json.dumps(self.descriptor(), sort_keys=True))


class Ball:
    """Word-metric ball B(n) of a group: canonically ordered elements (the
    identity first) plus length map.

    A Ball is shared by every caller of ``ball()`` in the process, so it is
    read-only: ``elements`` is a tuple, ``lengths`` a read-only mapping and
    ``products()`` a read-only array."""

    def __init__(self, group, radius, elements, lengths):
        self.group = group
        self.radius = radius
        self.elements = tuple(elements)
        self.lengths = MappingProxyType(lengths)
        self._index = {p: i for i, p in enumerate(self.elements)}
        self._products = None

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p):
        return p in self._index

    def index(self, p):
        return self._index[p]

    def length(self, p):
        return self.lengths[p]

    def products(self):
        """Product table: an int32 |B| x |B| array whose entry [i, j] is the
        slot of elements[i] * elements[j], or -1 when that product leaves
        the ball. Built on the first call and kept; the array is read-only."""
        if self._products is None:
            mul, slot = self.group.mul, self._index.get
            els = self.elements
            # filled row by row, so no |B|^2 list of Python ints is built
            table = np.empty((len(els), len(els)), dtype=np.int32)
            for i, g in enumerate(els):
                table[i] = [slot(mul(g, h), -1) for h in els]
            table.flags.writeable = False
            self._products = table
        return self._products


DEFAULT_BALL_CAP = 10 ** 6

# Distinct (group, radius) balls kept by ball(), least recently used evicted
# first. The profile/audit/rfgrowth pipelines ask for ~130 distinct balls, so
# all of them stay resident; the bound keeps a long-lived process from growing
# without limit.
_BALL_MEMO_SIZE = 256
_balls = OrderedDict()
_balls_lock = threading.Lock()


def ball(G, n, cap=DEFAULT_BALL_CAP):
    """Exact ball of radius n around the identity, BFS over the generating set.

    Elements are ordered by (word length, payload sort key). Raises
    BallCapExceeded if the ball has more than ``cap`` elements; a ball not
    yet built stops its BFS as soon as it passes the cap.

    Balls are memoized per process by (group descriptor, radius): repeated
    calls return the same read-only Ball. A BFS aborted by the cap is never
    kept.
    """
    # a non-integer radius fails here whether or not its ball is memoized
    n = operator.index(n)
    if n < 0:
        raise ValueError("radius must be nonnegative")
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


def _bfs_ball(G, n, cap):
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
    """|B(n)|, the growth function."""
    return len(ball(G, n))


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


def _ints(s):
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    return tuple(int(t) for t in s.split(",")) if s.strip() else ()


# ---------------------------------------------------------------------------
# catalog groups

class FreeAbelian(Group):
    """Z^d with generating set {+-e_i}, l^1 word metric."""

    kind = "FreeAbelian"

    def __init__(self, d):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = d

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

    def key(self, p):
        return p

    def fmt(self, p):
        if self.d == 1:
            return str(p[0])
        return "(" + ",".join(str(x) for x in p) + ")"

    def parse(self, s):
        v = _ints(s)
        if len(v) != self.d:
            raise ValueError(f"expected {self.d} coordinates in {s!r}")
        return v

    def descriptor(self):
        return {"kind": self.kind, "params": {"d": self.d}}


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

    def key(self, p):
        # sort by length, then letters; encode sign so x1 < x1^-1
        return (len(p),) + tuple(2 * abs(c) + (1 if c < 0 else 0) for c in p)

    def fmt(self, p):
        if not p:
            return "e"
        return " ".join(f"x{c}" if c > 0 else f"x{-c}^-1" for c in p)

    def parse(self, s):
        s = s.strip()
        if s == "e":
            return ()
        word = []
        for tok in s.split():
            if tok.endswith("^-1"):
                word.append(-int(tok[1:-3]))
            else:
                word.append(int(tok[1:]))
        out = ()
        for ch in word:
            out = self.mul(out, (ch,))
        return out

    def descriptor(self):
        return {"kind": self.kind, "params": {"rank": self.rank}}


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

    def key(self, p):
        return p[0] + p[1] + (p[2],)

    def fmt(self, p):
        return "(" + ",".join(str(x) for x in self.key(p)) + ")"

    def parse(self, s):
        v = _ints(s)
        if len(v) != 2 * self.l + 1:
            raise ValueError(f"expected {2 * self.l + 1} coordinates in {s!r}")
        return (v[:self.l], v[self.l:2 * self.l], v[2 * self.l])

    def descriptor(self):
        return {"kind": self.kind, "params": {"l": self.l}}


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

    def key(self, p):
        return (p,)

    def fmt(self, p):
        return str(p)

    def parse(self, s):
        return int(s.strip()) % self.m

    def order(self):
        return self.m

    def elements(self):
        return list(range(self.m))

    def descriptor(self):
        return {"kind": self.kind, "params": {"m": self.m}}


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

    def parse(self, s):
        s = s.strip()
        if s.startswith("[") and s.endswith("]"):
            s = s[1:-1]
        p = tuple(int(t) for t in s.split(","))
        if sorted(p) != list(range(self.k)):
            raise ValueError(f"not a permutation of 0..{self.k - 1}: {s!r}")
        return p

    def order(self):
        import math
        return math.factorial(self.k)

    def elements(self):
        from itertools import permutations
        return [tuple(p) for p in permutations(range(self.k))]

    def descriptor(self):
        return {"kind": self.kind, "params": {"k": self.k}}


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

    def parse(self, s):
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"bad product element {s!r}")
        parts = _split_top(s[1:-1], "|")
        if len(parts) != 2:
            raise ValueError(f"bad product element {s!r}")
        return (self.left.parse(parts[0]), self.right.parse(parts[1]))

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

    def _norm(self, fdict):
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
        return (self._norm(out), self.top.mul(h0, h1))

    def inv(self, p):
        f, h = p
        hinv = self.top.inv(h)
        out = {}
        for t, v in f:
            # (f,h)(g,h^-1) = e forces g(s) = f(h^-1 s)^-1, so the lamp at t
            # moves to h t
            out[self.top.mul(h, t)] = self.base.inv(v)
        return (self._norm(out), hinv)

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

    def parse(self, s):
        s = s.strip()
        if not (s.startswith("{") and s.endswith("}")):
            raise ValueError(f"bad wreath element {s!r}")
        body, top = _split_top(s[1:-1], "|")
        h = self.top.parse(top)
        out = {}
        body = body.strip()
        if body:
            for item in _split_top(body, ","):
                pos, val = _split_top(item, ":")
                out[self.top.parse(pos)] = self.base.parse(val)
        return (self._norm(out), h)

    def descriptor(self):
        return {"kind": self.kind,
                "params": {"base": self.base.descriptor(),
                           "top": self.top.descriptor()}}


def Lamplighter(base):
    """base wr Z, e.g. the classical lamplighter for base = Z/2."""
    return WreathProduct(base, FreeAbelian(1), kind="Lamplighter")


def group_from_descriptor(d):
    kind = d["kind"]
    params = d.get("params", {})
    if kind == "FreeAbelian":
        return FreeAbelian(params["d"])
    if kind == "Free":
        return Free(params["rank"])
    if kind == "Heisenberg":
        return Heisenberg(params["l"])
    if kind == "FiniteCyclic":
        return FiniteCyclic(params["m"])
    if kind == "FiniteSym":
        return FiniteSym(params["k"])
    if kind == "DirectProduct":
        return DirectProduct(group_from_descriptor(params["left"]),
                             group_from_descriptor(params["right"]))
    if kind == "WreathFiniteTop":
        return WreathProduct(group_from_descriptor(params["base"]),
                             group_from_descriptor(params["top"]))
    if kind == "Lamplighter":
        return WreathProduct(group_from_descriptor(params["base"]),
                             FreeAbelian(1), kind="Lamplighter")
    raise ValueError(f"unknown group kind {kind!r}")


def parse_group(text):
    """Parse a short group spec like 'Z', 'Z^2', 'Heisenberg(1)', 'F2'."""
    t = text.strip()
    if t in ("Z", "Z^1"):
        return FreeAbelian(1)
    if t.startswith("Z^"):
        return FreeAbelian(int(t[2:]))
    if t.startswith("F") and t[1:].isdigit():
        return Free(int(t[1:]))
    if t.startswith("Heisenberg"):
        inner = t[len("Heisenberg"):].strip("()")
        return Heisenberg(int(inner) if inner else 1)
    if t.startswith("Z/"):
        return FiniteCyclic(int(t[2:]))
    if t.startswith("Sym"):
        return FiniteSym(int(t.strip("Sym()")))
    if t.startswith("Lamplighter(") and t.endswith(")"):
        return Lamplighter(parse_group(t[len("Lamplighter("):-1]))
    if t.startswith("Wreath(") and t.endswith(")"):
        base, top = _split_top(t[len("Wreath("):-1], ";")
        return WreathProduct(parse_group(base), parse_group(top))
    try:
        return group_from_descriptor(json.loads(t))
    except json.JSONDecodeError:
        raise ValueError(f"cannot parse group {text!r}")


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


class LatticeHNF:
    """Finite-index sublattice of Z^d as a quotient descriptor.

    Stores the HNF basis; residues are the box {v : 0 <= v_i < H_ii} and
    reduction subtracts basis rows coordinate by coordinate. Rows are upper
    triangular, so clearing coordinate i only disturbs later coordinates and
    a single ascending sweep lands in the box.
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

    def reduce(self, v):
        v = list(v)
        for i in range(self.parent.d):
            q = v[i] // self.rows[i][i]
            if q:
                v = [x - q * y for x, y in zip(v, self.rows[i])]
        return tuple(v)

    def map(self, p):
        return self.reduce(p)

    def kernel_contains(self, p):
        return self.map(p) == self.parent.identity()

    def residues(self):
        out = []
        diag = [self.rows[i][i] for i in range(self.parent.d)]

        def rec(i, cur):
            if i == len(diag):
                out.append(tuple(cur))
                return
            for x in range(diag[i]):
                rec(i + 1, cur + [x])
        rec(0, [])
        return out

    def residue_key(self, r):
        return r

    def quotient_mul(self, r1, r2):
        return self.reduce(tuple(x + y for x, y in zip(r1, r2)))

    def quotient_inv(self, r):
        return self.reduce(tuple(-x for x in r))

    def identity_residue(self):
        return self.parent.identity()

    def descriptor(self):
        return {"kind": self.kind, "rows": [list(r) for r in self.rows],
                "parent": self.parent.descriptor()}


class CongruenceMod:
    """Congruence quotient of Heisenberg(l): reduce all coordinates mod m."""

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

    def kernel_contains(self, p):
        return self.map(p) == self.parent.identity()

    def residues(self):
        l = self.parent.l
        m = self.m
        out = []

        def vecs():
            vs = [()]
            for _ in range(l):
                vs = [v + (x,) for v in vs for x in range(m)]
            return vs
        for a in vecs():
            for b in vecs():
                for c in range(m):
                    out.append((a, b, c))
        return out

    def residue_key(self, r):
        return self.parent.key(r)

    def quotient_mul(self, r1, r2):
        return self.map(self.parent.mul(r1, r2))

    def quotient_inv(self, r):
        return self.map(self.parent.inv(r))

    def identity_residue(self):
        return self.parent.identity()

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

    def kernel_contains(self, p):
        return self.restrict(p) is not None

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


# ---------------------------------------------------------------------------
# subgroup distortion

class SubgroupEmbedding:
    """H <= G with a membership predicate and intrinsic word length on H."""

    def __init__(self, label, parent, member, sub_length):
        self.label = label
        self.parent = parent
        self.member = member
        self.sub_length = sub_length


def embedding_mZ_in_Z(m):
    return SubgroupEmbedding(
        f"{m}Z<=Z", FreeAbelian(1),
        member=lambda p: p[0] % m == 0,
        sub_length=lambda p: abs(p[0]) // m)


def embedding_axis_in_Z2():
    return SubgroupEmbedding(
        "Zx0<=Z^2", FreeAbelian(2),
        member=lambda p: p[1] == 0,
        sub_length=lambda p: abs(p[0]))


def embedding_center_heisenberg():
    G = Heisenberg(1)
    zero = (0,)

    def member(p):
        return p[0] == zero and p[1] == zero
    return SubgroupEmbedding(
        "center<=Heisenberg", G,
        member=member,
        sub_length=lambda p: abs(p[2]))


def distortion(pair, n):
    """Smallest k >= n with H cap B_G(n) inside B_H(k).

    pair is a SubgroupEmbedding (or SubgroupIndexData for mZ <= Z).
    """
    if isinstance(pair, SubgroupIndexData):
        data = pair
        pair = SubgroupEmbedding(
            "idx", data.parent,
            member=lambda p: data.restrict(p) is not None,
            sub_length=lambda p: _sub_word_length(data, p))
    B = ball(pair.parent, n)
    worst = 0
    for p in B:
        if pair.member(p):
            worst = max(worst, pair.sub_length(p))
    return max(n, worst)


def _sub_word_length(data, p):
    h = data.restrict(p)
    grp = data.sub
    if isinstance(grp, FreeAbelian):
        return sum(abs(x) for x in h)
    # generic: BFS in the subgroup until h is found
    r = 0
    while True:
        r += 1
        B = ball(grp, r)
        if h in B:
            return B.length(h)
        if len(B) == len(ball(grp, r - 1)):
            raise ValueError("element not reachable in subgroup")
