"""Approximating metric groups: permutations with Hamming distance, unitaries
with Hilbert-Schmidt distance (plain and projective), invertible matrices over
exact fields with rank distance (plain and projective), finite groups with
bi-invariant table metrics, and implicit tensor powers.

On disk a permutation's images, and a table group's products row by row,
are one string, the base64 of them as little-endian int32, written by
_images_json and read back, strictly, by _int32_bytes; a target object has
exactly the keys its writer writes.

Exact metrics (Hamming, rank, tables) return fractions.Fraction; the
Hilbert-Schmidt family returns floats, and unitarity is checked at the one
UNITARY_TOLERANCE. A matrix entry over Q is an int or a Fraction, over F_p
an int in range(p). A finite metric group is its integer product table and
length function, checked whenever one is built.
"""
from __future__ import annotations

import base64
import functools
import math
import operator
from fractions import Fraction

import numpy as np

from . import groups as G_

# ---------------------------------------------------------------------------
# permutations

class Permutation:
    """Permutation of {0..k-1}; composition is the left action s(t(i))."""

    __slots__ = ("images",)

    def __init__(self, images):
        self.images = tuple(images)
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("not a permutation")

    @property
    def k(self):
        return len(self.images)

    @property
    def dim(self):
        return len(self.images)

    @classmethod
    def identity(cls, k):
        return cls(range(k))

    @classmethod
    def _checked(cls, images):
        """The permutation of images known to be one (a row of a checked
        image array, a product or an inverse), not checked again."""
        perm = cls.__new__(cls)
        perm.images = tuple(images)
        return perm

    def mul(self, other):
        if self.k != other.k:
            raise ValueError("degree mismatch")
        im = self.images
        return Permutation._checked(im[j] for j in other.images)

    def inv(self):
        out = [0] * self.k
        for i, v in enumerate(self.images):
            out[v] = i
        return Permutation._checked(out)

    def dist(self, other):
        return ham_distance(self, other)

    def __eq__(self, other):
        return isinstance(other, (Permutation, CyclicPerm)) \
            and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def to_json(self):
        return _perm_json(_images_json(self.images))


def _perm_json(images):
    return {"kind": "perm", "images": images}


class CyclicPerm:
    """Translation x -> x + shift on Z/m, kept implicit.

    Closed under composition and inverse; Hamming distance between two
    distinct translations is exactly 1 (no fixed point), so certificates whose
    images are all translations verify in O(1) per pair. Against any other
    permutation it reads as its ``images``, a tuple built when read, and it
    equals (and hashes as) the Permutation of those images.
    """

    __slots__ = ("m", "shift")

    def __init__(self, m, shift):
        self.m = m
        self.shift = shift % m

    @property
    def k(self):
        return self.m

    @property
    def dim(self):
        return self.m

    @property
    def images(self):
        return tuple(range(self.shift, self.m)) + tuple(range(self.shift))

    def mul(self, other):
        if not isinstance(other, CyclicPerm):
            return Permutation.mul(self, other)
        if self.m != other.m:
            raise ValueError("degree mismatch")
        return CyclicPerm(self.m, self.shift + other.shift)

    def inv(self):
        return CyclicPerm(self.m, -self.shift)

    def dist(self, other):
        if not isinstance(other, CyclicPerm):
            return ham_distance(self, other)
        if self.m != other.m:
            raise ValueError("degree mismatch")
        return Fraction(0) if self.shift == other.shift else Fraction(1)

    def __eq__(self, other):
        if isinstance(other, CyclicPerm):
            return (self.m, self.shift) == (other.m, other.shift)
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"CyclicPerm({self.m}, {self.shift})"

    def to_json(self):
        return {"kind": "cyclic-perm", "m": self.m, "shift": self.shift}


def ham_distance(a, b):
    """Normalized Hamming distance |{i : a(i) != b(i)}| / k, exact."""
    if a.k != b.k:
        raise ValueError("degree mismatch")
    moved = sum(1 for x, y in zip(a.images, b.images) if x != y)
    return Fraction(moved, a.k)


# ---------------------------------------------------------------------------
# unitaries

# the verifier's unitarity tolerance; a received unitary may restate it
# but not change it
UNITARY_TOLERANCE = 1e-9


class UnitaryMatrix:
    """Dense unitary, unitary within UNITARY_TOLERANCE; ``entries`` is a
    read-only view."""

    __slots__ = ("entries",)

    def __init__(self, entries, check=True):
        self.entries = _frozen(np.asarray(entries, dtype=complex).view())
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("square matrix required")
        if check:
            k = self.entries.shape[0]
            err = np.abs(self.entries.conj().T @ self.entries - np.eye(k)).max()
            if err > UNITARY_TOLERANCE:
                raise ValueError(f"not unitary within tolerance: defect {err:.3e}")

    @property
    def k(self):
        return self.entries.shape[0]

    @property
    def dim(self):
        return self.k

    @classmethod
    def identity(cls, k):
        return cls(np.eye(k), check=False)

    def mul(self, other):
        other = as_dense(other)
        return UnitaryMatrix(self.entries @ other.entries, check=False)

    def inv(self):
        return UnitaryMatrix(self.entries.conj().T, check=False)

    def dist(self, other):
        return hs_distance(self, other)

    def pdist(self, other):
        return projective_hs_distance(self, other)

    def __repr__(self):
        return f"UnitaryMatrix(k={self.k})"

    def to_json(self):
        flat = []
        for row in self.entries:
            for z in row:
                flat.append([float(z.real), float(z.imag)])
        return {"kind": "unitary", "k": self.k, "entries": flat,
                "tolerance": UNITARY_TOLERANCE}


class PermUnitary:
    """Permutation matrix kept as the permutation; traces cost O(k)."""

    __slots__ = ("perm",)

    def __init__(self, perm):
        self.perm = perm if isinstance(perm, Permutation) else Permutation(perm)

    @property
    def k(self):
        return self.perm.k

    @property
    def dim(self):
        return self.perm.k

    def mul(self, other):
        if isinstance(other, PermUnitary):
            return PermUnitary(self.perm.mul(other.perm))
        return as_dense(self).mul(other)

    def inv(self):
        return PermUnitary(self.perm.inv())

    def dist(self, other):
        return hs_distance(self, other)

    def pdist(self, other):
        return projective_hs_distance(self, other)

    def __repr__(self):
        return f"PermUnitary(k={self.k})"

    def to_json(self):
        return _perm_unitary_json(_images_json(self.perm.images))


def _perm_unitary_json(images):
    return {"kind": "perm-unitary", "images": images,
            "tolerance": UNITARY_TOLERANCE}


class AugmentedUnitary:
    """Block diagonal diag(inner, I_pad), stored implicitly."""

    __slots__ = ("inner", "pad")

    def __init__(self, inner, pad):
        self.inner = _unitary(inner, "an augmented unitary's inner")
        self.pad = int(pad)
        if self.pad < 0:
            raise ValueError("pad must be nonnegative")

    @property
    def k(self):
        return self.inner.k + self.pad

    @property
    def dim(self):
        return self.k

    def mul(self, other):
        if isinstance(other, AugmentedUnitary) and other.pad == self.pad:
            return AugmentedUnitary(self.inner.mul(other.inner), self.pad)
        return as_dense(self).mul(other)

    def inv(self):
        return AugmentedUnitary(self.inner.inv(), self.pad)

    def dist(self, other):
        return hs_distance(self, other)

    def pdist(self, other):
        return projective_hs_distance(self, other)

    def __repr__(self):
        return f"AugmentedUnitary(inner_k={self.inner.k}, pad={self.pad})"

    def to_json(self):
        return {"kind": "augmented-unitary", "inner": self.inner.to_json(),
                "pad": self.pad}


def _unitary(u, role):
    """u when it is a unitary that as_dense reads (dense, a permutation
    unitary or an augmented one); ValueError naming its kind otherwise."""
    if not isinstance(u, (UnitaryMatrix, PermUnitary, AugmentedUnitary)):
        raise ValueError(f"{role} must be a unitary, not "
                         f"{type(u).__name__}")
    return u


MATERIALIZE_CAP = 2 ** 10


def as_dense(u):
    """A unitary element as a dense UnitaryMatrix."""
    if isinstance(u, UnitaryMatrix):
        return u
    if isinstance(u, PermUnitary):
        return perm_to_unitary(u.perm)
    if isinstance(u, AugmentedUnitary):
        if u.k > MATERIALIZE_CAP:
            raise ValueError(f"refusing to materialize dimension {u.k}")
        out = np.eye(u.k, dtype=complex)
        out[:u.inner.k, :u.inner.k] = as_dense(u.inner).entries
        return UnitaryMatrix(out, check=False)
    raise TypeError(f"not a unitary element: {u!r}")


def _tau_vstar_u(u, v):
    """Normalized trace of v* u for unitary-like operands of equal dimension;
    of tensor powers of one power, the power of their bases' trace."""
    if isinstance(u, ImplicitTensorUnitary):
        u._check(v)
        return _tau_vstar_u(u.base, v.base) ** u.power
    if u.k != v.k:
        raise ValueError("dimension mismatch")
    if isinstance(u, PermUnitary) and isinstance(v, PermUnitary):
        # the fixed points of v^-1 u: the points where u and v agree
        return sum(map(operator.eq, u.perm.images, v.perm.images)) / u.k
    if isinstance(u, AugmentedUnitary) and isinstance(v, AugmentedUnitary) \
            and u.pad == v.pad:
        return _padded_tau(_tau_vstar_u(u.inner, v.inner), u.inner.k, u.pad)
    du, dv = as_dense(u), as_dense(v)
    return complex(np.vdot(dv.entries, du.entries)) / u.k


def _padded_tau(t, k, pad):
    """The normalized trace of diag(v, I_pad)* diag(u, I_pad) from the
    normalized trace t of v* u in dimension k."""
    return (t * k + pad) / (k + pad)


def _hs(t):
    """The Hilbert-Schmidt distance sqrt(2 - 2 t) of a real trace part t."""
    return math.sqrt(max(0.0, 2.0 - 2.0 * t))


def hs_distance(u, v):
    """Normalized Hilbert-Schmidt distance sqrt((1/k) tr((u-v)*(u-v)))."""
    return _hs(_tau_vstar_u(u, v).real)


def projective_hs_distance(u, v):
    """min over unit scalars of d_HS(u, lambda v) = sqrt(2 - 2|tau(v* u)|)."""
    return _hs(abs(_tau_vstar_u(u, v)))


def perm_to_unitary(perm):
    """0/1 permutation matrix; multiplicative for left-action composition."""
    k = perm.k
    m = np.zeros((k, k), dtype=complex)
    for i, v in enumerate(perm.images):
        m[v, i] = 1.0
    return UnitaryMatrix(m, check=False)


class ImplicitTensorUnitary:
    """base^{tensor power}, represented by the base and the exponent.

    All distances reduce to powers of base traces: tau((A ox ... ox A)(B ox
    ... ox B)*) = tau(AB*)^power, so nothing of size k^power is ever built,
    the dimension k^power included: ``dim`` is {"base": k, "power": power},
    its JSON form.
    """

    __slots__ = ("base", "power")

    def __init__(self, base, power):
        if power < 1:
            raise ValueError("power must be >= 1")
        try:
            # tau ** power takes the power as a float
            float(power)
        except OverflowError:
            raise ValueError(f"tensor power {power} is beyond the float "
                             f"range") from None
        self.base = _unitary(base, "a tensor power's base")
        self.power = int(power)

    @property
    def dim(self):
        return {"base": self.base.k, "power": self.power}

    def mul(self, other):
        self._check(other)
        return ImplicitTensorUnitary(self.base.mul(other.base), self.power)

    def inv(self):
        return ImplicitTensorUnitary(self.base.inv(), self.power)

    def _check(self, other):
        if not isinstance(other, ImplicitTensorUnitary) or other.power != self.power:
            raise ValueError("mismatched tensor power")
        if other.base.k != self.base.k:
            raise ValueError("dimension mismatch")

    def dist(self, other):
        return hs_distance(self, other)

    def pdist(self, other):
        return projective_hs_distance(self, other)

    def __repr__(self):
        return f"ImplicitTensorUnitary(base_k={self.base.k}, power={self.power})"

    def to_json(self):
        return {"kind": "tensor-implicit", "base": self.base.to_json(),
                "power": self.power}


# ---------------------------------------------------------------------------
# exact fields and rank matrices

class FieldQ:
    """The rationals. An entry is an exact Python rational, an int or a
    Fraction; parse and inv give an int when the value is integral."""

    label = "Q"

    @staticmethod
    def norm(x):
        return x

    def inv(self, a):
        return self.parse(1 / Fraction(a))

    @staticmethod
    def parse(s):
        x = Fraction(s)
        return x.numerator if x.denominator == 1 else x

    def descriptor(self):
        return "Q"


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# MILLER_RABIN_BOUND, the least strong pseudoprime to all of them
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Whether the int n < MILLER_RABIN_BOUND is prime, by Miller-Rabin to
    the bases _MILLER_RABIN_BASES."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldFp:
    """The prime field F_p. An entry is an int in range(p). A p at or
    above MILLER_RABIN_BOUND is refused: its primality is not decided."""

    def __init__(self, p):
        p = operator.index(p)
        # inv() uses Fermat's little theorem, which needs p prime
        if p >= MILLER_RABIN_BOUND:
            raise ValueError(f"F{p}: primality is decided only below "
                             f"{MILLER_RABIN_BOUND}")
        if not _is_prime(p):
            raise ValueError(f"F{p} is not a field: {p} is not prime")
        self.p = p
        self.label = f"F{p}"

    def norm(self, x):
        return x % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError
        return pow(a, self.p - 2, self.p)

    def parse(self, s):
        return int(s) % self.p

    def descriptor(self):
        return {"Fp": self.p}


def field_from_descriptor(d):
    """The field of a received descriptor: exactly "Q", or a dict whose
    one key is "Fp", holding a JSON int p; ValueError otherwise."""
    if type(d) is str and d == "Q":
        return FieldQ()
    if type(d) is dict and d.keys() == {"Fp"} and type(d["Fp"]) is int:
        return _field_fp(d["Fp"])
    raise ValueError(f"field must be \"Q\" or {{\"Fp\": p}} with p a JSON "
                     f"integer, not {d!r}")


@functools.lru_cache(maxsize=64)
def _field_fp(p):
    """FieldFp(p), built once per distinct p however many received targets
    name it. A FieldFp is never written after it is built."""
    return FieldFp(p)


def _row_reduce(rows, F):
    """(rank, reduced row echelon form as lists) of a matrix over F."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        ipv = F.inv(m[rank][col])
        top = m[rank] = [F.norm(x * ipv) for x in m[rank]]
        for r, row in enumerate(m):
            f = row[col]
            if f and r != rank:
                m[r] = [F.norm(x - f * y) for x, y in zip(row, top)]
        rank += 1
    return rank, m


def _matmul(a, b, F):
    """The matrix product a b over F, as lists of rows."""
    cols = list(zip(*b))
    return [[F.norm(sum(map(operator.mul, row, col))) for col in cols]
            for row in a]


class RankMatrix:
    """Invertible matrix over Q or F_p with exact arithmetic."""

    __slots__ = ("field", "rows")

    def __init__(self, rows, field, check=True):
        self.field = field
        self.rows = tuple(tuple(map(field.norm, r)) for r in rows)
        k = len(self.rows)
        if any(len(r) != k for r in self.rows):
            raise ValueError("square matrix required")
        if check and _row_reduce(self.rows, field)[0] != k:
            raise ValueError("matrix is singular")

    @property
    def k(self):
        return len(self.rows)

    @property
    def dim(self):
        return self.k

    @classmethod
    def identity(cls, k, field):
        return cls([[int(i == j) for j in range(k)] for i in range(k)], field,
                   check=False)

    def _check(self, other):
        if self.field.label != other.field.label or self.k != other.k:
            raise ValueError("field or size mismatch")

    def mul(self, other):
        self._check(other)
        return RankMatrix(_matmul(self.rows, other.rows, self.field),
                          self.field, check=False)

    def inv(self):
        """The inverse, from the reduced form of [A | I]; ValueError when
        the left block does not reduce to I."""
        k = self.k
        eye = RankMatrix.identity(k, self.field).rows
        _, m = _row_reduce([r + e for r, e in zip(self.rows, eye)], self.field)
        if any(tuple(r[:k]) != e for r, e in zip(m, eye)):
            raise ValueError("singular matrix")
        return RankMatrix([r[k:] for r in m], self.field, check=False)

    def dist(self, other):
        return rank_distance(self, other)

    def pdist(self, other):
        return projective_rank_distance(self, other)

    def __eq__(self, other):
        return (isinstance(other, RankMatrix)
                and self.field.label == other.field.label
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field.label, self.rows))

    def __repr__(self):
        return f"RankMatrix(k={self.k}, field={self.field.label})"

    def to_json(self):
        return {"kind": "rank", "field": self.field.descriptor(),
                "entries": [[str(x) for x in r] for r in self.rows]}


def rank_distance(a, b):
    """rank(a - b)/k, exact."""
    a._check(b)
    F = a.field
    diff = [[F.norm(x - y) for x, y in zip(r, s)]
            for r, s in zip(a.rows, b.rows)]
    return Fraction(_row_reduce(diff, F)[0], a.k)


def projective_rank_distance(a, b):
    """min over scalars in the algebraic closure of rank(a - lambda b)/k.

    Equals (k - g)/k where g is the largest geometric multiplicity of an
    eigenvalue of M = b^-1 a; computed from the irreducible factors f of
    the characteristic polynomial over F as dim ker f(M) / deg f, never by
    enumerating eigenvalues.
    """
    import sympy
    a._check(b)
    F, k = a.field, a.k
    M = b.inv().mul(a).rows
    t = sympy.Symbol("t")
    domain = sympy.QQ if isinstance(F, FieldQ) else sympy.GF(F.p)
    charpoly = sympy.Poly(sympy.Matrix(M).charpoly(t), t, domain=domain)
    best = 0
    for f, _mult in charpoly.factor_list()[1]:
        fM = [[0] * k for _ in range(k)]
        for c in map(F.parse, map(str, f.all_coeffs())):
            # Horner: fM <- fM M + c I
            fM = _matmul(fM, M, F)
            for i in range(k):
                fM[i][i] = F.norm(fM[i][i] + c)
        best = max(best, (k - _row_reduce(fM, F)[0]) // f.degree())
    return Fraction(k - best, k)


def perm_to_rank(perm, field):
    """0/1 permutation matrix over an exact field."""
    k = perm.k
    rows = [[0] * k for _ in range(k)]
    for i, v in enumerate(perm.images):
        rows[v][i] = 1
    return RankMatrix(rows, field, check=False)


# ---------------------------------------------------------------------------
# block sums

def block_sum(a, b):
    """Direct sum; Hamming/rank distances to a reference combine as weighted
    averages, squared HS distance likewise."""
    perms = (Permutation, CyclicPerm)
    if isinstance(a, perms) and isinstance(b, perms):
        return Permutation(a.images + tuple(a.k + x for x in b.images))
    if isinstance(a, PermUnitary) and isinstance(b, PermUnitary):
        return PermUnitary(block_sum(a.perm, b.perm))
    if isinstance(a, RankMatrix) and isinstance(b, RankMatrix):
        if a.field.label != b.field.label:
            raise ValueError("field mismatch")
        return RankMatrix([list(r) + [0] * b.k for r in a.rows]
                          + [[0] * a.k + list(r) for r in b.rows],
                          a.field, check=False)
    ua, ub = as_dense(a), as_dense(b)
    k1, k2 = ua.k, ub.k
    out = np.zeros((k1 + k2, k1 + k2), dtype=complex)
    out[:k1, :k1] = ua.entries
    out[k1:, k1:] = ub.entries
    return UnitaryMatrix(out, check=False)


# ---------------------------------------------------------------------------
# finite metric groups

class TableMetricGroup:
    """Finite group by an integer product table ``mul``, with the
    bi-invariant metric of a length function: d(a, b) = length[a^-1 b] /
    den, integer lengths over one denominator, brought to lowest terms. On
    a finite group a bi-invariant metric is exactly a conjugation-invariant
    length, l(g) = d(e, g). The constructor keeps the tables as read-only
    int64 arrays ``mul_table``, ``length_table`` and ``inv_table``, then
    proves the group axioms and that the length gives a bi-invariant
    metric with values in [0, 1], or raises ValueError. A product table
    handed over read-only and int64, with no writable array under it, is
    kept as it is; any other is copied, so no caller can write to the
    checked table. Every field is read-only, the labels a tuple: a checked
    table cannot change."""

    __slots__ = ("order", "identity_index", "mul_table", "length_table",
                 "inv_table", "den", "labels")

    def __init__(self, mul, length, den, identity, labels):
        M, L = np.asarray(mul), np.asarray(length)
        n = len(M)
        if not (n and M.shape == (n, n) and L.shape == (n,)
                and len(labels) == n and M.dtype.kind == L.dtype.kind == "i"):
            raise ValueError("need a square integer product table, n integer "
                             "lengths and n labels")
        if type(den) is not int or not 0 < den < 2 ** 63:
            raise ValueError(f"denominator {den!r} is not an int64 above 0")
        if type(identity) is not int or not 0 <= identity < n:
            raise ValueError(f"identity {identity!r} is not an int in "
                             f"range({n})")
        if M.dtype != np.int64 or _writable(M):
            M = _frozen(M.astype(np.int64))
        L = L.astype(np.int64)
        g = math.gcd(den, int(np.gcd.reduce(L)))
        L, den = _frozen(L // g), den // g
        init = functools.partial(object.__setattr__, self)
        init("inv_table", _frozen(_check_table(M, L, den, identity)))
        init("order", n)
        init("identity_index", identity)
        init("mul_table", M)
        init("length_table", L)
        init("den", den)
        init("labels", tuple(labels))

    def __setattr__(self, name, value):
        raise AttributeError(f"a table group is read-only: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"a table group is read-only: cannot delete "
                             f"{name}")

    def element(self, i):
        if type(i) is not int or not 0 <= i < self.order:
            raise ValueError(f"index {i!r} is not an int in range({self.order})")
        return FiniteGroupElement(self, i)

    def identity_element(self):
        return FiniteGroupElement(self, self.identity_index)

    def to_json(self):
        return {"kind": "table",
                "mul": _images_json(self.mul_table),
                "length": self.length_table.tolist(),
                "den": self.den,
                "identity": self.identity_index,
                "labels": list(self.labels)}

    @classmethod
    def from_json(cls, obj):
        """Decode a table as the writer writes it: exactly the keys of
        to_json, the n x n products one _int32_bytes text in row-major
        order for the n labels, every other number an exact JSON int within
        int64, the lengths and den in lowest terms and one JSON string label
        per element. The older forms, with a ``dist`` table of pairs or
        with the products as nested lists, are refused."""
        if type(obj) is not dict or obj.keys() != _TABLE_KEYS \
                or obj["kind"] != "table":
            raise ValueError(f"a table group is exactly the keys "
                             f"{sorted(_TABLE_KEYS)} with kind \"table\"")
        labels = obj["labels"]
        if not isinstance(labels, list) or not set(map(type, labels)) <= {str}:
            raise ValueError("table labels must be a list of JSON strings")
        n = len(labels)
        mul = np.frombuffer(_int32_bytes(obj["mul"], "table products"),
                            dtype="<i4")
        if mul.size != n * n:
            raise ValueError(f"{mul.size} table products are not {n}^2, "
                             f"one per pair of the {n} labels")
        den = json_int(obj, "den")
        table = cls(mul.reshape(n, n), _json_ints(obj["length"]), den,
                    json_int(obj, "identity"), labels)
        if table.den != den:
            raise ValueError(f"lengths and den {den} share the factor "
                             f"{den // table.den}")
        return table


_TABLE_KEYS = frozenset({"kind", "mul", "length", "den", "identity", "labels"})


def _json_ints(xs):
    """A list of JSON integers as an int64 array."""
    if not isinstance(xs, list):
        raise ValueError("table lengths must be a list of integers")
    a = np.array(xs)
    if not set(map(type, xs)) <= {int} or a.dtype.kind != "i":
        raise ValueError("table lengths must be integers within int64")
    return a


def _check_table(M, L, den, e):
    """Inverses in the group table M with identity e, once the length L
    over den is proved a conjugation-invariant norm with values in [0, 1];
    ValueError otherwise. The group laws cost O(|S| |T|^2) for the greedy
    generating set S of at most log2 |T| elements, the length O(|S| |T| +
    |T|^2). The |T| x |T| checks run in blocks of rows, as
    Ball.products() does, so no temporary is larger than groups.BLOCK
    entries."""
    n = len(M)
    r = np.arange(n)
    step = max(1, G_.BLOCK // n)
    blocks = [slice(i, i + step) for i in range(0, n, step)]
    if M.min() < 0 or M.max() >= n:
        raise ValueError("table is not a group: product out of range")
    if (M[e] != r).any() or (M[:, e] != r).any():
        raise ValueError("table is not a group: identity law fails")
    inv = np.concatenate([(M[b] == e).argmax(axis=1) for b in blocks])
    if (M[r, inv] != e).any() or (M[inv, r] != e).any():
        raise ValueError("table is not a group: an element has no inverse")
    # S grows greedily until right multiplication by S reaches all of T
    # from e; in a group each new generator at least doubles <S>
    S, seen = [], r == e
    while not seen.all():
        if 2 ** (len(S) + 1) > n:
            raise ValueError("table is not a group: too many generators")
        S.append(int(seen.argmin()))
        frontier = r[seen]
        while frontier.size:
            hit = np.zeros(n, dtype=bool)
            hit[M[np.ix_(frontier, S)]] = True
            frontier = np.flatnonzero(hit & ~seen)
            seen[frontier] = True
    # Light's test: the g with (xg)y = x(gy) form a submagma; e, S span T
    for g in S:
        if any((M[M[b, g]] != M[b][:, M[g]]).any() for b in blocks):
            raise ValueError("table is not a group: associativity fails")
    # d(a, b) = L(a^-1 b) is left-invariant by definition, a metric when L
    # is a norm (zero only at e, symmetric, subadditive), and
    # right-invariant when L is constant on conjugacy classes, which
    # conjugation by each generator in S decides
    if L[e] != 0 or (L[r != e] <= 0).any() or (L > den).any():
        raise ValueError("lengths must lie in (0, den] off the identity")
    if (L[inv] != L).any():
        raise ValueError("length is not symmetric: L(g^-1) != L(g)")
    for c in S:
        if (L[M[M[inv[c]], c]] != L).any():
            raise ValueError("length is not conjugation-invariant: the "
                             "metric is not right-invariant")
    if any((L[M[b]] - L[b, None] > L[None, :]).any() for b in blocks):
        raise ValueError("triangle inequality fails: L(gh) > L(g) + L(h)")
    return inv


def trivial_metric_group(G):
    """Tables of a finite group (a catalog group or a finite quotient),
    indexed in elements() order: its ``groups.table`` with the 0/1
    metric."""
    elems = G.elements()
    e = elems.index(G.identity())
    length = np.ones(len(elems), dtype=np.int64)
    length[e] = 0
    return TableMetricGroup(_frozen(G_.table(G)), length, 1, e,
                            [G.fmt(p) for p in elems])


class FiniteGroupElement:
    """Element of a finite metric group, by index: the scalar reference of
    the table rows (_TableRows) and the target of word-level
    certificates."""

    __slots__ = ("group", "index")

    def __init__(self, group, index):
        self.group = group
        self.index = index

    @property
    def dim(self):
        return self.group.order

    def mul(self, other):
        if other.group is not self.group:
            raise ValueError("element of a different finite group")
        return FiniteGroupElement(
            self.group, self.group.mul_table.item(self.index, other.index))

    def inv(self):
        return FiniteGroupElement(self.group,
                                  self.group.inv_table.item(self.index))

    def dist(self, other):
        if other.group is not self.group:
            raise ValueError("element of a different finite group")
        G = self.group
        between = G.mul_table.item(G.inv_table.item(self.index), other.index)
        return Fraction(G.length_table.item(between), G.den)

    def __eq__(self, other):
        return (isinstance(other, FiniteGroupElement)
                and other.group is self.group and other.index == self.index)

    def __hash__(self):
        return hash((id(self.group), self.index))

    def __repr__(self):
        return f"FiniteGroupElement({self.group.labels[self.index]})"

    def to_json(self):
        return {"kind": "fin", "index": self.index}


# ---------------------------------------------------------------------------
# image rows

# the metric of a row of permutations: Hamming, Hilbert-Schmidt (a
# permutation unitary) or rank over a field (a permutation matrix)
HAMMING, HILBERT_SCHMIDT, RANK = "hamming", "hilbert-schmidt", "rank"


def batch(images):
    """The images as rows, the one form in which the verifier composes and
    measures them: ``take(idx)``; ``mul(other)``, row by row, a single row
    repeated against many; ``inv()``; and ``extreme(other, pick,
    projective=False)``, the ``max`` or ``min`` distance of the row pairs
    and the first position attaining it. A list of Permutation, of
    PermUnitary, or of RankMatrix over one field that are all permutation
    matrices of one size is one int32 image array (_PermRows); so is a
    list of ImplicitTensorUnitary of one power over PermUnitary bases u of
    one degree, bare or each in an AugmentedUnitary of one pad: the image
    array of the u, Hilbert-Schmidt rows that carry the pad and the power;
    a list of FiniteGroupElement of one table group is one int64 index
    array (_TableRows); any other list, CyclicPerm included, calls its
    objects' mul/inv/dist/pdist (_ScalarRows). This is the one place that
    picks a rows class for targets (rows_from_json hands it every list it
    does not read as arrays itself). Every value equals the scalar one,
    bitwise for floats, and so does every first position; the image
    format is known only here: a new kind of target is one more rows
    class.

    Rows also give back what they hold: ``target(i)`` builds row i's
    object, ``to_json(i)`` its JSON, and ``representatives()`` targets
    with every kind the rows hold, and ``width`` the entries of one row,
    by which a caller sizes blocks of rows.
    ``with_kernel(gens, generated=False)`` gives the rows with the
    commutant kernel derived from the rows at ``gens``, the positions of
    the images of a generating set (see _PermRows); ``generated`` says
    that every row is known to be a product of those rows. The array rows
    compare exactly, and they alone give ``equal(other)`` and
    ``distances(other, projective=False)`` (_ExactRows): permutation rows,
    tensor powers through their bases, and table rows.
    """
    if all(isinstance(t, Permutation) for t in images):
        return _PermRows(_frozen(np.array([t.images for t in images],
                                          dtype=np.int32)), HAMMING)
    if all(isinstance(t, PermUnitary) for t in images):
        return _PermRows(_frozen(np.array([t.perm.images for t in images],
                                          dtype=np.int32)), HILBERT_SCHMIDT)
    if images and all(isinstance(t, ImplicitTensorUnitary) for t in images):
        rows = _tensor_rows(images)
        if rows is not None:
            return rows
    if all(isinstance(t, RankMatrix) for t in images) \
            and len({t.field.label for t in images}) == 1:
        rows = _rank_rows([_ones(t.rows, 1, 0) for t in images],
                          images[0].field)
        if rows is not None:
            return rows
    if images and all(type(t) is FiniteGroupElement for t in images) \
            and len({id(t.group) for t in images}) == 1:
        return _TableRows(images[0].group,
                          np.array([t.index for t in images], dtype=np.int64))
    return _ScalarRows(images)


def _tensor_rows(images):
    """Hilbert-Schmidt _PermRows of ImplicitTensorUnitary images of one
    power whose bases are all PermUnitary of one degree, or all
    AugmentedUnitary of one pad around PermUnitary of one degree, with
    that pad (None for bare bases) and power; None otherwise."""
    powers = {t.power for t in images}
    bases = [t.base for t in images]
    pads = {b.pad if isinstance(b, AugmentedUnitary) else None
            for b in bases}
    if None not in pads:
        bases = [b.inner for b in bases]
    if len(powers) != 1 or len(pads) != 1 \
            or not all(isinstance(u, PermUnitary) for u in bases) \
            or len({u.k for u in bases}) != 1:
        return None
    return _PermRows(_frozen(np.array([u.perm.images for u in bases],
                                      dtype=np.int32)), HILBERT_SCHMIDT,
                     pad=pads.pop(), power=powers.pop())


def rows_from_array(P, metric=HAMMING, field=None):
    """Rows, in ``metric`` (over ``field`` for RANK), of the permutations
    whose images are the rows of the 2-d integer array P, each checked to
    be a permutation of range(k) with k >= 1; ValueError otherwise."""
    return _PermRows(_perm_array(P), metric, field)


def rows_from_json(objs, fin_group=None):
    """Rows of the decoded targets ``objs``, each with exactly the keys of
    its kind (_target_kind). The image strings of perm or perm-unitary
    objects go straight into one int32 array (_images_array). So do rank
    objects over one field whose entries are exactly the strings "0" and
    "1" and form permutation matrices of one size, and fin objects, whose
    indices go into one int64 array of ``fin_group``. Any other list is
    decoded target by target (target_from_json); rank matrices written
    otherwise stay dense (_ScalarRows), and every other list, tensor
    powers included, goes to batch, which picks its rows."""
    kinds = set(map(_target_kind, objs))
    for kind, metric in (("perm", HAMMING), ("perm-unitary", HILBERT_SCHMIDT)):
        if kinds == {kind}:
            return _PermRows(_images_array([t["images"] for t in objs]),
                             metric)
    if kinds == {"rank"}:
        fields = {F.label: F for F in map(field_from_descriptor,
                                          (t["field"] for t in objs))}
        if len(fields) == 1:
            rows = _rank_rows([_ones(t["entries"], "1", "0") for t in objs],
                              *fields.values())
            if rows is not None:
                return rows
    if fin_group is not None and kinds == {"fin"}:
        index = [t["index"] for t in objs]
        if not set(map(type, index)) <= {int}:
            raise ValueError("fin indices must be JSON integers")
        # an index beyond int64 raises OverflowError
        return table_rows(fin_group, np.array(index, dtype=np.int64))
    targets = [target_from_json(t, fin_group) for t in objs]
    return _ScalarRows(targets) if kinds == {"rank"} else batch(targets)


def table_rows(group, index):
    """Rows of the elements of the table group ``group`` at the 1-d integer
    array ``index``, each checked to lie in range(group.order); ValueError
    otherwise."""
    bad = (index < 0) | (index >= group.order)
    if bad.any():
        raise ValueError(f"index {index[bad.argmax()].item()} is not an int "
                         f"in range({group.order})")
    return _TableRows(group, index.astype(np.int64))


def _ones(matrix, one, zero):
    """Where each row of a square matrix holds ``one``, when the matrix
    and its rows are lists or tuples and each row holds ``one`` once and
    ``zero`` everywhere else; None otherwise."""
    if not isinstance(matrix, (list, tuple)):
        return None
    k = len(matrix)
    cols = []
    for row in matrix:
        if not isinstance(row, (list, tuple)) or len(row) != k \
                or row.count(one) != 1 or row.count(zero) != k - 1:
            return None
        cols.append(row.index(one))
    return cols


def _rank_rows(ones, field):
    """Rank rows over ``field`` of the permutation matrices whose row v
    holds its 1 in column ones[t][v], so that image t sends that column to
    v; None unless they are permutation matrices of one size k >= 1."""
    if None in ones or len(set(map(len, ones))) != 1:
        return None
    try:
        Q = _perm_array(np.array(ones))
    except ValueError:
        return None
    return _PermRows(_frozen(_inverse(Q)), RANK, field)


def _frozen(a):
    a.flags.writeable = False
    return a


def _writable(a):
    """Whether a, or an array whose memory a views, can be written; memory
    that no array owns (a buffer of another object) counts as writable."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return True
        a = a.base
    return a is not None


def _perm_array(P):
    """P as a read-only int32 array, unless some row is not a permutation
    of range(k), k >= 1 (ValueError)."""
    P = np.asarray(P)
    if P.ndim != 2 or P.dtype.kind not in "iu" or not P.shape[1]:
        raise ValueError("permutation images must be nonempty integer rows "
                         "of one degree")
    m, k = P.shape
    if len(P) and (P.min() < 0 or P.max() >= k):
        raise ValueError("not a permutation: an image lies outside "
                         f"range({k})")
    P = P.astype(np.int32)
    # each row hits all k points, checked in blocks of rows of about
    # G_.BLOCK entries: row r of a block hits point p at r k + p, an int32
    # index below max(G_.BLOCK, k), so no |B| k intp index is built
    step = max(1, G_.BLOCK // k)
    offsets = np.arange(0, step * k, k, dtype=np.int32)[:, None]
    hit = np.empty(step * k, dtype=bool)
    for i in range(0, m, step):
        block = P[i:i + step]
        hit[:block.size] = False
        hit[(block + offsets[:len(block)]).ravel()] = True
        if not hit[:block.size].all():
            raise ValueError("not a permutation: a point is hit twice")
    return _frozen(P)


def _images_json(images):
    """The JSON form of one permutation's images, or of a table's products
    row by row: the base64 text, with padding, of the entries as
    little-endian int32."""
    return base64.b64encode(
        np.asarray(images, dtype="<i4").tobytes()).decode("ascii")


def _int32_bytes(text, what):
    """The bytes of a JSON text that is exactly what _images_json writes: a
    string of canonical base64 (its bytes encode back to the same text,
    padding bits included) of a nonzero multiple of 4 bytes, whole
    little-endian int32; ValueError naming ``what`` otherwise. A list, the
    older form, is refused."""
    if type(text) is not str:
        raise ValueError(f"{what} must be a base64 string, not "
                         f"{type(text).__name__}")
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a character beyond ASCII
        raise ValueError(f"{what} are not base64") from None
    # the full re-encode's test: each quantum before the last encodes back
    # to itself, so the text must be the encoding's length and end in what
    # the last quantum, the one that may carry padding bits, encodes to
    if len(text) != -(-len(data) // 3) * 4 or base64.b64encode(
            data[len(data) - (len(data) % 3 or 3):]).decode() != text[-4:]:
        raise ValueError(f"{what} are not canonical base64")
    if not data or len(data) % 4:
        raise ValueError(f"{what} of {len(data)} bytes are not a nonempty "
                         f"row of int32")
    return data


def _images_array(texts):
    """The read-only int32 array whose rows are the images in the JSON
    texts (_int32_bytes), the rows of one degree, every entry in range(k)
    and every row a permutation; ValueError otherwise."""
    raw = [_int32_bytes(text, "permutation images") for text in texts]
    if len(set(map(len, raw))) != 1:
        raise ValueError("permutation images differ in degree")
    return _perm_array(np.frombuffer(b"".join(raw), dtype="<i4")
                       .reshape(len(raw), -1))


def _pairs(xs, ys):
    """The row pairs of two lists of rows, a single row repeated against
    many."""
    if len(xs) != len(ys) and 1 not in (len(xs), len(ys)):
        raise ValueError(f"cannot pair {len(xs)} rows with {len(ys)}")
    return zip(xs * len(ys) if len(xs) == 1 else xs,
               ys * len(xs) if len(ys) == 1 else ys)


class _ScalarRows:
    """Rows of target objects, composed and measured by their own methods."""

    transitive_commutant = False

    def __init__(self, images):
        self.images = tuple(images)
        # the targets' dimension; a symbolic one, a tensor power's, is past
        # any block alone
        dim = self.images[0].dim if self.images else 1
        self.width = dim if isinstance(dim, int) else G_.BLOCK

    def __len__(self):
        return len(self.images)

    def target(self, i):
        return self.images[i]

    def to_json(self, i):
        return self.images[i].to_json()

    def representatives(self):
        return self.images

    def with_kernel(self, gens, generated=False):
        return self

    def take(self, idx):
        at = np.asarray(idx, dtype=np.intp).tolist()
        return _ScalarRows([self.images[i] for i in at])

    def mul(self, other):
        return _ScalarRows([x.mul(y) for x, y in _pairs(self.images,
                                                        other.images)])

    def inv(self):
        return _ScalarRows([x.inv() for x in self.images])

    def extreme(self, other, pick, projective=False):
        values = (x.pdist(y) if projective else x.dist(y)
                  for x, y in _pairs(self.images, other.images))
        r, value = pick(enumerate(values), key=operator.itemgetter(1))
        return value, r


class _ExactRows:
    """What the rows that compare exactly share (_TableRows, _PermRows):
    ``equal(other)``, whether the rows of each pair are one element, a
    bool array; ``distances(other, projective=False)``, the distances of
    the row pairs as (scores, value), an array that orders the pairs as
    their distances do and the function from one score to its distance;
    and extreme, a pick over those scores, so that a caller that reads the
    distances of many rows once gets extreme's values and first
    positions."""

    def extreme(self, other, pick, projective=False):
        scores, value = self.distances(other, projective)
        r = int({max: np.argmax, min: np.argmin}[pick](scores))
        return value(scores.item(r)), r


class _TableRows(_ExactRows):
    """Rows of elements of one table group, a read-only int64 array of
    their indices. The product of two rows is the gather M[x, y] from the
    group's product table, the inverse a gather from its inverse table,
    and a distance the length of x^-1 y over the group's den, so a row of
    distances is one gather too. Values and first witnesses are those of
    FiniteGroupElement's mul, inv and dist."""

    transitive_commutant = False
    width = 1

    def __init__(self, group, x):
        self.group, self.x = group, _frozen(x)

    def __len__(self):
        return len(self.x)

    def target(self, i):
        return FiniteGroupElement(self.group, self.x.item(i))

    def to_json(self, i):
        return {"kind": "fin", "index": self.x.item(i)}

    def representatives(self):
        return [self.target(0)]

    def with_kernel(self, gens, generated=False):
        return self

    def take(self, idx):
        return _TableRows(self.group, self.x[np.asarray(idx, dtype=np.intp)])

    def _paired(self, other):
        """The index arrays of the row pairs, a single row repeated against
        many, both of this table group."""
        if other.group is not self.group:
            raise ValueError("element of a different finite group")
        if len(self.x) != len(other.x) and 1 not in (len(self.x),
                                                     len(other.x)):
            raise ValueError(f"cannot pair {len(self.x)} rows with "
                             f"{len(other.x)}")
        return self.x, other.x

    def mul(self, other):
        x, y = self._paired(other)
        return _TableRows(self.group, self.group.mul_table[x, y])

    def inv(self):
        return _TableRows(self.group, self.group.inv_table[self.x])

    def equal(self, other):
        x, y = self._paired(other)
        return x == y

    def distances(self, other, projective=False):
        if projective:
            raise TypeError("a table metric has no projective form")
        x, y = self._paired(other)
        G = self.group
        return (G.length_table[G.mul_table[G.inv_table[x], y]],
                lambda length: Fraction(length, G.den))


def _inverse(P):
    """The inverses of the permutations in the rows of P, one scatter."""
    out = np.empty_like(P)
    np.put_along_axis(out, P, np.arange(P.shape[1], dtype=P.dtype)[None],
                      axis=1)
    return out


def _cycle_walk(P):
    """Row by row for the permutations in the rows of the int array P, the
    least point of each point's cycle and how far ahead it lies: (lab,
    ahead) with P^ahead[p](p) = lab[p] and ahead[p] below the cycle's
    length. Pointer doubling: after r rounds lab[p] is the least of p,
    P(p), ..., P^(2^r - 1)(p), first reached after ahead[p] steps, and
    jump is P^(2^r); ceil(log2 k) rounds cover every cycle. The cycles of
    a row are its points with lab[p] == p."""
    m, k = P.shape
    # one flat array of m * k points, row r's point p at r * k + p
    jump = (P + np.arange(0, m * k, k)[:, None]).ravel()
    lab = np.tile(np.arange(k), m)
    ahead = np.zeros(m * k, dtype=np.intp)
    span = 1
    for _ in range((k - 1).bit_length()):
        far = lab[jump]
        nearer = far < lab
        lab = np.where(nearer, far, lab)
        ahead = np.where(nearer, ahead[jump] + span, ahead)
        jump, span = jump[jump], 2 * span
    return lab.reshape(m, k), ahead.reshape(m, k)


class _PermRows(_ExactRows):
    """Rows over an int32 image array P, one permutation per row, in one
    ``metric``: HAMMING (Permutation targets), HILBERT_SCHMIDT
    (PermUnitary, or tensor powers of them, below) or RANK over ``field``
    (RankMatrix permutation matrices, built only for target() and
    to_json()). The product of two rows is one gather and the inverse one
    scatter. A distance is a count converted by _value: for Hamming and
    Hilbert-Schmidt the points where the rows differ, the Hilbert-Schmidt
    value being the projective one too because tau >= 0; for rank k -
    cycles(y^-1 x), by _cycle_walk,
    since rank(P_x - P_y) = rank(P_{y^-1 x} - I) = k - cycles(y^-1 x)
    over every field. The projective rank distance is the same: each
    cycle block of P_{y^-1 x} is a companion matrix of t^len - 1, so
    non-derogatory, and has the eigenvalue 1, so no eigenvalue has more
    eigenvectors than 1, one per cycle (Arzhantseva and Paunescu, Linear
    sofic groups and algebras).

    Tensor powers. Hilbert-Schmidt rows with a ``power`` stand for the
    tensor powers (u (+) I_pad)^(tensor power) of the permutation
    unitaries u of their rows, all of one ``pad`` (None for bare
    PermUnitary bases, no AugmentedUnitary around them) and one power;
    for every other row both are None. Products and inverses are the u's.
    tau of two such powers is (tau_pad)^power, tau_pad the padded trace of
    the count c of points where the u agree, so a distance depends only on
    c in 0..k: extreme gathers from _tensor_distances by c and picks on
    the gathered values, not on c, so values and first witnesses are
    ImplicitTensorUnitary's dist and pdist, ties (every pair of distinct
    bases at sqrt(2) once tau^power underflows) included. Rows pair only
    with rows of their power, pad and degree (mul and extreme raise
    ValueError otherwise), and tensor rows never take the commutant
    kernel.

    Commutant kernel. If a permutation commutes with every element of a
    transitive group R, its fixed points form an R-invariant set, so it
    fixes no point or all k (the centralizer of a transitive group is
    semiregular; Dixon and Mortimer, Permutation Groups). When every image
    P_g commutes with such an R, so does every P_t^-1 P_i P_j and every
    P_i^-1 P_j, and one point decides a whole row pair: with v = P[:, 0],
    d(P_i P_j, P_t) is nonzero iff P_i(v_j) != v_t, and d(P_i, P_j) is zero
    iff v_i == v_j. ``transitive_commutant`` says whether such an R was
    found and checked for the rows that with_kernel() built (never for
    rows that take, mul or inv return, nor for the rows a certificate
    stores); ``max_defect_all`` and ``min_dist_all`` are
    then exact and equal the row sweep's values and first witnesses. Every
    left-regular action of a finite group (and a direct product of such)
    has one: its right translations. Rank and tensor rows never take the
    kernel: a semiregular permutation of order m is at rank distance 1 -
    1/m from the identity, not at one value for every m, and a tensor
    distance is not read from one point.

    R is derived from the generator images, and nothing derived is trusted:
      1. level by level from point 0, each row s in ``gens`` walks whole
         every s-cycle that holds a point the last level reached and that
         s has not walked before (_cycle_walk gives each cycle's points
         in order), so the levels reach the orbit of 0 under the rows
         gens, one level per cycle hop;
      2. for each x in {P_s(0) : s in gens}, c_x(0) = x, and along each
         walked cycle, entered at p, c_x(s^j(p)) = s^j(c_x(p));
      3. every c_x must commute with every row, checked exactly; when
         every row is known to be a product of the rows gens
         (``generated``: the homomorphism kernel checked each row to be
         its tree parent's row times a generator's), with the rows gens,
         since what commutes with each factor commutes with the product.
    Then R = <c_x> is transitive with no further search. The rows gens
    generate a transitive group H, so each c_x, commuting with H, is a
    permutation. And any word w = P_s w' in them has w(0) = P_s(c(0)) =
    c(P_s(0)) = c(c_x(0)) for x = P_s(0) once w'(0) = c(0) with c in R;
    by induction every point gamma_p(0) lies in the R-orbit of 0.
    If the walk misses a point or the check fails, the verifier runs its
    row sweep.
    """

    transitive_commutant = False

    def __init__(self, P, metric, field=None, at=None, pad=None,
                 power=None):
        # the rows are P[at] (all of P when at is None), gathered only when
        # read: a block of rows taken and then multiplied is one gather
        self._P, self._at = P, at
        self.k = self.width = P.shape[1]
        self.metric, self.field = metric, field
        self.pad, self.power = pad, power

    def _like(self, P, at=None):
        """Rows over P (at ``at``) of this metric, field, pad and power."""
        return _PermRows(P, self.metric, self.field, at, self.pad,
                         self.power)

    @property
    def P(self):
        if self._at is not None:
            self._P, self._at = self._P[self._at], None
        return self._P

    def __len__(self):
        return len(self._P if self._at is None else self._at)

    def target(self, i):
        perm = Permutation._checked(self.P[i].tolist())
        if self.metric == HAMMING:
            return perm
        if self.metric == RANK:
            return perm_to_rank(perm, self.field)
        u = PermUnitary(perm)
        if self.power is None:
            return u
        if self.pad is not None:
            u = AugmentedUnitary(u, self.pad)
        return ImplicitTensorUnitary(u, self.power)

    def to_json(self, i):
        if self.metric == RANK or self.power is not None:
            return self.target(i).to_json()
        images = _images_json(self.P[i])
        return _perm_json(images) if self.metric == HAMMING \
            else _perm_unitary_json(images)

    def representatives(self):
        return [self.target(0)]

    def with_kernel(self, gens, generated=False):
        if self.metric == RANK or self.power is not None:
            return self
        rows = _PermRows(self.P, self.metric)
        S = rows.P[list(gens)]
        rows.transitive_commutant = rows._derive_commutant(
            S, S if generated else rows.P)
        return rows

    def _derive_commutant(self, S, P):
        """Whether the walk from the rows S (step 1 and 2 below) reaches
        every point and each c_x commutes with every row of P (step 3)."""
        k = self.k
        xs = np.flatnonzero(np.bincount(S[:, 0], minlength=k))
        # C[a, p] = c_x(p) for x = xs[a]; int32 like P
        C = np.empty((len(xs), k), dtype=np.int32)
        C[:, 0] = xs
        seen = np.zeros(k, dtype=bool)
        seen[0] = True
        walks = []
        for lab, ahead in zip(*_cycle_walk(S)):
            # a cycle's length at its least point l, and order[start[l] + a]
            # the point a steps behind l
            size = np.bincount(lab, minlength=k)
            start = np.cumsum(size) - size
            order = np.empty(k, dtype=np.intp)
            order[start[lab] + ahead] = np.arange(k)
            walked = np.zeros(k, dtype=bool)
            walks.append((lab, ahead, size, start, order, walked))
        level = np.zeros(1, dtype=np.intp)
        while len(level):
            grown = [level[:0]]  # an empty level when S has no rows
            for lab, ahead, size, start, order, walked in walks:
                # one point p of level on each cycle not yet walked
                ps = level[~walked[lab[level]]]
                heads, first = np.unique(lab[ps], return_index=True)
                walked[heads] = True
                # each point r of those cycles, with its cycle's p
                n = size[heads]
                ends = np.cumsum(n)
                rs = order[np.repeat(start[heads] - ends + n, n)
                           + np.arange(n.sum())]
                ps = np.repeat(ps[first], n)
                new = ~seen[rs]
                rs, ps = rs[new], ps[new]
                seen[rs] = True
                # r = s^j(p) for j = ahead[p] - ahead[r], so c(r) = s^j(c(p)),
                # the point of c(p)'s cycle j steps on
                qs = C[:, ps]
                lq = lab[qs]
                C[:, rs] = order[start[lq] + (ahead[qs] - ahead[ps]
                                              + ahead[rs]) % size[lq]]
                grown.append(rs)
            level = np.concatenate(grown)
        if not seen.all():
            return False
        step = max(1, G_.BLOCK // k)
        for c in C:
            for i in range(0, len(P), step):
                rows = P[i:i + step]
                if not np.array_equal(c[rows], rows[:, c]):
                    return False
        return True

    def _value(self, count):
        """The distance of two permutations from its count of k points:
        count/k for Hamming and rank, sqrt(2 - 2 (k - count)/k) for
        Hilbert-Schmidt."""
        if self.metric != HILBERT_SCHMIDT:
            return Fraction(count, self.k)
        return _hs((self.k - count) / self.k)

    def take(self, idx):
        at = np.asarray(idx, dtype=np.intp)
        return self._like(self._P, at if self._at is None else self._at[at])

    def _paired(self, other):
        """other's image array, when other's rows have this one's power,
        pad and degree."""
        if (other.power, other.pad, other.k) != (self.power, self.pad,
                                                 self.k):
            raise ValueError("tensor rows of another power, pad or degree")
        return other.P

    def mul(self, other):
        # (s t)(i) = s(t(i)), one gather from the flattened rows
        at = np.arange(len(self._P)) if self._at is None else self._at
        return self._like(np.take(self._P, (at * self.k)[:, None]
                                  + self._paired(other)))

    def inv(self):
        return self._like(_inverse(self.P))

    def equal(self, other):
        return (self.P == self._paired(other)).all(axis=1)

    def distances(self, other, projective=False):
        if projective and self.metric == HAMMING:
            raise TypeError("the Hamming metric has no projective form")
        Q = self._paired(other)
        if self.power is not None:
            # picked on the gathered values, not on the counts
            return (_tensor_distances(self.k, self.pad, self.power)[
                np.count_nonzero(self.P == Q, axis=1)], float)
        if self.metric == RANK:
            lab, _ = _cycle_walk(other.inv().mul(self).P)
            count = self.k - np.count_nonzero(lab == np.arange(self.k),
                                              axis=1)
        else:
            count = np.count_nonzero(self.P != Q, axis=1)
        return count, self._value

    def max_defect_all(self, table, zero):
        """Commutant kernel of the defect sweep over the product table
        (entries -1 skipped): (max, the first (i, j, table[i, j]) in row
        order attaining it, or None when the max is ``zero``). The |B| x |B|
        gather runs in blocks of rows, as Ball.products() does."""
        P, v = self.P, self.P[:, 0]
        size = len(table)
        step = max(1, G_.BLOCK // size)
        for i in range(0, size, step):
            T = table[i:i + step]
            hit = np.flatnonzero((T >= 0) & (P[i:i + step][:, v] != v[T]))
            if len(hit):
                r, j = divmod(int(hit[0]), size)
                return self._value(self.k), (i + r, j, int(T[r, j]))
        return zero, None

    def min_dist_all(self):
        """Commutant kernel of the separation sweep over the pairs i < j,
        projective too: (min or None when there is one row, the first pair
        attaining it, first_nearest_pair of the point-0 images)."""
        v = self.P[:, 0]
        if len(v) < 2:
            return None, None
        i, j = first_nearest_pair(v)
        return self._value(self.k if v[i] != v[j] else 0), (i, j)


@functools.lru_cache(maxsize=64)
def _tensor_distances(k, pad, power):
    """The distance of two tensor powers of _PermRows, of this pad and
    power, whose bases agree at c points, at index c in 0..k: the float
    expressions of _tau_vstar_u (c / k, then _padded_tau, then the power)
    and of hs_distance. It is projective_hs_distance's too: the bases are
    permutation unitaries, so tau >= 0 and |tau^power| is the same float
    as its real part."""
    out = []
    for c in range(k + 1):
        t = c / k
        if pad is not None:
            t = _padded_tau(t, k, pad)
        out.append(_hs(t ** power))
    return _frozen(np.array(out))


def first_nearest_pair(v):
    """The lexicographically first pair i < j of equal entries of the 1-d
    array v (two or more), else (0, 1): the first pair at the least distance
    when pairs of equal entries are at 0 and all others at one distance."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    # the first row whose entry recurs is that entry's first row
    repeated = np.flatnonzero(counts[inverse] > 1)
    if not len(repeated):
        return 0, 1
    i = int(repeated[0])
    return i, i + 1 + int(np.flatnonzero(v[i + 1:] == v[i])[0])


# ---------------------------------------------------------------------------
# JSON decoding

# the keys of each kind of target object, as its writer writes them; a
# unitary's tolerance may be left out
_TARGET_KEYS = {
    "perm": frozenset({"kind", "images"}),
    "cyclic-perm": frozenset({"kind", "m", "shift"}),
    "perm-unitary": frozenset({"kind", "images", "tolerance"}),
    "unitary": frozenset({"kind", "k", "entries", "tolerance"}),
    "augmented-unitary": frozenset({"kind", "inner", "pad"}),
    "tensor-implicit": frozenset({"kind", "base", "power"}),
    "rank": frozenset({"kind", "field", "entries"}),
    "fin": frozenset({"kind", "index"}),
}


def _target_kind(obj):
    """The kind of a received target object whose keys are exactly those
    its writer writes, a unitary's tolerance optional and, if present,
    UNITARY_TOLERANCE; ValueError otherwise."""
    if type(obj) is not dict:
        raise ValueError(f"a target is a JSON object, not "
                         f"{type(obj).__name__}")
    kind = obj.get("kind")
    if type(kind) is not str or kind not in _TARGET_KEYS:
        raise ValueError(f"unknown target kind {kind!r}")
    keys = _TARGET_KEYS[kind]
    if not keys - {"tolerance"} <= obj.keys() <= keys:
        raise ValueError(f"a {kind} target has exactly the keys "
                         f"{sorted(keys)}, not {sorted(obj)}")
    if obj.get("tolerance", UNITARY_TOLERANCE) != UNITARY_TOLERANCE:
        raise ValueError(f"unitarity tolerance {obj['tolerance']!r} is not "
                         f"the verifier's {UNITARY_TOLERANCE}")
    return kind


def target_from_json(obj, fin_group=None):
    """Decode a TargetElement with exactly the keys of its kind; fin
    elements need their group passed in."""
    kind = _target_kind(obj)
    if kind == "perm":
        return _json_perm(obj["images"])
    if kind == "cyclic-perm":
        return CyclicPerm(json_int(obj, "m"), json_int(obj, "shift"))
    if kind == "perm-unitary":
        return PermUnitary(_json_perm(obj["images"]))
    if kind == "unitary":
        k = json_int(obj, "k")
        flat = obj["entries"]
        if not {type(x) for z in flat for x in z} <= {int, float}:
            raise ValueError("unitary entries must be JSON numbers")
        ent = np.array([complex(re, im) for re, im in flat]).reshape(k, k)
        return UnitaryMatrix(ent)
    if kind == "augmented-unitary":
        return AugmentedUnitary(target_from_json(obj["inner"]),
                                json_int(obj, "pad"))
    if kind == "tensor-implicit":
        return ImplicitTensorUnitary(target_from_json(obj["base"]),
                                     json_int(obj, "power"))
    if kind == "rank":
        F = field_from_descriptor(obj["field"])
        if not {type(x) for r in obj["entries"] for x in r} <= {str}:
            raise ValueError("rank entries must be JSON strings")
        rows = [[F.parse(x) for x in r] for r in obj["entries"]]
        return RankMatrix(rows, F)
    # a fin element
    if fin_group is None:
        raise ValueError("finite group element needs its group")
    return fin_group.element(obj["index"])


def json_int(obj, key):
    """obj[key] if it is an exact JSON int (no bool, no float); ValueError
    otherwise."""
    x = obj[key]
    if type(x) is not int:
        raise ValueError(f"{key} must be a JSON integer, not {x!r}")
    return x


def _json_perm(text):
    """The Permutation of one JSON image string (_images_array)."""
    return Permutation._checked(_images_array([text])[0].tolist())

