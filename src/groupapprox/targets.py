"""Approximating metric groups: permutations with Hamming distance, unitaries
with Hilbert-Schmidt distance (plain and projective), invertible matrices over
exact fields with rank distance (plain and projective), finite groups with
bi-invariant table metrics, and implicit tensor-power / wreath elements.

Exact metrics (Hamming, rank, tables) return fractions.Fraction; the
Hilbert-Schmidt family returns floats with an explicit tolerance.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

SQRT2 = math.sqrt(2.0)

# default separation parameter per family
FAMILY_EPSILON = {
    "sofic": Fraction(1),
    "hyp": SQRT2,
    "hyp-projective": SQRT2,
    "lin": Fraction(1, 4),
    "lin-projective": Fraction(1, 8),
    "fin": Fraction(1),
    "trivial": Fraction(1),
}


def family_epsilon(family):
    base = family.split("(")[0]
    if base not in FAMILY_EPSILON:
        raise ValueError(f"unknown family {family!r}")
    return FAMILY_EPSILON[base]


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

    def mul(self, other):
        if isinstance(other, CyclicPerm):
            other = other.materialize()
        if self.k != other.k:
            raise ValueError("degree mismatch")
        im = self.images
        return Permutation(im[j] for j in other.images)

    def inv(self):
        out = [0] * self.k
        for i, v in enumerate(self.images):
            out[v] = i
        return Permutation(out)

    def fixed_points(self):
        return sum(1 for i, v in enumerate(self.images) if i == v)

    def cycle_count(self):
        seen = [False] * self.k
        c = 0
        for i in range(self.k):
            if not seen[i]:
                c += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = self.images[j]
        return c

    def dist(self, other):
        return ham_distance(self, other)

    def __eq__(self, other):
        if isinstance(other, CyclicPerm):
            other = other.materialize()
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def to_json(self):
        return list(self.images)


class CyclicPerm:
    """Translation x -> x + shift on Z/m, kept implicit.

    Closed under composition and inverse; Hamming distance between two
    distinct translations is exactly 1 (no fixed point), so certificates whose
    images are all translations verify in O(1) per pair.
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

    def mul(self, other):
        if isinstance(other, Permutation):
            return self.materialize().mul(other)
        if self.m != other.m:
            raise ValueError("degree mismatch")
        return CyclicPerm(self.m, self.shift + other.shift)

    def inv(self):
        return CyclicPerm(self.m, -self.shift)

    def dist(self, other):
        if isinstance(other, Permutation):
            return self.materialize().dist(other)
        if self.m != other.m:
            raise ValueError("degree mismatch")
        return Fraction(0) if self.shift == other.shift else Fraction(1)

    def materialize(self):
        m = self.m
        s = self.shift
        return Permutation((i + s) % m for i in range(m))

    def __eq__(self, other):
        if isinstance(other, Permutation):
            return self.materialize() == other
        return isinstance(other, CyclicPerm) and (self.m, self.shift) == (other.m, other.shift)

    def __hash__(self):
        return hash((self.m, self.shift))

    def __repr__(self):
        return f"CyclicPerm({self.m}, {self.shift})"

    def to_json(self):
        return {"kind": "cyclic-perm", "m": self.m, "shift": self.shift}


def ham_distance(a, b):
    """Normalized Hamming distance |{i : a(i) != b(i)}| / k, exact."""
    if isinstance(a, CyclicPerm) and isinstance(b, CyclicPerm):
        return a.dist(b)
    if isinstance(a, CyclicPerm):
        a = a.materialize()
    if isinstance(b, CyclicPerm):
        b = b.materialize()
    if a.k != b.k:
        raise ValueError("degree mismatch")
    moved = sum(1 for x, y in zip(a.images, b.images) if x != y)
    return Fraction(moved, a.k)


# ---------------------------------------------------------------------------
# unitaries

class UnitaryMatrix:
    """Dense unitary with an explicit unitarity tolerance."""

    __slots__ = ("entries", "tolerance")

    def __init__(self, entries, tolerance=1e-9, check=True):
        self.entries = np.asarray(entries, dtype=complex)
        self.tolerance = float(tolerance)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ValueError("square matrix required")
        if check:
            k = self.entries.shape[0]
            err = np.abs(self.entries.conj().T @ self.entries - np.eye(k)).max()
            if err > max(self.tolerance, 1e-7 * k):
                raise ValueError(f"not unitary within tolerance: defect {err:.3e}")

    @property
    def k(self):
        return self.entries.shape[0]

    @property
    def dim(self):
        return self.k

    @classmethod
    def identity(cls, k, tolerance=1e-9):
        return cls(np.eye(k), tolerance=tolerance, check=False)

    def mul(self, other):
        other = _as_dense(other)
        return UnitaryMatrix(self.entries @ other.entries,
                             tolerance=max(self.tolerance, other.tolerance),
                             check=False)

    def inv(self):
        return UnitaryMatrix(self.entries.conj().T, tolerance=self.tolerance,
                             check=False)

    def tau(self):
        """Normalized trace tr(u)/k."""
        return complex(np.trace(self.entries)) / self.k

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
                "tolerance": self.tolerance}


class PermUnitary:
    """Permutation matrix kept as the permutation; traces cost O(k)."""

    __slots__ = ("perm", "tolerance")

    def __init__(self, perm, tolerance=1e-9):
        self.perm = perm if isinstance(perm, Permutation) else Permutation(perm)
        self.tolerance = float(tolerance)

    @property
    def k(self):
        return self.perm.k

    @property
    def dim(self):
        return self.perm.k

    def mul(self, other):
        if isinstance(other, PermUnitary):
            return PermUnitary(self.perm.mul(other.perm),
                               tolerance=max(self.tolerance, other.tolerance))
        return _as_dense(self).mul(other)

    def inv(self):
        return PermUnitary(self.perm.inv(), tolerance=self.tolerance)

    def tau(self):
        return self.perm.fixed_points() / self.k

    def dense(self):
        return perm_to_unitary(self.perm, tolerance=self.tolerance)

    def dist(self, other):
        return hs_distance(self, other)

    def pdist(self, other):
        return projective_hs_distance(self, other)

    def __repr__(self):
        return f"PermUnitary(k={self.k})"

    def to_json(self):
        return {"kind": "perm-unitary", "images": list(self.perm.images),
                "tolerance": self.tolerance}


class AugmentedUnitary:
    """Block diagonal diag(inner, I_pad), stored implicitly."""

    __slots__ = ("inner", "pad")

    def __init__(self, inner, pad):
        self.inner = inner
        self.pad = int(pad)
        if self.pad < 0:
            raise ValueError("pad must be nonnegative")

    @property
    def k(self):
        return self.inner.k + self.pad

    @property
    def dim(self):
        return self.k

    @property
    def tolerance(self):
        return self.inner.tolerance

    def mul(self, other):
        if isinstance(other, AugmentedUnitary) and other.pad == self.pad:
            return AugmentedUnitary(self.inner.mul(other.inner), self.pad)
        return _as_dense(self).mul(other)

    def inv(self):
        return AugmentedUnitary(self.inner.inv(), self.pad)

    def tau(self):
        return (self.inner.tau() * self.inner.k + self.pad) / self.k

    def dense(self):
        k = self.k
        out = np.eye(k, dtype=complex)
        out[:self.inner.k, :self.inner.k] = _as_dense(self.inner).entries
        return UnitaryMatrix(out, tolerance=self.tolerance, check=False)

    def dist(self, other):
        return hs_distance(self, other)

    def pdist(self, other):
        return projective_hs_distance(self, other)

    def __repr__(self):
        return f"AugmentedUnitary(inner_k={self.inner.k}, pad={self.pad})"

    def to_json(self):
        return {"kind": "augmented-unitary", "inner": self.inner.to_json(),
                "pad": self.pad}


MATERIALIZE_CAP = 2 ** 10


def _as_dense(u):
    if isinstance(u, UnitaryMatrix):
        return u
    if isinstance(u, PermUnitary):
        return u.dense()
    if isinstance(u, AugmentedUnitary):
        if u.k > MATERIALIZE_CAP:
            raise ValueError(f"refusing to materialize dimension {u.k}")
        return u.dense()
    raise TypeError(f"not a unitary element: {u!r}")


def _tau_vstar_u(u, v):
    """Normalized trace of v* u for unitary-like operands of equal dimension."""
    if u.k != v.k:
        raise ValueError("dimension mismatch")
    if isinstance(u, PermUnitary) and isinstance(v, PermUnitary):
        prod = v.perm.inv().mul(u.perm)
        return prod.fixed_points() / u.k
    if isinstance(u, AugmentedUnitary) and isinstance(v, AugmentedUnitary) \
            and u.pad == v.pad:
        t_inner = _tau_vstar_u(u.inner, v.inner)
        return (t_inner * u.inner.k + u.pad) / u.k
    du, dv = _as_dense(u), _as_dense(v)
    return complex(np.vdot(dv.entries, du.entries)) / u.k


def hs_distance(u, v):
    """Normalized Hilbert-Schmidt distance sqrt((1/k) tr((u-v)*(u-v)))."""
    t = _tau_vstar_u(u, v)
    return math.sqrt(max(0.0, 2.0 - 2.0 * t.real))


def projective_hs_distance(u, v):
    """min over unit scalars of d_HS(u, lambda v) = sqrt(2 - 2|tau(v* u)|)."""
    t = _tau_vstar_u(u, v)
    return math.sqrt(max(0.0, 2.0 - 2.0 * abs(t)))


def perm_to_unitary(perm, tolerance=1e-9):
    """0/1 permutation matrix; multiplicative for left-action composition."""
    if isinstance(perm, CyclicPerm):
        perm = perm.materialize()
    k = perm.k
    m = np.zeros((k, k), dtype=complex)
    for i, v in enumerate(perm.images):
        m[v, i] = 1.0
    return UnitaryMatrix(m, tolerance=tolerance, check=False)


class ImplicitTensorUnitary:
    """base^{tensor power}, represented by the base and the exponent.

    All distances reduce to powers of base traces: tau((A ox ... ox A)(B ox
    ... ox B)*) = tau(AB*)^power, so nothing of size k^power is ever built.
    """

    __slots__ = ("base", "power")

    def __init__(self, base, power):
        if power < 1:
            raise ValueError("power must be >= 1")
        self.base = base
        self.power = int(power)

    @property
    def k(self):
        return self.base.k ** self.power

    @property
    def dim(self):
        return self.k

    @property
    def dim_symbolic(self):
        return {"base": self.base.k, "power": self.power}

    @property
    def tolerance(self):
        return self.base.tolerance

    def mul(self, other):
        self._check(other)
        return ImplicitTensorUnitary(self.base.mul(other.base), self.power)

    def inv(self):
        return ImplicitTensorUnitary(self.base.inv(), self.power)

    def tau(self):
        return self.base.tau() ** self.power

    def _check(self, other):
        if not isinstance(other, ImplicitTensorUnitary) or other.power != self.power:
            raise ValueError("mismatched tensor power")
        if other.base.k != self.base.k:
            raise ValueError("dimension mismatch")

    def dist(self, other):
        self._check(other)
        t = _tau_vstar_u(self.base, other.base) ** self.power
        return math.sqrt(max(0.0, 2.0 - 2.0 * t.real))

    def pdist(self, other):
        self._check(other)
        t = _tau_vstar_u(self.base, other.base) ** self.power
        return math.sqrt(max(0.0, 2.0 - 2.0 * abs(t)))

    def materialize(self):
        if self.k > MATERIALIZE_CAP:
            raise ValueError(f"refusing to materialize dimension {self.k}")
        out = _as_dense(self.base).entries
        for _ in range(self.power - 1):
            out = np.kron(out, _as_dense(self.base).entries)
        return UnitaryMatrix(out, tolerance=self.tolerance, check=False)

    def __repr__(self):
        return f"ImplicitTensorUnitary(base_k={self.base.k}, power={self.power})"

    def to_json(self):
        return {"kind": "tensor-implicit", "base": self.base.to_json(),
                "power": self.power}


# ---------------------------------------------------------------------------
# exact fields and rank matrices

class FieldQ:
    label = "Q"

    def from_int(self, n):
        return Fraction(n)

    def parse(self, s):
        return Fraction(s)

    def fmt(self, x):
        return str(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        return 1 / Fraction(a)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def descriptor(self):
        return "Q"


class FieldFp:
    def __init__(self, p):
        # inv() uses Fermat's little theorem, which needs p prime
        if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise ValueError(f"F{p} is not a field: {p} is not prime")
        self.p = p
        self.label = f"F{p}"

    def from_int(self, n):
        return n % self.p

    def parse(self, s):
        return int(s) % self.p

    def fmt(self, x):
        return str(x)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError
        return pow(a, self.p - 2, self.p)

    def zero(self):
        return 0

    def one(self):
        return 1

    def descriptor(self):
        return {"Fp": self.p}


def field_from_descriptor(d):
    if d == "Q":
        return FieldQ()
    if isinstance(d, dict) and "Fp" in d:
        return FieldFp(d["Fp"])
    raise ValueError(f"unknown field descriptor {d!r}")


def _mat_rank(rows, F):
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, nrows):
            if m[r][col] != F.zero():
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        ipv = F.inv(m[row][col])
        m[row] = [F.mul(x, ipv) for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != F.zero():
                f = m[r][col]
                m[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def _mat_inv(rows, F):
    k = len(rows)
    m = [list(r) + [F.one() if i == j else F.zero() for j in range(k)]
         for i, r in enumerate(rows)]
    row = 0
    for col in range(k):
        piv = None
        for r in range(row, k):
            if m[r][col] != F.zero():
                piv = r
                break
        if piv is None:
            raise ValueError("singular matrix")
        m[row], m[piv] = m[piv], m[row]
        ipv = F.inv(m[row][col])
        m[row] = [F.mul(x, ipv) for x in m[row]]
        for r in range(k):
            if r != row and m[r][col] != F.zero():
                f = m[r][col]
                m[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[r], m[row])]
        row += 1
    return tuple(tuple(r[k:]) for r in m)


class RankMatrix:
    """Invertible matrix over Q or F_p with exact arithmetic."""

    __slots__ = ("field", "rows")

    def __init__(self, rows, field, check=True):
        self.field = field
        self.rows = tuple(tuple(field.from_int(x) if isinstance(x, int) else x
                                for x in r) for r in rows)
        k = len(self.rows)
        if any(len(r) != k for r in self.rows):
            raise ValueError("square matrix required")
        if check and _mat_rank(self.rows, field) != k:
            raise ValueError("matrix is singular")

    @property
    def k(self):
        return len(self.rows)

    @property
    def dim(self):
        return self.k

    @classmethod
    def identity(cls, k, field):
        return cls([[field.one() if i == j else field.zero() for j in range(k)]
                    for i in range(k)], field, check=False)

    def mul(self, other):
        F = self.field
        if F.label != other.field.label:
            raise ValueError("field mismatch")
        k = self.k
        bt = list(zip(*other.rows))
        out = []
        for r in self.rows:
            out.append(tuple(
                _dot(r, col, F) for col in bt))
        return RankMatrix(out, F, check=False)

    def inv(self):
        return RankMatrix(_mat_inv(self.rows, self.field), self.field,
                          check=False)

    def sub(self, other):
        F = self.field
        return tuple(tuple(F.sub(x, y) for x, y in zip(r1, r2))
                     for r1, r2 in zip(self.rows, other.rows))

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
        F = self.field
        return {"kind": "rank", "field": F.descriptor(),
                "entries": [[F.fmt(x) for x in r] for r in self.rows]}


def _dot(r, col, F):
    acc = F.zero()
    for x, y in zip(r, col):
        acc = F.add(acc, F.mul(x, y))
    return acc


def rank_distance(a, b):
    """rank(a - b)/k, exact."""
    if a.field.label != b.field.label or a.k != b.k:
        raise ValueError("field or size mismatch")
    return Fraction(_mat_rank(a.sub(b), a.field), a.k)


def _charpoly_factors(m, F):
    """Irreducible factors of the characteristic polynomial over F."""
    import sympy
    k = len(m)
    if isinstance(F, FieldQ):
        sm = sympy.Matrix([[sympy.Rational(x) for x in r] for r in m])
        poly = sm.charpoly(sympy.Symbol("_t"))
        _, factors = sympy.factor_list(poly.as_expr())
    else:
        sm = sympy.Matrix([[int(x) for x in r] for r in m])
        poly = sm.charpoly(sympy.Symbol("_t"))
        _, factors = sympy.factor_list(poly.as_expr(), modulus=F.p)
    return factors


def _poly_eval_matrix(coeffs, M, F):
    """Evaluate sum coeffs[i] x^i at the matrix M (Horner), exactly."""
    k = M.k
    out = None
    for c in reversed(coeffs):
        if out is None:
            out = [[F.from_int(0) for _ in range(k)] for _ in range(k)]
        else:
            prod = []
            bt = list(zip(*M.rows))
            for r in out:
                prod.append([_dot(r, col, F) for col in bt])
            out = prod
        for i in range(k):
            out[i][i] = F.add(out[i][i], c)
    return tuple(tuple(r) for r in out)


def projective_rank_distance(a, b):
    """min over scalars in the algebraic closure of rank(a - lambda b)/k.

    Equals (k - g)/k where g is the largest geometric multiplicity of an
    eigenvalue of b^-1 a; computed from irreducible factors f of the
    characteristic polynomial as dim ker f(M) / deg f, never by enumerating
    eigenvalues.
    """
    import sympy
    if a.field.label != b.field.label or a.k != b.k:
        raise ValueError("field or size mismatch")
    F = a.field
    M = b.inv().mul(a)
    k = M.k
    best = 0
    for f, _mult in _charpoly_factors(M.rows, F):
        poly = sympy.Poly(f, sympy.Symbol("_t"))
        deg = poly.degree()
        coeffs = list(reversed(poly.all_coeffs()))
        if isinstance(F, FieldQ):
            cs = [Fraction(sympy.Rational(c).p, sympy.Rational(c).q) for c in coeffs]
        else:
            cs = [int(c) % F.p for c in coeffs]
        fm = _poly_eval_matrix(cs, M, F)
        ker = k - _mat_rank(fm, F)
        geo = ker // deg
        best = max(best, geo)
    return Fraction(k - best, k)


def perm_to_rank(perm, field):
    """0/1 permutation matrix over an exact field."""
    if isinstance(perm, CyclicPerm):
        perm = perm.materialize()
    k = perm.k
    rows = [[field.zero()] * k for _ in range(k)]
    for i, v in enumerate(perm.images):
        rows[v][i] = field.one()
    return RankMatrix(rows, field, check=False)


# ---------------------------------------------------------------------------
# block sums

def block_sum(a, b):
    """Direct sum; Hamming/rank distances to a reference combine as weighted
    averages, squared HS distance likewise."""
    if isinstance(a, (Permutation, CyclicPerm)) and isinstance(b, (Permutation, CyclicPerm)):
        if isinstance(a, CyclicPerm):
            a = a.materialize()
        if isinstance(b, CyclicPerm):
            b = b.materialize()
        m = a.k
        return Permutation(list(a.images) + [m + x for x in b.images])
    if isinstance(a, PermUnitary) and isinstance(b, PermUnitary):
        return PermUnitary(block_sum(a.perm, b.perm),
                           tolerance=max(a.tolerance, b.tolerance))
    if isinstance(a, RankMatrix) and isinstance(b, RankMatrix):
        if a.field.label != b.field.label:
            raise ValueError("field mismatch")
        F = a.field
        k1, k2 = a.k, b.k
        rows = []
        for i, r in enumerate(a.rows):
            rows.append(list(r) + [F.zero()] * k2)
        for i, r in enumerate(b.rows):
            rows.append([F.zero()] * k1 + list(r))
        return RankMatrix(rows, F, check=False)
    ua, ub = _as_dense(a), _as_dense(b)
    k1, k2 = ua.k, ub.k
    out = np.zeros((k1 + k2, k1 + k2), dtype=complex)
    out[:k1, :k1] = ua.entries
    out[k1:, k1:] = ub.entries
    return UnitaryMatrix(out, tolerance=max(ua.tolerance, ub.tolerance),
                         check=False)


# ---------------------------------------------------------------------------
# finite metric groups

class TableMetricGroup:
    """Finite group by multiplication table with a bi-invariant metric."""

    def __init__(self, mul_table, dist_table, identity=0, labels=None,
                 validate=True):
        self.mul_table = tuple(tuple(r) for r in mul_table)
        self.dist_table = tuple(tuple(r) for r in dist_table)
        self.identity_index = identity
        self.order = len(self.mul_table)
        self.labels = list(labels) if labels else [str(i) for i in range(self.order)]
        self.inv_table = self._invert()
        if validate:
            self.validate()

    def _invert(self):
        e = self.identity_index
        inv = [None] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.mul_table[a][b] == e:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ValueError(f"element {a} has no inverse")
        return tuple(inv)

    def validate(self, sample=None):
        """Group axioms, metric axioms and bi-invariance.

        Exhaustive for order <= 64, otherwise on a deterministic sample.
        """
        import itertools
        import random
        n = self.order
        e = self.identity_index
        for a in range(n):
            if self.mul_table[a][e] != a or self.mul_table[e][a] != a:
                raise ValueError("identity law fails")
            if self.dist_table[a][a] != 0:
                raise ValueError("metric not reflexive")
            for b in range(n):
                if self.dist_table[a][b] != self.dist_table[b][a]:
                    raise ValueError("metric not symmetric")
                if a != b and not (0 < self.dist_table[a][b] <= 1):
                    raise ValueError("distance out of range")
        if n <= 64:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = random.Random(12345)
            triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                       for _ in range(sample or 2000))
        for a, b, c in triples:
            ab_c = self.mul_table[self.mul_table[a][b]][c]
            a_bc = self.mul_table[a][self.mul_table[b][c]]
            if ab_c != a_bc:
                raise ValueError("associativity fails")
            # bi-invariance: d(cab, cbb')..., use d(c a, c b) and d(a c, b c)
            if self.dist_table[self.mul_table[c][a]][self.mul_table[c][b]] \
                    != self.dist_table[a][b]:
                raise ValueError("left invariance fails")
            if self.dist_table[self.mul_table[a][c]][self.mul_table[b][c]] \
                    != self.dist_table[a][b]:
                raise ValueError("right invariance fails")
            d_ab = self.dist_table[a][b]
            d_bc = self.dist_table[b][c]
            d_ac = self.dist_table[a][c]
            if d_ac > d_ab + d_bc + 1e-12:
                raise ValueError("triangle inequality fails")

    def element(self, i):
        return FiniteGroupElement(self, i)

    def identity_element(self):
        return FiniteGroupElement(self, self.identity_index)

    def mul(self, i, j):
        return self.mul_table[i][j]

    def inv(self, i):
        return self.inv_table[i]

    def dist(self, i, j):
        return self.dist_table[i][j]

    def to_json(self):
        def num(x):
            if isinstance(x, Fraction):
                return [x.numerator, x.denominator]
            return x
        return {"kind": "table",
                "mul": [list(r) for r in self.mul_table],
                "dist": [[num(x) for x in r] for r in self.dist_table],
                "identity": self.identity_index,
                "labels": self.labels}

    @classmethod
    def from_json(cls, obj):
        def num(x):
            if isinstance(x, list):
                return Fraction(x[0], x[1])
            return x
        return cls(obj["mul"], [[num(x) for x in r] for r in obj["dist"]],
                   identity=obj.get("identity", 0), labels=obj.get("labels"),
                   validate=False)


def trivial_metric_group(G):
    """Tables of a catalog group exposing elements()/mul, with the 0/1
    metric."""
    elems = G.elements()
    idx = {p: i for i, p in enumerate(elems)}
    mul = [[idx[G.mul(a, b)] for b in elems] for a in elems]
    dist = [[Fraction(0) if i == j else Fraction(1)
             for j in range(len(elems))] for i in range(len(elems))]
    labels = [G.fmt(p) for p in elems]
    return TableMetricGroup(mul, dist, identity=idx[G.identity()],
                            labels=labels, validate=False)


def quotient_metric_group(desc):
    """Finite quotient G/N as a table group with the trivial metric."""
    residues = sorted(desc.residues(), key=desc.residue_key)
    idx = {r: i for i, r in enumerate(residues)}
    mul = [[idx[desc.quotient_mul(a, b)] for b in residues] for a in residues]
    dist = [[Fraction(0) if i == j else Fraction(1)
             for j in range(len(residues))] for i in range(len(residues))]
    e = idx[desc.identity_residue()]
    labels = [str(r) for r in residues]
    return TableMetricGroup(mul, dist, identity=e, labels=labels,
                            validate=False), residues, idx


class FiniteGroupElement:
    """Element of a finite metric group, by index."""

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
        return FiniteGroupElement(self.group, self.group.mul(self.index, other.index))

    def inv(self):
        return FiniteGroupElement(self.group, self.group.inv(self.index))

    def dist(self, other):
        if other.group is not self.group:
            raise ValueError("element of a different finite group")
        return self.group.dist(self.index, other.index)

    def __eq__(self, other):
        return (isinstance(other, FiniteGroupElement)
                and other.group is self.group and other.index == self.index)

    def __hash__(self):
        return hash((id(self.group), self.index))

    def __repr__(self):
        return f"FiniteGroupElement({self.group.labels[self.index]})"

    def to_json(self):
        return {"kind": "fin", "index": self.index}


# largest WreathMetricGroup order that to_table() materializes
_WREATH_TABLE_CAP = 4096


class WreathMetricGroup:
    """G_alpha wr F for finite G_alpha and F, with the canonical metric:

        d((b,x),(b',x')) = max_t d(b(t), b'(t)) if x = x', else 1.

    Elements are (tuple of base indices, index into the top element list);
    multiplication follows (f0,h0)(f1,h1) = (t -> f0(h1 t) f1(t), h0 h1).
    """

    def __init__(self, base, top):
        self.base = base  # TableMetricGroup (or compatible)
        self.top = top    # catalog finite group
        self.top_elements = sorted(top.elements(), key=top.key)
        self.top_index = {p: i for i, p in enumerate(self.top_elements)}
        self.order = (base.order ** len(self.top_elements)) * len(self.top_elements)
        self.labels = None

    @property
    def m(self):
        return len(self.top_elements)

    def identity_payload(self):
        return ((self.base.identity_index,) * self.m,
                self.top_index[self.top.identity()])

    def identity_element(self):
        return FiniteGroupElement(self, self.identity_payload())

    def element(self, payload):
        return FiniteGroupElement(self, payload)

    def mul(self, p, q):
        f0, h0 = p
        f1, h1 = q
        t_h1 = self.top_elements[h1]
        out = []
        for i, t in enumerate(self.top_elements):
            j = self.top_index[self.top.mul(t_h1, t)]
            out.append(self.base.mul(f0[j], f1[i]))
        h = self.top_index[self.top.mul(self.top_elements[h0], t_h1)]
        return (tuple(out), h)

    def inv(self, p):
        f, h = p
        t_h = self.top_elements[h]
        hinv = self.top.inv(t_h)
        out = []
        for t in self.top_elements:
            j = self.top_index[self.top.mul(hinv, t)]
            out.append(self.base.inv(f[j]))
        return (tuple(out), self.top_index[hinv])

    def dist(self, p, q):
        if p[1] != q[1]:
            return Fraction(1)
        worst = Fraction(0)
        for i, j in zip(p[0], q[0]):
            d = self.base.dist(i, j)
            if d > worst:
                worst = d
        return worst

    def payload_label(self, p):
        f, h = p
        sup = ",".join(f"{self.top.fmt(self.top_elements[i])}:{self.base.labels[x]}"
                       for i, x in enumerate(f)
                       if x != self.base.identity_index)
        return "{" + sup + "|" + self.top.fmt(self.top_elements[h]) + "}"

    def to_table(self):
        """Materialize as a TableMetricGroup (for JSON), small orders only."""
        if self.order > _WREATH_TABLE_CAP:
            raise ValueError(
                f"order {self.order} above table cap {_WREATH_TABLE_CAP}")
        from itertools import product
        payloads = [(tuple(f), h)
                    for h in range(self.m)
                    for f in product(range(self.base.order), repeat=self.m)]
        payloads.sort()
        idx = {p: i for i, p in enumerate(payloads)}
        mul = [[idx[self.mul(a, b)] for b in payloads] for a in payloads]
        dist = [[self.dist(a, b) for b in payloads] for a in payloads]
        labels = [self.payload_label(p) for p in payloads]
        return TableMetricGroup(mul, dist, identity=idx[self.identity_payload()],
                                labels=labels, validate=False), idx


class PermWreathElement:
    """Element of Sym(A) x| G_alpha^A with the coordinate-sum metric:

        d((s,b),(s',b')) = (1/|A|) sum_{a: s(a)=s'(a)} d(b(a), b'(a))
                           + d_Ham(s, s').

    For G_alpha = Sym(m) with Hamming this is exactly the Hamming distance on
    Sym(A x [m]) under the block identification.
    """

    __slots__ = ("perm", "bells")

    def __init__(self, perm, bells):
        self.perm = perm
        self.bells = tuple(bells)
        if len(self.bells) != perm.k:
            raise ValueError("one bell per permutation point required")

    @property
    def size(self):
        return self.perm.k

    @property
    def dim(self):
        return self.perm.k * self.bells[0].dim

    def mul(self, other):
        s1 = other.perm
        bells = tuple(self.bells[s1.images[a]].mul(other.bells[a])
                      for a in range(self.size))
        return PermWreathElement(self.perm.mul(s1), bells)

    def inv(self):
        pinv = self.perm.inv()
        bells = tuple(self.bells[pinv.images[a]].inv()
                      for a in range(self.size))
        return PermWreathElement(pinv, bells)

    def dist(self, other):
        n = self.size
        acc = Fraction(0)
        for a in range(n):
            if self.perm.images[a] == other.perm.images[a]:
                acc += Fraction(self.bells[a].dist(other.bells[a]))
        return acc / n + ham_distance(self.perm, other.perm)

    def __eq__(self, other):
        return (isinstance(other, PermWreathElement)
                and self.perm == other.perm and self.bells == other.bells)

    def __repr__(self):
        return f"PermWreathElement(|A|={self.size})"

    def to_json(self):
        return {"kind": "perm-wreath", "perm": list(self.perm.images),
                "bells": [b.to_json() for b in self.bells]}


# ---------------------------------------------------------------------------
# batched distances

def batch(images):
    """Distances from one image of a fixed list to many others.

    Row queries return the extreme distance and its position in the row.
    Lists of Permutation or of PermUnitary are compared as one integer image
    array; every other list (CyclicPerm included, whose scalar mul/dist are
    O(1) closed forms) calls its scalar mul/dist/pdist. Either way a row's
    value equals the scalar extreme.
    """
    if all(isinstance(t, Permutation) for t in images):
        return _PermRows([t.images for t in images], hamming=True)
    if all(isinstance(t, PermUnitary) for t in images):
        return _PermRows([t.perm.images for t in images], hamming=False)
    return _ScalarRows(images)


def _first_extreme(values, pick):
    """(extreme value, first position attaining it) of a nonempty iterable."""
    pos, value = pick(enumerate(values), key=lambda iv: iv[1])
    return value, pos


class _ScalarRows:
    def __init__(self, images):
        self.images = images

    def max_defect(self, i, js, ts):
        """Max over r of d(x_i x_js[r], x_ts[r]), and the first such r."""
        x, ims = self.images[i], self.images
        return _first_extreme((x.mul(ims[j]).dist(ims[t])
                               for j, t in zip(js.tolist(), ts.tolist())), max)

    def min_dist(self, i, js):
        """Min over r of d(x_i, x_js[r]), and the first such r."""
        x, ims = self.images[i], self.images
        return _first_extreme((x.dist(ims[j]) for j in js.tolist()), min)

    def min_pdist(self, i, js):
        """Min over r of the projective distance of x_i and x_js[r]."""
        x, ims = self.images[i], self.images
        return _first_extreme((x.pdist(ims[j]) for j in js.tolist()), min)


class _PermRows:
    """Rows over an integer image array; distances come from moved-point
    counts, converted with the scalar formulas: Fraction(moved, k) for
    Hamming, sqrt(2 - 2 tau) with tau = fixed/k for Hilbert-Schmidt, whose
    projective form coincides because tau >= 0."""

    def __init__(self, images, hamming):
        self.P = np.array(images, dtype=np.int32)
        self.k = self.P.shape[1]
        self.hamming = hamming

    def _value(self, moved):
        if self.hamming:
            return Fraction(moved, self.k)
        t = (self.k - moved) / self.k
        return math.sqrt(max(0.0, 2.0 - 2.0 * t))

    def max_defect(self, i, js, ts):
        P = self.P
        composed = np.take(P[i], np.take(P, js, axis=0))
        moved = np.count_nonzero(composed != np.take(P, ts, axis=0), axis=1)
        r = int(np.argmax(moved))
        return self._value(int(moved[r])), r

    def min_dist(self, i, js):
        moved = np.count_nonzero(self.P[i] != np.take(self.P, js, axis=0),
                                 axis=1)
        r = int(np.argmin(moved))
        return self._value(int(moved[r])), r

    def min_pdist(self, i, js):
        if self.hamming:
            raise TypeError("the Hamming metric has no projective form")
        return self.min_dist(i, js)


# ---------------------------------------------------------------------------
# JSON decoding

def target_from_json(obj, fin_group=None):
    """Decode a TargetElement; fin elements need their group passed in.
    Unitaries without a tolerance field get the 1e-9 default."""
    if isinstance(obj, list):
        return Permutation(obj)
    kind = obj.get("kind")
    if kind == "cyclic-perm":
        return CyclicPerm(obj["m"], obj["shift"])
    if kind == "perm-unitary":
        return PermUnitary(obj["images"], tolerance=obj.get("tolerance", 1e-9))
    if kind == "unitary":
        k = obj["k"]
        flat = obj["entries"]
        ent = np.array([complex(re, im) for re, im in flat]).reshape(k, k)
        return UnitaryMatrix(ent, tolerance=obj.get("tolerance", 1e-9))
    if kind == "augmented-unitary":
        return AugmentedUnitary(target_from_json(obj["inner"]), obj["pad"])
    if kind == "tensor-implicit":
        return ImplicitTensorUnitary(target_from_json(obj["base"]), obj["power"])
    if kind == "rank":
        F = field_from_descriptor(obj["field"])
        rows = [[F.parse(x) for x in r] for r in obj["entries"]]
        return RankMatrix(rows, F)
    if kind == "fin":
        if fin_group is None:
            raise ValueError("finite group element needs its group")
        return FiniteGroupElement(fin_group, obj["index"])
    if kind == "perm-wreath":
        bells = [target_from_json(b) for b in obj["bells"]]
        return PermWreathElement(Permutation(obj["perm"]), bells)
    raise ValueError(f"unknown target encoding {obj!r}")
