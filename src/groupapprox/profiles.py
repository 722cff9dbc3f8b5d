"""Profile estimation: exact oracles at tiny radius, upper curves from
builders, lower bounds from counting, Folner and residual-finiteness search,
and an auditor for the inequality web tying the profiles together."""
from __future__ import annotations

import collections
import itertools
import math
from fractions import Fraction

import numpy as np

from . import groups as G_
from . import construct as X_

INF = float("inf")


class ProfilePoint:
    """One datum: at radius n the profile is (at least / at most / exactly)
    value. value None means Unknown."""

    def __init__(self, n, value, provenance, detail=None, certificate=None):
        if provenance not in ("exact", "upper", "lower"):
            raise ValueError(f"bad provenance {provenance!r}")
        self.n = int(n)
        self.value = value
        self.provenance = provenance
        self.detail = detail
        self.certificate = certificate

    def to_json(self):
        v = self.value
        if v == INF:
            v = "inf"
        return {"n": self.n, "value": v, "provenance": self.provenance,
                "detail": self.detail}

    def __repr__(self):
        return (f"ProfilePoint(n={self.n}, {self.provenance}="
                f"{self.value}{'' if self.detail is None else ' ' + str(self.detail)})")


class ProfileCurve:
    def __init__(self, group_desc, family):
        self.group_desc = group_desc
        self.family = family
        self.points = []

    def add(self, point):
        self.points.append(point)
        return self

    def ns(self):
        return sorted({p.n for p in self.points})

    def _best(self, n, kinds, pick):
        vals = [p.value for p in self.points
                if p.n == n and p.provenance in kinds and p.value is not None]
        return pick(vals) if vals else None

    def best_upper(self, n):
        return self._best(n, ("upper", "exact"), min)

    def best_lower(self, n):
        return self._best(n, ("lower", "exact"), max)

    def exact(self, n):
        return self._best(n, ("exact",), min)

    def fit_slope(self, window):
        """Least-squares slope of log(best upper value) against log(n) over
        [lo, hi]; ValueError when fewer than two points there have a
        finite nonzero upper value."""
        lo, hi = window
        xs, ys = [], []
        for n in self.ns():
            if not (lo <= n <= hi) or n < 1:
                continue
            v = self.best_upper(n)
            if v is None or v in (0, INF) or isinstance(v, dict):
                continue
            xs.append(math.log(n))
            ys.append(math.log(float(v)))
        if len(xs) < 2:
            raise ValueError(f"slope window {lo},{hi} selects {len(xs)} "
                             f"point(s) with an upper value, and a fit "
                             f"needs 2")
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        den = sum((x - xbar) ** 2 for x in xs)
        slope = num / den
        return {"slope": slope, "window": [lo, hi], "points": len(xs),
                "intercept": ybar - slope * xbar}

    def rows(self):
        """CSV-ready rows: n, lower, exact, upper, provenance notes."""
        out = []
        for n in self.ns():
            lo = self.best_lower(n)
            ex = self.exact(n)
            up = self.best_upper(n)
            tags = sorted({p.provenance for p in self.points if p.n == n})
            out.append({"n": n, "lower": lo, "exact": ex, "upper": up,
                        "provenance": "+".join(tags)})
        return out

    def to_json(self):
        return {"group": self.group_desc, "family": self.family,
                "points": [p.to_json() for p in
                           sorted(self.points,
                                  key=lambda p: (p.n, p.provenance))]}


# ---------------------------------------------------------------------------
# exact sofic oracle at tiny radius

def _cycle_type_representatives(k):
    """One permutation per conjugacy class of Sym(k), canonical form."""
    reps = []
    for part in _partitions(k):
        images = list(range(k))
        start = 0
        for length in part:
            for i in range(length):
                images[start + i] = start + (i + 1) % length
            start += length
        reps.append(tuple(images))
    return reps


def _partitions(k):
    if k == 0:
        yield ()
        return
    for first in range(k, 0, -1):
        for rest in _partitions(k - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


class _OracleBudget(Exception):
    pass


def _ball_search(B, identity, candidates, apart, near, state, budget):
    """Images for the slots of the ball B by backtracking, or None.

    Slot 0 (the identity of B) holds identity. Slot s >= 1 tries the images
    of candidates[s - 1] in order, keeping one that is apart(new, old) from
    every earlier slot and near(x_i, x_j, x_t) on each product triple
    (i, j, t) of B that the slot completes, max(i, j, t) = s. The
    constraints among earlier slots held when those were placed, so a node
    checks only its own. Triples with a factor at slot 0 hold for an
    identity image and are skipped. Every node counts in state["nodes"];
    passing budget raises _OracleBudget.
    """
    completes = [[] for _ in range(len(B))]
    for i, row in enumerate(B.products().tolist()):
        for j, t in enumerate(row):
            if i and j and t >= 0:
                completes[max(i, j, t)].append((i, j, t))
    assigned = [identity] + [None] * (len(B) - 1)

    def fits(pos):
        new = assigned[pos]
        for old in assigned[:pos]:
            if not apart(new, old):
                return False
        for i, j, t in completes[pos]:
            if not near(assigned[i], assigned[j], assigned[t]):
                return False
        return True

    def rec(pos):
        state["nodes"] += 1
        if state["nodes"] > budget:
            raise _OracleBudget
        if pos == len(B):
            return True
        for c in candidates[pos - 1]:
            assigned[pos] = c
            if fits(pos) and rec(pos + 1):
                return True
        assigned[pos] = None
        return False

    return assigned if rec(1) else None


def _sofic_witness(B, n, k, state, budget):
    """Images in Sym(k) of the elements of B, identity first, that are
    (n,1)-approximate: fewer than k/n agreements between distinct elements
    and fewer than k/n moved points on each product. None if there are
    none. The first image after the identity runs over cycle-type
    representatives: conjugating the whole assignment moves any witness
    into this normal form."""
    perms = list(itertools.permutations(range(k)))

    def apart(a, b):
        return sum(1 for x, y in zip(a, b) if x == y) * n < k

    def near(a, b, c):
        return sum(1 for x in range(k) if a[b[x]] != c[x]) * n < k

    candidates = [_cycle_type_representatives(k)] + [perms] * (len(B) - 2)
    return _ball_search(B, tuple(range(k)), candidates, apart, near,
                        state, budget)


def sofic_exact_oracle(G, n, k_max, budget=200_000):
    """Least k <= k_max admitting an (n,1)-approximation into Sym(k).

    Backtracking over k (_sofic_witness). Unknown (value None) on budget
    exhaustion, with the surviving bounds in the detail.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    B = G_.ball(G, n)
    if len(B) > 9 or k_max > 7:
        raise ValueError("oracle guarded to tiny balls and k_max <= 7")
    state = {"nodes": 0}
    refuted = []
    for k in range(1, k_max + 1):
        try:
            if _sofic_witness(B, n, k, state, budget) is not None:
                return ProfilePoint(
                    n, k, "exact",
                    detail={"refuted": refuted, "nodes": state["nodes"]})
            refuted.append(k)
        except _OracleBudget:
            return ProfilePoint(
                n, None, "lower",
                detail={"refuted": refuted, "budget_exhausted_at": k,
                        "lower": (refuted[-1] + 1) if refuted else 1})
    return ProfilePoint(
        n, None, "lower",
        detail={"refuted": refuted, "lower": k_max + 1,
                "note": f"no witness up to k_max={k_max}",
                "nodes": state["nodes"]})


def weakly_sofic_exact_Z(n):
    """Exact finite-target profile of Z: ball size forces 2n+1, the cyclic
    quotient achieves it."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ProfilePoint(0, 1, "exact", detail={"lower": "trivial",
                                                   "upper": "trivial"})
    return ProfilePoint(
        n, 2 * n + 1, "exact",
        detail={"lower": "ball injection needs |F| >= |B(n)| = 2n+1",
                "upper": f"quotient Z/{2 * n + 1}"})


# ---------------------------------------------------------------------------
# Folner search

class FolnerOutcome:
    def __init__(self, witness, exact, note, best_defect=None):
        self.witness = witness
        self.exact = exact
        self.note = note
        self.best_defect = best_defect

    @property
    def size(self):
        return len(self.witness.members) if self.witness else None

    def __repr__(self):
        if self.witness is None:
            return f"FolnerOutcome(Unknown, {self.note})"
        tag = "exact" if self.exact else "upper"
        return f"FolnerOutcome(size={self.size}, {tag}, {self.note})"


def folner_search(G, n, strategy="balls", r_max=None, size_max=None):
    """Search for a small Folner set at radius n.

    exhaustive: true minimum size over normalized subsets (certifies
    exactness for Z when the window covers all gap-bounded optimal sets);
    balls: A = B(r) for growing r; boxes: integer boxes in Z^d.
    r_max and size_max, where given, are at least 1; balls without r_max
    grows r up to 20.
    """
    if n < 1:
        raise ValueError("Folner condition needs n >= 1")
    for name, value in (("r_max", r_max), ("size_max", size_max)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, not {value}")
    if strategy == "exhaustive":
        return _folner_exhaustive(G, n, r_max, size_max)
    if strategy == "balls":
        return _folner_balls(G, n, 20 if r_max is None else r_max)
    if strategy == "boxes":
        return _folner_boxes(G, n)
    raise ValueError(f"unknown strategy {strategy!r}")


# the exhaustive Folner search gives up after this many candidate subsets
_SUBSET_BUDGET = 2_000_000


def _folner_exhaustive(G, n, r_max, size_max):
    if r_max is None or size_max is None:
        raise ValueError("exhaustive search needs r_max and size_max")
    is_Z = isinstance(G, G_.FreeAbelian) and G.d == 1
    if is_Z:
        # translation-normalize: min element at 0; any valid set splits at a
        # gap wider than 2n into valid components, so optimal sets have
        # bounded spread and the window [0, 2 r_max] suffices when
        # 2 r_max >= 2n(size_max - 1).
        window = [(i,) for i in range(0, 2 * r_max + 1)]
        certified = 2 * r_max >= 2 * n * (size_max - 1)
    else:
        window = list(G_.ball(G, r_max).elements)
        certified = False
    checked = 0
    for size in range(1, size_max + 1):
        if is_Z:
            candidates = (((0,),) + rest for rest in
                          itertools.combinations(window[1:], size - 1))
        else:
            candidates = itertools.combinations(window, size)
        for members in candidates:
            checked += 1
            if checked > _SUBSET_BUDGET:
                return FolnerOutcome(None, False,
                                     f"subset budget exhausted ({checked})")
            d = X_.folner_defect(G, members, n)
            if d <= Fraction(1, n):
                w = X_.FolnerWitness(G, n, members)
                return FolnerOutcome(
                    w, certified,
                    f"minimum over window of size {len(window)}"
                    + ("" if certified else " (window not certified)"))
    return FolnerOutcome(None, certified,
                         f"no valid set up to size {size_max}")


def _folner_balls(G, n, r_max):
    best = None
    for r in range(1, r_max + 1):
        try:
            members = list(G_.ball(G, r).elements)
        except G_.BallCapExceeded:
            return FolnerOutcome(None, False,
                                 f"ball cap exceeded at r={r}", best)
        d = X_.folner_defect(G, members, n)
        if best is None or d < best:
            best = d
        if d <= Fraction(1, n):
            w = X_.FolnerWitness(G, n, members)
            return FolnerOutcome(w, False, f"ball of radius {r}")
    return FolnerOutcome(None, False, f"no ball up to r={r_max}", best)


def box_defect_Zd(d, L, n):
    """Defect of the box [0,L)^d at radius n, by the exact overlap formula.

    The sum over g in B(n) of |A delta (A + g)| = 2 (L^d - overlap(g)), with
    overlap(g) the product of max(0, L - |g_i|), depends only on the |g_i|.
    With m(0) = 1 and m(a) = 2 the number of integers of absolute value a,
    the sum of the overlaps is the d-fold convolution of h(a) = m(a) max(0,
    L - a) summed up to total n, and |B(n)| that of m: in integers, O(d n^2),
    and O(n) for d <= 2 by prefix sums.
    """
    if L < 1:
        raise ValueError("box side must be positive")
    if d < 1:
        raise ValueError("d must be >= 1")
    if n < 0:
        raise ValueError("radius must be nonnegative")
    m = [1] + [2] * n
    h = [m[a] * max(0, L - a) for a in range(n + 1)]
    size = L ** d
    return Fraction(
        2 * (_truncated_power(m, d, n) * size - _truncated_power(h, d, n)),
        size)


def _truncated_power(f, d, n):
    """The sum over a_1 + ... + a_d <= n (each a_i >= 0) of f[a_1] ...
    f[a_d]: the d-fold convolution of f summed up to total n, the last
    factor against the prefix sums of the others."""
    conv = f if d > 1 else [1] + [0] * n
    for _ in range(d - 2):
        conv = [sum(conv[t - a] * f[a] for a in range(t + 1))
                for t in range(n + 1)]
    prefix = list(itertools.accumulate(conv))
    return sum(f[a] * prefix[n - a] for a in range(n + 1))


def _folner_boxes(G, n):
    if not isinstance(G, G_.FreeAbelian):
        raise ValueError("box strategy applies to free abelian groups")
    d = G.d
    L = minimal_box_side_Zd(d, n)
    members = [tuple(v) for v in itertools.product(range(L), repeat=d)]
    w = X_.FolnerWitness(G, n, members)
    return FolnerOutcome(w, False, f"box of side {L}")


def minimal_box_side_Zd(d, n):
    """Least box side whose defect clears 1/n, found by doubling + bisection."""
    lo, hi = 1, 2
    while box_defect_Zd(d, hi, n) > Fraction(1, n):
        lo, hi = hi, hi * 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if box_defect_Zd(d, mid, n) <= Fraction(1, n):
            hi = mid
        else:
            lo = mid
    return hi if box_defect_Zd(d, lo, n) > Fraction(1, n) else lo


def folner_box_value_Zd(d, n):
    """|A| of the minimal valid box, without materializing the box."""
    return minimal_box_side_Zd(d, n) ** d


def interval_witness_Z(n):
    """Interval witness of the closed-form minimal length 2n^2(n+1)."""
    L = 2 * n * n * (n + 1)
    members = [(i,) for i in range(1, L + 1)]
    return X_.FolnerWitness(G_.FreeAbelian(1), n, members)


def folner_bound_nilpotent(d, n):
    """Closed-form upper reference 2^(dn+4) n^(d+1) for growth degree d."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return (2 ** (d * n + 4)) * n ** (d + 1)


# ---------------------------------------------------------------------------
# full residual finiteness growth

def _divisors(k):
    out = []
    i = 1
    while i * i <= k:
        if k % i == 0:
            out.append(i)
            if i != k // i:
                out.append(k // i)
        i += 1
    return sorted(out)


def full_rf_growth(G, n, quotient_family="auto"):
    """Least index of an enumerated finite quotient whose kernel meets B(n)
    only at the identity.

    Exact for Z^d (every finite-index subgroup is a sublattice); congruence
    quotients of the Heisenberg group give upper bounds only.
    """
    if isinstance(G, G_.FreeAbelian):
        return _rf_growth_lattice(G, n)
    if isinstance(G, G_.Heisenberg):
        if quotient_family in ("auto", "congruence"):
            return _rf_growth_heis_recipe(G, n)
        if quotient_family == "congruence-least":
            return _rf_growth_heis_least(G, n)
        raise ValueError(f"unknown quotient family {quotient_family!r}")
    raise NotImplementedError(f"no quotient enumeration for {G!r}")


def _rf_growth_lattice(G, n):
    """The least index k of a sublattice of Z^d (d <= 2) that meets B(n)
    only at 0, with the first such sublattice in HNF order: a ascending,
    then b ascending, for the rows (a, b), (0, c) with a * c = k and
    0 <= b < c; for d = 1 the one sublattice kZ.

    (x, y) = s (a, b) + t (0, c) exactly when a | x and c | y - b x / a, so
    for each index k and divisor a one boolean array of c rows by the
    nonzero ball rows with a | x tests every b at once, in integers.
    """
    if G.d > 2:
        raise NotImplementedError(
            "sublattice enumeration implemented for d <= 2")
    cap = (n + 1) ** G.d + 1
    C = G_.ball(G, n).coords()[1:]
    x = C[:, 0]
    y = C[:, 1] if G.d == 2 else np.zeros_like(x)
    # a sublattice of index k contains k e_1, of word length k, so every
    # index k <= n meets B(n) outside the identity
    for k in range(n + 1, cap + 1):
        for a in _divisors(k) if G.d == 2 else [k]:
            c = k // a
            on = x % a == 0
            q, r = x[on] // a, y[on]
            b = np.arange(c)[:, None]
            free = np.flatnonzero(((r - b * q) % c).all(axis=1))
            if len(free):
                rows = [(a, int(free[0])), (0, c)] if G.d == 2 else [(k,)]
                return ProfilePoint(
                    n, k, "exact",
                    detail={"kernel": rows,
                            "note": "all finite-index subgroups enumerated"})
    return ProfilePoint(n, None, "lower",
                        detail={"lower": cap + 1, "note": "cap exceeded"})


def heisenberg_congruence_modulus(n):
    """A priori modulus n^2: any nonzero multiple of n^2 in a coordinate
    forces word length above n (central elements of height c need length
    about 4 sqrt(c), and 4 sqrt(n^2) > n for n >= 2)."""
    return max(2, n * n)


def _rf_growth_heis_recipe(G, n):
    m = heisenberg_congruence_modulus(n)
    Q = G_.CongruenceMod(G, m)
    if G_.kernel_witness(G, Q, n) is not None:
        raise AssertionError(f"recipe modulus {m} fails at n={n}")
    return ProfilePoint(
        n, Q.index, "upper",
        detail={"modulus": m, "note": "congruence quotients only"})


def _rf_growth_heis_least(G, n):
    cap = heisenberg_congruence_modulus(n) + 1
    for m in range(2, cap + 1):
        Q = G_.CongruenceMod(G, m)
        if G_.kernel_witness(G, Q, n) is None:
            return ProfilePoint(
                n, Q.index, "upper",
                detail={"modulus": m,
                        "note": "least congruence modulus; congruence only"})
    return ProfilePoint(n, None, "lower", detail={"note": "cap exceeded"})


# ---------------------------------------------------------------------------
# linear-over-finite growth via ball monomorphisms

# le_f_growth gives up (value None) after this many search nodes
_LE_F_BUDGET = 500_000


def le_f_growth(G, n, catalog):
    """Least catalog-group size admitting an injective, ball-multiplicative
    map from B(n). An upper bound: a group outside the catalog may be
    smaller."""
    B = G_.ball(G, n)
    state = {"nodes": 0}

    def try_target(F):
        mul = G_.table(F).tolist()
        e_f = F.elements().index(F.identity())
        return _ball_search(
            B, e_f, [range(len(mul))] * (len(B) - 1), lambda a, b: a != b,
            lambda a, b, c: mul[a][b] == c, state, _LE_F_BUDGET)

    sized = sorted(catalog, key=lambda F: (len(F.elements()),
                                           str(F.descriptor())))
    tried = []
    for F in sized:
        size = len(F.elements())
        if size < len(B):
            tried.append(size)
            continue  # injectivity alone rules it out
        try:
            if try_target(F) is not None:
                return ProfilePoint(
                    n, size, "upper",
                    detail={"target": F.descriptor(), "nodes": state["nodes"],
                            "ruled_out": tried})
            tried.append(size)
        except _OracleBudget:
            return ProfilePoint(
                n, None, "lower",
                detail={"lower": len(B), "note": "budget exhausted",
                        "ruled_out": tried})
    return ProfilePoint(
        n, None, "lower",
        detail={"lower": len(B),
                "note": "no catalog target admits a ball monomorphism",
                "ruled_out": tried})


def ra_profile(G, n, catalog):
    """Min over amenable catalog quotients Q, with B(n) embedding into Q,
    of the Folner value of Q at n. Empty viable set gives infinity."""
    best = None
    detail = []
    for entry in catalog:
        label = entry.get("label", "?")
        Q = entry["group"]
        Qdesc = entry.get("quotient")  # kernel data, None for G itself
        if Qdesc is not None and \
                G_.kernel_witness(G, Qdesc, 2 * n) is not None:
            detail.append({"quotient": label, "note": "kernel meets B(2n)"})
            continue
        if hasattr(Q, "elements"):
            value = len(Q.elements())  # finite group: A = Q has defect 0
            note = "whole finite group"
        else:
            out = folner_search(Q, n, strategy=entry.get("strategy", "boxes"),
                                r_max=entry.get("r_max"))
            if out.witness is None:
                detail.append({"quotient": label, "note": out.note})
                continue
            value = out.size
            note = out.note
        detail.append({"quotient": label, "value": value, "note": note})
        if best is None or value < best:
            best = value
    if best is None:
        return ProfilePoint(n, INF, "upper", detail={"tried": detail})
    return ProfilePoint(n, best, "upper", detail={"tried": detail})


# ---------------------------------------------------------------------------
# upper curves and the inequality audit

def upper_curve(group_desc, family, n_range, builders):
    """Pointwise-min curve over builders.

    Each builder maps n to an ApproxCertificate, a ProfilePoint, or None
    (not applicable at this n).
    """
    curve = ProfileCurve(group_desc, family)
    for n in n_range:
        for name, fn in builders:
            got = fn(n)
            if got is None:
                continue
            if isinstance(got, ProfilePoint):
                curve.add(got)
                continue
            cert = got[0] if isinstance(got, tuple) else got
            curve.add(ProfilePoint(
                n, cert.dimension, "upper",
                detail={"builder": name},
                certificate=cert.provenance.get("builder")))
    return curve


def growth_curve(G, n_range):
    curve = ProfileCurve(G.descriptor(), "growth")
    for n in n_range:
        curve.add(ProfilePoint(n, G_.growth(G, n), "exact",
                               detail={"note": "ball cardinality"}))
    return curve


def _factorial_sofic_lower(beta_n):
    k = 1
    fact = 1
    while fact < beta_n:
        k += 1
        fact *= k
    return k


def _up(n, value, **detail):
    return ProfilePoint(n, value, "upper", detail=detail)


def _low(n, value, **detail):
    return ProfilePoint(n, value, "lower", detail=detail)


def _z_folner(G, n, rf):
    interval = _up(n, 2 * n * n * (n + 1), note="interval")
    if n > 1:
        return [interval]
    return [interval, ProfilePoint(
        1, 4, "exact", detail={"note": "exhaustive search minimum"})]


def _z2_fin(G, n, rf):
    up = [] if rf(2 * n) is None else [
        _up(n, rf(2 * n), note="kernel avoiding B(2n)")]
    return up + [_low(n, G_.growth(G, n), note="ball injection")]


_Entry = collections.namedtuple("_Entry", "group n_max rules")
_GROWTH = (1, lambda G, n, rf: growth_curve(G, [n]).points)

# The standard curves of each audited group: the audit's default n_max and,
# per family, (span, rule). A family's curve runs over n = 1..span * n_max;
# rule(G, n, rf) gives its points at radius n, where rf(m) is the best upper
# rf value at radius m.
CATALOG = {
    "Z": _Entry(G_.FreeAbelian(1), 10, {
        "growth": _GROWTH,
        "rf": (2, lambda G, n, rf: [full_rf_growth(G, n)]),
        "fin": (1, lambda G, n, rf: [weakly_sofic_exact_Z(n)]),
        "sofic": (1, lambda G, n, rf: [
            _up(n, 2 * n + 1, builder="cyclic_Z"),
            _low(n, _factorial_sofic_lower(2 * n + 1),
                 note="k! >= |B(n)| injectivity")]),
        "lin": (1, lambda G, n, rf: [
            _up(n, 2 * n + 1, builder="perm_to_lin")]),
        "hyp": (1, lambda G, n, rf: [
            _up(n, 2 * (2 * n * n) + 1, builder="perm_to_hyp at 2n^2")]),
        "folner": (2, _z_folner),
    }),
    "Z^2": _Entry(G_.FreeAbelian(2), 5, {
        "growth": _GROWTH,
        "rf": (2, lambda G, n, rf: [
            full_rf_growth(G, n) if n <= 6 else
            _up(n, (n + 1) ** 2, note="diagonal lattice (n+1)Z^2")]),
        "fin": (1, _z2_fin),
        "sofic": (1, lambda G, n, rf: [
            _up(n, (2 * n + 1) ** 2, builder="direct_product of cyclic"),
            _low(n, _factorial_sofic_lower(G_.growth(G, n)),
                 note="k! >= |B(n)|")]),
        "lin": (1, lambda G, n, rf: [
            _up(n, (2 * n + 1) ** 2, builder="perm_to_lin")]),
        "hyp": (1, lambda G, n, rf: [
            _up(n, (2 * (2 * n * n) + 1) ** 2,
                builder="perm_to_hyp at 2n^2")]),
        "folner": (2, lambda G, n, rf: [
            _up(n, folner_box_value_Zd(2, n), note="minimal box")]),
    }),
    "Heisenberg(1)": _Entry(G_.Heisenberg(1), 4, {
        "growth": _GROWTH,
        "rf": (2, lambda G, n, rf: [
            full_rf_growth(G, n, quotient_family="congruence"),
            full_rf_growth(G, n, quotient_family="congruence-least")]),
        "fin": (1, lambda G, n, rf: [
            _up(n, rf(2 * n), note="congruence kernel at B(2n)"),
            _low(n, G_.growth(G, n), note="ball injection")]),
        "sofic": (1, lambda G, n, rf: [
            _up(n, rf(2 * n), note="quotient permutation action"),
            _low(n, _factorial_sofic_lower(G_.growth(G, n)),
                 note="k! >= |B(n)|")]),
        "lin": (1, lambda G, n, rf: [
            _up(n, rf(2 * n), builder="perm_to_lin")]),
    }),
}


def standard_curves(label, n_max=None, families=None, radii=None):
    """The catalog curves of the group ``label``, keyed by family.

    Builds only ``families`` (default: every family of the group), each at
    ``radii`` or else over its own range 1..span * n_max, where n_max
    defaults to the group's audit radius. Points are computed once per
    (family, radius) and call, so rf(2n) costs one rf point however many
    rules read it.
    """
    G, default_n_max, rules = CATALOG[label]
    memo = {}

    def points(family, n):
        if (family, n) not in memo:
            memo[family, n] = rules[family][1](G, n, rf)
        return memo[family, n]

    def rf(n):
        return min((p.value for p in points("rf", n)
                    if p.provenance != "lower" and p.value is not None),
                   default=None)

    curves = {}
    for family in families or rules:
        curve = curves[family] = ProfileCurve(
            G.descriptor() if family == "growth" else label, family)
        span = rules[family][0]
        for n in radii or range(1, span * (n_max or default_n_max) + 1):
            for p in points(family, n):
                curve.add(p)
    return curves


_AUDIT_CHECKS = [
    # (name, LHS profile, LHS radius map, RHS profile, RHS radius map)
    ("beta(n) <= phi(2n)", "growth", lambda n: n, "rf", lambda n: 2 * n),
    ("beta(n) <= dfin(n)", "growth", lambda n: n, "fin", lambda n: n),
    ("dfin(n) <= phi(2n)", "fin", lambda n: n, "rf", lambda n: 2 * n),
    ("dsof(n) <= phi(2n)", "sofic", lambda n: n, "rf", lambda n: 2 * n),
    ("dlin(n) <= dsof(n)", "lin", lambda n: n, "sofic", lambda n: n),
    ("dhyp(n) <= dsof(2n^2)", "hyp", lambda n: n, "sofic",
     lambda n: 2 * n * n),
    ("dsof(n) <= folner(2n)", "sofic", lambda n: n, "folner",
     lambda n: 2 * n),
]


def inequality_audit(curves_by_group):
    """Pointwise audit of the profile inequalities on available data.

    A violation is recorded only when a lower bound on the left strictly
    exceeds an upper bound on the right at comparable radii; these are
    theorems, so any violation indicates an implementation bug. A check
    that compared no point says why in ``vacuous`` (null otherwise).
    """
    results = []
    violations = []
    for group, curves in sorted(curves_by_group.items()):
        for (name, lhs_key, lhs_map, rhs_key, rhs_map) in _AUDIT_CHECKS:
            lhs = curves.get(lhs_key)
            rhs = curves.get(rhs_key)
            if lhs is None or rhs is None:
                continue
            compared = 0
            has_lower = False
            for n in lhs.ns():
                lo = lhs.best_lower(lhs_map(n))
                if lo is None:
                    continue
                has_lower = True
                hi = rhs.best_upper(rhs_map(n))
                if hi is None or hi == INF:
                    continue
                compared += 1
                if lo > hi:
                    violations.append(
                        {"group": group, "check": name, "n": n,
                         "lower": lo, "upper": hi})
            vacuous = None if compared else (
                f"no upper point of {rhs_key} at the mapped radii"
                if has_lower else f"no lower point of {lhs_key}")
            results.append({"group": group, "check": name,
                            "compared": compared, "vacuous": vacuous})
    return {"pass": not violations, "violations": violations,
            "checks": results,
            "points_compared": sum(r["compared"] for r in results)}
