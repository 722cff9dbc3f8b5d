"""Profile estimation: exact oracles at tiny radius, upper curves from
builders, lower bounds from counting, Folner and residual-finiteness search,
and an auditor for the inequality web tying the profiles together."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

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
    def __init__(self, group_desc, family, points=None):
        self.group_desc = group_desc
        self.family = family
        self.points = []
        for p in (points or []):
            self.add(p)

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
        [lo, hi]."""
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
            return None
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


def sofic_exact_oracle(G, n, k_max, budget=200_000):
    """Least k <= k_max admitting an (n,1)-approximation into Sym(k).

    Backtracking with pi(e) = id and the first assigned image restricted to
    conjugacy-class representatives (conjugating the whole assignment moves
    any witness into this normal form). Unknown (value None) on budget
    exhaustion, with the surviving bounds in the detail.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    B = G_.ball(G, n)
    if len(B) > 9 or k_max > 7:
        raise ValueError("oracle guarded to tiny balls and k_max <= 7")
    # the identity holds ball slot 0; the search assigns the other slots,
    # and product triples (i, j, target) use their indices shifted by one,
    # with target None for a product equal to the identity
    elems = B.elements[1:]
    triples = [(i, j, None if t == 0 else t - 1)
               for i, row in enumerate(B.products()[1:, 1:].tolist())
               for j, t in enumerate(row) if t >= 0]
    state = {"nodes": 0}

    def refute_or_find(k):
        perms = [tuple(p) for p in itertools.permutations(range(k))]
        ident = tuple(range(k))

        def sep_ok(a, b):
            agree = sum(1 for x, y in zip(a, b) if x == y)
            return agree * n < k

        def defect_ok(a, b, c):
            # c defaults to the identity slot
            cc = c if c is not None else ident
            moved = sum(1 for x in range(k) if a[b[x]] != cc[x])
            return moved * n < k

        assigned = [None] * len(elems)

        def consistent(upto):
            new = assigned[upto]
            if not sep_ok(new, ident):
                return False
            for j in range(upto):
                if not sep_ok(new, assigned[j]):
                    return False
            for (i, j, t) in triples:
                if i > upto or j > upto or (t is not None and t > upto):
                    continue
                tgt = assigned[t] if t is not None else None
                if not defect_ok(assigned[i], assigned[j], tgt):
                    return False
            return True

        def rec(pos):
            state["nodes"] += 1
            if state["nodes"] > budget:
                raise _OracleBudget
            if pos == len(elems):
                return True
            cands = _cycle_type_representatives(k) if pos == 0 else perms
            for c in cands:
                assigned[pos] = c
                if consistent(pos) and rec(pos + 1):
                    return True
            assigned[pos] = None
            return False

        return rec(0)

    refuted = []
    for k in range(1, k_max + 1):
        try:
            if refute_or_find(k):
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
    """
    if n < 1:
        raise ValueError("Folner condition needs n >= 1")
    if strategy == "exhaustive":
        return _folner_exhaustive(G, n, r_max, size_max)
    if strategy == "balls":
        return _folner_balls(G, n, r_max or 20)
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
            w = X_.FolnerWitness(G, n, members, radius_bound=None)
            return FolnerOutcome(w, False, f"ball of radius {r}")
    return FolnerOutcome(None, False, f"no ball up to r={r_max}", best)


def box_defect_Zd(d, L, n):
    """Defect of the box [0,L)^d at radius n, by the exact overlap formula."""
    if L < 1:
        raise ValueError("box side must be positive")
    total = 0
    for g in G_.ball(G_.FreeAbelian(d), n):
        overlap = 1
        for a in g:
            if abs(a) >= L:
                overlap = 0
                break
            overlap *= L - abs(a)
        total += 2 * (L ** d - overlap)
    return Fraction(total, L ** d)


def _folner_boxes(G, n):
    if not isinstance(G, G_.FreeAbelian):
        raise ValueError("box strategy applies to free abelian groups")
    d = G.d
    L = minimal_box_side_Zd(d, n)
    members = [tuple(v) for v in itertools.product(range(L), repeat=d)]
    w = X_.FolnerWitness(G, n, members, radius_bound=None)
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


def interval_witness_Z(n, controlled=False):
    """Interval witness of the closed-form minimal length 2n^2(n+1)."""
    L = 2 * n * n * (n + 1)
    members = [(i,) for i in range(1, L + 1)]
    return X_.FolnerWitness(G_.FreeAbelian(1), n, members,
                            radius_bound=L if controlled else None)


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


def _sublattices_of_index(d, k):
    """All finite-index sublattices of Z^d at index k, as HNF row lists."""
    if d == 1:
        yield [(k,)]
        return
    if d == 2:
        for a in _divisors(k):
            c = k // a
            for b in range(c):
                yield [(a, b), (0, c)]
        return
    raise NotImplementedError("sublattice enumeration implemented for d <= 2")


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
    raise NotImplementedError(f"no quotient enumeration for {G.descriptor()}")


def _kernel_avoids(G, Q, n):
    e = G.identity()
    for p in G_.ball(G, n):
        if p != e and Q.kernel_contains(p):
            return False
    return True


def _rf_growth_lattice(G, n):
    cap = (n + 1) ** G.d + 1
    for k in range(1, cap + 1):
        for rows in _sublattices_of_index(G.d, k):
            Q = G_.LatticeHNF(G, rows)
            if _kernel_avoids(G, Q, n):
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
    if not _kernel_avoids(G, Q, n):
        raise AssertionError(f"recipe modulus {m} fails at n={n}")
    return ProfilePoint(
        n, Q.index, "upper",
        detail={"modulus": m, "note": "congruence quotients only"})


def _rf_growth_heis_least(G, n):
    cap = heisenberg_congruence_modulus(n) + 1
    for m in range(2, cap + 1):
        Q = G_.CongruenceMod(G, m)
        if _kernel_avoids(G, Q, n):
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
    elems = B.elements  # identity first, at slot 0
    triples = [(i, j, t) for i, row in enumerate(B.products().tolist())
               for j, t in enumerate(row) if t >= 0]

    state = {"nodes": 0}

    def try_target(F):
        f_elems = F.elements()
        f_idx = {p: i for i, p in enumerate(f_elems)}
        mul = [[f_idx[F.mul(a, b)] for b in f_elems] for a in f_elems]
        e_f = f_idx[F.identity()]
        assigned = [None] * len(elems)
        assigned[0] = e_f

        def ok(upto):
            img = assigned[upto]
            for j in range(upto):
                if assigned[j] == img:
                    return False
            for (i, j, t) in triples:
                if i > upto or j > upto or t > upto:
                    continue
                if mul[assigned[i]][assigned[j]] != assigned[t]:
                    return False
            return True

        def rec(pos):
            state["nodes"] += 1
            if state["nodes"] > _LE_F_BUDGET:
                raise _OracleBudget
            if pos == len(elems):
                return True
            for c in range(len(f_elems)):
                assigned[pos] = c
                if ok(pos) and rec(pos + 1):
                    return True
            assigned[pos] = None
            return False

        return rec(1)

    sized = sorted(catalog, key=lambda F: (len(F.elements()),
                                           str(F.descriptor())))
    tried = []
    for F in sized:
        size = len(F.elements())
        if size < len(elems):
            tried.append(size)
            continue  # injectivity alone rules it out
        try:
            if try_target(F):
                return ProfilePoint(
                    n, size, "upper",
                    detail={"target": F.descriptor(), "nodes": state["nodes"],
                            "ruled_out": tried})
            tried.append(size)
        except _OracleBudget:
            return ProfilePoint(
                n, None, "lower",
                detail={"lower": len(elems), "note": "budget exhausted",
                        "ruled_out": tried})
    return ProfilePoint(
        n, None, "lower",
        detail={"lower": len(elems),
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
        if Qdesc is not None and not _kernel_avoids(G, Qdesc, 2 * n):
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


def standard_curves_Z(n_max=10):
    """The profile family used by the audit for Z."""
    Z = G_.FreeAbelian(1)
    rng = range(1, n_max + 1)
    beta = growth_curve(Z, rng)
    phi = ProfileCurve("Z", "rf")
    for n in range(1, 2 * n_max + 1):
        phi.add(full_rf_growth(Z, n))
    dfin = ProfileCurve("Z", "fin")
    for n in rng:
        dfin.add(weakly_sofic_exact_Z(n))
    dsof = ProfileCurve("Z", "sofic")
    for n in rng:
        dsof.add(ProfilePoint(n, 2 * n + 1, "upper",
                              detail={"builder": "cyclic_Z"}))
        dsof.add(ProfilePoint(n, _factorial_sofic_lower(2 * n + 1), "lower",
                              detail={"note": "k! >= |B(n)| injectivity"}))
    dlin = ProfileCurve("Z", "lin")
    for n in rng:
        dlin.add(ProfilePoint(n, 2 * n + 1, "upper",
                              detail={"builder": "perm_to_lin"}))
    dhyp = ProfileCurve("Z", "hyp")
    for n in rng:
        dhyp.add(ProfilePoint(n, 2 * (2 * n * n) + 1, "upper",
                              detail={"builder": "perm_to_hyp at 2n^2"}))
    folner = ProfileCurve("Z", "folner")
    for n in range(1, 2 * n_max + 1):
        folner.add(ProfilePoint(n, 2 * n * n * (n + 1), "upper",
                                detail={"note": "interval"}))
    folner.add(ProfilePoint(1, 4, "exact",
                            detail={"note": "exhaustive search minimum"}))
    return {"beta": beta, "phi": phi, "dfin": dfin, "dsof": dsof,
            "dlin": dlin, "dhyp": dhyp, "folner": folner}


def standard_curves_Z2(n_max=5):
    Z2 = G_.FreeAbelian(2)
    rng = range(1, n_max + 1)
    beta = growth_curve(Z2, rng)
    phi = ProfileCurve("Z^2", "rf")
    for n in range(1, min(2 * n_max, 6) + 1):
        phi.add(full_rf_growth(Z2, n))
    for n in range(7, 2 * n_max + 1):
        phi.add(ProfilePoint(n, (n + 1) ** 2, "upper",
                             detail={"note": "diagonal lattice (n+1)Z^2"}))
    dfin = ProfileCurve("Z^2", "fin")
    for n in rng:
        up = phi.best_upper(2 * n)
        if up is not None:
            dfin.add(ProfilePoint(n, up, "upper",
                                  detail={"note": "kernel avoiding B(2n)"}))
        dfin.add(ProfilePoint(n, G_.growth(Z2, n), "lower",
                              detail={"note": "ball injection"}))
    dsof = ProfileCurve("Z^2", "sofic")
    for n in rng:
        dsof.add(ProfilePoint(n, (2 * n + 1) ** 2, "upper",
                              detail={"builder": "direct_product of cyclic"}))
        dsof.add(ProfilePoint(n, _factorial_sofic_lower(G_.growth(Z2, n)),
                              "lower", detail={"note": "k! >= |B(n)|"}))
    dlin = ProfileCurve("Z^2", "lin")
    for n in rng:
        dlin.add(ProfilePoint(n, (2 * n + 1) ** 2, "upper",
                              detail={"builder": "perm_to_lin"}))
    dhyp = ProfileCurve("Z^2", "hyp")
    for n in rng:
        dhyp.add(ProfilePoint(n, (2 * (2 * n * n) + 1) ** 2, "upper",
                              detail={"builder": "perm_to_hyp at 2n^2"}))
    folner = ProfileCurve("Z^2", "folner")
    for n in range(1, 2 * n_max + 1):
        folner.add(ProfilePoint(n, folner_box_value_Zd(2, n), "upper",
                                detail={"note": "minimal box"}))
    return {"beta": beta, "phi": phi, "dfin": dfin, "dsof": dsof,
            "dlin": dlin, "dhyp": dhyp, "folner": folner}


def standard_curves_heisenberg(n_max=4):
    H = G_.Heisenberg(1)
    rng = range(1, n_max + 1)
    beta = growth_curve(H, rng)
    phi = ProfileCurve("Heisenberg(1)", "rf")
    for n in range(1, 2 * n_max + 1):
        phi.add(full_rf_growth(H, n, quotient_family="congruence"))
        phi.add(full_rf_growth(H, n, quotient_family="congruence-least"))
    dfin = ProfileCurve("Heisenberg(1)", "fin")
    for n in rng:
        dfin.add(ProfilePoint(n, phi.best_upper(2 * n), "upper",
                              detail={"note": "congruence kernel at B(2n)"}))
        dfin.add(ProfilePoint(n, G_.growth(H, n), "lower",
                              detail={"note": "ball injection"}))
    dsof = ProfileCurve("Heisenberg(1)", "sofic")
    for n in rng:
        dsof.add(ProfilePoint(n, phi.best_upper(2 * n), "upper",
                              detail={"note": "quotient permutation action"}))
        dsof.add(ProfilePoint(n, _factorial_sofic_lower(G_.growth(H, n)),
                              "lower", detail={"note": "k! >= |B(n)|"}))
    dlin = ProfileCurve("Heisenberg(1)", "lin")
    for n in rng:
        dlin.add(ProfilePoint(n, phi.best_upper(2 * n), "upper",
                              detail={"builder": "perm_to_lin"}))
    return {"beta": beta, "phi": phi, "dfin": dfin, "dsof": dsof,
            "dlin": dlin}


_AUDIT_CHECKS = [
    # (name, LHS profile, LHS radius map, RHS profile, RHS radius map)
    ("beta(n) <= phi(2n)", "beta", lambda n: n, "phi", lambda n: 2 * n),
    ("beta(n) <= dfin(n)", "beta", lambda n: n, "dfin", lambda n: n),
    ("dfin(n) <= phi(2n)", "dfin", lambda n: n, "phi", lambda n: 2 * n),
    ("dsof(n) <= phi(2n)", "dsof", lambda n: n, "phi", lambda n: 2 * n),
    ("dlin(n) <= dsof(n)", "dlin", lambda n: n, "dsof", lambda n: n),
    ("dhyp(n) <= dsof(2n^2)", "dhyp", lambda n: n, "dsof",
     lambda n: 2 * n * n),
    ("dsof(n) <= folner(2n)", "dsof", lambda n: n, "folner",
     lambda n: 2 * n),
]


def inequality_audit(curves_by_group):
    """Pointwise audit of the profile inequalities on available data.

    A violation is recorded only when a lower bound on the left strictly
    exceeds an upper bound on the right at comparable radii; these are
    theorems, so any violation indicates an implementation bug.
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
            for n in lhs.ns():
                lo = lhs.best_lower(lhs_map(n))
                hi = rhs.best_upper(rhs_map(n))
                if lo is None or hi is None or hi == INF:
                    continue
                compared += 1
                if lo > hi:
                    violations.append(
                        {"group": group, "check": name, "n": n,
                         "lower": lo, "upper": hi})
            results.append({"group": group, "check": name,
                            "compared": compared})
    return {"pass": not violations, "violations": violations,
            "checks": results,
            "points_compared": sum(r["compared"] for r in results)}
