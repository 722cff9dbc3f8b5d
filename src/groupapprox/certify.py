"""Certificate formats and verifiers.

An approximation certificate maps the radius-n ball of a catalog group into
one metric target group. Verification checks, with strict inequalities,

    (1)  d(pi(g) pi(h), pi(gh)) < 1/n     for g, h, gh in B(n),
    (2)  d(pi(g), pi(h)) > eps - 1/n      for distinct g, h in B(n),

using the projective metric for condition (2) in the projective families.
Exact metrics are compared exactly; floating (Hilbert-Schmidt) comparisons
fail closed at a configurable margin which is carried in the report.
"""
from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from . import groups as G_
from . import targets as T_


class CertificateError(ValueError):
    pass


def _decoded(decode, obj):
    """Run a certificate decoder, turning any decoding failure of malformed
    input into CertificateError."""
    try:
        return decode(obj)
    except CertificateError:
        raise
    except KeyError as e:
        raise CertificateError(f"certificate lacks field {e}") from e
    except (TypeError, ValueError, AttributeError, IndexError) as e:
        raise CertificateError(f"malformed certificate: {e}") from e


class UpstreamVerificationError(RuntimeError):
    """A builder precondition (input certificate verification) failed."""


class WordCapExceeded(Exception):
    """Word enumeration exceeded the configured cap."""


DEFAULT_FLOAT_MARGIN = 1e-9
DEFAULT_WORD_CAP = 10 ** 6

_EXACT_TYPES = (T_.Permutation, T_.CyclicPerm, T_.RankMatrix,
                T_.FiniteGroupElement, T_.PermWreathElement)


def _is_exact(el):
    return isinstance(el, _EXACT_TYPES)


def target_identity_like(el):
    """Identity element of the target group el lives in."""
    if isinstance(el, T_.Permutation):
        return T_.Permutation.identity(el.k)
    if isinstance(el, T_.CyclicPerm):
        return T_.CyclicPerm(el.m, 0)
    if isinstance(el, T_.PermUnitary):
        return T_.PermUnitary(T_.Permutation.identity(el.k), tolerance=el.tolerance)
    if isinstance(el, T_.AugmentedUnitary):
        return T_.AugmentedUnitary(target_identity_like(el.inner), el.pad)
    if isinstance(el, T_.ImplicitTensorUnitary):
        return T_.ImplicitTensorUnitary(target_identity_like(el.base), el.power)
    if isinstance(el, T_.UnitaryMatrix):
        return T_.UnitaryMatrix.identity(el.k, tolerance=el.tolerance)
    if isinstance(el, T_.RankMatrix):
        return T_.RankMatrix.identity(el.k, el.field)
    if isinstance(el, T_.FiniteGroupElement):
        return el.group.identity_element()
    if isinstance(el, T_.PermWreathElement):
        return T_.PermWreathElement(
            T_.Permutation.identity(el.size),
            [target_identity_like(b) for b in el.bells])
    raise TypeError(f"unknown target element {el!r}")


class ApproxCertificate:
    """A finite map from B(n) into one target group, the unit of exchange."""

    def __init__(self, group, n, family, assignments, epsilon=None,
                 dimension=None, provenance=None, fin_group=None):
        self.group = group
        self.n = int(n)
        self.family = family
        self.assignments = dict(assignments)
        self.epsilon = T_.family_epsilon(family) if epsilon is None else epsilon
        self.fin_group = fin_group
        self.provenance = provenance or {}
        first = next(iter(self.assignments.values()))
        self.dimension = first.dim if dimension is None else dimension
        for el in self.assignments.values():
            if el.dim != self.dimension:
                raise CertificateError("assignments disagree on dimension")

    def target(self, payload):
        try:
            return self.assignments[payload]
        except KeyError:
            raise CertificateError(
                f"missing assignment for {self.group.fmt(payload)}")

    def dimension_json(self):
        first = next(iter(self.assignments.values()))
        if isinstance(first, T_.ImplicitTensorUnitary):
            return first.dim_symbolic
        return self.dimension

    def to_json(self):
        B = G_.ball(self.group, self.n)
        fin_payload_index = None
        obj = {
            "group": self.group.descriptor(),
            "family": self.family,
            "epsilon": float(self.epsilon),
            "n": self.n,
            "dimension": self.dimension_json(),
        }
        if self.fin_group is not None:
            fin = self.fin_group
            if isinstance(fin, T_.WreathMetricGroup):
                fin, idx = fin.to_table()
                fin_payload_index = idx
            obj["target_group"] = fin.to_json()
        assignments = []
        for p in B:
            el = self.assignments[p]
            enc = el.to_json()
            if fin_payload_index is not None:
                enc = {"kind": "fin", "index": fin_payload_index[el.index]}
            assignments.append({"element": self.group.fmt(p), "target": enc})
        obj["assignments"] = assignments
        if self.provenance:
            obj["provenance"] = self.provenance
        return obj

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, obj):
        """Decode a certificate; malformed input raises CertificateError."""
        return _decoded(cls._decode, obj)

    @classmethod
    def _decode(cls, obj):
        group = G_.group_from_descriptor(obj["group"])
        B = G_.ball(group, obj["n"])
        fin_group = None
        if "target_group" in obj:
            fin_group = T_.TableMetricGroup.from_json(obj["target_group"])
        if not obj["assignments"]:
            raise CertificateError("certificate has no assignments")
        assignments = {}
        for item in obj["assignments"]:
            p = group.parse(item["element"])
            if p not in B:
                raise CertificateError(
                    f"element {item['element']} lies outside B({obj['n']})")
            if p in assignments:
                raise CertificateError(f"duplicate element {item['element']}")
            assignments[p] = T_.target_from_json(item["target"], fin_group=fin_group)
        eps = obj["epsilon"]
        default = T_.family_epsilon(obj["family"])
        if abs(float(default) - eps) < 1e-12:
            eps = default
        dim = obj["dimension"]
        if isinstance(dim, dict):
            dim = dim["base"] ** dim["power"]
        return cls(group, obj["n"], obj["family"], assignments, epsilon=eps,
                   dimension=dim, provenance=obj.get("provenance"),
                   fin_group=fin_group)

    @classmethod
    def loads(cls, text):
        return cls.from_json(json.loads(text))


class HomCertificate:
    """Homomorphism F_X -> target, given on the generators of a catalog group."""

    def __init__(self, group, images, family, relators=None, epsilon=None,
                 dimension=None, fin_group=None, provenance=None):
        self.group = group
        self.images = dict(images)  # generator label -> target element
        self.family = family
        self.relators = [tuple(r) for r in (relators or [])]
        self.epsilon = T_.family_epsilon(family) if epsilon is None else epsilon
        self.fin_group = fin_group
        self.provenance = provenance or {}
        first = next(iter(self.images.values()))
        self.dimension = first.dim if dimension is None else dimension
        for el in self.images.values():
            if el.dim != self.dimension:
                raise CertificateError("images disagree on dimension")
        # close under formal inverses
        inv_pairs = _inverse_label_map(group)
        for lab in list(self.images):
            other = inv_pairs[lab]
            if other not in self.images:
                self.images[other] = self.images[lab].inv()

    def image_of_word(self, labels):
        out = None
        for lab in labels:
            t = self.images[lab]
            out = t if out is None else out.mul(t)
        if out is None:
            first = next(iter(self.images.values()))
            return target_identity_like(first)
        return out

    def to_json(self):
        obj = {
            "group": self.group.descriptor(),
            "family": self.family,
            "epsilon": float(self.epsilon),
            "dimension": self.dimension,
            "images": [{"generator": lab, "target": el.to_json()}
                       for lab, el in sorted(self.images.items())],
            "relators": [list(r) for r in self.relators],
        }
        if self.fin_group is not None:
            obj["target_group"] = self.fin_group.to_json()
        if self.provenance:
            obj["provenance"] = self.provenance
        return obj

    @classmethod
    def from_json(cls, obj):
        """Decode a certificate; malformed input raises CertificateError."""
        return _decoded(cls._decode, obj)

    @classmethod
    def _decode(cls, obj):
        group = G_.group_from_descriptor(obj["group"])
        labels = {lab for lab, _ in group.generators()}
        fin_group = None
        if "target_group" in obj:
            fin_group = T_.TableMetricGroup.from_json(obj["target_group"])
        if not obj["images"]:
            raise CertificateError("certificate has no images")
        images = {}
        for item in obj["images"]:
            lab = item["generator"]
            if lab not in labels:
                raise CertificateError(f"group has no generator {lab!r}")
            if lab in images:
                raise CertificateError(f"duplicate generator {lab!r}")
            images[lab] = T_.target_from_json(item["target"], fin_group=fin_group)
        relators = [tuple(r) for r in obj["relators"]]
        for r in relators:
            if not labels.issuperset(r):
                raise CertificateError(
                    f"relator {list(r)} uses a label the group lacks")
        eps = obj["epsilon"]
        default = T_.family_epsilon(obj["family"])
        if abs(float(default) - eps) < 1e-12:
            eps = default
        return cls(group, images, obj["family"], relators=relators,
                   epsilon=eps, dimension=obj["dimension"],
                   fin_group=fin_group, provenance=obj.get("provenance"))


def _inverse_label_map(group):
    gens = group.generators()
    by_payload = {}
    for lab, p in gens:
        by_payload.setdefault(p, []).append(lab)
    out = {}
    for lab, p in gens:
        q = group.inv(p)
        out[lab] = by_payload[q][0]
    return out


class GraphCertificate:
    """Finite S-labeled graph approximating a Cayley graph."""

    def __init__(self, vertices, edges, n, delta):
        self.vertices = list(vertices)
        self.edges = dict(edges)  # (vertex, label) -> vertex
        self.n = int(n)
        self.delta = delta
        seen = set()
        for (v, lab) in self.edges:
            if (v, lab) in seen:
                raise CertificateError("duplicate labeled edge")
            seen.add((v, lab))


class VerificationReport:
    """Outcome of one verification; ``failed`` names the conditions that
    do not hold ("defect" for (1), "separation" for (2))."""

    def __init__(self, failed, n, epsilon, defect, defect_witness,
                 separation, separation_witness, pairs_checked,
                 separation_pairs, margin, notes=None):
        self.failed = tuple(failed)
        self.n = n
        self.epsilon = epsilon
        self.defect = defect
        self.defect_witness = defect_witness
        self.separation = separation
        self.separation_witness = separation_witness
        self.pairs_checked = pairs_checked
        self.separation_pairs = separation_pairs
        self.margin = margin
        self.notes = notes or []

    @property
    def passed(self):
        return not self.failed

    def failure_summary(self):
        """One line per failed condition: value, threshold and witness."""
        lines = []
        if "defect" in self.failed:
            lines.append(f"condition (1) fails: defect {self.defect} is not "
                         f"below 1/{self.n}, witness {self.defect_witness}")
        if "separation" in self.failed:
            lines.append(f"condition (2) fails: separation {self.separation} "
                         f"is not above eps - 1/{self.n} = "
                         f"{float(self.epsilon) - 1.0 / self.n:.6g}, "
                         f"witness {self.separation_witness}")
        return "; ".join(lines)

    def to_json(self):
        def num(x):
            if isinstance(x, Fraction):
                return float(x)
            return x
        return {
            "pass": bool(self.passed),
            "n": self.n,
            "epsilon": float(self.epsilon),
            "multiplicativity_defect": num(self.defect),
            "defect_witness": self.defect_witness,
            "separation": num(self.separation),
            "separation_witness": self.separation_witness,
            "pairs_checked": self.pairs_checked,
            "separation_pairs": self.separation_pairs,
            "margin": self.margin,
            "defect_threshold": 1.0 / self.n,
            "separation_threshold": float(self.epsilon) - 1.0 / self.n,
            "notes": self.notes,
        }

    def __repr__(self):
        s = "pass" if self.passed else "FAIL"
        return (f"VerificationReport({s}, defect={float(self.defect):.6g}, "
                f"separation={float(self.separation):.6g})")


def _failed_conditions(defect, separation, n, epsilon, exact, margin):
    """Names of the strict conditions that fail; floats fail closed by margin."""
    thr1 = Fraction(1, n)
    thr2 = epsilon - thr1 if isinstance(epsilon, Fraction) \
        else float(epsilon) - 1.0 / n
    if exact:
        ok1 = defect < thr1
        ok2 = separation > thr2
    else:
        ok1 = float(defect) < float(thr1) - margin
        ok2 = float(separation) > float(thr2) + margin
    return [name for name, ok in (("defect", ok1), ("separation", ok2))
            if not ok]


def _defect_sweep(B, rows, zero):
    """Max of d(pi(g) pi(h), pi(gh)) over g, h, gh in B.

    Returns (max, (g, h, gh) slots of the first pair attaining it or None
    when the max is zero, number of pairs).
    """
    table = B.products()
    worst, wit, pairs = zero, None, 0
    for i in range(len(B)):
        js = np.flatnonzero(table[i] >= 0)
        ts = table[i, js]
        pairs += len(js)
        d, r = rows.max_defect(i, js, ts)
        if d > worst:
            worst, wit = d, (i, int(js[r]), int(ts[r]))
    return worst, wit, pairs


def _separation_sweep(B, nearest):
    """Min distance over distinct pairs of B, with ``nearest`` a batch row
    query: (min or None when |B| = 1, slots of the first such pair, pairs)."""
    size = len(B)
    best, wit = None, None
    for i in range(size - 1):
        d, r = nearest(i, np.arange(i + 1, size))
        if best is None or d < best:
            best, wit = d, (i, i + 1 + r)
    return best, wit, size * (size - 1) // 2


def verify_D(cert, margin=DEFAULT_FLOAT_MARGIN, at_n=None):
    """Check Def-style conditions (1) and (2) on the ball; strict, fail closed."""
    n = cert.n if at_n is None else at_n
    if n < 1:
        raise CertificateError(f"cannot verify at radius {n}, below 1")
    if at_n is not None and at_n > cert.n:
        raise CertificateError("cannot verify above the certificate's n")
    B = G_.ball(cert.group, n)
    targets = [cert.target(p) for p in B]  # raises on missing assignment
    fast = _verify_translation_fast(cert, B, n)
    if fast is not None:
        return fast
    exact = all(_is_exact(t) for t in targets)
    rows = T_.batch(targets)
    worst_def, def_slots, pairs = _defect_sweep(
        B, rows, Fraction(0) if exact else 0.0)
    projective = cert.family in ("hyp-projective", "lin-projective")
    worst_sep, sep_slots, sep_pairs = _separation_sweep(
        B, rows.min_pdist if projective else rows.min_dist)
    if worst_sep is None:
        worst_sep = cert.epsilon if exact else float(cert.epsilon)

    def fmt(slots):
        return None if slots is None \
            else [cert.group.fmt(B.elements[s]) for s in slots]
    failed = _failed_conditions(worst_def, worst_sep, n, cert.epsilon,
                                exact, margin)
    return VerificationReport(
        failed, n, cert.epsilon, worst_def, fmt(def_slots), worst_sep,
        fmt(sep_slots), pairs, sep_pairs, margin if not exact else 0.0,
        notes=["exact arithmetic" if exact else "floating metric, margin applied"])


def _verify_translation_fast(cert, B, n):
    """Closed-form verification for translation certificates on Z.

    Applies when every target is a CyclicPerm with shift g mod m; then the
    assignment is an exact homomorphism (defect 0) and separation is 1 iff
    the shifts are pairwise distinct.
    """
    if not isinstance(cert.group, G_.FreeAbelian) or cert.group.d != 1:
        return None
    m = None
    for p in B:
        t = cert.assignments[p]
        if not isinstance(t, T_.CyclicPerm):
            return None
        if m is None:
            m = t.m
        if t.m != m or t.shift != p[0] % m:
            return None
    # defect identically zero: shifts add exactly
    pairs = 0
    for p in B:
        a = p[0]
        lo, hi = max(-n, -n - a), min(n, n - a)
        pairs += max(0, hi - lo + 1)
    sep_pairs = len(B) * (len(B) - 1) // 2
    collision = None
    seen = {}
    for p in B:
        s = cert.assignments[p].shift
        if s in seen:
            collision = [cert.group.fmt(seen[s]), cert.group.fmt(p)]
            break
        seen[s] = p
    worst_sep = Fraction(0) if collision else Fraction(1)
    thr2 = Fraction(cert.epsilon) - Fraction(1, n)
    if collision:
        wit = collision
    elif len(B) > 1:
        wit = [cert.group.fmt(B.elements[0]), cert.group.fmt(B.elements[1])]
    else:
        wit = None
    return VerificationReport(
        [] if worst_sep > thr2 else ["separation"], n, cert.epsilon,
        Fraction(0), None, worst_sep, wit, pairs, sep_pairs, 0.0,
        notes=["translation-certificate fast path (exact)"])


# ---------------------------------------------------------------------------
# word-level verification

def _letters(group):
    """Generator letters with inverse pairing, in generator order."""
    gens = group.generators()
    inv_lab = _inverse_label_map(group)
    letters = []
    index = {lab: i for i, (lab, _) in enumerate(gens)}
    for lab, p in gens:
        letters.append((lab, p, index[inv_lab[lab]]))
    return letters


def verify_W(h, n, cap=DEFAULT_WORD_CAP, margin=DEFAULT_FLOAT_MARGIN):
    """Enumerate reduced words of length <= n in the free group on the
    generators; words trivial in G must land < 1/n from the identity,
    nontrivial words must stay > eps - 1/n away."""
    return _verify_words(h, n, cap, margin, relator_mode=False)


def verify_R(h, n, cap=DEFAULT_WORD_CAP, margin=DEFAULT_FLOAT_MARGIN):
    """Relators of length <= n must land < 1/n from the identity; words
    nontrivial in G must stay > eps - 1/n away."""
    return _verify_words(h, n, cap, margin, relator_mode=True)


def _verify_words(h, n, cap, margin, relator_mode):
    if n < 1:
        raise CertificateError(f"cannot verify at word length {n}, below 1")
    grp = h.group
    letters = _letters(grp)
    first = next(iter(h.images.values()))
    e_t = target_identity_like(first)
    exact = _is_exact(first)
    eps = h.epsilon
    e_g = grp.identity()

    worst_triv = Fraction(0) if exact else 0.0
    triv_wit = None
    worst_sep = None
    sep_wit = None
    count = 0

    # DFS over reduced words, tracking group element and target image
    stack = [((), e_g, e_t, -1)]
    while stack:
        word, g, t, last = stack.pop()
        count += 1
        if count > cap:
            raise WordCapExceeded(f"more than {cap} words at length {n}")
        if word:
            if g == e_g:
                if not relator_mode:
                    d = t.dist(e_t)
                    if d > worst_triv:
                        worst_triv = d
                        triv_wit = " ".join(word)
            else:
                d = t.dist(e_t)
                if worst_sep is None or d < worst_sep:
                    worst_sep = d
                    sep_wit = " ".join(word)
        if len(word) < n:
            for li, (lab, p, inv_i) in enumerate(letters):
                if last >= 0 and letters[last][2] == li:
                    continue  # immediate cancellation, word not reduced
                stack.append((word + (lab,), grp.mul(g, p),
                              t.mul(h.images[lab]), li))

    notes = []
    if relator_mode:
        for r in h.relators:
            if len(r) > n:
                continue
            img = h.image_of_word(r)
            d = img.dist(e_t)
            if d > worst_triv:
                worst_triv = d
                triv_wit = " ".join(r)
        notes.append("relator mode: only relators constrained near identity")
    if worst_sep is None:
        worst_sep = eps if exact else float(eps)
    notes.append(f"words checked: {count}")
    return VerificationReport(
        _failed_conditions(worst_triv, worst_sep, n, eps, exact, margin),
        n, eps, worst_triv, triv_wit, worst_sep, sep_wit,
        count, count, margin if not exact else 0.0, notes=notes)


def geodesic_words(group, m):
    """Lexicographically least geodesic word (as label tuple) per ball element.

    BFS expanding words in lex order guarantees the first word reaching an
    element is the lex-least geodesic.
    """
    letters = [(lab, p) for lab, p in group.generators()]
    e = group.identity()
    words = {e: ()}
    frontier = [(e, ())]
    for _ in range(m):
        nxt = []
        for g, w in frontier:
            for lab, p in letters:
                hgt = group.mul(g, p)
                if hgt not in words:
                    words[hgt] = w + (lab,)
                    nxt.append((hgt, w + (lab,)))
                    if len(words) > G_.DEFAULT_BALL_CAP:
                        raise G_.BallCapExceeded(group, m, G_.DEFAULT_BALL_CAP)
        frontier = nxt
    return words


def _invert_word(group, word):
    inv_lab = _inverse_label_map(group)
    return tuple(inv_lab[lab] for lab in reversed(word))


def D_from_W(h, m):
    """Ball certificate at m from a homomorphism verified at 3m.

    Geodesic representatives are chosen lex-least and inverse-paired
    (w_{g^-1} = w_g^-1), processing ball elements in canonical order.
    """
    pre = verify_W(h, 3 * m)
    if not pre.passed:
        raise UpstreamVerificationError(
            f"verify_W failed at {3 * m}: {pre!r}")
    grp = h.group
    B = G_.ball(grp, m)
    words = geodesic_words(grp, m)
    chosen = {}
    for g in B:
        if g in chosen:
            continue
        w = words[g]
        chosen[g] = w
        gi = grp.inv(g)
        if gi != g and gi not in chosen:
            chosen[gi] = _invert_word(grp, w)
    assignments = {g: h.image_of_word(chosen[g]) for g in B}
    cert = ApproxCertificate(
        grp, m, h.family, assignments, epsilon=h.epsilon,
        fin_group=h.fin_group,
        provenance={"builder": "D_from_W", "upstream_n": 3 * m})
    rep = verify_D(cert)
    if not rep.passed:
        raise UpstreamVerificationError(f"constructed certificate fails: {rep!r}")
    return cert


def W_from_D(c, m):
    """Homomorphism certificate at m from a ball certificate at 3m^2."""
    need = 3 * m * m
    if c.n < need:
        raise UpstreamVerificationError(
            f"input certificate has n={c.n} < 3m^2={need}")
    pre = verify_D(c)
    if not pre.passed:
        raise UpstreamVerificationError(f"verify_D failed: {pre!r}")
    grp = c.group
    images = {}
    for lab, p in grp.generators():
        images[lab] = c.target(p)
    hc = HomCertificate(
        grp, images, c.family, relators=default_relators(grp),
        epsilon=c.epsilon, fin_group=c.fin_group,
        provenance={"builder": "W_from_D", "upstream_n": c.n})
    rep = verify_W(hc, m)
    if not rep.passed:
        raise UpstreamVerificationError(f"induced homomorphism fails: {rep!r}")
    return hc


def default_relators(group):
    """Standard relator words (as generator-label tuples) for catalog groups."""
    if isinstance(group, G_.FreeAbelian):
        rel = []
        for i in range(group.d):
            for j in range(i + 1, group.d):
                a, b = f"x{i + 1}", f"x{j + 1}"
                rel.append((a, b, f"{a}^-1", f"{b}^-1"))
        return rel
    if isinstance(group, G_.Heisenberg) and group.l == 1:
        # two-step nilpotency: x and y both commute with z = [x,y]
        comm = ("x1", "y1", "x1^-1", "y1^-1")
        rel = []
        for t in ("x1", "y1"):
            tinv = t + "^-1"
            rel.append((t,) + comm + (tinv,) + _reverse_inv(comm))
        return rel
    if isinstance(group, G_.FiniteCyclic):
        return [("x",) * group.m]
    return []


def _reverse_inv(word):
    out = []
    for lab in reversed(word):
        out.append(lab[:-3] if lab.endswith("^-1") else lab + "^-1")
    return tuple(out)


# ---------------------------------------------------------------------------
# graph certificates

def verify_graph(gc, group):
    """Fraction of vertices whose labeled n-ball is isomorphic to B(n)."""
    B = G_.ball(group, gc.n)
    labels = [lab for lab, _ in group.generators()]
    good = 0
    for v in gc.vertices:
        if _vertex_good(gc, group, B, labels, v):
            good += 1
    frac = Fraction(good, len(gc.vertices)) if gc.vertices else Fraction(1)
    passed = frac >= 1 - Fraction(gc.delta) if isinstance(gc.delta, (int, Fraction)) \
        else float(frac) >= 1 - gc.delta
    return {"good_fraction": frac, "pass": passed,
            "vertices": len(gc.vertices)}


def _vertex_good(gc, group, B, labels, v):
    gen = dict(group.generators())
    image = {group.identity(): v}
    used = {v}
    for g in B.elements:
        if g not in image:
            return False
        vg = image[g]
        for lab in labels:
            h = group.mul(g, gen[lab])
            if h not in B:
                continue
            w = gc.edges.get((vg, lab))
            if w is None:
                return False
            if h in image:
                if image[h] != w:
                    return False
            else:
                if w in used:
                    return False  # injectivity violated
                image[h] = w
                used.add(w)
    return True


# ---------------------------------------------------------------------------
# delta-solutions

def check_delta_solution(relators, elements, delta):
    """Max relator defect of a tuple; a delta-solution iff max <= delta.

    Relators are free-group words over nonzero ints: i means the i-th tuple
    element, -i its inverse.
    """
    if not elements:
        raise ValueError("empty tuple")
    e_t = target_identity_like(elements[0])
    worst = Fraction(0) if _is_exact(elements[0]) else 0.0
    wit = None
    for r in relators:
        img = e_t
        for c in r:
            if not (1 <= abs(c) <= len(elements)):
                raise ValueError(f"relator letter {c} out of arity")
            t = elements[abs(c) - 1]
            img = img.mul(t if c > 0 else t.inv())
        d = img.dist(e_t)
        if d > worst:
            worst = d
            wit = list(r)
    return {"max_defect": worst, "pass": worst <= delta, "witness": wit}


# ---------------------------------------------------------------------------
# approximate-homomorphism consistency suite

def lemma_consistency_suite(cert, max_len=4, samples=200, seed=0):
    """Empirical check of the five approximate-homomorphism bounds.

    The multiplicativity defect eps0 is measured on pairs with product in the
    ball; tuples are sampled so that all signed prefix products stay in the
    ball. Exact certificates get a hair above zero so the strict bounds are
    meaningful.
    """
    import random
    grp = cert.group
    B = G_.ball(grp, cert.n)
    targets = cert.assignments
    first = next(iter(targets.values()))
    exact = _is_exact(first)
    e_t = target_identity_like(first)
    e_g = grp.identity()

    eps0, _, _ = _defect_sweep(B, T_.batch([targets[g] for g in B]),
                               Fraction(0) if exact else 0.0)
    if exact:
        eps0 = eps0 + Fraction(1, 10 ** 12)
    else:
        eps0 = float(eps0) + 1e-12

    results = {}

    d1 = targets[e_g].dist(e_t)
    results["identity"] = {"value": d1, "bound": eps0, "pass": d1 < eps0}

    worst2 = None
    for g in B:
        gi = grp.inv(g)
        d = targets[gi].dist(targets[g].inv())
        if worst2 is None or d > worst2:
            worst2 = d
    results["inverses"] = {"value": worst2, "bound": 2 * eps0,
                           "pass": worst2 < 2 * eps0}

    rng = random.Random(seed)
    elems = B.elements

    def admissible(tup):
        for signs in _sign_patterns(len(tup)):
            g = e_g
            for x, s in zip(tup, signs):
                g = grp.mul(g, x if s > 0 else grp.inv(x))
                if g not in B:
                    return False
        return True

    tuples = []
    attempts = 0
    while len(tuples) < samples and attempts < samples * 50:
        attempts += 1
        j = rng.randint(2, max_len)
        tup = tuple(elems[rng.randrange(len(elems))] for _ in range(j))
        if admissible(tup):
            tuples.append(tup)

    worst3 = worst4 = worst5 = None
    bound3 = bound4 = bound5 = None
    for tup in tuples:
        j = len(tup)
        # (3) plain products
        prod_g = e_g
        prod_t = None
        for x in tup:
            prod_g = grp.mul(prod_g, x)
            prod_t = targets[x] if prod_t is None else prod_t.mul(targets[x])
        d3 = targets[prod_g].dist(prod_t)
        r3 = _ratio(d3, (j - 1) * eps0)
        if worst3 is None or r3 > worst3:
            worst3, bound3 = r3, (j - 1) * eps0
        # (4),(5) signed
        signs = tuple(rng.choice((1, -1)) for _ in range(j))
        sg = e_g
        rhs = None
        lhs4 = None
        for x, s in zip(tup, signs):
            xe = x if s > 0 else grp.inv(x)
            sg = grp.mul(sg, xe)
            term_rhs = targets[x] if s > 0 else targets[x].inv()
            term_lhs = targets[xe]
            rhs = term_rhs if rhs is None else rhs.mul(term_rhs)
            lhs4 = term_lhs if lhs4 is None else lhs4.mul(term_lhs)
        d4 = lhs4.dist(rhs)
        r4 = _ratio(d4, 2 * j * eps0)
        if worst4 is None or r4 > worst4:
            worst4, bound4 = r4, 2 * j * eps0
        d5 = targets[sg].dist(rhs)
        r5 = _ratio(d5, (3 * j - 1) * eps0)
        if worst5 is None or r5 > worst5:
            worst5, bound5 = r5, (3 * j - 1) * eps0

    results["products"] = {"worst_ratio": worst3, "bound": bound3,
                           "pass": worst3 is None or worst3 < 1}
    results["signed_factors"] = {"worst_ratio": worst4, "bound": bound4,
                                 "pass": worst4 is None or worst4 < 1}
    results["signed_products"] = {"worst_ratio": worst5, "bound": bound5,
                                  "pass": worst5 is None or worst5 < 1}
    results["epsilon0"] = eps0
    results["tuples_checked"] = len(tuples)
    results["pass"] = all(v["pass"] for k, v in results.items()
                          if isinstance(v, dict))
    return results


def _sign_patterns(j):
    out = [()]
    for _ in range(j):
        out = [p + (s,) for p in out for s in (1, -1)]
    return out


def _ratio(value, bound):
    if bound == 0:
        return float("inf") if value > 0 else 0.0
    return float(value) / float(bound)
