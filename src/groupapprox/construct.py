"""Certificate builders.

Every builder verifies its own output before returning it; an unverifiable
construction raises instead of handing back a bad certificate. Provenance
is recorded as a small trace dict embedded in the certificate.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import groups as G_
from . import targets as T_
from . import certify as C_


class BuildError(ValueError):
    pass


def _trace(builder, params, n, epsilon, dimension, inputs=None):
    t = {"builder": builder, "parameters": params,
         "claimed": {"n": n, "epsilon": float(epsilon),
                     "dimension": dimension}}
    if inputs:
        t["inputs"] = inputs
    return t


def _check(cert):
    _require_verified(cert, "builder output failed verification")
    cert.provenance.setdefault("verified", True)
    return cert


def _require_verified(cert, failure):
    """Raise UpstreamVerificationError, led by ``failure``, unless cert
    passes verify_D at the default float margin."""
    rep = C_.verify_D(cert)
    if not rep.passed:
        raise C_.UpstreamVerificationError(f"{failure}: {rep!r}")


def _complete_injection(images):
    """Permutation from a partial injection given as a list of image points
    (None where unset): the free points are matched up in canonical order."""
    used = {j for j in images if j is not None}
    free = iter([j for j in range(len(images)) if j not in used])
    return T_.Permutation(tuple(next(free) if j is None else j
                                for j in images))


# ---------------------------------------------------------------------------
# Folner witnesses

def _payload_to_json(p):
    if isinstance(p, tuple):
        return [_payload_to_json(x) for x in p]
    return p


def _payload_from_json(j):
    if isinstance(j, list):
        return tuple(_payload_from_json(x) for x in j)
    return j


def witness_from_json(obj):
    """Decode a Folner witness; malformed input raises CertificateError."""
    return C_._decoded(_decode_witness, obj)


def _decode_witness(obj):
    group = G_.group_from_descriptor(obj["group"])
    members = [_payload_from_json(m) for m in obj["members_payload"]]
    return FolnerWitness(group, obj["n"], members,
                         radius_bound=obj.get("radius_bound"))


def folner_defect(group, members, n):
    """(sum over g in B(n) of |gA \\ A| + |A \\ gA|) / |A|, exactly."""
    A = set(members)
    if not A:
        raise ValueError("empty Folner set")
    total = 0
    for g in G_.ball(group, n):
        gA = {group.mul(g, a) for a in A}
        total += len(gA - A) + len(A - gA)
    return Fraction(total, len(A))


class FolnerWitness:
    """A finite set A with small boundary under translation by B(n)."""

    def __init__(self, group, n, members, radius_bound=None):
        self.group = group
        self.n = int(n)
        self.members = tuple(sorted(members, key=group.key))
        if not self.members:
            raise ValueError("empty Folner set")
        self.radius_bound = radius_bound
        self.defect = folner_defect(group, self.members, self.n)

    @property
    def valid(self):
        return self.defect <= Fraction(1, self.n)

    def defect_at(self, m):
        return folner_defect(self.group, self.members, m)

    def valid_at(self, m):
        return self.defect_at(m) <= Fraction(1, m)

    def controlled_ok(self):
        """A subset of B(k) with |A| <= k, k the radius bound."""
        if self.radius_bound is None:
            return False
        k = self.radius_bound
        if len(self.members) > k:
            return False
        B = G_.ball(self.group, k)
        return all(a in B for a in self.members)

    def to_json(self):
        return {"group": self.group.descriptor(), "n": self.n,
                "size": len(self.members),
                "defect": [self.defect.numerator, self.defect.denominator],
                "radius_bound": self.radius_bound,
                "members": [self.group.fmt(a) for a in self.members],
                "members_payload": [_payload_to_json(a) for a in self.members]}


def folner_to_sofic(w, n=None):
    """Sofic certificate of dimension |A| from a Folner witness.

    pi(g) moves a to g*a whenever both lie in A; the leftover points are
    matched up in canonical order to complete a permutation.
    """
    if n is None:
        n = max(1, w.n // 2)
    if not w.valid_at(2 * n):
        raise BuildError(
            f"witness defect {w.defect_at(2 * n)} exceeds 1/{2 * n}")
    grp = w.group
    A = list(w.members)
    pos = {a: i for i, a in enumerate(A)}
    k = len(A)
    assignments = {g: _complete_injection([pos.get(grp.mul(g, a)) for a in A])
                   for g in G_.ball(grp, n)}
    cert = C_.ApproxCertificate(
        grp, n, "sofic", assignments,
        provenance=_trace("folner_to_sofic",
                          {"set_size": k, "witness_n": w.n,
                           "witness_defect": float(w.defect)},
                          n, 1, k))
    return _check(cert)


# ---------------------------------------------------------------------------
# quotient constructions

def _quotient_perms(G, Q, n):
    residues = sorted(Q.residues(), key=Q.residue_key)
    idx = {r: i for i, r in enumerate(residues)}
    perms = {}
    for g in G_.ball(G, n):
        r = Q.map(g)
        perms[g] = T_.Permutation(tuple(
            idx[Q.quotient_mul(r, s)] for s in residues))
    return perms, residues, idx


def from_quotient(G, Q, n, family="sofic", field=None):
    """Certificate through a finite quotient whose kernel misses B(2n)\\{e}.

    The quotient acts on itself by left translation; the permutation picture
    is reused as unitaries (hyp), rank-metric matrices (lin), or a finite
    metric group (fin) as requested.
    """
    e = G.identity()
    for p in G_.ball(G, 2 * n):
        if p != e and Q.kernel_contains(p):
            raise BuildError(
                f"kernel meets B({2 * n}) at {G.fmt(p)}")
    perms, residues, idx = _quotient_perms(G, Q, n)
    k = len(residues)
    if family == "sofic":
        assignments = perms
    elif family == "hyp":
        assignments = {g: T_.PermUnitary(s) for g, s in perms.items()}
    elif family == "lin":
        f = field or T_.FieldQ()
        assignments = {g: T_.perm_to_rank(s, f) for g, s in perms.items()}
    elif family == "fin":
        table, _, _ = T_.quotient_metric_group(Q)
        assignments = {g: T_.FiniteGroupElement(table, idx[Q.map(g)])
                       for g in perms}
    else:
        raise BuildError(f"unsupported family {family!r}")
    fin_group = assignments[e].group if family == "fin" else None
    cert = C_.ApproxCertificate(
        G, n, family, assignments, fin_group=fin_group,
        provenance=_trace("from_quotient",
                          {"quotient": Q.descriptor(), "family": family},
                          n, float(T_.family_epsilon(family)), k))
    return _check(cert)


def cyclic_Z(n):
    """The translation action of Z on Z/(2n+1): defect 0, separation 1."""
    if n < 1:
        raise BuildError("n must be at least 1")
    Z = G_.FreeAbelian(1)
    m = 2 * n + 1
    assignments = {p: T_.CyclicPerm(m, p[0] % m) for p in G_.ball(Z, n)}
    cert = C_.ApproxCertificate(
        Z, n, "sofic", assignments,
        provenance=_trace("cyclic_Z", {"modulus": m}, n, 1, m))
    return _check(cert)


def exact_finite(G, n, family="sofic"):
    """Left-regular certificate for a finite group; exact at every radius."""
    if not hasattr(G, "elements"):
        raise BuildError("exact_finite needs a finite group")
    elems = G.elements()
    idx = {p: i for i, p in enumerate(elems)}
    if family == "sofic":
        def tgt(g):
            return T_.Permutation(tuple(idx[G.mul(g, x)] for x in elems))
        fin_group = None
    elif family == "fin":
        table = T_.trivial_metric_group(G)
        fin_group = table

        def tgt(g):
            return T_.FiniteGroupElement(table, idx[g])
    else:
        raise BuildError(f"unsupported family {family!r}")
    assignments = {g: tgt(g) for g in G_.ball(G, n)}
    cert = C_.ApproxCertificate(
        G, n, family, assignments, fin_group=fin_group,
        provenance=_trace("exact_finite", {"order": len(elems), "family": family},
                          n, 1, len(elems)))
    return _check(cert)


# ---------------------------------------------------------------------------
# induction from finite index

def induction_data(data, g):
    """(alpha_g, [h_{g,i}]) from the factorization g g_i = g_{alpha(i)} h."""
    alpha = []
    hs = []
    for i in range(data.index):
        p = data.parent.mul(g, data.reps[i])
        try:
            i2, h = data.decompose(p)
        except ValueError as exc:
            raise BuildError(f"factorization failed at {data.parent.fmt(p)}: {exc}")
        alpha.append(i2)
        hs.append(h)
    return tuple(alpha), hs


def _as_perm(t):
    if isinstance(t, T_.CyclicPerm):
        return t.materialize()
    if isinstance(t, T_.Permutation):
        return t
    raise BuildError(f"expected a permutation target, got {type(t).__name__}")


def induce_finite_index(G, data, c_H, n=None):
    """Certificate for G from one for a finite-index subgroup.

    psi(g) acts on pairs (coset, point): (i, j) -> (alpha_g(i), phi(h_{g,i})(j)).
    """
    if n is None:
        n = c_H.n
    ell = data.index
    m = c_H.dimension
    family = c_H.family
    assignments = {}
    for g in G_.ball(G, n):
        alpha, hs = induction_data(data, g)
        try:
            blocks = [c_H.target(h) for h in hs]
        except C_.CertificateError as exc:
            raise BuildError(f"subgroup certificate too small: {exc}")
        if family == "sofic":
            images = [0] * (ell * m)
            for i in range(ell):
                pi = _as_perm(blocks[i])
                base = alpha[i] * m
                for j in range(m):
                    images[i * m + j] = base + pi.images[j]
            assignments[g] = T_.Permutation(tuple(images))
        elif family == "hyp":
            import numpy as np
            M = np.zeros((ell * m, ell * m), dtype=complex)
            for i in range(ell):
                blk = blocks[i]
                dense = blk.dense() if hasattr(blk, "dense") else blk.entries
                M[alpha[i] * m:(alpha[i] + 1) * m, i * m:(i + 1) * m] = dense
            assignments[g] = T_.UnitaryMatrix(M)
        elif family == "lin":
            fld = blocks[0].field
            zero = fld.zero()
            rows = [[zero] * (ell * m) for _ in range(ell * m)]
            for i in range(ell):
                blk = blocks[i]
                for r in range(m):
                    for cc in range(m):
                        rows[alpha[i] * m + r][i * m + cc] = blk.rows[r][cc]
            assignments[g] = T_.RankMatrix(rows, fld, check=False)
        else:
            raise BuildError(f"unsupported family {family!r}")
    cert = C_.ApproxCertificate(
        G, n, family, assignments, epsilon=c_H.epsilon,
        provenance=_trace("induce_finite_index",
                          {"index": ell, "subgroup_dim": m},
                          n, float(c_H.epsilon), ell * m,
                          inputs=[c_H.provenance]))
    return _check(cert)


# ---------------------------------------------------------------------------
# direct products

def _combine_product(a, b):
    if isinstance(a, (T_.Permutation, T_.CyclicPerm)) and \
            isinstance(b, (T_.Permutation, T_.CyclicPerm)):
        pa, pb = _as_perm(a), _as_perm(b)
        kb = pb.k
        images = [0] * (pa.k * kb)
        for i in range(pa.k):
            base = pa.images[i] * kb
            row = i * kb
            for j in range(kb):
                images[row + j] = base + pb.images[j]
        return T_.Permutation(tuple(images))
    if isinstance(a, T_.PermUnitary) and isinstance(b, T_.PermUnitary):
        return T_.PermUnitary(_combine_product(a.perm, b.perm))
    if isinstance(a, (T_.UnitaryMatrix, T_.PermUnitary)) and \
            isinstance(b, (T_.UnitaryMatrix, T_.PermUnitary)):
        import numpy as np
        da = a.dense() if isinstance(a, T_.PermUnitary) else a.entries
        db = b.dense() if isinstance(b, T_.PermUnitary) else b.entries
        return T_.UnitaryMatrix(np.kron(da, db))
    if isinstance(a, T_.RankMatrix) and isinstance(b, T_.RankMatrix):
        fld = a.field
        kb = b.k
        rows = [[fld.zero()] * (a.k * kb) for _ in range(a.k * kb)]
        for i in range(a.k):
            for j in range(a.k):
                x = a.rows[i][j]
                if x == fld.zero():
                    continue
                for r in range(kb):
                    for cc in range(kb):
                        rows[i * kb + r][j * kb + cc] = fld.mul(x, b.rows[r][cc])
        return T_.RankMatrix(rows, fld, check=False)
    raise BuildError(
        f"cannot combine {type(a).__name__} with {type(b).__name__}")


def direct_product(c_G, c_H):
    """Product certificate: permutations act on A x B, matrices by tensor."""
    if c_G.family != c_H.family:
        raise BuildError(
            f"family mismatch: {c_G.family} vs {c_H.family}")
    P = G_.DirectProduct(c_G.group, c_H.group)
    n = min(c_G.n, c_H.n)
    assignments = {}
    for p in G_.ball(P, n):
        pa, pb = p
        assignments[p] = _combine_product(c_G.target(pa), c_H.target(pb))
    cert = C_.ApproxCertificate(
        P, n, c_G.family, assignments, epsilon=c_G.epsilon,
        provenance=_trace("direct_product", {},
                          n, float(c_G.epsilon),
                          c_G.dimension * c_H.dimension,
                          inputs=[c_G.provenance, c_H.provenance]))
    return _check(cert)


# ---------------------------------------------------------------------------
# family conversions

def perm_to_hyp(c, n):
    """Hyperlinear certificate at n from a sofic one at 2n^2.

    Permutation matrices are unitary; d_HS = sqrt(2 d_Ham) turns Hamming
    defect 1/(2n^2) into Hilbert-Schmidt defect 1/n.
    """
    if c.family != "sofic":
        raise BuildError("input must be a sofic certificate")
    if c.n < 2 * n * n:
        raise BuildError(f"need input radius 2n^2 = {2 * n * n}, have {c.n}")
    _require_verified(c, f"input fails at {c.n}")
    assignments = {g: T_.PermUnitary(_as_perm(c.target(g)))
                   for g in G_.ball(c.group, n)}
    cert = C_.ApproxCertificate(
        c.group, n, "hyp", assignments,
        provenance=_trace("perm_to_hyp", {"input_n": c.n}, n,
                          float(T_.SQRT2), c.dimension,
                          inputs=[c.provenance]))
    return _check(cert)


def perm_to_lin(c, field=None):
    """Linear-sofic certificate over a field from a sofic one, same radius."""
    if c.family != "sofic":
        raise BuildError("input must be a sofic certificate")
    _require_verified(c, f"input fails at {c.n}")
    fld = field or T_.FieldQ()
    assignments = {g: T_.perm_to_rank(_as_perm(c.target(g)), fld)
                   for g in G_.ball(c.group, c.n)}
    cert = C_.ApproxCertificate(
        c.group, c.n, "lin", assignments,
        provenance=_trace("perm_to_lin",
                          {"input_n": c.n, "field": fld.descriptor()},
                          c.n, 0.25, c.dimension, inputs=[c.provenance]))
    return _check(cert)


# ---------------------------------------------------------------------------
# projective amplification

def amplification_exponent(n):
    """Tensor power needed so the projective separation clears sqrt(2) - 1/n."""
    delta = math.sqrt(2) / (20 * n) - 1 / (200 * n * n)
    return math.ceil(math.log(1 / delta) / math.log(5 / 4)), delta


def amplify_projective(c, n):
    """Projective-hyperlinear certificate via tensor powers of padded unitaries.

    Each image u is replaced by (u (+) I)^{tensor l}; padding halves the trace
    toward 1/2, and the l-th power drives distinct images projectively apart.
    Distances are computed from traces; nothing is materialized.
    """
    if n < 8:
        raise BuildError("amplification needs n >= 8")
    if c.family != "hyp":
        raise BuildError("input must be a hyperlinear certificate")
    if c.n < 40 * n:
        raise BuildError(f"need input radius 40n = {40 * n}, have {c.n}")
    _require_verified(c, f"input fails at {c.n}")
    ell, delta = amplification_exponent(n)
    k = c.dimension
    assignments = {}
    for g in G_.ball(c.group, n):
        base = c.target(g)
        assignments[g] = T_.ImplicitTensorUnitary(
            T_.AugmentedUnitary(base, k), ell)
    cert = C_.ApproxCertificate(
        c.group, n, "hyp-projective", assignments,
        provenance=_trace("amplify_projective",
                          {"input_n": c.n, "pad": k, "power": ell,
                           "delta": delta},
                          n, float(T_.SQRT2), {"base": 2 * k, "power": ell},
                          inputs=[c.provenance]))
    return _check(cert)


# ---------------------------------------------------------------------------
# wreath products

class QuotientGroup:
    """Finite quotient H/N presented through a quotient descriptor."""

    def __init__(self, desc):
        self.desc = desc
        self._elements = sorted(desc.residues(), key=desc.residue_key)
        self.order = len(self._elements)

    def elements(self):
        return list(self._elements)

    def identity(self):
        return self.desc.identity_residue()

    def mul(self, a, b):
        return self.desc.quotient_mul(a, b)

    def inv(self, a):
        return self.desc.quotient_inv(a)

    def key(self, a):
        return self.desc.residue_key(a)

    def fmt(self, a):
        return str(a)

    def descriptor(self):
        return {"kind": "Quotient", "of": self.desc.descriptor()}


def wreath_by_rf(c_G, H, n, quotient):
    """Certificate for G wr H through a finite quotient H/N.

    N must miss B_H(4n) away from the identity, so each coset meets the
    radius-n window at most once; lamps transport coset-wise and land in
    the finite wreath product G_alpha wr H/N with its max/jump metric.
    """
    if c_G.family != "fin" or c_G.fin_group is None:
        raise BuildError("base certificate must target a finite metric group")
    e_H = H.identity()
    for p in G_.ball(H, 4 * n):
        if p != e_H and quotient.kernel_contains(p):
            raise BuildError(
                f"kernel meets B({4 * n}) at {H.fmt(p)}")
    m = quotient.index
    if c_G.n < m:
        raise BuildError(f"base certificate radius {c_G.n} below index {m}")
    _require_verified(c_G, "base fails")

    top = QuotientGroup(quotient)
    W = T_.WreathMetricGroup(c_G.fin_group, top)
    source = G_.WreathProduct(c_G.group, H)
    window = list(G_.ball(H, n))
    res_order = {top.key(r): i for i, r in enumerate(top.elements())}
    window_slot = {}
    for kp in window:
        r = quotient.map(kp)
        slot = res_order[top.key(r)]
        if slot in window_slot and window_slot[slot] != kp:
            raise BuildError(
                f"window points {H.fmt(window_slot[slot])} and {H.fmt(kp)} "
                f"share a coset")
        window_slot[slot] = kp

    e_base = c_G.fin_group.identity_index
    assignments = {}
    for p in G_.ball(source, n):
        assoc, h = p
        lamp = dict(assoc)
        f_hat = [e_base] * top.order
        for slot, kp in window_slot.items():
            g_val = lamp.get(kp, c_G.group.identity())
            f_hat[slot] = c_G.target(g_val).index
        h_hat = W.top_index[quotient.map(h)]
        assignments[p] = T_.FiniteGroupElement(W, (tuple(f_hat), h_hat))
    cert = C_.ApproxCertificate(
        source, n, "fin", assignments, fin_group=W,
        provenance=_trace("wreath_by_rf",
                          {"quotient_index": m, "base_dim": c_G.dimension},
                          n, 1, W.order, inputs=[c_G.provenance]))
    return _check(cert)


def _measured_multiplicativity(cert, radius):
    """(max defect, min distinct-pair distance) of a raw assignment map."""
    grp = cert.group
    B = G_.ball(grp, radius)
    e_t = C_.target_identity_like(next(iter(cert.assignments.values())))

    def img(p):
        t = cert.assignments.get(p)
        return e_t if t is None else t

    worst = Fraction(0)
    for g in B:
        for h in B:
            d = img(g).mul(img(h)).dist(img(grp.mul(g, h)))
            if d > worst:
                worst = d
    best = None
    els = B.elements
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            d = img(els[i]).dist(img(els[j]))
            if best is None or d < best:
                best = d
    if best is None:
        best = Fraction(1)
    return worst, best


def _lamp_functions(H_elems, G_ball):
    """All finitely-supported lamps: support in H_elems, values in G_ball."""
    values = list(G_ball)
    for combo in itertools.product(values, repeat=len(H_elems)):
        yield tuple(zip(H_elems, combo))


# wreath_sofic refuses dimensions above _PERM_CAP, and its bullet checks
# enumerate at most _LAMP_CAP lamp configurations
_PERM_CAP = 10 ** 6
_LAMP_CAP = 4096


def wreath_sofic(c_G, c_H, n):
    """Sofic certificate for G wr H from sofic data for G and finite H.

    The composite map sends (f, h) to the permutation of A^B x B given by
    ((a_b), b) -> ((theta(f(b * beta))(a_beta)), sigma(h)(b)), with sigma the
    left-regular representation of H. Returns (certificate, report) where the
    report carries the four structural conditions and the measured-threshold
    checks.
    """
    G = c_G.group
    H = c_H.group
    if not hasattr(H, "elements"):
        raise BuildError("wreath_sofic needs a finite top group")
    B_list = H.elements()
    sizeB = len(B_list)
    bidx = {b: i for i, b in enumerate(B_list)}
    if c_H.dimension != sizeB:
        raise BuildError("top certificate must be the regular representation")
    for h in B_list:
        perm = _as_perm(c_H.target(h))
        expect = tuple(bidx[H.mul(h, b)] for b in B_list)
        if perm.images != expect:
            raise BuildError("top certificate must be the regular representation")
    A = c_G.dimension
    dim = (A ** sizeB) * sizeB
    if dim > _PERM_CAP:
        raise BuildError(f"dimension {dim} exceeds cap {_PERM_CAP}")

    e_G = G.identity()
    e_perm = T_.Permutation.identity(A)

    def theta(g):
        t = c_G.assignments.get(g)
        return e_perm if t is None else _as_perm(t)

    lampmul = [[bidx[H.mul(a, b)] for b in B_list] for a in B_list]
    powA = [A ** i for i in range(sizeB)]

    def big_perm(lamp, h):
        """lamp: dict H-payload -> G-payload (missing = identity)."""
        thetas = [[theta(lamp.get(B_list[lampmul[b][beta]], e_G))
                   for beta in range(sizeB)] for b in range(sizeB)]
        sig = _as_perm(c_H.target(h)).images
        images = [0] * dim
        for code in range(A ** sizeB):
            rem = code
            coords = []
            for beta in range(sizeB):
                coords.append(rem % A)
                rem //= A
            for b in range(sizeB):
                new_code = 0
                row = thetas[b]
                for beta in range(sizeB):
                    new_code += row[beta].images[coords[beta]] * powA[beta]
                images[code * sizeB + b] = new_code * sizeB + sig[b]
        return T_.Permutation(tuple(images))

    source = G_.WreathProduct(G, H)
    assignments = {}
    for p in G_.ball(source, n):
        assoc, h = p
        assignments[p] = big_perm(dict(assoc), h)
    cert = C_.ApproxCertificate(
        source, n, "sofic", assignments,
        provenance=_trace("wreath_sofic",
                          {"lamp_dim": A, "top_size": sizeB},
                          n, 1, dim,
                          inputs=[c_G.provenance, c_H.provenance]))
    _check(cert)
    report = _wreath_bullets(c_G, c_H, n, big_perm)
    cert.provenance["wreath_conditions"] = {
        k: (v if isinstance(v, (int, float, bool)) else str(v))
        for k, v in report.items()}
    return cert, report


def _wreath_bullets(c_G, c_H, n, big_perm):
    G = c_G.group
    H = c_H.group
    B_list = H.elements()
    e_G_lamp = {}
    e_H = H.identity()
    BH_n = list(G_.ball(H, n))
    BG_n = list(G_.ball(G, n))

    lamps = []
    for lamp in _lamp_functions(BH_n, BG_n):
        lamps.append({t: v for t, v in lamp if v != G.identity()})
        if len(lamps) >= _LAMP_CAP:
            break

    # measured input quality on B(4n)
    epsG_mult, sepG = _measured_multiplicativity(c_G, min(4 * n, c_G.n))
    epsH_mult, sepH = _measured_multiplicativity(c_H, min(4 * n, c_H.n))
    eps_in = max(epsG_mult, 1 - sepG, epsH_mult, 1 - sepH)

    def lamp_product(x, y):
        # product of (x,1)(y,1) in the wreath group: lamps multiply pointwise
        out = dict(y)
        for t, v in x.items():
            out[t] = G.mul(v, out[t]) if t in out else v
            if out[t] == G.identity():
                del out[t]
        return out

    e1 = Fraction(0)
    for x in lamps:
        for y in lamps:
            lhs = big_perm(lamp_product(x, y), e_H)
            rhs = big_perm(x, e_H).mul(big_perm(y, e_H))
            d = lhs.dist(rhs)
            if d > e1:
                e1 = d
    e0 = Fraction(0)
    for x in BH_n:
        for y in BH_n:
            lhs = big_perm(e_G_lamp, x).mul(big_perm(e_G_lamp, y))
            rhs = big_perm(e_G_lamp, H.mul(x, y))
            d = lhs.dist(rhs)
            if d > e0:
                e0 = d
    bullet3 = True
    bullet4 = True
    for x in lamps:
        for y in BH_n:
            lhs3 = big_perm(x, e_H).mul(big_perm(e_G_lamp, y))
            # (x,1)(1,y) carries the lamp t -> x(y t), support shifted by y^-1
            shifted = {H.mul(H.inv(y), s): v for s, v in x.items()}
            rhs3 = big_perm(shifted, y)
            if lhs3.images != rhs3.images:
                bullet3 = False
            lhs4 = big_perm(e_G_lamp, y).mul(big_perm(x, e_H))
            rhs4 = big_perm(x, y)
            if lhs4.images != rhs4.images:
                bullet4 = False

    source = G_.WreathProduct(G, H)
    Bw = G_.ball(source, n)
    final = Fraction(0)
    for z in Bw:
        for w in Bw:
            za, zh = z
            wa, wh = w
            prod = source.mul(z, w)
            lhs = big_perm(dict(za), zh).mul(big_perm(dict(wa), wh))
            rhs = big_perm(dict(prod[0]), prod[1])
            d = lhs.dist(rhs)
            if d > final:
                final = d
    sep = None
    els = Bw.elements
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            a, b = els[i], els[j]
            d = big_perm(dict(a[0]), a[1]).dist(big_perm(dict(b[0]), b[1]))
            if sep is None or d < sep:
                sep = d
    bh4 = G_.growth(H, min(4 * n, 10))
    bh1 = G_.growth(H, n)
    mult_threshold = 48 * bh4 * bh4 * eps_in
    inj_threshold = 1 - 48 * bh1 * bh1 * eps_in
    return {
        "lamp_pair_defect": e1,
        "top_pair_defect": e0,
        "shift_identity_exact": bullet3,
        "split_identity_exact": bullet4,
        "final_defect": final,
        "final_defect_bound": e0 + e1,
        "final_defect_ok": final <= e0 + e1,
        "separation": sep if sep is not None else Fraction(1),
        "measured_epsilon": eps_in,
        "multiplicativity_threshold": mult_threshold,
        "multiplicativity_ok": final < mult_threshold or final <= e0 + e1,
        "injectivity_threshold": inj_threshold,
        "injectivity_ok": (sep if sep is not None else Fraction(1)) >= inj_threshold,
        "lamps_checked": len(lamps),
        "pass": bullet3 and bullet4 and final <= e0 + e1,
    }


# ---------------------------------------------------------------------------
# extensions by amenable quotients

class CoordinateSplit:
    """Z^d = N x Q along coordinate axes: N the kernel, Q the quotient."""

    def __init__(self, d, n_axes):
        self.G = G_.FreeAbelian(d)
        self.n_axes = tuple(sorted(n_axes))
        self.q_axes = tuple(i for i in range(d) if i not in self.n_axes)
        if not self.n_axes or not self.q_axes:
            raise ValueError("split must be proper")
        self.N_group = G_.FreeAbelian(len(self.n_axes))
        self.Q_group = G_.FreeAbelian(len(self.q_axes))

    def project_Q(self, g):
        return tuple(g[i] for i in self.q_axes)

    def project_N(self, g):
        return tuple(g[i] for i in self.n_axes)

    def section(self, q):
        v = [0] * (len(self.n_axes) + len(self.q_axes))
        for x, i in zip(q, self.q_axes):
            v[i] = x
        return tuple(v)

    def in_N(self, g):
        return all(g[i] == 0 for i in self.q_axes)


def coordinate_split(d, n_axes):
    return CoordinateSplit(d, n_axes)


def extend_by_amenable(c_N, w, split, n):
    """Certificate for G from one for N and a controlled Folner set of G/N.

    The image lives in Sym(A) x| G_alpha^A: the permutation part translates
    the Folner set along the quotient, the bell at position a carries the
    N-part sigma(a g-bar)^{-1} a g through the subgroup certificate.
    """
    if w.group.descriptor() != split.Q_group.descriptor():
        raise BuildError("witness lives on the wrong quotient")
    if w.n < 10 * n:
        raise BuildError(f"need a witness at 10n = {10 * n}, have {w.n}")
    if not w.valid:
        raise BuildError(f"witness defect {w.defect} exceeds 1/{w.n}")
    if not w.controlled_ok():
        raise BuildError("witness is not controlled (A inside B(k), |A| <= k)")
    k = w.radius_bound
    if c_N.n < 20 * k:
        raise BuildError(f"subgroup certificate must reach 20k = {20 * k}")

    G = split.G
    Q = split.Q_group
    A = list(w.members)
    pos = {a: i for i, a in enumerate(A)}
    size = len(A)
    e_Q = Q.identity()
    for a in A[:min(size, 16)]:
        if split.project_Q(split.section(a)) != a:
            raise BuildError("section is not a right inverse on A")

    assignments = {}
    for g in G_.ball(G, n):
        qg = split.project_Q(g)
        targets_q = [Q.mul(a, qg) for a in A]
        perm = _complete_injection([pos.get(aq) for aq in targets_q])
        bells = []
        for i, a in enumerate(A):
            lift = split.section(targets_q[i])
            arg = G.mul(G.inv(lift), G.mul(split.section(a), g))
            if not split.in_N(arg):
                raise BuildError("bell argument escaped the kernel")
            try:
                bells.append(c_N.target(split.project_N(arg)))
            except C_.CertificateError as exc:
                raise BuildError(f"subgroup certificate too small: {exc}")
        assignments[g] = T_.PermWreathElement(perm, bells)
    cert = C_.ApproxCertificate(
        G, n, "sofic", assignments,
        provenance=_trace("extend_by_amenable",
                          {"folner_size": size, "radius_bound": k,
                           "subgroup_dim": c_N.dimension},
                          n, 1, size * c_N.dimension,
                          inputs=[c_N.provenance]))
    return _check(cert)
