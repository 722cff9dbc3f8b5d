"""Certificate builders.

Every builder verifies its own output before returning it; an unverifiable
construction raises instead of handing back a bad certificate. Provenance
is recorded as a small trace dict embedded in the certificate.
"""
from __future__ import annotations

import json
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
    """The verify_D report of cert at the default float margin; raise
    UpstreamVerificationError, led by ``failure``, unless it passes."""
    rep = C_.verify_D(cert)
    if not rep.passed:
        raise C_.UpstreamVerificationError(f"{failure}: {rep!r}")
    return rep


def _element_level(builder, *certs):
    """BuildError naming ``builder``, which reads its input certificates'
    balls, unless each of certs is an element-level ApproxCertificate: a
    word-level HomCertificate has no ball."""
    for c in certs:
        if not isinstance(c, C_.ApproxCertificate):
            raise BuildError(f"{builder} needs an element-level certificate,"
                             f" not a {type(c).__name__}")


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
    """The payload _payload_to_json wrote: lists become tuples and every
    leaf is an exact JSON int (no bool, no float); ValueError otherwise."""
    if isinstance(j, list):
        return tuple(_payload_from_json(x) for x in j)
    if type(j) is not int:
        raise ValueError(f"a member payload holds {j!r}, not an integer")
    return j


def witness_from_json(obj):
    """Decode a Folner witness; malformed input raises CertificateError."""
    return C_.decoded(_decode_witness, obj, "witness")


def _decode_witness(obj):
    """The witness whose ``to_json()`` the file is, type for type, in
    every field that writer writes; other keys are not read. Each member
    must be in the group's normal form: the identity times it is itself,
    and a finite group's member is one of its elements."""
    group = G_.group_from_descriptor(obj["group"])
    members = [_payload_from_json(m) for m in obj["members_payload"]]
    finite = set(group.elements()) if hasattr(group, "elements") else None
    for p in members:
        if group.mul(group.identity(), p) != p \
                or (finite is not None and p not in finite):
            raise ValueError(f"member {_payload_to_json(p)} is not in the "
                             f"normal form of {group!r}")
    w = FolnerWitness(group, T_.json_int(obj, "n"), members)
    for key, value in w.to_json().items():
        if json.dumps(obj[key], sort_keys=True) != \
                json.dumps(value, sort_keys=True):
            raise ValueError(f"witness field {key!r} is not the "
                             f"{key} of the witness it decodes to")
    return w


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

    def __init__(self, group, n, members):
        self.group = group
        self.n = int(n)
        if self.n < 1:
            raise ValueError(f"a Folner witness has radius n >= 1, not "
                             f"{self.n}")
        self.members = tuple(sorted(set(members), key=group.key))
        if not self.members:
            raise ValueError("empty Folner set")
        self.defect = folner_defect(group, self.members, self.n)

    def defect_at(self, m):
        return folner_defect(self.group, self.members, m)

    def valid_at(self, m):
        return self.defect_at(m) <= Fraction(1, m)

    def to_json(self):
        return {"group": self.group.descriptor(), "n": self.n,
                "size": len(self.members),
                "defect": [self.defect.numerator, self.defect.denominator],
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
# finite groups and finite quotients

def _left_regular(F, slots, family, field=None):
    """The images, in order, of the left translations of the finite group
    F whose rows of ``groups.table(F)`` are the rows of the int array
    ``slots``: permutation rows (sofic), permutation-unitary rows (hyp),
    permutation-matrix rank rows over ``field`` (lin) or elements of F's
    table group (fin)."""
    if family not in ("sofic", "hyp", "lin", "fin"):
        raise BuildError(f"unsupported family {family!r}")
    if family == "fin":
        table = T_.trivial_metric_group(F)
        # x * e = x: a translation sends the identity's slot to its image
        return T_.table_rows(table, slots[:, table.identity_index])
    if family == "lin":
        return T_.rows_from_array(slots, T_.RANK, field or T_.FieldQ())
    return T_.rows_from_array(
        slots, T_.HILBERT_SCHMIDT if family == "hyp" else T_.HAMMING)


def _require_quotient_of(G, Q):
    if Q.parent != G:
        raise BuildError(f"{Q.kind} is a quotient of {Q.parent}, not of {G}")


def from_quotient(G, Q, n, family="sofic", field=None):
    """Certificate through a finite quotient whose kernel misses B(2n)\\{e}.

    G acts on the quotient Q by left translation by its image Q.map(g).
    """
    _require_quotient_of(G, Q)
    p = G_.kernel_witness(G, Q, 2 * n)
    if p is not None:
        raise BuildError(f"kernel meets B({2 * n}) at {G.fmt(p)}")
    rows = _left_regular(
        Q, G_.quotient_action(Q, G_.ball(G, n).coords()), family, field)
    cert = C_.ApproxCertificate(
        G, n, family, rows,
        provenance=_trace("from_quotient",
                          {"quotient": Q.descriptor(), "family": family},
                          n, C_.family_record(family).epsilon, Q.index))
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
    """Left-regular certificate for a finite group, the trivial quotient of
    itself; exact at every radius."""
    # a finite quotient has elements() too, but no word metric of its own
    if not (isinstance(G, G_.Group) and hasattr(G, "elements")):
        raise BuildError("exact_finite needs a finite group")
    if family not in ("sofic", "fin"):
        raise BuildError(f"unsupported family {family!r}")
    # only the ball's rows: O(|B| |G|), not the whole table
    rows = _left_regular(G, G_.table(G, G_.ball(G, n)), family)
    cert = C_.ApproxCertificate(
        G, n, family, rows,
        provenance=_trace("exact_finite", {"order": G.order(), "family": family},
                          n, 1, G.order()))
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


def induce_finite_index(G, data, c_H, n=None):
    """Certificate for G from one for a finite-index subgroup.

    psi(g) acts on pairs (coset, point): (i, j) -> (alpha_g(i), phi(h_{g,i})(j)).
    """
    _element_level("induce_finite_index", c_H)
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
            # point j of block i goes to point pi_i(j) of block alpha(i)
            assignments[g] = T_.Permutation(
                alpha[i] * m + x for i in range(ell)
                for x in blocks[i].images)
        elif family == "hyp":
            import numpy as np
            M = np.zeros((ell * m, ell * m), dtype=complex)
            for i in range(ell):
                M[alpha[i] * m:(alpha[i] + 1) * m, i * m:(i + 1) * m] = \
                    T_.as_dense(blocks[i]).entries
            assignments[g] = T_.UnitaryMatrix(M)
        elif family == "lin":
            rows = [[0] * (ell * m) for _ in range(ell * m)]
            for i in range(ell):
                for r in range(m):
                    rows[alpha[i] * m + r][i * m:(i + 1) * m] = blocks[i].rows[r]
            assignments[g] = T_.RankMatrix(rows, blocks[0].field, check=False)
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
    perms = (T_.Permutation, T_.CyclicPerm)
    if isinstance(a, perms) and isinstance(b, perms):
        pb = b.images
        # point (i, j) of A x B, at i |B| + j, goes to (a(i), b(j))
        return T_.Permutation(x * len(pb) + y for x in a.images for y in pb)
    if isinstance(a, T_.PermUnitary) and isinstance(b, T_.PermUnitary):
        return T_.PermUnitary(_combine_product(a.perm, b.perm))
    if isinstance(a, (T_.UnitaryMatrix, T_.PermUnitary)) and \
            isinstance(b, (T_.UnitaryMatrix, T_.PermUnitary)):
        import numpy as np
        return T_.UnitaryMatrix(np.kron(T_.as_dense(a).entries,
                                        T_.as_dense(b).entries))
    if isinstance(a, T_.RankMatrix) and isinstance(b, T_.RankMatrix):
        if a.field.descriptor() != b.field.descriptor():
            raise BuildError(
                f"field mismatch: {a.field.label} vs {b.field.label}")
        return T_.RankMatrix([[x * y for x in ra for y in rb]
                              for ra in a.rows for rb in b.rows],
                             a.field, check=False)
    raise BuildError(
        f"cannot combine {type(a).__name__} with {type(b).__name__}")


def direct_product(c_G, c_H):
    """Product certificate: permutations act on A x B, matrices by tensor."""
    _element_level("direct_product", c_G, c_H)
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
    _element_level("perm_to_hyp", c)
    if c.family != "sofic":
        raise BuildError("input must be a sofic certificate")
    if c.n < 2 * n * n:
        raise BuildError(f"need input radius 2n^2 = {2 * n * n}, have {c.n}")
    _require_verified(c, f"input fails at {c.n}")
    assignments = {g: T_.PermUnitary(c.target(g).images)
                   for g in G_.ball(c.group, n)}
    cert = C_.ApproxCertificate(
        c.group, n, "hyp", assignments,
        provenance=_trace("perm_to_hyp", {"input_n": c.n}, n,
                          C_.FAMILIES["hyp"].epsilon, c.dimension,
                          inputs=[c.provenance]))
    return _check(cert)


def perm_to_lin(c, field=None):
    """Linear-sofic certificate over a field from a sofic one, same radius."""
    _element_level("perm_to_lin", c)
    if c.family != "sofic":
        raise BuildError("input must be a sofic certificate")
    _require_verified(c, f"input fails at {c.n}")
    fld = field or T_.FieldQ()
    rows = T_.rows_from_array([c.target(g).images for g in c.ball],
                              T_.RANK, fld)
    cert = C_.ApproxCertificate(
        c.group, c.n, "lin", rows,
        provenance=_trace("perm_to_lin",
                          {"input_n": c.n, "field": fld.descriptor()},
                          c.n, C_.FAMILIES["lin"].epsilon, c.dimension,
                          inputs=[c.provenance]))
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
    _element_level("amplify_projective", c)
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
                          n, C_.FAMILIES["hyp-projective"].epsilon,
                          {"base": 2 * k, "power": ell},
                          inputs=[c.provenance]))
    return _check(cert)

