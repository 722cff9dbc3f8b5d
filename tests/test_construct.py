import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupapprox import groups as G_
from groupapprox import targets as T_
from groupapprox import certify as C_
from groupapprox import construct as X_
from groupapprox import profiles as P_

Z = G_.FreeAbelian(1)
Z2 = G_.FreeAbelian(2)


# ---------------------------------------------------------------------------
# cyclic and quotient builders

def test_cyclic_dimensions():
    for n in (1, 2, 5, 12):
        c = X_.cyclic_Z(n)
        assert c.dimension == 2 * n + 1
        assert c.family == "sofic" and c.n == n
    with pytest.raises(X_.BuildError):
        X_.cyclic_Z(0)


def test_exact_finite_regular():
    C6 = G_.FiniteCyclic(6)
    c = X_.exact_finite(C6, 4)
    assert c.dimension == 6
    assert C_.verify_D(c).passed
    fin = X_.exact_finite(C6, 2, family="fin")
    assert fin.fin_group is not None
    assert C_.verify_D(fin).passed
    for G in (Z, G_.LatticeHNF(Z, [(6,)])):  # infinite; no word metric
        with pytest.raises(X_.BuildError, match="finite group"):
            X_.exact_finite(G, 1)


def test_exact_finite_multiplies_only_the_ball_rows(monkeypatch):
    # |B(1)| = 3 rows of 1000 products each, not the 10^6 of the table
    G = G_.FiniteCyclic(1000)
    calls = []
    mul = G.mul
    monkeypatch.setattr(G, "mul", lambda a, b: calls.append(1) or mul(a, b))
    assert X_.exact_finite(G, 1).dimension == 1000
    assert len(calls) < 4 * 1000


def test_from_quotient_skew_lattice():
    L = G_.LatticeHNF(Z2, [(1, 2), (0, 5)])
    c = X_.from_quotient(Z2, L, 1)
    assert c.dimension == 5
    assert C_.verify_D(c).passed


def test_from_quotient_kernel_guard():
    L = G_.LatticeHNF(Z2, [(1, 2), (0, 5)])
    # (1,2) is a kernel element of word length 3, inside B(4)
    with pytest.raises(X_.BuildError, match="kernel meets"):
        X_.from_quotient(Z2, L, 2)


def test_from_quotient_families():
    L = G_.LatticeHNF(Z, [(7,)])
    for family in ("sofic", "hyp", "lin", "fin"):
        c = X_.from_quotient(Z, L, 1, family)
        assert c.dimension == 7
        assert C_.verify_D(c).passed, family
    assert X_.from_quotient(Z, L, 1, "lin").epsilon == Fraction(1, 4)
    assert X_.from_quotient(Z, L, 1, "fin").fin_group is not None


def test_from_quotient_heisenberg_congruence():
    H = G_.Heisenberg(1)
    Q = G_.CongruenceMod(H, 3)
    c = X_.from_quotient(H, Q, 1)
    assert c.dimension == 27
    assert C_.verify_D(c).passed


# quotients whose kernel misses B(2) \ {e}, so from_quotient builds at n = 1
RF_QUOTIENTS = [G_.LatticeHNF(Z, [(m,)]) for m in (3, 5, 8)] + [
    G_.LatticeHNF(Z2, [(3, 1), (0, 5)]), G_.LatticeHNF(Z2, [(5, 0), (0, 3)]),
    G_.LatticeHNF(G_.FreeAbelian(3), [(3, 1, 2), (0, 3, 1), (0, 0, 3)]),
    G_.CongruenceMod(G_.Heisenberg(1), 3)]


def _translations_loop(Q, xs):
    """Left translation of the finite quotient Q by the image of each x of
    ``xs``: the slots in Q.elements() of Q.map(x) * y, by scalar ``mul``."""
    elems = Q.elements()
    slot = {p: i for i, p in enumerate(elems)}
    return [[slot[Q.mul(Q.map(x), y)] for y in elems] for x in xs]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(RF_QUOTIENTS),
       st.sampled_from(["sofic", "hyp", "lin", "fin"]),
       st.sampled_from([None, T_.FieldFp(3)]))
def test_quotient_action_matches_the_loop(Q, family, field):
    G = Q.parent
    cert = X_.from_quotient(G, Q, 1, family, field)
    B = G_.ball(G, 1)
    want = X_._left_regular(Q, np.array(_translations_loop(Q, B)),
                            family, field)
    assert json.dumps([cert.assignments[g].to_json() for g in B]) \
        == json.dumps([want.target(i).to_json() for i in range(len(B))])
    if family == "fin":
        assert cert.fin_group.to_json() == want.target(0).group.to_json()
        assert cert.fin_group.mul_table.tolist() \
            == _translations_loop(Q, Q.elements())


# sha256 of each certificate's to_json(), encoded compactly, for builders
# that read groups.table, pinned from the scalar table loops they replaced;
# the fin digests were pinned again when a table came to be written as its
# product table and length function, once each old object was shown to
# decode to the same product table and distances as the new; the sofic
# digests were pinned again when permutation images came to be written as
# base64 strings, once each old object was shown to decode to the same
# images as the new; the fin digests were pinned again when a table's
# products came to be written as one base64 string of int32, once each old
# object, its mul the nested lists of mul_table.tolist(), was shown to keep
# its old digest and the new to decode to the same products
# (test_packed_products_are_the_old_table).
_PINNED_DUMPS = {
    "fin-heisenberg-mod7": (
        lambda: X_.from_quotient(
            G_.Heisenberg(1), G_.CongruenceMod(G_.Heisenberg(1), 7), 3,
            "fin"),
        "e7b839b3189d9f7c21c819fe5e27bd77e11345cd4299df4bd8568f4477df70b8"),
    "sofic-Z2-mod25": (
        lambda: X_.from_quotient(
            Z2, G_.LatticeHNF(Z2, [(25, 0), (0, 25)]), 12, "sofic"),
        "adc053e0ae504edf81ef7d5fbbb2b0ece7508e275b67e25a77b9d7e6c238b674"),
    "fin-sym3": (
        lambda: X_.exact_finite(G_.FiniteSym(3), 3, "fin"),
        "28840298553830b5a0b5cc0a22eeb882fccd716210126983e9eeaca02602af50"),
}


# the digests of the table certificates while mul was nested lists of ints
_NESTED_MUL_DUMPS = {
    "fin-heisenberg-mod7":
        "e130322b05cda834d21afd3a7d74011703f5536395d29d43684af762168f71b9",
    "fin-sym3":
        "9313dd8abb894b8e4c700380cc5615adab177d2864c2fb94d5d115d498af4c79",
}


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", _PINNED_DUMPS)
def test_table_builders_keep_their_bytes(case):
    build, digest = _PINNED_DUMPS[case]
    assert _digest(build().to_json()) == digest


@pytest.mark.parametrize("case", _NESTED_MUL_DUMPS)
def test_packed_products_are_the_old_table(case):
    """Each table certificate with its products spelled as nested lists
    is the object pinned before they were packed, and the packed products
    decode to those lists: only the spelling of mul moved."""
    cert = _PINNED_DUMPS[case][0]()
    obj = cert.to_json()
    nested = cert.fin_group.mul_table.tolist()
    assert T_.TableMetricGroup.from_json(obj["target_group"]) \
        .mul_table.tolist() == nested
    obj["target_group"]["mul"] = nested
    assert _digest(obj) == _NESTED_MUL_DUMPS[case]


@pytest.mark.parametrize("G, Q", [
    (Z, G_.LatticeHNF(Z2, [(3, 0), (0, 3)])),
    (G_.Heisenberg(1), G_.LatticeHNF(Z2, [(3, 0), (0, 3)])),
    (Z2, G_.LatticeHNF(Z, [(7,)])),
], ids=["Z-by-Z2-lattice", "Heisenberg-by-Z2-lattice", "Z2-by-Z-lattice"])
def test_from_quotient_rejects_a_quotient_of_another_group(G, Q):
    with pytest.raises(X_.BuildError, match="is a quotient of"):
        X_.from_quotient(G, Q, 2)


# ---------------------------------------------------------------------------
# Folner witnesses

def test_interval_witness_defect():
    w = P_.interval_witness_Z(2)
    assert len(w.members) == 24
    assert w.defect == Fraction(1, 2)


def test_folner_to_sofic():
    w = P_.interval_witness_Z(2)
    c = X_.folner_to_sofic(w)
    assert c.n == 1 and c.dimension == 24
    assert C_.verify_D(c).passed


def test_folner_to_sofic_rejects_weak_witness():
    w = X_.FolnerWitness(Z, 1, [(i,) for i in range(6)])
    with pytest.raises(X_.BuildError, match="defect"):
        X_.folner_to_sofic(w, n=1)


def test_witness_round_trip():
    w = P_.interval_witness_Z(2)
    back = X_.witness_from_json(w.to_json())
    assert back.members == w.members
    assert back.defect == w.defect
    # a file that records a radius bound, as witnesses once did, decodes:
    # the key is not read
    for radius in (None, 24):
        old = X_.witness_from_json({**w.to_json(), "radius_bound": radius})
        assert old.to_json() == w.to_json()


@pytest.mark.parametrize("group, members", [
    (G_.FiniteCyclic(5), [5, 6, 7, 8, 9]),
    (G_.FiniteCyclic(5), [-1, 0, 1]),
    (G_.Free(2), [(1, -1), (2,)]),
    (G_.FiniteSym(3), [(0, 0, 1)])], ids=["Z5-beyond", "Z5-negative",
                                           "F2-unreduced", "S3-not-a-perm"])
def test_witness_members_outside_the_normal_form_are_refused(group, members):
    """A witness file whose every field its writer wrote for the members,
    but whose members are not normal forms of the group (FiniteCyclic(5)
    takes 5..9 for 0..4 in its products), is malformed: exit 1 in the
    CLI, not a witness of another set."""
    obj = X_.FolnerWitness(group, 1, members).to_json()
    with pytest.raises(C_.CertificateError,
                       match="malformed witness: member .* is not in the "
                             "normal form"):
        X_.witness_from_json(obj)


# ---------------------------------------------------------------------------
# finite-index induction

def test_induced_certificate_verifies():
    data = G_.index_subgroup_of_Z(2)
    c_H = X_.cyclic_Z(6)
    for n in (1, 2, 3):
        c = X_.induce_finite_index(Z, data, c_H, n=n)
        assert c.dimension == 2 * c_H.dimension
        assert C_.verify_D(c).passed


def test_induced_hyp_certificate_densifies_perm_unitaries():
    c = X_.induce_finite_index(Z, G_.index_subgroup_of_Z(2),
                               X_.perm_to_hyp(X_.cyclic_Z(8), 2), 1)
    assert c.family == "hyp" and c.dimension == 34
    assert C_.verify_D(c).passed


def test_cocycle_identities():
    data = G_.index_subgroup_of_Z(3)
    rng = random.Random(7)
    B = list(G_.ball(Z, 6))
    for _ in range(300):
        g = B[rng.randrange(len(B))]
        k = B[rng.randrange(len(B))]
        a_g, h_g = X_.induction_data(data, g)
        a_k, h_k = X_.induction_data(data, k)
        a_gk, h_gk = X_.induction_data(data, Z.mul(g, k))
        for i in range(data.index):
            assert a_gk[i] == a_g[a_k[i]]
            assert h_gk[i] == data.sub.mul(h_g[a_k[i]], h_k[i])


# ---------------------------------------------------------------------------
# products and conversions

def test_direct_product_dimensions():
    c = X_.direct_product(X_.cyclic_Z(3), X_.cyclic_Z(3))
    assert c.dimension == 49
    assert c.group.descriptor()["kind"] == "DirectProduct"
    assert C_.verify_D(c).passed


def test_direct_product_rejects_a_field_mismatch():
    over_q = X_.perm_to_lin(X_.cyclic_Z(1), T_.FieldQ())
    over_f2 = X_.perm_to_lin(X_.cyclic_Z(1), T_.FieldFp(2))
    with pytest.raises(X_.BuildError, match="field mismatch: Q vs F2"):
        X_.direct_product(over_q, over_f2)
    with pytest.raises(X_.BuildError, match="field mismatch: F2 vs Q"):
        X_.direct_product(over_f2, over_q)


def test_direct_product_family_guard():
    hyp = X_.perm_to_hyp(X_.cyclic_Z(2), 1)
    with pytest.raises(X_.BuildError, match="family"):
        X_.direct_product(X_.cyclic_Z(2), hyp)


def test_perm_to_hyp_separation():
    c = X_.perm_to_hyp(X_.cyclic_Z(8), 2)
    rep = C_.verify_D(c)
    assert rep.passed
    assert abs(rep.separation - math.sqrt(2)) < 1e-9
    with pytest.raises(X_.BuildError, match="radius"):
        X_.perm_to_hyp(X_.cyclic_Z(3), 2)


def test_perm_to_lin():
    c = X_.perm_to_lin(X_.cyclic_Z(3), T_.FieldFp(2))
    assert c.epsilon == Fraction(1, 4)
    assert c.dimension == 7
    assert C_.verify_D(c).passed
    with pytest.raises(X_.BuildError):
        X_.perm_to_lin(c)  # already lin


# ---------------------------------------------------------------------------
# projective amplification

def test_amplification_exponent():
    ell, delta = X_.amplification_exponent(8)
    assert ell == 22
    assert 0 < delta < 1
    assert (5 / 4) ** -ell <= delta
    assert (5 / 4) ** -(ell - 1) > delta


def test_amplify_guards():
    hyp = X_.perm_to_hyp(X_.cyclic_Z(8), 2)
    with pytest.raises(X_.BuildError, match="n >= 8"):
        X_.amplify_projective(hyp, 2)
    with pytest.raises(X_.BuildError, match="radius"):
        X_.amplify_projective(hyp, 8)
    with pytest.raises(X_.BuildError, match="hyperlinear"):
        X_.amplify_projective(X_.cyclic_Z(8), 8)


def test_amplify_full_instance():
    L = G_.LatticeHNF(Z, [(641,)])
    hyp = X_.from_quotient(Z, L, 320, "hyp")
    cert = X_.amplify_projective(hyp, 8)
    assert cert.family == "hyp-projective"
    rep = C_.verify_D(cert)
    assert rep.passed
    first = cert.target(Z.identity())
    assert isinstance(first, T_.ImplicitTensorUnitary)
    assert first.power == 22


# ---------------------------------------------------------------------------
# Z x Z from a shift certificate and a Folner one

def test_direct_product_of_a_shift_and_a_folner_certificate():
    """Z x Z as the direct product of Z's shifts on 3 points and the
    24-point Folner certificate of Z: dimension 3 * 24, exact and
    separated."""
    cert = X_.direct_product(X_.cyclic_Z(1),
                             X_.folner_to_sofic(P_.interval_witness_Z(2), 1))
    assert cert.group.descriptor() == G_.DirectProduct(Z, Z).descriptor()
    assert cert.n == 1 and cert.dimension == 72
    rep = C_.verify_D(cert)
    assert rep.passed and rep.defect == 0 and rep.separation == 1


# ---------------------------------------------------------------------------
# word-level inputs

_WORD = C_.HomCertificate(Z, {"x1": T_.CyclicPerm(7, 1)}, "sofic")

# each builder that reads its input certificates' balls, given the
# word-level _WORD where it reads one; the other arguments are never read
_BALL_READERS = {
    "induce_finite_index": lambda: X_.induce_finite_index(
        Z, G_.index_subgroup_of_Z(2), _WORD),
    "direct_product": lambda: X_.direct_product(X_.cyclic_Z(2), _WORD),
    "perm_to_hyp": lambda: X_.perm_to_hyp(_WORD, 1),
    "perm_to_lin": lambda: X_.perm_to_lin(_WORD),
    "amplify_projective": lambda: X_.amplify_projective(_WORD, 8),
}


@pytest.mark.parametrize("builder", _BALL_READERS)
def test_a_word_level_input_is_a_build_error(builder):
    with pytest.raises(X_.BuildError) as refused:
        _BALL_READERS[builder]()
    assert str(refused.value) == (f"{builder} needs an element-level "
                                  f"certificate, not a HomCertificate")
