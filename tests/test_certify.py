import collections
import itertools
import json
import math
import random
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupapprox import groups as G_
from groupapprox import targets as T_
from groupapprox import certify as C_
from groupapprox import construct as X_
from groupapprox import profiles as P_

Z = G_.FreeAbelian(1)


def cyclic(n):
    return X_.cyclic_Z(n)


# ---------------------------------------------------------------------------
# verify_D

def test_cyclic_verifies_exactly():
    rep = C_.verify_D(cyclic(4))
    assert rep.passed
    assert rep.defect == 0
    assert rep.separation == 1
    j = rep.to_json()
    assert j["pass"] and j["defect_threshold"] == 0.25


def test_missing_assignment_rejected():
    c = cyclic(2)
    partial = dict(c.assignments)
    partial.pop((2,))
    with pytest.raises(C_.CertificateError, match="missing assignment for 2"):
        C_.ApproxCertificate(c.group, c.n, c.family, partial)
    obj = c.to_json()
    obj["assignments"] = [a for a in obj["assignments"] if a["element"] != "2"]
    with pytest.raises(C_.CertificateError, match="missing assignment for 2"):
        C_.ApproxCertificate.from_json(obj)


def test_a_verified_certificate_cannot_change():
    """The stored image array is read-only and the assignments a read-only
    view; after every attempt to write, the report is the same."""
    hyp = X_.perm_to_hyp(cyclic(8), 2)
    dense = C_.ApproxCertificate(
        Z, 2, "hyp", {p: T_.as_dense(u) for p, u in hyp.assignments.items()})
    for cert in (X_.from_quotient(Z, G_.LatticeHNF(Z, [(7,)]), 3, "sofic"),
                 hyp, cyclic(3), dense):
        before = C_.verify_D(cert).to_json()
        p = cert.group.identity()
        if isinstance(cert.target(p), T_.CyclicPerm):
            with pytest.raises(TypeError):  # the objects, in a tuple
                cert.rows.images[0] = None
        elif isinstance(cert.target(p), T_.UnitaryMatrix):
            with pytest.raises(ValueError, match="read-only"):
                cert.target(p).entries[0, 0] = 2
        else:
            with pytest.raises(ValueError, match="read-only"):
                cert.rows.P[0, 0] = 1
        with pytest.raises(TypeError):
            cert.assignments[p] = cert.target(p)
        with pytest.raises(TypeError):
            del cert.assignments[p]
        with pytest.raises(AttributeError):
            cert.rows = None
        with pytest.raises(AttributeError):
            cert.ball = None
        with pytest.raises(AttributeError):
            cert.assignments = {}
        assert C_.verify_D(cert).to_json() == before
    h = C_.HomCertificate(Z, {"x1": T_.CyclicPerm(7, 1)}, "sofic")
    with pytest.raises(TypeError):
        h.images["x1"] = T_.CyclicPerm(7, 2)


def test_reverify_at_smaller_radius():
    c = cyclic(5)
    rep = C_.verify_D(c, at_n=3)
    assert rep.passed and rep.n == 3
    with pytest.raises(C_.CertificateError):
        C_.verify_D(c, at_n=9)


def test_mutated_assignment_caught():
    c = _replace(cyclic(3), (1,), T_.CyclicPerm(7, 2))
    rep = C_.verify_D(c)
    assert not rep.passed
    assert rep.defect_witness is not None


def test_every_single_mutation_caught():
    base = cyclic(2)
    m = base.dimension
    for p in list(base.assignments):
        for wrong in range(m):
            if T_.CyclicPerm(m, wrong) == base.assignments[p]:
                continue
            c = _replace(cyclic(2), p, T_.CyclicPerm(m, wrong))
            assert not C_.verify_D(c).passed, (p, wrong)


def test_float_margin_fails_closed():
    c = cyclic(3)
    hyp = X_.perm_to_hyp(c, 1)
    assert C_.verify_D(hyp).passed
    # an absurd margin swallows the whole threshold; must fail, not pass
    assert not C_.verify_D(hyp, margin=1.0).passed


@pytest.mark.parametrize("margin", [-1.0, -1e-12, math.nan, math.inf])
def test_bad_margin_is_rejected(margin):
    hyp = X_.perm_to_hyp(cyclic(3), 1)
    h = C_.HomCertificate(Z, {"x1": T_.CyclicPerm(7, 1)}, "sofic")
    for check in (lambda: C_.verify_D(hyp, margin=margin),
                  lambda: C_.verify_D(cyclic(3), margin=margin),
                  lambda: C_.verify_W(h, 2, margin=margin),
                  lambda: C_.verify_R(h, 2, margin=margin)):
        with pytest.raises(C_.CertificateError, match="margin"):
            check()
    assert C_.verify_D(hyp, margin=0.0).passed


def _epsilons(n):
    """The family default (None), 1/3, random floats, and the floats one
    ulp either side of s + 1/n for s = 0 and 1, where the float and the
    exact thresholds can disagree."""
    near = [math.nextafter(s + 1 / n, side) for s in (0, 1)
            for side in (-math.inf, math.inf)]
    return st.one_of(st.sampled_from([None, 1 / 3, *near]),
                     st.floats(0.01, 3))


def _fields(rep):
    """Every field of a report but its notes."""
    return {k: v for k, v in vars(rep).items() if k != "notes"}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_translation_fast_path_matches_generic(data):
    """Shifts by g mod m on Z as cyclic-perm targets (the translation
    kernel) and as the equal perm targets (the commutant kernel) give
    equal reports but for their notes, m < 2n + 1 (repeated shifts)
    included, and so does verify_W on a generator image of either kind."""
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 2 * n + 3))
    eps = data.draw(_epsilons(n))
    B = G_.ball(Z, n)
    cyc, perm = (C_.ApproxCertificate(Z, n, "sofic", {
        p: make(T_.CyclicPerm(m, p[0])) for p in B}, epsilon=eps)
        for make in (lambda t: t, lambda t: T_.Permutation(t.images)))
    fast, kernel = C_.verify_D(cyc), C_.verify_D(perm)
    assert any("fast path" in note for note in fast.notes)
    assert C_.COMMUTANT_NOTE in kernel.notes
    assert _fields(fast) == _fields(kernel)
    want = _reference_verify(perm)
    assert {key: getattr(fast, key) for key in want if key != "passed"} \
        == {key: want[key] for key in want if key != "passed"}
    assert fast.passed == want["passed"]
    h_cyc, h_perm = (C_.HomCertificate(Z, {"x1": t}, "sofic", epsilon=eps)
                     for t in (T_.CyclicPerm(m, 1),
                               T_.Permutation(T_.CyclicPerm(m, 1).images)))
    for verify in (C_.verify_W, C_.verify_R):
        word_cyc, word_perm = verify(h_cyc, n), verify(h_perm, n)
        # the permutation images take the homomorphism kernel
        assert word_perm.notes == word_cyc.notes + [C_.HOMOMORPHISM_NOTE]
        assert _fields(word_cyc) == _fields(word_perm)


def test_translation_check_stops_at_the_first_target_not_a_shift(
        monkeypatch):
    """The translation kernel builds no target past the first that is not
    a shift: none past the first of a hyp certificate on Z, none past
    slot 1 of a cyclic one whose image of -1 is changed."""
    hyp = X_.from_quotient(Z, G_.LatticeHNF(Z, [(41,)]), 20, "hyp")
    bent = _replace(cyclic(3), (-1,), T_.CyclicPerm(7, 2))
    for cert, last in ((hyp, 0), (bent, 1)):
        built, rows = [], type(cert.rows)
        monkeypatch.setattr(rows, "target", lambda self, i, target=rows.target:
                            built.append(i) or target(self, i))
        C_.verify_D(cert)
        assert max(built) == last


def _reference_failed(defect, separation, n, epsilon, exact, margin):
    """The strict conditions that fail: an exact family's exactly against
    1/n and Fraction(epsilon) - 1/n, a floating one's with the margin
    taken off both sides."""
    if exact:
        ok = (defect < Fraction(1, n),
              separation > Fraction(epsilon) - Fraction(1, n))
    else:
        ok = (defect < 1.0 / n - margin,
              separation > float(epsilon) - 1.0 / n + margin)
    return [name for name, good in zip(("defect", "separation"), ok)
            if not good]


def _reference_verify(cert):
    """Plain double loop over scalar mul/dist: the sweep's reference."""
    grp = cert.group
    B = G_.ball(grp, cert.n)
    els = B.elements
    imgs = [cert.assignments[p] for p in els]
    exact = C_.FAMILIES[cert.family].exact
    projective = C_.FAMILIES[cert.family].projective
    defect, def_wit, pairs = (Fraction(0) if exact else 0.0), None, 0
    for i, g in enumerate(els):
        for j, h in enumerate(els):
            gh = grp.mul(g, h)
            if gh not in B:
                continue
            pairs += 1
            d = imgs[i].mul(imgs[j]).dist(cert.assignments[gh])
            if d > defect:
                defect, def_wit = d, [grp.fmt(g), grp.fmt(h), grp.fmt(gh)]
    sep, sep_wit, sep_pairs = None, None, 0
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            sep_pairs += 1
            d = imgs[i].pdist(imgs[j]) if projective else imgs[i].dist(imgs[j])
            if sep is None or d < sep:
                sep, sep_wit = d, [grp.fmt(els[i]), grp.fmt(els[j])]
    passed = not _reference_failed(defect, sep, cert.n, cert.epsilon, exact,
                                   C_.DEFAULT_FLOAT_MARGIN)
    return {"passed": passed, "defect": defect, "defect_witness": def_wit,
            "separation": sep, "separation_witness": sep_wit,
            "pairs_checked": pairs, "separation_pairs": sep_pairs}


def _replace(cert, p, target, family=None):
    assignments = dict(cert.assignments)
    assignments[p] = target
    return C_.ApproxCertificate(cert.group, cert.n, family or cert.family,
                                assignments, epsilon=cert.epsilon)


def _sweep_certificates():
    Z2 = G_.FreeAbelian(2)
    perm = X_.from_quotient(Z2, G_.LatticeHNF(Z2, [(1, 3), (0, 8)]), 1,
                            "sofic")
    yield "permutation", perm
    yield "permutation-mutated", _replace(perm, (1, 0), perm.target((0, 1)))
    # a transposition inside one image: no transitive commutant, row sweep
    moved = list(perm.target((0, -1)).images)
    moved[0], moved[1] = moved[1], moved[0]
    yield "permutation-transposed", _replace(perm, (0, -1),
                                             T_.Permutation(moved))
    cyc = cyclic(3)
    yield "cyclic-nontranslation", _replace(cyc, (1,), T_.CyclicPerm(7, 2))
    hyp = X_.perm_to_hyp(cyclic(8), 2)
    yield "perm-unitary", hyp
    yield "perm-unitary-mutated", _replace(hyp, (2,), hyp.target((-1,)))
    yield "perm-unitary-projective", _replace(hyp, (0,), hyp.target((0,)),
                                              family="hyp-projective")
    m, theta = 9, 0.11
    dense = {p: T_.perm_to_unitary(T_.CyclicPerm(m, p[0]))
             for p in G_.ball(Z, 2)}
    phases = np.eye(m, dtype=complex)
    phases[0, 0] = np.exp(1j * theta)
    dense[(1,)] = T_.UnitaryMatrix(phases @ dense[(1,)].entries, check=False)
    yield "unitary", C_.ApproxCertificate(Z, 2, "hyp", dense)
    lin = X_.perm_to_lin(cyclic(2), T_.FieldFp(2))
    yield "rank", lin
    yield "rank-mutated", _replace(lin, (1,), lin.target((2,)))
    # rank rows of permutation matrices, decided by cycle counts: a
    # regular action, yet no commutant kernel, since a nontrivial element
    # of order m is at rank distance 1 - 1/m
    lin_q = X_.perm_to_lin(cyclic(2), T_.FieldQ())
    yield "rank-projective", _replace(lin_q, (0,), lin_q.target((0,)),
                                      family="lin-projective")
    yield "rank-quotient", X_.from_quotient(
        Z2, G_.LatticeHNF(Z2, [(1, 3), (0, 8)]), 1, "lin")
    fin = X_.exact_finite(G_.FiniteCyclic(5), 2, family="fin")
    yield "finite", fin
    yield "finite-mutated", _replace(fin, 1, fin.target(2))
    tensor = {p: T_.ImplicitTensorUnitary(
        T_.AugmentedUnitary(T_.PermUnitary(t.images), 5), 3)
        for p, t in cyclic(2).assignments.items()}
    yield "tensor", C_.ApproxCertificate(Z, 2, "hyp-projective", tensor)


# the regular actions, and mutations keeping them in the commutant, take
# the commutant kernel; every other certificate takes the row sweep
_KERNEL_CASES = {"permutation", "permutation-mutated", "perm-unitary",
                 "perm-unitary-mutated", "perm-unitary-projective"}
# the unmutated rows that compare exactly on Z^d take the homomorphism
# kernel for condition (1); Z/5 has no mul_array, and mutated rows fail
# the tree check
_HOMOMORPHISM_CASES = {"permutation", "perm-unitary",
                       "perm-unitary-projective", "rank", "rank-projective",
                       "rank-quotient", "tensor"}


@pytest.mark.parametrize("name,cert", [pytest.param(name, cert, id=name)
                                       for name, cert in _sweep_certificates()])
def test_sweep_matches_reference_loop(name, cert):
    rep = C_.verify_D(cert)
    assert C_.TRANSLATION_NOTE not in rep.notes
    assert (C_.COMMUTANT_NOTE in rep.notes) == (name in _KERNEL_CASES)
    assert (C_.HOMOMORPHISM_NOTE in rep.notes) == (
        name in _HOMOMORPHISM_CASES)
    # shifts and dense unitaries are measured object by object
    assert isinstance(cert.rows, T_._ScalarRows) == (
        name in ("cyclic-nontranslation", "unitary"))
    assert _report_fields(rep) == _reference_verify(cert)


def _report_fields(rep):
    """What _reference_verify measures, read from a report."""
    return {"passed": rep.passed, "defect": rep.defect,
            "defect_witness": rep.defect_witness,
            "separation": rep.separation,
            "separation_witness": rep.separation_witness,
            "pairs_checked": rep.pairs_checked,
            "separation_pairs": rep.separation_pairs}


def _quotient_certificates():
    """from_quotient of Z, Z^2 and Heisenberg(1) in each family the
    builder writes, and amplify_projective of the Z one's hyp form."""
    Z2, H = G_.FreeAbelian(2), G_.Heisenberg(1)
    for family in ("sofic", "hyp", "lin", "fin"):
        yield f"Z-{family}", X_.from_quotient(
            Z, G_.LatticeHNF(Z, [(7,)]), 3, family)
        yield f"Z2-{family}", X_.from_quotient(
            Z2, G_.LatticeHNF(Z2, [(5, 0), (0, 5)]), 2, family)
        yield f"H-{family}", X_.from_quotient(H, G_.CongruenceMod(H, 3), 1,
                                              family)
    yield "Z-amplify", X_.amplify_projective(X_.from_quotient(
        Z, G_.LatticeHNF(Z, [(643,)]), 320, "hyp"), 8)


@pytest.mark.parametrize("name,cert", [
    pytest.param(name, cert, id=name)
    for name, cert in _quotient_certificates()])
def test_homomorphism_kernel_matches_reference_loop(name, cert):
    """Certificates through a finite quotient are a homomorphism on B(n):
    the ball-level homomorphism kernel decides condition (1), and the
    report is the double loop's."""
    rep = C_.verify_D(cert)
    assert C_.HOMOMORPHISM_NOTE in rep.notes
    assert _report_fields(rep) == _reference_verify(cert)


def test_homomorphism_kernel_matches_the_sweep_at_a_larger_radius():
    """from_quotient(Z^2, 41 Z^2, 20): the homomorphism kernel's report is
    what the sweep's functions, called directly, measure on its rows."""
    Z2 = G_.FreeAbelian(2)
    cert = X_.from_quotient(Z2, G_.LatticeHNF(Z2, [(41, 0), (0, 41)]), 20,
                            "sofic")
    B = cert.ball
    rep = C_.verify_D(cert)
    assert C_.HOMOMORPHISM_NOTE in rep.notes
    rows = cert.rows.with_kernel([B.index(s) for _, s in Z2.generators()])
    table = B.products()
    assert rows.transitive_commutant
    assert (rep.defect, rep.defect_witness) \
        == rows.max_defect_all(table, Fraction(0)) == (0, None)
    assert rep.pairs_checked == np.count_nonzero(table >= 0)
    sep, (i, j) = rows.min_dist_all()
    assert (rep.separation, rep.separation_witness) \
        == (sep, [Z2.fmt(B.elements[i]), Z2.fmt(B.elements[j])])
    assert rep.separation_pairs == len(B) * (len(B) - 1) // 2


def _along_the_tree(group, n, images):
    """The certificate of B(n) whose identity maps to the identity and
    each other element to its tree parent's image (Ball.tree) times its
    letter's image, ``images`` the permutations of the generator labels:
    the tree check passes whatever the images are."""
    B = G_.ball(group, n)
    parent, letter = B.tree()
    gens = [images[lab] for lab, _ in group.generators()]
    out = [T_.Permutation.identity(gens[0].k)]
    for g in range(1, len(B)):
        out.append(out[parent[g]].mul(gens[letter[g]]))
    return C_.ApproxCertificate(group, n, "sofic", dict(zip(B, out)))


def _falls_through(cert):
    """cert's report is the sweep's, with a nonzero defect, and the
    homomorphism kernel's note is not in it."""
    rep = C_.verify_D(cert)
    assert C_.HOMOMORPHISM_NOTE not in rep.notes
    assert rep.defect > 0
    assert _report_fields(rep) == _reference_verify(cert)


def test_non_commuting_images_fall_through_to_the_sweep():
    """Images of x1 and x2 that do not commute, extended along the tree:
    x_e = e, each x_s^-1 x_s = e and the tree check hold, and only the
    commutator, the relator of Z^2, fails."""
    a, b = T_.Permutation([1, 2, 0, 3]), T_.Permutation([0, 1, 3, 2])
    assert a.mul(b) != b.mul(a)
    cert = _along_the_tree(G_.FreeAbelian(2), 2, {
        "x1": a, "x1^-1": a.inv(), "x2": b, "x2^-1": b.inv()})
    _falls_through(cert)


def test_a_wrong_inverse_image_falls_through_to_the_sweep():
    """x1^-1's image is not the inverse of x1's: Z has no relator, and the
    tree check holds, since every row is built along the tree."""
    a = T_.Permutation([1, 2, 3, 4, 0])
    cert = _along_the_tree(Z, 3, {"x1": a, "x1^-1": a.mul(a)})
    _falls_through(cert)


def test_one_tampered_row_falls_through_to_the_sweep():
    """One row of a quotient certificate replaced by another's fails the
    tree check, whichever row it is, the identity's included."""
    Z2 = G_.FreeAbelian(2)
    cert = X_.from_quotient(Z2, G_.LatticeHNF(Z2, [(7, 0), (0, 7)]), 2,
                            "sofic")
    for p in ((0, 0), (1, 0), (0, -2), (1, -1)):
        _falls_through(_replace(cert, p, cert.target((-1, 1))))


def test_the_lemma_suite_reads_the_defect_of_the_homomorphism_kernel(
        monkeypatch):
    """The lemma suite's epsilon0 comes from the kernel verify_D uses: on
    a quotient certificate no pair of the sweep is measured, and the
    results are those of the sweep."""
    Z2 = G_.FreeAbelian(2)
    cert = X_.from_quotient(Z2, G_.LatticeHNF(Z2, [(9, 0), (0, 9)]), 3,
                            "sofic")
    want = C_.lemma_consistency_suite(cert, seed=5)
    monkeypatch.setattr(C_, "_homomorphism_on", lambda B, rows: False)
    assert C_.lemma_consistency_suite(cert, seed=5) == want
    monkeypatch.undo()

    def no_sweep(*args):
        raise AssertionError("the sweep ran")
    monkeypatch.setattr(T_._PermRows, "max_defect_all", no_sweep)
    monkeypatch.setattr(C_, "_defect_rows", no_sweep)
    assert C_.lemma_consistency_suite(cert, seed=5) == want


def _row_images(kind, perms, shifts):
    k = len(perms[0])
    if kind == "permutation":
        return [T_.Permutation(p) for p in perms]
    if kind == "cyclic-mixed":
        return [T_.CyclicPerm(k, s) if s % 2 else T_.Permutation(p)
                for p, s in zip(perms, shifts)]
    if kind == "perm-unitary":
        return [T_.PermUnitary(p) for p in perms]
    if kind == "unitary-mixed":
        return [T_.perm_to_unitary(T_.Permutation(p)) if s % 2
                else T_.PermUnitary(p) for p, s in zip(perms, shifts)]
    if kind == "perm-rank":
        field = (T_.FieldQ(), T_.FieldFp(2), T_.FieldFp(3))[shifts[0] % 3]
        return [T_.perm_to_rank(T_.Permutation(p), field) for p in perms]
    if kind == "rank":
        # [[1, a], [b, 1 + ab]] has determinant 1
        return [T_.RankMatrix([[1, a], [b, 1 + a * b]], T_.FieldFp(3))
                for a, b in ((s % 3, s // 3 % 3) for s in shifts)]
    group = T_.trivial_metric_group(G_.FiniteSym(3))
    return [group.element(s % 6) for s in shifts]


_PROJECTIVE_KINDS = ("perm-unitary", "unitary-mixed", "rank", "perm-rank")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batch_rows_equal_scalar_extremes(data):
    """take, mul (1 x m, m x 1 and m x m), inv and extreme (plain and
    projective) of the rows give the scalar objects' values, row by row,
    and the first position of the extreme."""
    k = data.draw(st.integers(1, 6))
    count = data.draw(st.integers(1, 6))
    kind = data.draw(st.sampled_from(
        ["permutation", "cyclic-mixed", "perm-unitary", "unitary-mixed",
         "rank", "perm-rank", "finite"]))
    perms = [data.draw(st.permutations(range(k))) for _ in range(count)]
    shifts = [data.draw(st.integers(0, 2 * k + 8)) for _ in range(count)]
    images = _row_images(kind, perms, shifts)
    rows = T_.batch(images)
    if kind == "perm-rank":
        # permutation matrices are rank rows, measured by cycle counts
        assert rows.metric == T_.RANK
    slot = st.integers(0, count - 1)
    i = data.draw(slot)
    m = data.draw(st.integers(1, 6))
    js, ts, us = (data.draw(st.lists(slot, min_size=m, max_size=m))
                  for _ in range(3))
    x = images[i]

    def check(got, want, pick=max, projective=False):
        """got (rows) against want (objects) against images[us], row by
        row, then as one extreme."""
        def measure(a, b):
            return a.pdist(b) if projective else a.dist(b)
        scalar = [measure(w, images[u]) for w, u in zip(want, us)]
        for r, u in enumerate(us):
            assert got.take([r]).extreme(rows.take([u]), max,
                                         projective) == (scalar[r], 0)
        value, r = got.extreme(rows.take(us), pick, projective)
        assert value == pick(scalar) and r == scalar.index(value)

    check(rows.take(js), [images[j] for j in js], min)
    check(rows.take([i]).mul(rows.take(js)),
          [x.mul(images[j]) for j in js])
    check(rows.take(js).mul(rows.take([i])),
          [images[j].mul(x) for j in js], min)
    check(rows.take(js).mul(rows.take(ts)),
          [images[j].mul(images[t]) for j, t in zip(js, ts)])
    check(rows.take(js).inv(), [images[j].inv() for j in js])
    check(rows.take(js).inv().mul(rows.take(ts)),
          [images[j].inv().mul(images[t]) for j, t in zip(js, ts)], min)
    if kind in _PROJECTIVE_KINDS:
        check(rows.take(js).mul(rows.take(ts)),
              [images[j].mul(images[t]) for j, t in zip(js, ts)], min,
              projective=True)
    if m > 1:
        with pytest.raises(ValueError):
            rows.take(js).mul(rows.take(js + js))
        with pytest.raises(ValueError):
            rows.take(js).extreme(rows.take(js + js), max)


# ---------------------------------------------------------------------------
# commutant kernel

def _regular_certificate(data):
    """A left-regular certificate: a quotient of Z, Z^2, Z^3 or
    Heisenberg(1), perm_to_hyp of cyclic_Z, a direct product, or |B| = 1."""
    kind = data.draw(st.sampled_from(
        ["Z", "Z^2", "Z^3", "Heisenberg", "cyclic-hyp", "product", "trivial"]))
    family = data.draw(st.sampled_from(["sofic", "hyp"]))
    if kind == "cyclic-hyp":
        n = data.draw(st.integers(1, 3))
        return X_.perm_to_hyp(X_.cyclic_Z(2 * n * n), n)
    if kind == "trivial":
        return X_.exact_finite(G_.FiniteCyclic(1), 1)
    if kind == "Heisenberg":
        H = G_.Heisenberg(1)
        n = data.draw(st.integers(1, 2))
        m = data.draw(st.integers(3 * n, 3 * n + 2))
        return X_.from_quotient(H, G_.CongruenceMod(H, m), n, family)
    if kind == "product":
        a, b = (X_.from_quotient(Z, G_.LatticeHNF(Z, [(m,)]), 1, family)
                for m in data.draw(st.lists(st.integers(3, 9), min_size=2,
                                            max_size=2)))
        return X_.direct_product(a, b)
    d = {"Z": 1, "Z^2": 2, "Z^3": 3}[kind]
    n = data.draw(st.integers(1, {1: 6, 2: 3, 3: 2}[d]))
    # diagonal entries above 2n keep the kernel off B(2n)
    rows = [tuple(data.draw(st.integers(2 * n + 1, 2 * n + 3)) if j == i
                  else data.draw(st.integers(0, 4)) if j > i else 0
                  for j in range(d)) for i in range(d)]
    G = G_.FreeAbelian(d)
    return X_.from_quotient(G, G_.LatticeHNF(G, rows), n, family)


def _kernel_and_sweep(B, rows, zero):
    """(kernel, row sweep) values and witnesses of both sweeps."""
    table = B.products()
    kernel = (rows.max_defect_all(table, zero), rows.min_dist_all())
    sweep = (C_._defect_rows(table, rows, zero),
             C_._separation_rows(rows, False))
    if rows.metric == T_.HILBERT_SCHMIDT:
        assert C_._separation_rows(rows, True) == sweep[1]
    return kernel, sweep


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_commutant_kernel_matches_row_sweep(data):
    cert = _regular_certificate(data)
    B = G_.ball(cert.group, cert.n)
    perms = [list(getattr(cert.target(p), "perm", cert.target(p)).images)
             for p in B]
    hamming = cert.family == "sofic"
    zero = Fraction(0) if hamming else 0.0
    gens = [B.index(s) for _, s in cert.group.generators()]
    mutation = data.draw(st.sampled_from(
        ["none", "swap", "duplicate", "transposition", "fixed-point"]))
    slot = st.integers(0, len(B) - 1)
    if mutation in ("swap", "duplicate") and len(B) > 1:
        a = data.draw(slot)
        b = data.draw(slot.filter(lambda b: b != a))
        if mutation == "swap":
            perms[a], perms[b] = perms[b], perms[a]
        else:
            perms[a] = perms[b]
    elif mutation == "transposition" and len(perms[0]) > 2:
        a = data.draw(slot)
        x, y = data.draw(st.permutations(range(len(perms[0]))))[:2]
        perms[a][x], perms[a][y] = perms[a][y], perms[a][x]
    elif mutation == "fixed-point":
        perms = [p + [len(p)] for p in perms]
    else:
        mutation = "none"
    images = [T_.Permutation(p) if hamming else T_.PermUnitary(p)
              for p in perms]
    rows = T_.batch(images).with_kernel(gens)
    # images inside the commutant take the kernel, others fall back
    assert rows.transitive_commutant == (
        mutation in ("none", "swap", "duplicate"))
    if rows.transitive_commutant:
        kernel, sweep = _kernel_and_sweep(B, rows, zero)
        assert kernel == sweep
    verified = C_.verify_D(C_.ApproxCertificate(
        cert.group, cert.n, cert.family, dict(zip(B, images))))
    assert (C_.COMMUTANT_NOTE in verified.notes) == rows.transitive_commutant


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_homomorphism_kernel_matches_the_sweep_on_perturbations(data):
    """On a regular certificate, as drawn, or with one row replaced by
    another's or one generator's row by its inverse's, verify_D gives the
    report the sweep alone gives, but for the homomorphism kernel's note,
    which only the unperturbed certificates of Z^d and Heisenberg(1)
    carry: every perturbation falls through."""
    cert = _regular_certificate(data)
    B = cert.ball
    mutation = data.draw(st.sampled_from(["none", "row", "inverse"]))
    if mutation != "none" and len(B) > 2:
        if mutation == "row":
            g = data.draw(st.integers(1, len(B) - 1))
            h = data.draw(st.integers(0, len(B) - 1).filter(
                lambda h: h != g))
            cert = _replace(cert, B.elements[g], cert.target(B.elements[h]))
        else:
            s = data.draw(st.sampled_from(
                [p for _, p in cert.group.generators()]))
            cert = _replace(cert, s, cert.target(cert.group.inv(s)))
    else:
        mutation = "none"
    rep = C_.verify_D(cert)
    with mock.patch.object(C_, "_homomorphism_on", lambda B, rows: False):
        sweep = C_.verify_D(cert)
    assert _fields(rep) == _fields(sweep)
    hom = mutation == "none" and hasattr(cert.group, "mul_array")
    assert rep.notes == sweep.notes + [C_.HOMOMORPHISM_NOTE] * hom
    if not hom and mutation != "none":
        assert rep.defect > 0


def test_commutant_kernel_keeps_applying(monkeypatch):
    """The certificates of the hyp_amplify and verify_received workloads and
    the lemma suite's eps0 verify with the row sweeps switched off."""
    Z2 = G_.FreeAbelian(2)
    hyp = X_.from_quotient(Z, G_.LatticeHNF(Z, [(643,)]), 320, "hyp")
    big = X_.from_quotient(Z2, G_.LatticeHNF(Z2, [(25, 0), (0, 25)]), 12,
                           "sofic")
    small = X_.from_quotient(Z2, G_.LatticeHNF(Z2, [(17, 0), (0, 17)]), 8,
                             "sofic")

    def row_sweep(*args):
        raise AssertionError("the row sweep ran")
    monkeypatch.setattr(C_, "_defect_rows", row_sweep)
    monkeypatch.setattr(C_, "_separation_rows", row_sweep)
    for cert in (hyp, big):
        rep = C_.verify_D(cert)
        assert rep.passed and C_.COMMUTANT_NOTE in rep.notes
    assert C_.lemma_consistency_suite(small)["pass"]


@pytest.mark.parametrize("n, k", [(3, 72), (5, 300)])
def test_interval_witnesses_take_the_commutant_kernel(n, k):
    """folner_to_sofic of an interval of Z sends every element to a power
    of one k-cycle, so its images commute and the kernel applies; a
    rewrite of the commutant derivation must keep this."""
    cert = X_.folner_to_sofic(P_.interval_witness_Z(n))
    rep = C_.verify_D(cert)
    assert cert.dimension == k
    assert rep.passed and C_.COMMUTANT_NOTE in rep.notes


# ---------------------------------------------------------------------------
# word-level certificates

def _hom_Z_mod(m):
    return C_.HomCertificate(Z, {"x1": T_.CyclicPerm(m, 1)}, "sofic")


def test_exact_quotient_hom_passes_W():
    rep = C_.verify_W(_hom_Z_mod(7), 3)
    assert rep.passed
    assert rep.defect == 0


def test_short_order_hom_fails_W():
    # the square of the generator is nontrivial in Z but dies in Z/2
    rep = C_.verify_W(_hom_Z_mod(2), 2)
    assert not rep.passed


def test_verify_R_relator_mode():
    h = C_.HomCertificate(G_.FiniteCyclic(5), {"x": T_.CyclicPerm(5, 1)},
                          "sofic", relators=[("x",) * 5])
    assert C_.verify_R(h, 5).passed


def test_hom_closes_images_through_inverse_payloads():
    """A label without an image takes the inverse of the image of a given
    label whose payload is its inverse; a label with neither is an error."""
    h = C_.HomCertificate(G_.FiniteCyclic(2), {"x": T_.CyclicPerm(2, 1)},
                          "sofic")
    assert h.images == {"x": T_.CyclicPerm(2, 1), "x^-1": T_.CyclicPerm(2, 1)}
    assert C_.verify_W(h, 2).passed
    with pytest.raises(C_.CertificateError, match="'x2'"):
        C_.HomCertificate(G_.FreeAbelian(2), {"x1": T_.CyclicPerm(7, 1)},
                          "sofic")


def test_reduced_words_over_a_self_inverse_generator():
    """On Z/2 the labels x and x^-1 share a payload, yet each is the
    other's formal inverse: the walk takes x x and x^-1 x^-1, the reduced
    words of length 2, and never the unreduced x x^-1."""
    group = G_.FiniteCyclic(2)
    letters = C_._letters(group)
    words, level = [], [()]
    for _ in range(2):
        level = [w + (x,) for w in level for x in range(len(letters))
                 if not w or letters[w[-1]][2] != x]
        words += [" ".join(letters[x][0] for x in w) for w in level]
    assert words == ["x", "x^-1", "x x", "x^-1 x^-1"]
    h = C_.HomCertificate(group, {"x": T_.CyclicPerm(3, 1)}, "sofic")
    assert C_.verify_W(h, 2).notes == ["words checked: 5"]
    # x x lands 1 from the identity and x^-1 x^-1 on it; x x^-1 would
    # land 1 away too, and be the witness
    h = C_.HomCertificate(group, {"x": T_.CyclicPerm(4, 1),
                                  "x^-1": T_.CyclicPerm(4, 2)}, "sofic")
    rep = C_.verify_W(h, 2)
    assert rep.defect == 1 and rep.defect_witness == "x x"


def test_word_cap():
    F2 = G_.Free(2)
    h = C_.HomCertificate(
        F2, {"x1": T_.CyclicPerm(97, 1), "x2": T_.CyclicPerm(97, 10)},
        "sofic")
    with pytest.raises(C_.WordCapExceeded):
        C_.verify_W(h, 12, cap=1000)


def _dfs_verify_words(h, n, cap, margin, relator_mode):
    """Scalar depth-first walk over the reduced words, one word at a time:
    the reference of the block walk in certify._verify_words."""
    grp = h.group
    letters = C_._letters(grp)
    e_t = C_.target_identity_like(next(iter(h.images.values())))
    exact = C_.FAMILIES[h.family].exact
    projective = C_.FAMILIES[h.family].projective
    eps = h.epsilon
    e_g = grp.identity()
    worst_triv, triv_wit = (Fraction(0) if exact else 0.0), None
    worst_sep, sep_wit = None, None
    count = 0
    stack = [((), e_g, e_t, -1)]
    while stack:
        word, g, t, last = stack.pop()
        count += 1
        if count > cap:
            raise C_.WordCapExceeded(f"more than {cap} words at length {n}")
        if word:
            if g == e_g:
                if not relator_mode:
                    d = t.dist(e_t)
                    if d > worst_triv:
                        worst_triv, triv_wit = d, " ".join(word)
            else:
                d = t.pdist(e_t) if projective else t.dist(e_t)
                if worst_sep is None or d < worst_sep:
                    worst_sep, sep_wit = d, " ".join(word)
        if len(word) < n:
            for li, (lab, p, _) in enumerate(letters):
                if last >= 0 and letters[last][2] == li:
                    continue  # immediate cancellation, word not reduced
                stack.append((word + (lab,), grp.mul(g, p),
                              t.mul(h.images[lab]), li))
    notes = []
    if relator_mode:
        for r in h.relators:
            if len(r) > n:
                continue
            d = h.image_of_word(r).dist(e_t)
            if d > worst_triv:
                worst_triv, triv_wit = d, " ".join(r)
        notes.append("relator mode: only relators constrained near identity")
    if worst_sep is None:
        worst_sep = eps if exact else float(eps)
    notes.append(f"words checked: {count}")
    return C_.VerificationReport(
        _reference_failed(worst_triv, worst_sep, n, eps, exact, margin),
        n, eps, worst_triv, triv_wit, worst_sep, sep_wit,
        count, count, margin if not exact else 0.0, notes=notes)


_WORD_GROUPS = {
    "Z": Z, "Z^2": G_.FreeAbelian(2), "Heisenberg(1)": G_.Heisenberg(1),
    "F2": G_.Free(2), "Z/2": G_.FiniteCyclic(2), "Z/3": G_.FiniteCyclic(3),
    "Z/5": G_.FiniteCyclic(5), "Sym(3)": G_.FiniteSym(3),
    "Z x Z/2": G_.DirectProduct(Z, G_.FiniteCyclic(2)),
    "Lamplighter(Z/2)": G_.parse_group("Lamplighter(Z/2)")}

_WORD_KINDS = ("permutation", "perm-unitary", "cyclic", "cyclic-mixed",
               "rank", "fin")


def _random_image(kind, k, rng):
    if kind == "cyclic" or (kind == "cyclic-mixed" and rng.random() < 0.5):
        return T_.CyclicPerm(k, rng.randrange(k))
    perm = list(range(k))
    rng.shuffle(perm)
    if kind == "perm-unitary":
        return T_.PermUnitary(perm)
    if kind == "rank":
        F = T_.FieldFp(3)
        while True:
            rows = [[rng.randrange(3) for _ in range(2)] for _ in range(2)]
            if (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % 3:
                return T_.RankMatrix(rows, F)
    return T_.Permutation(perm)


def _random_hom(group, kind, rng):
    """A hom certificate with random images of one kind (most fail), given
    on one label of each inverse pair, or a regular quotient action of Z
    or Z^2 (which passes at small n)."""
    table = T_.trivial_metric_group(G_.FiniteCyclic(5))
    k = rng.randint(1, 6)
    inverse = C_._inverse_label_map(group)
    images, covered = {}, set()
    for lab, _ in group.generators():
        if lab not in covered:
            covered |= {lab, inverse[lab]}
            images[lab] = table.element(rng.randrange(5)) \
                if kind == "fin" else _random_image(kind, k, rng)
    family = {"perm-unitary": rng.choice(["hyp", "hyp-projective"]),
              "rank": "lin", "fin": "fin"}.get(kind, "sofic")
    return C_.HomCertificate(group, images, family,
                             relators=C_.default_relators(group))


def _regular_hom(d, m, family):
    G = G_.FreeAbelian(d)
    cert = X_.from_quotient(G, G_.LatticeHNF(G, [
        tuple(m if i == j else 0 for j in range(d)) for i in range(d)]),
        1, family)
    return C_.HomCertificate(G, {lab: cert.target(p)
                                 for lab, p in G.generators()}, family,
                             relators=C_.default_relators(G))


def _row_width(h):
    """The entries of one row of h's images, by which the walk sizes its
    blocks."""
    return T_.batch(list(h.images.values())).width


def _walked(h, n, relator_mode=False):
    """The report of the word walk alone, without the homomorphism kernel
    in front of it."""
    with mock.patch.object(C_, "_homomorphism_kernel", lambda *_: None):
        return C_._verify_words(h, n, C_.DEFAULT_WORD_CAP,
                                C_.DEFAULT_FLOAT_MARGIN, relator_mode)


def _same_reports(h, n):
    """The walk reports what the depth-first reference reports, and so does
    verify_W (verify_R), but for the note of the homomorphism kernel when
    that measured the words. A group with no written presentation has no
    relators to constrain, and relator mode refuses it."""
    for verify, relator_mode in ((C_.verify_W, False), (C_.verify_R, True)):
        if relator_mode and h.relators is None:
            with pytest.raises(C_.CertificateError, match=re.escape(
                    f"no presentation of {h.group!r}")):
                verify(h, n)
            continue
        want = _dfs_verify_words(h, n, C_.DEFAULT_WORD_CAP,
                                 C_.DEFAULT_FLOAT_MARGIN,
                                 relator_mode).to_json()
        assert _walked(h, n, relator_mode).to_json() == want
        got = verify(h, n).to_json()
        if C_.HOMOMORPHISM_NOTE in got["notes"]:
            got["notes"].remove(C_.HOMOMORPHISM_NOTE)
        assert got == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_word_walk_matches_dfs(data):
    """The block walk reports what the scalar depth-first walk reports,
    witnesses included, over every image kind and block size."""
    name = data.draw(st.sampled_from(sorted(_WORD_GROUPS)))
    kind = data.draw(st.sampled_from(_WORD_KINDS))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    group = _WORD_GROUPS[name]
    regular = name in ("Z", "Z^2") and data.draw(st.booleans())
    h = _regular_hom(group.d, rng.randint(3, 5), rng.choice(["sofic", "hyp"])) \
        if regular else _random_hom(group, kind, rng)
    n = data.draw(st.integers(1, 3 if kind == "rank" else 5))
    rows = data.draw(st.sampled_from([None, 1, 5, 7]))
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(G_, "BLOCK", rows * _row_width(h))
        _same_reports(h, n)


@pytest.mark.parametrize("rows", [1, 5])
def test_word_walk_across_block_edges(monkeypatch, rows):
    """Blocks of 1 and 5 rows put ties on block edges; the witnesses stay
    the first words in depth-first pre-order."""
    rng = random.Random(rows)
    homs = [_regular_hom(2, 17, "sofic"), _regular_hom(1, 3, "hyp")]
    for name in ("Z", "F2", "Sym(3)", "Heisenberg(1)"):
        for kind in ("permutation", "perm-unitary", "cyclic-mixed"):
            homs.append(_random_hom(_WORD_GROUPS[name], kind, rng))
    failing = 0
    for h in homs:
        monkeypatch.setattr(G_, "BLOCK", rows * _row_width(h))
        _same_reports(h, 4)
        failing += not C_.verify_W(h, 4).passed
    assert failing >= len(homs) // 2


def _tensor_hom(m, power):
    """Z^2 by the shifts of (Z/m)^2 as permutation unitaries u, each image
    (u (+) I_(m^2))^(tensor power)."""
    def shift(dx, dy):
        return T_.PermUnitary([((i // m + dx) % m) * m + (i % m + dy) % m
                               for i in range(m * m)])
    Z2 = G_.FreeAbelian(2)
    return C_.HomCertificate(Z2, {
        "x1": T_.ImplicitTensorUnitary(T_.AugmentedUnitary(shift(1, 0),
                                                           m * m), power),
        "x2": T_.ImplicitTensorUnitary(T_.AugmentedUnitary(shift(0, 1),
                                                           m * m), power)},
        "hyp-projective", relators=C_.default_relators(Z2))


@pytest.mark.parametrize("m,power", [(3, 2), (5, 3), (5, 10 ** 6)])
def test_tensor_word_walk_blocks_by_the_base_degree(monkeypatch, m, power):
    """A tensor image's row is its base's image row, so a block holds
    about G_.BLOCK / m^2 words, not one; the report bytes are those of the
    scalar depth-first walk, and of blocks of 1 and 5 rows."""
    h = _tensor_hom(m, power)
    assert _row_width(h) == m * m
    extreme, calls = T_._PermRows.extreme, []

    def counted(self, *args, **kwargs):
        calls.append(len(self))
        return extreme(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T_._PermRows, "extreme", counted)
        want = json.dumps(_walked(h, 4).to_json())
    # one block per length, each measured for trivial and nontrivial words
    assert len(calls) <= 2 * 4 and sum(calls) == 160
    _same_reports(h, 4)
    for rows in (1, 5):
        monkeypatch.setattr(G_, "BLOCK", rows * m * m)
        assert json.dumps(_walked(h, 4).to_json()) == want
        _same_reports(h, 4)


class _NoRows:
    """A group seen without its coordinate form (mul_array), so that the
    word walk takes its scalar path."""

    def __init__(self, group):
        self._group = group

    def __getattr__(self, name):
        if name == "mul_array":
            raise AttributeError(name)
        return getattr(self._group, name)


def _walk_reports(h, n):
    return [json.dumps(_walked(h, n, relator_mode).to_json())
            for relator_mode in (False, True)]


def _heisenberg_hom(m):
    """Heisenberg(1) by its action on itself mod m, a fin hom certificate
    that passes at small n."""
    H = G_.Heisenberg(1)
    cert = X_.from_quotient(H, G_.CongruenceMod(H, m), 1, "fin")
    return C_.HomCertificate(H, {lab: cert.target(p)
                                 for lab, p in H.generators()}, "fin",
                             relators=C_.default_relators(H))


@pytest.mark.parametrize("name", ["Z^2", "Heisenberg(1)"])
def test_word_walk_on_coordinate_rows(name):
    """On Z^2 and Heisenberg(1) the walk multiplies coordinate rows with
    mul_array and never calls mul, and reports what the scalar path and
    the depth-first reference report, witnesses included: in blocks of 1
    row, of 4 rows (every length's words, 4 * 3^(l-1), fill whole blocks),
    of 5 rows, and the default."""
    group = _WORD_GROUPS[name]
    rng = random.Random(len(name))
    homs = [_regular_hom(2, 11, "sofic") if name == "Z^2"
            else _heisenberg_hom(7)]
    homs += [_random_hom(group, kind, rng)
             for kind in ("permutation", "perm-unitary", "fin")]
    elements = C_._word_elements
    for h in homs:
        want = []
        for rows in (1, 4, 5, None):
            with pytest.MonkeyPatch.context() as mp:
                if rows is not None:
                    mp.setattr(G_, "BLOCK", rows * _row_width(h))
                mp.setattr(C_, "_word_elements", lambda group, letters:
                           elements(_NoRows(group), letters))
                scalar = _walk_reports(h, 5)
                mp.undo()
                if rows is not None:
                    mp.setattr(G_, "BLOCK", rows * _row_width(h))

                def product(*args):
                    raise AssertionError("a group product was computed")
                mp.setattr(type(group), "mul", product)
                assert _walk_reports(h, 5) == scalar, rows
                want.append(scalar)
        assert want.count(want[0]) == len(want)
        _same_reports(h, 5)
    assert C_.verify_W(homs[0], 5).passed


def test_word_walk_measures_the_trivial_words_of_heisenberg():
    """Words of length 10 include the relators [x1, [x1, y1]] and
    [y1, [x1, y1]]: a random image of Heisenberg(1) is measured on them,
    its defect witness a word trivial in the group, the same word on
    coordinate rows and on the scalar path."""
    H = G_.Heisenberg(1)
    h = C_.HomCertificate(H, {"x1": T_.Permutation([1, 2, 0, 4, 3]),
                              "y1": T_.Permutation([0, 2, 3, 4, 1])}, "sofic")
    rows = C_.verify_W(h, 10)
    assert rows.defect > 0 and len(rows.defect_witness.split()) == 10
    word = rows.defect_witness.split()
    g = H.identity()
    for lab in word:
        g = H.mul(g, dict(H.generators())[lab])
    assert g == H.identity()
    with pytest.MonkeyPatch.context() as mp:
        elements = C_._word_elements
        mp.setattr(C_, "_word_elements", lambda group, letters:
                   elements(_NoRows(group), letters))
        assert C_.verify_W(h, 10).to_json() == rows.to_json()
    # a homomorphism sends them, and the default relators, to the identity
    hom = _heisenberg_hom(7)
    assert {len(r) for r in hom.relators} == {10}
    assert C_.verify_W(hom, 10).defect == C_.verify_R(hom, 10).defect == 0


@pytest.mark.parametrize("group", [G_.Free(2), G_.FiniteCyclic(5)],
                         ids=["F2", "Z/5"])
def test_word_walk_without_coordinate_rows_keeps_payloads(group):
    """A group without mul_array walks a list of payloads, one mul per
    word, and reports what the depth-first reference reports."""
    assert not hasattr(group, "mul_array")
    root, children, trivial = C_._word_elements(group, C_._letters(group))
    assert root == [group.identity()]
    kids = children(root, np.array([0, 0]), np.array([0, 1]))
    assert kids == [p for _, p in group.generators()[:2]]
    assert trivial(kids).tolist() == [False, False]
    h = _random_hom(group, "permutation", random.Random(3))
    _same_reports(h, 4)


def test_presentations_of_the_catalog_groups():
    """Z^d, Heisenberg(1), Z/m and F_r write a presentation down (F_r's
    has no relator); Heisenberg(2), Sym(n) and products write none, and
    default_relators reads the group's."""
    assert G_.FreeAbelian(3).presentation() == [
        ("x1", "x2", "x1^-1", "x2^-1"), ("x1", "x3", "x1^-1", "x3^-1"),
        ("x2", "x3", "x2^-1", "x3^-1")]
    assert Z.presentation() == []
    comm, comm_inv = ("x1", "y1", "x1^-1", "y1^-1"), ("y1", "x1", "y1^-1",
                                                       "x1^-1")
    assert G_.Heisenberg(1).presentation() == [
        ("x1",) + comm + ("x1^-1",) + comm_inv,
        ("y1",) + comm + ("y1^-1",) + comm_inv]
    assert G_.FiniteCyclic(3).presentation() == [("x", "x", "x")]
    assert G_.FiniteCyclic(1).presentation() == [("x",)]
    assert G_.Free(2).presentation() == []
    for name in ("Heisenberg(2)", "Sym(3)", "Lamplighter(Z/2)"):
        assert G_.parse_group(name).presentation() is None
    assert G_.DirectProduct(Z, G_.FiniteCyclic(2)).presentation() is None
    for group in (G_.FreeAbelian(2), G_.Heisenberg(1), G_.Heisenberg(2)):
        assert C_.default_relators(group) == group.presentation()


def test_relators_are_the_groups_presentation():
    """A certificate's relators are its group's presentation: any other
    list, given or decoded, is refused, and a group with no written
    presentation writes null, which relator mode refuses."""
    Z2, H2 = G_.FreeAbelian(2), G_.Heisenberg(2)
    images = {"x1": T_.Permutation([1, 0, 2]), "x2": T_.Permutation([0, 2, 1])}
    h = C_.HomCertificate(Z2, images, "sofic")
    assert h.relators == Z2.presentation()
    assert h.to_json()["relators"] == [["x1", "x2", "x1^-1", "x2^-1"]]
    for relators in ([], [("x1", "x2")]):
        with pytest.raises(C_.CertificateError,
                           match=re.escape("presentation of Z^2")):
            C_.HomCertificate(Z2, images, "sofic", relators=relators)
    for relators in ([], None, [["x2", "x1", "x2^-1", "x1^-1"]]):
        obj = h.to_json()
        obj["relators"] = relators
        with pytest.raises(C_.CertificateError,
                           match=re.escape("presentation of Z^2")):
            C_.HomCertificate.from_json(obj)
    # a free group has no relator, written [] and nothing else
    free = C_.HomCertificate(G_.Free(2), images, "sofic").to_json()
    assert free["relators"] == []
    for relators in ({}, None, ""):
        with pytest.raises(C_.CertificateError, match="presentation of F2"):
            C_.HomCertificate.from_json(dict(free, relators=relators))
    h2 = C_.HomCertificate(H2, {lab: T_.Permutation([1, 2, 0]) for lab in
                                ("x1", "y1", "x2", "y2")}, "sofic")
    obj = h2.to_json()
    assert h2.relators is None and obj["relators"] is None
    assert C_.HomCertificate.from_json(obj).relators is None
    obj["relators"] = []
    with pytest.raises(C_.CertificateError, match=re.escape(
            "presentation of Heisenberg(2), null")):
        C_.HomCertificate.from_json(obj)
    with pytest.raises(C_.CertificateError, match=re.escape(
            "no presentation of Heisenberg(2)")):
        C_.verify_R(h2, 2)
    assert C_.verify_W(h2, 2).notes == ["words checked: 65"]


def _kernel_case(name, kind, m, power, change, rng):
    """A word-level certificate of a regular quotient action of the group
    (construct.from_quotient) with images of ``kind``, one generator image
    swapped on two points when ``change`` is "perturbed", and an x^-1 image
    that is not the inverse of the x image when it is "bad-inverse"."""
    group = _WORD_GROUPS[name]
    Q = G_.CongruenceMod(group, m) if name == "Heisenberg(1)" \
        else G_.LatticeHNF(group, [tuple(m if i == j else 0
                                         for j in range(group.d))
                                   for i in range(group.d)])
    cert = X_.from_quotient(group, Q, 1, "fin" if kind == "fin" else "sofic")
    base = {lab: cert.target(p) for lab, p in group.generators()
            if not lab.endswith("^-1")}

    def bent(t):
        if kind == "fin":
            shift = rng.randrange(1, t.group.order)
            return t.group.element((t.index + shift) % t.group.order)
        i, j = rng.sample(range(t.k), 2)
        images = list(t.images)
        images[i], images[j] = images[j], images[i]
        return T_.Permutation(images)

    labels = sorted(base)
    if change == "perturbed":
        lab = rng.choice(labels)
        base[lab] = bent(base[lab])
    elif change == "bad-inverse":
        lab = rng.choice(labels)
        base[lab + "^-1"] = bent(base[lab].inv())

    def as_kind(t):
        if kind == "perm-unitary":
            return T_.PermUnitary(t)
        if kind == "tensor":
            return T_.ImplicitTensorUnitary(
                T_.AugmentedUnitary(T_.PermUnitary(t), t.k), power)
        if kind == "rank":
            return T_.perm_to_rank(t, T_.FieldQ())
        return t
    family = {"perm": "sofic", "perm-unitary": rng.choice(["hyp",
                                                          "hyp-projective"]),
              "tensor": "hyp-projective", "rank": "lin", "fin": "fin"}[kind]
    return C_.HomCertificate(group, {lab: as_kind(t) for lab, t in
                                     base.items()}, family)


def _is_hom(h):
    """Whether the images satisfy the group's presentation and each x^-1
    image is the inverse of the x image, read from the target objects."""
    def trivial(word):
        t = h.image_of_word(word)
        return t.dist(C_.target_identity_like(t)) == 0
    pairs = C_._inverse_label_map(h.group).items()
    return all(map(trivial, pairs)) and all(map(trivial, h.relators))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_homomorphism_kernel_agrees_with_the_walk(data):
    """On Z, Z^2 and Heisenberg(1), images of a regular quotient action
    as permutations, permutation unitaries, tensor powers of them, rank
    permutation matrices and table elements take the homomorphism kernel,
    and its reports are the walk's but for the kernel's note. A perturbed
    image that breaks a relator, and an x^-1 image that is not the inverse
    of the x image, fall through: the kernel returns None and the report
    is the walk's, note-free."""
    name = data.draw(st.sampled_from(["Z", "Z^2", "Heisenberg(1)"]))
    kind = data.draw(st.sampled_from(["perm", "perm-unitary", "tensor",
                                      "rank", "fin"]))
    m = data.draw(st.integers(3, 4 if name == "Heisenberg(1)" else 6))
    power = data.draw(st.sampled_from([1, 3, 10 ** 6]))
    change = data.draw(st.sampled_from([None, "perturbed", "bad-inverse"]))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    h = _kernel_case(name, kind, m, power, change, rng)
    n = data.draw(st.integers(1, 4))
    hom = _is_hom(h)
    if change is None or name == "Z" and change == "perturbed":
        # Z has no relator, so a perturbed image of Z is still one
        assert hom
    elif change == "bad-inverse":
        assert not hom
    letters = C_._letters(h.group)
    measured = C_._homomorphism_kernel(h, n, letters, C_.DEFAULT_WORD_CAP,
                                       False)
    assert (measured is not None) == hom
    for verify, relator_mode in ((C_.verify_W, False), (C_.verify_R, True)):
        got = verify(h, n).to_json()
        assert (C_.HOMOMORPHISM_NOTE in got["notes"]) == hom
        if hom:
            got["notes"].remove(C_.HOMOMORPHISM_NOTE)
        assert got == _walked(h, n, relator_mode).to_json()


def test_kernel_needs_both_relators_of_heisenberg():
    """In Sym(3) a 3-cycle c and a transposition t commute with their
    commutator [c, t] = c t c^-1 t^-1 on one side only: x1 = c, y1 = t
    satisfy [x1, [x1, y1]] but not [y1, [x1, y1]], and x1 = t, y1 = c the
    other way round. So neither pair defines a homomorphism of
    Heisenberg(1), yet each would pass the kernel's check if the relator
    it breaks were left out of the presentation. The kernel declines both,
    and the walk finds the broken relator at length 10."""
    H = G_.Heisenberg(1)
    c, t = T_.Permutation([1, 2, 0]), T_.Permutation([0, 2, 1])
    comm, comm_inv = ("x1", "y1", "x1^-1", "y1^-1"), ("y1", "x1", "y1^-1",
                                                       "x1^-1")
    rel_x = ("x1",) + comm + ("x1^-1",) + comm_inv
    rel_y = ("y1",) + comm + ("y1^-1",) + comm_inv
    e = T_.Permutation.identity(3)
    for x1, y1, kept, broken in ((c, t, rel_x, rel_y), (t, c, rel_y, rel_x)):
        h = C_.HomCertificate(H, {"x1": x1, "y1": y1}, "sofic")
        assert h.image_of_word(kept) == e and h.image_of_word(broken) != e
        assert C_._homomorphism_kernel(h, 10, C_._letters(H),
                                       C_.DEFAULT_WORD_CAP, False) is None
        for verify, relator_mode in ((C_.verify_W, False),
                                     (C_.verify_R, True)):
            rep = verify(h, 10)
            assert "defect" in rep.failed and rep.defect > 0
            assert C_.HOMOMORPHISM_NOTE not in rep.notes
            assert rep.to_json() == _walked(h, 10, relator_mode).to_json()
        assert C_.verify_R(h, 10).defect_witness == " ".join(broken)


def test_homomorphism_kernel_measures_no_word_image(monkeypatch):
    """The kernel reads B(n)'s images once, one level of the ball at a
    time, and multiplies or measures no image row per word: the
    verify_received benchmark's certificate, Z^2 on Z^2/17Z^2, at n = 8
    (13,121 words, |B(8)| = 145) computes the distances of 9 levels and
    the products of its generators, relator and levels only."""
    Z2 = G_.FreeAbelian(2)
    small = X_.from_quotient(Z2, G_.LatticeHNF(Z2, [(17, 0), (0, 17)]), 1,
                             "sofic")
    h = C_.HomCertificate(Z2, {lab: small.target(p)
                               for lab, p in Z2.generators()}, "sofic")
    calls = collections.Counter()
    rows = T_._PermRows
    for method in ("mul", "distances", "extreme"):
        def counted(self, *args, method=method,
                    original=getattr(rows, method)):
            calls[method] += 1
            return original(self, *args)
        monkeypatch.setattr(rows, method, counted)
    rep = C_.verify_W(h, 8)
    assert rep.notes == ["words checked: 13121", C_.HOMOMORPHISM_NOTE]
    assert rep.separation == 1 and rep.separation_witness == "x2^-1"
    # x^-1 x, the commutator's three products, one product per level
    assert calls == {"mul": 1 + 3 + 8, "distances": 9}


@pytest.mark.parametrize("lost", ["level", "word"])
def test_homomorphism_kernel_fails_loudly_on_a_lost_element(monkeypatch,
                                                           lost):
    """Every product the kernel looks up lies in B(n): a lookup that loses
    an element, while the ball's spanning tree that orders the levels is
    built (Ball.tree) or while the words are read, is a fault and raises,
    instead of handing the words to the walk."""
    h = _regular_hom(2, 5, "sofic")
    slots = G_.Ball.slots
    n = 3
    B = G_.ball(h.group, n)
    if lost == "level":
        # the tree is built again, and loses the identity, the parent of
        # every generator; a nontrivial word never looks it up
        monkeypatch.setattr(B, "_tree", None)
    else:
        # the tree is built first, and the words lose the last element
        B.tree()

    def losing(self, R):
        at = slots(self, R)
        at[at == (0 if lost == "level" else len(self) - 1)] = -1
        return at
    monkeypatch.setattr(G_.Ball, "slots", losing)
    with pytest.raises(AssertionError):
        C_.verify_W(h, n)


def test_homomorphism_kernel_builds_the_ball_in_blocks(monkeypatch):
    """The kernel multiplies and measures images in blocks of about
    G_.BLOCK entries, as the walk does, so no level of B(n) is held
    whole: Heisenberg(1) on its quotient mod 3 (k = 27) at n = 6, whose
    largest level has 294 elements, in blocks of 3 rows reports what it
    reports in one block per level, with no call on more than 4 rows
    (the four letters' inverse check)."""
    H = G_.Heisenberg(1)
    cert = X_.from_quotient(H, G_.CongruenceMod(H, 3), 1, "sofic")
    h = C_.HomCertificate(H, {lab: cert.target(p)
                              for lab, p in H.generators()}, "sofic")
    assert max(G_.ball(H, 6)._sizes) == 294
    want = C_.verify_W(h, 6).to_json()
    assert C_.HOMOMORPHISM_NOTE in want["notes"]
    sizes = {"mul": [], "distances": []}
    rows = T_._PermRows
    for method in sizes:
        def counted(self, *args, method=method,
                    original=getattr(rows, method)):
            sizes[method].append(len(self))
            return original(self, *args)
        monkeypatch.setattr(rows, method, counted)
    monkeypatch.setattr(G_, "BLOCK", 3 * 27)
    assert C_.verify_W(h, 6).to_json() == want
    assert max(sizes["mul"] + sizes["distances"]) == 4
    # every element's distance is read once, at most 3 at a time
    assert sum(sizes["distances"]) == len(G_.ball(H, 6)) == 593
    assert max(sizes["distances"]) == 3


def test_word_cap_is_counted_before_any_product(monkeypatch):
    """The cap trips at the word count where the depth-first walk trips,
    with its message, and before any word is multiplied."""
    h = C_.HomCertificate(G_.Free(2), {"x1": T_.Permutation([1, 0]),
                                       "x2": T_.Permutation([0, 1])}, "sofic")

    def outcome(walk, n, cap):
        try:
            return walk(h, n, cap, C_.DEFAULT_FLOAT_MARGIN, False).to_json()
        except C_.WordCapExceeded as e:
            return str(e)
    # 1 + 4 (1 + 3 + ... + 3^(n-1)) words: 161 at n = 4, 485 at n = 5
    for n, words in ((4, 161), (5, 485)):
        # 5 and 17 are the counts up to lengths 1 and 2
        for cap in (0, 5, 17, words - 1, words):
            assert outcome(C_._verify_words, n, cap) == \
                outcome(_dfs_verify_words, n, cap)
        assert outcome(C_._verify_words, n, words - 1) == \
            f"more than {words - 1} words at length {n}"

    def product(*args):
        raise AssertionError("a word was multiplied")
    monkeypatch.setattr(T_.Permutation, "mul", product)
    monkeypatch.setattr(G_.Free, "mul", product)
    with pytest.raises(C_.WordCapExceeded):
        C_.verify_W(h, 40)


def test_geodesic_words():
    w = C_.geodesic_words(Z, 3)
    assert w[(3,)] == ("x1", "x1", "x1")
    assert w[(-2,)] == ("x1^-1", "x1^-1")
    w2 = C_.geodesic_words(G_.FreeAbelian(2), 2)
    assert len(w2[(1, -1)]) == 2


def test_D_from_W_round_trip():
    cert = C_.D_from_W(_hom_Z_mod(19), 3)
    assert cert.n == 3 and cert.dimension == 19
    assert C_.verify_D(cert).passed


def test_D_from_W_pairs_formal_inverses_over_a_self_inverse_generator():
    """Over Z/2 x Z, whose Z/2 labels L.x and L.x^-1 share a payload, the
    word of g^-1 is the formal inverse of the word of g: L.x turns into
    L.x^-1. The images of L.x and L.x^-1 differ on two of 100 points, so
    the pairing shows in the images."""
    k = 100
    shift = T_.Permutation([(i + 1) % k for i in range(k)])
    half = T_.Permutation([(i + k // 2) % k for i in range(k)])
    swap = T_.Permutation([1, 0, *range(2, k)])
    G = G_.DirectProduct(G_.FiniteCyclic(2), Z)
    h = C_.HomCertificate(G, {"L.x": half, "L.x^-1": half.mul(swap),
                              "R.x1": shift}, "sofic")
    cert = C_.D_from_W(h, 2)

    def formal(word):
        return tuple(lab[:-3] if lab.endswith("^-1") else lab + "^-1"
                     for lab in reversed(word))

    words, chosen = C_.geodesic_words(G, 2), {}
    for g in cert.ball:
        if g not in chosen:
            chosen[g] = words[g]
            chosen.setdefault(G.inv(g), formal(words[g]))
    assert any("L.x^-1" in w for w in chosen.values())
    for g, w in chosen.items():
        assert cert.target(g) == h.image_of_word(w)
    # the first-label pairing would have given some element another image
    assert any(cert.target(g) != h.image_of_word(
        [lab.replace("L.x^-1", "L.x") for lab in w])
        for g, w in chosen.items())


def test_W_from_D_round_trip():
    m = 2
    h = C_.W_from_D(cyclic(3 * m * m), m)
    assert C_.verify_W(h, m).passed


def test_W_from_D_of_tensor_images_states_base_and_power():
    """A word-level certificate of tensor images writes its dimension 14^3
    as {"base": 14, "power": 3}, as a ball certificate does, and reads and
    verifies it back without computing 14^3."""
    c = C_.ApproxCertificate(Z, 3, "hyp-projective", {
        p: T_.ImplicitTensorUnitary(T_.AugmentedUnitary(
            T_.PermUnitary(T_.CyclicPerm(7, p[0]).images), 7), 3)
        for p in G_.ball(Z, 3)})
    obj = C_.W_from_D(c, 1).to_json()
    assert obj["dimension"] == c.to_json()["dimension"] \
        == {"base": 14, "power": 3}
    assert C_.verify_W(C_.HomCertificate.from_json(obj), 2).passed


def test_W_from_D_needs_large_radius():
    with pytest.raises(C_.UpstreamVerificationError):
        C_.W_from_D(cyclic(3), 2)


# ---------------------------------------------------------------------------
# the family table

def test_family_epsilon_values():
    assert C_.FAMILIES["sofic"].epsilon == 1
    assert C_.FAMILIES["lin"].epsilon == Fraction(1, 4)
    assert C_.FAMILIES["lin-projective"].epsilon == Fraction(1, 8)
    assert C_.FAMILIES["hyp"].epsilon == math.sqrt(2)
    assert C_.FAMILIES["fin"].epsilon == 1
    with pytest.raises(C_.CertificateError):
        C_.family_record("mystery")


# the image of x1 on Z: a scalar multiple of the identity (i and 2), so
# that every nontrivial word is projectively at 0 and plainly away from it
_SCALAR_UNITARY = T_.UnitaryMatrix(np.array([[1j]]))
_SCALAR_RANK = T_.RankMatrix([[2, 0], [0, 2]], T_.FieldQ())

# each family: its epsilon, whether it is exact, and the image of x1 on Z;
# the projective families, and their plain twins, take a scalar image,
# whose nontrivial words are at another plain than projective distance
_FAMILY_CASES = {
    "sofic": (1, True, T_.CyclicPerm(5, 2)),
    "hyp": (math.sqrt(2), False, _SCALAR_UNITARY),
    "hyp-projective": (math.sqrt(2), False, _SCALAR_UNITARY),
    "lin": (Fraction(1, 4), True, _SCALAR_RANK),
    "lin-projective": (Fraction(1, 8), True, _SCALAR_RANK),
    "fin": (1, True, T_.trivial_metric_group(G_.FiniteCyclic(5)).element(2)),
}


@pytest.mark.parametrize("family", C_.FAMILIES)
def test_the_word_walk_measures_each_family_as_its_record_says(family):
    """Each FAMILIES record's epsilon and exactness, and verify_W's
    separation, the least distance of a nontrivial word's image from the
    identity, measured by scalar pdist for a projective family and dist
    otherwise. A family without a case fails here."""
    epsilon, exact, image = _FAMILY_CASES[family]
    record = C_.FAMILIES[family]
    assert (record.epsilon, record.exact) == (epsilon, exact)
    h = C_.HomCertificate(Z, {"x1": image}, family)
    n = 3
    e_t = C_.target_identity_like(image)
    words = [(lab,) * j for lab in ("x1", "x1^-1") for j in range(1, n + 1)]
    measure = (lambda t: t.pdist(e_t)) if record.projective \
        else (lambda t: t.dist(e_t))
    want = min(measure(h.image_of_word(w)) for w in words)
    assert C_.verify_W(h, n).separation == want
    if record.projective:
        assert want == 0 < min(h.image_of_word(w).dist(e_t) for w in words)


# x1 of Z to a scalar, projectively the identity: (family, image, n,
# epsilon); condition (2) fails projectively and holds plainly
_PROJECTIVE_SCALARS = {
    "lin-projective": ("lin-projective", _SCALAR_RANK, 4, 0.5),
    "hyp-projective": ("hyp-projective", _SCALAR_UNITARY, 1, 1.0),
}


@pytest.mark.parametrize("case", _PROJECTIVE_SCALARS)
def test_word_and_ball_verifiers_agree_on_projective_scalars(case):
    """verify_W measures condition (2) of a projective family in the
    projective metric, as verify_D does: both fail the same map with
    separation 0."""
    family, image, n, epsilon = _PROJECTIVE_SCALARS[case]
    h = C_.HomCertificate(Z, {"x1": image}, family, epsilon=epsilon)
    c = C_.ApproxCertificate(
        Z, n, family, {p: h.image_of_word(("x1",) * p[0] if p[0] >= 0
                                          else ("x1^-1",) * -p[0])
                       for p in G_.ball(Z, n)}, epsilon=epsilon)
    for rep in (C_.verify_W(h, n), C_.verify_R(h, n), C_.verify_D(c)):
        assert rep.failed == ("separation",)
        assert rep.separation == 0


# ---------------------------------------------------------------------------
# approximate-homomorphism lemma suite

def test_lemma_suite_reads_group_products_from_the_ball(monkeypatch):
    """Once the ball and its product table exist, the suite multiplies no
    group elements: Sym(3) has no coordinate form, so its table is built
    with FiniteSym.mul, which is then switched off."""
    cert = X_.exact_finite(G_.FiniteSym(3), 2)
    G_.ball(cert.group, cert.n).products()

    def product(*args):
        raise AssertionError("a group product was computed")
    monkeypatch.setattr(G_.FiniteSym, "mul", product)
    assert C_.lemma_consistency_suite(cert, seed=1)["tuples_checked"] == 200


def test_lemma_suite_on_exact_certificate():
    out = C_.lemma_consistency_suite(cyclic(6), max_len=4, samples=100)
    assert out["pass"]
    assert out["epsilon0"] <= Fraction(1, 10 ** 11)


def test_lemma_suite_perturbed_unitary_known_defect():
    m = 9
    theta = 0.11
    base = {p: T_.perm_to_unitary(T_.CyclicPerm(m, p[0]))
            for p in G_.ball(Z, 2)}
    # multiply the generator image by a one-entry diagonal phase; the worst
    # defect pair is generator*generator, where the two phases land on
    # distinct diagonal positions
    phases = np.eye(m, dtype=complex)
    phases[0, 0] = np.exp(1j * theta)
    base[(1,)] = T_.UnitaryMatrix(phases @ base[(1,)].entries, check=False)
    cert = C_.ApproxCertificate(Z, 2, "hyp", base)
    B = G_.ball(Z, 2)
    measured = 0.0
    for g in B:
        for h in B:
            gh = Z.mul(g, h)
            if gh in B:
                measured = max(measured,
                               base[g].mul(base[h]).dist(base[gh]))
    expected = 2.0 * math.sqrt(1.0 - math.cos(theta)) / math.sqrt(m)
    assert abs(measured - expected) < 1e-9
    out = C_.lemma_consistency_suite(cert, max_len=3, samples=80, seed=1)
    assert out["pass"]
    assert abs(float(out["epsilon0"]) - measured) < 1e-6


def test_lemma_suite_bound_shapes():
    out = C_.lemma_consistency_suite(cyclic(8), max_len=4, samples=60, seed=3)
    for key in ("identity", "inverses", "products", "signed_factors",
                "signed_products"):
        assert out[key]["pass"], key
    assert out["tuples_checked"] > 0


def _scalar_lemma_suite(cert, max_len, samples, seed):
    """The lemma suite over group elements and scalar mul/dist, sign
    patterns enumerated per tuple: the reference of
    certify.lemma_consistency_suite."""
    grp = cert.group
    B = G_.ball(grp, cert.n)
    targets = cert.assignments
    exact = C_.FAMILIES[cert.family].exact
    e_t = C_.target_identity_like(next(iter(targets.values())))
    e_g = grp.identity()
    eps0 = (Fraction(0) if exact else 0.0)
    for g in B:
        for h in B:
            gh = grp.mul(g, h)
            if gh in B:
                eps0 = max(eps0, targets[g].mul(targets[h]).dist(targets[gh]))
    eps0 = eps0 + Fraction(1, 10 ** 12) if exact else float(eps0) + 1e-12
    results = {}
    d1 = targets[e_g].dist(e_t)
    results["identity"] = {"value": d1, "bound": eps0, "pass": d1 < eps0}
    worst2 = max(targets[grp.inv(g)].dist(targets[g].inv()) for g in B)
    results["inverses"] = {"value": worst2, "bound": 2 * eps0,
                           "pass": worst2 < 2 * eps0}

    def admissible(tup):
        for signs in itertools.product((1, -1), repeat=len(tup)):
            g = e_g
            for x, s in zip(tup, signs):
                g = grp.mul(g, x if s > 0 else grp.inv(x))
                if g not in B:
                    return False
        return True

    # the documented calls of numpy's RandomState, one batch of attempts
    # at a time
    rng = np.random.RandomState(np.random.MT19937(seed))
    elems = B.elements
    tuples = []
    attempts = 0
    while len(tuples) < samples and attempts < samples * 50:
        size = min(max(1, min(samples, G_.BLOCK >> max_len)),
                   samples * 50 - attempts)
        js = rng.randint(2, max_len + 1, size=size, dtype=np.int64)
        flat = iter(rng.randint(0, len(elems), size=js.sum(),
                                dtype=np.int64).tolist())
        for j in js.tolist():
            attempts += 1
            tup = tuple(elems[next(flat)] for _ in range(j))
            if len(tuples) < samples and admissible(tup):
                tuples.append(tup)
    flips = iter(rng.randint(0, 2, size=sum(map(len, tuples)),
                             dtype=np.int64).tolist())
    worst = {3: None, 4: None, 5: None}
    bound = {3: None, 4: None, 5: None}

    def record(key, d, b):
        r = C_._ratio(d, b)
        if worst[key] is None or r > worst[key] \
                or (r == worst[key] and b < bound[key]):
            worst[key], bound[key] = r, b
    for tup in tuples:
        j = len(tup)
        prod_g, prod_t = e_g, None
        for x in tup:
            prod_g = grp.mul(prod_g, x)
            prod_t = targets[x] if prod_t is None else prod_t.mul(targets[x])
        record(3, targets[prod_g].dist(prod_t), (j - 1) * eps0)
        signs = tuple((1, -1)[next(flips)] for _ in range(j))
        sg, rhs, lhs4 = e_g, None, None
        for x, s in zip(tup, signs):
            xe = x if s > 0 else grp.inv(x)
            sg = grp.mul(sg, xe)
            term_rhs = targets[x] if s > 0 else targets[x].inv()
            rhs = term_rhs if rhs is None else rhs.mul(term_rhs)
            lhs4 = targets[xe] if lhs4 is None else lhs4.mul(targets[xe])
        record(4, lhs4.dist(rhs), 2 * j * eps0)
        record(5, targets[sg].dist(rhs), (3 * j - 1) * eps0)
    for key, name in ((3, "products"), (4, "signed_factors"),
                      (5, "signed_products")):
        results[name] = {"worst_ratio": worst[key], "bound": bound[key],
                         "pass": worst[key] is None or worst[key] < 1}
    results["epsilon0"] = eps0
    results["tuples_checked"] = len(tuples)
    results["pass"] = all(v["pass"] for v in results.values()
                          if isinstance(v, dict))
    return results


def _suite_certificates():
    Z2, H = G_.FreeAbelian(2), G_.Heisenberg(1)
    yield "cyclic", cyclic(6)
    # B(1) of Z: few long tuples stay in it
    yield "cyclic at n = 1", cyclic(1)
    # B(1) of Z^5: fewer still, so that samples * 50 attempts keep fewer
    # than samples tuples of up to 16 factors
    Z5 = G_.FreeAbelian(5)
    yield "Z^5 at n = 1", X_.from_quotient(
        Z5, G_.LatticeHNF(Z5, [tuple(3 * (i == j) for j in range(5))
                               for i in range(5)]), 1, "sofic")
    yield "lin", X_.perm_to_lin(cyclic(2), T_.FieldFp(2))
    yield "Z^2 mod 17 sofic", X_.from_quotient(
        Z2, G_.LatticeHNF(Z2, [(17, 0), (0, 17)]), 3, "sofic")
    yield "Heisenberg mod 7 fin", X_.from_quotient(
        H, G_.CongruenceMod(H, 7), 2, "fin")
    yield "Z mod 41 hyp", X_.from_quotient(Z, G_.LatticeHNF(Z, [(41,)]), 5,
                                           "hyp")
    yield "Sym(3)", X_.exact_finite(G_.FiniteSym(3), 2)
    # Folner sets: no transitive commutant, the row sweep
    yield "folner", X_.folner_to_sofic(P_.interval_witness_Z(8), 2)
    yield "product", X_.direct_product(cyclic(1), cyclic(2))
    yield "tensor", X_.amplify_projective(X_.from_quotient(
        Z, G_.LatticeHNF(Z, [(641,)]), 320, "hyp"), 8)
    dense = dict(_sweep_certificates())["unitary"]
    yield "dense unitary", dense
    # Z mod 9 with the image of 1 moved at two points: its exact defects
    # give equal worst ratios at distinct tuple lengths
    base = {p: T_.Permutation([(i + p[0]) % 9 for i in range(9)])
            for p in G_.ball(Z, 3)}
    base[(1,)] = T_.Permutation([2, 1] + list(range(3, 9)) + [0])
    yield "Z mod 9 tie", C_.ApproxCertificate(Z, 3, "sofic", base)
    # images off the unitary group: the bounds need not hold, and fail
    rng = np.random.default_rng(4)
    yield "not unitary", C_.ApproxCertificate(Z, 2, "hyp", {
        p: T_.UnitaryMatrix(T_.perm_to_unitary(T_.CyclicPerm(4, p[0])).entries
                            + 0.4 * rng.normal(size=(4, 4)), check=False)
        for p in G_.ball(Z, 2)})


@pytest.mark.parametrize("name,cert", [
    pytest.param(name, cert, id=name) for name, cert in _suite_certificates()])
def test_lemma_suite_matches_scalar_reference(name, cert):
    """Every value, bound, tuple count and verdict equals the scalar
    suite's, over several seeds, tuple lengths and counts."""
    for seed, max_len, samples in ((0, 4, 60), (1, 3, 40), (7, 5, 25)):
        got = C_.lemma_consistency_suite(cert, max_len=max_len,
                                         samples=samples, seed=seed)
        assert got == _scalar_lemma_suite(cert, max_len, samples, seed)
        if name == "Z mod 9 tie" and seed == 0:
            # the worst signed-factor ratio is reached by distances 2/9 at
            # length 2 and 1/3 at length 3: the bound is the least, 4 eps0
            eps0 = got["epsilon0"]
            assert got["signed_factors"]["worst_ratio"] \
                == C_._ratio(Fraction(2, 9), 4 * eps0) \
                == C_._ratio(Fraction(1, 3), 6 * eps0)
            assert got["signed_factors"]["bound"] == 4 * eps0
    if name == "Z^5 at n = 1":
        # batches of one attempt, stopped by the cap of samples * 50
        got = C_.lemma_consistency_suite(cert, max_len=16, samples=20, seed=2)
        assert got == _scalar_lemma_suite(cert, 16, 20, 2)
        assert got["tuples_checked"] == 9
    if name == "not unitary":
        assert not C_.lemma_consistency_suite(cert, seed=0)["pass"]


def test_lemma_suite_refuses_parameters_that_draw_nothing():
    """max_len below 2 has no tuple length to draw and samples below 1
    would pass without a tuple; a max_len above 16 is refused too, so that
    a batch of G_.BLOCK >> max_len attempts, each with up to 2**max_len
    signed prefix products, holds at most groups.BLOCK = 2**16 of them."""
    cert = cyclic(3)
    for kwargs, name in (({"max_len": 1}, "max_len"),
                         ({"max_len": 0}, "max_len"),
                         ({"max_len": 17}, "max_len"),
                         ({"max_len": 2 ** 16 + 1}, "max_len"),
                         ({"samples": 0}, "samples"),
                         ({"samples": -3}, "samples")):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            C_.lemma_consistency_suite(cert, **kwargs)
    assert C_.lemma_consistency_suite(cert, max_len=2, samples=1)[
        "tuples_checked"] == 1
    assert C_.lemma_consistency_suite(cert, max_len=16, samples=1)[
        "tuples_checked"] == 1


def test_lemma_suite_results_are_pinned():
    """The suite's results at seeds 0 and 1 on the certificates of the
    benchmark's lemma-suite steps, from_quotient of Z^2 mod 17 at n = 8
    (sofic) and of Heisenberg(1) mod 7 at n = 3 (fin): an exact family has
    worst ratio 0 at every tuple, so each bound is the least, that of
    length 2."""
    eps0 = Fraction(1, 10 ** 12)
    expect = {
        "identity": {"value": 0, "bound": eps0, "pass": True},
        "inverses": {"value": 0, "bound": 2 * eps0, "pass": True},
        "products": {"worst_ratio": 0.0, "bound": eps0, "pass": True},
        "signed_factors": {"worst_ratio": 0.0, "bound": 4 * eps0,
                           "pass": True},
        "signed_products": {"worst_ratio": 0.0, "bound": 5 * eps0,
                            "pass": True},
        "epsilon0": eps0, "tuples_checked": 200, "pass": True}
    Z2, H = G_.FreeAbelian(2), G_.Heisenberg(1)
    small = X_.from_quotient(Z2, G_.LatticeHNF(Z2, [(17, 0), (0, 17)]), 8,
                             "sofic")
    fin = X_.from_quotient(H, G_.CongruenceMod(H, 7), 3, "fin")
    for cert in (small, fin):
        for seed in (0, 1):
            assert C_.lemma_consistency_suite(cert, seed=seed) == expect


def test_lemma_suite_stream_is_pinned():
    """numpy's RandomState over MT19937 keeps its stream across numpy
    versions (NEP 19), and this pins it: at seed 0, the suite's first batch
    at samples = 8 and max_len = 4, its js and then its slots at |B| = 145
    (the ball of Z^2 at n = 8), and the sign bits of those factors."""
    rng = np.random.RandomState(np.random.MT19937(0))
    js = rng.randint(2, 5, size=8, dtype=np.int64)
    assert js.tolist() == [2, 3, 4, 4, 2, 2, 4, 4]
    assert rng.randint(0, 145, size=js.sum(), dtype=np.int64).tolist() == [
        23, 21, 115, 130, 40, 79, 44, 67, 7, 77, 40, 114, 122, 54, 117, 16,
        39, 1, 83, 140, 107, 69, 111, 41, 14]
    assert rng.randint(0, 2, size=js.sum(), dtype=np.int64).tolist() == [
        0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0,
        1, 0]


# ---------------------------------------------------------------------------
# serialization

def test_dumps_is_deterministic_and_round_trips():
    c = cyclic(5)
    s1 = c.dumps()
    c2 = C_.ApproxCertificate.loads(s1)
    assert c2.dumps() == s1
    assert c2.n == 5 and c2.dimension == 11
    assert C_.verify_D(c2).passed


def test_epsilon_snaps_to_family_default():
    obj = json.loads(cyclic(3).dumps())
    assert obj["epsilon"] == 1.0
    back = C_.ApproxCertificate.from_json(obj)
    assert back.epsilon == Fraction(1)
    assert isinstance(back.epsilon, Fraction)


def test_an_epsilon_near_the_default_is_its_own_value():
    """Only the default's own float snaps to it: 1 + 1e-13 stays itself,
    in the decoded certificate, its report and its re-encoding."""
    obj = json.loads(cyclic(3).dumps())
    obj["epsilon"] = 1.0000000000001
    back = C_.ApproxCertificate.from_json(obj)
    assert back.epsilon == 1.0000000000001
    assert back.to_json()["epsilon"] == 1.0000000000001
    assert C_.verify_D(back).to_json()["epsilon"] == 1.0000000000001
    obj["epsilon"] = 1.0
    back = C_.ApproxCertificate.from_json(obj)
    assert back.epsilon == Fraction(1) and isinstance(back.epsilon, Fraction)


def test_hom_round_trip():
    h = _hom_Z_mod(11)
    s = json.dumps(h.to_json(), sort_keys=True)
    back = C_.HomCertificate.from_json(json.loads(s))
    assert json.dumps(back.to_json(), sort_keys=True) == s
    assert back.image_of_word(("x1", "x1")).shift == 2


def test_rank_certificate_round_trip():
    c = X_.perm_to_lin(cyclic(2), T_.FieldFp(2))
    s = c.dumps()
    back = C_.ApproxCertificate.loads(s)
    assert back.dumps() == s
    assert C_.verify_D(back).passed


# ---------------------------------------------------------------------------
# table groups: a certificate's table group is that of its images

def _fin_images(table, group, n):
    """Each element of B(n) of the finite group ``group`` sent to its own
    element of ``table``, indexed in elements() order."""
    elems = group.elements()
    return {p: table.element(elems.index(p)) for p in G_.ball(group, n)}


def test_fin_certificate_built_without_a_table_round_trips():
    G = G_.FiniteCyclic(5)
    table = T_.trivial_metric_group(G)
    cert = C_.ApproxCertificate(G, 2, "fin", _fin_images(table, G, 2))
    assert cert.fin_group is table
    text = cert.dumps()
    back = C_.ApproxCertificate.loads(text)
    assert back.dumps() == text
    assert back.fin_group.to_json() == table.to_json()
    got, want = C_.verify_D(back), C_.verify_D(cert)
    assert got.passed and want.passed
    assert got.to_json() == want.to_json()
    hom = C_.HomCertificate(G, {"x": table.element(1)}, "fin")
    assert hom.fin_group is table
    back = C_.HomCertificate.from_json(json.loads(json.dumps(hom.to_json())))
    assert back.to_json() == hom.to_json()
    assert C_.verify_W(back, 3).to_json() == C_.verify_W(hom, 3).to_json()


def test_images_in_two_tables_are_refused():
    G = G_.FiniteCyclic(5)
    a, b = (T_.trivial_metric_group(G) for _ in range(2))
    images = _fin_images(a, G, 2)
    images[1] = b.element(1)
    with pytest.raises(C_.CertificateError, match="2 distinct table groups"):
        C_.ApproxCertificate(G, 2, "fin", images)
    with pytest.raises(C_.CertificateError, match="2 distinct table groups"):
        C_.HomCertificate(Z, {"x1": a.element(1), "x1^-1": b.element(4)},
                          "fin")


def test_non_fin_certificates_have_no_table_group():
    assert cyclic(2).fin_group is None
    assert _hom_Z_mod(5).fin_group is None


@pytest.mark.parametrize("name", ["family", "epsilon", "dimension",
                                  "fin_group"])
def test_certificate_fields_are_read_only(name):
    """A certificate cannot be relabelled after it is built: with a family
    assigned, cyclic_Z's permutations would verify as a lin certificate."""
    for cert in (cyclic(3), _hom_Z_mod(5),
                 X_.exact_finite(G_.FiniteCyclic(5), 2, "fin")):
        before = getattr(cert, name)
        with pytest.raises(AttributeError):
            setattr(cert, name, "lin" if name == "family" else None)
        assert getattr(cert, name) is before


def test_images_in_two_target_groups_are_refused():
    """Images of one certificate lie in one target group: one field and
    size of matrices, one degree of permutations, plain or cyclic."""
    Q, F2 = T_.FieldQ(), T_.FieldFp(2)
    swap = T_.Permutation([1, 0])
    G = G_.FiniteCyclic(2)
    for family, a, b in [
            ("lin", T_.perm_to_rank(swap, Q), T_.perm_to_rank(swap, F2)),
            ("lin", T_.RankMatrix.identity(2, Q),
             T_.RankMatrix.identity(3, Q)),
            ("sofic", T_.Permutation([1, 0, 3, 2]), T_.CyclicPerm(3, 1))]:
        with pytest.raises(C_.CertificateError, match="distinct target"):
            C_.ApproxCertificate(G, 1, family, {0: a, 1: b}, dimension=a.dim)
        with pytest.raises(C_.CertificateError, match="distinct target"):
            C_.HomCertificate(Z, {"x1": a, "x1^-1": b}, family)


def test_non_canonical_rank_entries_take_the_dense_path():
    """Rank entries other than exactly "0" and "1" ("1/1" and "01" are 1
    over Q) decode as dense matrices, with the same report and bytes, but
    for the note of the homomorphism kernel, which dense rows (no
    ``equal``) never take."""
    cert = X_.perm_to_lin(cyclic(3), T_.FieldQ())
    text = cert.dumps()
    canonical = C_.ApproxCertificate.loads(text)
    assert canonical.rows.metric == T_.RANK
    obj = json.loads(text)
    for item, spelling in zip(obj["assignments"][1:3], ("1/1", "01")):
        row = item["target"]["entries"][0]
        row[row.index("1")] = spelling
    dense = C_.ApproxCertificate.from_json(obj)
    assert isinstance(dense.rows, T_._ScalarRows)
    want = C_.verify_D(cert).to_json()
    assert C_.verify_D(canonical).to_json() == want
    got = C_.verify_D(dense).to_json()
    assert got["notes"] + [C_.HOMOMORPHISM_NOTE] == want["notes"]
    assert {**got, "notes": want["notes"]} == want
    assert dense.dumps() == canonical.dumps() == text


def test_verified_table_cannot_be_written():
    cert = X_.exact_finite(G_.FiniteCyclic(5), 2, "fin")
    assert C_.verify_D(cert).passed
    table = cert.fin_group
    for name in ("mul_table", "length_table", "inv_table"):
        array = getattr(table, name)
        assert array.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            array[1] = 0
    with pytest.raises(ValueError, match="read-only"):
        table.mul_table[1][1] = 0
    with pytest.raises(ValueError, match="read-only"):
        cert.rows.x[1] = 0
    assert C_.verify_D(cert).passed


@pytest.mark.parametrize("name, value", [
    ("den", 7), ("identity_index", 3), ("order", 4), ("labels", ("junk",)),
    ("mul_table", np.zeros((5, 5), dtype=np.int64)),
    ("length_table", np.zeros(5, dtype=np.int64)),
    ("inv_table", np.zeros(5, dtype=np.int64)),
    ("dist_table", np.zeros((5, 5), dtype=np.int64))])
def test_verified_table_fields_cannot_be_assigned(name, value):
    """No field of a checked table can be set, deleted or added, and its
    labels are a tuple, so a verified certificate keeps its bytes."""
    cert = X_.exact_finite(G_.FiniteCyclic(5), 2, "fin")
    text = cert.dumps()
    table = cert.fin_group
    with pytest.raises(AttributeError, match="read-only"):
        setattr(table, name, value)
    with pytest.raises(AttributeError, match="read-only"):
        delattr(table, name)
    with pytest.raises(TypeError):
        table.labels[0] = "junk"
    assert cert.dumps() == text
    assert C_.verify_D(cert).passed


def test_table_is_copied_from_its_arguments():
    G = G_.FiniteCyclic(3)
    mul, length = G_.table(G).copy(), np.array([0, 1, 1])
    table = T_.TableMetricGroup(mul, length, 1, 0, ["0", "1", "2"])
    mul[1, 1] = 0
    length[1] = 0
    assert table.mul_table[1, 1] == 2 and table.length_table[1] == 1
