import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupapprox import groups as G_
from groupapprox import certify as C_
from groupapprox import construct as X_
from groupapprox import profiles as P_
from groupapprox import targets as T_

Z = G_.FreeAbelian(1)
Z2 = G_.FreeAbelian(2)
H1 = G_.Heisenberg(1)


# ---------------------------------------------------------------------------
# curve containers

def test_profile_point_validation():
    with pytest.raises(ValueError):
        P_.ProfilePoint(1, 5, "approximate")
    p = P_.ProfilePoint(2, P_.INF, "upper")
    assert p.to_json()["value"] == "inf"


def test_curve_best_bounds():
    c = P_.ProfileCurve("Z", "sofic")
    c.add(P_.ProfilePoint(1, 10, "upper"))
    c.add(P_.ProfilePoint(1, 7, "upper"))
    c.add(P_.ProfilePoint(1, 2, "lower"))
    c.add(P_.ProfilePoint(2, 5, "exact"))
    assert c.best_upper(1) == 7
    assert c.best_lower(1) == 2
    assert c.exact(1) is None
    assert c.best_upper(2) == c.best_lower(2) == c.exact(2) == 5
    rows = c.rows()
    assert rows[0] == {"n": 1, "lower": 2, "exact": None, "upper": 7,
                       "provenance": "lower+upper"}


def test_fit_slope_recovers_exponent():
    c = P_.ProfileCurve("synthetic", "growth")
    for n in range(1, 11):
        c.add(P_.ProfilePoint(n, 3 * n ** 2, "upper"))
    fit = c.fit_slope((2, 10))
    assert abs(fit["slope"] - 2.0) < 1e-9
    assert fit["points"] == 9


def test_fit_slope_refuses_a_window_of_fewer_than_two_points():
    c = P_.ProfileCurve("synthetic", "growth")
    for n in range(1, 4):
        c.add(P_.ProfilePoint(n, 3 * n ** 2, "upper"))
    for window, selected in (((10, 20), 0), ((2, 2), 1)):
        with pytest.raises(ValueError, match=f"selects {selected} point"):
            c.fit_slope(window)
    assert c.fit_slope((2, 3))["points"] == 2


def test_curve_json_deterministic():
    def build():
        c = P_.ProfileCurve("Z", "rf")
        for n in (3, 1, 2):
            c.add(P_.full_rf_growth(Z, n))
        return json.dumps(c.to_json(), sort_keys=True)
    assert build() == build()


# ---------------------------------------------------------------------------
# exact sofic oracle

def test_sofic_oracle_Z_radius_one():
    pt = P_.sofic_exact_oracle(Z, 1, k_max=5)
    assert pt.value == 3 and pt.provenance == "exact"
    assert pt.detail["refuted"] == [1, 2]
    assert pt.detail["nodes"] == 6


def test_sofic_oracle_guards():
    with pytest.raises(ValueError):
        P_.sofic_exact_oracle(Z, 5, 3)  # |B(5)| = 11 too big
    with pytest.raises(ValueError):
        P_.sofic_exact_oracle(Z, 1, 8)


def test_sofic_oracle_budget():
    pt = P_.sofic_exact_oracle(Z, 1, k_max=5, budget=2)
    assert pt.value is None and pt.provenance == "lower"
    assert "budget_exhausted_at" in pt.detail


# value, provenance and detail (node counts included) of the backtracking
# search, which a change of the search must reproduce exactly
@pytest.mark.parametrize("n, k_max, budget, value, provenance, detail", [
    (1, 5, 200_000, 3, "exact", {"refuted": [1, 2], "nodes": 6}),
    (2, 5, 200_000, 5, "exact", {"refuted": [1, 2, 3, 4], "nodes": 27}),
    (3, 7, 200_000, 7, "exact",
     {"refuted": [1, 2, 3, 4, 5, 6], "nodes": 57}),
    (1, 5, 2, None, "lower",
     {"refuted": [1], "budget_exhausted_at": 2, "lower": 2}),
    (2, 4, 200_000, None, "lower",
     {"refuted": [1, 2, 3, 4], "lower": 5,
      "note": "no witness up to k_max=4", "nodes": 14}),
])
def test_sofic_oracle_pinned(n, k_max, budget, value, provenance, detail):
    pt = P_.sofic_exact_oracle(Z, n, k_max, budget)
    assert (pt.value, pt.provenance, pt.detail) == (value, provenance, detail)


@pytest.mark.parametrize("n, k", [(1, 3), (2, 5), (3, 7)])
def test_sofic_oracle_witness_passes_the_verifier(n, k):
    # the search's agree*n < k and moved*n < k are the verifier's strict
    # separation > 1 - 1/n and defect < 1/n
    B = G_.ball(Z, n)
    images = P_._sofic_witness(B, n, k, {"nodes": 0}, 200_000)
    cert = C_.ApproxCertificate(Z, n, "sofic",
                                T_.rows_from_array(np.array(images)))
    assert C_.verify_D(cert).passed
    assert P_._sofic_witness(B, n, k - 1, {"nodes": 0}, 200_000) is None


def test_weakly_sofic_Z():
    assert P_.weakly_sofic_exact_Z(0).value == 1
    for n in range(1, 51):
        pt = P_.weakly_sofic_exact_Z(n)
        assert pt.value == 2 * n + 1 and pt.provenance == "exact"


# ---------------------------------------------------------------------------
# Folner search

def test_folner_exhaustive_Z_minimum():
    out = P_.folner_search(Z, 1, strategy="exhaustive", r_max=4, size_max=4)
    assert out.size == 4 and out.exact
    assert out.witness.members == ((0,), (1,), (2,), (3,))


def test_folner_exhaustive_uncertified_window():
    out = P_.folner_search(Z2, 1, strategy="exhaustive", r_max=1, size_max=2)
    assert out.witness is None and not out.exact


def test_folner_balls_Z():
    out = P_.folner_search(Z, 1, strategy="balls")
    assert out.size == 5
    assert "radius 2" in out.note


@pytest.mark.parametrize("strategy, r_max, size_max", [
    ("balls", 0, None), ("balls", -3, None), ("exhaustive", 0, 4),
    ("exhaustive", 4, 0), ("exhaustive", 4, -1), ("boxes", 0, None)])
def test_folner_search_refuses_ranges_that_select_nothing(
        strategy, r_max, size_max):
    with pytest.raises(ValueError, match="must be at least 1"):
        P_.folner_search(Z, 1, strategy=strategy, r_max=r_max,
                         size_max=size_max)


def test_folner_balls_search_up_to_radius_20_only_without_r_max():
    """None means the default radius 20; r_max 1 searches B(1) alone,
    which is not Folner at n = 1 on Z."""
    default = P_.folner_search(Z2, 3, strategy="balls")
    assert default.note == P_.folner_search(
        Z2, 3, strategy="balls", r_max=20).note
    one = P_.folner_search(Z, 1, strategy="balls", r_max=1)
    assert one.witness is None and one.note == "no ball up to r=1"


def test_folner_boxes_Z2():
    out = P_.folner_search(Z2, 1, strategy="boxes")
    assert out.size == 64
    assert out.witness.defect <= 1


def test_box_formula_matches_materialized_defect():
    for (d, L, n) in ((1, 7, 2), (2, 5, 2), (2, 4, 1)):
        Gd = G_.FreeAbelian(d)
        members = [tuple(v) for v in itertools.product(range(L), repeat=d)]
        assert P_.box_defect_Zd(d, L, n) == X_.folner_defect(Gd, members, n)


def _box_defect_reference(d, L, n):
    """sum over g in the l1 ball B(n) of |A delta (A + g)| / |A|, with the
    box A = [0, L)^d written out."""
    box = set(itertools.product(range(L), repeat=d))
    total = 0
    for g in itertools.product(range(-n, n + 1), repeat=d):
        if sum(map(abs, g)) <= n:
            moved = {tuple(a + x for a, x in zip(v, g)) for v in box}
            total += len(box ^ moved)
    return Fraction(total, len(box))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(1, 6), st.integers(0, 4))
def test_box_defect_matches_brute_force(d, L, n):
    assert P_.box_defect_Zd(d, L, n) == _box_defect_reference(d, L, n)


def _box_defect_ball_walk(d, L, n):
    """The overlap formula summed over the elements of B(n) one by one."""
    total = 0
    for g in G_.ball(G_.FreeAbelian(d), n):
        overlap = 1
        for a in g:
            overlap *= max(0, L - abs(a))
        total += 2 * (L ** d - overlap)
    return Fraction(total, L ** d)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_box_defect_closed_form_matches_the_ball_walk(d):
    for L in (1, 2, 3, 5, 17, 100):
        for n in (0, 1, 2, 4, 7, 9):
            assert P_.box_defect_Zd(d, L, n) == \
                _box_defect_ball_walk(d, L, n), (L, n)


def test_box_defect_walks_no_ball(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ball built")

    monkeypatch.setattr(G_, "ball", refuse)
    # B(300) of Z^2 has 180,601 elements, B(710) is past the ball cap
    assert P_.minimal_box_side_Zd(2, 300) == 21708119963
    assert P_.box_defect_Zd(2, 10 ** 12, 710) > 0
    with pytest.raises(ValueError):
        P_.box_defect_Zd(0, 3, 2)
    with pytest.raises(ValueError):
        P_.box_defect_Zd(2, 3, -1)


def test_interval_length_is_tight():
    for n in range(1, 6):
        L = 2 * n * n * (n + 1)
        good = [(i,) for i in range(L)]
        bad = [(i,) for i in range(L - 1)]
        assert X_.folner_defect(Z, good, n) == Fraction(1, n)
        assert X_.folner_defect(Z, bad, n) > Fraction(1, n)
        assert P_.minimal_box_side_Zd(1, n) == L


def test_box_values_Z2_frozen():
    assert [P_.folner_box_value_Zd(2, n) for n in (1, 2, 3, 4)] == \
        [64, 6400, 112896, 921600]


def test_nilpotent_reference_bound():
    assert P_.folner_bound_nilpotent(1, 1) == 32
    with pytest.raises(ValueError):
        P_.folner_bound_nilpotent(1, 0)


# ---------------------------------------------------------------------------
# full residual finiteness growth

def test_rf_growth_Z():
    for n in (1, 2, 7, 30):
        pt = P_.full_rf_growth(Z, n)
        assert pt.value == n + 1 and pt.provenance == "exact"
        assert pt.detail["kernel"] == [(n + 1,)]


def test_rf_growth_Z2_frozen():
    want = {1: (2, [(1, 1), (0, 2)]),
            2: (5, [(1, 2), (0, 5)]),
            3: (8, [(1, 3), (0, 8)]),
            4: (13, [(1, 5), (0, 13)]),
            5: (18, [(1, 5), (0, 18)]),
            6: (25, [(1, 7), (0, 25)])}
    for n, (value, kernel) in want.items():
        pt = P_.full_rf_growth(Z2, n)
        assert pt.value == value and pt.provenance == "exact", n
        assert pt.detail["kernel"] == kernel, n
        # sanity bounds from squeezing the kernel between balls
        assert n * n / 2 <= value <= (n + 1) ** 2


def _divisors(k):
    return [a for a in range(1, k + 1) if k % a == 0]


def _sublattices_of_index(d, k):
    """All finite-index sublattices of Z^d at index k, as HNF row lists."""
    if d == 1:
        yield [(k,)]
        return
    for a in _divisors(k):
        c = k // a
        for b in range(c):
            yield [(a, b), (0, c)]


def _rf_growth_by_quotients(G, n, start):
    """The lattice search one quotient at a time: every sublattice of every
    index from ``start``, in HNF order, each a LatticeHNF asked of
    kernel_witness."""
    cap = (n + 1) ** G.d + 1
    for k in range(start, cap + 1):
        for rows in _sublattices_of_index(G.d, k):
            if G_.kernel_witness(G, G_.LatticeHNF(G, rows), n) is None:
                return P_.ProfilePoint(
                    n, k, "exact",
                    detail={"kernel": rows,
                            "note": "all finite-index subgroups enumerated"})
    return P_.ProfilePoint(n, None, "lower",
                           detail={"lower": cap + 1, "note": "cap exceeded"})


@pytest.mark.parametrize("G,n_max", [(Z, 30), (Z2, 6)], ids=["Z", "Z^2"])
def test_rf_growth_lattice_skips_indices_at_most_n(G, n_max):
    for n in range(1, n_max + 1):
        got = P_.full_rf_growth(G, n).to_json()
        assert got == _rf_growth_by_quotients(G, n, 1).to_json(), n


_RF_CASES = [(Z, n) for n in range(1, 31)] + [(Z2, n) for n in range(1, 9)]


@pytest.mark.parametrize("G,n", _RF_CASES,
                         ids=[f"Z^{G.d}-{n}" for G, n in _RF_CASES])
def test_rf_growth_lattice_tests_every_b_at_once_as_one_quotient_each(G, n):
    # the same value, the same first sublattice (a ascending, then b
    # ascending) and the same detail as one kernel_witness per sublattice
    got = P_.full_rf_growth(G, n)
    want = _rf_growth_by_quotients(G, n, n + 1)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


def test_rf_growth_lattice_refuses_rank_above_2_before_the_ball():
    with pytest.raises(NotImplementedError, match="d <= 2"):
        P_.full_rf_growth(G_.FreeAbelian(3), 10 ** 6)


def test_rf_growth_heisenberg_recipe():
    assert P_.heisenberg_congruence_modulus(1) == 2
    assert P_.heisenberg_congruence_modulus(3) == 9
    want = {1: 8, 2: 64, 3: 729, 4: 4096}
    for n, value in want.items():
        pt = P_.full_rf_growth(H1, n)
        assert pt.value == value and pt.provenance == "upper", n


def test_rf_growth_heisenberg_least_modulus():
    pt = P_.full_rf_growth(H1, 2, quotient_family="congruence-least")
    assert pt.value == 27 and pt.detail["modulus"] == 3
    recipe = P_.full_rf_growth(H1, 2)
    assert pt.value <= recipe.value


def test_heisenberg_recipe_slope_is_degree_six():
    curve = P_.ProfileCurve("Heisenberg(1)", "rf")
    for n in range(3, 9):
        curve.add(P_.full_rf_growth(H1, n))
    fit = curve.fit_slope((3, 8))
    assert abs(fit["slope"] - 6.0) < 1e-9


# ---------------------------------------------------------------------------
# catalog growth and amenable quotients

def _cyclics(up_to):
    return [G_.FiniteCyclic(m) for m in range(1, up_to + 1)]


def test_le_f_growth_Z():
    for n in (1, 2, 3):
        pt = P_.le_f_growth(Z, n, _cyclics(12))
        assert pt.value == 2 * n + 1
        assert pt.provenance == "upper"


def test_le_f_growth_finite_self():
    pt = P_.le_f_growth(G_.FiniteCyclic(6), 2, _cyclics(8))
    assert pt.value == 6
    # C5 hosts no ball monomorphism: 1+4=5 would force f(5)=0
    assert 5 in pt.detail["ruled_out"]


def test_le_f_growth_free_group():
    pt = P_.le_f_growth(G_.Free(2), 1, _cyclics(8))
    assert pt.value == 5 and pt.provenance == "upper"


def _cyclic_upper(m, nodes, ruled_out):
    return m, "upper", {"target": {"kind": "FiniteCyclic",
                                   "params": {"m": m}},
                        "nodes": nodes, "ruled_out": ruled_out}


_NO_TARGET = "no catalog target admits a ball monomorphism"


# value, provenance and detail (node counts included) of the backtracking
# search, which a change of the search must reproduce exactly
@pytest.mark.parametrize("group, n, up_to, expected", [
    (Z, 1, 12, _cyclic_upper(3, 3, [1, 2])),
    (Z, 2, 12, _cyclic_upper(5, 5, [1, 2, 3, 4])),
    (Z, 3, 12, _cyclic_upper(7, 7, [1, 2, 3, 4, 5, 6])),
    (G_.FiniteCyclic(6), 2, 8, _cyclic_upper(6, 18, [1, 2, 3, 4, 5])),
    (G_.Free(2), 1, 8, _cyclic_upper(5, 5, [1, 2, 3, 4])),
    (Z2, 1, 8, _cyclic_upper(5, 5, [1, 2, 3, 4])),
    (G_.FiniteCyclic(6), 2, 5,
     (None, "lower", {"lower": 5, "note": _NO_TARGET,
                      "ruled_out": [1, 2, 3, 4, 5]})),
])
def test_le_f_growth_pinned(group, n, up_to, expected):
    pt = P_.le_f_growth(group, n, _cyclics(up_to))
    assert (pt.value, pt.provenance, pt.detail) == expected


def test_ra_profile_prefers_small_quotient():
    catalog = [
        {"label": "self", "group": Z, "quotient": None, "strategy": "boxes"},
        {"label": "Z/3", "group": G_.FiniteCyclic(3),
         "quotient": G_.LatticeHNF(Z, [(3,)])},
        {"label": "Z/2", "group": G_.FiniteCyclic(2),
         "quotient": G_.LatticeHNF(Z, [(2,)])},
    ]
    pt = P_.ra_profile(Z, 1, catalog)
    assert pt.value == 3
    notes = {d["quotient"]: d.get("note") for d in pt.detail["tried"]}
    assert notes["Z/2"] == "kernel meets B(2n)"


def test_ra_profile_empty_viable_set():
    catalog = [{"label": "Z/2", "group": G_.FiniteCyclic(2),
                "quotient": G_.LatticeHNF(Z, [(2,)])}]
    pt = P_.ra_profile(Z, 1, catalog)
    assert pt.value == P_.INF


# ---------------------------------------------------------------------------
# curve bundles and the audit

def test_growth_curve_Z():
    c = P_.growth_curve(Z, range(1, 6))
    assert [c.exact(n) for n in range(1, 6)] == [3, 5, 7, 9, 11]


def test_upper_curve_builders():
    def cyclic_builder(n):
        return X_.cyclic_Z(n)

    def skip_odd(n):
        if n % 2:
            return None
        return P_.ProfilePoint(n, 100, "upper", detail={"builder": "flat"})

    curve = P_.upper_curve("Z", "sofic", range(1, 4),
                           [("cyclic", cyclic_builder), ("flat", skip_odd)])
    assert curve.best_upper(1) == 3
    assert curve.best_upper(2) == 5  # min(5, 100)
    assert curve.best_upper(3) == 7


def test_standard_curves_Z_shape():
    curves = P_.standard_curves("Z", 6)
    assert curves["sofic"].best_upper(4) == 9
    assert curves["fin"].exact(3) == 7
    assert curves["folner"].exact(1) == 4
    assert curves["rf"].exact(12) == 13
    assert curves["sofic"].best_lower(1) <= curves["sofic"].best_upper(1)


def test_standard_curves_Z2_shape():
    curves = P_.standard_curves("Z^2", 3)
    assert [curves["rf"].exact(n) for n in range(1, 7)] == [2, 5, 8, 13, 18, 25]
    assert curves["sofic"].best_upper(2) == 25
    assert curves["folner"].best_upper(1) == 64


def test_audit_zero_violations_smoke():
    curves = {
        "Z": P_.standard_curves("Z", 6),
        "Z^2": P_.standard_curves("Z^2", 3),
        "Heisenberg(1)": P_.standard_curves("Heisenberg(1)", 2),
    }
    report = P_.inequality_audit(curves)
    assert report["pass"]
    assert report["violations"] == []
    assert report["points_compared"] > 30
    names = {c["check"] for c in report["checks"]}
    assert "dsof(n) <= folner(2n)" in names


def test_audit_names_each_vacuous_check():
    """A check that compared no point says why; every other check has
    vacuous null, and the points compared are as before."""
    report = P_.inequality_audit({
        g: P_.standard_curves(g, 4) for g in ("Z", "Z^2", "Heisenberg(1)")})
    vacuous = {(c["group"], c["check"]): c["vacuous"]
               for c in report["checks"] if c["compared"] == 0}
    assert vacuous == {
        **{(g, "dlin(n) <= dsof(n)"): "no lower point of lin"
           for g in ("Z", "Z^2", "Heisenberg(1)")},
        **{(g, "dhyp(n) <= dsof(2n^2)"): "no lower point of hyp"
           for g in ("Z", "Z^2")}}
    assert all(c["vacuous"] is None
               for c in report["checks"] if c["compared"])
    assert report["points_compared"] == sum(c["compared"]
                                            for c in report["checks"])
    # lower points of the sofic curve, but no upper point of rf at 2n
    curves = P_.standard_curves("Z", 2)
    curves["rf"] = P_.ProfileCurve(curves["rf"].group_desc, "rf")
    rows = {c["check"]: c["vacuous"]
            for c in P_.inequality_audit({"Z": curves})["checks"]}
    assert rows["dsof(n) <= phi(2n)"] == \
        "no upper point of rf at the mapped radii"
