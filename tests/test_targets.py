import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupapprox import targets as T_
from groupapprox import groups as G_


def rand_perm(rng, k):
    im = list(range(k))
    rng.shuffle(im)
    return T_.Permutation(im)


def test_family_epsilon_values():
    assert T_.family_epsilon("sofic") == 1
    assert T_.family_epsilon("lin") == Fraction(1, 4)
    assert T_.family_epsilon("lin-projective") == Fraction(1, 8)
    assert T_.family_epsilon("hyp") == T_.SQRT2
    assert T_.family_epsilon("fin") == 1
    with pytest.raises(ValueError):
        T_.family_epsilon("mystery")


# ---------------------------------------------------------------------------
# Hamming vs Hilbert-Schmidt

def test_ham_equals_half_hs_squared_bulk():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randrange(2, 65)
        s, t = rand_perm(rng, k), rand_perm(rng, k)
        d_ham = T_.ham_distance(s, t)
        d_hs = T_.hs_distance(T_.PermUnitary(s), T_.PermUnitary(t))
        assert abs(float(d_ham) - 0.5 * d_hs * d_hs) < 1e-9


def test_hs_distance_matches_dense():
    rng = random.Random(3)
    for _ in range(30):
        k = rng.randrange(2, 12)
        s, t = rand_perm(rng, k), rand_perm(rng, k)
        implicit = T_.hs_distance(T_.PermUnitary(s), T_.PermUnitary(t))
        dense = T_.hs_distance(T_.perm_to_unitary(s), T_.perm_to_unitary(t))
        assert abs(implicit - dense) < 1e-9


def test_projective_hs_identity_formula():
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randrange(2, 20)
        u = T_.PermUnitary(rand_perm(rng, k))
        ident = T_.PermUnitary(T_.Permutation.identity(k))
        d = T_.projective_hs_distance(u, ident)
        assert abs(d * d - (2 - 2 * abs(u.tau()))) < 1e-9


def test_cyclic_perm_matches_materialized():
    c = T_.CyclicPerm(7, 3)
    m = c.materialize()
    assert isinstance(m, T_.Permutation)
    assert m.images == tuple((i + 3) % 7 for i in range(7))
    d = T_.CyclicPerm(7, 5)
    assert c.mul(d).materialize() == m.mul(d.materialize())
    assert c.inv().materialize() == m.inv()
    assert T_.ham_distance(c, d) == T_.ham_distance(m, d.materialize())
    assert T_.ham_distance(c, c) == 0


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 30), st.integers(0, 29), st.integers(0, 29))
def test_cyclic_perm_distance_values(m, s, t):
    a, b = T_.CyclicPerm(m, s % m), T_.CyclicPerm(m, t % m)
    want = Fraction(0) if s % m == t % m else Fraction(1)
    assert T_.ham_distance(a, b) == want


# ---------------------------------------------------------------------------
# rank metric

def _rand_invertible(rng, k, F):
    while True:
        rows = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(k)]
        try:
            return T_.RankMatrix(rows, F)
        except ValueError:
            continue


@pytest.mark.parametrize("field", [T_.FieldQ(), T_.FieldFp(2)])
def test_rank_sandwich(field):
    rng = random.Random(5)
    for _ in range(120):
        k = rng.randrange(2, 8)
        s, t = rand_perm(rng, k), rand_perm(rng, k)
        a = T_.perm_to_rank(s, field)
        b = T_.perm_to_rank(t, field)
        d_rank = T_.rank_distance(a, b)
        d_ham = T_.ham_distance(s, t)
        assert d_rank <= d_ham <= 2 * d_rank
        assert isinstance(d_rank, Fraction)


def test_rank_distance_exact_values():
    F = T_.FieldQ()
    a = T_.RankMatrix([[1, 0], [0, 1]], F)
    b = T_.RankMatrix([[1, 0], [0, 2]], F)
    assert T_.rank_distance(a, b) == Fraction(1, 2)
    assert T_.rank_distance(a, a) == 0


def test_rank_bi_invariance():
    F = T_.FieldFp(3)
    rng = random.Random(9)
    for _ in range(40):
        a = _rand_invertible(rng, 3, F)
        b = _rand_invertible(rng, 3, F)
        g = _rand_invertible(rng, 3, F)
        d = T_.rank_distance(a, b)
        assert T_.rank_distance(g.mul(a), g.mul(b)) == d
        assert T_.rank_distance(a.mul(g), b.mul(g)) == d


def test_projective_rank_distance_scalar_collapse():
    F = T_.FieldQ()
    a = T_.RankMatrix([[1, 0], [0, 1]], F)
    two_a = T_.RankMatrix([[2, 0], [0, 2]], F)
    assert T_.rank_distance(a, two_a) == 1
    assert T_.projective_rank_distance(a, two_a) == 0
    b = T_.RankMatrix([[2, 0], [0, 3]], F)
    # best scalar matches one eigenvalue: rank(b - was) = 1
    assert T_.projective_rank_distance(a, b) == Fraction(1, 2)


def test_projective_rank_distance_fp():
    F = T_.FieldFp(5)
    a = T_.RankMatrix([[1, 0], [0, 1]], F)
    b = T_.RankMatrix([[3, 0], [0, 3]], F)
    assert T_.projective_rank_distance(a, b) == 0


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 6, 9, 91])
def test_field_fp_rejects_non_primes(p):
    with pytest.raises(ValueError, match="not prime"):
        T_.FieldFp(p)


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_field_fp_inverts_for_primes(p):
    F = T_.FieldFp(p)
    assert all(F.mul(a, F.inv(a)) == 1 for a in range(1, p))


# ---------------------------------------------------------------------------
# block sums

def test_block_sum_hamming_weighted_average():
    rng = random.Random(13)
    for _ in range(60):
        k1, k2 = rng.randrange(2, 9), rng.randrange(2, 9)
        a1, b1 = rand_perm(rng, k1), rand_perm(rng, k1)
        a2, b2 = rand_perm(rng, k2), rand_perm(rng, k2)
        lhs = T_.ham_distance(T_.block_sum(a1, a2), T_.block_sum(b1, b2))
        rhs = (k1 * T_.ham_distance(a1, b1) + k2 * T_.ham_distance(a2, b2)) \
            / (k1 + k2)
        assert lhs == rhs


def test_block_sum_rank_weighted_average():
    F = T_.FieldQ()
    rng = random.Random(17)
    for _ in range(40):
        k1, k2 = rng.randrange(2, 6), rng.randrange(2, 6)
        a1, b1 = _rand_invertible(rng, k1, F), _rand_invertible(rng, k1, F)
        a2, b2 = _rand_invertible(rng, k2, F), _rand_invertible(rng, k2, F)
        lhs = T_.rank_distance(T_.block_sum(a1, a2), T_.block_sum(b1, b2))
        rhs = (k1 * T_.rank_distance(a1, b1) + k2 * T_.rank_distance(a2, b2)) \
            / (k1 + k2)
        assert lhs == rhs


def test_block_sum_hs_squared_weighted_average():
    rng = random.Random(19)
    for _ in range(40):
        k1, k2 = rng.randrange(2, 8), rng.randrange(2, 8)
        a1 = T_.PermUnitary(rand_perm(rng, k1))
        b1 = T_.PermUnitary(rand_perm(rng, k1))
        a2 = T_.PermUnitary(rand_perm(rng, k2))
        b2 = T_.PermUnitary(rand_perm(rng, k2))
        lhs = T_.hs_distance(T_.block_sum(a1, a2), T_.block_sum(b1, b2)) ** 2
        rhs = (k1 * T_.hs_distance(a1, b1) ** 2
               + k2 * T_.hs_distance(a2, b2) ** 2) / (k1 + k2)
        assert abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# implicit unitaries

def test_augmented_unitary_trace():
    rng = random.Random(23)
    base = T_.PermUnitary(rand_perm(rng, 5))
    aug = T_.AugmentedUnitary(base, 3)
    assert aug.k == 8
    want = (base.tau() * 5 + 3) / 8
    assert abs(aug.tau() - want) < 1e-12


def test_tensor_implicit_matches_materialized():
    rng = random.Random(29)
    a = T_.AugmentedUnitary(T_.PermUnitary(rand_perm(rng, 2)), 2)
    b = T_.AugmentedUnitary(T_.PermUnitary(rand_perm(rng, 2)), 2)
    ta = T_.ImplicitTensorUnitary(a, 2)
    tb = T_.ImplicitTensorUnitary(b, 2)
    dense_a = ta.materialize()
    dense_b = tb.materialize()
    import numpy as np
    assert abs(ta.tau() - np.trace(dense_a.entries) / 16) < 1e-9
    assert abs(ta.dist(tb) - T_.hs_distance(dense_a, dense_b)) < 1e-9
    assert abs(ta.pdist(tb)
               - T_.projective_hs_distance(dense_a, dense_b)) < 1e-9
    prod = ta.mul(tb)
    dense_prod = dense_a.mul(dense_b)
    assert abs(prod.tau() - dense_prod.tau()) < 1e-9


def test_materialize_cap_guard():
    base = T_.AugmentedUnitary(
        T_.PermUnitary(T_.Permutation.identity(2)), 2 ** 11)
    with pytest.raises(ValueError):
        T_._as_dense(base)


# ---------------------------------------------------------------------------
# finite metric groups

def test_trivial_metric_group():
    tg = T_.trivial_metric_group(G_.FiniteCyclic(4))
    a = tg.element(1)
    b = tg.element(3)
    assert tg.dist(a.index, a.index) == 0
    assert tg.dist(a.index, b.index) == 1
    prod = a.mul(b)
    assert prod.index == tg.element(0).index


def test_quotient_metric_group_law():
    # a finite quotient is a finite group, tabulated the same way
    L = G_.LatticeHNF(G_.FreeAbelian(2), [(2, 1), (0, 3)])
    table = T_.trivial_metric_group(L)
    els = L.elements()
    assert table.order == len(els) == 6
    assert table.labels == [str(r) for r in els]
    for i, r1 in enumerate(els):
        for j, r2 in enumerate(els):
            assert table.mul(i, j) == els.index(L.mul(r1, r2))


def test_wreath_metric_group_round_trip():
    base = T_.trivial_metric_group(G_.FiniteCyclic(2))
    W = T_.WreathMetricGroup(base, G_.FiniteCyclic(3))
    table, idx = W.to_table()
    elems = list(idx)
    assert len(elems) == 2 ** 3 * 3
    # table multiplication agrees with the structural one
    for a in elems[:12]:
        for b in elems[:12]:
            ia, ib = idx[a], idx[b]
            assert table.mul(ia, ib) == idx[W.mul(a, b)]


def test_target_json_round_trips():
    rng = random.Random(31)
    perm = rand_perm(rng, 6)
    for el in (perm, T_.CyclicPerm(9, 4), T_.PermUnitary(perm),
               T_.AugmentedUnitary(T_.PermUnitary(perm), 3),
               T_.perm_to_rank(perm, T_.FieldFp(2)),
               T_.perm_to_rank(perm, T_.FieldQ())):
        j = el.to_json()
        back = T_.target_from_json(j)
        assert back.to_json() == j
