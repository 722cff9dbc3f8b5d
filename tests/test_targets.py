import base64
import functools
import itertools
import json
import math
import random
import string
import struct
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
# sympy installs its own warning filters on import; importing it here keeps
# that out of the catch_warnings blocks below
import sympy
from hypothesis import given, settings, strategies as st

from groupapprox import targets as T_
from groupapprox import groups as G_


def rand_perm(rng, k):
    im = list(range(k))
    rng.shuffle(im)
    return T_.Permutation(im)


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
        tau = complex(np.trace(T_.as_dense(u).entries)) / k
        assert abs(d * d - (2 - 2 * abs(tau))) < 1e-9


def test_cyclic_perm_matches_materialized():
    c = T_.CyclicPerm(7, 3)
    m = T_.Permutation(c.images)
    assert m.images == tuple((i + 3) % 7 for i in range(7))
    d = T_.CyclicPerm(7, 5)
    dm = T_.Permutation(d.images)
    assert c.mul(d) == m.mul(dm) == c.mul(dm) == m.mul(d)
    assert c.inv() == m.inv()
    assert c.dist(d) == m.dist(dm) == c.dist(dm) == m.dist(d)
    assert T_.ham_distance(c, d) == T_.ham_distance(m, dm)
    assert T_.ham_distance(c, c) == 0


def test_cyclic_perm_and_its_permutation_are_one_set_element():
    c = T_.CyclicPerm(7, 1)
    assert len({c, T_.Permutation(c.images)}) == 1
    assert {c: 0}[T_.Permutation(c.images)] == 0
    assert c != T_.Permutation(T_.CyclicPerm(7, 2).images)
    assert c != T_.Permutation(range(7))


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


def _cycles(perm):
    """Number of cycles of a permutation, fixed points included."""
    seen, count = set(), 0
    for i in range(perm.k):
        count += i not in seen
        while i not in seen:
            seen.add(i)
            i = perm.images[i]
    return count


_FIELDS = [T_.FieldQ(), T_.FieldFp(2), T_.FieldFp(3)]


@pytest.mark.parametrize("field", _FIELDS, ids=lambda F: F.label)
def test_rank_metrics_of_permutations_closed_form(field):
    """rank(P_s - P_t) = k - cycles(t^-1 s) over every field, and the
    projective distance is the same: every cycle has the eigenvalue 1 once.
    Any warning, such as a deprecation inside sympy's factoring, fails."""
    rng = random.Random(31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(40):
            k = rng.randint(1, 7)
            s, t = rand_perm(rng, k), rand_perm(rng, k)
            want = Fraction(k - _cycles(t.inv().mul(s)), k)
            a, b = T_.perm_to_rank(s, field), T_.perm_to_rank(t, field)
            assert T_.rank_distance(a, b) == want
            assert T_.projective_rank_distance(a, b) == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_rows_equal_dense_rank_metrics(data):
    """Rank rows decide each pair by a cycle count; plainly and
    projectively it equals the dense row reduction and charpoly factors
    of the permutation matrices, over Q, F2 and F3."""
    field = data.draw(st.sampled_from(_FIELDS))
    k = data.draw(st.integers(1, 7))
    count = data.draw(st.integers(1, 4))
    xs, ys = ([data.draw(st.permutations(range(k))) for _ in range(count)]
              for _ in range(2))
    X, Y = (T_.rows_from_array(np.array(ps), T_.RANK, field)
            for ps in (xs, ys))
    for r, (x, y) in enumerate(zip(xs, ys)):
        a, b = (T_.perm_to_rank(T_.Permutation(p), field) for p in (x, y))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = T_.rank_distance(a, b), T_.projective_rank_distance(a, b)
        got = tuple(X.take([r]).extreme(Y.take([r]), max, projective)[0]
                    for projective in (False, True))
        assert got == want
        assert X.target(r) == a and X.to_json(r) == a.to_json()


def test_batch_takes_permutation_matrices_as_rank_rows():
    """A list of permutation matrices over one field is rank rows; any
    other matrix, or a second field, keeps the dense objects."""
    perms = [T_.Permutation(p) for p in ([1, 2, 0], [0, 2, 1])]
    for field in _FIELDS:
        mats = [T_.perm_to_rank(p, field) for p in perms]
        rows = T_.batch(mats)
        assert rows.metric == T_.RANK and rows.field is field
        assert [rows.target(i) for i in range(2)] == mats
    dense = T_.RankMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]], T_.FieldFp(3))
    mixed = [T_.perm_to_rank(perms[0], T_.FieldQ()),
             T_.perm_to_rank(perms[1], T_.FieldFp(2))]
    for images in ([T_.perm_to_rank(perms[0], T_.FieldFp(3)), dense], mixed):
        assert isinstance(T_.batch(images), T_._ScalarRows)


@pytest.mark.parametrize("field", _FIELDS, ids=lambda F: F.label)
def test_rank_metric_matches_sympy(field):
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(37)
    for _ in range(40):
        k = rng.randint(1, 5)
        a, b = _rand_invertible(rng, k, field), _rand_invertible(rng, k, field)
        diff = [[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)]
        if isinstance(field, T_.FieldQ):
            want = sympy.Matrix(diff).rank()
        else:
            want = DomainMatrix.from_list(diff, sympy.ZZ).convert_to(
                sympy.GF(field.p)).rank()
        assert T_.rank_distance(a, b) == Fraction(want, k)
        assert a.mul(a.inv()) == T_.RankMatrix.identity(k, field)
    # singular over Q, F_2 and F_3 alike
    singular = T_.RankMatrix([[1, 2], [2, 4]], field, check=False)
    with pytest.raises(ValueError, match="singular"):
        singular.inv()


# Carmichael numbers, and strong pseudoprimes to the bases 2; 2 to 7;
# 2 to 23; and 2 to 37, the first 12 primes
@pytest.mark.parametrize("p", [-3, 0, 1, 4, 6, 9, 91, 561, 1105, 1729, 2047,
                               3215031751, 3825123056546413051,
                               318665857834031151167461])
def test_field_fp_rejects_non_primes(p):
    with pytest.raises(ValueError, match="not prime"):
        T_.FieldFp(p)


def test_primality_matches_trial_division_below_10_5():
    primes = []
    assert not any(map(T_._is_prime, range(-3, 2)))
    for n in range(2, 10 ** 5):
        prime = all(n % q for q in itertools.takewhile(
            lambda q: q * q <= n, primes))
        if prime:
            primes.append(n)
        assert T_._is_prime(n) == prime, n


# the last is the largest prime below MILLER_RABIN_BOUND
@pytest.mark.parametrize("p", [10 ** 14 + 31, 2 ** 61 - 1, 2 ** 64 - 59,
                               3317044064679887385961813])
def test_field_fp_takes_large_primes(p):
    assert sympy.isprime(p)
    assert T_.FieldFp(p).inv(2) * 2 % p == 1


@pytest.mark.parametrize("p", [T_.MILLER_RABIN_BOUND, 2 ** 89 - 1])
def test_field_fp_refuses_primality_it_cannot_decide(p):
    with pytest.raises(ValueError, match="decided only below"):
        T_.FieldFp(p)


@pytest.mark.parametrize("d", [{"Fp": 2, "junk": [1]}, {"Fp": True},
                               {"Fp": 2.0}, {"Fp": "2"}, {"fp": 2}, {},
                               "q", "F2", ["Fp", 2], None])
def test_field_descriptor_is_exactly_q_or_fp(d):
    with pytest.raises(ValueError, match="field must be"):
        T_.field_from_descriptor(d)


def test_each_field_descriptor_is_decoded_once():
    F = T_.field_from_descriptor({"Fp": 10 ** 14 + 31})
    assert T_.field_from_descriptor({"Fp": 10 ** 14 + 31}) is F
    assert T_.field_from_descriptor({"Fp": 3}).label == "F3"
    assert T_.field_from_descriptor("Q").label == "Q"


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_field_fp_inverts_for_primes(p):
    F = T_.FieldFp(p)
    assert all(F.norm(a * F.inv(a)) == 1 for a in range(1, p))


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
    ident = T_.AugmentedUnitary(T_.PermUnitary(T_.Permutation.identity(5)), 3)
    tau = complex(np.trace(T_.as_dense(aug).entries)) / 8
    assert abs(tau - (np.trace(T_.as_dense(base).entries) + 3) / 8) < 1e-12
    assert abs(T_.hs_distance(aug, ident) ** 2 - (2 - 2 * tau.real)) < 1e-12


def dense_tensor(t):
    """The dense matrix of the tensor power t, one np.kron per factor: the
    reference that the trace arithmetic of ImplicitTensorUnitary is
    compared with."""
    base = T_.as_dense(t.base).entries
    out = base
    for _ in range(t.power - 1):
        out = np.kron(out, base)
    return T_.UnitaryMatrix(out, check=False)


def test_tensor_implicit_matches_materialized():
    rng = random.Random(29)
    a = T_.AugmentedUnitary(T_.PermUnitary(rand_perm(rng, 2)), 2)
    b = T_.AugmentedUnitary(T_.PermUnitary(rand_perm(rng, 2)), 2)
    ta = T_.ImplicitTensorUnitary(a, 2)
    tb = T_.ImplicitTensorUnitary(b, 2)
    dense_a = dense_tensor(ta)
    dense_b = dense_tensor(tb)
    e = T_.ImplicitTensorUnitary(
        T_.AugmentedUnitary(T_.PermUnitary(T_.Permutation.identity(2)), 2), 2)
    tau = complex(np.trace(dense_a.entries)) / 16
    assert abs(ta.dist(e) ** 2 - (2 - 2 * tau.real)) < 1e-9
    assert abs(ta.dist(tb) - T_.hs_distance(dense_a, dense_b)) < 1e-9
    assert abs(ta.pdist(tb)
               - T_.projective_hs_distance(dense_a, dense_b)) < 1e-9
    prod = ta.mul(tb)
    dense_prod = dense_a.mul(dense_b)
    assert np.allclose(dense_tensor(prod).entries, dense_prod.entries)


def test_tensor_distance_checks_power_and_base_degree_first():
    """Tensor powers are compared only at one power and one base degree."""
    def tensor(k, power):
        return T_.ImplicitTensorUnitary(
            T_.PermUnitary(T_.Permutation.identity(k)), power)
    for other, message in ((tensor(3, 3), "mismatched tensor power"),
                           (tensor(4, 2), "dimension mismatch"),
                           (T_.PermUnitary(T_.Permutation.identity(9)),
                            "mismatched tensor power")):
        for measure in (T_.hs_distance, T_.projective_hs_distance):
            with pytest.raises(ValueError, match=message):
                measure(tensor(3, 2), other)
    assert T_.hs_distance(tensor(3, 2), tensor(3, 2)) == 0.0


def _tensor(images, pad, power):
    """(u (+) I_pad)^(tensor power), u the unitary of the images; a bare
    PermUnitary base for pad None."""
    u = T_.PermUnitary(T_.Permutation(images))
    return T_.ImplicitTensorUnitary(
        u if pad is None else T_.AugmentedUnitary(u, pad), power)


# the largest int that converts to a float: tau ** power takes the power as
# one, so every larger power is refused
_LARGEST_POWER = 2 ** 1024 - 2 ** 970 - 1


def _same_rows(rows, ref):
    assert len(rows) == len(ref)
    for i in range(len(ref)):
        assert rows.to_json(i) == ref.to_json(i) == ref.images[i].to_json()
        assert rows.target(i).to_json() == ref.images[i].to_json()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tensor_rows_equal_the_scalar_tensor_targets(data):
    """Tensor rows compose, invert and measure as ImplicitTensorUnitary
    does: equal targets and JSON, and extreme values equal as floats at
    equal first positions, plain and projective, also at powers 10^6 and
    the largest that converts to a float, where every pair of distinct
    bases is at sqrt(2) and ties decide."""
    k = data.draw(st.integers(1, 6))
    pad = data.draw(st.one_of(st.none(), st.integers(0, 4)))
    power = data.draw(st.one_of(st.integers(1, 40),
                                st.sampled_from([10 ** 6, 2 ** 31,
                                                 _LARGEST_POWER])))
    perms = data.draw(st.lists(st.permutations(range(k)), min_size=1,
                               max_size=6))
    images = [_tensor(p, pad, power) for p in perms]
    rows, ref = T_.batch(images), T_._ScalarRows(images)
    assert isinstance(rows, T_._PermRows) and rows.power == power
    _same_rows(rows, ref)
    m = len(images)
    idx = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6))
    _same_rows(rows.take(idx), ref.take(idx))
    _same_rows(rows.inv(), ref.inv())
    one = [data.draw(st.integers(0, m - 1))]
    for a, b in ((rows, rows.inv()), (rows.take(one), rows),
                 (rows, rows.take(one)), (rows.take(idx), rows.take(idx))):
        a_ref, b_ref = (T_._ScalarRows([x.target(i) for i in range(len(x))])
                        for x in (a, b))
        _same_rows(a.mul(b), a_ref.mul(b_ref))
        for pick in (max, min):
            for projective in (False, True):
                got = a.extreme(b, pick, projective)
                want = a_ref.extreme(b_ref, pick, projective)
                assert got == want and type(got[0]) is float


def test_tensor_power_beyond_the_float_range_is_refused():
    u = T_.PermUnitary([1, 0])
    assert T_.ImplicitTensorUnitary(u, _LARGEST_POWER).dist(
        T_.ImplicitTensorUnitary(u.inv(), _LARGEST_POWER)) == 0.0
    for power in (_LARGEST_POWER + 1, 10 ** 400):
        with pytest.raises(ValueError, match=f"tensor power {power} is "
                                             f"beyond the float range"):
            T_.ImplicitTensorUnitary(u, power)


@pytest.mark.parametrize("k", [1, 5, 22, 38, 39, 49])
def test_tensor_distance_table_is_the_scalar_formula_bitwise(k):
    """Each entry c of the distance table of tensor rows equals, as a
    float, dist and pdist of two tensor powers whose bases agree at c
    points. For these k, c / k * k is not always c in floats, so the table
    must take the scalar formula's own steps."""
    e = list(range(k))
    for c in range(k + 1):
        if c == k - 1:  # no permutation moves exactly one point
            continue
        # a (k - c)-cycle on the last points, fixing the first c
        v = e[:c] + e[c + 1:] + e[c:c + 1]
        for pad in (None, 0, 1, 3):
            for power in (1, 2, 22, 10 ** 6, _LARGEST_POWER):
                x, y = _tensor(e, pad, power), _tensor(v, pad, power)
                want = T_._tensor_distances(k, pad, power)[c]
                assert x.dist(y) == x.pdist(y) == want


@pytest.mark.parametrize("images, tensor", [
    ([_tensor([1, 0], None, 3), _tensor([0, 1], None, 3)], True),
    ([_tensor([1, 0], 2, 3), _tensor([0, 1], 2, 3)], True),
    ([_tensor([1, 0], 0, 3)], True),
    ([_tensor([1, 0], 2, 3), _tensor([0, 1], 2, 4)], False),
    ([_tensor([1, 0], 2, 3), _tensor([0, 1], 3, 3)], False),
    ([_tensor([1, 0], None, 3), _tensor([0, 1], 0, 3)], False),
    ([_tensor([1, 0], 2, 3), _tensor([0, 2, 1], 2, 3)], False),
    ([_tensor([1, 0], None, 3), _tensor([0, 2, 1], None, 3)], False),
    ([T_.ImplicitTensorUnitary(T_.AugmentedUnitary(
        T_.UnitaryMatrix([[1, 0], [0, 1]]), 2), 3)], False),
    ([T_.ImplicitTensorUnitary(T_.UnitaryMatrix([[1]]), 3)], False),
], ids=["bare", "padded", "pad-0", "two-powers", "two-pads",
        "bare-and-padded", "two-degrees", "two-bare-degrees",
        "dense-inner", "dense-base"])
def test_tensor_rows_only_for_one_power_pad_and_degree(images, tensor):
    """batch, and rows_from_json on the images' JSON, hold tensor powers
    as tensor rows only when they share power, pad (or its absence) and
    base degree over permutation unitaries; any other list stays scalar
    and keeps its JSON."""
    objs = [t.to_json() for t in images]
    for rows in (T_.batch(images), T_.rows_from_json(objs)):
        assert isinstance(rows, T_._PermRows if tensor else T_._ScalarRows)
        assert [rows.to_json(i) for i in range(len(objs))] == objs


@pytest.mark.parametrize("other", [
    T_.batch([_tensor([1, 0, 2], 2, 4)]),
    T_.batch([_tensor([1, 0, 2], 3, 3)]),
    T_.batch([_tensor([1, 0, 2], 0, 3)]),
    T_.batch([_tensor([1, 0, 2], None, 3)]),
    T_.batch([_tensor([1, 0, 2, 3], 2, 3)]),
    T_.batch([T_.PermUnitary([1, 0, 2])]),
], ids=["another-power", "another-pad", "pad-0", "no-pad",
        "another-degree", "plain"])
def test_tensor_rows_pair_only_with_their_power_pad_and_degree(other):
    """mul and extreme refuse, both ways round, rows of another power,
    pad (a pad of 0 and none are two forms) or degree, and plain
    permutation-unitary rows against tensor rows."""
    rows = T_.batch([_tensor([0, 2, 1], 2, 3), _tensor([1, 0, 2], 2, 3)])
    for a, b in ((rows, other), (other, rows)):
        with pytest.raises(ValueError, match="tensor rows of another power, "
                                             "pad or degree"):
            a.mul(b)
        for projective in (False, True):
            with pytest.raises(ValueError, match="tensor rows of another "
                                                 "power, pad or degree"):
                a.extreme(b, max, projective)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(lambda k: st.lists(
    st.permutations(range(k)), min_size=2, max_size=6)), st.data())
def test_unpadded_first_tensor_powers_measure_as_permutation_unitaries(
        perms, data):
    """Tensor rows with no pad and power 1 give the extreme values and
    first positions of plain permutation-unitary rows, bitwise, yet write
    tensor powers, not permutation unitaries."""
    plain = T_.batch([T_.PermUnitary(p) for p in perms])
    tensor = T_.batch([_tensor(p, None, 1) for p in perms])
    assert (plain.power, tensor.power) == (None, 1)
    m = len(perms)
    one = [data.draw(st.integers(0, m - 1))]
    idx = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6))
    for pick in (max, min):
        for projective in (False, True):
            for pair in (lambda r: (r.take(one), r.take(idx)),
                         lambda r: (r, r.inv())):
                a, b = pair(plain)
                want = a.extreme(b, pick, projective)
                a, b = pair(tensor)
                got = a.extreme(b, pick, projective)
                assert got == want and type(got[0]) is float
    for i in range(m):
        assert plain.to_json(i)["kind"] == "perm-unitary"
        assert tensor.to_json(i) == {"kind": "tensor-implicit",
                                     "base": plain.to_json(i), "power": 1}


def test_materialize_cap_guard():
    base = T_.AugmentedUnitary(
        T_.PermUnitary(T_.Permutation.identity(2)), 2 ** 11)
    with pytest.raises(ValueError):
        T_.as_dense(base)


# ---------------------------------------------------------------------------
# finite metric groups

def test_trivial_metric_group():
    tg = T_.trivial_metric_group(G_.FiniteCyclic(4))
    a = tg.element(1)
    b = tg.element(3)
    assert a.dist(a) == 0
    assert a.dist(b) == 1
    prod = a.mul(b)
    assert prod.index == tg.element(0).index


def test_quotient_metric_group_law():
    # a finite quotient is a finite group, tabulated the same way
    L = G_.LatticeHNF(G_.FreeAbelian(2), [(2, 1), (0, 3)])
    table = T_.trivial_metric_group(L)
    els = L.elements()
    assert table.order == len(els) == 6
    assert table.labels == tuple(str(r) for r in els)
    for i, r1 in enumerate(els):
        for j, r2 in enumerate(els):
            assert table.mul_table[i, j] == els.index(L.mul(r1, r2))


def _reference_ok(mul, length, den, e):
    """Dense reference for the table check: the group laws, then the metric
    d(a, b) = length[x] / den for the x with a x = b, checked as a metric
    with values in [0, 1] over all pairs and triples, left and right
    invariant."""
    n = len(mul)
    T = range(n)
    if not (0 <= e < n and all(0 <= x < n for r in mul for x in r)):
        return False
    if any(mul[a][e] != a or mul[e][a] != a for a in T):
        return False
    if not all(any(mul[a][b] == e == mul[b][a] for b in T) for a in T):
        return False
    if any(mul[mul[a][b]][c] != mul[a][mul[b][c]]
           for a in T for b in T for c in T):
        return False
    # in a group, row a of the table is a bijection
    dist = [[0] * n for _ in T]
    for a in T:
        for x in T:
            dist[a][mul[a][x]] = length[x]
    for a in T:
        for b in T:
            if dist[a][b] != dist[b][a]:
                return False
            if not (dist[a][b] == 0 if a == b else 0 < dist[a][b] <= den):
                return False
    for a in T:
        for b in T:
            for c in T:
                if dist[a][c] > dist[a][b] + dist[b][c]:
                    return False
                if dist[mul[c][a]][mul[c][b]] != dist[a][b] \
                        or dist[mul[a][c]][mul[b][c]] != dist[a][b]:
                    return False
    return True


def _length_table(G, length, den):
    """Constructor arguments for G with d(a, b) = length(a^-1 b) / den."""
    elems = G.elements()
    idx = {x: i for i, x in enumerate(elems)}
    mul = [[idx[G.mul(a, b)] for b in elems] for a in elems]
    return (mul, [length(x) for x in elems], den, idx[G.identity()],
            [G.fmt(x) for x in elems])


def _sym3_hamming():
    return _length_table(G_.FiniteSym(3),
                         lambda p: sum(i != x for i, x in enumerate(p)), 3)


def _sym3_word_metric():
    S3 = G_.FiniteSym(3)
    B = G_.ball(S3, 3)
    return _length_table(S3, B.length, max(B.lengths.values()))


def _table_args(table):
    return (table.mul_table.tolist(), table.length_table.tolist(), table.den,
            table.identity_index, list(table.labels))


_CHECKED_TABLES = [
    *(_table_args(T_.trivial_metric_group(G_.FiniteCyclic(m)))
      for m in range(1, 9)),
    _table_args(T_.trivial_metric_group(G_.FiniteSym(3))),
    _table_args(T_.trivial_metric_group(
        G_.LatticeHNF(G_.FreeAbelian(2), [(2, 0), (0, 3)]))),
    _table_args(T_.trivial_metric_group(
        G_.CongruenceMod(G_.Heisenberg(1), 2))),
    _sym3_hamming(),
]


_TABLE_PINS = [
    (_sym3_hamming(), None),
    # the word metric of the adjacent transpositions is left- but not
    # right-invariant: s1 has length 1, its conjugate (0 2) length 3
    (_sym3_word_metric(), "right-invariant"),
    (_length_table(G_.FiniteCyclic(3), [0, 1, 2].__getitem__, 2),
     "symmetric"),
    (_length_table(G_.FiniteCyclic(4), [0, 1, 4, 1].__getitem__, 4),
     "triangle"),
]


@pytest.mark.parametrize("args, error", _TABLE_PINS)
def test_table_check_pins(args, error):
    assert _reference_ok(*args[:4]) == (error is None)
    if error is None:
        T_.TableMetricGroup(*args)
    else:
        with pytest.raises(ValueError, match=error):
            T_.TableMetricGroup(*args)


@pytest.mark.parametrize("args, error", _TABLE_PINS)
def test_table_check_pins_in_row_blocks(args, error):
    """With blocks of one row the pinned defects are found in later
    blocks: none lies in the first row, the identity's."""
    with mock.patch.object(G_, "BLOCK", 1):
        test_table_check_pins(args, error)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_check_matches_dense_reference(data):
    _check_a_mutated_table(data)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_table_check_in_row_blocks_matches_dense_reference(data):
    """Blocks of one row or of a few rows give the same verdicts."""
    with mock.patch.object(G_, "BLOCK", data.draw(st.sampled_from([1, 8]))):
        _check_a_mutated_table(data)


def test_table_check_runs_in_row_blocks():
    """The check of an order-2,197 table, 37 MB of int64, adds no more
    than a few blocks to the table itself: an order-2,048 table peaked at
    143 MB when the check built whole-table temporaries."""
    W = T_.trivial_metric_group(G_.CongruenceMod(G_.Heisenberg(1), 13))
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        T_._check_table(W.mul_table, W.length_table, W.den, W.identity_index)
        checked = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert W.order == 2197
    assert checked < 8 * 8 * G_.BLOCK


def test_a_fresh_table_is_kept_without_a_copy():
    """trivial_metric_group hands its fresh table over read-only, so the
    table group keeps it: Sym(6)'s 720 x 720 int64 table is 4.1 MB, and
    the build peaked at 10.7 MB with a nested list and an int64 copy."""
    tracemalloc.start()
    try:
        tg = T_.trivial_metric_group(G_.FiniteSym(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tg.mul_table.nbytes == 720 * 720 * 8
    assert peak < 1.5 * tg.mul_table.nbytes
    M = tg.mul_table
    again = T_.TableMetricGroup(M, tg.length_table, 1, tg.identity_index,
                                tg.labels)
    assert again.mul_table is M


def test_a_writable_table_is_copied():
    """A caller's writable table, or a read-only view of a writable one, is
    copied: writing to it afterwards cannot change the checked group."""
    tg = T_.trivial_metric_group(G_.FiniteCyclic(3))
    args = (tg.length_table, 1, tg.identity_index, tg.labels)
    writable = np.array(tg.mul_table)
    view = writable[:]
    view.flags.writeable = False
    for M in (writable, view):
        group = T_.TableMetricGroup(M, *args)
        writable[1, 1] = 1
        assert group.mul_table[1, 1] == 2
        assert not group.mul_table.flags.writeable
        writable[1, 1] = 2


def _check_a_mutated_table(data):
    """One checked table, one cell, length, row pair or identity changed:
    the table check and the dense reference agree."""
    mul, length, den, e, labels = data.draw(st.sampled_from(_CHECKED_TABLES))
    mul, length = [list(r) for r in mul], list(length)
    n = len(mul)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    kind = data.draw(st.sampled_from(["mul", "length", "rows", "identity"]))
    if kind == "mul":
        a, b = data.draw(cell)
        mul[a][b] = data.draw(st.integers(-1, n))
    elif kind == "length":
        a = data.draw(st.integers(0, n - 1))
        length[a] = data.draw(st.integers(-1, den + 1))
    elif kind == "rows":
        a, b = data.draw(cell)
        mul[a], mul[b] = mul[b], mul[a]
    else:
        e = data.draw(st.integers(0, n - 1))
    if _reference_ok(mul, length, den, e):
        table = T_.TableMetricGroup(mul, length, den, e, labels)
        assert table.mul_table.tolist() == mul
        assert [Fraction(x, table.den) for x in table.length_table.tolist()] \
            == [Fraction(x, den) for x in length]
    else:
        with pytest.raises(ValueError):
            T_.TableMetricGroup(mul, length, den, e, labels)


def _set_length(j, value):
    return lambda o: o["length"].__setitem__(j, value)


def _products(obj):
    """The n x n products of a table object, as a list of rows."""
    n = len(obj["labels"])
    return np.frombuffer(base64.b64decode(obj["mul"], validate=True),
                         dtype="<i4").reshape(n, n).tolist()


def _set_product(a, b, value):
    def mutate(obj):
        M = _products(obj)
        M[a][b] = value
        obj["mul"] = T_._images_json(M)
    return mutate


def _set_entries(resize):
    """The products written as the entries resize(entries), packed."""
    def mutate(obj):
        entries = sum(_products(obj), [])
        obj["mul"] = T_._images_json(resize(entries))
    return mutate


def _old_dist_pairs(obj):
    """The form with a dist table of [numerator, denominator] pairs."""
    length, den = obj.pop("length"), obj.pop("den")
    M = _products(obj)
    inv = [row.index(obj["identity"]) for row in M]
    obj["dist"] = [[[length[M[inv[a]][b]], den] for b in range(len(M))]
                   for a in range(len(M))]


_B64_DIGITS = (string.ascii_uppercase + string.ascii_lowercase
               + string.digits + "+/")


def _padding_bits_set(obj):
    """The table of Z/2, whose 16 bytes of products end in "==": the digit
    before the padding carries 4 padding bits, here one set. Lenient
    base64 decodes it to the same bytes."""
    obj.update(T_.trivial_metric_group(G_.FiniteCyclic(2)).to_json())
    text = obj["mul"]
    assert text.endswith("==") and _B64_DIGITS.index(text[-3]) % 16 == 0
    bent = text[:-3] + _B64_DIGITS[_B64_DIGITS.index(text[-3]) + 1] + "=="
    assert base64.b64decode(bent) == base64.b64decode(text)
    obj["mul"] = bent


# formats no writer produces, and tables whose numbers leave int64
_BAD_TABLE_JSON = {
    # a dist table of bare integers beside the lengths
    "bare-integer-distance":
        lambda o: o.update(dist=[[int(a != b) for b in range(3)]
                                 for a in range(3)]),
    "float-distance": _set_length(1, 1.0),
    "bool-numerator": _set_length(1, True),
    "zero-denominator": lambda o: o.update(den=0),
    "triple": _set_length(1, [1, 1, 1]),
    "beyond-int64": _set_length(1, 2 ** 64),
    # a denominator beyond int64
    "common-denominator-beyond-int64":
        lambda o: o.update(den=2 ** 40 * 3 ** 25),
    # a product outside range(n); packed, no product can be a string
    "string-product": _set_product(0, 1, 3),
    "negative-product": _set_product(1, 2, -1),
    # the products are one canonical base64 string of n^2 int32
    "nested-list-mul": lambda o: o.update(mul=_products(o)),
    "int-mul": lambda o: o.update(mul=12),
    "non-base64-mul": lambda o: o.update(mul="not base64!"),
    "noncanonical-base64-mul": _padding_bits_set,
    "n-squared-minus-one-products": _set_entries(lambda xs: xs[:-1]),
    "n-plus-one-squared-products":
        _set_entries(lambda xs: xs + [0] * (4 ** 2 - 3 ** 2)),
    "no-labels": lambda o: o.pop("labels"),
    # one JSON string per element, nothing else
    "int-labels": lambda o: o.update(labels=[0, 1, 2]),
    "mixed-labels": lambda o: o["labels"].__setitem__(1, None),
    "one-string-labels": lambda o: o.update(labels="012"),
    "no-identity": lambda o: o.pop("identity"),
    "float-identity": lambda o: o.update(identity=0.0),
    "old-dist-pairs": _old_dist_pairs,
    "no-length": lambda o: o.pop("length"),
    "no-den": lambda o: o.pop("den"),
    "float-den": lambda o: o.update(den=1.0),
    "bool-den": lambda o: o.update(den=True),
    "extra-key": lambda o: o.update(junk=1),
    "kind-nope": lambda o: o.update(kind="nope"),
    "length-of-two": lambda o: o["length"].pop(),
    "length-not-a-list": lambda o: o.update(length=1),
    # the writer brings the lengths and den to lowest terms
    "common-factor": lambda o: o.update(length=[0, 2, 2], den=2),
}


# the refusal each case of the products meets, not an earlier one
_BAD_PRODUCTS_ERROR = {
    "string-product": "product out of range",
    "negative-product": "product out of range",
    "nested-list-mul": "must be a base64 string, not list",
    "int-mul": "must be a base64 string, not int",
    "non-base64-mul": "are not base64",
    "noncanonical-base64-mul": "not canonical base64",
    "n-squared-minus-one-products": r"8 table products are not 3\^2",
    "n-plus-one-squared-products": r"16 table products are not 3\^2",
}


@pytest.mark.parametrize("case", _BAD_TABLE_JSON)
def test_table_json_rejects_unwritten_formats(case):
    obj = T_.trivial_metric_group(G_.FiniteCyclic(3)).to_json()
    assert T_.TableMetricGroup.from_json(obj).to_json() == obj
    _BAD_TABLE_JSON[case](obj)
    with pytest.raises((ValueError, KeyError, OverflowError),
                       match=_BAD_PRODUCTS_ERROR.get(case)):
        T_.TableMetricGroup.from_json(obj)


def _relabelled(table, data):
    """The table with its elements renumbered by a drawn permutation."""
    s = np.array(data.draw(st.permutations(range(table.order))))
    t = np.argsort(s)  # element i becomes s[i]; t undoes it
    return T_.TableMetricGroup(s[table.mul_table[np.ix_(t, t)]],
                               table.length_table[t], table.den,
                               int(s[table.identity_index]),
                               [table.labels[i] for i in t])


def _wreath_reference(base, H):
    """base wr H for a catalog finite group H, pair by pair: payloads (f, h)
    over H's elements sorted by key, in sorted order, with
    (f0, h0)(f1, h1) = (t -> f0(h1 t) f1(t), h0 h1), the max/jump metric
    and the support labels."""
    top = sorted(H.elements(), key=H.key)
    at = {x: i for i, x in enumerate(top)}
    payloads = sorted(itertools.product(
        itertools.product(range(base.order), repeat=len(top)),
        range(len(top))))

    def mul(p, q):
        (f0, h0), (f1, h1) = p, q
        f = tuple(base.mul_table.item(f0[at[H.mul(top[h1], t)]], f1[i])
                  for i, t in enumerate(top))
        return f, at[H.mul(top[h0], top[h1])]

    def dist(p, q):
        if p[1] != q[1]:
            return Fraction(1)
        return max(base.element(x).dist(base.element(y))
                   for x, y in zip(p[0], q[0]))

    def label(p):
        f, h = p
        return "{" + ",".join(f"{H.fmt(top[i])}:{base.labels[x]}"
                              for i, x in enumerate(f)
                              if x != base.identity_index) \
            + "|" + H.fmt(top[h]) + "}"
    return payloads, mul, dist, label


def _wreath_group(base, H):
    """base wr H as a table group, built from _wreath_reference pair by
    pair."""
    payloads, mul, dist, label = _wreath_reference(base, H)
    idx = {p: i for i, p in enumerate(payloads)}
    top = sorted(H.elements(), key=H.key)
    e = ((base.identity_index,) * len(top), top.index(H.identity()))
    return T_.TableMetricGroup(
        [[idx[mul(p, q)] for q in payloads] for p in payloads],
        [int(dist(e, p) * base.den) for p in payloads], base.den, idx[e],
        [label(p) for p in payloads])


_ROUND_TRIP_TABLES = {
    "Z/m": st.integers(1, 12).map(
        lambda m: T_.trivial_metric_group(G_.FiniteCyclic(m))),
    "Sym(3)": st.sampled_from([T_.trivial_metric_group(G_.FiniteSym(3)),
                               T_.TableMetricGroup(*_sym3_hamming())]),
    "Heisenberg(1) mod p": st.sampled_from([2, 3, 5]).map(
        lambda p: T_.trivial_metric_group(
            G_.CongruenceMod(G_.Heisenberg(1), p))),
    "Z/2 wr Z/3": st.just(_wreath_group(
        T_.trivial_metric_group(G_.FiniteCyclic(2)), G_.FiniteCyclic(3))),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_ROUND_TRIP_TABLES)), st.data())
def test_table_json_round_trips(kind, data):
    """from_json(to_json(T)) is T, field by field, for tables of each
    kind with their elements renumbered at random."""
    table = _relabelled(data.draw(_ROUND_TRIP_TABLES[kind]), data)
    obj = json.loads(json.dumps(table.to_json()))
    back = T_.TableMetricGroup.from_json(obj)
    for field in ("mul_table", "length_table", "inv_table"):
        assert np.array_equal(getattr(back, field), getattr(table, field))
        assert getattr(back, field).dtype == np.int64
    assert (back.den, back.labels, back.identity_index) \
        == (table.den, table.labels, table.identity_index)
    assert back.to_json() == obj


def test_table_common_denominator_round_trips():
    table = T_.TableMetricGroup(*_sym3_hamming())
    obj = table.to_json()
    assert obj["den"] == 3 and sorted(set(obj["length"])) == [0, 2, 3]
    back = T_.TableMetricGroup.from_json(obj)
    assert back.den == 3 and back.to_json() == obj
    assert back.element(0).dist(back.element(5)) \
        == table.element(0).dist(table.element(5)) == Fraction(2, 3)


def test_table_lengths_are_kept_in_lowest_terms():
    mul, length, den, e, labels = _sym3_hamming()
    table = T_.TableMetricGroup(mul, [4 * x for x in length], 4 * den, e,
                                labels)
    assert table.den == 3 and table.length_table.tolist() == length
    assert table.to_json() == T_.TableMetricGroup(*_sym3_hamming()).to_json()


def test_table_json_is_json_native():
    obj = T_.TableMetricGroup(*_sym3_hamming()).to_json()
    assert json.loads(json.dumps(obj)) == obj
    assert {type(x) for x in obj["length"]} == {int}
    # one string of n^2 int32, n = 6
    assert type(obj["mul"]) is str
    assert _products(obj) == _sym3_hamming()[0]
    assert type(obj["den"]) is int and type(obj["identity"]) is int


# trivial tables of Z/m and Sym(3), the Sym(3) Hamming table (distances
# over 3) and a wreath table (order 72, distances over 3)
_ROW_TABLES = {
    **{f"Z/{m}": (lambda m=m: T_.trivial_metric_group(G_.FiniteCyclic(m)))
       for m in (1, 2, 5)},
    "Sym3": lambda: T_.trivial_metric_group(G_.FiniteSym(3)),
    "Sym3-Hamming": lambda: T_.TableMetricGroup(*_sym3_hamming()),
    "Sym3-Hamming-wr-Z2": lambda: _wreath_group(
        T_.TableMetricGroup(*_sym3_hamming()), G_.FiniteCyclic(2)),
}


@functools.lru_cache(maxsize=None)
def _row_table(name):
    return _ROW_TABLES[name]()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_table_rows_equal_the_element_reference(data):
    """take, mul (1 x m, m x 1, m x m), inv and extreme (max and min) of
    table rows give FiniteGroupElement's values row by row, and the first
    position of the extreme."""
    G = _row_table(data.draw(st.sampled_from(sorted(_ROW_TABLES))))
    index = st.integers(0, G.order - 1)
    count = data.draw(st.integers(1, 8))
    elems = [G.element(i) for i in data.draw(
        st.lists(index, min_size=count, max_size=count))]
    rows = T_.batch(elems)
    assert isinstance(rows, T_._TableRows) and len(rows) == count
    slot = st.integers(0, count - 1)
    m = data.draw(st.integers(1, 8))
    js, us = (data.draw(st.lists(slot, min_size=m, max_size=m))
              for _ in range(2))
    i = data.draw(slot)

    def check(got, want):
        assert [got.target(r) for r in range(len(got))] == want
        assert [got.to_json(r) for r in range(len(got))] \
            == [w.to_json() for w in want]
        assert {type(got.to_json(r)["index"]) for r in range(len(got))} \
            == {int}
        scalar = [w.dist(elems[u]) for w, u in zip(want, us)]
        for pick in (max, min):
            value, r = got.extreme(rows.take(us), pick)
            assert value == pick(scalar) and r == scalar.index(value)
        value, r = got.take([0]).extreme(rows.take(us), max)
        assert r == [want[0].dist(elems[u]) for u in us].index(value)

    check(rows.take(js), [elems[j] for j in js])
    check(rows.take([i]).mul(rows.take(js)),
          [elems[i].mul(elems[j]) for j in js])
    check(rows.take(js).mul(rows.take([i])),
          [elems[j].mul(elems[i]) for j in js])
    check(rows.take(js).mul(rows.take(us)),
          [elems[j].mul(elems[u]) for j, u in zip(js, us)])
    check(rows.take(js).inv(), [elems[j].inv() for j in js])


def test_table_rows_refuse_what_elements_refuse():
    G, H = _row_table("Sym3"), T_.trivial_metric_group(G_.FiniteSym(3))
    rows = T_.batch([G.element(1), G.element(2)])
    with pytest.raises(ValueError, match="different finite group"):
        rows.mul(T_.batch([H.element(1)]))
    with pytest.raises(ValueError, match="cannot pair"):
        rows.mul(T_.batch([G.element(1)] * 3))
    with pytest.raises(TypeError, match="projective"):
        rows.extreme(rows, max, projective=True)
    # elements of two tables stay objects, for the certificate to refuse
    assert isinstance(T_.batch([G.element(1), H.element(1)]), T_._ScalarRows)
    for index in ([0, 6], [-1], [True]):
        with pytest.raises(ValueError):
            T_.rows_from_json([{"kind": "fin", "index": i} for i in index],
                              fin_group=G)
    assert T_.rows_from_json([{"kind": "fin", "index": i} for i in (5, 0)],
                             fin_group=G).x.tolist() == [5, 0]
    with pytest.raises(ValueError, match="read-only"):
        rows.x[0] = 0


# ---------------------------------------------------------------------------
# permutation images on disk

def _packed(images):
    """The image string of images, packed here without the program."""
    return base64.b64encode(struct.pack(f"<{len(images)}i", *images)).decode()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda k: st.lists(st.permutations(range(k)), min_size=1, max_size=4)))
def test_images_json_round_trips(rows):
    """k = 1..9 takes every number of padding characters: 4k bytes leave
    (-4k) mod 3 of them."""
    texts = [T_._images_json(r) for r in rows]
    k = len(rows[0])
    for text, r in zip(texts, rows):
        assert text == _packed(r)
        assert text.count("=") == -4 * k % 3
    P = T_._images_array(texts)
    assert P.dtype == np.int32 and P.tolist() == [list(r) for r in rows]
    assert not P.flags.writeable
    assert T_._images_json(P[0]) == texts[0]


def _flipped_padding_bit(text):
    stem = text.rstrip("=")
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz" \
        "0123456789+/"
    return stem[:-1] + alphabet[alphabet.index(stem[-1]) + 1] \
        + text[len(stem):]


# each is refused; the valid rows are [1, 0] and [0, 1, 2] (no padding)
_BAD_IMAGES = {
    "list": [[1, 0]],
    "int": [5],
    "null": [None],
    "empty": [""],
    "three-bytes": ["AAAA"],
    "six-bytes": ["AAAAAAAA"],
    "not-base64": ["x"],
    "padding-dropped": [_packed([1, 0]).rstrip("=")],
    "padding-bits-set": [_flipped_padding_bit(_packed([1, 0]))],
    "padding-bits-set-two-pads": [_flipped_padding_bit(_packed([0]))],
    "line-break": [_packed([0, 1, 2])[:4] + "\n" + _packed([0, 1, 2])[4:]],
    "trailing-newline": [_packed([0, 1, 2]) + "\n"],
    "space": [" " + _packed([0, 1, 2])],
    "url-safe-alphabet": [_packed([0, 1, 2]).replace("A", "-")],
    "beyond-ascii": [_packed([0, 1, 2])[:-1] + "\u00c1"],
    "degrees-differ": [_packed([1, 0]), _packed([0, 1, 2])],
    "out-of-range": [_packed([0, 2])],
    "negative": [_packed([0, -1])],
    "repeated": [_packed([1, 1])],
    "one-bad-row": [_packed([1, 0]), _packed([0, 0])],
}


def _reencodes(text):
    """The full check _int32_bytes once made: the text decodes strictly
    and its bytes, a nonzero multiple of 4, encode back to all of it."""
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError:
        return False
    return base64.b64encode(data).decode() == text and data \
        and not len(data) % 4


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=14), st.data())
def test_int32_bytes_refuses_what_a_full_reencode_refuses(data, draw):
    """The last quantum and the length decide as the full re-encode does,
    on a text and on each single-character edit of it: one character
    replaced, put in or taken out, padding characters among them."""
    text = base64.b64encode(data).decode()
    at = draw.draw(st.integers(0, len(text)))
    char = draw.draw(st.sampled_from(
        "AQgw+/=9\n" + string.ascii_letters[::7]))
    edit = draw.draw(st.sampled_from(["none", "replace", "insert",
                                      "delete"]))
    if edit == "replace" and at < len(text):
        text = text[:at] + char + text[at + 1:]
    elif edit == "insert":
        text = text[:at] + char + text[at:]
    elif edit == "delete":
        text = text[:at] + text[at + 1:]
    try:
        T_._int32_bytes(text, "images")
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == bool(_reencodes(text)), text


@pytest.mark.parametrize("case", _BAD_IMAGES)
def test_images_array_refuses_what_the_writer_never_writes(case):
    with pytest.raises(ValueError):
        T_._images_array(_BAD_IMAGES[case])
    rows = [{"kind": "perm", "images": t} for t in _BAD_IMAGES[case]]
    with pytest.raises(ValueError):
        T_.rows_from_json(rows)
    if len(rows) == 1:
        with pytest.raises(ValueError):
            T_.target_from_json(rows[0])


def test_images_of_every_kind_are_one_string():
    perm = T_.Permutation([2, 0, 1])
    text = _packed([2, 0, 1])
    assert perm.to_json() == {"kind": "perm", "images": text}
    assert T_.PermUnitary(perm).to_json()["images"] == text
    rows = T_.batch([perm, T_.Permutation([0, 1, 2])])
    assert rows.to_json(0) == perm.to_json()
    # the older list form is refused wherever images are read
    for obj in ([2, 0, 1], {"kind": "perm", "images": [2, 0, 1]},
                {"kind": "perm-unitary", "images": [2, 0, 1]}):
        with pytest.raises(ValueError):
            T_.target_from_json(obj)
        with pytest.raises(ValueError):
            T_.rows_from_json([obj])


def _one_target_of_each_kind():
    """kind -> (target, its table group or None)."""
    perm = T_.Permutation([2, 0, 1])
    G = T_.trivial_metric_group(G_.FiniteCyclic(3))
    return {
        "perm": (perm, None),
        "cyclic-perm": (T_.CyclicPerm(3, 1), None),
        "perm-unitary": (T_.PermUnitary(perm), None),
        "unitary": (T_.UnitaryMatrix(np.eye(2)), None),
        "augmented-unitary": (T_.AugmentedUnitary(T_.PermUnitary(perm), 2),
                              None),
        "tensor-implicit": (T_.ImplicitTensorUnitary(T_.PermUnitary(perm), 2),
                            None),
        "rank": (T_.RankMatrix([[1, 2], [3, 4]], T_.FieldQ()), None),
        "fin": (G.element(1), G),
    }


@pytest.mark.parametrize("kind", _one_target_of_each_kind())
def test_target_keys_are_exactly_the_writers(kind):
    """A target decodes with exactly the keys its writer writes, a
    unitary's tolerance optional; one key more or less is refused."""
    el, group = _one_target_of_each_kind()[kind]
    obj = el.to_json()
    assert obj["kind"] == kind
    assert T_.target_from_json(obj, group).to_json() == obj
    assert T_.rows_from_json([obj], group).to_json(0) == obj
    variants = [{**obj, "junk": 1}, {**obj, "tolerance": 2}]
    variants += [{k: v for k, v in obj.items() if k != key}
                 for key in obj if key not in ("kind", "tolerance")]
    for bad in variants:
        with pytest.raises(ValueError):
            T_.target_from_json(bad, group)
        with pytest.raises(ValueError):
            T_.rows_from_json([bad], group)
    if "tolerance" in obj:
        lax = {k: v for k, v in obj.items() if k != "tolerance"}
        assert T_.target_from_json(lax).to_json() == obj
    else:
        # only a unitary may restate the tolerance
        with pytest.raises(ValueError):
            T_.target_from_json({**obj, "tolerance": T_.UNITARY_TOLERANCE},
                                group)


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
