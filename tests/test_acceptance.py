"""End-to-end acceptance checks, one test per headline guarantee.

Each test pins the advertised numbers at the advertised tolerance and
asserts its own wall-clock budget so a slow regression fails loudly.
Run with -v to get one pass/fail line per guarantee.
"""

import base64
import json
import math
import random
import string
import time
from fractions import Fraction

import numpy as np

from groupapprox import certify as C_
from groupapprox import cli
from groupapprox import construct as X_
from groupapprox import groups as G_
from groupapprox import profiles as P_
from groupapprox import targets as T_
from test_targets import dense_tensor

Z = G_.FreeAbelian(1)
Z2 = G_.FreeAbelian(2)
H1 = G_.Heisenberg(1)


def _within(t0, budget):
    dt = time.monotonic() - t0
    assert dt < budget, f"exceeded {budget}s budget: {dt:.2f}s"


def _rand_perm(rng, k):
    images = list(range(k))
    rng.shuffle(images)
    return T_.Permutation(images)


def _rand_unitary(rng, k):
    g = np.random.default_rng(rng.randrange(2 ** 32))
    z = g.normal(size=(k, k)) + 1j * g.normal(size=(k, k))
    q, _ = np.linalg.qr(z)
    return T_.UnitaryMatrix(q)


def test_01_weakly_sofic_profile_of_Z_is_2n_plus_1_up_to_50():
    t0 = time.monotonic()
    for n in range(1, 51):
        pt = P_.weakly_sofic_exact_Z(n)
        assert pt.value == 2 * n + 1 and pt.provenance == "exact"
        # lower bound: the ball injects into any good enough finite image
        assert G_.growth(Z, n) == 2 * n + 1
    # upper bound met by the cyclic quotient of matching order
    for n in (1, 5, 25, 50):
        c = X_.from_quotient(Z, G_.LatticeHNF(Z, [(2 * n + 1,)]), n, "fin")
        assert c.dimension == 2 * n + 1
        assert C_.verify_D(c).passed
    _within(t0, 1.0)


def test_02_cyclic_certificates_verify_exactly_up_to_n_200():
    t0 = time.monotonic()
    for n in range(1, 201):
        c = X_.cyclic_Z(n)
        rep = C_.verify_D(c)
        assert rep.passed
        assert rep.defect == 0
        assert rep.separation == 1
        assert c.dimension == 2 * n + 1
    _within(t0, 5.0)


def test_02_cyclic_certificate_at_n_20000_keeps_its_shifts_implicit():
    """40,001 shifts of Z/40001 build and verify in closed form: no image
    of 40,001 points is ever built."""
    t0 = time.monotonic()
    c = X_.cyclic_Z(20000)
    assert isinstance(c.target((20000,)), T_.CyclicPerm)
    rep = C_.verify_D(c)
    assert rep.passed and rep.defect == 0 and rep.separation == 1
    assert c.dimension == 40001
    _within(t0, 5.0)


def test_03_minimal_sofic_dimension_of_Z_at_radius_one_is_three():
    t0 = time.monotonic()
    pt = P_.sofic_exact_oracle(Z, 1, k_max=3)
    assert pt.value == 3 and pt.provenance == "exact"
    # degrees 1 and 2 refuted by exhausting all assignments
    assert pt.detail["refuted"] == [1, 2]
    _within(t0, 60.0)


def test_04_folner_value_of_Z_at_one_is_four_and_intervals_convert():
    t0 = time.monotonic()
    out = P_.folner_search(Z, 1, strategy="exhaustive", r_max=4, size_max=4)
    assert out.size == 4 and out.exact
    assert out.witness.members == ((0,), (1,), (2,), (3,))
    for n in range(1, 11):
        w = P_.interval_witness_Z(n)
        assert w.defect <= Fraction(1, n)
        assert len(w.members) <= 2 * n * n * (n + 1)
        if n >= 2:  # conversion needs validity at twice the target radius
            c = X_.folner_to_sofic(w)
            assert c.dimension == len(w.members)
            assert C_.verify_D(c).passed
    _within(t0, 60.0)


def test_05_metric_identities_hamming_hs_rank_and_trace():
    t0 = time.monotonic()
    rng = random.Random(20260823)

    # d_Ham = (1/2) d_HS^2 on permutations, dense numpy spot checks included
    for i in range(10_000):
        k = rng.randrange(2, 65)
        a, b = _rand_perm(rng, k), _rand_perm(rng, k)
        dham = T_.ham_distance(a, b)
        dhs = T_.hs_distance(T_.PermUnitary(a), T_.PermUnitary(b))
        assert abs(float(dham) - 0.5 * dhs * dhs) < 1e-9
        if i % 50 == 0:
            ma = np.eye(k)[list(a.images)]
            mb = np.eye(k)[list(b.images)]
            assert abs(np.linalg.norm(ma - mb) / math.sqrt(k) - dhs) < 1e-9

    # rank sandwich d_rank <= d_Ham <= 2 d_rank, exact over Q and F_2
    for field in (T_.FieldQ(), T_.FieldFp(2)):
        for _ in range(1000):
            k = rng.randrange(2, 9)
            a, b = _rand_perm(rng, k), _rand_perm(rng, k)
            dr = T_.rank_distance(T_.perm_to_rank(a, field),
                                  T_.perm_to_rank(b, field))
            dh = T_.ham_distance(a, b)
            assert dr <= dh <= 2 * dr

    # block sums average distances with dimension weights
    FQ = T_.FieldQ()
    for _ in range(200):
        k1, k2 = rng.randrange(2, 9), rng.randrange(2, 9)
        a, c = _rand_perm(rng, k1), _rand_perm(rng, k1)
        b, d = _rand_perm(rng, k2), _rand_perm(rng, k2)
        dh = T_.ham_distance(T_.block_sum(a, b), T_.block_sum(c, d))
        assert dh == (k1 * T_.ham_distance(a, c)
                      + k2 * T_.ham_distance(b, d)) / (k1 + k2)
        dr = T_.rank_distance(T_.block_sum(T_.perm_to_rank(a, FQ),
                                           T_.perm_to_rank(b, FQ)),
                              T_.block_sum(T_.perm_to_rank(c, FQ),
                                           T_.perm_to_rank(d, FQ)))
        assert dr == (k1 * T_.rank_distance(T_.perm_to_rank(a, FQ),
                                            T_.perm_to_rank(c, FQ))
                      + k2 * T_.rank_distance(T_.perm_to_rank(b, FQ),
                                              T_.perm_to_rank(d, FQ))) \
            / (k1 + k2)
    for _ in range(30):
        k1, k2 = rng.randrange(2, 9), rng.randrange(2, 9)
        a, c = _rand_unitary(rng, k1), _rand_unitary(rng, k1)
        b, d = _rand_unitary(rng, k2), _rand_unitary(rng, k2)
        lhs = T_.hs_distance(T_.block_sum(a, b), T_.block_sum(c, d)) ** 2
        rhs = (k1 * T_.hs_distance(a, c) ** 2
               + k2 * T_.hs_distance(b, d) ** 2) / (k1 + k2)
        assert abs(lhs - rhs) < 1e-9

    # projective distance to the identity from the trace alone
    for _ in range(200):
        k = rng.randrange(2, 17)
        u = _rand_unitary(rng, k)
        d = T_.projective_hs_distance(u, T_.UnitaryMatrix.identity(k))
        tau = abs(complex(np.trace(u.entries)) / k)
        assert abs(d * d - (2.0 - 2.0 * tau)) < 1e-9
    for _ in range(100):
        k = rng.randrange(2, 33)
        p = _rand_perm(rng, k)
        u = T_.PermUnitary(p)
        d = T_.projective_hs_distance(
            u, T_.PermUnitary(T_.Permutation.identity(k)))
        tau = complex(np.trace(T_.perm_to_unitary(p).entries)).real / k
        assert abs(d * d - (2.0 - 2.0 * tau)) < 1e-9
    _within(t0, 30.0)


def test_06_induction_from_index_two_subgroup_with_cocycles():
    t0 = time.monotonic()
    data = G_.index_subgroup_of_Z(2)
    c_H = X_.cyclic_Z(6)
    for n in (1, 2, 3):
        c = X_.induce_finite_index(Z, data, c_H, n=n)
        assert c.dimension == 2 * c_H.dimension
        assert C_.verify_D(c).passed
    # section cocycle: permutation part composes, carry part twists
    data3 = G_.index_subgroup_of_Z(3)
    rng = random.Random(61)
    B = list(G_.ball(Z, 8))
    for _ in range(1000):
        g = B[rng.randrange(len(B))]
        k = B[rng.randrange(len(B))]
        a_g, h_g = X_.induction_data(data3, g)
        a_k, h_k = X_.induction_data(data3, k)
        a_gk, h_gk = X_.induction_data(data3, Z.mul(g, k))
        for i in range(data3.index):
            assert a_gk[i] == a_g[a_k[i]]
            assert h_gk[i] == data3.sub.mul(h_g[a_k[i]], h_k[i])
    _within(t0, 10.0)


def test_07_full_rf_growth_Z_Z2_exact_and_heisenberg_slope():
    t0 = time.monotonic()
    for n in range(1, 31):
        pt = P_.full_rf_growth(Z, n)
        assert pt.value == n + 1 and pt.provenance == "exact"
    expected_Z2 = {1: 2, 2: 5, 3: 8, 4: 13, 5: 18, 6: 25}
    for n in range(1, 7):
        pt = P_.full_rf_growth(Z2, n)
        assert pt.value == expected_Z2[n] and pt.provenance == "exact"
        assert n * n / 2 <= pt.value <= (n + 1) ** 2
    curve = P_.ProfileCurve("Heisenberg(1)", "rf")
    for n in range(3, 9):
        curve.add(P_.full_rf_growth(H1, n))
    fit = curve.fit_slope((3, 8))
    assert 5.2 <= fit["slope"] <= 6.8
    _within(t0, 300.0)


def test_08_tensor_amplification_exponent_22_with_implicit_cert():
    t0 = time.monotonic()
    # independent recomputation of the power needed at n = 8
    delta = math.sqrt(2) / 160 - 1 / 12800
    assert math.ceil(math.log(1 / delta) / math.log(5 / 4)) == 22
    ell, got_delta = X_.amplification_exponent(8)
    assert ell == 22 and abs(got_delta - delta) < 1e-15
    # regular representation of Z/641, padded and raised to the 22nd power
    base = X_.from_quotient(Z, G_.LatticeHNF(Z, [(641,)]), 320, "hyp")
    cert = X_.amplify_projective(base, 8)
    assert C_.verify_D(cert).passed
    first = cert.target(Z.identity())
    assert isinstance(first, T_.ImplicitTensorUnitary) and first.power == 22
    # trace arithmetic agrees with materialized tensor powers at (k=2, l=2)
    rng = random.Random(8)
    for _ in range(5):
        ua = T_.AugmentedUnitary(_rand_unitary(rng, 2), pad=2)
        ub = T_.AugmentedUnitary(_rand_unitary(rng, 2), pad=2)
        ia = T_.ImplicitTensorUnitary(ua, 2)
        ib = T_.ImplicitTensorUnitary(ub, 2)
        da, db = dense_tensor(ia), dense_tensor(ib)
        assert abs(ia.dist(ib) - T_.hs_distance(da, db)) < 1e-9
        assert abs(ia.pdist(ib) - T_.projective_hs_distance(da, db)) < 1e-9
    _within(t0, 30.0)


def test_10_product_certificates_for_Z2_and_sofic_upper_slope():
    t0 = time.monotonic()
    for n in range(1, 6):
        c = X_.direct_product(X_.cyclic_Z(n), X_.cyclic_Z(n))
        assert c.dimension == (2 * n + 1) ** 2
        assert C_.verify_D(c).passed
    fit = P_.standard_curves("Z^2", 10)["sofic"].fit_slope((2, 10))
    assert 1.6 <= fit["slope"] <= 2.4
    _within(t0, 60.0)


def test_11_inequality_audit_clean_and_certificate_level_relations():
    t0 = time.monotonic()
    curves = {
        "Z": P_.standard_curves("Z"),
        "Z^2": P_.standard_curves("Z^2"),
        "Heisenberg(1)": P_.standard_curves("Heisenberg(1)"),
    }
    report = P_.inequality_audit(curves)
    assert report["pass"]
    assert report["violations"] == []
    assert report["points_compared"] == 91
    # word-level data at radius 3m gives element-level data at radius m
    h = C_.HomCertificate(Z, {"x1": T_.CyclicPerm(37, 1)}, "sofic")
    assert C_.verify_W(h, 9).passed
    c = C_.D_from_W(h, 3)
    back = C_.ApproxCertificate.loads(c.dumps())
    assert C_.verify_D(back).passed
    # element-level data at radius 3m^2 gives word-level data at radius m
    h2 = C_.W_from_D(X_.cyclic_Z(12), 2)
    assert C_.verify_W(h2, 2).passed
    # relator check is implied by the word check on the same images
    assert C_.verify_R(h2, 2).passed
    h3 = C_.HomCertificate.from_json(h2.to_json())
    assert C_.verify_W(h3, 2).passed
    _within(t0, 300.0)


def _perturbed_unitary_cert(m, theta):
    """Unitary certificate for Z with one diagonal phase injected; the worst
    pair defect is known in closed form."""
    base = {p: T_.perm_to_unitary(T_.CyclicPerm(m, p[0]))
            for p in G_.ball(Z, 2)}
    phases = np.eye(m, dtype=complex)
    phases[0, 0] = np.exp(1j * theta)
    base[(1,)] = T_.UnitaryMatrix(phases @ base[(1,)].entries, check=False)
    injected = 2.0 * math.sqrt(1.0 - math.cos(theta)) / math.sqrt(m)
    return C_.ApproxCertificate(Z, 2, "hyp", base), injected


def test_12_internal_consistency_suite_on_100_certificates():
    t0 = time.monotonic()
    certs = []
    for n in range(1, 41):
        certs.append((X_.cyclic_Z(n), None))
    for m in range(5, 25):
        certs.append((X_.from_quotient(Z, G_.LatticeHNF(Z, [(m,)]),
                                       1, "sofic"), None))
    for m in range(3, 8):
        lat = G_.LatticeHNF(Z2, [(m, 0), (0, m)])
        certs.append((X_.from_quotient(Z2, lat, 1, "sofic"), None))
    for j in (1, 2, 3):
        certs.append((X_.perm_to_hyp(X_.cyclic_Z(2 * j * j), j), None))
    for n in range(1, 5):
        certs.append((X_.perm_to_lin(X_.cyclic_Z(n), T_.FieldQ()), None))
        certs.append((X_.perm_to_lin(X_.cyclic_Z(n), T_.FieldFp(2)), None))
    for m in range(2, 12):
        certs.append((X_.exact_finite(G_.FiniteCyclic(m), 2), None))
    for n in range(1, 6):
        certs.append((X_.direct_product(X_.cyclic_Z(n), X_.cyclic_Z(n)),
                      None))
    for family in ("sofic", "fin"):
        certs.append((X_.exact_finite(G_.FiniteSym(3), 2, family), None))
    for n in (2, 3, 4):
        certs.append((X_.folner_to_sofic(P_.interval_witness_Z(n)), None))
    for m, theta in ((5, 0.05), (7, 0.1), (9, 0.02), (11, 0.15),
                     (6, 0.3), (8, 0.01), (10, 0.07)):
        certs.append(_perturbed_unitary_cert(m, theta))
    assert len(certs) >= 100
    for i, (cert, injected) in enumerate(certs):
        out = C_.lemma_consistency_suite(cert, max_len=3, samples=60,
                                         seed=i)
        assert out["pass"], (i, cert.family)
        if injected is not None:
            assert abs(float(out["epsilon0"]) - injected) < 1e-6
    _within(t0, 60.0)


def test_13_cli_reruns_byte_identical_and_any_mutation_caught(tmp_path,
                                                              capsys):
    t0 = time.monotonic()
    jobs = [
        ("construct", "--method", "cyclic-z", "--n", "3"),
        ("construct", "--method", "from-quotient", "--group", "Z^2",
         "--lattice", "1,3;0,8", "--n", "1"),
        ("profile", "--group", "Z", "--family", "fin", "--n", "1..4",
         "--format", "csv"),
        ("profile", "--group", "Z", "--family", "folner", "--n", "1..2",
         "--format", "json"),
        ("folner", "--group", "Z^2", "--n", "1", "--strategy", "boxes"),
        ("rfgrowth", "--group", "Z", "--n", "1..5"),
        ("audit", "--groups", "Z", "--n-max", "4"),
    ]
    for i, argv in enumerate(jobs):
        blobs = []
        for rep in (0, 1):
            path = tmp_path / f"job{i}_{rep}.out"
            code = cli.main([*argv, "--out", str(path)])
            capsys.readouterr()
            assert code == 0, argv
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1], argv
    # corrupting any single assignment must fail verification
    pristine = X_.cyclic_Z(2).dumps()
    count = len(json.loads(pristine)["assignments"])
    for idx in range(count):
        blob = json.loads(pristine)
        entry = blob["assignments"][idx]
        entry["target"]["shift"] = (entry["target"]["shift"] + 1) % 5
        mutated = C_.ApproxCertificate.loads(json.dumps(blob))
        assert not C_.verify_D(mutated).passed, entry["element"]
    _within(t0, 30.0)


# the README's construct examples, each as (file, construct argv)
_README_CERTIFICATES = [
    ("cert.json", ["--method", "cyclic-z", "--n", "3"]),
    ("q.json", ["--method", "from-quotient", "--group", "Z^2", "--lattice",
                "1,3;0,8", "--n", "1"]),
    ("fin.json", ["--method", "from-quotient", "--group", "Heisenberg(1)",
                  "--modulus", "5", "--n", "2", "--family", "fin"]),
    ("lin.json", ["--method", "perm-to-lin", "--input", "cert.json",
                  "--field", "F2"]),
    ("hyp.json", ["--method", "from-quotient", "--group", "Z", "--modulus",
                  "641", "--n", "320", "--family", "hyp"]),
    ("amp.json", ["--method", "amplify", "--input", "hyp.json", "--n", "8"]),
]


def _images_path(target):
    """The keys leading from a target object to its image string (that of
    a perm or perm-unitary target, or of one inside a tensor power or an
    augmented unitary), or None when it holds none."""
    if not isinstance(target, dict):
        return None
    if isinstance(target.get("images"), str):
        return ("images",)
    for key in ("base", "inner"):
        if key in target:
            rest = _images_path(target[key])
            return None if rest is None else (key, *rest)
    return None


_BASE64 = string.ascii_uppercase + string.ascii_lowercase + string.digits \
    + "+/"


def _row(text):
    """The images in an image string, decoded here without the program."""
    return np.frombuffer(base64.b64decode(text), dtype="<i4").tolist()


def _text(row):
    return base64.b64encode(np.array(row, dtype="<i4").tobytes()).decode()


def _padding_bits_set(text):
    """text with a bit set in the padding bits of its last character, which
    a lenient decoder ignores."""
    stem = text.rstrip("=")
    assert stem != text, "no padding bits to set"
    return stem[:-1] + _BASE64[_BASE64.index(stem[-1]) + 1] + text[len(stem):]


def _structural_mutations(obj):
    """(name, mutate) for each structural change of a certificate object:
    dropped, duplicated and retyped fields; in the image string of one
    target, a changed character, its padding dropped or its padding bits
    set, a line break, the images cut, grown, negated, repeated or out of
    range, and the older list form. Each must be refused."""
    def drop(*path):
        def mutate(o):
            for key in path[:-1]:
                o = o[key]
            o.pop(path[-1])
        return mutate

    def put(value, *path):
        def mutate(o):
            for key in path[:-1]:
                o = o[key]
            o[path[-1]] = value
        return mutate

    def images(change):
        """Replace the image string of assignment 1 by change(string)."""
        def mutate(o):
            t = o["assignments"][1]["target"]
            for key in path[:-1]:
                t = t[key]
            t[path[-1]] = change(t[path[-1]])
        return mutate

    def row(change):
        """Re-encode the images of assignment 1 after change(images)."""
        def edit(text):
            r = _row(text)
            change(r)
            return _text(r)
        return images(edit)

    out = [(f"drop-{key}", drop(key)) for key in
           ("n", "dimension", "family", "epsilon", "group", "assignments")]
    out += [("n-as-string", put("3", "n")), ("n-as-float", put(1.5, "n")),
            ("n-null", put(None, "n")),
            ("dimension-as-string", put("x", "dimension")),
            ("dimension-negative", put(-1, "dimension")),
            ("drop-element", drop("assignments", 1, "element")),
            ("element-as-int", put(5, "assignments", 1, "element")),
            ("target-as-string", put("x", "assignments", 1, "target")),
            ("target-without-kind", put({}, "assignments", 1, "target")),
            ("duplicate-assignment",
             lambda o: o["assignments"].append(dict(o["assignments"][1])))]
    target = obj["assignments"][1]["target"]
    if isinstance(target, dict):
        out += [("drop-kind", drop("assignments", 1, "target", "kind")),
                ("kind-as-int", put(5, "assignments", 1, "target", "kind"))]
    path = _images_path(target)
    if path is not None:
        full = ("assignments", 1, "target", *path)
        text = target
        for key in path:
            text = text[key]
        assert _text(_row(text)) == text
        k = len(_row(text))
        out += [("drop-images", drop(*full)),
                ("images-as-string", put("x", *full)),
                ("images-empty", put("", *full)),
                ("images-character-flipped", images(
                    lambda t: ("C" if t[0] == "B" else "B") + t[1:])),
                ("images-base64-truncated", images(lambda t: t[:-4])),
                ("images-padding-dropped", images(lambda t: t.rstrip("="))),
                ("images-padding-bits-set", images(_padding_bits_set)),
                ("images-line-break", images(lambda t: t[:8] + "\n" + t[8:])),
                ("images-as-list", images(_row)),
                ("row-truncated", row(lambda r: r.pop())),
                ("row-lengthened", row(lambda r: r.append(k))),
                ("row-negated", row(lambda r: r.__setitem__(
                    r.index(1), -1))),
                ("entry-out-of-range", row(lambda r: r.__setitem__(0, k))),
                ("entry-repeated", row(lambda r: r.__setitem__(0, r[1])))]
    return out


def test_13_structural_mutations_of_readme_certificates_fail_cleanly(
        tmp_path, monkeypatch, capsys):
    """Every structural mutation of every README certificate exits 1 (or 2)
    with no traceback; two distinct images swapped exit 2."""
    t0 = time.monotonic()
    monkeypatch.chdir(tmp_path)
    for name, argv in _README_CERTIFICATES:
        assert cli.main(["construct", *argv, "--out", name]) == 0
    capsys.readouterr()
    packed = set()
    for name, _ in _README_CERTIFICATES:
        pristine = json.loads((tmp_path / name).read_text())
        cases = _structural_mutations(pristine)
        if any(case == "images-padding-bits-set" for case, _ in cases):
            packed.add(name)

        def swap(o):
            a = o["assignments"]
            a[1]["target"], a[2]["target"] = a[2]["target"], a[1]["target"]
        assert pristine["assignments"][1]["target"] \
            != pristine["assignments"][2]["target"]
        cases.append(("rows-swapped", swap))
        for case, mutate in cases:
            obj = json.loads(json.dumps(pristine))
            mutate(obj)
            path = tmp_path / "mutated.json"
            path.write_text(json.dumps(obj))
            code = cli.main(["verify", "--cert", str(path)])
            out, err = capsys.readouterr()
            assert "Traceback" not in err, (name, case)
            if case == "rows-swapped":
                assert code == 2, (name, case)
            else:
                assert code == 1 and err.startswith("error: ") \
                    and out == "", (name, case, code, err)
    # every certificate with permutation images had them mutated
    assert packed == {"q.json", "hyp.json", "amp.json"}
    # a duplicated key: the last one read wins, and n = 4 leaves B(4)
    # without images
    text = (tmp_path / "q.json").read_text().replace('"n": 1', '"n": 1, "n": 4')
    (tmp_path / "mutated.json").write_text(text)
    assert cli.main(["verify", "--cert", str(tmp_path / "mutated.json")]) == 1
    assert "missing assignment" in capsys.readouterr().err
    _within(t0, 60.0)
