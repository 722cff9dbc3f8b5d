import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from groupapprox import certify as C_
from groupapprox import cli
from groupapprox import construct as X_
from groupapprox import groups as G_
from groupapprox import profiles as P_
from groupapprox import targets as T_

Z = G_.FreeAbelian(1)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# exit codes and argument handling

def test_ball_artifact(capsys):
    code, out, _ = run(capsys, "ball", "--group", "Z", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 5
    assert set(obj["elements"]) == {"0", "1", "-1", "2", "-2"}


def test_heisenberg_ball_artifact_is_pinned(capsys):
    code, out, _ = run(capsys, "ball", "--group", "Heisenberg(1)", "--n", "20")
    digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert digest == ("bbe38dacf76ef637413b071ef78a80d5"
                      "0d7de6412a3b23b0b6075bc3db203b7e")


def test_ball_cap_exit(capsys):
    code, _, err = run(capsys, "ball", "--group", "Z^2", "--n", "50",
                       "--cap", "10")
    assert code == 3
    assert "cap" in err


def test_profile_ball_cap_exit(capsys):
    # B(800) of Z^2 has 1,281,601 elements, past the default cap
    code, out, err = run(capsys, "profile", "--group", "Z^2", "--family",
                         "growth", "--n", "800")
    assert code == 3
    assert out == "" and err.startswith("resource cap: ")
    assert "Traceback" not in err


def _ball_cap(*args, **kwargs):
    raise G_.BallCapExceeded(G_.Heisenberg(1), 90, G_.DEFAULT_BALL_CAP)


@pytest.mark.parametrize("curve, argv", [
    ("standard_curves", ["audit", "--groups", "Heisenberg(1)",
                         "--n-max", "30"]),
    ("full_rf_growth", ["rfgrowth", "--group", "Heisenberg(1)",
                        "--n", "45"]),
])
def test_curve_ball_cap_exit(monkeypatch, capsys, curve, argv):
    monkeypatch.setattr(P_, curve, _ball_cap)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and err.startswith("resource cap: ")
    assert "Traceback" not in err


def test_ball_negative_radius_is_usage_error(capsys):
    code, out, err = run(capsys, "ball", "--group", "Z", "--n", "-1")
    assert code == 1
    assert out == "" and err.startswith("error: ")


def test_bad_group_is_usage_error(capsys):
    code, _, err = run(capsys, "ball", "--group", "E8", "--n", "1")
    assert code == 1 and "error" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "ball", "--group", "Z", "--n", "1",
                     "--frobnicate")
    assert code == 1


def test_exact_finite_on_a_large_cyclic_group(capsys):
    # B(1)'s three rows of Z/10^5, not its 10^10-entry product table
    start = time.perf_counter()
    code, out, _ = run(capsys, "construct", "--method", "exact-finite",
                       "--group", "Z/100000", "--n", "1")
    assert code == 0
    assert time.perf_counter() - start < 10.0
    assert json.loads(out)["dimension"] == 100000


def test_no_command_prints_help(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage" in err.lower()


# ---------------------------------------------------------------------------
# construct / verify round trips

def test_construct_verify_pipeline(tmp_path, capsys):
    cert = tmp_path / "c.json"
    code, out, _ = run(capsys, "construct", "--method", "cyclic-z",
                       "--n", "3", "--out", str(cert))
    assert code == 0
    summary = json.loads(out)
    assert summary["dimension"] == 7 and summary["n"] == 3
    code, out, _ = run(capsys, "verify", "--cert", str(cert))
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_catches_single_mutation(tmp_path, capsys):
    cert = tmp_path / "c.json"
    run(capsys, "construct", "--method", "cyclic-z", "--n", "3",
        "--out", str(cert))
    obj = json.loads(cert.read_text())
    for entry in obj["assignments"]:
        if entry["element"] == "1":
            entry["target"]["shift"] = 2
    cert.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--cert", str(cert))
    assert code == 2
    assert json.loads(out)["pass"] is False
    assert "verification failure: condition (1) fails" in err
    assert "witness ['-1', '1', '0']" in err
    assert "condition (2) fails" in err and "witness ['1', '2']" in err


_MALFORMED = {
    "empty-assignments": lambda o: o.update(assignments=[]),
    "missing-target": lambda o: o["assignments"][1].pop("target"),
    "missing-shift": lambda o: o["assignments"][1]["target"].pop("shift"),
    "unknown-group-kind": lambda o: o["group"].update(kind="NoSuchGroup"),
    "duplicate-element":
        lambda o: o["assignments"].append(dict(o["assignments"][2])),
    "element-outside-ball":
        lambda o: o["assignments"][-1].update(element="7"),
    # group parameters are exact JSON ints: true and 1.0 would read as Z
    "group-rank-bool": lambda o: o["group"]["params"].update(d=True),
    "group-rank-float": lambda o: o["group"]["params"].update(d=1.0),
}


def _identity_targets(obj, eps):
    """Send every element to the identity and claim separation ``eps``."""
    for entry in obj["assignments"]:
        entry["target"]["shift"] = 0
    obj["epsilon"] = eps


_MALFORMED.update({
    "epsilon-zero": lambda o: _identity_targets(o, 0),
    "epsilon-negative": lambda o: _identity_targets(o, -5),
    "epsilon-infinite": lambda o: _identity_targets(o, float("inf")),
})


def _become(obj, cert, family):
    """Replace the certificate object by that of ``cert``, whose targets
    pass in its own family, relabelled ``family``."""
    obj.clear()
    obj.update(cert.to_json(), family=family)


def _z2_certificate(family, identity, other, epsilon=None):
    return C_.ApproxCertificate(G_.FiniteCyclic(2), 3, family,
                                {0: identity, 1: other}, epsilon=epsilon)


# each passes verification in the metric its targets have but fails in the
# metric its family names, so it is refused before it is verified
_MALFORMED.update({
    # I and -I are 2 apart plainly but coincide projectively
    "family-with-suffix": lambda o: _become(o, _z2_certificate(
        "hyp-projective", T_.UnitaryMatrix(np.eye(2)),
        T_.UnitaryMatrix(-np.eye(2))), "hyp-projective(x)"),
    # moving 2 of 4 points is Hilbert-Schmidt distance 1, Hamming 1/2
    "unitary-targets-in-sofic-family": lambda o: _become(o, _z2_certificate(
        "hyp", T_.PermUnitary(T_.Permutation([0, 1, 2, 3])),
        T_.PermUnitary(T_.Permutation([1, 0, 2, 3])), epsilon=1), "sofic"),
})


def _fin_index(index):
    """exact_finite(Z/5, 2, "fin") with one assignment's index replaced."""
    def mutate(obj):
        _become(obj, X_.exact_finite(G_.FiniteCyclic(5), 2, "fin"), "fin")
        obj["assignments"][1]["target"]["index"] = index
    return mutate


def _fin_labels(labels):
    """exact_finite(Z/5, 2, "fin") with its table's labels replaced."""
    def mutate(obj):
        _become(obj, X_.exact_finite(G_.FiniteCyclic(5), 2, "fin"), "fin")
        obj["target_group"]["labels"] = labels
    return mutate


def _perm(images):
    """The JSON object of the permutation with these images."""
    return T_.Permutation(images).to_json()


def _f2_into_non_group(obj):
    """B(1) of F2 sent injectively into a 5-element table that has the
    identity and inverse laws and the 0/1 metric but sends every other
    product to element 1, so it is not associative. The check finds it
    first by its generators: x1 and x1^-1 reach only e, x1 and x1^-1, and
    in a group each generator at least doubles what the earlier ones
    reach, so a third is too many for 5 elements."""
    F2 = G_.Free(2)
    B = G_.ball(F2, 1)
    e = F2.identity()
    mul = [[B.index(F2.mul(p, q)) if e in (p, q, F2.mul(p, q)) else 1
            for q in B] for p in B]
    obj.clear()
    obj.update({
        "group": F2.descriptor(), "family": "fin", "epsilon": 1.0, "n": 1,
        "dimension": len(B),
        "target_group": {
            "kind": "table", "mul": T_._images_json(mul),
            "identity": B.index(e),
            "length": [int(p != e) for p in B], "den": 1,
            "labels": [F2.fmt(p) for p in B]},
        "assignments": [{"element": F2.fmt(p),
                         "target": {"kind": "fin", "index": i}}
                        for i, p in enumerate(B)]})


def _sym3_word_metric(obj):
    """exact_finite(Sym(3), 2, "fin") whose table carries the normalized
    word metric of the adjacent transpositions, which is left- but not
    right-invariant; at epsilon 1/2 both conditions would hold."""
    S3 = G_.FiniteSym(3)
    B = G_.ball(S3, 3)
    _become(obj, X_.exact_finite(S3, 2, "fin"), "fin")
    obj["target_group"].update(length=list(map(B.length, S3.elements())),
                               den=3)
    obj["epsilon"] = 0.5


def _fin_denominators_beyond_int64(obj):
    """A denominator that is the least common multiple of two that fit in
    int64, but does not itself fit."""
    _become(obj, X_.exact_finite(G_.FiniteCyclic(5), 2, "fin"), "fin")
    obj["target_group"]["den"] = 2 ** 40 * 3 ** 25


def _fin_table(**fields):
    """exact_finite(Z/5, 2, "fin"), whose elements 0..4 are in index
    order, with fields of its table replaced."""
    def mutate(obj):
        _become(obj, X_.exact_finite(G_.FiniteCyclic(5), 2, "fin"), "fin")
        obj["target_group"].update(fields)
    return mutate


def _sym3_one_short_transposition(obj):
    """exact_finite(Sym(3), 2, "fin") with length 1 at one transposition
    and 2 everywhere else off the identity: symmetric and subadditive, but
    not constant on the conjugacy class of transpositions."""
    S3 = G_.FiniteSym(3)
    _become(obj, X_.exact_finite(S3, 2, "fin"), "fin")
    e, s1 = S3.identity(), S3.generators()[0][1]
    obj["target_group"].update(
        length=[0 if p == e else 1 if p == s1 else 2 for p in S3.elements()],
        den=2)


def _fin_old_dist_pairs(obj):
    """exact_finite(Z/5, 2, "fin") with its table in the older form: a
    dist table of [numerator, denominator] pairs, no length or den."""
    _become(obj, X_.exact_finite(G_.FiniteCyclic(5), 2, "fin"), "fin")
    table = obj["target_group"]
    del table["length"], table["den"]
    table["dist"] = [[[int(a != b), 1] for b in range(5)] for a in range(5)]


def _fin_nested_list_mul(obj):
    """exact_finite(Z/5, 2, "fin") with its products in the older form:
    nested lists of JSON ints."""
    _become(obj, X_.exact_finite(G_.FiniteCyclic(5), 2, "fin"), "fin")
    obj["target_group"]["mul"] = [[(a + b) % 5 for b in range(5)]
                                  for a in range(5)]


def _sofic_with_target_group(obj):
    """cyclic_Z(2), a sofic certificate, carrying the table of Z/5."""
    obj["target_group"] = T_.trivial_metric_group(
        G_.FiniteCyclic(5)).to_json()


def _unitaries_on_Z(values, tolerance):
    """A hyp certificate on Z at n = 1 whose 1x1 "unitaries" at 0, 1 and -1
    are ``values``, each stating ``tolerance``."""
    def mutate(obj):
        obj.clear()
        obj.update({
            "group": Z.descriptor(), "family": "hyp", "epsilon": 0.5, "n": 1,
            "dimension": 1,
            "assignments": [{"element": g, "target": {
                "kind": "unitary", "k": 1, "entries": [[z.real, z.imag]],
                "tolerance": tolerance}}
                for g, z in zip(("0", "1", "-1"), map(complex, values))]})
    return mutate


# unitarity is checked at the verifier's tolerance, not the sender's: 0.8
# is unitary only within the stated 1.0, and 1.00000004 is off by 8e-8,
# above the 1e-9 it states; taken at their word, both verify
_MALFORMED["unitary-tolerance-loosened"] = _unitaries_on_Z((1, 0.8, 0.8), 1.0)
_MALFORMED["unitary-off-by-8e-8"] = _unitaries_on_Z((1.00000004, 1j, -1j),
                                                    T_.UNITARY_TOLERANCE)


# the verifier decides only in a checked group table; each of these would
# otherwise end in a traceback, in a wrapped index or in a pass
_MALFORMED.update({
    "fin-index-out-of-range": _fin_index(99),
    "fin-index-string": _fin_index("2"),
    "fin-index-negative": _fin_index(-1),
    "fin-index-bool": _fin_index(True),
    "fin-table-not-a-group": _f2_into_non_group,
    "fin-table-word-metric": _sym3_word_metric,
    "fin-table-denominators-beyond-int64": _fin_denominators_beyond_int64,
    "fin-table-int-labels": _fin_labels([0, 1, 2, 3, 4]),
    "fin-table-string-labels": _fin_labels("01234"),
    # a length is a conjugation-invariant norm in lowest terms over den
    "fin-table-not-conjugation-invariant": _sym3_one_short_transposition,
    "fin-table-asymmetric": _fin_table(length=[0, 1, 2, 2, 2], den=2),
    "fin-table-triangle-inequality": _fin_table(length=[0, 1, 4, 4, 1],
                                                den=4),
    "fin-table-zero-off-identity": _fin_table(length=[0, 1, 0, 0, 1]),
    "fin-table-length-above-den": _fin_table(length=[0, 1, 2, 2, 1]),
    "fin-table-common-factor": _fin_table(length=[0, 2, 2, 2, 2], den=2),
    "fin-table-old-dist-pairs": _fin_old_dist_pairs,
    "fin-table-nested-list-mul": _fin_nested_list_mul,
    # a received target_group is one the writer could have written
    "sofic-with-target-group": _sofic_with_target_group,
    "fin-table-kind-nope": _fin_table(kind="nope"),
    "fin-table-extra-key": _fin_table(junk=[1]),
})


# what stderr names for the table cases: the law that fails, or the form
_MALFORMED_ERROR = {
    "fin-table-not-a-group": "table is not a group: too many generators",
    "fin-table-word-metric": "not right-invariant",
    "fin-table-not-conjugation-invariant": "not conjugation-invariant",
    "fin-table-asymmetric": "not symmetric",
    "fin-table-triangle-inequality": "triangle inequality fails",
    "fin-table-nested-list-mul": "table products must be a base64 string",
}


def _z2_targets(family, dimension, identity, other):
    """Z/2 at n = 1 sending 0 to ``identity`` and 1 to ``other``, JSON
    targets that lie in two target groups of one dimension."""
    def mutate(obj):
        obj.clear()
        obj.update({
            "group": G_.FiniteCyclic(2).descriptor(), "family": family,
            "epsilon": 0.25, "n": 1, "dimension": dimension,
            "assignments": [{"element": "0", "target": identity},
                            {"element": "1", "target": other}]})
    return mutate


def _rank(field, entries):
    return {"kind": "rank", "field": field, "entries": entries}


# products or distances across two target groups would end in a traceback
_MALFORMED.update({
    "lin-mixed-fields": _z2_targets(
        "lin", 2, _rank("Q", [["1", "0"], ["0", "1"]]),
        _rank({"Fp": 2}, [["0", "1"], ["1", "0"]])),
    "lin-mixed-sizes": _z2_targets(
        "lin", 2, _rank("Q", [["1", "0"], ["0", "1"]]),
        _rank("Q", [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]])),
    "permutation-beside-cyclic-perm": _z2_targets(
        "sofic", 4, _perm([0, 1, 2, 3]), T_.CyclicPerm(3, 1).to_json()),
    # a kind outside the family, beside one of its kinds
    "permutation-beside-perm-unitary": _z2_targets(
        "sofic", 2, _perm([0, 1]),
        T_.PermUnitary(T_.Permutation([1, 0])).to_json()),
    # no writer writes the kind any more, so it is unknown
    "perm-wreath-kind-unknown": _z2_targets(
        "sofic", 4, _perm([0, 1, 2, 3]),
        {"kind": "perm-wreath", "perm": T_._images_json([1, 0]),
         "bells": [_perm([1, 0])] * 2}),
})



def _field_targets(field):
    """Z/2 over ``field`` sending 1 to the swap of two points."""
    return _z2_targets("lin", 2, _rank(field, [["1", "0"], ["0", "1"]]),
                       _rank(field, [["0", "1"], ["1", "0"]]))


# a field is exactly "Q" or {"Fp": p}, p a JSON int whose primality is decided
_MALFORMED.update({
    "lin-field-extra-key": _field_targets({"Fp": 2, "junk": [1]}),
    "lin-field-float-p": _field_targets({"Fp": 2.0}),
    "lin-field-beyond-decided-primality": _field_targets({"Fp": 2 ** 89 - 1}),
})

# a received target has exactly the keys its writer writes: one more key
# on the target of one element exits 1
_EXTRA_KEY = {
    "perm": lambda: X_.from_quotient(Z, G_.LatticeHNF(Z, [(5,)]), 2, "sofic"),
    "perm-unitary": lambda: X_.from_quotient(Z, G_.LatticeHNF(Z, [(5,)]), 2,
                                             "hyp"),
    "cyclic-perm": lambda: X_.cyclic_Z(2),
    "fin": lambda: X_.exact_finite(G_.FiniteCyclic(5), 2, "fin"),
}


@pytest.mark.parametrize("kind", _EXTRA_KEY)
def test_target_with_an_extra_key_is_usage_error(tmp_path, capsys, kind):
    obj = _EXTRA_KEY[kind]().to_json()
    assert obj["assignments"][1]["target"]["kind"] == kind
    path = tmp_path / "c.json"
    path.write_text(json.dumps(obj))
    code, _, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 0
    obj["assignments"][1]["target"]["junk"] = 1
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "junk" in err
    assert "Traceback" not in err


def test_perm_unitary_tolerance_may_be_left_out(tmp_path, capsys):
    obj = _EXTRA_KEY["perm-unitary"]().to_json()
    for a in obj["assignments"]:
        del a["target"]["tolerance"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 0 and json.loads(out)["pass"] is True


def _identity_images(obj, eps):
    obj["images"][0]["target"]["shift"] = 0
    obj["epsilon"] = eps


_MALFORMED_HOM = {
    "hom-empty-images": lambda o: o.update(images=[]),
    "hom-missing-images": lambda o: o.pop("images"),
    "hom-unknown-generator": lambda o: o["images"][0].update(generator="y1"),
    "hom-missing-relators": lambda o: o.pop("relators"),
    # x1^-1's image replaced: a second image of it is a duplicate generator
    "hom-mixed-dimension": lambda o: o["images"][1].update(
        target=T_.CyclicPerm(5, 1).to_json()),
    "hom-epsilon-zero": lambda o: _identity_images(o, 0),
    "hom-epsilon-negative": lambda o: _identity_images(o, -5),
    "hom-float-dimension": lambda o: o.update(dimension=7.0),
    "hom-permutation-beside-cyclic-perm": lambda o: o["images"][1].update(
        target=_perm([1, 2, 3, 0])),
}
_AT_N = {"at-n-above-n": "3", "at-n-zero": "0", "hom-at-n-zero": "0"}
_MALFORMED_ERROR.update({
    "hom-mixed-dimension": "distinct target groups: Sym(5), Sym(7)",
    "permutation-beside-cyclic-perm": "distinct target groups: Sym(3), "
                                      "Sym(4)",
    "hom-permutation-beside-cyclic-perm": "distinct target groups: Sym(4), "
                                          "Sym(7)",
    "permutation-beside-perm-unitary": "a PermUnitary target cannot be in a "
                                       "sofic certificate",
    "perm-wreath-kind-unknown": "unknown target kind 'perm-wreath'",
})


@pytest.mark.parametrize("case", [*_MALFORMED, *_MALFORMED_HOM, *_AT_N])
def test_malformed_certificate_is_usage_error(tmp_path, capsys, case):
    cert = tmp_path / "c.json"
    if case.startswith("hom-"):
        h = C_.HomCertificate(G_.FreeAbelian(1), {"x1": T_.CyclicPerm(7, 1)},
                              "sofic")
        obj = h.to_json()
        if case in _MALFORMED_HOM:
            _MALFORMED_HOM[case](obj)
            with pytest.raises(C_.CertificateError):
                C_.HomCertificate.from_json(obj)
        cert.write_text(json.dumps(obj))
        extra = ["--at-n", _AT_N.get(case, "2")]
    else:
        run(capsys, "construct", "--method", "cyclic-z", "--n", "2",
            "--out", str(cert))
        if case in _MALFORMED:
            obj = json.loads(cert.read_text())
            _MALFORMED[case](obj)
            with pytest.raises(C_.CertificateError):
                C_.ApproxCertificate.from_json(obj)
            cert.write_text(json.dumps(obj))
        extra = ["--at-n", _AT_N[case]] if case in _AT_N else []
    code, out, err = run(capsys, "verify", "--cert", str(cert), *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert _MALFORMED_ERROR.get(case, "") in err


def test_construct_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "construct", "--method", "from-quotient", "--group", "Z^2",
        "--lattice", "1,3;0,8", "--n", "1", "--out", str(a))
    run(capsys, "construct", "--method", "from-quotient", "--group", "Z^2",
        "--lattice", "1,3;0,8", "--n", "1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_construct_kernel_guard_is_usage_error(capsys):
    code, _, err = run(capsys, "construct", "--method", "from-quotient",
                       "--group", "Z^2", "--lattice", "1,2;0,5", "--n", "2")
    assert code == 1
    assert "kernel" in err


def test_perm_to_lin_pipeline(tmp_path, capsys):
    sofic = tmp_path / "s.json"
    lin = tmp_path / "l.json"
    run(capsys, "construct", "--method", "cyclic-z", "--n", "2",
        "--out", str(sofic))
    code, _, _ = run(capsys, "construct", "--method", "perm-to-lin",
                     "--input", str(sofic), "--field", "F2",
                     "--out", str(lin))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--cert", str(lin))
    assert code == 0
    assert json.loads(lin.read_text())["family"] == "lin"


@pytest.mark.parametrize("field", ["F1", "F4", "F6"])
def test_perm_to_lin_rejects_non_prime_field(tmp_path, capsys, field):
    sofic = tmp_path / "s.json"
    run(capsys, "construct", "--method", "cyclic-z", "--n", "1",
        "--out", str(sofic))
    code, out, err = run(capsys, "construct", "--method", "perm-to-lin",
                         "--input", str(sofic), "--field", field)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not prime" in err


def test_from_quotient_lin_uses_field(tmp_path, capsys):
    path = tmp_path / "l.json"
    argv = ["construct", "--method", "from-quotient", "--group", "Z",
            "--modulus", "5", "--n", "2", "--family", "lin"]
    code, _, _ = run(capsys, *argv, "--field", "F3", "--out", str(path))
    assert code == 0
    targets = [a["target"] for a in json.loads(path.read_text())["assignments"]]
    assert targets and all(t["field"] == {"Fp": 3} for t in targets)
    code, out, err = run(capsys, *argv, "--field", "F4")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "not prime" in err


def test_direct_product_field_mismatch_is_usage_error(tmp_path, capsys):
    sofic, over_q, over_f5 = (tmp_path / f"{x}.json" for x in ("s", "q", "f5"))
    run(capsys, "construct", "--method", "cyclic-z", "--n", "1",
        "--out", str(sofic))
    for path, field in ((over_q, "Q"), (over_f5, "F5")):
        code, _, _ = run(capsys, "construct", "--method", "perm-to-lin",
                         "--input", str(sofic), "--field", field,
                         "--out", str(path))
        assert code == 0
    code, out, err = run(capsys, "construct", "--method", "direct-product",
                         "--input", str(over_q), "--input2", str(over_f5))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "field mismatch: Q vs F5" in err


def test_direct_product_of_perm_and_dense_unitaries(tmp_path, capsys):
    """A perm-unitary hyp certificate times a dense unitary one: both factors
    are densified the same way, and the product verifies."""
    c = X_.perm_to_hyp(X_.cyclic_Z(8), 2)
    perm, dense, out = (tmp_path / f"{x}.json" for x in ("p", "d", "out"))
    perm.write_text(c.dumps())
    obj = c.to_json()
    for a in obj["assignments"]:
        a["target"] = T_.perm_to_unitary(
            T_.target_from_json(a["target"]).perm).to_json()
    dense.write_text(json.dumps(obj))
    code, _, err = run(capsys, "construct", "--method", "direct-product",
                       "--input", str(perm), "--input2", str(dense),
                       "--out", str(out))
    assert code == 0, err
    assert json.loads(out.read_text())["dimension"] == 289
    code, _, err = run(capsys, "verify", "--cert", str(out))
    assert code == 0, err


def test_construct_writes_dumps_bytes(tmp_path, capsys):
    path = tmp_path / "h.json"
    argv = ["construct", "--method", "from-quotient", "--group", "Z",
            "--modulus", "7", "--n", "2", "--family", "hyp"]
    Z = G_.FreeAbelian(1)
    want = X_.from_quotient(Z, G_.LatticeHNF(Z, [(7,)]), 2, "hyp").dumps()
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert path.read_text() == want + "\n"
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == want + "\n"


def _witness_argv(tmp_path, mutate):
    """folner-to-sofic --n 1 from the witness file of B(12) in Z at n = 2,
    which converts (test_the_bad_witness_cases_edit_one_that_converts),
    once ``mutate`` has edited it."""
    obj = X_.FolnerWitness(G_.FreeAbelian(1), 2,
                           [(i,) for i in range(-12, 13)]).to_json()
    mutate(obj)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(obj))
    return ["construct", "--method", "folner-to-sofic", "--witness",
            str(path), "--n", "1"]


def _scalar_cert_argv(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("5")
    return ["verify", "--cert", str(path)]


def _tampered_hyp_path(tmp_path):
    """A Hilbert-Schmidt certificate that fails both conditions at the
    default margin, with the image of 1 replaced by that of 2; a margin
    of -1 would pass it."""
    obj = X_.from_quotient(Z, G_.LatticeHNF(Z, [(7,)]), 2, "hyp").to_json()
    by_element = {a["element"]: a for a in obj["assignments"]}
    by_element["1"]["target"] = by_element["2"]["target"]
    path = tmp_path / "h.json"
    path.write_text(json.dumps(obj))
    return path


def _hom_path(tmp_path):
    h = C_.HomCertificate(Z, {"x1": T_.CyclicPerm(7, 1)}, "sofic")
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(h.to_json()))
    return path


def _hom_without(tmp_path, group, images, dropped):
    """A word-level certificate file whose images of ``dropped`` are cut."""
    obj = C_.HomCertificate(group, images, "sofic").to_json()
    obj["images"] = [im for im in obj["images"]
                     if im["generator"] not in dropped]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(obj))
    return path


def _perm_entry_path(tmp_path, value):
    """The sofic certificate of Z through Z/5 at radius 2 with the images
    of the identity as a list, the older form, whose entry ``value`` stands
    in for the equal int: the same permutation, but neither a base64
    string nor JSON integers."""
    obj = X_.from_quotient(Z, G_.LatticeHNF(Z, [(5,)]), 2, "sofic").to_json()
    target = obj["assignments"][0]["target"]
    images = list(T_.target_from_json(target).images)
    images[images.index(int(value))] = value
    target["images"] = images
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(obj))
    return path


def _without_radius_two_element_path(tmp_path):
    """The sofic certificate of Z through Z/7 at radius 2 without the
    assignment of 2, an element outside B(1): a certificate over B(n) that
    lacks an element of B(n) is rejected when read, so also at --at-n 1."""
    obj = X_.from_quotient(Z, G_.LatticeHNF(Z, [(7,)]), 2, "sofic").to_json()
    obj["assignments"] = [a for a in obj["assignments"]
                          if a["element"] != "2"]
    path = tmp_path / "lacking.json"
    path.write_text(json.dumps(obj))
    return path


def _tensor_certificate(power):
    """Z at radius 2 in (P (+) I_5)^(tensor power), P the shifts of Z/5."""
    return C_.ApproxCertificate(Z, 2, "hyp-projective", {
        p: T_.ImplicitTensorUnitary(T_.AugmentedUnitary(
            T_.PermUnitary(T_.CyclicPerm(5, p[0]).images), 5), power)
        for p in G_.ball(Z, 2)})


def _unitary_certificate():
    """Z at radius 1 in U(1): 1, i and -i."""
    return C_.ApproxCertificate(Z, 1, "hyp", {
        (x,): T_.UnitaryMatrix([[z]]) for x, z in ((0, 1), (1, 1j), (-1, -1j))
    }, epsilon=0.5)


def _targets(obj):
    return [a["target"] for a in obj["assignments"]]


def _first_one_of_the_image_of_1(obj, value):
    """Put ``value`` for the first "1" entry of the rank image of 1."""
    (rows,) = [a["target"]["entries"] for a in obj["assignments"]
               if a["element"] == "1"]
    row = next(r for r in rows if "1" in r)
    row[row.index("1")] = value


# the valid certificates that _RETYPED edits, as JSON objects; each
# verifies and is written back with the same bytes
_VALID = {
    "cyclic": lambda: X_.cyclic_Z(2).to_json(),
    "cyclic-radius-1": lambda: X_.cyclic_Z(1).to_json(),
    "lin-F3": lambda: X_.perm_to_lin(X_.cyclic_Z(2), T_.FieldFp(3)).to_json(),
    "lin-Q": lambda: X_.perm_to_lin(X_.cyclic_Z(2)).to_json(),
    "unitary": lambda: _unitary_certificate().to_json(),
    "tensor": lambda: _tensor_certificate(3).to_json(),
}


def _put(key, value):
    """Set key to value in every target."""
    def edit(obj):
        for t in _targets(obj):
            t[key] = value
    return edit


# each case gives a number of a valid certificate another JSON type, one
# that compares equal or truncates to the number it replaces, so that read
# loosely the certificate would verify
_RETYPED = {
    "cyclic-perm-float-degree": ("cyclic", _put("m", 5.0)),
    "cyclic-perm-float-shift": ("cyclic", lambda o: _targets(o)[1].update(
        shift=float(_targets(o)[1]["shift"]))),
    "float-dimension": ("cyclic", lambda o: o.update(dimension=5.0)),
    "bool-radius": ("cyclic-radius-1", lambda o: o.update(n=True)),
    "rank-entry-float-over-F3": (
        "lin-F3", lambda o: _first_one_of_the_image_of_1(o, 1.9)),
    "rank-entry-bool-over-F3": (
        "lin-F3", lambda o: _first_one_of_the_image_of_1(o, True)),
    "rank-entry-bool-over-Q": (
        "lin-Q", lambda o: _first_one_of_the_image_of_1(o, True)),
    "unitary-entry-bools": ("unitary", lambda o: _targets(o)[0].update(
        entries=[[True, False]])),
    "tensor-float-power": ("tensor", _put("power", 3.7)),
    "augmented-float-pad": ("tensor", lambda o: [
        t["base"].update(pad=5.0) for t in _targets(o)]),
    "tensor-float-dimension": ("tensor", lambda o: o["dimension"].update(
        base=10.0)),
}


def _retyped_path(tmp_path, case):
    base, edit = _RETYPED[case]
    obj = _VALID[base]()
    edit(obj)
    path = tmp_path / "retyped.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("base", _VALID)
def test_retyped_bases_verify_and_keep_their_bytes(tmp_path, capsys, base):
    path = tmp_path / "c.json"
    text = json.dumps(_VALID[base](), sort_keys=True, indent=1)
    path.write_text(text)
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert code == 0 and json.loads(out)["pass"] is True
    cert = C_.ApproxCertificate.from_json(json.loads(text))
    assert cert.dumps() == text


# each catalog group kind: a radius, one label of its ball, and
# respellings of that label that name the same element; every
# group's label is also respelled with a surrounding space and as an int
_RESPELLED = {
    "Z": (G_.FreeAbelian(1), 2, "1", ["+1", "01", "1.0"]),
    "Z^2": (G_.FreeAbelian(2), 1, "(1,0)", ["1, 0", "(1, 0)", "(+1,0)"]),
    "F2": (G_.Free(2), 1, "x2", ["x1 x1^-1 x2", "x1^-1 x1 x2"]),
    "Heisenberg(1)": (G_.Heisenberg(1), 1, "(1,0,0)",
                      ["(1, 0, 0)", "1,0,0", "(1,0,-0)"]),
    "Z/5": (G_.FiniteCyclic(5), 2, "2", ["7", "-3", "+2"]),
    "Sym(3)": (G_.FiniteSym(3), 1, "[0,2,1]", ["0,2,1", "[0, 2, 1]"]),
    "Z x Z/5": (G_.DirectProduct(G_.FreeAbelian(1), G_.FiniteCyclic(5)), 1,
                "(1 | 0)", ["(1|0)", "(1 | 5)", "(+1 | 0)"]),
    "Lamplighter(Z/2)": (G_.Lamplighter(G_.FiniteCyclic(2)), 1, "{0:1 | 0}",
                         ["{0: 1 | 0}", "{0:3 | 0}", "{0:1, 1:0 | 0}"]),
}


@pytest.mark.parametrize("case", _RESPELLED)
def test_an_element_is_read_only_as_its_ball_label(tmp_path, capsys, case):
    G, n, label, respellings = _RESPELLED[case]
    B = G_.ball(G, n)
    cert = C_.ApproxCertificate(G, n, "sofic", T_.batch(
        [T_.Permutation.identity(2)] * len(B)))
    text = cert.dumps()
    assert C_.ApproxCertificate.loads(text).dumps() == text
    labels = [a["element"] for a in json.loads(text)["assignments"]]
    assert labels == B.labels() and label in labels
    path = tmp_path / "c.json"
    for spelling in [f" {label}", f"{label} ", 1, *respellings]:
        obj = json.loads(text)
        obj["assignments"][labels.index(label)]["element"] = spelling
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert (code, out) == (1, ""), spelling
        assert err.startswith("error: ") and "Traceback" not in err


def test_tensor_verification_does_not_grow_with_the_power(tmp_path, capsys):
    # the dimension 10^power is compared as (10, power), never computed
    obj = _tensor_certificate(3).to_json()
    for t in _targets(obj):
        t["power"] = 10 ** 6
    obj["dimension"]["power"] = 10 ** 6
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    t0 = time.monotonic()
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert time.monotonic() - t0 < 1.0
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("power,code", [(10 ** 308, 0), (10 ** 400, 1)],
                         ids=["1e308", "1e400"])
def test_tensor_power_beyond_the_float_range_is_refused(tmp_path, capsys,
                                                        power, code):
    # tau ** power takes the power as a float: 10^308 is one, 10^400 is
    # past the float range and was an OverflowError traceback
    obj = _tensor_certificate(3).to_json()
    for t in _targets(obj):
        t["power"] = power
    obj["dimension"]["power"] = power
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    got, out, err = run(capsys, "verify", "--cert", str(path))
    assert got == code
    if code:
        assert err.startswith("error:") and f"tensor power {power} " in err
    else:
        assert json.loads(out)["pass"] is True


def test_large_prime_field_verifies_quickly(tmp_path, capsys):
    # 13 targets name F_p with p about 10^14: trial division to sqrt(p)
    # took about 0.9 s for each of them
    lin = X_.perm_to_lin(X_.cyclic_Z(6), T_.FieldFp(10 ** 14 + 31))
    path = tmp_path / "l.json"
    path.write_text(lin.dumps())
    t0 = time.monotonic()
    code, out, _ = run(capsys, "verify", "--cert", str(path))
    assert time.monotonic() - t0 < 1.0
    assert code == 0 and json.loads(out)["pass"] is True

def _cyclic_path(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(X_.cyclic_Z(2).dumps())
    return path


def _config_path(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


_QUOTIENT = ["construct", "--method", "from-quotient", "--n", "1"]

# each case maps a scratch directory to the argv of one malformed invocation
_BAD_INPUT = {
    "witness-missing-group":
        lambda t: _witness_argv(t, lambda o: o.pop("group")),
    "witness-payload-not-a-list":
        lambda t: _witness_argv(t, lambda o: o.update(members_payload=5)),
    "witness-no-members":
        lambda t: _witness_argv(t, lambda o: o.update(members_payload=[])),
    "witness-n-not-an-integer":
        lambda t: _witness_argv(t, lambda o: o.update(n="x")),
    **{f"witness-n-{name}": (lambda t, n=n: _witness_argv(
        t, lambda o: o.update(n=n)))
       for name, n in (("1.5", 1.5), ("2.0", 2.0), ("string", "2"),
                       ("true", True))},
    "witness-members-not-its-labels": lambda t: _witness_argv(
        t, lambda o: o.update(members=["banana"] * 25, defect=[0, 1],
                              size=1)),
    # each member payload's leaves must be ints, as the writer writes them;
    # each of these files is otherwise, field for field, what to_json()
    # writes for the witness it would decode to
    "witness-payload-half-integers": lambda t: _witness_argv(
        t, lambda o: o.update(X_.FolnerWitness(
            G_.FreeAbelian(1), 2,
            [(i + 0.5,) for i in range(-12, 13)]).to_json())),
    "witness-payload-float-integer": lambda t: _witness_argv(
        t, lambda o: o["members_payload"].__setitem__(13, [1.0])),
    "witness-payload-bool": lambda t: _witness_argv(
        t, lambda o: o["members_payload"].__setitem__(13, [True])),
    # radius 0, at which B(12) has defect 0: every field is what the
    # writer would write, were a witness at radius 0 one
    "witness-n-zero": lambda t: _witness_argv(
        t, lambda o: o.update(n=0, defect=[0, 1])),
    # B(12) with 0 written twice, in sorted order, as the writer would
    "witness-repeated-member": lambda t: _witness_argv(
        t, lambda o: (o["members"].insert(12, "0"),
                      o["members_payload"].insert(12, [0]),
                      o.update(size=26))),
    "certificate-not-an-object": _scalar_cert_argv,
    "profile-range-not-integers": lambda t: [
        "profile", "--group", "Z", "--family", "fin", "--n", "1..x"],
    "rfgrowth-range-not-an-integer": lambda t: [
        "rfgrowth", "--group", "Z", "--n", "abc"],
    "rfgrowth-unknown-quotients-heisenberg": lambda t: [
        "rfgrowth", "--group", "Heisenberg(1)", "--n", "2", "--quotients",
        "bogus"],
    "rfgrowth-unknown-quotients-Z": lambda t: [
        "rfgrowth", "--group", "Z", "--n", "2", "--quotients", "bogus"],
    "slope-window-one-number": lambda t: [
        "profile", "--group", "Z", "--family", "sofic", "--n", "1..3",
        "--format", "json", "--slope-window", "2"],
    "singular-lattice": lambda t: [*_QUOTIENT, "--group", "Z",
                                   "--lattice", "0"],
    "lattice-wrong-dimension": lambda t: [*_QUOTIENT, "--group", "Z^2",
                                          "--lattice", "1"],
    "zero-modulus": lambda t: [*_QUOTIENT, "--group", "Z", "--modulus", "0"],
    "negative-modulus-Z": lambda t: [*_QUOTIENT, "--group", "Z",
                                     "--modulus", "-5"],
    "negative-modulus-Z2": lambda t: [*_QUOTIENT, "--group", "Z^2",
                                      "--modulus", "-5"],
    "zero-heisenberg-modulus": lambda t: [
        *_QUOTIENT, "--group", "Heisenberg(1)", "--modulus", "0"],
    "quotient-without-group": lambda t: [*_QUOTIENT, "--modulus", "5"],
    "exact-finite-on-infinite-group": lambda t: [
        "construct", "--method", "exact-finite", "--group", "Z", "--n", "1"],
    "exact-finite-negative-n": lambda t: [
        "construct", "--method", "exact-finite", "--group", "Z/5", "--n",
        "-1"],
    "from-quotient-negative-n": lambda t: [
        "construct", "--method", "from-quotient", "--group", "Z",
        "--modulus", "5", "--n", "-1"],
    "perm-to-hyp-negative-n": lambda t: [
        "construct", "--method", "perm-to-hyp", "--input",
        str(_cyclic_path(t)), "--n", "-1"],
    "folner-to-sofic-zero-n": lambda t: [
        *_witness_argv(t, lambda o: None)[:-1], "0"],
    "exact-finite-hyp-family": lambda t: [
        "construct", "--method", "exact-finite", "--group", "Z/5", "--n",
        "1", "--family", "hyp"],
    "audit-negative-n-max": lambda t: ["audit", "--groups", "Z",
                                       "--n-max", "-1"],
    "audit-zero-n-max": lambda t: ["audit", "--groups", "Z", "--n-max", "0"],
    "negative-margin": lambda t: [
        "verify", "--cert", str(_tampered_hyp_path(t)), "--margin", "-1"],
    "nan-margin": lambda t: [
        "verify", "--cert", str(_tampered_hyp_path(t)), "--margin", "nan"],
    "infinite-margin": lambda t: [
        "verify", "--cert", str(_tampered_hyp_path(t)), "--margin", "inf"],
    "hom-negative-margin": lambda t: [
        "verify", "--cert", str(_hom_path(t)), "--at-n", "2",
        "--margin", "-0.5"],
    "lemma-suite-on-hom-certificate": lambda t: [
        "verify", "--cert", str(_hom_path(t)), "--at-n", "2",
        "--lemma-suite"],
    "lemma-suite-negative-seed": lambda t: [
        "--seed", "-1", "verify", "--cert", str(_cyclic_path(t)),
        "--lemma-suite"],
    # --seed is read only by verify --lemma-suite
    "seed-on-ball": lambda t: ["--seed", "3", "ball", "--group", "Z",
                               "--n", "1"],
    "seed-on-verify-without-lemma-suite": lambda t: [
        "--seed", "3", "verify", "--cert", str(_cyclic_path(t))],
    "negative-seed-on-ball": lambda t: ["--seed", "-5", "ball", "--group",
                                        "Z", "--n", "1"],
    "negative-seed-on-verify": lambda t: [
        "--seed", "-5", "verify", "--cert", str(_cyclic_path(t))],
    "negative-seed-in-config": lambda t: [
        "--config", str(_config_path(t, "seed = -5\n")), "ball", "--group",
        "Z", "--n", "1"],
    "relators-only-on-ball-certificate": lambda t: [
        "verify", "--cert", str(_cyclic_path(t)), "--relators-only"],
    "perm-image-float-entry": lambda t: [
        "verify", "--cert", str(_perm_entry_path(t, 0.0))],
    "perm-image-bool-entry": lambda t: [
        "verify", "--cert", str(_perm_entry_path(t, True))],
    "missing-element-outside-the-verified-radius": lambda t: [
        "verify", "--cert", str(_without_radius_two_element_path(t)),
        "--at-n", "1"],
    **{case: (lambda t, case=case: [
        "verify", "--cert", str(_retyped_path(t, case))])
       for case in _RETYPED},
    "hom-generator-without-image": lambda t: [
        "verify", "--cert", str(_hom_without(
            t, G_.FreeAbelian(2), {"x1": T_.CyclicPerm(7, 1),
                                   "x2": T_.CyclicPerm(7, 2)},
            {"x2", "x2^-1"})), "--at-n", "2"],
    "group-descriptor-without-its-size": lambda t: [
        "ball", "--group", '{"kind":"FreeAbelian"}', "--n", "1"],
    "group-descriptor-not-an-object": lambda t: [
        "ball", "--group", "[1]", "--n", "1"],
    "group-descriptor-factors-not-groups": lambda t: [
        "ball", "--group",
        '{"kind":"DirectProduct","params":{"left":1,"right":2}}', "--n", "1"],
    "group-descriptor-lamplighter-top-not-Z": lambda t: [
        "ball", "--group", json.dumps(
            {"kind": "Lamplighter",
             "params": {"base": G_.FiniteCyclic(2).descriptor(),
                        "top": G_.FreeAbelian(5).descriptor()}}),
        "--n", "1"],
    "group-descriptor-extra-fields": lambda t: [
        "ball", "--group", '{"kind":"FreeAbelian","params":{"d":2,"junk":7},'
        '"extra":1}', "--n", "1"],
    "folner-zero-r-max": lambda t: [
        "folner", "--group", "Z", "--n", "1", "--r-max", "0"],
    "folner-exhaustive-zero-size-max": lambda t: [
        "folner", "--group", "Z", "--n", "1", "--strategy", "exhaustive",
        "--r-max", "3", "--size-max", "0"],
    "folner-exhaustive-negative-r-max": lambda t: [
        "folner", "--group", "Z", "--n", "1", "--strategy", "exhaustive",
        "--r-max", "-1", "--size-max", "3"],
    "slope-window-low-above-high": lambda t: [
        "profile", "--group", "Z", "--family", "sofic", "--n", "1..5",
        "--format", "json", "--slope-window", "5,1"],
}


def test_the_bad_witness_cases_edit_one_that_converts(tmp_path, capsys):
    code, out, _ = run(capsys, *_witness_argv(tmp_path, lambda o: None))
    assert code == 0 and json.loads(out)["dimension"] == 25


@pytest.mark.parametrize("case", _BAD_INPUT)
def test_malformed_input_is_usage_error(tmp_path, capsys, case):
    code, out, err = run(capsys, *_BAD_INPUT[case](tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_a_malformed_witness_is_named_a_witness(tmp_path, capsys):
    """A witness file's decoding errors name a witness, not a certificate:
    radius 0, a field missing, and a member outside the group's normal
    form each exit 1 with it."""
    cases = [
        (lambda o: o.update(n=0, defect=[0, 1]),
         "malformed witness: a Folner witness has radius n >= 1, not 0"),
        (lambda o: o.pop("members_payload"),
         "witness lacks field 'members_payload'"),
        (lambda o: o.update(X_.FolnerWitness(
            G_.FiniteCyclic(5), 1, [5, 6, 7, 8, 9]).to_json()),
         "malformed witness: member 5 is not in the normal form of Z/5")]
    for mutate, message in cases:
        code, out, err = run(capsys, *_witness_argv(tmp_path, mutate))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


def test_verify_hom_needs_at_n(tmp_path, capsys):
    h = C_.HomCertificate(G_.FreeAbelian(1), {"x1": T_.CyclicPerm(7, 1)},
                          "sofic")
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json()))
    code, _, err = run(capsys, "verify", "--cert", str(path))
    assert code == 1 and "--at-n" in err
    code, out, _ = run(capsys, "verify", "--cert", str(path), "--at-n", "3")
    assert code == 0 and json.loads(out)["pass"] is True


def test_verify_hom_closes_a_self_inverse_generator(tmp_path, capsys):
    """On Z/2 the labels x and x^-1 share a payload; a certificate giving
    only x verifies, its x^-1 taking the inverse image."""
    path = _hom_without(tmp_path, G_.FiniteCyclic(2),
                        {"x": T_.CyclicPerm(2, 1),
                         "x^-1": T_.CyclicPerm(2, 1)}, {"x^-1"})
    assert [im["generator"] for im in json.loads(path.read_text())["images"]
            ] == ["x"]
    code, out, err = run(capsys, "verify", "--cert", str(path), "--at-n", "2")
    assert code == 0 and json.loads(out)["pass"] is True
    assert "Traceback" not in err


def test_verify_hom_failure_exits_2(tmp_path, capsys):
    h = C_.HomCertificate(G_.FreeAbelian(1), {"x1": T_.CyclicPerm(2, 1)},
                          "sofic")
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json()))
    code, _, _ = run(capsys, "verify", "--cert", str(path), "--at-n", "2")
    assert code == 2


def test_seed_from_a_config_file_is_a_default(tmp_path, capsys):
    """A config file's seed is a default that commands other than verify
    --lemma-suite may ignore; only one given on the command line to them
    is refused."""
    cfg = _config_path(tmp_path, "seed = 5\n")
    code, out, _ = run(capsys, "--config", str(cfg), "ball", "--group", "Z",
                       "--n", "1")
    assert code == 0 and json.loads(out)["size"] == 3


def test_verify_lemma_suite(tmp_path, capsys):
    cert = tmp_path / "c.json"
    run(capsys, "construct", "--method", "cyclic-z", "--n", "4",
        "--out", str(cert))
    # any seed >= 0, past 64 bits too
    for seed in ("0", str(2 ** 70 + 3)):
        code, out, _ = run(capsys, "--seed", seed, "verify", "--cert",
                           str(cert), "--lemma-suite")
        assert code == 0
        assert json.loads(out)["lemma_suite"]["pass"] is True


def test_word_cap_exits_at_once(tmp_path, capsys):
    # the word-level certificate of the verify_received benchmark: the
    # regular action of Z^2 on Z^2/17Z^2, k = 289; at length 40 its word
    # count is known to pass the cap before any word is built
    Z2 = G_.FreeAbelian(2)
    small = X_.from_quotient(Z2, G_.LatticeHNF(Z2, [(17, 0), (0, 17)]), 1,
                             "sofic")
    h = C_.HomCertificate(Z2, {lab: small.target(p)
                               for lab, p in Z2.generators()}, "sofic",
                          relators=C_.default_relators(Z2))
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(h.to_json()))
    for mode in ([], ["--relators-only"]):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--cert", str(path),
                             "--at-n", "40", *mode)
        assert time.perf_counter() - start < 5.0
        assert code == 3 and out == ""
        assert err == "resource cap: more than 1000000 words at length 40\n"


def test_relators_only_reads_the_groups_presentation(tmp_path, capsys):
    """The word-level certificate of the verify_received benchmark (Z^2 on
    Z^2/17Z^2, k = 289) with x1 and x2 sent to random non-commuting
    permutations: written with "relators": [] it once passed
    --relators-only, constraining nothing. Its relators must be Z^2's
    presentation, so it exits 1; with them kept it fails verification."""
    Z2 = G_.FreeAbelian(2)
    small = X_.from_quotient(Z2, G_.LatticeHNF(Z2, [(17, 0), (0, 17)]), 1,
                             "sofic")
    h = C_.HomCertificate(Z2, {lab: small.target(p)
                               for lab, p in Z2.generators()}, "sofic",
                          relators=C_.default_relators(Z2))
    obj = h.to_json()
    rng = np.random.default_rng(0)
    x1, x2 = (T_.Permutation(rng.permutation(289).tolist()) for _ in "12")
    assert x1.mul(x2) != x2.mul(x1)
    images = {"x1": x1, "x2": x2, "x1^-1": x1.inv(), "x2^-1": x2.inv()}
    obj["images"] = [{"generator": lab, "target": images[lab].to_json()}
                     for lab in sorted(images)]
    path = tmp_path / "hom.json"
    args = ("verify", "--cert", str(path), "--at-n", "4")
    for relators, mode, want in (([], ["--relators-only"], 1), ([], [], 1),
                                 (obj["relators"], ["--relators-only"], 2),
                                 (obj["relators"], [], 2)):
        path.write_text(json.dumps(dict(obj, relators=relators)))
        code, _, err = run(capsys, *args, *mode)
        assert code == want, (relators, mode)
        if want == 1:
            assert err == ("error: relators must be the presentation of "
                           "Z^2, [[\"x1\", \"x2\", \"x1^-1\", "
                           "\"x2^-1\"]]\n")


@pytest.mark.parametrize("group", [
    G_.Heisenberg(2), G_.FiniteSym(3),
    G_.DirectProduct(G_.FreeAbelian(1), G_.FiniteCyclic(2))],
    ids=["Heisenberg(2)", "Sym(3)", "Z x Z/2"])
def test_relators_only_needs_a_written_presentation(tmp_path, capsys, group):
    """A group with no written presentation has no relators to constrain:
    --relators-only exits 1 naming it, and plain word-level verification
    still runs."""
    h = C_.HomCertificate(group, {lab: T_.Permutation([1, 2, 0])
                                  for lab, _ in group.generators()}, "sofic")
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(h.to_json()))
    assert json.loads(path.read_text())["relators"] is None
    code, out, err = run(capsys, "verify", "--cert", str(path), "--at-n", "2",
                         "--relators-only")
    assert code == 1 and out == ""
    assert err == (f"error: no presentation of {group!r} is written down, so "
                   f"there are no relators to constrain\n")
    code, _, _ = run(capsys, "verify", "--cert", str(path), "--at-n", "2")
    assert code in (0, 2)


# ---------------------------------------------------------------------------
# profile / folner / rfgrowth / audit

def test_profile_csv_golden(capsys):
    code, out, _ = run(capsys, "profile", "--group", "Z", "--family", "fin",
                       "--n", "1..3")
    assert code == 0
    assert out.splitlines() == [
        "group,family,n,lower,exact,upper,provenance",
        "Z,fin,1,3,3,3,exact",
        "Z,fin,2,5,5,5,exact",
        "Z,fin,3,7,7,7,exact",
    ]


def test_profile_json_with_slope(capsys):
    code, out, _ = run(capsys, "profile", "--group", "Z", "--family",
                       "sofic", "--n", "1..6", "--format", "json",
                       "--slope-window", "2,6")
    assert code == 0
    obj = json.loads(out)
    assert 0.5 < obj["fit"]["slope"] < 1.2
    assert obj["family"] == "sofic"


def test_profile_slope_window_takes_a_negative_low_end_spaced(capsys):
    """--slope-window -5,3 reads as --slope-window=-5,3 does."""
    argv = ["profile", "--group", "Z", "--family", "sofic", "--n", "1..3",
            "--format", "json"]
    spaced = run(capsys, *argv, "--slope-window", "-5,3")
    assert spaced == run(capsys, *argv, "--slope-window=-5,3")
    assert spaced[0] == 0 and "fit" in json.loads(spaced[1])
    code, out, err = run(capsys, *argv, "--slope-window", "-5,-4")
    assert (code, out) == (1, "")
    assert err.startswith("error: slope window -5,-4 selects 0 point(s)")
    code, out, err = run(capsys, *argv, "--slope-window", "-5")
    assert (code, out, err) == (1, "", "error: bad slope window '-5' (use "
                                       "LO,HI)\n")


@pytest.mark.parametrize("window, selected", [
    ("10,20", 0), ("2,2", 1), ("0,1", 1), ("4,9", 0)])
def test_profile_slope_window_that_selects_too_few_points_is_usage_error(
        capsys, window, selected):
    code, out, err = run(capsys, "profile", "--group", "Z", "--family",
                         "sofic", "--n", "1..3", "--format", "json",
                         "--slope-window", window)
    assert (code, out) == (1, "")
    assert err == (f"error: slope window {window} selects {selected} "
                   f"point(s) with an upper value, and a fit needs 2\n")


def test_profile_rejects_n_zero(capsys):
    code, _, _ = run(capsys, "profile", "--group", "Z", "--family", "fin",
                     "--n", "0..2")
    assert code == 1


def test_folner_exhaustive_artifact(capsys):
    code, out, _ = run(capsys, "folner", "--group", "Z", "--n", "1",
                       "--strategy", "exhaustive", "--r-max", "4",
                       "--size-max", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 4 and obj["exact_minimum"] is True
    assert obj["members"] == ["0", "1", "2", "3"]


def test_folner_failure_exits_3(capsys):
    code, _, err = run(capsys, "folner", "--group", "Z", "--n", "5",
                       "--strategy", "balls", "--r-max", "1")
    assert code == 3
    assert "no witness" in err


def test_folner_controlled_is_usage_error(capsys):
    """folner has no --controlled flag: a witness records no radius
    bound."""
    code, out, err = run(capsys, "folner", "--group", "Z", "--n", "2",
                         "--strategy", "balls", "--controlled")
    assert code == 1 and out == ""
    assert "--controlled" in err


def test_folner_to_sofic_pipeline(tmp_path, capsys):
    w = tmp_path / "w.json"
    cert = tmp_path / "c.json"
    code, _, _ = run(capsys, "folner", "--group", "Z", "--n", "2",
                     "--strategy", "boxes", "--out", str(w))
    assert code == 0
    code, _, _ = run(capsys, "construct", "--method", "folner-to-sofic",
                     "--witness", str(w), "--n", "1", "--out", str(cert))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--cert", str(cert))
    assert code == 0
    assert json.loads(cert.read_text())["dimension"] == 24


def test_rfgrowth_csv(capsys):
    code, out, _ = run(capsys, "rfgrowth", "--group", "Z", "--n", "1..3")
    assert code == 0
    assert out.splitlines()[1:] == [
        "Z,rf,1,2,2,2,exact",
        "Z,rf,2,3,3,3,exact",
        "Z,rf,3,4,4,4,exact",
    ]


def test_rfgrowth_heisenberg_quotient_choice(capsys):
    code, out, _ = run(capsys, "rfgrowth", "--group", "Heisenberg(1)",
                       "--n", "2", "--quotients", "congruence-least",
                       "--format", "json")
    assert code == 0
    least = json.loads(out)["points"][0]["value"]
    code, out, _ = run(capsys, "rfgrowth", "--group", "Heisenberg(1)",
                       "--n", "2", "--quotients", "congruence",
                       "--format", "json")
    assert code == 0
    recipe = json.loads(out)["points"][0]["value"]
    assert (least, recipe) == (27, 64)


def test_rfgrowth_names_a_group_without_quotients_as_parsed(capsys):
    code, out, err = run(capsys, "rfgrowth", "--group", "Lamplighter(Z/2)",
                         "--n", "1")
    assert (code, out) == (1, "")
    assert err == "error: no quotient enumeration for Lamplighter(Z/2)\n"


@pytest.mark.parametrize("spec, message", [
    ("Wreath(Z/2)", "cannot parse group 'Wreath(Z/2)'"),
    ("Wreath(Z/2;Z/3;Z/4)", "cannot parse group 'Wreath(Z/2;Z/3;Z/4)'"),
    ("Sym(x)", "cannot parse group 'Sym(x)'"),
    ("Z^x", "cannot parse group 'Z^x'"),
    ("Heisenberg(x)", "cannot parse group 'Heisenberg(x)'"),
    ("Z/x", "cannot parse group 'Z/x'"),
    ("SymmS(3", "cannot parse group 'SymmS(3'"),
    ("Heisenberg((1", "cannot parse group 'Heisenberg((1'"),
    ("Heisenberg)1(", "cannot parse group 'Heisenberg)1('"),
    ("Heisenberg", "cannot parse group 'Heisenberg'"),
    ("Z/ 5", "cannot parse group 'Z/ 5'"),
    ("Z/\u0665", "cannot parse group 'Z/\u0665'"),
    ("Z^02", "cannot parse group 'Z^02'"),
    ("Z^-1", "cannot parse group 'Z^-1'"),
    (" Z", "cannot parse group ' Z'"),
    ("Lamplighter(Z/ 2)", "cannot parse group 'Z/ 2'"),
    ("5", "group descriptor 5 is not a JSON object"),
    ("[1]", "group descriptor [1] is not a JSON object"),
    ("{}", "group descriptor {} lacks field 'kind'"),
    ('{"kind": "FreeAbelian"}',
     'group descriptor {"kind": "FreeAbelian"} has no params object'),
    ('{"kind": "FreeAbelian", "params": {}}',
     'group descriptor {"kind": "FreeAbelian", "params": {}} lacks field '
     '\'d\''),
    ('{"kind": "FreeAbelian", "params": [2]}',
     'group descriptor {"kind": "FreeAbelian", "params": [2]} has no params '
     'object'),
    ('{"kind": "Lamplighter", "params": {"base": {"kind": "FiniteCyclic", '
     '"params": {"m": 2}}}}', 'group descriptor {"kind": "Lamplighter", '
     '"params": {"base": {"kind": "FiniteCyclic", "params": {"m": 2}}}} '
     'lacks field \'top\''),
    ('{"kind": "LatticeHNF", "rows": [[2]], "parent": {"kind": '
     '"FreeAbelian", "params": {"d": 1}}}', "unknown group kind 'LatticeHNF'"),
    ('{"kind": ["Free"], "params": {}}', "unknown group kind ['Free']"),
    ('{"kind": "DirectProduct", "params": {"left": 1, "right": 2}}',
     "group descriptor 1 is not a JSON object"),
    ("Z^0", "d must be >= 1"),
    ("Sym(0)", "k must be >= 1"),
])
def test_a_group_spec_that_does_not_parse_is_named(capsys, spec, message):
    """A spec that cannot be read is named as given, and a JSON value that
    is no group descriptor by what is wrong with it; a spec that reads but
    names no group keeps its range error. Only repr's spellings read:
    digits are plain ASCII, without a sign or leading zero, and nothing
    but the spec is stripped."""
    code, out, err = run(capsys, "ball", "--group", spec, "--n", "1")
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_audit_passes_and_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "audit", "--groups", "Z", "--n-max", "4",
                         "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["pass"] is True


@pytest.mark.parametrize("argv, unread", [
    (["construct", "--method", "cyclic-z", "--n", "2"],
     {"family": "lin", "field": "F5", "modulus": "9", "group": "Z^2"}),
    (["construct", "--method", "perm-to-lin", "--input", "c.json"],
     {"n": "2"}),
    (["profile", "--group", "Z", "--family", "sofic", "--n", "1..3",
      "--format", "csv"], {"slope-window": "1,3"}),
    (["folner", "--group", "Z", "--n", "2", "--strategy", "balls"],
     {"size-max": "3"}),
    (["folner", "--group", "Z", "--n", "2", "--strategy", "boxes"],
     {"r-max": "3"}),
    (["rfgrowth", "--group", "Z", "--n", "2"],
     {"quotients": "congruence-least"}),
], ids=["construct-cyclic-z", "construct-perm-to-lin", "profile-csv",
        "folner-balls", "folner-boxes", "rfgrowth-Z"])
def test_a_flag_the_command_never_reads_is_usage_error(
        tmp_path, monkeypatch, capsys, argv, unread):
    """Flags given on the command line that the command, with its method,
    strategy, format or group, never reads exit 1 naming each of them;
    the same values from a config file are defaults, and the run goes on."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(X_.cyclic_Z(1).dumps())
    flags = [x for key, value in unread.items() for x in ("--" + key, value)]
    code, out, err = run(capsys, *argv, *flags)
    assert code == 1 and out == "" and err.startswith("error: ")
    assert all("--" + key in err for key in unread)
    (tmp_path / "run.cfg").write_text(
        "".join(f"{key} = {value}\n" for key, value in unread.items()))
    code, _, _ = run(capsys, "--config", "run.cfg", *argv)
    assert code == 0


@pytest.mark.parametrize("flags, unread", [
    (["--group", "Heisenberg(1)", "--modulus", "5", "--lattice", "1"],
     "--lattice"),
    (["--group", "Z", "--lattice", "7", "--modulus", "5"], "--modulus"),
    (["--group", "Z", "--modulus", "7", "--field", "F7"], "--field"),
    (["--group", "Z", "--modulus", "7", "--family", "hyp", "--field", "Q"],
     "--field"),
], ids=["lattice-on-heisenberg", "modulus-beside-lattice",
        "field-with-sofic", "field-with-hyp"])
def test_from_quotient_refuses_flags_its_quotient_or_family_never_reads(
        capsys, flags, unread):
    """from-quotient reads --lattice only on Z^d, --modulus there only
    without --lattice, and --field only for the lin family."""
    code, out, err = run(capsys, "construct", "--method", "from-quotient",
                         "--n", "1", *flags)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and unread in err
    assert "Traceback" not in err


def _as_perm(t):
    return {"kind": "perm", "images": t["images"]}


def _tensor_of(base):
    return {"kind": "tensor-implicit", "base": base, "power": 2}


def _augmented(inner):
    return {"kind": "augmented-unitary", "inner": inner, "pad": 1}


@pytest.mark.parametrize("family, wrap, dimension", [
    ("hyp-projective", lambda t: _tensor_of(_as_perm(t)),
     {"base": 5, "power": 2}),
    ("hyp", lambda t: _augmented(_as_perm(t)), 6),
    ("hyp-projective", lambda t: _tensor_of(_augmented(_as_perm(t))),
     {"base": 6, "power": 2}),
    ("hyp-projective", lambda t: _tensor_of(_tensor_of(t)),
     {"base": 5, "power": 2}),
], ids=["tensor-of-perm", "augmented-perm", "tensor-of-augmented-perm",
        "tensor-of-tensor"])
def test_a_unitary_wrapper_around_a_non_unitary_is_usage_error(
        tmp_path, capsys, family, wrap, dimension):
    """An augmented unitary's inner and a tensor power's base must be
    unitaries that the verifier can measure: a permutation there, or a
    tensor power inside a tensor power, is refused when read."""
    obj = X_.from_quotient(Z, G_.LatticeHNF(Z, [(5,)]), 2, "hyp").to_json()
    obj["family"], obj["dimension"] = family, dimension
    for a in obj["assignments"]:
        a["target"] = wrap(a["target"])
    path = tmp_path / "wrapped.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "must be a unitary" in err
    assert "Traceback" not in err


def test_verify_refuses_a_margin_that_an_exact_family_never_reads(
        tmp_path, capsys):
    """--margin on the command line is refused for the exact families,
    element-level and word-level alike; a margin from --config stays a
    default; a unitary family reads the flag."""
    hom = ["--cert", str(_hom_path(tmp_path)), "--at-n", "2"]
    for cert in (["--cert", str(_cyclic_path(tmp_path))], hom):
        code, out, err = run(capsys, "verify", *cert, "--margin", "0.5")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "--margin" in err
        assert "Traceback" not in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("margin = 0.5\n")
    for cert in (["--cert", str(_cyclic_path(tmp_path))], hom):
        code, out, _ = run(capsys, "--config", str(cfg), "verify", *cert)
        assert code == 0 and json.loads(out)["margin"] == 0.0
    hyp = tmp_path / "hyp.json"
    hyp.write_text(X_.from_quotient(Z, G_.LatticeHNF(Z, [(7,)]), 2,
                                    "hyp").dumps())
    code, out, _ = run(capsys, "verify", "--cert", str(hyp), "--margin",
                       "1e-6")
    assert code == 0 and json.loads(out)["margin"] == 1e-6


# each construct method that reads a certificate's ball: the argv of it on
# the word-level certificate at ``path``, which it refuses
_BALL_METHODS = {
    "direct-product": lambda path: ["--input", path, "--input2", path],
    "perm-to-hyp": lambda path: ["--input", path, "--n", "1"],
    "perm-to-lin": lambda path: ["--input", path],
    "amplify": lambda path: ["--input", path, "--n", "8"],
}


@pytest.mark.parametrize("method", _BALL_METHODS)
def test_a_word_level_input_to_a_ball_method_is_usage_error(
        tmp_path, capsys, method):
    """Each method reads its input's ball, which a word-level certificate
    lacks; sofic images, and hyp ones for amplify, which reads those."""
    family = "hyp" if method == "amplify" else "sofic"
    image = T_.CyclicPerm(7, 1)
    h = C_.HomCertificate(Z, {"x1": T_.PermUnitary(image.images)
                              if family == "hyp" else image}, family)
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(h.to_json()))
    code, out, err = run(capsys, "construct", "--method", method,
                         *_BALL_METHODS[method](str(path)))
    assert code == 1 and out == ""
    assert err.startswith(f"error: method {method} ")
    assert "word-level" in err and "Traceback" not in err


@pytest.mark.parametrize("family, image, n, epsilon", [
    ("lin-projective", T_.RankMatrix([[2, 0], [0, 2]], T_.FieldQ()), 4, 0.5),
    ("hyp-projective", T_.UnitaryMatrix(np.array([[1j]])), 1, 1.0)])
def test_verify_fails_a_word_certificate_projectively_at_the_identity(
        tmp_path, capsys, family, image, n, epsilon):
    """x1 of Z to a scalar, projectively the identity: verify reads
    condition (2) of a projective family in the projective metric at word
    level too, and exits 2 at separation 0."""
    h = C_.HomCertificate(Z, {"x1": image}, family, epsilon=epsilon)
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(h.to_json()))
    code, out, err = run(capsys, "verify", "--cert", str(path), "--at-n",
                         str(n))
    assert code == 2
    assert json.loads(out)["separation"] == 0
    assert "condition (2) fails" in err


def test_the_parser_is_built_once_and_no_call_changes_it(
        tmp_path, monkeypatch, capsys):
    """main parses with one parser per process: a --config run leaves the
    parser's own defaults to the next run, and repeated runs see equal
    arguments, their given flags included."""
    seen = []
    build = cli._build
    monkeypatch.setattr(cli, "_build",
                        lambda args: seen.append(args) or build(args))
    (tmp_path / "run.cfg").write_text("family = lin\nfield = F5\n"
                                      "modulus = 9\n")
    argv = ["construct", "--method", "cyclic-z", "--n", "2"]
    assert run(capsys, "--config", str(tmp_path / "run.cfg"), *argv)[0] == 0
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv)[0] == 0
    configured, plain, again = seen
    assert (configured.family, configured.field, configured.modulus) \
        == ("lin", "F5", 9)
    assert (plain.family, plain.field, plain.modulus) == ("sofic", "Q", None)
    assert configured.given == plain.given == again.given == {"method", "n"}
    assert vars(plain) == vars(again)
    assert cli._parser() is cli._parser()


def test_an_abbreviated_flag_the_method_never_reads_is_usage_error(capsys):
    code, _, err = run(capsys, "construct", "--method", "cyclic-z", "--n",
                       "2", "--fam", "sofic")
    assert code == 1 and "--family" in err


def test_verdict_does_not_depend_on_the_image_encoding(tmp_path, capsys):
    """Z -> Sym(5), g -> the shift by g mod 5, at n = 3 with epsilon the
    float nearest 1/3: cyclic-perm and perm targets exit alike, with
    equal reports but for the notes (the shifts repeat, so the
    separation is 0, above the exact threshold 0.333...33 - 1/3 < 0)."""
    B = G_.ball(Z, 3)
    reports = []
    for make in (lambda t: t, lambda t: T_.Permutation(t.images)):
        cert = C_.ApproxCertificate(
            Z, 3, "sofic", {p: make(T_.CyclicPerm(5, p[0])) for p in B},
            epsilon=0.3333333333333333)
        path = tmp_path / f"{len(reports)}.json"
        path.write_text(cert.dumps())
        code, out, _ = run(capsys, "verify", "--cert", str(path))
        rep = json.loads(out)
        reports.append((code, rep.pop("notes"), rep))
    (code, cyc_notes, cyc), (_, perm_notes, perm) = reports
    assert reports[0][0] == reports[1][0] == 0 and cyc == perm
    assert cyc["separation"] == 0 and cyc["separation_witness"] == ["-2", "3"]
    assert cyc_notes != perm_notes


# ---------------------------------------------------------------------------
# config files

def test_config_supplies_required_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group=Z\nn=2\n")
    code, out, _ = run(capsys, "--config", str(cfg), "ball")
    assert code == 0
    assert json.loads(out)["size"] == 5


def test_explicit_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group=Z\nn=2\n")
    code, out, _ = run(capsys, "--config", str(cfg), "ball", "--n", "3")
    assert code == 0
    assert json.loads(out)["size"] == 7


def test_config_profile_matches_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group=Z\nfamily=fin\nn=1..3\n# comment\n")
    code, cfg_out, _ = run(capsys, "--config", str(cfg), "profile")
    assert code == 0
    code, flag_out, _ = run(capsys, "profile", "--group", "Z", "--family",
                            "fin", "--n", "1..3")
    assert code == 0
    assert cfg_out == flag_out


def test_config_quotients_is_checked(tmp_path, capsys):
    # argparse checks no default, and a config value is a default
    cfg = tmp_path / "run.cfg"
    cfg.write_text("quotients = bogus\n")
    code, out, err = run(capsys, "--config", str(cfg), "rfgrowth", "--group",
                         "Z", "--n", "2")
    assert code == 1
    assert out == "" and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("value, suite", [
    ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
    ("0", False), ("false", False), ("NO", False), ("Off", False)])
def test_config_flag_spellings(tmp_path, capsys, value, suite):
    cert, cfg = tmp_path / "c.json", tmp_path / "run.cfg"
    run(capsys, "construct", "--method", "cyclic-z", "--n", "2",
        "--out", str(cert))
    cfg.write_text(f"lemma-suite = {value}\n")
    code, out, _ = run(capsys, "--config", str(cfg), "verify", "--cert",
                       str(cert))
    assert code == 0
    assert ("lemma_suite" in json.loads(out)) == suite


@pytest.mark.parametrize("value", ["maybe", "", "2", "y", "enabled"])
def test_config_flag_rejects_other_values(tmp_path, capsys, value):
    cert, cfg = tmp_path / "c.json", tmp_path / "run.cfg"
    run(capsys, "construct", "--method", "cyclic-z", "--n", "2",
        "--out", str(cert))
    cfg.write_text(f"lemma-suite = {value}\n")
    code, out, err = run(capsys, "--config", str(cfg), "verify", "--cert",
                         str(cert))
    assert code == 1
    assert out == "" and err.startswith("error: ") and "lemma_suite" in err


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grepple=1\n")
    code, _, err = run(capsys, "--config", str(cfg), "ball", "--group", "Z",
                       "--n", "1")
    assert code == 1
    assert "grepple" in err


_SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv", [
    ["construct", "--method", "from-quotient", "--group", "Heisenberg(1)",
     "--modulus", "5", "--n", "2", "--family", "fin"],
    ["audit", "--n-max", "3"],
    ["profile", "--group", "Z^2", "--family", "sofic", "--n", "1..4",
     "--format", "json"],
], ids=["construct", "audit", "profile"])
def test_artifacts_do_not_depend_on_the_hash_seed(argv):
    """Each command writes the same bytes under two hash seeds, one
    process each."""
    path = os.pathsep.join(filter(None, [str(_SRC),
                                         os.environ.get("PYTHONPATH")]))
    first, second = (subprocess.run(
        [sys.executable, "-m", "groupapprox.cli", *argv],
        capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
        for seed in ("1", "2"))
    for run_ in (first, second):
        assert run_.returncode == 0, run_.stderr.decode()
    assert first.stdout and first.stdout == second.stdout


def test_verifying_permutation_matrices_does_not_import_sympy(tmp_path):
    """A lin-projective certificate of permutation matrices verifies by
    cycle counts, in a fresh interpreter that never imports sympy."""
    lin = X_.perm_to_lin(X_.cyclic_Z(3), T_.FieldFp(3))
    cert = C_.ApproxCertificate(lin.group, lin.n, "lin-projective", lin.rows)
    path = tmp_path / "lp.json"
    path.write_text(cert.dumps())
    env_path = os.pathsep.join(filter(None, [str(_SRC),
                                             os.environ.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from groupapprox import cli\n"
            f"assert cli.main(['verify', '--cert', {str(path)!r}]) == 0\n"
            "assert 'sympy' not in sys.modules\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": env_path})
    assert done.returncode == 0, done.stderr.decode()
    assert json.loads(done.stdout)["separation"] == 6 / 7


def test_building_and_verifying_does_not_import_numpy_ma(tmp_path):
    """Building and verifying a from-quotient hyp certificate (the
    commutant kernel) and a fin one (the table check), in a fresh
    interpreter, never imports numpy.ma: numpy >= 2.3 loads it on the first
    np.unique without return_index, return_inverse or return_counts."""
    hyp, fin = tmp_path / "hyp.json", tmp_path / "fin.json"
    env_path = os.pathsep.join(filter(None, [str(_SRC),
                                             os.environ.get("PYTHONPATH")]))
    argvs = [
        ["construct", "--method", "from-quotient", "--group", "Z",
         "--modulus", "41", "--n", "5", "--family", "hyp", "--out", str(hyp)],
        ["construct", "--method", "from-quotient", "--group",
         "Heisenberg(1)", "--modulus", "5", "--n", "2", "--family", "fin",
         "--out", str(fin)],
        ["verify", "--cert", str(hyp), "--out", str(tmp_path / "v1.json")],
        ["verify", "--cert", str(fin), "--out", str(tmp_path / "v2.json")],
    ]
    code = ("import sys\n"
            "from groupapprox import cli\n"
            f"for argv in {argvs!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            "    assert 'numpy.ma' not in sys.modules, argv\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": env_path})
    assert done.returncode == 0, done.stderr.decode()
    assert json.loads((tmp_path / "v2.json").read_text())["pass"] is True
