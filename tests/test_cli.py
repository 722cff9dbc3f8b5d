import json

import pytest

from groupapprox import certify as C_
from groupapprox import cli
from groupapprox import construct as X_
from groupapprox import groups as G_
from groupapprox import targets as T_


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


def test_ball_cap_exit(capsys):
    code, _, err = run(capsys, "ball", "--group", "Z^2", "--n", "50",
                       "--cap", "10")
    assert code == 3
    assert "cap" in err


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
}


_MALFORMED_HOM = {
    "hom-empty-images": lambda o: o.update(images=[]),
    "hom-missing-images": lambda o: o.pop("images"),
    "hom-unknown-generator": lambda o: o["images"][0].update(generator="y1"),
    "hom-missing-relators": lambda o: o.pop("relators"),
    "hom-mixed-dimension": lambda o: o["images"].append(
        {"generator": "x1^-1", "target": T_.CyclicPerm(5, 1).to_json()}),
}
_AT_N = {"at-n-above-n": "3", "at-n-zero": "0", "hom-at-n-zero": "0"}


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
            cert.write_text(json.dumps(obj))
        extra = ["--at-n", _AT_N[case]] if case in _AT_N else []
    code, out, err = run(capsys, "verify", "--cert", str(cert), *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


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
    obj = X_.FolnerWitness(G_.FreeAbelian(1), 1,
                           [(i,) for i in range(4)]).to_json()
    mutate(obj)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(obj))
    return ["construct", "--method", "folner-to-sofic", "--witness",
            str(path), "--n", "1"]


def _scalar_cert_argv(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("5")
    return ["verify", "--cert", str(path)]


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
    "certificate-not-an-object": _scalar_cert_argv,
    "profile-range-not-integers": lambda t: [
        "profile", "--group", "Z", "--family", "fin", "--n", "1..x"],
    "rfgrowth-range-not-an-integer": lambda t: [
        "rfgrowth", "--group", "Z", "--n", "abc"],
    "slope-window-one-number": lambda t: [
        "profile", "--group", "Z", "--family", "sofic", "--n", "1..3",
        "--format", "json", "--slope-window", "2"],
    "singular-lattice": lambda t: [*_QUOTIENT, "--group", "Z",
                                   "--lattice", "0"],
    "lattice-wrong-dimension": lambda t: [*_QUOTIENT, "--group", "Z^2",
                                          "--lattice", "1"],
    "zero-modulus": lambda t: [*_QUOTIENT, "--group", "Z", "--modulus", "0"],
    "zero-heisenberg-modulus": lambda t: [
        *_QUOTIENT, "--group", "Heisenberg(1)", "--modulus", "0"],
    "quotient-without-group": lambda t: [*_QUOTIENT, "--modulus", "5"],
    "exact-finite-on-infinite-group": lambda t: [
        "construct", "--method", "exact-finite", "--group", "Z", "--n", "1"],
    "audit-negative-n-max": lambda t: ["audit", "--groups", "Z",
                                       "--n-max", "-1"],
    "audit-zero-n-max": lambda t: ["audit", "--groups", "Z", "--n-max", "0"],
}


@pytest.mark.parametrize("case", _BAD_INPUT)
def test_malformed_input_is_usage_error(tmp_path, capsys, case):
    code, out, err = run(capsys, *_BAD_INPUT[case](tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_hom_needs_at_n(tmp_path, capsys):
    h = C_.HomCertificate(G_.FreeAbelian(1), {"x1": T_.CyclicPerm(7, 1)},
                          "sofic")
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json()))
    code, _, err = run(capsys, "verify", "--cert", str(path))
    assert code == 1 and "--at-n" in err
    code, out, _ = run(capsys, "verify", "--cert", str(path), "--at-n", "3")
    assert code == 0 and json.loads(out)["pass"] is True


def test_verify_hom_failure_exits_2(tmp_path, capsys):
    h = C_.HomCertificate(G_.FreeAbelian(1), {"x1": T_.CyclicPerm(2, 1)},
                          "sofic")
    path = tmp_path / "h.json"
    path.write_text(json.dumps(h.to_json()))
    code, _, _ = run(capsys, "verify", "--cert", str(path), "--at-n", "2")
    assert code == 2


def test_verify_lemma_suite(tmp_path, capsys):
    cert = tmp_path / "c.json"
    run(capsys, "construct", "--method", "cyclic-z", "--n", "4",
        "--out", str(cert))
    code, out, _ = run(capsys, "verify", "--cert", str(cert),
                       "--lemma-suite")
    assert code == 0
    assert json.loads(out)["lemma_suite"]["pass"] is True


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


def test_folner_controlled_records_radius(capsys):
    code, out, _ = run(capsys, "folner", "--group", "Z", "--n", "2",
                       "--strategy", "balls", "--controlled")
    assert code == 0
    obj = json.loads(out)
    assert obj["radius_bound"] == obj["size"]


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


def test_audit_passes_and_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "audit", "--groups", "Z", "--n-max", "4",
                         "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["pass"] is True


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


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grepple=1\n")
    code, _, err = run(capsys, "--config", str(cfg), "ball", "--group", "Z",
                       "--n", "1")
    assert code == 1
    assert "grepple" in err
