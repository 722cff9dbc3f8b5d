"""The profile catalog behind `profile` and `audit`: its output is pinned
byte for byte, and a command builds only the curves it prints."""
import contextlib
import hashlib
import io
import json
from collections import Counter

import pytest

from groupapprox import cli
from groupapprox import groups as G_
from groupapprox import profiles as P_

_FAMILIES = ("growth", "rf", "fin", "sofic", "lin", "hyp", "folner")
_Z_FIN = ("profile", "--group", "Z", "--family", "fin", "--n", "1..50")
_Z2_SOFIC = ("profile", "--group", "Z^2", "--family", "sofic", "--n", "1..10",
             "--format", "json", "--slope-window", "2,10")

# sha256 of "<exit code>\n<stdout>" for each command, from the per-group
# curve bundles the catalog replaced; Heisenberg has no hyp or folner curve
_PINNED = dict(zip(
    [("profile", "--group", g, "--family", f, "--n", "2..6", "--format",
      "json") for g in ("Z", "Z^2", "Heisenberg(1)") for f in _FAMILIES]
    + [_Z_FIN, _Z2_SOFIC, ("audit",), ("audit", "--n-max", "2")],
    """
    cc2eefa00aa833d505e596bb636542e476c7f6a1b104143711efe78838d641bb
    07e0d1bfc9fc41457d8f43a10a33da7647f70ce2497b27aa89457a2a612fe835
    4e7d9911cf27c9bb7ae7a889619b5c9f6f110f9e70355b2c4fb301f5ce004ad0
    7dbf8ad17f60cad28a3fd0dc93ca3d02294f7d0488109c25580e00bb06b06e5a
    49b5b36fd28eb07687cff09954f8770c641425e06bb05e553b2ff0609aa77bd6
    1839770adf4f047e8ca169ad71e29a6126f125bc3bdfd27708d78de6185da15e
    fd1ca56b6bba8ec1b7a4bbea858ecb4f2a85fa675509a8128de24c6fa20d75ed
    4c50e960a42f1d67c093c050e5108491435e176872b443097965340d38d08c9d
    700abae6b1af0a02d932e766913f025f425ec35b04556cd250e5d81b2e4bfba5
    cf410fb1fce4d6f7bfd19a0f0528254c8225c5f67150750453fa512b9e05f00d
    7be2b8890c4d5b2a22a46b32b1cf3e6ba81d8b9759845f241aff4add76ccd815
    4afea5178bcfba453cff257d8b1f6cbc4d2dcfe3093eac4516d50222f1e68436
    6412bbc5d7b7dbf1636844eb854c605d5a39d9efcb25ed5ef39e2149c907fe77
    4aae1cdb1f06efea7bb85fc8b79d79ff4ba7bf368da99afb592747748cd0adce
    d7f24ade72e0145861e27b92764387ea6f45106f60f6e769892cb3aa725a2ae6
    dc049fbac31c84e80438a18f65d57bbd10fc67057c31510a62a6a00488c51615
    0b3aba0879a95935333c29996cce50427c800ea1c5f7b94d259e6a29ce1ca2e4
    39b44c40ad19f4453f894b201c68edd5b428a9ce089918515c77b4212ba23f11
    2fa4f05c9dd0eb32ddc0150d7f4d1c5327ada9a98055577bfbce889b017db7a1
    4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
    4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865
    0b030b37eb7220b1151fa50644459432bbf29c55e63d68eb93f5ca1e8e4a326d
    4775d77e0968feb0c9f9142d215c8d7044ecbdd644698d042a8137819cdad47c
    dd13957255d105cd5be571ecf80398e7200c896b2b35c784f72721e8f5acd7c1
    16539fd9fa2dd396e737ede36501f74e105bb3167007f309e6a56f88abe76005
    """.split(), strict=True))


# the audit's output before its rows said why they compared no point: the
# same object without the ``vacuous`` key of each row
_BEFORE_VACUOUS = {
    ("audit",):
        "7bff543a37fc4d31e2bbfaba8374180818fb4e585b2eca18017b6f0bc506af5e",
    ("audit", "--n-max", "2"):
        "e72d7c00f75daf16699e3115cc7d9f32de5e2b9591317d7249fa125427563e97",
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("argv", _PINNED, ids=" ".join)
def test_catalog_output_is_pinned(argv):
    code, out = _run(argv)
    digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert digest == _PINNED[argv]


@pytest.mark.parametrize("argv", _BEFORE_VACUOUS, ids=" ".join)
def test_audit_output_adds_only_the_vacuous_key(argv):
    code, out = _run(argv)
    report = json.loads(out)
    for row in report["checks"]:
        del row["vacuous"]
    old = f"{code}\n{json.dumps(report, sort_keys=True, indent=1)}\n"
    assert hashlib.sha256(old.encode()).hexdigest() == _BEFORE_VACUOUS[argv]


def _count(monkeypatch, calls, module, name):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.fixture
def calls(monkeypatch):
    calls = Counter()
    _count(monkeypatch, calls, G_, "kernel_witness")
    _count(monkeypatch, calls, P_, "box_defect_Zd")
    _count(monkeypatch, calls, P_, "full_rf_growth")
    return calls


@pytest.mark.parametrize("argv", [_Z_FIN, _Z2_SOFIC], ids=" ".join)
def test_profile_builds_only_the_printed_curve(calls, argv):
    # the per-group bundles made 5,150 kernel_witness calls for the first
    # and 942 kernel_witness plus 576 box_defect_Zd calls for the second
    assert _run(argv)[0] == 0
    assert calls == {}


def test_audit_computes_each_rf_radius_once(calls):
    # rf(2n) is read by the fin, sofic and lin rules but computed once; a
    # lattice search tests sublattices by integer arrays, not quotients
    # (912 kernel_witness calls when it asked one per sublattice from index
    # n + 1, 1,030 from index 1)
    assert _run(["audit", "--n-max", "4"])[0] == 0
    assert calls == {"full_rf_growth": 30, "kernel_witness": 44,
                     "box_defect_Zd": 162}


def test_profile_finds_the_label_by_group_equality():
    # Z^1 is Z: its JSON says "Z", its CSV keeps the spelling it was given
    assert _run(["profile", "--group", "Z^1", "--family", "lin", "--n", "2",
                 "--format", "json"])[1] == _run(
        ["profile", "--group", "Z", "--family", "lin", "--n", "2",
         "--format", "json"])[1]
    assert _run(["profile", "--group", "Z^1", "--family", "lin", "--n",
                 "2"])[1].splitlines()[1] == "Z^1,lin,2,,,5,upper"
