"""Canonical JSON: the artifacts of the README's `construct` examples keep
their bytes, and the streaming writer gives the bytes of
``json.dumps(obj, sort_keys=True, indent=1)`` on any JSON object."""
import contextlib
import hashlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupapprox import canonical, cli

# sha256 of each artifact of the README's construct examples, run in order;
# q.json, hyp.json and amp.json were pinned again when permutation images
# came to be written as base64 strings, once each old file was shown to
# decode to the same images as the new
_README_ARTIFACTS = [
    ("cert.json", ["--method", "cyclic-z", "--n", "3"],
     "dbd2d87221d491e5841b0c4440682796d1578a5a716d209102712d76f93608d7"),
    ("q.json", ["--method", "from-quotient", "--group", "Z^2", "--lattice",
                "1,3;0,8", "--n", "1"],
     "c3d31a5b293ec5874c9f98658af45b79a5e3860417a40a89d510fb41f9935a7d"),
    ("lin.json", ["--method", "perm-to-lin", "--input", "cert.json",
                  "--field", "F2"],
     "0468ce2a84ce09f0497fe68926621d94c116fe3163768dbd1a3a7f4cba79dbbf"),
    ("hyp.json", ["--method", "from-quotient", "--group", "Z", "--modulus",
                  "641", "--n", "320", "--family", "hyp"],
     "d3a05ac163cc6e2cf26297ac69419588c32ec820672d0faef26e0cfb7300a54f"),
    ("amp.json", ["--method", "amplify", "--input", "hyp.json", "--n", "8"],
     "85f8b874e87f88d4a615a12ba41d15954fca56ce6f8241b60fd304fb4b9d56ed"),
]


def test_readme_construct_artifacts_keep_their_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, argv, digest in _README_ARTIFACTS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["construct", *argv, "--out", name]) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
            == digest, name


# ---------------------------------------------------------------------------
# the streaming writer against the standard library's encoder

def _fraction_as_str(o):
    if isinstance(o, Fraction):
        return str(o)
    raise TypeError(f"not JSON serializable: {o!r}")


def _reference(obj):
    return json.dumps(obj, sort_keys=True, indent=1, default=_fraction_as_str)


def _written(obj):
    buf = io.StringIO()
    canonical.dump(obj, buf)
    return buf.getvalue()


_texts = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ["", "\x00\x1f\x7f", "é \U0001f600", '"\\/', "\n\t\r\b\f"])
_scalars = (st.none() | st.booleans()
            | st.integers(-2 ** 70, 2 ** 70)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([0.0, -0.0, 1e300, -1e-300, 0.1, 5e-324])
            | _texts
            | st.fractions(max_denominator=10 ** 6))
_objects = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_texts, inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_objects)
def test_writer_matches_json_dumps(obj):
    assert _written(obj) == _reference(obj)


@settings(max_examples=50, deadline=None)
@given(_objects)
def test_cli_writes_canonical_text_and_a_newline(tmp_path_factory, obj):
    path = tmp_path_factory.mktemp("w") / "out.json"
    cli._write_json(obj, str(path))
    assert path.read_text() == _reference(obj) + "\n"


@pytest.mark.parametrize("obj", [
    [[1, 2], [3, 4]], [(1, -2), [3, 4]], [[7]] * 5000,
    [[i, -i, i * i] for i in range(3000)], [[1, 2], [3]], [[1, True]],
    [[], []], {"dist": [[[1, 2], [0, 1]], [[0, 1], [1, 2]]]}])
def test_int_matrices_match_json_dumps(obj):
    """Lists of int rows, of one length or not, are written as json
    writes them."""
    assert _written(obj) == _reference(obj)


@pytest.mark.parametrize("obj", [
    {"a": {1, 2}}, [object()], np.int64(3), {(1, 2): 3},
    {Fraction(1, 2): 1}, [np.int32(1)],
    memoryview(np.array([1, 0], dtype=np.int32))])
def test_writer_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError):
        _reference(obj)
    with pytest.raises(TypeError):
        _written(obj)


def test_scalar_keys_are_written_as_json_writes_them():
    obj = {1: "a", 2.5: "b", None: "c", True: "d", -3: [], "e": {}}
    with pytest.raises(TypeError):
        _reference(obj)  # sorting mixed keys fails in both
    with pytest.raises(TypeError):
        _written(obj)
    for keys in ([1, -3, 10], [2.5, float("nan"), -0.0], [True, False]):
        obj = {k: [k] for k in keys}
        assert _written(obj) == _reference(obj)
