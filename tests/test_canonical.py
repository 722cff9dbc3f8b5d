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


# sha256 of `ball --group G --n n`, as the writer gave it before a
# coordinate ball's labels came to be written as text chunks
_BALL_ARTIFACTS = [
    ("Heisenberg(1)", 20,
     "f8a4768c05d81c0334b62ad69ff00d666ec6faeb7d0249d31a47217c580ae7fc"),
    ("Lamplighter(Z/2)", 2,
     "99e389d99980d38d30b777ce1ccd4654f98770c9f4de1c9f63156e2f2496640e"),
    ("Wreath(Z/2;Z/3)", 2,
     "5bb1aea58be2a1d9671cad85a6543aed278f67335318e95b2bf70059b8c2f6b7"),
    ("F2", 3,
     "c6570547bb5d163d2776f23b8b1c27a6e13c73794f4aea7312a46dd5dae68770"),
    ("Sym(3)", 3,
     "c0e5adb91a9f6827ce47023f6521ad7f3f3c5d95666c0e6019cefa851a6e3e7c"),
]


@pytest.mark.parametrize("group, n, digest", _BALL_ARTIFACTS,
                         ids=[g for g, _, _ in _BALL_ARTIFACTS])
def test_ball_artifacts_keep_their_bytes(tmp_path, group, n, digest):
    path = tmp_path / "ball.json"
    assert cli.main(["ball", "--group", group, "--n", str(n),
                     "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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


# a str json writes as it is, and one character it escapes
_plain = st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                       exclude_characters='"\\')
_escaped = st.sampled_from(['"', "\\", "\x7f", "\x01", "\n", "é",
                            "\U0001f600"])


def _plain_or_one_escape(min_size, max_size):
    """Plain text, or plain text with one escaped character in it."""
    return st.tuples(st.text(_plain, min_size=min_size, max_size=max_size),
                     st.integers(0, max_size), st.just("") | _escaped).map(
        lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:])


# long strs sit on both sides of the length past which the writer tests a
# str for plain text
_long_texts = _plain_or_one_escape(canonical._LONG - 4, canonical._LONG + 300)
_texts = (st.text(st.characters(codec="utf-8"), max_size=8)
          | st.sampled_from(["", "\x00\x1f\x7f", "é \U0001f600", '"\\/',
                             "\n\t\r\b\f", "\x00" * (canonical._LONG + 1)])
          | _long_texts)
_scalars = (st.none() | st.booleans()
            | st.integers(-2 ** 70, 2 ** 70)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([0.0, -0.0, 1e300, -1e-300, 0.1, 5e-324])
            | _texts
            | st.fractions(max_denominator=10 ** 6))
_objects = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(_plain_or_one_escape(0, 12), max_size=6)
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


# ---------------------------------------------------------------------------
# a list of strs given as NUL-ended text chunks

_items = _plain_or_one_escape(0, 12) | st.sampled_from(["", "\x1f", "é"])


def _chunked(items, cuts):
    """The items as text chunks, cut before each index in cuts."""
    bounds = [0, *sorted(cuts), len(items)]
    return ["".join(x + "\0" for x in items[a:b])
            for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=200, deadline=None)
@given(st.lists(_items, max_size=20), st.lists(st.integers(0, 20),
                                               max_size=4))
def test_chunks_are_written_as_the_list_they_stand_for(items, cuts):
    """Chunks, empty ones and ones that need escaping included, anywhere in
    an object, give the bytes of the list of their items."""
    chunks = _chunked(items, [min(c, len(items)) for c in cuts])
    obj = {"a": canonical.Chunks(chunks), "b": [canonical.Chunks(
        iter(chunks)), 1]}
    assert _written(obj) == _reference({"a": items, "b": [items, 1]})


@pytest.mark.parametrize("chunks, items", [
    ([], []), ([""], []), (["", ""], []), (["\0"], [""]),
    (["a\0b\0", "", "c\0"], ["a", "b", "c"]),
    (["a\0", 'x"y\0\\\0', "\x7f\0é\0"], ["a", 'x"y', "\\", "\x7f", "é"]),
    (["(0,0,0)\0(-1,0,0)\0"], ["(0,0,0)", "(-1,0,0)"])])
def test_chunks_match_their_list(chunks, items):
    assert _written(canonical.Chunks(chunks)) == _reference(items)
    assert _written([canonical.Chunks(chunks)]) == _reference([items])
