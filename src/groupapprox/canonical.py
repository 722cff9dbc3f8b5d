"""Canonical JSON, written piece by piece.

``dump(obj, f)`` writes the text of ``json.dump(obj, f, sort_keys=True,
indent=1)``, with a Fraction written as the string ``str(x)`` and a
``Chunks`` as the list of strs it stands for: the one format of every
artifact. The standard library writes indented JSON with its pure-Python
encoder; this writer gives the same bytes several times faster. A list of
ints or strs is one join per chunk of items, and a dict whose values are
all scalars one join. A str that json's escape pass would leave as it is
(printable ASCII without ``"`` or ``\\``, which one ``bytes.translate``
decides) is written without that pass when it is long, and so is each
plain text chunk of a ``Chunks``, whose NULs become the item separator in
one ``replace``. Only the standard library is used, so the writer imports
without numpy.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction

_STRING = json.encoder.encode_basestring_ascii
_INF = float("inf")
# the characters _STRING writes as they are, and those of a Chunks' text
_PLAIN = bytes(sorted(set(range(0x20, 0x7f)) - set(b'"\\')))
_PLAIN_ITEMS = _PLAIN + b"\0"
# a str longer than this is tested for plain text, which costs more than
# the escape pass only on short ones
_LONG = 256


class Chunks:
    """A JSON list of strs, given as an iterable of text chunks in which
    each item is ended by NUL; no item holds a NUL. The chunks are read
    once, when the list is written."""

    __slots__ = ("chunks",)

    def __init__(self, chunks):
        self.chunks = chunks


def _plain(text, chars):
    """Whether every character of text is one of the bytes chars."""
    return text.isascii() and not text.encode("ascii").translate(None, chars)


def dump(obj, f):
    """Write obj to the text stream f as canonical JSON, with no final
    newline; TypeError for an object that JSON cannot hold, as json.dump
    raises."""
    _write(obj, f.write, "\n")


def _float(x):
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _scalar(o):
    """The text of a str, None, bool, int, float or Fraction, in json's
    order of tests; None for anything else."""
    if isinstance(o, str):
        if len(o) > _LONG and _plain(o, _PLAIN):
            return '"' + o + '"'
        return _STRING(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, Fraction):
        return _STRING(str(o))
    return None


def _key(k):
    """A dict key as json writes it: a str, or the text of a scalar key."""
    if isinstance(k, str):
        return _STRING(k)
    if isinstance(k, float):
        return _STRING(_float(k))
    if k is True or k is False or k is None or isinstance(k, int):
        return _STRING(_scalar(k))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


# the items of a list of ints or strs written at one time
_CHUNK = 1 << 12


def _write(o, write, nl):
    """Write o, a value whose line breaks are followed by nl's indent."""
    text = _scalar(o)
    if text is not None:
        write(text)
    elif isinstance(o, (list, tuple)):
        _write_list(o, write, nl)
    elif isinstance(o, dict):
        _write_dict(o, write, nl)
    elif isinstance(o, Chunks):
        _write_chunks(o.chunks, write, nl)
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON "
                        f"serializable")


def _write_dict(o, write, nl):
    """Write a dict, its scalar items gathered into one write between its
    other values."""
    if not o:
        write("{}")
        return
    inner = nl + " "
    sep = "{" + inner
    texts = []
    for k, v in sorted(o.items()):
        text = _scalar(v)
        if text is None:
            texts.append(sep + _key(k) + ": ")
            write("".join(texts))
            texts = []
            _write(v, write, inner)
        else:
            texts.append(sep + _key(k) + ": " + text)
        sep = "," + inner
    texts.append(nl + "}")
    write("".join(texts))


def _write_chunks(chunks, write, nl):
    """Write the list of strs that the NUL-ended chunks stand for: a plain
    chunk with one replace, any other item by item."""
    inner = nl + " "
    first = sep = "[" + inner
    between = '",' + inner + '"'
    for chunk in chunks:
        if not chunk:
            continue
        if _plain(chunk, _PLAIN_ITEMS):
            write(sep + '"' + chunk[:-1].replace("\0", between) + '"')
        else:
            write(sep + ("," + inner).join(
                map(_STRING, chunk[:-1].split("\0"))))
        sep = "," + inner
    write("[]" if sep is first else nl + "]")


def _write_texts(texts, count, write, nl):
    """Write a list given by the texts of its count items."""
    if not count:
        write("[]")
        return
    inner = nl + " "
    sep = "[" + inner
    for _ in range(0, count, _CHUNK):
        write(sep + ("," + inner).join(itertools.islice(texts, _CHUNK)))
        sep = "," + inner
    write(nl + "]")


def _write_list(o, write, nl):
    """Write a list or tuple: one join per chunk when it holds only ints or
    only strs, item by item otherwise."""
    if not o:
        write("[]")
        return
    kinds = set(map(type, o))
    if kinds == {int}:
        _write_texts(map(str, o), len(o), write, nl)
        return
    if kinds == {str}:
        _write_texts(map(_STRING, o), len(o), write, nl)
        return
    inner = nl + " "
    sep = "[" + inner
    for x in o:
        write(sep)
        _write(x, write, inner)
        sep = "," + inner
    write(nl + "]")
