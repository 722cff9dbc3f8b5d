"""Canonical JSON, written piece by piece.

``dump(obj, f)`` writes the text of ``json.dump(obj, f, sort_keys=True,
indent=1)``, with a Fraction written as the string ``str(x)``: the one
format of every artifact. The standard library writes indented JSON with
its pure-Python encoder; this writer gives the same bytes several times
faster: a list of ints or strs is one join per chunk. Only the standard
library is used, so the writer imports without numpy.
"""
from __future__ import annotations

import itertools
import json
from fractions import Fraction

_STRING = json.encoder.encode_basestring_ascii
_INF = float("inf")


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
        if not o:
            write("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            write(sep + _key(k) + ": ")
            _write(v, write, inner)
            sep = "," + inner
        write(nl + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON "
                        f"serializable")


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
