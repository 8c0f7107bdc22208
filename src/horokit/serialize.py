"""JSON descriptors for spaces, points, and reports.

Exact rationals serialize as "p/q" strings (plain "p" when integral);
floats serialize as their shortest round-trip decimals.

A space descriptor {"type": t, "params": {...}} builds t's constructor with
the params as its keyword arguments (a group as its Cayley graph); "finite"
also takes "base" (0).  A tagged point {"kind": k, **keywords} is its kind's
constructor ``kinds[k]`` called with the keywords.  Any other key is invalid
input, as are a missing key without a default (each error names the key), a
coordinate point that is not a JSON list and a JSON boolean in a number field.

  type            constructor                         point
  finite          FiniteMetricSpace(matrix)           index
  zd              Zd(dim=1)                           [int, ...]
  free            FreeGroup(rank=2)                   word, as "abA"
  heisenberg      Heisenberg()                        [a, b, c]
  finite_group    FiniteGroup(table, generators)      index
  spoke_ray       SpokeRaySpace()                     {"kind": "hub"|"ray"|"head"|"spoke", **keywords}
  star_tree       StarTreeSpace()                     {"kind": "hub"|"int", **keywords}, "int" by default
  distorted_line  DistortedLine(distortion="sqrt")    number
  poincare_disk   PoincareDisk()                      [x, y]
  half_plane      UpperHalfPlane()                    [x, y]
  lp              LpSpace(p=2, dim=2)                 [x, ...]

``emit_json`` returns exactly the text of ``json.dumps(obj, default=...,
sort_keys=True, indent=2)`` without the stdlib's per-value generators, as
one list of pieces joined once: a list or tuple of only exact ints, or only
exact strs, is one ``join``, and a ``RowTable`` (the restrictions
``LimitRestrictionSet.as_dict`` writes) is one row's text cut at its values
into a head, a separator and a tail: the text of each distinct value is
made once, each row is one join of those texts and all rows one join.

A report is a dataclass written as its fields: ``skip`` in a field's
metadata leaves it out, ``key`` writes it under another name, and ``json``
converts a value that is not None, ``each`` each item of one.  An object
with ``as_dict`` is written as what that returns.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
from collections.abc import Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _str
from typing import Any

import numpy as np

from .errors import InvalidParameterError, UnsupportedError
from .groups import CayleyGraphSpace, FiniteGroup, FreeGroup, GroupFamily, Heisenberg, Zd
from .metric import FiniteMetricSpace, MetricSpace, exact_text, integer_field, list_field, real_field
from .spaces import DistortedLine, LpSpace, PoincareDisk, SpokeRaySpace, StarTreeSpace, UpperHalfPlane

SCHEMA_VERSION = "1"


SPACE_TYPES = {"zd": Zd, "free": FreeGroup, "heisenberg": Heisenberg, "finite_group": FiniteGroup,
               "spoke_ray": SpokeRaySpace, "star_tree": StarTreeSpace, "distorted_line": DistortedLine,
               "poincare_disk": PoincareDisk, "half_plane": UpperHalfPlane, "lp": LpSpace}


def space_from_descriptor(desc: dict) -> MetricSpace:
    """Build a metric space from a JSON descriptor: its ``params`` are the
    keyword arguments of its type's constructor, and any other key is an
    error that names it."""
    if not isinstance(desc, dict) or "type" not in desc:
        raise InvalidParameterError("space descriptor must be a dict with a 'type'")
    kind, params = desc["type"], desc.get("params", {})
    if kind == "finite":
        top = ("type", "params", "base")

        def ctor(matrix):
            # Entries read as Fraction(str(v)) reads them: a JSON int as it is, and
            # any other value as its text, which FiniteMetricSpace reads exactly.
            matrix = [[v if type(v) is int else str(v) for v in row] for row in list_field(matrix, "matrix", rows=True)]
            return FiniteMetricSpace(matrix, base_index=integer_field(desc.get("base", 0), "base"))
    else:
        ctor = SPACE_TYPES.get(kind) if isinstance(kind, str) else None
        if ctor is None:
            raise InvalidParameterError(f"unknown space type {kind!r}")
        top = ("type", "params")
    if not isinstance(params, dict):
        raise InvalidParameterError(f"params must be a JSON object, got {params!r}")
    _check_keys(desc, top, "descriptor", f"space type {kind!r}")
    _check_keys(params, inspect.signature(ctor).parameters, "params", f"space type {kind!r}")
    space = ctor(**params)
    return CayleyGraphSpace(space) if isinstance(space, GroupFamily) else space


def _check_keys(keys, known, where: str, of: str) -> None:
    """The one check of descriptor and point keys: the first key not in
    ``known`` is an error that names it, ``where`` it was and ``of`` what,
    and so, when ``known`` is a signature's parameters, is the first of
    them without a default that the keys leave out."""
    bad = next((k for k in keys if k not in known), None)
    if bad is not None:
        raise InvalidParameterError(f"unknown {where} key {bad!r} for {of}")
    params = known.values() if isinstance(known, Mapping) else ()
    lost = next((p.name for p in params if p.default is p.empty and p.name not in keys), None)
    if lost is not None:
        raise InvalidParameterError(f"missing {where} key {lost!r} for {of}")


def point_from_json(space: MetricSpace, obj) -> Any:
    """Parse a point of the given space from its JSON form and check that
    it lies in the space."""
    p = _parse_point(space, obj)
    space.check_point(p)
    return p


def _parse_point(space: MetricSpace, obj) -> Any:
    if isinstance(space, FiniteMetricSpace):
        return integer_field(obj, "point")
    if isinstance(space, CayleyGraphSpace):
        if isinstance(space.family, FiniteGroup):
            return integer_field(obj, "element")
        if isinstance(space.family, FreeGroup):
            return space.family.word(str(obj))
        if not isinstance(obj, list):
            raise InvalidParameterError(f"a coordinate point must be a JSON list, got {obj!r}")
        return tuple(integer_field(v, "coordinate") for v in obj)
    if isinstance(space, (SpokeRaySpace, StarTreeSpace)):
        if not isinstance(obj, dict):
            raise InvalidParameterError(f"a tagged point must be a JSON object, got {obj!r}")
        kind = obj.get("kind", "int")  # a star-tree interval point may leave its kind out
        ctor = space.kinds.get(kind) if isinstance(kind, str) else None
        if ctor is None:
            raise InvalidParameterError(f"unknown tagged point {obj!r}")
        fields = {k: v for k, v in obj.items() if k != "kind"}
        _check_keys(fields, inspect.signature(ctor).parameters, "point", f"kind {kind!r}")
        return ctor(**fields)
    if isinstance(space, DistortedLine):
        return real_field(obj, "point")
    if isinstance(space, (PoincareDisk, UpperHalfPlane)):
        try:
            if isinstance(obj, (list, tuple)) and len(obj) == 2 and bool not in map(type, obj):
                return complex(*obj)
        except (TypeError, OverflowError):  # a str or a container; an int past the float range
            pass
        raise InvalidParameterError(f"a hyperbolic point must be a pair of numbers, got {obj!r}")
    if isinstance(space, LpSpace):
        if not (isinstance(obj, list) and all(type(v) in (int, float) for v in obj)):  # no bool, no list
            raise InvalidParameterError(f"an l^p point must be a flat JSON list of numbers, got {obj!r}")
        return real_field(obj, "point", lambda v: np.asarray(v, dtype=float))
    raise UnsupportedError(f"no point parser for {type(space).__name__}")


def _default(o):
    """Convert a value JSON has no literal for; the result is written in its place."""
    if isinstance(o, Fraction):
        return exact_text(o)  # "p", or "p/q" in lowest terms
    if isinstance(o, (np.ndarray, np.integer, np.floating)):
        return o.tolist()
    if isinstance(o, complex):
        return [o.real, o.imag]
    if hasattr(o, "as_dict"):
        return o.as_dict()
    if dataclasses.is_dataclass(o) and not isinstance(o, type):
        # One level deep: a nested dataclass is converted in its turn, by
        # its own as_dict if it has one (dataclasses.asdict would not).
        out = {}
        for f in dataclasses.fields(o):
            m, v = f.metadata, getattr(o, f.name)
            if not m.get("skip"):
                if v is not None and "json" in m:
                    v = m["json"](v)
                elif v is not None and "each" in m:
                    v = list(map(m["each"], v))
                out[m.get("key", f.name)] = v
        return out
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _literal(o) -> str | None:
    """The stdlib's text for None, a bool, an int or a float; else None."""
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return "NaN" if o != o else "Infinity" if o == math.inf else "-Infinity" if o == -math.inf else float.__repr__(o)
    return None


@dataclasses.dataclass(frozen=True, eq=False)
class RowTable:
    """The list of dicts, given by ``as_dict``, that share ``fields`` and
    whose "values" in dict i is row i of the integer matrix ``values``.
    Tables compare by identity, as an array has no single truth value."""

    fields: dict
    values: np.ndarray

    def as_dict(self) -> list[dict]:
        return [{**self.fields, "values": v} for v in self.values.tolist()]


_SLOT = object()  # a RowTable value's place in its row's text


def _value_texts(V: np.ndarray) -> np.ndarray:
    """The decimal text of each entry of the non-empty integer matrix V, as
    an object array of V's shape, made once per distinct value: from the
    texts of every integer from min to max when they are no more than V's
    entries, else from np.unique, so that memory is O(V.size) at any span."""
    lo, hi = int(V.min()), int(V.max())
    if hi - lo < V.size:
        return np.array(list(map(str, range(lo, hi + 1))), dtype=object)[np.subtract(V, lo, dtype=np.intp)]
    distinct, at = np.unique(V, return_inverse=True)
    return np.array(list(map(str, distinct.tolist())), dtype=object)[at.reshape(V.shape)]


def emit_json(obj) -> str:
    """Deterministic JSON: sorted keys, two-space indent, ASCII only."""
    out: list = []

    def write(o, level: int) -> None:
        scalar = _str(o) if isinstance(o, str) else _literal(o)
        if scalar is not None or o is _SLOT:
            out.append(o if o is _SLOT else scalar)
        elif isinstance(o, RowTable) and o.values.size:
            # One row's text, cut at its values ("\0" marks them: a JSON string
            # escapes it) into a head, the separator between values and a
            # tail, and each distinct value's text made once: every row is
            # one join of texts, and all rows one join of rows.
            start, sep = len(out), ",\n" + "  " * (level + 1)
            write({**o.fields, "values": [_SLOT] * o.values.shape[1]}, level + 1)
            head, *inner, tail = "".join("\0" if p is _SLOT else p for p in out[start:]).split("\0")
            rows = map((inner or [""])[0].join, _value_texts(o.values).tolist())
            out[start:] = ["[", sep[1:], head, (tail + sep + head).join(rows), tail, "\n" + "  " * level + "]"]
        elif not isinstance(o, (list, tuple, dict)):
            write(_default(o), level)
        elif not o:
            out.append("{}" if isinstance(o, dict) else "[]")
        else:
            inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
            if isinstance(o, dict):
                for i, (k, v) in enumerate(sorted(o.items())):
                    key = k if isinstance(k, str) else _literal(k)
                    if key is None:
                        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
                    out.append(("," if i else "{") + inner + _str(key) + ": ")
                    write(v, level + 1)
                out.append(outer + "}")
            elif (kinds := set(map(type, o))) in ({str}, {int}):  # repr is int.__repr__ here
                out.append("[" + inner + ("," + inner).join(map(_str if str in kinds else repr, o)) + outer + "]")
            else:
                for i, v in enumerate(o):
                    out.append(("," if i else "[") + inner)
                    write(v, level + 1)
                out.append(outer + "]")

    write(obj, 0)
    return "".join(out)
