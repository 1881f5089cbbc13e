"""The input boundary: one JSON reader, one number check, one horizon parser,
and the cycle check that KB overrides and theory superiority share.

The bounds are fixed. A value outside them is an error at its path; it is
never expanded into an oversized integer first.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from decimal import Decimal, InvalidOperation
from typing import Hashable, Iterable

from .errors import ForecastError, SchemaError

#: Numbers need |x| < 10**MAX_INT_DIGITS and at most MAX_PLACES digits after
#: the point, so they carry at most 15 significant digits.
MAX_INT_DIGITS = 9
MAX_PLACES = 6
#: So every number is a whole number of millionths, and is held as one.
MILLION = 10**MAX_PLACES
#: Symbolic horizons run h0..h366: a year of days ahead.
MAX_HORIZON = 366

HORIZON_RE = re.compile(r"h([0-9]+)\Z")

#: A lone surrogate can only come from a \ud800-\udfff escape in the text.
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")

#: Stands in for every value of a key that an object repeats.
_REPEATED = object()


def read_json_object(data: bytes) -> dict:
    """The top-level object of a UTF-8 JSON document.

    Every JSON number comes back as an exact Decimal for exact_number to
    bound; none is converted to a float or an int here. No object repeats a
    key, and no key or string holds a lone surrogate, so every string can be
    written back as UTF-8.
    """
    repeats = []

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            counts = Counter(key for key, _ in pairs)
            obj.update((key, _REPEATED) for key, n in counts.items() if n > 1)
            repeats.append(obj)
        return obj

    try:
        text = data.decode("utf-8")
        doc = json.loads(text, parse_float=Decimal, parse_int=Decimal,
                         object_pairs_hook=unique_keys)
    except (ValueError, InvalidOperation, RecursionError) as exc:
        raise SchemaError("", f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("", "top level must be an object")
    if repeats or _SURROGATE_ESCAPE_RE.search(text):
        _check_keys(doc)
    return doc


def _check_keys(doc: dict) -> None:
    """Walk the document without recursion for lone surrogates and repeated
    keys; the error names the key path, which holds only keys already
    checked."""
    stack: list[tuple[str, object]] = [("", doc)]
    while stack:
        path, node = stack.pop()
        if node is _REPEATED:
            raise SchemaError(path, "duplicate key")
        if isinstance(node, str) and _SURROGATE_RE.search(node):
            raise SchemaError(path, "string holds a lone surrogate")
        if isinstance(node, dict):
            if any(_SURROGATE_RE.search(key) for key in node):
                raise SchemaError(path, "key holds a lone surrogate")
            stack.extend((f"{path}.{key}" if path else key, child)
                         for key, child in node.items())
        elif isinstance(node, list):
            stack.extend((f"{path}[{i}]", child) for i, child in enumerate(node))


def exact_number(value, path: str) -> int:
    """A JSON number in millionths, checked against the bounds first, which
    make it exact. Trailing zeros after the point do not count."""
    if not isinstance(value, Decimal) or not value.is_finite():
        raise SchemaError(path, "must be a number")
    _, digits, exponent = value.as_tuple()
    if exponent < -MAX_PLACES:
        significant = "".join(map(str, digits)).rstrip("0")
        exponent += len(digits) - len(significant)
        digits = significant
    if value and (exponent < -MAX_PLACES or len(digits) + exponent > MAX_INT_DIGITS):
        raise SchemaError(path, f"out of bounds: numbers need |x| < 1e{MAX_INT_DIGITS} "
                                f"and at most {MAX_PLACES} digits after the point")
    return int(value.scaleb(MAX_PLACES)) if value else 0


def parse_horizon(text: str) -> int:
    """k of a symbolic horizon "h<k>", for 0 <= k <= MAX_HORIZON; a long
    digit string is refused before int() would convert it."""
    m = HORIZON_RE.match(text)
    if m is None or len(m[1]) > 9 or int(m[1]) > MAX_HORIZON:
        raise ForecastError(f"bad horizon {text!r}: expected h0..h{MAX_HORIZON}")
    return int(m[1])


def has_cycle(edges: Iterable[tuple[Hashable, Hashable]]) -> bool:
    """Whether the directed graph given by its edges has a cycle.

    Kahn's algorithm: it peels off nodes with no incoming edge, and a cycle
    is what remains. Iterative, so a long chain cannot exhaust the stack.
    """
    successors: dict[Hashable, list] = {}
    indegree: dict[Hashable, int] = {}
    for a, b in edges:
        successors.setdefault(a, []).append(b)
        indegree.setdefault(a, 0)
        indegree[b] = indegree.get(b, 0) + 1
    ready = [node for node, n in indegree.items() if n == 0]
    for node in ready:
        for nxt in successors.get(node, ()):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return len(ready) < len(indegree)
