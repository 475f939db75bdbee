"""JSON interchange: automata, pair-cost tables, linear-length specs.

One syntax for everything, canonicalized for bit-exact round trips: states
and alphabet sorted, transitions sorted by (from, symbol, to), costs always
written, and every double written as a JSON float with its sign: 17
significant digits (enough to round-trip a double exactly), plus ``.0``
where the digits alone would read as an integer, so -0.0 stays -0.0 and
1.2e16 parses back as a float.  ``save_document`` streams that text into
its file as it is rendered, so writing needs the same small memory for any
document, and a ``DocumentError`` leaves the file empty.

A list is written 2,048 items at a time, one write each.  A chunk of str,
or of dicts with one sequence of str keys whose values are, key by key,
all str, all float, all int, all bool or all lists of str, is rendered
column by column: each column's texts in one pass, each distinct double
formatted once, and the pieces joined once.  Any other chunk is written
item by item; both give the same bytes.  ``automaton_to_document`` orders
the transitions by ``automata.canonical_order``.

An automaton's transition rows are read in two tiers.  First by column,
straight to indices into the declared names: one pass each for the from,
symbol and to names, one for the costs, with whole-column cost checks.  A
failed lookup (a row not an object, a missing, undeclared or non-str name)
or cost check sends the document to a walk row by row, which names the
first offending row and hands the rows to ``CostAutomaton.create``.  A
name listed twice in ``states``, ``alphabet`` or ``accepting`` is an
error, and so is a file that json cannot read.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Any, Iterator

import numpy as np

from .automata import CostAutomaton, _numbering, canonical_order, validate
from .errors import DocumentError
from .langcost import PairCostFunction
from .linlen import LinearLengthSpec, LinearSet

__all__ = [
    "automaton_from_document",
    "automaton_to_document",
    "pair_cost_from_document",
    "pair_cost_to_document",
    "linlen_spec_from_document",
    "load_automaton",
    "load_pair_cost",
    "load_linlen_spec",
    "save_document",
    "dump_json",
]

_LARGEST = sys.float_info.max


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise DocumentError(f"non-finite number {x!r} cannot be serialized")
    text = format(x, ".17g")
    return text if "." in text or "e" in text else text + ".0"


_CHUNK = 2048  # list items rendered per write


def _float_texts(column: list) -> Iterator[str] | None:
    """The texts of a column of floats, each distinct double formatted once
    (keyed by its bits, so 0.0 and -0.0 stay apart); None when one is not
    finite, so that the item walk raises on the first of them."""
    values = np.array(column, dtype=float)
    if not np.isfinite(values).all():
        return None
    bits = values.view(np.int64).tolist()
    texts = {b: _fmt_float(x) for b, x in dict(zip(bits, column)).items()}
    return map(texts.__getitem__, bits)


def _name_lists(column: list) -> Iterator[str] | None:
    """The texts of a column of lists of str; None when an item is not a str."""
    if not set(map(type, chain.from_iterable(column))) <= {str}:
        return None
    return ("[" + ", ".join(map(_quote, names)) + "]" for names in column)


# the renderer of a column whose values are all of one type, by that type
# (read by ``type``, so True is never written as 1); None is a column it cannot write
_COLUMN_TEXTS = {
    str: lambda column: map(_quote, column),
    float: _float_texts,
    int: lambda column: map(int.__repr__, column),
    bool: lambda column: map({True: "true", False: "false"}.__getitem__, column),
    list: _name_lists,
}


def _chunk_text(chunk: list | tuple) -> str | None:
    """The text of ``chunk``'s items, rendered column by column, when they
    are all str, or all dicts with one sequence of str keys whose values
    are, key by key, all of one type in ``_COLUMN_TEXTS``; None otherwise."""
    kinds = set(map(type, chunk))
    if kinds == {str}:
        return ", ".join(map(_quote, chunk))
    if kinds != {dict}:
        return None
    keys = tuple(chunk[0])
    n = len(chunk)
    if (
        not keys
        or set(map(type, keys)) != {str}
        or set(map(len, chunk)) != {len(keys)}
        or not all(position.count(key) == n for position, key in zip(zip(*chunk), keys))
    ):
        return None
    # the rows' pieces, interleaved by slice: each key's head, its value's text, ..., "}, "
    stride = 2 * len(keys) + 1
    pieces = [""] * (n * stride)
    for i, key in enumerate(keys):
        column = list(map(itemgetter(key), chunk))
        kinds = set(map(type, column))
        render = _COLUMN_TEXTS.get(kinds.pop()) if len(kinds) == 1 else None
        texts = None if render is None else render(column)
        if texts is None:
            return None
        pieces[2 * i :: stride] = [("{" if i == 0 else ", ") + _quote(key) + ": "] * n
        pieces[2 * i + 1 :: stride] = texts
    pieces[stride - 1 :: stride] = ["}, "] * n
    return "".join(pieces)[:-2]


def _encode(o: Any, emit) -> None:
    if isinstance(o, float):
        emit(_fmt_float(o))
    elif isinstance(o, bool):
        emit("true" if o else "false")
    elif o is None:
        emit("null")
    elif isinstance(o, str):
        emit(_quote(o))
    elif isinstance(o, int):
        emit(int.__repr__(o))
    elif isinstance(o, dict):
        emit("{")
        comma = ""
        for key, value in o.items():
            emit(comma)
            emit(_quote(str(key)))
            emit(": ")
            _encode(value, emit)
            comma = ", "
        emit("}")
    elif isinstance(o, (list, tuple)):
        emit("[")
        if o and type(o[0]) in (str, dict):  # a list of names or a table of rows
            for start in range(0, len(o), _CHUNK):
                chunk = o[start : start + _CHUNK]
                text = _chunk_text(chunk)
                if start:
                    emit(", ")
                if text is None:
                    _encode_items(chunk, emit)
                else:
                    emit(text)
        else:
            _encode_items(o, emit)
        emit("]")
    else:
        raise DocumentError(f"cannot serialize {type(o).__name__}")


def _encode_items(items: list | tuple, emit) -> None:
    comma = ""
    for value in items:
        emit(comma)
        _encode(value, emit)
        comma = ", "


def dump_json(obj: Any) -> str:
    """Canonical JSON text: ``", "``/``": "`` separators, ASCII-escaped
    strings as ``json.dumps`` writes them, and floats by ``_fmt_float``."""
    parts: list[str] = []
    _encode(obj, parts.append)
    return "".join(parts)


def _finite(value: Any, key: str, where: str) -> float:
    """value as a float if it is a finite JSON number; JSON numbers past the
    double range parse as inf, and strings and booleans are not numbers."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not -_LARGEST <= value <= _LARGEST
    ):
        raise DocumentError(f"{where}: field {key!r} must be a finite number")
    return float(value)


def _require(doc: dict, key: str, kind: type, where: str) -> Any:
    if key not in doc:
        raise DocumentError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is float:
        return _finite(value, key, where)
    if not isinstance(value, kind):
        raise DocumentError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def _transition_row(t: Any, where: str, i: int) -> tuple[str, str, str, float]:
    """One transition row by the general checks, for the documents that
    ``_indexed_automaton`` does not read; raises DocumentError naming the
    first offending field."""
    if not isinstance(t, dict):
        raise DocumentError(f"{where}: transition {i} must be an object")
    at = f"{where} transition {i}"
    src, sym, dst = (_require(t, key, str, at) for key in ("from", "symbol", "to"))
    return src, sym, dst, _finite(t.get("cost", 0.0), "cost", at)


_NAME_COLUMNS = tuple(itemgetter(key) for key in ("from", "symbol", "to"))


def _indexed_automaton(alphabet, states, initial, accepting, rows: list) -> CostAutomaton | None:
    """The automaton of ``rows``, each name column read in one pass straight
    to indices into the declared names; None when some row is not an object
    with three declared names and a finite float or int cost, or the initial
    or an accepting name is not declared, so that the rows are walked."""
    (names, at), (symbols, symbol_at) = _numbering(states), _numbering(alphabet)
    indices = (at, symbol_at, at)
    try:
        src, sym, dst = (
            np.fromiter(map(index.__getitem__, map(column, rows)), np.intp, len(rows))
            for column, index in zip(_NAME_COLUMNS, indices)
        )
        start = -1 if initial is None else at[initial]
        accepting = [at[name] for name in accepting]
    except (KeyError, TypeError):  # a row not an object, a name missing, not declared or not a str
        return None
    try:
        cost = list(map(itemgetter("cost"), rows))
    except KeyError:
        cost = [t.get("cost", 0.0) for t in rows]
    kinds = set(map(type, cost))
    if not kinds <= {float, int}:
        return None
    try:
        values = np.array(cost, dtype=float)
    except OverflowError:  # an int past the double range
        return None
    # an int just past the double range converts to the largest double
    if not np.isfinite(values).all() or (int in kinds and np.abs(values).max() == _LARGEST):
        return None
    mask = np.zeros(len(names), dtype=bool)
    mask[accepting] = True
    return CostAutomaton(names, symbols, start, mask, src, sym, dst, values)


def automaton_from_document(doc: Any, where: str = "automaton") -> CostAutomaton:
    """Parse and validate; raises DocumentError naming the first offender.

    The rows are read by ``_indexed_automaton``, or walked by
    ``_transition_row`` when one of its checks fails."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    alphabet = _require(doc, "alphabet", list, where)
    states = _require(doc, "states", list, where)
    accepting = _require(doc, "accepting", list, where)
    rows = _require(doc, "transitions", list, where)
    for key, names in (("alphabet", alphabet), ("states", states), ("accepting", accepting)):
        if not (set(map(type, names)) <= {str} or all(isinstance(name, str) for name in names)):
            raise DocumentError(f"{where}: field {key!r} must be a list of strings")
    initial = doc.get("initial")
    if initial is not None and not isinstance(initial, str):
        raise DocumentError(f"{where}: field 'initial' must be a string")
    if states and initial is None:
        raise DocumentError(f"{where}: missing field 'initial'")

    a = _indexed_automaton(alphabet, states, initial, accepting, rows)
    if a is None:
        parsed = [_transition_row(t, where, i) for i, t in enumerate(rows)]
        a = CostAutomaton.create(alphabet, states, initial, accepting, parsed)
    problems = validate(a)
    if problems:
        raise DocumentError(f"{where}: " + "; ".join(problems))
    for key, names in (("alphabet", alphabet), ("states", states), ("accepting", accepting)):
        if len(set(names)) < len(names):
            twice = next(name for name, count in Counter(names).items() if count > 1)
            raise DocumentError(f"{where}: field {key!r} lists {twice!r} twice")
    return a


def automaton_to_document(a: CostAutomaton) -> dict:
    """Canonical document: names sorted, transitions by (from, symbol, to, cost)."""
    names, symbols = a.state_names, a.symbols
    order = canonical_order(a)
    return {
        "alphabet": sorted(a.alphabet),
        "states": sorted(a.states) if a.undeclared[0] else list(names),
        "initial": a.initial,
        # the names are sorted, so the accepting ones are in mask order
        "accepting": [names[q] for q in np.flatnonzero(a.accepting_mask).tolist()],
        "transitions": [
            {"from": names[s], "symbol": symbols[y], "to": names[d], "cost": c}
            for s, y, d, c in zip(
                a.src[order].tolist(), a.sym[order].tolist(), a.dst[order].tolist(), a.cost[order].tolist()
            )
        ],
    }


def pair_cost_from_document(doc: Any, alphabet=None, where: str = "pair costs") -> PairCostFunction:
    """Parse a pair-cost document; raises DocumentError naming the first
    offending pair, including a pair listed twice and, when ``alphabet`` is
    given, a symbol outside it."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    pairs = _require(doc, "pairs", list, where)
    default = _finite(doc.get("default", 0.0), "default", where)
    entries = {}
    for i, p in enumerate(pairs):
        if not isinstance(p, dict):
            raise DocumentError(f"{where}: pair {i} must be an object")
        at = f"{where} pair {i}"
        first = _require(p, "first", str, at)
        second = _require(p, "second", str, at)
        cost = _require(p, "cost", float, at)
        for symbol in (first, second):
            if alphabet is not None and symbol not in alphabet:
                raise DocumentError(f"{at}: symbol {symbol!r} is not in the alphabet")
        if (first, second) in entries:
            raise DocumentError(f"{at}: pair ({first!r}, {second!r}) is listed twice")
        entries[(first, second)] = cost
    return PairCostFunction.create(entries, default=default, alphabet=alphabet)


def pair_cost_to_document(u: PairCostFunction) -> dict:
    return {
        "pairs": [
            {"first": a, "second": b, "cost": c}
            for (a, b), c in sorted(u.entries.items())
        ],
        "default": u.default,
    }


def linlen_spec_from_document(doc: Any, where: str = "linlen spec") -> LinearLengthSpec:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    base = automaton_from_document(_require(doc, "base", dict, where), f"{where} base")
    raw_parts = _require(doc, "parts", list, where)
    parts = tuple(
        automaton_from_document(p, f"{where} part {i + 1}") for i, p in enumerate(raw_parts)
    )
    raw_lengths = _require(doc, "lengths", dict, where)
    offset = _require(raw_lengths, "offset", list, f"{where} lengths")
    try:
        lengths = LinearSet.create(offset, raw_lengths.get("periods", []))
    except ValueError as e:
        raise DocumentError(f"{where} lengths: {e}") from e
    pair_doc = doc.get("pair_cost", {"pairs": []})
    pair_cost = pair_cost_from_document(pair_doc, alphabet=base.alphabet, where=f"{where} pair_cost")
    return LinearLengthSpec(base=base, parts=parts, lengths=lengths, pair_cost=pair_cost)


def _reject_constant(token: str) -> float:
    # Infinity/NaN are a json-module extension, not JSON; refuse both ways
    raise DocumentError(f"non-finite number {token} is not valid JSON")


def _load_json(path: str) -> Any:
    """The JSON value in ``path``; every failure to read it is a
    DocumentError that names the path."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path} is not valid JSON: {e}") from e
    except DocumentError as e:  # from _reject_constant
        raise DocumentError(f"{path}: {e}") from e
    except (OSError, ValueError) as e:  # ValueError: a byte not UTF-8, an int past the digit limit
        raise DocumentError(f"cannot read {path}: {e}") from e
    except RecursionError as e:
        raise DocumentError(f"cannot read {path}: it nests too deeply") from e


def load_automaton(path: str) -> CostAutomaton:
    return automaton_from_document(_load_json(path), where=path)


def load_pair_cost(path: str, alphabet=None) -> PairCostFunction:
    return pair_cost_from_document(_load_json(path), alphabet=alphabet, where=path)


def load_linlen_spec(path: str) -> LinearLengthSpec:
    return linlen_spec_from_document(_load_json(path), where=path)


def save_document(path: str, doc: Any) -> None:
    """Write ``doc``'s canonical text and a newline to ``path``.

    The text is streamed into the file as it is rendered, so the memory
    this needs does not grow with the document. A ``DocumentError`` (a
    non-finite number, a value JSON cannot hold) leaves the file empty."""
    try:
        with open(path, "w", encoding="utf-8") as f:
            try:
                _encode(doc, f.write)
            except DocumentError:
                f.truncate(0)
                raise
            f.write("\n")
    except OSError as e:
        raise DocumentError(f"cannot write {path}: {e}") from e
