"""JSON interchange: automata, pair-cost tables, linear-length specs.

One syntax for everything, canonicalized for bit-exact round trips: states
and alphabet sorted, transitions sorted by (from, symbol, to), costs always
written, floats rendered with 17 significant digits (enough to round-trip
a double exactly).
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

import numpy as np

from .automata import CostAutomaton, validate
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
    if x == int(x) and abs(x) < 1e16:
        return str(int(x)) + ".0"
    return format(x, ".17g")


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
            if type(value) is str:  # the common leaves, without a call
                emit(_quote(value))
            elif type(value) is float:
                emit(_fmt_float(value))
            else:
                _encode(value, emit)
            comma = ", "
        emit("}")
    elif isinstance(o, (list, tuple)):
        emit("[")
        comma = ""
        for value in o:
            emit(comma)
            _encode(value, emit)
            comma = ", "
        emit("]")
    else:
        raise DocumentError(f"cannot serialize {type(o).__name__}")


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
    """One transition row by the general checks, for the rows that the
    plain-row test in automaton_from_document does not pass; raises
    DocumentError naming the first offending field."""
    if not isinstance(t, dict):
        raise DocumentError(f"{where}: transition {i} must be an object")
    at = f"{where} transition {i}"
    src, sym, dst = (_require(t, key, str, at) for key in ("from", "symbol", "to"))
    return src, sym, dst, _finite(t.get("cost", 0.0), "cost", at)


def automaton_from_document(doc: Any, where: str = "automaton") -> CostAutomaton:
    """Parse and validate; raises DocumentError naming the first offender.

    One pass over the transition rows fills four columns (names for
    from/symbol/to, numbers for cost); the automaton interns the names."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    alphabet = _require(doc, "alphabet", list, where)
    states = _require(doc, "states", list, where)
    accepting = _require(doc, "accepting", list, where)
    rows = _require(doc, "transitions", list, where)
    for key, names in (("alphabet", alphabet), ("states", states), ("accepting", accepting)):
        if not all(isinstance(name, str) for name in names):
            raise DocumentError(f"{where}: field {key!r} must be a list of strings")
    initial = doc.get("initial")
    if initial is not None and not isinstance(initial, str):
        raise DocumentError(f"{where}: field 'initial' must be a string")
    if states and initial is None:
        raise DocumentError(f"{where}: missing field 'initial'")

    src: list[str] = []
    sym: list[str] = []
    dst: list[str] = []
    cost: list[float] = []
    largest = _LARGEST
    for i, t in enumerate(rows):
        if type(t) is dict:
            s, y, d, c = t.get("from"), t.get("symbol"), t.get("to"), t.get("cost", 0.0)
            plain = type(s) is str and type(y) is str and type(d) is str
            if plain and (type(c) is float or type(c) is int) and -largest <= c <= largest:
                src.append(s)
                sym.append(y)
                dst.append(d)
                cost.append(c)
                continue
        s, y, d, c = _transition_row(t, where, i)
        src.append(s)
        sym.append(y)
        dst.append(d)
        cost.append(c)

    a = CostAutomaton.from_columns(alphabet, states, initial, accepting, src, sym, dst, cost)
    problems = validate(a)
    if problems:
        raise DocumentError(f"{where}: " + "; ".join(problems))
    return a


def automaton_to_document(a: CostAutomaton) -> dict:
    """Canonical document: names sorted, transitions by (from, symbol, to, cost)."""
    order = np.lexsort((a.cost, a.dst, a.sym, a.src))
    names, symbols = a.state_names, a.symbols
    return {
        "alphabet": sorted(a.alphabet),
        "states": sorted(a.states),
        "initial": a.initial,
        "accepting": sorted(a.accepting),
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
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f, parse_constant=_reject_constant)
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise DocumentError(f"{path} is not valid JSON: {e}") from e


def load_automaton(path: str) -> CostAutomaton:
    return automaton_from_document(_load_json(path), where=path)


def load_pair_cost(path: str, alphabet=None) -> PairCostFunction:
    return pair_cost_from_document(_load_json(path), alphabet=alphabet, where=path)


def load_linlen_spec(path: str) -> LinearLengthSpec:
    return linlen_spec_from_document(_load_json(path), where=path)


def save_document(path: str, doc: Any) -> None:
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(dump_json(doc) + "\n")
    except OSError as e:
        raise DocumentError(f"cannot write {path}: {e}") from e
