import json
import math
import os
import random
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gurevich import (
    CostAutomaton,
    DocumentError,
    PairCostFunction,
    StateCapExceeded,
    Transition,
    accepts,
    automaton_from_document,
    automaton_to_document,
    block_automaton,
    count_series,
    determinize,
    dump_json,
    free_energy,
    implement_construction,
    lambda_exact,
    linlen_energy,
    linlen_spec_from_document,
    linlen_word_oracle,
    load_automaton,
    load_linlen_spec,
    pair_cost_from_document,
    pair_cost_to_document,
    run_partition_series,
    save_document,
    similarity,
    verify_implements,
    word_partition_series,
)
from gurevich import documents
from gurevich.cli import main
from gurevich.documents import _CHUNK

from conftest import linlen_doc, random_automaton


def branchy_doc():
    return {
        "alphabet": ["a", "b"],
        "states": ["A", "B", "C", "D", "E", "F"],
        "initial": "A",
        "accepting": ["A"],
        "transitions": [
            {"from": "A", "symbol": "a", "to": "B", "cost": 0.0},
            {"from": "A", "symbol": "a", "to": "C", "cost": 0.0},
            {"from": "A", "symbol": "a", "to": "D", "cost": 0.0},
            {"from": "A", "symbol": "b", "to": "E", "cost": 0.0},
            {"from": "B", "symbol": "a", "to": "F", "cost": 0.0},
            {"from": "C", "symbol": "a", "to": "F", "cost": 0.0},
            {"from": "D", "symbol": "a", "to": "F", "cost": 0.0},
            {"from": "E", "symbol": "a", "to": "F", "cost": 0.0},
            {"from": "F", "symbol": "b", "to": "E", "cost": 0.0},
            {"from": "F", "symbol": "b", "to": "A", "cost": 0.0},
        ],
    }


class TestAutomatonDocuments:
    def test_round_trip_is_identity_on_canonical_form(self):
        doc = branchy_doc()
        a = automaton_from_document(doc)
        out = automaton_to_document(a)
        again = automaton_from_document(out)
        assert again.states == a.states
        assert again.alphabet == a.alphabet
        assert again.initial == a.initial
        assert again.accepting == a.accepting
        assert set(again.transitions) == set(a.transitions)
        assert out == automaton_to_document(again)

    def test_scrambled_input_canonicalizes(self):
        doc = branchy_doc()
        doc["states"] = list(reversed(doc["states"]))
        doc["transitions"] = list(reversed(doc["transitions"]))
        doc["accepting"] = doc["accepting"][::-1]
        out = automaton_to_document(automaton_from_document(doc))
        assert out["states"] == sorted(out["states"])
        assert out["alphabet"] == sorted(out["alphabet"])
        froms = [(t["from"], t["symbol"], t["to"]) for t in out["transitions"]]
        assert froms == sorted(froms)
        assert out == automaton_to_document(automaton_from_document(branchy_doc()))

    def test_same_document_as_sorting_the_named_views(self):
        for seed in range(40):
            a = random_automaton(seed, max_states=9, costs="mixed")
            assert automaton_to_document(a) == {
                "alphabet": sorted(a.alphabet),
                "states": sorted(a.states),
                "initial": a.initial,
                "accepting": sorted(a.accepting),
                "transitions": [
                    {"from": t.source, "symbol": t.symbol, "to": t.target, "cost": t.cost}
                    for t in sorted(a.transitions)
                ],
            }

    def test_hand_built_automata(self):
        # a repeated triple is ordered by its costs; an undeclared state is not listed
        a = CostAutomaton.create(
            ["a"], ["p"], "p", ["r"], [("p", "a", "p", 0.5), ("p", "a", "r", 0.0), ("p", "a", "p", -1.0)]
        )
        doc = automaton_to_document(a)
        assert doc["states"] == ["p"] and doc["accepting"] == ["r"]
        assert [(t["to"], t["cost"]) for t in doc["transitions"]] == [("p", -1.0), ("p", 0.5), ("r", 0.0)]

    def test_missing_cost_defaults_to_zero(self):
        doc = branchy_doc()
        for t in doc["transitions"]:
            del t["cost"]
        a = automaton_from_document(doc)
        assert all(t.cost == 0.0 for t in a.transitions)
        out = automaton_to_document(a)
        assert all("cost" in t for t in out["transitions"])

    def test_float_survives_17_digit_round_trip(self):
        doc = branchy_doc()
        doc["transitions"][0]["cost"] = math.pi
        a = automaton_from_document(doc)
        text = dump_json(automaton_to_document(a))
        again = automaton_from_document(json.loads(text))
        costs = {t.cost for t in again.transitions}
        assert math.pi in costs

    def test_integral_costs_keep_float_shape(self):
        doc = branchy_doc()
        doc["transitions"][0]["cost"] = 2.0
        text = dump_json(automaton_to_document(automaton_from_document(doc)))
        assert '"cost": 2.0' in text
        assert '"cost": 2,' not in text

    def test_negative_zero_cost_keeps_its_sign(self, tmp_path):
        doc = branchy_doc()
        doc["transitions"][0]["cost"] = -0.0
        path = str(tmp_path / "m.json")
        save_document(path, automaton_to_document(automaton_from_document(doc)))
        a = load_automaton(path)
        signs = {(t.source, t.symbol, t.target): math.copysign(1.0, t.cost) for t in a.transitions}
        assert signs.pop(("A", "a", "B")) == -1.0
        assert set(signs.values()) == {1.0}

    @pytest.mark.parametrize("x", [1.2e16, 12212617090597138.0, -1e16])
    def test_integral_doubles_past_1e16_stay_floats(self, x):
        # ".17g" writes 1.2e16 as 12000000000000000, which parses as an int
        again = json.loads(dump_json([x]))[0]
        assert type(again) is float and again == x

    def test_errors_name_the_offender(self):
        doc = branchy_doc()
        doc["initial"] = "Z"
        with pytest.raises(DocumentError, match="unknown initial 'Z'"):
            automaton_from_document(doc)
        doc = branchy_doc()
        del doc["alphabet"]
        with pytest.raises(DocumentError, match="missing field 'alphabet'"):
            automaton_from_document(doc)
        doc = branchy_doc()
        doc["transitions"][3]["cost"] = True
        with pytest.raises(DocumentError, match="transition 3.*cost.*number"):
            automaton_from_document(doc)
        with pytest.raises(DocumentError, match="expected a JSON object"):
            automaton_from_document([1, 2])

    @pytest.mark.parametrize(
        "cost",
        ["1.5", "inf", "nan", float("inf"), float("-inf"), float("nan"), pytest.param(10**400, id="10**400")],
    )
    def test_cost_must_be_a_finite_number(self, cost):
        # float("inf") is what the JSON number 1e400 parses to, and a JSON
        # integer past the double range stays an int
        doc = branchy_doc()
        doc["transitions"][4]["cost"] = cost
        with pytest.raises(DocumentError, match="transition 4: field 'cost' must be a finite number"):
            automaton_from_document(doc)

    def test_duplicate_transition_rejected(self):
        doc = branchy_doc()
        doc["transitions"].append(dict(doc["transitions"][0]))
        with pytest.raises(DocumentError, match="duplicate"):
            automaton_from_document(doc)


def row_fault(field, value):
    """A branchy_doc edit: row 4's ``field`` set to ``value``, or removed
    when value is ``missing``; ``field`` None replaces the whole row."""

    def edit(doc):
        if field is None:
            doc["transitions"][4] = value
        elif value == "missing":
            del doc["transitions"][4][field]
        else:
            doc["transitions"][4][field] = value

    return edit


NOT_STR = {"int": 3, "list": ["B"], "None": None, "bool": True}
NOT_FINITE = {"bool": True, "str": "1.5", "inf": math.inf, "10**400": 10**400, "max+1": int(sys.float_info.max) + 1}
LOAD_FAULTS = (
    [
        pytest.param(row_fault(None, row), "automaton: transition 4 must be an object", id=f"row-{kind}")
        for kind, row in {"list": ["F", "b", "E"], "str": "F b E", "None": None}.items()
    ]
    + [
        pytest.param(row_fault(key, "missing"), f"automaton transition 4: missing field {key!r}", id=f"no-{key}")
        for key in ("from", "symbol", "to")
    ]
    + [
        pytest.param(row_fault(key, value), f"automaton transition 4: field {key!r} must be str", id=f"{key}-{kind}")
        for key in ("from", "symbol", "to")
        for kind, value in NOT_STR.items()
    ]
    + [
        pytest.param(row_fault("cost", value), "automaton transition 4: field 'cost' must be a finite number",
                     id=f"cost-{kind}")
        for kind, value in NOT_FINITE.items()
    ]
)


class TestLoadErrorContract:
    """The transition rows are read by column, and only a document that
    fails a column check is walked row by row; the message is the one that
    walk gives, naming the first offending row and field."""

    @pytest.mark.parametrize("edit, message", LOAD_FAULTS)
    def test_message(self, edit, message):
        doc = branchy_doc()
        edit(doc)
        with pytest.raises(DocumentError) as e:
            automaton_from_document(doc)
        assert str(e.value) == message

    def test_json_number_past_the_double_range(self, tmp_path):
        path = tmp_path / "m.json"
        text = dump_json(branchy_doc()).replace('"cost": 0.0}', '"cost": 1e400}', 1)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DocumentError) as e:
            load_automaton(str(path))
        assert str(e.value) == f"{path} transition 0: field 'cost' must be a finite number"

    def test_the_first_of_two_bad_rows_is_named(self):
        doc = branchy_doc()
        doc["transitions"][7]["to"] = 7
        doc["transitions"][2]["cost"] = "x"
        with pytest.raises(DocumentError) as e:
            automaton_from_document(doc)
        assert str(e.value) == "automaton transition 2: field 'cost' must be a finite number"

    def test_costs_at_the_edge_of_the_double_range(self):
        # the largest double, as a float and as a JSON integer, is a cost
        doc = branchy_doc()
        doc["transitions"][0]["cost"] = int(sys.float_info.max)
        doc["transitions"][1]["cost"] = -sys.float_info.max
        doc["transitions"][2]["cost"] = 2**64 + 1
        a = automaton_from_document(doc)
        assert a.cost[:3].tolist() == [sys.float_info.max, -sys.float_info.max, float(2**64 + 1)]

    def test_rows_outside_the_column_checks(self):
        # a dict subclass, a str subclass and a numpy float are walked row
        # by row, and load like their plain values
        class Row(dict):
            pass

        class Name(str):
            pass

        doc = branchy_doc()
        doc["transitions"][1] = Row(doc["transitions"][1])
        doc["transitions"][2]["to"] = Name("D")
        doc["transitions"][3]["cost"] = np.float64(0.25)
        plain = branchy_doc()
        plain["transitions"][3]["cost"] = 0.25
        assert automaton_from_document(doc) == automaton_from_document(plain)

    def test_undeclared_names_that_are_not_str(self, tmp_path, capsys):
        # the int names are not in the declared ones' index, so the row
        # walk reads the document and names the first of them
        doc = {"alphabet": [], "states": [], "accepting": [],
               "transitions": [{"from": 1, "symbol": 2, "to": 3}]}
        with pytest.raises(DocumentError) as e:
            automaton_from_document(doc)
        assert str(e.value) == "automaton transition 0: field 'from' must be str"
        path = str(tmp_path / "m.json")
        save_document(path, doc)
        assert main(["energy", path]) == 2
        assert capsys.readouterr().err == f"error: {path} transition 0: field 'from' must be str\n"

    @pytest.mark.parametrize("field, twice", [("states", "B"), ("alphabet", "a"), ("accepting", "A")])
    def test_name_listed_twice(self, tmp_path, capsys, field, twice):
        doc = branchy_doc()
        doc[field].append(twice)
        message = f"field {field!r} lists {twice!r} twice"
        with pytest.raises(DocumentError) as e:
            automaton_from_document(doc)
        assert str(e.value) == f"automaton: {message}"
        path = str(tmp_path / "m.json")
        save_document(path, doc)
        assert main(["energy", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


_LARGEST_INT = int(sys.float_info.max)
READER_FAULTS = [
    ("row", ["q", "b", "p"]),
    *(("name", value) for value in ("x", 3, "missing")),  # x is never declared
    *(("cost", value) for value in (True, "1.5", None, math.inf, 2**1024, _LARGEST_INT, -_LARGEST_INT - 1)),
    ("initial", "x"),
    ("accepting", "x"),
    ("states", ["p", "q", "r", "q"]),
    ("states", []),
]


@st.composite
def reader_documents(draw):
    """A plain automaton document, its rows with float or int costs or
    none, with up to two faults: a row that is a list, a name that is
    missing, undeclared or an int, a cost that is a bool, a str, None,
    not finite or an int at or past the double range, an undeclared
    initial or accepting name, a state listed twice or no states."""
    states = ["p", "q", "r"]
    row = st.fixed_dictionaries(
        {"from": st.sampled_from(states), "symbol": st.sampled_from(["a", "b"]), "to": st.sampled_from(states)},
        optional={"cost": st.floats(-4.0, 4.0) | st.integers(-3, 3)},
    )
    doc = {
        "alphabet": ["a", "b"],
        "states": states,
        "initial": draw(st.sampled_from(states)),
        "accepting": draw(st.lists(st.sampled_from(states), unique=True, max_size=2)),
        "transitions": draw(st.lists(row, max_size=5)),
    }
    rows = doc["transitions"]
    for fault, value in draw(st.lists(st.sampled_from(READER_FAULTS), max_size=2)):
        if fault in ("initial", "states"):
            doc[fault] = value
        elif fault == "accepting":
            doc[fault] = doc[fault] + [value]
        elif rows:
            i = draw(st.integers(0, len(rows) - 1))
            if fault == "row":
                rows[i] = value
            elif isinstance(rows[i], dict):
                key = "cost" if fault == "cost" else draw(st.sampled_from(["from", "symbol", "to"]))
                if value == "missing":  # two faults may both drop the same name
                    rows[i].pop(key, None)
                else:
                    rows[i][key] = value
    return doc


class TestTwoTierReader:
    @given(reader_documents())
    def test_same_automaton_or_message_as_the_row_walk(self, doc):
        """Reading the rows straight to indices gives what the row walk
        (``_transition_row``, then ``CostAutomaton.create``) gives: the
        same automaton or the same DocumentError message."""

        def read():
            try:
                return automaton_from_document(doc)
            except DocumentError as e:
                return str(e)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(documents, "_indexed_automaton", lambda *args: None)
            walked = read()
        got = read()
        assert type(got) is type(walked)
        assert got == walked

    def test_plain_rows_take_the_first_tier(self):
        doc = branchy_doc()
        doc["transitions"][0]["cost"] = 2
        del doc["transitions"][1]["cost"]
        rows = doc["transitions"]
        a = documents._indexed_automaton(doc["alphabet"], doc["states"], doc["initial"], doc["accepting"], rows)
        want = CostAutomaton.create(
            doc["alphabet"], doc["states"], doc["initial"], doc["accepting"],
            [documents._transition_row(t, "automaton", i) for i, t in enumerate(rows)],
        )
        assert a == want
        assert a.cost[:2].tolist() == [2.0, 0.0]


class TestPairCostDocuments:
    def test_round_trip(self):
        doc = {
            "pairs": [
                {"first": "a", "second": "b", "cost": 2.0},
                {"first": "b", "second": "a", "cost": 5.0},
            ],
            "default": -1.0,
        }
        u = pair_cost_from_document(doc)
        assert u.cost("a", "b") == 2.0
        assert u.cost("a", "a") == -1.0
        again = pair_cost_from_document(pair_cost_to_document(u))
        assert again.entries == u.entries
        assert again.default == u.default

    def test_alphabet_binding(self):
        # a foreign symbol is refused at load; the lookup-time UnknownSymbol
        # of a bound function is test_langcost's
        doc = {"pairs": [{"first": "a", "second": "z", "cost": 1.0}]}
        with pytest.raises(DocumentError, match="pair 0: symbol 'z' is not in the alphabet"):
            pair_cost_from_document(doc, alphabet=frozenset({"a", "b"}))

    def test_errors(self):
        with pytest.raises(DocumentError, match="missing field 'pairs'"):
            pair_cost_from_document({})
        with pytest.raises(DocumentError, match="pair 0.*cost"):
            pair_cost_from_document({"pairs": [{"first": "a", "second": "b"}]})


    @pytest.mark.parametrize("field", ["cost", "default"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), "2.0", pytest.param(10**400, id="10**400")])
    def test_costs_must_be_finite_numbers(self, field, value):
        doc = {"pairs": [{"first": "a", "second": "b", "cost": 2.0}], "default": 0.0}
        if field == "cost":
            doc["pairs"][0]["cost"] = value
        else:
            doc["default"] = value
        with pytest.raises(DocumentError, match=f"field '{field}' must be a finite number"):
            pair_cost_from_document(doc)


class TestLinlenDocuments:
    def spec_doc(self):
        line = {
            "alphabet": ["a"],
            "states": ["A"],
            "initial": "A",
            "accepting": ["A"],
            "transitions": [{"from": "A", "symbol": "a", "to": "A", "cost": 0.0}],
        }
        return {
            "base": dict(line),
            "parts": [dict(line)],
            "lengths": {"offset": [1], "periods": [[1]]},
            "pair_cost": {"pairs": [{"first": "a", "second": "a", "cost": 1.0}]},
        }

    def test_parses(self):
        spec = linlen_spec_from_document(self.spec_doc())
        assert spec.lengths.offset == (1,)
        assert spec.lengths.periods == ((1,),)
        assert spec.pair_cost.cost("a", "a") == 1.0
        assert len(spec.parts) == 1

    def test_pair_cost_optional(self):
        doc = self.spec_doc()
        del doc["pair_cost"]
        spec = linlen_spec_from_document(doc)
        assert spec.pair_cost.cost("a", "a") == 0.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("offset", [1.5]),
            ("offset", [2.0]),
            ("offset", ["1"]),
            ("offset", [True]),
            ("periods", [[1.9]]),
            ("periods", [["1"]]),
            ("periods", [[True]]),
            ("periods", [1]),
        ],
    )
    def test_lengths_must_be_integers(self, field, value):
        doc = self.spec_doc()
        doc["lengths"][field] = value
        with pytest.raises(DocumentError, match=f"lengths: field '{field}' must be a list"):
            linlen_spec_from_document(doc)

    def test_part_errors_are_located(self):
        doc = self.spec_doc()
        doc["parts"][0]["initial"] = "Q"
        with pytest.raises(DocumentError, match="part 1.*unknown initial"):
            linlen_spec_from_document(doc)


class TestFiles:
    def test_load_save_round_trip(self, tmp_path):
        p = tmp_path / "m.json"
        save_document(str(p), automaton_to_document(automaton_from_document(branchy_doc())))
        a = load_automaton(str(p))
        assert len(a.states) == 6

    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read"):
            load_automaton(str(tmp_path / "absent.json"))

    def test_bad_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(DocumentError, match="not valid JSON"):
            load_automaton(str(p))

    def test_non_finite_cost_refused(self):
        with pytest.raises(DocumentError, match="non-finite"):
            dump_json({"cost": math.inf})

    def test_failed_save_leaves_an_empty_file(self, tmp_path):
        # the last transition's cost is refused only after every row before
        # it has been written out
        p = tmp_path / "m.json"
        p.write_text("old text\n", encoding="utf-8")
        doc = automaton_to_document(automaton_from_document(branchy_doc()))
        doc["transitions"][-1]["cost"] = math.inf
        with pytest.raises(DocumentError, match="non-finite"):
            save_document(str(p), doc)
        assert p.read_text(encoding="utf-8") == ""

    def test_other_document_paths(self):
        with pytest.raises(DocumentError, match="^cannot serialize set$"):
            dump_json({"states": {"p"}})
        # a numpy float is not a plain JSON number, so the row takes the general checks
        doc = branchy_doc()
        doc["transitions"][0]["cost"] = np.float64(0.5)
        a = automaton_from_document(doc)
        assert a.transitions[0].cost == 0.5 and type(a.transitions[0].cost) is float


class TestUnreadableFiles:
    """A file that json cannot read is a DocumentError naming its path (exit 2)."""

    CASES = {
        "nested": (b"[" * 200_000, "it nests too deeply"),
        "latin-1": (b'{"states": ["\xe9"]}', "'utf-8' codec can't decode byte 0xe9 in position 13: invalid continuation byte"),
        "long-int": (b'{"cost": 1' + b"0" * 5000 + b"}", "Exceeds the limit (4300 digits) for integer string conversion"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_named_in_the_message(self, tmp_path, capsys, case):
        text, reason = self.CASES[case]
        path = tmp_path / f"{case}.json"
        path.write_bytes(text)
        with pytest.raises(DocumentError) as e:
            load_automaton(str(path))
        assert str(e.value).startswith(f"cannot read {path}: {reason}")
        assert main(["energy", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: {reason}")


def reference_encode(o, emit):
    """The item-by-item recursive writer whose bytes the column renderer
    must reproduce."""
    if isinstance(o, float):
        if math.isnan(o) or math.isinf(o):
            raise DocumentError(f"non-finite number {o!r} cannot be serialized")
        text = format(o, ".17g")
        emit(text if "." in text or "e" in text else text + ".0")
    elif isinstance(o, bool):
        emit("true" if o else "false")
    elif o is None:
        emit("null")
    elif isinstance(o, str):
        emit(json.encoder.encode_basestring_ascii(o))
    elif isinstance(o, int):
        emit(int.__repr__(o))
    elif isinstance(o, dict):
        emit("{")
        for i, (key, value) in enumerate(o.items()):
            emit(", " if i else "")
            emit(json.encoder.encode_basestring_ascii(str(key)) + ": ")
            reference_encode(value, emit)
        emit("}")
    elif isinstance(o, (list, tuple)):
        emit("[")
        for i, value in enumerate(o):
            emit(", " if i else "")
            reference_encode(value, emit)
        emit("]")
    else:
        raise DocumentError(f"cannot serialize {type(o).__name__}")


# names with the characters JSON escapes, two that a %-template reads, and
# non-ASCII ones; doubles at the edges of their text form
NAMES = st.sampled_from(['q"1', "q\\2", "\x00", "\n\t", "\x7f", "%s", "100%", "\u00e9", "\u2603", "\U0001f600", ""]) | st.text(max_size=4)
FLOATS = st.sampled_from([0.0, -0.0, 1e16, -1.2e16, 5e-324, -5e-324, 0.1, 1.0]) | st.floats(allow_nan=False, allow_infinity=False)
LEAVES = NAMES | FLOATS | st.integers(-(2**70), 2**70) | st.booleans() | st.none()
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3), max_leaves=6)
BREAKS = ["order", "missing", "extra", "int", "bool", "none", "value", "item", "null item", "inf", "nan"]
# the values one column of a table draws from
COLUMN_POOLS = [
    st.lists(NAMES, min_size=1, max_size=6),
    st.tuples(st.lists(FLOATS, min_size=1, max_size=6), st.sampled_from([[], [0.0, -0.0]])).map(lambda t: t[0] + t[1]),
    st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=6),
    st.lists(st.booleans(), min_size=1, max_size=2),
    st.lists(st.lists(NAMES, max_size=3), min_size=1, max_size=4),
    st.lists(st.lists(NAMES | st.integers(0, 3) | st.none(), min_size=1, max_size=3), min_size=1, max_size=4),
    st.lists(st.none() | st.booleans() | st.integers(0, 1), min_size=1, max_size=4),
]


@st.composite
def long_lists(draw):
    """A list of names, or a table of rows over one key sequence whose
    values are, key by key, str, float, int, bool, lists of str or a mix
    of ints, bools and None, up to two chunks and more long; one item may
    break the shape, in any chunk, or be None."""
    length = draw(st.sampled_from([1, 2, 9, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 7]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        pool = draw(st.lists(NAMES, min_size=1, max_size=4))
        items = [rng.choice(pool) for _ in range(length)]
    else:
        keys = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
        pools = [draw(st.one_of(COLUMN_POOLS)) for _ in keys]
        items = [{key: rng.choice(pool) for key, pool in zip(keys, pools)} for _ in range(length)]
    broken = draw(st.sampled_from([None] + BREAKS))
    if broken is not None:
        at = draw(st.sampled_from([0, length - 1, min(_CHUNK, length - 1)]) | st.integers(0, length - 1))
        item = items[at]
        if broken == "null item":
            items[at] = None
        elif broken == "item" or not isinstance(item, dict):
            items[at] = draw(VALUES)
        elif broken == "order":
            items[at] = dict(reversed(item.items()))
        elif broken == "missing":
            del item[next(iter(item))]
        else:
            key = next(iter(item)) if broken != "extra" else draw(NAMES)
            replaced = {"int": 1, "bool": True, "none": None, "inf": math.inf, "nan": math.nan}
            item[key] = replaced[broken] if broken in replaced else draw(VALUES)
    return items


DOCUMENTS = st.dictionaries(NAMES, long_lists() | VALUES, max_size=4) | long_lists()


class TestWriter:
    @given(DOCUMENTS)
    def test_same_bytes_as_the_recursive_encoder(self, doc):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "doc.json")
            try:
                parts = ref(doc)
            except DocumentError as e:
                for write in (dump_json, lambda d: save_document(path, d)):
                    with pytest.raises(DocumentError) as raised:
                        write(doc)
                    assert str(raised.value) == str(e)
                with open(path, "rb") as f:
                    assert f.read() == b""
                return
            want = "".join(parts)
            same_text(dump_json(doc), want)
            save_document(path, doc)
            with open(path, encoding="utf-8", newline="") as f:
                same_text(f.read(), want + "\n")

    @pytest.mark.parametrize("edit", [
        None,  # every column renders by column
        lambda rows: rows[3]["states"].append(7),  # a list holding an int
        lambda rows: rows[3].update(converged=1),  # 1 beside True
        lambda rows: rows[3].update(iterations=True),  # True beside ints
        lambda rows: rows.insert(3, None),  # None beside the rows
    ])
    def test_report_rows(self, edit):
        rows = [
            {"states": [f"q{i}", "p"][: i % 3], "energy": i / 4, "iterations": i - 2, "converged": i % 2 == 0}
            for i in range(9)
        ]
        if edit is not None:
            edit(rows)
        same_text(dump_json(rows), "".join(ref(rows)))

    def test_zeros_of_both_signs_in_one_column(self):
        rows = [{"cost": x} for x in (0.0, -0.0, 1.5, -0.0, 0.0)] * 700
        same_text(dump_json(rows), "".join(ref(rows)))

    def test_the_first_non_finite_value_in_row_order_is_named(self):
        # column by column, the inf in column a would come first
        rows = [{"a": 0.5, "b": 0.5} for _ in range(9)]
        rows[5]["a"] = math.inf
        rows[2]["b"] = -math.inf
        with pytest.raises(DocumentError, match=r"^non-finite number -inf cannot be serialized$"):
            dump_json(rows)


def ref(doc) -> list[str]:
    parts = []
    reference_encode(doc, parts.append)
    return parts


def same_text(got: str, want: str) -> None:
    """Equality of two long texts, reported by their first difference."""
    if got != want:
        at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
        pytest.fail(f"texts differ at {at}: {got[at - 30 : at + 30]!r} != {want[at - 30 : at + 30]!r}")


class TestEscapedNames:
    # a quote, a backslash and two non-ASCII names: JSON escapes all four
    NAMES = ['q"1', "q\\2", "q\u00e93", "q\u26034"]

    def canonical(self):
        n = self.NAMES
        return automaton_to_document(automaton_from_document({
            "alphabet": ["a", "\u00df"],
            "states": n,
            "initial": n[0],
            "accepting": n[1:],
            "transitions": [
                {"from": n[i], "symbol": "a", "to": n[(i + 1) % 4], "cost": 0.25 * i} for i in range(4)
            ] + [{"from": n[2], "symbol": "\u00df", "to": n[0], "cost": -0.5}],
        }))

    def test_save_load_round_trip_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_document(str(first), self.canonical())
        save_document(str(second), automaton_to_document(load_automaton(str(first))))
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().isascii()
        assert json.loads(first.read_text(encoding="utf-8"))["states"] == sorted(self.NAMES)

    def test_energy_json_escapes_names(self, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        save_document(path, self.canonical())
        assert main(["energy", path, "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == dump_json(doc) + "\n"
        assert {q for comp in doc["per_component"] for q in comp["states"]} == set(self.NAMES)
        for name in self.NAMES:
            assert json.dumps(name) in out


def random_dfa_doc(n, n_sym, seed):
    """Complete DFA over states q0..q{n-1} and symbols x0..x{n_sym-1}, plus
    one state nothing reaches, with seeded costs."""
    rng = random.Random(seed)
    names = [f"q{i}" for i in range(n)]
    symbols = [f"x{j}" for j in range(n_sym)]
    return {
        "alphabet": symbols,
        "states": names + ["unreached"],
        "initial": names[0],
        "accepting": names[::3],
        "transitions": [
            {"from": p, "symbol": x, "to": names[rng.randrange(n)], "cost": rng.uniform(-1.0, 1.0)}
            for p in names + ["unreached"]
            for x in symbols
        ],
    }


class TestArrayPaths:
    def test_no_transition_objects(self, tmp_path, monkeypatch):
        path, out = str(tmp_path / "m.json"), str(tmp_path / "out.json")
        save_document(path, random_dfa_doc(40, 3, seed=4))
        made = []
        original = Transition.__init__

        def counting(self, *args, **kwargs):
            made.append(args)
            original(self, *args, **kwargs)

        spec_path = str(tmp_path / "spec.json")
        save_document(spec_path, linlen_doc())
        monkeypatch.setattr(Transition, "__init__", counting)
        spec = load_linlen_spec(spec_path)
        block_automaton(spec)
        linlen_energy(spec)
        linlen_word_oracle(spec, 12)
        with pytest.raises(StateCapExceeded):
            linlen_word_oracle(spec, 12, word_cap=10)
        a = load_automaton(path)
        u = PairCostFunction.create({("x0", "x1"): 0.5})
        machine = implement_construction(a, u)
        assert verify_implements(machine, a, u, 4).holds
        assert verify_implements(a, a, u, 4).counterexample.run is not None
        count_series(a, 8)
        assert accepts(a, ()) and not accepts(a, ("x0", "x9"))
        free_energy(a)
        free_energy(a, form="bipartite")
        run_partition_series(a, "runs_all", 20)
        run_partition_series(a, "runs_accepting", 20)
        word_partition_series(a, PairCostFunction.create({("x0", "x1"): 0.5}, default=-0.25), 20)
        similarity(a, a)
        lambda_exact(a)
        determinize(a)
        save_document(out, automaton_to_document(a))
        assert made == []
        # the named view is still there for the callers that walk it
        assert len(a.transitions) == len(made) == 41 * 3

    def test_load_memory_grows_with_transitions(self, tmp_path):
        # 20,000 states x 8 symbols: 160,000 transitions
        path = str(tmp_path / "big.json")
        doc = random_dfa_doc(20_000, 8, seed=5)

        tracemalloc.start()
        try:
            save_document(path, doc)
            _, save_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            del doc
            with open(path, encoding="utf-8") as f:
                json.load(f)
            _, json_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            a = load_automaton(path)
            retained, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(a.src) == 160_008
        # the 12.5 MiB text is streamed to the file, never held whole
        assert save_peak < 4 * 2**20
        # json.load's decoded rows dominate the peak (about 72 MiB); the
        # automaton adds its columns and names on top and keeps only those
        assert load_peak < json_peak + 16 * 2**20
        assert retained < 16 * 2**20
