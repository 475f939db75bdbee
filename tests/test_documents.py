import json
import math
import random
import tracemalloc

import pytest

from gurevich import (
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
from gurevich.cli import main

from conftest import linlen_doc


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
        save_document(path, random_dfa_doc(20_000, 8, seed=5))

        tracemalloc.start()
        try:
            with open(path, encoding="utf-8") as f:
                json.load(f)
            _, json_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            a = load_automaton(path)
            retained, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(a.src) == 160_008
        # json.load's decoded rows dominate the peak (about 72 MiB); the
        # automaton adds its columns and names on top and keeps only those
        assert load_peak < json_peak + 16 * 2**20
        assert retained < 16 * 2**20
