import json
import math
import os
import subprocess
import sys

import pytest

import gurevich
from gurevich import (
    BlockAlphabetTooLarge,
    DocumentError,
    GurevichError,
    NotConverged,
    NotDeterministic,
    NotStronglyConnected,
    Overflow,
    StateCapExceeded,
    Underflow,
    UnknownSymbol,
    automaton_to_document,
    dump_json,
    free_energy,
    load_automaton,
    pair_cost_to_document,
    save_document,
)
from gurevich import automata as automata_mod
from gurevich import energy as energy_mod
from gurevich import errors as errors_mod
from gurevich.cli import main

from conftest import aut, colliding_dfa, linlen_doc, many_components


def write_automaton(tmp_path, name, a):
    p = tmp_path / name
    save_document(str(p), automaton_to_document(a))
    return str(p)


def write_pair_cost(tmp_path, name, u):
    p = tmp_path / name
    save_document(str(p), pair_cost_to_document(u))
    return str(p)


def write_json(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(dump_json(doc) + "\n", encoding="utf-8")
    return str(p)


def lines_of(capsys):
    out, err = capsys.readouterr()
    return out.splitlines(), err


def low_ring():
    """3-ring whose largest cost -691.7 lies inside +-700 while e^-718.4 is
    subnormal; its energy is the mean cost -2110.1 / 3."""
    edges = [("a", "x", "b", -718.4), ("b", "x", "c", -700.0), ("c", "x", "a", -691.7)]
    return aut(["x"], ["a", "b", "c"], "a", ["a"], edges)


class TestEnergyCommand:
    def test_text_output(self, tmp_path, capsys, branchy_nfa):
        path = write_automaton(tmp_path, "m.json", branchy_nfa)
        assert main(["energy", path, "--branching-costs"]) == 0
        out, _ = lines_of(capsys)
        assert out == ["energy 1.084990"]

    def test_zero_cost_energy(self, tmp_path, capsys, branchy_nfa):
        path = write_automaton(tmp_path, "m.json", branchy_nfa)
        assert main(["energy", path]) == 0
        out, _ = lines_of(capsys)
        assert out == ["energy 0.585741"]

    def test_forms_agree(self, tmp_path, capsys, dna_m2):
        path = write_automaton(tmp_path, "m.json", dna_m2)
        assert main(["energy", path, "--form", "bipartite"]) == 0
        bip, _ = lines_of(capsys)
        assert main(["energy", path, "--form", "compact"]) == 0
        comp, _ = lines_of(capsys)
        assert bip == comp

    def test_json_schema(self, tmp_path, capsys, dna_m2):
        path = write_automaton(tmp_path, "m.json", dna_m2)
        assert main(["energy", path, "--json"]) == 0
        out, _ = capsys.readouterr()
        doc = json.loads(out)
        assert set(doc) == {
            "energy", "per_component", "solver", "form_used", "max_component", "trim_changed",
        }
        assert doc["form_used"] == "compact"
        assert doc["energy"] == pytest.approx(1.4087, abs=1e-3)
        assert set(doc["solver"][0]) == {"radius", "iterations", "residual", "converged"}
        # 17-significant-digit payloads reparse to the same float
        assert main(["energy", path, "--json"]) == 0
        out2, _ = capsys.readouterr()
        assert json.loads(out2)["energy"] == doc["energy"]

    def test_empty_language_document(self, tmp_path, capsys):
        nothing = aut(["a"], ["A"], "A", [], [("A", "a", "A")])
        path = write_automaton(tmp_path, "m.json", nothing)
        assert main(["energy", path]) == 0
        out, _ = lines_of(capsys)
        assert out == ["energy 0.000000"]

    def test_unknown_initial_is_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", {
            "alphabet": ["a"], "states": ["A"], "initial": "Z",
            "accepting": ["A"],
            "transitions": [{"from": "A", "symbol": "a", "to": "A"}],
        })
        assert main(["energy", path]) == 2
        _, err = lines_of(capsys)
        assert "unknown initial 'Z'" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["energy", str(tmp_path / "absent.json")]) == 2
        _, err = lines_of(capsys)
        assert "cannot read" in err

    def test_underflowing_component_is_numerical_error(self, tmp_path, capsys):
        # costs alternate +700/-800 round a 6-ring; after the shift by 700
        # the -800 edges weigh e^-1500 = 0, and the zero-cost chord closes
        # no cycle, so the certified radius is 0 and ln 0 has no value
        names = [f"s{i}" for i in range(6)]
        edges = [(names[i], "a", names[(i + 1) % 6], 700.0 if i % 2 == 0 else -800.0) for i in range(6)]
        ring = aut(["a", "b"], names, "s0", names, edges + [("s0", "b", "s1", 0.0)])
        path = write_automaton(tmp_path, "ring.json", ring)
        assert main(["energy", path]) == 3
        out, err = lines_of(capsys)
        assert out == []
        assert err.startswith("error: free energy:")
        assert "component of 6 states" in err
        assert "-800.0 to 700.0" in err

    @pytest.mark.parametrize("form", ["compact", "bipartite"])
    def test_component_below_the_double_range_is_shifted(self, tmp_path, capsys, monkeypatch, form):
        # solved unshifted, the ring never certifies; shifted by its largest
        # cost it takes a few dozen iterations
        monkeypatch.setenv("MAX_ITERS", "1000")
        ring = low_ring()
        path = write_automaton(tmp_path, "ring.json", ring)
        assert main(["energy", path, "--form", form, "--json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        energy = json.loads(out)["energy"]
        assert energy == free_energy(ring.with_costs(ring.cost + 700.0)).energy - 700.0
        assert energy == pytest.approx(-2110.1 / 3, abs=1e-9)

    def test_shift_past_the_double_range_warns_nothing(self, tmp_path, capsys, monkeypatch):
        # shifted by 1e308, the -1e308 edge costs -inf and weighs 0: the
        # 2-cycle is nilpotent and never certifies, but the subtraction
        # raises no RuntimeWarning (an error in this suite)
        monkeypatch.setenv("MAX_ITERS", "2000")
        cycle = aut(["a"], ["A", "B"], "A", ["A"], [("A", "a", "B", 1e308), ("B", "a", "A", -1e308)])
        path = write_automaton(tmp_path, "cycle.json", cycle)
        assert main(["energy", path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("form", ["compact", "bipartite"])
    def test_subnormal_weights_warn_nothing(self, tmp_path, capsys, monkeypatch, form):
        # found by the CLI exit-code property: e^-745 is the last subnormal,
        # and a Noda solve on the compact matrix sums inf and -inf, which no
        # RuntimeWarning reports; that form does not certify (exit 3), the
        # bipartite one finds ln 2
        monkeypatch.setenv("MAX_ITERS", "2000")
        edges = [("s0", "a", "s0"), ("s0", "b", "s0"), ("s0", "a", "s2", -745.0), ("s2", "a", "s0", -745.0)]
        path = write_automaton(tmp_path, "m.json", aut(["a", "b"], ["s0", "s2"], "s0", ["s0"], edges))
        code = main(["energy", path, "--form", form])
        out, err = capsys.readouterr()
        if code == 0:
            assert out == "energy 0.693147\n" and err == ""
        else:
            assert code == 3 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_branching_costs_count_live_successors_only(self, tmp_path, capsys):
        # p -a-> d leads nowhere, so k(p, a) is 1 after the clean-up, as in nondet
        a = aut(["a"], ["d", "p"], "p", ["p"], [("p", "a", "p"), ("p", "a", "d")])
        path = write_automaton(tmp_path, "m.json", a)
        assert main(["energy", path, "--branching-costs"]) == 0
        assert lines_of(capsys)[0] == ["energy 0.000000"]
        assert main(["nondet", path]) == 0
        assert "energy_v 0.000000" in lines_of(capsys)[0]
        assert main(["energy", path, "--branching-costs", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trim_changed"] is True
        assert doc["per_component"] == [{"states": ["p"], "energy": 0.0}]
        empty = write_json(tmp_path, "empty.json", {
            "alphabet": [], "states": [], "accepting": [], "transitions": [],
        })
        assert main(["energy", empty, "--branching-costs", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["trim_changed"] is False


class TestNondetCommand:
    def test_plain_estimate(self, tmp_path, capsys, branchy_nfa):
        path = write_automaton(tmp_path, "m.json", branchy_nfa)
        assert main(["nondet", path]) == 0
        out, _ = lines_of(capsys)
        assert out == [
            "lambda_plus 0.499249",
            "energy_v 1.084990",
            "energy_zero 0.585741",
        ]

    def test_exact(self, tmp_path, capsys, branchy_nfa):
        path = write_automaton(tmp_path, "m.json", branchy_nfa)
        assert main(["nondet", path, "--exact"]) == 0
        out, _ = lines_of(capsys)
        assert out[3] == "lambda_exact 0.166124"
        assert out[4] == "dfa_states 6"

    def test_dfa_is_zero(self, tmp_path, capsys, ab_star):
        path = write_automaton(tmp_path, "m.json", ab_star)
        assert main(["nondet", path, "--exact"]) == 0
        out, _ = lines_of(capsys)
        assert out[0] == "lambda_plus 0.000000"
        assert out[3] == "lambda_exact 0.000000"

    def test_state_cap_still_reports_upper_estimate(self, tmp_path, capsys, branchy_nfa):
        path = write_automaton(tmp_path, "m.json", branchy_nfa)
        assert main(["nondet", path, "--exact", "--state-cap", "3"]) == 4
        out, err = lines_of(capsys)
        assert out[0] == "lambda_plus 0.499249"
        assert all(not line.startswith("lambda_exact") for line in out)
        assert "error:" in err

    def test_state_cap_solves_lambda_plus_once(self, tmp_path, capsys, monkeypatch, branchy_nfa):
        # determinization hits the cap before any solve, so only the
        # fallback's two energies are computed, in one batch
        path = write_automaton(tmp_path, "m.json", branchy_nfa)
        calls = []
        solve = energy_mod._solve

        def spy(columns, *args, **kwargs):
            calls.append(len(columns))
            return solve(columns, *args, **kwargs)

        monkeypatch.setattr(energy_mod, "_solve", spy)
        assert main(["nondet", path, "--exact", "--state-cap", "3"]) == 4
        out, err = lines_of(capsys)
        assert calls == [2]
        assert out == ["lambda_plus 0.499249", "energy_v 1.084990", "energy_zero 0.585741"]
        assert err == "error: determinization exceeded the state cap (3) on a 6-state, 10-transition automaton\n"

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_state_cap_must_be_positive(self, tmp_path, capsys, cap, branchy_nfa):
        path = write_automaton(tmp_path, "m.json", branchy_nfa)
        assert main(["nondet", path, "--exact", "--state-cap", cap]) == 2
        out, err = lines_of(capsys)
        assert out == []
        assert err == f"error: state_cap must be positive, got {cap}\n"

    def test_json(self, tmp_path, capsys, branchy_nfa):
        path = write_automaton(tmp_path, "m.json", branchy_nfa)
        assert main(["nondet", path, "--exact", "--json"]) == 0
        out, _ = capsys.readouterr()
        doc = json.loads(out)
        assert doc["lambda_exact"] == pytest.approx(0.166124, abs=1e-6)
        assert doc["dfa_states"] == 6
        assert doc["lambda_plus_raw"] == pytest.approx(doc["lambda_plus"], abs=1e-15)


class TestSimilarityCommand:
    def test_reference_pair(self, tmp_path, capsys, dna_m1, dna_m2):
        p1 = write_automaton(tmp_path, "m1.json", dna_m1)
        p2 = write_automaton(tmp_path, "m2.json", dna_m2)
        assert main(["similarity", p1, p2]) == 0
        out, _ = lines_of(capsys)
        assert out[0] == "delta 1.025000"
        assert out[3] == "product_states 4"

    def test_normalized_na_for_loop_free(self, tmp_path, capsys):
        finite = aut(["a"], ["A", "B"], "A", ["B"], [("A", "a", "B", 4.0)])
        path = write_automaton(tmp_path, "m.json", finite)
        assert main(["similarity", path, path, "--normalized"]) == 0
        out, _ = lines_of(capsys)
        assert "normalized n/a" in out

    def test_json(self, tmp_path, capsys, dna_m1, dna_m2):
        p1 = write_automaton(tmp_path, "m1.json", dna_m1)
        p2 = write_automaton(tmp_path, "m2.json", dna_m2)
        assert main(["similarity", p1, p2, "--json"]) == 0
        out, _ = capsys.readouterr()
        doc = json.loads(out)
        assert set(doc) == {"delta", "energy_1", "energy_2", "product_states", "normalized"}
        assert doc["delta"] == pytest.approx(1.025, abs=2e-3)

    def test_product_below_the_double_range_is_shifted(self, tmp_path, capsys, monkeypatch):
        # the product carries the ring's costs; zero-cost branching adds
        # ln of the golden ratio to the ring's energy
        monkeypatch.setenv("MAX_ITERS", "1000")
        nfa = aut(["x"], ["u", "v"], "u", ["u", "v"], [("u", "x", "u"), ("u", "x", "v"), ("v", "x", "u")])
        p1 = write_automaton(tmp_path, "ring.json", low_ring())
        p2 = write_automaton(tmp_path, "nfa.json", nfa)
        assert main(["similarity", p1, p2, "--json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        doc = json.loads(out)
        golden = math.log((1 + math.sqrt(5)) / 2)
        assert doc["energy_1"] == pytest.approx(-2110.1 / 3, abs=1e-9)
        assert doc["energy_2"] == pytest.approx(golden, abs=1e-12)
        assert doc["delta"] == pytest.approx(-2110.1 / 3 + golden, abs=1e-9)

    @pytest.mark.parametrize("cap, kind", [
        ("DEFAULT_STATE_CAP", "pair states"), ("PRODUCT_TRANSITION_CAP", "transitions"),
    ])
    def test_product_cap_is_resource_error(self, tmp_path, capsys, monkeypatch, dna_m1, dna_m2, cap, kind):
        monkeypatch.setattr(automata_mod, cap, 2)
        p1 = write_automaton(tmp_path, "m1.json", dna_m1)
        p2 = write_automaton(tmp_path, "m2.json", dna_m2)
        assert main(["similarity", p1, p2]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: product of a 4-state and a 2-state automaton reached ")
        assert err.endswith(f" {kind}, past its cap (2)\n") and err.count("\n") == 1

    @pytest.mark.parametrize("cost, error", [(1e308, "inf"), (-1e308, "-inf")])
    def test_infinite_cost_sum_exits_3_at_once(self, tmp_path, capsys, cost, error):
        # the product's a-loop costs 2 * cost, past the double range: the
        # component is refused before any solve, and no RuntimeWarning
        # (an error in this suite) escapes the sum or the shift
        loops = aut(["a", "b"], ["A"], "A", ["A"], [("A", "a", "A", cost), ("A", "b", "A", min(cost, 0.0))])
        path = write_automaton(tmp_path, "loops.json", loops)
        assert main(["similarity", path, path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: free energy: a component of 1 states carries cost {error}; rescale costs\n"

    def test_nilpotent_product_warns_nothing(self, tmp_path, capsys, monkeypatch):
        # found by the CLI exit-code property: shifted by 800, the product's
        # 6-state component keeps one edge of weight 1 and never certifies;
        # a Noda solve on it sums to inf, which no RuntimeWarning reports
        monkeypatch.setenv("MAX_ITERS", "2000")
        fan = [("s0", x, q, 800.0 if (x, q) == ("a", "s2") else 0.0) for x in "ab" for q in ("s0", "s1", "s2")]
        a1 = aut(["a", "b"], ["s0", "s1", "s2"], "s0", ["s0"], fan + [("s1", "a", "s0"), ("s2", "a", "s0")])
        a2 = aut(["a", "b"], ["s0", "s1"], "s0", ["s0"], [("s0", "a", "s1"), ("s1", "a", "s0")])
        p1, p2 = write_automaton(tmp_path, "a1.json", a1), write_automaton(tmp_path, "a2.json", a2)
        assert main(["similarity", p1, p2]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# the documented exit code of each error class; ValueError is bad input
EXIT_CODES = {
    GurevichError: 2,
    DocumentError: 2,
    NotDeterministic: 2,
    NotStronglyConnected: 2,
    UnknownSymbol: 2,
    ValueError: 2,
    NotConverged: 3,
    Overflow: 3,
    Underflow: 3,
    StateCapExceeded: 4,
    BlockAlphabetTooLarge: 4,
}


class TestDispatch:
    def test_parser_built_once_and_handlers_looked_up_per_call(self, monkeypatch):
        import gurevich.cli as cli

        assert cli._build_parser() is cli._build_parser()
        calls = []
        monkeypatch.setattr(cli, "cmd_energy", lambda args: calls.append(args.path) or 0)
        assert main(["energy", "m.json"]) == 0
        assert calls == ["m.json"]

    @pytest.mark.parametrize("error", list(EXIT_CODES), ids=lambda error: error.__name__)
    def test_exit_code_by_error_class(self, monkeypatch, capsys, error):
        import gurevich.cli as cli

        def failing(args):
            raise error("broken")

        monkeypatch.setattr(cli, "cmd_energy", failing)
        assert main(["energy", "m.json"]) == EXIT_CODES[error]
        assert capsys.readouterr() == ("", "error: broken\n")

    def test_every_error_class_has_a_documented_exit_code(self):
        assert {getattr(errors_mod, name) for name in errors_mod.__all__} <= set(EXIT_CODES)


class TestImplementCommand:
    def test_compiles_and_canonicalizes(self, tmp_path, capsys, ab_star, u_ab):
        dfa_path = write_automaton(tmp_path, "dfa.json", ab_star)
        u_path = write_pair_cost(tmp_path, "u.json", u_ab)
        out_path = str(tmp_path / "machine.json")
        assert main(["implement", dfa_path, u_path, out_path]) == 0
        out, _ = lines_of(capsys)
        assert out == ["states 3 transitions 3"]
        machine = load_automaton(out_path)
        assert sorted(t.cost for t in machine.transitions) == [0.0, 2.0, 5.0]
        # canonical on disk: serializing the reload reproduces the file
        raw = open(out_path, encoding="utf-8").read()
        assert raw == dump_json(automaton_to_document(machine)) + "\n"

    def test_colliding_transition_names(self, tmp_path, capsys):
        dfa_path = write_automaton(tmp_path, "dfa.json", colliding_dfa())
        u = gurevich.PairCostFunction.create({("b", "x"): 1.0, ("x", "x"): 2.0})
        u_path = write_pair_cost(tmp_path, "u.json", u)
        out_path = str(tmp_path / "machine.json")
        assert main(["implement", dfa_path, u_path, out_path]) == 0
        out, _ = lines_of(capsys)
        assert out == ["states 4 transitions 3"]
        assert len(load_automaton(out_path).states) == 4

    def test_rejects_nfa(self, tmp_path, capsys, branchy_nfa, u_ab):
        nfa_path = write_automaton(tmp_path, "nfa.json", branchy_nfa)
        u_path = write_pair_cost(tmp_path, "u.json", u_ab)
        out_path = str(tmp_path / "machine.json")
        assert main(["implement", nfa_path, u_path, out_path]) == 2
        _, err = lines_of(capsys)
        assert "input must be deterministic" in err

    def test_transition_cap_exits_4_before_writing(self, tmp_path, capsys, monkeypatch, ab_star, u_ab):
        # the output's 3 transitions are counted before any is built
        monkeypatch.setattr(automata_mod, "PRODUCT_TRANSITION_CAP", 2)
        dfa_path = write_automaton(tmp_path, "dfa.json", ab_star)
        u_path = write_pair_cost(tmp_path, "u.json", u_ab)
        out_path = tmp_path / "machine.json"
        assert main(["implement", dfa_path, u_path, str(out_path)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: implement construction on a trimmed 2-state, 2-transition DFA "
            "needs 3 transitions, past its cap (2)\n"
        )
        assert not out_path.exists()

    @pytest.mark.parametrize("out_name", ["missing/machine.json", "."], ids=["no-directory", "directory"])
    def test_unwritable_output_is_input_error(self, tmp_path, capsys, ab_star, u_ab, out_name):
        dfa_path = write_automaton(tmp_path, "dfa.json", ab_star)
        u_path = write_pair_cost(tmp_path, "u.json", u_ab)
        out_path = str(tmp_path / out_name)
        assert main(["implement", dfa_path, u_path, out_path]) == 2
        out, err = lines_of(capsys)
        assert out == []
        assert err.startswith(f"error: cannot write {out_path}: ")


AB_DOC = {
    "alphabet": ["a"], "states": ["p"], "initial": "p", "accepting": ["p"],
    "transitions": [{"from": "p", "symbol": "a", "to": "p"}],
}


class TestDocumentErrors:
    """Each malformed document exits 2 with one line naming its file."""

    @pytest.mark.parametrize(
        "command, text, problem",
        [
            ("energy", {**AB_DOC, "alphabet": "a"}, ": field 'alphabet' must be list"),
            ("energy", {**AB_DOC, "transitions": ["p a p"]}, ": transition 0 must be an object"),
            ("energy", {**AB_DOC, "states": ["p", 1]}, ": field 'states' must be a list of strings"),
            ("energy", {**AB_DOC, "initial": 0}, ": field 'initial' must be a string"),
            ("energy", {k: v for k, v in AB_DOC.items() if k != "initial"},
             ": missing field 'initial'"),
            ("implement", [], ": expected a JSON object"),
            ("implement", {"pairs": [["a", "a", 1.0]]}, ": pair 0 must be an object"),
            ("linlen", [AB_DOC], ": expected a JSON object"),
            ("energy", dump_json(AB_DOC).replace('"to": "p"', '"to": "p", "cost": Infinity'),
             ": non-finite number Infinity is not valid JSON"),
        ],
        ids=[
            "alphabet-not-list", "row-not-object", "state-not-string", "initial-not-string",
            "initial-missing", "pair-costs-not-object", "pair-not-object", "spec-not-object",
            "infinity",
        ],
    )
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command, text, problem):
        path = tmp_path / "doc.json"
        path.write_text(text if isinstance(text, str) else json.dumps(text), encoding="utf-8")
        argv = {
            "energy": ["energy", str(path)],
            "implement": [
                "implement", write_json(tmp_path, "dfa.json", AB_DOC), str(path),
                str(tmp_path / "machine.json"),
            ],
            "linlen": ["linlen", str(path)],
        }[command]
        assert main(argv) == 2
        out, err = lines_of(capsys)
        assert out == []
        assert err == f"error: {path}{problem}\n"


class TestPairCostDocument:
    @pytest.mark.parametrize(
        "pairs, problem",
        [
            ([("a", "c")], "pair 0: symbol 'c' is not in the alphabet"),
            ([("a", "b"), ("b", "a"), ("a", "b")], "pair 2: pair ('a', 'b') is listed twice"),
        ],
        ids=["foreign-symbol", "duplicate-pair"],
    )
    @pytest.mark.parametrize("command", ["implement", "oracle"])
    def test_foreign_or_duplicate_pair_is_input_error(
        self, tmp_path, capsys, ab_star, pairs, problem, command
    ):
        dfa_path = write_automaton(tmp_path, "dfa.json", ab_star)
        doc = {"pairs": [{"first": x, "second": y, "cost": 1.0} for x, y in pairs]}
        u_path = write_json(tmp_path, "u.json", doc)
        out_path = str(tmp_path / "machine.json")
        argv = {
            "implement": ["implement", dfa_path, u_path, out_path],
            "oracle": ["oracle", dfa_path, "--kind", "words", "--pair-costs", u_path],
        }[command]
        assert main(argv) == 2
        out, err = lines_of(capsys)
        assert out == []
        assert err == f"error: {u_path} {problem}\n"
        assert not os.path.exists(out_path)


class TestOracleCommand:
    def test_word_series_long_horizon(self, tmp_path, capsys, ab_star, u_ab):
        dfa_path = write_automaton(tmp_path, "dfa.json", ab_star)
        u_path = write_pair_cost(tmp_path, "u.json", u_ab)
        assert main([
            "oracle", dfa_path, "--kind", "words", "--pair-costs", u_path,
            "--max-n", "400", "--window", "50",
        ]) == 0
        out, _ = lines_of(capsys)
        estimate = float(out[0].split()[1])
        assert abs(estimate - 3.5) <= 0.02

    def test_run_series_default(self, tmp_path, capsys, branchy_nfa):
        path = write_automaton(tmp_path, "m.json", branchy_nfa)
        assert main(["oracle", path, "--kind", "accepting-runs"]) == 0
        out, _ = lines_of(capsys)
        assert out[0].startswith("estimate ")
        assert out[1].startswith("spread ")

    def test_json_series(self, tmp_path, capsys, ab_star, u_ab):
        dfa_path = write_automaton(tmp_path, "dfa.json", ab_star)
        u_path = write_pair_cost(tmp_path, "u.json", u_ab)
        assert main([
            "oracle", dfa_path, "--kind", "words", "--pair-costs", u_path,
            "--max-n", "8", "--json",
        ]) == 0
        out, _ = capsys.readouterr()
        doc = json.loads(out)
        assert set(doc) == {"kind", "values", "rates", "estimate", "spread"}
        assert doc["kind"] == "words"
        assert doc["values"][1] == [2, pytest.approx(math.exp(2.0))]

    def test_invalid_max_n(self, tmp_path, capsys, ab_star):
        path = write_automaton(tmp_path, "m.json", ab_star)
        assert main(["oracle", path, "--max-n", "0"]) == 2
        _, err = lines_of(capsys)
        assert "max_n must be positive" in err

    def test_overflow_is_numerical_error(self, tmp_path, capsys):
        hot = aut(["a"], ["A"], "A", ["A"], [("A", "a", "A", 800.0)])
        path = write_automaton(tmp_path, "m.json", hot)
        assert main(["oracle", path, "--kind", "accepting-runs", "--max-n", "5"]) == 3
        _, err = lines_of(capsys)
        assert "rescale costs" in err

    @pytest.mark.parametrize("kind", ["runs", "accepting-runs"])
    def test_pair_costs_with_a_run_kind_is_input_error(self, tmp_path, capsys, ab_star, u_ab, kind):
        # run sums have no pair costs: the file was silently ignored
        path = write_automaton(tmp_path, "m.json", ab_star)
        u_path = write_pair_cost(tmp_path, "u.json", u_ab)
        assert main(["oracle", path, "--kind", kind, "--pair-costs", u_path]) == 2
        out, err = lines_of(capsys)
        assert out == []
        assert err == f"error: --pair-costs applies only to --kind words, not {kind}\n"


class TestLinlenCommand:
    def test_energy_with_oracle_check(self, tmp_path, capsys):
        path = write_json(tmp_path, "spec.json", linlen_doc())
        assert main(["linlen", path, "--oracle-check", "30"]) == 0
        out, _ = lines_of(capsys)
        assert out[0] == "energy 1.000000"
        assert out[1].startswith("oracle_estimate ")
        estimate = float(out[1].split()[1])
        assert abs(estimate - 1.0) <= 0.1

    def test_json(self, tmp_path, capsys):
        path = write_json(tmp_path, "spec.json", linlen_doc())
        assert main(["linlen", path, "--json", "--oracle-check", "12"]) == 0
        out, _ = capsys.readouterr()
        doc = json.loads(out)
        assert doc["energy"] == pytest.approx(1.0, abs=1e-9)
        assert "oracle" in doc

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_oracle_check_must_be_positive(self, tmp_path, capsys, n):
        path = write_json(tmp_path, "spec.json", linlen_doc())
        assert main(["linlen", path, "--oracle-check", n]) == 2
        out, err = lines_of(capsys)
        assert out == []
        assert err == f"error: max_n must be positive, got {n}\n"

    def test_oracle_check_cap(self, tmp_path, capsys):
        path = write_json(tmp_path, "spec.json", linlen_doc())
        assert main(["linlen", path, "--oracle-check", "10001"]) == 2
        out, err = lines_of(capsys)
        assert out == []
        assert err == "error: max_n 10001 exceeds the cap 10000\n"

    def test_oracle_overflow_is_numerical_error(self, tmp_path, capsys):
        # the energy is 100; the word a^2 b^4 a^6 weighs e^900
        path = write_json(tmp_path, "spec.json", linlen_doc(diag_cost=100.0))
        assert main(["linlen", path, "--oracle-check", "12"]) == 3
        out, err = lines_of(capsys)
        assert out == []
        assert err == "error: words partition sum left the double range at n=12; rescale costs\n"

    def test_empty_linear_set_is_input_error(self, tmp_path, capsys):
        doc = linlen_doc()
        doc["parts"] = []
        doc["lengths"] = {"offset": [], "periods": []}
        path = write_json(tmp_path, "spec.json", doc)
        assert main(["linlen", path]) == 2
        out, err = lines_of(capsys)
        assert out == []
        assert "offset must have at least one coordinate" in err

    def test_oracle_prefix_cap_is_resource_error(self, tmp_path, capsys):
        # base and the one part are both {a, b}*: 2^23 - 1 prefixes up to
        # length 22, past the default cap of 10^6, which the oracle counts
        # before it enumerates any
        sigma = {
            "alphabet": ["a", "b"], "states": ["A"], "initial": "A", "accepting": ["A"],
            "transitions": [{"from": "A", "symbol": s, "to": "A"} for s in ("a", "b")],
        }
        doc = {"base": sigma, "parts": [dict(sigma)], "lengths": {"offset": [1], "periods": [[1]]}}
        path = write_json(tmp_path, "spec.json", doc)
        assert main(["linlen", path, "--oracle-check", "22"]) == 4
        out, err = lines_of(capsys)
        assert out == []
        assert err == "error: oracle enumeration passed 1000000 prefixes; instance too large\n"

    def test_bad_offset_is_input_error(self, tmp_path, capsys):
        doc = linlen_doc()
        doc["lengths"]["offset"] = [0, 2, 3]
        path = write_json(tmp_path, "spec.json", doc)
        assert main(["linlen", path]) == 2
        _, err = lines_of(capsys)
        assert "offset must be positive" in err

    @pytest.mark.parametrize(
        "field, value",
        [("offset", [1.5, 2, 3]), ("periods", [[1.9, 2, 3]]), ("offset", ["1", 2, 3]),
         ("periods", [[True, 2, 3]])],
        ids=["float-offset", "float-period", "string", "boolean"],
    )
    def test_non_integer_length_is_input_error(self, tmp_path, capsys, field, value):
        # int() would truncate or coerce these into a spec for another language
        doc = linlen_doc()
        doc["lengths"][field] = value
        path = write_json(tmp_path, "spec.json", doc)
        assert main(["linlen", path]) == 2
        out, err = lines_of(capsys)
        assert out == []
        assert f"lengths: field '{field}' must be a list" in err

    def test_block_cap_is_resource_error(self, tmp_path, capsys):
        sigma3 = {
            "alphabet": ["a", "b", "c"], "states": ["A"], "initial": "A",
            "accepting": ["A"],
            "transitions": [
                {"from": "A", "symbol": s, "to": "A"} for s in ("a", "b", "c")
            ],
        }
        doc = {
            "base": sigma3,
            "parts": [dict(sigma3)],
            "lengths": {"offset": [1], "periods": [[10]]},
        }
        path = write_json(tmp_path, "spec.json", doc)
        assert main(["linlen", path]) == 4
        _, err = lines_of(capsys)
        assert "59049" in err


class TestEnvironmentAndUsage:
    def test_invalid_tolerance_env(self, tmp_path, capsys, monkeypatch, ab_star):
        path = write_automaton(tmp_path, "m.json", ab_star)
        monkeypatch.setenv("TOLERANCE", "nope")
        assert main(["energy", path]) == 2
        monkeypatch.setenv("TOLERANCE", "-1e-9")
        assert main(["energy", path]) == 2
        _, err = lines_of(capsys)
        assert "TOLERANCE must be positive" in err

    @pytest.mark.parametrize("value", ["inf", "2", "1", "nan", "-1", "0"])
    def test_out_of_range_tolerance_flag(self, tmp_path, capsys, value, ab_star):
        # tolerance 1 or more certifies a wrong radius; 0 or less, or NaN,
        # can never be met
        path = write_automaton(tmp_path, "m.json", ab_star)
        assert main(["energy", path, "--tolerance", value]) == 2
        out, err = lines_of(capsys)
        assert out == []
        assert err == f"error: --tolerance must be positive and below 1, got {float(value)}\n"

    @pytest.mark.parametrize("value", ["inf", "2", "nan", "0"])
    def test_out_of_range_tolerance_env(self, tmp_path, capsys, monkeypatch, value, ab_star):
        path = write_automaton(tmp_path, "m.json", ab_star)
        monkeypatch.setenv("TOLERANCE", value)
        assert main(["energy", path]) == 2
        out, err = lines_of(capsys)
        assert out == []
        assert err == f"error: TOLERANCE must be positive and below 1, got {value}\n"

    def test_max_iters_env_starves_solver(self, tmp_path, capsys, monkeypatch, dna_m2):
        path = write_automaton(tmp_path, "m.json", dna_m2)
        monkeypatch.setenv("MAX_ITERS", "1")
        assert main(["energy", path]) == 3
        _, err = lines_of(capsys)
        assert "residual" in err

    @pytest.mark.parametrize("form", ["compact", "bipartite"])
    def test_max_iters_counts_per_component(self, tmp_path, capsys, monkeypatch, form):
        # one sweep certifies only the compact 1-state blocks; the error
        # names the first component in the report's order that it starves
        a = many_components()
        rep = gurevich.free_energy(a, form=form)
        first = next(
            len(states)
            for (states, _), r in zip(rep.per_component, rep.solver)
            if r is not None and (len(states) > 1 or form == "bipartite")
        )
        path = write_automaton(tmp_path, "m.json", a)
        monkeypatch.setenv("MAX_ITERS", "1")
        assert main(["energy", path, "--form", form]) == 3
        _, err = lines_of(capsys)
        assert f"after 1 iterations (component of {first} states, {form} matrix" in err

    def test_loose_tolerance_env_still_works(self, tmp_path, capsys, monkeypatch, dna_m2):
        path = write_automaton(tmp_path, "m.json", dna_m2)
        monkeypatch.setenv("TOLERANCE", "1e-6")
        assert main(["energy", path]) == 0
        out, _ = lines_of(capsys)
        assert out[0].startswith("energy 1.408")

    def test_tolerance_flag_overrides(self, tmp_path, capsys, dna_m2):
        path = write_automaton(tmp_path, "m.json", dna_m2)
        assert main(["energy", path, "--tolerance", "1e-4", "--json"]) == 0
        out, _ = capsys.readouterr()
        assert json.loads(out)["solver"][0]["iterations"] > 0

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
    def test_max_iters_env_must_be_positive_integer(self, tmp_path, capsys, monkeypatch, value, ab_star):
        path = write_automaton(tmp_path, "m.json", ab_star)
        monkeypatch.setenv("MAX_ITERS", value)
        assert main(["energy", path]) == 2
        out, err = lines_of(capsys)
        assert out == []
        assert err == f"error: MAX_ITERS must be positive, got {value}\n"

    def test_bad_tolerance_env_fails_despite_flag(self, tmp_path, capsys, monkeypatch, ab_star):
        path = write_automaton(tmp_path, "m.json", ab_star)
        monkeypatch.setenv("TOLERANCE", "nope")
        assert main(["energy", path, "--tolerance", "1e-6"]) == 2
        out, err = lines_of(capsys)
        assert out == []
        assert err == "error: TOLERANCE must be positive and below 1, got nope\n"

    def test_settings_read_on_every_call(self, tmp_path, capsys, monkeypatch, dna_m2):
        path = write_automaton(tmp_path, "m.json", dna_m2)
        monkeypatch.setenv("MAX_ITERS", "1")
        assert main(["energy", path]) == 3
        monkeypatch.delenv("MAX_ITERS")
        assert main(["energy", path]) == 0

    def test_invalid_max_iters_env(self, tmp_path, capsys, monkeypatch, ab_star):
        path = write_automaton(tmp_path, "m.json", ab_star)
        monkeypatch.setenv("MAX_ITERS", "0")
        assert main(["energy", path]) == 2
        _, err = lines_of(capsys)
        assert "MAX_ITERS must be positive" in err


class TestNonFiniteCosts:
    """Costs reach the CLI as JSON text: 1e400 parses to inf, and strings
    are not numbers, whatever they spell."""

    @pytest.mark.parametrize("token", ['"1.5"', '"inf"', '"nan"', "1e400", "-1e400"])
    def test_transition_cost(self, tmp_path, capsys, ab_star, token):
        doc = automaton_to_document(ab_star)
        doc["transitions"][1]["cost"] = "COST"
        path = tmp_path / "m.json"
        path.write_text(dump_json(doc).replace('"COST"', token), encoding="utf-8")
        assert main(["energy", str(path)]) == 2
        _, err = lines_of(capsys)
        assert err.splitlines() == [f"error: {path} transition 1: field 'cost' must be a finite number"]

    @pytest.mark.parametrize(
        "text, where",
        [
            ('{"pairs": [{"first": "a", "second": "b", "cost": 1e400}], "default": 0.0}',
             " pair 0: field 'cost'"),
            ('{"pairs": [{"first": "a", "second": "b", "cost": 2.0}], "default": 1e400}',
             ": field 'default'"),
        ],
    )
    def test_pair_cost(self, tmp_path, capsys, ab_star, text, where):
        dfa_path = write_automaton(tmp_path, "dfa.json", ab_star)
        u_path = tmp_path / "u.json"
        u_path.write_text(text, encoding="utf-8")
        out_path = tmp_path / "machine.json"
        assert main(["implement", dfa_path, str(u_path), str(out_path)]) == 2
        _, err = lines_of(capsys)
        assert err.splitlines() == [f"error: {u_path}{where} must be a finite number"]
        assert not out_path.exists()


class TestOutOfMemory:
    @pytest.mark.parametrize("command", ["energy", "similarity"])
    def test_memory_error_is_resource_error(self, tmp_path, capsys, monkeypatch, ab_cycle_machine, command):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("gurevich.cli.free_energy", exhausted)
        monkeypatch.setattr("gurevich.cli.similarity", exhausted)
        path = write_automaton(tmp_path, "m.json", ab_cycle_machine)
        paths = [path] if command == "energy" else [path, path]
        assert main([command] + paths) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: out of memory in {command} on {path} (3 states, 3 transitions)")
        assert err.count("3 states, 3 transitions") == len(paths)


class TestColdStart:
    def test_cli_import_leaves_scipy_out(self):
        # scipy is imported only for Noda steps above the dense dimension;
        # at import time it would add its import time to every command
        src = os.path.dirname(os.path.dirname(os.path.abspath(gurevich.__file__)))
        code = "import sys, gurevich.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_small_energy_leaves_scipy_out(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(gurevich.__file__)))
        code = (
            "import sys\n"
            "from gurevich import CostAutomaton, free_energy\n"
            "names = [str(i) for i in range(10)]\n"
            "edges = [(names[i], 'a', names[(i + 1) % 10], 0.5) for i in range(10)]\n"
            "a = CostAutomaton.create(['a'], names, '0', names, edges + [('0', 'a', '2', 0.0)])\n"
            "assert free_energy(a).solver[0].converged\n"
            "assert free_energy(a, form='bipartite').solver[0].converged\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_large_well_mixed_energy_leaves_scipy_out(self):
        # only Noda steps on a block above the dense dimension load scipy;
        # a well-mixed component certifies by power sweeps at any size
        src = os.path.dirname(os.path.dirname(os.path.abspath(gurevich.__file__)))
        code = (
            "import random, sys\n"
            "from gurevich import CostAutomaton, free_energy\n"
            "rng = random.Random(5)\n"
            "n = 2000\n"
            "names = [str(i) for i in range(n)]\n"
            "edges = {(names[i], 'a', names[(i + 1) % n]) for i in range(n)}\n"
            "edges |= {(names[i], rng.choice('abc'), names[rng.randrange(n)]) for i in range(n) for _ in range(4)}\n"
            "a = CostAutomaton.create(['a', 'b', 'c'], names, '0', names,\n"
            "    [(p, x, q, rng.uniform(-1.0, 1.0)) for p, x, q in sorted(edges)])\n"
            "rep = free_energy(a)\n"
            "assert len(rep.solver) == 1 and rep.solver[0].converged\n"
            "assert rep.solver[0].method == 'power'\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_small_oracle_leaves_scipy_out(self, tmp_path):
        path = str(tmp_path / "cycle.json")
        save_document(path, automaton_to_document(
            aut(["a", "b"], ["p", "q"], "p", ["p"], [("p", "a", "q", 0.5), ("q", "b", "p", -0.25)])
        ))
        src = os.path.dirname(os.path.dirname(os.path.abspath(gurevich.__file__)))
        code = (
            "import sys\n"
            "from gurevich.cli import main\n"
            "for kind in ('runs', 'accepting-runs', 'words'):\n"
            f"    assert main(['oracle', {path!r}, '--kind', kind, '--max-n', '20']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.strip().splitlines()[-1] == "[]"
