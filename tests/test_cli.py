import json
import math
import os
import subprocess
import sys

import pytest

import gurevich
from gurevich import (
    automaton_to_document,
    dump_json,
    load_automaton,
    pair_cost_to_document,
    save_document,
)
from gurevich import energy as energy_mod
from gurevich import free_energy
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
        # fallback's two energies are computed
        path = write_automaton(tmp_path, "m.json", branchy_nfa)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return free_energy(*args, **kwargs)

        monkeypatch.setattr(energy_mod, "free_energy", spy)
        assert main(["nondet", path, "--exact", "--state-cap", "3"]) == 4
        out, err = lines_of(capsys)
        assert len(calls) == 2
        assert out == ["lambda_plus 0.499249", "energy_v 1.084990", "energy_zero 0.585741"]
        assert err == "error: determinization exceeded the state cap (3)\n"

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


class TestDispatch:
    def test_parser_built_once_and_handlers_looked_up_per_call(self, monkeypatch):
        import gurevich.cli as cli

        assert cli._build_parser() is cli._build_parser()
        calls = []
        monkeypatch.setattr(cli, "cmd_energy", lambda args: calls.append(args.path) or 0)
        assert main(["energy", "m.json"]) == 0
        assert calls == ["m.json"]


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

    @pytest.mark.parametrize("out_name", ["missing/machine.json", "."], ids=["no-directory", "directory"])
    def test_unwritable_output_is_input_error(self, tmp_path, capsys, ab_star, u_ab, out_name):
        dfa_path = write_automaton(tmp_path, "dfa.json", ab_star)
        u_path = write_pair_cost(tmp_path, "u.json", u_ab)
        out_path = str(tmp_path / out_name)
        assert main(["implement", dfa_path, u_path, out_path]) == 2
        out, err = lines_of(capsys)
        assert out == []
        assert err.startswith(f"error: cannot write {out_path}: ")


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
