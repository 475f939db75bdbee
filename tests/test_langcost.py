import math

import pytest

from gurevich import (
    PairCostFunction,
    UnknownSymbol,
    automata,
    determinize,
    estimate_limit,
    free_energy,
    implement_construction,
    language_energy,
    validate,
    verify_implements,
    word_cost,
    word_partition_series,
)

from conftest import aut, colliding_dfa, enum_accepting_runs, enum_words, random_automaton

ZERO_U = PairCostFunction.create()


class TestWordCost:
    def test_examples(self, u_ab):
        assert word_cost(u_ab, ("a", "b")) == 2.0
        assert word_cost(u_ab, ("a", "b", "a", "b")) == 9.0
        assert word_cost(u_ab, ("a",)) == 0.0
        assert word_cost(u_ab, ()) == 0.0

    def test_default_fills_gaps(self):
        u = PairCostFunction.create({("a", "a"): 1.0}, default=-2.0)
        assert word_cost(u, ("a", "a")) == 1.0
        assert word_cost(u, ("a", "b")) == -2.0
        assert word_cost(u, ("a", "b", "a")) == -4.0

    def test_unknown_symbol_when_alphabet_bound(self):
        u = PairCostFunction.create({("a", "b"): 2.0}, alphabet=["a", "b"])
        with pytest.raises(UnknownSymbol):
            word_cost(u, ("a", "z"))
        with pytest.raises(UnknownSymbol):
            u.cost("z", "a")


class TestImplementConstruction:
    def test_two_symbol_cycle_shape(self, ab_star, u_ab):
        m = implement_construction(ab_star, u_ab)
        assert len(m.states) == 3
        costs = sorted(t.cost for t in m.transitions)
        assert costs == [0.0, 2.0, 5.0]
        assert m.initial == "p"
        assert m.accepting == frozenset({"p", "(q,b,p)"})
        assert abs(free_energy(m).energy - 3.5) <= 1e-9

    def test_one_symbol_loop_unit_cost(self):
        a_star = aut(["a"], ["A"], "A", ["A"], [("A", "a", "A")])
        u = PairCostFunction.create({("a", "a"): 1.0})
        m = implement_construction(a_star, u)
        assert abs(free_energy(m).energy - 1.0) <= 1e-9

    def test_zero_costs_give_information_rate(self):
        sigma = aut(["a", "b"], ["A"], "A", ["A"], [("A", "a", "A"), ("A", "b", "A")])
        m = implement_construction(sigma, ZERO_U)
        assert all(t.cost == 0.0 for t in m.transitions)
        assert abs(free_energy(m).energy - math.log(2.0)) <= 1e-9

    def test_rejects_nondeterministic(self, branchy_nfa, u_ab):
        from gurevich import NotDeterministic

        with pytest.raises(NotDeterministic):
            implement_construction(branchy_nfa, u_ab)

    def test_language_preserved(self, ab_star, u_ab):
        m = implement_construction(ab_star, u_ab)
        assert sorted(enum_words(m, 6)) == sorted(enum_words(ab_star, 6))

    def test_runs_one_to_one_with_matching_cost(self, ab_star, u_ab):
        fixtures = [(ab_star, u_ab)]
        for seed in (2, 5, 9):
            dfa = determinize(random_automaton(seed, max_states=4, costs="zero"))
            if dfa.is_empty:
                continue
            u = PairCostFunction.create(
                {(x, y): ((seed * 3 + ord(x) + 2 * ord(y)) % 7) * 0.4 for x in "ab" for y in "ab"}
            )
            fixtures.append((dfa, u))
        for dfa, u in fixtures:
            m = implement_construction(dfa, u)
            for w in enum_words(dfa, 6):
                runs = enum_accepting_runs(m, w)
                assert len(runs) == 1
                _, cost = runs[0]
                assert cost == pytest.approx(word_cost(u, w), abs=1e-9)


    def test_state_names_do_not_collide(self):
        # transitions (a, b, "x,c") and ("a,b", x, c) would both be "(a,b,x,c)"
        dfa = colliding_dfa()
        u = PairCostFunction.create({("b", "x"): 1.0, ("x", "x"): 2.0})
        m = implement_construction(dfa, u)
        assert validate(m) == []
        assert m.deterministic
        assert len(m.states) == 4
        assert "(a,x,a,b)" in m.states  # a name no other shares stays plain
        assert {"(a,b,x\\,c)", "(a\\,b,x,c)"} <= m.states
        assert verify_implements(m, dfa, u, 6).holds

    def test_output_is_trimmed(self, ab_star, u_ab):
        # state (p,a,q) is reached through p and reaches acceptance through
        # q, and the start is live, so the output needs no trim of its own
        dead_ends = aut(
            ["a", "b"], ["p", "q", "dead", "unreached"], "p", ["p"],
            [("p", "a", "q"), ("q", "b", "p"), ("q", "a", "dead"), ("dead", "a", "dead"),
             ("unreached", "b", "p")],
        )
        empty_word = aut(["a"], ["A"], "A", ["A"], [])
        fixtures = [ab_star, colliding_dfa(), dead_ends, empty_word] + [
            determinize(random_automaton(seed, max_states=5)) for seed in range(40)
        ]
        for dfa in fixtures:
            machine = implement_construction(dfa, u_ab)
            assert not machine.is_empty
            assert automata.live_states(machine).all()


class TestVerifyImplements:
    def test_construction_output_holds(self, ab_star, u_ab):
        m = implement_construction(ab_star, u_ab)
        report = verify_implements(m, ab_star, u_ab, 12)
        assert report.holds
        assert report.checked_up_to == 12
        assert report.counterexample is None

    def test_per_transition_costs_cannot_express_pair_costs(self, ab_star, u_ab):
        # constant per-transition costs V(a), V(b) on the bare two-state
        # cycle give (ab)^k the run cost k(V(a)+V(b)); no choice matches
        # 7k - 5 at both k = 1 and k = 2, so a counterexample must appear
        # by length 4
        for va, vb in ((0.0, 2.0), (1.0, 1.0), (3.5, 3.5), (0.0, 0.0)):
            skeleton = aut(
                ["a", "b"], ["p", "q"], "p", ["p"],
                [("p", "a", "q", va), ("q", "b", "p", vb)],
            )
            report = verify_implements(skeleton, ab_star, u_ab, 4)
            assert not report.holds
            ce = report.counterexample
            assert ce is not None
            assert len(ce.word) <= 4
            assert abs(ce.run_cost - ce.word_cost) > 1e-9

    def test_language_mismatch_reported(self, ab_star, u_ab):
        a_star = aut(["a", "b"], ["A"], "A", ["A"], [("A", "a", "A")])
        report = verify_implements(a_star, ab_star, u_ab, 4)
        assert not report.holds
        ce = report.counterexample
        assert ce is not None
        # first disagreement in breadth-first lexicographic order: "a" is
        # accepted by the candidate but not in (ab)*
        assert ce.word == ("a",)
        assert ce.word_cost is None

    def test_negative_max_len_rejected(self, ab_star, u_ab):
        a_star = aut(["a", "b"], ["A"], "A", ["A"], [("A", "a", "A")])
        with pytest.raises(ValueError, match="max_len must be non-negative, got -1"):
            verify_implements(a_star, ab_star, u_ab, -1)
        # 0 checks the empty word alone, which both languages contain
        report = verify_implements(a_star, ab_star, u_ab, 0)
        assert report.holds and report.checked_up_to == 0

    def test_construction_holds_on_corpus(self):
        for seed in range(8):
            dfa = determinize(random_automaton(seed, max_states=4, costs="zero"))
            if dfa.is_empty:
                continue
            u = PairCostFunction.create(
                {(x, y): ((seed + 5 * ord(x) + ord(y)) % 9) * 0.25 - 0.5 for x in "ab" for y in "ab"}
            )
            m = implement_construction(dfa, u)
            assert verify_implements(m, dfa, u, 6).holds


class TestLanguageEnergy:
    def test_two_symbol_cycle(self, ab_star, u_ab):
        assert abs(language_energy(ab_star, u_ab).energy - 3.5) <= 1e-9

    def test_zero_costs_full_language(self):
        sigma = aut(["a", "b"], ["A"], "A", ["A"], [("A", "a", "A"), ("A", "b", "A")])
        assert abs(language_energy(sigma, ZERO_U).energy - math.log(2.0)) <= 1e-9

    def test_finite_language(self, u_ab):
        just_ab = aut(
            ["a", "b"], ["0", "1", "2"], "0", ["2"],
            [("0", "a", "1"), ("1", "b", "2")],
        )
        assert language_energy(just_ab, u_ab).energy == 0.0

    def test_matches_hand_built_machine(self, ab_star, u_ab, ab_cycle_machine):
        # the S/P/Q cycle machine carries the same language and pair costs
        assert free_energy(ab_cycle_machine).energy == pytest.approx(
            language_energy(ab_star, u_ab).energy, abs=1e-9
        )

    @pytest.mark.parametrize("c", [-1.5, 0.25, 2.0])
    def test_pair_cost_shift(self, c, ab_star, u_ab):
        fixtures = [(ab_star, u_ab)]
        for seed in (1, 4):
            dfa = determinize(random_automaton(seed, max_states=4, costs="zero"))
            if dfa.is_empty or free_energy(dfa).energy == 0.0:
                continue  # shift only moves the rate on languages with long words
            u = PairCostFunction.create(
                {(x, y): ((seed + ord(x) * ord(y)) % 4) * 0.5 for x in "ab" for y in "ab"}
            )
            fixtures.append((dfa, u))
        for dfa, u in fixtures:
            base = language_energy(dfa, u).energy
            shifted = language_energy(dfa, u.shifted(c)).energy
            assert abs(shifted - (base + c)) <= 1e-8

    def test_agrees_with_word_oracle(self, ab_star, u_ab):
        sigma = aut(["a", "b"], ["A"], "A", ["A"], [("A", "a", "A"), ("A", "b", "A")])
        u_mixed = PairCostFunction.create(
            {("a", "a"): 0.3, ("a", "b"): -0.2, ("b", "a"): 0.8, ("b", "b"): 0.1}
        )
        for dfa, u in ((ab_star, u_ab), (sigma, u_mixed), (sigma, ZERO_U)):
            energy = language_energy(dfa, u).energy
            series = word_partition_series(dfa, u, 300)
            # restrict to populated lengths so periodic-support languages
            # compare on their actual subsequence
            live = [r for (n, v), (_, r) in zip(series.values, series.rates) if v > 0.0]
            estimate = max(live[-50:])
            assert abs(estimate - energy) <= 0.05
