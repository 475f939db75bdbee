import math

import pytest

from gurevich import (
    CostAutomaton,
    StateCapExceeded,
    branching_costs,
    count_series,
    determinize,
    free_energy,
    lambda_exact,
    lambda_plus,
)

from conftest import BRANCHY_LAMBDA_EXACT, aut, random_automaton


@pytest.fixture
def two_parallel_paths():
    """Every 'a' splits into two runs that merge back on 'b'."""
    return aut(
        ["a", "b"], ["i", "p", "q"], "i", ["p", "q"],
        [("i", "a", "p"), ("i", "a", "q"), ("p", "b", "i"), ("q", "b", "i")],
    )


@pytest.fixture
def complete_a_graph():
    # the smallest machine with two a-moves out of every state on every
    # symbol (two states, all four a-edges); k(p, a) = 2 everywhere, so the
    # branching-cost energy is ln 4 and the zero-cost energy is ln 2
    return aut(
        ["a"], ["p", "q"], "p", ["p", "q"],
        [("p", "a", "p"), ("p", "a", "q"), ("q", "a", "p"), ("q", "a", "q")],
    )


class TestBranchingCosts:
    def test_branchy_machine(self, branchy_nfa):
        v = branching_costs(branchy_nfa)
        by_edge = {(t.source, t.symbol, t.target): t.cost for t in v.transitions}
        assert by_edge[("A", "a", "B")] == pytest.approx(math.log(3))
        assert by_edge[("A", "a", "C")] == pytest.approx(math.log(3))
        assert by_edge[("A", "a", "D")] == pytest.approx(math.log(3))
        assert by_edge[("F", "b", "E")] == pytest.approx(math.log(2))
        assert by_edge[("F", "b", "A")] == pytest.approx(math.log(2))
        assert by_edge[("A", "b", "E")] == 0.0
        assert by_edge[("B", "a", "F")] == 0.0

    def test_dfa_all_zero(self, ab_star):
        assert all(t.cost == 0.0 for t in branching_costs(ab_star).transitions)

    def test_counts_per_state_symbol_pair(self, two_parallel_paths):
        v = branching_costs(two_parallel_paths)
        by_edge = {(t.source, t.symbol, t.target): t.cost for t in v.transitions}
        assert by_edge[("i", "a", "p")] == pytest.approx(math.log(2))
        assert by_edge[("i", "a", "q")] == pytest.approx(math.log(2))
        assert by_edge[("p", "b", "i")] == 0.0


class TestLambdaPlus:
    def test_branchy_machine(self, branchy_nfa):
        rep = lambda_plus(branchy_nfa)
        assert abs(rep.lambda_plus - 0.4993) <= 1e-3
        assert abs(rep.energy_v - 1.0850) <= 1e-3
        assert abs(rep.energy_zero - 0.5857) <= 1e-3

    def test_dfa_is_zero(self, ab_star, ab_cycle_machine):
        for dfa in (ab_star, ab_cycle_machine):
            rep = lambda_plus(dfa)
            assert rep.lambda_plus == 0.0
            assert abs(rep.lambda_plus_raw) <= 1e-9

    def test_complete_a_graph(self, complete_a_graph):
        rep = lambda_plus(complete_a_graph)
        assert rep.energy_v == pytest.approx(math.log(4), abs=1e-9)
        assert rep.energy_zero == pytest.approx(math.log(2), abs=1e-9)
        assert rep.lambda_plus == pytest.approx(math.log(2), abs=1e-9)

    def test_ignores_existing_costs(self, branchy_nfa):
        salted = branchy_nfa.with_costs([17.0] * branchy_nfa.cost.size)
        assert lambda_plus(salted).lambda_plus == pytest.approx(
            lambda_plus(branchy_nfa).lambda_plus, abs=1e-10
        )


class TestLambdaExact:
    def test_branchy_reference_value(self, branchy_nfa):
        # Derived in conftest from the NFA's and the subset DFA's zero-cost
        # characteristic polynomials (0.5857 - 0.4196); the count-series
        # slope in test_oracle backs it.
        rep = lambda_exact(branchy_nfa)
        assert abs(rep.lambda_exact - BRANCHY_LAMBDA_EXACT) <= 1e-3

    def test_branchy_report_fields(self, branchy_nfa):
        rep = lambda_exact(branchy_nfa)
        assert rep.dfa_states == 6
        assert abs(rep.lambda_plus - 0.4993) <= 1e-3
        assert rep.lambda_exact == pytest.approx(
            rep.energy_zero - free_energy(determinize(branchy_nfa)).energy, abs=1e-10
        )

    def test_dfa_is_zero(self, ab_star):
        rep = lambda_exact(ab_star)
        assert rep.lambda_exact == 0.0
        assert rep.dfa_states is not None

    def test_two_parallel_paths(self, two_parallel_paths):
        # the subset construction merges {p, q}: half the runs are spurious,
        # so both estimates land on ln sqrt(2) per step
        rep = lambda_exact(two_parallel_paths)
        assert rep.lambda_exact == pytest.approx(math.log(2) / 2, abs=1e-9)
        assert rep.lambda_plus == pytest.approx(math.log(2) / 2, abs=1e-9)

    def test_complete_a_graph(self, complete_a_graph):
        rep = lambda_exact(complete_a_graph)
        assert rep.lambda_exact == pytest.approx(math.log(2), abs=1e-9)

    def test_state_cap(self, branchy_nfa):
        with pytest.raises(StateCapExceeded):
            lambda_exact(branchy_nfa, state_cap=3)


class TestInvariants:
    def test_exact_never_exceeds_plus(self, branchy_nfa, two_parallel_paths):
        fixtures = [branchy_nfa, two_parallel_paths] + [
            random_automaton(seed, max_states=5) for seed in range(12)
        ]
        for m in fixtures:
            if m.is_empty:
                continue
            rep = lambda_exact(m)
            assert rep.lambda_exact <= rep.lambda_plus + 1e-6

    def test_nonnegative(self):
        for seed in range(12):
            m = random_automaton(seed, max_states=5)
            if m.is_empty:
                continue
            rep = lambda_exact(m)
            assert rep.lambda_plus >= 0.0
            assert rep.lambda_exact >= 0.0

    def test_count_slope_tracks_exact(self, two_parallel_paths, branchy_nfa):
        fixtures = [two_parallel_paths, branchy_nfa]
        for m in fixtures:
            rep = lambda_exact(m)
            f, g = count_series(m, 200)
            assert f[200] > 0 and g[200] > 0
            slope = (math.log(f[200]) - math.log(g[200])) / 200
            assert abs(slope - rep.lambda_exact) <= 0.05

    def test_renaming_invariance(self, branchy_nfa):
        mapping = {s: f"n{ord(s)}" for s in branchy_nfa.states}
        sym_map = {"a": "x", "b": "y"}
        renamed = CostAutomaton.create(
            [sym_map[s] for s in sorted(branchy_nfa.alphabet)],
            [mapping[s] for s in sorted(branchy_nfa.states)],
            mapping[branchy_nfa.initial],
            [mapping[s] for s in sorted(branchy_nfa.accepting)],
            [
                (mapping[t.source], sym_map[t.symbol], mapping[t.target], t.cost)
                for t in branchy_nfa.transitions
            ],
        )
        base = lambda_exact(branchy_nfa)
        other = lambda_exact(renamed)
        assert other.lambda_plus == pytest.approx(base.lambda_plus, abs=1e-10)
        assert other.lambda_exact == pytest.approx(base.lambda_exact, abs=1e-10)
