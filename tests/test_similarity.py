import math

import pytest

from gurevich import CostAutomaton, free_energy, similarity

from conftest import DNA_M1_ENERGY, aut, random_automaton, random_costed_dfa


def nonneg_corpus(count):
    out = []
    for seed in range(count):
        m = random_automaton(seed, max_states=5, costs="nonneg")
        if not m.is_empty:
            out.append(m)
    return out


class TestReferencePair:
    def test_delta(self, dna_m1, dna_m2):
        rep = similarity(dna_m1, dna_m2)
        assert abs(rep.delta - 1.025) <= 2e-3

    def test_first_energy(self, dna_m1, dna_m2):
        # Derived from M1's cycle structure in conftest (see test_energy).
        rep = similarity(dna_m1, dna_m2)
        assert abs(rep.energy_1 - DNA_M1_ENERGY) <= 1e-3

    def test_second_energy_and_size(self, dna_m1, dna_m2):
        rep = similarity(dna_m1, dna_m2)
        assert abs(rep.energy_2 - 1.4087) <= 1e-3
        assert rep.product_states == 4


class TestStructure:
    def test_disjoint_alphabets_give_zero(self):
        left = aut(["a"], ["A"], "A", ["A"], [("A", "a", "A", 2.0)])
        right = aut(["b"], ["B"], "B", ["B"], [("B", "b", "B", 3.0)])
        rep = similarity(left, right)
        assert rep.delta == 0.0

    def test_symmetry(self, dna_m1, dna_m2, single_cycle):
        pairs = [(dna_m1, dna_m2), (dna_m1, single_cycle)]
        corpus = nonneg_corpus(6)
        pairs += list(zip(corpus[:3], corpus[3:]))
        for a1, a2 in pairs:
            fwd = similarity(a1, a2)
            rev = similarity(a2, a1)
            assert fwd.delta == pytest.approx(rev.delta, abs=1e-9)

    def test_upper_bound_on_nonnegative_corpus(self):
        # with nonnegative costs the shared-orbit sum is dominated by the
        # full product of the individual sums, so delta <= E1 + E2; the
        # lower bound 0 holds structurally for the same corpus
        corpus = nonneg_corpus(8)
        for i, a1 in enumerate(corpus):
            for a2 in corpus[i:]:
                rep = similarity(a1, a2)
                assert rep.delta <= rep.energy_1 + rep.energy_2 + 1e-8
                assert rep.delta >= 0.0

    def test_symbol_relabeling_destroys_overlap(self, single_cycle):
        relabeled = CostAutomaton.create(
            ["c", "d"], ["X", "Y"], "X", ["X"],
            [("X", "c", "Y", 1.0), ("Y", "d", "X", 0.5)],
        )
        rep = similarity(single_cycle, relabeled)
        assert rep.delta == 0.0
        assert rep.normalized == 0.0

    def test_normalized_range_and_none(self, dna_m1, dna_m2):
        rep = similarity(dna_m1, dna_m2)
        assert rep.normalized is not None
        assert 0.0 <= rep.normalized <= 1.0
        loop_free = aut(["a"], ["A", "B"], "A", ["B"], [("A", "a", "B", 4.0)])
        rep0 = similarity(loop_free, loop_free)
        assert rep0.normalized is None


class TestSelfSimilarity:
    def test_concentrated_cycle_reaches_the_cap(self, single_cycle):
        # a single deterministic orbit: the self-product doubles every cost,
        # so delta = 2 E exactly
        rep = similarity(single_cycle, single_cycle)
        assert rep.delta == pytest.approx(rep.energy_1 + rep.energy_2, abs=1e-9)
        assert rep.normalized == pytest.approx(1.0, abs=1e-9)

    def test_identical_deterministic_pairs_reach_the_cap(self):
        # The self-product of a DFA is the DFA with doubled costs, so delta
        # is the doubled-cost energy.  E(t cost) is convex in t, hence with h
        # the zero-cost energy 2E - h <= delta <= 2E: the cap E1 + E2 is
        # reached when h = 0 (a single orbit, as in the test above) and not
        # in general (one state with two zero-cost loops: ln 2 vs 2 ln 2).
        failures = []
        for seed in range(6):
            dfa = random_costed_dfa(seed, max_states=4)
            if dfa.is_empty:
                continue
            rep = similarity(dfa, dfa)
            doubled = free_energy(dfa.with_costs(2.0 * dfa.cost)).energy
            h = free_energy(dfa.with_costs(0.0 * dfa.cost)).energy
            cap = rep.energy_1 + rep.energy_2
            if abs(rep.delta - doubled) > 1e-9:
                failures.append((seed, "doubled", rep.delta, doubled))
            if not (cap - h - 1e-9 <= rep.delta <= cap + 1e-9):
                failures.append((seed, "bound", rep.delta, cap - h, cap))
        assert not failures
