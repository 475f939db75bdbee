import collections
import math
import random

import numpy as np
import pytest

from gurevich import (
    EMPTY,
    CostAutomaton,
    NotConverged,
    NotStronglyConnected,
    Overflow,
    automaton_to_document,
    branching_costs,
    estimate_limit,
    free_energy,
    gurevich_matrix_bipartite,
    gurevich_matrix_compact,
    lambda_exact,
    lambda_plus,
    run_partition_series,
    save_document,
    scc,
    similarity,
    spectral_radius,
    trim,
)
from gurevich import automata as automata_mod
from gurevich import energy as energy_mod
from gurevich import spectral as spectral_mod
from gurevich.cli import main
from gurevich.spectral import block_radii

from conftest import (
    DNA_M1_ENERGY,
    all_accepting,
    aut,
    chord_cycle,
    chord_log_root,
    colliding_dfa,
    cycle_mean_brackets,
    many_components,
    random_automaton,
    random_strongly_connected,
    wide_ring,
)


def induced(a, states):
    """Sub-automaton on a state subset, with the first member as initial."""
    keep = frozenset(states)
    return CostAutomaton.create(
        sorted(a.alphabet),
        sorted(keep),
        min(keep),
        sorted(a.accepting & keep),
        [t for t in a.transitions if t.source in keep and t.target in keep],
    )


@pytest.fixture
def two_cycle():
    """The b:2 / a:5 two-state cycle component."""
    return aut(["a", "b"], ["B", "C"], "B", ["B"], [("B", "b", "C", 2.0), ("C", "a", "B", 5.0)])


class TestBipartiteMatrix:
    def test_two_cycle_entries(self, two_cycle):
        m = gurevich_matrix_bipartite(two_cycle)
        assert m.dim == 4
        idx = {label: i for i, label in enumerate(m.labels)}
        b, c = idx["B"], idx["C"]
        t_bc, t_cb = idx["B-b->C"], idx["C-a->B"]
        expected = np.zeros((4, 4))
        expected[b, t_bc] = math.e**2
        expected[t_bc, c] = 1.0
        expected[c, t_cb] = math.e**5
        expected[t_cb, b] = 1.0
        assert np.allclose(m.entries, expected)

    def test_single_self_loop(self):
        a = aut(["a"], ["A"], "A", ["A"], [("A", "a", "A")])
        m = gurevich_matrix_bipartite(a)
        assert m.dim == 2
        assert np.allclose(m.entries, [[0.0, 1.0], [1.0, 0.0]])

    def test_two_self_loops(self):
        a = aut(["a", "b"], ["A"], "A", ["A"], [("A", "a", "A"), ("A", "b", "A")])
        m = gurevich_matrix_bipartite(a)
        assert m.dim == 3
        state_row = m.entries[m.labels.index("A")]
        assert sorted(state_row.tolist()) == [0.0, 1.0, 1.0]
        for label in m.labels[1:]:
            row = m.entries[m.labels.index(label)]
            assert row[m.labels.index("A")] == 1.0
            assert row.sum() == 1.0

    def test_rejects_non_scc(self, ab_cycle_machine):
        with pytest.raises(NotStronglyConnected):
            gurevich_matrix_bipartite(ab_cycle_machine)

    def test_transition_nodes_follow_the_document_rows(self, branchy_nfa):
        # one canonical order: each cyclic component's transition nodes
        # come in the row order of its canonical document
        for a in [branchy_nfa] + [random_automaton(seed, max_states=10, costs="mixed") for seed in range(30)]:
            parts = scc(a)
            for states, loop_free in zip(parts.components, parts.is_singleton_without_loop):
                if loop_free:
                    continue
                sub = induced(a, states)
                rows = automaton_to_document(sub)["transitions"]
                nodes = gurevich_matrix_bipartite(sub).labels[len(sub.state_names) :]
                assert nodes == tuple(f"{t['from']}-{t['symbol']}->{t['to']}" for t in rows)


class TestCompactMatrix:
    def test_two_cycle(self, two_cycle):
        m = gurevich_matrix_compact(two_cycle)
        idx = {label: i for i, label in enumerate(m.labels)}
        expected = np.zeros((2, 2))
        expected[idx["B"], idx["C"]] = math.e**2
        expected[idx["C"], idx["B"]] = math.e**5
        assert np.allclose(m.entries, expected)

    def test_self_loop_sum(self):
        a = aut(["a", "b", "c"], ["A"], "A", ["A"],
                [("A", "a", "A"), ("A", "b", "A"), ("A", "c", "A")])
        m = gurevich_matrix_compact(a)
        assert m.entries.tolist() == [[3.0]]

    def test_branchy_zero_cost_rows(self, branchy_nfa):
        m = gurevich_matrix_compact(branchy_nfa.with_costs(0.0 * branchy_nfa.cost))
        idx = {label: i for i, label in enumerate(m.labels)}
        row_a = m.entries[idx["A"]]
        assert row_a.sum() == 4.0  # three unit a-edges plus one b-edge
        assert sorted(row_a.tolist()) == [0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
        row_f = m.entries[idx["F"]]
        assert row_f.sum() == 2.0

    def test_error_paths(self):
        with pytest.raises(NotStronglyConnected, match="^component is empty$"):
            gurevich_matrix_compact(EMPTY)
        with pytest.raises(NotStronglyConnected, match="^component has no transitions$"):
            gurevich_matrix_compact(aut(["a"], ["A"], "A", ["A"], []))
        with pytest.raises(Overflow, match=r"^e\^800\.0 exceeds the double range"):
            gurevich_matrix_compact(aut(["a"], ["A"], "A", ["A"], [("A", "a", "A", 800.0)]))
        with pytest.raises(ValueError, match="^unknown form 'x'$"):
            free_energy(EMPTY, form="x")


class TestComponentEnergy:
    def test_two_cycle_both_forms(self, two_cycle):
        assert abs(free_energy(two_cycle, "compact").energy - 3.5) < 1e-9
        assert abs(free_energy(two_cycle, "bipartite").energy - 3.5) < 1e-9

    def test_singleton_without_loop(self):
        a = aut(["a"], ["A"], "A", ["A"], [])
        assert free_energy(a, "compact").energy == 0.0
        assert free_energy(a, "bipartite").energy == 0.0

    def test_three_self_loops(self):
        a = aut(["a", "b", "c"], ["A"], "A", ["A"],
                [("A", "a", "A"), ("A", "b", "A"), ("A", "c", "A")])
        assert abs(free_energy(a, "compact").energy - math.log(3)) < 1e-9


class TestFreeEnergy:
    def test_branchy_with_branching_costs(self, branchy_nfa):
        rep = free_energy(branching_costs(branchy_nfa))
        assert abs(rep.energy - 1.0850) <= 1e-3

    def test_branchy_zero_cost(self, branchy_nfa):
        rep = free_energy(branchy_nfa.with_costs(0.0 * branchy_nfa.cost))
        assert abs(rep.energy - 0.5857) <= 1e-3

    def test_first_reference_machine_energy(self, dna_m1):
        # Derived in conftest from the machine's 1-2-1 / 1-3-1 / 2-4-2 /
        # 1-2-4-3-1 cycles; confirmed by the run-series oracle in test_oracle.
        rep = free_energy(dna_m1)
        assert abs(rep.energy - DNA_M1_ENERGY) <= 1e-3

    def test_second_reference_machine_energy(self, dna_m2):
        rep = free_energy(dna_m2)
        assert abs(rep.energy - 1.4087) <= 1e-3

    def test_empty_energy_zero(self):
        a = aut(["a"], ["A", "B"], "A", ["B"], [("B", "a", "B")])  # trims to nothing
        rep = free_energy(a)
        assert rep.energy == 0.0
        assert rep.per_component == ()
        assert rep.trim_changed

    def test_empty_reports(self):
        # the empty value and a document whose names are all undeclared have
        # nothing to trim; an automaton whose states are all dead has
        undeclared = CostAutomaton.create([], [], "q", ["r"], [])
        dead = aut(["a"], ["A", "B"], "A", ["B"], [("B", "a", "B")])
        for a, changed in ((EMPTY, False), (undeclared, False), (dead, True)):
            for form in ("compact", "bipartite"):
                rep = free_energy(a, form)
                assert (rep.energy, rep.per_component, rep.solver) == (0.0, (), ())
                assert (rep.form_used, rep.max_component, rep.trim_changed) == (form, None, changed)

    def test_zero_iterations_not_converged(self, ab_cycle_machine):
        with pytest.raises(NotConverged, match="after 0 iterations"):
            free_energy(ab_cycle_machine, max_iterations=0)

    def test_untrimmed_input_reports_as_trimmed(self):
        # the dead state D hangs off the 2-cycle; the report matches the one
        # on the trimmed automaton apart from trim_changed
        a = aut(
            ["a", "b"], ["A", "B", "C", "D"], "A", ["A"],
            [("A", "a", "B", 0.3), ("B", "b", "A", 0.1), ("A", "b", "C", 0.0),
             ("C", "a", "C", 0.7), ("C", "b", "A", 0.0), ("B", "a", "D", 2.0)],
        )
        rep, ref = free_energy(a), free_energy(trim(a))
        assert rep.trim_changed and not ref.trim_changed
        assert rep.per_component == ref.per_component
        assert rep.max_component == ref.max_component
        assert rep.energy == ref.energy

    def test_max_component_recorded(self, ab_cycle_machine):
        rep = free_energy(ab_cycle_machine)
        assert abs(rep.energy - 3.5) < 1e-9
        assert rep.max_component is not None
        states, energy = rep.per_component[rep.max_component]
        assert states == frozenset({"P", "Q"})
        assert abs(energy - 3.5) < 1e-9
        # the loop-free entry singleton carries 0 and no solver result
        flags = dict(zip((s for s, _ in rep.per_component), rep.solver))
        assert flags[frozenset({"S"})] is None


class TestInvariants:
    def test_form_agreement(self, branchy_nfa, dna_m1, dna_m2):
        fixtures = [branching_costs(branchy_nfa), dna_m1, dna_m2] + [
            random_strongly_connected(seed) for seed in range(8)
        ]
        for a in fixtures:
            c = free_energy(a, form="compact").energy
            b = free_energy(a, form="bipartite").energy
            assert abs(c - b) <= 1e-8

    @pytest.mark.parametrize("c", [-1.0, 0.5, 3.0])
    def test_cost_shift(self, c, dna_m1):
        fixtures = [dna_m1] + [random_strongly_connected(seed) for seed in range(4)]
        for a in fixtures:
            base = free_energy(a).energy
            shifted = free_energy(a.with_costs(a.cost + c)).energy
            assert abs(shifted - (base + c)) <= 1e-8

    def test_complete_one_state_alphabet_size(self):
        for s in (1, 2, 5):
            syms = [chr(ord("a") + i) for i in range(s)]
            a = aut(syms, ["A"], "A", ["A"], [("A", x, "A") for x in syms])
            assert abs(free_energy(a).energy - math.log(s)) <= 1e-9

    def test_variational_principle_at_200(self):
        fixtures = [random_strongly_connected(seed) for seed in range(10)]
        for a in fixtures:
            energy = free_energy(a).energy
            series = run_partition_series(a, "runs_accepting", 201)
            w = dict(series.values)
            total = w[200] + w[201]
            assert total > 0.0
            assert abs(math.log(total) / 200 - energy) <= 0.05

    def test_all_accepting_plain_form(self):
        fixtures = [all_accepting(random_strongly_connected(seed)) for seed in range(5)]
        for a in fixtures:
            energy = free_energy(a).energy
            series = run_partition_series(a, "runs_accepting", 200)
            z = dict(series.values)[200]
            assert z > 0.0
            assert abs(math.log(z) / 200 - energy) <= 0.05

    def test_renaming_invariance(self, branchy_nfa):
        a = branching_costs(branchy_nfa)
        mapping = {s: f"state_{s.lower()}" for s in a.states}
        renamed = CostAutomaton.create(
            sorted(a.alphabet),
            [mapping[s] for s in sorted(a.states)],
            mapping[a.initial],
            [mapping[s] for s in sorted(a.accepting)],
            [(mapping[t.source], t.symbol, mapping[t.target], t.cost) for t in a.transitions],
        )
        assert abs(free_energy(renamed).energy - free_energy(a).energy) <= 1e-10


class TestExtremeCosts:
    @pytest.mark.parametrize("c", [0.0, -10.0, -20.0, -30.0, -40.0])
    def test_low_energy_chord_cycle(self, c):
        # a certificate on radius + 1 rather than the radius stalled at
        # c = -10 and -20, accepted -29.5948 at c = -30 and reached ln 0 at -40
        rep = free_energy(chord_cycle(10, c))
        assert abs(rep.energy - (c + chord_log_root(10))) <= 1e-9

    @pytest.mark.parametrize("form", ["compact", "bipartite"])
    @pytest.mark.parametrize("c", [800.0, -800.0, 705.0, -705.0])
    def test_costs_past_the_double_range(self, c, form):
        rep = free_energy(chord_cycle(12, c), form=form)
        assert abs(rep.energy - (c + chord_log_root(12))) <= 1e-9

    def test_shift_only_out_of_range(self):
        # the solver sees e^(V - shift): the shifted component's radius is r
        # itself, an in-range one's is e^E
        r = math.exp(chord_log_root(12))
        shifted = free_energy(chord_cycle(12, -800.0))
        assert abs(shifted.solver[0].radius - r) <= 1e-9 * r
        for c in (-600.0, 0.0, 600.0):
            plain = free_energy(chord_cycle(12, c))
            radius = plain.solver[0].radius
            assert abs(radius - math.exp(plain.energy)) <= 1e-9 * radius

    def test_cost_shift_beyond_the_range(self, dna_m1):
        base = free_energy(dna_m1).energy
        for c in (-1000.0, 1000.0):
            shifted = free_energy(dna_m1.with_costs(dna_m1.cost + c)).energy
            assert abs(shifted - (base + c)) <= 1e-9 * abs(c)


class TestCyclicComponentsOnly:
    @pytest.mark.parametrize("form", ["compact", "bipartite"])
    def test_loop_free_entry_does_not_win(self, form):
        # s -a-> p, p -b-> p at cost -1: the one cycle sets the energy, not
        # the conventional 0 of the loop-free entry state
        a = aut(["a", "b"], ["s", "p"], "s", ["p"], [("s", "a", "p", 0.0), ("p", "b", "p", -1.0)])
        rep = free_energy(a, form=form)
        assert abs(rep.energy + 1.0) <= 1e-9
        assert rep.per_component[rep.max_component][0] == frozenset({"p"})
        series = run_partition_series(a, "runs_accepting", 300)
        sums = dict(series.values)
        assert abs(math.log(sums[300] / sums[299]) - rep.energy) <= 1e-9
        estimate, _ = estimate_limit(series, 10)
        assert abs(estimate - rep.energy) <= 5e-3

    @pytest.mark.parametrize("form", ["compact", "bipartite"])
    def test_finite_language_is_zero(self, form):
        a = aut(["a", "b"], ["s", "p", "q"], "s", ["q"],
                [("s", "a", "p", -2.0), ("p", "b", "q", -3.0), ("s", "b", "q", 4.0)])
        rep = free_energy(a, form=form)
        assert rep.energy == 0.0
        assert rep.solver == (None, None, None)
        assert rep.max_component == 0


def straddling_automaton(seed: int, offset: float) -> CostAutomaton:
    """A loop-free entry state, then three strongly connected blocks of
    20-60, 140-180 and 200-300 states in shuffled order, each linked to the
    next by one edge.  Costs are offset + U(-1, 1), so the compact matrices
    of the blocks fall on both sides of the dense dimension."""
    rng = random.Random(seed)
    sizes = [rng.randint(20, 60), rng.randint(140, 180), rng.randint(200, 300)]
    rng.shuffle(sizes)
    transitions = {}
    firsts, base = [], 0
    for size in sizes:
        block = [f"b{base + i}" for i in range(size)]
        for i in range(size):
            transitions[(block[i], "a", block[(i + 1) % size])] = None
        for _ in range(2 * size):
            transitions[(rng.choice(block), rng.choice("abc"), rng.choice(block))] = None
        if firsts:
            transitions[(f"b{base - 1}", "c", block[0])] = None
        firsts.append(block[0])
        base += size
    transitions[("in", "a", firsts[0])] = None
    states = ["in"] + [f"b{i}" for i in range(base)]
    return aut(["a", "b", "c"], states, "in", states,
               [(p, x, q, offset + rng.uniform(-1.0, 1.0)) for (p, x, q) in transitions])


class TestSparsePathAgreement:
    @pytest.mark.parametrize("form", ["compact", "bipartite"])
    @pytest.mark.parametrize("offset", [0.0, 800.0, -800.0])
    def test_matches_public_dense_builders(self, monkeypatch, form, offset):
        batches = []

        def batch_spy(dims, *args):
            batches.append(list(dims))
            return block_radii(dims, *args)

        monkeypatch.setattr(energy_mod, "block_radii", batch_spy)
        build, steps = {
            "compact": (gurevich_matrix_compact, 1.0),
            "bipartite": (gurevich_matrix_bipartite, 2.0),
        }[form]
        for seed in range(2):
            a = straddling_automaton(seed, offset)
            rep = free_energy(a, form=form, tolerance=1e-13)
            assert len(rep.per_component) == 4
            for (states, energy), result in zip(rep.per_component, rep.solver):
                if result is None:
                    assert states == frozenset({"in"}) and energy == 0.0
                    continue
                sub = induced(a, states)
                shift = 0.0 if offset == 0.0 else max(t.cost for t in sub.transitions)
                want = spectral_radius(build(sub.with_costs(sub.cost - shift)), 1e-13)
                want_energy = steps * math.log(want.radius) + shift
                assert abs(energy - want_energy) <= 1e-12 * max(1.0, abs(want_energy))
        # one batch per call, with blocks above the dense dimension in both
        # forms and blocks below it too in compact form
        assert [len(dims) for dims in batches] == [3, 3]
        assert all(max(dims) > spectral_mod._DENSE_DIM for dims in batches)
        if form == "compact":
            assert all(min(dims) <= spectral_mod._DENSE_DIM for dims in batches)

    def test_component_order_matches_scc(
        self, branchy_nfa, dna_m1, dna_m2, ab_cycle_machine, single_cycle
    ):
        fixtures = [branchy_nfa, dna_m1, dna_m2, ab_cycle_machine, single_cycle] + [
            random_automaton(seed, max_states=10, costs="mixed") for seed in range(30)
        ]
        for a in fixtures:
            parts = scc(trim(a))
            cyclic = [i for i, flag in enumerate(parts.is_singleton_without_loop) if not flag]
            for form in ("compact", "bipartite"):
                rep = free_energy(a, form=form)
                assert tuple(states for states, _ in rep.per_component) == parts.components
                assert [r is None for r in rep.solver] == list(parts.is_singleton_without_loop)
                energies = [rep.per_component[i][1] for i in cyclic]
                best = cyclic[energies.index(max(energies))] if cyclic else 0
                assert rep.max_component == best


class TestBatchedComponents:
    """Every cyclic component is one block of one batched sweep; each must
    come out as its own solve on the public dense builder would."""

    @pytest.fixture
    def solved(self, monkeypatch):
        """The block sizes of each batch that free_energy hands to
        block_radii, and the shapes of the systems that splu factors."""
        import scipy.sparse.linalg

        calls = {"batch": [], "splu": []}

        def batch(dims, *args):
            calls["batch"].append(list(dims))
            return block_radii(dims, *args)

        def splu(b):
            calls["splu"].append(b.shape)
            return real_splu(b)

        real_splu = scipy.sparse.linalg.splu
        monkeypatch.setattr(energy_mod, "block_radii", batch)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
        return calls

    @pytest.mark.parametrize("form", ["compact", "bipartite"])
    def test_each_block_matches_its_own_solve(self, solved, form):
        a = many_components()
        rep = free_energy(a, form=form, tolerance=1e-13)
        build, steps = {
            "compact": (gurevich_matrix_compact, 1.0),
            "bipartite": (gurevich_matrix_bipartite, 2.0),
        }[form]
        sizes = []
        for (states, energy), result in zip(rep.per_component, rep.solver):
            if result is None:
                assert len(states) == 1 and energy == 0.0
                continue
            assert result.converged and result.residual <= 1e-13
            sub = induced(a, states)
            top = max(t.cost for t in sub.transitions)
            shift = top if abs(top) > 700.0 else 0.0
            want = spectral_radius(build(sub.with_costs(sub.cost - shift)), 1e-13)
            want_energy = steps * math.log(want.radius) + shift
            assert abs(energy - want_energy) <= 1e-12 * max(1.0, abs(want_energy))
            if len(states) in (40, 170):
                assert result.method == "noda"  # stalled, then Noda steps
            if len(states) == 1 and form == "compact":
                assert result.iterations == 1  # a 1x1 block certifies on its first sweep
            sizes.append(len(states))
        assert sorted(sizes) == sorted([1] * 4 + [2] * 4 + [3] * 6 + [40, 170])
        # one batch holds every cyclic component, the ring among them; only
        # the ring is above the dense size, so only its Noda steps use splu
        (dims,) = solved["batch"]
        assert len(dims) == len(sizes)
        (ring,) = [d for d in dims if d > spectral_mod._DENSE_DIM]
        assert ring >= 170
        assert solved["splu"] and set(solved["splu"]) == {(ring, ring)}

    @pytest.mark.parametrize("form", ["compact", "bipartite"])
    def test_order_matches_scc(self, form):
        a = many_components()
        parts = scc(trim(a))
        rep = free_energy(a, form=form)
        assert tuple(states for states, _ in rep.per_component) == parts.components
        assert [r is None for r in rep.solver] == list(parts.is_singleton_without_loop)
        cyclic = [i for i, r in enumerate(rep.solver) if r is not None]
        energies = [rep.per_component[i][1] for i in cyclic]
        assert rep.max_component == cyclic[energies.index(max(energies))]
        assert len(rep.per_component[rep.max_component][0]) == 3  # the +800 block

    def test_starved_batch_names_the_first_unconverged_component(self):
        a = many_components()
        rep = free_energy(a)
        first = next(
            len(states)
            for (states, _), r in zip(rep.per_component, rep.solver)
            if r is not None and len(states) > 1
        )
        with pytest.raises(NotConverged, match=rf"after 1 iterations \(component of {first} states"):
            free_energy(a, max_iterations=1)


class TestStructureOncePerGraph:
    """Each graph a command solves is trimmed once and split by Tarjan
    once, through ``automata.scc`` (the name the benchmark tracer times),
    and all of the command's energies share one batched solve.  Counts are
    (trims, Tarjan runs, scc calls, batched solves)."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = collections.Counter()

        def count(module, name):
            real = getattr(module, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        count(automata_mod, "trim")
        count(automata_mod, "tarjan")
        count(automata_mod, "scc")
        count(energy_mod, "block_radii")
        return lambda: (calls["trim"], calls["tarjan"], calls["scc"], calls["block_radii"])

    def test_free_energy(self, counted, branchy_nfa):
        free_energy(branchy_nfa)
        assert counted() == (1, 1, 1, 1)

    def test_lambda_plus(self, counted, branchy_nfa):
        lambda_plus(branchy_nfa)
        assert counted() == (1, 1, 1, 1)

    def test_lambda_exact(self, counted, branchy_nfa):
        # the input, determinize's result, and lambda_plus's own clean-up;
        # the input and the DFA are solved apart, since the DFA is built first
        lambda_exact(branchy_nfa)
        assert counted() == (3, 2, 2, 2)

    def test_similarity(self, counted, dna_m1, dna_m2):
        # the two inputs and the product, whose clean-up is product's own
        similarity(dna_m1, dna_m2)
        assert counted() == (3, 3, 3, 1)

    def test_energy_command_with_branching_costs(self, counted, tmp_path, capsys, branchy_nfa):
        path = str(tmp_path / "m.json")
        save_document(path, automaton_to_document(branchy_nfa))
        assert main(["energy", path, "--branching-costs"]) == 0
        capsys.readouterr()
        assert counted() == (1, 1, 1, 1)


class TestCycleMeanBracket:
    # mu <= E <= mu + ln d on each cyclic component: its largest cycle mean
    # bounds the radius from below, and d e^mu bounds the row sums of the
    # matrix under a potential that makes every edge's reduced cost at most mu
    FIXTURES = ["branchy_nfa", "dna_m1", "dna_m2", "single_cycle", "ab_star", "ab_cycle_machine"]

    @pytest.mark.parametrize("form", ["compact", "bipartite"])
    def test_fixtures(self, request, form):
        machines = [request.getfixturevalue(name) for name in self.FIXTURES]
        machines += [chord_cycle(40, 0.3), many_components(), colliding_dfa(), wide_ring(60, 7)]
        machines += [random_automaton(seed, costs="mixed") for seed in range(20)]
        machines += [random_strongly_connected(seed) for seed in range(10)]
        for a in machines:
            for mean, energy, top in cycle_mean_brackets(a, form):
                assert mean - 1e-9 <= energy <= top + 1e-9
