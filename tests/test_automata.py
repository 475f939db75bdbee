import itertools

import pytest

from gurevich import (
    EMPTY,
    CostAutomaton,
    accepts,
    determinize,
    free_energy,
    lambda_exact,
    product,
    scc,
    trim,
    validate,
)

from conftest import DNA_PRODUCT_EDGES, aut, enum_accepting_runs, random_automaton


def name_tarjan(a):
    """Recursive Tarjan on state names: roots tried in sorted order, each
    state's successors in sorted order, components ordered by the discovery
    index of their root."""
    succ = {s: sorted({t.target for t in a.transitions if t.source == s}) for s in a.states}
    index, low, stack, found = {}, {}, [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        for w in succ[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = set()
            while True:
                w = stack.pop()
                comp.add(w)
                if w == v:
                    break
            found.append((index[v], frozenset(comp)))

    for s in sorted(a.states):
        if s not in index:
            visit(s)
    return tuple(comp for _, comp in sorted(found, key=lambda item: item[0]))


def words_up_to(alphabet, n):
    for k in range(n + 1):
        yield from itertools.product(sorted(alphabet), repeat=k)


class TestValidate:
    def test_branchy_nfa_ok(self, branchy_nfa):
        assert validate(branchy_nfa) == []

    def test_unknown_initial(self):
        a = CostAutomaton.create(["a"], ["X"], "Y", ["X"], [("X", "a", "X")])
        problems = validate(a)
        assert any("unknown initial" in p for p in problems)

    def test_duplicate_transition(self):
        a = CostAutomaton.create(
            ["a"], ["A", "B"], "A", ["B"],
            [("A", "a", "B", 0.0), ("A", "a", "B", 1.0)],
        )
        problems = validate(a)
        assert any("duplicate transition" in p for p in problems)

    def test_unknown_symbol_and_state(self):
        a = CostAutomaton.create(["a"], ["A"], "A", ["A"], [("A", "z", "A")])
        assert any("z" in p for p in validate(a))
        b = CostAutomaton.create(["a"], ["A"], "A", ["A"], [("A", "a", "Q")])
        assert any("Q" in p for p in validate(b))


class TestTrim:
    def test_branchy_nfa_unchanged(self, branchy_nfa):
        assert trim(branchy_nfa) is branchy_nfa

    def test_unreachable_state_removed(self, branchy_nfa):
        extra = CostAutomaton.create(
            sorted(branchy_nfa.alphabet),
            sorted(branchy_nfa.states) + ["X"],
            "A",
            sorted(branchy_nfa.accepting),
            list(branchy_nfa.transitions) + [("X", "a", "A")],
        )
        assert trim(extra).states == branchy_nfa.states

    def test_dead_end_removed(self):
        a = aut(
            ["a"], ["A", "B", "D"], "A", ["B"],
            [("A", "a", "B"), ("A", "a", "D")],  # D is a non-accepting sink
        )
        t = trim(a)
        assert "D" not in t.states
        assert t.states == {"A", "B"}

    def test_idempotent(self):
        for seed in range(25):
            a = random_automaton(seed)
            once = trim(a)
            twice = trim(once)
            assert twice.states == once.states
            assert twice.transitions == once.transitions

    def test_nothing_survives_gives_empty(self):
        a = aut(["a"], ["A", "B"], "A", ["B"], [("B", "a", "B")])
        t = trim(a)
        assert t.is_empty
        assert t == EMPTY

    def test_language_preserved(self):
        for seed in range(15):
            a = random_automaton(seed)  # already trimmed inside the builder
            raw = CostAutomaton.create(
                sorted(a.alphabet),
                sorted(a.states) + ["padX"],
                a.initial,
                sorted(a.accepting),
                list(a.transitions) + [("padX", sorted(a.alphabet)[0], "padX")],
            )
            t = trim(raw)
            for w in words_up_to(a.alphabet, 5):
                assert accepts(raw, w) == accepts(t, w)


class TestScc:
    def test_branchy_nfa_single_component(self, branchy_nfa):
        parts = scc(branchy_nfa)
        assert len(parts.components) == 1
        assert parts.components[0] == frozenset("ABCDEF")
        assert parts.is_singleton_without_loop == (False,)

    def test_entry_plus_cycle(self, ab_cycle_machine):
        parts = scc(ab_cycle_machine)
        comps = {frozenset(c) for c in parts.components}
        assert comps == {frozenset({"S"}), frozenset({"P", "Q"})}
        flags = dict(zip(parts.components, parts.is_singleton_without_loop))
        assert flags[frozenset({"S"})] is True
        assert flags[frozenset({"P", "Q"})] is False

    def test_single_state_no_transitions(self):
        a = aut(["a"], ["A"], "A", ["A"], [])
        parts = scc(a)
        assert parts.components == (frozenset({"A"}),)
        assert parts.is_singleton_without_loop == (True,)

    def test_self_loop_not_flagged(self):
        a = aut(["a"], ["A"], "A", ["A"], [("A", "a", "A")])
        assert scc(a).is_singleton_without_loop == (False,)

    def test_partition_and_mutual_reachability(self):
        for seed in range(20):
            a = random_automaton(seed)
            parts = scc(a)
            union = set()
            for comp in parts.components:
                assert not (union & comp)
                union |= comp
            assert union == set(a.states)
            reach = {s: {s} for s in a.states}
            for _ in a.states:
                for t in a.transitions:
                    for s in a.states:
                        if t.source in reach[s]:
                            reach[s].add(t.target)
            for comp in parts.components:
                for x in comp:
                    for y in comp:
                        assert y in reach[x] and x in reach[y]

    def test_discovery_order_matches_name_tarjan(self, branchy_nfa, dna_m1, dna_m2, ab_cycle_machine):
        fixtures = [branchy_nfa, dna_m1, dna_m2, ab_cycle_machine] + [
            random_automaton(seed, max_states=12, costs="mixed") for seed in range(40)
        ]
        for a in fixtures:
            assert scc(a).components == name_tarjan(a)

    def test_condensation_acyclic(self):
        for seed in range(20):
            a = random_automaton(seed)
            parts = scc(a)
            edges: dict[int, set[int]] = {i: set() for i in range(len(parts.components))}
            for t in a.transitions:
                ci, cj = parts.component_of[t.source], parts.component_of[t.target]
                if ci != cj:
                    edges[ci].add(cj)
            # Kahn's algorithm must consume every node
            indeg = {i: 0 for i in edges}
            for targets in edges.values():
                for j in targets:
                    indeg[j] += 1
            queue = [i for i, d in indeg.items() if d == 0]
            seen = 0
            while queue:
                i = queue.pop()
                seen += 1
                for j in edges[i]:
                    indeg[j] -= 1
                    if indeg[j] == 0:
                        queue.append(j)
            assert seen == len(parts.components)


class TestDeterminize:
    def test_branchy_language_agreement(self, branchy_nfa):
        d = determinize(branchy_nfa)
        assert d.deterministic
        for w in words_up_to(branchy_nfa.alphabet, 8):
            assert accepts(branchy_nfa, w) == accepts(d, w)

    def test_costs_all_zero(self, branchy_nfa):
        d = determinize(branchy_nfa)
        assert all(t.cost == 0.0 for t in d.transitions)

    def test_already_deterministic_same_size(self, ab_star):
        d = determinize(ab_star)
        assert d.deterministic
        assert len(d.states) == len(trim(ab_star).states)
        for w in words_up_to(ab_star.alphabet, 8):
            assert accepts(ab_star, w) == accepts(d, w)

    def test_branching_initial_moves(self):
        a = aut(
            ["a", "b"], ["i", "x", "y"], "i", ["x", "y"],
            [("i", "a", "x"), ("i", "a", "y"), ("x", "b", "i"), ("y", "a", "i")],
        )
        d = determinize(a)
        assert d.deterministic
        for w in words_up_to(a.alphabet, 8):
            assert accepts(a, w) == accepts(d, w)

    def test_corpus_agreement(self):
        for seed in range(12):
            a = random_automaton(seed)
            d = determinize(a)
            assert d.deterministic
            for w in words_up_to(a.alphabet, 6):
                assert accepts(a, w) == accepts(d, w)

    def test_corpus_outputs_are_deterministic(self):
        # the corpora that the oracle, langcost and acceptance tests determinize
        for seed in range(40):
            for a in (
                random_automaton(seed, max_states=4, costs="zero"),
                random_automaton(200 + seed, max_states=12, costs="zero"),
            ):
                d = determinize(a)
                assert d.deterministic
                assert validate(d) == []

    def test_subset_names_do_not_collide(self):
        # the subset {p, q} and the singleton {"p,q"} would both be "{p,q}"
        def nfa(r):
            return aut(
                ["a", "b"], ["p", "q", r], "p", ["p", "q", r],
                [("p", "a", "p"), ("p", "a", "q"), ("q", "b", r), (r, "a", "p")],
            )

        d = determinize(nfa("p,q"))
        assert d.deterministic
        assert len(d.states) == 3 == len(determinize(nfa("r")).states)
        assert "{p,q}" in d.states  # separator-free members keep the plain name
        for w in words_up_to(["a", "b"], 7):
            assert accepts(d, w) == accepts(nfa("p,q"), w)
        rep = lambda_exact(nfa("p,q"))
        assert rep.dfa_states == 3
        # every word has exactly one run, so runs and words grow alike
        assert rep.lambda_exact_raw == pytest.approx(0.0, abs=1e-9)


class TestProduct:
    def test_dna_pair_edge_for_edge(self, dna_m1, dna_m2):
        p = product(dna_m1, dna_m2)
        got = {(t.source, t.symbol, t.target, round(t.cost, 9)) for t in p.transitions}
        assert got == DNA_PRODUCT_EDGES
        assert p.initial == "1|5"
        assert p.accepting == {"2|6", "3|6"}

    def test_self_product_of_dfa_isomorphic(self, ab_star):
        p = product(ab_star, ab_star)
        t = trim(ab_star)
        assert len(p.states) == len(t.states)
        assert len(p.transitions) == len(t.transitions)
        for w in words_up_to(ab_star.alphabet, 8):
            assert accepts(p, w) == accepts(ab_star, w)

    def test_disjoint_alphabets_empty(self):
        # initials are non-accepting so neither language contains the empty
        # word; the intersection is genuinely empty
        a = aut(["a"], ["A0", "A1"], "A0", ["A1"], [("A0", "a", "A1"), ("A1", "a", "A1")])
        b = aut(["b"], ["B0", "B1"], "B0", ["B1"], [("B0", "b", "B1"), ("B1", "b", "B1")])
        assert product(a, b).is_empty

    def test_shared_epsilon_only(self):
        # both accept the empty word: the product keeps exactly that
        a = aut(["a"], ["A"], "A", ["A"], [("A", "a", "A")])
        b = aut(["b"], ["B"], "B", ["B"], [("B", "b", "B")])
        p = product(a, b)
        assert accepts(p, ())
        assert p.transitions == ()

    def test_language_intersection(self):
        for s1, s2 in [(0, 1), (2, 3), (4, 7), (8, 11)]:
            a1, a2 = random_automaton(s1), random_automaton(s2)
            p = product(a1, a2)
            shared = a1.alphabet | a2.alphabet
            for w in words_up_to(shared, 6):
                assert accepts(p, w) == (accepts(a1, w) and accepts(a2, w))

    def test_pair_names_do_not_collide(self):
        # the pairs (x|y, z) and (x, y|z) would both be "x|y|z"
        def pair(left, right):
            a1 = aut(["a"], ["x", left], "x", ["x", left], [("x", "a", left, 1.0), (left, "a", "x", 2.0)])
            a2 = aut(["a"], ["z", right], right, ["z", right], [(right, "a", "z", 0.5), ("z", "a", right, 0.25)])
            return product(a1, a2)

        p = pair("x|y", "y|z")
        assert validate(p) == []
        assert len(p.states) == 2 == len(pair("w", "v").states)
        assert free_energy(p).energy == pytest.approx(free_energy(pair("w", "v")).energy, abs=1e-12)
        assert free_energy(p).energy == pytest.approx((1.5 + 2.25) / 2, abs=1e-12)

    def test_cost_additivity(self, dna_m1, dna_m2):
        p = product(dna_m1, dna_m2)
        for w in words_up_to(p.alphabet, 6):
            for run, cost in enum_accepting_runs(p, w):
                left = [s.split("|")[0] for s in run]
                right = [s.split("|")[1] for s in run]
                c1 = _run_cost(dna_m1, left, w)
                c2 = _run_cost(dna_m2, right, w)
                assert abs(cost - (c1 + c2)) < 1e-9


def _run_cost(a: CostAutomaton, states, word) -> float:
    total = 0.0
    for i, sym in enumerate(word):
        match = [
            t for t in a.by_source.get(states[i], ())
            if t.symbol == sym and t.target == states[i + 1]
        ]
        assert len(match) == 1
        total += match[0].cost
    return total


class TestEmptyValue:
    def test_empty_constant(self):
        assert EMPTY.is_empty
        assert EMPTY.states == frozenset()
        assert validate(EMPTY) == []

    def test_trim_of_empty(self):
        assert trim(EMPTY).is_empty
