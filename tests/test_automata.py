import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gurevich import (
    EMPTY,
    CostAutomaton,
    StateCapExceeded,
    accepts,
    automaton_to_document,
    count_series,
    determinize,
    free_energy,
    lambda_exact,
    product,
    scc,
    trim,
    validate,
)
from gurevich import automata
from gurevich.automata import rows

from conftest import (
    DNA_PRODUCT_EDGES,
    aut,
    edges_by_source,
    enum_accepting_runs,
    random_automaton,
    reference_trim,
)


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


def random_graph(rng, n):
    """Random automaton on n states s00, s01, ...: self-loops, isolated
    states (no edge at all) and states that trim removes."""
    states = [f"s{i:02d}" for i in range(n)]
    wired = [q for q in states if rng.random() < 0.8] or states[:1]
    edges = set()
    for _ in range(rng.randint(0, 3 * n)):
        p = rng.choice(wired)
        q = p if rng.random() < 0.15 else rng.choice(wired)
        edges.add((p, rng.choice("ab"), q))
    accepting = rng.sample(states, rng.randint(0, min(n, 3)))
    return aut(
        ["a", "b"], states, rng.choice(states), accepting,
        [(p, y, q, round(rng.uniform(-1.0, 1.0), 3)) for p, y, q in sorted(edges)],
    )


def naive_determinize(a):
    """Subset construction over names: subsets are frozensets, symbols are
    tried in sorted order, and the result is trimmed by the library."""
    succ = {}
    for t in a.transitions:
        succ.setdefault((t.source, t.symbol), set()).add(t.target)

    def name(subset):
        return "{" + ",".join(sorted(subset)) + "}"

    start = frozenset([a.initial])
    seen, todo, edges = {start}, [start], []
    while todo:
        current = todo.pop()
        for y in sorted(a.alphabet):
            nxt = frozenset(q for p in current for q in succ.get((p, y), ()))
            if nxt:
                edges.append((name(current), y, name(nxt), 0.0))
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    accepting = [name(s) for s in seen if s & a.accepting]
    return trim(aut(sorted(a.alphabet), [name(s) for s in seen], name(start), accepting, edges))


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

    def test_error_paths(self):
        def problems(*args):
            return validate(CostAutomaton.create(*args))

        assert problems(["a"], [], "q", ["r"], [("x", "a", "y")]) == [
            "unknown initial 'q' (zero-state automaton)",
            "accepting states present in zero-state automaton",
            "transitions present in zero-state automaton",
        ]
        assert problems(["a b"], ["p q"], "p q", [], []) == [
            "bad state name 'p q'", "bad symbol name 'a b'",
        ]
        # names that are not str are reported like blank ones, not split
        assert problems(["a"], [1, 2], 1, [], [(1, "a", 2)]) == ["bad state name 1", "bad state name 2"]
        assert problems([3], ["p"], "p", [], [("p", 3, "p")]) == ["bad symbol name 3"]
        assert problems(["a"], ["p"], None, [], []) == ["missing initial state"]
        assert problems(["a"], ["p"], "p", ["z"], []) == ["unknown accepting state 'z'"]
        assert problems(["a"], ["p"], "p", [], [("z", "a", "p")]) == [
            "transition from unknown state 'z'",
        ]


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

    def test_all_accepting_groups_edges_once(self, branchy_nfa, monkeypatch):
        # every state accepts, so the backward pass's seeds cover every
        # state and only the forward pass groups the edges
        a = aut(
            sorted(branchy_nfa.alphabet), sorted(branchy_nfa.states), "A",
            sorted(branchy_nfa.states), list(branchy_nfa.transitions),
        )
        calls = []

        def counting(*args):
            calls.append(args[0])
            return rows(*args)

        monkeypatch.setattr(automata, "rows", counting)
        assert trim(a) is a
        assert calls == [6]

    def test_live_states_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 30))
            every = aut(
                sorted(g.alphabet), sorted(g.states), g.initial, sorted(g.states),
                list(g.transitions),
            )
            for a in (g, every):
                reach, coreach = {a.initial}, set(a.accepting)
                for _ in a.states:
                    reach |= {t.target for t in a.transitions if t.source in reach}
                    coreach |= {t.source for t in a.transitions if t.target in coreach}
                expected = [q in reach & coreach for q in a.state_names]
                assert automata.live_states(a).tolist() == expected


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

    def test_discovery_order_on_random_graphs(self):
        rng = random.Random(7)
        # a chain of 2-cycles, each leading into the next: 200 components,
        # within name_tarjan's recursion depth
        pairs = [(f"c{i:03d}", f"d{i:03d}") for i in range(200)]
        chain_edges = [(c, "a", d) for c, d in pairs] + [(d, "a", c) for c, d in pairs]
        chain_edges += [(pairs[i][1], "b", pairs[i + 1][0]) for i in range(len(pairs) - 1)]
        chain_states = [q for pair in pairs for q in pair]
        chain = aut(["a", "b"], chain_states, "c000", ["d199"], chain_edges)
        for a in [random_graph(rng, rng.randint(1, 40)) for _ in range(300)] + [chain]:
            parts = scc(a)
            assert parts.components == name_tarjan(a)
            looped = {t.source for t in a.transitions if t.source == t.target}
            assert parts.is_singleton_without_loop == tuple(
                len(c) == 1 and not c & looped for c in parts.components
            )
            assert all(parts.components[parts.component_of[q]] >= {q} for q in a.states)
            # the int arrays: component c's inside edges are exactly the
            # edges with both ends labelled c, in input order
            labels = parts.labels
            for c, flag in enumerate(parts.is_singleton_without_loop):
                inside = parts.inside[parts.edge_bounds[c] : parts.edge_bounds[c + 1]].tolist()
                assert inside == np.flatnonzero((labels[a.src] == c) & (labels[a.dst] == c)).tolist()
                assert flag == (not inside)
            # free_energy lists its components in the same order
            states = [states for states, _ in free_energy(a).per_component]
            assert tuple(states) == scc(trim(a)).components
        assert len(scc(chain).components) == 200

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


@st.composite
def trimmable(draw):
    """An automaton of 0-7 states over two symbols with any edges, so that
    states can be unreachable, dead ends or isolated, and components can
    be any of these."""
    n = draw(st.integers(0, 7))
    states = [f"s{i}" for i in range(n)]
    if not n:
        return aut([], [], None, [], [])
    edges = draw(st.lists(st.tuples(st.sampled_from(states), st.sampled_from("ab"), st.sampled_from(states)),
                          unique=True, max_size=3 * n))
    accepting = draw(st.lists(st.sampled_from(states), unique=True, max_size=n))
    return aut(["a", "b"], states, draw(st.sampled_from(states)), accepting,
               [(p, y, q, float(i)) for i, (p, y, q) in enumerate(edges)])


class TestOneTarjanWalk:
    """trim reads liveness off the automaton's cached Tarjan labels, so
    scc(trim(a)) walks every edge once when trim cuts nothing."""

    @given(trimmable())
    def test_trim_matches_two_full_walks(self, a):
        want = reference_trim(a)
        got = trim(a)
        assert got == want
        assert (got is a) == (want is a)

    @given(trimmable())
    def test_labels_match_a_fresh_copy(self, a):
        t = trim(a)
        fresh = dataclasses.replace(t)  # a new object, without the cached labels
        assert scc(t).labels.tolist() == automata.tarjan(len(fresh.state_names), fresh.src, fresh.dst).tolist()

    @staticmethod
    def walks(a):
        """scc(trim(a)) and the node counts of its tarjan and _reach calls."""
        calls = {"tarjan": [], "_reach": []}

        def counted(name):
            original = getattr(automata, name)
            return lambda n, *args: calls[name].append(n) or original(n, *args)

        with pytest.MonkeyPatch.context() as patch:
            for name in calls:
                patch.setattr(automata, name, counted(name))
            p = scc(trim(a))
        return p, calls

    @given(trimmable())
    def test_walk_counts(self, a):
        p, calls = self.walks(a)
        if p.automaton is a:  # uncut: one walk over the states, the rest over the components
            assert calls["tarjan"] == [len(a.state_names)]
            assert calls["_reach"] and set(calls["_reach"]) == {len(p.components)}
        elif not p.automaton.is_empty:  # cut: the trimmed automaton is walked afresh
            assert calls["tarjan"] == [len(a.state_names), len(p.automaton.state_names)]

    def test_walk_counts_on_fixed_machines(self):
        # A <-> B -> C -> D (a loop), D accepting: three live components
        edges = [("A", "a", "B"), ("B", "a", "A"), ("B", "b", "C"), ("C", "a", "D"), ("D", "a", "D")]
        whole = aut(["a", "b"], ["A", "B", "C", "D"], "A", ["D"], edges)
        p, calls = self.walks(whole)
        assert p.automaton is whole
        assert calls == {"tarjan": [4], "_reach": [3, 3]}
        # plus the unreachable X -> A and the dead end C -> E
        cut = aut(["a", "b"], ["A", "B", "C", "D", "E", "X"], "A", ["D"], edges + [("X", "a", "A"), ("C", "b", "E")])
        p, calls = self.walks(cut)
        assert p.automaton.states == whole.states
        assert calls["tarjan"] == [6, 4]
        assert p.components == scc(whole).components == (frozenset("AB"), frozenset("C"), frozenset("D"))


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

    def test_matches_naive_subset_construction(self, branchy_nfa):
        # separator-free names, so the library's subset names need no escapes
        corpus = [branchy_nfa] + [
            a
            for seed in range(40)
            for a in (
                random_automaton(seed, max_states=4, costs="zero"),
                random_automaton(200 + seed, max_states=12, costs="zero"),
            )
        ]
        for a in corpus:
            assert automaton_to_document(determinize(a)) == automaton_to_document(
                naive_determinize(a)
            )

    @pytest.mark.parametrize("cap", [0, -3])
    def test_state_cap_must_be_positive(self, cap, branchy_nfa):
        # checked before anything else, even on the empty automaton
        for a in (branchy_nfa, EMPTY):
            with pytest.raises(ValueError, match=f"^state_cap must be positive, got {cap}$"):
                determinize(a, state_cap=cap)

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

    @pytest.mark.parametrize("cap, kind, reached", [
        ("DEFAULT_STATE_CAP", "pair states", 4), ("PRODUCT_TRANSITION_CAP", "transitions", 6),
    ])
    def test_caps(self, monkeypatch, dna_m1, dna_m2, branchy_nfa, cap, kind, reached):
        # the DNA pair finds 4 pairs and 6 transitions: a cap of that count
        # holds, one below it raises, and so does count_series' product
        monkeypatch.setattr(automata, cap, reached)
        assert len(product(dna_m1, dna_m2).state_names) == 4
        monkeypatch.setattr(automata, cap, reached - 1)
        sizes = "product of a 4-state and a 2-state automaton"
        with pytest.raises(StateCapExceeded, match=rf"{sizes} reached {reached} {kind}, past its cap \({reached - 1}\)"):
            product(dna_m1, dna_m2)
        monkeypatch.setattr(automata, cap, 2)
        with pytest.raises(StateCapExceeded, match=rf"of a 6-state and a 6-state automaton reached \d+ {kind}"):
            count_series(branchy_nfa, 4)

    def test_memory_grows_with_transitions(self):
        # a 1-state loop times a 5,000-state ring over 2,000 symbols: one
        # index cell per (ring state, symbol) pair took 153 MiB
        symbols = [f"s{i}" for i in range(2000)]
        names = [f"q{i}" for i in range(5000)]
        loop = aut(symbols, ["p"], "p", ["p"], [("p", y, "p") for y in symbols])
        steps = [(q, symbols[i % 2000], names[(i + 1) % 5000]) for i, q in enumerate(names)]
        ring = aut(symbols, names, "q0", names, steps)
        tracemalloc.start()
        try:
            p = product(loop, ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(p.state_names), len(p.src)) == (5000, 5000)
        assert peak < 16 << 20

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
    edges = edges_by_source(a)
    for i, sym in enumerate(word):
        match = [
            t for t in edges.get(states[i], ())
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

    def test_structural_functions_on_empty(self, ab_star):
        parts = scc(EMPTY)
        assert parts.components == ()
        assert parts.component_of == {}
        assert parts.is_singleton_without_loop == ()
        assert determinize(EMPTY) is EMPTY
        assert product(EMPTY, ab_star) is EMPTY
        assert product(ab_star, EMPTY) is EMPTY
        assert not accepts(EMPTY, ())
        assert not accepts(EMPTY, ("a",))


class TestInduced:
    def machine(self):
        return aut(
            ["a", "b"], ["p", "q", "r", "s"], "r", ["q", "s"],
            [("r", "a", "p", 1.0), ("q", "b", "p", 2.0), ("p", "a", "s", 3.0),
             ("p", "a", "q", 4.0), ("s", "b", "q", 5.0), ("q", "a", "q", 6.0)],
        )

    def test_inside_edges_in_input_order(self):
        sub = automata.induced(self.machine(), ["q", "p"])
        assert sub.state_names == ("p", "q")
        assert [(t.source, t.symbol, t.target, t.cost) for t in sub.transitions] == [
            ("q", "b", "p", 2.0), ("p", "a", "q", 4.0), ("q", "a", "q", 6.0)
        ]
        assert sub.start == 0 and sub.initial == "p"  # the first kept state, not r
        assert sub.accepting == {"q"}
        assert validate(sub) == []

    def test_nothing_kept(self):
        assert automata.induced(self.machine(), []) is EMPTY
        assert automata.induced(self.machine(), ["t"]) is EMPTY


@st.composite
def grouped_positions(draw):
    """A key over n groups and up to three ties: narrow ties that repeat,
    or ties wide enough that the packed key would pass 2**62; sorted or not."""
    n = draw(st.integers(1, 8))
    size = draw(st.integers(0, 60))
    column = lambda top: np.array(draw(st.lists(st.integers(0, top), min_size=size, max_size=size)), dtype=np.intp)
    key = column(n - 1)
    ties = []
    for width in draw(st.lists(st.sampled_from([1, 2, 5, 2**20, 2**40, 2**62]), max_size=3)):
        tie = column(width - 1)
        if size:
            tie[draw(st.integers(0, size - 1))] = width - 1
        ties.append(tie)
    if draw(st.booleans()):
        order = np.lexsort(ties[::-1] + [key])
        key, ties = key[order], [tie[order] for tie in ties]
    return n, key, ties


class TestRows:
    @given(grouped_positions())
    def test_same_order_as_lexsort(self, case):
        n, key, ties = case
        order, indptr = rows(n, key, *ties)
        assert order.tolist() == np.lexsort(ties[::-1] + [key]).tolist()
        assert indptr.tolist() == np.searchsorted(key[order], np.arange(n + 1)).tolist()

    @pytest.mark.parametrize("width", [2**59 - 1, 2**59])
    def test_packed_key_at_its_bound(self, width):
        # n * width * E is 2**62 - 8 (one packed key), then 2**62 (np.lexsort)
        key = np.array([1, 0, 1, 0])
        tie = np.array([width - 1, width - 1, 0, width - 1])
        assert rows(2, key, tie)[0].tolist() == [1, 3, 2, 0]

    def test_stable_within_a_key_and_ordered_by_ties(self):
        key = np.array([2, 0, 2, 1, 0, 2, 2])
        first = np.array([1, 5, 0, 3, 5, 1, 0])
        second = np.array([0, 1, 1, 0, 0, 0, 0])
        order, indptr = rows(4, key)
        assert indptr.tolist() == [0, 2, 3, 7, 7]  # group 3 is empty
        assert order.tolist() == [1, 4, 3, 0, 2, 5, 6]
        assert rows(4, key, first)[0].tolist() == [1, 4, 3, 2, 6, 0, 5]
        assert rows(4, key, first, second)[0].tolist() == [4, 1, 3, 6, 2, 0, 5]
        rng = np.random.default_rng(3)
        for size in (0, 1, 50):
            key, first, second = rng.integers(0, 5, size=(3, size))
            order, indptr = rows(6, key, first, second)
            want = sorted(range(size), key=lambda i: (key[i], first[i], second[i], i))
            assert order.tolist() == want
            assert indptr.tolist() == np.searchsorted(key[order], np.arange(7)).tolist()
