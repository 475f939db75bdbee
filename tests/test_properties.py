"""Property tests on random automata (hypothesis, with the deterministic
profile registered in ``conftest.py``).

The automata of the energy properties have negative costs, loop-free
transient states, states that trimming removes and several cyclic
components, one of which may carry costs past +-700 so that its solve is
shifted.  Those of the construction properties have state and symbol names
made of the characters that the product, subset, transition and block
names escape, including names spelled like the constructions' own; every
constructed name must be unique and split back into the names it joins.
Three Cauchy-Schwarz bounds relate the self- and cross-products of
random automata.  The CLI properties run the commands on small valid
documents whose costs lie at and past the edges of the double range.  The
reference properties draw small untrimmed automata at costs in [-5, 5] and
check the run sums against a log-domain sweep and each component's energy
against Karp's maximum cycle mean."""

import contextlib
import io
import itertools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gurevich import (
    LinearLengthSpec,
    LinearSet,
    NonnegativeMatrix,
    PairCostFunction,
    block_automaton,
    branching_costs,
    determinize,
    free_energy,
    gurevich_matrix_bipartite,
    implement_construction,
    lambda_exact,
    lambda_plus,
    linlen_word_oracle,
    product,
    run_partition_series,
    similarity,
    trim,
    validate,
    verify_implements,
    word_partition_series,
)
from gurevich import automaton_to_document, save_document
from gurevich import energy as energy_mod
from gurevich.cli import main

from conftest import (
    aut,
    cycle_mean_brackets,
    enum_word_sum,
    log_run_sums,
    random_automaton,
    split_search_oracle,
)


@st.composite
def automata(draw):
    """Cyclic blocks linked forward in a chain, a loop-free state between
    two of them, and a dead state that only block 0 reaches."""
    symbols = ["a", "b"]
    cost = st.floats(-3.0, 3.0)
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    shifted = draw(st.sampled_from([None] + list(range(len(sizes)))))
    offset = draw(st.sampled_from([-850.0, 850.0]))
    edges = {}
    blocks, base = [], 0
    for b, size in enumerate(sizes):
        block = [f"s{base + i}" for i in range(size)]
        extra = offset if b == shifted else 0.0
        for i in range(size):  # the ring that makes the block one cyclic component
            edges[(block[i], draw(st.sampled_from(symbols)), block[(i + 1) % size])] = draw(cost) + extra
        for _ in range(draw(st.integers(0, 2 * size))):
            p, q = draw(st.sampled_from(block)), draw(st.sampled_from(block))
            edges[(p, draw(st.sampled_from(symbols)), q)] = draw(cost) + extra
        blocks.append(block)
        base += size
    states = [s for block in blocks for s in block] + ["t", "dead"]
    for b, (left, right) in enumerate(zip(blocks, blocks[1:])):
        if b == 0:  # through the transient state t
            edges[(left[-1], draw(st.sampled_from(symbols)), "t")] = draw(cost)
            edges[("t", draw(st.sampled_from(symbols)), right[0])] = draw(cost)
        else:
            edges[(left[-1], draw(st.sampled_from(symbols)), right[0])] = draw(cost)
    edges[(blocks[0][0], draw(st.sampled_from(symbols)), "dead")] = draw(cost)
    accepting = [s for s in states if s != "dead"]
    return aut(symbols, states, blocks[0][0], accepting, [(p, x, q, c) for (p, x, q), c in edges.items()])


@contextlib.contextmanager
def batched():
    """The reports of every batched solve run inside the block, in order."""
    reports = []
    solve = energy_mod._solve

    def recording(columns, *args, **kwargs):
        out = solve(columns, *args, **kwargs)
        reports.extend(out)
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(energy_mod, "_solve", recording)
        yield reports


@given(automata())
def test_lambda_plus_batch_equals_separate_solves(a):
    with batched() as reports:
        report = lambda_plus(a)
    live = trim(a)
    assert reports == [
        free_energy(branching_costs(live)),
        free_energy(live.with_costs(np.zeros(live.cost.size))),
    ]
    assert (report.energy_v, report.energy_zero) == (reports[0].energy, reports[1].energy)


@given(automata(), automata())
def test_similarity_batch_equals_separate_solves(a1, a2):
    with batched() as reports:
        report = similarity(a1, a2)
    live1, live2 = trim(a1), trim(a2)
    assert reports == [free_energy(product(live1, live2)), free_energy(live1), free_energy(live2)]
    assert (report.delta, report.energy_1, report.energy_2) == tuple(r.energy for r in reports)


# Delta(M1, M2) is the growth rate of the inner product sum_w f1(w) f2(w),
# f(w) the sum of e^V over a machine's accepting runs on w, so Cauchy-Schwarz
# ties product, similarity, determinize and lambda_exact together with no
# reference code; the automata are conftest's, drawn by seed
seeds = st.integers(0, 10**6)
SLACK = 1e-9


def delta(a1, a2):
    return free_energy(product(a1, a2))


@given(seeds, seeds, st.sampled_from(["nonneg", "mixed"]))
def test_cross_similarity_below_the_mean_self_similarity(seed1, seed2, costs):
    a1, a2 = random_automaton(seed1, 5, costs), random_automaton(seed2, 5, costs)
    cross = delta(a1, a2)
    # a finite intersection has Delta = 0 by convention, not -inf
    assume(any(solved is not None for solved in cross.solver))
    assert cross.energy <= (delta(a1, a1).energy + delta(a2, a2).energy) / 2 + SLACK


@given(seeds)
def test_lambda_exact_below_the_self_product_bound(seed):
    # at zero cost f(w) counts the runs N(w), and sum N <= sqrt(W_n sum N^2)
    a = random_automaton(seed, 6, "zero")
    self_similar = similarity(a, a)
    assert lambda_exact(a).lambda_exact <= self_similar.delta - self_similar.energy_1 + SLACK


@given(seeds)
def test_self_similarity_above_the_doubled_costs(seed):
    # the diagonal pairs of runs alone weigh e^{2V}
    a = random_automaton(seed, 5, "mixed")
    assert similarity(a, a).delta >= free_energy(a.with_costs(2 * a.cost)).energy - SLACK


# the separators and escapes of product (``|``), subset (``{,}``) and
# transition (``(,)``) names, the backslash, and linlen's ``~``
tricky_names = st.text(st.sampled_from("ab|,{}()\\~"), min_size=1, max_size=4)


@st.composite
def named_automata(draw, deterministic=False):
    """An NFA (a DFA if ``deterministic``) over tricky names, some of them
    spelled like a pair ``x|y``, a subset ``{x,y}`` or its inside ``x,y``,
    or a transition ``(x,s,y)`` of other states.  Half the draws plant
    edges on which a construction spells one plain name twice."""
    symbols = draw(st.lists(st.sampled_from(["a", "b", ",", "(", "|"]), min_size=2, max_size=3, unique=True))
    base = draw(st.lists(tricky_names, min_size=2, max_size=4, unique=True))
    x, y = draw(st.permutations(base))[:2]
    s, t = draw(st.permutations(symbols))[:2]
    inside, pairs, run = x + "," + y, [x + "|" + y, y + "|" + y], f"({x},{s},{y})"
    states = sorted(set(base + pairs + [inside, "{" + inside + "}", run]))
    initial = draw(st.sampled_from(states))
    accepting = draw(st.lists(st.sampled_from(states), max_size=len(states)))
    plant = draw(st.booleans())
    state, symbol = st.sampled_from(states), st.sampled_from(symbols)
    if deterministic:
        edges = draw(st.dictionaries(st.tuples(state, symbol), state, max_size=16))
        if plant:  # the start (x,s,y) and the transition x -s-> y
            initial = run
            edges.update({(run, s): x, (x, s): y})
            accepting.append(y)
        transitions = [pair + (q,) for pair, q in edges.items()]
    else:
        transitions = draw(st.lists(st.tuples(state, symbol, state), max_size=16, unique=True))
        if plant:  # subsets {x,y} and {"x,y"}; in a product with itself, pairs (x|y, y) and (x, y|y)
            spelled = [x, y] + pairs
            planted = [(initial, s, x), (initial, s, y), (initial, t, inside)] + [(inside, s, q) for q in spelled]
            transitions = list(dict.fromkeys(transitions + planted))
            accepting += spelled
    costs = [draw(st.integers(-3, 3)) for _ in transitions]
    return aut(symbols, states, initial, accepting, [e + (c,) for e, c in zip(transitions, costs)])


def well_formed(a):
    assert validate(a) == []
    assert len(set(a.state_names)) == len(a.state_names)


@given(named_automata(), named_automata())
def test_product_is_well_formed(a1, a2):
    well_formed(product(a1, a2))
    well_formed(product(a1, a1))


@given(named_automata(), named_automata(deterministic=True))
def test_determinize_and_implement_are_well_formed(a, dfa):
    subsets = determinize(a)
    well_formed(subsets)
    assert subsets.deterministic
    for machine in (subsets, dfa):
        well_formed(implement_construction(machine, PairCostFunction.create(default=1.0)))


# the block translation's separators ``,+;~``, the backslash, and the
# product's and transition names' ``|`` and ``(``; a name ``a`` beside one
# spelled ``a,a`` makes the tracks (a, "a,a") and ("a,a", a) print alike
block_names = st.one_of(
    st.sampled_from(["a", "a,a", "a+a", "a;a", "a~a", "a\\,a"]),
    st.text(st.sampled_from("ab,+;~\\|("), min_size=1, max_size=3),
)


@st.composite
def block_dfas(draw, symbols):
    """A complete DFA of 1 to 3 states over ``symbols``, its state names
    drawn from ``block_names``, with at least one accepting state."""
    states = draw(st.lists(block_names, min_size=1, max_size=3, unique=True))
    state = st.sampled_from(states)
    moves = [(p, y, draw(state)) for p in states for y in symbols]
    return aut(symbols, states, draw(state), draw(st.lists(state, min_size=1, max_size=3)), moves)


@st.composite
def linlen_specs(draw):
    """A spec of arity 1 or 2 over one or two symbols drawn from
    ``block_names``, with offsets 1 or 2 and up to two 0/1 periods."""
    symbols = draw(st.lists(block_names, min_size=1, max_size=2, unique=True))
    k = draw(st.integers(1, 2))
    base, *parts = [draw(block_dfas(symbols)) for _ in range(k + 1)]
    offset = draw(st.lists(st.integers(1, 2), min_size=k, max_size=k))
    nonzero = [v for v in itertools.product((0, 1), repeat=k) if any(v)]
    periods = draw(st.lists(st.sampled_from(nonzero), max_size=2, unique=True))
    symbol = st.sampled_from(symbols)
    u = PairCostFunction.create(draw(st.dictionaries(st.tuples(symbol, symbol), st.integers(-2, 2))))
    return LinearLengthSpec(base, tuple(parts), LinearSet.create(offset, periods), u)


@given(linlen_specs())
def test_block_automaton_is_well_formed(spec):
    a = block_automaton(spec)
    well_formed(a)
    assert len(set(a.symbols)) == len(a.symbols)


@given(linlen_specs(), st.integers(1, 8))
def test_word_oracle_against_split_search(spec, horizon):
    # integer pair costs: every prefix cost is exact, so the bits of each
    # S_n pin the order in which the two walks add the word weights
    values = [v for _, v in linlen_word_oracle(spec, horizon).values]
    assert values == split_search_oracle(spec, horizon)


def split(name, separators):
    """The parts of ``name`` between its unescaped ``separators``, each
    with its escapes undone."""
    parts, part, chars = [], [], iter(name)
    for c in chars:
        if c == "\\":
            c = next(chars, None)
            assert c is not None, f"{name!r} ends in a lone backslash"
            part.append(c)
        elif c in separators:
            parts.append("".join(part))
            part = []
        else:
            part.append(c)
    return parts + ["".join(part)]


def inside(name, open_, close):
    """The text between a constructed name's outer brackets."""
    assert name[0] == open_ and name[-1] == close, name
    return name[1:-1]


@given(named_automata(), named_automata())
def test_pair_names_split_into_their_parts(a1, a2):
    p = product(a1, a2)
    parts = {name: tuple(split(name, "|")) for name in p.state_names}
    assert all(len(pair) == 2 for pair in parts.values())
    if not p.is_empty:
        assert parts[p.initial] == (a1.initial, a2.initial)
    steps1 = {(t.source, t.symbol, t.target): t.cost for t in a1.transitions}
    steps2 = {(t.source, t.symbol, t.target): t.cost for t in a2.transitions}
    for t in p.transitions:
        (x1, y1), (x2, y2) = parts[t.source], parts[t.target]
        assert t.cost == steps1[(x1, t.symbol, x2)] + steps2[(y1, t.symbol, y2)]
    for name, (x, y) in parts.items():
        assert (name in p.accepting) == (x in a1.accepting and y in a2.accepting)


@given(named_automata())
def test_subset_names_split_into_their_members(a):
    d = determinize(a)
    members = {name: frozenset(split(inside(name, "{", "}"), ",")) for name in d.state_names}
    if not d.is_empty:
        assert members[d.initial] == {a.initial}
    for t in d.transitions:
        sources = members[t.source]
        stepped = {e.target for e in a.transitions if e.source in sources and e.symbol == t.symbol}
        assert members[t.target] == stepped
    for name, subset in members.items():
        assert (name in d.accepting) == bool(subset & a.accepting)


@given(named_automata(deterministic=True))
def test_transition_names_split_into_their_parts(dfa):
    m = implement_construction(dfa, PairCostFunction.create(default=1.0))
    if m.is_empty:  # nothing of L(dfa) survives the trim
        return
    triples = {(t.source, t.symbol, t.target) for t in dfa.transitions}
    assert split(m.initial, "(,)") == [dfa.initial]
    runs = {m.initial: (None, None, dfa.initial)}
    for name in m.state_names:
        if name != m.initial:
            runs[name] = tuple(split(inside(name, "(", ")"), "(,)"))
            assert runs[name] in triples
    for t in m.transitions:  # into (p, a, q) on a, from a state that ends in p
        p, a, _ = runs[t.target]
        assert (runs[t.source][2], t.symbol) == (p, a)


@st.composite
def dfas_with_pair_costs(draw):
    """A DFA of at most 4 states over two or three symbols, and a pair cost
    that lists some symbol pairs and gives the rest a default."""
    symbols = ["a", "b", "c"][: draw(st.integers(2, 3))]
    states = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    edges = [(p, x, draw(st.sampled_from(states))) for p in states for x in symbols if draw(st.booleans())]
    accepting = [q for q in states if draw(st.booleans())]
    cost = st.floats(-2.0, 2.0)
    entries = {(x, y): draw(cost) for x in symbols for y in symbols if draw(st.booleans())}
    return aut(symbols, states, "s0", accepting, edges), PairCostFunction.create(entries, draw(cost))


@given(dfas_with_pair_costs())
def test_word_sums_and_implement_against_their_references(case):
    # both run on langcost's step graph; word enumeration and
    # verify_implements' breadth-first walk share no code with it
    dfa, u = case
    for n, s in word_partition_series(dfa, u, 6).values:
        assert s == pytest.approx(enum_word_sum(dfa, u, n), rel=1e-12, abs=0.0)
    assert verify_implements(implement_construction(dfa, u), dfa, u, 5).holds


@st.composite
def dfas_with_spread_pair_costs(draw):
    """A DFA of 2 to 4 states over three symbols, and a pair cost that lists
    at least one pair above its default and one below it."""
    symbols = ["a", "b", "c"]
    states = [f"s{i}" for i in range(draw(st.integers(2, 4)))]
    edges = [(p, x, draw(st.sampled_from(states))) for p in states for x in symbols if draw(st.booleans())]
    accepting = [q for q in states if draw(st.booleans())]
    pairs = draw(st.lists(st.sampled_from(list(itertools.product(symbols, repeat=2))), min_size=2, unique=True))
    default = draw(st.floats(-2.0, 2.0))
    signs = [1.0, -1.0] + [draw(st.sampled_from([1.0, -1.0])) for _ in pairs[2:]]
    entries = {pair: default + sign * draw(st.floats(0.01, 2.0)) for pair, sign in zip(pairs, signs)}
    return aut(symbols, states, "s0", accepting, edges), PairCostFunction.create(entries, default)


@given(dfas_with_spread_pair_costs())
def test_step_graph_costs_no_pair_by_name(case):
    # the step graph looks each edge's pair up by symbol index; the
    # references cost every word by name, so they run after the patch
    dfa, u = case

    def by_name(*_):
        raise AssertionError("a symbol pair was costed by name")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PairCostFunction, "cost", by_name)
        machine = implement_construction(dfa, u)
        series = word_partition_series(dfa, u, 6)
    assert verify_implements(machine, dfa, u, 6).holds
    for n, s in series.values:
        assert s == pytest.approx(enum_word_sum(dfa, u, n), rel=1e-12, abs=0.0)


@st.composite
def costed_automata(draw):
    """Up to 5 states over two symbols, any edges at costs in [-5, 5], and
    any start and accepting states; nothing trimmed."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 5)))]
    edges = [(p, x, q, draw(st.floats(-5.0, 5.0))) for p in states for x in "ab" for q in states if draw(st.booleans())]
    accepting = [q for q in states if draw(st.booleans())]
    return aut(["a", "b"], states, draw(st.sampled_from(states)), accepting, edges)


@given(costed_automata(), st.sampled_from(["runs_all", "runs_accepting"]), st.integers(1, 40))
def test_run_sums_against_the_log_domain_reference(a, kind, max_n):
    for (_, s), log_s in zip(run_partition_series(a, kind, max_n).values, log_run_sums(a, kind, max_n)):
        assert s == pytest.approx(math.exp(log_s), rel=1e-12, abs=0.0)


@given(costed_automata(), st.sampled_from(["compact", "bipartite"]))
def test_energy_lies_in_the_cycle_mean_bracket(a, form):
    for mean, energy, top in cycle_mean_brackets(a, form):
        assert mean - 1e-9 <= energy <= top + 1e-9


def test_bipartite_labels_split_into_their_parts():
    # joined unescaped, state "p-a->p" coincides with transition p -a-> p,
    # and p -a-> "p-a->p" with "p-a->p" -a-> p
    a = aut(["a"], ["p", "p-a->p"], "p", ["p"], [("p", "a", "p"), ("p", "a", "p-a->p"), ("p-a->p", "a", "p")])
    m = gurevich_matrix_bipartite(a)
    assert len(set(m.labels)) == len(m.labels) == 5
    assert NonnegativeMatrix.create(m.entries, m.labels).labels == m.labels
    assert [split(label, "->") for label in m.labels[:2]] == [["p"], ["p-a->p"]]
    edges = [split(label, "->") for label in m.labels[2:]]  # p, a and q around "-" and "->"
    assert edges == sorted([t.source, t.symbol, "", t.target] for t in a.transitions)


# costs at and past the edges of the double range: e^-745 is the last
# subnormal, e^+-800 leaves the range, and two 1e308 sum to inf
edge_costs = st.sampled_from([0.0, 1.0, -1.0, 700.0, -700.0, -745.0, 800.0, -800.0, 1e308, -1e308])


@st.composite
def small_documents(draw, deterministic=False):
    """A valid automaton of 1 to 4 states over {a, b} with edge-of-range
    costs; a DFA if ``deterministic``."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 4)))]
    state, symbol = st.sampled_from(states), st.sampled_from(["a", "b"])
    if deterministic:
        moves = draw(st.dictionaries(st.tuples(state, symbol), state, max_size=8))
        edges = [move + (q,) for move, q in moves.items()]
    else:
        edges = draw(st.lists(st.tuples(state, symbol, state), max_size=8, unique=True))
    accepting = draw(st.lists(state, unique=True))
    return aut(["a", "b"], states, "s0", accepting, [e + (draw(edge_costs),) for e in edges])


@st.composite
def pair_cost_documents(draw):
    """Pair costs over {a, b} drawn from the same edge-of-range costs."""
    pairs = draw(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from("ab")), unique=True))
    return {
        "pairs": [{"first": x, "second": y, "cost": draw(edge_costs)} for x, y in pairs],
        "default": draw(edge_costs),
    }


@st.composite
def linlen_documents(draw):
    """A valid linlen spec of arity 1 or 2 over small DFAs, offsets 1 or 2
    and up to two nonzero, distinct periods."""
    k = draw(st.integers(1, 2))
    dfas = [automaton_to_document(draw(small_documents(deterministic=True))) for _ in range(k + 1)]
    nonzero = [v for v in itertools.product((0, 1, 2), repeat=k) if any(v)]
    lengths = {
        "offset": draw(st.lists(st.integers(1, 2), min_size=k, max_size=k)),
        "periods": [list(v) for v in draw(st.lists(st.sampled_from(nonzero), max_size=2, unique=True))],
    }
    return {"base": dfas[0], "parts": dfas[1:], "lengths": lengths, "pair_cost": draw(pair_cost_documents())}


def run_cli(argv):
    """``main(argv)`` exits 0, 3 or 4, never 2; a non-zero exit prints one
    ``error:`` line, and nothing escapes main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3, 4), (argv, code, err.getvalue())
    if code:
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv


@given(small_documents(), small_documents())
def test_cli_exit_codes_on_valid_documents(a1, a2):
    """Every input is valid, so each command exits 0, 3 or 4."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as m:
        m.setenv("MAX_ITERS", "2000")  # a component that never certifies costs milliseconds
        p1, p2 = os.path.join(tmp, "a1.json"), os.path.join(tmp, "a2.json")
        save_document(p1, automaton_to_document(a1))
        save_document(p2, automaton_to_document(a2))
        for argv in [
            ["energy", p1],
            ["energy", p1, "--form", "bipartite"],
            ["energy", p1, "--branching-costs"],
            ["similarity", p1, p1],
            ["similarity", p1, p2],
            ["nondet", p1, "--exact"],
            ["oracle", p1],
        ]:
            run_cli(argv)


@given(small_documents(deterministic=True), pair_cost_documents(), linlen_documents())
def test_cli_exit_codes_on_valid_pair_cost_inputs(dfa, costs, spec):
    """The commands that take pair costs, on a valid DFA, pair cost
    document and linlen spec, exit 0, 3 or 4."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as m:
        m.setenv("MAX_ITERS", "2000")
        paths = [os.path.join(tmp, f) for f in ("dfa.json", "costs.json", "spec.json", "out.json")]
        for path, doc in zip(paths, (automaton_to_document(dfa), costs, spec)):
            save_document(path, doc)
        p_dfa, p_costs, p_spec, p_out = paths
        for argv in [
            ["implement", p_dfa, p_costs, p_out],
            ["oracle", p_dfa, "--kind", "words", "--pair-costs", p_costs, "--max-n", "8"],
            ["linlen", p_spec, "--oracle-check", "8"],
        ]:
            run_cli(argv)
