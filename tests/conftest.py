"""Shared fixtures: reference machines, random corpora, enumeration oracles.

The enumeration helpers here are deliberately naive (explicit path/word
walks) so they are an independent check on the dynamic-programming and
spectral routes; keep them free of any library DP code.  So are the two
references at the end: run sums in the log domain, and Karp's maximum
cycle mean.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

from gurevich import (
    EMPTY,
    CostAutomaton,
    PairCostFunction,
    Transition,
    accepts,
    determinize,
    free_energy,
    trim,
    word_cost,
)
from gurevich import automata

# ---------------------------------------------------------------------------
# property tests: the same examples on every run, no example database, and a
# budget of a few seconds in all

settings.register_profile("tier1", derandomize=True, database=None, max_examples=100, deadline=None)
settings.load_profile("tier1")


# ---------------------------------------------------------------------------
# acceptance-criterion reporting: one line per criterion in the terminal
# summary, recorded by tests/test_acceptance.py

CRITERION_RESULTS: dict[int, str] = {}


def record_criterion(number: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {status}"
    if detail:
        line += f" ({detail})"
    CRITERION_RESULTS[number] = line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for k in sorted(CRITERION_RESULTS):
        terminalreporter.write_line(CRITERION_RESULTS[k])


# ---------------------------------------------------------------------------
# builders


def aut(alphabet, states, initial, accepting, transitions) -> CostAutomaton:
    return CostAutomaton.create(alphabet, states, initial, accepting, transitions)


@pytest.fixture
def branchy_nfa() -> CostAutomaton:
    """Six-state NFA with a 3-way a-branch at A and a 2-way b-branch at F."""
    return aut(
        ["a", "b"],
        ["A", "B", "C", "D", "E", "F"],
        "A",
        ["A"],
        [
            ("A", "a", "B"), ("A", "a", "C"), ("A", "a", "D"), ("A", "b", "E"),
            ("B", "a", "F"), ("C", "a", "F"), ("D", "a", "F"), ("E", "a", "F"),
            ("F", "b", "E"), ("F", "b", "A"),
        ],
    )


@pytest.fixture
def dna_m1() -> CostAutomaton:
    return aut(
        ["A", "C", "G", "T"],
        ["1", "2", "3", "4"],
        "1",
        ["2", "3"],
        [
            ("1", "A", "2", 0.14), ("1", "G", "2", 0.1), ("1", "A", "3", 0.76),
            ("2", "G", "1", 0.2), ("2", "T", "4", 0.8),
            ("4", "C", "2", 0.35), ("4", "C", "3", 0.65),
            ("3", "G", "1", 0.7),
        ],
    )


@pytest.fixture
def dna_m2() -> CostAutomaton:
    return aut(
        ["A", "C", "G", "T"],
        ["5", "6"],
        "5",
        ["5", "6"],
        [
            ("5", "C", "6", 0.2), ("5", "G", "6", 0.4), ("5", "A", "6", 0.9),
            ("6", "T", "5", 0.7), ("6", "C", "5", 0.2),
        ],
    )


# edges the product of the two machines above must reproduce exactly
DNA_PRODUCT_EDGES = {
    ("1|5", "G", "2|6", 0.5),
    ("1|5", "A", "2|6", 1.04),
    ("1|5", "A", "3|6", 1.66),
    ("2|6", "T", "4|5", 1.5),
    ("4|5", "C", "2|6", 0.55),
    ("4|5", "C", "3|6", 0.85),
}


# ---------------------------------------------------------------------------
# reference constants derived by hand from the fixtures' cycle structure;
# math and numpy only, so they are independent of the library's spectral code


def _largest_real_root(coefficients) -> float:
    return max(r.real for r in np.roots(coefficients) if abs(r.imag) < 1e-12)


# lambda_exact of branchy_nfa = E0(NFA) - E0(subset DFA), both zero-cost.
# The NFA's adjacency matrix has characteristic polynomial x^3 (x^3 - x - 4).
# Its subset DFA has one cyclic component, {E}, {F}, {A,E}, {B,C,D,F}, whose
# cycles (two of length 3, one of length 2) all pass through {A,E}, so
# det(I - xA) = 1 - x^2 - 2x^3 and E0(DFA) = ln rho(x^3 - x - 2) = 0.419618.
# The stated 0.2255 implied E0(DFA) = 0.3603, which no DFA for this language
# can have: E0(DFA) is the growth rate of its accepted words.
BRANCHY_LAMBDA_EXACT = math.log(_largest_real_root([1, 0, -1, -4])) - math.log(
    _largest_real_root([1, 0, -1, -2])
)


# E(dna_m1).  Its cycles are 1-2-1, 1-3-1, 2-4-2 and 1-2-4-3-1; only 1-3-1
# and 2-4-2 are disjoint.  With c the weight of a cycle (the product over its
# steps of the sum of e^cost over that step's parallel edges),
# det(I - xW) = 1 - (c121 + c131 + c242) x^2 - (c12431 - c131 c242) x^4, so
# E = (1/2) ln y* with y* the larger root of
# y^2 - (c121 + c131 + c242) y - (c12431 - c131 c242).  The stated 0.3500
# cannot hold: the 2-4-2 cycle alone forces E >= (0.8 + 0.35) / 2.
_C121 = (math.exp(0.14) + math.exp(0.1)) * math.exp(0.2)
_C131 = math.exp(0.76) * math.exp(0.7)
_C242 = math.exp(0.8) * math.exp(0.35)
_C12431 = (math.exp(0.14) + math.exp(0.1)) * math.exp(0.8) * math.exp(0.65) * math.exp(0.7)
DNA_M1_ENERGY = 0.5 * math.log(
    _largest_real_root([1, -(_C121 + _C131 + _C242), -(_C12431 - _C131 * _C242)])
)


# A cycle 0 -> 1 -> ... -> n-1 -> 0 with one chord 0 -> 2 has cycles of
# lengths n and n - 1 only, so its zero-cost Perron root r solves
# r^-n + r^-(n-1) = 1; with every cost c the energy is c + ln r.  Its power
# iteration mixes slowly: the second eigenvalue is about r e^(2 pi i / n).
def chord_log_root(n: int) -> float:
    """ln r for chord_cycle(n), bisected on exp(-n x) + exp(-(n-1) x) = 1."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if math.exp(-n * mid) + math.exp(-(n - 1) * mid) > 1.0:
            lo = mid
        else:
            hi = mid


def chord_cycle(n: int, cost: float) -> CostAutomaton:
    states = [str(i) for i in range(n)]
    transitions = [(str(i), "a", str((i + 1) % n), cost) for i in range(n)]
    return aut(["a", "b"], states, "0", states, transitions + [("0", "b", "2", cost)])


def many_components() -> CostAutomaton:
    """One automaton with a component of every kind the energy layer
    solves: 1-state loops, period-2 two-cycles, chorded 3-cycles, a
    40-state chord cycle whose power sweeps stall into Noda steps, a
    chorded 3-cycle at costs near +800 and one near -800 (both solved
    shifted), and a 170-state ring with chords, above the dense size in
    either form.  A loop-free singleton sits between each block and the
    next, linked by one edge on each side."""
    rng = random.Random(17)

    def chorded(n, offset, spread):
        edges = [(i, "a", (i + 1) % n) for i in range(n)] + [(0, "b", 2 % n)]
        return n, [(p, x, q, offset + rng.uniform(-spread, spread)) for p, x, q in edges]

    blocks = []
    for _ in range(4):
        blocks.append((1, [(0, "a", 0, rng.uniform(-1.0, 1.0)), (0, "b", 0, rng.uniform(-1.0, 1.0))]))
        blocks.append((2, [(0, "a", 1, rng.uniform(-1.0, 1.0)), (1, "b", 0, rng.uniform(-1.0, 1.0))]))
        blocks.append(chorded(3, 0.0, 1.0))
    blocks += [chorded(40, 0.0, 0.05), chorded(3, 800.0, 1.0), chorded(3, -800.0, 1.0)]
    ring = [(i, "a", (i + 1) % 170, rng.uniform(-1.0, 1.0)) for i in range(170)]
    ring += [(i, "c", rng.randrange(170), rng.uniform(-1.0, 1.0)) for i in range(0, 170, 7)]
    blocks.append((170, ring))
    rng.shuffle(blocks)

    states, transitions = [], []
    for k, (n, edges) in enumerate(blocks):
        names = [f"b{k}.{i}" for i in range(n)]
        states += names + [f"t{k}"]
        transitions += [(names[p], x, names[q], c) for p, x, q, c in edges]
        transitions.append((names[-1], "c", f"t{k}", 0.0))
        if k + 1 < len(blocks):
            transitions.append((f"t{k}", "c", f"b{k + 1}.0", 0.0))
    return aut(["a", "b", "c"], states, states[0], states, transitions)


@pytest.fixture
def single_cycle() -> CostAutomaton:
    """One deterministic cycle: all weight concentrated on one orbit."""
    return aut(
        ["a", "b"], ["X", "Y"], "X", ["X"],
        [("X", "a", "Y", 1.0), ("Y", "b", "X", 0.5)],
    )


@pytest.fixture
def ab_star() -> CostAutomaton:
    """Two-state DFA for (ab)*, zero costs."""
    return aut(["a", "b"], ["p", "q"], "p", ["p"], [("p", "a", "q"), ("q", "b", "p")])


@pytest.fixture
def u_ab() -> PairCostFunction:
    return PairCostFunction.create({("a", "b"): 2.0, ("b", "a"): 5.0})


@pytest.fixture
def ab_cycle_machine() -> CostAutomaton:
    """Three-state machine realizing the (ab)* pair costs: entry a:0, then
    the b:2 / a:5 two-cycle."""
    return aut(
        ["a", "b"],
        ["S", "P", "Q"],
        "S",
        ["S", "Q"],
        [("S", "a", "P", 0.0), ("P", "b", "Q", 2.0), ("Q", "a", "P", 5.0)],
    )


def linlen_doc(diag_cost=1.0) -> dict:
    """Document of {a^n b^2n a^3n : n >= 1} with cost diag_cost on aa and bb."""
    base = {
        "alphabet": ["a", "b"],
        "states": ["s0", "s1", "s2"],
        "initial": "s0",
        "accepting": ["s0", "s1", "s2"],
        "transitions": [
            {"from": "s0", "symbol": "a", "to": "s0"},
            {"from": "s0", "symbol": "b", "to": "s1"},
            {"from": "s1", "symbol": "b", "to": "s1"},
            {"from": "s1", "symbol": "a", "to": "s2"},
            {"from": "s2", "symbol": "a", "to": "s2"},
        ],
    }
    a_star = {
        "alphabet": ["a", "b"], "states": ["A"], "initial": "A", "accepting": ["A"],
        "transitions": [{"from": "A", "symbol": "a", "to": "A"}],
    }
    b_star = {
        "alphabet": ["a", "b"], "states": ["B"], "initial": "B", "accepting": ["B"],
        "transitions": [{"from": "B", "symbol": "b", "to": "B"}],
    }
    return {
        "base": base,
        "parts": [a_star, b_star, dict(a_star)],
        "lengths": {"offset": [1, 2, 3], "periods": [[1, 2, 3]]},
        "pair_cost": {
            "pairs": [
                {"first": "a", "second": "a", "cost": diag_cost},
                {"first": "b", "second": "b", "cost": diag_cost},
            ]
        },
    }


def colliding_dfa() -> CostAutomaton:
    """DFA whose transitions (a, b, "x,c") and ("a,b", x, c) would both be
    named "(a,b,x,c)" by the plain implement construction."""
    return aut(
        ["b", "x"], ["a", "a,b", "c", "x,c"], "a", ["c", "x,c"],
        [("a", "b", "x,c"), ("a", "x", "a,b"), ("a,b", "x", "c")],
    )


# ---------------------------------------------------------------------------
# random corpora (seeded; sizes per the fixture-scale limits)


def random_automaton(seed: int, max_states: int = 6, costs: str = "nonneg") -> CostAutomaton:
    """Random trimmed automaton; None replaced by a 1-state fallback when
    trimming empties it."""
    rng = random.Random(seed)
    n = rng.randint(2, max_states)
    states = [f"s{i}" for i in range(n)]
    alphabet = ["a", "b"][: rng.randint(1, 2)]
    transitions = []
    seen = set()
    for _ in range(rng.randint(n, 3 * n)):
        p, q = rng.choice(states), rng.choice(states)
        sym = rng.choice(alphabet)
        if (p, sym, q) in seen:
            continue
        seen.add((p, sym, q))
        if costs == "nonneg":
            c = round(rng.uniform(0.0, 1.5), 3)
        elif costs == "zero":
            c = 0.0
        else:
            c = round(rng.uniform(-1.0, 1.5), 3)
        transitions.append((p, sym, q, c))
    accepting = rng.sample(states, rng.randint(1, n))
    a = aut(alphabet, states, states[0], accepting, transitions)
    t = trim(a)
    if t.is_empty:
        return aut(["a"], ["z"], "z", ["z"], [("z", "a", "z", 0.25)])
    return t


def random_costed_dfa(seed: int, max_states: int) -> CostAutomaton:
    """Determinized random automaton with seeded nonnegative costs put back:
    determinize returns zero costs, which alone exercise nothing about costs."""
    rng = random.Random(seed)
    dfa = determinize(random_automaton(seed, max_states=max_states, costs="nonneg"))
    edges = sorted((t.source, t.symbol, t.target) for t in dfa.transitions)
    costs = {edge: round(rng.uniform(0.0, 1.5), 3) for edge in edges}
    return dfa.with_costs([costs[(t.source, t.symbol, t.target)] for t in dfa.transitions])


def random_strongly_connected(seed: int, max_states: int = 6) -> CostAutomaton:
    """Strongly connected fixture with a self-loop (aperiodic) and costs
    shifted so the energy is near 0; keeps length-200 partition sums inside
    the double range."""
    rng = random.Random(seed)
    n = rng.randint(2, max_states)
    states = [f"s{i}" for i in range(n)]
    alphabet = ["a", "b"]
    transitions = []
    seen = set()

    def add(p, sym, q):
        if (p, sym, q) not in seen:
            seen.add((p, sym, q))
            transitions.append((p, sym, q, round(rng.uniform(-0.8, 0.8), 3)))

    for i in range(n):  # one full cycle makes it strongly connected
        add(states[i], rng.choice(alphabet), states[(i + 1) % n])
    add(states[0], "a", states[0])  # self-loop kills periodicity
    for _ in range(rng.randint(0, 2 * n)):
        add(rng.choice(states), rng.choice(alphabet), rng.choice(states))

    accepting = rng.sample(states, rng.randint(1, n))
    a = aut(alphabet, states, states[0], accepting, transitions)
    shift = -free_energy(a).energy
    return a.with_costs(a.cost + shift)


def edges_by_source(a: CostAutomaton) -> dict[str, list[Transition]]:
    """a's named transitions grouped by source state, in input order."""
    out: dict[str, list[Transition]] = {}
    for t in a.transitions:
        out.setdefault(t.source, []).append(t)
    return out


def dfa_successors(dfa: CostAutomaton) -> dict[tuple[str, str], str]:
    """(state, symbol) -> target of a deterministic automaton, in input order."""
    return {(t.source, t.symbol): t.target for t in dfa.transitions}


def wide_ring(n: int = 2000, k: int = 1000) -> CostAutomaton:
    """n-state accepting ring over k symbols: q_i reads s_(i mod k) into
    q_(i+1 mod n), so states x symbols is far larger than the n transitions."""
    names = [f"q{i}" for i in range(n)]
    symbols = [f"s{y}" for y in range(k)]
    steps = [(q, symbols[i % k], names[(i + 1) % n]) for i, q in enumerate(names)]
    return aut(symbols, names, "q0", names, steps)


def reference_trim(a: CostAutomaton) -> CostAutomaton:
    """trim by two walks over every state and edge: forward from the
    initial state and backward from the accepting states."""
    if a.is_empty:
        return EMPTY
    n = len(a.state_names)
    forward = automata._reach(n, a.src, a.dst, [a.start] if a.start >= 0 else [])
    live = forward & automata._reach(n, a.dst, a.src, np.flatnonzero(a.accepting_mask).tolist())
    if live.all():
        return a
    return automata.keep_states(a, live) if live.any() else EMPTY


def all_accepting(a: CostAutomaton) -> CostAutomaton:
    return CostAutomaton.create(
        sorted(a.alphabet), sorted(a.states), a.initial, sorted(a.states), a.transitions
    )


# ---------------------------------------------------------------------------
# enumeration oracles (explicit walks; no DP, no matrices)


def enum_run_sum(a: CostAutomaton, n: int, kind: str) -> float:
    """Sum of e^{run cost} over length-n runs by explicit path extension."""
    if kind == "runs_all":
        frontier = {s: 1.0 for s in a.states}
    else:
        frontier = {a.initial: 1.0} if a.initial is not None else {}
    weights = dict(frontier)
    edges = edges_by_source(a)
    for _ in range(n):
        nxt: dict[str, float] = {}
        for state, w in weights.items():
            for t in edges.get(state, ()):
                nxt[t.target] = nxt.get(t.target, 0.0) + w * math.exp(t.cost)
        weights = nxt
    if kind == "runs_all":
        return sum(weights.values())
    return sum(w for s, w in weights.items() if s in a.accepting)


def enum_paths_run_sum(a: CostAutomaton, n: int, kind: str) -> float:
    """Same sum as enum_run_sum but by literally enumerating every path."""
    starts = sorted(a.states) if kind == "runs_all" else [a.initial]
    total = 0.0
    stack = [(s, 0, 0.0) for s in starts if s is not None]
    edges = edges_by_source(a)
    while stack:
        state, depth, cost = stack.pop()
        if depth == n:
            if kind == "runs_all" or state in a.accepting:
                total += math.exp(cost)
            continue
        for t in edges.get(state, ()):
            stack.append((t.target, depth + 1, cost + t.cost))
    return total


def enum_words(a: CostAutomaton, max_len: int):
    """All accepted words of length <= max_len, by exhaustive alphabet walk."""
    syms = sorted(a.alphabet)
    out = []
    for n in range(max_len + 1):
        for w in itertools.product(syms, repeat=n):
            if accepts(a, w):
                out.append(w)
    return out


def enum_word_sum(dfa: CostAutomaton, u: PairCostFunction, n: int) -> float:
    syms = sorted(dfa.alphabet)
    total = 0.0
    for w in itertools.product(syms, repeat=n):
        if accepts(dfa, w):
            total += math.exp(word_cost(u, w))
    return total


def enum_accepting_runs(m: CostAutomaton, w) -> list[tuple[tuple[str, ...], float]]:
    """Every accepting run of m on word w, with its total cost."""
    runs = []
    if m.initial is None:
        return runs
    stack = [((m.initial,), 0.0)]
    edges = edges_by_source(m)
    for sym in w:
        nxt = []
        for path, cost in stack:
            for t in edges.get(path[-1], ()):
                if t.symbol == sym:
                    nxt.append((path + (t.target,), cost + t.cost))
        stack = nxt
    for path, cost in stack:
        if path[-1] in m.accepting:
            runs.append((path, cost))
    return runs


def enum_count_f_g(a: CostAutomaton, max_n: int) -> tuple[list[int], list[int]]:
    """f(n), g(n) by explicit enumeration: g counts accepted words of
    length <= n, f counts initialized runs over those words."""
    syms = sorted(a.alphabet)
    f = [0] * (max_n + 1)
    g = [0] * (max_n + 1)
    edges = edges_by_source(a)
    for n in range(max_n + 1):
        for w in itertools.product(syms, repeat=n):
            if not accepts(a, w):
                continue
            g[n] += 1
            count = {a.initial: 1} if a.initial is not None else {}
            for sym in w:
                nxt: dict[str, int] = {}
                for state, c in count.items():
                    for t in edges.get(state, ()):
                        if t.symbol == sym:
                            nxt[t.target] = nxt.get(t.target, 0) + c
                count = nxt
            f[n] += sum(count.values())
    # cumulative, matching the library's <= n reading
    for n in range(1, max_n + 1):
        f[n] += f[n - 1]
        g[n] += g[n - 1]
    return f, g


# ---------------------------------------------------------------------------
# log-domain and tropical references (edge-array sweeps; no library DP or
# solver code)


def log_run_sums(a: CostAutomaton, kind: str, max_n: int) -> list[float]:
    """ln S_n for n = 1..max_n (-inf where S_n = 0), S_n being
    ``run_partition_series``' run sum of that kind.  Each step takes a
    logsumexp per state over the edges into it, so no sum leaves the double
    range whatever the costs."""
    n = len(a.state_names)
    log_v = np.zeros(n) if kind == "runs_all" else np.full(n, -math.inf)
    if kind == "runs_accepting" and a.start >= 0:
        log_v[a.start] = 0.0
    ends = np.ones(n, dtype=bool) if kind == "runs_all" else a.accepting_mask
    out = []
    with np.errstate(divide="ignore"):  # ln 0 = -inf is the empty sum
        for _ in range(max_n):
            flow = log_v[a.src] + a.cost
            peak = np.full(n, -math.inf)
            np.maximum.at(peak, a.dst, flow)
            shift = np.where(np.isfinite(peak), peak, 0.0)
            total = np.zeros(n)
            np.add.at(total, a.dst, np.exp(flow - shift[a.dst]))
            log_v = shift + np.log(total)
            top = log_v[ends].max(initial=-math.inf)
            out.append(top + math.log(np.exp(log_v[ends] - top).sum()) if top > -math.inf else -math.inf)
    return out


def max_cycle_mean(a: CostAutomaton, component) -> tuple[float, int]:
    """Karp's maximum cycle mean over a's edges inside the strongly
    connected state set ``component`` (names), and the largest out-degree
    there, counting parallel edges.  D_k(v), the largest cost of a k-edge
    walk from one fixed state to v, takes O(n m) for k = 0..n, and the mean
    is max over v of min over k of (D_n(v) - D_k(v)) / (n - k) (R. M. Karp,
    Discrete Math. 23, 1978)."""
    edges = [(t.source, t.target, t.cost) for t in a.transitions if {t.source, t.target} <= component]
    nodes = sorted(component)
    walks = [dict.fromkeys(nodes, -math.inf) for _ in range(len(nodes) + 1)]
    walks[0][nodes[0]] = 0.0
    for before, after in zip(walks, walks[1:]):
        for p, q, c in edges:
            after[q] = max(after[q], before[p] + c)
    n, last = len(nodes), walks[-1]
    mean = max(
        min((last[v] - walks[k][v]) / (n - k) for k in range(n) if walks[k][v] > -math.inf)
        for v in nodes if last[v] > -math.inf
    )
    return mean, max(Counter(p for p, _, _ in edges).values())


def cycle_mean_brackets(a: CostAutomaton, form: str) -> list[tuple[float, float, float]]:
    """(mu_C, E_C, mu_C + ln d_C) for each cyclic component C that
    ``free_energy(a, form)`` reports: its maximum cycle mean, its energy and
    the top of the bracket that Perron-Frobenius theory puts E_C in."""
    report = free_energy(a, form=form)
    out = []
    for (component, energy), solved in zip(report.per_component, report.solver):
        if solved is not None:
            mean, degree = max_cycle_mean(a, component)
            out.append((mean, energy, mean + math.log(degree)))
    return out
