"""Seeded workloads: JSON documents, CLI argument lists and output checks.

A workload is a fixed list of queries.  Each query is one ``gurevich``
command line over documents this module writes from ``--seed``; the
program sees only those documents.  Each query also carries a check that
compares the command's output with a value from ``reference``, which
never imports the package under test.  The seed changes the graphs, costs
and state names, never the sizes, so every seed asks for the same amount
of work.

Every workload runs all six subcommands, so every layer does measurable
work on every workload; the sizes decide which layers dominate.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import reference as ref

WORKLOADS = ("large_sparse", "slow_mixing", "oracles")

ENERGY_TOL = 1e-9  # absolute: energies near 0 make a relative test meaningless
SERIES_RTOL = 1e-9


@dataclass(frozen=True)
class Query:
    name: str
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]  # stdout -> problems, empty when correct
    known_failure: str = ""  # non-empty for probes that fail at the seed commit


@dataclass
class Graph:
    """Automaton over integer states 0..n-1 and symbols 0..n_sym-1."""

    n: int
    n_sym: int
    src: list[int] = field(default_factory=list)
    sym: list[int] = field(default_factory=list)
    dst: list[int] = field(default_factory=list)
    cost: list[float] = field(default_factory=list)
    initial: int = 0
    accepting: list[int] | None = None  # None: every state accepts

    def add(self, s: int, a: int, t: int, c: float) -> None:
        self.src.append(s)
        self.sym.append(a)
        self.dst.append(t)
        self.cost.append(c)

    @property
    def final(self) -> list[int]:
        return list(range(self.n)) if self.accepting is None else self.accepting


class Writer:
    """Writes a workload's documents into one directory, with seeded names."""

    def __init__(self, workdir: str, rng: random.Random):
        self.workdir = workdir
        self.rng = rng

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, doc: dict) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(doc) + "\n")
        return path

    def names(self, n: int) -> list[str]:
        perm = list(range(n))
        self.rng.shuffle(perm)
        return [f"q{p}" for p in perm]

    def automaton(self, name: str, g: Graph, symbols: list[str] | None = None) -> tuple[str, list[str]]:
        states = self.names(g.n)
        symbols = symbols or [f"x{i}" for i in range(g.n_sym)]
        doc = {
            "alphabet": symbols,
            "states": states,
            "initial": states[g.initial],
            "accepting": [states[q] for q in g.final],
            "transitions": [
                {"from": states[s], "symbol": symbols[a], "to": states[t], "cost": c}
                for s, a, t, c in zip(g.src, g.sym, g.dst, g.cost)
            ],
        }
        return self.write(name, doc), states


# ---------------------------------------------------------------- generators


def random_graph(rng: random.Random, n: int, degree: int, n_sym: int, lo: float = -1.0,
                 hi: float = 1.0, deterministic: bool = False, cycle_symbol: int | None = None) -> Graph:
    """Strongly connected: edge i -> i+1 on every state (on ``cycle_symbol``
    when given, else on a random symbol), plus random edges."""
    g = Graph(n, n_sym)
    for i in range(n):
        out: dict[tuple[int, int], None] = {}
        a = rng.randrange(n_sym) if cycle_symbol is None else cycle_symbol
        out[(a, (i + 1) % n)] = None
        while len(out) < degree:
            a, t = rng.randrange(n_sym), rng.randrange(n)
            if deterministic and any(a == b for b, _ in out):
                continue
            out[(a, t)] = None
        for a, t in out:
            g.add(i, a, t, rng.uniform(lo, hi))
    return g


def regular_graph(rng: random.Random, n: int, degree: int, cost: float) -> Graph:
    """Out-degree exactly ``degree`` everywhere, one cost on every edge."""
    g = Graph(n, 1)
    for i in range(n):
        targets = {(i + 1) % n}
        while len(targets) < degree:
            targets.add(rng.randrange(n))
        for t in sorted(targets):
            g.add(i, 0, t, cost)
    return g


def complete_dfa(rng: random.Random, n: int, n_sym: int) -> Graph:
    """Every state has one successor per symbol; symbol 0 walks a Hamiltonian cycle."""
    g = Graph(n, n_sym)
    for i in range(n):
        g.add(i, 0, (i + 1) % n, 0.0)
        for a in range(1, n_sym):
            g.add(i, a, rng.randrange(n), 0.0)
    return g


def chord_cycle(n: int, cost: float, chord_symbol: int) -> Graph:
    """Cycle 0 -> 1 -> ... -> n-1 -> 0 on symbol 0 plus a chord 0 -> 2.

    The two cycles have lengths n and n - 1, so the component mixes slowly.
    """
    g = Graph(n, 2)
    for i in range(n):
        g.add(i, 0, (i + 1) % n, cost)
    g.add(0, chord_symbol, 2, cost)
    return g


def chain_of_cycles(rng: random.Random, k: int) -> Graph:
    """k three-state components in a row, each with a chord, linked forward."""
    g = Graph(3 * k, 2)
    for c in range(k):
        a, b, d = 3 * c, 3 * c + 1, 3 * c + 2
        for s, t in ((a, b), (b, d), (d, a), (a, d)):
            g.add(s, rng.randrange(2), t, rng.uniform(-1.0, 1.0))
        if c + 1 < k:
            g.add(d, 1, 3 * (c + 1), rng.uniform(-1.0, 1.0))
    return g


def blowup_nfa(k: int) -> Graph:
    """(a|b)* a (a|b)^k: determinizing it needs 2^(k+1) subsets."""
    g = Graph(k + 2, 2)
    g.add(0, 0, 0, 0.0)
    g.add(0, 1, 0, 0.0)
    g.add(0, 0, 1, 0.0)
    for i in range(1, k + 1):
        g.add(i, 0, i + 1, 0.0)
        g.add(i, 1, i + 1, 0.0)
    g.accepting = [k + 1]
    return g


def product_graph(g1: Graph, g2: Graph) -> Graph:
    """Reachable pairs on shared symbols, summed costs; both inputs all-accepting."""
    out1: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for s, a, t, c in zip(g1.src, g1.sym, g1.dst, g1.cost):
        out1.setdefault((s, a), []).append((t, c))
    out2: dict[int, list[tuple[int, int, float]]] = {}
    for s, a, t, c in zip(g2.src, g2.sym, g2.dst, g2.cost):
        out2.setdefault(s, []).append((a, t, c))
    start = (g1.initial, g2.initial)
    index = {start: 0}
    queue = [start]
    edges = []
    while queue:
        p, q = queue.pop()
        for a, q2, c2 in out2.get(q, ()):
            for p2, c1 in out1.get((p, a), ()):
                nxt = (p2, q2)
                if nxt not in index:
                    index[nxt] = len(index)
                    queue.append(nxt)
                edges.append((index[(p, q)], a, index[nxt], c1 + c2))
    g = Graph(len(index), max(g1.n_sym, g2.n_sym))
    for e in edges:
        g.add(*e)
    return g


# ------------------------------------------------------------------- checks


def _json(stdout: str, problems: list[str]) -> dict | None:
    try:
        return json.loads(stdout)
    except ValueError:
        problems.append(f"output is not JSON: {stdout[:80]!r}")
        return None


def _close(problems: list[str], label: str, got, want: float, tol: float = ENERGY_TOL) -> None:
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        problems.append(f"{label}: got {got!r}, want {want!r}")


def _equal(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, want {want!r}")


def _check_series(problems: list[str], doc: dict, sums: list[float], window: int) -> None:
    values = doc.get("values", [])
    _equal(problems, "series length", len(values), len(sums))
    for (n, got), want in zip(values, sums):
        if not abs(got - want) <= SERIES_RTOL * abs(want):
            problems.append(f"S_{n}: got {got!r}, want {want!r}")
            break
    est, spread = ref.estimate(sums, min(window, len(sums)))
    _close(problems, "estimate", doc.get("estimate"), est)
    _close(problems, "spread", doc.get("spread"), spread)


def _energy_check(want: float, components: int | None = None) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        problems: list[str] = []
        doc = _json(stdout, problems)
        if doc is not None:
            _close(problems, "energy", doc.get("energy"), want)
            if components is not None:
                _equal(problems, "components", len(doc.get("per_component", [])), components)
        return problems

    return check


def _fields_check(want: dict) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        problems: list[str] = []
        doc = _json(stdout, problems)
        if doc is not None:
            for key, value in want.items():
                if isinstance(value, float):
                    _close(problems, key, doc.get(key), value)
                else:
                    _equal(problems, key, doc.get(key), value)
        return problems

    return check


# ----------------------------------------------------------------- families
# Each family writes its documents and returns one Query.


def q_energy_random(w: Writer, name: str, n: int, degree: int, n_sym: int) -> Query:
    g = random_graph(w.rng, n, degree, n_sym)
    path, _ = w.automaton(f"{name}.json", g)
    want = ref.max_log_radius(g.n, g.src, g.dst, g.cost)
    return Query(name, ("energy", path, "--json"), _energy_check(want))


def q_energy_chain(w: Writer, name: str, k: int) -> Query:
    g = chain_of_cycles(w.rng, k)
    path, _ = w.automaton(f"{name}.json", g)
    m = ref.weight_matrix(g.n, g.src, g.dst, g.cost)
    want = max(ref.component_log_radii(m))
    return Query(name, ("energy", path, "--json"), _energy_check(want, ref.component_count(m)))


def q_energy_chord(w: Writer, name: str, n: int, cost: float, known_failure: str = "") -> Query:
    g = chord_cycle(n, cost, chord_symbol=1)
    path, _ = w.automaton(f"{name}.json", g)
    want = cost + ref.chord_log_root(n)
    return Query(name, ("energy", path, "--json"), _energy_check(want), known_failure)


def q_nondet_chord(w: Writer, name: str, n: int) -> Query:
    """Chord on the cycle's own symbol: state 0 branches, and the branching
    cost ln 2 on both of its edges halves the generating function."""
    g = chord_cycle(n, w.rng.uniform(-1.0, 1.0), chord_symbol=0)
    path, _ = w.automaton(f"{name}.json", g)
    zero = ref.chord_log_root(n)
    branching = ref.chord_log_root(n, 0.5)
    want = {"energy_zero": zero, "energy_v": branching, "lambda_plus": branching - zero}
    return Query(name, ("nondet", path, "--json"), _fields_check(want))


def q_nondet_blowup(w: Writer, name: str, k: int) -> Query:
    path, _ = w.automaton(f"{name}.json", blowup_nfa(k), symbols=["a", "b"])
    want = {
        "energy_zero": math.log(2.0),
        "energy_v": math.log(3.0),
        "lambda_plus": math.log(1.5),
        "lambda_exact": 0.0,
        "dfa_states": 2 ** (k + 1),
    }
    return Query(name, ("nondet", path, "--exact", "--json"), _fields_check(want))


def q_similarity(w: Writer, name: str, n: int, n_sym: int) -> Query:
    """Two random complete DFAs of n and n + 1 states.  Both walk a
    Hamiltonian cycle on symbol 0, and the cycle lengths are coprime, so
    the product reaches all n (n + 1) pairs on every seed.  Costs lean
    positive so every energy is carried by a cycle, whatever convention
    loop-free components follow."""
    g1 = random_graph(w.rng, n, n_sym, n_sym, -0.5, 1.0, deterministic=True, cycle_symbol=0)
    g2 = random_graph(w.rng, n + 1, n_sym, n_sym, -0.5, 1.0, deterministic=True, cycle_symbol=0)
    p1, _ = w.automaton(f"{name}-1.json", g1)
    p2, _ = w.automaton(f"{name}-2.json", g2)
    prod = product_graph(g1, g2)
    delta = ref.max_log_radius(prod.n, prod.src, prod.dst, prod.cost)
    e1 = ref.max_log_radius(g1.n, g1.src, g1.dst, g1.cost)
    e2 = ref.max_log_radius(g2.n, g2.src, g2.dst, g2.cost)
    if min(delta, e1, e2) <= 0.0:
        raise ValueError(f"{name}: generator produced a non-positive energy")
    want = {
        "delta": delta,
        "energy_1": e1,
        "energy_2": e2,
        "product_states": prod.n,
        "normalized": min(delta / (e1 + e2), 1.0),
    }
    return Query(name, ("similarity", p1, p2, "--json"), _fields_check(want))


def q_implement(w: Writer, name: str, n: int, degree: int, n_sym: int, samples: int = 32) -> Query:
    g = random_graph(w.rng, n, degree, n_sym, deterministic=True)
    symbols = [f"x{i}" for i in range(n_sym)]
    dfa_path, states = w.automaton(f"{name}-dfa.json", g, symbols)
    pair = [[w.rng.uniform(-1.0, 1.0) for _ in range(n_sym)] for _ in range(n_sym)]
    cost_path = w.write(f"{name}-pairs.json", {
        "pairs": [
            {"first": symbols[a], "second": symbols[b], "cost": pair[a][b]}
            for a in range(n_sym) for b in range(n_sym)
        ],
        "default": 0.0,
    })
    out_path = w.path(f"{name}-out.json")
    degree_of = [0] * g.n
    for s in g.src:
        degree_of[s] += 1
    want_states = 1 + len(g.src)
    want_transitions = degree_of[g.initial] + sum(degree_of[t] for t in g.dst)
    step = {(s, a): t for s, a, t in zip(g.src, g.sym, g.dst)}
    words = []
    for _ in range(samples):  # seeded walks: accepted words with their pair-cost totals
        q, word = g.initial, []
        for _ in range(w.rng.randrange(2, 40)):
            a = w.rng.choice([b for b in range(n_sym) if (q, b) in step])
            word.append(a)
            q = step[(q, a)]
        words.append(([symbols[a] for a in word],
                      sum(pair[a][b] for a, b in zip(word, word[1:]))))

    def check(stdout: str) -> list[str]:
        problems: list[str] = []
        _equal(problems, "stdout", stdout.strip(),
               f"states {want_states} transitions {want_transitions}")
        try:
            with open(out_path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            return problems + [f"cannot re-read {out_path}: {e}"]
        _equal(problems, "written states", len(doc["states"]), want_states)
        _equal(problems, "written transitions", len(doc["transitions"]), want_transitions)
        moves = {(t["from"], t["symbol"]): (t["to"], t["cost"]) for t in doc["transitions"]}
        accepting = set(doc["accepting"])
        for word, want in words:
            q, total = doc["initial"], 0.0
            for a in word:
                if (q, a) not in moves:
                    problems.append(f"word {word} has no run")
                    break
                q, c = moves[(q, a)]
                total += c
            else:
                _close(problems, f"cost of {' '.join(word)}", total, want)
                if q not in accepting:
                    problems.append(f"word {word} is rejected")
        return problems

    return Query(name, ("implement", dfa_path, cost_path, out_path), check)


def q_oracle_runs(w: Writer, name: str, n: int, degree: int, n_sym: int, horizon: int,
                  accepting_runs: bool) -> Query:
    """Costs shifted by the graph's energy so the sums stay in range."""
    g = random_graph(w.rng, n, degree, n_sym)
    shift = ref.max_log_radius(g.n, g.src, g.dst, g.cost) + w.rng.uniform(-0.05, 0.05)
    g.cost = [c - shift for c in g.cost]
    if accepting_runs:
        g.accepting = sorted(w.rng.sample(range(n), n // 2))
        sums = ref.run_series(g.n, g.src, g.dst, g.cost, horizon, g.initial, g.accepting)
        kind = "accepting-runs"
    else:
        sums = ref.run_series(g.n, g.src, g.dst, g.cost, horizon)
        kind = "runs"
    path, _ = w.automaton(f"{name}.json", g)
    argv = ("oracle", path, "--kind", kind, "--max-n", str(horizon), "--json")
    return Query(name, argv, _series_check(sums, 10))


def q_oracle_uniform_runs(w: Writer, name: str, n: int, degree: int, horizon: int) -> Query:
    cost = -math.log(degree) + w.rng.uniform(-0.02, 0.02)
    g = regular_graph(w.rng, n, degree, cost)
    path, _ = w.automaton(f"{name}.json", g)
    sums = ref.uniform_run_series(n, degree, cost, horizon)
    argv = ("oracle", path, "--kind", "runs", "--max-n", str(horizon), "--json")
    return Query(name, argv, _series_check(sums, 10))


def q_oracle_words(w: Writer, name: str, n: int, n_sym: int, horizon: int, uniform: bool) -> Query:
    """Pair costs centred on -ln(n_sym), so the word sums stay in range."""
    g = complete_dfa(w.rng, n, n_sym)
    symbols = [f"x{i}" for i in range(n_sym)]
    base = -math.log(n_sym)
    if uniform:
        u = base + w.rng.uniform(-0.02, 0.02)
        pair = [[u] * n_sym for _ in range(n_sym)]
        sums = ref.uniform_word_series(n_sym, u, horizon)
        entries = []
        default = u
    else:
        g.accepting = sorted(w.rng.sample(range(n), n // 2))
        pair = [[base + w.rng.uniform(-0.3, 0.3) for _ in range(n_sym)] for _ in range(n_sym)]
        sums = ref.word_series(g.n, n_sym, g.src, g.sym, g.dst, pair, g.initial, g.final, horizon)
        entries = [
            {"first": symbols[a], "second": symbols[b], "cost": pair[a][b]}
            for a in range(n_sym) for b in range(n_sym)
        ]
        default = 0.0
    path, _ = w.automaton(f"{name}.json", g, symbols)
    cost_path = w.write(f"{name}-pairs.json", {"pairs": entries, "default": default})
    argv = ("oracle", path, "--kind", "words", "--pair-costs", cost_path,
            "--max-n", str(horizon), "--json")
    return Query(name, argv, _series_check(sums, 10))


def _series_check(sums: list[float], window: int) -> Callable[[str], list[str]]:
    def check(stdout: str) -> list[str]:
        problems: list[str] = []
        doc = _json(stdout, problems)
        if doc is not None:
            _check_series(problems, doc, sums, window)
        return problems

    return check


def q_linlen(w: Writer, name: str, horizon: int) -> Query:
    """{a^n b^2n a^3n} with diagonal pair cost c: energy c, S_6m = e^((6m-3)c)."""
    c = round(w.rng.uniform(0.5, 1.5), 6)

    def dfa(states, accepting, moves):
        return {
            "alphabet": ["a", "b"], "states": states, "initial": states[0],
            "accepting": accepting,
            "transitions": [{"from": s, "symbol": a, "to": t} for s, a, t in moves],
        }

    base = dfa(["s0", "s1", "s2"], ["s0", "s1", "s2"],
               [("s0", "a", "s0"), ("s0", "b", "s1"), ("s1", "b", "s1"),
                ("s1", "a", "s2"), ("s2", "a", "s2")])
    a_star = dfa(["A"], ["A"], [("A", "a", "A")])
    b_star = dfa(["B"], ["B"], [("B", "b", "B")])
    path = w.write(f"{name}.json", {
        "base": base,
        "parts": [a_star, b_star, a_star],
        "lengths": {"offset": [1, 2, 3], "periods": [[1, 2, 3]]},
        "pair_cost": {"pairs": [{"first": "a", "second": "a", "cost": c},
                                {"first": "b", "second": "b", "cost": c}]},
    })
    sums = ref.linlen_abba_series(c, horizon)

    def check(stdout: str) -> list[str]:
        problems: list[str] = []
        doc = _json(stdout, problems)
        if doc is not None:
            _close(problems, "energy", doc.get("energy"), c)
            _check_series(problems, doc.get("oracle", {}), sums, 12)
        return problems

    return Query(name, ("linlen", path, "--oracle-check", str(horizon), "--json"), check)


# ---------------------------------------------------------------- workloads

OVERFLOW = "exit 3 Overflow: e^cost leaves the double range at cost >= 710"
DOMAIN = "exit 2 ValueError: e^cost underflows to 0, then ln 0 (math domain error)"


LIGHT = {
    "energy": lambda w: q_energy_random(w, "light_energy", 200, 4, 2),
    "nondet_exact": lambda w: q_nondet_blowup(w, "light_nondet_exact", 4),
    "similarity": lambda w: q_similarity(w, "light_similarity", 10, 2),
    "implement": lambda w: q_implement(w, "light_implement", 50, 2, 3),
    "oracle_runs": lambda w: q_oracle_runs(w, "light_oracle_runs", 100, 4, 2, 60, accepting_runs=True),
    "oracle_words": lambda w: q_oracle_words(w, "light_oracle_words", 30, 2, 60, uniform=False),
    "linlen": lambda w: q_linlen(w, "light_linlen", 18),
}


def light(w: Writer, *families: str) -> list[Query]:
    """Small queries for the subcommands a workload does not stress."""
    return [LIGHT[f](w) for f in families]


def build(workload: str, seed: int, workdir: str) -> tuple[list[Query], list[Query]]:
    """(timed queries, probes).  Probes run once per run, outside the timed
    passes: they are the ROADMAP inputs that fail at the seed commit."""
    rng = random.Random(f"{workload}/{seed}")
    w = Writer(workdir, rng)
    probes: list[Query] = []
    if workload == "large_sparse":
        queries = [
            q_energy_random(w, "energy_sparse_1000", 1000, 8, 4),
        ] + [
            # five of one size, with six faster queries and four slower: the
            # pooled median lands inside this group, not at its edge
            q_energy_random(w, f"energy_sparse_2000_{i}", 2000, 8, 4) for i in range(5)
        ] + [
            q_energy_random(w, "energy_sparse_3000", 3000, 8, 4),
            q_energy_chain(w, "energy_chain_1000", 1000),
            q_similarity(w, "similarity_55x56", 55, 6),
            q_nondet_blowup(w, "nondet_exact_k10", 10),
            q_nondet_blowup(w, "nondet_exact_k11", 11),
            q_implement(w, "implement_2000", 2000, 3, 4),
            # many states, short horizon: the oracle's dense build dominates
            q_oracle_uniform_runs(w, "light_oracle_runs", 2000, 8, 20),
            q_oracle_words(w, "light_oracle_words", 300, 3, 20, uniform=False),
        ] + light(w, "linlen")
    elif workload == "slow_mixing":
        queries = [
            q_energy_chord(w, f"energy_chord_{n}", n, w.rng.uniform(-0.05, 0.05))
            for n in range(50, 57)
        ] + [
            q_nondet_chord(w, f"nondet_chord_{n}", n) for n in (50, 60)
        ] + light(w, "nondet_exact", "similarity", "implement", "oracle_runs", "oracle_words", "linlen")
        probes = [
            q_energy_chord(w, "probe_chord_60_cost+800", 60, 800.0, OVERFLOW),
            q_energy_chord(w, "probe_chord_60_cost-800", 60, -800.0, DOMAIN),
        ]
    elif workload == "oracles":
        queries = [
            q_linlen(w, "linlen_oracle_34", 34),
            q_linlen(w, "linlen_oracle_38", 38),
            q_oracle_uniform_runs(w, "oracle_uniform_runs_1100", 1100, 8, 300),
            q_oracle_runs(w, "oracle_runs_1100", 1100, 8, 4, 300, accepting_runs=False),
            q_oracle_runs(w, "oracle_accepting_runs_1100", 1100, 8, 4, 300, accepting_runs=True),
            q_oracle_words(w, "oracle_words_600", 600, 3, 300, uniform=False),
            q_oracle_words(w, "oracle_uniform_words_600", 600, 3, 300, uniform=True),
        ] + light(w, "energy", "nondet_exact", "similarity", "implement")
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return queries, probes
