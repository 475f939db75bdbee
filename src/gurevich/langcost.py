"""Pair-cost functions on words and the implements relation.

A pair cost U assigns a real cost to each ordered symbol pair; the total
cost of a word is the sum over its adjacent pairs (0 for words of length
at most 1).  A cost automaton (M, V) implements (L, U) when M accepts L
and every accepting run's total transition cost equals its word's total
pair cost, for words of length at least 2.

implement_construction builds, from any DFA for L, a DFA whose transition
costs realize U exactly: states remember the transition just taken, so the
next symbol's edge can charge U(previous symbol, next symbol).  Its free
energy is therefore the free energy of the language itself, which is how
language_energy computes the word-sum growth rate without any word sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import automata, energy
from .automata import CostAutomaton
from .energy import EnergyReport
from .errors import NotDeterministic, UnknownSymbol

__all__ = [
    "PairCostFunction",
    "ImplementsReport",
    "Counterexample",
    "word_cost",
    "implement_construction",
    "verify_implements",
    "language_energy",
    "COST_TOLERANCE",
]

# exact-cost comparison tolerance: costs pass through sums only
COST_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PairCostFunction:
    """U: ordered symbol pair -> real cost; unlisted pairs get ``default``.

    ``alphabet`` may be None; when it is a set, cost lookups on symbols
    outside it raise UnknownSymbol (the CLI binds it to the companion
    automaton's alphabet at load time).  Build one with ``create``.
    """

    entries: Mapping[tuple[str, str], float]
    default: float
    alphabet: frozenset[str] | None

    @staticmethod
    def create(
        entries: Mapping[tuple[str, str], float] = {},
        default: float = 0.0,
        alphabet: Iterable[str] | None = None,
    ) -> "PairCostFunction":
        return PairCostFunction(
            entries={(a, b): float(c) for (a, b), c in entries.items()},
            default=float(default),
            alphabet=frozenset(alphabet) if alphabet is not None else None,
        )

    def _check(self, symbol: str) -> None:
        if self.alphabet is not None and symbol not in self.alphabet:
            raise UnknownSymbol(f"symbol {symbol!r} not in the declared alphabet")

    def cost(self, first: str, second: str) -> float:
        self._check(first)
        self._check(second)
        return self.entries.get((first, second), self.default)

    def shifted(self, c: float) -> "PairCostFunction":
        """U + c on every pair (including the default)."""
        return PairCostFunction(
            entries={k: v + c for k, v in self.entries.items()},
            default=self.default + c,
            alphabet=self.alphabet,
        )


class Counterexample(NamedTuple):
    word: tuple[str, ...]
    run: tuple[str, ...] | None     # state sequence, None for words the machine rejects
    word_cost: float | None         # None when the word is not in the reference language
    run_cost: float | None


@dataclass(frozen=True)
class ImplementsReport:
    holds: bool
    checked_up_to: int
    counterexample: Counterexample | None = None


def word_cost(u: PairCostFunction, w: Sequence[str]) -> float:
    """Total cost of a word: sum of U over adjacent pairs; 0 for |w| <= 1."""
    for s in w:
        u._check(s)
    return sum(u.cost(w[i], w[i + 1]) for i in range(len(w) - 1))


def implement_construction(dfa: CostAutomaton, u: PairCostFunction) -> CostAutomaton:
    """DFA whose transition costs realize the pair cost U on L(dfa).

    States are the start state plus one state per input transition; being
    "in" transition (p, a, q) means q was reached by reading a, so the edge
    for a following symbol b can charge exactly U(a, b).  Entry edges cost
    0, matching the 0 cost of length-1 words; state (p, a, q) accepts iff q
    accepts, and the start accepts iff it did, so the language is preserved
    for every length including the empty word.  The word-to-accepting-run
    map is one-to-one.  States are named ``(p,a,q)`` and the start keeps
    its name; where two names would coincide, the names inside just those
    get their backslashes, ``(``, ``,`` and ``)`` escaped.
    """
    if not dfa.deterministic:
        raise NotDeterministic("input must be deterministic")
    dfa = automata.trim(dfa)
    if dfa.is_empty:
        return automata.EMPTY

    names, symbols, start = dfa.state_names, dfa.symbols, dfa.start
    # state 0 is the start and state e + 1 is transition e, named (p,a,q)
    rows = [(names[start],)] + [
        (names[p], symbols[y], names[q])
        for p, y, q in zip(dfa.src.tolist(), dfa.sym.tolist(), dfa.dst.tolist())
    ]

    def label(row: Sequence[str]) -> str:
        return "(" + ",".join(row) + ")" if len(row) == 3 else row[0]

    labels = automata._unique_names(
        [label(row) for row in rows],
        lambda e: label([automata._escape(name, "(,)") for name in rows[e]]),
    )

    # entry edges: start -> (start, a, q) at cost 0; then (p, a, q) -> (q, b, r)
    # for every transition q -b-> r, charging U(a, b); both in input order
    order, indptr = automata.by_source_rows(len(names), dfa.src)
    entry = order[indptr[start] : indptr[start + 1]]
    fanout = indptr[dfa.dst + 1] - indptr[dfa.dst]
    first = np.repeat(np.arange(len(dfa.src)), fanout)
    then = order[automata.spans(indptr[dfa.dst], fanout)]
    k = len(symbols)
    pairs = (dfa.sym[first] * k + dfa.sym[then]).tolist()
    pair_cost = {c: u.cost(symbols[c // k], symbols[c % k]) for c in sorted(set(pairs))}

    targets = np.concatenate((entry, then))
    return automata._sorted_automaton(
        labels,
        symbols,
        dfa.accepting_mask[np.append(start, dfa.dst)],
        np.concatenate((np.zeros(len(entry), dtype=np.intp), first + 1)),
        dfa.sym[targets],
        targets + 1,
        np.array([0.0] * len(entry) + [pair_cost[c] for c in pairs]),
    )


def verify_implements(
    m: CostAutomaton,
    dfa_for_l: CostAutomaton,
    u: PairCostFunction,
    max_len: int,
) -> ImplementsReport:
    """Check (m, costs of m) implements (L(dfa_for_l), u) up to word length max_len.

    Walks all words in breadth-first lexicographic order while either side
    is still alive, so the first reported failure is deterministic.  Two
    failure shapes: the languages disagree on a word, or some accepting run
    of m costs differently (beyond 1e-9) from the word's pair cost; either
    becomes the counterexample.  Failures are data, never exceptions.
    ``max_len`` 0 checks the empty word alone; below 0 is a ValueError.
    Runs are carried as tuples of state indices and named only for the
    counterexample.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be non-negative, got {max_len}")
    alphabet = sorted(m.alphabet | dfa_for_l.alphabet)
    dfa_for_l = automata.trim(dfa_for_l)
    if not dfa_for_l.deterministic:
        dfa_for_l = automata.determinize(dfa_for_l)  # costs play no role on the L side

    # m's (target, cost) edges keyed by (source, symbol name) in input order
    edges: dict[tuple[int, str], list[tuple[int, float]]] = {}
    for s, y, d, c in zip(m.src.tolist(), m.sym.tolist(), m.dst.tolist(), m.cost.tolist()):
        edges.setdefault((s, m.symbols[y]), []).append((d, c))
    l_width = len(dfa_for_l.symbols)
    l_symbol = {name: y for y, name in enumerate(dfa_for_l.symbols)}
    l_step = automata.successors(dfa_for_l, l_width)
    m_accepting, l_accepting = m.accepting_mask.tolist(), dfa_for_l.accepting_mask.tolist()

    def named(run: tuple[int, ...]) -> tuple[str, ...]:
        return tuple(m.state_names[s] for s in run)

    # frontier entry: (word, m-runs keyed by state then exact cost, dfa state or -1)
    start_runs = {} if m.is_empty or m.start < 0 else {m.start: {0.0: (m.start,)}}
    frontier: list[tuple[tuple[str, ...], dict, int]] = [((), start_runs, dfa_for_l.start)]

    for length in range(0, max_len + 1):
        next_frontier = []
        for word, runs, d_state in frontier:
            in_m = any(m_accepting[state] for state in runs)
            in_l = d_state >= 0 and l_accepting[d_state]
            if in_m != in_l:
                if in_m:
                    state = next(s for s in sorted(runs) if m_accepting[s])
                    cost, run = sorted(runs[state].items())[0]
                    ce = Counterexample(word, named(run), None, cost)
                else:
                    ce = Counterexample(word, None, word_cost(u, word), None)
                return ImplementsReport(False, max_len, ce)
            if in_m and len(word) >= 2:
                target = word_cost(u, word)
                for state in sorted(runs):
                    if not m_accepting[state]:
                        continue
                    for cost, run in sorted(runs[state].items()):
                        if abs(cost - target) > COST_TOLERANCE:
                            return ImplementsReport(
                                False, max_len, Counterexample(word, named(run), target, cost)
                            )
            if length == max_len:
                continue
            for sym in alphabet:
                new_runs: dict[int, dict[float, tuple[int, ...]]] = {}
                for state, by_cost in runs.items():
                    for nxt, step_cost in edges.get((state, sym), ()):
                        bucket = new_runs.setdefault(nxt, {})
                        for cost, run in by_cost.items():
                            bucket.setdefault(cost + step_cost, run + (nxt,))
                stepped = d_state >= 0 and sym in l_symbol
                new_d = l_step[d_state * l_width + l_symbol[sym]] if stepped else -1
                if new_runs or new_d >= 0:
                    next_frontier.append((word + (sym,), new_runs, new_d))
        frontier = next_frontier
    return ImplementsReport(True, max_len, None)


def language_energy(dfa: CostAutomaton, u: PairCostFunction) -> EnergyReport:
    """Free energy of (L(dfa), u), the computable route to the word-sum rate,
    by ``free_energy``'s defaults; for other settings call
    ``free_energy(implement_construction(dfa, u), ...)``."""
    return energy.free_energy(implement_construction(dfa, u))
