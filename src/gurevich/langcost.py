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
from .errors import NotDeterministic, StateCapExceeded, UnknownSymbol

__all__ = [
    "PairCostFunction",
    "ImplementsReport",
    "Counterexample",
    "word_cost",
    "implement_construction",
    "verify_implements",
    "language_energy",
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
    return sum((u.cost(w[i], w[i + 1]) for i in range(len(w) - 1)), 0.0)


def implement_construction(dfa: CostAutomaton, u: PairCostFunction) -> CostAutomaton:
    """DFA whose transition costs realize the pair cost U on L(dfa).

    States are the start state plus one state per input transition; being
    "in" transition (p, a, q) means q was reached by reading a, so the edge
    for a following symbol b can charge exactly U(a, b).  Entry edges cost
    0, matching the 0 cost of length-1 words; state (p, a, q) accepts iff q
    accepts, and the start accepts iff it did, so the language is preserved
    for every length including the empty word.  The word-to-accepting-run
    map is one-to-one.  States are named ``(p,a,q)`` and the start by its
    own name, every state name and symbol inside with its backslashes,
    ``(``, ``,`` and ``)`` escaped, so no two states share a name.
    The output has sum over q of indeg(q) * outdeg(q) transitions plus the
    start's out-edges; past ``automata.PRODUCT_TRANSITION_CAP`` it raises
    StateCapExceeded before allocating them.
    """
    if not dfa.deterministic:
        raise NotDeterministic("input must be deterministic")
    dfa = automata.trim(dfa)
    if dfa.is_empty:
        return automata.EMPTY

    symbols, start = dfa.symbols, dfa.start
    names = [automata._escape(name, "(,)") for name in dfa.state_names]
    letters = [automata._escape(y, "(,)") for y in symbols]
    # state 0 is the start and state e + 1 is transition e, named (p,a,q)
    labels = [names[start]] + [
        f"({names[p]},{letters[y]},{names[q]})"
        for p, y, q in zip(dfa.src.tolist(), dfa.sym.tolist(), dfa.dst.tolist())
    ]
    state, last = np.append(start, dfa.dst), np.append(len(symbols), dfa.sym)
    first, then, costs = _step_graph(dfa, u, state, last, "implement construction")
    accepting, sym = dfa.accepting_mask[state], dfa.sym[then]
    then += 1  # in place: the edge-sized columns are handed over, not copied
    return automata._sorted_automaton(labels, symbols, accepting, first, sym, then, costs)


def _step_graph(dfa: CostAutomaton, u: PairCostFunction, state: np.ndarray, last: np.ndarray, label: str):
    """The pair-cost step graph on the trimmed DFA ``dfa``: node i, at
    ``state[i]`` after reading ``last[i]`` (``len(dfa.symbols)``: nothing
    yet), steps along each transition t out of its state, in ``rows``
    order, at cost U(last[i], sym[t]), or 0 after nothing.  Returns each
    edge's node, transition and cost in node order, the cost looked up by
    symbol index; the costed pairs' symbols are checked against U's
    alphabet once.  Past ``PRODUCT_TRANSITION_CAP`` edges it raises
    StateCapExceeded, led by ``label``, before allocating."""
    order, indptr = automata.rows(len(dfa.state_names), dfa.src)
    fanout = indptr[state + 1] - indptr[state]
    count, cap = int(fanout.sum()), automata.PRODUCT_TRANSITION_CAP
    if count > cap:
        raise StateCapExceeded(
            f"{label} on a trimmed {len(dfa.state_names)}-state, "
            f"{len(dfa.src)}-transition DFA needs {count} transitions, past its cap ({cap})"
        )
    width = len(dfa.symbols) + 1
    read = (fanout > 0) & (last < width - 1)  # the nodes whose edges are costed
    after = np.bincount(state[read], minlength=len(dfa.state_names)) > 0  # and their states
    for y in np.flatnonzero(np.bincount(np.append(last[read], dfa.sym[after[dfa.src]]), minlength=width)).tolist():
        u._check(dfa.symbols[y])
    # U as a step function of the pair key a * width + b: each listed pair's cost on
    # [key, key + 1), the default between, and 0 on the keys after nothing read, which sort last
    index = {y: i for i, y in enumerate(dfa.symbols)}
    listed = sorted((index[a] * width + index[b], c) for (a, b), c in u.entries.items() if a in index and b in index)
    bounds = [key + end for key, _ in listed for end in (0, 1)] + [(width - 1) * width]
    values = np.array([u.default] + [x for _, c in listed for x in (c, u.default)] + [0.0])
    first = np.repeat(np.arange(len(state)), fanout)
    then = order[automata.spans(indptr[state], fanout)]
    step = np.repeat(last * width, fanout)
    step += dfa.sym[then]
    step = np.searchsorted(bounds, step, side="right")  # rebound, so one edge-sized temporary at a time
    return first, then, values[step]


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

    # both sides' edges keyed by (source, symbol name): m's (target, cost)
    # pairs in input order, the dfa's one target
    edges: dict[tuple[int, str], list[tuple[int, float]]] = {}
    for s, y, d, c in zip(m.src.tolist(), m.sym.tolist(), m.dst.tolist(), m.cost.tolist()):
        edges.setdefault((s, m.symbols[y]), []).append((d, c))
    l_names = [dfa_for_l.symbols[y] for y in dfa_for_l.sym.tolist()]
    l_step = dict(zip(zip(dfa_for_l.src.tolist(), l_names), dfa_for_l.dst.tolist()))
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
                new_d = l_step.get((d_state, sym), -1)
                if new_runs or new_d >= 0:
                    next_frontier.append((word + (sym,), new_runs, new_d))
        frontier = next_frontier
    return ImplementsReport(True, max_len, None)


def language_energy(dfa: CostAutomaton, u: PairCostFunction) -> EnergyReport:
    """Free energy of (L(dfa), u), the computable route to the word-sum rate,
    by ``free_energy``'s defaults; for other settings call
    ``free_energy(implement_construction(dfa, u), ...)``."""
    return energy.free_energy(implement_construction(dfa, u))
