"""Finite automata with per-transition real costs.

The data model is the cost automaton M_V: an NFA over a finite alphabet
whose transitions each carry a real cost.  Structural algorithms here are
validation, trimming (clean-up), Tarjan SCC decomposition, subset-construction
determinization and the cost-summing Cartesian product.

All values are immutable; operations return new automata.  The empty
automaton (zero states, ``initial`` is None) is a first-class value: trim
and product return it instead of raising, and every energy computed from
it downstream is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import StateCapExceeded

__all__ = [
    "Transition",
    "CostAutomaton",
    "SccPartition",
    "EMPTY",
    "validate",
    "trim",
    "scc",
    "determinize",
    "product",
    "accepts",
    "map_costs",
    "induced",
]


@dataclass(frozen=True, order=True)
class Transition:
    """One labeled edge (source, symbol, target) with cost V(source, symbol, target).

    The (source, symbol, target) triple is unique within an automaton;
    parallel identical triples are forbidden, so the cost field is a
    well-defined function on transitions.
    """

    source: str
    symbol: str
    target: str
    cost: float = 0.0

    @property
    def triple(self) -> tuple[str, str, str]:
        return (self.source, self.symbol, self.target)


@dataclass(frozen=True)
class CostAutomaton:
    """NFA/DFA with real transition costs.

    ``initial`` is None only for the distinguished empty value.  Transitions
    are kept as a tuple (not a set) so that validate() can still see and
    report duplicate triples in hand-built inputs.
    """

    alphabet: frozenset[str]
    states: frozenset[str]
    initial: str | None
    accepting: frozenset[str]
    transitions: tuple[Transition, ...]

    @staticmethod
    def create(
        alphabet: Iterable[str],
        states: Iterable[str],
        initial: str | None,
        accepting: Iterable[str],
        transitions: Iterable[Transition | tuple],
    ) -> "CostAutomaton":
        """Build from plain iterables; transition 4-tuples are accepted too."""
        trans = tuple(
            t if isinstance(t, Transition) else Transition(t[0], t[1], t[2], float(t[3]) if len(t) > 3 else 0.0)
            for t in transitions
        )
        return CostAutomaton(
            alphabet=frozenset(alphabet),
            states=frozenset(states),
            initial=initial,
            accepting=frozenset(accepting),
            transitions=trans,
        )

    @property
    def is_empty(self) -> bool:
        return not self.states

    @cached_property
    def deterministic(self) -> bool:
        """At most one target per (source, symbol) pair."""
        seen = set()
        for t in self.transitions:
            key = (t.source, t.symbol)
            if key in seen:
                return False
            seen.add(key)
        return True

    @cached_property
    def by_source(self) -> Mapping[str, tuple[Transition, ...]]:
        out: dict[str, list[Transition]] = {s: [] for s in self.states}
        for t in self.transitions:
            out[t.source].append(t)
        return {s: tuple(ts) for s, ts in out.items()}

    @cached_property
    def step_map(self) -> Mapping[tuple[str, str], tuple[str, ...]]:
        """(source, symbol) -> sorted tuple of targets."""
        out: dict[tuple[str, str], list[str]] = {}
        for t in self.transitions:
            out.setdefault((t.source, t.symbol), []).append(t.target)
        return {k: tuple(sorted(v)) for k, v in out.items()}

    def step(self, state: str, symbol: str) -> tuple[str, ...]:
        return self.step_map.get((state, symbol), ())

    def dfa_step(self, state: str, symbol: str) -> str | None:
        """Single successor or None; meaningful on deterministic automata."""
        targets = self.step_map.get((state, symbol), ())
        return targets[0] if targets else None


EMPTY = CostAutomaton(frozenset(), frozenset(), None, frozenset(), ())


def validate(a: CostAutomaton) -> list[str]:
    """Return every violated structural invariant, each naming its offender.

    An empty list means the automaton is well formed.  Violations are data,
    not failures; callers (the CLI in particular) decide what to do.
    """
    violations: list[str] = []
    if a.is_empty:
        if a.initial is not None:
            violations.append(f"unknown initial {a.initial!r} (zero-state automaton)")
        if a.accepting:
            violations.append("accepting states present in zero-state automaton")
        if a.transitions:
            violations.append("transitions present in zero-state automaton")
        return violations

    for name in a.states:
        if not name or any(c.isspace() for c in name):
            violations.append(f"bad state name {name!r}")
    for name in a.alphabet:
        if not name or any(c.isspace() for c in name):
            violations.append(f"bad symbol name {name!r}")

    if a.initial is None:
        violations.append("missing initial state")
    elif a.initial not in a.states:
        violations.append(f"unknown initial {a.initial!r}")
    for q in sorted(a.accepting):
        if q not in a.states:
            violations.append(f"unknown accepting state {q!r}")

    seen: set[tuple[str, str, str]] = set()
    for t in a.transitions:
        if t.source not in a.states:
            violations.append(f"transition from unknown state {t.source!r}")
        if t.target not in a.states:
            violations.append(f"transition to unknown state {t.target!r}")
        if t.symbol not in a.alphabet:
            violations.append(f"transition symbol {t.symbol!r} not in alphabet")
        if t.triple in seen:
            violations.append(f"duplicate transition {t.triple!r}")
        seen.add(t.triple)
    return violations


def edge_arrays(a: CostAutomaton) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """States in sorted name order plus the transitions' (src, dst, cost)
    arrays over that indexing, in transition order, from one pass."""
    names = sorted(a.states)
    index = {name: i for i, name in enumerate(names)}
    src: list[int] = []
    dst: list[int] = []
    cost: list[float] = []
    for t in a.transitions:
        src.append(index[t.source])
        dst.append(index[t.target])
        cost.append(t.cost)
    return (
        names,
        np.array(src, dtype=np.intp),
        np.array(dst, dtype=np.intp),
        np.array(cost, dtype=float),
    )


def adjacency(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[list[int], list[int]]:
    """Row pointers and targets of the int graph on n nodes, every row
    sorted by target index."""
    order = np.lexsort((dst, src))
    indptr = np.searchsorted(src[order], np.arange(n + 1))
    return indptr.tolist(), dst[order].tolist()


def _reach(indptr: list[int], targets: list[int], starts: Iterable[int]) -> bytearray:
    seen = bytearray(len(indptr) - 1)
    stack = []
    for s in starts:
        if not seen[s]:
            seen[s] = 1
            stack.append(s)
    while stack:
        q = stack.pop()
        for t in targets[indptr[q] : indptr[q + 1]]:
            if not seen[t]:
                seen[t] = 1
                stack.append(t)
    return seen


def live_states(a: CostAutomaton, names: list[str], src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Mask over ``names`` (with ``src`` and ``dst``, as edge_arrays gives
    them) of the states reachable from a's initial state and co-reachable
    to an accepting state."""
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    forward = _reach(*adjacency(n, src, dst), [index[a.initial]] if a.initial in index else [])
    backward = _reach(*adjacency(n, dst, src), [index[q] for q in a.accepting])
    return (np.frombuffer(forward, dtype=np.uint8) & np.frombuffer(backward, dtype=np.uint8)) > 0


def trim(a: CostAutomaton) -> CostAutomaton:
    """Clean-up: keep states reachable from initial AND co-reachable to accepting.

    Returns the distinguished empty value when nothing survives (language
    empty); the language is preserved in every case.
    """
    if a.is_empty:
        return EMPTY
    names, src, dst, _ = edge_arrays(a)
    live = live_states(a, names, src, dst)
    if live.all():
        return a
    keep = frozenset(names[i] for i in np.flatnonzero(live).tolist())
    if not keep:
        return EMPTY
    return CostAutomaton(
        alphabet=a.alphabet,
        states=keep,
        initial=a.initial,
        accepting=a.accepting & keep,
        transitions=tuple(t for t in a.transitions if t.source in keep and t.target in keep),
    )


@dataclass(frozen=True)
class SccPartition:
    """Tarjan decomposition: components ordered by first-discovery of their root."""

    components: tuple[frozenset[str], ...]
    component_of: Mapping[str, int]
    is_singleton_without_loop: tuple[bool, ...]


def tarjan(indptr: list[int], targets: list[int]) -> list[list[int]]:
    """Maximal strongly connected components of an int graph (iterative
    Tarjan), ordered by the discovery index of each component's root.

    The DFS starts from nodes in index order and follows each row in the
    order given, so sorted rows make the output deterministic.
    """
    n = len(indptr) - 1
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    found: list[tuple[int, list[int]]] = []  # (root discovery index, members)
    for start in range(n):
        if index[start] >= 0:
            continue
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        on_stack[start] = True
        work = [(start, indptr[start])]  # frames of (node, next row position)
        while work:
            node, pos = work[-1]
            end = indptr[node + 1]
            while pos < end:
                nxt = targets[pos]
                pos += 1
                if index[nxt] < 0:
                    work[-1] = (node, pos)
                    work.append((nxt, indptr[nxt]))
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    break
                if on_stack[nxt] and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if low[node] == index[node]:
                    members = []
                    while True:
                        q = stack.pop()
                        on_stack[q] = False
                        members.append(q)
                        if q == node:
                            break
                    found.append((index[node], members))
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
    found.sort(key=lambda item: item[0])
    return [members for _, members in found]


def scc(a: CostAutomaton) -> SccPartition:
    """Maximal strongly connected components of the named automaton.

    Deterministic: the DFS visits states in sorted name order, and the
    component list is ordered by the discovery index of each component's
    root, so renaming-stable fixtures give stable output.
    """
    if a.is_empty:
        return SccPartition((), {}, ())
    names, src, dst, _ = edge_arrays(a)
    comps = tarjan(*adjacency(len(names), src, dst))
    components = tuple(frozenset(names[i] for i in members) for members in comps)
    component_of = {q: i for i, comp in enumerate(components) for q in comp}
    self_loops = {t.source for t in a.transitions if t.source == t.target}
    flags = tuple(len(comp) == 1 and next(iter(comp)) not in self_loops for comp in components)
    return SccPartition(components, component_of, flags)


def _subset_name(states: frozenset[str]) -> str:
    return "{" + ",".join(sorted(states)) + "}"


def determinize(a: CostAutomaton, state_cap: int = 2**20) -> CostAutomaton:
    """Subset construction.  Result is deterministic, trimmed, zero-cost.

    Costs are discarded (set to 0): determinization is only ever applied to
    M_0, and carrying costs through merged subsets is ill-defined.
    """
    if a.is_empty or a.initial is None:
        return EMPTY
    alphabet = sorted(a.alphabet)
    start = frozenset([a.initial])
    subsets: dict[frozenset[str], str] = {start: _subset_name(start)}
    order = [start]
    transitions: list[Transition] = []
    i = 0
    while i < len(order):
        current = order[i]
        i += 1
        for sym in alphabet:
            nxt = frozenset(q for s in current for q in a.step(s, sym))
            if not nxt:
                continue
            if nxt not in subsets:
                if len(subsets) >= state_cap:
                    raise StateCapExceeded(
                        f"determinization exceeded the state cap ({state_cap})"
                    )
                subsets[nxt] = _subset_name(nxt)
                order.append(nxt)
            transitions.append(Transition(subsets[current], sym, subsets[nxt], 0.0))
    result = CostAutomaton(
        alphabet=a.alphabet,
        states=frozenset(subsets.values()),
        initial=subsets[start],
        accepting=frozenset(name for sub, name in subsets.items() if sub & a.accepting),
        transitions=tuple(transitions),
    )
    return trim(result)


def product(a1: CostAutomaton, a2: CostAutomaton, sep: str = "|") -> CostAutomaton:
    """Cartesian product on shared symbols with SUMMED costs, trimmed.

    Accepts the intersection of the two languages.  Pair states are named
    "left<sep>right"; returns the empty value when the intersection is
    empty.
    """
    if a1.is_empty or a2.is_empty or a1.initial is None or a2.initial is None:
        return EMPTY
    shared = a1.alphabet & a2.alphabet
    start = (a1.initial, a2.initial)
    seen = {start}
    queue = [start]
    transitions: list[Transition] = []
    while queue:
        (p, q) = queue.pop()
        for t1 in a1.by_source.get(p, ()):
            if t1.symbol not in shared:
                continue
            for q2 in a2.step(q, t1.symbol):
                cost2 = _cost_of(a2, q, t1.symbol, q2)
                nxt = (t1.target, q2)
                transitions.append(
                    Transition(p + sep + q, t1.symbol, t1.target + sep + q2, t1.cost + cost2)
                )
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    states = frozenset(p + sep + q for (p, q) in seen)
    accepting = frozenset(p + sep + q for (p, q) in seen if p in a1.accepting and q in a2.accepting)
    result = CostAutomaton(
        alphabet=a1.alphabet | a2.alphabet,
        states=states,
        initial=a1.initial + sep + a2.initial,
        accepting=accepting,
        transitions=tuple(transitions),
    )
    return trim(result)


def _cost_of(a: CostAutomaton, source: str, symbol: str, target: str) -> float:
    for t in a.by_source.get(source, ()):
        if t.symbol == symbol and t.target == target:
            return t.cost
    raise KeyError((source, symbol, target))


def accepts(a: CostAutomaton, word: Sequence[str]) -> bool:
    """NFA membership by subset simulation."""
    if a.is_empty or a.initial is None:
        return False
    current = {a.initial}
    for sym in word:
        current = {q for s in current for q in a.step(s, sym)}
        if not current:
            return False
    return bool(current & a.accepting)


def map_costs(a: CostAutomaton, fn: Callable[[Transition], float]) -> CostAutomaton:
    """Same structure with each transition's cost replaced by fn(t)."""
    return CostAutomaton(
        alphabet=a.alphabet,
        states=a.states,
        initial=a.initial,
        accepting=a.accepting,
        transitions=tuple(
            Transition(t.source, t.symbol, t.target, float(fn(t))) for t in a.transitions
        ),
    )


def induced(a: CostAutomaton, states: Iterable[str]) -> CostAutomaton:
    """Sub-automaton on a state subset (used to isolate one SCC).

    Initial/accepting are irrelevant to component energies; the initial is
    reset to the alphabetically first member so the value still validates.
    """
    keep = frozenset(states)
    return CostAutomaton(
        alphabet=a.alphabet,
        states=keep,
        initial=min(keep) if keep else None,
        accepting=a.accepting & keep,
        transitions=tuple(t for t in a.transitions if t.source in keep and t.target in keep),
    )
