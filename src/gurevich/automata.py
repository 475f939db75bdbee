"""Finite automata with per-transition real costs.

The data model is the cost automaton M_V: an NFA over a finite alphabet
whose transitions each carry a real cost.  Structural algorithms here are
validation, trimming (clean-up), Tarjan SCC decomposition, subset-construction
determinization and the cost-summing Cartesian product.

An automaton is stored as int arrays: its state names and its symbols are
sorted tuples, and its transitions are the columns ``src``, ``sym``, ``dst``
(indices into those tuples) and ``cost``, in input order.  Every algorithm
here runs on the columns, and a construction names its new states once, at
the end.  The start state is an index, ``start``, and the accepting set a
bool column over the states, ``accepting_mask``.  ``Transition`` objects,
the ``states``/``alphabet`` sets and the ``initial``/``accepting`` names
are views built on first use; of the algorithms, only ``map_costs`` walks
named edges, for its callback.

All values are immutable; operations return new automata.  The empty
automaton (zero states, ``start`` is -1) is a first-class value: trim and
product return it instead of raising, and every energy computed from it
downstream is 0.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
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
    "DEFAULT_STATE_CAP",
]

DEFAULT_STATE_CAP = 2**20


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


_NO_NAMES: tuple[frozenset[str], frozenset[str]] = (frozenset(), frozenset())


@dataclass(frozen=True, eq=False)
class CostAutomaton:
    """NFA/DFA with real transition costs, stored as int columns.

    ``state_names`` and ``symbols`` are sorted tuples; transition e runs
    from ``state_names[src[e]]`` on ``symbols[sym[e]]`` to
    ``state_names[dst[e]]`` at cost ``cost[e]``.  Duplicate triples are
    kept, so validate() can still report them in hand-built inputs.
    ``undeclared`` holds the state names and the symbols that transitions
    or the initial and accepting names use but the input did not declare:
    they are indexed like the others, so validate() can report them, and
    the ``states``/``alphabet`` views leave them out.  ``start`` indexes
    the initial state, -1 only for the distinguished empty value, and
    ``accepting_mask`` is True at the accepting states.  ``transitions``,
    ``states``, ``alphabet``, ``initial`` and ``accepting`` are named
    views, built on first use for the callers that want names.
    """

    state_names: tuple[str, ...]
    symbols: tuple[str, ...]
    start: int
    accepting_mask: np.ndarray
    src: np.ndarray
    sym: np.ndarray
    dst: np.ndarray
    cost: np.ndarray
    undeclared: tuple[frozenset[str], frozenset[str]] = _NO_NAMES

    def __post_init__(self) -> None:
        for column in (self.accepting_mask, self.src, self.sym, self.dst, self.cost):
            column.flags.writeable = False

    @staticmethod
    def create(
        alphabet: Iterable[str],
        states: Iterable[str],
        initial: str | None,
        accepting: Iterable[str],
        transitions: Iterable[Transition | tuple],
    ) -> "CostAutomaton":
        """Build from names; transition 4-tuples (cost optional) are accepted too."""
        src, sym, dst, cost = [], [], [], []
        for t in transitions:
            if isinstance(t, Transition):
                t = (t.source, t.symbol, t.target, t.cost)
            src.append(t[0])
            sym.append(t[1])
            dst.append(t[2])
            cost.append(float(t[3]) if len(t) > 3 else 0.0)
        return CostAutomaton.from_columns(alphabet, states, initial, accepting, src, sym, dst, cost)

    @staticmethod
    def from_columns(
        alphabet: Iterable[str],
        states: Iterable[str],
        initial: str | None,
        accepting: Iterable[str],
        src: Sequence[str],
        sym: Sequence[str],
        dst: Sequence[str],
        cost: Sequence[float],
    ) -> "CostAutomaton":
        """Build from per-transition columns of names (src, sym, dst) and costs."""
        named = [] if initial is None else [initial]
        accepting = set(accepting)
        state_names, state_index, undeclared_states = _index(states, src, dst, named, accepting)
        symbols, symbol_index, undeclared_symbols = _index(alphabet, sym)
        return CostAutomaton(
            state_names,
            symbols,
            -1 if initial is None else state_index[initial],
            np.array([name in accepting for name in state_names], dtype=bool),
            _column(state_index, src),
            _column(symbol_index, sym),
            _column(state_index, dst),
            np.array(cost, dtype=float),
            (undeclared_states, undeclared_symbols),
        )

    def with_costs(self, cost) -> "CostAutomaton":
        """Same structure with the cost column replaced (input order)."""
        return dataclasses.replace(self, cost=np.array(cost, dtype=float))

    def _key(self) -> tuple:
        return (self.state_names, self.symbols, self.start, self.undeclared)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CostAutomaton):
            return NotImplemented
        return self._key() == other._key() and all(
            np.array_equal(getattr(self, c), getattr(other, c))
            for c in ("accepting_mask", "src", "sym", "dst", "cost")
        )

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def is_empty(self) -> bool:
        return len(self.state_names) == len(self.undeclared[0])

    @property
    def initial(self) -> str | None:
        return None if self.start < 0 else self.state_names[self.start]

    @cached_property
    def accepting(self) -> frozenset[str]:
        return frozenset(self.state_names[i] for i in np.flatnonzero(self.accepting_mask).tolist())

    @cached_property
    def states(self) -> frozenset[str]:
        return frozenset(self.state_names) - self.undeclared[0]

    @cached_property
    def alphabet(self) -> frozenset[str]:
        return frozenset(self.symbols) - self.undeclared[1]

    @cached_property
    def transitions(self) -> tuple[Transition, ...]:
        """The transitions as named objects, in input order."""
        names, symbols = self.state_names, self.symbols
        return tuple(
            Transition(names[s], symbols[y], names[d], c)
            for s, y, d, c in zip(
                self.src.tolist(), self.sym.tolist(), self.dst.tolist(), self.cost.tolist()
            )
        )

    @cached_property
    def deterministic(self) -> bool:
        """At most one target per (source, symbol) pair."""
        return not _repeats(self.src * len(self.symbols) + self.sym)


def _index(declared: Iterable[str], *columns: Sequence[str]):
    """Sorted names over the declared ones and every name in ``columns``,
    their index, and the names only the columns use."""
    declared = set(declared)
    used = set().union(*columns)
    names = tuple(sorted(declared | used))
    return names, {name: i for i, name in enumerate(names)}, frozenset(used - declared)


def _column(index: Mapping[str, int], names: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(index.__getitem__, names), dtype=np.intp, count=len(names))


def _repeats(keys: np.ndarray) -> bool:
    """Whether some key occurs twice (one sort; np.unique hashes, slower here)."""
    ordered = np.sort(keys)
    return bool((ordered[1:] == ordered[:-1]).any())


_NO_EDGES = np.empty(0, dtype=np.intp)
EMPTY = CostAutomaton(
    (), (), -1, np.zeros(0, dtype=bool), _NO_EDGES, _NO_EDGES, _NO_EDGES, np.empty(0)
)


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
        if a.src.size:
            violations.append("transitions present in zero-state automaton")
        return violations

    # split() drops whitespace exactly where str.isspace finds it
    for name in sorted(a.states):
        if name.split() != [name]:
            violations.append(f"bad state name {name!r}")
    for name in sorted(a.alphabet):
        if name.split() != [name]:
            violations.append(f"bad symbol name {name!r}")

    if a.initial is None:
        violations.append("missing initial state")
    elif a.initial not in a.states:
        violations.append(f"unknown initial {a.initial!r}")
    for q in sorted(a.accepting):
        if q not in a.states:
            violations.append(f"unknown accepting state {q!r}")

    names, symbols = a.state_names, a.symbols
    unknown_states, unknown_symbols = a.undeclared
    keys = (a.src * len(symbols) + a.sym) * len(names) + a.dst
    duplicate = np.zeros(keys.size, dtype=bool)
    if _repeats(keys):  # every occurrence of a triple after its first
        duplicate[:] = True
        duplicate[np.unique(keys, return_index=True)[1]] = False
    flagged = duplicate.copy()
    if unknown_states:
        unknown = np.array([name in unknown_states for name in names])
        flagged |= unknown[a.src] | unknown[a.dst]
    if unknown_symbols:
        flagged |= np.array([name in unknown_symbols for name in symbols])[a.sym]
    for e in np.flatnonzero(flagged).tolist():
        source, symbol, target = names[a.src[e]], symbols[a.sym[e]], names[a.dst[e]]
        if source in unknown_states:
            violations.append(f"transition from unknown state {source!r}")
        if target in unknown_states:
            violations.append(f"transition to unknown state {target!r}")
        if symbol in unknown_symbols:
            violations.append(f"transition symbol {symbol!r} not in alphabet")
        if duplicate[e]:
            violations.append(f"duplicate transition {(source, symbol, target)!r}")
    return violations


def spans(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of range(starts[i], starts[i] + counts[i]) over i."""
    positions = np.arange(int(counts.sum()), dtype=np.intp)
    positions += np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return positions


def by_source_rows(n: int, src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge positions grouped by source node (input order inside a group)
    and the row pointers: node p's edges are order[indptr[p]:indptr[p + 1]]."""
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return order, indptr


def successors(a: CostAutomaton, width: int) -> list[int]:
    """DFA successor table: the target of state s on symbol y is at
    s * width + y, -1 where there is none."""
    table = np.full(len(a.state_names) * width, -1, dtype=np.intp)
    table[a.src * width + a.sym] = a.dst
    return table.tolist()


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


def live_states(a: CostAutomaton) -> np.ndarray:
    """Mask over ``a.state_names`` of the states reachable from the initial
    state and co-reachable to an accepting state."""
    n = len(a.state_names)
    forward = _reach(*adjacency(n, a.src, a.dst), [a.start] if a.start >= 0 else [])
    backward = _reach(*adjacency(n, a.dst, a.src), np.flatnonzero(a.accepting_mask).tolist())
    return (np.frombuffer(forward, dtype=np.uint8) & np.frombuffer(backward, dtype=np.uint8)) > 0


def keep_states(a: CostAutomaton, keep: np.ndarray) -> CostAutomaton:
    """Sub-automaton on the states where the mask ``keep`` is set, with the
    transitions between them in input order; ``start`` is -1 when the
    initial state is dropped."""
    kept = np.flatnonzero(keep)
    renumber = np.full(len(keep), -1, dtype=np.intp)
    renumber[kept] = np.arange(kept.size)
    inside = keep[a.src] & keep[a.dst]
    names = tuple(a.state_names[i] for i in kept.tolist())
    return CostAutomaton(
        names,
        a.symbols,
        int(renumber[a.start]) if a.start >= 0 else -1,
        a.accepting_mask[kept],
        renumber[a.src[inside]],
        a.sym[inside],
        renumber[a.dst[inside]],
        a.cost[inside],
        (a.undeclared[0] & frozenset(names), a.undeclared[1]),
    )


def trim(a: CostAutomaton) -> CostAutomaton:
    """Clean-up: keep states reachable from initial AND co-reachable to accepting.

    Returns the distinguished empty value when nothing survives (language
    empty); the language is preserved in every case.
    """
    if a.is_empty:
        return EMPTY
    live = live_states(a)
    if live.all():
        return a
    if not live.any():
        return EMPTY
    return keep_states(a, live)


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
    names = a.state_names
    comps = tarjan(*adjacency(len(names), a.src, a.dst))
    components = tuple(frozenset(names[i] for i in members) for members in comps)
    component_of = {q: i for i, comp in enumerate(components) for q in comp}
    looped = np.zeros(len(names), dtype=bool)
    looped[a.src[a.src == a.dst]] = True
    flags = tuple(len(members) == 1 and not looped[members[0]] for members in comps)
    return SccPartition(components, component_of, flags)


def _escape(name: str, special: str) -> str:
    """``name`` with a backslash before every backslash and every character
    of ``special``, so a joined name splits back at its unescaped separators."""
    return "".join("\\" + c if c == "\\" or c in special else c for c in name)


def _unique_names(plain: list[str], escaped: Callable[[int], str]) -> list[str]:
    """``plain``, except that every entry whose name another entry shares
    takes ``escaped(i)``, until all names differ.

    ``escaped`` must be one-to-one, so two escaped names never collide;
    a plain name equal to an escaped one is escaped in the next round.
    """
    names = list(plain)
    done = [False] * len(names)
    while True:
        counts = Counter(names)
        clashes = [i for i, name in enumerate(names) if counts[name] > 1 and not done[i]]
        if not clashes:
            return names
        for i in clashes:
            names[i] = escaped(i)
            done[i] = True


def _sorted_automaton(
    names: list[str],
    symbols: tuple[str, ...],
    accepting: np.ndarray,
    src: np.ndarray,
    sym: np.ndarray,
    dst: np.ndarray,
    cost: np.ndarray,
) -> CostAutomaton:
    """Automaton over states numbered by construction order (state 0 is
    initial, ``accepting`` a bool mask in that order), renumbered to the
    sorted order of ``names``."""
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.intp)
    rank[order] = np.arange(len(names))
    return CostAutomaton(
        tuple(names[i] for i in order),
        symbols,
        int(rank[0]),
        accepting[order],
        rank[src],
        sym,
        rank[dst],
        cost,
    )


def determinize(a: CostAutomaton, state_cap: int = DEFAULT_STATE_CAP) -> CostAutomaton:
    """Subset construction.  Result is deterministic, trimmed, zero-cost.

    Costs are discarded (set to 0): determinization is only ever applied to
    M_0, and carrying costs through merged subsets is ill-defined.  Subsets
    are named ``{a,b}``; where two subsets would share a name (a state name
    containing ``,``), their members' backslashes and commas are escaped.
    ``state_cap`` must be positive.
    """
    if state_cap < 1:
        raise ValueError(f"state_cap must be positive, got {state_cap}")
    if a.is_empty or a.start < 0:
        return EMPTY
    k = len(a.symbols)
    order = np.lexsort((a.dst, a.sym, a.src))
    successors: dict[int, list[int]] = {}
    for key, target in zip((a.src * k + a.sym)[order].tolist(), a.dst[order].tolist()):
        successors.setdefault(key, []).append(target)

    start = (a.start,)
    ids = {start: 0}
    subsets = [start]
    src: list[int] = []
    sym: list[int] = []
    dst: list[int] = []
    for i, current in enumerate(subsets):  # grows while the loop runs
        bases = [s * k for s in current]
        for y in range(k):
            nxt: set[int] = set()
            for base in bases:
                nxt.update(successors.get(base + y, ()))
            if not nxt:
                continue
            key = tuple(sorted(nxt))
            j = ids.get(key)
            if j is None:
                if len(ids) >= state_cap:
                    raise StateCapExceeded(
                        f"determinization exceeded the state cap ({state_cap})"
                    )
                j = ids[key] = len(subsets)
                subsets.append(key)
            src.append(i)
            sym.append(y)
            dst.append(j)

    names = a.state_names
    plain = ["{" + ",".join([names[s] for s in sub]) + "}" for sub in subsets]
    labels = _unique_names(
        plain, lambda i: "{" + ",".join([_escape(names[s], ",") for s in subsets[i]]) + "}"
    )
    accepting = a.accepting_mask.tolist()
    result = _sorted_automaton(
        labels,
        a.symbols,
        np.array([any([accepting[s] for s in sub]) for sub in subsets], dtype=bool),
        np.array(src, dtype=np.intp),
        np.array(sym, dtype=np.intp),
        np.array(dst, dtype=np.intp),
        np.zeros(len(src)),
    )
    return trim(result)


_PAIR_SEP = "|"


def product(a1: CostAutomaton, a2: CostAutomaton) -> CostAutomaton:
    """Cartesian product on shared symbols with SUMMED costs, trimmed.

    Accepts the intersection of the two languages.  Pair states are named
    "left|right"; where two pairs would share a name (a state name
    containing ``|``), their parts' backslashes and ``|`` are escaped.
    Returns the empty value when the intersection is empty.

    The pairs are found one breadth-first frontier at a time: pair (p, q)
    is the int p * n2 + q, and a frontier's out-edges are joined on
    (q, symbol) against a2's edges sorted by source, symbol and target.
    The transitions out of each pair follow a1's order, then a2's targets
    in sorted order.
    """
    if a1.is_empty or a2.is_empty or a1.start < 0 or a2.start < 0:
        return EMPTY
    symbols = tuple(sorted(set(a1.symbols) | set(a2.symbols)))
    width = len(symbols)
    index = {s: i for i, s in enumerate(symbols)}
    sym1 = np.array([index[s] for s in a1.symbols], dtype=np.intp)[a1.sym]
    sym2 = np.array([index[s] for s in a2.symbols], dtype=np.intp)[a2.sym]
    # a1's edges grouped by source in input order; a2's sorted by (source,
    # symbol, target), so an a1 edge on a symbol a2 lacks finds no partner
    edges1, indptr1 = by_source_rows(len(a1.state_names), a1.src)
    edges2 = np.lexsort((a2.dst, sym2, a2.src))
    keys2 = (a2.src * width + sym2)[edges2]

    n2 = len(a2.state_names)
    frontier = np.array([a1.start * n2 + a2.start], dtype=np.intp)
    seen = {int(frontier[0])}
    levels = [frontier]
    edges: list[tuple[np.ndarray, ...]] = []
    while frontier.size:
        p, q = np.divmod(frontier, n2)
        fan1 = indptr1[p + 1] - indptr1[p]
        t1 = edges1[spans(indptr1[p], fan1)]
        source = np.repeat(frontier, fan1)
        key = np.repeat(q, fan1) * width + sym1[t1]
        lo = np.searchsorted(keys2, key, side="left")
        fan2 = np.searchsorted(keys2, key, side="right") - lo
        t2 = edges2[spans(lo, fan2)]
        t1 = np.repeat(t1, fan2)
        target = a1.dst[t1] * n2 + a2.dst[t2]
        edges.append((np.repeat(source, fan2), sym1[t1], target, a1.cost[t1] + a2.cost[t2]))
        new = sorted(set(target.tolist()).difference(seen))
        seen.update(new)
        frontier = np.array(new, dtype=np.intp)
        levels.append(frontier)

    pairs = np.concatenate(levels)  # construction order; the start pair first
    by_key = np.argsort(pairs)
    left, right = np.divmod(pairs, n2)
    names1 = [a1.state_names[i] for i in left.tolist()]
    names2 = [a2.state_names[i] for i in right.tolist()]
    labels = _unique_names(
        [x + _PAIR_SEP + y for x, y in zip(names1, names2)],
        lambda i: _escape(names1[i], _PAIR_SEP) + _PAIR_SEP + _escape(names2[i], _PAIR_SEP),
    )
    source, sym, target, cost = (np.concatenate(column) for column in zip(*edges))
    result = _sorted_automaton(
        labels,
        symbols,
        a1.accepting_mask[left] & a2.accepting_mask[right],
        by_key[np.searchsorted(pairs[by_key], source)],
        sym,
        by_key[np.searchsorted(pairs[by_key], target)],
        cost,
    )
    return trim(result)


def accepts(a: CostAutomaton, word: Sequence[str]) -> bool:
    """NFA membership by subset simulation on a mask over the states."""
    if a.is_empty or a.start < 0:
        return False
    current = np.zeros(len(a.state_names), dtype=bool)
    current[a.start] = True
    for name in word:
        y = a.symbols.index(name) if name in a.symbols else -1
        stepped = a.dst[current[a.src] & (a.sym == y)]
        current = np.zeros_like(current)
        current[stepped] = True
    return bool((current & a.accepting_mask).any())


def map_costs(a: CostAutomaton, fn: Callable[[Transition], float]) -> CostAutomaton:
    """Same structure with each transition's cost replaced by fn(t)."""
    return a.with_costs([float(fn(t)) for t in a.transitions])


def induced(a: CostAutomaton, states: Iterable[str]) -> CostAutomaton:
    """Sub-automaton on a state subset (used to isolate one SCC).

    Initial/accepting are irrelevant to component energies; the start is
    reset to the alphabetically first kept state so the value still
    validates, and the empty value comes back when no state is kept.
    Nothing in the package calls it; ``bench/tracing.py`` times this name,
    so it stays until the benchmark's layer list drops it.
    """
    keep = frozenset(states)
    sub = keep_states(a, np.array([name in keep for name in a.state_names], dtype=bool))
    return dataclasses.replace(sub, start=0) if sub.state_names else EMPTY
