"""Finite automata with per-transition real costs.

The data model is the cost automaton M_V: an NFA over a finite alphabet
whose transitions each carry a real cost.  Structural algorithms here are
validation, trimming (clean-up), Tarjan SCC decomposition, subset-construction
determinization and the cost-summing Cartesian product.

An automaton is stored as int arrays: its state names and its symbols are
sorted tuples, and its transitions are the columns ``src``, ``sym``, ``dst``
(indices into those tuples) and ``cost``, in input order.  Every algorithm
here runs on the columns, and a construction names its new states once, at
the end.  Every walk over edges groups them with ``rows``; the graph
kernels build their own rows and return arrays: ``_reach`` a bool mask over
the nodes, ``tarjan`` a component label per node, in root-discovery order,
computed once per automaton and cached on it.  ``trim`` reads liveness off
their component graph, so ``tarjan`` is the only walk over all the edges,
and ``scc`` splits on the same labels into the rows every energy solves on.
Every lookup by (state, symbol) indexes only the pairs that occur
(``successors``, ``product``'s cells), never a states x symbols table.
The start state is an index, ``start``, and the accepting set a bool column
over the states, ``accepting_mask``.  ``Transition`` objects, the
``states``/``alphabet`` sets and the ``initial``/``accepting`` names are
views built on first use for the callers that want names.

All values are immutable; operations return new automata.  The empty
automaton (zero states, ``start`` is -1) is a first-class value: trim and
product return it instead of raising, and every energy computed from it
downstream is 0.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import Overflow, StateCapExceeded

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
]

DEFAULT_STATE_CAP = 2**20
# a product edge costs about 155 bytes at its peak (random 100- to 250-state
# NFAs), so this many stay near 1 GiB
PRODUCT_TRANSITION_CAP = 7_000_000


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
        state_names, undeclared_states, (src, dst, named, accepting) = _index(
            states, src, dst, named, set(accepting)
        )
        symbols, undeclared_symbols, (sym,) = _index(alphabet, sym)
        accepting_mask = np.zeros(len(state_names), dtype=bool)
        accepting_mask[accepting] = True
        return CostAutomaton(
            state_names,
            symbols,
            int(named[0]) if named.size else -1,
            accepting_mask,
            src,
            sym,
            dst,
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

    @cached_property
    def _labels(self) -> np.ndarray:
        """``tarjan``'s component labels, computed once per automaton: trim and scc read them."""
        labels = tarjan(len(self.state_names), self.src, self.dst)
        labels.flags.writeable = False
        return labels


def _index(declared: Iterable[str], *columns: Sequence[str]):
    """Sorted names over the declared ones and every name in ``columns``,
    the names only the columns use, and each column as indices into the
    names.  The columns are looked up in the declared names' index; only
    when one uses a name that is not declared is the union taken."""
    declared = set(declared)
    names = tuple(sorted(declared))
    try:
        return names, frozenset(), _columns(names, columns)
    except KeyError:
        used = set().union(*columns)
        names = tuple(sorted(declared | used))
        return names, frozenset(used - declared), _columns(names, columns)


def _columns(names: tuple[str, ...], columns: Sequence[Sequence[str]]) -> list[np.ndarray]:
    index = dict(zip(names, range(len(names))))
    return [np.fromiter(map(index.__getitem__, c), dtype=np.intp, count=len(c)) for c in columns]


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

    # the name tuples are sorted, so each check walks its names in order;
    # split() drops whitespace exactly where str.isspace finds it
    names, symbols = a.state_names, a.symbols
    unknown_states, unknown_symbols = a.undeclared
    for name in names:
        if not (isinstance(name, str) and name.split() == [name]) and name not in unknown_states:
            violations.append(f"bad state name {name!r}")
    for name in symbols:
        if not (isinstance(name, str) and name.split() == [name]) and name not in unknown_symbols:
            violations.append(f"bad symbol name {name!r}")

    if a.initial is None:
        violations.append("missing initial state")
    elif a.initial in unknown_states:
        violations.append(f"unknown initial {a.initial!r}")
    for q in np.flatnonzero(a.accepting_mask).tolist():
        if names[q] in unknown_states:
            violations.append(f"unknown accepting state {names[q]!r}")

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


def rows(n: int, key: np.ndarray, *ties: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions grouped by ``key`` (values 0..n-1) and the row pointers:
    group g is order[indptr[g]:indptr[g + 1]].  Inside a group the
    positions are ordered by ``ties`` (non-negative ints), first tie first,
    then by position.

    A key alone is sorted stably (timsort is linear on the sorted sources
    of a canonical document).  With ties, the key, the ties and the
    position are packed into one int64, ``((key * w1 + t1) * w2 ...) * E +
    position`` with w the width (max + 1) of each tie and E the number of
    positions; the packed keys are unique, so any sort gives the stable
    order.  ``np.lexsort`` takes over when n times the widths times E
    reaches 2**62."""
    if not ties:
        order = key.argsort(kind="stable")
    else:
        size = key.size
        # argmax and one read cost less than a max reduction on short columns
        widths = [int(t[t.argmax()]) + 1 if size else 1 for t in ties]
        if n * size * math.prod(widths) < 2**62:
            packed = key
            for t, w in zip(ties, widths):
                packed = np.multiply(packed, w, dtype=np.int64)
                packed += t
            packed *= size
            packed += np.arange(size)
            order = packed.argsort()
        else:
            order = np.lexsort(ties[::-1] + (key,))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.bincount(key, minlength=n).cumsum(out=indptr[1:])
    return order, indptr


def _weights(cost: np.ndarray) -> np.ndarray:
    """e^cost in one vectorised call; Overflow names the first cost past the range."""
    with np.errstate(over="ignore"):
        weights = np.exp(cost)
    if not np.isfinite(weights).all():
        bad = float(cost[~np.isfinite(weights)][0])
        raise Overflow(f"e^{bad} exceeds the double range; rescale costs")
    return weights


def successors(a: CostAutomaton, width: int) -> dict[int, int]:
    """DFA successor index: the target of state s on symbol y under the key
    s * width + y, one entry per transition; a missing key has none."""
    return dict(zip((a.src * width + a.sym).tolist(), a.dst.tolist()))


def _reach(n: int, src: np.ndarray, dst: np.ndarray, starts: Iterable[int]) -> np.ndarray:
    """Mask of the nodes reachable from ``starts`` over the edges src -> dst;
    the edges are not grouped when the starts already cover every node."""
    seen = bytearray(n)
    stack = []
    for s in starts:
        if not seen[s]:
            seen[s] = 1
            stack.append(s)
    if len(stack) == n:
        return np.frombuffer(seen, dtype=bool)
    order, indptr = rows(n, src)
    indptr, targets = indptr.tolist(), dst[order].tolist()
    while stack:
        q = stack.pop()
        for t in targets[indptr[q] : indptr[q + 1]]:
            if not seen[t]:
                seen[t] = 1
                stack.append(t)
    return np.frombuffer(seen, dtype=bool)


def live_states(a: CostAutomaton) -> np.ndarray:
    """Mask over ``a.state_names`` of the states reachable from the initial
    state and co-reachable to an accepting state, read off the component
    graph of ``a``'s cached Tarjan labels: both walks run over its k nodes."""
    labels = a._labels
    k = int(labels.max(initial=-1)) + 1
    up, down = (labels[a.src], labels[a.dst]) if k > 1 else (labels[:0], labels[:0])  # else no cross edges
    cross = up != down
    up, down = up[cross], down[cross]
    forward = _reach(k, up, down, [int(labels[a.start])] if a.start >= 0 else [])
    return (forward & _reach(k, down, up, np.unique(labels[a.accepting_mask]).tolist()))[labels]


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
    empty); the language is preserved in every case.  An uncut ``a`` is
    returned itself, with the Tarjan labels that ``live_states`` cached.
    """
    if a.is_empty:
        return EMPTY
    live = live_states(a)
    if live.all():
        return a
    if not live.any():
        return EMPTY
    return keep_states(a, live)


@dataclass(frozen=True, eq=False)
class SccPartition:
    """Tarjan decomposition of ``automaton`` as int rows: component c (its
    ``labels`` value, numbered by its root's discovery index) has the states
    ``members[bounds[c]:bounds[c + 1]]`` in name order and the edges inside
    it ``inside[edge_bounds[c]:edge_bounds[c + 1]]`` in input order.  The
    named views are built on first use."""

    automaton: CostAutomaton
    labels: np.ndarray
    members: np.ndarray
    bounds: np.ndarray
    inside: np.ndarray
    edge_bounds: np.ndarray

    @cached_property
    def components(self) -> tuple[frozenset[str], ...]:
        names = self.automaton.state_names
        members, bounds = self.members.tolist(), self.bounds.tolist()
        return tuple(frozenset([names[i] for i in members[lo:hi]]) for lo, hi in zip(bounds, bounds[1:]))

    @cached_property
    def component_of(self) -> Mapping[str, int]:
        return dict(zip(self.automaton.state_names, self.labels.tolist()))

    @cached_property
    def is_singleton_without_loop(self) -> tuple[bool, ...]:  # no edge inside
        return tuple((self.edge_bounds[1:] == self.edge_bounds[:-1]).tolist())


def tarjan(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component label of each node of the graph with edges src -> dst
    (iterative Tarjan): components are numbered by the discovery index of
    their root.

    The DFS starts from nodes in index order and follows each node's edges
    in target order, so the labels are deterministic.
    """
    order, indptr = rows(n, src, dst)
    indptr, targets = indptr.tolist(), dst[order].tolist()
    # a node's index is its discovery index until its component completes,
    # then n + its root's discovery index, which no low-link reaches
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    counter = 0
    for start in range(n):
        if index[start] >= 0:
            continue
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        work = [(start, indptr[start])]  # frames of (node, next row position)
        while work:
            node, pos = work[-1]
            end = indptr[node + 1]
            lowest = low[node]  # kept here while the row is scanned, stored before a descent
            while pos < end:
                nxt = targets[pos]
                pos += 1
                seen = index[nxt]
                if seen < 0:
                    low[node] = lowest
                    work[-1] = (node, pos)
                    work.append((nxt, indptr[nxt]))
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    break
                if seen < lowest:
                    lowest = seen
            else:
                work.pop()
                if lowest == index[node]:  # a root: its component is the stack down to it
                    done, q = n + lowest, -1
                    while q != node:
                        q = stack.pop()
                        index[q] = done
                elif lowest < low[work[-1][0]]:  # not a root, so a parent frame is left
                    low[work[-1][0]] = lowest
    labels = np.array(index, dtype=np.intp) - n  # each node's root's discovery index
    return np.cumsum(np.bincount(labels, minlength=n) > 0)[labels] - 1  # its rank among the roots


def scc(a: CostAutomaton) -> SccPartition:
    """Maximal strongly connected components of ``a`` (of the empty value
    when no state is declared) and the edges inside each, from ``a``'s
    Tarjan labels, computed on first use and cached (trim computes them).

    Deterministic: the DFS visits states in sorted name order, and the
    components are numbered by the discovery index of each component's
    root, so renaming-stable fixtures give stable output.
    """
    a = EMPTY if a.is_empty else a
    labels = a._labels
    k = int(labels.max(initial=-1)) + 1
    members, bounds = rows(k, labels)
    ends = labels[a.src]
    inside = np.flatnonzero(ends == labels[a.dst])
    order, edge_bounds = rows(k, ends[inside])
    return SccPartition(a, labels, members, bounds, inside[order], edge_bounds)


def _escape(name: str, special: str) -> str:
    """``name`` with a backslash before every backslash and every character
    of ``special``, so a joined name splits back at its unescaped separators."""
    return "".join("\\" + c if c == "\\" or c in special else c for c in name)


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
    sorted order of ``names``.  The callers hand their edge columns over:
    ``src`` and ``dst`` are renumbered in place, so no second pair of
    edge-sized arrays is held beside them."""
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.intp)
    rank[order] = np.arange(len(names))
    for column in (src, dst):  # mode "raise" would buffer a copy; each index is read before its slot is written
        np.take(rank, column, out=column, mode="clip")
    return CostAutomaton(
        tuple(names[i] for i in order),
        symbols,
        int(rank[0]),
        accepting[order],
        src,
        sym,
        dst,
        cost,
    )


def determinize(a: CostAutomaton, state_cap: int = DEFAULT_STATE_CAP) -> CostAutomaton:
    """Subset construction.  Result is deterministic, trimmed, zero-cost.

    Costs are discarded (set to 0): determinization is only ever applied to
    M_0, and carrying costs through merged subsets is ill-defined.  Subsets
    are named ``{a,b}`` from their members' names, each with its
    backslashes and commas escaped, so a name splits back into its members.
    ``state_cap`` must be positive.
    """
    if state_cap < 1:
        raise ValueError(f"state_cap must be positive, got {state_cap}")
    if a.is_empty or a.start < 0:
        return EMPTY
    order, indptr = rows(len(a.state_names), a.src)
    indptr = indptr.tolist()
    edges = list(zip(a.sym[order].tolist(), a.dst[order].tolist()))

    start = (a.start,)
    ids = {start: 0}
    subsets = [start]
    src: list[int] = []
    sym: list[int] = []
    dst: list[int] = []
    for i, current in enumerate(subsets):  # grows while the loop runs
        targets: dict[int, set[int]] = {}  # symbol -> the members' targets on it
        for s in current:
            for y, t in edges[indptr[s] : indptr[s + 1]]:
                targets.setdefault(y, set()).add(t)
        for y in sorted(targets):
            key = tuple(sorted(targets[y]))
            j = ids.get(key)
            if j is None:
                if len(ids) >= state_cap:
                    raise StateCapExceeded(
                        f"determinization exceeded the state cap ({state_cap}) on a "
                        f"{len(a.state_names)}-state, {len(a.src)}-transition automaton"
                    )
                j = ids[key] = len(subsets)
                subsets.append(key)
            src.append(i)
            sym.append(y)
            dst.append(j)

    names = [_escape(name, ",") for name in a.state_names]
    labels = ["{" + ",".join([names[s] for s in sub]) + "}" for sub in subsets]
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
    "left|right", each part with its backslashes and ``|`` escaped, so a
    name splits back into its parts.
    Returns the empty value when the intersection is empty.

    The pairs are found one breadth-first frontier at a time: pair (p, q)
    is the int p * n2 + q, and a frontier's out-edges are joined on
    (q, symbol) against a2's edges grouped by the (source, symbol) cells
    that occur, by target inside a cell, so the index grows with a2's
    transitions, not with its states times the symbols.  The transitions
    out of each pair follow a1's order, then a2's targets in sorted order.
    Costs past the double range sum to +-inf, which ``free_energy`` refuses.

    More than ``DEFAULT_STATE_CAP`` pairs or ``PRODUCT_TRANSITION_CAP``
    transitions raise StateCapExceeded: a frontier's transitions are
    counted before its edges are allocated, its new pairs once found.
    """
    if a1.is_empty or a2.is_empty or a1.start < 0 or a2.start < 0:
        return EMPTY
    symbols = tuple(sorted(set(a1.symbols) | set(a2.symbols)))
    width = len(symbols)
    index = {s: i for i, s in enumerate(symbols)}
    sym1 = np.array([index[s] for s in a1.symbols], dtype=np.intp)[a1.sym]
    sym2 = np.array([index[s] for s in a2.symbols], dtype=np.intp)[a2.sym]
    # a1's edges grouped by source in input order; a2's by the (source, symbol)
    # cells that occur, then a sentinel past every key for the cells a2 lacks
    n2 = len(a2.state_names)
    edges1, indptr1 = rows(len(a1.state_names), a1.src)
    cells, cell_of = np.unique(a2.src * width + sym2, return_inverse=True)
    cells = np.append(cells, n2 * width)
    edges2, indptr2 = rows(len(cells), cell_of, a2.dst)

    def cap(count: int, kind: str, limit: int) -> None:
        if count > limit:
            raise StateCapExceeded(
                f"product of a {len(a1.state_names)}-state and a {n2}-state automaton "
                f"reached {count} {kind}, past its cap ({limit})"
            )

    frontier = np.array([a1.start * n2 + a2.start], dtype=np.intp)
    seen = {int(frontier[0])}
    levels = [frontier]
    edges: list[tuple[np.ndarray, ...]] = []
    transitions = 0
    while frontier.size:
        p, q = np.divmod(frontier, n2)
        fan1 = indptr1[p + 1] - indptr1[p]
        t1 = edges1[spans(indptr1[p], fan1)]
        source = np.repeat(frontier, fan1)
        key = np.repeat(q, fan1) * width + sym1[t1]
        cell = np.searchsorted(cells, key)
        cell[cells[cell] != key] = len(cells) - 1
        lo = indptr2[cell]
        fan2 = indptr2[cell + 1] - lo
        transitions += int(fan2.sum())
        cap(transitions, "transitions", PRODUCT_TRANSITION_CAP)
        t2 = edges2[spans(lo, fan2)]
        t1 = np.repeat(t1, fan2)
        target = a1.dst[t1] * n2 + a2.dst[t2]
        with np.errstate(over="ignore"):
            cost = a1.cost[t1] + a2.cost[t2]
        edges.append((np.repeat(source, fan2), sym1[t1], target, cost))
        new = sorted(set(target.tolist()).difference(seen))
        cap(len(seen) + len(new), "pair states", DEFAULT_STATE_CAP)
        seen.update(new)
        frontier = np.array(new, dtype=np.intp)
        levels.append(frontier)

    pairs = np.concatenate(levels)  # construction order; the start pair first
    by_key = np.argsort(pairs)
    left, right = np.divmod(pairs, n2)
    names1 = [_escape(name, _PAIR_SEP) for name in a1.state_names]
    names2 = [_escape(name, _PAIR_SEP) for name in a2.state_names]
    labels = [names1[p] + _PAIR_SEP + names2[q] for p, q in zip(left.tolist(), right.tolist())]
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
