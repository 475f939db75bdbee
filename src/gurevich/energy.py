"""Free energy of cost automata.

E(M_V) is ln of the Perron-Frobenius eigenvalue of the Gurevich matrix,
computed per strongly connected component and maximized over the
components that carry a cycle.  Two matrix forms are supported and must
agree:

* bipartite: one node per state and one per transition; a state row feeds
  e^{V(p,a,q)} into the transition node and the transition node feeds 1
  into its target state.  The component energy is 2 ln(radius) because one
  automaton step crosses two bipartite edges.
* compact: one node per state; entry (i, j) sums e^{V} over all symbols
  carrying state i to state j.  The component energy is ln(radius).

A singleton component without a self-loop carries no cycle; it is listed
with energy 0 by convention but takes no part in the max.  An automaton
with no cycle at all (a finite language), and the empty automaton, have
energy 0 (ln 0 = 0 convention).

Inside ``free_energy`` states are ints in sorted-name order: trimming, the
SCC split and the grouping of each component's edges all run on int
arrays, and names reappear only in the report.  Each graph is split once
(``automata.scc``: its components and the edges inside them, one Tarjan
run), and ``_solve`` takes every (partition, cost column) pair a command
needs.  Every cyclic component of every pair, whatever its size, is one
block of a single block-diagonal matrix, held as edge arrays and solved
by one batched sweep (``spectral.block_radii``): each block is certified,
stalls into Noda steps and spends its iteration budget on its own, as if
solved alone.  Only a block of at most 160 nodes that takes Noda steps
is ever made dense, so memory grows with transitions, not states^2.  The
public builders
``gurevich_matrix_compact`` and ``gurevich_matrix_bipartite`` return dense
labelled matrices.

e^V leaves the double range once V passes about +709 (overflow) or -708
(subnormal, then 0).  A component is solved with its costs shifted by its
largest cost and the shift added back, since E(V + c) = E(V) + c, when its
largest cost lies above +700, or when its largest cost is negative and its
smallest lies below -700; every other component is solved as built.  A
largest cost in [0, +700] is never shifted out, since that would only push
the smallest weights further down.  The shift is chosen per component, in
the batch as alone.  A component whose largest cost is +-inf (a product's
cost sum past the double range) has no energy to shift to, and is refused
before any solve: Overflow for +inf, Underflow for -inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import automata
from .automata import CostAutomaton, SccPartition
from .errors import NotConverged, NotStronglyConnected, Overflow, Underflow
from .spectral import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    NonnegativeMatrix,
    SpectralResult,
    _dense,
    block_radii,
    spectral_radius,  # unused here; ``bench/tracing.py`` times this name
)

__all__ = [
    "EnergyReport",
    "gurevich_matrix_bipartite",
    "gurevich_matrix_compact",
    "free_energy",
]

# a component whose largest cost lies above +this, or is negative while its
# smallest lies below -this, is solved shifted by its largest cost
_COST_RANGE = 700.0

# steps of the automaton per matrix step, by form
_STEPS = {"compact": 1.0, "bipartite": 2.0}


@dataclass(frozen=True)
class EnergyReport:
    """Free-energy value (nats per step) plus the per-SCC breakdown.

    per_component entries are (component state set, component energy) in
    Tarjan discovery order; solver holds the SpectralResult for each
    component (None for loop-free singletons, which need no solve).
    max_component is the index of the cyclic component attaining the
    energy, ties broken toward the earliest; 0 when no component is
    cyclic, None for the empty automaton.  trim_changed records whether
    the defensive clean-up removed anything.
    """

    energy: float
    per_component: tuple[tuple[frozenset[str], float], ...]
    solver: tuple[SpectralResult | None, ...]
    form_used: str
    max_component: int | None = None
    trim_changed: bool = False


def _check_component(a: CostAutomaton) -> None:
    if a.is_empty:
        raise NotStronglyConnected("component is empty")
    if not a.src.size:
        raise NotStronglyConnected("component has no transitions")
    k = len(automata.scc(a).bounds) - 1
    if k != 1:
        raise NotStronglyConnected(f"input splits into {k} components")


def _layout(
    sizes: np.ndarray,
    counts: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
    form: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Block-diagonal Gurevich matrix of consecutive components as edge
    arrays (dims, rows, cols, values).  Component b has sizes[b] states and
    the next counts[b] edges, with local src and dst; its block holds its
    states and then, in bipartite form, one node per edge."""
    dims = sizes + counts if form == "bipartite" else sizes
    starts = dims.cumsum() - dims
    offsets = starts.repeat(counts)
    if form == "bipartite":
        firsts = counts.cumsum() - counts
        nodes = (starts + sizes - firsts).repeat(counts) + np.arange(len(src))
        rows = np.concatenate((offsets + src, nodes))
        cols = np.concatenate((nodes, offsets + dst))
        values = np.concatenate((weights, np.ones(len(weights))))
        return dims, rows, cols, values
    return dims, offsets + src, offsets + dst, weights


def _public_matrix(a: CostAutomaton, form: str) -> NonnegativeMatrix:
    _check_component(a)
    names, src, dst, cost = list(a.state_names), a.src, a.dst, a.cost
    if form == "bipartite":  # transition nodes in (source, symbol, target) order
        order = np.lexsort((cost, dst, a.sym, src))
        src, sym, dst, cost = src[order], a.sym[order], dst[order], cost[order]
        names = [automata._escape(name, "->") for name in names]  # the naming rule
        symbols = [automata._escape(name, "->") for name in a.symbols]
        triples = zip(src.tolist(), sym.tolist(), dst.tolist())
        names += [f"{names[p]}-{symbols[y]}->{names[q]}" for p, y, q in triples]
    weights = automata._weights(cost)
    (dim,), rows, cols, values = _layout(
        np.array([len(a.state_names)]), np.array([len(weights)]), src, dst, weights, form
    )
    return NonnegativeMatrix.create(_dense(dim, rows, cols, values), names)


def gurevich_matrix_bipartite(a: CostAutomaton) -> NonnegativeMatrix:
    """Bipartite Gurevich matrix of one strongly connected component.

    Nodes: the component's states plus one node per transition, labelled
    "p-a->q" with backslash, "-" and ">" escaped in every name (states too).
    Nonzero entries: state p -> node (p,a,q) carries e^{V(p,a,q)}; node
    (p,a,q) -> state q carries 1.
    """
    return _public_matrix(a, "bipartite")


def gurevich_matrix_compact(a: CostAutomaton) -> NonnegativeMatrix:
    """m x m Gurevich matrix: entry (i, j) = sum over symbols of e^{V(p_i,a,p_j)}."""
    return _public_matrix(a, "compact")


def _blocks(p: SccPartition) -> tuple[list[bool], tuple[np.ndarray, ...]]:
    """Which components of ``p`` are cyclic, and as blocks their state and
    inside-edge counts and the inside edges' ends within the component."""
    a, labels, members, bounds, inside = p.automaton, p.labels, p.members, p.bounds, p.inside
    local = np.empty(len(labels), dtype=np.intp)  # position within the component
    local[members] = np.arange(len(labels)) - bounds[labels[members]]
    counts = p.edge_bounds[1:] - p.edge_bounds[:-1]
    cyclic = counts > 0  # a loop-free singleton has no edge inside and needs no solve
    sizes = bounds[1:] - bounds[:-1]
    return cyclic.tolist(), (sizes[cyclic], counts[cyclic], local[a.src[inside]], local[a.dst[inside]])


def _solve(
    columns: list[tuple[SccPartition, np.ndarray]],
    form: str,
    tolerance: float,
    max_iterations: int,
    source: CostAutomaton | None = None,
) -> list[EnergyReport]:
    """One report per (partition, cost column) pair, the column giving a
    cost to each edge of the partition's automaton.  The cyclic components
    of every pair, pair by pair, are the blocks of one batched solve.
    ``source``, when given, is what the automaton of the one pair was
    trimmed from, and the report records whether trimming changed it."""
    if form not in _STEPS:
        raise ValueError(f"unknown form {form!r}")
    blocks = {p: _blocks(p) for p in dict.fromkeys(p for p, _ in columns)}  # once per partition
    parts = [blocks[p][1] + (column[p.inside],) for p, column in columns]
    sizes, counts, src, dst, cost = (np.concatenate(part) for part in zip(*parts))
    firsts = counts.cumsum() - counts
    top = np.maximum.reduceat(cost, firsts)
    if np.isinf(top).any():  # a cost sum past the double range
        c = int(np.isinf(top).argmax())
        bad = float(top[c])
        error = Overflow if bad > 0.0 else Underflow
        raise error(f"free energy: a component of {sizes[c]} states carries cost {bad!r}; rescale costs")
    subnormal = np.minimum.reduceat(cost, firsts) < -_COST_RANGE
    shifts = np.where((top > _COST_RANGE) | ((top < 0.0) & subnormal), top, 0.0)
    with np.errstate(over="ignore"):  # a shifted cost past -1e308 is a weight of 0
        weights = np.exp(cost - shifts.repeat(counts))
    dims, rows, cols, values = _layout(sizes, counts, src, dst, weights, form)
    results = block_radii(dims, rows, cols, values, tolerance, max_iterations) if len(dims) else []
    energies = []
    for c, (result, shift) in enumerate(zip(results, shifts.tolist())):
        if not result.converged:
            raise NotConverged(
                f"{result.method} iteration stopped at residual {result.residual:.3e} "
                f"after {result.iterations} iterations (component of {sizes[c]} states, "
                f"{form} matrix of dimension {dims[c]})",
                result=result,
            )
        if not 0.0 < result.radius < math.inf:
            edges = slice(firsts[c], firsts[c] + counts[c])
            raise Underflow(
                f"free energy: certified radius {result.radius!r} of a component of "
                f"{sizes[c]} states is not a positive double; its costs span "
                f"{float(cost[edges].min())!r} to {float(cost[edges].max())!r}, "
                "too wide for one shift"
            )
        energies.append((_STEPS[form] * math.log(result.radius) + shift, result))
    solved = iter(energies)
    trim_changed = source is not None and columns[0][0].automaton is not source and not source.is_empty
    reports = []
    for p, _ in columns:
        flags, _ = blocks[p]
        if not flags:  # the empty automaton
            reports.append(EnergyReport(0.0, (), (), form, None, trim_changed))
            continue
        per = [next(solved) if has_cycle else (0.0, None) for has_cycle in flags]
        # max keeps the earliest of equal energies; with no cyclic component
        # this is component 0, whose energy is the conventional 0
        cyclic = [c for c, has_cycle in enumerate(flags) if has_cycle]
        best = max(cyclic, key=lambda c: per[c][0], default=0)
        per_component = tuple((states, e) for states, (e, _) in zip(p.components, per))
        solver = tuple(result for _, result in per)
        reports.append(EnergyReport(per[best][0], per_component, solver, form, best, trim_changed))
    return reports


def free_energy(
    a: CostAutomaton,
    form: str = "compact",
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> EnergyReport:
    """E(M_V): max of the cyclic components' energies over the cleaned-up
    automaton, 0 when no component is cyclic.

    Trims defensively (the report records whether that changed anything);
    initial and accepting states play no further role, matching the
    transition-structure-only definition of the energy.
    """
    p = automata.scc(automata.trim(a))
    (report,) = _solve([(p, p.automaton.cost)], form, tolerance, max_iterations, source=a)
    return report
