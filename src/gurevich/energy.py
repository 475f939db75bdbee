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
arrays, and names reappear only in the report.  Every cyclic component,
whatever its size, is one block of a single block-diagonal matrix, held as
edge arrays and solved by one batched sweep (``spectral.block_radii``):
each block is certified, stalls into Noda steps and spends its iteration
budget on its own, as if solved alone.  Only a block of at most 160 nodes
that takes Noda steps is ever made dense, so memory grows with
transitions, not states^2.  The public builders
``gurevich_matrix_compact`` and ``gurevich_matrix_bipartite`` return dense
labelled matrices.

e^V leaves the double range once V passes about +709 (overflow) or -708
(subnormal, then 0).  A component whose largest cost lies outside +-700,
so that its largest weight leaves e^(+-700), is solved with its costs
shifted by its largest cost and the shift added back, since
E(V + c) = E(V) + c; every other component is solved as built.  The shift
is chosen per component, in the batch as alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import automata
from .automata import CostAutomaton
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

# a component whose largest cost lies outside +-this, so that its largest
# weight leaves e^(+-700), is solved shifted
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
    parts = automata.scc(a)
    if len(parts.components) != 1:
        raise NotStronglyConnected(
            f"input splits into {len(parts.components)} components"
        )


def _check_form(form: str) -> None:
    if form not in _STEPS:
        raise ValueError(f"unknown form {form!r}")


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
    with np.errstate(over="ignore"):
        weights = np.exp(cost)
    if not np.isfinite(weights).all():
        raise Overflow(f"e^{cost.max()} exceeds the double range; rescale costs")
    (dim,), rows, cols, values = _layout(
        np.array([len(names)]), np.array([len(weights)]), src, dst, weights, form
    )
    entries = _dense(dim, rows, cols, values)
    if form == "bipartite":
        names += [
            f"{names[p]}-{a.symbols[y]}->{names[q]}"
            for p, y, q in zip(src.tolist(), sym.tolist(), dst.tolist())
        ]
    return NonnegativeMatrix(dim=len(names), entries=entries, labels=tuple(names))


def gurevich_matrix_bipartite(a: CostAutomaton) -> NonnegativeMatrix:
    """Bipartite Gurevich matrix of one strongly connected component.

    Nodes: the component's states plus one node per transition.  Nonzero
    entries: state p -> node (p,a,q) carries e^{V(p,a,q)}; node (p,a,q) ->
    state q carries 1.
    """
    return _public_matrix(a, "bipartite")


def gurevich_matrix_compact(a: CostAutomaton) -> NonnegativeMatrix:
    """m x m Gurevich matrix: entry (i, j) = sum over symbols of e^{V(p_i,a,p_j)}."""
    return _public_matrix(a, "compact")


def _solve_cyclic(
    sizes: np.ndarray,
    counts: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    cost: np.ndarray,
    form: str,
    tolerance: float,
    max_iterations: int,
) -> list[tuple[float, SpectralResult]]:
    """Energy and certified solve of each cyclic component: component b
    has sizes[b] states and the next counts[b] edges of the local edge
    arrays.  Every component is one block of a single batched solve."""
    if not len(sizes):
        return []
    firsts = counts.cumsum() - counts
    top = np.maximum.reduceat(cost, firsts)
    shifts = np.where(np.abs(top) <= _COST_RANGE, 0.0, top)
    weights = np.exp(cost - shifts.repeat(counts))
    dims, rows, cols, values = _layout(sizes, counts, src, dst, weights, form)
    results = block_radii(dims, rows, cols, values, tolerance, max_iterations)
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
    return energies


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
    _check_form(form)
    if a.is_empty:
        return EnergyReport(energy=0.0, per_component=(), solver=(), form_used=form)
    trimmed = automata.trim(a)
    if trimmed.is_empty:
        return EnergyReport(0.0, (), (), form, None, trim_changed=True)
    trim_changed = trimmed is not a  # trim returns its input when every state is live
    a = trimmed
    names, src, dst, cost = a.state_names, a.src, a.dst, a.cost
    n = len(names)

    comps = automata.tarjan(*automata.adjacency(n, src, dst))
    comp_of = np.empty(n, dtype=np.intp)
    local = np.empty(n, dtype=np.intp)  # position within the component, in name order
    for c, members in enumerate(comps):
        members.sort()
        comp_of[members] = c
        local[members] = np.arange(len(members))
    # the edges inside components, grouped by component
    inside = np.flatnonzero(comp_of[src] == comp_of[dst])
    order = inside[np.argsort(comp_of[src[inside]], kind="stable")]
    bounds = np.searchsorted(comp_of[src[order]], np.arange(len(comps) + 1))
    local_src, local_dst, comp_cost = local[src[order]], local[dst[order]], cost[order]

    sizes = np.array([len(members) for members in comps], dtype=np.intp)
    counts = bounds[1:] - bounds[:-1]
    cyclic = counts > 0  # a loop-free singleton has no edge inside and needs no solve
    solved = iter(_solve_cyclic(
        sizes[cyclic], counts[cyclic], local_src, local_dst, comp_cost, form, tolerance, max_iterations
    ))
    per_component: list[tuple[frozenset[str], float]] = []
    solver: list[SpectralResult | None] = []
    for members, has_cycle in zip(comps, cyclic.tolist()):
        energy, result = next(solved) if has_cycle else (0.0, None)
        per_component.append((frozenset(names[i] for i in members), energy))
        solver.append(result)
    # max keeps the earliest of equal energies; with no cyclic component
    # this is component 0, whose energy is the conventional 0
    best = max(cyclic.nonzero()[0].tolist(), key=lambda c: per_component[c][1], default=0)
    return EnergyReport(
        energy=per_component[best][1],
        per_component=tuple(per_component),
        solver=tuple(solver),
        form_used=form,
        max_component=best,
        trim_changed=trim_changed,
    )
