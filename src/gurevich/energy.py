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
arrays, and names reappear only in the report.  A component's matrix is a
dense array up to ``_DENSE_DIM`` nodes and a scipy CSR matrix above it, so
memory grows with transitions, not states^2; scipy is imported only when a
component needs it.  The public builders ``gurevich_matrix_compact`` and
``gurevich_matrix_bipartite`` always return dense labelled matrices.

e^V leaves the double range once V passes about +709 (overflow) or -708
(subnormal, then 0).  A component whose largest weight falls outside
e^(+-700) is solved with its costs shifted by its largest cost and the
shift added back, since E(V + c) = E(V) + c; every other component is
solved as built.
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
    spectral_radius,
)

__all__ = [
    "EnergyReport",
    "gurevich_matrix_bipartite",
    "gurevich_matrix_compact",
    "component_energy",
    "free_energy",
]

# components with more matrix nodes than this are solved on CSR matrices;
# on one core the whole solve (build, sweeps, Noda steps) is faster dense up
# to this size and faster on CSR from about 192 nodes up
_DENSE_DIM = 160

# weights outside this range send a component to the shifted build
_WEIGHT_RANGE = (math.exp(-700.0), math.exp(700.0))

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


def _transfer_matrix(
    size: int,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
    form: str,
    dense: bool = False,
):
    """Gurevich matrix of one component from its local edge arrays: a
    dense array when ``dense`` or at most ``_DENSE_DIM`` nodes, else CSR."""
    if form == "bipartite":
        nodes = np.arange(size, size + len(weights))
        rows = np.concatenate((src, nodes))
        cols = np.concatenate((nodes, dst))
        values = np.concatenate((weights, np.ones(len(weights))))
        dim = size + len(weights)
    else:
        rows, cols, values, dim = src, dst, weights, size
    if dense or dim <= _DENSE_DIM:
        flat = np.bincount(rows * dim + cols, weights=values, minlength=dim * dim)
        return flat.reshape(dim, dim)
    from scipy.sparse import csr_matrix

    return csr_matrix((values, (rows, cols)), shape=(dim, dim))


def _public_matrix(a: CostAutomaton, form: str, shift: float) -> NonnegativeMatrix:
    _check_component(a)
    names, src, dst, cost = list(a.state_names), a.src, a.dst, a.cost
    if form == "bipartite":  # transition nodes in (source, symbol, target) order
        order = np.lexsort((cost, dst, a.sym, src))
        src, sym, dst, cost = src[order], a.sym[order], dst[order], cost[order]
    with np.errstate(over="ignore"):
        weights = np.exp(cost - shift)
    if not np.isfinite(weights).all():
        raise Overflow(f"e^{cost.max() - shift} exceeds the double range; rescale costs")
    entries = _transfer_matrix(len(names), src, dst, weights, form, dense=True)
    if form == "bipartite":
        names += [
            f"{names[p]}-{a.symbols[y]}->{names[q]}"
            for p, y, q in zip(src.tolist(), sym.tolist(), dst.tolist())
        ]
    return NonnegativeMatrix(dim=len(names), entries=entries, labels=tuple(names))


def gurevich_matrix_bipartite(a: CostAutomaton, shift: float = 0.0) -> NonnegativeMatrix:
    """Bipartite Gurevich matrix of one strongly connected component.

    Nodes: the component's states plus one node per transition.  Nonzero
    entries: state p -> node (p,a,q) carries e^{V(p,a,q) - shift}; node
    (p,a,q) -> state q carries 1.
    """
    return _public_matrix(a, "bipartite", shift)


def gurevich_matrix_compact(a: CostAutomaton, shift: float = 0.0) -> NonnegativeMatrix:
    """m x m Gurevich matrix: entry (i, j) = sum over symbols of e^{V(p_i,a,p_j) - shift}."""
    return _public_matrix(a, "compact", shift)


def component_energy(
    a: CostAutomaton,
    form: str = "compact",
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> float:
    """Energy of one SCC; loop-free singletons are 0 by convention."""
    if len(a.states) == 1 and not a.src.size:
        return 0.0
    _check_form(form)
    _check_component(a)
    energy, _ = _solve_component(
        len(a.state_names), a.src, a.dst, a.cost, form, tolerance, max_iterations
    )
    return energy


def _solve_component(
    size: int,
    src: np.ndarray,
    dst: np.ndarray,
    cost: np.ndarray,
    form: str,
    tolerance: float,
    max_iterations: int,
) -> tuple[float, SpectralResult]:
    """Energy of one cyclic component given by its local edge arrays."""
    with np.errstate(over="ignore"):
        weights = np.exp(cost)
    shift = 0.0
    lowest, highest = _WEIGHT_RANGE
    if not lowest <= weights.max() <= highest:
        shift = float(cost.max())
        weights = np.exp(cost - shift)
    entries = _transfer_matrix(size, src, dst, weights, form)
    matrix = NonnegativeMatrix(dim=entries.shape[0], entries=entries)
    result = spectral_radius(matrix, tolerance, max_iterations)
    if not result.converged:
        raise NotConverged(
            f"{result.method} iteration stopped at residual {result.residual:.3e} "
            f"after {result.iterations} iterations (component of {size} states, "
            f"{form} matrix of dimension {matrix.dim})",
            result=result,
        )
    if not 0.0 < result.radius < math.inf:
        raise Underflow(
            f"free energy: certified radius {result.radius!r} of a component of "
            f"{size} states is not a positive double; its costs span "
            f"{float(cost.min())!r} to {float(cost.max())!r}, too wide for one shift"
        )
    return _STEPS[form] * math.log(result.radius) + shift, result


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
    live = automata.live_states(a)
    if not live.any():
        return EnergyReport(0.0, (), (), form, None, trim_changed=True)
    trim_changed = not live.all()
    if trim_changed:
        a = automata.keep_states(a, live)
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
    bounds = np.searchsorted(comp_of[src[order]], np.arange(len(comps) + 1)).tolist()
    local_src, local_dst, comp_cost = local[src[order]], local[dst[order]], cost[order]

    per_component: list[tuple[frozenset[str], float]] = []
    solver: list[SpectralResult | None] = []
    for c, members in enumerate(comps):
        lo, hi = bounds[c], bounds[c + 1]
        energy, result = 0.0, None  # a loop-free singleton has no edge inside
        if hi > lo:
            energy, result = _solve_component(
                len(members), local_src[lo:hi], local_dst[lo:hi], comp_cost[lo:hi],
                form, tolerance, max_iterations,
            )
        per_component.append((frozenset(names[i] for i in members), energy))
        solver.append(result)
    # max keeps the earliest of equal energies; with no cyclic component
    # this is component 0, whose energy is the conventional 0
    cyclic = [c for c, result in enumerate(solver) if result is not None]
    best = max(cyclic, key=lambda c: per_component[c][1], default=0)
    return EnergyReport(
        energy=per_component[best][1],
        per_component=tuple(per_component),
        solver=tuple(solver),
        form_used=form,
        max_component=best,
        trim_changed=trim_changed,
    )
