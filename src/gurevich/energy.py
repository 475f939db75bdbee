"""Free energy of cost automata.

E(M_V) is ln of the Perron-Frobenius eigenvalue of the Gurevich matrix,
computed per strongly connected component and maximized.  Two matrix forms
are supported and must agree:

* bipartite: one node per state and one per transition; a state row feeds
  e^{V(p,a,q)} into the transition node and the transition node feeds 1
  into its target state.  The component energy is 2 ln(radius) because one
  automaton step crosses two bipartite edges.
* compact: one node per state; entry (i, j) sums e^{V} over all symbols
  carrying state i to state j.  The component energy is ln(radius).

A singleton component without a self-loop contributes no cycles and its
energy is 0 by convention; the empty automaton's energy is 0 as well
(ln 0 = 0 convention).

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
from .errors import NotConverged, NotStronglyConnected, Overflow
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


@dataclass(frozen=True)
class EnergyReport:
    """Free-energy value (nats per step) plus the per-SCC breakdown.

    per_component entries are (component state set, component energy) in
    Tarjan discovery order; solver holds the SpectralResult for each
    component (None for loop-free singletons, which need no solve).
    max_component is the index of the component attaining the energy, ties
    broken toward the earliest component; None for the empty automaton.
    trim_changed records whether the defensive clean-up removed anything.
    """

    energy: float
    per_component: tuple[tuple[frozenset[str], float], ...]
    solver: tuple[SpectralResult | None, ...]
    form_used: str
    max_component: int | None = None
    trim_changed: bool = False


def _exp(cost: float) -> float:
    try:
        return math.exp(cost)
    except OverflowError:
        raise Overflow(f"e^{cost} exceeds the double range; rescale costs") from None


def _check_component(a: CostAutomaton) -> None:
    if a.is_empty:
        raise NotStronglyConnected("component is empty")
    if not a.transitions:
        raise NotStronglyConnected("component has no transitions")
    parts = automata.scc(a)
    if len(parts.components) != 1:
        raise NotStronglyConnected(
            f"input splits into {len(parts.components)} components"
        )


def gurevich_matrix_bipartite(a: CostAutomaton, shift: float = 0.0) -> NonnegativeMatrix:
    """Bipartite Gurevich matrix of one strongly connected component.

    Nodes: the component's states plus one node per transition.  Nonzero
    entries: state p -> node (p,a,q) carries e^{V(p,a,q) - shift}; node
    (p,a,q) -> state q carries 1.
    """
    _check_component(a)
    states = sorted(a.states)
    trans = sorted(a.transitions)
    labels = list(states) + [f"{t.source}-{t.symbol}->{t.target}" for t in trans]
    dim = len(labels)
    entries = np.zeros((dim, dim))
    index = {name: i for i, name in enumerate(labels)}
    for k, t in enumerate(trans):
        node = len(states) + k
        entries[index[t.source], node] = _exp(t.cost - shift)
        entries[node, index[t.target]] = 1.0
    return NonnegativeMatrix(dim=dim, entries=entries, labels=tuple(labels))


def gurevich_matrix_compact(a: CostAutomaton, shift: float = 0.0) -> NonnegativeMatrix:
    """m x m Gurevich matrix: entry (i, j) = sum over symbols of e^{V(p_i,a,p_j) - shift}."""
    _check_component(a)
    states = sorted(a.states)
    index = {s: i for i, s in enumerate(states)}
    entries = np.zeros((len(states), len(states)))
    for t in a.transitions:
        entries[index[t.source], index[t.target]] += _exp(t.cost - shift)
    return NonnegativeMatrix(dim=len(states), entries=entries, labels=tuple(states))


def component_energy(
    a: CostAutomaton,
    form: str = "compact",
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> float:
    """Energy of one SCC; loop-free singletons are 0 by convention."""
    energy, _ = _component_energy_solved(a, form, tolerance, max_iterations)
    return energy


# weights outside this range send a component to the shifted build
_WEIGHT_RANGE = (math.exp(-700.0), math.exp(700.0))


def _component_energy_solved(
    a: CostAutomaton,
    form: str,
    tolerance: float,
    max_iterations: int,
) -> tuple[float, SpectralResult | None]:
    if len(a.states) == 1 and not a.transitions:
        return 0.0, None
    if form == "bipartite":
        build, factor = gurevich_matrix_bipartite, 2.0
    elif form == "compact":
        build, factor = gurevich_matrix_compact, 1.0
    else:
        raise ValueError(f"unknown form {form!r}")
    shift = 0.0
    try:
        matrix = build(a)
        # both forms keep every weight e^V in the rows of the states
        lowest, highest = _WEIGHT_RANGE
        in_range = lowest <= matrix.entries[: len(a.states)].max() <= highest
    except Overflow:
        in_range = False
    if not in_range:
        shift = max(t.cost for t in a.transitions)
        matrix = build(a, shift=shift)
    result = spectral_radius(matrix, tolerance, max_iterations)
    if not result.converged:
        raise NotConverged(
            f"{result.method} iteration stopped at residual {result.residual:.3e} "
            f"after {result.iterations} iterations (component of {len(a.states)} states, "
            f"{form} matrix of dimension {matrix.dim})",
            result=result,
        )
    return factor * math.log(result.radius) + shift, result


def free_energy(
    a: CostAutomaton,
    form: str = "compact",
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> EnergyReport:
    """E(M_V): max of per-SCC energies over the cleaned-up automaton.

    Trims defensively (the report records whether that changed anything);
    initial and accepting states play no further role, matching the
    transition-structure-only definition of the energy.
    """
    trimmed = automata.trim(a)
    trim_changed = trimmed.states != a.states or len(trimmed.transitions) != len(a.transitions)
    if trimmed.is_empty:
        return EnergyReport(
            energy=0.0,
            per_component=(),
            solver=(),
            form_used=form,
            max_component=None,
            trim_changed=trim_changed,
        )
    parts = automata.scc(trimmed)
    per_component: list[tuple[frozenset[str], float]] = []
    solver: list[SpectralResult | None] = []
    for comp in parts.components:
        sub = automata.induced(trimmed, comp)
        energy, result = _component_energy_solved(sub, form, tolerance, max_iterations)
        per_component.append((comp, energy))
        solver.append(result)
    best = 0
    for i, (_, e) in enumerate(per_component):
        if e > per_component[best][1]:
            best = i
    return EnergyReport(
        energy=per_component[best][1],
        per_component=tuple(per_component),
        solver=tuple(solver),
        form_used=form,
        max_component=best,
        trim_changed=trim_changed,
    )
