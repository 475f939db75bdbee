"""Free-energy semantic similarity between two cost automata.

Delta(a1, a2) is the free energy of their Cartesian product with summed
costs: the growth rate of the cost-weighted behaviors the two machines
share.  Disjoint languages give an empty product and Delta = 0; the other
end is bounded by E(a1) + E(a2).  Symbols present in only one machine
simply produce no product transition, so nothing infinite ever enters a
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import automata, energy
from .automata import CostAutomaton
from .spectral import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE

__all__ = ["SimilarityReport", "similarity"]


@dataclass(frozen=True)
class SimilarityReport:
    delta: float
    energy_1: float
    energy_2: float
    product_states: int
    # artifact extension, not part of the metric's definition: delta scaled
    # by energy_1 + energy_2 into [0, 1] for ranking, absent when the
    # denominator is 0
    normalized: float | None = None


def similarity(
    a1: CostAutomaton,
    a2: CostAutomaton,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> SimilarityReport:
    """Delta plus the individual energies, solved in one batch on the
    trimmed inputs and their product; each is trimmed once."""
    a1 = automata.trim(a1)
    a2 = automata.trim(a2)
    prod = automata.product(a1, a2)
    columns = [(p, p.automaton.cost) for p in map(automata.scc, (prod, a1, a2))]
    delta, energy_1, energy_2 = (r.energy for r in energy._solve(columns, "compact", tolerance, max_iterations))
    total = energy_1 + energy_2
    normalized = min(max(delta / total, 0.0), 1.0) if total > 0 else None
    return SimilarityReport(
        delta=delta,
        energy_1=energy_1,
        energy_2=energy_2,
        product_states=len(prod.state_names),
        normalized=normalized,
    )
