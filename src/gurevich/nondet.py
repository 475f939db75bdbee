"""Nondeterminism measurement for cost automata.

Two quantities, both free-energy differences on the cleaned-up automaton:

* lambda_plus: E(M_V) - E(M_0) with the branching cost V(p,a,q) = ln k(p,a)
  where k(p,a) counts the a-successors of p.  An upper estimate of the
  runs-per-word growth rate, computable without determinization.
* lambda_exact: E(M_0) - E(determinize(M)_0), the exact rate at which runs
  outgrow distinct words.

Both are provably nonnegative and lambda_exact <= lambda_plus; tiny
negative solver noise is clamped to 0 with the raw value retained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import automata, energy
from .automata import DEFAULT_STATE_CAP, CostAutomaton
from .spectral import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE

__all__ = ["NondetReport", "branching_costs", "lambda_plus", "lambda_exact"]


@dataclass(frozen=True)
class NondetReport:
    lambda_plus: float
    energy_v: float
    energy_zero: float
    lambda_exact: float | None = None
    dfa_states: int | None = None
    # raw differences before the clamp at 0, for solver-noise forensics
    lambda_plus_raw: float = 0.0
    lambda_exact_raw: float | None = None


def branching_costs(a: CostAutomaton) -> CostAutomaton:
    """Replace every cost: transition (p, a, q) gets ln k(p, a).

    Deterministic (p, a) pairs get cost 0 since k = 1.
    """
    _, pair, counts = np.unique(
        a.src * len(a.symbols) + a.sym, return_inverse=True, return_counts=True
    )
    logs = np.array([math.log(k) for k in counts.tolist()])
    return a.with_costs(logs[pair])


def _zeroed(a: CostAutomaton) -> CostAutomaton:
    return a.with_costs(np.zeros(a.cost.size))


def lambda_plus(
    a: CostAutomaton,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> NondetReport:
    """Free-energy upper estimate of nondeterminism; 0 for any DFA."""
    a = automata.trim(a)  # clean-up before measurement is mandatory
    energy_v = energy.free_energy(branching_costs(a), tolerance=tolerance, max_iterations=max_iterations).energy
    energy_zero = energy.free_energy(_zeroed(a), tolerance=tolerance, max_iterations=max_iterations).energy
    raw = energy_v - energy_zero
    return NondetReport(
        lambda_plus=max(raw, 0.0),
        energy_v=energy_v,
        energy_zero=energy_zero,
        lambda_plus_raw=raw,
    )


def lambda_exact(
    a: CostAutomaton,
    state_cap: int = DEFAULT_STATE_CAP,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> NondetReport:
    """Exact nondeterminism via determinization; raises StateCapExceeded
    when the subset construction would pass ``state_cap``, before any
    solve (callers can then still fall back to lambda_plus)."""
    a = automata.trim(a)
    det = automata.determinize(a, state_cap=state_cap)
    base = lambda_plus(a, tolerance, max_iterations)
    energy_det = energy.free_energy(det, tolerance=tolerance, max_iterations=max_iterations).energy
    raw = base.energy_zero - energy_det
    return NondetReport(
        lambda_plus=base.lambda_plus,
        energy_v=base.energy_v,
        energy_zero=base.energy_zero,
        lambda_exact=max(raw, 0.0),
        dfa_states=len(det.state_names),
        lambda_plus_raw=base.lambda_plus_raw,
        lambda_exact_raw=raw,
    )
