"""Spectral radius of nonnegative matrices, certified by Collatz-Wielandt bounds.

The dominant eigenvalue of the Gurevich matrix is the numerical heart of
every energy in the toolkit.  For a strictly positive vector v and a
nonnegative matrix A, the spectral radius of A lies between
min_i (Av)_i / v_i and max_i (Av)_i / v_i, the Collatz-Wielandt interval.
The solver stops when that interval's width is below tolerance relative to
its upper end, which gives a rigorous relative-accuracy certificate on the
radius of A itself rather than a heuristic change-per-sweep test.

Two kinds of step move v towards the Perron vector:

* power sweeps v <- (Av + v) / sum.  Stepping with A + I makes the
  iteration converge even for periodic (e.g. bipartite-cyclic) irreducible
  matrices whose raw power iteration oscillates, and keeps v strictly
  positive because (A + I) v >= v entrywise.  A sweep costs one mat-vec.
* Noda steps v <- y / sum with (hi I - A) y = v, hi the current upper
  bound (T. Noda, Numer. Math. 17 (1971); L. Elsner, Linear Algebra Appl.
  15 (1976) proves the convergence quadratic).  For hi above the radius,
  (hi I - A)^-1 is nonnegative with a positive diagonal, so y is strictly
  positive, and since (Ay)_i / y_i = hi - v_i / y_i the next upper bound
  lies strictly below hi.  A step costs one LU solve: numpy's dense
  solve for an ndarray, scipy's sparse ``splu`` for a CSR matrix.

Power sweeps come first.  Once a window of them has passed, the solver
measures how fast the interval's width contracts and predicts how many
sweeps remain; when that exceeds the matrix dimension (the mat-vecs of a
few dense LU solves) it switches to Noda steps.  Well-mixed matrices
certify in a few dozen sweeps and never switch; slow-mixing ones (long
cycles with few chords) switch and certify in a handful of solves.  A solve that fails
(singular system, non-finite or non-positive y), or a Noda step that does
not lower the upper bound because rounding has taken over, hands the rest
of the run back to power sweeps.

The matrix may be a dense ndarray or a scipy CSR matrix; both sweep with
``a @ v``.  This module never imports scipy itself: a CSR matrix can only
arrive once its caller has loaded scipy.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonnegativeMatrix",
    "SpectralResult",
    "spectral_radius",
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_ITERATIONS",
]

DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_ITERATIONS = 1_000_000

# power sweeps between two width readings that give the contraction rate
_RATE_WINDOW = 16


@dataclass(frozen=True)
class NonnegativeMatrix:
    """Nonnegative square matrix with node labels for its indices.

    entries is a dense ndarray or a scipy CSR matrix; ``create`` builds and
    validates the dense kind.  labels is empty for the unlabelled
    component matrices that the energy layer builds internally.
    """

    dim: int
    entries: np.ndarray
    labels: tuple[str, ...] = ()

    @staticmethod
    def create(entries, labels) -> "NonnegativeMatrix":
        arr = np.asarray(entries, dtype=float)
        labels = tuple(labels)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"matrix must be square, got shape {arr.shape}")
        if arr.shape[0] != len(labels):
            raise ValueError(f"{len(labels)} labels for dim {arr.shape[0]}")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        if arr.size and arr.min() < 0:
            raise ValueError(f"negative entry {arr.min()}")
        return NonnegativeMatrix(dim=arr.shape[0], entries=arr, labels=labels)


@dataclass(frozen=True)
class SpectralResult:
    """Radius estimate with its certificate.

    residual is the Collatz-Wielandt width relative to the upper bound at
    the last iterate; iterations counts power sweeps plus Noda steps; method
    is "noda" once a Noda step has been taken, else "power".
    """

    radius: float
    iterations: int
    residual: float
    converged: bool
    method: str = "power"


def _bounds(v: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Collatz-Wielandt interval of w = Av; hi is inf while mass flows into
    a zero coordinate of v, where the ratio is unbounded."""
    pos = v > 0.0
    if pos.all():
        ratios = w / v
    else:
        ratios = w[pos] / v[pos]
        if np.any(w[~pos] > 0.0):
            return float(ratios.min()), math.inf
    return float(ratios.min()), float(ratios.max())


def _stalled(widths: deque, hi: float, tolerance: float, dim: int) -> bool:
    """Whether power sweeps, contracting the width as fast as they did over
    ``widths``, would need more than ``dim`` further sweeps to certify."""
    first, last = widths[0], widths[-1]
    if last >= first:
        return True
    sweeps = (len(widths) - 1) * math.log(last / (tolerance * hi)) / math.log(first / last)
    return sweeps > dim


def _noda_step(a, shift: float, v: np.ndarray) -> np.ndarray | None:
    """y / sum(y) for (shift I - a) y = v, or None when the solve fails."""
    if isinstance(a, np.ndarray):
        b = -a
        b.flat[:: a.shape[0] + 1] += shift
        try:
            y = np.linalg.solve(b, v)
        except np.linalg.LinAlgError:
            return None
    else:
        from scipy.sparse import identity
        from scipy.sparse.linalg import splu

        try:
            y = splu((shift * identity(a.shape[0], format="csr") - a).tocsc()).solve(v)
        except (RuntimeError, MemoryError):  # exactly singular factor, or no room
            return None
    total = y.sum()
    if not (math.isfinite(total) and y.min() > 0.0):
        return None
    return y / total


def spectral_radius(
    m: NonnegativeMatrix,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> SpectralResult:
    """Perron-Frobenius eigenvalue to relative accuracy ``tolerance``.

    Never raises: when the Collatz-Wielandt interval is still wider than
    tolerance after max_iterations (power sweeps and Noda steps together)
    the result comes back with converged=False and the midpoint estimate
    (reducible matrices can be this slow; callers that need a guarantee
    should treat converged=False as an error, which is what the energy
    layer does).
    """
    a = m.entries
    if a.size == 0 or a.max() == 0.0:
        return SpectralResult(radius=0.0, iterations=0, residual=0.0, converged=True)

    v = np.full(m.dim, 1.0 / m.dim)
    widths: deque = deque(maxlen=_RATE_WINDOW + 1)
    phase = "power"  # then "noda", then "power only" once Noda gives out
    method = "power"
    shift = math.inf  # upper bound that the last Noda step shifted by
    lo, hi = 0.0, math.inf
    iterations = 0
    while iterations < max_iterations:
        w = a @ v
        iterations += 1
        lo, hi = _bounds(v, w)
        if math.isfinite(hi) and hi - lo <= tolerance * hi:
            return SpectralResult(
                radius=(lo + hi) / 2.0,
                iterations=iterations,
                residual=(hi - lo) / hi if hi > 0 else 0.0,
                converged=True,
                method=method,
            )
        if phase == "noda" and not hi < shift:
            phase = "power only"  # rounding has stopped the descent
        elif phase == "power" and math.isfinite(hi):
            widths.append(hi - lo)
            if len(widths) == widths.maxlen and _stalled(widths, hi, tolerance, m.dim):
                phase = "noda"
        if phase == "noda":
            y = _noda_step(a, hi, v)
            if y is not None:
                v, shift, method = y, hi, "noda"
                continue
            phase = "power only"
        v = w + v
        v /= v.sum()
    finite = math.isfinite(hi)
    return SpectralResult(
        radius=(lo + hi) / 2.0 if finite else lo,
        iterations=iterations,
        residual=(hi - lo) / hi if finite and hi > 0 else math.inf,
        converged=False,
        method=method,
    )
