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
  solve on a block of at most ``_DENSE_DIM`` nodes, scipy's sparse
  ``splu`` on a larger one.

Power sweeps come first.  Once a window of them has passed, the solver
measures how fast the interval's width contracts and predicts how many
sweeps remain; when that exceeds the matrix dimension (the mat-vecs of a
few dense LU solves) it switches to Noda steps.  Well-mixed matrices
certify in a few dozen sweeps and never switch; slow-mixing ones (long
cycles with few chords) switch and certify in a handful of solves.  A solve that fails
(singular system, non-finite or non-positive y), or a Noda step that does
not lower the upper bound because rounding has taken over, hands the rest
of the run back to power sweeps.

There is one solver loop, ``block_radii``.  It solves every diagonal
block of a block-diagonal matrix at once, given as edge arrays with the
blocks laid out one after another, and each block gets exactly the rules
above, applied to itself alone:

* a sweep is one ``np.bincount`` mat-vec over the edges of every block
  still in the batch, and ``np.add.reduceat`` renormalises each block;
* each block's Collatz-Wielandt interval comes from
  ``np.minimum.reduceat``/``np.maximum.reduceat`` of w / v, and a block
  leaves the batch on the sweep that certifies it;
* each block has its own rate window and its own iteration count, so
  ``max_iterations`` applies per block;
* a block that stalls takes its Noda steps on its own edges, from its
  current vector, while the other blocks go on sweeping.

``spectral_radius`` takes one dense ndarray and solves it as a batch of
one block.  scipy is imported only when a block above
``_DENSE_DIM`` nodes takes a Noda step.
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
    "block_radii",
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_ITERATIONS",
]

DEFAULT_TOLERANCE = 1e-12
DEFAULT_MAX_ITERATIONS = 1_000_000

# power sweeps between two width readings that give the contraction rate
_RATE_WINDOW = 16

# a block with at most this many nodes takes its Noda steps on a dense
# matrix with numpy's LU, a larger one on a CSC matrix with scipy's splu.
# On one core a dense step is the faster up to here (a ring with one chord
# per node: 0.23 ms dense, 0.72 ms splu at 160 nodes), and its n^2 memory
# stays small
_DENSE_DIM = 160


@dataclass(frozen=True)
class NonnegativeMatrix:
    """Nonnegative square matrix with node labels for its indices.

    entries is a dense ndarray; ``create`` builds and validates it.
    labels may be empty.
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


# phases of a block: power sweeps, then Noda steps once they stall, then
# power sweeps only once Noda gives out
_POWER, _NODA, _POWER_ONLY = 0, 1, 2


def _bounds(v: np.ndarray, w: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collatz-Wielandt interval of w = Av for each block starting at
    ``starts``.  A zero coordinate of v bounds nothing while nothing flows
    into it, and makes the block's hi inf once something does."""
    if np.count_nonzero(v) == len(v):
        ratios = w / v
        return np.minimum.reduceat(ratios, starts), np.maximum.reduceat(ratios, starts)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = w / v
    idle = (v == 0.0) & (w == 0.0)
    return (
        np.minimum.reduceat(np.where(idle, np.inf, ratios), starts),
        np.maximum.reduceat(np.where(idle, -np.inf, ratios), starts),
    )


def _stalled(
    first: np.ndarray, last: np.ndarray, hi: np.ndarray, tolerance: float, dims: np.ndarray
) -> np.ndarray:
    """Which blocks' power sweeps, contracting the width from ``first`` to
    ``last`` over the rate window, would at that rate need more further
    sweeps to certify than the block has nodes.  A width that has not
    shrunk stalls at once, since last > tolerance * hi on a block that is
    still in the batch; a window with a non-finite end never stalls."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _RATE_WINDOW * np.log(last / (tolerance * hi)) > dims * np.log(first / last)


def _dense(dim: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """dim x dim array with values[e] summed into (rows[e], cols[e])."""
    return np.bincount(rows * dim + cols, weights=values, minlength=dim * dim).reshape(dim, dim)


def _noda_step(
    dim: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shift: float, v: np.ndarray
) -> np.ndarray | None:
    """y / sum(y) for (shift I - A) y = v, A the dim x dim matrix with
    values[e] summed into (rows[e], cols[e]), or None when the solve fails."""
    if dim <= _DENSE_DIM:
        b = -_dense(dim, rows, cols, values)
        b.flat[:: dim + 1] += shift
        try:
            y = np.linalg.solve(b, v)
        except np.linalg.LinAlgError:
            return None
    else:
        from scipy.sparse import csc_matrix, identity
        from scipy.sparse.linalg import splu

        try:
            a = csc_matrix((values, (rows, cols)), shape=(dim, dim))
            y = splu(shift * identity(dim, format="csc") - a).solve(v)
        except (RuntimeError, MemoryError):  # exactly singular factor, or no room
            return None
    total = y.sum()
    if not (math.isfinite(total) and y.min() > 0.0):
        return None
    return y / total


class _Blocks:
    """Block-diagonal matrix held as edge arrays sorted by row; blocks that
    leave the batch are cut out with ``keep``."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, size: int) -> None:
        order = np.argsort(rows, kind="stable")
        self.rows, self.cols, self.values = rows[order], cols[order], values[order]
        self.size = size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.values * v[self.cols], minlength=self.size)

    def edges(self, start: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges of the block on nodes start .. start + dim - 1, numbered
        from 0 within it."""
        edges = slice(*np.searchsorted(self.rows, (start, start + dim)).tolist())
        return self.rows[edges] - start, self.cols[edges] - start, self.values[edges]

    def keep(self, nodes: np.ndarray) -> None:
        """Drop every node outside the mask ``nodes`` with its edges."""
        position = np.cumsum(nodes) - 1
        inside = nodes[self.rows]
        self.rows = position[self.rows[inside]]
        self.cols = position[self.cols[inside]]
        self.values = self.values[inside]
        self.size = int(position[-1]) + 1


def _result(lo: float, hi: float, iterations: int, converged: bool, noda: bool) -> SpectralResult:
    if math.isfinite(hi):
        radius, residual = (lo + hi) / 2.0, (hi - lo) / hi if hi > 0.0 else 0.0
    else:
        radius, residual = lo, math.inf
    method = "noda" if noda else "power"
    return SpectralResult(radius, iterations, residual, converged, method)


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
    rows, cols = m.entries.nonzero()
    values = m.entries[rows, cols]
    if not values.any():
        return SpectralResult(radius=0.0, iterations=0, residual=0.0, converged=True)
    return block_radii([m.dim], rows, cols, values, tolerance, max_iterations)[0]


def block_radii(
    dims: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> list[SpectralResult]:
    """``spectral_radius`` of every diagonal block of a block-diagonal
    nonnegative matrix, in one batched sweep.

    The matrix is given by its edges: entry (rows[e], cols[e]) gains
    values[e].  Block b holds dims[b] consecutive nodes, block 0 first, and
    every edge lies inside a block.  Each block gets the certificate,
    iteration budget and Noda hand-off it would get on its own.

    All blocks sweep together, one mat-vec per sweep; each keeps its own
    interval, phase and Noda shift, and leaves the batch once certified.
    A block's rate window spans its last ``_RATE_WINDOW`` sweeps, and its
    stall rule reads the window only when the widths at both ends are
    finite.  A block in its Noda phase replaces its swept vector by its
    Noda step, solved on its own edges."""
    dims = np.asarray(dims, dtype=np.intp)
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    op = _Blocks(rows, cols, np.asarray(values, dtype=float), int(dims.sum()))
    k = len(dims)
    if max_iterations < 1:
        return [_result(0.0, math.inf, 0, False, False) for _ in range(k)]
    results: list[SpectralResult | None] = [None] * k
    ids = np.arange(k)  # each active block's index in results
    starts = dims.cumsum() - dims
    v = (1.0 / dims).repeat(dims)
    phase = np.full(k, _POWER, dtype=np.int8)
    powering, stepping = k, []  # blocks sweeping; positions of those taking Noda steps
    history: deque = deque(maxlen=_RATE_WINDOW + 1)  # widths of the latest sweeps
    # by index in results: the upper bound that the block's last Noda step
    # shifted by
    shifts: dict[int, float] = {}
    iterations = 0
    while iterations < max_iterations:
        w = op.matvec(v)
        iterations += 1
        lo, hi = _bounds(v, w, starts)
        gap = hi - lo
        done = gap <= tolerance * hi
        certified = np.count_nonzero(done)
        if certified:
            done &= np.isfinite(hi)  # an unbounded interval certifies nothing
            certified = np.count_nonzero(done)
        if certified:
            for b in done.nonzero()[0].tolist():
                i = int(ids[b])
                results[i] = _result(float(lo[b]), float(hi[b]), iterations, True, i in shifts)
            if certified == len(dims):
                return results
            keep = ~done
            nodes = keep.repeat(dims)
            op.keep(nodes)
            v, w = v[nodes], w[nodes]
            ids, dims, lo, hi, gap, phase = (x[keep] for x in (ids, dims, lo, hi, gap, phase))
            history = deque((h[keep] for h in history), maxlen=_RATE_WINDOW + 1)
            starts = dims.cumsum() - dims
            powering = np.count_nonzero(phase == _POWER)
            stepping = (phase == _NODA).nonzero()[0].tolist()
        history.append(gap)
        if powering and iterations > _RATE_WINDOW:
            stalled = _stalled(history[0], gap, hi, tolerance, dims)
            if powering < len(dims):
                stalled &= phase == _POWER
            if np.count_nonzero(stalled):
                phase[stalled] = _NODA
                new = stalled.nonzero()[0].tolist()
                powering -= len(new)
                stepping += new
        steps = []
        for b in stepping:
            i, bound = int(ids[b]), float(hi[b])
            if not bound < shifts.get(i, math.inf):
                phase[b] = _POWER_ONLY  # rounding has stopped the descent
                continue
            # built for each step, so that one block's system at a time is alive
            start, dim = int(starts[b]), int(dims[b])
            y = _noda_step(dim, *op.edges(start, dim), bound, v[start : start + dim])
            if y is None:
                phase[b] = _POWER_ONLY
            else:
                steps.append((start, y))
                shifts[i] = bound
        if len(steps) < len(stepping):
            stepping = [b for b in stepping if phase[b] == _NODA]
        if len(steps) < len(dims):
            w += v
            sums = np.add.reduceat(w, starts)
            w /= sums if len(sums) == 1 else sums.repeat(dims)
            v = w
        for start, y in steps:
            v[start : start + len(y)] = y
    for b, i in enumerate(ids.tolist()):
        results[i] = _result(float(lo[b]), float(hi[b]), iterations, False, i in shifts)
    return results
