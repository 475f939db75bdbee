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
certify in a few dozen sweeps, and switch only when they are so small
that the sweeps still needed outnumber the nodes (38 of 50 complete
3-state blocks with weights from U(0.5, 1.5) take 18 iterations, method
"noda"); slow-mixing ones (long cycles with few chords) switch and
certify in a handful of solves.  A solve that fails
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
  current vector, while the other blocks go on sweeping;
* the Noda steps of one round are stacked by dimension: the blocks of one
  size up to ``_DENSE_DIM`` build their systems from their edge slices
  into one (k, dim, dim) array and take one stacked ``np.linalg.solve``,
  which gives each system the same bits as its own solve.  A lone block,
  a larger one, and each block of a stack holding a singular system are
  solved one at a time.

``spectral_radius`` takes one dense ndarray and solves it as a batch of
one block.  scipy is imported only when a block above
``_DENSE_DIM`` nodes takes a Noda step.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .automata import spans

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

# a block with at most this many nodes takes its Noda steps on a dense
# matrix with numpy's LU, a larger one on a CSC matrix with scipy's splu.
# On one core a dense step is the faster up to here (a ring with one chord
# per node: 0.23 ms dense, 0.72 ms splu at 160 nodes), and its n^2 memory
# stays small
_DENSE_DIM = 160

# the most matrix cells in one stacked dense solve (2 MiB of doubles), so
# that the systems alive at once stay small
_STACK_CELLS = 1 << 18


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
    with np.errstate(over="ignore", invalid="ignore"):  # a nearly singular solve; rejected below
        total = y.sum()
    if not (math.isfinite(total) and y.min() > 0.0):
        return None
    return y / total


def _stacks(ready: list[int], dims: np.ndarray) -> list[list[int]]:
    """The blocks at positions ``ready`` in the groups that take their Noda
    steps together: the blocks of one dimension up to ``_DENSE_DIM``, at
    most ``_STACK_CELLS`` matrix cells to a group.  A larger block is a
    group of its own."""
    stacks: list[list[int]] = []
    by_dim: dict[int, list[int]] = {}
    for b, dim in zip(ready, dims[ready].tolist()):
        if dim > _DENSE_DIM:
            stacks.append([b])
        else:
            by_dim.setdefault(dim, []).append(b)
    for dim, group in by_dim.items():
        size = max(1, _STACK_CELLS // (dim * dim))
        stacks += (group[i : i + size] for i in range(0, len(group), size))
    return stacks


def _noda_stack(
    dim: int, begin: np.ndarray, shift: np.ndarray, rows: np.ndarray, cols: np.ndarray,
    values: np.ndarray, v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``_noda_step`` for each block of ``dim`` nodes that starts at a node
    in ``begin``, with its own shift, as one stacked dense solve; every
    system and every step is bit for bit the block's own.  Returns the
    nodes and the new vectors of the blocks whose step is good, and a mask
    of those blocks; None when a system in the stack is singular."""
    left = np.searchsorted(rows, begin)
    counts = np.searchsorted(rows, begin + dim) - left
    # each block's edge slice, in order, and its cells in the (k, dim, dim) stack
    edges = spans(left, counts)
    offsets = np.arange(len(begin)) * (dim * dim) - begin * (dim + 1)
    cells = rows[edges] * dim + cols[edges] + np.repeat(offsets, counts)
    b = -np.bincount(cells, weights=values[edges], minlength=len(begin) * dim * dim)
    b = b.reshape(len(begin), dim * dim)
    b[:, :: dim + 1] += shift[:, None]
    nodes = begin[:, None] + np.arange(dim)
    try:
        y = np.linalg.solve(b.reshape(-1, dim, dim), v[nodes][..., None])[..., 0]
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # a nearly singular solve; rejected here
        total = y.sum(axis=1)
        ok = np.isfinite(total) & (y.min(axis=1) > 0.0)
    return nodes[ok], y[ok] / total[ok, None], ok


def _result(lo: float, hi: float, iterations: int, converged: bool, noda: float) -> SpectralResult:
    """The result for an interval [lo, hi]; noda is the upper bound of the
    block's last Noda step, inf when it took none."""
    if math.isfinite(hi):
        radius, residual = (lo + hi) / 2.0, (hi - lo) / hi if hi > 0.0 else 0.0
    else:
        radius, residual = lo, math.inf
    method = "noda" if noda < math.inf else "power"
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

    All blocks sweep together, one mat-vec per sweep over edges sorted by
    row.  Each block's state is kept once, in arrays by batch position that
    one mask cuts when blocks certify and leave: ``ids`` (index in the
    result), ``dims``, ``lo``, ``hi``, ``gap``, ``phase``, ``noda`` (upper
    bound of the last Noda step, inf before the first) and the rate
    window's widths.  The stall rule reads a block's window of its last
    ``_RATE_WINDOW`` sweeps when the widths at both ends are finite.  A
    Noda-phase block replaces its swept vector by a Noda step on its own
    edges while hi < noda, in one stacked solve with the other stepping
    blocks of its dimension; one that gets no step (rounding has stopped
    the descent, or the solve failed) sweeps for the rest of its run."""
    dims = np.asarray(dims, dtype=np.intp)
    order = np.argsort(rows, kind="stable")
    rows, cols = (np.asarray(x, dtype=np.intp)[order] for x in (rows, cols))
    values = np.asarray(values, dtype=float)[order]
    k = len(dims)
    if max_iterations < 1:
        return [_result(0.0, math.inf, 0, False, math.inf) for _ in range(k)]
    results: list[SpectralResult | None] = [None] * k
    ids = np.arange(k)
    starts = dims.cumsum() - dims
    v = (1.0 / dims).repeat(dims)
    phase = np.full(k, _POWER, dtype=np.int8)
    noda = np.full(k, math.inf)
    powering, stepping = k, []  # blocks sweeping; positions of those taking Noda steps
    history: deque = deque(maxlen=_RATE_WINDOW + 1)  # widths of the latest sweeps
    iterations = 0
    while iterations < max_iterations:
        w = np.bincount(rows, weights=values * v[cols], minlength=len(v))
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
                results[ids[b]] = _result(float(lo[b]), float(hi[b]), iterations, True, noda[b])
            if certified == len(dims):
                return results
            keep = ~done
            nodes = keep.repeat(dims)
            position = np.cumsum(nodes) - 1
            inside = nodes[rows]
            rows, cols, values = position[rows[inside]], position[cols[inside]], values[inside]
            v, w = v[nodes], w[nodes]
            state = ids, dims, lo, hi, gap, phase, noda
            ids, dims, lo, hi, gap, phase, noda = (x[keep] for x in state)
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
        steps = []  # (nodes, y): the new vectors, written over the swept ones
        moved = 0  # blocks that took a Noda step
        ready = []
        for b in stepping:
            if hi[b] < noda[b]:
                ready.append(b)
            else:  # rounding has stopped the descent
                phase[b] = _POWER_ONLY
        for stack in _stacks(ready, dims) if len(ready) > 1 else (ready,):
            if len(stack) > 1:
                at = np.array(stack)
                stepped = _noda_stack(int(dims[stack[0]]), starts[at], hi[at], rows, cols, values, v)
                if stepped is not None:
                    nodes, y, ok = stepped
                    steps.append((nodes, y))
                    moved += len(y)
                    noda[at[ok]] = hi[at[ok]]
                    phase[at[~ok]] = _POWER_ONLY
                    continue
            for b in stack:  # alone, or one system of the stack is singular
                start, dim, bound = int(starts[b]), int(dims[b]), float(hi[b])
                # built for each step, so that one block's system at a time is alive
                edges = slice(*np.searchsorted(rows, (start, start + dim)).tolist())
                block = rows[edges] - start, cols[edges] - start, values[edges]
                y = _noda_step(dim, *block, bound, v[start : start + dim])
                if y is None:
                    phase[b] = _POWER_ONLY
                else:
                    steps.append((slice(start, start + dim), y))
                    moved += 1
                    noda[b] = bound
        if moved < len(stepping):
            stepping = [b for b in stepping if phase[b] == _NODA]
        if moved < len(dims):
            w += v
            sums = np.add.reduceat(w, starts)
            w /= sums if len(sums) == 1 else sums.repeat(dims)
            v = w
        for nodes, y in steps:
            v[nodes] = y
    for b, i in enumerate(ids.tolist()):
        results[i] = _result(float(lo[b]), float(hi[b]), iterations, False, noda[b])
    return results
