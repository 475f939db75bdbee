"""Independent reference values for the benchmark's correctness gate.

Nothing here imports the package under test.  Every value comes from a
closed form or from numpy/scipy applied to the integer edge lists the
benchmark generated itself:

* cycle with one chord, uniform cost c: the energy is c + ln r, where
  r > 1 solves r^-n + r^-(n-1) = 1 (first-return generating function);
* a^n b^2n a^3n with diagonal pair cost c: S_6m = e^((6m-3)c), every other
  length is 0;
* uniform oracle families: out-degree d and cost c give S_n = N (d e^c)^n
  over all runs, and a complete d-symbol DFA with pair cost u gives
  S_n = d^n e^(u(n-1)) over words;
* anything else: the largest eigenvalue modulus of each strongly
  connected component (numpy for small components, ARPACK for large
  ones), and forward partition-sum sweeps over sparse edge arrays.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigs

DENSE_LIMIT = 400  # components up to this size use a dense eigen-solve


def chord_log_root(n: int, rhs: float = 1.0) -> float:
    """ln r for the r > 1 with r^-n + r^-(n-1) = rhs (0 < rhs < 2)."""
    if n < 2 or not 0.0 < rhs < 2.0:
        raise ValueError(f"need n >= 2 and 0 < rhs < 2, got n={n}, rhs={rhs}")

    def f(x: float) -> float:
        return math.exp(-n * x) + math.exp(-(n - 1) * x) - rhs

    lo, hi = 0.0, 1.0
    while f(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):  # f is decreasing; bisect to the last bit
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def weight_matrix(n: int, src, dst, cost) -> csr_matrix:
    """Compact transfer matrix: entry (i, j) sums e^cost over edges i -> j."""
    weights = np.exp(np.asarray(cost, dtype=float))
    return csr_matrix((weights, (np.asarray(src), np.asarray(dst))), shape=(n, n))


def component_log_radii(m: csr_matrix) -> list[float]:
    """ln of the spectral radius of every strongly connected component
    that carries a cycle; loop-free singletons are skipped."""
    count, labels = connected_components(m, directed=True, connection="strong")
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(count + 1))
    out = []
    for c in range(count):
        idx = order[bounds[c] : bounds[c + 1]]
        sub = m[idx][:, idx]
        if sub.nnz == 0:
            continue
        if len(idx) <= DENSE_LIMIT:
            rho = float(np.max(np.abs(np.linalg.eigvals(sub.toarray()))))
        else:
            vals = eigs(sub, k=1, which="LM", v0=np.ones(len(idx)), tol=0.0,
                        return_eigenvectors=False)
            rho = float(np.abs(vals[0]))
        out.append(math.log(rho))
    return out


def component_count(m: csr_matrix) -> int:
    return int(connected_components(m, directed=True, connection="strong")[0])


def max_log_radius(n: int, src, dst, cost) -> float:
    """Largest component energy; the graph must carry at least one cycle."""
    radii = component_log_radii(weight_matrix(n, src, dst, cost))
    if not radii:
        raise ValueError("graph has no cycle")
    return max(radii)


def run_series(n: int, src, dst, cost, horizon: int, initial=None, accepting=None) -> list[float]:
    """S_1..S_horizon over runs: from every state to every state when
    ``initial`` is None, else from ``initial`` to the ``accepting`` states."""
    src = np.asarray(src)
    dst = np.asarray(dst)
    weights = np.exp(np.asarray(cost, dtype=float))
    if initial is None:
        v = np.ones(n)
        final = np.ones(n)
    else:
        v = np.zeros(n)
        v[initial] = 1.0
        final = np.zeros(n)
        final[np.asarray(accepting)] = 1.0
    sums = []
    for _ in range(horizon):
        v = np.bincount(dst, weights=v[src] * weights, minlength=n)
        sums.append(float(v @ final))
    return sums


def word_series(n: int, n_sym: int, src, sym, dst, pair_cost, initial: int, accepting,
                horizon: int) -> list[float]:
    """S_1..S_horizon over the words of a DFA: sum of e^(sum of pair costs).

    x[q, a] carries the words that end in state q with last symbol a;
    ``pair_cost[a, b]`` is U(a, b).
    """
    src = np.asarray(src)
    sym = np.asarray(sym)
    dst = np.asarray(dst)
    factor = np.exp(np.asarray(pair_cost, dtype=float))
    final = np.zeros(n)
    final[np.asarray(accepting)] = 1.0
    x = np.zeros((n, n_sym))
    first = src == initial
    np.add.at(x, (dst[first], sym[first]), 1.0)
    sums = [float(final @ x.sum(axis=1))]
    for _ in range(horizon - 1):
        carried = x @ factor  # carried[q, b] = sum_a x[q, a] U-weight(a, b)
        nxt = np.zeros((n, n_sym))
        np.add.at(nxt, (dst, sym), carried[src, sym])
        x = nxt
        sums.append(float(final @ x.sum(axis=1)))
    return sums


def uniform_run_series(n: int, degree: int, cost: float, horizon: int) -> list[float]:
    """All-runs sums of a graph whose every state has ``degree`` edges of ``cost``."""
    return [n * math.exp(k * (math.log(degree) + cost)) for k in range(1, horizon + 1)]


def uniform_word_series(n_sym: int, pair_cost: float, horizon: int) -> list[float]:
    """Word sums of a complete all-accepting DFA with a uniform pair cost."""
    return [math.exp(k * math.log(n_sym) + (k - 1) * pair_cost) for k in range(1, horizon + 1)]


def linlen_abba_series(c: float, horizon: int) -> list[float]:
    """Word sums of {a^n b^2n a^3n} under pair cost c on aa and bb, 0 elsewhere."""
    return [math.exp((k - 3) * c) if k % 6 == 0 else 0.0 for k in range(1, horizon + 1)]


def rates(sums: list[float]) -> list[float]:
    return [math.log(s) / k if s > 0.0 else 0.0 for k, s in enumerate(sums, start=1)]


def estimate(sums: list[float], window: int) -> tuple[float, float]:
    """Max rate over the last ``window`` lengths and the spread of that tail."""
    tail = rates(sums)[-window:]
    return max(tail), max(tail) - min(tail)
