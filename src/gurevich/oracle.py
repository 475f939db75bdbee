"""Exact finite-n partition sums: the brute-force ground truth.

Every spectral energy in the toolkit is validated against these dynamic
programs.  S_n is the sum of e^{total cost} over the counted objects of
length n (runs or words); its logarithmic growth rate is the free energy.
Sums are forward sweeps, never path enumeration; enumeration exists
only inside the test suite at micro scale.

Both sums run on one sweep over edge arrays: int ``src``/``dst`` arrays
and one weight array, with the weights from a single vectorised ``np.exp``,
stepped by ``np.bincount``.  Run sums sweep the automaton's transitions;
word sums sweep ``implement_construction``'s step graph over (state, last
symbol) pairs, one edge per pair and outgoing transition, its cost looked
up by symbol index, with nothing costed per pair by name.  No transfer
matrix is formed, so memory grows with the edges, not the square of the
states.  Neither sum shares code with the spectral path; the word sums'
references, ``enum_word_sum`` and ``verify_implements``, are test-side.

Counting (f, g for the nondeterminism rate) is a separate sweep over int
edges in exact arbitrary-precision integers, since those feed a
log-difference slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import automata
from .automata import CostAutomaton
from .errors import NotDeterministic, Overflow
from .langcost import PairCostFunction, _step_graph

__all__ = [
    "PartitionSeries",
    "run_partition_series",
    "word_partition_series",
    "count_series",
    "estimate_limit",
]

DEFAULT_MAX_N_CAP = 10_000


@dataclass(frozen=True)
class PartitionSeries:
    """values: (n, S_n) for n = 1..max_n; rates: (n, ln(S_n)/n) with ln 0 = 0."""

    kind: str  # runs_all | runs_accepting | words
    values: tuple[tuple[int, float], ...]
    rates: tuple[tuple[int, float], ...]


def _series(kind: str, sums: list[float], scales: list[float] | None = None) -> PartitionSeries:
    """S_n is sums[n - 1], times e^scales[n - 1] if given (inf past the double range)."""
    values, rates = [], []
    for n, (s, scale) in enumerate(zip(sums, scales or [0.0] * len(sums)), 1):
        if s > 0.0:
            log_s = math.log(s) + scale
            rates.append((n, log_s / n))
            values.append((n, s if scale == 0.0 else math.exp(log_s) if log_s <= 709.0 else math.inf))
        else:
            rates.append((n, 0.0))
            values.append((n, s))
    return PartitionSeries(kind=kind, values=tuple(values), rates=tuple(rates))


def _check_max_n(max_n: int) -> None:
    if max_n < 1:
        raise ValueError(f"max_n must be positive, got {max_n}")
    if max_n > DEFAULT_MAX_N_CAP:
        raise ValueError(f"max_n {max_n} exceeds the cap {DEFAULT_MAX_N_CAP}")


def _sweep(
    kind: str,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
    v: np.ndarray,
    accept: np.ndarray,
    max_n: int,
    rescale: bool,
) -> PartitionSeries:
    """S_n = (v A^n) . accept for n = 1..max_n, where A has an entry
    weights[e] at (src[e], dst[e]) for every edge e (parallel edges add).

    Each step is one ``np.bincount`` over the edges.  With ``rescale`` the
    state vector is divided by its peak once it nears the double range and
    the scale is carried in log form, so the rates stay exact past the
    range (values past it read inf); without it a sum that leaves the range
    raises Overflow.  Either way a non-finite state vector raises Overflow:
    an inf entry makes the sum inf, or NaN where it meets a 0.
    """
    rescale_at = 1e250  # far under DBL_MAX, far over any desk-scale exact sum
    log_scale = 0.0
    sums, scales = [], []  # S_n = sums[n - 1] * e^scales[n - 1]
    flow = np.empty(len(weights))
    with np.errstate(over="ignore", invalid="ignore"):  # the guards report it
        for n in range(1, max_n + 1):
            np.take(v, src, out=flow, mode="clip")  # indices are in range; "raise" would buffer
            flow *= weights
            v = np.bincount(dst, weights=flow, minlength=len(v))
            s = float(v @ accept)
            if not math.isfinite(s):
                raise Overflow(f"{kind} partition sum left the double range at n={n}; rescale costs", n=n)
            sums.append(s)
            scales.append(log_scale)
            if rescale:
                peak = float(v.max())
                if peak > rescale_at:
                    v = v / peak
                    log_scale += math.log(peak)
    return _series(kind, sums, scales)


def run_partition_series(
    a: CostAutomaton,
    kind: str,
    max_n: int,
) -> PartitionSeries:
    """Run sums by a forward sweep over the transitions.

    runs_all sums over runs from every state to every state (the Z(n) of
    the variational principle); runs_accepting sums over initialized runs
    ending in an accepting state (W(n)).  A run of length n reads n
    transitions.  Sums past the double range raise Overflow.
    """
    if kind not in ("runs_all", "runs_accepting"):
        raise ValueError(f"unknown kind {kind!r}")
    _check_max_n(max_n)
    if not a.src.size:  # empty, or no run of length >= 1
        return _series(kind, [0.0] * max_n)

    weights = automata._weights(a.cost)
    n = len(a.state_names)
    if kind == "runs_all":
        v = np.ones(n)
        accept = np.ones(n)
    else:
        v = np.zeros(n)
        v[a.start] = 1.0
        accept = a.accepting_mask.astype(float)
    return _sweep(kind, a.src, a.dst, weights, v, accept, max_n, rescale=False)


def word_partition_series(
    dfa: CostAutomaton,
    pair_cost: PairCostFunction,
    max_n: int,
) -> PartitionSeries:
    """Word sums S_n = sum over accepted length-n words of e^{(U)(w)}.

    Requires a deterministic automaton so the one-run-per-word DP over
    (state, last symbol) pairs equals the word sum: pair (p, a) leads to
    (q, b) for every transition p -b-> q, with weight e^{U(a, b)}.  Words
    of length 1 carry cost 0: the sweep starts at a pair (initial, nothing
    read) whose edges all weigh 1.  Past ``automata.PRODUCT_TRANSITION_CAP``
    (7,000,000) edges it raises StateCapExceeded before building them.

    The sweep carries an explicit scale factor once the state vector nears
    the double range, so the RATE entries stay exact arbitrarily far out
    (values past the range are reported as inf); below the threshold the
    values are the plain double-precision sums.  Overflow is still raised
    when a single step leaves the range, i.e. for outsized individual pair
    costs.
    """
    _check_max_n(max_n)
    if not dfa.deterministic:
        raise NotDeterministic("word partition sums need a deterministic automaton")
    dfa = automata.trim(dfa)
    if not dfa.src.size:  # empty, or trimmed to a lone state: no word of length >= 1
        return _series("words", [0.0] * max_n)

    none = len(dfa.symbols)  # the start pair's "last symbol": nothing read yet
    width = none + 1

    # nodes: the pairs (state, last symbol) that transitions enter, plus the
    # start pair (initial, none), which no transition enters
    start_key = dfa.start * width + none
    pair_keys, pair_of = np.unique(np.append(dfa.dst * width + dfa.sym, start_key), return_inverse=True)
    pair_of = pair_of[:-1]  # per transition: the pair it enters
    pair_state, pair_sym = np.divmod(pair_keys, width)

    # edges: pair (p, a) times every transition out of p, weighing e^{U(a, b)}
    edge_src, edge_dst, costs = _step_graph(dfa, pair_cost, pair_state, pair_sym, "word partition sums")
    np.take(pair_of, edge_dst, out=edge_dst, mode="clip")  # each transition's pair, in place
    edge_weights = automata._weights(costs)
    del costs  # edge-sized temporaries go before the sweep allocates its buffer

    accept = dfa.accepting_mask[pair_state].astype(float)
    v = np.zeros(len(pair_keys))
    v[np.searchsorted(pair_keys, start_key)] = 1.0
    return _sweep("words", edge_src, edge_dst, edge_weights, v, accept, max_n, rescale=True)


def _count_sweep(
    n: int, src: np.ndarray, dst: np.ndarray, start: int, accept: np.ndarray, max_n: int
):
    """Yields, for m = 0..max_n, the exact number of paths of length <= m
    from ``start`` to a node where ``accept`` is set, over the edges
    (src[e], dst[e]) of an n-node graph.  Counts are Python ints, so none
    overflows; a caller may stop at the first total past a cap."""
    edges = list(zip(src.tolist(), dst.tolist()))
    ends = np.flatnonzero(accept).tolist()
    v = [0] * n
    v[start] = 1
    total = int(accept[start])
    yield total
    for _ in range(max_n):
        nxt = [0] * n
        for s, d in edges:
            nxt[d] += v[s]
        v = nxt
        total += sum([v[i] for i in ends])
        yield total


def count_series(a: CostAutomaton, max_n: int) -> tuple[list[int], list[int]]:
    """Exact run and word counts for the nondeterminism rate.

    f[n] = number of initialized runs of length <= n whose input word is in
    L(a) (runs over accepted words, accepting or not; for a DFA this equals
    g).  g[n] = number of distinct words of length <= n in L(a), counted on
    the determinized automaton.  Both lists are indexed by n (0..max_n) and
    cumulative, using arbitrary-precision integers.  f sweeps the product
    of a, every state made accepting, with the determinized automaton, so a
    pair (NFA state, DFA state) accepts when its DFA side does.
    """
    _check_max_n(max_n)
    a = automata.trim(a)
    det = automata.determinize(a)
    if det.is_empty:
        return [0] * (max_n + 1), [0] * (max_n + 1)
    runs = automata.product(replace(a, accepting_mask=np.ones(len(a.state_names), dtype=bool)), det)

    def counts(x: CostAutomaton) -> list[int]:
        return list(_count_sweep(len(x.state_names), x.src, x.dst, x.start, x.accepting_mask, max_n))

    return counts(runs), counts(det)


def estimate_limit(series: PartitionSeries, window: int) -> tuple[float, float]:
    """limsup proxy: max rate over the last ``window`` entries, plus the spread.

    A large spread flags a periodic-support language (zero entries between
    the populated lengths); callers should then restrict attention to the
    nonzero subsequence.  The spread is how much the window varies, not the
    distance to the limit: with S_n ~ C e^(nE) each rate has a ln(C)/n bias
    (the 50-state chorded cycle at cost 0.3, runs_all to n = 300, window 10:
    1.35e-2 above E, spread 4.1e-4)."""
    if window < 1:
        raise ValueError("window must be positive")
    if len(series.rates) < window:
        raise ValueError(
            f"series has {len(series.rates)} entries, need at least {window}"
        )
    tail = [rate for _, rate in series.rates[-window:]]
    return max(tail), max(tail) - min(tail)
