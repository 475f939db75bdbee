"""Free energy of linear-length languages.

A linear-length language is a regular language L' filtered by a split
constraint: w is in L when w = w_1 ... w_k with each w_i in a regular r_i
and the length vector (|w_1|, ..., |w_k|) in a linear set D.  Such
languages are generally not regular (a^n b^2n a^3n is the standard
example), yet their free energy under a pair cost U is computable.

The route is a length-preserving translation into a regular language over
a block alphabet.  Words of L are rewritten as sequences of k-track block
tuples drawn from [d_0][d_1]*...[d_m]* (one tuple set per vector of D),
each tuple annotated with the most recently read symbol per track, and
each tuple symbol is padded with stutter symbols up to the block's total
size so lengths survive the translation.  Costs on the translated language
charge each block's internal pair costs on its first stutter and the
track-wise junction costs on the next real symbol, so the translated total
equals the sum of the per-track costs of the original word.  The k-1
junction costs between consecutive tracks of the original word are the one
discrepancy; they are bounded by a constant per word, so the growth RATE
is unchanged, and only rate agreement is ever asserted.

The translated language is realized directly as a cost NFA: the k-1
L'-states at the track boundaries are guessed up front and k parallel
simulations of L' check the concatenation.  Per translated word at most
one guess survives to acceptance and distinct translated words of a common
original differ by a polynomial factor, so the NFA's free energy equals
the translated language's word-sum rate, hence the original's.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import automata
from .automata import CostAutomaton
from .energy import EnergyReport, free_energy
from .errors import BlockAlphabetTooLarge, DocumentError, Overflow, StateCapExceeded
from .langcost import PairCostFunction, word_cost
from .oracle import PartitionSeries, _check_max_n, _count_sweep, _series
from .spectral import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE

__all__ = [
    "LinearSet",
    "LinearLengthSpec",
    "linear_set_member",
    "block_automaton",
    "linlen_energy",
    "linlen_union_energy",
    "linlen_word_oracle",
    "validate_spec",
]

DEFAULT_BLOCK_CAP = 20_000
DEFAULT_LINLEN_STATE_CAP = 200_000


def _integers(values, message: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; ValueError(message) when it is not
    iterable or holds anything but Python and numpy integers (bool is an
    int subclass, but no length)."""
    try:
        items = tuple(values)
    except TypeError:
        raise ValueError(message) from None
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in items):
        raise ValueError(message)
    return tuple(int(x) for x in items)


@dataclass(frozen=True)
class LinearSet:
    """{offset + s_1 p_1 + ... + s_m p_m : s_i >= 0} over N^k.

    The offset must be strictly positive in every coordinate and the
    periods nonzero and distinct (standard normal form; unions of linear
    sets are handled one member at a time by linlen_union_energy).
    """

    k: int
    offset: tuple[int, ...]
    periods: tuple[tuple[int, ...], ...]

    @staticmethod
    def create(offset: Sequence[int], periods: Iterable[Sequence[int]] = ()) -> "LinearSet":
        """Python or numpy integers only: int() would truncate 1.5 and
        coerce "1" and True into lengths of another language."""
        off = _integers(offset, "field 'offset' must be a list of integers")
        message = "field 'periods' must be a list of lists of integers"
        try:
            per = tuple(_integers(p, message) for p in periods)
        except TypeError:
            raise ValueError(message) from None
        return LinearSet(k=len(off), offset=off, periods=per)

    def violations(self) -> list[str]:
        out = []
        if self.k == 0:
            out.append("offset must have at least one coordinate")
        if not all(x >= 1 for x in self.offset):
            out.append("offset must be positive")
        for p in self.periods:
            if len(p) != self.k:
                out.append(f"period {p} has arity {len(p)}, expected {self.k}")
            if not any(x > 0 for x in p) or any(x < 0 for x in p):
                out.append(f"period must be nonzero and nonnegative, got {p}")
        if len(set(self.periods)) != len(self.periods):
            out.append("periods must be distinct")
        return out


def _search(periods: list[tuple[int, ...]], rem: tuple[int, ...], last: int, limit: int):
    """Yields, repeats allowed, last + s_1 p_1[-1] + ... + s_m p_m[-1] for
    each choice of s_i >= 0 with s_1 p_1 + ... + s_m p_m = rem on rem's
    coordinates, the leading ones, while it stays at most ``limit``.  Each
    period must be positive on one of them.  A bounded search over the
    coefficients; the last period's is settled by one division."""
    if last > limit or min(rem, default=0) < 0:
        return
    if not any(rem):  # every remaining period takes coefficient 0
        yield last
        return
    if not periods:
        return
    p = periods[0]
    bound = min(r // x for r, x in zip(rem, p) if x > 0)
    for s in range(bound + 1) if len(periods) > 1 else (bound,):
        yield from _search(periods[1:], tuple(r - s * x for r, x in zip(rem, p)), last + s * p[-1], limit)


def linear_set_member(d: LinearSet, v: Sequence[int]) -> bool:
    """Exact membership by the bounded search over the period coefficients,
    the tail periods (zero on every coordinate but the last) searched last,
    so the last one's coefficient is settled by one division.  An invalid
    ``d`` raises ValueError listing its violations."""
    problems = d.violations()
    if problems:
        raise ValueError("invalid linear set: " + "; ".join(problems))
    vec = tuple(v)
    if len(vec) != d.k:
        raise ValueError(f"vector arity {len(vec)}, linear set arity {d.k}")
    periods = sorted(d.periods, key=lambda p: not any(p[:-1]))  # stable: head periods first
    residual = tuple(a - b for a, b in zip(vec, d.offset))
    # a solution yields v[-1] >= d.offset[-1] >= 1, a true value
    return any(_search(periods, residual, d.offset[-1], vec[-1]))


def _last_lengths(d: LinearSet, head: tuple[int, ...], limit: int) -> frozenset[int]:
    """Every x in 0..limit with head + (x,) in D, for a valid ``d`` and
    ``head`` of k - 1 lengths: the last coordinates the search over the
    head periods reaches, then one sieve pass over 0..limit per tail period
    (zero on every head coordinate)."""
    h = d.k - 1
    residual = tuple(a - b for a, b in zip(head, d.offset))
    reach = [False] * (limit + 1)
    for x in _search([p for p in d.periods if any(p[:h])], residual, d.offset[h], limit):
        reach[x] = True
    for t in (p[h] for p in d.periods if not any(p[:h])):
        for x in range(t, limit + 1):
            reach[x] = reach[x] or reach[x - t]
    return frozenset(x for x, hit in enumerate(reach) if hit)


@dataclass(frozen=True)
class LinearLengthSpec:
    """(L', r_1..r_k, D, U): DFAs for the base and part languages, the
    length constraint, and the pair cost on the shared alphabet."""

    base: CostAutomaton
    parts: tuple[CostAutomaton, ...]
    lengths: LinearSet
    pair_cost: PairCostFunction


def validate_spec(spec: LinearLengthSpec) -> list[str]:
    out = list(spec.lengths.violations())
    if spec.lengths.k != len(spec.parts):
        out.append(
            f"{len(spec.parts)} part languages for arity {spec.lengths.k}"
        )
    for label, a in [("base", spec.base)] + [
        (f"part {i + 1}", p) for i, p in enumerate(spec.parts)
    ]:
        out.extend(f"{label}: {v}" for v in automata.validate(a))
        if not a.deterministic:
            out.append(f"{label} must be deterministic")
        if a.alphabet != spec.base.alphabet:
            out.append(f"{label} alphabet differs from the base alphabet")
    return out


def _trimmed(spec: LinearLengthSpec) -> tuple[CostAutomaton, tuple[CostAutomaton, ...]] | None:
    """The trimmed base and parts, None when one accepts nothing; an invalid
    spec raises DocumentError listing its problems."""
    problems = validate_spec(spec)
    if problems:
        raise DocumentError("; ".join(problems))
    base = automata.trim(spec.base)
    parts = tuple(automata.trim(p) for p in spec.parts)
    if base.is_empty or any(p.is_empty for p in parts):
        return None
    return base, parts


def _block_text(block: tuple[tuple[int, ...], ...], symbols: Sequence[str]) -> str:
    return ",".join("+".join([symbols[y] for y in part]) for part in block)


def _label(key: tuple, names: tuple) -> str:
    """Name of a block-automaton state or symbol key, given the base state,
    part state and symbol names."""
    base_names, part_names, symbols = names
    if key[0] == "c":
        _, phase, g, sims, prs, mem = key
        return (
            f"c{phase}"
            + ("~g:" + ",".join([base_names[s] for s in g]) if g else "")
            + "~q:" + ",".join([base_names[s] for s in sims])
            + "~r:" + ",".join([part_names[j][r] for j, r in enumerate(prs)])
            + "~m:" + ",".join([symbols[y] for y in mem])
        )
    if key[0] == "p":
        return f"{_label(key[1], names)}~pad{key[3]}~b:" + _block_text(key[2], symbols)
    if key[0] == "start":
        return "start"
    # a symbol: "[" or "pad[", the block, ";", the last symbol of each track, "]"
    return key[0] + _block_text(key[1], symbols) + ";" + ",".join([symbols[y] for y in key[2]]) + "]"


def block_automaton(spec: LinearLengthSpec, state_cap: int = DEFAULT_LINLEN_STATE_CAP) -> CostAutomaton:
    """Cost NFA accepting the translated (block + stutter) language.

    Its free energy is the free energy of the linear-length language; see
    the module docstring for why the construction's bounded ambiguity does
    not move the rate.  A length vector that needs more than
    ``DEFAULT_BLOCK_CAP`` block tuples raises BlockAlphabetTooLarge, and a
    translation that discovers more than ``state_cap`` states raises
    StateCapExceeded.  States and symbols are int-keyed while it runs and
    named at the end from the state and symbol names inside, each with its
    backslashes and ``,+;~`` escaped, so no two share a name.
    """
    trimmed = _trimmed(spec)
    if trimmed is None:
        return automata.EMPTY
    base, parts = trimmed
    sigma = base.symbols  # every part's too: validate_spec checks the alphabets
    width = len(sigma)
    k = spec.lengths.k
    u = spec.pair_cost
    vectors = [spec.lengths.offset] + list(spec.lengths.periods)

    tuple_sets: list[list[tuple[tuple[int, ...], ...]]] = []
    for vec in vectors:
        count = width ** sum(vec)
        if count > DEFAULT_BLOCK_CAP:
            raise BlockAlphabetTooLarge(
                f"vector {vec} needs {count} block tuples, cap is {DEFAULT_BLOCK_CAP}",
                count=count,
            )
        per_coord = [list(itertools.product(range(width), repeat=length)) for length in vec]
        tuple_sets.append(list(itertools.product(*per_coord)))

    steps = [automata.successors(a, width) for a in (base,) + parts]

    def junction_cost(mem: tuple[int, ...], block: tuple[tuple[int, ...], ...]) -> float:
        return sum(u.cost(sigma[mem[j]], sigma[block[j][0]]) for j in range(k) if block[j])

    def internal_cost(block: tuple[tuple[int, ...], ...]) -> float:
        return sum(word_cost(u, [sigma[y] for y in p]) for p in block)

    def read_block(sims: tuple, prs: tuple, mem: tuple | None, block: tuple):
        """Advance every track; None when some simulation dies."""
        new_sims, new_prs, new_mem = [], [], []
        for j in range(k):
            s, r = sims[j], prs[j]
            for y in block[j]:
                s, r = steps[0].get(s * width + y, -1), steps[j + 1].get(r * width + y, -1)
                if s < 0 or r < 0:
                    return None
            new_sims.append(s)
            new_prs.append(r)
            new_mem.append(block[j][-1] if block[j] else mem[j])  # type: ignore[index]
        return tuple(new_sims), tuple(new_prs), tuple(new_mem)

    # state keys: ("start",) | ("c", phase, guess, sims, prs, mem)
    #           | ("p", core_key, block, remaining); both numbered in
    # discovery order.  Symbol keys: ("[" or "pad[", block, mem)
    ids: dict[tuple, int] = {("start",): 0}
    symbol_ids: dict[tuple, int] = {}
    edges: list[tuple[int, int, int, float]] = []
    stack: list[tuple] = []  # core states still to expand

    def state(key: tuple) -> int:
        if key not in ids:
            if len(ids) >= state_cap:
                raise StateCapExceeded(
                    f"block translation exceeded the state cap ({state_cap}) on a "
                    f"{len(base.state_names)}-state, {len(base.src)}-transition base language "
                    f"and parts of {sum(len(p.state_names) for p in parts)} states, "
                    f"{sum(len(p.src) for p in parts)} transitions in all"
                )
            ids[key] = len(ids)
            if key[0] == "c":
                stack.append(key)
        return ids[key]

    def emit(source: int, symbol_key: tuple, target: int, cost: float) -> None:
        edges.append((source, symbol_ids.setdefault(symbol_key, len(symbol_ids)), target, cost))

    def emit_block(source: int, block: tuple, core_key: tuple, entry_cost: float) -> None:
        """Edge for one real block symbol, then, the first time it is
        reached, its stutter chain."""
        mem = core_key[5]
        size = sum(len(p) for p in block)
        chain = [("p", core_key, block, t) for t in range(size - 1, 0, -1)] + [core_key]
        new = chain[0] not in ids
        emit(source, ("[", block, mem), state(chain[0]), entry_cost)
        if new:  # the first stutter's edge carries the block's internal cost
            for t in range(size - 1):
                cost = internal_cost(block) if t == 0 else 0.0
                emit(ids[chain[t]], ("pad[", block, mem), state(chain[t + 1]), cost)

    # initial blocks: drawn from [d_0]; every part non-null (offset positive),
    # so the memory tuple is fully determined and the entry edge costs 0
    starts = (base.start,), tuple(p.start for p in parts)
    for block in tuple_sets[0]:
        # guesses drawn lazily: the state cap trips before all are listed
        for g in itertools.product(range(len(base.state_names)), repeat=k - 1):
            stepped = read_block(starts[0] + g, starts[1], None, block)
            if stepped is not None:
                emit_block(0, block, ("c", 0, g) + stepped, 0.0)

    accepting: list[int] = []
    while stack:
        key = stack.pop()
        _, phase, g, sims, prs, mem = key
        if (
            all(sims[j] == g[j] for j in range(k - 1))
            and base.accepting_mask[sims[k - 1]]
            and all(parts[j].accepting_mask[prs[j]] for j in range(k))
        ):
            accepting.append(ids[key])
        for i in range(max(1, phase), len(vectors)):
            for block in tuple_sets[i]:
                stepped = read_block(sims, prs, mem, block)
                if stepped is not None:
                    emit_block(ids[key], block, ("c", i, g) + stepped, junction_cost(mem, block))
    if not edges:
        return automata.EMPTY  # the start alone, which does not accept

    def esc(names: Sequence[str]) -> list[str]:
        return [automata._escape(name, ",+;~") for name in names]

    names = (esc(base.state_names), [esc(p.state_names) for p in parts], esc(sigma))
    symbols = [_label(key, names) for key in symbol_ids]
    order = sorted(range(len(symbols)), key=symbols.__getitem__)
    rank = np.argsort(order)  # symbol id -> position in sorted order
    src, sym, dst, cost = zip(*edges)
    result = automata._sorted_automaton(
        [_label(key, names) for key in ids],
        tuple(symbols[y] for y in order),
        np.isin(np.arange(len(ids)), accepting),
        np.array(src, dtype=np.intp),
        rank[list(sym)],
        np.array(dst, dtype=np.intp),
        np.array(cost, dtype=float),
    )
    return automata.trim(result)


def linlen_energy(
    spec: LinearLengthSpec,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> EnergyReport:
    """Free energy of the linear-length language via the block translation,
    in compact form; for the other form or a smaller state cap call
    ``free_energy(block_automaton(spec, ...), ...)``."""
    a = block_automaton(spec)
    return free_energy(a, tolerance=tolerance, max_iterations=max_iterations)


def linlen_union_energy(specs: Iterable[LinearLengthSpec]) -> float:
    """Free energy of a finite union: the max over the members whose
    language is infinite (the union of the translated languages grows at
    the fastest such member's rate); 0 when no member's language is."""
    energies = []
    for spec in specs:
        report = linlen_energy(spec)
        # a trimmed automaton with a cycle accepts infinitely many words
        if report.max_component is not None and report.solver[report.max_component] is not None:
            energies.append(report.energy)
    return max(energies, default=0.0)


def linlen_word_oracle(
    spec: LinearLengthSpec,
    max_n: int,
    word_cap: int = 1_000_000,
) -> PartitionSeries:
    """Independent ground truth: split enumeration, no translation.

    Walks the words of the base language up to max_n depth first and
    accumulates e^{(U)(w)} per length for the accepted words that have one
    valid split (every part in its r_i, the length vector in D); a word
    with several valid splits still counts once.  The splits are carried
    down the walk as live configurations (part index, part DFA state,
    start of the current part, lengths of the finished parts): each symbol
    advances every configuration and drops the dead ones, and a part whose
    state accepts may close there, opening the next part.  Opening the
    last part fixes its head, the lengths of the k - 1 finished parts, so
    the configuration carries the set of admissible last-part lengths in
    their place: those x with head + (x,) in D and x <= max_n - start,
    found once per head by a search over the period coefficients.  A word
    of length n has a split when a last-part configuration accepts and
    n - start is admissible.  The cost is carried as prefix cost +
    U(last, symbol), so no word is rescanned; a sum past the double range
    raises Overflow naming n.  Practical only on small instances (narrow
    base language, short max_n, at most ``DEFAULT_MAX_N_CAP``);
    ``word_cap`` bounds the enumerated prefixes: they are counted first,
    by an exact sweep over the base DFA, and past the cap it raises
    StateCapExceeded before enumerating any.
    """
    _check_max_n(max_n)
    trimmed = _trimmed(spec)
    sums = [0.0] * (max_n + 1)
    if trimmed is None:
        return _series("words", sums[1:])
    base, parts = trimmed
    k = spec.lengths.k
    u = spec.pair_cost

    # the walk pops one stack entry per base-language prefix of length <= max_n
    n_base = len(base.state_names)
    prefixes = _count_sweep(
        n_base, base.src, base.dst, base.start, np.ones(n_base, dtype=bool), max_n
    )
    if any(total > word_cap for total in prefixes):
        raise StateCapExceeded(f"oracle enumeration passed {word_cap} prefixes; instance too large")

    width = len(base.symbols)
    steps = [automata.successors(p, width) for p in parts]
    accepting = [p.accepting_mask.tolist() for p in parts]
    initials = [p.start for p in parts]
    base_accepting = base.accepting_mask.tolist()
    pair_cost = functools.cache(lambda x, y: u.cost(base.symbols[x], base.symbols[y]))
    # each base state's (target, symbol) edges, by symbol then target index
    order, indptr = automata.rows(n_base, base.src, base.sym, base.dst)
    indptr = indptr.tolist()
    edges = list(zip(base.dst[order].tolist(), base.sym[order].tolist()))
    children = [edges[indptr[s] : indptr[s + 1]] for s in range(n_base)]

    @functools.cache
    def admissible(head: tuple[int, ...]) -> frozenset[int]:
        """Last-part lengths that complete ``head``; the part starts at sum(head)."""
        return _last_lengths(spec.lengths, head, max_n - sum(head))

    # a configuration: (part index, part state, start of the part, finished
    # lengths, or for the last part its admissible lengths)
    def close(configs: list[tuple], pos: int) -> list[tuple]:
        """``configs`` plus every part opened by closing an accepting one at pos."""
        for part, state, start, lens in configs:  # also visits the appended ones
            if part + 1 < k and accepting[part][state]:
                head = lens + (pos - start,)
                opened = admissible(head) if part + 2 == k else head
                configs.append((part + 1, initials[part + 1], pos, opened))
        return configs

    def has_split(configs: list[tuple], n: int) -> bool:
        return any(
            part == k - 1 and accepting[part][state] and n - start in allowed
            for part, state, start, allowed in configs
        )

    root = close([(0, initials[0], 0, admissible(()) if k == 1 else ())], 0)
    # (base state, prefix length, last symbol, prefix cost, configurations)
    stack: list[tuple[int, int, int, float, list[tuple]]] = [(base.start, 0, -1, 0.0, root)]
    while stack:
        state, n, last, cost, configs = stack.pop()
        if n and base_accepting[state] and has_split(configs, n):
            try:
                sums[n] += math.exp(cost)
            except OverflowError:
                sums[n] = math.inf
            if sums[n] == math.inf:
                message = f"words partition sum left the double range at n={n}; rescale costs"
                raise Overflow(message, n=n)
        if n < max_n:
            for target, sym in children[state]:
                stepped = []
                for part, part_state, start, lens in configs:
                    nxt = steps[part].get(part_state * width + sym, -1)
                    if nxt >= 0:
                        stepped.append((part, nxt, start, lens))
                step_cost = cost + pair_cost(last, sym) if n else 0.0
                stack.append((target, n + 1, sym, step_cost, close(stepped, n + 1)))
    return _series("words", sums[1:])
