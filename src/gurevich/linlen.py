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

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import automata
from .automata import CostAutomaton, Transition
from .energy import EnergyReport, free_energy
from .errors import BlockAlphabetTooLarge, DocumentError, NotDeterministic, StateCapExceeded
from .langcost import PairCostFunction, word_cost
from .oracle import PartitionSeries, _series
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
    "DEFAULT_BLOCK_CAP",
    "DEFAULT_LINLEN_STATE_CAP",
]

DEFAULT_BLOCK_CAP = 20_000
DEFAULT_LINLEN_STATE_CAP = 200_000


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
        off = tuple(int(x) for x in offset)
        per = tuple(tuple(int(x) for x in p) for p in periods)
        return LinearSet(k=len(off), offset=off, periods=per)

    def violations(self) -> list[str]:
        out = []
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


def linear_set_member(d: LinearSet, v: Sequence[int]) -> bool:
    """Exact membership by bounded search over the period coefficients;
    the last period's coefficient is settled by one division."""
    vec = tuple(int(x) for x in v)
    if len(vec) != d.k:
        raise ValueError(f"vector arity {len(vec)}, linear set arity {d.k}")
    residual = tuple(a - b for a, b in zip(vec, d.offset))
    if any(x < 0 for x in residual):
        return False
    last = len(d.periods) - 1

    def solve(idx: int, rem: tuple[int, ...]) -> bool:
        if all(x == 0 for x in rem):
            return True
        if idx > last:
            return False
        p = d.periods[idx]
        bound = min(rem[c] // p[c] for c in range(d.k) if p[c] > 0)
        if idx == last:
            return all(r == bound * x for r, x in zip(rem, p))
        for s in range(bound + 1):
            if solve(idx + 1, tuple(r - s * x for r, x in zip(rem, p))):
                return True
        return False

    return solve(0, residual)


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


def _run_dfa(a: CostAutomaton, state: str | None, word: Sequence[str]) -> str | None:
    for sym in word:
        if state is None:
            return None
        state = a.dfa_step(state, sym)
    return state


def _part_str(part: tuple[str, ...]) -> str:
    return "+".join(part)


def _real_symbol(block: tuple[tuple[str, ...], ...], mem: tuple[str, ...]) -> str:
    return "[" + ",".join(_part_str(p) for p in block) + ";" + ",".join(mem) + "]"


def _pad_symbol(block: tuple[tuple[str, ...], ...], mem: tuple[str, ...]) -> str:
    return "pad" + _real_symbol(block, mem)


def block_automaton(
    spec: LinearLengthSpec,
    block_cap: int = DEFAULT_BLOCK_CAP,
    state_cap: int = DEFAULT_LINLEN_STATE_CAP,
) -> CostAutomaton:
    """Cost NFA accepting the translated (block + stutter) language.

    Its free energy is the free energy of the linear-length language; see
    the module docstring for why the construction's bounded ambiguity does
    not move the rate.
    """
    problems = validate_spec(spec)
    if problems:
        raise DocumentError("; ".join(problems))
    base = automata.trim(spec.base)
    parts = tuple(automata.trim(p) for p in spec.parts)
    if base.is_empty or any(p.is_empty for p in parts):
        return automata.EMPTY

    sigma = sorted(base.alphabet)
    k = spec.lengths.k
    u = spec.pair_cost
    vectors = [spec.lengths.offset] + list(spec.lengths.periods)

    tuple_sets: list[list[tuple[tuple[str, ...], ...]]] = []
    for vec in vectors:
        count = len(sigma) ** sum(vec)
        if count > block_cap:
            raise BlockAlphabetTooLarge(
                f"vector {vec} needs {count} block tuples, cap is {block_cap}",
                count=count,
            )
        per_coord = [
            [tuple(w) for w in itertools.product(sigma, repeat=length)] for length in vec
        ]
        tuple_sets.append([tuple(b) for b in itertools.product(*per_coord)])

    base_states = sorted(base.states)
    guesses = list(itertools.product(base_states, repeat=k - 1))

    # state keys: ("start",) | ("c", phase, guess, sims, prs, mem)
    #           | ("p", core_key, block, remaining)
    start_key = ("start",)
    names: dict[tuple, str] = {start_key: "start"}
    used_names = {"start"}

    def name_of(key: tuple) -> str:
        if key in names:
            return names[key]
        if key[0] == "c":
            _, phase, g, sims, prs, mem = key
            base_name = (
                f"c{phase}"
                + ("~g:" + ",".join(g) if g else "")
                + "~q:" + ",".join(sims)
                + "~r:" + ",".join(prs)
                + "~m:" + ",".join(mem)
            )
        else:
            _, core_key, block, remaining = key
            base_name = f"{name_of(core_key)}~pad{remaining}~b:" + ",".join(
                _part_str(p) for p in block
            )
        name = base_name
        counter = 1
        while name in used_names:
            counter += 1
            name = f"{base_name}#{counter}"
        names[key] = name
        used_names.add(name)
        return name

    def junction_cost(mem: tuple[str, ...], block: tuple[tuple[str, ...], ...]) -> float:
        return sum(u.cost(mem[j], block[j][0]) for j in range(k) if block[j])

    def internal_cost(block: tuple[tuple[str, ...], ...]) -> float:
        return sum(word_cost(u, p) for p in block)

    def read_block(
        sims: tuple[str, ...],
        prs: tuple[str, ...],
        mem: tuple[str, ...] | None,
        block: tuple[tuple[str, ...], ...],
    ):
        """Advance every track; None when some simulation dies."""
        new_sims, new_prs, new_mem = [], [], []
        for j in range(k):
            s = _run_dfa(base, sims[j], block[j])
            r = _run_dfa(parts[j], prs[j], block[j])
            if s is None or r is None:
                return None
            new_sims.append(s)
            new_prs.append(r)
            new_mem.append(block[j][-1] if block[j] else mem[j])  # type: ignore[index]
        return tuple(new_sims), tuple(new_prs), tuple(new_mem)

    transitions: list[Transition] = []
    accepting: set[str] = set()
    queue: list[tuple] = []
    enqueued: set[tuple] = {start_key}

    def emit(source_key: tuple, symbol: str, target_key: tuple, cost: float) -> None:
        transitions.append(Transition(name_of(source_key), symbol, name_of(target_key), cost))
        if target_key not in enqueued:
            if len(enqueued) >= state_cap:
                raise StateCapExceeded(
                    f"block translation exceeded the state cap ({state_cap})"
                )
            enqueued.add(target_key)
            queue.append(target_key)

    def emit_block(
        source_key: tuple,
        block: tuple[tuple[str, ...], ...],
        core_key: tuple,
        entry_cost: float,
    ) -> None:
        """Edge for one real block symbol, then its stutter chain."""
        mem = core_key[5]
        real = _real_symbol(block, mem)
        size = sum(len(p) for p in block)
        if size == 1:
            emit(source_key, real, core_key, entry_cost)
            return
        pad = _pad_symbol(block, mem)
        first_pad = ("p", core_key, block, size - 1)
        emit(source_key, real, first_pad, entry_cost)
        for t in range(size - 1, 0, -1):
            src = ("p", core_key, block, t)
            dst = ("p", core_key, block, t - 1) if t > 1 else core_key
            # the first stutter's edge carries the block's internal cost
            emit(src, pad, dst, internal_cost(block) if t == size - 1 else 0.0)

    # initial blocks: drawn from [d_0]; every part non-null (offset positive),
    # so the memory tuple is fully determined and the entry edge costs 0
    for block in tuple_sets[0]:
        for g in guesses:
            starts = (base.initial,) + g
            stepped = read_block(starts, tuple(p.initial for p in parts), None, block)
            if stepped is None:
                continue
            sims, prs, mem = stepped
            core_key = ("c", 0, g, sims, prs, mem)
            emit_block(start_key, block, core_key, 0.0)

    while queue:
        key = queue.pop()
        if key[0] != "c":
            continue  # pad chains were fully emitted with their block
        _, phase, g, sims, prs, mem = key
        if (
            all(sims[j] == g[j] for j in range(k - 1))
            and sims[k - 1] in base.accepting
            and all(prs[j] in parts[j].accepting for j in range(k))
        ):
            accepting.add(name_of(key))
        for i in range(max(1, phase), len(vectors)):
            for block in tuple_sets[i]:
                stepped = read_block(sims, prs, mem, block)
                if stepped is None:
                    continue
                new_sims, new_prs, new_mem = stepped
                core_key = ("c", i, g, new_sims, new_prs, new_mem)
                emit_block(key, block, core_key, junction_cost(mem, block))

    symbols = {t.symbol for t in transitions}
    result = CostAutomaton(
        alphabet=frozenset(symbols) if symbols else frozenset(sigma),
        states=frozenset(names[key] for key in enqueued),
        initial="start",
        accepting=frozenset(accepting),
        transitions=tuple(dict.fromkeys(transitions)),
    )
    return automata.trim(result)


def linlen_energy(
    spec: LinearLengthSpec,
    block_cap: int = DEFAULT_BLOCK_CAP,
    state_cap: int = DEFAULT_LINLEN_STATE_CAP,
    form: str = "compact",
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> EnergyReport:
    """Free energy of the linear-length language via the block translation."""
    a = block_automaton(spec, block_cap=block_cap, state_cap=state_cap)
    return free_energy(a, form=form, tolerance=tolerance, max_iterations=max_iterations)


def linlen_union_energy(
    specs: Iterable[LinearLengthSpec],
    block_cap: int = DEFAULT_BLOCK_CAP,
    state_cap: int = DEFAULT_LINLEN_STATE_CAP,
) -> float:
    """Free energy of a finite union: the max over the members (the union
    of the translated languages grows at the fastest member's rate)."""
    best = 0.0
    for spec in specs:
        best = max(best, linlen_energy(spec, block_cap=block_cap, state_cap=state_cap).energy)
    return best


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
    state accepts may close there, opening the next part.  A word has a
    split when a last-part configuration accepts and its length vector is
    in D.  The cost is carried as prefix cost + U(last, symbol), so no word
    is rescanned.  Practical only on small instances (narrow base
    language, short max_n); ``word_cap`` bounds the enumerated prefixes to
    fail loudly instead of spinning.
    """
    problems = validate_spec(spec)
    if problems:
        raise DocumentError("; ".join(problems))
    base = automata.trim(spec.base)
    parts = [automata.trim(p) for p in spec.parts]
    k = spec.lengths.k
    u = spec.pair_cost

    sums = [0.0] * (max_n + 1)
    if base.is_empty or any(p.is_empty for p in parts):
        return _series("words", sums[1:])

    steps = [{(t.source, t.symbol): t.target for t in p.transitions} for p in parts]
    children = {s: [(t.target, t.symbol) for t in sorted(ts)] for s, ts in base.by_source.items()}

    # a configuration: (part index, part state, start of the part, finished lengths)
    def close(configs: list[tuple], pos: int) -> list[tuple]:
        """``configs`` plus every part opened by closing an accepting one at pos."""
        for part, state, start, lens in configs:  # also visits the appended ones
            if part + 1 < k and state in parts[part].accepting:
                configs.append((part + 1, parts[part + 1].initial, pos, lens + (pos - start,)))
        return configs

    def has_split(configs: list[tuple], n: int) -> bool:
        return any(
            part == k - 1
            and state in parts[part].accepting
            and linear_set_member(spec.lengths, lens + (n - start,))
            for part, state, start, lens in configs
        )

    enumerated = 0
    root = close([(0, parts[0].initial, 0, ())], 0)
    # (base state, prefix length, last symbol, prefix cost, configurations)
    stack: list[tuple[str, int, str, float, list[tuple]]] = [(base.initial, 0, "", 0.0, root)]
    while stack:
        state, n, last, cost, configs = stack.pop()
        enumerated += 1
        if enumerated > word_cap:
            raise ValueError(f"oracle enumeration passed {word_cap} prefixes; instance too large")
        if n and state in base.accepting and has_split(configs, n):
            sums[n] += math.exp(cost)
        if n < max_n:
            for target, sym in children[state]:
                stepped = []
                for part, part_state, start, lens in configs:
                    nxt = steps[part].get((part_state, sym))
                    if nxt is not None:
                        stepped.append((part, nxt, start, lens))
                step_cost = cost + u.cost(last, sym) if n else 0.0
                stack.append((target, n + 1, sym, step_cost, close(stepped, n + 1)))
    return _series("words", sums[1:])
