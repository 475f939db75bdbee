import itertools
import math
import random

import numpy as np
import pytest

from gurevich import (
    BlockAlphabetTooLarge,
    DocumentError,
    LinearLengthSpec,
    LinearSet,
    PairCostFunction,
    StateCapExceeded,
    block_automaton,
    free_energy,
    language_energy,
    linear_set_member,
    linlen_energy,
    linlen_union_energy,
    linlen_word_oracle,
    run_partition_series,
    trim,
    validate,
    validate_spec,
    word_cost,
)

from conftest import aut, dfa_successors, edges_by_source

ZERO_U = PairCostFunction.create()
DIAG_U = PairCostFunction.create({("a", "a"): 1.0, ("b", "b"): 1.0})


def a_b_a_base():
    """DFA for a* b* a* over {a, b} (partial: no b after the second block)."""
    return aut(
        ["a", "b"], ["s0", "s1", "s2"], "s0", ["s0", "s1", "s2"],
        [("s0", "a", "s0"), ("s0", "b", "s1"), ("s1", "b", "s1"),
         ("s1", "a", "s2"), ("s2", "a", "s2")],
    )


def a_star():
    return aut(["a", "b"], ["A"], "A", ["A"], [("A", "a", "A")])


def b_star():
    return aut(["a", "b"], ["B"], "B", ["B"], [("B", "b", "B")])


def abba_spec(u):
    """{a^n b^2n a^3n : n >= 1} with pair cost u."""
    return LinearLengthSpec(
        base=a_b_a_base(),
        parts=(a_star(), b_star(), a_star()),
        lengths=LinearSet.create((1, 2, 3), [(1, 2, 3)]),
        pair_cost=u,
    )


def sigma_star_spec(u):
    """k = 1, part = base = full language, all lengths >= 1."""
    sigma = aut(["a", "b"], ["A"], "A", ["A"], [("A", "a", "A"), ("A", "b", "A")])
    return LinearLengthSpec(
        base=sigma,
        parts=(sigma,),
        lengths=LinearSet.create((1,), [(1,)]),
        pair_cost=u,
    )


class TestLinearSetMember:
    def test_scaled_triple(self):
        d = LinearSet.create((1, 2, 3), [(1, 2, 3)])
        assert linear_set_member(d, (3, 6, 9))
        assert linear_set_member(d, (1, 2, 3))
        assert not linear_set_member(d, (2, 5, 6))
        assert not linear_set_member(d, (0, 0, 0))

    def test_point_set(self):
        d = LinearSet.create((2, 2))
        assert linear_set_member(d, (2, 2))
        assert not linear_set_member(d, (2, 3))
        assert not linear_set_member(d, (3, 2))

    def test_two_periods(self):
        d = LinearSet.create((1,), [(2,), (3,)])
        members = {n for n in range(1, 12) if linear_set_member(d, (n,))}
        assert members == {1, 3, 4, 5, 6, 7, 8, 9, 10, 11}  # 1 + 2s + 3t

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_enumeration(self, seed):
        rng = random.Random(seed)
        k = rng.randint(1, 3)
        periods: set[tuple[int, ...]] = set()
        for _ in range(rng.randint(1, 3)):
            p = tuple(rng.randint(0, 3) for _ in range(k))
            if any(p):
                periods.add(p)
        d = LinearSet.create([rng.randint(1, 3) for _ in range(k)], sorted(periods))
        box = 9
        # every period has a coordinate >= 1, so coefficients above box leave it
        members = set()
        for coeffs in itertools.product(range(box + 1), repeat=len(d.periods)):
            v = tuple(
                o + sum(c * p[i] for c, p in zip(coeffs, d.periods)) for i, o in enumerate(d.offset)
            )
            if max(v) <= box:
                members.add(v)
        for v in itertools.product(range(box + 1), repeat=k):
            assert linear_set_member(d, v) == (v in members), (d, v)

    def test_arity_mismatch(self):
        d = LinearSet.create((1, 2, 3), [(1, 2, 3)])
        with pytest.raises(ValueError, match="arity"):
            linear_set_member(d, (1, 2))


class TestValidation:
    def test_offset_must_be_positive(self):
        d = LinearSet.create((0, 1), [(1, 1)])
        assert "offset must be positive" in d.violations()
        spec = LinearLengthSpec(
            base=a_b_a_base(), parts=(a_star(), b_star()),
            lengths=d, pair_cost=ZERO_U,
        )
        with pytest.raises(DocumentError, match="offset must be positive"):
            linlen_energy(spec)

    def test_lengths_must_be_integers(self):
        # int() would read these as offset (1, 2, 3) and period (1, 1, 3)
        with pytest.raises(ValueError, match="field 'offset' must be a list of integers"):
            LinearSet.create([1.5, 2, 3], [[1, 1, 3]])
        for period in ([1.9, True, "3"], [True, 1, 3], ["1", 1, 3], 3):
            with pytest.raises(ValueError, match="field 'periods' must be a list of lists"):
                LinearSet.create([1, 2, 3], [period])
        numpy_ints = LinearSet.create(np.array([1, 2, 3]), np.array([[1, 1, 3]]))
        assert numpy_ints == LinearSet.create((1, 2, 3), [(1, 1, 3)])

    def test_period_shape(self):
        assert LinearSet.create((1,), [(0,)]).violations()
        assert LinearSet.create((1, 1), [(1,)]).violations()
        assert LinearSet.create((1,), [(2,), (2,)]).violations()
        assert LinearSet.create((1, 1), [(1, 0), (0, 2)]).violations() == []

    def test_spec_level_checks(self, branchy_nfa):
        spec = LinearLengthSpec(
            base=a_b_a_base(), parts=(a_star(),),
            lengths=LinearSet.create((1, 2), [(1, 1)]), pair_cost=ZERO_U,
        )
        problems = validate_spec(spec)
        assert any("1 part languages for arity 2" in p for p in problems)
        nondet_spec = LinearLengthSpec(
            base=branchy_nfa, parts=(branchy_nfa,),
            lengths=LinearSet.create((1,), [(1,)]), pair_cost=ZERO_U,
        )
        assert any("must be deterministic" in p for p in validate_spec(nondet_spec))
        mixed = LinearLengthSpec(
            base=a_b_a_base(),
            parts=(aut(["a"], ["A"], "A", ["A"], [("A", "a", "A")]),),
            lengths=LinearSet.create((1,), [(1,)]), pair_cost=ZERO_U,
        )
        assert any("alphabet differs" in p for p in validate_spec(mixed))


class TestEnergy:
    def test_zero_cost_single_word_per_length(self):
        rep = linlen_energy(abba_spec(ZERO_U))
        assert rep.energy == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_cost_unit_rate(self):
        rep = linlen_energy(abba_spec(DIAG_U))
        assert rep.energy == pytest.approx(1.0, abs=1e-9)

    def test_k1_full_language(self):
        rep = linlen_energy(sigma_star_spec(ZERO_U))
        assert rep.energy == pytest.approx(math.log(2.0), abs=1e-9)

    def test_block_automaton_shape(self):
        a = block_automaton(abba_spec(ZERO_U))
        assert len(a.states) == 13
        assert len(a.transitions) == 13

    def test_block_state_cap(self):
        # the cap counts states as the translation discovers them, before
        # the trim that leaves test_block_automaton_shape's 13
        with pytest.raises(StateCapExceeded, match=r"block translation exceeded the state cap \(5\)"):
            block_automaton(abba_spec(ZERO_U), state_cap=5)

    def test_block_cap(self):
        sigma3 = aut(
            ["a", "b", "c"], ["A"], "A", ["A"],
            [("A", s, "A") for s in "abc"],
        )
        spec = LinearLengthSpec(
            base=sigma3, parts=(sigma3,),
            lengths=LinearSet.create((1,), [(10,)]), pair_cost=ZERO_U,
        )
        with pytest.raises(BlockAlphabetTooLarge) as exc:
            linlen_energy(spec)
        assert exc.value.count == 3**10


def colliding_names_spec(first, second):
    """Base {w,x,z}*, two parts that reach first[0]/first[1] and
    second[0]/second[1] on zx/wx and then read anything, lengths (2,2)+(1,1)."""
    sigma = ["w", "x", "z"]
    base = aut(sigma, ["S"], "S", ["S"], [("S", y, "S") for y in sigma])

    def part(after_zx, after_wx):
        ends = [after_zx, after_wx]
        moves = [("p0", "z", "pz"), ("pz", "x", after_zx), ("p0", "w", "pw"), ("pw", "x", after_wx)]
        return aut(sigma, ["p0", "pz", "pw"] + ends, "p0", ends,
                   moves + [(q, y, q) for q in ends for y in sigma])

    return LinearLengthSpec(
        base=base, parts=(part(*first), part(*second)),
        lengths=LinearSet.create((2, 2), [(1, 1)]), pair_cost=ZERO_U,
    )


class TestBlockNames:
    def test_colliding_state_names_are_escaped(self):
        # part states ("a,b", "c") and ("a", "b,c") both print as "a,b,c"
        a = block_automaton(colliding_names_spec(("a,b", "a"), ("c", "b,c")))
        apart = block_automaton(colliding_names_spec(("ab", "a"), ("c", "bc")))
        assert validate(a) == []
        assert len(a.states) == len(apart.states) == 89
        assert len(a.src) == len(apart.src)
        assert not any("#" in name for name in a.states)
        assert any("~r:a\\,b,c~" in name for name in a.states)
        assert any("~r:a,b\\,c~" in name for name in a.states)
        assert "c1~g:S~q:S,S~r:ab,c~m:x,x" in apart.states  # nothing to escape
        for m in (a, apart):
            assert free_energy(m).energy == pytest.approx(math.log(3.0), abs=1e-12)

    def test_colliding_symbol_names_are_escaped(self):
        # blocks (a+b, a, c) and (a, b+a, c) both print as "[a+b+a+c;c]"
        sigma = ["a", "a+b", "b+a", "c"]
        star = aut(sigma, ["S"], "S", ["S"], [("S", y, "S") for y in sigma])
        spec = LinearLengthSpec(star, (star,), LinearSet.create((3,), [(3,)]), ZERO_U)
        a = block_automaton(spec)
        assert validate(a) == []
        assert len(a.symbols) == 2 * 4**3  # one real and one stutter symbol per block
        assert {"[a\\+b+a+c;c]", "[a+b\\+a+c;c]"} <= a.alphabet
        assert free_energy(a).energy == pytest.approx(math.log(4.0), abs=1e-12)


class TestUnion:
    def test_single_member(self):
        spec = abba_spec(DIAG_U)
        assert linlen_union_energy([spec]) == pytest.approx(
            linlen_energy(spec).energy, abs=1e-12
        )

    def test_two_variants_on_disjoint_alphabets(self):
        # the zero-cost variant (rate 0) and a relabeled copy of the
        # unit-diagonal variant (rate 1): the union grows at the faster rate
        cd_base = aut(
            ["c", "d"], ["s0", "s1", "s2"], "s0", ["s0", "s1", "s2"],
            [("s0", "c", "s0"), ("s0", "d", "s1"), ("s1", "d", "s1"),
             ("s1", "c", "s2"), ("s2", "c", "s2")],
        )
        c_star = aut(["c", "d"], ["A"], "A", ["A"], [("A", "c", "A")])
        d_star = aut(["c", "d"], ["B"], "B", ["B"], [("B", "d", "B")])
        relabeled = LinearLengthSpec(
            base=cd_base, parts=(c_star, d_star, c_star),
            lengths=LinearSet.create((1, 2, 3), [(1, 2, 3)]),
            pair_cost=PairCostFunction.create({("c", "c"): 1.0, ("d", "d"): 1.0}),
        )
        total = linlen_union_energy([abba_spec(ZERO_U), relabeled])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_empty_member_unaffected(self):
        nothing = aut(["a", "b"], ["A"], "A", [], [("A", "a", "A")])
        empty_spec = LinearLengthSpec(
            base=nothing, parts=(a_star(), b_star(), a_star()),
            lengths=LinearSet.create((1, 2, 3), [(1, 2, 3)]),
            pair_cost=ZERO_U,
        )
        assert linlen_energy(empty_spec).energy == 0.0
        total = linlen_union_energy([abba_spec(DIAG_U), empty_spec])
        assert total == pytest.approx(1.0, abs=1e-9)


class TestOracle:
    def test_zero_cost_support(self):
        series = linlen_word_oracle(abba_spec(ZERO_U), 30)
        values = dict(series.values)
        for n in range(1, 31):
            assert values[n] == (1.0 if n % 6 == 0 else 0.0)

    def test_diagonal_cost_closed_form(self):
        series = linlen_word_oracle(abba_spec(DIAG_U), 24)
        values = dict(series.values)
        for n in (1, 2, 3, 4):
            # a^n: n-1 unit pairs; b^2n: 2n-1; a^3n: 3n-1; junctions cost 0
            assert values[6 * n] == pytest.approx(math.exp(6 * n - 3), rel=1e-12)

    def test_unreachable_offset_all_zero(self):
        even_b = aut(
            ["a", "b"], ["e", "o"], "e", ["e"],
            [("e", "b", "o"), ("o", "b", "e")],
        )
        spec = LinearLengthSpec(
            base=a_b_a_base(), parts=(a_star(), even_b, a_star()),
            lengths=LinearSet.create((1, 1, 1)),  # needs |w2| = 1, impossible
            pair_cost=ZERO_U,
        )
        series = linlen_word_oracle(spec, 20)
        assert all(v == 0.0 for _, v in series.values)

    def test_word_cap(self):
        with pytest.raises(StateCapExceeded, match="word_cap|too large|prefixes"):
            linlen_word_oracle(sigma_star_spec(ZERO_U), 30, word_cap=100)

    def test_word_cap_counts_every_prefix(self):
        # {a, b}* has 2^6 - 1 prefixes of length <= 5, the empty one included
        spec = sigma_star_spec(ZERO_U)
        assert len(linlen_word_oracle(spec, 5, word_cap=63).values) == 5
        with pytest.raises(StateCapExceeded, match="passed 62 prefixes"):
            linlen_word_oracle(spec, 5, word_cap=62)

    @pytest.mark.parametrize("max_n", [0, -3])
    def test_max_n_must_be_positive(self, max_n):
        with pytest.raises(ValueError, match=f"max_n must be positive, got {max_n}"):
            linlen_word_oracle(abba_spec(ZERO_U), max_n)


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "spec,energy,horizon",
        [
            (abba_spec(ZERO_U), 0.0, 60),
            (abba_spec(DIAG_U), 1.0, 60),
            # the full binary language has 2^n words per length, so the
            # split enumeration only reaches short horizons; the rate is
            # exactly ln 2 at every length, so this loses nothing
            (sigma_star_spec(ZERO_U), math.log(2.0), 14),
        ],
        ids=["zero-cost", "diagonal-cost", "k1-full"],
    )
    def test_soundness(self, spec, energy, horizon):
        assert linlen_energy(spec).energy == pytest.approx(energy, abs=1e-9)
        series = linlen_word_oracle(spec, horizon)
        live = [r for (n, v), (_, r) in zip(series.values, series.rates) if v > 0.0]
        assert live
        estimate = max(live[-12:])
        assert abs(estimate - energy) <= 0.1

    def test_length_preservation(self):
        spec = abba_spec(DIAG_U)
        block = block_automaton(spec)
        runs = run_partition_series(block, "runs_accepting", 30)
        oracle = linlen_word_oracle(spec, 30)
        run_support = {n for n, v in runs.values if v > 0.0}
        word_support = {n for n, v in oracle.values if v > 0.0}
        assert run_support == word_support == {6, 12, 18, 24, 30}

    def test_k1_reduction_matches_language_energy(self):
        u = PairCostFunction.create(
            {("a", "a"): 0.4, ("a", "b"): -0.1, ("b", "a"): 0.9, ("b", "b"): 0.2}
        )
        spec = sigma_star_spec(u)
        direct = language_energy(spec.base, u).energy
        assert abs(linlen_energy(spec).energy - direct) <= 1e-6


def split_search_oracle(spec, max_n):
    """Reference for linlen_word_oracle: the same depth-first walk of the
    base language, but every accepted word is searched afresh for a split
    and costed with word_cost.  Returns S_1..S_max_n."""
    base = trim(spec.base)
    parts = [trim(p) for p in spec.parts]
    k = spec.lengths.k
    sums = [0.0] * (max_n + 1)
    if base.is_empty or any(p.is_empty for p in parts):
        return sums[1:]
    steps = [dfa_successors(p) for p in parts]
    edges = edges_by_source(base)

    def has_split(w):
        n = len(w)

        def search(part_idx, pos, lens):
            if part_idx == k:
                return pos == n and linear_set_member(spec.lengths, lens)
            p = parts[part_idx]
            step = steps[part_idx]
            state = p.initial
            end = pos
            while True:
                if state is not None and state in p.accepting:
                    if search(part_idx + 1, end, lens + (end - pos,)):
                        return True
                if end == n or state is None:
                    return False
                state = step.get((state, w[end]))
                end += 1

        return search(0, 0, ())

    stack = [(base.initial, ())]
    while stack:
        state, word = stack.pop()
        if state in base.accepting and word and has_split(word):
            sums[len(word)] += math.exp(word_cost(spec.pair_cost, word))
        if len(word) < max_n:
            for t in sorted(edges.get(state, ())):
                stack.append((t.target, word + (t.symbol,)))
    return sums[1:]


# dyadic costs: every prefix sum is exact, however the reference adds them
MIXED_U = PairCostFunction.create(
    {("a", "a"): 0.5, ("a", "b"): -0.25, ("b", "a"): 0.75, ("b", "b"): -0.125,
     ("a", "c"): 0.375, ("c", "a"): -0.5}
)


def even_b_spec(lengths):
    even_b = aut(["a", "b"], ["e", "o"], "e", ["e"], [("e", "b", "o"), ("o", "b", "e")])
    return LinearLengthSpec(
        base=a_b_a_base(), parts=(a_star(), even_b, a_star()), lengths=lengths, pair_cost=MIXED_U,
    )


def even_last_part_spec():
    """Last part (aa)*: its run must end in an accepting state."""
    even_a = aut(["a", "b"], ["e", "o"], "e", ["e"], [("e", "a", "o"), ("o", "a", "e")])
    return LinearLengthSpec(
        base=a_b_a_base(), parts=(a_star(), b_star(), even_a),
        lengths=LinearSet.create((1, 1, 1), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        pair_cost=MIXED_U,
    )


def two_part_sigma_spec():
    """Words over {a, b} cut into two pieces of lengths 1 + 2s and 1 + 3t."""
    sigma = sigma_star_spec(MIXED_U).base
    return LinearLengthSpec(
        base=sigma, parts=(sigma, sigma),
        lengths=LinearSet.create((1, 1), [(2, 0), (0, 3)]), pair_cost=MIXED_U,
    )


def empty_part_spec():
    """Parts a*, b*, a*: each accepts at its initial state, so each part can
    close empty; D has three periods."""
    return LinearLengthSpec(
        base=a_b_a_base(), parts=(a_star(), b_star(), a_star()),
        lengths=LinearSet.create((1, 1, 1), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        pair_cost=MIXED_U,
    )


def unread_symbol_spec():
    """Base (a|b|c)*; parts a* and b* never read c, so no word with c splits."""
    abc = aut(["a", "b", "c"], ["A"], "A", ["A"], [("A", x, "A") for x in "abc"])
    a_only = aut(["a", "b", "c"], ["A"], "A", ["A"], [("A", "a", "A")])
    b_only = aut(["a", "b", "c"], ["B"], "B", ["B"], [("B", "b", "B")])
    return LinearLengthSpec(
        base=abc, parts=(a_only, b_only),
        lengths=LinearSet.create((1, 1), [(1, 0), (0, 1)]), pair_cost=MIXED_U,
    )


class TestOracleAgainstSplitSearch:
    @pytest.mark.parametrize(
        "spec,horizon",
        [
            (abba_spec(ZERO_U), 30),
            (abba_spec(DIAG_U), 30),
            (abba_spec(MIXED_U), 24),
            (even_b_spec(LinearSet.create((1, 1, 1))), 20),
            (even_b_spec(LinearSet.create((1, 2, 1), [(1, 0, 0), (0, 2, 1)])), 24),
            (even_last_part_spec(), 20),
            (sigma_star_spec(MIXED_U), 11),
            (two_part_sigma_spec(), 11),
            (empty_part_spec(), 20),
            (unread_symbol_spec(), 8),
        ],
        ids=["abba-zero", "abba-diagonal", "abba-mixed", "even-b", "even-b-periods",
             "even-last-part", "k1-full", "two-periods", "empty-parts", "unread-symbol"],
    )
    def test_values_bit_for_bit(self, spec, horizon):
        values = [v for _, v in linlen_word_oracle(spec, horizon).values]
        reference = split_search_oracle(spec, horizon)
        assert values == reference
        assert any(reference) or spec.lengths.periods == ()
