import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from gurevich import (
    EMPTY,
    BlockAlphabetTooLarge,
    DocumentError,
    LinearLengthSpec,
    LinearSet,
    Overflow,
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

from gurevich.linlen import _last_lengths

from conftest import aut, dfa_successors, edges_by_source, wide_ring

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


def members_in_box(d, box):
    """The vectors of ``d`` with every coordinate at most ``box``, by
    enumerating the period coefficients."""
    # every period has a coordinate >= 1, so coefficients above box leave it
    members = set()
    for coeffs in itertools.product(range(box + 1), repeat=len(d.periods)):
        v = tuple(o + sum(c * p[i] for c, p in zip(coeffs, d.periods)) for i, o in enumerate(d.offset))
        if max(v) <= box:
            members.add(v)
    return members


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
        members = members_in_box(d, box)
        for v in itertools.product(range(box + 1), repeat=k):
            assert linear_set_member(d, v) == (v in members), (d, v)

    def test_one_division_far_out(self):
        # the tail coefficient is settled by one division, so nothing walks
        # or allocates up to 10^9
        start = time.perf_counter()
        assert linear_set_member(LinearSet.create((1,), [(1,)]), (10**9,))
        assert not linear_set_member(LinearSet.create((1,), [(2,)]), (10**9,))
        d = LinearSet.create((1, 1), [(0, 3), (1, 1)])  # (1 + s, 1 + 3t + s)
        assert linear_set_member(d, (7, 10**9))
        assert not linear_set_member(d, (7, 10**9 - 1))
        assert time.perf_counter() - start < 0.5

    def test_arity_mismatch(self):
        d = LinearSet.create((1, 2, 3), [(1, 2, 3)])
        with pytest.raises(ValueError, match="arity"):
            linear_set_member(d, (1, 2))

    def test_invalid_set_lists_its_violations(self):
        d = LinearSet.create([1], [[0]])
        with pytest.raises(ValueError, match=r"invalid linear set: period must be nonzero"):
            linear_set_member(d, (3,))


def last_length_family():
    """Linear sets for k = 1, 2, 3, each with 0 to 2 periods, under two
    offsets: for k <= 2 every period with entries 0..2, for k = 3 a list
    with head periods, tail periods (zero on both head coordinates) and
    periods along one direction."""
    candidates = {
        1: [(1,), (2,), (3,)],
        2: [p for p in itertools.product(range(3), repeat=2) if any(p)],
        3: [(1, 2, 0), (0, 0, 2), (0, 0, 1), (1, 2, 3), (2, 4, 6), (1, 0, 0), (0, 1, 1)],
    }
    for k, periods in candidates.items():
        for offset in ((1,) * k, (2, 1, 2)[:k]):
            for m in range(3):
                for chosen in itertools.combinations(periods, m):
                    yield LinearSet.create(offset, chosen)


class TestLastLengths:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_membership(self, k):
        # membership by enumeration: _last_lengths and linear_set_member
        # share their search over the head periods
        for d in (d for d in last_length_family() if d.k == k):
            members = members_in_box(d, 12)
            for head in itertools.product(range(13), repeat=k - 1):
                if sum(head) > 12:
                    continue
                limit = 12 - sum(head)
                want = {x for x in range(limit + 1) if head + (x,) in members}
                assert _last_lengths(d, head, limit) == want, (d, head)


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

    def test_periods_must_be_a_list(self):
        with pytest.raises(ValueError, match="^field 'periods' must be a list of lists of integers$"):
            LinearSet.create([1], 5)

    def test_arity_must_be_positive(self):
        assert LinearSet.create([], []).violations() == ["offset must have at least one coordinate"]
        spec = LinearLengthSpec(
            base=a_b_a_base(), parts=(), lengths=LinearSet.create([]), pair_cost=ZERO_U,
        )
        for run in (linlen_energy, lambda s: linlen_word_oracle(s, 5)):
            with pytest.raises(DocumentError, match="offset must have at least one coordinate"):
                run(spec)

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

    def test_no_block_reads_both_tracks(self):
        # the base accepts only a and the one part only b, so no initial
        # block survives both simulations and the translation has no edge
        only_a = aut(["a", "b"], ["s", "t"], "s", ["t"], [("s", "a", "t")])
        only_b = aut(["a", "b"], ["s", "t"], "s", ["t"], [("s", "b", "t")])
        spec = LinearLengthSpec(only_a, (only_b,), LinearSet.create((1,)), ZERO_U)
        assert block_automaton(spec) is EMPTY
        assert linlen_energy(spec).energy == 0.0
        assert all(v == 0.0 for _, v in linlen_word_oracle(spec, 6).values)

    def test_block_state_cap(self):
        # the cap counts states as the translation discovers them, before
        # the trim that leaves test_block_automaton_shape's 13
        with pytest.raises(StateCapExceeded, match=r"block translation exceeded the state cap \(5\)") as caught:
            block_automaton(abba_spec(ZERO_U), state_cap=5)
        assert str(caught.value).endswith(
            " (5) on a 3-state, 5-transition base language and parts of 3 states, 3 transitions in all"
        )

    def test_block_state_cap_trips_before_the_guesses_are_listed(self):
        # a 30-state ring with five parts has 30^4 boundary guesses; listing
        # them up front took 62 MiB and 2 s before the cap of 10 tripped
        names = [f"q{i}" for i in range(30)]
        steps = [(q, "a", names[(i + 1) % 30]) for i, q in enumerate(names)]
        ring = aut(["a"], names, "q0", names, steps)
        part = aut(["a"], ["p"], "p", ["p"], [("p", "a", "p")])
        spec = LinearLengthSpec(ring, (part,) * 5, LinearSet.create((1,) * 5), ZERO_U)
        tracemalloc.start()
        try:
            with pytest.raises(StateCapExceeded, match=r"state cap \(10\)"):
                block_automaton(spec, state_cap=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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

    @pytest.mark.parametrize("default", [0.0, -2.0])
    def test_negative_member_is_not_floored_at_zero(self, default):
        # every word of the one member costs < 0, so its rate is below 0
        spec = abba_spec(PairCostFunction.create({("a", "a"): -1.0, ("b", "b"): -1.0}, default))
        energy = linlen_energy(spec).energy
        assert energy < 0.0
        assert linlen_union_energy([spec]) == energy

    def test_finite_member_takes_no_part(self):
        # a finite language has no growth rate: its conventional energy 0
        # neither raises a negative union nor makes a union of its own
        negative = abba_spec(PairCostFunction.create({("a", "a"): -1.0, ("b", "b"): -1.0}))
        point = LinearLengthSpec(
            base=a_b_a_base(), parts=(a_star(), b_star(), a_star()),
            lengths=LinearSet.create((1, 2, 3)),
            pair_cost=ZERO_U,
        )
        assert linlen_energy(point).energy == 0.0
        assert linlen_union_energy([point, negative]) == linlen_energy(negative).energy
        assert linlen_union_energy([point]) == 0.0
        assert linlen_union_energy([]) == 0.0


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

    def test_max_n_cap(self):
        # a finite base never meets the prefix cap, so only this bounds the horizon
        only_a = aut(["a"], ["s", "t"], "s", ["t"], [("s", "a", "t")])
        spec = LinearLengthSpec(
            base=only_a, parts=(only_a,), lengths=LinearSet.create((1,)), pair_cost=ZERO_U,
        )
        assert len(linlen_word_oracle(spec, 10_000).values) == 10_000
        with pytest.raises(ValueError, match="max_n 10001 exceeds the cap 10000"):
            linlen_word_oracle(spec, 10_001)

    def test_wide_alphabet_memory_follows_the_transitions(self):
        # the part's steps are indexed by the 2,000 transitions that occur;
        # a states x symbols table of 2,000,000 cells peaked at 31 MiB
        ring = wide_ring()
        spec = LinearLengthSpec(ring, (ring,), LinearSet.create((1,), [(1,)]), ZERO_U)
        tracemalloc.start()
        try:
            series = linlen_word_oracle(spec, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert series.values == ((1, 1.0), (2, 1.0), (3, 1.0))
        assert peak < 4 << 20

    def test_word_weight_overflow(self):
        # a^2 b^4 a^6 costs 900, past e^709.78
        hot = PairCostFunction.create({("a", "a"): 100.0, ("b", "b"): 100.0})
        with pytest.raises(Overflow, match="left the double range at n=12") as caught:
            linlen_word_oracle(abba_spec(hot), 12)
        assert caught.value.n == 12

    def test_empty_base(self):
        nothing = aut(["a", "b"], ["A"], "A", [], [("A", "a", "A")])
        spec = LinearLengthSpec(
            base=nothing, parts=(a_star(),), lengths=LinearSet.create((1,), [(1,)]), pair_cost=ZERO_U,
        )
        assert linlen_word_oracle(spec, 4).values == ((1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0))

    def test_sum_overflow(self):
        # every word of length 2 weighs e^709, finite; the four of them are not
        hot = PairCostFunction.create({(x, y): 709.0 for x in "ab" for y in "ab"})
        with pytest.raises(Overflow, match="left the double range at n=2") as caught:
            linlen_word_oracle(sigma_star_spec(hot), 2)
        assert caught.value.n == 2


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


def head_and_tail_period_spec():
    """Parts a*, b*, a* with D = (1,1,1) + s(1,2,0) + t(0,0,2): a head
    period and a tail period, zero on both head coordinates."""
    return LinearLengthSpec(
        base=a_b_a_base(), parts=(a_star(), b_star(), a_star()),
        lengths=LinearSet.create((1, 1, 1), [(1, 2, 0), (0, 0, 2)]), pair_cost=MIXED_U,
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
            (head_and_tail_period_spec(), 24),
        ],
        ids=["abba-zero", "abba-diagonal", "abba-mixed", "even-b", "even-b-periods",
             "even-last-part", "k1-full", "two-periods", "empty-parts", "unread-symbol",
             "head-and-tail-periods"],
    )
    def test_values_bit_for_bit(self, spec, horizon):
        values = [v for _, v in linlen_word_oracle(spec, horizon).values]
        reference = split_search_oracle(spec, horizon)
        assert values == reference
        assert any(reference) or spec.lengths.periods == ()
