import math
import random
import tracemalloc

import pytest

from gurevich import (
    CostAutomaton,
    Overflow,
    PairCostFunction,
    automaton_to_document,
    count_series,
    determinize,
    estimate_limit,
    free_energy,
    log_int,
    run_partition_series,
    save_document,
    word_partition_series,
)
from gurevich.cli import main
from gurevich.oracle import DEFAULT_MAX_N_CAP

from conftest import (
    BRANCHY_LAMBDA_EXACT,
    DNA_M1_ENERGY,
    aut,
    enum_count_f_g,
    enum_run_sum,
    edges_by_source,
    enum_word_sum,
    random_automaton,
)

ZERO_U = PairCostFunction.create()


@pytest.fixture
def two_cycle():
    return aut(["a", "b"], ["B", "C"], "B", ["B"], [("B", "b", "C", 2.0), ("C", "a", "B", 5.0)])


@pytest.fixture
def sigma_star():
    return aut(["a", "b"], ["A"], "A", ["A"], [("A", "a", "A"), ("A", "b", "A")])


class TestRunSeries:
    def test_two_cycle_accepting(self, two_cycle):
        series = run_partition_series(two_cycle, "runs_accepting", 8)
        values = dict(series.values)
        for k in (1, 2, 3, 4):
            assert values[2 * k] == pytest.approx(math.exp(7 * k), rel=1e-12)
            assert values[2 * k - 1] == 0.0
        rates = dict(series.rates)
        assert rates[6] == pytest.approx(3.5)
        assert rates[3] == 0.0  # ln 0 taken as 0

    def test_two_cycle_all_runs(self, two_cycle):
        series = run_partition_series(two_cycle, "runs_all", 4)
        values = dict(series.values)
        assert values[1] == pytest.approx(math.exp(2) + math.exp(5), rel=1e-12)
        assert values[2] == pytest.approx(2 * math.exp(7), rel=1e-12)

    def test_unknown_kind(self, two_cycle):
        with pytest.raises(ValueError, match="unknown kind"):
            run_partition_series(two_cycle, "words", 4)

    def test_max_n_validation(self, two_cycle):
        with pytest.raises(ValueError, match="must be positive"):
            run_partition_series(two_cycle, "runs_all", 0)
        with pytest.raises(ValueError, match="exceeds the cap"):
            run_partition_series(two_cycle, "runs_all", DEFAULT_MAX_N_CAP + 1)

    def test_first_reference_machine_rate(self, dna_m1):
        # Every cycle of M1 has even length and its accepting states 2, 3
        # are one step from 1, so only odd lengths carry weight.  The rate at
        # n = 299 lies within ln(const)/n of the derived energy, and the ratio
        # of consecutive nonzero sums is e^(2E) up to a geometric remainder.
        series = run_partition_series(dna_m1, "runs_accepting", 300)
        values = dict(series.values)
        assert values[300] == 0.0
        estimate, _ = estimate_limit(series, 10)
        assert abs(estimate - DNA_M1_ENERGY) <= 5e-3
        two_step = 0.5 * (math.log(values[299]) - math.log(values[297]))
        assert two_step == pytest.approx(DNA_M1_ENERGY, abs=1e-6)

    def test_overflow_guard(self):
        hot = aut(["a"], ["A"], "A", ["A"], [("A", "a", "A", 600.0)])
        with pytest.raises(Overflow):
            run_partition_series(hot, "runs_accepting", 5)


class TestWordSeries:
    def test_ab_star_pair_costs(self, ab_star, u_ab):
        series = word_partition_series(ab_star, u_ab, 8)
        values = dict(series.values)
        for k in (1, 2, 3, 4):
            assert values[2 * k] == pytest.approx(math.exp(7 * k - 5), rel=1e-12)
            assert values[2 * k - 1] == 0.0

    def test_zero_costs_count_words(self, sigma_star):
        series = word_partition_series(sigma_star, ZERO_U, 10)
        for n, s in series.values:
            assert s == pytest.approx(2.0**n, rel=1e-12)
        for n, r in series.rates:
            assert r == pytest.approx(math.log(2.0))

    def test_rejects_nondeterministic(self, branchy_nfa, u_ab):
        from gurevich import NotDeterministic

        with pytest.raises(NotDeterministic):
            word_partition_series(branchy_nfa, u_ab, 4)

    def test_long_range_rescaling(self, ab_star, u_ab):
        # S_2k = e^{7k-5} leaves the double range near n = 206; the rates
        # must stay exact past that point and the values go inf, not nan
        series = word_partition_series(ab_star, u_ab, 400)
        rates = dict(series.rates)
        values = dict(series.values)
        assert rates[400] == pytest.approx((7 * 200 - 5) / 400, rel=1e-12)
        assert math.isinf(values[400])
        assert values[100] == pytest.approx(math.exp(7 * 50 - 5), rel=1e-12)

    def test_single_step_overflow_still_raises(self):
        dfa = aut(["a"], ["A"], "A", ["A"], [("A", "a", "A")])
        hot = PairCostFunction.create({("a", "a"): 800.0})
        with pytest.raises(Overflow):
            word_partition_series(dfa, hot, 5)


class TestCountSeries:
    def test_dfa_runs_equal_words(self):
        for seed in range(6):
            dfa = determinize(random_automaton(seed, max_states=4, costs="zero"))
            f, g = count_series(dfa, 8)
            assert f == g

    def test_two_parallel_paths(self):
        m = aut(
            ["a", "b"], ["i", "p", "q"], "i", ["p", "q"],
            [("i", "a", "p"), ("i", "a", "q"), ("p", "b", "i"), ("q", "b", "i")],
        )
        f, g = count_series(m, 3)
        assert f[0] == 0 and g[0] == 0
        assert f[1] == 2 and g[1] == 1
        assert f[2] == 2 and g[2] == 1
        assert f[3] == 6 and g[3] == 2

    def test_matches_enumeration(self, branchy_nfa):
        # state names with the product's and the subsets' separators, so
        # that pair and subset names collide and get escaped
        separators = aut(
            ["a", "b"], ["p|q", "p", "q|", "{x,y}", "\\z", "{x"], "p|q", ["q|", "{x"],
            [("p|q", "a", "p"), ("p|q", "a", "q|"), ("p", "b", "{x,y}"), ("q|", "b", "{x,y}"),
             ("{x,y}", "a", "\\z"), ("\\z", "b", "p|q"), ("{x,y}", "b", "{x"), ("\\z", "a", "{x"),
             ("{x", "a", "p|q"), ("{x", "b", "{x")],
        )
        subsets = aut(
            ["a"], ["s", "p,q", "p", "q"], "s", ["p,q", "q"],
            [("s", "a", "p"), ("s", "a", "q"), ("p", "a", "p,q"), ("q", "a", "p,q"),
             ("p,q", "a", "p"), ("p,q", "a", "s")],
        )
        fixtures = [branchy_nfa, separators, subsets] + [
            random_automaton(s, max_states=4) for s in (3, 7, 11)
        ]
        for m in fixtures:
            f, g = count_series(m, 6)
            f_ref, g_ref = enum_count_f_g(m, 6)
            assert f == f_ref
            assert g == g_ref

    def test_branchy_rate_gap(self, branchy_nfa):
        # The count asymptotics (ln f - ln g)/n approach the derived
        # lambda_exact (0.1661; the slope is about 0.1690 at n = 200).
        f, g = count_series(branchy_nfa, 200)
        slope = (log_int(f[200]) - log_int(g[200])) / 200
        assert abs(slope - BRANCHY_LAMBDA_EXACT) <= 0.05


class TestEstimateLimit:
    def test_constant_series(self, sigma_star):
        series = word_partition_series(sigma_star, ZERO_U, 40)
        estimate, spread = estimate_limit(series, 10)
        assert estimate == pytest.approx(math.log(2.0))
        assert spread <= 1e-12

    def test_word_oracle_converges(self, ab_star, u_ab):
        series = word_partition_series(ab_star, u_ab, 400)
        estimate, spread = estimate_limit(series, 50)
        assert abs(estimate - 3.5) <= 0.02
        # odd lengths are empty, so the spread flags the periodic support
        assert spread > 3.0

    def test_periodic_support_flagged(self):
        # even-length words only: rates alternate 0 and ln 2, so the spread
        # stays at ln 2 and flags the periodic support
        even = aut(
            ["a", "b"], ["e", "o"], "e", ["e"],
            [("e", x, "o") for x in "ab"] + [("o", x, "e") for x in "ab"],
        )
        series = word_partition_series(even, ZERO_U, 60)
        estimate, spread = estimate_limit(series, 10)
        assert estimate == pytest.approx(math.log(2.0))
        assert spread == pytest.approx(math.log(2.0))

    def test_window_validation(self, sigma_star):
        series = word_partition_series(sigma_star, ZERO_U, 5)
        with pytest.raises(ValueError, match="window must be positive"):
            estimate_limit(series, 0)
        with pytest.raises(ValueError, match="need at least"):
            estimate_limit(series, 6)


class TestAgainstEnumeration:
    def test_run_sums(self, branchy_nfa):
        fixtures = [branchy_nfa] + [random_automaton(s, max_states=4) for s in range(8)]
        for m in fixtures:
            for kind in ("runs_all", "runs_accepting"):
                series = run_partition_series(m, kind, 7)
                for n, s in series.values:
                    ref = enum_run_sum(m, n, kind)
                    assert s == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_word_sums(self, u_ab):
        for seed in range(8):
            dfa = determinize(random_automaton(seed, max_states=4, costs="zero"))
            u = PairCostFunction.create(
                {(x, y): ((seed + ord(x) - ord(y)) % 5) * 0.3 for x in "ab" for y in "ab"}
            )
            series = word_partition_series(dfa, u, 7)
            for n, s in series.values:
                ref = enum_word_sum(dfa, u, n)
                assert s == pytest.approx(ref, rel=1e-12, abs=1e-300)


def pair_dp_word_sums(dfa, u, max_n):
    """Word sums by a dict DP over (state, last symbol), one Python loop
    per step: the form the edge sweep replaces."""
    frontier: dict[tuple[str, str], float] = {}
    edges = edges_by_source(dfa)
    for t in edges.get(dfa.initial, ()):
        frontier[(t.target, t.symbol)] = frontier.get((t.target, t.symbol), 0.0) + 1.0
    sums = []
    for n in range(1, max_n + 1):
        if n > 1:
            nxt: dict[tuple[str, str], float] = {}
            for (state, last), w in frontier.items():
                for t in edges.get(state, ()):
                    key = (t.target, t.symbol)
                    nxt[key] = nxt.get(key, 0.0) + w * math.exp(u.cost(last, t.symbol))
            frontier = nxt
        sums.append(sum(w for (state, _), w in frontier.items() if state in dfa.accepting))
    return sums


class TestAgainstLoopDp:
    # the sweep adds in another order than the loops, so values agree to a
    # relative 1e-12: about 60 steps of at most a few dozen roundings each
    @pytest.mark.parametrize("seed", range(6))
    def test_run_sums_long_horizon(self, seed):
        a = random_automaton(100 + seed, max_states=30, costs="mixed")
        for kind in ("runs_all", "runs_accepting"):
            values = dict(run_partition_series(a, kind, 60).values)
            for n in (1, 2, 17, 60):
                assert values[n] == pytest.approx(enum_run_sum(a, n, kind), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("seed", range(6))
    def test_word_sums_long_horizon(self, seed):
        rng = random.Random(seed)
        dfa = determinize(random_automaton(200 + seed, max_states=12, costs="zero"))
        u = PairCostFunction.create(
            {(x, y): rng.uniform(-1.0, 0.5) for x in sorted(dfa.alphabet) for y in sorted(dfa.alphabet)}
        )
        values = [s for _, s in word_partition_series(dfa, u, 60).values]
        for s, ref in zip(values, pair_dp_word_sums(dfa, u, 60)):
            assert s == pytest.approx(ref, rel=1e-12, abs=1e-300)


class TestWordEnergyStructure:
    def test_union_is_max_of_parts(self):
        # L = a(a|b)* union b b*: branches disjoint on the first letter, so
        # the union DFA is exact and the word-sum rate is the max branch rate
        left = aut(["a", "b"], ["i", "p"], "i", ["p"],
                   [("i", "a", "p"), ("p", "a", "p"), ("p", "b", "p")])
        right = aut(["a", "b"], ["i", "q"], "i", ["q"],
                    [("i", "b", "q"), ("q", "b", "q")])
        union = aut(
            ["a", "b"], ["i", "p", "q"], "i", ["p", "q"],
            [("i", "a", "p"), ("p", "a", "p"), ("p", "b", "p"),
             ("i", "b", "q"), ("q", "b", "q")],
        )
        estimates = []
        for dfa in (left, right, union):
            series = word_partition_series(dfa, ZERO_U, 300)
            estimates.append(estimate_limit(series, 30)[0])
        assert abs(estimates[2] - max(estimates[0], estimates[1])) <= 0.02

    def test_ambiguous_machine_bounds_word_energy(self, ab_cycle_machine, ab_star, u_ab):
        # duplicating the accepting cycle gives every nonempty word exactly
        # two accepting runs; the run-sum energy still bounds the word rate
        dup = aut(
            ["a", "b"],
            ["S", "P", "Q", "P2", "Q2"],
            "S",
            ["S", "Q", "Q2"],
            [("S", "a", "P", 0.0), ("P", "b", "Q", 2.0), ("Q", "a", "P", 5.0),
             ("S", "a", "P2", 0.0), ("P2", "b", "Q2", 2.0), ("Q2", "a", "P2", 5.0)],
        )
        machine_energy = free_energy(dup).energy
        series = word_partition_series(ab_star, u_ab, 300)
        word_estimate = estimate_limit(series, 30)[0]
        assert word_estimate <= machine_energy + 0.02
        assert machine_energy == pytest.approx(3.5, abs=1e-9)


class TestLogInt:
    def test_small_values(self):
        assert log_int(1) == 0.0
        assert log_int(7) == pytest.approx(math.log(7.0))

    def test_huge_values(self):
        x = 3**4000
        assert log_int(x) == pytest.approx(4000 * math.log(3.0), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_int(0)


def sparse_dfa(n: int, n_sym: int, seed: int) -> CostAutomaton:
    """n states, one transition per symbol and state to a random target, at
    cost -ln(n_sym), so every state's outgoing weights sum to 1; every
    other state accepts."""
    rng = random.Random(seed)
    states = [f"q{i}" for i in range(n)]
    symbols = [f"x{j}" for j in range(n_sym)]
    cost = -math.log(n_sym)
    return CostAutomaton.create(
        symbols, states, states[0], states[::2],
        [(p, x, states[rng.randrange(n)], cost) for p in states for x in symbols],
    )


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestMemoryGrowsWithTransitions:
    # one dense matrix over these 20,000 states would take 3.2 GB, and one
    # over their (state, last symbol) pairs far more
    @pytest.fixture(scope="class")
    def big(self):
        return sparse_dfa(20_000, 8, seed=11)

    def test_run_series(self, big):
        series, peak = traced_peak(lambda: run_partition_series(big, "runs_all", 20))
        # every state's outgoing weights sum to 1: S_n counts the states
        for _, s in series.values:
            assert s == pytest.approx(20_000, rel=1e-9)
        assert peak < 50 * 2**20

    def test_word_series(self, big):
        u = PairCostFunction.create(
            {(f"x{i}", f"x{j}"): -math.log(8) + 0.05 * (i - j) for i in range(8) for j in range(8)}
        )
        series, peak = traced_peak(lambda: word_partition_series(big, u, 20))
        first = sum(1 for t in edges_by_source(big)[big.initial] if t.target in big.accepting)
        assert series.values[0] == (1, float(first))
        assert all(0.0 < s < math.inf for _, s in series.values[1:])
        assert peak < 50 * 2**20

    def test_cli_oracle(self, big, tmp_path, capsys):
        path = str(tmp_path / "big.json")
        save_document(path, automaton_to_document(big))
        assert main(["oracle", path, "--kind", "words", "--max-n", "12"]) == 0
        assert capsys.readouterr().out.startswith("estimate ")
