"""The acceptance gate: one test per criterion, each recorded for the
terminal summary.  Tolerances are the stated ones.  Where a stated reference
number disagreed with what the defining machine forces (criteria 2 and 3),
the test asserts the value derived by hand in conftest, and the detail line
prints it; criterion 4's identical-pair clause asserts the doubled-cost
identity and its two-sided bound, since the cap itself is reached only when
the zero-cost energy is 0."""

import math

import numpy as np
import pytest

from gurevich import (
    NonnegativeMatrix,
    PairCostFunction,
    branching_costs,
    determinize,
    free_energy,
    lambda_exact,
    language_energy,
    linlen_energy,
    linlen_union_energy,
    linlen_word_oracle,
    LinearLengthSpec,
    LinearSet,
    product,
    run_partition_series,
    similarity,
    spectral_radius,
    trim,
    verify_implements,
    word_partition_series,
)

from conftest import (
    BRANCHY_LAMBDA_EXACT,
    DNA_M1_ENERGY,
    DNA_PRODUCT_EDGES,
    all_accepting,
    aut,
    enum_run_sum,
    enum_word_sum,
    enum_words,
    random_automaton,
    random_costed_dfa,
    random_strongly_connected,
    record_criterion,
)


def test_criterion_01(branchy_nfa):
    """Branchy-machine energies and the upper nondeterminism estimate."""
    with_v = free_energy(branching_costs(branchy_nfa)).energy
    zero = free_energy(branchy_nfa.with_costs(0.0 * branchy_nfa.cost)).energy
    plus = with_v - zero
    failures = []
    if abs(with_v - 1.0850) > 1e-3:
        failures.append(f"energy_v {with_v:.4f} != 1.0850")
    if abs(zero - 0.5857) > 1e-3:
        failures.append(f"energy_zero {zero:.4f} != 0.5857")
    if abs(plus - 0.4993) > 1e-3:
        failures.append(f"lambda_plus {plus:.4f} != 0.4993")
    record_criterion(1, not failures, "; ".join(failures) or "1.0850 / 0.5857 / 0.4993")
    assert not failures


def test_criterion_02(branchy_nfa):
    """Exact nondeterminism of the branchy machine, derived value 0.1661."""
    rep = lambda_exact(branchy_nfa)
    failures = []
    if abs(rep.lambda_exact - BRANCHY_LAMBDA_EXACT) > 1e-3:
        failures.append(
            f"lambda_exact {rep.lambda_exact:.4f} != {BRANCHY_LAMBDA_EXACT:.4f}"
        )
    if not rep.lambda_plus >= rep.lambda_exact - 1e-9:
        failures.append("lambda_plus < lambda_exact")
    record_criterion(
        2, not failures, "; ".join(failures) or f"{BRANCHY_LAMBDA_EXACT:.4f} and bound hold"
    )
    assert not failures


def test_criterion_03(dna_m1, dna_m2):
    """Reference-pair energies, delta, and the exact product machine."""
    rep = similarity(dna_m1, dna_m2)
    failures = []
    if abs(rep.energy_1 - DNA_M1_ENERGY) > 1e-3:
        failures.append(f"E(M1) {rep.energy_1:.4f} != {DNA_M1_ENERGY:.4f}")
    if abs(rep.energy_2 - 1.4087) > 1e-3:
        failures.append(f"E(M2) {rep.energy_2:.4f} != 1.4087")
    if abs(rep.delta - 1.025) > 2e-3:
        failures.append(f"delta {rep.delta:.4f} != 1.025")
    prod = product(dna_m1, dna_m2)
    edges = {(t.source, t.symbol, t.target): t.cost for t in prod.transitions}
    want = {(s, sym, d): c for (s, sym, d, c) in DNA_PRODUCT_EDGES}
    if set(edges) != set(want):
        failures.append("product edge set differs")
    else:
        for key, cost in want.items():
            if abs(edges[key] - cost) > 1e-9:
                failures.append(f"product cost differs on {key}")
                break
    record_criterion(
        3,
        not failures,
        "; ".join(failures)
        or f"E(M1) {DNA_M1_ENERGY:.4f}, E(M2) 1.4087, delta 1.025, product edges",
    )
    assert not failures


def test_criterion_04(single_cycle):
    """Similarity bounds over the random corpus; the identical-pair clause."""
    failures = []

    pool = [random_automaton(seed, max_states=6, costs="nonneg") for seed in range(400)]
    pairs = list(zip(pool[:200], pool[200:]))
    for a1, a2 in pairs:
        rep = similarity(a1, a2)
        if not (0.0 <= rep.delta <= rep.energy_1 + rep.energy_2 + 1e-6):
            failures.append(
                f"bound violated: delta {rep.delta:.6f} vs {rep.energy_1 + rep.energy_2:.6f}"
            )
            break

    a_plus = aut(["a"], ["i", "p"], "i", ["p"], [("i", "a", "p"), ("p", "a", "p")])
    b_plus = aut(["b"], ["j", "q"], "j", ["q"], [("j", "b", "q"), ("q", "b", "q")])
    odd_a = aut(["a"], ["o0", "o1"], "o0", ["o1"], [("o0", "a", "o1"), ("o1", "a", "o0")])
    even_a = aut(
        ["a"], ["e0", "e1", "e2"], "e0", ["e2"],
        [("e0", "a", "e1"), ("e1", "a", "e2"), ("e2", "a", "e1")],
    )
    for x, y in ((a_plus, b_plus), (odd_a, even_a)):
        d = similarity(x, y).delta
        if d != 0.0:
            failures.append(f"disjoint languages gave delta {d}")

    # identical deterministic pairs: the self-product of a DFA is the DFA
    # with doubled costs, and E(t cost) is convex in t, so with h the
    # zero-cost energy, 2E - h <= delta <= 2E = E1 + E2; the cap is reached
    # when h = 0, as on a single orbit
    for seed in range(30):
        dfa = random_costed_dfa(seed, max_states=5)
        if dfa.is_empty:
            continue
        rep = similarity(dfa, dfa)
        doubled = free_energy(dfa.with_costs(2.0 * dfa.cost)).energy
        h = free_energy(dfa.with_costs(0.0 * dfa.cost)).energy
        cap = rep.energy_1 + rep.energy_2
        if abs(rep.delta - doubled) > 1e-9:
            failures.append(
                f"identical pair: delta {rep.delta:.6f} != doubled-cost energy "
                f"{doubled:.6f} (seed {seed})"
            )
            break
        if not (cap - h - 1e-9 <= rep.delta <= cap + 1e-9):
            failures.append(
                f"identical pair: delta {rep.delta:.6f} outside "
                f"[{cap - h:.6f}, {cap:.6f}] (seed {seed})"
            )
            break
    rep = similarity(single_cycle, single_cycle)
    if abs(rep.delta - (rep.energy_1 + rep.energy_2)) > 1e-9:
        failures.append(
            f"single orbit misses the cap: delta {rep.delta:.6f} "
            f"vs E1+E2 {rep.energy_1 + rep.energy_2:.6f}"
        )

    record_criterion(
        4, not failures, "; ".join(failures) or "bounds, disjoint, identical = doubled costs"
    )
    assert not failures


def test_criterion_05(ab_star, u_ab, ab_cycle_machine):
    """Pair-cost implementation: rejection, acceptance, energy, oracle."""
    failures = []

    for va, vb in (
        (0.0, 2.0), (2.0, 0.0), (1.0, 1.0), (0.0, 0.0),
        (4.5, 4.5), (2.25, 2.25), (7.0, -5.0), (0.5, 1.5),
    ):
        skeleton = aut(
            ["a", "b"], ["p", "q"], "p", ["p"],
            [("p", "a", "q", va), ("q", "b", "p", vb)],
        )
        report = verify_implements(skeleton, ab_star, u_ab, 4)
        if report.holds or len(report.counterexample.word) > 4:
            failures.append(f"skeleton V=({va},{vb}) not rejected by length 4")

    if not verify_implements(ab_cycle_machine, ab_star, u_ab, 10).holds:
        failures.append("reference three-state machine rejected")

    energy = language_energy(ab_star, u_ab).energy
    if abs(energy - 3.5) > 1e-6:
        failures.append(f"language energy {energy:.6f} != 3.5")

    series = word_partition_series(ab_star, u_ab, 400)
    live = [r for (n, v), (_, r) in zip(series.values, series.rates) if v > 0.0]
    estimate = max(live[-50:])
    if abs(estimate - 3.5) > 0.02:
        failures.append(f"word oracle estimate {estimate:.4f} off 3.5 by > 0.02")

    record_criterion(5, not failures, "; ".join(failures) or "reject/accept/3.5/oracle")
    assert not failures


def test_criterion_06():
    """Partition-sum convergence to the energy at n = 200."""
    failures = []
    for seed in range(10):
        a = random_strongly_connected(seed)
        energy = free_energy(a).energy
        w = dict(run_partition_series(a, "runs_accepting", 201).values)
        total = w[200] + w[201]
        if total <= 0.0 or abs(math.log(total) / 200 - energy) > 0.05:
            failures.append(f"two-term form off on seed {seed}")

        full = all_accepting(a)
        z = dict(run_partition_series(full, "runs_accepting", 200).values)[200]
        if z <= 0.0 or abs(math.log(z) / 200 - free_energy(full).energy) > 0.05:
            failures.append(f"plain form off on seed {seed}")
    record_criterion(6, not failures, "; ".join(failures) or "20 fixtures at n=200")
    assert not failures


def test_criterion_07(branchy_nfa, dna_m1, dna_m2, ab_cycle_machine):
    """Compact and bipartite forms agree."""
    fixtures = [branching_costs(branchy_nfa), dna_m1, dna_m2, ab_cycle_machine]
    fixtures += [random_automaton(seed) for seed in range(20)]
    worst = 0.0
    for a in fixtures:
        gap = abs(
            free_energy(a, form="compact").energy - free_energy(a, form="bipartite").energy
        )
        worst = max(worst, gap)
    ok = worst <= 1e-8
    record_criterion(7, ok, f"max form gap {worst:.2e}")
    assert ok


def test_criterion_08():
    """DP sums equal explicit enumeration on micro fixtures."""
    failures = []
    for seed in range(10):
        m = random_automaton(seed, max_states=4)
        for kind in ("runs_all", "runs_accepting"):
            series = run_partition_series(m, kind, 10)
            for n, s in series.values:
                ref = enum_run_sum(m, n, kind)
                if s != pytest.approx(ref, rel=1e-12, abs=1e-300):
                    failures.append(f"{kind} differs at seed {seed} n {n}")
                    break

        dfa = determinize(random_automaton(seed, max_states=4, costs="zero"))
        if dfa.is_empty or len(dfa.states) > 4:
            continue
        u = PairCostFunction.create(
            {(x, y): ((seed + 3 * ord(x) + ord(y)) % 6) * 0.35 for x in "ab" for y in "ab"}
        )
        series = word_partition_series(dfa, u, 10)
        for n, s in series.values:
            ref = enum_word_sum(dfa, u, n)
            if s != pytest.approx(ref, rel=1e-12, abs=1e-300):
                failures.append(f"words differ at seed {seed} n {n}")
                break
    record_criterion(8, not failures, "; ".join(failures) or "runs and words to 1e-12")
    assert not failures


def _abba_spec(u):
    base = aut(
        ["a", "b"], ["s0", "s1", "s2"], "s0", ["s0", "s1", "s2"],
        [("s0", "a", "s0"), ("s0", "b", "s1"), ("s1", "b", "s1"),
         ("s1", "a", "s2"), ("s2", "a", "s2")],
    )
    a_star = aut(["a", "b"], ["A"], "A", ["A"], [("A", "a", "A")])
    b_star = aut(["a", "b"], ["B"], "B", ["B"], [("B", "b", "B")])
    return LinearLengthSpec(
        base=base, parts=(a_star, b_star, a_star),
        lengths=LinearSet.create((1, 2, 3), [(1, 2, 3)]), pair_cost=u,
    )


def test_criterion_09():
    """Linear-length pipeline against the split-enumeration oracle."""
    failures = []
    zero_u = PairCostFunction.create()
    diag_u = PairCostFunction.create({("a", "a"): 1.0, ("b", "b"): 1.0})

    e0 = linlen_energy(_abba_spec(zero_u)).energy
    if abs(e0) > 1e-6:
        failures.append(f"zero-cost energy {e0:.2e} != 0")

    e1 = linlen_energy(_abba_spec(diag_u)).energy
    series = linlen_word_oracle(_abba_spec(diag_u), 60)
    live = [r for (n, v), (_, r) in zip(series.values, series.rates) if v > 0.0]
    estimate = max(live[-12:])
    # the oracle's best rate at horizon 60 is (6n-3)/6n at n = 10, i.e.
    # exactly 0.95: the stated 0.05 tolerance is met with equality, so only
    # representation error is allowed on top
    if abs(estimate - e1) > 0.05 + 1e-9:
        failures.append(f"oracle estimate {estimate:.4f} vs energy {e1:.4f}")
    if abs(e1 - 1.0) > 0.05:
        failures.append(f"unit-diagonal energy {e1:.4f} != 1")

    cd_base = aut(
        ["c", "d"], ["t0", "t1", "t2"], "t0", ["t0", "t1", "t2"],
        [("t0", "c", "t0"), ("t0", "d", "t1"), ("t1", "d", "t1"),
         ("t1", "c", "t2"), ("t2", "c", "t2")],
    )
    c_star = aut(["c", "d"], ["A"], "A", ["A"], [("A", "c", "A")])
    d_star = aut(["c", "d"], ["B"], "B", ["B"], [("B", "d", "B")])
    relabeled = LinearLengthSpec(
        base=cd_base, parts=(c_star, d_star, c_star),
        lengths=LinearSet.create((1, 2, 3), [(1, 2, 3)]),
        pair_cost=PairCostFunction.create({("c", "c"): 1.0, ("d", "d"): 1.0}),
    )
    union = linlen_union_energy([_abba_spec(zero_u), relabeled])
    if abs(union - max(e0, 1.0)) > 1e-9:
        failures.append(f"union {union:.4f} is not the member max")

    record_criterion(9, not failures, "; ".join(failures) or "0 / 1 / oracle / union max")
    assert not failures


def test_criterion_10(branchy_nfa, dna_m1, dna_m2):
    """Property sweep: shifts, spectral invariances, idempotence, languages."""
    failures = []

    # the shift property is about matrix-entry scaling, so its domain is
    # fixtures whose energy comes from a cycle: loop-free components are
    # pinned at 0 by definition and cannot follow a shift
    shift_fixtures = [branching_costs(branchy_nfa), dna_m1, dna_m2]
    shift_fixtures += [random_strongly_connected(seed) for seed in range(7)]
    for i, a in enumerate(shift_fixtures):
        base = free_energy(a).energy
        for c in (-1.0, 0.5, 3.0):
            shifted = free_energy(a.with_costs(a.cost + c)).energy
            if abs(shifted - (base + c)) > 1e-8:
                failures.append(f"cost shift {c} off on fixture {i}")

    rng = np.random.default_rng(7)
    for _ in range(6):
        m = rng.uniform(0.0, 2.0, size=(4, 4))
        labels = ["w", "x", "y", "z"]
        r = spectral_radius(NonnegativeMatrix.create(m, labels)).radius
        scaled = spectral_radius(NonnegativeMatrix.create(3.0 * m, labels)).radius
        if abs(scaled - 3.0 * r) > 1e-6 * max(1.0, r):
            failures.append("scaling invariance off")
        perm = rng.permutation(4)
        pm = m[np.ix_(perm, perm)]
        permuted = spectral_radius(
            NonnegativeMatrix.create(pm, [labels[i] for i in perm])
        ).radius
        if abs(permuted - r) > 1e-6 * max(1.0, r):
            failures.append("permutation invariance off")

    for seed in range(25):
        a = random_automaton(seed)
        t = trim(a)
        again = trim(t)
        if again.states != t.states or set(again.transitions) != set(t.transitions):
            failures.append(f"trim not idempotent on seed {seed}")

    for seed in range(12):
        m = random_automaton(seed, max_states=5, costs="zero")
        det = determinize(m)
        if sorted(enum_words(m, 8)) != sorted(enum_words(det, 8)):
            failures.append(f"determinize changed the language on seed {seed}")
    for seed in range(6):
        x = random_automaton(seed, max_states=4, costs="zero")
        y = random_automaton(seed + 50, max_states=4, costs="zero")
        both = set(enum_words(x, 8)) & set(enum_words(y, 8))
        if sorted(enum_words(product(x, y), 8)) != sorted(both):
            failures.append(f"product language off on seed {seed}")

    record_criterion(10, not failures, "; ".join(failures) or "all property suites")
    assert not failures
