"""Self-tests of the benchmark: every reference against brute-force
enumeration on tiny instances, and seeded generation.

Run from the repository root with ``python -m pytest -q bench/tests``.
"""

import filecmp
import math
import os
import random

import numpy as np
import pytest

import reference as ref
import workloads as W


def enumerate_runs(g: W.Graph, length: int, starts, finals) -> float:
    """Sum of e^(run cost) over explicit runs of ``length`` edges."""
    out = {}
    for s, t, c in zip(g.src, g.dst, g.cost):
        out.setdefault(s, []).append((t, c))
    finals = set(finals)
    total = 0.0
    stack = [(q, 0, 0.0) for q in starts]
    while stack:
        q, k, cost = stack.pop()
        if k == length:
            total += math.exp(cost) if q in finals else 0.0
            continue
        for t, c in out.get(q, ()):
            stack.append((t, k + 1, cost + c))
    return total


def enumerate_words(g: W.Graph, pair, length: int) -> float:
    """Sum over accepted words of ``length`` symbols of e^(sum of pair costs)."""
    step = {(s, a): t for s, a, t in zip(g.src, g.sym, g.dst)}
    finals = set(g.final)
    total = 0.0
    stack = [(g.initial, ())]
    while stack:
        q, word = stack.pop()
        if len(word) == length:
            if q in finals:
                total += math.exp(sum(pair[a][b] for a, b in zip(word, word[1:])))
            continue
        for a in range(g.n_sym):
            if (q, a) in step:
                stack.append((step[(q, a)], word + (a,)))
    return total


def count_walks(g: W.Graph, length: int) -> int:
    """Exact number of walks of ``length`` edges, from every state, as a Python int."""
    v = [1] * g.n
    for _ in range(length):
        nxt = [0] * g.n
        for s, t in zip(g.src, g.dst):
            nxt[t] += v[s]
        v = nxt
    return sum(v)


@pytest.mark.parametrize("n", [4, 5, 7])
def test_chord_root_matches_enumerated_growth(n):
    g = W.chord_cycle(n, 0.0, chord_symbol=1)
    every = range(n)
    for length in (1, 5, 12, 20):  # the exact counter agrees with explicit runs
        assert count_walks(g, length) == enumerate_runs(g, length, every, every)
    x = ref.chord_log_root(n)
    growth = math.log(count_walks(g, 2001) / count_walks(g, 2000))
    assert growth == pytest.approx(x, abs=1e-9)
    adjacency = ref.weight_matrix(n, g.src, g.dst, g.cost).toarray()
    assert math.log(max(abs(np.linalg.eigvals(adjacency)))) == pytest.approx(x, abs=1e-12)


def test_chord_root_reference_value():
    assert ref.chord_log_root(100) == pytest.approx(0.006966364289, abs=1e-12)


def test_chord_root_half_weight():
    # the branching chord doubles both return weights: 2r^-n + 2r^-(n-1) = 1
    n = 6
    x = ref.chord_log_root(n, 0.5)
    assert 2 * math.exp(-n * x) + 2 * math.exp(-(n - 1) * x) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("c", [0.0, 0.7, 1.3])
def test_linlen_series_matches_enumeration(c):
    horizon = 13
    sums = [0.0] * horizon
    for length in range(1, horizon + 1):
        for bits in range(2 ** length):
            word = "".join("ab"[(bits >> i) & 1] for i in range(length))
            n = length // 6
            if length % 6 or word != "a" * n + "b" * 2 * n + "a" * 3 * n:
                continue
            cost = sum(c for x, y in zip(word, word[1:]) if x == y)
            sums[length - 1] += math.exp(cost)
    want = ref.linlen_abba_series(c, horizon)
    assert sums == pytest.approx(want, rel=1e-12)


def test_uniform_run_series_matches_enumeration():
    rng = random.Random(3)
    g = W.regular_graph(rng, 5, 2, cost=-0.4)
    every = range(g.n)
    brute = [enumerate_runs(g, k, every, every) for k in range(1, 8)]
    assert brute == pytest.approx(ref.uniform_run_series(5, 2, -0.4, 7), rel=1e-12)


def test_uniform_word_series_matches_enumeration():
    rng = random.Random(4)
    g = W.complete_dfa(rng, 4, 3)
    u = -0.9
    pair = [[u] * 3 for _ in range(3)]
    brute = [enumerate_words(g, pair, k) for k in range(1, 7)]
    assert brute == pytest.approx(ref.uniform_word_series(3, u, 6), rel=1e-12)


def test_run_series_matches_enumeration():
    rng = random.Random(5)
    g = W.random_graph(rng, 6, 3, 2)
    every = range(g.n)
    brute_all = [enumerate_runs(g, k, every, every) for k in range(1, 7)]
    assert ref.run_series(g.n, g.src, g.dst, g.cost, 6) == pytest.approx(brute_all, rel=1e-12)
    finals = [1, 4]
    brute_acc = [enumerate_runs(g, k, [0], finals) for k in range(1, 7)]
    got = ref.run_series(g.n, g.src, g.dst, g.cost, 6, initial=0, accepting=finals)
    assert got == pytest.approx(brute_acc, rel=1e-12)


def test_word_series_matches_enumeration():
    rng = random.Random(6)
    g = W.complete_dfa(rng, 5, 3)
    g.accepting = [0, 2, 3]
    pair = [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)]
    brute = [enumerate_words(g, pair, k) for k in range(1, 7)]
    got = ref.word_series(g.n, 3, g.src, g.sym, g.dst, pair, g.initial, g.final, 6)
    assert got == pytest.approx(brute, rel=1e-12)


def test_max_log_radius_is_the_run_growth_rate():
    rng = random.Random(7)
    g = W.random_graph(rng, 8, 3, 2)
    sums = ref.run_series(g.n, g.src, g.dst, g.cost, 400)
    assert math.log(sums[-1] / sums[-2]) == pytest.approx(
        ref.max_log_radius(g.n, g.src, g.dst, g.cost), abs=1e-9)


def test_chain_components_are_counted_and_maximized():
    rng = random.Random(8)
    g = W.chain_of_cycles(rng, 5)
    m = ref.weight_matrix(g.n, g.src, g.dst, g.cost)
    assert ref.component_count(m) == 5
    dense = m.toarray()
    per_block = [
        math.log(max(abs(np.linalg.eigvals(dense[3 * c:3 * c + 3, 3 * c:3 * c + 3]))))
        for c in range(5)
    ]
    assert sorted(ref.component_log_radii(m)) == pytest.approx(sorted(per_block), abs=1e-12)


def test_product_of_coprime_cycles_reaches_every_pair():
    rng = random.Random(9)
    g1 = W.random_graph(rng, 5, 2, 2, deterministic=True, cycle_symbol=0)
    g2 = W.random_graph(rng, 6, 2, 2, deterministic=True, cycle_symbol=0)
    assert W.product_graph(g1, g2).n == 30


def _files(root):
    return sorted(os.listdir(root))


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_gives_byte_identical_documents(workload, tmp_path):
    dirs = [tmp_path / name for name in ("first", "second", "other")]
    for d, seed in zip(dirs, (11, 11, 12)):
        d.mkdir()
        W.build(workload, seed, str(d))
    names = _files(dirs[0])
    assert names == _files(dirs[1]) == _files(dirs[2])
    match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
    assert mismatch == [] and errors == []
    _, differ, _ = filecmp.cmpfiles(dirs[0], dirs[2], names, shallow=False)
    assert differ, "another seed should give other documents"


def test_reported_metrics_match_benchmark_json():
    import json

    import run
    import tracing

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    layers = run.layer_metrics(tracing.pass_totals([]), tracing.alloc_peaks([]), 0.0, 0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: m["unit"] for name, m in layers.items()}
    e2e = run.end_to_end_metrics([run.Pass([1.0], 0.001)], 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in e2e.items()}
