import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from gurevich import (
    CostAutomaton,
    NonnegativeMatrix,
    automaton_to_document,
    free_energy,
    save_document,
    spectral_radius,
)
from gurevich import energy as energy_mod
from gurevich import spectral as spectral_mod
from gurevich.spectral import block_radii
from gurevich.cli import main

from conftest import aut, chord_cycle, chord_log_root


def mat(entries, labels=None):
    arr = np.asarray(entries, dtype=float)
    if labels is None:
        labels = [f"n{i}" for i in range(arr.shape[0])]
    return NonnegativeMatrix.create(arr, labels)


def scale_check(m, c):
    """Radii of m and of c*m, for the scaling-linearity property tests."""
    scaled = NonnegativeMatrix(dim=m.dim, entries=m.entries * c, labels=m.labels)
    return spectral_radius(m), spectral_radius(scaled)


def random_positive(seed, dim=None):
    rng = random.Random(seed)
    d = dim or rng.randint(2, 6)
    return mat([[rng.uniform(0.01, 2.0) for _ in range(d)] for _ in range(d)])


class TestSpectralRadius:
    def test_antidiagonal_pair_costs(self):
        r = spectral_radius(mat([[0.0, math.e**2], [math.e**5, 0.0]]), 1e-12, 10**6)
        assert r.converged
        assert abs(r.radius - math.e**3.5) / math.e**3.5 < 1e-10

    def test_identity(self):
        r = spectral_radius(mat(np.eye(3)), 1e-12, 10**6)
        assert r.converged
        assert abs(r.radius - 1.0) < 1e-10

    def test_one_by_one(self):
        r = spectral_radius(mat([[math.exp(0.7)]]), 1e-12, 10**6)
        assert r.converged
        assert abs(r.radius - math.exp(0.7)) < 1e-10

    def test_all_zero(self):
        r = spectral_radius(mat(np.zeros((3, 3))), 1e-12, 10**6)
        assert r.converged
        assert r.radius == 0.0
        assert r.iterations == 0

    def test_not_converged_returned(self):
        r = spectral_radius(random_positive(3), 1e-14, 2)
        assert not r.converged
        assert r.radius >= 0.0

    def test_converged_residual_within_tolerance(self):
        for seed in range(8):
            r = spectral_radius(random_positive(seed), 1e-10, 10**6)
            assert r.converged
            assert r.residual <= 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            NonnegativeMatrix.create(np.array([[1.0, -0.1], [0.0, 1.0]]), ["x", "y"])
        with pytest.raises(ValueError):
            NonnegativeMatrix.create(np.ones((2, 2)), ["x", "x"])
        with pytest.raises(ValueError):
            NonnegativeMatrix.create(np.ones((2, 3)), ["x", "y"])


class TestScaleCheck:
    def test_permutation_doubled(self):
        r1, r2 = scale_check(mat([[0.0, 1.0], [1.0, 0.0]]), 2.0)
        assert abs(r1.radius - 1.0) < 1e-10
        assert abs(r2.radius - 2.0) < 1e-10

    def test_identity_scaling(self):
        m = random_positive(11)
        r1, r2 = scale_check(m, 1.0)
        assert abs(r1.radius - r2.radius) < 1e-9

    def test_zero_matrix(self):
        r1, r2 = scale_check(mat(np.zeros((2, 2))), 5.0)
        assert r1.radius == 0.0 and r2.radius == 0.0


class TestInvariants:
    def test_shift_by_identity(self):
        for seed in range(10):
            m = random_positive(seed)
            base = spectral_radius(m, 1e-12, 10**6)
            shifted = spectral_radius(
                NonnegativeMatrix.create(m.entries + np.eye(m.dim), m.labels),
                1e-12,
                10**6,
            )
            assert abs(shifted.radius - (base.radius + 1.0)) <= 10 * 1e-12 * max(1.0, base.radius + 1)

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_scaling(self, c):
        for seed in range(6):
            m = random_positive(seed * 13 + 1)
            r1, r2 = scale_check(m, c)
            assert abs(r2.radius - c * r1.radius) <= 10 * 1e-12 * max(1.0, c * r1.radius)

    def test_permutation_invariance(self):
        rng = random.Random(99)
        for seed in range(6):
            m = random_positive(seed)
            perm = list(range(m.dim))
            rng.shuffle(perm)
            p = np.zeros((m.dim, m.dim))
            for i, j in enumerate(perm):
                p[i, j] = 1.0
            pm = NonnegativeMatrix.create(p.T @ m.entries @ p, m.labels)
            r1 = spectral_radius(m, 1e-12, 10**6)
            r2 = spectral_radius(pm, 1e-12, 10**6)
            assert abs(r1.radius - r2.radius) <= 1e-9 * max(1.0, r1.radius)

    def test_analytic_antidiagonal(self):
        for b, c in [(1.0, 4.0), (0.3, 0.7), (math.e**2, math.e**5)]:
            exact = math.sqrt(b * c)
            r = spectral_radius(mat([[0.0, b], [c, 0.0]]), 1e-12, 10**6)
            assert abs(r.radius - exact) / exact <= 1e-10

    def test_analytic_circulant(self):
        # nonnegative circulant: Perron eigenvalue is the row sum
        row = [0.2, 1.3, 0.5, 0.0]
        d = len(row)
        entries = [[row[(j - i) % d] for j in range(d)] for i in range(d)]
        r = spectral_radius(mat(entries), 1e-12, 10**6)
        assert abs(r.radius - sum(row)) <= 1e-9

    def test_analytic_rank_one(self):
        u = np.array([1.0, 2.0, 0.5])
        v = np.array([0.3, 0.4, 2.0])
        exact = float(v @ u)
        r = spectral_radius(mat(np.outer(u, v)), 1e-12, 10**6)
        assert abs(r.radius - exact) / exact <= 1e-10

    def test_monotonicity(self):
        rng = random.Random(5)
        for seed in range(8):
            m = random_positive(seed)
            bumped = m.entries.copy()
            for _ in range(3):
                i, j = rng.randrange(m.dim), rng.randrange(m.dim)
                bumped[i, j] += rng.uniform(0.0, 1.0)
            r1 = spectral_radius(m, 1e-12, 10**6)
            r2 = spectral_radius(NonnegativeMatrix.create(bumped, m.labels), 1e-12, 10**6)
            assert r1.radius <= r2.radius + 10 * 1e-12

    def test_reducible_equal_blocks_converges(self):
        m = mat([[2.0, 0.0], [0.0, 2.0]])
        r = spectral_radius(m, 1e-10, 10**6)
        assert r.converged
        assert abs(r.radius - 2.0) <= 1e-8

    def test_reducible_unequal_blocks_honest_nonconvergence(self):
        # the ratio bounds of a diagonal matrix never contract: the
        # operation must return (not raise) with converged=False, per the
        # reducible-inputs contract
        m = mat([[0.5, 0.0], [0.0, 2.0]])
        r = spectral_radius(m, 1e-10, 100)
        assert not r.converged
        assert r.radius >= 0.0
        assert r.iterations == 100


def chord_matrix(n):
    """Zero-cost compact matrix of conftest's chord_cycle(n)."""
    entries = np.zeros((n, n))
    for i in range(n):
        entries[i, (i + 1) % n] = 1.0
    entries[0, 2] += 1.0
    return mat(entries)


class TestSolverSwitch:
    @pytest.mark.parametrize("n", [200, 1000])
    def test_chord_cycle_certified_within_2000_iterations(self, n):
        # power sweeps alone need about 1.8e5 sweeps at n = 200
        r = spectral_radius(chord_matrix(n), 1e-12, 2000)
        exact = math.exp(chord_log_root(n))
        assert r.converged
        assert r.method == "noda"
        assert abs(r.radius - exact) / exact <= 1e-10

    @pytest.mark.parametrize("dim", [8, 50, 400])
    def test_well_mixed_stays_on_power_sweeps(self, dim):
        for seed in range(4):
            r = spectral_radius(random_positive(seed, dim), 1e-12, 10**6)
            assert r.converged
            assert r.method == "power"

    def test_singular_shift_falls_back_to_power(self):
        # the upper bound is exactly the radius, so the first Noda system is
        # singular; power sweeps finish once the 0.5-coordinate underflows
        r = spectral_radius(mat([[0.5, 0.0], [0.0, 2.0]]), 1e-10, 5000)
        assert r.converged
        assert r.method == "power"
        assert r.radius == 2.0

    def test_rounding_stall_ends_noda_steps(self, monkeypatch):
        # 1e-16 is below what rounding lets the interval reach (about
        # 4.4e-16 here): once a Noda step stops lowering the upper bound, the
        # block takes no further LU solve and sweeps out its budget
        calls = []
        step = spectral_mod._noda_step

        def spy(*args):
            calls.append(args[0])
            return step(*args)

        monkeypatch.setattr(spectral_mod, "_noda_step", spy)
        r = spectral_radius(chord_matrix(50), 1e-16, 300)
        assert not r.converged
        assert r.method == "noda"
        assert r.iterations == 300
        assert 0 < len(calls) <= 20

    @pytest.mark.parametrize("failure", ["negative", "nan", "linalg-error"])
    def test_failed_solve_falls_back_to_power(self, monkeypatch, failure):
        calls = []

        def solve(b, v):
            calls.append(b.shape)
            if failure == "linalg-error":
                raise np.linalg.LinAlgError("Singular matrix")
            return -v if failure == "negative" else np.full_like(v, np.nan)

        monkeypatch.setattr(np.linalg, "solve", solve)
        r = spectral_radius(chord_matrix(12), 1e-12, 10**6)
        exact = math.exp(chord_log_root(12))
        assert calls == [(12, 12)]  # one attempt, then power sweeps only
        assert r.converged
        assert r.method == "power"
        assert abs(r.radius - exact) / exact <= 1e-10

    def test_certificate_relative_to_the_radius(self):
        # tiny radius: a certificate on radius + 1 would accept this far too early
        m = chord_matrix(10)
        small = NonnegativeMatrix.create(m.entries * 1e-30, m.labels)
        r = spectral_radius(small, 1e-12, 2000)
        exact = 1e-30 * math.exp(chord_log_root(10))
        assert r.converged
        assert abs(r.radius - exact) / exact <= 1e-10


class TestBlockRadii:
    def blocks(self):
        return [chord_matrix(40), random_positive(3, 5), mat([[math.exp(0.7)]]), chord_matrix(12),
                mat([[0.0, 4.0], [0.25, 0.0]])]

    def batch(self, matrices, tolerance, max_iterations):
        """block_radii of the block-diagonal matrix with these blocks."""
        offsets = np.cumsum([0] + [m.dim for m in matrices])
        rows, cols = zip(*(np.nonzero(m.entries) for m in matrices))
        values = np.concatenate([m.entries[r, c] for m, r, c in zip(matrices, rows, cols)])
        rows = np.concatenate([r + o for r, o in zip(rows, offsets)])
        cols = np.concatenate([c + o for c, o in zip(cols, offsets)])
        dims = np.array([m.dim for m in matrices])
        return block_radii(dims, rows, cols, values, tolerance, max_iterations)

    def test_each_block_as_if_solved_alone(self):
        # same sweeps, same Noda hand-off, same certificate as one solve per block
        matrices = self.blocks()
        for got, m in zip(self.batch(matrices, 1e-12, 10**6), matrices):
            want = spectral_radius(m, 1e-12, 10**6)
            assert got.converged and got.residual <= 1e-12
            assert (got.iterations, got.method) == (want.iterations, want.method)
            assert abs(got.radius - want.radius) <= 1e-12 * want.radius
        assert [r.method for r in self.batch(matrices, 1e-12, 10**6)][0] == "noda"

    def test_iteration_budget_per_block(self):
        matrices = self.blocks()
        results = self.batch(matrices, 1e-12, 3)
        assert [r.converged for r in results] == [False, False, True, False, True]
        for got, m in zip(results, matrices):
            want = spectral_radius(m, 1e-12, 3)
            assert (got.converged, got.iterations) == (want.converged, want.iterations)
            assert got.converged or got.residual > 1e-12


class TestSlowComponentForms:
    def test_compact_and_bipartite_agree_on_slow_chord(self):
        # the bipartite matrix is periodic (period 2) as well as slow-mixing
        a = chord_cycle(150, -0.7)
        compact = free_energy(a, form="compact")
        bipartite = free_energy(a, form="bipartite")
        assert abs(compact.energy - bipartite.energy) <= 1e-9
        assert abs(compact.energy - (-0.7 + chord_log_root(150))) <= 1e-9


class TestExtremeCostsThroughCli:
    @pytest.mark.parametrize("cost", [-800.0, 800.0])
    def test_chord_energy_outside_the_double_range(self, tmp_path, capsys, cost):
        path = str(tmp_path / "chord.json")
        save_document(path, automaton_to_document(chord_cycle(60, cost)))
        assert main(["energy", path, "--json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        doc = json.loads(out)
        assert abs(doc["energy"] - (cost + chord_log_root(60))) <= 1e-9
        assert main(["energy", path]) == 0
        out, _ = capsys.readouterr()
        assert out == f"energy {cost + chord_log_root(60):.6f}\n"


def ring_automaton(n, seed):
    """The ring with edges i -> i+1 and i -> i+2 (mod n), weights U(0.5, 1.5):
    a diffusive component on which Noda steps start far from the root."""
    rng = random.Random(seed)
    states = [str(i) for i in range(n)]
    transitions = [
        (states[i], sym, states[(i + step) % n], math.log(rng.uniform(0.5, 1.5)))
        for i in range(n)
        for sym, step in (("a", 1), ("b", 2))
    ]
    return aut(["a", "b"], states, "0", states, transitions)


def brackets_the_radius(a, radius, margin):
    """Whether rho(a) lies in radius * (1 -+ margin): for irreducible a,
    (s I - a)^-1 1 is positive exactly when s is above rho(a)."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import spsolve

    def positive(s):
        y = spsolve((s * identity(a.shape[0], format="csr") - a).tocsc(), np.ones(a.shape[0]))
        return bool(np.all(y > 0.0))

    return positive(radius * (1.0 + margin)) and not positive(radius * (1.0 - margin))


class TestSparseSolver:
    """Blocks above the dense dimension take their Noda steps on scipy's
    sparse LU."""

    @pytest.fixture
    def solved(self, monkeypatch):
        """The matrix free_energy hands to block_radii, as CSR, with its
        result, and the shapes of the systems that splu factors."""
        import scipy.sparse.linalg
        from scipy.sparse import csr_matrix

        calls = {"batch": [], "splu": []}
        real_splu = scipy.sparse.linalg.splu

        def batch(dims, rows, cols, values, *args):
            results = block_radii(dims, rows, cols, values, *args)
            size = int(sum(dims))
            m = csr_matrix((values, (rows, cols)), shape=(size, size))
            calls["batch"].append((m, results))
            return results

        def splu(b):
            calls["splu"].append(b.shape)
            return real_splu(b)

        monkeypatch.setattr(energy_mod, "block_radii", batch)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
        return calls

    def test_chord_cycle_certified_on_csr(self, solved):
        rep = free_energy(chord_cycle(1000, 0.0))
        (m, (result,)), = solved["batch"]
        assert m.shape == (1000, 1000)
        assert result.converged and result.method == "noda"
        assert solved["splu"] and set(solved["splu"]) == {(1000, 1000)}
        assert abs(rep.energy - chord_log_root(1000)) <= 1e-10

    def test_diffusive_ring_certified_on_csr(self, solved):
        rep = free_energy(ring_automaton(1500, 7))
        (m, (result,)), = solved["batch"]
        assert result.converged and result.method == "noda"
        assert result.iterations <= 100
        assert set(solved["splu"]) == {(1500, 1500)}
        assert brackets_the_radius(m, math.exp(rep.energy), 1e-10)

    @pytest.mark.parametrize("failure", ["singular", "memory", "negative", "nan"])
    def test_failed_sparse_solve_falls_back_to_power(self, monkeypatch, failure):
        import scipy.sparse.linalg

        calls = []

        class Factor:
            def solve(self, v):
                return -v if failure == "negative" else np.full_like(v, np.nan)

        def splu(b):
            calls.append(b.shape)
            if failure == "singular":
                raise RuntimeError("Factor is exactly singular")
            if failure == "memory":
                raise MemoryError
            return Factor()

        monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
        # above the dense dimension; the gap between 1 and the other
        # diagonal entries is wide enough for power sweeps alone to
        # finish, and narrow enough that they stall into a Noda step first
        dim = 200
        assert dim > spectral_mod._DENSE_DIM
        entries = np.full((dim, dim), 1e-4)
        entries[np.diag_indices(dim)] += np.r_[np.full(dim - 1, 0.9), 1.0]
        exact = max(np.linalg.eigvals(entries).real)
        r = spectral_radius(NonnegativeMatrix(dim=dim, entries=entries), 1e-12, 10**6)
        assert calls == [(dim, dim)]  # one attempt, then power sweeps only
        assert r.converged
        assert r.method == "power"
        assert abs(r.radius - exact) / exact <= 1e-10

    def test_memory_grows_with_transitions(self):
        # one dense matrix of this automaton would take 20000^2 * 8 B = 3.2 GB
        rng = random.Random(11)
        n = 20000
        states = [f"q{i}" for i in range(n)]
        transitions = {
            (states[i], rng.choice("ab"), states[rng.randrange(n)]) for i in range(n) for _ in range(8)
        }
        a = CostAutomaton.create(
            ["a", "b"], states, states[0], states,
            [(p, x, q, rng.uniform(-1.0, 1.0)) for p, x, q in sorted(transitions)],
        )
        tracemalloc.start()
        try:
            rep = free_energy(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.solver[rep.max_component].converged
        assert peak < 100 * 2**20
