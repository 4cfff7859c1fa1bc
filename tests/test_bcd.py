import itertools
import re

import numpy as np
import pytest

import dpoqubo.backends as backends_mod
from dpoqubo.backends import (
    ExhaustiveSolver,
    FinitePrecisionAdapter,
    SimulatedAnnealingSolver,
    SolveRequest,
    TabuSolver,
    make_backend,
)
from dpoqubo.bcd import (
    BcdBackendError,
    BcdConfig,
    bcd_solve,
    extract_subproblem,
    solve_block,
    write_back,
)
from dpoqubo.market import compute_returns, load_bundled_prices
from dpoqubo.model import DpoConfig, encode_qubo
from dpoqubo.qubo import BlockPartition, Qubo, qubo_energy


def with_default_effort(solver_class, **defaults):
    """A solver whose default effort is ``defaults``; BCD's own requests carry
    no effort, so a short search is chosen this way."""
    return type(solver_class.__name__, (solver_class,), defaults)()


def tridiagonal_qubo(seed, sizes, scale=1.0, coupling=0.5):
    """Random block tridiagonal model over the given block sizes."""
    rng = np.random.default_rng(seed)
    part = BlockPartition.from_sizes(sizes)
    n = part.n
    m = np.zeros((n, n))
    for k, (a, b) in enumerate(part.blocks):
        block = rng.normal(size=(b - a, b - a)) * scale
        m[a:b, a:b] = (block + block.T) / 2.0
        if k + 1 < len(part.blocks):
            c, d = part.blocks[k + 1]
            cross = rng.normal(size=(b - a, d - c)) * coupling
            m[a:b, c:d] = cross
            m[c:d, a:b] = cross.T
    return Qubo(m, partition=part)


class TestExtractSubproblem:
    def test_zero_context_leaves_block_matrix(self):
        q = tridiagonal_qubo(0, [3, 3, 3])
        x = np.zeros(9, dtype=int)
        sub = extract_subproblem(q, x, 1)
        a, b = q.partition.blocks[1]
        np.testing.assert_array_equal(sub.coeffs, q.coeffs[a:b, a:b])

    def test_single_block_degenerates_to_global(self):
        rng = np.random.default_rng(1)
        q = Qubo.from_dense(rng.normal(size=(5, 5)), partition=BlockPartition.from_sizes([5]))
        sub = extract_subproblem(q, np.zeros(5, dtype=int), 0)
        np.testing.assert_array_equal(sub.coeffs, q.coeffs)

    @pytest.mark.parametrize("block", [0, 1, 2])
    def test_energy_delta_identity_exhaustive(self, block):
        q = tridiagonal_qubo(7, [4, 4, 4])
        rng = np.random.default_rng(3)
        x = rng.integers(0, 2, size=12)
        sub = extract_subproblem(q, x, block)
        sl = q.partition.block_slice(block)
        base_local = qubo_energy(sub, x[sl])
        base_global = qubo_energy(q, x)
        for y in itertools.product([0, 1], repeat=4):
            trial = x.copy()
            trial[sl] = y
            expected = qubo_energy(q, trial) - base_global
            got = qubo_energy(sub, np.array(y)) - base_local
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_index_out_of_range(self):
        q = tridiagonal_qubo(0, [2, 2])
        with pytest.raises(IndexError):
            extract_subproblem(q, np.zeros(4, dtype=int), 2)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_index_outside_partition_names_it(self, index):
        q = tridiagonal_qubo(0, [2, 2])
        with pytest.raises(IndexError, match=re.escape(f"block index {index} out of range (m=2)")):
            extract_subproblem(q, np.zeros(4, dtype=int), index)

    def test_requires_partition(self):
        q = Qubo(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="partition"):
            extract_subproblem(q, np.zeros(4, dtype=int), 0)


class TestSolveBlock:
    def test_exact_backend_single_run(self):
        q = tridiagonal_qubo(5, [4, 4])
        x = np.zeros(8, dtype=int)
        sub = extract_subproblem(q, x, 0)
        y, _ = solve_block(sub, ExhaustiveSolver(), BcdConfig(repeats_per_block=1), 0)
        best = min(
            itertools.product([0, 1], repeat=4),
            key=lambda b: qubo_energy(sub, np.array(b)),
        )
        assert qubo_energy(sub, y) == pytest.approx(qubo_energy(sub, np.array(best)))

    def test_diagonal_sign_rule(self):
        part = BlockPartition.from_sizes([2])
        q = Qubo(np.diag([-1.0, 2.0]), partition=part)
        sub = extract_subproblem(q, np.zeros(2, dtype=int), 0)
        y, _ = solve_block(sub, ExhaustiveSolver(), BcdConfig(), 0)
        assert y.tolist() == [1, 0]

    def test_min_of_runs(self):
        q = tridiagonal_qubo(11, [10], scale=2.0)
        sub = extract_subproblem(q, np.zeros(10, dtype=int), 0)
        backend = with_default_effort(SimulatedAnnealingSolver, sweeps=5)  # weak on purpose
        y, _ = solve_block(sub, backend, BcdConfig(repeats_per_block=3), 40)
        chosen = qubo_energy(sub, y)
        for run in range(3):
            single, _ = solve_block(sub, backend, BcdConfig(repeats_per_block=1), 40 + run)
            assert chosen <= qubo_energy(sub, single) + 1e-12


class TestWriteBack:
    def test_identical_solution_is_noop(self):
        part = BlockPartition.from_sizes([2, 3])
        x = np.array([1, 0, 1, 1, 0])
        out = write_back(x, part, 1, [1, 1, 0])
        np.testing.assert_array_equal(out, x)

    def test_single_bit_flip(self):
        part = BlockPartition.from_sizes([2, 3])
        x = np.array([1, 0, 1, 1, 0])
        out = write_back(x, part, 1, [1, 0, 0])
        assert int((out != x).sum()) == 1
        assert out[3] == 0

    def test_sequential_writes_do_not_disturb_earlier_blocks(self):
        part = BlockPartition.from_sizes([3, 3, 3])
        rng = np.random.default_rng(8)
        x = rng.integers(0, 2, size=9)
        first = rng.integers(0, 2, size=3)
        x1 = write_back(x, part, 0, first)
        x2 = write_back(x1, part, 1, rng.integers(0, 2, size=3))
        x3 = write_back(x2, part, 2, rng.integers(0, 2, size=3))
        np.testing.assert_array_equal(x3[0:3], first)

    def test_length_mismatch(self):
        part = BlockPartition.from_sizes([2, 2])
        with pytest.raises(ValueError, match="length"):
            write_back(np.zeros(4, dtype=int), part, 0, [1, 0, 1])

    def test_input_not_mutated(self):
        part = BlockPartition.from_sizes([2])
        x = np.array([0, 0])
        write_back(x, part, 0, [1, 1])
        assert x.tolist() == [0, 0]

    @pytest.mark.parametrize("index", [-1, 2])
    def test_index_outside_partition_names_it(self, index):
        # -1 must not wrap around to the last block
        part = BlockPartition.from_sizes([2, 2])
        with pytest.raises(IndexError, match=re.escape(f"block index {index} out of range (m=2)")):
            write_back(np.zeros(4, dtype=int), part, index, [1, 1])


class TestBcdConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("global_iters", 2.5, "global_iters must be an integer"),
            ("global_iters", 0, "global_iters must be >= 1"),
            ("repeats_per_block", True, "repeats_per_block must be an integer"),
            ("repeats_per_block", 0, "repeats_per_block must be >= 1"),
            ("seed", -5, "seed must be >= 0"),
            ("seed", "1", "seed must be an integer"),
        ],
    )
    def test_counts_taken_exactly_or_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            BcdConfig(**{field: value})

    def test_integral_floats_taken_as_ints(self):
        cfg = BcdConfig(global_iters=2.0, repeats_per_block=1.0, seed=3.0)
        values = (cfg.global_iters, cfg.repeats_per_block, cfg.seed)
        assert values == (2, 1, 3) and all(type(v) is int for v in values)


class TestBcdSolve:
    def test_diagonal_model_one_sweep_optimal(self):
        diag = np.array([-1.0, 3.0, -2.0, 0.5, -4.0, 1.0])
        q = Qubo(np.diag(diag), partition=BlockPartition.from_sizes([2, 2, 2]))
        result = bcd_solve(q, ExhaustiveSolver(), BcdConfig(global_iters=1))
        assert result.assignment.tolist() == [1, 0, 1, 0, 1, 0]
        assert result.energy == pytest.approx(diag[diag < 0].sum())

    def test_monotone_energy_trace(self):
        q = tridiagonal_qubo(13, [4, 4, 4], scale=2.0)
        result = bcd_solve(
            q,
            with_default_effort(SimulatedAnnealingSolver, sweeps=10),
            BcdConfig(global_iters=3, seed=5),
        )
        energies = [result.trace[0].pre_energy] + [r.post_energy for r in result.trace]
        assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))

    def test_trace_delta_matches_local_improvement(self):
        q = tridiagonal_qubo(17, [3, 3, 3])
        result = bcd_solve(q, ExhaustiveSolver(), BcdConfig(global_iters=2))
        for record in result.trace:
            delta = record.post_energy - record.pre_energy
            if record.accepted:
                assert delta < 1e-12
            else:
                assert delta == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_blockwise_optimal_with_exact_backend(self, seed):
        q = tridiagonal_qubo(seed, [4, 4, 4], scale=1.5)
        result = bcd_solve(
            q,
            ExhaustiveSolver(),
            BcdConfig(global_iters=20),
        )
        x = result.assignment
        for i in range(len(q.partition)):
            sl = q.partition.block_slice(i)
            for y in itertools.product([0, 1], repeat=sl.stop - sl.start):
                trial = np.array(x)
                trial[sl] = y
                assert qubo_energy(q, trial) >= result.energy - 1e-9

    def test_global_minimizer_is_fixed_point(self):
        q = tridiagonal_qubo(23, [3, 3], scale=1.0)
        opt = ExhaustiveSolver().solve(SolveRequest(model=q)).assignment
        for i in range(len(q.partition)):
            sub = extract_subproblem(q, opt, i)
            sl = q.partition.block_slice(i)
            y, _ = solve_block(sub, ExhaustiveSolver(), BcdConfig(), 0)
            # the acceptance rule keeps opt unless a candidate is strictly lower
            assert not qubo_energy(sub, y) < qubo_energy(sub, opt[sl])

    def test_default_protocol_counts(self):
        cfg = BcdConfig()
        assert cfg.global_iters == 3
        assert cfg.repeats_per_block == 3
        q = tridiagonal_qubo(3, [2, 2, 2])
        result = bcd_solve(q, ExhaustiveSolver(), cfg)
        assert len(result.trace) == 3 * 3  # J iterations x m blocks

    def test_seed_schedule_distinct_per_visit(self):
        q = tridiagonal_qubo(4, [2, 2])
        cfg = BcdConfig(global_iters=2, repeats_per_block=3, seed=100)
        result = bcd_solve(q, ExhaustiveSolver(), cfg)
        seeds = [r.seed for r in result.trace]
        assert seeds == [100, 103, 106, 109]

    def test_deterministic_given_seed(self):
        q = tridiagonal_qubo(31, [4, 4, 4], scale=2.0)
        backend = with_default_effort(TabuSolver, iterations=50)
        cfg = BcdConfig(seed=9)
        a = bcd_solve(q, backend, cfg)
        b = bcd_solve(q, backend, cfg)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.energy == b.energy

    @pytest.mark.parametrize("name", ["exhaustive", "sa", "tabu", "int8(tabu)"])
    def test_one_config_one_trace(self, name):
        q = tridiagonal_qubo(37, [3, 3, 3], scale=2.0)
        cfg = BcdConfig(global_iters=2, seed=4)
        a, b = (bcd_solve(q, make_backend(name), cfg) for _ in range(2))
        assert len(a.trace) == 6
        assert a.trace == b.trace

    def test_backend_failure_attaches_partial_trace(self):
        class FlakyBackend:
            name = "flaky"

            def __init__(self):
                self.calls = 0

            def solve(self, request):
                self.calls += 1
                if self.calls > 4:
                    raise RuntimeError("gone")
                return ExhaustiveSolver().solve(request)

        q = tridiagonal_qubo(2, [2, 2, 2])
        with pytest.raises(BcdBackendError, match="block 2: gone") as err:
            bcd_solve(q, FlakyBackend(), BcdConfig(repeats_per_block=2))
        assert err.value.block_index == 2
        assert len(err.value.partial_trace) == 2

    def test_starts_from_all_zeros(self):
        q = tridiagonal_qubo(6, [3, 3])
        result = bcd_solve(q, ExhaustiveSolver(), BcdConfig())
        assert result.trace[0].pre_energy == qubo_energy(q, np.zeros(6, dtype=int))


def count_tuning_and_quantizing(monkeypatch) -> dict:
    """Count the adapter's calls to the tuner and the quantizer."""
    counts = {}
    for name in ("reduce_dynamic_range", "quantize_int8"):
        counts[name] = 0
        original = getattr(backends_mod, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(backends_mod, name, counted)
    return counts


class _QuantizeEveryRepeat(FinitePrecisionAdapter):
    """An adapter that never reuses a quantized model."""

    def quantize(self, model):
        return FinitePrecisionAdapter(self.inner).quantize(model)


class TestOneQuantizationPerVisit:
    @pytest.fixture(scope="class")
    def model(self):
        # the release gate's 48-bit model: 2 blocks of 24 bits
        config = DpoConfig(n_t=2)
        return encode_qubo(config, compute_returns(load_bundled_prices(), config.n_t, config.dt))

    def test_each_visit_tunes_and_quantizes_once(self, model, monkeypatch):
        counts = count_tuning_and_quantizing(monkeypatch)
        result = bcd_solve(model, make_backend("int8(tabu)"), BcdConfig(repeats_per_block=3))
        visits = len(result.trace)
        assert visits == 6
        assert counts == {"reduce_dynamic_range": visits, "quantize_int8": visits}

    def test_quantized_model_keeps_the_partition(self, model):
        # tuning accepts a step on this model, and a tuned model keeps it
        assert FinitePrecisionAdapter(TabuSolver()).quantize(model).partition == model.partition

    def test_same_result_as_quantizing_every_repeat(self, model, monkeypatch):
        cfg = BcdConfig(repeats_per_block=3)
        shared = bcd_solve(model, make_backend("int8(tabu)"), cfg)
        counts = count_tuning_and_quantizing(monkeypatch)
        fresh = bcd_solve(model, _QuantizeEveryRepeat(TabuSolver()), cfg)
        assert counts["quantize_int8"] == 3 * len(fresh.trace)
        np.testing.assert_array_equal(shared.assignment, fresh.assignment)
        assert shared.energy == fresh.energy
        assert shared.trace == fresh.trace
