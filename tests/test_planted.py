"""Tests for the scale-separated planted instances."""

import re

import numpy as np
import pytest

from dpoqubo.backends import ExhaustiveSolver, FinitePrecisionAdapter, SolveRequest
from dpoqubo.bcd import BcdConfig, bcd_solve, extract_subproblem
from dpoqubo.planted import make_scale_separated_qubo
from dpoqubo.precision import quantization_loss_report, quantize_int8
from dpoqubo.qubo import (
    qubo_energy,
    qubo_to_ising,
    scale_separation_report,
    verify_block_tridiagonal,
)


class TestConstruction:
    def test_shape_and_partition(self):
        inst = make_scale_separated_qubo(0)
        assert inst.qubo.n == 12
        assert inst.qubo.partition.sizes == (4, 4, 4)

    def test_block_tridiagonal(self):
        ok, offenders = verify_block_tridiagonal(make_scale_separated_qubo(3).qubo)
        assert ok, offenders

    def test_scale_ratio_below_int8_cliff(self):
        for seed in range(5):
            rep = scale_separation_report(make_scale_separated_qubo(seed).qubo)
            assert rep.ratio < 1.0 / 255.0

    def test_rho_schedule_is_geometric(self):
        inst = make_scale_separated_qubo(1, rho=2.0, growth=10.0)
        assert inst.rho_schedule == (2.0, 20.0, 200.0)

    def test_budget_is_half_of_representable(self):
        inst = make_scale_separated_qubo(0)
        cfg = inst.config
        assert cfg.budget * 2 == cfg.n_a * (2**cfg.n_r - 1)

    def test_budget_fields_vanish_in_spin_form(self):
        # with the budget at half the representable total, the spin-space
        # fields carry only the (small) return and turnover contributions
        inst = make_scale_separated_qubo(4)
        ising = qubo_to_ising(inst.qubo)
        top_coupling = np.abs(ising.quadratic).max()
        assert np.abs(ising.linear).max() < 0.1 * top_coupling

    def test_energy_matches_score_on_feasible_point(self):
        # hand-score one feasible allocation: gross return negated plus
        # turnover penalty; budget penalty is zero when every step hits K
        inst = make_scale_separated_qubo(7)
        cfg = inst.config
        w = np.array([[3, 0], [0, 3], [3, 0]])
        x = np.zeros(12, dtype=np.int8)
        for t in range(3):
            for a in range(2):
                for r in range(2):
                    x[cfg.bit_index(t, a, r)] = (w[t, a] >> r) & 1
        gross = float((w * inst.interval_returns).sum())
        prev = np.vstack([np.zeros(2), w[:-1]])
        turnover = 1e-3 * 1.0 * float(((w - prev) ** 2).sum())
        assert qubo_energy(inst.qubo, x) == pytest.approx(-gross + turnover, rel=1e-12)

    @pytest.mark.parametrize("rho", [1.0, 0.3, 7.0])
    def test_energy_matches_config_score(self, rho):
        # the config's nu * lam is the turnover weight the QUBO charges, and
        # rho_schedule the per-interval budget weights, at any point
        inst = make_scale_separated_qubo(5, rho=rho)
        cfg = inst.config
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = rng.integers(0, 2, size=inst.qubo.n)
            w = inst.decode(x).weights.astype(float)
            gross = float((w * inst.interval_returns).sum())
            prev = np.vstack([np.zeros(cfg.n_a), w[:-1]])
            turnover = cfg.nu * cfg.lam * float(((w - prev) ** 2).sum())
            budget = float(np.dot(inst.rho_schedule, (w.sum(axis=1) - cfg.budget) ** 2))
            expected = -(gross - turnover - budget)
            assert qubo_energy(inst.qubo, x) == pytest.approx(expected, rel=1e-12)

    def test_odd_representable_total_rejected(self):
        with pytest.raises(ValueError):
            make_scale_separated_qubo(0, n_a=3)

    def test_single_interval_rejected(self):
        with pytest.raises(ValueError):
            make_scale_separated_qubo(0, n_t=1)

    def test_flat_growth_rejected(self):
        with pytest.raises(ValueError):
            make_scale_separated_qubo(0, growth=1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"rho": -1}, "rho must be > 0, got -1.0"),
        ({"rho": float("nan")}, "rho must be finite, got nan"),
        ({"growth": float("nan")}, "growth must be finite, got nan"),
        ({"growth": float("inf")}, "growth must be finite, got inf"),
        ({"growth": "20"}, "growth must be a number, got '20'"),
    ])
    def test_bad_argument_named(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make_scale_separated_qubo(**{"seed": 0, **kwargs})

    def test_seed_determinism(self):
        a = make_scale_separated_qubo(11)
        b = make_scale_separated_qubo(11)
        assert np.array_equal(a.qubo.coeffs, b.qubo.coeffs)
        assert a.qubo.offset == b.qubo.offset

    def test_seeds_vary_returns(self):
        a = make_scale_separated_qubo(1)
        b = make_scale_separated_qubo(2)
        assert not np.array_equal(a.interval_returns, b.interval_returns)


class TestQuantizationContrast:
    """The failure mode these instances are planted to expose."""

    def test_whole_model_quantization_zeroes_every_inter_coupling(self):
        for seed in range(10):
            inst = make_scale_separated_qubo(seed)
            ising = qubo_to_ising(inst.qubo)
            loss = quantization_loss_report(ising, quantize_int8(ising))
            part = inst.qubo.partition
            labels = np.concatenate(
                [np.full(sl.stop - sl.start, k) for k, sl in enumerate(map(part.block_slice, range(len(part))))]
            )
            inter = labels[:, None] != labels[None, :]
            nonzero_inter = np.count_nonzero(ising.quadratic[inter]) // 2
            assert nonzero_inter > 0
            assert loss.zeroed_inter == nonzero_inter

    def test_whole_model_quantization_flattens_weakest_block(self):
        inst = make_scale_separated_qubo(0)
        qm = quantize_int8(qubo_to_ising(inst.qubo))
        sl = inst.qubo.partition.block_slice(0)
        assert not qm.linear[sl].any()
        assert not qm.quadratic[sl, sl].any()

    def test_global_int8_solve_breaks_budget(self):
        hits = 0
        for seed in range(10):
            inst = make_scale_separated_qubo(seed)
            adapter = FinitePrecisionAdapter(ExhaustiveSolver())
            res = adapter.solve(SolveRequest(inst.qubo, seed=0))
            sums = inst.decode(res.assignment).invested_per_step()
            if not np.all(sums == inst.config.budget):
                hits += 1
        assert hits >= 9

    def test_blockwise_int8_solve_stays_feasible(self):
        hits = 0
        for seed in range(10):
            inst = make_scale_separated_qubo(seed)
            adapter = FinitePrecisionAdapter(ExhaustiveSolver())
            res = bcd_solve(inst.qubo, adapter, BcdConfig(seed=0))
            sums = inst.decode(res.assignment).invested_per_step()
            if np.all(sums == inst.config.budget):
                hits += 1
        assert hits >= 9

    def test_folded_diagonal_survives_per_block_quantization(self):
        # neighbour context folds into the subproblem diagonal; after the
        # per-block rescale those fields stay representable (nonzero)
        inst = make_scale_separated_qubo(0)
        x = np.ones(12, dtype=np.int8)
        sub = extract_subproblem(inst.qubo, x, 1)
        qm = quantize_int8(qubo_to_ising(sub))
        assert np.count_nonzero(qm.linear) > 0

    def test_full_precision_exhaustive_is_feasible(self):
        # the separation is purely a finite-precision artefact
        for seed in range(5):
            inst = make_scale_separated_qubo(seed)
            res = ExhaustiveSolver().solve(SolveRequest(inst.qubo, seed=0))
            sums = inst.decode(res.assignment).invested_per_step()
            assert np.all(sums == inst.config.budget), (seed, sums)
