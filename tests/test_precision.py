import itertools
import math
import re

import numpy as np
import pytest

from dpoqubo.precision import (
    QuantizedIsing,
    coefficient_values,
    dynamic_range,
    quantization_loss_report,
    quantize_int8,
    reduce_dynamic_range,
)
from dpoqubo.qubo import BlockPartition, IsingModel, ising_energy


def random_ising(rng, n, scale=1.0):
    h = rng.normal(size=n) * scale
    j = rng.normal(size=(n, n)) * scale
    j = (j + j.T) / 2.0
    np.fill_diagonal(j, 0.0)
    return IsingModel(linear=h, quadratic=j, offset=float(rng.normal()))


def brute_force_argmin(model):
    """Exhaustive ground-state set, computed with plain loops."""
    n = model.n
    best = None
    states = []
    for spins in itertools.product([-1, 1], repeat=n):
        e = model.offset
        for i in range(n):
            e += model.linear[i] * spins[i]
            for j in range(i + 1, n):
                e += model.quadratic[i][j] * spins[i] * spins[j]
        if best is None or e < best - 1e-9:
            best = e
            states = [spins]
        elif abs(e - best) <= 1e-9 * (1 + abs(best)):
            states.append(spins)
    return set(states)


class TestDynamicRange:
    def test_two_values(self):
        dr = dynamic_range([0.0, 1.0])
        assert dr.bits == 0.0
        assert not dr.degenerate

    def test_three_values(self):
        # differences {1, 2, 3}: largest 3, smallest 1
        dr = dynamic_range([1.0, 2.0, 4.0])
        assert dr.bits == pytest.approx(math.log2(3.0))
        assert dr.largest_diff == 3.0
        assert dr.smallest_diff == 1.0

    def test_tiny_gap_dominates(self):
        dr = dynamic_range([0.0, 1e-6, 1.0])
        assert dr.bits == pytest.approx(math.log2(1e6), rel=1e-9)

    def test_all_equal_is_degenerate(self):
        dr = dynamic_range([2.0, 2.0, 2.0])
        assert dr.degenerate
        assert dr.bits == 0.0

    def test_duplicates_collapse(self):
        assert dynamic_range([1.0, 1.0, 2.0]).bits == 0.0

    def test_accepts_coefficient_values(self):
        m = IsingModel(
            linear=np.array([1.0, 2.0]),
            quadratic=np.array([[0.0, 4.0], [4.0, 0.0]]),
        )
        values = coefficient_values(m)
        assert sorted(values.tolist()) == [1.0, 2.0, 4.0]
        assert dynamic_range(values).bits == pytest.approx(math.log2(3.0))


class TestCoefficientValues:
    def test_value_order(self):
        rng = np.random.default_rng(3)
        m = random_ising(rng, 4)
        expected = list(m.linear) + [m.quadratic[i, j] for i in range(4) for j in range(i + 1, 4)]
        assert coefficient_values(m).tolist() == expected


class TestTuning:
    def test_budget_zero_is_identity(self):
        rng = np.random.default_rng(0)
        m = random_ising(rng, 4)
        out = reduce_dynamic_range(m, budget=0)
        assert out.steps == ()
        np.testing.assert_array_equal(out.model.linear, m.linear)

    def test_extreme_field_is_shrunk(self):
        m = IsingModel(
            linear=np.array([10.0, 0.001]),
            quadratic=np.zeros((2, 2)),
        )
        before = dynamic_range(coefficient_values(m)).bits
        out = reduce_dynamic_range(m, budget=1)
        assert len(out.steps) == 1
        step = out.steps[0]
        assert step.entry == ("h", 0)
        assert abs(step.new_value) < abs(step.old_value)
        assert step.bits_after < before
        # sign pattern of the unique ground state is preserved
        assert brute_force_argmin(out.model) & brute_force_argmin(m)

    def test_all_equal_couplings_unmoved(self):
        j = np.full((3, 3), 2.0)
        np.fill_diagonal(j, 0.0)
        m = IsingModel(linear=np.zeros(3), quadratic=j)
        out = reduce_dynamic_range(m, budget=10)
        assert out.steps == ()
        np.testing.assert_array_equal(out.model.linear, m.linear)
        np.testing.assert_array_equal(out.model.quadratic, m.quadratic)

    def test_step_log_strictly_decreasing(self):
        rng = np.random.default_rng(42)
        h = np.concatenate([rng.normal(size=4), [50.0, -80.0, 1e-4]])
        m = IsingModel(linear=h, quadratic=np.zeros((7, 7)))
        out = reduce_dynamic_range(m, budget=20)
        bits = [s.bits_before for s in out.steps] + (
            [out.steps[-1].bits_after] if out.steps else []
        )
        assert all(a > b for a, b in zip(bits, bits[1:]))

    def test_only_field_entries_move(self):
        rng = np.random.default_rng(17)
        m = random_ising(rng, 5, scale=3.0)
        out = reduce_dynamic_range(m, budget=50)
        np.testing.assert_array_equal(out.model.quadratic, m.quadratic)
        for step in out.steps:
            assert step.entry[0] == "h"

    @pytest.mark.parametrize("seed", range(25))
    def test_ground_state_preserved_random_models(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 8))
        m = random_ising(rng, n, scale=float(rng.uniform(0.5, 20.0)))
        out = reduce_dynamic_range(m, budget=30)
        assert brute_force_argmin(out.model) & brute_force_argmin(m)

    def test_dynamic_range_never_increases(self):
        rng = np.random.default_rng(99)
        m = random_ising(rng, 6, scale=10.0)
        out = reduce_dynamic_range(m, budget=40)
        before = dynamic_range(coefficient_values(m)).bits
        after = dynamic_range(coefficient_values(out.model)).bits
        assert after <= before

    @pytest.mark.parametrize("budget, message", [
        (2.5, "budget must be an integer, got 2.5"),
        (True, "budget must be an integer, got True"),
        (-1, "budget must be >= 0, got -1"),
    ])
    def test_budget_taken_exactly(self, budget, message):
        m = IsingModel(np.array([10.0, 0.001]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match=re.escape(message)):
            reduce_dynamic_range(m, budget=budget)


class TestQuantize:
    def test_extremes_map_to_127(self):
        m = IsingModel(
            linear=np.array([127.0, -127.0]),
            quadratic=np.zeros((2, 2)),
        )
        q = quantize_int8(m)
        assert q.linear.tolist() == [127, -127]
        assert q.scale == pytest.approx(1.0)

    def test_weak_coefficient_annihilated(self):
        m = IsingModel(
            linear=np.array([1.0, 0.001]),
            quadratic=np.zeros((2, 2)),
        )
        q = quantize_int8(m)
        assert q.linear.tolist() == [127, 0]

    def test_negative_unit(self):
        m = IsingModel(linear=np.array([-1.0]), quadratic=np.zeros((1, 1)))
        q = quantize_int8(m)
        assert q.linear.tolist() == [-127]

    def test_zero_model(self):
        m = IsingModel(linear=np.zeros(3), quadratic=np.zeros((3, 3)))
        q = quantize_int8(m)
        assert q.scale == 1.0
        assert np.all(q.linear == 0)
        assert np.all(q.quadratic == 0)

    def test_scale_overflow_quantizes_to_zero(self):
        # 127 / 5.6e-309 overflows; no finite scale lifts these coefficients
        m = IsingModel(linear=np.array([5.6e-309, 0.0]), quadratic=np.zeros((2, 2)))
        q = quantize_int8(m)
        assert q.scale == 1.0
        assert np.all(q.linear == 0)
        assert np.all(q.quadratic == 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_range_contract(self, seed):
        rng = np.random.default_rng(seed)
        m = random_ising(rng, 7, scale=100.0)
        q = quantize_int8(m)
        values = np.concatenate([q.linear, q.quadratic[np.triu_indices(7, 1)]])
        assert values.min() >= -128
        assert values.max() <= 127
        assert np.abs(values).max() == 127

    @pytest.mark.parametrize("factor", [2.0, 0.5, 8.0, 0.125])
    def test_dyadic_scale_equivariance(self, factor):
        rng = np.random.default_rng(31)
        m = random_ising(rng, 6)
        scaled = IsingModel(
            linear=m.linear * factor,
            quadratic=m.quadratic * factor,
            offset=m.offset,
        )
        qa, qb = quantize_int8(m), quantize_int8(scaled)
        np.testing.assert_array_equal(qa.linear, qb.linear)
        np.testing.assert_array_equal(qa.quadratic, qb.quadratic)

    def test_quantized_energy_matches_loops(self):
        rng = np.random.default_rng(8)
        m = random_ising(rng, 5, scale=4.0)
        q = quantize_int8(m)
        for spins in itertools.product([-1, 1], repeat=5):
            expected = 0
            for i in range(5):
                expected += int(q.linear[i]) * spins[i]
                for j in range(i + 1, 5):
                    expected += int(q.quadratic[i, j]) * spins[i] * spins[j]
            assert ising_energy(q, spins) == expected

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            QuantizedIsing(
                linear=np.zeros(2, dtype=np.int8),
                quadratic=np.zeros((3, 3), dtype=np.int8),
                scale=1.0,
            )

    @pytest.mark.parametrize(
        "linear, coupling, match",
        [
            ([200.0, 1.0], 0.0, "8-bit"),
            ([0.0, -129.0], 0.0, "8-bit"),
            ([0.0, 0.0], 300.0, "8-bit"),
            ([1.5, 0.0], 0.0, "non-integer"),
            ([0.0, 0.0], np.nan, "non-integer"),
        ],
    )
    def test_rejects_values_outside_int8(self, linear, coupling, match):
        with pytest.raises(ValueError, match=match):
            QuantizedIsing(
                linear=np.array(linear),
                quadratic=[[0.0, coupling], [coupling, 0.0]],
                scale=1.0,
            )

    def test_int8_extremes_kept(self):
        qm = QuantizedIsing(linear=[-128.0, 127.0], quadratic=np.zeros((2, 2)), scale=1.0)
        assert qm.linear.tolist() == [-128, 127]
        assert qm.linear.dtype == np.int8


class TestLossReport:
    def test_uniform_scale_int_coeffs_lossless(self):
        m = IsingModel(
            linear=np.array([127.0, -64.0]),
            quadratic=np.array([[0.0, 32.0], [32.0, 0.0]]),
        )
        report = quantization_loss_report(m, quantize_int8(m))
        assert report.zeroed_total == 0
        assert report.max_relative_error == pytest.approx(0.0, abs=1e-12)

    def test_planted_ratio_zeroes_interblock(self):
        part = BlockPartition.from_sizes([2, 2])
        j = np.zeros((4, 4))
        j[0, 1] = j[1, 0] = 1000.0
        j[2, 3] = j[3, 2] = -1000.0
        j[1, 2] = j[2, 1] = 1.0  # cross-block, 1000:1 below the scale anchor
        m = IsingModel(linear=np.zeros(4), quadratic=j, partition=part)
        report = quantization_loss_report(m, quantize_int8(m))
        assert report.zeroed_inter == 1
        assert report.zeroed_intra == 0
        assert report.zeroed_total == 1
        assert report.max_relative_error == pytest.approx(1.0)

    def test_without_partition_split_is_none(self):
        m = IsingModel(linear=np.array([1.0]), quadratic=np.zeros((1, 1)))
        report = quantization_loss_report(m, quantize_int8(m))
        assert report.zeroed_intra is None
        assert report.zeroed_inter is None


class TestTunedModelKeepsItsInput:
    def test_partition_and_offset_kept(self):
        part = BlockPartition.from_sizes([1, 1])
        m = IsingModel(np.array([10.0, 0.001]), np.zeros((2, 2)), offset=1.5, partition=part)
        out = reduce_dynamic_range(m, budget=1)
        assert len(out.steps) == 1
        assert out.model.partition == part
        assert out.model.offset == 1.5

    def test_quantized_model_stays_quantized(self):
        m = random_ising(np.random.default_rng(3), 6)
        qm = quantize_int8(
            IsingModel(m.linear, m.quadratic, partition=BlockPartition.from_sizes([3, 3]))
        )
        out = reduce_dynamic_range(qm)
        assert out.steps
        assert isinstance(out.model, QuantizedIsing)
        assert out.model.scale == qm.scale
        assert out.model.partition == qm.partition

    def test_one_magnitude_model_has_no_move(self):
        m = IsingModel(np.array([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert reduce_dynamic_range(m).steps == ()


class TestQuantizedInputChecks:
    @pytest.mark.parametrize("kwargs, message", [
        ({"offset": 1.0}, "quantized models carry no offset, got 1.0"),
        ({"scale": math.inf}, "scale must be finite and > 0, got inf"),
        ({"scale": 0.0}, "scale must be finite and > 0, got 0.0"),
    ])
    def test_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            QuantizedIsing(**{"linear": [1, 0], "quadratic": np.zeros((2, 2)), "scale": 1.0, **kwargs})

    def test_loss_report_size_mismatch(self):
        m = IsingModel(np.ones(2), np.zeros((2, 2)))
        other = quantize_int8(IsingModel(np.ones(3), np.zeros((3, 3))))
        with pytest.raises(ValueError, match="model and quantized sizes differ"):
            quantization_loss_report(m, other)

    def test_loss_report_of_all_zero_source(self):
        m = IsingModel(np.zeros(2), np.zeros((2, 2)))
        report = quantization_loss_report(m, quantize_int8(m))
        assert report.zeroed_total == 0
        assert report.max_relative_error == 0.0
