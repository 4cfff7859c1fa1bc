import itertools
import math
import re

import numpy as np
import pytest

from dpoqubo import precision
from dpoqubo.backends import make_backend
from dpoqubo.market import ReturnPanel
from dpoqubo.model import DpoConfig, encode_qubo
from dpoqubo.precision import (
    QuantizedIsing,
    _MinimizerCheck,
    coefficient_values,
    dynamic_range,
    quantization_loss_report,
    quantize_int8,
    reduce_dynamic_range,
)
from dpoqubo.qubo import BlockPartition, IsingModel, Qubo, ising_energy, qubo_to_ising

from support import bundled_model


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="values contain non-finite entries"):
            dynamic_range([1.0, bad])

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

    def test_int8_minus_128_shrinks_like_its_float_twin(self):
        # int8 np.abs wraps -128 to -128, which hid the extreme field
        j = np.zeros((3, 3))
        j[1, 2] = j[2, 1] = 1.0
        quantized = QuantizedIsing(linear=[-128, 5, 3], quadratic=j, scale=1.0)
        twin = IsingModel(linear=[-128.0, 5.0, 3.0], quadratic=j)
        step = reduce_dynamic_range(quantized, budget=1).steps[0]
        assert step == reduce_dynamic_range(twin, budget=1).steps[0]
        assert (step.entry, step.old_value, step.new_value) == (("h", 0), -128.0, -5.0)

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

    @staticmethod
    def star_model(neighbours):
        """13 spins: spin 0 has field 10 and couples with -2 to each of the
        first ``neighbours`` (at most 4) others; every other spin has field
        -3.  The ground state has spin 0 down and the rest up.  The first
        tuning move shrinks field 10 to 3, after which the ground state has
        every spin up once spin 0 has 2 or more neighbours."""
        n = 13
        j = np.zeros((n, n))
        j[0, 1:neighbours + 1] = j[1:neighbours + 1, 0] = -2.0
        h = np.full(n, -3.0)
        h[0] = 10.0
        return IsingModel(linear=h, quadratic=j)

    def test_sampled_check_accepts_a_safe_move(self):
        m = self.star_model(1)
        assert len(_MinimizerCheck(m)._starts) == 64
        out = reduce_dynamic_range(m, budget=1)
        assert [(s.entry, s.old_value, s.new_value, s.kind) for s in out.steps] == [
            (("h", 0), 10.0, 3.0, "shrink-extreme")
        ]
        down, up = np.array([-1] + [1] * 12), np.ones(13)
        assert ising_energy(out.model, down) < ising_energy(out.model, up)

    def test_sampled_check_rejects_a_move_that_loses_the_ground_state(self):
        m = self.star_model(4)
        assert len(_MinimizerCheck(m)._starts) == 64
        # the move would lower the dynamic range, but spin 0 would go up
        shrunk = IsingModel(np.where(m.linear == 10.0, 3.0, m.linear), m.quadratic)
        bits = [dynamic_range(coefficient_values(x)).bits for x in (m, shrunk)]
        assert bits[1] < bits[0]
        down, up = np.array([-1] + [1] * 12), np.ones(13)
        assert ising_energy(m, down) < ising_energy(m, up)
        assert ising_energy(shrunk, up) < ising_energy(shrunk, down)
        out = reduce_dynamic_range(m)
        assert out.steps == ()
        np.testing.assert_array_equal(out.model.linear, m.linear)

    @pytest.mark.parametrize("budget, message", [
        (2.5, "budget must be an integer, got 2.5"),
        (True, "budget must be an integer, got True"),
        (-1, "budget must be >= 0, got -1"),
    ])
    def test_budget_taken_exactly(self, budget, message):
        m = IsingModel(np.array([10.0, 0.001]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match=re.escape(message)):
            reduce_dynamic_range(m, budget=budget)


def one_buffer_scale_round_clip(a, alpha):
    """The int8 image of ``a`` rounded in one float buffer of its size."""
    out = a / alpha
    out *= 127.0
    np.round(out, out=out)
    np.clip(out, -128, 127, out=out)
    return out.astype(np.int8)


# ties at alpha 1 (127 times an odd half is a tie), entries that round to
# +-128 and past it, and signed zeros
_ROUNDING_CASES = [
    0.5, -0.5, 1.5, -2.5, 127.5, -127.5, 128.4, -128.4, 128.6, -128.6, 500.0, -500.0, 0.0, -0.0
]


class TestQuantize:
    @pytest.mark.parametrize("alpha", [1.0, 127.0, 3.0])
    @pytest.mark.parametrize("chunk", [1, 5, 13, 1 << 14])
    @pytest.mark.parametrize("shape", [(0,), (1,), (29,), (0, 0), (1, 1), (29, 29)])
    def test_row_chunks_round_as_one_buffer(self, monkeypatch, shape, chunk, alpha):
        # a chunk of 5 coefficients holds one row of 29, or 5 entries of a
        # vector, so both shapes cross chunk boundaries mid-array
        rng = np.random.default_rng(len(shape) * 100 + sum(shape))
        values = [*_ROUNDING_CASES, *rng.normal(scale=100.0, size=16)]
        a = rng.choice(values, size=shape)
        monkeypatch.setattr(precision, "_ROUND_CHUNK", chunk)
        got = precision._scale_round_clip(a, alpha)
        want = one_buffer_scale_round_clip(a, alpha)
        assert got.dtype == np.int8 and got.shape == shape and not got.flags.writeable
        assert got.tobytes() == want.tobytes()

    def test_paper_model_quantizes_as_one_buffer(self, monkeypatch):
        # 528 spins: a default chunk holds 31 coupling rows, so 18 chunks
        spins = qubo_to_ising(bundled_model(DpoConfig()))
        got = quantize_int8(spins)
        monkeypatch.setattr(precision, "_ROUND_CHUNK", spins.quadratic.size)
        want = quantize_int8(spins)
        assert got.quadratic.tobytes() == want.quadratic.tobytes()
        assert got.linear.tobytes() == want.linear.tobytes()
        assert got.scale == want.scale

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

    @pytest.mark.parametrize("where", ["field", "coupling"])
    def test_int8_minus_128_quantizes_like_its_float_twin(self, where):
        # int8 np.abs wraps -128 to -128, which hid the extreme coefficient
        h, j = np.array([0.0, 5.0]), np.zeros((2, 2))
        if where == "field":
            h[0] = -128.0
        else:
            j[0, 1] = j[1, 0] = -128.0
        quantized = quantize_int8(QuantizedIsing(linear=h, quadratic=j, scale=1.0))
        twin = quantize_int8(IsingModel(linear=h, quadratic=j))
        np.testing.assert_array_equal(quantized.linear, twin.linear)
        np.testing.assert_array_equal(quantized.quadratic, twin.quadratic)
        assert quantized.scale == twin.scale == 127.0 / 128.0
        assert twin.linear.tolist() == [-127 if where == "field" else 0, 5]


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

    @pytest.mark.parametrize("source, image", [
        (([-128, 100], 0), ([-127, 100], 0)),
        (([0, 100], -128), ([0, 100], -127)),
    ], ids=["field", "coupling"])
    def test_int8_minus_128_source_reports_like_its_float_twin(self, source, image):
        # int8 np.abs wraps -128 to -128, which made its relative error negative
        (h, c), (image_h, image_c) = source, image
        j = [[0, c], [c, 0]]
        image = QuantizedIsing(linear=image_h, quadratic=[[0, image_c], [image_c, 0]], scale=1.0)
        report = quantization_loss_report(QuantizedIsing(linear=h, quadratic=j, scale=1.0), image)
        assert report == quantization_loss_report(IsingModel(linear=h, quadratic=j), image)
        assert report.max_relative_error == 1.0 / 128.0

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

    @pytest.mark.parametrize("n", [0, 1])
    def test_model_without_a_move_returned_unchanged(self, n):
        # one coefficient value at most, so no move and no ground-state check
        m = IsingModel(np.full(n, 2.0), np.zeros((n, n)), offset=1.5)
        out = reduce_dynamic_range(m)
        assert out.steps == ()
        assert out.model is m


QUBO = Qubo(np.array([[1.0, -2.0], [-2.0, 3.0]]))


@pytest.mark.parametrize("stage", [
    reduce_dynamic_range,
    quantize_int8,
    coefficient_values,
    lambda q: quantization_loss_report(q, quantize_int8(qubo_to_ising(q))),
], ids=["reduce_dynamic_range", "quantize_int8", "coefficient_values", "quantization_loss_report"])
def test_qubo_named_as_the_wrong_model_type(stage):
    # every stage reads an Ising model's fields
    message = "unsupported model type Qubo: expected an IsingModel (convert a Qubo with qubo_to_ising)"
    with pytest.raises(TypeError, match=re.escape(message)):
        stage(QUBO)


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

    @pytest.mark.parametrize("quantized", [
        IsingModel(np.ones(2), np.zeros((2, 2))),
        Qubo(np.eye(2)),
    ], ids=["IsingModel", "Qubo"])
    def test_loss_report_needs_a_quantized_image(self, quantized):
        m = IsingModel(np.ones(2), np.zeros((2, 2)))
        message = (
            f"quantized must be a QuantizedIsing, got {type(quantized).__name__}"
            " (quantize an IsingModel with quantize_int8)"
        )
        with pytest.raises(TypeError, match=re.escape(message)):
            quantization_loss_report(m, quantized)

    def test_loss_report_of_all_zero_source(self):
        m = IsingModel(np.zeros(2), np.zeros((2, 2)))
        report = quantization_loss_report(m, quantize_int8(m))
        assert report.zeroed_total == 0
        assert report.max_relative_error == 0.0


def test_int8_image_misses_the_budget_at_the_default_encoding():
    # the penalty-only block of one interval at the default 6 x 4 encoding:
    # its QUBO coefficients run from rho to 176 rho, so no 8-bit scale holds
    # them exactly, and the adapter's spin-domain image has its lowest
    # energy at an invested sum of 14, not the budget's 15
    config = DpoConfig(n_t=1, n_a=6, n_r=4, budget=15, nu=0, gamma=0, rho=1, dt=2)
    q = encode_qubo(config, ReturnPanel(np.zeros((1, 6)), np.zeros((2, 6)), dt=2))
    assert np.abs(q.coeffs[q.coeffs != 0]).min() == 1.0 and np.abs(q.coeffs).max() == 176.0
    image = make_backend("int8(tabu)").quantize(q)
    h, j = image.linear.astype(float), image.quadratic.astype(float)
    # every coefficient depends on the bit positions only, not on the assets,
    # so an energy depends only on how many assets set each bit
    distinct = ~np.eye(24, dtype=bool).reshape(6, 4, 6, 4)
    for matrix in (q.coeffs, j):
        blocks = matrix.reshape(6, 4, 6, 4)
        assert np.all((blocks == blocks[0, :, 1, :][None, :, None, :]) | ~distinct)
    assert np.all(h.reshape(6, 4) == h[:4])
    counts = np.array(list(itertools.product(range(7), repeat=4)))
    x = (np.arange(6)[None, :, None] < counts[:, None, :]).reshape(-1, 24).astype(float)
    sums = counts @ (2 ** np.arange(4))
    exact = ((x @ q.coeffs) * x).sum(axis=1)
    z = 1.0 - 2.0 * x
    spin = z @ h + 0.5 * ((z @ j) * z).sum(axis=1)
    assert sums[np.argmin(exact)] == 15
    assert sums[np.argmin(spin)] == 14
    lowest = [spin[sums == s].min() for s in range(12, 19)]
    assert lowest == [-576.0, -580.0, -588.0, -574.0, -578.0, -572.0, -576.0]
