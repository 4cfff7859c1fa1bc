import itertools
import re

import numpy as np
import pytest

from dpoqubo.qubo import (
    BlockPartition,
    IsingModel,
    Qubo,
    as_bits,
    as_spins,
    ising_energy,
    ising_to_qubo,
    qubo_energies,
    qubo_energy,
    qubo_to_ising,
    scale_separation_report,
    verify_block_tridiagonal,
)


def naive_qubo_energy(matrix, offset, x):
    """Reference double-loop evaluation."""
    n = len(x)
    total = offset
    for i in range(n):
        for j in range(n):
            total += matrix[i][j] * x[i] * x[j]
    return total


def naive_ising_energy(h, j, offset, z):
    n = len(z)
    total = offset
    for i in range(n):
        total += h[i] * z[i]
    for i in range(n):
        for jj in range(i + 1, n):
            total += j[i][jj] * z[i] * z[jj]
    return total


class TestBlockPartition:
    def test_from_sizes(self):
        part = BlockPartition.from_sizes([3, 2, 4])
        assert part.blocks == ((0, 3), (3, 5), (5, 9))
        assert part.n == 9
        assert part.sizes == (3, 2, 4)
        assert len(part) == 3
        assert part.block_slice(1) == slice(3, 5)

    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="contiguous"):
            BlockPartition(((0, 2), (3, 5)))

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError, match="empty"):
            BlockPartition(((0, 2), (2, 2)))

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            BlockPartition(((1, 3),))

    @pytest.mark.parametrize("blocks, message", [
        (((0, 2.7), (2.7, 5)), "block 0 stop must be an integer, got 2.7"),
        (((0, True),), "block 0 stop must be an integer, got True"),
        (((0, "2"),), "block 0 stop must be an integer"),
        (((-1, 2),), "block 0 start must be >= 0"),
    ])
    def test_bounds_taken_exactly(self, blocks, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            BlockPartition(blocks)

    @pytest.mark.parametrize("sizes, message", [
        ([2.5, 2.5], "block 0 size must be an integer, got 2.5"),
        ([True, 2], "block 0 size must be an integer, got True"),
        ([2, 0], "block 1 size must be >= 1, got 0"),
    ])
    def test_sizes_taken_exactly(self, sizes, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            BlockPartition.from_sizes(sizes)

    def test_integral_floats_and_numpy_ints_accepted(self):
        part = BlockPartition.from_sizes([2.0, np.int64(3)])
        assert part.blocks == ((0, 2), (2, 5))
        assert all(type(v) is int for block in part.blocks for v in block)
        assert BlockPartition(((np.int32(0), 2.0),)).blocks == ((0, 2),)


class TestQuboContainer:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Qubo(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_from_dense_symmetrises_without_changing_energy(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(5, 5))
        q = Qubo.from_dense(m, offset=0.25)
        for bits in itertools.product([0, 1], repeat=5):
            expected = naive_qubo_energy(m, 0.25, bits)
            assert qubo_energy(q, bits) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_coeffs_read_only(self):
        q = Qubo(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            q.coeffs[0, 0] = 1.0

    def test_partition_size_must_match(self):
        part = BlockPartition.from_sizes([2, 2])
        with pytest.raises(ValueError, match="partition"):
            Qubo(np.zeros((3, 3)), partition=part)
        with pytest.raises(ValueError, match="partition"):
            IsingModel(np.zeros(3), np.zeros((3, 3)), partition=part)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Qubo(np.array([[np.nan]]))


class TestAssignmentValidation:
    def test_as_bits_roundtrip(self):
        out = as_bits([0, 1, 1, 0])
        assert out.dtype == np.int8
        assert out.tolist() == [0, 1, 1, 0]

    def test_as_bits_rejects_other_values(self):
        with pytest.raises(ValueError):
            as_bits([0, 2])

    def test_as_bits_length_check(self):
        with pytest.raises(ValueError, match="length"):
            as_bits([0, 1], n=3)

    def test_as_spins(self):
        assert as_spins([1, -1]).tolist() == [1, -1]
        with pytest.raises(ValueError):
            as_spins([1, 0])


class TestEnergies:
    def test_diagonal_counts_once(self):
        # x_i^2 == x_i, so the diagonal contributes linearly.
        q = Qubo(np.diag([3.0, -2.0]))
        assert qubo_energy(q, [1, 0]) == 3.0
        assert qubo_energy(q, [0, 1]) == -2.0
        assert qubo_energy(q, [1, 1]) == 1.0

    def test_offdiagonal_counts_twice(self):
        # Symmetric storage: coefficient of x_0 x_1 is 2 * Q[0, 1].
        q = Qubo(np.array([[0.0, 1.5], [1.5, 0.0]]))
        assert qubo_energy(q, [1, 1]) == 3.0

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        q = Qubo.from_dense(rng.normal(size=(6, 6)), offset=-1.0)
        batch = np.array(list(itertools.product([0, 1], repeat=6)))
        energies = qubo_energies(q, batch)
        for row, e in zip(batch, energies):
            assert e == pytest.approx(qubo_energy(q, row), rel=1e-12)

    def test_ising_pairs_count_once(self):
        m = IsingModel(
            linear=np.array([0.5, -0.25]),
            quadratic=np.array([[0.0, 2.0], [2.0, 0.0]]),
            offset=1.0,
        )
        # offset + h.z + J_01 z_0 z_1
        assert ising_energy(m, [1, 1]) == pytest.approx(1.0 + 0.25 + 2.0)
        assert ising_energy(m, [1, -1]) == pytest.approx(1.0 + 0.75 - 2.0)


class TestQuboIsingRoundtrip:
    def test_single_variable_example(self):
        # min x^2 = x has minimum 0; spin form must carry offset 1/2, field -1/2.
        q = Qubo(np.array([[1.0]]))
        m = qubo_to_ising(q)
        assert m.linear[0] == pytest.approx(-0.5)
        assert m.offset == pytest.approx(0.5)
        assert np.all(m.quadratic == 0.0)
        assert ising_energy(m, [1]) == pytest.approx(0.0)   # z=+1 <-> x=0
        assert ising_energy(m, [-1]) == pytest.approx(1.0)  # z=-1 <-> x=1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_energy_preserved_exhaustively(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        q = Qubo.from_dense(rng.normal(size=(n, n)) * 3.0, offset=rng.normal())
        m = qubo_to_ising(q)
        for bits in itertools.product([0, 1], repeat=n):
            x = np.array(bits)
            z = 1 - 2 * x
            assert ising_energy(m, z) == pytest.approx(
                qubo_energy(q, x), rel=1e-12, abs=1e-12
            )

    @pytest.mark.parametrize("seed", [3, 4])
    def test_inverse_conversion_exhaustively(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        h = rng.normal(size=n)
        j = rng.normal(size=(n, n))
        j = (j + j.T) / 2.0
        np.fill_diagonal(j, 0.0)
        m = IsingModel(linear=h, quadratic=j, offset=rng.normal())
        q = ising_to_qubo(m)
        for bits in itertools.product([0, 1], repeat=n):
            x = np.array(bits)
            z = 1 - 2 * x
            assert qubo_energy(q, x) == pytest.approx(
                ising_energy(m, z), rel=1e-12, abs=1e-12
            )

    def test_roundtrip_recovers_matrix(self):
        rng = np.random.default_rng(5)
        q = Qubo.from_dense(rng.normal(size=(4, 4)), offset=2.5)
        back = ising_to_qubo(qubo_to_ising(q))
        np.testing.assert_allclose(back.coeffs, q.coeffs, rtol=0, atol=1e-12)
        assert back.offset == pytest.approx(q.offset, abs=1e-12)

    def test_naive_ising_oracle_agrees(self):
        rng = np.random.default_rng(9)
        n = 4
        j = rng.normal(size=(n, n))
        j = (j + j.T) / 2.0
        np.fill_diagonal(j, 0.0)
        m = IsingModel(linear=rng.normal(size=n), quadratic=j, offset=0.75)
        for spins in itertools.product([-1, 1], repeat=n):
            expected = naive_ising_energy(m.linear, m.quadratic, m.offset, spins)
            assert ising_energy(m, spins) == pytest.approx(expected, rel=1e-12)


class TestIsingValidation:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            IsingModel(linear=np.zeros(2), quadratic=np.eye(2))

    def test_rejects_asymmetric_coupling(self):
        with pytest.raises(ValueError, match="symmetric"):
            IsingModel(
                linear=np.zeros(2),
                quadratic=np.array([[0.0, 1.0], [2.0, 0.0]]),
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            IsingModel(linear=np.zeros(3), quadratic=np.zeros((2, 2)))


class TestBlockStructure:
    def _tridiagonal_qubo(self):
        part = BlockPartition.from_sizes([2, 2, 2])
        m = np.zeros((6, 6))
        m[0:2, 0:2] = 1.0
        m[2:4, 2:4] = 2.0
        m[4:6, 4:6] = 3.0
        m[0:2, 2:4] = m[2:4, 0:2] = 0.5
        m[2:4, 4:6] = m[4:6, 2:4] = 0.25
        return Qubo(m, partition=part)

    def test_tridiagonal_passes(self):
        ok, violations = verify_block_tridiagonal(self._tridiagonal_qubo())
        assert ok
        assert violations == []

    def test_distant_coupling_reported(self):
        part = BlockPartition.from_sizes([2, 2, 2])
        m = np.zeros((6, 6))
        m[1, 5] = m[5, 1] = 4.0
        ok, violations = verify_block_tridiagonal(Qubo(m, partition=part))
        assert not ok
        assert violations == [(0, 2, 1, 5)]

    def test_violations_sorted_by_block_pair_not_by_row(self):
        # row 0 couples the distant block 3 and the later row 1 the nearer
        # block 2: row-major order would list (0, 3) first
        part = BlockPartition.from_sizes([2, 2, 2, 2])
        m = np.zeros((8, 8))
        m[0, 7] = m[7, 0] = 1.0
        m[1, 4] = m[4, 1] = 2.0
        m[2, 6] = m[6, 2] = 3.0
        ok, violations = verify_block_tridiagonal(Qubo(m, partition=part))
        assert not ok
        assert violations == [(0, 2, 1, 4), (0, 3, 0, 7), (1, 3, 2, 6)]

    def test_requires_partition(self):
        with pytest.raises(ValueError, match="partition"):
            verify_block_tridiagonal(Qubo(np.zeros((2, 2))))

    def test_scale_separation(self):
        q = self._tridiagonal_qubo()
        report = scale_separation_report(q)
        assert report.max_intra == 3.0
        assert report.max_inter == 0.5
        assert report.ratio == pytest.approx(0.5 / 3.0)

    def test_scale_separation_no_coupling(self):
        part = BlockPartition.from_sizes([1, 1])
        q = Qubo(np.diag([2.0, 5.0]), partition=part)
        report = scale_separation_report(q)
        assert report.max_inter == 0.0
        assert report.ratio == 0.0


class TestInputChecks:
    @pytest.mark.parametrize("build, message", [
        (lambda: BlockPartition(()), "partition needs at least one block"),
        (lambda: Qubo(np.zeros((2, 3))), "coeffs must be a square 2-D matrix, got shape (2, 3)"),
        (lambda: IsingModel(np.zeros((2, 2)), np.zeros((2, 2))),
         "linear must be a 1-D vector, got shape (2, 2)"),
        (lambda: IsingModel([np.nan, 0.0], np.zeros((2, 2))), "linear contains non-finite entries"),
        (lambda: as_bits(np.zeros((2, 2))), "assignment must be 1-D, got shape (2, 2)"),
        (lambda: as_spins(np.ones((2, 2))), "spin vector must be 1-D, got shape (2, 2)"),
        (lambda: as_spins([1, -1], 3), "spin vector has length 2, expected 3"),
        (lambda: qubo_energies(Qubo(np.zeros((2, 2))), np.zeros((3, 3))),
         "batch must have shape (m, 2), got (3, 3)"),
        (lambda: qubo_energies(Qubo(np.zeros((2, 2))), np.zeros(2)),
         "batch must have shape (m, 2), got (2,)"),
    ], ids=[
        "empty-partition", "non-square", "2d-linear", "non-finite-linear", "2d-assignment",
        "2d-spins", "spin-length", "batch-width", "1d-batch",
    ])
    def test_rejected_with_a_message(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("index", [-1, 2])
    def test_block_index_outside_partition(self, index):
        with pytest.raises(IndexError, match=re.escape(f"block index {index} out of range (m=2)")):
            BlockPartition.from_sizes([2, 3]).block_slice(index)

    def test_scale_separation_with_only_cross_block_coefficients(self):
        part = BlockPartition.from_sizes([1, 1])
        report = scale_separation_report(Qubo([[0.0, 1.0], [1.0, 0.0]], partition=part))
        assert report.max_intra == 0.0
        assert report.max_inter == 1.0
        assert report.ratio == float("inf")
