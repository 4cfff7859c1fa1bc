"""Property tests of the block sweep for every kind of block backend."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dpoqubo.backends import make_backend  # noqa: E402
from dpoqubo.bcd import BcdConfig, bcd_solve  # noqa: E402
from dpoqubo.qubo import BlockPartition, Qubo, qubo_energy  # noqa: E402

coefficient = st.floats(-50.0, 50.0, allow_subnormal=False)


@st.composite
def tridiagonal_qubos(draw):
    """2-4 blocks of 1-4 bits; couplings only within a block or between
    adjacent blocks."""
    part = BlockPartition.from_sizes(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    n = part.n
    iu = np.triu_indices(n)
    upper = np.zeros((n, n))
    upper[iu] = draw(st.lists(coefficient, min_size=iu[0].size, max_size=iu[0].size))
    block_of = part.block_of()
    adjacent = np.abs(block_of[:, None] - block_of[None, :]) <= 1
    return Qubo(np.where(adjacent, upper + np.triu(upper, 1).T, 0.0), partition=part)


@pytest.mark.parametrize("backend", ["exhaustive", "sa", "tabu", "int8(tabu)"])
@settings(max_examples=30, deadline=None)
@given(q=tridiagonal_qubos(), seed=st.integers(0, 2**16))
def test_sweep_starts_at_zero_and_never_increases(backend, q, seed):
    cfg = BcdConfig(global_iters=2, repeats_per_block=2, seed=seed)
    result = bcd_solve(q, make_backend(backend), cfg)
    energies = [result.trace[0].pre_energy] + [r.post_energy for r in result.trace]
    assert energies[0] == qubo_energy(q, np.zeros(q.n, dtype=np.int8))
    # strict local improvement can still round up by an ulp in the global sum
    assert all(b <= a + 1e-9 * (1.0 + abs(a)) for a, b in zip(energies, energies[1:]))
    assert result.energy == qubo_energy(q, result.assignment)
