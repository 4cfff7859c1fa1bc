"""Property tests of the block sweep for every kind of block backend."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dpoqubo.backends import make_backend  # noqa: E402
from dpoqubo.bcd import BcdConfig, bcd_solve, extract_subproblem, write_back  # noqa: E402
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
# the smallest normal coefficient becomes a subnormal Ising field whose int8
# scale 127 / h overflows
@example(
    q=Qubo(np.diag([0.0, 2.2250738585072014e-308]), partition=BlockPartition.from_sizes([1, 1])),
    seed=0,
)
def test_sweep_starts_at_zero_and_never_increases(backend, q, seed):
    cfg = BcdConfig(global_iters=2, repeats_per_block=2, seed=seed)
    result = bcd_solve(q, make_backend(backend), cfg)
    energies = [result.trace[0].pre_energy] + [r.post_energy for r in result.trace]
    assert energies[0] == qubo_energy(q, np.zeros(q.n, dtype=np.int8))
    # strict local improvement can still round up by an ulp in the global sum
    assert all(b <= a + 1e-9 * (1.0 + abs(a)) for a, b in zip(energies, energies[1:]))
    assert result.energy == qubo_energy(q, result.assignment)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_subproblem_energy_differences_are_global_differences(data):
    q = data.draw(tridiagonal_qubos())
    part = q.partition
    bits = st.integers(0, 1)
    x = np.array(data.draw(st.lists(bits, min_size=q.n, max_size=q.n)), dtype=np.int8)
    i = data.draw(st.integers(0, len(part) - 1))
    size = part.sizes[i]
    y1, y2 = (
        np.array(data.draw(st.lists(bits, min_size=size, max_size=size)), dtype=np.int8)
        for _ in range(2)
    )
    sub = extract_subproblem(q, x, i)
    local = qubo_energy(sub, y1) - qubo_energy(sub, y2)
    whole = qubo_energy(q, write_back(x, part, i, y1)) - qubo_energy(
        q, write_back(x, part, i, y2)
    )
    scale = np.abs(q.coeffs).sum()
    assert local == pytest.approx(whole, rel=0, abs=1e-9 * max(scale, 1.0))
