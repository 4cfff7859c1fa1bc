"""Block coordinate descent over a block-partitioned QUBO.

The solver sweeps the partition in ascending order.  For each block it
freezes everything outside, folds the frozen context into the block's
diagonal (a linear field becomes a diagonal term for binary variables),
hands the resulting small QUBO to a pluggable backend several times under
different seeds, and keeps the best candidate — but writes it back only if
it strictly lowers the block's local energy, which makes the recorded global
energy trace non-increasing for *any* backend, including noisy quantized
ones.

Local subproblems carry no constant offset: a constant cannot change a
block's minimizer, and all accounting below is in energy differences.  The
full-precision global energy is re-evaluated and recorded after every block
visit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends import SolveRequest, SolveResult, _spawn_seed
from .qubo import BlockPartition, Qubo, _freeze, _integer, _require_partition, as_bits, qubo_energy

__all__ = [
    "BcdConfig",
    "BcdTraceRecord",
    "BcdResult",
    "BcdBackendError",
    "extract_subproblem",
    "solve_block",
    "write_back",
    "bcd_solve",
]


@dataclass(frozen=True)
class BcdConfig:
    """Sweep control: J global iterations, I backend runs per block visit.

    J and I are integers >= 1, ``seed`` an integer >= 0.  Repeat ``j`` of
    block visit ``v`` (visits counted across iterations) sends the backend
    the seed spawned from ``seed`` at key ``(v, j)``, so every solve of a
    sweep draws its own stream.
    """

    global_iters: int = 3
    repeats_per_block: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for name, minimum in (("global_iters", 1), ("repeats_per_block", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))


class BcdBackendError(RuntimeError):
    """A backend failed while solving one block; carries the block index and
    the trace recorded before the failure."""

    def __init__(
        self,
        block_index: int,
        message: str,
        partial_trace: tuple[BcdTraceRecord, ...] = (),
    ) -> None:
        super().__init__(f"block {block_index}: {message}")
        self.block_index = block_index
        self.partial_trace = partial_trace


def extract_subproblem(q: Qubo, x, i: int) -> Qubo:
    """Freeze everything outside block ``i`` of ``x`` into a local QUBO.

    The result is offset-free and its matrix is the block's diagonal
    sub-matrix plus ``diag(h)`` where ``h = 2 * Q[block, outside] @
    x[outside]``; for block tridiagonal models only the two adjacent blocks
    contribute to ``h``.  Differences of ``qubo_energy(sub, y)`` across
    candidate block vectors ``y`` equal global energy differences exactly.
    """
    sl = _require_partition(q).block_slice(i)
    masked = as_bits(x, q.n).astype(float)
    masked[sl] = 0.0
    coeffs = q.coeffs[sl, sl].copy()
    coeffs[np.diag_indices_from(coeffs)] += 2.0 * (q.coeffs[sl, :] @ masked)
    return Qubo(_freeze(coeffs))


def solve_block(sub: Qubo, backend, seeds) -> tuple[np.ndarray, float]:
    """Best of one backend run per seed in ``seeds`` on the block, judged by
    full-precision local energy (ties keep the earliest run); returns that
    run's bits and local energy.  Raises ``ValueError`` when no run's local
    energy is below +inf, since no candidate can then be judged."""
    best_energy = np.inf
    best: np.ndarray | None = None
    energies = []
    for seed in seeds:
        result = backend.solve(SolveRequest(model=sub, seed=seed))
        candidate = as_bits(result.assignment, sub.n)
        # the package's backends report exactly this energy, but a backend
        # from outside may report any number; scoring here is what keeps the
        # accept test, and so the energy trace, honest for every backend
        energy = qubo_energy(sub, candidate)
        energies.append(energy)
        if energy < best_energy:
            best_energy, best = energy, candidate
    if best is None:
        raise ValueError(f"no run scored a finite local energy: {energies}")
    return best, best_energy


def write_back(x, partition: BlockPartition, i: int, block_solution) -> np.ndarray:
    """New assignment equal to ``x`` outside block ``i`` and to
    ``block_solution`` inside it."""
    bits = as_bits(x, partition.n)
    sl = partition.block_slice(i)
    bits[sl] = as_bits(block_solution, sl.stop - sl.start)
    return bits


@dataclass(frozen=True)
class BcdTraceRecord:
    """Global energies bracketing one block visit (they match when the
    candidate was rejected)."""

    iteration: int
    block: int
    pre_energy: float
    post_energy: float
    accepted: bool


@dataclass(frozen=True)
class BcdResult(SolveResult):
    """A solve result that also carries the sweep's energy trace."""

    trace: tuple[BcdTraceRecord, ...]


def bcd_solve(q: Qubo, backend, cfg: BcdConfig | None = None) -> BcdResult:
    """Sweep all blocks in ascending order for ``J`` global iterations,
    starting from all zeros (the all-cash, uninvested portfolio).

    Every sweep runs.  Each visit solves the frozen-context subproblem ``I``
    times, repeat ``j`` of visit ``v`` under the seed spawned from
    ``cfg.seed`` at key ``(v, j)``, and accepts the best candidate only on
    strict local improvement, so the energy trace never increases and a
    global minimizer is a fixed point under an exact block backend.
    """
    if cfg is None:
        cfg = BcdConfig()
    elif not isinstance(cfg, BcdConfig):
        raise TypeError(f"cfg must be a BcdConfig or None, got {cfg!r}")
    part = _require_partition(q)
    m = len(part)
    x = np.zeros(q.n, dtype=np.int8)
    energy = qubo_energy(q, x)
    trace: list[BcdTraceRecord] = []
    for iteration in range(cfg.global_iters):
        for i in range(m):
            visit = iteration * m + i
            seeds = [_spawn_seed(cfg.seed, visit, j) for j in range(cfg.repeats_per_block)]
            sub = extract_subproblem(q, x, i)
            sl = part.block_slice(i)
            incumbent_energy = qubo_energy(sub, x[sl])
            try:
                candidate, candidate_energy = solve_block(sub, backend, seeds)
            except Exception as exc:
                raise BcdBackendError(i, str(exc), tuple(trace)) from exc
            pre_energy = energy
            accepted = candidate_energy < incumbent_energy
            if accepted:
                x = write_back(x, part, i, candidate)
                energy = qubo_energy(q, x)
            trace.append(
                BcdTraceRecord(
                    iteration=iteration,
                    block=i,
                    pre_energy=pre_energy,
                    post_energy=energy,
                    accepted=accepted,
                )
            )
    return BcdResult(assignment=x, reported_energy=energy, trace=tuple(trace))
