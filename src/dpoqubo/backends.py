"""Uniform solver interface: exact enumeration, two stochastic heuristics,
and an adapter that reproduces a signed-8-bit analog device's coefficient
pipeline in software.

Every backend is a deterministic function of ``(model, seed, effort)`` and
returns the best assignment it saw together with that assignment's energy
under the submitted model — so reported energies can always be re-verified
by re-evaluation.

Models may be ``Qubo``, ``IsingModel``, or ``QuantizedIsing``; the latter two
are canonicalized to an equivalent QUBO internally (bit convention
``z = 1 - 2x``), which changes no minimizer and no reported energy.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Union

import numpy as np

from .precision import QuantizedIsing, quantize_int8, reduce_dynamic_range
from .qubo import IsingModel, Qubo, ising_to_qubo, qubo_to_ising

__all__ = [
    "SolveRequest",
    "SolveResult",
    "BackendError",
    "ExhaustiveSolver",
    "SimulatedAnnealingSolver",
    "TabuSolver",
    "FinitePrecisionAdapter",
    "make_backend",
    "canonical_qubo",
]

AnyModel = Union[Qubo, IsingModel, QuantizedIsing]


class BackendError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveRequest:
    """A model plus the reproducibility knobs: seed and countable effort.

    ``effort`` is backend-specific (sweeps for annealing, iterations for tabu
    search, ignored by enumeration); None means the backend default.
    """

    model: AnyModel
    seed: int = 0
    effort: int | None = None

    def __post_init__(self) -> None:
        if self.effort is not None and self.effort <= 0:
            raise ValueError("effort must be positive")


@dataclass(frozen=True)
class SolveResult:
    assignment: np.ndarray
    reported_energy: float
    wall_time: float
    backend_id: str

    def __post_init__(self) -> None:
        bits = np.array(self.assignment, dtype=np.int8)
        bits.setflags(write=False)
        object.__setattr__(self, "assignment", bits)


def canonical_qubo(model: AnyModel) -> Qubo:
    """Any supported model as an energy-equivalent QUBO.

    Quantized models convert at face (integer) value, so their energies stay
    in integer units; float models convert exactly.
    """
    if isinstance(model, Qubo):
        return model
    if isinstance(model, QuantizedIsing):
        # integer coefficients stay exactly representable as doubles
        model = IsingModel(
            linear=model.linear.astype(float),
            quadratic=model.quadratic.astype(float),
            offset=0.0,
            partition=model.partition,
        )
    if isinstance(model, IsingModel):
        return ising_to_qubo(model)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _flip_deltas(q: np.ndarray, diag: np.ndarray, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Energy change of flipping each bit, given grad = Q @ x."""
    sign = 1.0 - 2.0 * x
    return sign * (diag + 2.0 * (grad - diag * x))


class _Solver:
    """The solve skeleton of every backend: canonicalize the model once, let
    the backend's ``_search(q, request)`` return its best assignment and that
    assignment's energy without the offset, then add ``q.offset`` and time it."""

    name: str

    def solve(self, request: SolveRequest) -> SolveResult:
        start = time.perf_counter()
        q = canonical_qubo(request.model)
        assignment, energy = self._search(q, request)
        return SolveResult(
            assignment=assignment,
            reported_energy=energy + q.offset,
            wall_time=time.perf_counter() - start,
            backend_id=self.name,
        )


# enumeration limits: the largest model enumerated, and the number of
# assignments scored per vectorized chunk
_EXHAUSTIVE_CAP = 24
_EXHAUSTIVE_CHUNK = 1 << 16


class ExhaustiveSolver(_Solver):
    """Global minimizer by full enumeration of at most 24 variables; ties go
    to the lowest binary value of the assignment (bit i weighted 2**i)."""

    name = "exhaustive"

    def _search(self, q: Qubo, request: SolveRequest):
        n = q.n
        if n > _EXHAUSTIVE_CAP:
            raise BackendError(
                f"exhaustive enumeration capped at {_EXHAUSTIVE_CAP} variables, model has {n}"
            )
        total = 1 << n
        shifts = np.arange(n, dtype=np.uint64)
        best_energy = np.inf
        best_counter = 0
        for lo in range(0, total, _EXHAUSTIVE_CHUNK):
            counters = np.arange(lo, min(lo + _EXHAUSTIVE_CHUNK, total), dtype=np.uint64)
            bits = ((counters[:, None] >> shifts) & 1).astype(float)
            energies = ((bits @ q.coeffs) * bits).sum(axis=1)
            k = int(np.argmin(energies))
            # ascending counter order makes the first strict improvement the
            # lowest-binary-value tie winner overall
            if energies[k] < best_energy:
                best_energy = float(energies[k])
                best_counter = lo + k
        return (best_counter >> np.arange(n)) & 1, best_energy


# geometric cooling factor applied to the annealing temperature after each sweep
_SA_COOLING = 0.97


class SimulatedAnnealingSolver(_Solver):
    """Single-flip Metropolis with a geometric cooling schedule.

    Each sweep proposes ``n`` uniformly random flips at temperature
    ``t0 * 0.97**sweep``; the best assignment ever visited is returned.
    ``t0`` is ``n * max|Q|``, matched to the scale of single-flip energy
    changes.
    """

    name = "sa"

    def __init__(self, sweeps: int = 200) -> None:
        if sweeps <= 0:
            raise ValueError("sweeps must be positive")
        self.sweeps = sweeps

    def _search(self, q: Qubo, request: SolveRequest):
        n = q.n
        rng = np.random.default_rng(request.seed)
        sweeps = request.effort if request.effort is not None else self.sweeps
        coeffs = q.coeffs
        diag = np.diag(coeffs)
        max_abs = float(np.abs(coeffs).max()) if n else 0.0

        x = rng.integers(0, 2, size=n).astype(float)
        grad = coeffs @ x
        energy = float(x @ grad)
        best_energy, best_x = energy, x.copy()

        temperature = max(n * max_abs, 1e-12)
        for _ in range(sweeps):
            indices = rng.integers(0, n, size=n)
            accepts = rng.random(size=n)
            for i, u in zip(indices, accepts):
                sign = 1.0 - 2.0 * x[i]
                delta = sign * (diag[i] + 2.0 * (grad[i] - diag[i] * x[i]))
                if delta <= 0.0 or u < np.exp(-delta / temperature):
                    x[i] += sign
                    grad += sign * coeffs[:, i]
                    energy += delta
                    if energy < best_energy:
                        best_energy, best_x = energy, x.copy()
            temperature *= _SA_COOLING
        return best_x, best_energy


class TabuSolver(_Solver):
    """Steepest single-flip search with a fixed-tenure tabu list.

    Every iteration flips the lowest-delta admissible bit (ties to the lowest
    index), even uphill; a flipped bit stays tabu for ``tenure`` iterations
    unless undoing it would beat the best energy seen (aspiration).  The
    tenure is ``max(7, n // 10)``; the default is ``100 * n`` iterations.
    """

    name = "tabu"

    def __init__(self, iterations: int | None = None) -> None:
        if iterations is not None and iterations <= 0:
            raise ValueError("iterations must be positive")
        self.iterations = iterations

    def _search(self, q: Qubo, request: SolveRequest):
        n = q.n
        rng = np.random.default_rng(request.seed)
        iterations = (
            request.effort
            if request.effort is not None
            else (self.iterations if self.iterations is not None else 100 * n)
        )
        tenure = max(7, n // 10)
        coeffs = q.coeffs
        diag = np.diag(coeffs)

        x = rng.integers(0, 2, size=n).astype(float)
        grad = coeffs @ x
        energy = float(x @ grad)
        best_energy, best_x = energy, x.copy()
        expires = np.zeros(n, dtype=np.int64)  # iteration at which tabu ends

        for it in range(iterations):
            deltas = _flip_deltas(coeffs, diag, x, grad)
            admissible = (expires <= it) | (energy + deltas < best_energy - 1e-12)
            if not admissible.any():
                admissible[:] = True  # fully tabu: fall back to the plain best move
            masked = np.where(admissible, deltas, np.inf)
            i = int(np.argmin(masked))
            sign = 1.0 - 2.0 * x[i]
            x[i] += sign
            grad += sign * coeffs[:, i]
            energy += float(deltas[i])
            expires[i] = it + 1 + tenure
            if energy < best_energy:
                best_energy, best_x = energy, x.copy()
        return best_x, best_energy


# accepted dynamic-range tuning steps allowed per quantization
_TUNING_BUDGET = 100


class FinitePrecisionAdapter(_Solver):
    """Emulate a device restricted to signed 8-bit coefficients.

    The submitted QUBO goes through spin conversion, dynamic-range tuning,
    and int8 quantization; the wrapped backend then solves the integer model.
    The returned energy is re-scored on the *submitted* model in full
    precision, so quantization error shows up in solution quality, never in
    bookkeeping.  A submitted ``QuantizedIsing`` reaches the wrapped backend
    unchanged.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = f"int8({inner.name})"

    def quantize(self, model: AnyModel) -> QuantizedIsing:
        """The integer model the inner backend would see for ``model``."""
        if isinstance(model, QuantizedIsing):
            return model
        spin_model = qubo_to_ising(canonical_qubo(model))
        tuned = reduce_dynamic_range(spin_model, budget=_TUNING_BUDGET)
        return quantize_int8(tuned.model, provenance=tuned.steps)

    def _search(self, q: Qubo, request: SolveRequest):
        model = request.model if isinstance(request.model, QuantizedIsing) else q
        inner_result = self.inner.solve(
            SolveRequest(model=self.quantize(model), seed=request.seed, effort=request.effort)
        )
        bits = inner_result.assignment.astype(float)
        return inner_result.assignment, float(bits @ q.coeffs @ bits)


_BASE_BACKENDS = {
    "exhaustive": ExhaustiveSolver,
    "sa": SimulatedAnnealingSolver,
    "tabu": TabuSolver,
}


def make_backend(name: str):
    """Build a backend from its name: ``exhaustive | sa | tabu``, each
    optionally wrapped as ``int8(<name>)``."""
    name = name.strip()
    wrapped = re.fullmatch(r"int8\((.+)\)", name)
    if wrapped:
        return FinitePrecisionAdapter(make_backend(wrapped.group(1)))
    if name in _BASE_BACKENDS:
        return _BASE_BACKENDS[name]()
    known = " | ".join([*_BASE_BACKENDS, "int8(<name>)"])
    raise ValueError(f"unknown backend {name!r}; expected {known}")
