"""Coefficient conditioning for signed 8-bit solver targets.

Three stages, usable independently:

1. :func:`dynamic_range` measures, in bits, how far apart the largest and
   smallest nonzero absolute differences between coefficient values sit.
   A model whose dynamic range exceeds the target word length loses its
   weakest structure when quantized.
2. :func:`reduce_dynamic_range` performs conservative single-entry tuning:
   one field coefficient at a time is nudged toward zero, and the step is
   kept only when the dynamic range strictly drops *and* the model's set of
   ground states still contains a ground state of the original model
   (checked exhaustively for small models, by multistart local search
   agreement otherwise).
3. :func:`quantize_int8` maps coefficients to integers in [-128, 127] via
   scale-round-clip with the maximum absolute coefficient pinned to 127.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .qubo import IsingModel, _bit_table, _integer, ising_energy

__all__ = [
    "DynamicRange",
    "TuningStep",
    "TuningResult",
    "QuantizedIsing",
    "QuantizationLossReport",
    "coefficient_values",
    "dynamic_range",
    "reduce_dynamic_range",
    "quantize_int8",
    "quantization_loss_report",
]

def coefficient_values(model) -> np.ndarray:
    """Every free coefficient of an Ising model as one flat array: the fields
    in index order, then the couplings ``(i, j)`` with ``i < j`` in row order.
    Each unordered pair appears once."""
    iu = np.triu_indices(model.n, k=1)
    return np.concatenate([model.linear, model.quadratic[iu]])


@dataclass(frozen=True)
class DynamicRange:
    """Log-ratio of extreme nonzero differences between coefficient values.

    ``bits = log2(largest_diff / smallest_diff)``.  A range is
    ``degenerate`` when every value is equal; ``bits`` is defined as 0 there.
    """

    bits: float
    largest_diff: float
    smallest_diff: float

    @property
    def degenerate(self) -> bool:
        return self.largest_diff == 0.0


def dynamic_range(values) -> DynamicRange:
    """Measure the dynamic range of a coefficient array in bits.

    Differences are taken between *distinct* values, so the largest is the
    range and the smallest is the tightest gap between adjacent sorted
    values; zero values participate, zero differences never occur.
    """
    distinct = np.unique(np.asarray(values, dtype=float))
    if distinct.size < 2:
        return DynamicRange(bits=0.0, largest_diff=0.0, smallest_diff=0.0)
    largest = float(distinct[-1] - distinct[0])
    smallest = float(np.diff(distinct).min())
    return DynamicRange(
        bits=math.log2(largest / smallest),
        largest_diff=largest,
        smallest_diff=smallest,
    )


@dataclass(frozen=True)
class TuningStep:
    """One accepted single-entry move; ``entry`` is ``("h", i)`` for field ``i``."""

    entry: tuple[str, int]
    old_value: float
    new_value: float
    bits_before: float
    bits_after: float
    kind: str  # "shrink-extreme" | "widen-gap"


@dataclass(frozen=True)
class TuningResult:
    model: IsingModel
    steps: tuple[TuningStep, ...]


# ---------------------------------------------------------------------------
# ground-state bookkeeping used by the tuning accept test

_EXHAUSTIVE_LIMIT = 12
# seed and number of the random starts of the sampled check for larger models
_CHECK_SEED = 0
_CHECK_STARTS = 64


def _all_energies(model: IsingModel, spins: np.ndarray) -> np.ndarray:
    z = spins.astype(float)
    return (
        model.offset
        + z @ model.linear
        + 0.5 * np.einsum("ij,jk,ik->i", z, model.quadratic, z)
    )


def _argmin_rows(energies: np.ndarray) -> frozenset[int]:
    emin = energies.min()
    tol = 1e-9 * (1.0 + abs(emin))
    return frozenset(np.flatnonzero(energies <= emin + tol).tolist())


def _greedy_descent(model: IsingModel, z0: np.ndarray) -> np.ndarray:
    """Steepest single-flip descent to a local minimum."""
    z = z0.astype(float).copy()
    for _ in range(10 * model.n + 10):
        local_field = model.linear + model.quadratic @ z
        deltas = -2.0 * z * local_field
        best = int(np.argmin(deltas))
        if deltas[best] >= -1e-12:
            break
        z[best] = -z[best]
    return z.astype(np.int8)


class _MinimizerCheck:
    """Accept test: does a candidate model keep a ground state of the original?

    Small models are settled exhaustively.  Larger models fall back to a
    sampled agreement test: the same multistart greedy descents are run on
    both models and the candidate passes when one of its best-found states is
    also a best-found state of the original.
    """

    def __init__(self, original: IsingModel) -> None:
        self.n = original.n
        self.exhaustive = self.n <= _EXHAUSTIVE_LIMIT
        if self.exhaustive:
            # all 2^n spin vectors, bit 0 as spin +1 (z = 1 - 2x)
            self._spins = 1 - 2 * _bit_table(0, 1 << self.n, self.n)
            self._original_argmin = _argmin_rows(_all_energies(original, self._spins))
        else:
            rng = np.random.default_rng(_CHECK_SEED)
            self._starts = (
                1 - 2 * rng.integers(0, 2, size=(_CHECK_STARTS, self.n))
            ).astype(np.int8)
            self._original_best = self._best_states(original)

    def _best_states(self, model: IsingModel) -> set[bytes]:
        """The lowest-energy end states of the multistart descents on ``model``."""
        states = [_greedy_descent(model, s) for s in self._starts]
        energies = np.array([ising_energy(model, s) for s in states])
        return {states[i].tobytes() for i in _argmin_rows(energies)}

    def passes(self, candidate: IsingModel) -> bool:
        if self.exhaustive:
            argmin = _argmin_rows(_all_energies(candidate, self._spins))
            return bool(argmin & self._original_argmin)
        return not self._best_states(candidate).isdisjoint(self._original_best)


# ---------------------------------------------------------------------------
# candidate moves

def _linear_entries_with_value(model: IsingModel, value: float) -> list[int]:
    return np.flatnonzero(model.linear == value).tolist()


def _shrink_extreme_moves(model: IsingModel, values: np.ndarray):
    """Shrink the largest-magnitude field entry to the runner-up magnitude."""
    mags = np.unique(np.abs(values))
    if mags.size < 2:
        return
    top, runner_up = float(mags[-1]), float(mags[-2])
    for signed in (top, -top):
        for i in _linear_entries_with_value(model, signed):
            yield ("shrink-extreme", i, math.copysign(runner_up, signed))


def _widen_gap_moves(model: IsingModel, values: np.ndarray):
    """Move one endpoint of the tightest gap toward zero until the gap equals
    the second-tightest."""
    distinct = np.unique(values)
    if distinct.size < 3:
        return
    gaps = np.diff(distinct)
    gap_sizes = np.unique(gaps)
    if gap_sizes.size < 2:
        return
    second_tightest = float(gap_sizes[1])
    k = int(np.argmin(gaps))
    lo, hi = float(distinct[k]), float(distinct[k + 1])
    if lo >= 0.0:
        # both endpoints nonnegative: pull the lower one toward zero
        target = hi - second_tightest
        lower_neighbour = float(distinct[k - 1]) if k > 0 else None
        if target >= 0.0 and (lower_neighbour is None or target > lower_neighbour):
            for i in _linear_entries_with_value(model, lo):
                yield ("widen-gap", i, target)
    elif hi <= 0.0:
        # both endpoints nonpositive: push the upper one toward zero
        target = lo + second_tightest
        upper_neighbour = float(distinct[k + 2]) if k + 2 < distinct.size else None
        if target <= 0.0 and (upper_neighbour is None or target < upper_neighbour):
            for i in _linear_entries_with_value(model, hi):
                yield ("widen-gap", i, target)
    # gap straddling zero: no move toward zero can widen it


def reduce_dynamic_range(model: IsingModel, budget: int = 100) -> TuningResult:
    """Lower a model's coefficient dynamic range by single-entry tuning.

    Up to ``budget`` (an integer >= 0) accepted steps are applied.  Each
    step rewrites one *field* coefficient toward zero — either shrinking the
    extreme-magnitude entry to the runner-up magnitude, or widening the
    tightest value gap to the second-tightest — and is kept only when the
    dynamic range strictly decreases and the ground-state check against the
    *input* model passes.  A tuned model is a copy of the input with new
    fields, so it keeps the input's type, offset and partition.  With no
    admissible move the input is returned unchanged.
    """
    budget = _integer("budget", budget, 0)
    check = _MinimizerCheck(model) if budget else None
    current = model
    steps: list[TuningStep] = []
    while len(steps) < budget:
        values = coefficient_values(current)
        before = dynamic_range(values)
        if before.degenerate:
            break
        accepted: TuningStep | None = None
        for kind, index, new_value in list(_shrink_extreme_moves(current, values)) + list(
            _widen_gap_moves(current, values)
        ):
            linear = current.linear.astype(float)
            old_value = float(linear[index])
            linear[index] = new_value
            candidate = replace(current, linear=linear)
            after = dynamic_range(coefficient_values(candidate))
            if after.bits >= before.bits:
                continue
            if not check.passes(candidate):
                continue
            accepted = TuningStep(
                entry=("h", index),
                old_value=old_value,
                new_value=new_value,
                bits_before=before.bits,
                bits_after=after.bits,
                kind=kind,
            )
            current = candidate
            break
        if accepted is None:
            break
        steps.append(accepted)
    return TuningResult(model=current, steps=tuple(steps))


# ---------------------------------------------------------------------------
# int8 quantization

@dataclass(frozen=True, kw_only=True)
class QuantizedIsing(IsingModel):
    """Ising model with int8 coefficients and the scale used to produce them.

    ``scale = 127 / alpha`` where ``alpha`` is the source model's largest
    absolute coefficient; dividing integer energies by ``scale`` recovers
    approximate source-model energies (the source offset is not carried, so
    ``offset`` is 0).  Coefficients must be integers in -128..127 and are
    stored as read-only int8; others raise ``ValueError``.  Every energy is a
    small integer, so ``ising_energy`` and ``ising_to_qubo`` treat the model
    exactly.
    """

    scale: float

    def __post_init__(self) -> None:
        coeffs = [np.asarray(self.linear), np.asarray(self.quadratic)]
        for values in coeffs:
            if np.any(values != np.round(values)):
                raise ValueError("coefficients must be integers; got non-integer values")
            if np.any((values < -128) | (values > 127)):
                raise ValueError("coefficients exceed the signed 8-bit range -128..127")
        if self.offset != 0.0:
            raise ValueError(f"quantized models carry no offset, got {self.offset!r}")
        scale = float(self.scale)
        if not (math.isfinite(scale) and scale > 0.0):
            raise ValueError(f"scale must be finite and > 0, got {scale!r}")
        super().__post_init__()
        for name, values in zip(("linear", "quadratic"), coeffs):
            values = values.astype(np.int8)
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        object.__setattr__(self, "scale", scale)


def quantize_int8(model: IsingModel) -> QuantizedIsing:
    """Scale-round-clip all coefficients into signed 8-bit integers.

    Each coefficient maps to ``clip(round(127 * x / alpha), -128, 127)`` with
    ``alpha`` the largest absolute coefficient, so the extreme entry lands on
    exactly +/-127 and anything below ``alpha / 254`` collapses to zero.
    Ties round half-to-even.  An all-zero model quantizes to zeros with
    scale 1, and so does one whose largest coefficient is so small (below
    about 7e-307) that ``127 / alpha`` overflows to infinity.
    """
    alpha = max(
        (float(np.abs(a).max()) for a in (model.linear, model.quadratic) if a.size),
        default=0.0,
    )
    if alpha == 0.0 or math.isinf(127.0 / alpha):
        alpha = 127.0  # every coefficient rounds to zero at scale 1
    lin = np.clip(np.round(127.0 * (model.linear / alpha)), -128, 127)
    quad = np.clip(np.round(127.0 * (model.quadratic / alpha)), -128, 127)
    return QuantizedIsing(
        linear=lin.astype(np.int8),
        quadratic=quad.astype(np.int8),
        scale=127.0 / alpha,
        partition=model.partition,
    )


@dataclass(frozen=True)
class QuantizationLossReport:
    """Where quantization destroyed structure.

    ``zeroed_intra``/``zeroed_inter`` split the zeroed couplings by whether
    the pair crosses a block boundary; they are None when neither model
    carries a partition.  Field coefficients count as intra-block.
    """

    zeroed_total: int
    zeroed_intra: int | None
    zeroed_inter: int | None
    max_relative_error: float


def quantization_loss_report(
    model: IsingModel, quantized: QuantizedIsing
) -> QuantizationLossReport:
    """Count nonzero source coefficients whose int8 image is zero, and the
    worst relative reconstruction error over nonzero source coefficients.

    The intra/inter split uses the partition carried by either model.
    """
    if model.n != quantized.n:
        raise ValueError("model and quantized sizes differ")
    partition = quantized.partition or model.partition
    n = model.n
    iu = np.triu_indices(n, k=1)
    src = coefficient_values(model)
    img = coefficient_values(quantized).astype(float)
    nonzero = src != 0.0
    zeroed = nonzero & (img == 0.0)
    total = int(zeroed.sum())
    if partition is None:
        intra = inter = None
    else:
        block_of = partition.block_of()
        crosses = np.concatenate(
            [np.zeros(n, dtype=bool), block_of[iu[0]] != block_of[iu[1]]]
        )
        inter = int((zeroed & crosses).sum())
        intra = total - inter
    if nonzero.any():
        recon = img / quantized.scale
        rel = np.abs(src[nonzero] - recon[nonzero]) / np.abs(src[nonzero])
        max_rel = float(rel.max())
    else:
        max_rel = 0.0
    return QuantizationLossReport(
        zeroed_total=total,
        zeroed_intra=intra,
        zeroed_inter=inter,
        max_relative_error=max_rel,
    )
