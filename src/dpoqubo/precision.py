"""Coefficient conditioning for signed 8-bit solver targets.

Three stages, usable independently:

1. :func:`dynamic_range` measures, in bits, how far apart the largest and
   smallest nonzero absolute differences between coefficient values sit.
   A model whose dynamic range exceeds the target word length loses its
   weakest structure when quantized.
2. :func:`reduce_dynamic_range` performs conservative single-entry tuning:
   one field coefficient at a time is nudged toward zero, and the step is
   kept only when the dynamic range strictly drops *and* the model's set of
   ground states still contains a ground state of the original model.  One
   descent check decides this: greedy descents on both models start from
   every spin vector up to 12 spins, which makes the check exact, and from
   64 seeded random vectors above, where it is a multistart agreement test.
3. :func:`quantize_int8` maps coefficients to integers in [-128, 127] via
   scale-round-clip with the maximum absolute coefficient pinned to 127.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .qubo import IsingModel, _bit_table, _freeze, _frozen_matrix, _integer, _row_spans

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

def _require_ising(model) -> None:
    """Every stage here reads a spin model's fields; name any other type."""
    if not isinstance(model, IsingModel):
        raise TypeError(
            f"unsupported model type {type(model).__name__}: expected an IsingModel"
            " (convert a Qubo with qubo_to_ising)"
        )


def _upper_triangle(matrix: np.ndarray) -> np.ndarray:
    """The entries ``(i, j)`` with ``i < j`` of a square matrix, in row
    order.  A boolean mask selects them: at 528 spins it takes 0.28 MB,
    where the two int64 arrays of ``np.triu_indices`` take 2.2 MB."""
    index = np.arange(matrix.shape[0])
    return matrix[index[:, None] < index]


def coefficient_values(model) -> np.ndarray:
    """Every free coefficient of an Ising model as one flat array: the fields
    in index order, then the couplings ``(i, j)`` with ``i < j`` in row order.
    Each unordered pair appears once."""
    _require_ising(model)
    return np.concatenate([model.linear, _upper_triangle(model.quadratic)])


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


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of a float array, kept from the first of
    each run of equal sorted values: ``np.unique``'s sort-and-compare, which
    on floats keeps the same one of -0.0 and 0.0, without its masked-array
    check, which imports ``numpy.ma``."""
    ordered = np.sort(values, axis=None)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def dynamic_range(values) -> DynamicRange:
    """Measure the dynamic range of a coefficient array in bits.

    Differences are taken between *distinct* values, so the largest is the
    range and the smallest is the tightest gap between adjacent sorted
    values; zero values participate, zero differences never occur.  A
    non-finite value raises ``ValueError``.
    """
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("values contain non-finite entries")
    distinct = _distinct(values)
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

# models up to this many spins start the check from every spin vector;
# larger ones from the seeded random starts below
_EXHAUSTIVE_LIMIT = 12
_CHECK_SEED = 0
_CHECK_STARTS = 64


def _all_energies(model: IsingModel, spins: np.ndarray) -> np.ndarray:
    z = spins.astype(float)
    pair = np.einsum("ij,ij->i", z @ model.quadratic, z)
    return model.offset + z @ model.linear + 0.5 * pair


def _argmin_rows(energies: np.ndarray) -> frozenset[int]:
    emin = energies.min()
    tol = 1e-9 * (1.0 + abs(emin))
    return frozenset(np.flatnonzero(energies <= emin + tol).tolist())


def _greedy_descents(model: IsingModel, starts: np.ndarray) -> np.ndarray:
    """Steepest single-flip descent of every row of ``starts`` to a local
    minimum, all rows at once.

    The local fields ``linear + Z @ quadratic`` are computed once; a flip of
    spin ``j`` in one row then adds ``2 * z_j * quadratic[j]`` to that row's
    fields only.  Each step flips, in every row still descending, the spin
    with the most negative flip delta, and a row stops once no delta is below
    ``-1e-12`` or after ``10 * n + 10`` steps.  The updated fields round
    differently from a fresh matrix-vector product, so two flip deltas that
    agree to float rounding can break their tie differently from a
    one-start-at-a-time descent; with integer-valued coefficients every sum
    is exact and the end states are the same.

    A flip of spin ``j`` touches only a window of ``width`` columns that
    holds row ``j``'s nonzero span (``_row_spans``), ``width`` being the
    widest span: the fields are updated there, and the flip deltas
    ``-2 * z * field``, kept for every row, are recomputed there.  A skipped
    entry would add ``±0.0``, which can change only the sign of a zero field
    and, through it, of a zero delta.  Neither the ``-1e-12`` test nor
    ``argmin`` reads that sign, so the end states are bit for bit those of
    whole-row updates.
    """
    z = starts.astype(float)
    quadratic = np.asarray(model.quadratic, dtype=float)
    field = model.linear + z @ quadratic
    n = model.n
    lo, hi = _row_spans(quadratic)
    width = int(np.max(hi - lo, initial=0))
    # window j is columns [first[j], first[j] + width), inside the row;
    # indexing a window view by distinct rows writes no element twice
    first = np.minimum(lo, n - width)
    quadratic_w = sliding_window_view(quadratic, width, axis=1)[np.arange(n), first]
    deltas = -2.0 * z * field
    z_w, field_w, deltas_w = (
        sliding_window_view(a, width, axis=1, writeable=True) for a in (z, field, deltas)
    )
    rows = np.arange(z.shape[0])
    for _ in range(10 * n + 10):
        active = deltas[rows]
        best = active.argmin(axis=1)
        descending = active[np.arange(rows.size), best] < -1e-12
        rows, best = rows[descending], best[descending]
        if not rows.size:
            break
        z[rows, best] = -z[rows, best]
        at = rows, first[best]
        field_w[at] += 2.0 * z[rows, best][:, None] * quadratic_w[best]
        deltas_w[at] = -2.0 * z_w[at] * field_w[at]
    return z.astype(np.int8)


class _MinimizerCheck:
    """Accept test: does a candidate model keep a ground state of the original?

    The same starts descend on both models as one batched greedy descent
    (:func:`_greedy_descents`), and the candidate passes when one of its best
    end states is also a best end state of the original.  Up to
    ``_EXHAUSTIVE_LIMIT`` spins every spin vector is a start and the check is
    exact: no flip lowers a ground state's energy by more than ``1e-12``, so
    each ground state ends where it starts and the lowest end-state energy is
    the global minimum.  The best end states are then the enumerated ground
    states less any that lie within the ``1e-9`` relative tolerance yet still
    have a downhill flip; such a state descends into the set.  Larger models
    start from ``_CHECK_STARTS`` seeded random vectors.
    """

    def __init__(self, original: IsingModel) -> None:
        n = original.n
        if n <= _EXHAUSTIVE_LIMIT:
            bits = _bit_table(0, 1 << n, n)
        else:
            bits = np.random.default_rng(_CHECK_SEED).integers(0, 2, size=(_CHECK_STARTS, n))
        self._starts = (1 - 2 * bits).astype(np.int8)  # bit 0 as spin +1
        self._original_best = self._best_states(original)

    def _best_states(self, model: IsingModel) -> set[bytes]:
        """The lowest-energy end states of the multistart descents on ``model``."""
        states = _greedy_descents(model, self._starts)
        return {states[i].tobytes() for i in _argmin_rows(_all_energies(model, states))}

    def passes(self, candidate: IsingModel) -> bool:
        return not self._best_states(candidate).isdisjoint(self._original_best)


# ---------------------------------------------------------------------------
# candidate moves

def _linear_entries_with_value(model: IsingModel, value: float) -> list[int]:
    return np.flatnonzero(model.linear == value).tolist()


def _shrink_extreme_moves(model: IsingModel, values: np.ndarray):
    """Shrink the largest-magnitude field entry to the runner-up magnitude."""
    mags = _distinct(np.abs(values))
    if mags.size < 2:
        return
    top, runner_up = float(mags[-1]), float(mags[-2])
    for signed in (top, -top):
        for i in _linear_entries_with_value(model, signed):
            yield ("shrink-extreme", i, math.copysign(runner_up, signed))


def _widen_gap_moves(model: IsingModel, values: np.ndarray):
    """Move one endpoint of the tightest gap toward zero until the gap equals
    the second-tightest."""
    distinct = _distinct(values)
    if distinct.size < 3:
        return
    gaps = np.diff(distinct)
    gap_sizes = _distinct(gaps)
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

    Only fields move, so the distinct coupling values are sorted once per
    call; the range and both move rules read only the set of values, which
    the fields and the distinct couplings give in full.  A candidate model is
    built only for a move whose range drops: the one the ground-state check
    tests.  The check is built at the first such move.
    """
    _require_ising(model)
    budget = _integer("budget", budget, 0)
    # read as float, so a QuantizedIsing's int8 -128 keeps its magnitude
    # under np.abs and its gaps under np.diff
    couplings = _distinct(_upper_triangle(model.quadratic).astype(float))
    check: _MinimizerCheck | None = None
    current = model
    steps: list[TuningStep] = []
    while len(steps) < budget:
        values = np.concatenate([current.linear, couplings])
        before = dynamic_range(values)
        if before.degenerate:
            break
        moves = chain(_shrink_extreme_moves(current, values), _widen_gap_moves(current, values))
        for kind, index, new_value in moves:
            linear = current.linear.astype(float)
            linear[index] = new_value
            after = dynamic_range(np.concatenate([linear, couplings]))
            if after.bits >= before.bits:
                continue
            candidate = replace(current, linear=linear)
            if check is None:
                check = _MinimizerCheck(model)
            if not check.passes(candidate):
                continue
            steps.append(
                TuningStep(
                    entry=("h", index),
                    old_value=float(current.linear[index]),
                    new_value=new_value,
                    bits_before=before.bits,
                    bits_after=after.bits,
                    kind=kind,
                )
            )
            current = candidate
            break
        else:
            break
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
    stored as read-only int8; others raise ``ValueError``.  An int8 coupling
    matrix is checked as it is and kept under :class:`IsingModel`'s
    keep-or-copy rule with int8 in place of float64, so it is never widened;
    any other is checked as floats and then converted once.  Every energy is
    a small integer, so ``ising_energy`` and ``ising_to_qubo`` treat the
    model exactly.
    """

    scale: float

    def __post_init__(self) -> None:
        linear, quadratic = np.asarray(self.linear), np.asarray(self.quadratic)
        for values in (linear, quadratic):
            if values.dtype == np.int8:
                continue  # integers in range by type
            if np.any(values != np.round(values)):
                raise ValueError("coefficients must be integers; got non-integer values")
            if np.any((values < -128) | (values > 127)):
                raise ValueError("coefficients exceed the signed 8-bit range -128..127")
        if self.offset != 0.0:
            raise ValueError(f"quantized models carry no offset, got {self.offset!r}")
        scale = float(self.scale)
        if not (math.isfinite(scale) and scale > 0.0):
            raise ValueError(f"scale must be finite and > 0, got {scale!r}")
        if quadratic.dtype == np.int8:
            j = _frozen_matrix(quadratic, "quadratic", self.partition, np.int8)
        else:
            super().__post_init__()
            linear, j = self.linear, _freeze(self.quadratic.astype(np.int8))
        self._store(linear.astype(np.int8), j)
        object.__setattr__(self, "scale", scale)


# coefficients rounded per float buffer when quantizing (a 128 KB buffer)
_ROUND_CHUNK = 1 << 14


def _scale_round_clip(a: np.ndarray, alpha: float) -> np.ndarray:
    """``clip(round(127 * (a / alpha)), -128, 127)`` as read-only int8,
    rounded in chunks of rows of about ``_ROUND_CHUNK`` coefficients, each
    in one float buffer written into the int8 result: a product's rounding
    does not depend on the order of its factors, so ``(a / alpha) * 127`` in
    place is the same float, and every entry is rounded on its own, so the
    chunks give the bytes of one whole-array buffer."""
    out = np.empty(a.shape, dtype=np.int8)
    rows = max(1, _ROUND_CHUNK // max(1, math.prod(a.shape[1:])))
    for first in range(0, len(a), rows):
        chunk = a[first : first + rows] / alpha
        chunk *= 127.0
        np.round(chunk, out=chunk)
        np.clip(chunk, -128, 127, out=chunk)
        out[first : first + rows] = chunk
    return _freeze(out)


def quantize_int8(model: IsingModel) -> QuantizedIsing:
    """Scale-round-clip all coefficients into signed 8-bit integers.

    Each coefficient maps to ``clip(round(127 * x / alpha), -128, 127)`` with
    ``alpha`` the largest absolute coefficient, so the extreme entry lands on
    exactly +/-127 and anything below ``alpha / 254`` collapses to zero.
    Ties round half-to-even.  An all-zero model quantizes to zeros with
    scale 1, and so does one whose largest coefficient is so small (below
    about 7e-307) that ``127 / alpha`` overflows to infinity.
    """
    _require_ising(model)
    # max|a| without an n x n temporary, and without np.abs, which leaves an
    # int8 -128 at -128
    alpha = max(
        (max(float(a.max()), -float(a.min())) for a in (model.linear, model.quadratic) if a.size),
        default=0.0,
    )
    if alpha == 0.0 or math.isinf(127.0 / alpha):
        alpha = 127.0  # every coefficient rounds to zero at scale 1
    lin, quad = (_scale_round_clip(a, alpha) for a in (model.linear, model.quadratic))
    return QuantizedIsing(
        linear=lin,
        quadratic=quad,
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
    _require_ising(model)
    if not isinstance(quantized, QuantizedIsing):
        raise TypeError(
            f"quantized must be a QuantizedIsing, got {type(quantized).__name__}"
            " (quantize an IsingModel with quantize_int8)"
        )
    if model.n != quantized.n:
        raise ValueError("model and quantized sizes differ")
    partition = quantized.partition or model.partition
    n = model.n
    # floats, so an int8 source's -128 has the magnitude 128
    src = coefficient_values(model).astype(float, copy=False)
    img = coefficient_values(quantized).astype(float)
    nonzero = src != 0.0
    zeroed = nonzero & (img == 0.0)
    total = int(zeroed.sum())
    if partition is None:
        intra = inter = None
    else:
        block_of = partition.block_of()
        crosses = np.concatenate(
            [np.zeros(n, dtype=bool), _upper_triangle(block_of[:, None] != block_of)]
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
