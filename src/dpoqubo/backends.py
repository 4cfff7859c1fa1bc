"""Uniform solver interface: exact enumeration, two stochastic heuristics,
and an adapter that reproduces a signed-8-bit analog device's coefficient
pipeline in software.

Every backend is a deterministic function of ``(model, seed, effort)`` and
returns the best assignment it saw together with that assignment's energy
under the submitted model, evaluated once in full precision by the shared
solve skeleton — so a reported energy is exactly the re-evaluation of its
assignment.

Models may be ``Qubo`` or ``IsingModel``, an int8 ``QuantizedIsing``
included; Ising models are canonicalized to an equivalent QUBO internally
(bit convention ``z = 1 - 2x``), which changes no minimizer and no reported
energy.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import re
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from collections import deque
from dataclasses import dataclass, replace
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from .precision import QuantizedIsing, quantize_int8, reduce_dynamic_range
from .qubo import IsingModel, Model, Qubo, _bit_table, _integer, _row_spans, as_bits
from .qubo import ising_to_qubo, qubo_energy, qubo_to_ising

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

class BackendError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveRequest:
    """A model plus the reproducibility knobs: seed and countable effort.

    ``seed`` is an integer >= 0.  ``effort`` is an integer >= 1 and
    backend-specific (sweeps for annealing, the most iterations tabu search
    runs, ignored by enumeration) and is set only here; None means the
    backend's default.  Tabu search stops early at the first repeat of its
    assignment and remaining tenures that its cycle detection finds.
    """

    model: Model
    seed: int = 0
    effort: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        if self.effort is not None:
            object.__setattr__(self, "effort", _integer("effort", self.effort, 1))


def _spawn_seed(seed: int, *key: int) -> int:
    """The request seed at position ``key`` under ``seed``: numpy's
    ``SeedSequence`` spawn-key derivation, so distinct ``(seed, key)`` give
    independent streams, cut to 63 bits so it is a non-negative int.  The
    ``uint64`` becomes a Python int before the shift, which numpy 1.x would
    otherwise promote to float64."""
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)
    return int(state[0]) >> 1


@dataclass(frozen=True)
class SolveResult:
    """A read-only binary assignment and its energy under the submitted
    model; an assignment that is not a 1-D vector of 0/1 is rejected."""

    assignment: np.ndarray
    reported_energy: float

    def __post_init__(self) -> None:
        bits = as_bits(self.assignment)
        bits.setflags(write=False)
        object.__setattr__(self, "assignment", bits)


def canonical_qubo(model: Model) -> Qubo:
    """Any supported model as an energy-equivalent QUBO.

    Quantized models convert at face (integer) value, so their energies stay
    in integer units.
    """
    if isinstance(model, Qubo):
        return model
    if isinstance(model, IsingModel):
        return ising_to_qubo(model)
    raise TypeError(f"unsupported model type {type(model).__name__}")


class _Solver:
    """The solve skeleton of every backend: canonicalize the model once, let
    the backend's ``_search(q, request)`` return its best assignment, and
    score that assignment with ``qubo_energy`` in full precision.  The
    running energies a search keeps steer it but are never reported, so
    their rounding cannot reach a result.  A model with no variables has the
    empty assignment, and ``_search`` never sees it."""

    name: str

    def solve(self, request: SolveRequest) -> SolveResult:
        q = canonical_qubo(request.model)
        assignment = self._search(q, request) if q.n else np.zeros(0)
        return SolveResult(assignment=assignment, reported_energy=qubo_energy(q, assignment))


def _random_start(q: Qubo, rng: np.random.Generator):
    """A uniformly random assignment, its gradient ``Q x`` and its energy
    ``x' Q x`` without the offset: the start of both stochastic searches."""
    start = rng.integers(0, 2, size=q.n).astype(float)
    grad = q.coeffs @ start
    return start, grad, float(start @ grad)


def _span_views(lo, hi, matrix: np.ndarray, *vectors: np.ndarray) -> list:
    """Per row ``i`` of ``matrix``, a tuple of that row and then each of
    ``vectors``, all cut to columns ``[lo[i], hi[i])``.  A span over every
    column takes the row whole and the vectors themselves, so a dense model
    builds no vector views."""
    n = matrix.shape[1]
    return [
        (row, *vectors) if h - l == n else (row[l:h], *(v[l:h] for v in vectors))
        for row, l, h in zip(matrix, lo.tolist(), hi.tolist())
    ]


# enumeration limits: the largest model enumerated, and the number of
# assignments scored per vectorized chunk (a 1 MB float buffer; at 24 bits
# that is 32 high-half rows of 4,096 low-half assignments)
_EXHAUSTIVE_CAP = 24
_EXHAUSTIVE_CHUNK = 1 << 17


class ExhaustiveSolver(_Solver):
    """Global minimizer by full enumeration of at most 24 variables; ties go
    to the lowest binary value of the assignment (bit i weighted 2**i).

    Enumeration is by a split product: with the low ``k = n // 2`` bits in
    ``L`` and the rest in ``H``, ``E(x) = E_L(x_L) + E_H(x_H) + 2 x_L' Q_LH
    x_H``, so the cross terms of a chunk of high-half assignments are one
    matrix product ``B_H[chunk] @ (2 B_L @ Q_LH)'`` over the two halves' bit
    tables, and the half energies add by broadcast.  A row-major ``argmin``
    over ``[high, low]`` visits counters in ascending order, and only a
    strict improvement replaces the best, which gives the tie rule.  On
    integer-valued models whose sums stay below 2**53 in magnitude, every
    int8 image included, all these sums are exact, so the minimizer is that
    of scoring each assignment whole; on float models the energies round
    differently, and two assignments within rounding of each other may
    swap."""

    name = "exhaustive"

    def _search(self, q: Qubo, request: SolveRequest):
        n = q.n
        if n > _EXHAUSTIVE_CAP:
            raise BackendError(
                f"exhaustive enumeration capped at {_EXHAUSTIVE_CAP} variables, model has {n}"
            )
        k = n // 2
        low = _bit_table(0, 1 << k, k).astype(float)
        high = _bit_table(0, 1 << (n - k), n - k).astype(float)
        c = q.coeffs
        low_energy = ((low @ c[:k, :k]) * low).sum(axis=1)
        high_energy = ((high @ c[k:, k:]) * high).sum(axis=1)
        cross = (2.0 * low @ c[:k, k:]).T
        rows = max(1, _EXHAUSTIVE_CHUNK >> k)
        best_energy = np.inf
        best_counter = 0
        for h in range(0, 1 << (n - k), rows):
            energies = high[h : h + rows] @ cross
            energies += high_energy[h : h + rows, None]
            energies += low_energy
            i = int(np.argmin(energies))
            # ascending counter order makes the first strict improvement the
            # lowest-binary-value tie winner overall
            if energies.flat[i] < best_energy:
                best_energy = float(energies.flat[i])
                best_counter = (h << k) + i
        return _bit_table(best_counter, best_counter + 1, n)[0]


# geometric cooling factor applied to the annealing temperature after each sweep
_SA_COOLING = 0.97
# annealing proposals drawn per bulk call of each random stream, which bounds
# the draws held at once
_SA_DRAW_CHUNK = 2048


def _draw_chunks(rng, accept_rng, n: int, sweeps: int):
    """Yield the draws of ``sweeps`` sweeps, about ``_SA_DRAW_CHUNK``
    proposals at a time, as pairs of ``(k, n)`` arrays: proposal indices
    below ``n`` from ``rng`` and accept draws from ``accept_rng``, one row
    per sweep."""
    per_chunk = max(1, _SA_DRAW_CHUNK // n)
    for first in range(0, sweeps, per_chunk):
        size = (min(per_chunk, sweeps - first), n)
        yield rng.integers(0, n, size=size), accept_rng.random(size=size)


@functools.cache
def _anneal_kernel():
    """The annealing loop of ``_anneal.c`` as a ctypes function, compiled on
    first use with the interpreter's C compiler into a private temporary
    directory that is removed once the library is loaded.  None on a 32-bit
    build or when any step fails; annealing then runs the span loop."""
    if sys.maxsize < 2**63 - 1:
        return None
    source = os.path.join(os.path.dirname(__file__), "_anneal.c")
    try:
        compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
        with tempfile.TemporaryDirectory() as tmp:
            library = os.path.join(tmp, "_anneal.so")
            flags = ["-O2", "-shared", "-fPIC", "-ffp-contract=off", "-o", library]
            subprocess.run(
                [*compiler, *flags, source, "-lm"], check=True, capture_output=True, timeout=60
            )
            kernel = ctypes.CDLL(library).anneal
    except (OSError, ValueError, subprocess.SubprocessError):
        return None
    kernel.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 11
    kernel.restype = None
    return kernel


class SimulatedAnnealingSolver(_Solver):
    """Single-flip Metropolis with a geometric cooling schedule.

    Each sweep proposes ``n`` uniformly random flips at its own temperature;
    the best assignment ever visited is returned.  The schedule is built once
    per solve, as the running product ``t0, t0 * 0.97, (t0 * 0.97) * 0.97,
    ...``, one temperature per sweep.  ``t0`` is ``n * max|Q|`` (at least
    1e-12), matched to the scale of single-flip energy changes.  A request's
    ``effort`` sets the number of sweeps, 200 by default.

    The proposals come from the request's generator and the accept draws
    from a second stream, a jump of it made after the random start.  Each
    stream is drawn in chunks of about 2048 proposals, one
    ``rng.integers(0, n, size=(chunk, n))`` and one ``random(size=(chunk,
    n))`` call per chunk.  A generator that draws one kind of value hands out
    the same sequence however its calls are cut, so the result does not
    depend on the chunk size: it is that of per-sweep calls.  An uphill move
    is accepted when its draw is below ``exp(-delta / T)``.  On an
    overflowed model a delta can be NaN, or infinite at an infinite
    temperature, which makes the exponent NaN; a NaN fails every comparison,
    so such a move is rejected.  The flip delta is ``d + 2g`` for a bit at 0
    and ``-(d + 2(g - d))`` for a bit at 1 (``d`` the diagonal entry, ``g``
    the gradient entry): the float operations of ``sign * (d + 2(g - d x))``
    without the multiplies by ``sign`` and ``x``, which can change only the
    sign of a zero delta, and a zero delta is accepted either way.

    An accepted flip of bit ``i`` adds or subtracts row ``i`` only on its
    nonzero column span ``[lo_i, hi_i)``, found once per solve from the
    coefficients (``_row_spans``); the DPO model couples only adjacent time
    intervals, so at 528 bits a span is about a tenth of the row.  A skipped
    entry would add ``±0.0``, which leaves every gradient entry's value as it
    is and can change at most the sign of a zero.  That sign reaches only
    the sign of a zero delta or a zero energy, which no comparison reads, and
    the returned assignment is scored afresh, so the result is bit for bit
    that of full-row updates.  A dense row's span is the whole row, and the
    flip then updates the whole gradient as before.

    The proposal loop runs in C (``_anneal.c``), one call per chunk of
    draws, at about 35-75 ns per proposal on a 2-core x86-64 host, against
    about 0.5-0.7 us for the same loop in Python.  The kernel is compiled
    with the system C compiler on the first anneal of a process, in about
    0.1 s, not at import, and kept for the life of the process.  Where it
    cannot be built or loaded (no compiler, a 32-bit build) the loop runs in
    Python, with the same result.  The kernel is bit for bit that loop: it
    does the same IEEE binary64 operations in the same order, the random
    start, gradient, schedule and draws come from the same numpy calls, and
    the exponential is the C library's ``exp``, which ``math.exp`` calls.
    It is compiled with ``-ffp-contract=off`` and without ``-ffast-math``,
    so no product and sum fuse into one rounding and nothing is reordered.
    """

    name = "sa"
    sweeps = 200

    def _search(self, q: Qubo, request: SolveRequest):
        n = q.n
        rng = np.random.default_rng(request.seed)
        sweeps = request.effort or self.sweeps
        coeffs = q.coeffs
        max_abs = float(max(coeffs.max(), -coeffs.min()))  # max|Q| without an n x n temporary

        start, grad, energy = _random_start(q, rng)
        accept_rng = np.random.Generator(rng.bit_generator.jumped())
        t0 = max(n * max_abs, 1e-12)
        temperatures = list(accumulate(repeat(_SA_COOLING, sweeps - 1), mul, initial=t0))
        chunks = _draw_chunks(rng, accept_rng, n, sweeps)
        lo, hi = _row_spans(coeffs)
        kernel = _anneal_kernel()
        if kernel is not None:
            # the kernel reads and updates C-contiguous float64 and int64
            # arrays in place (a Qubo's matrix is one, the draws are numpy's
            # default dtypes): the assignment, its gradient, the best
            # assignment and the pair (energy, best energy).  A chunk's
            # first temperature is 8 bytes per sweep past the first
            best, energies = start.copy(), np.array([energy, energy])
            temps = np.array(temperatures)
            spans = [a.astype(np.int64, copy=False) for a in (lo, hi)]
            state = [coeffs, coeffs.diagonal().copy(), *spans, start, grad, best, energies]
            addresses = [a.ctypes.data for a in state]
            first = temps.ctypes.data
            for indices, accepts in chunks:
                kernel(n, len(indices), indices.ctypes.data, accepts.ctypes.data, first, *addresses)
                first += 8 * len(indices)
            return best
        # the proposal loop runs on Python floats, which round exactly as
        # numpy's float64 scalars do; the memoryview reads the gradient's
        # doubles as floats and follows its in-place updates.  Row i is
        # column i of the symmetric matrix, so a flip adds or subtracts the
        # nonzero span of one contiguous row
        x, diag = start.tolist(), np.diag(coeffs).tolist()
        span_views = _span_views(lo, hi, coeffs, grad)
        g = memoryview(grad)
        exp = math.exp
        best_energy, best_x = energy, x.copy()
        draws = (sweep for i, u in chunks for sweep in zip(i.tolist(), u.tolist()))

        for temperature, (indices, accepts) in zip(temperatures, draws):
            for i, u in zip(indices, accepts):
                d, x_i = diag[i], x[i]
                if x_i:
                    delta = -(d + 2.0 * (g[i] - d))
                else:
                    delta = d + 2.0 * g[i]
                if not delta <= 0.0 and not u < exp(-delta / temperature):
                    continue  # uphill, or NaN, and not accepted
                row, grad_span = span_views[i]
                if x_i:
                    x[i] = 0.0
                    grad_span -= row
                else:
                    x[i] = 1.0
                    grad_span += row
                energy += delta
                if energy < best_energy:
                    best_energy, best_x = energy, x.copy()
        return np.array(best_x)


class TabuSolver(_Solver):
    """Steepest single-flip search with a fixed-tenure tabu list.

    Every iteration flips the lowest-delta admissible bit (ties to the lowest
    index), even uphill; a flipped bit stays tabu for ``tenure`` iterations
    unless undoing it would beat the best energy seen (aspiration).  The
    tenure is ``max(7, n // 10)``.  A request's ``effort`` sets the most
    iterations run; ``iterations = None`` means the default, ``100 * n``.

    The move is found without building an admissibility mask.  If the
    unmasked argmin (lowest delta, lowest index) is admissible, it is the
    move.  If it is tabu and does not aspirate, no tabu bit aspirates,
    because ``energy + delta`` is monotone in ``delta``; the move is then the
    argmin over the non-tabu bits, or the unmasked argmin when every bit is
    tabu.  Both cases pick the bit a full mask would pick.

    The flip deltas ``sign * (diag + 2 * (grad - diag * x))`` are evaluated
    as ``(grad - dx) * sign2 + sdiag`` from vectors ``dx = diag * x``,
    ``sign2 = 2 * sign`` and ``sdiag = sign * diag``.  A product by ``±2``
    and a negation are exact, overflow included, and rounding is symmetric,
    so these are the floats of the plain form on every finite model, up to
    the sign of a zero delta, which no comparison reads.

    A flip of bit ``i`` touches only row ``i``'s nonzero column span
    ``[lo_i, hi_i)``, found once per solve from the coefficients and widened
    to include ``i`` (``_row_spans``): ``grad ±= row`` runs on the span, and
    the three delta ufuncs recompute the deltas only there, since ``dx``,
    ``sign2`` and ``sdiag`` change only at ``i``.  The whole delta vector is
    computed once, before the first iteration.  A skipped entry would add
    ``±0.0``, which leaves its value as it is and can change at most the
    sign of a zero gradient entry, and through it the sign of a zero delta
    or energy.  No comparison, argmin, ``maximum`` or aspiration test reads
    that sign, and the returned assignment is scored afresh, so the result
    is bit for bit that of full-vector updates.  A dense row's span is the
    whole vector, and the iteration then updates whole vectors as before.

    The search stops at the first repeat of its discrete state that Brent's
    cycle detection (BIT 20, 176-184, 1980) finds.  The state at the top of
    an iteration is the assignment and each bit's remaining tenure.  One
    state is marked, re-marked at iterations 1, 2, 4, 8, ..., and kept as a
    copy of the assignment list and of the tenures; the tenures are compared
    only when the assignment equals the mark's.  At the first
    iteration whose state equals the mark's, the search returns the best
    assignment it has seen; it compares no floats.  So the result is the
    plain loop's trajectory up to that repeat.  Running on could pick
    differently only where the floats (the gradient, the energy and the best
    energy) have moved since the mark: by ulp drift around the cycle on a
    float model, or by a best energy lowered within the cycle, which can
    cancel a later aspiration.  Where they have not moved, the search would
    retrace the cycle for good.
    """

    name = "tabu"
    iterations = None

    def _search(self, q: Qubo, request: SolveRequest):
        n = q.n
        rng = np.random.default_rng(request.seed)
        iterations = request.effort or self.iterations or 100 * n
        tenure = max(7, n // 10)
        coeffs = q.coeffs
        diag = np.diag(coeffs)

        start, grad, energy = _random_start(q, rng)
        # flip deltas are sign * (diag + 2 * (grad - diag * x)), evaluated
        # as (grad - dx) * sign2 + sdiag into one buffer; dx = diag * x,
        # sign2 = 2 * sign and sdiag = sign * diag change in one element per
        # flip, and row i of the symmetric matrix is column i
        x, diag_at = start.tolist(), diag.tolist()
        best_energy, best_x = energy, x.copy()
        sign = 1.0 - 2.0 * start
        sign2, sdiag, dx = 2.0 * sign, sign * diag, diag * start
        # the whole delta vector once; each iteration leaves it up to date
        # for the next
        deltas = (grad - dx) * sign2 + sdiag
        masked = np.empty(n)
        # a flip of bit i moves grad on row i's nonzero span and its own
        # delta through dx, sign2 and sdiag, so its deltas are recomputed on
        # that span, which includes i
        span_views = _span_views(*_row_spans(coeffs), coeffs, grad, dx, sign2, sdiag, deltas)
        subtract, maximum = np.subtract, np.maximum
        argmin, delta_at, masked_argmin = deltas.argmin, deltas.item, masked.argmin
        # max(deltas, floor) is deltas with every tabu bit raised to +inf
        floor = np.full(n, -np.inf)
        expires = [0] * n  # iteration at which tabu ends
        recent: deque[int] = deque(maxlen=tenure + 1)  # bits flipped lately, oldest first
        n_tabu = 0
        # Brent's cycle detection: the state marked at the top of an
        # iteration is re-marked at mark_at, and each re-mark doubles the
        # span to the next; no assignment equals None, so the search stops
        # at no repeat before the first mark
        mark_at, span, mark_x = 1, 1, None
        for it in range(iterations):
            if it > tenure:
                b = recent[0]  # flipped in iteration it - tenure - 1
                if expires[b] == it:
                    floor[b] = -np.inf
                    n_tabu -= 1
            if x == mark_x and [max(e - it, 0) for e in expires] == mark_tenures:
                break  # the discrete state repeats
            if it == mark_at:
                mark_at, span, mark_x = it + span, 2 * span, x.copy()
                mark_tenures = [max(e - it, 0) for e in expires]
            i = int(argmin())
            delta = delta_at(i)
            if expires[i] > it and not energy + delta < best_energy - 1e-12 and n_tabu < n:
                # no tabu bit aspirates, since energy + delta is monotone in
                # delta: take the best non-tabu bit, if there is one
                maximum(deltas, floor, out=masked)
                i = int(masked_argmin())
                delta = delta_at(i)
            x_i = x[i]
            s = 1.0 - 2.0 * x_i
            x[i] = x_i + s
            row, grad_span, dx_span, sign2_span, sdiag_span, deltas_span = span_views[i]
            if s > 0.0:
                grad_span += row
            else:
                grad_span -= row
            energy += delta
            dx[i] = diag_at[i] * x[i]
            sign2[i] = -2.0 * s
            sdiag[i] = -s * diag_at[i]
            subtract(grad_span, dx_span, out=deltas_span)
            deltas_span *= sign2_span
            deltas_span += sdiag_span
            if expires[i] <= it:
                floor[i] = np.inf
                n_tabu += 1
            expires[i] = it + 1 + tenure
            recent.append(i)
            if energy < best_energy:
                best_energy, best_x = energy, x.copy()
        return np.array(best_x)


class FinitePrecisionAdapter(_Solver):
    """Emulate a device restricted to signed 8-bit coefficients.

    A submitted ``Qubo`` is converted to spins once, and a spin model is
    taken as submitted, with no round trip through a QUBO, whose rounding
    would move its fields.  The spin model goes through dynamic-range tuning
    and int8 quantization; the wrapped backend then solves the integer model
    and the adapter returns its assignment, which the solve skeleton scores
    on the *submitted* model like any other, so quantization error shows up
    in solution quality, never in bookkeeping.  A submitted
    ``QuantizedIsing`` reaches the wrapped backend unchanged, and any other
    type raises ``TypeError``.

    The integer model is built once per submitted object, whatever its type,
    and kept in the object's instance ``__dict__``, the way
    ``functools.cached_property`` keeps a value on a frozen dataclass.  Every
    adapter that is later given the same object reuses it, and it lives
    exactly as long as the object does.  Models are immutable, so the reuse
    is exact; a ``dataclasses.replace`` copy is a new object and is tuned
    again.  Block coordinate descent submits one subproblem object for all
    repeats of a visit, so a visit tunes once, not once per repeat, and the
    int8 cells of a strategy matrix share one encoded model, so they tune it
    once between them.  The adapter itself holds no state.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.name = f"int8({inner.name})"

    def quantize(self, model: Model) -> QuantizedIsing:
        """The integer model the inner backend would see for ``model``."""
        if isinstance(model, QuantizedIsing):
            return model
        if not isinstance(model, (Qubo, IsingModel)):
            raise TypeError(
                f"unsupported model type {type(model).__name__}: expected a Qubo,"
                " an IsingModel or a QuantizedIsing"
            )
        kept = model.__dict__
        if "_int8_image" not in kept:
            spins = qubo_to_ising(model) if isinstance(model, Qubo) else model
            kept["_int8_image"] = quantize_int8(reduce_dynamic_range(spins).model)
        return kept["_int8_image"]

    def _search(self, q: Qubo, request: SolveRequest):
        return self.inner.solve(replace(request, model=self.quantize(request.model))).assignment


_BASE_BACKENDS = {
    "exhaustive": ExhaustiveSolver,
    "sa": SimulatedAnnealingSolver,
    "tabu": TabuSolver,
}


def make_backend(name: str):
    """Build a backend from its name: ``exhaustive | sa | tabu``, each
    optionally wrapped once as ``int8(<name>)``."""
    if not isinstance(name, str):
        raise TypeError(f"name must be a backend name string, got {name!r}")
    name = name.strip()
    wrapped = re.fullmatch(r"int8\((.+)\)", name)
    base = wrapped.group(1).strip() if wrapped else name
    if base not in _BASE_BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected {' | '.join(_BASE_BACKENDS)}, "
            "optionally wrapped once as int8(<name>)"
        )
    backend = _BASE_BACKENDS[base]()
    return FinitePrecisionAdapter(backend) if wrapped else backend
