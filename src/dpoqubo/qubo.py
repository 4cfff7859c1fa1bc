"""QUBO and Ising model containers with energy evaluation and structure checks.

Conventions used throughout the package:

- A QUBO is ``min_x  x^T Q x + offset`` over binary ``x_i in {0, 1}``, with
  ``Q`` stored as a full *symmetric* matrix.  The coefficient of the cross
  product ``x_i x_j`` (``i != j``) is therefore ``2 * Q[i, j]``.  Importers of
  upper-triangular formats must symmetrise first (``Qubo.from_dense`` does).
- An Ising model is ``offset + sum_i h_i z_i + sum_{i<j} J_ij z_i z_j`` over
  spins ``z_i in {-1, +1}``; each unordered pair is counted exactly once.
  ``J`` is stored symmetric with an exactly zero diagonal.
- The two forms are linked by ``x_i = (1 - z_i) / 2``, i.e. ``z = 1 - 2 x``:
  bit 0 is spin +1, bit 1 is spin -1.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence, Union

import numpy as np

__all__ = [
    "BlockPartition",
    "Qubo",
    "IsingModel",
    "Model",
    "ScaleSeparation",
    "as_bits",
    "as_spins",
    "qubo_energy",
    "qubo_energies",
    "qubo_to_ising",
    "ising_energy",
    "ising_to_qubo",
    "verify_block_tridiagonal",
    "scale_separation_report",
]


def _integer(name: str, value, minimum: int) -> int:
    """A count taken exactly: an int, or a float with no fraction, of at
    least ``minimum``; booleans and other types are rejected."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def _finite(name: str, value) -> float:
    """A real field as a float; booleans, strings and non-finite values are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class BlockPartition:
    """Ordered, contiguous, disjoint index ranges covering ``0..n``.

    ``blocks`` holds half-open ``(start, stop)`` ranges; block k covers
    indices ``start <= i < stop``.  Ranges must be nonempty, sorted
    ascending, and tile the index set with no gaps.
    """

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        blocks = tuple(
            (_integer(f"block {k} start", a, 0), _integer(f"block {k} stop", b, 0))
            for k, (a, b) in enumerate(self.blocks)
        )
        if not blocks:
            raise ValueError("partition needs at least one block")
        expected_start = 0
        for k, (start, stop) in enumerate(blocks):
            if start != expected_start:
                raise ValueError(
                    f"block {k} starts at {start}, expected {expected_start} "
                    "(blocks must be contiguous and ascending)"
                )
            if stop <= start:
                raise ValueError(f"block {k} range ({start}, {stop}) is empty")
            expected_start = stop
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "BlockPartition":
        """Build a partition from consecutive block sizes."""
        sizes = [_integer(f"block {k} size", s, 1) for k, s in enumerate(sizes)]
        bounds = list(accumulate(sizes, initial=0))
        return cls(tuple(zip(bounds, bounds[1:])))

    @property
    def n(self) -> int:
        """Total number of indices covered."""
        return self.blocks[-1][1]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(stop - start for start, stop in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def block_of(self) -> np.ndarray:
        """Block number of every index, as an array of length ``n``."""
        return np.repeat(np.arange(len(self.blocks)), self.sizes)

    def block_slice(self, k: int) -> slice:
        """Slice selecting block ``k``'s indices; ``k`` outside ``0..m-1``
        raises ``IndexError``."""
        if not 0 <= k < len(self.blocks):
            raise IndexError(f"block index {k} out of range (m={len(self.blocks)})")
        start, stop = self.blocks[k]
        return slice(start, stop)


def _frozen_matrix(
    m, name: str, partition: BlockPartition | None, dtype=np.float64
) -> np.ndarray:
    """``m`` as a read-only ``dtype`` matrix, checked to be square, finite,
    exactly symmetric and, when a partition is given, as wide as it.

    An array of ``dtype`` that is already read-only, C-contiguous and owns
    its buffer is kept as it is; every other input (a writable array, a
    read-only view of one, another dtype, a list) is copied.  A caller who
    freezes a matrix and keeps writing to it through another view, or makes
    it writable again, is outside the contract."""
    keep = (
        isinstance(m, np.ndarray)
        and not m.flags.writeable
        and m.flags.c_contiguous
        and m.flags.owndata
        and m.dtype == dtype
    )
    out = m if keep else np.array(m, dtype=dtype)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"{name} must be a square 2-D matrix, got shape {out.shape}")
    if out.dtype.kind == "f" and not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    if not np.array_equal(out, out.T):
        raise ValueError(f"{name} must be exactly symmetric")
    if partition is not None and partition.n != out.shape[0]:
        raise ValueError(f"partition covers {partition.n} indices, {name} has {out.shape[0]}")
    out.setflags(write=False)
    return out


def _freeze(m: np.ndarray) -> np.ndarray:
    """``m`` marked read-only, so a model built from it keeps it uncopied."""
    m.setflags(write=False)
    return m


def _setstate(self, state: dict) -> None:
    """Restore a pickled or deep-copied model with its arrays read-only
    again: both make writable copies of them.  The rest of the instance
    ``__dict__``, such as a cached int8 image, comes back as it was."""
    self.__dict__.update(state)
    for value in state.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


@dataclass(frozen=True)
class Qubo:
    """Symmetric-matrix QUBO with a constant offset and optional block metadata.

    Instances are immutable, so models can be shared freely.  A coefficient
    matrix that is float64, read-only, C-contiguous and owns its buffer is
    kept as it is; any other is copied and the copy marked read-only.  The
    package's builders hand over matrices of the first kind, and
    ``dataclasses.replace`` shares the source's.  A caller who freezes a
    matrix and then writes to it through another view is outside the
    contract.  Instances carry an instance ``__dict__`` (the class has no
    ``__slots__``): ``FinitePrecisionAdapter`` keeps each model's int8 image
    there, and ``copy.copy``, ``copy.deepcopy`` and pickling carry it along;
    the latter two come back with read-only arrays.
    """

    coeffs: np.ndarray
    offset: float = 0.0
    partition: BlockPartition | None = None

    __setstate__ = _setstate

    def __post_init__(self) -> None:
        c = _frozen_matrix(self.coeffs, "coeffs", self.partition)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "offset", _finite("offset", self.offset))

    @classmethod
    def from_dense(
        cls,
        matrix,
        offset: float = 0.0,
        partition: BlockPartition | None = None,
    ) -> "Qubo":
        """Build from an arbitrary square matrix, symmetrising ``(M + M^T)/2``.

        The symmetrised matrix produces the same energies as ``M`` for every
        assignment.
        """
        m = np.asarray(matrix, dtype=float)
        return cls(_freeze((m + m.T) / 2.0), offset=offset, partition=partition)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True)
class IsingModel:
    """Spin model with linear fields, pairwise couplings, and a constant offset.

    ``quadratic`` is symmetric with an exactly zero diagonal; the energy sums
    each unordered pair once (see module docstring).  ``quadratic`` follows
    :class:`Qubo`'s keep-or-copy rule: a float64, read-only, C-contiguous
    matrix that owns its buffer is kept, any other is copied, and writing to
    a kept matrix through another view is outside the contract; ``linear``
    is always copied.  Like :class:`Qubo`, instances carry an instance
    ``__dict__`` that ``FinitePrecisionAdapter`` keeps each model's int8
    image in, and come back from pickling or ``copy.deepcopy`` read-only.
    """

    linear: np.ndarray
    quadratic: np.ndarray
    offset: float = 0.0
    partition: BlockPartition | None = None

    __setstate__ = _setstate

    def __post_init__(self) -> None:
        self._store(
            np.array(self.linear, dtype=float),
            _frozen_matrix(self.quadratic, "quadratic", self.partition),
        )

    def _store(self, h: np.ndarray, j: np.ndarray) -> None:
        """Check the fields ``h`` against the checked, read-only couplings
        ``j`` and store both, ``h`` made read-only."""
        if h.ndim != 1:
            raise ValueError(f"linear must be a 1-D vector, got shape {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError("linear contains non-finite entries")
        if j.shape[0] != h.shape[0]:
            raise ValueError(
                f"linear has {h.shape[0]} entries, quadratic is {j.shape[0]}x{j.shape[1]}"
            )
        if np.any(np.diag(j) != 0.0):
            raise ValueError("quadratic coupling matrix must have a zero diagonal")
        h.setflags(write=False)
        object.__setattr__(self, "linear", h)
        object.__setattr__(self, "quadratic", j)
        object.__setattr__(self, "offset", _finite("offset", self.offset))

    @property
    def n(self) -> int:
        return self.linear.shape[0]


#: every model type a backend solves and a model file holds
Model = Union[Qubo, IsingModel]


def as_bits(x, n: int | None = None) -> np.ndarray:
    """Validate and normalise a binary assignment to an int8 vector.

    Raises ``ValueError`` on entries outside {0, 1} or on a length mismatch
    when ``n`` is given.
    """
    bits = np.asarray(x)
    if bits.ndim != 1:
        raise ValueError(f"assignment must be 1-D, got shape {bits.shape}")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("assignment entries must all be 0 or 1")
    if n is not None and bits.shape[0] != n:
        raise ValueError(f"assignment has length {bits.shape[0]}, expected {n}")
    return bits.astype(np.int8)


def as_spins(z, n: int | None = None) -> np.ndarray:
    """Validate a spin vector (+1/-1 entries) and normalise to int8."""
    spins = np.asarray(z)
    if spins.ndim != 1:
        raise ValueError(f"spin vector must be 1-D, got shape {spins.shape}")
    if not np.all((spins == 1) | (spins == -1)):
        raise ValueError("spin entries must all be +1 or -1")
    if n is not None and spins.shape[0] != n:
        raise ValueError(f"spin vector has length {spins.shape[0]}, expected {n}")
    return spins.astype(np.int8)


def _bit_table(start: int, stop: int, n: int) -> np.ndarray:
    """Rows ``start .. stop - 1`` of the table of all 2^n assignments: row
    ``c`` holds bit ``i`` of ``c`` in column ``i``, as int8."""
    counters = np.arange(start, stop, dtype=np.uint64)
    return ((counters[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(np.int8)


def _row_spans(coeffs: np.ndarray):
    """Each row's nonzero column span ``[lo, hi)`` as two integer arrays:
    the first column and one past the last column whose coefficient is not
    zero (-0.0 is zero), widened to include the row's own index, so an
    all-zero row ``i`` gets ``[i, i + 1)``.  The spans come from the
    coefficients themselves, not from a block partition, so they also
    narrow the couplings that quantization zeroes."""
    n = coeffs.shape[0]
    nonzero = coeffs != 0.0
    nonzero.flat[:: n + 1] = True
    return nonzero.argmax(axis=1), n - nonzero[:, ::-1].argmax(axis=1)


@functools.cache
def _kernels():
    """The loops of ``_kernels.c`` as a ctypes library, its ``anneal``,
    ``tabu`` and ``descend`` functions declared, compiled on first use with
    the interpreter's C compiler into a private temporary directory that is
    removed once the library is loaded, and kept for the life of the
    process.  None on a 32-bit build or when any step fails; the solvers
    and the tuning check's descent then run their Python loops."""
    if sys.maxsize < 2**63 - 1:
        return None
    source = os.path.join(os.path.dirname(__file__), "_kernels.c")
    try:
        compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
        with tempfile.TemporaryDirectory() as tmp:
            library = os.path.join(tmp, "_kernels.so")
            flags = ["-O2", "-shared", "-fPIC", "-ffp-contract=off", "-o", library]
            subprocess.run(
                [*compiler, *flags, source, "-lm"], check=True, capture_output=True, timeout=60
            )
            kernels = ctypes.CDLL(library)
    except (OSError, ValueError, subprocess.SubprocessError):
        return None
    kernels.anneal.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 11
    kernels.anneal.restype = None
    kernels.tabu.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_double] + [ctypes.c_void_p] * 9
    kernels.tabu.restype = ctypes.c_int64
    kernels.descend.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 6
    kernels.descend.restype = None
    return kernels


def _require_qubo(q) -> None:
    """Every QUBO operation reads the coefficient matrix; name any other type."""
    if not isinstance(q, Qubo):
        raise TypeError(
            f"unsupported model type {type(q).__name__}: expected a Qubo"
            " (convert an IsingModel with ising_to_qubo)"
        )


def qubo_energy(q: Qubo, x) -> float:
    """Evaluate ``x^T Q x + offset`` in full precision."""
    _require_qubo(q)
    bits = as_bits(x, q.n).astype(float)
    return float(bits @ q.coeffs @ bits) + q.offset


def qubo_energies(q: Qubo, batch) -> np.ndarray:
    """Evaluate a batch of assignments (rows of ``batch``) at once."""
    _require_qubo(q)
    xs = np.asarray(batch, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != q.n:
        raise ValueError(f"batch must have shape (m, {q.n}), got {xs.shape}")
    return np.einsum("ij,jk,ik->i", xs, q.coeffs, xs) + q.offset


def ising_energy(m: IsingModel, z) -> float:
    """Evaluate the spin energy; each unordered pair is counted once.

    With symmetric zero-diagonal ``J`` this is
    ``offset + h . z + (z^T J z) / 2``.
    """
    spins = as_spins(z, m.n).astype(float)
    pair = 0.5 * float(spins @ m.quadratic @ spins)
    return m.offset + float(m.linear @ spins) + pair


def qubo_to_ising(q: Qubo) -> IsingModel:
    """Convert a QUBO to the equivalent Ising model via ``x = (1 - z) / 2``.

    All constant terms are absorbed into the offset, so for every assignment
    ``x`` the identity ``ising_energy(result, 1 - 2x) == qubo_energy(q, x)``
    holds up to floating rounding.
    """
    c = q.coeffs
    quadratic = c / 2.0
    # c/2 is symmetric bitwise, and zeroing the diagonal keeps it so
    np.fill_diagonal(quadratic, 0.0)
    linear = -c.sum(axis=1) / 2.0
    offset = q.offset + (float(c.sum()) + float(np.trace(c))) / 4.0
    return IsingModel(
        linear=linear, quadratic=_freeze(quadratic), offset=offset, partition=q.partition
    )


def ising_to_qubo(m: IsingModel) -> Qubo:
    """Convert an Ising model to the equivalent QUBO (inverse of qubo_to_ising).

    The QUBO keeps the model's partition.  ``2 * quadratic`` with a vector
    added to its zero diagonal in place is exactly symmetric, so no
    symmetrising pass is needed.
    """
    j = m.quadratic
    coeffs = 2.0 * j
    coupling_row_sum = j.sum(axis=1)
    coeffs[np.diag_indices_from(coeffs)] += -2.0 * m.linear - 2.0 * coupling_row_sum
    offset = m.offset + float(m.linear.sum()) + float(j.sum()) / 2.0
    return Qubo(_freeze(coeffs), offset=offset, partition=m.partition)


def _require_partition(q: Qubo) -> BlockPartition:
    _require_qubo(q)
    if q.partition is None:
        raise ValueError("operation requires a block partition on the model")
    return q.partition


def verify_block_tridiagonal(q: Qubo) -> tuple[bool, list[tuple[int, int, int, int]]]:
    """Check that only adjacent blocks are coupled.

    Returns ``(ok, violations)`` where each violation is ``(p, r, i, j)``:
    a nonzero coefficient at matrix entry ``(i, j)`` inside block pair
    ``(p, r)`` with ``|p - r| > 1``.  Only the upper side (``p < r``,
    ``i < j``) is listed, sorted by ``(p, r, i, j)``; the mirrored entries
    are implied by symmetry.
    """
    block_of = _require_partition(q).block_of()
    far = (block_of[None, :] - block_of[:, None] > 1) & (q.coeffs != 0.0)
    violations = sorted(
        (int(block_of[i]), int(block_of[j]), int(i), int(j)) for i, j in zip(*np.nonzero(far))
    )
    return (not violations, violations)


@dataclass(frozen=True)
class ScaleSeparation:
    """Largest intra-block and inter-block coefficient magnitudes and their ratio."""

    max_intra: float
    max_inter: float
    ratio: float


def scale_separation_report(q: Qubo) -> ScaleSeparation:
    """Measure the separation between within-block and cross-block coefficients.

    ``ratio = max_inter / max_intra``; it is 0 when there are no nonzero
    cross-block couplings.
    """
    part = _require_partition(q)
    block_of = part.block_of()
    same = block_of[:, None] == block_of[None, :]
    mags = np.abs(q.coeffs)
    max_intra = float(mags[same].max()) if same.any() else 0.0
    max_inter = float(mags[~same].max()) if (~same).any() else 0.0
    if max_inter == 0.0:
        ratio = 0.0
    elif max_intra == 0.0:
        ratio = float("inf")
    else:
        ratio = max_inter / max_intra
    return ScaleSeparation(max_intra=max_intra, max_inter=max_inter, ratio=ratio)
