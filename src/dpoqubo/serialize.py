"""Plain-text model files for QUBO and Ising problems.

Format (line-oriented, whitespace-separated, ``#`` starts a comment)::

    dpoqubo-model 1
    kind qubo            # or: ising
    n 6
    offset 1.25          # float models only; optional, default 0
    integer 1            # optional flag: coefficients are signed 8-bit ints
    scale 0.0157480...   # integer models only, required: 127 / (source max |coeff|)
    partition 0 2        # optional, repeated; half-open contiguous ranges
    partition 2 6
    c 0 0 3.5            # qubo: matrix entry, i <= j (mirrored on load)
    c 0 1 -1.5
    h 0 0.25             # ising only: field term
    c 0 1 2.0            # ising: coupling, i < j

Zero coefficients are omitted.  Floats are written with ``repr`` so every
value — integer-valued or not — parses back bit-for-bit identical; the
integer flag additionally pins the in-memory dtype to int8 on load.
"""

from __future__ import annotations

import os

import numpy as np

from .precision import QuantizedIsing
from .qubo import BlockPartition, IsingModel, Model, Qubo, _freeze

__all__ = ["ModelFormatError", "dump_model", "parse_model", "save_model", "load_model"]

_MAGIC = "dpoqubo-model"
_VERSION = 1
# records that may appear at most once; ``partition`` repeats by design
_HEADER_RECORDS = ("kind", "n", "offset", "integer", "scale")


def _fmt(value: float) -> str:
    return repr(float(value))


def _partition_lines(partition: BlockPartition | None) -> list[str]:
    if partition is None:
        return []
    return [f"partition {start} {stop}" for start, stop in partition.blocks]


def dump_model(model: Model) -> str:
    """Render a model in the text format above."""
    if isinstance(model, QuantizedIsing):
        header, fmt = ["integer 1", f"scale {_fmt(model.scale)}"], int
    elif isinstance(model, (Qubo, IsingModel)):
        header, fmt = [f"offset {_fmt(model.offset)}"], _fmt
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    is_qubo = isinstance(model, Qubo)
    lines = [f"{_MAGIC} {_VERSION}", f"kind {'qubo' if is_qubo else 'ising'}", f"n {model.n}"]
    lines.extend(header)
    lines.extend(_partition_lines(model.partition))
    if not is_qubo:
        lines.extend(f"h {i} {fmt(model.linear[i])}" for i in np.flatnonzero(model.linear))
    matrix = model.coeffs if is_qubo else model.quadratic
    # np.triu keeps the diagonal, so every independent QUBO entry appears
    # once; an Ising diagonal is zero and never listed
    rows, cols = np.nonzero(np.triu(matrix))
    lines.extend(f"c {i} {j} {fmt(matrix[i, j])}" for i, j in zip(rows, cols))
    return "\n".join(lines) + "\n"


class ModelFormatError(ValueError):
    """Raised on malformed model files; carries the offending line number."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _finite(lineno: int, text: str) -> float:
    """Parse a coefficient or offset field, which must be a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise ModelFormatError(lineno, f"expected a finite number, got {text!r}")
    return value


def parse_model(text: str) -> Model:
    """Parse the text format back into a model object."""
    kind: str | None = None
    n: int | None = None
    offset = 0.0
    integer = False
    scale: float | None = None
    blocks: list[tuple[int, int]] = []
    partition: BlockPartition | None = None
    entries: list[tuple[int, str, list]] = []
    seen_magic = False
    header_lines: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        tag, args = fields[0], fields[1:]
        if not seen_magic:
            if tag != _MAGIC or len(args) != 1 or args[0] != str(_VERSION):
                raise ModelFormatError(
                    lineno, f"expected header '{_MAGIC} {_VERSION}', got {line!r}"
                )
            seen_magic = True
            continue
        if tag in _HEADER_RECORDS:
            if tag in header_lines:
                raise ModelFormatError(lineno, f"repeated {tag!r} record")
            header_lines[tag] = lineno
        try:
            if tag == "kind":
                (kind,) = args
                if kind not in ("qubo", "ising"):
                    raise ModelFormatError(lineno, f"unknown kind {kind!r}")
            elif tag == "n":
                (v,) = args
                n = int(v)
                if n < 0:
                    raise ModelFormatError(lineno, "n must be a nonnegative integer")
            elif tag == "offset":
                (v,) = args
                offset = _finite(lineno, v)
            elif tag == "integer":
                (v,) = args
                integer = v == "1"
                if v not in ("0", "1"):
                    raise ModelFormatError(lineno, "integer flag must be 0 or 1")
            elif tag == "scale":
                (v,) = args
                scale = float(v)
                if not (np.isfinite(scale) and scale > 0.0):
                    raise ModelFormatError(lineno, f"scale must be finite and > 0, got {v!r}")
            elif tag == "partition":
                a, b = args
                blocks.append((int(a), int(b)))
                partition = BlockPartition(tuple(blocks))  # checks each range at its line
            elif tag in ("c", "h"):
                # indices parse here, at their line; values once the kind is known
                entries.append((lineno, tag, [int(a) for a in args[:-1]] + args[-1:]))
            else:
                raise ModelFormatError(lineno, f"unknown record {tag!r}")
        except ModelFormatError:
            raise
        except (ValueError, TypeError) as exc:
            raise ModelFormatError(lineno, f"malformed {tag!r} record: {exc}") from exc

    if not seen_magic:
        raise ModelFormatError(1, "missing file header")
    if kind is None or n is None:
        raise ModelFormatError(1, "file must declare kind and n")
    if integer and scale is None:
        raise ModelFormatError(1, "integer models must declare a scale")
    unused = "offset" if integer else "scale"
    if unused in header_lines:
        precision = "integer" if integer else "float"
        raise ModelFormatError(
            header_lines[unused], f"{precision} models take no {unused!r} record"
        )

    if partition is not None and partition.n != n:
        raise ModelFormatError(1, f"partition covers {partition.n} of {n} indices")

    if kind == "qubo" and integer:
        raise ModelFormatError(1, "integer flag applies to ising models only")
    # each record's form and index rule: a qubo holds its diagonal in 'c'
    # records, an ising model holds none there and keeps fields in 'h'
    forms = {"c": ("c i j value", "0 <= i <= j < n")}
    if kind == "ising":
        forms = {"h": ("h i value", "0 <= i < n"), "c": ("c i j value", "0 <= i < j < n")}
    linear = np.zeros(n)
    matrix = np.zeros((n, n))
    seen: set[str] = set()
    for lineno, tag, args in entries:
        if tag not in forms:
            raise ModelFormatError(lineno, f"{kind} files hold no {tag!r} records")
        form, rule = forms[tag]
        if len(args) != len(form.split()) - 1:
            raise ModelFormatError(lineno, f"expected '{form}'")
        *index, value = args
        v = _finite(lineno, value)
        record = " ".join([tag, *map(str, index)])
        i, j = index[0], index[-1]
        if not 0 <= i <= j < n or (tag == "c" and i == j and kind == "ising"):
            raise ModelFormatError(lineno, f"'{record}' must satisfy {rule}")
        if record in seen:
            raise ModelFormatError(lineno, f"duplicate '{record}' record")
        seen.add(record)
        if tag == "h":
            linear[i] = v
        else:
            matrix[i, j] = matrix[j, i] = v
    _freeze(matrix)
    if kind == "qubo":
        return Qubo(matrix, offset=offset, partition=partition)
    if integer:
        try:
            return QuantizedIsing(linear, matrix, scale=scale, partition=partition)
        except ValueError as exc:
            raise ModelFormatError(1, str(exc)) from exc
    return IsingModel(linear=linear, quadratic=matrix, offset=offset, partition=partition)


def save_model(model: Model, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_model(model))


def load_model(path: str | os.PathLike) -> Model:
    with open(path, "r", encoding="ascii") as fh:
        return parse_model(fh.read())
