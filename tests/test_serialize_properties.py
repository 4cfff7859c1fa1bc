"""Property tests of the model file round trip for every model type."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpoqubo.precision import QuantizedIsing
from dpoqubo.qubo import BlockPartition, IsingModel, Qubo
from dpoqubo.serialize import dump_model, parse_model

finite = st.floats(allow_nan=False, allow_infinity=False)
int8 = st.integers(-128, 127)


def _symmetric(upper: list, n: int, diagonal: bool) -> np.ndarray:
    m = np.zeros((n, n))
    m[np.triu_indices(n, k=0 if diagonal else 1)] = upper
    return np.triu(m) + np.triu(m, k=1).T


@st.composite
def partitions(draw, n: int):
    if not draw(st.booleans()):
        return None
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=n - 1)) if n > 1 else set()
    bounds = [0, *sorted(cuts), n]
    return BlockPartition(tuple(zip(bounds[:-1], bounds[1:])))


@st.composite
def models(draw):
    n = draw(st.integers(1, 6))
    partition = draw(partitions(n))
    pairs = n * (n - 1) // 2
    kind = draw(st.sampled_from(["qubo", "ising", "int8"]))
    if kind == "qubo":
        upper = draw(st.lists(finite, min_size=pairs + n, max_size=pairs + n))
        return Qubo(_symmetric(upper, n, True), offset=draw(finite), partition=partition)
    values = int8 if kind == "int8" else finite
    linear = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)
    quadratic = _symmetric(draw(st.lists(values, min_size=pairs, max_size=pairs)), n, False)
    if kind == "int8":
        scale = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
        return QuantizedIsing(linear, quadratic, scale=scale, partition=partition)
    return IsingModel(linear, quadratic, offset=draw(finite), partition=partition)


def _arrays(model) -> list[np.ndarray]:
    if isinstance(model, Qubo):
        return [model.coeffs]
    return [model.linear, model.quadratic]


@settings(deadline=None)
@given(models())
def test_roundtrip_is_bit_exact(model):
    text = dump_model(model)
    back = parse_model(text)
    assert type(back) is type(model)
    for got, want in zip(_arrays(back), _arrays(model)):
        assert got.dtype == want.dtype
        # zero entries are not written, so a signed zero reads back as +0.0
        assert got.tobytes() == (want + want.dtype.type(0)).tobytes()
    if isinstance(model, QuantizedIsing):
        assert np.float64(back.scale).tobytes() == np.float64(model.scale).tobytes()
    else:
        assert np.float64(back.offset).tobytes() == np.float64(model.offset).tobytes()
    assert back.partition == model.partition
    assert dump_model(back) == text
