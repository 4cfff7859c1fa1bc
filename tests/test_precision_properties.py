"""Property tests of the model conversion and the int8 quantization contract."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpoqubo.backends import canonical_qubo
from dpoqubo.precision import QuantizedIsing, quantize_int8
from dpoqubo.qubo import (
    IsingModel,
    Qubo,
    ising_energy,
    qubo_energy,
    qubo_to_ising,
)

coefficient = st.floats(-1e3, 1e3, allow_subnormal=False)
int8 = st.integers(-128, 127)


def _symmetric(upper: list, n: int) -> np.ndarray:
    m = np.zeros((n, n))
    m[np.triu_indices(n, k=1)] = upper
    return m + m.T


@st.composite
def qubos(draw):
    n = draw(st.integers(1, 8))
    upper = draw(st.lists(coefficient, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
    m = np.zeros((n, n))
    m[np.triu_indices(n)] = upper
    return Qubo(m + np.triu(m, 1).T, offset=draw(coefficient))


@st.composite
def ising_models(draw, integer: bool):
    n = draw(st.integers(1, 8))
    values = int8 if integer else coefficient
    linear = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)
    pairs = n * (n - 1) // 2
    quadratic = _symmetric(draw(st.lists(values, min_size=pairs, max_size=pairs)), n)
    if integer:
        scale = draw(st.floats(1e-3, 1e3))
        return QuantizedIsing(linear=linear, quadratic=quadratic, scale=scale)
    return IsingModel(linear=linear, quadratic=quadratic, offset=draw(coefficient))


def _bits(draw, n: int) -> np.ndarray:
    return np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)


@settings(deadline=None)
@given(st.data())
def test_integer_model_converts_exactly(data):
    m = data.draw(ising_models(integer=True))
    x = _bits(data.draw, m.n)
    assert qubo_energy(canonical_qubo(m), x) == ising_energy(m, 1 - 2 * x)


@settings(deadline=None)
@given(st.data())
def test_qubo_converts_to_ising_to_rounding(data):
    q = data.draw(qubos())
    x = _bits(data.draw, q.n)
    # relative to the largest energy any assignment could reach
    size = abs(q.offset) + np.abs(q.coeffs).sum()
    got = ising_energy(qubo_to_ising(q), 1 - 2 * x)
    assert got == pytest.approx(qubo_energy(q, x), rel=0, abs=1e-9 * max(size, 1.0))


@settings(deadline=None)
@given(st.data())
def test_float_model_converts_to_rounding(data):
    m = data.draw(ising_models(integer=False))
    x = _bits(data.draw, m.n)
    # relative to the largest energy any assignment could reach
    size = abs(m.offset) + np.abs(m.linear).sum() + np.abs(m.quadratic).sum() / 2
    got = qubo_energy(canonical_qubo(m), x)
    assert got == pytest.approx(ising_energy(m, 1 - 2 * x), rel=0, abs=1e-9 * max(size, 1.0))


@settings(deadline=None)
@given(ising_models(integer=False))
# so small a coefficient that 127 / alpha overflows
@example(IsingModel(linear=np.array([2.2250738585072014e-308]), quadratic=np.zeros((1, 1))))
def test_quantization_pins_the_extreme_coefficient(m):
    # a Python float, as in quantize_int8: a numpy float's overflow warns
    alpha = float(max(np.abs(m.linear).max(), np.abs(m.quadratic).max()))
    q = quantize_int8(m)
    if alpha == 0.0 or math.isinf(127.0 / alpha):
        assert q.scale == 1.0
        assert not q.linear.any() and not q.quadratic.any()
        return
    assert q.scale == 127.0 / alpha
    extreme = np.abs(m.linear) == alpha
    assert np.all(np.abs(q.linear[extreme]) == 127)
    extreme = np.abs(m.quadratic) == alpha
    assert np.all(np.abs(q.quadratic[extreme]) == 127)


@settings(deadline=None)
@given(ising_models(integer=False))
# 127 x / alpha lands on halves here: ties round to even
@example(IsingModel(linear=np.array([254.0, 1.0, 3.0, -1.0, -5.0]), quadratic=np.zeros((5, 5))))
def test_quantization_is_the_documented_formula(m):
    # quantize_int8 rounds in place in one buffer; each entry must be the
    # docstring's clip(round(127 * x / alpha), -128, 127) all the same
    q = quantize_int8(m)
    alpha = float(max(np.abs(m.linear).max(), np.abs(m.quadratic).max()))
    if alpha == 0.0 or math.isinf(127.0 / alpha):
        alpha = 127.0
    for got, x in ((q.linear, m.linear), (q.quadratic, m.quadratic)):
        want = np.clip(np.round(127.0 * (x / alpha)), -128, 127).astype(np.int8)
        assert got.dtype == np.int8 and np.array_equal(got, want)
