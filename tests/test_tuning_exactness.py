"""The tuning accept test's batched descent against a reference copy of the
one-start-at-a-time descent it replaced.

The reference recomputes the whole local field ``linear + quadratic @ z``
for every flip of every start.  The batched descent computes the fields once
and updates them per flip, which sums the same floats in another order: on
integer-valued models every sum is exact and the end states must be equal,
on float models the best-state sets must be, and on the models the int8
adapter tunes in the benchmark workloads the tuning results must be.
"""

import dataclasses

import numpy as np
import pytest

from dpoqubo import precision
from dpoqubo.backends import canonical_qubo
from dpoqubo.bcd import extract_subproblem
from dpoqubo.market import compute_returns, load_bundled_prices
from dpoqubo.model import DpoConfig, encode_qubo
from dpoqubo.precision import _argmin_rows, _greedy_descents, _MinimizerCheck, reduce_dynamic_range
from dpoqubo.qubo import IsingModel, ising_energy, qubo_to_ising


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


def _best_states(self, model: IsingModel) -> set[bytes]:
    """The lowest-energy end states of the multistart descents on ``model``."""
    states = [_greedy_descent(model, s) for s in self._starts]
    energies = np.array([ising_energy(model, s) for s in states])
    return {states[i].tobytes() for i in _argmin_rows(energies)}


def seeded_model(seed, kind):
    """A model of 13 to 60 spins: normal floats, or integers in -3..3."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(13, 61))
    if kind == "float":
        h, m = rng.normal(size=n), rng.normal(size=(n, n))
    else:
        h = rng.integers(-3, 4, size=n).astype(float)
        m = rng.integers(-3, 4, size=(n, n)).astype(float)
    j = np.triu(m, 1)
    return IsingModel(linear=h, quadratic=j + j.T, offset=float(rng.normal()))


def seeded_starts(seed, n):
    rng = np.random.default_rng(seed)
    return (1 - 2 * rng.integers(0, 2, size=(64, n))).astype(np.int8)


@pytest.mark.parametrize("seed", range(40))
def test_integer_models_same_end_states(seed):
    model = seeded_model(seed, "int")
    starts = seeded_starts(seed, model.n)
    expected = np.array([_greedy_descent(model, s) for s in starts])
    assert np.array_equal(_greedy_descents(model, starts), expected)


@pytest.mark.parametrize("seed", range(40))
def test_float_models_same_best_states(seed):
    model = seeded_model(seed, "float")
    check = _MinimizerCheck(model)
    assert not check.exhaustive
    assert check._best_states(model) == _best_states(check, model)


def _bundled_model(n_t):
    config = DpoConfig(n_t=n_t)
    panel = compute_returns(load_bundled_prices(), config.n_t, config.dt)
    return encode_qubo(config, panel)


def _paper_block():
    q = _bundled_model(22)
    return extract_subproblem(q, np.zeros(q.n, dtype=np.int8), 5)


@pytest.mark.parametrize("make, n", [
    (lambda: _bundled_model(22), 528),
    (lambda: _bundled_model(2), 48),
    (_paper_block, 24),
], ids=["default", "gate", "paper-block"])
def test_adapter_models_same_tuning(monkeypatch, make, n):
    # the spin model the int8 adapter tunes, on the bundled prices
    model = qubo_to_ising(canonical_qubo(make()))
    assert model.n == n
    result = reduce_dynamic_range(model)
    with monkeypatch.context() as patch:
        patch.setattr(precision._MinimizerCheck, "_best_states", _best_states)
        expected = reduce_dynamic_range(model)
    assert result.steps
    assert [dataclasses.astuple(s) for s in result.steps] == [
        dataclasses.astuple(s) for s in expected.steps
    ]
    assert np.array_equal(result.model.linear, expected.model.linear)
