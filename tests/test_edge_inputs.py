"""Edge inputs run end to end: the smallest problem sizes, a zero budget, and
models with zero or one variable."""

import numpy as np
import pytest

from dpoqubo.backends import SolveRequest, canonical_qubo, make_backend
from dpoqubo.harness import ALL_VARIANTS, run_matrix
from dpoqubo.market import PriceTable, compute_returns, load_bundled_prices
from dpoqubo.model import DpoConfig, objective_terms, risk_matrices
from dpoqubo.qubo import IsingModel, Qubo, qubo_energy

# the release gate's 48-bit shape, with one dimension or the budget at its edge
_EDGES = {
    "budget=0": dict(budget=0),
    "n_r=1": dict(n_r=1, budget=3),
    "n_t=1": dict(n_t=1),
    "n_a=1": dict(n_a=1),
}


@pytest.mark.parametrize("edge", list(_EDGES))
def test_tabu_matrix_has_no_error_cell(edge):
    config = DpoConfig(**{**dict(n_t=2, n_a=6, n_r=4, budget=15, dt=24), **_EDGES[edge]})
    table = load_bundled_prices()
    table = PriceTable(
        table.dates, table.assets[: config.n_a], table.prices[:, : config.n_a]
    )
    panel = compute_returns(table, config.n_t, config.dt)
    reports = run_matrix(panel, config, ["tabu"], ALL_VARIANTS, runs=1, seed=0)
    assert [r.error for r in reports if r.error is not None] == []
    risks = risk_matrices(config, panel)
    for r in reports:
        total = objective_terms(config, panel, risks, r.allocation).total
        assert r.energy == pytest.approx(-total, rel=1e-9, abs=1e-12), r.variant.label


_BACKENDS = ["exhaustive", "sa", "tabu", "int8(exhaustive)", "int8(sa)", "int8(tabu)"]


@pytest.mark.parametrize("kind", ["qubo", "ising"])
@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("name", _BACKENDS)
def test_every_backend_solves_tiny_models(name, n, kind):
    if kind == "qubo":
        model = Qubo(-2.0 * np.eye(n), offset=0.5)
    else:
        model = IsingModel(np.full(n, 0.75), np.zeros((n, n)), offset=-1.0)
    result = make_backend(name).solve(SolveRequest(model, seed=3))
    assert result.assignment.shape == (n,)
    assert result.reported_energy == qubo_energy(canonical_qubo(model), result.assignment)


@pytest.mark.parametrize("kind", ["qubo", "ising"])
@pytest.mark.parametrize("name", _BACKENDS)
def test_every_backend_solves_an_empty_model_at_given_effort(name, kind):
    if kind == "qubo":
        model = Qubo(np.zeros((0, 0)))
    else:
        model = IsingModel(np.zeros(0), np.zeros((0, 0)))
    result = make_backend(name).solve(SolveRequest(model, seed=3, effort=5))
    assert result.assignment.shape == (0,)
    assert result.reported_energy == 0.0
