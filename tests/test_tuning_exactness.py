"""The tuning accept test against reference copies of the code it replaced.

Above 12 spins the reference is the one-start-at-a-time descent, which
recomputes the whole local field ``linear + quadratic @ z`` for every flip of
every start and scores each end state with ``ising_energy``.  The batched
descent computes the fields once and updates them per flip, and scores all
end states at once, which sums the same floats in another order: on
integer-valued models every sum is exact and the end states must be equal,
on float models the best-state sets must be, and on the models the int8
adapter tunes in the benchmark workloads the tuning results must be.

Up to 12 spins the reference is the former enumeration branch, which took
the ground states of both models over all 2^n spin vectors; the descents
from every spin vector must reach the same accept decisions and the same
tuning results.

The batched descent updates a flipped row only on a window that holds the
flipped spin's nonzero coupling span.  Its reference is the batched descent
that updated whole rows, and the end states must be equal bit for bit on
block-tridiagonal models, whose windows are narrower than a row, and on
dense ones, whose windows are whole rows.

Tuning sorts distinct values with a sort-and-compare of its own, which must
return ``np.unique``'s array, down to which of -0.0 and 0.0 it keeps, and
which leaves ``numpy.ma`` unimported, as a fresh process's int8 solve shows.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpoqubo import precision
from dpoqubo.backends import canonical_qubo
from dpoqubo.bcd import extract_subproblem
from dpoqubo.model import DpoConfig
from dpoqubo.precision import (
    _argmin_rows,
    _greedy_descents,
    _MinimizerCheck,
    quantize_int8,
    reduce_dynamic_range,
)
from dpoqubo.qubo import IsingModel, _bit_table, _row_spans, ising_energy, qubo_to_ising

from support import bundled_model


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
    assert len(check._starts) == 64
    assert check._best_states(model) == _best_states(check, model)


def _full_row_descents(model: IsingModel, starts: np.ndarray) -> np.ndarray:
    """The batched descent that updated every flipped row's fields over all
    columns and recomputed its deltas over all columns every step."""
    z = starts.astype(float)
    quadratic = np.asarray(model.quadratic, dtype=float)
    field = model.linear + z @ quadratic
    rows = np.arange(z.shape[0])
    for _ in range(10 * model.n + 10):
        deltas = -2.0 * z[rows] * field[rows]
        best = deltas.argmin(axis=1)
        descending = deltas[np.arange(rows.size), best] < -1e-12
        rows, best = rows[descending], best[descending]
        if not rows.size:
            break
        z[rows, best] = -z[rows, best]
        field[rows] += 2.0 * z[rows, best][:, None] * quadratic[best]
    return z.astype(np.int8)


def banded_model(seed, kind):
    """A block-tridiagonal model of 4 to 8 blocks of 2 to 9 spins: normal
    floats or integers in -3..3, with about a third of the entries zero so
    that spans vary from row to row."""
    rng = np.random.default_rng([seed, 7])
    blocks, size = int(rng.integers(4, 9)), int(rng.integers(2, 10))
    n = blocks * size
    if kind == "float":
        h, m = rng.normal(size=n), rng.normal(size=(n, n))
    else:
        h = rng.integers(-3, 4, size=n).astype(float)
        m = rng.integers(-3, 4, size=(n, n)).astype(float)
    block = np.arange(n) // size
    m[(np.abs(block[:, None] - block) > 1) | (rng.random((n, n)) < 0.3)] = 0.0
    j = np.triu(m, 1)
    return IsingModel(linear=h, quadratic=j + j.T)


def assert_same_end_states(model, starts, windowed):
    lo, hi = _row_spans(model.quadratic)
    assert ((hi - lo).max() < model.n) == windowed
    expected = _full_row_descents(model, starts)
    assert np.array_equal(_greedy_descents(model, starts), expected)
    # the descents move: most starts are not already local minima
    assert (expected != starts).any(axis=1).mean() > 0.5


@pytest.mark.parametrize("kind", ["float", "int"])
@pytest.mark.parametrize("seed", range(30))
def test_banded_models_same_end_states_as_full_rows(seed, kind):
    model = banded_model(seed, kind)
    assert_same_end_states(model, seeded_starts(seed, model.n), windowed=True)


@pytest.mark.parametrize("kind", ["float", "int"])
@pytest.mark.parametrize("seed", range(10))
def test_dense_models_same_end_states_as_full_rows(seed, kind):
    model = seeded_model(seed, kind)
    assert_same_end_states(model, seeded_starts(seed, model.n), windowed=False)


@pytest.fixture(scope="module")
def default_spin_model():
    """The default configuration's 528-spin model on the bundled prices."""
    return qubo_to_ising(bundled_model(DpoConfig()))


@pytest.mark.parametrize("precision", ["fp", "int8"])
def test_default_model_same_end_states_as_full_rows(default_spin_model, precision):
    model = default_spin_model
    if precision == "int8":
        model = quantize_int8(reduce_dynamic_range(model).model)
    for starts in (_MinimizerCheck(model)._starts, seeded_starts(1, 528), seeded_starts(2, 528)):
        assert_same_end_states(model, starts, windowed=True)


def _paper_block():
    q = bundled_model(DpoConfig())
    return extract_subproblem(q, np.zeros(q.n, dtype=np.int8), 5)


# the spin models the int8 adapter tunes, on the bundled prices
adapter_models = pytest.mark.parametrize("make, n", [
    (lambda: bundled_model(DpoConfig()), 528),
    (lambda: bundled_model(DpoConfig(n_t=2)), 48),
    (_paper_block, 24),
], ids=["default", "gate", "paper-block"])


@adapter_models
def test_adapter_models_same_tuning(monkeypatch, make, n):
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


def _reference_tuning(model: IsingModel, budget: int = 100) -> precision.TuningResult:
    """The tuning loop that built a full candidate model for every move of
    both generators, materialized up front, before measuring its range."""
    check, current, steps = None, model, []
    while len(steps) < budget:
        values = precision.coefficient_values(current)
        before = precision.dynamic_range(values)
        if before.degenerate:
            break
        accepted = None
        for kind, index, new_value in list(precision._shrink_extreme_moves(current, values)) + list(
            precision._widen_gap_moves(current, values)
        ):
            linear = current.linear.astype(float)
            old_value = float(linear[index])
            linear[index] = new_value
            candidate = dataclasses.replace(current, linear=linear)
            after = precision.dynamic_range(precision.coefficient_values(candidate))
            if after.bits >= before.bits:
                continue
            if check is None:
                check = _MinimizerCheck(model)
            if not check.passes(candidate):
                continue
            accepted = precision.TuningStep(
                ("h", index), old_value, new_value, before.bits, after.bits, kind
            )
            current = candidate
            break
        if accepted is None:
            break
        steps.append(accepted)
    return precision.TuningResult(model=current, steps=tuple(steps))


@adapter_models
def test_adapter_models_build_only_checked_candidates(monkeypatch, make, n):
    model = qubo_to_ising(canonical_qubo(make()))
    assert model.n == n
    expected = _reference_tuning(model)
    counts = {"built": 0, "checked": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(precision, "replace", counting("built", precision.replace))
    monkeypatch.setattr(
        _MinimizerCheck, "passes", counting("checked", _MinimizerCheck.passes)
    )
    result = reduce_dynamic_range(model)
    assert counts["checked"] >= 1
    assert counts["built"] == counts["checked"]
    assert result.steps == expected.steps
    assert type(result.model) is type(expected.model)
    assert np.array_equal(result.model.linear, expected.model.linear)
    assert np.array_equal(result.model.quadratic, expected.model.quadratic)
    assert (result.model.offset, result.model.partition) == (
        expected.model.offset, expected.model.partition
    )


def _enumerated_energies(model: IsingModel, spins: np.ndarray) -> np.ndarray:
    z = spins.astype(float)
    return (
        model.offset
        + z @ model.linear
        + 0.5 * np.einsum("ij,jk,ik->i", z, model.quadratic, z)
    )


class _EnumerationCheck:
    """The former accept test for models of at most 12 spins: the candidate
    passes when its enumerated ground states meet the original's."""

    def __init__(self, original: IsingModel) -> None:
        self.n = original.n
        # all 2^n spin vectors, bit 0 as spin +1 (z = 1 - 2x)
        self._spins = 1 - 2 * _bit_table(0, 1 << self.n, self.n)
        self._original_argmin = _argmin_rows(_enumerated_energies(original, self._spins))

    def passes(self, candidate: IsingModel) -> bool:
        argmin = _argmin_rows(_enumerated_energies(candidate, self._spins))
        return bool(argmin & self._original_argmin)


KINDS = ["float", "int", "eighths"]


def small_model(seed, n, kind):
    """A model of ``n`` spins: normal floats, integers in -3..3, or eighths
    in -2..2; the last two tie many energies exactly."""
    rng = np.random.default_rng([seed, n])
    if kind == "float":
        h, m = rng.normal(size=n), rng.normal(size=(n, n))
    else:
        top = 3 if kind == "int" else 16
        h = rng.integers(-top, top + 1, size=n).astype(float)
        m = rng.integers(-top, top + 1, size=(n, n)).astype(float)
        if kind == "eighths":
            h, m = h / 8, m / 8
    j = np.triu(m, 1)
    return IsingModel(linear=h, quadratic=j + j.T, offset=float(rng.normal()))


def field_candidates(model, rng):
    """The model with one field moved: to zero, to its negation, or to a
    fresh value from the model's own coefficients."""
    values = np.concatenate([model.linear, model.quadratic[np.triu_indices(model.n, 1)]])
    for i in range(model.n):
        for new in (0.0, -model.linear[i], rng.choice(values)):
            linear = model.linear.copy()
            linear[i] = new
            yield dataclasses.replace(model, linear=linear)


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("kind", KINDS)
def test_small_models_same_decisions(kind, n):
    decisions = []
    for seed in range(3):
        model = small_model(seed, n, kind)
        check, reference = _MinimizerCheck(model), _EnumerationCheck(model)
        assert len(check._starts) == 1 << n
        for candidate in field_candidates(model, np.random.default_rng(seed)):
            decision = check.passes(candidate)
            assert decision == reference.passes(candidate)
            decisions.append(decision)
    # both outcomes are exercised
    assert len(set(decisions)) == 2


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("kind", KINDS)
def test_small_models_same_tuning(monkeypatch, kind, n):
    for seed in range(10):
        model = small_model(seed, n, kind)
        result = reduce_dynamic_range(model, budget=50)
        with monkeypatch.context() as patch:
            patch.setattr(precision, "_MinimizerCheck", _EnumerationCheck)
            expected = reduce_dynamic_range(model, budget=50)
        assert [dataclasses.astuple(s) for s in result.steps] == [
            dataclasses.astuple(s) for s in expected.steps
        ]
        assert np.array_equal(result.model.linear, expected.model.linear)


@pytest.mark.parametrize("size", [0, 1, 2, 15, 16, 17, 200, 5000])
def test_distinct_values_are_np_uniques(size):
    # runs of both zeros, repeats and arrays long enough for every sort path
    rng = np.random.default_rng(size)
    for values in (
        rng.choice([-0.0, 0.0, 1.5, -2.0, 2.0**-30], size=size),
        rng.normal(size=size).round(1),
        rng.choice([-0.0, 0.0], size=(size, 2)),
    ):
        got, want = precision._distinct(values), np.unique(values)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_int8_solve_leaves_numpy_ma_unimported():
    # a 24-spin block tunes through the sampled check, a 6-spin model
    # through every start; numpy before 2.0 imports numpy.ma with itself
    code = """
import sys
import numpy as np
if "numpy.ma" in sys.modules:
    sys.exit(3)
from dpoqubo.backends import SolveRequest, make_backend
from dpoqubo.qubo import Qubo
for seed, n in ((0, 24), (1, 6)):
    m = np.random.default_rng(seed).normal(size=(n, n))
    for name in ("int8(sa)", "int8(tabu)"):
        make_backend(name).solve(SolveRequest(Qubo(m + m.T), seed=seed))
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    if proc.returncode == 3:
        pytest.skip("this numpy imports numpy.ma on import")
    assert proc.returncode == 0, proc.stderr
