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

The descents run in a C kernel when the kernels build and load, and in the
numpy lock-step loop otherwise.  The ``loops`` fixture runs each case of
every test that takes it on both in turn: the kernel, left out when the
kernels do not load, and the fallback, with ``precision._kernels`` patched
to give None.  Every descent and tuning case takes it: the seeded, banded, dense and default
models, the adapter models, the small models, int8 models with -128
couplings, models of 0, 1 and 2 spins, and overflowing models whose field
updates make NaN deltas, where a row must stop at the first NaN as
``np.argmin`` picks it.  A recording stub checks that the kernel is called
once per descent with the ``10 * n + 10`` flip cap and C-contiguous float64
buffers holding the numpy start, fields and spans, and never on rows of
length 0.

Tuning sorts distinct values with a sort-and-compare of its own, which must
return ``np.unique``'s array, down to which of -0.0 and 0.0 it keeps, and
which leaves ``numpy.ma`` unimported, as a fresh process's int8 solve shows.
"""

import ctypes
import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dpoqubo import precision
from dpoqubo.backends import canonical_qubo
from dpoqubo.bcd import extract_subproblem
from dpoqubo.model import DpoConfig
from dpoqubo.precision import (
    QuantizedIsing,
    _argmin_rows,
    _greedy_descents,
    _MinimizerCheck,
    quantize_int8,
    reduce_dynamic_range,
)
from dpoqubo.qubo import IsingModel, _bit_table, _row_spans, ising_energy, qubo_to_ising

from support import bundled_model


@pytest.fixture
def loops(monkeypatch):
    """``loops()`` iterates over the descent loops a test runs each case on:
    it gives "kernel" with the C kernels, when they load, and then
    "fallback" with ``precision._kernels`` patched to give None, which
    selects numpy's lock-step loop, and undoes the patch when it ends."""

    def each():
        if precision._kernels() is not None:
            yield "kernel"
        with monkeypatch.context() as patch:
            patch.setattr(precision, "_kernels", lambda: None)
            yield "fallback"

    return each


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
def test_integer_models_same_end_states(loops, seed):
    model = seeded_model(seed, "int")
    starts = seeded_starts(seed, model.n)
    expected = np.array([_greedy_descent(model, s) for s in starts])
    for loop in loops():
        assert np.array_equal(_greedy_descents(model, starts), expected), loop


@pytest.mark.parametrize("seed", range(40))
def test_float_models_same_best_states(loops, seed):
    model = seeded_model(seed, "float")
    for loop in loops():
        check = _MinimizerCheck(model)
        assert len(check._starts) == 64
        assert check._best_states(model) == _best_states(check, model), loop


def _full_row_fields(model: IsingModel, starts: np.ndarray):
    """The batched descent that updated every flipped row's fields over all
    columns and recomputed its deltas over all columns every step: the end
    states as floats, and their fields."""
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
    return z, field


def _full_row_descents(model: IsingModel, starts: np.ndarray) -> np.ndarray:
    return _full_row_fields(model, starts)[0].astype(np.int8)


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


def assert_same_end_states(loops, model, starts, windowed):
    lo, hi = _row_spans(model.quadratic)
    assert ((hi - lo).max() < model.n) == windowed
    expected = _full_row_descents(model, starts)
    for loop in loops():
        assert np.array_equal(_greedy_descents(model, starts), expected), loop
    # the descents move: most starts are not already local minima
    assert (expected != starts).any(axis=1).mean() > 0.5


@pytest.mark.parametrize("kind", ["float", "int"])
@pytest.mark.parametrize("seed", range(30))
def test_banded_models_same_end_states_as_full_rows(loops, seed, kind):
    model = banded_model(seed, kind)
    assert_same_end_states(loops, model, seeded_starts(seed, model.n), windowed=True)


@pytest.mark.parametrize("kind", ["float", "int"])
@pytest.mark.parametrize("seed", range(10))
def test_dense_models_same_end_states_as_full_rows(loops, seed, kind):
    model = seeded_model(seed, kind)
    assert_same_end_states(loops, model, seeded_starts(seed, model.n), windowed=False)


@pytest.fixture(scope="module")
def default_spin_model():
    """The default configuration's 528-spin model on the bundled prices."""
    return qubo_to_ising(bundled_model(DpoConfig()))


@pytest.mark.parametrize("precision", ["fp", "int8"])
def test_default_model_same_end_states_as_full_rows(loops, default_spin_model, precision):
    model = default_spin_model
    if precision == "int8":
        model = quantize_int8(reduce_dynamic_range(model).model)
    for starts in (_MinimizerCheck(model)._starts, seeded_starts(1, 528), seeded_starts(2, 528)):
        assert_same_end_states(loops, model, starts, windowed=True)


def _paper_block():
    q = bundled_model(DpoConfig())
    return extract_subproblem(q, np.zeros(q.n, dtype=np.int8), 5)


# the spin models the int8 adapter tunes, on the bundled prices
adapter_models = pytest.mark.parametrize("make, n", [
    (lambda: bundled_model(DpoConfig()), 528),
    (lambda: bundled_model(DpoConfig(n_t=2)), 48),
    (_paper_block, 24),
], ids=["default", "gate", "paper-block"])


def assert_same_tuning_as_single_starts(monkeypatch, model):
    """Tune ``model``, and again with the check's descents run one start at
    a time (``_best_states`` above); the steps and fields must agree.
    Returns the tuning result."""
    result = reduce_dynamic_range(model)
    with monkeypatch.context() as patch:
        patch.setattr(precision._MinimizerCheck, "_best_states", _best_states)
        expected = reduce_dynamic_range(model)
    assert [dataclasses.astuple(s) for s in result.steps] == [
        dataclasses.astuple(s) for s in expected.steps
    ]
    assert np.array_equal(result.model.linear, expected.model.linear)
    return result


@adapter_models
def test_adapter_models_same_tuning(loops, monkeypatch, make, n):
    model = qubo_to_ising(canonical_qubo(make()))
    assert model.n == n
    for loop in loops():
        assert assert_same_tuning_as_single_starts(monkeypatch, model).steps, loop


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
def test_adapter_models_build_only_checked_candidates(loops, monkeypatch, make, n):
    model = qubo_to_ising(canonical_qubo(make()))
    assert model.n == n
    expected = _reference_tuning(model)
    counts = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(precision, "replace", counting("built", precision.replace))
    monkeypatch.setattr(
        _MinimizerCheck, "passes", counting("checked", _MinimizerCheck.passes)
    )
    for loop in loops():
        counts.update(built=0, checked=0)
        result = reduce_dynamic_range(model)
        assert counts["checked"] >= 1
        assert counts["built"] == counts["checked"]
        assert result.steps == expected.steps, loop
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
def test_small_models_same_decisions(loops, kind, n):
    decisions = []
    for seed in range(3):
        model = small_model(seed, n, kind)
        reference = _EnumerationCheck(model)
        for loop in loops():
            check = _MinimizerCheck(model)
            assert len(check._starts) == 1 << n
            for candidate in field_candidates(model, np.random.default_rng(seed)):
                decision = check.passes(candidate)
                assert decision == reference.passes(candidate), loop
                decisions.append(decision)
    # both outcomes are exercised
    assert len(set(decisions)) == 2


@pytest.mark.parametrize("n", range(0, 13))
@pytest.mark.parametrize("kind", KINDS)
def test_small_models_same_tuning(loops, monkeypatch, kind, n):
    # models of 0 and 1 spins have a degenerate range and tune no step
    for seed in range(10):
        model = small_model(seed, n, kind)
        with monkeypatch.context() as patch:
            patch.setattr(precision, "_MinimizerCheck", _EnumerationCheck)
            expected = reduce_dynamic_range(model, budget=50)
        for loop in loops():
            result = reduce_dynamic_range(model, budget=50)
            assert [dataclasses.astuple(s) for s in result.steps] == [
                dataclasses.astuple(s) for s in expected.steps
            ], loop
            assert np.array_equal(result.model.linear, expected.model.linear)


def test_no_spins_descend_nowhere(loops):
    for loop in loops():
        got = _greedy_descents(small_model(0, 0, "float"), np.ones((3, 0), dtype=np.int8))
        assert got.shape == (3, 0) and got.dtype == np.int8, loop


def test_flips_down_by_at_most_1e_12_stop_a_descent(loops):
    # flip deltas of -5e-13, -1e-12 and -1.2e-12 from the fields, all spins
    # as starts: only the last is a descent step, and spins 3 and 4 descend
    # on their coupling
    quadratic = np.zeros((5, 5))
    quadratic[3, 4] = quadratic[4, 3] = 1.0
    model = IsingModel(linear=[2.5e-13, -5e-13, 6e-13, 0.0, 0.0], quadratic=quadratic)
    starts = 1 - 2 * _bit_table(0, 32, 5)
    z, field = _full_row_fields(model, starts)
    deltas = -2.0 * z * field
    # spins 0 and 1 keep their small downhill deltas in some end states
    assert ((deltas < 0) & (deltas >= -1e-12))[:, :2].any(axis=0).all()
    for loop in loops():
        assert np.array_equal(_greedy_descents(model, starts), z.astype(np.int8)), loop


def int8_model(seed):
    """A QuantizedIsing of 16 to 40 spins: int8 couplings within 6 of the
    diagonal, multiples of 32 with about a fifth of them -128, and int8
    fields, multiples of 16 but for up to three, which tuning can move."""
    rng = np.random.default_rng([seed, 128])
    n = int(rng.integers(16, 41))
    m = 32 * rng.integers(-4, 4, size=(n, n))
    m[rng.random((n, n)) < 0.2] = -128
    index = np.arange(n)
    m[np.abs(index[:, None] - index) > 6] = 0
    j = np.triu(m, 1)
    h = 16 * rng.integers(-8, 8, size=n)
    h[rng.integers(0, n, size=3)] += rng.integers(1, 8, size=3)
    return QuantizedIsing(
        linear=h.astype(np.int8), quadratic=(j + j.T).astype(np.int8), scale=1.0
    )


def test_int8_models_with_minus_128(loops, monkeypatch):
    # the descents read the int8 couplings as floats, in which -128 keeps
    # its magnitude; every sum is an exact integer
    steps = 0
    for seed in range(10):
        model = int8_model(seed)
        assert model.quadratic.dtype == np.int8 and (model.quadratic == -128).any()
        assert_same_end_states(loops, model, seeded_starts(seed, model.n), windowed=True)
        for loop in loops():
            steps += len(assert_same_tuning_as_single_starts(monkeypatch, model).steps)
    assert steps


def overflowing_chain(seed, n):
    """A chain of ``n`` spins with couplings of magnitude 0.9e308 to
    0.95e308, so that a doubled coupling overflows, and the four starts in
    which the two couplings into each inner spin cancel in its field, so
    that every start field is finite."""
    rng = np.random.default_rng([seed, 308])
    signs = rng.choice([-1, 1], size=n - 1)
    upper = np.zeros((n, n))
    upper[np.arange(n - 1), np.arange(1, n)] = signs * rng.uniform(0.9, 0.95, size=n - 1) * 1e308
    model = IsingModel(linear=rng.normal(size=n), quadratic=upper + upper.T)
    starts = np.empty((4, n), dtype=np.int8)
    starts[:, :2] = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
    for k in range(1, n - 1):
        starts[:, k + 1] = -signs[k - 1] * signs[k] * starts[:, k - 1]
    return model, starts


@pytest.mark.parametrize("n", [16, 30])
@pytest.mark.parametrize("seed", range(6))
def test_overflowing_models(loops, seed, n):
    # a flip adds a doubled coupling, which overflows to an infinite field,
    # and a later flip can add the opposite infinity: a NaN field and flip
    # delta.  The row then stops, as np.argmin picks the first NaN, where a
    # pick that passed over NaNs would flip on
    model, starts = overflowing_chain(seed, n)
    with np.errstate(all="ignore"):
        assert np.isfinite(model.linear + starts @ model.quadratic).all()
        z, field = _full_row_fields(model, starts)
        assert np.isnan(-2.0 * z * field).any()
        for loop in loops():
            assert np.array_equal(_greedy_descents(model, starts), z.astype(np.int8)), loop


def _read(address, ctype, shape):
    """A copy of the C-contiguous array of ``ctype`` of ``shape`` at ``address``."""
    size = int(np.prod(shape))
    return np.ctypeslib.as_array((ctype * size).from_address(address)).reshape(shape).copy()


def recorded_descents(monkeypatch):
    """Patch ``precision._kernels`` to give a stub whose ``descend`` records
    each call's row count, size and flip cap, and copies of its buffers read
    as C-contiguous float64 (int64 for the spans), and then runs the
    kernel.  A call on rows of length 0 fails the test."""
    kernels = precision._kernels()
    if kernels is None:
        pytest.skip("the C kernels did not build or load")
    calls = []

    def descend(rows, n, cap, q, lo, hi, z, field, scratch):
        assert n >= 1, "the kernel ran on rows of length 0"
        doubles, ints = ctypes.c_double, ctypes.c_int64
        calls.append(SimpleNamespace(
            rows=rows, n=n, cap=cap, q=_read(q, doubles, (n, n)),
            lo=_read(lo, ints, n), hi=_read(hi, ints, n),
            z=_read(z, doubles, (rows, n)), field=_read(field, doubles, (rows, n)),
        ))
        kernels.descend(rows, n, cap, q, lo, hi, z, field, scratch)

    monkeypatch.setattr(precision, "_kernels", lambda: SimpleNamespace(descend=descend))
    return calls


@pytest.mark.parametrize("case", ["float", "int8", "fortran-order-starts"])
def test_the_kernel_gets_the_flip_cap_and_float64_buffers(monkeypatch, case):
    model = int8_model(0) if case == "int8" else seeded_model(0, "float")
    starts = seeded_starts(0, model.n)
    if case == "fortran-order-starts":
        starts = np.asfortranarray(starts)
    calls = recorded_descents(monkeypatch)
    got = _greedy_descents(model, starts)
    (call,) = calls
    n = model.n
    quadratic = model.quadratic.astype(float)
    z = np.ascontiguousarray(starts, dtype=float)
    assert (call.rows, call.n, call.cap) == (64, n, 10 * n + 10)
    for recorded, expected in zip(
        (call.q, call.lo, call.hi, call.z, call.field),
        (quadratic, *_row_spans(quadratic), z, model.linear + z @ quadratic),
    ):
        assert recorded.tobytes() == expected.astype(recorded.dtype).tobytes()
    assert np.array_equal(got, _full_row_descents(model, starts))


def test_tuning_never_runs_the_kernel_on_no_spins(monkeypatch):
    # tuning builds no check with fewer than two spins: one field alone has
    # a degenerate range.  Two spins descend in the kernel, and a direct
    # descent of no spins skips it
    calls = recorded_descents(monkeypatch)
    for n in (0, 1, 2):
        for seed in range(10):
            reduce_dynamic_range(small_model(seed, n, "float"))
    _greedy_descents(small_model(0, 0, "float"), np.ones((3, 0), dtype=np.int8))
    assert calls
    assert {(call.n, call.cap) for call in calls} == {(2, 30)}


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
