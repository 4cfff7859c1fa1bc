import itertools
from dataclasses import fields

import numpy as np
import pytest

from dpoqubo.backends import (
    BackendError,
    ExhaustiveSolver,
    FinitePrecisionAdapter,
    SimulatedAnnealingSolver,
    SolveRequest,
    SolveResult,
    TabuSolver,
    canonical_qubo,
    make_backend,
)
from dpoqubo.precision import quantization_loss_report, quantize_int8
from dpoqubo.qubo import (
    BlockPartition,
    IsingModel,
    Qubo,
    ising_energy,
    qubo_energy,
    qubo_to_ising,
)


def random_qubo(seed, n=10, scale=1.0):
    rng = np.random.default_rng(seed)
    return Qubo.from_dense(rng.normal(size=(n, n)) * scale, offset=float(rng.normal()))


def brute_force_minimum(q):
    best_e, best_x = np.inf, None
    for bits in itertools.product([0, 1], repeat=q.n):
        e = qubo_energy(q, bits)
        if e < best_e - 1e-12:
            best_e, best_x = e, bits
    return best_e, best_x


class TestExhaustive:
    def test_diagonal_sign_rule(self):
        q = Qubo(np.diag([-1.0, 2.0, -3.0]))
        result = ExhaustiveSolver().solve(SolveRequest(model=q))
        assert result.assignment.tolist() == [1, 0, 1]
        assert result.reported_energy == pytest.approx(-4.0)

    def test_zero_matrix_tie_break(self):
        q = Qubo(np.zeros((5, 5)))
        result = ExhaustiveSolver().solve(SolveRequest(model=q))
        assert result.assignment.tolist() == [0, 0, 0, 0, 0]
        assert result.reported_energy == 0.0

    def test_degenerate_ties_pick_lowest_binary_value(self):
        # both bits free: states 00,01,10,11 all at energy 0 except
        # coupling favouring nothing; add equal diagonal so 00 unique... use
        # a fully degenerate pair instead
        q = Qubo(np.array([[0.0, 1.0], [1.0, 0.0]]))  # 00,01,10 tie at 0
        result = ExhaustiveSolver().solve(SolveRequest(model=q))
        assert result.assignment.tolist() == [0, 0]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        q = random_qubo(seed, n=8)
        result = ExhaustiveSolver().solve(SolveRequest(model=q))
        best_e, best_x = brute_force_minimum(q)
        assert result.reported_energy == pytest.approx(best_e, rel=1e-12)
        assert qubo_energy(q, result.assignment) == pytest.approx(best_e, rel=1e-12)

    def test_dominates_random_sampling(self):
        q = random_qubo(99, n=12)
        result = ExhaustiveSolver().solve(SolveRequest(model=q))
        rng = np.random.default_rng(1)
        samples = rng.integers(0, 2, size=(1000, 12))
        energies = [qubo_energy(q, s) for s in samples]
        assert result.reported_energy <= min(energies) + 1e-12

    def test_cap_enforced(self):
        q = Qubo(np.zeros((25, 25)))
        with pytest.raises(BackendError, match="capped"):
            ExhaustiveSolver().solve(SolveRequest(model=q))

    def test_offset_included(self):
        q = Qubo(np.diag([1.0]), offset=10.0)
        result = ExhaustiveSolver().solve(SolveRequest(model=q))
        assert result.reported_energy == pytest.approx(10.0)


class TestSimulatedAnnealing:
    def test_seed_determinism(self):
        q = random_qubo(3, n=12)
        a = SimulatedAnnealingSolver().solve(SolveRequest(model=q, seed=7))
        b = SimulatedAnnealingSolver().solve(SolveRequest(model=q, seed=7))
        assert np.array_equal(a.assignment, b.assignment)
        assert a.reported_energy == b.reported_energy

    def test_reported_energy_reverifiable(self):
        q = random_qubo(4, n=15)
        result = SimulatedAnnealingSolver().solve(SolveRequest(model=q, seed=0))
        assert qubo_energy(q, result.assignment) == pytest.approx(
            result.reported_energy, abs=1e-9
        )

    def test_quality_gate_sample(self):
        # the full 100-instance calibration lives in the acceptance tests
        hits = 0
        for seed in range(20):
            q = random_qubo(500 + seed, n=10)
            best_e, _ = brute_force_minimum(q)
            got = SimulatedAnnealingSolver().solve(SolveRequest(model=q, seed=seed))
            hits += got.reported_energy <= best_e + 1e-9
        assert hits >= 19

    def test_more_effort_not_worse_in_median(self):
        q = random_qubo(42, n=14, scale=2.0)
        default = [
            SimulatedAnnealingSolver().solve(SolveRequest(model=q, seed=s)).reported_energy
            for s in range(30)
        ]
        doubled = [
            SimulatedAnnealingSolver()
            .solve(SolveRequest(model=q, seed=s, effort=400))
            .reported_energy
            for s in range(30)
        ]
        assert np.median(doubled) <= np.median(default) + 1e-12

    def test_effort_overrides_sweeps(self):
        q = random_qubo(1, n=8)
        quick = SimulatedAnnealingSolver().solve(SolveRequest(model=q, seed=3, effort=5))
        assert qubo_energy(q, quick.assignment) == pytest.approx(
            quick.reported_energy, abs=1e-9
        )


class TestTabu:
    def test_separable_diagonal_reaches_optimum(self):
        diag = np.array([-3.0, 4.0, -1.0, 2.0, -5.0, 0.5])
        q = Qubo(np.diag(diag))
        result = TabuSolver().solve(SolveRequest(model=q, seed=0, effort=len(diag)))
        expected = float(diag[diag < 0].sum())
        assert result.reported_energy == pytest.approx(expected)

    def test_seed_determinism(self):
        q = random_qubo(6, n=12)
        a = TabuSolver().solve(SolveRequest(model=q, seed=5))
        b = TabuSolver().solve(SolveRequest(model=q, seed=5))
        assert np.array_equal(a.assignment, b.assignment)

    def test_quality_gate_sample(self):
        hits = 0
        for seed in range(20):
            q = random_qubo(800 + seed, n=10)
            best_e, _ = brute_force_minimum(q)
            got = TabuSolver().solve(SolveRequest(model=q, seed=seed))
            hits += got.reported_energy <= best_e + 1e-9
        assert hits >= 19

    def test_reported_energy_reverifiable(self):
        q = random_qubo(7, n=16)
        result = TabuSolver().solve(SolveRequest(model=q, seed=2))
        assert qubo_energy(q, result.assignment) == pytest.approx(
            result.reported_energy, abs=1e-9
        )


class TestIsingInputs:
    def test_ising_request_equivalent_to_qubo(self):
        q = random_qubo(10, n=6)
        m = qubo_to_ising(q)
        rq = ExhaustiveSolver().solve(SolveRequest(model=q))
        rm = ExhaustiveSolver().solve(SolveRequest(model=m))
        assert np.array_equal(rq.assignment, rm.assignment)
        assert rm.reported_energy == pytest.approx(rq.reported_energy, rel=1e-9)

    def test_quantized_request_reports_integer_units(self):
        q = random_qubo(11, n=6)
        qm = quantize_int8(qubo_to_ising(q))
        result = ExhaustiveSolver().solve(SolveRequest(model=qm))
        spins = 1 - 2 * result.assignment.astype(int)
        assert result.reported_energy == pytest.approx(
            ising_energy(qm, spins), abs=1e-9
        )


class TestFinitePrecisionAdapter:
    def test_small_integer_model_minimizer_unchanged(self):
        rng = np.random.default_rng(14)
        m = rng.integers(-60, 60, size=(8, 8)).astype(float)
        q = Qubo.from_dense(m + m.T)
        plain = ExhaustiveSolver().solve(SolveRequest(model=q))
        adapted = FinitePrecisionAdapter(ExhaustiveSolver()).solve(SolveRequest(model=q))
        assert adapted.reported_energy == pytest.approx(plain.reported_energy, rel=1e-9)

    def test_rescores_on_submitted_model(self):
        q = random_qubo(21, n=10, scale=5.0)
        adapter = FinitePrecisionAdapter(TabuSolver())
        result = adapter.solve(SolveRequest(model=q, seed=1))
        assert qubo_energy(q, result.assignment) == pytest.approx(
            result.reported_energy, abs=1e-9
        )

    def test_planted_separation_zeroes_weak_couplings(self):
        part = BlockPartition.from_sizes([2, 2])
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = 1000.0
        m[2, 3] = m[3, 2] = -900.0
        m[1, 2] = m[2, 1] = 1.0  # 1000:1 inter-block coupling
        q = Qubo(m, partition=part)
        spin = qubo_to_ising(q)
        report = quantization_loss_report(spin, quantize_int8(spin))
        assert report.zeroed_inter >= 1

    def test_zero_model_deterministic(self):
        q = Qubo(np.zeros((4, 4)))
        result = FinitePrecisionAdapter(ExhaustiveSolver()).solve(SolveRequest(model=q))
        assert result.assignment.tolist() == [0, 0, 0, 0]
        assert result.reported_energy == 0.0

    def test_each_model_object_quantized_once(self, monkeypatch):
        import dpoqubo.backends as backends_mod

        tune, calls = backends_mod.reduce_dynamic_range, []
        monkeypatch.setattr(
            backends_mod,
            "reduce_dynamic_range",
            lambda m, **kw: calls.append(m) or tune(m, **kw),
        )
        q = random_qubo(34, n=6, scale=3.0)
        twin = Qubo(q.coeffs)  # equal to q, but another object
        inner = _RecordingBackend()
        adapter = FinitePrecisionAdapter(inner)
        for seed, model in enumerate((q, q, twin, twin)):
            adapter.solve(SolveRequest(model=model, seed=seed))
        assert len(calls) == 2
        first, again, other, other_again = inner.models
        assert again is first and other_again is other and other is not first
        np.testing.assert_array_equal(other.quadratic, first.quadratic)

    def test_passthrough_for_already_quantized(self):
        q = random_qubo(33, n=5)
        qm = quantize_int8(qubo_to_ising(q))
        adapter = FinitePrecisionAdapter(ExhaustiveSolver())
        assert adapter.quantize(qm) is qm


class TestBackendNames:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("exhaustive", ExhaustiveSolver),
            ("sa", SimulatedAnnealingSolver),
            ("tabu", TabuSolver),
        ],
    )
    def test_base_names(self, name, cls):
        assert isinstance(make_backend(name), cls)

    def test_wrapped_names(self):
        backend = make_backend("int8(sa)")
        assert isinstance(backend, FinitePrecisionAdapter)
        assert isinstance(backend.inner, SimulatedAnnealingSolver)
        assert backend.name == "int8(sa)"

    @pytest.mark.parametrize("name", ["int8(int8(tabu))", "int8()", "int8(quantum)"])
    def test_only_a_base_name_wraps(self, name):
        expected = r"expected exhaustive \| sa \| tabu, optionally wrapped once"
        with pytest.raises(ValueError, match=expected):
            make_backend(name)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("quantum")

    def test_whitespace_tolerated(self):
        assert make_backend("  tabu ").name == "tabu"


class TestRequestValidation:
    def test_effort_must_be_positive(self):
        q = random_qubo(0, n=3)
        with pytest.raises(ValueError, match="effort"):
            SolveRequest(model=q, effort=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("effort", 2.5, "effort must be an integer"),
            ("effort", True, "effort must be an integer"),
            ("seed", 0.5, "seed must be an integer"),
            ("seed", -3, "seed must be >= 0"),
        ],
    )
    def test_counts_taken_exactly_or_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SolveRequest(model=random_qubo(0, n=3), **{field: value})

    def test_integral_float_effort_taken_as_int(self):
        request = SolveRequest(model=random_qubo(0, n=3), seed=2.0, effort=5.0)
        assert (request.seed, request.effort) == (2, 5)
        assert type(request.seed) is int and type(request.effort) is int

    def test_result_assignment_read_only(self):
        result = SolveResult(assignment=np.array([0, 1]), reported_energy=0.0)
        with pytest.raises(ValueError):
            result.assignment[0] = 1


class _RecordingBackend:
    """Exact inner backend that remembers every model it was handed."""

    name = "recording"

    def __init__(self):
        self.models = []

    def solve(self, request):
        self.models.append(request.model)
        return ExhaustiveSolver().solve(request)


def _model_of_kind(kind, q):
    if kind == "qubo":
        return q
    if kind == "ising":
        return qubo_to_ising(q)
    return quantize_int8(qubo_to_ising(q))


class TestSolveContract:
    @pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "int8"])
    @pytest.mark.parametrize("name", ["exhaustive", "sa", "tabu"])
    @pytest.mark.parametrize("kind", ["qubo", "ising", "quantized"])
    def test_reported_energy_is_canonical_energy(self, name, wrapped, kind):
        model = _model_of_kind(kind, random_qubo(61, n=8, scale=3.0))
        backend = make_backend(f"int8({name})" if wrapped else name)
        result = backend.solve(SolveRequest(model=model, seed=4))
        expected = qubo_energy(canonical_qubo(model), result.assignment)
        assert result.reported_energy == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("kind, conversions", [("qubo", 1), ("ising", 2), ("quantized", 2)])
    def test_adapter_converts_to_qubo_once_per_model(self, monkeypatch, kind, conversions):
        # the solve skeleton converts the submitted model and the inner
        # backend converts the quantized one; quantizing reuses the
        # skeleton's QUBO
        import dpoqubo.backends as backends_mod

        convert, calls = backends_mod.ising_to_qubo, []
        monkeypatch.setattr(
            backends_mod, "ising_to_qubo", lambda m: calls.append(m) or convert(m)
        )
        model = _model_of_kind(kind, random_qubo(63, n=6, scale=2.0))
        make_backend("int8(exhaustive)").solve(SolveRequest(model=model, seed=1))
        assert len(calls) == conversions

    def test_adapter_quantizes_an_ising_model_as_its_qubo(self):
        spin = qubo_to_ising(random_qubo(64, n=7, scale=4.0))
        adapter = FinitePrecisionAdapter(ExhaustiveSolver())
        a, b = adapter.quantize(spin), adapter.quantize(canonical_qubo(spin))
        np.testing.assert_array_equal(a.linear, b.linear)
        np.testing.assert_array_equal(a.quadratic, b.quadratic)
        assert a.scale == b.scale

    def test_adapter_hands_quantized_model_to_inner_unchanged(self):
        qm = quantize_int8(qubo_to_ising(random_qubo(62, n=6)))
        inner = _RecordingBackend()
        FinitePrecisionAdapter(inner).solve(SolveRequest(model=qm, seed=1))
        assert len(inner.models) == 1 and inner.models[0] is qm


class TestResultsAreValues:
    @pytest.mark.parametrize("name", ["exhaustive", "sa", "tabu", "int8(tabu)"])
    def test_one_request_one_result(self, name):
        request = SolveRequest(model=random_qubo(71, n=8, scale=2.0), seed=3)
        a, b = (make_backend(name).solve(request) for _ in range(2))
        for field in fields(SolveResult):
            np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name))


def test_canonical_qubo_rejects_a_non_model():
    with pytest.raises(TypeError, match="unsupported model type ndarray"):
        canonical_qubo(np.zeros((2, 2)))
