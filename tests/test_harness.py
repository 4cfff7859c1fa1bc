"""Tests for the strategy-matrix evaluation layer."""

import json

import numpy as np
import pytest

import dpoqubo.backends as backends_mod
from dpoqubo.backends import (
    ExhaustiveSolver,
    FinitePrecisionAdapter,
    SolveResult,
)
from dpoqubo.harness import (
    ALL_VARIANTS,
    StrategyVariant,
    check_feasibility,
    emit_report,
    net_mean_return,
    run_matrix,
    sharpe_ratio,
)
from dpoqubo.market import ReturnPanel, compute_returns, load_bundled_prices
from dpoqubo.model import (
    Covariance,
    DpoConfig,
    PortfolioAllocation,
    decode,
    objective_terms,
    risk_matrices,
)
from dpoqubo.qubo import qubo_energy


def panel_from_daily(daily, dt):
    daily = np.asarray(daily, dtype=float)
    n_t = daily.shape[0] // dt
    interval = daily.reshape(n_t, dt, -1).sum(axis=1)
    return ReturnPanel(
        interval_returns=interval,
        daily_returns=daily,
        dt=dt,
        assets=tuple(f"a{k}" for k in range(daily.shape[1])),
    )


def random_panel(seed, n_t, n_a, dt=6, scale=0.01):
    rng = np.random.default_rng(seed)
    return panel_from_daily(rng.normal(size=(n_t * dt, n_a)) * scale, dt)


def tiny_config(**kw):
    base = dict(
        n_t=2, n_a=2, n_r=2, budget=3, nu=0.01, lam=1.0,
        rho=1.0, gamma=1.0, dt=4, risk=Covariance(),
    )
    base.update(kw)
    return DpoConfig(**base)


def bits_for(weights, config):
    """Little-endian bit vector encoding the given weight matrix."""
    x = np.zeros(config.n, dtype=np.int8)
    for t in range(config.n_t):
        for a in range(config.n_a):
            for r in range(config.n_r):
                x[config.bit_index(t, a, r)] = (int(weights[t][a]) >> r) & 1
    return x


class ScriptedBackend:
    """Returns a canned assignment keyed by the request seed."""

    def __init__(self, by_seed):
        self.name = "scripted"
        self.by_seed = {k: np.asarray(v, dtype=np.int8) for k, v in by_seed.items()}
        self.seen_seeds = []

    def solve(self, request):
        self.seen_seeds.append(request.seed)
        x = self.by_seed[request.seed]
        return SolveResult(
            assignment=x,
            reported_energy=qubo_energy(request.model, x),
        )


class ExplodingBackend:
    name = "exploding"

    def solve(self, request):
        raise RuntimeError("device on fire")


class TestStrategyVariant:
    def test_four_default_cells(self):
        labels = [v.label for v in ALL_VARIANTS]
        assert labels == ["global-fp", "global-int8", "block-fp", "block-int8"]

    def test_bad_axis_values_rejected(self):
        with pytest.raises(ValueError):
            StrategyVariant("partial", "fp")
        with pytest.raises(ValueError):
            StrategyVariant("global", "fp32")


class TestFeasibility:
    def test_exact_budget_passes(self):
        alloc = PortfolioAllocation(np.array([[2, 1], [0, 3]]))
        res = check_feasibility(alloc, 3)
        assert res.feasible and res.violations == ()

    def test_each_missed_interval_reported(self):
        alloc = PortfolioAllocation(np.array([[2, 2], [0, 3], [1, 0]]))
        res = check_feasibility(alloc, 3)
        assert not res.feasible
        assert res.violations == ((0, 4), (2, 1))

    def test_no_tolerance_on_either_side(self):
        assert not check_feasibility(np.array([[2]]), 3).feasible
        assert not check_feasibility(np.array([[4]]), 3).feasible
        assert check_feasibility(np.array([[3]]), 3).feasible

    def test_non_integral_budget_is_never_met(self):
        res = check_feasibility(np.array([[14], [15]]), 14.5)
        assert res.violations == ((0, 14), (1, 15))

    def test_accepts_raw_arrays(self):
        res = check_feasibility(np.array([[1, 2], [3, 0]]), 3)
        assert res.feasible

    @pytest.mark.parametrize("weights", [[[7.2, 7.3]], [[16, -1]]], ids=["fractional", "negative"])
    def test_raw_weights_must_be_nonnegative_integers(self, weights):
        cfg = tiny_config(n_t=1)
        panel = random_panel(1, 1, 2)
        w = np.array(weights)
        for score in (
            lambda: check_feasibility(w, 15),
            lambda: net_mean_return(w, panel, cfg),
            lambda: objective_terms(cfg, panel, risk_matrices(cfg, panel), w),
        ):
            with pytest.raises(ValueError, match="nonnegative integers"):
                score()


class TestNetMeanReturn:
    def test_hand_example(self):
        # one asset, two intervals: w = (2, 1), mu = (0.1, -0.05), nu*lam = 0.01
        cfg = DpoConfig(n_t=2, n_a=1, n_r=2, budget=2, nu=0.01, lam=1.0,
                        rho=1.0, gamma=0.0, dt=2)
        panel = panel_from_daily(
            np.array([[0.05], [0.05], [-0.03], [-0.02]]), dt=2
        )
        series = net_mean_return(np.array([[2], [1]]), panel, cfg)
        # t0: 2*0.1 - 0.01*(2-0)^2 ; t1: 1*(-0.05) - 0.01*(1-2)^2
        assert series == pytest.approx([0.2 - 0.04, -0.05 - 0.01])

    def test_series_sums_to_gross_minus_cost(self):
        rng = np.random.default_rng(5)
        for seed in range(30):
            n_t, n_a = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            cfg = DpoConfig(
                n_t=n_t, n_a=n_a, n_r=3, budget=1, nu=float(rng.uniform(0, 0.1)),
                lam=float(rng.uniform(0.1, 2)), rho=1.0, gamma=1.0, dt=6,
            )
            panel = random_panel(seed, n_t, n_a)
            w = rng.integers(0, 8, size=(n_t, n_a))
            terms = objective_terms(cfg, panel, risk_matrices(cfg, panel), w)
            total = net_mean_return(w, panel, cfg).sum()
            assert total == pytest.approx(
                terms.gross_return - terms.transaction_cost, abs=1e-10
            )

    def test_first_interval_charged_from_cash(self):
        cfg = tiny_config(n_t=1, nu=0.5)
        panel = random_panel(1, 1, 2)
        series = net_mean_return(np.array([[3, 0]]), panel, cfg)
        gross = 3 * panel.interval_returns[0, 0]
        assert series[0] == pytest.approx(gross - 0.5 * 9)

    def test_shape_mismatch_rejected(self):
        cfg = tiny_config()
        panel = random_panel(2, 2, 2)
        with pytest.raises(ValueError):
            net_mean_return(np.zeros((3, 2)), panel, cfg)


class TestSharpeRatio:
    def test_value_is_return_over_root_risk(self):
        cfg = tiny_config()
        panel = random_panel(3, 2, 2)
        risks = risk_matrices(cfg, panel)
        w = np.array([[2, 1], [1, 2]])
        terms = objective_terms(cfg, panel, risks, w)
        res = sharpe_ratio(w, panel, risks, cfg)
        assert res == pytest.approx(
            terms.gross_return / np.sqrt(terms.risk)
        )

    def test_quadrupling_gamma_halves_the_ratio(self):
        panel = random_panel(4, 2, 2)
        w = np.array([[2, 1], [1, 2]])
        vals = []
        for gamma in (1.0, 4.0):
            cfg = tiny_config(gamma=gamma)
            risks = risk_matrices(cfg, panel)
            vals.append(sharpe_ratio(w, panel, risks, cfg))
        assert vals[1] == pytest.approx(vals[0] / 2)

    def test_zero_gamma_flags_zero_risk(self):
        cfg = tiny_config(gamma=0.0)
        panel = random_panel(5, 2, 2)
        risks = risk_matrices(cfg, panel)
        assert sharpe_ratio(np.array([[2, 1], [1, 2]]), panel, risks, cfg) is None

    def test_all_cash_portfolio_flags_zero_risk(self):
        cfg = tiny_config()
        panel = random_panel(6, 2, 2)
        risks = risk_matrices(cfg, panel)
        assert sharpe_ratio(np.zeros((2, 2)), panel, risks, cfg) is None


class TestRunMatrix:
    def test_cell_grid_is_backends_times_variants(self):
        cfg = tiny_config()
        panel = random_panel(7, 2, 2)
        reports = run_matrix(panel, cfg, ["exhaustive"], ALL_VARIANTS, seed=1)
        assert [(r.backend, r.variant.label) for r in reports] == [
            ("exhaustive", "global-fp"),
            ("exhaustive", "global-int8"),
            ("exhaustive", "block-fp"),
            ("exhaustive", "block-int8"),
        ]

    def test_empty_variant_list_gives_empty_matrix(self):
        cfg = tiny_config()
        panel = random_panel(7, 2, 2)
        assert run_matrix(panel, cfg, ["exhaustive"], []) == []

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"runs": 2.5}, "runs must be an integer"),
            ({"runs": True}, "runs must be an integer"),
            ({"seed": 0.5}, "seed must be an integer"),
            ({"seed": -1}, "seed must be >= 0"),
        ],
    )
    def test_bad_runs_or_seed_rejected_before_any_cell(self, kwargs, message):
        cfg = tiny_config()
        panel = random_panel(7, 2, 2)
        with pytest.raises(ValueError, match=message):
            run_matrix(panel, cfg, ["exhaustive"], ALL_VARIANTS, **kwargs)

    def test_three_distinct_base_seeds_per_cell(self):
        cfg = tiny_config()
        panel = random_panel(8, 2, 2)
        feasible = bits_for([[3, 0], [0, 3]], cfg)
        backend = ScriptedBackend({0: feasible, 10_000: feasible, 20_000: feasible})
        run_matrix(panel, cfg, [backend], [StrategyVariant("global", "fp")], seed=0)
        assert backend.seen_seeds == [0, 10_000, 20_000]
        assert len(set(backend.seen_seeds)) == 3

    def test_selects_best_net_return_among_feasible(self):
        cfg = tiny_config()
        panel = random_panel(9, 2, 2)
        a = [[3, 0], [0, 3]]
        b = [[0, 3], [3, 0]]
        infeasible = [[3, 3], [3, 3]]
        backend = ScriptedBackend({
            0: bits_for(a, cfg),
            10_000: bits_for(infeasible, cfg),
            20_000: bits_for(b, cfg),
        })
        reports = run_matrix(
            panel, cfg, [backend], [StrategyVariant("global", "fp")], seed=0
        )
        (rep,) = reports
        totals = {
            0: net_mean_return(np.array(a), panel, cfg).sum(),
            2: net_mean_return(np.array(b), panel, cfg).sum(),
        }
        expect = max(totals, key=totals.get)
        assert rep.feasible
        assert rep.selected_run == expect
        assert rep.total_net_return == pytest.approx(totals[expect])
        runs = {rec.index: rec for rec in rep.runs}
        assert not runs[1].feasible and runs[1].total_net_return is None

    def test_all_runs_logged_even_for_reported_best(self):
        cfg = tiny_config()
        panel = random_panel(10, 2, 2)
        reports = run_matrix(
            panel, cfg, ["exhaustive"], [StrategyVariant("global", "fp")], seed=3
        )
        (rep,) = reports
        assert len(rep.runs) == 3
        assert all(rec.wall_time > 0 for rec in rep.runs)

    def test_infeasible_cell_hides_performance_fields(self):
        cfg = tiny_config()
        panel = random_panel(11, 2, 2)
        bad = bits_for([[3, 3], [3, 3]], cfg)
        backend = ScriptedBackend({0: bad, 10_000: bad, 20_000: bad})
        (rep,) = run_matrix(
            panel, cfg, [backend], [StrategyVariant("global", "fp")], seed=0
        )
        assert rep.status == "infeasible"
        assert rep.net_returns is None
        assert rep.total_net_return is None
        assert rep.sharpe is None
        assert rep.objective is None
        assert rep.violations == ((0, 6), (1, 6))
        assert rep.energy is not None
        assert rep.runs[rep.selected_run].wall_time > 0

    @pytest.mark.parametrize("backends,variants", [
        (["tabu", "tabu"], [StrategyVariant("global", "fp")]),
        (["tabu"], [StrategyVariant("global", "fp"), StrategyVariant("global", "fp")]),
    ])
    def test_repeated_cell_rejected(self, backends, variants):
        # the two cells would write one series file, the later over the earlier
        with pytest.raises(ValueError, match=r"tabu/global-fp would both write series_tabu_global-fp\.csv"):
            run_matrix(random_panel(13, 2, 2), tiny_config(), backends, variants, runs=1)

    def test_backend_exception_isolates_to_its_cells(self):
        cfg = tiny_config()
        panel = random_panel(12, 2, 2)
        reports = run_matrix(
            panel, cfg, [ExplodingBackend(), "exhaustive"],
            [StrategyVariant("global", "fp")], seed=0,
        )
        assert reports[0].status == "error"
        assert "device on fire" in reports[0].error
        assert reports[0].energy is None
        assert reports[1].status in {"feasible", "infeasible"}
        assert reports[1].error is None

    def test_prewrapped_adapter_rejected(self):
        cfg = tiny_config()
        panel = random_panel(13, 2, 2)
        with pytest.raises(ValueError, match="base backends"):
            run_matrix(panel, cfg, [FinitePrecisionAdapter(ExhaustiveSolver())])
        with pytest.raises(ValueError, match="base backends"):
            run_matrix(panel, cfg, ["int8(exhaustive)"])

    @pytest.mark.parametrize("name", [None, 7])
    def test_backend_without_string_name_rejected_before_any_cell(self, name):
        class Nameless:
            def solve(self, request):
                raise AssertionError("no cell may run")

        backend = Nameless()
        if name is not None:
            backend.name = name
        with pytest.raises(TypeError, match="has no string name"):
            run_matrix(random_panel(13, 2, 2), tiny_config(), ["exhaustive", backend])

    def test_runs_must_be_positive(self):
        cfg = tiny_config()
        panel = random_panel(13, 2, 2)
        with pytest.raises(ValueError):
            run_matrix(panel, cfg, ["exhaustive"], runs=0)

    def test_block_energy_never_beats_exhaustive_global(self):
        cfg = tiny_config()
        panel = random_panel(14, 2, 2)
        reports = run_matrix(
            panel, cfg, ["exhaustive"],
            [StrategyVariant("global", "fp"), StrategyVariant("block", "fp")],
            seed=5,
        )
        glob, block = reports
        assert block.energy >= glob.energy - 1e-9

    def test_global_fp_exhaustive_solution_is_budget_feasible(self):
        # with the default budget weight the unconstrained optimum funds
        # every interval exactly
        for seed in range(5):
            cfg = DpoConfig(n_t=2, n_a=2, n_r=2, budget=3, nu=0.01, lam=1.0,
                            rho=None, gamma=1.0, dt=6)
            panel = random_panel(20 + seed, 2, 2)
            (rep,) = run_matrix(
                panel, cfg, ["exhaustive"], [StrategyVariant("global", "fp")],
                seed=seed,
            )
            assert rep.feasible, (seed, rep.violations)

    def test_matrix_rerun_is_identical(self):
        cfg = tiny_config()
        panel = random_panel(15, 2, 2)
        r1 = run_matrix(panel, cfg, ["sa"], ALL_VARIANTS, seed=9)
        r2 = run_matrix(panel, cfg, ["sa"], ALL_VARIANTS, seed=9)
        for a, b in zip(r1, r2):
            assert a.energy == b.energy
            assert a.feasible == b.feasible
            assert a.selected_run == b.selected_run
            if a.feasible:
                assert np.array_equal(a.allocation.weights, b.allocation.weights)


class TestGoldenFixture:
    """Frozen regression values on the packaged fixture at the 48-variable
    scale: a whole-model tabu solve, and every cell of the sa/tabu matrix
    with one run per cell."""

    def test_bundled_size_s_tabu_solution(self):
        from dpoqubo.backends import SolveRequest, TabuSolver
        from dpoqubo.market import compute_returns, load_bundled_prices

        cfg = DpoConfig(n_t=2, n_a=6, n_r=4, budget=15, dt=24)
        panel = compute_returns(load_bundled_prices(), cfg.n_t, cfg.dt)
        risks = risk_matrices(cfg, panel)
        from dpoqubo.model import encode_qubo

        res = TabuSolver().solve(SolveRequest(encode_qubo(cfg, panel, risks), seed=0))
        alloc = decode(res.assignment, cfg)
        assert check_feasibility(alloc, cfg.budget).feasible
        assert alloc.weights.tolist() == [[6, 0, 3, 3, 1, 2], [7, 0, 3, 1, 0, 4]]
        assert res.reported_energy == pytest.approx(-1.3225612452955176, rel=1e-12)
        sharpe = sharpe_ratio(alloc, panel, risks, cfg)
        assert sharpe == pytest.approx(21.197975502871056, rel=1e-12)

    # (backend, variant, status, weights, energy) of every cell of the
    # 48-bit gate matrix; each cell has one run, so run 0 is selected
    GATE_CELLS = [
        ("sa", "global-fp", "infeasible",
         [[4, 0, 6, 4, 0, 0], [6, 1, 5, 1, 0, 2]], -1.135858482568139),
        ("sa", "global-int8", "infeasible",
         [[4, 6, 2, 1, 0, 2], [1, 1, 9, 1, 1, 0]], 0.999405206145255),
        ("sa", "block-fp", "feasible",
         [[5, 0, 6, 3, 0, 1], [6, 0, 7, 1, 0, 1]], -1.6205489417650227),
        ("sa", "block-int8", "infeasible",
         [[9, 1, 1, 1, 1, 1], [9, 1, 1, 1, 1, 1]], -0.5238279753960029),
        ("tabu", "global-fp", "feasible",
         [[3, 1, 3, 3, 4, 1], [3, 2, 6, 1, 3, 0]], -1.2499317578271985),
        ("tabu", "global-int8", "infeasible",
         [[2, 2, 2, 2, 2, 2], [2, 2, 10, 2, 0, 0]], 1.8726475447490571),
        ("tabu", "block-fp", "feasible",
         [[6, 0, 5, 3, 1, 0], [5, 1, 6, 3, 0, 0]], -1.6454537356318184),
        ("tabu", "block-int8", "infeasible",
         [[5, 1, 5, 1, 1, 1], [9, 1, 1, 1, 1, 1]], -0.4380090982765523),
    ]

    def test_bundled_gate_matrix_cells(self):
        panel = compute_returns(load_bundled_prices(), 2, 24)
        reports = run_matrix(panel, DpoConfig(n_t=2), ["sa", "tabu"], runs=1, seed=0)
        assert len(reports) == len(self.GATE_CELLS)
        for report, (backend, variant, status, weights, energy) in zip(reports, self.GATE_CELLS):
            cell = (report.backend, report.variant.label, report.status, report.selected_run)
            assert cell == (backend, variant, status, 0)
            assert report.allocation.weights.tolist() == weights, cell
            assert report.energy == pytest.approx(energy, rel=1e-12), cell


class TestEmitReport:
    def _reports(self, seed=0):
        cfg = tiny_config()
        panel = random_panel(16, 2, 2)
        return run_matrix(panel, cfg, ["exhaustive", "sa"], ALL_VARIANTS, seed=seed)

    def test_file_set(self, tmp_path):
        reports = self._reports()
        paths = emit_report(reports, tmp_path)
        names = {p.name for p in paths}
        assert "summary.json" in names
        assert "timings.json" in names
        feasible = [r for r in reports if r.feasible]
        assert sum(n.startswith("series_") for n in names) == len(feasible)

    def test_summary_contains_no_wall_times(self, tmp_path):
        emit_report(self._reports(), tmp_path)
        text = (tmp_path / "summary.json").read_text()
        assert "wall" not in text
        assert "runtime" not in text
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert all("runtime" in c for c in timings["cells"])

    def test_runtime_is_the_selected_runs_wall_time(self, tmp_path):
        reports = run_matrix(
            random_panel(16, 2, 2), tiny_config(), [ExplodingBackend(), "exhaustive"],
            [StrategyVariant("global", "fp")], seed=0,
        )
        emit_report(reports, tmp_path)
        failed, solved = json.loads((tmp_path / "timings.json").read_text())["cells"]
        assert failed["runtime"] is None and failed["run_wall_times"] == []
        assert solved["runtime"] == solved["run_wall_times"][reports[1].selected_run] > 0

    def test_summary_and_series_bytes_stable_across_reruns(self, tmp_path):
        emit_report(self._reports(seed=4), tmp_path / "one")
        emit_report(self._reports(seed=4), tmp_path / "two")
        one = sorted((tmp_path / "one").iterdir())
        two = sorted((tmp_path / "two").iterdir())
        assert [p.name for p in one] == [p.name for p in two]
        for p, q in zip(one, two):
            if p.name == "timings.json":
                continue
            assert p.read_bytes() == q.read_bytes(), p.name

    def test_infeasible_row_labeled_without_series_or_metrics(self, tmp_path):
        cfg = tiny_config()
        panel = random_panel(17, 2, 2)
        bad = bits_for([[3, 3], [3, 3]], cfg)
        backend = ScriptedBackend({0: bad, 10_000: bad, 20_000: bad})
        reports = run_matrix(
            panel, cfg, [backend], [StrategyVariant("global", "fp")], seed=0
        )
        paths = emit_report(reports, tmp_path)
        assert {p.name for p in paths} == {"summary.json", "timings.json"}
        (cell,) = json.loads((tmp_path / "summary.json").read_text())["cells"]
        assert cell["status"] == "infeasible"
        assert "sharpe" not in cell
        assert "total_net_return" not in cell
        assert "series" not in cell
        assert cell["violations"] == [[0, 6], [1, 6]]

    def test_error_row_carries_message_only(self, tmp_path):
        cfg = tiny_config()
        panel = random_panel(18, 2, 2)
        reports = run_matrix(
            panel, cfg, [ExplodingBackend()], [StrategyVariant("global", "fp")]
        )
        emit_report(reports, tmp_path)
        (cell,) = json.loads((tmp_path / "summary.json").read_text())["cells"]
        assert cell["status"] == "error"
        assert "device on fire" in cell["error"]
        assert "energy" not in cell

    def test_zero_risk_cell_omits_sharpe(self, tmp_path):
        cfg = tiny_config(gamma=0.0)
        panel = random_panel(19, 2, 2)
        reports = run_matrix(
            panel, cfg, ["exhaustive"], [StrategyVariant("global", "fp")]
        )
        emit_report(reports, tmp_path)
        (cell,) = json.loads((tmp_path / "summary.json").read_text())["cells"]
        assert cell["status"] == "feasible"
        assert cell.get("zero_risk") is True
        assert "sharpe" not in cell

    def test_series_file_matches_report(self, tmp_path):
        reports = self._reports()
        emit_report(reports, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        for cell, rep in zip(summary["cells"], reports):
            if cell["status"] != "feasible":
                continue
            lines = (tmp_path / cell["series"]).read_text().strip().splitlines()
            assert lines[0] == "interval,net_return"
            vals = [float(line.split(",")[1]) for line in lines[1:]]
            assert vals == pytest.approx(rep.net_returns.tolist(), abs=0)

    def test_feasible_cell_fields(self, tmp_path):
        reports = self._reports()
        emit_report(reports, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        feas = [c for c in summary["cells"] if c["status"] == "feasible"]
        assert feas
        for cell in feas:
            assert set(cell["objective"]) == {
                "gross_return", "risk", "transaction_cost",
                "budget_penalty", "total",
            }
            assert len(cell["runs"]) == 3
            assert "sharpe" in cell or cell.get("zero_risk") is True


class TestOneAdapterPerCell:
    def test_multi_run_int8_cell_tunes_once(self, monkeypatch):
        calls = []
        original = backends_mod.reduce_dynamic_range

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(backends_mod, "reduce_dynamic_range", counted)
        config = DpoConfig(n_t=2)
        panel = compute_returns(load_bundled_prices(), config.n_t, config.dt)
        (report,) = run_matrix(
            panel, config, ["tabu"], [StrategyVariant("global", "int8")], runs=3
        )
        assert len(report.runs) == 3
        assert len(calls) == 1

    def test_non_variant_rejected(self):
        with pytest.raises(TypeError, match="not a StrategyVariant: 'global-fp'"):
            run_matrix(random_panel(7, 2, 2), tiny_config(), ["exhaustive"], ["global-fp"])
