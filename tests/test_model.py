import itertools
import json
import re

import numpy as np
import pytest

from dpoqubo.market import (
    PriceTable,
    compute_returns,
    generate_synthetic,
    load_bundled_prices,
)
from dpoqubo.harness import net_mean_return, score_allocation
from dpoqubo.model import (
    Covariance,
    DpoConfig,
    PortfolioAllocation,
    RiskMatrix,
    Semicovariance,
    Shrinkage,
    ShrinkageDiagnostics,
    config_from_dict,
    config_to_dict,
    decode,
    encode_qubo,
    load_config,
    objective_terms,
    resolved_rho,
    risk_matrices,
    save_config,
)
from dpoqubo.qubo import qubo_energy, verify_block_tridiagonal

from support import panel_from_daily, random_panel


class TestConfig:
    def test_defaults_match_bundled_scale(self):
        cfg = DpoConfig()
        assert (cfg.n_t, cfg.n_a, cfg.n_r) == (22, 6, 4)
        assert cfg.budget == 15
        assert cfg.dt == 24
        assert cfg.n == 528
        assert isinstance(cfg.risk, Covariance)

    @pytest.mark.parametrize(
        "dims,expected", [((2, 6, 4), 48), ((6, 6, 4), 144), ((22, 6, 4), 528)]
    )
    def test_variable_counts(self, dims, expected):
        n_t, n_a, n_r = dims
        assert DpoConfig(n_t=n_t, n_a=n_a, n_r=n_r).n == expected

    def test_partition_blocks_by_interval(self):
        cfg = DpoConfig(n_t=3, n_a=2, n_r=2, budget=3)
        assert cfg.partition().sizes == (4, 4, 4)

    def test_budget_must_be_representable(self):
        with pytest.raises(ValueError, match="representable"):
            DpoConfig(n_t=1, n_a=2, n_r=2, budget=7)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError, match="nu"):
            DpoConfig(nu=-0.1)

    @pytest.mark.parametrize("name", ["nu", "lam", "gamma", "rho"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rates_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DpoConfig(**{name: value})

    @pytest.mark.parametrize("name", ["nu", "lam", "gamma", "rho"])
    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_rates_must_be_numbers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            DpoConfig(**{name: value})

    def test_unknown_risk_rejected(self):
        with pytest.raises(ValueError, match="risk must be a covariance or semicovariance or shrinkage"):
            DpoConfig(risk="covariance")

    def test_bit_index_layout(self):
        cfg = DpoConfig(n_t=2, n_a=3, n_r=2, budget=4)
        assert cfg.bit_index(0, 0, 0) == 0
        assert cfg.bit_index(0, 0, 1) == 1
        assert cfg.bit_index(0, 1, 0) == 2
        assert cfg.bit_index(1, 0, 0) == 6


class TestCovarianceRisk:
    def test_constant_returns_zero_matrix(self):
        panel = panel_from_daily(np.full((4, 3), 0.02), dt=4)
        assert np.all(Covariance().estimate(panel, 0).matrix == 0.0)

    def test_two_sample_variance_by_hand(self):
        panel = panel_from_daily(np.array([[0.01], [-0.01]]), dt=2)
        sigma = Covariance().estimate(panel, 0).matrix
        assert sigma[0, 0] == pytest.approx(2e-4, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_psd_on_random_data(self, seed):
        panel = random_panel(seed, n_t=3, n_a=5)
        for t in range(3):
            eigs = np.linalg.eigvalsh(Covariance().estimate(panel, t).matrix)
            assert eigs.min() >= -1e-12

    def test_matches_numpy_cov(self):
        panel = random_panel(11, n_t=2, n_a=4, dt=8)
        day = panel.daily_returns[panel.daily_slice(1)]
        np.testing.assert_allclose(
            Covariance().estimate(panel, 1).matrix, np.cov(day.T, ddof=1), atol=1e-15
        )

    def test_needs_two_observations(self):
        panel = panel_from_daily(np.zeros((2, 2)), dt=1)
        with pytest.raises(ValueError, match="dt >= 2"):
            Covariance().estimate(panel, 0)


class TestSemicovarianceRisk:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "0"])
    def test_benchmark_must_be_a_finite_number(self, value):
        with pytest.raises(ValueError, match="benchmark must be"):
            Semicovariance(benchmark=value)

    def test_negative_benchmark_accepted(self):
        assert Semicovariance(benchmark=-0.01).benchmark == -0.01

    def test_all_above_benchmark_zero(self):
        panel = panel_from_daily(np.full((4, 2), 0.05), dt=4)
        assert np.all(Semicovariance(benchmark=0.0).estimate(panel, 0).matrix == 0.0)

    def test_all_below_benchmark_second_moment(self):
        daily = np.array([[-0.01, -0.02], [-0.03, -0.01], [-0.02, -0.02]])
        panel = panel_from_daily(daily, dt=3)
        expected = daily.T @ daily / 2.0  # no centering, nothing clipped
        np.testing.assert_allclose(
            Semicovariance(benchmark=0.0).estimate(panel, 0).matrix, expected, atol=1e-15
        )

    def test_mixed_signs_clipped_gram_oracle(self):
        rng = np.random.default_rng(5)
        daily = rng.normal(size=(6, 2)) * 0.02
        panel = panel_from_daily(daily, dt=6)
        clipped = np.minimum(daily - 0.001, 0.0)
        expected = np.zeros((2, 2))
        for a in range(2):
            for b in range(2):
                expected[a, b] = sum(clipped[s, a] * clipped[s, b] for s in range(6)) / 5.0
        np.testing.assert_allclose(
            Semicovariance(benchmark=0.001).estimate(panel, 0).matrix, expected, atol=1e-15
        )


class TestShrinkageRisk:
    @pytest.mark.parametrize("value", [7, -0.1, 1.5, float("nan"), True])
    def test_override_outside_unit_interval_rejected(self, value):
        with pytest.raises(ValueError, match="delta_override must"):
            Shrinkage(delta_override=value)

    def test_identity_proportional_cov_gets_zero_delta(self):
        # two assets moving identically but independently scaled leaves a
        # diagonal, equal-variance covariance -> already the target
        daily = np.array([[0.01, -0.01], [-0.01, 0.01]])
        panel = panel_from_daily(daily, dt=2)
        risk = Shrinkage().estimate(panel, 0)
        # cov = [[2e-4, -2e-4], [-2e-4, 2e-4]] is NOT proportional to I here;
        # build a genuinely isotropic case instead
        daily_iso = np.array([[0.01, 0.0], [-0.01, 0.0], [0.0, 0.01], [0.0, -0.01]])
        panel_iso = panel_from_daily(daily_iso, dt=4)
        risk = Shrinkage().estimate(panel_iso, 0)
        assert risk.shrinkage.delta == 0.0
        np.testing.assert_allclose(risk.matrix, Covariance().estimate(panel_iso, 0).matrix)

    def test_full_override_returns_target(self):
        panel = random_panel(7, n_t=1, n_a=4, dt=10)
        cov = Covariance().estimate(panel, 0).matrix
        risk = Shrinkage(delta_override=1.0).estimate(panel, 0)
        target = (np.trace(cov) / 4) * np.eye(4)
        np.testing.assert_allclose(risk.matrix, target, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_preserved(self, seed):
        panel = random_panel(seed, n_t=2, n_a=5, dt=8)
        for t in range(2):
            cov_tr = np.trace(Covariance().estimate(panel, t).matrix)
            sh_tr = np.trace(Shrinkage().estimate(panel, t).matrix)
            assert sh_tr == pytest.approx(cov_tr, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_delta_in_unit_interval(self, seed):
        panel = random_panel(100 + seed, n_t=3, n_a=4)
        for t in range(3):
            d = Shrinkage().estimate(panel, t).shrinkage
            assert 0.0 <= d.delta <= 1.0
            assert d.beta_hat <= d.alpha_hat or d.alpha_hat == 0.0

    def test_shrunk_toward_target(self):
        panel = random_panel(55, n_t=1, n_a=3, dt=4)  # noisy: few samples
        risk = Shrinkage().estimate(panel, 0)
        cov = Covariance().estimate(panel, 0).matrix
        if risk.shrinkage.delta > 0:
            # off-diagonal magnitudes can only shrink under identity targets
            off = ~np.eye(3, dtype=bool)
            assert np.all(np.abs(risk.matrix[off]) <= np.abs(cov[off]) + 1e-15)


class TestRiskDispatch:
    def test_choice_selects_estimator(self):
        panel = random_panel(1, n_t=2, n_a=3)
        cfg = DpoConfig(n_t=2, n_a=3, n_r=2, budget=4, dt=6)
        cov = risk_matrices(cfg, panel)
        semi = risk_matrices(
            DpoConfig(n_t=2, n_a=3, n_r=2, budget=4, dt=6, risk=Semicovariance()), panel
        )
        sh = risk_matrices(
            DpoConfig(n_t=2, n_a=3, n_r=2, budget=4, dt=6, risk=Shrinkage()), panel
        )
        assert len(cov) == len(semi) == len(sh) == 2
        assert sh[0].shrinkage is not None and cov[0].shrinkage is None
        assert not np.array_equal(cov[0].matrix, semi[0].matrix)


class TestObjectiveTerms:
    def _setup(self, seed=0, n_t=3, n_a=2, n_r=2, budget=3, **kw):
        cfg = DpoConfig(n_t=n_t, n_a=n_a, n_r=n_r, budget=budget, dt=6, **kw)
        panel = random_panel(seed, n_t=n_t, n_a=n_a)
        return cfg, panel, risk_matrices(cfg, panel)

    def test_empty_portfolio(self):
        cfg, panel, risks = self._setup(rho=2.0)
        terms = objective_terms(cfg, panel, risks, np.zeros((3, 2)))
        assert terms.gross_return == 0.0
        assert terms.risk == 0.0
        assert terms.transaction_cost == 0.0
        assert terms.budget_penalty == pytest.approx(2.0 * 3 * 9)
        assert terms.total == pytest.approx(-54.0)

    def test_single_step_single_asset_by_hand(self):
        cfg = DpoConfig(n_t=1, n_a=1, n_r=4, budget=15, nu=0.01, lam=1.0, gamma=1.0, dt=2)
        panel = panel_from_daily(np.array([[0.01], [0.03]]), dt=2)
        risks = risk_matrices(cfg, panel)
        terms = objective_terms(cfg, panel, risks, np.array([[15]]))
        assert terms.budget_penalty == 0.0
        assert terms.transaction_cost == pytest.approx(0.01 * 15**2)
        assert terms.gross_return == pytest.approx(15 * panel.interval_returns[0, 0])
        sigma = risks[0].matrix[0, 0]
        assert terms.risk == pytest.approx(0.5 * 15**2 * sigma)

    def test_gamma_scales_risk_only(self):
        cfg, panel, risks = self._setup(gamma=1.0)
        cfg2 = DpoConfig(n_t=3, n_a=2, n_r=2, budget=3, dt=6, gamma=2.0)
        w = np.array([[1, 2], [0, 3], [2, 1]])
        a = objective_terms(cfg, panel, risks, w)
        b = objective_terms(cfg2, panel, risks, w)
        assert b.risk == pytest.approx(2 * a.risk)
        assert b.gross_return == a.gross_return
        assert b.transaction_cost == a.transaction_cost
        assert b.budget_penalty == a.budget_penalty

    def test_initial_buy_in_is_charged(self):
        cfg, panel, risks = self._setup(nu=0.5, lam=1.0, gamma=0.0, rho=0.0)
        w = np.array([[1, 2], [1, 2], [1, 2]])  # turnover only at t=0
        terms = objective_terms(cfg, panel, risks, w)
        assert terms.transaction_cost == pytest.approx(0.5 * (1 + 4))

    def test_dimension_mismatch(self):
        cfg, panel, risks = self._setup()
        with pytest.raises(ValueError, match="shape"):
            objective_terms(cfg, panel, risks, np.zeros((2, 2)))

    def test_missized_risk_names_its_interval(self):
        cfg, panel, risks = self._setup()
        risks[1] = RiskMatrix(np.eye(3))
        with pytest.raises(ValueError, match="risk matrix 1 is 3x3, expected 2"):
            objective_terms(cfg, panel, risks, np.zeros((3, 2)))


class TestRhoDefault:
    def test_auto_rho_twice_max_return(self):
        panel = random_panel(3, n_t=2, n_a=2)
        cfg = DpoConfig(n_t=2, n_a=2, n_r=2, budget=3, dt=6)
        assert resolved_rho(cfg, panel) == pytest.approx(
            2.0 * np.abs(panel.interval_returns).max()
        )

    def test_explicit_rho_wins(self):
        panel = random_panel(3, n_t=2, n_a=2)
        cfg = DpoConfig(n_t=2, n_a=2, n_r=2, budget=3, dt=6, rho=7.5)
        assert resolved_rho(cfg, panel) == 7.5


class TestDecode:
    def test_all_ones(self):
        cfg = DpoConfig(n_t=2, n_a=2, n_r=4, budget=15, dt=2)
        alloc = decode(np.ones(cfg.n, dtype=int), cfg)
        assert np.all(alloc.weights == 15)

    def test_all_zeros(self):
        cfg = DpoConfig(n_t=2, n_a=2, n_r=4, budget=15, dt=2)
        assert np.all(decode(np.zeros(cfg.n, dtype=int), cfg).weights == 0)

    def test_little_endian_bits(self):
        cfg = DpoConfig(n_t=1, n_a=1, n_r=4, budget=15, dt=2)
        assert decode([1, 0, 1, 0], cfg).weights[0, 0] == 5

    def test_length_mismatch(self):
        cfg = DpoConfig(n_t=1, n_a=1, n_r=4, budget=15, dt=2)
        with pytest.raises(ValueError, match="length"):
            decode([1, 0], cfg)


class TestEncodeQubo:
    def test_pure_return_model_is_diagonal(self):
        cfg = DpoConfig(n_t=2, n_a=2, n_r=3, budget=4, nu=0.0, rho=0.0, gamma=0.0, dt=6)
        panel = random_panel(9, n_t=2, n_a=2)
        q = encode_qubo(cfg, panel)
        off_diag = q.coeffs - np.diag(np.diag(q.coeffs))
        assert np.all(off_diag == 0.0)
        for t in range(2):
            for a in range(2):
                for r in range(3):
                    i = cfg.bit_index(t, a, r)
                    assert q.coeffs[i, i] == pytest.approx(
                        -(2**r) * panel.interval_returns[t, a], rel=1e-12
                    )

    def test_block_tridiagonal(self):
        cfg = DpoConfig(n_t=4, n_a=2, n_r=2, budget=4, dt=6)
        q = encode_qubo(cfg, random_panel(2, n_t=4, n_a=2))
        ok, violations = verify_block_tridiagonal(q)
        assert ok, violations

    @pytest.mark.parametrize("seed", range(3))
    def test_energy_equals_negated_score_exhaustively(self, seed):
        cfg = DpoConfig(n_t=2, n_a=2, n_r=2, budget=3, dt=5)
        panel = random_panel(seed, n_t=2, n_a=2, dt=5)
        risks = risk_matrices(cfg, panel)
        q = encode_qubo(cfg, panel, risks)
        scale = max(1.0, np.abs(q.coeffs).max())
        for bits in itertools.product([0, 1], repeat=cfg.n):
            x = np.array(bits)
            score = objective_terms(cfg, panel, risks, decode(x, cfg)).total
            assert qubo_energy(q, x) == pytest.approx(-score, abs=1e-9 * scale)

    def test_energy_identity_other_risk_models(self):
        for risk in (Semicovariance(benchmark=0.002), Shrinkage()):
            cfg = DpoConfig(
                n_t=2, n_a=2, n_r=2, budget=3, dt=5, risk=risk, nu=0.02, gamma=1.5
            )
            panel = random_panel(77, n_t=2, n_a=2, dt=5)
            risks = risk_matrices(cfg, panel)
            q = encode_qubo(cfg, panel, risks)
            rng = np.random.default_rng(0)
            for _ in range(50):
                x = rng.integers(0, 2, size=cfg.n)
                score = objective_terms(cfg, panel, risks, decode(x, cfg)).total
                assert qubo_energy(q, x) == pytest.approx(-score, rel=1e-9, abs=1e-12)

    def test_full_scale_instance_shapes(self):
        series = generate_synthetic(seed=0, n_a=6, days=529)
        panel = compute_returns(series, n_t=22, dt=24)
        q = encode_qubo(DpoConfig(), panel)
        assert q.n == 528
        assert len(q.partition) == 22
        assert verify_block_tridiagonal(q)[0]

    def test_normalization_invariance(self):
        table = generate_synthetic(seed=4, n_a=3, days=13)
        cfg = DpoConfig(n_t=3, n_a=3, n_r=2, budget=4, dt=4)
        q_raw = encode_qubo(cfg, compute_returns(table, 3, 4))
        # each column divided by its first price: every asset starts at 1
        normalized = PriceTable(table.dates, table.assets, table.prices / table.prices[0])
        q_norm = encode_qubo(cfg, compute_returns(normalized, 3, 4))
        np.testing.assert_allclose(q_raw.coeffs, q_norm.coeffs, rtol=0, atol=1e-10)
        assert q_raw.offset == pytest.approx(q_norm.offset, abs=1e-10)


class TestAllocationType:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PortfolioAllocation(np.array([[1, -1]]))

    def test_rejects_fractional(self):
        with pytest.raises(ValueError, match="integer"):
            PortfolioAllocation(np.array([[0.5, 1.0]]))

    def test_invested_per_step(self):
        alloc = PortfolioAllocation(np.array([[1, 2], [3, 0]]))
        assert alloc.invested_per_step().tolist() == [3, 3]


class TestConfigFiles:
    def test_roundtrip(self, tmp_path):
        cfg = DpoConfig(
            n_t=4, n_a=3, n_r=3, budget=9, nu=0.05, lam=0.5, rho=1.25,
            gamma=2.0, dt=12, risk=Semicovariance(benchmark=0.001),
        )
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_byte_order_mark_skipped(self, tmp_path):
        cfg = DpoConfig(n_t=4, n_a=3, lam=0.5, risk=Semicovariance(benchmark=0.001))
        path = tmp_path / "config.json"
        save_config(cfg, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_config(path) == cfg

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{}")
        assert load_config(path) == DpoConfig()

    def test_lambda_key_spelled_out(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"lambda": 0.25}))
        assert load_config(path).lam == 0.25

    def test_auto_rho_survives_roundtrip(self, tmp_path):
        path = tmp_path / "config.json"
        save_config(DpoConfig(), path)
        assert load_config(path).rho is None

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ValueError, match="unknown config"):
            load_config(path)

    @pytest.mark.parametrize("name", ["n_t", "n_a", "n_r", "budget", "dt"])
    @pytest.mark.parametrize("value", [7.5, True, "7"])
    def test_counts_taken_exactly_or_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            config_from_dict({name: value})

    @pytest.mark.parametrize("name", ["n_t", "n_a", "n_r", "budget", "dt"])
    @pytest.mark.parametrize("value", [7.5, True, "7"])
    def test_constructor_takes_counts_exactly_or_rejects(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            DpoConfig(**{name: value})

    @pytest.mark.parametrize("key,name", [
        ("nu", "nu"), ("lambda", "lam"), ("gamma", "gamma"), ("rho", "rho"),
    ])
    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_rates_in_file_must_be_numbers(self, key, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            config_from_dict({key: value})

    def test_lam_key_rejected(self):
        # the file spelling is "lambda"; "lam" is the field name only
        with pytest.raises(ValueError, match=r"unknown config fields: \['lam'\]"):
            config_from_dict({"lam": 0.5, "lambda": 2.0})

    @pytest.mark.parametrize("obj", [5, [1], None, "{}"])
    def test_config_must_be_an_object(self, obj):
        with pytest.raises(ValueError, match="must be a JSON object"):
            config_from_dict(obj)

    @pytest.mark.parametrize("risk,message", [
        (5, "risk must be a kind name"),
        ({"benchmark": 0.0}, "unknown risk kind None"),
        ({"kind": "variance"}, "unknown risk kind 'variance'"),
        ({"kind": ["covariance"]}, "unknown risk kind"),
        ({"kind": "covariance", "benchmark": 3}, "takes no fields \\['benchmark'\\]"),
        ({"kind": "semicovariance", "delta_override": 0.5}, "takes no fields"),
        ({"kind": "semicovariance", "benchmark": float("nan")}, "benchmark must be finite"),
        ({"kind": "shrinkage", "delta_override": 7}, "delta_override must lie in"),
    ])
    def test_bad_risk_rejected(self, risk, message):
        with pytest.raises(ValueError, match=message):
            config_from_dict({"risk": risk})

    @pytest.mark.parametrize("risk", [
        Covariance(), Semicovariance(benchmark=-0.002), Shrinkage(), Shrinkage(delta_override=0.3),
    ])
    def test_risk_written_as_kind_and_set_fields(self, risk):
        written = config_to_dict(DpoConfig(risk=risk))["risk"]
        assert list(written)[0] == "kind" and None not in written.values()
        assert config_from_dict({"risk": written}).risk == risk

    def test_integral_float_counts_accepted(self):
        assert config_from_dict({"budget": 7.0, "n_t": 3.0}) == DpoConfig(budget=7, n_t=3)

    def test_nan_rate_in_file_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"nu": NaN}')
        with pytest.raises(ValueError, match="nu must be finite"):
            load_config(path)

    def test_risk_kind_string_shorthand(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"risk": "shrinkage"}))
        assert load_config(path).risk == Shrinkage()


class TestInputChecks:
    @pytest.mark.parametrize("build, message", [
        (lambda: RiskMatrix(np.zeros((2, 3))), "risk matrix must be square"),
        (lambda: RiskMatrix([[1.0, 0.5], [0.0, 1.0]]), "risk matrix must be symmetric"),
        (lambda: RiskMatrix([[1.0, 2.0], [2.0, 1.0]]), "risk matrix not PSD (min eigenvalue -1)"),
        (lambda: RiskMatrix([[1.0, np.inf], [np.inf, 1.0]]), "risk matrix must be finite"),
        (lambda: RiskMatrix([[np.nan]]), "risk matrix must be finite"),
        (lambda: RiskMatrix(np.eye(2), ShrinkageDiagnostics(1.5, 0.0, 0.0)),
         "shrinkage intensity must lie in [0, 1]"),
        (lambda: PortfolioAllocation(np.zeros(3)), "weights must be an n_t x n_a matrix"),
    ], ids=["non-square", "asymmetric", "not-psd", "infinite", "nan", "shrinkage-delta",
            "1d-allocation"])
    def test_rejected_with_a_message(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("config_kw, n_t, dt, name", [
        ({}, 2, 24, "n_t"),
        ({"n_a": 5}, 22, 24, "n_a"),
        ({}, 22, 10, "dt"),
    ], ids=["n_t", "n_a", "dt"])
    @pytest.mark.parametrize("call", ["encode_qubo", "risk_matrices", "net_mean_return"])
    def test_panel_must_match_the_config(self, call, config_kw, n_t, dt, name):
        config = DpoConfig(**config_kw)
        panel = compute_returns(load_bundled_prices(), n_t, dt)
        calls = {
            "encode_qubo": lambda: encode_qubo(config, panel),
            "risk_matrices": lambda: risk_matrices(config, panel),
            "net_mean_return": lambda: net_mean_return(
                np.zeros((config.n_t, config.n_a), dtype=int), panel, config
            ),
        }
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            calls[call]()

    @pytest.mark.parametrize("bad_risks, message", [
        (lambda risks: risks[:2], "need 3 risk matrices, got 2"),
        (lambda risks: [r.matrix for r in risks],
         "risk matrix 0 must be a RiskMatrix, got ndarray"),
    ], ids=["too-few", "plain-arrays"])
    @pytest.mark.parametrize("call", ["encode_qubo", "objective_terms", "score_allocation"])
    def test_wrong_number_of_risk_matrices(self, call, bad_risks, message):
        cfg = DpoConfig(n_t=3, n_a=2, n_r=2, budget=3, dt=6)
        panel = random_panel(0, n_t=3, n_a=2)
        risks = bad_risks(risk_matrices(cfg, panel))
        weights = np.zeros((cfg.n_t, cfg.n_a), dtype=int)
        calls = {
            "encode_qubo": lambda: encode_qubo(cfg, panel, risks),
            "objective_terms": lambda: objective_terms(cfg, panel, risks, weights),
            "score_allocation": lambda: score_allocation(
                PortfolioAllocation(weights), panel, cfg, risks
            ),
        }
        with pytest.raises(ValueError, match=re.escape(message)):
            calls[call]()
