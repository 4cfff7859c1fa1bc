import math
import re

import numpy as np
import pytest

from dpoqubo.market import (
    PriceTable,
    ReturnPanel,
    append_cash_asset,
    compute_returns,
    generate_synthetic,
    load_bundled_prices,
    parse_prices,
    save_prices,
)


def make_table(prices):
    dates = tuple(f"2023-01-{d + 1:02d}" for d in range(len(prices)))
    return PriceTable(dates, ("X",), np.array(prices, float).reshape(-1, 1))


class TestPriceTable:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            make_table([1.0, 0.0, 2.0])

    def test_rejects_unsorted_dates(self):
        with pytest.raises(ValueError, match="increasing"):
            PriceTable(("2023-01-02", "2023-01-01"), ("X",), [[1.0], [2.0]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="dates"):
            PriceTable(("2023-01-01",), ("X",), [[1.0], [2.0]])

    def test_prices_read_only(self):
        t = make_table([1.0, 2.0])
        with pytest.raises(ValueError):
            t.prices[0, 0] = 5.0

    @pytest.mark.parametrize("assets", [("a", ""), ("a", "a")])
    def test_rejects_empty_or_duplicate_asset_names(self, assets):
        with pytest.raises(ValueError, match="non-empty and distinct"):
            PriceTable(("2023-01-01",), assets, [[1.0, 2.0]])

    def test_has_no_length(self):
        # len() would be ambiguous between days and assets
        with pytest.raises(TypeError):
            len(make_table([1.0, 2.0]))


class TestParsing:
    def test_small_file(self):
        text = "date,a,b\n2023-01-01,1.0,2.0\n2023-01-02,1.1,2.1\n2023-01-03,1.2,2.2\n"
        table = parse_prices(text)
        assert table.assets == ("a", "b")
        assert table.prices.shape == (3, 2)

    def test_missing_cell_drops_whole_row(self):
        text = "date,a,b\n2023-01-01,1.0,2.0\n2023-01-02,1.1,\n2023-01-03,1.2,2.2\n"
        table = parse_prices(text)
        assert table.prices.shape == (2, 2)
        assert table.dates == ("2023-01-01", "2023-01-03")

    def test_nan_marker_drops_row(self):
        text = "date,a\n2023-01-01,1.0\n2023-01-02,NaN\n"
        assert parse_prices(text).prices.shape == (1, 1)

    def test_malformed_row_raises(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_prices("date,a,b\n2023-01-01,1.0\n")

    def test_garbage_price_raises(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_prices("date,a\n2023-01-01,abc\n")

    def test_negative_price_raises(self):
        with pytest.raises(ValueError, match="positive"):
            parse_prices("date,a\n2023-01-01,-3.0\n")

    @pytest.mark.parametrize("second", ["2023-01-02", "2023-01-01"])
    def test_repeated_or_out_of_order_date_names_line(self, second):
        text = f"date,a\n2023-01-02,1.0\n{second},2.0\n"
        with pytest.raises(ValueError, match="line 3: dates not strictly increasing"):
            parse_prices(text)

    @pytest.mark.parametrize("date", ["9/29/2023", "2023-1-02", "20230102", "2023-02-30"])
    def test_non_iso_date_names_line(self, date):
        text = f"date,a\n{date},1.0\n2023-10-02,2.0\n"
        with pytest.raises(ValueError, match=f"line 2: date '{date}' is not YYYY-MM-DD"):
            parse_prices(text)

    @pytest.mark.parametrize("header", ["date,a,", "date,a,a"])
    def test_empty_or_duplicate_asset_name_rejected(self, header):
        with pytest.raises(ValueError, match="non-empty and distinct"):
            parse_prices(f"{header}\n2023-01-01,1.0,2.0\n")

    def test_header_spaces_tolerated(self):
        table = parse_prices("date, alpha, beta\n2023-01-01, 1.0, 2.0\n")
        assert table.assets == ("alpha", "beta")

    def test_save_load_roundtrip(self, tmp_path):
        table = generate_synthetic(seed=5, n_a=3, days=10)
        path = tmp_path / "prices.csv"
        save_prices(table, path)
        back = parse_prices(path.read_text())
        assert back.assets == table.assets
        assert back.dates == table.dates
        assert np.array_equal(back.prices, table.prices)


class TestCashAsset:
    def test_empty_panel(self):
        table = append_cash_asset(PriceTable(("d1", "d2"), (), np.empty((2, 0))))
        assert table.assets == ("CASH",)
        assert table.prices.tolist() == [[1.0], [1.0]]

    def test_cash_returns_exactly_zero(self):
        table = append_cash_asset(generate_synthetic(seed=1, n_a=5, days=25))
        assert len(table.assets) == 6
        returns = compute_returns(table, n_t=4, dt=6)
        assert np.all(returns.interval_returns[:, -1] == 0.0)
        assert np.all(returns.daily_returns[:, -1] == 0.0)

    def test_second_cash_column_rejected(self):
        table = append_cash_asset(make_table([1.0, 2.0]))
        with pytest.raises(ValueError, match="distinct"):
            append_cash_asset(table)


class TestComputeReturns:
    def test_exact_exponentials(self):
        s = make_table([1.0, math.e, math.e**2])
        panel = compute_returns(s, n_t=2, dt=1)
        np.testing.assert_allclose(panel.interval_returns, [[1.0], [1.0]], atol=1e-15)

    def test_constant_prices_zero_returns(self):
        s = make_table([7.0] * 13)
        panel = compute_returns(s, n_t=3, dt=4)
        assert np.all(panel.interval_returns == 0.0)
        assert np.all(panel.daily_returns == 0.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_interval_is_sum_of_dailies(self, seed):
        table = generate_synthetic(seed=seed, n_a=4, days=61)
        panel = compute_returns(table, n_t=5, dt=12)
        for t in range(panel.n_t):
            block = panel.daily_returns[panel.daily_slice(t)]
            np.testing.assert_allclose(
                block.sum(axis=0), panel.interval_returns[t], rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("n_t, dt, message", [
        (2.5, 24, "n_t must be an integer, got 2.5"),
        (2, 24.5, "dt must be an integer, got 24.5"),
        (True, 24, "n_t must be an integer, got True"),
        (2, 0, "dt must be >= 1, got 0"),
        (0, 24, "n_t must be >= 1, got 0"),
    ])
    def test_counts_taken_exactly(self, n_t, dt, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            compute_returns(load_bundled_prices(), n_t, dt)

    def test_integral_float_counts_accepted(self):
        panel = compute_returns(load_bundled_prices(), 2.0, 24.0)
        assert panel.interval_returns.shape == (2, 6) and type(panel.dt) is int

    def test_insufficient_history(self):
        s = make_table([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="insufficient"):
            compute_returns(s, n_t=3, dt=1)

    def test_tail_trim_keeps_earliest_window(self):
        prices = [1.0, 2.0, 4.0, 8.0, 16.0]
        s = make_table(prices)
        panel = compute_returns(s, n_t=2, dt=1)
        np.testing.assert_allclose(panel.interval_returns[:, 0], [math.log(2)] * 2)
        # the two late moves fall outside the first n_t*dt + 1 days
        tail = compute_returns(make_table([1.0, 1.0, 1.0, 2.0, 4.0]), n_t=2, dt=1)
        np.testing.assert_allclose(tail.interval_returns[:, 0], [0.0, 0.0])

    def test_daily_slices_tile_horizon(self):
        table = generate_synthetic(seed=3, n_a=2, days=25)
        panel = compute_returns(table, n_t=4, dt=6)
        covered = []
        for t in range(panel.n_t):
            sl = panel.daily_slice(t)
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(panel.n_t * panel.dt))


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(seed=0, n_a=3, days=50)
        b = generate_synthetic(seed=0, n_a=3, days=50)
        assert a.dates == b.dates
        assert np.array_equal(a.prices, b.prices)

    def test_seed_changes_output(self):
        a = generate_synthetic(seed=0, n_a=2, days=20)
        b = generate_synthetic(seed=1, n_a=2, days=20)
        assert not np.array_equal(a.prices[:, 0], b.prices[:, 0])

    def test_zero_volatility_pure_drift(self):
        t = generate_synthetic(seed=9, n_a=1, days=5, drift=0.01, volatility=0.0)
        np.testing.assert_allclose(
            np.diff(np.log(t.prices), axis=0), np.full((4, 1), 0.01), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"n_a": 2.5}, "n_a must be an integer, got 2.5"),
        ({"n_a": 0}, "n_a must be >= 1, got 0"),
        ({"days": 0}, "days must be >= 1, got 0"),
        ({"days": False}, "days must be an integer, got False"),
    ])
    def test_counts_taken_exactly(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_synthetic(**{"seed": 0, "n_a": 2, "days": 5, **kwargs})

    def test_integral_float_seed_is_that_seed(self):
        a = generate_synthetic(seed=3.0, n_a=2, days=6.0)
        b = generate_synthetic(seed=3, n_a=2, days=6)
        np.testing.assert_array_equal(a.prices, b.prices)

    def test_negative_volatility_rejected(self):
        with pytest.raises(ValueError, match="volatility"):
            generate_synthetic(seed=0, n_a=2, days=10, volatility=-0.1)

    def test_correlation_bounds(self):
        with pytest.raises(ValueError, match="correlation"):
            generate_synthetic(seed=0, n_a=2, days=10, correlation=1.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kwargs, message", [
        ({"drift": math.nan}, "drift must be finite, got nan"),
        ({"drift": [0.1, 0.2, 0.3]}, "drift must be a number or 2 numbers, got [0.1, 0.2, 0.3]"),
        ({"drift": "0.5"}, "drift must be a number or 2 numbers, got '0.5'"),
        ({"volatility": True}, "volatility must be a number or 2 numbers, got True"),
        ({"volatility": math.inf}, "volatility must be finite, got inf"),
        ({"start_price": math.nan}, "start_price must be finite, got nan"),
        ({"start_price": [1.0, math.inf]}, "start_price must be finite, got [1.0, inf]"),
        ({"start_price": 0.0}, "start_price must be positive"),
        ({"correlation": "0.5"}, "correlation must be a number, got '0.5'"),
        ({"correlation": math.nan}, "correlation must be finite, got nan"),
    ])
    def test_bad_parameter_named(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_synthetic(seed=0, n_a=2, days=10, **kwargs)

    def test_sample_correlation_matches_target(self):
        target = 0.4
        table = generate_synthetic(
            seed=123, n_a=3, days=10_000, volatility=0.02, correlation=target
        )
        corr = np.corrcoef(np.diff(np.log(table.prices), axis=0).T)
        off = corr[np.triu_indices(3, 1)]
        assert np.all(np.abs(off - target) < 0.1)


class TestBundledFixture:
    def test_shape_and_cash(self):
        table = load_bundled_prices()
        assert table.prices.shape == (529, 6)
        assert table.assets[-1] == "CASH"
        assert np.all(table.prices[:, -1] == 1.0)

    def test_tiles_22_by_24(self):
        panel = compute_returns(load_bundled_prices(), n_t=22, dt=24)
        assert panel.interval_returns.shape == (22, 6)
        assert panel.daily_returns.shape == (528, 6)


class TestReturnPanelValidation:
    def test_row_count_must_tile(self):
        with pytest.raises(ValueError, match="n_t\\*dt"):
            ReturnPanel(
                interval_returns=np.zeros((2, 1)),
                daily_returns=np.zeros((5, 1)),
                dt=2,
                assets=("a",),
            )

    @pytest.mark.parametrize("dt, message", [
        (2.5, "dt must be an integer, got 2.5"),
        (True, "dt must be an integer, got True"),
        (0, "dt must be >= 1, got 0"),
    ])
    def test_dt_taken_exactly(self, dt, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ReturnPanel(
                interval_returns=np.zeros((1, 1)),
                daily_returns=np.zeros((2, 1)),
                dt=dt,
                assets=("a",),
            )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ReturnPanel(
                interval_returns=np.array([[np.inf]]),
                daily_returns=np.zeros((2, 1)),
                dt=2,
                assets=("a",),
            )


class TestUnreachedChecks:
    @pytest.mark.parametrize("text, message", [
        ("", "price file is empty"),
        ("day,a\n2023-01-01,1\n", "header must be 'date,asset1,asset2,...'"),
    ])
    def test_bad_price_text(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_prices(text)

    def test_blank_rows_skipped(self):
        table = parse_prices("date,a\n2023-01-01,1\n\n , \n2023-01-02,2\n")
        assert table.dates == ("2023-01-01", "2023-01-02")

    @pytest.mark.parametrize("interval, daily, assets, message", [
        (np.zeros(1), np.zeros((2, 1)), ("a",), "return matrices must be 2-D"),
        (np.zeros((1, 2)), np.zeros((2, 1)), ("a", "b"),
         "interval and daily matrices disagree on asset count"),
        (np.zeros((1, 1)), np.zeros((2, 1)), ("a", "b"), "asset label count mismatch"),
    ], ids=["1d", "asset-count", "labels"])
    def test_bad_panel(self, interval, daily, assets, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ReturnPanel(interval_returns=interval, daily_returns=daily, dt=2, assets=assets)

    @pytest.mark.parametrize("t", [-1, 2])
    def test_daily_slice_out_of_range(self, t):
        panel = compute_returns(make_table([1.0, 1.1, 1.2, 1.3, 1.4]), n_t=2, dt=2)
        with pytest.raises(IndexError, match=f"interval {t} out of range"):
            panel.daily_slice(t)
