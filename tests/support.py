"""Helpers that several test modules share: synthetic return panels, and the
panel and QUBO of a configuration on the bundled prices."""

import numpy as np

from dpoqubo.market import ReturnPanel, compute_returns, load_bundled_prices
from dpoqubo.model import encode_qubo


def panel_from_daily(daily, dt):
    """Panel whose interval returns are the telescoped daily sums."""
    daily = np.asarray(daily, dtype=float)
    n_t = daily.shape[0] // dt
    interval = daily.reshape(n_t, dt, -1).sum(axis=1)
    return ReturnPanel(interval_returns=interval, daily_returns=daily, dt=dt)


def random_panel(seed, n_t, n_a, dt=6, scale=0.01):
    """Normal daily returns of standard deviation ``scale``.  ``seed`` is an
    integer or a ``Generator``, which is drawn from in place."""
    rng = np.random.default_rng(seed)
    return panel_from_daily(rng.normal(size=(n_t * dt, n_a)) * scale, dt)


def bundled_panel(config):
    """The config's ``n_t`` intervals of ``dt`` days of the bundled prices."""
    return compute_returns(load_bundled_prices(), config.n_t, config.dt)


def bundled_model(config):
    """The config's QUBO on the bundled prices."""
    return encode_qubo(config, bundled_panel(config))
