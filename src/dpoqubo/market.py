"""Closing-price ingestion, return computation, and synthetic data generation.

Price files are delimited text with a header row ``date,asset1,asset2,...``
and one row per trading day, dated ``YYYY-MM-DD``.  A day is only usable
when *every* asset has a price, so rows with any missing cell are dropped
whole.

Time indexing downstream: with ``n_t`` rebalancing intervals of ``dt``
trading days each, rebalancing time ``t`` sits at daily index ``t * dt``;
interval ``t`` owns daily steps ``t*dt .. (t+1)*dt - 1``.  The interval log
return is then exactly the sum of its daily log returns.
"""

from __future__ import annotations

import csv
import datetime
import io
import os
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .qubo import _finite, _integer

__all__ = [
    "PriceTable",
    "ReturnPanel",
    "load_prices",
    "parse_prices",
    "save_prices",
    "append_cash_asset",
    "compute_returns",
    "generate_synthetic",
    "load_bundled_prices",
]

_MISSING_MARKERS = {"", "na", "nan", "n/a", "null"}


@dataclass(frozen=True)
class PriceTable:
    """Closing prices of assets that share one calendar.

    ``prices[d, k]`` is asset ``assets[k]``'s price on ``dates[d]``; the
    matrix is a read-only float64 copy.  Dates strictly increase, asset
    names are non-empty and distinct, and every price is positive and finite.
    """

    dates: tuple[str, ...]
    assets: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self) -> None:
        dates = tuple(str(d) for d in self.dates)
        assets = tuple(str(a) for a in self.assets)
        p = np.array(self.prices, dtype=float)
        if p.shape != (len(dates), len(assets)):
            raise ValueError(f"prices shape {p.shape} != (dates, assets) = ({len(dates)}, {len(assets)})")
        if not all(assets) or len(set(assets)) != len(assets):
            raise ValueError(f"asset names must be non-empty and distinct, got {assets}")
        if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
            raise ValueError("prices must be positive and finite")
        for a, b in zip(dates, dates[1:]):
            if not a < b:
                raise ValueError(f"dates not strictly increasing ({a!r} >= {b!r})")
        p.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "assets", assets)
        object.__setattr__(self, "prices", p)


@dataclass(frozen=True)
class ReturnPanel:
    """Interval and daily log returns on a rigid time grid.

    ``interval_returns`` is n_t x n_a, ``daily_returns`` is (n_t * dt) x n_a;
    daily step ``s`` belongs to interval ``s // dt``.
    """

    interval_returns: np.ndarray
    daily_returns: np.ndarray
    dt: int
    assets: tuple[str, ...]

    def __post_init__(self) -> None:
        mu = np.array(self.interval_returns, dtype=float)
        mud = np.array(self.daily_returns, dtype=float)
        if mu.ndim != 2 or mud.ndim != 2:
            raise ValueError("return matrices must be 2-D")
        if mu.shape[1] != mud.shape[1]:
            raise ValueError("interval and daily matrices disagree on asset count")
        dt = _integer("dt", self.dt, 1)
        if mud.shape[0] != mu.shape[0] * dt:
            raise ValueError(
                f"daily rows {mud.shape[0]} != n_t*dt = {mu.shape[0]}*{dt}"
            )
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(mud))):
            raise ValueError("returns contain non-finite entries")
        if len(self.assets) != mu.shape[1]:
            raise ValueError("asset label count mismatch")
        mu.setflags(write=False)
        mud.setflags(write=False)
        object.__setattr__(self, "interval_returns", mu)
        object.__setattr__(self, "daily_returns", mud)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "assets", tuple(str(a) for a in self.assets))

    @property
    def n_t(self) -> int:
        return self.interval_returns.shape[0]

    def daily_slice(self, t: int) -> slice:
        """Daily index range owned by interval ``t``."""
        if not 0 <= t < self.n_t:
            raise IndexError(f"interval {t} out of range")
        return slice(t * self.dt, (t + 1) * self.dt)


def _is_iso_date(text: str) -> bool:
    try:
        return datetime.date.fromisoformat(text).isoformat() == text
    except ValueError:
        return False


def parse_prices(text: str) -> PriceTable:
    """Parse delimited price text; see :func:`load_prices`."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("price file is empty") from None
    header = [h.strip() for h in header]
    if len(header) < 2 or header[0].lower() != "date":
        raise ValueError("header must be 'date,asset1,asset2,...'")
    assets = header[1:]
    dates: list[str] = []
    rows: list[list[float]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        date = row[0].strip()
        if not _is_iso_date(date):
            raise ValueError(f"line {lineno}: date {date!r} is not YYYY-MM-DD")
        cells = [cell.strip() for cell in row[1:]]
        if any(cell.lower() in _MISSING_MARKERS for cell in cells):
            continue  # not a valid trading day: some asset did not trade
        try:
            values = [float(cell) for cell in cells]
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric price") from None
        if any(not np.isfinite(v) or v <= 0.0 for v in values):
            raise ValueError(f"line {lineno}: prices must be positive and finite")
        if dates and not dates[-1] < date:
            raise ValueError(f"line {lineno}: dates not strictly increasing ({dates[-1]!r} >= {date!r})")
        dates.append(date)
        rows.append(values)
    matrix = np.array(rows, dtype=float).reshape(len(rows), len(assets))
    return PriceTable(dates=tuple(dates), assets=tuple(assets), prices=matrix)


def load_prices(path: str | os.PathLike) -> PriceTable:
    """Load a delimited price file as one table, one column per asset.

    Dates are ``YYYY-MM-DD``, so their string order is date order.  Rows
    missing any asset's price are dropped whole; malformed rows, bad dates
    and prices, out-of-order dates and bad asset names raise ``ValueError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return parse_prices(fh.read())


def save_prices(table: PriceTable, path: str | os.PathLike) -> None:
    """Write a table back to the delimited format."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *table.assets])
        for date, row in zip(table.dates, table.prices):
            writer.writerow([date] + [repr(float(v)) for v in row])


def append_cash_asset(table: PriceTable) -> PriceTable:
    """Add a constant-price asset named ``CASH`` (price 1 on every date, log
    return 0)."""
    prices = np.hstack([table.prices, np.ones((len(table.dates), 1))])
    return PriceTable(table.dates, table.assets + ("CASH",), prices)


def compute_returns(table: PriceTable, n_t: int, dt: int) -> ReturnPanel:
    """Build interval and daily log returns on an ``n_t`` x ``dt`` grid.

    Needs ``n_t * dt + 1`` prices; a longer history keeps its earliest
    ``n_t * dt + 1`` days.  Interval ``t``'s return compares the boundary
    prices at daily indices ``t*dt`` and ``(t+1)*dt``, which telescopes to
    the sum of its daily returns.
    """
    n_t = _integer("n_t", n_t, 1)
    dt = _integer("dt", dt, 1)
    need = n_t * dt + 1
    have = len(table.dates)
    if have < need:
        raise ValueError(
            f"insufficient history: {have} prices, need n_t*dt+1 = {need}"
        )
    logp = np.log(table.prices[:need])
    daily = np.diff(logp, axis=0)
    boundaries = logp[:: dt]
    interval = np.diff(boundaries, axis=0)
    return ReturnPanel(
        interval_returns=interval,
        daily_returns=daily,
        dt=dt,
        assets=table.assets,
    )


def _per_asset(name: str, value, n_a: int) -> np.ndarray:
    """One real number, or ``n_a`` of them, as ``n_a`` finite floats;
    booleans and strings are rejected."""
    out = np.asarray(value)
    if out.dtype.kind not in "iuf" or out.ndim > 1 or out.size not in (1, n_a):
        raise ValueError(f"{name} must be a number or {n_a} numbers, got {value!r}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return np.broadcast_to(out.astype(float), (n_a,)).copy()


def generate_synthetic(
    seed: int,
    n_a: int,
    days: int,
    *,
    drift=0.0004,
    volatility=0.012,
    correlation: float = 0.25,
    start_price=100.0,
    start_date: str = "2023-01-02",
) -> PriceTable:
    """Correlated geometric random walk prices, deterministic per seed.

    Daily log returns are jointly normal with per-asset ``drift`` and
    ``volatility`` (finite scalars or length-``n_a`` vectors) and a common
    pairwise ``correlation`` (a finite number).  Zero volatility degenerates
    to the pure drift path.
    """
    seed = _integer("seed", seed, 0)
    n_a = _integer("n_a", n_a, 1)
    days = _integer("days", days, 1)
    mu = _per_asset("drift", drift, n_a)
    sigma = _per_asset("volatility", volatility, n_a)
    if np.any(sigma < 0.0):
        raise ValueError("volatility must be nonnegative")
    correlation = _finite("correlation", correlation)
    lo = -1.0 / (n_a - 1) if n_a > 1 else -1.0
    if not lo <= correlation <= 1.0:
        raise ValueError(f"correlation must lie in [{lo:.3f}, 1]")
    p0 = _per_asset("start_price", start_price, n_a)
    if np.any(p0 <= 0.0):
        raise ValueError("start_price must be positive")

    corr = np.full((n_a, n_a), correlation)
    np.fill_diagonal(corr, 1.0)
    cov = corr * np.outer(sigma, sigma)
    rng = np.random.default_rng(seed)
    # svd handles the degenerate cases (zero volatility, correlation 1) that
    # make the covariance merely positive semi-definite
    shocks = rng.multivariate_normal(
        mean=mu, cov=cov, size=days - 1, method="svd"
    ) if days > 1 else np.empty((0, n_a))
    logp = np.vstack([np.log(p0), np.log(p0) + np.cumsum(shocks, axis=0)])

    day0 = datetime.date.fromisoformat(start_date)
    dates = tuple((day0 + datetime.timedelta(days=k)).isoformat() for k in range(days))
    assets = tuple(f"asset{k + 1}" for k in range(n_a))
    return PriceTable(dates=dates, assets=assets, prices=np.exp(logp))


def load_bundled_prices() -> PriceTable:
    """Load the packaged fixture: five random-walk assets plus constant CASH
    (6 assets x 529 days)."""
    fixture = resources.files("dpoqubo").joinpath("data/synthetic_prices.csv")
    return parse_prices(fixture.read_text(encoding="utf-8"))
