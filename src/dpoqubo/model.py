"""Multi-period portfolio selection as a block-structured QUBO.

The decision variable is an integer weight matrix ``omega[t, a]`` — capital
units held in asset ``a`` during rebalancing interval ``t``.  The score to
*maximize* is

    total = gross_return - risk - transaction_cost - budget_penalty

with gross return ``sum omega[t,a] * mu[t,a]``, risk ``(gamma/2) * sum_t
omega_t' Sigma_t omega_t``, a quadratic turnover surrogate ``nu * lam *
sum (omega[t,a] - omega[t-1,a])**2`` charged from an all-cash start
(``omega[-1] == 0``), and a soft budget ``rho * sum_t (sum_a omega[t,a] - K)**2``.

Each weight is expanded into ``n_r`` bits (little-endian), giving a QUBO over
``n_t * n_a * n_r`` binaries whose energy is the negated score.  Only the
turnover term couples different intervals, and only adjacent ones, so the
QUBO matrix is block tridiagonal in the per-interval blocks — the structure
the block coordinate descent solver exploits.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence, Union

import numpy as np

from .market import ReturnPanel
from .qubo import BlockPartition, Qubo, _finite, _integer, as_bits

__all__ = [
    "Covariance",
    "Semicovariance",
    "Shrinkage",
    "DpoConfig",
    "ShrinkageDiagnostics",
    "RiskMatrix",
    "PortfolioAllocation",
    "as_allocation",
    "ObjectiveTerms",
    "risk_matrices",
    "resolved_rho",
    "objective_terms",
    "encode_qubo",
    "decode",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "save_config",
]


@dataclass(frozen=True)
class ShrinkageDiagnostics:
    delta: float
    alpha_hat: float
    beta_hat: float


@dataclass(frozen=True)
class RiskMatrix:
    """One interval's symmetric PSD asset-by-asset risk estimate."""

    matrix: np.ndarray
    shrinkage: ShrinkageDiagnostics | None = None

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("risk matrix must be square")
        if not np.allclose(m, m.T, rtol=0, atol=1e-12):
            raise ValueError("risk matrix must be symmetric")
        m = (m + m.T) / 2.0
        eigs = np.linalg.eigvalsh(m)
        if eigs.size and eigs.min() < -1e-10 * max(1.0, float(np.linalg.norm(m))):
            raise ValueError(f"risk matrix not PSD (min eigenvalue {eigs.min():g})")
        if self.shrinkage is not None and not 0.0 <= self.shrinkage.delta <= 1.0:
            raise ValueError("shrinkage intensity must lie in [0, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_a(self) -> int:
        return self.matrix.shape[0]


def _rate(name: str, value) -> float:
    """A finite, nonnegative objective weight."""
    value = _finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# risk estimators

def _interval_daily(panel: ReturnPanel, t: int) -> np.ndarray:
    if panel.dt < 2:
        raise ValueError("risk estimation needs dt >= 2 daily observations per interval")
    return panel.daily_returns[panel.daily_slice(t)]


@dataclass(frozen=True)
class Covariance:
    """Plain sample covariance of within-interval daily returns."""

    def estimate(self, panel: ReturnPanel, t: int) -> RiskMatrix:
        """Two-pass sample covariance (1/(dt-1), mean-centered) of interval ``t``."""
        day = _interval_daily(panel, t)
        centered = day - day.mean(axis=0)
        return RiskMatrix(matrix=centered.T @ centered / (panel.dt - 1))


@dataclass(frozen=True)
class Semicovariance:
    """Downside co-movement: only returns below ``benchmark`` contribute."""

    benchmark: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmark", _finite("benchmark", self.benchmark))

    def estimate(self, panel: ReturnPanel, t: int) -> RiskMatrix:
        """Clip returns above ``benchmark`` to zero, no centering."""
        day = _interval_daily(panel, t)
        downside = np.minimum(day - self.benchmark, 0.0)
        return RiskMatrix(matrix=downside.T @ downside / (panel.dt - 1))


@dataclass(frozen=True)
class Shrinkage:
    """Sample covariance shrunk toward a scaled identity.

    ``delta_override`` in [0, 1] pins the shrinkage intensity instead of
    estimating it.
    """

    delta_override: float | None = None

    def __post_init__(self) -> None:
        if self.delta_override is not None:
            delta = _finite("delta_override", self.delta_override)
            if not 0.0 <= delta <= 1.0:
                raise ValueError(f"delta_override must lie in [0, 1], got {delta!r}")
            object.__setattr__(self, "delta_override", delta)

    def estimate(self, panel: ReturnPanel, t: int) -> RiskMatrix:
        """Interval ``t``'s sample covariance shrunk toward ``(tr/n_a) * I``.

        The intensity balances the distance to the target against the sampling
        noise of the covariance estimate and is clipped to [0, 1]; a covariance
        already proportional to the identity gets intensity 0.  The identity
        target preserves the trace for every intensity.
        """
        day = _interval_daily(panel, t)
        n_a = day.shape[1]
        cov = Covariance().estimate(panel, t).matrix
        target = (np.trace(cov) / n_a) * np.eye(n_a)
        alpha_hat = float(np.linalg.norm(cov - target) ** 2)
        centered = day - day.mean(axis=0)
        noise = sum(
            float(np.linalg.norm(np.outer(y, y) - cov) ** 2) for y in centered
        ) / panel.dt**2
        beta_hat = min(alpha_hat, noise)
        if self.delta_override is not None:
            delta = self.delta_override
        elif alpha_hat == 0.0:
            delta = 0.0
        else:
            delta = float(np.clip(beta_hat / alpha_hat, 0.0, 1.0))
        shrunk = (1.0 - delta) * cov + delta * target
        return RiskMatrix(
            matrix=shrunk,
            shrinkage=ShrinkageDiagnostics(delta=delta, alpha_hat=alpha_hat, beta_hat=beta_hat),
        )


RiskModelChoice = Union[Covariance, Semicovariance, Shrinkage]
#: the risk estimators by the kind name that config files and ``--risk`` use
_RISK_KINDS = {"covariance": Covariance, "semicovariance": Semicovariance, "shrinkage": Shrinkage}


@dataclass(frozen=True)
class DpoConfig:
    """Problem dimensions and objective hyperparameters.

    ``rho=None`` means automatic: twice the largest absolute interval return,
    resolved once a return panel is available, so that violating the budget
    can never pay for itself through the return term.
    """

    n_t: int = 22
    n_a: int = 6
    n_r: int = 4
    budget: int = 15
    nu: float = 0.01
    lam: float = 1.0
    rho: float | None = None
    gamma: float = 1.0
    dt: int = 24
    risk: RiskModelChoice = field(default_factory=Covariance)

    def __post_init__(self) -> None:
        for name in ("n_t", "n_a", "n_r", "budget", "dt"):
            minimum = 0 if name == "budget" else 1
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        max_budget = self.n_a * (2**self.n_r - 1)
        if self.budget > max_budget:
            raise ValueError(
                f"budget {self.budget} exceeds representable total {max_budget} "
                f"(n_a * (2^n_r - 1))"
            )
        for name in ("nu", "lam", "gamma", "rho"):
            value = getattr(self, name)
            if not (name == "rho" and value is None):
                object.__setattr__(self, name, _rate(name, value))
        if type(self.risk) not in _RISK_KINDS.values():
            kinds = " or ".join(_RISK_KINDS)
            raise ValueError(f"risk must be a {kinds} estimator, got {self.risk!r}")

    @property
    def n(self) -> int:
        """Number of binary variables."""
        return self.n_t * self.n_a * self.n_r

    def partition(self) -> BlockPartition:
        """One block per rebalancing interval."""
        return BlockPartition.from_sizes([self.n_a * self.n_r] * self.n_t)

    def bit_index(self, t: int, a: int, r: int) -> int:
        """Flattened variable index of bit ``r`` of weight ``(t, a)``."""
        return (t * self.n_a + a) * self.n_r + r


@dataclass(frozen=True)
class PortfolioAllocation:
    """Integer capital-unit weights, one row per rebalancing interval."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights)
        if w.ndim != 2:
            raise ValueError("weights must be an n_t x n_a matrix")
        if not np.all(w == np.floor(w)) or np.any(w < 0):
            raise ValueError("weights must be nonnegative integers")
        w = w.astype(np.int64)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def invested_per_step(self) -> np.ndarray:
        return self.weights.sum(axis=1)


def as_allocation(allocation: PortfolioAllocation | np.ndarray) -> PortfolioAllocation:
    """Pass raw weights through ``PortfolioAllocation``, so fractional or
    negative weights raise ``ValueError``."""
    if isinstance(allocation, PortfolioAllocation):
        return allocation
    return PortfolioAllocation(weights=allocation)


def risk_matrices(config: DpoConfig, panel: ReturnPanel) -> list[RiskMatrix]:
    """Per-interval risk estimates per the configured estimator."""
    return [config.risk.estimate(panel, t) for t in range(config.n_t)]


# ---------------------------------------------------------------------------
# objective and encoding

def _check_panel(config: DpoConfig, panel: ReturnPanel) -> None:
    if panel.interval_returns.shape != (config.n_t, config.n_a):
        raise ValueError(
            f"panel provides {panel.interval_returns.shape} interval returns, "
            f"config expects ({config.n_t}, {config.n_a})"
        )


def _check_risks(config: DpoConfig, risks: Sequence[RiskMatrix]) -> None:
    """One ``n_a`` x ``n_a`` risk matrix per interval."""
    if len(risks) != config.n_t:
        raise ValueError(f"need {config.n_t} risk matrices, got {len(risks)}")
    for t, r in enumerate(risks):
        if r.n_a != config.n_a:
            raise ValueError(f"risk matrix {t} is {r.n_a}x{r.n_a}, expected {config.n_a}")


def resolved_rho(config: DpoConfig, panel: ReturnPanel) -> float:
    """Budget penalty weight: configured value, or 2 * max |interval return|."""
    if config.rho is not None:
        return float(config.rho)
    return 2.0 * float(np.abs(panel.interval_returns).max())


@dataclass(frozen=True)
class ObjectiveTerms:
    """Score decomposition; ``total`` is what the QUBO minimizes, negated."""

    gross_return: float
    risk: float
    transaction_cost: float
    budget_penalty: float

    @property
    def total(self) -> float:
        return self.gross_return - self.risk - self.transaction_cost - self.budget_penalty


def _weights_and_turnover(
    config: DpoConfig, allocation: PortfolioAllocation | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The weights as floats, checked against the config's shape, and each
    interval's turnover ``sum_a (omega[t,a] - omega[t-1,a])**2`` from an
    all-cash start.  Turnovers are sums of integer squares, so exact."""
    w = as_allocation(allocation).weights
    if w.shape != (config.n_t, config.n_a):
        raise ValueError(f"weights shape {w.shape} != ({config.n_t}, {config.n_a})")
    w = w.astype(float)
    prev = np.vstack([np.zeros(config.n_a), w[:-1]])
    return w, ((w - prev) ** 2).sum(axis=1)


def objective_terms(
    config: DpoConfig,
    panel: ReturnPanel,
    risks: Sequence[RiskMatrix],
    allocation: PortfolioAllocation | np.ndarray,
) -> ObjectiveTerms:
    """Evaluate the four score components for a given weight matrix."""
    _check_panel(config, panel)
    w, turnover = _weights_and_turnover(config, allocation)
    _check_risks(config, risks)
    mu = panel.interval_returns
    gross = float((w * mu).sum())
    risk = 0.5 * config.gamma * sum(
        float(w[t] @ risks[t].matrix @ w[t]) for t in range(config.n_t)
    )
    transaction = config.nu * config.lam * float(turnover.sum())
    rho = resolved_rho(config, panel)
    budget = rho * float(((w.sum(axis=1) - config.budget) ** 2).sum())
    return ObjectiveTerms(
        gross_return=gross,
        risk=risk,
        transaction_cost=transaction,
        budget_penalty=budget,
    )


def _weight_space_form(
    config: DpoConfig,
    mu: np.ndarray,
    risks: Sequence[RiskMatrix] | None,
    rhos: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic form (M, c) with -score(omega) = w'Mw + c'w + const,
    omega flattened row-major (interval-major, asset-minor).

    Interval ``t`` earns ``mu[t]`` and its budget penalty weighs ``rhos[t]``;
    ``risks=None`` leaves out the risk term.  The constant is left to the
    caller.
    """
    n_t, n_a = config.n_t, config.n_a
    m = np.zeros((n_t * n_a, n_t * n_a))
    c = np.zeros(n_t * n_a)
    tc = config.nu * config.lam
    for t in range(n_t):
        sl = slice(t * n_a, (t + 1) * n_a)
        if risks is not None:
            m[sl, sl] += 0.5 * config.gamma * risks[t].matrix
        m[sl, sl] += rhos[t] * np.ones((n_a, n_a))
        # turnover: own term, plus being "previous" for the next interval
        m[sl, sl] += tc * (2.0 if t < n_t - 1 else 1.0) * np.eye(n_a)
        if t > 0:
            prev = slice((t - 1) * n_a, t * n_a)
            m[prev, sl] += -tc * np.eye(n_a)
            m[sl, prev] += -tc * np.eye(n_a)
        c[sl] += -mu[t]
        c[sl] += -2.0 * rhos[t] * config.budget
    return m, c


def _bit_expand(config: DpoConfig, m: np.ndarray, c: np.ndarray, const: float) -> Qubo:
    """The QUBO over little-endian weight bits of ``w'Mw + c'w + const``,
    one block per interval."""
    powers = 2.0 ** np.arange(config.n_r)
    expand = np.kron(np.eye(config.n_t * config.n_a), powers[None, :])  # omega = expand @ x
    coeffs = expand.T @ m @ expand + np.diag(expand.T @ c)
    return Qubo.from_dense(coeffs, offset=const, partition=config.partition())


def encode_qubo(
    config: DpoConfig,
    panel: ReturnPanel,
    risks: Sequence[RiskMatrix] | None = None,
) -> Qubo:
    """Binary-expand the weight-space problem into a block tridiagonal QUBO.

    Variable ``(t, a, r)`` sits at flat index ``(t*n_a + a)*n_r + r`` and
    carries place value ``2**r``; blocks group one interval each.  For every
    bit vector ``x``, the QUBO energy equals ``-objective_terms(...).total``
    of the decoded weights.
    """
    _check_panel(config, panel)
    if risks is None:
        risks = risk_matrices(config, panel)
    _check_risks(config, risks)
    rho = resolved_rho(config, panel)
    m, c = _weight_space_form(config, panel.interval_returns, risks, [rho] * config.n_t)
    return _bit_expand(config, m, c, const=rho * config.budget**2 * config.n_t)


def decode(x, config: DpoConfig) -> PortfolioAllocation:
    """Read integer weights out of a bit vector (little-endian per weight)."""
    bits = as_bits(x, config.n)
    grouped = bits.reshape(config.n_t, config.n_a, config.n_r)
    powers = 2 ** np.arange(config.n_r)
    return PortfolioAllocation(weights=grouped @ powers)


# ---------------------------------------------------------------------------
# config files

def _json_key(name: str) -> str:
    """The config-file key of a ``DpoConfig`` field."""
    return "lambda" if name == "lam" else name


def config_to_dict(config: DpoConfig) -> dict:
    """The JSON form: one key per field, the risk as its kind and set fields."""
    out = {_json_key(f.name): getattr(config, f.name) for f in fields(config)}
    kind = next(k for k, cls in _RISK_KINDS.items() if type(config.risk) is cls)
    out["risk"] = {"kind": kind, **{k: v for k, v in asdict(config.risk).items() if v is not None}}
    return out


def _risk_from_json(obj) -> RiskModelChoice:
    """A risk estimator from its kind name or from ``{"kind": ..., **fields}``."""
    if isinstance(obj, str):
        obj = {"kind": obj}
    if not isinstance(obj, dict):
        raise ValueError(f"risk must be a kind name or an object with a kind, got {obj!r}")
    params = dict(obj)
    kind = params.pop("kind", None)
    if not isinstance(kind, str) or kind not in _RISK_KINDS:
        raise ValueError(f"unknown risk kind {kind!r}; expected one of {list(_RISK_KINDS)}")
    cls = _RISK_KINDS[kind]
    unknown = set(params) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"risk kind {kind!r} takes no fields {sorted(unknown)}")
    return cls(**params)


def config_from_dict(obj: dict) -> DpoConfig:
    """Read the JSON form; every key is optional and falls back to the default."""
    if not isinstance(obj, dict):
        raise ValueError(f"a config must be a JSON object, got {obj!r}")
    names = {_json_key(f.name): f.name for f in fields(DpoConfig)}
    unknown = set(obj) - set(names)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    kwargs = {names[key]: value for key, value in obj.items()}
    if "risk" in kwargs:
        kwargs["risk"] = _risk_from_json(kwargs["risk"])
    return DpoConfig(**kwargs)


def save_config(config: DpoConfig, path: str | os.PathLike) -> None:
    """Write the config as JSON; unset rho serializes as null (automatic)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
        fh.write("\n")


def load_config(path: str | os.PathLike) -> DpoConfig:
    """Read a JSON config; every field is optional and falls back to defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))
