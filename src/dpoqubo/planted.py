"""Constructed portfolio instances whose coefficient scales are deliberately
imbalanced across time blocks.

Why this exists: int8 quantization divides every coefficient by the single
largest one.  If one time block's budget penalty dwarfs the others', a
*whole-model* quantization flattens the weak blocks and the inter-block
couplings to zero — the solver then has no incentive to fund the weak
intervals and returns budget-infeasible portfolios.  Quantizing one block
subproblem at a time keeps each block's structure at full int8 resolution.
These planted instances make that contrast reproducible and testable.

The construction keeps the budget K at exactly half the representable total
per interval, which makes the budget penalty's spin-space linear fields
vanish: each block is then pure couplings, so single-entry (field-only)
dynamic-range tuning cannot dissolve the planted separation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DpoConfig, PortfolioAllocation, _bit_expand, _weight_space_form, decode
from .qubo import Qubo, _finite, _integer

__all__ = ["PlantedInstance", "make_scale_separated_qubo"]

# interval return magnitude per unit of the block's budget weight, and the
# turnover coupling per unit of ``rho``
_RETURN_SCALE = 0.02
_COUPLING_RATE = 1e-3


@dataclass(frozen=True)
class PlantedInstance:
    """A scale-separated model plus the bookkeeping to judge its solutions."""

    qubo: Qubo
    config: DpoConfig
    rho_schedule: tuple[float, ...]
    interval_returns: np.ndarray

    def decode(self, x) -> PortfolioAllocation:
        return decode(x, self.config)


def make_scale_separated_qubo(
    seed: int,
    n_t: int = 3,
    n_a: int = 2,
    n_r: int = 2,
    rho: float = 1.0,
    growth: float = 20.0,
) -> PlantedInstance:
    """Portfolio QUBO with per-interval budget weights ``rho * growth**t``.

    The budget is fixed at ``n_a * (2**n_r - 1) / 2`` capital units (requires
    ``n_a * (2**n_r - 1)`` even).  Interval returns are random with magnitude
    ``0.02 * rho_t``, so every block is internally well-conditioned; adjacent
    blocks couple through a turnover penalty of ``1e-3 * rho``, orders of
    magnitude below the last block's budget scale.  With the defaults the
    inter/intra coefficient ratio is far below 1/255, the int8 cliff for
    whole-model quantization.  ``seed`` is an integer >= 0, ``rho`` a finite
    number > 0 and ``growth`` a finite number > 1.
    """
    seed = _integer("seed", seed, 0)
    rho, growth = _finite("rho", rho), _finite("growth", growth)
    if rho <= 0.0:
        raise ValueError(f"rho must be > 0, got {rho!r}")
    if growth <= 1.0:
        raise ValueError("growth must exceed 1 to separate the block scales")
    if n_t < 2:
        raise ValueError("need at least two intervals to have inter-block structure")
    representable = n_a * (2**n_r - 1)
    if representable % 2:
        raise ValueError("n_a * (2^n_r - 1) must be even so the budget can sit at half")
    budget = representable // 2
    # lam=rho makes config.nu * config.lam the turnover weight _COUPLING_RATE * rho
    config = DpoConfig(
        n_t=n_t, n_a=n_a, n_r=n_r, budget=budget,
        nu=_COUPLING_RATE, lam=rho, rho=rho, gamma=0.0, dt=2,
    )
    rng = np.random.default_rng(seed)
    rho_schedule = tuple(float(rho * growth**t) for t in range(n_t))
    # per-block return magnitudes track the block's penalty scale so the
    # fields stay visible under per-block quantization
    mu = np.array(
        [
            rng.uniform(0.5, 1.5, size=n_a)
            * rng.choice([-1.0, 1.0], size=n_a)
            * _RETURN_SCALE
            * rho_schedule[t]
            for t in range(n_t)
        ]
    )
    m, c = _weight_space_form(config, mu, None, rho_schedule)
    const = 0.0
    for rho_t in rho_schedule:  # a plain loop: sum() of floats compensates on 3.12+
        const += rho_t * budget**2
    qubo = _bit_expand(config, m, c, const)
    return PlantedInstance(
        qubo=qubo,
        config=config,
        rho_schedule=rho_schedule,
        interval_returns=mu,
    )
