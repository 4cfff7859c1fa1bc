"""Three ways to estimate the per-interval risk matrix.

Sample covariance is the baseline; semicovariance keeps only downside
co-movement; shrinkage blends the sample estimate toward a scaled identity
with a data-driven intensity.  All three are computed from the daily
returns inside one interval.
"""

import numpy as np

from dpoqubo import Covariance, ReturnPanel, Semicovariance, Shrinkage

rng = np.random.default_rng(4)
n_a, dt = 3, 20
daily = rng.normal(0.0005, 0.012, size=(dt, n_a))
daily[:, 2] = 0.6 * daily[:, 0] + 0.8 * daily[:, 2]  # correlate assets 0 and 2
panel = ReturnPanel(
    interval_returns=daily.sum(axis=0, keepdims=True),
    daily_returns=daily,
    dt=dt,
    assets=("alpha", "beta", "gamma"),
)

cov = Covariance().estimate(panel, 0)
semi = Semicovariance(benchmark=0.0).estimate(panel, 0)
shr = Shrinkage().estimate(panel, 0)

np.set_printoptions(precision=6, suppress=True)
print("sample covariance:")
print(cov.matrix)
print("\ndownside-only (semicovariance, benchmark 0):")
print(semi.matrix)
print("\nshrunk toward scaled identity:")
print(shr.matrix)

d = shr.shrinkage
print(f"\nshrinkage intensity delta = {d.delta:.4f} "
      f"(alpha_hat {d.alpha_hat:.3e}, beta_hat {d.beta_hat:.3e})")
print(f"trace preserved: {np.trace(cov.matrix):.6e} -> {np.trace(shr.matrix):.6e}")

# the semicovariance never charges for co-gains
up_days = (daily > 0).all(axis=1).sum()
print(f"\n{up_days}/{dt} days were all-positive and contribute nothing "
      "to the downside matrix")
