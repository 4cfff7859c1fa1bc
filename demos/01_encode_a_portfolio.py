"""From prices to a solvable model, step by step.

Generates a small synthetic market, computes interval log returns, encodes
the portfolio selection problem into a binary quadratic model, and shows
that the encoded energy is exactly the negated portfolio score.
"""

import numpy as np

from dpoqubo import (
    DpoConfig,
    append_cash_asset,
    compute_returns,
    decode,
    encode_qubo,
    generate_synthetic,
    objective_terms,
    qubo_energy,
    risk_matrices,
    verify_block_tridiagonal,
)

# a 3-asset market plus cash, enough days for 4 intervals of 6 trading days
table = append_cash_asset(generate_synthetic(seed=8, n_a=3, days=25))
config = DpoConfig(n_t=4, n_a=4, n_r=3, budget=5, dt=6, nu=0.01, rho=1.0)
panel = compute_returns(table, config.n_t, config.dt)

print("interval returns (rows = intervals, cols = assets):")
print(np.array2string(panel.interval_returns, precision=4))

risks = risk_matrices(config, panel)
q = encode_qubo(config, panel, risks)
print(f"\nmodel: {q.n} binary variables, {len(q.partition)} blocks of "
      f"{q.partition.sizes[0]}")

ok, offenders = verify_block_tridiagonal(q)
print("couplings only between adjacent intervals:", ok)

# pick an arbitrary portfolio: 3 units of asset 0, 2 of asset 1, every interval
x = np.zeros(q.n, dtype=np.int8)
for t in range(config.n_t):
    for a, units in ((0, 3), (1, 2)):
        for r in range(config.n_r):
            x[config.bit_index(t, a, r)] = (units >> r) & 1

alloc = decode(x, config)
print("\ndecoded weights:")
print(alloc.weights)

terms = objective_terms(config, panel, risks, alloc)
print(f"\nscore decomposition: gross {terms.gross_return:+.5f}  "
      f"risk {terms.risk:.5f}  cost {terms.transaction_cost:.5f}  "
      f"penalty {terms.budget_penalty:.5f}")
print(f"energy + score = {qubo_energy(q, x) + terms.total:.2e}  "
      "(zero up to float rounding)")
