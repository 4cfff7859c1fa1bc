"""Everything that goes to disk, round-tripped.

Price tables are plain delimited text; models use a line-oriented format
that stores floats via repr so loads are bit-exact; configs are JSON.  The
same model file carries float or quantized-integer coefficients.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from dpoqubo import (
    DpoConfig,
    append_cash_asset,
    compute_returns,
    dump_model,
    encode_qubo,
    generate_synthetic,
    load_config,
    load_model,
    load_prices,
    qubo_to_ising,
    quantize_int8,
    save_config,
    save_model,
    save_prices,
)

workdir = Path(tempfile.mkdtemp(prefix="dpoqubo_demo_"))
print("working under", workdir)

# --- prices ----------------------------------------------------------------
table = append_cash_asset(generate_synthetic(seed=2, n_a=2, days=13))
save_prices(table, workdir / "prices.csv")
back = load_prices(workdir / "prices.csv")
assert np.array_equal(table.prices, back.prices)
print("prices.csv round-trips bit-exactly,",
      (workdir / "prices.csv").read_text().count("\n"), "lines")

# --- config ----------------------------------------------------------------
config = DpoConfig(n_t=2, n_a=3, n_r=2, budget=3, dt=6, nu=0.02)
save_config(config, workdir / "config.json")
assert load_config(workdir / "config.json") == config
print("config.json round-trips; overrides:",
      replace(load_config(workdir / "config.json"), budget=4).budget)

# --- models ----------------------------------------------------------------
panel = compute_returns(back, config.n_t, config.dt)
q = encode_qubo(config, panel)
save_model(q, workdir / "model.txt")
q2 = load_model(workdir / "model.txt")
assert np.array_equal(q.coeffs, q2.coeffs) and q.offset == q2.offset
print(f"model.txt: {q.n} variables, loads bit-exactly")

qm = quantize_int8(qubo_to_ising(q))
text = dump_model(qm)
print("\nquantized model header lines:")
for line in text.splitlines()[:6]:
    print("   ", line)
save_model(qm, workdir / "quantized.txt")
qm2 = load_model(workdir / "quantized.txt")
assert np.array_equal(qm.linear, qm2.linear) and qm.scale == qm2.scale
print("integer coefficients and scale survive the round trip")
