"""The three bundled solvers on one small hard instance.

Exhaustive enumeration is the ground truth up to 24 variables; simulated
annealing and tabu search are the scalable options.  Every backend is a
pure function of (model, seed, effort), so reruns reproduce exactly.
Results carry no wall time; a caller that wants one times the solve itself.
"""

import time

import numpy as np

from dpoqubo import Qubo, SolveRequest, make_backend

rng = np.random.default_rng(99)
n = 16
q = Qubo.from_dense(rng.normal(size=(n, n)))

for name in ("exhaustive", "sa", "tabu"):
    backend = make_backend(name)
    start = time.perf_counter()
    res = backend.solve(SolveRequest(q, seed=7))
    elapsed = time.perf_counter() - start
    again = backend.solve(SolveRequest(q, seed=7))
    assert res.reported_energy == again.reported_energy  # seeded determinism
    print(f"{name:>10}: energy {res.reported_energy:+.6f}  "
          f"({elapsed * 1e3:.1f} ms)")

# effort is the knob that trades time for quality
print("\nsimulated annealing at increasing effort (sweeps):")
sa = make_backend("sa")
for sweeps in (5, 50, 500):
    energies = [
        sa.solve(SolveRequest(q, seed=s, effort=sweeps)).reported_energy
        for s in range(20)
    ]
    print(f"  {sweeps:>4} sweeps: median {np.median(energies):+.6f}  "
          f"best {min(energies):+.6f}")

# different seeds explore differently; the model never changes
tabu = make_backend("tabu")
seeds = [tabu.solve(SolveRequest(q, seed=s)).reported_energy for s in range(5)]
print("\ntabu across seeds:", np.round(seeds, 6))
