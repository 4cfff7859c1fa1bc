"""What a signed 8-bit device does to coefficients, and when it breaks.

Quantization rescales the largest coefficient magnitude to 127 and rounds
everything else onto integers.  Coefficients smaller than 1/255 of the
maximum round to zero.  On models whose blocks live at very different
scales, quantizing the whole model erases entire blocks -- while quantizing
one block at a time keeps every block well resolved.
"""

import numpy as np

from dpoqubo import (
    BcdConfig,
    ExhaustiveSolver,
    FinitePrecisionAdapter,
    SolveRequest,
    bcd_solve,
    coefficient_values,
    dynamic_range,
    make_scale_separated_qubo,
    quantization_loss_report,
    quantize_int8,
    qubo_to_ising,
    reduce_dynamic_range,
    scale_separation_report,
)

inst = make_scale_separated_qubo(seed=0)
ising = qubo_to_ising(inst.qubo)

sep = scale_separation_report(inst.qubo)
print(f"inter/intra coefficient ratio: {sep.ratio:.2e} "
      f"(int8 zeroing threshold is 1/255 = {1 / 255:.2e})")

dr = dynamic_range(coefficient_values(ising))
print(f"dynamic range of the coefficients: {dr.bits:.1f} bits")

tuned = reduce_dynamic_range(ising)
print(f"single-entry tuning accepted {len(tuned.steps)} steps "
      f"(fields only, minimizer preserved)")

qm = quantize_int8(tuned.model)
loss = quantization_loss_report(tuned.model, qm)
print(f"\nwhole-model int8: {loss.zeroed_intra} within-block and "
      f"{loss.zeroed_inter} between-block couplings rounded to zero")

# the practical consequence: budget structure in the weak block vanishes
adapter = FinitePrecisionAdapter(ExhaustiveSolver())
whole = inst.decode(adapter.solve(SolveRequest(inst.qubo, seed=0)).assignment)
per_block = inst.decode(
    bcd_solve(inst.qubo, adapter, BcdConfig(seed=0)).assignment
)
print(f"\nbudget per interval is {inst.config.budget}")
print("whole-model int8 invests  ", whole.invested_per_step(), " <- broken")
print("block-by-block int8 invests", per_block.invested_per_step())

exact = inst.decode(ExhaustiveSolver().solve(SolveRequest(inst.qubo, seed=0)).assignment)
print("float64 reference invests  ", exact.invested_per_step())
