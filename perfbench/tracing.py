"""Per-layer spans for the traced benchmark run, recorded at call sites.

Nothing in ``src/`` is edited.  For the length of one traced matrix,
:func:`installed` rebinds the names through which the package's modules call
each other (``dpoqubo.harness.bcd_solve``, ``dpoqubo.backends.quantize_int8``
and so on) to timing wrappers, and restores the originals on exit.  The base
solvers are wrapped by passing :class:`TracedBackend` objects to
``run_matrix``, which accepts backend objects as well as names.

A layer's self time is the duration of its spans minus the time covered by
spans opened inside them.  The wrappers' own bookkeeping (including hashing
tuning inputs) is charged to no layer, so it lowers ``trace.coverage`` and
raises ``trace.overhead_frac`` instead of inflating a layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics
import time
from collections import defaultdict

import dpoqubo.backends as backends_mod
import dpoqubo.bcd as bcd_mod
import dpoqubo.harness as harness_mod


class Tracer:
    """Self time, calls, per-call durations and work counts of one traced matrix."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.call_s: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self.tune_inputs: set[bytes] = set()
        self._open: list[float] = []  # child time covered so far, per open span

    def wrap(self, layer: str, fn, after=None):
        """``fn`` timed as one span of ``layer``; ``after(args, kwargs, result)``
        collects work counts outside the span."""

        def traced(*args, **kwargs):
            enter = time.perf_counter()
            self._open.append(0.0)
            try:
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                end = time.perf_counter()
            finally:
                child = self._open.pop()
            self.self_s[layer] += end - start - child
            self.calls[layer] += 1
            self.call_s[layer].append(end - start)
            if after is not None:
                after(args, kwargs, result)
            if self._open:
                self._open[-1] += time.perf_counter() - enter
            return result

        return traced

    def _count_tune(self, args, kwargs, result) -> None:
        spin = args[0]
        digest = hashlib.sha256()
        for part in (spin.linear, spin.quadratic):
            digest.update(part.tobytes())
        digest.update(repr(float(spin.offset)).encode())
        self.tune_inputs.add(digest.digest())
        self.counts["precision.tune.steps_accepted"] += len(result.steps)
        self.counts["precision.tune.step_budget"] += kwargs.get("budget", 100)

    def _count_bcd(self, args, kwargs, result) -> None:
        self.counts["bcd.visits"] += len(result.trace)
        self.counts["bcd.accepts"] += sum(rec.accepted for rec in result.trace)


class TracedBackend:
    """A base solver whose ``solve`` is one span of ``backends.<name>``.

    Work per call is taken from the request's model size, with the same
    defaults the solvers apply: tabu runs ``100 * n`` iterations, annealing
    proposes ``sweeps * n`` flips.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.name = inner.name
        self._tracer = tracer
        self.solve = tracer.wrap(f"backends.{inner.name}", inner.solve, self._count)

    def _count(self, args, kwargs, result) -> None:
        request = args[0]
        n = request.model.n
        if self.name == "tabu":
            iters = request.effort or self.inner.iterations or 100 * n
            self._tracer.counts["backends.tabu.iters"] += iters
        elif self.name == "sa":
            sweeps = request.effort or self.inner.sweeps
            self._tracer.counts["backends.sa.proposals"] += sweeps * n


# (module, attribute, layer) for every rebinding; all call sites are inside
# the package, so the benchmark's own calls to these functions stay untraced
_CALL_SITES = (
    (harness_mod, "risk_matrices", "model.risk_encode"),
    (harness_mod, "encode_qubo", "model.risk_encode"),
    (harness_mod, "decode", "harness.score"),
    (harness_mod, "check_feasibility", "harness.score"),
    (harness_mod, "net_mean_return", "harness.score"),
    (harness_mod, "sharpe_ratio", "harness.score"),
    (harness_mod, "objective_terms", "harness.score"),
    (harness_mod, "bcd_solve", "bcd.sweep"),
    (bcd_mod, "extract_subproblem", "bcd.extract"),
    (bcd_mod, "solve_block", "bcd.solve_block"),
    (bcd_mod, "write_back", "bcd.write_back"),
    (backends_mod, "qubo_to_ising", "qubo.convert"),
    (backends_mod, "ising_to_qubo", "qubo.convert"),
    (backends_mod, "reduce_dynamic_range", "precision.tune"),
    (backends_mod, "quantize_int8", "precision.quantize"),
)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the package's internal calls through ``tracer`` while open."""
    hooks = {
        "reduce_dynamic_range": tracer._count_tune,
        "bcd_solve": tracer._count_bcd,
    }
    base_adapter = harness_mod.FinitePrecisionAdapter

    class TracedAdapter(base_adapter):
        solve = tracer.wrap("backends.int8_adapter", base_adapter.solve)

    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _CALL_SITES]
    saved.append((harness_mod, "FinitePrecisionAdapter", base_adapter))
    try:
        for mod, attr, layer in _CALL_SITES:
            setattr(mod, attr, tracer.wrap(layer, getattr(mod, attr), hooks.get(attr)))
        harness_mod.FinitePrecisionAdapter = TracedAdapter
        yield tracer
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


def _percentile_ms(values: list[float], q: int) -> float:
    """The ``q``-th percentile, in ms, of per-call durations in seconds."""
    if len(values) < 2:
        return 1e3 * values[0] if values else 0.0
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, matrix_s: float) -> dict[str, float]:
    """Per-layer figures of one traced matrix whose wall time was ``matrix_s``.

    ``trace.overhead_frac`` and ``market.load_s`` are measured outside the
    matrix and added by the caller.
    """
    s, c, counts = tracer.self_s, tracer.calls, tracer.counts
    out: dict[str, float] = {}
    for name, work, per in (("tabu", "iters", "us_per_iter"), ("sa", "proposals", "ns_per_proposal")):
        layer = f"backends.{name}"
        scale = 1e6 if per.startswith("us") else 1e9
        out[f"{layer}.self_s"] = s[layer]
        out[f"{layer}.calls"] = c[layer]
        out[f"{layer}.{work}"] = counts[f"{layer}.{work}"]
        out[f"{layer}.{per}"] = scale * _ratio(s[layer], counts[f"{layer}.{work}"])
        out[f"{layer}.call_ms.p50"] = _percentile_ms(tracer.call_s[layer], 50)
        out[f"{layer}.call_ms.p90"] = _percentile_ms(tracer.call_s[layer], 90)
    out["backends.int8_adapter.self_s"] = s["backends.int8_adapter"]
    out["qubo.convert.self_s"] = s["qubo.convert"]
    out["qubo.convert.calls"] = c["qubo.convert"]
    tune_calls = c["precision.tune"]
    out["precision.tune.self_s"] = s["precision.tune"]
    out["precision.tune.calls"] = tune_calls
    out["precision.tune.distinct_inputs"] = len(tracer.tune_inputs)
    out["precision.tune.repeat_frac"] = _ratio(tune_calls - len(tracer.tune_inputs), tune_calls)
    out["precision.tune.steps_accepted"] = counts["precision.tune.steps_accepted"]
    out["precision.tune.accept_frac"] = _ratio(
        counts["precision.tune.steps_accepted"], counts["precision.tune.step_budget"]
    )
    out["precision.quantize.self_s"] = s["precision.quantize"]
    out["precision.quantize.calls"] = c["precision.quantize"]
    out["bcd.visits"] = counts["bcd.visits"]
    out["bcd.accepts"] = counts["bcd.accepts"]
    out["bcd.accept_frac"] = _ratio(counts["bcd.accepts"], counts["bcd.visits"])
    for stage in ("extract", "solve_block", "sweep", "write_back"):
        out[f"bcd.{stage}.self_s"] = s[f"bcd.{stage}"]
    out["model.risk_encode_s"] = s["model.risk_encode"]
    out["harness.score.self_s"] = s["harness.score"]
    out["harness.emit_s"] = s["harness.emit"]
    out["harness.run_matrix.self_s"] = s["harness.run_matrix"]
    out["trace.matrix_s"] = matrix_s
    out["trace.coverage"] = sum(s.values()) / matrix_s
    return out
