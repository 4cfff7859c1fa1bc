"""The repository benchmark: one strategy matrix per workload, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-block --seed 0 --seconds 30 --trace 0

Each workload goes through the public API (``compute_returns`` ->
``run_matrix`` -> ``emit_report``) on the bundled prices, importing the
package from ``src/`` of the same checkout.  ``--seed`` is passed to
``run_matrix(seed=...)``; the prices are fixed, so the seed picks the
solvers' random streams.  The matrix is repeated with the same seed while the
next repetition still fits in ``--seconds`` (at least once), and every
repetition's outputs are checked.

``--trace 0`` reports the end-to-end metrics from untraced repetitions.
Their times are rescaled to a nominal CPU speed measured while they ran (see
``speed.py``), because this kind of machine drifts in speed under other
tenants' load; the raw wall time is printed beside them.
``--trace 1`` runs one untraced repetition and then traced ones, and reports
the per-layer split (see ``tracing.py``).  The last line of standard output is
one JSON object: ``correct``, ``attempted`` (cells solved), ``failed`` (cells
with status ``error`` plus output mismatches) and ``metrics``.  The exit code
is non-zero when any output check fails.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import os

# Pin BLAS threads before numpy loads, so that timings do not depend on how
# many cores the machine has; the solvers are single-threaded Python loops.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

COMMON = dict(n_a=6, n_r=4, budget=15, dt=24)
BACKENDS = ("sa", "tabu")
SETUP_REPEATS = 5
# (kernel size, nominal time) of the speed probe run around each set-up
# sample; the kernel runs warm there, so it is faster than inside a matrix
SETUP_PROBE = (48, 0.9e-3)
ENERGY_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    n_t: int
    variants: tuple[str, ...]
    runs: int
    #: speed-probe kernel size (the size of the models the solvers see) and
    #: the kernel time that ``matrix_s`` is rescaled to
    probe_n: int
    probe_nominal_s: float


# Why each workload exists is written down in README.md beside this file.
WORKLOADS = {
    "paper-block": Workload(
        n_t=22, variants=("block-fp", "block-int8"), runs=1,
        probe_n=24, probe_nominal_s=1.3e-3,
    ),
    "paper-global": Workload(
        n_t=22, variants=("global-fp", "global-int8"), runs=1,
        probe_n=528, probe_nominal_s=3.5e-3,
    ),
    "gate-matrix": Workload(
        n_t=2, variants=("global-fp", "global-int8", "block-fp", "block-int8"), runs=3,
        probe_n=48, probe_nominal_s=1.4e-3,
    ),
}

# Run in a fresh interpreter per sample: process start, import, bundled
# prices and return panel are what a user pays before the first solve.
_SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from dpoqubo import compute_returns, load_bundled_prices
compute_returns(load_bundled_prices(), int(sys.argv[2]), int(sys.argv[3]))
"""


class BenchError(RuntimeError):
    pass


def _import_package():
    if not (SRC / "dpoqubo" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC}/dpoqubo; run from a checkout")
    sys.path.insert(0, str(SRC))
    import dpoqubo

    if SRC not in Path(dpoqubo.__file__).resolve().parents:
        raise BenchError(f"imported dpoqubo from {dpoqubo.__file__}, not from {SRC}")
    return dpoqubo


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu_max = Path("/sys/fs/cgroup/cpu.max")
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        git_sha = proc.stdout.strip() or None
    return {
        "git_sha": git_sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": _openblas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_max": cpu_max.read_text().strip() if cpu_max.is_file() else None,
        "machine": platform.machine(),
    }


def _openblas_threads(np) -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure_setup(workload: Workload) -> float:
    """Median of ``SETUP_REPEATS`` fresh set-up processes, each timed from
    start to exit and rescaled by the probe kernel timed around it."""
    probe = SpeedProbe(*SETUP_PROBE)
    samples = []
    for _ in range(SETUP_REPEATS):
        before = probe.kernel_time()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(workload.n_t), str(COMMON["dt"])],
            cwd=ROOT,
            check=True,
            capture_output=True,
            timeout=120,
        )
        took = time.perf_counter() - start
        samples.append(took * 2.0 * probe.nominal_s / (before + probe.kernel_time()))
    return statistics.median(samples)


@dataclass
class Rep:
    wall_s: float
    #: wall_s rescaled to the nominal speed, and the median probe-kernel time
    #: (untraced repetitions only)
    scaled_s: float | None
    kernel_s: float | None
    summary_sha256: str
    cells: int
    errors: int
    runs: int
    feasible_runs: int
    mismatches: list[str]
    tracer: object = None


class Bench:
    def __init__(self, dpoqubo, name: str, seed: int) -> None:
        self.dpo = dpoqubo
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.config = dpoqubo.DpoConfig(n_t=self.workload.n_t, **COMMON)
        self.panel = self.load_panel()
        self.risks = dpoqubo.risk_matrices(self.config, self.panel)
        by_label = {v.label: v for v in dpoqubo.ALL_VARIANTS}
        self.variants = [by_label[label] for label in self.workload.variants]
        self.out_dir = OUT / name
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.probe = SpeedProbe(self.workload.probe_n, self.workload.probe_nominal_s)

    def load_panel(self):
        return self.dpo.compute_returns(
            self.dpo.load_bundled_prices(), self.config.n_t, self.config.dt
        )

    def rep(self, tracer=None) -> Rep:
        """One ``run_matrix`` + ``emit_report``, timed, then checked."""
        dpo = self.dpo
        scaled_s = kernel_s = None
        if tracer is None:
            backends = list(BACKENDS)
            with self.probe as probe:
                reports = dpo.run_matrix(
                    self.panel, self.config, backends, self.variants,
                    runs=self.workload.runs, seed=self.seed,
                )
                dpo.emit_report(reports, self.out_dir)
            wall_s, scaled_s, kernel_s = probe.wall_s, probe.scaled_s, probe.kernel_s
        else:
            from tracing import TracedBackend, installed

            backends = [TracedBackend(dpo.make_backend(b), tracer) for b in BACKENDS]
            run_matrix = tracer.wrap("harness.run_matrix", dpo.run_matrix)
            emit_report = tracer.wrap("harness.emit", dpo.emit_report)
            with installed(tracer):
                start = time.perf_counter()
                reports = run_matrix(
                    self.panel, self.config, backends, self.variants,
                    runs=self.workload.runs, seed=self.seed,
                )
                emit_report(reports, self.out_dir)
                wall_s = time.perf_counter() - start
        sha = hashlib.sha256((self.out_dir / "summary.json").read_bytes()).hexdigest()
        return Rep(
            wall_s=wall_s,
            scaled_s=scaled_s,
            kernel_s=kernel_s,
            summary_sha256=sha,
            cells=len(reports),
            errors=sum(r.status == "error" for r in reports),
            runs=sum(len(r.runs) for r in reports),
            feasible_runs=sum(rec.feasible for r in reports for rec in r.runs),
            mismatches=self.check(reports),
            tracer=tracer,
        )

    def check(self, reports) -> list[str]:
        """Output check: energies re-derived from the objective terms, and
        feasibility re-derived from the allocation."""
        dpo = self.dpo
        bad = []
        for r in reports:
            if r.status == "error":
                continue
            cell = f"{r.backend}/{r.variant.label}"
            total = dpo.objective_terms(self.config, self.panel, self.risks, r.allocation).total
            if not math.isclose(r.energy, -total, rel_tol=ENERGY_RTOL, abs_tol=0.0):
                bad.append(f"{cell}: energy {r.energy!r} != -objective {-total!r}")
            feasible = dpo.check_feasibility(r.allocation, self.config.budget).feasible
            if feasible != r.feasible:
                bad.append(f"{cell}: feasible {r.feasible} != check_feasibility {feasible}")
        return bad


def repeat(one, seconds: float) -> list:
    """Call ``one`` while the next call still fits in ``seconds`` (at least once)."""
    reps = []
    begin = time.perf_counter()
    while True:
        reps.append(one())
        if time.perf_counter() - begin + reps[-1].wall_s > seconds:
            return reps


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, list[Rep], list[str]]:
    """One untraced repetition, then traced ones; medians of the per-layer split."""
    from tracing import Tracer, layer_metrics

    begin = time.perf_counter()
    untraced = bench.rep()
    traced = repeat(lambda: bench.rep(Tracer()), seconds - (time.perf_counter() - begin))
    per_rep = [layer_metrics(r.tracer, r.wall_s) for r in traced]
    units = metric_units("per_layer")
    # counts must repeat exactly (checked below); times are medians
    metrics = {
        key: per_rep[0][key] if units[key] == "count" else statistics.median(m[key] for m in per_rep)
        for key in per_rep[0]
    }
    metrics["harness.feasible_runs"] = untraced.feasible_runs
    metrics["harness.feasible_run_frac"] = untraced.feasible_runs / untraced.runs
    metrics["trace.overhead_frac"] = metrics["trace.matrix_s"] / untraced.wall_s - 1.0
    loads = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        bench.load_panel()
        loads.append(time.perf_counter() - start)
    metrics["market.load_s"] = statistics.median(loads)
    reps = [untraced, *traced]
    mismatches = [m for r in reps for m in r.mismatches]
    # work counts are a pure function of workload and seed
    for key, unit in units.items():
        if unit == "count" and len({m.get(key) for m in per_rep}) > 1:
            mismatches.append(f"{key} differs between traced repetitions")
    return metrics, reps, mismatches


def measure_untraced(bench: Bench, seconds: float) -> tuple[dict, list[Rep], list[str]]:
    setup_s = measure_setup(bench.workload)
    reps = repeat(bench.rep, seconds)
    first = reps[0]
    metrics = {
        "matrix_s": statistics.median(r.scaled_s for r in reps),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_cell_frac": (first.cells - first.errors) / first.cells,
    }
    return metrics, reps, [m for r in reps for m in r.mismatches]


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    dpoqubo = _import_package()
    print("environment: " + json.dumps(environment(), sort_keys=True))
    # one CPU for the run and its set-up children, so that the speed probe
    # measures the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = Bench(dpoqubo, name, seed)
    kind = "per_layer" if trace else "end_to_end"
    metrics, reps, mismatches = (measure_traced if trace else measure_untraced)(bench, seconds)
    units = metric_units(kind)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    shas = sorted({r.summary_sha256 for r in reps})
    if len(shas) > 1:
        mismatches.append(f"summary.json differs between repetitions: {shas}")

    first = reps[0]
    print(f"workload {name} seed {seed}: {len(reps)} repetitions, summary.json sha256 {shas[0]}")
    # Solution quality is a pure function of workload and seed, and its
    # spread across seeds is wider than any bound, so it is printed here and
    # carried in the traced split rather than bounded (see README.md).
    print(
        f"  quality: feasible_run_frac = {first.feasible_runs / first.runs:.6g} ratio,"
        f" failed_cell_frac = {first.errors / first.cells:.6g} ratio"
    )
    probed = [r for r in reps if r.scaled_s is not None]
    print(
        f"  speed: matrix wall time {statistics.median(r.wall_s for r in probed):.6g} s,"
        f" probe kernel {1e3 * statistics.median(r.kernel_s for r in probed):.6g} ms"
        f" (nominal {1e3 * bench.workload.probe_nominal_s:.6g} ms)"
    )
    print(f"  {kind}:")
    for key, value in metrics.items():
        print(f"    {key} = {value:.6g} {units[key]}")
    for m in mismatches:
        print(f"MISMATCH {m}")
    result = {
        "correct": not mismatches,
        "attempted": sum(r.cells for r in reps),
        "failed": sum(r.errors for r in reps) + len(mismatches),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, 0 if not mismatches else 1


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics declared
    in BENCHMARK.json, which every run must report exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, code = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
