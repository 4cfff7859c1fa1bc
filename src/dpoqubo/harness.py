"""Head-to-head evaluation of solve strategies on one portfolio problem.

A *strategy variant* crosses a decomposition choice (solve the whole QUBO at
once, or sweep it block by block) with a precision choice (float64, or the
int8 device emulation).  ``run_matrix`` executes every requested backend x
variant cell with repeated seeded runs, scores the solutions in portfolio
terms (budget feasibility first, then net returns and a return/risk ratio),
and ``emit_report`` writes the outcome to disk.

Report determinism: everything written to ``summary.json`` and the per-cell
series files is a pure function of the inputs and seeds, so two identical
invocations produce byte-identical files.  Wall-clock timings are inherently
volatile and therefore live in a separate ``timings.json`` sidecar that is
excluded from that guarantee.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .backends import FinitePrecisionAdapter, SolveRequest, make_backend
from .bcd import BcdConfig, bcd_solve
from .market import ReturnPanel
from .model import (
    DpoConfig,
    ObjectiveTerms,
    PortfolioAllocation,
    RiskMatrix,
    _weights_and_turnover,
    as_allocation,
    decode,
    encode_qubo,
    objective_terms,
    risk_matrices,
)
from .qubo import _integer

__all__ = [
    "ALL_VARIANTS",
    "AllocationScore",
    "EvaluationReport",
    "FeasibilityCheck",
    "RunRecord",
    "StrategyVariant",
    "check_feasibility",
    "emit_report",
    "net_mean_return",
    "run_matrix",
    "score_allocation",
    "sharpe_ratio",
]

_DECOMPOSITIONS = ("global", "block")
_PRECISIONS = ("fp", "int8")

# spacing between per-run base seeds; block sweeps consume a contiguous range
# of derived seeds, so runs must not sit close enough to overlap it
_SEED_STRIDE = 10_000


@dataclass(frozen=True)
class StrategyVariant:
    """One cell axis: how the model is split and at what precision it is solved."""

    decomposition: str
    precision: str

    def __post_init__(self) -> None:
        if self.decomposition not in _DECOMPOSITIONS:
            raise ValueError(f"decomposition must be one of {_DECOMPOSITIONS}")
        if self.precision not in _PRECISIONS:
            raise ValueError(f"precision must be one of {_PRECISIONS}")

    @property
    def label(self) -> str:
        return f"{self.decomposition}-{self.precision}"


ALL_VARIANTS = tuple(
    StrategyVariant(d, p) for d in _DECOMPOSITIONS for p in _PRECISIONS
)


@dataclass(frozen=True)
class FeasibilityCheck:
    #: (interval, invested) for every interval whose total misses the budget
    violations: tuple[tuple[int, int], ...]

    @property
    def feasible(self) -> bool:
        return not self.violations


def check_feasibility(
    allocation: PortfolioAllocation | np.ndarray, budget: float
) -> FeasibilityCheck:
    """Exact test: every interval must invest the budget, no slack."""
    sums = as_allocation(allocation).invested_per_step()
    bad = tuple((int(t), int(s)) for t, s in enumerate(sums) if s != budget)
    return FeasibilityCheck(violations=bad)


def net_mean_return(
    allocation: PortfolioAllocation | np.ndarray,
    panel: ReturnPanel,
    config: DpoConfig,
) -> np.ndarray:
    """Per-interval portfolio return net of the turnover cost charged there.

    The series sums to ``gross_return - transaction_cost`` of the objective
    decomposition; risk and budget-penalty terms are solver artifacts and do
    not enter.
    """
    w, turnover = _weights_and_turnover(config, allocation)
    gross = (w * panel.interval_returns).sum(axis=1)
    return gross - config.nu * config.lam * turnover


def sharpe_ratio(
    allocation: PortfolioAllocation | np.ndarray,
    panel: ReturnPanel,
    risks: Sequence[RiskMatrix],
    config: DpoConfig,
) -> float | None:
    """Gross return over the square root of the (scaled) risk term; None when
    the risk term is zero, where the ratio is undefined."""
    return _sharpe(objective_terms(config, panel, risks, allocation))


def _sharpe(terms: ObjectiveTerms) -> float | None:
    if terms.risk <= 0.0:  # PSD risks and gamma >= 0 make negatives impossible
        return None
    return terms.gross_return / math.sqrt(terms.risk)


@dataclass(frozen=True)
class AllocationScore:
    """Portfolio metrics of one allocation.

    The performance fields are None when the allocation breaks the budget;
    ``sharpe`` is also None on zero risk.
    """

    feasible: bool
    violations: tuple[tuple[int, int], ...] = ()
    net_returns: np.ndarray | None = None
    total_net_return: float | None = None
    sharpe: float | None = None
    objective: ObjectiveTerms | None = None


def score_allocation(
    allocation: PortfolioAllocation,
    panel: ReturnPanel,
    config: DpoConfig,
    risks: Sequence[RiskMatrix] | None = None,
) -> AllocationScore:
    """Feasibility first; a feasible allocation then gets its net-return
    series, their total, the return/risk ratio and the objective terms.

    ``risks`` default to the config's estimator on ``panel`` and are only
    estimated when the allocation is feasible.
    """
    check = check_feasibility(allocation, config.budget)
    if not check.feasible:
        return AllocationScore(feasible=False, violations=check.violations)
    if risks is None:
        risks = risk_matrices(config, panel)
    series = net_mean_return(allocation, panel, config)
    terms = objective_terms(config, panel, risks, allocation)
    return AllocationScore(
        feasible=True,
        net_returns=series,
        total_net_return=float(series.sum()),
        sharpe=_sharpe(terms),
        objective=terms,
    )


@dataclass(frozen=True)
class RunRecord:
    """One of the independent seeded runs inside a matrix cell."""

    index: int
    seed: int
    energy: float
    feasible: bool
    total_net_return: float | None
    wall_time: float


@dataclass(frozen=True, kw_only=True)
class EvaluationReport(AllocationScore):
    """Outcome of one backend x variant cell: the score of its selected
    run plus the solve fields.

    For infeasible or failed cells the performance fields (``net_returns``,
    ``total_net_return``, ``sharpe``, ``objective``) are all ``None`` — an
    allocation that breaks the budget has no meaningful portfolio metrics.
    Failed cells also leave the solve fields at their empty defaults.
    """

    backend: str
    variant: StrategyVariant
    error: str | None
    energy: float | None = None
    allocation: PortfolioAllocation | None = None
    selected_run: int | None = None
    runs: tuple[RunRecord, ...] = ()

    @property
    def status(self) -> str:
        if self.error is not None:
            return "error"
        return "feasible" if self.feasible else "infeasible"


def _run_once(q, solver, decomposition: str, run_seed: int):
    """Returns (assignment, energy, wall_time) for one seeded solve; the one
    place that reads the wall clock."""
    start = time.perf_counter()
    if decomposition == "global":
        res = solver.solve(SolveRequest(q, seed=run_seed))
        energy = res.reported_energy
    else:
        res = bcd_solve(q, solver, BcdConfig(seed=run_seed))
        energy = res.energy
    return res.assignment, float(energy), time.perf_counter() - start


def _evaluate_cell(q, backend, variant, config, panel, risks, seed, runs):
    # one solver per cell, so an int8 cell tunes a model once, not once per run
    solver = FinitePrecisionAdapter(backend) if variant.precision == "int8" else backend
    records = []
    solutions = []
    for r in range(runs):
        run_seed = seed + r * _SEED_STRIDE
        assignment, energy, wall = _run_once(q, solver, variant.decomposition, run_seed)
        alloc = decode(assignment, config)
        score = score_allocation(alloc, panel, config, risks)
        records.append(
            RunRecord(
                index=r,
                seed=run_seed,
                energy=energy,
                feasible=score.feasible,
                total_net_return=score.total_net_return,
                wall_time=wall,
            )
        )
        solutions.append((alloc, score))

    feasible_runs = [rec for rec in records if rec.feasible]
    if feasible_runs:
        # report the feasible run with the best total net return
        best = max(feasible_runs, key=lambda rec: rec.total_net_return)
    else:
        # nothing feasible: surface the lowest-energy attempt for diagnostics
        best = min(records, key=lambda rec: rec.energy)
    alloc, score = solutions[best.index]
    return EvaluationReport(
        backend=backend.name,
        variant=variant,
        error=None,
        energy=best.energy,
        allocation=alloc,
        selected_run=best.index,
        runs=tuple(records),
        **vars(score),
    )


def run_matrix(
    panel: ReturnPanel,
    config: DpoConfig,
    backends: Sequence[str | object],
    variants: Sequence[StrategyVariant] = ALL_VARIANTS,
    *,
    runs: int = 3,
    seed: int = 0,
) -> list[EvaluationReport]:
    """Solve the encoded problem across every backend x variant cell.

    Each cell performs ``runs`` (an integer >= 1) independent solves with
    distinct base seeds (cell ``k``, run ``r`` uses ``seed + (k*runs + r) *
    10_000``, where ``seed`` is an integer >= 0) and reports
    the feasible run with the highest total net return; cells with no
    feasible run are reported infeasible, and a cell whose solver raises is
    recorded as an error without stopping the rest of the matrix.

    ``backends`` entries are base backend names or objects with a string
    ``name``; the int8 wrapping is applied internally by the INT8 variants,
    so pre-wrapped adapters are rejected to keep precision an axis of the
    matrix rather than a property of the backend.  Two cells may not share
    a series file, so a backend name or a variant given twice is rejected
    too.
    """
    runs = _integer("runs", runs, 1)
    seed = _integer("seed", seed, 0)
    resolved = []
    for b in backends:
        obj = make_backend(b) if isinstance(b, str) else b
        if isinstance(obj, FinitePrecisionAdapter):
            raise ValueError(
                "pass base backends; int8 wrapping is chosen by the variant axis"
            )
        if not isinstance(getattr(obj, "name", None), str):
            raise TypeError(f"backend {obj!r} has no string name")
        resolved.append(obj)
    variants = tuple(variants)
    for v in variants:
        if not isinstance(v, StrategyVariant):
            raise TypeError(f"not a StrategyVariant: {v!r}")
    writers: dict[str, str] = {}  # series file name -> the cell that writes it
    for backend in resolved:
        for variant in variants:
            label = f"{backend.name}/{variant.label}"
            series = _series_name(backend.name, variant)
            if series in writers:
                raise ValueError(
                    f"cells {writers[series]} and {label} would both write {series}; "
                    "name each backend and each variant once"
                )
            writers[series] = label
    risks = risk_matrices(config, panel)
    q = encode_qubo(config, panel, risks)

    reports: list[EvaluationReport] = []
    cell = 0
    for backend in resolved:
        for variant in variants:
            base = seed + cell * runs * _SEED_STRIDE
            try:
                reports.append(
                    _evaluate_cell(q, backend, variant, config, panel, risks, base, runs)
                )
            except Exception as exc:  # noqa: BLE001 - cell isolation is the point
                reports.append(
                    EvaluationReport(
                        backend=backend.name,
                        variant=variant,
                        error=f"{type(exc).__name__}: {exc}",
                        feasible=False,
                    )
                )
            cell += 1
    return reports


# ---------------------------------------------------------------------------
# report files


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", text).strip("-")


def _series_name(backend: str, variant: StrategyVariant) -> str:
    return f"series_{_slug(backend)}_{variant.label}.csv"


def _cell_summary(report: EvaluationReport) -> dict:
    entry: dict = {
        "backend": report.backend,
        "variant": report.variant.label,
        "status": report.status,
    }
    if report.error is not None:
        entry["error"] = report.error
        return entry
    entry["energy"] = report.energy
    entry["selected_run"] = report.selected_run
    entry["runs"] = [
        {
            "index": rec.index,
            "seed": rec.seed,
            "feasible": rec.feasible,
            "energy": rec.energy,
            **(
                {"total_net_return": rec.total_net_return}
                if rec.feasible
                else {}
            ),
        }
        for rec in report.runs
    ]
    entry.update(_metric_fields(report))
    if report.feasible:
        entry["series"] = _series_name(report.backend, report.variant)
    return entry


def _metric_fields(score: AllocationScore) -> dict:
    """JSON metric fields of a scored allocation: the violations when it is
    infeasible, else the total net return, the ratio (``zero_risk`` in its
    place when it is undefined) and the objective terms.  ``summary.json``
    cells and ``dpoqubo evaluate`` both write these."""
    if not score.feasible:
        return {"violations": [list(v) for v in score.violations]}
    fields: dict = {"total_net_return": score.total_net_return}
    if score.sharpe is None:
        fields["zero_risk"] = True
    else:
        fields["sharpe"] = score.sharpe
    terms = score.objective
    fields["objective"] = {
        "gross_return": terms.gross_return,
        "risk": terms.risk,
        "transaction_cost": terms.transaction_cost,
        "budget_penalty": terms.budget_penalty,
        "total": terms.total,
    }
    return fields


def _write_series(path: Path, net_returns: np.ndarray) -> Path:
    """One ``interval,net_return`` row per interval, values in repr form."""
    lines = ["interval,net_return"]
    lines += [f"{t},{val!r}" for t, val in enumerate(net_returns.tolist())]
    path.write_text("\n".join(lines) + "\n")
    return path


def emit_report(reports: Sequence[EvaluationReport], out_dir: str | Path) -> list[Path]:
    """Write ``summary.json``, one series CSV per feasible cell, and the
    ``timings.json`` sidecar.  Returns the written paths.

    Infeasible and failed cells get a labeled summary row and nothing else:
    no series file, no return or ratio fields.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    summary = {"cells": [_cell_summary(r) for r in reports]}
    path = out / "summary.json"
    path.write_text(json.dumps(summary, indent=2) + "\n")
    written.append(path)

    # a series file for exactly the cells whose summary row names one
    for report, cell in zip(reports, summary["cells"]):
        if "series" in cell:
            written.append(_write_series(out / cell["series"], report.net_returns))

    timings = {
        "cells": [
            {
                "backend": r.backend,
                "variant": r.variant.label,
                "runtime": r.runs[r.selected_run].wall_time if r.runs else None,
                "run_wall_times": [rec.wall_time for rec in r.runs],
            }
            for r in reports
        ]
    }
    tpath = out / "timings.json"
    tpath.write_text(json.dumps(timings, indent=2) + "\n")
    written.append(tpath)
    return written
