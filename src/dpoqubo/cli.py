"""Command-line front end.

Subcommands cover the full workflow: ``synth`` writes a reproducible price
fixture, ``build`` turns prices plus a portfolio config into a serialized
model file, ``solve`` runs one backend on a model, ``evaluate`` scores a
saved solution against a dataset, and ``matrix`` runs the full strategy
cross (whole-model vs block sweeps, float64 vs int8) and writes report
files.

Every random choice is controlled by ``--seed``.  ``build`` writes a
``<model>.meta.json`` sidecar holding the config; ``solve`` copies it into
the solution file so ``evaluate`` can run without repeating the flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .backends import BackendError, SolveRequest, canonical_qubo, make_backend
from .bcd import BcdBackendError, BcdConfig, bcd_solve
from .harness import (
    ALL_VARIANTS,
    StrategyVariant,
    _metric_fields,
    _write_series,
    emit_report,
    run_matrix,
    score_allocation,
)
from .market import (
    append_cash_asset,
    compute_returns,
    generate_synthetic,
    load_bundled_prices,
    load_prices,
    save_prices,
)
from .model import (
    _RISK_KINDS,
    DpoConfig,
    _risk_from_json,
    config_from_dict,
    config_to_dict,
    decode,
    encode_qubo,
    load_config,
)
from .qubo import as_bits
from .serialize import ModelFormatError, load_model, save_model

__all__ = ["main"]


def _add_config_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("portfolio config")
    g.add_argument("--config", metavar="FILE", help="JSON config file; flags override it")
    g.add_argument("--n-t", dest="n_t", type=int, help="number of trading intervals")
    g.add_argument("--n-a", dest="n_a", type=int, help="number of assets")
    g.add_argument("--n-r", dest="n_r", type=int, help="bits per weight")
    g.add_argument("--budget", type=int, help="capital units invested per interval")
    g.add_argument("--nu", type=float, help="transaction cost rate")
    g.add_argument("--lam", "--lambda", dest="lam", type=float, help="transaction scale factor")
    g.add_argument("--rho", type=float, help="budget penalty weight (default: 2 * max abs return)")
    g.add_argument("--gamma", type=float, help="risk aversion")
    g.add_argument("--dt", type=int, help="trading days per interval")
    g.add_argument("--risk", choices=tuple(_RISK_KINDS), help="risk estimator")
    g.add_argument("--benchmark", type=float, help="semicovariance downside threshold")
    g.add_argument(
        "--shrinkage-delta", dest="delta_override", type=float,
        help="fix the shrinkage intensity in [0, 1] instead of estimating it",
    )


def _config_overrides(args) -> dict:
    """The ``DpoConfig`` fields, and the risk fields, that flags set."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    overrides = {f.name: given[f.name] for f in fields(DpoConfig) if f.name in given}
    risk_fields = {f.name for cls in _RISK_KINDS.values() for f in fields(cls)}
    risk_args = {k: given[k] for k in risk_fields & given.keys()}
    if "risk" in overrides:
        overrides["risk"] = _risk_from_json({"kind": overrides["risk"], **risk_args})
    elif risk_args:
        raise ValueError("--benchmark and --shrinkage-delta need --risk")
    return overrides


def _resolve_config(args, saved: dict | None = None) -> DpoConfig:
    """The config of ``--config``, else ``saved`` (a config dict), else the
    defaults, with the flags that were set laid over it."""
    overrides = _config_overrides(args)
    if args.config:
        return load_config(args.config, **overrides)
    return replace(config_from_dict({} if saved is None else saved), **overrides)


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("dataset")
    src = g.add_mutually_exclusive_group(required=True)
    src.add_argument("--prices", metavar="FILE", help="closing-price table")
    src.add_argument(
        "--synthetic", action="store_true",
        help="generate prices on the fly (seeded by --seed)",
    )
    src.add_argument(
        "--bundled", action="store_true", help="use the packaged price fixture"
    )
    g.add_argument("--assets", type=int, default=5, help="synthetic assets before cash")
    g.add_argument("--days", type=int, help="synthetic days (default: n_t * dt + 1)")
    g.add_argument(
        "--cash", action=argparse.BooleanOptionalAction, default=True,
        help="append a constant-price cash asset to synthetic data",
    )
    g.add_argument(
        "--trim", choices=("tail", "head"), default="tail",
        help="which end of the series to drop when it overfills the horizon",
    )


def _load_table(args, config: DpoConfig, seed: int):
    if args.prices:
        return load_prices(args.prices)
    if args.bundled:
        return load_bundled_prices()
    days = args.days if args.days is not None else config.n_t * config.dt + 1
    table = generate_synthetic(seed, args.assets, days)
    return append_cash_asset(table) if args.cash else table


def _build_panel(args, config: DpoConfig, seed: int):
    table = _load_table(args, config, seed)
    return compute_returns(table, config.n_t, config.dt, trim=args.trim)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    table = generate_synthetic(
        args.seed,
        args.assets,
        args.days,
        drift=args.drift,
        volatility=args.volatility,
        correlation=args.correlation,
        start_price=args.start_price,
        start_date=args.start_date,
    )
    if args.cash:
        table = append_cash_asset(table)
    save_prices(table, args.out)
    print(f"wrote {args.out}: {len(table.assets)} assets x {args.days} days")
    return 0


def _cmd_build(args) -> int:
    config = _resolve_config(args)
    panel = _build_panel(args, config, args.seed)
    q = encode_qubo(config, panel)
    save_model(q, args.out)
    meta = {"config": config_to_dict(config)}
    Path(str(args.out) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {args.out}: {q.n} variables in {len(q.partition)} blocks")
    return 0


def _cmd_solve(args) -> int:
    if args.strategy == "block" and args.effort is not None:
        raise ValueError("--effort applies only to --strategy global; block sweeps do not use it")
    model = load_model(args.model)
    backend = make_backend(args.backend)
    if args.strategy == "global":
        res = backend.solve(
            SolveRequest(model, seed=args.seed, effort=args.effort)
        )
        assignment, energy = res.assignment, float(res.reported_energy)
    else:
        q = canonical_qubo(model)
        cfg = BcdConfig(
            seed=args.seed,
            global_iters=args.bcd_iters,
            repeats_per_block=args.bcd_repeats,
        )
        res = bcd_solve(q, backend, cfg)
        assignment, energy = res.assignment, float(res.energy)
    payload = {
        "assignment": [int(b) for b in as_bits(assignment)],
        "energy": energy,
        "backend": args.backend,
        "strategy": args.strategy,
        "seed": args.seed,
    }
    meta_path = Path(str(args.model) + ".meta.json")
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if "config" in meta:
            payload["config"] = meta["config"]
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}: energy {energy!r} via {args.backend}/{args.strategy}")
    return 0


def _cmd_evaluate(args) -> int:
    solution = json.loads(Path(args.solution).read_text())
    config = _resolve_config(args, solution.get("config"))
    panel = _build_panel(args, config, args.seed)
    alloc = decode(np.asarray(solution["assignment"]), config)
    score = score_allocation(alloc, panel, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "feasible": score.feasible,
        "weights": alloc.weights.tolist(),
        **_metric_fields(score),
    }
    if score.feasible:
        _write_series(out / "series.csv", score.net_returns)
    (out / "evaluation.json").write_text(json.dumps(report, indent=2) + "\n")
    status = "feasible" if score.feasible else "infeasible"
    print(f"wrote {out / 'evaluation.json'}: {status}")
    return 0


def _parse_variants(text: str) -> tuple[StrategyVariant, ...]:
    if text == "all":
        return ALL_VARIANTS
    variants = []
    for label in text.split(","):
        label = label.strip()
        if not label:
            continue
        parts = label.split("-", 1)
        if len(parts) != 2:
            raise ValueError(
                f"bad variant {label!r}; expected <decomposition>-<precision>"
            )
        variants.append(StrategyVariant(parts[0], parts[1]))
    return tuple(variants)


def _cmd_matrix(args) -> int:
    config = _resolve_config(args)
    panel = _build_panel(args, config, args.seed)
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    variants = _parse_variants(args.variants)
    reports = run_matrix(
        panel, config, backends, variants, runs=args.runs, seed=args.seed
    )
    emit_report(reports, args.out)
    for r in reports:
        print(f"{r.backend:>12} {r.variant.label:<12} {r.status}")
    print(f"wrote {Path(args.out) / 'summary.json'}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpoqubo",
        description="Portfolio optimization as a block-structured QUBO: "
        "build, solve, and evaluate under float64 or int8 precision.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic price fixture")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--assets", type=int, default=5)
    p.add_argument("--days", type=int, default=529)
    p.add_argument("--drift", type=float, default=0.0004)
    p.add_argument("--volatility", type=float, default=0.012)
    p.add_argument("--correlation", type=float, default=0.25)
    p.add_argument("--start-price", dest="start_price", type=float, default=100.0)
    p.add_argument("--start-date", dest="start_date", default="2023-01-02")
    p.add_argument("--cash", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("build", help="encode prices + config into a model file")
    _add_dataset_args(p)
    _add_config_args(p)
    p.add_argument("--seed", type=int, default=0, help="synthetic data seed")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("solve", help="run one backend on a model file")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument(
        "--backend", default="sa",
        help="exhaustive | sa | tabu, optionally wrapped as int8(<name>)",
    )
    p.add_argument(
        "--strategy", choices=("global", "block"), default="global",
        help="solve the whole model at once or sweep block by block",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--effort", type=int, help="backend-specific iteration budget (global strategy only)")
    p.add_argument("--bcd-iters", dest="bcd_iters", type=int, default=3)
    p.add_argument("--bcd-repeats", dest="bcd_repeats", type=int, default=3)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("evaluate", help="score a saved solution on a dataset")
    p.add_argument("--solution", required=True, metavar="FILE")
    _add_dataset_args(p)
    _add_config_args(p)
    p.add_argument("--seed", type=int, default=0, help="synthetic data seed")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("matrix", help="run the strategy cross and write reports")
    _add_dataset_args(p)
    _add_config_args(p)
    p.add_argument("--backends", default="sa,tabu", help="comma-separated base backends")
    p.add_argument(
        "--variants", default="all",
        help='"all" or comma-separated labels like global-fp,block-int8',
    )
    p.add_argument("--runs", type=int, default=3, help="independent runs per cell")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_matrix)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ModelFormatError, OSError, KeyError, BackendError, BcdBackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
