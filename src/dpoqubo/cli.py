"""Command-line front end.

Subcommands cover the full workflow: ``synth`` writes a reproducible price
fixture, ``build`` turns prices plus a portfolio config into a serialized
model file, ``solve`` runs one backend on a model, ``evaluate`` scores a
saved solution against a dataset, and ``matrix`` runs the full strategy
cross (whole-model vs block sweeps, float64 vs int8) and writes report
files.

``build``, ``evaluate`` and ``matrix`` read prices from ``--prices FILE`` or
``--bundled``; synthetic prices come from ``synth``.  ``synth --seed`` seeds
the data, and ``solve --seed`` and ``matrix --seed`` seed the solvers.
``build`` writes a ``<model>.meta.json`` sidecar holding the config;
``solve`` copies it into the solution file so ``evaluate`` can run without
repeating the flags.
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
    _config_read_from,
    _read_json,
    _risk_from_json,
    config_to_dict,
    decode,
    encode_qubo,
    load_config,
)
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


def _given(args, *names) -> dict:
    """The flags among ``names`` that were set; the library call they go to
    supplies its own defaults for the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _config_overrides(args) -> dict:
    """The ``DpoConfig`` fields, and the risk fields, that flags set."""
    given = _given(args, *vars(args))
    overrides = {f.name: given[f.name] for f in fields(DpoConfig) if f.name in given}
    risk_fields = {f.name for cls in _RISK_KINDS.values() for f in fields(cls)}
    risk_args = {k: given[k] for k in risk_fields & given.keys()}
    if "risk" in overrides:
        overrides["risk"] = _risk_from_json({"kind": overrides["risk"], **risk_args})
    elif risk_args:
        raise ValueError("--benchmark and --shrinkage-delta need --risk")
    return overrides


def _resolve_config(args, saved: dict | None = None, source=None) -> DpoConfig:
    """The config of ``--config``, else ``saved`` (a config dict read from
    the file ``source``, which an invalid one names), else the defaults,
    with the flags that were set laid over it."""
    if args.config:
        base = load_config(args.config)
    else:
        base = DpoConfig() if saved is None else _config_read_from(source, saved)
    return replace(base, **_config_overrides(args))


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("dataset")
    src = g.add_mutually_exclusive_group(required=True)
    src.add_argument("--prices", metavar="FILE", help="closing-price table, e.g. from synth")
    src.add_argument(
        "--bundled", action="store_true", help="use the packaged price fixture"
    )


def _build_panel(args, config: DpoConfig):
    table = load_prices(args.prices) if args.prices else load_bundled_prices()
    return compute_returns(table, config.n_t, config.dt)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args) -> int:
    table = generate_synthetic(
        args.seed,
        args.assets,
        args.days,
        **_given(args, "drift", "volatility", "correlation", "start_price", "start_date"),
    )
    if args.cash:
        table = append_cash_asset(table)
    save_prices(table, args.out)
    print(f"wrote {args.out}: {len(table.assets)} assets x {args.days} days")
    return 0


def _cmd_build(args) -> int:
    config = _resolve_config(args)
    panel = _build_panel(args, config)
    q = encode_qubo(config, panel)
    save_model(q, args.out)
    meta = {"config": config_to_dict(config)}
    Path(str(args.out) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"wrote {args.out}: {q.n} variables in {len(q.partition)} blocks")
    return 0


def _cmd_solve(args) -> int:
    for dest, flag, strategy in (
        ("effort", "--effort", "global"),
        ("global_iters", "--bcd-iters", "block"),
        ("repeats_per_block", "--bcd-repeats", "block"),
    ):
        if args.strategy != strategy and getattr(args, dest) is not None:
            raise ValueError(
                f"{flag} applies only to --strategy {strategy}; "
                f"--strategy {args.strategy} does not use it"
            )
    model = load_model(args.model)
    # the sidecar is checked before the solve, so a broken one costs no solve
    meta_path = Path(str(args.model) + ".meta.json")
    meta = _read_json(meta_path) if meta_path.exists() else {}
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: a model sidecar must hold a JSON object")
    if "config" in meta:
        _config_read_from(meta_path, meta["config"])
    backend = make_backend(args.backend)
    if args.strategy == "global":
        res = backend.solve(SolveRequest(model, seed=args.seed, effort=args.effort))
    else:
        q = canonical_qubo(model)
        cfg = BcdConfig(seed=args.seed, **_given(args, "global_iters", "repeats_per_block"))
        res = bcd_solve(q, backend, cfg)
    energy = float(res.reported_energy)
    payload = {
        "assignment": res.assignment.tolist(),
        "energy": energy,
        "backend": args.backend,
        "strategy": args.strategy,
        "seed": args.seed,
    }
    if "config" in meta:
        payload["config"] = meta["config"]
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}: energy {energy!r} via {args.backend}/{args.strategy}")
    return 0


def _cmd_evaluate(args) -> int:
    solution = _read_json(args.solution)
    if not isinstance(solution, dict):
        raise ValueError(f"{args.solution}: a solution file must hold a JSON object")
    if not isinstance(solution.get("assignment"), list):
        raise ValueError(f"{args.solution}: the solution has no 'assignment' list")
    config = _resolve_config(args, solution.get("config"), args.solution)
    panel = _build_panel(args, config)
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
    known = {v.label: v for v in ALL_VARIANTS}
    labels = [label.strip() for label in text.split(",") if label.strip()]
    if not labels:
        raise ValueError("--variants names no variant")
    for label in labels:
        if label not in known:
            raise ValueError(
                f"unknown variant {label!r}; expected all or a comma-separated "
                f"list of {', '.join(known)}"
            )
    return tuple(known[label] for label in labels)


def _cmd_matrix(args) -> int:
    config = _resolve_config(args)
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]
    if not backends:
        raise ValueError("--backends names no backend")
    variants = _parse_variants(args.variants)
    panel = _build_panel(args, config)
    reports = run_matrix(
        panel, config, backends, variants, seed=args.seed, **_given(args, "runs")
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
    p.add_argument("--drift", type=float)
    p.add_argument("--volatility", type=float)
    p.add_argument("--correlation", type=float)
    p.add_argument("--start-price", dest="start_price", type=float)
    p.add_argument("--start-date", dest="start_date")
    p.add_argument("--cash", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("build", help="encode prices + config into a model file")
    _add_dataset_args(p)
    _add_config_args(p)
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
    p.add_argument("--bcd-iters", dest="global_iters", type=int, help="block sweeps (block strategy only)")
    p.add_argument("--bcd-repeats", dest="repeats_per_block", type=int, help="solves per block (block strategy only)")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("evaluate", help="score a saved solution on a dataset")
    p.add_argument("--solution", required=True, metavar="FILE")
    _add_dataset_args(p)
    _add_config_args(p)
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
    p.add_argument("--runs", type=int, help="independent runs per cell")
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
