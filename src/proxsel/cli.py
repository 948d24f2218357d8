"""Command-line interface.

Five subcommands wire the library end to end:

- ``simulate``   — Monte Carlo evaluation of the estimators on synthetic data.
- ``reproduce``  — the prepackaged benchmark studies at desk or full scale.
- ``estimate``   — run the selection-and-estimation pipeline on a data file
  (one OCP, or the median over all OCP columns).
- ``identify``   — subset-agreement identifiability check on reduced-form
  coefficient vectors (given directly or computed from a data file).
- ``diagnose``   — selection-stage diagnostics: irrepresentable condition
  value and restricted-isometry recovery margin.

Each ``cmd_*`` function prints its own output and returns a
:class:`~proxsel.data_io.RunReport` that echoes its fully resolved
configuration and seed; :func:`main` alone finishes a command: it records
the wall-clock seconds under ``--timing``, writes the report to ``--out``
and announces the path. Commands run serially and all randomness is
counter-keyed by (seed, index), so reports are byte-identical across
repeated runs; ``simulate --jobs`` and ``estimate --jobs`` are accepted for
compatibility, must be at least 1, and have no other effect.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Any, Sequence

import numpy as np

from .data_io import (
    LoadResult,
    OcpRow,
    RunReport,
    SchemaMap,
    estimate_to_dict,
    load_csv,
    monte_carlo_to_dict,
    parse_config,
    render_table,
    write_report,
)
from .estimators import (
    ProxyEstimate,
    default_subsample_size,
    estimate_invalid_tcp,
    estimate_invalid_tcp_ocp,
    first_stage,
    subsample_ci,
    _reduced_rows,
)
from .exceptions import ConfigError, ProxselError
from .identification import (
    check_identification,
    irrepresentable_diagnostic,
    rip_recovery_margin,
)
from .simulation import (
    METHOD_NAMES,
    STUDY_NAMES,
    MethodMetrics,
    SubsampleCiConfig,
    run_monte_carlo,
    run_study,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxsel",
        description=(
            "Causal effect estimation with many candidate confounding "
            "proxies, some possibly invalid."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The data-file flags of estimate, identify and diagnose (see _load).
    data_file = argparse.ArgumentParser(add_help=False)
    data_file.add_argument(
        "--ocp", help="OCP column, name or index (default: the first)"
    )
    data_file.add_argument("--delimiter", default=",")
    data_file.add_argument(
        "--lenient",
        action="store_true",
        help="drop rows with an unparseable or non-finite cell instead of failing",
    )

    sim = sub.add_parser(
        "simulate", help="Monte Carlo evaluation on synthetic data"
    )
    sim.add_argument("--config", help="JSON simulation config (defaults apply)")
    sim.add_argument(
        "--methods",
        default="adaptive,oracle,naive,ols",
        help=f"comma list from: {', '.join(METHOD_NAMES)}",
    )
    sim.add_argument("--out", required=True, help="report path (JSON)")
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.add_argument(
        "--subsample-n",
        type=int,
        default=0,
        help="subsample count for the median method's interval (0 = no interval)",
    )
    sim.add_argument(
        "--subsample-b", type=int, help="subsample size (default: floor(n^0.8))"
    )
    sim.add_argument("--jobs", type=int, default=1, help="accepted (>= 1); has no effect")
    sim.add_argument(
        "--timing", action="store_true", help="record wall-clock seconds"
    )

    rep = sub.add_parser("reproduce", help="run a prepackaged benchmark study")
    rep.add_argument(
        "--study", required=True, choices=STUDY_NAMES, help="study grid"
    )
    rep.add_argument("--scale", default="desk", choices=("desk", "full"))
    rep.add_argument("--out", required=True, help="report path (JSON)")
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--timing", action="store_true")

    est = sub.add_parser(
        "estimate", parents=[data_file], help="run the pipeline on a data file"
    )
    est.add_argument("--data", required=True, help="delimited data file")
    est.add_argument("--schema", required=True, help="JSON column-role map")
    est.add_argument("--config", help="JSON estimation config")
    est.add_argument(
        "--mode",
        default="median",
        choices=("single", "median"),
        help="single: one OCP; median: aggregate over all OCP columns",
    )
    est.add_argument(
        "--subsample-n",
        type=int,
        default=1000,
        help="subsample count for the median interval (0 disables)",
    )
    est.add_argument(
        "--subsample-b", type=int, help="subsample size (default: floor(n^0.8))"
    )
    est.add_argument("--seed", type=int, default=0, help="subsampling seed")
    est.add_argument("--out", required=True, help="report path")
    est.add_argument(
        "--format", default="structured", choices=("structured", "table")
    )
    est.add_argument("--jobs", type=int, default=1, help="accepted (>= 1); has no effect")
    est.add_argument("--timing", action="store_true")

    ide = sub.add_parser(
        "identify", parents=[data_file],
        help="subset-agreement identifiability check",
    )
    ide.add_argument(
        "--delta-tilde", help="comma list: proxy-side reduced-form coefficients"
    )
    ide.add_argument(
        "--gamma-tilde", help="comma list: outcome-side reduced-form coefficients"
    )
    ide.add_argument("--data", help="delimited data file (alternative input)")
    ide.add_argument("--schema", help="JSON column-role map (with --data)")
    ide.add_argument(
        "--invalid-bound",
        type=int,
        required=True,
        help="strict upper bound on the number of invalid proxies",
    )
    ide.add_argument("--tol", type=float, default=1e-6)
    ide.add_argument("--out", help="optional report path (JSON)")

    dia = sub.add_parser(
        "diagnose", parents=[data_file], help="selection-stage diagnostics"
    )
    dia.add_argument("--data", required=True, help="delimited data file")
    dia.add_argument("--schema", required=True, help="JSON column-role map")
    dia.add_argument(
        "--invalid-set",
        help="comma list of assumed-invalid TCPs (names or indices) "
        "for the irrepresentable condition",
    )
    dia.add_argument(
        "--sparsity",
        type=int,
        help="assumed invalid count for the restricted-isometry margin",
    )
    dia.add_argument("--out", help="optional report path (JSON)")

    return parser


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _resolve_column(
    token: str | None, columns: Sequence[str], default: int, what: str
) -> int:
    """Map a name-or-index token onto a column position."""
    if token is None:
        return default
    if token in columns:
        return list(columns).index(token)
    try:
        index = int(token)
    except ValueError:
        raise ConfigError(
            f"{what} {token!r} is neither a known column name nor an index; "
            f"columns: {', '.join(columns)}"
        ) from None
    if not 0 <= index < len(columns):
        raise ConfigError(
            f"{what} index {index} out of range [0, {len(columns) - 1}]"
        )
    return index


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated number list") from None
    if not values:
        raise ConfigError(f"{flag} must contain at least one number")
    return np.asarray(values)


def _metrics(m: MethodMetrics) -> str:
    return (
        f"coverage={m.coverage:.3f} length={m.ci_length:.4f} bias={m.bias:+.4f} "
        f"se={m.se:.4f} rmse={m.rmse:.4f}"
    )


def _ocp_row(
    label: str,
    fit: ProxyEstimate | ProxselError,
    tcp_names: Sequence[str],
) -> OcpRow:
    """One report row: the selection and interval of a fit, or its error."""
    if isinstance(fit, ProxselError):
        return OcpRow(label=label, invalid_tcps=(), valid_tcps=(), beta_hat=None,
                      ci_lower=None, ci_upper=None, error=f"{type(fit).__name__}: {fit}")
    selected = set(int(j) for j in fit.selected_invalid_tcps)
    invalid = tuple(tcp_names[j] for j in sorted(selected))
    valid = tuple(name for j, name in enumerate(tcp_names) if j not in selected)
    return OcpRow(label=label, invalid_tcps=invalid, valid_tcps=valid, beta_hat=fit.beta_hat,
                  ci_lower=fit.ci_lower, ci_upper=fit.ci_upper)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> RunReport:
    config = parse_config(args.config, kind="sim")
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if not methods:
        raise ConfigError("--methods names no method")
    for i, m in enumerate(methods):
        if m not in METHOD_NAMES:
            raise ConfigError(
                f"unknown method {m!r}; available: {', '.join(METHOD_NAMES)}"
            )
        if m in methods[:i]:
            raise ConfigError(f"--methods names {m!r} twice")
    ci_config = None
    if args.subsample_n > 0:
        ci_config = SubsampleCiConfig(
            n_subsamples=args.subsample_n, b=args.subsample_b
        )
    report = run_monte_carlo(config, methods, ci_config, n_jobs=args.jobs)
    for name, m in report.methods.items():
        print(f"{name}: {_metrics(m)} ({m.n_used} used, {m.n_failed} failed)")
    return RunReport(
        command="simulate",
        config={
            "sim": dataclasses.asdict(config),
            "methods": list(methods),
            "subsample": dataclasses.asdict(ci_config) if ci_config else None,
        },
        diagnostics={"monte_carlo": monte_carlo_to_dict(report)},
        seed=config.seed,
    )


def cmd_reproduce(args: argparse.Namespace) -> RunReport:
    reports = run_study(args.study, args.scale, seed=args.seed)
    for cell, rep in reports.items():
        for name, m in rep.methods.items():
            print(f"{cell} {name}: {_metrics(m)}")
    return RunReport(
        command="reproduce",
        config={"study": args.study, "scale": args.scale},
        diagnostics={
            "cells": {
                cell: monte_carlo_to_dict(rep) for cell, rep in reports.items()
            }
        },
        seed=args.seed,
    )


def _load(args: argparse.Namespace) -> tuple[SchemaMap, LoadResult, int]:
    """Read ``--schema``, load ``--data`` with it and resolve ``--ocp``
    (which ``estimate --mode median`` ignores)."""
    schema = parse_config(args.schema, kind="schema")
    loaded = load_csv(
        args.data, schema, delimiter=args.delimiter, strict=not args.lenient
    )
    ocp = None if getattr(args, "mode", None) == "median" else args.ocp
    return schema, loaded, _resolve_column(ocp, schema.ocp_columns, 0, "--ocp")


def cmd_estimate(args: argparse.Namespace) -> RunReport:
    est_config = parse_config(args.config, kind="estimation")
    schema, loaded, index = _load(args)
    data = loaded.dataset
    tcp_names = schema.tcp_columns
    ocp_names = schema.ocp_columns

    rows: list[OcpRow]
    estimate: dict[str, Any] | None
    if args.mode == "single":
        est = estimate_invalid_tcp(data, index, est_config)
        rows = [_ocp_row(ocp_names[index], est, tcp_names)]
        estimate = estimate_to_dict(est, tcp_names)
    else:
        agg = estimate_invalid_tcp_ocp(data, est_config)
        rows = [
            _ocp_row(label, fit, tcp_names)
            for label, fit in zip(ocp_names, agg.per_ocp_fits)
        ]
        estimate = estimate_to_dict(agg, tcp_names)
        if args.subsample_n > 0:
            lo, hi = subsample_ci(
                data,
                est_config,
                n_subsamples=args.subsample_n,
                b=args.subsample_b,
                seed=args.seed,
            )
            estimate["ci_lower"] = lo
            estimate["ci_upper"] = hi
            estimate["ci_method"] = "subsampling"
            estimate["subsample_n"] = args.subsample_n
            estimate["subsample_b"] = (
                args.subsample_b
                if args.subsample_b is not None
                else default_subsample_size(data.n)
            )

    run = RunReport(
        command="estimate",
        config={
            "data": args.data,
            "schema": schema.to_dict(),
            "estimation": dataclasses.asdict(est_config),
            "mode": args.mode,
            "subsample_n": args.subsample_n if args.mode == "median" else None,
            "subsample_b": args.subsample_b if args.mode == "median" else None,
            "lenient": bool(args.lenient),
            "delimiter": args.delimiter,
        },
        estimate=estimate,
        per_ocp=tuple(rows),
        diagnostics={
            "n": data.n,
            "p_z": data.p_z,
            "p_w": data.p_w,
            "p_x": data.p_x,
            "n_rows_read": loaded.n_rows_read,
            "n_rows_dropped": loaded.n_rows_dropped,
        },
        seed=args.seed,
    )
    sys.stdout.write(render_table(run))
    return run


def cmd_identify(args: argparse.Namespace) -> RunReport:
    if (args.delta_tilde is None) != (args.gamma_tilde is None):
        raise ConfigError(
            "--delta-tilde and --gamma-tilde must be given together"
        )
    if args.delta_tilde is not None:
        delta = _parse_vector(args.delta_tilde, "--delta-tilde")
        gamma = _parse_vector(args.gamma_tilde, "--gamma-tilde")
        source: dict[str, Any] = {}
    elif args.data is not None:
        if args.schema is None:
            raise ConfigError("--data input needs --schema")
        schema, loaded, index = _load(args)
        fs = first_stage(loaded.dataset, index)
        delta, gamma = fs.delta_hat_vec, fs.gamma_hat_vec
        source = {"data": args.data, "ocp": schema.ocp_columns[index]}
    else:
        raise ConfigError(
            "provide either --delta-tilde/--gamma-tilde or --data/--schema"
        )
    source["delta_tilde"] = [float(v) for v in delta]
    source["gamma_tilde"] = [float(v) for v in gamma]
    report = check_identification(
        delta, gamma, args.invalid_bound, tol=args.tol
    )
    payload = {
        "identified": report.identified,
        "method": report.method,
        "distinct_q_count": report.distinct_q_count,
        "subsets": [
            {"indices": list(idx), "q": q} for idx, q in report.subsets
        ],
    }
    print(json.dumps(payload, indent=2))
    if not report.subsets:
        print(
            f'warning: no subset agrees on one ratio at --tol {args.tol:g}, so '
            f'"identified": true holds vacuously; estimated coefficients need '
            f"a statistical tolerance",
            file=sys.stderr,
        )
    return RunReport(
        command="identify",
        config={"invalid_bound": args.invalid_bound, "tol": args.tol,
                "input": source},
        diagnostics={"identification": payload},
    )


def cmd_diagnose(args: argparse.Namespace) -> RunReport:
    if args.invalid_set is None and args.sparsity is None:
        raise ConfigError("provide --invalid-set and/or --sparsity")
    schema, loaded, index = _load(args)
    data = loaded.dataset
    design, d_tilde, what = _reduced_rows(data, index)
    payload: dict[str, Any] = {
        "ocp": schema.ocp_columns[index],
        "n": data.n,
        "p_z": data.p_z,
    }
    if args.invalid_set is not None:
        tokens = [t.strip() for t in args.invalid_set.split(",") if t.strip()]
        indices = sorted({
            _resolve_column(t, schema.tcp_columns, -1, "--invalid-set entry")
            for t in tokens
        })
        irr = irrepresentable_diagnostic(design, indices)
        payload["irrepresentable"] = {
            "invalid_set": [schema.tcp_columns[j] for j in indices],
            "value": irr.irrepresentable_value,
            "holds": irr.irrepresentable_holds,
        }
    if args.sparsity is not None:
        rip = rip_recovery_margin(data.Z, what, d_tilde, args.sparsity)
        payload["rip"] = {
            label: {"lower": lo, "upper": hi}
            for label, (lo, hi) in rip.rip.items()
        }
        payload["recovery_margin"] = rip.recovery_margin
    print(json.dumps(payload, indent=2))
    return RunReport(
        command="diagnose",
        config={
            "data": args.data,
            "schema": schema.to_dict(),
            "invalid_set": args.invalid_set,
            "sparsity": args.sparsity,
        },
        diagnostics=payload,
    )


_COMMANDS = {
    "simulate": cmd_simulate,
    "reproduce": cmd_reproduce,
    "estimate": cmd_estimate,
    "identify": cmd_identify,
    "diagnose": cmd_diagnose,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand, then finish it: record ``--timing``, write the
    report to ``--out`` and announce it."""
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        if getattr(args, "subsample_n", 0) < 0:
            raise ConfigError(f"--subsample-n must be >= 0, got {args.subsample_n}")
        if (getattr(args, "seed", None) or 0) < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        if getattr(args, "subsample_b", None) is not None and args.subsample_n == 0:
            raise ConfigError("--subsample-b needs --subsample-n > 0 (got --subsample-n 0)")
        run = _COMMANDS[args.command](args)
        if getattr(args, "timing", False):
            run = dataclasses.replace(run, timing=time.perf_counter() - start)
        if args.out:
            write_report(run, args.out, format=getattr(args, "format", "structured"))
            print(f"report written to {args.out}")
    except (ProxselError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
