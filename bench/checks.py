"""Output checks computed apart from the program.

Every function returns a list of error strings; an empty list means the
output passed. Nothing here imports proxsel: the refits use
``numpy.linalg.lstsq`` and the input files are re-read with ``numpy``.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from typing import Any, Callable, Sequence

import numpy as np

#: Absolute tolerance between a program estimate and its lstsq refit. The
#: two agree to about 1e-15 here; a real fault moves them far more.
REFIT_TOL = 1e-12


def lstsq_2sls(
    y: np.ndarray, d: np.ndarray, z: np.ndarray, w: np.ndarray,
    invalid: Sequence[int],
) -> float:
    """Treatment coefficient of the post-selection 2SLS refit, by lstsq.

    First stage: the OCP column ``w`` on ``(Z, D, 1)``. Second stage: ``Y``
    on ``(D, Z[:, invalid], fitted w, 1)``.
    """
    ones = np.ones((y.size, 1))
    m = np.column_stack([z, d, ones])
    what = m @ np.linalg.lstsq(m, w, rcond=None)[0]
    design = np.column_stack([d, z[:, list(invalid)], what, ones])
    return float(np.linalg.lstsq(design, y, rcond=None)[0][0])


def check_monte_carlo(
    report_methods: dict[str, tuple[float, float]],
    oracle_betas: Sequence[float],
    beta_true: float,
    invalid: Sequence[int],
    adaptive_runs: Callable[[], Sequence[tuple[tuple[int, ...], float]]],
) -> list[str]:
    """Check the ``oracle`` and ``adaptive`` rows of one Monte Carlo report.

    ``report_methods`` maps a method to its reported ``(bias, se)``.
    ``oracle_betas`` are the lstsq 2SLS estimates on the same datasets. The
    oracle row must equal their bias and sample standard deviation. The
    adaptive row must equal the oracle row when every replication selected
    the true set. Otherwise ``adaptive_runs()`` gives the selection and the
    estimate per replication: each replication that selected the true set
    must equal its oracle estimate, and the row must summarize the runs.
    """
    errors = []
    betas = np.asarray(oracle_betas, dtype=float)
    bias = float(np.mean(betas) - beta_true)
    se = float(np.std(betas, ddof=1))
    o_bias, o_se = report_methods["oracle"]
    if abs(o_bias - bias) > REFIT_TOL or abs(o_se - se) > REFIT_TOL:
        errors.append(
            f"oracle (bias, se) = ({o_bias!r}, {o_se!r}) but the lstsq refit "
            f"gives ({bias!r}, {se!r})"
        )
    a_bias, a_se = report_methods["adaptive"]
    if abs(a_bias - bias) <= REFIT_TOL and abs(a_se - se) <= REFIT_TOL:
        return errors
    truth = tuple(sorted(invalid))
    estimates = []
    for r, (selected, beta) in enumerate(adaptive_runs()):
        if tuple(selected) == truth and abs(beta - betas[r]) > REFIT_TOL:
            errors.append(
                f"replication {r}: adaptive selected the true set but "
                f"beta {beta!r} != oracle refit {betas[r]!r}"
            )
        estimates.append(beta)
    est = np.asarray(estimates)
    if (abs(a_bias - float(np.mean(est) - beta_true)) > REFIT_TOL
            or abs(a_se - float(np.std(est, ddof=1))) > REFIT_TOL):
        errors.append("adaptive (bias, se) does not summarize its replications")
    return errors


def read_csv_table(path: str) -> tuple[list[str], np.ndarray]:
    """Header and numeric body of a comma-separated file."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_median_report(
    reports: Sequence[bytes],
    header: Sequence[str],
    table: np.ndarray,
    tcp_names: Sequence[str],
    valid_ocps: Sequence[str],
    invalid_tcps: Sequence[str],
    subsample_n: int,
) -> list[str]:
    """Check the reports of ``proxsel estimate --mode median``.

    All reports must be byte-identical. Every valid-OCP row selects exactly
    ``invalid_tcps`` and its ``beta_hat`` equals the lstsq refit with those
    TCPs as controls. The aggregate is the median of the per-OCP estimates
    and lies inside its subsampling interval.
    """
    errors = []
    if not reports:
        return ["no report to check"]
    for i, raw in enumerate(reports[1:], start=1):
        if raw != reports[0]:
            errors.append(f"report of operation {i} differs from operation 0")
            break
    doc = json.loads(reports[0])
    col = {name: table[:, j] for j, name in enumerate(header)}
    z = np.column_stack([col[name] for name in tcp_names])
    invalid_idx = [list(tcp_names).index(name) for name in invalid_tcps]
    rows = {row["label"]: row for row in doc["per_ocp"]}
    for ocp in valid_ocps:
        row = rows.get(ocp)
        if row is None or row.get("error") is not None:
            errors.append(f"row {ocp}: missing or failed")
            continue
        if list(row["invalid_tcps"]) != list(invalid_tcps):
            errors.append(
                f"row {ocp}: selected {row['invalid_tcps']}, "
                f"expected {list(invalid_tcps)}"
            )
            continue
        refit = lstsq_2sls(col["y"], col["d"], z, col[ocp], invalid_idx)
        if abs(row["beta_hat"] - refit) > REFIT_TOL:
            errors.append(
                f"row {ocp}: beta_hat {row['beta_hat']!r} != lstsq refit {refit!r}"
            )
    est = doc["estimate"]
    per_ocp = [b for b in est["per_ocp_estimates"] if b is not None]
    beta = est["beta_hat"]
    if not per_ocp or not math.isclose(beta, float(np.median(per_ocp)),
                                       rel_tol=1e-15, abs_tol=0.0):
        errors.append(f"beta_hat {beta!r} is not the median of the per-OCP estimates")
    lo, hi = est.get("ci_lower"), est.get("ci_upper")
    if est.get("ci_method") != "subsampling" or est.get("subsample_n") != subsample_n:
        errors.append("interval is not the subsampling interval asked for")
    elif lo is None or hi is None or not lo <= beta <= hi:
        errors.append(f"beta_hat {beta!r} lies outside [{lo!r}, {hi!r}]")
    return errors


def reduced_form(
    y: np.ndarray, d: np.ndarray, z: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """TCP blocks ``(delta, gamma)`` of the OCP and outcome regressions on
    ``(Z, D, 1)``, by lstsq."""
    m = np.column_stack([z, d, np.ones(y.size)])
    coef = np.linalg.lstsq(m, np.column_stack([w, y]), rcond=None)[0]
    p = z.shape[1]
    return coef[:p, 0], coef[:p, 1]


def check_identification_payload(
    payload: dict, delta: np.ndarray, gamma: np.ndarray,
    invalid_bound: int, tol: float,
) -> list[str]:
    """Check a ``proxsel identify`` verdict by testing every subset at once.

    A subset of size ``p - invalid_bound + 1`` is consistent when one
    least-squares ratio ``q`` fits all its members within the relative
    tolerance; the input is identified when the consistent subsets share at
    most one ratio. The verdict, the ratio count and the consistent subsets
    must all match.
    """
    p = delta.size
    idx = np.array(list(combinations(range(p), p - invalid_bound + 1)))
    d, g = delta[idx], gamma[idx]
    q = np.sum(d * g, axis=1) / np.sum(d * d, axis=1)
    fit = d * q[:, None]
    ok = np.all(np.abs(fit - g) <= tol * np.maximum(np.abs(g), np.abs(fit)), axis=1)
    ratios: list[float] = []
    for r in q[ok]:
        if not any(abs(r - s) <= tol * max(1.0, abs(r), abs(s)) for s in ratios):
            ratios.append(float(r))
    errors = []
    if payload["identified"] != (len(ratios) <= 1):
        errors.append(f"identify verdict {payload['identified']}, recomputed "
                      f"{len(ratios) <= 1}")
    if payload["distinct_q_count"] != len(ratios):
        errors.append(f"identify distinct_q_count {payload['distinct_q_count']}, "
                      f"recomputed {len(ratios)}")
    subsets = [list(map(int, idx[j])) for j in np.nonzero(ok)[0]]
    if [s["indices"] for s in payload["subsets"]] != subsets:
        errors.append("identify consistent subsets differ from the recomputation")
    return errors
