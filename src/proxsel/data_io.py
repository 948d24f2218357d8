"""Dataset ingestion, run-configuration parsing, and report output.

The on-disk formats are deliberately plain: delimited text with a header row
for data, JSON for configs and structured reports, and a fixed-width text
table for the per-OCP summary. Floats serialize through ``repr`` (shortest
round-trip form), so identical runs produce byte-identical files; NaN never
appears in a report (absent numbers are ``null``).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence

import numpy as np

from .estimators import Dataset, EstimationConfig, ProxyEstimate
from .exceptions import (
    ConfigError,
    EmptyAfterFiltering,
    IoError,
    MissingColumn,
    ParseError,
    ProxselError,
)
from .simulation import MonteCarloReport, SimConfig

__all__ = [
    "SchemaMap",
    "LoadResult",
    "OcpRow",
    "RunReport",
    "load_csv",
    "parse_config",
    "estimate_to_dict",
    "monte_carlo_to_dict",
    "write_report",
    "read_report",
]

#: Cell contents treated as missing values (case-insensitive, whitespace
#: stripped). Rows with a missing value in any mapped column are dropped.
MISSING_TOKENS = frozenset({"", "na", "nan", "null", "none"})


def _fields_to_dict(obj: Any) -> dict[str, Any]:
    """A dataclass's fields in order, JSON-ready: a float NaN becomes
    ``None``, a tuple a list, and a dataclass inside a tuple its own dict."""

    def plain(value: Any) -> Any:
        if isinstance(value, tuple):
            return [_fields_to_dict(v) if dataclasses.is_dataclass(v) else plain(v)
                    for v in value]
        return None if isinstance(value, float) and math.isnan(value) else value

    return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


#: The JSON types a field accepts, by the first word of its annotation.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "tuple": (list, tuple),
               "dict": dict}


def _read_json(path: str, what: str) -> Any:
    """The JSON document at ``path`` (a blank file reads as ``{}``; a UTF-8
    byte-order mark is skipped). An unreadable file is an :class:`IoError`;
    malformed JSON a :class:`ConfigError`, or for a report a :class:`ParseError`."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(f"cannot open {path!r}: {exc}") from exc
    try:
        return json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        error = ParseError if what == "report" else ConfigError
        raise error(f"{path}: invalid {what} JSON ({exc})") from None


def _from_dict(cls, raw: Any, what: str):
    """``cls`` from a JSON object whose keys are its field names. Unknown
    keys, missing required ones, a value of the wrong JSON type, a non-finite
    number and a broken invariant are a :class:`ConfigError` naming ``what``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(raw).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ConfigError(f"{what}: unknown key(s): {', '.join(unknown)}")
    missing = sorted(
        name for name, f in fields.items() if name not in raw
        and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    if missing:
        raise ConfigError(f"{what}: missing required key(s): {', '.join(missing)}")
    kwargs = {}
    for key, value in raw.items():
        ann = str(fields[key].type)  # a string: the modules defer annotations
        want = _JSON_TYPES.get(ann.split("[")[0].split()[0], object)
        if isinstance(value, bool) or not (
            isinstance(value, want) or value is None and "None" in ann
        ):
            raise ConfigError(
                f"{what}: key {key!r} must be {ann}, got {type(value).__name__}"
            )
        if isinstance(value, float) and not math.isfinite(value):  # a report cannot echo it
            raise ConfigError(f"{what}: key {key!r} must be finite, got {value}")
        kwargs[key] = float(value) if value is not None and ann.startswith("float") else value
    try:
        return cls(**kwargs)
    except ProxselError as exc:  # invariant violations from __post_init__
        raise ConfigError(f"{what}: {exc}") from None


@dataclass(frozen=True)
class SchemaMap:
    """Column-role assignment for delimited files.

    Roles are never inferred from names: the assignment of outcome,
    treatment, TCPs, OCPs, and covariates is an analytical choice made by
    the caller. Names must be distinct across all roles.
    """

    outcome_column: str
    treatment_column: str
    tcp_columns: tuple[str, ...]
    ocp_columns: tuple[str, ...]
    covariate_columns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tcp_columns", tuple(self.tcp_columns))
        object.__setattr__(self, "ocp_columns", tuple(self.ocp_columns))
        object.__setattr__(
            self, "covariate_columns", tuple(self.covariate_columns)
        )
        names = list(self.all_columns())
        for name in names:
            if not isinstance(name, str) or not name:
                raise ConfigError(f"column names must be non-empty strings, got {name!r}")
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise ConfigError(
                "column roles must be disjoint; duplicated names: "
                + ", ".join(dupes)
            )
        if not self.tcp_columns:
            raise ConfigError("schema needs at least one TCP column")
        if not self.ocp_columns:
            raise ConfigError("schema needs at least one OCP column")

    def all_columns(self) -> tuple[str, ...]:
        return (
            (self.outcome_column, self.treatment_column)
            + self.tcp_columns
            + self.ocp_columns
            + self.covariate_columns
        )

    to_dict = _fields_to_dict

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "SchemaMap":
        return _from_dict(cls, raw, "schema")


class LoadResult(NamedTuple):
    """A loaded :class:`~proxsel.estimators.Dataset` plus row accounting."""

    dataset: Dataset
    n_rows_read: int
    n_rows_dropped: int


def load_csv(
    path: str,
    schema: SchemaMap,
    *,
    delimiter: str = ",",
    strict: bool = True,
) -> LoadResult:
    """Read a delimited file with a header row into a Dataset.

    Complete-case analysis: rows with a missing value (see
    :data:`MISSING_TOKENS`) in any mapped column are dropped and counted.
    Unmapped columns are ignored entirely, repeated names among them
    included; a mapped column named twice in the header is a
    :class:`ParseError`. In strict mode a non-missing cell that does not
    parse as a number raises :class:`ParseError` locating the row and
    column; once every cell has parsed, so does the first cell of a complete
    row that parses to a non-finite float (``inf``, ``-nan``, ``1e400``).
    In lenient mode (``strict=False``) such cells are treated as
    missing and the row is dropped. Short rows (fewer fields than the
    header) follow the same rule. Too few complete rows for a
    :class:`Dataset` (at most ``p_z + p_w + p_x + 1``) raise
    :class:`EmptyAfterFiltering`.

    A clean file takes one streaming pass of numpy's C parser over the
    mapped columns. A file with a blank or quoted line, a row too short for
    a mapped column, or a mapped cell that is missing, non-finite or not a
    plain ASCII number is read again, row by row, from the start. The
    arrays, row counts and errors are the same either way. A ``delimiter``
    that is not exactly one character is a :class:`ConfigError`. A UTF-8
    byte-order mark, as spreadsheets export, is skipped.
    """
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ConfigError(f"delimiter must be exactly one character, got {delimiter!r}")
    try:
        handle = open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IoError(f"cannot open {path!r}: {exc}") from exc
    with handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path!r} is empty (no header row)") from None
        header = [h.strip() for h in header]
        names = schema.all_columns()  # distinct: SchemaMap checks
        positions = {name: header.index(name) for name in names if name in header}
        missing_names = [name for name in names if name not in positions]
        if missing_names:
            raise MissingColumn(
                "column(s) not found in header: " + ", ".join(missing_names),
                columns=missing_names,
            )
        repeated = [name for name in names if header.count(name) > 1]
        if repeated:
            raise ParseError("mapped column(s) named more than once in the header: "
                             + ", ".join(repeated), column=repeated[0])
        n_lines = 0

        def lines():
            # csv unquotes and counts blank lines; the C parser does neither.
            nonlocal n_lines
            for line in handle:
                if '"' in line or not line.strip():
                    raise ValueError("blank or quoted line")
                n_lines += 1
                yield line

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a file with no rows warns
                table = np.loadtxt(
                    lines(), delimiter=delimiter, comments=None, ndmin=2,
                    usecols=[positions[name] for name in names],
                )
            clean = len(table) == n_lines and np.isfinite(table).all()
        except Exception:
            clean = False
        if clean:
            n_read, n_dropped = n_lines, 0
        else:
            handle.seek(0)
            reader = csv.reader(handle, delimiter=delimiter)
            next(reader)
            table, n_read, n_dropped = _read_rows(reader, names, positions, strict)
    min_n = len(names) - 1  # p_z + p_w + p_x + 1
    if len(table) <= min_n:
        raise EmptyAfterFiltering(
            f"{len(table)} complete rows remain after dropping {n_dropped} of "
            f"{n_read}; the schema needs more than {min_n}"
        )
    z_end = 2 + len(schema.tcp_columns)
    w_end = z_end + len(schema.ocp_columns)
    dataset = Dataset(
        Y=table[:, 0],
        D=table[:, 1],
        Z=table[:, 2:z_end],
        W=table[:, z_end:w_end],
        X=table[:, w_end:] if schema.covariate_columns else None,
    )
    return LoadResult(dataset=dataset, n_rows_read=n_read, n_rows_dropped=n_dropped)


def _read_rows(reader, names, positions, strict: bool) -> tuple[np.ndarray, int, int]:
    """The row-by-row reader behind :func:`load_csv`: the table of complete
    rows in ``names`` order, the rows read and the rows dropped."""
    rows: list[list[float]] = []
    n_read = 0
    n_dropped = 0
    non_finite = None  # strict mode: the first complete row's non-finite cell
    for row_index, raw_row in enumerate(reader, start=1):
        n_read += 1
        values: list[float] = []
        row_error = None
        for name in names:
            pos = positions[name]
            cell = raw_row[pos].strip() if pos < len(raw_row) else ""
            if cell.lower() in MISSING_TOKENS:
                break
            try:
                value = float(cell)
            except ValueError:
                if strict:
                    raise ParseError(
                        f"row {row_index}, column {name!r}: "
                        f"cannot parse {cell!r} as a number",
                        row=row_index,
                        column=name,
                    ) from None
                break
            if not math.isfinite(value):
                if not strict:
                    break
                row_error = row_error or ParseError(
                    f"row {row_index}, column {name!r}: "
                    f"{cell!r} is not a finite number",
                    row=row_index,
                    column=name,
                )
            values.append(value)
        if len(values) < len(names):
            n_dropped += 1
        else:
            rows.append(values)
            non_finite = non_finite or row_error
    if non_finite is not None:
        raise non_finite
    if not rows:
        raise EmptyAfterFiltering(
            f"no complete rows remain after dropping {n_dropped} of {n_read}"
        )
    return np.asarray(rows, dtype=float), n_read, n_dropped


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------

_CONFIG_KINDS = {"sim": SimConfig, "estimation": EstimationConfig, "schema": SchemaMap}


def parse_config(
    path: str | None, kind: str = "sim"
) -> SimConfig | EstimationConfig | SchemaMap:
    """Parse a JSON file into a fully resolved config object.

    ``kind`` selects the target type: ``"sim"``, ``"estimation"`` or
    ``"schema"`` (a :class:`SchemaMap`). No ``path``, an empty file or a
    whitespace-only one resolves to all defaults. Unknown keys are rejected;
    type and invariant violations surface as :class:`ConfigError` naming
    the offending key or constraint.
    """
    if kind not in _CONFIG_KINDS:
        raise ConfigError(
            f"kind must be one of {', '.join(_CONFIG_KINDS)}, got {kind!r}"
        )
    what = kind if kind == "schema" else f"{kind} config"
    raw = {} if path is None else _read_json(path, what)
    return _from_dict(_CONFIG_KINDS[kind], raw, what if path is None else path)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _float_or_none(value: Any) -> float | None:
    if value is None:
        return None
    value = float(value)
    return None if math.isnan(value) else value


def estimate_to_dict(
    estimate: ProxyEstimate, tcp_names: Sequence[str] | None = None
) -> dict[str, Any]:
    """JSON-ready view of an estimate; NaN becomes ``null``.

    ``tcp_names`` (when given) translates selected-TCP indices to column
    names alongside the raw indices.
    """
    selected = [int(j) for j in estimate.selected_invalid_tcps]
    out: dict[str, Any] = {
        "method": estimate.method,
        "beta_hat": _float_or_none(estimate.beta_hat),
        "gamma_hat": _float_or_none(estimate.gamma_hat),
        "alpha_hat": [float(a) for a in np.asarray(estimate.alpha_hat)],
        "selected_invalid_tcps": selected,
        "variance": _float_or_none(estimate.variance),
        "ci_lower": _float_or_none(estimate.ci_lower),
        "ci_upper": _float_or_none(estimate.ci_upper),
    }
    if tcp_names is not None:
        out["selected_invalid_tcp_names"] = [tcp_names[j] for j in selected]
    if estimate.per_ocp_estimates is not None:
        out["per_ocp_estimates"] = [
            _float_or_none(b) for b in np.asarray(estimate.per_ocp_estimates)
        ]
    return out


def monte_carlo_to_dict(report: MonteCarloReport) -> dict[str, Any]:
    """JSON-ready view of a Monte Carlo report (config echo included)."""
    return {
        "config": dataclasses.asdict(report.config),
        "reps": report.reps,
        "n_failed": report.n_failed,
        "methods": {name: _fields_to_dict(m) for name, m in report.methods.items()},
    }


@dataclass(frozen=True)
class OcpRow:
    """One line of the per-OCP summary table.

    A failed pipeline run carries its error message in ``error`` and ``None``
    numbers; the table renderer prints a failure marker for such rows.
    """

    label: str
    invalid_tcps: tuple[str, ...]
    valid_tcps: tuple[str, ...]
    beta_hat: float | None
    ci_lower: float | None
    ci_upper: float | None
    error: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "invalid_tcps", tuple(self.invalid_tcps))
        object.__setattr__(self, "valid_tcps", tuple(self.valid_tcps))

    to_dict = _fields_to_dict

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "OcpRow":
        return _from_dict(cls, raw, "per-OCP row")


@dataclass(frozen=True)
class RunReport:
    """Everything one command run produced, in serializable form.

    ``config`` echoes the fully resolved inputs (configs, schema, flags that
    affect results — never execution details like worker count). ``timing``
    is wall-clock seconds or ``None`` when timing capture is off, which keeps
    repeated runs byte-identical.
    """

    command: str
    config: dict[str, Any]
    estimate: dict[str, Any] | None = None
    per_ocp: tuple[OcpRow, ...] = ()
    diagnostics: dict[str, Any] = field(default_factory=dict)
    timing: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_ocp", tuple(self.per_ocp))

    to_dict = _fields_to_dict

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "RunReport":
        report = _from_dict(cls, raw, "report")
        rows = tuple(OcpRow.from_dict(row) for row in report.per_ocp)
        return dataclasses.replace(report, per_ocp=rows)


_FORMATS = ("structured", "table")
_FAILURE_MARKER = "FAILED"


def write_report(report: RunReport, path: str, format: str = "structured") -> None:
    """Write a report as JSON (``structured``) or a text table (``table``).

    The structured document contains every field and round-trips through
    :func:`read_report`. The table format renders the per-OCP summary with
    columns ``OCP | Invalid TCPs | Valid TCPs | beta_hat | <level>% CI``
    plus a summary line for the aggregate estimate when one is present. The
    level is ``1 - alpha_level`` of the echoed estimation config (95 when
    none is echoed). The table is a human-facing view, not meant to be
    re-read.
    """
    if format not in _FORMATS:
        raise IoError(f"format must be one of {', '.join(_FORMATS)}, got {format!r}")
    if format == "structured":
        payload = json.dumps(report.to_dict(), indent=2, allow_nan=False)
        text = payload + "\n"
    else:
        text = render_table(report)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path!r}: {exc}") from exc


def read_report(path: str) -> RunReport:
    """Read back a structured report written by :func:`write_report`."""
    return RunReport.from_dict(_read_json(path, "report"))


def _format_ci(lo: float | None, hi: float | None) -> str:
    if lo is None or hi is None:
        return "--"
    return f"[{lo:.4f}, {hi:.4f}]"


def _format_beta(beta: float | None) -> str:
    return "--" if beta is None else f"{beta:.4f}"


def render_table(report: RunReport) -> str:
    """Fixed-width per-OCP summary; one row per OCP plus a summary row."""
    alpha = report.config.get("estimation", {}).get("alpha_level", 0.05)
    ci_label = f"{100 * (1 - alpha):g}% CI"
    header = ["OCP", "Invalid TCPs", "Valid TCPs", "beta_hat", ci_label]
    rows: list[list[str]] = []
    for row in report.per_ocp:
        if row.error is not None:
            rows.append(
                [row.label, _FAILURE_MARKER, _FAILURE_MARKER, _FAILURE_MARKER,
                 row.error]
            )
        else:
            rows.append(
                [
                    row.label,
                    ", ".join(row.invalid_tcps) or "(none)",
                    ", ".join(row.valid_tcps) or "(none)",
                    _format_beta(row.beta_hat),
                    _format_ci(row.ci_lower, row.ci_upper),
                ]
            )
    if report.estimate is not None:
        est = report.estimate
        rows.append(
            [
                est.get("method", "summary"),
                "--",
                "--",
                _format_beta(est.get("beta_hat")),
                _format_ci(est.get("ci_lower"), est.get("ci_upper")),
            ]
        )
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]

    def line(parts: Sequence[str]) -> str:
        return " | ".join(p.ljust(widths[i]) for i, p in enumerate(parts)).rstrip()

    out = [line(header), "-+-".join("-" * w for w in widths)]
    out.extend(line(r) for r in rows)
    return "\n".join(out) + "\n"
