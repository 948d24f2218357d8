"""proxsel: treatment-effect estimation with possibly invalid confounding proxies.

The package estimates a linear treatment effect under hidden confounding by
exploiting two kinds of candidate proxies of the confounder: treatment-
inducing proxies (TCPs), which are valid when they have no direct outcome
effect, and outcome-inducing proxies (OCPs), which are valid when the
treatment does not affect them. Invalid TCPs are selected out by an
adaptively weighted lasso; invalid OCPs are neutralized by aggregating
per-OCP estimates with a median. Identification checks, selection
diagnostics, a simulation harness, file I/O, and a command-line interface
round out the toolkit.
"""

from .exceptions import (
    AggregateFailure,
    AssumptionViolation,
    CombinatorialBlowup,
    ConfigError,
    DegenerateTreatment,
    EmptyAfterFiltering,
    EmptySupport,
    InvalidBound,
    IoError,
    MissingColumn,
    NoConvergence,
    ParseError,
    ProxselError,
    RankDeficient,
    SingularBlock,
    WeakProxyWarning,
)
from .linalg import (
    OlsFit,
    ols,
    orthonormal_basis,
    project,
    residual_project,
)
from .identification import (
    DiagnosticReport,
    IdentificationReport,
    check_identification,
    check_majority_rule,
    irrepresentable_diagnostic,
    rip_constants,
    rip_recovery_margin,
)
from .estimators import (
    Dataset,
    EstimationConfig,
    FirstStage,
    ProxyEstimate,
    adaptive_lasso_proximal,
    alpha_median,
    default_subsample_size,
    estimate_invalid_tcp,
    estimate_invalid_tcp_ocp,
    first_stage,
    kkt_violation,
    lasso_proximal,
    lasso_solve,
    median_gamma,
    naive_p2sls,
    ols_baseline,
    oracle_p2sls,
    post_adaptive_2sls,
    select_lambda,
    subsample_ci,
)
from .simulation import (
    MethodMetrics,
    MonteCarloReport,
    SimConfig,
    SubsampleCiConfig,
    generate_invalid_tcp_data,
    generate_invalid_tcp_ocp_data,
    run_monte_carlo,
    run_study,
)
from .data_io import (
    LoadResult,
    OcpRow,
    RunReport,
    SchemaMap,
    estimate_to_dict,
    load_csv,
    monte_carlo_to_dict,
    parse_config,
    read_report,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exceptions
    "ProxselError",
    "RankDeficient",
    "EmptySupport",
    "CombinatorialBlowup",
    "InvalidBound",
    "AssumptionViolation",
    "SingularBlock",
    "NoConvergence",
    "DegenerateTreatment",
    "AggregateFailure",
    "MissingColumn",
    "ParseError",
    "EmptyAfterFiltering",
    "ConfigError",
    "IoError",
    "WeakProxyWarning",
    # linear algebra
    "OlsFit",
    "project",
    "residual_project",
    "ols",
    "orthonormal_basis",
    # identification & diagnostics
    "IdentificationReport",
    "DiagnosticReport",
    "check_majority_rule",
    "check_identification",
    "irrepresentable_diagnostic",
    "rip_constants",
    "rip_recovery_margin",
    # estimators
    "Dataset",
    "EstimationConfig",
    "FirstStage",
    "ProxyEstimate",
    "first_stage",
    "median_gamma",
    "alpha_median",
    "lasso_solve",
    "kkt_violation",
    "lasso_proximal",
    "adaptive_lasso_proximal",
    "post_adaptive_2sls",
    "estimate_invalid_tcp",
    "estimate_invalid_tcp_ocp",
    "subsample_ci",
    "oracle_p2sls",
    "naive_p2sls",
    "ols_baseline",
    "select_lambda",
    "default_subsample_size",
    # simulation
    "SimConfig",
    "SubsampleCiConfig",
    "MethodMetrics",
    "MonteCarloReport",
    "generate_invalid_tcp_data",
    "generate_invalid_tcp_ocp_data",
    "run_monte_carlo",
    "run_study",
    # data I/O and reports
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
