"""Non-uniformity metrics of vulnerable-host distributions and propagation
models for address-space scanning strategies."""

__version__ = "0.2.0"

from .addrspace import (
    CcdfPoint,
    GroupDistribution,
    HostListResult,
    HostSet,
    aggregate,
    ccdf,
    load_host_list,
    materialize_hosts,
    parse_host_list,
    refine,
    save_host_list,
    synth_uniform,
    synth_zipf,
    write_ccdf_csv,
)
from .epidemic import (
    EarlyStageConfig,
    EarlyStageResult,
    EpidemicConfig,
    EpidemicTrace,
    estimate_infection_rate,
    estimate_mss_full,
    propagate,
    time_to_fraction,
)
from .errors import (
    CapacityError,
    DistributionFormatError,
    HostListParseError,
    InternalConsistencyError,
    ParameterError,
    ScanSpreadError,
    UnsupportedStrategyError,
)
from .infometrics import (
    EntropyReport,
    NonUniformity,
    beta_profile,
    entropy_report,
    l2_distance_to_uniform,
    min_entropy,
    non_uniformity_factor,
    profiles_from_distribution,
    renyi_entropy,
    shannon_entropy,
    shannon_profile,
)
from .rates import (
    RateReport,
    ScanContext,
    alpha_for,
    alpha_rs,
    code_red_alpha_per_second,
    collision_probability,
    ipv6_alpha,
    pp_min_deployment,
    pp_modified_alpha,
    pp_requirement,
    rate_table,
    write_rates_csv,
)
from .strategies import ScannerState, ScanStrategy, group_scan_distribution, parse_strategy

__all__ = [
    "__version__",
    "CcdfPoint", "GroupDistribution", "HostListResult", "HostSet",
    "aggregate", "ccdf", "load_host_list", "materialize_hosts",
    "parse_host_list", "refine", "save_host_list", "synth_uniform",
    "synth_zipf", "write_ccdf_csv",
    "EarlyStageConfig", "EarlyStageResult", "EpidemicConfig", "EpidemicTrace",
    "estimate_infection_rate", "estimate_mss_full", "propagate", "time_to_fraction",
    "CapacityError", "DistributionFormatError", "HostListParseError",
    "InternalConsistencyError", "ParameterError", "ScanSpreadError",
    "UnsupportedStrategyError",
    "EntropyReport", "NonUniformity", "beta_profile", "entropy_report",
    "l2_distance_to_uniform", "min_entropy", "non_uniformity_factor",
    "profiles_from_distribution", "renyi_entropy", "shannon_entropy",
    "shannon_profile",
    "RateReport", "ScanContext", "alpha_for", "alpha_rs",
    "code_red_alpha_per_second", "collision_probability", "ipv6_alpha",
    "pp_min_deployment", "pp_modified_alpha", "pp_requirement", "rate_table",
    "write_rates_csv",
    "ScannerState", "ScanStrategy", "group_scan_distribution", "parse_strategy",
]
