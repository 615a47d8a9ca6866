"""Single-atom collisional probe: stochastic trap simulation, fluorescence
synthesis, and inference of the inter-species loss coefficient.
"""

from .config import ConfigError, GridSpec, RunConfig, load_config
from .gillespie import (
    EventKind,
    ExperimentSchedule,
    PHOTON_STREAM,
    TRAJECTORY_STREAM,
    Trajectory,
    derive_seed,
    simulate_trajectory,
)
from .inference import (
    BetaFit,
    BinnedDataset,
    DEFAULT_STEADY_TOL,
    IllConditionedFitError,
    InferenceError,
    LoadingFit,
    NoSteadyBinsError,
    NrbBin,
    bin_by_nrb,
    bootstrap_stat_error,
    classify_steady_state,
    fit_beta,
    fit_loading_rate,
    propagate_systematics,
)
from .photon import (
    AtomNumberEstimate,
    DetectionCalibration,
    FluorescenceTrace,
    GaussianPeak,
    SegmentMap,
    TraceHistogram,
    build_histogram,
    estimate_staircase,
    segment_map_for,
    synthesize_counts,
)
from .physics import (
    CloudModel,
    PhysicalParams,
    RateSet,
    loading_rate,
    pair_overlap_volume,
    peak_density,
    rates,
    self_overlap_volume,
    steady_state_mean,
    transient_mean,
)
from .traceio import (
    TraceFileError,
    read_bins_csv,
    read_traces_jsonl,
    write_bins_csv,
)

__version__ = "0.1.0"
