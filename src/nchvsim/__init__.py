"""Desk-scale simulator and analysis toolkit for two linked optical tests
of noncontextual hidden-variable models: a three-analyzer perfect-correlation
test on a polarization/path-entangled photon pair, and an event-ready
CHSH test on the heralded single photon."""

from .errors import (
    EnumerationLimitError,
    EstimationError,
    FixtureParseError,
    SimulationError,
    StructureError,
    ValidationError,
)
from .experiment import (
    Outcome,
    PAIR_OUTCOMES,
    PhaseSetting,
    TRIPLE_OUTCOMES,
    correlation_qm2,
    correlation_qm3,
    eventready_state,
    joint_probability,
    joint_probability_closed_form,
)
from .montecarlo import (
    CoincidenceCounts,
    CorrelationEstimate,
    NoiseModel,
    estimate_correlation_exp1,
    estimate_correlation_exp2,
    noisy_probability,
    propagate_error,
    sample_counts,
)
from .nchv import (
    DETECTION_EFFICIENCY_THRESHOLD,
    Ensemble,
    HiddenAssignment,
    PhaseGrid,
    chsh_expression,
    chsh_value,
    classical_bound,
    correlation_nchv2,
    correlation_nchv3,
    ghz_forcing,
    mermin_expression,
    mermin_value,
    nchv_lower_bound,
)
from .reports import (
    Report,
    RunConfig,
    replay,
    run_exp1_report,
    run_exp2_report,
    scan_phase,
    threshold_study,
)

__version__ = "0.1.0"
