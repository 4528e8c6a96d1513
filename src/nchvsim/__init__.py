"""Desk-scale simulator and analysis toolkit for two linked optical tests
of noncontextual hidden-variable models: a three-analyzer perfect-correlation
test on a polarization/path-entangled photon pair, and an event-ready
CHSH test on the heralded single photon."""

from .errors import (
    EnumerationLimitError,
    EstimationError,
    FixtureParseError,
    SimulationError,
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
    estimate_correlation,
    sample_counts,
)
from .nchv import (
    ExpressionTerm,
    PhaseGrid,
    chsh_expression,
    classical_bound,
    expression_value,
    ghz_forcing,
    mermin_expression,
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
