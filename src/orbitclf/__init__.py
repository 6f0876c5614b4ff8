"""RES-CLF synthesis and phase-to-state stability certification for periodic orbits."""

from .output_dynamics import OutputDims, OutputDynamics, build_fg
from .riccati import (
    CareSolveError,
    ResClfCertificate,
    care_residual,
    certificate,
    closed_form_identity_p,
    scale_epsilon,
    scaled_care_residual,
    solve_care,
    solve_lyapunov,
    sym_eig,
)
from .clf import (
    ClfConsistencyError,
    ClfEvaluation,
    clf_operator,
    evaluate_clf,
    matvec,
    membership,
    min_norm_mu,
    state_forms,
    u_s_damping,
)
from .disturbance import DisturbanceSignal, DisturbanceTable, sample, sup_norm
from .plants import (
    ConverseConstants,
    DisturbedClosedLoop,
    HopfPlant,
    MechClosedLoop,
    MechPlant,
    converse_constants,
    derive_phase_disturbance,
    mech_feedback_linearize,
    orbit_distance,
    vz_converse_lyapunov,
)
from .simulator import (
    SimulationError,
    TrajectoryRecord,
    integrate,
    rk4_step,
    ultimate_bound,
)
from .certify import (
    Check,
    check_asymptotic_gain,
    check_composite_sandwich,
    check_iss_lyapunov,
    check_zero_stability,
    choose_sigma,
    composite_bounds,
    fit_eiss_envelope,
    min_norm_ultimate_bound,
    damped_ultimate_bound,
    rejection_threshold,
    sigma_condition,
    verdict,
)

__version__ = "0.1.0"
