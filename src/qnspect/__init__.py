"""Dephasing-robust amplitude control and simulated quantum noise spectroscopy."""

from .errors import (
    GridError,
    NonConvergenceError,
    ParameterError,
    UndefinedRatioError,
)
from .filterfn import (
    FilterFunctionGrid,
    HigherOrderFFGrid,
    amplitude_ff,
    amplitude_ff_integral,
    dephasing_ff,
    dephasing_ff_dc,
    higher_order_ff,
)
from .lp_reduce import AffineConstraintSet, LpOutcome, lp_max, max_violation, prune_constraints
from .noisegen import (
    SpectrumModel,
    free_induction_chi,
    psd_eval,
    sample_many,
    t2_estimate,
)
from .optimize import (
    DesignProblem,
    build_design_problem,
    objective_Iz,
    project_dephasing_robust,
    solve_design,
)
from .qsim import (
    BiasBreakdown,
    QubitPropagator,
    SurvivalTriple,
    bias_breakdown,
    error_vector_first_order,
    magnus_second_order_a1,
    overlap_amplitude,
    overlap_dephasing,
    propagate,
    survival_probabilities,
    tomographic_estimator,
)
from .slepian import DpssSet, dpss, spectral_concentration
from .spectro import OverlapMatrix, ReconstructionResult, nnls, overlap_matrix, reconstruct
from .waveform import (
    PiecewiseConstantWaveform,
    WaveformCoefficients,
    bessel_j0_roots,
    dephasing_robust,
    modulated_dpss_waveform,
    root_index_for_peak_rate,
    rotation_angle,
    synthesize,
)

__version__ = "0.1.0"
