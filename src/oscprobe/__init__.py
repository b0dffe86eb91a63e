"""Qubit-probed damped harmonic oscillator.

Closed-form propagation of the qubit-conditioned oscillator blocks, fidelity
and purity measures, a truncated number-basis oracle, and parameter
estimation from coherence records.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DegenerateInputError, OscprobeError,
                     TruncationLeakError, ValidationError)
from .estimate import (CoherenceSeries, EstimateReport, extract_bath_term,
                       extract_d2, fit_parameters, log_derivative_model,
                       neg_log_fidelity_model, synthesize_series)
from .fidelity import (fidelity_gen_asymptotic_rate, fidelity_generalized,
                       fidelity_uj_blocks, fidelity_uj_gaussian,
                       fidelity_uj_limit, purity_oscillator, purity_qubit)
from .fock import (BlockDensityMatrix, OracleConfig, build_operators,
                   chord_from_matrix, chord_grid_from_matrix, coherent_block,
                   compare_point, default_dim, displaced_thermal_block,
                   evolve_block, evolve_thermal_blocks, reduced_quantities,
                   sample_comparison_points, thermal_block, uhlmann_fidelity,
                   wigner_grid_from_matrix)
from .phase_space import (Covariance2, GaussianState, PhaseVector,
                          QubitInitState, SystemParams, chord_eval,
                          occupation_from_temperature, wigner_eval)
from .propagator import (chord_block_diag, chord_block_offdiag,
                         coherence_trace, diag_block_gaussians,
                         displacement_vector, fundamental_matrix,
                         reduced_wigner, reduced_wigner_grid,
                         wigner_lobe_centers)

__all__ = [
    "BlockDensityMatrix", "CoherenceSeries", "ConfigError", "Covariance2",
    "DegenerateInputError", "EstimateReport", "GaussianState", "OracleConfig",
    "OscprobeError", "PhaseVector", "QubitInitState", "SystemParams",
    "TruncationLeakError", "ValidationError", "build_operators",
    "chord_block_diag", "chord_block_offdiag", "chord_eval",
    "chord_from_matrix", "chord_grid_from_matrix", "coherence_trace",
    "coherent_block", "compare_point", "default_dim", "diag_block_gaussians",
    "displaced_thermal_block", "displacement_vector", "evolve_block",
    "evolve_thermal_blocks", "extract_bath_term", "extract_d2",
    "fidelity_gen_asymptotic_rate", "fidelity_generalized",
    "fidelity_uj_blocks", "fidelity_uj_gaussian", "fidelity_uj_limit",
    "fit_parameters", "fundamental_matrix",
    "log_derivative_model", "neg_log_fidelity_model",
    "occupation_from_temperature", "purity_oscillator", "purity_qubit",
    "reduced_quantities", "reduced_wigner", "reduced_wigner_grid",
    "sample_comparison_points", "synthesize_series", "thermal_block",
    "uhlmann_fidelity", "wigner_eval", "wigner_grid_from_matrix",
    "wigner_lobe_centers",
]
