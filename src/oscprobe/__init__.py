"""Qubit-probed damped harmonic oscillator.

Closed-form propagation of the qubit-conditioned oscillator blocks, fidelity
and purity measures, a truncated number-basis oracle, and parameter
estimation from coherence records.

Exports load lazily, so `import oscprobe` imports no numpy. Each name is read
from its submodule on every access and never copied here.
"""

import importlib
import os

__version__ = "0.1.0"

# submodule -> the names it exports
_EXPORTS = {
    "errors": ("ConfigError", "DegenerateInputError", "OscprobeError",
               "TruncationLeakError", "ValidationError"),
    "estimate": ("CoherenceSeries", "EstimateReport", "fit_parameters",
                 "log_derivative_model", "neg_log_fidelity_model",
                 "synthesize_series"),
    "fidelity": ("fidelity_gen_asymptotic_rate", "fidelity_generalized",
                 "fidelity_uj_blocks", "fidelity_uj_gaussian",
                 "fidelity_uj_limit", "purity_oscillator", "purity_qubit"),
    "fock": ("BlockDensityMatrix", "OracleConfig", "compare_point",
             "default_dim", "displaced_thermal_block", "evolve_thermal_blocks",
             "reduced_quantities", "sample_comparison_points",
             "uhlmann_fidelity"),
    "phase_space": ("Covariance2", "GaussianState", "PhaseVector",
                    "QubitInitState", "SystemParams",
                    "occupation_from_temperature", "wigner_eval"),
    "propagator": ("coherence_trace", "diag_block_gaussians",
                   "displacement_vector", "fundamental_matrix",
                   "reduced_wigner_grid", "wigner_lobe_centers"),
}
_OWNER = {name: f"{__name__}.{module}"
          for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        return getattr(importlib.import_module(_OWNER[name]), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _one_blas_thread() -> None:
    """One OpenBLAS thread unless a thread variable is set; call before numpy.

    Only the program calls it: no command gains from a second BLAS thread.
    """
    if not any(var in os.environ for var in _THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _console_main() -> int:
    """Entry of the `oscprobe` console script."""
    _one_blas_thread()
    from .cli import main
    return main()
