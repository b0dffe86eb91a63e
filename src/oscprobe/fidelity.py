"""Fidelity and purity measures built on the closed-form block propagation.

Two notions of closeness between the conditional oscillator states:

  * generalized fidelity F_gen(t) = |Tr rho_01(t)|^2, the squared qubit
    coherence trace (an echo-type measure; insensitive to detuning phase);
  * Uhlmann-Jozsa fidelity F_UJ(t) between the two evolved diagonal-block
    Gaussians, via the closed form for single-mode Gaussian states.

For a thermal start (covariance M * identity) the evolved blocks stay
isotropic with the scalar variance

    sigma_s(t) = (nbar + 1/2) + (M - nbar - 1/2) e^{-2 kappa t},

which interpolates from M to the bath equilibrium value nbar + 1/2, and

    F_UJ(t) = exp(-|d(t)|^2 / (4 sigma_s(t))).

Every formula here reads the elementwise kernels of `propagator` over
arrays of t.
"""

from __future__ import annotations

import math

import numpy as np

from .phase_space import (Covariance2, GaussianState, PhaseVector,
                          QubitInitState, SystemParams)
from .propagator import (_dsq, _evolved_covariance, _float_guard, _Kernel,
                         _log_coherence, _require_nonneg_time)


def fidelity_generalized(t, params: SystemParams, init: GaussianState):
    """F_gen(t) = |Tr rho_01(t)|^2 for a Gaussian initial oscillator state.

    Accepts a scalar or array t >= 0 and returns a matching float/array.
    """
    ta = _require_nonneg_time(t)
    out = np.exp(2.0 * _log_coherence(ta, params, init).real)
    return float(out) if np.ndim(t) == 0 else out


def fidelity_gen_asymptotic_rate(params: SystemParams) -> float:
    """Long-time decay rate of -ln F_gen: 4 g^2 kappa (2 nbar + 1)/(1 + kappa^2).

    Zero for kappa = 0 (the undamped limit decays only quasi-periodically).
    """
    k = params.kappa
    return 4.0 * params.g * params.g * k * params.N / (1.0 + k * k)


def fidelity_uj_gaussian(state1: GaussianState, state2: GaussianState) -> float:
    """Uhlmann-Jozsa fidelity between two single-mode Gaussian states; each
    det - 1/4 is clamped at 0, since a det may sit DET_COV_TOL below 1/4."""
    ssum = state1.cov.as_matrix() + state2.cov.as_matrix()
    mu = float(np.linalg.det(ssum))
    nu = max(state1.cov.det - 0.25, 0.0) * max(state2.cov.det - 0.25, 0.0)
    dx = state2.center.as_array() - state1.center.as_array()
    expo = -0.5 * dx @ np.linalg.solve(ssum, dx)
    prefactor = 1.0 / (math.sqrt(mu + 4.0 * nu) - 2.0 * math.sqrt(nu))
    return float(prefactor * math.exp(expo))


@_float_guard("the block fidelity")
def _thermal_blocks(t, params: SystemParams, M: float):
    """sigma_s(t) and F_UJ(t) of the two evolved blocks for a thermal start."""
    cov = Covariance2.isotropic(M)  # refuses an M not finite or below 1/2
    kern = _Kernel(_require_nonneg_time(t))(params.kappa)
    sigma_s = _evolved_covariance(kern, params, cov)[0]
    return sigma_s, np.exp(-_dsq(kern, params.g, params.kappa) / (4.0 * sigma_s))


def fidelity_uj_blocks(t, params: SystemParams, M: float):
    """F_UJ(t) between the two diagonal blocks for a thermal start with variance M.

    Accepts scalar or array t >= 0. Agrees with fidelity_uj_gaussian applied
    to the evolved block Gaussians (the prefactor is exactly 1 for equal
    covariances).
    """
    out = _thermal_blocks(t, params, M)[1]
    return float(out) if np.ndim(t) == 0 else out


def fidelity_uj_limit(params: SystemParams) -> float:
    """t -> infinity value of fidelity_uj_blocks (independent of M)."""
    dsq_inf = 4.0 * params.g * params.g / (1.0 + params.kappa * params.kappa)
    return math.exp(-dsq_inf / (2.0 * params.N))


def purity_qubit(t, params: SystemParams, M: float, qubit: QubitInitState):
    """Reduced qubit purity for a thermal oscillator start with variance M."""
    init = GaussianState(PhaseVector(0.0, 0.0), Covariance2.isotropic(M))
    return _curve_columns(t, params, init, qubit)["purity_qubit"]


def purity_oscillator(t, params: SystemParams, M: float, qubit: QubitInitState):
    """Reduced oscillator purity for a thermal start with variance M.

    For g = 0 this reduces to the free-thermalization purity 1/(2 sigma_s(t)),
    which stays 1 when state and bath are both in the ground state.
    """
    init = GaussianState(PhaseVector(0.0, 0.0), Covariance2.isotropic(M))
    return _curve_columns(t, params, init, qubit)["purity_oscillator"]


def _curve_columns(t, params: SystemParams, init: GaussianState,
                   qubit: QubitInitState) -> dict:
    """fgen, fuj and both purities at t: the closed forms records and oracle read.

    Each is evaluated here once. Both supported starts are isotropic, M = s11.
    """
    fgen = fidelity_generalized(t, params, init)
    sigma_s, fuj = _thermal_blocks(t, params, init.cov.s11)
    diag = qubit.a00 ** 2 + qubit.a11 ** 2
    cols = {"fgen": fgen, "fuj": fuj,
            "purity_qubit": diag + 2.0 * abs(qubit.a01) ** 2 * fgen,
            "purity_oscillator": (diag + 2.0 * qubit.a00 * qubit.a11 * fuj)
            / (2.0 * sigma_s)}
    return {k: float(v) for k, v in cols.items()} if np.ndim(t) == 0 else cols
