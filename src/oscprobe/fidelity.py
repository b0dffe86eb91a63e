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

from .errors import ValidationError
from .phase_space import (Covariance2, GaussianState, QubitInitState,
                          SystemParams)
from .propagator import (_dsq, _evolved_covariance, _log_coherence,
                         _require_nonneg_time)


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
    return 4.0 * params.g ** 2 * k * params.N / (1.0 + k * k)


def fidelity_uj_gaussian(state1: GaussianState, state2: GaussianState) -> float:
    """Uhlmann-Jozsa fidelity between two single-mode Gaussian states."""
    s1 = state1.cov.as_matrix()
    s2 = state2.cov.as_matrix()
    ssum = s1 + s2
    mu = float(np.linalg.det(ssum))
    nu = (state1.cov.det - 0.25) * (state2.cov.det - 0.25)
    if nu < 0.0:
        # both covariances satisfy det >= 1/4 up to construction tolerance
        if nu < -1e-12:
            raise ValidationError(f"invalid covariance product nu = {nu:.3g}")
        nu = 0.0
    dx = state2.center.as_array() - state1.center.as_array()
    expo = -0.5 * dx @ np.linalg.solve(ssum, dx)
    prefactor = 1.0 / (math.sqrt(mu + 4.0 * nu) - 2.0 * math.sqrt(nu))
    return float(prefactor * math.exp(expo))


def _check_m(M: float) -> float:
    if not (math.isfinite(M) and M >= 0.5 - 1e-12):
        raise ValidationError("thermal variance M must be >= 1/2")
    return float(M)


def _thermal_blocks(t, params: SystemParams, M: float):
    """sigma_s(t) and F_UJ(t) of the two evolved blocks for a thermal start."""
    M = _check_m(M)
    ta = _require_nonneg_time(t)
    sigma_s = _evolved_covariance(ta, params, Covariance2.isotropic(M))[0]
    return sigma_s, np.exp(-_dsq(ta, params.g, params.kappa) / (4.0 * sigma_s))


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
    dsq_inf = 4.0 * params.g ** 2 / (1.0 + params.kappa ** 2)
    return math.exp(-dsq_inf / (2.0 * params.N))


def purity_qubit(t, params: SystemParams, M: float, qubit: QubitInitState):
    """Reduced qubit purity for a thermal oscillator start with variance M."""
    M = _check_m(M)
    fgen = fidelity_generalized(t, params, GaussianState.thermal(M - 0.5))
    out = qubit.a00 ** 2 + qubit.a11 ** 2 + 2.0 * abs(qubit.a01) ** 2 * fgen
    return float(out) if np.ndim(t) == 0 else out


def purity_oscillator(t, params: SystemParams, M: float, qubit: QubitInitState):
    """Reduced oscillator purity for a thermal start with variance M.

    For g = 0 this reduces to the free-thermalization purity 1/(2 sigma_s(t)),
    which stays 1 when state and bath are both in the ground state.
    """
    sigma_s, fuj = _thermal_blocks(t, params, M)
    num = qubit.a00 ** 2 + qubit.a11 ** 2 + 2.0 * qubit.a00 * qubit.a11 * fuj
    out = num / (2.0 * sigma_s)
    return float(out) if np.ndim(t) == 0 else out

