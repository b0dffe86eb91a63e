"""Closed-form propagation of the qubit-conditioned oscillator blocks.

A qubit coupled to a damped oscillator through sigma_z * x splits the joint
density matrix into oscillator blocks: rho_00 and rho_11 evolve under the
oscillator Hamiltonian displaced by +g x and -g x respectively (plus thermal
damping), while rho_01 evolves under the non-Hermitian pair. In chord
coordinates every block stays Gaussian-times-exponential, and the full time
dependence reduces to these kernels:

    R(t)     = e^{kappa t} [[cos t, sin t], [-sin t, cos t]]  (fundamental matrix)
    d(t)     = center separation of the two conditional Gaussians
    eta(t)   = -(d2, d1), the chord-space image of d(t)
    alpha(t) = (nbar + 1/2)(1 - e^{-2 kappa t}), accumulated thermal noise
    delta(t) = int_0^t |eta(t')|^2 dt'
    Gamma(t) = 2 int_0^t R^T(-t') eta(t') dt'

Every kernel is elementwise in t, so each observable is read over a whole
array of times at once. The qubit has splitting delta, the detuning
(H_q = (delta/2) sigma_z; not the integral delta(t) above), which gives the
coherence the phase factor exp(-i delta t).

All kappa -> 0 limits go through exprel-stable forms, (e^x - 1)/x computed
with numpy's expm1 (`_exprel`); no formula branching on kappa == 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .phase_space import (Covariance2, GaussianState, PhaseVector,
                          QubitInitState, SystemParams, as_vec2, chord_eval,
                          wigner_eval)


def fundamental_matrix(t: float, kappa: float) -> np.ndarray:
    """Fundamental matrix R(t) of the damped-rotation characteristics; any real t."""
    if not math.isfinite(t):
        raise ValidationError("t must be finite")
    try:
        scale = math.exp(kappa * t)
    except OverflowError as err:
        raise ValidationError(
            f"e^(kappa t) overflows at kappa t = {kappa * t:.6g}") from err
    c, s = math.cos(t), math.sin(t)
    return scale * np.array([[c, s], [-s, c]])


def _require_nonneg_time(t) -> np.ndarray:
    ta = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(ta)):
        raise ValidationError("t must be finite")
    if np.any(ta < 0.0):
        raise ValidationError("t must be >= 0 for propagation quantities")
    return ta


def _d_components(t, g: float, kappa: float):
    """Components (d1, d2) of the Gaussian center separation d(t)."""
    c = 2.0 * g / (1.0 + kappa * kappa)
    e = np.exp(-kappa * t)
    d1 = c * (1.0 - e * (np.cos(t) + kappa * np.sin(t)))
    d2 = c * (kappa + e * (np.sin(t) - kappa * np.cos(t)))
    return d1, d2


def _dsq(t, g: float, kappa: float):
    """|d(t)|^2 in closed form."""
    e = np.exp(-kappa * t)
    b = e * e - 2.0 * e * np.cos(t) + 1.0
    return 4.0 * g * g / (1.0 + kappa * kappa) * b


def _dsq_prime(t, g: float, kappa: float):
    """d/dt of |d(t)|^2; vanishes at t = 0."""
    e = np.exp(-kappa * t)
    return (4.0 * g * g / (1.0 + kappa * kappa)
            * (-2.0 * kappa * e * e + 2.0 * kappa * e * np.cos(t)
               + 2.0 * e * np.sin(t)))


def _exprel(x):
    """(e^x - 1)/x elementwise, 1 where |x| < machine epsilon.

    The same kernel as scipy.special.exprel, on numpy's expm1.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < np.finfo(float).eps
    return np.where(small, 1.0, np.expm1(x) / np.where(small, 1.0, x))[()]


def _alpha(t, kappa: float, nbar: float):
    """Accumulated thermal-noise variance alpha(t) = (nbar+1/2)(1 - e^{-2 kappa t})."""
    # (1 - e^{-2kt}) = 2kt * exprel(-2kt), stable for kappa -> 0
    return (nbar + 0.5) * 2.0 * kappa * t * _exprel(-2.0 * kappa * np.asarray(t))


def _delta(t, g: float, kappa: float):
    """delta(t) = int_0^t |d(t')|^2 dt' in closed form."""
    u1 = 1.0 + kappa * kappa
    ta = np.asarray(t, dtype=float)
    a1 = ta * _exprel(-2.0 * kappa * ta)  # (1 - e^{-2kt}) / (2k)
    e = np.exp(-kappa * ta)
    cterm = kappa + e * (np.sin(ta) - kappa * np.cos(ta))
    return 4.0 * g * g / u1 * (a1 - 2.0 * cterm / u1 + ta)


def _gamma_components(t, g: float, kappa: float):
    """Components of Gamma(t) = 2 int_0^t R^T(-t') eta(t') dt' in closed form."""
    c = 2.0 * g / (1.0 + kappa * kappa)
    ta = np.asarray(t, dtype=float)
    e = np.exp(-kappa * ta)
    g1 = -c * (1.0 - 2.0 * e * np.cos(ta) + e * e)
    g2 = c * (2.0 * ta * _exprel(-2.0 * kappa * ta) - 2.0 * e * np.sin(ta))
    return g1, g2


def _eta_components(t, g: float, kappa: float):
    """eta(t) = -(d2(t), d1(t))."""
    d1, d2 = _d_components(t, g, kappa)
    return -d2, -d1


def displacement_vector(t: float, params: SystemParams) -> PhaseVector:
    """Center separation d(t) of the two conditional Gaussians, for t >= 0."""
    _require_nonneg_time(t)
    d1, d2 = _d_components(float(t), params.g, params.kappa)
    return PhaseVector(float(d1), float(d2))


def _evolved_covariance(t, params: SystemParams, sigma0: Covariance2):
    """(s11, s12, s22) of sigma(t) = alpha I + R^T(-t) sigma0 R(-t), elementwise in t.

    Written as alpha I + e^{-2 kappa t} Rot^T sigma0 Rot, Rot = [[c, -s], [s, c]].
    """
    a = _alpha(t, params.kappa, params.nbar)
    e = np.exp(-2.0 * params.kappa * t)
    c, s = np.cos(t), np.sin(t)
    s11, s12, s22 = sigma0.s11, sigma0.s12, sigma0.s22
    return (a + e * (s11 * c * c + 2.0 * s12 * c * s + s22 * s * s),
            e * ((s22 - s11) * c * s + s12 * (c * c - s * s)),
            a + e * (s11 * s * s - 2.0 * s12 * c * s + s22 * c * c))


def _log_coherence(t, params: SystemParams, init: GaussianState):
    """ln Tr rho_01(t), elementwise in t; the real part is ln F_gen(t) / 2.

    ln Tr rho_01 = i x0.eta - eta^T sigma0 eta/2 - i delta t - gamma_plus delta(t)/2
    """
    e1, e2 = _eta_components(t, params.g, params.kappa)
    cov, x0 = init.cov, init.center
    quad = cov.s11 * e1 * e1 + 2.0 * cov.s12 * e1 * e2 + cov.s22 * e2 * e2
    return (-0.5 * quad - 0.5 * params.gamma_plus * _delta(t, params.g, params.kappa)
            + 1j * (x0.x1 * e1 + x0.x2 * e2 - params.delta * t))


def chord_block_diag(r, t: float, params: SystemParams, init: GaussianState,
                     sign: int) -> complex:
    """Chord function of a diagonal block at chord point r and time t >= 0.

    sign = +1 selects the qubit-up block (coupling +g, chord factor
    exp(-i d.r / 2)); sign = -1 the qubit-down block (coupling -g).
    """
    if sign not in (1, -1):
        raise ValidationError("sign must be +1 or -1")
    _require_nonneg_time(t)
    rv = as_vec2(r)
    t = float(t)
    rm = fundamental_matrix(-t, params.kappa)
    w0 = chord_eval(init, rm @ rv)
    d1, d2 = _d_components(t, params.g, params.kappa)
    a = float(_alpha(t, params.kappa, params.nbar))
    phase = -0.5j * sign * (d1 * rv[0] + d2 * rv[1])
    return complex(w0 * np.exp(phase - 0.5 * a * (rv @ rv)))


def chord_block_offdiag(r, t: float, params: SystemParams,
                        init: GaussianState) -> complex:
    """Chord function of the off-diagonal block (unit initial trace) at time t >= 0."""
    _require_nonneg_time(t)
    rv = as_vec2(r)
    t = float(t)
    rm = fundamental_matrix(-t, params.kappa)
    e1, e2 = _eta_components(t, params.g, params.kappa)
    w0 = chord_eval(init, rm @ rv + np.array([e1, e2]))
    a = float(_alpha(t, params.kappa, params.nbar))
    g1, g2 = _gamma_components(t, params.g, params.kappa)
    gam = params.gamma_plus
    expo = (-0.5 * a * (rv @ rv)
            - 0.5 * gam * (g1 * rv[0] + g2 * rv[1])
            - 1j * params.delta * t
            - 0.5 * gam * float(_delta(t, params.g, params.kappa)))
    return complex(w0 * np.exp(expo))


def coherence_trace(t, params: SystemParams, init: GaussianState):
    """Trace of the off-diagonal block (initially unit trace) at times t >= 0.

    Accepts a scalar or array t and returns a complex or a complex array.
    """
    out = np.exp(_log_coherence(_require_nonneg_time(t), params, init))
    return complex(out) if np.ndim(t) == 0 else out


def diag_block_gaussians(t: float, params: SystemParams,
                         init: GaussianState) -> tuple[GaussianState, GaussianState]:
    """Evolved Gaussian states of the two diagonal blocks at time t >= 0.

    Returns (qubit-up component, qubit-down component), centered at
    R^T(-t) x0 -/+ d(t)/2; the qubit-up block sits at -d/2 (its coupling +g x
    pulls the oscillator toward x = -g). Both share the same covariance.
    """
    _require_nonneg_time(t)
    t = float(t)
    rm = fundamental_matrix(-t, params.kappa)
    x0 = rm.T @ init.center.as_array()
    d1, d2 = _d_components(t, params.g, params.kappa)
    half_d = 0.5 * np.array([d1, d2])
    cov = Covariance2(*(float(v) for v in _evolved_covariance(t, params, init.cov)))
    up = GaussianState(PhaseVector.from_array(x0 - half_d), cov)
    down = GaussianState(PhaseVector.from_array(x0 + half_d), cov)
    return up, down


def reduced_wigner(x, t: float, params: SystemParams, init: GaussianState,
                   qubit: QubitInitState) -> float:
    """Reduced oscillator Wigner function at phase-space point x and time t >= 0."""
    up, down = diag_block_gaussians(t, params, init)
    return qubit.a00 * wigner_eval(up, x) + qubit.a11 * wigner_eval(down, x)


def reduced_wigner_grid(qs, ps, t: float, params: SystemParams,
                        init: GaussianState, qubit: QubitInitState) -> np.ndarray:
    """Reduced Wigner function on a rectangular grid.

    Returns W with shape (len(ps), len(qs)), W[j, i] = W(qs[i], ps[j]); a
    C-order flatten therefore runs with q varying fastest.
    """
    up, down = diag_block_gaussians(t, params, init)
    qq, pp = np.meshgrid(np.asarray(qs, dtype=float), np.asarray(ps, dtype=float))
    out = np.zeros_like(qq)
    for weight, state in ((qubit.a00, up), (qubit.a11, down)):
        dx = qq - state.center.x1
        dp = pp - state.center.x2
        inv = state.cov.inverse()
        quad = inv[0, 0] * dx * dx + 2.0 * inv[0, 1] * dx * dp + inv[1, 1] * dp * dp
        out += weight * np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(state.cov.det))
    return out


def _refine_peak(qs, ps, w, j: int, i: int) -> np.ndarray:
    """Sub-grid peak location by quadratic interpolation of ln w per axis."""
    j = min(max(j, 1), len(ps) - 2)
    i = min(max(i, 1), len(qs) - 2)
    lw = np.log(np.maximum(w, 1e-300))

    def vertex(fm, f0, fp, coord, step):
        denom = fm - 2.0 * f0 + fp
        if denom >= 0.0:
            return coord
        return coord + 0.5 * (fm - fp) / denom * step

    q = vertex(lw[j, i - 1], lw[j, i], lw[j, i + 1], qs[i], qs[i + 1] - qs[i])
    p = vertex(lw[j - 1, i], lw[j, i], lw[j + 1, i], ps[j], ps[j + 1] - ps[j])
    return np.array([q, p])


def wigner_lobe_centers(qs, ps, w, mid=(0.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
    """Centers of the two mixture lobes of a reduced Wigner grid.

    The reduced state is a two-component Gaussian mixture whose centers sit
    symmetrically around `mid` (the freely evolved initial center). Finds the
    global peak, reflects it through mid, refines both by local quadratic
    interpolation of ln w. For a merged single lobe both returns coincide.
    w is indexed as w[j, i] = W(qs[i], ps[j]).
    """
    qs = np.asarray(qs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    w = np.asarray(w, dtype=float)
    j1, i1 = np.unravel_index(int(np.argmax(w)), w.shape)
    peak1 = _refine_peak(qs, ps, w, j1, i1)
    guess = 2.0 * np.asarray(mid, dtype=float) - peak1
    # local search window of +-1 phase-space unit around the mirror point
    isel = np.where(np.abs(qs - guess[0]) <= 1.0)[0]
    jsel = np.where(np.abs(ps - guess[1]) <= 1.0)[0]
    if isel.size == 0 or jsel.size == 0:
        return peak1, peak1.copy()
    sub = w[np.ix_(jsel, isel)]
    j2, i2 = np.unravel_index(int(np.argmax(sub)), sub.shape)
    peak2 = _refine_peak(qs, ps, w, jsel[j2], isel[i2])
    return peak1, peak2
