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

Every kernel is elementwise in t; d, |d|^2, delta, Gamma and sigma(t) also
take a `_Kernel` in place of t, so they and the fits in `estimate` share one. The
off-diagonal block's log chord `_log_offdiag` is elementwise in r = (k, s) and
t, and the coherence Tr rho_01 is its value at r = 0.

The qubit has splitting delta, the detuning (H_q = (delta/2) sigma_z; not the
integral delta(t) above), which gives the coherence the phase factor
exp(-i delta t).

All kappa -> 0 limits go through exprel-stable forms, (e^x - 1)/x computed
with numpy's expm1 (`_exprel`); no formula branching on kappa == 0.
`_float_guard` makes an overflow or 0 * inf raise ValidationError, not NaN.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ValidationError
from .phase_space import (Covariance2, GaussianState, PhaseVector,
                          QubitInitState, SystemParams, _log_chord, wigner_eval)


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


@contextlib.contextmanager
def _float_guard(what: str):
    """Raise ValidationError for a numpy overflow or invalid value; also a decorator."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as err:
        raise ValidationError(f"{what} overflows a float ({err})") from err


def _require_nonneg_time(t) -> np.ndarray:
    ta = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(ta)):
        raise ValidationError("t must be finite")
    if np.any(ta < 0.0):
        raise ValidationError("t must be >= 0 for propagation quantities")
    return ta


class _Kernel:
    """The terms d, |d|^2, delta, Gamma and sigma(t) share, on one array of times.

    cos t and sin t are taken once. e = e^{-kappa t}, b = e^2 - 2 e cos t + 1,
    s = sin t - kappa cos t and cterm = kappa + e s are kept for the last kappa
    only; the delta bracket, and the exprel(-2 kappa t) it reads, are built on
    first request.
    """

    def __init__(self, t):
        self.t = np.asarray(t, dtype=float)
        self.cos, self.sin = np.cos(self.t), np.sin(self.t)
        self.kappa = None

    def __call__(self, kappa: float) -> _Kernel:
        if kappa != self.kappa:
            e = np.exp(-kappa * self.t)
            self.e, self.s = e, self.sin - kappa * self.cos
            self.b = e * e - 2.0 * e * self.cos + 1.0
            self.cterm = kappa + e * self.s
            self.kappa, self._bracket = kappa, None
        return self

    def bracket(self):
        """(1 + k^2) delta / (4 g^2); t exprel(-2kt) = (1 - e^{-2kt}) / (2k)."""
        if self._bracket is None:
            t, k = self.t, self.kappa
            self.exprel = _exprel(-2.0 * k * t)
            self._bracket = t * self.exprel - 2.0 * self.cterm / (1.0 + k * k) + t
        return self._bracket


def _kernel(t, kappa: float) -> _Kernel:
    """The _Kernel of t at kappa; t is an array of times or a _Kernel on one."""
    return (t if isinstance(t, _Kernel) else _Kernel(t))(kappa)


def _d_components(t, g: float, kappa: float):
    """Components (d1, d2) of the Gaussian center separation d(t)."""
    c = 2.0 * g / (1.0 + kappa * kappa)
    kern = _kernel(t, kappa)
    return c * (1.0 - kern.e * (kern.cos + kappa * kern.sin)), c * kern.cterm


def _dsq(t, g: float, kappa: float):
    """|d(t)|^2 in closed form."""
    return 4.0 * g * g / (1.0 + kappa * kappa) * _kernel(t, kappa).b


def _dsq_prime(t, g: float, kappa: float):
    """d/dt of |d(t)|^2; vanishes at t = 0."""
    kern = _kernel(t, kappa)
    e = kern.e
    return (4.0 * g * g / (1.0 + kappa * kappa)
            * (-2.0 * kappa * e * e + 2.0 * kappa * e * kern.cos + 2.0 * e * kern.sin))


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
    return 4.0 * g * g / (1.0 + kappa * kappa) * _kernel(t, kappa).bracket()


def _gamma_components(t, g: float, kappa: float):
    """Components of Gamma(t) = 2 int_0^t R^T(-t') eta(t') dt' in closed form."""
    c = 2.0 * g / (1.0 + kappa * kappa)
    kern = _kernel(t, kappa)
    return (-c * kern.b, c * (2.0 * kern.t * _exprel(-2.0 * kappa * kern.t)
                              - 2.0 * kern.e * kern.sin))


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
    kern = _kernel(t, params.kappa)
    a = _alpha(kern.t, params.kappa, params.nbar)
    e, c, s = kern.e * kern.e, kern.cos, kern.sin
    s11, s12, s22 = sigma0.s11, sigma0.s12, sigma0.s22
    return (a + e * (s11 * c * c + 2.0 * s12 * c * s + s22 * s * s),
            e * ((s22 - s11) * c * s + s12 * (c * c - s * s)),
            a + e * (s11 * s * s - 2.0 * s12 * c * s + s22 * c * c))


def _log_offdiag(k, s, t, params: SystemParams, init: GaussianState):
    """The off-diagonal block's log chord at r = (k, s), elementwise in k, s, t:

    ln w0(R(-t) r + eta) - i delta t - gamma_plus delta(t)/2 - alpha |r|^2/2
    - gamma_plus Gamma.r/2, w0 the start's chord, R(-t) = e^{-kappa t} [[cos t,
    -sin t], [sin t, cos t]]; no matmul, which rounds a point unlike an array.
    """
    kern, g, kappa = _Kernel(t)(params.kappa), params.g, params.kappa
    ec, es = kern.e * kern.cos, kern.e * kern.sin
    e1, e2 = _eta_components(kern, g, kappa)
    out = (_log_chord(init, ec * k - es * s + e1, es * k + ec * s + e2)
           - 1j * params.delta * t - 0.5 * params.gamma_plus * _delta(kern, g, kappa))
    if np.any(k) or np.any(s):  # the r terms: zero at r = 0, where alpha may overflow
        g1, g2 = _gamma_components(kern, g, kappa)
        out = out - 0.5 * (_alpha(kern.t, kappa, params.nbar) * (k * k + s * s)
                           + params.gamma_plus * (g1 * k + g2 * s))
    return out


@_float_guard("the coherence")
def _log_coherence(t, params: SystemParams, init: GaussianState):
    """ln Tr rho_01(t), the off-diagonal chord at r = 0; Re is ln F_gen / 2."""
    return _log_offdiag(0.0, 0.0, t, params, init)


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
    t = float(_require_nonneg_time(t))
    rm = fundamental_matrix(-t, params.kappa)
    x0 = rm.T @ init.center.as_array()
    d1, d2 = _d_components(t, params.g, params.kappa)
    half_d = 0.5 * np.array([d1, d2])
    cov = Covariance2(*(float(v) for v in _evolved_covariance(t, params, init.cov)))
    up = GaussianState(PhaseVector.from_array(x0 - half_d), cov)
    down = GaussianState(PhaseVector.from_array(x0 + half_d), cov)
    return up, down


@_float_guard("the Wigner grid")
def reduced_wigner_grid(qs, ps, t: float, params: SystemParams,
                        init: GaussianState, qubit: QubitInitState) -> np.ndarray:
    """Reduced Wigner function on a rectangular grid.

    Returns W with shape (len(ps), len(qs)), W[j, i] = W(qs[i], ps[j]); a
    C-order flatten therefore runs with q varying fastest.
    """
    up, down = diag_block_gaussians(t, params, init)
    pts = np.stack(np.meshgrid(qs, ps), axis=-1)
    return qubit.a00 * wigner_eval(up, pts) + qubit.a11 * wigner_eval(down, pts)


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


def wigner_lobe_centers(qs, ps, w) -> tuple[np.ndarray, np.ndarray]:
    """Centers of the two mixture lobes of a reduced Wigner grid.

    The reduced state is a two-component Gaussian mixture whose centers sit
    symmetrically around the origin (the freely evolved center of a thermal
    start). Finds the global peak, reflects it through the origin, refines
    both by local quadratic interpolation of ln w. For a merged single lobe
    both returns coincide.
    w is indexed as w[j, i] = W(qs[i], ps[j]).
    """
    qs = np.asarray(qs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    w = np.asarray(w, dtype=float)
    j1, i1 = np.unravel_index(int(np.argmax(w)), w.shape)
    peak1 = _refine_peak(qs, ps, w, j1, i1)
    guess = -peak1
    # local search window of +-1 phase-space unit around the mirror point
    isel = np.where(np.abs(qs - guess[0]) <= 1.0)[0]
    jsel = np.where(np.abs(ps - guess[1]) <= 1.0)[0]
    if isel.size == 0 or jsel.size == 0:
        return peak1, peak1.copy()
    sub = w[np.ix_(jsel, isel)]
    j2, i2 = np.unravel_index(int(np.argmax(sub)), sub.shape)
    peak2 = _refine_peak(qs, ps, w, jsel[j2], isel[i2])
    return peak1, peak2
