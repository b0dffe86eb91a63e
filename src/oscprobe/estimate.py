"""Parameter estimation from qubit coherence records.

The decay of the generalized fidelity for a thermal oscillator start is

    -ln F(t) = M * |d(t)|^2 + kappa * N * delta(t)
             = g^2 [ M * D(t; kappa) + kappa * N * E(t; kappa) ]

with D = |d|^2 / g^2 and E = delta / g^2. Its exact scaling invariance
(g, M, N) -> (c g, M/c^2, N/c^2) means a single record cannot determine all
four parameters: M must be known (it labels each series), and (g, kappa, N)
are fit. Two series at distinct known M additionally allow a closed-form
split of the record into |d|^2 and the bath term kappa*N*delta before any
fitting ("two-temperature" mode).

Fits run on log-space residuals with an analytic Jacobian; positivity
constraints (kappa > 0, g > 0, N > 1) are built into softplus
reparametrizations instead of clipping. A residual evaluation computes the
model alone; the analytic Jacobian, with its kappa-derivative kernels, is
evaluated only when least_squares asks for it. The tolerances stay at
xtol = ftol = gtol = 1e-14, where the stopping point depends on the last bits
of the model, so the residual and the Jacobian path share one expression for
-ln F (`_scaled_model`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .fidelity import fidelity_generalized
from .phase_space import GaussianState, SystemParams
from .propagator import _delta, _dsq, _dsq_prime, _exprel


@dataclass(frozen=True)
class CoherenceSeries:
    """A sampled generalized-fidelity record with its thermal label M.

    M is the known initial oscillator variance (mbar + 1/2) of the record, or
    None when unknown; noise records the multiplicative noise level used to
    synthesize the data, if any.
    """

    times: np.ndarray
    fgen: np.ndarray
    M: float | None = None
    noise: float | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        f = np.asarray(self.fgen, dtype=float)
        if t.ndim != 1 or t.shape != f.shape:
            raise ValidationError("times and fgen must be 1d arrays of equal length")
        if t.size < 2:
            raise ValidationError("a series needs at least two samples")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(f)):
            raise ValidationError("times and fgen must be finite")
        if np.any(np.diff(t) <= 0.0) or t[0] < 0.0:
            raise ValidationError("times must be strictly increasing and >= 0")
        if np.any(f <= 0.0) or np.any(f > 1.0 + 1e-9):
            raise ValidationError("fidelities must lie in (0, 1]")
        if self.M is not None and not (math.isfinite(self.M) and self.M >= 0.5):
            raise ValidationError("M must be >= 1/2 when given")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "fgen", f)


@dataclass(frozen=True)
class EstimateReport:
    """Fit result: parameter values, uncertainties, and the method used.

    converged is True when least_squares stopped on one of its tolerances
    (status > 0); nfev counts its residual evaluations.
    """

    g: float
    kappa: float
    M: float
    N: float
    residual_norm: float
    std_errors: dict
    method: str
    converged: bool
    nfev: int

    @property
    def nbar(self) -> float:
        return 0.5 * (self.N - 1.0)

    @property
    def mbar(self) -> float:
        return self.M - 0.5


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on the first fit."""
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


def log_derivative_model(t, g: float, kappa: float, M: float, N: float):
    """Decay-rate observable H(t) = -d/dt ln F = M (|d|^2)' + kappa N |d|^2."""
    return M * _dsq_prime(t, g, kappa) + kappa * N * _dsq(t, g, kappa)


def neg_log_fidelity_model(t, g: float, kappa: float, M: float, N: float):
    """-ln F(t) for a thermal start with variance M."""
    return M * _dsq(t, g, kappa) + kappa * N * _delta(t, g, kappa)


def _check_pair(series1: CoherenceSeries, series2: CoherenceSeries):
    if series1.M is None or series2.M is None:
        raise DegenerateInputError("both series need a known M label")
    if series1.M == series2.M:
        raise DegenerateInputError("series must have distinct M labels")
    t1, t2 = series1.times, series2.times
    # the same grid up to roundoff of its scale; np.allclose's rtol 1e-5
    # would pass grids 1e-3 apart over long records and bias the split
    if t1.shape != t2.shape or np.max(np.abs(t1 - t2)) > 1e-12 * np.max(np.abs(t1)):
        raise DegenerateInputError("series must share the same time grid")


def extract_d2(series1: CoherenceSeries, series2: CoherenceSeries) -> np.ndarray:
    """|d(t)|^2 from two records at distinct known M (model-free elimination)."""
    _check_pair(series1, series2)
    y1 = np.log(series1.fgen)
    y2 = np.log(series2.fgen)
    return (y1 - y2) / (series2.M - series1.M)


def extract_bath_term(series1: CoherenceSeries,
                      series2: CoherenceSeries) -> np.ndarray:
    """kappa * N * delta(t) from two records at distinct known M."""
    _check_pair(series1, series2)
    y1 = np.log(series1.fgen)
    y2 = np.log(series2.fgen)
    return (series2.M * y1 - series1.M * y2) / (series1.M - series2.M)


# --- kappa-derivatives of the scaled kernels (g = 1), for the Jacobian ---


def _phi_prime(u):
    """d/du of (1 - e^{-u})/u, series-stabilized near u = 0."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    small = np.abs(u) < 1e-4
    us = u[small]
    out[small] = -0.5 + us / 3.0 - us * us / 8.0 + us ** 3 / 30.0
    ub = u[~small]
    out[~small] = (ub * np.exp(-ub) + np.expm1(-ub)) / (ub * ub)
    return out


def _dsq_scaled_dkappa(t, kappa: float):
    """d/dkappa of D(t; kappa) = |d|^2 / g^2."""
    t = np.asarray(t, dtype=float)
    u1 = 1.0 + kappa * kappa
    e = np.exp(-kappa * t)
    b = e * e - 2.0 * e * np.cos(t) + 1.0
    db = -2.0 * t * e * e + 2.0 * t * e * np.cos(t)
    return 4.0 * (db * u1 - 2.0 * kappa * b) / (u1 * u1)


def _delta_scaled_dkappa(t, kappa: float):
    """d/dkappa of E(t; kappa) = delta / g^2."""
    t = np.asarray(t, dtype=float)
    u1 = 1.0 + kappa * kappa
    e = np.exp(-kappa * t)
    u = 2.0 * kappa * t
    a1 = t * _exprel(-u)
    da1 = 2.0 * t * t * _phi_prime(u)
    cterm = kappa + e * (np.sin(t) - kappa * np.cos(t))
    dc = 1.0 - t * e * (np.sin(t) - kappa * np.cos(t)) - e * np.cos(t)
    core = a1 - 2.0 * cterm / u1 + t
    dcore = da1 - 2.0 * dc / u1 + 4.0 * kappa * cterm / (u1 * u1)
    return -8.0 * kappa * core / (u1 * u1) + 4.0 * dcore / u1


def _softplus(u):
    return np.logaddexp(0.0, u)


def _softplus_inv(x: float) -> float:
    if x <= 0.0:
        raise ValidationError("softplus inverse needs a positive argument")
    if x > 30.0:
        return x + math.log1p(-math.exp(-x))
    return math.log(math.expm1(x))


def _sigmoid(u):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(u, dtype=float)))


def _scaled_model(t, kappa: float, N: float, M: float):
    """(-ln F) / g^2 = M D + kappa N E, and the bath kernel E it used."""
    ev = _delta(t, 1.0, kappa)
    return M * _dsq(t, 1.0, kappa) + kappa * N * ev, ev


def _model(t, g: float, kappa: float, N: float, M: float):
    """-ln F at the physical (g, kappa, N) for a record of variance M."""
    return g * g * _scaled_model(t, kappa, N, M)[0]


def _model_and_jacobian(t, g: float, kappa: float, N: float, M: float):
    """-ln F and its Jacobian columns wrt the physical (g, kappa, N)."""
    core, ev = _scaled_model(t, kappa, N, M)
    ddk = _dsq_scaled_dkappa(t, kappa)
    dek = _delta_scaled_dkappa(t, kappa)
    jg = 2.0 * g * core
    jk = g * g * (M * ddk + N * ev + kappa * N * dek)
    jn = g * g * kappa * ev
    return g * g * core, jg, jk, jn


def _initial_guess(times: np.ndarray, y: np.ndarray, M: float):
    """Starting point (g0, kappa0, N0) from the shape of y = -ln F."""
    # depth of the first oscillation maximum: y(pi) ~ 16 M g^2 for small kappa
    idx = int(np.argmin(np.abs(times - math.pi)))
    y_pi = max(float(y[idx]), 1e-12)
    g0 = math.sqrt(y_pi / (16.0 * M))
    kappa0 = 0.1
    design = np.column_stack([np.ones_like(times), times])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = np.abs(y - design @ coef)
    # strict interior local maxima of the detrended record
    peaks = 1 + np.flatnonzero((resid[1:-1] > resid[:-2]) & (resid[1:-1] > resid[2:]))
    if peaks.size >= 2:
        tp = times[peaks]
        rp = np.log(np.maximum(resid[peaks], 1e-300))
        slope = np.polyfit(tp, rp, 1)[0]
        kappa0 = min(max(-slope, 1e-3), 1.0)
    return max(g0, 1e-4), kappa0, 1.5


def _fit_direct(series_list: list[CoherenceSeries]) -> EstimateReport:
    for s in series_list:
        if s.M is None:
            raise DegenerateInputError(
                "every series needs a known M label: a single record is "
                "invariant under (g, M, N) -> (c g, M/c^2, N/c^2)")
    times = np.concatenate([s.times for s in series_list])
    y = np.concatenate([-np.log(s.fgen) for s in series_list])
    m_labels = np.concatenate([np.full(s.times.shape, s.M) for s in series_list])
    m0 = series_list[0].M
    # one (selector, times, M) per distinct label; records sharing an M need
    # not be adjacent, so the selectors are masks
    groups = []
    for m in np.unique(m_labels):
        sel = m_labels == m
        groups.append((sel, times[sel], m))

    def unpack(u):
        return (float(_softplus(u[0])), float(_softplus(u[1])),
                1.0 + float(_softplus(u[2])))

    def physical_jacobian(g, k, n):
        jac = np.empty((y.size, 3))
        for sel, ts, m in groups:
            jac[sel] = np.column_stack(_model_and_jacobian(ts, g, k, n, m)[1:])
        return jac

    def residuals(u):
        g, k, n = unpack(u)
        out = np.empty_like(y)
        for sel, ts, m in groups:
            out[sel] = _model(ts, g, k, n, m) - y[sel]
        return out

    def jacobian(u):
        return physical_jacobian(*unpack(u)) * _sigmoid(np.asarray(u))[None, :]

    g0, k0, n0 = _initial_guess(series_list[0].times,
                                -np.log(series_list[0].fgen), m0)
    u0 = np.array([_softplus_inv(g0), _softplus_inv(k0), _softplus_inv(n0 - 1.0)])
    sol = least_squares(residuals, u0, jac=jacobian, xtol=1e-14, ftol=1e-14,
                        gtol=1e-14)
    g, k, n = unpack(sol.x)
    std = _std_errors(physical_jacobian(g, k, n), sol.fun)
    report_m = m0 if len({s.M for s in series_list}) == 1 else float("nan")
    return EstimateReport(
        g=g, kappa=k, M=report_m, N=n,
        residual_norm=float(np.linalg.norm(sol.fun)),
        std_errors={"g": std[0], "kappa": std[1], "N": std[2], "M": 0.0},
        method="direct-fit", converged=sol.status > 0, nfev=sol.nfev)


def _std_errors(jac: np.ndarray, resid: np.ndarray) -> np.ndarray:
    dof = max(resid.size - jac.shape[1], 1)
    s2 = float(resid @ resid) / dof
    cov = np.linalg.pinv(jac.T @ jac) * s2
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


def _fit_two_temperature(series_list: list[CoherenceSeries]) -> EstimateReport:
    if len(series_list) != 2:
        raise DegenerateInputError("two-temperature mode needs exactly two series")
    s1, s2 = series_list
    d2 = extract_d2(s1, s2)
    bath = extract_bath_term(s1, s2)
    times = s1.times

    def unpack(u):
        return float(_softplus(u[0])), float(_softplus(u[1]))

    def residuals(u):
        g, k = unpack(u)
        return g * g * _dsq(times, 1.0, k) - d2

    def jacobian(u):
        g, k = unpack(u)
        dv = _dsq(times, 1.0, k)
        jac = np.column_stack([2.0 * g * dv,
                               g * g * _dsq_scaled_dkappa(times, k)])
        return jac * _sigmoid(np.array([u[0], u[1]]))[None, :]

    y_proxy = s1.M * np.maximum(d2, 1e-12)
    g0, k0, _ = _initial_guess(times, y_proxy, s1.M)
    u0 = np.array([_softplus_inv(g0), _softplus_inv(k0)])
    sol = least_squares(residuals, u0, jac=jacobian, xtol=1e-14, ftol=1e-14,
                        gtol=1e-14)
    g, k = unpack(sol.x)
    delta_hat = g * g * _delta(times, 1.0, k)
    mask = delta_hat > 1e-3 * float(np.max(delta_hat))
    if not np.any(mask):
        raise DegenerateInputError("record too short to expose the bath term")
    n = float(np.median(bath[mask] / (k * delta_hat[mask])))
    n = max(n, 1.0)
    dv = _dsq(times, 1.0, k)
    jac_phys = np.column_stack([2.0 * g * dv, g * g * _dsq_scaled_dkappa(times, k)])
    std = _std_errors(jac_phys, sol.fun)
    return EstimateReport(
        g=g, kappa=k, M=s1.M, N=n,
        residual_norm=float(np.linalg.norm(sol.fun)),
        std_errors={"g": std[0], "kappa": std[1], "N": float("nan"), "M": 0.0},
        method="two-temperature", converged=sol.status > 0, nfev=sol.nfev)


def fit_parameters(series, mode: str = "direct-fit") -> EstimateReport:
    """Recover (g, kappa, N) from one or more coherence records.

    mode "direct-fit" jointly fits all records in log space; mode
    "two-temperature" first eliminates the model from two records at distinct
    M, fits (g, kappa) to the extracted |d|^2, and reads N off the bath term.
    Every record must carry a known M (see module docstring).
    """
    series_list = [series] if isinstance(series, CoherenceSeries) else list(series)
    if not series_list:
        raise DegenerateInputError("no input series")
    if mode == "direct-fit":
        return _fit_direct(series_list)
    if mode == "two-temperature":
        return _fit_two_temperature(series_list)
    raise ValidationError("mode must be 'direct-fit' or 'two-temperature'")


def synthesize_series(params: SystemParams, M: float, times,
                      noise: float | None = None,
                      rng: np.random.Generator | None = None) -> CoherenceSeries:
    """Generate a coherence record from the closed-form model, optionally noisy."""
    t = np.asarray(times, dtype=float)
    f = fidelity_generalized(t, params, GaussianState.thermal(M - 0.5))
    f = np.asarray(f, dtype=float)
    if noise is not None:
        if noise < 0.0:
            raise ValidationError("noise level must be >= 0")
        if rng is None:
            rng = np.random.default_rng(0)
        f = f * (1.0 + noise * rng.standard_normal(f.shape))
        f = np.maximum(f, 1e-300)
    f = np.minimum(f, 1.0)
    return CoherenceSeries(times=t, fgen=f, M=M, noise=noise)
