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

Both modes run one least-squares solve (`_solve`) over x = floor + softplus(u),
which keeps g, kappa > 0 and N > 1. The direct fit evaluates -ln F once over
all records, with one M label per sample. Each fit reads D and E off one
`propagator._Kernel` on its time grid: two-temperature residuals read D alone,
and the kappa-derivatives run only for the Jacobian. At xtol = ftol = gtol =
1e-14 the stopping point depends on the last bits of the model, so D and E
keep the prefactor order of `_dsq(t, 1.0, kappa)` and `_delta(t, 1.0, kappa)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .fidelity import fidelity_generalized
from .phase_space import GaussianState, SystemParams
from .propagator import _dsq, _dsq_prime, _Kernel


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
        if self.noise is not None and not (math.isfinite(self.noise)
                                           and self.noise >= 0.0):
            raise ValidationError("noise level must be finite and >= 0")
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


def neg_log_fidelity_model(t, g: float, kappa: float, M, N: float):
    """-ln F(t) for a thermal start with variance M (a scalar or one per t)."""
    return g * g * _model(_Kernel(t), kappa, M, N)[0]


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


def _split(series1: CoherenceSeries, series2: CoherenceSeries):
    """|d(t)|^2 and kappa * N * delta(t); checks the pair and takes each log once."""
    _check_pair(series1, series2)
    y1, y2, m1, m2 = np.log(series1.fgen), np.log(series2.fgen), series1.M, series2.M
    return (y1 - y2) / (m2 - m1), (m2 * y1 - m1 * y2) / (m1 - m2)


def extract_d2(series1: CoherenceSeries, series2: CoherenceSeries) -> np.ndarray:
    """|d(t)|^2 from two records at distinct known M (model-free elimination)."""
    return _split(series1, series2)[0]


def extract_bath_term(series1: CoherenceSeries,
                      series2: CoherenceSeries) -> np.ndarray:
    """kappa * N * delta(t) from two records at distinct known M."""
    return _split(series1, series2)[1]


def _dsq_unit(kern: _Kernel, kappa: float):
    """D(t; kappa) on the kernel's grid."""
    return 4.0 / (1.0 + kappa * kappa) * kern(kappa).b


def _delta_unit(kern: _Kernel, kappa: float):
    """E(t; kappa) on the kernel's grid."""
    return 4.0 / (1.0 + kappa * kappa) * kern(kappa).bracket()


def _model(kern: _Kernel, kappa: float, M, N: float):
    """(-ln F) / g^2 = M D + kappa N E, and the E it used."""
    ev = _delta_unit(kern, kappa)
    return M * _dsq_unit(kern, kappa) + kappa * N * ev, ev


def _jacobian(kern: _Kernel, g: float, kappa: float, M, N: float):
    """Columns d(-ln F)/d(g, kappa, N); the derivatives run only here."""
    core, ev = _model(kern, kappa, M, N)
    jk = (M * _dsq_dkappa(kern, kappa) + N * ev
          + kappa * N * _delta_dkappa(kern, kappa))
    return np.column_stack([2.0 * g * core, g * g * jk, g * g * kappa * ev])


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


def _dsq_dkappa(kern: _Kernel, kappa: float):
    """d/dkappa of D on the kernel's grid."""
    t, e, u1 = kern.t, kern(kappa).e, 1.0 + kappa * kappa
    db = -2.0 * t * e * e + 2.0 * t * e * kern.cos
    return 4.0 * (db * u1 - 2.0 * kappa * kern.b) / (u1 * u1)


def _delta_dkappa(kern: _Kernel, kappa: float):
    """d/dkappa of E on the kernel's grid."""
    t, e, u1 = kern.t, kern(kappa).e, 1.0 + kappa * kappa
    da1 = 2.0 * t * t * _phi_prime(2.0 * kappa * t)
    dc = 1.0 - t * e * kern.s - e * kern.cos
    dcore = da1 - 2.0 * dc / u1 + 4.0 * kappa * kern.cterm / (u1 * u1)
    return -8.0 * kappa * kern.bracket() / (u1 * u1) + 4.0 * dcore / u1


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


def _solve(residuals, physical_jacobian, x0, floors):
    """Fit x = floors + softplus(u) from x0; residuals and the Jacobian take x.

    Returns x at the solution, the solver result and the standard errors of x.
    """

    def physical(u):
        return _softplus(u) + floors

    def jacobian(u):
        return physical_jacobian(*physical(u)) * _sigmoid(u)[None, :]

    u0 = np.array([_softplus_inv(v - f) for v, f in zip(x0, floors)])
    sol = least_squares(lambda u: residuals(*physical(u)), u0, jac=jacobian,
                        xtol=1e-14, ftol=1e-14, gtol=1e-14)
    x = [float(v) for v in physical(sol.x)]
    return x, sol, _std_errors(physical_jacobian(*x), sol.fun)


def _std_errors(jac: np.ndarray, resid: np.ndarray) -> np.ndarray:
    dof = max(resid.size - jac.shape[1], 1)
    cov = np.linalg.pinv(jac.T @ jac) * (float(resid @ resid) / dof)
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


def _report(series_list, method: str, sol, g, kappa, N, std) -> EstimateReport:
    """The fit report; M is the label the records share, else NaN."""
    labels = {s.M for s in series_list}
    return EstimateReport(
        g=g, kappa=kappa, M=labels.pop() if len(labels) == 1 else float("nan"),
        N=N, residual_norm=float(np.linalg.norm(sol.fun)),
        std_errors={"g": std[0], "kappa": std[1], "N": std[2], "M": 0.0},
        method=method, converged=sol.status > 0, nfev=sol.nfev)


def _fit_direct(series_list: list[CoherenceSeries]) -> EstimateReport:
    if any(s.M is None for s in series_list):
        raise DegenerateInputError(
            "every series needs a known M label: a single record is "
            "invariant under (g, M, N) -> (c g, M/c^2, N/c^2)")
    ys = [-np.log(s.fgen) for s in series_list]
    y = np.concatenate(ys)
    times = np.concatenate([s.times for s in series_list])
    m_labels = np.concatenate([np.full(s.times.shape, s.M) for s in series_list])
    kern = _Kernel(times)

    def residuals(g, k, n):
        return g * g * _model(kern, k, m_labels, n)[0] - y

    def physical_jacobian(g, k, n):
        return _jacobian(kern, g, k, m_labels, n)

    x0 = _initial_guess(series_list[0].times, ys[0], series_list[0].M)
    (g, k, n), sol, std = _solve(residuals, physical_jacobian, x0, (0.0, 0.0, 1.0))
    return _report(series_list, "direct-fit", sol, g, k, n, std)


def _fit_two_temperature(series_list: list[CoherenceSeries]) -> EstimateReport:
    if len(series_list) != 2:
        raise DegenerateInputError("two-temperature mode needs exactly two series")
    s1, s2 = series_list
    d2, bath = _split(s1, s2)
    kern = _Kernel(s1.times)

    def residuals(g, k):
        return g * g * _dsq_unit(kern, k) - d2

    def physical_jacobian(g, k):
        return np.column_stack([2.0 * g * _dsq_unit(kern, k),
                                g * g * _dsq_dkappa(kern, k)])

    x0 = _initial_guess(s1.times, s1.M * np.maximum(d2, 1e-12), s1.M)[:2]
    (g, k), sol, std = _solve(residuals, physical_jacobian, x0, (0.0, 0.0))
    delta_hat = g * g * _delta_unit(kern, k)
    mask = delta_hat > 1e-3 * float(np.max(delta_hat))
    if not np.any(mask):
        raise DegenerateInputError("record too short to expose the bath term")
    n = float(np.median(bath[mask] / (k * delta_hat[mask])))
    return _report(series_list, "two-temperature", sol, g, k, max(n, 1.0),
                   (*std, float("nan")))


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
        if rng is None:
            rng = np.random.default_rng(0)
        f = f * (1.0 + noise * rng.standard_normal(f.shape))
        f = np.maximum(f, 1e-300)
    f = np.minimum(f, 1.0)
    return CoherenceSeries(times=t, fgen=f, M=M, noise=noise)
