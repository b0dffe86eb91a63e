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

Both modes fit by variable projection (Golub & Pereyra, SIAM J. Numer. Anal.
10, 413 (1973)): at fixed kappa the model is linear in g^2 and g^2 N, so
`least_squares` searches kappa alone, on numpy, by Gauss-Newton steps halved
until the cost falls, from kappa = 0.13 (doubled while no g^2 > 0 fits). Each
fit reads D and E as `_dsq(kern, 1.0, kappa)` and `_delta(kern, 1.0, kappa)`
off one `propagator._Kernel`, so the residual is the closed form bit for bit.
The fit stops at xtol = ftol = gtol = 1e-10, where the gate's noisy estimates
lie within 6e-5 of a standard error of the former full (g, kappa, N) solve by
scipy's trust-region reflective method at 1e-14 tolerances
(tests/test_estimate.py::test_fit_path_is_equivalent_to_the_trf_reference);
a change to the fit path is judged by that gate, not by bitwise equal estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .fidelity import fidelity_generalized
from .phase_space import GaussianState, SystemParams
from .propagator import _delta, _dsq, _dsq_prime, _float_guard, _Kernel

_KAPPA_START = 0.13  # both fits' first kappa, before any doubling
_TOL = 1e-10  # least_squares' xtol = ftol = gtol: the noise, not roundoff
_PHI_SERIES = [(-1) ** j * j / math.factorial(j + 1) for j in range(18, 0, -1)]  # phi'


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
    (status > 0); nfev and njev count its evaluations of the reduced residual
    and of its derivative in kappa.
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
    njev: int

    @property
    def nbar(self) -> float:
        return 0.5 * (self.N - 1.0)

    @property
    def mbar(self) -> float:
        return self.M - 0.5


def least_squares(problem, kappa: float, max_nfev: int = 200) -> SimpleNamespace:
    """Minimize |r|^2 over kappa > 0 by Gauss-Newton steps max(-grad/curv, -kappa/2), each
    halved until the cost falls, from a start doubled while no g^2 > 0 fits (within 10
    evaluations). status: 1 gtol, 2 ftol, 3 xtol (at _TOL), 0 when nfev hits max_nfev."""
    point, nfev = None, 0
    while point is None and nfev < 10:
        point, nfev = problem.evaluate(kappa * 2.0 ** nfev), nfev + 1
    if point is None:
        raise DegenerateInputError("the records fix no positive g^2")
    cost, njev, step, status = _dot(point.resid, point.resid), 0, None, 0
    while not status:
        if step is None:  # a new point: its derivative, the gtol test, a full step
            jac, njev = problem.jacobian(point), njev + 1
            grad, curv = _dot(jac, point.resid), _dot(jac, jac)
            status = int(abs(grad) <= _TOL * math.sqrt(curv * cost))
            step = None if status else max(-grad / curv, -0.5 * point.kappa)
        if status or nfev >= max_nfev:
            break
        trial, nfev = problem.evaluate(point.kappa + step), nfev + 1
        new = math.inf if trial is None else _dot(trial.resid, trial.resid)
        if new < cost:
            status = 2 if cost - new <= _TOL * cost else 0
            point, cost, step = trial, new, None
        else:
            step *= 0.5
            status = 3 if abs(step) <= _TOL * point.kappa else 0
    return SimpleNamespace(point=point, nfev=nfev, njev=njev, status=status)


def log_derivative_model(t, g: float, kappa: float, M: float, N: float):
    """Decay-rate observable H(t) = -d/dt ln F = M (|d|^2)' + kappa N |d|^2."""
    return M * _dsq_prime(t, g, kappa) + kappa * N * _dsq(t, g, kappa)


def neg_log_fidelity_model(t, g: float, kappa: float, M, N: float):
    """-ln F(t) for a thermal start with variance M (a scalar or one per t)."""
    return g * g * _model(_Kernel(t), kappa, M, N)[0]


def _split(series1: CoherenceSeries, series2: CoherenceSeries):
    """|d(t)|^2 and kappa * N * delta(t) from two records at distinct known M
    on one time grid (the model-free elimination), taking each log once."""
    if series1.M is None or series2.M is None:
        raise DegenerateInputError("both series need a known M label")
    if series1.M == series2.M:
        raise DegenerateInputError("series must have distinct M labels")
    t1, t2 = series1.times, series2.times
    # the same grid up to roundoff of its scale; np.allclose's rtol 1e-5
    # would pass grids 1e-3 apart over long records and bias the split
    if t1.shape != t2.shape or np.max(np.abs(t1 - t2)) > 1e-12 * np.max(np.abs(t1)):
        raise DegenerateInputError("series must share the same time grid")
    y1, y2, m1, m2 = np.log(series1.fgen), np.log(series2.fgen), series1.M, series2.M
    return (y1 - y2) / (m2 - m1), (m2 * y1 - m1 * y2) / (m1 - m2)


def _model(kern: _Kernel, kappa: float, M, N: float):
    """(-ln F) / g^2 = M D + kappa N E, and the E it used."""
    ev = _delta(kern, 1.0, kappa)
    return M * _dsq(kern, 1.0, kappa) + kappa * N * ev, ev


def _jacobian(kern: _Kernel, g: float, kappa: float, M, N: float):
    """Columns d(-ln F)/d(g, kappa, N); the derivatives run only here."""
    core, ev = _model(kern, kappa, M, N)
    jk = (M * _dsq_dkappa(kern, kappa) + N * ev
          + kappa * N * _delta_dkappa(kern, kappa))
    return np.column_stack([2.0 * g * core, g * g * jk, g * g * kappa * ev])


def _dsq_dkappa(kern: _Kernel, kappa: float):
    """d/dkappa of D on the kernel's grid."""
    t, e, u1 = kern.t, kern(kappa).e, 1.0 + kappa * kappa
    db = -2.0 * t * e * e + 2.0 * t * e * kern.cos
    return 4.0 * (db * u1 - 2.0 * kappa * kern.b) / (u1 * u1)


def _delta_dkappa(kern: _Kernel, kappa: float):
    """d/dkappa of E on the kernel's grid, through phi' at u = 2 kappa t."""
    t, e, u1, bracket = kern.t, kern(kappa).e, 1.0 + kappa * kappa, kern.bracket()
    da1 = 2.0 * t * t * _phi_prime(2.0 * kappa * t, e * e, kern.exprel)
    dc = 1.0 - t * e * kern.s - e * kern.cos
    dcore = da1 - 2.0 * dc / u1 + 4.0 * kappa * kern.cterm / (u1 * u1)
    return -8.0 * kappa * bracket / (u1 * u1) + 4.0 * dcore / u1


def _phi_prime(u: np.ndarray, emu: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(emu - phi)/u = phi'(u) for phi = exprel(-u), emu = e^{-u}; at u < 1 its series."""
    small = u < 1.0
    out, us, acc = np.asarray((emu - phi) / np.where(small, 1.0, u)), u[small], 0.0
    for c in _PHI_SERIES:  # Horner; acc is an array from the first *=, then in place
        acc *= us
        acc += c
    out[small] = acc
    return out


def _dot(a, b) -> float:
    """a . b by numpy's own loop: BLAS would wake its thread pool on long a."""
    return float(np.einsum("n,n->", a, b))


def _cramer(gram: list, rhs: list) -> tuple | None:
    """gram^-1 rhs for a 1x1 or 2x2 Gram matrix, by Cramer's rule on Python
    floats (no LAPACK call); None unless det gram > 0 and the solution is finite."""
    if len(rhs) == 1:
        coef = (rhs[0] / gram[0][0],) if gram[0][0] > 0.0 else ()
    else:
        (a, b), (_, c) = gram
        det = a * c - b * b
        coef = ((c * rhs[0] - b * rhs[1]) / det,
                (a * rhs[1] - b * rhs[0]) / det) if det > 0.0 else ()
    return coef if coef and all(map(math.isfinite, coef)) else None


class _Reduced:
    """The fit as a problem in kappa alone, the model being linear at each kappa.

    The direct fit (m_labels given) has columns [M D, kappa E], coefficients
    (g^2, g^2 N), and refits M D + kappa E alone (N = 1) where N < 1. The
    two-temperature fit has [D] and g^2. The residual is the closed form minus y.
    """

    def __init__(self, kern: _Kernel, y: np.ndarray, m_labels=None):
        self.kern, self.y, self.m = kern, y, m_labels

    def evaluate(self, kappa: float) -> SimpleNamespace | None:
        """The point at kappa, or None where no g^2 > 0 fits."""
        d = _dsq(self.kern, 1.0, kappa)
        ev = None if self.m is None else _delta(self.kern, 1.0, kappa)
        cols = d[None] if ev is None else np.stack([self.m * d, kappa * ev])
        while True:
            gram = np.einsum("in,jn->ij", cols, cols).tolist()
            coef = _cramer(gram, np.einsum("in,n->i", cols, self.y).tolist())
            if coef is None or len(coef) == 1 or coef[1] >= coef[0]:
                break
            cols = cols.sum(axis=0, keepdims=True)  # N >= 1 is active: N = 1
        if coef is None or not coef[0] > 0.0:
            return None
        g, n = math.sqrt(coef[0]), coef[-1] / coef[0]  # n = 1 at the floor
        model = d if ev is None else self.m * d + kappa * n * ev
        return SimpleNamespace(kappa=kappa, g=g, N=n, resid=g * g * model - self.y,
                               cols=cols, coef=coef, gram=gram)

    def jacobian(self, p: SimpleNamespace) -> np.ndarray:
        """dr/dkappa of p's column set (Golub & Pereyra 1973)."""
        k, dd = p.kappa, _dsq_dkappa(self.kern, p.kappa)
        dcols = dd[None] if self.m is None else np.stack(
            [self.m * dd, _delta(self.kern, 1.0, k) + k * _delta_dkappa(self.kern, k)])
        if dcols.shape[0] > len(p.coef):
            dcols = dcols.sum(axis=0, keepdims=True)
        # r = P y - y, so dr = (1 - P) dPhi c - Phi G^-1 dPhi^T r
        v = np.einsum("i,in->n", p.coef, dcols)
        w = _cramer(p.gram, (np.einsum("in,n->i", p.cols, v)
                             + np.einsum("in,n->i", dcols, p.resid)).tolist())
        return v - np.einsum("i,in->n", w, p.cols)


def _std_errors(jac: np.ndarray, resid: np.ndarray) -> np.ndarray:
    dof = max(resid.size - jac.shape[1], 1)
    cov = np.linalg.pinv(np.einsum("ni,nj->ij", jac, jac)) * (_dot(resid, resid) / dof)
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


def _report(series_list, method: str, sol, N: float, jac: np.ndarray) -> EstimateReport:
    """The fit report, with standard errors from the physical Jacobian at the
    solution (NaN for N without a column); M is the shared label, else NaN."""
    labels, p = {s.M for s in series_list}, sol.point
    std = [*_std_errors(jac, p.resid), float("nan")]
    return EstimateReport(
        g=p.g, kappa=p.kappa, M=labels.pop() if len(labels) == 1 else float("nan"),
        N=N, residual_norm=math.sqrt(_dot(p.resid, p.resid)),
        std_errors={"g": std[0], "kappa": std[1], "N": std[2], "M": 0.0},
        method=method, converged=sol.status > 0, nfev=sol.nfev, njev=sol.njev)


def _fit_direct(series_list: list[CoherenceSeries]) -> EstimateReport:
    if any(s.M is None for s in series_list):
        raise DegenerateInputError(
            "every series needs a known M label: a single record is "
            "invariant under (g, M, N) -> (c g, M/c^2, N/c^2)")
    y = np.concatenate([-np.log(s.fgen) for s in series_list])
    times = np.concatenate([s.times for s in series_list])
    if times.size < 3:
        raise DegenerateInputError("a direct fit of (g, kappa, N) needs at least "
                                   "three samples")
    m_labels = np.concatenate([np.full(s.times.shape, s.M) for s in series_list])
    kern = _Kernel(times)
    sol = least_squares(_Reduced(kern, y, m_labels), _KAPPA_START)
    p = sol.point
    return _report(series_list, "direct-fit", sol, p.N,
                   _jacobian(kern, p.g, p.kappa, m_labels, p.N))


def _bath_occupation(kern: _Kernel, bath: np.ndarray, g: float, k: float) -> float:
    """N read off the bath term kappa N delta(t) at the fitted (g, kappa)."""
    delta_hat = g * g * _delta(kern, 1.0, k)
    mask = delta_hat > 1e-3 * float(np.max(delta_hat))
    if not np.any(mask):
        raise DegenerateInputError("record too short to expose the bath term")
    return max(float(np.median(bath[mask] / (k * delta_hat[mask]))), 1.0)


def _fit_two_temperature(series_list: list[CoherenceSeries]) -> EstimateReport:
    if len(series_list) != 2:
        raise DegenerateInputError("two-temperature mode needs exactly two series")
    d2, bath = _split(*series_list)
    kern = _Kernel(series_list[0].times)
    sol = least_squares(_Reduced(kern, d2), _KAPPA_START)
    g, k = sol.point.g, sol.point.kappa
    jac = [2.0 * g * _dsq(kern, 1.0, k), g * g * _dsq_dkappa(kern, k)]
    return _report(series_list, "two-temperature", sol,
                   _bath_occupation(kern, bath, g, k), np.column_stack(jac))


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
    """A closed-form record, optionally noisy: F (1 + noise z) for standard
    normal z, clipped to [1e-300, 1]; a draw that overflows, or a noisy record
    whose closed-form F underflows to 0, is refused."""
    t = np.asarray(times, dtype=float)
    f = fidelity_generalized(t, params, GaussianState.thermal(M - 0.5))
    f = np.asarray(f, dtype=float)
    if noise is not None:
        zero = np.flatnonzero(f == 0.0)
        if zero.size:
            raise ValidationError(f"F underflows to 0 from t = {t.flat[zero[0]]:.6g}; "
                                  "a noisy record needs F > 0")
        rng = np.random.default_rng(0) if rng is None else rng
        with _float_guard("the noise draw"):
            f = np.maximum(f * (1.0 + noise * rng.standard_normal(f.shape)), 1e-300)
    f = np.minimum(f, 1.0)
    return CoherenceSeries(times=t, fgen=f, M=M, noise=noise)
