"""Parameter recovery from coherence-decay records."""

import functools

import numpy as np
import pytest

from oscprobe import (CoherenceSeries, DegenerateInputError, SystemParams,
                      ValidationError, estimate, extract_bath_term,
                      extract_d2, fit_parameters, log_derivative_model,
                      neg_log_fidelity_model, synthesize_series)
from oscprobe.estimate import _model_and_jacobian
from oscprobe.propagator import _delta, _dsq

TRUE = SystemParams(g=0.1, kappa=0.05, nbar=0.3, mbar=0.5)  # M=1, N=1.6
GRID = np.arange(0.0, 30.0 + 0.025, 0.05)


def make_series(params=TRUE, M=None, times=GRID, noise=None, rng=None):
    M = params.M if M is None else M
    return synthesize_series(params, M, times, noise=noise, rng=rng)


def test_decay_rate_is_time_derivative():
    ts = np.linspace(0.3, 29.7, 120)
    h = 1e-5
    args = (0.1, 0.05, 1.0, 1.6)
    fd = (neg_log_fidelity_model(ts + h, *args)
          - neg_log_fidelity_model(ts - h, *args)) / (2 * h)
    assert np.max(np.abs(fd - log_derivative_model(ts, *args))) < 1e-7
    # doubling the bath term breaks the derivative identity
    wrong = fd - (log_derivative_model(ts, *args)
                  + 0.05 * 1.6 * _dsq(ts, 0.1, 0.05))
    assert np.max(np.abs(wrong)) > 1e-4


def test_two_temperature_elimination_is_exact():
    p1 = SystemParams(g=0.12, kappa=0.06, nbar=0.3, mbar=0.0)   # M = 0.5
    p2 = SystemParams(g=0.12, kappa=0.06, nbar=0.3, mbar=1.0)   # M = 1.5
    ts = GRID[1:]
    s1 = make_series(p1)
    s2 = make_series(p2)
    d2 = extract_d2(CoherenceSeries(ts, s1.fgen[1:], M=0.5),
                    CoherenceSeries(ts, s2.fgen[1:], M=1.5))
    assert np.max(np.abs(d2 - _dsq(ts, 0.12, 0.06))) < 1e-10
    bath = extract_bath_term(CoherenceSeries(ts, s1.fgen[1:], M=0.5),
                             CoherenceSeries(ts, s2.fgen[1:], M=1.5))
    want = 0.06 * 1.6 * _delta(ts, 0.12, 0.06)
    assert np.max(np.abs(bath - want)) < 1e-10


def test_jacobian_matches_finite_differences():
    ts = np.linspace(0.5, 28.0, 40)
    g, k, n, m = 0.13, 0.07, 1.8, 1.2
    y, jg, jk, jn = _model_and_jacobian(ts, g, k, n, m)
    assert np.allclose(y, neg_log_fidelity_model(ts, g, k, m, n), atol=1e-14)
    h = 1e-7
    fd_g = (neg_log_fidelity_model(ts, g + h, k, m, n)
            - neg_log_fidelity_model(ts, g - h, k, m, n)) / (2 * h)
    fd_k = (neg_log_fidelity_model(ts, g, k + h, m, n)
            - neg_log_fidelity_model(ts, g, k - h, m, n)) / (2 * h)
    fd_n = (neg_log_fidelity_model(ts, g, k, m, n + h)
            - neg_log_fidelity_model(ts, g, k, m, n - h)) / (2 * h)
    scale = np.max(np.abs(fd_g))
    assert np.max(np.abs(jg - fd_g)) < 1e-6 * scale
    assert np.max(np.abs(jk - fd_k)) < 1e-6 * max(1.0, np.max(np.abs(fd_k)))
    assert np.max(np.abs(jn - fd_n)) < 1e-6


def test_direct_fit_recovers_noiseless_parameters():
    report = fit_parameters([make_series()])
    assert report.method == "direct-fit"
    assert abs(report.g - 0.1) / 0.1 < 1e-3
    assert abs(report.kappa - 0.05) / 0.05 < 1e-3
    assert abs(report.N - 1.6) / 1.6 < 1e-3
    assert report.M == 1.0
    assert report.nbar == pytest.approx(0.3, abs=1e-3)
    assert report.mbar == pytest.approx(0.5, abs=1e-12)
    assert report.residual_norm < 1e-8
    assert np.all(np.isfinite([report.std_errors[k] for k in ("g", "kappa", "N")]))


def test_direct_fit_pools_multiple_records():
    s1 = make_series()
    p2 = SystemParams(g=0.1, kappa=0.05, nbar=0.3, mbar=1.5)
    s2 = make_series(p2)
    report = fit_parameters([s1, s2])
    assert abs(report.g - 0.1) / 0.1 < 1e-3
    assert abs(report.N - 1.6) / 1.6 < 1e-3


def test_two_temperature_mode_recovers_parameters():
    p1 = SystemParams(g=0.1, kappa=0.05, nbar=0.3, mbar=0.0)
    p2 = SystemParams(g=0.1, kappa=0.05, nbar=0.3, mbar=1.0)
    report = fit_parameters([make_series(p1), make_series(p2)],
                            mode="two-temperature")
    assert report.method == "two-temperature"
    assert abs(report.g - 0.1) / 0.1 < 1e-3
    assert abs(report.kappa - 0.05) / 0.05 < 1e-3
    assert abs(report.N - 1.6) / 1.6 < 1e-3


def test_unknown_variance_is_rejected():
    s = make_series()
    unlabeled = CoherenceSeries(s.times, s.fgen, M=None)
    with pytest.raises(DegenerateInputError):
        fit_parameters([unlabeled])
    with pytest.raises(DegenerateInputError):
        fit_parameters([unlabeled, make_series()], mode="two-temperature")
    with pytest.raises(ValidationError):
        fit_parameters([s], mode="annealing")
    with pytest.raises(DegenerateInputError):
        fit_parameters([], mode="direct-fit")


def test_noisy_fit_stays_within_a_few_percent():
    rng = np.random.default_rng(77)
    errs = []
    for _ in range(10):
        s = make_series(noise=0.01, rng=rng)
        rep = fit_parameters([s])
        errs.append([abs(rep.g - 0.1) / 0.1,
                     abs(rep.kappa - 0.05) / 0.05,
                     abs(rep.N - 1.6) / 1.6])
    med = np.median(np.array(errs), axis=0)
    assert np.all(med < 0.05)


def test_synthesis_is_reproducible():
    a = make_series(noise=0.01, rng=np.random.default_rng(5))
    b = make_series(noise=0.01, rng=np.random.default_rng(5))
    assert np.array_equal(a.fgen, b.fgen)
    clean = make_series()
    want = np.exp(-neg_log_fidelity_model(GRID, 0.1, 0.05, 1.0, 1.6))
    assert np.max(np.abs(clean.fgen - want)) < 1e-14
    assert np.all(a.fgen <= 1.0)


def test_series_validation():
    with pytest.raises(ValidationError):
        CoherenceSeries(np.array([1.0]), np.array([0.5]))  # too short
    with pytest.raises(ValidationError):
        CoherenceSeries(np.array([1.0, 0.5]), np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        CoherenceSeries(np.array([0.0, 1.0]), np.array([0.5, 1.5]))
    with pytest.raises(ValidationError):
        CoherenceSeries(np.array([0.0, 1.0]), np.array([0.5, 0.4]), M=0.2)
    with pytest.raises(DegenerateInputError):
        extract_d2(make_series(), make_series())  # identical M labels


def test_fit_reports_convergence(monkeypatch):
    s1 = make_series(M=1.0)
    s2 = make_series(M=2.0)
    for mode in ("direct-fit", "two-temperature"):
        rep = fit_parameters([s1, s2], mode=mode)
        assert rep.converged is True
        assert rep.nfev > 1
    monkeypatch.setattr(estimate, "least_squares",
                        functools.partial(estimate.least_squares, max_nfev=1))
    for mode in ("direct-fit", "two-temperature"):
        rep = fit_parameters([s1, s2], mode=mode)
        assert rep.converged is False
        assert rep.nfev == 1
