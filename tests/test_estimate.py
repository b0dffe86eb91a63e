"""Parameter recovery from coherence-decay records."""

import functools

import numpy as np
import pytest

from oscprobe import (CoherenceSeries, DegenerateInputError, SystemParams,
                      ValidationError, estimate, extract_bath_term,
                      extract_d2, fit_parameters, log_derivative_model,
                      neg_log_fidelity_model, synthesize_series)
from oscprobe import propagator
from oscprobe.propagator import _d_components, _delta, _dsq, _Kernel

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
    kern = _Kernel(ts)
    jg, jk, jn = estimate._jacobian(kern, g, k, m, n).T
    y = g * g * estimate._model(kern, k, m, n)[0]
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
    for noise in (-0.5, np.nan, np.inf):
        with pytest.raises(ValidationError, match="noise level"):
            CoherenceSeries(np.array([0.0, 1.0]), np.array([1.0, 0.4]),
                            noise=noise)
        with pytest.raises(ValidationError, match="noise level"):
            make_series(noise=noise)
    assert CoherenceSeries(np.array([0.0, 1.0]), np.array([1.0, 0.4]),
                           noise=0.0).noise == 0.0
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


def test_two_temperature_report_ignores_input_order():
    p1 = SystemParams(g=0.1, kappa=0.05, nbar=0.3, mbar=0.0)
    p2 = SystemParams(g=0.1, kappa=0.05, nbar=0.3, mbar=1.0)
    rng = np.random.default_rng(11)
    pair = [make_series(p, noise=0.01, rng=rng) for p in (p1, p2)]
    ab = fit_parameters(pair, mode="two-temperature")
    ba = fit_parameters(pair[::-1], mode="two-temperature")
    for name in ("g", "kappa", "N"):
        a, b = getattr(ab, name), getattr(ba, name)
        assert abs(a - b) <= 1e-10 * abs(b)
    # the two records carry different labels, so neither is the report's M
    assert np.isnan(ab.M) and np.isnan(ba.M) and np.isnan(ab.mbar)


def test_two_temperature_grids_must_agree_to_roundoff():
    p1 = SystemParams(g=0.1, kappa=0.05, nbar=0.3, mbar=0.0)
    p2 = SystemParams(g=0.1, kappa=0.05, nbar=0.3, mbar=1.0)
    ts = np.linspace(0.0, 200.0, 801)
    s1 = make_series(p1, times=ts)
    # off by up to 1.8e-3 at t = 200: within np.allclose's defaults, yet
    # enough to bias g by ~1e-4 and kappa by ~3e-4 on noiseless data
    stretched = make_series(p2, times=ts * (1.0 + 9e-6))
    with pytest.raises(DegenerateInputError):
        fit_parameters([s1, stretched], mode="two-temperature")
    nudged = np.nextafter(np.nextafter(ts, np.inf), np.inf)
    report = fit_parameters([s1, make_series(p2, times=nudged)],
                            mode="two-temperature")
    assert abs(report.g - 0.1) / 0.1 < 1e-3
    assert abs(report.kappa - 0.05) / 0.05 < 1e-3
    assert abs(report.N - 1.6) / 1.6 < 1e-3


def _capture_solver(monkeypatch):
    """Route estimate.least_squares through a recorder of its calls."""
    calls = []
    solve = estimate.least_squares

    def recorded(fun, x0, jac, **kwargs):
        sol = solve(fun, x0, jac=jac, **kwargs)
        calls.append({"fun": fun, "jac": jac, "x0": x0, "sol": sol})
        return sol

    monkeypatch.setattr(estimate, "least_squares", recorded)
    return calls


class _TrigCounter:
    """numpy for the propagator module, recording each cos and sin call."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        if name not in ("cos", "sin"):
            return getattr(np, name)

        def counted(x):
            self.calls.append((name, np.shape(x)))
            return getattr(np, name)(x)
        return counted


def test_residual_evaluations_run_no_jacobian_kernel(monkeypatch):
    kernel_calls = []
    kernel = estimate._delta_dkappa

    def counted(*args):
        kernel_calls.append(args)
        return kernel(*args)

    pair = [make_series(M=1.0), make_series(M=2.0)]
    monkeypatch.setattr(estimate, "_delta_dkappa", counted)
    trig = _TrigCounter()
    monkeypatch.setattr(propagator, "np", trig)
    solver_calls = _capture_solver(monkeypatch)
    fit_parameters(pair)
    (call,) = solver_calls
    sol = call["sol"]
    assert sol.nfev > 1
    # one kernel call over all records for each solver Jacobian and for the
    # post-fit standard errors; residual evaluations add none
    assert len(kernel_calls) == sol.njev + 1
    # cos t and sin t are taken once per fit, over all records
    assert trig.calls == [("cos", (2 * GRID.size,)), ("sin", (2 * GRID.size,))]
    trig.calls.clear()
    fit_parameters(pair, mode="two-temperature")
    assert trig.calls == [("cos", GRID.shape), ("sin", GRID.shape)]


def test_two_temperature_fit_builds_the_bath_bracket_once(monkeypatch):
    calls = []
    exprel = propagator._exprel

    def counted(x):
        calls.append(np.shape(x))
        return exprel(x)

    pair = [make_series(M=1.0), make_series(M=2.0)]
    monkeypatch.setattr(propagator, "_exprel", counted)
    solver_calls = _capture_solver(monkeypatch)
    fit_parameters(pair, mode="two-temperature")
    assert solver_calls[0]["sol"].nfev > 1
    # residuals and Jacobians read D alone; only delta_hat needs the bracket
    assert calls == [GRID.shape]


@pytest.mark.parametrize("kappa", [0.0, 1e-12, 0.05, 0.2, 3.0])
def test_kernel_is_bitwise_the_propagator_closed_form(kappa):
    # the fits' D and E keep the prefactor order of the closed forms
    for t in (GRID, 7.3):
        kern = _Kernel(t)
        d, ev = estimate._dsq_unit(kern, kappa), estimate._delta_unit(kern, kappa)
        assert np.array_equal(d, _dsq(t, 1.0, kappa))
        assert np.array_equal(ev, _delta(t, 1.0, kappa))
        assert np.shape(d) == np.shape(ev) == np.shape(t)


def _readouts(t, kern, kappa):
    # derivatives first: each must bring the memo to its own kappa
    return (estimate._delta_dkappa(kern, kappa), estimate._dsq_dkappa(kern, kappa),
            estimate._dsq_unit(kern, kappa), estimate._delta_unit(kern, kappa),
            _dsq(t, 0.1, kappa), _delta(t, 0.1, kappa),
            *_d_components(t, 0.1, kappa))


def test_kernel_memo_gives_what_a_fresh_kernel_gives(monkeypatch):
    kappas = (0.05, 0.2, 0.05, 0.0, 1e-12)
    for t in (GRID, 7.3):
        want = [_readouts(t, _Kernel(t), kappa) for kappa in kappas]
        kern = _Kernel(t)
        # the closed forms read this one kernel too, reused across kappa
        monkeypatch.setattr(propagator, "_Kernel", lambda _: kern)
        for kappa, fresh in zip(kappas, want):
            got = _readouts(t, kern, kappa)
            assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
            assert all(np.shape(a) == np.shape(t) for a in got)
        monkeypatch.undo()
    value = neg_log_fidelity_model(7.3, 0.1, 0.05, 1.0, 1.6)
    assert np.ndim(value) == 0
    assert value == neg_log_fidelity_model(np.array([7.3]), 0.1, 0.05, 1.0, 1.6)[0]


def test_split_residual_and_jacobian_agree(monkeypatch):
    solver_calls = _capture_solver(monkeypatch)
    s = make_series(M=1.0)
    s2 = make_series(M=2.0)
    s_other = make_series(M=1.0, times=GRID[1:] - 0.025)
    mixed = fit_parameters([s, s2, s_other])   # the M = 1 rows are not adjacent
    (call,) = solver_calls
    fun, jac = call["fun"], call["jac"]
    parts = (s, s2, s_other)
    times = np.concatenate([p.times for p in parts])
    y = np.concatenate([-np.log(p.fgen) for p in parts])
    m_labels = np.concatenate([np.full(p.times.shape, p.M) for p in parts])
    h = 1e-6
    for u in (call["x0"], call["sol"].x):
        r = fun(u)
        j = jac(u)
        for i in range(3):
            du = np.zeros(3)
            du[i] = h
            fd = (fun(u + du) - fun(u - du)) / (2 * h)
            assert np.max(np.abs(j[:, i] - fd)) <= 1e-6 * np.max(np.abs(fd))
        g, k = float(estimate._softplus(u[0])), float(estimate._softplus(u[1]))
        n = 1.0 + float(estimate._softplus(u[2]))
        for m in (1.0, 2.0):
            sel = m_labels == m
            want = neg_log_fidelity_model(times[sel], g, k, m, n) - y[sel]
            assert np.array_equal(r[sel], want)
    grouped = fit_parameters([s, s_other, s2])
    for name in ("g", "kappa", "N"):
        a, b = getattr(mixed, name), getattr(grouped, name)
        assert abs(a - b) <= 1e-10 * abs(b)
    for report in (mixed, grouped):
        assert abs(report.g - 0.1) / 0.1 < 1e-3
        assert abs(report.kappa - 0.05) / 0.05 < 1e-3
        assert abs(report.N - 1.6) / 1.6 < 1e-3
