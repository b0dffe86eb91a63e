"""Parameter recovery from coherence-decay records."""

import functools
from types import SimpleNamespace

import numpy as np
import pytest

from oscprobe import (CoherenceSeries, DegenerateInputError, SystemParams,
                      ValidationError, estimate, fit_parameters,
                      log_derivative_model, neg_log_fidelity_model,
                      synthesize_series)
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


def _short_time_series(t, g, kappa, M, N, terms=4):
    """The t^2 ... t^5 terms of -ln F; `terms` keeps the first few."""
    k = kappa
    coeffs = (4.0 * M, -4.0 / 3.0 * k * (3.0 * M - N),
              (7.0 * M * k * k - M - 3.0 * N * k * k) / 3.0,
              -k * (15.0 * M * k * k - 5.0 * M - 7.0 * N * k * k + N) / 15.0)
    return g * g * sum(c * t ** (n + 2) for n, c in enumerate(coeffs[:terms]))


@pytest.mark.parametrize("g, kappa, M, N", [
    (0.1, 0.05, 1.5, 1.6), (0.3, 0.3, 0.5, 3.0), (0.05, 0.0, 0.5, 1.0),
    (0.2, 1.2, 2.0, 1.0)])
def test_short_time_series_of_the_closed_form(g, kappa, M, N):
    # below t ~ 0.005 roundoff in -ln F swamps the t^6 remainder
    ts = np.array([0.01, 0.03, 0.1])
    y = neg_log_fidelity_model(ts, g, kappa, M, N)
    r6 = (y - _short_time_series(ts, g, kappa, M, N)) / ts ** 6
    assert np.all(r6 > 0) or np.all(r6 < 0)
    assert np.max(np.abs(r6)) <= 1.03 * np.min(np.abs(r6))
    if kappa > 0:
        # without the t^5 term the remainder grows as t^5
        r5 = np.abs(y - _short_time_series(ts, g, kappa, M, N, terms=3))
        assert np.log10(r5[2] / r5[0]) == pytest.approx(5.0, abs=0.1)


def test_two_temperature_elimination_is_exact():
    p1 = SystemParams(g=0.12, kappa=0.06, nbar=0.3, mbar=0.0)   # M = 0.5
    p2 = SystemParams(g=0.12, kappa=0.06, nbar=0.3, mbar=1.0)   # M = 1.5
    ts = GRID[1:]
    s1 = make_series(p1)
    s2 = make_series(p2)
    d2, bath = estimate._split(CoherenceSeries(ts, s1.fgen[1:], M=0.5),
                               CoherenceSeries(ts, s2.fgen[1:], M=1.5))
    assert np.max(np.abs(d2 - _dsq(ts, 0.12, 0.06))) < 1e-10
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


@pytest.mark.parametrize("g, kappa, nbar, t_max, joint", [
    (0.3, 0.2, 2.0, 200.0, False),
    (0.05, 1.0, 0.5, 10.0, False),
    (0.3, 0.5, 0.5, 30.0, False),
    (0.3, 0.08, 2.0, 200.0, True),
    (0.05, 0.5, 2.0, 30.0, True),
])
def test_direct_fit_recovers_long_and_strongly_damped_records(g, kappa, nbar,
                                                              t_max, joint):
    # long or strongly damped records; no g^2 > 0 fits the M = 0.5 record
    # of the first three cases, or the last pair, at the start kappa = 0.13,
    # so those fits double kappa before their first step
    p = SystemParams(g=g, kappa=kappa, nbar=nbar)
    times = np.arange(0.0, t_max + 0.025, 0.05)
    pair = [synthesize_series(p, m, times) for m in (0.5, 1.5)]
    for series in ([pair] if joint else [[s] for s in pair]):
        report = fit_parameters(series)
        assert report.converged
        for name, want in (("g", g), ("kappa", kappa), ("N", p.N)):
            assert abs(getattr(report, name) - want) <= 1e-6 * want, name


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
    # two samples cannot fix three parameters; three can
    two = make_series(times=GRID[:2])
    with pytest.raises(DegenerateInputError, match="three samples"):
        fit_parameters(two)
    assert fit_parameters(make_series(times=GRID[:3])).nfev >= 1


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
    with pytest.raises(ValidationError, match="noise draw overflows a float"):
        synthesize_series(SystemParams(0.1, 0.1), 0.5, np.arange(0, 5, 0.1),
                          noise=1e308)
    # F underflows to 0 from t = 84.6 on this grid: refused before the draw
    underflow = (SystemParams(1.0, 0.1, nbar=10.0), 0.5, np.arange(0, 200, 0.05))
    with pytest.raises(ValidationError, match="F underflows to 0 from t = 84.6"):
        synthesize_series(*underflow, noise=0.01)
    with pytest.raises(ValidationError, match="fidelities must lie in"):
        synthesize_series(*underflow)
    with pytest.raises(DegenerateInputError):
        estimate._split(make_series(), make_series())  # identical M labels


def test_fit_reports_convergence(monkeypatch):
    s1 = make_series(M=1.0)
    s2 = make_series(M=2.0)
    for mode in ("direct-fit", "two-temperature"):
        rep = fit_parameters([s1, s2], mode=mode)
        assert rep.converged is True
        assert rep.nfev > 1 and rep.njev >= 1
    # the budget is honoured exactly, down to the starting evaluation
    solve = estimate.least_squares
    for budget in (1, 2):
        monkeypatch.setattr(estimate, "least_squares",
                            functools.partial(solve, max_nfev=budget))
        for mode in ("direct-fit", "two-temperature"):
            rep = fit_parameters([s1, s2], mode=mode)
            assert rep.converged is False
            assert rep.nfev == budget


class _Stub:
    """A least_squares problem on a residual r(kappa) and its derivative,
    recording every kappa the solver evaluates."""

    def __init__(self, r, dr):
        self.r, self.dr, self.kappas = r, dr, []

    def evaluate(self, kappa):
        self.kappas.append(kappa)
        return SimpleNamespace(kappa=kappa, resid=np.asarray(self.r(kappa), float))

    def jacobian(self, point):
        return np.asarray(self.dr(point.kappa), float)


def test_solver_never_evaluates_kappa_at_or_below_zero():
    # the Gauss-Newton step from 1 is -6, to the minimum at -5; each step is
    # clamped at -kappa/2 instead
    stub = _Stub(lambda k: [k + 5.0], lambda k: [1.0])
    estimate.least_squares(stub, 1.0, max_nfev=8)
    assert stub.kappas == [1.0 / 2 ** i for i in range(8)]


def test_solver_stops_on_gtol_at_an_exact_minimum():
    # r = (k, 2 - k) has a zero gradient and |r|^2 = 2 at k = 1
    stub = _Stub(lambda k: [k, 2.0 - k], lambda k: [1.0, -1.0])
    sol = estimate.least_squares(stub, 1.0)
    assert (sol.status, sol.nfev, sol.njev) == (1, 1, 1)
    assert stub.kappas == [1.0] and sol.point.kappa == 1.0


def test_solver_halves_a_step_that_raises_the_cost():
    # r = atan(k - 5) from k = 2: the full step s overshoots to k ~ 14.5 and
    # s/2 still raises the cost; s/4 lowers it and is taken
    stub = _Stub(lambda k: [np.arctan(k - 5.0)],
                 lambda k: [1.0 / (1.0 + (k - 5.0) ** 2)])
    sol = estimate.least_squares(stub, 2.0)
    s = 10.0 * np.arctan(3.0)
    assert stub.kappas[:4] == pytest.approx([2.0, 2.0 + s, 2.0 + s / 2, 2.0 + s / 4],
                                            rel=1e-12)
    assert sol.status > 0 and sol.point.kappa == pytest.approx(5.0, abs=1e-9)


def test_solver_stops_on_ftol_at_a_trial_that_ties_the_cost():
    # a flat cost: the first trial, at kappa 1/2, ties it, so the search stops
    # there on ftol instead of halving the step down to xtol
    stub = _Stub(lambda k: [1.0], lambda k: [1e-3])
    sol = estimate.least_squares(stub, 1.0)
    assert (sol.status, sol.nfev, sol.njev) == (2, 2, 1)
    assert stub.kappas == [1.0, 0.5] and sol.point.kappa == 1.0


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
    """Route estimate.least_squares through a recorder of its calls.

    Each record holds the reduced problem, the starting kappa ("x0"), the
    solution, and the derivative evaluations the solver made ("jac_calls").
    """
    calls = []
    solve = estimate.least_squares

    def recorded(problem, kappa, **kwargs):
        call = {"problem": problem, "x0": kappa, "jac_calls": 0}
        jacobian = problem.jacobian

        def counted(point):
            call["jac_calls"] += 1
            return jacobian(point)

        problem.jacobian = counted
        call["sol"] = solve(problem, kappa, **kwargs)
        calls.append(call)
        return call["sol"]

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
    assert call["sol"].nfev > 1 and call["jac_calls"] > 0
    assert call["sol"].njev == call["jac_calls"]
    # one kernel call over all records for each derivative the solver asked
    # for and for the post-fit standard errors; residual evaluations add none
    assert len(kernel_calls) == call["jac_calls"] + 1
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
    # the fits read D and E as _dsq and _delta at g = 1 off a kernel they keep
    for t in (GRID, 7.3):
        kern = _Kernel(t)
        d, ev = _dsq(kern, 1.0, kappa), _delta(kern, 1.0, kappa)
        assert np.array_equal(d, _dsq(t, 1.0, kappa))
        assert np.array_equal(ev, _delta(t, 1.0, kappa))
        assert np.shape(d) == np.shape(ev) == np.shape(t)


def _readouts(kern, kappa):
    # derivatives first: each must bring the memo to its own kappa
    return (estimate._delta_dkappa(kern, kappa), estimate._dsq_dkappa(kern, kappa),
            _dsq(kern, 1.0, kappa), _delta(kern, 1.0, kappa),
            _dsq(kern, 0.1, kappa), _delta(kern, 0.1, kappa),
            *_d_components(kern, 0.1, kappa))


def test_kernel_memo_gives_what_a_fresh_kernel_gives():
    kappas = (0.05, 0.2, 0.05, 0.0, 1e-12)
    for t in (GRID, 7.3):
        want = [_readouts(_Kernel(t), kappa) for kappa in kappas]
        # the closed forms read this one kernel too, reused across kappa
        kern = _Kernel(t)
        for kappa, fresh in zip(kappas, want):
            got = _readouts(kern, kappa)
            assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
            assert all(np.shape(a) == np.shape(t) for a in got)
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
    problem = call["problem"]
    parts = (s, s2, s_other)
    times = np.concatenate([p.times for p in parts])
    y = np.concatenate([-np.log(p.fgen) for p in parts])
    m_labels = np.concatenate([np.full(p.times.shape, p.M) for p in parts])
    h = 1e-6
    for kappa in (call["x0"], call["sol"].point.kappa):
        point = problem.evaluate(kappa)
        fd = (problem.evaluate(kappa + h).resid
              - problem.evaluate(kappa - h).resid) / (2 * h)
        j = problem.jacobian(point)
        assert np.max(np.abs(j - fd)) <= 1e-6 * np.max(np.abs(fd))
        # the reduced residual is the closed form at its (g, kappa, N) minus y
        for m in (1.0, 2.0):
            sel = m_labels == m
            want = (neg_log_fidelity_model(times[sel], point.g, kappa, m, point.N)
                    - y[sel])
            assert np.array_equal(point.resid[sel], want)
    grouped = fit_parameters([s, s_other, s2])
    for name in ("g", "kappa", "N"):
        a, b = getattr(mixed, name), getattr(grouped, name)
        assert abs(a - b) <= 1e-10 * abs(b)
    for report in (mixed, grouped):
        assert abs(report.g - 0.1) / 0.1 < 1e-3
        assert abs(report.kappa - 0.05) / 0.05 < 1e-3
        assert abs(report.N - 1.6) / 1.6 < 1e-3


def test_fit_on_the_floor_differentiates_the_one_column_problem(monkeypatch):
    # nbar = 0: this noisy record's best N lies below 1, so the fit ends on
    # N = 1 and its derivative is that of the single column M D + kappa E
    p = SystemParams(g=0.1, kappa=0.05, nbar=0.0, mbar=0.5)
    s = make_series(p, noise=0.01, rng=np.random.default_rng(1))
    solver_calls = _capture_solver(monkeypatch)
    report = fit_parameters([s])
    (call,) = solver_calls
    problem, kappa = call["problem"], report.kappa
    point = problem.evaluate(kappa)
    assert report.N == point.N == 1.0 and report.converged
    assert len(point.coef) == 1
    h = 1e-6
    fd = (problem.evaluate(kappa + h).resid
          - problem.evaluate(kappa - h).resid) / (2 * h)
    assert np.max(np.abs(problem.jacobian(point) - fd)) <= 1e-6 * np.max(np.abs(fd))
    want = neg_log_fidelity_model(s.times, point.g, kappa, s.M, 1.0) + np.log(s.fgen)
    assert np.array_equal(point.resid, want)


def test_closed_form_projection_matches_lapack():
    # 1x1 and 2x2 Gram matrices with condition numbers up to 1e3 over many
    # scales; worse-conditioned ones are left to the equivalence gate
    rng = np.random.default_rng(5)
    for _ in range(400):
        scale, cond = 10.0 ** rng.uniform(-4.0, 6.0), 10.0 ** rng.uniform(0.0, 3.0)
        rot = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        gram = rot @ np.diag([scale, scale / cond]) @ rot.T
        gram = 0.5 * (gram + gram.T)
        rhs = rng.standard_normal(2) * scale
        for g, r in ((gram, rhs), (gram[:1, :1], rhs[:1])):
            want = np.linalg.solve(g, r)
            got = np.array(estimate._cramer(g.tolist(), r.tolist()))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_singular_projection_fits_nothing(monkeypatch):
    # columns c and 2c: det gram is exactly 0, so no coefficients, no exception
    c = np.linspace(0.1, 2.0, 50)
    cols = np.stack([c, 2.0 * c])
    gram = np.einsum("in,jn->ij", cols, cols).tolist()
    assert gram[0][0] * gram[1][1] - gram[0][1] ** 2 == 0.0
    assert estimate._cramer(gram, [1.0, 2.0]) is None
    assert estimate._cramer([[0.0]], [0.0]) is None
    # through the reduced problem: with E = 2 D and M = 1 the direct fit's
    # columns at kappa = 1 are D and 2 D, a point where nothing fits
    monkeypatch.setattr(estimate, "_delta",
                        lambda kern, g, kappa: 2.0 * _dsq(kern, g, kappa))
    s = make_series(M=1.0)
    problem = estimate._Reduced(_Kernel(s.times), -np.log(s.fgen),
                                np.ones(s.times.shape))
    assert problem.evaluate(1.0) is None
    assert problem.evaluate(1.1) is not None


def _peak_decay_kappa(times, y):
    """The reference's starting kappa: the decay of the detrended record's
    strict local maxima, clipped to [1e-3, 1] (0.1 with fewer than two)."""
    resid = np.abs(y - np.polyval(np.polyfit(times, y, 1), times))
    peaks = 1 + np.flatnonzero((resid[1:-1] > resid[:-2]) & (resid[1:-1] > resid[2:]))
    if peaks.size < 2:
        return 0.1
    rp = np.log(np.maximum(resid[peaks], 1e-300))
    return min(max(-np.polyfit(times[peaks], rp, 1)[0], 1e-3), 1.0)


def _trf_reference(series, mode):
    """The fits' former solve, as (g, kappa, N, converged).

    The full (g, kappa, N) problem over x = floor + softplus(u), which keeps
    g, kappa > 0 and N > 1, run through scipy's trust-region reflective
    solver at unit scaling and 1e-14 tolerances from the former start: g
    from the record's depth at t = pi, kappa from `_peak_decay_kappa`, N = 1.5.
    Two-temperature mode fits (g, kappa) to |d|^2 and reads N off the bath
    term as the fit does.
    """
    from scipy.optimize import least_squares

    first = series[0]
    if mode == "direct-fit":
        t = np.concatenate([s.times for s in series])
        y = np.concatenate([-np.log(s.fgen) for s in series])
        m = np.concatenate([np.full(s.times.shape, s.M) for s in series])
        kern, floors = _Kernel(t), np.array([0.0, 0.0, 1.0])
        y0, m0 = -np.log(first.fgen), first.M

        def fun(g, k, n):
            return g * g * estimate._model(kern, k, m, n)[0] - y

        def jac(g, k, n):
            return estimate._jacobian(kern, g, k, m, n)
    else:
        y, bath = estimate._split(*series)
        kern, floors = _Kernel(first.times), np.zeros(2)
        y0, m0 = np.maximum(y, 1e-12), 1.0   # |d|^2 = g^2 D carries no M

        def fun(g, k):
            return g * g * _dsq(kern, 1.0, k) - y

        def jac(g, k):
            return np.column_stack([2.0 * g * _dsq(kern, 1.0, k),
                                    g * g * estimate._dsq_dkappa(kern, k)])
    # y(pi) ~ 16 M g^2 at the first oscillation maximum for small kappa
    depth = max(y0[np.argmin(np.abs(first.times - np.pi))], 1e-12)
    x0 = [max(np.sqrt(depth / (16.0 * m0)), 1e-4),
          _peak_decay_kappa(first.times, y0), 1.5][:floors.size]
    sol = least_squares(
        lambda u: fun(*(floors + np.logaddexp(0.0, u))),
        np.log(np.expm1(np.array(x0) - floors)),
        jac=lambda u: (jac(*(floors + np.logaddexp(0.0, u)))
                       * (0.5 + 0.5 * np.tanh(0.5 * u))[None, :]),
        method="trf", x_scale=1.0, xtol=1e-14, ftol=1e-14, gtol=1e-14)
    x = floors + np.logaddexp(0.0, sol.x)
    n = x[2] if mode == "direct-fit" else estimate._bath_occupation(kern, bath, *x)
    return x[0], x[1], n, sol.status > 0


def _fit_cases(seed, n_noisy=14, n_anchors=2, n_floor=6):
    """Records as the thermometry benchmark draws them, with their fit calls.

    Each case is a pair of records at M = 0.5 and 1.5 on t in [0, 30]; it is
    fit directly from one record, jointly from both, and in two-temperature
    mode. The last n_floor cases are noisy with nbar < 0.02, where a fit of
    N often ends on its floor N = 1. Returns (kind, label, series, mode) per
    fit, kind one of "noisy", "noiseless" and "floor".
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_noisy + n_anchors + n_floor):
        kind = ("noisy" if i < n_noisy else
                "noiseless" if i < n_noisy + n_anchors else "floor")
        p = SystemParams(g=rng.uniform(0.05, 0.3), kappa=rng.uniform(0.02, 0.2),
                         nbar=rng.uniform(0.0, 0.02 if kind == "floor" else 2.0))
        pair = [synthesize_series(p, m, GRID, rng=rng,
                                  noise=None if kind == "noiseless" else 0.01)
                for m in (0.5, 1.5)]
        out += [(kind, (i, "direct"), [pair[i % 2]], "direct-fit"),
                (kind, (i, "joint"), pair, "direct-fit"),
                (kind, (i, "two-temperature"), pair, "two-temperature")]
    return out


def test_fit_path_is_equivalent_to_the_trf_reference():
    # the gate for any change to the fit path: the reference is the former
    # full-problem solve, whose answer depends on its path at ~1e-7
    # relative, so a change must move each noisy estimate by under 1e-3 of
    # its standard error and each noiseless one by under 1e-9 relative
    # (measured with the variable-projection solve over three 312-fit
    # benchmark rounds: 1.9e-6 sigma, including fits that end at N = 1)
    cases = _fit_cases(seed=2024)
    fits = [fit_parameters(series, mode=mode) for _, _, series, mode in cases]
    refs = [_trf_reference(series, mode) for _, _, series, mode in cases]
    joint = {label[0]: rep for (_, label, _, _), rep in zip(cases, fits)
             if label[1] == "joint"}
    for (kind, label, _, _), rep, ref in zip(cases, fits, refs):
        assert rep.converged and ref[3], label
        for name, old in zip(("g", "kappa", "N"), ref[:3]):
            new = getattr(rep, name)
            if kind == "noiseless":
                assert abs(new - old) < 1e-9 * abs(old), (label, name)
                continue
            # two-temperature N has no standard error of its own; the joint
            # fit of the same records gives N's statistical scale
            sigma = rep.std_errors[name]
            if np.isnan(sigma):
                sigma = joint[label[0]].std_errors[name]
            assert abs(new - old) < 1e-3 * sigma, (label, name)
    # the gate covers the N >= 1 constraint: some direct fits end on it
    assert any(rep.N == 1.0 and rep.method == "direct-fit"
               for (kind, _, _, _), rep in zip(cases, fits) if kind == "floor")


def test_fits_stop_at_the_noise_not_at_roundoff():
    # the work the equivalence gate's 66 fits take at the 1e-10 stop: 407
    # residual and 338 derivative evaluations (493 and 424 at a 1e-14 stop),
    # so a stop that chases roundoff again fails here; the counts are
    # deterministic, unlike wall time
    fits = [fit_parameters(series, mode=mode)
            for _, _, series, mode in _fit_cases(seed=2024)]
    assert all(rep.converged for rep in fits)
    assert sum(rep.nfev for rep in fits) <= 1.05 * 407
    assert sum(rep.njev for rep in fits) <= 1.05 * 338
