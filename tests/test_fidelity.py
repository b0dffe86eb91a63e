"""Fidelity and purity measures, their limits and invariances."""

import numpy as np
import pytest

from oscprobe import (Covariance2, GaussianState, PhaseVector, QubitInitState,
                      SystemParams, ValidationError, fidelity,
                      fidelity_gen_asymptotic_rate, fidelity_generalized,
                      fidelity_uj_blocks, fidelity_uj_gaussian,
                      fidelity_uj_limit, purity_oscillator, purity_qubit)
from oscprobe.propagator import diag_block_gaussians


def test_undamped_generalized_fidelity_is_exact():
    # kappa = 0: F_gen(t) = exp(-8 M g^2 (1 - cos t))
    g = 0.1
    for M in (0.5, 1.0, 2.5):
        p = SystemParams(g=g, kappa=0.0, mbar=M - 0.5)
        init = GaussianState.thermal(p.mbar)
        ts = np.linspace(0.0, 4 * np.pi, 200)
        exact = np.exp(-8 * M * g * g * (1 - np.cos(ts)))
        assert np.max(np.abs(fidelity_generalized(ts, p, init) - exact)) < 1e-12
    p = SystemParams(g=0.1, kappa=0.0)
    assert fidelity_generalized(np.pi, p, GaussianState.thermal(0.0)) == \
        pytest.approx(0.9231163463866358, abs=1e-15)


def test_asymptotic_rate():
    assert fidelity_gen_asymptotic_rate(
        SystemParams(g=0.2, kappa=0.1)) == pytest.approx(
            0.015841584158415845, abs=1e-18)
    assert fidelity_gen_asymptotic_rate(SystemParams(g=0.2, kappa=0.0)) == 0.0
    # and the rate is what -ln F actually does at late times
    p = SystemParams(g=0.2, kappa=0.1)
    init = GaussianState.thermal(0.0)
    t1, t2 = 100.0, 200.0
    slope = (np.log(fidelity_generalized(t1, p, init))
             - np.log(fidelity_generalized(t2, p, init))) / (t2 - t1)
    # residual transient at t = 100 is of order exp(-kappa t) ~ 5e-5
    assert slope == pytest.approx(fidelity_gen_asymptotic_rate(p), abs=1e-6)


def test_uj_gaussian_basics():
    v1 = GaussianState.coherent(0.0, 0.0)
    assert fidelity_uj_gaussian(v1, v1) == pytest.approx(1.0, abs=1e-14)
    th = GaussianState.thermal(1.3)
    assert fidelity_uj_gaussian(th, th) == pytest.approx(1.0, abs=1e-13)
    # displaced vacua reproduce the coherent-state overlap exp(-|dx|^2/2)
    v2 = GaussianState.coherent(1.0, -0.5)
    assert fidelity_uj_gaussian(v1, v2) == pytest.approx(
        np.exp(-1.25 / 2), rel=1e-13)


def test_uj_gaussian_takes_a_covariance_within_its_det_tolerance():
    # det - 1/4 = -9.5e-13 lies inside DET_COV_TOL: the state is valid, and
    # against a thermal state it counts as the vacuum, F = 1/(1 + nbar)
    vacuum = GaussianState(PhaseVector(0.0, 0.0), Covariance2(0.5, 0.0, 0.5 - 1.9e-12))
    thermal = GaussianState.thermal(3.0)
    for pair in ((thermal, vacuum), (vacuum, thermal)):
        assert fidelity_uj_gaussian(*pair) == pytest.approx(0.25, abs=1e-12)


def test_uj_blocks_matches_gaussian_formula():
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = SystemParams(g=0.3 * (1 - rng.random()),
                         kappa=0.2 * (1 - rng.random()),
                         nbar=2 * rng.random(), mbar=2 * rng.random())
        t = 20 * rng.random()
        up, down = diag_block_gaussians(t, p, GaussianState.thermal(p.mbar))
        direct = fidelity_uj_gaussian(up, down)
        assert fidelity_uj_blocks(t, p, p.M) == pytest.approx(
            direct, rel=1e-12)


def test_uj_longtime_limit():
    p = SystemParams(g=0.2, kappa=0.1, nbar=0.0)
    lim = fidelity_uj_limit(p)
    assert fidelity_uj_blocks(300.0, p, 0.5) == pytest.approx(lim, abs=1e-6)
    # the limit does not depend on the initial variance
    assert fidelity_uj_blocks(300.0, p, 2.0) == pytest.approx(lim, abs=1e-6)


def test_uj_oscillation_period():
    p = SystemParams(g=0.2, kappa=0.01, nbar=0.0)
    ts = np.arange(0.0, 60.0, 0.01)
    f = fidelity_uj_blocks(ts, p, 0.5)
    interior = (f[1:-1] < f[:-2]) & (f[1:-1] < f[2:])
    t_min = ts[1:-1][interior]
    assert len(t_min) >= 8
    gaps = np.diff(t_min)
    assert np.max(np.abs(gaps - 2 * np.pi)) < 0.05


def test_purities_at_time_zero():
    p = SystemParams(g=0.2, kappa=0.1, nbar=0.5, mbar=1.0)
    q = QubitInitState.balanced()
    assert purity_qubit(0.0, p, p.M, q) == pytest.approx(1.0, abs=1e-14)
    assert purity_oscillator(0.0, p, p.M, q) == pytest.approx(
        1.0 / (2 * p.M), abs=1e-14)
    mixed = QubitInitState(0.7, 0.3, 0.1)
    assert purity_qubit(0.0, p, p.M, mixed) == pytest.approx(
        0.49 + 0.09 + 2 * 0.01, abs=1e-14)


def test_purity_free_thermalization():
    # g = 0: oscillator purity is 1/(2 sigma_s), rising toward 1 when the
    # bath is colder than the initial state
    p = SystemParams(g=0.0, kappa=0.1, nbar=0.0, mbar=2.0)
    q = QubitInitState.balanced()
    ts = np.linspace(0.0, 60.0, 400)
    pur = purity_oscillator(ts, p, p.M, q)
    sig = 0.5 + 2.0 * np.exp(-2 * p.kappa * ts)
    assert np.max(np.abs(pur - 1 / (2 * sig))) < 1e-13
    assert np.all(np.diff(pur) > 0)
    assert pur[-1] == pytest.approx(1.0, abs=5e-5)


def test_qubit_purity_tracks_coherence():
    p = SystemParams(g=0.15, kappa=0.08, nbar=0.6)
    q = QubitInitState(0.6, 0.4, 0.2 - 0.1j)
    t = 7.0
    fgen = fidelity_generalized(t, p, GaussianState.thermal(p.mbar))
    want = 0.36 + 0.16 + 2 * abs(0.2 - 0.1j) ** 2 * fgen
    assert purity_qubit(t, p, p.M, q) == pytest.approx(want, rel=1e-13)


def test_scaling_degeneracy_of_generalized_fidelity():
    # (g, M, N) -> (c g, M/c^2, N/c^2) leaves F_gen unchanged; this is why
    # fitting requires M to be known
    p1 = SystemParams(g=0.1, kappa=0.08, nbar=1.5, mbar=1.5)  # M=2, N=4
    p2 = SystemParams(g=0.2, kappa=0.08, nbar=0.0, mbar=0.0)  # M=1/2, N=1
    ts = np.linspace(0.1, 30.0, 57)
    f1 = fidelity_generalized(ts, p1, GaussianState.thermal(p1.mbar))
    f2 = fidelity_generalized(ts, p2, GaussianState.thermal(p2.mbar))
    assert np.max(np.abs(np.log(f1) - np.log(f2))) < 1e-13


def test_monotone_in_coupling():
    p_small = SystemParams(g=0.05, kappa=0.1, nbar=0.3)
    p_big = SystemParams(g=0.2, kappa=0.1, nbar=0.3)
    init = GaussianState.thermal(0.5)
    ts = np.linspace(0.01, 40.0, 500)
    f_small = fidelity_generalized(ts, p_small, init)
    f_big = fidelity_generalized(ts, p_big, init)
    assert np.all(f_big <= f_small + 1e-15)


def _unchecked_thermal(M):
    """A thermal start of variance M, built past Covariance2's own check."""
    cov = Covariance2.isotropic(0.5)
    for name in ("s11", "s22"):
        object.__setattr__(cov, name, M)
    return GaussianState(PhaseVector(0.0, 0.0), cov)


def test_uj_validation():
    # every thermal measure meets the one M check, Covariance2's
    p, q = SystemParams(g=0.1, kappa=0.1), QubitInitState.balanced()
    for M in (0.2, 0.3, float("nan")):
        with pytest.raises(ValidationError):
            fidelity_uj_blocks(1.0, p, M=M)
        for purity in (purity_qubit, purity_oscillator):
            with pytest.raises(ValidationError):
                purity(1.0, p, M, q)
        with pytest.raises(ValidationError):
            fidelity._curve_columns(np.linspace(0.0, 5.0, 11), p,
                                    _unchecked_thermal(M), q)


def test_curve_columns_take_each_pass_once(monkeypatch):
    p = SystemParams(g=0.15, kappa=0.08, nbar=0.6, mbar=1.3)
    q, ts = QubitInitState(0.6, 0.4, 0.2 - 0.1j), np.linspace(0.0, 40.0, 801)
    calls = {}
    for name in ("fidelity_generalized", "_thermal_blocks"):
        def counted(*args, _name=name, _original=getattr(fidelity, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(fidelity, name, counted)
    cols = fidelity._curve_columns(ts, p, GaussianState.thermal(p.mbar), q)
    assert calls == {"fidelity_generalized": 1, "_thermal_blocks": 1}
    monkeypatch.undo()
    # the public measures read their columns bit for bit
    for name, value in (("fuj", fidelity_uj_blocks(ts, p, p.M)),
                        ("purity_qubit", purity_qubit(ts, p, p.M, q)),
                        ("purity_oscillator", purity_oscillator(ts, p, p.M, q))):
        assert value.dtype == cols[name].dtype
        assert value.tobytes() == cols[name].tobytes(), name


def test_closed_form_overflow_is_refused():
    # SystemParams accepts g = 1e153, but delta(t) overflows on the way to
    # -ln F, and at kappa = 0 the bath term would be 0 * inf
    p = SystemParams(g=1e153, kappa=0.0)
    with pytest.raises(ValidationError, match="overflows a float"):
        fidelity_generalized(50.0, p, GaussianState.thermal(0.0))
    with pytest.raises(ValidationError, match="overflows a float"):
        fidelity_uj_blocks(100.0, SystemParams(g=0.1, kappa=0.1, nbar=1e307), 0.5)


def test_thermal_measures_accept_m_just_below_half():
    # M = 1/2 - 1e-13 is inside the M >= 1/2 tolerance of every thermal measure
    p, q, M = SystemParams(g=0.1, kappa=0.1), QubitInitState.balanced(), 0.5 - 1e-13
    assert fidelity_uj_blocks(1.0, p, M) == pytest.approx(0.98349, abs=1e-5)
    assert purity_oscillator(1.0, p, M, q) == pytest.approx(0.99174, abs=1e-5)
    assert purity_qubit(1.0, p, M, q) == pytest.approx(
        purity_qubit(1.0, p, 0.5, q), rel=0.0, abs=1e-12)
