"""Closed-form propagation kernels against their defining integrals."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exprel

from oscprobe import (Covariance2, GaussianState, PhaseVector,
                      QubitInitState, SystemParams, ValidationError,
                      chord_block_diag, chord_block_offdiag,
                      coherence_trace, diag_block_gaussians,
                      displacement_vector, fidelity_generalized,
                      fundamental_matrix, reduced_wigner, reduced_wigner_grid,
                      wigner_eval, wigner_lobe_centers)
from oscprobe.propagator import (_alpha, _delta, _dsq, _dsq_prime,
                                 _eta_components, _evolved_covariance,
                                 _exprel, _gamma_components)


def random_params(rng):
    return SystemParams(g=0.3 * (1 - rng.random()),
                        kappa=0.2 * (1 - rng.random()),
                        nbar=2 * rng.random(), mbar=2 * rng.random())


def test_fundamental_matrix_group_properties():
    rng = np.random.default_rng(11)
    assert np.allclose(fundamental_matrix(0.0, 0.17), np.eye(2), atol=1e-15)
    for _ in range(100):
        k = 0.3 * rng.random()
        t, s = 10 * rng.random(size=2) - 5
        lhs = fundamental_matrix(t + s, k)
        rhs = fundamental_matrix(t, k) @ fundamental_matrix(s, k)
        assert np.allclose(lhs, rhs, atol=1e-12 * np.abs(lhs).max())
        assert np.linalg.det(fundamental_matrix(t, k)) == pytest.approx(
            np.exp(2 * k * t), rel=1e-12)
        inv = np.linalg.inv(fundamental_matrix(t, k))
        assert np.allclose(fundamental_matrix(-t, k), inv,
                           atol=1e-12 * np.abs(inv).max())
    # e^{kappa t} past the float range is a validation error, not an overflow
    with pytest.raises(ValidationError):
        fundamental_matrix(8000.0, 0.1)


def test_displacement_at_zero_and_negative_time():
    p = SystemParams(g=0.2, kappa=0.1)
    assert displacement_vector(0.0, p).norm() == 0.0
    with pytest.raises(ValidationError):
        displacement_vector(-0.5, p)


def test_eta_and_dsq_identities():
    # |eta|^2 = |d|^2 = 4 g^2 (e^{-2kt} - 2 e^{-kt} cos t + 1)/(1 + k^2)
    rng = np.random.default_rng(5)
    for _ in range(1000):
        g = 0.3 * (1 - rng.random())
        k = 0.2 * (1 - rng.random())
        t = 20.0 * (1 - rng.random())
        e1, e2 = _eta_components(t, g, k)
        closed = (4 * g * g / (1 + k * k)
                  * (np.exp(-2 * k * t) - 2 * np.exp(-k * t) * np.cos(t) + 1))
        assert abs((e1 * e1 + e2 * e2) - closed) < 1e-12
        assert abs(_dsq(t, g, k) - closed) < 1e-12
        p = SystemParams(g=g, kappa=k)
        d = displacement_vector(t, p)
        assert abs(d.norm() ** 2 - closed) < 1e-12
        # eta is the quarter-turn image of d: eta = (-d2, -d1)
        assert e1 == pytest.approx(-d.x2, abs=1e-15)
        assert e2 == pytest.approx(-d.x1, abs=1e-15)


def test_delta_gamma_alpha_against_quadrature():
    rng = np.random.default_rng(21)
    opts = dict(limit=400, epsabs=1e-12, epsrel=1e-12)
    for _ in range(12):
        g = 0.3 * (1 - rng.random())
        k = 0.2 * (1 - rng.random())
        t = 20.0 * (1 - rng.random())
        nb = 2 * rng.random()
        dq = quad(lambda u: _dsq(u, g, k), 0, t, **opts)[0]
        assert abs(dq - _delta(t, g, k)) < 1e-9

        def gamma_integrand(u, row):
            e = np.array(_eta_components(u, g, k))
            return 2.0 * (fundamental_matrix(-u, k).T @ e)[row]

        g1, g2 = _gamma_components(t, g, k)
        assert abs(quad(gamma_integrand, 0, t, args=(0,), **opts)[0] - g1) < 1e-9
        assert abs(quad(gamma_integrand, 0, t, args=(1,), **opts)[0] - g2) < 1e-9
        gp = k * (2 * nb + 1)
        aq = gp * quad(lambda u: np.exp(-2 * k * u), 0, t, **opts)[0]
        assert abs(aq - _alpha(t, k, nb)) < 1e-9


def test_dsq_prime_is_derivative():
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(50):
        g = 0.3 * (1 - rng.random())
        k = 0.2 * (1 - rng.random())
        t = 0.5 + 19.0 * rng.random()
        fd = (_dsq(t + h, g, k) - _dsq(t - h, g, k)) / (2 * h)
        assert fd == pytest.approx(_dsq_prime(t, g, k), abs=2e-9)


def test_undamped_limit_is_stable():
    # kappa -> 0 must not hit 0/0: delta(t) -> 8 g^2 (t - sin t)
    assert _delta(2 * np.pi, 0.1, 0.0) == pytest.approx(
        0.5026548245743669, abs=1e-15)
    for t in (0.3, 2.0, 7.7, 19.0):
        assert _delta(t, 0.1, 1e-12) == pytest.approx(
            _delta(t, 0.1, 0.0), rel=1e-9)
        g1a, g2a = _gamma_components(t, 0.1, 1e-12)
        g1b, g2b = _gamma_components(t, 0.1, 0.0)
        assert g1a == pytest.approx(g1b, abs=1e-9)
        assert g2a == pytest.approx(g2b, abs=1e-9)
        assert _dsq(t, 0.1, 0.0) == pytest.approx(
            8 * 0.01 * (1 - np.cos(t)), abs=1e-15)
    assert _alpha(1.0, 0.1, 1.0) == pytest.approx(
        0.27190387038302727, abs=1e-15)
    assert _alpha(5.0, 0.0, 1.0) == 0.0


def test_evolved_covariance_stays_physical():
    rng = np.random.default_rng(8)
    for _ in range(64):
        p = random_params(rng)
        ts = 20 * rng.random(16)
        s11, s12, s22 = _evolved_covariance(ts, p, GaussianState.thermal(p.mbar).cov)
        assert np.all(s11 > 0.0) and np.all(s22 > 0.0)
        assert np.all(s11 * s22 - s12 * s12 >= 0.25 - 1e-10)


def test_evolved_covariance_matches_fundamental_matrix():
    # squeezed, rotated start: alpha I + R^T(-t) sigma0 R(-t) entry by entry
    p = SystemParams(g=0.15, kappa=0.07, nbar=0.8, mbar=0.3)
    sigma0 = Covariance2(1.9, 0.55, 0.4)
    ts = np.array([0.0, 0.3, 4.2, 11.0, 37.5])
    s11, s12, s22 = _evolved_covariance(ts, p, sigma0)
    for i, t in enumerate(ts):
        rm = fundamental_matrix(-t, p.kappa)
        want = _alpha(t, p.kappa, p.nbar) * np.eye(2) + rm.T @ sigma0.as_matrix() @ rm
        got = np.array([[s11[i], s12[i]], [s12[i], s22[i]]])
        assert np.allclose(got, want, rtol=1e-13, atol=1e-15)
    # an overflowing forward R(t) is never formed
    assert np.all(np.isfinite(_evolved_covariance(8000.0, p, sigma0)))


def test_exprel_matches_scipy_within_two_ulp():
    rng = np.random.default_rng(41)
    points = [0.0, -0.0, 5e-324, -5e-324, 1e-16, -1e-16, 2.3e-16, -2.3e-16,
              -700.0]
    x = np.concatenate([-10.0 ** rng.uniform(-20.0, 3.0, 20_000),
                        -rng.uniform(0.0, 50.0, 20_000), points])
    got, want = _exprel(x), exprel(x)
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want))
    assert _exprel(0.0) == 1.0 and _exprel(-0.0) == 1.0
    assert np.ndim(_exprel(-0.3)) == 0 and isinstance(_exprel(-0.3), float)


def test_coherence_trace_array_matches_scalar_calls():
    rng = np.random.default_rng(12)
    ts = np.linspace(0.0, 30.0, 61)
    for i in range(24):
        p = replace(random_params(rng), delta=0.3 * (i % 2))
        init = (GaussianState.thermal(p.mbar),
                GaussianState.coherent(*rng.normal(size=2)),
                GaussianState(PhaseVector(*rng.normal(size=2)),
                              Covariance2(1.2, 0.3, 0.6)))[i % 3]
        got = coherence_trace(ts, p, init)
        want = np.array([coherence_trace(t, p, init) for t in ts])
        assert got.shape == ts.shape
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15
    assert type(coherence_trace(2.0, p, init)) is complex


def test_diag_chord_hermiticity_and_sign_flip():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_params(rng)
        init = GaussianState.thermal(p.mbar)
        t = 15 * rng.random()
        r = 3 * rng.normal(size=2)
        up = chord_block_diag(r, t, p, init, +1)
        assert chord_block_diag(-r, t, p, init, +1) == pytest.approx(
            np.conj(up), abs=1e-14)
        # flipping the qubit is the same as flipping the coupling sign
        flipped = SystemParams(g=-p.g, kappa=p.kappa, nbar=p.nbar,
                               mbar=p.mbar)
        assert chord_block_diag(r, t, p, init, -1) == pytest.approx(
            chord_block_diag(r, t, flipped, init, +1), abs=1e-14)
        # a thermal start makes the two conditional states mirror images
        down = chord_block_diag(r, t, p, init, -1)
        assert down == pytest.approx(np.conj(up), abs=1e-14)
        assert down == pytest.approx(chord_block_diag(-r, t, p, init, +1),
                                     abs=1e-14)
    with pytest.raises(ValidationError):
        chord_block_diag((0.0, 0.0), 1.0, p, init, 2)


def test_diag_chord_normalization():
    p = SystemParams(g=0.2, kappa=0.1, nbar=0.5, mbar=1.0)
    init = GaussianState.thermal(p.mbar)
    for t in (0.0, 1.0, 8.0):
        assert chord_block_diag((0.0, 0.0), t, p, init, +1) == pytest.approx(
            1.0, abs=1e-14)


def test_offdiag_chord_origin_is_coherence_trace():
    rng = np.random.default_rng(17)
    for _ in range(20):
        p = random_params(rng)
        init = GaussianState.thermal(p.mbar)
        t = 15 * rng.random()
        tr = coherence_trace(t, p, init)
        assert chord_block_offdiag((0.0, 0.0), t, p, init) == pytest.approx(
            tr, abs=1e-14)
        assert abs(tr) ** 2 == pytest.approx(
            fidelity_generalized(t, p, init), rel=1e-12)


def test_detuning_only_rotates_coherence_phase():
    base = SystemParams(g=0.1, kappa=0.05, nbar=0.2)
    det = SystemParams(g=0.1, kappa=0.05, delta=0.7, nbar=0.2)
    init = GaussianState.thermal(0.0)
    for t in (0.5, 3.0, 12.0):
        c0 = coherence_trace(t, base, init)
        c1 = coherence_trace(t, det, init)
        assert c1 == pytest.approx(c0 * np.exp(-1j * 0.7 * t), abs=1e-14)
        assert abs(c1) == pytest.approx(abs(c0), abs=1e-14)


def test_diag_block_gaussian_centers():
    p = SystemParams(g=0.3, kappa=0.08, nbar=0.4, mbar=0.0)
    x0 = np.array([1.2, -0.6])
    init = GaussianState.coherent(*x0)
    t = 5.0
    up, down = diag_block_gaussians(t, p, init)
    drift = fundamental_matrix(-t, p.kappa).T @ x0
    d = displacement_vector(t, p).as_array()
    assert np.allclose(up.center.as_array(), drift - d / 2, atol=1e-13)
    assert np.allclose(down.center.as_array(), drift + d / 2, atol=1e-13)
    assert np.allclose(up.cov.as_matrix(), down.cov.as_matrix(), atol=1e-15)


def test_reduced_wigner_at_time_zero_matches_init():
    p = SystemParams(g=0.2, kappa=0.1, nbar=0.3, mbar=0.7)
    init = GaussianState.thermal(p.mbar)
    q = QubitInitState(0.6, 0.4, 0.3 + 0.2j)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = 2 * rng.normal(size=2)
        assert reduced_wigner(x, 0.0, p, init, q) == pytest.approx(
            wigner_eval(init, x), abs=1e-13)


def test_reduced_wigner_grid_layout_and_mass():
    p = SystemParams(g=0.4, kappa=0.1, nbar=0.2)
    init = GaussianState.thermal(0.0)
    q = QubitInitState.balanced()
    qs = np.arange(-6.0, 6.0 + 0.025, 0.05)
    ps = np.arange(-5.0, 5.0 + 0.025, 0.05)
    w = reduced_wigner_grid(qs, ps, 3.0, p, init, q)
    assert w.shape == (ps.size, qs.size)
    i, j = 37, 11
    assert w[j, i] == pytest.approx(
        reduced_wigner((qs[i], ps[j]), 3.0, p, init, q), abs=1e-14)
    assert w.sum() * 0.05 ** 2 == pytest.approx(1.0, abs=1e-5)


def test_lobe_centers_on_synthetic_grid():
    # well-separated lobes (overlap ~ exp(-d^2/2 sigma) below 1e-5)
    p = SystemParams(g=1.2, kappa=0.05, nbar=0.1)
    init = GaussianState.thermal(0.0)
    q = QubitInitState.balanced()
    t = 9.0
    ax = np.arange(-6.0, 6.0 + 0.025, 0.05)
    w = reduced_wigner_grid(ax, ax, t, p, init, q)
    up, down = diag_block_gaussians(t, p, init)
    c1, c2 = wigner_lobe_centers(ax, ax, w)
    got = sorted([tuple(c1), tuple(c2)])
    want = sorted([tuple(up.center.as_array()), tuple(down.center.as_array())])
    for a, b in zip(got, want):
        assert np.allclose(a, b, atol=1e-4)
