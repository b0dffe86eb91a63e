"""Phase-space containers, chord/Wigner evaluation, input validation."""

import numpy as np
import pytest

from oscprobe import (Covariance2, GaussianState, PhaseVector, QubitInitState,
                      SystemParams, ValidationError, chord_eval,
                      occupation_from_temperature, wigner_eval)


def test_occupation_from_temperature():
    # 1/(e^{1/T} - 1) at T = 1
    assert occupation_from_temperature(1.0) == pytest.approx(
        0.5819767068693265, abs=1e-15)
    assert occupation_from_temperature(1e-6) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValidationError):
        occupation_from_temperature(0.0)
    with pytest.raises(ValidationError):
        occupation_from_temperature(-1.0)


def test_chord_coherent_values():
    st = GaussianState.coherent(1.0, 0.0)
    # exp(i x0.r - r.sigma.r/2) with sigma = I/2
    assert chord_eval(st, (0.0, 1.0)) == pytest.approx(
        0.7788007830714049, abs=1e-15)
    w = chord_eval(st, (1.0, 0.0))
    assert w == pytest.approx(np.exp(1j) * np.exp(-0.25), abs=1e-15)
    assert chord_eval(st, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-15)


def test_wigner_ground_and_thermal_values():
    ground = GaussianState.coherent(0.0, 0.0)
    assert wigner_eval(ground, (0.0, 0.0)) == pytest.approx(
        1.0 / np.pi, abs=1e-15)
    th = GaussianState.thermal(1.0)  # variance M = 1.5
    assert wigner_eval(th, (1.0, 1.0)) == pytest.approx(
        0.05447524824135803, abs=1e-15)


def test_wigner_grid_normalization():
    th = GaussianState.thermal(1.0)
    step = 0.1
    ax = np.arange(-8.0, 8.0 + step / 2, step)
    qq, pp = np.meshgrid(ax, ax)
    total = sum(wigner_eval(th, (q, p)) for q, p in zip(qq.ravel(), pp.ravel()))
    assert total * step ** 2 == pytest.approx(1.0, abs=1e-6)


def test_chord_wigner_fourier_pair():
    # W(x) = (2pi)^-2 integral w(r) exp(-i x.r) d^2 r, checked on a grid
    rng = np.random.default_rng(3)
    for _ in range(5):
        x0 = rng.normal(size=2)
        s11 = 0.5 + rng.random()
        s22 = 0.5 + rng.random()
        s12 = 0.3 * rng.random() * np.sqrt(s11 * s22)
        st = GaussianState(PhaseVector(*x0), Covariance2(s11, s12, s22))
        step = 0.1
        ax = np.arange(-12.0, 12.0 + step / 2, step)
        kk, ss = np.meshgrid(ax, ax, indexing="ij")
        w = np.array([chord_eval(st, (k, s))
                      for k, s in zip(kk.ravel(), ss.ravel())])
        w = w.reshape(kk.shape)
        for x in (x0, x0 + [0.5, -0.3]):
            phase = np.exp(-1j * (kk * x[0] + ss * x[1]))
            val = (w * phase).sum().real * step ** 2 / (2 * np.pi) ** 2
            assert val == pytest.approx(wigner_eval(st, x), abs=1e-4)


def test_chord_derivatives_encode_moments():
    # d/d(ik) log w at r=0 gives <x>, second derivative gives the variance
    st = GaussianState(PhaseVector(0.7, -0.4), Covariance2(0.9, 0.2, 1.3))
    h = 1e-3
    wp = chord_eval(st, (h, 0.0))
    wm = chord_eval(st, (-h, 0.0))
    w0 = chord_eval(st, (0.0, 0.0))
    mean_q = ((wp - wm) / (2 * h)).imag
    var_q = -((wp - 2 * w0 + wm) / h ** 2).real - mean_q ** 2
    assert mean_q == pytest.approx(0.7, abs=1e-6)
    assert var_q == pytest.approx(0.9, abs=1e-5)


def test_phase_vector_roundtrip_and_validation():
    v = PhaseVector(1.5, -2.0)
    assert np.allclose(PhaseVector.from_array(v.as_array()).as_array(),
                       [1.5, -2.0])
    assert v.norm() == pytest.approx(2.5)
    with pytest.raises(ValidationError):
        PhaseVector(np.nan, 0.0)
    with pytest.raises(ValidationError):
        PhaseVector.from_array([1.0, 2.0, 3.0])


def test_covariance_validation():
    with pytest.raises(ValidationError):
        Covariance2(0.5, 0.4, 0.5)  # det = 0.09 < 1/4
    with pytest.raises(ValidationError):
        Covariance2(-0.5, 0.0, 0.5)
    c = Covariance2.isotropic(1.0)
    assert c.det == pytest.approx(1.0)
    assert np.allclose(c.inverse(), np.eye(2))
    iso = Covariance2.isotropic(0.5)
    assert iso.det == pytest.approx(0.25)


def test_qubit_init_validation():
    q = QubitInitState.balanced()
    assert q.a00 == q.a11 == 0.5
    assert q.a01 == 0.5 + 0j
    with pytest.raises(ValidationError):
        QubitInitState(0.7, 0.7, 0.1)  # populations exceed 1
    with pytest.raises(ValidationError):
        QubitInitState(0.5, 0.5, 0.8)  # |a01|^2 > a00 a11
    QubitInitState(0.8, 0.2, 0.2 + 0.3j)  # |a01|^2 = 0.13 <= 0.16


def test_system_params_validation_and_derived():
    p = SystemParams(g=0.1, kappa=0.05, nbar=0.3, mbar=0.5)
    assert p.N == pytest.approx(1.6)
    assert p.M == pytest.approx(1.0)
    assert p.gamma_plus == pytest.approx(0.05 * 1.6)
    with pytest.raises(ValidationError):
        SystemParams(g=0.1, kappa=-0.1)
    with pytest.raises(ValidationError):
        SystemParams(g=0.1, kappa=0.1, nbar=-0.2)
    with pytest.raises(ValidationError):
        SystemParams(g=np.inf, kappa=0.1)
