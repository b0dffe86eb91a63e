"""Truncated number-basis oracle: operators, evolution, chord/Wigner readout."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from oscprobe import (BlockDensityMatrix, GaussianState, OracleConfig,
                      PhaseVector, SystemParams, TruncationLeakError,
                      ValidationError, build_operators, chord_eval,
                      chord_from_matrix, chord_grid_from_matrix,
                      coherence_trace, coherent_block, compare_point,
                      default_dim, displaced_thermal_block, evolve_block,
                      evolve_thermal_blocks, fidelity_uj_gaussian,
                      thermal_block, uhlmann_fidelity,
                      wigner_grid_from_matrix)
from oscprobe import fock
from oscprobe.fock import SIZING_TOL, _bounding_gaussian, _tail_weight
from oscprobe.phase_space import Covariance2, QubitInitState


def number_expectation(block):
    return float(np.real(np.trace(
        np.diag(np.arange(block.dim)) @ block.entries)))


def test_operator_algebra():
    p = SystemParams(g=0.17, kappa=0.1, nbar=0.4)
    ops = build_operators(24, p)
    a = ops.a.toarray()
    ad = ops.adag.toarray()
    comm = a @ ad - ad @ a
    # truncation corrupts only the last diagonal entry
    assert np.allclose(comm[:-1, :-1], np.eye(23), atol=1e-13)
    x = ops.x.toarray()
    pm = ops.p.toarray()
    assert np.allclose(x, x.conj().T, atol=1e-14)
    assert np.allclose(pm, pm.conj().T, atol=1e-14)
    assert np.allclose(x, (a + ad) / np.sqrt(2), atol=1e-14)
    hp = ops.h_plus.toarray()
    hm = ops.h_minus.toarray()
    assert np.allclose(hp - hm, 2 * p.g * x, atol=1e-14)
    assert np.allclose(hp + hm, 2 * (ad @ a + 0.5 * np.eye(24)), atol=1e-13)


def test_initial_blocks():
    th = thermal_block(40, 0.8)
    assert th.trace == pytest.approx(1.0, abs=1e-14)
    assert number_expectation(th) == pytest.approx(0.8, abs=1e-10)
    co = coherent_block(40, 1.0, -0.5)
    assert co.trace == pytest.approx(1.0, abs=1e-14)
    assert number_expectation(co) == pytest.approx(
        (1.0 + 0.25) / 2, abs=1e-10)
    dt = displaced_thermal_block(50, 0.7, 1.0, -0.5)
    assert dt.trace == pytest.approx(1.0, abs=1e-12)
    assert number_expectation(dt) == pytest.approx(
        0.7 + 1.25 / 2, abs=1e-8)


def test_default_dim_is_the_smallest_clean_size():
    # one level fewer puts the bounding Gaussian's top level over the target
    for p in (SystemParams(g=0.1, kappa=0.1),
              SystemParams(g=0.05, kappa=0.1, nbar=0.0, mbar=2.0),
              SystemParams(g=0.3, kappa=0.01, nbar=2.0, mbar=0.5),
              SystemParams(g=1.5, kappa=0.05, nbar=0.2)):
        dim = default_dim(p)
        rho = _bounding_gaussian(p, 4 * dim)
        assert _tail_weight(rho[:dim - 1, :dim - 1]) >= SIZING_TOL
        assert all(_tail_weight(rho[:n, :n]) < SIZING_TOL
                   for n in range(dim, 2 * dim))


def test_diag_evolution_preserves_trace_and_hermiticity():
    p = SystemParams(g=0.2, kappa=0.12, nbar=0.5, mbar=1.0)
    cfg = OracleConfig(dim=45)
    out = evolve_block(thermal_block(45, 1.0), p, cfg, 6.0)
    assert out.trace == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(out.entries - out.entries.conj().T)) < 1e-10
    vals = np.linalg.eigvalsh(0.5 * (out.entries + out.entries.conj().T))
    assert vals.min() > -1e-10


def test_matched_bath_is_stationary():
    p = SystemParams(g=0.0, kappa=0.15, nbar=0.8, mbar=0.8)
    cfg = OracleConfig(dim=40)
    init = thermal_block(40, 0.8)
    out = evolve_block(init, p, cfg, 5.0)
    assert np.max(np.abs(out.entries - init.entries)) < 1e-10


def test_occupation_relaxes_at_rate_two_kappa():
    p = SystemParams(g=0.0, kappa=0.15, nbar=0.2, mbar=1.0)
    cfg = OracleConfig(dim=40)
    for t in (0.5, 3.0):
        out = evolve_block(thermal_block(40, 1.0), p, cfg, t)
        want = 0.2 + 0.8 * np.exp(-2 * 0.15 * t)
        assert number_expectation(out) == pytest.approx(want, abs=1e-8)


def test_integrator_backends_agree():
    p = SystemParams(g=0.18, kappa=0.07, nbar=0.3, mbar=0.6)
    init = thermal_block(35, 0.6, "01")
    rk = evolve_block(init, p, OracleConfig(dim=35, method="rk"), 4.0)
    ex = evolve_block(init, p, OracleConfig(dim=35, method="expm"), 4.0)
    assert np.max(np.abs(rk.entries - ex.entries)) < 1e-10


def test_rk_matches_scipy_dop853_reference():
    # scipy's Python DOP853 (the previous backend) as an independent reference
    from scipy.integrate import solve_ivp
    p = SystemParams(g=0.18, kappa=0.07, delta=0.3, nbar=0.3, mbar=0.6)
    ops = build_operators(35, p)
    for block in ("00", "11", "01"):
        liou = ops.liouvillian(block)
        v0 = thermal_block(35, 0.6, block).entries.reshape(-1)
        ref = solve_ivp(lambda _t, v: liou.dot(v), (0.0, 6.0), v0,
                        method="DOP853", rtol=1e-10, atol=1e-12, t_eval=(6.0,))
        sol = fock.solve_ivp(liou, v0, 6.0, 1e-10, 1e-12)
        assert sol.success and sol.nfev > 0
        assert np.max(np.abs(sol.y - ref.y[:, -1])) <= 1e-9


def test_non_finite_generator_fails_with_its_return_code(monkeypatch):
    p = SystemParams(g=0.1, kappa=0.1)
    init = thermal_block(8, 0.0)
    good = fock.OperatorSet.liouvillian

    def poisoned(self, block):
        liou = good(self, block).tolil()
        liou[1, 1] = np.nan
        return liou.tocsr()

    sol = fock.solve_ivp(poisoned(build_operators(8, p), "00"),
                         init.entries.reshape(-1), 1.0, 1e-10, 1e-12)
    assert not sol.success and sol.status < 0
    monkeypatch.setattr(fock.OperatorSet, "liouvillian", poisoned)
    with pytest.raises(ValidationError, match=f"return code {sol.status}"):
        evolve_block(init, p, OracleConfig(dim=8), 1.0)


def test_repeated_evolutions_keep_memory_flat():
    # each call builds a new generator; none of them may stay referenced
    def run(i):
        p = SystemParams(g=0.1 + 0.002 * i, kappa=0.07, nbar=0.3, mbar=0.6)
        evolve_block(thermal_block(30, 0.6), p, OracleConfig(dim=30), 1.0)

    run(0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(1, 41):
            run(i)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 2e6


def test_truncation_guard():
    p = SystemParams(g=0.1, kappa=0.1, nbar=0.0, mbar=2.0)
    with pytest.raises(TruncationLeakError) as exc:
        evolve_block(thermal_block(10, 2.0), p, OracleConfig(dim=10), 1.0)
    assert exc.value.suggested_dim == 20


def test_auto_dim_is_sized_once():
    p = SystemParams(g=0.05, kappa=0.1, nbar=0.0, mbar=2.0)
    blocks = evolve_thermal_blocks(p, OracleConfig(), 2.0)
    assert blocks["dim"] == default_dim(p)
    assert blocks["dims_tried"] == [default_dim(p)]
    assert blocks["00"].trace == pytest.approx(1.0, abs=1e-9)
    rep = compare_point(p, QubitInitState.balanced(), OracleConfig(), 2.0)
    assert rep["dims_tried"] == [rep["dim"]]
    assert rep["leak_retries"] == 0


def test_auto_doubling_picks_a_clean_dim(monkeypatch):
    p = SystemParams(g=0.05, kappa=0.1, nbar=0.0, mbar=2.0)
    small = (default_dim(p) + 1) // 2
    monkeypatch.setattr(fock, "default_dim", lambda params: small)
    rep = compare_point(p, QubitInitState.balanced(), OracleConfig(), 2.0)
    assert rep["dims_tried"] == [small, 2 * small]
    assert rep["leak_retries"] == 1
    assert rep["dim"] == 2 * small
    assert rep["dev_fgen"] < 1e-8


def test_chord_of_vacuum():
    vac = coherent_block(30, 0.0, 0.0)
    rng = np.random.default_rng(6)
    for _ in range(8):
        r = 2.5 * rng.normal(size=2)
        want = np.exp(-0.25 * (r @ r))
        assert chord_from_matrix(vac, r) == pytest.approx(want, abs=1e-12)


def test_chord_matches_gaussian_states():
    th = thermal_block(60, 0.7)
    g_th = GaussianState.thermal(0.7)
    dt = displaced_thermal_block(60, 0.7, 1.0, -0.5)
    g_dt = GaussianState(PhaseVector(1.0, -0.5), Covariance2.isotropic(1.2))
    rng = np.random.default_rng(12)
    for _ in range(10):
        r = 1.5 * rng.normal(size=2)
        assert chord_from_matrix(th, r) == pytest.approx(
            chord_eval(g_th, r), abs=1e-10)
        assert chord_from_matrix(dt, r) == pytest.approx(
            chord_eval(g_dt, r), abs=1e-10)


def test_chord_grid_matches_pointwise():
    rho = displaced_thermal_block(40, 0.4, 0.8, 0.3)
    ks = np.linspace(-2.0, 2.0, 7)
    ss = np.linspace(-1.0, 3.0, 5)
    grid = chord_grid_from_matrix(rho, ks, ss)
    assert grid.shape == (7, 5)
    for i, k in enumerate(ks):
        for j, s in enumerate(ss):
            assert grid[i, j] == pytest.approx(
                chord_from_matrix(rho, (k, s)), abs=1e-12)


def test_wigner_grid_of_vacuum():
    vac = coherent_block(30, 0.0, 0.0)
    qs = np.arange(-5.0, 5.0 + 0.05, 0.1)
    ps = np.arange(-4.0, 4.0 + 0.05, 0.1)
    w = wigner_grid_from_matrix(vac, qs, ps)
    assert w.shape == (ps.size, qs.size)
    qq, pp = np.meshgrid(qs, ps)
    want = np.exp(-(qq ** 2 + pp ** 2)) / np.pi
    assert np.max(np.abs(w - want)) < 1e-8
    assert w.sum() * 0.1 ** 2 == pytest.approx(1.0, abs=1e-6)


def test_uhlmann_basics():
    th = thermal_block(40, 0.9)
    assert uhlmann_fidelity(th, th) == pytest.approx(1.0, abs=1e-12)
    c1 = coherent_block(60, 1.0, 0.5)
    c2 = coherent_block(60, -0.3, 0.2)
    dx2 = (1.0 + 0.3) ** 2 + (0.5 - 0.2) ** 2
    want = np.exp(-dx2 / 2)
    got = uhlmann_fidelity(c1, c2)
    # rank-deficient products put ~dim sqrt(eps) noise modes in Tr sqrt(.)
    assert got == pytest.approx(want, abs=5e-8)
    assert got == pytest.approx(fidelity_uj_gaussian(
        GaussianState.coherent(1.0, 0.5), GaussianState.coherent(-0.3, 0.2)),
        abs=5e-8)


def test_uhlmann_thermal_pair_matches_gaussian_formula():
    r1 = thermal_block(60, 0.5)
    r2 = displaced_thermal_block(60, 1.1, 0.9, -0.4)
    want = fidelity_uj_gaussian(
        GaussianState.thermal(0.5),
        GaussianState(PhaseVector(0.9, -0.4), Covariance2.isotropic(1.6)))
    assert uhlmann_fidelity(r1, r2) == pytest.approx(want, abs=1e-8)


def test_offdiag_detuning_phase_is_reported():
    # H_q = (delta/2) sigma_z: the oracle's rho_01 turns at -delta t, as the
    # closed form does, so complex coherence is compared directly
    p = SystemParams(g=0.0, kappa=0.0, delta=0.8, nbar=0.0, mbar=0.5)
    t = 2.0
    blocks = evolve_thermal_blocks(p, OracleConfig(dim=25), t)
    tr01 = blocks["01"].trace
    assert abs(tr01) == pytest.approx(1.0, abs=1e-9)
    assert np.angle(tr01) == pytest.approx(-0.8 * t, abs=1e-8)
    assert np.angle(coherence_trace(t, p, GaussianState.thermal(0.5))) == \
        pytest.approx(-0.8 * t, abs=1e-12)
    rep = compare_point(p, QubitInitState.balanced(), OracleConfig(dim=25), t)
    assert rep["dev_coherence"] < 1e-9


def test_validation_errors():
    with pytest.raises(ValidationError):
        OracleConfig(method="euler")
    for bad in ({"rel_tol": -1.0}, {"rel_tol": math.inf},
                {"rel_tol": math.nan}, {"abs_tol": math.inf},
                {"abs_tol": math.nan}, {"rel_tol": 1e-15}):
        with pytest.raises(ValidationError):
            OracleConfig(**bad)
    with pytest.raises(ValidationError):
        BlockDensityMatrix(3, np.zeros((3, 4)), "00")
    with pytest.raises(ValidationError):
        BlockDensityMatrix(3, np.zeros((3, 3)), "10")
    p = SystemParams(g=0.1, kappa=0.1)
    with pytest.raises(ValidationError):
        evolve_block(thermal_block(20, 0.0), p, OracleConfig(dim=30), 1.0)
    with pytest.raises(ValidationError):
        evolve_block(thermal_block(20, 0.0), p, OracleConfig(dim=20), -1.0)
