"""Truncated number-basis oracle: operators, evolution, chord/Wigner readout."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from oscprobe import (BlockDensityMatrix, GaussianState, OracleConfig,
                      PhaseVector, SystemParams, TruncationLeakError,
                      ValidationError, build_operators, chord_eval,
                      chord_from_matrix, coherence_trace, compare_point,
                      default_dim, displaced_thermal_block, evolve_block,
                      evolve_thermal_blocks, fidelity_uj_gaussian,
                      sample_comparison_points, uhlmann_fidelity,
                      wigner_grid_from_matrix)
from oscprobe import fock
from oscprobe.fock import SIZING_TOL, _displaced_thermal, _tail_weights
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
    x = (a + ad) / np.sqrt(2)
    hp = ops.h_plus.toarray()
    hm = ops.h_minus.toarray()
    assert np.allclose(hp - hm, 2 * p.g * x, atol=1e-14)
    assert np.allclose(hp + hm, 2 * (ad @ a + 0.5 * np.eye(24)), atol=1e-13)


def test_initial_blocks():
    # the thermal start is the zero displacement of the one builder
    th = displaced_thermal_block(40, 0.8, 0.0, 0.0)
    assert th.trace == pytest.approx(1.0, abs=1e-14)
    assert number_expectation(th) == pytest.approx(0.8, abs=1e-10)
    assert np.count_nonzero(th.entries - np.diag(np.diagonal(th.entries))) == 0
    co = displaced_thermal_block(40, 0.0, 1.0, -0.5)
    assert co.trace == pytest.approx(1.0, abs=1e-14)
    assert number_expectation(co) == pytest.approx(
        (1.0 + 0.25) / 2, abs=1e-10)
    dt = displaced_thermal_block(50, 0.7, 1.0, -0.5)
    assert dt.trace == pytest.approx(1.0, abs=1e-12)
    assert number_expectation(dt) == pytest.approx(
        0.7 + 1.25 / 2, abs=1e-8)


def test_default_dim_is_the_smallest_clean_size(monkeypatch):
    # one level fewer puts a bounding Gaussian's top level over the target;
    # in the last case the pure one (occupation 0) sets the size
    for p in (SystemParams(g=0.1, kappa=0.1),
              SystemParams(g=0.05, kappa=0.1, nbar=0.0, mbar=2.0),
              SystemParams(g=0.3, kappa=0.01, nbar=2.0, mbar=0.5),
              SystemParams(g=1.5, kappa=0.05, nbar=0.2),
              SystemParams(g=0.103515625, kappa=0.0625, nbar=0.015625)):
        dim = default_dim(p)
        drift = math.sqrt(2.0) * p.g / math.sqrt(1.0 + p.kappa ** 2)
        rhos = [_displaced_thermal(4 * dim, occ, drift)
                for occ in (0.0, max(p.mbar, p.nbar))]
        # weight n is that of the leading block rho[:n + 1, :n + 1]
        weights = [_tail_weights(rho) for rho in rhos]
        assert max(w[dim - 2] for w in weights) >= SIZING_TOL
        assert all(np.all(w[dim - 1:2 * dim - 1] < SIZING_TOL) for w in weights)
    # an answer above MAX_DIM is refused before the sizing basis grows past
    # it, also at g = 20, where the recurrence underflows and no level
    # reaches SIZING_TOL
    with pytest.raises(ValidationError, match="MAX_DIM"):
        default_dim(SystemParams(g=20.0, kappa=0.1))
    big = SystemParams(g=2.0, kappa=0.1)
    monkeypatch.setattr(fock, "MAX_DIM", default_dim(big) - 1)
    with pytest.raises(ValidationError, match="MAX_DIM"):
        default_dim(big)


def test_displaced_thermal_is_exact_at_every_size():
    # the sizing scans growing bases and relies on each being a prefix
    for occ in (0.0, 0.7, 2.0):
        for alpha in (0.0, 0.6, 3.0):
            assert np.array_equal(_displaced_thermal(128, occ, alpha)[:64, :64],
                                  _displaced_thermal(64, occ, alpha))


def test_displaced_thermal_block_matches_the_eigh_displacement():
    # D(alpha) = exp(alpha a^dag - alpha^* a) from an eigh of its Hermitian
    # generator; the truncated exponential is off only near the top levels
    for dim, mbar, q0, p0 in ((40, 0.0, 1.0, -0.5), (50, 0.7, 1.0, -0.5),
                              (45, 0.3, -0.4, 0.6), (60, 1.1, 0.9, -0.4),
                              (60, 0.0, -0.3, 0.2), (128, 2.0, -2.0, 1.5)):
        alpha = (q0 + 1j * p0) / math.sqrt(2.0)
        a = np.diag(np.sqrt(np.arange(1, dim)), 1)
        lam, vecs = np.linalg.eigh(-1j * (alpha * a.T - np.conj(alpha) * a))
        disp = (vecs * np.exp(1j * lam)) @ vecs.conj().T
        thermal = displaced_thermal_block(dim, mbar, 0.0, 0.0).entries
        want = disp @ thermal @ disp.conj().T
        got = displaced_thermal_block(dim, mbar, q0, p0)
        half = dim // 2
        assert np.max(np.abs(got.entries - want)[:half, :half]) <= 1e-14
        assert got.trace == pytest.approx(1.0, abs=1e-12)


def test_every_oracle_start_comes_from_the_one_builder():
    p = SystemParams(g=0.2, kappa=0.1, nbar=0.5, mbar=0.9)
    for dim in (30, 40):
        blocks = evolve_thermal_blocks(p, OracleConfig(dim=dim), 0.0)
        for block in ("00", "11", "01"):
            want = displaced_thermal_block(dim, p.mbar, 0.0, 0.0, block).entries
            assert np.array_equal(blocks[block].entries, want)


def test_default_dim_of_the_oracle_sweep_points():
    # the 20 criterion-1 points and the 4 detuned benchmark points
    points = (sample_comparison_points(20, seed=20260819, t_max=20.0)
              + sample_comparison_points(4, seed=1, t_max=20.0, delta=0.3))
    assert [default_dim(p) for p, _ in points] == [
        42, 49, 40, 44, 47, 44, 27, 44, 39, 21, 29, 33,
        48, 30, 47, 48, 50, 46, 37, 26, 49, 33, 42, 27]


def test_diag_evolution_preserves_trace_and_hermiticity():
    p = SystemParams(g=0.2, kappa=0.12, nbar=0.5, mbar=1.0)
    ops = build_operators(45, p)
    # coherent and displaced-thermal starts pass the start's Hermitian check
    for init in (displaced_thermal_block(45, 1.0, 0.0, 0.0),
                 displaced_thermal_block(45, 0.0, 0.8, -0.5, "11"),
                 displaced_thermal_block(45, 0.3, -0.4, 0.6)):
        out = evolve_block(init, ops, 6.0)
        assert out.trace == pytest.approx(1.0, abs=1e-9)
        assert np.array_equal(out.entries, out.entries.conj().T)
        assert np.linalg.eigvalsh(out.entries).min() > -1e-10


def test_matched_bath_is_stationary():
    p = SystemParams(g=0.0, kappa=0.15, nbar=0.8, mbar=0.8)
    init = displaced_thermal_block(40, 0.8, 0.0, 0.0)
    out = evolve_block(init, build_operators(40, p), 5.0)
    assert np.max(np.abs(out.entries - init.entries)) < 1e-10


def test_occupation_relaxes_at_rate_two_kappa():
    p = SystemParams(g=0.0, kappa=0.15, nbar=0.2, mbar=1.0)
    ops = build_operators(40, p)
    for t in (0.5, 3.0):
        out = evolve_block(displaced_thermal_block(40, 1.0, 0.0, 0.0), ops, t)
        want = 0.2 + 0.8 * np.exp(-2 * 0.15 * t)
        assert number_expectation(out) == pytest.approx(want, abs=1e-8)


def test_integrator_backends_agree():
    # the exact exponential action of the complex generator, delta included,
    # as the reference; the displaced 01 start is not parity-even, so its
    # Y = rho_01 P is not Hermitian and runs as two Hermitian parts
    from scipy.sparse.linalg import expm_multiply
    p = SystemParams(g=0.18, kappa=0.07, delta=0.3, nbar=0.3, mbar=0.6)
    ops = build_operators(35, p)
    starts = [displaced_thermal_block(35, 0.6, 0.0, 0.0, block)
              for block in ("00", "11", "01")]
    for init in starts + [displaced_thermal_block(35, 0.6, 0.4, -0.3, "01")]:
        rk = evolve_block(init, ops, 4.0)
        ex = expm_multiply(ops.liouvillian(init.block) * 4.0,
                           init.entries.reshape(-1))
        assert np.max(np.abs(rk.entries - ex.reshape(35, 35))) < 1e-10


def test_thermal_offdiagonal_block_times_parity_stays_hermitian():
    # the identity the real 01 path rests on, checked on the complex generator
    from scipy.sparse.linalg import expm_multiply
    p = SystemParams(g=0.18, kappa=0.07, nbar=0.3, mbar=0.6)
    liou = build_operators(35, p).liouvillian("01")
    v0 = displaced_thermal_block(35, 0.6, 0.0, 0.0, "01").entries.reshape(-1)
    y = expm_multiply(liou * 4.0, v0).reshape(35, 35) * (-1.0) ** np.arange(35)
    assert np.max(np.abs(y - y.conj().T)) < 1e-12


def random_hermitian(rng, dim):
    y = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return y + y.conj().T


def test_hermitian_packing_round_trips():
    x = random_hermitian(np.random.default_rng(4), 12)
    packed = fock._pack_hermitian(x)
    assert packed.dtype == float and packed.shape == (144,)
    back = fock._unpack_hermitian(packed, 12)
    assert np.array_equal(back, back.conj().T)
    assert np.max(np.abs(back - x)) <= 4 * np.finfo(float).eps * np.max(np.abs(x))


def generator(liou, block, params):
    """The real generator evolve_block integrates for block, from its L."""
    dim = math.isqrt(liou.shape[0])
    if block == "01":
        liou = fock._parity_generator(liou, params.delta, dim)
    return fock._hermitian_generator(liou, dim)


def packed_start(init):
    """The packed Hermitian start of evolve_block (Y0 = rho_01 P for 01)."""
    parity = (-1.0) ** np.arange(init.dim) if init.block == "01" else 1.0
    return fock._pack_hermitian(init.entries * parity)


@pytest.mark.parametrize("block", ["00", "11", "01"])
def test_real_generator_acts_as_the_liouvillian(block):
    rng = np.random.default_rng(5)
    p = SystemParams(g=0.21, kappa=0.09, delta=0.3, nbar=0.7)
    liou = build_operators(20, p).liouvillian(block)
    kept = liou.copy()
    gen = generator(liou, block, p)
    assert gen.dtype == float
    # building G leaves the complex generator as it was
    assert (liou != kept).nnz == 0
    # 01 carries Y = rho P: dY/dt = (L rho + i delta rho) P
    parity = (-1.0) ** np.arange(20) if block == "01" else 1.0
    shift = 1j * p.delta if block == "01" else 0.0
    for _ in range(3):
        x = random_hermitian(rng, 20)
        rho = x * parity
        drho = (liou @ rho.reshape(-1)).reshape(20, 20) + shift * rho
        want = fock._pack_hermitian(drho * parity)
        got = fock._rhs(0.0, fock._pack_hermitian(x), gen)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_non_hermitian_diagonal_start_is_refused():
    p = SystemParams(g=0.1, kappa=0.1)
    entries = displaced_thermal_block(12, 0.1, 0.0, 0.0).entries
    entries[0, 1] = 1e-9
    ops = build_operators(12, p)
    for block in ("00", "11"):
        with pytest.raises(ValidationError, match="not Hermitian"):
            evolve_block(BlockDensityMatrix(12, entries, block), ops, 1.0)
    # the off-diagonal block need not be Hermitian
    evolve_block(BlockDensityMatrix(12, entries, "01"), ops, 1.0)


def test_shared_operators_must_match_the_start():
    p = SystemParams(g=0.1, kappa=0.1)
    with pytest.raises(ValidationError, match="ops dim 14 != initial matrix dim 12"):
        evolve_block(displaced_thermal_block(12, 0.1, 0.0, 0.0),
                     build_operators(14, p), 1.0)


def test_rk_matches_scipy_dop853_reference():
    # scipy's Python DOP853 (the previous backend) as an independent reference
    from scipy.integrate import solve_ivp
    p = SystemParams(g=0.18, kappa=0.07, delta=0.3, nbar=0.3, mbar=0.6)
    ops = build_operators(35, p)
    for block in ("00", "11", "01"):
        gen = generator(ops.liouvillian(block), block, p)
        v0 = packed_start(displaced_thermal_block(35, 0.6, 0.0, 0.0, block))
        ref = solve_ivp(lambda _t, v: gen.dot(v), (0.0, 6.0), v0,
                        method="DOP853", rtol=1e-10, atol=1e-12, t_eval=(6.0,))
        sol = fock.solve_ivp(gen, v0, 6.0)
        assert sol.nfev > 0
        assert np.max(np.abs(sol.y - ref.y[:, -1])) <= 1e-9


def test_non_finite_generator_fails_with_its_return_code(monkeypatch):
    p = SystemParams(g=0.1, kappa=0.1)
    init = displaced_thermal_block(8, 0.0, 0.0, 0.0)
    good = fock.OperatorSet.liouvillian

    def poisoned(self, block):
        liou = good(self, block).tolil()
        liou[1, 1] = np.nan
        return liou.tocsr()

    with pytest.raises(ValidationError, match=r"return code -\d+\)") as failed:
        fock.solve_ivp(
            fock._hermitian_generator(poisoned(build_operators(8, p), "00"), 8),
            packed_start(init), 1.0)
    monkeypatch.setattr(fock.OperatorSet, "liouvillian", poisoned)
    with pytest.raises(ValidationError) as raised:
        evolve_block(init, build_operators(8, p), 1.0)
    assert str(raised.value) == str(failed.value)


def test_repeated_evolutions_keep_memory_flat():
    # each call builds a new generator; none of them may stay referenced
    def run(i):
        p = SystemParams(g=0.1 + 0.002 * i, kappa=0.07, nbar=0.3, mbar=0.6)
        evolve_block(displaced_thermal_block(30, 0.6, 0.0, 0.0),
                     build_operators(30, p), 1.0)

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
    init = displaced_thermal_block(10, 2.0, 0.0, 0.0)
    with pytest.raises(TruncationLeakError) as exc:
        evolve_block(init, build_operators(10, p), 1.0)
    assert exc.value.suggested_dim == 20
    assert exc.value.weight > fock.LEAK_TOL
    # the guard reads the sizing's own measure, so the two cannot disagree
    assert exc.value.weight == _tail_weights(init.entries)[-1]


def test_auto_dim_is_sized_once():
    p = SystemParams(g=0.05, kappa=0.1, nbar=0.0, mbar=2.0)
    blocks = evolve_thermal_blocks(p, OracleConfig(), 2.0)
    assert blocks["dim"] == default_dim(p)
    assert blocks["dims_tried"] == [default_dim(p)]
    assert blocks["00"].trace == pytest.approx(1.0, abs=1e-9)
    rep = compare_point(p, QubitInitState.balanced(), OracleConfig(), 2.0)
    assert rep["dims_tried"] == [rep["dim"]]
    assert rep["leak_retries"] == 0
    assert rep["leak_weights"] == []


def test_auto_doubling_picks_a_clean_dim(monkeypatch):
    p = SystemParams(g=0.05, kappa=0.1, nbar=0.0, mbar=2.0)
    small = (default_dim(p) + 1) // 2
    monkeypatch.setattr(fock, "default_dim", lambda params: small)
    rep = compare_point(p, QubitInitState.balanced(), OracleConfig(), 2.0)
    assert rep["dims_tried"] == [small, 2 * small]
    assert rep["leak_retries"] == 1
    # one weight per rejected dim, and it is the one that tripped the guard
    assert len(rep["leak_weights"]) == 1
    assert rep["leak_weights"][0] > fock.LEAK_TOL
    assert rep["dim"] == 2 * small
    assert rep["dev_fgen"] < 1e-8
    # a retry that would pass MAX_DIM re-raises the leak instead
    monkeypatch.setattr(fock, "MAX_DIM", 2 * small - 1)
    with pytest.raises(TruncationLeakError):
        compare_point(p, QubitInitState.balanced(), OracleConfig(), 2.0)


def test_chord_of_vacuum():
    vac = displaced_thermal_block(30, 0.0, 0.0, 0.0)
    rng = np.random.default_rng(6)
    for _ in range(8):
        r = 2.5 * rng.normal(size=2)
        want = np.exp(-0.25 * (r @ r))
        assert chord_from_matrix(vac, r) == pytest.approx(want, abs=1e-12)


def test_chord_matches_gaussian_states():
    th = displaced_thermal_block(60, 0.7, 0.0, 0.0)
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


def test_wigner_grid_of_vacuum():
    vac = displaced_thermal_block(30, 0.0, 0.0, 0.0)
    qs = np.arange(-5.0, 5.0 + 0.05, 0.1)
    ps = np.arange(-4.0, 4.0 + 0.05, 0.1)
    w = wigner_grid_from_matrix(vac, qs, ps)
    assert w.shape == (ps.size, qs.size)
    qq, pp = np.meshgrid(qs, ps)
    want = np.exp(-(qq ** 2 + pp ** 2)) / np.pi
    assert np.max(np.abs(w - want)) < 1e-8
    assert w.sum() * 0.1 ** 2 == pytest.approx(1.0, abs=1e-6)


def test_uhlmann_basics():
    th = displaced_thermal_block(40, 0.9, 0.0, 0.0)
    assert uhlmann_fidelity(th, th) == pytest.approx(1.0, abs=1e-12)
    c1 = displaced_thermal_block(60, 0.0, 1.0, 0.5)
    c2 = displaced_thermal_block(60, 0.0, -0.3, 0.2)
    dx2 = (1.0 + 0.3) ** 2 + (0.5 - 0.2) ** 2
    want = np.exp(-dx2 / 2)
    got = uhlmann_fidelity(c1, c2)
    # rank-deficient products put ~dim sqrt(eps) noise modes in Tr sqrt(.)
    assert got == pytest.approx(want, abs=5e-8)
    assert got == pytest.approx(fidelity_uj_gaussian(
        GaussianState.coherent(1.0, 0.5), GaussianState.coherent(-0.3, 0.2)),
        abs=5e-8)


def test_uhlmann_thermal_pair_matches_gaussian_formula():
    r1 = displaced_thermal_block(60, 0.5, 0.0, 0.0)
    r2 = displaced_thermal_block(60, 1.1, 0.9, -0.4)
    want = fidelity_uj_gaussian(
        GaussianState.thermal(0.5),
        GaussianState(PhaseVector(0.9, -0.4), Covariance2.isotropic(1.6)))
    assert uhlmann_fidelity(r1, r2) == pytest.approx(want, abs=1e-8)


def test_uhlmann_fidelity_is_symmetric():
    r1 = displaced_thermal_block(50, 0.4, 0.0, 0.0)
    r2 = displaced_thermal_block(50, 1.1, 0.9, -0.4)
    r3 = displaced_thermal_block(50, 0.2, -0.5, 1.2)
    for a, b in ((r1, r2), (r2, r3), (r1, r3)):
        assert abs(uhlmann_fidelity(a, b) - uhlmann_fidelity(b, a)) <= 1e-12


def test_uhlmann_refuses_a_negative_eigenvalue_in_either_input():
    vacuum = displaced_thermal_block(3, 0.0, 0.0, 0.0).entries
    # negative only where the vacuum has no weight: sqrt(rho1) hides it
    bad = np.diag([0.5, 0.5 + 1e-6, -1e-6]).astype(complex)
    for args in ((vacuum, bad), (bad, vacuum)):
        with pytest.raises(ValidationError, match="clamp"):
            uhlmann_fidelity(*args)
    # roundoff above EIG_CLAMP is accepted
    ok = np.diag([0.5, 0.5 + 1e-10, -1e-10]).astype(complex)
    assert uhlmann_fidelity(vacuum, ok) == pytest.approx(0.5, abs=1e-9)


def test_oracle_point_runs_without_an_eigenvector_solve(monkeypatch):
    # the sizing, a displaced start and the Uhlmann readout must not reach a
    # dense eigh, whose threaded LAPACK leaves BLAS workers spinning through
    # the next solve
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    p = SystemParams(g=0.3, kappa=0.1, nbar=1.5, mbar=0.5)
    assert displaced_thermal_block(60, 0.7, 1.0, -0.5).trace == pytest.approx(1.0)
    assert default_dim(p) > 41
    rep = compare_point(p, QubitInitState.balanced(), OracleConfig(), 0.5)
    assert rep["dim"] > 41
    assert max(v for k, v in rep.items() if k.startswith("dev_")) < 1e-9


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
    for bad in (1, 2.0, fock.MAX_DIM + 1):
        with pytest.raises(ValidationError):
            OracleConfig(dim=bad)
    assert OracleConfig(dim=fock.MAX_DIM).dim == fock.MAX_DIM
    with pytest.raises(ValidationError):
        BlockDensityMatrix(3, np.zeros((3, 4)), "00")
    with pytest.raises(ValidationError):
        BlockDensityMatrix(3, np.zeros((3, 3)), "10")
    p = SystemParams(g=0.1, kappa=0.1)
    with pytest.raises(ValidationError):
        evolve_block(displaced_thermal_block(20, 0.0, 0.0, 0.0),
                     build_operators(20, p), -1.0)
