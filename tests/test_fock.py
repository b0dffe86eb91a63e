"""Truncated number-basis oracle: operators, evolution, chord/Wigner readout."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from oscprobe import (BlockDensityMatrix, GaussianState, OracleConfig,
                      PhaseVector, SystemParams, TruncationLeakError,
                      ValidationError, build_operators, chord_eval,
                      coherence_trace, compare_point, default_dim,
                      displaced_thermal_block, evolve_block,
                      evolve_thermal_blocks, fidelity_uj_gaussian,
                      sample_comparison_points, uhlmann_fidelity)
from oscprobe import fock
from oscprobe.fock import SIZING_TOL, _displaced_thermal, _tail_weights
from oscprobe.phase_space import Covariance2, QubitInitState
from readouts import chord_from_matrix, wigner_grid_from_matrix


def number_expectation(block):
    return float(np.real(np.trace(
        np.diag(np.arange(block.dim)) @ block.entries)))


def test_operator_algebra():
    # the assembled generators carry H+- = a^dag a + 1/2 +- g x and the
    # dissipator of the truncated ladder (a a^dag is 0 on the top level):
    # their actions, checked against dense products on a random matrix
    p = SystemParams(g=0.17, kappa=0.1, delta=0.3, nbar=0.4)
    ops = build_operators(24, p)
    rho = random_hermitian(np.random.default_rng(2), 24)
    a = np.diag(np.sqrt(np.arange(1.0, 24.0)), 1)
    ad, x = a.T, (a + a.T) / np.sqrt(2)

    def act(block):
        return (ops.liouvillian(block) @ rho.ravel()).reshape(24, 24)

    # H+ - H- = 2 g x, in the commutator and on the right of rho_01
    assert np.allclose(act("00") - act("11"), -2j * p.g * (x @ rho - rho @ x),
                       rtol=0, atol=1e-12)
    assert np.allclose(act("01") - act("00"), -1j * (2 * p.g * rho @ x + p.delta * rho),
                       rtol=0, atol=1e-12)
    # H+ + H- = 2 (a^dag a + 1/2), plus the dissipator of each block
    down, up = p.kappa * (1 + p.nbar), p.kappa * p.nbar
    diss = (down * (2 * a @ rho @ ad - ad @ a @ rho - rho @ ad @ a)
            + up * (2 * ad @ rho @ a - a @ ad @ rho - rho @ a @ ad))
    assert np.allclose(act("00") + act("11"),
                       -2j * (ad @ a @ rho - rho @ ad @ a) + 2 * diss, rtol=0, atol=1e-12)


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


def test_band_of_the_oracle_sweep_points():
    # sizing only: a change that widens (or narrows) a band fails here first
    points = (sample_comparison_points(20, seed=20260819, t_max=20.0)
              + sample_comparison_points(4, seed=1, t_max=20.0, delta=0.3))
    assert [fock._sized_band(p, default_dim(p)) for p, _ in points] == [
        11, 9, 13, 13, 14, 16, 11, 5, 13, 7, 8, 17,
        6, 13, 7, 10, 12, 13, 10, 11, 13, 14, 10, 13]


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
    # as the reference. The thermal 11 block is read off the 00 solve; the
    # displaced starts are not parity-even, so the 11 one integrates, and the
    # 01 one's Y = rho_01 P is not Hermitian and runs as two Hermitian parts
    from scipy.sparse.linalg import expm_multiply
    p = SystemParams(g=0.18, kappa=0.07, delta=0.3, nbar=0.3, mbar=0.6)
    ops = build_operators(35, p)
    starts = [displaced_thermal_block(35, 0.6, 0.0, 0.0, block)
              for block in ("00", "11", "01")]
    displaced = [displaced_thermal_block(35, 0.6, 0.4, -0.3, block)
                 for block in ("01", "11")]
    for init in starts + displaced:
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


def kron_liouvillian(ops, block):
    """(L, J): a block's complex generator and its jump terms, by Kronecker products.

    The reference for the index-arithmetic assembly of OperatorSet.liouvillian,
    with vec(A rho B) = (A kron B^T) vec(rho) and the dissipator
    down (2 a rho a^dag - {a^dag a, rho}) + up (2 a^dag rho a - {a a^dag, rho}).
    """
    import scipy.sparse as sp
    p, eye = ops.params, sp.identity(ops.dim, format="csr")
    a = sp.diags(np.sqrt(np.arange(1, ops.dim)), 1, format="csr")
    adag = a.T.tocsr()
    h_osc = adag @ a + 0.5 * eye
    x = (a + adag) / math.sqrt(2.0)
    h = {"+": h_osc + p.g * x, "-": h_osc - p.g * x}
    down, up = p.kappa * (1.0 + p.nbar), p.kappa * p.nbar
    jumps = (2.0 * down * sp.kron(a, a, format="csr")
             + 2.0 * up * sp.kron(adag, adag, format="csr"))
    anti = down * (adag @ a) + up * (a @ adag)
    left, right = {"00": "++", "11": "--", "01": "+-"}[block]
    ham = sp.kron(h[left], eye) - sp.kron(eye, h[right].T)
    if block == "01":
        ham = ham + p.delta * sp.identity(ops.dim ** 2)
    liou = -1j * ham + jumps - sp.kron(anti, eye) - sp.kron(eye, anti.T)
    return liou.tocsr(), jumps


def hermitian_generator(liou, dim):
    """G = Re L + (Im L) S, the generator of a Hermitian-preserving L on vec R.

    S permutes vec X to vec X^T, so (Im L) S is Im L with its column indices
    permuted; zeros of the sum are dropped.
    """
    import scipy.sparse as sp
    transpose = np.arange(dim * dim).reshape(dim, dim).T.ravel()
    re = sp.csr_matrix((liou.data.real, liou.indices, liou.indptr),
                       shape=liou.shape)
    # sort_indices reorders data in place, and .imag is a view of liou's data
    im = sp.csr_matrix((liou.data.imag.copy(), transpose[liou.indices],
                        liou.indptr), shape=liou.shape)
    im.sort_indices()
    return re + im


def generator(ops, block):
    """The real generator evolve_block integrates for block, from the reference.

    The 11 block runs as P rho_11 P under the 00 generator. For 01 it is the
    00 generator with its jump terms negated, acting on Y = rho_01 P without
    delta.
    """
    liou, jumps = kron_liouvillian(ops, "00")
    if block == "01":
        liou = liou - 2.0 * jumps
    return hermitian_generator(liou, ops.dim)


def band_index(dim, band):
    """Positions of the entries |m - n| <= band in row-major vec rho."""
    level = np.arange(dim)
    return np.flatnonzero(np.abs(level[:, None] - level) <= band)


def on_band(gen, dim, band):
    """A dim^2 x dim^2 generator's rows and columns at the band's entries, dense."""
    idx = band_index(dim, band)
    return gen.toarray()[np.ix_(idx, idx)]


def stacked_generator(monkeypatch, params, dim, t=1.0):
    """(generator, band) of the one solve a thermal point runs at dim."""
    solves, real = [], fock.solve_ivp

    def capture(gen, v0, t):
        solves.append(gen)
        return real(gen, v0, t)

    with monkeypatch.context() as patched:
        patched.setattr(fock, "solve_ivp", capture)
        band = evolve_thermal_blocks(params, OracleConfig(dim=dim), t)["band"]
    (gen,) = solves
    return gen, band


def halves(gen, dim, band):
    """(G00, G01) of a stacked generator on a band, after checking its shape
    and that nothing couples them."""
    n = band_index(dim, band).size
    assert gen.shape == (2 * n, 2 * n)
    assert gen[:n, n:].nnz == 0 and gen[n:, :n].nnz == 0
    return gen[:n, :n], gen[n:, n:]


def parity_sides(dim, block):
    """(left, right) with X = left * rho * right the matrix evolve_block integrates."""
    parity = (-1.0) ** np.arange(dim)
    return (parity[:, None] if block == "11" else 1.0,
            1.0 if block == "00" else parity)


def packed_start(init):
    """The packed Hermitian start of evolve_block (P rho_11 P, rho_01 P)."""
    left, right = parity_sides(init.dim, init.block)
    return fock._pack_hermitian(left * init.entries * right)


@pytest.mark.parametrize("dim", [2, 7, 20])
@pytest.mark.parametrize("params", [
    SystemParams(g=0.21, kappa=0.09, delta=0.3, nbar=0.7),
    SystemParams(g=0.21, kappa=0.0, delta=0.3, nbar=0.7),  # no dissipator
    SystemParams(g=0.21, kappa=0.09, delta=0.3, nbar=0.0),  # no up jumps
], ids=("damped", "kappa-0", "nbar-0"))
def test_liouvillian_matches_the_kronecker_reference(dim, params):
    ops = build_operators(dim, params)
    for block in ("00", "11", "01"):
        ref, _ = kron_liouvillian(ops, block)
        ref.eliminate_zeros()
        liou = ops.liouvillian(block)
        # the same stored entries, none of them zero, in canonical CSR order
        assert liou.has_canonical_format
        assert np.count_nonzero(liou.data) == liou.nnz == ref.nnz
        assert np.array_equal(liou.indptr, ref.indptr)
        assert np.array_equal(liou.indices, ref.indices)
        assert np.max(np.abs(liou.data - ref.data)) <= 1e-15 * np.max(np.abs(ref.data))


@pytest.mark.parametrize("block", ["00", "11", "01"])
def test_real_generator_acts_as_the_liouvillian(monkeypatch, block):
    rng = np.random.default_rng(5)
    p = SystemParams(g=0.21, kappa=0.09, delta=0.3, nbar=0.7)
    ops = build_operators(20, p)
    # the complex generator is the reference; for 01 it carries delta
    liou, _ = kron_liouvillian(ops, block)
    kept = liou.copy()
    # building G leaves the complex generator as it was
    assert hermitian_generator(liou, 20).dtype == float
    assert (liou != kept).nnz == 0
    # a thermal point's one solve runs G00 on its first half and G01 on its
    # second, each the reference's on the point's band, to roundoff
    stacked, band = stacked_generator(monkeypatch, p, 20)
    assert band < 19
    gen = halves(stacked, 20, band)[block == "01"]
    want_gen = on_band(generator(ops, block), 20, band)
    assert np.max(np.abs(gen.toarray() - want_gen)) <= 1e-15 * np.max(np.abs(want_gen))
    # 11 carries X = P rho P: dX/dt = P (L rho) P; 01 carries Y = rho P:
    # dY/dt = (L rho + i delta rho) P; on the band, for an X inside it
    left, right = parity_sides(20, block)
    shift = 1j * p.delta if block == "01" else 0.0
    idx = band_index(20, band)
    inside = np.abs(np.subtract.outer(np.arange(20), np.arange(20))) <= band
    for _ in range(3):
        x = random_hermitian(rng, 20) * inside
        rho = left * x * right
        drho = (liou @ rho.reshape(-1)).reshape(20, 20) + shift * rho
        want = fock._pack_hermitian(left * drho * right)[idx]
        got = fock._rhs(0.0, fock._pack_hermitian(x)[idx], gen)
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
        gen = generator(ops, block)
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
            hermitian_generator(poisoned(build_operators(8, p), "00"), 8),
            packed_start(init), 1.0)
    monkeypatch.setattr(fock.OperatorSet, "liouvillian", poisoned)
    with pytest.raises(ValidationError) as raised:
        evolve_block(init, build_operators(8, p), 1.0)
    assert str(raised.value) == str(failed.value)


def grown_memory(run, calls):
    """Traced bytes still held after run(1), ..., run(calls), run(0) done first."""
    run(0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(1, calls + 1):
            run(i)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_repeated_evolutions_keep_memory_flat():
    # each call builds a new generator; none of them may stay referenced
    def run(i):
        p = SystemParams(g=0.1 + 0.002 * i, kappa=0.07, nbar=0.3, mbar=0.6)
        evolve_block(displaced_thermal_block(30, 0.6, 0.0, 0.0),
                     build_operators(30, p), 1.0)

    assert grown_memory(run, 40) < 2e6


def test_compare_points_keep_memory_flat():
    # each point's solve memo lives on its own OperatorSet and goes with it;
    # at dim 64 a start and an end state pinned per solve would add ~2.6 MB
    def run(i):
        p = SystemParams(g=0.1 + 0.004 * i, kappa=0.07 + 0.001 * i, nbar=0.3,
                         mbar=0.6 + 0.01 * i)
        compare_point(p, QubitInitState.balanced(), OracleConfig(dim=64),
                      0.5 + 0.02 * i)

    assert grown_memory(run, 20) < 2e6


def test_cached_solver_holds_no_generator_between_solves():
    # the one DOP853 solver outlives every point, so it must not keep the last
    # point's dim^2 x dim^2 generator, nor its 11 dim^2 work floats and end
    # state, referenced until the next solve
    import scipy.sparse as sp

    def assert_released(solver):
        assert not any(sp.issparse(arg) for arg in solver.f_params)
        assert solver._integrator.work.nbytes <= 1024 and solver._y.size <= 1

    p = SystemParams(g=0.2, kappa=0.08, nbar=0.5, mbar=0.9)
    compare_point(p, QubitInitState.balanced(), OracleConfig(dim=64), 1.0)
    assert_released(fock._dop853())
    # nor after a solve that fails
    with pytest.raises(ValidationError, match="integration failed"):
        fock.solve_ivp(sp.identity(4, format="csr") * np.nan, np.ones(4), 1.0)
    assert_released(fock._dop853())


def test_oracle_point_builds_only_the_products_it_reads(monkeypatch):
    import scipy.sparse as sp
    built, real = [], fock.OperatorSet.liouvillian

    def counted(self, block):
        built.append(block)
        return real(self, block)

    def no_kron(*args, **kwargs):
        raise AssertionError("a Kronecker product was built")

    monkeypatch.setattr(fock.OperatorSet, "liouvillian", counted)
    monkeypatch.setattr(sp, "kron", no_kron)
    p = SystemParams(g=0.2, kappa=0.08, nbar=0.5, mbar=0.9)
    compare_point(p, QubitInitState.balanced(), OracleConfig(dim=30), 1.0)
    # one complex generator, the 00 one, assembled with no Kronecker product:
    # the 11 block runs under it and the 01 block under it with its jumps
    # negated, so no generator with H- is built
    assert built == ["00"]


def test_thermal_point_solves_two_blocks(monkeypatch):
    # the 00 and 01 blocks, as one stacked solve; 11 reads the 00 half
    solves = []
    real = fock.solve_ivp

    def counting(gen, v0, t):
        solves.append(gen.shape)
        return real(gen, v0, t)

    monkeypatch.setattr(fock, "solve_ivp", counting)
    for delta in (0.0, 0.3):
        p = SystemParams(g=0.2, kappa=0.08, delta=delta, nbar=0.5, mbar=0.9)
        solves.clear()
        rep = compare_point(p, QubitInitState.balanced(), OracleConfig(), 3.0)
        assert rep["band"] < rep["dim"] - 1
        assert solves == [(2 * band_index(rep["dim"], rep["band"]).size,) * 2]
        assert rep["rhs_evals"] > 0
        assert max(v for k, v in rep.items() if k.startswith("dev_")) < 1e-8
    blocks = evolve_thermal_blocks(p, OracleConfig(dim=30), 3.0)
    assert blocks["00"].rhs_evals > 0
    for block in ("11", "01"):
        assert blocks[block].rhs_evals == blocks[block].rejected_steps == 0
    left, right = parity_sides(30, "11")
    assert np.array_equal(blocks["11"].entries, left * blocks["00"].entries * right)


def test_point_at_time_zero_runs_no_solve(monkeypatch):
    def no_solve(gen, v0, t):
        raise AssertionError("a solve ran at t = 0")

    monkeypatch.setattr(fock, "solve_ivp", no_solve)
    p = SystemParams(g=0.2, kappa=0.08, delta=0.3, nbar=0.5, mbar=0.9)
    rep = compare_point(p, QubitInitState.balanced(), OracleConfig(), 0.0)
    assert rep["rhs_evals"] == rep["rejected_steps"] == 0
    assert max(v for k, v in rep.items() if k.startswith("dev_")) < 1e-8


@pytest.mark.parametrize("params", [
    SystemParams(g=0.2, kappa=0.0, nbar=0.5, mbar=0.9),
    SystemParams(g=0.2, kappa=0.08, delta=0.3, nbar=0.5, mbar=0.9),
], ids=("kappa-0", "detuned"))
def test_stacked_point_matches_the_closed_forms(monkeypatch, params):
    stacked, band = stacked_generator(monkeypatch, params, 30, 3.0)
    g00, g01 = halves(stacked, 30, band)
    # the halves differ in the jump entries alone, and kappa = 0 has none;
    # the down and the up jumps each fill the band of the lower 29 levels
    jumps = (g00 - g01).tocsr()
    jumps.eliminate_zeros()
    assert jumps.nnz == (0 if params.kappa == 0.0 else 2 * band_index(29, band).size)
    rep = compare_point(params, QubitInitState.balanced(), OracleConfig(), 3.0)
    assert rep["rhs_evals"] > 0
    assert max(v for k, v in rep.items() if k.startswith("dev_")) < 1e-8


@pytest.mark.parametrize("band", [0, 3, None], ids=("K-0", "K-3", "K-full"))
@pytest.mark.parametrize("dim", [2, 7, 20])
def test_banded_generators_are_the_reference_on_the_band(dim, band):
    # rows and columns both restricted: the band is closed under S (m <-> n)
    p = SystemParams(g=0.21, kappa=0.09, delta=0.3, nbar=0.7)
    band = dim - 1 if band is None else min(band, dim - 1)
    ops = build_operators(dim, p, band)
    n = band_index(dim, band).size
    for block in ("00", "01"):
        gen = ops._band_generator([block])
        assert gen.shape == (n, n)
        want = on_band(generator(ops, block), dim, band)
        assert np.max(np.abs(gen.toarray() - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("keys", [("00", "01"), ("01", "01"), ("00",)])
def test_band_generator_is_the_sliced_reference_bit_for_bit(keys):
    # the former path, rebuilt: the full G00 and G01 = G00 - 2 J, their band
    # rows and columns, then block_diag; the same CSR arrays, the columns of
    # each row in the sorted order that fixes every right-hand side's rounding
    import scipy.sparse as sp
    p = SystemParams(g=0.2, kappa=0.08, delta=0.3, nbar=0.5, mbar=0.9)
    ops = build_operators(20, p, 6)
    g00 = hermitian_generator(ops.liouvillian("00"), 20)
    full = {"00": g00, "01": g00 - 2.0 * ops._stencil(ops._ladder[3])}
    idx = band_index(20, 6)
    want = sp.block_diag([full[key][idx][:, idx] for key in keys], format="csr")
    gen = ops._band_generator(keys)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(gen, attr), getattr(want, attr))


def test_full_band_is_the_unrestricted_solve(monkeypatch):
    # K = dim - 1: the generator and the end state of block_diag(G00, G01) on
    # every entry, bit for bit, as before there was a band
    import scipy.sparse as sp
    p = SystemParams(g=0.2, kappa=0.08, delta=0.3, nbar=0.5, mbar=0.9)
    ops = build_operators(25, p, 24)
    g00 = hermitian_generator(ops.liouvillian("00"), 25)
    want = sp.block_diag((g00, g00 - 2.0 * ops._stencil(ops._ladder[3])), format="csr")
    starts = [displaced_thermal_block(25, 0.9, 0.0, 0.0, b) for b in ("00", "01")]
    solves, real = [], fock.solve_ivp

    def capture(gen, v0, t):
        solves.append(gen)
        return real(gen, v0, t)

    monkeypatch.setattr(fock, "solve_ivp", capture)
    ops._solve([part for s in starts for part in fock._packed_parts(s)[3]], 3.0,
               run=False)
    out = [evolve_block(s, ops, 3.0) for s in starts]
    (gen,) = solves
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(gen, attr), getattr(want, attr))
    sol = real(want, np.concatenate([packed_start(s) for s in starts]), 3.0)
    x00, y01 = (fock._unpack_hermitian(y, 25) for y in np.split(sol.y, 2))
    assert np.array_equal(out[0].entries, x00)
    phase = np.exp(-1j * p.delta * 3.0)
    assert np.array_equal(out[1].entries, y01 * (-1.0) ** np.arange(25) * phase)


@pytest.mark.parametrize("params", [
    SystemParams(g=0.25, kappa=0.1, nbar=0.8, mbar=0.3),
    SystemParams(g=0.2, kappa=0.0, nbar=0.5, mbar=0.9),
    SystemParams(g=0.2, kappa=0.08, delta=0.3, nbar=0.5, mbar=0.9),
], ids=("damped", "kappa-0", "detuned"))
def test_banded_point_matches_the_full_band(monkeypatch, params):
    qubit, t = QubitInitState.balanced(), 6.0
    banded = compare_point(params, qubit, OracleConfig(), t)
    tr01 = evolve_thermal_blocks(params, OracleConfig(), t)["01"].trace
    assert banded["band"] == fock._sized_band(params, banded["dim"]) < banded["dim"] - 1
    assert banded["bands_tried"] == [banded["band"]] and banded["leak_retries"] == 0
    monkeypatch.setattr(fock, "_sized_band", lambda p, dim: dim - 1)
    full = compare_point(params, qubit, OracleConfig(), t)
    assert full["band"] == full["dim"] - 1 and full["dim"] == banded["dim"]
    assert abs(evolve_thermal_blocks(params, OracleConfig(), t)["01"].trace
               - tr01) <= 1e-11
    for key in banded:
        if key.startswith("dev_"):
            assert abs(banded[key] - full[key]) <= 1e-11, key


def test_band_guard_widens_a_narrow_band(monkeypatch):
    p = SystemParams(g=0.25, kappa=0.1, nbar=0.8, mbar=0.3)
    dim = default_dim(p)
    init = displaced_thermal_block(dim, p.mbar, 0.0, 0.0)
    # an evolved block that spreads past |m - n| = 1 trips the band guard
    with pytest.raises(TruncationLeakError, match=r"band-edge weight .* in evolved "
                       rf"00 block at band 1, dim {dim}") as exc:
        evolve_block(init, build_operators(dim, p, 1), 6.0)
    assert exc.value.weight > fock.LEAK_TOL
    assert exc.value.suggested_band == 2 and exc.value.suggested_dim == dim
    # the retry doubles the band at the same dim until it holds
    monkeypatch.setattr(fock, "_sized_band", lambda params, dim: 1)
    rep = compare_point(p, QubitInitState.balanced(), OracleConfig(), 6.0)
    tried = rep["bands_tried"]
    assert tried[:2] == [1, 2] and tried == [1, *(2 * k for k in tried[:-1])]
    assert rep["band"] == tried[-1] and rep["dims_tried"] == [dim] * len(tried)
    assert rep["leak_retries"] == len(rep["leak_weights"]) == len(tried) - 1
    assert min(rep["leak_weights"]) > fock.LEAK_TOL
    assert max(v for k, v in rep.items() if k.startswith("dev_")) < 1e-8
    # also at a fixed dim
    fixed = compare_point(p, QubitInitState.balanced(), OracleConfig(dim=dim), 6.0)
    assert fixed["bands_tried"] == tried


def test_weight_outside_the_band_is_refused_not_dropped():
    p = SystemParams(g=0.1, kappa=0.1)
    ops = build_operators(20, p, 3)
    entries = displaced_thermal_block(20, 0.2, 0.0, 0.0).entries
    # a thermal start passes the start checks
    evolve_block(BlockDensityMatrix(20, entries, "00"), ops, 0.0)
    # beyond the band edge, not on it: packing would drop it
    entries[0, 6] = entries[6, 0] = 1e-6
    for block in ("00", "01"):
        with pytest.raises(TruncationLeakError, match="band-edge weight .* in "
                           "initial state at band 3"):
            evolve_block(BlockDensityMatrix(20, entries, block), ops, 1.0)
    # a displaced start whose coherences reach past the band is refused too
    with pytest.raises(TruncationLeakError, match="band-edge weight"):
        evolve_block(displaced_thermal_block(20, 0.0, 1.0, 0.0), ops, 1.0)


def test_displaced_offdiagonal_parts_share_one_solve(monkeypatch):
    p = SystemParams(g=0.18, kappa=0.07, delta=0.3, nbar=0.3, mbar=0.6)
    ops = build_operators(30, p)
    init = displaced_thermal_block(30, 0.6, 0.4, -0.3, "01")
    solves, real = [], fock.solve_ivp

    def counting(gen, v0, t):
        solves.append(gen.shape)
        return real(gen, v0, t)

    monkeypatch.setattr(fock, "solve_ivp", counting)
    out = evolve_block(init, ops, 4.0)
    assert solves == [(2 * 900, 2 * 900)] and out.rhs_evals > 0
    # each Hermitian part of Y = rho_01 P on its own under G01
    y0 = init.entries * (-1.0) ** np.arange(30)
    want = np.zeros((30, 30), dtype=complex)
    for weight, part in ((1.0, 0.5 * (y0 + y0.conj().T)),
                         (1j, -0.5j * (y0 - y0.conj().T))):
        sol = real(generator(ops, "01"), fock._pack_hermitian(part), 4.0)
        want += weight * fock._unpack_hermitian(sol.y, 30)
    want *= (-1.0) ** np.arange(30) * np.exp(-1j * p.delta * 4.0)
    assert np.max(np.abs(out.entries - want)) < 1e-9


def test_solve_memo_misses_on_any_other_problem():
    p = SystemParams(g=0.2, kappa=0.08, nbar=0.5, mbar=0.9)
    ops = build_operators(30, p)
    init = displaced_thermal_block(30, 0.9, 0.0, 0.0)
    first = evolve_block(init, ops, 3.0)
    assert first.rhs_evals > 0
    again = evolve_block(init, ops, 3.0)
    assert again.rhs_evals == 0 and np.array_equal(again.entries, first.entries)
    # another t, another start, another OperatorSet: each one integrates
    assert evolve_block(init, ops, 2.5).rhs_evals > 0
    # the memo keeps the latest t only, so a long-lived ops does not grow
    assert [key[0] for key in ops._memo] == [2.5]
    assert evolve_block(displaced_thermal_block(30, 0.7, 0.0, 0.0), ops,
                        2.5).rhs_evals > 0
    fresh = evolve_block(init, build_operators(30, p), 3.0)
    assert fresh.rhs_evals == first.rhs_evals
    assert np.array_equal(fresh.entries, first.entries)
    # a displaced 11 start is no parity image of the displaced 00 start
    ops = build_operators(30, p)
    evolve_block(displaced_thermal_block(30, 0.9, 0.5, 0.2), ops, 3.0)
    assert evolve_block(displaced_thermal_block(30, 0.9, 0.5, 0.2, "11"), ops,
                        3.0).rhs_evals > 0


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
