"""Number-basis oracle against the closed-form propagation, end to end."""

import numpy as np
import pytest

from oscprobe import (GaussianState, OracleConfig, QubitInitState,
                      SystemParams, build_operators, chord_block_offdiag,
                      chord_eval, compare_point, diag_block_gaussians,
                      displaced_thermal_block, displacement_vector,
                      evolve_block, evolve_thermal_blocks, fundamental_matrix,
                      reduced_wigner_grid, sample_comparison_points,
                      wigner_lobe_centers)
from oscprobe.cli import ORACLE_TOLERANCES
from readouts import chord_from_matrix, wigner_grid_from_matrix

QUBIT = QubitInitState.balanced()


def test_random_points_match_closed_forms():
    cfg = OracleConfig()
    for params, t in sample_comparison_points(5, seed=20260819, t_max=20.0):
        rep = compare_point(params, QUBIT, cfg, t)
        assert rep["dim"] <= 100
        assert rep["dev_fgen"] < 1e-6
        assert rep["dev_coherence"] < 1e-6
        assert rep["dev_purity_qubit"] < 1e-6
        assert rep["dev_purity_oscillator"] < 1e-6
        assert rep["dev_fuj"] < 1e-5


@pytest.mark.parametrize("g, kappa, nbar, mbar", [
    (0.05, 0.1, 1.0, 0.5), (0.05, 0.01, 0.0, 2.0),
    (0.2, 0.01, 1.0, 0.5), (0.2, 0.1, 0.0, 2.0)])
def test_figure_corners_match_at_their_end_time(g, kappa, nbar, mbar):
    # corners of the fig2/fig3 sweep (g, kappa) at t = 100, the figures' end
    # time, which the criterion-1 box (t <= 20) never reaches
    p = SystemParams(g=g, kappa=kappa, nbar=nbar, mbar=mbar)
    rep = compare_point(p, QUBIT, OracleConfig(), 100.0)
    assert rep["leak_retries"] == 0
    for key, bound in ORACLE_TOLERANCES.items():
        assert rep[key] <= bound, key


def test_chord_functions_match_pointwise():
    p = SystemParams(g=0.22, kappa=0.09, nbar=0.6, mbar=0.9)
    init = GaussianState.thermal(p.mbar)
    t = 5.5
    blocks = evolve_thermal_blocks(p, OracleConfig(), t)
    up, down = diag_block_gaussians(t, p, init)
    rng = np.random.default_rng(14)
    for _ in range(5):
        r = 1.8 * rng.normal(size=2)
        assert chord_from_matrix(blocks["00"], r) == pytest.approx(
            chord_eval(up, r), abs=1e-6)
        assert chord_from_matrix(blocks["11"], r) == pytest.approx(
            chord_eval(down, r), abs=1e-6)
        assert chord_from_matrix(blocks["01"], r) == pytest.approx(
            chord_block_offdiag(r, t, p, init), abs=1e-6)


def test_flipping_the_qubit_flips_the_coupling():
    p = SystemParams(g=0.3, kappa=0.1, nbar=0.4, mbar=0.4)
    flipped = SystemParams(g=-0.3, kappa=0.1, nbar=0.4, mbar=0.4)
    ops = build_operators(40, p)
    init = displaced_thermal_block(40, 0.4, 0.0, 0.0)
    up = evolve_block(init, ops, 4.0)
    # fresh operators, so the 11 block integrates instead of reading the
    # memo the 00 solve left on ops
    down = evolve_block(displaced_thermal_block(40, 0.4, 0.0, 0.0, "11"),
                        build_operators(40, p), 4.0)
    assert down.rhs_evals > 0
    up_flipped = evolve_block(init, build_operators(40, flipped), 4.0)
    assert np.max(np.abs(down.entries - up_flipped.entries)) < 1e-10
    # for a parity-symmetric start the two conditional states are parity images
    parity = np.diag((-1.0) ** np.arange(40))
    assert np.max(np.abs(down.entries - parity @ up.entries @ parity)) < 1e-10


def reduced_oscillator(blocks, qubit):
    """a00 rho_00 + a11 rho_11, the oscillator state with the qubit traced out."""
    return qubit.a00 * blocks["00"].entries + qubit.a11 * blocks["11"].entries


def test_wigner_grids_match():
    p = SystemParams(g=0.25, kappa=0.12, nbar=0.8, mbar=1.2)
    init = GaussianState.thermal(p.mbar)
    t = 7.0
    blocks = evolve_thermal_blocks(p, OracleConfig(), t)
    qs = np.arange(-6.0, 6.0 + 0.025, 0.05)
    ps = np.arange(-6.0, 6.0 + 0.025, 0.05)
    w = wigner_grid_from_matrix(reduced_oscillator(blocks, QUBIT), qs, ps)
    analytic = reduced_wigner_grid(qs, ps, t, p, init, QUBIT)
    assert w.shape == analytic.shape
    assert np.max(np.abs(w - analytic)) < 1e-6


def test_asymmetric_qubit_weights_the_lobes():
    # heavier a00 puts more mass on the lobe displaced to -d/2; the coupling
    # is large enough that cross-lobe pull stays well below the tolerance
    p = SystemParams(g=1.5, kappa=0.05, nbar=0.2, mbar=0.0)
    qubit = QubitInitState(0.8, 0.2, 0.4)
    t = 8.0
    blocks = evolve_thermal_blocks(p, OracleConfig(), t)
    ax = np.arange(-5.0, 5.0 + 0.025, 0.05)
    w = wigner_grid_from_matrix(reduced_oscillator(blocks, qubit), ax, ax)
    d = displacement_vector(t, p).as_array()
    c1, c2 = wigner_lobe_centers(ax, ax, w)
    # global peak is the heavy lobe; it sits at -d/2
    assert np.allclose(c1, -d / 2, atol=1e-3)
    assert np.allclose(c2, +d / 2, atol=1e-3)

    def grid_value(x):
        i = int(round((x[0] - ax[0]) / 0.05))
        j = int(round((x[1] - ax[0]) / 0.05))
        return w[j, i]

    assert grid_value(-d / 2) > 2 * grid_value(d / 2)
    # analytic surface agrees pointwise on the same grid
    analytic = reduced_wigner_grid(ax, ax, t, p, GaussianState.thermal(0.0),
                                   qubit)
    assert np.max(np.abs(w - analytic)) < 1e-6
