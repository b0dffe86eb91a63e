"""Input guards and edge returns that no other test reaches, one table row each."""

import math

import numpy as np
import pytest

from oscprobe import (BlockDensityMatrix, CoherenceSeries, Covariance2,
                      DegenerateInputError, GaussianState, QubitInitState,
                      SystemParams, ValidationError, build_operators,
                      coherence_trace, displaced_thermal_block, fit_parameters,
                      fundamental_matrix, reduced_quantities,
                      synthesize_series, wigner_lobe_centers)
from readouts import chord_from_matrix, wigner_grid_from_matrix

P = SystemParams(g=0.1, kappa=0.05, nbar=0.3)
TS = np.arange(0.05, 10.0, 0.05)
VACUUM = displaced_thermal_block(8, 0.0, 0.0, 0.0)


def _two_temperature(*labels):
    fit_parameters([synthesize_series(P, m, TS) for m in labels],
                   mode="two-temperature")


REFUSALS = {
    "series-2d": (lambda: CoherenceSeries(np.ones((2, 2)), np.ones((2, 2))),
                  ValidationError, "1d arrays of equal length"),
    "series-unequal": (lambda: CoherenceSeries([0.0, 1.0], [1.0, 0.9, 0.8]),
                       ValidationError, "1d arrays of equal length"),
    "series-nan": (lambda: CoherenceSeries([0.0, 1.0], [1.0, np.nan]),
                   ValidationError, "times and fgen must be finite"),
    "two-temperature-one": (lambda: _two_temperature(1.0),
                            DegenerateInputError, "exactly two series"),
    "two-temperature-three": (lambda: _two_temperature(1.0, 1.5, 2.0),
                              DegenerateInputError, "exactly two series"),
    "block-nan": (lambda: BlockDensityMatrix(2, [[1.0, 0.0], [0.0, np.inf]], "00"),
                  ValidationError, "entries must be finite"),
    "liouvillian-10": (lambda: build_operators(4, P).liouvillian("10"),
                       ValidationError, "block must be one of"),
    "operators-dim-1": (lambda: build_operators(1, P),
                        ValidationError, "dim must be >= 2"),
    "operators-band-past-dim": (lambda: build_operators(4, P, 4),
                                ValidationError, r"band in \[0, dim - 1\]"),
    "start-negative-mbar": (lambda: displaced_thermal_block(8, -0.1, 0.0, 0.0),
                            ValidationError, "mbar must be >= 0"),
    "chord-two-points": (lambda: chord_from_matrix(VACUUM, [[0.1, 0.0], [0.0, 0.1]]),
                         ValidationError, "expected one point"),
    "wigner-uneven-qs": (
        lambda: wigner_grid_from_matrix(VACUUM, [0.0, 0.1, 0.3], [0.0]),
        ValidationError, "qs must be uniformly spaced"),
    "quantities-missing-block": (
        lambda: reduced_quantities({"00": VACUUM, "11": VACUUM},
                                   QubitInitState.balanced()),
        ValidationError, "missing block 01"),
    "covariance-nan": (lambda: Covariance2(0.5, np.nan, 0.5),
                       ValidationError, "covariance entries must be finite"),
    "thermal-negative": (lambda: GaussianState.thermal(-1.0),
                         ValidationError, "mean occupation must be finite and >= 0"),
    "thermal-nan": (lambda: GaussianState.thermal(math.nan),
                    ValidationError, "mean occupation must be finite and >= 0"),
    "qubit-nan": (lambda: QubitInitState(0.5, 0.5, complex(math.nan, 0.0)),
                  ValidationError, "qubit entries must be finite"),
    "qubit-negative": (lambda: QubitInitState(-0.5, 1.5, 0.0j),
                       ValidationError, "populations must be non-negative"),
    "fundamental-inf-t": (lambda: fundamental_matrix(math.inf, 0.1),
                          ValidationError, "t must be finite"),
    "coherence-nan-t": (
        lambda: coherence_trace(math.nan, P, GaussianState.thermal(0.0)),
        ValidationError, "t must be finite"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_guard_refuses(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


def test_wigner_grid_from_matrix_takes_a_single_q():
    # one q has no spacing to read; the vacuum's W(0, 0) is 1/pi
    w = wigner_grid_from_matrix(VACUUM, [0.0], [0.0])
    assert w.shape == (1, 1)
    assert w[0, 0] == pytest.approx(1.0 / math.pi, abs=1e-12)


def test_lobe_centers_give_one_peak_twice_when_the_mirror_is_off_the_grid():
    axis = np.linspace(0.0, 4.0, 41)
    qq, pp = np.meshgrid(axis, axis)
    w = np.exp(-((qq - 3.0) ** 2 + (pp - 2.5) ** 2))
    peak, mirror = wigner_lobe_centers(axis, axis, w)
    assert peak == pytest.approx([3.0, 2.5], abs=1e-9)
    assert np.array_equal(peak, mirror) and peak is not mirror
