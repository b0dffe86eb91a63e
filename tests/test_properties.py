"""Invariants over the oracle's parameter box, checked without evolution."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oscprobe import (GaussianState, QubitInitState, SystemParams, default_dim,
                      fidelity_generalized, purity_oscillator, purity_qubit)
from oscprobe.propagator import _delta, _dsq, _Kernel

# the box sample_comparison_points draws from
G = st.floats(1e-3, 0.3)
KAPPA = st.floats(1e-3, 0.2)
OCC = st.floats(0.0, 2.0)
GROWTH = st.floats(0.0, 1.0)
TIMES = st.lists(st.floats(0.0, 20.0), min_size=1, max_size=16)
CHEAP = settings(max_examples=40, deadline=None)


@st.composite
def qubits(draw):
    """A valid qubit start: populations summing to 1, |a01|^2 <= a00 a11."""
    a00 = draw(st.floats(0.0, 1.0))
    a11 = 1.0 - a00
    radius = draw(st.floats(0.0, 1.0)) * np.sqrt(a00 * a11)
    phase = draw(st.floats(-np.pi, np.pi))
    return QubitInitState(a00, a11, complex(radius * np.exp(1j * phase)))


@CHEAP
@given(G, KAPPA, OCC, OCC)
def test_default_dim_ignores_the_sign_of_g(g, kappa, nbar, mbar):
    up = SystemParams(g=g, kappa=kappa, nbar=nbar, mbar=mbar)
    down = SystemParams(g=-g, kappa=kappa, nbar=nbar, mbar=mbar)
    assert default_dim(up) == default_dim(down)


@CHEAP
@given(G, KAPPA, OCC, OCC, GROWTH, st.sampled_from(("g", "nbar", "mbar")))
# a slightly mixed bound needs fewer levels than a pure one: sized at
# max(mbar, nbar) alone, this dim fell from 10 to 9
@example(g=0.103515625, kappa=0.0625, nbar=0.0, mbar=0.0, step=0.015625,
         field="nbar")
def test_default_dim_grows_with_occupation_and_coupling(g, kappa, nbar, mbar,
                                                        step, field):
    base = {"g": g, "kappa": kappa, "nbar": nbar, "mbar": mbar}
    grown = dict(base, **{field: base[field] + step})
    assert default_dim(SystemParams(**grown)) >= default_dim(SystemParams(**base))


@CHEAP
@given(G, KAPPA, OCC, OCC, TIMES)
def test_generalized_fidelity_is_a_fidelity_and_even_in_g(g, kappa, nbar, mbar,
                                                          times):
    ts = np.array(times)
    init = GaussianState.thermal(mbar)
    up = fidelity_generalized(ts, SystemParams(g=g, kappa=kappa, nbar=nbar,
                                               mbar=mbar), init)
    down = fidelity_generalized(ts, SystemParams(g=-g, kappa=kappa, nbar=nbar,
                                                 mbar=mbar), init)
    assert np.all(up > 0.0) and np.all(up <= 1.0)
    np.testing.assert_allclose(up, down, rtol=1e-14, atol=0.0)


@CHEAP
@given(G, KAPPA, OCC, OCC, st.floats(0.2, 1.0), TIMES)
def test_generalized_fidelity_cannot_tell_g_from_the_occupations(
        g, kappa, nbar, mbar, frac, times):
    # ln F = -M |eta|^2 - kappa N delta(t), with eta ~ g and delta(t) ~ g^2,
    # so (g, M, N) -> (cg, M/c^2, N/c^2) leaves every record unchanged, which
    # is why one record cannot fix (g, kappa, N); c stays where both
    # occupations remain >= 0
    ts = np.array(times)
    base = SystemParams(g=g, kappa=kappa, nbar=nbar, mbar=mbar)
    c = frac * np.sqrt(min(2.0 * base.M, base.N))
    scaled = SystemParams(g=c * g, kappa=kappa,
                          nbar=max(0.0, 0.5 * (base.N / c ** 2 - 1.0)),
                          mbar=max(0.0, base.M / c ** 2 - 0.5))
    np.testing.assert_allclose(
        fidelity_generalized(ts, scaled, GaussianState.thermal(scaled.mbar)),
        fidelity_generalized(ts, base, GaussianState.thermal(mbar)),
        rtol=1e-12, atol=0.0)


@CHEAP
@given(G, KAPPA, OCC, OCC, TIMES, qubits())
def test_purities_stay_in_their_bounds(g, kappa, nbar, mbar, times, qubit):
    ts = np.array(times)
    p = SystemParams(g=g, kappa=kappa, nbar=nbar, mbar=mbar)
    pq = purity_qubit(ts, p, p.M, qubit)
    posc = purity_oscillator(ts, p, p.M, qubit)
    assert np.all(pq >= 0.5 - 1e-12) and np.all(pq <= 1.0 + 1e-12)
    assert np.all(posc > 0.0) and np.all(posc <= 1.0 + 1e-12)


@CHEAP
@given(G, st.floats(1e-12, 1e-6), OCC, OCC, TIMES)
def test_generalized_fidelity_is_continuous_as_kappa_vanishes(g, kappa, nbar,
                                                              mbar, times):
    # at kappa = 0, -ln F = 8 g^2 M (1 - cos t) for a thermal start
    ts = np.array(times)
    init = GaussianState.thermal(mbar)
    p = SystemParams(g=g, kappa=kappa, nbar=nbar, mbar=mbar)
    unitary = np.exp(-8.0 * g ** 2 * p.M * (1.0 - np.cos(ts)))
    closed = fidelity_generalized(
        ts, SystemParams(g=g, kappa=0.0, nbar=nbar, mbar=mbar), init)
    assert np.all(np.abs(closed - unitary) <= 1e-15)
    damped = fidelity_generalized(ts, p, init)
    bound = 1e-14 + 4.0 * kappa * g ** 2 * (p.M + p.N) * (1.0 + ts) ** 2
    assert np.all(np.abs(damped - unitary) <= bound)


@CHEAP
@given(st.floats(0.0, 5.0), TIMES)
def test_fit_kernel_is_bitwise_the_closed_form(kappa, times):
    # the fits read D and E as _dsq and _delta at g = 1 off a kernel they keep
    ts = np.array(times)
    kern = _Kernel(ts)
    d, ev = _dsq(kern, 1.0, kappa), _delta(kern, 1.0, kappa)
    assert np.array_equal(d, _dsq(ts, 1.0, kappa))
    assert np.array_equal(ev, _delta(ts, 1.0, kappa))
