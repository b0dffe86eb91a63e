"""Invariants over the oracle's parameter box, checked without evolution."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oscprobe import GaussianState, SystemParams, default_dim, fidelity_generalized

# the box sample_comparison_points draws from
G = st.floats(1e-3, 0.3)
KAPPA = st.floats(1e-3, 0.2)
OCC = st.floats(0.0, 2.0)
GROWTH = st.floats(0.0, 1.0)
TIMES = st.lists(st.floats(0.0, 20.0), min_size=1, max_size=16)
CHEAP = settings(max_examples=40, deadline=None)


@CHEAP
@given(G, KAPPA, OCC, OCC)
def test_default_dim_ignores_the_sign_of_g(g, kappa, nbar, mbar):
    up = SystemParams(g=g, kappa=kappa, nbar=nbar, mbar=mbar)
    down = SystemParams(g=-g, kappa=kappa, nbar=nbar, mbar=mbar)
    assert default_dim(up) == default_dim(down)


@CHEAP
@given(G, KAPPA, OCC, OCC, GROWTH, st.sampled_from(("g", "nbar", "mbar")))
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
