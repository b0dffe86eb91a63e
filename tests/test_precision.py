"""Closed forms against 50-digit mpmath references."""

import mpmath
import numpy as np

from oscprobe import estimate
from oscprobe.propagator import _exprel

mpmath.mp.dps = 50


def test_phi_prime_holds_its_digits_across_the_series_switch():
    # phi(u) = exprel(-u) and phi'(u) = (e^{-u} - phi(u))/u, from the same
    # e^{-u} and exprel the fit's kernel holds; the difference cancels at
    # small u, where the series takes over (the switch is at u = 1)
    u = np.concatenate([np.geomspace(1e-8, 30.0, 17), [1.3e-4, 0.999, 1.001]])
    got = estimate._phi_prime(u, np.exp(-u), _exprel(-u))

    def ref(x):
        x = mpmath.mpf(float(x))
        return (mpmath.exp(-x) + mpmath.expm1(-x) / x) / x

    want = np.array([float(ref(x)) for x in u])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14
