"""Phase-space primitives: parameters, Gaussian states, chord and Wigner forms.

Conventions (hbar = 1, oscillator frequency = 1):
    x = (a + a^dag)/sqrt(2),  p = -i(a - a^dag)/sqrt(2)
    chord function  w(r) = Tr[rho exp(i(k x + s p))],  r = (k, s)
    Gaussian chord  w(r) = exp(i x0.r - r^T sigma r / 2)
    Wigner          W(x) = exp(-(x-x0)^T sigma^-1 (x-x0)/2) / (2 pi sqrt(det sigma))
A thermal state with mean occupation m has center 0 and sigma = (m + 1/2) * identity;
the vacuum saturates the uncertainty bound det sigma = 1/4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

DET_COV_MIN = 0.25
DET_COV_TOL = 1e-12


@dataclass(frozen=True)
class PhaseVector:
    """Point in the oscillator phase plane: (q, p), or chord coordinates (k, s)."""

    x1: float
    x2: float

    def __post_init__(self):
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise ValidationError("phase-space vector components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "PhaseVector":
        a = np.asarray(arr, dtype=float)
        if a.shape != (2,):
            raise ValidationError(f"expected 2 components, got shape {a.shape}")
        return cls(float(a[0]), float(a[1]))

    def norm(self) -> float:
        return math.hypot(self.x1, self.x2)


def as_vec2(r) -> np.ndarray:
    """Coerce a PhaseVector or length-2 sequence to a finite float array (2,)."""
    if isinstance(r, PhaseVector):
        return r.as_array()
    arr = np.asarray(r, dtype=float)
    if arr.shape != (2,):
        raise ValidationError(f"expected 2 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("phase-space vector components must be finite")
    return arr


@dataclass(frozen=True)
class Covariance2:
    """Symmetric 2x2 covariance matrix obeying the uncertainty bound det >= 1/4."""

    s11: float
    s12: float
    s22: float

    def __post_init__(self):
        for v in (self.s11, self.s12, self.s22):
            if not math.isfinite(v):
                raise ValidationError("covariance entries must be finite")
        if self.s11 <= 0.0 or self.s22 <= 0.0:
            raise ValidationError("covariance diagonal entries must be positive")
        if self.det < DET_COV_MIN - DET_COV_TOL:
            raise ValidationError(
                f"det sigma = {self.det:.12g} violates det >= 1/4 "
                f"(tolerance {DET_COV_TOL:g})")

    @property
    def det(self) -> float:
        return self.s11 * self.s22 - self.s12 * self.s12

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.s11, self.s12], [self.s12, self.s22]], dtype=float)

    def inverse(self) -> np.ndarray:
        d = self.det
        return np.array([[self.s22, -self.s12], [-self.s12, self.s11]]) / d

    @classmethod
    def isotropic(cls, s: float) -> "Covariance2":
        return cls(float(s), 0.0, float(s))


@dataclass(frozen=True)
class GaussianState:
    """Gaussian oscillator state: phase-space center and covariance."""

    center: PhaseVector
    cov: Covariance2

    @classmethod
    def thermal(cls, mbar: float) -> "GaussianState":
        """Thermal state with mean occupation mbar: sigma = (mbar + 1/2) * identity."""
        if not (math.isfinite(mbar) and mbar >= 0.0):
            raise ValidationError("mean occupation must be finite and >= 0")
        return cls(PhaseVector(0.0, 0.0), Covariance2.isotropic(mbar + 0.5))

    @classmethod
    def coherent(cls, q0: float, p0: float) -> "GaussianState":
        """Coherent state centered at (q0, p0) with vacuum covariance 1/2."""
        return cls(PhaseVector(q0, p0), Covariance2.isotropic(0.5))


@dataclass(frozen=True)
class QubitInitState:
    """Initial qubit density matrix entries; a01 is the upper off-diagonal."""

    a00: float
    a11: float
    a01: complex

    def __post_init__(self):
        if not (math.isfinite(self.a00) and math.isfinite(self.a11)
                and math.isfinite(self.a01.real) and math.isfinite(self.a01.imag)):
            raise ValidationError("qubit entries must be finite")
        if self.a00 < -1e-12 or self.a11 < -1e-12:
            raise ValidationError("qubit populations must be non-negative")
        if abs(self.a00 + self.a11 - 1.0) > 1e-10:
            raise ValidationError("qubit populations must sum to 1")
        if abs(self.a01) ** 2 > self.a00 * self.a11 + 1e-10:
            raise ValidationError("|a01|^2 <= a00*a11 required for positivity")

    @classmethod
    def balanced(cls) -> "QubitInitState":
        """Equal-weight superposition: all entries 1/2."""
        return cls(0.5, 0.5, 0.5 + 0.0j)


@dataclass(frozen=True)
class SystemParams:
    """Model parameters: coupling g, damping kappa, detuning delta, occupations.

    nbar is the bath occupation, mbar the initial thermal occupation of the
    oscillator. Derived scales: N = 2*nbar + 1, M = mbar + 1/2, and the
    dissipative rate gamma_plus = kappa * N.
    """

    g: float
    kappa: float
    delta: float = 0.0
    nbar: float = 0.0
    mbar: float = 0.0

    def __post_init__(self):
        for name in ("g", "kappa", "delta", "nbar", "mbar"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.kappa < 0.0:
            raise ValidationError("kappa must be >= 0")
        if self.nbar < 0.0 or self.mbar < 0.0:
            raise ValidationError("occupations must be >= 0")

    @property
    def N(self) -> float:
        return 2.0 * self.nbar + 1.0

    @property
    def M(self) -> float:
        return self.mbar + 0.5

    @property
    def gamma_plus(self) -> float:
        return self.kappa * self.N


def occupation_from_temperature(temperature: float) -> float:
    """Bose occupation 1/(exp(1/T) - 1) for temperature T > 0 (units of hbar*omega/kB)."""
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValidationError("temperature must be finite and > 0")
    beta = 1.0 / temperature
    if beta > 700.0:  # expm1 would overflow; occupation is below 1e-304
        return 0.0
    return float(1.0 / math.expm1(beta))


def chord_eval(state: GaussianState, r) -> complex:
    """Chord (characteristic) function of a Gaussian state at chord point r = (k, s)."""
    rv = as_vec2(r)
    x0 = state.center.as_array()
    sig = state.cov.as_matrix()
    return complex(np.exp(1j * (x0 @ rv) - 0.5 * (rv @ sig @ rv)))


def wigner_eval(state: GaussianState, x) -> float:
    """Wigner function of a Gaussian state at phase-space point x = (q, p)."""
    xv = as_vec2(x)
    dx = xv - state.center.as_array()
    quad = dx @ state.cov.inverse() @ dx
    return float(np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(state.cov.det)))
