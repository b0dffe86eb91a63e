"""Number-basis readouts the tests check the oracle's blocks with.

Chord values and Wigner grids of a raw density matrix, computed with no use
of the closed forms: the closed-form chord functions and Wigner grids are
compared against the oracle through these.
"""

import math

import numpy as np

from oscprobe import BlockDensityMatrix, ValidationError
from oscprobe.phase_space import as_points


def chord_from_matrix(rho, r) -> complex:
    """Chord value Tr[rho exp(i(k x + s p))] from a raw density matrix."""
    entries = rho.entries if isinstance(rho, BlockDensityMatrix) else np.asarray(rho)
    dim = entries.shape[0]
    rv = as_points(r)
    if rv.shape != (2,):
        raise ValidationError(f"expected one point, got shape {rv.shape}")
    rootn = np.sqrt(np.arange(1, dim))
    a = np.diag(rootn, 1)
    x = (a + a.conj().T) / math.sqrt(2.0)
    p = -1j * (a - a.conj().T) / math.sqrt(2.0)
    lam, vecs = np.linalg.eigh(rv[0] * x + rv[1] * p)
    u = (vecs * np.exp(1j * lam)) @ vecs.conj().T
    return complex(np.einsum("ij,ji->", entries, u))


def eigenfunction_matrix(dim: int, x) -> np.ndarray:
    """Oscillator eigenfunctions psi_n(x) by upward recurrence, shape (dim, len(x))."""
    x = np.asarray(x, dtype=float)
    psi = np.empty((dim, x.size))
    psi[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if dim > 1:
        psi[1] = math.sqrt(2.0) * x * psi[0]
    for n in range(2, dim):
        psi[n] = (math.sqrt(2.0 / n) * x * psi[n - 1]
                  - math.sqrt((n - 1.0) / n) * psi[n - 2])
    return psi


def wigner_grid_from_matrix(rho, qs, ps) -> np.ndarray:
    """Wigner values on a (q, p) grid from a raw number-basis matrix.

    Evaluates W(q, p) = (1/pi) integral dy <q+y|rho|q-y> exp(-2ipy) with
    exact eigenfunctions on a shared position grid, so accuracy is set by
    quadrature alone and holds at any truncation dim. qs must be uniformly
    spaced. Returns shape (len(ps), len(qs)) with W[j, i] = W(qs[i], ps[j]),
    matching the analytic grid convention (q varies fastest on a C-order
    flatten).
    """
    entries = rho.entries if isinstance(rho, BlockDensityMatrix) else np.asarray(rho)
    dim = entries.shape[0]
    qs = np.asarray(qs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if qs.size > 1:
        dq = np.diff(qs)
        if np.max(np.abs(dq - dq[0])) > 1e-9 * max(1.0, abs(dq[0])):
            raise ValidationError("qs must be uniformly spaced")
        hq = float(dq[0])
    else:
        hq = 0.05
    # highest occupied level sets the spatial support and momentum content
    x_max = math.sqrt(2.0 * dim + 1.0) + 4.0
    p_max = float(np.max(np.abs(ps))) if ps.size else 0.0
    h_target = min(hq, math.pi / (5.0 * (math.sqrt(2.0 * dim + 1.0) + p_max)))
    h = hq / math.ceil(hq / h_target)  # divides hq so q +- y stays on nodes
    ny = int(math.ceil(x_max / h))
    ys = h * np.arange(-ny, ny + 1)
    nodes = qs[0] + h * np.arange(-ny, round(hq / h) * (qs.size - 1) + ny + 1)
    psi = eigenfunction_matrix(dim, nodes)
    density = psi.T @ (entries @ psi)  # <x|rho|x'> on the node grid
    idx_q = int(round(hq / h)) * np.arange(qs.size) + ny
    idx_y = np.arange(-ny, ny + 1)
    kern = density[idx_q[:, None] + idx_y[None, :],
                   idx_q[:, None] - idx_y[None, :]]
    phases = np.exp(-2j * ys[:, None] * ps[None, :])
    return (kern @ phases).T.real * (h / math.pi)
