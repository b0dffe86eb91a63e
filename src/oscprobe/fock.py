"""Truncated number-basis oracle for the qubit-conditioned oscillator blocks.

Integrates the block master equations directly in a truncated Fock basis and
re-derives every observable (chord values, Wigner grids, fidelities,
purities) from the raw density matrices, independently of the closed forms.

Vectorization is row-major: vec(A rho B) = (A kron B^T) vec(rho).

The qubit has splitting delta, H_q = (delta/2) sigma_z, so the off-diagonal
block is integrated as

    d rho_01/dt = -i [ H+ rho_01 - rho_01 H- + delta rho_01 ] + L[rho_01],

whose trace carries the same phase factor exp(-i delta t) as the closed form.

The default integrator ("rk") is Hairer's compiled DOP853, reached through
scipy.integrate.ode, run on the zero-copy real view of the complex state
(v.view(float)). Its stage sums are compiled loops, not threaded-BLAS
products, so the integration runs on one core and leaves no BLAS worker
spinning between steps. One solver is built and cached per
(rel_tol, abs_tol) pair; it is not re-entrant.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import TruncationLeakError, ValidationError
from .fidelity import (fidelity_generalized, fidelity_uj_blocks, purity_qubit,
                       purity_oscillator)
from .phase_space import GaussianState, QubitInitState, SystemParams, as_vec2
from .propagator import coherence_trace

if TYPE_CHECKING:
    import scipy.sparse as sp

LEAK_TOL = 1e-8
# default_dim sizes the basis to this tail weight; sizing right at LEAK_TOL
# left evolved blocks close enough to the guard to trip it at a few points
SIZING_TOL = LEAK_TOL / 10
EIG_CLAMP = -1e-8  # integrator roundoff scale at dim ~100; real leakage is orders larger
_BLOCKS = ("00", "11", "01")
_METHODS = ("rk", "expm")
_MIN_REL_TOL = 100 * np.finfo(float).eps
_MAX_STEPS = 100_000  # Hairer's default NMAX


@dataclass(frozen=True)
class OracleConfig:
    """Oracle settings: basis size (None = automatic), tolerances, integrator.

    method "rk" integrates with Hairer's compiled DOP853 (scipy.integrate.ode)
    on the real view of the state at (rel_tol, abs_tol), with one solver
    cached per tolerance pair; its stage sums call no threaded BLAS. "expm"
    applies the exact exponential of the generator. Tolerances must be
    finite and positive, and rel_tol at least 100 machine epsilons.
    """

    dim: int | None = None
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    method: str = "rk"

    def __post_init__(self):
        if self.dim is not None and (not isinstance(self.dim, int) or self.dim < 2):
            raise ValidationError("dim must be an integer >= 2 or None")
        if not (math.isfinite(self.rel_tol) and math.isfinite(self.abs_tol)
                and self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ValidationError("tolerances must be finite and positive")
        if self.rel_tol < _MIN_REL_TOL:
            raise ValidationError(f"rel_tol must be >= {_MIN_REL_TOL:.3g}")
        if self.method not in _METHODS:
            raise ValidationError(f"method must be one of {_METHODS}")


@dataclass(frozen=True)
class BlockDensityMatrix:
    """One oscillator block in the truncated number basis."""

    dim: int
    entries: np.ndarray
    block: str

    def __post_init__(self):
        if self.block not in _BLOCKS:
            raise ValidationError(f"block must be one of {_BLOCKS}")
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (self.dim, self.dim):
            raise ValidationError(
                f"entries shape {e.shape} does not match dim {self.dim}")
        if not np.all(np.isfinite(e.real)) or not np.all(np.isfinite(e.imag)):
            raise ValidationError("entries must be finite")
        object.__setattr__(self, "entries", e)

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.entries))


def _expi_hermitian(gen: np.ndarray) -> np.ndarray:
    """exp(i gen) for a dense Hermitian gen, as V e^{i lambda} V^dag."""
    lam, vecs = np.linalg.eigh(gen)
    return (vecs * np.exp(1j * lam)) @ vecs.conj().T


def _bounding_gaussian(params: SystemParams, dim: int) -> np.ndarray:
    """Thermal state at max(mbar, nbar) displaced by the drift bound.

    At every t each evolved block is a Gaussian of occupation at most
    max(mbar, nbar) about a center at most 2g/sqrt(1 + kappa^2) from the
    origin.
    """
    shift = 2.0 * abs(params.g) / math.sqrt(1.0 + params.kappa ** 2)
    occ = max(params.mbar, params.nbar)
    return displaced_thermal_block(dim, occ, shift, 0.0).entries


def default_dim(params: SystemParams) -> int:
    """Smallest basis at which the bounding Gaussian's tail stays below SIZING_TOL.

    The bounding Gaussian (see _bounding_gaussian) is built in a basis at
    least twice as large as the answer; every level n >= dim - 1 has tail
    weight below SIZING_TOL in the leak guard's own measure. The bound holds
    for all t; the guard still checks every evolved block.
    """
    big = 32
    while True:
        rho = _bounding_gaussian(params, big)
        # the top half of the big basis carries its own truncation error
        over = [n for n in range(big // 2)
                if _tail_weight(rho[:n + 1, :n + 1]) >= SIZING_TOL]
        dim = over[-1] + 2
        if dim <= big // 2:
            return dim
        big *= 2


def _tail_weight(entries: np.ndarray) -> float:
    """Relative weight of the top basis level (last row/column)."""
    scale = max(abs(np.trace(entries)), float(np.max(np.abs(entries))), 1e-300)
    tail = max(float(np.max(np.abs(entries[-1, :]))),
               float(np.max(np.abs(entries[:, -1]))))
    return tail / scale


def _check_leak(entries: np.ndarray, dim: int, stage: str) -> None:
    w = _tail_weight(entries)
    if w > LEAK_TOL:
        raise TruncationLeakError(
            f"top-level weight {w:.3g} > {LEAK_TOL:g} in {stage} at dim {dim}",
            suggested_dim=2 * dim)


@dataclass(frozen=True)
class OperatorSet:
    """Sparse ladder/quadrature operators and block Hamiltonians at one dim."""

    dim: int
    params: SystemParams
    a: sp.csr_matrix
    adag: sp.csr_matrix
    x: sp.csr_matrix
    p: sp.csr_matrix
    h_plus: sp.csr_matrix
    h_minus: sp.csr_matrix

    def liouvillian(self, block: str) -> sp.csr_matrix:
        """Full generator of the requested block as a dim^2 x dim^2 matrix."""
        if block not in _BLOCKS:
            raise ValidationError(f"block must be one of {_BLOCKS}")
        import scipy.sparse as sp
        dim, prm = self.dim, self.params
        ident = sp.identity(dim, format="csr")

        def lmul(op):
            return sp.kron(op, ident, format="csr")

        def rmul(op):
            return sp.kron(ident, op.T, format="csr")

        if block == "00":
            ham = lmul(self.h_plus) - rmul(self.h_plus)
        elif block == "11":
            ham = lmul(self.h_minus) - rmul(self.h_minus)
        else:
            ham = (lmul(self.h_plus) - rmul(self.h_minus)
                   + prm.delta * sp.identity(dim * dim, format="csr"))

        n_op = (self.adag @ self.a).tocsr()
        aad = (self.a @ self.adag).tocsr()
        down = 2.0 * sp.kron(self.a, self.a, format="csr") - lmul(n_op) - rmul(n_op)
        up = (2.0 * sp.kron(self.adag, self.adag, format="csr")
              - lmul(aad) - rmul(aad))
        diss = prm.kappa * (1.0 + prm.nbar) * down + prm.kappa * prm.nbar * up
        return (-1j * ham + diss).tocsr()


def build_operators(dim: int, params: SystemParams) -> OperatorSet:
    """Ladder operators, quadratures, and the two displaced Hamiltonians."""
    if dim < 2:
        raise ValidationError("dim must be >= 2")
    import scipy.sparse as sp
    rootn = np.sqrt(np.arange(1, dim))
    a = sp.diags(rootn, 1, format="csr")
    adag = sp.diags(rootn, -1, format="csr")
    x = ((a + adag) / math.sqrt(2.0)).tocsr()
    p = (-1j * (a - adag) / math.sqrt(2.0)).tocsr()
    h_osc = (adag @ a + 0.5 * sp.identity(dim)).tocsr()
    h_plus = (h_osc + params.g * x).tocsr()
    h_minus = (h_osc - params.g * x).tocsr()
    return OperatorSet(dim=dim, params=params, a=a, adag=adag, x=x, p=p,
                       h_plus=h_plus, h_minus=h_minus)


def thermal_block(dim: int, mbar: float, block: str = "00") -> BlockDensityMatrix:
    """Thermal initial block, renormalized on the truncated basis."""
    if mbar < 0.0:
        raise ValidationError("mbar must be >= 0")
    if mbar == 0.0:
        probs = np.zeros(dim)
        probs[0] = 1.0
    else:
        ratio = mbar / (1.0 + mbar)
        probs = ratio ** np.arange(dim)
        probs /= probs.sum()
    return BlockDensityMatrix(dim, np.diag(probs).astype(complex), block)


def coherent_block(dim: int, q0: float, p0: float,
                   block: str = "00") -> BlockDensityMatrix:
    """Coherent initial block |alpha><alpha|, renormalized on the truncation."""
    alpha = (q0 + 1j * p0) / math.sqrt(2.0)
    n = np.arange(dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, dim)))))
    if alpha == 0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
    else:
        amps = np.exp(n * np.log(complex(alpha)) - 0.5 * log_fact
                      - 0.5 * abs(alpha) ** 2)
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return BlockDensityMatrix(dim, np.outer(amps, amps.conj()), block)


def displaced_thermal_block(dim: int, mbar: float, q0: float, p0: float,
                            block: str = "00") -> BlockDensityMatrix:
    """Displaced thermal initial block D(alpha) rho_th D(alpha)^dag."""
    alpha = (q0 + 1j * p0) / math.sqrt(2.0)
    rootn = np.sqrt(np.arange(1, dim))
    a = np.diag(rootn, 1)
    # D(alpha) = exp(alpha a^dag - alpha^* a) = exp(i gen), gen Hermitian
    disp = _expi_hermitian(-1j * (alpha * a.conj().T - np.conj(alpha) * a))
    rho = thermal_block(dim, mbar, block).entries
    return BlockDensityMatrix(dim, disp @ rho @ disp.conj().T, block)


def _rhs(_t, v, liou):
    return liou.dot(v.view(complex)).view(float)


# One solver per tolerance pair, with the generator passed through
# set_f_params: scipy's _dop wrapper keeps a reference to the callback of
# every run, so a fresh ode per evolution, whose callback holds that run's
# generator and integrator, leaks them (~0.3 MB per solve at dim 30). The
# cached solver is shared state and not re-entrant: no two evolutions may
# run on it at once.
@functools.cache
def _dop853(rel_tol: float, abs_tol: float):
    from scipy.integrate import ode
    return ode(_rhs).set_integrator("dop853", rtol=rel_tol, atol=abs_tol,
                                    nsteps=_MAX_STEPS)


@dataclass(frozen=True)
class Integration:
    """End state and work count of one solve_ivp run."""

    y: np.ndarray
    nfev: int
    status: int
    message: str

    @property
    def success(self) -> bool:
        return self.status > 0


def solve_ivp(liou, v0: np.ndarray, t: float, rel_tol: float,
              abs_tol: float) -> Integration:
    """Integrate dv/dt = liou v from the complex v0 over [0, t] with DOP853.

    Runs the cached compiled solver for (rel_tol, abs_tol) on the real view
    of the state and returns its own end state (no dense output).
    """
    solver = _dop853(rel_tol, abs_tol)
    solver.set_initial_value(v0.view(float), 0.0).set_f_params(liou)
    with warnings.catch_warnings():
        # a failure is reported through the result, not as a warning
        warnings.simplefilter("ignore", UserWarning)
        y = solver.integrate(t)
    status = int(solver.get_return_code())
    integrator = solver._integrator
    return Integration(
        y=y.view(complex), nfev=int(integrator.iwork[16]),  # Hairer's NFCN
        status=status, message=integrator.messages.get(
            status, f"unexpected return code {status}"))


def evolve_block(init: BlockDensityMatrix, params: SystemParams,
                 config: OracleConfig, t: float) -> BlockDensityMatrix:
    """Propagate one block to time t >= 0 in the truncated basis.

    Raises TruncationLeakError (with a suggested dim) when the initial or the
    evolved matrix puts more than LEAK_TOL relative weight on the top level.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValidationError("t must be finite and >= 0")
    if config.dim is not None and config.dim != init.dim:
        raise ValidationError(
            f"config dim {config.dim} != initial matrix dim {init.dim}")
    dim = init.dim
    _check_leak(init.entries, dim, "initial state")
    if t == 0.0:
        return BlockDensityMatrix(dim, init.entries.copy(), init.block)
    liou = build_operators(dim, params).liouvillian(init.block)
    v0 = init.entries.reshape(-1)
    if config.method == "expm":
        from scipy.sparse.linalg import expm_multiply
        vt = expm_multiply(liou * t, v0)
    else:
        sol = solve_ivp(liou, v0, t, config.rel_tol, config.abs_tol)
        if not sol.success:
            raise ValidationError(
                f"integration failed (return code {sol.status}): {sol.message}")
        vt = sol.y
    out = vt.reshape(dim, dim)
    _check_leak(out, dim, f"evolved {init.block} block")
    return BlockDensityMatrix(dim, out, init.block)


def chord_from_matrix(rho, r) -> complex:
    """Chord value Tr[rho exp(i(k x + s p))] from a raw density matrix."""
    entries = rho.entries if isinstance(rho, BlockDensityMatrix) else np.asarray(rho)
    dim = entries.shape[0]
    rv = as_vec2(r)
    rootn = np.sqrt(np.arange(1, dim))
    a = np.diag(rootn, 1)
    x = (a + a.conj().T) / math.sqrt(2.0)
    p = -1j * (a - a.conj().T) / math.sqrt(2.0)
    u = _expi_hermitian(rv[0] * x + rv[1] * p)
    return complex(np.einsum("ij,ji->", entries, u))


def chord_grid_from_matrix(rho, ks, ss) -> np.ndarray:
    """Chord values on a (k, s) grid; returns shape (len(ks), len(ss)).

    Uses exp(i(k x + s p)) = exp(ikx) exp(isp) exp(iks/2) through the
    eigenbases of x and p, so a full grid costs two dense matmuls. Values
    are faithful only while the implied displacement fits the truncated
    basis (|r|^2/2 well below dim); keep the grid radius modest.
    """
    entries = rho.entries if isinstance(rho, BlockDensityMatrix) else np.asarray(rho)
    dim = entries.shape[0]
    ks = np.asarray(ks, dtype=float)
    ss = np.asarray(ss, dtype=float)
    rootn = np.sqrt(np.arange(1, dim))
    a = np.diag(rootn, 1)
    x = (a + a.conj().T) / math.sqrt(2.0)
    p = -1j * (a - a.conj().T) / math.sqrt(2.0)
    lam_x, vx = np.linalg.eigh(x)
    lam_p, vp = np.linalg.eigh(p)
    pm = vx.T @ vp
    qm = vp.conj().T @ entries @ vx
    cm = pm * qm.T
    ek = np.exp(1j * ks[:, None] * lam_x[None, :])
    es = np.exp(1j * ss[:, None] * lam_p[None, :])
    return np.exp(0.5j * ks[:, None] * ss[None, :]) * (ek @ cm @ es.T)


def _eigenfunction_matrix(dim: int, x) -> np.ndarray:
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
    psi = _eigenfunction_matrix(dim, nodes)
    density = psi.T @ (entries @ psi)  # <x|rho|x'> on the node grid
    idx_q = int(round(hq / h)) * np.arange(qs.size) + ny
    idx_y = np.arange(-ny, ny + 1)
    kern = density[idx_q[:, None] + idx_y[None, :],
                   idx_q[:, None] - idx_y[None, :]]
    phases = np.exp(-2j * ys[:, None] * ps[None, :])
    return (kern @ phases).T.real * (h / math.pi)


def _clamped_sqrt_eigs(mat: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvalsh(mat)
    if vals.min() < EIG_CLAMP:
        raise ValidationError(
            f"matrix has eigenvalue {vals.min():.3g} below clamp {EIG_CLAMP:g}")
    return np.sqrt(np.clip(vals, 0.0, None))


def uhlmann_fidelity(rho1, rho2) -> float:
    """(Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 from raw density matrices.

    Eigenvalues are clamped to zero down to EIG_CLAMP; anything lower is an
    error. Inputs are symmetrized to remove integrator roundoff.
    """
    e1 = rho1.entries if isinstance(rho1, BlockDensityMatrix) else np.asarray(rho1)
    e2 = rho2.entries if isinstance(rho2, BlockDensityMatrix) else np.asarray(rho2)
    e1 = 0.5 * (e1 + e1.conj().T)
    e2 = 0.5 * (e2 + e2.conj().T)
    vals, vecs = np.linalg.eigh(e1)
    if vals.min() < EIG_CLAMP:
        raise ValidationError(
            f"matrix has eigenvalue {vals.min():.3g} below clamp {EIG_CLAMP:g}")
    sq1 = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    inner = sq1 @ e2 @ sq1
    inner = 0.5 * (inner + inner.conj().T)
    return float(np.sum(_clamped_sqrt_eigs(inner)) ** 2)


def reduced_quantities(blocks: dict, qubit: QubitInitState, qs=None, ps=None,
                       with_wigner: bool = True) -> dict:
    """Reduced-state observables from the three evolved blocks.

    Returns purity_qubit, purity_oscillator, the grid axes, and (unless
    with_wigner is False) the reduced Wigner grid of shape (len(ps), len(qs)).
    """
    for key in _BLOCKS:
        if key not in blocks:
            raise ValidationError(f"missing block {key}")
    if qs is None:
        qs = np.arange(-8.0, 8.0 + 0.025, 0.05)
    if ps is None:
        ps = np.arange(-8.0, 8.0 + 0.025, 0.05)
    e00 = blocks["00"].entries
    e11 = blocks["11"].entries
    tr01 = blocks["01"].trace
    p_q = (qubit.a00 ** 2 + qubit.a11 ** 2
           + 2.0 * abs(qubit.a01 * tr01) ** 2)
    rho_osc = qubit.a00 * e00 + qubit.a11 * e11
    p_osc = float(np.real(np.trace(rho_osc @ rho_osc)))
    out = {"purity_qubit": float(p_q), "purity_oscillator": p_osc,
           "qs": np.asarray(qs, dtype=float), "ps": np.asarray(ps, dtype=float)}
    if with_wigner:
        out["wigner"] = wigner_grid_from_matrix(rho_osc, qs, ps)
    return out


def evolve_thermal_blocks(params: SystemParams, config: OracleConfig,
                          t: float) -> dict:
    """Evolve all three blocks from the thermal start given by params.mbar.

    With config.dim None, starts from default_dim and doubles it (at most
    twice) whenever the truncation guard trips. Returns the blocks under
    "00", "11" and "01", the dim that held under "dim", and every dim
    attempted, in order, under "dims_tried".
    """
    dim = config.dim if config.dim is not None else default_dim(params)
    attempts = 3 if config.dim is None else 1
    dims_tried = []
    last_err: TruncationLeakError | None = None
    for _ in range(attempts):
        dims_tried.append(dim)
        try:
            run_cfg = OracleConfig(dim=dim, rel_tol=config.rel_tol,
                                   abs_tol=config.abs_tol, method=config.method)
            out = {}
            for block in _BLOCKS:
                init = thermal_block(dim, params.mbar, block)
                out[block] = evolve_block(init, params, run_cfg, t)
            out["dim"] = dim
            out["dims_tried"] = dims_tried
            return out
        except TruncationLeakError as err:
            last_err = err
            dim *= 2
    raise last_err


def sample_comparison_points(n: int, seed: int, t_max: float = 20.0,
                             delta: float = 0.0) -> list:
    """Random (params, t) points in the standard cross-check ranges.

    g in (0, 0.3], kappa in (0, 0.2], nbar and mbar in [0, 2], t in (0, t_max].
    """
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        params = SystemParams(
            g=0.3 * (1.0 - rng.random()),
            kappa=0.2 * (1.0 - rng.random()),
            delta=delta,
            nbar=2.0 * rng.random(),
            mbar=2.0 * rng.random())
        points.append((params, t_max * (1.0 - rng.random())))
    return points


def compare_point(params: SystemParams, qubit: QubitInitState,
                  config: OracleConfig, t: float) -> dict:
    """Oracle-vs-closed-form deviations for every observable at one point.

    Besides the dev_* deviations, reports the dim used, every dim tried
    (dims_tried) and the number of leak-guard retries (leak_retries).
    """
    blocks = evolve_thermal_blocks(params, config, t)
    dim = blocks["dim"]
    init = GaussianState.thermal(params.mbar)
    tr01 = blocks["01"].trace

    fgen_o = abs(tr01) ** 2
    fgen_a = fidelity_generalized(t, params, init)
    coh_a = coherence_trace(t, params, init)
    fuj_o = uhlmann_fidelity(blocks["00"], blocks["11"])
    fuj_a = fidelity_uj_blocks(t, params, params.M)
    red = reduced_quantities(blocks, qubit, with_wigner=False)
    pq_a = purity_qubit(t, params, params.M, qubit)
    posc_a = purity_oscillator(t, params, params.M, qubit)

    return {
        "t": t,
        "dim": dim,
        "dims_tried": blocks["dims_tried"],
        "leak_retries": len(blocks["dims_tried"]) - 1,
        "dev_fgen": abs(fgen_o - fgen_a),
        "dev_fuj": abs(fuj_o - fuj_a),
        "dev_coherence": abs(tr01 - coh_a),
        "dev_purity_qubit": abs(red["purity_qubit"] - pq_a),
        "dev_purity_oscillator": abs(red["purity_oscillator"] - posc_a),
    }
