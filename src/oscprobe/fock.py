"""Truncated number-basis oracle for the qubit-conditioned oscillator blocks.

Integrates the block master equations directly in a truncated Fock basis and
re-derives every observable (chord values, Wigner grids, fidelities,
purities) from the raw density matrices, independently of the closed forms.

Vectorization is row-major: vec(A rho B) = (A kron B^T) vec(rho).

The qubit has splitting delta, H_q = (delta/2) sigma_z, so the off-diagonal
block is integrated as

    d rho_01/dt = -i [ H+ rho_01 - rho_01 H- + delta rho_01 ] + L[rho_01],

whose trace carries the same phase factor exp(-i delta t) as the closed form.

Every block is integrated with Hairer's compiled DOP853, reached through
scipy.integrate.ode with its stabilized step control (beta = 0.08), as the
dim^2 reals R = Re X + Im X of a Hermitian X, from which
X = (R + R^T)/2 + i (R - R^T)/2; on vec R a Hermitian-preserving generator
L becomes the real matrix G = Re L + (Im L) S, with S the permutation
vec X -> vec X^T. The 00 and 11 blocks are Hermitian at every t. For the 01
block, with P = diag((-1)^n), the delta term -i delta commutes with
everything and P H+ P = H-, so Y = rho_01 P evolves under the delta-free
generator conjugated by I kron P, which preserves Hermiticity; rho_01(t) is
then Y(t) P exp(-i delta t). A thermal start gives a Hermitian Y0; any other
Y0 runs as its two Hermitian parts. The stage sums are compiled loops, not
threaded-BLAS products, so the integration runs on one core and leaves no
BLAS worker spinning between steps. Neither does the rest of a point: one exact
row recurrence builds every displaced thermal state, the basis sizing's
bounding Gaussians and every start (thermal at zero displacement) alike, and
the Uhlmann readout takes the factor form (sum sigma_i(X1^dag X2))^2 with an
einsum product, so no eigenvector solve or matmul runs. The leak guard reads
the sizing's tail weight. The tolerances are fixed (_REL_TOL, _ABS_TOL); the
one solver is built once and cached, and it is not re-entrant. The basis never
exceeds MAX_DIM levels.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import TruncationLeakError, ValidationError
from .fidelity import (fidelity_generalized, fidelity_uj_blocks, purity_qubit,
                       purity_oscillator)
from .phase_space import GaussianState, QubitInitState, SystemParams, as_points
from .propagator import coherence_trace

if TYPE_CHECKING:
    import scipy.sparse as sp

LEAK_TOL = 1e-8
# default_dim sizes the basis to this tail weight; sizing right at LEAK_TOL
# left evolved blocks close enough to the guard to trip it at a few points
SIZING_TOL = LEAK_TOL / 10
EIG_CLAMP = -1e-8  # integrator roundoff scale at dim ~100; real leakage is orders larger
# a 00/11 start further than this (relative to its largest entry) from
# Hermitian is refused rather than projected onto the Hermitian part
HERMITIAN_TOL = 1e-12
_BLOCKS = ("00", "11", "01")
_HERMITIAN_BLOCKS = ("00", "11")
# the dense sizing basis and the sparse dim^2 generators stay bounded by this
MAX_DIM = 512
_REL_TOL = 1e-10
_ABS_TOL = 1e-12
_MAX_STEPS = 100_000  # Hairer's default NMAX
# Hairer's stabilized step control (Solving ODEs I, II.4); at scipy's
# default 0 about a quarter of the oracle's steps were rejected
_BETA = 0.08


@dataclass(frozen=True)
class OracleConfig:
    """Oracle basis size: an integer in [2, MAX_DIM], or None to size each point.

    Blocks are integrated with Hairer's compiled DOP853 (scipy.integrate.ode,
    stabilized step control) at the fixed tolerances _REL_TOL and _ABS_TOL.
    """

    dim: int | None = None

    def __post_init__(self):
        if self.dim is not None and (not isinstance(self.dim, int)
                                     or not 2 <= self.dim <= MAX_DIM):
            raise ValidationError(f"dim must be an integer in [2, {MAX_DIM}] or None")


@dataclass(frozen=True)
class BlockDensityMatrix:
    """One oscillator block in the truncated number basis.

    rhs_evals and rejected_steps count the integrator work that produced it
    (0 for a start).
    """

    dim: int
    entries: np.ndarray
    block: str
    rhs_evals: int = 0
    rejected_steps: int = 0

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


def _displaced_thermal(dim: int, occ: float, alpha: float) -> np.ndarray:
    """Thermal state at occupation occ displaced by the real alpha >= 0.

    Its number-basis elements (Cahill & Glauber 1969) come from an exact row
    recurrence, with r = occ/(1 + occ):
    rho[0, n] = (1-r) exp(-(1-r) alpha^2) ((1-r) alpha)^n / sqrt(n!), and
    sqrt(m+1) rho[m+1, n] = r sqrt(n) rho[m, n-1] + alpha (1-r) rho[m, n].
    Every term is >= 0, so nothing cancels, and no LAPACK or BLAS call runs.
    Every entry is exact, so a smaller dim gives a leading block of a larger
    one, bit for bit; the truncated trace is not renormalized.
    """
    r = occ / (1.0 + occ)
    rootn = np.sqrt(np.arange(dim))
    rho = np.empty((dim, dim))
    rho[0, 0] = (1.0 - r) * math.exp(-(1.0 - r) * alpha * alpha)
    rho[0, 1:] = (1.0 - r) * alpha / rootn[1:]
    rho[0] = np.cumprod(rho[0])
    for m in range(dim - 1):
        rho[m + 1] = alpha * (1.0 - r) * rho[m]
        rho[m + 1, 1:] += r * rootn[1:] * rho[m, :-1]
        rho[m + 1] /= rootn[m + 1]
    return rho


def default_dim(params: SystemParams) -> int:
    """Smallest basis at which the bounding Gaussians' tails stay below SIZING_TOL.

    At every t each evolved block is a Gaussian whose occupation lies between
    mbar and nbar, about a center at most 2g/sqrt(1 + kappa^2) (alpha times
    sqrt(2)) from the origin. In the leak guard's measure a near-pure Gaussian
    has larger top-row coherences than a slightly mixed one, so the size one
    occupation needs falls just above 0 before it grows, and max(mbar, nbar)
    alone can undersize. The sizing takes the worse of the bounding Gaussians
    at occupations 0 and max(mbar, nbar), which covers every occupation in
    between and grows with mbar, nbar and g. The guard still checks every
    evolved block. Raises ValidationError rather than build a basis above
    MAX_DIM.
    """
    kappa = params.kappa
    alpha = math.sqrt(2.0) * abs(params.g) / math.sqrt(1.0 + kappa * kappa)
    return max(_sized_dim(occ, alpha)
               for occ in (0.0, max(params.mbar, params.nbar)))


def _sized_dim(occ: float, alpha: float) -> int:
    """Smallest dim whose levels n >= dim - 1 have tail weights below SIZING_TOL.

    Scans sizes 16, 32, ... up to MAX_DIM; a size at which some level still
    reaches SIZING_TOL, or none does (the recurrence underflowed), is doubled.
    """
    size = 16
    while size <= MAX_DIM:
        heavy = np.flatnonzero(_tail_weights(_displaced_thermal(size, occ, alpha))
                               >= SIZING_TOL)
        if heavy.size and heavy[-1] + 2 <= size:
            return int(heavy[-1]) + 2
        size *= 2
    raise ValidationError(f"these parameters need a basis above MAX_DIM = {MAX_DIM}")


def _tail_weights(entries: np.ndarray) -> np.ndarray:
    """Relative top row/column weight of every leading block [:n + 1, :n + 1]."""
    mag = np.abs(entries)
    # the top row and column of block n, up to the diagonal; zeros lose a max
    tail = np.maximum(np.tril(mag).max(axis=1), np.triu(mag).max(axis=0))
    scale = np.maximum(np.abs(np.cumsum(np.diagonal(entries))),
                       np.maximum.accumulate(tail))
    return tail / np.maximum(scale, 1e-300)


def _check_hermitian(entries: np.ndarray, block: str) -> None:
    scale = max(float(np.max(np.abs(entries))), 1e-300)
    skew = float(np.max(np.abs(entries - entries.conj().T)))
    if skew > HERMITIAN_TOL * scale:
        raise ValidationError(
            f"{block} block is not Hermitian: |rho - rho^dag| {skew:.3g} > "
            f"{HERMITIAN_TOL:g} of its largest entry")


def _check_leak(entries: np.ndarray, dim: int, stage: str) -> None:
    w = float(_tail_weights(entries)[-1])
    if w > LEAK_TOL:
        raise TruncationLeakError(
            f"top-level weight {w:.3g} > {LEAK_TOL:g} in {stage} at dim {dim}",
            suggested_dim=2 * dim, weight=w)


@dataclass(frozen=True)
class OperatorSet:
    """Sparse ladder operators and block Hamiltonians at one dim.

    The superoperator pieces every block shares (the dissipator and the
    left/right products with H+ and H-) are built on first use and kept.
    """

    dim: int
    params: SystemParams
    a: sp.csr_matrix
    adag: sp.csr_matrix
    h_plus: sp.csr_matrix
    h_minus: sp.csr_matrix

    def _lmul(self, op) -> sp.csr_matrix:
        import scipy.sparse as sp
        return sp.kron(op, sp.identity(self.dim, format="csr"), format="csr")

    def _rmul(self, op) -> sp.csr_matrix:
        import scipy.sparse as sp
        return sp.kron(sp.identity(self.dim, format="csr"), op.T, format="csr")

    @functools.cached_property
    def _products(self) -> dict:
        """Left and right products with each block Hamiltonian, as superoperators."""
        return {sign: (self._lmul(h), self._rmul(h))
                for sign, h in (("+", self.h_plus), ("-", self.h_minus))}

    @functools.cached_property
    def _dissipator(self) -> sp.csr_matrix:
        import scipy.sparse as sp
        down = self.params.kappa * (1.0 + self.params.nbar)
        up = self.params.kappa * self.params.nbar
        # down (2 a rho a^dag - {a^dag a, rho}) + up (2 a^dag rho a - {a a^dag, rho})
        anti = (down * (self.adag @ self.a) + up * (self.a @ self.adag)).tocsr()
        return (2.0 * down * sp.kron(self.a, self.a, format="csr")
                + 2.0 * up * sp.kron(self.adag, self.adag, format="csr")
                - self._lmul(anti) - self._rmul(anti)).tocsr()

    def liouvillian(self, block: str) -> sp.csr_matrix:
        """Full generator of the requested block as a dim^2 x dim^2 matrix."""
        if block not in _BLOCKS:
            raise ValidationError(f"block must be one of {_BLOCKS}")
        left, right = {"00": "++", "11": "--", "01": "+-"}[block]
        ham = self._products[left][0] - self._products[right][1]
        if block == "01":
            import scipy.sparse as sp
            ham = ham + self.params.delta * sp.identity(self.dim ** 2, format="csr")
        return (-1j * ham + self._dissipator).tocsr()


def build_operators(dim: int, params: SystemParams) -> OperatorSet:
    """Ladder operators and the two displaced Hamiltonians."""
    if dim < 2:
        raise ValidationError("dim must be >= 2")
    import scipy.sparse as sp
    rootn = np.sqrt(np.arange(1, dim))
    a = sp.diags(rootn, 1, format="csr")
    adag = sp.diags(rootn, -1, format="csr")
    x = ((a + adag) / math.sqrt(2.0)).tocsr()
    h_osc = (adag @ a + 0.5 * sp.identity(dim)).tocsr()
    h_plus = (h_osc + params.g * x).tocsr()
    h_minus = (h_osc - params.g * x).tocsr()
    return OperatorSet(dim=dim, params=params, a=a, adag=adag, h_plus=h_plus,
                       h_minus=h_minus)


def displaced_thermal_block(dim: int, mbar: float, q0: float, p0: float,
                            block: str = "00") -> BlockDensityMatrix:
    """Every oracle start: D(alpha) rho_th D(alpha)^dag, alpha = (q0 + i p0)/sqrt(2).

    D(alpha) = R D(|alpha|) R^dag with R = exp(i arg(alpha) a^dag a), so entry
    (m, n) is _displaced_thermal's at |alpha| times exp(i (m - n) arg(alpha)),
    over its truncated trace (trace 1); q0 = p0 = 0 gives the thermal start.
    """
    if mbar < 0.0:
        raise ValidationError("mbar must be >= 0")
    radius, arg = cmath.polar(complex(q0, p0) / math.sqrt(2.0))
    turn = np.exp(1j * arg * np.arange(dim))
    rho = _displaced_thermal(dim, mbar, radius)
    rho /= np.trace(rho)
    return BlockDensityMatrix(dim, turn[:, None] * rho * turn.conj(), block)


def _pack_hermitian(entries: np.ndarray) -> np.ndarray:
    """vec R for R = Re rho + Im rho: the dim^2 reals that fix a Hermitian rho."""
    return (entries.real + entries.imag).ravel()


def _unpack_hermitian(v: np.ndarray, dim: int) -> np.ndarray:
    """The exactly Hermitian (R + R^T)/2 + i (R - R^T)/2 from vec R."""
    r = v.reshape(dim, dim)
    out = np.empty((dim, dim), dtype=complex)
    out.real = 0.5 * (r + r.T)
    out.imag = 0.5 * (r - r.T)
    return out


def _hermitian_generator(liou: sp.csr_matrix, dim: int) -> sp.csr_matrix:
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


def _parity_generator(liou: sp.csr_matrix, delta: float, dim: int) -> sp.csr_matrix:
    """(I (x) P)(L + i delta)(I (x) P): the 01 generator L acting on Y = rho_01 P.

    P = diag((-1)^n). With delta removed, Y stays Hermitian from a Hermitian
    start; on the row-major vec, the conjugation flips L's entries by s_i s_j.
    """
    import scipy.sparse as sp
    flip = sp.diags(np.tile((-1.0) ** np.arange(dim), dim))
    return (flip @ (liou + 1j * delta * sp.identity(dim * dim)) @ flip).tocsr()


def _rhs(_t, v, gen):
    return gen.dot(v)


# One solver, with the generator passed through set_f_params: scipy's _dop
# wrapper keeps a reference to the callback of every run, so a fresh ode per
# evolution, whose callback holds that run's generator and integrator, leaks
# them (~0.3 MB per solve at dim 30). The cached solver is shared state and
# not re-entrant: no two evolutions may run on it at once.
@functools.cache
def _dop853():
    from scipy.integrate import ode
    return ode(_rhs).set_integrator("dop853", rtol=_REL_TOL, atol=_ABS_TOL,
                                    nsteps=_MAX_STEPS, beta=_BETA)


class Integration(NamedTuple):
    """End state and work counts of one solve_ivp run."""

    y: np.ndarray
    nfev: int
    rejected_steps: int


def solve_ivp(gen, v0: np.ndarray, t: float) -> Integration:
    """Integrate dv/dt = gen v from the real v0 over [0, t] with DOP853.

    Runs the cached compiled solver, with stabilized step control, and
    returns its own end state (no dense output) with Hairer's counts of RHS
    evaluations (NFCN) and rejected steps (NREJCT). Raises ValidationError,
    with Hairer's return code and message, when the integration fails.
    """
    solver = _dop853()
    solver.set_initial_value(v0, 0.0).set_f_params(gen)
    with warnings.catch_warnings():
        # a failure is raised below, not reported as a warning
        warnings.simplefilter("ignore", UserWarning)
        y = solver.integrate(t)
    status = int(solver.get_return_code())
    integrator = solver._integrator
    if status <= 0:
        message = integrator.messages.get(status, f"unexpected return code {status}")
        raise ValidationError(f"integration failed (return code {status}): {message}")
    return Integration(y, int(integrator.iwork[16]), int(integrator.iwork[19]))


def evolve_block(init: BlockDensityMatrix, ops: OperatorSet,
                 t: float) -> BlockDensityMatrix:
    """Propagate one block to time t >= 0 under ops, built at init.dim.

    Integrates dim^2 reals under a real generator: the 00 and 11 blocks
    themselves, and for 01 the Hermitian Y = rho_01 P at delta = 0, turned by
    exp(-i delta t) at the end (a Y0 that is not Hermitian runs as its two
    Hermitian parts, skipping one that is exactly zero). The result carries
    the solver's RHS evaluations and rejected steps. Raises ValidationError
    when a 00 or 11 start is not Hermitian to HERMITIAN_TOL, and
    TruncationLeakError (with a suggested dim) when the initial or the
    evolved matrix puts more than LEAK_TOL relative weight on the top level.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValidationError("t must be finite and >= 0")
    dim = init.dim
    if ops.dim != dim:
        raise ValidationError(f"ops dim {ops.dim} != initial matrix dim {dim}")
    hermitian = init.block in _HERMITIAN_BLOCKS
    if hermitian:
        _check_hermitian(init.entries, init.block)
    _check_leak(init.entries, dim, "initial state")
    if t == 0.0:
        return BlockDensityMatrix(dim, init.entries.copy(), init.block)
    delta = ops.params.delta
    liou, parts, phase = ops.liouvillian(init.block), [(1.0, init.entries)], 1.0
    if not hermitian:
        parity = (-1.0) ** np.arange(dim)
        liou = _parity_generator(liou, delta, dim)
        # Y0 = A + iB with A, B Hermitian; a thermal start has B = 0
        y0 = init.entries * parity
        parts = [(1.0, 0.5 * (y0 + y0.conj().T)), (1j, -0.5j * (y0 - y0.conj().T))]
        phase = np.exp(-1j * delta * t) * parity
    gen = _hermitian_generator(liou, dim)
    out = np.zeros((dim, dim), dtype=complex)
    nfev = rejected = 0
    for weight, part in parts:
        if not part.any():
            continue
        sol = solve_ivp(gen, _pack_hermitian(part), t)
        out += weight * _unpack_hermitian(sol.y, dim)
        nfev, rejected = nfev + sol.nfev, rejected + sol.rejected_steps
    out *= phase
    _check_leak(out, dim, f"evolved {init.block} block")
    return BlockDensityMatrix(dim, out, init.block, nfev, rejected)


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


def uhlmann_fidelity(rho1, rho2) -> float:
    """(Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 from raw density matrices.

    Inputs are symmetrized to remove integrator roundoff. Either input with
    an eigenvalue below EIG_CLAMP is an error; smaller negative ones count
    at their magnitude. With rho_k = X_k X_k^dag and X_k = V_k sqrt(S_k) from
    the SVD of rho_k, the fidelity is (sum of singular values of X1^dag X2)^2
    (Uhlmann 1976; Jozsa 1994). The product is an einsum, not a BLAS call,
    and no eigenvector solve runs, so the readout leaves numpy's BLAS pool
    idle.
    """
    factors = []
    for rho in (rho1, rho2):
        e = rho.entries if isinstance(rho, BlockDensityMatrix) else np.asarray(rho)
        e = 0.5 * (e + e.conj().T)
        low = float(np.linalg.eigvalsh(e)[0])
        if low < EIG_CLAMP:
            raise ValidationError(
                f"matrix has eigenvalue {low:.3g} below clamp {EIG_CLAMP:g}")
        _, s, vh = np.linalg.svd(e)
        factors.append(vh.conj().T * np.sqrt(s))
    x1, x2 = factors
    overlap = np.einsum("ji,jk->ik", x1.conj(), x2)
    return float(np.sum(np.linalg.svd(overlap, compute_uv=False)) ** 2)


def reduced_quantities(blocks: dict, qubit: QubitInitState) -> dict:
    """purity_qubit and purity_oscillator from the three evolved blocks.

    The reduced oscillator state is a00 rho_00 + a11 rho_11; its Wigner grid
    is wigner_grid_from_matrix of that matrix.
    """
    for key in _BLOCKS:
        if key not in blocks:
            raise ValidationError(f"missing block {key}")
    tr01 = blocks["01"].trace
    p_q = qubit.a00 ** 2 + qubit.a11 ** 2 + 2.0 * abs(qubit.a01 * tr01) ** 2
    rho_osc = qubit.a00 * blocks["00"].entries + qubit.a11 * blocks["11"].entries
    # Tr rho^2 = sum |rho_ij|^2 for the Hermitian rho_osc
    p_osc = float(np.vdot(rho_osc, rho_osc).real)
    return {"purity_qubit": float(p_q), "purity_oscillator": p_osc}


def evolve_thermal_blocks(params: SystemParams, config: OracleConfig,
                          t: float) -> dict:
    """Evolve all three blocks from the thermal start given by params.mbar.

    With config.dim None, starts from default_dim and doubles it (at most
    twice, and never past MAX_DIM) whenever the truncation guard trips.
    Returns the blocks under "00", "11" and "01", the dim that held under
    "dim", every dim attempted, in order, under "dims_tried", and the tail
    weight that rejected each dim but the last under "leak_weights".
    """
    dim = config.dim if config.dim is not None else default_dim(params)
    dims_tried, leak_weights = [], []
    while True:
        dims_tried.append(dim)
        try:
            ops = build_operators(dim, params)
            out = {block: evolve_block(displaced_thermal_block(
                       dim, params.mbar, 0.0, 0.0, block), ops, t) for block in _BLOCKS}
            return {**out, "dim": dim, "dims_tried": dims_tried,
                    "leak_weights": leak_weights}
        except TruncationLeakError as err:
            if (config.dim is not None or len(dims_tried) == 3
                    or 2 * dim > MAX_DIM):
                raise
            leak_weights.append(err.weight)
            dim *= 2


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
    (dims_tried), the number of leak-guard retries (leak_retries), the tail
    weight behind each retry (leak_weights, one per dims_tried[:-1]), and the
    integrator's RHS evaluations and rejected steps summed over the three
    evolved blocks (rhs_evals, rejected_steps).
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
    red = reduced_quantities(blocks, qubit)
    pq_a = purity_qubit(t, params, params.M, qubit)
    posc_a = purity_oscillator(t, params, params.M, qubit)

    return {
        "t": t,
        "dim": dim,
        "dims_tried": blocks["dims_tried"],
        "leak_retries": len(blocks["dims_tried"]) - 1,
        "leak_weights": blocks["leak_weights"],
        "rhs_evals": sum(blocks[b].rhs_evals for b in _BLOCKS),
        "rejected_steps": sum(blocks[b].rejected_steps for b in _BLOCKS),
        "dev_fgen": abs(fgen_o - fgen_a),
        "dev_fuj": abs(fuj_o - fuj_a),
        "dev_coherence": abs(tr01 - coh_a),
        "dev_purity_qubit": abs(red["purity_qubit"] - pq_a),
        "dev_purity_oscillator": abs(red["purity_oscillator"] - posc_a),
    }
