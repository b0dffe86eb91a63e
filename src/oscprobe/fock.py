"""Truncated number-basis oracle for the qubit-conditioned oscillator blocks.

Integrates the block master equations directly in a truncated Fock basis and
re-derives the coherence, the fidelities and the purities from the raw
density matrices, independently of the closed forms.

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
vec X -> vec X^T. With P = diag((-1)^n), P H- P = H+ and P a P = -a, so
X = P rho_11 P runs under G00, from the 00 generator L00 (the one complex
generator built), and rho_11(t) = P X(t) P. Y = rho_01 P evolves under G01,
G00 with its jumps 2 down a Y a^dag + 2 up a^dag Y a negated, which keeps
Y Hermitian; the scalar -i delta is left out of the integration: rho_01(t) is
Y(t) P exp(-i delta t). A thermal Y0 is Hermitian; any other runs as its
two Hermitian parts. A point's parts run as one real system under block_diag
of their generators (OperatorSet._band_generator reads it off L00's band rows
in one pass); a parity-even 11 start (every thermal one) is the 00 part: a
thermal point is one solve of [vec R00; vec R01]. A point integrates only the
entries |m - n| <= K of vec R, the coherence band its blocks populate (K from
_sized_band), under the band rows and columns of G, a set S maps to itself;
one guard refuses a block with more than LEAK_TOL relative weight on the top
level or more than LEAK_TOL of its largest entry on the band edge. The stage
sums are compiled loops, not threaded-BLAS products, so the integration runs
on one core and leaves no BLAS worker spinning between steps; neither do the
starts (`_displaced_thermal`) or the Uhlmann readout (`uhlmann_fidelity`). The
one solver is cached and not re-entrant. The basis never exceeds MAX_DIM levels.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import TruncationLeakError, ValidationError
from .fidelity import _curve_columns
from .phase_space import GaussianState, QubitInitState, SystemParams
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

    rhs_evals and rejected_steps count the work of the solve that produced
    it, if its evolve_block ran that solve (0 for a start or a memo read).
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


def _bounds(params: SystemParams) -> tuple:
    """The bounding Gaussians' occupations, 0 and max(mbar, nbar), and the
    drift bound 2g/sqrt(1 + kappa^2) as _displaced_thermal's real alpha."""
    kappa = params.kappa
    return ((0.0, max(params.mbar, params.nbar)),
            math.sqrt(2.0) * abs(params.g) / math.sqrt(1.0 + kappa * kappa))


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
    occs, alpha = _bounds(params)
    return max(_sized_dim(occ, alpha) for occ in occs)


def _sized_band(params: SystemParams, dim: int) -> int:
    """Band half-width K of a point at dim: the coherence orders |m - n| <= K kept.

    A displaced thermal state's entries fall off with |m - n| (Cahill &
    Glauber 1969). default_dim's bounding Gaussians, displaced by twice the
    drift bound (the 00-11 center separation, which also bounds the 01
    block), are built at dim; K is one more than the largest |m - n| at which
    either has an entry >= SIZING_TOL of its largest, at most dim - 1.
    """
    occs, alpha = _bounds(params)
    widest = 0
    for occ in occs:
        rho = _displaced_thermal(dim, occ, 2.0 * alpha)  # every entry >= 0
        m, n = np.nonzero(rho >= SIZING_TOL * rho.max())
        widest = max(widest, int(np.max(np.abs(m - n))))
    return min(widest + 1, dim - 1)


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


@dataclass(frozen=True)
class OperatorSet:
    """The generators of one point at dim, read off L00, built as seven diagonals
    with no Kronecker product, and acting on the band |m - n| <= band of vec R
    (band dim - 1: every entry), and its solve memo."""

    dim: int
    params: SystemParams
    band: int
    # (t, generator key, packed start bytes) -> end state, None while queued
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    @functools.cached_property
    def _index(self) -> np.ndarray:
        """The band's positions in vec R, in order."""
        level = np.arange(self.dim)
        return np.flatnonzero(abs(level[:, None] - level) <= self.band)

    def _check_leak(self, entries: np.ndarray, stage: str) -> None:
        """Refuse more than LEAK_TOL relative weight on the top level, then more than
        LEAK_TOL of the largest entry on |m - n| >= band; the full band has no edge."""
        w = float(_tail_weights(entries)[-1])
        if w > LEAK_TOL:
            raise TruncationLeakError(
                f"top-level weight {w:.3g} > {LEAK_TOL:g} in {stage} at dim "
                f"{self.dim}", suggested_dim=2 * self.dim, weight=w)
        level, mag = np.arange(self.dim), np.abs(entries)
        edge = mag[abs(level[:, None] - level) >= self.band]
        w = float(edge.max() / max(mag.max(), 1e-300))
        if w > LEAK_TOL and self.band < self.dim - 1:
            raise TruncationLeakError(
                f"band-edge weight {w:.3g} > {LEAK_TOL:g} in {stage} at band "
                f"{self.band}, dim {self.dim}", suggested_dim=self.dim, weight=w,
                suggested_band=min(max(2 * self.band, 1), self.dim - 1))

    def liouvillian(self) -> sp.csr_matrix:
        """L00, the 00 block's full dim^2 x dim^2 complex generator, as seven diagonals.

        -i [H+, rho] + down (2 a rho a^dag - {a^dag a, rho}) + up (2 a^dag rho a -
        {a a^dag, rho}): coef[m, n] of each (dm, dn) at (vec (m, n), vec (m + dm,
        n + dn)), the offset dm dim + dn; coef is 0 where (m + dm, n + dn) leaves
        the basis, so no entry wraps around.
        """
        import scipy.sparse as sp
        dim, level = self.dim, np.arange(self.dim, dtype=float)
        lower, upper = np.sqrt(level), np.sqrt(np.append(level[1:], 0.0))
        kappa, nbar = self.params.kappa, self.params.nbar
        down, up = kappa * (1.0 + nbar), kappa * nbar
        anti = down * lower ** 2 + up * upper ** 2  # down a^dag a + up a a^dag
        c = -1j * self.params.g / math.sqrt(2.0)  # -i g times x = (a + a^dag)/sqrt(2)
        # -1.0 * c, not -c: a complex product, whose real parts stay +0.0
        terms = {(0, 0): -1j * (level[:, None] - level) - anti[:, None] - anti,
                 (1, 0): c * upper[:, None], (-1, 0): c * lower[:, None],
                 (0, 1): -1.0 * c * upper, (0, -1): -1.0 * c * lower,
                 (1, 1): 2.0 * down * np.outer(upper, upper),
                 (-1, -1): 2.0 * up * np.outer(lower, lower)}
        offsets = [dm * dim + dn for dm, dn in terms]
        flat = [np.broadcast_to(coef, (dim, dim)).ravel() for coef in terms.values()]
        liou = sp.diags([f[max(-k, 0):f.size - max(k, 0)] for f, k in zip(flat, offsets)],
                        offsets, format="csr")
        liou.eliminate_zeros()
        return liou

    def _band_generator(self, keys) -> sp.csr_matrix:
        """block_diag of the real generators keys ("00": G00, "01": G01) on the band,
        read in one pass off L00's band rows and columns: an entry's real part
        goes to its column, its imaginary part to the transposed one (G = Re L
        + (Im L) S; S maps the band to itself); a 01 part negates the jumps
        (m +- 1, n +- 1), the vec offsets +-(dim + 1). Zero sums are dropped."""
        import scipy.sparse as sp
        dim, index, n = self.dim, self._index, self._index.size
        rows = self.liouvillian()[index][:, index]
        row = np.repeat(np.arange(n), np.diff(rows.indptr))
        flip = np.where(abs(index[rows.indices] - index[row]) == dim + 1, -1.0, 1.0)
        transpose = np.searchsorted(index, index % dim * dim + index // dim)
        # in each row, every entry's real part and then its imaginary part
        cols = np.stack([rows.indices, transpose[rows.indices]], axis=1).ravel()
        vals = [np.stack([rows.data.real * (flip if key == "01" else 1.0),
                          rows.data.imag], axis=1).ravel() for key in keys]
        shift, size = n * np.arange(len(keys))[:, None], len(keys) * n
        indptr = np.append(0, np.cumsum(np.tile(2 * np.diff(rows.indptr), len(keys))))
        gen = sp.csr_matrix((np.ravel(vals), (cols + shift).ravel(), indptr),
                            shape=(size, size))
        gen.sum_duplicates()  # sorts each row's columns and adds a column's two terms
        gen.eliminate_zeros()
        return gen

    def _solve(self, parts, t: float, run: bool = True) -> tuple[list, int, int]:
        """Queue (generator key, packed start) parts for t; if run, their end states.

        The memo keeps the latest t, and parts of equal bytes are one. Every part
        queued and not yet solved runs in one real system under block_diag of
        their generators: the call that runs it reports its work, others 0."""
        memo = self._memo
        if any(key[0] != t for key in memo):
            memo.clear()
        keys = [(t, name, v0.tobytes()) for name, v0 in parts]
        memo.update({key: memo.get(key) for key in keys})
        pending = [key for key, y in memo.items() if y is None]
        if not (run and pending):
            return [memo[key] for key in keys], 0, 0
        gen = self._band_generator([key[1] for key in pending])
        sol = solve_ivp(gen, np.concatenate([np.frombuffer(key[2]) for key in pending]), t)
        memo.update(zip(pending, np.split(sol.y, len(pending))))
        return [memo[key] for key in keys], sol.nfev, sol.rejected_steps


def build_operators(dim: int, params: SystemParams,
                    band: int | None = None) -> OperatorSet:
    """The operator set of params at dim >= 2 on the band |m - n| <= band, by
    default the full band dim - 1."""
    if dim < 2 or not (band is None or 0 <= band < dim):
        raise ValidationError("dim must be >= 2 and band in [0, dim - 1]")
    return OperatorSet(dim, params, dim - 1 if band is None else band)


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


def _unpack_hermitian(v: np.ndarray, dim: int, index=slice(None)) -> np.ndarray:
    """The exactly Hermitian (R + R^T)/2 + i (R - R^T)/2 from vec R at index
    (0 elsewhere)."""
    r = np.zeros(dim * dim)
    r[index] = v
    r = r.reshape(dim, dim)
    return 0.5 * (r + r.T) + 0.5j * (r - r.T)


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
    try:
        with warnings.catch_warnings():
            # a failure is raised below, not reported as a warning
            warnings.simplefilter("ignore", UserWarning)
            y = solver.integrate(t)
        status, integrator = int(solver.get_return_code()), solver._integrator
        result = Integration(y, int(integrator.iwork[16]), int(integrator.iwork[19]))
    finally:
        # the cached solver keeps no generator, and no dim^2 work arrays, alive
        solver.set_f_params().set_initial_value(np.zeros(1), 0.0)
    if status <= 0:
        message = integrator.messages.get(status, f"unexpected return code {status}")
        raise ValidationError(f"integration failed (return code {status}): {message}")
    return result


def _packed_parts(init: BlockDensityMatrix, index=slice(None)) -> tuple:
    """(left, right, weights, parts): X = left * rho * right is rho_00, P rho_11 P
    or Y = rho_01 P, the sum of weight * part over the (generator key, packed
    part) parts: X under "00", or Y's nonzero Hermitian parts under "01",
    each packed at the band positions index."""
    parity = (-1.0) ** np.arange(init.dim)
    left = parity[:, None] if init.block == "11" else 1.0
    right = 1.0 if init.block == "00" else parity
    x0 = left * init.entries * right
    if init.block in _HERMITIAN_BLOCKS:
        parts = [(1.0, "00", x0)]
    else:
        # Y0 = A + iB with A, B Hermitian; a thermal start has B = 0
        parts = [(1.0, "01", 0.5 * (x0 + x0.conj().T)),
                 (1j, "01", -0.5j * (x0 - x0.conj().T))]
    kept = [(w, (key, _pack_hermitian(part)[index])) for w, key, part in parts
            if part.any()]
    return left, right, [w for w, _ in kept], [part for _, part in kept]


def evolve_block(init: BlockDensityMatrix, ops: OperatorSet,
                 t: float) -> BlockDensityMatrix:
    """Propagate one block to time t >= 0 under ops, built at init.dim.

    Integrates the dim^2 reals of each of _packed_parts(init) under ops' 00
    or 01 real generator, as the module docstring says. ops._solve runs all
    parts queued on ops at t and not yet solved as one stacked solve, and
    reads those it solved before, so a parity-even 11 start after its 00
    start integrates nothing. The result carries the RHS evaluations and
    rejected steps of the solve if this call ran it, else 0. Raises
    ValidationError when a 00 or 11 start is not Hermitian to HERMITIAN_TOL,
    and TruncationLeakError (ops._check_leak) when the initial or the evolved
    matrix leaks past the top level or the band edge.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValidationError("t must be finite and >= 0")
    dim = init.dim
    if ops.dim != dim:
        raise ValidationError(f"ops dim {ops.dim} != initial matrix dim {dim}")
    if init.block in _HERMITIAN_BLOCKS:
        _check_hermitian(init.entries, init.block)
    ops._check_leak(init.entries, "initial state")
    if t == 0.0:
        return BlockDensityMatrix(dim, init.entries.copy(), init.block)
    left, right, weights, parts = _packed_parts(init, ops._index)
    ends, nfev, rejected = ops._solve(parts, t)
    out = sum((w * _unpack_hermitian(y, dim, ops._index)
               for w, y in zip(weights, ends)), np.zeros((dim, dim), dtype=complex))
    out = left * out * right
    if init.block == "01":
        out *= np.exp(-1j * ops.params.delta * t)
    ops._check_leak(out, f"evolved {init.block} block")
    return BlockDensityMatrix(dim, out, init.block, nfev, rejected)


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

    The reduced oscillator state is rho_osc = a00 rho_00 + a11 rho_11.
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
    twice, and never past MAX_DIM) whenever the level test trips. Integrates
    the band of _sized_band, doubled at the same dim (up to the full band,
    also at a fixed dim) whenever the band test trips. Returns the blocks
    under "00", "11" and "01", the dim and band that held under "dim" and
    "band", every dim and band attempted, in order, under "dims_tried" and
    "bands_tried", and the weight that rejected each attempt but the last
    under "leak_weights".
    """
    dim = config.dim if config.dim is not None else default_dim(params)
    band = _sized_band(params, dim)
    dims_tried, bands_tried, leak_weights = [], [], []
    while True:
        dims_tried.append(dim)
        bands_tried.append(band)
        try:
            ops = build_operators(dim, params, band)
            start = displaced_thermal_block(dim, params.mbar, 0.0, 0.0)
            starts = [BlockDensityMatrix(dim, start.entries, b) for b in _BLOCKS]
            # queued, so the first evolve_block solves all three blocks at once
            ops._solve([p for s in starts for p in _packed_parts(s, ops._index)[3]],
                       t, run=False)
            out = {start.block: evolve_block(start, ops, t) for start in starts}
            return {**out, "dim": dim, "band": band, "dims_tried": dims_tried,
                    "bands_tried": bands_tried, "leak_weights": leak_weights}
        except TruncationLeakError as err:
            if err.suggested_band is not None:
                band = err.suggested_band
            elif (config.dim is not None or len(set(dims_tried)) == 3
                  or 2 * dim > MAX_DIM):
                raise
            else:
                dim *= 2
                band = max(band, _sized_band(params, dim))
            leak_weights.append(err.weight)


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

    Besides the dev_* deviations, reports the dim and band used, every dim
    and band tried (dims_tried, bands_tried, one entry per attempt), the
    number of level- and band-guard retries (leak_retries), the weight behind
    each retry (leak_weights, one per dims_tried[:-1]), and the RHS
    evaluations and rejected steps of the point's one stacked solve, whose
    generator is twice the band's entry count square (rhs_evals,
    rejected_steps; 0 at t = 0).
    """
    blocks = evolve_thermal_blocks(params, config, t)
    init = GaussianState.thermal(params.mbar)
    tr01 = blocks["01"].trace
    oracle = {"fgen": abs(tr01) ** 2,
              "fuj": uhlmann_fidelity(blocks["00"], blocks["11"]),
              **reduced_quantities(blocks, qubit)}
    return {
        "t": t,
        "dim": blocks["dim"],
        "band": blocks["band"],
        "dims_tried": blocks["dims_tried"],
        "bands_tried": blocks["bands_tried"],
        "leak_retries": len(blocks["dims_tried"]) - 1,
        "leak_weights": blocks["leak_weights"],
        "rhs_evals": sum(blocks[b].rhs_evals for b in _BLOCKS),
        "rejected_steps": sum(blocks[b].rejected_steps for b in _BLOCKS),
        **{f"dev_{key}": abs(oracle[key] - value) for key, value
           in _curve_columns(t, params, init, qubit).items()},
        "dev_coherence": abs(tr01 - coherence_trace(t, params, init)),
    }
