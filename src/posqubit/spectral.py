"""Continuous-space two-particle dynamics in a spectral product basis.

Two particles confined in separate one-dimensional wells interact
through the regularized Coulomb kernel V = e2 / sqrt((x1-x2)^2 + d^2).
The state is expanded over the product of the single-well eigenbases,
|psi> = sum q_{n,m} |psi_n>|psi_m>, and closed by Galerkin projection:

    i hbar dq_{n,m}/dt = (E_n + E_m) q_{n,m} + sum_{s,e} W[(n,m),(s,e)] q_{s,e}

with W[(n,m),(s,e)] = <psi_n psi_m| V |psi_s psi_e> evaluated by
Simpson quadrature on the two wells' grids.  The grids share one uniform
spacing, so the kernel matrix V(x_g - x_h) is Toeplitz: it is applied to
the weighted basis products as an FFT convolution of 2N - 1 kernel
samples, never formed as an N x N mesh, and one matrix product finishes
the contraction.  The raw spectral coefficients g_{i,j} = <psi_i psi_j| V>
use the same convolution.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, GridTooCoarseError, QuadratureNotConvergedError
from .qcore import HBAR, propagate

HARMONIC = "harmonic"
BOX = "box"
NUMERIC = "numeric"


@dataclass
class ConfinementBasis:
    """Single-well eigenbasis sampled on a uniform grid."""

    kind: str
    grid: np.ndarray
    functions: np.ndarray  # (n_levels, n_grid), real
    energies: np.ndarray  # ascending

    @property
    def n_levels(self):
        return self.functions.shape[0]

    @property
    def dx(self):
        return float(self.grid[1] - self.grid[0])


@dataclass
class CoulombKernel:
    """Regularized interaction e2 / sqrt(dx^2 + d_reg^2)."""

    e2: float
    d_reg: float = 0.1

    def __post_init__(self):
        if self.d_reg <= 0:
            raise ValueError("d_reg must be positive (regularized kernel)")

    def __call__(self, separation):
        return self.e2 / np.sqrt(separation**2 + self.d_reg**2)


def _simpson_weights(n, dx):
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson weights need an odd point count >= 3")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * dx / 3.0


def _check_orthonormal(basis, tol=1e-8):
    w = _simpson_weights(basis.grid.size, basis.dx)
    gram = (basis.functions * w) @ basis.functions.T
    defect = np.max(np.abs(gram - np.eye(basis.n_levels)))
    if defect > tol:
        raise GridTooCoarseError(
            f"orthonormality defect {defect:.3e} exceeds {tol:.3e}; refine the grid"
        )
    return basis


def harmonic_basis(n_levels, omega=1.0, mass=1.0, center=0.0, half_width=None, n_grid=1601):
    """Analytic harmonic-oscillator eigenbasis; E_n = omega (n + 1/2)."""
    sigma = 1.0 / np.sqrt(mass * omega / HBAR)
    if half_width is None:
        half_width = sigma * (2.0 * np.sqrt(n_levels + 1.0) + 5.0)
    grid = np.linspace(center - half_width, center + half_width, n_grid)
    xi = (grid - center) / sigma
    funcs = np.zeros((n_levels, n_grid))
    # normalized Hermite functions by their three-term recurrence:
    # psi_{n+1} = sqrt(2/(n+1)) xi psi_n - sqrt(n/(n+1)) psi_{n-1}
    prev, cur = 0.0, np.exp(-0.5 * xi * xi) / np.sqrt(np.sqrt(np.pi) * sigma)
    for n in range(n_levels):
        funcs[n] = cur
        prev, cur = cur, np.sqrt(2.0 / (n + 1)) * xi * cur - np.sqrt(n / (n + 1)) * prev
    energies = omega * (np.arange(n_levels) + 0.5)
    return _check_orthonormal(
        ConfinementBasis(HARMONIC, grid, funcs, energies)
    )


def box_basis(n_levels, width=1.0, mass=1.0, center=0.0, n_grid=1601):
    """Infinite-well eigenbasis; E_n = (n+1)^2 pi^2 / (2 m width^2)."""
    grid = np.linspace(center - 0.5 * width, center + 0.5 * width, n_grid)
    local = grid - (center - 0.5 * width)
    ns = np.arange(1, n_levels + 1)
    funcs = np.sqrt(2.0 / width) * np.sin(
        np.pi * np.outer(ns, local) / width
    )
    energies = (ns * np.pi / width) ** 2 / (2.0 * mass)
    return _check_orthonormal(ConfinementBasis(BOX, grid, funcs, energies))


def numeric_basis(potential, n_levels, x_min, x_max, mass=1.0, n_grid=401):
    """Finite-difference eigenbasis of an arbitrary potential.

    ``potential`` is a callable or an array sampled on the grid.
    """
    grid = np.linspace(x_min, x_max, n_grid)
    dx = grid[1] - grid[0]
    v = potential(grid) if callable(potential) else np.asarray(potential, dtype=float)
    if v.shape != grid.shape:
        raise ValueError("potential table must match the grid")
    kinetic = (
        np.diag(np.full(n_grid, 1.0 / (mass * dx * dx)))
        + np.diag(np.full(n_grid - 1, -0.5 / (mass * dx * dx)), 1)
        + np.diag(np.full(n_grid - 1, -0.5 / (mass * dx * dx)), -1)
    )
    energies, vectors = np.linalg.eigh(kinetic + np.diag(v))
    funcs = vectors[:, :n_levels].T / np.sqrt(dx)
    # deterministic sign: largest-magnitude sample positive
    for k in range(n_levels):
        pivot = funcs[k, np.argmax(np.abs(funcs[k]))]
        if pivot < 0:
            funcs[k] = -funcs[k]
    return _check_orthonormal(
        ConfinementBasis(NUMERIC, grid, funcs, energies[:n_levels]), tol=1e-6
    )


def _fft_length(n):
    """Least 2^a 3^b 5^c >= n, a length the real FFT transforms quickly."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _kernel_contract(rows_a, grid_a, rows_b, grid_b, kernel, well_offset):
    """rows_a @ V @ rows_b.T for V[g, h] = kernel(grid_a[g] - grid_b[h] - well_offset).

    Both grids share one spacing, so V depends only on the lag g - h
    (Toeplitz) and is never formed: the kernel is sampled at the
    na + nb - 1 lags and the rows of ``rows_b`` are convolved with it by a
    real FFT of length >= na + nb - 1.  The circular wrap reaches only the
    first nb - 1 outputs, which are dropped.  Raises BasisMismatchError when
    the spacings differ by more than 1e-12 relative.
    """
    na, nb = grid_a.size, grid_b.size
    dx, dx_b = ((x[-1] - x[0]) / (x.size - 1) for x in (grid_a, grid_b))
    if abs(dx - dx_b) > 1e-12 * abs(dx):
        raise BasisMismatchError(
            f"grid spacings {dx:.17g} and {dx_b:.17g} differ; the Toeplitz kernel needs one spacing"
        )
    lags = (grid_a[0] - grid_b[0] - well_offset) + dx * np.arange(1 - nb, na)
    n_fft = _fft_length(na + nb - 1)
    spectrum = np.fft.rfft(rows_b, n_fft)
    spectrum *= np.fft.rfft(kernel(lags), n_fft)
    return rows_a @ np.fft.irfft(spectrum, n_fft)[:, nb - 1 : nb - 1 + na].T


def _gij_on_stride(basis_a, basis_b, kernel, well_offset, every):
    xa = basis_a.grid[::every]
    xb = basis_b.grid[::every]
    fa = basis_a.functions[:, ::every] * _simpson_weights(xa.size, xa[1] - xa[0])
    fb = basis_b.functions[:, ::every] * _simpson_weights(xb.size, xb[1] - xb[0])
    return _kernel_contract(fa, xa, fb, xb, kernel, well_offset)


def compute_gij(basis_a, basis_b, kernel, well_offset=0.0):
    """Spectral coefficients g_{i,j} = integral of V psi_i(x1) psi_j(x2).

    ``well_offset`` shifts the second well's coordinates by the center
    distance between the traps.  The quadrature is refinement-checked:
    the full grid must agree with its half-resolution subsampling to
    1e-6 relative.  The two grids must share one spacing (see
    ``interaction_matrix_elements``).
    """
    if (basis_a.grid.size - 1) % 2 or (basis_b.grid.size - 1) % 2:
        raise ValueError("grids must have odd point counts for Simpson refinement")
    fine = _gij_on_stride(basis_a, basis_b, kernel, well_offset, 1)
    coarse = _gij_on_stride(basis_a, basis_b, kernel, well_offset, 2)
    scale = max(np.max(np.abs(fine)), 1e-300)
    if np.max(np.abs(fine - coarse)) / scale > 1e-6:
        raise QuadratureNotConvergedError(
            "g quadrature changed by more than 1e-6 relative under refinement"
        )
    return fine


def _pair_products(basis):
    """Simpson-weighted products psi_n psi_s for n <= s, and the (n, s) -> row index."""
    n = basis.n_levels
    first, second = np.triu_indices(n)
    index = np.zeros((n, n), dtype=int)
    index[first, second] = index[second, first] = np.arange(first.size)
    weights = _simpson_weights(basis.grid.size, basis.dx)
    return basis.functions[first] * basis.functions[second] * weights, index


def interaction_matrix_elements(basis_a, basis_b, kernel, well_offset=0.0):
    """Galerkin coupling table W[(n,m),(s,e)] = <psi_n psi_m|V|psi_s psi_e>.

    Returned as a K x K matrix over the composite index n * Mb + m with
    K = (levels of A) x (levels of B); real symmetric for real bases.
    Only the unique Simpson-weighted pair products psi_n psi_s (n <= s)
    are convolved and contracted; the table is expanded by the n <-> s and
    m <-> e symmetries, so W is exactly symmetric.  Both grids must share
    one spacing (BasisMismatchError otherwise; sizes and origins may
    differ): no dense N x N path is kept for unequal spacings.
    """
    pa, index_a = _pair_products(basis_a)
    pb, index_b = _pair_products(basis_b)
    table = _kernel_contract(pa, basis_a.grid, pb, basis_b.grid, kernel, well_offset)
    k = basis_a.n_levels * basis_b.n_levels
    return table[index_a[:, None, :, None], index_b[None, :, None, :]].reshape(k, k)


def composite_hamiltonian(basis_a, basis_b, w):
    """diag(E_n + E_m) + W over the composite index; real float64 for a real W."""
    diag = (basis_a.energies[:, None] + basis_b.energies[None, :]).ravel()
    return np.diag(diag) + w


def evolve_modes(q0, basis_a, basis_b, w, t0, t):
    """Exact evolution of the coupled mode equations from ``q0`` at ``t0``.

    The composite Hamiltonian is constant, so it is diagonalized once and
    every sample is exact (``qcore.propagate``).  ``t`` is a scalar or a
    1-D array of sample times; the mode amplitudes have shape
    ``np.shape(t) + (levels_A, levels_B)``.
    """
    na, nb = basis_a.n_levels, basis_b.n_levels
    spans = np.asarray(t, dtype=float) - t0
    h = composite_hamiltonian(basis_a, basis_b, w)
    series = propagate(h, np.asarray(q0, dtype=complex).reshape(na * nb), spans)
    return series.reshape(spans.shape + (na, nb))


def mode_energy(q, basis_a, basis_b, w):
    """Expectation of the composite Hamiltonian in mode amplitudes q."""
    na, nb = basis_a.n_levels, basis_b.n_levels
    flat = np.asarray(q, dtype=complex).reshape(na * nb)
    h = composite_hamiltonian(basis_a, basis_b, w)
    return float(np.real(flat.conj() @ h @ flat))


def reconstruct_wavefunction(q, basis_a, basis_b):
    """Two-particle field psi(x1, x2) = sum q_{n,m} psi_n(x1) psi_m(x2)."""
    q = np.asarray(q, dtype=complex)
    return basis_a.functions.T @ q @ basis_b.functions


def entanglement_entropy(q):
    """Von Neumann entropy (natural log) of the Schmidt weights of q.

    ``q`` is one (na, nb) matrix, giving a float, or a stack (..., na, nb),
    giving an array of shape (...) from one batched SVD.  Weights at or
    below 1e-300 are left out of each matrix's sum.
    """
    sv = np.linalg.svd(np.asarray(q, dtype=complex), compute_uv=False)
    p = sv * sv
    kept = p > 1e-300
    p = np.where(kept, p, 0.0)
    # a zero matrix keeps no weight and has entropy 0
    p /= np.maximum(np.sum(p, axis=-1, keepdims=True), 1e-300)
    entropy = -np.sum(p * np.log(np.where(kept, p, 1.0)), axis=-1)
    return float(entropy) if entropy.ndim == 0 else entropy
