"""Continuous-space two-particle dynamics in a spectral product basis.

Two particles confined in separate one-dimensional wells interact
through the regularized Coulomb kernel V = e2 / sqrt((x1-x2)^2 + d^2).
The state is expanded over the product of the single-well eigenbases,
|psi> = sum q_{n,m} |psi_n>|psi_m>, and closed by Galerkin projection:

    i hbar dq_{n,m}/dt = (E_n + E_m) q_{n,m} + sum_{s,e} W[(n,m),(s,e)] q_{s,e}

with W[(n,m),(s,e)] = <psi_n psi_m| V |psi_s psi_e> evaluated by
tensorized Simpson quadrature.  The raw spectral coefficients
g_{i,j} = <psi_i psi_j| V> are provided separately.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import eval_hermite, gammaln

from .errors import GridTooCoarseError, QuadratureNotConvergedError
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
    for n in range(n_levels):
        lognorm = -0.5 * (n * np.log(2.0) + gammaln(n + 1.0)) - 0.25 * np.log(
            np.pi * sigma * sigma
        )
        funcs[n] = np.exp(lognorm - 0.5 * xi * xi) * eval_hermite(n, xi)
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


def _kernel_mesh(basis_a, basis_b, kernel, well_offset, stride=1):
    xa = basis_a.grid[::stride]
    xb = basis_b.grid[::stride] + well_offset
    return kernel(xa[:, None] - xb[None, :])


def _gij_on_stride(basis_a, basis_b, kernel, well_offset, stride):
    xa = basis_a.grid[::stride]
    xb = basis_b.grid[::stride]
    wa = _simpson_weights(xa.size, xa[1] - xa[0])
    wb = _simpson_weights(xb.size, xb[1] - xb[0])
    v = _kernel_mesh(basis_a, basis_b, kernel, well_offset, stride)
    fa = basis_a.functions[:, ::stride] * wa
    fb = basis_b.functions[:, ::stride] * wb
    return fa @ v @ fb.T


def compute_gij(basis_a, basis_b, kernel, well_offset=0.0):
    """Spectral coefficients g_{i,j} = integral of V psi_i(x1) psi_j(x2).

    ``well_offset`` shifts the second well's coordinates by the center
    distance between the traps.  The quadrature is refinement-checked:
    the full grid must agree with its half-resolution subsampling to
    1e-6 relative.
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


def interaction_matrix_elements(basis_a, basis_b, kernel, well_offset=0.0):
    """Galerkin coupling table W[(n,m),(s,e)] = <psi_n psi_m|V|psi_s psi_e>.

    Returned as a K x K matrix over the composite index n * Mb + m with
    K = (levels of A) x (levels of B); real symmetric for real bases.
    """
    na, nb = basis_a.n_levels, basis_b.n_levels
    wa = _simpson_weights(basis_a.grid.size, basis_a.dx)
    wb = _simpson_weights(basis_b.grid.size, basis_b.dx)
    v = _kernel_mesh(basis_a, basis_b, kernel, well_offset)
    # pair products psi_n psi_s on each axis, weighted once
    pa = np.einsum("ng,sg,g->nsg", basis_a.functions, basis_a.functions, wa)
    pb = np.einsum("mh,eh,h->meh", basis_b.functions, basis_b.functions, wb)
    w = np.einsum("nsg,gh,meh->nmse", pa, v, pb, optimize=True)
    return w.reshape(na * nb, na * nb)


def composite_hamiltonian(basis_a, basis_b, w):
    """diag(E_n + E_m) + W over the composite index."""
    diag = (basis_a.energies[:, None] + basis_b.energies[None, :]).ravel()
    return np.diag(diag.astype(complex)) + w


def evolve_modes(q0, basis_a, basis_b, w, t0, t, dt, sample_stride=1):
    """Exact evolution of the coupled mode equations.

    The composite Hamiltonian is constant, so it is diagonalized once and
    every sample is exact (``qcore.propagate``).  ``dt`` only sets the
    sample grid: samples are taken at t0 + i dt for the steps
    i = 0..round((t - t0) / dt) that are multiples of ``sample_stride``,
    and at the last step.  Returns (times, q_series) with q_series of
    shape (n_samples, levels_A, levels_B).
    """
    na, nb = basis_a.n_levels, basis_b.n_levels
    n_steps = max(int(round((t - t0) / dt)), 0)
    spans = np.union1d(np.arange(0, n_steps + 1, sample_stride), n_steps) * dt
    h = composite_hamiltonian(basis_a, basis_b, w)
    series = propagate(h, np.asarray(q0, dtype=complex).reshape(na * nb), spans)
    return t0 + spans, series.reshape(-1, na, nb)


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
    """Von Neumann entropy (natural log) of the Schmidt weights of q."""
    sv = np.linalg.svd(np.asarray(q, dtype=complex), compute_uv=False)
    p = sv * sv
    p = p[p > 1e-300]
    p = p / np.sum(p)
    return float(-np.sum(p * np.log(p)))
