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
samples, never formed as an N x N mesh.  The kernel is transformed once,
the products are convolved in fixed blocks of rows, so only one block's
transforms are held at a time, and one matrix product finishes the
contraction.  The raw spectral coefficients g_{i,j} = <psi_i psi_j| V>
use the same convolution.  When both wells share one basis of parity
(-1)^n, each product has a definite parity, so W is contracted in
frequency space instead: one forward FFT per even/odd pair of products,
three real matrix products and no inverse FFT.  Exchanging the wells
and reflecting both coordinates then commutes with H, and
``evolve_modes`` diagonalizes H as its two exchange-parity blocks.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, GridTooCoarseError, QuadratureNotConvergedError
from .qcore import HBAR, propagate, propagate_eigen, require_hermitian

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
    # the tridiagonal finite-difference H, written into one n_grid x n_grid array
    h = np.zeros((n_grid, n_grid))
    np.fill_diagonal(h, 1.0 / (mass * dx * dx) + v)
    np.fill_diagonal(h[1:], -0.5 / (mass * dx * dx))
    np.fill_diagonal(h[:, 1:], -0.5 / (mass * dx * dx))
    energies, vectors = np.linalg.eigh(h)
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


_CONTRACT_ROWS = 8  # buffer rows transformed at once: about 0.9 MiB of FFT buffers at n_grid 2401


def _kernel_contract(rows_a, grid_a, rows_b, grid_b, kernel, well_offset):
    """rows_a @ V @ rows_b.T for V[g, h] = kernel(grid_a[g] - grid_b[h] - well_offset).

    Both grids share one spacing, so V depends only on the lag g - h
    (Toeplitz) and is never formed: the kernel is sampled at the
    na + nb - 1 lags and transformed once by a real FFT of length
    >= na + nb - 1.  The rows of ``rows_b`` are copied
    ``_CONTRACT_ROWS`` at a time into one zero-padded buffer, reused for
    every block, and convolved with it into one (rows, na) array, so the
    transforms held at once do not grow with the row count; the circular
    wrap reaches only the first nb - 1 outputs, which are dropped.  One
    matrix product finishes the contraction: BLAS may sum a small product
    in another order (OpenBLAS's small-matrix kernel), so contracting block
    by block would make the last bits depend on the block size.  Raises
    BasisMismatchError when the spacings differ by more than 1e-12
    relative.
    """
    na, nb = grid_a.size, grid_b.size
    dx, dx_b = ((x[-1] - x[0]) / (x.size - 1) for x in (grid_a, grid_b))
    if abs(dx - dx_b) > 1e-12 * abs(dx):
        raise BasisMismatchError(
            f"grid spacings {dx:.17g} and {dx_b:.17g} differ; the Toeplitz kernel needs one spacing"
        )
    lags = (grid_a[0] - grid_b[0] - well_offset) + dx * np.arange(1 - nb, na)
    n_fft = _fft_length(na + nb - 1)
    kernel_spectrum = np.fft.rfft(kernel(lags), n_fft)
    convolved = np.empty((rows_b.shape[0], na))
    padded = np.zeros((min(_CONTRACT_ROWS, rows_b.shape[0]), n_fft))
    for lo in range(0, rows_b.shape[0], _CONTRACT_ROWS):
        block = rows_b[lo : lo + _CONTRACT_ROWS]
        padded[: len(block), :nb] = block
        spectrum = np.fft.rfft(padded[: len(block)])
        spectrum *= kernel_spectrum
        convolved[lo : lo + len(block)] = np.fft.irfft(spectrum, n_fft)[:, nb - 1 : nb - 1 + na]
    return rows_a @ convolved.T


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


def _pair_index(n):
    """Pairs (first, second) with first <= second, and the (n, s) -> pair row table."""
    first, second = np.triu_indices(n)
    index = np.zeros((n, n), dtype=int)
    index[first, second] = index[second, first] = np.arange(first.size)
    return first, second, index


def _pair_products(basis):
    """Simpson-weighted products psi_n psi_s for n <= s, and the (n, s) -> row index."""
    first, second, index = _pair_index(basis.n_levels)
    products = basis.functions[first]
    products *= basis.functions[second]
    products *= _simpson_weights(basis.grid.size, basis.dx)
    return products, index


# relative defect up to which W takes parity-split spectra (basis parity) and
# evolve_modes diagonalizes the exchange-parity blocks (max |XHX - H| / max |H|)
EXCHANGE_TOL = 1e-12


def _has_parity(functions):
    """Whether every function n is (-1)^n-symmetric about the middle sample to EXCHANGE_TOL."""
    signs = (-1.0) ** np.arange(functions.shape[0])
    defect = np.abs(functions[:, ::-1] - signs[:, None] * functions).max()
    return bool(defect <= EXCHANGE_TOL * np.abs(functions).max())


def _parity_contract(basis, kernel, well_offset):
    """The pair-product table of ``_kernel_contract`` for one basis of parity
    (-1)^n, from parity-split spectra, and the (n, s) -> row index.

    A product psi_n psi_s has parity (-1)^(n+s).  Placed with the middle
    sample at index 0 of a zero-padded buffer of length n_fft >= 2N - 1,
    an even row transforms to a real spectrum and an odd row to an
    imaginary one, so each buffer row holds one even and one odd product
    (built ``_CONTRACT_ROWS`` rows at a time) and one real FFT gives both.
    With the kernel's lags placed circularly (lag l at l mod n_fft) and
    transformed to K, the contraction is a sum over the half spectrum with
    weights 1/n_fft at DC and Nyquist and 2/n_fft elsewhere: the even-even
    and odd-odd blocks take Re K, the even-odd block -Im K, and the
    odd-even block is its negative transpose.  No inverse FFT is taken.
    """
    size, mid = basis.grid.size, basis.grid.size // 2
    first, second, index = _pair_index(basis.n_levels)
    odd = (first + second) % 2 == 1
    even_rows, odd_rows = np.flatnonzero(~odd), np.flatnonzero(odd)  # never fewer even than odd
    dx = (basis.grid[-1] - basis.grid[0]) / (size - 1)
    n_fft = _fft_length(2 * size - 1)
    placed = np.zeros(n_fft)
    placed[:size] = kernel(dx * np.arange(size) - well_offset)
    placed[n_fft - size + 1 :] = kernel(dx * np.arange(1 - size, 0) - well_offset)
    weights = np.full(n_fft // 2 + 1, 2.0 / n_fft)
    weights[0] = 1.0 / n_fft
    if n_fft % 2 == 0:
        weights[-1] = 1.0 / n_fft
    kernel_spectrum = np.fft.rfft(placed) * weights
    simpson = _simpson_weights(size, basis.dx)
    even_spectra = np.empty((even_rows.size, weights.size))
    odd_spectra = np.empty((odd_rows.size, weights.size))
    padded = np.zeros((min(_CONTRACT_ROWS, even_rows.size), n_fft))
    for lo in range(0, even_rows.size, _CONTRACT_ROWS):
        rows_e, rows_o = even_rows[lo : lo + _CONTRACT_ROWS], odd_rows[lo : lo + _CONTRACT_ROWS]
        products = basis.functions[first[rows_e]] * basis.functions[second[rows_e]] * simpson
        products[: rows_o.size] += basis.functions[first[rows_o]] * basis.functions[second[rows_o]] * simpson
        block = padded[: rows_e.size]
        block[:, : size - mid] = products[:, mid:]
        block[:, n_fft - mid :] = products[:, :mid]
        spectrum = np.fft.rfft(block)
        even_spectra[lo : lo + rows_e.size] = spectrum.real
        odd_spectra[lo : lo + rows_o.size] = spectrum.imag[: rows_o.size]
    table = np.empty((first.size, first.size))
    weighted = even_spectra * kernel_spectrum.real  # one weighted copy, reused by the three products
    table[np.ix_(even_rows, even_rows)] = weighted @ even_spectra.T
    mixed = np.multiply(even_spectra, kernel_spectrum.imag, out=weighted) @ odd_spectra.T
    table[np.ix_(even_rows, odd_rows)] = -mixed
    table[np.ix_(odd_rows, even_rows)] = mixed.T
    weighted = np.multiply(odd_spectra, kernel_spectrum.real, out=weighted[: odd_rows.size])
    table[np.ix_(odd_rows, odd_rows)] = weighted @ odd_spectra.T
    return table, index


def interaction_matrix_elements(basis_a, basis_b, kernel, well_offset=0.0):
    """Galerkin coupling table W[(n,m),(s,e)] = <psi_n psi_m|V|psi_s psi_e>.

    Returned as a K x K matrix over the composite index n * Mb + m with
    K = (levels of A) x (levels of B); real symmetric for real bases.
    Only the unique Simpson-weighted pair products psi_n psi_s (n <= s)
    are contracted, and the table is expanded by the n <-> s and m <-> e
    symmetries, so W is exactly symmetric.  When ``basis_b`` is
    ``basis_a`` and its functions have parity (-1)^n about the middle
    sample to ``EXCHANGE_TOL`` relative, the table comes from
    parity-split spectra (``_parity_contract``): one forward FFT per
    even/odd pair of products and no inverse FFT.  Otherwise the products
    are convolved in blocks of rows and contracted (``_kernel_contract``),
    built once when ``basis_b`` is ``basis_a``.  Both grids must share one
    spacing (BasisMismatchError otherwise; sizes and origins may differ):
    no dense N x N path is kept for unequal spacings.
    """
    if basis_b is basis_a and _has_parity(basis_a.functions):
        table, index_a = _parity_contract(basis_a, kernel, well_offset)
        index_b = index_a
    else:
        pa, index_a = _pair_products(basis_a)
        pb, index_b = (pa, index_a) if basis_b is basis_a else _pair_products(basis_b)
        table = _kernel_contract(pa, basis_a.grid, pb, basis_b.grid, kernel, well_offset)
    k = basis_a.n_levels * basis_b.n_levels
    return table[index_a[:, None, :, None], index_b[None, :, None, :]].reshape(k, k)


def composite_hamiltonian(basis_a, basis_b, w):
    """diag(E_n + E_m) + W over the composite index; real float64 for a real W."""
    diag = (basis_a.energies[:, None] + basis_b.energies[None, :]).ravel()
    return np.diag(diag) + w


def _exchange_eigen(h, n):
    """Eigendecomposition of h over n x n modes from its exchange-parity blocks, or None.

    X|n,m> = (-1)^(n+m) |m,n> exchanges the wells and reflects both
    coordinates.  When max |XHX - H| <= EXCHANGE_TOL max |H|, h is
    diagonalized as two blocks built by gathers on h: the +1 block over
    v = w (|n,m> + (-1)^(n+m) |m,n>) for n <= m, with w = 1/sqrt(2) for
    n < m and 1/2 for n = m, and the -1 block over the n < m differences.
    With XHX = H, <v_i|H|v_j> = 2 w_i w_j (H[r_i, r_j] + s_j H[r_i, r'_j]).
    Returns the two blocks' energies, +1 block first, and their
    eigenvectors mapped back into one dense matrix over the composite index.
    """
    levels = np.arange(n)
    parity = (-1.0) ** np.add.outer(levels, levels)
    h4 = h.reshape(n, n, n, n)  # XHX[(n,m),(s,e)] = (-1)^(n+m+s+e) H[(m,n),(e,s)]
    defect = np.abs(np.multiply.outer(parity, parity) * h4.transpose(1, 0, 3, 2) - h4).max()
    if not defect <= EXCHANGE_TOL * np.abs(h).max():
        return None
    first, second = np.triu_indices(n)
    r, r_swap = first * n + second, second * n + first
    s, pair = parity[first, second], first < second
    w = np.where(pair, np.sqrt(0.5), 0.5)
    direct, cross = h[np.ix_(r, r)], h[np.ix_(r, r_swap)] * s
    e_plus, u_plus = np.linalg.eigh(2.0 * np.outer(w, w) * (direct + cross))
    e_minus, u_minus = np.linalg.eigh((direct - cross)[np.ix_(pair, pair)])
    vectors = np.zeros((n * n, n * n), dtype=np.result_type(u_plus, u_minus))
    vectors[r, : r.size] = w[:, None] * u_plus
    vectors[r_swap, : r.size] += (s * w)[:, None] * u_plus
    vectors[r[pair], r.size :] = np.sqrt(0.5) * u_minus
    vectors[r_swap[pair], r.size :] = (-np.sqrt(0.5) * s[pair])[:, None] * u_minus
    return np.concatenate([e_plus, e_minus]), vectors


def evolve_modes(q0, basis_a, basis_b, w, dt, steps):
    """Exact evolution of the coupled mode equations from ``q0`` at the
    times ``dt * steps``, counted from the moment ``q0`` holds.

    The composite Hamiltonian is constant, so it is diagonalized once and
    every sample is exact (``qcore.propagate_eigen``, whose phase tables
    integer ``steps`` take).  When both wells share one basis object and H
    keeps the well-exchange symmetry, H is diagonalized as its two
    exchange-parity blocks (``_exchange_eigen``); otherwise as one matrix
    (``qcore.propagate``).  ``steps`` is a scalar or a 1-D array; the mode
    amplitudes have shape ``np.shape(steps) + (levels_A, levels_B)``.
    """
    na, nb = basis_a.n_levels, basis_b.n_levels
    h = composite_hamiltonian(basis_a, basis_b, w)
    y0 = np.asarray(q0, dtype=complex).reshape(na * nb)
    eigen = _exchange_eigen(require_hermitian(h), na) if basis_b is basis_a else None
    series = propagate(h, y0, dt, steps) if eigen is None else propagate_eigen(*eigen, y0, dt, steps)
    return series.reshape(np.shape(steps) + (na, nb))


def mode_energy(q, basis_a, basis_b, w):
    """Expectation of the composite Hamiltonian in mode amplitudes q.

    ``q`` is one (na, nb) matrix, giving a float, or a stack (..., na, nb),
    giving an array of shape (...); H is built once for the whole stack.
    """
    na, nb = basis_a.n_levels, basis_b.n_levels
    q = np.asarray(q, dtype=complex)
    h = composite_hamiltonian(basis_a, basis_b, w)
    energies = [float(np.real(flat.conj() @ h @ flat)) for flat in q.reshape(-1, na * nb)]
    return np.array(energies).reshape(q.shape[:-2]) if q.ndim > 2 else energies[0]


def entanglement_entropy(q):
    """Von Neumann entropy (natural log) of the Schmidt weights of q.

    ``q`` is one (na, nb) matrix, giving a float, or a stack (..., na, nb),
    giving an array of shape (...).  The weights are the eigenvalues of
    the smaller Gram matrix, q q^dag or q^dag q, from one batched
    ``eigvalsh``, clipped at 0; weights at or below 1e-300 are left out of
    each matrix's sum.
    """
    q = np.asarray(q, dtype=complex)
    qh = np.conj(np.swapaxes(q, -1, -2))
    p = np.clip(np.linalg.eigvalsh(q @ qh if q.shape[-2] <= q.shape[-1] else qh @ q), 0.0, None)
    kept = p > 1e-300
    p = np.where(kept, p, 0.0)
    # a zero matrix keeps no weight and has entropy 0
    p /= np.maximum(np.sum(p, axis=-1, keepdims=True), 1e-300)
    entropy = -np.sum(p * np.log(np.where(kept, p, 1.0)), axis=-1)
    return float(entropy) if entropy.ndim == 0 else entropy
