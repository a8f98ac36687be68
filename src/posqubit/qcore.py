"""Core linear-algebra kernels for small quantum systems.

Dense complex matrices of fixed small dimension (2x2, 4x4, ...) with a
deterministic eigenvector phase convention, unitary propagation through
exact exponentiation, and exact sampled propagation under a constant
Hamiltonian.  ``build_hn`` assembles the Hamiltonian of N electrostatically
coupled two-level bodies, one bit of the composite index per body.  For
time-dependent 2x2 and other small generators, whole grids of step
operators (RK4 step matrices, closed-form SU(2) exponentials) are built in
one broadcast and chained by ``evolve_steps`` with a pairwise prefix, in
work linear in the number of steps.  Stacks of small matrices are
multiplied as their d*d contiguous entry arrays.
The fixed-step RK4 loop ``evolve_rk4`` is left for generators given only
as bare callables.
Energies are expressed in a user-chosen unit and hbar = 1 internally, so
times carry the inverse of that unit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, NonHermitianError

HBAR = 1.0

HERMITICITY_TOL = 1e-12

POSITION = "position"
ENERGY = "energy"


def require_hermitian(h, tol=HERMITICITY_TOL):
    """Return ``h`` as an array, raising if it is not Hermitian.

    Real floating input stays real (float64), so a real symmetric matrix is
    diagonalized in real arithmetic; every other input becomes complex.  The
    choice rests on the dtype alone, never on the values.  The check is
    ``max |h - h^dag| <= tol`` entrywise.  A matrix with an inf or NaN entry
    is rejected too: its defect would read NaN, which no tolerance catches.
    """
    h = np.asarray(h)
    kind = float if h.dtype.kind == "f" else complex
    if h.dtype != kind:
        h = h.astype(kind)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NonHermitianError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise NonHermitianError("matrix has non-finite (inf or nan) entries")
    defect = np.abs(h - h.conj().T).max()
    if defect > tol:
        raise NonHermitianError(f"hermiticity defect {defect:.3e} exceeds {tol:.3e}")
    return h


def fix_phase(vec):
    """Rotate a vector's global phase so its largest-magnitude component
    is real and positive.

    The pivot is the lowest index whose magnitude is within 1e-15 of the
    largest.  A vector with a NaN or infinite component is pivoted on
    index 0.  The zero vector comes back as a copy.
    """
    vec = np.asarray(vec, dtype=complex)
    mags = np.abs(vec).tolist()
    top = max(mags) - 1e-15
    # no magnitude compares above a NaN or an infinite top, so both take
    # index 0; Python's max skips a NaN that is not first, hence the sum
    idx = 0 if math.isnan(sum(mags)) else next((i for i, m in enumerate(mags) if m > top), 0)
    pivot = vec[idx]
    size = abs(pivot)
    if size == 0.0:
        return vec.copy()
    return vec * (size / pivot)


def eig_hermitian(h):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(energies, vectors)`` with energies ascending and vectors in
    columns, each phase-fixed so its largest-magnitude component is real
    positive.  Raises NonHermitianError when the input fails the
    Hermiticity check.
    """
    h = require_hermitian(h)
    energies, vectors = np.linalg.eigh(h)
    # C order: a BLAS product downstream may round differently on the transposed layout
    return energies, np.array([fix_phase(column) for column in vectors.T]).T.copy()


def matexp_unitary(h, dt):
    """exp(-i * h * dt / hbar) for Hermitian ``h`` via eigendecomposition."""
    energies, vectors = eig_hermitian(h)
    phases = np.exp((-1j * dt / HBAR) * energies)
    return (vectors * phases) @ vectors.conj().T


def propagate(h, y0, times, *, density=False):
    """Exact evolution under a constant Hermitian ``h`` at every time in ``times``.

    ``h`` is checked and diagonalized once, h = V diag(E) V^dag (a real
    ``eigh`` when ``h`` is real floating, see ``require_hermitian``; states
    then take real products with V), and all
    samples are formed in one broadcast: states as V e^{-iEt} V^dag y0,
    shape (n_times, n); densities (``density=True``) as
    V (rho_E o e^{-i(E_j - E_k)t}) V^dag with rho_E = V^dag rho0 V, shape
    (n_times, n, n), all back-rotated at once as one product of the
    flattened (n_times, n*n) stack with the constant n*n x n*n matrix
    B[(j,k),(a,b)] = V[a,j] V*[b,k].  Times count from the moment ``y0``
    holds.  ``y0`` may also carry a leading axis of length n_times, one
    initial value per sample.
    """
    h = require_hermitian(h)
    energies, vectors = np.linalg.eigh(h)
    times = np.asarray(times, dtype=float)
    phases = np.exp(-1j * np.multiply.outer(times, energies) / HBAR)
    y0 = np.asarray(y0, dtype=complex)
    vh = vectors.conj().T
    if density:
        # in place where possible: the (n_times, n, n) stack is the bulk of the memory
        rho_e = phases[:, :, None] * phases[:, None, :].conj()
        rho_e *= vh @ y0 @ vectors
        n2 = vectors.size
        back = (vectors.T[:, None, :, None] * vh[None, :, None, :]).reshape(n2, n2)
        return (rho_e.reshape(-1, n2) @ back).reshape(rho_e.shape)
    coeffs = phases * (y0 @ vh.T)
    if vectors.dtype.kind == "f":
        # two real products: ``coeffs @ vectors.T`` would cast the real
        # vectors to complex and run a complex GEMM, about 1.5 times slower
        out = np.empty(coeffs.shape, dtype=complex)
        out.real = coeffs.real @ vectors.T
        out.imag = coeffs.imag @ vectors.T
        return out
    return coeffs @ vectors.T


def build_hn(bodies, pair_energies):
    """Hamiltonian of N coupled two-level bodies, shape (2**N, 2**N), complex.

    ``bodies[k]`` is body k's 2x2 Hamiltonian [i][j]; body 0 is the most
    significant bit of the composite index, and H is their Kronecker sum.
    Each table c in ``pair_energies``, keyed by a body pair (k, l), adds
    c[i][j] to the diagonal wherever body k is in level i and body l in
    level j.  A diagonal entry sums the given scalars, bodies then pairs,
    from -0.0 so that a sum of zeros keeps its sign.  At N = 2 this loop
    takes microseconds; np.kron takes about 150.
    """
    n = len(bodies)
    h = np.zeros((2**n, 2**n), dtype=complex)
    for s in range(2**n):
        bits = [(s >> (n - 1 - k)) & 1 for k in range(n)]
        total = -0.0
        for k, body in enumerate(bodies):
            total += body[bits[k]][bits[k]]
            h[s, s ^ (1 << (n - 1 - k))] = body[bits[k]][1 - bits[k]]
        for (k, l), c in pair_energies.items():
            total += c[bits[k]][bits[l]]
        h[s, s] = total
    return h


def stack2x2(m00, m01, m10, m11):
    """2x2 complex matrices from four broadcastable entries, shape (..., 2, 2)."""
    out = np.empty(np.broadcast_shapes(*map(np.shape, (m00, m01, m10, m11))) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = m00, m01, m10, m11
    return out


def _entries(m):
    """A stack (..., d, d) as its d*d entry arrays, shape (d, d, ...), each one contiguous."""
    return np.ascontiguousarray(np.moveaxis(m, (-2, -1), (0, 1)))


def _entry_product(a, b):
    """Entry arrays of the products a @ b: out[i, j] = sum_k a[i, k] * b[k, j].

    ``a`` is (p, q, ...) and ``b`` is (q, r, ...), the matrix axes first and
    the stack axes broadcasting behind them.  Each entry of the whole stack
    takes q vector products; np.matmul goes matrix by matrix, which costs
    several times more for 2x2 blocks.
    """
    out = np.empty((a.shape[0], b.shape[1]) + np.broadcast_shapes(a.shape[2:], b.shape[2:]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            out[i, j] = sum(a[i, k] * b[k, j] for k in range(b.shape[0]))
    return out


def su2_step_operators(h, dt):
    """exp(-i h dt / hbar) for a stack (..., 2, 2) of Hermitian ``h`` in closed form.

    With h = a0 I + a.sigma: e^{-i a0 dt} (cos(|a| dt) I - i dt sinc(|a| dt) a.sigma),
    where sinc(x) = sin(x)/x.  Only the diagonal and h[1, 0] are read.
    """
    a0 = 0.5 * (h[..., 0, 0].real + h[..., 1, 1].real)
    az = 0.5 * (h[..., 0, 0].real - h[..., 1, 1].real)
    off = h[..., 1, 0]
    tau = dt / HBAR
    x = np.hypot(az, np.abs(off)) * tau
    s = -1j * tau * np.sinc(x / np.pi)
    c = np.cos(x)
    u = stack2x2(c + s * az, s * np.conj(off), s * off, c - s * az)
    return np.exp(-1j * a0 * tau)[..., None, None] * u


def rk4_step_operators(h_start, h_mid, h_end, dt):
    """Matrices M with y(t + dt) = M y(t) for one ``rk4_step`` of i hbar dy/dt = H(t) y.

    The equation is linear, so an RK4 step is a polynomial in H at its stage
    times t, t + dt/2 and t + dt.  The arguments are stacks (..., n, n) of H
    at those times, and every step matrix is built in one broadcast over
    entry arrays; the stack comes back as a (..., n, n) view of them.
    """
    shape = np.broadcast_shapes(h_start.shape, h_mid.shape, h_end.shape)
    eye = np.eye(shape[-1]).reshape(shape[-2:] + (1,) * (len(shape) - 2))
    k1, b2, b3 = (
        np.multiply(-1j * dt / HBAR, np.moveaxis(np.broadcast_to(h, shape), (-2, -1), (0, 1)), order="C")
        for h in (h_start, h_mid, h_end)
    )
    k2 = _entry_product(b2, eye + 0.5 * k1)
    k3 = _entry_product(b2, eye + 0.5 * k2)
    k4 = _entry_product(b3, eye + k3)
    # eye + (k1 + 2 k2 + 2 k3 + k4) / 6 in place, the same roundings without fresh arrays
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 /= 6.0
    k2 += eye
    return np.moveaxis(k2, (0, 1), (-2, -1))


STEP_CHUNK = 4096  # step matrices evolve_steps holds at once: about 4 MB of 2x2 RK4 work


def _chain(m, y):
    """States y_{k+1} = M_k ... M_0 y for every k, as entry arrays (d, 1, n).

    ``m`` holds the entry arrays (d, d, n) of M_0 .. M_{n-1} and ``y`` is a
    column (d, 1, 1).  Adjacent steps are composed, M_{2i+1} M_{2i}, the
    states after an even number of steps come from the n/2 pair products
    by recursion, and each state in between is one step from the state
    before it: n/2 matrix and n/2 matrix-vector products per level, at
    most 2n products in about 2 log2(n) batched calls.
    """
    n = m.shape[-1]
    if n == 1:
        return _entry_product(m, y)
    even = _chain(_entry_product(m[..., 1::2], m[..., : n - 1 : 2]), y)  # y_2, y_4, ...
    out = np.empty((m.shape[0], 1, n), dtype=complex)
    out[..., 1::2] = even
    out[..., 0::2] = _entry_product(m[..., 0::2], np.concatenate([y, even[..., : (n - 1) // 2]], axis=-1))
    return out


def evolve_steps(make_steps, n_steps, y0):
    """States y_0 = y0, y_k = M_{k-1} y_{k-1} for k up to ``n_steps``; shape (n_steps + 1, d).

    ``make_steps(lo, hi)`` returns the step matrices M_lo .. M_{hi-1}, shape
    (hi - lo, d, d).  They are built and chained one chunk of at most
    ``STEP_CHUNK`` steps at a time, so memory is bounded by the chunk and
    the returned states.  Within a chunk the states come from a pairwise
    prefix over the steps' entry arrays (``_chain``), so the work grows
    linearly in the steps and no Python loop runs per step.
    """
    states = [np.asarray(y0, dtype=complex)[None]]
    for lo in range(0, n_steps, STEP_CHUNK):
        steps = _entries(np.asarray(make_steps(lo, min(lo + STEP_CHUNK, n_steps)), dtype=complex))
        states.append(_chain(steps, states[-1][-1][:, None, None])[:, 0].T)
    return np.concatenate(states)


def rk4_step(f, t, y, dt):
    """One classical Runge-Kutta step of ``dy/dt = f(t, y)``."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def evolve_rk4(h_of_t, psi0, t0, t1, dt):
    """Integrate i hbar dpsi/dt = H(t) psi with RK4 at fixed step ``dt``.

    ``h_of_t`` maps time to a Hermitian matrix (not re-validated per step
    for speed).  The final partial step is shortened to land on ``t1``.
    """

    def rhs(t, y):
        return (-1j / HBAR) * (h_of_t(t) @ y)

    y, t = np.array(psi0, dtype=complex), t0
    while t < t1 - 1e-15:
        step = min(dt, t1 - t)
        y = rk4_step(rhs, t, y, step)
        t += step
    return y


@dataclass
class StateVector:
    """Complex amplitude vector tagged with the basis it is written in."""

    amps: np.ndarray
    basis: str = POSITION

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.ndim != 1:
            raise ValueError("state amplitudes must be a 1-D vector")
        if self.basis not in (POSITION, ENERGY):
            raise BasisMismatchError(f"unknown basis tag {self.basis!r}")

    @property
    def dim(self):
        return self.amps.shape[0]

    def norm(self):
        return float(np.linalg.norm(self.amps))

    def normalized(self):
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amps / n, self.basis)

    def require_basis(self, basis):
        if self.basis != basis:
            raise BasisMismatchError(f"expected {basis!r} basis, got {self.basis!r}")
        return self


def as_amplitudes(state):
    """The amplitudes of a StateVector, or an array-like as a complex array."""
    return state.amps if isinstance(state, StateVector) else np.asarray(state, dtype=complex)
