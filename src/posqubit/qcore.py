"""Core linear-algebra kernels for small quantum systems.

Dense complex matrices of fixed small dimension (2x2, 4x4, ...) with a
deterministic eigenvector phase convention, unitary propagation through
exact exponentiation, and exact sampled propagation under a constant
Hamiltonian, given as a matrix or as its eigendecomposition, at the times
dt * k of a sample grid, whose phases come from two short tables.  ``build_hn``
assembles the Hamiltonian of N electrostatically coupled two-level
bodies, one bit of the composite index per body, and
``body_populations`` reads every body's level populations off a stack of
states; both read the one level table ``_levels``.  For
time-dependent 2x2 generators, whole grids of step operators
(closed-form SU(2) exponentials, and fourth-order Magnus steps as
products of two of them) are built in one broadcast and chained by
``evolve_steps`` with a pairwise prefix, in work linear in the number of
steps.  Stacks of small matrices are multiplied as their d*d contiguous
entry arrays.
The fixed-step RK4 loop ``evolve_rk4`` is left for generators given only
as bare callables.
Energies are expressed in a user-chosen unit and hbar = 1 internally, so
times carry the inverse of that unit.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianError

HBAR = 1.0

HERMITICITY_TOL = 1e-12


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
    idx = 0
    if not math.isnan(sum(mags)):
        for i, m in enumerate(mags):
            if m > top:
                idx = i
                break
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
    fixed = np.empty(vectors.shape, dtype=complex)
    for j in range(vectors.shape[1]):
        fixed[:, j] = fix_phase(vectors[:, j])
    return energies, fixed


def matexp_unitary(h, dt):
    """exp(-i * h * dt / hbar) for Hermitian ``h`` via eigendecomposition."""
    energies, vectors = eig_hermitian(h)
    phases = np.exp((-1j * dt / HBAR) * energies)
    return (vectors * phases) @ vectors.conj().T


def propagate(h, y0, dt, steps):
    """Exact evolution of states under a constant Hermitian ``h`` at the times ``dt * steps``.

    ``h`` is checked and diagonalized once, h = V diag(E) V^dag (a real
    ``eigh`` when ``h`` is real floating, see ``require_hermitian``; states
    then take real products with V), and all samples V e^{-iEt} V^dag y0
    are formed in one broadcast.  Times count from the moment ``y0`` holds.
    ``steps`` is a scalar or a 1-D array; its dtype picks how the phases
    e^{-iEt} are formed (``_grid_phases``): integer steps 0, g, 2g, ...
    from two short tables, any other from one exponential per sample and
    level.
    ``y0`` broadcasts against (n_times, n): one state (n,) gives
    (n_times, n), one state per sample (n_times, n) the same, and a stack
    (k, 1, n) of k states gives (k, n_times, n), so the basis states
    ``np.eye(n)[:, None]`` give the columns of U(t).
    """
    h = require_hermitian(h)
    return propagate_eigen(*np.linalg.eigh(h), y0, dt, steps)


def _grid_phases(energies, dt, steps):
    """e^{-i E dt k / hbar} for every k in ``steps`` and every E, shape np.shape(steps) + (n,).

    Integer steps that are a runner's sample grid, k = g j for
    j = 0, 1, 2, ..., are written, with b = isqrt(j_max) + 1, as
    j = b q + r, 0 <= r < b, and their phases are the products of two
    tables: the coarse e^{-iE dt g b q} and the fine e^{-iE dt g r}.  That
    takes about 2 sqrt(j_max) exponentials per level, each of a time
    rounded once as in the direct form, and one complex product per sample
    and level, written in place as an outer product, so every phase is
    within a few eps (1 + |E| t) of the exponential.  Steps of any other
    dtype or layout, and grids too short for the tables to save
    exponentials, take one exponential per sample and level at the times
    dt * steps.
    """
    steps = np.asarray(steps)
    energies = np.asarray(energies)
    if steps.dtype.kind in "iu" and steps.size:
        m = steps.astype(np.int64).ravel()
        g = max(int(m[1]), 1) if m.size > 1 else 1  # the spacing, if m is a grid 0, g, 2g, ...
        b = math.isqrt(m.size - 1) + 1
        q = np.arange((m.size - 1) // b + 1)
        if b + q.size < m.size and np.array_equal(m, g * np.arange(m.size)):
            coarse = _phases(energies, dt * (g * b * q))
            fine = _phases(energies, dt * (g * np.arange(b)))
            out = np.empty((m.size, energies.size), dtype=complex)
            full, rest = divmod(m.size, b)
            np.multiply(coarse[:full, None], fine, out=out[: full * b].reshape(full, b, -1))
            if rest:
                np.multiply(coarse[full], fine[:rest], out=out[full * b :])
            return out.reshape(steps.shape + energies.shape)
    return _phases(energies, dt * steps)


def _phases(energies, times):
    """e^{-i E t / hbar}, shape np.shape(times) + (n,): one exponential per time and level."""
    return np.exp(-1j * np.multiply.outer(times, energies) / HBAR)


def propagate_eigen(energies, vectors, y0, dt, steps):
    """``propagate`` from a given eigendecomposition h = V diag(E) V^dag.

    ``vectors`` holds orthonormal eigenvectors in columns, in the order of
    ``energies``, which need not ascend; real vectors take real products.
    The arguments and the result are those of ``propagate``.
    """
    phases = _grid_phases(energies, dt, steps)
    y0 = np.asarray(y0, dtype=complex)
    vh = vectors.conj().T
    coeffs = phases * (y0 @ vh.T)
    if vectors.dtype.kind == "f":
        # two real products: ``coeffs @ vectors.T`` would cast the real
        # vectors to complex and run a complex GEMM, about 1.5 times slower
        out = np.empty(coeffs.shape, dtype=complex)
        out.real = coeffs.real @ vectors.T
        out.imag = coeffs.imag @ vectors.T
        return out
    return coeffs @ vectors.T


@functools.lru_cache(maxsize=None)
def _levels(n):
    """Level of body k in composite state s, as rows[s][k] for s < 2**n:
    body 0 is the most significant bit of s, so s is the C-order index of
    the bodies' (2,) * n grid.  This is the one statement of the body layout."""
    return tuple(tuple((s >> (n - 1 - k)) & 1 for k in range(n)) for s in range(2**n))


def build_hn(bodies, pair_energies):
    """Hamiltonian of N coupled two-level bodies, shape (2**N, 2**N), complex.

    ``bodies[k]`` is body k's 2x2 Hamiltonian [i][j]; body 0 is the most
    significant bit of the composite index (``_levels``), and H is their
    Kronecker sum: body k's off-diagonal entry joins two states whose levels
    differ in body k alone.  Each table c in ``pair_energies``, keyed by a
    body pair (k, l), adds c[i][j] to the diagonal wherever body k is in
    level i and body l in level j.  A diagonal entry sums the given scalars,
    bodies then pairs, from -0.0 so that a sum of zeros keeps its sign.  At
    N = 2 this loop takes microseconds; np.kron takes about 150.
    """
    rows = _levels(len(bodies))
    state_of = {bits: s for s, bits in enumerate(rows)}
    h = np.zeros((len(rows),) * 2, dtype=complex)
    for s, bits in enumerate(rows):
        total = -0.0
        for k, body in enumerate(bodies):
            i = bits[k]
            total += body[i][i]
            h[s, state_of[bits[:k] + (1 - i,) + bits[k + 1 :]]] = body[i][1 - i]
        for (k, l), c in pair_energies.items():
            total += c[bits[k]][bits[l]]
        h[s, s] = total
    return h


def body_populations(amps, n_bodies):
    """Level populations of every body, shape (..., n_bodies, 2) indexed
    [body, level], of a stack (..., 2**n_bodies) of amplitudes in
    ``build_hn``'s layout.  The gathered |amps|^2 are added, not multiplied
    by a 0/1 table, so a population that overflows stays inf, not NaN."""
    pops = np.abs(as_amplitudes(amps)) ** 2
    if pops.shape[-1:] != (2**n_bodies,):
        raise ValueError(f"expected amplitudes (..., {2**n_bodies}), got shape {pops.shape}")
    rows = _levels(n_bodies)
    states = [[[s for s, bits in enumerate(rows) if bits[k] == i] for i in (0, 1)] for k in range(n_bodies)]
    return pops[..., states].sum(axis=-1)


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


GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)  # fractions of a step
_MAGNUS_WEIGHTS = ((3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0)


def magnus4_step_operators(h1, h2, dt):
    """Fourth-order commutator-free Magnus steps of i hbar dy/dt = H(t) y, shape (..., 2, 2).

    ``h1`` and ``h2`` are stacks of H at the Gauss nodes t + ``GAUSS_NODES`` * dt
    of each step.  The step is exp(-i dt (a1 H1 + a2 H2)) exp(-i dt (a2 H1 + a1 H2)),
    the right factor first, with a1, a2 = (3 -+ 2 sqrt(3)) / 12 (Blanes, Casas,
    Oteo & Ros, Phys. Rep. 470 (2009); Alvermann & Fehske, J. Comput. Phys. 230
    (2011) 5930).  Each factor is one ``su2_step_operators`` call, so every step
    is unitary to rounding.
    """
    a1, a2 = _MAGNUS_WEIGHTS
    first = _entries(su2_step_operators(a2 * h1 + a1 * h2, dt))
    later = _entries(su2_step_operators(a1 * h1 + a2 * h2, dt))
    return np.moveaxis(_entry_product(later, first), (0, 1), (-2, -1))


STEP_CHUNK = 4096  # steps evolve_steps holds at once; a 2x2 Magnus chunk with H at both nodes peaks at 1.9 MiB


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
    """Complex amplitude vector of one state."""

    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.ndim != 1:
            raise ValueError("state amplitudes must be a 1-D vector")


def as_amplitudes(state):
    """The amplitudes of a StateVector, or an array-like as a complex array."""
    return state.amps if isinstance(state, StateVector) else np.asarray(state, dtype=complex)
