"""Coulomb-mediated energy exchange between two coupled charge qubits.

Two qubits A and B interact through four node-node Coulomb terms
k/d(i,j') |x_i x_j'><x_i x_j'|.  Rewriting each node term in the
two-qubit energy basis (ordering |E1A E1B>, |E1A E2B>, |E2A E1B>,
|E2A E2B>) splits it into four channels:

    r1 - diagonal energy renormalization,
    r2 - qubit B excitation/deexcitation (A unchanged),
    r3 - qubit A excitation/deexcitation (B unchanged),
    r4 - simultaneous two-qubit transitions.

Both composites put qubit A on the high bit: the energy index is
2*i_A + i_B with level 1 on E2, so the channel of entry (i, j) is i ^ j.
Each node term is exactly rank one in the energy basis: with per-qubit
overlap vectors w = (<E1|x>, <E2|x>) it is (k/d) v v^dag, v = kron(wA, wB).
The module also assembles the resonant base Hamiltonian (the N = 2 case
of ``qcore.build_hn``), the total decoherence matrix, the symmetric-case
scalars, exact evolution under constant H0 + Hdec and its first-order
angle factorization.  ``_evolve`` propagates amplitudes only: the CLI's
decoherence kind passes the 4 amplitudes of its pure state, and a density
matrix evolves as U rho0 U^dag from the 4 propagated basis states.
"""

from dataclasses import dataclass

import numpy as np

from . import signals
from .measurement import validate_density
from .qcore import HBAR, build_hn, propagate, propagate_eigen, require_hermitian

NODE_PAIRS = ("11", "22", "12", "21")
# node index (0 or 1) of qubit A and of qubit B in each pair of NODE_PAIRS
_NODE_A, _NODE_B = np.array([[int(n) - 1 for n in pair] for pair in NODE_PAIRS]).T

# channel of each energy-composite entry (i, j): the bits that differ,
# 0 = r1, 1 = r2 (B flips), 2 = r3 (A flips), 3 = r4 (both flip)
_CHANNEL = np.bitwise_xor.outer(np.arange(4), np.arange(4))


@dataclass
class QubitEnergyBasis:
    """Eigencoefficient sets (a, b, c, d) of qubits A and B."""

    coeffs_a: object
    coeffs_b: object


@dataclass
class NodeDistances:
    """Node-pair distances d(1,1'), d(2,2'), d(1,2'), d(2,1')."""

    d11: float
    d22: float
    d12: float
    d21: float

    def __post_init__(self):
        if min(self.d11, self.d22, self.d12, self.d21) <= 0:
            raise ValueError("all node distances must be positive")

    def of(self, pair):
        return getattr(self, "d" + pair)


@dataclass
class RenormalizationSplit:
    """One node term split into the four renormalization channels."""

    r1: np.ndarray
    r2: np.ndarray
    r3: np.ndarray
    r4: np.ndarray

    def total(self):
        return self.r1 + self.r2 + self.r3 + self.r4


def _overlap_rows(coeffs):
    """Both overlap rows w = (<E1|x>, <E2|x>) of one qubit, node 1 then node 2;
    the node-2 row (b*, d*) is real when b and d are."""
    return np.array([np.conj(coeffs.a), np.conj(coeffs.c)]), np.array([np.conj(coeffs.b), np.conj(coeffs.d)])


def coulomb_node_term_energy_basis(node_pair, basis, distance, k):
    """One Coulomb node term k/d |x_i x_j'><x_i x_j'| in the energy basis,
    split into the r1..r4 channels.

    Channel coefficients are products of the per-qubit bra/ket overlap
    coefficients <E|x>: (1,1') uses (a,c) for both qubits, (2,2') uses
    (b,d), and the mixed pairs combine one of each.
    """
    if node_pair not in NODE_PAIRS:
        raise ValueError(f"node pair must be one of {NODE_PAIRS}")
    wa = _overlap_rows(basis.coeffs_a)[int(node_pair[0]) - 1]
    wb = _overlap_rows(basis.coeffs_b)[int(node_pair[1]) - 1]
    v = np.kron(wa, wb)
    full = (k / distance) * np.outer(v, v.conj())
    return RenormalizationSplit(*(np.where(_CHANNEL == channel, full, 0.0) for channel in range(4)))


def decoherence_matrix(basis, dist, k):
    """Sum of all four node terms (all channels) in the energy basis, as the
    rank-4 product sum_p (k/d_p) v_p v_p^dag = (V^T w) V* with rows
    v_p = kron(wA(i_p), wB(j_p)) in ``NODE_PAIRS`` order, averaged with its
    adjoint to be exactly Hermitian.  The channel splits of
    ``coulomb_node_term_energy_basis`` cover all 16 entries, so the sum of
    their totals is its test oracle."""
    wa, wb = (np.array(_overlap_rows(c), dtype=complex) for c in (basis.coeffs_a, basis.coeffs_b))
    v = (wa[_NODE_A, :, None] * wb[_NODE_B, None, :]).reshape(4, 4)
    h = (v.T * (k / np.array([dist.of(pair) for pair in NODE_PAIRS]))) @ v.conj()
    return 0.5 * (h + h.conj().T)


def renormalized_energies(e1a, e2a, e1b, e2b, hdec):
    """Pairwise eigenenergy sums plus the r1 diagonal shifts, read off the
    diagonal of ``hdec`` (a ``decoherence_matrix``)."""
    pairwise = np.add.outer((e1a, e2a), (e1b, e2b)).ravel()
    shifts = np.real(np.diag(hdec))
    return pairwise + shifts


def build_h0_resonant(e1a, e2a, e1b, e2b, e12a, e12b, t):
    """Base Hamiltonian of the two uncoupled qubits with their resonant
    channels, ``qcore.build_hn`` of qubits A and B with no pair term:
    diagonal pairwise sums, E12B on the B-transition entries (0,1), (2,3)
    and E12A on the A-transition entries (0,2), (1,3)."""
    e1a_v, e2a_v, e1b_v, e2b_v, e12a_v, e12b_v = (
        signals.as_signal(x)(t) for x in (e1a, e2a, e1b, e2b, e12a, e12b)
    )
    qubit_a = ((e1a_v, e12a_v), (np.conj(e12a_v), e2a_v))
    qubit_b = ((e1b_v, e12b_v), (np.conj(e12b_v), e2b_v))
    return build_hn((qubit_a, qubit_b), {})


@dataclass
class SymmetricCase:
    """Closed-form scalars of the symmetric-basis reduction."""

    eab_r1: float
    hq1: float
    hq2: float
    hq3: float
    hq4: float


def symmetric_case(dist, k):
    """Symmetric-basis (|coeff| = 1/sqrt(2)) closed forms: the common r1
    shift and the four signed off-diagonal combinations."""
    c11 = k / dist.d11
    c22 = k / dist.d22
    c12 = k / dist.d12
    c21 = k / dist.d21
    return SymmetricCase(
        eab_r1=0.25 * (c11 + c22 + c12 + c21),
        hq1=0.25 * (-c12 + c21 + c11 - c22),
        hq2=0.25 * (c12 + c21 + c11 - c22),
        hq3=0.25 * (-c12 - c21 + c11 - c22),
        hq4=0.25 * (-c12 - c21 + c11 + c22),
    )


def energy_to_position(op, basis):
    """Rotate a two-qubit operator from the energy-composite basis back to
    the position-composite basis (x1x1', x1x2', x2x1', x2x2')."""
    sa = basis.coeffs_a.basis_matrix()
    sb = basis.coeffs_b.basis_matrix()
    m = np.kron(sa.T, sb.T)  # column p holds <x|E_p> per qubit
    return m @ op @ m.conj().T


def _evolve(y0, h0, hdec, dt, steps, paper_factorized):
    """Amplitudes at the times ``dt * steps`` under constant Hermitian
    H0 + Hdec, with ``y0`` broadcast and ``steps`` read as in
    ``qcore.propagate``: exact, or with ``paper_factorized`` the first-order
    split of H = H0 + Hdec, where the diagonal phase D = e^{-i diag(H) t}
    acts first, as the per-sample start d o y0, and then H - diag(H), which
    keeps H0's resonant entries.  D o y0 is y0 propagated under diag(H),
    whose eigenvectors are the identity, on the same phase tables.  H is
    checked for Hermiticity as the sum, not term by term: by ``propagate``,
    or with the split once up front, before its diagonal is read."""
    h = np.asarray(h0) + np.asarray(hdec)
    if not paper_factorized:
        return propagate(h, y0, dt, steps)
    h = require_hermitian(h)
    diagonal = np.real(np.diag(h))
    starts = propagate_eigen(diagonal, np.eye(len(diagonal)), y0, dt, steps)
    return propagate(h - np.diag(np.diag(h)), starts, dt, steps)


def evolve_density_with_decoherence(rho0, h0, hdec, t0, t, paper_factorized=False):
    """Unitary von-Neumann evolution of a two-qubit density matrix under
    constant H0 + Hdec.

    ``t`` is a scalar or a 1-D array of sample times, and the result has
    shape ``np.shape(t) + (4, 4)``.  The evolution is exact: the 4 basis
    states are propagated as one stack (``_evolve``, one diagonalization
    per call), which gives U(t) column by column, and rho(t) = U rho0 U^dag.
    With ``paper_factorized`` the propagator is split into the factor of
    the off-diagonal part of H0 + Hdec times the diagonal phase
    (first-order factorization; exact when the two commute).
    """
    rho = validate_density(rho0, dim=4)
    spans = np.asarray(t, dtype=float) - t0
    # columns[j, s] = U(t_s) e_j, so U(t_s) is columns[:, s] transposed
    columns = _evolve(np.eye(4)[:, None], h0, hdec, 1.0, spans.reshape(-1), paper_factorized)
    u = np.moveaxis(columns, 0, -1)
    out = u @ rho
    np.conjugate(columns, out=columns)  # u is now U*, and its swapped axes U^dag
    out = out @ np.swapaxes(u, -1, -2)
    return out.reshape(spans.shape + (4, 4))


@dataclass
class AngleDecomposition:
    """First-order angle parameterization of the density evolution.

    alpha holds the four diagonal phase angles (phase factor
    e^{i alpha_k}), theta the six upper-triangle angles
    Theta_ij = (H0 + Hdec)_ij (t-t0)/hbar; entry (j,i) uses the conjugate.
    """

    alpha: np.ndarray
    theta: dict

    def reconstruct(self, rho0):
        """First-order density matrix: F D rho0 D^dag F^dag with
        D = diag(e^{i alpha}) and F = I - i Theta."""
        d = np.diag(np.exp(1j * self.alpha))
        f = np.eye(4, dtype=complex)
        for (i, j), th in self.theta.items():
            f[i, j] += -1j * th
            f[j, i] += -1j * np.conj(th)
        return f @ d @ rho0 @ d.conj().T @ f.conj().T


def angle_decomposition(h0, hdec, t0, t):
    """Angles of the first-order factorized propagator for constant H0, Hdec."""
    h = require_hermitian(h0) + require_hermitian(hdec)
    span = (t - t0) / HBAR
    alpha = -np.real(np.diag(h)) * span
    theta = {}
    for i in range(4):
        for j in range(i + 1, 4):
            theta[(i, j)] = h[i, j] * span
    return AngleDecomposition(alpha=alpha, theta=theta)
