"""Position measurements, one-body extraction and partial traces.

Operates on two-body states in BasisOrder4 (see two_qubit) and on 2x2 /
4x4 density matrices.  Strong position measurement projects onto the
left or right node of one subsystem and renormalizes by the square root
of the outcome probability (Born rule); the coherent one-body extraction
keeps the 1/sqrt(2)-weighted amplitude sums as a distinct, documented
operation and partial_trace provides the faithful reduced state.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidDensityError, ZeroMarginalError, ZeroProbabilityError
from .qcore import StateVector, as_amplitudes, require_hermitian

SUBSYSTEM_U = "U"
SUBSYSTEM_L = "L"
LEFT = "left"
RIGHT = "right"

# BasisOrder4 indices where the chosen subsystem occupies the chosen node.
# left = node 1 = |1,0>, right = node 2 = |0,1>.
_MASKS = {
    (SUBSYSTEM_U, LEFT): (2, 3),
    (SUBSYSTEM_U, RIGHT): (0, 1),
    (SUBSYSTEM_L, LEFT): (1, 3),
    (SUBSYSTEM_L, RIGHT): (0, 2),
}


@dataclass
class MeasurementOutcome:
    probability: float
    post_state: Optional[StateVector]


def project_position(state, subsystem, side):
    """Strong position measurement of one subsystem.

    Returns the outcome probability and the renormalized post-measurement
    state; raises ZeroProbabilityError for (numerically) impossible
    outcomes.
    """
    amps = as_amplitudes(state)
    idx = _MASKS[(subsystem, side)]
    masked = np.zeros(4, dtype=complex)
    masked[list(idx)] = amps[list(idx)]
    prob = float(np.sum(np.abs(masked) ** 2))
    if prob < 1e-14:
        raise ZeroProbabilityError(
            f"outcome ({subsystem}, {side}) has probability {prob:.3e}"
        )
    return MeasurementOutcome(prob, StateVector(masked / np.sqrt(prob)))


def measurement_probabilities(state, subsystem):
    """(left, right) outcome probabilities for one subsystem; they sum to 1."""
    amps = as_amplitudes(state)
    pr = np.abs(amps) ** 2
    left = float(sum(pr[i] for i in _MASKS[(subsystem, LEFT)]))
    right = float(sum(pr[i] for i in _MASKS[(subsystem, RIGHT)]))
    return left, right


def extract_one_body(state, subsystem):
    """Coherent one-body amplitudes of one subsystem.

    The amplitude for each node is the 1/sqrt(2)-weighted coherent sum of
    the two consistent two-body amplitudes, renormalized to unit norm.
    For factorizable states this recovers the true factor up to a global
    phase; for strongly entangled states it is a coherent marginal, not a
    faithful reduced state (use partial_trace for that).
    Ordering of the result is (|0,1>, |1,0>) i.e. (right node, left node).
    """
    amps = as_amplitudes(state)
    if subsystem == SUBSYSTEM_U:
        pair = np.array([amps[0] + amps[1], amps[2] + amps[3]]) / np.sqrt(2.0)
    else:
        pair = np.array([amps[0] + amps[2], amps[1] + amps[3]]) / np.sqrt(2.0)
    norm = np.linalg.norm(pair)
    if norm < 1e-14:
        raise ZeroMarginalError(f"both coherent sums vanish for subsystem {subsystem}")
    return StateVector(pair / norm)


def pure_density(state):
    """Rank-1 density matrix |psi><psi| of a normalized pure state."""
    amps = as_amplitudes(state)
    return np.outer(amps, amps.conj())


def validate_density(rho, dim=None):
    """Check Hermiticity, unit trace and positive semidefiniteness."""
    rho = np.asarray(rho, dtype=complex)
    if dim is not None and rho.shape != (dim, dim):
        raise InvalidDensityError(f"expected {dim}x{dim}, got {rho.shape}")
    try:
        rho = require_hermitian(rho, tol=1e-10)
    except Exception as exc:
        raise InvalidDensityError(str(exc)) from exc
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise InvalidDensityError(f"trace {np.trace(rho).real} != 1")
    evals = np.linalg.eigvalsh(rho)
    if evals.min() < -1e-10:
        raise InvalidDensityError(f"negative eigenvalue {evals.min():.3e}")
    return rho


def partial_trace(rho, keep):
    """Reduced density matrix of one qubit from a 4x4 two-qubit density.

    Composite index ordering is (first qubit) x (second qubit), i.e.
    index = 2*i_A + i_B; keep is "A" (first factor) or "B" (second).
    """
    rho = validate_density(rho, dim=4)
    out = np.zeros((2, 2), dtype=complex)
    if keep == "A":
        for i in range(2):
            for j in range(2):
                out[i, j] = rho[2 * i, 2 * j] + rho[2 * i + 1, 2 * j + 1]
    elif keep == "B":
        for i in range(2):
            for j in range(2):
                out[i, j] = rho[i, j] + rho[2 + i, 2 + j]
    else:
        raise ValueError("keep must be 'A' or 'B'")
    return out
