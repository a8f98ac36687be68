"""Position measurements, density-matrix validation and partial traces.

Operates on two-body states in BasisOrder4 (see two_qubit) and on 2x2 /
4x4 density matrices.  A BasisOrder4 state is read as the (2, 2) grid of
``qcore.build_hn``'s body layout: axis 0 is U, axis 1 is L, and level 1
is the left node; outcome probabilities are ``qcore.body_populations``
of U or L.  Strong position measurement keeps one level of one
axis and renormalizes by the square root of the outcome probability
(Born rule); partial_trace provides the reduced state of one qubit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDensityError, NonHermitianError, ZeroProbabilityError
from .qcore import body_populations, require_hermitian

SUBSYSTEM_U = "U"
SUBSYSTEM_L = "L"
LEFT = "left"
RIGHT = "right"

# grid axis of each subsystem and grid level of each side
_GRID = {SUBSYSTEM_U: 0, SUBSYSTEM_L: 1, LEFT: 1, RIGHT: 0}


def _grid(state):
    """A BasisOrder4 state as its (2, 2) grid of amplitudes [U level, L level]."""
    return np.asarray(state, dtype=complex).reshape(2, 2)


@dataclass
class MeasurementOutcome:
    probability: float
    post_state: np.ndarray


def project_position(state, subsystem, side):
    """Strong position measurement of one subsystem.

    Returns the outcome probability and the renormalized post-measurement
    state; raises ZeroProbabilityError for (numerically) impossible
    outcomes.
    """
    at_side = np.expand_dims(np.arange(2) == _GRID[side], 1 - _GRID[subsystem])
    kept = np.where(at_side, _grid(state), 0.0).ravel()
    prob = float(np.sum(np.abs(kept) ** 2))
    if prob < 1e-14:
        raise ZeroProbabilityError(
            f"outcome ({subsystem}, {side}) has probability {prob:.3e}"
        )
    return MeasurementOutcome(prob, kept / np.sqrt(prob))


def measurement_probabilities(state, subsystem):
    """(left, right) outcome probabilities for one subsystem; they sum to 1."""
    levels = body_populations(state, 2)[_GRID[subsystem]]
    return float(levels[_GRID[LEFT]]), float(levels[_GRID[RIGHT]])


def pure_density(state):
    """Rank-1 density matrix |psi><psi| of a normalized pure state."""
    amps = np.asarray(state, dtype=complex)
    return np.outer(amps, amps.conj())


def validate_density(rho, dim=None):
    """Check Hermiticity, unit trace and positive semidefiniteness."""
    rho = np.asarray(rho, dtype=complex)
    if dim is not None and rho.shape != (dim, dim):
        raise InvalidDensityError(f"expected {dim}x{dim}, got {rho.shape}")
    try:
        rho = require_hermitian(rho, tol=1e-10)
    except NonHermitianError as exc:
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
    index = 2*i_A + i_B; keep is "A" (first factor) or "B" (second).  The
    density is traced as a (2, 2, 2, 2) array [i_A, i_B, j_A, j_B] over
    the other qubit's row and column axes.
    """
    rho = validate_density(rho, dim=4)
    if keep not in ("A", "B"):
        raise ValueError("keep must be 'A' or 'B'")
    other = 1 if keep == "A" else 0
    return np.trace(rho.reshape(2, 2, 2, 2), axis1=other, axis2=other + 2)
