"""Two electrostatically coupled double quantum dots (swap-style gate).

Basis ordering for all 4x4 operations (BasisOrder4):

    index 0: |0,1>_U |0,1>_L      index 1: |0,1>_U |1,0>_L
    index 2: |1,0>_U |0,1>_L      index 3: |1,0>_U |1,0>_L

where |1,0> means the electron sits on the left node (node 1) of its
double dot and |0,1> on the right node (node 2): the upper system is
the high bit, and a bit is 1 on node 1.  The module places each
geometry's nodes in the plane and takes every Coulomb coupling as
k / |r_i - r_j| between two of them, assembles the 4x4 Hamiltonian as
the N = 2 case of ``qcore.build_hn``, gives the closed-form symmetric
eigensystem, tests factorizability, evolves the two-body state, reads
its node occupancies off ``qcore.body_populations``, and implements the
mean-field one-way coupling of a third double dot (controlled-NOT
style).  The mean field leaves out the target's back-action on the
control: it follows the exact three-body Hamiltonian while the control
sits in a node state and drifts from it once the control hops.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import OccupancyNotNormalizedError
from .qcore import (
    StateVector,
    as_amplitudes,
    body_populations,
    build_hn,
    evolve_steps,
    matexp_unitary,
    propagate,
    stack2x2,
    su2_step_operators,
)

PARALLEL = "parallel"
COLLINEAR = "collinear"
PERPENDICULAR = "perpendicular"


@dataclass
class DotGeometry:
    """Dot spacings and the Coulomb prefactor (charge squared over permittivity)."""

    kind: str = COLLINEAR
    a: float = 1.0
    b: float = 1.0
    d: float = 1.0
    d1: float = 1.0
    d2: float = 1.0
    d3: float = 1.0
    coulomb_k: float = 1.0

    def __post_init__(self):
        if self.kind not in (PARALLEL, COLLINEAR, PERPENDICULAR):
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        for name in ("a", "b", "d", "d1", "d2", "d3"):
            if getattr(self, name) <= 0:
                raise ValueError(f"geometry length {name} must be positive")
        if self.coulomb_k < 0:
            raise ValueError("coulomb_k must be nonnegative")


@dataclass
class CoulombCouplings:
    """Inter-system node-node Coulomb energies E_c(i, j')."""

    ec11: float
    ec22: float
    ec12: float
    ec21: float


def _nodes(geom, kind):
    """(x, y) of the control's nodes U1, U2, L1, L2 in layout ``kind``, U2 at the
    origin and span = a + b: the pairs side by side d1 apart (parallel), on one
    line d apart (collinear), or U on the y axis and L on the line y = -d2
    (perpendicular)."""
    a, b, d1, span = geom.a, geom.b, geom.d1, geom.a + geom.b
    if kind == PARALLEL:
        return (-span, 0.0), (0.0, 0.0), (-span, d1), (0.0, d1)
    if kind == COLLINEAR:
        return (-span, 0.0), (0.0, 0.0), (geom.d, 0.0), (geom.d + span, 0.0)
    return (0.0, span), (0.0, 0.0), (d1 + 0.5 * b, -geom.d2), (d1 + a + 1.5 * b, -geom.d2)


def _coulomb(k, r, s):
    """Coulomb energy k / |r - s| of two nodes (x, y)."""
    return k / np.hypot(r[0] - s[0], r[1] - s[1])


def coulomb_couplings(geom):
    """Node-pair Coulomb couplings E_c(i, j') = k / |U_i - L_j| of the nodes
    of ``geom.kind``."""
    u1, u2, l1, l2 = _nodes(geom, geom.kind)
    k = geom.coulomb_k
    return CoulombCouplings(
        ec11=_coulomb(k, u1, l1), ec22=_coulomb(k, u2, l2), ec12=_coulomb(k, u1, l2), ec21=_coulomb(k, u2, l1)
    )


@dataclass
class SwapParams:
    """Symmetric-structure two-dot-pair parameters."""

    vs: float
    t_u: float
    t_l: float
    couplings: CoulombCouplings = field(
        default_factory=lambda: CoulombCouplings(0.0, 0.0, 0.0, 0.0)
    )

    def __post_init__(self):
        if self.t_u < 0 or self.t_l < 0:
            raise ValueError("hopping magnitudes must be nonnegative")


def build_h4(params):
    """4x4 two-body Hamiltonian in BasisOrder4, ``qcore.build_hn`` of the
    upper (U) and lower (L) double dots, bit 1 on node 1.

    The diagonal holds pairwise site energies plus the matching Coulomb
    coupling; t_l hops the lower system on index pairs (0,1), (2,3) and
    t_u the upper system on (0,2), (1,3); the anti-diagonal couplings
    (both electrons hopping at once) are zero.
    """
    cc, vs = params.couplings, params.vs
    upper = ((vs, params.t_u), (params.t_u, vs))
    lower = ((vs, params.t_l), (params.t_l, vs))
    return build_hn((upper, lower), {(0, 1): ((cc.ec22, cc.ec21), (cc.ec12, cc.ec11))})


@dataclass
class SwapEigensystem:
    """Closed-form labeled eigensystem of the symmetric two-body Hamiltonian."""

    energies: np.ndarray  # labeled order (E1, E2, E3, E4)
    vectors: np.ndarray  # rows in the same labeled order
    sorted_energies: np.ndarray  # ascending, with matching sorted_vectors rows
    sorted_vectors: np.ndarray


def swap_eigensystem_symmetric(ec1s, ec2s, ts, vs):
    """Closed-form eigensystem when both dot pairs share Vs and hopping ts
    and the couplings satisfy Ec11=Ec22=Ec1s, Ec12=Ec21=Ec2s.

    E1 = Ec1s+2Vs and E2 = Ec2s+2Vs belong to the parameter-independent
    entangled vectors (-1,0,0,1)/sqrt(2) and (0,-1,1,0)/sqrt(2); E3/E4
    close the spectrum with 16 ts^2 under the square root.
    """
    if ts <= 0:
        raise ValueError("ts must be positive in the symmetric closed form")
    e1 = ec1s + 2.0 * vs
    e2 = ec2s + 2.0 * vs
    root = np.hypot(ec1s - ec2s, 4.0 * ts)
    e3 = 0.5 * ((ec1s + ec2s) - root + 4.0 * vs)
    e4 = 0.5 * ((ec1s + ec2s) + root + 4.0 * vs)

    v1 = np.array([-1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    v2 = np.array([0.0, -1.0, 1.0, 0.0]) / np.sqrt(2.0)
    # v3 ~ (1, -x3, -x3, 1) and v4 ~ (1, x4, x4, 1) with x3 x4 = 1; r = min(x3, x4)
    # divides by the sum without cancellation, and no entry is squared
    r = 4.0 * ts / (abs(ec1s - ec2s) + root)
    norm = np.sqrt(2.0) * np.hypot(1.0, r)
    flat, steep = np.array([1.0, r, r, 1.0]) / norm, np.array([r, 1.0, 1.0, r]) / norm
    v3, v4 = (steep, flat) if ec1s >= ec2s else (flat, steep)
    v3 = v3 * np.array([1.0, -1.0, -1.0, 1.0])

    energies = np.array([e1, e2, e3, e4])
    vectors = np.array([v1, v2, v3, v4], dtype=complex)
    order = np.argsort(energies, kind="stable")
    return SwapEigensystem(
        energies=energies,
        vectors=vectors,
        sorted_energies=energies[order],
        sorted_vectors=vectors[order],
    )


def is_factorizable(state):
    """Factorizability of a two-body state via tau = |c_a c_d - c_b c_c|.

    Returns (flag, 2 tau); 2 tau plays the role of a concurrence-style
    entanglement measure (1 for the maximally entangled vectors).
    """
    amps = as_amplitudes(state)
    tau = abs(amps[0] * amps[3] - amps[1] * amps[2])
    return tau <= 1e-10, 2.0 * tau


def evolve4(h, state, t0, t):
    """Evolve a 4-component state under a constant matrix ``h`` from ``t0``
    to ``t`` with the exact matrix exponential."""
    out = matexp_unitary(h, t - t0) @ as_amplitudes(state)
    return StateVector(out)


def swap_occupancies(state):
    """Node occupancies (p1, p2, p1', p2') of U and L, shape (..., 4) for a
    stack (..., 4) of BasisOrder4 amplitudes: ``qcore.body_populations``
    with each body's levels in node order, level 1 (node 1) first."""
    levels = body_populations(state, 2)
    return levels[..., ::-1].reshape(levels.shape[:-2] + (4,))


def cnot_meanfield_h2(geom, occupancies, vs2, t2):
    """Mean-field Hamiltonian of the target double dot (system 2) shifted
    by the occupancy-weighted Coulomb field of the four control nodes.

    ``occupancies`` is (p1, p2, p1', p2') for nodes 1, 2, 1', 2' of the
    control, or a stack (..., 4) of them, which gives (..., 2, 2).  The
    control sits in the perpendicular layout of ``_nodes`` whatever
    ``geom.kind`` says, and the target nodes lie on its U axis, d3 and
    d3 + a + b beyond U2.
    """
    occ = np.asarray(occupancies, dtype=float)
    if occ.size and occ.min() < -1e-12:
        raise OccupancyNotNormalizedError("occupancies must be nonnegative")
    p = np.moveaxis(occ, -1, 0)
    k = geom.coulomb_k
    if k != 0.0:
        # each control pair must hold one electron (sum 1) or be absent (sum 0)
        for total in (p[0] + p[1], p[2] + p[3]):
            bad = (abs(total - 1.0) > 1e-9) & (abs(total) > 1e-9)
            if bad.any():
                raise OccupancyNotNormalizedError(
                    f"occupancies must sum to 1 (or 0 if absent), got {total[bad].flat[0]}"
                )
    diag1, diag2 = (
        vs2 + sum(pn * _coulomb(k, node, (0.0, -depth)) for pn, node in zip(p, _nodes(geom, PERPENDICULAR)))
        for depth in (geom.d3, geom.d3 + geom.a + geom.b)
    )
    return stack2x2(diag1, t2, t2, diag2)


@dataclass
class CnotRun:
    """Paired time series of the coupled control/target evolution."""

    t: np.ndarray
    control: np.ndarray  # (n, 4) two-body amplitudes
    target: np.ndarray  # (n, 2) target amplitudes
    occupancies: np.ndarray  # (n, 4) control node occupancies


def cnot_coupled_run(swap_params, control0, vs2, t2, target0, geom, t0, t, dt):
    """One-way coupled run: the control pair evolves under its own constant
    Hamiltonian; at each step its node occupancies parameterize the
    target's mean-field Hamiltonian, which is applied for one step.

    The control is propagated exactly at every step time in one call; the
    target steps are closed-form SU(2) exponentials of the frozen mean-field
    Hamiltonians, chained by ``evolve_steps``.  Both norms are conserved to
    rounding.
    """
    steps = np.arange(int(round((t - t0) / dt)) + 1)
    control = propagate(build_h4(swap_params), as_amplitudes(control0), dt, steps)
    occ = swap_occupancies(control)
    target = evolve_steps(
        lambda lo, hi: su2_step_operators(cnot_meanfield_h2(geom, occ[lo:hi], vs2, t2), dt),
        len(steps) - 1,
        as_amplitudes(target0),
    )
    return CnotRun(t=t0 + dt * steps, control=control, target=target, occupancies=occ)
