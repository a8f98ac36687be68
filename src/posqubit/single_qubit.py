"""Single position-based charge qubit in the tight-binding picture.

A qubit is one electron on a double quantum dot described by the 2x2
Hamiltonian

    H = [[Ep1(t),             |ts| e^{+i alpha}],
         [|ts| e^{-i alpha},  Ep2(t)          ]]

in the position basis (|x1>, |x2>).  The module provides the closed-form
eigenstructure, the Hadamard closed form of driven symmetric wells, the
Rabi-style evolution matrix assembled from energy integrals and the
u1/u2 propagator formalism.  Every propagator here is a closed form: the
Rabi matrix through ``qcore.su2_step_operators`` and u1/u2 as exact
phases; nothing steps.
"""

from dataclasses import dataclass

import numpy as np

from . import signals
from .errors import DegenerateSpectrumError
from .qcore import HBAR, stack2x2, su2_step_operators


@dataclass
class QubitParams:
    """Time-dependent qubit parameters; numbers are promoted to constants."""

    ep1: object = 0.0
    ep2: object = 0.0
    ts_mag: object = 1.0
    alpha: object = 0.0

    def __post_init__(self):
        self.ep1 = signals.as_signal(self.ep1)
        self.ep2 = signals.as_signal(self.ep2)
        self.ts_mag = signals.as_signal(self.ts_mag)
        self.alpha = signals.as_signal(self.alpha)


def build_h2(params, t):
    """Position-basis 2x2 Hamiltonian at time t, or (..., 2, 2) for an array
    of times.  Hermitian by construction."""
    off = params.ts_mag(t) * np.exp(1j * params.alpha(t))
    return stack2x2(params.ep1(t), off, np.conj(off), params.ep2(t))


@dataclass
class EigenCoeffs:
    """Closed-form eigensystem of the 2x2 qubit Hamiltonian.

    Ground state |E1> = a|x1> + b|x2>, excited |E2> = c|x1> + d|x2>,
    with b and d real and each row normalized.
    """

    e1: float
    e2: float
    a: complex
    b: float
    c: complex
    d: float

    def basis_matrix(self):
        """Rows are the eigenstates expressed in the position basis; (..., 2, 2)
        when the fields are arrays."""
        return stack2x2(self.a, self.b, self.c, self.d)

    def ground(self):
        return np.array([self.a, self.b], dtype=complex)

    def excited(self):
        return np.array([self.c, self.d], dtype=complex)


def eigencoeffs(params, t):
    """Closed-form eigenvalues and eigenvector coefficients at time t.

    E_{1,2} = (Ep1+Ep2)/2 -/+ sqrt(((Ep2-Ep1)/2)^2 + |ts|^2).  An array of
    times gives fields of that shape.  Raises DegenerateSpectrumError when
    the gap is numerically zero at any of the times.
    """
    ep1, ep2, ts, al = (sig(t) for sig in (params.ep1, params.ep2, params.ts_mag, params.alpha))
    mean = 0.5 * (ep1 + ep2)
    delta = 0.5 * (ep2 - ep1)
    s = np.hypot(delta, ts)
    e1 = mean - s
    e2 = mean + s
    degenerate = (e2 - e1) < 1e-14 * np.maximum(np.maximum(abs(e1), abs(e2)), 1.0)
    if degenerate.any():
        k = np.flatnonzero(degenerate)[0]
        raise DegenerateSpectrumError(
            f"spectrum degenerate at t={np.broadcast_to(t, degenerate.shape).flat[k]}: "
            f"E2-E1={np.ravel(e2 - e1)[k]:.3e}"
        )
    # stable forms of delta+s and s-delta avoiding cancellation: the larger
    # is s + |delta| > 0, the smaller ts^2 over it
    big = s + abs(delta)
    small = ts * ts / big
    p = np.where(delta >= 0.0, big, small)[()]  # [()]: a scalar, not a 0-d array, at one time
    q = np.where(delta > 0.0, small, big)[()]
    phase = np.exp(1j * al)
    # where ts == 0 one norm would be 0; adding 1 there avoids 0/0, and the
    # position-basis branch below replaces those fields
    zero = np.equal(ts, 0.0)
    n1 = np.hypot(p, ts) + zero
    n2 = np.hypot(q, ts) + zero
    a = p * phase / n1
    b = -ts / n1
    c = q * phase / n2
    d = ts / n2
    if zero.any():
        lower = np.where(ep1 <= ep2, 1.0, 0.0)
        a, d = np.where(zero, lower, a), np.where(zero, lower, d)
        b, c = np.where(zero, 1.0 - lower, b), np.where(zero, 1.0 - lower, c)
    fields = (e1, e2, a, b, c, d)
    if np.ndim(e1) == 0:  # one time: plain numbers, which json.dumps accepts
        fields = [x.item() for x in fields]
    return EigenCoeffs(*fields)


def analytic_c1c2(c1_0, c2_0, ep, ts_mag, v1, v2, t0, t):
    """Closed-form position amplitudes for symmetric wells under weak,
    node-diagonal drive potentials V1, V2."""
    tau = (t - t0) / HBAR
    ph_v1 = signals.integrate(v1, t0, t) / HBAR
    ph_v2 = signals.integrate(v2, t0, t) / HBAR
    common = np.exp(-1j * ep * tau)
    co = np.cos(ts_mag * tau)
    si = np.sin(ts_mag * tau)
    c1 = np.exp(-1j * ph_v1) * common * (co * c1_0 - 1j * si * c2_0)
    c2 = np.exp(-1j * ph_v2) * common * (-1j * si * c1_0 + co * c2_0)
    return c1, c2


def rabi_evolution_matrix(e1, e2, e12, t0, t):
    """Energy-basis evolution matrix with the time-ordering replaced by
    plain integrals of E1, E2 and the resonant channel E12.

    It is exp(-i M / hbar), M = [[I1, I12], [conj(I12), I2]] with I the
    integrals from t0, formed by ``su2_step_operators``.  Exact for
    constant signals; for E12 = 0 it reduces to the diagonal adiabatic
    operator exactly.  An array of increasing times gives one matrix per
    time, shape (n, 2, 2): the integrals are taken once per interval
    between consecutive times and summed, so the cost is linear in the
    number of times.  The interval edges are walked as Python floats.
    """
    edges = np.concatenate([[t0], np.ravel(t)]).tolist()
    parts = [[signals.integrate(f, a, b) for f in (e1, e2, e12)] for a, b in zip(edges[:-1], edges[1:])]
    i1, i2, i12 = np.cumsum(np.reshape(parts, (-1, 3)), axis=0).T
    u = su2_step_operators(stack2x2(i1.real, i12, np.conj(i12), i2.real), 1.0)
    return u if np.ndim(t) else u[0]


def u1u2_evolve(ep, ts_mag, f1, u1_0, u2_0, t0, t):
    """Propagator amplitudes u1, u2 at time t, in closed form.

    u1 follows the upper branch i hbar du1/dt = (Ep + f1(t) + |ts|) u1 and
    u2 the lower branch with |ts| -> -|ts| (the two first-order
    factorizations of the second-order propagator equation).  Each
    equation is scalar, so its solution is the exact phase
    u_k(t0) exp(-i[(Ep +/- |ts|)(t - t0) + integral of f1 from t0]/hbar),
    with the integral from one ``signals.integrate`` call.  For real f1
    both are pure phases, so |u1|^2 + |u2|^2 is conserved.
    """
    f1_int = signals.integrate(f1, t0, t)
    u1 = u1_0 * np.exp(-1j * ((ep + ts_mag) * (t - t0) + f1_int) / HBAR)
    u2 = u2_0 * np.exp(-1j * ((ep - ts_mag) * (t - t0) + f1_int) / HBAR)
    return u1, u2
