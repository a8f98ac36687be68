"""Single position-based charge qubit in the tight-binding picture.

A qubit is one electron on a double quantum dot described by the 2x2
Hamiltonian

    H = [[Ep1(t),             |ts| e^{+i alpha}],
         [|ts| e^{-i alpha},  Ep2(t)          ]]

in the position basis (|x1>, |x2>).  The module provides the closed-form
eigenstructure, adiabatic and driven evolution, the Rabi-style evolution
matrix assembled from energy integrals, the effective position-basis
Hamiltonian produced by a resonant E12 channel, the inversion that
recovers E12 from the effective hopping terms, the microwave-driven
renormalized Hamiltonian and the u1/u2 propagator formalism.  Every
propagator here is a closed form: the Rabi matrix through
``qcore.su2_step_operators`` and u1/u2 as exact phases; nothing steps.
"""

from dataclasses import dataclass

import numpy as np

from . import signals
from .errors import (
    DegenerateSpectrumError,
    NonHermitianDriveError,
    SingularExtractionError,
)
from .qcore import ENERGY, HBAR, StateVector, eig_hermitian, stack2x2, su2_step_operators


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


def evolve_adiabatic(params, state, t0, t):
    """Diagonal-phase evolution of an energy-basis state.

    Each amplitude acquires exp(-(i/hbar) * integral of E_k); populations
    are exactly preserved.
    """
    state.require_basis(ENERGY)
    if state.dim != 2:
        raise ValueError("evolve_adiabatic acts on two-component states")

    def energy(which):
        def sig(tp):
            co = eigencoeffs(params, tp)
            return co.e1 if which == 1 else co.e2

        return sig

    ph1 = signals.integrate(energy(1), t0, t) / HBAR
    ph2 = signals.integrate(energy(2), t0, t) / HBAR
    amps = state.amps * np.array([np.exp(-1j * ph1), np.exp(-1j * ph2)])
    return StateVector(amps, ENERGY)


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


@dataclass
class EffectiveHamiltonianTerms:
    """Position-basis effective terms generated by a resonant E12 channel."""

    ep1_eff: float
    ep2_eff: float
    ts12_eff: complex
    ts21_eff: complex


def effective_hamiltonian(coeffs0, e1, e2, e12, t, t0=0.0):
    """Effective position-basis Hamiltonian terms at time t.

    ``coeffs0`` are the eigencoefficients frozen at t0; E1, E2 and the
    complex channel E12 are signals evaluated at t.  The E12 channel is
    modulated by the gap phase e^{i (E2-E1)(t-t0)/hbar}.
    """
    e1v = signals.as_signal(e1)(t)
    e2v = signals.as_signal(e2)(t)
    e12v = signals.as_signal(e12)(t)
    a, b, c, d = coeffs0.a, coeffs0.b, coeffs0.c, coeffs0.d
    mod = e12v * np.exp(1j * (e2v - e1v) * (t - t0) / HBAR)

    ep1_eff = abs(a) ** 2 * e1v + abs(c) ** 2 * e2v + 2.0 * np.real(a * np.conj(c) * mod)
    ep2_eff = abs(b) ** 2 * e1v + abs(d) ** 2 * e2v + 2.0 * np.real(b * np.conj(d) * mod)
    ts21_eff = a * np.conj(b) * e1v + c * np.conj(d) * e2v + mod * a * np.conj(d)
    ts12_eff = np.conj(ts21_eff)
    return EffectiveHamiltonianTerms(ep1_eff, ep2_eff, ts12_eff, ts21_eff)


def extract_e12(ts12, ts21, coeffs, e1, e2):
    """Invert the effective hopping terms for the resonant channel E12.

    Valid at zero gap phase (t = t0).  The inversion divides by the
    ground-state coefficient a and by d, and is rejected when
    Re(a)*Im(a) or d is numerically zero.
    """
    a, b, c, d = coeffs.a, coeffs.b, coeffs.c, coeffs.d
    if abs(np.real(a) * np.imag(a)) < 1e-12 or abs(d) < 1e-12:
        raise SingularExtractionError(
            "extraction requires Re(a)*Im(a) != 0 and d != 0"
        )
    re_part = (np.real(ts21 + ts12) / 2.0 - np.real(a) * b * e1 - np.real(c) * d * e2) / d
    im_part = (
        np.real((ts21 - ts12) / 2j) - np.imag(a) * b * e1 - np.imag(c) * d * e2
    ) / d
    return (re_part + 1j * im_part) / a


def microwave_h2(ep, ts_mag, f1, f2, t):
    """Renormalized 2x2 Hamiltonian of two symmetric dots under a
    microwave drive: diagonal Ep +/- (f1+f2)/2, off-diagonal |ts| - (f1-f2)/2."""
    f1v = signals.as_signal(f1)(t)
    f2v = signals.as_signal(f2)(t)
    if abs(np.imag(complex(f1v))) > 1e-12 or abs(np.imag(complex(f2v))) > 1e-12:
        raise NonHermitianDriveError("drive signals must be real-valued")
    f1v, f2v = np.real(f1v), np.real(f2v)
    plus = 0.5 * (f1v + f2v)
    minus = 0.5 * (f1v - f2v)
    off = ts_mag - minus
    return np.array([[ep + plus, off], [off, ep - plus]], dtype=complex)


@dataclass
class MicrowaveEigens:
    """Exact eigenvalues of the driven Hamiltonian next to the quoted
    closed form Ep +/- sqrt(|ts|^2 - |ts|(f1-f2)), which drops a
    (f1-f2)^2/4 term."""

    exact: np.ndarray
    approx: np.ndarray
    discrepancy: float


def microwave_eigenvalues(ep, ts_mag, f1v, f2v):
    h = microwave_h2(ep, ts_mag, f1v, f2v, 0.0)
    exact, _ = eig_hermitian(h)
    root = np.sqrt(complex(ts_mag * ts_mag - ts_mag * (f1v - f2v)))
    approx = np.array([ep - root, ep + root])
    disc = float(np.max(np.abs(exact - approx)))
    return MicrowaveEigens(exact, approx, disc)


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


def greens_response(ep, ts_mag, f1, t0, t, *, u1_0=1.0, u2_0=1.0):
    """Propagator response G(1,2,t) = u1(t) * conj(u2(t)), from the exact
    phases of ``u1u2_evolve``.

    Defaults start from the excited eigenmode (c_e=1, c_g=0), i.e.
    u1(t0) = u2(t0) = 1, for which G is the pure phase
    e^{-2i|ts|(t-t0)/hbar}.
    """
    u1, u2 = u1u2_evolve(ep, ts_mag, f1, u1_0, u2_0, t0, t)
    return u1 * np.conj(u2)

