import json
import warnings

import numpy as np
import pytest

import posqubit.single_qubit as sq
from posqubit import signals
from posqubit.errors import DegenerateSpectrumError
from posqubit.qcore import HBAR, eig_hermitian, evolve_rk4, propagate

rng = np.random.default_rng(202)


def random_params():
    return sq.QubitParams(
        ep1=rng.uniform(-5, 5),
        ep2=rng.uniform(-5, 5),
        ts_mag=rng.uniform(0.05, 5),
        alpha=rng.uniform(0, 2 * np.pi),
    )


def test_build_h2_structure():
    p = sq.QubitParams(ep1=1.0, ep2=-2.0, ts_mag=0.5, alpha=0.3)
    h = sq.build_h2(p, 0.0)
    assert h[0, 0] == 1.0 and h[1, 1] == -2.0
    assert abs(h[0, 1] - 0.5 * np.exp(0.3j)) < 1e-15
    assert abs(h[1, 0] - np.conj(h[0, 1])) < 1e-15


def test_eigencoeffs_against_numeric_oracle():
    for _ in range(200):
        p = random_params()
        co = sq.eigencoeffs(p, 0.0)
        h = sq.build_h2(p, 0.0)
        evals, _ = eig_hermitian(h)
        assert abs(co.e1 - evals[0]) < 1e-12
        assert abs(co.e2 - evals[1]) < 1e-12
        for vec, e in ((co.ground(), co.e1), (co.excited(), co.e2)):
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
            assert np.max(np.abs(h @ vec - e * vec)) < 1e-10
        # the two eigenvectors are orthogonal
        assert abs(np.vdot(co.ground(), co.excited())) < 1e-12


def test_eigencoeffs_symmetric_wells():
    p = sq.QubitParams(ep1=0.0, ep2=0.0, ts_mag=1.0, alpha=0.0)
    co = sq.eigencoeffs(p, 0.0)
    assert abs(co.e1 + 1.0) < 1e-15 and abs(co.e2 - 1.0) < 1e-15
    r = 1.0 / np.sqrt(2.0)
    assert abs(co.a - r) < 1e-15 and abs(co.b + r) < 1e-15
    assert abs(co.c - r) < 1e-15 and abs(co.d - r) < 1e-15


def test_eigencoeffs_stability_large_detuning():
    # cancellation-prone regime: huge detuning, tiny hopping
    p = sq.QubitParams(ep1=0.0, ep2=1e8, ts_mag=1e-4, alpha=0.0)
    co = sq.eigencoeffs(p, 0.0)
    h = sq.build_h2(p, 0.0)
    for vec, e in ((co.ground(), co.e1), (co.excited(), co.e2)):
        assert np.max(np.abs(h @ vec - e * vec)) < 1e-6
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_eigencoeffs_zero_hopping_branch():
    co = sq.eigencoeffs(sq.QubitParams(ep1=-1.0, ep2=2.0, ts_mag=0.0), 0.0)
    assert (co.a, co.b, co.c, co.d) == (1.0, 0.0, 0.0, 1.0)
    co = sq.eigencoeffs(sq.QubitParams(ep1=2.0, ep2=-1.0, ts_mag=0.0), 0.0)
    assert (co.a, co.b, co.c, co.d) == (0.0, 1.0, 1.0, 0.0)


def test_eigencoeffs_degenerate_raises():
    with pytest.raises(DegenerateSpectrumError):
        sq.eigencoeffs(sq.QubitParams(ep1=1.0, ep2=1.0, ts_mag=0.0), 0.0)


def _adiabatic_matrix(params, t0, t):
    """Diagonal adiabatic evolution of energy-basis amplitudes: each picks up
    exp(-(i/hbar) * integral of E_k), E_k from ``eigencoeffs``, here formed
    as ``rabi_evolution_matrix`` with no resonant channel."""

    def energy(which):
        return lambda tp: getattr(sq.eigencoeffs(params, tp), which)

    return sq.rabi_evolution_matrix(energy("e1"), energy("e2"), 0.0, t0, t)


def test_evolve_adiabatic_preserves_populations():
    p = sq.QubitParams(ep1=signals.sinusoid(0.5, 2.0), ep2=1.0, ts_mag=0.7)
    s0 = np.array([0.6, 0.8])
    s1 = _adiabatic_matrix(p, 0.0, 3.0) @ s0
    assert np.allclose(np.abs(s1), np.abs(s0), atol=1e-12)


def test_evolve_adiabatic_constant_phases():
    p = sq.QubitParams(ep1=0.0, ep2=0.0, ts_mag=1.0)
    s0 = np.array([1.0, 1.0]) / np.sqrt(2)
    s1 = _adiabatic_matrix(p, 0.0, 2.0) @ s0
    expected = s0 * np.array([np.exp(2j), np.exp(-2j)])
    assert np.max(np.abs(s1 - expected)) < 1e-12


def test_analytic_c1c2_no_drive_matches_rk4():
    ep, ts = 0.3, 0.8
    p = sq.QubitParams(ep1=ep, ep2=ep, ts_mag=ts)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    psi = evolve_rk4(lambda t: sq.build_h2(p, t), psi0, 0.0, 4.0, 1e-3)
    c1, c2 = sq.analytic_c1c2(1.0, 0.0, ep, ts, 0.0, 0.0, 0.0, 4.0)
    assert abs(psi[0] - c1) < 1e-9 and abs(psi[1] - c2) < 1e-9


def test_analytic_c1c2_weak_drive():
    # the closed form is first order in the drive; deviation scales with
    # the amplitude (about 0.1x at omega=10), so a weak drive is used here
    amp, omega = 1e-3, 10.0
    v1 = signals.sinusoid(amp, omega)
    p = sq.QubitParams(
        ep1=lambda t: 0.0 + v1(t), ep2=0.0, ts_mag=0.5
    )
    psi = evolve_rk4(
        lambda t: sq.build_h2(p, t), np.array([1.0, 0.0], dtype=complex), 0.0, 5.0, 1e-3
    )
    c1, c2 = sq.analytic_c1c2(1.0, 0.0, 0.0, 0.5, v1, 0.0, 0.0, 5.0)
    assert max(abs(psi[0] - c1), abs(psi[1] - c2)) < 2e-4


def test_rabi_matrix_exact_for_constants():
    from posqubit.qcore import matexp_unitary

    for _ in range(50):
        e1, e2 = rng.uniform(-3, 3, size=2)
        e12 = rng.normal() + 1j * rng.normal()
        t = rng.uniform(0.1, 2.0)
        u = sq.rabi_evolution_matrix(e1, e2, e12, 0.0, t)
        h = np.array([[e1, e12], [np.conj(e12), e2]])
        assert np.max(np.abs(u - matexp_unitary(h, t))) < 1e-12
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


def test_rabi_matrix_diagonal_limit():
    u = sq.rabi_evolution_matrix(1.0, -1.0, 0.0, 0.0, 2.0)
    expected = np.diag([np.exp(-2j), np.exp(2j)])
    assert np.max(np.abs(u - expected)) < 1e-12
    # near-zero theta: equal energies and |E12| = 1e-14, where sin(theta)/theta is 0/0-prone
    from posqubit.qcore import matexp_unitary

    e12 = 1e-14 * (0.6 + 0.8j)
    u = sq.rabi_evolution_matrix(0.7, 0.7, e12, 0.0, 2.0)
    assert np.max(np.abs(u - matexp_unitary(np.array([[0.7, e12], [np.conj(e12), 0.7]]), 2.0))) < 1e-12
    # the off-diagonal to relative precision: -i E12 t e^{-i E t} at first order
    assert abs(u[0, 1] / (-2j * e12 * np.exp(-1.4j)) - 1.0) < 1e-12
    # a sinusoidal E1 with E12 = 0: diagonal, populations kept, and each
    # phase e^{-i integral of E_k / hbar} with the integral by scipy quad
    from scipy.integrate import quad

    e1, e2 = signals.sinusoid(0.5, 2.0, 0.3, 1.0), -0.8
    psi0 = np.array([0.6, 0.8j])
    for t0, t in ((0.0, 3.0), (0.5, 4.3), (-1.0, 2.05)):
        u = sq.rabi_evolution_matrix(e1, e2, 0.0, t0, t)
        assert u[0, 1] == 0.0 and u[1, 0] == 0.0
        assert np.max(np.abs(np.abs(u @ psi0) ** 2 - np.abs(psi0) ** 2)) < 1e-12
        i1 = quad(lambda x: 1.0 + 0.5 * np.sin(2.0 * x + 0.3), t0, t, epsabs=1e-13, epsrel=1e-13)[0]
        expected = np.exp(-1j * np.array([i1, e2 * (t - t0)]) / HBAR)
        assert np.max(np.abs(np.diag(u) - expected)) < 1e-12


def test_rabi_matrix_complex_table_channel():
    # a complex tabulated E12 keeps its imaginary part at every scalar
    # time the integral samples: the matrix is exp(-i M) with M = 0.5 sigma_y
    u = sq.rabi_evolution_matrix(0.0, 0.0, signals.table([0.0, 1.0], [0.0, 1j]), 0.0, 1.0)
    c, s = np.cos(0.5), np.sin(0.5)
    assert np.max(np.abs(u - np.array([[c, s], [-s, c]]))) < 1e-15


def test_rabi_full_population_transfer_on_resonance():
    # pure off-diagonal channel flips the populations at theta = pi/2
    t = np.pi / 2.0
    u = sq.rabi_evolution_matrix(0.0, 0.0, 1.0, 0.0, t)
    psi = u @ np.array([1.0, 0.0])
    assert abs(abs(psi[1]) ** 2 - 1.0) < 1e-12


def test_u1u2_pure_phases_and_conservation():
    u1, u2 = sq.u1u2_evolve(0.7, 0.4, 0.0, 1.0, 1.0, 0.0, 3.0)
    assert abs(u1 - np.exp(-1j * (0.7 + 0.4) * 3.0)) < 1e-10
    assert abs(u2 - np.exp(-1j * (0.7 - 0.4) * 3.0)) < 1e-10
    f1 = signals.sinusoid(0.5, 3.0)
    u1, u2 = sq.u1u2_evolve(0.7, 0.4, f1, 1.0, 1.0, 0.0, 20.0)
    assert abs(abs(u1) ** 2 + abs(u2) ** 2 - 2.0) < 1e-9


def _phase_oracle(ep, ts_mag, f1, t0, t, points=None):
    """exp(-i[(Ep +/- |ts|)(t - t0) + integral of f1]/hbar) with the
    integral of the plain function ``f1`` by scipy quad, real and
    imaginary parts apart."""
    from scipy.integrate import quad

    parts = [
        quad(lambda x, part=part: part(f1(x)), t0, t, points=points, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        for part in (np.real, np.imag)
    ]
    integral = parts[0] + 1j * parts[1]
    return tuple(np.exp(-1j * ((ep + sign * ts_mag) * (t - t0) + integral) / HBAR) for sign in (1.0, -1.0))


def test_u1u2_and_greens_match_quad_phase_oracle():
    nodes = np.linspace(0.0, 6.0, 13)
    local = np.random.default_rng(9)  # leaves the module's generator to the other tests
    values = local.uniform(-0.5, 0.5, 13) + 1j * local.uniform(-0.3, 0.3, 13)
    # each signal next to the same function written without posqubit.signals
    cases = [
        (signals.sinusoid(0.7, 3.0, 0.4, 0.1), lambda x: 0.1 + 0.7 * np.sin(3.0 * x + 0.4), None),
        (signals.table(nodes, values), lambda x: np.interp(x, nodes, values), nodes),
    ]
    u1_0, u2_0 = 0.8, 0.3 - 0.2j
    for f1, plain, kinks in cases:
        for t0, t in ((0.0, 6.0), (0.5, 4.3)):
            points = None if kinks is None else kinks[(kinks > t0) & (kinks < t)]
            o1, o2 = _phase_oracle(0.6, 0.9, plain, t0, t, points)
            u1, u2 = sq.u1u2_evolve(0.6, 0.9, f1, u1_0, u2_0, t0, t)
            assert max(abs(u1 - u1_0 * o1), abs(u2 - u2_0 * o2)) < 1e-12
            g = u1 * np.conj(u2)
            assert abs(g - u1_0 * o1 * np.conj(u2_0 * o2)) < 1e-12
    # a stale positional step size is rejected, not read as an initial amplitude
    with pytest.raises(TypeError):
        sq.u1u2_evolve(0.6, 0.9, 0.0, 1.0, 1.0, 0.0, 1.0, 1e-3)


def test_greens_response_pure_phase():
    """G = u1 conj(u2) from the excited eigenmode, u1(t0) = u2(t0) = 1, is
    the pure phase e^{-2i|ts|(t-t0)/hbar}."""
    u1, u2 = sq.u1u2_evolve(1.3, 0.6, 0.0, 1.0, 1.0, 0.0, 2.5)
    g = u1 * np.conj(u2)
    assert abs(g - np.exp(-2j * 0.6 * 2.5)) < 1e-10
    # a real drive cancels out of G entirely
    u1, u2 = sq.u1u2_evolve(1.3, 0.6, signals.sinusoid(1.0, 2.0), 1.0, 1.0, 0.0, 2.5)
    g_driven = u1 * np.conj(u2)
    assert abs(g_driven - g) < 1e-9
    # to rounding: the integral of f1 cancels out of G and is exact in u1
    amp, omega, phase, offset = 0.7, 3.0, 0.4, 0.1
    f1 = signals.sinusoid(amp, omega, phase, offset)
    for t0, t in ((0.0, 6.0), (0.5, 4.3), (2.0, 2.05)):
        u1, u2 = sq.u1u2_evolve(1.3, 0.6, f1, 1.0, 1.0, t0, t)
        g = u1 * np.conj(u2)
        assert abs(g - np.exp(-2j * 0.6 * (t - t0) / HBAR)) <= 1e-12
        integral = offset * (t - t0) - amp / omega * (np.cos(omega * t + phase) - np.cos(omega * t0 + phase))
        assert abs(u1 - np.exp(-1j * ((1.3 + 0.6) * (t - t0) + integral) / HBAR)) <= 1e-12


def _greens_operator_residual(ep, ts_mag, f1, t0, t, fd_step=1e-3):
    """Finite-difference check of the propagator's governing relation.

    Applies O = i hbar d/dt - Ep - f1(t) to G = u1 conj(u2), both from
    u1(t0) = u2(t0) = 1, by the fourth-order central
    difference (-g(t+2h) + 8g(t+h) - 8g(t-h) + g(t-2h)) / 12h and compares
    against the closed-form action (2|ts| - Ep - f1(t)) G that follows from
    the two branch solutions; returns the absolute residual, near rounding
    (about 1e-12) at the default h = 1e-3.
    """
    f1 = signals.as_signal(f1)
    g_m2, g_m1, g_0, g_p1, g_p2 = (
        u1 * np.conj(u2)
        for u1, u2 in (sq.u1u2_evolve(ep, ts_mag, f1, 1.0, 1.0, t0, t + k * fd_step) for k in (-2, -1, 0, 1, 2))
    )
    dg = (8.0 * (g_p1 - g_m1) - (g_p2 - g_m2)) / (12.0 * fd_step)
    applied = 1j * HBAR * dg - (ep + f1(t)) * g_0
    expected = (2.0 * ts_mag - ep - f1(t)) * g_0
    return abs(applied - expected)


def test_greens_operator_residual_small():
    res = _greens_operator_residual(0.5, 0.8, signals.sinusoid(0.3, 2.0), 0.0, 2.0)
    assert res < 1e-6


def test_greens_operator_residual_is_fourth_order_and_near_rounding():
    f1 = signals.sinusoid(0.3, 2.0)
    assert _greens_operator_residual(0.5, 0.8, f1, 0.0, 2.0) <= 1e-11
    coarse, fine = (_greens_operator_residual(0.5, 0.8, f1, 0.0, 2.0, fd_step=h) for h in (2e-3, 1e-3))
    # halving h cuts a fourth-order stencil's error 16-fold; a second-order one's 4-fold
    assert coarse / fine >= 10.0


def test_eigencoeffs_and_build_h2_accept_arrays():
    # an array of times gives, sample by sample, the scalar results, including
    # samples where ts == 0 takes the position-basis branch
    p = sq.QubitParams(
        ep1=signals.sinusoid(0.8, 1.3, 0.2),
        ep2=-0.1,
        ts_mag=signals.table([0.0, 1.0, 4.0], [0.5, 0.0, 1.0]),
        alpha=signals.sinusoid(0.3, 0.7),
    )
    ts = np.array([0.0, 0.5, 1.0, 2.5, 4.0])
    co, h = sq.eigencoeffs(p, ts), sq.build_h2(p, ts)
    assert h.shape == (5, 2, 2) and co.basis_matrix().shape == (5, 2, 2)
    for k, t in enumerate(ts):
        one = sq.eigencoeffs(p, t)
        assert all(getattr(co, f)[k] == getattr(one, f) for f in ("e1", "e2", "a", "b", "c", "d"))
        assert np.array_equal(co.basis_matrix()[k], one.basis_matrix())
        assert np.array_equal(h[k], sq.build_h2(p, t))
    assert (co.a[2], co.b[2]) == (0.0, 1.0)  # ts == 0 and Ep1 > Ep2 at t = 1
    # a scalar time gives plain numbers, which json.dumps accepts, also where
    # ts == 0 (t = 1); the ts == 0 samples raise no 0/0 warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (2.5, 1.0):
            one = sq.eigencoeffs(p, t)
            fields = [getattr(one, f) for f in ("e1", "e2", "a", "b", "c", "d")]
            assert [type(x) for x in fields] == [float, float, complex, float, complex, float]
            json.dumps([one.e1, one.e2])
        sq.eigencoeffs(p, ts)
    # one degenerate sample is enough to raise, and names its time
    flat = sq.QubitParams(ep1=0.0, ep2=0.0, ts_mag=signals.table([0.0, 2.0], [1.0, -1.0]))
    with pytest.raises(DegenerateSpectrumError, match="t=1.0"):
        sq.eigencoeffs(flat, np.array([0.0, 0.5, 1.0, 1.5]))


def test_rabi_evolution_matrix_accepts_array_times(monkeypatch):
    e12 = signals.sinusoid(0.2, 1.0, 0.3)
    times = 0.05 * np.arange(1, 81)
    calls = []
    integrate = signals.integrate
    monkeypatch.setattr(signals, "integrate", lambda *a: calls.append(a) or integrate(*a))
    us = sq.rabi_evolution_matrix(-0.5, 0.5, e12, 0.0, times)
    # three integrals per interval between samples: linear in the sample count
    assert len(calls) == 3 * len(times)
    monkeypatch.undo()
    assert us.shape == (80, 2, 2)
    for t, u in zip(times, us):
        one = sq.rabi_evolution_matrix(-0.5, 0.5, e12, 0.0, t)
        assert one.shape == (2, 2) and np.max(np.abs(u - one)) < 1e-12
    # constant signals, complex channel: the closed form is exact
    from posqubit.qcore import matexp_unitary

    us = sq.rabi_evolution_matrix(0.4, -1.1, 0.3 + 0.2j, 0.0, times)
    h = np.array([[0.4, 0.3 + 0.2j], [0.3 - 0.2j, -1.1]])
    assert max(np.max(np.abs(u - matexp_unitary(h, t))) for t, u in zip(times, us)) < 1e-12
    assert sq.rabi_evolution_matrix(0.4, -1.1, 0.3, 0.0, times[:0]).shape == (0, 2, 2)


def test_analytic_c1c2_is_the_hadamard_gate_at_a_quarter_period():
    """The paper's Hadamard closed form: undriven, a node state of symmetric
    wells reaches equal node populations at |ts| t = pi/4, and the closed
    form agrees with exact propagation under build_h2."""
    for ep, ts in ((0.0, 0.5), (0.2, 0.7), (-1.3, 2.0)):
        t = 0.25 * np.pi / ts
        for c0 in ((1.0, 0.0), (0.0, 1.0)):
            c1, c2 = sq.analytic_c1c2(*c0, ep, ts, 0.0, 0.0, 0.0, t)
            assert abs(abs(c1) ** 2 - 0.5) < 1e-15 and abs(abs(c2) ** 2 - 0.5) < 1e-15
            h = sq.build_h2(sq.QubitParams(ep1=ep, ep2=ep, ts_mag=ts), 0.0)
            exact = propagate(h, np.array(c0, dtype=complex), 1.0, [t])[0]
            assert np.max(np.abs(exact - [c1, c2])) < 1e-14
