import warnings

import numpy as np
import pytest

import posqubit.qcore as qcore
import posqubit.two_qubit as tq
from posqubit.errors import OccupancyNotNormalizedError
from posqubit.qcore import StateVector, build_hn, eig_hermitian, evolve_rk4, propagate

rng = np.random.default_rng(303)


def test_geometry_validation():
    with pytest.raises(ValueError):
        tq.DotGeometry(kind="spiral")
    with pytest.raises(ValueError):
        tq.DotGeometry(d=-1.0)
    with pytest.raises(ValueError):
        tq.DotGeometry(coulomb_k=-0.5)


def test_parallel_couplings():
    g = tq.DotGeometry(kind=tq.PARALLEL, a=1.0, b=2.0, d1=3.0, coulomb_k=2.0)
    cc = tq.coulomb_couplings(g)
    assert abs(cc.ec11 - 2.0 / 3.0) < 1e-15
    assert cc.ec11 == cc.ec22
    far = 2.0 / np.hypot(3.0, 3.0)
    assert abs(cc.ec12 - far) < 1e-15 and cc.ec12 == cc.ec21


def test_collinear_couplings():
    g = tq.DotGeometry(kind=tq.COLLINEAR, a=0.5, b=0.5, d=2.0, coulomb_k=1.0)
    cc = tq.coulomb_couplings(g)
    assert abs(cc.ec21 - 1.0 / 2.0) < 1e-15
    assert abs(cc.ec11 - 1.0 / 3.0) < 1e-15
    assert abs(cc.ec22 - 1.0 / 3.0) < 1e-15
    assert abs(cc.ec12 - 1.0 / 4.0) < 1e-15
    # ordering by separation: nearest pair strongest
    assert cc.ec21 > cc.ec11 > cc.ec12


def test_perpendicular_couplings_decrease_with_distance():
    g1 = tq.DotGeometry(kind=tq.PERPENDICULAR, a=1.0, b=1.0, d1=1.0, d2=1.0)
    g2 = tq.DotGeometry(kind=tq.PERPENDICULAR, a=1.0, b=1.0, d1=1.0, d2=10.0)
    c1, c2 = tq.coulomb_couplings(g1), tq.coulomb_couplings(g2)
    for name in ("ec11", "ec22", "ec12", "ec21"):
        assert getattr(c2, name) < getattr(c1, name)


def test_build_h4_structure():
    cc = tq.CoulombCouplings(ec11=1.0, ec22=2.0, ec12=3.0, ec21=4.0)
    p = tq.SwapParams(vs=0.5, t_u=0.2, t_l=0.3, couplings=cc)
    h = tq.build_h4(p)
    assert np.allclose(np.diag(h).real, [3.0, 5.0, 4.0, 2.0])
    assert h[0, 1] == 0.3 and h[2, 3] == 0.3
    assert h[0, 2] == 0.2 and h[1, 3] == 0.2
    assert h[0, 3] == 0.0 and h[1, 2] == 0.0
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_build_h4_asymmetric_site_energies():
    p = tq.SwapParams(vs=0.0, t_u=0.1, t_l=0.1)
    h = tq.build_h4(p, asymmetric_site_energies=(1.0, 2.0, 3.0, 4.0))
    # index 0 = |0,1>_U |0,1>_L occupies nodes 2 and 2'
    assert h[0, 0].real == 2.0 + 4.0
    assert h[3, 3].real == 1.0 + 3.0


def _former_build_h4(params, asymmetric_site_energies=None):
    """build_h4 as written before it called qcore.build_hn, one entry at a time."""
    cc = params.couplings
    if asymmetric_site_energies is None:
        ep1 = ep2 = ep1p = ep2p = params.vs
    else:
        ep1, ep2, ep1p, ep2p = asymmetric_site_energies
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = ep2 + ep2p + cc.ec22
    h[1, 1] = ep2 + ep1p + cc.ec21
    h[2, 2] = ep1 + ep2p + cc.ec12
    h[3, 3] = ep1 + ep1p + cc.ec11
    h[0, 1] = h[1, 0] = h[2, 3] = h[3, 2] = params.t_l
    h[0, 2] = h[2, 0] = h[1, 3] = h[3, 1] = params.t_u
    return h


def test_build_h4_matches_its_former_body_bit_for_bit():
    gen = np.random.default_rng(1515)
    zeros = (0.0, -0.0)

    def value(low, high):
        # one value in five a signed zero, so all-zero sums of either sign occur
        return zeros[gen.integers(2)] if gen.random() < 0.2 else float(gen.uniform(low, high))

    kinds = (tq.PARALLEL, tq.COLLINEAR, tq.PERPENDICULAR)
    cases = [(tq.SwapParams(vs=-0.0, t_u=-0.0, t_l=-0.0, couplings=tq.CoulombCouplings(-0.0, -0.0, -0.0, -0.0)), None)]
    for i in range(3000):
        lengths = dict(zip(("a", "b", "d", "d1", "d2", "d3"), gen.uniform(0.1, 5.0, size=6).tolist()))
        g = tq.DotGeometry(kind=kinds[i % 3], coulomb_k=value(0.0, 3.0), **lengths)
        p = tq.SwapParams(vs=value(-3.0, 3.0), t_u=value(0.0, 1.0), t_l=value(0.0, 1.0), couplings=tq.coulomb_couplings(g))
        asym = tuple(value(-3.0, 3.0) for _ in range(4)) if i % 2 else None
        cases.append((p, asym))
    for p, asym in cases:
        new, old = tq.build_h4(p, asym), _former_build_h4(p, asym)
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()
    assert np.signbit(tq.build_h4(cases[0][0]).diagonal().real).all()


def test_symmetric_eigensystem_vs_numeric():
    for _ in range(200):
        ec1s, ec2s = rng.uniform(0, 5, size=2)
        ts = rng.uniform(0.01, 2.0)
        vs = rng.uniform(-2, 2)
        eig = tq.swap_eigensystem_symmetric(ec1s, ec2s, ts, vs)
        cc = tq.CoulombCouplings(ec11=ec1s, ec22=ec1s, ec12=ec2s, ec21=ec2s)
        h = tq.build_h4(tq.SwapParams(vs=vs, t_u=ts, t_l=ts, couplings=cc))
        numeric, _ = eig_hermitian(h)
        assert np.max(np.abs(eig.sorted_energies - numeric)) < 1e-10
        for vec, e in zip(eig.vectors, eig.energies):
            assert np.max(np.abs(h @ vec - e * vec)) < 1e-9
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def _former_closed_form_vectors(ec1s, ec2s, ts):
    """v3 and v4 as the closed form wrote them before, with both ratios divided out."""
    root = np.hypot(ec1s - ec2s, 4.0 * ts)
    x3 = 4.0 * ts / ((ec2s - ec1s) + root)
    x4 = 4.0 * ts / ((ec1s - ec2s) + root)
    v3 = np.array([1.0, -x3, -x3, 1.0])
    v4 = np.array([1.0, x4, x4, 1.0])
    return v3 / np.linalg.norm(v3), v4 / np.linalg.norm(v4)


def test_symmetric_closed_form_vectors_match_their_former_formula():
    for _ in range(500):
        ec1s, ec2s = rng.uniform(-5, 5, size=2)
        ts = rng.uniform(0.01, 2.0)
        former = _former_closed_form_vectors(ec1s, ec2s, ts)
        eig = tq.swap_eigensystem_symmetric(ec1s, ec2s, ts, rng.uniform(-2, 2))
        assert np.max(np.abs(eig.vectors[2:] - np.array(former))) < 1e-12
    # over six decades the former formula cancels and loses digits; the
    # vectors stay eigenvectors to rounding of the largest entry of H
    for _ in range(500):
        ec1s, ec2s = rng.uniform(-5, 5, size=2) * 10.0 ** rng.integers(-3, 4, size=2)
        ts = rng.uniform(0.01, 2.0) * 10.0 ** rng.integers(-3, 3)
        eig = tq.swap_eigensystem_symmetric(ec1s, ec2s, ts, 0.0)
        cc = tq.CoulombCouplings(ec11=ec1s, ec22=ec1s, ec12=ec2s, ec21=ec2s)
        h = tq.build_h4(tq.SwapParams(vs=0.0, t_u=ts, t_l=ts, couplings=cc))
        for vec, e in zip(eig.vectors, eig.energies):
            assert np.max(np.abs(h @ vec - e * vec)) <= 1e-14 * max(abs(ec1s), abs(ec2s), ts)


@pytest.mark.parametrize("ec1s, ec2s, ts", [(1e307, 0.2, 0.3), (0.2, 1e307, 0.3), (-1e307, 1e307, 1e-300), (1.0, 1.0, 1e-300)])
def test_symmetric_closed_form_stays_finite_for_large_couplings(ec1s, ec2s, ts):
    # the former formula divided by (ec2s - ec1s) + root, which rounds to 0 here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig = tq.swap_eigensystem_symmetric(ec1s, ec2s, ts, 1e307 if abs(ec1s) < 1e307 else 0.0)
    vectors = eig.vectors
    assert np.all(np.isfinite(vectors))
    assert np.max(np.abs(vectors @ vectors.conj().T - np.eye(4))) < 1e-15
    # the lower of E3, E4 keeps the antisymmetric inner pair, whatever the sign of ec1s - ec2s
    assert vectors[2, 1] <= 0.0 <= vectors[3, 1]


def test_entangled_vectors_parameter_free():
    eig = tq.swap_eigensystem_symmetric(1.3, 0.4, 0.7, -0.2)
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(eig.vectors[0], [-r, 0, 0, r])
    assert np.allclose(eig.vectors[1], [0, -r, r, 0])
    for k in (0, 1):
        fact, two_tau = tq.is_factorizable(eig.vectors[k])
        assert not fact
        assert abs(two_tau - 1.0) < 1e-12


def test_is_factorizable_product_state():
    a = np.array([0.6, 0.8])
    b = np.array([1.0, 1.0]) / np.sqrt(2)
    fact, two_tau = tq.is_factorizable(np.kron(a, b))
    assert fact and two_tau < 1e-12


def test_evolve4_constant_matches_rk4():
    cc = tq.CoulombCouplings(ec11=1.0, ec22=1.0, ec12=0.3, ec21=0.3)
    p = tq.SwapParams(vs=0.2, t_u=0.5, t_l=0.5, couplings=cc)
    h = tq.build_h4(p)
    psi0 = StateVector(np.array([0.0, 1.0, 0.0, 0.0], dtype=complex))
    exact = tq.evolve4(h, psi0, 0.0, 3.0)
    stepped = evolve_rk4(lambda t: h, psi0.amps, 0.0, 3.0, 1e-3)
    assert np.max(np.abs(exact.amps - stepped)) < 1e-9
    assert abs(np.linalg.norm(exact.amps) - 1.0) < 1e-12


def test_swap_exchange_dynamics():
    # resonant symmetric structure exchanges |0,1>|1,0> and |1,0>|0,1>
    cc = tq.CoulombCouplings(ec11=1.0, ec22=1.0, ec12=1.0, ec21=1.0)
    p = tq.SwapParams(vs=0.0, t_u=0.4, t_l=0.4, couplings=cc)
    h = tq.build_h4(p)
    psi0 = StateVector(np.array([0.0, 1.0, 0.0, 0.0], dtype=complex))
    eig = tq.swap_eigensystem_symmetric(1.0, 1.0, 0.4, 0.0)
    # full transfer |0,1>|1,0> -> |1,0>|0,1> at t = pi / (2 ts), one
    # period of the E4-E3 splitting
    gap = eig.energies[3] - eig.energies[2]
    t_swap = 2.0 * np.pi / gap
    psi = tq.evolve4(h, psi0, 0.0, t_swap)
    probs = np.abs(psi.amps) ** 2
    assert probs[2] > 0.999
    assert probs[1] < 1e-3


def test_swap_occupancies_sum_rules():
    for _ in range(50):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        p1, p2, p1p, p2p = tq.swap_occupancies(amps)
        assert abs(p1 + p2 - 1.0) < 1e-12
        assert abs(p1p + p2p - 1.0) < 1e-12


def test_cnot_meanfield_h2_values():
    g = tq.DotGeometry(kind=tq.COLLINEAR, a=0.5, b=0.5, d1=1.0, d2=1.0, d3=2.0, coulomb_k=1.0)
    h = tq.cnot_meanfield_h2(g, (0.0, 1.0, 0.0, 0.0), vs2=0.3, t2=0.1)
    # p2 = 1 contributes k/d3 to node 1 and k/(d3+span) to node 2
    assert abs(h[0, 0].real - (0.3 + 1.0 / 2.0)) < 1e-12
    assert abs(h[1, 1].real - (0.3 + 1.0 / 3.0)) < 1e-12
    assert h[0, 1] == 0.1
    # control in the other node biases the target the other way
    h2 = tq.cnot_meanfield_h2(g, (1.0, 0.0, 0.0, 0.0), vs2=0.3, t2=0.1)
    assert h2[0, 0].real < h[0, 0].real


def test_cnot_meanfield_occupancy_guard():
    g = tq.DotGeometry(kind=tq.COLLINEAR, coulomb_k=1.0)
    with pytest.raises(OccupancyNotNormalizedError):
        tq.cnot_meanfield_h2(g, (0.4, 0.3, 0.0, 0.0), 0.0, 0.1)
    with pytest.raises(OccupancyNotNormalizedError):
        tq.cnot_meanfield_h2(g, (-0.1, 1.1, 0.5, 0.5), 0.0, 0.1)
    # absent primed pair (sum 0) is allowed
    tq.cnot_meanfield_h2(g, (0.4, 0.6, 0.0, 0.0), 0.0, 0.1)


def test_cnot_coupled_run_norms_conserved():
    g = tq.DotGeometry(
        kind=tq.COLLINEAR, a=0.5, b=0.5, d=2.0, d1=1.0, d2=1.0, d3=2.0, coulomb_k=0.5
    )
    cc = tq.coulomb_couplings(g)
    p = tq.SwapParams(vs=0.1, t_u=0.3, t_l=0.3, couplings=cc)
    run = tq.cnot_coupled_run(
        p,
        np.array([0.0, 1.0, 0.0, 0.0], dtype=complex),
        0.2,
        0.15,
        np.array([1.0, 0.0], dtype=complex),
        g,
        0.0,
        2.0,
        1e-2,
    )
    assert run.t.shape[0] == run.control.shape[0] == run.target.shape[0]
    assert abs(np.linalg.norm(run.control[-1]) - 1.0) < 1e-12
    assert abs(np.linalg.norm(run.target[-1]) - 1.0) < 1e-12
    # occupancies stay normalized along the way
    assert np.max(np.abs(run.occupancies[:, 0] + run.occupancies[:, 1] - 1.0)) < 1e-12


def test_cnot_control_state_conditions_target():
    # the target phase accumulates differently for the two control states
    g = tq.DotGeometry(
        kind=tq.COLLINEAR, a=0.5, b=0.5, d=2.0, d1=1.0, d2=1.0, d3=2.0, coulomb_k=1.0
    )
    cc = tq.coulomb_couplings(g)
    p = tq.SwapParams(vs=0.0, t_u=1e-6, t_l=1e-6, couplings=cc)
    target0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    runs = []
    for control0 in (np.array([0, 1, 0, 0]), np.array([0, 0, 1, 0])):
        runs.append(
            tq.cnot_coupled_run(
                p, control0.astype(complex), 0.0, 0.0, target0, g, 0.0, 10.0, 1e-2
            )
        )
    phase_diff = np.angle(runs[0].target[-1][0] / runs[0].target[-1][1]) - np.angle(
        runs[1].target[-1][0] / runs[1].target[-1][1]
    )
    assert abs(phase_diff) > 0.05


def test_oracle_check_symmetric_close():
    # the closed-form symmetric eigensystem against numeric diagonalization
    ec1s, ec2s, ts, vs = 1.2, 0.7, 0.5, 0.3
    params = tq.SwapParams(
        vs=vs,
        t_u=ts,
        t_l=ts,
        couplings=tq.CoulombCouplings(ec11=ec1s, ec22=ec1s, ec12=ec2s, ec21=ec2s),
    )
    numeric, _ = eig_hermitian(tq.build_h4(params))
    closed = tq.swap_eigensystem_symmetric(ec1s, ec2s, ts, vs).sorted_energies
    assert np.max(np.abs(numeric - closed)) < 1e-10


def test_cnot_meanfield_h2_accepts_a_stack():
    g = tq.DotGeometry(kind=tq.COLLINEAR, a=0.5, b=0.7, d1=1.0, d2=0.8, d3=2.0, coulomb_k=0.9)
    amps = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    occ = tq.swap_occupancies(amps)
    assert occ.shape == (6, 4)
    hs = tq.cnot_meanfield_h2(g, occ, 0.2, 0.15)
    assert hs.shape == (6, 2, 2)
    for row, h in zip(occ, hs):
        assert np.array_equal(h, tq.cnot_meanfield_h2(g, tuple(row), 0.2, 0.15))
    # one bad row in the stack is enough for either guard
    for bad in ((0.4, 0.3, 0.5, 0.5), (-0.1, 1.1, 0.5, 0.5)):
        with pytest.raises(OccupancyNotNormalizedError):
            tq.cnot_meanfield_h2(g, np.vstack([occ, bad]), 0.2, 0.15)


def _cnot_run_and_loop_oracle(t_end):
    """A cnot run and the per-step loop it replaced: u4 = exp(-i h4 dt) applied
    once per step to the control, a 2x2 matexp_unitary per step to the target."""
    from posqubit.qcore import matexp_unitary

    g = tq.DotGeometry(kind=tq.COLLINEAR, a=0.9, b=1.1, d=2.0, d1=1.0, d2=0.9, d3=2.2, coulomb_k=0.8)
    p = tq.SwapParams(vs=0.05, t_u=0.3, t_l=0.25, couplings=tq.coulomb_couplings(g))
    control0 = np.array([0.5, 0.5 + 0.2j, 0.3, 0.6j]) / np.linalg.norm([0.5, 0.5 + 0.2j, 0.3, 0.6j])
    target0 = np.array([0.8, 0.6j])
    dt, vs2, t2 = 0.01, 0.1, 0.4
    run = tq.cnot_coupled_run(p, control0, vs2, t2, target0, g, 0.0, t_end, dt)
    u4 = matexp_unitary(tq.build_h4(p), dt)
    control, target, rows = control0, target0, []
    for _ in run.t:
        occ = tq.swap_occupancies(control)
        rows.append((control, target, occ))
        target = matexp_unitary(tq.cnot_meanfield_h2(g, occ, vs2, t2), dt) @ target
        control = u4 @ control
    loop = [np.array(col) for col in zip(*rows)]
    return run, loop, (p, g, vs2, t2, dt)


def test_cnot_control_matches_expm():
    from scipy.linalg import expm

    run, _, (p, *_) = _cnot_run_and_loop_oracle(20.0)
    h4 = tq.build_h4(p)
    exact = np.array([expm(-1j * h4 * t) @ run.control[0] for t in run.t])
    assert np.max(np.abs(run.control - exact)) < 1e-12


def test_cnot_target_matches_per_step_loop(monkeypatch):
    from scipy.linalg import expm

    run, (control, target, occ), (p, g, vs2, t2, dt) = _cnot_run_and_loop_oracle(20.0)
    # the 1e-11 bound is the old loop's own error: over 2000 steps its powers
    # of u4 drift from the exact control (6.6e-13 here) and the target, driven
    # by those occupancies, ends 5.9e-12 from a per-step expm of the exact
    # mean field, which the new path follows to 1e-14
    exact_occ = tq.swap_occupancies([expm(-1j * tq.build_h4(p) * t) @ control[0] for t in run.t])
    q, oracle = target[0], [target[0]]
    for row in exact_occ[:-1]:
        q = expm(-1j * dt * tq.cnot_meanfield_h2(g, row, vs2, t2)) @ q
        oracle.append(q)
    assert np.max(np.abs(run.target - np.array(oracle))) < 1e-12
    assert np.max(np.abs(target - np.array(oracle))) < 1e-11
    assert np.max(np.abs(run.target - target)) < 1e-11
    assert np.max(np.abs(run.occupancies - occ)) < 1e-11
    # the same run with its target steps built and chained in chunks of 7
    monkeypatch.setattr(qcore, "STEP_CHUNK", 7)
    chunked = tq.cnot_coupled_run(p, control[0], vs2, t2, target[0], g, 0.0, 20.0, dt)
    assert np.max(np.abs(chunked.target - np.array(oracle))) < 1e-12


def _three_body_h(p, g, vs2, t2):
    """8x8 Hamiltonian of the control's double dots U and L and the target T,
    bodies (U, L, T), every pair coupled exactly.

    The control-target tables are read off ``cnot_meanfield_h2`` with one
    control node occupied at a time.  A control body's bit is 1 on its node
    1, as in build_h4, but the target's bit is its amplitude index, 0 on its
    node 1: its node order is reversed against the control's.
    """
    def onto_target(node):  # node indexes (p1, p2, p1', p2')
        return tq.cnot_meanfield_h2(g, np.eye(4)[node], 0.0, 0.0).diagonal().real.tolist()

    cc = p.couplings
    return build_hn(
        (((p.vs, p.t_u), (p.t_u, p.vs)), ((p.vs, p.t_l), (p.t_l, p.vs)), ((vs2, t2), (t2, vs2))),
        {
            (0, 1): ((cc.ec22, cc.ec21), (cc.ec12, cc.ec11)),
            (0, 2): (onto_target(1), onto_target(0)),
            (1, 2): (onto_target(3), onto_target(2)),
        },
    )


def test_cnot_meanfield_matches_the_exact_three_body_run_with_the_control_frozen():
    # with its hoppings at 0 the control stays in its node state, the
    # composite stays a product, and the one-way mean field is exact
    gen = np.random.default_rng(1516)
    dt, n_steps = 0.01, 2000
    for _ in range(20):
        lengths = dict(zip(("a", "b", "d", "d1", "d2", "d3"), gen.uniform(0.3, 3.0, size=6)))
        g = tq.DotGeometry(kind=tq.COLLINEAR, coulomb_k=gen.uniform(0.2, 2.0), **lengths)
        p = tq.SwapParams(vs=gen.uniform(-1.0, 1.0), t_u=0.0, t_l=0.0, couplings=tq.coulomb_couplings(g))
        vs2, t2 = gen.uniform(-1.0, 1.0), gen.uniform(0.05, 1.0)
        h8 = _three_body_h(p, g, vs2, t2)
        target0 = gen.normal(size=2) + 1j * gen.normal(size=2)
        target0 /= np.linalg.norm(target0)
        for node_state in range(4):
            control0 = np.eye(4, dtype=complex)[node_state]
            run = tq.cnot_coupled_run(p, control0, vs2, t2, target0, g, 0.0, n_steps * dt, dt)
            exact = propagate(h8, np.kron(control0, target0), run.t).reshape(-1, 4, 2)
            # the target's density matrix: populations and coherence
            rho_exact = np.einsum("nci,ncj->nij", exact, exact.conj())
            rho_mf = run.target[:, :, None] * run.target[:, None, :].conj()
            assert np.max(np.abs(rho_exact - rho_mf)) < 1e-12
            assert np.max(np.abs(np.abs(run.control) ** 2 - np.eye(4)[node_state])) < 1e-12
