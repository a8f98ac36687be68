import numpy as np
import pytest

import posqubit.decoherence as dec
import posqubit.measurement as ms
import posqubit.single_qubit as sq
from posqubit import signals
from posqubit.qcore import eig_hermitian, evolve_rk4, matexp_unitary

rng = np.random.default_rng(505)


def random_basis(gen=rng):
    pa = sq.QubitParams(
        ep1=gen.uniform(-3, 3),
        ep2=gen.uniform(-3, 3),
        ts_mag=gen.uniform(0.1, 3),
        alpha=gen.uniform(0, 2 * np.pi),
    )
    pb = sq.QubitParams(
        ep1=gen.uniform(-3, 3),
        ep2=gen.uniform(-3, 3),
        ts_mag=gen.uniform(0.1, 3),
        alpha=gen.uniform(0, 2 * np.pi),
    )
    return dec.QubitEnergyBasis(sq.eigencoeffs(pa, 0.0), sq.eigencoeffs(pb, 0.0))


def random_distances(gen=rng):
    return dec.NodeDistances(*gen.uniform(0.5, 4.0, size=4))


def symmetric_basis():
    p = sq.QubitParams(ep1=0.0, ep2=0.0, ts_mag=1.0, alpha=0.0)
    co = sq.eigencoeffs(p, 0.0)
    return dec.QubitEnergyBasis(co, co)


def test_node_distances_validation_and_lookup():
    d = dec.NodeDistances(1.0, 2.0, 3.0, 4.0)
    assert d.of("11") == 1.0 and d.of("21") == 4.0
    with pytest.raises(ValueError):
        dec.NodeDistances(1.0, -2.0, 3.0, 4.0)


def test_channel_split_partitions_the_term():
    for _ in range(50):
        basis = random_basis()
        split = dec.coulomb_node_term_energy_basis("12", basis, 1.7, 0.9)
        total = split.total()
        # channels live on disjoint entries and rebuild the full term
        assert np.max(np.abs(split.r1 - np.diag(np.diag(total)))) < 1e-14
        for a, b in ((split.r1, split.r2), (split.r2, split.r3), (split.r3, split.r4)):
            assert np.max(np.abs(a * b)) == 0.0
        assert np.max(np.abs(total - total.conj().T)) < 1e-13


def test_node_term_position_round_trip():
    # rotating the energy-basis term back to the position basis recovers
    # the bare projector k/d |x_i x_j'><x_i x_j'|
    for _ in range(50):
        basis = random_basis()
        k, d = 1.3, 2.1
        for pair, idx in (("11", 0), ("12", 1), ("21", 2), ("22", 3)):
            term = dec.coulomb_node_term_energy_basis(pair, basis, d, k).total()
            pos = dec.energy_to_position(term, basis)
            expected = np.zeros((4, 4))
            expected[idx, idx] = k / d
            assert np.max(np.abs(pos - expected)) < 1e-10


def test_decoherence_matrix_hermitian_and_trace():
    basis = random_basis()
    dist = random_distances()
    m = dec.decoherence_matrix(basis, dist, 1.0)
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    # the trace equals the sum of the projector strengths (unitary rotation)
    expected = sum(1.0 / dist.of(p) for p in dec.NODE_PAIRS)
    assert abs(np.trace(m).real - expected) < 1e-12


def test_decoherence_matrix_is_the_sum_of_the_channel_splits():
    local = np.random.default_rng(77)  # leaves the module's generator to the other tests
    for _ in range(200):
        basis, dist = random_basis(local), random_distances(local)
        assert np.iscomplexobj(basis.coeffs_a.a) and basis.coeffs_a.a.imag != 0.0
        m = dec.decoherence_matrix(basis, dist, 0.9)
        oracle = sum(dec.coulomb_node_term_energy_basis(p, basis, dist.of(p), 0.9).total() for p in dec.NODE_PAIRS)
        assert m.shape == (4, 4) and m.dtype == complex
        assert np.max(np.abs(m - oracle)) <= 1e-15
        assert np.array_equal(m, m.conj().T)


def test_renormalized_energies_shift():
    basis = random_basis()
    dist = random_distances()
    co_a, co_b = basis.coeffs_a, basis.coeffs_b
    m = dec.decoherence_matrix(basis, dist, 2.0)
    out = dec.renormalized_energies(co_a.e1, co_a.e2, co_b.e1, co_b.e2, m)
    pairwise = np.array(
        [co_a.e1 + co_b.e1, co_a.e1 + co_b.e2, co_a.e2 + co_b.e1, co_a.e2 + co_b.e2]
    )
    shifts = out - pairwise
    assert np.max(np.abs(shifts - np.real(np.diag(m)))) < 1e-12


def test_build_h0_resonant_structure():
    h = dec.build_h0_resonant(-1.0, 1.0, -0.5, 0.5, 0.2 + 0.1j, 0.3 - 0.2j, 0.0)
    assert np.allclose(np.diag(h), [-1.5, -0.5, 0.5, 1.5])
    assert h[0, 1] == 0.3 - 0.2j and h[2, 3] == 0.3 - 0.2j
    assert h[0, 2] == 0.2 + 0.1j and h[1, 3] == 0.2 + 0.1j
    assert h[0, 3] == 0.0 and h[1, 2] == 0.0
    assert np.max(np.abs(h - h.conj().T)) < 1e-15


def _former_build_h0_resonant(e1a, e2a, e1b, e2b, e12a, e12b, t):
    """build_h0_resonant as written before it called qcore.build_hn."""
    e1a_v = signals.as_signal(e1a)(t)
    e2a_v = signals.as_signal(e2a)(t)
    e1b_v = signals.as_signal(e1b)(t)
    e2b_v = signals.as_signal(e2b)(t)
    e12a_v = signals.as_signal(e12a)(t)
    e12b_v = signals.as_signal(e12b)(t)
    h = np.diag(
        np.array(
            [e1a_v + e1b_v, e1a_v + e2b_v, e2a_v + e1b_v, e2a_v + e2b_v], dtype=complex
        )
    )
    h[0, 1] = h[2, 3] = e12b_v
    h[1, 0] = h[3, 2] = np.conj(e12b_v)
    h[0, 2] = h[1, 3] = e12a_v
    h[2, 0] = h[3, 1] = np.conj(e12a_v)
    return h


def test_build_h0_resonant_matches_its_former_body_bit_for_bit():
    gen = np.random.default_rng(1517)
    zeros = (0.0, -0.0)

    def energy():
        return zeros[gen.integers(2)] if gen.random() < 0.2 else float(gen.uniform(-3.0, 3.0))

    def coupling():
        # real, complex, or complex with signed-zero parts
        kind = gen.integers(3)
        if kind == 0:
            return energy()
        return complex(energy(), energy()) if kind == 1 else complex(zeros[gen.integers(2)], zeros[gen.integers(2)])

    for i in range(3000):
        args = [energy() for _ in range(4)] + [coupling(), coupling()]
        if i % 5 == 0:
            args[i % 6] = signals.sinusoid(*gen.uniform(0.1, 2.0, size=3))
        t = float(gen.uniform(0.0, 5.0))
        new, old = dec.build_h0_resonant(*args, t), _former_build_h0_resonant(*args, t)
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()


def test_symmetric_case_matches_generic_machinery():
    dist = random_distances()
    k = 1.7
    sc = dec.symmetric_case(dist, k)
    m = dec.decoherence_matrix(symmetric_basis(), dist, k)
    # common diagonal shift
    assert np.max(np.abs(np.diag(m).real - sc.eab_r1)) < 1e-12
    c = {p: k / dist.of(p) for p in dec.NODE_PAIRS}
    assert abs(sc.eab_r1 - 0.25 * sum(c.values())) < 1e-14
    # the single-transition entries carry hq1, the double-transition ones hq4
    for i, j in ((0, 1), (2, 3)):
        assert abs(m[i, j].real - sc.hq1) < 1e-12
    for i, j in ((0, 3), (1, 2)):
        assert abs(m[i, j].real - sc.hq4) < 1e-12
    # closed-form scalars against their defining combinations
    assert abs(sc.hq1 - 0.25 * (-c["12"] + c["21"] + c["11"] - c["22"])) < 1e-14
    assert abs(sc.hq2 - 0.25 * (c["12"] + c["21"] + c["11"] - c["22"])) < 1e-14
    assert abs(sc.hq3 - 0.25 * (-c["12"] - c["21"] + c["11"] - c["22"])) < 1e-14
    assert abs(sc.hq4 - 0.25 * (-c["12"] - c["21"] + c["11"] + c["22"])) < 1e-14


def test_evolve_density_unitary_invariants():
    basis = random_basis()
    dist = random_distances()
    hdec = dec.decoherence_matrix(basis, dist, 0.8)
    h0 = dec.build_h0_resonant(-1.0, 1.0, -0.7, 0.7, 0.0, 0.0, 0.0)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    rho0 = ms.pure_density(amps / np.linalg.norm(amps))
    rho = dec.evolve_density_with_decoherence(rho0, h0, hdec, 0.0, 2.0)
    ms.validate_density(rho, dim=4)
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10
    # matches direct conjugation by the exact propagator
    u = matexp_unitary(h0 + hdec, 2.0)
    assert np.max(np.abs(rho - u @ rho0 @ u.conj().T)) < 1e-12


def test_evolve_density_callable_matches_constant():
    # RK4 on rho.reshape(16) under H x I - I x H^T, the von Neumann generator
    basis = random_basis()
    dist = random_distances()
    hdec = dec.decoherence_matrix(basis, dist, 0.5)
    h0 = dec.build_h0_resonant(-1.0, 1.0, -0.7, 0.7, 0.0, 0.0, 0.0)
    rho0 = ms.pure_density(np.array([1.0, 0.0, 0.0, 0.0]))
    h = h0 + hdec
    liouvillian = np.kron(h, np.eye(4)) - np.kron(np.eye(4), h.T)

    def stepped(t0, ts):
        y, out = rho0.reshape(16), []
        for start, stop in zip([t0, *ts[:-1]], ts):
            y = evolve_rk4(lambda tp: liouvillian, y, start, stop, 1e-3)
            out.append(y.reshape(4, 4))
        return np.array(out)

    exact = dec.evolve_density_with_decoherence(rho0, h0, hdec, 0.0, 1.5)
    assert np.max(np.abs(exact - stepped(0.0, [1.5])[0])) < 1e-9
    # an array of sample times, stepped from each sample to the next
    ts = np.linspace(0.2, 1.5, 6)
    exact = dec.evolve_density_with_decoherence(rho0, h0, hdec, 0.2, ts)
    assert exact.shape == (6, 4, 4)
    assert np.max(np.abs(exact - stepped(0.2, ts))) < 1e-9


def test_paper_factorized_short_time_agreement():
    basis = random_basis()
    dist = random_distances()
    hdec = dec.decoherence_matrix(basis, dist, 0.3)
    h0 = dec.build_h0_resonant(-1.0, 1.0, -0.7, 0.7, 0.0, 0.0, 0.0)
    rho0 = ms.pure_density(np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2))
    devs = []
    for span in (0.1, 0.05):
        exact = dec.evolve_density_with_decoherence(rho0, h0, hdec, 0.0, span)
        approx = dec.evolve_density_with_decoherence(
            rho0, h0, hdec, 0.0, span, paper_factorized=True
        )
        devs.append(np.max(np.abs(exact - approx)))
    # the split is first order in the span: halving it cuts the error ~4x
    assert devs[1] < devs[0] / 2.5
    ms.validate_density(
        dec.evolve_density_with_decoherence(rho0, h0, hdec, 0.0, 0.1, paper_factorized=True),
        dim=4,
    )


def test_angle_decomposition_values():
    basis = symmetric_basis()
    dist = dec.NodeDistances(1.0, 2.0, 3.0, 4.0)
    hdec = dec.decoherence_matrix(basis, dist, 1.0)
    h0 = dec.build_h0_resonant(-1.0, 1.0, -1.0, 1.0, 0.0, 0.0, 0.0)
    span = 0.7
    ang = dec.angle_decomposition(h0, hdec, 0.0, span)
    assert np.max(np.abs(ang.alpha + np.real(np.diag(h0) + np.diag(hdec)) * span)) < 1e-14
    for (i, j), th in ang.theta.items():
        assert abs(th - hdec[i, j] * span) < 1e-14


def test_angle_reconstruction_first_order():
    basis = random_basis()
    dist = random_distances()
    hdec = dec.decoherence_matrix(basis, dist, 0.4)
    h0 = dec.build_h0_resonant(-1.0, 1.0, -0.6, 0.6, 0.0, 0.0, 0.0)
    rho0 = ms.pure_density(np.array([1.0, 1.0, 1.0, 1.0]) / 2.0)
    devs = []
    for span in (0.1, 0.05):
        exact = dec.evolve_density_with_decoherence(rho0, h0, hdec, 0.0, span)
        approx = dec.angle_decomposition(h0, hdec, 0.0, span).reconstruct(rho0)
        devs.append(np.max(np.abs(exact - approx)))
    assert devs[1] < devs[0] / 2.5


def _per_sample_density(rho0, h0, hdec, span, paper_factorized):
    """One sample of the per-sample propagator formula, as the oracle."""
    if paper_factorized:
        diag = np.real(np.diag(h0) + np.diag(hdec))
        off = hdec - np.diag(np.diag(hdec))
        u = matexp_unitary(off, span) @ np.diag(np.exp(-1j * diag * span))
    else:
        u = matexp_unitary(h0 + hdec, span)
    return u @ rho0 @ u.conj().T


@pytest.mark.parametrize("paper_factorized", [False, True])
def test_evolve_density_sample_array_matches_per_sample(paper_factorized):
    hdec = dec.decoherence_matrix(random_basis(), random_distances(), 0.6)
    h0 = dec.build_h0_resonant(-1.0, 1.0, -0.7, 0.7, 0.0, 0.0, 0.0)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    rho0 = ms.pure_density(amps / np.linalg.norm(amps))
    t0 = 0.3
    ts = t0 + np.linspace(0.0, 5.0, 41)
    batched = dec.evolve_density_with_decoherence(
        rho0, h0, hdec, t0, ts, paper_factorized=paper_factorized
    )
    assert batched.shape == (41, 4, 4)
    for t, rho in zip(ts, batched):
        oracle = _per_sample_density(rho0, h0, hdec, t - t0, paper_factorized)
        assert np.max(np.abs(rho - oracle)) <= 1e-12
    single = dec.evolve_density_with_decoherence(
        rho0, h0, hdec, t0, ts[9], paper_factorized=paper_factorized
    )
    assert single.shape == (4, 4)
    assert np.max(np.abs(single - batched[9])) <= 1e-12
