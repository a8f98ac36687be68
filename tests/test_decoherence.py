import numpy as np
import pytest

import posqubit.decoherence as dec
import posqubit.measurement as ms
import posqubit.single_qubit as sq
from posqubit import signals
from posqubit.errors import NonHermitianError
from posqubit.qcore import evolve_rk4, matexp_unitary

rng = np.random.default_rng(505)


def random_params(gen=rng):
    return sq.QubitParams(
        ep1=gen.uniform(-3, 3),
        ep2=gen.uniform(-3, 3),
        ts_mag=gen.uniform(0.1, 3),
        alpha=gen.uniform(0, 2 * np.pi),
    )


def random_basis(gen=rng):
    pa, pb = random_params(gen), random_params(gen)
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


def _former_renormalized_energies(e1a, e2a, e1b, e2b, hdec):
    pairwise = np.array([e1a + e1b, e1a + e2b, e2a + e1b, e2a + e2b])
    shifts = np.real(np.diag(hdec))
    return pairwise + shifts


def test_renormalized_energies_matches_the_former_body_bit_for_bit():
    """Guards ``_former_renormalized_energies``: the |E1A E1B>, |E1A E2B>,
    |E2A E1B>, |E2A E2B> order and float semantics on special values.
    test_renormalized_energies_are_position_basis_expectations checks the physics."""
    local = np.random.default_rng(5051)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, 5e-324]
    for trial in range(2000):
        basis, dist = random_basis(local), random_distances(local)
        m = dec.decoherence_matrix(basis, dist, local.uniform(0.1, 3.0))
        co_a, co_b = basis.coeffs_a, basis.coeffs_b
        energies = [co_a.e1, co_a.e2, co_b.e1, co_b.e2]
        if trial % 4 == 1:
            energies = [float(e) for e in energies]
        elif trial % 4 == 2:
            energies = [local.choice(specials) if local.random() < 0.5 else e for e in energies]
        elif trial % 4 == 3:
            energies = [np.asarray(e) for e in energies]
        # inf + -inf and an overflow warn in numpy's add, not in Python's: values are compared
        with np.errstate(invalid="ignore", over="ignore"):
            got = dec.renormalized_energies(*energies, m)
            ref = _former_renormalized_energies(*energies, m)
        assert got.dtype == ref.dtype and got.shape == ref.shape == (4,)
        assert got.tobytes() == ref.tobytes()


def _position_hamiltonian(pa, pb, dist, k):
    """H_A x 1 + 1 x H_B + sum k/d |x_i x_j'><x_i x_j'| in the position
    composite basis x1x1', x1x2', x2x1', x2x2'; also the bare Coulomb part."""
    coulomb = np.diag(k / np.array([dist.d11, dist.d12, dist.d21, dist.d22]))
    eye = np.eye(2)
    return np.kron(sq.build_h2(pa, 0.0), eye) + np.kron(eye, sq.build_h2(pb, 0.0)) + coulomb, coulomb


def _energy_kets(basis):
    """Column 2 iA + iB is the product eigenstate |E_iA E_iB> in the position basis."""
    return np.kron(basis.coeffs_a.basis_matrix().T, basis.coeffs_b.basis_matrix().T)


def test_renormalized_energies_are_position_basis_expectations():
    """Entry 2 iA + iB is <E_iA E_iB| H |E_iA E_iB> of the position-basis H
    of both qubits and their four node-node Coulomb terms."""
    gen = np.random.default_rng(2303)
    for _ in range(50):
        pa, pb = random_params(gen), random_params(gen)
        basis = dec.QubitEnergyBasis(sq.eigencoeffs(pa, 0.0), sq.eigencoeffs(pb, 0.0))
        dist, k = random_distances(gen), gen.uniform(0.1, 2.0)
        h, _ = _position_hamiltonian(pa, pb, dist, k)
        kets = _energy_kets(basis)
        expected = np.real(np.einsum("ip,ij,jp->p", kets.conj(), h, kets))
        co_a, co_b = basis.coeffs_a, basis.coeffs_b
        got = dec.renormalized_energies(co_a.e1, co_a.e2, co_b.e1, co_b.e2, dec.decoherence_matrix(basis, dist, k))
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_decoherence_matrix_is_the_position_coulomb_operator_in_the_energy_basis():
    """Hdec[p, q] = <E_p| sum k/d |x_i x_j'><x_i x_j'| |E_q>, the node-node
    Coulomb operator, diagonal in the position basis, seen from the product
    eigenstates.  Same-node overlaps cancel each eigenstate's phase, so Hdec
    is real to rounding."""
    gen = np.random.default_rng(2304)
    for _ in range(200):
        pa, pb = random_params(gen), random_params(gen)
        basis = dec.QubitEnergyBasis(sq.eigencoeffs(pa, 0.0), sq.eigencoeffs(pb, 0.0))
        dist, k = random_distances(gen), gen.uniform(0.1, 2.0)
        _, coulomb = _position_hamiltonian(pa, pb, dist, k)
        kets = _energy_kets(basis)
        hdec = dec.decoherence_matrix(basis, dist, k)
        assert np.max(np.abs(hdec - kets.conj().T @ coulomb @ kets)) <= 1e-14


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
    """Guards ``_former_build_h0_resonant``: qubit A on the high bit, E12B on
    the B-transition entries and E12A on the A ones, signed zeros kept.
    test_build_h0_resonant_structure states the layout entry by entry."""
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
    """Theta holds the off-diagonal entries of H0 + Hdec, the resonant
    channels E12A and E12B of H0 included."""
    basis = symmetric_basis()
    dist = dec.NodeDistances(1.0, 2.0, 3.0, 4.0)
    hdec = dec.decoherence_matrix(basis, dist, 1.0)
    h0 = dec.build_h0_resonant(-1.0, 1.0, -1.0, 1.0, 0.3 + 0.2j, 0.1 - 0.25j, 0.0)
    span = 0.7
    ang = dec.angle_decomposition(h0, hdec, 0.0, span)
    assert np.max(np.abs(ang.alpha + np.real(np.diag(h0) + np.diag(hdec)) * span)) < 1e-14
    assert len(ang.theta) == 6
    for (i, j), th in ang.theta.items():
        assert abs(th - (h0[i, j] + hdec[i, j]) * span) < 1e-14


def test_angle_reconstruction_first_order():
    """The angle form is exact to first order in the span, with and without
    the resonant channels E12A and E12B in H0."""
    basis = random_basis()
    dist = random_distances()
    hdec = dec.decoherence_matrix(basis, dist, 0.4)
    rho0 = ms.pure_density(np.array([1.0, 1.0, 1.0, 1.0]) / 2.0)
    for e12a, e12b in ((0.0, 0.0), (0.3 + 0.2j, 0.1 - 0.25j)):
        h0 = dec.build_h0_resonant(-1.0, 1.0, -0.6, 0.6, e12a, e12b, 0.0)
        devs = []
        for span in (0.1, 0.05):
            exact = dec.evolve_density_with_decoherence(rho0, h0, hdec, 0.0, span)
            approx = dec.angle_decomposition(h0, hdec, 0.0, span).reconstruct(rho0)
            devs.append(np.max(np.abs(exact - approx)))
        assert devs[1] < devs[0] / 2.5


def _per_sample_density(rho0, h0, hdec, span, paper_factorized):
    """One sample of the per-sample propagator formula, as the oracle."""
    if paper_factorized:
        h = h0 + hdec
        off = h - np.diag(np.diag(h))
        u = matexp_unitary(off, span) @ np.diag(np.exp(-1j * np.real(np.diag(h)) * span))
    else:
        u = matexp_unitary(h0 + hdec, span)
    return u @ rho0 @ u.conj().T


@pytest.mark.parametrize("paper_factorized", [False, True])
def test_evolve_density_sample_array_matches_per_sample(paper_factorized):
    """Guards ``_per_sample_density``: the split's order U_off D and times
    counted from t0.  test_paper_factorized_is_the_angle_form_to_first_order_in_hdec
    pins the order by the paper's angle form."""
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


def _symmetric_h0_hdec():
    """Equal qubits and equal node distances: the middle pair of levels of
    H0 + Hdec is degenerate."""
    co = symmetric_basis().coeffs_a
    hdec = dec.decoherence_matrix(symmetric_basis(), dec.NodeDistances(1.0, 1.0, 1.0, 1.0), 0.5)
    h0 = dec.build_h0_resonant(co.e1, co.e2, co.e1, co.e2, 0.0, 0.0, 0.0)
    assert np.min(np.diff(np.linalg.eigvalsh(h0 + hdec))) < 1e-12
    return h0, hdec


@pytest.mark.parametrize("paper_factorized", [False, True])
def test_state_path_matches_density_path(paper_factorized):
    """The amplitudes' path and the density path share one split: psi psi^dag
    of the propagated state is the propagated density, sample by sample."""
    cases = [_symmetric_h0_hdec()]
    for _ in range(6):
        h0 = dec.build_h0_resonant(*rng.uniform(-2, 2, size=4), 0.0, 0.0, 0.0)
        cases.append((h0, dec.decoherence_matrix(random_basis(), random_distances(), rng.uniform(0.1, 1.5))))
    spans = np.linspace(0.0, 6.0, 61)
    for h0, hdec in cases:
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi0 = amps / np.linalg.norm(amps)
        rho0 = ms.pure_density(psi0)
        psi = dec._evolve(psi0, h0, hdec, 1.0, spans, paper_factorized)
        assert psi.shape == (61, 4)
        states = psi[:, :, None] * psi[:, None, :].conj()
        density = dec.evolve_density_with_decoherence(rho0, h0, hdec, 0.0, spans, paper_factorized=paper_factorized)
        assert np.max(np.abs(states - density)) <= 1e-12
        for span, rho in zip(spans, states):
            assert np.max(np.abs(rho - _per_sample_density(rho0, h0, hdec, span, paper_factorized))) <= 1e-12


def test_state_path_checks_both_hamiltonians():
    h0, hdec = _symmetric_h0_hdec()
    psi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    # an imaginary diagonal entry: the split reads only the real diagonal,
    # so no later check in the path would see it
    skewed = hdec.copy()
    skewed[0, 0] += 1e-6j
    infinite = h0.copy()
    infinite[3, 3] = np.inf
    for paper_factorized in (False, True):
        for bad in ((h0, skewed), (skewed, hdec), (infinite, hdec)):
            with pytest.raises(NonHermitianError):
                dec._evolve(psi0, *bad, 1.0, np.array([0.0, 1.0]), paper_factorized)


def _mixed_density(gen):
    """A full-rank density with eigenvalues 0.4, 0.3, 0.2, 0.1 in a random eigenbasis."""
    q, _ = np.linalg.qr(gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4)))
    return (q * [0.4, 0.3, 0.2, 0.1]) @ q.conj().T


def _complex_generator(gen):
    """H0 with complex resonant channels E12A and E12B, and a random complex
    Hermitian Hdec: H0 + Hdec is not real, so U(t)^T is not U(t).  The
    model's own Hdec is real (see the Coulomb-operator test)."""
    e12a, e12b = gen.normal(size=2) + 1j * gen.normal(size=2)
    h0 = dec.build_h0_resonant(*gen.uniform(-2, 2, size=4), e12a, e12b, 0.0)
    m = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    return h0, 0.25 * (m + m.conj().T)


@pytest.mark.parametrize("paper_factorized", [False, True])
def test_density_keeps_hermiticity_trace_and_spectrum(paper_factorized):
    """rho(t) = U rho0 U^dag with U unitary, in both splits (the split is a
    product of two unitaries): Hermitian, unit trace, and rho0's eigenvalues."""
    gen = np.random.default_rng(2311)
    spans = np.linspace(0.0, 12.0, 97)
    for _ in range(5):
        h0, hdec = _complex_generator(gen)
        rho0 = _mixed_density(gen)
        rho = dec.evolve_density_with_decoherence(rho0, h0, hdec, 0.0, spans, paper_factorized=paper_factorized)
        assert np.max(np.abs(rho - np.conj(np.swapaxes(rho, -1, -2)))) <= 1e-12
        assert np.max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)) <= 1e-12
        assert np.max(np.abs(np.linalg.eigvalsh(rho) - np.linalg.eigvalsh(rho0))) <= 1e-12


def test_a_density_that_commutes_with_the_hamiltonian_stays_fixed():
    """The thermal state e^{-H} / Tr e^{-H} of H = H0 + Hdec commutes with
    U(t), so the exact split leaves it fixed, degenerate H included."""
    gen = np.random.default_rng(2312)
    spans = np.linspace(-3.0, 12.0, 61)
    for h0, hdec in [_complex_generator(gen) for _ in range(5)] + [_symmetric_h0_hdec()]:
        energies, vectors = np.linalg.eigh(h0 + hdec)
        weights = np.exp(-energies) / np.sum(np.exp(-energies))
        rho0 = (vectors * weights) @ vectors.conj().T
        rho = dec.evolve_density_with_decoherence(rho0, h0, hdec, 0.3, 0.3 + spans)
        assert np.max(np.abs(rho - rho0)) <= 1e-12


@pytest.mark.parametrize("paper_factorized", [False, True])
def test_density_obeys_the_von_neumann_equation(paper_factorized):
    """i d rho/dt = [H, rho] by central differences, H = H0 + Hdec with
    complex resonant channels E12A and E12B: at every sample in the exact
    split, and at t0 in the paper's split, which is exact to first order
    only if its second factor keeps H0's off-diagonal entries."""
    gen = np.random.default_rng(2313)
    step = 1e-4
    centers = np.array([0.0]) if paper_factorized else np.linspace(0.0, 6.0, 7)
    ts = np.add.outer(centers, [-step, 0.0, step]).ravel()
    for _ in range(5):
        h0, hdec = _complex_generator(gen)
        h = h0 + hdec
        rho0 = _mixed_density(gen)
        rho = dec.evolve_density_with_decoherence(rho0, h0, hdec, 0.0, ts, paper_factorized=paper_factorized)
        before, now, after = np.moveaxis(rho.reshape(-1, 3, 4, 4), 1, 0)
        assert np.max(np.abs((after - before) / (2 * step) + 1j * (h @ now - now @ h))) <= 1e-6


def test_paper_factorized_is_the_angle_form_to_first_order_in_hdec():
    """The split is F D: the diagonal phase D first, then the off-diagonal
    factor, which ``AngleDecomposition.reconstruct`` writes as F = 1 - i Theta.
    Over a span where D's phases are of order one, the two differ only at
    second order in Hdec; D F would differ at first order."""
    gen = np.random.default_rng(2314)
    h0 = dec.build_h0_resonant(-1.0, 1.0, -0.6, 0.7, 0.0, 0.0, 0.0)
    hdec = dec.decoherence_matrix(random_basis(gen), random_distances(gen), 1.0)
    rho0 = _mixed_density(gen)
    devs = []
    for scale in (2e-3, 1e-3):
        split = dec.evolve_density_with_decoherence(rho0, h0, scale * hdec, 0.0, 2.5, paper_factorized=True)
        angles = dec.angle_decomposition(h0, scale * hdec, 0.0, 2.5).reconstruct(rho0)
        devs.append(np.max(np.abs(split - angles)))
    assert devs[1] < devs[0] / 3.5


# The bodies below are the channel split and the overlap rows as written
# before the channel of entry (i, j) was read as i ^ j; each is a test oracle.
_R2 = np.zeros((4, 4), dtype=bool)
_R2[0, 1] = _R2[1, 0] = _R2[2, 3] = _R2[3, 2] = True
_R3 = np.zeros((4, 4), dtype=bool)
_R3[0, 2] = _R3[2, 0] = _R3[1, 3] = _R3[3, 1] = True
_R4 = np.zeros((4, 4), dtype=bool)
_R4[0, 3] = _R4[3, 0] = _R4[1, 2] = _R4[2, 1] = True


def _overlap_vector(coeffs, node):
    if node == "1":
        return np.array([np.conj(coeffs.a), np.conj(coeffs.c)])
    return np.array([np.conj(coeffs.b), np.conj(coeffs.d)])


def _former_coulomb_node_term_energy_basis(node_pair, basis, distance, k):
    wa = _overlap_vector(basis.coeffs_a, node_pair[0])
    wb = _overlap_vector(basis.coeffs_b, node_pair[1])
    v = np.kron(wa, wb)
    full = (k / distance) * np.outer(v, v.conj())
    return dec.RenormalizationSplit(
        r1=np.diag(np.diag(full)),
        r2=np.where(_R2, full, 0.0),
        r3=np.where(_R3, full, 0.0),
        r4=np.where(_R4, full, 0.0),
    )


def _former_decoherence_matrix(basis, dist, k):
    wa, wb = (
        np.array([_overlap_vector(c, "1"), _overlap_vector(c, "2")], dtype=complex)
        for c in (basis.coeffs_a, basis.coeffs_b)
    )
    v = (wa[dec._NODE_A, :, None] * wb[dec._NODE_B, None, :]).reshape(4, 4)
    h = (v.T * (k / np.array([dist.of(pair) for pair in dec.NODE_PAIRS]))) @ v.conj()
    return 0.5 * (h + h.conj().T)


def _oracle_basis(gen):
    """A random basis; one qubit in four sits at ts = 0, where the
    coefficients are the position basis itself."""
    basis = random_basis(gen)
    if gen.random() < 0.25:
        p = sq.QubitParams(ep1=gen.uniform(-3, 3), ep2=gen.uniform(-3, 3), ts_mag=0.0)
        basis.coeffs_b = sq.eigencoeffs(p, 0.0)
    return basis


def test_decoherence_matrix_matches_its_former_body_bit_for_bit():
    """Guards ``_former_decoherence_matrix``: the overlap rows <E|x> and the
    pairing of each node pair with its distance.
    test_decoherence_matrix_is_the_position_coulomb_operator_in_the_energy_basis
    checks the physics."""
    gen = np.random.default_rng(2022)
    for _ in range(2000):
        basis, dist, k = _oracle_basis(gen), random_distances(gen), gen.uniform(0.1, 2.0)
        new, old = dec.decoherence_matrix(basis, dist, k), _former_decoherence_matrix(basis, dist, k)
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()


def test_channel_split_matches_its_former_body_bit_for_bit():
    """Guards ``_former_coulomb_node_term_energy_basis``: channel i ^ j of
    entry (i, j).  test_a_qubit_held_in_one_node_cannot_flip pins r2 against
    r3 by physics, and test_node_term_position_round_trip the term itself."""
    gen = np.random.default_rng(2023)
    for _ in range(2000):
        basis, distance, k = _oracle_basis(gen), gen.uniform(0.5, 4.0), gen.uniform(0.1, 2.0)
        for pair in dec.NODE_PAIRS:
            new = dec.coulomb_node_term_energy_basis(pair, basis, distance, k)
            old = _former_coulomb_node_term_energy_basis(pair, basis, distance, k)
            for channel in ("r1", "r2", "r3", "r4"):
                got, ref = getattr(new, channel), getattr(old, channel)
                # a (2,2') term is real: both node-2 rows are
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes()


def test_a_qubit_held_in_one_node_cannot_flip():
    """At ts_mag = 0 with ep1 != ep2 a qubit's energy states are its node
    states, and a node-diagonal Coulomb term cannot flip it.  Its own channel
    (r3 for A, r2 for B) and the two-qubit channel r4 then read exactly 0 in
    every node term and in the decoherence matrix, while the other qubit's
    channel does not.  The energy index is 2 iA + iB, so A flips between
    entries 0 <-> 2 and 1 <-> 3, and B between 0 <-> 1 and 2 <-> 3."""
    held = sq.eigencoeffs(sq.QubitParams(ep1=0.3, ep2=-0.2, ts_mag=0.0), 0.0)
    free = sq.eigencoeffs(sq.QubitParams(ep1=0.1, ep2=0.25, ts_mag=0.4), 0.0)
    dist = dec.NodeDistances(d11=1.0, d22=1.3, d12=1.7, d21=0.8)
    a_flips = {(0, 2), (2, 0), (1, 3), (3, 1)}
    b_flips = {(0, 1), (1, 0), (2, 3), (3, 2)}
    both_flip = {(0, 3), (3, 0), (1, 2), (2, 1)}
    cases = (
        (dec.QubitEnergyBasis(held, free), "r3", "r2", a_flips, b_flips),
        (dec.QubitEnergyBasis(free, held), "r2", "r3", b_flips, a_flips),
    )
    for basis, still, moving, still_entries, moving_entries in cases:
        for pair in dec.NODE_PAIRS:
            split = dec.coulomb_node_term_energy_basis(pair, basis, dist.of(pair), 1.0)
            assert not getattr(split, still).any() and not split.r4.any()
            nonzero = set(zip(*np.nonzero(getattr(split, moving))))
            assert nonzero and nonzero <= moving_entries
            assert np.abs(getattr(split, moving)).max() > 0.05
        hdec = dec.decoherence_matrix(basis, dist, 1.0)
        assert all(hdec[i, j] == 0.0 for i, j in still_entries | both_flip)
        assert min(abs(hdec[i, j]) for i, j in moving_entries) > 0.05
