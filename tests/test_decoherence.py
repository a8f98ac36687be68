import numpy as np
import pytest

import posqubit.decoherence as dec
import posqubit.measurement as ms
import posqubit.single_qubit as sq
from posqubit.qcore import eig_hermitian, matexp_unitary

rng = np.random.default_rng(505)


def random_basis():
    pa = sq.QubitParams(
        ep1=rng.uniform(-3, 3),
        ep2=rng.uniform(-3, 3),
        ts_mag=rng.uniform(0.1, 3),
        alpha=rng.uniform(0, 2 * np.pi),
    )
    pb = sq.QubitParams(
        ep1=rng.uniform(-3, 3),
        ep2=rng.uniform(-3, 3),
        ts_mag=rng.uniform(0.1, 3),
        alpha=rng.uniform(0, 2 * np.pi),
    )
    return dec.QubitEnergyBasis(sq.eigencoeffs(pa, 0.0), sq.eigencoeffs(pb, 0.0))


def random_distances():
    return dec.NodeDistances(*rng.uniform(0.5, 4.0, size=4))


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


def test_renormalized_energies_shift():
    basis = random_basis()
    dist = random_distances()
    co_a, co_b = basis.coeffs_a, basis.coeffs_b
    out = dec.renormalized_energies(co_a.e1, co_a.e2, co_b.e1, co_b.e2, basis, dist, 2.0)
    pairwise = np.array(
        [co_a.e1 + co_b.e1, co_a.e1 + co_b.e2, co_a.e2 + co_b.e1, co_a.e2 + co_b.e2]
    )
    shifts = out - pairwise
    m = dec.decoherence_matrix(basis, dist, 2.0)
    assert np.max(np.abs(shifts - np.real(np.diag(m)))) < 1e-12


def test_build_h0_resonant_structure():
    h = dec.build_h0_resonant(-1.0, 1.0, -0.5, 0.5, 0.2 + 0.1j, 0.3 - 0.2j, 0.0)
    assert np.allclose(np.diag(h), [-1.5, -0.5, 0.5, 1.5])
    assert h[0, 1] == 0.3 - 0.2j and h[2, 3] == 0.3 - 0.2j
    assert h[0, 2] == 0.2 + 0.1j and h[1, 3] == 0.2 + 0.1j
    assert h[0, 3] == 0.0 and h[1, 2] == 0.0
    assert np.max(np.abs(h - h.conj().T)) < 1e-15


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
    basis = random_basis()
    dist = random_distances()
    hdec = dec.decoherence_matrix(basis, dist, 0.5)
    h0 = dec.build_h0_resonant(-1.0, 1.0, -0.7, 0.7, 0.0, 0.0, 0.0)
    rho0 = ms.pure_density(np.array([1.0, 0.0, 0.0, 0.0]))
    exact = dec.evolve_density_with_decoherence(rho0, h0, hdec, 0.0, 1.5)
    stepped = dec.evolve_density_with_decoherence(
        rho0, lambda t: h0, lambda t: hdec, 0.0, 1.5, dt=1e-3
    )
    assert np.max(np.abs(exact - stepped)) < 1e-9
    # an array of sample times, stepped from each sample to the next
    ts = np.linspace(0.2, 1.5, 6)
    exact = dec.evolve_density_with_decoherence(rho0, h0, hdec, 0.2, ts)
    stepped = dec.evolve_density_with_decoherence(rho0, lambda t: h0, hdec, 0.2, ts, dt=1e-3)
    assert stepped.shape == exact.shape == (6, 4, 4)
    assert np.max(np.abs(exact - stepped)) < 1e-9
    with pytest.raises(ValueError, match="paper_factorized"):
        dec.evolve_density_with_decoherence(rho0, lambda t: h0, hdec, 0.2, ts, paper_factorized=True)
    with pytest.raises(ValueError, match="descend"):
        dec.evolve_density_with_decoherence(rho0, lambda t: h0, hdec, 0.2, ts[::-1])


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
