"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line for its criterion; the
assertions carry the same conditions so pytest reports them faithfully.
"""

import json
import time

import numpy as np

import posqubit.cli as cli
import posqubit.decoherence as dec
import posqubit.measurement as ms
import posqubit.single_qubit as sq
import posqubit.spectral as sp
import posqubit.two_qubit as tq
from posqubit import signals
from posqubit.qcore import HBAR, eig_hermitian, matexp_unitary, rk4_step


def report(num, label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_eigensystem_closed_form():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        p = sq.QubitParams(
            ep1=rng.uniform(-5, 5),
            ep2=rng.uniform(-5, 5),
            ts_mag=rng.uniform(1e-3, 5),
            alpha=rng.uniform(0, 2 * np.pi),
        )
        co = sq.eigencoeffs(p, 0.0)
        h = sq.build_h2(p, 0.0)
        evals, _ = eig_hermitian(h)
        dev = max(abs(co.e1 - evals[0]), abs(co.e2 - evals[1]))
        for vec, e in ((co.ground(), co.e1), (co.excited(), co.e2)):
            dev = max(dev, float(np.max(np.abs(h @ vec - e * vec))))
            dev = max(dev, abs(np.linalg.norm(vec) - 1.0))
        worst = max(worst, dev)
    report(1, "closed-form eigensystem", worst < 1e-10, f"max deviation {worst:.3e}")


def test_criterion_02_oscillation_frequency():
    worst = 0.0
    slowest = 0.0
    for ts in (0.1, 0.3, 0.5, 1.0):
        start = time.perf_counter()
        p = sq.QubitParams(ep1=0.0, ep2=0.0, ts_mag=ts)
        h = sq.build_h2(p, 0.0)
        dt = 0.02
        n = int(round(70.0 / dt))
        psi = np.array([1.0, 0.0], dtype=complex)
        rhs = lambda t, y: (-1j / HBAR) * (h @ y)
        grid = np.empty(n + 1)
        px1 = np.empty(n + 1)
        for i in range(n + 1):
            grid[i] = i * dt
            px1[i] = abs(psi[0]) ** 2
            psi = rk4_step(rhs, i * dt, psi, dt)
        omega = cli.extract_frequency(grid, px1)
        rel = abs(omega - 2.0 * ts) / (2.0 * ts)
        worst = max(worst, rel)
        slowest = max(slowest, time.perf_counter() - start)
    ok = worst < 1e-6 and slowest < 5.0
    report(
        2,
        "population frequency 2|ts|",
        ok,
        f"max relative error {worst:.3e}, slowest run {slowest:.2f}s",
    )


def test_criterion_03_swap_closed_forms():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        ec1s, ec2s = rng.uniform(0, 5, size=2)
        ts = rng.uniform(1e-2, 2.0)
        vs = rng.uniform(-2, 2)
        eig = tq.swap_eigensystem_symmetric(ec1s, ec2s, ts, vs)
        cc = tq.CoulombCouplings(ec11=ec1s, ec22=ec1s, ec12=ec2s, ec21=ec2s)
        h = tq.build_h4(tq.SwapParams(vs=vs, t_u=ts, t_l=ts, couplings=cc))
        numeric, _ = eig_hermitian(h)
        dev = float(np.max(np.abs(eig.sorted_energies - numeric)))
        for vec, e in zip(eig.vectors, eig.energies):
            dev = max(dev, float(np.max(np.abs(h @ vec - e * vec))))
        worst = max(worst, dev)
    r = 1.0 / np.sqrt(2.0)
    eig = tq.swap_eigensystem_symmetric(1.0, 0.5, 0.3, 0.0)
    exact_vecs = np.max(
        np.abs(eig.vectors[:2] - np.array([[-r, 0, 0, r], [0, -r, r, 0]]))
    )
    two_tau_dev = max(
        abs(tq.is_factorizable(eig.vectors[0])[1] - 1.0),
        abs(tq.is_factorizable(eig.vectors[1])[1] - 1.0),
    )
    ok = worst < 1e-10 and exact_vecs == 0.0 and two_tau_dev < 1e-12
    report(
        3,
        "two-body closed forms",
        ok,
        f"max deviation {worst:.3e}, entangled-vector 2tau off by {two_tau_dev:.3e}",
    )


def test_criterion_04_collinear_gap_decay():
    gaps = []
    for d in np.logspace(0.0, 2.0, 25):
        g = tq.DotGeometry(kind=tq.COLLINEAR, a=0.5, b=0.5, d=d, coulomb_k=1.0)
        cc = tq.coulomb_couplings(g)
        eig = tq.swap_eigensystem_symmetric(cc.ec11, cc.ec12, 0.5, 0.0)
        gaps.append(abs(eig.energies[0] - eig.energies[1]))
    gaps = np.array(gaps)
    monotone = bool(np.all(np.diff(gaps) < 0.0))
    ratio = gaps[-1] / gaps[0]
    ok = monotone and ratio < 1e-3
    report(
        4,
        "entangled-pair gap vs distance",
        ok,
        f"monotone={monotone}, gap ratio over two decades {ratio:.3e}",
    )


def test_criterion_05_projector_completeness():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        for sub in (ms.SUBSYSTEM_U, ms.SUBSYSTEM_L):
            left, right = ms.measurement_probabilities(amps, sub)
            worst = max(worst, abs(left + right - 1.0))
            for side, prob in ((ms.LEFT, left), (ms.RIGHT, right)):
                if prob < 1e-6:
                    continue
                out = ms.project_position(amps, sub, side)
                worst = max(worst, abs(out.probability - prob))
                again = ms.project_position(out.post_state, sub, side)
                worst = max(worst, abs(again.probability - 1.0))
                worst = max(
                    worst,
                    float(np.max(np.abs(again.post_state.amps - out.post_state.amps))),
                )
    report(5, "measurement projectors", worst < 1e-10, f"max deviation {worst:.3e}")


def test_criterion_06_partial_trace():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        rho = ms.pure_density(amps)
        ra = ms.partial_trace(rho, "A")
        rb = ms.partial_trace(rho, "B")
        for i in range(2):
            for j in range(2):
                worst = max(
                    worst, abs(ra[i, j] - (rho[2 * i, 2 * j] + rho[2 * i + 1, 2 * j + 1]))
                )
                worst = max(worst, abs(rb[i, j] - (rho[i, j] + rho[2 + i, 2 + j])))
        worst = max(worst, abs(np.trace(ra).real - 1.0), abs(np.trace(rb).real - 1.0))
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    bell_dev = float(
        np.max(np.abs(ms.partial_trace(ms.pure_density(bell), "A") - 0.5 * np.eye(2)))
    )
    ok = worst < 1e-12 and bell_dev < 1e-12
    report(
        6,
        "partial trace",
        ok,
        f"max entry deviation {worst:.3e}, Bell reduced-state deviation {bell_dev:.3e}",
    )


def test_criterion_07_decoherence_channels():
    rng = np.random.default_rng(7)
    worst = 0.0
    herm = 0.0
    for _ in range(100):
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
        basis = dec.QubitEnergyBasis(sq.eigencoeffs(pa, 0.0), sq.eigencoeffs(pb, 0.0))
        k = rng.uniform(0.1, 2.0)
        for pair, idx in (("11", 0), ("12", 1), ("21", 2), ("22", 3)):
            d = rng.uniform(0.5, 3.0)
            term = dec.coulomb_node_term_energy_basis(pair, basis, d, k).total()
            herm = max(herm, float(np.max(np.abs(term - term.conj().T))))
            pos = dec.energy_to_position(term, basis)
            expected = np.zeros((4, 4))
            expected[idx, idx] = k / d
            worst = max(worst, float(np.max(np.abs(pos - expected))))
    ok = worst < 1e-10 and herm < 1e-12
    report(
        7,
        "Coulomb channel split",
        ok,
        f"position round-trip {worst:.3e}, hermiticity defect {herm:.3e}",
    )


def test_criterion_08_symmetric_case_diagonal():
    rng = np.random.default_rng(8)
    worst = 0.0
    p = sq.QubitParams(ep1=0.0, ep2=0.0, ts_mag=1.0)
    co = sq.eigencoeffs(p, 0.0)
    basis = dec.QubitEnergyBasis(co, co)
    for _ in range(100):
        dist = dec.NodeDistances(*rng.uniform(0.5, 4.0, size=4))
        k = rng.uniform(0.1, 2.0)
        sc = dec.symmetric_case(dist, k)
        expected = 0.25 * sum(k / dist.of(pr) for pr in dec.NODE_PAIRS)
        worst = max(worst, abs(sc.eab_r1 - expected))
        m = dec.decoherence_matrix(basis, dist, k)
        worst = max(worst, float(np.max(np.abs(np.diag(m).real - sc.eab_r1))))
    report(8, "symmetric-case shift", worst < 1e-12, f"max deviation {worst:.3e}")


def test_criterion_09_propagator_amplitudes():
    f1 = signals.sinusoid(0.7, 3.0)
    u1, u2 = sq.u1u2_evolve(0.5, 0.8, f1, 1.0, 1.0, 0.0, 20.0)
    conservation = abs(abs(u1) ** 2 + abs(u2) ** 2 - 2.0)
    u1f, u2f = sq.u1u2_evolve(0.5, 0.8, 0.0, 1.0, 1.0, 0.0, 20.0)
    analytic = max(
        abs(u1f - np.exp(-1j * (0.5 + 0.8) * 20.0)),
        abs(u2f - np.exp(-1j * (0.5 - 0.8) * 20.0)),
    )
    ok = conservation < 1e-9 and analytic < 1e-10
    report(
        9,
        "u1/u2 propagator",
        ok,
        f"norm drift {conservation:.3e}, analytic deviation {analytic:.3e}",
    )


def test_criterion_10_spectral_galerkin():
    kern = sp.CoulombKernel(e2=1.0, d_reg=0.1)
    basis1 = sp.harmonic_basis(1)
    w1 = sp.interaction_matrix_elements(basis1, basis1, kern)
    q0 = np.array([[1.0]], dtype=complex)
    final = sp.evolve_modes(q0, basis1, basis1, w1, 1.0, 10.0)
    h1 = sp.composite_hamiltonian(basis1, basis1, w1)
    exact = matexp_unitary(h1, 10.0) @ q0.reshape(1)
    single_dev = abs(final[0, 0] - exact[0])

    basis = sp.harmonic_basis(2)
    g = sp.compute_gij(basis, basis, kern, well_offset=0.0)
    sym = float(np.max(np.abs(g - g.T)))
    w = sp.interaction_matrix_elements(basis, basis, kern)
    q0 = np.zeros((2, 2), dtype=complex)
    q0[0, 0] = 1.0
    series = sp.evolve_modes(q0, basis, basis, w, 1.0, np.linspace(0.0, 10.0, 11))
    norms = np.linalg.norm(series.reshape(series.shape[0], -1), axis=1)
    norm_drift = float(np.max(np.abs(norms - 1.0)))
    energies = np.array([sp.mode_energy(q, basis, basis, w) for q in series])
    energy_drift = float(np.max(np.abs(energies - energies[0])))
    ok = single_dev < 1e-8 and sym < 1e-8 and norm_drift < 1e-8 and energy_drift < 1e-8
    report(
        10,
        "spectral Galerkin dynamics",
        ok,
        f"one-mode vs exact {single_dev:.3e}, g asymmetry {sym:.3e}, "
        f"norm drift {norm_drift:.3e}, energy drift {energy_drift:.3e}",
    )


def test_criterion_11_entanglement_entropy():
    basis = sp.harmonic_basis(2)
    kern = sp.CoulombKernel(e2=1.0, d_reg=0.1)
    w = sp.interaction_matrix_elements(basis, basis, kern)
    q0 = np.zeros((2, 2), dtype=complex)
    q0[0, 1] = 1.0
    final = sp.evolve_modes(q0, basis, basis, w, 1.0, 1.0)
    growth = sp.entanglement_entropy(final)
    balanced = np.diag([1.0, 1.0]).astype(complex) / np.sqrt(2.0)
    ln2_dev = abs(sp.entanglement_entropy(balanced) - np.log(2.0))
    ok = growth > 1e-6 and ln2_dev < 1e-12
    report(
        11,
        "entanglement entropy",
        ok,
        f"interaction-driven entropy {growth:.3e}, balanced-state ln2 offset {ln2_dev:.3e}",
    )


def test_criterion_12_cli_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "kind": "single-qubit",
        "time": {"t0": 0.0, "t_max": 5.0, "dt": 0.01, "sample_stride": 5},
        "parameters": {"ep1": 0.1, "ep2": -0.2, "ts_mag": 0.5, "alpha": 0.3},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for i in range(2):
        out = tmp_path / f"out{i}.csv"
        code = cli.main(["simulate", "--config", str(path), "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]

    series, summary = cli.run_scenario(cfg)
    payload = json.loads(cli.format_json(series, summary))
    round_trip = (
        payload["schema_version"] == cli.SCHEMA_VERSION
        and all(
            np.array_equal(np.array(payload["columns"][k]), v)
            for k, v in series.columns.items()
        )
        and np.array_equal(np.array(payload["t"]), series.t)
    )
    ok = identical and round_trip
    report(
        12,
        "CLI determinism",
        ok,
        f"byte-identical CSV={identical}, exact JSON round trip={round_trip}",
    )
