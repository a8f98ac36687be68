import copy
import gc
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import posqubit
import posqubit.cli as cli
import posqubit.decoherence as dec
import posqubit.measurement as ms
import posqubit.qcore as qcore
import posqubit.signals as signals
import posqubit.single_qubit as sq
from posqubit.errors import ConfigError
from posqubit.qcore import evolve_rk4


def base_single_qubit(**overrides):
    cfg = {
        "schema_version": 1,
        "kind": "single-qubit",
        "time": {"t0": 0.0, "t_max": 5.0, "dt": 0.01, "sample_stride": 5},
        "parameters": {
            "ep1": 0.0,
            "ep2": 0.0,
            "ts_mag": 0.5,
            "alpha": 0.0,
            "initial": [[1.0, 0.0], [0.0, 0.0]],
        },
    }
    cfg.update(overrides)
    return cfg


def test_schema_and_kind_validation():
    with pytest.raises(ConfigError):
        cli.run_scenario({"schema_version": 2, "kind": "single-qubit"})
    with pytest.raises(ConfigError):
        cli.run_scenario(base_single_qubit(kind="banana"))
    with pytest.raises(ConfigError):
        cli.run_scenario([1, 2, 3])


def test_time_block_validation():
    cfg = base_single_qubit()
    cfg["time"]["dt"] = -1.0
    with pytest.raises(ConfigError):
        cli.run_scenario(cfg)
    cfg = base_single_qubit()
    cfg["time"]["t_max"] = -1.0
    with pytest.raises(ConfigError):
        cli.run_scenario(cfg)
    cfg = base_single_qubit()
    del cfg["parameters"]["ts_mag"]
    with pytest.raises(ConfigError):
        cli.run_scenario(cfg)
    cfg = base_single_qubit()
    cfg["time"].update(t_max=1.06, dt=0.1)
    with pytest.raises(ConfigError, match="time.dt"):
        cli.run_scenario(cfg)


def test_signal_config_forms():
    cfg = base_single_qubit()
    cfg["parameters"]["ep1"] = {"kind": "sinusoid", "amplitude": 0.1, "omega": 2.0}
    cli.run_scenario(cfg)
    cfg["parameters"]["ep1"] = {
        "kind": "table",
        "times": [0.0, 10.0],
        "values": [0.0, 0.1],
    }
    cli.run_scenario(cfg)
    cfg["parameters"]["ep1"] = {"kind": "mystery"}
    with pytest.raises(ConfigError):
        cli.run_scenario(cfg)
    cfg["parameters"]["ep1"] = "not-a-signal"
    with pytest.raises(ConfigError):
        cli.run_scenario(cfg)


def test_single_qubit_oscillation_frequency():
    cfg = base_single_qubit()
    cfg["time"] = {"t0": 0.0, "t_max": 40.0, "dt": 0.01, "sample_stride": 1}
    series, summary = cli.run_scenario(cfg)
    # symmetric wells: population oscillates at 2 |ts|
    assert abs(summary["angular_frequency_p_x1"] - 1.0) < 1e-6
    assert abs(summary["final_norm"] - 1.0) < 1e-8
    assert abs(summary["E1"] + 0.5) < 1e-12 and abs(summary["E2"] - 0.5) < 1e-12
    total = series.columns["p_x1"] + series.columns["p_x2"]
    assert np.max(np.abs(total - 1.0)) < 1e-8


def driven_single_qubit():
    cfg = base_single_qubit()
    cfg["time"] = {"t0": 0.5, "t_max": 20.5, "dt": 0.01, "sample_stride": 3}
    cfg["parameters"].update(
        ep1={"kind": "sinusoid", "amplitude": 0.28, "omega": 1.1, "phase": 0.4, "offset": 0.02},
        ep2=-0.03,
        alpha={"kind": "sinusoid", "amplitude": 0.5, "omega": 0.3},
        initial=[[0.6, 0.1], [0.3, -0.4]],
    )
    return cfg


def test_single_qubit_columns_match_rk4_oracle(monkeypatch):
    """The batched run, with its steps in one chunk and in chunks of 7,
    against the per-step evolve_rk4 loop it replaced."""
    cfg = driven_single_qubit()
    runs = [cli.run_scenario(cfg)]
    monkeypatch.setattr(qcore, "STEP_CHUNK", 7)
    runs.append(cli.run_scenario(cfg))
    params = sq.QubitParams(
        signals.sinusoid(0.28, 1.1, 0.4, 0.02), signals.constant(-0.03), signals.constant(0.5), signals.sinusoid(0.5, 0.3)
    )
    psi = np.array([0.6 + 0.1j, 0.3 - 0.4j]) / np.linalg.norm([0.6 + 0.1j, 0.3 - 0.4j])
    t0, dt, n_steps, stride = 0.5, 0.01, 2000, 3
    rows = []
    for i in range(n_steps + 1):
        t = t0 + i * dt
        if i > 0:
            psi = evolve_rk4(lambda tp: sq.build_h2(params, tp), psi, t - dt, t, dt)
        if i % stride == 0 or i == n_steps:
            c_en = sq.eigencoeffs(params, t).basis_matrix().conj() @ psi
            rows.append([t, *np.abs(psi) ** 2, *np.abs(c_en) ** 2, *psi])
    oracle = np.array(rows)
    for series, summary in runs:
        assert len(series.t) == len(oracle) == 668 and series.t[-1] == t0 + n_steps * dt
        np.testing.assert_array_equal(series.t, oracle[:, 0].real)
        for k, name in enumerate(("p_x1", "p_x2", "p_E1", "p_E2"), start=1):
            assert np.max(np.abs(series.columns[name] - oracle[:, k].real)) < 1e-12
        # phases as amplitudes, so a small amplitude's ill-conditioned angle does not count
        for k, x in ((5, "x1"), (6, "x2")):
            amp = np.sqrt(series.columns[f"p_{x}"]) * np.exp(1j * series.columns[f"phase_{x}"])
            assert np.max(np.abs(amp - oracle[:, k])) < 1e-12
        assert abs(summary["final_norm"] - np.linalg.norm(oracle[-1, 5:])) < 1e-12


def test_rabi_columns_match_per_sample_oracle():
    cfg = rabi_cfg()
    cfg["time"] = {"t0": 0.3, "t_max": 10.3, "dt": 0.01, "sample_stride": 5}
    cfg["parameters"]["e12"] = {"kind": "sinusoid", "amplitude": 0.18, "omega": 1.0, "phase": 0.3}
    cfg["parameters"]["initial"] = [[0.8, 0.1], [0.2, -0.5]]
    series, summary = cli.run_scenario(cfg)
    e12 = signals.sinusoid(0.18, 1.0, 0.3)
    psi0 = np.array([0.8 + 0.1j, 0.2 - 0.5j]) / np.linalg.norm([0.8 + 0.1j, 0.2 - 0.5j])
    for t, p1, p2, defect in zip(series.t, *series.columns.values()):
        u = sq.rabi_evolution_matrix(-0.5, 0.5, e12, 0.3, t) if t > 0.3 else np.eye(2)
        psi = u @ psi0
        assert max(abs(p1 - abs(psi[0]) ** 2), abs(p2 - abs(psi[1]) ** 2)) < 1e-12
        assert defect < 1e-14
    assert len(series.t) == 201 and summary["max_unitarity_defect"] < 1e-14


def test_extract_frequency_known_signal():
    t = np.linspace(0.0, 30.0, 3001)
    for omega in (0.7, 1.3, 2.9):
        y = 0.4 + 0.3 * np.cos(omega * t + 0.2)
        assert abs(cli.extract_frequency(t, y) - omega) / omega < 1e-5
    assert cli.extract_frequency(t[:3], np.array([1.0, 1.0, 1.0])) == 0.0


def rabi_cfg():
    return {
        "schema_version": 1,
        "kind": "rabi",
        "time": {"t_max": 3.0, "dt": 0.01, "sample_stride": 10},
        "parameters": {"e1": -0.5, "e2": 0.5, "e12": 0.2},
    }


def test_rabi_scenario():
    series, summary = cli.run_scenario(rabi_cfg())
    assert summary["max_unitarity_defect"] < 1e-12
    total = series.columns["p_E1"] + series.columns["p_E2"]
    assert np.max(np.abs(total - 1.0)) < 1e-12


def swap_cfg():
    return {
        "schema_version": 1,
        "kind": "swap",
        "time": {"t_max": 2.0, "dt": 0.01, "sample_stride": 10},
        "parameters": {
            "vs": 0.1,
            "t_u": 0.4,
            "t_l": 0.4,
            "ec11": 1.2,
            "ec22": 1.2,
            "ec12": 0.8,
            "ec21": 0.8,
            "initial": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        },
    }


def test_swap_scenario_summary_closed_form():
    _, summary = cli.run_scenario(swap_cfg())
    closed = np.array(summary["closed_form_eigenenergies"])
    numeric = np.array(summary["eigenenergies"])
    assert np.max(np.abs(closed - numeric)) < 1e-10
    assert abs(summary["gap_E1_E2"] - 0.4) < 1e-12


def test_swap_scenario_geometry_block():
    cfg = {
        "schema_version": 1,
        "kind": "swap",
        "time": {"t_max": 1.0, "dt": 0.01},
        "parameters": {
            "vs": 0.0,
            "t_u": 0.3,
            "t_l": 0.3,
            "geometry": {"kind": "parallel", "a": 1.0, "b": 1.0, "d1": 2.0, "coulomb_k": 1.0},
        },
    }
    _, summary = cli.run_scenario(cfg)
    assert "closed_form_eigenenergies" in summary
    cfg["parameters"]["geometry"]["kind"] = "bogus"
    with pytest.raises(ConfigError):
        cli.run_scenario(cfg)


def cnot_cfg():
    return {
        "schema_version": 1,
        "kind": "cnot",
        "time": {"t_max": 1.0, "dt": 0.01, "sample_stride": 10},
        "parameters": {
            "vs": 0.0,
            "t_u": 0.2,
            "t_l": 0.2,
            "vs2": 0.1,
            "t2": 0.15,
            "geometry": {
                "kind": "collinear",
                "a": 0.5,
                "b": 0.5,
                "d": 2.0,
                "d1": 1.0,
                "d2": 1.0,
                "d3": 2.0,
                "coulomb_k": 0.5,
            },
            "initial_control": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "initial_target": [[1.0, 0.0], [0.0, 0.0]],
        },
    }


def test_cnot_scenario():
    _, summary = cli.run_scenario(cnot_cfg())
    assert abs(summary["final_control_norm"] - 1.0) < 1e-10
    assert abs(summary["final_target_norm"] - 1.0) < 1e-10


def decoherence_cfg():
    return {
        "schema_version": 1,
        "kind": "decoherence",
        "time": {"t_max": 1.0, "dt": 0.01, "sample_stride": 10},
        "parameters": {
            "qubitA": {"ts_mag": 1.0},
            "qubitB": {"ts_mag": 1.0},
            "d11": 1.0,
            "d22": 2.0,
            "d12": 1.5,
            "d21": 1.5,
            "coulomb_k": 0.5,
            "initial": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        },
    }


def test_decoherence_scenario():
    series, summary = cli.run_scenario(decoherence_cfg())
    pops = sum(series.columns[f"p_E{i}A_E{j}B"] for i in (1, 2) for j in (1, 2))
    assert np.max(np.abs(pops - 1.0)) < 1e-10
    assert np.max(np.abs(series.columns["purity"] - 1.0)) < 1e-10
    expected = 0.5 * 0.25 * (1.0 / 1.0 + 1.0 / 2.0 + 1.0 / 1.5 + 1.0 / 1.5)
    assert abs(summary["symmetric_EAB_r1"] - expected) < 1e-12


def spectral_cfg():
    return {
        "schema_version": 1,
        "kind": "spectral",
        "time": {"t_max": 0.5, "dt": 0.001, "sample_stride": 100},
        "parameters": {
            "basis": {"kind": "harmonic", "n_levels": 2},
            "kernel": {"e2": 1.0, "d_reg": 0.1},
            "initial_modes": [[0, 1, 1.0, 0.0]],
        },
    }


def test_spectral_scenario():
    _, summary = cli.run_scenario(spectral_cfg())
    assert abs(summary["final_norm"] - 1.0) < 1e-10
    assert summary["energy_drift"] < 1e-10


def test_format_csv_deterministic_and_parseable():
    cfg = base_single_qubit()
    out1 = cli.format_csv(*cli.run_scenario(cfg))
    out2 = cli.format_csv(*cli.run_scenario(json.loads(json.dumps(cfg))))
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0] == cli.CSV_HEADER
    header_rows = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0].startswith("t,")
    ncols = len(data[0].split(","))
    for row in data[1:]:
        vals = [float(x) for x in row.split(",")]
        assert len(vals) == ncols
    assert len(header_rows) >= 1


def _format_csv_per_value(series, summary):
    """The formatter format_csv replaced: one f-string per value."""
    names, rows = series.as_rows()
    lines = [cli.CSV_HEADER] + [f"# {k} = {json.dumps(summary[k])}" for k in sorted(summary)]
    lines.append(",".join(names))
    lines += [",".join(f"{x:.17g}" for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_format_csv_matches_per_value_formatter():
    outputs = [cli.run_scenario(complete_cfg(kind)) for kind in _KINDS]
    local = np.random.default_rng(31)
    scaled = local.normal(size=(300, 4)) * 10.0 ** local.integers(-320, 308, size=(300, 4))
    special = [-0.0, 0.0, 5e-324, -5e-324, 1.5e-310, -2.2e-308, 1e308, -1e308, 2.0**53, -7.0, 1e22, 123456789.0]
    scaled[: len(special), 0] = special
    scaled[:, 3] = np.round(local.normal(size=300) * 1e6)  # integral floats
    outputs.append((cli.TimeSeries(scaled[:, 0], {"a": scaled[:, 1], "b": scaled[:, 2], "c": scaled[:, 3]}), {}))
    edge = np.array([-0.0, 5e-324, 1e300, 3.0, -2.0, 1e16, 0.1, -1.7976931348623157e308])
    outputs.append((cli.TimeSeries(edge, {"x": edge[::-1], "y": np.round(edge)}), {"n": 1}))
    for series, summary in outputs:
        assert cli.format_csv(series, summary) == _format_csv_per_value(series, summary)
    rows = cli.format_csv(*outputs[-1]).splitlines()[3:5]
    assert rows == ["-0,-1.7976931348623157e+308,-0", "4.9406564584124654e-324,0.10000000000000001,0"]


def test_format_csv_sets_off_no_garbage_collection():
    """Per-row lists or tuples would be GC-tracked containers: 2001 of them
    pass the default generation-0 threshold of 700 and start collections."""
    local = np.random.default_rng(37)
    series = cli.TimeSeries(local.normal(size=2001), {f"c{i}": local.normal(size=2001) for i in range(6)})
    summary = {"min_purity": 1.0}
    cli.format_csv(series, summary)
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()  # generation 0 starts from an empty count
    gc.callbacks.append(record)
    try:
        text = cli.format_csv(series, summary)
    finally:
        gc.callbacks.remove(record)
    assert text.count("\n") == 3 + 2001 and collections == []


def test_decoherence_run_diagonalizes_once(monkeypatch):
    eigh = np.linalg.eigh
    calls = []

    def counting_eigh(h, *args, **kwargs):
        calls.append(np.shape(h))
        return eigh(h, *args, **kwargs)

    monkeypatch.setattr(qcore.np.linalg, "eigh", counting_eigh)
    # Hdec is built once too: the summary's energy shifts read the runner's matrix
    decoherence_matrix = cli.dec.decoherence_matrix
    monkeypatch.setattr(cli.dec, "decoherence_matrix", lambda *a: calls.append("hdec") or decoherence_matrix(*a))
    cfg = decoherence_cfg()
    cfg["time"] = {"t_max": 20.0, "dt": 0.01, "sample_stride": 1}
    for paper_factorized in (False, True):
        calls.clear()
        series, _ = cli.run_scenario(cfg, paper_factorized=paper_factorized)
        assert len(series.t) == 2001 and calls == ["hdec", (4, 4)]


def test_decoherence_run_propagates_amplitudes_not_densities(monkeypatch):
    propagate = qcore.propagate
    calls = []

    def recording(h, y0, times, *, density=False):
        calls.append((np.shape(y0), density))
        return propagate(h, y0, times, density=density)

    def refuse(*args, **kwargs):
        raise AssertionError("a decoherence point took the density path")

    for module in (qcore, dec):
        monkeypatch.setattr(module, "propagate", recording)
    monkeypatch.setattr(dec, "evolve_density_with_decoherence", refuse)
    for paper_factorized in (False, True):
        calls.clear()
        series, _ = cli.run_scenario(decoherence_cfg(), paper_factorized=paper_factorized)
        # with the split, every sample starts from its own D(t) psi0
        start = (len(series.t), 4) if paper_factorized else (4,)
        assert calls == [(start, False)]


def random_decoherence_cfg(gen):
    def qubit():
        return {
            "ep1": gen.uniform(-1, 1),
            "ep2": gen.uniform(-1, 1),
            "ts_mag": gen.uniform(0.2, 1.5),
            "alpha": gen.uniform(0, 2 * np.pi),
        }

    t0 = float(gen.integers(-4, 5)) / 4
    n_steps = int(gen.integers(20, 300))
    return {
        "schema_version": 1,
        "kind": "decoherence",
        "time": {"t0": t0, "t_max": t0 + 0.05 * n_steps, "dt": 0.05, "sample_stride": int(gen.integers(1, 6))},
        "parameters": {
            "qubitA": qubit(),
            "qubitB": qubit(),
            **{f"d{ij}": gen.uniform(0.5, 4.0) for ij in dec.NODE_PAIRS},
            "coulomb_k": gen.uniform(0.1, 1.5),
            "initial": gen.normal(size=(4, 2)).tolist(),
        },
    }


def symmetric_decoherence_cfg():
    """The degenerate case of ``_symmetric_decoherence_hamiltonian`` in
    tests/test_qcore.py: equal qubits and equal node distances."""
    cfg = decoherence_cfg()
    params = cfg["parameters"]
    params.update({f"d{ij}": 1.0 for ij in dec.NODE_PAIRS}, coulomb_k=0.5)
    params["initial"] = [[0.3, 0.1], [0.5, -0.2], [-0.4, 0.6], [0.2, 0.2]]
    cfg["time"] = {"t0": 0.5, "t_max": 8.5, "dt": 0.02, "sample_stride": 3}
    return cfg


def _decoherence_oracles(cfg, ts, paper_factorized):
    """H0 + Hdec of ``cfg`` and its density stacks at ``ts``: from
    ``evolve_density_with_decoherence`` and from per-sample ``expm``."""
    import scipy.linalg as sla

    p = cfg["parameters"]
    co_a, co_b = (sq.eigencoeffs(sq.QubitParams(**p[q]), 0.0) for q in ("qubitA", "qubitB"))
    dist = dec.NodeDistances(*(p[f"d{ij}"] for ij in dec.NODE_PAIRS))
    hdec = dec.decoherence_matrix(dec.QubitEnergyBasis(co_a, co_b), dist, p["coulomb_k"])
    h0 = dec.build_h0_resonant(co_a.e1, co_a.e2, co_b.e1, co_b.e2, 0.0, 0.0, 0.0)
    psi0 = np.array([complex(re, im) for re, im in p["initial"]])
    rho0 = ms.pure_density(psi0 / np.linalg.norm(psi0))
    t0 = cfg["time"]["t0"]
    density = dec.evolve_density_with_decoherence(rho0, h0, hdec, t0, ts, paper_factorized=paper_factorized)
    props = []
    for span in ts - t0:
        if paper_factorized:
            diag = np.real(np.diag(h0 + hdec))
            off = hdec - np.diag(np.diag(hdec))
            props.append(sla.expm(-1j * off * span / qcore.HBAR) @ np.diag(np.exp(-1j * diag * span / qcore.HBAR)))
        else:
            props.append(sla.expm(-1j * (h0 + hdec) * span / qcore.HBAR))
    per_sample = np.array([u @ rho0 @ u.conj().T for u in props])
    return h0 + hdec, density, per_sample


@pytest.mark.parametrize("paper_factorized", [False, True])
def test_decoherence_columns_match_density_and_expm_oracles(paper_factorized):
    gen = np.random.default_rng(1717)
    cfgs = [symmetric_decoherence_cfg()] + [random_decoherence_cfg(gen) for _ in range(12)]
    for index, cfg in enumerate(cfgs):
        series, summary = cli.run_scenario(cfg, paper_factorized=paper_factorized)
        h, *oracles = _decoherence_oracles(cfg, series.t, paper_factorized)
        if index == 0:
            assert np.min(np.diff(np.linalg.eigvalsh(h))) < 1e-12
        for rho in oracles:
            purity = np.real(np.einsum("tij,tji->t", rho, rho))
            expected = {
                "p_E1A_E1B": rho[:, 0, 0].real,
                "p_E1A_E2B": rho[:, 1, 1].real,
                "p_E2A_E1B": rho[:, 2, 2].real,
                "p_E2A_E2B": rho[:, 3, 3].real,
                "re_rho_01": rho[:, 0, 1].real,
                "im_rho_01": rho[:, 0, 1].imag,
                "purity": purity,
            }
            assert list(series.columns) == list(expected)
            for name, column in expected.items():
                assert np.max(np.abs(series.columns[name] - column)) <= 1e-12, (index, name)
            assert abs(summary["min_purity"] - purity.min()) <= 1e-12
        # the pairwise sums plus the r1 shifts are the diagonal of H0 + Hdec
        assert np.max(np.abs(np.array(summary["renormalized_energies"]) - np.diag(h).real)) <= 1e-12
        p = cfg["parameters"]
        r1 = 0.25 * sum(p["coulomb_k"] / p[f"d{ij}"] for ij in dec.NODE_PAIRS)
        assert abs(summary["symmetric_EAB_r1"] - r1) <= 1e-12


def test_module_entry_point_warns_nothing(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_single_qubit()))
    src = str(Path(posqubit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "posqubit.cli", "eigens"]
    done = subprocess.run(argv + ["--config", str(cfg_path)], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["max_deviation"] < 1e-10


def test_every_kind_runs_without_scipy():
    script = (
        "import json, sys\n"
        "import posqubit.cli as cli\n"
        "for cfg in json.loads(sys.argv[1]):\n"
        "    cli.format_csv(*cli.run_scenario(cfg))\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    cfgs = json.dumps([complete_cfg(kind) for kind in sorted(cli._RUNNERS)])
    src = str(Path(posqubit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script, cfgs], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == []


def test_format_json_round_trip():
    series, summary = cli.run_scenario(base_single_qubit())
    text = cli.format_json(series, summary)
    payload = json.loads(text)
    assert payload["schema_version"] == 1
    assert payload["summary"]["E1"] == summary["E1"]
    np.testing.assert_array_equal(np.array(payload["t"]), series.t)
    for key, col in series.columns.items():
        np.testing.assert_array_equal(np.array(payload["columns"][key]), col)


def test_parse_values_forms():
    assert cli._parse_values("1,2,3") == [1.0, 2.0, 3.0]
    vals = cli._parse_values("0:1:5")
    assert len(vals) == 5 and vals[0] == 0.0 and vals[-1] == 1.0
    with pytest.raises(ConfigError):
        cli._parse_values("0:1")
    with pytest.raises(ConfigError):
        cli._parse_values("a,b")


def test_sweep_continues_past_failures():
    cfg = base_single_qubit()
    rows = cli.sweep(cfg, "parameters.ts_mag", [0.5, 0.0, 1.0])
    assert [r["status"] for r in rows] == ["ok", "failed", "ok"]
    assert "error" in rows[1]
    # an even grid raises ValueError in the Simpson weights
    spectral = spectral_cfg()
    spectral["parameters"]["basis"]["n_grid"] = 401
    rows = cli.sweep(spectral, "parameters.basis.n_grid", [401, 400, 401])
    assert [r["status"] for r in rows] == ["ok", "failed", "ok"]
    assert "odd point count" in rows[1]["error"]
    with pytest.raises(ConfigError):
        cli.sweep(cfg, "parameters.nope", [1.0])


def test_main_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_single_qubit()))
    out_path = tmp_path / "out.csv"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert out_path.read_text().startswith(cli.CSV_HEADER)

    bad = base_single_qubit()
    bad["schema_version"] = 99
    cfg_path.write_text(json.dumps(bad))
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 2
    capsys.readouterr()

    degenerate = base_single_qubit()
    degenerate["parameters"]["ts_mag"] = 0.0
    cfg_path.write_text(json.dumps(degenerate))
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 3
    capsys.readouterr()

    assert cli.main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    # a mode index past n_levels, a negative one and a short entry are config errors
    for entry in ([5, 0, 1.0, 0.0], [-1, 0, 1.0, 0.0], [0, 1, 1.0]):
        spectral = spectral_cfg()
        spectral["parameters"]["initial_modes"] = [entry]
        cfg_path.write_text(json.dumps(spectral))
        assert cli.main(["simulate", "--config", str(cfg_path)]) == 2
        assert "initial_modes" in capsys.readouterr().err

    # wrong types, non-finite or out-of-range values and bad shapes are config
    # errors; an overflowing drive is a numerical failure, a large one is fine
    sinusoid = {"kind": "sinusoid", "amplitude": 0.2, "omega": 1.0}
    cases = [
        (base_single_qubit(), "time.t_max", 1e309, 2),
        (base_single_qubit(), "time.dt", float("nan"), 2),
        (base_single_qubit(), "time.dt", True, 2),
        (base_single_qubit(), "time.sample_stride", "x", 2),
        (base_single_qubit(), "time.sample_stride", 1.5, 2),
        (base_single_qubit(), "parameters.ep1", {"kind": "sinusoid", "amplitude": "x"}, 2),
        (swap_cfg(), "parameters.t_u", [1], 2),
        (swap_cfg(), "kind", ["swap"], 2),
        (spectral_cfg(), "parameters.basis.n_levels", "a", 2),
        (spectral_cfg(), "parameters.basis.n_grid", 400, 2),
        (cnot_cfg(), "parameters.initial_target", [[1.0, 0.0]], 2),
        (decoherence_cfg(), "parameters.initial", [[0.0, 0.0]] * 4, 2),
        (rabi_cfg(), "parameters.e1", 1e308, 3),
        (rabi_cfg(), "parameters.e12", dict(sinusoid, amplitude=1e8), 0),
        (rabi_cfg(), "parameters.e12", dict(sinusoid, omega=1e16), 3),
        # sample times in order whose gap is past the largest float: np.interp would misread the slope
        (rabi_cfg(), "parameters.e12", {"kind": "table", "times": [-1.7e308, 1.7e308], "values": [0.2, 0.1]}, 2),
        # a table over exactly [t0, t_max]: no sample lies past t_max, even when
        # the stride does not divide the step count
        (replaced(rabi_cfg(), "time", {"t_max": 1.0, "dt": 0.1, "sample_stride": 6}),
         "parameters.e12", {"kind": "table", "times": [0.0, 1.0], "values": [0.2, 0.1]}, 0),
        # a dt that does not divide t_max - t0 would sample past t_max; 0.5 / 0.001 divides
        (replaced(rabi_cfg(), "parameters.e12", {"kind": "table", "times": [0.0, 1.06], "values": [0.2, 0.1]}),
         "time", {"t_max": 1.06, "dt": 0.1}, 2),
        (base_single_qubit(), "time", {"t_max": 0.5, "dt": 0.001, "sample_stride": 50}, 0),
        (base_single_qubit(), "time.dt", 1e308, 2),
        (base_single_qubit(), "time", {"t_max": 1.0, "dt": 1e308, "sample_stride": 2}, 2),
        (base_single_qubit(), "time", {"t_max": 1.7e308, "dt": 1e308}, 2),
        # |ts| crosses zero at t = 2 with Ep1 = Ep2: a degenerate sample inside the run
        (base_single_qubit(), "parameters.ts_mag", {"kind": "table", "times": [0, 4, 5], "values": [1, -1, -1.5]}, 3),
    ]
    for cfg, path, value, code in cases:
        cfg_path.write_text(json.dumps(replaced(cfg, path, value)))
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out_path)]) == code
        assert path.split(".")[-1] in capsys.readouterr().err or code != 2
    cfg_path.write_text("[1, 2]")
    assert cli.main(["eigens", "--config", str(cfg_path)]) == 2
    cfg_path.write_text(json.dumps(base_single_qubit()))
    argv = ["sweep", "--config", str(cfg_path), "--axis", "parameters.ts_mag"]
    argv += ["--out", str(out_path)]
    for spec in ("0:1:x", "0:1:-1", "0:1", "1,nan"):
        assert cli.main(argv + ["--values", spec]) == 2
    # nesting that json.load accepts is copied for each point without overflowing
    # the stack; the point then fails, as no kind accepts a field named notes
    nested = json.loads("[" * 500 + "]" * 500)
    cfg_path.write_text(json.dumps(dict(base_single_qubit(), notes=nested)))
    assert cli.main(argv + ["--values", "0.4"]) == 0
    [row] = json.loads(out_path.read_text())["rows"]
    assert row["status"] == "failed" and row["error"].startswith("notes: unknown field")
    capsys.readouterr()


def test_main_eigens_and_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_single_qubit()))
    assert cli.main(["eigens", "--config", str(cfg_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_deviation"] < 1e-10

    # a swap Hamiltonian whose diagonal overflows to inf is a numerical
    # failure named as such, with no NaN energies and no RuntimeWarning
    huge = swap_cfg()
    huge["parameters"].update(vs=1e308, ec11=1e308, ec22=1e308)
    cfg_path.write_text(json.dumps(huge))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["eigens", "--config", str(cfg_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite" in captured.err
    # large but finite symmetric couplings: the closed form stays finite
    huge["parameters"].update(vs=1e307, ec11=1e307, ec22=1e307, ec12=0.2, ec21=0.2, t_u=0.3, t_l=0.3)
    cfg_path.write_text(json.dumps(huge))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["eigens", "--config", str(cfg_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "huge.csv")]) == 0
    capsys.readouterr()
    assert np.all(np.isfinite(payload["closed_form"]))
    cfg_path.write_text(json.dumps(base_single_qubit()))

    out_path = tmp_path / "sweep.json"
    assert (
        cli.main(
            [
                "sweep",
                "--config",
                str(cfg_path),
                "--axis",
                "parameters.ts_mag",
                "--values",
                "0.3,0.8",
                "--out",
                str(out_path),
            ]
        )
        == 0
    )
    rows = json.loads(out_path.read_text())["rows"]
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert abs(rows[0]["E2"] - 0.3) < 1e-12


def replaced(cfg, path, value):
    """A copy of ``cfg`` with the field at dotted ``path`` set to ``value``."""
    cfg = copy.deepcopy(cfg)
    node = cfg
    *parents, leaf = path.split(".")
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value
    return cfg


def complete_cfg(kind):
    """A small valid scenario of ``kind`` that spells out every field its runner reads."""
    cfg = {
        "single-qubit": base_single_qubit,
        "rabi": rabi_cfg,
        "swap": swap_cfg,
        "cnot": cnot_cfg,
        "decoherence": decoherence_cfg,
        "spectral": spectral_cfg,
    }[kind]()
    cfg["time"].setdefault("t0", 0.0)
    cfg["time"].setdefault("sample_stride", 1)
    params = cfg["parameters"]
    qubit = {"ep1": 0.1, "ep2": -0.1, "ts_mag": 1.0, "alpha": 0.2}
    extra = {
        "rabi": {
            "e12": {"kind": "sinusoid", "amplitude": 0.2, "omega": 1, "phase": 0.1, "offset": 0},
            "initial": [[1.0, 0.0], [0.0, 0.5]],
        },
        "decoherence": {"qubitA": dict(qubit), "qubitB": dict(qubit, ts_mag=0.7)},
        "spectral": {
            "basis": {"kind": "harmonic", "n_levels": 2, "n_grid": 401, "omega": 1.0},
            "well_offset": 3.0,
        },
    }
    params.update(extra.get(kind, {}))
    return cfg


@pytest.mark.parametrize("stride", [4, 6])
@pytest.mark.parametrize("kind", sorted(cli._RUNNERS))
def test_every_kind_samples_one_grid(kind, stride):
    """Every kind samples every stride-th step and the last one, also when the
    stride does not divide the step count, and no sample lies past t_max."""
    cfg = complete_cfg(kind)
    cfg["time"] = {"t0": 0.0, "t_max": 1.0, "dt": 0.1, "sample_stride": stride}
    series, _ = cli.run_scenario(cfg)
    np.testing.assert_array_equal(series.t, 0.1 * np.append(np.arange(0, 10, stride), 10))
    assert series.t.max() <= 1.0


def _field_paths(node, prefix=""):
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + key + ".")


def _object_paths(node, prefix=""):
    """The dotted path of every object in ``node``, "" for the root."""
    yield prefix.rstrip(".")
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _object_paths(value, prefix + key + ".")


def _schema_leaves(schema, prefix=""):
    """Every field path of ``schema``; an object whose kind picks its fields
    gives its ``kind`` and the fields of every kind."""
    for key, node in schema.items():
        path = prefix + key
        if isinstance(node, dict):
            yield from _schema_leaves(node, path + ".")
        elif getattr(node[0], "func", None) is cli._kind_fields:
            yield path + ".kind"
            for fields in node[0].keywords["kinds"].values():
                yield from _schema_leaves(fields, path + ".")
        else:
            yield path


_KINDS = ("single-qubit", "rabi", "swap", "cnot", "decoherence", "spectral")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)


def _number_at(cfg, path, default):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    ok = isinstance(node, (int, float)) and not isinstance(node, bool)
    return float(node) if ok and abs(node) <= 1.7e308 else None


@st.composite
def _one_field_replaced(draw):
    """A complete config with one field of its kind's schema or of the config
    itself set to any JSON value, or with an unknown key added to one object."""
    kind = draw(st.sampled_from(_KINDS))
    cfg = complete_cfg(kind)
    if draw(st.booleans()):
        paths = set(_field_paths(cfg)) | set(_schema_leaves(cli._SCHEMAS[kind]))
        return replaced(cfg, draw(st.sampled_from(sorted(paths))), draw(_JSON))
    parent = draw(st.sampled_from(sorted(_object_paths(cfg))))
    key = draw(st.text(max_size=8).filter(lambda k: k != "kind" and "." not in k))
    return replaced(cfg, f"{parent}.{key}" if parent else key, draw(_JSON))


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(cfg=_one_field_replaced(), command=st.sampled_from(["simulate", "eigens"]))
def test_main_exit_code_is_total(tmp_path_factory, cfg, command):
    """Any JSON value in any one field gives exit code 0, 2 or 3, never an exception."""
    # keep each run short: a valid time block of 2000 to MAX_STEPS steps, or a
    # spectral basis past the sizes below, would run for seconds
    t0 = _number_at(cfg, "time.t0", 0.0)
    t_max, dt = _number_at(cfg, "time.t_max", None), _number_at(cfg, "time.dt", None)
    if None not in (t0, t_max, dt) and dt > 0 and t_max > t0:
        assume(not 2000 < (t_max - t0) / dt <= cli.MAX_STEPS)
    if cfg["kind"] == "spectral":
        for key, small, cap in (("n_levels", 4, cli.MAX_LEVELS), ("n_grid", 801, cli.MAX_GRID)):
            size = _number_at(cfg, f"parameters.basis.{key}", None)
            assume(size is None or size <= small or size > cap)
    work = tmp_path_factory.mktemp("total")
    cfg_path = work / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(cfg_path)]
    if command == "simulate":
        argv += ["--out", str(work / "out.csv")]
    assert cli.main(argv) in (0, 2, 3)


_SIGNAL_OBJECTS = {
    "constant": {"kind": "constant", "value": 0.1},
    "sinusoid": {"kind": "sinusoid", "amplitude": 0.1, "omega": 1.0, "phase": 0.2, "offset": 0.0},
    "table": {"kind": "table", "times": [0.0, 10.0], "values": [0.0, 0.1]},
}


def _schema_cases():
    """Each kind's complete config, and a single-qubit one per signal kind."""
    cases = [complete_cfg(kind) for kind in _KINDS]
    return cases + [replaced(base_single_qubit(), "parameters.ep1", sig) for sig in _SIGNAL_OBJECTS.values()]


def test_complete_configs_carry_every_object_the_schemas_read():
    paths = {path for cfg in _schema_cases() for path in _object_paths(cfg)}
    assert paths >= {"", "time", "parameters", "parameters.basis", "parameters.kernel", "parameters.qubitA"}
    assert paths >= {"parameters.qubitB", "parameters.geometry", "parameters.ep1", "parameters.e12"}
    for cfg in _schema_cases():
        cli.run_scenario(cfg)


def test_unknown_key_at_every_object_level_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for cfg in _schema_cases():
        for parent in _object_paths(cfg):
            path = f"{parent}.bogus" if parent else "bogus"
            bad = replaced(cfg, path, 1.0)
            with pytest.raises(ConfigError, match=f"^{path}: unknown field"):
                cli.run_scenario(bad)
            cfg_path.write_text(json.dumps(bad))
            for argv in (["simulate", "--out", str(tmp_path / "out.csv")], ["eigens"]):
                assert cli.main(argv + ["--config", str(cfg_path)]) == 2
                assert f"config error: {path}: unknown field" in capsys.readouterr().err


def test_misspelled_fields_are_config_errors(tmp_path, capsys):
    """A misspelled field used to fall back to its default and exit 0."""
    cfg_path = tmp_path / "cfg.json"
    for path in ("time.sample_strde", "parameters.vss", "parameters.intial"):
        cfg_path.write_text(json.dumps(replaced(swap_cfg(), path, 5 if path.startswith("time") else 0.2)))
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 2
        assert f"{path}: unknown field" in capsys.readouterr().err
    sinusoid = {"kind": "sinusoid", "omgea": 1}
    cfg_path.write_text(json.dumps(replaced(base_single_qubit(), "parameters.ep1", sinusoid)))
    assert cli.main(["eigens", "--config", str(cfg_path)]) == 2
    assert "parameters.ep1.omgea: unknown field" in capsys.readouterr().err


def test_fields_of_another_variant_are_config_errors(tmp_path, capsys):
    """ec* next to a geometry, and the size field of the other basis kind."""
    geometry = {"kind": "parallel", "a": 1.0, "b": 1.0, "d1": 2.0}
    spectral = spectral_cfg()
    cases = [
        (replaced(swap_cfg(), "parameters.geometry", geometry), "parameters.ec11: not allowed with geometry"),
        (replaced(spectral, "parameters.basis.width", 2.0), "parameters.basis.width: unknown field"),
        (replaced(replaced(spectral, "parameters.basis.kind", "box"), "parameters.basis.omega", 2.0),
         "parameters.basis.omega: unknown field"),
    ]
    cfg_path = tmp_path / "cfg.json"
    for cfg, message in cases:
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]) == 2
        assert message in capsys.readouterr().err
    # with a null geometry, the ec* fields set the couplings
    swap = replaced(swap_cfg(), "parameters.geometry", None)
    assert cli.run_scenario(swap)[1] == cli.run_scenario(swap_cfg())[1]


def test_sweep_over_a_field_the_kind_does_not_accept_has_no_ok_row():
    """A sweep over ec11 next to a geometry gave three ok rows with equal energies."""
    swap = replaced(swap_cfg(), "parameters.geometry", {"kind": "parallel", "a": 1.0, "b": 1.0, "d1": 2.0})
    rows = cli.sweep(swap, "parameters.ec11", [0.1, 5.0, 50.0])
    assert [row["status"] for row in rows] == ["failed"] * 3
    assert all(row["error"] == "parameters.ec11: not allowed with geometry" for row in rows)
    rows = cli.sweep(replaced(swap_cfg(), "parameters.vss", 0.1), "parameters.vss", [0.1, 0.2])
    assert [row["status"] for row in rows] == ["failed"] * 2
    assert "parameters.vss: unknown field" in rows[0]["error"]


@pytest.mark.parametrize("value", [["swap"], {"kind": "swap"}, None, 1])
def test_non_string_kind_is_a_config_error(tmp_path, capsys, value):
    cfg_path = tmp_path / "cfg.json"
    paths = ["kind", "parameters.ep1.kind", "parameters.geometry.kind", "parameters.basis.kind"]
    cfgs = [base_single_qubit(), replaced(base_single_qubit(), "parameters.ep1", _SIGNAL_OBJECTS["sinusoid"])]
    cfgs += [cnot_cfg(), spectral_cfg()]
    for cfg, path in zip(cfgs, paths):
        cfg_path.write_text(json.dumps(replaced(cfg, path, value)))
        assert cli.main(["eigens", "--config", str(cfg_path)]) == 2
        assert f"config error: {path}: unknown" in capsys.readouterr().err


def test_sweep_pulls_each_value_after_the_previous_point(monkeypatch):
    """Values are taken one at a time, so a caller can time each point by
    when the next value is asked for."""
    events = []
    run = cli.run_scenario
    monkeypatch.setattr(cli, "run_scenario", lambda cfg, **kw: events.append("run") or run(cfg, **kw))

    def values():
        for value in (0.4, 0.6):
            events.append("pull")
            yield value

    assert [row["status"] for row in cli.sweep(base_single_qubit(), "parameters.ts_mag", values())] == ["ok", "ok"]
    assert events == ["pull", "run", "pull", "run"]


def _readme_field_reference():
    """{scope: paths} from the README field reference: a scenario kind, or
    "geometry"; and the signal kinds with their fields."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Field reference", 1)[1].split("\n### ", 1)[0]
    paths = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 5 or cells[0] in ("kind", "---"):
            continue
        fields = re.findall(r"`([^`]+)`", cells[1])
        for scope in cells[0].split(", "):
            for kind in _KINDS if scope == "all" else [scope]:
                prefix = "" if scope in ("all", "geometry") else "parameters."
                paths.setdefault(kind, set()).update(prefix + field for field in fields)
    signal_kinds = {
        kind: set(re.findall(r'"(\w+)"', rest)) for kind, rest in re.findall(r'\{"kind": "(\w+)", ([^}]*)\}', section)
    }
    return paths, signal_kinds


def test_readme_field_reference_matches_the_schemas():
    paths, signal_kinds = _readme_field_reference()
    for kind in _KINDS:
        # the root's kind picks the schema, as a geometry's or a basis's does
        assert paths[kind] == {"kind"} | set(_schema_leaves(cli._SCHEMAS[kind])), kind
    for fields in cli._GEOMETRIES.values():
        assert paths["geometry"] == {"kind"} | set(fields)
    assert signal_kinds == {kind: set(fields) for kind, fields in cli._SIGNALS.items()}
