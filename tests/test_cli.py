import ast
import copy
import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import posqubit
import posqubit._g17 as _g17
import posqubit.cli as cli
import posqubit.decoherence as dec
import posqubit.measurement as ms
import posqubit.qcore as qcore
import posqubit.signals as signals
import posqubit.single_qubit as sq
import posqubit.spectral as sp
import posqubit.two_qubit as tq
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


def _driven_single_qubit_start():
    """The qubit parameters, initial state and time grid of driven_single_qubit."""
    params = sq.QubitParams(
        signals.sinusoid(0.28, 1.1, 0.4, 0.02), signals.constant(-0.03), signals.constant(0.5), signals.sinusoid(0.5, 0.3)
    )
    psi = np.array([0.6 + 0.1j, 0.3 - 0.4j]) / np.linalg.norm([0.6 + 0.1j, 0.3 - 0.4j])
    return params, psi, 0.5, 0.01, 2000, 3


def _run_amplitudes(series):
    """The position amplitudes of a single-qubit run, from its populations and phases."""
    cols = series.columns
    return np.stack([np.sqrt(cols[f"p_{x}"]) * np.exp(1j * cols[f"phase_{x}"]) for x in ("x1", "x2")], axis=1)


def test_single_qubit_columns_match_rk4_oracle(monkeypatch):
    """The batched run, with its steps in one chunk and in chunks of 7,
    against a per-step loop of the fourth-order commutator-free Magnus step,
    each step the product of two scipy expm factors at the Gauss nodes
    (weights and nodes written out here).  The test keeps the name of the
    per-step RK4 loop that was its oracle while the run stepped by RK4."""
    from scipy.linalg import expm

    cfg = driven_single_qubit()
    runs = [cli.run_scenario(cfg)]
    monkeypatch.setattr(qcore, "STEP_CHUNK", 7)
    runs.append(cli.run_scenario(cfg))
    params, psi, t0, dt, n_steps, stride = _driven_single_qubit_start()
    a1, a2 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
    nodes = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
    starts = t0 + dt * np.arange(n_steps)
    h1, h2 = (sq.build_h2(params, starts + c * dt) for c in nodes)
    steps = expm(-1j * dt * (a1 * h1 + a2 * h2)) @ expm(-1j * dt * (a2 * h1 + a1 * h2))
    rows = []
    for i in range(n_steps + 1):
        t = t0 + i * dt
        if i > 0:
            psi = steps[i - 1] @ psi
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
        assert np.max(np.abs(_run_amplitudes(series) - oracle[:, 5:])) < 1e-12
        assert abs(summary["final_norm"] - np.linalg.norm(oracle[-1, 5:])) < 1e-12


def test_single_qubit_run_is_closer_to_fine_rk4_than_rk4_is():
    """Against evolve_rk4 at dt/10, the run at dt sits closer than RK4 at dt
    does: a fourth-order step with a smaller constant, not a lower order."""
    series, _ = cli.run_scenario(driven_single_qubit())
    params, psi0, t0, dt, n_steps, stride = _driven_single_qubit_start()

    def h_of_t(t):
        return sq.build_h2(params, t)

    fine, coarse = [psi0], [psi0]
    for i in range(1, n_steps + 1):
        t = t0 + i * dt
        fine.append(evolve_rk4(h_of_t, fine[-1], t - dt, t, dt / 10))
        coarse.append(evolve_rk4(h_of_t, coarse[-1], t - dt, t, dt))
    samples = [i for i in range(n_steps + 1) if i % stride == 0 or i == n_steps]
    fine, coarse = np.array(fine)[samples], np.array(coarse)[samples]
    run_error = np.max(np.abs(_run_amplitudes(series) - fine))
    rk4_error = np.max(np.abs(coarse - fine))
    assert run_error < 2e-11 and run_error < rk4_error / 4


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


@st.composite
def _swap_configs(draw):
    """A swap scenario with any hoppings, equal ones among them, and any initial
    state, its couplings four ec* numbers or a parallel geometry, whose
    layout is U-L symmetric."""
    cfg = swap_cfg()
    params = cfg["parameters"]
    t_u = draw(st.floats(0.0, 1.0))
    params.update(vs=draw(st.floats(-2.0, 2.0)), t_u=t_u, t_l=draw(st.just(t_u) | st.floats(0.0, 1.0)))
    ec = ("ec11", "ec22", "ec12", "ec21")
    if draw(st.booleans()):
        params.update({key: draw(st.floats(-2.0, 2.0)) for key in ec})
    else:
        for key in ec:
            del params[key]
        lengths = {key: draw(st.floats(0.1, 5.0)) for key in ("a", "b", "d1")}
        params["geometry"] = {"kind": "parallel", "coulomb_k": draw(st.floats(0.0, 3.0)), **lengths}
    initial = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2), min_size=4, max_size=4))
    assume(sum(re * re + im * im for re, im in initial) > 1e-2)
    params["initial"] = initial
    return cfg


def _exchanged(cfg):
    """``cfg`` with its double dots U and L exchanged: t_u <-> t_l,
    ec12 <-> ec21 and the initial amplitudes 1 <-> 2."""
    cfg = copy.deepcopy(cfg)
    params = cfg["parameters"]
    params["t_u"], params["t_l"] = params["t_l"], params["t_u"]
    if "ec12" in params:
        params["ec12"], params["ec21"] = params["ec21"], params["ec12"]
    initial = params["initial"]
    initial[1], initial[2] = initial[2], initial[1]
    return cfg


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(cfg=_swap_configs())
def test_swap_is_covariant_under_exchanging_the_double_dots(cfg):
    """Exchanging U and L trades p_1 and p_2 and leaves the other columns and
    the summary as they are."""
    series, summary = cli.run_scenario(cfg)
    exchanged, exchanged_summary = cli.run_scenario(_exchanged(cfg))
    np.testing.assert_array_equal(series.t, exchanged.t)
    relabel = {"p_1": "p_2", "p_2": "p_1"}
    assert list(exchanged.columns) == list(series.columns)
    for name, column in series.columns.items():
        assert np.max(np.abs(column - exchanged.columns[relabel.get(name, name)])) <= 1e-12, name
    assert list(exchanged_summary) == list(summary)
    for key, value in summary.items():
        assert np.max(np.abs(np.subtract(value, exchanged_summary[key]))) <= 1e-12, key


@st.composite
def _decoherence_configs(draw):
    """A decoherence scenario with any two qubits, equal ones among them, any
    node distances, coupling and initial state."""
    cfg = decoherence_cfg()
    params = cfg["parameters"]
    qubit = st.fixed_dictionaries(
        {"ep1": st.floats(-1.0, 1.0), "ep2": st.floats(-1.0, 1.0), "ts_mag": st.floats(0.1, 2.0), "alpha": st.floats(-1.0, 1.0)}
    )
    params["qubitA"] = draw(qubit)
    params["qubitB"] = draw(st.just(params["qubitA"]) | qubit)
    params.update({f"d{ij}": draw(st.floats(0.2, 5.0)) for ij in dec.NODE_PAIRS})
    params["coulomb_k"] = draw(st.floats(0.0, 2.0))
    initial = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2), min_size=4, max_size=4))
    assume(sum(re * re + im * im for re, im in initial) > 1e-2)
    params["initial"] = initial
    return cfg


@pytest.mark.parametrize("paper_factorized", [False, True])
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(cfg=_decoherence_configs())
def test_decoherence_is_covariant_under_exchanging_the_qubits(paper_factorized, cfg):
    """Exchanging A and B (qubitA <-> qubitB, d12 <-> d21, initial 1 <-> 2)
    trades the two mixed populations and the two mixed renormalized
    energies.  rho_01 = psi_0 psi_1^* becomes psi_0 psi_2^*, which no column
    prints, so re_rho_01 and im_rho_01 are not compared."""
    cfg["parameters"]["paper_factorized"] = paper_factorized
    exchanged_cfg = copy.deepcopy(cfg)
    params = exchanged_cfg["parameters"]
    params["qubitA"], params["qubitB"] = params["qubitB"], params["qubitA"]
    params["d12"], params["d21"] = params["d21"], params["d12"]
    params["initial"][1], params["initial"][2] = params["initial"][2], params["initial"][1]
    series, summary = cli.run_scenario(cfg)
    exchanged, exchanged_summary = cli.run_scenario(exchanged_cfg)
    np.testing.assert_array_equal(series.t, exchanged.t)
    assert list(exchanged.columns) == list(series.columns)
    relabel = {"p_E1A_E2B": "p_E2A_E1B", "p_E2A_E1B": "p_E1A_E2B"}
    for name, column in series.columns.items():
        if name not in ("re_rho_01", "im_rho_01"):
            assert np.max(np.abs(column - exchanged.columns[relabel.get(name, name)])) <= 1e-12, name
    assert list(exchanged_summary) == list(summary)
    exchanged_summary["renormalized_energies"] = [exchanged_summary["renormalized_energies"][i] for i in (0, 2, 1, 3)]
    for key, value in summary.items():
        assert np.max(np.abs(np.subtract(value, exchanged_summary[key]))) <= 1e-12, key


@pytest.mark.parametrize("paper_factorized", [False, True])
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(cfg=_decoherence_configs())
def test_uncoupled_decoherence_is_two_independent_qubits(paper_factorized, cfg):
    """At coulomb_k = 0 the pair is two independent qubits: over all 2001
    samples the energy populations keep their initial values and
    rho_01 = psi_0 psi_1^* turns at E2B - E1B, qubit B's own gap, read off
    its 2x2 Hamiltonian.  Every sample's phase comes from the tables of the
    integer sample grid, so this pins them end to end."""
    params = cfg["parameters"]
    params.update(coulomb_k=0.0, paper_factorized=paper_factorized)
    cfg["time"] = {"t_max": 20.0, "dt": 0.01}
    series, _ = cli.run_scenario(cfg)
    assert len(series.t) == 2001
    psi0 = np.array([complex(re, im) for re, im in params["initial"]])
    psi0 /= np.linalg.norm(psi0)
    for j, name in enumerate(("p_E1A_E1B", "p_E1A_E2B", "p_E2A_E1B", "p_E2A_E2B")):
        assert np.max(np.abs(series.columns[name] - abs(psi0[j]) ** 2)) <= 1e-12, name
    e1b, e2b = np.linalg.eigvalsh(sq.build_h2(sq.QubitParams(**params["qubitB"]), 0.0))
    rho_01 = psi0[0] * psi0[1].conj() * np.exp(1j * (e2b - e1b) * series.t / qcore.HBAR)
    assert np.max(np.abs(series.columns["re_rho_01"] - rho_01.real)) <= 1e-12
    assert np.max(np.abs(series.columns["im_rho_01"] - rho_01.imag)) <= 1e-12


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(cfg=_swap_configs(), coupling=st.floats(-2.0, 2.0), t_u=st.floats(0.05, 1.0))
def test_swap_with_a_frozen_lower_pair_moves_u_as_a_single_qubit(cfg, coupling, t_u):
    """With t_l = 0 and one coupling for all four node pairs, H4 is
    (H_U + const) x I, H_U = [[vs, t_u], [t_u, vs]]: each lower node's slice
    psi0[:, l] moves as a single-qubit run from it, weighted by its norm,
    and 2 tau = 2 |det psi| stays at its start, as U's step is unitary."""
    params = cfg["parameters"]
    params.pop("geometry", None)
    params.update(t_u=t_u, t_l=0.0, **dict.fromkeys(("ec11", "ec22", "ec12", "ec21"), coupling))
    series, _ = cli.run_scenario(cfg)
    psi0 = np.array([complex(re, im) for re, im in params["initial"]]).reshape(2, 2)
    psi0 /= np.linalg.norm(psi0)
    for lower in (0, 1):
        weight = np.sum(np.abs(psi0[:, lower]) ** 2)
        if weight < 1e-6:
            continue
        single = base_single_qubit(time=cfg["time"])
        single["parameters"].update(ep1=params["vs"], ep2=params["vs"], ts_mag=t_u)
        single["parameters"]["initial"] = [[a.real, a.imag] for a in psi0[:, lower]]
        qubit, _ = cli.run_scenario(single)
        np.testing.assert_array_equal(qubit.t, series.t)
        assert np.max(np.abs(series.columns[f"p_{lower}"] - weight * qubit.columns["p_x1"])) <= 1e-12
        assert np.max(np.abs(series.columns[f"p_{2 + lower}"] - weight * qubit.columns["p_x2"])) <= 1e-12
    tau = 2 * abs(np.linalg.det(psi0))
    assert np.max(np.abs(series.columns["entanglement_2tau"] - tau)) <= 1e-12


def _spectral_relabelled(cfg, grid_reflected):
    """``cfg`` with its wells exchanged, q0 -> q0^T, and either its
    coordinates reflected too, q0 -> (-1)^(n+m) q0^T, or its well_offset negated."""
    cfg = copy.deepcopy(cfg)
    params = cfg["parameters"]
    modes = []
    for n, m, re, im in params["initial_modes"]:
        sign = (-1) ** (n + m) if grid_reflected else 1
        modes.append([m, n, sign * re, sign * im])
    params["initial_modes"] = modes
    if not grid_reflected:
        params["well_offset"] = -params["well_offset"]
    return cfg


@st.composite
def _spectral_configs(draw):
    """A spectral scenario with either basis at 1 to 10 levels, below the
    collision of the p_mode_{n}{m} names, any kernel, well offset and initial modes."""
    n_levels = draw(st.integers(1, 10))
    basis = {"n_levels": n_levels, "n_grid": draw(st.sampled_from([201, 301, 401]))}
    if draw(st.booleans()):
        basis.update(kind="harmonic", omega=draw(st.floats(0.5, 3.0)))
    else:
        basis.update(kind="box", width=draw(st.floats(0.5, 3.0)))
    index = st.integers(0, n_levels - 1)
    entries = draw(st.lists(st.tuples(index, index), min_size=1, max_size=6, unique=True))
    amps = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=len(entries), max_size=len(entries)))
    assume(sum(re * re + im * im for re, im in amps) > 1e-2)
    return {
        "schema_version": 1,
        "kind": "spectral",
        "time": {"t0": 0.0, "t_max": draw(st.sampled_from([0.5, 1.0, 2.0])), "dt": 0.01, "sample_stride": 10},
        "parameters": {
            "basis": basis,
            "kernel": {"e2": draw(st.floats(-2.0, 2.0)), "d_reg": draw(st.floats(0.05, 1.0))},
            "well_offset": draw(st.floats(-3.0, 3.0)),
            "initial_modes": [[n, m, re, im] for (n, m), (re, im) in zip(entries, amps)],
        },
    }


@pytest.mark.parametrize("grid_reflected", [True, False])
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(cfg=_spectral_configs())
def test_spectral_is_covariant_under_exchanging_the_wells(grid_reflected, cfg):
    """Exchanging the wells and reflecting both coordinates (X: q0 -> (-1)^(n+m)
    q0^T) commutes with H; exchanging them and negating well_offset (q0 -> q0^T)
    maps H to itself, as the kernel is even.  Either one transposes p_mode and
    leaves entropy and the summary as they are.  energy_drift is a difference
    of two energies, so its tolerance scales with the largest one: a box of
    width 0.5 at 10 levels has E_9 near 2000."""
    series, summary = cli.run_scenario(cfg)
    relabelled, relabelled_summary = cli.run_scenario(_spectral_relabelled(cfg, grid_reflected))
    np.testing.assert_array_equal(series.t, relabelled.t)
    assert list(relabelled.columns) == list(series.columns)
    transpose = {f"p_mode_{n}{m}": f"p_mode_{m}{n}" for n in range(10) for m in range(10)}
    for name, column in series.columns.items():
        assert np.max(np.abs(column - relabelled.columns[transpose.get(name, name)])) <= 1e-12, name
    assert list(relabelled_summary) == list(summary)
    fields = dict(cfg["parameters"]["basis"])
    basis = (sp.harmonic_basis if fields.pop("kind") == "harmonic" else sp.box_basis)(**fields)
    kernel = cfg["parameters"]["kernel"]
    scale = {"energy_drift": 2.0 * basis.energies.max() + abs(kernel["e2"]) / kernel["d_reg"]}
    for key, value in summary.items():
        assert abs(value - relabelled_summary[key]) <= 1e-12 * max(1.0, scale.get(key, 1.0)), key


def _offset_signal(draw, value):
    """A constant or sinusoid signal config, and the same with ``value`` added."""
    if draw(st.booleans()):
        base = draw(st.floats(-1.0, 1.0))
        return base, base + value
    fields = {"amplitude": draw(st.floats(-0.5, 0.5)), "omega": draw(st.floats(0.0, 3.0)), "phase": draw(st.floats(-3.0, 3.0))}
    offset = draw(st.floats(-1.0, 1.0))
    return {"kind": "sinusoid", **fields, "offset": offset}, {"kind": "sinusoid", **fields, "offset": offset + value}


@st.composite
def _single_qubit_level_shifts(draw):
    """A driven single-qubit scenario, the constant c, and the scenario with c added to ep1 and ep2."""
    c = draw(st.floats(-2.0, 2.0))
    cfg = base_single_qubit()
    t0 = draw(st.sampled_from([0.0, 0.5, -1.25]))
    cfg["time"] = {"t0": t0, "t_max": t0 + 4.0, "dt": 0.01, "sample_stride": draw(st.integers(1, 20))}
    (ep1, ep1_c), (ep2, ep2_c) = _offset_signal(draw, c), _offset_signal(draw, c)
    alpha = draw(st.floats(-3.0, 3.0) | st.just({"kind": "sinusoid", "amplitude": 0.5, "omega": 0.3}))
    initial = draw(st.lists(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2), min_size=2, max_size=2))
    assume(sum(re * re + im * im for re, im in initial) > 1e-2)
    cfg["parameters"].update(ep1=ep1, ep2=ep2, ts_mag=draw(st.floats(0.1, 2.0)), alpha=alpha, initial=initial)
    shifted = copy.deepcopy(cfg)
    shifted["parameters"].update(ep1=ep1_c, ep2=ep2_c)
    return cfg, c, shifted


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=_single_qubit_level_shifts())
def test_single_qubit_populations_ignore_a_common_level_shift(case):
    """Adding c to both site energies adds c times the identity to H, which
    only turns the global phase: the position and energy populations stay,
    E1 and E2 move by c.  The phases move with the global phase and are not
    compared."""
    cfg, c, shifted_cfg = case
    series, summary = cli.run_scenario(cfg)
    shifted, shifted_summary = cli.run_scenario(shifted_cfg)
    for name in ("p_x1", "p_x2", "p_E1", "p_E2"):
        assert np.max(np.abs(series.columns[name] - shifted.columns[name])) <= 1e-12, name
    assert abs(shifted_summary["E1"] - summary["E1"] - c) <= 1e-12
    assert abs(shifted_summary["E2"] - summary["E2"] - c) <= 1e-12
    assert abs(shifted_summary["final_norm"] - summary["final_norm"]) <= 1e-12


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    ep=st.floats(-1.0, 1.0),
    ts=st.floats(0.1, 1.5),
    t0=st.floats(-3.0, 3.0),
    amps=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda a: np.linalg.norm(a) > 0.1),
    stride=st.sampled_from([1, 7]),
)
def test_undriven_symmetric_wells_follow_the_hadamard_closed_form(ep, ts, t0, amps, stride):
    """Undriven symmetric wells (ep1 = ep2 = ep, alpha = 0) evolve by the
    paper's closed form ``analytic_c1c2``: at every sample the node
    populations are |c1|^2 and |c2|^2 and the phases arg c1 and arg c2,
    compared as e^{i(phi - phi')} across the cut at +-pi; from a node
    state, p_x1 oscillates at 2 |ts|."""
    c0 = np.array([complex(*amps[:2]), complex(*amps[2:])]) / np.linalg.norm(amps)
    cfg = base_single_qubit(time={"t0": t0, "t_max": t0 + 20.0, "dt": 0.01, "sample_stride": stride})
    cfg["parameters"].update(ep1=ep, ep2=ep, ts_mag=ts, initial=[[c.real, c.imag] for c in c0])
    series, _ = cli.run_scenario(cfg)
    c1, c2 = np.array([sq.analytic_c1c2(*c0, ep, ts, 0.0, 0.0, t0, t) for t in series.t.tolist()]).T
    for node, c in (("x1", c1), ("x2", c2)):
        assert np.max(np.abs(series.columns[f"p_{node}"] - np.abs(c) ** 2)) <= 1e-11, node
        assert np.max(np.abs(np.exp(1j * (series.columns[f"phase_{node}"] - np.angle(c))) - 1.0)) <= 1e-11, node
    cfg["parameters"]["initial"] = [[1.0, 0.0], [0.0, 0.0]]
    _, summary = cli.run_scenario(cfg)
    if 20.0 * ts >= 2.0 * np.pi:  # two periods of p_x1 = cos^2(|ts| t) in the span
        assert abs(summary["angular_frequency_p_x1"] - 2.0 * ts) <= 1e-4 * 2.0 * ts


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


def test_spectral_sample_budget_exits_2_before_anything_large_is_allocated(tmp_path, capsys, monkeypatch):
    """samples x n_levels**2 is capped by MAX_MODE_SAMPLES before the basis is
    built: one sample over the cap at 16 levels exits 2 naming ``time``, with a
    traced peak far below the 57.7 MiB that a point at the cap reaches."""

    class BasisBuilt(Exception):
        pass

    def built(*args, **kwargs):
        raise BasisBuilt

    at_cap = cli.MAX_MODE_SAMPLES // 16**2
    cfg = spectral_cfg()
    cfg["parameters"]["basis"] = {"kind": "harmonic", "n_levels": 16, "n_grid": cli.MAX_GRID}
    for samples in (at_cap + 1, 10 * at_cap):
        cfg["time"] = {"t_max": 0.01 * (samples - 1), "dt": 0.01}
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"^time: .*MAX_MODE_SAMPLES"):
                cli.run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (samples, peak)
        path = tmp_path / "over.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error: time: ")
    # at the cap the check passes and the runner goes on to build the basis
    monkeypatch.setattr(sp, "harmonic_basis", built)
    cfg["time"] = {"t_max": 0.01 * (at_cap - 1), "dt": 0.01}
    with pytest.raises(BasisBuilt):
        cli.run_scenario(cfg)


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
    """The formatter format_csv replaced: one f-string per value, over rows
    built here from ``series.t`` and ``series.columns``, not read from its table."""
    rows = zip(series.t, *series.columns.values())
    lines = [cli.CSV_HEADER] + [f"# {k} = {json.dumps(summary[k])}" for k in sorted(summary)]
    lines.append(",".join(["t", *series.columns]))
    lines += [",".join(f"{x:.17g}" for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _values_for_every_branch(local):
    """Inputs that reach each branch of the formatter, keyed by what they test."""
    bits = local.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64)
    subnormal = local.integers(1, 2**52, size=2000, dtype=np.uint64) | (local.integers(0, 2, size=2000, dtype=np.uint64) << 63)
    powers = 10.0 ** np.arange(-20, 23)
    three_digit = 10.0 ** local.uniform(100, 308, size=200) * local.choice([-1.0, 1.0], size=200)
    return {
        "bit patterns": bits[np.isfinite(bits)],
        "subnormals": subnormal.view(np.float64),
        "%g switches": np.array([9.9999999999999991e-05, 1e-4, 99999999999999984.0, 1e17]),
        "powers of ten": np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]),
        "3-digit exponents": np.concatenate([three_digit, 1 / three_digit]),
        "zeros and non-finite": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 0.0]),
    }


def _exact_ties(local):
    """m / 2**18 in [0.1, 1) for odd m: 18 significant digits, the last a 5,
    so rounding to 17 digits is an exact tie (half to even)."""
    m = 2 * local.integers(2**18 // 20, 2**17, size=2000) + 1
    return m / 2.0**18


def test_format_csv_matches_per_value_formatter(monkeypatch):
    outputs = [cli.run_scenario(complete_cfg(kind)) for kind in _KINDS]
    local = np.random.default_rng(31)
    scaled = local.normal(size=(300, 4)) * 10.0 ** local.integers(-320, 308, size=(300, 4))
    special = [-0.0, 0.0, 5e-324, -5e-324, 1.5e-310, -2.2e-308, 1e308, -1e308, 2.0**53, -7.0, 1e22, 123456789.0]
    scaled[: len(special), 0] = special
    scaled[:, 3] = np.round(local.normal(size=300) * 1e6)  # integral floats
    outputs.append((cli.TimeSeries(scaled[:, 0], {"a": scaled[:, 1], "b": scaled[:, 2], "c": scaled[:, 3]}), {}))
    edge = np.array([-0.0, 5e-324, 1e300, 3.0, -2.0, 1e16, 0.1, -1.7976931348623157e308])
    edge_output = (cli.TimeSeries(edge, {"x": edge[::-1], "y": np.round(edge)}), {"n": 1})
    outputs.append(edge_output)
    for name, values in _values_for_every_branch(local).items():
        for n_cols in (1, 3, 7):  # 1 column: every separator is a newline
            rows = np.resize(values, (-(-values.size // n_cols), n_cols))
            outputs.append((cli.TimeSeries(rows[:, 0], {f"c{i}": rows[:, i] for i in range(1, n_cols)}), {"case": name}))
    outputs.append((cli.TimeSeries(np.zeros(3000), {"zero": -np.zeros(3000)}), {}))
    for series, summary in outputs:
        assert cli.format_csv(series, summary) == _format_csv_per_value(series, summary)
    rows = cli.format_csv(*edge_output).splitlines()[3:5]
    assert rows == ["-0,-1.7976931348623157e+308,-0", "4.9406564584124654e-324,0.10000000000000001,0"]

    # ties take the scalar path, and only they do: ±0 stay on the array path
    scalar = []
    original = _g17._scalar
    monkeypatch.setattr(_g17, "_scalar", lambda v: scalar.append(v) or original(v))
    ties = _exact_ties(local)
    halves = ties - 2.0**-18  # even m: 17 significant digits, no tie
    series = cli.TimeSeries(ties, {"neg": -ties, "halves": halves, "zero": np.zeros_like(ties), "minus_zero": -np.zeros_like(ties)})
    assert cli.format_csv(series, {}) == _format_csv_per_value(series, {})
    assert sorted(scalar) == sorted([*ties, *-ties])
    # the 17th digit, odd or even, rounds the tie up or down (half to even)
    assert {int(v * 2**18) * 5**18 // 10 % 2 for v in ties} == {0, 1}


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


def test_run_scenario_builds_no_table_and_checks_every_value(monkeypatch):
    """A run that is never formatted, such as a sweep point, builds no
    table; the first read forms it, C-ordered, with t and every column as
    views of it.  A non-finite value in any column or in the summary still
    fails the run."""
    series, summary = cli.run_scenario(decoherence_cfg())
    assert "table" not in vars(series)
    t, columns = series.t.copy(), {name: column.copy() for name, column in series.columns.items()}
    table = series.table
    assert table.flags.c_contiguous and table.shape == (len(t), 1 + len(columns))
    assert np.shares_memory(series.t, table) and np.array_equal(series.t, t)
    for name, column in columns.items():
        assert np.shares_memory(series.columns[name], table) and np.array_equal(series.columns[name], column)
    runner = cli._RUNNERS["decoherence"]
    for where in [*columns, *summary]:

        def poisoned(*args, where=where, **kwargs):
            cols, summ = runner(*args, **kwargs)
            if where in cols:
                cols[where] = np.where(np.arange(len(t)) == len(t) // 2, np.inf, cols[where])
            else:
                summ[where] = np.full(np.shape(summ[where]), np.nan).tolist()
            return cols, summ

        monkeypatch.setitem(cli._RUNNERS, "decoherence", poisoned)
        with pytest.raises(FloatingPointError, match="non-finite"):
            cli.run_scenario(decoherence_cfg())


def test_format_csv_memory_is_bounded_by_its_blocks():
    """The galerkin stepping point's shape, 201 samples of t plus 256 mode
    populations, most of them tiny: 1.12 MiB of text.  Formatted in blocks
    of about 2048 values straight from the series' table, format_csv peaks
    at 2.25 MiB: the blocks' bytes and their join, then the text.  A second
    copy of the table (0.39 MiB) read 2.64 MiB, the former % format
    3.40 MiB and one block of all the values 23.8 MiB."""
    local = np.random.default_rng(41)
    values = local.random((201, 257)) * 10.0 ** local.integers(-16, 0, size=(201, 257))
    series = cli.TimeSeries(values[:, 0], {f"p_mode_{i}": values[:, i] for i in range(1, 257)})
    cli.format_csv(series, {"min_purity": 1.0})
    tracemalloc.start()
    try:
        text = cli.format_csv(series, {"min_purity": 1.0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2**20 and peak < 2.5 * 2**20, peak / 2**20


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
        cfg["parameters"]["paper_factorized"] = paper_factorized
        series, _ = cli.run_scenario(cfg)
        assert len(series.t) == 2001 and calls == ["hdec", (4, 4)]


@pytest.mark.parametrize("paper_factorized", [False, True])
def test_decoherence_point_exponentials_grow_as_the_root_of_its_samples(monkeypatch, paper_factorized):
    """The runner passes its integer sample grid, so the phases of 4 levels
    take 4 x (b + k_max / b) exponentials, b about sqrt(k_max), once per
    propagation (twice with the split): 362 values at 2001 samples and 718
    at 8001 (722 and 1434 split), where one per sample and level takes
    8004 and 32004."""
    exp = np.exp
    values = []

    def counting(x, *args, **kwargs):
        values.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    cfg = replaced(complete_cfg("decoherence"), "parameters.paper_factorized", paper_factorized)
    counts = []
    for t_max in (20.0, 80.0):
        cfg["time"] = {"t_max": t_max, "dt": 0.01}
        values.clear()
        series, _ = cli.run_scenario(cfg)
        counts.append((len(series.t), sum(values)))
    (small, at_small), (large, at_large) = counts
    assert (small, large) == (2001, 8001)
    propagations = 2 if paper_factorized else 1
    assert at_small <= propagations * 4 * 2 * (math.isqrt(2000) + 1) + 2
    assert at_large <= 2.05 * at_small


def test_decoherence_run_propagates_amplitudes_not_densities(monkeypatch):
    propagate = qcore.propagate
    calls = []

    def recording(h, y0, dt, steps):
        calls.append(np.shape(y0))
        return propagate(h, y0, dt, steps)

    def refuse(*args, **kwargs):
        raise AssertionError("a decoherence point took the density path")

    for module in (qcore, dec):
        monkeypatch.setattr(module, "propagate", recording)
    monkeypatch.setattr(dec, "evolve_density_with_decoherence", refuse)
    for paper_factorized in (False, True):
        calls.clear()
        series, _ = cli.run_scenario(replaced(decoherence_cfg(), "parameters.paper_factorized", paper_factorized))
        # with the split, every sample starts from its own D(t) psi0
        start = (len(series.t), 4) if paper_factorized else (4,)
        assert calls == [start]


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
        cfg["parameters"]["paper_factorized"] = paper_factorized
        series, summary = cli.run_scenario(cfg)
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


def test_only_simulate_loads_the_csv_formatter(tmp_path):
    """format_csv imports posqubit._g17 when it runs, so sweep and eigens
    never build the formatter's tables.  This module imports _g17 itself,
    so each command runs in a fresh process."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_single_qubit()))
    out = str(tmp_path / "out")
    script = "import sys\nimport posqubit.cli as cli\ncode = cli.main(sys.argv[1:])\nprint(code, 'posqubit._g17' in sys.modules)\n"
    src = str(Path(posqubit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    commands = {
        "simulate": (["--out", out], "0 True"),
        "sweep": (["--axis", "parameters.ts_mag", "--values", "0.4,0.5", "--out", out], "0 False"),
        "eigens": ([], "0 False"),
    }
    for command, (args, expected) in commands.items():
        argv = [sys.executable, "-c", script, command, "--config", str(cfg_path), *args]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert (done.stderr, done.stdout.splitlines()[-1]) == ("", expected), command


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

    # so is a repeated (n, m) pair, whose later amplitude would replace the earlier;
    # (0, 1) and (1, 0) are distinct modes
    spectral = spectral_cfg()
    spectral["parameters"]["initial_modes"] = [[0, 1, 1.0, 0.0], [1, 0, 0.5, 0.0], [0, 1, 0.0, 1.0]]
    cfg_path.write_text(json.dumps(spectral))
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 2
    assert "parameters.initial_modes: mode (0, 1) is listed more than once" in capsys.readouterr().err
    del spectral["parameters"]["initial_modes"][2]
    cfg_path.write_text(json.dumps(spectral))
    assert cli.main(["simulate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()

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
        *[(decoherence_cfg(), "parameters.paper_factorized", value, 2) for value in (0, 1, "true", None)],
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


def _constant_h_configs():
    """One config of each kind whose Hamiltonian does not depend on t, by name."""
    swap_geometry = complete_cfg("swap")
    params = swap_geometry["parameters"]
    for key in ("ec11", "ec22", "ec12", "ec21"):
        del params[key]
    params.update(t_l=0.25, initial=[[0.6, 0.1], [0.3, -0.4], [0.0, 0.2], [0.5, 0.0]])
    params["geometry"] = {"kind": "collinear", "a": 0.5, "b": 0.7, "d": 2.0, "d1": 1.0, "d2": 1.3, "d3": 2.0, "coulomb_k": 0.8}
    swap_ec = complete_cfg("swap")
    swap_ec["parameters"].update(t_l=0.3, ec12=0.6, initial=[[0.6, 0.1], [0.3, -0.4], [0.0, 0.2], [0.5, 0.0]])
    spectral = complete_cfg("spectral")
    spectral["parameters"]["basis"]["n_levels"] = 4
    spectral["parameters"]["initial_modes"] = [[0, 1, 1.0, 0.0], [2, 0, 0.3, -0.5], [3, 3, 0.0, 0.4]]
    cfgs = {"swap ec": swap_ec, "swap geometry": swap_geometry, "spectral": spectral, "cnot": complete_cfg("cnot")}
    for split in (False, True):
        cfgs[f"decoherence split={split}"] = replaced(complete_cfg("decoherence"), "parameters.paper_factorized", split)
    return cfgs


@pytest.mark.parametrize("shift", [5.0, 1e12])
@pytest.mark.parametrize("name", sorted(_constant_h_configs()))
def test_constant_h_kinds_do_not_depend_on_t0(name, shift):
    """Swap, decoherence, spectral and cnot propagate over the elapsed spans
    dt * k, so moving t0 and t_max together, with the span exact, moves the
    t column only: every other column and the summary are equal bit for bit.
    Rebuilding t0 + dt * k and subtracting t0 again is off by 1.5e-5 on
    swap at t0 = 1e12."""
    cfg = _constant_h_configs()[name]
    span = cfg["time"]["t_max"] - cfg["time"]["t0"]
    shifted = replaced(cfg, "time.t0", cfg["time"]["t0"] + shift)
    shifted["time"]["t_max"] = shifted["time"]["t0"] + span
    assert shifted["time"]["t_max"] - shifted["time"]["t0"] == span
    series, summary = cli.run_scenario(cfg)
    moved, moved_summary = cli.run_scenario(shifted)
    np.testing.assert_array_equal(moved.t, shift + series.t)
    assert list(moved.columns) == list(series.columns)
    for key, column in series.columns.items():
        np.testing.assert_array_equal(moved.columns[key], column, err_msg=key)
    assert moved_summary == summary


def _swap_by_the_former_loop(cfg):
    """Columns and summary of a swap scenario from its former per-sample loop,
    on the eigensystem oracle of tests/test_qcore.py: U = (V e^{-iEt}) V^dag,
    psi = U psi0 and 2 tau = 2 |a0 a3 - a1 a2| in NumPy scalars, one sample
    at a time at the elapsed spans dt * k."""
    from test_qcore import _eig_hermitian_oracle

    _, (_, dt, _, steps), params = cli._read_scenario(cfg)
    psi0 = params.pop("initial")
    energies, vectors = _eig_hermitian_oracle(tq.build_h4(cli._swap_params(**params)))
    amps = np.empty((steps.size, 4), dtype=complex)
    ent = np.empty(steps.size)
    for i, span in enumerate(dt * steps):
        u = (vectors * np.exp((-1j * span / qcore.HBAR) * energies)) @ vectors.conj().T
        psi = u @ psi0 if span > 0 else psi0
        amps[i] = psi
        ent[i] = 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])
    pops = np.abs(amps) ** 2
    columns = {f"p_{k}": pops[:, k] for k in range(4)}
    columns["entanglement_2tau"] = ent
    summary = {
        "eigenenergies": [float(x) for x in energies],
        "final_norm": float(np.sqrt(pops[-1].sum())),
        "max_entanglement_2tau": float(ent.max()),
    }
    return columns, summary


@pytest.mark.parametrize("t0", [0.0, 1.3])
@pytest.mark.parametrize("name", ["swap ec", "swap symmetric ec", "swap geometry"])
def test_swap_columns_match_the_former_per_sample_loop(name, t0):
    """The swap runner gives its former loop's column bytes and summary, on an
    ec* config, a symmetric one (tied eigenvector components, so the pivot
    rule shows) and a geometry config, counted from t0 = 0 and from 1.3."""
    cfg = {**_constant_h_configs(), "swap symmetric ec": swap_cfg()}[name]
    cfg = replaced(cfg, "time.t0", t0)
    cfg["time"].update(t_max=t0 + 2.0, dt=0.01, sample_stride=3)
    series, summary = cli.run_scenario(cfg)
    columns, expected = _swap_by_the_former_loop(cfg)
    assert list(series.columns) == list(columns)
    for key, column in columns.items():
        assert series.columns[key].tobytes() == column.tobytes(), key
    # a symmetric structure adds its closed-form keys, which no loop forms
    assert set(summary) - set(expected) <= {"closed_form_eigenenergies", "gap_E1_E2"}
    assert {key: summary[key] for key in expected} == expected


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


def _broad_handlers(tree):
    """Line numbers of the handlers in ``tree`` that catch every exception."""
    broad = {"Exception", "BaseException"}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(t is None or (isinstance(t, ast.Name) and t.id in broad) for t in caught):
            lines.append(node.lineno)
    return lines


def test_no_source_module_catches_every_exception():
    """A broad handler would turn a MemoryError or a programming error into exit 2 or 3."""
    assert _broad_handlers(ast.parse("try:\n    pass\nexcept:\n    pass\n")) == [3]
    assert _broad_handlers(ast.parse("try:\n    pass\nexcept (ValueError, Exception):\n    pass\n")) == [3]
    assert _broad_handlers(ast.parse("try:\n    pass\nexcept ValueError:\n    pass\n")) == []
    found = {}
    for path in sorted(Path(posqubit.__file__).parent.glob("*.py")):
        lines = _broad_handlers(ast.parse(path.read_text()))
        if lines:
            found[path.name] = lines
    assert found == {}


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


def test_the_decoherence_split_is_a_field_of_its_schema_only(tmp_path, capsys):
    """``parameters.paper_factorized`` is read like every other field, so
    the other kinds reject it; no command-line flag sets it."""
    cfg_path = tmp_path / "cfg.json"
    argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out.csv")]
    path = "parameters.paper_factorized"
    for kind in _KINDS:
        if kind != "decoherence":
            cfg_path.write_text(json.dumps(replaced(complete_cfg(kind), path, True)))
            assert cli.main(argv) == 2, kind
            assert f"config error: {path}: unknown field" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv + ["--paper-factorized"])
    assert exit_info.value.code == 2
    capsys.readouterr()


def test_a_sweep_reads_the_split_from_its_config_and_cannot_sweep_it(tmp_path, capsys):
    split = replaced(decoherence_cfg(), "parameters.paper_factorized", True)
    rows = cli.sweep(split, "parameters.d12", [1.2, 2.0])
    exact = cli.sweep(decoherence_cfg(), "parameters.d12", [1.2, 2.0])
    for row, exact_row, d12 in zip(rows, exact, (1.2, 2.0)):
        assert row["status"] == "ok" and row != exact_row
        assert {k: v for k, v in row.items() if k not in ("status", "value")} == cli.run_scenario(
            replaced(split, "parameters.d12", d12)
        )[1]
    # a boolean is not a numeric axis, though bool is a subclass of int
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(split))
    argv = ["sweep", "--config", str(cfg_path), "--axis", "parameters.paper_factorized", "--values", "0,1"]
    assert cli.main(argv + ["--out", str(tmp_path / "sweep.json")]) == 2
    assert "config error: parameters.paper_factorized: sweep axis must name a numeric field" in capsys.readouterr().err
    assert not (tmp_path / "sweep.json").exists()


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
    run = cli._run
    monkeypatch.setattr(cli, "_run", lambda *read: events.append("run") or run(*read))

    def values():
        for value in (0.4, 0.6):
            events.append("pull")
            yield value

    assert [row["status"] for row in cli.sweep(base_single_qubit(), "parameters.ts_mag", values())] == ["ok", "ok"]
    assert events == ["pull", "run", "pull", "run"]


def _sweep_by_the_former_loop(cfg, axis, values):
    """The sweep as it read every point: a JSON copy of the whole config per
    value, with the value set, read and run by ``run_scenario``."""
    rows = []
    for value in values:
        local = cli._set_path(json.loads(json.dumps(cfg)), axis, value)
        row = {"value": value}
        try:
            _, summary = cli.run_scenario(local)
            row["status"] = "ok"
            row.update(summary)
        except cli._RUN_FAILURES as exc:
            row["status"] = "failed"
            row["error"] = str(exc)
        rows.append(row)
    return rows


def _sweep_cases():
    sinusoid = replaced(base_single_qubit(), "parameters.ep1", _SIGNAL_OBJECTS["sinusoid"])
    spectral = replaced(spectral_cfg(), "parameters.basis.n_grid", 401)
    swap_geometry = replaced(swap_cfg(), "parameters.geometry", {"kind": "parallel", "a": 1.0, "b": 1.0, "d1": 2.0})
    return {
        "decoherence d12": (decoherence_cfg(), "parameters.d12", [1.2, -1.0, 2.0]),
        "decoherence nested leaf": (decoherence_cfg(), "parameters.qubitA.ts_mag", [0.8, 1.3]),
        "signal object leaf": (sinusoid, "parameters.ep1.amplitude", [0.3, 0.05]),
        "numerical failure": (base_single_qubit(), "parameters.ts_mag", [0.5, 0.0, 1.0]),
        "time.t_max": (base_single_qubit(), "time.t_max", [3.0, -1.0, 5.0]),
        "time.dt": (base_single_qubit(), "time.dt", [0.02, 0.03, 0.01]),
        "time.sample_stride": (replaced(base_single_qubit(), "time.t_max", 20.0), "time.sample_stride", [50, 0, 1]),
        "geometry object leaf": (cnot_cfg(), "parameters.geometry.d", [2.5, 1.5]),
        "basis object leaf": (spectral, "parameters.basis.n_grid", [401, 400, 401]),
        "swap t_u": (swap_cfg(), "parameters.t_u", [0.3, 0.5]),
        "swap ec11 next to a geometry": (swap_geometry, "parameters.ec11", [0.1, 5.0]),
        "invalid field before the axis": (replaced(decoherence_cfg(), "parameters.d11", -1.0), "parameters.d12", [1.0, -1.0]),
        "invalid field after the axis": (replaced(decoherence_cfg(), "parameters.d21", -1.0), "parameters.d12", [1.0, -1.0]),
        "axis the kind lacks": (replaced(swap_cfg(), "parameters.vss", 0.1), "parameters.vss", [0.1, 0.2]),
    }


@pytest.mark.parametrize("name", list(_sweep_cases()))
def test_sweep_rows_equal_the_rows_of_each_whole_config(monkeypatch, name):
    """A sweep reads its config once and then only the swept field per
    value; each row stays that of reading the value's whole config, its
    error text included, the caller's config is left as it was, and each
    value is pulled only after the previous point has run."""
    cfg, axis, values = _sweep_cases()[name]
    before = json.dumps(cfg, sort_keys=True)
    events = []
    run = cli._run
    monkeypatch.setattr(cli, "_run", lambda *read: events.append("run") or run(*read))

    def pulled(sweep):
        events.clear()
        rows = sweep(cfg, axis, (events.append("pull") or value for value in values))
        return json.dumps(rows, sort_keys=True), list(events)

    expected, expected_events = pulled(_sweep_by_the_former_loop)
    assert pulled(cli.sweep) == (expected, expected_events)
    assert json.dumps(cfg, sort_keys=True) == before
    if name == "invalid field after the axis":
        assert ["parameters.d21" in row["error"] for row in json.loads(expected)] == [True, False]


def test_a_sweep_over_a_bad_axis_fails_at_its_first_value():
    """The axis is checked at the first value, so an empty value list gives
    no rows and an error."""
    assert cli.sweep(base_single_qubit(), "parameters.nope", []) == []
    with pytest.raises(ConfigError, match="parameters.nope: sweep axis must name a numeric field"):
        cli.sweep(base_single_qubit(), "parameters.nope", iter([1.0]))


def test_a_sweep_copies_an_axis_nested_deeper_than_the_stack():
    """JSON documents can nest deeper than Python's recursion limit (the
    decoder's own limit is separate from Python 3.12 on), so the axis path
    is copied in a loop."""
    depth = sys.getrecursionlimit() + 100
    node = 1.0
    for _ in range(depth):
        node = {"a": node}
    cfg = base_single_qubit()
    cfg["parameters"]["x"] = node
    (row,) = cli.sweep(cfg, "parameters.x" + ".a" * depth, [2.0])
    assert row["status"] == "failed" and row["error"].startswith("parameters.x: unknown field")


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
