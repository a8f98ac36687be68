"""Scenario-driven command-line front end.

Subcommands:

    simulate --config FILE [--out FILE] [--format csv|json] [--paper-factorized]
    sweep    --config FILE --axis DOTTED.PATH --values LIST|START:STOP:NUM [--out FILE]
    eigens   --config FILE

Configuration is a JSON document with a ``schema_version`` field, a
scenario ``kind`` (single-qubit, rabi, swap, cnot, decoherence,
spectral), a ``time`` block (t0, t_max, dt, sample_stride) and a
``parameters`` block matching the scenario.  Signal-valued parameters
are either numbers or objects like
{"kind": "sinusoid", "amplitude": 1, "omega": 2, "phase": 0, "offset": 0}
or {"kind": "table", "times": [...], "values": [...]}.

Outputs are deterministic: identical configs produce identical bytes
(modulo the versioned header line).  Exit codes: 0 success, 2 config
error, 3 numerical failure.
"""

import argparse
import copy
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import decoherence as dec
from . import measurement as ms
from . import signals
from . import single_qubit as sq
from . import spectral as sp
from . import two_qubit as tq
from .errors import ConfigError, PosQubitError
from .qcore import HBAR, StateVector, eig_hermitian, evolve_rk4

CSV_HEADER = "# posqubit csv v1"
SCHEMA_VERSION = 1


@dataclass
class TimeSeries:
    t: np.ndarray
    columns: dict  # name -> real array

    def as_rows(self):
        names = ["t"] + list(self.columns)
        cols = [self.t] + [self.columns[k] for k in self.columns]
        return names, np.column_stack(cols)


def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


def _get(cfg, path, default=None, required=False):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                _fail(path, "missing required field")
            return default
        node = node[part]
    return node


def _signal_from(cfg_value, path):
    if isinstance(cfg_value, (int, float)):
        return signals.constant(float(cfg_value))
    if isinstance(cfg_value, dict):
        kind = cfg_value.get("kind")
        if kind == "constant":
            return signals.constant(float(cfg_value.get("value", 0.0)))
        if kind == "sinusoid":
            return signals.sinusoid(
                float(cfg_value.get("amplitude", 0.0)),
                float(cfg_value.get("omega", 0.0)),
                float(cfg_value.get("phase", 0.0)),
                float(cfg_value.get("offset", 0.0)),
            )
        if kind == "table":
            try:
                return signals.table(cfg_value["times"], cfg_value["values"])
            except (KeyError, ValueError) as exc:
                _fail(path, str(exc))
        _fail(path, f"unknown signal kind {kind!r}")
    _fail(path, f"expected number or signal object, got {type(cfg_value).__name__}")


def _complex_list(raw, path):
    try:
        return np.array([complex(re, im) for re, im in raw])
    except (TypeError, ValueError):
        _fail(path, "expected list of [re, im] pairs")


def _time_block(cfg):
    t0 = float(_get(cfg, "time.t0", 0.0))
    t_max = _get(cfg, "time.t_max", required=True)
    dt = _get(cfg, "time.dt", required=True)
    stride = int(_get(cfg, "time.sample_stride", 1))
    if not isinstance(dt, (int, float)) or dt <= 0:
        _fail("time.dt", "must be a positive number")
    if not isinstance(t_max, (int, float)) or t_max <= t0:
        _fail("time.t_max", "must exceed time.t0")
    if stride < 1:
        _fail("time.sample_stride", "must be >= 1")
    return t0, float(t_max), float(dt), stride


def extract_frequency(t, series):
    """Angular frequency from linear-interpolated zero crossings of
    (series - mean); returns 0.0 when fewer than two crossings exist."""
    y = np.asarray(series, dtype=float) - float(np.mean(series))
    ups, downs = [], []
    for i in range(len(y) - 1):
        if y[i] * y[i + 1] < 0.0:
            frac = y[i] / (y[i] - y[i + 1])
            tc = t[i] + frac * (t[i + 1] - t[i])
            (ups if y[i] < 0.0 else downs).append(tc)
    # same-direction crossings are exactly one period apart, so any offset
    # of the mean estimate cancels
    best = max(ups, downs, key=len)
    if len(best) < 2:
        return 0.0
    period = (best[-1] - best[0]) / (len(best) - 1)
    return float(2.0 * np.pi / period)


def _qubit_params(cfg):
    return sq.QubitParams(
        ep1=_signal_from(_get(cfg, "parameters.ep1", 0.0), "parameters.ep1"),
        ep2=_signal_from(_get(cfg, "parameters.ep2", 0.0), "parameters.ep2"),
        ts_mag=_signal_from(_get(cfg, "parameters.ts_mag", required=True), "parameters.ts_mag"),
        alpha=_signal_from(_get(cfg, "parameters.alpha", 0.0), "parameters.alpha"),
    )


def _run_single_qubit(cfg):
    params = _qubit_params(cfg)
    t0, t_max, dt, stride = _time_block(cfg)
    amps = _complex_list(
        _get(cfg, "parameters.initial", [[1.0, 0.0], [0.0, 0.0]]), "parameters.initial"
    )
    if amps.size != 2:
        _fail("parameters.initial", "expected two amplitudes")
    psi = amps / np.linalg.norm(amps)

    n_steps = int(round((t_max - t0) / dt))
    ts, px1, px2, pe1, pe2, ph1, ph2 = [], [], [], [], [], [], []
    for i in range(n_steps + 1):
        t = t0 + i * dt
        if i > 0:
            psi = evolve_rk4(lambda tp: sq.build_h2(params, tp), psi, t - dt, t, dt)
        if i % stride == 0 or i == n_steps:
            co = sq.eigencoeffs(params, t)
            s = co.basis_matrix()
            c_en = s.conj() @ psi
            ts.append(t)
            px1.append(abs(psi[0]) ** 2)
            px2.append(abs(psi[1]) ** 2)
            pe1.append(abs(c_en[0]) ** 2)
            pe2.append(abs(c_en[1]) ** 2)
            ph1.append(float(np.angle(psi[0])))
            ph2.append(float(np.angle(psi[1])))
    series = TimeSeries(
        np.array(ts),
        {
            "p_x1": np.array(px1),
            "p_x2": np.array(px2),
            "p_E1": np.array(pe1),
            "p_E2": np.array(pe2),
            "phase_x1": np.array(ph1),
            "phase_x2": np.array(ph2),
        },
    )
    co = sq.eigencoeffs(params, t0)
    summary = {
        "E1": co.e1,
        "E2": co.e2,
        "angular_frequency_p_x1": extract_frequency(series.t, series.columns["p_x1"]),
        "final_norm": float(np.linalg.norm(psi)),
    }
    return series, summary


def _run_rabi(cfg):
    e1 = _signal_from(_get(cfg, "parameters.e1", required=True), "parameters.e1")
    e2 = _signal_from(_get(cfg, "parameters.e2", required=True), "parameters.e2")
    e12 = _signal_from(_get(cfg, "parameters.e12", 0.0), "parameters.e12")
    t0, t_max, dt, stride = _time_block(cfg)
    amps = _complex_list(
        _get(cfg, "parameters.initial", [[1.0, 0.0], [0.0, 0.0]]), "parameters.initial"
    )
    psi0 = amps / np.linalg.norm(amps)
    sample_dt = dt * stride
    n = int(round((t_max - t0) / sample_dt))
    ts = t0 + sample_dt * np.arange(n + 1)
    pe1, pe2, defect = [], [], []
    for t in ts:
        u = sq.rabi_evolution_matrix(e1, e2, e12, t0, t) if t > t0 else np.eye(2)
        psi = u @ psi0
        pe1.append(abs(psi[0]) ** 2)
        pe2.append(abs(psi[1]) ** 2)
        defect.append(float(np.max(np.abs(u.conj().T @ u - np.eye(2)))))
    series = TimeSeries(
        ts, {"p_E1": np.array(pe1), "p_E2": np.array(pe2), "unitarity_defect": np.array(defect)}
    )
    summary = {"max_unitarity_defect": float(np.max(defect)), "final_norm": float(np.sqrt(pe1[-1] + pe2[-1]))}
    return series, summary


def _swap_params(cfg):
    geom_cfg = _get(cfg, "parameters.geometry")
    if geom_cfg is not None:
        try:
            geom = tq.DotGeometry(**geom_cfg)
        except (TypeError, ValueError) as exc:
            _fail("parameters.geometry", str(exc))
        couplings = tq.coulomb_couplings(geom)
    else:
        couplings = tq.CoulombCouplings(
            ec11=float(_get(cfg, "parameters.ec11", 0.0)),
            ec22=float(_get(cfg, "parameters.ec22", 0.0)),
            ec12=float(_get(cfg, "parameters.ec12", 0.0)),
            ec21=float(_get(cfg, "parameters.ec21", 0.0)),
        )
    try:
        return tq.SwapParams(
            vs=float(_get(cfg, "parameters.vs", 0.0)),
            t_u=float(_get(cfg, "parameters.t_u", required=True)),
            t_l=float(_get(cfg, "parameters.t_l", required=True)),
            couplings=couplings,
        )
    except ValueError as exc:
        _fail("parameters", str(exc))


def _run_swap(cfg):
    params = _swap_params(cfg)
    t0, t_max, dt, stride = _time_block(cfg)
    amps = _complex_list(
        _get(cfg, "parameters.initial", [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        "parameters.initial",
    )
    psi0 = StateVector(amps / np.linalg.norm(amps))
    h4 = tq.build_h4(params)
    sample_dt = dt * stride
    n = int(round((t_max - t0) / sample_dt))
    ts = t0 + sample_dt * np.arange(n + 1)
    pops = np.zeros((n + 1, 4))
    ent = np.zeros(n + 1)
    for i, t in enumerate(ts):
        psi = tq.evolve4(h4, psi0, t0, t) if t > t0 else psi0
        pops[i] = np.abs(psi.amps) ** 2
        ent[i] = tq.is_factorizable(psi)[1]
    series = TimeSeries(
        ts,
        {
            "p_0": pops[:, 0],
            "p_1": pops[:, 1],
            "p_2": pops[:, 2],
            "p_3": pops[:, 3],
            "entanglement_2tau": ent,
        },
    )
    numeric, _ = eig_hermitian(h4)
    summary = {
        "eigenenergies": [float(x) for x in numeric],
        "final_norm": float(np.sqrt(pops[-1].sum())),
        "max_entanglement_2tau": float(ent.max()),
    }
    cc = params.couplings
    if abs(cc.ec11 - cc.ec22) < 1e-12 and abs(cc.ec12 - cc.ec21) < 1e-12 and params.t_u == params.t_l > 0:
        closed = tq.swap_eigensystem_symmetric(cc.ec11, cc.ec12, params.t_u, params.vs)
        summary["closed_form_eigenenergies"] = [float(x) for x in closed.sorted_energies]
        summary["gap_E1_E2"] = float(abs(closed.energies[0] - closed.energies[1]))
    return series, summary


def _run_cnot(cfg):
    params = _swap_params(cfg)
    geom_cfg = _get(cfg, "parameters.geometry", required=True)
    try:
        geom = tq.DotGeometry(**geom_cfg)
    except (TypeError, ValueError) as exc:
        _fail("parameters.geometry", str(exc))
    t0, t_max, dt, stride = _time_block(cfg)
    control0 = _complex_list(
        _get(cfg, "parameters.initial_control", required=True), "parameters.initial_control"
    )
    target0 = _complex_list(
        _get(cfg, "parameters.initial_target", required=True), "parameters.initial_target"
    )
    run = tq.cnot_coupled_run(
        params,
        control0 / np.linalg.norm(control0),
        float(_get(cfg, "parameters.vs2", 0.0)),
        float(_get(cfg, "parameters.t2", required=True)),
        target0 / np.linalg.norm(target0),
        geom,
        t0,
        t_max,
        dt,
    )
    sel = slice(None, None, stride)
    series = TimeSeries(
        run.t[sel],
        {
            "p_control_0": np.abs(run.control[sel, 0]) ** 2,
            "p_control_3": np.abs(run.control[sel, 3]) ** 2,
            "occ_p1": run.occupancies[sel, 0],
            "occ_p2": run.occupancies[sel, 1],
            "p_target_1": np.abs(run.target[sel, 0]) ** 2,
            "p_target_2": np.abs(run.target[sel, 1]) ** 2,
        },
    )
    summary = {
        "final_control_norm": float(np.linalg.norm(run.control[-1])),
        "final_target_norm": float(np.linalg.norm(run.target[-1])),
    }
    return series, summary


def _run_decoherence(cfg, paper_factorized=False):
    pa = sq.QubitParams(
        float(_get(cfg, "parameters.qubitA.ep1", 0.0)),
        float(_get(cfg, "parameters.qubitA.ep2", 0.0)),
        float(_get(cfg, "parameters.qubitA.ts_mag", required=True)),
        float(_get(cfg, "parameters.qubitA.alpha", 0.0)),
    )
    pb = sq.QubitParams(
        float(_get(cfg, "parameters.qubitB.ep1", 0.0)),
        float(_get(cfg, "parameters.qubitB.ep2", 0.0)),
        float(_get(cfg, "parameters.qubitB.ts_mag", required=True)),
        float(_get(cfg, "parameters.qubitB.alpha", 0.0)),
    )
    coeffs_a = sq.eigencoeffs(pa, 0.0)
    coeffs_b = sq.eigencoeffs(pb, 0.0)
    basis = dec.QubitEnergyBasis(coeffs_a, coeffs_b)
    try:
        dist = dec.NodeDistances(
            d11=float(_get(cfg, "parameters.d11", required=True)),
            d22=float(_get(cfg, "parameters.d22", required=True)),
            d12=float(_get(cfg, "parameters.d12", required=True)),
            d21=float(_get(cfg, "parameters.d21", required=True)),
        )
    except ValueError as exc:
        _fail("parameters", str(exc))
    k = float(_get(cfg, "parameters.coulomb_k", 1.0))
    hdec = dec.decoherence_matrix(basis, dist, k)
    h0 = dec.build_h0_resonant(
        coeffs_a.e1, coeffs_a.e2, coeffs_b.e1, coeffs_b.e2, 0.0, 0.0, 0.0
    )
    amps = _complex_list(
        _get(cfg, "parameters.initial", [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
        "parameters.initial",
    )
    amps = amps / np.linalg.norm(amps)
    rho0 = ms.pure_density(amps)
    t0, t_max, dt, stride = _time_block(cfg)
    sample_dt = dt * stride
    n = int(round((t_max - t0) / sample_dt))
    ts = t0 + sample_dt * np.arange(n + 1)
    rho = dec.evolve_density_with_decoherence(
        rho0, h0, hdec, t0, ts, paper_factorized=paper_factorized
    )
    pops = np.real(np.diagonal(rho, axis1=1, axis2=2))
    purity = np.real(np.einsum("tij,tji->t", rho, rho))
    series = TimeSeries(
        ts,
        {
            "p_E1A_E1B": pops[:, 0],
            "p_E1A_E2B": pops[:, 1],
            "p_E2A_E1B": pops[:, 2],
            "p_E2A_E2B": pops[:, 3],
            "re_rho_01": rho[:, 0, 1].real,
            "im_rho_01": rho[:, 0, 1].imag,
            "purity": purity,
        },
    )
    sc = dec.symmetric_case(dist, k)
    summary = {
        "renormalized_energies": [
            float(x)
            for x in dec.renormalized_energies(
                coeffs_a.e1, coeffs_a.e2, coeffs_b.e1, coeffs_b.e2, basis, dist, k
            )
        ],
        "symmetric_EAB_r1": sc.eab_r1,
        "min_purity": float(purity.min()),
    }
    return series, summary


def _run_spectral(cfg):
    kind = _get(cfg, "parameters.basis.kind", "harmonic")
    n_levels = int(_get(cfg, "parameters.basis.n_levels", 2))
    n_grid = int(_get(cfg, "parameters.basis.n_grid", 1601))
    if kind == "harmonic":
        basis = sp.harmonic_basis(
            n_levels,
            omega=float(_get(cfg, "parameters.basis.omega", 1.0)),
            n_grid=n_grid,
        )
    elif kind == "box":
        basis = sp.box_basis(
            n_levels,
            width=float(_get(cfg, "parameters.basis.width", 1.0)),
            n_grid=n_grid,
        )
    else:
        _fail("parameters.basis.kind", f"unsupported basis kind {kind!r}")
    kernel = sp.CoulombKernel(
        e2=float(_get(cfg, "parameters.kernel.e2", 1.0)),
        d_reg=float(_get(cfg, "parameters.kernel.d_reg", 0.1)),
    )
    offset = float(_get(cfg, "parameters.well_offset", 0.0))
    w = sp.interaction_matrix_elements(basis, basis, kernel, offset)
    q0 = np.zeros((n_levels, n_levels), dtype=complex)
    for entry in _get(cfg, "parameters.initial_modes", [[0, 0, 1.0, 0.0]]):
        if not (isinstance(entry, list) and len(entry) == 4):
            _fail("parameters.initial_modes", "each entry must be [n, m, re, im]")
        n_idx, m_idx, re, im = entry
        for idx in (n_idx, m_idx):
            if isinstance(idx, bool) or not isinstance(idx, int) or not 0 <= idx < n_levels:
                _fail("parameters.initial_modes", f"{idx!r} is not an index in [0, {n_levels})")
        q0[n_idx, m_idx] = _complex_list([[re, im]], "parameters.initial_modes")[0]
    q0 = q0 / np.linalg.norm(q0)
    t0, t_max, dt, stride = _time_block(cfg)
    times, series_q = sp.evolve_modes(q0, basis, basis, w, t0, t_max, dt, stride)
    cols = {}
    for n_idx in range(n_levels):
        for m_idx in range(n_levels):
            cols[f"p_mode_{n_idx}{m_idx}"] = np.abs(series_q[:, n_idx, m_idx]) ** 2
    cols["entropy"] = np.array([sp.entanglement_entropy(q) for q in series_q])
    series = TimeSeries(times, cols)
    summary = {
        "final_norm": float(np.sqrt(np.sum(np.abs(series_q[-1]) ** 2))),
        "final_entropy": float(cols["entropy"][-1]),
        "energy_drift": float(
            abs(
                sp.mode_energy(series_q[-1], basis, basis, w)
                - sp.mode_energy(series_q[0], basis, basis, w)
            )
        ),
    }
    return series, summary


_RUNNERS = {
    "single-qubit": _run_single_qubit,
    "rabi": _run_rabi,
    "swap": _run_swap,
    "cnot": _run_cnot,
    "decoherence": _run_decoherence,
    "spectral": _run_spectral,
}


def run_scenario(cfg, paper_factorized=False):
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    kind = cfg.get("kind")
    if kind not in _RUNNERS:
        _fail("kind", f"unknown scenario kind {kind!r}; choose from {sorted(_RUNNERS)}")
    if kind == "decoherence":
        series, summary = _RUNNERS[kind](cfg, paper_factorized=paper_factorized)
    else:
        series, summary = _RUNNERS[kind](cfg)
    names, rows = series.as_rows()
    if not np.all(np.isfinite(rows)):
        raise FloatingPointError("non-finite values in scenario output")
    return series, summary


def format_csv(series, summary):
    names, rows = series.as_rows()
    lines = [CSV_HEADER]
    for key in sorted(summary):
        lines.append(f"# {key} = {json.dumps(summary[key])}")
    lines.append(",".join(names))
    for row in rows:
        lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def format_json(series, summary):
    payload = {
        "schema_version": SCHEMA_VERSION,
        "t": list(series.t),
        "columns": {k: list(v) for k, v in series.columns.items()},
        "summary": summary,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc


def _parse_values(spec):
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError("range spec must be start:stop:num")
        start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
        return list(np.linspace(start, stop, num))
    try:
        return [float(x) for x in spec.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad values list: {exc}") from exc


def _set_path(cfg, path, value):
    node = cfg
    parts = path.split(".")
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"{path}: path does not resolve in the scenario")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"{path}: path does not resolve in the scenario")
    if not isinstance(node[parts[-1]], (int, float)):
        raise ConfigError(f"{path}: sweep axis must point at a numeric scalar")
    node[parts[-1]] = value


def sweep(cfg, axis, values, paper_factorized=False):
    rows = []
    for value in values:
        local = copy.deepcopy(cfg)
        _set_path(local, axis, value)
        row = {"value": value}
        try:
            _, summary = run_scenario(local, paper_factorized=paper_factorized)
            row["status"] = "ok"
            row.update(summary)
        except (PosQubitError, FloatingPointError, ValueError) as exc:
            row["status"] = "failed"
            row["error"] = str(exc)
        rows.append(row)
    return rows


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args):
    cfg = _load_config(args.config)
    series, summary = run_scenario(cfg, paper_factorized=args.paper_factorized)
    if args.format == "json":
        _emit(format_json(series, summary), args.out)
    else:
        _emit(format_csv(series, summary), args.out)
    return 0


def _cmd_sweep(args):
    cfg = _load_config(args.config)
    rows = sweep(
        cfg, args.axis, _parse_values(args.values), paper_factorized=args.paper_factorized
    )
    text = json.dumps({"axis": args.axis, "rows": rows}, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_eigens(args):
    cfg = _load_config(args.config)
    kind = cfg.get("kind")
    out = {}
    if kind == "single-qubit":
        params = _qubit_params(cfg)
        co = sq.eigencoeffs(params, float(_get(cfg, "time.t0", 0.0)))
        numeric, _ = eig_hermitian(sq.build_h2(params, float(_get(cfg, "time.t0", 0.0))))
        out = {
            "closed_form": [co.e1, co.e2],
            "numeric": [float(x) for x in numeric],
            "max_deviation": float(max(abs(numeric[0] - co.e1), abs(numeric[1] - co.e2))),
        }
    elif kind == "swap":
        params = _swap_params(cfg)
        numeric, _ = eig_hermitian(tq.build_h4(params))
        out = {"numeric": [float(x) for x in numeric]}
        cc = params.couplings
        if (
            abs(cc.ec11 - cc.ec22) < 1e-12
            and abs(cc.ec12 - cc.ec21) < 1e-12
            and params.t_u == params.t_l > 0
        ):
            closed = tq.swap_eigensystem_symmetric(cc.ec11, cc.ec12, params.t_u, params.vs)
            out["closed_form"] = [float(x) for x in closed.sorted_energies]
            out["max_deviation"] = float(
                np.max(np.abs(closed.sorted_energies - numeric))
            )
    else:
        _fail("kind", f"eigens supports single-qubit and swap, got {kind!r}")
    _emit(json.dumps(out, indent=2, sort_keys=True) + "\n", None)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="posqubit", description="Position-based charge qubit simulations"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out")
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--paper-factorized", action="store_true")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep one scalar parameter")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--paper-factorized", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_eig = sub.add_parser("eigens", help="closed-form vs numeric eigenvalues")
    p_eig.add_argument("--config", required=True)
    p_eig.set_defaults(func=_cmd_eigens)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PosQubitError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
