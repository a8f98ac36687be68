"""Scenario-driven command-line front end.

Subcommands:

    simulate --config FILE [--out FILE] [--format csv|json] [--paper-factorized]
    sweep    --config FILE --axis DOTTED.PATH --values LIST|START:STOP:NUM [--out FILE]
    eigens   --config FILE

Configuration is a JSON document with a ``schema_version`` field, a
scenario ``kind`` (single-qubit, rabi, swap, cnot, decoherence,
spectral), a ``time`` block (t0, t_max, dt, sample_stride), from which
``_time_block`` derives the one sample grid of every kind, and a
``parameters`` block matching the scenario.  Signal-valued parameters
are either numbers or objects like
{"kind": "sinusoid", "amplitude": 1, "omega": 2, "phase": 0, "offset": 0}
or {"kind": "table", "times": [...], "values": [...]}.

Each field goes through a reader (``_number``, ``_integer``, ``_signal``,
``_amplitudes``, ``_geometry``, ``_time_block``) that checks type, bounds
and shape and raises ConfigError naming the dotted path; sizes are capped
(MAX_*) before anything is allocated.  The README lists every field.

Outputs are deterministic: identical configs produce identical bytes
(modulo the versioned header line).  Exit codes: 0 success, 2 config
error, 3 numerical failure, which includes a non-finite output value.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import decoherence as dec
from . import measurement as ms
from . import signals
from . import single_qubit as sq
from . import spectral as sp
from . import two_qubit as tq
from .errors import ConfigError, PosQubitError
from .qcore import StateVector, eig_hermitian, evolve_steps, rk4_step_operators

CSV_HEADER = "# posqubit csv v1"
SCHEMA_VERSION = 1

MAX_STEPS = 100_000  # (t_max - t0) / dt, sample_stride, sweep points; 256 B per density sample
MAX_LEVELS = 16  # spectral basis.n_levels; the mode space has MAX_LEVELS**2 entries
MAX_GRID = 4001  # spectral basis.n_grid; W assembly holds about n_levels**2 x n_grid floats

_REQUIRED = object()
_GEOMETRY_FIELDS = {f.name for f in dataclasses.fields(tq.DotGeometry)}


@dataclasses.dataclass
class TimeSeries:
    t: np.ndarray
    columns: dict  # name -> real array

    def as_rows(self):
        names = ["t"] + list(self.columns)
        cols = [self.t] + [self.columns[k] for k in self.columns]
        return names, np.column_stack(cols)


def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


def _get(cfg, path, default=_REQUIRED):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict):
            _fail(path, "an enclosing field is not an object")
        if part not in node:
            if default is _REQUIRED:
                _fail(path, "missing required field")
            return default
        node = node[part]
    return node


def _float(value, path, gt=None, ge=None):
    """``value`` as a finite float, optionally bounded below."""
    # abs(value) <= max is false for NaN, inf and ints too large for a float
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        _fail(path, f"expected a finite number, got {value!r:.40}")
    x = float(value)
    if gt is not None and not x > gt:
        _fail(path, f"must exceed {gt}, got {x}")
    if ge is not None and not x >= ge:
        _fail(path, f"must be >= {ge}, got {x}")
    return x


def _int(value, path, low, high):
    x = _float(value, path)
    if not (x.is_integer() and low <= x <= high):
        _fail(path, f"expected an integer in [{low}, {high}], got {value!r:.40}")
    return int(x)


def _number(cfg, path, default=_REQUIRED, gt=None, ge=None):
    return _float(_get(cfg, path, default), path, gt, ge)


def _integer(cfg, path, default, low, high):
    return _int(_get(cfg, path, default), path, low, high)


def _signal(cfg, path, default=_REQUIRED):
    """A number or a constant / sinusoid / table object, as a signal."""
    raw = _get(cfg, path, default)
    if not isinstance(raw, dict):
        return signals.constant(_float(raw, path))
    kind = raw.get("kind")
    if kind == "constant":
        return signals.constant(_number(cfg, f"{path}.value", 0.0))
    if kind == "sinusoid":
        keys = ("amplitude", "omega", "phase", "offset")
        return signals.sinusoid(*(_number(cfg, f"{path}.{key}", 0.0) for key in keys))
    if kind == "table":
        times, values = _get(cfg, f"{path}.times"), _get(cfg, f"{path}.values")
        if not (isinstance(times, list) and isinstance(values, list)):
            _fail(path, "times and values must be lists of numbers")
        try:
            return signals.table(*([_float(x, path) for x in xs] for xs in (times, values)))
        except ValueError as exc:
            _fail(path, str(exc))
    _fail(f"{path}.kind", f"unknown signal kind {kind!r:.40}")


def _pair(raw, path):
    if not (isinstance(raw, list) and len(raw) == 2):
        _fail(path, f"expected an [re, im] pair, got {raw!r:.40}")
    return complex(_float(raw[0], path), _float(raw[1], path))


def _normalized(amps, path):
    norm = np.linalg.norm(amps)
    if not 0.0 < norm < np.inf:
        _fail(path, "amplitudes must have a finite, nonzero norm")
    return amps / norm


def _amplitudes(cfg, path, n, required=False):
    """``n`` [re, im] pairs, normalized; the first basis state by default."""
    raw = _get(cfg, path, _REQUIRED if required else [[1.0, 0.0]] + [[0.0, 0.0]] * (n - 1))
    if not (isinstance(raw, list) and len(raw) == n):
        _fail(path, f"expected a list of {n} [re, im] pairs")
    return _normalized(np.array([_pair(x, path) for x in raw]), path)


def _time_block(cfg):
    """(t0, dt, n_steps, steps): n_steps = (t_max - t0) / dt steps of dt
    from t0, sampled at the step indices ``steps`` (every sample_stride-th
    from 0, and n_steps), so at the times t0 + dt * steps.  ``dt`` must
    divide the span to 1e-9 relative, so no sample lies past t_max."""
    t0 = _number(cfg, "time.t0", 0.0)
    t_max = _number(cfg, "time.t_max", gt=t0)
    dt = _number(cfg, "time.dt", gt=0.0)
    stride = _integer(cfg, "time.sample_stride", 1, 1, MAX_STEPS)
    ratio = (t_max - t0) / dt
    if not ratio <= MAX_STEPS:
        _fail("time", f"(t_max - t0) / dt exceeds MAX_STEPS = {MAX_STEPS}")
    n_steps = int(round(ratio))
    if abs(ratio - n_steps) > 1e-9 * ratio:
        _fail("time.dt", f"must divide t_max - t0; (t_max - t0) / dt = {ratio:.17g} is not a whole number")
    if not all(map(math.isfinite, (dt * stride, t0 + dt * n_steps))):
        _fail("time", "dt * sample_stride and every step time up to t_max must be finite")
    return t0, dt, n_steps, np.append(np.arange(0, n_steps, stride), n_steps)


def _geometry(cfg, required=False):
    """``parameters.geometry`` as a DotGeometry; None when it is optional and absent."""
    path = "parameters.geometry"
    raw = _get(cfg, path, _REQUIRED if required else None)
    if raw is None and not required:
        return None
    if not isinstance(raw, dict) or not raw.keys() <= _GEOMETRY_FIELDS:
        _fail(path, f"expected an object with fields from {sorted(_GEOMETRY_FIELDS)}")
    kind = raw.get("kind", tq.COLLINEAR)
    if kind not in (tq.PARALLEL, tq.COLLINEAR, tq.PERPENDICULAR):
        _fail(f"{path}.kind", f"unknown geometry kind {kind!r:.40}")
    sizes = {k: _number(cfg, f"{path}.{k}", gt=0.0) for k in raw if k not in ("kind", "coulomb_k")}
    k = _number(cfg, f"{path}.coulomb_k", 1.0, ge=0.0)
    return tq.DotGeometry(kind, coulomb_k=k, **sizes)


def extract_frequency(t, series):
    """Angular frequency from linear-interpolated zero crossings of
    (series - mean); returns 0.0 when fewer than two crossings exist."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(series, dtype=float) - float(np.mean(series))
    i = np.flatnonzero(y[:-1] * y[1:] < 0.0)
    tc = t[i] + y[i] / (y[i] - y[i + 1]) * (t[i + 1] - t[i])
    up = y[i] < 0.0
    ups, downs = tc[up], tc[~up]
    # same-direction crossings are exactly one period apart, so any offset
    # of the mean estimate cancels
    best = max(ups, downs, key=len)
    if len(best) < 2:
        return 0.0
    period = (best[-1] - best[0]) / (len(best) - 1)
    return float(2.0 * np.pi / period)


def _qubit_params(cfg, path="parameters", read=_signal):
    defaults = {"ep1": 0.0, "ep2": 0.0, "ts_mag": _REQUIRED, "alpha": 0.0}
    return sq.QubitParams(**{k: read(cfg, f"{path}.{k}", d) for k, d in defaults.items()})


def _run_single_qubit(cfg):
    params = _qubit_params(cfg)
    t0, dt, n_steps, steps = _time_block(cfg)
    psi0 = _amplitudes(cfg, "parameters.initial", 2)
    t = t0 + dt * np.arange(n_steps + 1)

    def step_operators(lo, hi):
        starts = t[lo:hi]
        return rk4_step_operators(*(sq.build_h2(params, ts) for ts in (starts, starts + 0.5 * dt, starts + dt)), dt)

    psi = evolve_steps(step_operators, n_steps, psi0)[steps]
    c_en = np.einsum("nij,nj->ni", sq.eigencoeffs(params, t[steps]).basis_matrix().conj(), psi)
    series = TimeSeries(
        t[steps],
        {
            "p_x1": np.abs(psi[:, 0]) ** 2,
            "p_x2": np.abs(psi[:, 1]) ** 2,
            "p_E1": np.abs(c_en[:, 0]) ** 2,
            "p_E2": np.abs(c_en[:, 1]) ** 2,
            "phase_x1": np.angle(psi[:, 0]),
            "phase_x2": np.angle(psi[:, 1]),
        },
    )
    co = sq.eigencoeffs(params, t0)
    summary = {
        "E1": co.e1,
        "E2": co.e2,
        "angular_frequency_p_x1": extract_frequency(series.t, series.columns["p_x1"]),
        "final_norm": float(np.linalg.norm(psi[-1])),
    }
    return series, summary


def _run_rabi(cfg):
    e1, e2 = _signal(cfg, "parameters.e1"), _signal(cfg, "parameters.e2")
    e12 = _signal(cfg, "parameters.e12", 0.0)
    t0, dt, _, steps = _time_block(cfg)
    ts = t0 + dt * steps
    psi0 = _amplitudes(cfg, "parameters.initial", 2)
    u = np.concatenate([np.eye(2)[None], sq.rabi_evolution_matrix(e1, e2, e12, t0, ts[1:])])
    psi = u @ psi0
    defect = np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(2)), axis=(-2, -1))
    pe1, pe2 = np.abs(psi[:, 0]) ** 2, np.abs(psi[:, 1]) ** 2
    series = TimeSeries(ts, {"p_E1": pe1, "p_E2": pe2, "unitarity_defect": defect})
    summary = {"max_unitarity_defect": float(np.max(defect)), "final_norm": float(np.sqrt(pe1[-1] + pe2[-1]))}
    return series, summary


def _swap_params(cfg, geom):
    """SwapParams with the couplings of ``geom``, or of ec11..ec21 when it is None."""
    if geom is not None:
        couplings = tq.coulomb_couplings(geom)
    else:
        keys = ("ec11", "ec22", "ec12", "ec21")
        couplings = tq.CoulombCouplings(*(_number(cfg, f"parameters.{k}", 0.0) for k in keys))
    return tq.SwapParams(
        vs=_number(cfg, "parameters.vs", 0.0),
        t_u=_number(cfg, "parameters.t_u", ge=0.0),
        t_l=_number(cfg, "parameters.t_l", ge=0.0),
        couplings=couplings,
    )


def _symmetric_eigensystem(params):
    """The closed-form swap eigensystem if the structure is symmetric, else None."""
    cc = params.couplings
    symmetric = abs(cc.ec11 - cc.ec22) < 1e-12 and abs(cc.ec12 - cc.ec21) < 1e-12
    if symmetric and params.t_u == params.t_l > 0:
        return tq.swap_eigensystem_symmetric(cc.ec11, cc.ec12, params.t_u, params.vs)
    return None


def _run_swap(cfg):
    params = _swap_params(cfg, _geometry(cfg))
    t0, dt, _, steps = _time_block(cfg)
    ts = t0 + dt * steps
    psi0 = StateVector(_amplitudes(cfg, "parameters.initial", 4))
    h4 = tq.build_h4(params)
    pops = np.zeros((ts.size, 4))
    ent = np.zeros(ts.size)
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
    closed = _symmetric_eigensystem(params)
    if closed is not None:
        summary["closed_form_eigenenergies"] = [float(x) for x in closed.sorted_energies]
        summary["gap_E1_E2"] = float(abs(closed.energies[0] - closed.energies[1]))
    return series, summary


def _run_cnot(cfg):
    geom = _geometry(cfg, required=True)
    params = _swap_params(cfg, geom)
    t0, dt, n_steps, steps = _time_block(cfg)
    # no cnot Hamiltonian depends on t; counting from 0 keeps n_steps exact for any t0
    run = tq.cnot_coupled_run(
        params,
        _amplitudes(cfg, "parameters.initial_control", 4, required=True),
        _number(cfg, "parameters.vs2", 0.0), _number(cfg, "parameters.t2"),
        _amplitudes(cfg, "parameters.initial_target", 2, required=True),
        geom, 0.0, dt * n_steps, dt,
    )
    series = TimeSeries(
        t0 + dt * steps,
        {
            "p_control_0": np.abs(run.control[steps, 0]) ** 2,
            "p_control_3": np.abs(run.control[steps, 3]) ** 2,
            "occ_p1": run.occupancies[steps, 0],
            "occ_p2": run.occupancies[steps, 1],
            "p_target_1": np.abs(run.target[steps, 0]) ** 2,
            "p_target_2": np.abs(run.target[steps, 1]) ** 2,
        },
    )
    summary = {
        "final_control_norm": float(np.linalg.norm(run.control[-1])),
        "final_target_norm": float(np.linalg.norm(run.target[-1])),
    }
    return series, summary


def _run_decoherence(cfg, paper_factorized=False):
    pa = _qubit_params(cfg, "parameters.qubitA", _number)
    pb = _qubit_params(cfg, "parameters.qubitB", _number)
    dist = dec.NodeDistances(*(_number(cfg, f"parameters.d{ij}", gt=0.0) for ij in dec.NODE_PAIRS))
    k = _number(cfg, "parameters.coulomb_k", 1.0)
    rho0 = ms.pure_density(_amplitudes(cfg, "parameters.initial", 4))
    t0, dt, _, steps = _time_block(cfg)
    ts = t0 + dt * steps
    coeffs_a = sq.eigencoeffs(pa, 0.0)
    coeffs_b = sq.eigencoeffs(pb, 0.0)
    basis = dec.QubitEnergyBasis(coeffs_a, coeffs_b)
    hdec = dec.decoherence_matrix(basis, dist, k)
    h0 = dec.build_h0_resonant(
        coeffs_a.e1, coeffs_a.e2, coeffs_b.e1, coeffs_b.e2, 0.0, 0.0, 0.0
    )
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
    t0, dt, _, steps = _time_block(cfg)
    n_levels = _integer(cfg, "parameters.basis.n_levels", 2, 1, MAX_LEVELS)
    n_grid = _integer(cfg, "parameters.basis.n_grid", 1601, 3, MAX_GRID)
    if n_grid % 2 == 0:
        _fail("parameters.basis.n_grid", "Simpson quadrature needs an odd point count")
    kind = _get(cfg, "parameters.basis.kind", "harmonic")
    if kind not in ("harmonic", "box"):
        _fail("parameters.basis.kind", f"unsupported basis kind {kind!r:.40}")
    size_key = "omega" if kind == "harmonic" else "width"
    size = {size_key: _number(cfg, f"parameters.basis.{size_key}", 1.0, gt=0.0)}
    kernel = sp.CoulombKernel(
        e2=_number(cfg, "parameters.kernel.e2", 1.0),
        d_reg=_number(cfg, "parameters.kernel.d_reg", 0.1, gt=0.0),
    )
    offset = _number(cfg, "parameters.well_offset", 0.0)
    path = "parameters.initial_modes"
    modes = _get(cfg, path, [[0, 0, 1.0, 0.0]])
    if not (isinstance(modes, list) and all(isinstance(e, list) and len(e) == 4 for e in modes)):
        _fail(path, "expected a list of [n, m, re, im] entries")
    q0 = np.zeros((n_levels, n_levels), dtype=complex)
    for entry in modes:
        n_idx, m_idx = (_int(idx, path, 0, n_levels - 1) for idx in entry[:2])
        q0[n_idx, m_idx] = _pair(entry[2:], path)
    q0 = _normalized(q0, path)
    make_basis = sp.harmonic_basis if kind == "harmonic" else sp.box_basis
    basis = make_basis(n_levels, n_grid=n_grid, **size)
    w = sp.interaction_matrix_elements(basis, basis, kernel, offset)
    times = t0 + dt * steps
    series_q = sp.evolve_modes(q0, basis, basis, w, t0, times)
    cols = {}
    for n_idx in range(n_levels):
        for m_idx in range(n_levels):
            cols[f"p_mode_{n_idx}{m_idx}"] = np.abs(series_q[:, n_idx, m_idx]) ** 2
    cols["entropy"] = sp.entanglement_entropy(series_q)
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


def _scenario_kind(cfg):
    """Check the config root (an object with the schema version) and return its kind."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    version = cfg.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        _fail("schema_version", f"expected {SCHEMA_VERSION}, got {version!r:.40}")
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _RUNNERS:
        _fail("kind", f"unknown scenario kind {kind!r:.40}; choose from {sorted(_RUNNERS)}")
    return kind


def run_scenario(cfg, paper_factorized=False):
    kind = _scenario_kind(cfg)
    if kind == "decoherence":
        series, summary = _RUNNERS[kind](cfg, paper_factorized=paper_factorized)
    else:
        series, summary = _RUNNERS[kind](cfg)
    _, rows = series.as_rows()
    if not (np.all(np.isfinite(rows)) and all(np.all(np.isfinite(v)) for v in summary.values())):
        raise FloatingPointError("non-finite values in scenario output")
    return series, summary


def format_csv(series, summary):
    names, rows = series.as_rows()
    lines = [CSV_HEADER]
    for key in sorted(summary):
        lines.append(f"# {key} = {json.dumps(summary[key])}")
    lines.append(",".join(names))
    row_format = ",".join(["%.17g"] * len(names))  # one format per row, same bytes as per value
    lines.extend(row_format % tuple(row) for row in rows.tolist())
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
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, nesting too deep
        raise ConfigError(f"malformed JSON: {exc}") from exc


def _parse_values(spec):
    """Sweep values from "v1,v2,..." or from "start:stop:num" (num points, ends included)."""
    ranged = ":" in spec
    try:
        nums = [float(x) for x in spec.split(":" if ranged else ",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad values list: {exc}") from exc
    if not all(math.isfinite(x) for x in nums):
        raise ConfigError(f"sweep values must be finite, got {spec!r}")
    if not ranged:
        return nums
    if len(nums) != 3 or not nums[2].is_integer() or not 1 <= nums[2] <= MAX_STEPS:
        raise ConfigError(f"range spec must be start:stop:num, num in [1, {MAX_STEPS}]")
    return list(np.linspace(nums[0], nums[1], int(nums[2])))


def _set_path(cfg, path, value):
    parent, _, leaf = path.rpartition(".")
    node = _get(cfg, parent, None) if parent else cfg
    if not (isinstance(node, dict) and isinstance(node.get(leaf), (int, float))):
        raise ConfigError(f"{path}: sweep axis must name a numeric field of the scenario")
    node[leaf] = value


def sweep(cfg, axis, values, paper_factorized=False):
    rows = []
    for value in values:
        local = json.loads(json.dumps(cfg))  # copy.deepcopy overflows the stack sooner
        _set_path(local, axis, value)
        row = {"value": value}
        try:
            _, summary = run_scenario(local, paper_factorized=paper_factorized)
            row["status"] = "ok"
            row.update(summary)
        except (PosQubitError, ArithmeticError, ValueError) as exc:
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
    kind = _scenario_kind(cfg)
    if kind == "single-qubit":
        params = _qubit_params(cfg)
        t0 = _number(cfg, "time.t0", 0.0)
        co = sq.eigencoeffs(params, t0)
        numeric, _ = eig_hermitian(sq.build_h2(params, t0))
        out = {
            "closed_form": [co.e1, co.e2],
            "numeric": [float(x) for x in numeric],
            "max_deviation": float(max(abs(numeric[0] - co.e1), abs(numeric[1] - co.e2))),
        }
    elif kind == "swap":
        params = _swap_params(cfg, _geometry(cfg))
        numeric, _ = eig_hermitian(tq.build_h4(params))
        out = {"numeric": [float(x) for x in numeric]}
        closed = _symmetric_eigensystem(params)
        if closed is not None:
            out["closed_form"] = [float(x) for x in closed.sorted_energies]
            out["max_deviation"] = float(np.max(np.abs(closed.sorted_energies - numeric)))
    else:
        _fail("kind", f"eigens supports single-qubit and swap, got {kind!r}")
    _emit(json.dumps(out, indent=2, sort_keys=True, allow_nan=False) + "\n", None)
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
    except (PosQubitError, ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
