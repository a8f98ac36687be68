"""Scenario-driven command-line front end.

Subcommands:

    simulate --config FILE [--out FILE] [--format csv|json]
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

``_SCHEMAS`` holds one schema per kind: a nested dict shaped like the
JSON, whose leaves are (reader, default) pairs.  ``_read`` walks a config
through it before any runner code runs, so the runners take plain
values.  A reader (``_float``, ``_int``, ``_signal``, ``_amplitudes``,
``_geometry``, ...) checks type, bounds and shape; a bad value, a missing
required field and a key the schema lacks each raise ConfigError naming
the dotted path.  Sizes are capped (MAX_*) before anything is allocated.
The README lists every field.  A sweep reads its config through the
schema once, at its first value, and then only the swept field per value.

Outputs are deterministic: identical configs produce identical bytes
(modulo the versioned header line).  Exit codes: 0 success, 2 config
error, 3 numerical failure, which includes a non-finite output value.
"""

import argparse
import json
import math
import sys
from functools import cached_property, partial, reduce

import numpy as np

from . import decoherence as dec
from . import measurement as ms
from . import signals
from . import single_qubit as sq
from . import spectral as sp
from . import two_qubit as tq
from .errors import ConfigError, PosQubitError
from .qcore import GAUSS_NODES, eig_hermitian, evolve_steps, magnus4_step_operators

CSV_HEADER = "# posqubit csv v1"
SCHEMA_VERSION = 1

MAX_STEPS = 100_000  # (t_max - t0) / dt, sample_stride, sweep points; spectral samples also obey MAX_MODE_SAMPLES
MAX_LEVELS = 16  # spectral basis.n_levels; the mode space has MAX_LEVELS**2 entries
MAX_GRID = 4001  # spectral basis.n_grid; W assembly holds about n_levels**2 x n_grid floats plus one fixed FFT block
# spectral samples x n_levels**2, about 56 B each: 4096 samples at 16 levels (n_grid 401)
# peak at 57.6 MiB in run_scenario, and with format_csv too (tracemalloc)
MAX_MODE_SAMPLES = 2**20

_REQUIRED = object()
# a run that raises one of these fails: exit 3 (2 for a ConfigError), or a "failed" sweep row
_RUN_FAILURES = (PosQubitError, ArithmeticError, ValueError)


class TimeSeries:
    """A run's samples: the times ``t``, then the k real ``columns``, named by
    ``names``.  ``table`` is their C-ordered float table of shape
    (samples, 1 + k), formed on first read; from then on ``t`` and each
    column are views of it, so the runner's arrays are released.  Only the
    CSV formatter reads it, so a sweep point builds none."""

    def __init__(self, t, columns):
        self.names = ["t", *columns]
        self.t = t
        self.columns = columns

    @cached_property
    def table(self):
        table = np.column_stack([self.t, *self.columns.values()])
        self.t = table[:, 0]
        self.columns = {name: table[:, i] for i, name in enumerate(self.names[1:], 1)}
        return table


def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


def _read(raw, schema, path):
    """The object ``raw`` read through ``schema``, a dict of its fields, each
    a nested schema or a (reader, default) pair.  A key the schema lacks is
    an error; a missing field takes its default through the same reader,
    unless the default is _REQUIRED."""
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    for key in raw:
        if key not in schema:
            _fail(f"{path}.{key}" if path else key, f"unknown field; expected one of {sorted(schema)}")
    out = {}
    for key, node in schema.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(node, dict):
            out[key] = _read(raw.get(key, {}), node, sub)
        elif key in raw or node[1] is not _REQUIRED:
            out[key] = node[0](raw.get(key, node[1]), sub)
        else:
            _fail(sub, "missing required field")
    return out


def _kind_fields(raw, path, kinds, default=None):
    """(kind, fields) of the object ``raw``, whose ``kind`` picks the schema
    in ``kinds`` that reads its other fields."""
    if not isinstance(raw, dict):
        _fail(path, "expected an object")
    kind = raw.get("kind", default)
    if not (isinstance(kind, str) and kind in kinds):
        _fail(f"{path}.kind" if path else "kind", f"unknown kind {kind!r:.40}; choose from {sorted(kinds)}")
    return kind, _read({k: v for k, v in raw.items() if k != "kind"}, kinds[kind], path)


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


def _bool(value, path):
    if not isinstance(value, bool):
        _fail(path, f"expected true or false, got {value!r:.40}")
    return value


def _int(value, path, low, high):
    x = _float(value, path)
    if not (x.is_integer() and low <= x <= high):
        _fail(path, f"expected an integer in [{low}, {high}], got {value!r:.40}")
    return int(x)


def _floats(raw, path):
    if not isinstance(raw, list):
        _fail(path, "expected a list of numbers")
    return [_float(x, path) for x in raw]


def _odd_grid(value, path):
    n = _int(value, path, 3, MAX_GRID)
    if n % 2 == 0:
        _fail(path, "Simpson quadrature needs an odd point count")
    return n


def _pair(raw, path):
    if not (isinstance(raw, list) and len(raw) == 2):
        _fail(path, f"expected an [re, im] pair, got {raw!r:.40}")
    return complex(_float(raw[0], path), _float(raw[1], path))


def _normalized(amps, path):
    norm = np.linalg.norm(amps)
    if not 0.0 < norm < np.inf:
        _fail(path, "amplitudes must have a finite, nonzero norm")
    return amps / norm


def _amplitudes(raw, path, n):
    """``n`` [re, im] pairs, normalized."""
    if not (isinstance(raw, list) and len(raw) == n):
        _fail(path, f"expected a list of {n} [re, im] pairs")
    return _normalized(np.array([_pair(x, path) for x in raw]), path)


def _modes(raw, path):
    """[n, m, re, im] entries as (n, m, amplitude), each (n, m) once; ``_run_spectral`` bounds n, m by n_levels."""
    if not (isinstance(raw, list) and all(isinstance(e, list) and len(e) == 4 for e in raw)):
        _fail(path, "expected a list of [n, m, re, im] entries")
    modes = [(_int(e[0], path, 0, MAX_LEVELS - 1), _int(e[1], path, 0, MAX_LEVELS - 1), _pair(e[2:], path)) for e in raw]
    seen = set()
    for n_idx, m_idx, _ in modes:
        if (n_idx, m_idx) in seen:
            _fail(path, f"mode ({n_idx}, {m_idx}) is listed more than once")
        seen.add((n_idx, m_idx))
    return modes


def _signal(raw, path):
    """A number or a constant / sinusoid / table object, as a signal."""
    if not isinstance(raw, dict):
        return signals.constant(_float(raw, path))
    kind, fields = _kind_fields(raw, path, _SIGNALS)
    try:
        # looked up at each call, as the factories are never stored
        return getattr(signals, kind)(**fields)
    except ValueError as exc:
        _fail(path, str(exc))


def _geometry(raw, path, optional=False):
    """A DotGeometry; None when it is optional and absent."""
    if raw is None and optional:
        return None
    kind, fields = _kind_fields(raw, path, _GEOMETRIES, tq.COLLINEAR)
    return tq.DotGeometry(kind, **fields)


def _time_block(t0, t_max, dt, sample_stride):
    """(t0, dt, n_steps, steps): n_steps = (t_max - t0) / dt steps of dt
    from t0, sampled at the step indices ``steps`` (every sample_stride-th
    from 0, and n_steps), so at the times t0 + dt * steps.  ``dt`` must
    divide the span to 1e-9 relative, so no sample lies past t_max."""
    if not t_max > t0:
        _fail("time.t_max", f"must exceed {t0}, got {t_max}")
    ratio = (t_max - t0) / dt
    if not ratio <= MAX_STEPS:
        _fail("time", f"(t_max - t0) / dt exceeds MAX_STEPS = {MAX_STEPS}")
    n_steps = int(round(ratio))
    if abs(ratio - n_steps) > 1e-9 * ratio:
        _fail("time.dt", f"must divide t_max - t0; (t_max - t0) / dt = {ratio:.17g} is not a whole number")
    if not math.isfinite(t0 + dt * n_steps):
        _fail("time", "every step time up to t_max must be finite")
    return t0, dt, n_steps, np.append(np.arange(0, n_steps, sample_stride), n_steps)


def _state(n, required=False):
    """The leaf of ``n`` amplitudes, the first basis state by default."""
    return partial(_amplitudes, n=n), _REQUIRED if required else [[1.0, 0.0]] + [[0.0, 0.0]] * (n - 1)


def _qubit(read):
    return {"ep1": (read, 0.0), "ep2": (read, 0.0), "ts_mag": (read, _REQUIRED), "alpha": (read, 0.0)}


# The schemas hold private readers only: a reader looks up the package
# functions it calls when it runs, so a wrapper set on them is seen.
_NUMBER = (_float, 0.0)
_POSITIVE = partial(_float, gt=0.0)
_NONNEGATIVE = partial(_float, ge=0.0)
_EC = ("ec11", "ec22", "ec12", "ec21")
_SIGNALS = {
    "constant": {"value": _NUMBER},
    "sinusoid": dict.fromkeys(("amplitude", "omega", "phase", "offset"), _NUMBER),
    "table": {"times": (_floats, _REQUIRED), "values": (_floats, _REQUIRED)},
}
_GEOMETRIES = dict.fromkeys(
    (tq.PARALLEL, tq.COLLINEAR, tq.PERPENDICULAR),
    {**dict.fromkeys(("a", "b", "d", "d1", "d2", "d3"), (_POSITIVE, 1.0)), "coulomb_k": (_NONNEGATIVE, 1.0)},
)
_LEVELS = {"n_levels": (partial(_int, low=1, high=MAX_LEVELS), 2), "n_grid": (_odd_grid, 1601)}
_BASES = {"harmonic": {**_LEVELS, "omega": (_POSITIVE, 1.0)}, "box": {**_LEVELS, "width": (_POSITIVE, 1.0)}}
_HOPPING = {"vs": _NUMBER, "t_u": (_NONNEGATIVE, _REQUIRED), "t_l": (_NONNEGATIVE, _REQUIRED)}
_TIME = {
    "t0": _NUMBER,
    "t_max": (_float, _REQUIRED),
    "dt": (_POSITIVE, _REQUIRED),
    "sample_stride": (partial(_int, low=1, high=MAX_STEPS), 1),
}
_PARAMETERS = {
    "single-qubit": {**_qubit(_signal), "initial": _state(2)},
    "rabi": {"e1": (_signal, _REQUIRED), "e2": (_signal, _REQUIRED), "e12": (_signal, 0.0), "initial": _state(2)},
    "swap": {
        **_HOPPING,
        "geometry": (partial(_geometry, optional=True), None),
        **dict.fromkeys(_EC, _NUMBER),
        "initial": _state(4),
    },
    "cnot": {
        **_HOPPING,
        "geometry": (_geometry, _REQUIRED),
        "vs2": _NUMBER,
        "t2": (_float, _REQUIRED),
        "initial_control": _state(4, required=True),
        "initial_target": _state(2, required=True),
    },
    "decoherence": {
        "qubitA": _qubit(_float),
        "qubitB": _qubit(_float),
        **{f"d{ij}": (_POSITIVE, _REQUIRED) for ij in dec.NODE_PAIRS},
        "coulomb_k": (_float, 1.0),
        "initial": _state(4),
        "paper_factorized": (_bool, False),
    },
    "spectral": {
        "basis": (partial(_kind_fields, kinds=_BASES, default="harmonic"), {}),
        "kernel": {"e2": (_float, 1.0), "d_reg": (_POSITIVE, 0.1)},
        "well_offset": _NUMBER,
        "initial_modes": (_modes, [[0, 0, 1.0, 0.0]]),
    },
}
_VERSION = (partial(_int, low=SCHEMA_VERSION, high=SCHEMA_VERSION), _REQUIRED)
_SCHEMAS = {kind: {"schema_version": _VERSION, "time": _TIME, "parameters": p} for kind, p in _PARAMETERS.items()}


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


def _run_single_qubit(time, initial, **qubit):
    params = sq.QubitParams(**qubit)
    t0, dt, n_steps, steps = time
    t = t0 + dt * np.arange(n_steps + 1)

    def step_operators(lo, hi):
        starts = t[lo:hi]
        return magnus4_step_operators(*(sq.build_h2(params, starts + c * dt) for c in GAUSS_NODES), dt)

    psi = evolve_steps(step_operators, n_steps, initial)[steps]
    co = sq.eigencoeffs(params, t[steps])  # the first sample is t0
    c_en = np.einsum("nij,nj->ni", co.basis_matrix().conj(), psi)
    columns = {
        "p_x1": np.abs(psi[:, 0]) ** 2,
        "p_x2": np.abs(psi[:, 1]) ** 2,
        "p_E1": np.abs(c_en[:, 0]) ** 2,
        "p_E2": np.abs(c_en[:, 1]) ** 2,
        "phase_x1": np.angle(psi[:, 0]),
        "phase_x2": np.angle(psi[:, 1]),
    }
    summary = {
        "E1": float(co.e1[0]),
        "E2": float(co.e2[0]),
        "angular_frequency_p_x1": extract_frequency(t[steps], columns["p_x1"]),
        "final_norm": float(np.linalg.norm(psi[-1])),
    }
    return columns, summary


def _run_rabi(time, e1, e2, e12, initial):
    t0, dt, _, steps = time
    u = np.concatenate([np.eye(2)[None], sq.rabi_evolution_matrix(e1, e2, e12, t0, t0 + dt * steps[1:])])
    psi = u @ initial
    defect = np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(2)), axis=(-2, -1))
    pe1, pe2 = np.abs(psi[:, 0]) ** 2, np.abs(psi[:, 1]) ** 2
    summary = {"max_unitarity_defect": float(np.max(defect)), "final_norm": float(np.sqrt(pe1[-1] + pe2[-1]))}
    return {"p_E1": pe1, "p_E2": pe2, "unitarity_defect": defect}, summary


def _swap_params(vs, t_u, t_l, geometry, **ec):
    """SwapParams with the couplings of ``geometry``, or of ec11..ec21 when it is None."""
    couplings = tq.CoulombCouplings(**ec) if geometry is None else tq.coulomb_couplings(geometry)
    return tq.SwapParams(vs=vs, t_u=t_u, t_l=t_l, couplings=couplings)


def _symmetric_eigensystem(params):
    """The closed-form swap eigensystem if the structure is symmetric, else None."""
    cc = params.couplings
    symmetric = abs(cc.ec11 - cc.ec22) < 1e-12 and abs(cc.ec12 - cc.ec21) < 1e-12
    if symmetric and params.t_u == params.t_l > 0:
        return tq.swap_eigensystem_symmetric(cc.ec11, cc.ec12, params.t_u, params.vs)
    return None


def _run_swap(time, initial, **coupled):
    params = _swap_params(**coupled)
    _, dt, _, steps = time
    h4 = tq.build_h4(params)
    amps = np.empty((steps.size, 4), dtype=complex)
    ent = np.empty(steps.size)
    for i, span in enumerate((dt * steps).tolist()):
        psi = tq.evolve4(h4, initial, 0.0, span) if span > 0 else initial
        amps[i] = psi
        ent[i] = tq.is_factorizable(psi)[1]
    pops = np.abs(amps) ** 2
    columns = {
        "p_0": pops[:, 0],
        "p_1": pops[:, 1],
        "p_2": pops[:, 2],
        "p_3": pops[:, 3],
        "entanglement_2tau": ent,
    }
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
    return columns, summary


def _run_cnot(time, geometry, vs2, t2, initial_control, initial_target, **hopping):
    params = _swap_params(geometry=geometry, **hopping)
    _, dt, n_steps, steps = time
    # no cnot Hamiltonian depends on t, so t0 drops out: the run counts steps from 0
    run = tq.cnot_coupled_run(params, initial_control, vs2, t2, initial_target, geometry, dt, n_steps)
    columns = {
        "p_control_0": np.abs(run.control[steps, 0]) ** 2,
        "p_control_3": np.abs(run.control[steps, 3]) ** 2,
        "occ_p1": run.occupancies[steps, 0],
        "occ_p2": run.occupancies[steps, 1],
        "p_target_1": np.abs(run.target[steps, 0]) ** 2,
        "p_target_2": np.abs(run.target[steps, 1]) ** 2,
    }
    summary = {
        "final_control_norm": float(np.linalg.norm(run.control[-1])),
        "final_target_norm": float(np.linalg.norm(run.target[-1])),
    }
    return columns, summary


def _run_decoherence(time, qubitA, qubitB, coulomb_k, initial, paper_factorized, **distances):
    dist = dec.NodeDistances(**distances)
    _, dt, _, steps = time
    coeffs_a = sq.eigencoeffs(sq.QubitParams(**qubitA), 0.0)
    coeffs_b = sq.eigencoeffs(sq.QubitParams(**qubitB), 0.0)
    basis = dec.QubitEnergyBasis(coeffs_a, coeffs_b)
    hdec = dec.decoherence_matrix(basis, dist, coulomb_k)
    h0 = dec.build_h0_resonant(
        coeffs_a.e1, coeffs_a.e2, coeffs_b.e1, coeffs_b.e2, 0.0, 0.0, 0.0
    )
    # the pure state psi psi^dag stays pure: its 4 amplitudes carry every column
    ms.validate_density(ms.pure_density(initial), dim=4)
    psi = dec._evolve(initial, h0, hdec, dt, steps, paper_factorized)
    pops = np.abs(psi) ** 2
    rho_01 = psi[:, 0] * psi[:, 1].conj()
    # Tr rho^2 = (psi^dag psi)^2; four adds in the order of pops.sum(axis=1), at a seventh of its cost
    purity = (pops[:, 0] + pops[:, 1] + pops[:, 2] + pops[:, 3]) ** 2
    columns = {
        "p_E1A_E1B": pops[:, 0],
        "p_E1A_E2B": pops[:, 1],
        "p_E2A_E1B": pops[:, 2],
        "p_E2A_E2B": pops[:, 3],
        "re_rho_01": rho_01.real,
        "im_rho_01": rho_01.imag,
        "purity": purity,
    }
    sc = dec.symmetric_case(dist, coulomb_k)
    summary = {
        "renormalized_energies": [
            float(x)
            for x in dec.renormalized_energies(
                coeffs_a.e1, coeffs_a.e2, coeffs_b.e1, coeffs_b.e2, hdec
            )
        ],
        "symmetric_EAB_r1": sc.eab_r1,
        "min_purity": float(purity.min()),
    }
    return columns, summary


def _run_spectral(time, basis, kernel, well_offset, initial_modes):
    _, dt, _, steps = time
    kind, fields = basis
    n_levels = fields["n_levels"]
    if steps.size * n_levels**2 > MAX_MODE_SAMPLES:
        _fail("time", f"{steps.size} samples of {n_levels}**2 modes exceed MAX_MODE_SAMPLES = {MAX_MODE_SAMPLES}")
    path = "parameters.initial_modes"
    q0 = np.zeros((n_levels, n_levels), dtype=complex)
    for n_idx, m_idx, amp in initial_modes:
        if max(n_idx, m_idx) >= n_levels:
            _fail(path, f"mode index {max(n_idx, m_idx)} is not below n_levels = {n_levels}")
        q0[n_idx, m_idx] = amp
    q0 = _normalized(q0, path)
    basis = (sp.harmonic_basis if kind == "harmonic" else sp.box_basis)(**fields)
    w = sp.interaction_matrix_elements(basis, basis, sp.CoulombKernel(**kernel), well_offset)
    series_q = sp.evolve_modes(q0, basis, basis, w, dt, steps)
    pops = np.abs(series_q) ** 2
    cols = {f"p_mode_{n_idx}{m_idx}": pops[:, n_idx, m_idx] for n_idx in range(n_levels) for m_idx in range(n_levels)}
    cols["entropy"] = sp.entanglement_entropy(series_q)
    first, last = sp.mode_energy(series_q[[0, -1]], basis, basis, w)
    summary = {
        "final_norm": float(np.sqrt(np.sum(np.abs(series_q[-1]) ** 2))),
        "final_entropy": float(cols["entropy"][-1]),
        "energy_drift": float(abs(last - first)),
    }
    return cols, summary


_RUNNERS = {
    "single-qubit": _run_single_qubit,
    "rabi": _run_rabi,
    "swap": _run_swap,
    "cnot": _run_cnot,
    "decoherence": _run_decoherence,
    "spectral": _run_spectral,
}


def _read_scenario(cfg):
    """(kind, time grid, parameters) of ``cfg``, every field read through its kind's schema."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return _scenario(*_kind_fields(cfg, "", _SCHEMAS), cfg)


def _scenario(kind, out, cfg, time=None):
    """(kind, time grid, parameters) of the fields ``out`` read from ``cfg``;
    ``time`` is the grid when it is already built."""
    params = out["parameters"]
    if kind == "swap" and params["geometry"] is not None:
        for key in _EC:
            if key in cfg["parameters"]:
                _fail(f"parameters.{key}", "not allowed with geometry")
    return kind, time or _time_block(**out["time"]), params


def _sweep_reader(cfg, keys):
    """A function that reads each config equal to ``cfg`` but at the key path
    ``keys`` as ``_read_scenario`` does.  Its swept field is the first
    (reader, default) leaf of the kind's schema on the path.  ``cfg`` is read
    here once without that field; the function reads only the field, and
    builds the time grid again only when the field lies under ``time``.
    When this read fails, the function is ``_read_scenario`` itself, as the
    first field in schema order to fail may be the swept one."""
    kind = cfg.get("kind")
    node = _SCHEMAS.get(kind) if isinstance(kind, str) else None
    depth = 0
    while isinstance(node, dict) and depth < len(keys):
        node, depth = node.get(keys[depth]), depth + 1
    if not isinstance(node, tuple):  # no schema holds the path, so every read fails
        return _read_scenario
    leaf, reader = keys[:depth], node[0]
    try:
        _, out = _kind_fields(cfg, "", {kind: _replace(_SCHEMAS[kind], leaf, (lambda raw, path: None, None))})
        time = None if leaf[0] == "time" else _time_block(**out["time"])
    except ConfigError:
        return _read_scenario

    def read(local):
        field = reader(reduce(dict.__getitem__, leaf, local), ".".join(leaf))
        return _scenario(kind, _replace(out, leaf, field), local, time)

    return read


def _run(kind, time, params):
    """(series, summary) of a read scenario: the runner of ``kind`` gives the
    columns, sampled at t0 + dt * steps of the time grid ``time``."""
    columns, summary = _RUNNERS[kind](time, **params)
    t0, dt, _, steps = time
    # one flat copy: an isfinite per column costs more than the copy at 257 short columns
    finite = np.isfinite(np.concatenate(list(columns.values()))).all()
    if not (finite and all(np.isfinite(v).all() for v in summary.values())):
        raise FloatingPointError("non-finite values in scenario output")
    return TimeSeries(t0 + dt * steps, columns), summary


def run_scenario(cfg):
    """(series, summary) of the scenario ``cfg``, read through its kind's schema."""
    return _run(*_read_scenario(cfg))


def format_csv(series, summary):
    """The CSV text of a run: the header line, one ``# key = json`` line per
    summary key in sorted order, the column names, then one line per sample.
    Each value is the bytes of C's ``'%.17g'``, values are joined by ',' and
    every line ends in '\\n'."""
    from ._g17 import format_rows  # only simulate formats CSV; sweep and eigens never build its tables

    lines = [CSV_HEADER]
    for key in sorted(summary):
        lines.append(f"# {key} = {json.dumps(summary[key])}")
    lines.append(",".join(series.names))
    return "\n".join(lines) + "\n" + format_rows(series.table)


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


def _replace(tree, keys, value):
    """``tree`` with ``value`` at the key path ``keys``: a new dict for each
    dict on the path, every other object shared.  A loop, not a recursion,
    as a loaded JSON document can nest deeper than Python's stack allows."""
    nodes = [tree]
    for key in keys[:-1]:
        nodes.append(nodes[-1][key])
    for node, key in zip(nodes[::-1], keys[::-1]):
        value = {**node, key: value}
    return value


def _set_path(cfg, path, value):
    """``cfg`` with its numeric field at the dotted ``path`` set to ``value``,
    copying only the dicts on the path."""
    *parents, leaf = keys = path.split(".")
    node = cfg
    for part in parents:
        node = node.get(part) if isinstance(node, dict) else None
    if not (isinstance(node, dict) and type(node.get(leaf)) in (int, float)):  # a bool is not numeric here
        raise ConfigError(f"{path}: sweep axis must name a numeric field of the scenario")
    return _replace(cfg, keys, value)


def sweep(cfg, axis, values):
    """One row per value: the scenario ``cfg`` with its numeric field at the
    dotted ``axis`` set to the value, as {"value", "status": "ok", **summary},
    or {"value", "status": "failed", "error"} when its read or run fails.

    ``cfg`` is a JSON document, left unmodified.  Values are pulled one at a
    time, each after the previous point is done.  The config is read through
    its kind's schema once, at the first value, and the swept field once per
    value (``_sweep_reader``).  A bad axis raises ConfigError at the first
    value."""
    rows, read = [], None
    for value in values:
        local = _set_path(cfg, axis, value)
        read = read or _sweep_reader(cfg, axis.split("."))
        row = {"value": value}
        try:
            _, summary = _run(*read(local))
            row["status"] = "ok"
            row.update(summary)
        except _RUN_FAILURES as exc:
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
    series, summary = run_scenario(cfg)
    if args.format == "json":
        _emit(format_json(series, summary), args.out)
    else:
        _emit(format_csv(series, summary), args.out)
    return 0


def _cmd_sweep(args):
    cfg = _load_config(args.config)
    rows = sweep(cfg, args.axis, _parse_values(args.values))
    text = json.dumps({"axis": args.axis, "rows": rows}, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_eigens(args):
    kind, (t0, *_), fields = _read_scenario(_load_config(args.config))
    fields.pop("initial", None)  # eigens has no state
    if kind == "single-qubit":
        params = sq.QubitParams(**fields)
        co = sq.eigencoeffs(params, t0)
        numeric, _ = eig_hermitian(sq.build_h2(params, t0))
        out = {
            "closed_form": [co.e1, co.e2],
            "numeric": [float(x) for x in numeric],
            "max_deviation": float(max(abs(numeric[0] - co.e1), abs(numeric[1] - co.e2))),
        }
    elif kind == "swap":
        params = _swap_params(**fields)
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
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep one scalar parameter")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True)
    p_sweep.add_argument("--out")
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
    except _RUN_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
