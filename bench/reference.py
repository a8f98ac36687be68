"""Independent reference solutions and the output checker.

The references use the package's Hamiltonian builders but never its
propagators, its signal implementations or its observables:

* constant-H points (swap, decoherence, spectral assembly) apply
  ``scipy.linalg.expm`` at every sample time; the long spectral stepping
  family applies one ``expm`` of the sample interval per sample instead
  (a 256x256 ``expm`` at each of 201 samples would add about half a
  minute to every run);
* driven single-qubit points use ``scipy.integrate.solve_ivp`` (DOP853,
  rtol = atol = 1e-12);
* Rabi points use ``scipy.integrate.quad`` per sample interval, summed,
  in the same closed form as the program;
* cnot points repeat the frozen-H stepping with ``expm`` per step.

Probability, population, entropy and summary values must agree with the
reference within ``TOLERANCE`` (absolute; summaries relative to
max(1, |ref|)).  Phase columns are compared mod 2 pi, weighted by the
amplitude they belong to: the deviation is |e^{i phi} - e^{i phi_ref}|
times sqrt(p_ref), the error the phase causes in the amplitude.
"""

import json
import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm

from posqubit import decoherence as dec
from posqubit import single_qubit as sq
from posqubit import spectral as sp
from posqubit import two_qubit as tq

TOLERANCE = 1e-6
DIGITS_FLOOR = 1e-16  # deviations below this count as 16 digits


# -- inputs ---------------------------------------------------------------


def _signal(spec):
    """Signal value as a plain function, written independently of posqubit.signals."""
    if isinstance(spec, (int, float)):
        value = float(spec)
        return lambda t: value
    if spec["kind"] == "sinusoid":
        amp, om = float(spec.get("amplitude", 0.0)), float(spec.get("omega", 0.0))
        ph, off = float(spec.get("phase", 0.0)), float(spec.get("offset", 0.0))
        return lambda t: off + amp * math.sin(om * t + ph)
    raise ValueError(f"reference has no signal kind {spec['kind']!r}")


def _amps(raw):
    v = np.array([complex(re, im) for re, im in raw])
    return v / np.linalg.norm(v)


def _sample_indices(n_steps, stride):
    return [i for i in range(n_steps + 1) if i % stride == 0 or i == n_steps]


def _time(cfg):
    tb = cfg["time"]
    return float(tb.get("t0", 0.0)), float(tb["t_max"]), float(tb["dt"]), int(tb.get("sample_stride", 1))


def _frequency(t, series):
    """Angular frequency from same-direction zero crossings of series - mean."""
    y = np.asarray(series) - np.mean(series)
    s = np.sign(y)
    idx = np.nonzero(s[:-1] * s[1:] < 0)[0]
    tc = t[idx] + y[idx] / (y[idx] - y[idx + 1]) * (t[idx + 1] - t[idx])
    ups, downs = tc[y[idx] < 0], tc[y[idx] > 0]
    best = ups if len(ups) >= len(downs) else downs
    if len(best) < 2:
        return 0.0
    return 2.0 * math.pi * (len(best) - 1) / (best[-1] - best[0])


# -- references per kind ----------------------------------------------------


def _ref_single_qubit(cfg):
    p = cfg["parameters"]
    params = sq.QubitParams(_signal(p.get("ep1", 0.0)), _signal(p.get("ep2", 0.0)), _signal(p["ts_mag"]), _signal(p.get("alpha", 0.0)))
    t0, t_max, dt, stride = _time(cfg)
    n_steps = int(round((t_max - t0) / dt))
    ts = np.array([t0 + i * dt for i in _sample_indices(n_steps, stride)])
    sol = solve_ivp(
        lambda t, y: -1j * (sq.build_h2(params, t) @ y),
        (t0, ts[-1]),
        _amps(p.get("initial", [[1, 0], [0, 0]])),
        method="DOP853",
        t_eval=ts,
        rtol=1e-12,
        atol=1e-12,
    )
    psi = sol.y.T
    pe = np.empty((len(ts), 2))
    for k, t in enumerate(ts):
        _, vecs = np.linalg.eigh(sq.build_h2(params, t))
        pe[k] = np.abs(vecs.conj().T @ psi[k]) ** 2
    e = np.linalg.eigvalsh(sq.build_h2(params, t0))
    cols = {
        "t": ts,
        "p_x1": np.abs(psi[:, 0]) ** 2,
        "p_x2": np.abs(psi[:, 1]) ** 2,
        "p_E1": pe[:, 0],
        "p_E2": pe[:, 1],
        "phase_x1": np.angle(psi[:, 0]),
        "phase_x2": np.angle(psi[:, 1]),
    }
    summary = {
        "E1": e[0],
        "E2": e[1],
        "angular_frequency_p_x1": _frequency(ts, cols["p_x1"]),
        "final_norm": 1.0,
    }
    return cols, summary


def _ref_rabi(cfg):
    p = cfg["parameters"]
    e1, e2, e12 = _signal(p["e1"]), _signal(p["e2"]), _signal(p.get("e12", 0.0))
    t0, t_max, dt, stride = _time(cfg)
    sample_dt = dt * stride
    n = int(round((t_max - t0) / sample_dt))
    ts = t0 + sample_dt * np.arange(n + 1)

    def cumulative(f):
        parts = [quad(f, a, b, epsabs=1e-14, epsrel=1e-14, limit=200)[0] for a, b in zip(ts[:-1], ts[1:])]
        return np.concatenate([[0.0], np.cumsum(parts)])

    avg = cumulative(lambda t: 0.5 * (e1(t) + e2(t)))
    half_gap = cumulative(lambda t: 0.5 * (e1(t) - e2(t)))
    i12 = cumulative(e12)
    psi0 = _amps(p.get("initial", [[1, 0], [0, 0]]))
    pe = np.empty((n + 1, 2))
    defect = np.empty(n + 1)
    for k in range(n + 1):
        theta = math.hypot(half_gap[k], i12[k])
        sinc = math.sin(theta) / theta if theta > 1e-12 else 1.0 - theta * theta / 6.0
        m = np.array([[half_gap[k], i12[k]], [i12[k], -half_gap[k]]], dtype=complex)
        u = np.exp(-1j * avg[k]) * (math.cos(theta) * np.eye(2) - 1j * sinc * m)
        pe[k] = np.abs(u @ psi0) ** 2
        defect[k] = np.max(np.abs(u.conj().T @ u - np.eye(2)))
    cols = {"t": ts, "p_E1": pe[:, 0], "p_E2": pe[:, 1], "unitarity_defect": defect}
    summary = {"max_unitarity_defect": float(defect.max()), "final_norm": 1.0}
    return cols, summary


def _swap_params(p):
    if "geometry" in p:
        couplings = tq.coulomb_couplings(tq.DotGeometry(**p["geometry"]))
    else:
        couplings = tq.CoulombCouplings(*(float(p.get(k, 0.0)) for k in ("ec11", "ec22", "ec12", "ec21")))
    return tq.SwapParams(vs=float(p.get("vs", 0.0)), t_u=float(p["t_u"]), t_l=float(p["t_l"]), couplings=couplings)


def _occupancies(c):
    pr = np.abs(c) ** 2
    return (pr[2] + pr[3], pr[0] + pr[1], pr[1] + pr[3], pr[0] + pr[2])


def _ref_cnot(cfg):
    p = cfg["parameters"]
    geom = tq.DotGeometry(**p["geometry"])
    t0, t_max, dt, stride = _time(cfg)
    n_steps = int(round((t_max - t0) / dt))
    u4 = expm(-1j * dt * tq.build_h4(_swap_params(p)))
    control = _amps(p["initial_control"])
    target = _amps(p["initial_target"])
    rows = []
    for i in range(n_steps + 1):
        occ = _occupancies(control)
        rows.append((abs(control[0]) ** 2, abs(control[3]) ** 2, occ[0], occ[1], abs(target[0]) ** 2, abs(target[1]) ** 2))
        if i == n_steps:
            break
        h2 = tq.cnot_meanfield_h2(geom, occ, float(p.get("vs2", 0.0)), float(p["t2"]))
        target = expm(-1j * dt * h2) @ target
        control = u4 @ control
    rows = np.array(rows)[::stride]
    names = ("p_control_0", "p_control_3", "occ_p1", "occ_p2", "p_target_1", "p_target_2")
    cols = {"t": (t0 + dt * np.arange(n_steps + 1))[::stride]}
    cols.update({name: rows[:, j] for j, name in enumerate(names)})
    summary = {"final_control_norm": 1.0, "final_target_norm": 1.0}
    return cols, summary


def _constant_h_samples(cfg):
    t0, t_max, dt, stride = _time(cfg)
    sample_dt = dt * stride
    n = int(round((t_max - t0) / sample_dt))
    return t0, t0 + sample_dt * np.arange(n + 1)


def _ref_swap(cfg):
    p = cfg["parameters"]
    h4 = tq.build_h4(_swap_params(p))
    t0, ts = _constant_h_samples(cfg)
    psi0 = _amps(p.get("initial", [[1, 0], [0, 0], [0, 0], [0, 0]]))
    props = expm(-1j * (ts - t0)[:, None, None] * h4[None])
    psi = props @ psi0
    ent = 2.0 * np.abs(psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2])
    summary = {
        "eigenenergies": np.linalg.eigvalsh(h4),
        "final_norm": 1.0,
        "max_entanglement_2tau": float(ent.max()),
    }
    return None, summary


def _ref_decoherence(cfg):
    p = cfg["parameters"]

    def qubit(q):
        return sq.QubitParams(float(q.get("ep1", 0.0)), float(q.get("ep2", 0.0)), float(q["ts_mag"]), float(q.get("alpha", 0.0)))

    pa, pb = qubit(p["qubitA"]), qubit(p["qubitB"])
    ca, cb = sq.eigencoeffs(pa, 0.0), sq.eigencoeffs(pb, 0.0)
    basis = dec.QubitEnergyBasis(ca, cb)
    dist = dec.NodeDistances(*(float(p[k]) for k in ("d11", "d22", "d12", "d21")))
    k = float(p.get("coulomb_k", 1.0))
    hdec = dec.decoherence_matrix(basis, dist, k)
    ea = np.linalg.eigvalsh(sq.build_h2(pa, 0.0))
    eb = np.linalg.eigvalsh(sq.build_h2(pb, 0.0))
    h0 = dec.build_h0_resonant(ea[0], ea[1], eb[0], eb[1], 0.0, 0.0, 0.0)
    amps = _amps(p.get("initial", [[1, 0], [0, 0], [0, 0], [0, 0]]))
    rho0 = np.outer(amps, amps.conj())
    t0, ts = _constant_h_samples(cfg)
    u = expm(-1j * (ts - t0)[:, None, None] * (h0 + hdec)[None])
    rho = u @ rho0 @ u.conj().transpose(0, 2, 1)
    purity = np.real(np.einsum("kij,kji->k", rho, rho))
    pairwise = np.array([ea[0] + eb[0], ea[0] + eb[1], ea[1] + eb[0], ea[1] + eb[1]])
    inv = sum(k / d for d in (dist.d11, dist.d22, dist.d12, dist.d21))
    summary = {
        "renormalized_energies": pairwise + np.real(np.diag(hdec)),
        "symmetric_EAB_r1": 0.25 * inv,
        "min_purity": float(purity.min()),
    }
    return None, summary


def _entropy(q):
    sv = np.linalg.svd(q, compute_uv=False)
    w = sv * sv
    w = w[w > 1e-300] / np.sum(w[w > 1e-300])
    return float(-np.sum(w * np.log(w)))


def _ref_spectral(cfg):
    p = cfg["parameters"]
    b = p["basis"]
    n = int(b["n_levels"])
    if b["kind"] == "harmonic":
        basis = sp.harmonic_basis(n, omega=float(b.get("omega", 1.0)), n_grid=int(b["n_grid"]))
    else:
        basis = sp.box_basis(n, width=float(b.get("width", 1.0)), n_grid=int(b["n_grid"]))
    kernel = sp.CoulombKernel(e2=float(p["kernel"]["e2"]), d_reg=float(p["kernel"]["d_reg"]))
    w = sp.interaction_matrix_elements(basis, basis, kernel, float(p.get("well_offset", 0.0)))
    h = sp.composite_hamiltonian(basis, basis, w)
    q = np.zeros((n, n), dtype=complex)
    for i, j, re, im in p["initial_modes"]:
        q[i, j] = complex(re, im)
    q = (q / np.linalg.norm(q)).ravel()
    t0, t_max, dt, stride = _time(cfg)
    n_steps = int(round((t_max - t0) / dt))
    ts = np.array([t0 + i * dt for i in _sample_indices(n_steps, stride)])
    step_cache = {}
    states = [q]
    for a, b_ in zip(ts[:-1], ts[1:]):
        gap = round(b_ - a, 12)
        if gap not in step_cache:
            step_cache[gap] = expm(-1j * gap * h)
        states.append(step_cache[gap] @ states[-1])
    states = np.array(states).reshape(len(ts), n, n)
    cols = {"t": ts}
    for i in range(n):
        for j in range(n):
            cols[f"p_mode_{i}{j}"] = np.abs(states[:, i, j]) ** 2
    cols["entropy"] = np.array([_entropy(s) for s in states])
    summary = {"final_norm": 1.0, "final_entropy": cols["entropy"][-1], "energy_drift": 0.0}
    return cols, summary


_REFERENCES = {
    "single-qubit": _ref_single_qubit,
    "rabi": _ref_rabi,
    "cnot": _ref_cnot,
    "swap": _ref_swap,
    "decoherence": _ref_decoherence,
    "spectral": _ref_spectral,
}


def reference(cfg):
    """(columns or None, summary) the program's output should match."""
    return _REFERENCES[cfg["kind"]](cfg)


# -- comparison -------------------------------------------------------------


def parse_csv(text):
    """(columns, summary) from ``format_csv`` output."""
    lines = text.splitlines()
    summary = {}
    k = 1
    while lines[k].startswith("# "):
        key, _, value = lines[k][2:].partition(" = ")
        summary[key] = json.loads(value)
        k += 1
    names = lines[k].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[k + 1 :]])
    return {name: rows[:, j] for j, name in enumerate(names)}, summary


def compare(columns, summary, ref_columns, ref_summary):
    """Worst deviation from the reference and where it occurred.

    Returns (deviation, location, problems); ``problems`` lists
    structural mismatches (missing or extra keys, wrong lengths), each of
    which fails the point on its own.
    """
    worst, where, problems = 0.0, None, []

    def note(dev, loc):
        nonlocal worst, where
        if not np.isfinite(dev) or dev > worst:
            worst, where = (math.inf if not np.isfinite(dev) else dev), loc

    if ref_columns is not None:
        if columns is None or set(columns) != set(ref_columns):
            problems.append(f"columns {sorted(columns or [])} != reference {sorted(ref_columns)}")
        else:
            for name, ref in ref_columns.items():
                got = columns[name]
                if got.shape != ref.shape:
                    problems.append(f"column {name}: {got.shape[0]} rows, reference {ref.shape[0]}")
                    continue
                if name.startswith("phase_"):
                    weight = np.sqrt(ref_columns["p_" + name[len("phase_") :]])
                    dev = np.abs(np.exp(1j * got) - np.exp(1j * ref)) * weight
                else:
                    dev = np.abs(got - ref)
                note(float(np.max(dev)), f"column {name}")
    if set(summary) != set(ref_summary):
        problems.append(f"summary keys {sorted(summary)} != reference {sorted(ref_summary)}")
    else:
        for key, ref in ref_summary.items():
            got = np.asarray(summary[key], dtype=float)
            ref = np.asarray(ref, dtype=float)
            if got.shape != ref.shape:
                problems.append(f"summary {key}: shape {got.shape}, reference {ref.shape}")
                continue
            note(float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))), f"summary {key}")
    return worst, where, problems


def point_fails(deviation, problems):
    return bool(problems) or not deviation <= TOLERANCE


def repeat_mismatches(digests):
    """Runs of a point whose output hash differs from its first successful run's.

    A run that raised has no hash (None) and counts as differing.
    """
    first = next((d for d in digests if d is not None), None)
    return sum(1 for d in digests if d is None or d != first)


def digits(deviation):
    """-log10 of a deviation, within [0, 16]."""
    return max(0.0, -math.log10(max(deviation, DIGITS_FLOOR)))


def self_check(columns, summary, ref_columns, ref_summary, digest):
    """Confirm the checker flags a perturbed output and a non-repeating one.

    Returns a list of the checks that failed to flag (empty when both do).
    """
    missed = []
    if columns is not None:
        name = next(n for n in columns if n != "t")
        bad_cols = {k: v.copy() for k, v in columns.items()}
        bad_cols[name][len(bad_cols[name]) // 2] += 1e-3
        bad_sum = summary
    else:
        bad_cols = None
        key = next(iter(summary))
        bad_sum = dict(summary)
        bad_sum[key] = np.asarray(summary[key], dtype=float) + 1e-3
    dev, _, problems = compare(bad_cols, bad_sum, ref_columns, ref_summary)
    if not point_fails(dev, problems):
        missed.append("perturbed output passed the reference check")
    if repeat_mismatches([digest, digest[:-1] + ("0" if digest[-1] != "0" else "1")]) != 1:
        missed.append("non-repeating output passed the repeat check")
    return missed
