"""Seeded scenario generators for the benchmark workloads.

The seed draws only physics values: amplitudes, frequencies, hoppings,
couplings, distances, initial amplitudes and sweep values.  Step counts,
sample strides, ``n_levels`` and ``n_grid`` are fixed per family, so the
cost of a point does not depend on the seed.  The ranges keep every
point non-degenerate (no qubit gap below 0.6, so ``eigencoeffs`` never
raises), keep the adaptive-Simpson work of the Rabi family within a
narrow band, and keep the single-qubit RK4 error, which sets
``accuracy_digits`` on driven-trace, within a narrow band too.

This module uses only the standard library, so it can be imported before
the package is timed.
"""

import copy
import math
import random
from dataclasses import dataclass

WORKLOADS = ("driven-trace", "static-sweep", "galerkin")


@dataclass
class Job:
    """One call into the public API.

    ``simulate`` jobs are one point: ``run_scenario`` then ``format_csv``.
    ``sweep`` jobs are one ``sweep`` call, one point per value.
    """

    family: str
    mode: str  # "simulate" or "sweep"
    cfg: dict
    axis: str = None
    values: tuple = ()

    @property
    def n_points(self):
        return len(self.values) if self.mode == "sweep" else 1

    def point_configs(self):
        """The scenario each point of this job runs, with the axis applied."""
        if self.mode != "sweep":
            return [self.cfg]
        out = []
        for value in self.values:
            local = copy.deepcopy(self.cfg)
            node = local
            parts = self.axis.split(".")
            for part in parts[:-1]:
                node = node[part]
            node[parts[-1]] = value
            out.append(local)
        return out


def n_samples(cfg):
    """Rows of the time series a scenario samples (also for sweep points)."""
    tb = cfg["time"]
    t0, t_max, dt, stride = tb.get("t0", 0.0), tb["t_max"], tb["dt"], tb.get("sample_stride", 1)
    if cfg["kind"] in ("rabi", "swap", "decoherence"):
        return int(round((t_max - t0) / (dt * stride))) + 1
    n_steps = int(round((t_max - t0) / dt))
    if cfg["kind"] == "cnot":
        return len(range(0, n_steps + 1, stride))
    return sum(1 for i in range(n_steps + 1) if i % stride == 0 or i == n_steps)


def _scenario(kind, t_max, dt, stride, parameters):
    return {
        "schema_version": 1,
        "kind": kind,
        "time": {"t0": 0.0, "t_max": t_max, "dt": dt, "sample_stride": stride},
        "parameters": parameters,
    }


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def _amps(rng, n):
    """Random complex amplitudes as [re, im] pairs (normalized by the program)."""
    return [[_u(rng, 0.2, 1.0), _u(rng, -0.5, 0.5)] for _ in range(n)]


def _sinusoid(amplitude, omega, phase, offset=0.0):
    return {"kind": "sinusoid", "amplitude": amplitude, "omega": omega, "phase": phase, "offset": offset}


def single_qubit(rng):
    # 2000 RK4 steps, every step sampled
    return _scenario(
        "single-qubit",
        20.0,
        0.01,
        1,
        {
            "ep1": _sinusoid(_u(rng, 0.25, 0.3), _u(rng, 1.0, 1.2), _u(rng, 0.0, 2 * math.pi), _u(rng, -0.05, 0.05)),
            "ep2": _u(rng, -0.05, 0.05),
            "ts_mag": _u(rng, 0.48, 0.52),
            "alpha": _u(rng, 0.0, 1.5),
            "initial": _amps(rng, 2),
        },
    )


def rabi(rng):
    # 200 samples; each re-integrates from t0, so the cost is quadratic
    gap = _u(rng, 0.95, 1.05)
    shift = _u(rng, -0.2, 0.2)
    return _scenario(
        "rabi",
        10.0,
        0.01,
        5,
        {
            "e1": round(shift - 0.5 * gap, 6),
            "e2": round(shift + 0.5 * gap, 6),
            "e12": _sinusoid(_u(rng, 0.17, 0.19), round(gap * _u(rng, 0.98, 1.02), 6), _u(rng, 0.0, 2 * math.pi)),
            "initial": _amps(rng, 2),
        },
    )


def _geometry(rng):
    return {
        "kind": "collinear",
        "a": _u(rng, 0.8, 1.2),
        "b": _u(rng, 0.8, 1.2),
        "d": _u(rng, 1.5, 2.5),
        "d1": _u(rng, 0.8, 1.2),
        "d2": _u(rng, 0.8, 1.2),
        "d3": _u(rng, 1.5, 2.5),
        "coulomb_k": _u(rng, 0.5, 1.0),
    }


def cnot(rng):
    # 2000 frozen-H steps, every step sampled
    return _scenario(
        "cnot",
        20.0,
        0.01,
        1,
        {
            "vs": _u(rng, -0.1, 0.1),
            "t_u": _u(rng, 0.2, 0.4),
            "t_l": _u(rng, 0.2, 0.4),
            "geometry": _geometry(rng),
            "vs2": _u(rng, -0.1, 0.1),
            "t2": _u(rng, 0.3, 0.5),
            "initial_control": _amps(rng, 4),
            "initial_target": _amps(rng, 2),
        },
    )


def swap(rng):
    # 2001 samples of a constant H at stride 1; couplings are drawn
    # independently, so the symmetric closed form never applies
    return _scenario(
        "swap",
        20.0,
        0.01,
        1,
        {
            "vs": _u(rng, -0.1, 0.1),
            "t_u": _u(rng, 0.2, 0.4),
            "t_l": _u(rng, 0.2, 0.4),
            "ec11": _u(rng, 0.1, 0.6),
            "ec22": _u(rng, 0.1, 0.6),
            "ec12": _u(rng, 0.1, 0.6),
            "ec21": _u(rng, 0.1, 0.6),
            "initial": _amps(rng, 4),
        },
    )


def decoherence(rng):
    # 2001 samples of a constant H0 + Hdec at stride 1
    def qubit():
        return {"ep1": _u(rng, -0.1, 0.1), "ep2": _u(rng, -0.1, 0.1), "ts_mag": _u(rng, 0.3, 0.6)}

    return _scenario(
        "decoherence",
        20.0,
        0.01,
        1,
        {
            "qubitA": qubit(),
            "qubitB": qubit(),
            "d11": _u(rng, 1.0, 2.5),
            "d22": _u(rng, 1.0, 2.5),
            "d12": _u(rng, 1.0, 2.5),
            "d21": _u(rng, 1.0, 2.5),
            "coulomb_k": _u(rng, 0.2, 0.5),
            "initial": _amps(rng, 4),
        },
    )


def _initial_modes(rng):
    return [[n, m, _u(rng, 0.2, 1.0), _u(rng, -0.5, 0.5)] for n, m in ((0, 0), (1, 0), (0, 1), (1, 1))]


def spectral_assembly(rng):
    # K = 256 on a 2401-point grid: the W assembly dominates; 500 steps, 11 samples
    return _scenario(
        "spectral",
        0.5,
        0.001,
        50,
        {
            "basis": {"kind": "harmonic", "n_levels": 16, "n_grid": 2401, "omega": _u(rng, 0.98, 1.02)},
            "kernel": {"e2": _u(rng, 0.9, 1.1), "d_reg": _u(rng, 0.18, 0.22)},
            "well_offset": _u(rng, 2.8, 3.2),
            "initial_modes": _initial_modes(rng),
        },
    )


def spectral_stepping(rng):
    # K = 256 on the default grid: 2000 RK4 steps and 201 per-sample SVD entropies
    return _scenario(
        "spectral",
        2.0,
        0.001,
        10,
        {
            "basis": {"kind": "box", "n_levels": 16, "n_grid": 1601, "width": _u(rng, 3.95, 4.05)},
            "kernel": {"e2": _u(rng, 0.9, 1.1), "d_reg": _u(rng, 0.18, 0.22)},
            "well_offset": _u(rng, 3.8, 4.2),
            "initial_modes": _initial_modes(rng),
        },
    )


def generate(workload, seed):
    """The ordered job list of one pass over ``workload`` for ``seed``.

    Families are interleaved so that drift in the host's speed within a
    pass hits each of them alike.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "driven-trace":
        # equal shares: the median falls inside the middle family (cnot),
        # the tail inside the slowest (rabi)
        jobs = []
        for _ in range(2):
            jobs += [
                Job("single-qubit", "simulate", single_qubit(rng)),
                Job("rabi", "simulate", rabi(rng)),
                Job("cnot", "simulate", cnot(rng)),
            ]
        return jobs
    if workload == "static-sweep":
        # decoherence points are slower and the majority, so both the median
        # and the tail fall inside that family rather than on a family boundary
        jobs = [Job("swap", "sweep", swap(rng), "parameters.t_u", tuple(_u(rng, 0.2, 0.4) for _ in range(3)))]
        for _ in range(2):
            jobs.append(
                Job("decoherence", "sweep", decoherence(rng), "parameters.d12", tuple(_u(rng, 1.0, 2.5) for _ in range(4)))
            )
        return jobs
    if workload == "galerkin":
        # stepping points are slower and the majority, for the same reason
        jobs = []
        for _ in range(2):
            jobs += [
                Job("spectral-assembly", "simulate", spectral_assembly(rng)),
                Job("spectral-stepping", "simulate", spectral_stepping(rng)),
                Job("spectral-stepping", "simulate", spectral_stepping(rng)),
            ]
        return jobs
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def crosscheck_jobs():
    """Fixed points whose call counts are known in advance.

    swap, 2001 samples: 2000 ``evolve4`` calls plus the summary's own
    diagonalization give 2001 ``eig_hermitian`` and 8004 ``fix_phase``.
    rabi, 400 samples after t0: three ``integrate`` calls each, 1200.
    """
    swap_cfg = _scenario(
        "swap",
        20.0,
        0.01,
        1,
        {"vs": 0.0, "t_u": 0.3, "t_l": 0.25, "ec11": 0.5, "ec22": 0.4, "ec12": 0.2, "ec21": 0.3},
    )
    rabi_cfg = _scenario(
        "rabi",
        20.0,
        0.01,
        5,
        {"e1": -0.5, "e2": 0.5, "e12": _sinusoid(0.2, 1.0, 0.3)},
    )
    expected = {
        "swap": {"qcore.eig_hermitian": 2001, "qcore.fix_phase": 8004},
        "rabi": {"signals.integrate": 1200},
    }
    return [Job("swap", "simulate", swap_cfg), Job("rabi", "simulate", rabi_cfg)], expected
