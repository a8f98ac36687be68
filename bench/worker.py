"""One benchmark process: set-up, timed phase(s) and, when traced, spans.

Started by ``run.py`` with BLAS/OpenMP threads pinned to 1; prints one
JSON line of raw measurements on stdout.  Modes:

``setup``    import ``posqubit``, generate the configs, warm up; report the time.
``measure``  set up, then run whole passes over the workload's jobs until
             ``--seconds`` have passed (closed loop, one client).  With
             ``--trace 1`` the time is split: an untraced half, then a
             traced half, then the call-count cross-check against cProfile.

The first output of every point and the hash of every repeat go to the
``--out`` pickle, which ``run.py`` checks against the reference after
this process has exited, so the reference never counts toward this
process's time or memory.
"""

import argparse
import cProfile
import hashlib
import json
import pickle
import pstats
import resource
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2  # every point repeats at least once, for the determinism check
MIN_POINTS = 22  # ten samples beyond the tail percentile leave it at p50 or above


def probe():
    """Seconds a fixed loop of small NumPy calls takes: a reading of the host's current speed.

    The program spends most of its time in calls like these, and they
    slow down with the host about as much as the program does.  NumPy is
    imported here, not at the top, so that set-up still counts its import.
    """
    import numpy as np

    h = np.array([[0.3, 0.5 + 0.1j], [0.5 - 0.1j, -0.2]])
    t0 = perf_counter()
    for _ in range(100):
        e, v = np.linalg.eigh(h)
        (v * np.exp(-1j * e)) @ v.conj().T
    return perf_counter() - t0


class _Clock:
    """Sweep values that time each point and probe the host around it.

    ``sweep`` asks for value k+1 only after point k is complete, so the
    time from handing out value k to the next request is point k's
    latency, taken without touching the program.  A probe runs at every
    request, outside the latencies.
    """

    def __init__(self, values):
        self.values = values
        self.starts, self.ends, self.probes = [], [], []

    def __iter__(self):
        for value in self.values:
            self._request()
            yield value
        self._request()

    def _request(self):
        self.ends.append(perf_counter())
        self.probes.append(probe())
        self.starts.append(perf_counter())

    def points(self):
        """(latency, mean of the two probes around it) per completed point."""
        return [
            (end - start, (p0 + p1) / 2)
            for start, end, p0, p1 in zip(self.starts, self.ends[1:], self.probes, self.probes[1:])
        ]


def run_job(cli, job):
    """Run one job; return [(latency_s, probe_s, output text or None, error or None)] per point."""
    if job.mode == "simulate":
        before = probe()
        t0 = perf_counter()
        try:
            series, summary = cli.run_scenario(job.cfg)
            text, error = cli.format_csv(series, summary), None
        except Exception as exc:  # a failing point is counted, not fatal
            text, error = None, repr(exc)
        latency = perf_counter() - t0
        return [(latency, (before + probe()) / 2, text, error)]
    clock = _Clock(job.values)
    t0 = perf_counter()
    try:
        rows = cli.sweep(job.cfg, job.axis, clock)
    except Exception as exc:  # sweep itself aborted: every point of it failed
        share = (perf_counter() - t0) / job.n_points
        return [(share, sum(clock.probes) / len(clock.probes), None, repr(exc))] * job.n_points
    out = []
    for (latency, speed), row in zip(clock.points(), rows):
        error = None if row.get("status") == "ok" else row.get("error", "failed")
        out.append((latency, speed, json.dumps(row, sort_keys=True), error))
    return out


class Recorder:
    """First outputs and output hashes per point, over every phase."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first = {}  # (job, point) -> first successful output
        self.digests = {}  # (job, point) -> digest per occurrence (None on error)
        self.errors = {}

    def add(self, key, output, error):
        digest = None
        if error is None:
            digest = hashlib.sha256(output.encode()).hexdigest()
            self.first.setdefault(key, output)
        else:
            self.errors.setdefault(key, error)
        self.digests.setdefault(key, []).append(digest)

    def dump(self, path):
        points = []
        for ji, job in enumerate(self.jobs):
            for pi, cfg in enumerate(job.point_configs()):
                key = (ji, pi)
                points.append(
                    {
                        "family": job.family,
                        "mode": job.mode,
                        "cfg": cfg,
                        "output": self.first.get(key),
                        "error": self.errors.get(key),
                        "digests": self.digests.get(key, []),
                    }
                )
        with open(path, "wb") as fh:
            pickle.dump(points, fh)


def timed_phase(cli, jobs, seconds, recorder, tracer=None):
    """Whole passes over ``jobs`` until ``seconds`` have passed.

    Each point is bracketed by two host-speed probes; its probe is their
    mean.
    """
    phase = {"passes": 0, "latencies": [], "probes": [], "families": []}
    start = perf_counter()
    while True:
        for ji, job in enumerate(jobs):
            if tracer is not None:
                tracer.point = len(phase["latencies"])
            for pi, (latency, speed, output, error) in enumerate(run_job(cli, job)):
                recorder.add((ji, pi), output, error)
                phase["latencies"].append(latency)
                phase["probes"].append(speed)
                phase["families"].append(job.family)
        phase["passes"] += 1
        phase["elapsed_s"] = perf_counter() - start
        if phase["elapsed_s"] >= seconds and phase["passes"] >= MIN_PASSES and len(phase["latencies"]) >= MIN_POINTS:
            return phase


def setup(workload, seed):
    """Import the package, generate the configs and warm up each family once.

    Returns (seconds, the probe just after, cli, jobs).
    """
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from posqubit import cli

    jobs = workloads.generate(workload, seed)
    seen = set()
    for job in jobs:  # called directly, so no probe counts toward set-up
        if job.family not in seen:
            seen.add(job.family)
            if job.mode == "simulate":
                cli.format_csv(*cli.run_scenario(job.cfg))
            else:
                cli.sweep(job.cfg, job.axis, job.values[:1])
    seconds = perf_counter() - t0
    probe()  # a process's first probe reads slow
    return seconds, (probe() + probe()) / 2, cli, jobs


def _profile_counts(tracer, prof):
    """Per-name call counts from cProfile, keyed like the tracer's names."""
    stats = pstats.Stats(prof).stats
    by_code = {(f, line, name): s[1] for (f, line, name), s in stats.items()}
    counts = {}
    for name, fn in zip(tracer.names, tracer.originals):
        code = fn.__code__
        counts[name] = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
    signals_file = sys.modules["posqubit.signals"].__file__
    evals = sum(n for (f, _, name), n in by_code.items() if f == signals_file and name == "sig")
    return counts, evals


def crosscheck(cli):
    """Compare traced call counts with cProfile's on fixed points."""
    jobs, expected = workloads.crosscheck_jobs()
    report = []
    for job in jobs:
        tracer = Tracer().install()
        run_job(cli, job)
        tracer.uninstall()
        prof = cProfile.Profile()
        prof.enable()
        run_job(cli, job)
        prof.disable()
        counts, evals = _profile_counts(tracer, prof)
        traced = tracer.counts()
        mismatched = {n: [traced[n], counts[n]] for n in traced if traced[n] != counts[n]}
        if tracer.signal_evals != evals:
            mismatched["signals.evals"] = [tracer.signal_evals, evals]
        wrong = {n: [traced[n], v] for n, v in expected[job.family].items() if traced[n] != v}
        report.append(
            {
                "point": job.family,
                "counts": {n: traced[n] for n in expected[job.family]},
                "signals.evals": tracer.signal_evals,
                "functions_compared": len(traced),
                "mismatched_with_cprofile": mismatched,
                "wrong_expected": wrong,
            }
        )
    return report


def _peak_rss_kib():
    """High-water resident set of this process's own address space, in KiB.

    ``ru_maxrss`` would also count the launcher: Linux carries the
    pre-exec peak into the new program.  ``VmHWM`` starts afresh at exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--spans")
    args = ap.parse_args()

    setup_s, setup_probe, cli, jobs = setup(args.workload, args.seed)
    result = {"setup_s": setup_s, "setup_probe": setup_probe}
    if args.mode == "measure":
        recorder = Recorder(jobs)
        phase = args.seconds / 2 if args.trace else args.seconds
        result.update(timed_phase(cli, jobs, phase, recorder), peak_rss_kib=_peak_rss_kib())
        if args.trace:
            tracer = Tracer().install()
            traced = timed_phase(cli, jobs, phase, recorder, tracer)
            tracer.uninstall()
            result["traced"] = dict(
                traced,
                counts=tracer.counts(),
                self_s=tracer.self_times(),
                signal_evals=tracer.signal_evals,
                spans=len(tracer.start),
                bindings_patched=tracer.bindings_patched,
            )
            if args.spans:
                tracer.save(args.spans, {"workload": args.workload, "seed": args.seed, "passes": traced["passes"]})
            result["crosscheck"] = crosscheck(cli)
        recorder.dump(args.out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
