#!/usr/bin/env python3
"""posqubit benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload driven-trace --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from a source checkout; the package is imported from ``src/``.
Each workload run uses fresh processes with BLAS/OpenMP threads pinned
to 1: two set-up-only processes, the measuring process and two more
set-up-only processes; the median of the five set-ups is ``setup_s``.  The loop is
closed with one client: each point starts after the previous one
completes.  The outputs are then checked here, after the measuring
process has exited, against the independent reference in
``reference.py``.  Timings are taken at a reference host speed; see
``host_adjusted``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a separate traced half of the run.  Both lists,
with their units, are read from ``BENCHMARK.json``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
DEADLINE_S = 170.0
REF_PROBE_S = 0.002  # reference host speed: worker.probe takes 2 ms
SETUPS_AROUND = 2  # set-up-only processes before and again after the measuring one


class BenchError(Exception):
    pass


def _child(args, deadline):
    """Run a worker process to completion; its last stdout line is JSON."""
    env = dict(os.environ, **THREAD_VARS)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"worker {' '.join(args[:2])} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args[:2])} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(path):
    """Check every point against the reference and for byte-identical repeats."""
    import reference

    with open(path, "rb") as fh:
        points = pickle.load(fh)
    attempted = failed = 0
    worst, worst_at = 0.0, None
    by_family = {}
    notes = []
    missed = None
    for k, pt in enumerate(points):
        digests = pt["digests"]
        attempted += len(digests)
        if pt["output"] is None:
            failed += len(digests)
            notes.append(f"point {k} ({pt['family']}) failed: {pt['error']}")
            continue
        bad = reference.repeat_mismatches(digests)
        if pt["mode"] == "simulate":
            columns, summary = reference.parse_csv(pt["output"])
        else:
            columns, summary = None, json.loads(pt["output"])
            del summary["value"], summary["status"]
        ref_columns, ref_summary = reference.reference(pt["cfg"])
        dev, where, problems = reference.compare(columns, summary, ref_columns, ref_summary)
        if missed is None:
            missed = reference.self_check(columns, summary, ref_columns, ref_summary, next(d for d in digests if d))
        if reference.point_fails(dev, problems):
            bad = len(digests)
            notes.append(f"point {k} ({pt['family']}) differs from reference: {dev:.3e} at {where}; {problems}")
        elif bad:
            notes.append(f"point {k} ({pt['family']}): {bad} of {len(digests)} runs gave other output bytes")
        failed += bad
        if not problems:
            by_family[pt["family"]] = max(by_family.get(pt["family"], 0.0), dev)
            if dev >= worst:
                worst, worst_at = dev, f"point {k} ({pt['family']}) {where}"
    if missed is None:
        missed = ["no point produced output to self-check"]
    return {
        "attempted": attempted,
        "failed": failed,
        "accuracy_digits": reference.digits(worst),
        "worst": worst,
        "worst_at": worst_at,
        "by_family": by_family,
        "notes": notes,
        "selfcheck_missed": missed,
    }


def at_reference_speed(seconds, probe):
    """A time scaled from the host speed read by ``probe`` to the reference speed."""
    return seconds * REF_PROBE_S / probe


def host_adjusted(phase):
    """Every point's latency, at the reference host speed.

    The host's speed drifts by up to 2x, within seconds and between runs.
    A point's probe (a fixed loop of small NumPy calls, timed just before
    and after it) reads that speed; each latency is scaled by
    ``REF_PROBE_S`` / its probe.
    """
    return [at_reference_speed(lat, probe) for lat, probe in zip(phase["latencies"], phase["probes"])]


def rate(latencies):
    """Points per second of point time: closed loop, one client."""
    return len(latencies) / sum(latencies)


def tail(latencies):
    """(value, percentile) at the highest percentile with ten samples beyond it."""
    s = sorted(latencies)
    i = max(0, len(s) - 11)
    return s[i], 100.0 * (i + 1) / len(s)


def _layer_metrics(traced, untraced_rate, jobs, layer_names):
    """Per-layer values per pass of the traced phase, keyed as in BENCHMARK.json."""
    import workloads

    passes = traced["passes"]
    per_pass_points = len(traced["latencies"]) / passes
    samples = sum(workloads.n_samples(cfg) for job in jobs for cfg in job.point_configs())
    mesh = max(
        [(cfg["parameters"]["basis"]["n_grid"] ** 2) * 8 / 2**20 for job in jobs for cfg in job.point_configs() if cfg["kind"] == "spectral"]
        or [0.0]
    )
    traced_rate = rate(host_adjusted(traced))
    special = {
        "qcore.eig_hermitian.per_point": traced["counts"]["qcore.eig_hermitian"] / passes / per_pass_points,
        "signals.evals": traced["signal_evals"] / passes,
        "signals.evals_per_sample": traced["signal_evals"] / passes / samples,
        "spectral.mesh_mb": mesh,
        "trace.untraced_points_per_s": untraced_rate,
        "trace.traced_points_per_s": traced_rate,
        "trace.overhead_ratio": traced_rate / untraced_rate,
    }
    out = {}
    for name in layer_names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = traced["counts"][name[: -len(".calls")]] / passes
        elif name.endswith(".self_s"):
            out[name] = traced["self_s"][name[: -len(".self_s")]] / passes
        else:
            raise BenchError(f"BENCHMARK.json names unknown per-layer metric {name}")
    return out


def run_workload(workload, seed, seconds, trace, deadline, spec):
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []  # (seconds, probe)

    def setup_only():
        if not trace:  # the traced run reports no setup_s
            for _ in range(SETUPS_AROUND):
                got = _child(["--mode", "setup", *base], deadline)
                setups.append((got["setup_s"], got["setup_probe"]))

    setup_only()
    out = OUT_DIR / f"outputs-{workload}-{seed}-{os.getpid()}.pkl"
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
    args = ["--mode", "measure", *base, "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    try:
        stats = _child(args + (["--spans", str(spans)] if trace else []), deadline)
        check = check_outputs(out)
    finally:
        out.unlink(missing_ok=True)
    setups.append((stats["setup_s"], stats["setup_probe"]))
    setup_only()
    lat = host_adjusted(stats)
    tail_value, tail_pct = tail(lat)
    res = {
        "workload": workload,
        "stats": stats,
        "check": check,
        "setups": setups,
        "tail_pct": tail_pct,
        "e2e": {
            "setup_s": statistics.median(at_reference_speed(t, p) for t, p in setups),
            "points_per_s": rate(lat),
            "point_p50_s": statistics.median(lat),
            "point_tail_s": tail_value,
            "accuracy_digits": check["accuracy_digits"],
            "peak_rss_mb": stats["peak_rss_kib"] / 1024.0,
        },
    }
    correct = check["failed"] == 0 and not check["selfcheck_missed"]
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        jobs = workloads.generate(workload, seed)
        res["layers"] = _layer_metrics(stats["traced"], res["e2e"]["points_per_s"], jobs, names)
        for cc in stats["crosscheck"]:
            correct = correct and not cc["mismatched_with_cprofile"] and not cc["wrong_expected"]
        res["spans_file"] = str(spans.relative_to(ROOT))
    res["correct"] = correct
    return res


def print_report(res, seconds, trace, spec):
    st, ck, e = res["stats"], res["check"], res["e2e"]
    w = res["workload"]
    n = len(st["latencies"])
    probes = sorted(st["probes"])
    phase = f"untraced half, asked {seconds / 2:g} s" if trace else f"asked {seconds:g} s"
    print(f"== workload {w}: {n} points in {st['passes']} whole passes, {st['elapsed_s']:.2f} s ({phase})")
    print(
        f"   timings below: all {n} points, each scaled to the reference host "
        f"speed (probe {REF_PROBE_S * 1e3:g} ms); this run's probe min {probes[0] * 1e3:.3f} ms, "
        f"median {statistics.median(probes) * 1e3:.3f} ms, max {probes[-1] * 1e3:.3f} ms"
    )
    print(
        f"   as timed: wall rate {n / st['elapsed_s']:.4f} 1/s, p50 {statistics.median(st['latencies']):.5f} s, "
        f"tail {tail(st['latencies'])[0]:.5f} s"
    )
    if not trace:
        raw = ", ".join(f"{t:.4f} s at probe {p * 1e3:.3f} ms" for t, p in res["setups"])
        print(f"setup_s          {e['setup_s']:.4f} s       median of {len(res['setups'])} set-ups at reference speed; as timed: {raw}")
    print(f"points_per_s     {e['points_per_s']:.4f} 1/s     {n} points / their summed latency")
    print(f"point_p50_s      {e['point_p50_s']:.5f} s       n={n}")
    print(f"point_tail_s     {e['point_tail_s']:.5f} s       p{res['tail_pct']:.1f}, n={n}, 10 samples beyond")
    print(f"accuracy_digits  {e['accuracy_digits']:.3f} digits  worst deviation {ck['worst']:.3e} at {ck['worst_at']}")
    print(f"peak_rss_mb      {e['peak_rss_mb']:.1f} MiB     measuring process VmHWM")
    ratio = ck["failed"] / ck["attempted"] if ck["attempted"] else 1.0
    print(f"failed_ratio     {ratio:.4f} ratio   {ck['failed']} failed / {ck['attempted']} attempted")
    print("  worst deviation per family: " + ", ".join(f"{k} {v:.2e}" for k, v in sorted(ck["by_family"].items())))
    for note in ck["notes"][:10]:
        print(f"  ! {note}")
    print(f"  self-check (perturbed output and non-repeating output flagged): {'ok' if not ck['selfcheck_missed'] else ck['selfcheck_missed']}")
    if trace:
        tr = st["traced"]
        print(
            f"-- traced half: {len(tr['latencies'])} points in {tr['passes']} passes, {tr['spans']} spans -> {res['spans_file']}, "
            f"{tr['bindings_patched']} module bindings patched"
        )
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in res["layers"].items():
            print(f"  {name:48s} {value:.6g} {units[name]}")
        print(
            f"  tracing overhead: traced {res['layers']['trace.traced_points_per_s']:.4f} 1/s / untraced "
            f"{res['layers']['trace.untraced_points_per_s']:.4f} 1/s = {res['layers']['trace.overhead_ratio']:.3f}"
        )
        for cc in st["crosscheck"]:
            print(
                f"  cross-check {cc['point']}: counts {cc['counts']}, signals.evals {cc['signals.evals']}, "
                f"{cc['functions_compared']} functions vs cProfile, mismatched {cc['mismatched_with_cprofile'] or 'none'}, "
                f"unexpected {cc['wrong_expected'] or 'none'}"
            )


def load_spec():
    """BENCHMARK.json, after checking that ``layers.json`` maps exactly its per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    mapped = set(json.loads((BENCH / "layers.json").read_text())["map"])
    if declared != mapped:
        raise BenchError(
            f"layers.json and BENCHMARK.json disagree on the per-layer metrics: only in BENCHMARK.json "
            f"{sorted(declared - mapped)}, only in layers.json {sorted(mapped - declared)}"
        )
    return spec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "posqubit" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'posqubit'}; run from a posqubit checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_VARS)  # this process checks outputs with numpy/scipy too
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError, BenchError) as exc:
        print(f"error: cannot read the metric lists: {exc}", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    print(
        f"# posqubit benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}; "
        "closed loop, 1 client, one point at a time"
    )
    print(
        f"# machine: cores={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} platform={platform.platform()}"
    )
    print("# env: " + " ".join(f"{k}={v}" for k, v in THREAD_VARS.items()))
    print(
        "# limits: the file cache is not dropped between runs, so setup_s is a warm-cache import; "
        "the host's speed drifts and no core can be isolated (see the probe line per workload)"
    )
    deadline = time.monotonic() + DEADLINE_S * len(chosen)
    results = []
    try:
        for w in chosen:
            res = run_workload(w, args.seed, args.seconds, args.trace, deadline, spec)
            print_report(res, args.seconds, args.trace, spec)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        if args.trace:
            metrics.update({prefix + m["name"]: {"value": res["layers"][m["name"]], "unit": m["unit"]} for m in spec["per_layer"]})
        else:
            metrics.update({prefix + m["name"]: {"value": res["e2e"][m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]})
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["check"]["attempted"] for r in results),
                "failed": sum(r["check"]["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
