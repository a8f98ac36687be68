"""A traced benchmark run is correct only if its call counts hold.

``bench/run.py --trace 1`` marks its run incorrect when the tracer's call
count of any public function differs from cProfile's, or when the fixed
swap and Rabi cross-check points stop making 2001 ``eig_hermitian``,
8004 ``fix_phase`` and 1200 ``integrate`` calls.  The first happens when
a call goes through a binding the tracer does not patch; the second when
the swap, Rabi or signal call graph changes.  These tests fail first, on
the cross-check points and on one point of each scenario kind.
"""

import cProfile
import importlib.util
import random
import sys
from pathlib import Path

import pytest

import posqubit.cli as cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def worker():
    """``bench/worker.py``, which imports its sibling modules by bare name."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_worker", BENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def test_crosscheck_points_keep_their_counts(worker):
    report = worker.crosscheck(cli)
    assert [entry["point"] for entry in report] == ["swap", "rabi"]
    for entry in report:
        assert entry["mismatched_with_cprofile"] == {}
        assert entry["wrong_expected"] == {}
        assert entry["functions_compared"] > 0


def _traced_and_profiled(worker, run):
    """Run ``run`` once traced and once under cProfile; return the traced
    counts and every name whose two counts differ."""
    tracer = worker.Tracer().install()
    try:
        run()
    finally:
        tracer.uninstall()
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    counts, evals = worker._profile_counts(tracer, prof)
    traced = tracer.counts()
    mismatched = {name: [traced[name], counts[name]] for name in traced if traced[name] != counts[name]}
    if tracer.signal_evals != evals:
        mismatched["signals.evals"] = [tracer.signal_evals, evals]
    return traced, mismatched


KINDS = [
    ("single-qubit", "single_qubit", False),
    ("rabi", "rabi", False),
    ("swap", "swap", False),
    ("cnot", "cnot", False),
    ("decoherence", "decoherence", False),
    ("decoherence", "decoherence", True),
    ("spectral", "spectral_assembly", False),
]


@pytest.mark.parametrize(("kind", "generator", "paper_factorized"), KINDS)
def test_traced_counts_equal_cprofile_counts(worker, kind, generator, paper_factorized):
    cfg = getattr(worker.workloads, generator)(random.Random(f"crosscheck:{kind}"))
    assert cfg["kind"] == kind
    if paper_factorized:
        cfg["parameters"]["paper_factorized"] = True

    def run():
        cli.format_csv(*cli.run_scenario(cfg))

    traced, mismatched = _traced_and_profiled(worker, run)
    assert mismatched == {}
    assert traced["cli.run_scenario"] == traced["cli.format_csv"] == 1
    if kind == "decoherence":
        # one pure-state check and no density stack
        assert traced["measurement.validate_density"] == traced["measurement.pure_density"] == 1
        assert traced["decoherence.evolve_density_with_decoherence"] == 0
