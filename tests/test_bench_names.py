"""The benchmark's traced run looks up package functions by name.

``bench/run.py --trace 1`` reads a call count or self time for every
``.calls`` / ``.self_s`` metric of ``BENCHMARK.json``, the cross-check
pins counts of a few more functions, and the tracer counts the calls of
the signal factories' signals.  A function renamed or deleted from under
those names would make the traced run raise ``KeyError``; this test
fails first.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_public_function(qualified):
    """The tracer's rule: a non-underscore function defined in that module."""
    layer, attr = qualified.split(".")
    module = importlib.import_module(f"posqubit.{layer}")
    value = getattr(module, attr, None)
    return not attr.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__


def test_benchmark_names_only_public_functions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"] if m["name"].endswith((".calls", ".self_s"))}
    _, expected = _bench_module("workloads").crosscheck_jobs()
    crosscheck = {name for counts in expected.values() for name in counts}
    factories = {f"signals.{name}" for name in _bench_module("tracer").SIGNAL_FACTORIES}
    assert len(crosscheck) == 3 and len(factories) == 3
    missing = sorted(n for n in names | crosscheck | factories if not _is_public_function(n))
    assert missing == []
