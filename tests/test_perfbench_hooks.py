"""The benchmark under perfbench/ reads and wraps library names from outside.

Importing its workloads and installing its tracer here makes a deleted or
renamed name fail the test suite instead of the benchmark run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install(with_eigvalsh=True)
    patched = list(tracer._patched)
    try:
        assert patched
        assert all(getattr(module, attr) is not orig
                   for module, attr, orig in patched)
    finally:
        tracer.restore()
    assert all(getattr(module, attr) is orig for module, attr, orig in patched)
