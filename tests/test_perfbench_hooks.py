"""The benchmark under perfbench/ reads and wraps library names from outside.

Importing its workloads and installing its tracer here makes a deleted or
renamed name fail the test suite instead of the benchmark run; running each
workload's warm-up op through its gate does the same for a removed keyword
or a changed return value.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_benchmark_hooks_resolve(workloads):
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


@pytest.mark.parametrize("name", ["table1", "gap_grid", "flow", "mc"])
def test_benchmark_warmup_op_passes_its_gate(workloads, name):
    op = workloads.WORKLOADS[name](seed=1, tiny=True).warmup_op()
    checks = op.gate(op.run())
    assert checks
    for check, (value, limit) in checks.items():
        assert value <= limit, (check, value, limit)
