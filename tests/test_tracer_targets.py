"""The benchmark harness calls the library by name: the tracer wraps
functions named by string, and the workloads call the public API.  A
renamed target or a changed signature would make every benchmark run fail
before it measures anything; these tests fail first."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def test_spanned_targets_exist():
    spans = _perfbench_module("spans")
    channels = importlib.import_module("thermops.channels")
    originals = {
        name: getattr(importlib.import_module(module), attr) for name, module, attr in spans.SPANNED_FUNCTIONS
    }
    for name, cls_name, method in spans.SPANNED_METHODS:
        originals[name] = getattr(getattr(channels, cls_name), method)
    assert all(map(callable, originals.values()))

    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for name, module, attr in spans.SPANNED_FUNCTIONS:
        assert getattr(importlib.import_module(module), attr) is originals[name]
    for name, cls_name, method in spans.SPANNED_METHODS:
        assert getattr(getattr(channels, cls_name), method) is originals[name]


@pytest.mark.parametrize(
    "make",
    [
        lambda w: w.Certify(1, sizes=((2, 10), (3, 10)), compose_truncation=10),
        lambda w: w.ConeSweep(1, elto_random=10, sto_random=10),
        lambda w: w.ConeAll(1, samples=10, directions=12, depth=2),
    ],
    ids=["certify", "cone-sweep", "cone-all"],
)
def test_workload_runs_untraced(make, tmp_path, monkeypatch):
    """Two iterations of a workload at the smoke-check sizes; `cone-all`
    runs the CLI in a fresh process and writes its document under tmp_path."""
    workloads = _perfbench_module("workloads")
    monkeypatch.setattr(workloads, "OUT", tmp_path)
    workload = make(workloads)
    for i in range(2):  # the second check compares its bytes with the first
        checks = workload.check(workload.run(i))
        assert checks and all(checks.values()), checks
