"""The benchmark tracer wraps library names by string; a renamed or removed
target makes every traced run fail before it measures anything."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_spanned_targets_exist():
    sys.path.insert(0, str(PERFBENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(PERFBENCH))
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
