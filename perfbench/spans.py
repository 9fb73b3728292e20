"""In-memory spans and counters around calls into thermops.

`Tracer.install()` replaces the public functions named in SPANNED_FUNCTIONS
with timing wrappers in every thermops module that holds them, because
`thermops.cli` and `thermops.cones` import functions by name: patching only
the defining module would miss those call sites.  Methods are wrapped on
their class.  `uninstall()` puts every original back.

A span is (name, start, end, parent index); self time is the span minus the
time its child spans cover.  Spans stay in memory until the caller writes
them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("thermops", "thermops.core", "thermops.channels", "thermops.bounds", "thermops.cones", "thermops.cli")

# span name, defining module, attribute
SPANNED_FUNCTIONS = (
    ("core.trace_distance", "thermops.core", "trace_distance"),
    ("channels.haar_stack", "thermops.channels", "haar_stack"),
    ("channels.random_blocks", "thermops.channels", "random_blocks"),
    ("channels.sto_population_matrix", "thermops.channels", "sto_population_matrix"),
    ("channels.sto_channel", "thermops.channels", "sto_channel"),
    ("channels.cptp_deviation", "thermops.channels", "cptp_deviation"),
    ("channels.verify_gibbs_preserving", "thermops.channels", "verify_gibbs_preserving"),
    ("channels.verify_covariant", "thermops.channels", "verify_covariant"),
    ("channels.transition_matrix", "thermops.channels", "transition_matrix"),
    ("bounds.saturation_check", "thermops.bounds", "saturation_check"),
    ("cones.to_membership_residual", "thermops.cones", "to_membership_residual"),
    ("cones.to_support", "thermops.cones", "to_support"),
    ("cones.elto_cone_sample", "thermops.cones", "elto_cone_sample"),
    ("cones.sto_cone_sample", "thermops.cones", "sto_cone_sample"),
    ("cones.hull_margin", "thermops.cones", "hull_margin"),
    ("cones.cone_dict", "thermops.cones", "cone_dict"),
    ("cli.main", "thermops.cli", "main"),
)

# span name, class, method; __init__ covers the dataclass validation
SPANNED_METHODS = (
    ("channels.BlockUnitary", "BlockUnitary", "__init__"),
    ("channels.KrausChannel.compose", "KrausChannel", "compose"),
)

# KrausChannel.apply is counted, not spanned, so that its time stays in the
# certificate that called it (verify_covariant spends most of its time there).
APPLY_CALLS = "channels.KrausChannel.apply.calls"
# every certified channel passes cptp_deviation exactly once
KRAUS_OPS = "channels.kraus_ops"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._undo = []
        # set when the spans were recorded in another process
        self.wall_s = None

    @contextmanager
    def region(self, name):
        """A span around the block; spans opened inside it are its children."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.region(name):
                return fn(*args, **kwargs)

        return spanned

    def _replace(self, original, replacement):
        for mod_name in MODULES:
            mod = sys.modules[mod_name]
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, replacement)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for mod_name in MODULES:
            importlib.import_module(mod_name)
        channels = importlib.import_module("thermops.channels")
        counters = self.counters

        cptp = channels.cptp_deviation

        @functools.wraps(cptp)
        def counted_cptp(ch):
            counters[KRAUS_OPS] += len(ch.kraus)
            return cptp(ch)

        self._replace(cptp, counted_cptp)

        apply = channels.KrausChannel.apply

        @functools.wraps(apply)
        def counted_apply(self_, rho):
            counters[APPLY_CALLS] += 1
            return apply(self_, rho)

        self._set(channels.KrausChannel, "apply", counted_apply)

        for name, module, attr in SPANNED_FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            self._replace(original, self.wrap(name, original))
        for name, cls_name, method in SPANNED_METHODS:
            cls = getattr(channels, cls_name)
            self._set(cls, method, self.wrap(name, getattr(cls, method)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset(self):
        self.spans.clear()
        self.counters.clear()
        self.wall_s = None

    def load(self, path):
        """Take over the spans and counters another process wrote."""
        self.reset()
        with open(path) as fh:
            for line in fh:
                row = json.loads(line)
                if "counters" in row:
                    self.counters.update(row["counters"])
                    self.wall_s = row["end"] - row["start"]
                else:
                    self.spans.append((row["name"], row["start"], row["end"], row["parent"]))

    def write(self, path, start, end):
        """The spans, then one object for the counters and the region they
        were recorded in."""
        with open(path, "w") as fh:
            dump(fh, self.spans)
            fh.write(json.dumps({"counters": dict(self.counters), "start": start, "end": end}) + "\n")


def dump(fh, spans, **fields):
    """One JSON object per span, with any extra fields."""
    for name, start, end, parent in spans:
        fh.write(json.dumps({**fields, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


def summarize(spans, counters, wall_s):
    """Per-layer metrics of one traced iteration: `<name>.calls` and
    `<name>.self_s` per span name, the counters, and `trace.coverage`, the
    share of wall_s that top-level spans cover."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out = defaultdict(float)
    covered = 0.0
    for idx, (name, start, end, parent) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - child_s[idx]
        if parent < 0:
            covered += end - start
    out.update(counters)
    out["trace.coverage"] = covered / wall_s
    return dict(out)
