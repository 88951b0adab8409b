"""Span recorder that wraps attnlab's public functions from outside the package.

Every public module-level function of an attnlab module is replaced, at each
name binding that holds it (the defining module and every module that
imported it), by one wrapper that records a span: name, start, end and parent.
``ScheduleConfig.is_active`` and ``RunConfig.from_dict`` are wrapped on their
classes, and ``verification.run_suite`` records one span per suite under
``verification.suite.<name>``. ``wrapped`` holds every span name that can be
recorded, so a metric naming a function that no longer exists is an error,
not a zero. Spans are kept in flat in-memory arrays and written out only at
the end; per-layer metrics are computed from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from array import array
from time import perf_counter

import numpy as np

MODULES = (
    "analysis",
    "attention",
    "calibration",
    "cli",
    "config",
    "numerics",
    "scheduling",
    "simulate",
    "tensorio",
    "verification",
)
STATS = ("calls", "s", "self_s", "bytes")
# Ratios and counts that layer_metrics derives from several spans.
DERIVED = (
    "simulate.baseline_forward.calls",
    "simulate.baseline_forward.redundant_frac",
    "scheduling.scheduled_attention.active_frac",
)


def _nbytes(x) -> float:
    return float(getattr(x, "nbytes", 0))


# Work sizes recorded on a span after its end time is taken, so they cost no
# span time. Bytes are computed from array sizes, not measured traffic.
MEASURES = {
    "tensorio.read_tensor": lambda args, kwargs, out: _nbytes(out),
    "tensorio.decode_tensor": lambda args, kwargs, out: _nbytes(out),
    "calibration.foreground_ratio": lambda args, kwargs, out: _nbytes(args[0])
    + _nbytes(args[1]),
    "cli.write_report": lambda args, kwargs, out: float(os.path.getsize(out)),
    "scheduling.is_active": lambda args, kwargs, out: float(out),
}


class Tracer:
    """Collects spans while installed; ``uninstall`` restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.value = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name=None, name_of=None):
        """Wrapper recording one span per call, named ``name`` or ``name_of(args, kwargs)``."""
        fixed = None if name_of else self._id(name)
        if name_of is None:
            self.wrapped.add(name)
        measure = MEASURES.get(name)
        name_id, start, end, parent, value = (
            self.name_id, self.start, self.end, self.parent, self.value
        )
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(fixed if name_of is None else self._id(name_of(args, kwargs)))
            parent.append(stack[-1])
            end.append(0.0)
            value.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if measure is not None:
                value[idx] = measure(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module("attnlab." + m) for m in MODULES}
        suite_name = lambda args, kwargs: "verification.suite." + (
            args[0] if args else kwargs["name"]
        )
        wrappers = {}
        for mod in [*mods.values(), importlib.import_module("attnlab")]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("attnlab."):
                    continue
                if id(obj) not in wrappers:
                    short = obj.__module__.rsplit(".", 1)[1]
                    if (short, obj.__name__) == ("verification", "run_suite"):
                        wrappers[id(obj)] = self.wrap(obj, name_of=suite_name)
                        self.wrapped.update(
                            "verification.suite." + n for n in mods["verification"]._SUITE_FUNCS
                        )
                    else:
                        wrappers[id(obj)] = self.wrap(obj, f"{short}.{obj.__name__}")
                self._undo.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        cls = mods["scheduling"].ScheduleConfig
        self._undo.append((cls, "is_active", vars(cls)["is_active"]))
        cls.is_active = self.wrap(cls.is_active, "scheduling.is_active")
        cls = mods["config"].RunConfig
        self._undo.append((cls, "from_dict", vars(cls)["from_dict"]))
        cls.from_dict = classmethod(self.wrap(cls.from_dict.__func__, "config.from_dict"))

    def records(self, metric: str) -> bool:
        """Whether ``<span>.<stat>`` names a span this tracer wraps and a stat it keeps."""
        span, stat = metric.rsplit(".", 1)
        if stat == "bytes":
            return span in MEASURES and span in self.wrapped
        return stat in STATS and span in self.wrapped

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """``<span>.<stat>`` for every span name, plus the derived ratios.

    ``s`` is inclusive time, ``self_s`` is ``s`` minus the time of direct child
    spans, ``bytes`` sums the computed work sizes. Span indices follow call
    start order.
    """
    a = tracer.arrays()
    nid, parent, value = a["name_id"], a["parent"], a["value"]
    k = len(tracer.names)
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    sums = {
        "calls": np.bincount(nid, minlength=k).astype(float),
        "s": np.bincount(nid, weights=dur, minlength=k),
        "self_s": np.bincount(nid, weights=self_time, minlength=k),
        "bytes": np.bincount(nid, weights=value, minlength=k),
    }
    out = {
        f"{name}.{stat}": float(sums[stat][i])
        for i, name in enumerate(tracer.names)
        for stat in STATS
    }

    def spans(name):
        i = tracer._ids.get(name)
        return np.flatnonzero(nid == i) if i is not None else np.empty(0, dtype=np.int64)

    # Paired baseline: attention_forward called directly from run_trajectory.
    # The cell's active flag is the last is_active result before it starts;
    # with no is_active call before it, the cell counts as inactive.
    fwd = spans("attention.attention_forward")
    baseline = fwd[np.isin(parent[fwd], spans("simulate.run_trajectory"))]
    active = spans("scheduling.is_active")
    out["simulate.baseline_forward.calls"] = float(baseline.size)
    redundant = 0.0
    if baseline.size:
        prev = np.searchsorted(active, baseline) - 1
        inactive = np.ones(baseline.size, dtype=bool)
        seen = prev >= 0
        inactive[seen] = value[active[prev[seen]]] == 0.0
        redundant = float(inactive.mean())
    out["simulate.baseline_forward.redundant_frac"] = redundant

    sched = spans("scheduling.scheduled_attention")
    scaled = np.isin(sched, parent[spans("attention.apply_group_scaling")])
    out["scheduling.scheduled_attention.active_frac"] = (
        float(scaled.mean()) if sched.size else 0.0
    )
    return out
