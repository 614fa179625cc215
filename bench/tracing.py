"""Boundary tracing for the benchmark's per-layer run.

Each hook replaces one module attribute through which one layer of
``syncmonoid`` calls the next (for example ``experiments.is_synchronizing``)
with a shim that records a span: name, start, end and the span that was open
when it started.  Nothing in the program changes; the shims are removed when
the traced passes end.  Spans stay in memory in flat arrays and are written
out once, when the run ends.  A hook whose target no longer exists is
skipped, and the metrics built on it are reported as null.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import time
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Hook:
    """A layer boundary.  ``metric`` names the layer's metrics, ``unit`` is
    the unit of its time per call, ``targets`` are the attributes
    ("module.attr" under ``syncmonoid``) that lead into it, and ``total``,
    when set, names a counter that sums the values the calls return."""

    metric: str
    unit: str
    targets: tuple[str, ...]
    total: str | None = None


DRIVER = "experiments.driver"

HOOKS = (
    Hook("rng.substream", "us", ("experiments.substream",)),
    Hook("transform.random_endofunction", "us", ("experiments.random_endofunction",)),
    Hook("transform.random_permutation", "us", ("experiments.random_permutation",)),
    Hook("transform.unique_periodic", "us", ("experiments.has_unique_periodic_point",)),
    Hook("experiments.fixpoint", "us", ("experiments._all_pairs_collapsible",)),
    Hook("experiments.audit", "ms", ("experiments._audit",)),
    # The experiment drivers as the CLI calls them; sweep calls
    # estimate_sync_probability once per row.
    Hook(DRIVER, "us", (
        "cli.estimate_sync_probability", "cli.exact_sync_probability", "cli.sweep",
        "cli.explore_maximal_nonsync", "experiments.estimate_sync_probability",
    )),
    Hook("sync.is_synchronizing", "us", ("experiments.is_synchronizing",)),
    Hook("sync.generator_set", "us", ("experiments.GeneratorSet",)),
    Hook("sync.min_rank_witness", "ms", ("experiments.min_rank_witness",)),
    Hook("graphs.maximality", "ms", ("experiments.is_maximal_nonsynchronizing",)),
    Hook("graphs.conditions", "ms", ("experiments.check_maximality_conditions",)),
    Hook("graphs.hull", "ms", ("experiments.hull", "graphs.hull")),
    Hook("graphs.clique", "ms", ("experiments.clique_number", "graphs.clique_number")),
    Hook("graphs.chromatic", "ms", ("experiments.chromatic_number", "graphs.chromatic_number")),
    Hook("graphs.derived", "ms", ("experiments.derived_graph", "graphs.derived_graph")),
    Hook("graphs.endomorphism_count", "ms", ("experiments.endomorphism_count",),
         total="graphs.endomorphisms_total"),
    Hook("graphs.enumerate", "ms", ("experiments.enumerate_graphs",)),
    Hook("cli.emit", "us", ("cli._emit",)),
)

_SCALE = {"us": 1e6, "ms": 1e3}
_STOP = ".stop"  # suffix for the next() call of a generator that found it exhausted


def _hook_metrics(hook: Hook) -> dict[str, str]:
    if hook.metric == DRIVER:
        return {f"{DRIVER}_self_us": "us", f"{DRIVER}_self_share": "frac"}
    units = {
        f"{hook.metric}_{hook.unit}": hook.unit,
        f"{hook.metric}_calls": "count",
        f"{hook.metric}_share": "frac",
    }
    if hook.total:
        units[hook.total] = "count"
    return units


def metric_units() -> dict[str, str]:
    """Every per-layer metric this module reports, with its unit."""
    units = {}
    for hook in HOOKS:
        units.update(_hook_metrics(hook))
    units["experiments.trials"] = "count"
    units["experiments.certified_frac"] = "frac"
    units["trace.spans"] = "count"
    units["trace.overhead_frac"] = "frac"
    return units


class Tracer:
    """In-memory span recorder: one entry per call in four flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.totals: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._begin(self.name_id(name))
        try:
            yield
        finally:
            self._finish(idx)

    def wrap(self, name: str, fn, total: str | None = None):
        nid = self.name_id(name)
        begin, finish = self._begin, self._finish

        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if total is not None:
                self.totals[total] = self.totals.get(total, 0) + result
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """One span per item produced; the final, exhausted next() is a
        span of its own under ``name + '.stop'``."""
        nid = self.name_id(name)
        stop_id = self.name_id(name + _STOP)
        begin, finish, names = self._begin, self._finish, self.name

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                idx = begin(nid)
                try:
                    item = next(items)
                except StopIteration:
                    names[idx] = stop_id
                    return
                finally:
                    finish(idx)
                yield item

        return traced

    def write(self, path) -> None:
        """A JSON header line, then the name, parent, start and end arrays
        as raw native-endian int32, int32, float64 and float64."""
        header = {
            "names": self.names,
            "count": len(self.name),
            "layout": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "clock": "time.perf_counter seconds",
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every hook that can be; yields {metric: [missing targets]}."""
    missing: dict[str, list[str]] = {}
    restore = []
    try:
        for hook in HOOKS:
            for target in hook.targets:
                module_name, attr = target.rsplit(".", 1)
                try:
                    module = importlib.import_module(f"syncmonoid.{module_name}")
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    missing.setdefault(hook.metric, []).append(f"syncmonoid.{target}")
                    continue
                if inspect.isgeneratorfunction(original):
                    shim = tracer.wrap_generator(hook.metric, original)
                else:
                    shim = tracer.wrap(hook.metric, original, hook.total)
                setattr(module, attr, shim)
                restore.append((module, attr, original))
        yield missing
    finally:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)


def layer_metrics(
    tracer: Tracer,
    pass_starts: list[int],
    pass_totals: list[dict[str, int]],
    traced_walls: list[float],
    untraced_walls: list[float],
    items: int,
    trials: int,
    missing: dict[str, list[str]],
) -> tuple[dict[str, float | int | None], list[str]]:
    """Per-layer metrics from the spans of the traced passes.

    Times per call are means over all traced passes; ``_calls`` and the
    summed totals are those of one pass, and a note is added if another
    pass differs.  A share is the layer's total span time over the traced
    wall time.  Self time is a span's duration minus that of its children.
    """
    names = np.frombuffer(tracer.name, dtype=np.int32)
    parents = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start, dtype=np.float64)
    k = len(tracer.names)  # every installed hook already has its id
    calls = np.bincount(names, minlength=k)
    total = np.bincount(names, weights=dur, minlength=k)
    has_parent = parents >= 0
    child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = np.bincount(names, weights=dur - child_time, minlength=k)

    bounds = pass_starts + [len(names)]
    per_pass = [np.bincount(names[a:b], minlength=k) for a, b in zip(bounds, bounds[1:])]
    notes = []
    if any(not np.array_equal(c, per_pass[0]) for c in per_pass) or any(
        t != pass_totals[0] for t in pass_totals
    ):
        notes.append("call counts differ between traced passes; the first pass is reported")
    first, totals = per_pass[0], pass_totals[0]
    wall = sum(traced_walls)
    passes = len(traced_walls)

    out: dict[str, float | int | None] = {}
    for hook in HOOKS:
        if hook.metric in missing:
            notes.append(f"hook missing, {hook.metric} metrics are null: "
                         + ", ".join(missing[hook.metric]))
            out.update(dict.fromkeys(_hook_metrics(hook)))
            continue
        nid = tracer.name_id(hook.metric)
        if hook.metric == DRIVER:
            out[f"{DRIVER}_self_us"] = float(own[nid]) / (items * passes) * 1e6
            out[f"{DRIVER}_self_share"] = float(own[nid]) / wall
            continue
        n, t = int(calls[nid]), float(total[nid])
        out[f"{hook.metric}_{hook.unit}"] = t / n * _SCALE[hook.unit] if n else 0.0
        out[f"{hook.metric}_calls"] = int(first[nid])
        out[f"{hook.metric}_share"] = t / wall
        if hook.total:
            out[hook.total] = totals.get(hook.total, 0)
    audits = out["experiments.audit_calls"]
    out["experiments.trials"] = trials
    out["experiments.certified_frac"] = (
        None if audits is None else (audits / trials if trials else 0.0)
    )
    out["trace.spans"] = int(first.sum())
    out["trace.overhead_frac"] = float(np.median(traced_walls) / np.median(untraced_walls) - 1)
    return out, notes
