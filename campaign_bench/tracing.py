"""Span recorder for the benchmark's traced mode.

The recorder wraps public functions of the ``repro`` layers from the
outside (no program code changes): each call becomes a span with a
layer name, start and end (``perf_counter_ns``), the index of the span
that was open when it started (its parent) and a run id inherited from
the enclosing runner span.  Spans live in compact in-memory arrays and
are written out once, when the process ends (:meth:`SpanRecorder.dump`).

A layer's self time is its spans' durations minus the durations of
their direct child spans (:func:`self_times`); children run on the same
thread as their parent, so they never overlap.

Counters are recorded at the same boundaries (pages dirtied, noise
draws, kernel elements, engine events, ...), so ratios are measured
where the work happens.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = [
    "SpanRecorder",
    "Target",
    "TARGETS",
    "install",
    "self_times",
    "span_totals",
    "load_dump",
    "layer_metrics",
    "quantile",
]


class SpanRecorder:
    """In-memory span store: parallel integer arrays plus name tables."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.runs: list[str] = [""]
        self._run_ids: dict[str, int] = {"": 0}
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.layer = array.array("i")
        self.run = array.array("i")
        self.counters: dict[str, float] = {}
        #: Named wall-clock stamps keyed by an id (queue submit/claim times).
        self.stamps: dict[str, dict[str, float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return lid

    def open(self, layer_id: int, run: Optional[str] = None) -> int:
        """Start a span; returns its index (pass it to :meth:`close`)."""
        stack = self._stack()
        if run is not None:
            rid = self._run_ids.get(run)
            if rid is None:
                rid = self._run_ids[run] = len(self.runs)
                self.runs.append(run)
        elif stack:
            rid = self.run[stack[-1]]
        else:
            rid = 0
        with self._lock:
            index = len(self.start)
            self.parent.append(stack[-1] if stack else -1)
            self.layer.append(layer_id)
            self.run.append(rid)
            self.end.append(0)
            self.start.append(time.perf_counter_ns())
        stack.append(index)
        return index

    def current_layer(self) -> Optional[str]:
        """Layer of the innermost span open on this thread, if any."""
        stack = self._stack()
        return self.layers[self.layer[stack[-1]]] if stack else None

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    # -- counters --------------------------------------------------------
    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def stamp(self, kind: str, key: str) -> None:
        """Record the wall-clock time of event ``kind`` for ``key`` (a task id)."""
        self.stamps.setdefault(kind, {})[key] = time.time()

    # -- output ----------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "layers": list(self.layers),
            "runs": list(self.runs),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "layer": self.layer.tolist(),
            "run": self.run.tolist(),
            "counters": dict(self.counters),
            "stamps": self.stamps,
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)


def load_dump(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def self_times(dump: dict) -> dict[str, float]:
    """Per-layer self time in seconds: span durations minus direct children.

    Spans still open when the dump was taken (end 0) count as zero
    length and contribute nothing.
    """
    import numpy as np

    start = np.asarray(dump["start"], dtype=np.int64)
    end = np.asarray(dump["end"], dtype=np.int64)
    parent = np.asarray(dump["parent"], dtype=np.int64)
    layer = np.asarray(dump["layer"], dtype=np.int64)
    n = start.size
    if n == 0:
        return {}
    duration = np.where(end > 0, end - start, 0).astype(np.float64)
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=n
    )
    own = duration - children
    per_layer = np.bincount(layer, weights=own, minlength=len(dump["layers"]))
    return {name: float(per_layer[i]) / 1e9 for i, name in enumerate(dump["layers"])}


def span_totals(dump: dict) -> dict[str, tuple[int, int, float]]:
    """Per-layer (calls, outermost calls, inclusive seconds of outermost spans).

    A span is outermost when its parent belongs to another layer, so a
    layer calling itself is not counted twice.
    """
    layers = dump["layers"]
    out = {name: [0, 0, 0.0] for name in layers}
    layer = dump["layer"]
    parent = dump["parent"]
    start = dump["start"]
    end = dump["end"]
    for i, lid in enumerate(layer):
        entry = out[layers[lid]]
        entry[0] += 1
        p = parent[i]
        if (p < 0 or layer[p] != lid) and end[i] > 0:
            entry[1] += 1
            entry[2] += (end[i] - start[i]) / 1e9
    return {name: tuple(entry) for name, entry in out.items()}


# ---------------------------------------------------------------------------
# What to wrap
# ---------------------------------------------------------------------------
def _size(value: Any) -> int:
    size = getattr(value, "size", None)
    if isinstance(size, int):
        return size
    try:
        return len(value)
    except TypeError:
        return 1


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` + dotted ``name`` → ``layer``.

    ``before(args)`` runs ahead of the call and its value is handed to
    ``after(recorder, args, result, token)``, which records counters.
    ``run_of(args)`` names the run a span (and its descendants) belongs to.
    """

    module: str
    name: str
    layer: str
    after: Optional[Callable] = None
    before: Optional[Callable] = None
    run_of: Optional[Callable] = None


def _count(counter: str, by: Optional[Callable] = None) -> Callable:
    def after(rec, args, result, token):
        rec.add(counter, 1.0 if by is None else by(args, result))

    return after


def _outer_size(counter: str, layer: str) -> Callable:
    """Count the values an outermost ``layer`` call returns (nested calls
    feed their caller, so counting them too would count values twice)."""

    def after(rec, args, result, token):
        if rec.current_layer() != layer:
            rec.add(counter, _size(result))

    return after


def _engine_before(args):
    return args[0].processed_events


def _engine_after(rec, args, result, token):
    rec.add("engine.events", args[0].processed_events - token)


def _manager_after(rec, args, result, token):
    manager = args[0]
    rec.add("consolidation.decisions", len(manager.decisions))
    rec.add("consolidation.migrations", manager.migrations_issued)


def _submit_after(rec, args, result, token):
    rec.add("executor.tasks")
    rec.add("executor.task_runs", getattr(args[1], "run_count", None) or 1)
    task_id = getattr(result, "task_id", None)
    if task_id is not None:
        rec.stamp("submit", task_id)


def _claim_after(rec, args, result, token):
    if result is not None:
        rec.stamp("claim", result.stem)


def _cache_before(args):
    cache = args[0]
    return cache.hits, cache.misses, cache.bytes_read, cache.bytes_written


def _cache_after(counter: str) -> Callable:
    def after(rec, args, result, token):
        cache = args[0]
        rec.add(counter)
        rec.add("io.hits", cache.hits - token[0])
        rec.add("io.misses", cache.misses - token[1])
        rec.add("io.bytes_read", cache.bytes_read - token[2])
        rec.add("io.bytes_written", cache.bytes_written - token[3])

    return after


def _load_after(rec, args, result, token):
    """A run payload read outside RunCache.get (the queue coordinator's poll)."""
    if rec.current_layer() != "io.get":
        rec.add("io.cache_gets")
        rec.add("io.hits")
        rec.add("io.bytes_read", os.path.getsize(args[0]))


def _batch_run_id(args):
    scenario = args[1]
    indices = list(args[2])
    return f"{scenario.label}#{indices[0]}x{len(indices)}" if indices else scenario.label


def _once_run_id(args):
    index = args[2] if len(args) > 2 else 0
    return f"{args[1].label}#{index}"


_NOISE = "repro.simulator.noise"
_KERNELS = "repro.simulator.kernels"
_draws = _outer_size("noise.draws", "noise")
_elems = _outer_size("kernels.elems", "kernels")

#: Every function the traced mode wraps, grouped by layer.
TARGETS: tuple[Target, ...] = (
    Target("repro.hypervisor.memory", "VmMemory.advance", "memory",
           after=_count("memory.pages_dirtied", lambda a, r: r)),
    Target(_NOISE, "hash_normal_unit", "noise", after=_draws),
    Target(_NOISE, "hash_normal_unit_fill", "noise", after=_draws),
    Target(_NOISE, "hash_normal_unit_fill_bank", "noise", after=_draws),
    Target(_NOISE, "ou_like_noise", "noise", after=_draws),
    Target(_NOISE, "ou_like_noise_values", "noise", after=_draws),
    Target(_NOISE, "ou_like_noise_block", "noise", after=_draws),
    Target(_NOISE, "ou_like_noise_cached", "noise", after=_draws),
    Target(_KERNELS, "HostKernel.util_block", "kernels", after=_elems),
    Target(_KERNELS, "HostKernel.power_block", "kernels", after=_elems),
    Target(_KERNELS, "VmKernel.cpu_percent_block", "kernels", after=_elems),
    Target(_KERNELS, "util_block_bank", "kernels", after=_elems),
    Target(_KERNELS, "power_block_bank", "kernels", after=_elems),
    Target(_KERNELS, "cpu_percent_block_bank", "kernels", after=_elems),
    Target("repro.cluster.host", "PhysicalHost.instantaneous_power", "host"),
    Target("repro.cluster.host", "PhysicalHost.instantaneous_power_values", "host"),
    Target("repro.cluster.host", "PhysicalHost.instantaneous_power_block", "host"),
    Target("repro.simulator.engine", "Simulator.run", "engine",
           before=_engine_before, after=_engine_after),
    Target("repro.simulator.engine", "Simulator.run_for", "engine"),
    Target("repro.telemetry.traces", "PowerTrace.extend", "traces"),
    Target("repro.telemetry.traces", "SeriesTrace.extend", "traces"),
    # The batched samplers bulk-append through the reserve/commit fast path.
    Target("repro.telemetry.traces", "PowerTrace._reserve", "traces"),
    Target("repro.telemetry.traces", "SeriesTrace._reserve", "traces"),
    Target("repro.telemetry.stabilization", "StabilizationTracker.observe",
           "stabilization"),
    Target("repro.telemetry.stabilization", "StabilizationTracker.observe_block",
           "stabilization"),
    Target("repro.experiments.testbed", "Testbed.__init__", "testbed",
           after=_count("testbed.builds")),
    Target("repro.experiments.testbed", "Testbed.start_instrumentation", "testbed"),
    Target("repro.experiments.testbed", "Testbed.stop_instrumentation", "testbed"),
    Target("repro.experiments.runner", "ScenarioRunner.run_once", "runner",
           run_of=_once_run_id),
    Target("repro.experiments.runner", "ScenarioRunner.run_batch", "runner",
           after=_count("runner.batches"), run_of=_batch_run_id),
    Target("repro.experiments.seedbank", "SeedBank.execute", "seedbank",
           after=_count("seedbank.runs", lambda a, r: len(r))),
    Target("repro.consolidation.manager", "ConsolidationManager.stop",
           "consolidation", after=_manager_after),
    Target("repro.experiments.executor", "CampaignExecutor.run_campaign", "executor"),
    Target("repro.experiments.executor", "SerialBackend.submit", "executor.submit",
           after=_submit_after),
    Target("repro.experiments.executor", "SerialBackend.wait", "executor.wait"),
    Target("repro.experiments.queue_backend", "QueueBackend.submit", "executor.submit",
           after=_submit_after),
    Target("repro.experiments.queue_backend", "QueueBackend.wait", "executor.wait"),
    Target("repro.experiments.queue_backend", "_claim_next_task", "queue.claim",
           after=_claim_after),
    Target("repro.experiments.queue_backend", "_process_claim", "queue.lane"),
    Target("repro.experiments.executor", "RunCache.get", "io.get",
           before=_cache_before, after=_cache_after("io.cache_gets")),
    Target("repro.experiments.executor", "RunCache.put", "io.put",
           before=_cache_before, after=_cache_after("io.cache_puts")),
    Target("repro.io", "load_run_result", "io.get", after=_load_after),
    Target("repro.experiments.aggregate", "write_samples_json_streaming",
           "aggregate", after=_count("aggregate.samples", lambda a, r: r)),
    Target("repro.analysis.comparison", "compare_models", "analysis"),
)

def _wrap(fn: Callable, rec: SpanRecorder, target: Target) -> Callable:
    lid = rec.layer_id(target.layer)
    before, after, run_of = target.before, target.after, target.run_of

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = before(args) if before is not None else None
        index = rec.open(lid, run_of(args) if run_of is not None else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if after is not None:
            after(rec, args, result, token)
        return result

    return traced


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's alias of ``original`` at the wrapper."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: SpanRecorder, targets: tuple[Target, ...] = TARGETS) -> None:
    """Wrap every target (importing its module) and every model's ``fit``."""
    for target in targets:
        module = importlib.import_module(target.module)
        owner: Any = module
        parts = target.name.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, parts[-1])
        replacement = _wrap(original, rec, target)
        setattr(owner, parts[-1], replacement)
        if owner is module:
            _rebind(original, replacement)
    import repro.models.registry  # noqa: F401  (defines the model classes)
    from repro.models.base import MigrationEnergyModel

    pending = list(MigrationEnergyModel.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "fit" in vars(cls):
            cls.fit = _wrap(vars(cls)["fit"], rec, Target(cls.__module__, "fit", "models"))


# ---------------------------------------------------------------------------
# Per-layer metrics from one or more dumps (coordinator + workers)
# ---------------------------------------------------------------------------
def quantile(values: list[float], q: float) -> float:
    """Linearly interpolated ``q`` quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(dumps: list[dict], campaign_s: float, lanes: int) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced campaign.

    ``dumps`` are the :meth:`SpanRecorder.to_dict` outputs of every
    process that took part (coordinator and workers); ``lanes`` is the
    number of execution lanes (1 serial, 2 for two spool workers).
    """
    selfs: dict[str, float] = {}
    totals: dict[str, list] = {}  # layer -> [calls, outermost calls, inclusive s]
    counters: dict[str, float] = {}
    stamps: dict[str, dict[str, float]] = {}
    for dump in dumps:
        for name, secs in self_times(dump).items():
            selfs[name] = selfs.get(name, 0.0) + secs
        for name, values in span_totals(dump).items():
            entry = totals.setdefault(name, [0, 0, 0.0])
            for k, value in enumerate(values):
                entry[k] += value
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        for kind, table in dump["stamps"].items():
            stamps.setdefault(kind, {}).update(table)

    def calls(layer: str) -> int:
        return totals.get(layer, [0, 0, 0.0])[0]

    def outer_calls(layer: str) -> int:
        return totals.get(layer, [0, 0, 0.0])[1]

    def inclusive(layer: str) -> float:
        return totals.get(layer, [0, 0, 0.0])[2]

    def own(layer: str) -> float:
        return selfs.get(layer, 0.0)

    def count(name: str) -> float:
        return counters.get(name, 0.0)

    submits = stamps.get("submit", {})
    claims = stamps.get("claim", {})
    claim_ms = [
        (claims[task] - submits[task]) * 1000.0 for task in claims if task in submits
    ]
    busy = inclusive("queue.lane") if calls("queue.lane") else inclusive("executor.submit")
    lookups = count("io.hits") + count("io.misses")
    tasks = count("executor.tasks")
    return {
        "memory.advance_calls": calls("memory"),
        "memory.pages_dirtied": count("memory.pages_dirtied"),
        "memory.self_s": own("memory"),
        "noise.calls": calls("noise"),
        "noise.draws": count("noise.draws"),
        "noise.self_s": own("noise"),
        "kernels.calls": calls("kernels"),
        "kernels.elems": count("kernels.elems"),
        "kernels.us_per_call": (
            inclusive("kernels") / outer_calls("kernels") * 1e6
            if outer_calls("kernels") else 0.0
        ),
        "kernels.self_s": own("kernels"),
        "host.power_calls": calls("host"),
        "host.self_s": own("host"),
        "engine.events": count("engine.events"),
        "engine.self_s": own("engine"),
        "traces.extend_calls": calls("traces"),
        "traces.self_s": own("traces"),
        "stabilization.self_s": own("stabilization"),
        "testbed.builds": count("testbed.builds"),
        "testbed.self_s": own("testbed"),
        "runner.batches": count("runner.batches"),
        "runner.self_s": own("runner"),
        "seedbank.passes": calls("seedbank"),
        "seedbank.runs": count("seedbank.runs"),
        "seedbank.self_s": own("seedbank"),
        "consolidation.decisions": count("consolidation.decisions"),
        "consolidation.migrations": count("consolidation.migrations"),
        "executor.tasks": tasks,
        "executor.runs_per_task": count("executor.task_runs") / tasks if tasks else 0.0,
        "executor.wait_s": inclusive("executor.wait"),
        "queue.claim_ms_p50": quantile(claim_ms, 0.5),
        "queue.claim_ms_p90": quantile(claim_ms, 0.9),
        "queue.lane_busy_frac": busy / (lanes * campaign_s) if campaign_s > 0 else 0.0,
        "io.cache_puts": count("io.cache_puts"),
        "io.cache_put_s": inclusive("io.put"),
        "io.cache_gets": count("io.cache_gets"),
        "io.cache_get_s": inclusive("io.get"),
        "io.bytes_written": count("io.bytes_written"),
        "io.bytes_read": count("io.bytes_read"),
        "io.hit_ratio": count("io.hits") / lookups if lookups else 0.0,
        "aggregate.samples": count("aggregate.samples"),
        "aggregate.write_s": inclusive("aggregate"),
        "models.fit_calls": calls("models"),
        "models.fit_s": inclusive("models"),
        "analysis.compare_s": inclusive("analysis"),
    }
