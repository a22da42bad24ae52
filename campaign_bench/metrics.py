"""Metric catalogue: every name the benchmark emits, with unit and direction.

``BENCHMARK.json`` mirrors these lists (a test keeps the two in step).
End-to-end metrics come from untraced repetitions; per-layer metrics
from traced ones.  NOTES.md maps each layer metric to the end-to-end
metric and workload it should move.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER"]

#: (name, unit, better)
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("campaign_s", "s", "lower"),
    ("runs_per_s", "1/s", "higher"),
    ("sim_s_per_s", "s/s", "higher"),
    ("run_ms_p50", "ms", "lower"),
    ("run_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "fraction", "higher"),
)

PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("memory.advance_calls", "count", "lower"),
    ("memory.pages_dirtied", "count", "lower"),
    ("memory.self_s", "s", "lower"),
    ("migration.jobs", "count", "lower"),
    ("migration.rounds", "count", "lower"),
    ("migration.gib", "GiB", "lower"),
    ("noise.calls", "count", "lower"),
    ("noise.draws", "count", "lower"),
    ("noise.self_s", "s", "lower"),
    ("kernels.calls", "count", "lower"),
    ("kernels.elems", "count", "higher"),
    ("kernels.us_per_call", "us", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("host.power_calls", "count", "lower"),
    ("host.self_s", "s", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("telemetry.samples", "count", "lower"),
    ("traces.extend_calls", "count", "lower"),
    ("traces.self_s", "s", "lower"),
    ("stabilization.self_s", "s", "lower"),
    ("testbed.builds", "count", "lower"),
    ("testbed.self_s", "s", "lower"),
    ("runner.batches", "count", "lower"),
    ("runner.self_s", "s", "lower"),
    ("seedbank.passes", "count", "lower"),
    ("seedbank.runs", "count", "higher"),
    ("seedbank.self_s", "s", "lower"),
    ("consolidation.decisions", "count", "lower"),
    ("consolidation.migrations", "count", "lower"),
    ("executor.tasks", "count", "lower"),
    ("executor.runs_per_task", "count", "higher"),
    ("executor.wait_s", "s", "lower"),
    ("executor.useful_ratio", "fraction", "higher"),
    ("queue.tasks_requeued", "count", "lower"),
    ("queue.claim_ms_p50", "ms", "lower"),
    ("queue.claim_ms_p90", "ms", "lower"),
    ("queue.lane_busy_frac", "fraction", "higher"),
    ("io.cache_puts", "count", "lower"),
    ("io.cache_put_s", "s", "lower"),
    ("io.cache_gets", "count", "lower"),
    ("io.cache_get_s", "s", "lower"),
    ("io.bytes_written", "B", "lower"),
    ("io.bytes_read", "B", "lower"),
    ("io.hit_ratio", "fraction", "higher"),
    ("aggregate.samples", "count", "lower"),
    ("aggregate.bytes", "B", "lower"),
    ("aggregate.write_s", "s", "lower"),
    ("models.fit_calls", "count", "lower"),
    ("models.fit_s", "s", "lower"),
    ("models.wavm3_nrmse_pct", "%", "lower"),
    ("analysis.compare_s", "s", "lower"),
    ("setup.import_s", "s", "lower"),
    ("setup.workers_ready_s", "s", "lower"),
    ("trace.overhead_x", "x", "lower"),
    ("trace.campaign_s", "s", "lower"),
    ("host.calib_ms", "ms", "lower"),
    ("host.loadavg", "load", "lower"),
)
