"""One benchmark repetition in a fresh interpreter: set up, run, check.

Started by ``run.py`` once per repetition.  It imports the modules the
workload uses, builds the runner and executor (and, for ``table7-2w``,
starts two ``campaign-worker`` processes and waits until each has polled
the spool once), then prints ``READY``.  The parent's clock from process
start to that line is the repetition's ``setup_s``.  The campaign then
runs from the first dispatch until the samples JSON is written (plus the
Table VII fit and render on ``table7-2w``), every run's
outputs are checked, and one JSON line reports the measurements.

``--serial`` runs a ``table7-2w`` campaign on the serial executor
instead; the tests compare its samples with the two workers' samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pathlib
import resource
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Seconds a worker may take to start and poll the spool.
WORKER_START_TIMEOUT_S = 60.0
#: Seconds a worker may take to exit after the stop sentinel.
WORKER_STOP_TIMEOUT_S = 30.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--serial", action="store_true")
    return parser.parse_args(argv)


def _sha256(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _start_workers(spool: pathlib.Path, cache: pathlib.Path, work: pathlib.Path,
                   trace: bool, poll_s: float) -> list:
    procs = []
    for i in range(2):
        argv = [sys.executable, str(HERE / "worker_launcher.py")]
        if trace:
            argv += ["--trace-out", str(work / f"spans-w{i}.json")]
        argv += [
            "--", "--cache-dir", str(cache), "campaign-worker",
            "--spool-dir", str(spool), "--poll-interval", str(poll_s),
            "--worker-id", f"w{i}",
        ]
        log = (work / f"worker-{i}.log").open("wb")
        procs.append(subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT))
        log.close()
    return procs


def _wait_polled(spool: pathlib.Path, procs: list) -> None:
    """Block until every worker wrote its heartbeat (its first spool poll)."""
    beats = [spool / "workers" / f"w{i}.json" for i in range(len(procs))]
    deadline = time.monotonic() + WORKER_START_TIMEOUT_S
    while not all(beat.exists() for beat in beats):
        for proc in procs:
            if proc.poll() is not None:
                raise RuntimeError(f"campaign-worker exited early with code {proc.returncode}")
        if time.monotonic() > deadline:
            raise RuntimeError("campaign-workers did not poll the spool in time")
        time.sleep(0.002)


def _stop_workers(procs: list, graceful: bool) -> list[int]:
    """Wait for the workers to exit (they saw the stop sentinel); kill stragglers."""
    codes = []
    for proc in procs:
        if not graceful:
            proc.kill()
        try:
            codes.append(proc.wait(timeout=WORKER_STOP_TIMEOUT_S))
        except subprocess.TimeoutExpired:
            proc.kill()
            codes.append(proc.wait())
    return codes


def _check_run(run, roles, phases) -> list[str]:
    """Output checks of one run: complete timeline, finite positive energies."""
    from repro.errors import PhaseError

    label = f"{run.scenario.label}#{run.run_index}"
    problems = []
    try:
        run.timeline.validate()
    except PhaseError as exc:
        return [f"{label}: incomplete timeline ({exc})"]
    for role in roles:
        for phase in phases:
            energy = run.phase_energy_j(role, phase)
            if not (math.isfinite(energy) and energy > 0.0):
                problems.append(f"{label}: {role.value} {phase.value} energy {energy!r}")
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work = pathlib.Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    table7 = workload.table7

    t_import = time.perf_counter()
    from repro.cli import build_parser
    from repro.experiments.executor import CampaignExecutor
    from repro.experiments.runner import RunnerSettings, ScenarioRunner
    from repro.experiments import aggregate
    from repro.io import load_samples_json
    from repro.models.features import HostRole
    from repro.phases.timeline import MigrationPhase

    if table7:
        from repro.analysis import comparison, tables
    import_s = time.perf_counter() - t_import

    scenarios = workloads.scenarios_for(workload)
    runs = args.runs or workload.runs
    # The CLI's own defaults (compute mode, seed bank, batch size, ...).
    cli = build_parser().parse_args(["--seed", str(args.seed), "campaign"])
    settings = RunnerSettings(compute=cli.compute, seed_bank=cli.seed_bank)
    knobs = dict(
        batch_size=cli.batch_size,
        max_retries=cli.max_retries,
        # Failed tasks are counted (fail_frac), not allowed to abort the
        # campaign before the rest is measured.
        on_failure="skip",
        run_timeout=cli.run_timeout,
        campaign_timeout=cli.campaign_timeout,
    )
    runner = ScenarioRunner(seed=args.seed, settings=settings)
    procs = []
    workers_ready_s = 0.0
    queue = workload.backend == "queue" and not args.serial
    if queue:
        cache_dir = work / "cache"
        spool = work / "spool"
        executor = CampaignExecutor(
            runner, backend="queue", cache_dir=cache_dir, spool_dir=spool,
            queue_options={
                "stale_timeout": cli.stale_timeout,
                "stop_workers_on_shutdown": True,
            },
            **knobs,
        )
        t_workers = time.perf_counter()
        procs = _start_workers(spool, cache_dir, work, trace, workloads.WORKER_POLL_S)
    else:
        executor = CampaignExecutor(runner, jobs=cli.jobs, **knobs)

    recorder = None
    finished = False
    try:
        if queue:
            _wait_polled(spool, procs)
            workers_ready_s = time.perf_counter() - t_workers
        if trace:
            import tracing

            recorder = tracing.SpanRecorder()
            # The samples writer and compare_models are looked up through
            # their modules at call time below, so they run wrapped.
            tracing.install(recorder)
        # CLOCK_MONOTONIC is system-wide: the parent subtracts its own
        # pre-spawn reading to get setup_s.
        print(f"READY {time.monotonic()!r}", flush=True)

        samples_path = work / "samples.json"
        t0 = time.perf_counter()
        result = executor.run_campaign(scenarios, min_runs=runs, max_runs=runs)
        written = aggregate.write_samples_json_streaming(result.iter_samples(), samples_path)
        nrmse = 0.0
        if table7:
            compared = comparison.compare_models(result=result, seed=args.seed)
            table_text = tables.render_table7(compared)
            cells = [
                compared.nrmse_percent("WAVM3", kind, role)
                for kind in ("non-live", "live")
                for role in ("source", "target")
            ]
            nrmse = sum(cells) / len(cells)
        campaign_s = time.perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finished = True
    finally:
        worker_codes = _stop_workers(procs, graceful=finished)

    # ---- output checks (after the clock stops) -------------------------
    problems: list[str] = []
    stats = executor.stats
    expected = len(scenarios) * runs
    roles = (HostRole.SOURCE, HostRole.TARGET)
    phases = (MigrationPhase.INITIATION, MigrationPhase.TRANSFER, MigrationPhase.ACTIVATION)
    bad_runs = 0
    kept = result.all_runs()
    for run in kept:
        run_problems = _check_run(run, roles, phases)
        bad_runs += bool(run_problems)
        problems.extend(run_problems)
    if len(scenarios) != workload.expected_scenarios:
        problems.append(f"{len(scenarios)} scenarios, want {workload.expected_scenarios}")
    # "retried" and "tolerated" (a failed cache put) records keep their runs.
    abandoned = max(stats.runs_abandoned, sum(
        len(f.run_indices) for f in executor.ledger.records
        if f.fate in ("skipped", "quarantined", "fatal")
    ))
    missing = expected - len(kept)
    if missing:
        problems.append(f"kept {len(kept)} runs, want {expected} (scenarios x runs)")
    reloaded = len(load_samples_json(samples_path))
    if reloaded != written or reloaded != 2 * len(kept):
        problems.append(f"samples file re-loads {reloaded} samples, want {2 * len(kept)}")
    sha = _sha256(samples_path)
    if table7:
        if not all(math.isfinite(c) and c > 0 for c in cells):
            problems.append(f"WAVM3 NRMSE cells not finite/positive: {cells}")
        if "WAVM3" not in table_text:
            problems.append("Table VII render lacks the WAVM3 row")
    if any(worker_codes):
        problems.append(f"campaign-workers exited with {worker_codes}")
    failed = min(expected, max(missing, abandoned) + bad_runs)
    if problems and not failed:
        failed = expected  # a campaign-level check failed: no run counts as good

    timelines = [run.timeline for run in kept]
    report = {
        "import_s": import_s,
        "workers_ready_s": workers_ready_s,
        "campaign_s": campaign_s,
        "runs": len(kept),
        "attempted": expected,
        "failed": failed,
        "problems": problems[:20],
        "sim_s": sum(float(run.source_trace.times[-1] - run.source_trace.times[0]) for run in kept),
        "run_walls": [event.wall_s for event in executor.progress_events],
        "peak_rss_mb": rss_mb,
        "samples_sha": sha,
        "migration.jobs": len(timelines),
        "migration.rounds": sum(tl.n_rounds for tl in timelines),
        "migration.gib": sum(tl.bytes_total for tl in timelines) / 2**30,
        "telemetry.samples": sum(
            len(run.source_trace) + len(run.target_trace) + len(run.features) for run in kept
        ),
    }
    if recorder is not None:
        import tracing

        dumps = [recorder.to_dict()]
        recorder.dump(work / "spans-coordinator.json")
        dumps += [tracing.load_dump(path) for path in sorted(work.glob("spans-w*.json"))]
        layers = tracing.layer_metrics(dumps, campaign_s, lanes=2 if queue else 1)
        total_runs = stats.runs_executed + stats.runs_cached
        qstats = executor.queue_stats
        layers.update({
            "executor.useful_ratio": len(kept) / total_runs if total_runs else 0.0,
            "queue.tasks_requeued": qstats.tasks_requeued if qstats is not None else 0,
            "aggregate.bytes": samples_path.stat().st_size,
            "models.wavm3_nrmse_pct": nrmse,
        })
        report["layers"] = layers
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
