"""Seed-batched run execution: RunBatchTask, the wavm3-taskspec/2 wire
format, worker-side execute_batch, and golden byte-identity between
batched and per-run dispatch on every backend.
"""

import threading
import time

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.design import MigrationScenario
from repro.experiments.executor import (
    CampaignExecutor,
    RunBatchTask,
    RunCache,
    RunTask,
    _contiguous_spans,
    execute_batch,
)
from repro.experiments.http_backend import run_http_worker
from repro.experiments.queue_backend import (
    QueueBackend,
    run_worker,
    task_id_for,
)
from repro.experiments.runner import RunnerSettings, ScenarioRunner, batch_passes
from repro.io import (
    PersistenceError,
    dump_run_batch_bytes,
    load_run_batch_bytes,
    save_samples_json,
    task_spec_from_dict,
    task_spec_to_dict,
)
from repro.telemetry.stabilization import StabilizationRule

SEED = 20150901
_SCENARIO = MigrationScenario("CPULOAD-SOURCE", "batch/nl/0vm", live=False, load_vm_count=0)


def _batch_task(run_start=0, run_count=3, scenario=_SCENARIO, with_key=True):
    settings = RunnerSettings()
    rule = StabilizationRule()
    key = (
        RunCache.scenario_key(SEED, scenario, settings, None, rule)
        if with_key
        else None
    )
    return RunBatchTask(
        seed=SEED, settings=settings, migration_config=None,
        stabilization=rule, scenario=scenario,
        run_start=run_start, run_count=run_count, key=key,
    )


def _assert_runs_identical(a, b):
    assert a.run_index == b.run_index
    assert a.scenario == b.scenario
    assert a.timeline.ms == b.timeline.ms
    assert a.timeline.me == b.timeline.me
    assert a.timeline.bytes_total == b.timeline.bytes_total
    assert np.array_equal(a.source_trace.times, b.source_trace.times)
    assert np.array_equal(a.source_trace.watts, b.source_trace.watts)
    assert np.array_equal(a.target_trace.watts, b.target_trace.watts)


class TestRunBatchTask:
    def test_run_indices_cover_the_range(self):
        task = _batch_task(run_start=2, run_count=3)
        assert list(task.run_indices) == [2, 3, 4]

    @pytest.mark.parametrize("start,count", [(-1, 2), (0, 0), (3, -1)])
    def test_invalid_range_rejected(self, start, count):
        with pytest.raises(ExperimentError, match="invalid batch range"):
            _batch_task(run_start=start, run_count=count)

    def test_execute_is_bit_identical_to_run_once(self):
        runner = ScenarioRunner(seed=SEED)
        singles = [runner.run_once(_SCENARIO, run_index=i) for i in range(3)]
        batched = _batch_task(run_start=0, run_count=3).execute()
        assert [r.run_index for r in batched] == [0, 1, 2]
        for single, from_batch in zip(singles, batched):
            _assert_runs_identical(single, from_batch)

    def test_on_run_callback_sees_every_run_in_order(self):
        seen = []
        runs = _batch_task(run_count=2).execute(on_run=lambda r: seen.append(r.run_index))
        assert seen == [0, 1]
        assert [r.run_index for r in runs] == [0, 1]

    def test_key_payload_matches_single_run_task(self):
        batch = _batch_task()
        single = RunTask(
            seed=batch.seed, settings=batch.settings, migration_config=None,
            stabilization=batch.stabilization, scenario=batch.scenario,
            run_index=0, key=batch.key,
        )
        assert batch.key_payload() == single.key_payload()

    def test_run_batch_rejects_empty_and_negative_indices(self):
        runner = ScenarioRunner(seed=SEED)
        with pytest.raises(ExperimentError, match="at least one run index"):
            runner.run_batch(_SCENARIO, [])
        with pytest.raises(ExperimentError, match="non-negative integers"):
            runner.run_batch(_SCENARIO, [0, -2])

    def test_execute_batch_validates_scenario_upfront(self, monkeypatch):
        import repro.experiments.instances as instances

        monkeypatch.setattr(instances, "INSTANCE_CATALOG", {})
        with pytest.raises(ExperimentError, match="unknown instance"):
            execute_batch(
                SEED, RunnerSettings(), None, StabilizationRule(), _SCENARIO, [0, 1]
            )


class TestContiguousSpans:
    def test_gaps_force_span_breaks(self):
        assert _contiguous_spans([0, 1, 2, 5, 6, 9]) == [[0, 1, 2], [5, 6], [9]]

    def test_empty_and_single(self):
        assert _contiguous_spans([]) == []
        assert _contiguous_spans([4]) == [[4]]


class TestTaskSpecWireFormat:
    def test_batch_spec_round_trips_as_taskspec_2(self):
        task = _batch_task(run_start=1, run_count=4)
        spec = task_spec_to_dict(task)
        assert spec["schema"] == "wavm3-taskspec/2"
        assert spec["run_start"] == 1 and spec["run_count"] == 4
        assert "run_index" not in spec
        rebuilt = task_spec_from_dict(spec)
        assert isinstance(rebuilt, RunBatchTask)
        assert rebuilt == task

    def test_single_spec_still_taskspec_1(self):
        task = RunTask(
            seed=SEED, settings=RunnerSettings(), migration_config=None,
            stabilization=StabilizationRule(), scenario=_SCENARIO,
            run_index=2, key="ab" * 32,
        )
        spec = task_spec_to_dict(task)
        assert spec["schema"] == "wavm3-taskspec/1"
        assert spec["run_index"] == 2
        assert task_spec_from_dict(spec) == task

    def test_unknown_schema_rejected(self):
        spec = task_spec_to_dict(_batch_task())
        spec["schema"] = "wavm3-taskspec/99"
        with pytest.raises(PersistenceError, match="unexpected task-spec schema"):
            task_spec_from_dict(spec)

    def test_batch_task_id_encodes_range(self):
        task = _batch_task(run_start=3, run_count=5)
        assert task_id_for(task) == f"{task.key[:16]}-0003x5"

    def test_run_batch_envelope_round_trips(self):
        runs = _batch_task(run_count=2).execute()
        payload = dump_run_batch_bytes(runs)
        loaded = load_run_batch_bytes(payload)
        assert [r.run_index for r in loaded] == [0, 1]
        for original, rebuilt in zip(runs, loaded):
            _assert_runs_identical(original, rebuilt)

    def test_run_batch_envelope_rejects_garbage(self):
        with pytest.raises(PersistenceError, match="not a readable run batch"):
            load_run_batch_bytes(b"not a pickle")
        import pickle

        empty = pickle.dumps({"schema": "wavm3-runbatch/1", "runs": []})
        with pytest.raises(PersistenceError, match="no runs"):
            load_run_batch_bytes(empty)
        wrong = pickle.dumps({"schema": "wavm3-runbatch/1", "runs": ["x"]})
        with pytest.raises(PersistenceError, match="not a RunResult"):
            load_run_batch_bytes(wrong)


class TestGoldenByteIdentity:
    """Acceptance: byte-identical campaign samples JSON between
    --batch-size 1 (per-run) and batched dispatch on every backend."""

    RUNS = 3

    def _samples_bytes(self, result, path):
        save_samples_json(result.samples(), path)
        return path.read_bytes()

    def _local(self, tmp_path, jobs, batch_size, tag):
        executor = CampaignExecutor(
            ScenarioRunner(seed=SEED), jobs=jobs,
            cache_dir=tmp_path / f"cache-{tag}", batch_size=batch_size,
        )
        result = executor.run_campaign([_SCENARIO], min_runs=self.RUNS, max_runs=self.RUNS)
        return executor, result

    def test_serial_backend(self, tmp_path):
        ex1, r1 = self._local(tmp_path, 1, 1, "s1")
        exN, rN = self._local(tmp_path, 1, None, "sN")
        assert ex1.backend == exN.backend == "serial"
        assert self._samples_bytes(r1, tmp_path / "s1.json") == self._samples_bytes(
            rN, tmp_path / "sN.json"
        )
        assert exN.stats.runs_executed == self.RUNS

    def test_process_backend(self, tmp_path):
        ex1, r1 = self._local(tmp_path, 2, 1, "p1")
        exN, rN = self._local(tmp_path, 2, 2, "pN")
        assert ex1.backend == exN.backend == "process"
        assert self._samples_bytes(r1, tmp_path / "p1.json") == self._samples_bytes(
            rN, tmp_path / "pN.json"
        )

    def test_queue_backend(self, tmp_path):
        def campaign(batch_size, tag):
            spool = tmp_path / f"spool-{tag}"
            cache = tmp_path / f"qcache-{tag}"
            executor = CampaignExecutor(
                ScenarioRunner(seed=SEED), backend="queue", cache_dir=cache,
                spool_dir=spool, batch_size=batch_size,
                queue_options={"poll_interval": 0.02, "stop_workers_on_shutdown": True},
            )
            worker = threading.Thread(
                target=run_worker, args=(spool, cache),
                kwargs={"poll_interval": 0.02, "worker_id": f"w-{tag}"},
                daemon=True,
            )
            worker.start()
            result = executor.run_campaign(
                [_SCENARIO], min_runs=self.RUNS, max_runs=self.RUNS
            )
            worker.join(timeout=30)
            return executor, result

        ex1, r1 = campaign(1, "q1")
        exN, rN = campaign(self.RUNS, "qN")
        assert self._samples_bytes(r1, tmp_path / "q1.json") == self._samples_bytes(
            rN, tmp_path / "qN.json"
        )
        # The whole wave went out as one spool spec.
        assert ex1.queue_stats.tasks_submitted == self.RUNS
        assert exN.queue_stats.tasks_submitted == 1
        # Progress stays per-run regardless of batching.
        assert len(exN.progress_events) == self.RUNS
        assert sorted(e.run_index for e in exN.progress_events) == list(range(self.RUNS))

    def test_http_backend(self, tmp_path):
        def campaign(batch_size, tag):
            executor = CampaignExecutor(
                ScenarioRunner(seed=SEED), backend="http",
                cache_dir=tmp_path / f"hcache-{tag}", serve="127.0.0.1:0",
                batch_size=batch_size,
                http_options={"stop_workers_on_shutdown": True, "stop_grace_s": 2.0},
            )
            worker = threading.Thread(
                target=run_http_worker, args=(executor.serve_url,),
                kwargs={"poll_interval": 0.01, "worker_id": f"hw-{tag}"},
                daemon=True,
            )
            worker.start()
            result = executor.run_campaign(
                [_SCENARIO], min_runs=self.RUNS, max_runs=self.RUNS
            )
            worker.join(timeout=30)
            return executor, result

        ex1, r1 = campaign(1, "h1")
        exN, rN = campaign(self.RUNS, "hN")
        assert self._samples_bytes(r1, tmp_path / "h1.json") == self._samples_bytes(
            rN, tmp_path / "hN.json"
        )
        assert exN.queue_stats.tasks_submitted == 1
        assert len(exN.progress_events) == self.RUNS
        assert all(e.worker == "hw-hN" for e in exN.progress_events)

    def test_batched_warm_rerun_performs_zero_runs(self, tmp_path):
        self._local(tmp_path, 1, None, "warm")
        executor, _ = self._local(tmp_path, 1, None, "warm")
        assert executor.stats.runs_executed == 0
        assert executor.stats.runs_cached == self.RUNS


class TestChunkedDispatch:
    def test_cache_hole_splits_contiguous_spans(self, tmp_path):
        """A cache hit mid-wave must break the batch into spans around it."""
        cache_dir = tmp_path / "cache"
        executor = CampaignExecutor(
            ScenarioRunner(seed=SEED), cache_dir=cache_dir, batch_size=None
        )
        key = RunCache.scenario_key(
            SEED, _SCENARIO, executor.runner.settings, None, executor.runner.stabilization
        )
        warm = ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=1)
        executor.cache.put(key, warm, key_payload=RunCache._key_payload(
            SEED, _SCENARIO, executor.runner.settings, None, executor.runner.stabilization,
        ))

        submitted = []
        original = executor._backend.submit
        executor._backend.submit = lambda task: (submitted.append(task), original(task))[1]
        result = executor.run_campaign([_SCENARIO], min_runs=4, max_runs=4)

        assert executor.stats.runs_cached == 1
        assert executor.stats.runs_executed == 3
        kinds = sorted(
            (type(task).__name__, getattr(task, "run_index", None),
             getattr(task, "run_start", None), getattr(task, "run_count", None))
            for task in submitted
        )
        # Index 1 came from cache: span [0] dispatches as a single task,
        # span [2, 3] as one batch.
        assert kinds == [
            ("RunBatchTask", None, 2, 2),
            ("RunTask", 0, None, None),
        ]
        serial = ScenarioRunner(seed=SEED).run_campaign([_SCENARIO], min_runs=4, max_runs=4)
        for a, b in zip(serial.scenario_results[0].runs, result.scenario_results[0].runs):
            _assert_runs_identical(a, b)

    def test_explicit_batch_size_chunks_waves(self, tmp_path):
        executor = CampaignExecutor(
            ScenarioRunner(seed=SEED), cache_dir=tmp_path / "cache", batch_size=2
        )
        submitted = []
        original = executor._backend.submit
        executor._backend.submit = lambda task: (submitted.append(task), original(task))[1]
        executor.run_campaign([_SCENARIO], min_runs=5, max_runs=5)
        shapes = sorted(
            (getattr(task, "run_start", getattr(task, "run_index", None)),
             getattr(task, "run_count", 1))
            for task in submitted
        )
        assert shapes == [(0, 2), (2, 2), (4, 1)]

    def test_batch_size_validation(self):
        with pytest.raises(ExperimentError, match="batch_size"):
            CampaignExecutor(ScenarioRunner(seed=SEED), batch_size=0)


class TestQueueWorkerBatch:
    def test_partial_cache_short_circuits_per_run(self, tmp_path):
        """A batch claim re-simulates only the runs missing from the cache."""
        spool = tmp_path / "spool"
        cache_dir = tmp_path / "cache"
        cache = RunCache(cache_dir)
        task = _batch_task(run_start=0, run_count=3)
        warm = ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=1)
        cache.put(task.key, warm, key_payload=task.key_payload())

        backend = QueueBackend(spool, cache, poll_interval=0.02)
        future = backend.submit(task)
        stats = run_worker(
            spool, cache_dir, poll_interval=0.02, max_tasks=1, worker_id="w-partial"
        )
        assert stats.claimed == 1
        assert stats.cached == 1
        assert stats.executed == 2
        assert stats.failed == 0
        done = backend.wait([future])
        assert future in done
        runs = future.result()
        assert [r.run_index for r in runs] == [0, 1, 2]
        singles = [ScenarioRunner(seed=SEED).run_once(_SCENARIO, run_index=i) for i in range(3)]
        for a, b in zip(singles, runs):
            _assert_runs_identical(a, b)

    def test_late_joining_worker_drains_spooled_batch(self, tmp_path):
        """Satellite: capacity is None until a worker heartbeats, so the
        first wave is spooled cold (sized from jobs); a worker that joins
        afterwards must drain it and complete the campaign."""
        spool = tmp_path / "spool"
        cache_dir = tmp_path / "cache"
        executor = CampaignExecutor(
            ScenarioRunner(seed=SEED), backend="queue", cache_dir=cache_dir,
            spool_dir=spool, batch_size=None,
            queue_options={"poll_interval": 0.02, "stop_workers_on_shutdown": True},
        )
        assert executor._backend.capacity is None  # nobody has heartbeat yet

        def late_worker():
            time.sleep(0.3)
            run_worker(spool, cache_dir, poll_interval=0.02, worker_id="w-late")

        worker = threading.Thread(target=late_worker, daemon=True)
        worker.start()
        result = executor.run_campaign([_SCENARIO], min_runs=2, max_runs=2)
        worker.join(timeout=30)
        assert executor.stats.runs_executed == 2
        # Cold start fell back to jobs=1: the whole wave left as one batch.
        assert executor.queue_stats.tasks_submitted == 1
        serial = ScenarioRunner(seed=SEED).run_campaign([_SCENARIO], min_runs=2, max_runs=2)
        for a, b in zip(serial.scenario_results[0].runs, result.scenario_results[0].runs):
            _assert_runs_identical(a, b)


class TestBankedPassWalls:
    """A seed-banked pass advances its runs in lockstep, so distributed
    workers charge each run an even share of the pass wall instead of
    giving the first run the whole pass and the rest about zero."""

    def test_batch_passes_mirror_the_seed_bank_chunks(self):
        assert batch_passes(16, range(3)) == [[0, 1, 2]]
        assert batch_passes(2, [4, 5, 7, 9, 10]) == [[4, 5], [7, 9], [10]]
        assert batch_passes(0, [3, 4]) == [[3], [4]]
        assert batch_passes(16, [6]) == [[6]]

    def _assert_even_walls(self, executor):
        events = [e for e in executor.progress_events if e.worker.startswith("pw-")]
        assert sorted(e.run_index for e in events) == [0, 1]
        assert events[0].wall_s == events[1].wall_s > 1e-6

    def test_queue_worker(self, tmp_path):
        spool, cache = tmp_path / "spool", tmp_path / "cache"
        executor = CampaignExecutor(
            ScenarioRunner(seed=SEED), backend="queue", cache_dir=cache,
            spool_dir=spool, batch_size=2,
            queue_options={"poll_interval": 0.02, "stop_workers_on_shutdown": True},
        )
        worker = threading.Thread(
            target=run_worker, args=(spool, cache),
            kwargs={"poll_interval": 0.02, "worker_id": "pw-queue"},
            daemon=True,
        )
        worker.start()
        executor.run_campaign([_SCENARIO], min_runs=2, max_runs=2)
        worker.join(timeout=30)
        assert executor.queue_stats.tasks_submitted == 1
        self._assert_even_walls(executor)

    def test_http_worker(self, tmp_path):
        executor = CampaignExecutor(
            ScenarioRunner(seed=SEED), backend="http", cache_dir=tmp_path / "cache",
            serve="127.0.0.1:0", batch_size=2,
            http_options={"stop_workers_on_shutdown": True, "stop_grace_s": 2.0},
        )
        worker = threading.Thread(
            target=run_http_worker, args=(executor.serve_url,),
            kwargs={"poll_interval": 0.01, "worker_id": "pw-http"},
            daemon=True,
        )
        worker.start()
        executor.run_campaign([_SCENARIO], min_runs=2, max_runs=2)
        worker.join(timeout=30)
        assert executor.queue_stats.tasks_submitted == 1
        self._assert_even_walls(executor)


class TestBenchBatch:
    def test_bench_batch_shape(self):
        from repro.bench import bench_batch

        out = bench_batch(runs=2, repeats=1)
        assert set(out) == {
            "serial", "per_run", "batched", "overhead_x", "speedup", "runs", "scenario",
        }
        assert out["runs"] == 2
        for arm in ("serial", "per_run", "batched"):
            assert out[arm]["wall_s"] > 0
        assert out["overhead_x"] > 0 and out["speedup"] > 0


class TestCliBatchSize:
    @pytest.mark.parametrize("value", ["0", "-2", "maybe"])
    def test_invalid_batch_size_rejected(self, value):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["campaign", "--batch-size", value])
        assert info.value.code == 2

    def test_auto_and_integer_accepted(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["campaign", "--batch-size", "auto"])
        assert args.batch_size is None
        args = build_parser().parse_args(["campaign", "--batch-size", "4"])
        assert args.batch_size == 4
