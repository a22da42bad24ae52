"""The parallel campaign executor and its content-addressed run cache.

Covers the PR's acceptance criteria directly: serial-vs-parallel-vs-queue
bit-identity of campaign results, zero simulation runs on a warm cache,
cache invalidation when the execution protocol changes, and the shared
variance-stopping rule all paths replay.
"""

import json
import threading

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.design import MigrationScenario
from repro.experiments.executor import (
    CACHE_KEY_SCHEMA,
    CampaignExecutor,
    ProcessBackend,
    RunCache,
    SerialBackend,
)
from repro.experiments.queue_backend import run_worker
from repro.experiments.runner import RunnerSettings, ScenarioRunner, resolve_run_count
from repro.hypervisor.migration import MigrationConfig
from repro.io import (
    PersistenceError,
    load_run_result,
    save_run_result,
    save_samples_json,
)
from repro.models.features import HostRole
from repro.telemetry.stabilization import StabilizationRule

SEED = 20150901  # CLUSTER 2015


def _scenarios():
    """A small mixed 3-scenario campaign (both kinds + a DR sweep point)."""
    return [
        MigrationScenario("CPULOAD-SOURCE", "exec/lv/1vm", live=True, load_vm_count=1),
        MigrationScenario("CPULOAD-SOURCE", "exec/nl/0vm", live=False, load_vm_count=0),
        MigrationScenario("MEMLOAD-VM", "exec/lv/dr55", live=True, dirty_percent=55.0),
    ]


def _assert_campaigns_identical(a, b):
    """Energies, timelines and run counts must match to the last bit."""
    assert len(a.scenario_results) == len(b.scenario_results)
    for sa, sb in zip(a.scenario_results, b.scenario_results):
        assert sa.scenario == sb.scenario
        assert sa.n_runs == sb.n_runs
        assert np.array_equal(
            sa.total_energies_j(HostRole.SOURCE), sb.total_energies_j(HostRole.SOURCE)
        )
        assert np.array_equal(
            sa.total_energies_j(HostRole.TARGET), sb.total_energies_j(HostRole.TARGET)
        )
        for ra, rb in zip(sa.runs, sb.runs):
            assert ra.run_index == rb.run_index
            assert ra.timeline.ms == rb.timeline.ms
            assert ra.timeline.me == rb.timeline.me
            assert ra.timeline.bytes_total == rb.timeline.bytes_total
            assert np.array_equal(ra.source_trace.times, rb.source_trace.times)
            assert np.array_equal(ra.source_trace.watts, rb.source_trace.watts)
            assert np.array_equal(ra.target_trace.watts, rb.target_trace.watts)


@pytest.fixture(scope="module")
def serial_campaign():
    return ScenarioRunner(seed=SEED).run_campaign(_scenarios(), min_runs=3, max_runs=3)


class TestBitIdentity:
    def test_process_backend_matches_serial(self, serial_campaign):
        executor = CampaignExecutor(ScenarioRunner(seed=SEED), jobs=2)
        assert executor.backend == "process"
        parallel = executor.run_campaign(_scenarios(), min_runs=3, max_runs=3)
        _assert_campaigns_identical(serial_campaign, parallel)
        assert executor.stats.runs_executed == 9
        assert executor.stats.runs_kept == 9

    def test_serial_backend_matches_serial(self, serial_campaign):
        executor = CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1)
        assert executor.backend == "serial"
        result = executor.run_campaign(_scenarios(), min_runs=3, max_runs=3)
        _assert_campaigns_identical(serial_campaign, result)

    def test_adaptive_variance_loop_matches_serial(self):
        """With min < max the wave top-up must stop exactly where serial does."""
        scenarios = _scenarios()
        serial = ScenarioRunner(seed=SEED).run_campaign(scenarios, min_runs=3, max_runs=8)
        executor = CampaignExecutor(ScenarioRunner(seed=SEED), jobs=2, wave_size=3)
        parallel = executor.run_campaign(scenarios, min_runs=3, max_runs=8)
        _assert_campaigns_identical(serial, parallel)

    def test_run_campaign_parallel_kwarg(self, serial_campaign):
        runner = ScenarioRunner(seed=SEED)
        result = runner.run_campaign(_scenarios(), min_runs=3, max_runs=3, parallel=2)
        _assert_campaigns_identical(serial_campaign, result)
        assert runner.last_executor_stats.runs_kept == 9

    def test_result_independent_of_wave_size(self):
        scenarios = _scenarios()[:1]
        results = [
            CampaignExecutor(
                ScenarioRunner(seed=SEED), jobs=1, wave_size=w
            ).run_campaign(scenarios, min_runs=2, max_runs=6)
            for w in (1, 4)
        ]
        _assert_campaigns_identical(*results)

    def test_queue_backend_matches_serial_and_process(self, serial_campaign, tmp_path):
        """Acceptance: serial, process and queue (2 workers, one shared
        cache) produce byte-identical ExperimentResult JSON."""
        scenarios = _scenarios()
        workers = [
            threading.Thread(
                target=run_worker,
                args=(tmp_path / "spool", tmp_path / "cache"),
                kwargs=dict(poll_interval=0.02, idle_exit_s=60.0, worker_id=f"w{i}"),
                daemon=True,
            )
            for i in range(2)
        ]
        for thread in workers:
            thread.start()
        executor = CampaignExecutor(
            ScenarioRunner(seed=SEED), backend="queue",
            cache_dir=tmp_path / "cache", spool_dir=tmp_path / "spool",
            queue_options={"poll_interval": 0.02, "stop_workers_on_shutdown": True},
        )
        assert executor.backend == "queue"
        queued = executor.run_campaign(scenarios, min_runs=3, max_runs=3)
        for thread in workers:
            thread.join(timeout=60)
        assert executor.stats.runs_executed == 9

        process = CampaignExecutor(ScenarioRunner(seed=SEED), jobs=2).run_campaign(
            scenarios, min_runs=3, max_runs=3
        )
        _assert_campaigns_identical(serial_campaign, queued)
        _assert_campaigns_identical(process, queued)

        blobs = {}
        for name, result in (
            ("serial", serial_campaign), ("process", process), ("queue", queued),
        ):
            path = tmp_path / f"{name}.json"
            save_samples_json(result.samples(), path)
            blobs[name] = path.read_bytes()
        assert blobs["serial"] == blobs["process"] == blobs["queue"]


class TestBackendProtocol:
    def test_executor_accepts_backend_instances(self, serial_campaign):
        executor = CampaignExecutor(ScenarioRunner(seed=SEED), backend=SerialBackend())
        assert executor.backend == "serial"
        result = executor.run_campaign(_scenarios(), min_runs=3, max_runs=3)
        _assert_campaigns_identical(serial_campaign, result)

    def test_capacity_feeds_default_wave_size(self):
        assert CampaignExecutor(
            ScenarioRunner(seed=SEED), backend=ProcessBackend(5)
        ).wave_size == 5
        assert CampaignExecutor(ScenarioRunner(seed=SEED), jobs=3).wave_size == 3
        assert CampaignExecutor(ScenarioRunner(seed=SEED)).wave_size == 1

    def test_process_backend_reusable_after_shutdown(self):
        backend = ProcessBackend(2)
        executor = CampaignExecutor(ScenarioRunner(seed=SEED), jobs=2, backend=backend)
        first = executor.run_campaign(_scenarios()[:1], min_runs=2, max_runs=2)
        second = executor.run_campaign(_scenarios()[:1], min_runs=2, max_runs=2)
        _assert_campaigns_identical(first, second)


class TestRunCache:
    def test_cold_then_warm(self, tmp_path, serial_campaign):
        cold = CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path)
        first = cold.run_campaign(_scenarios(), min_runs=3, max_runs=3)
        assert cold.stats.runs_executed == 9
        assert cold.stats.runs_cached == 0

        warm = CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path)
        second = warm.run_campaign(_scenarios(), min_runs=3, max_runs=3)
        assert warm.stats.runs_executed == 0  # acceptance: zero simulation runs
        assert warm.stats.runs_cached == 9
        _assert_campaigns_identical(first, second)
        _assert_campaigns_identical(serial_campaign, second)

    def test_warm_cache_through_process_backend(self, tmp_path, serial_campaign):
        CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path).run_campaign(
            _scenarios(), min_runs=3, max_runs=3
        )
        warm = CampaignExecutor(ScenarioRunner(seed=SEED), jobs=2, cache_dir=tmp_path)
        result = warm.run_campaign(_scenarios(), min_runs=3, max_runs=3)
        assert warm.stats.runs_executed == 0
        _assert_campaigns_identical(serial_campaign, result)

    def test_partial_cache_tops_up(self, tmp_path):
        scenarios = _scenarios()
        CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path).run_campaign(
            scenarios, min_runs=2, max_runs=2
        )
        more = CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path)
        result = more.run_campaign(scenarios, min_runs=3, max_runs=3)
        assert more.stats.runs_cached == 6   # runs 0-1 of each scenario
        assert more.stats.runs_executed == 3  # run 2 of each scenario
        serial = ScenarioRunner(seed=SEED).run_campaign(scenarios, min_runs=3, max_runs=3)
        _assert_campaigns_identical(serial, result)

    def test_settings_change_invalidates(self, tmp_path):
        scenarios = _scenarios()[:1]
        CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path).run_campaign(
            scenarios, min_runs=2, max_runs=2
        )
        changed = ScenarioRunner(
            seed=SEED, settings=RunnerSettings(check_interval_s=2.0)
        )
        again = CampaignExecutor(changed, jobs=1, cache_dir=tmp_path)
        again.run_campaign(scenarios, min_runs=2, max_runs=2)
        assert again.stats.runs_cached == 0
        assert again.stats.runs_executed == 2

    def test_seed_change_invalidates(self, tmp_path):
        scenarios = _scenarios()[:1]
        CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path).run_campaign(
            scenarios, min_runs=2, max_runs=2
        )
        again = CampaignExecutor(ScenarioRunner(seed=SEED + 1), jobs=1, cache_dir=tmp_path)
        again.run_campaign(scenarios, min_runs=2, max_runs=2)
        assert again.stats.runs_cached == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        scenarios = _scenarios()[:1]
        CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path).run_campaign(
            scenarios, min_runs=2, max_runs=2
        )
        for path in tmp_path.rglob("run-*.pkl"):
            path.write_bytes(b"not a pickle")
        again = CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path)
        again.run_campaign(scenarios, min_runs=2, max_runs=2)
        assert again.stats.runs_cached == 0
        assert again.stats.runs_executed == 2

    def _corrupt_meta_files(self, tmp_path, mutate):
        metas = list(tmp_path.rglob("meta.json"))
        assert metas
        for meta in metas:
            mutate(meta)

    def test_unparseable_meta_invalidates_entry(self, tmp_path):
        """The cache must not trust arbitrary JSON: garbage meta means the
        whole entry is distrusted and its runs recomputed."""
        scenarios = _scenarios()[:1]
        CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path).run_campaign(
            scenarios, min_runs=2, max_runs=2
        )
        self._corrupt_meta_files(
            tmp_path, lambda meta: meta.write_text("not json", encoding="utf-8")
        )
        again = CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path)
        again.run_campaign(scenarios, min_runs=2, max_runs=2)
        assert again.stats.runs_cached == 0
        assert again.stats.runs_executed == 2

    def test_wrong_schema_meta_invalidates_entry(self, tmp_path):
        scenarios = _scenarios()[:1]
        CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path).run_campaign(
            scenarios, min_runs=2, max_runs=2
        )

        def wrong_schema(meta):
            payload = json.loads(meta.read_text(encoding="utf-8"))
            payload["schema"] = "wavm3-run-cache/0"
            meta.write_text(json.dumps(payload), encoding="utf-8")

        self._corrupt_meta_files(tmp_path, wrong_schema)
        again = CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path)
        again.run_campaign(scenarios, min_runs=2, max_runs=2)
        assert again.stats.runs_cached == 0

    def test_hash_mismatching_meta_invalidates_entry(self, tmp_path):
        """A meta whose canonical JSON no longer hashes back to the entry
        key (hand-edited or bit-rotted) marks the entry untrustworthy."""
        scenarios = _scenarios()[:1]
        CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path).run_campaign(
            scenarios, min_runs=2, max_runs=2
        )

        def tamper(meta):
            payload = json.loads(meta.read_text(encoding="utf-8"))
            payload["seed"] = payload["seed"] + 1
            meta.write_text(json.dumps(payload), encoding="utf-8")

        self._corrupt_meta_files(tmp_path, tamper)
        again = CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path)
        again.run_campaign(scenarios, min_runs=2, max_runs=2)
        assert again.stats.runs_cached == 0
        assert again.stats.runs_executed == 2

    def test_recompute_repairs_bad_meta(self, tmp_path):
        """After recomputing past a bad meta, put() rewrites a valid one,
        so the *next* campaign is all cache hits again."""
        scenarios = _scenarios()[:1]
        CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path).run_campaign(
            scenarios, min_runs=2, max_runs=2
        )
        self._corrupt_meta_files(
            tmp_path, lambda meta: meta.write_text("{}", encoding="utf-8")
        )
        CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path).run_campaign(
            scenarios, min_runs=2, max_runs=2
        )
        for meta in tmp_path.rglob("meta.json"):
            payload = json.loads(meta.read_text(encoding="utf-8"))
            assert payload["schema"] == CACHE_KEY_SCHEMA
        healed = CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path)
        healed.run_campaign(scenarios, min_runs=2, max_runs=2)
        assert healed.stats.runs_executed == 0
        assert healed.stats.runs_cached == 2


    def test_cache_warmed_on_stream_v2_serves_nothing(self, tmp_path, monkeypatch):
        """Stream v3 changed the bytes of live runs, so a cache warmed
        under the v2 key schema must not serve a single run."""
        from repro.experiments import executor as executor_module

        scenarios = _scenarios()
        monkeypatch.setattr(executor_module, "CACHE_KEY_SCHEMA", "wavm3-run-cache/2")
        CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path).run_campaign(
            scenarios, min_runs=2, max_runs=2
        )
        monkeypatch.undo()
        assert CACHE_KEY_SCHEMA == "wavm3-run-cache/3"
        again = CampaignExecutor(ScenarioRunner(seed=SEED), jobs=1, cache_dir=tmp_path)
        again.run_campaign(scenarios, min_runs=2, max_runs=2)
        assert again.stats.runs_cached == 0
        assert again.stats.runs_executed == 6


class TestCacheKey:
    SETTINGS = RunnerSettings()
    RULE = StabilizationRule()

    def _key(self, **overrides):
        kwargs = dict(
            seed=1,
            scenario=_scenarios()[0],
            settings=self.SETTINGS,
            migration_config=None,
            stabilization=self.RULE,
        )
        kwargs.update(overrides)
        return RunCache.scenario_key(
            kwargs["seed"], kwargs["scenario"], kwargs["settings"],
            kwargs["migration_config"], kwargs["stabilization"],
        )

    def test_stable(self):
        assert self._key() == self._key()

    def test_sensitive_to_every_ingredient(self):
        base = self._key()
        assert self._key(seed=2) != base
        assert self._key(scenario=_scenarios()[1]) != base
        assert self._key(settings=RunnerSettings(min_runs=12)) != base
        assert self._key(migration_config=MigrationConfig()) != base
        assert self._key(stabilization=StabilizationRule(n_readings=10)) != base


class TestRunResultPersistence:
    def test_round_trip(self, tmp_path, live_cpu_run):
        path = tmp_path / "run.pkl"
        save_run_result(live_cpu_run, path)
        loaded = load_run_result(path)
        assert loaded.scenario == live_cpu_run.scenario
        assert np.array_equal(loaded.source_trace.watts, live_cpu_run.source_trace.watts)
        assert loaded.total_energy_j(HostRole.SOURCE) == live_cpu_run.total_energy_j(
            HostRole.SOURCE
        )
        assert not list(tmp_path.glob("*.tmp"))  # atomic write cleaned up

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.pkl"
        path.write_bytes(b"\x80\x04garbage")
        with pytest.raises(PersistenceError):
            load_run_result(path)

    def test_rejects_wrong_schema(self, tmp_path):
        import pickle

        path = tmp_path / "wrong.pkl"
        path.write_bytes(pickle.dumps({"schema": "other/1", "run": None}))
        with pytest.raises(PersistenceError):
            load_run_result(path)


class TestStoppingRule:
    """resolve_run_count — shared by the serial loop and the executor."""

    def test_tracks_variance_below_min_runs(self):
        """previous_var must be maintained through the skipped-check region.

        The sequence's variance is already flat by n = 3, so the first
        *checked* count (n = min_runs = 5) compares against the variance
        at n = 4 and stops immediately.  If the chain were only started
        at min_runs, the stop would slip to n = 6.
        """
        energies = [100.0, 110.0, 100.0, 110.0, 100.0, 110.0, 100.0]
        assert resolve_run_count(energies, min_runs=5, max_runs=7, variance_delta=0.5) == 5

    def test_zero_variance_runs_to_max(self):
        # previous_var > 0 never holds for a constant sequence, so the
        # criterion cannot fire and the loop runs to max_runs.
        energies = [100.0, 100.0, 100.0, 100.0]
        assert resolve_run_count(energies, 2, 4, 0.1) == 4

    def test_undecided_returns_none(self):
        assert resolve_run_count([1.0, 50.0], min_runs=4, max_runs=8, variance_delta=0.1) is None

    def test_max_runs_caps(self):
        rng = np.random.default_rng(0)
        energies = (rng.random(6) * 1000).tolist()  # wildly varying
        assert resolve_run_count(energies, 2, 6, 1e-12) == 6

    def test_matches_serial_loop_semantics(self):
        """Replaying prefixes one run at a time gives the same stop point."""
        rng = np.random.default_rng(3)
        energies = (100 + rng.random(16) * 5).tolist()
        whole = resolve_run_count(energies, 4, 16, 0.10)
        incremental = None
        for n in range(1, 17):
            incremental = resolve_run_count(energies[:n], 4, 16, 0.10)
            if incremental is not None:
                break
        assert incremental == whole

    def test_bad_bounds_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_run_count([1.0, 2.0], min_runs=1, max_runs=4, variance_delta=0.1)
        with pytest.raises(ExperimentError):
            resolve_run_count([1.0, 2.0], min_runs=4, max_runs=2, variance_delta=0.1)

    def test_scenario_runner_respects_rule(self):
        """End-to-end: run_scenario keeps exactly the resolved count."""
        runner = ScenarioRunner(seed=SEED)
        scenario = _scenarios()[0]
        result = runner.run_scenario(scenario, min_runs=3, max_runs=8)
        energies = [r.total_energy_j(HostRole.SOURCE) for r in result.runs]
        assert resolve_run_count(energies, 3, 8, runner.settings.variance_delta) == result.n_runs


class TestBackendLifecycle:
    def test_shutdown_runs_even_when_drain_progress_raises(self):
        """A raising progress drain must not leak the backend's workers.

        Regression: ``run_campaign``'s cleanup drained worker progress
        before shutting the backend down, so an exception from the drain
        (corrupt sidecar, dead spool dir) skipped ``shutdown`` entirely
        and leaked the worker pool.  The drain error still propagates.
        """

        class ExplodingDrainBackend(SerialBackend):
            def __init__(self):
                self.shutdown_called = False

            def drain_progress(self):
                raise RuntimeError("corrupt progress sidecar")

            def shutdown(self):
                self.shutdown_called = True

        backend = ExplodingDrainBackend()
        executor = CampaignExecutor(ScenarioRunner(seed=SEED), backend=backend)
        with pytest.raises(RuntimeError, match="corrupt progress sidecar"):
            executor.run_campaign(_scenarios()[:1], min_runs=2, max_runs=2)
        assert backend.shutdown_called


class TestExecutorValidation:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ExperimentError):
            CampaignExecutor(ScenarioRunner(seed=0), jobs=0)

    def test_rejects_bad_backend(self):
        with pytest.raises(ExperimentError):
            CampaignExecutor(ScenarioRunner(seed=0), backend="threads")

    def test_rejects_empty_campaign(self):
        with pytest.raises(ExperimentError):
            CampaignExecutor(ScenarioRunner(seed=0)).run_campaign([])

    def test_rejects_bad_bounds(self):
        with pytest.raises(ExperimentError):
            CampaignExecutor(ScenarioRunner(seed=0)).run_campaign(
                _scenarios(), min_runs=1, max_runs=1
            )
