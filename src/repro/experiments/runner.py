"""Scenario execution with the paper's measurement protocol.

Section V-B, reproduced step by step per run:

1. boot the scenario's guests and start measuring;
2. wait until both hosts' power **stabilises** (twenty consecutive
   readings within 0.3 %);
3. issue the migration through the toolstack;
4. keep measuring until the migration completes *and* power stabilises
   again;
5. repeat the run until the variance of the measured migration energy
   changes by less than 10 % between consecutive repetition counts —
   with **at least ten runs** (``min_runs``).

Every run gets an independent seed derived from
``(master seed, scenario label, run index)``, so campaigns are exactly
reproducible and runs are statistically independent.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle avoided at runtime
    from repro.experiments.scheduler import SpeculationPolicy

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.design import MigrationScenario
from repro.experiments.instances import make_instance_vm
from repro.experiments.results import ExperimentResult, RunResult, ScenarioResult
from repro.experiments.testbed import Testbed
from repro.hypervisor.migration import MigrationConfig
from repro.models.features import HostRole
from repro.simulator.rng import derive_seed
from repro.telemetry.stabilization import StabilizationRule

__all__ = [
    "CONSOLIDATION_PERIOD_S",
    "CONSOLIDATION_PHASE_S",
    "CONSOLIDATION_UNDERLOAD",
    "RunnerSettings",
    "ScenarioRunner",
    "batch_passes",
    "resolve_run_count",
]

#: Monitoring cadence of the consolidation-driver scenarios (the
#: Section III-B(a) manager "constantly monitors" loop, scaled to the
#: simulated protocol).
CONSOLIDATION_PERIOD_S = 5.0

#: First-tick offset after the manager starts.  Deliberately off every
#: telemetry grid (meters tick on the 0.5 s grid, dstat on 1 s): a
#: migration issue must never share an exact float timestamp with a
#: sampler reading, because the two telemetry modes order such a tie
#: differently (batched: action first; events: scheduling history).
CONSOLIDATION_PHASE_S = CONSOLIDATION_PERIOD_S + 0.137

#: Hosts below this CPU utilisation fraction are drain candidates.  Sits
#: between one idling migrating guest (~14 % of the 32-thread m-pair) and
#: the ≥ 3-load-VM levels (~38 %) the consolidation scenarios place on
#: the target, so the drain direction is never ambiguous.
CONSOLIDATION_UNDERLOAD = 0.20


def batch_passes(seed_bank: int, run_indices: Sequence[int]) -> list[list[int]]:
    """The passes in which :meth:`ScenarioRunner.run_batch` runs a batch.

    With ``seed_bank >= 2`` and at least two distinct indices, the batch
    runs as :class:`~repro.experiments.seedbank.SeedBank` chunks of up to
    ``seed_bank`` runs that advance in lockstep, so the runs of one pass
    share its wall time; otherwise every run is a pass of its own.
    """
    indices = list(run_indices)
    if seed_bank >= 2 and len(indices) >= 2 and len(set(indices)) == len(indices):
        return [
            indices[pos:pos + seed_bank] for pos in range(0, len(indices), seed_bank)
        ]
    return [[index] for index in indices]


def resolve_run_count(
    energies: Sequence[float],
    min_runs: int,
    max_runs: int,
    variance_delta: float,
) -> Optional[int]:
    """Replay the paper's variance-stopping rule over ordered run energies.

    The rule (Section V-B): stop at the first repetition count ``n`` with
    ``n >= min_runs`` whose sample variance differs from the variance at
    ``n - 1`` runs by less than ``variance_delta`` (relative).  The
    previous-variance chain is tracked from ``n = 2`` onwards — including
    the repetition counts below ``min_runs`` where the criterion itself is
    not yet checked — so the "consecutive repetition counts" comparison at
    ``n = min_runs`` uses the variance of the ``min_runs - 1`` prefix.

    Because the decision is a pure function of the ordered energy sequence,
    the serial loop and the parallel executor share it and are guaranteed
    to keep exactly the same runs.

    Returns
    -------
    Optional[int]
        The number of runs to keep, or ``None`` if the criterion is still
        undecided after ``len(energies)`` runs (i.e. more runs are needed;
        never ``None`` once ``len(energies) >= max_runs``).
    """
    if min_runs < 2 or max_runs < min_runs:
        raise ExperimentError(f"invalid run bounds: min={min_runs} max={max_runs}")
    previous_var: Optional[float] = None
    for n in range(2, min(len(energies), max_runs) + 1):
        current_var = float(np.var(np.asarray(energies[:n], dtype=np.float64), ddof=1))
        if (
            n >= min_runs
            and previous_var is not None
            and previous_var > 0
            and abs(current_var - previous_var) / previous_var < variance_delta
        ):
            return n
        previous_var = current_var
    if len(energies) >= max_runs:
        return max_runs
    return None


@dataclass(frozen=True)
class RunnerSettings:
    """Execution-protocol knobs (defaults = the paper's protocol).

    ``telemetry`` selects the sampling implementation, not the protocol:
    ``"batched"`` (default) drives all instruments through the vectorized
    interval-hook fast path, ``"events"`` keeps the one-heap-event-per-
    sample reference path.  ``compute`` selects the kernel implementation
    inside the batched blocks the same way: ``"python"`` is the all-
    scalar reference, ``"numpy"`` (default) the adaptive array-kernel
    hybrid, ``"numba"`` the hybrid with njit-compiled loops (resolved to
    ``"numpy"`` when numba is missing).  ``seed_bank`` selects the batch
    *interior* the same way: values ``>= 2`` let :meth:`run_batch` drive
    up to that many runs in lockstep through the seed-bank SoA pass
    (:mod:`repro.experiments.seedbank`), ``0``/``1`` keep the per-run
    loop.  Results are bit-identical along all three axes (the
    cross-path golden tests assert byte-identical campaign samples
    JSON), which is why the run cache deliberately ignores all three
    fields.
    """

    min_warmup_s: float = 12.0          # before the stabilisation check starts
    max_warmup_s: float = 90.0          # hard cap on the pre-migration wait
    min_post_s: float = 12.0            # post-migration measurement floor
    max_post_s: float = 120.0           # hard cap on the post-migration wait
    check_interval_s: float = 2.5       # cadence of stabilisation checks
    migration_timeout_s: float = 900.0  # a migration must finish within this
    min_runs: int = 10                  # paper: "at least ten runs"
    max_runs: int = 16                  # safety cap on the variance loop
    variance_delta: float = 0.10        # paper: "less than 10 %"
    telemetry: str = "batched"          # "batched" fast path | "events" reference
    compute: str = "numpy"              # "python" reference | "numpy" | "numba"
    seed_bank: int = 16                 # max runs banked per SoA pass (0/1 = off)

    def __post_init__(self) -> None:
        if self.telemetry not in ("batched", "events"):
            raise ExperimentError(
                f"telemetry must be 'batched' or 'events', got {self.telemetry!r}"
            )
        if self.compute not in ("python", "numpy", "numba"):
            raise ExperimentError(
                f"compute must be 'python', 'numpy' or 'numba', got {self.compute!r}"
            )
        if (
            not isinstance(self.seed_bank, int)
            or isinstance(self.seed_bank, bool)
            or self.seed_bank < 0
        ):
            raise ExperimentError(
                f"seed_bank must be a non-negative integer, got {self.seed_bank!r}"
            )


class ScenarioRunner:
    """Runs migration scenarios on freshly built testbeds.

    Parameters
    ----------
    seed:
        Master seed of the campaign.
    settings:
        Measurement-protocol knobs.
    migration_config:
        Optional migration-engine override (ablation studies).
    stabilization:
        The stability criterion (defaults to the paper's 20×0.3 % rule).
    """

    def __init__(
        self,
        seed: int = 0,
        settings: Optional[RunnerSettings] = None,
        migration_config: Optional[MigrationConfig] = None,
        stabilization: StabilizationRule = StabilizationRule(),
    ) -> None:
        self.seed = int(seed)
        self.settings = settings or RunnerSettings()
        self.migration_config = migration_config
        self.stabilization = stabilization
        #: Stats of the most recent parallel/cached campaign (``None`` until
        #: :meth:`run_campaign` is called with ``parallel``/``cache_dir``).
        self.last_executor_stats = None

    # ------------------------------------------------------------------
    def build_testbed(self, scenario: MigrationScenario, run_index: int) -> Testbed:
        """The run's freshly seeded testbed (exactly :meth:`run_once`'s)."""
        run_seed = derive_seed(self.seed, f"{scenario.label}#{run_index}")
        cfg = self.settings
        return Testbed(
            family=scenario.family,
            seed=run_seed,
            telemetry=cfg.telemetry,
            compute=cfg.compute,
        )

    def run_once(self, scenario: MigrationScenario, run_index: int = 0) -> RunResult:
        """Execute one instrumented run of a scenario."""
        bed = self.build_testbed(scenario, run_index)
        protocol = self._run_protocol(bed, scenario, run_index)
        try:
            while True:
                step = next(protocol)
                if isinstance(step, tuple):  # ("stabilise", budget_s)
                    self._run_until_stable(bed, step[1])
                else:
                    bed.sim.run_for(step)
        except StopIteration as stop:
            return stop.value

    def _run_protocol(
        self, bed: Testbed, scenario: MigrationScenario, run_index: int
    ):
        """The Section V-B measurement protocol as a coroutine.

        Performs every protocol action on ``bed`` but *yields* instead of
        advancing simulated time: plain floats ask the driver to advance
        that many seconds, and ``("stabilise", budget_s)`` marks a
        stabilisation wait so the driver can choose how to walk the check
        grid — :meth:`run_once` delegates to :meth:`_run_until_stable`
        (the look-ahead loop), the seed-bank driver expands it into
        single-check lockstep steps (:meth:`_lockstep_stable_steps`).
        The two walks take identical samples and detect stabilisation at
        the identical check (the look-ahead elides only provably-false
        checks; ``tests/test_telemetry_batched.py`` pins the
        equivalence), so *who* drives the generator never changes a byte
        of the returned :class:`~repro.experiments.results.RunResult`.
        """
        cfg = self.settings
        run_seed = bed.seed

        # --- guests -----------------------------------------------------
        vm = make_instance_vm(
            scenario.migrating_instance,
            name="migrating",
            dirty_percent=scenario.dirty_percent,
            noise_seed=derive_seed(run_seed, "vm:migrating"),
        )
        bed.toolstack.create(bed.source_name, vm)
        load_host = (
            bed.source_name if scenario.load_on == "source" else bed.target_name
        )
        for i in range(scenario.load_vm_count):
            bed.toolstack.create(
                load_host,
                make_instance_vm(
                    "load-cpu",
                    name=f"load-{i}",
                    noise_seed=derive_seed(run_seed, f"vm:load-{i}"),
                ),
            )

        # --- instrumentation ---------------------------------------------
        recorder = bed.make_feature_recorder(vm)
        bed.start_instrumentation()
        recorder.start()

        # --- phase 0: stabilise ------------------------------------------
        yield cfg.min_warmup_s
        yield ("stabilise", cfg.max_warmup_s)

        # --- migrate -------------------------------------------------------
        if scenario.driver == "manager":
            job = yield from self._manager_steps(bed, scenario, recorder)
        else:
            job = bed.toolstack.migrate(
                "migrating",
                bed.source_name,
                bed.target_name,
                bed.path,
                live=scenario.live,
                config=self.migration_config,
            )
        recorder.attach_job(job)
        deadline = bed.sim.now + cfg.migration_timeout_s
        while not job.finished:
            if bed.sim.now >= deadline:
                raise ExperimentError(
                    f"migration did not finish within {cfg.migration_timeout_s}s "
                    f"({scenario.label}#{run_index})"
                )
            yield cfg.check_interval_s

        # --- post-migration stabilisation ----------------------------------
        yield cfg.min_post_s
        yield ("stabilise", cfg.max_post_s)

        recorder.stop()
        bed.stop_instrumentation()

        return RunResult(
            scenario=scenario,
            run_index=run_index,
            timeline=job.timeline,
            source_trace=bed.source_meter.trace,
            target_trace=bed.target_meter.trace,
            features=recorder.trace,
            source_idle_w=bed.source.idle_power_w(),
            target_idle_w=bed.target.idle_power_w(),
            vm_ram_mb=vm.memory.ram_mb,
        )

    def run_batch(
        self,
        scenario: MigrationScenario,
        run_indices: Sequence[int],
        on_run=None,
    ) -> list[RunResult]:
        """Execute several runs of one scenario through this runner.

        The batch-of-runs execution path (``RunBatchTask``): scenario
        validation — family machine pair, switch spec, instance-catalog
        membership — is hoisted out of the per-run loop and paid once per
        batch, while each run still derives its own independent seed via
        ``derive_seed(master, f"{label}#{index}")`` and builds its own
        testbed.  With ``settings.seed_bank >= 2`` the batch *interior*
        runs through the seed-bank SoA pass
        (:class:`~repro.experiments.seedbank.SeedBank`): lockstep runs
        share one vectorized kernel evaluation per event-free interval
        and drop to the per-run engine path wherever their timelines
        diverge.  Every run is therefore **bit-identical** to what
        :meth:`run_once` returns for the same index, whatever the batch
        shape or bank width.

        Parameters
        ----------
        scenario:
            The scenario to run.
        run_indices:
            The run indices to execute, in order (need not be contiguous:
            a worker resuming a partially-cached batch passes the holes).
        on_run:
            Optional callback invoked with each finished
            :class:`~repro.experiments.results.RunResult` as soon as it
            exists — distributed workers use it to announce progress and
            deposit into the shared cache incrementally instead of only
            after the whole batch.

        Returns
        -------
        list[RunResult]
            One result per index, in ``run_indices`` order.

        Raises
        ------
        ExperimentError
            On an empty or invalid index list, or any run failure.
        """
        from repro.cluster.machines import machine_pair, switch_spec  # local: keep import light
        from repro.experiments.instances import INSTANCE_CATALOG

        indices = list(run_indices)
        if not indices:
            raise ExperimentError("run_batch needs at least one run index")
        invalid = [
            index
            for index in indices
            if not isinstance(index, int) or isinstance(index, bool) or index < 0
        ]
        if invalid:
            # Report *every* offending index: a malformed task spec is
            # fixed in one round trip instead of one index at a time.
            raise ExperimentError(
                f"run indices must be non-negative integers, got {invalid!r}"
            )
        # Hoisted scenario validation: these raise exactly as the per-run
        # path would, just once per batch instead of once per run.
        machine_pair(scenario.family)
        switch_spec(scenario.family)
        if scenario.migrating_instance not in INSTANCE_CATALOG:
            raise ExperimentError(
                f"unknown instance {scenario.migrating_instance!r} "
                f"(catalog: {sorted(INSTANCE_CATALOG)})"
            )

        if len(batch_passes(self.settings.seed_bank, indices)) < len(indices):
            from repro.experiments.seedbank import SeedBank  # local: avoid cycle

            return SeedBank(
                self,
                scenario,
                indices,
                width=self.settings.seed_bank,
                on_run=on_run,
            ).execute()

        runs: list[RunResult] = []
        for index in indices:
            run = self.run_once(scenario, run_index=index)
            runs.append(run)
            if on_run is not None:
                on_run(run)
        return runs

    def _manager_steps(self, bed: Testbed, scenario: MigrationScenario, recorder):
        """Let a consolidation manager detect and drain the source host.

        Builds a :class:`~repro.consolidation.datacenter.DataCenter` view
        over the testbed's own components (shared simulator, hypervisors,
        toolstack and instrumented network path), starts the manager on
        the shared :class:`~repro.simulator.control.ControlLoop` cadence
        in the runner's telemetry mode, and advances the simulation on the
        check grid until the manager's energy-aware policy issues the
        drain.  The feature recorder is pointed at ``manager.active_job``
        up front, so bandwidth rows are correct from the issue tick
        itself — not from the check-grid poll that later notices it.
        Returns the issued migration job; the measurement protocol then
        proceeds exactly as in the scripted path.
        """
        from repro.cluster.machines import switch_spec  # local: keep import light
        from repro.consolidation import (
            ConsolidationManager,
            DataCenter,
            EnergyAwarePolicy,
            Wavm3PlanningEstimator,
        )
        from repro.models.coefficients import paper_wavm3_coefficients

        cfg = self.settings
        dc = DataCenter.adopt(
            bed.sim,
            {bed.source_name: bed.source_xen, bed.target_name: bed.target_xen},
            bed.toolstack,
            switch_spec(scenario.family),
            seed=bed.seed,
            paths={(bed.source_name, bed.target_name): bed.path},
        )
        estimator = Wavm3PlanningEstimator(
            paper_wavm3_coefficients(live=scenario.live),
            config=self.migration_config,
        )
        manager = ConsolidationManager(
            dc,
            EnergyAwarePolicy(estimator, live=scenario.live),
            underload_threshold=CONSOLIDATION_UNDERLOAD,
            period_s=CONSOLIDATION_PERIOD_S,
            phase_s=CONSOLIDATION_PHASE_S,
            live=scenario.live,
            telemetry=cfg.telemetry,
            migration_config=self.migration_config,
        )
        recorder.attach_job_provider(lambda: manager.active_job)
        manager.start()
        deadline = bed.sim.now + cfg.migration_timeout_s
        try:
            while manager.migrations_issued == 0:
                if bed.sim.now >= deadline:
                    raise ExperimentError(
                        f"consolidation manager issued no migration within "
                        f"{cfg.migration_timeout_s}s ({scenario.label})"
                    )
                yield cfg.check_interval_s
        finally:
            # One measured migration per run: stop monitoring so the
            # post-migration phases stay manager-free.
            manager.stop()
        job = manager.active_job
        assert job is not None
        return job

    def _run_until_stable(self, bed: Testbed, budget_s: float) -> None:
        """Advance simulation until both meters satisfy the rule (or budget).

        Checks run on the ``check_interval_s`` grid, with a *look-ahead*:
        a meter that still needs ``k`` more in-tolerance readings cannot
        possibly satisfy the rule at a check reached before ``k`` new
        samples exist, so such checks are provably false and are elided
        by advancing several intervals at once.  The elision changes
        neither the samples taken nor the check at which stabilisation is
        first detected (only no-op checks are skipped), and it is
        evaluated identically under both telemetry modes — it simply
        lets the batched fast path process longer event-free intervals.
        """
        spent = 0.0
        check = self.settings.check_interval_s
        rule = self.stabilization
        period = min(bed.source_meter.period_s, bed.target_meter.period_s)
        while spent < budget_s:
            if bed.source_meter.stabilised(rule) and bed.target_meter.stabilised(rule):
                return
            deficit = max(
                bed.source_meter.stabilisation_deficit(rule),
                bed.target_meter.stabilisation_deficit(rule),
            )
            # The original loop would run ceil(remaining / check) more
            # checks; never skip beyond that.
            max_steps = max(1, math.ceil((budget_s - spent) / check))
            steps = 1
            # A j-interval window of length j*check holds at most
            # floor(j*check/period) + 1 sample instants.
            while (
                steps < max_steps
                and math.floor(steps * check / period) + 1 < deficit
            ):
                steps += 1
            bed.sim.run_for(check * steps)
            spent += check * steps
        # Budget exhausted: proceed — matching lab practice where a run is
        # not discarded for residual ripple, just measured longer.

    # ------------------------------------------------------------------
    def run_scenario(
        self,
        scenario: MigrationScenario,
        min_runs: Optional[int] = None,
        max_runs: Optional[int] = None,
    ) -> ScenarioResult:
        """Repeat a scenario until the paper's variance criterion holds."""
        lo = min_runs if min_runs is not None else self.settings.min_runs
        hi = max_runs if max_runs is not None else self.settings.max_runs
        if lo < 2 or hi < lo:
            raise ExperimentError(f"invalid run bounds: min={lo} max={hi}")

        runs: list[RunResult] = []
        energies: list[float] = []
        for index in range(hi):
            run = self.run_once(scenario, run_index=index)
            runs.append(run)
            energies.append(run.total_energy_j(HostRole.SOURCE))
            kept = resolve_run_count(energies, lo, hi, self.settings.variance_delta)
            if kept is not None:
                break
        return ScenarioResult(scenario, runs)

    def run_campaign(
        self,
        scenarios: Sequence[MigrationScenario],
        min_runs: Optional[int] = None,
        max_runs: Optional[int] = None,
        parallel: Optional[Union[int, str]] = None,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        spool_dir: Optional[Union[str, pathlib.Path]] = None,
        queue_options: Optional[dict] = None,
        serve: Optional[str] = None,
        http_options: Optional[dict] = None,
        batch_size: Optional[int] = 1,
        speculation: Optional["SpeculationPolicy"] = None,
    ) -> ExperimentResult:
        """Run a list of scenarios into one :class:`ExperimentResult`.

        Parameters
        ----------
        scenarios:
            The scenarios to measure (at least one).
        min_runs / max_runs:
            Bounds of the variance-stopping loop; default to
            :attr:`settings`.
        parallel:
            Number of worker processes to fan runs out across, the
            string ``"queue"`` to dispatch runs through the file-based
            distributed work queue (requires ``cache_dir`` and
            ``spool_dir``; see :mod:`repro.experiments.queue_backend`),
            or the string ``"http"`` to serve runs over the network
            task-handoff service (requires ``cache_dir`` and ``serve``;
            see :mod:`repro.experiments.http_backend`).  ``None`` or
            ``1`` keeps the in-process serial path (unless a
            ``cache_dir`` is given); results are bit-identical in every
            mode because every run's seed depends only on
            ``(master seed, scenario label, run index)``.
        cache_dir:
            Optional on-disk run cache (see
            :class:`~repro.experiments.executor.RunCache`); re-running an
            unchanged campaign then performs zero simulation runs.
        spool_dir:
            Shared task spool of the ``"queue"`` mode, served by
            ``campaign-worker`` processes (ignored otherwise).
        queue_options:
            Extra ``"queue"``-mode knobs forwarded to
            :class:`~repro.experiments.queue_backend.QueueBackend`.
        serve:
            ``HOST:PORT`` the ``"http"`` mode binds its campaign service
            to, polled by ``campaign-worker --connect`` processes
            (ignored otherwise).
        http_options:
            Extra ``"http"``-mode knobs forwarded to
            :class:`~repro.experiments.http_backend.HttpBackend`.
        batch_size:
            Runs per dispatched task: ``1`` (default) keeps the classic
            one-task-per-run dispatch, larger values batch contiguous
            seed ranges into ``RunBatchTask`` units, and ``None`` sizes
            batches automatically from backend capacity.  Results are
            bit-identical for every value.
        speculation:
            Optional
            :class:`~repro.experiments.scheduler.SpeculationPolicy`
            enabling straggler re-dispatch in the executor-backed modes
            (first valid result wins; duplicates dedupe through the run
            cache, so results stay bit-identical).  Ignored on the plain
            serial path, where there is nothing to race.

        Returns
        -------
        ExperimentResult
            One :class:`~repro.experiments.results.ScenarioResult` per
            scenario, in input order.

        Raises
        ------
        ExperimentError
            On an empty scenario list, invalid ``parallel``/run bounds,
            missing companion arguments of a distributed mode, or any
            propagated run failure.
        """
        if not scenarios:
            raise ExperimentError("campaign needs at least one scenario")
        if isinstance(parallel, str) and parallel not in ("queue", "http"):
            raise ExperimentError(
                f"parallel must be an int, 'queue' or 'http', got {parallel!r}"
            )
        if parallel in ("queue", "http"):
            from repro.experiments.executor import CampaignExecutor  # local: avoid cycle

            executor = CampaignExecutor(
                self, backend=parallel, cache_dir=cache_dir,
                spool_dir=spool_dir, queue_options=queue_options,
                serve=serve, http_options=http_options,
                batch_size=batch_size, speculation=speculation,
            )
            result = executor.run_campaign(scenarios, min_runs=min_runs, max_runs=max_runs)
            self.last_executor_stats = executor.stats
            return result
        if parallel is not None and parallel < 1:
            raise ExperimentError(f"parallel must be >= 1, got {parallel}")
        if (parallel is not None and parallel > 1) or cache_dir is not None:
            from repro.experiments.executor import CampaignExecutor  # local: avoid cycle

            executor = CampaignExecutor(
                self, jobs=parallel or 1, cache_dir=cache_dir,
                batch_size=batch_size, speculation=speculation,
            )
            result = executor.run_campaign(scenarios, min_runs=min_runs, max_runs=max_runs)
            self.last_executor_stats = executor.stats
            return result
        return ExperimentResult(
            [self.run_scenario(s, min_runs=min_runs, max_runs=max_runs) for s in scenarios]
        )
