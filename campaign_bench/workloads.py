"""The benchmark's workloads: scenario sets and fixed campaign sizes.

Each workload is a campaign over a fixed list of Table IIa scenarios
(plus, for ``memload-serial``, the manager-driven CONSOLIDATION-CPU
ones) with a fixed number of runs per scenario.  The program receives
only that scenario list and the master seed; everything else is the
CLI's defaults, apart from the spool workers' poll interval.  NOTES.md
says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "WORKER_POLL_S", "scenarios_for"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``runs`` is the fixed run count per scenario (the campaign's
    ``min_runs == max_runs``, so the variance loop never tops up);
    ``backend`` is ``"serial"`` or ``"queue"`` (two spool workers);
    ``table7`` fits the four models and renders Table VII.
    """

    name: str
    families: tuple[str, ...]
    runs: int
    backend: str = "serial"
    table7: bool = False
    expected_scenarios: int = 0


#: Spool-worker idle poll interval of ``table7-2w``, part of the workload.
#: At the CLI's 0.5 s default the workers' idle backoff between waves
#: sleeps through a quarter of the campaign (NOTES.md, "Workloads").
WORKER_POLL_S = 0.05

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "memload-serial",
            ("memload-vm", "memload-source", "memload-target", "consolidation-cpu"),
            runs=4,
            expected_scenarios=22,
        ),
        Workload(
            "table7-2w",
            ("table-iia",),
            runs=2,
            backend="queue",
            table7=True,
            expected_scenarios=42,
        ),
    )
}


def scenarios_for(workload: Workload, family: str = "m") -> list:
    """The workload's scenarios, in campaign order (imports ``repro``)."""
    from repro.experiments import design

    builders = {
        "memload-vm": design.memload_vm_scenarios,
        "memload-source": design.memload_source_scenarios,
        "memload-target": design.memload_target_scenarios,
        "table-iia": design.all_scenarios,
    }
    scenarios = []
    for name in workload.families:
        if name == "consolidation-cpu":
            scenarios.extend(
                s
                for s in design.consolidation_scenarios(family)
                if s.experiment == "CONSOLIDATION-CPU"
            )
        else:
            scenarios.extend(builders[name](family))
    return scenarios
