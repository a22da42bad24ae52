"""Summaries that compare two RNG stream versions of the simulation.

A stream break (a change to which random draws a run makes) changes the
bytes of every affected run but must not change the physics.  This tool
summarises the checked-out code in the two places the paper's claims
rest on, so that a summary written before a break can be compared with
the code after it:

* ``memload``: for each of the 18 MEMLOAD scenarios (m-pair, seed 7,
  4 runs), the mean and 95 % Student-t confidence interval of the live
  source and target transfer-phase energy;
* ``table7``: the four WAVM3 NRMSE cells of Table VII at the
  ``benchmarks/`` settings (seed 7, 3 runs, training fraction 0.25).

Usage::

    PYTHONPATH=src python tools/stream_fixture.py OUT.json --stream v2

``tests/data/stream_v2_memload.json`` was written this way from the last
commit on stream v2; ``tests/test_stream_versions.py`` compares the
current code with it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

MEMLOAD_SEED = 7
MEMLOAD_RUNS = 4
TABLE7_SEED = 7
TABLE7_RUNS = 3
TABLE7_TRAINING_FRACTION = 0.25

#: Two-sided 95 % Student-t quantile at MEMLOAD_RUNS - 1 = 3 degrees of
#: freedom.
T975_DF3 = 3.182446305


def confidence_interval(values) -> dict:
    """Mean and 95 % Student-t interval of MEMLOAD_RUNS values."""
    n = len(values)
    assert n == MEMLOAD_RUNS
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    half = T975_DF3 * math.sqrt(var / n)
    return {"mean": mean, "lo": mean - half, "hi": mean + half}


def memload_summary() -> dict:
    """Per-scenario transfer-energy intervals of the MEMLOAD families."""
    from repro.experiments import design
    from repro.experiments.runner import ScenarioRunner
    from repro.models.features import HostRole
    from repro.phases.timeline import MigrationPhase

    scenarios = (
        design.memload_vm_scenarios("m")
        + design.memload_source_scenarios("m")
        + design.memload_target_scenarios("m")
    )
    campaign = ScenarioRunner(seed=MEMLOAD_SEED).run_campaign(
        scenarios, min_runs=MEMLOAD_RUNS, max_runs=MEMLOAD_RUNS
    )
    summary = {}
    for sr in campaign.scenario_results:
        summary[sr.scenario.label] = {
            role.value: confidence_interval(
                [r.phase_energy_j(role, MigrationPhase.TRANSFER) for r in sr.runs]
            )
            for role in (HostRole.SOURCE, HostRole.TARGET)
        }
    return summary


def table7_cells() -> dict:
    """WAVM3's Table VII NRMSE cells (percent) by ``kind/role``."""
    from repro.analysis.comparison import compare_models
    from repro.experiments.design import all_scenarios
    from repro.experiments.runner import ScenarioRunner

    campaign = ScenarioRunner(seed=TABLE7_SEED).run_campaign(
        all_scenarios("m"), min_runs=TABLE7_RUNS, max_runs=TABLE7_RUNS
    )
    result = compare_models(
        result=campaign, seed=TABLE7_SEED, training_fraction=TABLE7_TRAINING_FRACTION
    )
    return {
        f"{kind}/{role}": result.nrmse_percent("WAVM3", kind, role)
        for kind in ("non-live", "live")
        for role in ("source", "target")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument(
        "--stream", required=True, help="stream version of the checked-out code"
    )
    args = parser.parse_args(argv)
    payload = {
        "stream": args.stream,
        "memload": {
            "seed": MEMLOAD_SEED,
            "runs": MEMLOAD_RUNS,
            "transfer_energy_j": memload_summary(),
        },
        "table7": {
            "seed": TABLE7_SEED,
            "runs": TABLE7_RUNS,
            "training_fraction": TABLE7_TRAINING_FRACTION,
            "wavm3_nrmse_pct": table7_cells(),
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
