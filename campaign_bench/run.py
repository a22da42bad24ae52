"""Campaign benchmark: paper workloads, measured from outside.

Usage (from the root of a checkout)::

    python3 campaign_bench/run.py --workload memload-serial --seed 1 \\
        --seconds 20 --trace 0

Each repetition is a fresh ``coordinator.py`` interpreter (see its
docstring): this script times process start to ``READY`` as ``setup_s``,
the coordinator times the campaign itself and checks every run's
outputs.  Repetitions run until ``--seconds`` have passed (at least
three untraced ones); every metric is the median over repetitions of
that repetition's value (for ``run_ms_*``, a quantile of its per-run
walls).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time on untraced and half on traced repetitions and prints the
per-layer metrics, including the tracing overhead (traced over untraced
``campaign_s``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
the program's sources (``src/repro``) it exits with code 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracing import quantile  # noqa: E402

#: Wall-clock ceiling of one run, kept under the 180 s a run may take.
HARD_LIMIT_S = 170.0
#: Untraced repetitions every run makes, whatever ``--seconds`` says.
MIN_REPS = 3


def calibration_ms(loops: int = 5) -> float:
    """Median wall of a fixed pure-Python loop: how busy/fast the host is."""
    walls = []
    for _ in range(loops):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        walls.append(time.perf_counter() - started)
    return statistics.median(walls) * 1000.0


def repetition(argv: list[str], deadline: float) -> dict:
    """Run one coordinator to completion; its report, or ``{"error": ...}``."""
    started = time.monotonic()
    # A session of its own, so that a timeout kills the coordinator's
    # workers along with it.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "coordinator.py"), *argv],
        stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": "repetition timed out"}
    lines = out.decode("utf-8", "replace").splitlines()
    ready = [line for line in lines if line.startswith("READY ")]
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return {"error": f"coordinator exited with code {proc.returncode}"}
    report = json.loads(lines[-1])
    if ready:
        report["setup_s"] = float(ready[0].split()[1]) - started
    return report


def _parse(argv):
    parser = argparse.ArgumentParser(description="WAVM3 campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--runs", type=int, default=None,
        help="override the workload's runs per scenario (tests only)",
    )
    parser.add_argument(
        "--min-reps", type=int, default=MIN_REPS,
        help="untraced repetitions a --trace 0 run makes at least (tests use 1)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"campaign_bench: no program sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    workload = workloads.WORKLOADS[args.workload]
    runs = args.runs or workload.runs
    calib_ms = calibration_ms()
    loadavg = os.getloadavg()[0]
    print(
        f"campaign_bench {args.workload} seed={args.seed}: calibration loop "
        f"{calib_ms:.2f} ms, load average {loadavg:.2f}",
        file=sys.stderr,
    )
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    base = ["--workload", args.workload, "--seed", str(args.seed), "--runs", str(runs)]
    reports: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []
    try:
        measure_start = time.monotonic()
        untraced_until = measure_start + (args.seconds / 2 if args.trace else args.seconds)
        rep = 0

        def one(trace: int) -> bool:
            nonlocal rep
            rep += 1
            rep_started = time.monotonic()
            report = repetition(
                base + ["--work-dir", str(work / f"rep-{rep}"), "--trace", str(trace)],
                deadline,
            )
            if "error" in report:
                errors.append(report["error"])
                return False
            (traced if trace else reports).append(report)
            shutil.rmtree(work / f"rep-{rep}", ignore_errors=True)
            rep_walls.append(time.monotonic() - rep_started)
            return True

        def more(until: float) -> bool:
            """Another repetition ends closer to ``until`` than stopping now."""
            return time.monotonic() + statistics.median(rep_walls) / 2 < until

        rep_walls: list[float] = []
        # A traced run needs one untraced repetition for the overhead ratio.
        min_reps = 1 if args.trace else args.min_reps
        while (len(reports) < min_reps or more(untraced_until)) and one(0):
            pass
        if args.trace:
            until = measure_start + args.seconds
            while (not traced or more(until)) and one(1):
                pass
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work dir is still there

    if not reports or (args.trace and not traced):
        print(f"campaign_bench: no repetition completed: {errors}", file=sys.stderr)
        return 1
    everything = reports + traced
    attempted = sum(r["attempted"] for r in everything) + len(errors) * (
        workload.expected_scenarios * runs
    )
    failed = sum(r["failed"] for r in everything) + len(errors) * (
        workload.expected_scenarios * runs
    )
    problems = [p for r in everything for p in r["problems"]] + errors
    shas = {r["samples_sha"] for r in everything}
    if len(shas) > 1:
        problems.append(f"samples differ between repetitions of one seed: {sorted(shas)}")
        failed = attempted
    for line in problems[:20]:
        print(f"campaign_bench: CHECK FAILED {line}", file=sys.stderr)

    def med(key: str, rows: list[dict] = reports) -> float:
        return statistics.median(r[key] for r in rows)

    campaign_s = med("campaign_s")
    if args.trace:
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        for name in ("migration.jobs", "migration.rounds", "migration.gib",
                     "telemetry.samples"):
            values[name] = med(name, traced)
        values.update({
            "setup.import_s": med("import_s"),
            "setup.workers_ready_s": med("workers_ready_s"),
            "trace.campaign_s": med("campaign_s", traced),
            "trace.overhead_x": med("campaign_s", traced) / campaign_s,
            "host.calib_ms": calib_ms,
            "host.loadavg": loadavg,
        })
        catalogue = metrics.PER_LAYER
    else:
        values = {
            "setup_s": med("setup_s"),
            "campaign_s": campaign_s,
            "runs_per_s": statistics.median(r["runs"] / r["campaign_s"] for r in reports),
            "sim_s_per_s": statistics.median(r["sim_s"] / r["campaign_s"] for r in reports),
            "run_ms_p50": statistics.median(
                quantile(r["run_walls"], 0.5) * 1000.0 for r in reports
            ),
            "run_ms_p90": statistics.median(
                quantile(r["run_walls"], 0.9) * 1000.0 for r in reports
            ),
            "peak_rss_mb": med("peak_rss_mb"),
            "ok_frac": (attempted - failed) / attempted,
        }
        catalogue = metrics.END_TO_END
    print(
        f"campaign_bench {args.workload}: {len(reports)} untraced + {len(traced)} "
        f"traced repetitions, {attempted} runs attempted, {failed} failed; "
        f"campaign_s per repetition "
        + " ".join(f"{r['campaign_s']:.3f}" for r in everything)
        + ", setup_s "
        + " ".join(f"{r['setup_s']:.3f}" for r in everything),
        file=sys.stderr,
    )
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit, _ in catalogue
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
