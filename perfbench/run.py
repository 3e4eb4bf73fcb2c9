"""Benchmark of epitransit sweeps, end to end and layer by layer.

    python3 perfbench/run.py --workload sweep_n200 --seed 1 --seconds 45 --trace 0

Runs whole rounds of one workload (set-up, sweeps, saves, exports) for at
least ``--seconds`` seconds, checks the last round's outputs against
computations made apart from the program, and prints one JSON line:
``correct``, the comparisons ``attempted`` and ``failed``, and the end-to-end
metrics (``--trace 0``) or the per-layer metrics of a traced run
(``--trace 1``). End-to-end times are scaled to the reference host's speed
with a fixed reference computation timed around every step (hostspeed.py).
The program is imported from ``src/`` of the checkout this file sits in.
Pin BLAS threads (``OPENBLAS_NUM_THREADS=1`` and friends) in the command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "epitransit", "__init__.py")):
    sys.exit(f"perfbench: no epitransit sources at {SRC}")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_SETUPS = 5  # set-up time is the median of at least this many set-ups

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "runs_per_s": "1/s",
    "location_days_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.run_s": "s",
    "engine.runs": "count",
    "engine.days": "count",
    "engine.location_days": "count",
    "engine.us_per_day": "us",
    "engine.run_self_s": "s",
    "engine.sir_step_s": "s",
    "engine.introduce_self_s": "s",
    "engine.hazard_s": "s",
    "engine.horizon_truncated": "count",
    "transit.calibrate_s": "s",
    "transit.calibrate_calls": "count",
    "transit.calibrate_per_cell": "calls/cell",
    "transit.thin_s": "s",
    "transit.thin_calls": "count",
    "transit.thin_entries": "count",
    "transit.histogram_s": "s",
    "mobility.ingest_s": "s",
    "mobility.trip_rows": "count",
    "synthcity.generate_s": "s",
    "metrics.compare_s": "s",
    "metrics.compare_calls": "count",
    "metrics.sa_s": "s",
    "metrics.censored": "count",
    "runner.sweep_self_s": "s",
    "runner.save_json_s": "s",
    "runner.export_s": "s",
    "runner.bytes_written": "B",
    "runner.ledger_entries": "count",
    "engine.self_s": "s",
    "transit.self_s": "s",
    "metrics.self_s": "s",
    "runner.self_s": "s",
    "setup.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "host.raw_wall_s": "s",
    "host.reference_s": "s",
}


def _outputs_digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in ("ledger.jsonl", "cells.csv", "summary.json"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _bytes_written(sweep_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(sweep_dir, f)) for f in os.listdir(sweep_dir))


class _Run:
    """State of one benchmark run: rounds so far and what they produced."""

    def __init__(self, workload, seed, out_dir):
        self.workload = workload
        self.out_dir = out_dir  # inputs and spans; each sweep writes below it
        self.groups = workload.groups(seed, out_dir)
        self.configs = [config for group in self.groups for config in group]
        for config in self.configs:
            shutil.rmtree(config.output_dir, ignore_errors=True)
            os.makedirs(config.output_dir)
        self.reference = hostspeed.Reference(workload.reference, workload.nominal_s)
        self.parts = [(group, workloads.prepare_inputs(workload, group[0], out_dir)) for group in self.groups]
        self.problems = []
        self.digests = set()
        self.setups = []
        self.last = None
        self.counts = None

    def round(self, tracer, gauged=True):
        """One round; ``gauged`` times the host-speed reference around its steps."""
        self.last = None  # release the previous round's matrices first
        self.last = workloads.run_round(self.workload, self.parts, tracer, self.reference if gauged else None)
        if gauged:
            self.setups.append(self.last.setup_s)
        self.digests.add(tuple(_outputs_digest(c.output_dir) for c in self.configs))
        self.counts = tracer.counts
        calls = self.counts["engine.run_simulation.calls"]
        if calls != self.total_runs:
            self.problems.append(
                f"counted {calls} engine.run_simulation calls, the sweeps report {self.total_runs} runs"
            )
        return self.last

    def finish(self):
        """Extra set-ups, then the checks; returns (attempted, failed) per round."""
        while len(self.setups) < MIN_SETUPS:
            self.setups.append(workloads.time_setup(self.workload, self.parts))
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(self.digests) != 1:
            self.problems.append(f"rounds gave {len(self.digests)} different outputs for one seed")
        attempted = failed = 0
        for sweep in self.last.sweeps:
            found, n_failed = checks.check_all(sweep.config, sweep.matrix, sweep.result, sweep.inputs.source)
            self.problems += found
            attempted += len(checks.attempted_pairs(sweep.config, sweep.result))
            failed += n_failed
        checks.check_failures(self.problems, attempted, failed, self.counts)
        return attempted, failed

    @property
    def total_runs(self) -> int:
        return sum(s.result.total_runs for s in self.last.sweeps)


def run_workload(workload, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    """One benchmark run; returns the result object that run.py prints.

    Untraced rounds are gauged with the host-speed reference; their times
    are scaled to the reference host's speed (see hostspeed.py), and each
    end-to-end time is the mean over rounds, or the median for set-ups.
    """
    os.makedirs(out_dir, exist_ok=True)
    run = _Run(workload, seed, out_dir)
    counter = spans.Tracer(full=False)
    rounds, layer_rounds, traced_walls, laps = [], [], [], []
    start = time.perf_counter()
    # start another round only if one more of average length fits in `seconds`
    while not rounds or time.perf_counter() - start + statistics.fmean(laps) <= seconds:
        lap_start = time.perf_counter()
        counter.reset()
        with counter:
            rounds.append(run.round(counter))
        counts = counter.counts
        if trace:
            tracer = spans.Tracer(full=True)
            with tracer:
                r = run.round(tracer, gauged=False)
            figures = spans.layer_metrics(tracer)
            figures["runner.bytes_written"] = sum(_bytes_written(c.output_dir) for c in run.configs)
            layer_rounds.append(figures)
            traced_walls.append(r.wall_s)
        laps.append(time.perf_counter() - lap_start)
    if trace:
        tracer.write(os.path.join(out_dir, "spans.csv"))
    attempted, failed = run.finish()
    n_rounds = len(rounds) + len(traced_walls)
    refs = [t for r in rounds for t in r.refs]
    scale = run.reference.scale(refs)
    wall_s = statistics.fmean(r.wall_s for r in rounds)
    sweep_s = statistics.fmean(r.sweep_s for r in rounds) * scale
    if trace:
        values = spans.median_metrics(layer_rounds)
        values["trace.overhead_s"] = statistics.fmean(traced_walls) - wall_s
        values["host.raw_wall_s"] = wall_s
        values["host.reference_s"] = statistics.fmean(refs)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(run.setups) * scale,
            "wall_s": wall_s * scale,
            "runs_per_s": run.total_runs / sweep_s,
            "location_days_per_s": counts["engine.location_days"] / sweep_s,
            "peak_rss_mb": run.peak_rss_mb,
        }
        units = END_TO_END
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{workload.name} seed {seed}: {n_rounds} rounds, raw walls {[round(r.wall_s, 3) for r in rounds]}, "
        f"mean reference {statistics.fmean(refs):.4f} s (scale {scale:.4f}), raw setups {[round(s, 4) for s in run.setups]}, "
        f"{attempted} comparisons per round, {failed} failed",
        file=sys.stderr,
    )
    return {
        "correct": not run.problems,
        "attempted": attempted * n_rounds,
        "failed": failed * n_rounds,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the library logs a warning per censored comparison; keep the records
    # (users pay for them) but not the console output
    logging.getLogger().addHandler(logging.NullHandler())
    out_dir = os.path.join(HERE, "out", args.workload)
    result = run_workload(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), out_dir
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
