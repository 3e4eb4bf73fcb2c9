"""Spans and counters around calls into the program's modules.

The program calls its public functions through module globals
(``engine.run_simulation``, ``transit.calibrate``, ...), so replacing a
module attribute with a wrapper puts a span around every call without
touching the program. ``runner`` and ``synthcity`` import some names
directly, so those are wrapped on the importing module as well.

A span is ``[name, start, end, parent index]``. Spans stay in memory and
are written out when the run ends. A span's self time is its duration minus
the time its child spans cover; the self times of one round's tree add up to
the round's duration.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from epitransit import engine, metrics, mobility, runner, synthcity, transit


# Observers see the tracer, the call's positional arguments and its result.

def _observe_run(tracer, args, series):
    matrix, params = args[0], args[1]
    days = len(series) - 1
    tracer.counts["engine.days"] += days
    tracer.counts["engine.location_days"] += matrix.n * days
    if days >= params.horizon and series.total_I[-1] >= params.extinction_threshold:
        tracer.counts["engine.horizon_truncated"] += 1


def _observe_calibrate(tracer, args, model):
    tracer.cells.add((model.k, model.theta, model.mu))


def _observe_thin(tracer, args, sub):
    tracer.counts["transit.thin_entries"] += int(np.count_nonzero(args[0].m))


def _observe_load_trips(tracer, args, loaded):
    tracer.counts["mobility.trip_rows"] += len(loaded[1])


def _observe_sweep(tracer, args, result):
    tracer.counts["runner.ledger_entries"] += len(result.ledger)


# (owner, attribute, span name, observer). Order matters only for reading.
TARGETS = (
    (runner, "run_sweep", "runner.run_sweep", _observe_sweep),
    (runner, "base_matrix", "runner.base_matrix", None),
    (runner, "export_results", "runner.export_results", None),
    (runner.SweepResult, "save_json", "runner.save_json", None),
    (runner, "generate_synthetic_city", "synthcity.generate_synthetic_city", None),
    (synthcity, "derive_populations", "mobility.derive_populations", None),
    (mobility, "derive_populations", "mobility.derive_populations", None),
    (mobility, "load_trips", "mobility.load_trips", _observe_load_trips),
    (mobility, "build_contact_matrix", "mobility.build_contact_matrix", None),
    (engine, "run_simulation", "engine.run_simulation", _observe_run),
    (engine, "advance_day", "engine.advance_day", None),
    (engine, "sir_step", "engine.sir_step", None),
    (engine, "introduce", "engine.introduce", None),
    (engine, "hazard_vector", "engine.hazard_vector", None),
    (transit, "calibrate", "transit.calibrate", _observe_calibrate),
    (transit, "sample_transit_matrix", "transit.sample_transit_matrix", _observe_thin),
    (transit, "distance_histogram", "transit.distance_histogram", None),
    (metrics, "compare", "metrics.compare", None),
    (metrics, "situational_awareness", "metrics.situational_awareness", None),
)

# Wrapped in untraced rounds too, for the location-days count and the count
# of comparisons that raise: one call per simulation or comparison, so the
# cost is negligible (under 0.1 % of a round).
COUNTED = ("engine.run_simulation", "metrics.compare")


class Tracer:
    """Installs wrappers that record spans: around every target with ``full``,
    otherwise around the COUNTED calls only.

    ``counts`` holds ``<span name>.calls`` and ``<span name>.raised`` for
    every wrapped function, plus what the observers add; ``cells`` holds the
    distinct (k, theta, mu) calibrated.
    """

    def __init__(self, full: bool):
        self.full = full
        self.spans: list = []
        self.counts: Counter = Counter()
        self.cells: set = set()
        self._stack = [-1]
        self._saved = []

    def install(self) -> None:
        for owner, attr, name, observe in TARGETS:
            if not self.full and name not in COUNTED:
                continue
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.cells = set()

    def _wrap(self, name, fn, observe):
        stack = self._stack
        perf_counter = time.perf_counter
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            spans = self.spans
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1]])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    @contextmanager
    def span(self, name):
        """A span from the benchmark's own code."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


# Self time is rolled up by layer; set-up covers synthcity and mobility.
LAYER_OF = {"synthcity": "setup", "mobility": "setup"}
LAYERS = ("engine", "transit", "metrics", "runner", "setup", "bench")


def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced round.

    The tracer holds that round's spans, including one ``bench.round`` root.
    """
    spans, counts = tracer.spans, tracer.counts
    roots = [i for i, s in enumerate(spans) if s[0] == "bench.round"]
    if len(roots) != 1:
        raise ValueError(f"expected one bench.round span, found {len(roots)}")
    root = roots[0]
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    in_round = []
    for (name, start, end, parent), mine in zip(spans, self_times(spans)):
        inclusive[name] += end - start
        self_time[name] += mine
        in_round.append(name == "bench.round" or (parent >= 0 and in_round[parent]))
        if in_round[-1]:
            group = name.split(".", 1)[0]
            layer_self[LAYER_OF.get(group, group)] += mine
    # time in the mobility layer, counted once where its calls nest
    ingest = sum(
        end - start
        for name, start, end, parent in spans
        if name.startswith("mobility.") and not (parent >= 0 and spans[parent][0].startswith("mobility."))
    )
    wall = spans[root][2] - spans[root][1]
    days = counts["engine.days"]
    run_s = inclusive["engine.run_simulation"]
    cells = len(tracer.cells)
    out = {
        "engine.run_s": run_s,
        "engine.runs": counts["engine.run_simulation.calls"],
        "engine.days": days,
        "engine.location_days": counts["engine.location_days"],
        "engine.us_per_day": 1e6 * run_s / days if days else 0.0,
        "engine.run_self_s": self_time["engine.run_simulation"],
        "engine.sir_step_s": inclusive["engine.sir_step"],
        "engine.introduce_self_s": self_time["engine.introduce"],
        "engine.hazard_s": inclusive["engine.hazard_vector"],
        "engine.horizon_truncated": counts["engine.horizon_truncated"],
        "transit.calibrate_s": inclusive["transit.calibrate"],
        "transit.calibrate_calls": counts["transit.calibrate.calls"],
        "transit.calibrate_per_cell": counts["transit.calibrate.calls"] / cells if cells else 0.0,
        "transit.thin_s": inclusive["transit.sample_transit_matrix"],
        "transit.thin_calls": counts["transit.sample_transit_matrix.calls"],
        "transit.thin_entries": counts["transit.thin_entries"],
        "transit.histogram_s": inclusive["transit.distance_histogram"],
        "mobility.ingest_s": ingest,
        "mobility.trip_rows": counts["mobility.trip_rows"],
        "synthcity.generate_s": inclusive["synthcity.generate_synthetic_city"],
        "metrics.compare_s": inclusive["metrics.compare"],
        "metrics.compare_calls": counts["metrics.compare.calls"],
        "metrics.sa_s": inclusive["metrics.situational_awareness"],
        "metrics.censored": counts["metrics.compare.raised"],
        "runner.sweep_self_s": self_time["runner.run_sweep"],
        "runner.save_json_s": inclusive["runner.save_json"],
        "runner.export_s": inclusive["runner.export_results"],
        "runner.ledger_entries": counts["runner.ledger_entries"],
        "trace.wall_s": wall,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out


def median_metrics(per_round: list) -> dict:
    """The lower median over rounds of each figure, so every figure is one
    round's measurement; counts repeat exactly round to round."""
    return {key: statistics.median_low(r[key] for r in per_round) for key in per_round[0]}
