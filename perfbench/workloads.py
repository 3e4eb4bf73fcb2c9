"""Workload definitions and one timed round of each.

A round is what a user of ``epitransit`` does for a set of sweeps on one
city: build the base contact matrix (generate a synthetic city, or ingest
trip CSVs), then run each paired sweep on it, save the result and export it.
The sweeps are split by band (and on ``sweep_n200`` by disease) so that each
timed step is short enough for the host-speed reference around it to follow
the host. Every input is derived from the benchmark seed, or from a fixed
seed for a sweep that must not follow it, so the same seed gives the same
round.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass

from epitransit import mobility, runner
from epitransit.synthcity import CityConfig


# Master seed of the sweep whose inputs do not follow --seed (see WORKLOADS).
FIXED_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # locations in the synthetic city
    diseases: tuple  # groups of names from runner.DISEASE_DEFAULTS, swept on the seeded city
    bands: tuple  # one sweep per (disease group, band), all on the same base matrix
    pairs: tuple  # (k, theta); each falls in exactly one band
    seed_draws: int
    replicates: int
    ingest: bool  # True: base matrix read from CSVs; False: generated in set-up
    reference: tuple  # (n, runs) of the host-speed reference, see hostspeed.py
    nominal_s: float  # the reference's time on the reference host
    fixed_diseases: tuple = ()  # groups swept on the city of FIXED_SEED, whatever --seed is

    def groups(self, seed: int, out_dir: str) -> list:
        """The sweeps of a round, grouped by the base matrix they share.

        Each group is one city with one scenario config per (disease group,
        band), each writing to its own output dir.
        """
        out = [self._sweeps(self.diseases, seed, os.path.join(out_dir, "sweep"))]
        if self.fixed_diseases:
            out.append(self._sweeps(self.fixed_diseases, FIXED_SEED, os.path.join(out_dir, "sweep_fixed")))
        return out

    def _sweeps(self, disease_groups, seed, out_dir) -> list:
        return [
            runner.ScenarioConfig(
                diseases=[runner.Disease(*d) for d in runner.DISEASE_DEFAULTS if d[0] in names],
                delta_bands=[band],
                pairs=[tuple(p) for p in self.pairs],
                seed_draws=self.seed_draws,
                replicates=self.replicates,
                master_seed=seed,
                city=CityConfig(n_locations=self.n),
                output_dir=f"{out_dir}_{'_'.join(names)}_{band}",
            )
            for names in disease_groups
            for band in self.bands
        ]


# Comparisons that raise NoAdmissibleLag are counted as failed, and the share
# of failed comparisons must not depend on the seed. hypothetical_high fails
# on most cities, but its series run 7-9 days against a 10-day minimum
# overlap, so it is swept on a city that does not follow --seed, where it
# fails every time. hypothetical_mediate fails on some seeds only and is
# left out.
WORKLOADS = {
    # per-call overhead: ~750 short runs on 200-element arrays, one sweep per (disease, band)
    "sweep_n200": Workload(
        name="sweep_n200",
        n=200,
        diseases=(("h1n1",), ("varicella",), ("hypothetical_low",)),
        bands=("low", "mediate", "high"),
        pairs=((2, 6), (5, 3), (2, 17), (6, 6), (2, 27), (7, 8)),
        seed_draws=3,
        replicates=7,
        ingest=False,
        reference=((200, 16),),
        nominal_s=0.08,
        fixed_diseases=(("hypothetical_high",),),
    ),
    # many cells, one run each: ingest, calibration and thinning dominate
    "cells_n1000": Workload(
        name="cells_n1000",
        n=1000,
        diseases=(("h1n1", "varicella", "hypothetical_low"),),
        bands=("low", "mediate", "high"),
        pairs=(
            (2, 6), (5, 3), (3, 4), (4, 4),
            (2, 17), (6, 6), (3, 11), (5, 7),
            (2, 27), (7, 8), (3, 18), (5, 11),
        ),
        seed_draws=1,
        replicates=1,
        ingest=True,
        # 1000-location runs only: 200-location ones swung about three times as far
        # as this workload's rounds from run to run (README.md, "Noise")
        reference=((1000, 5),),
        nominal_s=0.17,
    ),
}


@dataclass
class Inputs:
    """What the program is given before a round's timer starts."""

    source: mobility.ContactMatrix | None  # matrix the CSVs encode (ingest only)
    trips_csv: str | None
    locations_csv: str | None


def prepare_inputs(workload: Workload, config: runner.ScenarioConfig, work_dir: str) -> Inputs:
    """Write the trip and location CSVs of an ingest workload.

    The CSVs encode the synthetic city the scenario config describes, one
    row per nonzero OD entry, written here rather than by the program so
    that the ingest check compares the program against a separate writer.
    """
    if not workload.ingest:
        return Inputs(None, None, None)
    source = runner.base_matrix(config)
    table = source.table
    locations_csv = os.path.join(work_dir, "locations.csv")
    trips_csv = os.path.join(work_dir, "trips.csv")
    with open(locations_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "lat", "lon"])
        for i, loc_id in enumerate(table.ids):
            writer.writerow([loc_id, repr(float(table.lat[i])), repr(float(table.lon[i]))])
    with open(trips_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin", "destination", "hour", "count"])
        m = source.m
        for j in range(source.n):
            for k in m[j].nonzero()[0]:
                writer.writerow([table.ids[k], table.ids[j], 8, int(m[j, k])])
    return Inputs(source, trips_csv, locations_csv)


def set_up(workload: Workload, config: runner.ScenarioConfig, inputs: Inputs) -> mobility.ContactMatrix:
    """Build the base matrix the sweep uses."""
    if workload.ingest:
        table, trips = mobility.load_trips(inputs.trips_csv, inputs.locations_csv)
        return mobility.build_contact_matrix(table, trips)
    return runner.base_matrix(config)


@dataclass
class Sweep:
    """One sweep of a round and what it produced."""

    config: runner.ScenarioConfig
    inputs: Inputs
    matrix: mobility.ContactMatrix
    result: runner.SweepResult


@dataclass
class Round:
    setup_s: float
    sweep_s: float
    wall_s: float
    refs: list  # reference times before the first step and after each step
    sweeps: list


def run_round(workload: Workload, parts: list, tracer, reference=None) -> Round:
    """Set-up of each city, then sweep, save and export of each config, timed.

    ``parts`` holds (configs, inputs) per city. With a ``reference``, it is
    timed before the first step and after every step (a set-up, or one
    sweep with its save and export); its time is outside the round's.
    """
    setup_s = sweep_s = wall_s = 0.0
    refs = []
    sweeps = []

    def gauge():
        if reference is not None:
            refs.append(reference.time())

    with tracer.span("bench.round"):
        gauge()
        for configs, inputs in parts:
            t0 = time.perf_counter()
            with tracer.span("bench.setup"):
                matrix = set_up(workload, configs[0], inputs)
            t1 = time.perf_counter()
            setup_s += t1 - t0
            wall_s += t1 - t0
            gauge()
            for config in configs:
                t0 = time.perf_counter()
                result = runner.run_sweep(config, matrix)
                t1 = time.perf_counter()
                result.save_json(os.path.join(config.output_dir, "sweep_result.json"))
                runner.export_results(result, config.output_dir)
                t2 = time.perf_counter()
                sweep_s += t1 - t0
                wall_s += t2 - t0
                gauge()
                sweeps.append(Sweep(config, inputs, matrix, result))
    return Round(setup_s, sweep_s, wall_s, refs, sweeps)


def time_setup(workload: Workload, parts: list) -> float:
    """One extra set-up of every city, for the median of set-up times."""
    t0 = time.perf_counter()
    for configs, inputs in parts:
        set_up(workload, configs[0], inputs)
    return time.perf_counter() - t0
