"""Scenario configuration, paired sweeps, aggregation, and exports.

A sweep pairs every full-mobility run with a run on a transit-thinned
copy of the matrix, for each disease and each (band, k, theta) cell.
It runs in two steps. ``plan_cells`` enumerates the cells and
calibrates each once; calibration does not depend on the
disease. Execution then runs every disease's baselines, and goes cell
by cell: each cell is thinned once, and every disease runs its transit
arm and comparisons on that one matrix, since thinning does not depend
on the disease either. Pairs share the seed location and the
introduction RNG stream so metric differences isolate the matrix effect.
``replay_run`` rebuilds any ledger entry with the same helpers, so
every run is reconstructible from its entry plus the scenario config.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import engine, metrics, transit
from .checks import is_int, is_real
from .mobility import ContactMatrix, load_matrix_npz
from .synthcity import CityConfig, generate_synthetic_city

log = logging.getLogger(__name__)

# Named settings: two documented outbreaks plus three hypothetical
# transmission levels. Further entries are free config additions.
DISEASE_DEFAULTS = (
    ("h1n1", 0.50, 1.0 / 3.0),
    ("varicella", 1.55, 0.2),
    ("hypothetical_low", 2.0, 1.0),
    ("hypothetical_mediate", 5.0, 1.0),
    ("hypothetical_high", 15.0, 1.0),
)

# RNG stream tags; children are derived as SeedSequence((master, tag, ...))
_TAG_SEED_LOC = 0
_TAG_INTRO = 1
_TAG_TRANSIT = 2
_TAG_CITY = 3


@dataclass(frozen=True)
class Disease:
    name: str
    beta: float
    gamma: float

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"disease name must be a string, got {self.name!r}")
        if not (is_real(self.beta) and self.beta > 0 and is_real(self.gamma) and 0.0 < self.gamma <= 1.0):
            raise ValueError(f"disease {self.name}: require beta > 0 and gamma in (0, 1]")

    @property
    def r0(self) -> float:
        return self.beta / self.gamma


@dataclass
class ScenarioConfig:
    """The settings of one sweep, checked in full on construction, before
    any city is generated or loaded. Each value takes its default from, and
    is checked by, the type that uses it: ``Disease`` (name, beta, gamma);
    ``engine.EpidemicParams``, built per disease (``horizon``,
    ``extinction_threshold``, ``hazard_variant``); ``DeltaBand.from_label``
    (``delta_bands``); ``GammaTripModel``, built for every explicit pair or
    else every pair ``band_pairs`` yields (``mu``, k, theta); ``CompareConfig``
    and ``CityConfig``. Checked here: the counts, ``master_seed``,
    ``max_pairs``, the list shapes, unique disease names (a replay and the
    exports find a disease by name), the city or matrix file, and ``seed_rule``
    (in ``engine.SEED_RULES`` or an integer; ``engine.seed_outbreak`` checks an
    index against the matrix). Ranges and pairs become tuples.
    """

    diseases: list = field(default_factory=lambda: [Disease(*d) for d in DISEASE_DEFAULTS])
    delta_bands: list = field(default_factory=lambda: ["low", "mediate", "high"])
    mu: float = transit.DEFAULT_MODE_SHARE
    k_range: tuple = transit.DEFAULT_K_RANGE
    theta_range: tuple = transit.DEFAULT_THETA_RANGE
    pairs: list | None = None  # explicit (k, theta) list overriding enumeration
    max_pairs: int | None = None  # desk-scale cap on pairs per band
    seed_draws: int = 100
    replicates: int = 30
    seed_rule: str = "proportional"
    master_seed: int = 1
    horizon: int = engine.EpidemicParams.horizon
    extinction_threshold: float = engine.EpidemicParams.extinction_threshold
    hazard_variant: str = engine.EpidemicParams.hazard_variant
    compare: metrics.CompareConfig = field(default_factory=metrics.CompareConfig)
    city: CityConfig | None = field(default_factory=CityConfig)
    matrix_npz: str | None = None
    output_dir: str = "out"

    def __post_init__(self):
        for name, low in (("seed_draws", 1), ("replicates", 1), ("master_seed", 0)):
            if not (is_int(getattr(self, name)) and getattr(self, name) >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {getattr(self, name)!r}")
        if self.max_pairs is not None and not (is_int(self.max_pairs) and self.max_pairs >= 0):
            raise ValueError(f"max_pairs must be null or an integer >= 0, got {self.max_pairs!r}")
        if self.seed_rule not in engine.SEED_RULES and not is_int(self.seed_rule):
            raise ValueError(f"seed_rule must be one of {engine.SEED_RULES} or an integer, got {self.seed_rule!r}")
        self.diseases = _as_list(self.diseases, "diseases")
        self.delta_bands = _as_list(self.delta_bands, "delta_bands")
        for name in ("k_range", "theta_range"):
            setattr(self, name, tuple(_as_list(getattr(self, name), name, 2)))
            if not all(is_int(v) for v in getattr(self, name)):
                raise ValueError(f"{name} must hold integers, got {getattr(self, name)!r}")
        if self.pairs is not None:
            self.pairs = [tuple(_as_list(p, "each pair", 2)) for p in _as_list(self.pairs, "pairs")]
        for name in ("matrix_npz", "output_dir"):
            if getattr(self, name) is not None and not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        if self.city is None and self.matrix_npz is None:
            raise ValueError("either a synthetic city spec or a matrix file is required")
        if not self.diseases:
            raise ValueError("at least one disease required")
        for d in self.diseases:
            _params(self, d)
        names = [d.name for d in self.diseases]
        dupes = sorted({name for name in names if names.count(name) > 1})
        if dupes:
            raise ValueError(f"duplicate disease name(s): {', '.join(dupes)}")
        bands = [transit.DeltaBand.from_label(label) for label in self.delta_bands]
        pairs = self.pairs if self.pairs is not None else [p for b in bands for p in band_pairs(self, b)]
        for k, theta in pairs:
            transit.GammaTripModel(k, theta, self.mu)

    def to_json_dict(self) -> dict:
        # through JSON text, so that every tuple comes back as a list
        return json.loads(json.dumps(asdict(self)))

    @classmethod
    def from_json_dict(cls, d: dict) -> "ScenarioConfig":
        kwargs = _known_keys(cls, d, "config")
        if isinstance(kwargs.get("diseases"), list):
            kwargs["diseases"] = [Disease(**_known_keys(Disease, x, "disease")) for x in kwargs["diseases"]]
        if "compare" in kwargs:
            cmp_kwargs = _known_keys(metrics.CompareConfig, kwargs["compare"], "compare")
            kwargs["compare"] = metrics.CompareConfig(**cmp_kwargs)
        if kwargs.get("city") is not None:
            kwargs["city"] = CityConfig(**_known_keys(CityConfig, kwargs["city"], "city"))
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path) -> "ScenarioConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def _as_list(value, name: str, length: int | None = None) -> list:
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        raise ValueError(f"{name} must be a list{f' of {length} values' if length else ''}, got {value!r}")
    return list(value)


def _known_keys(cls, d: dict, where: str) -> dict:
    """A copy of d, after checking that every key is a field of cls and
    that every field without a default is given."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    missing = [
        f.name for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING and f.name not in d
    ]
    if missing:
        raise ValueError(f"missing {where} key(s): {', '.join(missing)}")
    return dict(d)


def _seed_seq(master: int, tag: int, *rest) -> np.random.SeedSequence:
    return np.random.SeedSequence((master, tag) + tuple(int(r) for r in rest))


def base_matrix(config: ScenarioConfig) -> ContactMatrix:
    """The full-mobility matrix for a scenario: loaded or generated."""
    if config.matrix_npz is not None:
        return load_matrix_npz(config.matrix_npz)
    _, matrix = generate_synthetic_city(config.city, _seed_seq(config.master_seed, _TAG_CITY))
    return matrix


def band_pairs(config: ScenarioConfig, band: transit.DeltaBand) -> list:
    if config.pairs is not None:
        pairs = [p for p in config.pairs if band.contains(p[0] * p[1])]
    else:
        pairs = transit.enumerate_param_pairs(band, config.k_range, config.theta_range)
    if config.max_pairs is not None:
        pairs = pairs[: config.max_pairs]
    return pairs


# Per-cell scalars, in cells.csv column order.
_CELL_COLUMNS = ("disease", "beta", "gamma", "r0", "band", "k", "theta", "lambda")
_CELL_KEYS = _CELL_COLUMNS + ("aggregates", "failed_comparisons")


@dataclass
class SweepResult:
    """All aggregates, the per-run ledger, and plot-ready extras."""

    config: dict
    cells: list
    ledger: list
    infeasible_cells: list
    total_runs: int
    histograms: dict
    example_curves: dict

    def to_json_dict(self) -> dict:
        # shallow on purpose: asdict would deep-copy the whole ledger
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SweepResult":
        kwargs = _known_keys(cls, d, "sweep result")
        for cell in kwargs["cells"]:
            missing = [key for key in _CELL_KEYS if key not in cell]
            if missing:
                raise ValueError(f"sweep result cell lacks key(s): {', '.join(missing)}")
        return cls(**kwargs)

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load_json(cls, path) -> "SweepResult":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def _hist_dict(h: transit.DistanceHistogram) -> dict:
    return {
        "bin_edges": [float(v) for v in h.bin_edges],
        "masses": [float(v) for v in h.masses],
        "p95_km": h.p95_km,
    }


def _aggregate(values: list) -> dict:
    """Mean and population sd over the uncensored values of one statistic."""
    clean = [v for v in values if v is not None]
    out = {
        "n": len(clean),
        "censored": len(values) - len(clean),
        "mean": float(np.mean(clean)) if clean else None,
        "sd": float(np.std(clean)) if clean else None,
    }
    return out


def _cell_aggregates(reports: list, thresholds) -> dict:
    agg = {
        "early_warning": _aggregate([r.early_warning for r in reports]),
        "peak_timing": _aggregate([r.peak_timing for r in reports]),
        "peak_magnitude": _aggregate([r.peak_magnitude for r in reports]),
        "situational_awareness": _aggregate([r.situational_awareness for r in reports]),
    }
    for thr in thresholds:
        agg[f"locations_timing_{int(round(thr * 100))}"] = _aggregate(
            [r.locations_timing.get(float(thr)) for r in reports]
        )
    return agg


@dataclass(frozen=True)
class PlannedCell:
    """One calibrated (band, k, theta) cell of a sweep.

    ``pair_index`` is the pair's position in ``band_pairs`` for its band;
    a band's histogram is taken from its first pair only.
    """

    band_index: int
    band: str
    pair_index: int
    k: int
    theta: int
    model: transit.GammaTripModel


def plan_cells(config: ScenarioConfig, matrix: ContactMatrix) -> tuple[list, list]:
    """Calibrate every (band, k, theta) cell once.

    Returns the feasible cells as ``PlannedCell``s and one infeasible
    entry per cell whose mode share is unreachable, both in band then
    pair order. No cell depends on the disease.
    """
    bands = [transit.DeltaBand.from_label(label) for label in config.delta_bands]
    cells, infeasible = [], []
    for band_index, band in enumerate(bands):
        pairs = band_pairs(config, band)
        if not pairs:
            log.warning("no (k, theta) pairs with mean in band %s", band.label)
        for pair_index, (k, theta) in enumerate(pairs):
            try:
                model = _calibrated_model(config, matrix, k, theta)
            except transit.InfeasibleModeShare as exc:
                log.warning("cell (%s, k=%d, theta=%d) infeasible: %s", band.label, k, theta, exc)
                infeasible.append(
                    {"band": band.label, "k": k, "theta": theta, "achievable": exc.achievable}
                )
                continue
            cells.append(PlannedCell(band_index, band.label, pair_index, k, theta, model))
    return cells, infeasible


def _calibrated_model(config: ScenarioConfig, matrix: ContactMatrix, k, theta) -> transit.GammaTripModel:
    return transit.calibrate(transit.GammaTripModel(k=k, theta=theta, mu=config.mu), matrix)


def _thin(config: ScenarioConfig, matrix: ContactMatrix, band_index: int, model) -> ContactMatrix:
    """The transit matrix of a cell; its seed does not depend on the disease."""
    seed = _seed_seq(config.master_seed, _TAG_TRANSIT, band_index, model.k, model.theta)
    return transit.sample_transit_matrix(matrix, model, seed)


def _params(config: ScenarioConfig, disease: Disease) -> engine.EpidemicParams:
    return engine.EpidemicParams(
        beta=disease.beta,
        gamma=disease.gamma,
        horizon=config.horizon,
        extinction_threshold=config.extinction_threshold,
        hazard_variant=config.hazard_variant,
    )


def _run(config: ScenarioConfig, matrix: ContactMatrix, params, seed_location: int, s: int, r: int):
    """Replicate r of seed draw s; both arms of a pair share its stream."""
    return engine.run_simulation(
        matrix, params, seed_location, _seed_seq(config.master_seed, _TAG_INTRO, s, r)
    )


def run_sweep(config: ScenarioConfig, matrix: ContactMatrix | None = None) -> SweepResult:
    """Plan the cells, run the baselines, then run every cell once.

    ``plan_cells`` calibrates each (band, k, theta) once. Per disease,
    the full-mobility baseline is run once per (seed draw, replicate)
    and reused across every cell, mirroring the 1 + n_pairs run
    structure. Each cell is then thinned once, and every disease runs
    its transit arm on that one matrix and compares each pair. Disease
    d, cell c, seed draw s and replicate r take ``run_index``
    ((d C + c) D + s) R + r, for C feasible cells, D draws and R
    replicates, and cells, ledger and example curves are listed disease
    by disease, so the result does not depend on the execution order. A
    pair whose comparison raises ``NoAdmissibleLag`` stays out of the
    ledger and the aggregates, is counted in its cell's
    ``failed_comparisons`` and still takes its ``run_index``. The
    matrix's ``entries``, if the sweep computes them, last as long as
    the sweep.
    """
    if matrix is None:
        matrix = base_matrix(config)
    with matrix.entries_scope():
        return _sweep(config, matrix)


def _sweep(config: ScenarioConfig, matrix: ContactMatrix) -> SweepResult:
    planned, infeasible = plan_cells(config, matrix)
    seed_locs = [
        engine.seed_outbreak(
            matrix, config.seed_rule, np.random.default_rng(_seed_seq(config.master_seed, _TAG_SEED_LOC, s))
        )
        for s in range(config.seed_draws)
    ]
    pairs = [(s, r) for s in range(config.seed_draws) for r in range(config.replicates)]
    params = [_params(config, disease) for disease in config.diseases]
    baselines = [[_run(config, matrix, p, seed_locs[s], s, r) for s, r in pairs] for p in params]
    total_runs = len(params) * len(pairs)

    # per disease, in cell order
    cells = [[] for _ in config.diseases]
    ledgers = [[] for _ in config.diseases]
    curves = [None] * len(config.diseases)
    histograms = {"full": _hist_dict(transit.distance_histogram(matrix))}

    for c, cell in enumerate(planned):
        sub = _thin(config, matrix, cell.band_index, cell.model)
        if cell.pair_index == 0:
            histograms[f"{cell.band}:k{cell.k}:t{cell.theta}"] = _hist_dict(transit.distance_histogram(sub))

        for d, disease in enumerate(config.diseases):
            reports = []
            failed = 0
            for (s, r), mpt in zip(pairs, baselines[d]):
                run_index = ((d * len(planned) + c) * config.seed_draws + s) * config.replicates + r
                ptt = _run(config, sub, params[d], seed_locs[s], s, r)
                total_runs += 1
                try:
                    report = metrics.compare(ptt, mpt, config.compare)
                except metrics.NoAdmissibleLag:
                    log.warning("run %d: series too short to compare; censored", run_index)
                    failed += 1
                    continue
                reports.append(report)
                ledgers[d].append(
                    {
                        "run_index": run_index,
                        "disease": disease.name,
                        "beta": disease.beta,
                        "gamma": disease.gamma,
                        "band": cell.band,
                        "band_index": cell.band_index,
                        "k": cell.k,
                        "theta": cell.theta,
                        "lambda": cell.model.lam,
                        "seed_draw": s,
                        "replicate": r,
                        "seed_location_index": seed_locs[s],
                        "seed_location": matrix.table.ids[seed_locs[s]],
                        "report": report.to_json_dict(),
                    }
                )
                if curves[d] is None:
                    curves[d] = {
                        "band": cell.band,
                        "k": cell.k,
                        "theta": cell.theta,
                        "seed_draw": s,
                        "replicate": r,
                        "ptt_prevalence": [float(v) for v in ptt.prevalence],
                        "mpt_prevalence": [float(v) for v in mpt.prevalence],
                    }
            cells[d].append(
                {
                    "disease": disease.name,
                    "beta": disease.beta,
                    "gamma": disease.gamma,
                    "r0": disease.r0,
                    "band": cell.band,
                    "k": cell.k,
                    "theta": cell.theta,
                    "lambda": cell.model.lam,
                    "aggregates": _cell_aggregates(reports, config.compare.thresholds),
                    "failed_comparisons": failed,
                }
            )
        del sub  # release this cell's matrix before the next is thinned

    return SweepResult(
        config=config.to_json_dict(),
        cells=[row for rows in cells for row in rows],
        ledger=[entry for entries in ledgers for entry in entries],
        infeasible_cells=infeasible,
        total_runs=total_runs,
        histograms=histograms,
        example_curves={
            disease.name: curve for disease, curve in zip(config.diseases, curves) if curve is not None
        },
    )


def replay_run(config: ScenarioConfig, entry: dict, matrix: ContactMatrix | None = None) -> metrics.ComparisonReport:
    """Reproduce one ledger entry's comparison bit-exactly, through the
    sweep's own calibration, thinning and run helpers."""
    if matrix is None:
        matrix = base_matrix(config)
    disease = next(d for d in config.diseases if d.name == entry["disease"])
    params = _params(config, disease)
    model = _calibrated_model(config, matrix, entry["k"], entry["theta"])
    sub = _thin(config, matrix, entry["band_index"], model)
    s, r, loc = entry["seed_draw"], entry["replicate"], entry["seed_location_index"]
    return metrics.compare(
        _run(config, sub, params, loc, s, r), _run(config, matrix, params, loc, s, r), config.compare
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export_results(result: SweepResult, out_dir) -> list:
    """Write the sweep's exports; returns the written paths.

    Everything is plain sorted text, so identical results export to
    byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    thresholds = result.config["compare"]["thresholds"]
    stat_names = ["early_warning", "peak_timing", "peak_magnitude", "situational_awareness"] + [
        f"locations_timing_{int(round(t * 100))}" for t in thresholds
    ]
    path = os.path.join(out_dir, "cells.csv")
    with open(path, "w", encoding="utf-8") as fh:
        cols = list(_CELL_COLUMNS)
        for name in stat_names:
            cols += [f"{name}_mean", f"{name}_sd", f"{name}_n", f"{name}_censored"]
        cols.append("failed_comparisons")
        fh.write(",".join(cols) + "\n")
        for cell in result.cells:
            row = [_fmt(cell[c]) for c in _CELL_COLUMNS]
            for name in stat_names:
                agg = cell["aggregates"][name]
                row += [_fmt(agg["mean"]), _fmt(agg["sd"]), _fmt(agg["n"]), _fmt(agg["censored"])]
            row.append(_fmt(cell["failed_comparisons"]))
            fh.write(",".join(row) + "\n")
    written.append(path)

    path = os.path.join(out_dir, "ledger.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for entry in result.ledger:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    written.append(path)

    # Panel data: one row per (disease, band), pooled over (k, theta) cells.
    path = os.path.join(out_dir, "metrics_vs_r0.csv")
    with open(path, "w", encoding="utf-8") as fh:
        cols = ["disease", "r0", "band"]
        for name in stat_names:
            cols += [f"{name}_mean", f"{name}_sd"]
        fh.write(",".join(cols) + "\n")
        seen = []
        for cell in result.cells:
            key = (cell["disease"], cell["band"])
            if key in seen:
                continue
            seen.append(key)
            group = [c for c in result.cells if (c["disease"], c["band"]) == key]
            row = [cell["disease"], _fmt(cell["r0"]), cell["band"]]
            for name in stat_names:
                means = [c["aggregates"][name]["mean"] for c in group]
                means = [m for m in means if m is not None]
                row += [
                    _fmt(float(np.mean(means)) if means else None),
                    _fmt(float(np.std(means)) if means else None),
                ]
            fh.write(",".join(row) + "\n")
    written.append(path)

    for disease, curves in sorted(result.example_curves.items()):
        path = os.path.join(out_dir, f"prevalence_pair_{disease}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("day,ptt_prevalence,mpt_prevalence\n")
            ptt, mpt = curves["ptt_prevalence"], curves["mpt_prevalence"]
            for t in range(max(len(ptt), len(mpt))):
                a = repr(ptt[t]) if t < len(ptt) else ""
                b = repr(mpt[t]) if t < len(mpt) else ""
                fh.write(f"{t},{a},{b}\n")
        written.append(path)

    for key, hist in sorted(result.histograms.items()):
        fname = "distance_hist_" + key.replace(":", "_") + ".csv"
        path = os.path.join(out_dir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("bin_left_km,bin_right_km,mass\n")
            edges, masses = hist["bin_edges"], hist["masses"]
            for lo, hi, mass in zip(edges[:-1], edges[1:], masses):
                fh.write(f"{lo!r},{hi!r},{mass!r}\n")
        written.append(path)

    path = os.path.join(out_dir, "summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "total_runs": result.total_runs,
                "n_cells": len(result.cells),
                "n_ledger": len(result.ledger),
                "failed_comparisons": sum(c["failed_comparisons"] for c in result.cells),
                "infeasible_cells": result.infeasible_cells,
                "config": result.config,
                "histogram_p95_km": {k: v["p95_km"] for k, v in result.histograms.items()},
            },
            fh,
            sort_keys=True,
            indent=2,
        )
        fh.write("\n")
    written.append(path)
    return written
