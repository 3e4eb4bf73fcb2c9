"""Scenario configuration, paired sweeps, aggregation, and exports.

A sweep pairs every full-mobility run with a run on a transit-thinned
copy of the matrix, for each disease and each (band, k, theta) cell.
``plan_cells`` enumerates the cells and calibrates each once;
calibration does not depend on the disease. One executor then runs
every run there is: first the full-mobility arm, every disease on every
(seed draw, replicate, seed location) pair, then cell by cell, where a
cell is thinned once and every disease runs every pair on that one
matrix, since thinning does not depend on the disease either. Both arms
of a pair share the seed location and the introduction RNG stream, so
metric differences isolate the matrix effect. (k, theta) alone names a
cell, as the bands are disjoint, and seeds its thinning. The executor
yields each run with its (cell, disease, pair) position; no run depends
on what else it runs. ``run_sweep`` folds the ledger, the cells, the
example curves and the run counts from the whole stream; ``replay_run``
runs the executor on one entry's cell, disease and pair, so every run
is reconstructible from its entry plus the scenario config.
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


# a disease name names a file and fills a cells.csv field unquoted
_NAME_UNSAFE = '/\\,"\0\r\n'


@dataclass(frozen=True)
class Disease:
    name: str
    beta: float
    gamma: float

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name or any(ch in self.name for ch in _NAME_UNSAFE):
            raise ValueError(
                f"disease name must be a non-empty string without / \\ , \" NUL CR or LF, got {self.name!r}"
            )
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
    exports find a disease by name), unique bands and pairs (a cell named
    twice would run twice and write its histogram key twice), compare
    thresholds that name distinct ``cells.csv`` columns, the city or
    matrix file, and ``seed_rule``
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
            if not all(is_int(v) for p in self.pairs for v in p):
                raise ValueError(f"pairs must hold integers, got {self.pairs!r}")
        for name in ("matrix_npz", "output_dir"):
            if getattr(self, name) is not None and not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {getattr(self, name)!r}")
        if self.city is None and self.matrix_npz is None:
            raise ValueError("either a synthetic city spec or a matrix file is required")
        if not self.diseases:
            raise ValueError("at least one disease required")
        for d in self.diseases:
            _params(self, d)
        _reject_repeats([d.name for d in self.diseases], "duplicate disease name(s)")
        _reject_repeats(_stat_names(self.compare.thresholds), "compare thresholds share a column name")
        bands = [transit.DeltaBand.from_label(label) for label in self.delta_bands]
        _reject_repeats(self.delta_bands, "delta_bands lists a band more than once")
        _reject_repeats(self.pairs or [], "pairs lists a (k, theta) more than once")
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
        """The config in a JSON file, which may open with a UTF-8
        byte-order mark. A ValueError from parsing or checking it is
        raised again with the file's path in front."""
        with open(path, encoding="utf-8-sig") as fh:
            try:
                return cls.from_json_dict(json.load(fh))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None


def _reject_repeats(values: list, what: str) -> None:
    """Raise a ValueError that names each value listed more than once."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{what}: {', '.join(map(str, repeated))}")


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
# A ledger entry's keys: the cell's scalars but r0, then the run's.
_LEDGER_KEYS = set(_CELL_COLUMNS) - {"r0"} | {
    "run_index", "seed_draw", "replicate", "seed_location_index", "seed_location", "report"}


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
        return cls(**_known_keys(cls, d, "sweep result"))

    def save_json(self, path) -> None:
        # dumps, not dump: dump streams through the pure-Python encoder,
        # dumps runs the C one, and both give the same text
        text = json.dumps(self.to_json_dict(), sort_keys=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")

    @classmethod
    def load_json(cls, path) -> "SweepResult":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def _aggregate(values: list) -> dict:
    """Mean and population sd over the uncensored values of one statistic."""
    clean = [v for v in values if v is not None]
    return {
        "n": len(clean),
        "censored": len(values) - len(clean),
        "mean": float(np.mean(clean)) if clean else None,
        "sd": float(np.std(clean)) if clean else None,
    }


# The scalar fields of a ComparisonReport; locations_timing is per threshold.
_REPORT_STATS = tuple(f.name for f in fields(metrics.ComparisonReport) if f.name != "locations_timing")


def _stat_names(thresholds) -> list:
    """A cell's statistics in column order: the four report fields, then
    one locations-timing statistic per threshold, named by its percent."""
    return list(_REPORT_STATS) + [f"locations_timing_{int(round(t * 100))}" for t in thresholds]


def _cell_aggregates(reports: list, thresholds) -> dict:
    values = [
        [getattr(r, name) for name in _REPORT_STATS] + [r.locations_timing.get(float(t)) for t in thresholds]
        for r in reports
    ]
    return {name: _aggregate([v[i] for v in values]) for i, name in enumerate(_stat_names(thresholds))}


@dataclass(frozen=True)
class PlannedCell:
    """One calibrated cell: its band's label and its model, which holds
    the (k, theta) that names it. A replayed cell from an entry without a
    band label holds None for it.
    """

    band: str
    model: transit.GammaTripModel


def plan_cells(config: ScenarioConfig, matrix: ContactMatrix) -> tuple[list, list]:
    """Calibrate every (band, k, theta) cell once.

    Returns the feasible cells as ``PlannedCell``s and one infeasible
    entry per cell whose mode share is unreachable, both in band then
    pair order. No cell depends on the disease.
    """
    cells, infeasible = [], []
    for band in map(transit.DeltaBand.from_label, config.delta_bands):
        pairs = band_pairs(config, band)
        if not pairs:
            log.warning("no (k, theta) pairs with mean in band %s", band.label)
        for k, theta in pairs:
            try:
                model = _calibrated_model(config, matrix, k, theta)
            except transit.InfeasibleModeShare as exc:
                log.warning("cell (%s, k=%d, theta=%d) infeasible: %s", band.label, k, theta, exc)
                infeasible.append(
                    {"band": band.label, "k": k, "theta": theta, "achievable": exc.achievable}
                )
                continue
            cells.append(PlannedCell(band.label, model))
    return cells, infeasible


def _calibrated_model(config: ScenarioConfig, matrix: ContactMatrix, k, theta) -> transit.GammaTripModel:
    return transit.calibrate(transit.GammaTripModel(k=k, theta=theta, mu=config.mu), matrix)


def _params(config: ScenarioConfig, disease: Disease) -> engine.EpidemicParams:
    return engine.EpidemicParams(
        beta=disease.beta,
        gamma=disease.gamma,
        horizon=config.horizon,
        extinction_threshold=config.extinction_threshold,
        hazard_variant=config.hazard_variant,
    )


def _cut_at_horizon(series: engine.PrevalenceSeries, params: engine.EpidemicParams) -> bool:
    """Whether a run reached the horizon with total I still at or above
    the extinction threshold, so that the horizon, not extinction, ended it."""
    return len(series) > params.horizon and series.total_I[-1] >= params.extinction_threshold


def _checked_start(config: ScenarioConfig, diseases: list, matrix: ContactMatrix | None) -> tuple[ContactMatrix, list]:
    """The matrix that a sweep or a replay works on, and each disease's
    params, once both are checked; nothing is calibrated or run yet.

    The matrix is ``matrix.copy()``, a matrix of its own that shares the
    caller's stored entries and does not read its ``m``. So the dense
    array that the engine reads and the caches (``entries``,
    ``trip_counts`` and ``inter_location_trips``) are built on the copy,
    once, shared by every run, calibration, thinning and histogram, and
    freed with it; the caller's matrix is left as it was, and a matrix
    that a caller keeps holds its entries alone. Every disease's params
    are checked against the matrix (``engine.check_scale``), and its
    counts are checked to be whole trips (``ContactMatrix.trip_counts``),
    which thinning needs.
    """
    matrix = base_matrix(config) if matrix is None else matrix.copy()
    params = [_params(config, disease) for disease in diseases]
    for p in params:
        engine.check_scale(p, matrix)
    matrix.trip_counts  # raises unless every count is a whole trip; kept for thinning
    return matrix, params


def _execute(config: ScenarioConfig, matrix: ContactMatrix, params: list, cells: list, pairs: list, histograms=None):
    """Run every disease on every pair, on the full matrix and then on each
    cell's thinned matrix, and yield each run as (c, d, pair, series,
    baseline).

    ``params`` holds one disease's params per ``d``; ``pairs`` holds
    (seed draw, replicate, seed location) triples; ``c`` indexes
    ``cells``, or is None for the full-mobility arm. A transit run's
    ``baseline`` is the full-mobility run of its disease and pair; a
    full-mobility run has none. Every disease's baselines run first.
    Then each cell is thinned once, every disease runs every pair on it,
    and its matrix is released before the next cell is thinned, so at
    most one thinned matrix is alive at a time; nothing yielded holds
    one. A cell is thinned on the master seed and its (k, theta) alone,
    and no run depends on what else runs. ``histograms``, if given, gets
    the distance histogram of each band's first cell, keyed
    ``band:kK:tTHETA``: its first feasible pair, since ``cells`` holds the
    feasible cells alone, in band then pair order.
    """
    # a pair's introduction stream: both arms run on it, and run_simulation
    # only reads it, so one SeedSequence serves every run of the pair
    seeds = [_seed_seq(config.master_seed, _TAG_INTRO, s, r) for s, r, _ in pairs]
    baselines = [[] for _ in params]
    for d, p in enumerate(params):
        for pair, seed in zip(pairs, seeds):
            baselines[d].append(engine.run_simulation(matrix, p, pair[2], seed))
            yield None, d, pair, baselines[d][-1], None
    for c, cell in enumerate(cells):
        k, theta = cell.model.k, cell.model.theta  # they name the cell, and alone seed its thinning
        sub = transit.sample_transit_matrix(matrix, cell.model, _seed_seq(config.master_seed, _TAG_TRANSIT, k, theta))
        if histograms is not None and (c == 0 or cells[c - 1].band != cell.band):
            histograms[f"{cell.band}:k{k}:t{theta}"] = transit.distance_histogram(sub)
        for d, p in enumerate(params):
            for pair, seed, mpt in zip(pairs, seeds, baselines[d]):
                yield c, d, pair, engine.run_simulation(sub, p, pair[2], seed), mpt
        del sub  # release this cell's matrix before the next is thinned


def _cell_keys(disease: Disease, cell: PlannedCell) -> dict:
    return {
        "disease": disease.name, "beta": disease.beta, "gamma": disease.gamma,
        "band": cell.band, "k": cell.model.k, "theta": cell.model.theta, "lambda": cell.model.lam,
    }


def run_sweep(config: ScenarioConfig, matrix: ContactMatrix | None = None) -> SweepResult:
    """Plan the cells, then fold one pass of the executor into the result.

    Before anything is calibrated or run, the start is checked
    (``_checked_start``: the matrix copy, every disease's params and the
    whole-trip counts), and the seed locations are drawn, which checks a
    fixed ``seed_rule``. ``plan_cells`` then calibrates each (band, k,
    theta) once, and ``_execute`` runs every disease's full-mobility
    baseline once per (seed draw, replicate), reused across every cell,
    mirroring the 1 + n_pairs run structure, before it thins and runs the
    cells one by one. Each transit run is compared with its baseline.

    Disease d, cell c, seed draw s and replicate r take ``run_index``
    ((d C + c) D + s) R + r, for C feasible cells, D draws and R
    replicates. The ledger is kept in ``run_index`` order, the cells
    disease by disease, and a disease's example curve is the pair of its
    first ledger entry, so the result does not depend on the execution
    order. A pair whose comparison raises ``NoAdmissibleLag`` stays out
    of the ledger and the aggregates, is counted in its cell's
    ``failed_comparisons`` and still takes its ``run_index``. A cell's
    row is made once its last pair is compared, so the sweep holds the
    reports of unfinished cells only.
    ``total_runs`` counts the runs the executor yields, and one INFO line
    at the end counts those that reached the horizon with total I still
    at or above the extinction threshold. One WARNING line beside it
    counts the failed comparisons of all cells, if there are any.
    """
    matrix, params = _checked_start(config, config.diseases, matrix)
    seed_locs = [
        engine.seed_outbreak(
            matrix, config.seed_rule, np.random.default_rng(_seed_seq(config.master_seed, _TAG_SEED_LOC, s))
        )
        for s in range(config.seed_draws)
    ]
    planned, infeasible = plan_cells(config, matrix)
    pairs = [(s, r, seed_locs[s]) for s in range(config.seed_draws) for r in range(config.replicates)]
    histograms = {"full": transit.distance_histogram(matrix)}
    # by (disease, cell): its reports, None for a failed comparison, until
    # its last pair is compared; then its cells row, and the reports go
    rows, ledger, curves = {}, [], {}
    total_runs = cut = 0
    for c, d, (s, r, loc), ptt, mpt in _execute(config, matrix, params, planned, pairs, histograms):
        total_runs += 1
        cut += _cut_at_horizon(ptt, params[d])
        if c is None:
            continue
        run_index = ((d * len(planned) + c) * config.seed_draws + s) * config.replicates + r
        cell, disease = planned[c], config.diseases[d]
        try:
            report = metrics.compare(ptt, mpt, config.compare)
        except metrics.NoAdmissibleLag:
            report = None
        else:
            ledger.append(
                {
                    **_cell_keys(disease, cell),
                    "run_index": run_index,
                    "seed_draw": s,
                    "replicate": r,
                    "seed_location_index": loc,
                    "seed_location": matrix.table.ids[loc],
                    "report": report.to_json_dict(),
                }
            )
            if d not in curves:  # the pair of the disease's first ledger entry
                curves[d] = {key: ledger[-1][key] for key in ("band", "k", "theta", "seed_draw", "replicate")}
                curves[d].update(ptt_prevalence=ptt.prevalence.tolist(), mpt_prevalence=mpt.prevalence.tolist())
        block = rows.setdefault((d, c), [])
        block.append(report)
        if len(block) == len(pairs):
            rows[d, c] = {
                **_cell_keys(disease, cell),
                "r0": disease.r0,
                "aggregates": _cell_aggregates([x for x in block if x is not None], config.compare.thresholds),
                "failed_comparisons": sum(x is None for x in block),
            }

    log.info(
        "%d of %d runs reached the horizon of %d days with total I still at or above %g",
        cut, total_runs, config.horizon, config.extinction_threshold,
    )
    failed = sum(row["failed_comparisons"] for row in rows.values())
    if failed:
        log.warning("%d of %d comparisons censored: series too short to compare", failed, failed + len(ledger))
    return SweepResult(
        config=config.to_json_dict(),
        cells=[row for _, row in sorted(rows.items())],
        ledger=sorted(ledger, key=lambda entry: entry["run_index"]),
        infeasible_cells=infeasible,
        total_runs=total_runs,
        histograms=histograms,
        example_curves={config.diseases[d].name: curve for d, curve in sorted(curves.items())},
    )


def replay_run(config: ScenarioConfig, entry: dict, matrix: ContactMatrix | None = None) -> metrics.ComparisonReport:
    """Reproduce one ledger entry's comparison bit-exactly: the executor
    run on the entry's one cell, one disease and one pair, after the
    sweep's own checked start, so the params and the counts are checked
    before the cell is calibrated, and the caller's matrix is left as it
    was. An entry with a key that no sweep writes is refused by name: an
    older ledger's band position marks a cell thinned on another seed."""
    unknown = sorted(set(entry) - _LEDGER_KEYS)
    if unknown:
        raise ValueError(f"ledger entry holds key(s) that no sweep writes: {', '.join(unknown)}")
    disease = next((d for d in config.diseases if d.name == entry["disease"]), None)
    if disease is None:
        raise ValueError(f"ledger entry's disease {entry['disease']!r} is not in the config")
    matrix, params = _checked_start(config, [disease], matrix)
    cell = PlannedCell(entry.get("band"), _calibrated_model(config, matrix, entry["k"], entry["theta"]))
    pair = (entry["seed_draw"], entry["replicate"], entry["seed_location_index"])
    *_, (_, _, _, ptt, mpt) = _execute(config, matrix, params, [cell], [pair])
    return metrics.compare(ptt, mpt, config.compare)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header, rows) -> str:
    return "".join(",".join(row) + "\n" for row in (header, *rows))


def _real_series(holder: dict, key: str, where: str) -> list:
    """``holder[key]``, which must be a list of real numbers; a ValueError
    names ``where`` and the key otherwise. A string would render one
    character per row."""
    value = holder[key]
    if not isinstance(value, list):
        raise ValueError(f"{where} {key!r} must be a list of real numbers, got {value!r}")
    bad = [v for v in value if not is_real(v)]
    if bad:
        raise ValueError(f"{where} {key!r} must hold real numbers only, got {bad[0]!r}")
    return value


def export_results(result: SweepResult, out_dir) -> list:
    """Write the sweep's exports; returns the written paths.

    All or nothing: every file's text is rendered from the result before
    out_dir is made, so a result that lacks a key or holds a value of the
    wrong type raises before any file exists. Each series written row by
    row (a histogram's ``bin_edges`` and ``masses``, an example curve's
    ``ptt_prevalence`` and ``mpt_prevalence``) must be a list of real
    numbers; a histogram must hold one mass per bin, and its ``p95_km``
    must be a real number. Everything is plain sorted text, so identical
    results export to byte-identical files.
    """
    stat_names = _stat_names(result.config["compare"]["thresholds"])
    parts = ("mean", "sd", "n", "censored")
    cells = _csv_text(
        [*_CELL_COLUMNS, *(f"{name}_{part}" for name in stat_names for part in parts), "failed_comparisons"],
        (
            [
                *(_fmt(cell[c]) for c in _CELL_COLUMNS),
                *(_fmt(cell["aggregates"][name][part]) for name in stat_names for part in parts),
                _fmt(cell["failed_comparisons"]),
            ]
            for cell in result.cells
        ),
    )
    files = [
        ("cells.csv", cells),
        ("ledger.jsonl", "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in result.ledger)),
    ]

    # Panel data: one row per (disease, band), pooled over (k, theta)
    # cells, in the order each group first appears.
    groups = {}
    for cell in result.cells:
        groups.setdefault((cell["disease"], cell["band"]), []).append(cell)
    rows = []
    for (disease, band), group in groups.items():
        row = [disease, _fmt(group[0]["r0"]), band]
        for name in stat_names:
            pooled = _aggregate([c["aggregates"][name]["mean"] for c in group])
            row += [_fmt(pooled["mean"]), _fmt(pooled["sd"])]
        rows.append(row)
    header = ["disease", "r0", "band", *(f"{name}_{part}" for name in stat_names for part in ("mean", "sd"))]
    files.append(("metrics_vs_r0.csv", _csv_text(header, rows)))

    for disease, curves in sorted(result.example_curves.items()):
        where = f"example curve {disease!r}:"
        ptt, mpt = (_real_series(curves, key, where) for key in ("ptt_prevalence", "mpt_prevalence"))
        rows = (
            [str(t), repr(ptt[t]) if t < len(ptt) else "", repr(mpt[t]) if t < len(mpt) else ""]
            for t in range(max(len(ptt), len(mpt)))
        )
        files.append((f"prevalence_pair_{disease}.csv", _csv_text(["day", "ptt_prevalence", "mpt_prevalence"], rows)))

    for key, hist in sorted(result.histograms.items()):
        where = f"histogram {key!r}:"
        edges, masses = (_real_series(hist, name, where) for name in ("bin_edges", "masses"))
        if len(masses) != len(edges) - 1:
            raise ValueError(f"{where} 'masses' must hold one mass per bin, got {len(masses)} for {len(edges)} edges")
        if not is_real(hist["p95_km"]):
            raise ValueError(f"{where} 'p95_km' must be a real number, got {hist['p95_km']!r}")
        rows = (map(repr, row) for row in zip(edges[:-1], edges[1:], masses))
        name = "distance_hist_" + key.replace(":", "_") + ".csv"
        files.append((name, _csv_text(["bin_left_km", "bin_right_km", "mass"], rows)))

    summary = {
        "total_runs": result.total_runs,
        "n_cells": len(result.cells),
        "n_ledger": len(result.ledger),
        "failed_comparisons": sum(c["failed_comparisons"] for c in result.cells),
        "infeasible_cells": result.infeasible_cells,
        "config": result.config,
        "histogram_p95_km": {k: v["p95_km"] for k, v in result.histograms.items()},
    }
    files.append(("summary.json", json.dumps(summary, sort_keys=True, indent=2) + "\n"))

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, text in files:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)
    return written
