"""Command-line entry points.

Exit codes: 0 success, 1 validation error, 2 infeasible scenario,
3 I/O error.

Each file format is defined in one module: the prevalence CSV, which
simulate writes and compare reads, in epitransit.cli; the city CSVs and
the matrix .npz in epitransit.mobility; the ranking CSV in
epitransit.theory; and the sweep exports in epitransit.runner.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import engine, metrics, runner, theory
from .mobility import (
    ValidationError,
    build_contact_matrix,
    csv_rows,
    load_matrix_npz,
    load_trips,
    network_stats,
    raise_if_errors,
    save_matrix_npz,
    write_city_csvs,
    write_network_stats,
)
from .synthcity import CityConfig, generate_synthetic_city

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # route usage errors through the validation exit code
    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="epitransit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate trip CSVs and build the contact matrix")
    p.add_argument("--trips", required=True)
    p.add_argument("--locations", dest="locations_csv", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("synth-city", help="generate a synthetic city")
    p.add_argument("--n", type=int, default=CityConfig.n_locations)
    p.add_argument("--extent-km", type=float, default=CityConfig.extent_km)
    p.add_argument("--pop-median", type=float, default=CityConfig.pop_median)
    p.add_argument("--pop-sigma", type=float, default=CityConfig.pop_sigma)
    p.add_argument("--trips-per-capita", type=float, default=CityConfig.trips_per_capita)
    p.add_argument("--d0-km", type=float, default=CityConfig.d0_km)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("simulate", help="run one epidemic realization")
    p.add_argument("--matrix", required=True, help="matrix .npz from ingest or synth-city")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--horizon", type=int, default=engine.EpidemicParams.horizon)
    p.add_argument("--extinction-threshold", type=float, default=engine.EpidemicParams.extinction_threshold)
    p.add_argument("--hazard-variant", choices=engine.HAZARD_VARIANTS, default=engine.EpidemicParams.hazard_variant)
    p.add_argument("--seed-rule", default="proportional",
                   help=f"one of {', '.join(engine.SEED_RULES)}, or a fixed location index")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True, help="prevalence CSV path")

    p = sub.add_parser("sweep", help="run a configured sweep and export results")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--output-dir", default=None)

    p = sub.add_parser("compare", help="compare two prevalence CSVs")
    p.add_argument("--ptt", required=True, help="transit-driven prevalence CSV")
    p.add_argument("--mpt", required=True, help="full-mobility prevalence CSV")
    p.add_argument("--level", type=float, default=metrics.CompareConfig.level)
    p.add_argument("--max-lag", type=int, default=metrics.CompareConfig.max_lag)
    p.add_argument("--thresholds", type=float, nargs="*", default=metrics.CompareConfig.thresholds)
    p.add_argument("--out", required=True, help="report JSON path")

    p = sub.add_parser("theory", help="invasion probability ranking from a source location")
    p.add_argument("--matrix", required=True)
    p.add_argument("--transit-matrix", default=None)
    p.add_argument("--source", required=True, help="source location id")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--variant", choices=theory.VARIANTS, default="r0_consistent")
    p.add_argument("--out", required=True, help="ranking CSV path")

    p = sub.add_parser("export", help="re-export files from a saved sweep result")
    p.add_argument("--result", required=True, help="sweep_result.json path")
    p.add_argument("--out-dir", required=True)

    return parser


def _cmd_ingest(args) -> int:
    table, trips = load_trips(args.trips, args.locations_csv)
    matrix = build_contact_matrix(table, trips)
    os.makedirs(args.out_dir, exist_ok=True)
    save_matrix_npz(matrix, os.path.join(args.out_dir, "matrix.npz"))
    write_network_stats(network_stats(matrix), os.path.join(args.out_dir, "network_stats.json"))
    print(
        f"ingested {len(trips)} trip records over {len(table)} locations; "
        f"{matrix.population_clamp_count} population clamp(s)"
    )
    return EXIT_OK


def _cmd_synth_city(args) -> int:
    config = CityConfig(
        n_locations=args.n,
        extent_km=args.extent_km,
        pop_median=args.pop_median,
        pop_sigma=args.pop_sigma,
        trips_per_capita=args.trips_per_capita,
        d0_km=args.d0_km,
    )
    table, matrix = generate_synthetic_city(config, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    write_city_csvs(
        table,
        matrix,
        os.path.join(args.out_dir, "locations.csv"),
        os.path.join(args.out_dir, "trips.csv"),
    )
    save_matrix_npz(matrix, os.path.join(args.out_dir, "matrix.npz"))
    write_network_stats(network_stats(matrix), os.path.join(args.out_dir, "network_stats.json"))
    print(f"generated {len(table)} locations, {matrix.cross_trips():.0f} daily cross trips")
    return EXIT_OK


def _parse_seed_rule(text):
    if text in engine.SEED_RULES:
        return text
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"bad seed rule {text!r}") from None


def _cmd_simulate(args) -> int:
    matrix = load_matrix_npz(args.matrix)
    params = engine.EpidemicParams(
        beta=args.beta,
        gamma=args.gamma,
        horizon=args.horizon,
        extinction_threshold=args.extinction_threshold,
        hazard_variant=args.hazard_variant,
    )
    series = engine.run_simulation(matrix, params, _parse_seed_rule(args.seed_rule), args.seed)
    _write_prevalence_csv(series, args.out)
    print(
        f"simulated {len(series)} days from location "
        f"{matrix.table.ids[series.seed_location]}; final size {series.final_size:.4f}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = runner.ScenarioConfig.from_json_file(args.config)
    overrides = {"master_seed": args.seed, "output_dir": args.output_dir}
    # replace() rebuilds the config, so the overrides are checked like file values
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    result = runner.run_sweep(config)
    os.makedirs(config.output_dir, exist_ok=True)
    result.save_json(os.path.join(config.output_dir, "sweep_result.json"))
    written = runner.export_results(result, config.output_dir)
    if not result.cells:
        print("sweep produced no feasible cells")
        return EXIT_INFEASIBLE
    failed = sum(c["failed_comparisons"] for c in result.cells)
    print(
        f"{result.total_runs} simulations, {failed} failed comparison(s); "
        f"wrote {len(written) + 1} files to {config.output_dir}"
    )
    return EXIT_OK


# The prevalence CSV: ``simulate`` writes all six columns; ``compare`` reads three.
_PREVALENCE_COLUMNS = ("day", "prevalence", "frac_locations_infected", "total_S", "total_I", "total_R")


def _write_prevalence_csv(series: engine.PrevalenceSeries, path) -> None:
    columns = (series.prevalence, series.frac_locations, series.total_S, series.total_I, series.total_R)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_PREVALENCE_COLUMNS) + "\n")
        for t, row in enumerate(zip(*columns)):
            fh.write(f"{t}," + ",".join(repr(float(v)) for v in row) + "\n")


def _read_prevalence_csv(path):
    """The prevalence and infected-location fraction columns of a
    prevalence CSV, whose header must name the first three columns, in
    any order, and whose i-th row must read day i. Every bad row is
    reported in one ValidationError, by the file line it ends on (see
    ``mobility.csv_rows``)."""
    prev, frac, errors = [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None) or []
        missing = [c for c in _PREVALENCE_COLUMNS[:3] if c not in header]
        if missing:
            raise ValidationError(f"{path}: header lacks column(s) {', '.join(missing)}")
        for rownum, fields in csv_rows(reader, len(header), errors):
            row = dict(zip(header, fields))  # a repeated name reads its last column
            day = len(prev) + len(errors)  # every row before this one is kept or has an error
            try:
                if int(row["day"]) != day:
                    raise ValueError(f"day {row['day']} where day {day} belongs")
                values = [float(row[name]) for name in _PREVALENCE_COLUMNS[1:3]]
                for name, value in zip(_PREVALENCE_COLUMNS[1:3], values):
                    if not 0.0 <= value <= 1.0:
                        raise ValueError(f"{name} {value} outside [0, 1]")
            except ValueError as exc:
                errors.append((rownum, str(exc)))
                continue
            prev.append(values[0])
            frac.append(values[1])
    raise_if_errors(path, errors)
    if not prev:
        raise ValidationError(f"{path}: empty prevalence series")
    return SimpleNamespace(prevalence=np.array(prev), frac_locations=np.array(frac))


def _cmd_compare(args) -> int:
    ptt = _read_prevalence_csv(args.ptt)
    mpt = _read_prevalence_csv(args.mpt)
    cfg = metrics.CompareConfig(level=args.level, max_lag=args.max_lag, thresholds=args.thresholds)
    report = metrics.compare(ptt, mpt, cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(json.dumps(report.to_json_dict(), sort_keys=True))
    return EXIT_OK


def _cmd_theory(args) -> int:
    matrix = load_matrix_npz(args.matrix)
    source = matrix.table.index.get(args.source)
    if source is None:
        raise ValidationError(f"unknown source location {args.source!r}")
    params = engine.EpidemicParams(beta=args.beta, gamma=args.gamma)
    if args.transit_matrix is not None:
        sub = load_matrix_npz(args.transit_matrix)
    else:
        sub = matrix
    theory.write_ranking_csv(matrix, sub, source, params, args.out, args.variant)
    print(f"wrote ranking for {matrix.n - 1} destinations to {args.out}")
    return EXIT_OK


def _cmd_export(args) -> int:
    # A saved result is input, so a key it lacks or a value of the wrong
    # type is a validation error; export_results raises it before writing.
    try:
        result = runner.SweepResult.load_json(args.result)
        written = runner.export_results(result, args.out_dir)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValidationError(f"{args.result}: {detail}") from None
    print(f"wrote {len(written)} files to {args.out_dir}")
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "synth-city": _cmd_synth_city,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "theory": _cmd_theory,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
