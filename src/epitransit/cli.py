"""Command-line entry points.

Exit codes: 0 success, 1 validation error, 2 infeasible scenario,
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import engine, metrics, runner, theory, transit
from .mobility import (
    ValidationError,
    build_contact_matrix,
    load_matrix_npz,
    load_trips,
    network_stats,
    save_matrix_npz,
    write_network_stats,
)
from .synthcity import CityConfig, generate_synthetic_city, write_city_csvs

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
    p.add_argument("--locations", required=True)
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
    table, trips = load_trips(args.trips, args.locations)
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
    series.to_csv(args.out)
    print(
        f"simulated {len(series)} days from location "
        f"{matrix.table.ids[series.seed_location]}; final size {series.final_size:.4f}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = runner.ScenarioConfig.from_json_file(args.config)
    if args.seed is not None:
        config.master_seed = args.seed
    if args.output_dir is not None:
        config.output_dir = args.output_dir
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


_PREVALENCE_COLUMNS = ("day", "prevalence", "frac_locations_infected")


def _read_prevalence_csv(path):
    days, prev, frac = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _PREVALENCE_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValidationError(f"{path}: header lacks column(s) {', '.join(missing)}")
        for rownum, row in enumerate(reader, start=2):
            try:
                days.append(int(row["day"]))
                prev.append(float(row["prevalence"]))
                frac.append(float(row["frac_locations_infected"]))
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{path}: row {rownum}: {exc}") from None
    if not days:
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
    result = runner.SweepResult.load_json(args.result)
    written = runner.export_results(result, args.out_dir)
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
    except transit.InfeasibleModeShare as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
