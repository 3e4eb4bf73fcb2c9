"""Golden digests: the outputs that a refactor must leave bit for bit alone.

``tests/golden.json`` pins three things.

- Series: a sha256 over what a ``PrevalenceSeries`` reports
  (``SERIES_FIELDS``: its data fields, and the S and R totals and final
  size it derives) for the runs, with fixed seeds, of each default
  disease x hazard variant x matrix (the base matrix and two thinned
  copies) x city (a 60-location 5-km city, n = 200 and n = 1000), plus
  summary values of each series: length, final size, peak day and peak
  magnitude.
- Exports: a sha256 of every file that ``sweep`` and ``export`` write for
  two small configs, run through ``cli.main`` under the relative output
  directory ``out``. One config has failed comparisons; the other uses the
  ``no_inner_s`` hazard, three thresholds and ``max_lag`` 30.
- Reports: ``ComparisonReport.to_json_dict()`` (or the name of the
  exception ``compare`` raised) for pairs of engine runs: each default
  disease, two run seeds and two compare configs, on each city, with the
  transit arm on the first thinned copy and both arms seeded at location
  0 with one seed, as a sweep pairs them.

The file also records the environment the digests were made in: the
NumPy version, the BLAS name and version, the machine and the CPU model.
``tests/test_golden.py`` compares bit for bit where that environment
matches, and otherwise compares the series summaries and the reports'
peak magnitudes and situational awareness within a relative 1e-9.

Regenerate, from the repository root, with

    PYTHONPATH=src python tests/golden.py --write

and say in the change why the digests or reports moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np

from epitransit import cli, engine, metrics, runner, transit
from epitransit.synthcity import CityConfig, generate_synthetic_city

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# name: (city, seed of the city, run seeds)
CITIES = {
    "n60_5km": (CityConfig(n_locations=60, extent_km=5.0), 60, (1, 2, 3)),
    "n200": (CityConfig(n_locations=200), 200, (1, 2, 3)),
    "n1000": (CityConfig(n_locations=1000), 1000, (1, 2)),
}
# the two thinned copies of each city: (k, theta, thinning seed)
THINNED = ((3, 5, 31), (5, 10, 32))

# the run seeds and compare configs of the reports
REPORT_RUN_SEEDS = (1, 2)
COMPARE_CONFIGS = {
    "default": metrics.CompareConfig(),
    "lag20": metrics.CompareConfig(level=0.05, max_lag=20, min_overlap=5, thresholds=(0.2, 0.5, 0.8)),
}

EXPORT_CONFIGS = {
    "failed_comparisons": {
        # the R0 = 0.17 disease dies out in 9 or 10 days, so some of its
        # pairs overlap less than the 10-day minimum
        "diseases": [
            {"name": "h1n1", "beta": 0.5, "gamma": 1 / 3},
            {"name": "fizzle", "beta": 0.17, "gamma": 1.0},
        ],
        "delta_bands": ["low", "mediate"],
        "max_pairs": 2,
        "seed_draws": 2,
        "replicates": 2,
        "horizon": 120,
        "master_seed": 5,
        "city": {"n_locations": 40, "extent_km": 60.0, "trips_per_capita": 0.8},
        "output_dir": "out",
    },
    "no_inner_s": {
        "diseases": [
            {"name": "varicella", "beta": 1.55, "gamma": 0.2},
            {"name": "hypothetical_mediate", "beta": 5.0, "gamma": 1.0},
        ],
        "delta_bands": ["low", "high"],
        "max_pairs": 2,
        "seed_draws": 2,
        "replicates": 2,
        "horizon": 150,
        "master_seed": 9,
        "hazard_variant": "no_inner_s",
        "compare": {"thresholds": [0.2, 0.5, 0.8], "max_lag": 30},
        "city": {"n_locations": 50, "extent_km": 60.0},
        "output_dir": "out",
    },
}


def environment() -> dict:
    """What a bit-for-bit match depends on besides the code."""
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # NumPy before 1.26 has no mode="dicts"
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(),
        "cpu": cpu,
    }


# What a series reports, in the order the digests in golden.json hash it.
SERIES_FIELDS = (
    "prevalence", "frac_locations", "total_S", "total_I", "total_R", "onset_days", "final_size", "seed_location",
)


def series_digest(series: engine.PrevalenceSeries) -> str:
    """sha256 over every ``SERIES_FIELDS`` value of the series: its name,
    and for an array its dtype, shape and bytes, else its repr."""
    h = hashlib.sha256()
    for name in SERIES_FIELDS:
        value = getattr(series, name)
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def series_summary(series: engine.PrevalenceSeries) -> dict:
    day = int(np.argmax(series.prevalence))
    return {
        "length": len(series),
        "final_size": float(series.final_size),
        "peak_day": day,
        "peak_magnitude": float(series.prevalence[day]),
    }


def series_records() -> dict:
    """Digest and summary of every series in the grid, keyed
    ``city/matrix/disease/hazard variant/run seed``."""
    out = {}
    for city_name, (city, city_seed, run_seeds) in CITIES.items():
        _, base = generate_synthetic_city(city, city_seed)
        matrices = {"base": base}
        for k, theta, seed in THINNED:
            model = transit.calibrate(transit.GammaTripModel(k, theta), base)
            matrices[f"k{k}t{theta}"] = transit.sample_transit_matrix(base, model, seed)
        for matrix_name, matrix in matrices.items():
            for name, beta, gamma in runner.DISEASE_DEFAULTS:
                for variant in engine.HAZARD_VARIANTS:
                    params = engine.EpidemicParams(beta=beta, gamma=gamma, hazard_variant=variant)
                    for seed in run_seeds:
                        series = engine.run_simulation(matrix, params, "proportional", seed)
                        out[f"{city_name}/{matrix_name}/{name}/{variant}/{seed}"] = {
                            "sha256": series_digest(series),
                            **series_summary(series),
                        }
    return out


def reports() -> dict:
    """The comparison report of every pair of runs, keyed
    ``city/disease/run seed/compare config``."""
    out = {}
    k, theta, thin_seed = THINNED[0]
    for city_name, (city, city_seed, _) in CITIES.items():
        _, full = generate_synthetic_city(city, city_seed)
        sub = transit.sample_transit_matrix(full, transit.calibrate(transit.GammaTripModel(k, theta), full), thin_seed)
        for name, beta, gamma in runner.DISEASE_DEFAULTS:
            params = engine.EpidemicParams(beta=beta, gamma=gamma)
            for seed in REPORT_RUN_SEEDS:
                ptt = engine.run_simulation(sub, params, 0, seed)
                mpt = engine.run_simulation(full, params, 0, seed)
                for cfg_name, cfg in COMPARE_CONFIGS.items():
                    try:
                        report = metrics.compare(ptt, mpt, cfg).to_json_dict()
                    except ValueError as exc:
                        report = type(exc).__name__
                    out[f"{city_name}/{name}/{seed}/{cfg_name}"] = report
    return out


def export_digests(workdir) -> dict:
    """sha256 of every file that ``sweep`` and then ``export`` write for
    each export config, run in ``workdir``; keyed ``config/dir/file``."""
    out = {}
    cwd, workdir = os.getcwd(), os.path.abspath(workdir)
    try:
        for name, config in EXPORT_CONFIGS.items():
            path = os.path.join(workdir, name)
            os.makedirs(path)
            os.chdir(path)
            with open("config.json", "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            with contextlib.redirect_stdout(io.StringIO()):
                codes = (
                    cli.main(["sweep", "--config", "config.json"]),
                    cli.main(["export", "--result", "out/sweep_result.json", "--out-dir", "re"]),
                )
            if codes != (0, 0):
                raise RuntimeError(f"export config {name}: exit codes {codes}")
            for sub in ("out", "re"):
                for file in sorted(os.listdir(sub)):
                    with open(os.path.join(sub, file), "rb") as fh:
                        out[f"{name}/{sub}/{file}"] = hashlib.sha256(fh.read()).hexdigest()
    finally:
        os.chdir(cwd)
    return out


def compute(workdir) -> dict:
    return {
        "environment": environment(),
        "series": series_records(),
        "exports": export_digests(workdir),
        "reports": reports(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"write {GOLDEN_PATH}")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        golden = compute(workdir)
    text = json.dumps(golden, sort_keys=True, indent=1) + "\n"
    if args.write:
        with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(
            f"wrote {len(golden['series'])} series and {len(golden['exports'])} export digests"
            f" and {len(golden['reports'])} reports to {GOLDEN_PATH}"
        )
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
