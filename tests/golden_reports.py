"""Golden comparison reports: ``metrics.compare`` on engine runs.

``tests/golden_reports.json`` holds ``ComparisonReport.to_json_dict()``
(or the name of the exception ``compare`` raised) for pairs of engine
runs: each default disease, two run seeds and two compare configs, on the
cities of ``golden.CITIES`` (n = 60, 200 and 1000), with the transit arm
on the first thinned copy of ``golden.THINNED`` and both arms seeded at
location 0 with one seed, as a sweep pairs them. ``tests/test_metrics.py``
compares them bit for bit where ``golden.environment()`` matches the one
recorded, and otherwise within a relative 1e-9.

Regenerate, from the repository root, with

    PYTHONPATH=src python tests/golden_reports.py --write

and say in the change why the reports moved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import golden
from epitransit import engine, metrics, runner, transit
from epitransit.synthcity import generate_synthetic_city

REPORTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_reports.json")

RUN_SEEDS = (1, 2)
COMPARE_CONFIGS = {
    "default": metrics.CompareConfig(),
    "lag20": metrics.CompareConfig(level=0.05, max_lag=20, min_overlap=5, thresholds=(0.2, 0.5, 0.8)),
}


def reports() -> dict:
    """Keyed ``city/disease/run seed/compare config``."""
    out = {}
    k, theta, thin_seed = golden.THINNED[0]
    for city_name, (city, city_seed, _) in golden.CITIES.items():
        _, full = generate_synthetic_city(city, city_seed)
        sub = transit.sample_transit_matrix(full, transit.calibrate(transit.GammaTripModel(k, theta), full), thin_seed)
        for name, beta, gamma in runner.DISEASE_DEFAULTS:
            params = engine.EpidemicParams(beta=beta, gamma=gamma)
            for seed in RUN_SEEDS:
                ptt = engine.run_simulation(sub, params, 0, seed)
                mpt = engine.run_simulation(full, params, 0, seed)
                for cfg_name, cfg in COMPARE_CONFIGS.items():
                    try:
                        report = metrics.compare(ptt, mpt, cfg).to_json_dict()
                    except ValueError as exc:
                        report = type(exc).__name__
                    out[f"{city_name}/{name}/{seed}/{cfg_name}"] = report
    return out


def compute() -> dict:
    return {"environment": golden.environment(), "reports": reports()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"write {REPORTS_PATH}")
    args = parser.parse_args(argv)
    text = json.dumps(compute(), sort_keys=True, indent=1) + "\n"
    if args.write:
        with open(REPORTS_PATH, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {REPORTS_PATH}")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
