"""The paper's direction on fixed small cities: the transit-driven epidemic
lags the full-mobility one.

Day lags are full-mobility minus transit (``metrics.compare``), so a lag
comes out at or below 0 when the transit epidemic runs late. The cities
are the default n = 200 synthetic city of master seeds 1, 2 and 3: they
are the seeds on which the direction was first measured, and fixed seeds
keep the check deterministic. Each sweep takes three (k, theta) pairs per
band and 3 seed draws x 3 replicates per cell, which runs in about half a
second a seed.
"""

import pytest

from epitransit.runner import ScenarioConfig, run_sweep
from epitransit.synthcity import CityConfig

SEEDS = (1, 2, 3)
LAGS = ("early_warning", "peak_timing", "locations_timing_20", "locations_timing_80")
PAIRS_PER_CELL = 3 * 3


@pytest.fixture(scope="module", params=SEEDS, ids=[f"seed{s}" for s in SEEDS])
def sweep(request):
    config = ScenarioConfig(
        city=CityConfig(n_locations=200), master_seed=request.param, max_pairs=3, seed_draws=3, replicates=3
    )
    return run_sweep(config)


def band_means(result, stat):
    """The mean over a band's cells of each cell's mean ``stat``."""
    by_band = {}
    for cell in result.cells:
        mean = cell["aggregates"][stat]["mean"]
        if mean is not None:
            by_band.setdefault(cell["band"], []).append(mean)
    return {band: sum(means) / len(means) for band, means in by_band.items()}


def test_every_mean_lag_is_at_most_zero(sweep):
    assert {cell["band"] for cell in sweep.cells} == {"low", "mediate", "high"}
    assert len(sweep.cells) == 5 * 3 * 3
    for cell in sweep.cells:
        for stat in LAGS:
            mean = cell["aggregates"][stat]["mean"]
            if cell["failed_comparisons"] == PAIRS_PER_CELL:
                # hypothetical_high (R0 = 15, gamma = 1) burns out in days:
                # every pair of it is too short to compare
                assert cell["disease"] == "hypothetical_high" and mean is None
            else:
                assert mean is not None and mean <= 0.0, (cell["disease"], cell["band"], cell["k"], cell["theta"], stat)


@pytest.mark.parametrize("stat", LAGS)
def test_the_low_band_lags_further_than_the_high_band(sweep, stat):
    # a transit matrix with a short mean trip distance (the low band)
    # leaves its epidemic further behind, on every seed; the mediate band
    # is not pinned, since it ties with one of the others on some seeds
    means = band_means(sweep, stat)
    assert means["low"] < means["high"]
