"""Gravity-kernel synthetic city: a desk-scale stand-in for real trip data.

Locations are scattered uniformly over a disc, populations drawn from a
lognormal, and inter-location flows Poisson-sampled around the gravity
kernel N_j * N_k * exp(-d/d0). Self-flows are sized so the daily flow
balance recovers the drawn populations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from .checks import is_int, is_real
from .mobility import (
    HOURS_PER_DAY,
    ContactMatrix,
    Location,
    LocationTable,
    derive_populations,
)

KM_PER_DEGREE = 111.19492664455873  # 6371 km * pi / 180


@dataclass(frozen=True)
class CityConfig:
    n_locations: int = 200
    extent_km: float = 60.0  # disc radius
    pop_median: float = 500.0
    pop_sigma: float = 1.0
    trips_per_capita: float = 0.6  # mean daily inter-location trips per resident
    d0_km: float = 10.0  # gravity decay length
    center_lat: float = 0.0
    center_lon: float = 0.0

    def __post_init__(self):
        if not is_int(self.n_locations) or self.n_locations < 2:
            raise ValueError(f"city n_locations must be an integer >= 2, got {self.n_locations!r}")
        for f in fields(self)[1:]:  # every field after n_locations is a number
            if not is_real(getattr(self, f.name)):
                raise ValueError(f"city {f.name} must be a number, got {getattr(self, f.name)!r}")
        if self.extent_km <= 0:
            raise ValueError("extent_km must be positive")


def generate_synthetic_city(config: CityConfig, rng_seed) -> tuple[LocationTable, ContactMatrix]:
    """Generate a city deterministically from a seed.

    Returns the location table and the daily contact matrix with
    populations derived from the flow balance.
    """
    rng = np.random.default_rng(rng_seed)
    n = config.n_locations

    # uniform placement over the disc, in km offsets from the center
    r = config.extent_km * np.sqrt(rng.random(n))
    angle = 2.0 * np.pi * rng.random(n)
    lat = config.center_lat + r * np.sin(angle) / KM_PER_DEGREE
    lon = config.center_lon + r * np.cos(angle) / (
        KM_PER_DEGREE * np.cos(np.radians(config.center_lat))
    )
    table = LocationTable(
        Location(f"L{i:04d}", float(lat[i]), float(lon[i])) for i in range(n)
    )

    pops = np.maximum(rng.lognormal(np.log(config.pop_median), config.pop_sigma, n), 1.0)

    d = table.distance_matrix
    kernel = pops[:, None] * pops[None, :] * np.exp(-d / config.d0_km)
    np.fill_diagonal(kernel, 0.0)
    target_total = config.trips_per_capita * pops.sum()
    kernel *= target_total / kernel.sum()
    m = rng.poisson(kernel).astype(float)

    # self-flows chosen so (m_jj + inflow - outflow) / 24 lands on the
    # drawn populations
    inflow = m.sum(axis=1)
    outflow = m.sum(axis=0)
    diag = np.maximum(np.rint(HOURS_PER_DAY * pops - inflow + outflow), 0.0)
    m[np.arange(n), np.arange(n)] = diag

    populations, clamps = derive_populations(m)
    return table, ContactMatrix(
        m=m, populations=populations, table=table, population_clamp_count=clamps
    )


def write_city_csvs(table: LocationTable, matrix: ContactMatrix, locations_path, trips_path) -> None:
    """Write the generated city in the standard CSV schemas.

    Daily counts are emitted at a single nominal hour; the generator
    does not model within-day structure.
    """
    with open(locations_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "lat", "lon"])
        for loc in table.locations:
            writer.writerow([loc.id, repr(loc.lat), repr(loc.lon)])
    with open(trips_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin", "destination", "hour", "count"])
        dest_idx, origin_idx = np.nonzero(matrix.m)
        for j, k in zip(dest_idx, origin_idx):
            writer.writerow([table.ids[k], table.ids[j], 8, int(matrix.m[j, k])])

