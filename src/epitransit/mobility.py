"""Trip ingestion, contact matrix construction, and network statistics.

The contact matrix is oriented as ``m[destination, origin]``: entry
``m[j, k]`` is the number of daily trips from location ``k`` into
location ``j``. Self-flows (the diagonal) are retained because they
enter the population balance.
"""

from __future__ import annotations

import csv
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

log = logging.getLogger(__name__)

EARTH_RADIUS_KM = 6371.0
HOURS_PER_DAY = 24

# The population balance can go nonpositive for net-exporter locations;
# a floor keeps per-capita prevalence defined everywhere.
POPULATION_FLOOR = 1.0


class ValidationError(ValueError):
    """An input file or record failed validation."""


@dataclass(frozen=True)
class Location:
    """One location with geographic coordinates in decimal degrees."""

    id: str
    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValidationError(f"location {self.id!r}: lat {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValidationError(f"location {self.id!r}: lon {self.lon} outside [-180, 180]")


@dataclass(frozen=True, slots=True)
class TripRecord:
    """Directed movement count between two locations within one hour slot."""

    origin: str
    destination: str
    hour: int
    count: int


class LocationTable:
    """Indexed set of locations, kept as columns (``ids``, ``lat``,
    ``lon``), with cached pairwise distances."""

    def __init__(self, locations):
        ids, lat, lon = [], [], []
        for loc in locations:
            ids.append(loc.id)
            lat.append(loc.lat)
            lon.append(loc.lon)
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate location ids: {dupes[:5]}")
        self.ids = ids
        self.index = {loc_id: i for i, loc_id in enumerate(ids)}
        self.lat = np.array(lat, dtype=float)
        self.lon = np.array(lon, dtype=float)
        self._distance_matrix = None

    def __len__(self):
        return len(self.ids)

    @property
    def locations(self) -> list[Location]:
        """The locations as ``Location`` records, built on each access."""
        return [Location(i, float(a), float(o)) for i, a, o in zip(self.ids, self.lat, self.lon)]

    @property
    def distance_matrix(self) -> np.ndarray:
        """Pairwise haversine distances in km, computed once and cached."""
        if self._distance_matrix is None:
            d = haversine_km(
                self.lat[:, None], self.lon[:, None], self.lat[None, :], self.lon[None, :]
            )
            d.flags.writeable = False
            self._distance_matrix = d
        return self._distance_matrix


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in kilometers, vectorized over array inputs.

    Evaluates 2 R asin(sqrt(sin^2(dp/2) + cos(p1) cos(p2) sin^2(dl/2))) in
    two broadcast-shaped buffers updated in place, so a pairwise matrix
    costs two n x n arrays rather than one per intermediate.
    """
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dl = np.asarray(np.radians(lon2) - np.radians(lon1))
    dl /= 2.0
    np.sin(dl, out=dl)
    np.square(dl, out=dl)
    a = np.cos(p1) * np.cos(p2)
    a *= dl
    del dl
    d = np.asarray(np.radians(lat2) - np.radians(lat1))
    d /= 2.0
    np.sin(d, out=d)
    np.square(d, out=d)
    d += a
    del a
    np.clip(d, 0.0, 1.0, out=d)
    np.sqrt(d, out=d)
    np.arcsin(d, out=d)
    d *= 2.0 * EARTH_RADIUS_KM
    return d if d.ndim else d[()]


def trip_distance(a: Location, b: Location) -> float:
    """Great-circle distance in km between two locations."""
    return float(haversine_km(a.lat, a.lon, b.lat, b.lon))


@dataclass(frozen=True)
class ContactMatrix:
    """Daily origin-destination trip counts plus derived populations.

    ``m[j, k]`` holds trips from location ``k`` to location ``j``. The
    matrix and population vector are immutable so simulation replicates
    can share one instance without copying.
    """

    m: np.ndarray
    populations: np.ndarray
    table: LocationTable
    population_clamp_count: int = 0

    def __post_init__(self):
        if self.m.shape != (len(self.table), len(self.table)):
            raise ValidationError(
                f"matrix shape {self.m.shape} does not match {len(self.table)} locations"
            )
        if np.any(self.m < 0):
            raise ValidationError("contact matrix has negative entries")
        self.m.flags.writeable = False
        self.populations.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.table)

    @property
    def distance_matrix(self) -> np.ndarray:
        return self.table.distance_matrix

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat indices, distances in km) of the nonzero entries, row-major.

        Indices are int32 when the matrix has fewer than 2**31 entries;
        ``m.take(index)`` reads their counts, which are not cached.
        Distances are computed for these entries only and equal
        ``distance_matrix`` there, so calibration, histograms and thinning
        never fill the dense n x n distance cache.
        """
        index = np.flatnonzero(self.m)
        if self.m.size < 2**31:
            index = index.astype(np.int32)
        rows, cols = np.divmod(index, self.n)
        t = self.table
        distances = haversine_km(t.lat[rows], t.lon[rows], t.lat[cols], t.lon[cols])
        index.flags.writeable = False
        distances.flags.writeable = False
        return index, distances

    @contextmanager
    def entries_scope(self):
        """A block that owns the ``entries`` it computes: on leaving it,
        a cache that was not there on entry is dropped again, so the
        matrix keeps no more memory than it came in with."""
        cached = "entries" in self.__dict__
        try:
            yield self
        finally:
            if not cached:
                self.__dict__.pop("entries", None)

    def cross_trips(self) -> float:
        """Total daily trips between distinct locations."""
        return float(self.m.sum() - np.trace(self.m))


def _dict_reader(fh, path, expected: list) -> csv.DictReader:
    """A DictReader whose header must read ``expected`` once stripped of
    padding; rows are keyed by the stripped names."""
    reader = csv.DictReader(fh)
    if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != expected:
        raise ValidationError(f"{path}: expected header '{','.join(expected)}', got {reader.fieldnames}")
    reader.fieldnames = expected
    return reader


def load_locations(path) -> LocationTable:
    """Read a ``id,lat,lon`` CSV into a LocationTable; ids are stripped of
    padding."""
    locations = []
    errors = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _dict_reader(fh, path, ["id", "lat", "lon"])
        for rownum, row in enumerate(reader, start=2):
            try:
                locations.append(Location(row["id"].strip(), float(row["lat"]), float(row["lon"])))
            except (TypeError, ValueError, ValidationError) as exc:
                errors.append(f"row {rownum}: {exc}")
    _raise_if_errors(path, errors)
    return LocationTable(locations)


def load_trips(trip_file, locations_file):
    """Load and validate trips against a location table.

    Ids are stripped of padding and matched against the table; records
    carry the table's own id strings. Duplicate (origin, destination,
    hour) rows are merged by summing counts so sharded inputs ingest
    idempotently. Any malformed row is collected and reported; one or
    more malformed rows abort the load with a message identifying them.

    Returns (LocationTable, list of TripRecord).
    """
    table = load_locations(locations_file)
    index, ids = table.index, table.ids
    merged: dict[tuple, int] = {}
    errors = []
    n_rows = 0
    with open(trip_file, newline="", encoding="utf-8") as fh:
        reader = _dict_reader(fh, trip_file, ["origin", "destination", "hour", "count"])
        for rownum, row in enumerate(reader, start=2):
            n_rows += 1
            try:
                hour = int(row["hour"])
                count = int(row["count"])
                origin, destination = row["origin"].strip(), row["destination"].strip()
            except (TypeError, ValueError) as exc:
                errors.append(f"row {rownum}: unparseable ({exc})")
                continue
            k = index.get(origin)
            if k is None:
                errors.append(f"row {rownum}: unknown origin {origin!r}")
                continue
            j = index.get(destination)
            if j is None:
                errors.append(f"row {rownum}: unknown destination {destination!r}")
                continue
            if not 0 <= hour <= 23:
                errors.append(f"row {rownum}: hour {hour} outside 0-23")
                continue
            if count < 1:
                errors.append(f"row {rownum}: non-positive count {count}")
                continue
            key = (ids[k], ids[j], hour)
            merged[key] = merged.get(key, 0) + count
    _raise_if_errors(trip_file, errors)
    n_merged = n_rows - len(merged)
    if n_merged:
        log.info("%s: merged %d duplicate (origin, destination, hour) rows", trip_file, n_merged)
    trips = [TripRecord(o, d, h, c) for (o, d, h), c in sorted(merged.items())]
    return table, trips


def _raise_if_errors(path, errors):
    if errors:
        for msg in errors[:20]:
            log.error("%s: %s", path, msg)
        head = "; ".join(errors[:3])
        raise ValidationError(f"{path}: {len(errors)} malformed row(s): {head}")


def build_contact_matrix(table: LocationTable, trips) -> ContactMatrix:
    """Aggregate hourly trip records into a daily contact matrix.

    Populations are derived from the daily flow balance (see
    ``derive_populations``).
    """
    n = len(table)
    m = np.zeros((n, n), dtype=float)
    for trip in trips:
        j = table.index[trip.destination]
        k = table.index[trip.origin]
        m[j, k] += trip.count
    populations, clamps = derive_populations(m)
    return ContactMatrix(m=m, populations=populations, table=table, population_clamp_count=clamps)


def derive_populations(m: np.ndarray):
    """Populations from the daily balance (self + inflow - outflow) / 24.

    Values below POPULATION_FLOOR (including negatives from net
    exporters) are clamped to the floor; clamp events are counted and
    logged rather than treated as failures.

    Returns (populations, clamp_count).
    """
    inflow = m.sum(axis=1)
    outflow = m.sum(axis=0)
    raw = (np.diagonal(m) + inflow - outflow) / HOURS_PER_DAY
    clamps = int(np.count_nonzero(raw < POPULATION_FLOOR))
    if clamps:
        log.warning("population floor applied to %d location(s)", clamps)
    return np.maximum(raw, POPULATION_FLOOR), clamps


def matrix_from_flows(m, populations=None, table=None) -> ContactMatrix:
    """Build a ContactMatrix from a raw flow array.

    Convenience for synthetic inputs. Populations default to the flow
    balance; a table of placeholder coordinates is synthesized when none
    is given.
    """
    m = np.ascontiguousarray(np.asarray(m, dtype=float).copy())
    n = m.shape[0]
    if table is None:
        table = LocationTable(Location(f"L{i:04d}", 0.0, 0.0) for i in range(n))
    clamps = 0
    if populations is None:
        populations, clamps = derive_populations(m)
    else:
        populations = np.asarray(populations, dtype=float).copy()
    return ContactMatrix(m=m, populations=populations, table=table, population_clamp_count=clamps)


@dataclass(frozen=True)
class NetworkStats:
    """Degree statistics of the daily contact network."""

    num_locations: int
    num_edges: int
    degrees: np.ndarray = field(repr=False)
    mean_degree: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.num_locations,
            "e": self.num_edges,
            "mean_degree": self.mean_degree,
            "degree_histogram": degree_histogram(self.degrees),
        }


def network_stats(matrix: ContactMatrix) -> NetworkStats:
    """Per-location degree (in plus out, self-flow counted once) and totals."""
    m = matrix.m
    degrees = m.sum(axis=1) + m.sum(axis=0) - np.diagonal(m)
    num_edges = int(np.count_nonzero(m) - np.count_nonzero(np.diagonal(m)))
    mean_degree = float(degrees.mean()) if matrix.n else 0.0
    return NetworkStats(
        num_locations=matrix.n,
        num_edges=num_edges,
        degrees=degrees,
        mean_degree=mean_degree,
    )


def degree_histogram(degrees: np.ndarray) -> list:
    """Log-binned degree counts as [bin_lo, bin_hi, count] triples.

    The first bin [0, 1) collects isolated locations; subsequent bins
    double in width.
    """
    degrees = np.asarray(degrees, dtype=float)
    out = [[0.0, 1.0, int(np.count_nonzero(degrees < 1.0))]]
    if degrees.size == 0 or degrees.max() < 1.0:
        return out
    hi = 1.0
    while hi <= degrees.max():
        lo, hi = hi, hi * 2.0
        out.append([lo, hi, int(np.count_nonzero((degrees >= lo) & (degrees < hi)))])
    return out


def write_network_stats(stats: NetworkStats, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stats.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def save_matrix_npz(matrix: ContactMatrix, path) -> None:
    """Persist a matrix with its location table to a .npz file."""
    np.savez_compressed(
        path,
        m=matrix.m,
        populations=matrix.populations,
        ids=np.array(matrix.table.ids),
        lat=matrix.table.lat,
        lon=matrix.table.lon,
        clamps=np.array([matrix.population_clamp_count]),
    )


def load_matrix_npz(path) -> ContactMatrix:
    with np.load(path, allow_pickle=False) as data:
        table = LocationTable(
            Location(str(i), float(la), float(lo))
            for i, la, lo in zip(data["ids"], data["lat"], data["lon"])
        )
        return ContactMatrix(
            m=data["m"].copy(),
            populations=data["populations"].copy(),
            table=table,
            population_clamp_count=int(data["clamps"][0]),
        )
