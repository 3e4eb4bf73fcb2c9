"""Trip ingestion, contact matrix construction, and network statistics.

The city's file formats live here alone: the locations and trips CSVs
(headers ``LOCATION_COLUMNS`` and ``TRIP_COLUMNS``, written by
``write_city_csvs``), the matrix ``.npz`` and the network statistics JSON.

The contact matrix is oriented as ``m[destination, origin]``: entry
``m[j, k]`` is the number of daily trips from location ``k`` into
location ``j``. Self-flows (the diagonal) are retained because they
enter the population balance. A matrix keeps only its nonzero entries;
the builders (``build_contact_matrix``, ``matrix_from_flows``,
``load_matrix_npz``, and ``generate_synthetic_city`` in ``synthcity``)
derive the populations from a dense array's sums and then drop it, and a
dense ``m`` is rebuilt only when it is read (see ``ContactMatrix``).
"""

from __future__ import annotations

import csv
import json
import logging
import zipfile
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


@dataclass(frozen=True, slots=True)
class TripRecord:
    """Directed movement count between two locations within one hour slot."""

    origin: str
    destination: str
    hour: int
    count: int


class LocationTable:
    """Indexed set of locations, kept as columns: ``ids`` (a list of
    strings), ``lat`` and ``lon`` (float arrays, decimal degrees).

    The constructor is the one place that checks locations: it takes one
    string id and one lat and one lon per location, rejects repeated ids,
    rejects coordinates that are not real numbers before it converts them
    to float, and rejects any lat outside [-90, 90] or lon outside
    [-180, 180], NaN included. The columns are copied.
    """

    def __init__(self, ids, lat, lon):
        self.ids = ids = list(ids)
        not_str = [i for i in ids if not isinstance(i, str)]
        if not_str:
            raise ValidationError(f"location ids must be strings, got {not_str[0]!r}")
        lat, lon = np.asarray(lat), np.asarray(lon)
        _require_real("lat", lat)
        _require_real("lon", lon)
        self.lat = lat = lat.astype(float)
        self.lon = lon = lon.astype(float)
        if lat.shape != (len(ids),) or lon.shape != (len(ids),):
            raise ValidationError(f"{len(ids)} location ids, but lat has shape {lat.shape} and lon {lon.shape}")
        errors = _coordinate_errors(ids, lat, lon)
        if errors:
            raise ValidationError(errors[0][1])
        self.index = {loc_id: i for i, loc_id in enumerate(ids)}
        if len(self.index) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate location ids: {dupes[:5]}")

    def __len__(self):
        return len(self.ids)

    @property
    def distance_matrix(self) -> np.ndarray:
        """Pairwise haversine distances in km, computed on each access."""
        return haversine_km(self.lat[:, None], self.lon[:, None], self.lat[None, :], self.lon[None, :])


def _require_real(name: str, values: np.ndarray) -> None:
    # strings fail comparisons with a traceback, or parse in a float
    # conversion; complex numbers pass comparisons, or lose their
    # imaginary part in a float conversion
    if values.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must hold real numbers (bool, integer or float), got dtype {values.dtype}")


def _coordinate_errors(ids, lat: np.ndarray, lon: np.ndarray) -> list:
    """(position, message) for each location whose lat is outside
    [-90, 90] or, failing that, whose lon is outside [-180, 180], in
    position order. NaN is outside both ranges."""
    lat_bad = ~(np.abs(lat) <= 90.0)
    lon_bad = ~(np.abs(lon) <= 180.0)
    errors = []
    for i in np.flatnonzero(lat_bad | lon_bad).tolist():
        name, value, bound = ("lat", lat[i], 90) if lat_bad[i] else ("lon", lon[i], 180)
        errors.append((i, f"location {ids[i]!r}: {name} {float(value)} outside [-{bound}, {bound}]"))
    return errors


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in kilometers, vectorized over array inputs:
    ``_haversine_rad`` on the radians of the coordinates and the cosines
    of the latitudes."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    d = _haversine_rad(p1, np.radians(lon1), np.cos(p1), p2, np.radians(lon2), np.cos(p2))
    return d if d.ndim else d[()]


def _haversine_rad(p1, l1, cos_p1, p2, l2, cos_p2) -> np.ndarray:
    """Great-circle distance in kilometers between points given in
    radians, with the cosines of their latitudes, as an array.

    Evaluates 2 R asin(sqrt(sin^2(dp/2) + cos(p1) cos(p2) sin^2(dl/2))) in
    two broadcast-shaped buffers updated in place, so a pairwise matrix
    costs two n x n arrays rather than one per intermediate. Every step is
    elementwise, so inputs gathered from per-location radians and cosines
    give the same bits as inputs converted point by point.
    """
    dl = np.asarray(l2 - l1)
    dl /= 2.0
    np.sin(dl, out=dl)
    np.square(dl, out=dl)
    a = cos_p1 * cos_p2
    a *= dl
    del dl
    d = np.asarray(p2 - p1)
    d /= 2.0
    np.sin(d, out=d)
    np.square(d, out=d)
    d += a
    del a
    np.clip(d, 0.0, 1.0, out=d)
    np.sqrt(d, out=d)
    np.arcsin(d, out=d)
    d *= 2.0 * EARTH_RADIUS_KM
    return d


class _Dense:
    """The ``m`` field of ``ContactMatrix``: the dense n x n counts, built
    from the matrix's ``nonzero`` entries by one scatter on first read and
    kept in the reading matrix's ``__dict__``, where later reads find it
    as a plain attribute. It defines no ``__set__``, so the dataclass
    ``__init__`` puts the array it is given there too, and
    ``__post_init__`` takes it out again. Read on the class, it raises
    AttributeError, so that the dataclass field has no default."""

    def __get__(self, matrix, owner=None):
        if matrix is None:
            raise AttributeError("m")
        index, values = matrix.nonzero
        n = matrix.n
        m = np.zeros((n, n), dtype=values.dtype)
        m.reshape(-1)[index] = values
        vars(matrix)["m"] = _read_only(m)[0]
        return m


@dataclass(frozen=True)
class ContactMatrix:
    """Daily origin-destination trip counts plus derived populations.

    ``m[j, k]`` holds trips from location ``k`` to location ``j``. The
    matrix keeps only its nonzero entries, ``nonzero``: their row-major
    flat indices (int32 when the matrix has fewer than 2**31 entries) and
    their values in the dtype of the ``m`` it was given, 12 bytes an
    entry at float64. ``m`` is still an init field that takes and returns
    a dense array: the array given is read once and dropped, and the
    first read of ``m`` rebuilds it by one scatter, the same values in
    the same dtype (a count of -0.0 reads back as 0.0), and keeps it on
    the matrix that read it (``_Dense``). ``dataclasses.replace`` reads
    ``m`` and builds a checked matrix; ``copy`` shares the entries and
    reads none of it.

    The matrix and population vector are immutable so simulation
    replicates can share one instance without copying. Both arrays must
    be of a real-number dtype (bool, integer or floating). Counts must be
    finite and >= 0, checked over the entries alone; populations must be
    finite and at least POPULATION_FLOOR, which the engine relies on to
    keep S and I at zero or above.
    """

    m: np.ndarray = _Dense()
    populations: np.ndarray
    table: LocationTable
    population_clamp_count: int = 0
    nonzero: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = vars(self).pop("m")
        for name, values in (("m", m), ("populations", self.populations)):
            _require_real(name, values)
        n = len(self.table)
        if m.shape != (n, n):
            raise ValidationError(f"matrix shape {m.shape} does not match {n} locations")
        index = np.flatnonzero(m != 0)  # NumPy finds the nonzeros of a mask faster than of numbers
        values = m.take(index)
        if m.size < 2**31:
            index = index.astype(np.int32)
        self._store(index, values)

    def _store(self, index: np.ndarray, values: np.ndarray) -> None:
        """Keep ``index`` and ``values`` as ``nonzero`` once the counts and
        the populations are checked."""
        # min() and max() are NaN if any count is
        if values.size and not (values.min() >= 0.0 and values.max() < np.inf):
            raise ValidationError("contact matrix has negative, infinite or NaN entries")
        n = len(self.table)
        if self.populations.shape != (n,):
            raise ValidationError(f"populations shape {self.populations.shape} does not match {n} locations")
        if not (np.all(self.populations >= POPULATION_FLOOR) and np.all(np.isfinite(self.populations))):
            raise ValidationError(f"populations must be finite and at least {POPULATION_FLOOR}")
        self.populations.flags.writeable = False
        vars(self)["nonzero"] = _read_only(index, values)

    def _with_nonzero(self, index: np.ndarray, values: np.ndarray) -> "ContactMatrix":
        """A checked matrix of the nonzero entries ``index`` and ``values``,
        with this matrix's table, populations (the same read-only array)
        and clamp count, and none of its caches."""
        out = object.__new__(type(self))
        vars(out).update(
            populations=self.populations, table=self.table, population_clamp_count=self.population_clamp_count
        )
        out._store(index, values)
        return out

    def copy(self) -> "ContactMatrix":
        """A matrix of its own that shares this one's entries, table and
        populations, without reading ``m``: it holds no dense array and
        none of this matrix's caches, so whatever is computed on it is
        freed with it."""
        return self._with_nonzero(*self.nonzero)

    @property
    def n(self) -> int:
        return len(self.table)

    @property
    def distance_matrix(self) -> np.ndarray:
        return self.table.distance_matrix

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat indices, distances in km) of the nonzero entries, row-major.

        The indices are ``nonzero``'s own array; ``trip_counts`` holds
        their counts. Distances are computed for these entries only and
        equal ``distance_matrix`` there, so calibration, histograms and
        thinning never build the dense n x n distance matrix. The radians
        of every location's coordinates and the cosine of its latitude are
        computed once per location, in this call, and gathered per entry
        into ``haversine_km``'s kernel: the same elementwise steps on the
        same values, so the same bits, without converting or taking a
        cosine per entry. Nothing is kept on the table. A matrix made by
        ``with_entry_counts`` is born with this cache set: its entries are
        a subset of its parent's, so it inherits their distances and never
        calls the haversine.
        The cache lives as long as the matrix: a sweep or replay computes
        it on a ``copy`` that it owns, so the caller's matrix is left as it
        was.
        """
        index = self.nonzero[0]
        rows, cols = np.divmod(index, self.n)
        lat, lon = np.radians(self.table.lat), np.radians(self.table.lon)
        cos_lat = np.cos(lat)
        distances = _haversine_rad(
            lat.take(rows), lon.take(rows), cos_lat.take(rows), lat.take(cols), lon.take(cols), cos_lat.take(cols)
        )
        return _read_only(index, distances)

    @cached_property
    def trip_counts(self) -> np.ndarray:
        """The counts at ``entries``, in their order, as int64 whole trips:
        the one place that checks that every count is a whole number, once
        per matrix. Raises ValueError otherwise, since calibration, the
        distance histogram and thinning all weigh whole trips; a sweep and
        a replay ask for it before anything is calibrated or run. A matrix
        made by ``with_entry_counts`` is born with it."""
        values = self.nonzero[1]
        counts = values.astype(np.int64)  # a fractional count is cut, so it differs
        if not np.array_equal(counts, values):
            raise ValueError("matrix entries must be integer trip counts for thinning")
        return _read_only(counts)[0]

    @cached_property
    def inter_location_trips(self) -> tuple[np.ndarray, np.ndarray]:
        """(distances in km, counts as floats) of the nonzero off-diagonal
        entries, row-major: the trips that calibration and the distance
        histogram weigh. Taken from ``entries`` and ``trip_counts`` once
        per matrix; self-flows are left out, since they carry no
        distance."""
        index, distances = self.entries
        off = index % (self.n + 1) != 0  # diagonal flat indices are multiples of n + 1
        return _read_only(distances[off], self.trip_counts[off].astype(float))

    def with_entry_counts(self, counts: np.ndarray) -> "ContactMatrix":
        """A matrix whose count at each of this matrix's ``entries`` is
        ``counts``, an integer array in the same order, and zero
        elsewhere, with this matrix's table, populations (the same
        read-only array) and clamp count.

        The positions where ``counts`` is nonzero are found once, and the
        indices, distances and counts are taken by them. The matrix keeps
        the kept indices and counts (as float64, the dtype of its ``m``)
        as its ``nonzero``, and is born with its ``entries`` (those indices
        and their distances) and ``trip_counts`` (the counts as int64), so
        it never builds an n^2 array until ``m`` is read. A negative count
        is kept too, and the matrix's own check rejects it.
        """
        if counts.dtype.kind not in "iu":
            raise TypeError(f"entry counts must be an integer array, got dtype {counts.dtype}")
        index, distances = self.entries
        if counts.shape != index.shape:
            raise ValueError(f"{index.size} entries, but counts has shape {counts.shape}")
        kept = np.flatnonzero(counts != 0)  # NumPy finds the nonzeros of a mask faster than of integers
        index, counts = index.take(kept), counts.take(kept)
        out = self._with_nonzero(index, counts.astype(float))
        vars(out)["entries"] = _read_only(index, distances.take(kept))
        vars(out)["trip_counts"] = _read_only(counts.astype(np.int64, copy=False))[0]
        return out

    def cross_trips(self) -> float:
        """Total daily trips between distinct locations."""
        return float(self.m.sum() - np.trace(self.m))


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


LOCATION_COLUMNS = ("id", "lat", "lon")
TRIP_COLUMNS = ("origin", "destination", "hour", "count")


def _dict_reader(fh, path, expected: tuple) -> csv.DictReader:
    """A DictReader whose header must read ``expected`` once stripped of
    padding; rows are keyed by the stripped names."""
    reader = csv.DictReader(fh)
    if reader.fieldnames is None or tuple(c.strip() for c in reader.fieldnames) != expected:
        raise ValidationError(f"{path}: expected header '{','.join(expected)}', got {reader.fieldnames}")
    reader.fieldnames = list(expected)
    return reader


def field_count_error(row: dict, fieldnames) -> str | None:
    """The error of a ``csv.DictReader`` row that does not hold one field
    per name in ``fieldnames``, its header, or None. DictReader keeps such
    a row: it lists the extra fields under the key None and gives each
    missing field the value None. The missing fields are the last ones,
    so two lookups tell a well-formed row."""
    if None not in row and row[fieldnames[-1]] is not None:
        return None
    width = len(fieldnames)
    got = width + len(row[None]) if None in row else sum(v is not None for v in row.values())
    return f"expected {width} fields, got {got}"


def load_locations(path) -> LocationTable:
    """Read a ``id,lat,lon`` CSV into LocationTable columns; ids are
    stripped of padding. Every row that does not parse or is out of range
    is reported in one ValidationError, by row number and in row order.
    A row's number is the file line it ends on, so blank lines, which
    are skipped, are counted."""
    ids, lat, lon, rownums, errors = [], [], [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _dict_reader(fh, path, LOCATION_COLUMNS)
        for row in reader:
            rownum = reader.line_num
            wrong_width = field_count_error(row, LOCATION_COLUMNS)
            if wrong_width:
                errors.append((rownum, wrong_width))
                continue
            try:
                loc_id, la, lo = row["id"].strip(), float(row["lat"]), float(row["lon"])
            except ValueError as exc:
                errors.append((rownum, str(exc)))
                continue
            ids.append(loc_id)
            lat.append(la)
            lon.append(lo)
            rownums.append(rownum)
    lat, lon = np.array(lat), np.array(lon)
    errors += [(rownums[i], msg) for i, msg in _coordinate_errors(ids, lat, lon)]
    raise_if_errors(path, [f"row {rownum}: {msg}" for rownum, msg in sorted(errors)])
    return LocationTable(ids, lat, lon)


def load_trips(trip_file, locations_file):
    """Load and validate trips against a location table.

    Ids are stripped of padding and matched against the table; records
    carry the table's own id strings. Rows for one (origin, destination,
    hour), as in concatenated shards, add up: their counts are summed
    into one record. A count must lie in [1, 2**53]: 2**53 is the largest
    integer that a float count holds exactly. Any malformed row, one
    with too few or too many fields among them, is collected and
    reported by the file line it ends on; one or more malformed rows
    abort the load with a message identifying them. So does any (origin, destination)
    whose daily total, over every hour and duplicate row, exceeds 2**53,
    since its matrix entry could not hold it; the message names both ids.

    Returns (LocationTable, list of TripRecord).
    """
    table = load_locations(locations_file)
    index, ids = table.index, table.ids
    merged: dict[tuple, int] = {}
    errors = []
    n_rows = 0
    with open(trip_file, newline="", encoding="utf-8-sig") as fh:
        reader = _dict_reader(fh, trip_file, TRIP_COLUMNS)
        for row in reader:
            rownum = reader.line_num
            n_rows += 1
            wrong_width = field_count_error(row, TRIP_COLUMNS)
            if wrong_width:
                errors.append(f"row {rownum}: {wrong_width}")
                continue
            try:
                hour = int(row["hour"])
                count = int(row["count"])
                origin, destination = row["origin"].strip(), row["destination"].strip()
            except ValueError as exc:
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
            if count > 2**53:
                errors.append(f"row {rownum}: count above 2**53, the largest a float count holds exactly")
                continue
            key = (ids[k], ids[j], hour)
            merged[key] = merged.get(key, 0) + count
    raise_if_errors(trip_file, errors)
    if sum(merged.values()) > 2**53:  # else no daily total can be above it
        daily: dict[tuple, int] = {}
        for (o, d, _), count in merged.items():
            daily[o, d] = daily.get((o, d), 0) + count
        over = sorted(key for key, total in daily.items() if total > 2**53)
        if over:
            o, d = over[0]
            raise ValidationError(
                f"{trip_file}: {len(over)} (origin, destination) pair(s) with more than 2**53 daily trips, "
                f"the largest a float count holds exactly; first: {o!r} to {d!r}, {daily[o, d]} trips"
            )
    n_merged = n_rows - len(merged)
    if n_merged:
        log.info("%s: merged %d duplicate (origin, destination, hour) rows", trip_file, n_merged)
    trips = [TripRecord(o, d, h, c) for (o, d, h), c in sorted(merged.items())]
    return table, trips


def raise_if_errors(path, errors):
    """Raise one ValidationError that counts a file's row errors and quotes
    the first three, after logging the 4th to the 20th, so that each row
    reported is printed once; no-op when empty."""
    if errors:
        for msg in errors[3:20]:
            log.error("%s: %s", path, msg)
        head = "; ".join(errors[:3])
        raise ValidationError(f"{path}: {len(errors)} malformed row(s): {head}")


def write_city_csvs(table: LocationTable, matrix: ContactMatrix, locations_path, trips_path) -> None:
    """Write a city as the two CSVs that ``load_trips`` reads back: one
    row per location, and one trip row per entry of ``matrix.nonzero``, in
    row-major order, at hour 8, since a daily matrix has no within-day
    structure."""
    with open(locations_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOCATION_COLUMNS)
        for loc_id, lat, lon in zip(table.ids, table.lat.tolist(), table.lon.tolist()):
            writer.writerow([loc_id, repr(lat), repr(lon)])
    with open(trips_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIP_COLUMNS)
        index, counts = matrix.nonzero
        dest_idx, origin_idx = np.divmod(index, matrix.n)
        for j, k, count in zip(dest_idx.tolist(), origin_idx.tolist(), counts.tolist()):
            writer.writerow([table.ids[k], table.ids[j], 8, int(count)])


def build_contact_matrix(table: LocationTable, trips) -> ContactMatrix:
    """Aggregate hourly trip records into a daily contact matrix.

    Populations are derived from the daily flow balance (see
    ``derive_populations``) of the dense array the trips are summed into;
    the matrix keeps its nonzero entries only.
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
    is given. The matrix keeps the nonzero flows as float64 and none of
    ``m``.
    """
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if table is None:
        table = LocationTable([f"L{i:04d}" for i in range(n)], np.zeros(n), np.zeros(n))
    clamps = 0
    if populations is None:
        populations, clamps = derive_populations(m)
    else:
        populations = np.asarray(populations, dtype=float).copy()
    return ContactMatrix(m=m, populations=populations, table=table, population_clamp_count=clamps)


def network_stats(matrix: ContactMatrix) -> dict:
    """The ``network_stats.json`` dict: the number of locations ``n``, of
    directed inter-location edges ``e``, the mean per-location degree (in
    plus out, self-flow counted once) and its ``degree_histogram``."""
    m = matrix.m
    degrees = m.sum(axis=1) + m.sum(axis=0) - np.diagonal(m)
    return {
        "n": matrix.n,
        "e": int(np.count_nonzero(m) - np.count_nonzero(np.diagonal(m))),
        "mean_degree": float(degrees.mean()) if matrix.n else 0.0,
        "degree_histogram": degree_histogram(degrees),
    }


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


def write_network_stats(stats: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh, sort_keys=True, indent=2)
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
    """Read a matrix saved by ``save_matrix_npz``. Raises ValidationError,
    naming the file, if it is not a readable ``.npz`` archive (a single
    ``.npy`` array, a pickle, text, or an empty or truncated file), an
    array is missing or ``clamps`` is not one integer >= 0;
    ``LocationTable`` and ``ContactMatrix`` check the rest, and their
    errors are raised again with the file's name in front. The matrix
    keeps the nonzero entries of ``m`` in the file's dtype, so ``m`` reads
    back as the saved array."""
    with open(path, "rb") as fh:
        try:
            data = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile):
            data = None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValidationError(f"{path}: not a .npz archive of arrays")
        for key in ("m", "populations", "ids", "lat", "lon", "clamps"):
            if key not in data:
                raise ValidationError(f"{path}: matrix file lacks the array {key!r}")
        clamps = data["clamps"]
        if clamps.size != 1 or clamps.dtype.kind not in "iu" or clamps.item() < 0:
            raise ValidationError(f"{path}: clamps must hold one integer >= 0, got {clamps.tolist()!r}")
        try:
            table = LocationTable(data["ids"].tolist(), data["lat"], data["lon"])
            return ContactMatrix(
                m=data["m"],
                populations=data["populations"],
                table=table,
                population_clamp_count=clamps.item(),
            )
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from None
