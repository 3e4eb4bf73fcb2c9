"""Trip ingestion, contact matrix construction, and network statistics.

The city's file formats live here alone: the locations and trips CSVs
(headers ``LOCATION_COLUMNS`` and ``TRIP_COLUMNS``, written by
``write_city_csvs``), the matrix ``.npz`` and the network statistics JSON.
Every CSV is read by ``csv.reader`` through ``csv_rows``; ``load_trips``
appends each trip row's table indices, hour and count to typed columns and
merges them by one sort.

The contact matrix is oriented as ``m[destination, origin]``: entry
``m[j, k]`` is the number of daily trips from location ``k`` into
location ``j``. Self-flows (the diagonal) are retained because they
enter the population balance. A matrix keeps only its nonzero entries,
whole counts below 2**32 in 4 bytes (see ``ContactMatrix``); the builders
(``build_contact_matrix``, ``matrix_from_flows``, ``load_matrix_npz``, and
``generate_synthetic_city`` in ``synthcity``) derive the populations from a
dense array's sums and then drop it, and a dense ``m`` is rebuilt only when
it is read.
"""

from __future__ import annotations

import csv
import json
import logging
import zipfile
from array import array
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
        m = np.zeros((n, n), dtype=matrix.dtype)
        m.reshape(-1)[index] = values
        vars(matrix)["m"] = _read_only(m)[0]
        return m


@dataclass(frozen=True)
class ContactMatrix:
    """Daily origin-destination trip counts plus derived populations.

    ``m[j, k]`` holds trips from location ``k`` to location ``j``. The
    matrix keeps only its nonzero entries, ``nonzero``: their row-major
    flat indices (int32 when the matrix has fewer than 2**31 entries) and
    their values, and ``dtype``, the dtype of the ``m`` it was given. The
    values are uint32 when ``dtype`` takes more than 4 bytes and every
    value is a whole number in [0, 2**32), so an entry of whole trip
    counts takes 8 bytes instead of 12 at float64; any other values are
    kept in ``dtype`` (``_stored``). ``m`` is still an init field that
    takes and returns a dense array: the array given is read once and
    dropped, and the first read of ``m`` rebuilds it by one scatter in
    ``dtype``, the same values bit for bit (a count of -0.0 reads back as
    0.0), and keeps it on the matrix that read it (``_Dense``).
    ``dataclasses.replace`` reads ``m`` and builds a checked matrix;
    ``copy`` shares the entries and reads none of it.

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
    dtype: np.dtype = field(init=False, repr=False, compare=False)

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
        self._store(index, values, m.dtype)

    def _store(self, index: np.ndarray, values: np.ndarray, dtype: np.dtype) -> None:
        """Keep ``index`` and ``values`` as ``nonzero``, and ``dtype`` as the
        dtype of ``m``, once the counts and the populations are checked."""
        # min() and max() are NaN if any count is
        if values.size and not (values.min() >= 0.0 and values.max() < np.inf):
            raise ValidationError("contact matrix has negative, infinite or NaN entries")
        n = len(self.table)
        if self.populations.shape != (n,):
            raise ValidationError(f"populations shape {self.populations.shape} does not match {n} locations")
        if not (np.all(self.populations >= POPULATION_FLOOR) and np.all(np.isfinite(self.populations))):
            raise ValidationError(f"populations must be finite and at least {POPULATION_FLOOR}")
        self.populations.flags.writeable = False
        vars(self)["dtype"] = dtype
        vars(self)["nonzero"] = _read_only(index, _stored(values, dtype))

    def _with_nonzero(self, index: np.ndarray, values: np.ndarray, dtype: np.dtype) -> "ContactMatrix":
        """A checked matrix of the nonzero entries ``index`` and ``values``
        of an ``m`` of ``dtype``, with this matrix's table, populations
        (the same read-only array) and clamp count, and none of its
        caches."""
        out = object.__new__(type(self))
        vars(out).update(
            populations=self.populations, table=self.table, population_clamp_count=self.population_clamp_count
        )
        out._store(index, values, dtype)
        return out

    def copy(self) -> "ContactMatrix":
        """A matrix of its own that shares this one's entries, table and
        populations, without reading ``m``: it holds no dense array and
        none of this matrix's caches, so whatever is computed on it is
        freed with it."""
        return self._with_nonzero(*self.nonzero, self.dtype)

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
        the kept indices and counts as its ``nonzero``, with float64 as the
        dtype of its ``m``, and is born with its ``entries`` (those indices
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
        out = self._with_nonzero(index, counts, np.dtype(float))
        vars(out)["entries"] = _read_only(index, distances.take(kept))
        vars(out)["trip_counts"] = _read_only(counts.astype(np.int64, copy=False))[0]
        return out

    def cross_trips(self) -> float:
        """Total daily trips between distinct locations."""
        return float(self.m.sum() - np.trace(self.m))


def _stored(values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The values that a matrix of ``dtype`` keeps for ``values``, which
    are checked to be >= 0: uint32 if ``dtype`` takes more than 4 bytes
    and every value is a whole number below 2**32, else ``values`` in
    ``dtype``. The range is checked before the cast, so no value
    overflows it."""
    if dtype.itemsize > 4 and (values.size == 0 or values.max() < 2**32):
        whole = values.astype(np.uint32, copy=False)
        if np.array_equal(whole, values):  # a fractional value is cut, so it differs
            return whole
    return values.astype(dtype, copy=False)


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


LOCATION_COLUMNS = ("id", "lat", "lon")
TRIP_COLUMNS = ("origin", "destination", "hour", "count")

# A merged record of ``load_trips``: origin and destination are indices
# into the location table.
TRIP_DTYPE = np.dtype([("origin", np.int32), ("destination", np.int32), ("hour", np.uint8), ("count", np.int64)])

# Trip counts are summed as their bits above and below bit 27. A count of
# at most 2**53 has both parts below 2**27, so the int64 sums of fewer than
# 2**36 rows are exact, and a total above 2**53 is found without wrapping.
_LOW_BITS = 27
_LOW_MASK = (1 << _LOW_BITS) - 1


def csv_reader(fh, path, header: tuple):
    """A ``csv.reader`` of ``fh`` past its header row, which must read
    ``header`` once its names are stripped of padding."""
    reader = csv.reader(fh)
    got = next(reader, None)
    if got is None or tuple(c.strip() for c in got) != header:
        raise ValidationError(f"{path}: expected header '{','.join(header)}', got {got}")
    return reader


def csv_rows(reader, width: int, errors: list):
    """(file line, fields) of each row that ``reader``, a ``csv.reader``,
    yields with ``width`` fields. A row's line is the one it ends on;
    blank lines, which it yields as no fields, are skipped but counted. A
    row of any other width is noted in ``errors`` as (line, message)."""
    for row in reader:
        if len(row) == width:
            yield reader.line_num, row
        elif row:
            errors.append((reader.line_num, f"expected {width} fields, got {len(row)}"))


def load_locations(path) -> LocationTable:
    """Read a ``id,lat,lon`` CSV into LocationTable columns; ids are
    stripped of padding. Every row that does not parse or is out of range
    is reported in one ValidationError, by row number and in row order
    (see ``csv_rows``)."""
    ids, lat, lon, rownums, errors = [], [], [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for rownum, (loc_id, la, lo) in csv_rows(csv_reader(fh, path, LOCATION_COLUMNS), 3, errors):
            try:
                la, lo = float(la), float(lo)
            except ValueError as exc:
                errors.append((rownum, str(exc)))
                continue
            ids.append(loc_id.strip())
            lat.append(la)
            lon.append(lo)
            rownums.append(rownum)
    lat, lon = np.array(lat), np.array(lon)
    errors += [(rownums[i], msg) for i, msg in _coordinate_errors(ids, lat, lon)]
    raise_if_errors(path, sorted(errors))
    return LocationTable(ids, lat, lon)


def load_trips(trip_file, locations_file):
    """Load and validate trips against a location table.

    Each row is checked as it is read: its hour and count must parse as
    integers, its ids, stripped of padding, must be in the table, its hour
    must lie in 0-23 and its count in [1, 2**53], since 2**53 is the
    largest integer that a float count holds exactly. A good row's table
    indices, hour and count are appended to typed columns. Every bad row,
    one with too few or too many fields among them, is reported in one
    ValidationError by the file line it ends on (see ``csv_rows``).

    Rows for one (origin, destination, hour), as in concatenated shards,
    add up: the columns are merged by one sort of their keys, and the
    counts of each key are summed exactly. So are the daily totals of each
    (origin, destination), over every hour and duplicate row; if any is
    above 2**53, since its matrix entry could not hold it, the load fails
    with a message that counts such pairs and names the first, in the
    order of its ids, with its total.

    Returns (LocationTable, trips): ``trips`` is an array of TRIP_DTYPE
    records, one per distinct (origin, destination, hour), in the order of
    their table indices and hour, with the summed count.
    """
    table = load_locations(locations_file)
    index = table.index
    origins, destinations, hours, counts = array("i"), array("i"), array("B"), array("q")
    errors = []
    with open(trip_file, newline="", encoding="utf-8-sig") as fh:
        for rownum, (origin, destination, hour, count) in csv_rows(csv_reader(fh, trip_file, TRIP_COLUMNS), 4, errors):
            try:
                hour, count = int(hour), int(count)
            except ValueError as exc:
                errors.append((rownum, f"unparseable ({exc})"))
                continue
            origin, destination = origin.strip(), destination.strip()
            k = index.get(origin)
            if k is None:
                errors.append((rownum, f"unknown origin {origin!r}"))
                continue
            j = index.get(destination)
            if j is None:
                errors.append((rownum, f"unknown destination {destination!r}"))
                continue
            if not 0 <= hour <= 23:
                errors.append((rownum, f"hour {hour} outside 0-23"))
                continue
            if count < 1:
                errors.append((rownum, f"non-positive count {count}"))
                continue
            if count > 2**53:
                errors.append((rownum, "count above 2**53, the largest a float count holds exactly"))
                continue
            origins.append(k)
            destinations.append(j)
            hours.append(hour)
            counts.append(count)
    raise_if_errors(trip_file, errors)
    return table, _merge_trips(trip_file, table, origins, destinations, hours, counts)


def _merge_trips(trip_file, table: LocationTable, origins, destinations, hours, counts) -> np.ndarray:
    """The TRIP_DTYPE records of ``load_trips``'s checked columns, one per
    (origin, destination, hour) key with the sum of its counts; raises
    ValidationError if a pair's daily total is above 2**53."""
    n = len(table)
    key = np.asarray(origins, dtype=np.int64) * n
    key += np.asarray(destinations)
    key *= HOURS_PER_DAY
    key += np.asarray(hours)
    order = np.argsort(key)
    key = key.take(order)
    counts = np.asarray(counts).take(order)
    del order  # lowers the ingest's peak memory
    starts = _run_starts(key)
    high, low = _exact_sums(counts >> _LOW_BITS, counts & _LOW_MASK, starts)
    pairs, hour = np.divmod(key.take(starts), HOURS_PER_DAY)
    pair_starts = _run_starts(pairs)
    pair_high, pair_low = _exact_sums(high, low, pair_starts)
    # 2**53 is 2**26 in the high part: a total is above it if its high part
    # is, or if it equals 2**26 with a low part left over
    over = np.flatnonzero(pair_high + (pair_low > 0) > 1 << (53 - _LOW_BITS))
    if over.size:
        ids = table.ids
        daily = {
            (ids[pair // n], ids[pair % n]): (h << _LOW_BITS) + lo
            for pair, h, lo in zip(
                pairs.take(pair_starts.take(over)).tolist(), pair_high.take(over).tolist(), pair_low.take(over).tolist()
            )
        }
        o, d = min(daily)
        raise ValidationError(
            f"{trip_file}: {len(daily)} (origin, destination) pair(s) with more than 2**53 daily trips, "
            f"the largest a float count holds exactly; first: {o!r} to {d!r}, {daily[o, d]} trips"
        )
    n_merged = counts.size - starts.size
    if n_merged:
        log.info("%s: merged %d duplicate (origin, destination, hour) rows", trip_file, n_merged)
    trips = np.empty(starts.size, TRIP_DTYPE)
    trips["origin"], trips["destination"] = np.divmod(pairs, n)
    trips["hour"] = hour
    high <<= _LOW_BITS
    high += low  # each key's sum is at most its pair's daily total, so at most 2**53
    trips["count"] = high
    return trips


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """The positions where a run of equal values begins in sorted ``keys``."""
    return np.flatnonzero(np.diff(keys, prepend=-1))


def _exact_sums(high: np.ndarray, low: np.ndarray, starts: np.ndarray) -> tuple:
    """The sums of ``high * 2**27 + low`` over the runs that begin at
    ``starts``, as the same (high, low) split with low below 2**27."""
    high, low = np.add.reduceat(high, starts), np.add.reduceat(low, starts)
    high += low >> _LOW_BITS
    low &= _LOW_MASK
    return high, low


def raise_if_errors(path, errors):
    """Raise one ValidationError that counts a file's row errors, given as
    (row number, message) in the order to report them, and quotes the
    first three, after logging the 4th to the 20th, so that each row
    reported is printed once; no-op when empty."""
    if errors:
        quoted = [f"row {rownum}: {msg}" for rownum, msg in errors[:20]]
        for msg in quoted[3:]:
            log.error("%s: %s", path, msg)
        head = "; ".join(quoted[:3])
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


def build_contact_matrix(table: LocationTable, trips: np.ndarray) -> ContactMatrix:
    """Aggregate the hourly trip records of ``load_trips`` into a daily
    contact matrix.

    Every record's count is added into its (destination, origin) entry of
    a dense float64 array by one scatter, ``np.bincount``; the sums are
    exact, since ``load_trips`` bounds every daily total by 2**53.
    Populations are derived from the daily flow balance (see
    ``derive_populations``) of that array; the matrix keeps its nonzero
    entries only.
    """
    n = len(table)
    flat = trips["destination"].astype(np.int64)
    flat *= n
    flat += trips["origin"]
    m = np.bincount(flat, weights=trips["count"], minlength=n * n)
    m = m.astype(float, copy=False).reshape(n, n)  # bincount gives int64 zeros when there are no trips
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
    is given. The matrix keeps the nonzero flows of a float64 ``m``
    (see ``ContactMatrix``) and none of the array.
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
    keeps the nonzero entries of ``m`` with the file's dtype as its own
    (see ``ContactMatrix``), so ``m`` reads back as the saved array."""
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
