import csv
import dataclasses
import logging
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from epitransit.mobility import (
    EARTH_RADIUS_KM,
    POPULATION_FLOOR,
    TRIP_DTYPE,
    ContactMatrix,
    LocationTable,
    ValidationError,
    build_contact_matrix,
    degree_histogram,
    derive_populations,
    haversine_km,
    load_locations,
    load_matrix_npz,
    load_trips,
    matrix_from_flows,
    network_stats,
    save_matrix_npz,
    write_network_stats,
    _trip_row_errors,
)
from epitransit.synthcity import CityConfig, generate_synthetic_city

# The locations of the ``square_table`` fixture, as rows of a locations CSV.
SQUARE_ROWS = ["A,0.0,0.0", "B,0.0,1.0", "C,1.0,0.0", "D,1.0,1.0"]


@pytest.fixture
def ingest(write_csvs):
    """The matrix ingested from the given trip rows over the locations of
    ``square_table``."""

    def _ingest(*trip_rows):
        return build_contact_matrix(*load_trips(*write_csvs(SQUARE_ROWS, trip_rows)))

    return _ingest


class TestLocation:
    def test_bounds(self):
        LocationTable(["x"], [90.0], [-180.0])
        with pytest.raises(ValidationError):
            LocationTable(["x"], [90.5], [0.0])
        with pytest.raises(ValidationError):
            LocationTable(["x"], [0.0], [180.5])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            LocationTable(["a", "a"], [0, 1], [0, 1])

    def test_one_finite_coordinate_pair_per_id(self):
        with pytest.raises(ValidationError, match="2 location ids, but lat has shape"):
            LocationTable(["a", "b"], [0.0], [0.0, 1.0])
        with pytest.raises(ValidationError, match=r"location 'b': lat nan outside \[-90, 90\]"):
            LocationTable(["a", "b"], [0.0, np.nan], [0.0, 1.0])
        with pytest.raises(ValidationError, match=r"location 'a': lon -inf outside \[-180, 180\]"):
            LocationTable(["a", "b"], [0.0, 0.0], [-np.inf, 1.0])


class TestLoadLocations:
    def test_bad_rows_reported_by_number_in_row_order(self, tmp_path):
        path = tmp_path / "locations.csv"
        path.write_text("id,lat,lon\na,0,0\nb,91,0\nc,0,nan\nd,1,1\ne,north,0\n")
        with pytest.raises(ValidationError) as exc:
            load_locations(path)
        assert str(exc.value) == (
            f"{path}: 3 malformed row(s): row 3: location 'b': lat 91.0 outside [-90, 90]; "
            "row 4: location 'c': lon nan outside [-180, 180]; "
            "row 6: could not convert string to float: 'north'"
        )

    def test_rows_with_too_many_or_too_few_fields_rejected(self, tmp_path):
        # DictReader keeps both: the extra field under the key None, the
        # missing one as None
        path = tmp_path / "locations.csv"
        path.write_text("id,lat,lon\nA,0,0,junk\nB,1\nC,1,1\n")
        with pytest.raises(ValidationError) as exc:
            load_locations(path)
        assert str(exc.value) == (
            f"{path}: 2 malformed row(s): row 2: expected 3 fields, got 4; row 3: expected 3 fields, got 2"
        )

    def test_rows_numbered_by_file_line_past_a_blank_line(self, tmp_path):
        path = tmp_path / "locations.csv"
        path.write_text("id,lat,lon\na,0,0\n\nb,91,0\n")
        with pytest.raises(ValidationError, match=r"row 4: location 'b': lat 91.0 outside"):
            load_locations(path)

    def test_repeated_id_in_valid_rows_rejected(self, tmp_path):
        path = tmp_path / "locations.csv"
        path.write_text("id,lat,lon\na,0,0\nb,1,1\na,2,2\n")
        with pytest.raises(ValidationError, match=r"duplicate location ids: \['a'\]"):
            load_locations(path)


class TestLoadTrips:
    def test_minimal_well_formed(self, write_csvs):
        trips_path, locs_path = write_csvs(["A,0.0,0.0", "B,0.0,1.0"], ["A,B,9,3"])
        table, trips = load_trips(trips_path, locs_path)
        assert len(table) == 2
        assert trips.dtype.names == ("origin", "destination", "hour", "count")
        assert trips.tolist() == [(0, 1, 9, 3)]

    def test_hour_out_of_bounds_names_row(self, write_csvs):
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["A,B,24,3"])
        with pytest.raises(ValidationError, match="row 2.*hour 24"):
            load_trips(trips_path, locs_path)

    def test_rows_with_too_many_or_too_few_fields_rejected(self, write_csvs):
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["A,B,9,3,77", "A,B,9", "A,B,9,3"])
        with pytest.raises(ValidationError) as exc:
            load_trips(trips_path, locs_path)
        assert str(exc.value) == (
            f"{trips_path}: 2 malformed row(s): row 2: expected 4 fields, got 5; row 3: expected 4 fields, got 3"
        )

    def test_rows_numbered_by_file_line_past_a_blank_line(self, write_csvs):
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["A,B,9,3", "", "A,B,24,3"])
        with pytest.raises(ValidationError) as exc:
            load_trips(trips_path, locs_path)
        assert str(exc.value) == f"{trips_path}: 1 malformed row(s): row 4: hour 24 outside 0-23"

    def test_duplicates_merged(self, write_csvs):
        # 10 rows, one duplicated (A,B,9) pair: 9 records expected, counts summed
        rows = [
            "A,B,9,3",
            "A,B,10,1",
            "B,A,9,2",
            "A,B,9,4",  # duplicate of row 1
            "B,A,11,1",
            "A,B,12,1",
            "B,A,12,2",
            "A,B,13,5",
            "B,A,13,1",
            "A,B,14,2",
        ]
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], rows)
        table, trips = load_trips(trips_path, locs_path)
        assert len(trips) == 9
        merged = {(table.ids[o], table.ids[d], h): c for o, d, h, c in trips.tolist()}
        assert merged[("A", "B", 9)] == 7

    def test_padded_ids_stripped(self, write_csvs):
        trips_path, locs_path = write_csvs([" A ,0,0", "B,0,1"], ["  A, B ,9,3", "A,B,9,1"])
        table, trips = load_trips(trips_path, locs_path)
        assert table.ids == ["A", "B"]
        assert trips.tolist() == [(0, 1, 9, 4)]

    def test_unknown_location(self, write_csvs):
        trips_path, locs_path = write_csvs(["A,0,0"], ["A,Z,9,1"])
        with pytest.raises(ValidationError, match="row 2.*'Z'"):
            load_trips(trips_path, locs_path)

    def test_non_positive_count(self, write_csvs):
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["A,B,9,0"])
        with pytest.raises(ValidationError, match="row 2.*count"):
            load_trips(trips_path, locs_path)

    def test_count_above_2_53_names_row(self, write_csvs):
        # 2**53 is the largest integer a float count holds exactly
        too_big = "count above 2**53, the largest a float count holds exactly"
        trips_path, locs_path = write_csvs(
            ["A,0,0", "B,0,1"], [f"A,B,9,{2**53}", f"A,B,10,{2**53 + 1}", "B,A,9," + "9" * 400]
        )
        with pytest.raises(ValidationError) as exc:
            load_trips(trips_path, locs_path)
        assert str(exc.value) == f"{trips_path}: 2 malformed row(s): row 3: {too_big}; row 4: {too_big}"
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], [f"A,B,9,{2**53}"])
        table, trips = load_trips(trips_path, locs_path)
        assert build_contact_matrix(table, trips).m[1, 0] == 2.0**53

    @pytest.mark.parametrize(
        "rows",
        [[f"A,B,9,{2**53}", "A,B,10,1"], [f"A,B,9,{2**53}", "A,B,9,1"], [f"A,B,8,{2**52}", f"A,B,9,{2**52}", "A,B,9,1"]],
        ids=["two_hours", "duplicate_rows", "both"],
    )
    def test_daily_total_above_2_53_names_both_ids(self, write_csvs, rows):
        # each row is within the bound, but m[1, 0] would silently hold 2**53
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["B,A,9,5", *rows])
        with pytest.raises(ValidationError) as exc:
            load_trips(trips_path, locs_path)
        assert str(exc.value) == (
            f"{trips_path}: 1 (origin, destination) pair(s) with more than 2**53 daily trips, "
            f"the largest a float count holds exactly; first: 'A' to 'B', {2**53 + 1} trips"
        )

    def test_daily_total_summed_exactly_past_int64(self, write_csvs):
        # 1,100 rows of 2**53 on one key: an int64 sum wraps after 1,024 of
        # them. 'B' has index 0, so the first pair by index is ('B', 'A');
        # the message names the first by id, ('A', 'B').
        rows = [f"B,A,9,{2**53}"] * 1100
        trips_path, locs_path = write_csvs(["B,0,0", "A,0,1"], rows)
        with pytest.raises(ValidationError) as exc:
            load_trips(trips_path, locs_path)
        assert str(exc.value) == (
            f"{trips_path}: 1 (origin, destination) pair(s) with more than 2**53 daily trips, "
            f"the largest a float count holds exactly; first: 'B' to 'A', {1100 * 2**53} trips"
        )
        trips_path, locs_path = write_csvs(["B,0,0", "A,0,1"], rows + [f"A,B,3,{2**53}", "A,B,4,1"])
        with pytest.raises(ValidationError) as exc:
            load_trips(trips_path, locs_path)
        assert str(exc.value) == (
            f"{trips_path}: 2 (origin, destination) pair(s) with more than 2**53 daily trips, "
            f"the largest a float count holds exactly; first: 'A' to 'B', {2**53 + 1} trips"
        )

    def test_daily_totals_up_to_2_53_load(self, write_csvs):
        # the file's total is above 2**53, but no single pair's is
        trips_path, locs_path = write_csvs(
            ["A,0,0", "B,0,1"], [f"A,B,8,{2**52}", f"A,B,9,{2**52}", f"B,A,9,{2**53}", "A,A,9,1"]
        )
        table, trips = load_trips(trips_path, locs_path)
        m = build_contact_matrix(table, trips).m
        assert m[1, 0] == m[0, 1] == 2.0**53 and m[0, 0] == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trips(tmp_path / "nope.csv", tmp_path / "nope2.csv")

    def test_error_report_counts_all_bad_rows(self, write_csvs):
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["A,B,24,1", "A,B,9,-1"])
        with pytest.raises(ValidationError, match="2 malformed"):
            load_trips(trips_path, locs_path)

    @pytest.mark.parametrize("bad_rows", [4, 25])
    def test_each_bad_row_is_printed_once(self, write_csvs, caplog, bad_rows):
        # the error quotes the first three rows, the log the 4th to the 20th
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["A,B,24,1"] * bad_rows)
        with caplog.at_level(logging.ERROR, logger="epitransit.mobility"), pytest.raises(ValidationError) as exc:
            load_trips(trips_path, locs_path)
        printed = [str(exc.value)] + [r.getMessage() for r in caplog.records]
        for row in range(2, bad_rows + 2):
            want = 1 if row <= 21 else 0
            assert sum(text.count(f"row {row}: ") for text in printed) == want, row
        assert f"{bad_rows} malformed row(s)" in str(exc.value)
        assert len(caplog.records) == min(bad_rows, 20) - 3

    def test_unparseable_row_and_unknown_origin_reported_by_row(self, write_csvs):
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["A,B,x,3", "Z,B,9,1"])
        with pytest.raises(ValidationError) as exc:
            load_trips(trips_path, locs_path)
        assert str(exc.value) == (
            f"{trips_path}: 2 malformed row(s): "
            "row 2: unparseable (invalid literal for int() with base 10: 'x'); "
            "row 3: unknown origin 'Z'"
        )

    @given(data=st.data())
    def test_ingest_sums_every_row_of_a_key_exactly(self, tmp_path_factory, data):
        # Rows of a few (origin, destination, hour) keys, over a few pairs
        # and hours, shuffled, with padded ids and blank lines, against a
        # reference that sums Python ints into a dict.
        ids = data.draw(st.lists(st.text("abAB", min_size=1, max_size=3), min_size=1, max_size=5, unique=True))
        n = len(ids)
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), min_size=1, max_size=4))
        hours = data.draw(st.lists(st.integers(0, 23), min_size=1, max_size=3))
        # two counts of 2**52 or more on one pair overflow it, save 2**52 twice
        count = st.one_of(st.integers(1, 9), st.integers(2**52, 2**53))
        records = data.draw(
            st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from(hours), count), min_size=1, max_size=30)
        )
        pad = st.text(" ", max_size=2)
        lines = [
            f"{data.draw(pad)}{o}{data.draw(pad)},{data.draw(pad)}{d}{data.draw(pad)},{h},{c}"
            for (o, d), h, c in records
        ]
        lines = data.draw(st.permutations(lines + [""] * data.draw(st.integers(0, 3))))
        folder = tmp_path_factory.mktemp("ingest")
        (folder / "locations.csv").write_text("id,lat,lon\n" + "".join(f"{i},0,{x}\n" for x, i in enumerate(ids)))
        (folder / "trips.csv").write_text("origin,destination,hour,count\n" + "".join(f"{line}\n" for line in lines))

        keys, daily = {}, {}
        for (o, d), h, c in records:
            keys[o, d, h] = keys.get((o, d, h), 0) + c
            daily[o, d] = daily.get((o, d), 0) + c
        over = sorted(pair for pair, total in daily.items() if total > 2**53)
        if over:
            with pytest.raises(ValidationError) as exc:
                load_trips(folder / "trips.csv", folder / "locations.csv")
            o, d = over[0]
            assert str(exc.value).endswith(
                f"{len(over)} (origin, destination) pair(s) with more than 2**53 daily trips, "
                f"the largest a float count holds exactly; first: {o!r} to {d!r}, {daily[o, d]} trips"
            )
            return
        table, trips = load_trips(folder / "trips.csv", folder / "locations.csv")
        assert len(trips) == len(keys)
        assert {(ids[o], ids[d], h): c for o, d, h, c in trips.tolist()} == keys
        want = np.zeros((n, n))
        for (o, d), total in daily.items():
            want[ids.index(d), ids.index(o)] = total  # at most 2**53, so exact as a float
        matrix = build_contact_matrix(table, trips)
        assert matrix.m.dtype == want.dtype and matrix.m.tobytes() == want.tobytes()
        assert matrix.populations.tobytes() == derive_populations(want)[0].tobytes()

    def test_wrong_header_rejected(self, tmp_path):
        (tmp_path / "locations.csv").write_text("id,lat,lon\nA,0,0\n")
        (tmp_path / "trips.csv").write_text("from,to,hour,count\nA,A,9,1\n")
        with pytest.raises(ValidationError, match="expected header 'origin,destination,hour,count'"):
            load_trips(tmp_path / "trips.csv", tmp_path / "locations.csv")

    @pytest.mark.parametrize(
        "field",
        ["1_000", "\u0663", "\xa09", "9\u2000", "9\U0002c6ca", "\uc6ca", "2.5", "3.0", "1e3"],
        ids=["underscore", "arabic_indic_digit", "nbsp", "en_quad", "astral", "hangul", "half", "point_zero", "exp"],
    )
    @pytest.mark.parametrize("column", ["hour", "count"])
    @pytest.mark.filterwarnings("default")
    def test_integers_numpy_does_not_parse_are_unparseable(self, write_csvs, field, column):
        # int() takes "1_000", ARABIC-INDIC DIGIT THREE and non-ASCII
        # padding; NumPy's reader of a file read as Latin-1 takes none of
        # them. Read as text, its C isdigit() misreads HANGUL SYLLABLE UNG as
        # a digit and crashes on the astral character. Under the default
        # warning filters, as the command line runs, a float is refused too.
        row = f"A,B,{field},3" if column == "hour" else f"A,B,9,{field}"
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["A,B,9,3", "", row])
        with pytest.raises(ValidationError) as exc:
            load_trips(trips_path, locs_path)
        assert str(exc.value).startswith(f"{trips_path}: 1 malformed row(s): row 4: unparseable (")

    def test_unparseable_messages(self, write_csvs):
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["A,B,1_000,3", "A,B,x,1_000", "A,B,9,٣"])
        with pytest.raises(ValidationError) as exc:
            load_trips(trips_path, locs_path)
        assert str(exc.value) == (
            f"{trips_path}: 3 malformed row(s): "
            "row 2: unparseable (not an integer in ASCII digits: '1_000'); "
            "row 3: unparseable (invalid literal for int() with base 10: 'x'); "
            "row 4: unparseable (not an integer in ASCII digits: '٣')"
        )

    @pytest.mark.parametrize("pad", [" ", "\t", "\x0b", "\x1c"], ids=["space", "tab", "vertical_tab", "file_sep"])
    def test_integers_padded_by_whitespace_load(self, write_csvs, pad):
        # NumPy's reader strips the ASCII characters that str.isspace
        # accepts, "\x1c"-"\x1f" among them, which int() refuses
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], [f"A,B,{pad}9{pad},{pad}+3{pad}", "B,A,9,1"])
        assert load_trips(trips_path, locs_path)[1].tolist() == [(1, 0, 9, 1), (0, 1, 9, 3)]
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], [f"A,B,{pad}9{pad},{pad}+3{pad}", "B,A,9,0"])
        with pytest.raises(ValidationError, match=r"1 malformed row\(s\): row 3: non-positive count 0$"):
            load_trips(trips_path, locs_path)

    @pytest.mark.filterwarnings("default")
    def test_floats_refused_where_numpy_reads_them_with_a_warning(self, write_csvs, monkeypatch):
        # NumPy 1.23-1.26 read "2.5" or "1e3" in an integer column as a
        # float, truncated, with only a DeprecationWarning; NumPy 2 refuses
        # it. This stands in for the older reader.
        loadtxt = np.loadtxt

        def int_via_float(field):
            try:
                return int(field)
            except ValueError:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
                return int(float(field))

        def older_loadtxt(fh, converters, **kwargs):
            return loadtxt(fh, converters={2: int_via_float, 3: int_via_float, **converters}, **kwargs)

        monkeypatch.setattr(np, "loadtxt", older_loadtxt)
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["A,B,9,2.5", "A,B,9.5,3", "B,A,1,1e3"])
        with pytest.raises(ValidationError) as exc:
            load_trips(trips_path, locs_path)
        assert str(exc.value) == (
            f"{trips_path}: 3 malformed row(s): "
            "row 2: unparseable (invalid literal for int() with base 10: '2.5'); "
            "row 3: unparseable (invalid literal for int() with base 10: '9.5'); "
            "row 4: unparseable (invalid literal for int() with base 10: '1e3')"
        )

    def test_non_ascii_ids_load(self, write_csvs):
        # the UTF-8 of "à" ends in the byte of NBSP, and that of "Å" in the
        # byte of NEL, which str.strip() would take off a Latin-1 reading
        trips_path, locs_path = write_csvs(
            ["Zürich,0,0", "東京,0,1", "là,0,2", "Å,0,3"],
            ["Zürich,東京,9,3", " 東京 ,Zürich,8,2", "là , Å,7,1", "\xa0Å\xa0,là,7,4"],
        )
        table, trips = load_trips(trips_path, locs_path)
        assert trips.tolist() == [(1, 0, 8, 2), (0, 1, 9, 3), (3, 2, 7, 4), (2, 3, 7, 1)]

    @pytest.mark.parametrize("raw", [b"A,B,9,3\xa0", b"A,B,\x859,3", b"A\xff,B,9,3"], ids=["nbsp", "nel", "id"])
    def test_a_file_that_is_not_utf8_is_refused(self, write_csvs, raw):
        # read as Latin-1, a stray NBSP or NEL byte is whitespace to NumPy;
        # the bad row comes past the first block a text file decodes
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["A,B,9,1"] * 4000)
        trips_path.write_bytes(trips_path.read_bytes() + raw + b"\n")
        with pytest.raises(UnicodeDecodeError):
            load_trips(trips_path, locs_path)

    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n"], ids=["header_only", "blank_lines", "crlf_blank_line"])
    def test_no_data_rows_load_as_no_trips_without_a_warning(self, tmp_path, body):
        (tmp_path / "locations.csv").write_text("id,lat,lon\nA,0,0\n")
        (tmp_path / "trips.csv").write_bytes(f"origin,destination,hour,count\n{body}".encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table, trips = load_trips(tmp_path / "trips.csv", tmp_path / "locations.csv")
            matrix = build_contact_matrix(table, trips)
        assert trips.dtype.names == ("origin", "destination", "hour", "count") and trips.size == 0
        assert matrix.m.tolist() == [[0.0]] and matrix.populations.tolist() == [POPULATION_FLOOR]

    def test_records_come_in_row_major_order(self, write_csvs):
        trips_path, locs_path = write_csvs(["A,0,0", "B,0,1"], ["A,B,9,1", "B,A,9,2", "A,A,3,3", "A,A,2,4", "B,A,9,5"])
        table, trips = load_trips(trips_path, locs_path)
        # by destination, then origin, then hour
        assert trips.tolist() == [(0, 0, 2, 4), (0, 0, 3, 3), (1, 0, 9, 7), (0, 1, 9, 1)]

    @given(data=st.data())
    def test_any_file_loads_as_csv_reader_reads_it_or_names_its_bad_rows(self, tmp_path_factory, data):
        # Padded and quoted fields (ids with commas, quotes and newlines),
        # signs, blank lines, CRLF and a byte-order mark; in a hostile file
        # also unknown ids, hours and counts out of range, fields from an
        # alphabet with "_", "٣", ".", "e" and NBSP, non-ASCII padding of
        # numbers, whitespace-only lines and wrong widths. A file is ASCII or
        # not. The reference reads the file with csv.reader, strips ids and
        # takes an integer as ASCII digits with an optional sign, padded by
        # ASCII whitespace.
        hostile, ascii_only = data.draw(st.booleans()), data.draw(st.booleans())
        ids = ["A", "b,c", 'q"t', "n\nl"] if ascii_only else ["Ä", "b,ç", 'q"ţ', "n\nł", "là", "Å"]
        id_pad = st.text(" \t" if ascii_only else " \t\xa0\x85", max_size=2)
        number_pad = id_pad if hostile else st.text(" \t\x1c", max_size=2)

        def padded(values, pad):
            return st.builds(lambda a, v, b: f"{a}{v}{b}", pad, values, pad)

        if hostile:
            id_field = padded(st.sampled_from(ids + ["Z"]), id_pad)
            signed = st.builds(lambda s, n: f"{s}{n}", st.sampled_from(["", "+", "-"]), st.integers(0, 30))
            number = padded(signed, number_pad)
            junk = st.text(' \t,"\n\r_+-.e09AZ' + ("" if ascii_only else "\xa0\u0663\ufeff"), max_size=4)
            id_field, number = st.one_of(id_field, id_field, junk), st.one_of(number, number, junk)
            widths, fillers = [4, 4, 3, 5], ["", " ", "\t"]
        else:
            id_field = padded(st.sampled_from(ids), id_pad)
            number = padded(st.builds(lambda s, n: f"{s}{n}", st.sampled_from(["", "+"]), st.integers(1, 23)), number_pad)
            widths, fillers = [4], [""]

        def written(field, quote):
            special = any(c in field for c in ',"\n\r')
            return f'"{field.replace(chr(34), chr(34) * 2)}"' if quote or special else field

        def fields(width):
            kinds = [id_field, id_field, number, number, number][:width]
            return st.tuples(*(st.builds(written, kind, st.booleans()) for kind in kinds)).map(",".join)

        rows = data.draw(st.lists(st.sampled_from(widths).flatmap(fields), max_size=8))
        lines = data.draw(st.permutations(rows + data.draw(st.lists(st.sampled_from(fillers), max_size=2))))
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        bom = data.draw(st.sampled_from(["", "\ufeff"]))
        folder = tmp_path_factory.mktemp("hostile")
        locs_path, trips_path = folder / "locations.csv", folder / "trips.csv"
        with open(locs_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["id", "lat", "lon"], *([i, 0, x] for x, i in enumerate(ids))])
        text = bom + newline.join(["origin,destination,hour,count", *lines]) + newline
        trips_path.write_bytes(text.encode())

        merged, bad = {}, []
        with open(trips_path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            next(reader)
            for fields in reader:
                if not fields:
                    continue
                space = "[\t\n\x0b\x0c\r\x1c-\x1f ]*"
                numbers = [re.fullmatch(f"{space}([+-]?[0-9]+){space}", f) for f in fields[2:]]
                ok = len(fields) == 4 and all(numbers)
                if ok:
                    o, d, h, c = fields[0].strip(), fields[1].strip(), int(numbers[0][1]), int(numbers[1][1])
                    ok = o in ids and d in ids and 0 <= h <= 23 and 1 <= c <= 2**53
                if ok:
                    merged[o, d, h] = merged.get((o, d, h), 0) + c
                else:
                    bad.append(reader.line_num)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not bad:
                table, trips = load_trips(trips_path, locs_path)
                assert {(table.ids[o], table.ids[d], h): c for o, d, h, c in trips.tolist()} == merged
                return
            errors = _trip_row_errors(trips_path, load_locations(locs_path).index)
            assert [line for line, _ in errors] == bad
            with pytest.raises(ValidationError) as exc:
                load_trips(trips_path, locs_path)
        quoted_errors = "; ".join(f"row {line}: {msg}" for line, msg in errors[:3])
        assert str(exc.value) == f"{trips_path}: {len(errors)} malformed row(s): {quoted_errors}"


class TestContactMatrix:
    def test_single_trip(self, ingest):
        m = ingest("A,B,9,5")
        expected = np.zeros((4, 4))
        expected[1, 0] = 5.0  # m[dest=B][origin=A]
        assert np.array_equal(m.m, expected)

    def test_hourly_aggregation(self, ingest):
        m = ingest("A,B,8,2", "A,B,18,3")
        assert m.m[1, 0] == 5.0

    def test_against_bruteforce_fixture(self, square_table, ingest):
        # 3 locations, 6 trips; oracle is a plain dict aggregation
        trips = [("A", "B", 1, 2), ("B", "C", 2, 7), ("A", "B", 3, 1), ("C", "A", 4, 4), ("A", "A", 5, 3), ("B", "C", 6, 2)]
        oracle = {}
        for origin, dest, _, count in trips:
            oracle[(dest, origin)] = oracle.get((dest, origin), 0) + count
        m = ingest(*(",".join(map(str, t)) for t in trips))
        for (dest, origin), count in oracle.items():
            j, k = square_table.index[dest], square_table.index[origin]
            assert m.m[j, k] == count
        assert m.m.sum() == sum(t[3] for t in trips)

    def test_immutable(self, ingest):
        m = ingest("A,B,9,5")
        with pytest.raises(ValueError):
            m.m[0, 0] = 1.0
        with pytest.raises(ValueError):
            m.populations[0] = 1.0

    def test_aggregation_linearity(self, square_table, ingest):
        rng = np.random.default_rng(5)
        ids = square_table.ids

        def random_trips(n):
            return [
                f"{ids[rng.integers(4)]},{ids[rng.integers(4)]},{rng.integers(24)},{rng.integers(1, 10)}"
                for _ in range(n)
            ]

        a, b = random_trips(20), random_trips(15)
        combined = ingest(*a, *b)
        separate = ingest(*a).m + ingest(*b).m
        assert np.array_equal(combined.m, separate)
        assert combined.m.sum() == sum(int(t.rsplit(",", 1)[1]) for t in a + b)

    @pytest.mark.parametrize(
        "flows, populations",
        [
            ([[0.0, 1.0], [2.0, 0.0]], [0.5, 10.0]),
            ([[0.0, 1.0], [2.0, 0.0]], [np.nan, 10.0]),
            ([[0.0, 1.0], [2.0, 0.0]], [np.inf, 10.0]),
            ([[0.0, 1.0], [2.0, 0.0]], [10.0, 10.0, 10.0]),
            ([[0.0, np.nan], [2.0, 0.0]], [10.0, 10.0]),
            ([[0.0, np.inf], [2.0, 0.0]], [10.0, 10.0]),
            ([[0.0, -1.0], [2.0, 0.0]], [10.0, 10.0]),
        ],
        ids=["population_below_floor", "nan_population", "infinite_population", "wrong_length",
             "nan_count", "infinite_count", "negative_count"],
    )
    def test_bad_counts_or_populations_rejected(self, flows, populations):
        with pytest.raises(ValidationError):
            matrix_from_flows(np.array(flows), populations=np.array(populations))

    @pytest.mark.parametrize("counts", [[1, 1], [1, 1, 1, 1]], ids=["short", "long"])
    def test_entry_counts_must_be_one_per_entry(self, counts):
        matrix = matrix_from_flows(np.array([[0.0, 1.0], [2.0, 3.0]]))
        with pytest.raises(ValueError, match=r"3 entries, but counts has shape"):
            matrix.with_entry_counts(np.array(counts))

    def test_negative_entry_count_rejected(self):
        matrix = matrix_from_flows(np.array([[0.0, 1.0], [2.0, 3.0]]))
        with pytest.raises(ValidationError, match="negative"):
            matrix.with_entry_counts(np.array([2, -1, 0]))

    @pytest.mark.parametrize(
        "m, populations",
        [
            (np.zeros((4, 4)), np.full(4, "5")),
            (np.zeros((4, 4)).astype(str), np.full(4, 5.0)),
            (np.zeros((4, 4), dtype=complex), np.full(4, 5.0)),
            (np.zeros((4, 4)), np.full(4, 5.0, dtype=complex)),
        ],
        ids=["string_populations", "string_counts", "complex_counts", "complex_populations"],
    )
    def test_counts_and_populations_must_be_real_numbers(self, square_table, m, populations):
        with pytest.raises(ValidationError, match="must hold real numbers"):
            ContactMatrix(m=m, populations=populations, table=square_table)

    def test_bool_and_integer_arrays_are_real_numbers(self, square_table):
        matrix = ContactMatrix(m=np.eye(4, dtype=bool), populations=np.full(4, 5, dtype=np.int64), table=square_table)
        assert matrix.n == 4

    def test_shape_must_match_the_table(self, square_table):
        with pytest.raises(ValidationError, match=r"matrix shape \(3, 3\) does not match 4 locations"):
            ContactMatrix(m=np.zeros((3, 3)), populations=np.ones(4), table=square_table)

    def test_inter_location_trips_are_the_off_diagonal_entries(self, ingest):
        m = ingest("A,B,9,5", "C,C,9,4", "D,A,9,2")
        distances, counts = m.inter_location_trips
        off = (m.m != 0) & ~np.eye(4, dtype=bool)
        assert np.array_equal(counts, m.m[off]) and np.array_equal(distances, m.distance_matrix[off])
        assert not (distances.flags.writeable or counts.flags.writeable)

    def test_built_from_the_merged_records_without_an_n2_array(self):
        # 2000 locations: a dense float64 matrix would take 32 MB
        n = 2000
        table = LocationTable([f"L{i}" for i in range(n)], np.zeros(n), np.zeros(n))
        trips = np.array([(3, 3, 9, 2), (5, 3, 8, 7), (1999, 1999, 8, 1)], dtype=TRIP_DTYPE)
        tracemalloc.start()
        try:
            matrix = build_contact_matrix(table, trips)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert [a.tolist() for a in matrix.nonzero] == [[3 * n + 3, 3 * n + 5, n * n - 1], [2, 7, 1]]
        assert matrix.populations.tobytes() == derive_populations(matrix.m)[0].tobytes()

    def test_records_out_of_row_major_order_rejected(self, square_table):
        trips = np.array([(0, 1, 8, 7), (1, 0, 8, 2)], dtype=TRIP_DTYPE)
        with pytest.raises(ValueError, match="in the order load_trips returns them"):
            build_contact_matrix(square_table, trips)

    @pytest.mark.parametrize("inflow", [True, False], ids=["inflow", "outflow"])
    @pytest.mark.parametrize("first", [2**53, 1], ids=["big_first", "big_last"])
    def test_populations_of_totals_past_2_53_are_the_dense_sums(self, write_csvs, inflow, first):
        # A total past 2**53 rounds, so the order of its sum matters: NumPy
        # sums a dense row of 8 or more pairwise, not in entry order. The
        # populations are still those of the dense array's sums.
        n = 11
        counts = [first] + [1] * (n - 2) + [2**53 + 1 - first]
        rows = [f"L{k},L0,9,{c}" if inflow else f"L0,L{k},9,{c}" for k, c in enumerate(counts)]
        matrix = build_contact_matrix(*load_trips(*write_csvs([f"L{k},0,{k}" for k in range(n)], rows)))
        assert matrix.populations.tobytes() == derive_populations(matrix.m)[0].tobytes()


class TestStoredEntries:
    """A matrix keeps its nonzero entries; ``m`` is rebuilt from them."""

    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, ">f8", np.int64, np.int32, np.uint8, bool], ids=str
    )
    @pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
    def test_m_rebuilds_the_dense_input_byte_for_byte(self, square_table, dtype, density):
        rng = np.random.default_rng(7)
        m = (rng.integers(1, 50, (4, 4)) * (rng.random((4, 4)) < density)).astype(dtype)
        matrix = ContactMatrix(m=m, populations=np.full(4, 5.0), table=square_table)
        assert "m" not in vars(matrix)
        index, values = matrix.nonzero
        assert index.dtype == np.int32 and np.array_equal(index, np.flatnonzero(m))
        # whole counts below 2**32 take 4 bytes where m's dtype takes more
        assert matrix.dtype == m.dtype
        assert values.dtype == (np.uint32 if m.dtype.itemsize > 4 else m.dtype)
        assert np.array_equal(values, m.ravel()[index])
        rebuilt = matrix.m
        assert rebuilt.dtype == m.dtype and rebuilt.shape == m.shape and rebuilt.tobytes() == m.tobytes()
        assert matrix.m is rebuilt and not rebuilt.flags.writeable

    @pytest.mark.parametrize(
        "count, stored",
        [
            (2.0**32 - 1, np.uint32),
            (0.5, np.float64),
            (2.0**32, np.float64),
            (2.0**53, np.float64),
            (3.4e38, np.float64),
            (np.finfo(float).max, np.float64),
        ],
        ids=["whole_below_2_32", "fractional", "2_32", "2_53", "3.4e38", "float_max"],
    )
    def test_only_whole_counts_below_2_32_take_four_bytes(self, square_table, count, stored):
        m = np.eye(4) * 24.0
        m[1, 0] = count
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = ContactMatrix(m=m, populations=np.full(4, 5.0), table=square_table)
            rebuilt = matrix.m
        index, values = matrix.nonzero
        assert values.dtype == stored and index.itemsize + values.itemsize == (8 if stored == np.uint32 else 12)
        assert rebuilt.dtype == m.dtype and rebuilt.tobytes() == m.tobytes()

    def test_integer_counts_of_2_32_and_above_keep_their_dtype(self, square_table):
        m = np.eye(4, dtype=np.int64) * 2**32
        matrix = ContactMatrix(m=m, populations=np.full(4, 5.0), table=square_table)
        assert matrix.nonzero[1].dtype == np.int64 and matrix.m.tobytes() == m.tobytes()

    @pytest.mark.parametrize("big", [2**32 - 1, 2**32], ids=["below_2_32", "2_32"])
    def test_entry_counts_take_four_bytes_below_2_32(self, big):
        matrix = matrix_from_flows(np.array([[0.0, 1.0], [2.0, 3.0]]))
        thinned = matrix.with_entry_counts(np.array([big, 0, 1]))
        assert thinned.nonzero[1].dtype == (np.uint32 if big < 2**32 else np.float64)
        assert thinned.m.tobytes() == np.array([[0.0, float(big)], [0.0, 1.0]]).tobytes()

    def test_m_of_a_fortran_ordered_input_reads_row_major(self, square_table):
        m = np.asfortranarray(np.arange(16.0).reshape(4, 4))
        matrix = ContactMatrix(m=m, populations=np.full(4, 5.0), table=square_table)
        assert np.array_equal(matrix.m, m) and matrix.m.flags.c_contiguous

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize("where", [(0, 1), (2, 2), (3, 0)])
    def test_nan_infinite_and_negative_counts_raise(self, square_table, bad, where):
        m = np.ones((4, 4))
        m[where] = bad
        with pytest.raises(ValidationError, match="contact matrix has negative, infinite or NaN entries"):
            ContactMatrix(m=m, populations=np.full(4, 5.0), table=square_table)

    def test_negative_integer_counts_raise(self, square_table):
        m = np.zeros((4, 4), dtype=np.int64)
        m[1, 2] = -3
        with pytest.raises(ValidationError, match="contact matrix has negative, infinite or NaN entries"):
            ContactMatrix(m=m, populations=np.full(4, 5.0), table=square_table)

    def test_replace_of_m_or_populations_gives_a_checked_matrix(self, ingest):
        # as perfbench's tests plant a changed entry or population
        matrix = ingest("A,B,9,5", "C,C,9,48")
        m = matrix.m.copy()
        m[2, 3] = 7.0
        changed = dataclasses.replace(matrix, m=m)
        assert np.array_equal(changed.m, m) and np.array_equal(changed.nonzero[0], np.flatnonzero(m))
        assert changed.populations is matrix.populations and changed.table is matrix.table
        m[2, 3] = np.nan
        with pytest.raises(ValidationError, match="contact matrix has negative, infinite or NaN entries"):
            dataclasses.replace(matrix, m=m)
        populations = matrix.populations * 2.0
        doubled = dataclasses.replace(matrix, populations=populations)
        assert doubled.populations is populations and np.array_equal(doubled.m, matrix.m)
        with pytest.raises(ValidationError, match="populations must be finite"):
            dataclasses.replace(matrix, populations=np.full(4, POPULATION_FLOOR / 2))
        with pytest.raises(ValidationError, match="populations shape"):
            dataclasses.replace(matrix, populations=np.full(3, 5.0))

    def test_copy_shares_the_entries_and_holds_no_dense_array_or_cache(self, ingest):
        matrix = ingest("A,B,9,5", "C,C,9,48")
        matrix.m, matrix.entries, matrix.trip_counts
        copy = matrix.copy()
        assert set(vars(copy)) == {"nonzero", "dtype", "populations", "table", "population_clamp_count"}
        assert copy.dtype == matrix.dtype == np.float64
        assert all(a is b for a, b in zip(copy.nonzero, matrix.nonzero))
        assert copy.populations is matrix.populations and copy.table is matrix.table
        assert np.array_equal(copy.m, matrix.m) and copy.m is not matrix.m

    def test_builders_hold_no_dense_array_until_m_is_read(self, ingest, tmp_path):
        city = generate_synthetic_city(CityConfig(n_locations=30), 3)[1]
        built = [
            ingest("A,B,9,5", "C,C,9,48"),
            matrix_from_flows(np.eye(4) * 30.0),
            city,
        ]
        for matrix in built:
            assert "m" not in vars(matrix) and not _square_arrays(matrix)
        save_matrix_npz(city, tmp_path / "city.npz")
        loaded = load_matrix_npz(tmp_path / "city.npz")
        assert "m" not in vars(loaded) and not _square_arrays(loaded)
        for matrix in built + [loaded]:
            matrix.m
            assert [a.shape for a in _square_arrays(matrix)] == [(matrix.n, matrix.n)]


def _square_arrays(matrix) -> list:
    """The n x n arrays that a matrix holds."""
    held = [v for value in vars(matrix).values() for v in (value if isinstance(value, tuple) else (value,))]
    return [v for v in held if isinstance(v, np.ndarray) and v.shape == (matrix.n, matrix.n)]


class TestDerivePopulations:
    def test_isolated_self_flow(self):
        m = np.array([[24.0]])
        pops, clamps = derive_populations(m)
        assert pops[0] == 1.0
        assert clamps == 0

    def test_balance_formula(self):
        # m_jj=48, inflow 24, outflow 24 -> N = 2
        m = np.array([[48.0, 24.0], [24.0, 0.0]])
        pops, _ = derive_populations(m)
        assert pops[0] == (48.0 + 24.0 - 24.0) / 24.0 == 2.0

    def test_clamp_on_net_exporter(self):
        # location 0 exports 100, imports nothing: raw population negative
        m = np.array([[0.0, 0.0], [100.0, 24.0]])
        pops, clamps = derive_populations(m)
        assert pops[0] == POPULATION_FLOOR
        assert clamps == 1

    def test_floor_holds_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = rng.integers(0, 50, size=(8, 8)).astype(float)
            pops, _ = derive_populations(m)
            assert np.all(pops >= POPULATION_FLOOR)


class TestDistances:
    def test_zero_distance(self):
        assert haversine_km(12.0, 34.0, 12.0, 34.0) == 0.0

    def test_one_degree_longitude_at_equator(self):
        # haversine closed form: one degree of arc = R * pi / 180
        oracle = EARTH_RADIUS_KM * math.pi / 180.0
        d = haversine_km(0.0, 0.0, 0.0, 1.0)
        assert d == pytest.approx(111.19, abs=0.01)
        assert d == pytest.approx(oracle, abs=1e-9)

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            b = (rng.uniform(-90, 90), rng.uniform(-180, 180))
            assert haversine_km(*a, *b) == haversine_km(*b, *a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            lat = rng.uniform(-80, 80, 3)
            lon = rng.uniform(-180, 180, 3)
            d01 = haversine_km(lat[0], lon[0], lat[1], lon[1])
            d12 = haversine_km(lat[1], lon[1], lat[2], lon[2])
            d02 = haversine_km(lat[0], lon[0], lat[2], lon[2])
            assert d02 <= d01 + d12 + 1e-9

    def test_distance_matrix_matches_haversine(self, square_table):
        t = square_table
        d = t.distance_matrix
        assert np.array_equal(d, t.distance_matrix)
        assert d[0, 1] == haversine_km(t.lat[0], t.lon[0], t.lat[1], t.lon[1])


class TestNetworkStats:
    def test_single_trip_degrees(self, ingest):
        m = ingest("A,B,9,5")
        stats = network_stats(m)
        # A and B have degree 5, the two other locations 0
        assert stats["n"] == 4 and stats["e"] == 1
        assert stats["mean_degree"] == 2.5
        assert stats["degree_histogram"] == [[0.0, 1.0, 2], [1.0, 2.0, 0], [2.0, 4.0, 0], [4.0, 8.0, 2]]

    def test_self_flow_only(self):
        m = matrix_from_flows(np.array([[24.0]]))
        stats = network_stats(m)
        # in + out - self counts the self-flow once: 2*24 - 24
        assert stats["mean_degree"] == 24.0
        assert stats["degree_histogram"][-1] == [16.0, 32.0, 1]
        assert stats["e"] == 0

    def test_empty_matrix(self, ingest):
        m = ingest()
        stats = network_stats(m)
        assert stats == {"n": 4, "e": 0, "mean_degree": 0.0, "degree_histogram": [[0.0, 1.0, 4]]}

    def test_json_export(self, ingest, tmp_path):
        import json

        m = ingest("A,B,9,5")
        path = tmp_path / "stats.json"
        write_network_stats(network_stats(m), path)
        data = json.loads(path.read_text())
        assert set(data) == {"n", "e", "mean_degree", "degree_histogram"}
        assert data["n"] == 4
        assert data["e"] == 1

    def test_degree_histogram_bins(self):
        hist = degree_histogram(np.array([0.0, 1.0, 3.0, 5.0, 17.0]))
        assert hist[0] == [0.0, 1.0, 1]
        total = sum(count for _, _, count in hist)
        assert total == 5


class TestMatrixIO:
    def test_npz_roundtrip(self, small_city, tmp_path):
        path = tmp_path / "m.npz"
        save_matrix_npz(small_city, path)
        loaded = load_matrix_npz(path)
        assert np.array_equal(loaded.m, small_city.m)
        assert np.array_equal(loaded.populations, small_city.populations)
        assert loaded.table.ids == small_city.table.ids
