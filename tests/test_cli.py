import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import epitransit
from epitransit import engine, runner
from epitransit.cli import main
from epitransit.mobility import load_matrix_npz, matrix_from_flows, save_matrix_npz
from epitransit.runner import ScenarioConfig, Disease
from epitransit.metrics import CompareConfig
from epitransit.synthcity import CityConfig


@pytest.fixture
def city_dir(tmp_path):
    out = tmp_path / "city"
    assert main(["synth-city", "--n", "30", "--seed", "3", "--out-dir", str(out)]) == 0
    return out


class TestSynthCityAndIngest:
    def test_synth_city_outputs(self, city_dir):
        for name in ("locations.csv", "trips.csv", "matrix.npz", "network_stats.json"):
            assert (city_dir / name).exists()
        stats = json.loads((city_dir / "network_stats.json").read_text())
        assert stats["n"] == 30

    def test_ingest_rebuilds_matrix(self, city_dir, tmp_path):
        out = tmp_path / "ingested"
        code = main(
            [
                "ingest",
                "--trips", str(city_dir / "trips.csv"),
                "--locations", str(city_dir / "locations.csv"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        a = load_matrix_npz(city_dir / "matrix.npz")
        b = load_matrix_npz(out / "matrix.npz")
        assert np.array_equal(a.m, b.m)

    def test_ingest_padded_header_matches_unpadded(self, city_dir, tmp_path):
        padded = {"locations.csv": "id, lat, lon", "trips.csv": "origin, destination, hour, count"}
        for name, header in padded.items():
            rows = (city_dir / name).read_text().splitlines()[1:]
            (tmp_path / name).write_text("\n".join([header] + rows) + "\n")
        out = tmp_path / "ingested"
        code = main(
            ["ingest", "--trips", str(tmp_path / "trips.csv"),
             "--locations", str(tmp_path / "locations.csv"), "--out-dir", str(out)]
        )
        assert code == 0
        a = load_matrix_npz(city_dir / "matrix.npz")
        b = load_matrix_npz(out / "matrix.npz")
        assert np.array_equal(a.m, b.m)
        assert np.array_equal(a.populations, b.populations)

    def test_ingest_padded_ids_match_unpadded(self, city_dir, tmp_path):
        for name in ("locations.csv", "trips.csv"):
            lines = (city_dir / name).read_text().splitlines()
            (tmp_path / name).write_text("\n".join(" " + ", ".join(line.split(",")) for line in lines) + "\n")
        out = tmp_path / "ingested"
        code = main(
            ["ingest", "--trips", str(tmp_path / "trips.csv"),
             "--locations", str(tmp_path / "locations.csv"), "--out-dir", str(out)]
        )
        assert code == 0
        a = load_matrix_npz(city_dir / "matrix.npz")
        b = load_matrix_npz(out / "matrix.npz")
        assert np.array_equal(a.m, b.m)
        assert np.array_equal(a.populations, b.populations)
        assert b.table.ids == a.table.ids

    @pytest.mark.parametrize("marked", [("locations.csv",), ("trips.csv",), ("locations.csv", "trips.csv")])
    def test_ingest_of_csvs_with_a_byte_order_mark_matches_without(self, city_dir, tmp_path, marked):
        # spreadsheet programs save "CSV UTF-8" with a leading U+FEFF
        for name in ("locations.csv", "trips.csv"):
            text = (city_dir / name).read_text(encoding="utf-8")
            (tmp_path / name).write_text("\ufeff" * (name in marked) + text, encoding="utf-8", newline="")
        out = tmp_path / "ingested"
        code = main(
            ["ingest", "--trips", str(tmp_path / "trips.csv"),
             "--locations", str(tmp_path / "locations.csv"), "--out-dir", str(out)]
        )
        assert code == 0
        for name in ("matrix.npz", "network_stats.json"):
            assert (out / name).read_bytes() == (city_dir / name).read_bytes()

    def test_ingest_missing_file_is_io_error(self, tmp_path):
        code = main(
            ["ingest", "--trips", "/nonexistent/t.csv", "--locations", "/nonexistent/l.csv",
             "--out-dir", str(tmp_path)]
        )
        assert code == 3

    def test_ingest_bad_rows_is_validation_error(self, tmp_path):
        (tmp_path / "locations.csv").write_text("id,lat,lon\nA,0,0\nB,0,1\n")
        (tmp_path / "trips.csv").write_text("origin,destination,hour,count\nA,B,99,1\n")
        code = main(
            ["ingest", "--trips", str(tmp_path / "trips.csv"),
             "--locations", str(tmp_path / "locations.csv"), "--out-dir", str(tmp_path)]
        )
        assert code == 1

    def test_ingest_huge_count_is_a_row_error(self, tmp_path, capsys):
        # a 400-digit count used to overflow when added into the float matrix
        (tmp_path / "locations.csv").write_text("id,lat,lon\nA,0,0\nB,0,1\n")
        (tmp_path / "trips.csv").write_text("origin,destination,hour,count\nA,B,9," + "9" * 400 + "\n")
        code = main(
            ["ingest", "--trips", str(tmp_path / "trips.csv"),
             "--locations", str(tmp_path / "locations.csv"), "--out-dir", str(tmp_path / "out")]
        )
        err = capsys.readouterr().err
        assert code == 1 and not (tmp_path / "out").exists()
        assert err.startswith("error: ") and "row 2: count above 2**53" in err and "Traceback" not in err

    def test_ingest_daily_total_above_2_53_fails(self, tmp_path, capsys):
        (tmp_path / "locations.csv").write_text("id,lat,lon\nA,0,0\nB,0,1\n")
        (tmp_path / "trips.csv").write_text(f"origin,destination,hour,count\nA,B,9,{2**53}\nA,B,10,1\n")
        code = main(
            ["ingest", "--trips", str(tmp_path / "trips.csv"),
             "--locations", str(tmp_path / "locations.csv"), "--out-dir", str(tmp_path / "out")]
        )
        err = capsys.readouterr().err
        assert code == 1 and not (tmp_path / "out").exists()
        assert err.startswith("error: ") and "'A' to 'B'" in err and "Traceback" not in err

    def test_usage_error_is_validation_exit(self):
        assert main(["simulate", "--matrix", "x.npz"]) == 1  # missing required args

    def test_module_entry_point_runs(self, tmp_path):
        src = pathlib.Path(epitransit.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = tmp_path / "city"
        done = subprocess.run(
            [sys.executable, "-m", "epitransit.cli", "synth-city", "--n", "20", "--seed", "2", "--out-dir", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("generated 20 locations")
        assert sorted(os.listdir(out)) == ["locations.csv", "matrix.npz", "network_stats.json", "trips.csv"]


class TestSimulateCompareTheory:
    def test_simulate_and_compare(self, city_dir, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = ["simulate", "--matrix", str(city_dir / "matrix.npz"), "--beta", "1.55",
                "--gamma", "0.2", "--horizon", "150", "--seed-rule", "0"]
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(b)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["compare", "--ptt", str(a), "--mpt", str(b), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {
            "early_warning", "peak_timing", "peak_magnitude",
            "situational_awareness", "locations_timing",
        }

    def test_simulate_writes_prevalence_csv(self, small_city, tmp_path):
        save_matrix_npz(small_city, tmp_path / "city.npz")
        path = tmp_path / "prev.csv"
        code = main(["simulate", "--matrix", str(tmp_path / "city.npz"), "--beta", "0.5", "--gamma", repr(1 / 3),
                     "--horizon", "50", "--seed-rule", "0", "--seed", "1", "--out", str(path)])
        assert code == 0
        series = engine.run_simulation(small_city, engine.EpidemicParams(beta=0.5, gamma=1 / 3, horizon=50), 0, 1)
        lines = path.read_text().splitlines()
        assert lines[0] == "day,prevalence,frac_locations_infected,total_S,total_I,total_R"
        assert len(lines) == len(series) + 1

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda a: {"populations": np.r_[0.5, a["populations"][1:]]}, "populations must be finite and at least"),
            (lambda a: {"populations": np.r_[np.nan, a["populations"][1:]]}, "populations must be finite and at least"),
            (lambda a: {"populations": a["populations"][:-1]}, "populations shape (29,) does not match 30 locations"),
            (lambda a: {"m": a["m"] * np.nan}, "contact matrix has negative, infinite or NaN entries"),
            (lambda a: {"lat": np.r_[a["lat"][:3], 95.0, a["lat"][4:]]}, "location 'L0003': lat 95.0 outside"),
            (lambda a: {"ids": np.r_[a["ids"][:1], a["ids"][:-1]]}, "duplicate location ids: ['L0000']"),
            (lambda a: {"m": a["m"][:4, :4]}, "matrix shape (4, 4) does not match 30 locations"),
            (lambda a: {"lat": np.r_[["north"], a["lat"][1:].astype(str)]}, "lat must hold real numbers"),
        ],
        ids=["population_below_floor", "nan_population", "short_populations", "nan_counts", "lat_95", "repeated_ids",
             "m_4x4", "text_lat"],
    )
    def test_simulate_bad_matrix_fails_before_any_run(self, city_dir, tmp_path, monkeypatch, capsys, change, message):
        with np.load(city_dir / "matrix.npz") as data:
            arrays = dict(data)
        arrays.update(change(arrays))
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        calls = []
        monkeypatch.setattr(engine, "run_simulation", lambda *a, **k: calls.append(a))
        code = main(["simulate", "--matrix", str(bad), "--beta", "1.55", "--gamma", "0.2",
                     "--out", str(tmp_path / "a.csv")])
        assert code == 1 and calls == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}") and err.count(str(bad)) == 1

    @pytest.mark.parametrize(
        "change",
        [
            lambda a: {"populations": a["populations"].astype(str)},
            lambda a: {"m": a["m"].astype(str)},
            lambda a: {"m": a["m"].astype(complex)},
        ],
        ids=["string_populations", "string_counts", "complex_counts"],
    )
    def test_simulate_matrix_of_non_real_numbers_fails_without_a_traceback(self, city_dir, tmp_path, capsys, change):
        with np.load(city_dir / "matrix.npz") as data:
            arrays = dict(data)
        arrays.update(change(arrays))
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        out = tmp_path / "a.csv"
        code = main(["simulate", "--matrix", str(bad), "--beta", "0.5", "--gamma", "0.3333", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.startswith(f"error: {bad}: ") and "must hold real numbers" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "change, command, message",
        [
            (lambda a: {"lat": a["lat"] + 1j}, "simulate", "lat must hold real numbers"),
            (lambda a: {"lon": a["lon"] + 1j}, "simulate", "lon must hold real numbers"),
            (lambda a: {"lat": a["lat"].astype(str)}, "simulate", "lat must hold real numbers"),
            (lambda a: {"ids": np.arange(30)}, "theory", "location ids must be strings, got 0"),
        ],
        ids=["complex_lat", "complex_lon", "string_lat", "integer_ids"],
    )
    def test_location_table_of_the_wrong_types_fails_and_names_the_file(
        self, city_dir, tmp_path, capsys, change, command, message
    ):
        # a complex lat used to lose its imaginary part, a string lat to be
        # parsed, and integer ids to leave no location that --source names
        with np.load(city_dir / "matrix.npz") as data:
            arrays = dict(data)
        arrays.update(change(arrays))
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        out = tmp_path / "out.csv"
        source = ["--source", "0"] if command == "theory" else []
        code = main([command, "--matrix", str(bad), "--beta", "0.5", "--gamma", "0.3333", *source, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.startswith(f"error: {bad}: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "theory", "theory_transit"])
    def test_infinite_count_fails(self, city_dir, tmp_path, capsys, command):
        # the populations stay the finite ones stored, so only the count check sees it
        with np.load(city_dir / "matrix.npz") as data:
            arrays = dict(data)
        arrays["m"][0, 1] = np.inf
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        out = tmp_path / "out.csv"
        good = str(city_dir / "matrix.npz")
        args = {
            "simulate": ["simulate", "--matrix", str(bad), "--out", str(out)],
            "theory": ["theory", "--matrix", str(bad), "--source", "L0000", "--out", str(out)],
            "theory_transit": ["theory", "--matrix", good, "--transit-matrix", str(bad), "--source", "L0000",
                               "--out", str(out)],
        }[command]
        code = main([*args, "--beta", "0.5", "--gamma", "0.3333"])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {bad}: contact matrix has negative, infinite or NaN entries")

    @pytest.mark.parametrize(
        "write, message",
        [
            (lambda a, fh: np.savez(fh, **{k: v for k, v in a.items() if k != "ids"}), "lacks the array 'ids'"),
            (lambda a, fh: np.savez(fh, **{**a, "clamps": np.array([], dtype=np.int64)}), "clamps must hold one"),
            (lambda a, fh: np.savez(fh, **{**a, "clamps": np.array([-1])}), "clamps must hold one integer >= 0"),
            (lambda a, fh: np.savez(fh, **{**a, "clamps": np.array([0.5])}), "clamps must hold one integer >= 0"),
            (lambda a, fh: np.save(fh, a["m"]), "not a .npz archive"),
            (lambda a, fh: fh.write(b"origin,destination\n"), "not a .npz archive"),
            (lambda a, fh: None, "not a .npz archive"),
            (lambda a, fh: (np.savez(fh, **a), fh.truncate(fh.tell() // 2)), "not a .npz archive"),
        ],
        ids=["no_ids", "empty_clamps", "negative_clamps", "float_clamps", "npy_array", "text", "empty", "truncated"],
    )
    @pytest.mark.parametrize("command", ["simulate", "theory", "sweep"])
    def test_malformed_matrix_file_names_it(self, city_dir, tmp_path, capsys, command, write, message):
        with np.load(city_dir / "matrix.npz") as data:
            arrays = dict(data)
        bad = tmp_path / "bad.npz"
        with open(bad, "wb") as fh:
            write(arrays, fh)
        out = tmp_path / "out"
        if command == "sweep":
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({"seed_draws": 1, "replicates": 1, "pairs": [[3, 5]],
                                               "delta_bands": ["low"], "city": None, "matrix_npz": str(bad)}))
            args = ["sweep", "--config", str(config_path), "--output-dir", str(out)]
        else:
            source = ["--source", "L0000"] if command == "theory" else []
            args = [command, "--matrix", str(bad), "--beta", "0.5", "--gamma", "0.3333", *source, "--out", str(out)]
        assert main(args) == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and message in err and "Traceback" not in err

    @pytest.mark.parametrize("beta", ["inf", "nan"])
    def test_simulate_non_finite_beta_fails_before_any_run(self, city_dir, tmp_path, monkeypatch, beta):
        calls = []
        monkeypatch.setattr(engine, "run_simulation", lambda *a, **k: calls.append(a))
        code = main(["simulate", "--matrix", str(city_dir / "matrix.npz"), "--beta", beta,
                     "--gamma", "0.2", "--out", str(tmp_path / "a.csv")])
        assert code == 1 and calls == []

    def test_simulate_overflowing_beta_fails_and_writes_nothing(self, tmp_path, capsys):
        # beta * N overflows to inf, and inf times I = 0 would turn the run into NaN
        matrix = matrix_from_flows(np.full((3, 3), 5.0), populations=np.array([1e10, 50.0, 80.0]))
        save_matrix_npz(matrix, tmp_path / "big.npz")
        out = tmp_path / "a.csv"
        code = main(["simulate", "--matrix", str(tmp_path / "big.npz"), "--beta", "1e300", "--gamma", "0.2",
                     "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_compare_of_csvs_with_a_byte_order_mark_matches_without(self, city_dir, tmp_path):
        runs = {}
        for seed in ("1", "2"):
            runs[seed] = tmp_path / f"run{seed}.csv"
            assert main(["simulate", "--matrix", str(city_dir / "matrix.npz"), "--beta", "0.5", "--gamma", "0.3333",
                         "--seed", seed, "--out", str(runs[seed])]) == 0
            marked = tmp_path / f"marked{seed}.csv"
            marked.write_text("\ufeff" + runs[seed].read_text(encoding="utf-8"), encoding="utf-8", newline="")
        reports = []
        for ptt, mpt in ((runs["1"], runs["2"]), (tmp_path / "marked1.csv", tmp_path / "marked2.csv")):
            out = tmp_path / f"report_{ptt.stem}.json"
            assert main(["compare", "--ptt", str(ptt), "--mpt", str(mpt), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_compare_csv_without_column_fails(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("day,prevalence,frac_locations_infected\n0,0.1,0.5\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("day,prevalence\n0,0.1\n")
        code = main(["compare", "--ptt", str(bad), "--mpt", str(good), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "frac_locations_infected" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ptt_rows, mpt_rows, message",
        [
            (["0,0.1,0.5", "1,0.2,0.6"], ["0,0.0,0.5", "1,0.0,0.6"], "never rises above 0"),
            (["0,0.1,0.5", "1,nan,0.6"], ["0,0.1,0.5", "1,0.2,0.6"], "row 3: prevalence nan outside [0, 1]"),
            (["0,0.1,0.5", "1,0.2,0.6"], ["0,0.1,0.5", "1,0.2,inf"], "row 3: frac_locations_infected inf"),
            (["0,0.1,0.5", "1,1.5,0.6"], ["0,0.1,0.5", "1,0.2,0.6"], "row 3: prevalence 1.5 outside [0, 1]"),
            (["0,abc,0.5"], ["0,0.1,0.5", "1,0.2,0.6"], "row 2: could not convert string to float"),
            ([], ["0,0.1,0.5", "1,0.2,0.6"], "empty prevalence series"),
            (["0,0.1,0.5,9"], ["0,0.1,0.5", "1,0.2,0.6"], "row 2: expected 3 fields, got 4"),
            (["0,0.1,0.5"], ["0,0.1,0.5", "1,0.2"], "row 3: expected 3 fields, got 2"),
            (["0,0.1,0.5", "", "1,nan,0.6"], ["0,0.1,0.5", "1,0.2,0.6"], "row 4: prevalence nan outside [0, 1]"),
            (["0,0.1,0.5", "1,nan,0.6", "2,0.2,0.6,9"], ["0,0.1,0.5", "1,0.2,0.6", "2,0.2,0.6"],
             "2 malformed row(s): row 3: prevalence nan outside [0, 1]; row 4: expected 3 fields, got 4"),
        ],
        ids=["all_zero_mpt", "nan_prevalence", "infinite_frac", "prevalence_above_one", "unparseable_row",
             "header_only", "extra_field", "missing_field", "row_after_a_blank_line", "two_bad_rows"],
    )
    def test_compare_rejects_series_it_cannot_compare(self, tmp_path, capsys, ptt_rows, mpt_rows, message):
        header = "day,prevalence,frac_locations_infected\n"
        (tmp_path / "ptt.csv").write_text(header + "\n".join(ptt_rows) + "\n")
        (tmp_path / "mpt.csv").write_text(header + "\n".join(mpt_rows) + "\n")
        out = tmp_path / "r.json"
        code = main(["compare", "--ptt", str(tmp_path / "ptt.csv"), "--mpt", str(tmp_path / "mpt.csv"),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert err.startswith("error: ") and message in err

    def test_compare_rejects_days_that_are_not_consecutive(self, tmp_path, capsys):
        header = "day,prevalence,frac_locations_infected\n"
        values = [f"{0.02 * (t + 1)!r},0.5\n" for t in range(12)]
        (tmp_path / "mpt.csv").write_text(header + "".join(f"{t},{v}" for t, v in enumerate(values)))
        # the same values a week apart are not 12 consecutive days
        (tmp_path / "ptt.csv").write_text(header + "".join(f"{7 * t},{v}" for t, v in enumerate(values)))
        out = tmp_path / "r.json"
        args = ["compare", "--mpt", str(tmp_path / "mpt.csv"), "--out", str(out), "--ptt"]
        assert main(args + [str(tmp_path / "mpt.csv")]) == 0
        out.unlink()
        assert main(args + [str(tmp_path / "ptt.csv")]) == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "11 malformed row(s): row 3: day 7 where day 1 belongs" in err

    @pytest.mark.parametrize("transit_n", [20, 40], ids=["transit_subset", "transit_superset"])
    def test_theory_rejects_a_transit_matrix_from_another_city(self, city_dir, tmp_path, capsys, transit_n):
        other = tmp_path / "other"
        assert main(["synth-city", "--n", str(transit_n), "--seed", "4", "--out-dir", str(other)]) == 0
        out = tmp_path / "ranking.csv"
        code = main(
            ["theory", "--matrix", str(city_dir / "matrix.npz"), "--transit-matrix", str(other / "matrix.npz"),
             "--source", "L0000", "--beta", "0.5", "--gamma", "0.3333", "--out", str(out)]
        )
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_theory_ranking(self, city_dir, tmp_path):
        out = tmp_path / "ranking.csv"
        code = main(
            ["theory", "--matrix", str(city_dir / "matrix.npz"), "--source", "L0000",
             "--beta", "0.5", "--gamma", "0.3333", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "source_id,dest_id,theta,theta_transit,ratio"
        assert len(lines) == 30

    def test_theory_unknown_source(self, city_dir, tmp_path):
        code = main(
            ["theory", "--matrix", str(city_dir / "matrix.npz"), "--source", "NOPE",
             "--beta", "0.5", "--gamma", "0.3333", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 1


# a disease name names a prevalence_pair_*.csv file and fills a cells.csv field
_UNSAFE_DISEASE_NAMES = {
    "empty": "", "slash": "flu/a", "backslash": "flu\\a", "comma": "x,y",
    "quote": 'say "flu"', "nul": "a\0b", "cr": "a\rb", "lf": "a\nb",
}


class TestSweepAndExport:
    def test_sweep_then_reexport_byte_identical(self, tmp_path):
        config = ScenarioConfig(
            diseases=[Disease("h1n1", 0.5, 1 / 3)],
            delta_bands=["low"],
            pairs=[(3, 5)],
            seed_draws=2,
            replicates=1,
            horizon=120,
            master_seed=4,
            city=CityConfig(n_locations=30, extent_km=60.0, trips_per_capita=0.8),
            compare=CompareConfig(thresholds=(0.2, 0.8)),
            output_dir=str(tmp_path / "out"),
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_json_dict()))
        assert main(["sweep", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        assert (out / "sweep_result.json").exists()
        assert (out / "cells.csv").exists()

        re_out = tmp_path / "re"
        assert main(
            ["export", "--result", str(out / "sweep_result.json"), "--out-dir", str(re_out)]
        ) == 0
        for name in ("cells.csv", "ledger.jsonl", "metrics_vs_r0.csv", "summary.json"):
            assert (out / name).read_bytes() == (re_out / name).read_bytes()

    def test_sweep_infeasible_exit_code(self, tmp_path):
        # co-located locations: trips at distance 0 cannot reach the mode share
        (tmp_path / "locations.csv").write_text("id,lat,lon\nA,5,5\nB,5,5\nC,5,5\n")
        (tmp_path / "trips.csv").write_text(
            "origin,destination,hour,count\n"
            + "\n".join(f"{o},{d},8,50" for o in "ABC" for d in "ABC")
            + "\n"
        )
        ingest_dir = tmp_path / "ing"
        assert main(
            ["ingest", "--trips", str(tmp_path / "trips.csv"),
             "--locations", str(tmp_path / "locations.csv"), "--out-dir", str(ingest_dir)]
        ) == 0
        config = ScenarioConfig(
            diseases=[Disease("h1n1", 0.5, 1 / 3)],
            delta_bands=["low"],
            pairs=[(3, 5)],
            seed_draws=1,
            replicates=1,
            horizon=50,
            city=None,
            matrix_npz=str(ingest_dir / "matrix.npz"),
            output_dir=str(tmp_path / "out2"),
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_json_dict()))
        assert main(["sweep", "--config", str(config_path)]) == 2

    def test_sweep_seed_override_is_checked_before_any_run(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(engine, "run_simulation", lambda *a, **k: calls.append(a))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed_draws": 1, "replicates": 1, "pairs": [[3, 5]],
                                           "delta_bands": ["low"], "city": {"n_locations": 30}}))
        code = main(["sweep", "--config", str(config_path), "--seed", "-1", "--output-dir", str(tmp_path / "o")])
        assert code == 1 and calls == []
        assert "master_seed" in capsys.readouterr().err

    def test_sweep_overrides_reach_the_exports(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"diseases": [{"name": "h1n1", "beta": 0.5, "gamma": 1 / 3}],
                                           "seed_draws": 1, "replicates": 1, "pairs": [[3, 5]], "horizon": 60,
                                           "delta_bands": ["low"], "city": {"n_locations": 30}}))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(config_path), "--seed", "7", "--output-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["master_seed"] == 7
        assert summary["config"]["output_dir"] == str(out)

    def test_sweep_of_a_config_with_a_byte_order_mark_matches_without(self, tmp_path, monkeypatch):
        # each sweep writes to "out" under its own directory, so that every
        # file, the config echoed in summary.json too, can match byte for byte
        config = {"diseases": [{"name": "h1n1", "beta": 0.5, "gamma": 1 / 3}], "seed_draws": 1, "replicates": 2,
                  "pairs": [[3, 5]], "horizon": 60, "delta_bands": ["low"], "city": {"n_locations": 30},
                  "output_dir": "out"}
        written = {}
        for name, mark in (("plain", ""), ("marked", "\ufeff")):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            pathlib.Path("config.json").write_text(mark + json.dumps(config), encoding="utf-8")
            assert main(["sweep", "--config", "config.json"]) == 0
            written[name] = {path.name: path.read_bytes() for path in pathlib.Path("out").iterdir()}
        assert "cells.csv" in written["plain"] and written["marked"] == written["plain"]

    @pytest.mark.parametrize(
        "text, message",
        [('{"diseases": [}', "Expecting value"), ('{"seed_draws": 0}', "seed_draws must be an integer >= 1")],
        ids=["json_syntax", "zero_seed_draws"],
    )
    def test_config_errors_name_the_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(path), "--output-dir", str(out)]) == 1 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}") and "Traceback" not in err

    def test_sweep_unknown_key_is_validation_error(self, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"seed_draws": 1, "replicates": 1, "bogus": 3}))
        assert main(["sweep", "--config", str(config_path), "--output-dir", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"delta_bands": ["low", "nope"]},
            {"seed_draws": "2"},
            {"diseases": [{"name": "x"}]},
            {"horizon": "300"},
            {"compare": {"level": 2.0}},
            {"compare": {"min_overlap": 0}},
            {"max_pairs": -1},
            {"compare": {"thresholds": 5}},
            {"k_range": 5},
            {"city": {"n_locations": "x"}},
            {"mu": "0.3"},
            {"mu": 1.5},
            {"extinction_threshold": "a"},
            {"hazard_variant": "bogus"},
            {"seed_rule": "nearest"},
            {"pairs": [[3]]},
            {"pairs": [[0, 15]]},
            {"delta_bands": "low"},
            {"delta_bands": [["low"]]},
            {"diseases": [{"name": "flu", "beta": 0.5, "gamma": 0.2}, {"name": "flu", "beta": 1.5, "gamma": 0.2}]},
            {"diseases": [{"name": "flu", "beta": float("inf"), "gamma": 0.2}]},
            {"extinction_threshold": float("nan")},
            {"city": {"n_locations": 30, "extent_km": float("inf")}},
            {"city": {"n_locations": 30, "extent_km": 10**400}},
            {"pairs": [[3, float("inf")]]},
            {"pairs": [[2, 6.5]]},
            {"compare": {"thresholds": [0.201, 0.204]}},
            *({"diseases": [{"name": name, "beta": 0.5, "gamma": 0.2}]} for name in _UNSAFE_DISEASE_NAMES.values()),
        ],
        ids=["unknown_band", "string_seed_draws", "disease_missing_keys", "string_horizon",
             "level_above_one", "zero_min_overlap", "negative_max_pairs", "scalar_thresholds",
             "scalar_k_range", "string_n_locations", "string_mu", "mu_above_one",
             "string_extinction_threshold", "unknown_hazard_variant", "unknown_seed_rule",
             "one_element_pair", "pair_k_zero", "string_delta_bands", "nested_delta_bands",
             "duplicate_disease_names", "infinite_beta", "nan_extinction_threshold",
             "infinite_extent_km", "huge_int_extent_km", "infinite_theta", "fractional_theta", "colliding_thresholds",
             *(f"disease_name_{kind}" for kind in _UNSAFE_DISEASE_NAMES)],
    )
    def test_sweep_bad_config_fails_before_any_run(self, tmp_path, monkeypatch, capsys, bad):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(engine, "run_simulation", counted("run", engine.run_simulation))
        monkeypatch.setattr(
            runner, "generate_synthetic_city", counted("city", runner.generate_synthetic_city)
        )
        # merged into a sweep that is valid without the bad value
        config = {"seed_draws": 1, "replicates": 1, "pairs": [[3, 5]], "delta_bands": ["low"],
                  "city": {"n_locations": 30}}
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({**config, **bad}))
        assert main(["sweep", "--config", str(config_path), "--output-dir", str(tmp_path / "o")]) == 1
        assert calls == []
        assert capsys.readouterr().err.startswith("error: ")

    def test_sweep_overflowing_beta_fails_before_any_run(self, tmp_path, monkeypatch, capsys):
        # beta is checked against the generated city's populations, so the
        # city is built but nothing is calibrated or run
        calls = []
        monkeypatch.setattr(engine, "run_simulation", lambda *a, **k: calls.append("run"))
        monkeypatch.setattr(runner.transit, "calibrate", lambda *a, **k: calls.append("calibrate"))
        config = {"seed_draws": 1, "replicates": 1, "pairs": [[3, 5]], "delta_bands": ["low"],
                  "city": {"n_locations": 30},
                  "diseases": [{"name": "h1n1", "beta": 0.5, "gamma": 0.5}, {"name": "x", "beta": 1e306, "gamma": 1.0}]}
        config_path = tmp_path / "big.json"
        config_path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(config_path), "--output-dir", str(tmp_path / "o")]) == 1
        assert calls == []
        assert capsys.readouterr().err.startswith("error: ")

    def test_sweep_with_only_failed_comparisons_succeeds(self, tmp_path, capsys):
        # horizon 5 leaves series too short for the 10-day minimum overlap
        config = ScenarioConfig(
            diseases=[Disease("h1n1", 0.5, 1 / 3)],
            delta_bands=["low"],
            pairs=[(3, 5)],
            seed_draws=2,
            replicates=1,
            horizon=5,
            master_seed=11,
            city=CityConfig(n_locations=40, extent_km=80.0, pop_median=600.0, trips_per_capita=0.6),
            output_dir=str(tmp_path / "out"),
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_json_dict()))
        assert main(["sweep", "--config", str(config_path)]) == 0
        assert "2 failed comparison(s)" in capsys.readouterr().out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["n_cells"] == 1 and summary["n_ledger"] == 0

    def test_export_of_result_without_failed_comparisons_fails(self, tmp_path, capsys):
        config = ScenarioConfig(
            diseases=[Disease("h1n1", 0.5, 1 / 3)],
            delta_bands=["low"],
            pairs=[(3, 5)],
            seed_draws=1,
            replicates=1,
            horizon=60,
            city=CityConfig(n_locations=30, extent_km=60.0, trips_per_capita=0.8),
        )
        saved = runner.run_sweep(config).to_json_dict()
        for cell in saved["cells"]:
            del cell["failed_comparisons"]
        result_path = tmp_path / "sweep_result.json"
        result_path.write_text(json.dumps(saved))
        out = tmp_path / "re"
        assert main(["export", "--result", str(result_path), "--out-dir", str(out)]) == 1
        assert "failed_comparisons" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def saved_result():
    """A one-cell sweep's result as sweep_result.json holds it."""
    config = ScenarioConfig(
        diseases=[Disease("h1n1", 0.5, 1 / 3)],
        delta_bands=["low"],
        pairs=[(3, 5)],
        seed_draws=1,
        replicates=1,
        horizon=60,
        city=CityConfig(n_locations=30, extent_km=60.0, trips_per_capita=0.8),
    )
    return json.dumps(runner.run_sweep(config).to_json_dict())


_FIRST = object()  # the first key of a dict, whatever it is named


# one key of each kind that export reads, as a path into the saved result
_EXPORT_KEYS = {
    "top_level_field": ("histograms",),
    "cell_column": ("cells", 0, "lambda"),
    "aggregate_statistic": ("cells", 0, "aggregates", _FIRST),
    "histogram_bin_edges": ("histograms", _FIRST, "bin_edges"),
    "histogram_masses": ("histograms", _FIRST, "masses"),
    "histogram_p95_km": ("histograms", _FIRST, "p95_km"),
    "curve_ptt_prevalence": ("example_curves", _FIRST, "ptt_prevalence"),
    "compare_thresholds": ("config", "compare", "thresholds"),
}


def _holder(d, path):
    """The dict in d that holds the key at the end of path, and the key."""
    for k in path:
        holder, key = d, next(iter(d)) if k is _FIRST else k
        d = d[key]
    return holder, key


def _delete(d, path):
    """Delete the key at the end of path from d; returns its name."""
    holder, key = _holder(d, path)
    del holder[key]
    return key


class TestExportOfMalformedResult:
    @staticmethod
    def export(saved, tmp_path, capsys):
        """Export saved; returns the exit code and stderr, after checking
        that stderr names the result and that no out dir was made."""
        result_path = tmp_path / "sweep_result.json"
        result_path.write_text(json.dumps(saved))
        out = tmp_path / "re"
        code = main(["export", "--result", str(result_path), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert err.startswith(f"error: {result_path}: ") and "Traceback" not in err
        assert not out.exists()
        return code, err

    @pytest.mark.parametrize("path", _EXPORT_KEYS.values(), ids=_EXPORT_KEYS.keys())
    def test_missing_key_fails_and_writes_nothing(self, saved_result, tmp_path, capsys, path):
        saved = json.loads(saved_result)
        key = _delete(saved, path)
        code, err = self.export(saved, tmp_path, capsys)
        assert code == 1 and key in err

    @pytest.mark.parametrize("value", [None, 3], ids=["null", "number"])
    def test_masses_of_the_wrong_type_fail_and_write_nothing(self, saved_result, tmp_path, capsys, value):
        saved = json.loads(saved_result)
        next(iter(saved["histograms"].values()))["masses"] = value
        code, _ = self.export(saved, tmp_path, capsys)
        assert code == 1

    # unchecked, zip would stop at the shorter list and write fewer rows
    @pytest.mark.parametrize("change", [lambda m: m[:1], lambda m: m + [0.0]], ids=["one_mass", "one_mass_too_many"])
    def test_masses_not_one_per_bin_fail_and_write_nothing(self, saved_result, tmp_path, capsys, change):
        saved = json.loads(saved_result)
        hist = next(iter(saved["histograms"].values()))
        assert len(hist["bin_edges"]) > 2
        hist["masses"] = change(hist["masses"])
        code, err = self.export(saved, tmp_path, capsys)
        assert code == 1 and "'masses'" in err

    @pytest.mark.parametrize("value", ["far", None, True], ids=["string", "null", "bool"])
    def test_p95_that_is_not_a_real_number_fails_and_writes_nothing(self, saved_result, tmp_path, capsys, value):
        saved = json.loads(saved_result)
        next(iter(saved["histograms"].values()))["p95_km"] = value
        code, err = self.export(saved, tmp_path, capsys)
        assert code == 1 and "'p95_km'" in err

    # a string is a sequence: unchecked, each of its characters would be a row
    @pytest.mark.parametrize(
        "path, value",
        [
            (("histograms", _FIRST, "masses"), "x"),
            (("histograms", _FIRST, "bin_edges"), [0.0, "5.0"]),
            (("example_curves", _FIRST, "ptt_prevalence"), "abc"),
            (("example_curves", _FIRST, "mpt_prevalence"), [0.5, None]),
            (("example_curves", _FIRST, "mpt_prevalence"), [0.5, True]),
        ],
        ids=["masses_string", "edges_string_item", "ptt_string", "mpt_null_item", "mpt_bool_item"],
    )
    def test_series_of_non_numbers_fail_and_write_nothing(self, saved_result, tmp_path, capsys, path, value):
        saved = json.loads(saved_result)
        holder, key = _holder(saved, path)
        holder[key] = value
        code, err = self.export(saved, tmp_path, capsys)
        assert code == 1 and repr(key) in err
