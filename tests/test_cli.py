import json

import numpy as np
import pytest

from epitransit import engine, runner
from epitransit.cli import main
from epitransit.mobility import load_matrix_npz
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

    def test_usage_error_is_validation_exit(self):
        assert main(["simulate", "--matrix", "x.npz"]) == 1  # missing required args


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

    def test_compare_csv_without_column_fails(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text("day,prevalence,frac_locations_infected\n0,0.1,0.5\n")
        bad = tmp_path / "bad.csv"
        bad.write_text("day,prevalence\n0,0.1\n")
        code = main(["compare", "--ptt", str(bad), "--mpt", str(good), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "frac_locations_infected" in capsys.readouterr().err

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
        ],
        ids=["unknown_band", "string_seed_draws", "disease_missing_keys", "string_horizon",
             "level_above_one", "zero_min_overlap", "negative_max_pairs", "scalar_thresholds",
             "scalar_k_range", "string_n_locations", "string_mu", "mu_above_one",
             "string_extinction_threshold", "unknown_hazard_variant", "unknown_seed_rule",
             "one_element_pair", "pair_k_zero", "string_delta_bands", "nested_delta_bands"],
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
