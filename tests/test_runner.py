import json
import logging
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from epitransit import transit
from epitransit.metrics import CompareConfig, ComparisonReport
from epitransit.mobility import matrix_from_flows
from epitransit.runner import (
    Disease,
    ScenarioConfig,
    SweepResult,
    band_pairs,
    base_matrix,
    export_results,
    replay_run,
    run_sweep,
)
from epitransit.synthcity import CityConfig
from epitransit.transit import DeltaBand


def tiny_config(**overrides):
    defaults = dict(
        diseases=[Disease("h1n1", 0.5, 1 / 3)],
        delta_bands=["low"],
        pairs=[(3, 5)],
        seed_draws=2,
        replicates=3,
        horizon=150,
        master_seed=11,
        city=CityConfig(n_locations=40, extent_km=80.0, pop_median=600.0, trips_per_capita=0.6),
        compare=CompareConfig(thresholds=(0.2, 0.8)),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


TWO_DISEASES = [Disease("h1n1", 0.5, 1 / 3), Disease("varicella", 1.55, 0.2)]
# two pairs in each band: k*theta = 15 and 14 (low), 32 and 36 (mediate)
TWO_BAND_PAIRS = [(3, 5), (2, 7), (2, 16), (3, 12)]


@pytest.fixture(scope="module")
def two_disease_sweep():
    """A two-disease, two-band sweep, with the calibrate and thinning calls
    it made counted."""
    config = tiny_config(diseases=TWO_DISEASES, delta_bands=["low", "mediate"], pairs=TWO_BAND_PAIRS)
    matrix = base_matrix(config)
    calls = {"calibrate": 0, "sample_transit_matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(transit, name, counted(name, getattr(transit, name)))
        result = run_sweep(config, matrix=matrix)
    return config, matrix, result, calls


class TestConfig:
    def test_json_roundtrip(self):
        # every field of the second config differs from its default, so a
        # field the derived to_json_dict dropped would come back changed
        changed = ScenarioConfig(
            diseases=[Disease("x", 0.9, 0.5)],
            delta_bands=("mediate",),
            mu=0.3,
            k_range=(3, 9),
            theta_range=(2, 12),
            pairs=[(3, 11), (4, 8)],
            max_pairs=1,
            seed_draws=2,
            replicates=3,
            seed_rule=0,
            master_seed=5,
            horizon=40,
            extinction_threshold=0.01,
            hazard_variant="no_inner_s",
            compare=CompareConfig(level=0.05, max_lag=4, min_overlap=3, thresholds=(0.5,)),
            city=CityConfig(7, 5.0, 100.0, 0.5, 0.2, 3.0, 1.0, 2.0),
            matrix_npz="m.npz",
            output_dir="elsewhere",
        )
        defaults = ScenarioConfig()
        assert all(getattr(changed, f.name) != getattr(defaults, f.name) for f in fields(ScenarioConfig))
        for config in (tiny_config(), changed):
            again = ScenarioConfig.from_json_dict(json.loads(json.dumps(config.to_json_dict())))
            assert again == config

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config().to_json_dict()))
        assert ScenarioConfig.from_json_file(path) == tiny_config()

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(seed_draws=0)
        with pytest.raises(ValueError):
            tiny_config(diseases=[])
        with pytest.raises(ValueError):
            tiny_config(diseases=[Disease("bad", -1.0, 0.5)])
        with pytest.raises(ValueError):
            tiny_config(city=None)
        with pytest.raises(ValueError, match="nope"):
            tiny_config(delta_bands=["low", "nope"])
        with pytest.raises(ValueError, match="duplicate disease name"):
            tiny_config(diseases=[Disease("flu", 0.5, 0.2), Disease("flu", 1.5, 0.2)])

    @pytest.mark.parametrize("section", [None, "diseases", "compare", "city"])
    def test_unknown_key_names_it(self, section):
        d = tiny_config().to_json_dict()
        target = d if section is None else d[section]
        if section == "diseases":
            target = target[0]
        target["bogus"] = 3
        with pytest.raises(ValueError, match="bogus"):
            ScenarioConfig.from_json_dict(d)

    def test_band_pair_selection(self):
        config = tiny_config(pairs=None, max_pairs=4)
        low = DeltaBand.from_label("low")
        pairs = band_pairs(config, low)
        assert len(pairs) == 4
        assert all(low.contains(k * t) for k, t in pairs)
        explicit = tiny_config(pairs=[(3, 5), (2, 16)])  # (2,16) is mediate, filtered out
        assert band_pairs(explicit, low) == [(3, 5)]


class TestRunSweep:
    def test_combinatorics_and_ledger(self):
        # 1 disease, 1 pair, 2 seed draws, 3 replicates: 6 paired runs
        config = tiny_config()
        result = run_sweep(config)
        assert len(result.ledger) == 6
        assert result.total_runs == 2 * 3 * (1 + 1)
        indices = [(e["seed_draw"], e["replicate"]) for e in result.ledger]
        assert sorted(indices) == [(s, r) for s in range(2) for r in range(3)]

    def test_cell_aggregates_shape(self):
        result = run_sweep(tiny_config())
        assert len(result.cells) == 1
        agg = result.cells[0]["aggregates"]
        assert set(agg) >= {
            "early_warning",
            "peak_timing",
            "peak_magnitude",
            "situational_awareness",
            "locations_timing_20",
            "locations_timing_80",
        }
        for stats in agg.values():
            assert stats["n"] + stats["censored"] == 6

    def test_sweep_leaves_the_matrix_as_it_found_it(self, two_disease_sweep):
        # the entries cache it computed lasts as long as the sweep
        matrix = two_disease_sweep[1]
        assert "entries" not in vars(matrix)
        config = tiny_config()
        matrix = base_matrix(config)
        kept = matrix.entries
        run_sweep(config, matrix=matrix)
        assert matrix.entries is kept

    def test_plan_calibrates_each_cell_once(self, two_disease_sweep):
        config, _, result, calls = two_disease_sweep
        assert len(result.cells) == len(config.diseases) * len(TWO_BAND_PAIRS)
        assert calls["calibrate"] == len(TWO_BAND_PAIRS)
        assert calls["sample_transit_matrix"] == len(TWO_BAND_PAIRS)

    def test_run_index_is_closed_form(self, caplog):
        # at horizon 5 and a 6-day minimum overlap, a comparison fails when
        # either arm of "brief" dies out early, which depends on its
        # introductions; h1n1's comparisons all succeed
        diseases = [TWO_DISEASES[0], Disease("brief", 3e-4, 1.0)]
        config = tiny_config(
            diseases=diseases, delta_bands=["low", "mediate"], pairs=TWO_BAND_PAIRS,
            horizon=5, compare=CompareConfig(min_overlap=6),
        )
        with caplog.at_level(logging.WARNING, logger="epitransit.runner"):
            result = run_sweep(config)
        n_cells, draws, reps = len(TWO_BAND_PAIRS), config.seed_draws, config.replicates
        names = [d.name for d in diseases]
        indices = [e["run_index"] for e in result.ledger]
        assert indices == [
            ((names.index(e["disease"]) * n_cells + TWO_BAND_PAIRS.index((e["k"], e["theta"]))) * draws
             + e["seed_draw"]) * reps + e["replicate"]
            for e in result.ledger
        ]
        assert indices == sorted(indices)
        failed = [int(m.group(1)) for m in (re.match(r"run (\d+):", r.getMessage()) for r in caplog.records) if m]
        per_pair = draws * reps
        assert len(failed) == sum(c["failed_comparisons"] for c in result.cells) > 0
        assert {e["disease"] for e in result.ledger} == set(names)
        # every index is taken once, by a ledger entry or a failed comparison
        assert sorted(indices + failed) == list(range(len(result.cells) * per_pair))
        # and a failure falls in the block of its (disease, cell)
        assert [c["failed_comparisons"] for c in result.cells] == [
            sum(i // per_pair == block for i in failed) for block in range(len(result.cells))
        ]

    def test_replay_reproduces_every_entry(self, two_disease_sweep):
        config, matrix, result, _ = two_disease_sweep
        assert {e["disease"] for e in result.ledger} == {"h1n1", "varicella"}
        assert {e["band"] for e in result.ledger} == {"low", "mediate"}
        assert len(result.ledger) == 2 * len(TWO_BAND_PAIRS) * 6
        for entry in result.ledger:
            assert replay_run(config, entry, matrix=matrix).to_json_dict() == entry["report"]

    def test_replay_reproduces_reports_bit_exactly(self):
        config = tiny_config()
        matrix = base_matrix(config)
        result = run_sweep(config, matrix=matrix)
        for entry in result.ledger[:3]:
            replayed = replay_run(config, entry, matrix=matrix)
            assert replayed.to_json_dict() == entry["report"]

    def test_infeasible_cells_skipped(self):
        # all locations at identical coordinates: every trip distance is
        # exactly 0, where the k>1 density vanishes, so no cell can reach
        # the mode share
        matrix = matrix_from_flows(np.full((6, 6), 10.0), populations=np.full(6, 100.0))
        config = tiny_config(diseases=TWO_DISEASES, delta_bands=["low", "mediate"], pairs=TWO_BAND_PAIRS)
        result = run_sweep(config, matrix=matrix)
        assert result.cells == []
        assert result.ledger == []
        assert result.total_runs == 2 * 6  # the baselines only
        # one entry per cell, not per disease
        assert [(c["band"], c["k"], c["theta"]) for c in result.infeasible_cells] == [
            ("low", 3, 5), ("low", 2, 7), ("mediate", 2, 16), ("mediate", 3, 12)
        ]
        assert all(c["achievable"] == 0.0 and "disease" not in c for c in result.infeasible_cells)

    def test_failed_comparisons_counted(self, tmp_path):
        # five days leave fewer than min_overlap days to compare
        result = run_sweep(tiny_config(horizon=5))
        assert result.ledger == []
        assert [c["failed_comparisons"] for c in result.cells] == [6]
        assert all(a["n"] == a["censored"] == 0 for a in result.cells[0]["aggregates"].values())
        export_results(result, tmp_path)
        assert json.loads((tmp_path / "summary.json").read_text())["failed_comparisons"] == 6
        header, row = (tmp_path / "cells.csv").read_text().splitlines()
        assert header.endswith(",failed_comparisons")
        assert row.endswith(",6")

    def test_sweep_result_json_roundtrip(self, tmp_path):
        result = run_sweep(tiny_config())
        path = tmp_path / "result.json"
        result.save_json(path)
        again = SweepResult.load_json(path)
        assert again.to_json_dict() == result.to_json_dict()


class TestExports:
    def test_empty_sweep_writes_header_only(self, tmp_path):
        config = tiny_config(pairs=[])
        result = run_sweep(config)
        export_results(result, tmp_path)
        lines = (tmp_path / "cells.csv").read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("disease,beta,gamma,r0,band,k,theta,lambda")
        assert (tmp_path / "ledger.jsonl").read_text() == ""

    def test_one_cell_sweep_writes_one_row(self, tmp_path):
        result = run_sweep(tiny_config())
        export_results(result, tmp_path)
        lines = (tmp_path / "cells.csv").read_text().splitlines()
        assert len(lines) == 2
        assert (tmp_path / "prevalence_pair_h1n1.csv").exists()
        assert (tmp_path / "distance_hist_full.csv").exists()
        assert (tmp_path / "metrics_vs_r0.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_histogram_csv(self, tmp_path):
        result = run_sweep(tiny_config())
        export_results(result, tmp_path)
        lines = (tmp_path / "distance_hist_full.csv").read_text().splitlines()
        assert lines[0] == "bin_left_km,bin_right_km,mass"
        assert len(lines) > 1
        assert len(lines) - 1 == len(result.histograms["full"]["masses"])

    def test_reexport_is_byte_identical(self, tmp_path):
        result = run_sweep(tiny_config())
        a, b = tmp_path / "a", tmp_path / "b"
        files_a = export_results(result, a)
        files_b = export_results(result, b)
        assert [f.replace(str(a), "") for f in files_a] == [
            f.replace(str(b), "") for f in files_b
        ]
        for fa, fb in zip(files_a, files_b):
            assert Path(fa).read_bytes() == Path(fb).read_bytes()
