import itertools
import json
import logging
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from epitransit import engine, metrics, runner, transit
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


def _square_arrays(matrix) -> list:
    """The n x n arrays that a matrix holds."""
    held = [v for value in vars(matrix).values() for v in (value if isinstance(value, tuple) else (value,))]
    return [v for v in held if isinstance(v, np.ndarray) and v.shape == (matrix.n, matrix.n)]


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
# and 54 and 55 (high)
THREE_BAND_PAIRS = [*TWO_BAND_PAIRS, (2, 27), (5, 11)]
THREE_BANDS = ["low", "mediate", "high"]


def _record_calls(monkeypatch, *targets) -> list:
    """Wrap each (module, name) so that a call appends its name to the
    list returned, then runs the function."""
    calls = []
    for module, name in targets:
        def wrapper(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture(scope="module")
def two_disease_sweep():
    """A two-disease, two-band sweep, with the calibrate and thinning calls
    it made listed."""
    config = tiny_config(diseases=TWO_DISEASES, delta_bands=["low", "mediate"], pairs=TWO_BAND_PAIRS)
    matrix = base_matrix(config)
    with pytest.MonkeyPatch.context() as mp:
        calls = _record_calls(mp, (transit, "calibrate"), (transit, "sample_transit_matrix"))
        result = run_sweep(config, matrix=matrix)
    return config, matrix, result, calls


@pytest.fixture(scope="module")
def recorded_sweep():
    """The two-disease, two-band sweep, with the arguments that run_sweep
    gave its executor and every run the executor yielded, keyed by
    (cell, disease, pair)."""
    config = tiny_config(diseases=TWO_DISEASES, delta_bands=["low", "mediate"], pairs=TWO_BAND_PAIRS)
    args, runs = [], {}

    def recording(*call, _execute=runner._execute):
        args.extend(call)
        for c, d, pair, series, baseline in _execute(*call):
            runs[c, d, pair] = series
            yield c, d, pair, series, baseline

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_execute", recording)
        result = run_sweep(config)
    return args, runs, result


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(
    cells=st.lists(st.integers(0, len(TWO_BAND_PAIRS) - 1), unique=True),
    diseases=st.lists(st.integers(0, len(TWO_DISEASES) - 1), min_size=1, unique=True),
    pairs=st.lists(st.integers(0, 2 * 3 - 1), min_size=1, unique=True),  # 2 seed draws x 3 replicates
)
def test_executor_runs_do_not_depend_on_what_else_it_runs(recorded_sweep, cells, diseases, pairs):
    # what makes a replay, and a sweep split into parts, exact
    (config, matrix, params, planned, all_pairs, _), runs, result = recorded_sweep
    reports = {e["run_index"]: e["report"] for e in result.ledger}
    executed = runner._execute(
        config, matrix, [params[d] for d in diseases], [planned[c] for c in cells], [all_pairs[p] for p in pairs]
    )
    seen = []
    for c, d, pair, series, baseline in executed:
        c, d = (None if c is None else cells[c]), diseases[d]
        want = runs[c, d, pair]
        for name in ("prevalence", "frac_locations", "onset_days"):
            assert _same_bits(getattr(series, name), getattr(want, name))
        if c is not None:
            assert _same_bits(baseline.prevalence, runs[None, d, pair].prevalence)
            s, r, _ = pair
            run_index = ((d * len(planned) + c) * config.seed_draws + s) * config.replicates + r
            assert metrics.compare(series, baseline, config.compare).to_json_dict() == reports[run_index]
        seen.append((c, d, pair))
    assert seen == [(c, d, all_pairs[p]) for c in [None, *cells] for d in diseases for p in pairs]


@pytest.fixture(scope="module")
def three_band_sweep():
    """A two-disease sweep of all three bands, in their usual order."""
    config = tiny_config(diseases=TWO_DISEASES, delta_bands=THREE_BANDS, pairs=THREE_BAND_PAIRS)
    matrix = base_matrix(config)
    return config, matrix, run_sweep(config, matrix=matrix)


def _by_cell(result: SweepResult) -> tuple:
    """A sweep's ledger entries without their run_index, which counts the
    cells before them, keyed (disease, band, k, theta, seed draw,
    replicate); its cells rows, keyed (disease, band, k, theta); and its
    histograms."""
    entries = {
        tuple(e[key] for key in ("disease", "band", "k", "theta", "seed_draw", "replicate")):
            {key: value for key, value in e.items() if key != "run_index"}
        for e in result.ledger
    }
    cells = {(c["disease"], c["band"], c["k"], c["theta"]): c for c in result.cells}
    return entries, cells, result.histograms


@pytest.mark.parametrize(
    "bands", [list(p) for n in (1, 2, 3) for p in itertools.permutations(THREE_BANDS, n)], ids="+".join
)
def test_a_cell_does_not_depend_on_the_other_bands_of_its_sweep(three_band_sweep, bands):
    # a cell is its (k, theta): a sweep of any bands in any order gives each
    # of its cells the full sweep's reports, row and histogram, bit for bit
    config, matrix, full = three_band_sweep
    entries, cells, histograms = _by_cell(run_sweep(replace(config, delta_bands=bands), matrix=matrix))
    want_entries, want_cells, want_histograms = _by_cell(full)
    assert entries == {key: e for key, e in want_entries.items() if key[1] in bands}
    assert cells == {key: c for key, c in want_cells.items() if key[1] in bands}
    assert histograms == {key: h for key, h in want_histograms.items() if key.split(":")[0] in ["full", *bands]}
    assert {key[1] for key in cells} == set(bands)


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

    def test_a_band_listed_twice_is_rejected(self):
        # its cells would run twice, and write one histogram key twice
        with pytest.raises(ValueError, match="delta_bands lists a band more than once: low$"):
            tiny_config(delta_bands=["low", "mediate", "low"])

    def test_a_pair_listed_twice_is_rejected(self):
        with pytest.raises(ValueError, match=r"pairs lists a \(k, theta\) more than once: \(2, 6\)$"):
            tiny_config(pairs=[(2, 6), (3, 5), [2, 6]])

    @pytest.mark.parametrize("pair", [(2, 6.5), (2.0, 6), (2, True)])
    def test_non_integer_pairs_rejected(self, pair):
        # truncated, (2, 6.5) would seed its thinning as (2, 6) does
        with pytest.raises(ValueError, match="pairs must hold integers"):
            tiny_config(pairs=[(3, 5), pair])

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
        # the dense array and the caches it computed last as long as the sweep
        matrix = two_disease_sweep[1]
        assert not {"m", "entries", "trip_counts", "inter_location_trips"} & set(vars(matrix))
        assert _square_arrays(matrix) == []
        config = tiny_config()
        matrix = base_matrix(config)
        m, entries, trips = matrix.m, matrix.entries, matrix.inter_location_trips
        run_sweep(config, matrix=matrix)
        assert matrix.m is m and matrix.entries is entries and matrix.inter_location_trips is trips

    def test_replay_leaves_the_matrix_as_it_found_it(self, two_disease_sweep):
        config, _, result, _ = two_disease_sweep
        matrix = base_matrix(config)
        replay_run(config, result.ledger[0], matrix=matrix)
        assert not {"m", "entries", "trip_counts", "inter_location_trips"} & set(vars(matrix))
        assert _square_arrays(matrix) == []
        m, entries, trips = matrix.m, matrix.entries, matrix.inter_location_trips
        replay_run(config, result.ledger[0], matrix=matrix)
        assert matrix.m is m and matrix.entries is entries and matrix.inter_location_trips is trips

    def test_a_band_whose_first_pair_is_infeasible_writes_its_first_feasible_cell_histogram(self, tmp_path):
        # every location at one point: the k = 2 density is 0 at distance 0, so
        # (2, 7) is infeasible, while (1, 15), also in the low band, is not
        flows = np.full((6, 6), 5.0)
        np.fill_diagonal(flows, 100.0)
        config = tiny_config(pairs=[(2, 7), (1, 15)])
        result = run_sweep(config, matrix=matrix_from_flows(flows))
        assert [(c["k"], c["theta"]) for c in result.infeasible_cells] == [(2, 7)]
        assert [(c["band"], c["k"], c["theta"]) for c in result.cells] == [("low", 1, 15)]
        assert sorted(result.histograms) == ["full", "low:k1:t15"]
        export_results(result, tmp_path)
        assert (tmp_path / "distance_hist_low_k1_t15.csv").is_file()

    def test_plan_calibrates_each_cell_once(self, two_disease_sweep):
        config, _, result, calls = two_disease_sweep
        assert len(result.cells) == len(config.diseases) * len(TWO_BAND_PAIRS)
        assert calls.count("calibrate") == len(TWO_BAND_PAIRS)
        assert calls.count("sample_transit_matrix") == len(TWO_BAND_PAIRS)

    def test_one_thinned_matrix_is_alive_at_a_time(self, monkeypatch):
        # each cell's matrix is released before the next cell is thinned
        config = tiny_config(diseases=TWO_DISEASES, delta_bands=["low", "mediate"], pairs=TWO_BAND_PAIRS)
        thinned, alive = [], []

        def tracked(*args, _thin=transit.sample_transit_matrix):
            alive.append(sum(ref() is not None for ref in thinned))
            sub = _thin(*args)
            thinned.append(weakref.ref(sub))
            return sub

        monkeypatch.setattr(transit, "sample_transit_matrix", tracked)
        run_sweep(config)
        assert alive == [0] * len(TWO_BAND_PAIRS)

    def test_run_index_is_closed_form(self):
        # at horizon 5 and a 6-day minimum overlap, a comparison fails when
        # either arm of "brief" dies out early, which depends on its
        # introductions; h1n1's comparisons all succeed
        diseases = [TWO_DISEASES[0], Disease("brief", 3e-4, 1.0)]
        config = tiny_config(
            diseases=diseases, delta_bands=["low", "mediate"], pairs=TWO_BAND_PAIRS,
            horizon=5, compare=CompareConfig(min_overlap=6),
        )
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
        # the indices that no ledger entry takes are those of failed comparisons
        failed = sorted(set(range(len(result.cells) * draws * reps)) - set(indices))
        per_pair = draws * reps
        assert len(failed) == sum(c["failed_comparisons"] for c in result.cells) > 0
        assert {e["disease"] for e in result.ledger} == set(names)
        # every index is taken once, by a ledger entry or a failed comparison
        assert sorted(indices + failed) == list(range(len(result.cells) * per_pair))
        # and a failure falls in the block of its (disease, cell)
        assert [c["failed_comparisons"] for c in result.cells] == [
            sum(i // per_pair == block for i in failed) for block in range(len(result.cells))
        ]

    @pytest.mark.parametrize("failing", [True, False], ids=["some_censored", "none_censored"])
    def test_censored_comparisons_are_counted_in_one_log_line(self, caplog, failing):
        # "brief" fails some comparisons at horizon 5 and a 6-day minimum
        # overlap, as in test_run_index_is_closed_form; h1n1 alone fails none
        diseases = [TWO_DISEASES[0], Disease("brief", 3e-4, 1.0)] if failing else [TWO_DISEASES[0]]
        config = tiny_config(diseases=diseases, horizon=5, compare=CompareConfig(min_overlap=6))
        with caplog.at_level(logging.WARNING, logger="epitransit.runner"):
            result = run_sweep(config)
        failed = sum(c["failed_comparisons"] for c in result.cells)
        compared = failed + len(result.ledger)
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert (failed > 0) == failing and compared == len(diseases) * config.seed_draws * config.replicates
        assert lines == ([f"{failed} of {compared} comparisons censored: series too short to compare"] if failing else [])

    def test_replay_reproduces_every_entry(self, two_disease_sweep):
        config, matrix, result, _ = two_disease_sweep
        assert {e["disease"] for e in result.ledger} == {"h1n1", "varicella"}
        assert {e["band"] for e in result.ledger} == {"low", "mediate"}
        assert len(result.ledger) == 2 * len(TWO_BAND_PAIRS) * 6
        for entry in result.ledger:
            assert replay_run(config, entry, matrix=matrix).to_json_dict() == entry["report"]

    def test_replay_of_an_entry_with_a_band_position_names_the_key(self, two_disease_sweep):
        # an older ledger's entries held the band's position in the config,
        # which seeded their thinning then and seeds nothing now
        config, matrix, result, _ = two_disease_sweep
        entry = dict(result.ledger[0], band_index=0)
        with pytest.raises(ValueError, match=r"key\(s\) that no sweep writes: band_index$"):
            replay_run(config, entry, matrix=matrix)

    def test_replay_of_a_disease_not_in_the_config_names_it(self, two_disease_sweep):
        config, matrix, result, _ = two_disease_sweep
        entry = dict(result.ledger[0], disease="measles")
        with pytest.raises(ValueError, match="'measles' is not in the config"):
            replay_run(config, entry, matrix=matrix)

    def test_replay_reproduces_reports_bit_exactly(self):
        config = tiny_config()
        matrix = base_matrix(config)
        result = run_sweep(config, matrix=matrix)
        for entry in result.ledger[:3]:
            replayed = replay_run(config, entry, matrix=matrix)
            assert replayed.to_json_dict() == entry["report"]

    def test_fractional_counts_fail_before_anything_is_calibrated_or_run(self, monkeypatch):
        # thinning alone needs whole trips, and would meet the count only
        # after every baseline had run
        config = tiny_config()
        city = base_matrix(config)
        m = city.m.copy()
        m[0, 1] += 0.5
        matrix = matrix_from_flows(m, populations=city.populations, table=city.table)
        calls = _record_calls(monkeypatch, (engine, "run_simulation"), (transit, "calibrate"))
        with pytest.raises(ValueError, match="integer trip counts"):
            run_sweep(config, matrix=matrix)
        assert calls == []
        entry = {"disease": "h1n1", "seed_draw": 0, "replicate": 0, "seed_location_index": 0, "k": 3, "theta": 5}
        with pytest.raises(ValueError, match="integer trip counts"):
            replay_run(config, entry, matrix=matrix)
        assert calls == []

    def test_out_of_range_seed_location_fails_before_any_calibration(self, monkeypatch):
        calls = _record_calls(monkeypatch, (transit, "calibrate"))
        config = tiny_config(seed_rule=40)  # the city has locations 0 to 39
        with pytest.raises(ValueError, match="fixed seed location 40 out of range"):
            run_sweep(config)
        assert calls == []

    def test_runs_cut_at_the_horizon_while_infected_are_counted_in_one_log_line(self, monkeypatch, caplog):
        # h1n1 outlasts a 40-day horizon in this city; a fast disease dies out well before it
        config = tiny_config(diseases=[Disease("h1n1", 0.5, 1 / 3), Disease("fast", 15.0, 1.0)], horizon=40)
        runs = []

        def recording(matrix, params, seed_rule, rng_seed, _run=engine.run_simulation):
            runs.append((_run(matrix, params, seed_rule, rng_seed), params))
            return runs[-1][0]

        monkeypatch.setattr(engine, "run_simulation", recording)
        with caplog.at_level(logging.INFO, logger="epitransit.runner"):
            result = run_sweep(config)
        cut = sum(len(s) - 1 >= p.horizon and s.total_I[-1] >= p.extinction_threshold for s, p in runs)
        assert len(runs) == result.total_runs == 24 and 0 < cut < len(runs)
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert lines == [f"{cut} of 24 runs reached the horizon of 40 days with total I still at or above 0.001"]

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

    def test_save_json_writes_what_the_streaming_encoder_writes(self, tmp_path):
        # "brief" fails some comparisons and leaves statistics without values
        config = tiny_config(
            diseases=[TWO_DISEASES[0], Disease("brief", 3e-4, 1.0)], horizon=5, compare=CompareConfig(min_overlap=6)
        )
        result = run_sweep(config)
        assert any(c["failed_comparisons"] for c in result.cells)
        assert any(a["mean"] is None for c in result.cells for a in c["aggregates"].values())
        path = tmp_path / "sweep_result.json"
        result.save_json(path)
        text = "".join(json.JSONEncoder(sort_keys=True).iterencode(result.to_json_dict())) + "\n"
        assert path.read_bytes() == text.encode()

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
