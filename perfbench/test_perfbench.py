"""Tests of the benchmark itself: tiny workloads end to end, and each
output check failing on a planted error."""

import copy
import dataclasses
import json
import os
import pathlib

import numpy as np
import pytest

import checks
import hostspeed
import run as bench
import spans
import workloads
from epitransit import engine, metrics

TINY = {
    "sweep_n200": dataclasses.replace(
        workloads.WORKLOADS["sweep_n200"], n=40, diseases=(("h1n1",),),
        bands=("low", "high"), pairs=((2, 6), (2, 27)), seed_draws=2, replicates=1,
        reference=((20, 1),),
    ),
    "cells_n1000": dataclasses.replace(
        workloads.WORKLOADS["cells_n1000"], n=50, diseases=(("h1n1", "varicella"),),
        pairs=((2, 6), (2, 17), (2, 27)), reference=((20, 1), (30, 1)),
    ),
}


def _tiny_run(name, out_dir, seed=3):
    run = bench._Run(TINY[name], seed, str(out_dir))
    with spans.Tracer(full=False) as counter:
        run.round(counter)
    return run


@pytest.fixture(scope="module")
def tiny_ingest(tmp_path_factory):
    """The one sweep of a tiny ingest round: config, inputs, matrix, result."""
    return _tiny_run("cells_n1000", tmp_path_factory.mktemp("cells")).last.sweeps[0]


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_passes_every_check(name, trace, tmp_path):
    out = bench.run_workload(TINY[name], seed=5, seconds=0, trace=trace, out_dir=str(tmp_path))
    assert out["correct"] is True
    units = bench.PER_LAYER if trace else bench.END_TO_END
    assert set(out["metrics"]) == set(units)
    assert all(np.isfinite(m["value"]) for m in out["metrics"].values())
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    if name == "sweep_n200":
        # every hypothetical_high comparison raises NoAdmissibleLag; no other fails
        rounds = 2 if trace else 1
        assert out["failed"] == rounds * 2 * 2  # 2 cells x 2 draws x 1 replicate
        assert out["attempted"] == 2 * out["failed"]
    else:
        assert out["failed"] == 0
    if trace:
        figures = {k: v["value"] for k, v in out["metrics"].items()}
        self_total = sum(figures[f"{layer}.self_s"] for layer in spans.LAYERS)
        assert self_total == pytest.approx(figures["trace.wall_s"], rel=1e-9)
        assert os.path.getsize(tmp_path / "spans.csv") > 0


def test_benchmark_json_matches_the_metrics():
    root = os.path.dirname(os.path.dirname(os.path.abspath(bench.__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


# --- planted errors -------------------------------------------------------

def test_engine_check_catches_a_perturbed_day(tiny_ingest):
    sw = tiny_ingest
    params = checks._disease_params(sw.config, sw.config.diseases[0])
    seed = np.random.SeedSequence(17)
    good = engine.run_simulation(sw.matrix, params, 0, seed)
    problems = []
    checks.check_engine_run(problems, "ok", sw.matrix, params, 0, seed, series=good)
    assert problems == []
    bad = copy.deepcopy(good)
    bad.total_I[len(bad) // 2] *= 1.001
    checks.check_engine_run(problems, "bad", sw.matrix, params, 0, seed, series=bad)
    assert any("S+I+R" in p for p in problems)
    assert any("differs from the reference" in p for p in problems)


def test_engine_check_catches_a_wrong_final_size(tiny_ingest):
    sw = tiny_ingest
    params = checks._disease_params(sw.config, sw.config.diseases[0])
    seed = np.random.SeedSequence(17)
    bad = engine.run_simulation(sw.matrix, params, 0, seed)
    bad.final_size += 0.01
    problems = []
    checks.check_engine_run(problems, "bad", sw.matrix, params, 0, seed, series=bad)
    assert any("final_size" in p for p in problems)


def test_calibration_check_catches_a_wrong_lambda(tiny_ingest):
    sw = tiny_ingest
    cell = sw.result.cells[0]
    trips = checks.off_diagonal_trips(sw.matrix)
    problems = []
    checks.check_calibration(problems, "ok", trips, cell["k"], cell["theta"], cell["lambda"], sw.config.mu)
    assert problems == []
    checks.check_calibration(problems, "bad", trips, cell["k"], cell["theta"], cell["lambda"] * 1.01, sw.config.mu)
    assert len(problems) == 1 and "mode share" in problems[0]


def test_thinning_check_catches_overfull_and_fractional_counts(tiny_ingest):
    sw = tiny_ingest
    e = sw.result.ledger[0]
    _, sub = checks.replay(sw.config, e, sw.matrix)
    args = (sw.matrix, sub, e["lambda"], e["k"], e["theta"])
    problems = []
    checks.check_thinned(problems, "ok", *args)
    assert problems == []
    j, k = np.argwhere(sw.matrix.m > 0)[0]
    m = sub.m.copy()
    m[j, k] = sw.matrix.m[j, k] + 0.5
    planted = dataclasses.replace(sub, m=m)
    checks.check_thinned(problems, "bad", sw.matrix, planted, *args[2:])
    assert any("not integers" in p for p in problems)
    assert any("exceed" in p for p in problems)


def test_thinning_check_catches_a_wrong_share(tiny_ingest):
    sw = tiny_ingest
    e = sw.result.ledger[0]
    full = sw.matrix
    problems = []
    checks.check_thinned(problems, "all kept", full, full, e["lambda"], e["k"], e["theta"])
    assert any("standard errors" in p for p in problems)


def test_metrics_check_catches_a_perturbed_report(tiny_ingest):
    sw = tiny_ingest
    result = copy.deepcopy(sw.result)
    problems = []
    checks.check_example_curves(problems, result)
    assert problems == []
    disease, ex = sorted(result.example_curves.items())[0]
    for e in result.ledger:
        if e["disease"] == disease and (e["band"], e["k"], e["theta"]) == (ex["band"], ex["k"], ex["theta"]):
            e["report"]["situational_awareness"] += 1e-6
            break
    checks.check_example_curves(problems, result)
    assert len(problems) == 1 and "situational_awareness" in problems[0]


def test_brute_force_report_agrees_with_compare_on_a_shifted_pair():
    t = np.arange(40)
    y = np.exp(-((t - 15) / 5.0) ** 2) * 0.1
    x = np.exp(-((t - 19) / 5.0) ** 2) * 0.08
    want = metrics.compare(x, y, metrics.CompareConfig())
    got = checks.brute_force_report(list(x), list(y), 0.01, None, 10)
    assert got["early_warning"] == want.early_warning
    assert got["peak_timing"] == want.peak_timing == -4
    assert got["peak_magnitude"] == pytest.approx(want.peak_magnitude, rel=1e-12)
    assert got["situational_awareness"] == pytest.approx(want.situational_awareness, rel=1e-9)


def test_aggregate_check_catches_a_perturbed_ledger_value(tiny_ingest):
    sw = tiny_ingest
    result = copy.deepcopy(sw.result)
    problems = []
    checks.check_cell_aggregates(problems, result)
    assert problems == []
    result.ledger[0]["report"]["peak_magnitude"] *= 1.5
    checks.check_cell_aggregates(problems, result)
    assert len(problems) == 1 and "peak_magnitude" in problems[0]


def test_count_check_catches_a_wrong_total_and_a_duplicate(tiny_ingest):
    sw = tiny_ingest
    result = copy.deepcopy(sw.result)
    problems = []
    assert checks.check_counts(problems, sw.config, result) == []
    assert problems == []
    result.total_runs += 1
    result.ledger.append(dict(result.ledger[0]))
    checks.check_counts(problems, sw.config, result)
    assert any("total_runs" in p for p in problems)
    assert any("duplicate" in p for p in problems)


def test_failure_check_catches_a_dropped_entry(tiny_ingest):
    sw = tiny_ingest
    result = copy.deepcopy(sw.result)
    result.ledger.pop(0)
    problems = []
    missing = checks.check_counts(problems, sw.config, result)
    assert len(missing) == 1 and problems == []
    attempted = len(checks.attempted_pairs(sw.config, result))
    counts = {"metrics.compare.calls": attempted, "metrics.compare.raised": 0}
    checks.check_failures(problems, attempted, 0, counts)
    assert problems == []
    checks.check_failures(problems, attempted, len(missing), counts)
    assert len(problems) == 1 and "NoAdmissibleLag" in problems[0]


def test_export_check_catches_a_dropped_row(tiny_ingest, tmp_path):
    sw = tiny_ingest
    problems = []
    checks.check_exports(problems, sw.result, sw.config.output_dir)
    assert problems == []
    for name in os.listdir(sw.config.output_dir):
        (tmp_path / name).write_bytes(pathlib.Path(sw.config.output_dir, name).read_bytes())
    lines = (tmp_path / "cells.csv").read_text().splitlines(keepends=True)
    (tmp_path / "cells.csv").write_text("".join(lines[:-1]))
    checks.check_exports(problems, sw.result, str(tmp_path))
    assert len(problems) == 1 and "cell counts" in problems[0]


def test_replay_check_catches_a_perturbed_entry(tiny_ingest):
    sw = tiny_ingest
    result = copy.deepcopy(sw.result)
    problems = []
    checks.check_replays(problems, sw.config, sw.matrix, result)
    assert problems == []
    result.ledger[-1]["report"]["peak_timing"] += 1
    checks.check_replays(problems, sw.config, sw.matrix, result)
    assert any("report differs" in p for p in problems)


def test_ingest_check_catches_a_changed_entry_and_population(tiny_ingest):
    sw = tiny_ingest
    source, ingested = sw.inputs.source, sw.matrix
    problems = []
    checks.check_ingest(problems, source, ingested)
    assert problems == []
    m = ingested.m.copy()
    j, k = np.argwhere(m > 0)[1]
    m[j, k] += 1
    checks.check_ingest(problems, source, dataclasses.replace(ingested, m=m))
    assert len(problems) == 1 and "matrix differs" in problems[0]
    pops = ingested.populations.copy()
    pops[0] += 1
    checks.check_ingest(problems, source, dataclasses.replace(ingested, populations=pops))
    assert len(problems) == 2 and "populations" in problems[1]


def test_rounds_repeat_the_same_outputs(tmp_path):
    run = _tiny_run("sweep_n200", tmp_path)
    with spans.Tracer(full=False) as counter:
        run.round(counter)
    assert len(run.digests) == 1 and run.problems == []


def test_tracer_restores_the_program():
    originals = [owner.__dict__[attr] for owner, attr, _, _ in spans.TARGETS]
    with spans.Tracer(full=True):
        assert engine.run_simulation is not originals[[t[1] for t in spans.TARGETS].index("run_simulation")]
    assert [owner.__dict__[attr] for owner, attr, _, _ in spans.TARGETS] == originals



class _SteadyReference:
    """A reference that always takes half a second."""

    def time(self):
        return 0.5


def test_a_round_gauges_the_host_around_every_step(tmp_path):
    run = bench._Run(TINY["sweep_n200"], 3, str(tmp_path))
    run.reference = _SteadyReference()
    with spans.Tracer(full=False) as counter:
        r = run.round(counter)
    assert r.refs == [0.5] * 7  # before the first step, after 2 set-ups and 4 sweeps
    assert 0 < r.setup_s < r.wall_s and 0 < r.sweep_s < r.wall_s
    with spans.Tracer(full=False) as counter:
        assert run.round(counter, gauged=False).refs == []


def test_scale_is_nominal_over_the_mean_reference_time():
    ref = hostspeed.Reference(((20, 1),), nominal=1.0)
    # a host that takes twice the nominal time runs at half the reference host's speed
    assert ref.scale([1.0, 3.0, 2.0]) == 0.5
    assert ref.scale([1.0]) == 1.0


def test_reference_does_not_depend_on_the_program_or_the_seed():
    m1, p1 = hostspeed.reference_city(30)
    m2, p2 = hostspeed.reference_city(30)
    assert np.array_equal(m1, m2) and np.array_equal(p1, p2)
    ref = hostspeed.Reference(((30, 2),), nominal=1.0)
    rows, onset = checks.reference_run(m1, p1, ref.params, 0, hostspeed.REFERENCE_SEED)
    assert rows.shape[0] == 61 and np.all(rows[:, 1] > 0)  # every run lasts 60 days
    assert ref.time() > 0
