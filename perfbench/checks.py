"""Output checks, computed apart from the program.

Each check recomputes a figure from the formulas the program documents, or
tests a property the method must have, and appends a message to
``problems`` when the program's output disagrees. Nothing is compared
against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from epitransit import engine, metrics, runner, transit

REL = 1e-9
STATS = ("early_warning", "peak_timing", "peak_magnitude", "situational_awareness")


def _close(a, b, rel=REL, abs_tol=1e-12) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _disease_params(config: runner.ScenarioConfig, disease: runner.Disease) -> engine.EpidemicParams:
    return engine.EpidemicParams(
        beta=disease.beta,
        gamma=disease.gamma,
        horizon=config.horizon,
        extinction_threshold=config.extinction_threshold,
        hazard_variant=config.hazard_variant,
    )


# --- engine ---------------------------------------------------------------

def reference_run(m: np.ndarray, populations: np.ndarray, params, seed_location: int, rng_seed):
    """Plain re-implementation of one run from the formulas in engine's docstring.

    Returns per-day total S, I, R, the fraction of locations ever infected,
    and the final onset days. Draws one uniform per location per day, as
    the engine documents, so it follows the same introductions.
    """
    n = populations.shape[0]
    m_off = m.copy()
    np.fill_diagonal(m_off, 0.0)
    N = populations.astype(float)
    S, I, R = N.copy(), np.zeros(n), np.zeros(n)
    onset = np.full(n, -1)
    rng = np.random.default_rng(rng_seed)
    I[seed_location] = 1.0
    S[seed_location] = N[seed_location] - 1.0
    onset[seed_location] = 0
    rows = [(S.sum(), I.sum(), R.sum(), np.count_nonzero(onset >= 0) / n)]
    beta, gamma = params.beta, params.gamma
    for day in range(1, params.horizon + 1):
        if I.sum() < params.extinction_threshold:
            break
        inner = m_off @ (I / N)
        if params.hazard_variant == "as_printed":
            inner = inner * S
        h = np.clip(beta * S * (1.0 - np.exp(-inner)) / (1.0 + beta * S), 0.0, 1.0)
        virgin = (I == 0.0) & (R == 0.0)
        sick = I > 0.0
        new_inf = np.where(sick, np.minimum(beta * S * I / N, S), 0.0)
        recov = np.where(sick, gamma * I, 0.0)
        S2, I2, R2 = S - new_inf, I + new_inf - recov, R + recov
        for arr in (S2, I2):
            neg = arr < 0.0
            R2[neg] += arr[neg]
            arr[neg] = 0.0
        hits = virgin & (rng.random(n) < h)
        I2[hits] = 1.0
        S2[hits] = N[hits] - 1.0
        onset[hits] = day
        S, I, R = S2, I2, R2
        rows.append((S.sum(), I.sum(), R.sum(), np.count_nonzero(onset >= 0) / n))
    return np.array(rows), onset


def check_engine_run(problems, label, matrix, params, seed_location, rng_seed, series=None):
    """Invariants of one run and agreement with the reference, day by day."""
    if series is None:
        series = engine.run_simulation(matrix, params, seed_location, rng_seed)
    total = float(matrix.populations.sum())
    sums = series.total_S + series.total_I + series.total_R
    if not np.allclose(sums, total, rtol=REL, atol=0.0):
        problems.append(f"engine {label}: S+I+R drifts from N (max off {np.abs(sums - total).max():.3g})")
    if np.any(np.diff(series.frac_locations) < 0):
        problems.append(f"engine {label}: frac_locations decreases")
    if not _close(series.final_size, 1.0 - series.total_S[-1] / total):
        problems.append(f"engine {label}: final_size {series.final_size} != 1 - S_T/N")
    rows, onset = reference_run(matrix.m, matrix.populations, params, seed_location, rng_seed)
    if rows.shape[0] != len(series):
        problems.append(f"engine {label}: {len(series)} days, reference gives {rows.shape[0]}")
        return
    got = np.column_stack([series.total_S, series.total_I, series.total_R, series.frac_locations])
    if not np.allclose(got, rows, rtol=REL, atol=1e-9):
        day = int(np.nonzero(~np.isclose(got, rows, rtol=REL, atol=1e-9).all(axis=1))[0][0])
        problems.append(f"engine {label}: day {day} differs from the reference")
    if not np.array_equal(series.onset_days, onset):
        problems.append(f"engine {label}: onset days differ from the reference")


# --- transit --------------------------------------------------------------

def off_diagonal_trips(matrix):
    """(distance, count) of every inter-location entry that carries trips."""
    mask = matrix.m > 0
    np.fill_diagonal(mask, False)
    return matrix.distance_matrix[mask], matrix.m[mask]


def check_calibration(problems, label, trips, k, theta, lam, mu):
    """Expected mode share sum c*min(1, lam*F(d))/sum c equals mu, F from scipy."""
    from scipy.stats import gamma as gamma_dist

    d, c = trips
    p = np.minimum(1.0, lam * gamma_dist.pdf(d, a=k, scale=theta))
    share = float((c * p).sum() / c.sum())
    if not abs(share - mu) <= 1e-6:
        problems.append(f"transit {label}: expected mode share {share!r} != mu {mu}")


def check_thinned(problems, label, full, sub, lam, k, theta):
    """Thinned counts are whole, bounded by the full counts, and near mu in share."""
    from scipy.stats import gamma as gamma_dist

    if not np.array_equal(sub.m, np.rint(sub.m)):
        problems.append(f"transit {label}: thinned counts are not integers")
    if np.any(sub.m > full.m):
        problems.append(f"transit {label}: thinned counts exceed the full counts")
    mask = full.m > 0
    np.fill_diagonal(mask, False)
    c = full.m[mask]
    p = np.minimum(1.0, lam * gamma_dist.pdf(full.distance_matrix[mask], a=k, scale=theta))
    expected = float((c * p).sum())
    se = math.sqrt(float((c * p * (1.0 - p)).sum()))
    kept = float(sub.m[mask].sum())
    if abs(kept - expected) > 5.0 * se + 1e-9:
        problems.append(
            f"transit {label}: realised cross-trip share {kept / c.sum():.6f} is over "
            f"5 standard errors from {expected / c.sum():.6f}"
        )


# --- metrics --------------------------------------------------------------

def brute_force_report(x, y, level, max_lag, min_overlap):
    """Early warning, peak timing, peak magnitude and situational awareness by loops."""

    def first_at(series):
        for t, v in enumerate(series):
            if v >= level:
                return t
        return None

    def argmax(series):
        best = 0
        for t, v in enumerate(series):
            if v > series[best]:
                best = t
        return best

    tx, ty = first_at(x), first_at(y)
    px, py = argmax(x), argmax(y)
    if max_lag is None:
        max_lag = max(len(x), len(y)) // 2
    best = None
    for lag in range(-max_lag, max_lag + 1):
        pairs = [(x[t], y[t + lag]) for t in range(len(x)) if 0 <= t + lag < len(y)]
        if len(pairs) < min_overlap:
            continue
        num = math.fsum(abs(a - b) for a, b in pairs)
        den = math.fsum(abs(a + b) for a, b in pairs)
        ratio = num / den if den > 0 else 0.0
        best = ratio if best is None else min(best, ratio)
    return {
        "early_warning": ty - tx if tx is not None and ty is not None else None,
        "peak_timing": py - px,
        "peak_magnitude": x[px] / y[py],
        "situational_awareness": None if best is None else 1.0 - best,
    }


def check_example_curves(problems, result):
    cmp = result.config["compare"]
    for disease, ex in sorted(result.example_curves.items()):
        entry = next(
            (
                e for e in result.ledger
                if e["disease"] == disease
                and all(e[key] == ex[key] for key in ("band", "k", "theta", "seed_draw", "replicate"))
            ),
            None,
        )
        if entry is None:
            problems.append(f"metrics {disease}: example curves match no ledger entry")
            continue
        want = brute_force_report(
            ex["ptt_prevalence"], ex["mpt_prevalence"], cmp["level"], cmp["max_lag"], cmp["min_overlap"]
        )
        for stat in STATS:
            if not _close(entry["report"][stat], want[stat]):
                problems.append(
                    f"metrics {disease}: {stat} {entry['report'][stat]!r} != brute force {want[stat]!r}"
                )


# --- runner ---------------------------------------------------------------

def attempted_pairs(config: runner.ScenarioConfig, result) -> list:
    """Every (disease, band, k, theta, draw, replicate) comparison the sweep attempts."""
    return [
        (c["disease"], c["band"], c["k"], c["theta"], s, r)
        for c in result.cells
        for s in range(config.seed_draws)
        for r in range(config.replicates)
    ]


def ledger_key(entry) -> tuple:
    return (entry["disease"], entry["band"], entry["k"], entry["theta"], entry["seed_draw"], entry["replicate"])


def check_counts(problems, config, result) -> list:
    """Run totals and ledger coverage; returns the attempted pairs missing from the ledger."""
    n_diseases = len(config.diseases)
    infeasible = {(c["band"], c["k"], c["theta"]) for c in result.infeasible_cells}
    configured = [
        (band, k, theta)
        for band in config.delta_bands
        for k, theta in config.pairs
        if transit.DeltaBand.from_label(band).contains(k * theta)
    ]
    feasible = len([c for c in configured if c not in infeasible])
    want_runs = n_diseases * config.seed_draws * config.replicates * (1 + feasible)
    if result.total_runs != want_runs:
        problems.append(f"runner: total_runs {result.total_runs} != {want_runs}")
    if len(result.cells) != n_diseases * feasible:
        problems.append(f"runner: {len(result.cells)} cells, expected {n_diseases * feasible}")
    attempted = attempted_pairs(config, result)
    keys = [ledger_key(e) for e in result.ledger]
    if len(set(keys)) != len(keys):
        problems.append("runner: duplicate ledger entries")
    stray = set(keys) - set(attempted)
    if stray:
        problems.append(f"runner: {len(stray)} ledger entries match no attempted comparison")
    missing = [a for a in attempted if a not in set(keys)]
    if len(keys) + len(missing) != len(attempted):
        problems.append("runner: ledger entries plus failed comparisons != attempted")
    return missing


def _mean_sd(values):
    clean = [v for v in values if v is not None]
    if not clean:
        return len(clean), len(values) - len(clean), None, None
    mean = math.fsum(clean) / len(clean)
    sd = math.sqrt(math.fsum((v - mean) ** 2 for v in clean) / len(clean))
    return len(clean), len(values) - len(clean), mean, sd


def check_cell_aggregates(problems, result):
    thresholds = result.config["compare"]["thresholds"]
    by_cell = {}
    for e in result.ledger:
        by_cell.setdefault((e["disease"], e["band"], e["k"], e["theta"]), []).append(e["report"])
    for cell in result.cells:
        reports = by_cell.get((cell["disease"], cell["band"], cell["k"], cell["theta"]), [])
        columns = {stat: [r[stat] for r in reports] for stat in STATS}
        for thr in thresholds:
            columns[f"locations_timing_{int(round(thr * 100))}"] = [
                r["locations_timing"].get(repr(float(thr))) for r in reports
            ]
        for stat, values in columns.items():
            n, censored, mean, sd = _mean_sd(values)
            agg = cell["aggregates"][stat]
            if (agg["n"], agg["censored"]) != (n, censored) or not (
                _close(agg["mean"], mean) and _close(agg["sd"], sd)
            ):
                problems.append(
                    f"runner cell {cell['disease']}/{cell['band']}/k{cell['k']}/t{cell['theta']}: "
                    f"{stat} {agg} != ledger n={n} censored={censored} mean={mean} sd={sd}"
                )


def check_exports(problems, result, out_dir):
    with open(os.path.join(out_dir, "cells.csv"), newline="", encoding="utf-8") as fh:
        cell_rows = list(csv.DictReader(fh))
    with open(os.path.join(out_dir, "ledger.jsonl"), encoding="utf-8") as fh:
        ledger_rows = [json.loads(line) for line in fh]
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "sweep_result.json"), encoding="utf-8") as fh:
        saved = json.load(fh)
    counts = {
        "cells.csv rows": len(cell_rows),
        "summary n_cells": summary["n_cells"],
        "sweep_result cells": len(saved["cells"]),
    }
    if len(set(counts.values())) != 1 or len(cell_rows) != len(result.cells):
        problems.append(f"runner exports: cell counts disagree {counts}, result has {len(result.cells)}")
    counts = {
        "ledger.jsonl rows": len(ledger_rows),
        "summary n_ledger": summary["n_ledger"],
        "sweep_result ledger": len(saved["ledger"]),
    }
    if len(set(counts.values())) != 1 or len(ledger_rows) != len(result.ledger):
        problems.append(f"runner exports: ledger counts disagree {counts}, result has {len(result.ledger)}")
    if summary["total_runs"] != result.total_runs or saved["total_runs"] != result.total_runs:
        problems.append("runner exports: total_runs disagrees between summary, saved result and sweep")
    if ledger_rows != saved["ledger"]:
        problems.append("runner exports: ledger.jsonl and sweep_result.json hold different entries")


def replay(config, entry, matrix):
    """runner.replay_run, also returning the thinned matrix it built."""
    captured = []
    original = transit.sample_transit_matrix

    def capture(*args, **kwargs):
        sub = original(*args, **kwargs)
        captured.append(sub)
        return sub

    transit.sample_transit_matrix = capture
    try:
        report = runner.replay_run(config, entry, matrix)
    finally:
        transit.sample_transit_matrix = original
    return report, captured[-1]


def check_failures(problems, attempted, failed, counts):
    """The failed comparisons are exactly those whose metrics.compare raised.

    ``counts`` comes from the wrapper around ``metrics.compare`` during the
    round; the sweep lets only ``NoAdmissibleLag`` escape compare, so every
    raise is one of those.
    """
    calls, raised = counts["metrics.compare.calls"], counts["metrics.compare.raised"]
    if calls != attempted:
        problems.append(f"runner: {calls} metrics.compare calls for {attempted} attempted comparisons")
    if raised != failed:
        problems.append(f"runner: {failed} comparisons missing from the ledger, {raised} raised NoAdmissibleLag")


def check_replays(problems, config, matrix, result):
    """Replay the last ledger entry of each (band, k, theta) cell.

    The replayed report must equal the ledger's bit for bit; the thinned
    matrix built on the way is checked against the transit properties.
    Returns the first replayed entry with its thinned matrix.
    """
    chosen = {}
    for e in result.ledger:
        chosen[(e["band"], e["k"], e["theta"])] = e
    first = None
    for e in chosen.values():
        label = f"{e['disease']}/{e['band']}/k{e['k']}/t{e['theta']}/s{e['seed_draw']}r{e['replicate']}"
        report, sub = replay(config, e, matrix)
        if report.to_json_dict() != e["report"]:
            problems.append(f"runner replay {label}: report differs from the ledger")
        check_thinned(problems, label, matrix, sub, e["lambda"], e["k"], e["theta"])
        if first is None:
            first = (e, sub)
    return first


# --- mobility -------------------------------------------------------------

def check_ingest(problems, source, ingested):
    if ingested.table.ids != source.table.ids:
        problems.append("mobility: ingested location ids differ from the written ones")
    elif not (np.array_equal(ingested.table.lat, source.table.lat) and np.array_equal(ingested.table.lon, source.table.lon)):
        problems.append("mobility: ingested coordinates differ from the written ones")
    if ingested.m.shape != source.m.shape or not np.array_equal(ingested.m, source.m):
        problems.append("mobility: ingested matrix differs from the matrix the CSVs encode")
        return
    m = ingested.m
    pops = np.maximum((np.diagonal(m) + m.sum(axis=1) - m.sum(axis=0)) / 24.0, 1.0)
    if not np.allclose(ingested.populations, pops, rtol=REL, atol=0.0):
        problems.append("mobility: populations != max((diag + inflow - outflow) / 24, 1)")


# --- all ------------------------------------------------------------------

def check_all(config, matrix, result, source=None) -> tuple:
    """Run every check on one sweep's outputs; ``source`` is the matrix an
    ingest workload's CSVs encode.

    Returns (problems, number of attempted comparisons missing from the ledger).
    """
    problems = []
    if source is not None:
        check_ingest(problems, source, matrix)
    missing = check_counts(problems, config, result)
    check_cell_aggregates(problems, result)
    check_exports(problems, result, config.output_dir)
    check_example_curves(problems, result)
    trips = off_diagonal_trips(matrix)
    for cell in result.cells:
        label = f"{cell['disease']}/{cell['band']}/k{cell['k']}/t{cell['theta']}"
        check_calibration(problems, label, trips, cell["k"], cell["theta"], cell["lambda"], config.mu)
    first = check_replays(problems, config, matrix, result)
    # engine: one baseline run per disease on the full matrix, plus the first
    # replayed entry's disease on its thinned matrix
    seed_location = result.ledger[0]["seed_location_index"] if result.ledger else 0
    for i, disease in enumerate(config.diseases):
        params = _disease_params(config, disease)
        check_engine_run(
            problems, f"{disease.name}/full", matrix, params, seed_location,
            np.random.SeedSequence((config.master_seed, 7919, i)),
        )
    if first is not None:
        e, sub = first
        disease = next(d for d in config.diseases if d.name == e["disease"])
        check_engine_run(
            problems, f"{disease.name}/{e['band']}", sub, _disease_params(config, disease),
            e["seed_location_index"], np.random.SeedSequence((config.master_seed, 7919, 99)),
        )
    return problems, len(missing)
