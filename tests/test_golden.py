import json
import math
from dataclasses import fields

import golden
import pytest
from epitransit.engine import PrevalenceSeries

SUMMARY_RTOL = 1e-9


def _differing(got: dict, want: dict) -> list:
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    """(what the code gives now, what golden.json holds, and whether the
    two were made in the same environment, so compare bit for bit)."""
    with open(golden.GOLDEN_PATH, encoding="utf-8") as fh:
        want = json.load(fh)
    got = golden.compute(tmp_path_factory.mktemp("golden"))
    return got, want, got["environment"] == want["environment"]


def test_series_and_exports_match_the_golden_file(computed):
    got, want, same_environment = computed
    if same_environment:
        mode = "bit for bit"
        for part in ("series", "exports"):
            bad = _differing(got[part], want[part])
            assert not bad, f"[{mode}] {len(bad)} {part} digest(s) differ, first: {bad[:5]}"
        return
    # Another NumPy, BLAS or CPU may round differently: compare the series
    # summaries within a relative tolerance and the exported file names.
    mode = f"summaries within rtol {SUMMARY_RTOL}, environment {got['environment']} != {want['environment']}"
    assert got["series"].keys() == want["series"].keys(), f"[{mode}] the series grid differs"
    assert got["exports"].keys() == want["exports"].keys(), f"[{mode}] the exported files differ"
    bad = sorted(
        key for key, w in want["series"].items()
        for name in ("length", "final_size", "peak_day", "peak_magnitude")
        if not math.isclose(got["series"][key][name], w[name], rel_tol=SUMMARY_RTOL)
    )
    assert not bad, f"[{mode}] {len(bad)} series summaries differ, first: {bad[:5]}"


def test_reports_on_engine_runs_match_the_golden_file(computed):
    got, want, same_environment = computed
    got, want = got["reports"], want["reports"]
    assert got.keys() == want.keys()
    if same_environment:
        bad = _differing(got, want)
        assert not bad, f"[bit for bit] {len(bad)} report(s) differ, first: {bad[:5]}"
        return
    # another NumPy, BLAS or CPU may round the runs differently
    for key, w in want.items():
        g = got[key]
        if isinstance(w, str) or isinstance(g, str):
            assert g == w, key
            continue
        for name in ("peak_magnitude", "situational_awareness"):
            assert math.isclose(g[name], w[name], rel_tol=SUMMARY_RTOL), (key, name)


def test_the_series_digest_covers_everything_a_series_reports():
    # every data field but the course table the totals are gathered from,
    # and what a series derives: the S and R totals and the final size
    reported = {f.name for f in fields(PrevalenceSeries)} - {"course"} | {"total_S", "total_R", "final_size"}
    assert set(golden.SERIES_FIELDS) == reported and len(golden.SERIES_FIELDS) == len(reported)
