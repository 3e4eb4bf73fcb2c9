import json
import math
from dataclasses import fields

import golden
from epitransit.engine import PrevalenceSeries

SUMMARY_RTOL = 1e-9


def _differing(got: dict, want: dict) -> list:
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def test_series_and_exports_match_the_golden_file(tmp_path):
    with open(golden.GOLDEN_PATH, encoding="utf-8") as fh:
        want = json.load(fh)
    got = golden.compute(tmp_path)
    if got["environment"] == want["environment"]:
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


def test_the_series_digest_covers_everything_a_series_reports():
    # every data field but the course table the totals are gathered from,
    # and the two derived totals
    reported = {f.name for f in fields(PrevalenceSeries)} - {"course"} | {"total_S", "total_R"}
    assert set(golden.SERIES_FIELDS) == reported and len(golden.SERIES_FIELDS) == len(reported)
