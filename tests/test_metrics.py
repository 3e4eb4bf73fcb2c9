import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epitransit import metrics
from epitransit.metrics import (
    CompareConfig,
    ComparisonReport,
    NoAdmissibleLag,
    compare,
    locations_timing,
    peak,
    situational_awareness,
    threshold_day,
)


class Run:
    def __init__(self, prevalence, frac_locations=None):
        self.prevalence = np.asarray(prevalence, dtype=float)
        if frac_locations is None:
            frac_locations = np.linspace(0, 1, len(self.prevalence))
        self.frac_locations = np.asarray(frac_locations, dtype=float)


class TestThresholdDay:
    def test_first_crossing(self):
        assert threshold_day([0.0, 0.005, 0.02, 0.05], 0.01) == 2

    def test_never_reached(self):
        assert threshold_day([0.0, 0.0, 0.0], 0.01) is None

    def test_bad_level(self):
        with pytest.raises(ValueError):
            threshold_day([0.1], 0.0)

    def test_fuzz_against_linear_scan(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            series = rng.uniform(0, 0.05, rng.integers(1, 60))
            level = float(rng.uniform(0.001, 0.05))
            expected = None
            for day, value in enumerate(series):
                if value >= level:
                    expected = day
                    break
            assert threshold_day(series, level) == expected


class TestPeak:
    def test_tie_goes_to_earliest(self):
        assert peak([0.0, 0.1, 0.3, 0.3, 0.1]) == (2, 0.3)

    def test_monotone_decreasing(self):
        assert peak([0.5, 0.4, 0.1]) == (0, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            peak([])

    def test_fuzz_against_argmax_scan(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            series = rng.uniform(0, 1, rng.integers(1, 80))
            best_day, best = 0, series[0]
            for day, value in enumerate(series):
                if value > best:
                    best_day, best = day, value
            assert peak(series) == (best_day, best)


def sa_oracle(x, y, max_lag, min_overlap=10):
    """Direct evaluation of the lag-minimized normalized MAE."""
    best = None
    for lag in range(-max_lag, max_lag + 1):
        num = den = 0.0
        count = 0
        for t in range(len(x)):
            if 0 <= t + lag < len(y):
                num += abs(x[t] - y[t + lag])
                den += abs(x[t] + y[t + lag])
                count += 1
        if count < min_overlap:
            continue
        ratio = num / den if den > 0 else 0.0
        if best is None or ratio < best:
            best = ratio
    return None if best is None else 1.0 - best


def sa_per_lag(x, y, max_lag, min_overlap=10):
    """The per-lag loop of NumPy sums that situational_awareness must equal
    bit for bit."""
    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    best = None
    for lag in range(-max_lag, max_lag + 1):
        t0 = max(0, -lag)
        t1 = min(xa.size - 1, ya.size - 1 - lag)
        if t1 - t0 + 1 < min_overlap:
            continue
        xs = xa[t0 : t1 + 1]
        ys = ya[t0 + lag : t1 + lag + 1]
        denom = float(np.abs(xs + ys).sum())
        ratio = float(np.abs(xs - ys).sum()) / denom if denom > 0 else 0.0
        if best is None or ratio < best:
            best = ratio
    return None if best is None else 1.0 - best


# prevalence-like values, with exact ties, repeats and all-zero stretches
prevalences = hnp.arrays(
    np.float64,
    st.integers(0, 60),
    elements=st.one_of(st.sampled_from([0.0, 0.1, 0.25]), st.floats(0.0, 1.0)),
)


@st.composite
def hard_series(draw):
    """Series of up to 400 days that stress the bounded lag search: values
    spread over 1e-300 to 1, exact ties, constant series (whose ratios tie
    at every lag up to round-off, so nothing can be pruned), epidemic
    bumps, and optionally an all-zero stretch."""
    n = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(("wide", "ties", "constant", "bump")))
    if shape == "wide":
        a = 10.0 ** rng.uniform(-300.0, 0.0, n)
    elif shape == "ties":
        a = rng.choice([0.0, 1e-300, 0.1, 0.25, 1.0], n)
    elif shape == "constant":
        a = np.full(n, draw(st.sampled_from([0.0, 1e-300, 0.1, 0.3, 1.0])))
    else:
        t = np.arange(n)
        a = draw(st.floats(1e-6, 1.0)) * np.exp(-(((t - rng.uniform(0, n + 1)) / rng.uniform(1.0, 80.0)) ** 2))
    if draw(st.booleans()):
        i, j = sorted(rng.integers(0, n + 1, 2))
        a[i:j] = 0.0
    return a


def assert_equals_the_per_lag_loop(x, y, max_lag, min_overlap):
    expected = sa_per_lag(x, y, max_lag, min_overlap)
    if expected is None:
        with pytest.raises(NoAdmissibleLag):
            situational_awareness(x, y, max_lag, min_overlap)
    else:
        assert situational_awareness(x, y, max_lag, min_overlap) == expected


def bump(days, center, width, height):
    t = np.arange(days)
    return height * np.exp(-(((t - center) / width) ** 2))


class TestSituationalAwareness:
    @given(x=prevalences, y=prevalences, max_lag=st.integers(0, 70), min_overlap=st.integers(1, 15))
    def test_equals_the_per_lag_loop_bit_for_bit(self, x, y, max_lag, min_overlap):
        assert_equals_the_per_lag_loop(x, y, max_lag, min_overlap)

    @given(
        x=hard_series(),
        y=hard_series(),
        shift=st.none() | st.tuples(st.integers(0, 60), st.sampled_from([1.0, 0.5, 2.0, 1e-200])),
        max_lag=st.integers(0, 400),
        min_overlap=st.integers(1, 15),
    )
    def test_equals_the_per_lag_loop_bit_for_bit_on_hard_inputs(self, x, y, shift, max_lag, min_overlap):
        if shift is not None:  # y is x delayed and scaled: one lag fits exactly or up to scale
            days, scale = shift
            y = np.concatenate([np.zeros(days), scale * x])
        assert_equals_the_per_lag_loop(x, y, max_lag, min_overlap)

    def test_two_shifted_epidemics_sum_a_handful_of_lags(self):
        x = bump(300, 160.0, 30.0, 0.12)
        y = bump(300, 140.0, 25.0, 0.15)
        kept, lag0, upper = metrics._kept_lags(x, y, 150, 10)
        assert len(kept) <= 3  # of the 301 admissible lags
        assert 1.0 - upper == situational_awareness(x, y, 150) == sa_per_lag(x, y, 150)
        assert lag0 in kept

    @pytest.mark.parametrize(
        "bad, shown",
        [(np.nan, "nan"), (np.inf, "inf"), (-0.01, "-0.01")],
        ids=["nan", "inf", "negative"],
    )
    @pytest.mark.parametrize("side", ["x", "y"])
    def test_a_bad_value_is_named_with_its_series_and_day(self, bad, shown, side):
        good = bump(30, 15.0, 5.0, 0.1)
        broken = good.copy()
        broken[5] = bad
        x, y = (broken, good) if side == "x" else (good, broken)
        name = "transit series x" if side == "x" else "full-mobility series y"
        with pytest.raises(ValueError, match=f"^{name} has {shown} on day 5;"):
            situational_awareness(x, y, 10)

    def test_series_whose_sum_overflows_are_rejected(self):
        # every value is finite, but no ratio is: the sums reach inf
        with pytest.raises(ValueError, match="^the two series sum to inf"):
            situational_awareness(np.full(20, 1e308), np.full(20, 1e308), 3)

    def test_identical_series(self):
        x = np.linspace(0, 0.2, 40)
        assert situational_awareness(x, x, 5) == pytest.approx(1.0)

    def test_pure_shift_recovered(self):
        x = np.concatenate([np.zeros(5), np.linspace(0, 0.3, 30), np.zeros(5)])
        y = np.concatenate([np.zeros(3), x])  # y delayed by 3 days
        assert situational_awareness(x, y, 5) == pytest.approx(1.0)
        assert sa_oracle(list(x), list(y), 5) == pytest.approx(1.0)

    def test_constant_series(self):
        x = np.full(30, 0.1)
        y = np.full(30, 0.3)
        assert situational_awareness(x, y, 4) == pytest.approx(0.5)

    def test_symmetry_under_exchange(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.uniform(0, 1, rng.integers(12, 50))
            y = rng.uniform(0, 1, rng.integers(12, 50))
            assert situational_awareness(x, y, 8) == pytest.approx(
                situational_awareness(y, x, 8)
            )

    def test_fuzz_against_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.uniform(0, 1, rng.integers(10, 40))
            y = rng.uniform(0, 1, rng.integers(10, 40))
            lag = int(rng.integers(0, 6))
            expected = sa_oracle(list(x), list(y), lag)
            if expected is None:
                with pytest.raises(NoAdmissibleLag):
                    situational_awareness(x, y, lag)
            else:
                assert situational_awareness(x, y, lag) == pytest.approx(expected)

    def test_too_short_series(self):
        with pytest.raises(NoAdmissibleLag):
            situational_awareness(np.ones(4), np.ones(4), 2)

    def test_min_overlap_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="min_overlap"):
            situational_awareness(np.ones(20), np.ones(20), 2, min_overlap=0)


class TestLocationsTiming:
    def test_identical_runs(self):
        frac = [0.0, 0.1, 0.3, 0.9, 1.0]
        out = locations_timing(frac, frac, [0.2, 0.8])
        assert out == {0.2: 0, 0.8: 0}

    def test_constructed_lag(self):
        # transit reaches 20% on day 12, full mobility on day 10: lag -2
        fx = np.concatenate([np.zeros(12), [0.25], np.full(7, 0.3)])
        fy = np.concatenate([np.zeros(10), [0.25], np.full(9, 0.3)])
        out = locations_timing(fx, fy, [0.2])
        assert out == {0.2: -2}

    def test_censored(self):
        fx = np.full(10, 0.5)  # never reaches 80%
        fy = np.full(10, 0.9)
        out = locations_timing(fx, fy, [0.8])
        assert out == {0.8: None}


def report_oracle(x_run, y_run, cfg):
    """Independent report assembly from the scan primitives above."""
    tx = threshold_day(x_run.prevalence, cfg.level)
    ty = threshold_day(y_run.prevalence, cfg.level)
    early = None if tx is None or ty is None else ty - tx
    px = peak(x_run.prevalence)
    py = peak(y_run.prevalence)
    max_lag = cfg.max_lag
    if max_lag is None:
        max_lag = max(len(x_run.prevalence), len(y_run.prevalence)) // 2
    sa = sa_oracle(list(x_run.prevalence), list(y_run.prevalence), max_lag, cfg.min_overlap)
    lt = {}
    for thr in cfg.thresholds:
        dx = next((i for i, v in enumerate(x_run.frac_locations) if v >= thr), None)
        dy = next((i for i, v in enumerate(y_run.frac_locations) if v >= thr), None)
        lt[float(thr)] = None if dx is None or dy is None else dy - dx
    return ComparisonReport(
        early_warning=early,
        peak_timing=py[0] - px[0],
        peak_magnitude=px[1] / py[1],
        situational_awareness=sa,
        locations_timing=lt,
    )


class TestCompare:
    def test_identical_runs(self):
        prev = np.concatenate([np.linspace(0, 0.2, 25), np.linspace(0.2, 0, 25)])
        run = Run(prev)
        report = compare(run, run)
        assert report.early_warning == 0
        assert report.peak_timing == 0
        assert report.peak_magnitude == pytest.approx(1.0)
        assert report.situational_awareness == pytest.approx(1.0)
        assert report.locations_timing == {0.2: 0, 0.8: 0}

    def test_delayed_scaled_mirror_of_reported_case(self):
        # transit = full mobility delayed 5 days and scaled by 0.92
        base = np.concatenate([np.linspace(0, 0.25, 30), np.linspace(0.25, 0, 30)])
        y = Run(base)
        x = Run(np.concatenate([np.zeros(5), 0.92 * base]))
        report = compare(x, y)
        assert report.peak_timing == -5
        assert report.peak_magnitude == pytest.approx(0.92)
        assert report.situational_awareness == pytest.approx(1.0 - 0.08 / 1.92, rel=1e-6)

    def test_fuzz_against_report_oracle(self):
        rng = np.random.default_rng(6)
        cfg = CompareConfig(level=0.05, max_lag=6, thresholds=(0.2, 0.8))
        for _ in range(100):
            nx, ny = rng.integers(12, 60), rng.integers(12, 60)
            x = Run(rng.uniform(0, 0.4, nx), np.minimum(1, np.cumsum(rng.uniform(0, 0.08, nx))))
            y = Run(rng.uniform(0, 0.4, ny), np.minimum(1, np.cumsum(rng.uniform(0, 0.08, ny))))
            got = compare(x, y, cfg)
            expected = report_oracle(x, y, cfg)
            # day-valued statistics are exact integers; float statistics can
            # differ from the sequential oracle by summation order only
            assert got.early_warning == expected.early_warning
            assert got.peak_timing == expected.peak_timing
            assert got.locations_timing == expected.locations_timing
            assert got.peak_magnitude == pytest.approx(expected.peak_magnitude, rel=1e-12)
            assert got.situational_awareness == pytest.approx(
                expected.situational_awareness, rel=1e-12
            )

    def test_peak_magnitude_scale_invariant(self):
        rng = np.random.default_rng(7)
        base_x = rng.uniform(0, 0.5, 30)
        base_y = rng.uniform(0, 0.5, 30)
        r1 = compare(Run(base_x), Run(base_y))
        r2 = compare(Run(3.7 * base_x), Run(3.7 * base_y))
        assert r1.peak_magnitude == pytest.approx(r2.peak_magnitude)

    def test_censored_early_warning(self):
        x = Run(np.full(20, 0.001))
        y = Run(np.full(20, 0.05))
        report = compare(x, y)
        assert report.early_warning is None

    def test_a_flat_baseline_raises_before_the_lag_search(self):
        # no lag is admissible either, but the baseline error comes first
        with pytest.raises(ValueError, match="never rises above 0") as info:
            compare(Run(np.full(3, 0.1)), Run(np.zeros(3)))
        assert not isinstance(info.value, NoAdmissibleLag)

    def test_a_bad_value_in_the_transit_series_is_named(self):
        x = np.full(30, 0.1)
        x[5] = np.nan
        with pytest.raises(ValueError, match="transit series x has nan on day 5"):
            compare(Run(x), Run(np.full(30, 0.1)))

    def test_bare_arrays_stand_for_both_series_of_a_run(self):
        rng = np.random.default_rng(8)
        cfg = CompareConfig(level=0.3, thresholds=(0.2, 0.5, 0.8))
        for _ in range(20):
            x, y = rng.uniform(0, 1, rng.integers(12, 60)), rng.uniform(0, 1, rng.integers(12, 60))
            assert compare(x, y, cfg) == compare(Run(x, x), Run(y, y), cfg)
