import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, special, stats

import epitransit
from epitransit.mobility import matrix_from_flows
from epitransit.transit import (
    DEFAULT_K_RANGE,
    DEFAULT_THETA_RANGE,
    DeltaBand,
    GammaTripModel,
    InfeasibleModeShare,
    calibrate,
    compute_lambda,
    distance_histogram,
    enumerate_param_pairs,
    gamma_pdf,
    gammaln,
    label_probabilities,
    sample_transit_matrix,
    weighted_percentile,
)


def brute_force_pairs(band, k_range, theta_range):
    return [
        (k, t)
        for k in range(k_range[0], k_range[1] + 1)
        for t in range(theta_range[0], theta_range[1] + 1)
        if band.km_min <= k * t <= band.km_max
    ]


class TestGammaPdf:
    def test_exponential_special_case(self):
        assert gamma_pdf(0.0, 1, 10) == pytest.approx(0.1)

    def test_zero_density_at_origin_for_k_above_one(self):
        assert gamma_pdf(0.0, 2, 16) == 0.0

    def test_paper_example_mean_in_mediate_band(self):
        model = GammaTripModel(k=2, theta=16)
        assert model.k * model.theta == 32
        assert DeltaBand.from_label("mediate").contains(model.k * model.theta)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            gamma_pdf(-1.0, 2, 5)

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = rng.integers(1, 30)
            theta = rng.integers(1, 30)
            d = rng.uniform(0, 200, 50)
            assert gamma_pdf(d, k, theta) == pytest.approx(
                stats.gamma.pdf(d, a=k, scale=theta), rel=1e-12
            )

    def test_integrates_to_one(self):
        # quadrature oracle over 20 random (k, theta)
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(1, 40))
            theta = int(rng.integers(1, 40))
            total, _ = integrate.quad(lambda d: gamma_pdf(d, k, theta), 0, np.inf, limit=200)
            assert total == pytest.approx(1.0, abs=1e-6)


class TestGammaln:
    def test_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(0)
        xs = np.concatenate([
            np.arange(1.0, 5000.0),  # every integer shape up to 4999
            rng.uniform(1.0, 60.0, 50_000),
            rng.uniform(1.0, 1e9, 5_000),  # both Stirling branches and the 1e8 cut
            1.0 + 1e-3 * np.arange(12_001),  # the recurrence on [1, 13]
            [12.999999999, 13.0, 999.999, 1000.0, 1e8, 1e8 + 1.0, 1e300, 3e305],
        ])
        got = np.array([gammaln(float(x)) for x in xs])
        np.testing.assert_array_equal(got.view(np.int64), special.gammaln(xs).view(np.int64))

    def test_non_finite_returned_and_below_one_rejected(self):
        assert gammaln(np.inf) == np.inf
        assert np.isnan(gammaln(np.nan))
        with pytest.raises(ValueError):
            gammaln(0.5)

    def test_package_imports_no_scipy(self):
        src = pathlib.Path(epitransit.__file__).resolve().parents[1]
        code = (
            "import sys, epitransit, epitransit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestEnumeratePairs:
    def test_point_band(self):
        band = DeltaBand("custom", 10.0, 10.0)
        assert enumerate_param_pairs(band, (2, 10), (1, 50)) == [(2, 5), (5, 2), (10, 1)]

    def test_empty_band(self):
        band = DeltaBand("custom", 1.0, 1.0)
        assert enumerate_param_pairs(band, (2, 50), (1, 50)) == []

    @pytest.mark.parametrize("label", ["low", "mediate", "high"])
    def test_matches_bruteforce_and_order(self, label):
        band = DeltaBand.from_label(label)
        pairs = enumerate_param_pairs(band)
        assert pairs == sorted(brute_force_pairs(band, DEFAULT_K_RANGE, DEFAULT_THETA_RANGE))

    def test_counts_recorded(self):
        # our closed-band enumeration; the source text's 29/37/34 are not
        # reproducible under any stated boundary convention
        counts = {
            label: len(enumerate_param_pairs(DeltaBand.from_label(label)))
            for label in ("low", "mediate", "high")
        }
        assert counts == {"low": 32, "mediate": 44, "high": 39}


class TestComputeLambda:
    def test_single_atom(self):
        model = GammaTripModel(k=2, theta=10, mu=0.35)
        d = np.array([12.0, 12.0])
        c = np.array([5.0, 3.0])
        lam = compute_lambda(model, d, c)
        assert lam == pytest.approx(0.35 / gamma_pdf(12.0, 2, 10))

    def test_expected_fraction_on_fixture(self):
        # 1000 synthetic trips; oracle is the direct expectation sum
        rng = np.random.default_rng(7)
        model = GammaTripModel(k=3, theta=5, mu=0.35)
        d = rng.uniform(0.5, 80.0, 1000)
        c = rng.integers(1, 20, 1000).astype(float)
        lam = compute_lambda(model, d, c)
        probs = np.minimum(1.0, lam * gamma_pdf(d, 3, 5))
        fraction = (c * probs).sum() / c.sum()
        assert fraction == pytest.approx(0.35, abs=1e-6)

    def test_capping_with_resolve(self):
        # a cluster right at the density mode caps; lambda re-solves on the rest
        model = GammaTripModel(k=2, theta=5, mu=0.5)
        d = np.concatenate([np.full(10, 5.0), np.full(90, 60.0)])
        c = np.ones(100)
        lam = compute_lambda(model, d, c)
        probs = np.minimum(1.0, lam * gamma_pdf(d, 2, 5))
        assert probs[0] == 1.0
        assert (c * probs).sum() / c.sum() == pytest.approx(0.5, abs=1e-6)

    def test_infeasible_mode_share(self):
        # nearly all mass at d=0 where the k=2 density vanishes
        model = GammaTripModel(k=2, theta=5, mu=0.99)
        d = np.concatenate([np.zeros(99), [10.0]])
        c = np.ones(100)
        with pytest.raises(InfeasibleModeShare) as exc:
            compute_lambda(model, d, c)
        assert exc.value.achievable == pytest.approx(0.01)

    def test_empty_trips_rejected(self):
        with pytest.raises(ValueError):
            compute_lambda(GammaTripModel(2, 5), np.array([]), np.array([]))


class TestSampling:
    def test_zero_probability_gives_empty(self, small_city):
        model = dataclasses.replace(GammaTripModel(k=2, theta=5), lam=0.0)
        sub = sample_transit_matrix(small_city, model, 1)
        assert sub.m.sum() == 0.0

    def test_certain_labeling_copies_input(self, small_city):
        # lambda huge: every probability caps at 1
        model = dataclasses.replace(GammaTripModel(k=1, theta=50), lam=1e12)
        sub = sample_transit_matrix(small_city, model, 1)
        assert np.array_equal(sub.m, small_city.m)

    def test_labeled_fraction_within_binomial_bounds(self, small_city):
        model = calibrate(GammaTripModel(k=3, theta=5, mu=0.35), small_city)
        sub = sample_transit_matrix(small_city, model, 42)
        off = ~np.eye(small_city.n, dtype=bool)
        total = small_city.m[off].sum()
        frac = sub.m[off].sum() / total
        sigma = np.sqrt(0.35 * 0.65 / total)
        assert abs(frac - 0.35) <= 3 * sigma

    def test_subsampling_never_creates_flow(self, small_city):
        model = calibrate(GammaTripModel(k=2, theta=7, mu=0.35), small_city)
        sub = sample_transit_matrix(small_city, model, 3)
        assert np.all(sub.m <= small_city.m)
        assert np.all(sub.m >= 0.0)

    def test_populations_copied(self, small_city):
        model = calibrate(GammaTripModel(k=3, theta=5, mu=0.35), small_city)
        sub = sample_transit_matrix(small_city, model, 3)
        assert np.array_equal(sub.populations, small_city.populations)

    def test_reproducible_bit_for_bit(self, small_city):
        model = calibrate(GammaTripModel(k=3, theta=5, mu=0.35), small_city)
        a = sample_transit_matrix(small_city, model, 99)
        b = sample_transit_matrix(small_city, model, 99)
        assert np.array_equal(a.m, b.m)
        c = sample_transit_matrix(small_city, model, 100)
        assert not np.array_equal(a.m, c.m)

    def test_fractional_count_rejected_however_large(self):
        # 1e6 + 0.4 is within allclose's relative tolerance of 1e6
        m = matrix_from_flows(np.array([[0.0, 1e6 + 0.4], [3.0, 0.0]]), populations=np.array([10.0, 10.0]))
        model = dataclasses.replace(GammaTripModel(k=1, theta=5), lam=1.0)
        with pytest.raises(ValueError, match="integer trip counts"):
            sample_transit_matrix(m, model, 1)

    def test_unset_lambda_rejected(self, small_city):
        with pytest.raises(ValueError, match="lam"):
            sample_transit_matrix(small_city, GammaTripModel(2, 5), 1)

    def test_gamma_mean_monotone_in_theta(self):
        models = [GammaTripModel(k=4, theta=t) for t in range(1, 20)]
        means = [m.k * m.theta for m in models]
        assert means == sorted(means)
        assert models[4].k * models[4].theta == 20.0


class TestDistanceHistogram:
    def test_point_mass(self):
        # all trips on one pair at a known distance
        from epitransit.mobility import Location, LocationTable

        table = LocationTable([Location("a", 0, 0), Location("b", 0, 10 / 111.19492664455873)])
        m = matrix_from_flows(np.array([[0.0, 7.0], [7.0, 0.0]]), table=table)
        hist = distance_histogram(m, bin_km=5.0)
        assert hist.masses.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.count_nonzero(hist.masses) == 1  # a single occupied bin
        assert hist.masses.max() == pytest.approx(1.0)
        assert hist.p95_km == pytest.approx(10.0, abs=1e-9)

    def test_masses_sum_to_one(self, small_city):
        hist = distance_histogram(small_city, bin_km=4.0)
        assert hist.masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_transit_sample_narrows_the_range(self, small_city):
        # directional check: mediate-band transit p95 below full-mobility p95
        model = calibrate(GammaTripModel(k=2, theta=16, mu=0.35), small_city)
        sub = sample_transit_matrix(small_city, model, 5)
        assert distance_histogram(sub).p95_km < distance_histogram(small_city).p95_km

    def test_weighted_percentile(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        weights = np.array([1.0, 1.0, 1.0, 97.0])
        assert weighted_percentile(values, weights, 0.95) == 4.0
        assert weighted_percentile(values, weights, 0.01) == 1.0


class TestModelValidation:
    def test_invariants(self):
        with pytest.raises(ValueError):
            GammaTripModel(k=0.5, theta=5)
        with pytest.raises(ValueError):
            GammaTripModel(k=2, theta=0.5)
        with pytest.raises(ValueError):
            GammaTripModel(k=2, theta=5, mu=1.5)

    def test_band_labels(self):
        assert DeltaBand.from_label("low").km_min == 10.0
        assert DeltaBand.from_label("high").km_max == 60.0
        with pytest.raises(ValueError):
            DeltaBand.from_label("extreme")
