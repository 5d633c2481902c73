"""Toy generation: shape integrals, sampler exactness, stream independence."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

from templatefit import (
    ToyConfig,
    bin_probabilities,
    draw,
    poisson,
    rng_stream,
    to_model,
)


class TestToyConfig:
    def test_defaults_match_study_setup(self):
        cfg = ToyConfig()
        assert cfg.signal_yield == 250.0
        assert cfg.background_yield == 750.0
        assert cfg.signal_mean == 1.0
        assert cfg.signal_sigma == 0.1
        assert cfg.background_slope == 1.0
        assert cfg.range == (0.0, 2.0)
        assert cfg.nbins == 15

    def test_validation(self):
        with pytest.raises(ValueError):
            ToyConfig(nbins=0)
        with pytest.raises(ValueError):
            ToyConfig(signal_sigma=0.0)
        with pytest.raises(ValueError):
            ToyConfig(range=(2.0, 0.0))
        with pytest.raises(ValueError):
            ToyConfig(n_mc=-1)
        with pytest.raises(ValueError):
            ToyConfig(signal_yield=-5.0)

    def test_dict_round_trip(self):
        cfg = ToyConfig(signal_yield=99.0, nbins=7, seed=11)
        assert ToyConfig.from_dict(cfg.to_dict()) == cfg

    def test_dict_keys_in_field_order(self):
        obj = ToyConfig().to_dict()
        assert list(obj) == [f.name for f in dataclasses.fields(ToyConfig)]
        assert obj["range"] == [0.0, 2.0]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ToyConfig.from_dict({"signal_yield": 1.0, "bogus": 2})


class TestBinProbabilities:
    def test_both_sum_to_one(self):
        sig, bkg = bin_probabilities(ToyConfig())
        assert sig.sum() == pytest.approx(1.0, abs=1e-12)
        assert bkg.sum() == pytest.approx(1.0, abs=1e-12)

    def test_signal_symmetric_about_center(self):
        sig, _ = bin_probabilities(ToyConfig())
        np.testing.assert_allclose(sig, sig[::-1], atol=1e-12)

    def test_background_first_bin_frozen(self):
        # integral of exp(-x) over [0, 2/15] divided by the integral over
        # [0, 2]; frozen from a quadrature oracle
        _, bkg = bin_probabilities(ToyConfig())
        assert bkg[0] == pytest.approx(0.14436425881271503, rel=1e-12)
        num = integrate.quad(lambda x: math.exp(-x), 0.0, 2.0 / 15.0)[0]
        den = integrate.quad(lambda x: math.exp(-x), 0.0, 2.0)[0]
        assert bkg[0] == pytest.approx(num / den, rel=1e-10)

    def test_signal_bins_match_quadrature(self):
        cfg = ToyConfig()
        sig, _ = bin_probabilities(cfg)
        edges = np.linspace(0.0, 2.0, 16)
        dens = lambda x: math.exp(-0.5 * ((x - 1.0) / 0.1) ** 2)
        den = integrate.quad(dens, 0.0, 2.0)[0]
        for b in (6, 7, 8):
            num = integrate.quad(dens, edges[b], edges[b + 1])[0]
            assert sig[b] == pytest.approx(num / den, rel=1e-9)

    def test_refinement_consistency(self):
        coarse = bin_probabilities(ToyConfig(nbins=15))
        fine = bin_probabilities(ToyConfig(nbins=30))
        for c, f in zip(coarse, fine):
            merged = f.reshape(15, 2).sum(axis=1)
            np.testing.assert_allclose(merged, c, atol=1e-12)

    def test_zero_slope_is_uniform(self):
        _, bkg = bin_probabilities(ToyConfig(background_slope=0.0, nbins=4))
        np.testing.assert_allclose(bkg, 0.25, atol=1e-15)


class TestPoissonSampler:
    def test_zero_mean(self):
        rng = rng_stream(0, 0)
        assert poisson(rng, 0.0) == 0

    def test_negative_mean_rejected(self):
        rng = rng_stream(0, 0)
        with pytest.raises(ValueError):
            poisson(rng, -1.0)

    @pytest.mark.parametrize("mu", [0.4, 3.0, 12.0, 29.5, 45.0, 300.0])
    def test_matches_poisson_distribution(self, mu):
        # KS against the analytic CDF; conservative for a discrete law
        rng = rng_stream(2024, int(mu * 10))
        n = 10_000
        draws = np.array([poisson(rng, mu) for _ in range(n)])
        kmax = int(draws.max()) + 1
        emp = np.array([(draws <= k).mean() for k in range(kmax)])
        cdf = stats.poisson.cdf(np.arange(kmax), mu)
        d = np.max(np.abs(emp - cdf))
        crit = math.sqrt(-0.5 * math.log(0.0005)) / math.sqrt(n)
        assert d < crit

    @pytest.mark.parametrize("mu", [5.0, 80.0])
    def test_moments(self, mu):
        rng = rng_stream(99, int(mu))
        n = 20_000
        draws = np.array([poisson(rng, mu) for _ in range(n)])
        assert draws.mean() == pytest.approx(mu, abs=4.0 * math.sqrt(mu / n))
        assert draws.var() == pytest.approx(mu, rel=0.1)


class TestStreams:
    def test_determinism(self):
        cfg = ToyConfig(seed=42)
        d1 = draw(cfg, rng_stream(42, 7))
        d2 = draw(cfg, rng_stream(42, 7))
        np.testing.assert_array_equal(d1.data.sumw, d2.data.sumw)
        for t1, t2 in zip(d1.templates, d2.templates):
            np.testing.assert_array_equal(t1.sumw, t2.sumw)

    def test_distinct_indexes_differ(self):
        cfg = ToyConfig(seed=42)
        d0 = draw(cfg, rng_stream(42, 0))
        d1 = draw(cfg, rng_stream(42, 1))
        assert not np.array_equal(d0.data.sumw, d1.data.sumw)

    def test_distinct_seeds_differ(self):
        cfg = ToyConfig(seed=0)
        d0 = draw(cfg, rng_stream(1, 0))
        d1 = draw(cfg, rng_stream(2, 0))
        assert not np.array_equal(d0.data.sumw, d1.data.sumw)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            rng_stream(1, -1)

    def test_paired_stream_correlation(self):
        # adjacent-index streams must be statistically independent
        cfg = ToyConfig(seed=31, nbins=3, n_mc=0)
        npairs = 10_000
        x = np.empty(npairs)
        y = np.empty(npairs)
        for i in range(npairs):
            x[i] = draw(cfg, rng_stream(31, 2 * i)).data.sumw[1]
            y[i] = draw(cfg, rng_stream(31, 2 * i + 1)).data.sumw[1]
        rho = np.corrcoef(x, y)[0, 1]
        assert abs(rho) < 0.05


class TestDraw:
    def test_zero_mc_gives_empty_templates(self):
        cfg = ToyConfig(seed=1, n_mc=0)
        toy = draw(cfg, rng_stream(1, 0))
        for t in toy.templates:
            assert t.total == 0.0
        with pytest.raises(ValueError):
            to_model(cfg, toy)  # empty templates are not a usable model

    def test_truth_recorded(self):
        cfg = ToyConfig(seed=1)
        toy = draw(cfg, rng_stream(1, 0))
        assert toy.truth == (250.0, 750.0)

    def test_total_within_five_sigma(self):
        cfg = ToyConfig(seed=9)
        for idx in range(20):
            toy = draw(cfg, rng_stream(9, idx))
            assert abs(toy.data.total - 1000.0) < 5.0 * math.sqrt(1000.0)

    def test_template_totals_poisson_scale(self):
        cfg = ToyConfig(seed=9, n_mc=400)
        toy = draw(cfg, rng_stream(9, 3))
        for t in toy.templates:
            assert abs(t.total - 400.0) < 5.0 * math.sqrt(400.0)

    def test_bin_mean_matches_expectation(self):
        # one data bin sampled many times against its analytic mean
        cfg = ToyConfig()
        sig, bkg = bin_probabilities(cfg)
        b = 7
        mu_sig = 250.0 * sig[b]
        mu_bkg = 750.0 * bkg[b]
        n = 100_000
        rng = rng_stream(123456, 0)
        total = 0.0
        totsq = 0.0
        for _ in range(n):
            v = poisson(rng, mu_sig) + poisson(rng, mu_bkg)
            total += v
            totsq += v * v
        mean = total / n
        var = totsq / n - mean * mean
        sem = math.sqrt(var / n)
        assert abs(mean - (mu_sig + mu_bkg)) < 3.0 * sem

    def test_data_bin_distribution_ks(self):
        # a drawn data bin is exchangeable with a direct Poisson draw
        cfg = ToyConfig()
        sig, bkg = bin_probabilities(cfg)
        b = 7
        mu = 250.0 * sig[b] + 750.0 * bkg[b]
        n = 10_000
        rng = rng_stream(7777, 0)
        draws = np.array(
            [poisson(rng, 250.0 * sig[b]) + poisson(rng, 750.0 * bkg[b]) for _ in range(n)]
        )
        kmax = int(draws.max()) + 1
        emp = np.array([(draws <= k).mean() for k in range(kmax)])
        cdf = stats.poisson.cdf(np.arange(kmax), mu)
        d = np.max(np.abs(emp - cdf))
        crit = math.sqrt(-0.5 * math.log(0.0005)) / math.sqrt(n)
        assert d < crit

    def test_counts_are_integers(self):
        cfg = ToyConfig(seed=5)
        toy = draw(cfg, rng_stream(5, 0))
        np.testing.assert_array_equal(toy.data.sumw, np.round(toy.data.sumw))
        assert toy.data.is_unweighted()
