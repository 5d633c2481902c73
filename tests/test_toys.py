"""Toy generation: shape integrals, sampler exactness, stream independence."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from templatefit import (
    ToyConfig,
    ToyDraw,
    draw,
    draw_counts,
    rng_stream,
    to_model,
)
from templatefit.toys import _inversion_table, _plan, _poisson_block


def _draws(rng, means: list[float]) -> list[int]:
    """Poisson draws for ``means`` from ``rng``, by the block sampler every toy draws with."""
    return _poisson_block(rng, _plan(tuple(means)))


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

    @pytest.mark.parametrize(
        "fields",
        [
            {"signal_yield": math.nan},
            {"background_yield": math.inf},
            {"n_mc": math.nan},
            {"signal_mean": math.nan},
            {"background_slope": math.nan},
            {"signal_sigma": math.inf},
            {"signal_mean": 100.0},  # no signal probability on the range
            {"background_slope": -1000.0},  # the background overflows
            {"nbins": 15.5},
            {"n_mc": 50.5},
            {"seed": 2.7},  # would draw seed 2
            {"n_mc": True},  # a JSON true is no template size
        ],
    )
    def test_rejects_non_finite_fields_and_shapes_out_of_reach(self, fields):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                ToyConfig(**fields)

    def test_dict_round_trip(self):
        obj = {"signal_yield": 99.0, "nbins": 7, "seed": 11, "range": [0.0, 2.0]}
        assert ToyConfig.from_dict(obj) == ToyConfig(signal_yield=99.0, nbins=7, seed=11)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ToyConfig.from_dict({"signal_yield": 1.0, "bogus": 2})


class TestBinProbabilities:
    def test_both_sum_to_one(self):
        sig, bkg = ToyConfig()._shapes()
        assert sig.sum() == pytest.approx(1.0, abs=1e-12)
        assert bkg.sum() == pytest.approx(1.0, abs=1e-12)

    def test_signal_symmetric_about_center(self):
        sig, _ = ToyConfig()._shapes()
        np.testing.assert_allclose(sig, sig[::-1], atol=1e-12)

    def test_background_first_bin_frozen(self):
        # integral of exp(-x) over [0, 2/15] divided by the integral over
        # [0, 2]; frozen from a quadrature oracle
        _, bkg = ToyConfig()._shapes()
        assert bkg[0] == pytest.approx(0.14436425881271503, rel=1e-12)
        num = integrate.quad(lambda x: math.exp(-x), 0.0, 2.0 / 15.0)[0]
        den = integrate.quad(lambda x: math.exp(-x), 0.0, 2.0)[0]
        assert bkg[0] == pytest.approx(num / den, rel=1e-10)

    def test_signal_bins_match_quadrature(self):
        cfg = ToyConfig()
        sig, _ = cfg._shapes()
        edges = np.linspace(0.0, 2.0, 16)
        dens = lambda x: math.exp(-0.5 * ((x - 1.0) / 0.1) ** 2)
        den = integrate.quad(dens, 0.0, 2.0)[0]
        for b in (6, 7, 8):
            num = integrate.quad(dens, edges[b], edges[b + 1])[0]
            assert sig[b] == pytest.approx(num / den, rel=1e-9)

    def test_refinement_consistency(self):
        coarse = ToyConfig(nbins=15)._shapes()
        fine = ToyConfig(nbins=30)._shapes()
        for c, f in zip(coarse, fine):
            merged = f.reshape(15, 2).sum(axis=1)
            np.testing.assert_allclose(merged, c, atol=1e-12)

    def test_zero_slope_is_uniform(self):
        _, bkg = ToyConfig(background_slope=0.0, nbins=4)._shapes()
        np.testing.assert_allclose(bkg, 0.25, atol=1e-15)


class TestPoissonSampler:
    @pytest.mark.parametrize("mu", [0.4, 3.0, 12.0, 29.5, 45.0, 300.0])
    def test_matches_poisson_distribution(self, mu):
        # KS against the analytic CDF; conservative for a discrete law
        rng = rng_stream(2024, int(mu * 10))
        n = 10_000
        draws = np.array(_draws(rng, [mu] * n))
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
        draws = np.array(_draws(rng, [mu] * n))
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
        with pytest.raises(ValueError):
            draw_counts(ToyConfig(seed=1), [0, -1])
        for toy_index in (2**64, 2**64 + 1):
            with pytest.raises(ValueError):
                rng_stream(1, toy_index)
            with pytest.raises(ValueError):
                draw_counts(ToyConfig(seed=1), [toy_index])

    @pytest.mark.parametrize("seed", [11, 2**64 + 11])
    def test_draw_counts_rows_equal_stream_draws(self, seed):
        # one generator reset per toy replays each toy's own stream, also
        # for indexes in the high half of the key's high word
        cfg = ToyConfig(seed=seed, nbins=15, n_mc=50)
        indexes = [0, 1, 7, 2**32, 2**32 + 1, 2**63 + 5, 3]
        counts = draw_counts(cfg, indexes)
        assert counts.shape == (len(indexes), 4, 15)
        for row, i in zip(counts, indexes):
            got = ToyDraw.from_counts(row)
            want = draw(cfg, rng_stream(seed, i))
            for a, b in zip((got.data, *got.templates), (want.data, *want.templates)):
                assert a.sumw.tobytes() == b.sumw.tobytes()
                assert a.sumw2.tobytes() == b.sumw2.tobytes()

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
        sig, bkg = cfg._shapes()
        b = 7
        mu_sig = 250.0 * sig[b]
        mu_bkg = 750.0 * bkg[b]
        n = 100_000
        rng = rng_stream(123456, 0)
        pairs = _draws(rng, [mu_sig, mu_bkg] * n)
        total = 0.0
        totsq = 0.0
        for v in map(sum, zip(pairs[::2], pairs[1::2])):
            total += v
            totsq += v * v
        mean = total / n
        var = totsq / n - mean * mean
        sem = math.sqrt(var / n)
        assert abs(mean - (mu_sig + mu_bkg)) < 3.0 * sem

    def test_data_bin_distribution_ks(self):
        # a drawn data bin is exchangeable with a direct Poisson draw
        cfg = ToyConfig()
        sig, bkg = cfg._shapes()
        b = 7
        mu = 250.0 * sig[b] + 750.0 * bkg[b]
        n = 10_000
        rng = rng_stream(7777, 0)
        pairs = np.array(_draws(rng, [250.0 * sig[b], 750.0 * bkg[b]] * n))
        draws = pairs[::2] + pairs[1::2]
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


# (seed, toy index, config fields, total count, sha256 prefix of the int64
# counts: data, signal template, background template), drawn by the scalar
# sampler loop before draw took its uniforms in one block
FROZEN_DRAWS = [
    (1, 0, {"n_mc": 0}, 989, "3163e82134684c21"),
    (1, 0, {"n_mc": 50}, 1089, "03a22f3e21a33a59"),
    (1, 0, {"n_mc": 10000}, 20919, "02cfb9a3dc779766"),
    (1, 3, {"n_mc": 0}, 960, "da4cf750af91968d"),
    (1, 3, {"n_mc": 50}, 1080, "11fba24eca505576"),
    (1, 3, {"n_mc": 10000}, 21098, "8123c3ceb926f04e"),
    (101000000, 0, {"n_mc": 0}, 1011, "76bd10fe9f745893"),
    (101000000, 0, {"n_mc": 50}, 1094, "6f4d6134866424d4"),
    (101000000, 0, {"n_mc": 10000}, 20829, "7d9d8f4c29d8048a"),
    (101000000, 3, {"n_mc": 0}, 1027, "9f62923b84c73167"),
    (101000000, 3, {"n_mc": 50}, 1113, "8283852b4e4d13c0"),
    (101000000, 3, {"n_mc": 10000}, 20886, "8d6d9a4f276208ce"),
    (7, 0, {"n_mc": 0}, 1008, "c3b46744b124f12d"),
    (7, 0, {"n_mc": 50}, 1093, "3f4c3a9ef28e8612"),
    (7, 0, {"n_mc": 10000}, 21029, "d8003aa557b9f48b"),
    (7, 3, {"n_mc": 0}, 1032, "888f0b47507e7153"),
    (7, 3, {"n_mc": 50}, 1134, "035c3d5287fc6c03"),
    (7, 3, {"n_mc": 10000}, 21084, "38b361081ff9e34a"),
    (5, 11, {"n_mc": 200, "nbins": 3}, 1449, "9fb3b261205464db"),
    (5, 12, {"n_mc": 400, "nbins": 40}, 1889, "2547d62cda72d4e8"),
    (9, 2, {"n_mc": 1000, "background_slope": 0.0}, 3005, "2db9984b8a17c564"),
    (9, 4, {"n_mc": 50, "signal_yield": 5e3, "background_yield": 2e4}, 25100, "9dd1d2ce545ac362"),
    (9, 5, {"n_mc": 100000, "signal_yield": 0.0}, 200113, "7a3596ce1bdb6433"),
    (2, 8, {"n_mc": 30, "nbins": 100, "signal_sigma": 0.05}, 1057, "51018944661b6c25"),
]

# (mean, sum of 50 scalar draws, hex of the stream's next uniform)
FROZEN_SCALAR = [
    (0.0, 0, "0x1.b16a074d345d2p-1"),
    (0.4, 20, "0x1.259e87be050f2p-2"),
    (12.0, 608, "0x1.2c224b146bed8p-3"),
    (29.999, 1494, "0x1.0c23d5deaeea4p-2"),
    (30.0, 1513, "0x1.6ffaffae52008p-1"),
    (45.0, 2266, "0x1.7bf954c9be858p-4"),
    (300.0, 14988, "0x1.82b8e9959bc80p-3"),
    (10000.0, 500411, "0x1.58f5e1a713538p-1"),
]


class TestFrozenDraws:
    @pytest.mark.parametrize("seed,index,fields,total,digest", FROZEN_DRAWS)
    def test_counts_frozen(self, seed, index, fields, total, digest):
        toy = draw(ToyConfig(seed=seed, **fields), rng_stream(seed, index))
        counts = np.concatenate([toy.data.sumw, *(t.sumw for t in toy.templates)])
        counts = counts.astype(np.int64)
        assert int(counts.sum()) == total
        assert hashlib.sha256(counts.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("mu,total,next_uniform", FROZEN_SCALAR)
    def test_scalar_sampler_consumption_frozen(self, mu, total, next_uniform):
        # the block draw's counts, and the stream left where the scalar loop left it
        assert sum(_draws(rng_stream(77, int(mu)), [mu] * 50)) == total
        rng = rng_stream(77, int(mu))
        assert sum(_reference_poisson(rng, mu) for _ in range(50)) == total
        assert rng.random().hex() == next_uniform


def _reference_poisson(rng, mu):
    """The sequential scalar samplers the block draw replaced, kept as the reference."""
    if mu == 0.0:
        return 0
    if mu < 30.0:
        u = rng.random()
        p = math.exp(-mu)
        acc = p
        k = 0
        while u > acc and k < 1100:
            k += 1
            p *= mu / k
            acc += p
        return k
    log_mu = math.log(mu)
    b = 0.931 + 2.53 * math.sqrt(mu)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mu + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b) <= (
            k * log_mu - mu - math.lgamma(k + 1.0)
        ):
            return int(k)


@pytest.mark.parametrize("spare", [1, 2, 32])
def test_block_draw_reads_the_scalar_samplers_uniforms(monkeypatch, spare):
    # mixed means in one block, including zeros and ones that reject often;
    # a small spare makes the block grow mid-draw
    import templatefit.toys as toys

    monkeypatch.setattr(toys, "_SPARE", spare)
    rng = np.random.default_rng(99)
    for trial in range(40):
        mu = rng.choice([0.0, 0.3, 4.0, 29.9, 30.0, 45.0, 120.0, 900.0, 2.5e4], size=50)
        mu = (mu * rng.uniform(0.8, 1.2, size=50)).tolist()
        stream = rng_stream(7, trial)
        expected = [_reference_poisson(stream, m) for m in mu]
        assert _draws(rng_stream(7, trial), mu) == expected


class _Uniforms:
    """A generator stand-in that returns the given uniforms in order, then 0.5."""

    def __init__(self, values):
        self.values = list(values)

    def _next(self):
        return self.values.pop(0) if self.values else 0.5

    def random(self, size=None):
        if size is None:
            return self._next()
        return np.array([self._next() for _ in range(size)])


class TestInversionTables:
    @pytest.mark.parametrize("mu", [1e-300, 0.4, 12.0, 29.999])
    def test_table_draws_equal_the_search(self, mu):
        # u = 0, every entry itself and the floats on both sides of it, and
        # one above the last entry
        table = _inversion_table(mu)
        us = [0.0, 1.0]
        for entry in table:
            us += [entry, math.nextafter(entry, 0.0), math.nextafter(entry, 2.0)]
        us += np.random.default_rng(5).random(200).tolist()
        for u in us:
            assert _draws(_Uniforms([u]), [mu]) == [_reference_poisson(_Uniforms([u]), mu)], u

    @pytest.mark.parametrize("mu,u", [(10.0, 1.0), (12.0, 0.9999999999999999)])
    def test_a_uniform_above_a_saturated_sum_draws_the_cap(self, mu, u):
        # the sum stops short of u: the search runs to its cap
        assert u > _inversion_table(mu)[-1]
        assert _draws(_Uniforms([u]), [mu]) == [1100] == [_reference_poisson(_Uniforms([u]), mu)]

    def test_tables_stay_short(self):
        # without its stop, mu = 10's table would run to the cap: 1,101 entries
        assert _inversion_table(10.0)[-1] == 0.9999999999999999
        assert max(len(_inversion_table(mu)) for mu in np.linspace(0.01, 29.999, 300)) < 100

    def test_draws_after_other_configs_filled_the_cache(self):
        config = ToyConfig(seed=13, nbins=15, n_mc=70)
        for n_mc in (0, 5, 70, 300, 10000):
            draw_counts(ToyConfig(seed=2, nbins=15, n_mc=n_mc), range(3))
        counts = draw_counts(config, range(20))
        p_sig, p_bkg = config._shapes()
        means = np.concatenate([250.0 * p_sig, 750.0 * p_bkg, 70.0 * p_sig, 70.0 * p_bkg])
        for i, row in enumerate(counts):
            stream = rng_stream(13, i)
            expected = [_reference_poisson(stream, mu) for mu in means.tolist()]
            assert row.reshape(-1).tolist() == expected
