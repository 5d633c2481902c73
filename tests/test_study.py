"""Ensemble runner: record bookkeeping, pull statistics, CSV determinism, timing."""

import math

import numpy as np
import pytest

import templatefit as tf
import templatefit.study as study
from templatefit import PullRecord, ToyConfig, bench, run_study, summarize
from templatefit.study import RECORDS_HEADER, SUMMARY_HEADER, records_to_csv, stats_to_csv


def synth_record(method="approx", n_mc=100, idx=0, pull=0.0, converged=True):
    return PullRecord(
        method=method,
        n_mc=n_mc,
        toy_index=idx,
        signal_estimate=250.0 + pull,
        signal_error=1.0,
        pull=pull if converged else float("nan"),
        qmin=13.0,
        converged=converged,
    )


class TestRunStudy:
    def test_single_record(self):
        cfg = ToyConfig(seed=3)
        records = run_study(cfg, [100], 1, ["approx"])
        assert len(records) == 1
        r = records[0]
        assert (r.method, r.n_mc, r.toy_index) == ("approx", 100, 0)
        assert r.converged
        assert math.isfinite(r.pull)

    def test_record_count_and_order(self):
        cfg = ToyConfig(seed=3)
        records = run_study(cfg, [100, 200], 3, ["approx", "conway"])
        assert len(records) == 2 * 2 * 3
        keys = [(r.method, r.n_mc, r.toy_index) for r in records]
        assert keys == sorted(keys)

    def test_methods_share_toys(self):
        # both methods must fit the same draw: estimates differ, but the
        # data totals seen by each fit are identical by construction
        cfg = ToyConfig(seed=8)
        records = run_study(cfg, [1000], 5, ["approx", "conway"])
        by_method = {}
        for r in records:
            by_method.setdefault(r.method, []).append(r)
        for ra, rc in zip(by_method["approx"], by_method["conway"]):
            assert ra.toy_index == rc.toy_index
            # large templates: the two approximations nearly coincide
            assert ra.signal_estimate == pytest.approx(rc.signal_estimate, rel=0.05)

    def test_jobs_do_not_change_results(self):
        cfg = ToyConfig(seed=9)
        r1 = run_study(cfg, [100], 6, ["approx"], jobs=1)
        r2 = run_study(cfg, [100], 6, ["approx"], jobs=2)
        assert records_to_csv(r1) == records_to_csv(r2)

    def test_failures_recorded_not_raised(self):
        # n_mc=0 gives empty templates: every fit must fail gracefully
        cfg = ToyConfig(seed=9)
        records = run_study(cfg, [0], 3, ["approx", "exact"])
        assert len(records) == 6
        assert all(not r.converged for r in records)
        assert all(math.isnan(r.pull) for r in records)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug inside the fit")

        monkeypatch.setattr(study, "fit", broken)
        with pytest.raises(TypeError, match="bug inside the fit"):
            run_study(ToyConfig(seed=3), [100], 1, ["approx"])

    def test_numeric_errors_recorded_as_not_converged(self, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("cost is not finite at the start point")

        monkeypatch.setattr(study, "fit", failing)
        records = run_study(ToyConfig(seed=3), [100], 2, ["approx", "conway"])
        assert len(records) == 4
        assert all(not r.converged and math.isnan(r.pull) for r in records)

    def test_bad_inputs(self):
        cfg = ToyConfig(seed=1)
        with pytest.raises(ValueError):
            run_study(cfg, [100], 0, ["approx"])
        with pytest.raises(ValueError):
            run_study(cfg, [100], 1, ["bogus"])
        with pytest.raises(ValueError):
            run_study(cfg, [100], 1, ["approx", "approx"])


class TestSummarize:
    def test_all_zero_pulls(self):
        recs = [synth_record(idx=i, pull=0.0) for i in range(5)]
        (s,) = summarize(recs)
        assert s.mean_z == 0.0
        assert s.std_z == 0.0
        assert s.n_converged == 5

    def test_two_point_case(self):
        recs = [synth_record(idx=0, pull=-1.0), synth_record(idx=1, pull=1.0)]
        (s,) = summarize(recs)
        assert s.mean_z == pytest.approx(0.0, abs=1e-15)
        assert s.std_z == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert s.sem_mean == pytest.approx(math.sqrt(2.0) / math.sqrt(2.0), rel=1e-12)
        assert s.sem_std == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)

    def test_standard_normal_selftest(self):
        rng = np.random.default_rng(321)
        z = rng.standard_normal(1000)
        recs = [synth_record(idx=i, pull=float(v)) for i, v in enumerate(z)]
        (s,) = summarize(recs)
        assert abs(s.mean_z) < 3.0 / math.sqrt(1000.0)
        assert abs(s.std_z - 1.0) < 3.0 / math.sqrt(2000.0)

    def test_small_group_flagged_nan(self):
        recs = [synth_record(idx=0, pull=1.0), synth_record(idx=1, converged=False)]
        (s,) = summarize(recs)
        assert s.n_converged == 1
        assert math.isnan(s.mean_z)
        assert math.isnan(s.std_z)

    def test_groups_sorted(self):
        recs = [
            synth_record(method="exact", n_mc=100, idx=0),
            synth_record(method="approx", n_mc=200, idx=0),
            synth_record(method="approx", n_mc=100, idx=0),
        ]
        recs = recs + [synth_record(method=r.method, n_mc=r.n_mc, idx=1) for r in recs]
        stats = summarize(recs)
        keys = [(s.method, s.n_mc) for s in stats]
        assert keys == [("approx", 100), ("approx", 200), ("exact", 100)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCsv:
    def test_records_format(self):
        recs = [synth_record(idx=0, pull=0.123456789123)]
        text = records_to_csv(recs)
        lines = text.strip().split("\n")
        assert lines[0] == RECORDS_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "approx"
        assert fields[5] == "0.123456789"  # 9 significant digits
        assert fields[7] == "true"

    def test_nan_serialization(self):
        recs = [synth_record(idx=0, converged=False)]
        line = records_to_csv(recs).strip().split("\n")[1]
        assert ",nan," in line
        assert line.endswith("false")

    def test_summary_format(self):
        recs = [synth_record(idx=i, pull=float(i)) for i in range(3)]
        text = stats_to_csv(summarize(recs))
        lines = text.strip().split("\n")
        assert lines[0] == SUMMARY_HEADER
        assert lines[1].startswith("approx,100,3,1,")


class TestBench:
    def test_returns_positive_medians(self):
        cfg = ToyConfig(seed=12, nbins=5, n_mc=200)
        model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(12, 0)))
        times = bench(model, ["approx", "conway"], repetitions=3, warmup=1)
        assert set(times) == {"approx", "conway"}
        assert all(t > 0 for t in times.values())

    def test_repetitions_validated(self):
        cfg = ToyConfig(seed=12, nbins=5)
        model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(12, 0)))
        with pytest.raises(ValueError):
            bench(model, ["approx"], repetitions=2)
