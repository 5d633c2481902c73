"""Ensemble runner: record bookkeeping, pull statistics, CSV determinism, timing."""

import dataclasses
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
        class Broken(tf.CostStack):
            def value_and_gradient(self, y):
                raise TypeError("bug inside the fit")

        monkeypatch.setattr(study, "CostStack", Broken)
        with pytest.raises(TypeError, match="bug inside the fit"):
            run_study(ToyConfig(seed=3), [100], 1, ["approx"])

    def test_value_errors_from_the_batch_propagate(self, monkeypatch):
        # a stack returns numeric failures per fit; a ValueError it raises is a bug
        class Broken(tf.CostStack):
            def value_and_gradient(self, y):
                raise ValueError("shape bug inside the batch")

        monkeypatch.setattr(study, "CostStack", Broken)
        with pytest.raises(ValueError, match="shape bug"):
            run_study(ToyConfig(seed=3), [100], 2, ["approx", "conway"])

    def test_exact_numeric_errors_recorded_and_bugs_propagate(self, monkeypatch):
        # each exact fit is a one-row stack fitted alone: a numeric error
        # fails only its toy's record, any other error propagates
        cfg = ToyConfig(seed=3)
        clean = run_study(cfg, [100], 2, ["exact"])
        toy = dataclasses.replace(cfg, n_mc=100)
        poisoned = tf.to_model(toy, tf.draw(toy, tf.rng_stream(3, 1))).norms
        error = FloatingPointError

        class Overflowing(tf.CostStack):
            def value_and_gradient(self, y):
                if (self._norms == poisoned).all():
                    raise error("in the exact fit")
                return super().value_and_gradient(y)

        monkeypatch.setattr(study, "CostStack", Overflowing)
        records = run_study(cfg, [100], 2, ["exact"])
        assert records[0] == clean[0] and clean[1].converged
        assert not records[1].converged and math.isnan(records[1].qmin)
        error = TypeError
        with pytest.raises(TypeError, match="in the exact fit"):
            run_study(cfg, [100], 2, ["exact"])

    def test_numeric_errors_recorded_as_not_converged(self, monkeypatch):
        # one fit overflows; only its record fails
        cfg = ToyConfig(seed=3)
        clean = run_study(cfg, [100], 3, ["approx", "conway"])
        toy = dataclasses.replace(cfg, n_mc=100)
        poisoned = tf.to_model(toy, tf.draw(toy, tf.rng_stream(3, 1))).norms
        built = []

        class Overflowing(tf.CostStack):
            @classmethod
            def from_counts(cls, method, data, templates):
                built.append((method, len(data)))  # one build for both methods, every toy a row
                return super().from_counts(method, data, templates)

            def value_and_gradient(self, y):
                # the approx fit of toy 1, alone or in a stack
                if self.method.value == "approx" and (self._norms == poisoned).all(-1).any():
                    raise FloatingPointError("overflow in the kernel")
                return super().value_and_gradient(y)

        monkeypatch.setattr(study, "CostStack", Overflowing)
        records = run_study(cfg, [100], 3, ["approx", "conway"])
        assert built == [("approx", 3)]
        for r, c in zip(records, clean):
            if (r.method, r.toy_index) == ("approx", 1):
                assert not r.converged and math.isnan(r.pull) and math.isnan(r.qmin)
            else:
                assert r.converged and r == c

    def test_pool_has_at_most_one_worker_per_chunk(self, monkeypatch):
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, fn, chunks):
                return map(fn, chunks)

        monkeypatch.setattr(study, "Pool", FakePool)
        records = run_study(ToyConfig(seed=3), [100], 3, ["approx"], jobs=8)
        assert sizes == [3]  # one chunk per toy, three chunks
        assert records_to_csv(records) == records_to_csv(
            run_study(ToyConfig(seed=3), [100], 3, ["approx"])
        )

    def test_bad_inputs(self):
        cfg = ToyConfig(seed=1)
        with pytest.raises(ValueError):
            run_study(cfg, [100], 0, ["approx"])
        with pytest.raises(ValueError):
            run_study(cfg, [100], 1, ["bogus"])
        with pytest.raises(ValueError):
            run_study(cfg, [100], 1, ["approx", "approx"])
        # each toy would be fitted twice and counted twice by summarize
        with pytest.raises(ValueError, match="duplicate template sizes"):
            run_study(cfg, [50, 50], 3, ["approx"])

    @pytest.mark.parametrize(
        "grid, n_toys, jobs, match",
        [
            ([50.7], 1, 1, "n_mc must be an integer of at least 0, got 50.7"),
            ([100, -1], 1, 1, "n_mc must be an integer of at least 0, got -1"),
            ([], 1, 1, "at least one template size"),
            ([100], 2.0, 1, "n_toys must be an integer"),
            ([100], 1, 0, "jobs must be an integer of at least 1, got 0"),
        ],
    )
    def test_bad_inputs_fail_before_any_draw(self, monkeypatch, grid, n_toys, jobs, match):
        def draw(*args):
            raise AssertionError("a toy was drawn")

        monkeypatch.setattr(study, "draw_counts", draw)
        with pytest.raises(ValueError, match=match):
            run_study(ToyConfig(seed=1), grid, n_toys, ["approx"], jobs=jobs)

    def test_numpy_integer_sizes_are_recorded_as_ints(self):
        (r,) = run_study(ToyConfig(seed=1), np.array([50]), 1, ["approx"])
        assert type(r.n_mc) is int and r.n_mc == 50


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

    def test_headers_are_the_field_names(self):
        assert RECORDS_HEADER.split(",") == [f.name for f in dataclasses.fields(PullRecord)]
        assert SUMMARY_HEADER.split(",") == [f.name for f in dataclasses.fields(study.PullStats)]

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
        times = bench(model, ["approx", "conway"], repetitions=3)
        assert set(times) == {"approx", "conway"}
        assert all(t > 0 for t in times.values())

    def test_methods_timed_round_robin(self, monkeypatch):
        calls = []
        monkeypatch.setattr(study, "fit", lambda model, m: calls.append(m))
        bench(None, ["approx", "conway"], repetitions=3)
        assert calls == ["approx", "conway"] * 5  # two warm-up rounds, three timed

    def test_repetitions_validated(self):
        cfg = ToyConfig(seed=12, nbins=5)
        model = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(12, 0)))
        with pytest.raises(ValueError):
            bench(model, ["approx"], repetitions=2)
