"""run_study's chunks against per-toy fits: every record equal bit for bit.

A chunk draws its toys as one array of counts, builds one ``CostStack``
per profiled method straight from them and writes the records from the
minima; ``exact`` builds each toy's model.  The reference here is the
path that builds everything per toy: ``draw`` -> ``to_model`` -> ``fit``,
with the record written from the ``FitResult``.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import templatefit as tf
import templatefit.study as study
from templatefit import CostStack, PullRecord, ToyConfig, run_study

GRID = [0, 1, 5, 50, 10000]

def _reference(config: ToyConfig, n_mc: int, toy_index: int, method: str) -> PullRecord:
    cfg = dataclasses.replace(config, n_mc=n_mc)
    toy = tf.draw(cfg, tf.rng_stream(cfg.seed, toy_index))
    nan = float("nan")
    try:
        result = tf.fit(tf.to_model(cfg, toy), method)
    except (ValueError, ArithmeticError):
        return PullRecord(method, n_mc, toy_index, nan, nan, nan, nan, False)
    est = float(result.yields[0])
    err = pull = nan
    if result.converged:
        err = float(result.yield_errors[0])
        pull = (est - cfg.signal_yield) / err
    return PullRecord(method, n_mc, toy_index, est, err, pull, float(result.qmin), result.converged)


def _bits(record: PullRecord) -> tuple:
    return tuple(
        float.hex(v) if isinstance(v, float) else (type(v), v) for v in dataclasses.astuple(record)
    )


def _assert_records_equal_reference(config, grid, n_toys, methods, records) -> None:
    keys = [(m, n_mc, i) for m in sorted(methods) for n_mc in sorted(grid) for i in range(n_toys)]
    assert [(r.method, r.n_mc, r.toy_index) for r in records] == keys
    for r in records:
        assert _bits(r) == _bits(_reference(config, r.n_mc, r.toy_index, r.method)), r


@pytest.mark.parametrize("nbins", [3, 15, 100])
def test_profiled_records_equal_per_toy_fits(nbins):
    config = ToyConfig(seed=23, nbins=nbins)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_study(config, GRID, 6, ("approx", "conway"))
    _assert_records_equal_reference(config, GRID, 6, ("approx", "conway"), records)
    # toys without a model (an empty template) next to fitted ones
    assert all(math.isnan(r.qmin) for r in records if r.n_mc == 0)
    small = [math.isnan(r.qmin) for r in records if r.n_mc in (1, 5)]
    assert any(small) and not all(small)


@pytest.mark.parametrize("nbins", [3, 15, 100])
def test_exact_records_equal_per_toy_fits(nbins):
    config = ToyConfig(seed=29, nbins=nbins)
    records = run_study(config, GRID, 2, ("exact",))
    _assert_records_equal_reference(config, GRID, 2, ("exact",), records)


def test_records_do_not_depend_on_jobs():
    config = ToyConfig(seed=31, nbins=15)
    methods = ("approx", "conway", "exact")
    one = run_study(config, [0, 50, 10000], 3, methods)
    two = run_study(config, [0, 50, 10000], 3, methods, jobs=2)
    assert [_bits(r) for r in two] == [_bits(r) for r in one]
    _assert_records_equal_reference(config, [0, 50, 10000], 3, methods, one)


def test_a_failing_stack_row_fails_only_its_own_record(monkeypatch):
    # a floating-point error in one row makes its stack refit row by row
    config = ToyConfig(seed=37, nbins=15)
    clean = run_study(config, [50, 10000], 6, ("approx", "conway"))
    cfg = dataclasses.replace(config, n_mc=50)
    poisoned = tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(cfg.seed, 4))).norms
    stacks = []

    class Overflowing(CostStack):
        @classmethod
        def from_counts(cls, method, data, templates):
            stacks.append(len(data))
            return super().from_counts(method, data, templates)

        def value_and_gradient(self, y):
            if self.method.value == "conway" and (self._norms == poisoned).all(-1).any():
                raise FloatingPointError("overflow in one row")
            return super().value_and_gradient(y)

    monkeypatch.setattr(study, "CostStack", Overflowing)
    records = run_study(config, [50, 10000], 6, ("approx", "conway"))
    assert len(stacks) == 1 and stacks[0] > 6  # both grid points in one build for both methods
    for r, c in zip(records, clean):
        if (r.method, r.n_mc, r.toy_index) == ("conway", 50, 4):
            assert not r.converged and math.isnan(r.qmin) and math.isnan(r.signal_estimate)
        else:
            assert _bits(r) == _bits(c)
