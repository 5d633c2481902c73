"""Lockstep fits: a batch of many equals batches of one, field for field and bit for bit.

``minimize_batch`` steps the fits of one method in lockstep on a
``CostStack``, whatever their active-bin counts; ``minimize`` runs a batch
of one through the cost function's own methods.  A fit's result must not
depend on the fits stacked with it, which rests on every stacked row of
the kernels (padded bins included) and of the minimizer's arithmetic
equalling the single call bit for bit.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import templatefit as tf
from templatefit import (
    BinnedSample,
    CostFunction,
    CostStack,
    FitResult,
    TemplateModel,
    default_start,
    minimize,
    minimize_batch,
    run_study,
)
from templatefit.likelihood import Method
from templatefit.minimize import _Counted, _Stacked
from templatefit.study import records_to_csv

METHODS = [("approx", False), ("approx", True), ("conway", False), ("conway", True)]


def _models(seed: int, n_mc: int, n: int) -> list[TemplateModel]:
    cfg = tf.ToyConfig(seed=seed, n_mc=n_mc)
    return [tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(seed, i))) for i in range(n)]


def _weighted(model: TemplateModel, rng) -> TemplateModel:
    """The model with every bin's entries carrying one weight drawn around 1."""

    def reweight(sample):
        w = rng.uniform(0.5, 1.5, sample.nbins)
        return BinnedSample(sample.sumw * w, sample.sumw * w * w)

    return TemplateModel(
        edges=model.edges,
        data=reweight(model.data),
        components=tuple(reweight(c) for c in model.components),
    )


def _costs(method: str, weighted: bool, n_mc: int, n: int = 40, seed: int = 31) -> list:
    models = _models(seed, n_mc, n)
    if weighted:
        rng = np.random.default_rng(seed)
        models = [_weighted(m, rng) for m in models]
    return [CostFunction(method, m, weighted=weighted) for m in models]


def _bits(value) -> bytes:
    a = np.asarray(value)
    return repr((a.shape, a.dtype.str)).encode() + a.tobytes()


def assert_same_result(batch: FitResult, single: FitResult) -> None:
    """Every field equal bit for bit: floats by float.hex, arrays by their bytes."""
    assert type(batch) is FitResult and type(single) is FitResult
    for field in dataclasses.fields(FitResult):
        a, b = getattr(batch, field.name), getattr(single, field.name)
        if field.name == "betas":
            assert _bits(a.beta) == _bits(b.beta)
            assert _bits(a.contributions) == _bits(b.contributions)
        elif isinstance(b, np.ndarray) or isinstance(a, np.ndarray):
            assert _bits(a) == _bits(b), field.name
        elif isinstance(b, float):
            assert type(a) is float and float.hex(a) == float.hex(b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


@pytest.mark.parametrize("method,weighted", METHODS)
@pytest.mark.parametrize("n_mc", [50, 10000])
def test_batch_equals_batches_of_one(method, weighted, n_mc):
    costs = _costs(method, weighted, n_mc)
    if n_mc == 50:  # small templates leave bins empty, so the stack is ragged
        assert len({c.nbins_active for c in costs}) > 2
    passes = []
    stacked = CostStack.value_and_gradient

    def counting(self, y):
        passes.append(len(y))
        return stacked(self, y)

    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("error")
        patch.setattr(CostStack, "value_and_gradient", counting)
        batch = minimize_batch(costs)
    # the fits ran in one stack, not one by one
    assert passes[0] == len(costs)
    assert len(passes) < sum(r.n_evaluations for r in batch) / 4
    for cost, result in zip(costs, batch):
        assert_same_result(result, minimize(cost))


class _RaisesAtStart(CostFunction):
    def value_and_gradient(self, params):
        raise ValueError("cost is not finite at the start point")


def test_bound_restart_stall_budget_and_failed_starts_in_one_batch():
    costs = _costs("conway", False, 50) + _costs("approx", False, 50, seed=32)
    # a small-template toy whose Conway signal yield pins at zero
    on_bound = CostFunction("conway", _models(101_000_000, 50, 3)[2])
    # data so large that the equal split of its total overflows
    with np.errstate(over="ignore"):
        huge = TemplateModel(
            edges=np.arange(3.0),
            data=BinnedSample.from_counts([1e308, 1e308]),
            components=(BinnedSample.from_counts([3, 1]), BinnedSample.from_counts([1, 4])),
        )
        not_finite = CostFunction("approx", huge)
    raising = _RaisesAtStart("approx", costs[0].model)
    costs = costs[:20] + [on_bound, not_finite] + costs[20:60] + [raising] + costs[60:]

    statuses = set()
    restarts = 0
    # at gtol 1e-12 many fits restart and some stall; 12 calls stop others early
    for options in (dict(gtol=1e-12), dict(max_calls=12), dict()):
        with np.errstate(over="ignore"):  # the total of the huge data
            batch = minimize_batch(costs, **options)
        for cost, result in zip(costs, batch):
            if cost is not_finite or cost is raising:
                assert isinstance(result, ValueError)
                with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore"):
                    minimize(cost, **options)
                continue
            single = minimize(cost, **options)
            assert_same_result(result, single)
            statuses.add(result.status)
            restarts += result.restarted
    assert {"converged", "on_bound", "stalled", "budget"} <= statuses
    assert restarts > 0


def test_a_large_batch_is_stacked_chunk_by_chunk(monkeypatch):
    # no stack holds more than its share of per-bin elements, so a batch of
    # wide costs never holds a padded copy of all of them at once
    costs = _costs("approx", False, 10000, n=20)
    sizes = []
    build = CostStack.__init__

    def counting(self, group):
        sizes.append(len(group))
        build(self, group)

    monkeypatch.setattr(CostStack, "__init__", counting)
    monkeypatch.setitem(minimize_batch.__globals__, "_STACK_ELEMENTS", 2 * 15 * 6)
    results = minimize_batch(costs)
    assert sizes == [6, 6, 6, 2]
    for cost, result in zip(costs, results):
        assert_same_result(result, minimize(cost))


def test_a_stack_whose_fits_all_end_on_the_bound():
    # none of them has a Hessian to take
    model = _models(101_000_000, 50, 3)[2]
    costs = [CostFunction("conway", model) for _ in range(3)]
    for result, cost in zip(minimize_batch(costs), costs):
        assert result.status == "on_bound"
        assert_same_result(result, minimize(cost))


def test_a_stack_that_raises_reruns_its_fits_one_by_one(monkeypatch):
    costs = _costs("approx", False, 10000, n=12)

    def broken(self, y):
        raise FloatingPointError("overflow in one row")

    singles = [minimize(c) for c in costs]
    monkeypatch.setattr(CostStack, "value_and_gradient", broken)
    for result, single in zip(minimize_batch(costs), singles):
        assert_same_result(result, single)


@pytest.mark.parametrize("error", [TypeError, ValueError])
def test_programming_errors_in_a_stack_propagate(monkeypatch, error):
    # a plain ValueError inside a stack is a shape bug, not a numeric failure
    def broken(self, y):
        raise error("bug in the stack")

    monkeypatch.setattr(CostStack, "value_and_gradient", broken)
    with pytest.raises(error, match="bug in the stack"):
        minimize_batch(_costs("approx", False, 10000, n=4))


def test_batch_options_validated():
    costs = _costs("approx", False, 50, n=2)
    with pytest.raises(ValueError, match="gtol"):
        minimize_batch(costs, gtol=0.0)
    with pytest.raises(ValueError, match="max_calls"):
        minimize_batch(costs, max_calls=0)
    assert minimize_batch([]) == []


def _yield_rows(costs, rng) -> np.ndarray:
    """Yields inside the domain, on the bound, and outside it (NaN, inf, negative)."""
    Y = rng.uniform(0.0, 900.0, (len(costs), costs[0].nparams))
    kind = np.arange(len(costs)) % 7
    Y[kind == 1, 0] = 0.0  # dead Conway bins where the signal template fills a bin alone
    Y[kind == 2, 1] = 0.0
    Y[kind == 3, 0] = np.nan
    Y[kind == 4, 1] = np.inf
    Y[kind == 5, 0] = -2.0
    Y[kind == 6] = 0.0  # every bin dead, pad bins too
    return Y


def _assert_rows_equal_single_calls(costs, stack, Y) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, gradients = stack.value_and_gradient(Y)
        hessians = stack.hessian(Y)
    K = costs[0].nparams
    assert values.shape == (len(costs),) and hessians.shape == (len(costs), K, K)
    for cost, y, v, g, H in zip(costs, Y, values, gradients, hessians):
        if not (np.isfinite(y).all() and (y >= 0.0).all()):
            assert v == math.inf and np.isnan(g).all() and np.isnan(H).all()
            continue
        v1, g1 = cost.value_and_gradient(y)
        assert float.hex(float(v)) == float.hex(v1) == float.hex(cost(y))
        assert _bits(g) == _bits(g1)
        assert _bits(H) == _bits(cost.hessian(y))


@pytest.mark.parametrize("method,weighted", METHODS)
def test_stacked_derivatives_equal_single_calls(method, weighted):
    # rows of every active-bin count in one stack: the pad bins and the
    # reductions over each row's own bins (one dot or gemv per row, a gemm
    # per Hessian, on strided slices) must reproduce the single calls bit
    # for bit, in row order and sorted by count
    costs = _costs(method, weighted, 50, n=60, seed=5)
    counts = [c.nbins_active for c in costs]
    assert len(set(counts)) > 2
    rng = np.random.default_rng(6)
    Y = _yield_rows(costs, rng)
    order = np.argsort(counts, kind="stable")
    for rows in (np.arange(len(costs)), order):
        group = [costs[i] for i in rows]
        stack = CostStack(group)
        _assert_rows_equal_single_calls(group, stack, Y[rows])
        # a stack of some of the costs, across counts, gives their rows
        some = np.arange(len(costs))[::3]
        _assert_rows_equal_single_calls([group[i] for i in some], stack.take(some), Y[rows][some])
    # the rows of the widest count leave: the stack narrows to the rest
    narrow = order[: counts.count(min(counts)) + 2]
    _assert_rows_equal_single_calls(
        [costs[i] for i in narrow], CostStack(costs).take(narrow), Y[narrow]
    )


def _small_template_costs(method: str, weighted: bool, n: int = 40) -> list:
    """Costs of 15-bin toys with five-entry templates; toys with an empty template are skipped."""
    cfg = tf.ToyConfig(seed=5, n_mc=5)
    models = []
    for i in range(4 * n):
        try:
            models.append(tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(cfg.seed, i))))
        except ValueError:
            continue
    models = models[:n]
    if weighted:
        rng = np.random.default_rng(5)
        models = [_weighted(m, rng) for m in models]
    return [CostFunction(method, m, weighted=weighted) for m in models]


@pytest.mark.parametrize("method,weighted", METHODS)
def test_start_scaling_equal_in_stack_and_alone(method, weighted):
    # small templates leave start Hessians with diagonal entries that are
    # not positive; the expected curvature that stands in there must come
    # out of a stack row bit for bit as out of the cost alone, and rows
    # whose diagonal is positive keep its inverse
    costs = _small_template_costs(method, weighted)
    assert len({c.nbins_active for c in costs}) > 2
    X = np.array([default_start(c) for c in costs])
    lower = np.zeros(costs[0].nparams)
    d2 = np.array([np.diag(c.hessian(x)) for c, x in zip(costs, X)])
    bad = d2 <= 0.0
    assert 0 < np.count_nonzero(bad.any(axis=-1)) < len(costs)
    stack = CostStack(costs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, hinv0 = _Stacked(stack).start(X, lower)
        expected = stack._expected_curvature(X)
    for cost, x, row, e, d, b in zip(costs, X, hinv0, expected, d2, bad):
        _, _, alone = _Counted(cost).start(x[None], lower)
        assert _bits(row) == _bits(alone[0])
        assert _bits(e) == _bits(cost._expected_curvature(x))
        assert (e > 0.0).all()
        assert _bits(row) == _bits(1.0 / np.where(b, e, d))


def test_stack_needs_matching_profiled_costs():
    approx = _costs("approx", False, 10000, n=3)
    model = approx[1].model
    with pytest.raises(ValueError, match="stack"):
        CostStack([approx[0], CostFunction("conway", model)])
    with pytest.raises(ValueError, match="stack"):
        CostStack([approx[0], CostFunction("approx", model, weighted=True)])
    three = TemplateModel(
        edges=model.edges, data=model.data, components=(*model.components, model.components[0])
    )
    with pytest.raises(ValueError, match="stack"):
        CostStack([approx[0], CostFunction("approx", three)])
    with pytest.raises(ValueError, match="stack"):
        CostStack([CostFunction("exact", approx[0].model)] * 2)
    # a cost of 3 active bins stacks with ones of 15
    narrow = _models(4, 50, 1)[0]
    narrow = TemplateModel(
        edges=narrow.edges[:4],
        data=BinnedSample.from_counts(narrow.data.sumw[:3]),
        components=tuple(BinnedSample.from_counts(c.sumw[:3] + 1.0) for c in narrow.components),
    )
    costs = [approx[0], CostFunction("approx", narrow), approx[2]]
    assert [c.nbins_active for c in costs] == [15, 3, 15]
    Y = np.array([[240.0, 760.0], [30.0, 20.0], [0.0, 800.0]])
    _assert_rows_equal_single_calls(costs, CostStack(costs), Y)


def test_exact_runs_as_batches_of_one():
    models = _models(4, 10000, 2)
    costs = [CostFunction("exact", m) for m in models] + [CostFunction("approx", models[0])]
    for cost, result in zip(costs, minimize_batch(costs)):
        assert_same_result(result, minimize(cost))
    assert costs[0].method is Method.EXACT


def test_study_records_equal_single_fits():
    # the records do not depend on the batch a fit ran in, nor on the workers
    cfg = tf.ToyConfig(seed=101_000_000)
    records = run_study(cfg, [50, 10000], 12, ["approx", "conway"])
    by_key = {(r.method, r.n_mc, r.toy_index): r for r in records}
    for n_mc in (50, 10000):
        for i, model in enumerate(_models(cfg.seed, n_mc, 12)):
            for method in ("approx", "conway"):
                r = by_key[(method, n_mc, i)]
                result = tf.fit(model, method)
                assert float.hex(r.signal_estimate) == float.hex(float(result.yields[0]))
                assert float.hex(r.qmin) == float.hex(result.qmin)
                assert r.converged == result.converged
                if result.converged:
                    assert float.hex(r.signal_error) == float.hex(float(result.yield_errors[0]))
    assert records_to_csv(records) == records_to_csv(
        run_study(cfg, [50, 10000], 12, ["approx", "conway"], jobs=2)
    )


def _counts(costs) -> tuple[np.ndarray, np.ndarray]:
    data = np.array([c.model.data.sumw for c in costs])
    return data, np.array([c.model.component_sumw() for c in costs])


@pytest.mark.parametrize("method", ["approx", "conway"])
@pytest.mark.parametrize("n_mc", [50, 10000])
def test_stack_from_counts_equals_stack_of_costs(method, n_mc):
    # at n_mc=50 the rows hold many active-bin counts, unsorted
    costs = _costs(method, False, n_mc, n=30, seed=7)
    stack = CostStack.from_counts(method, *_counts(costs))
    reference = CostStack(costs)
    for name in ("_norms", "_counts", *CostStack._BIN_FIELDS):
        assert _bits(getattr(stack, name)) == _bits(getattr(reference, name)), name
    Y = _yield_rows(costs, np.random.default_rng(8))
    _assert_rows_equal_single_calls(costs, stack, Y)


def test_stack_from_counts_rejects_what_a_model_rejects():
    data, templates = _counts(_costs("approx", False, 50, n=3))
    with pytest.raises(ValueError, match="stack"):
        CostStack.from_counts("exact", data, templates)
    with pytest.raises(ValueError, match="expected"):
        CostStack.from_counts("approx", data[:2], templates)
    with pytest.raises(ValueError, match="expected"):
        CostStack.from_counts("approx", data, templates[:, :0])
    for bad in (-1.0, np.nan, np.inf):
        broken = data.copy()
        broken[1, 3] = bad
        with pytest.raises(ValueError, match="finite and nonnegative"):
            CostStack.from_counts("approx", broken, templates)
    empty = templates.copy()
    empty[2, 1] = 0.0
    with pytest.raises(ValueError, match="entries"):
        CostStack.from_counts("approx", data, empty)


@pytest.mark.parametrize("method", ["approx", "conway"])
def test_an_empty_stack_gives_empty_arrays(method):
    costs = _costs(method, False, 50, n=3)
    data, templates = _counts(costs)
    for stack in (CostStack(costs).take([]), CostStack.from_counts(method, data[:0], templates[:0])):
        assert len(stack) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, gradients = stack.value_and_gradient(np.empty((0, 2)))
            hessians = stack.hessian(np.empty((0, 2)))
        assert values.shape == (0,) and gradients.shape == (0, 2) and hessians.shape == (0, 2, 2)
    assert tf.minimize_stack(CostStack(costs).take([]), np.empty((0, 2))) == []


@pytest.mark.parametrize("method", ["approx", "conway"])
def test_minimize_stack_rows_equal_minimize(method):
    # unsorted rows of many active-bin counts, stacked in chunks of a few rows
    costs = _costs(method, False, 50, n=40, seed=9)
    stack = CostStack.from_counts(method, *_counts(costs))
    assert np.count_nonzero(np.diff(stack.nbins_active) < 0)
    start = np.array([tf.default_start(c) for c in costs])
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(tf.minimize_stack.__globals__, "_STACK_ELEMENTS", 2 * 15 * 8)
        ends = tf.minimize_stack(stack, start)
    statuses = set()
    for cost, end in zip(costs, ends):
        single = minimize(cost)
        statuses.add(single.status)
        assert _bits(end.point) == _bits(single.yields)
        for field in tf.Minimum._fields[1:]:
            a, b = getattr(end, field), getattr(single, field)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                assert _bits(a) == _bits(b), field
            elif isinstance(b, float):
                assert type(a) is float and float.hex(a) == float.hex(b), field
            else:
                assert type(a) is type(b) and a == b, field
    assert "converged" in statuses
    with pytest.raises(ValueError, match="shape"):
        tf.minimize_stack(stack, start[1:])
