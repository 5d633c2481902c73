"""Lockstep fits: a stack of many equals batches of one, field for field and bit for bit.

``_minimize_stacks`` steps the fits of one method in lockstep on a
``CostStack`` built from count arrays, whatever their active-bin counts;
``minimize`` fits a profiled cost function as a one-row stack that shares
its arrays.
A fit's result must not depend on the fits stacked with it, which rests
on every stacked row of the kernels (padded bins included) and of the
minimizer's arithmetic equalling the single call bit for bit.
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
    run_study,
)
from templatefit.minimize import _minimize_stacks, _Stacked
from templatefit.study import records_to_csv

PROFILED = ["approx", "conway"]


def _models(seed: int, n_mc: int, n: int) -> list[TemplateModel]:
    cfg = tf.ToyConfig(seed=seed, n_mc=n_mc)
    return [tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(seed, i))) for i in range(n)]


def _costs(method: str, n_mc: int, n: int = 40, seed: int = 31) -> list[CostFunction]:
    return [CostFunction(method, m) for m in _models(seed, n_mc, n)]


def _counts(costs) -> tuple[np.ndarray, np.ndarray]:
    data = np.array([c.model.data.sumw for c in costs])
    return data, np.array([c.model.component_sumw() for c in costs])


def _stack(costs) -> CostStack:
    """The stack of ``costs``, which share their method, built from their counts."""
    return CostStack.from_counts(costs[0].method, *_counts(costs))


def _fit_stack(stack: CostStack, start: np.ndarray, **options) -> list:
    """The ends of the rows of one stack, fitted by ``_minimize_stacks`` alone."""
    return _minimize_stacks([stack], [start], **options)[0]


def _starts(costs) -> np.ndarray:
    return np.array([default_start(c) for c in costs])


def _equal_splits(costs) -> np.ndarray:
    """The data total of each cost split equally over its yields: the point before the EM step."""
    return np.array([np.full(c.nparams, c.model.data.total / c.nparams) for c in costs])


def _bits(value) -> bytes:
    a = np.asarray(value)
    return repr((a.shape, a.dtype.str)).encode() + a.tobytes()


def assert_same_minimum(end, single) -> None:
    """A row of a stack's fit equals ``minimize``: each field but ``betas`` bit for bit, or
    the same error; the stacked row has no ``betas``."""
    if isinstance(single, Exception):
        assert type(end) is type(single) and str(end) == str(single)
        return
    assert type(end) is FitResult and type(single) is FitResult
    assert end.betas is None and single.betas is not None
    for field in dataclasses.fields(FitResult):
        if field.name == "betas":
            continue
        a, b = getattr(end, field.name), getattr(single, field.name)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert _bits(a) == _bits(b), field.name
        elif isinstance(b, float):
            assert type(a) is float and float.hex(a) == float.hex(b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


def _fields(end) -> tuple:
    """Every field of a result, arrays and floats by their bits, or an error's type and text."""
    if isinstance(end, Exception):
        return type(end), str(end)
    return tuple(
        _bits(v) if isinstance(v, np.ndarray) else float.hex(v) if isinstance(v, float) else v
        for v in dataclasses.astuple(end)
    )


def _minimize_or_error(cost, start, **options):
    """``minimize`` from ``start``, or the error of a stack row from there: a stack checks
    no start, so a start that ``minimize`` rejects fails where its cost is not finite."""
    try:
        return minimize(cost, start, **options)
    except ValueError as exc:
        if str(exc).startswith("start point must"):
            return ValueError("cost is not finite at the start point")
        return exc


@pytest.mark.parametrize("method", PROFILED)
@pytest.mark.parametrize("n_mc", [50, 10000])
def test_batch_equals_batches_of_one(method, n_mc):
    costs = _costs(method, n_mc)
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
        ends = _fit_stack(_stack(costs), _starts(costs))
    # the fits ran in one stack, not one by one
    assert passes[0] == len(costs)
    assert len(passes) < sum(end.n_evaluations for end in ends) / 4
    for cost, end in zip(costs, ends):
        single = minimize(cost)
        assert_same_minimum(end, single)
        assert tf.gof(end) == tf.gof(single)  # a stacked row carries its ndof


def _on_bound_model() -> TemplateModel:
    """A small-template toy whose Conway signal yield pins at zero."""
    return _models(101_000_000, 50, 3)[2]


def test_bound_restart_stall_budget_and_failed_starts_in_one_batch():
    def sample(*counts):
        sumw = np.zeros(15)
        sumw[: len(counts)] = counts
        return BinnedSample.from_counts(sumw)

    # 2 active bins next to rows of 15
    narrow = TemplateModel(
        edges=np.arange(16.0), data=sample(40, 10), components=(sample(3, 1), sample(1, 4))
    )
    # starts below the bound, not finite, and where the cost is infinite: each
    # fails its row alone
    bad = np.array([[-5.0, 500.0], [np.nan, 500.0], [0.0, 0.0]])
    statuses, errors = set(), set()
    restarts = 0
    for method, seed in (("conway", 31), ("approx", 32)):
        costs = [CostFunction(method, m) for m in _models(seed, 50, 60)]
        costs[20:20] = [CostFunction(method, _on_bound_model()), CostFunction(method, narrow)]
        starts = np.concatenate([_starts(costs), bad])
        costs += [costs[0]] * len(bad)
        stack = _stack(costs)
        # at gtol 1e-12 many fits restart and some stall; 12 calls stop others early
        for options in (dict(gtol=1e-12), dict(max_calls=12), dict()):
            ends = _fit_stack(stack, starts, **options)
            for cost, start, end in zip(costs, starts, ends):
                single = _minimize_or_error(cost, start, **options)
                assert_same_minimum(end, single)
                if isinstance(end, Exception):
                    errors.add(str(end))
                else:
                    statuses.add(end.status)
                    restarts += end.restarted
    assert {"converged", "on_bound", "stalled", "budget"} <= statuses
    assert restarts > 0
    assert errors == {"cost is not finite at the start point"}


def test_stacks_of_two_methods_in_one_loop_equal_each_stack_alone(monkeypatch):
    # an approx and a conway stack of the same counts share every round of
    # one loop; rows stop at many rounds, so stopped rows stay in their
    # stack for a while and a stack is narrowed once half its rows stopped
    narrow = TemplateModel(  # 2 active bins next to rows of 15
        edges=np.arange(16.0),
        data=BinnedSample.from_counts(np.r_[40.0, 10.0, np.zeros(13)]),
        components=(
            BinnedSample.from_counts(np.r_[3.0, 1.0, np.zeros(13)]),
            BinnedSample.from_counts(np.r_[1.0, 4.0, np.zeros(13)]),
        ),
    )
    models = _models(33, 50, 50) + [_on_bound_model(), narrow] + _models(34, 10000, 10)
    bad = np.array([[-5.0, 500.0], [np.nan, 500.0], [0.0, 0.0]])
    costs, stacks, starts = {}, [], []
    for method in PROFILED:
        costs[method] = [CostFunction(method, m) for m in models]
        starts.append(np.concatenate([_starts(costs[method]), bad]))
        costs[method] += [costs[method][0]] * len(bad)
        stacks.append(_stack(costs[method]))
    loops, narrowed, waiting = [], [], []
    build, keep = _Stacked.__init__, _Stacked.keep

    def counting(self, *stacks):
        loops.append(len(stacks))
        build(self, *stacks)

    def spying(self, rows):
        before = {id(seg): len(seg.stack) for seg in self._segments}
        keep(self, rows)
        narrowed.extend(seg for seg in self._segments if len(seg.stack) < before[id(seg)])
        waiting.extend(seg for seg in self._segments if seg.run is not None)

    monkeypatch.setattr(_Stacked, "__init__", counting)
    monkeypatch.setattr(_Stacked, "keep", spying)
    statuses, errors, restarts = set(), set(), 0
    for options in (dict(gtol=1e-12), dict(max_calls=12), dict()):
        loops.clear()
        together = _minimize_stacks(stacks, starts, **options)
        assert loops == [2]
        for method, stack, start, ends in zip(PROFILED, stacks, starts, together):
            alone = _fit_stack(stack, start, **options)
            assert [_fields(end) for end in ends] == [_fields(end) for end in alone]
            for cost, x, end in zip(costs[method], start, ends):
                assert_same_minimum(end, _minimize_or_error(cost, x, **options))
                if isinstance(end, Exception):
                    errors.add(str(end))
                else:
                    statuses.add(end.status)
                    restarts += end.restarted
    assert {"converged", "on_bound", "stalled", "budget"} <= statuses
    assert restarts > 0 and errors == {"cost is not finite at the start point"}
    assert len(narrowed) >= 2 and waiting


def test_a_large_batch_is_stacked_chunk_by_chunk(monkeypatch):
    # no stack holds more than its share of per-bin elements, so a batch of
    # wide fits never steps all of them at once
    costs = _costs("approx", 10000, n=20)
    sizes = []
    build = _Stacked.__init__

    def counting(self, stack):
        sizes.append(len(stack))
        build(self, stack)

    monkeypatch.setattr(_Stacked, "__init__", counting)
    monkeypatch.setitem(_minimize_stacks.__globals__, "_STACK_ELEMENTS", 2 * 15 * 6)
    ends = _fit_stack(_stack(costs), _starts(costs))
    assert sizes == [6, 6, 6, 2]
    for cost, end in zip(costs, ends):
        assert_same_minimum(end, minimize(cost))


def test_a_stack_whose_fits_all_end_on_the_bound():
    # none of them has a Hessian to take
    costs = [CostFunction("conway", _on_bound_model())] * 3
    for end, cost in zip(_fit_stack(_stack(costs), _starts(costs)), costs):
        assert end.status == "on_bound"
        assert_same_minimum(end, minimize(cost))


def test_a_stack_that_raises_reruns_its_fits_one_by_one(monkeypatch):
    # a floating-point error in one row fails that row's fit alone
    costs = _costs("approx", 10000, n=12)
    singles = [minimize(c) for c in costs]
    stack = _stack(costs)
    poisoned = stack._n[5]
    assert np.count_nonzero((stack._n == poisoned).all(axis=-1)) == 1
    stacked = CostStack.value_and_gradient

    def broken(self, y):
        if (self._n == poisoned).all(axis=-1).any():
            raise FloatingPointError("overflow in one row")
        return stacked(self, y)

    monkeypatch.setattr(CostStack, "value_and_gradient", broken)
    ends = _fit_stack(stack, _starts(costs))
    assert isinstance(ends[5], FloatingPointError)
    for end, single in zip(ends[:5] + ends[6:], singles[:5] + singles[6:]):
        assert_same_minimum(end, single)


@pytest.mark.parametrize("error", [TypeError, ValueError])
def test_programming_errors_in_a_stack_propagate(monkeypatch, error):
    # a plain ValueError inside a stack is a shape bug, not a numeric failure
    def broken(self, y):
        raise error("bug in the stack")

    costs = _costs("approx", 10000, n=4)
    monkeypatch.setattr(CostStack, "value_and_gradient", broken)
    with pytest.raises(error, match="bug in the stack"):
        _fit_stack(_stack(costs), _starts(costs))


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
        # the one-row stack of the cost's own arrays, which its fit runs
        v1, g1 = cost._stack.value_and_gradient(y[None])
        assert float.hex(float(v)) == float.hex(float(v1[0])) == float.hex(cost(y))
        assert _bits(g) == _bits(g1[0])
        assert _bits(H) == _bits(cost.hessian(y))


@pytest.mark.parametrize("method", PROFILED)
def test_stacked_derivatives_equal_single_calls(method):
    # rows of every active-bin count in one stack: the pad bins and the
    # reductions over each row's own bins (one dot or gemv per row, a gemm
    # per Hessian, on strided slices) must reproduce the single calls bit
    # for bit, in row order and sorted by count
    costs = _costs(method, 50, n=60, seed=5)
    counts = [c.nbins_active for c in costs]
    assert len(set(counts)) > 2
    Y = _yield_rows(costs, np.random.default_rng(6))
    order = np.argsort(counts, kind="stable")
    for rows in (np.arange(len(costs)), order):
        group = [costs[i] for i in rows]
        stack = _stack(group)
        _assert_rows_equal_single_calls(group, stack, Y[rows])
        # a stack of some of the rows, across counts, gives their values
        some = np.arange(len(costs))[::3]
        _assert_rows_equal_single_calls([group[i] for i in some], stack.take(some), Y[rows][some])
    # the rows of the widest count leave: the stack narrows to the rest
    narrow = order[: counts.count(min(counts)) + 2]
    _assert_rows_equal_single_calls(
        [costs[i] for i in narrow], _stack(costs).take(narrow), Y[narrow]
    )


def _three_bin_model(model: TemplateModel) -> TemplateModel:
    """``model`` with data and templates cut to the first 3 of its 15 bins."""
    first = np.arange(15) < 3
    return TemplateModel(
        edges=model.edges,
        data=BinnedSample.from_counts(np.where(first, model.data.sumw, 0.0)),
        components=tuple(
            BinnedSample.from_counts(np.where(first, c.sumw + 1.0, 0.0)) for c in model.components
        ),
    )


def test_a_three_bin_row_stacks_with_fifteen_bin_rows():
    # zero template bins leave one row 3 active bins, padded to 15 in the stack
    wide = _costs("approx", 10000, n=3)
    narrow = _three_bin_model(_models(4, 50, 1)[0])
    costs = [wide[0], CostFunction("approx", narrow), wide[2]]
    assert [c.nbins_active for c in costs] == [15, 3, 15]
    Y = np.array([[240.0, 760.0], [30.0, 20.0], [0.0, 800.0]])
    _assert_rows_equal_single_calls(costs, _stack(costs), Y)
    for cost, end in zip(costs, _fit_stack(_stack(costs), _starts(costs))):
        assert_same_minimum(end, minimize(cost))


@pytest.mark.parametrize("method", PROFILED)
def test_stacked_em_step_equals_default_start(method):
    # run_study's stacked start: the split of each toy's data total, one EM
    # step on, equals default_start of the toy's cost by bytes, whatever the
    # active-bin counts of the rows next to it
    wide = _costs(method, 50, n=6)
    narrow = [CostFunction(method, _three_bin_model(m)) for m in _models(7, 50, 4)]
    costs = [wide[0], narrow[0], narrow[1], wide[1], wide[2], narrow[2], wide[3], wide[4]]
    costs += [narrow[3], wide[5]]
    assert {3, 15} < {c.nbins_active for c in costs}
    data, templates = _counts(costs)
    split = np.repeat(np.add.reduce(data, axis=-1)[:, None] / 2, 2, axis=1)
    rows = CostStack.from_counts(method, data, templates)._em_step(split)
    for cost, row in zip(costs, rows):
        assert _bits(row) == _bits(default_start(cost))
    # a split that is not finite stays as it is
    split[1] = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = CostStack.from_counts(method, data, templates)._em_step(split)
    assert rows[1].tolist() == [math.inf, math.inf]
    assert _bits(rows[2]) == _bits(default_start(costs[2]))


def _small_template_costs(method: str, n: int = 40) -> list:
    """Costs of 15-bin toys with five-entry templates; toys with an empty template are skipped."""
    cfg = tf.ToyConfig(seed=5, n_mc=5)
    models = []
    for i in range(4 * n):
        try:
            models.append(tf.to_model(cfg, tf.draw(cfg, tf.rng_stream(cfg.seed, i))))
        except ValueError:
            continue
    return [CostFunction(method, m) for m in models[:n]]


@pytest.mark.parametrize("method", PROFILED)
def test_start_scaling_equal_in_stack_and_alone(method):
    # small templates leave start Hessians with diagonal entries that are
    # not positive; the expected curvature that stands in there must come
    # out of a stack row bit for bit as out of the cost alone, and rows
    # whose diagonal is positive keep its inverse
    costs = _small_template_costs(method)
    assert len({c.nbins_active for c in costs}) > 2
    # the EM step of the default start leaves no such diagonal entry here
    X = _equal_splits(costs)
    lower = np.zeros(costs[0].nparams)
    d2 = np.array([np.diag(c.hessian(x)) for c, x in zip(costs, X)])
    bad = d2 <= 0.0
    assert 0 < np.count_nonzero(bad.any(axis=-1)) < len(costs)
    stack = _stack(costs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, hinv0 = _Stacked(stack).start(X, lower)
        expected = stack._expected_curvature(X)
    for cost, x, row, e, d, b in zip(costs, X, hinv0, expected, d2, bad):
        _, _, alone = _Stacked(cost._stack).start(x[None], lower)
        assert _bits(row) == _bits(alone[0])
        assert _bits(e) == _bits(cost._stack._expected_curvature(x[None])[0])
        assert (e > 0.0).all()
        assert _bits(row) == _bits(1.0 / np.where(b, e, d))


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


@pytest.mark.parametrize("method", PROFILED)
@pytest.mark.parametrize("n_mc", [50, 10000])
def test_stack_from_counts_equals_stack_of_costs(method, n_mc):
    # at n_mc=50 the rows hold many active-bin counts, unsorted; every row
    # equals its cost function's single calls
    costs = _costs(method, n_mc, n=30, seed=7)
    stack = CostStack.from_counts(method, *_counts(costs))
    assert _bits(stack.nbins_active) == _bits(np.array([c.nbins_active for c in costs]))
    Y = _yield_rows(costs, np.random.default_rng(8))
    _assert_rows_equal_single_calls(costs, stack, Y)


def test_stack_from_counts_rejects_what_a_model_rejects():
    data, templates = _counts(_costs("approx", 50, n=3))
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
    huge = data.copy()
    huge[1, 3] = 1e308  # its n ln n overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            CostStack.from_counts("approx", huge, templates)


def test_stack_from_counts_rejects_templates_whose_total_squared_overflows():
    data, templates = _counts(_costs("conway", 50, n=3))
    huge = templates.copy()
    huge[1, 0] = 1e154  # a total of 1.5e155, whose square overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in PROFILED:
            with pytest.raises(ValueError, match="square overflows"):
                CostStack.from_counts(method, data, huge)


def _weighted_models(n: int, seed: int) -> list[TemplateModel]:
    """Weighted 12-bin models with two components, whose empty template bins differ."""
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(n):
        comps = rng.poisson(4.0, (2, 12)).astype(float)
        comps[:, rng.random(12) < 0.3] = 0.0
        comps[:, 0] += 1.0  # every template has entries
        dw = rng.poisson(15.0, 12) * rng.uniform(0.5, 1.5, 12)
        models.append(
            TemplateModel(
                edges=np.arange(13.0),
                data=BinnedSample(dw, dw * rng.uniform(0.8, 2.0, 12)),
                components=tuple(
                    BinnedSample(1.1 * c, c * rng.uniform(1.0, 2.0, 12)) for c in comps
                ),
            )
        )
    return models


@pytest.mark.parametrize("method", PROFILED)
def test_weighted_stack_rows_equal_weighted_costs(method):
    # the builder's weighted transform on a ragged stack: pad bins keep
    # n = 0, s = 1, v = 1 and a_eff = 1, and every row equals the weighted
    # cost function of its model by bytes
    models = _weighted_models(30, seed=11)
    costs = [CostFunction(method, m, weighted=True) for m in models]
    counts = np.array([c.nbins_active for c in costs])
    assert len(set(counts.tolist())) > 2
    stack, _ = CostStack._build(
        tf.Method(method),
        np.array([m.data.sumw for m in models]),
        np.array([m.component_sumw() for m in models]),
        np.array([m.data.sumw2 for m in models]),
        np.array([m.component_sumw2() for m in models]),
    )
    assert _bits(stack.nbins_active) == _bits(counts) and stack._runs is not None
    pad = np.arange(counts.max()) >= counts[:, None]
    assert (stack._n[pad] == 0.0).all() and (stack._s[pad] == 1.0).all()
    assert (stack._a_eff[pad] == 1.0).all()
    assert (np.moveaxis(stack._v, 1, 0)[:, pad] == 1.0).all()
    assert not stack._unit_s
    _assert_rows_equal_single_calls(costs, stack, _yield_rows(costs, np.random.default_rng(12)))


@pytest.mark.parametrize("method", PROFILED)
def test_an_empty_stack_gives_empty_arrays(method):
    data, templates = _counts(_costs(method, 50, n=3))
    for stack in (
        CostStack.from_counts(method, data, templates).take([]),
        CostStack.from_counts(method, data[:0], templates[:0]),
    ):
        assert len(stack) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, gradients = stack.value_and_gradient(np.empty((0, 2)))
            hessians = stack.hessian(np.empty((0, 2)))
        assert values.shape == (0,) and gradients.shape == (0, 2) and hessians.shape == (0, 2, 2)
        assert _fit_stack(stack, np.empty((0, 2))) == []


@pytest.mark.parametrize("method", PROFILED)
def test_minimize_stack_rows_equal_minimize(method):
    # unsorted rows of many active-bin counts, stacked in chunks of a few rows
    costs = _costs(method, 50, n=40, seed=9)
    stack = _stack(costs)
    assert np.count_nonzero(np.diff(stack.nbins_active) < 0)
    starts = _starts(costs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(_minimize_stacks.__globals__, "_STACK_ELEMENTS", 2 * 15 * 8)
        ends = _fit_stack(stack, starts)
    statuses = set()
    for cost, end in zip(costs, ends):
        single = minimize(cost)
        statuses.add(single.status)
        assert_same_minimum(end, single)
    assert "converged" in statuses
