"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy toy ensembles are shared between criteria through module-scoped
fixtures.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines as they complete; the full suite (``pytest``) takes
about 85 s on one core of a shared 2-vCPU x86-64 VM.
"""

import time

import numpy as np
import pytest
from scipy import stats

import templatefit as tf
from templatefit import (
    BinnedSample,
    CostFunction,
    TemplateModel,
    ToyConfig,
    fit,
    run_study,
    summarize,
)
from templatefit.cli import main as cli_main
from templatefit.special import chi2_sf
from templatefit.study import bench

SEED = 1
N_TOYS = 1000


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _pull_stats(records, method, n_mc):
    (s,) = [g for g in summarize(records) if g.method == method and g.n_mc == n_mc]
    return s


@pytest.fixture(scope="module")
def grid_approx():
    cfg = ToyConfig(seed=SEED)
    return run_study(cfg, [500, 1000, 10000], N_TOYS, ["approx"])


@pytest.fixture(scope="module")
def heavy_10000():
    cfg = ToyConfig(seed=SEED)
    return run_study(cfg, [10000], N_TOYS, ["conway", "exact"])


@pytest.fixture(scope="module")
def all_nmc50():
    cfg = ToyConfig(seed=SEED)
    return run_study(cfg, [50], N_TOYS, ["approx", "conway", "exact"])


def test_criterion_1_score_equations():
    """The per-bin kernels' factors zero the per-bin score for 10^4 randomized bins in < 5 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = rng.uniform(0.0, 100.0, 10_000)
    a = rng.uniform(0.0, 100.0, 10_000)
    mu0 = rng.uniform(0.0, 100.0, 10_000)

    def qp(nn, mm):
        pos = nn > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(pos, nn * np.log(np.where(pos, mm / np.where(pos, nn, 1.0), 1.0)), 0.0)
        return 2.0 * (mm - nn - t)

    def kernel(method):
        # the per-bin kernel that fits run, on one row of 10^4 bins with data
        # n, pooled template content a and expectation mu0 at y = 1 (norm 1,
        # template row mu0); the template variance v = mu0^2/a makes V = 1/a
        cost = object.__new__(tf.CostStack)
        cost.method = tf.Method(method)
        cost._set_fields(np.ones(1), n, mu0[None], (mu0 * mu0 / a)[None], 1.0, a)
        return cost._approx(np.ones(1)) if method == "approx" else cost._conway(np.ones(1))

    # the central difference [f(b+h) - f(b-h)] / 2h is evaluated through its
    # exact algebraic form: the objective is a sum of terms linear in beta
    # plus logarithms, so the difference reduces to log1p with no subtractive
    # cancellation; naive evaluation hits its rounding floor (~1e-7) at the
    # small-beta corner points and cannot meet the 1e-8 bound there
    beta_a = kernel("approx")[0]
    h = 1e-6 * beta_a
    logdiff = np.log1p(2.0 * h / (beta_a - h)) / (2.0 * h)
    score_a = 2.0 * (mu0 + a) - 2.0 * (n + a) * logdiff
    q_a = qp(n, beta_a * mu0) + qp(a, beta_a * a)
    ok_a = np.abs(score_a) < 1e-8 * (1.0 + np.abs(q_a))

    _, beta_c, _, _, v, _ = kernel("conway")
    pos = beta_c > 0.0  # a zero root sits on the constraint, no score condition
    h = 1e-6 * beta_c[pos]
    logdiff = np.log1p(2.0 * h / (beta_c[pos] - h)) / (2.0 * h)
    score_c = (
        2.0 * mu0[pos]
        + 2.0 * (beta_c[pos] - 1.0) / v[pos]
        - 2.0 * n[pos] * logdiff
    )
    q_c = qp(n[pos], beta_c[pos] * mu0[pos]) + (beta_c[pos] - 1.0) ** 2 / v[pos]
    ok_c = np.abs(score_c) < 1e-8 * (1.0 + np.abs(q_c))

    elapsed = time.perf_counter() - t0
    ok = bool(np.all(ok_a) and np.all(ok_c) and elapsed < 5.0)
    _report(
        1,
        ok,
        f"score residuals max {np.max(np.abs(score_a)/(1+np.abs(q_a))):.2e} (approx), "
        f"{np.max(np.abs(score_c)/(1+np.abs(q_c))):.2e} (conway) vs 1e-8; "
        f"runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_2_single_component_equivalence():
    """Profiled approx and full exact minima agree for 100 random K=1 models."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_y = 0.0
    worst_q = 0.0
    for _ in range(100):
        nbins = int(rng.integers(5, 21))
        counts = rng.poisson(30.0, nbins).astype(float)
        tmpl = rng.poisson(8.0, nbins).astype(float)
        if tmpl.sum() == 0:
            tmpl[0] = 1.0
        if counts[tmpl > 0].sum() == 0:
            counts[np.argmax(tmpl)] = 5.0
        model = TemplateModel(
            edges=np.arange(nbins + 1, dtype=float),
            data=BinnedSample.from_counts(counts),
            components=(BinnedSample.from_counts(tmpl),),
        )
        ra = fit(model, "approx", gtol=1e-9)
        re = fit(model, "exact", gtol=1e-7)
        worst_y = max(worst_y, abs(ra.yields[0] - re.yields[0]) / max(ra.yields[0], 1e-12))
        worst_q = max(worst_q, abs(ra.qmin - re.qmin))
    elapsed = time.perf_counter() - t0
    ok = worst_y < 1e-6 and worst_q < 1e-6 and elapsed < 30.0
    _report(
        2,
        ok,
        f"max yield rel diff {worst_y:.2e} < 1e-6, max Q diff {worst_q:.2e} < 1e-6; "
        f"runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_3_pull_reproduction(grid_approx, heavy_10000):
    """Approx pulls contained at N_mc in {500,1000,10000}; methods agree at 10000."""
    lines = []
    ok = True
    for n_mc in (500, 1000, 10000):
        s = _pull_stats(grid_approx, "approx", n_mc)
        good = abs(s.mean_z) < 0.15 and abs(s.std_z - 1.0) < 0.15
        ok &= good
        lines.append(f"approx@{n_mc}: mean {s.mean_z:+.3f}, std {s.std_z:.3f}")
    sa = _pull_stats(grid_approx, "approx", 10000)
    sc = _pull_stats(heavy_10000, "conway", 10000)
    se = _pull_stats(heavy_10000, "exact", 10000)
    for x, y in ((sa, sc), (sa, se), (sc, se)):
        ok &= abs(x.mean_z - y.mean_z) < 0.1 and abs(x.std_z - y.std_z) < 0.1
    lines.append(
        f"at 10000: mean approx {sa.mean_z:+.3f} conway {sc.mean_z:+.3f} exact {se.mean_z:+.3f}, "
        f"std {sa.std_z:.3f}/{sc.std_z:.3f}/{se.std_z:.3f}"
    )
    _report(3, bool(ok), "; ".join(lines))


def test_criterion_4_small_template_robustness(all_nmc50):
    """At N_mc=50 the symmetric approximation stays convergent and contained."""
    sa = _pull_stats(all_nmc50, "approx", 50)
    sc = _pull_stats(all_nmc50, "conway", 50)
    se = _pull_stats(all_nmc50, "exact", 50)
    conv_rate = sa.n_converged / N_TOYS
    ok = conv_rate >= 0.95 and abs(sa.mean_z) < 0.3 and abs(sa.std_z - 1.0) < 0.3
    detail = (
        f"approx: conv {100*conv_rate:.1f}% (>=95%), mean {sa.mean_z:+.3f} (|.|<0.3), "
        f"std {sa.std_z:.3f} (|.-1|<0.3); reported conway: conv {sc.n_converged}, "
        f"mean {sc.mean_z:+.3f}, std {sc.std_z:.3f}; exact: conv {se.n_converged}, "
        f"mean {se.mean_z:+.3f}, std {se.std_z:.3f}"
    )
    _report(4, bool(ok), detail)


def test_criterion_5_timing():
    """Exact at least 5x slower than approx; approx within 10% of conway; gap grows with bins."""
    cfg15 = ToyConfig(seed=SEED, n_mc=100)
    model15 = tf.to_model(cfg15, tf.draw(cfg15, tf.rng_stream(SEED, 0)))
    t15 = bench(model15, ("exact", "conway", "approx"), repetitions=11)
    ratio15 = t15["exact"] / t15["approx"]

    cfg100 = ToyConfig(seed=SEED, nbins=100, n_mc=100)
    model100 = tf.to_model(cfg100, tf.draw(cfg100, tf.rng_stream(SEED, 0)))
    t100 = bench(model100, ("exact", "approx"), repetitions=11)
    ratio100 = t100["exact"] / t100["approx"]

    ok = ratio15 >= 5.0 and t15["approx"] <= 1.1 * t15["conway"] and ratio100 > ratio15
    _report(
        5,
        bool(ok),
        f"15-bin exact/approx {ratio15:.1f}x (>=5), approx/conway "
        f"{t15['approx']/t15['conway']:.2f} (<=1.1), 100-bin exact/approx "
        f"{ratio100:.1f}x > 15-bin ratio",
    )


def test_criterion_6_gof_calibration(grid_approx):
    """Mean qmin near ndof=13 and uniform p-values at N_mc=10000."""
    qmins = np.array(
        [r.qmin for r in grid_approx if r.n_mc == 10000 and r.converged]
    )
    mean_q = float(qmins.mean())
    pvals = np.array([chi2_sf(q, 13) for q in qmins])
    ks = stats.kstest(pvals, "uniform")
    ok = 12.5 <= mean_q <= 13.5 and ks.pvalue > 0.01
    _report(
        6,
        bool(ok),
        f"mean qmin {mean_q:.3f} in [12.5, 13.5] (ndof=13), "
        f"KS p-value {ks.pvalue:.3f} > 0.01 over {qmins.size} fits",
    )


def test_criterion_7_weighted_reduction():
    """Unit weights make the weighted costs equal the unweighted ones."""
    rng = np.random.default_rng(555)
    worst = 0.0
    beta_exact = True
    for _ in range(100):
        nbins = int(rng.integers(3, 16))
        n = rng.poisson(25.0, nbins).astype(float)
        c1 = rng.poisson(6.0, nbins).astype(float)
        c2 = rng.poisson(3.0, nbins).astype(float)
        if c1.sum() == 0:
            c1[0] = 1.0
        if c2.sum() == 0:
            c2[-1] = 1.0
        model = TemplateModel(
            edges=np.arange(nbins + 1, dtype=float),
            data=BinnedSample.from_counts(n),
            components=(BinnedSample.from_counts(c1), BinnedSample.from_counts(c2)),
        )
        y = rng.uniform(10.0, 400.0, 2)
        approx, conway = CostFunction("approx", model), CostFunction("conway", model)
        approx_w = CostFunction("approx", model, weighted=True)
        conway_w = CostFunction("conway", model, weighted=True)
        qa, da = approx(y), approx.diagnostics(y)
        qaw, daw = approx_w(y), approx_w.diagnostics(y)
        qc, qcw = conway(y), conway_w(y)
        if qa > 0:
            worst = max(worst, abs(qaw - qa) / qa)
        if qc > 0:
            worst = max(worst, abs(qcw - qc) / qc)
        # the weighted factor formula collapses to (n + a)/(mu0 + a) exactly
        sel = ~np.isnan(da.beta)
        beta_exact &= bool(np.array_equal(daw.beta[sel], da.beta[sel]))
    ok = worst < 1e-12 and beta_exact
    _report(
        7,
        bool(ok),
        f"max weighted/unweighted rel diff {worst:.2e} < 1e-12 over 100 models; "
        f"factor reduction exact: {beta_exact}",
    )


def test_criterion_8_determinism(tmp_path, capsys):
    """toy-study --seed 7 gives byte-identical CSVs across runs and job counts."""
    base = [
        "toy-study",
        "--seed",
        "7",
        "--n-toys",
        "20",
        "--n-mc",
        "50,200",
        "--methods",
        "approx,conway",
    ]
    outputs = []
    for tag, jobs in (("a", 1), ("b", 2), ("c", 1)):
        out = tmp_path / f"{tag}.csv"
        code = cli_main(base + ["--output", str(out), "--jobs", str(jobs)])
        assert code == 0
        outputs.append((out.read_bytes(), (tmp_path / f"{tag}.summary.csv").read_bytes()))
    capsys.readouterr()
    ok = all(o == outputs[0] for o in outputs[1:])
    _report(8, ok, f"3 runs (jobs 1/2/1), records {len(outputs[0][0])} bytes identical: {ok}")
