"""Tests of the benchmark itself: metric names, the correctness gate, the digest.

Run from the repository root with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import gate, workloads  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench.measure import KERNEL_S, HostClock, Log, replay  # noqa: E402
from perfbench.workloads import Ensemble, Wide, make_workload  # noqa: E402
from templatefit import ToyConfig, draw, fit, rng_stream, to_model  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small(name: str, seed: int):
    """The workload cut to one batch of two toys or models, for a quick run."""
    if name == "wide-weighted":
        small = Wide(seed)
        small.batches = 1
        small.tasks = lambda batch: Wide.tasks(small, batch)[:2]
        return small
    return dataclasses.replace(make_workload(name, seed), toys_per_batch=1, batches=1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_printed_metrics_are_declared(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "make_workload", _small)
    code = bench.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _toy_model(n_mc: int = 50, index: int = 0):
    config = ToyConfig(seed=11, n_mc=n_mc)
    return to_model(config, draw(config, rng_stream(config.seed, index)))


def test_gate_passes_a_fit_and_fails_perturbed_ones():
    model = _toy_model()
    result = fit(model, "approx")
    assert result.converged
    assert gate.check_fit(model, "approx", False, result).problems == ()

    higher = dataclasses.replace(result, qmin=result.qmin + 1e-3)
    assert any("exceeds the reference" in p for p in gate.check_fit(model, "approx", False, higher).problems)

    moved = dataclasses.replace(result, yields=result.yields + result.yield_errors)
    assert any("yield errors" in p for p in gate.check_fit(model, "approx", False, moved).problems)

    wrong_ndof = dataclasses.replace(result, ndof=result.ndof + 1)
    assert any("ndof" in p for p in gate.check_fit(model, "approx", False, wrong_ndof).problems)

    no_errors = dataclasses.replace(result, yield_errors=np.array([np.nan, 1.0]))
    assert any("non-finite" in p for p in gate.check_fit(model, "approx", False, no_errors).problems)


def _ensemble_digest(seed: int) -> str:
    return gate.digest(Ensemble("ensemble-fast", ("approx", "conway"), 2, 1, seed).study(0))


def _wide_digest(seed: int) -> str:
    workload = Wide(seed)
    return gate.digest(replay(workload, workload.tasks(0)[:2], Log(), HostClock(), count=False))


@pytest.mark.parametrize("digest_of", [_ensemble_digest, _wide_digest])
def test_digest_repeats_for_a_seed_and_changes_with_it(digest_of):
    first = digest_of(1)
    assert digest_of(1) == first
    assert digest_of(2) != first


def test_host_clock_scales_by_the_probes_around_a_call():
    clock = HostClock()
    clock.starts, clock.ends = [0.0, 10.0, 20.0], [1.0, 11.0, 21.0]
    clock.kernel_s = [1e-3, 0.5e-3, 2e-3]
    assert clock.scale(2.0, 9.0) == pytest.approx(2 * KERNEL_S / 1.5e-3)
    assert clock.scale(12.0, 15.0) == pytest.approx(2 * KERNEL_S / 2.5e-3)
    assert clock.scale(2.0, 15.0) == pytest.approx(2 * KERNEL_S / 3e-3)
