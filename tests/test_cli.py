"""Command line behavior: exit codes, formats, determinism, stream discipline."""

import json
import subprocess
import sys

import numpy as np
import pytest

from templatefit import cli
from templatefit.cli import main


def write_input(tmp_path, obj, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def saturated_input():
    # data is an exact multiple of the single template
    return {
        "bin_edges": [0.0, 1.0, 2.0, 3.0],
        "data": {"sumw": [50, 30, 20]},
        "templates": [{"name": "only", "sumw": [25, 15, 10]}],
    }


class TestFit:
    def test_saturated_fit(self, tmp_path, capsys):
        path = write_input(tmp_path, saturated_input())
        code = main(["fit", "--input", path, "--method", "approx"])
        out = capsys.readouterr()
        assert code == 0
        payload = json.loads(out.out)
        assert payload["converged"] and payload["status"] == "converged"
        # the default start is the minimum: no step, no restart
        assert payload["n_iterations"] == 0 and payload["restarted"] is False
        assert payload["qmin"] == pytest.approx(0.0, abs=1e-9)
        assert payload["p_value"] == pytest.approx(1.0, abs=1e-9)
        assert payload["yields"][0] == pytest.approx(100.0, rel=1e-9)
        assert payload["ndof"] == 2

    def test_output_file(self, tmp_path, capsys):
        path = write_input(tmp_path, saturated_input())
        out_path = tmp_path / "result.json"
        code = main(["fit", "--input", path, "--output", str(out_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""  # data went to the file, not stdout
        payload = json.loads(out_path.read_text())
        assert set(payload) == {
            "yields",
            "errors",
            "covariance",
            "qmin",
            "ndof",
            "p_value",
            "converged",
            "status",
            "n_evaluations",
            "n_iterations",
            "restarted",
        }

    def test_toy_shaped_input_contains_truth(self, tmp_path, capsys):
        import templatefit as tf

        cfg = tf.ToyConfig(seed=1)
        toy = tf.draw(cfg, tf.rng_stream(1, 0))
        obj = {
            "bin_edges": list(np.linspace(0, 2, 16)),
            "data": {"sumw": list(toy.data.sumw)},
            "templates": [
                {"name": "signal", "sumw": list(toy.templates[0].sumw)},
                {"name": "background", "sumw": list(toy.templates[1].sumw)},
            ],
        }
        path = write_input(tmp_path, obj)
        code = main(["fit", "--input", path, "--method", "approx"])
        out = capsys.readouterr()
        assert code == 0
        payload = json.loads(out.out)
        for est, err, truth in zip(payload["yields"], payload["errors"], (250.0, 750.0)):
            assert abs(est - truth) < 5.0 * err

    def test_weighted_plus_exact_rejected(self, tmp_path, capsys):
        obj = saturated_input()
        obj["data"]["sumw2"] = [100, 60, 40]  # weights of 2
        path = write_input(tmp_path, obj)
        code = main(["fit", "--input", path, "--method", "exact"])
        err = capsys.readouterr().err
        assert code == 1
        assert "exact" in err
        assert err.count("\n") == 1  # one-line diagnostic

    def test_weighted_flag_is_a_usage_error(self, tmp_path, capsys):
        # the input alone selects the weighted cost
        path = write_input(tmp_path, saturated_input())
        code = main(["fit", "--input", path, "--method", "approx", "--weighted"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "--weighted" in err and err.count("\n") == 1

    def test_weighted_input_fits_with_approx(self, tmp_path, capsys):
        obj = saturated_input()
        obj["data"]["sumw2"] = [100, 60, 40]
        path = write_input(tmp_path, obj)
        code = main(["fit", "--input", path, "--method", "approx"])
        assert code == 0

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code = main(["fit", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "JSON" in err

    def test_mismatched_bins(self, tmp_path, capsys):
        obj = saturated_input()
        obj["templates"][0]["sumw"] = [1, 2]
        path = write_input(tmp_path, obj)
        code = main(["fit", "--input", path])
        err = capsys.readouterr().err
        assert code == 1
        assert "bins" in err

    @pytest.mark.parametrize(
        "where, value",
        [("data", 5), ("templates", [7]), ("bin_edges", {}), ("sumw", {"a": 1})],
    )
    def test_malformed_shape_is_a_one_line_error(self, tmp_path, capsys, where, value):
        obj = saturated_input()
        if where == "sumw":
            obj["data"]["sumw"] = value
        else:
            obj[where] = value
        code = main(["fit", "--input", write_input(tmp_path, obj)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["approx", "conway", "exact"])
    def test_data_whose_terms_overflow_is_a_one_line_error(self, tmp_path, capsys, method):
        obj = saturated_input()
        obj["data"]["sumw"] = [1e308, 1e308, 20]
        code = main(["fit", "--input", write_input(tmp_path, obj), "--method", method])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "overflows" in err and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["approx", "conway"])
    def test_weighted_template_whose_effective_count_overflows_is_a_one_line_error(
        self, tmp_path, capsys, method
    ):
        obj = saturated_input()
        obj["templates"][0].update(sumw=[1e200, 15, 10], sumw2=[1e-20, 15, 10])
        code = main(["fit", "--input", write_input(tmp_path, obj), "--method", method])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "effective count" in err and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["approx", "conway", "exact"])
    def test_template_whose_total_squared_overflows_is_a_one_line_error(
        self, tmp_path, capsys, method
    ):
        # conway used to print an overflow warning and fit the component with d = 0
        obj = saturated_input()
        obj["templates"].append({"name": "huge", "sumw": [1e154, 1e154, 1e154]})
        code = main(["fit", "--input", write_input(tmp_path, obj), "--method", method])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "square overflows" in err and err.count("\n") == 1

    def test_unwritable_output_is_a_one_line_error(self, tmp_path, capsys):
        path = write_input(tmp_path, saturated_input())
        code = main(["fit", "--input", path, "--output", str(tmp_path / "missing" / "r.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["fit", "--input", str(tmp_path / "nope.json")])
        assert code == 1

    def test_nonconverged_exit_code(self, tmp_path, capsys):
        # second component absent from data: its yield pins at zero, the
        # bound blocks the covariance and the fit reports non-convergence
        obj = {
            "bin_edges": [0.0, 1.0, 2.0],
            "data": {"sumw": [200, 0]},
            "templates": [
                {"name": "a", "sumw": [50, 0]},
                {"name": "b", "sumw": [0, 50]},
            ],
        }
        path = write_input(tmp_path, obj)
        code = main(["fit", "--input", path])
        out = capsys.readouterr()
        assert code == 2
        payload = json.loads(out.out)
        assert not payload["converged"]
        assert payload["status"] == "on_bound"
        assert payload["errors"] is None

    def test_refit_reproduces_qmin(self, tmp_path, capsys):
        import templatefit as tf

        cfg = tf.ToyConfig(seed=2)
        toy = tf.draw(cfg, tf.rng_stream(2, 0))
        obj = {
            "bin_edges": list(np.linspace(0, 2, 16)),
            "data": {"sumw": list(toy.data.sumw)},
            "templates": [
                {"name": "signal", "sumw": list(toy.templates[0].sumw)},
                {"name": "background", "sumw": list(toy.templates[1].sumw)},
            ],
        }
        path = write_input(tmp_path, obj)
        assert main(["fit", "--input", path]) == 0
        q1 = json.loads(capsys.readouterr().out)["qmin"]
        assert main(["fit", "--input", path]) == 0
        q2 = json.loads(capsys.readouterr().out)["qmin"]
        assert abs(q1 - q2) < 1e-9


class TestToyStudy:
    def test_deterministic_across_runs_and_jobs(self, tmp_path, capsys):
        args = [
            "toy-study",
            "--seed",
            "7",
            "--n-toys",
            "6",
            "--n-mc",
            "100",
            "--methods",
            "approx",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--output", str(out1), "--jobs", "1"]) == 0
        assert main(args + ["--output", str(out2), "--jobs", "2"]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        s1 = tmp_path / "a.summary.csv"
        s2 = tmp_path / "b.summary.csv"
        assert s1.read_bytes() == s2.read_bytes()

    def test_record_count_and_summary_order(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(
            [
                "toy-study",
                "--seed",
                "5",
                "--n-toys",
                "4",
                "--n-mc",
                "200,100",
                "--methods",
                "conway,approx",
                "--output",
                str(out),
            ]
        )
        screen = capsys.readouterr()
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2 * 4
        summary = (tmp_path / "r.summary.csv").read_text().strip().split("\n")
        keys = [tuple(l.split(",")[:2]) for l in summary[1:]]
        assert keys == [("approx", "100"), ("approx", "200"), ("conway", "100"), ("conway", "200")]
        # stdout carries the summary table
        assert "approx" in screen.out

    def test_seed_required(self, capsys):
        code = main(["toy-study", "--n-toys", "2", "--output", "x.csv"])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_config_file_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "toy.json"
        cfg_path.write_text(
            json.dumps({"signal_yield": 100.0, "background_yield": 300.0, "nbins": 5}),
            encoding="utf-8",
        )
        out = tmp_path / "r.csv"
        code = main(
            [
                "toy-study",
                "--seed",
                "3",
                "--n-toys",
                "2",
                "--n-mc",
                "500",
                "--methods",
                "approx",
                "--input",
                str(cfg_path),
                "--output",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        rows = out.read_text().strip().split("\n")[1:]
        # estimates track the smaller configured truth
        est = float(rows[0].split(",")[3])
        assert est < 300.0

    def test_unwritable_output_fails_before_the_study(self, tmp_path, capsys, monkeypatch):
        def study(*args, **kwargs):
            raise AssertionError("run_study called")

        monkeypatch.setattr(cli, "run_study", study)
        out = tmp_path / "missing" / "r.csv"
        code = main(["toy-study", "--seed", "1", "--n-toys", "2", "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_method_list(self, tmp_path, capsys):
        code = main(
            ["toy-study", "--seed", "1", "--methods", "nope", "--output", "x.csv"]
        )
        assert code == 1

    def test_bins_override(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(
            [
                "toy-study",
                "--seed",
                "4",
                "--n-toys",
                "2",
                "--n-mc",
                "300",
                "--methods",
                "approx",
                "--bins",
                "7",
                "--output",
                str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0


class TestBench:
    def test_table_and_ratios(self, capsys):
        code = main(
            [
                "bench",
                "--seed",
                "2",
                "--methods",
                "approx,conway",
                "--repetitions",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].split()[:2] == ["method", "median_s"]
        assert len(lines) == 3
        ratios = [float(l.split()[2]) for l in lines[1:]]
        assert ratios[0] == pytest.approx(1.0, abs=1e-9)
        assert all(r >= 1.0 for r in ratios)

    def test_single_method_ratio_one(self, capsys):
        code = main(["bench", "--seed", "2", "--methods", "approx", "--repetitions", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.strip().split("\n")[1].split()[2]) == pytest.approx(1.0)

    def test_seed_required(self, capsys):
        assert main(["bench", "--methods", "approx"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--seed", "1", "--bins", "0"],
        ["bench", "--seed", "1", "--n-mc", "-3"],
        ["toy-study", "--seed", "1", "--bins", "0", "--output", "x.csv"],
        ["toy-study", "--seed", "1", "--methods", "approx,approx", "--output", "x.csv"],
        ["toy-study", "--seed", "1", "--n-mc", "50,50", "--output", "x.csv"],
        ["toy-study", "--seed", "1", "--n-toys", "0", "--output", "x.csv"],
        ["toy-study", "--seed", "1", "--jobs", "0", "--output", "x.csv"],
        ["bench", "--seed", "1", "--repetitions", "2"],
        ["toy-study", "--seed", "1", "--methods", "foo", "--output", "x.csv"],
        ["toy-study", "--seed", "1", "--methods", ",", "--output", "x.csv"],
        ["toy-study", "--seed", "1", "--n-mc", "50.5", "--output", "x.csv"],
        ["toy-study", "--seed", "1", "--n-mc", "-1", "--output", "x.csv"],
    ],
)
def test_bad_toy_input_is_a_one_line_error(argv, capsys, monkeypatch):
    # each is caught by the library's check, before a toy is drawn
    def fail(*args, **kwargs):
        raise AssertionError("the study or the timing ran")

    monkeypatch.setattr(cli, "run_study", fail)
    monkeypatch.setattr(cli, "bench", fail)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "config", [{"signal_mean": float("nan")}, {"nbins": 15.5}, {"n_mc": 50.5}]
)
def test_bad_toy_config_file_is_a_one_line_error(tmp_path, capsys, config):
    out = tmp_path / "out.csv"
    argv = ["toy-study", "--seed", "1", "--n-toys", "3", "--n-mc", "50", "--methods", "approx"]
    argv += ["--input", write_input(tmp_path, config), "--output", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad toy config: ") and err.count("\n") == 1
    assert not out.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "templatefit", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fit" in proc.stdout
    assert "toy-study" in proc.stdout
    assert "bench" in proc.stdout


def test_usage_error_exits_one():
    proc = subprocess.run(
        [sys.executable, "-m", "templatefit", "fit"],  # missing --input
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "error" in proc.stderr
