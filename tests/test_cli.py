"""End-to-end tests for the command line, driving main() in process."""

import json

import numpy as np
import pytest

from dpoqubo.cli import main
from dpoqubo.market import load_prices
from dpoqubo.qubo import BlockPartition, Qubo, qubo_energy
from dpoqubo.serialize import load_model, save_model


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def prices_csv(tmp_path):
    out = tmp_path / "prices.csv"
    assert run(["synth", "--out", out, "--seed", 3, "--assets", 3, "--days", 25]) == 0
    return out


@pytest.fixture()
def model_file(tmp_path, prices_csv):
    out = tmp_path / "model.txt"
    code = run([
        "build", "--prices", prices_csv, "--n-t", 2, "--n-a", 4, "--n-r", 2,
        "--budget", 3, "--dt", 4, "--out", out,
    ])
    assert code == 0
    return out


class TestSynth:
    def test_writes_parseable_prices(self, prices_csv):
        table = load_prices(prices_csv)
        assert len(table.assets) == 4  # 3 synthetic + cash
        assert table.prices.shape == (25, 4)
        assert table.assets[-1] == "CASH"
        assert np.all(table.prices[:, -1] == 1.0)

    def test_no_cash_flag(self, tmp_path):
        out = tmp_path / "p.csv"
        run(["synth", "--out", out, "--seed", 1, "--assets", 2, "--days", 10,
             "--no-cash"])
        assert len(load_prices(out).assets) == 2

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(["synth", "--out", out, "--seed", 11, "--assets", 2, "--days", 12])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_content(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["synth", "--out", a, "--seed", 1, "--assets", 2, "--days", 12])
        run(["synth", "--out", b, "--seed", 2, "--assets", 2, "--days", 12])
        assert a.read_bytes() != b.read_bytes()


class TestBuild:
    def test_model_and_meta_sidecar(self, model_file):
        q = load_model(model_file)
        assert isinstance(q, Qubo)
        assert q.n == 2 * 4 * 2
        assert len(q.partition) == 2
        meta = json.loads((model_file.parent / "model.txt.meta.json").read_text())
        assert meta["config"]["n_t"] == 2
        assert meta["config"]["budget"] == 3

    def test_asset_count_mismatch_fails_cleanly(self, tmp_path, prices_csv, capsys):
        code = run([
            "build", "--prices", prices_csv, "--n-t", 2, "--n-a", 6, "--n-r", 2,
            "--budget", 3, "--dt", 4, "--out", tmp_path / "m.txt",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, prices_csv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "n_t": 3, "n_a": 4, "n_r": 2, "budget": 3, "dt": 4,
        }))
        out = tmp_path / "m.txt"
        code = run([
            "build", "--prices", prices_csv, "--config", cfg_path,
            "--n-t", 2, "--out", out,
        ])
        assert code == 0
        assert load_model(out).n == 2 * 4 * 2  # override wins over file

    @pytest.mark.parametrize("flags,risk", [
        (["--risk", "semicovariance", "--benchmark", -0.002],
         {"kind": "semicovariance", "benchmark": -0.002}),
        (["--risk", "semicovariance"], {"kind": "semicovariance", "benchmark": 0.0}),
        (["--risk", "shrinkage", "--shrinkage-delta", 0.3],
         {"kind": "shrinkage", "delta_override": 0.3}),
        (["--risk", "shrinkage"], {"kind": "shrinkage"}),
    ])
    def test_risk_flags_reach_the_sidecar(self, tmp_path, prices_csv, flags, risk):
        out = tmp_path / "m.txt"
        code = run([
            "build", "--prices", prices_csv, "--n-t", 2, "--n-a", 4, "--n-r", 2,
            "--budget", 3, "--dt", 4, *flags, "--out", out,
        ])
        assert code == 0
        meta = json.loads((tmp_path / "m.txt.meta.json").read_text())
        assert meta["config"]["risk"] == risk

    @pytest.mark.parametrize("flags,message", [
        (["--benchmark", 0.5], "need --risk"),
        (["--shrinkage-delta", 0.5], "need --risk"),
        (["--risk", "covariance", "--benchmark", 0.5], "takes no fields"),
        (["--risk", "semicovariance", "--benchmark", 0.5, "--shrinkage-delta", 0.3],
         "takes no fields"),
        (["--risk", "shrinkage", "--shrinkage-delta", 7], "delta_override must lie in"),
    ])
    def test_risk_flag_the_estimator_does_not_take_fails_cleanly(
        self, tmp_path, prices_csv, capsys, flags, message
    ):
        code = run([
            "build", "--prices", prices_csv, "--n-t", 2, "--n-a", 4, "--n-r", 2,
            "--budget", 3, "--dt", 4, *flags, "--out", tmp_path / "m.txt",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (tmp_path / "m.txt").exists()

    def test_synthetic_source_sizes_itself_from_config(self, tmp_path):
        out = tmp_path / "m.txt"
        code = run([
            "build", "--synthetic", "--assets", 3, "--seed", 7,
            "--n-t", 2, "--n-a", 4, "--n-r", 2, "--budget", 3, "--dt", 5,
            "--out", out,
        ])
        assert code == 0
        assert load_model(out).n == 16


class TestSolve:
    def test_global_solution_energy_is_true_energy(self, tmp_path, model_file):
        out = tmp_path / "sol.json"
        code = run([
            "solve", "--model", model_file, "--backend", "tabu",
            "--strategy", "global", "--seed", 5, "--out", out,
        ])
        assert code == 0
        sol = json.loads(out.read_text())
        q = load_model(model_file)
        x = np.asarray(sol["assignment"], dtype=np.int8)
        assert sol["energy"] == pytest.approx(qubo_energy(q, x), rel=1e-12)
        assert sol["config"]["n_t"] == 2  # copied from the meta sidecar

    def test_block_strategy_runs(self, tmp_path, model_file):
        out = tmp_path / "sol.json"
        code = run([
            "solve", "--model", model_file, "--backend", "sa",
            "--strategy", "block", "--seed", 1, "--out", out,
        ])
        assert code == 0
        assert json.loads(out.read_text())["strategy"] == "block"

    def test_int8_wrapped_backend_name(self, tmp_path, model_file):
        out = tmp_path / "sol.json"
        code = run([
            "solve", "--model", model_file, "--backend", "int8(tabu)",
            "--seed", 2, "--out", out,
        ])
        assert code == 0
        assert json.loads(out.read_text())["backend"] == "int8(tabu)"

    def test_block_strategy_rejects_effort(self, tmp_path, model_file, capsys):
        out = tmp_path / "sol.json"
        code = run([
            "solve", "--model", model_file, "--strategy", "block",
            "--effort", 10, "--out", out,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "--effort" in err and "--strategy global" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "strategy, message",
        [("global", "capped at 24 variables"), ("block", "block 0: exhaustive enumeration")],
    )
    def test_backend_failure_fails_cleanly(self, tmp_path, capsys, strategy, message):
        model = tmp_path / "wide.txt"
        save_model(Qubo(-np.eye(60), partition=BlockPartition.from_sizes([30, 30])), model)
        out = tmp_path / "sol.json"
        code = run([
            "solve", "--model", model, "--backend", "exhaustive",
            "--strategy", strategy, "--out", out,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_unknown_backend_fails_cleanly(self, tmp_path, model_file, capsys):
        code = run([
            "solve", "--model", model_file, "--backend", "quantum",
            "--out", tmp_path / "s.json",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_model_file_fails_cleanly(self, tmp_path, capsys):
        code = run([
            "solve", "--model", tmp_path / "nope.txt", "--out", tmp_path / "s.json",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def _solution(self, tmp_path, model_file, **kw):
        out = tmp_path / "sol.json"
        assert run([
            "solve", "--model", model_file, "--backend", "tabu", "--seed", 4,
            "--out", out,
        ]) == 0
        return out

    def test_feasible_report_with_series(self, tmp_path, prices_csv, model_file):
        sol = self._solution(tmp_path, model_file)
        out = tmp_path / "eval"
        code = run([
            "evaluate", "--solution", sol, "--prices", prices_csv, "--out", out,
        ])
        assert code == 0
        report = json.loads((out / "evaluation.json").read_text())
        if report["feasible"]:
            assert "total_net_return" in report
            assert "objective" in report
            lines = (out / "series.csv").read_text().strip().splitlines()
            assert lines[0] == "interval,net_return"
            assert len(lines) == 1 + 2  # n_t = 2
        else:  # tabu on this tiny instance lands feasible, but don't bake it in
            assert "violations" in report

    def test_infeasible_solution_reported_without_metrics(
        self, tmp_path, prices_csv, model_file
    ):
        sol = tmp_path / "bad.json"
        meta = json.loads((model_file.parent / "model.txt.meta.json").read_text())
        sol.write_text(json.dumps({
            "assignment": [1] * 16,  # every weight maxed: budget blown
            "config": meta["config"],
        }))
        out = tmp_path / "eval"
        code = run([
            "evaluate", "--solution", sol, "--prices", prices_csv, "--out", out,
        ])
        assert code == 0
        report = json.loads((out / "evaluation.json").read_text())
        assert report["feasible"] is False
        assert report["violations"]
        assert "sharpe" not in report
        assert "total_net_return" not in report
        assert not (out / "series.csv").exists()

    def test_infeasible_solution_needs_no_risk_estimate(self, tmp_path, prices_csv):
        # dt=1 leaves one daily return per interval, too few to estimate risk;
        # an infeasible solution is reported without estimating it
        sol = tmp_path / "bad.json"
        sol.write_text(json.dumps({"assignment": [1] * 16}))
        out = tmp_path / "eval"
        code = run([
            "evaluate", "--solution", sol, "--prices", prices_csv, "--n-t", 2,
            "--n-a", 4, "--n-r", 2, "--budget", 3, "--dt", 1, "--out", out,
        ])
        assert code == 0
        report = json.loads((out / "evaluation.json").read_text())
        assert report["feasible"] is False and report["violations"]

    @pytest.mark.parametrize("config,message", [
        (5, "must be a JSON object"),
        ({"lam": 0.5}, "unknown config fields"),
        ({"nu": True}, "nu must be a number"),
    ])
    def test_bad_embedded_config_fails_cleanly(
        self, tmp_path, prices_csv, capsys, config, message
    ):
        sol = tmp_path / "sol.json"
        sol.write_text(json.dumps({"assignment": [0] * 16, "config": config}))
        code = run([
            "evaluate", "--solution", sol, "--prices", prices_csv, "--out", tmp_path / "eval",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_flag_override_on_embedded_config(
        self, tmp_path, prices_csv, model_file
    ):
        sol = self._solution(tmp_path, model_file)
        out = tmp_path / "eval"
        code = run([
            "evaluate", "--solution", sol, "--prices", prices_csv,
            "--gamma", 0, "--out", out,
        ])
        assert code == 0
        report = json.loads((out / "evaluation.json").read_text())
        if report["feasible"]:
            assert report.get("zero_risk") is True
            assert "sharpe" not in report


class TestMatrix:
    _ARGS = [
        "matrix", "--synthetic", "--assets", 2, "--no-cash",
        "--n-t", 2, "--n-a", 2, "--n-r", 2, "--budget", 3, "--dt", 4,
        "--backends", "sa", "--runs", 2, "--seed", 1,
    ]

    def test_writes_report_files(self, tmp_path):
        out = tmp_path / "mat"
        assert run(self._ARGS + ["--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["cells"]) == 4
        assert (out / "timings.json").exists()

    def test_reruns_byte_identical_summaries(self, tmp_path):
        one, two = tmp_path / "one", tmp_path / "two"
        assert run(self._ARGS + ["--out", one]) == 0
        assert run(self._ARGS + ["--out", two]) == 0
        assert (one / "summary.json").read_bytes() == (two / "summary.json").read_bytes()
        for p in sorted(one.glob("series_*.csv")):
            assert p.read_bytes() == (two / p.name).read_bytes()

    def test_variant_subset(self, tmp_path):
        out = tmp_path / "mat"
        code = run(self._ARGS + ["--variants", "global-fp,block-int8", "--out", out])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [c["variant"] for c in summary["cells"]] == ["global-fp", "block-int8"]

    def test_bad_variant_label_fails_cleanly(self, tmp_path, capsys):
        code = run(self._ARGS + ["--variants", "sideways-fp", "--out", tmp_path / "m"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bundled_fixture_runs_small_config(self, tmp_path):
        out = tmp_path / "mat"
        code = run([
            "matrix", "--bundled", "--n-t", 2, "--n-a", 6, "--n-r", 2,
            "--budget", 3, "--dt", 24, "--backends", "tabu", "--runs", 1,
            "--variants", "global-fp", "--seed", 0, "--out", out,
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cells"][0]["backend"] == "tabu"
