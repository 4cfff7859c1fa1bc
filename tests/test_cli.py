"""End-to-end tests for the command line, driving main() in process."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpoqubo.cli as cli
from dpoqubo.backends import canonical_qubo, make_backend
from dpoqubo.bcd import BcdConfig, bcd_solve
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


class RecordingBackend:
    """Tabu, keeping each request it is given."""

    name = "recording"

    def __init__(self):
        self.requests = []

    def solve(self, request):
        self.requests.append(request)
        return make_backend("tabu").solve(request)


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


    def test_pure_drift_path_from_its_start(self, tmp_path):
        out = tmp_path / "drift.csv"
        code = run([
            "synth", "--out", out, "--seed", 4, "--assets", 2, "--days", 6, "--no-cash",
            "--volatility", 0, "--drift", 0.01, "--start-price", 50,
            "--start-date", "2024-03-01",
        ])
        assert code == 0
        table = load_prices(out)
        assert table.dates[0] == "2024-03-01"
        np.testing.assert_allclose(table.prices[0], 50.0, rtol=1e-12)
        np.testing.assert_allclose(np.diff(np.log(table.prices), axis=0), 0.01, rtol=1e-9)

    def test_correlation_out_of_range_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = run(["synth", "--out", out, "--assets", 3, "--days", 5, "--correlation", 2])
        assert code == 1
        assert "correlation" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("command, flag", [
        *((command, flag) for command in ("build", "evaluate", "matrix") for flag in (
            ["--synthetic"], ["--assets", 3], ["--days", 9], ["--cash"], ["--no-cash"],
        )),
        ("build", ["--seed", 7]),
        ("evaluate", ["--seed", 7]),
    ], ids=lambda value: value if isinstance(value, str) else value[0])
    def test_prices_come_only_from_a_file_or_the_bundle(
        self, tmp_path, prices_csv, capsys, command, flag
    ):
        # synthetic prices come from the synth command alone
        args = [command, "--prices", prices_csv, *flag, "--out", tmp_path / "out"]
        if command == "evaluate":
            args += ["--solution", tmp_path / "sol.json"]
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("sidecar, message", [
        ('"config"', "a model sidecar must hold a JSON object"),
        ('{"config": [1]}', "a config must be a JSON object"),
        ('{"config": {', "Expecting"),
    ], ids=["string", "config-not-object", "truncated"])
    def test_broken_sidecar_fails_before_the_solve(
        self, tmp_path, model_file, capsys, monkeypatch, sidecar, message
    ):
        backend = RecordingBackend()
        monkeypatch.setattr(cli, "make_backend", lambda name: backend)
        meta = Path(str(model_file) + ".meta.json")
        meta.write_text(sidecar)
        out = tmp_path / "sol.json"
        assert run(["solve", "--model", model_file, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {meta}: ") and message in err
        assert backend.requests == []
        assert not out.exists()

    def test_block_strategy_runs(self, tmp_path, model_file):
        out = tmp_path / "sol.json"
        code = run([
            "solve", "--model", model_file, "--backend", "sa",
            "--strategy", "block", "--seed", 1, "--out", out,
        ])
        assert code == 0
        assert json.loads(out.read_text())["strategy"] == "block"

    def test_bcd_flags_set_the_sweep(self, tmp_path, model_file):
        out = tmp_path / "sol.json"
        code = run([
            "solve", "--model", model_file, "--backend", "sa", "--strategy", "block",
            "--seed", 3, "--bcd-iters", 2, "--bcd-repeats", 1, "--out", out,
        ])
        assert code == 0
        expected = bcd_solve(
            canonical_qubo(load_model(model_file)),
            make_backend("sa"),
            BcdConfig(global_iters=2, repeats_per_block=1, seed=3),
        )
        sol = json.loads(out.read_text())
        assert sol["energy"] == expected.reported_energy
        assert sol["assignment"] == expected.assignment.tolist()

    def test_zero_bcd_iterations_fail_cleanly(self, tmp_path, model_file, capsys):
        out = tmp_path / "sol.json"
        code = run([
            "solve", "--model", model_file, "--strategy", "block",
            "--bcd-iters", 0, "--out", out,
        ])
        assert code == 1
        assert "global_iters" in capsys.readouterr().err
        assert not out.exists()

    def test_int8_wrapped_backend_name(self, tmp_path, model_file):
        out = tmp_path / "sol.json"
        code = run([
            "solve", "--model", model_file, "--backend", "int8(tabu)",
            "--seed", 2, "--out", out,
        ])
        assert code == 0
        assert json.loads(out.read_text())["backend"] == "int8(tabu)"

    @pytest.mark.parametrize(
        "strategy, flag, owner",
        [
            ("block", "--effort", "global"),
            ("global", "--bcd-iters", "block"),
            ("global", "--bcd-repeats", "block"),
        ],
    )
    def test_flag_the_strategy_does_not_use_is_rejected(
        self, tmp_path, model_file, capsys, strategy, flag, owner
    ):
        out = tmp_path / "sol.json"
        code = run([
            "solve", "--model", model_file, "--strategy", strategy,
            flag, 10, "--out", out,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert flag in err and f"--strategy {owner}" in err
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


class TestJsonInputs:
    @staticmethod
    def _input(tmp_path, prices_csv, model_file, command):
        """The JSON file ``command`` reads, holding a valid value, and the
        command's arguments."""
        if command == "build":
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"n_t": 2, "n_a": 4, "n_r": 2, "budget": 3, "dt": 4}))
            argv = ["build", "--prices", prices_csv, "--config", path, "--out", tmp_path / "m.txt"]
        elif command == "evaluate":
            path = tmp_path / "sol.json"
            assert run(["solve", "--model", model_file, "--out", path]) == 0
            argv = ["evaluate", "--solution", path, "--prices", prices_csv,
                    "--out", tmp_path / "eval"]
        else:  # the model's sidecar
            path = Path(str(model_file) + ".meta.json")
            argv = ["solve", "--model", model_file, "--out", tmp_path / "sol.json"]
        return path, argv

    @pytest.mark.parametrize("command", ["build", "evaluate", "solve"])
    def test_bom_is_skipped_and_a_broken_file_is_named(
        self, tmp_path, prices_csv, model_file, capsys, command
    ):
        path, argv = self._input(tmp_path, prices_csv, model_file, command)
        text = path.read_text()
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert run(argv) == 0
        capsys.readouterr()
        path.write_text(text[: len(text) // 2])
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("command", ["build", "evaluate"])
    def test_an_invalid_config_names_its_file(
        self, tmp_path, prices_csv, model_file, capsys, command
    ):
        # the file parses, but the config it holds does not: a config file
        # for build, a solution's embedded config for evaluate
        path, argv = self._input(tmp_path, prices_csv, model_file, command)
        if command == "build":
            path.write_text(json.dumps({"lam": 0.5}))
        else:
            solution = json.loads(path.read_text())
            path.write_text(json.dumps({**solution, "config": {"lam": 0.5}}))
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: unknown config fields: ['lam']\n"


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

    @pytest.mark.parametrize("solution,message", [
        ([1, 2], "must hold a JSON object"),
        ({"energy": 1}, "no 'assignment' list"),
        ({"assignment": 5}, "no 'assignment' list"),
        pytest.param('{"assignment": [0, 1', "sol.json: Expecting", id="truncated"),
    ])
    def test_malformed_solution_fails_cleanly(
        self, tmp_path, prices_csv, capsys, solution, message
    ):
        sol = tmp_path / "sol.json"
        # a string case is the file's text, not a value to serialize
        sol.write_text(solution if isinstance(solution, str) else json.dumps(solution))
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
    @pytest.fixture()
    def args(self, tmp_path):
        prices = tmp_path / "two_assets.csv"
        assert run([
            "synth", "--out", prices, "--seed", 1, "--assets", 2, "--days", 9, "--no-cash",
        ]) == 0
        return [
            "matrix", "--prices", prices,
            "--n-t", 2, "--n-a", 2, "--n-r", 2, "--budget", 3, "--dt", 4,
            "--backends", "sa", "--runs", 2, "--seed", 1,
        ]

    def test_writes_report_files(self, tmp_path, args):
        out = tmp_path / "mat"
        assert run(args + ["--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["cells"]) == 4
        assert (out / "timings.json").exists()

    def test_reruns_byte_identical_summaries(self, tmp_path, args):
        one, two = tmp_path / "one", tmp_path / "two"
        assert run(args + ["--out", one]) == 0
        assert run(args + ["--out", two]) == 0
        assert (one / "summary.json").read_bytes() == (two / "summary.json").read_bytes()
        for p in sorted(one.glob("series_*.csv")):
            assert p.read_bytes() == (two / p.name).read_bytes()

    def test_variant_subset(self, tmp_path, args):
        out = tmp_path / "mat"
        code = run(args + ["--variants", "global-fp,block-int8", "--out", out])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [c["variant"] for c in summary["cells"]] == ["global-fp", "block-int8"]

    def test_repeated_backend_fails_cleanly(self, tmp_path, args, capsys):
        args = args + ["--backends", "sa,sa", "--out", tmp_path / "m"]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "series_sa_global-fp.csv" in err
        assert not (tmp_path / "m").exists()

    def test_bad_variant_label_fails_cleanly(self, tmp_path, args, capsys):
        code = run(args + ["--variants", "sideways-fp", "--out", tmp_path / "m"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_variant_label_lists_the_valid_ones(self, tmp_path, args, capsys):
        code = run(args + ["--variants", "global-fp,block-fp16", "--out", tmp_path / "m"])
        assert code == 1
        err = capsys.readouterr().err
        assert "'block-fp16'" in err
        assert "global-fp, global-int8, block-fp, block-int8" in err

    @pytest.mark.parametrize("flag", ["--backends", "--variants"])
    def test_empty_selection_fails_cleanly(self, tmp_path, args, capsys, flag):
        assert run(args + [flag, ",", "--out", tmp_path / "m"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err
        assert not (tmp_path / "m").exists()

    def test_negative_seed_fails_before_any_cell(self, tmp_path, capsys):
        code = run([
            "matrix", "--bundled", "--n-t", 2, "--n-a", 6, "--n-r", 2,
            "--budget", 3, "--dt", 24, "--backends", "tabu", "--runs", 1,
            "--variants", "global-fp", "--seed", -1, "--out", tmp_path / "m",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed must be >= 0" in err
        assert not (tmp_path / "m").exists()

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


ROOT = Path(__file__).resolve().parent.parent


def _readme_shell_commands():
    """The commands of the README's shell quick start, continuation lines
    joined, each split into arguments."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Or from the shell:\n\n```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line]


def _readme_python_quick_start():
    """The code of the README's first ``python`` block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def _src_env():
    """The environment with this checkout's ``src`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


class TestReadme:
    def test_shell_quick_start_runs(self, tmp_path):
        commands = _readme_shell_commands()
        assert [c[:2] for c in commands] == [
            ["dpoqubo", "synth"], ["dpoqubo", "build"], ["dpoqubo", "solve"],
            ["dpoqubo", "evaluate"], ["dpoqubo", "matrix"],
        ]
        for command in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "dpoqubo.cli", *command[1:]],
                cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, (command, proc.stderr)
        assert (tmp_path / "matrix_report" / "summary.json").exists()

    def test_python_quick_start_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", _readme_python_quick_start()],
            cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "summary.json").exists()
