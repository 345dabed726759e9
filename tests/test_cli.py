import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from gdbound.cli import main, parse_t
from gdbound.graphdep import DependencyGraph, bipartite_ranking_graph
from gdbound.macroauc import TrainConfig, report_bounds, save_dataset, train_sgd

from synthdata import small_separable


def run_cli(args, env=None):
    """Invoke the CLI in-process, capturing stdout/stderr and exit code."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    old_env = {}
    env = env or {}
    for key, val in env.items():
        old_env[key] = os.environ.get(key)
        os.environ[key] = val
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(args)
    finally:
        for key, val in old_env.items():
            if val is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = val
    return code, out.getvalue(), err.getvalue()


class TestParseT:
    def test_plain_float(self):
        assert parse_t("2.5") == 2.5

    def test_ln_literal(self):
        assert parse_t("ln100") == pytest.approx(math.log(100.0))
        assert parse_t("ln2") == pytest.approx(math.log(2.0))


class TestBoundCommand:
    def test_bernstein(self):
        code, out, _ = run_cli(["bound", "bernstein", "--c", "1", "--v", "1",
                                "--t", "1"])
        assert code == 0
        assert "2.08088" in out

    def test_ours_macroauc(self):
        code, out, _ = run_cli(["bound", "ours-macroauc", "--rstar", "0.001",
                                "--K", "2", "--tau", "0.5,0.25", "--n", "1000",
                                "--t", "ln100", "--mu", "1"])
        assert code == 0
        assert "1.74016" in out

    def test_missing_option_exit_2(self):
        code, _, err = run_cli(["bound", "bernstein", "--c", "1", "--v", "1"])
        assert code == 2
        assert "missing required" in err

    def test_probability_forms(self):
        code, out, _ = run_cli(["bound", "bennett-general", "--ez", "0.5",
                                "--sigma2", "0.5", "--chi", "1", "--t", "1"])
        assert code == 0
        assert "0.772583" in out  # simple form: exp(-phi(0.8))
        code, out, _ = run_cli(["bound", "bennett-refined", "--ez", "0",
                                "--sigma2", "1", "--chi", "1", "--t",
                                repr(math.e - 1.0)])
        assert code == 0
        assert "0.367879" in out  # phi(e-1) = 1
        code, out, _ = run_cli(["bound", "talagrand-v", "--sigma2", "1",
                                "--ez", "1"])
        assert code == 0
        assert "= 3" in out

    def test_prior_matches_report_bit_identically(self, tmp_path):
        # same code path as report_bounds, so the value must agree exactly
        ds = small_separable(n=24, d=4, k=2, seed=1)
        ranker = train_sgd(ds, TrainConfig(epochs=3, seed=0))
        report = report_bounds(ds, ranker)
        p = report.params
        out_file = tmp_path / "prior.json"
        code, _, _ = run_cli([
            "bound", "prior-macroauc",
            "--K", str(p["K"]),
            "--tau", ",".join(repr(t) for t in p["tau"]),
            "--n", repr(float(p["n_tilde"])),
            "--t", repr(p["t"]),
            "--mu", "1",
            "--mbar", repr(p["m_bar"]),
            "--mtilde", repr(p["m_tilde"]),
            "--out", str(out_file),
        ])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["value"] == report.bound_prior


class TestVerifyCommand:
    def test_roundtrip_and_exit_zero(self, tmp_path):
        out_file = tmp_path / "report.json"
        args = ["verify", "--structure", "bipartite:3,2", "--ineq",
                "bennett_general", "--trials", "20000", "--seed", "7",
                "--t-grid", "0.5,1,2", "--out", str(out_file)]
        code, out, _ = run_cli(args)
        assert code == 0
        assert "violations: 0" in out
        payload = json.loads(out_file.read_text())
        assert payload["violations"] == []
        assert payload["config"]["seed"] == 7

    def test_missing_ineq_exit_2(self):
        code, _, _ = run_cli(["verify", "--structure", "bipartite:3,2",
                              "--trials", "1000"])
        assert code == 2

    def test_zero_trials_exit_2(self):
        code, _, _ = run_cli(["verify", "--structure", "bipartite:3,2",
                              "--ineq", "bennett_general", "--trials", "0"])
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--t-grid", "nan"),
                                            ("--t-grid", "1,inf")])
    def test_bad_seed_or_t_grid_exit_2(self, flag, value):
        code, out, err = run_cli(["verify", "--structure", "bipartite:3,2", "--ineq",
                                  "bennett_general", "--trials", "1000", flag, value])
        assert code == 2
        assert "error:" in err and "nan" not in out

    def test_bad_structure_exit_2(self):
        code, _, _ = run_cli(["verify", "--structure", "ring:4", "--ineq",
                              "bennett_general", "--trials", "100"])
        assert code == 2

    def test_byte_identical_reports(self, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        base = ["verify", "--structure", "iid:20", "--ineq", "bennett_refined",
                "--trials", "5000", "--seed", "3"]
        assert run_cli(base + ["--out", str(f1)])[0] == 0
        assert run_cli(base + ["--out", str(f2)])[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "structure = iid:10\nineq = bennett_refined\ntrials = 2000\n"
            "seed = 5\nt-grid = 1,2\n"
        )
        out1 = tmp_path / "r1.json"
        code, _, _ = run_cli(["verify", "--config", str(cfg), "--out", str(out1)])
        assert code == 0
        assert json.loads(out1.read_text())["config"]["seed"] == 5
        out2 = tmp_path / "r2.json"
        code, _, _ = run_cli(["verify", "--config", str(cfg), "--seed", "9",
                              "--out", str(out2)])
        assert code == 0
        assert json.loads(out2.read_text())["config"]["seed"] == 9

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("structure = iid:10\nineq = bennett_refined\n"
                       "trials = 100\nbogus = 1\n")
        code, _, err = run_cli(["verify", "--config", str(cfg)])
        assert code == 2
        assert "bogus" in err

    def test_env_seed_override(self, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = run_cli(
            ["verify", "--structure", "iid:10", "--ineq", "bennett_refined",
             "--trials", "1000", "--out", str(out)],
            env={"GDBOUND_SEED": "123"},
        )
        assert code == 0
        assert json.loads(out.read_text())["config"]["seed"] == 123

    def test_replaying_embedded_config_reproduces_report(self, tmp_path):
        out1 = tmp_path / "r1.json"
        code, _, _ = run_cli(["verify", "--structure", "bipartite:2,2",
                              "--ineq", "lower_tail", "--trials", "3000",
                              "--seed", "11", "--out", str(out1)])
        assert code == 0
        embedded = json.loads(out1.read_text())["resolved_config"]
        cfg = tmp_path / "replay.cfg"
        lines = [f"{k.replace('_', '-')} = {v}" for k, v in embedded.items()
                 if v != "None"]
        cfg.write_text("\n".join(lines) + "\n")
        out2 = tmp_path / "r2.json"
        code, _, _ = run_cli(["verify", "--config", str(cfg), "--out", str(out2)])
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestLfrcAndRstarCommands:
    def test_fixed_point(self):
        code, out, _ = run_cli(["lfrc", "fixed-point", "--family", "sqrt",
                                "--a", "2", "--b", "3"])
        assert code == 0
        assert "r_star = 9" in out

    def test_estimate(self, tmp_path):
        feats = tmp_path / "x.txt"
        np.savetxt(feats, np.array([[1.0, 0.0]]))
        code, out, _ = run_cli(["lfrc", "estimate", "--features", str(feats),
                                "--mtilde", "2", "--r", "inf", "--draws", "8",
                                "--seed", "0"])
        assert code == 0
        assert "lfrc_estimate = 2" in out

    def test_rstar_kernel(self, tmp_path):
        gram = tmp_path / "g.txt"
        np.savetxt(gram, np.diag([0.5 * 2, 0.25 * 2]) * 1.0)
        # gram/m with m=2 gives eigenvalues (0.5, 0.25)
        code, out, _ = run_cli(["rstar", "kernel", "--gram", str(gram),
                                "--chi", "1", "--m", "100", "--mtilde", "1"])
        assert code == 0
        assert "r_star = 0.02" in out and "cuts = 2" in out

    def test_rstar_linear_macro_mode(self, tmp_path):
        w = tmp_path / "w.txt"
        np.savetxt(w, np.zeros((2, 3)))
        code, out, _ = run_cli(["rstar", "linear", "--weights", str(w),
                                "--mtilde", "1", "--mbar", "1",
                                "--tau", "0.5,0.25", "--n", "100"])
        assert code == 0
        assert "r_star = 0" in out


class TestGraphCommands:
    def test_chi_on_c5(self, tmp_path):
        g = DependencyGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        edges = tmp_path / "c5.txt"
        edges.write_text(g.to_text())
        code, out, _ = run_cli(["graph", "chi", "--edges", str(edges)])
        assert code == 0
        assert "chi_f = 2.5" in out

    def test_cover_check_pass_and_fail(self, tmp_path):
        g, cover = bipartite_ranking_graph(3, 2)
        edges = tmp_path / "g.txt"
        edges.write_text(g.to_text())
        cov = tmp_path / "cover.txt"
        cov.write_text(cover.to_text())
        code, out, _ = run_cli(["graph", "cover-check", "--edges", str(edges),
                                "--cover", str(cov)])
        assert code == 0 and "PASS" in out
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0: 0 1 2 3 4 5\n")
        code, out, _ = run_cli(["graph", "cover-check", "--edges", str(edges),
                                "--cover", str(bad)])
        assert code == 1 and "FAIL" in out


class TestExperimentCommand:
    def test_small_experiment_runs_and_is_deterministic(self, tmp_path):
        ds = small_separable(n=36, d=4, k=2, seed=2)
        data = tmp_path / "toy.mlsvm"
        save_dataset(ds, data)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        base = ["experiment", "--data", str(data), "--seeds", "0,1",
                "--epochs", "4"]
        code, table1, _ = run_cli(base + ["--out", str(out1)])
        assert code == 0
        assert "smaller" in table1
        code, _, _ = run_cli(base + ["--out", str(out2)])
        assert code == 0
        assert (out1 / "toy.report.json").read_bytes() == \
            (out2 / "toy.report.json").read_bytes()
        payload = json.loads((out1 / "toy.report.json").read_text())
        assert payload["summary"]["smaller_bound"] in ("ours", "prior")

    def test_parse_failure_exit_3(self, tmp_path):
        bad = tmp_path / "bad.mlsvm"
        bad.write_text("#samples=2 #features=1 #labels=1\n0\t5:1.0\n\t0:1\n")
        code, _, err = run_cli(["experiment", "--data", str(bad),
                                "--seeds", "0", "--epochs", "1"])
        assert code == 3

    def test_midsize_run_under_a_minute_localized_bound_wins(self, tmp_path):
        # 200 x 20 x 4 (K << n): the localized bound comes out smaller
        import time
        from synthdata import midsize_separable
        data = tmp_path / "mid.mlsvm"
        save_dataset(midsize_separable(seed=1), data)
        start = time.time()
        code, table, _ = run_cli(["experiment", "--data", str(data),
                                  "--seeds", "1", "--out",
                                  str(tmp_path / "mid_out")])
        elapsed = time.time() - start
        assert code == 0
        assert elapsed < 60.0, elapsed
        payload = json.loads((tmp_path / "mid_out" / "mid.report.json").read_text())
        assert payload["summary"]["smaller_bound"] == "ours"
        assert payload["summary"]["ours"]["mean"] < payload["summary"]["prior"]["mean"]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gdbound.cli", "bound", "bernstein",
             "--c", "1", "--v", "1", "--t", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "2.08088" in proc.stdout
