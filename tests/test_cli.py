import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from gdbound import graphdep
from gdbound.cli import COMMANDS, main, parse_t
from gdbound.errors import ConvergenceError
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


SKIPPED_FOLD = r"fold \d+: all labels degenerate, skipped"


def run_experiment_cli(args):
    """`run_cli` on an experiment whose cross-validation may skip folds in
    which every label is degenerate: their UserWarning must be the only
    warning raised.  Any other UserWarning stays an error, as the suite's
    filters make it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", SKIPPED_FOLD, UserWarning)
        result = run_cli(args)
    for w in caught:
        assert w.category is UserWarning and re.fullmatch(SKIPPED_FOLD, str(w.message)), w
    return result


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

    @pytest.mark.parametrize("args", [
        ["bernstein", "--c", "nan", "--v", "1", "--t", "1"],
        ["bernstein", "--c", "1", "--v", "inf", "--t", "1"],
        ["bennett-general", "--ez", "nan", "--sigma2", "1", "--chi", "1", "--t", "1"],
        ["bennett-general", "--ez", "1", "--sigma2", "1", "--chi", "1", "--t", "inf"],
        ["talagrand-v", "--ez", "nan", "--sigma2", "1"],
        ["ours-macroauc", "--rstar", "nan", "--K", "1", "--tau", "0.3", "--n", "10",
         "--t", "1"],
        ["prior-macroauc", "--mu", "1e300", "--mbar", "1e300", "--mtilde", "0", "--K", "1",
         "--tau", "0.3", "--n", "100", "--t", "1"],
        # finite inputs whose bound overflows to inf
        ["bernstein", "--c", "1e300", "--v", "1e300", "--t", "1"],
        ["prior-macroauc", "--K", "1", "--tau", "0.5", "--n", "1", "--mbar", "1e300",
         "--mtilde", "1e300", "--t", "1"],
        ["talagrand-v", "--sigma2", "1e308", "--ez", "1e308"],
        ["excess-general", "--r", "1e308", "--chi", "1", "--m", "1", "--t", "1", "--B", "1e-10"],
    ])
    def test_non_finite_input_exit_2(self, args):
        code, out, err = run_cli(["bound", *args])
        assert code == 2
        assert "error:" in err and out == ""

    def test_bad_config_value_exit_2(self, tmp_path):
        cfg = tmp_path / "bound.cfg"
        cfg.write_text("c = abc\nv = 1\nt = 1\n")
        code, _, err = run_cli(["bound", "bernstein", "--config", str(cfg)])
        assert code == 2 and "--c" in err

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

    def test_small_phi_argument_is_not_cancelled(self):
        # phi(1e-12) * 1e24: the closed form (1 + x) log1p(x) - x printed
        # 0.606516, below the exact exp(-0.5 + 1e-12 / 6) = 0.606531
        code, out, _ = run_cli(["bound", "bennett-refined", "--b-shift", "0", "--ez", "0",
                                "--sigma2", "1e24", "--chi", "1", "--t", "1e12"])
        assert code == 0
        assert "= 0.606531" in out

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

    def test_overflowing_deviation_threshold_exit_2(self):
        code, out, err = run_cli(["verify", "--structure", "bipartite:5,4", "--ineq",
                                  "bennett_general", "--trials", "100", "--form", "deviation",
                                  "--t-grid", "1,1e307"])
        assert code == 2 and out == ""
        assert "bernstein_deviation must be finite" in err

    def test_bad_structure_exit_2(self):
        code, _, _ = run_cli(["verify", "--structure", "ring:4", "--ineq",
                              "bennett_general", "--trials", "100"])
        assert code == 2

    @pytest.mark.parametrize("structure", ["bipartite:5", "bipartite:a,b",
                                           "bipartite:1,2,3", "iid:x", "iid:", "iid:2,3"])
    def test_malformed_structure_sizes_exit_2(self, structure):
        code, _, err = run_cli(["verify", "--structure", structure, "--ineq",
                                "bennett_general", "--trials", "100"])
        assert code == 2 and "--structure" in err

    @pytest.mark.parametrize("line", ["trials = abc", "k = two", "base-p = x",
                                      "seed = 1.5"])
    def test_bad_config_value_exit_2(self, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("structure = iid:10\nineq = bennett_refined\ntrials = 100\n"
                       f"{line}\n")
        code, _, err = run_cli(["verify", "--config", str(cfg)])
        assert code == 2
        assert "--" + line.split()[0] in err

    def test_large_bipartite_task_in_seconds(self):
        # the pair tensor of this run would take 64 GB; the per-task sums a few MB
        start = time.perf_counter()
        code, out, _ = run_cli(["verify", "--structure", "bipartite:1000,800", "--ineq",
                                "bennett_general", "--trials", "10000", "--seed", "2"])
        assert code == 0 and "violations: 0" in out
        assert time.perf_counter() - start < 10.0

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

    def test_missing_config_exit_3(self, tmp_path):
        code, _, err = run_cli(["verify", "--config", str(tmp_path / "absent.cfg")])
        assert code == 3 and "absent.cfg" in err

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

    @pytest.mark.parametrize("scale", [1e4, 1e8])
    def test_rstar_kernel_on_a_large_psd_gram(self, tmp_path, scale):
        # 3 x 4 pairs of 5 features: roundoff puts its least eigenvalue near
        # -1e-16 lambda_max, which is below -1e-8 at these scales
        rng = np.random.default_rng(0)
        X = (rng.normal(size=(3, 1, 5)) - rng.normal(size=(1, 4, 5))).reshape(12, 5) * scale
        gram = tmp_path / "g.txt"
        np.savetxt(gram, X @ X.T)
        code, out, err = run_cli(["rstar", "kernel", "--gram", str(gram),
                                  "--chi", "4", "--m", "12"])
        assert (code, err) == (0, "")
        assert out.startswith("r_star = ")

    @pytest.mark.parametrize("args", [
        ["lfrc", "estimate", "--features"],
        ["rstar", "kernel", "--chi", "1", "--m", "100", "--gram"],
        ["rstar", "linear", "--tau", "0.5", "--n", "100", "--weights"],
    ])
    def test_missing_matrix_file_exit_3(self, tmp_path, args):
        code, _, err = run_cli(args + [str(tmp_path / "absent.txt")])
        assert code == 3 and "absent.txt" in err

    @pytest.mark.parametrize("args, text", [
        (["lfrc", "estimate", "--features"], "1.0 x\n"),
        (["rstar", "kernel", "--chi", "1", "--m", "100", "--gram"], "1 0\n0\n"),
        (["rstar", "linear", "--tau", "0.5", "--n", "100", "--weights"], "1.0 x\n"),
        (["rstar", "linear", "--tau", "0.5", "--n", "100", "--weights"], "1 2 3\n4 5\n"),
        (["rstar", "linear", "--tau", "0.5", "--n", "100", "--weights"], "1 nan\n0 1\n"),
        (["lfrc", "estimate", "--features"], "1.0 inf\n"),
        # no numbers: an empty file and one of blank lines
        (["rstar", "linear", "--chi", "1", "--m", "1", "--weights"], ""),
        (["lfrc", "estimate", "--features"], ""),
        (["rstar", "kernel", "--chi", "1", "--m", "100", "--gram"], "\n  \n\n"),
        (["lfrc", "estimate", "--features"], "\n  \n\n"),
    ])
    def test_malformed_matrix_file_exit_3(self, tmp_path, recwarn, args, text):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code, out, err = run_cli(args + [str(bad)])
        assert code == 3 and "bad.txt" in err
        assert "Traceback" not in err
        assert out == "" and not recwarn.list

    @pytest.mark.parametrize("args", [
        ["lfrc", "estimate", "--r", "nan"],
        ["lfrc", "estimate", "--mtilde", "nan"],
        ["lfrc", "estimate", "--mtilde", "inf"],
        ["lfrc", "estimate", "--seed=-1"],
    ])
    def test_bad_lfrc_estimate_input_exit_2(self, tmp_path, args):
        feats = tmp_path / "x.txt"
        np.savetxt(feats, np.array([[1.0, 0.0], [0.5, 2.0], [0.0, 1.0]]))
        code, out, err = run_cli(args + ["--features", str(feats)])
        assert code == 2 and out == ""
        assert "Traceback" not in err

    def test_unbracketable_multiplier_exit_2(self, tmp_path):
        # a direction with eigenvalue 1e-16, below the rank cut-off, keeps
        # the aggregates outside range(S); r = 1e-20 puts the multiplier
        # past the bracket limit
        feats = tmp_path / "x.txt"
        feats.write_text("1 1e-8\n-1 2e-8\n0.5 -1e-8\n")
        code, out, err = run_cli(["lfrc", "estimate", "--features", str(feats),
                                  "--r", "1e-20"])
        assert code == 2 and out == "" and "bracket" in err
        assert "Traceback" not in err

    def test_huge_estimate_has_a_finite_stderr(self, tmp_path):
        # per-draw values near 1e299, whose squares overflow; the standard
        # error is finite, and the command used to exit 2 on it
        rng = np.random.default_rng(0)
        rng.normal(size=(3, 2))
        feats = tmp_path / "x.txt"
        np.savetxt(feats, rng.normal(size=(7, 3)))
        code, out, err = run_cli(["lfrc", "estimate", "--features", str(feats),
                                  "--r", "inf", "--mtilde", "1e300"])
        assert code == 0, err
        assert out.strip() == "lfrc_estimate = 5.77071e+299 stderr = 1.75482e+298"

    def test_huge_ball_leaves_the_ellipsoid(self, tmp_path):
        # m_tilde^2 overflows: the ball never binds, so the value is the
        # ellipsoid-only supremum, not an OverflowError
        feats = tmp_path / "x.txt"
        np.savetxt(feats, np.random.default_rng(0).normal(size=(7, 3)))
        code, out, err = run_cli(["lfrc", "estimate", "--features", str(feats),
                                  "--r", "0.1", "--mtilde", "1e300"])
        assert code == 0 and "lfrc_estimate = 0.204838" in out

    @pytest.mark.parametrize("args", [
        ["lfrc", "fixed-point", "--a", "nan"],
        ["lfrc", "fixed-point", "--a", "2", "--b", "inf"],
        ["lfrc", "fixed-point", "--a", "2", "--r-hi", "nan"],
        ["lfrc", "fixed-point", "--a", "2", "--r-hi", "inf"],
        ["lfrc", "fixed-point", "--a", "2", "--r-hi", "0"],
        ["lfrc", "fixed-point", "--a", "2", "--tol", "nan"],
        ["lfrc", "fixed-point", "--a", "2", "--tol", "0"],
        ["rstar", "kernel", "--chi", "1", "--m", "nan", "--gram", "MATRIX"],
        ["rstar", "kernel", "--chi", "inf", "--m", "100", "--gram", "MATRIX"],
        ["rstar", "linear", "--chi", "1", "--m", "nan", "--weights", "MATRIX"],
        ["rstar", "linear", "--tau", "0.5", "--n", "100", "--d-max=-1", "--weights", "MATRIX"],
        ["rstar", "kernel", "--chi", "1", "--m", "1e-320", "--gram", "MATRIX"],
        # chi/m times the spectrum overflows: 0 * inf and inf
        ["rstar", "kernel", "--chi", "1", "--m", "1e-300", "--mtilde", "0", "--gram", "BIG"],
        ["rstar", "kernel", "--chi", "1e300", "--m", "1e-8", "--gram", "BIG"],
        ["rstar", "linear", "--chi", "1", "--m", "1e-300", "--mtilde", "0", "--weights", "BIG"],
        ["rstar", "linear", "--chi", "1", "--m", "1e-300", "--mbar", "1e-300",
         "--weights", "BIG"],
        # n_tilde^2 and m_bar^2 overflow
        ["rstar", "linear", "--tau", "0.5", "--n", "1e300", "--weights", "MATRIX"],
        ["rstar", "linear", "--chi", "1", "--m", "10", "--mbar", "1e300", "--weights", "MATRIX"],
        ["bound", "ours-macroauc", "--rstar", "0.01", "--K", "1", "--tau", "0.3", "--n", "1e300",
         "--t", "1"],
    ])
    def test_bad_fixed_point_or_rstar_input_exit_2(self, tmp_path, args):
        matrix, big = tmp_path / "m.txt", tmp_path / "big.txt"
        np.savetxt(matrix, np.diag([1.0, 0.5]))
        np.savetxt(big, np.diag([1e300, 1e299]))
        args = [{"MATRIX": str(matrix), "BIG": str(big)}.get(a, a) for a in args]
        code, out, err = run_cli(args)
        assert code == 2 and out == ""
        assert "Traceback" not in err

    def test_rstar_linear_zero_cut_cap_allowed(self, tmp_path):
        # report_bounds caps the cut at 0 when rate < 1 / min(D, K)
        w = tmp_path / "w.txt"
        np.savetxt(w, np.diag([1.0, 0.5]))
        code, out, _ = run_cli(["rstar", "linear", "--weights", str(w), "--tau", "0.5",
                                "--n", "100", "--d-max", "0"])
        assert code == 0 and "cut = 0" in out

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

    @pytest.mark.parametrize("solved, message", [
        # an optimum of 3 against C5's cover weight 5 * 0.5
        ((3.0, 0.5 * np.ones(5)), "error: LP duality gap: cover weight 2.5 vs optimum 3.0"),
        # weight on C5's sets {0, 2} and {1, 3} alone leaves vertex 4 out
        ((2.0, np.array([1.0, 0.0, 1.0, 0.0, 0.0])),
         "error: LP duals do not cover every vertex"),
        (ConvergenceError("packing LP is unbounded"), "error: packing LP is unbounded")])
    def test_chi_reports_a_failed_lp_without_a_traceback(self, tmp_path, monkeypatch,
                                                          solved, message):
        def simplex_max(A):
            if isinstance(solved, Exception):
                raise solved
            return solved

        g = DependencyGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        edges = tmp_path / "c5.txt"
        edges.write_text(g.to_text())
        monkeypatch.setattr(graphdep, "_simplex_max", simplex_max)
        code, out, err = run_cli(["graph", "chi", "--edges", str(edges)])
        assert (code, out, err) == (2, "", message + "\n")

    @pytest.mark.parametrize("graph, printed, cover", [
        (bipartite_ranking_graph(3, 4)[0], "chi_f = 4",
         "1.0: 0 5 10\n1.0: 1 4 11\n1.0: 2 7 8\n1.0: 3 6 9\n"),
        (DependencyGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]), "chi_f = 2.5",
         "0.5: 0 2\n0.5: 0 3\n0.5: 1 3\n0.5: 1 4\n0.5: 2 4\n"),
        (DependencyGraph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)]), "chi_f = 2.33333",
         "0.3333333333333333: 0 2 4\n0.3333333333333333: 0 2 5\n"
         "0.33333333333333337: 0 3 5\n0.3333333333333333: 1 3 5\n"
         "0.3333333333333333: 1 3 6\n0.33333333333333337: 1 4 6\n"
         "0.3333333333333333: 2 4 6\n"),
        # the icosahedron: vertex-transitive, so its LP has many optimal covers
        (DependencyGraph.from_text(
            "12\n0 1\n0 5\n0 7\n0 8\n0 11\n1 2\n1 5\n1 6\n1 8\n2 3\n2 6\n2 8\n2 9\n"
            "3 4\n3 6\n3 9\n3 10\n4 5\n4 6\n4 10\n4 11\n5 6\n5 11\n7 8\n7 9\n7 10\n"
            "7 11\n8 9\n9 10\n10 11\n"), "chi_f = 4",
         "1.0: 0 6 9\n1.0: 1 3 11\n1.0: 2 4 7\n1.0: 5 8 10\n")],
        ids=["rook3x4", "C5", "C7", "icosahedron"])
    def test_chi_out_bytes(self, tmp_path, graph, printed, cover):
        # the cover at the vertex the package's own simplex reaches, pinned
        # so that a change in the pivot rule shows
        edges, out_file = tmp_path / "g.txt", tmp_path / "cover.txt"
        edges.write_text(graph.to_text())
        code, out, err = run_cli(["graph", "chi", "--edges", str(edges),
                                  "--out", str(out_file)])
        assert (code, out, err) == (0, printed + "\n", "")
        assert out_file.read_text() == cover

    @pytest.mark.parametrize("n", [13, 10**7])
    def test_chi_refuses_a_large_graph_before_building_it(self, tmp_path, monkeypatch, n):
        edges = tmp_path / "big.txt"
        edges.write_text(f"{n}\n0 1\n")

        def build(cls, n_vertices, edge_iter):
            raise AssertionError("graph built before its vertex count was checked")

        monkeypatch.setattr(DependencyGraph, "from_edges", classmethod(build))
        code, out, err = run_cli(["graph", "chi", "--edges", str(edges)])
        assert code == 2 and out == ""
        assert (f"exact mode handles at most 12 vertices (got {n}); use greedy_cover"
                in err)

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

    @pytest.mark.parametrize("command, edges_text, cover_text, line", [
        ("chi", "3\n0 x\n", "", 2),                           # non-integer token
        ("chi", "3\n0 1 2\n", "", 2),                         # three tokens
        ("cover-check", "3\n0 x\n", "1.0: 0 1 2\n", 2),
        ("cover-check", "3\n0 1 2\n", "1.0: 0 1 2\n", 2),
        ("cover-check", "3\n", "1.0: 0 1 2\n1.0 0 1 2\n", 2),  # no colon
        ("cover-check", "3\n", "1.0: 0 y\n", 1),              # non-integer vertex
    ])
    def test_malformed_files_exit_3(self, tmp_path, command, edges_text,
                                    cover_text, line):
        edges, cov = tmp_path / "g.txt", tmp_path / "cover.txt"
        edges.write_text(edges_text)
        cov.write_text(cover_text)
        argv = ["graph", command, "--edges", str(edges)]
        if command == "cover-check":
            argv += ["--cover", str(cov)]
        code, _, err = run_cli(argv)
        assert code == 3
        assert f"line {line}:" in err

    @pytest.mark.parametrize("args", [
        ["graph", "chi", "--edges", "{missing}"],
        ["graph", "cover-check", "--edges", "{present}", "--cover", "{missing}"],
    ])
    def test_missing_file_exit_3(self, tmp_path, args):
        present = tmp_path / "g.txt"
        present.write_text("2\n0 1\n")
        missing = tmp_path / "absent.txt"
        argv = [a.format(missing=missing, present=present) for a in args]
        code, _, err = run_cli(argv)
        assert code == 3 and "absent.txt" in err


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

    def test_header_without_equals_exit_3(self, tmp_path):
        bad = tmp_path / "bad.mlsvm"
        bad.write_text("# samples 1 #features=1 #labels=1\n0\t0:1\n")
        code, _, err = run_cli(["experiment", "--data", str(bad),
                                "--seeds", "0", "--epochs", "1"])
        assert code == 3 and "bad header line" in err

    @pytest.mark.parametrize("n, d, k", [(12, 10**11, 1), (2, 1, 10**12)])
    def test_header_too_large_exit_3(self, tmp_path, n, d, k):
        bad = tmp_path / "huge.mlsvm"
        bad.write_text(f"#samples={n} #features={d} #labels={k}\n" + "0\t0:1.0\n" * n)
        code, out, err = run_cli(["experiment", "--data", str(bad),
                                  "--seeds", "0", "--epochs", "1"])
        assert code == 3 and out == "" and "Traceback" not in err
        assert f"{n} samples x {d} features and {k} labels" in err
        assert "must not exceed 100000000" in err

    def test_huge_sample_count_checked_against_body_first(self, tmp_path):
        bad = tmp_path / "huge.mlsvm"
        bad.write_text("#samples=1000000000000 #features=1 #labels=1\n0\t0:1.0\n")
        code, _, err = run_cli(["experiment", "--data", str(bad),
                                "--seeds", "0", "--epochs", "1"])
        assert code == 3 and "header promises 1000000000000 samples, file has 1" in err

    def test_missing_data_exit_3(self, tmp_path):
        code, _, err = run_cli(["experiment", "--data", str(tmp_path / "absent.mlsvm"),
                                "--seeds", "0", "--epochs", "1"])
        assert code == 3 and "absent.mlsvm" in err

    @pytest.mark.parametrize("option, reason", [
        (["--seeds", "x"], "--seeds"), (["--seeds", "-1"], "--seeds"),
        (["--seeds", ""], "--seeds"), (["--seeds", "1.5"], "--seeds"),
        (["--folds", "0"], "folds"), (["--folds", "1"], "folds"),
        (["--lr", "nan"], "finite"), (["--lr", "inf"], "finite"),
        (["--grid", "nan"], "finite"), (["--grid", "0.01,inf"], "finite"),
        (["--grid", "x"], "numbers"),
        # weights overflow, so the bounds would read nan
        (["--lr", "1e300", "--grid", "0"], "m_tilde must be finite"),
        (["--t", "nan"], "t must be finite"), (["--t", "x"], "bad t value"),
        (["--rate", "nan"], "rate"), (["--rate", "-1"], "rate"),
    ])
    def test_bad_numeric_option_exit_2(self, tmp_path, option, reason):
        data = tmp_path / "toy.mlsvm"
        save_dataset(small_separable(n=12, d=3, k=2, seed=2), data)
        code, out, err = run_experiment_cli(["experiment", "--data", str(data),
                                             "--epochs", "1"] + option)
        assert code == 2 and reason in err, err
        assert "nan" not in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_exit_3(self, tmp_path, value):
        bad = tmp_path / "bad.mlsvm"
        bad.write_text(f"#samples=2 #features=1 #labels=1\n0\t0:1.0\n\t0:{value}\n")
        code, _, err = run_cli(["experiment", "--data", str(bad),
                                "--seeds", "0", "--epochs", "1"])
        assert code == 3 and "line 3" in err

    def test_overflowing_repeated_feature_exit_3(self, tmp_path):
        # each value is finite, their sum is not
        bad = tmp_path / "bad.mlsvm"
        bad.write_text("#samples=3 #features=2 #labels=1\n"
                       "0\t1:8.988465674311579e+307 1:8.98846567431158e+307\n\t0:1\n0\t1:2\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["experiment", "--data", str(bad),
                                      "--seeds", "0", "--epochs", "1"])
        assert (code, out, caught) == (3, "", [])
        assert err == (f"error: {bad}: line 2: repeated feature index 1 sums past "
                       "the float range\n")

    def test_overflowing_row_before_a_bad_token_is_the_one_named(self, tmp_path):
        # the first bad line is named, not the later line with a bad token
        bad = tmp_path / "bad.mlsvm"
        bad.write_text("#samples=3 #features=2 #labels=1\n"
                       "0\t1:8.988465674311579e+307 1:8.98846567431158e+307\n\t0:1\n0\t1:x\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["experiment", "--data", str(bad),
                                      "--seeds", "0", "--epochs", "1"])
        assert (code, out, caught) == (3, "", [])
        assert err == (f"error: {bad}: line 2: repeated feature index 1 sums past "
                       "the float range\n")

    def test_two_data_files_with_one_stem_exit_2(self, tmp_path):
        # both would write x.report.json; the second file does not even
        # parse, so exit 2 shows the clash is found before any load
        good, bad = tmp_path / "a" / "x.mlsvm", tmp_path / "b" / "x.mlsvm"
        good.parent.mkdir()
        bad.parent.mkdir()
        save_dataset(small_separable(n=12, d=3, k=2, seed=2), good)
        bad.write_text("not an mlsvm file\n")
        out_dir = tmp_path / "out"
        code, out, err = run_cli(["experiment", "--data", str(good), "--data", str(bad),
                                  "--seeds", "0", "--epochs", "1", "--out", str(out_dir)])
        assert code == 2 and out == ""
        assert str(good) in err and str(bad) in err and "'x'" in err
        assert not out_dir.exists()

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


class TestReportKeyOrder:
    """Reports serialize their records in field order; replayed and compared
    reports rely on that order staying put."""

    def test_verify_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["verify", "--structure", "iid:5", "--ineq", "lower_tail",
                        "--trials", "200", "--out", str(out)])[0] == 0
        payload = json.loads(out.read_text())
        assert list(payload) == ["config", "inequality", "form", "moments_mode", "n_trials",
                                 "t_grid", "rows", "violations", "resolved_config"]
        assert list(payload["config"]) == ["structure", "k_tasks", "m", "n_pos", "n_neg",
                                           "base", "base_p", "base_lo", "base_hi",
                                           "kernel", "centered", "seed"]

    def test_experiment_per_seed_report(self, tmp_path):
        data = tmp_path / "toy.mlsvm"
        save_dataset(small_separable(n=24, d=3, k=2, seed=2), data)
        assert run_cli(["experiment", "--data", str(data), "--seeds", "0", "--epochs", "1",
                        "--out", str(tmp_path)])[0] == 0
        report = json.loads((tmp_path / "toy.report.json").read_text())
        assert list(report["per_seed_reports"][0]) == ["bound_ours", "bound_prior", "r_star",
                                                      "d_star", "params", "provenance"]


class TestOptionTable:
    """Flags and config lines go through one converter per option."""

    VERIFY = ["verify", "--structure", "iid:5", "--ineq", "lower_tail", "--trials", "200"]
    BERNSTEIN = ["bound", "bernstein", "--c", "1", "--v", "1", "--t", "1"]

    @staticmethod
    def run_with_config(tmp_path, argv, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        return run_cli(argv + ["--config", str(cfg)])

    @pytest.mark.parametrize("argv, flag", [
        (VERIFY + ["--t-grid", ""], "--t-grid"),
        (VERIFY + ["--t-grid", ",,"], "--t-grid"),
        (BERNSTEIN + ["--tau", ""], "--tau"),
        (BERNSTEIN + ["--chi", ","], "--chi"),
        (BERNSTEIN + ["--m", ""], "--m"),
        (["experiment", "--data", "absent.mlsvm", "--grid", ","], "--grid"),
        (["experiment", "--data", "absent.mlsvm", "--seeds", ""], "--seeds"),
    ])
    def test_empty_list_exit_2(self, argv, flag):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert f"error: {flag}: expected comma-separated" in err

    def test_empty_items_are_skipped(self):
        assert run_cli(self.VERIFY + ["--t-grid", "1,,2"])[1] == \
            run_cli(self.VERIFY + ["--t-grid", "1,2"])[1]

    @pytest.mark.parametrize("value, same_as", [("TRUE", "1"), ("Yes", "true"), ("No", "0"),
                                                ("FALSE", "no")])
    def test_boolean_spellings(self, value, same_as):
        base = self.VERIFY + ["--kernel", "centered_product", "--centered"]
        code, out, _ = run_cli(base + [value])
        assert code == 0 and out == run_cli(base + [same_as])[1]

    def test_malformed_boolean_exit_2(self, tmp_path):
        code, out, err = run_cli(self.VERIFY + ["--centered", "maybe"])
        assert code == 2 and out == "" and "--centered" in err
        w = tmp_path / "w.txt"
        np.savetxt(w, np.diag([1.0, 0.5]))
        code, out, err = self.run_with_config(
            tmp_path, ["rstar", "linear", "--weights", str(w), "--tau", "0.5", "--n", "100"],
            "experiment-mode = maybe\n")
        assert code == 2 and out == "" and "--experiment-mode" in err

    @pytest.mark.parametrize("line, flag", [("rstar = x", "--rstar"), ("tau = x", "--tau"),
                                            ("k = 2.5", "--K"), ("b-const = x", "--B")])
    def test_unread_config_value_is_converted(self, tmp_path, line, flag):
        # the flag run exits 2 too, although bernstein reads none of these
        code, out, err = self.run_with_config(tmp_path, self.BERNSTEIN, line + "\n")
        assert code == 2 and out == "" and f"error: {flag}: expected" in err

    def test_config_choice_is_checked(self, tmp_path):
        # talagrand never reads the moments mode
        code, out, err = self.run_with_config(
            tmp_path, ["verify", "--structure", "iid:5", "--ineq", "talagrand",
                       "--trials", "200"], "moments = bogus\n")
        assert code == 2 and out == "" and "--moments: invalid choice 'bogus'" in err

    def test_seed_precedence(self, tmp_path):
        # flag, then GDBOUND_SEED, then config file, then default
        out, cfg = tmp_path / "r.json", tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n")
        argv = self.VERIFY + ["--out", str(out), "--config", str(cfg)]
        for extra, env, seed, text in [([], {}, 5, "5"),
                                       ([], {"GDBOUND_SEED": "0123"}, 123, "0123"),
                                       (["--seed", "09"], {"GDBOUND_SEED": "123"}, 9, "9")]:
            assert run_cli(argv + extra, env=env)[0] == 0
            payload = json.loads(out.read_text())
            assert (payload["config"]["seed"], payload["resolved_config"]["seed"]) == (seed, text)

    @pytest.mark.parametrize("text", ["base-p = 0.3\nbase_p = 0.5\n",
                                      "base-p = 0.3\nbase-p = 0.5\n"],
                             ids=["both spellings", "one spelling"])
    def test_last_config_line_wins_whatever_its_spelling(self, tmp_path, text):
        argv = ["verify", "--structure", "bipartite:3,3", "--base", "two_point",
                "--ineq", "bennett_general", "--trials", "500"]
        out = tmp_path / "r.json"
        code, stdout, _ = self.run_with_config(tmp_path, argv + ["--out", str(out)], text)
        assert code == 0 and stdout == run_cli(argv + ["--base-p", "0.5"])[1]
        payload = json.loads(out.read_text())
        assert (payload["config"]["base_p"], payload["resolved_config"]["base_p"]) == \
            (0.5, "0.5")

    @pytest.mark.parametrize("argv", [
        ["lfrc", "estimate", "--features", "x.txt"],
        ["lfrc", "fixed-point", "--a", "2"],
        ["rstar", "kernel", "--gram", "g.txt", "--chi", "1", "--m", "4"],
        ["rstar", "linear", "--weights", "w.txt", "--tau", "0.5", "--n", "100"],
        ["graph", "cover-check", "--edges", "e.txt", "--cover", "c.txt"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_out_only_where_something_is_written(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        code, out, err = self.run_with_config(tmp_path, argv, "out = r.json\n")
        assert code == 2 and out == "" and "unknown config key 'out'" in err

    def test_config_formula_must_match_the_positional(self, tmp_path):
        code, out, err = self.run_with_config(tmp_path, self.BERNSTEIN,
                                              "formula = talagrand-v\n")
        assert code == 2 and out == ""
        assert "config formula = 'talagrand-v' disagrees with the command line" in err
        code, out, _ = self.run_with_config(tmp_path, self.BERNSTEIN, "formula = bernstein\n")
        assert code == 0 and out == run_cli(self.BERNSTEIN)[1]

    def test_replaying_embedded_bound_config_reproduces_report(self, tmp_path):
        out1, out2, cfg = tmp_path / "r1.json", tmp_path / "r2.json", tmp_path / "replay.cfg"
        argv = ["bound", "bernstein", "--c", "1", "--v", "2", "--t", "ln100"]
        code, stdout, _ = run_cli(argv + ["--out", str(out1)])
        assert code == 0
        embedded = json.loads(out1.read_text())["resolved_config"]
        assert embedded["formula"] == "bernstein"
        cfg.write_text("".join(f"{k.replace('_', '-')} = {v}\n"
                               for k, v in embedded.items() if v != "None"))
        code, replayed, _ = run_cli(["bound", "bernstein", "--config", str(cfg),
                                     "--out", str(out2)])
        assert code == 0 and replayed == stdout
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_value_overridden_by_a_flag_is_converted(self, tmp_path):
        code, out, err = self.run_with_config(tmp_path, self.BERNSTEIN + ["--rstar", "1"],
                                              "rstar = x\n")
        assert code == 2 and out == "" and "error: --rstar: expected float" in err

    def test_bad_formula_exit_2(self):
        code, out, err = run_cli(["bound", "nonsense"])
        assert code == 2 and out == "" and "formula: invalid choice 'nonsense'" in err

    def test_embedded_strings(self, tmp_path):
        out = tmp_path / "prior.json"
        prior = ["bound", "prior-macroauc", "--K", "1", "--tau", "0.3", "--n", "100",
                 "--mbar", "1", "--t", "ln100", "--out", str(out)]
        assert run_cli(prior + ["--mtilde", "1"])[0] == 0
        embedded = json.loads(out.read_text())["resolved_config"]
        # a numeric flag or default as its value, other flags as written
        assert (embedded["mtilde"], embedded["mu"], embedded["t"], embedded["rstar"]) == \
            ("1.0", "1.0", "ln100", "None")
        assert self.run_with_config(tmp_path, prior, "mtilde = 1\nmu = 1e0\n")[0] == 0
        embedded = json.loads(out.read_text())["resolved_config"]
        assert (embedded["mtilde"], embedded["mu"]) == ("1", "1e0")  # config text as written

    def test_bennett_general_report(self, tmp_path):
        out = tmp_path / "b.json"
        code, text, _ = run_cli(["bound", "bennett-general", "--ez", "0.5", "--sigma2", "0.5",
                                 "--chi", "1", "--t", "1", "--out", str(out)])
        assert code == 0 and text.splitlines()[1].startswith("bennett-general-simple [")
        value = json.loads(out.read_text())["value"]
        assert list(value) == ["p_tight", "p_simple"]
        assert f"= {value['p_simple']:.6g}" in text

    @pytest.mark.parametrize("path, table", [(path, table) for path, _, _, table in COMMANDS],
                             ids=[" ".join(path) for path, _, _, _ in COMMANDS])
    def test_help_lists_every_option_with_its_default(self, capsys, path, table):
        with pytest.raises(SystemExit) as exc:
            main([*path, "--help"])
        assert exc.value.code == 0
        # an option's entry starts two spaces in; its help may wrap onto
        # more deeply indented lines
        entries, current = {}, None
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("  ") and not line.startswith("   "):
                current = line.split()[0]
                entries[current] = line
            elif current and line.startswith("   "):
                entries[current] += line
        for opt in table:
            key = opt.flag if opt.flag.startswith("-") else "{" + ",".join(opt.choices) + "}"
            entry = " ".join(entries[key].split())
            if opt.default is None:
                assert "default:" not in entry, entry
            else:
                assert f"(default: {opt.default})" in entry, entry

    @pytest.mark.parametrize("path, says", [
        (("verify",), "write the full-precision JSON report here"),
        (("bound",), "write the full-precision value as a JSON report here"),
        (("experiment",), "directory for one full-precision JSON report per dataset "
                          "and comparison.txt"),
        (("graph", "chi"), "write the cover text here instead of to stdout"),
    ], ids=["verify", "bound", "experiment", "graph chi"])
    def test_out_help_says_what_is_written(self, capsys, path, says):
        with pytest.raises(SystemExit) as exc:
            main([*path, "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"--out OUT {says}" in help_text

    def test_moments_help_says_talagrand_estimates(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "--ineq talagrand always estimates E[Z]" in help_text


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gdbound.cli", "bound", "bernstein",
             "--c", "1", "--v", "1", "--t", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "2.08088" in proc.stdout


class TestParserReuse:
    """`main` builds its parser on its first call and reuses it; a reused
    parser must answer every call as a fresh process does."""

    @staticmethod
    def in_process(argv):
        import io
        from contextlib import redirect_stderr, redirect_stdout

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def fresh_process(argv):
        import gdbound

        src = str(Path(gdbound.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "gdbound.cli", *argv],
                              capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout, proc.stderr

    def test_reused_parser_answers_as_fresh_processes(self, tmp_path, monkeypatch):
        import gdbound.cli as cli

        monkeypatch.setenv("COLUMNS", "100")  # help text wraps to the same width
        graph, _ = bipartite_ranking_graph(3, 4)
        edges = tmp_path / "rook.txt"
        edges.write_text(graph.to_text())
        calls = [["bound", "bernstein", "--c", "1", "--nope", "2"],
                 ["--help"],
                 ["bound", "bernstein", "--c", "1", "--v", "1", "--t", "1"],
                 ["graph", "chi", "--edges", str(edges)],
                 ["lfrc", "fixed-point", "--a", "2", "--b", "1"],
                 ["lfrc", "fixed-point", "--b", "1"],
                 ["graph", "chi", "--help"],
                 ["--help"]]
        got = [self.in_process(calls[0])]

        def rebuilt():
            raise AssertionError("main built a second parser")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        got += [self.in_process(argv) for argv in calls[1:]]
        assert [code for code, _, _ in got] == [2, 0, 0, 0, 0, 2, 0, 0]
        assert got[1] == got[-1]
        assert got == [self.fresh_process(argv) for argv in calls]


NO_SCIPY = """
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
import tempfile
from pathlib import Path
import numpy as np
import gdbound.cli as cli
from gdbound.graphdep import bipartite_ranking_graph
from gdbound.macroauc import MultiLabelDataset, save_dataset

cli.build_parser()
print("parser ok")
print("bound", cli.main(["bound", "bernstein", "--c", "1", "--v", "1", "--t", "1"]))
tmp = Path(tempfile.mkdtemp())
rng = np.random.default_rng(0)
save_dataset(MultiLabelDataset(rng.normal(size=(12, 3)),
                               np.where(rng.random((12, 2)) < 0.5, 1, -1).astype(np.int8)),
             tmp / "tiny.mlsvm")
print("experiment", cli.main(["experiment", "--data", str(tmp / "tiny.mlsvm"), "--seeds", "0",
                              "--folds", "2", "--epochs", "1"]))
graph, _ = bipartite_ranking_graph(3, 4)
(tmp / "rook.txt").write_text(graph.to_text())
print("chi", cli.main(["graph", "chi", "--edges", str(tmp / "rook.txt")]))
print("scipy modules", sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_command_loads_scipy():
    """In a fresh interpreter where `import scipy` raises ImportError, the
    parser, `bound`, `experiment` and `graph chi` all run."""
    import gdbound

    src = str(Path(gdbound.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], capture_output=True,
                          text=True, env=env, check=True)
    lines = proc.stdout.splitlines()
    for stage in ("parser ok", "bound 0", "experiment 0", "chi 0"):
        assert stage in lines, proc.stdout
    assert "chi_f = 4" in lines
    assert lines[-1] == "scipy modules []"


def test_the_parser_loads_no_process_pool():
    """`train_many` forks its workers with os.fork: building the parser, as
    every command does, loads neither multiprocessing nor
    concurrent.futures."""
    import gdbound

    src = str(Path(gdbound.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; import gdbound.cli; gdbound.cli.build_parser(); "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"


# Runs each argv of a JSON list with `main`, output discarded, and prints the
# exit codes as JSON: an exception that escapes `main` is named instead.
EXIT_CODES = """
import contextlib
import io
import json
import sys

from gdbound.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except Exception as exc:
            codes.append(type(exc).__name__)
print(json.dumps(codes))
"""


def test_file_commands_do_not_use_the_locale_encoding(tmp_path):
    """Every command that reads or writes a file names its encoding: under
    `-X warn_default_encoding -W error::EncodingWarning` each exits as in a
    plain run, so the bytes it reads and writes do not depend on the locale."""
    import gdbound

    save_dataset(small_separable(n=24, d=4, k=2, seed=1), tmp_path / "tiny.mlsvm")
    graph, _ = bipartite_ranking_graph(3, 4)
    (tmp_path / "rook.txt").write_text(graph.to_text(), encoding="utf-8")
    (tmp_path / "x.txt").write_text("1 0\n0 2\n1 1\n", encoding="utf-8")
    (tmp_path / "gram.txt").write_text("2 1\n1 2\n", encoding="utf-8")
    (tmp_path / "bound.cfg").write_text("c = 1\nv = 2\nt = 1\n", encoding="utf-8")
    runs = [
        ["verify", "--structure", "iid:10", "--ineq", "bennett_general", "--trials", "200",
         "--out", "verify.json"],
        ["bound", "bernstein", "--c", "1", "--v", "1", "--t", "1", "--out", "bound.json"],
        ["lfrc", "estimate", "--features", "x.txt", "--draws", "5"],
        ["rstar", "kernel", "--gram", "gram.txt", "--chi", "1", "--m", "2"],
        ["rstar", "linear", "--weights", "x.txt", "--tau", "0.5", "--n", "100"],
        ["experiment", "--data", "tiny.mlsvm", "--seeds", "0", "--folds", "2",
         "--epochs", "1", "--out", "exp"],
        ["graph", "chi", "--edges", "rook.txt", "--out", "cover.txt"],
        ["graph", "cover-check", "--edges", "rook.txt", "--cover", "cover.txt"],
        ["bound", "bernstein", "--config", "bound.cfg"],
    ]
    src = str(Path(gdbound.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def exit_codes(*flags):
        proc = subprocess.run([sys.executable, *flags, "-c", EXIT_CODES, json.dumps(runs)],
                              capture_output=True, text=True, env=env, cwd=tmp_path,
                              check=True)
        return json.loads(proc.stdout)

    plain = exit_codes()
    assert plain == [0] * len(runs)
    assert exit_codes("-X", "warn_default_encoding", "-W", "error::EncodingWarning") == plain
