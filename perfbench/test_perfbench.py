"""Fast self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from a checkout root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gdbound import bounds, concentration, macroauc  # noqa: E402


def test_tracer_records_only_inside_ops_and_restores_names():
    original = concentration.bernstein_deviation
    tracer = spans.Tracer()
    tracer.install([("gdbound.concentration", "bernstein_deviation", "bern", None),
                    ("gdbound.concentration", "bennett_tail_refined", "refined", None)])
    try:
        concentration.bernstein_deviation(1.0, 1.0, 1.0)
        assert tracer.spans == []
        inp = concentration.TailBoundInput(b=1.0, EZ=1.0, sigma_sq=1.0, chi_list=(1.0,))
        with tracer.op(0):
            concentration.bernstein_deviation(1.0, 1.0, 1.0)
            concentration.bennett_tail_refined(inp, 1.0)
    finally:
        tracer.uninstall()
    assert concentration.bernstein_deviation is original
    names = [s["name"] for s in tracer.as_records()]
    assert names == ["op", "bern", "refined"]
    table = tracer.self_times()
    op_total, op_self, _ = table["op"]
    assert op_self == pytest.approx(op_total - table["bern"][0] - table["refined"][0])
    assert all(s["op_id"] == 0 for s in tracer.as_records())


def test_tracer_rebinds_names_imported_into_other_modules():
    tracer = spans.Tracer()
    tracer.install([("gdbound.bounds", "rstar_linear", "bounds.rstar_linear", None)])
    try:
        # macroauc holds its own binding, made by `from .bounds import rstar_linear`
        assert macroauc.rstar_linear is bounds.rstar_linear
        assert hasattr(macroauc.rstar_linear, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(macroauc.rstar_linear, "__wrapped__")


def test_missing_traced_name_is_an_error():
    with pytest.raises(spans.BenchError, match="missing"):
        spans.Tracer().install([("gdbound.macroauc", "no_such_layer", "x", None)])


def test_every_layer_target_resolves():
    tracer = spans.Tracer()
    tracer.install(layers.targets())
    tracer.uninstall()


def test_generators_are_seeded_and_parse(tmp_path):
    a = inputs.mlsvm_text(*inputs.cal500_shaped(np.random.default_rng(5)))
    b = inputs.mlsvm_text(*inputs.cal500_shaped(np.random.default_rng(5)))
    assert a == b
    path = tmp_path / "d.mlsvm"
    path.write_text(a)
    ds = macroauc.load_dataset(path)
    assert (ds.n_samples, ds.n_features, ds.n_labels) == (120, 20, 60)
    positives = (ds.labels == 1).sum(axis=0)
    assert (positives <= 3).sum() >= 6
    X, Y = inputs.emotions_shaped(np.random.default_rng(5))
    assert X.shape == (593, 72) and Y.shape == (593, 6)
    ops = inputs.verify_ops(np.random.default_rng(5), trials=10)
    assert [k for k, _ in ops] == [k for k, _ in inputs.VERIFY_MIX]


@pytest.mark.parametrize("key,argv", inputs.verify_ops(np.random.default_rng(1), trials=500))
def test_verify_bound_recomputation_matches_the_library(key, argv, tmp_path):
    out = tmp_path / "r.json"
    code, _, _ = workloads.call_cli(argv + ["--out", str(out)])
    assert code == 0
    for row in json.loads(out.read_text())["rows"]:
        assert row["bound"] == pytest.approx(workloads.expected_bound(key, row), rel=1e-12)


def test_verify_check_flags_a_wrong_bound(tmp_path):
    (key, argv), = inputs.verify_ops(np.random.default_rng(1), trials=500)[:1]
    out = tmp_path / "r.json"
    workloads.call_cli(argv + ["--out", str(out)])
    payload = json.loads(out.read_text())
    payload["rows"][0]["bound"] *= 1.01
    output = {"code": 0, "stdout": "", "stderr": "", "report": json.dumps(payload).encode()}
    assert any("recomputed" in p for p in workloads.Verify.check(None, key, output))


def test_tiny_experiment_op_checks_and_replays(tmp_path):
    class Tiny(workloads.ExperimentManyLabel):
        epochs = 1
    wl = Tiny(tmp_path, np.random.default_rng(2))
    _, first, facts = wl.op("seeded", 0)
    _, second, _ = wl.op("seeded", 1)
    assert wl.check("seeded", first) == []
    assert first == second
    assert facts["cv_skipped_folds"] >= 0
    bad = dict(first, report=first["report"].replace(b'"smaller_bound": "', b'"smaller_bound": "x'))
    assert wl.check("seeded", bad)


def test_tiny_certify_op(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "RANK_POS", 4)
    monkeypatch.setattr(workloads, "RANK_NEG", 3)
    monkeypatch.setattr(workloads, "PAIR_DIM", 6)
    monkeypatch.setattr(workloads, "LFRC_DRAWS", 5)
    wl = workloads.Certify(tmp_path, np.random.default_rng(3))
    _, output, facts = wl.op(wl.round[0], 0)
    assert wl.check(wl.round[0], output) == []
    assert facts["greedy_weight_ratio"] >= 1.0 and facts["fixed_point_fn_evals"] > 0


def test_check_outputs_catches_non_identical_replay():
    class Fake:
        round = ["a"]

        def check(self, key, output):
            return []
    failed, problems = run.check_outputs(Fake(), [("a", b"1"), ("a", b"2")])
    assert failed == 1 and "differs" in problems[0]
    failed, problems = run.check_outputs(Fake(), [("a", b"1")])
    assert failed == 0 and "never replayed" in problems[0]


def test_latency_summary_reports_a_percentile_only_with_ten_samples_beyond():
    assert set(run.latency_summary([1.0] * 39)) == {"p50", "samples"}
    assert "p75" in run.latency_summary([float(i) for i in range(40)])
    assert "p90" in run.latency_summary([float(i) for i in range(100)])


def test_per_layer_metrics_cover_benchmark_json():
    tracer = spans.Tracer()
    with tracer.op(0):
        pass
    metrics = layers.per_layer_metrics(tracer, 1, {}, {m: 0.1 for m in layers.IMPORTED_MODULES},
                                       0.0)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in listed} == set(metrics)
    assert all(metrics[m["name"]][1] == m["unit"] for m in listed)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
