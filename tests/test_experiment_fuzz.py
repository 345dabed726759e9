"""Property test for `experiment` on its numeric options.

Whatever `--seeds`, `--folds`, `--lr`, `--grid` and `--epochs` hold, the
command must answer with a documented exit code (0 ok, 1 failed check,
2 usage, 3 parse), print no traceback and never print `nan`.  The CLI runs
in-process on a tiny dataset, so an uncaught exception fails the test;
argparse rejects a malformed typed flag with SystemExit(2), exit code 2.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from gdbound.macroauc import save_dataset
from synthdata import small_separable
from test_cli import run_cli

NUMBER = st.sampled_from(["0", "1", "-1", "0.05", "1e-4", "0.5", "2", "1e300", "1e-300",
                          "-0", "nan", "inf", "-inf", "x", "", "1.5"])
# Each option mixes values that run with arbitrary ones, so that a good
# share of the examples trains and prints a table.
seeds = st.one_of(st.sampled_from(["0", "1", "0,1", "7"]),
                  st.lists(st.sampled_from(["0", "1", "7", "-1", "x", "", "1.5",
                                            "99999999999999999999"]),
                           min_size=1, max_size=3).map(",".join))
folds = st.sampled_from(["2", "3", "2", "3", "-1", "0", "1", "8", "9", "x", "2.5"])
lr = st.one_of(st.sampled_from(["0.05", "1", "2", "1e300", "1e-300"]), NUMBER)
grid = st.one_of(st.sampled_from(["0", "1e-4,0.1", "0.001"]),
                 st.lists(NUMBER, max_size=3).map(",".join))
epochs = st.sampled_from(["1", "1", "1", "1", "0", "-1", "x"])


def run(argv):
    try:
        return run_cli(argv)
    except SystemExit as exc:
        return exc.code, "", ""


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seeds=seeds, folds=folds, lr=lr, grid=grid, epochs=epochs)
def test_experiment_numeric_options_fail_cleanly(tmp_path, seeds, folds, lr, grid, epochs):
    data = tmp_path / "tiny.mlsvm"
    if not data.exists():
        save_dataset(small_separable(n=12, d=3, k=2, seed=2), data)
    code, out, err = run(["experiment", "--data", str(data), "--seeds", seeds,
                          "--folds", folds, "--lr", lr, "--grid", grid,
                          "--epochs", epochs])
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err
    assert "nan" not in out
