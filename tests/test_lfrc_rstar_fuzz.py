"""Property tests for `lfrc` and `rstar` on arbitrary option values.

Whatever the options and matrix files hold, both commands must answer with
a documented exit code (0 ok, 1 failed check, 2 usage, 3 parse), print no
traceback and never print `nan` or `inf`, and the same options written to a
`--config` file must answer the same.  The CLI runs in-process, so an
uncaught exception fails the test.  Matrix files come from a fixed set
that holds rank-deficient, zero, non-PSD and badly scaled (1e-150, 1e150,
1e200) matrices; draws stay at or below 17, so every example runs in
milliseconds.  A run that exits 2 must not have reached its command's
costly stage (`test_refuses_before_the_costly_stage`).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gdbound import cli, lfrc
from gdbound.cli import COMMANDS
from test_verify_bound_fuzz import NUMBER, assert_clean, config_path, flags, run  # noqa: F401

rng = np.random.default_rng(0)
MATRICES = {
    "small": rng.normal(size=(3, 2)),
    "odd": rng.normal(size=(7, 3)),
    "rank1": np.tile([1.0, -2.0, 0.5], (4, 1)),
    "zero": np.zeros((3, 2)),
    "one_row": np.array([[0.3, -1.2, 2.0]]),
    "wide": rng.normal(size=(2, 6)),
    "tiny": rng.normal(size=(4, 2)) * 1e-150,
    "big": rng.normal(size=(4, 2)) * 1e150,
    "huge": rng.normal(size=(2, 2)) * 1e200,
    "psd": np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 0.5]]),
    "diag": np.diag([1.0, 0.5]),
    "non_psd": np.array([[1.0, 2.0], [2.0, 1.0]]),
    "asymmetric": np.array([[1.0, 0.5], [0.0, 1.0]]),
    "diag_big": np.diag([1e300, 1e299]),
    "diag_tiny": np.diag([1e-300, 1e-310]),
}
NAMES = sorted(MATRICES)


@pytest.fixture(scope="module")
def matrix_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrices")
    for name, matrix in MATRICES.items():
        np.savetxt(root / f"{name}.txt", matrix)
    return root


files = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3)
# square, symmetric and PSD: the kernel examples draw them as often as any
GRAMS = ["diag", "diag_big", "diag_tiny", "psd", "zero"]
grams = st.lists(st.one_of(st.sampled_from(GRAMS), st.sampled_from(NAMES)),
                 min_size=1, max_size=2)
number_list = st.lists(NUMBER, min_size=1, max_size=3).map(",".join)
ESTIMATE_VALUES = {
    "--mtilde": NUMBER,
    "--r": st.one_of(NUMBER, st.sampled_from(["none", "-inf", "0.01", "100"])),
    "--draws": st.sampled_from(["1", "2", "17", "0", "-1", "x", "2.5"]),
    "--seed": st.sampled_from(["0", "1", "-1", "x", "99999999999999999999"]),
}
estimate_options = st.fixed_dictionaries({}, optional=ESTIMATE_VALUES)

# fixed-point and rstar options start from valid values; each example
# overrides or drops up to three, so that a good share prints a result
OPTION_VALUE = st.one_of(NUMBER, number_list, st.none())
FIXED_POINT_DEFAULTS = {"--a": "2", "--b": "3", "--tol": "1e-10", "--r-hi": "1e6"}
LINEAR_DEFAULTS = {"--tau": "0.5,0.25", "--n": "100", "--mtilde": "1", "--mbar": "1",
                   "--chi": "1,2", "--m": "50,80", "--d-max": "1",
                   "--experiment-mode": "false"}
LINEAR_VALUE = st.one_of(OPTION_VALUE, st.sampled_from(["0", "-1", "x", "1.5", "true"]))


def kernel_defaults(n_grams):
    """One chi and one m per Gram file."""
    return {"--chi": ",".join(["1"] * n_grams), "--m": ",".join(["100"] * n_grams),
            "--mtilde": "1"}


def changes(keys, values):
    return st.dictionaries(st.sampled_from(sorted(keys)), values, max_size=3)


def with_changes(defaults, changes):
    return {key: value for key, value in {**defaults, **changes}.items()
            if value is not None}


def matrix_files(names, root):
    return [str(root / f"{name}.txt") for name in names]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(names=files, options=estimate_options, underscores=st.booleans())
def test_lfrc_estimate_fails_cleanly(matrix_dir, config_path, names, options, underscores):
    assert_clean(["lfrc", "estimate"],
                 {"--features": matrix_files(names, matrix_dir), **options},
                 config_path, underscores)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(options=changes(FIXED_POINT_DEFAULTS, st.one_of(NUMBER, st.just("x"), st.none())),
       underscores=st.booleans())
def test_lfrc_fixed_point_fails_cleanly(config_path, options, underscores):
    assert_clean(["lfrc", "fixed-point"], with_changes(FIXED_POINT_DEFAULTS, options),
                 config_path, underscores)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(names=grams, options=changes(["--chi", "--m", "--mtilde"], OPTION_VALUE),
       underscores=st.booleans())
def test_rstar_kernel_fails_cleanly(matrix_dir, config_path, names, options, underscores):
    # one chi and one m per Gram file unless the example changes them
    assert_clean(["rstar", "kernel"],
                 {"--gram": matrix_files(names, matrix_dir),
                  **with_changes(kernel_defaults(len(names)), options)},
                 config_path, underscores)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(NAMES), options=changes(LINEAR_DEFAULTS, LINEAR_VALUE),
       underscores=st.booleans())
def test_rstar_linear_fails_cleanly(matrix_dir, config_path, name, options, underscores):
    assert_clean(["rstar", "linear"],
                 {"--weights": matrix_files([name], matrix_dir)[0],
                  **with_changes(LINEAR_DEFAULTS, options)},
                 config_path, underscores)


# Each command's costly stage, and the options of its row of COMMANDS drawn
# as above, with matrix files by name; "missing" names no file, whose read
# exits 3.
COSTLY_STAGES = {("lfrc", "estimate"): (lfrc, "_sup_rows"),
                 ("rstar", "kernel"): (cli, "_load_matrix"),
                 ("rstar", "linear"): (cli, "_load_matrix")}
with_missing = st.one_of(st.sampled_from(NAMES), st.just("missing"))
RUNS = {
    ("lfrc", "estimate"): st.tuples(st.lists(with_missing, min_size=1, max_size=3),
                                    estimate_options).map(
        lambda drawn: {"--features": drawn[0], **drawn[1]}),
    ("rstar", "kernel"): st.tuples(st.lists(st.one_of(st.sampled_from(GRAMS), with_missing),
                                            min_size=1, max_size=2),
                                   changes(["--chi", "--m", "--mtilde"], OPTION_VALUE)).map(
        lambda drawn: {"--gram": drawn[0],
                       **with_changes(kernel_defaults(len(drawn[0])), drawn[1])}),
    ("rstar", "linear"): st.tuples(with_missing, changes(LINEAR_DEFAULTS, LINEAR_VALUE)).map(
        lambda drawn: {"--weights": [drawn[0]], **with_changes(LINEAR_DEFAULTS, drawn[1])}),
}
RUN_FLAGS = {("lfrc", "estimate"): {"--features", *ESTIMATE_VALUES},
             ("rstar", "kernel"): {"--gram", *kernel_defaults(1)},
             ("rstar", "linear"): {"--weights", *LINEAR_DEFAULTS}}
# Refusals that read what the costly stage returns: the matrix, or the
# suprema of the signed aggregates.
READ_REFUSALS = {
    ("lfrc", "estimate"): ("estimate_lfrc must be finite", "second-moment matrix has eigenvalue",
                           "multiplier search", "failed to bracket the active-constraint"),
    ("rstar", "kernel"): ("Gram matrix must be square", "Gram matrix must be symmetric",
                          "Gram matrix not PSD", "spectrum_from_gram must be finite",
                          "rstar_kernel must be finite"),
    ("rstar", "linear"): ("spectrum_from_weights must be finite",
                          "rstar_linear must be finite"),
}


def test_runs_draw_every_option_of_their_rows():
    tables = {path: table for path, *_, table in COMMANDS if path in RUNS}
    assert tables.keys() == RUNS.keys()
    for path, table in tables.items():
        assert {opt.flag for opt in table} == RUN_FLAGS[path]


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(sorted(RUNS)), data=st.data())
def test_refuses_before_the_costly_stage(matrix_dir, command, data):
    """An `lfrc estimate` or `rstar` run that exits 2 has not reached its
    costly stage (`lfrc._sup_rows`, or `cli._load_matrix` for `rstar`),
    apart from refusals that read what that stage returns:
      - a Gram that is not square, symmetric or PSD, and a spectrum or r*
        that is not finite (`rstar`);
      - an estimate that is not finite, a second-moment matrix with a
        negative eigenvalue, or a multiplier search that fails
        (`lfrc estimate`).
    """
    options = {flag: matrix_files(value, matrix_dir)
               if flag in ("--features", "--gram", "--weights") else value
               for flag, value in data.draw(RUNS[command]).items()}
    module, name = COSTLY_STAGES[command]
    calls, stage = [], getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(name)
        return stage(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, name, recorded)
        code, _, err = run([*command, *flags(options)])
    if code == 2 and calls:
        assert any(refusal in err for refusal in READ_REFUSALS[command]), (options, err)
