"""Property tests for `verify` and `bound` on arbitrary option values.

Whatever the options hold, both commands must answer with a documented exit
code (0 ok, 1 failed check, 2 usage, 3 parse), print no traceback and never
print `nan`.  The same options written to a `--config` file must give the
same exit code and the same stdout as the flags.  The CLI runs in-process,
so an uncaught exception fails the test; an argparse usage error is
SystemExit(2), exit code 2.  Structure sizes stay at or below 50 and
trials at or below 2,000, so every example runs in milliseconds.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gdbound.mcverify import INEQUALITIES
from test_cli import run_cli

NUMBER = st.sampled_from(["0", "1", "-1", "0.3", "0.5", "2", "1e300", "1e-300", "1e-320",
                          "-0", "nan", "inf", "x", ""])
SIZE = st.one_of(st.integers(1, 50).map(str), st.sampled_from(["0", "-1", "x", "", "2.5"]))
structure = st.one_of(
    st.tuples(SIZE, SIZE).map(lambda s: f"bipartite:{s[0]},{s[1]}"),
    SIZE.map(lambda m: f"iid:{m}"),
    st.sampled_from(["bipartite:5", "bipartite:1,2,3", "iid:", "ring:4", "", "bipartite"]))
trials = st.sampled_from(["1", "2", "10", "500", "2000", "0", "-1", "x", "1e3"])
t_grid = st.lists(st.sampled_from(["0", "0.25", "1", "4", "30", "1e300", "nan", "inf", "-1",
                                   "x", "ln100"]), max_size=4).map(",".join)
verify_options = st.fixed_dictionaries({}, optional={
    "--k": st.sampled_from(["1", "2", "3", "0", "-1", "x"]),
    "--base": st.sampled_from(["uniform", "two_point", "gaussian"]),
    "--base-p": NUMBER, "--base-lo": NUMBER, "--base-hi": NUMBER,
    "--kernel": st.sampled_from(["product", "centered_product", "mean"]),
    "--centered": st.sampled_from(["true", "false", "x"]),
    "--form": st.sampled_from(["probability", "deviation"]),
    "--moments": st.sampled_from(["analytic", "plugin"]),
    "--t-grid": t_grid,
    "--seed": st.sampled_from(["0", "1", "-1", "x", "99999999999999999999"]),
})

FORMULAS = ["bernstein", "bennett-general", "bennett-refined", "lower-tail", "talagrand-v",
            "ours-macroauc", "prior-macroauc", "kernel-macroauc", "excess-general"]
# Options valid for every formula; each example overrides or drops a few,
# so that a good share of the examples prints a bound.
BOUND_DEFAULTS = {"--c": "1", "--v": "1", "--t": "1", "--r": "0.1", "--rstar": "0.01",
                  "--K": "2", "--tau": "0.3,0.2", "--n": "100", "--mu": "1", "--B": "1",
                  "--mbar": "1", "--mtilde": "1", "--chi": "1,2", "--m": "10,20",
                  "--b-shift": "0", "--ez": "0.5", "--sigma2": "0.5"}
BOUND_VALUE = st.one_of(NUMBER, st.sampled_from(["0.3,0.2", "1,2", "ln100", "0.5,0.5,0.5"]),
                        st.none())
bound_options = st.dictionaries(st.sampled_from(sorted(BOUND_DEFAULTS)), BOUND_VALUE,
                                max_size=3).map(
    lambda changes: {key: value for key, value in {**BOUND_DEFAULTS, **changes}.items()
                     if value is not None})


def run(argv):
    try:
        return run_cli(argv)
    except SystemExit as exc:
        return exc.code, "", ""


def values(value):
    """A repeatable option holds a list of values."""
    return value if isinstance(value, list) else [value]


def flags(options):
    # `--opt=value` keeps argparse from reading a value such as -1 as a flag
    return [f"{key}={v}" for key, value in options.items() for v in values(value)]


# config keys are the option names; these two flags are spelled differently
CONFIG_KEYS = {"--K": "k", "--B": "b-const"}


def config_text(options, underscores):
    lines = []
    for flag, value in options.items():
        key = CONFIG_KEYS.get(flag, flag[2:])
        key = key.replace("-", "_") if underscores else key
        lines.append(f"{key} = {','.join(values(value))}\n")
    return "".join(lines)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "run.cfg"


def assert_clean(command, options, config_path, underscores):
    """Run the options as flags, check the answer, then run them from a
    config file and check that it answers the same."""
    argv = [*command, *flags(options)]
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    assert "nan" not in out, (argv, out)
    config_path.write_text(config_text(options, underscores))
    assert run([*command, "--config", str(config_path)])[:2] == (code, out), \
        (argv, config_path.read_text())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(structure=structure, ineq=st.sampled_from(INEQUALITIES), trials=trials,
       options=verify_options, underscores=st.booleans())
def test_verify_fails_cleanly(config_path, structure, ineq, trials, options, underscores):
    options = {"--structure": structure, "--ineq": ineq, "--trials": trials, **options}
    assert_clean(["verify"], options, config_path, underscores)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(formula=st.sampled_from(FORMULAS), options=bound_options, underscores=st.booleans())
def test_bound_fails_cleanly(config_path, formula, options, underscores):
    assert_clean(["bound", formula], options, config_path, underscores)
