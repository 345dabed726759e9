"""Property tests for `verify` and `bound` on arbitrary option values.

Whatever the options hold, both commands must answer with a documented exit
code (0 ok, 1 failed check, 2 usage, 3 parse), print no traceback and never
print `nan` or `inf`.  The same options written to a `--config` file must give the
same exit code and the same stdout as the flags.  The CLI runs in-process,
so an uncaught exception fails the test; an argparse usage error is
SystemExit(2), exit code 2.  Structure sizes stay at or below 50 and
trials at or below 2,000, so every example runs in milliseconds.

A `verify` run that exits 2 must also exit before its first draw, apart
from the refusals that read the calibration run (see
`test_verify_refuses_before_sampling`).
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from gdbound import mcverify
from gdbound.mcverify import INEQUALITIES
from gdbound.cli import COMMANDS
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
VERIFY_VALUES = {
    "--k": st.sampled_from(["1", "2", "3", "0", "-1", "x"]),
    "--base": st.sampled_from(["uniform", "two_point", "gaussian"]),
    "--base-p": NUMBER, "--base-lo": NUMBER, "--base-hi": NUMBER,
    "--kernel": st.sampled_from(["product", "centered_product", "mean"]),
    "--centered": st.sampled_from(["true", "false", "x"]),
    "--form": st.sampled_from(["probability", "deviation"]),
    "--moments": st.sampled_from(["analytic", "plugin"]),
    "--t-grid": t_grid,
    "--seed": st.sampled_from(["0", "1", "-1", "x", "99999999999999999999"]),
}
verify_options = st.fixed_dictionaries({}, optional=VERIFY_VALUES)

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
    assert "nan" not in out and "inf" not in out, (argv, out)
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


def refused_after_the_calibration_run(ineq, options, err):
    """Whether a refusal reads the calibration run's result, one of the two
    that may follow the draws: a deviation row that overflows only at the
    calibrated v, or plugin moments whose calibration run estimates v = 0
    on a base that is not 0 a.s. (that one is refused before any draw)."""
    estimated = ineq == "talagrand" or options.get("--moments") == "plugin"
    if options.get("--form") == "deviation" and estimated and \
            "error: bernstein_deviation must be finite" in err:
        return True
    zero_base = options.get("--base") == "two_point" and options.get("--base-hi") in ("0", "-0")
    return ineq != "talagrand" and options.get("--moments") == "plugin" and \
        not zero_base and "error: v = (1+b)E[Z] + sigma^2 must be > 0" in err


# Values that run, each mixed with every value above, so that a good share
# of the examples reaches the draws: point masses at 0 and with a spread
# of 1e-300, plugin moments, and t far enough out that a deviation row
# overflows only at the calibrated v.
RUNNING = {"--k": ["1", "3"], "--base": ["two_point"], "--base-p": ["0.3", "0.5"],
           "--base-lo": ["0", "0.3"], "--base-hi": ["0", "0.3", "1", "1e-300"],
           "--centered": ["true", "false"], "--t-grid": ["0.25,1", "1,1e307", "1,1.7e308"],
           "--seed": ["0"]}


def mostly(running, values):
    """A running value three times in four, else any value of `values`."""
    return st.tuples(st.sampled_from(running), values, st.sampled_from(range(4))).map(
        lambda drawn: drawn[1] if drawn[2] == 0 else drawn[0])


preflight_options = st.fixed_dictionaries({}, optional={
    flag: mostly(RUNNING[flag], values) if flag in RUNNING else values
    for flag, values in VERIFY_VALUES.items()})


def test_preflight_options_draw_every_verify_row():
    (table,) = [table for path, *_, table in COMMANDS if path == ("verify",)]
    drawn = {"--structure", "--ineq", "--trials", *VERIFY_VALUES}
    assert {opt.flag for opt in table} - drawn == {"--out"}


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(structure=mostly(["iid:1", "iid:5", "bipartite:3,2"], structure),
       ineq=st.sampled_from(INEQUALITIES), trials=mostly(["10", "2000"], trials),
       options=preflight_options)
# endpoints one ulp apart: sup_f E[f^2] = (e2 - mean^2) / amp^2 cancels below 0
@example(structure="bipartite:2,3", ineq="talagrand", trials="1000",
         options={"--base": "two_point", "--base-lo": "0.33",
                  "--base-hi": "0.33000000000000007", "--base-p": "0.7"})
def test_verify_refuses_before_sampling(structure, ineq, trials, options):
    """A `verify` run that exits 2 has drawn nothing (`_reduce_batches` is
    the one batch loop), apart from two refusals that read the calibration
    run's result:
      - a deviation row that overflows only at the calibrated v (plugin
        moments or the Talagrand inequality);
      - plugin moments whose calibration run estimates v = 0, such as a
        point mass that the summand centers.
    """
    options = {"--structure": structure, "--ineq": ineq, "--trials": trials, **options}
    draws, reduce_batches = [], mcverify._reduce_batches

    def recorded(sampler, n_trials, *args, **kwargs):
        draws.append(n_trials)
        return reduce_batches(sampler, n_trials, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mcverify, "_reduce_batches", recorded)
        code, _, err = run(["verify", *flags(options)])
    assert all(n <= 2000 for n in draws)
    if code == 2 and draws:
        assert refused_after_the_calibration_run(ineq, options, err), (options, err)
