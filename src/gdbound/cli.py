"""Command-line front end.

Subcommands: verify, bound <formula>, lfrc estimate|fixed-point,
rstar kernel|linear, experiment, graph chi|cover-check.

Each subcommand declares its options in one table (`COMMANDS`): flag,
converter, default and choices.  Configuration is flat `key = value` text
(keys are the option names, with dashes or underscores; the last line
for an option wins).  A value comes from its flag, else from the
GDBOUND_SEED environment variable (seed only), else from the config
file, else from the table default, and whatever its source it is
converted by the same converter.  Every run is deterministic under a
fixed (config, seed): reports embed the resolved configuration and
replaying it reproduces the report byte for byte.  Numeric output on
stdout uses 6 significant digits; report files store full precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import bounds as bnd
from . import concentration as conc
from . import graphdep, lfrc, macroauc, mcverify
from .errors import ConfigError, FormatError, GdboundError, ParseError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3


def _fmt(x):
    return f"{x:.6g}"


# ---------------------------------------------------------------- converters
# Each turns the text of a flag, a config line or a default into a value.
# A ConfigError names what was expected; int and float raise ValueError.

def parse_t(value):
    """Accept plain floats plus the literal ln100 (and lnN generally)."""
    s = str(value).strip()
    try:
        if s.startswith("ln"):
            return math.log(float(s[2:]))
        return float(s)
    except ValueError as exc:
        raise ConfigError(f"bad t value {value!r}") from exc


def _floats(text):
    """Comma-separated numbers; empty items are skipped, an empty list is not."""
    try:
        values = [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}")
    return values


def _seeds(text):
    try:
        seeds = [int(tok) for tok in text.split(",")]
    except ValueError:
        seeds = [-1]
    if min(seeds) < 0:
        raise ConfigError(f"expected comma-separated non-negative integers, got {text!r}")
    return seeds


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _bool(text):
    try:
        return _BOOLS[text.lower()]
    except KeyError:
        raise ConfigError(f"expected one of 1/true/yes/0/false/no, got {text!r}") from None


def _radius(text):
    """A float, or inf/none for the unlocalized class."""
    if text.lower() in ("inf", "none"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected float, inf or none, got {text!r}") from None


def _int_from(low):
    """Converter to an integer >= low: `lfrc estimate` refuses its draws
    and seed with its options, before it decomposes a second moment."""
    def convert(text):
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"expected int, got {text!r}") from None
        if value < low:
            raise ConfigError(f"expected an integer >= {low}, got {text!r}")
        return value
    return convert


def _paths(value):
    """Repeatable path options arrive as lists from flags and as
    comma-separated text from config files."""
    if isinstance(value, str):
        return [tok for tok in value.split(",") if tok]
    return list(value)


_STRUCTURES = {"bipartite": ("bipartite_ranking", ("n_pos", "n_neg")),
               "iid": ("iid_blocks", ("m",))}


def _structure(text):
    """bipartite:P,N or iid:M as DependentSampler keyword arguments."""
    kind, _, sizes = text.partition(":")
    structure, names = _STRUCTURES.get(kind, (None, ()))
    try:
        values = [int(tok) for tok in sizes.split(",")]
    except ValueError:
        values = []
    if not names or len(values) != len(names):
        raise ConfigError(f"expected bipartite:P,N or iid:M, got {text!r}")
    return {"structure": structure, **dict(zip(names, values))}


# ---------------------------------------------------------------- option table

class Opt(NamedTuple):
    """One option: `flag` on the command line (no dashes: positional),
    `dest` as config key and report key, `convert` for any text value,
    `default` as text.  A `_paths` option may be given more than once."""
    flag: str
    dest: str
    convert: Callable = str
    default: str | None = None
    choices: tuple = ()
    help: str | None = None

    def parse(self, raw):
        try:
            value = self.convert(raw)
        except ConfigError as exc:
            raise ConfigError(f"{self.flag}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{self.flag}: expected {self.convert.__name__}, "
                              f"got {raw!r}") from exc
        if self.choices and value not in self.choices:
            raise ConfigError(f"{self.flag}: invalid choice {raw!r} "
                              f"(choose from {', '.join(self.choices)})")
        return value

    def report_text(self, raw, value):
        """Report text of a flag or a default: a number as str of its value,
        so --mtilde 1 is 1.0, anything else as written.  Config and
        environment text is embedded as written."""
        return str(value if self.convert in (int, float) else raw)


def _opt(flag, convert=str, default=None, choices=(), help=None, dest=None):
    dest = dest or flag.lstrip("-").replace("-", "_").lower()
    return Opt(flag, dest, convert, default, tuple(choices), help)


class Options(dict):
    """Converted values of one run keyed by dest; `embedded` holds the text
    a report embeds.  Reading an option with no value raises ConfigError."""

    def __init__(self, values, embedded, flags):
        super().__init__(values)
        self.embedded = embedded
        self.flags = flags

    def __missing__(self, key):
        raise ConfigError(f"missing required option(s): {self.flags[key]}")


def _read_text(path):
    """Text of an input file; FormatError (exit 3) names an unreadable one."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def read_config_file(path):
    """{dest: (key as written, value text)}; a key may be written with
    dashes or underscores, and the last line for an option wins."""
    cfg = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        cfg[key.replace("-", "_")] = (key, val)
    return cfg


def resolve_options(table, args):
    """Options from flag > GDBOUND_SEED > config file > default, each value
    converted once by its table entry; every config-file value is converted,
    also where a flag wins."""
    flags = {opt.dest: opt for opt in table if opt.flag.startswith("-")}
    positional = {opt.dest for opt in table} - flags.keys()
    written = {}  # dest: (text, value) from the config file and environment
    if args.config:
        for dest, (key, text) in read_config_file(args.config).items():
            if dest in positional:  # as in a replayed report's configuration
                if text != getattr(args, dest):
                    raise ConfigError(f"config {key} = {text!r} disagrees with "
                                      f"the command line ({getattr(args, dest)!r})")
                continue
            if dest not in flags:
                raise ConfigError(f"unknown config key {key!r}")
            written[dest] = (text, flags[dest].parse(text))  # checked even where a flag wins
    if "seed" in flags and "GDBOUND_SEED" in os.environ and args.seed is None:
        text = os.environ["GDBOUND_SEED"]
        written["seed"] = (text, flags["seed"].parse(text))
    values, embedded = {}, {}
    for opt in table:
        raw = getattr(args, opt.dest)
        if raw is None and opt.dest in written:
            text, values[opt.dest] = written[opt.dest]
            embedded[opt.dest] = text
            continue
        if raw is None:
            raw = opt.default
        if raw is None:
            embedded[opt.dest] = "None"
            continue
        values[opt.dest] = opt.parse(raw)
        embedded[opt.dest] = opt.report_text(raw, values[opt.dest])
    # output paths are not part of the run semantics and would break
    # byte-identity across locations
    embedded.pop("out", None)
    return Options(values, dict(sorted(embedded.items())),
                   {opt.dest: opt.flag for opt in table})


def _report(payload, cfg):
    """JSON report text with the resolved configuration embedded."""
    return json.dumps({**payload, "resolved_config": cfg.embedded}, indent=2) + "\n"


# ---------------------------------------------------------------- verify

def cmd_verify(cfg):
    ineq, trials = cfg["ineq"], cfg["trials"]
    sampler = mcverify.DependentSampler(
        **cfg["structure"], k_tasks=cfg["k"], base=cfg["base"], base_p=cfg["base_p"],
        base_lo=cfg["base_lo"], base_hi=cfg["base_hi"], kernel=cfg["kernel"],
        centered=cfg["centered"], seed=cfg["seed"])
    report = mcverify.verify_inequality(sampler, ineq, cfg["t_grid"], trials,
                                        form=cfg["form"], moments=cfg["moments"])
    if cfg.get("out"):
        Path(cfg["out"]).write_text(_report(report.as_dict(), cfg), encoding="utf-8")
    print(report.to_table())
    n_viol = len(report.violations)
    print(f"violations: {n_viol}")
    return EXIT_OK if n_viol == 0 else EXIT_FAIL


# ---------------------------------------------------------------- bound

def _macro_params(cfg, need_norms=False):
    taus = cfg["tau"]
    if len(taus) != cfg["k"]:
        raise ConfigError("--tau list length must equal --K")
    kw = dict(mu=cfg["mu"], B=cfg["b_const"], t=cfg["t"])
    if need_norms:
        kw.update(m_bar=cfg["mbar"], m_tilde=cfg["mtilde"])
    return bnd.BoundParams.pair_transformed(taus, cfg["n"], **kw)


def _task_params(cfg, **kw):
    """BoundParams with one --chi and one --m entry per task."""
    chi, m = cfg["chi"], cfg["m"]
    return bnd.BoundParams(K=len(chi), m_list=tuple(m), chi_list=tuple(chi), **kw)


def _tail_input(cfg):
    return conc.TailBoundInput(b=cfg["b_shift"], EZ=cfg["ez"], sigma_sq=cfg["sigma2"],
                               chi_list=tuple(cfg["chi"]))


def _bennett_general(cfg):
    p_tight, p_simple = conc.bennett_tail_general(_tail_input(cfg), cfg["t"])
    return {"p_tight": p_tight, "p_simple": p_simple}


# formula: (stdout line per value, value from the options); a formula with
# two values reports them as a dict in the order of its lines
BOUND_FORMULAS = {
    "bernstein": (
        ("bernstein [sqrt(2cvt) + 2ct/3]",),
        lambda o: conc.bernstein_deviation(o["c"], o["v"], o["t"])),
    "bennett-general": (
        ("bennett-general [exp(-(v/W) phi(tW/(Uv)))]",
         "bennett-general-simple [exp(-(v/W) phi(4t/(5v)))]"),
        _bennett_general),
    "bennett-refined": (
        ("bennett-refined [exp(-v phi(t/(vW)))]",),
        lambda o: conc.bennett_tail_refined(_tail_input(o), o["t"])),
    "lower-tail": (
        ("lower-tail [exp(-(v/W) phi(4t/(5v))) on the lower tail]",),
        lambda o: conc.bennett_lower_tail(_tail_input(o), o["t"])),
    "talagrand-v": (
        ("talagrand-v [sum(w sigma_kj^2) + 2 E[Z]]",),
        lambda o: conc.talagrand_v([[(1.0, o["sigma2"])]], o["ez"])),
    "ours-macroauc": (
        ("ours-macroauc [704*mu*r* + (75/K)*sum(1/tau)*t/n]",),
        lambda o: bnd.bound_ours_macroauc(o["rstar"], _macro_params(o))),
    "prior-macroauc": (
        ("prior-macroauc [2*(4*mu*mbar*mtilde/sqrt(n)*avg(sqrt(1/tau)) + "
         "3*sqrt((log2+t)/2n)*sqrt(avg(1/tau)))]",),
        lambda o: bnd.bound_prior_macroauc(_macro_params(o, need_norms=True))),
    "kernel-macroauc": (
        ("kernel-macroauc [(704/B)*r* + (26B+22)*(25/16)*sum(1/tau)*t/(K*n)]",),
        lambda o: bnd.bound_kernel_macroauc(o["rstar"], _macro_params(o))),
    "excess-general": (
        ("excess-general [(704/B)*r + (26B+22)*(25/16)*sum(chi/m)*t/K]",),
        lambda o: bnd.excess_bound_general(
            o["r"], _task_params(o, B=o["b_const"], mu=o["mu"], t=o["t"]))),
}


def cmd_bound(cfg):
    formula = cfg["formula"]
    lines, evaluate = BOUND_FORMULAS[formula]
    value = evaluate(cfg)
    numbers = list(value.values()) if isinstance(value, dict) else [value]
    for line, x in zip(lines, numbers):
        print(f"{line} = {_fmt(x)}")
    if cfg.get("out"):
        Path(cfg["out"]).write_text(_report({"formula": formula, "value": value}, cfg),
                                    encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------- lfrc

def _load_matrix(path):
    """Whitespace-separated matrix of finite numbers; ParseError (exit 3)
    names a malformed or empty file."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt: "input contained no data"
            matrix = np.loadtxt(_read_text(path).splitlines(), ndmin=2)
    except (UserWarning, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not np.isfinite(matrix).all():
        raise ParseError(f"{path}: non-finite value")
    return matrix


def cmd_lfrc_estimate(cfg):
    feats = [_load_matrix(p) for p in cfg["features"]]
    spec = lfrc.LinearClassSpec(
        m_tilde=cfg["mtilde"],
        second_moments=tuple(lfrc.second_moment_matrix(X) for X in feats),
        r=cfg["r"],
    )
    est, se = lfrc.estimate_lfrc(feats, [None] * len(feats), spec,
                                 n_draws=cfg["draws"], seed=cfg["seed"])
    print(f"lfrc_estimate = {_fmt(est)} stderr = {_fmt(se)}")
    return EXIT_OK


def cmd_lfrc_fixed_point(cfg):
    a, b = cfg["a"], cfg["b"]
    if not (math.isfinite(a) and math.isfinite(b) and a > 0 and b >= 0):
        raise ConfigError(f"need finite a > 0 and b >= 0, got a = {a}, b = {b}")
    handle = lfrc.SubRootHandle(fn=lambda r: a * math.sqrt(r) + b, r_hi=cfg["r_hi"])
    r_star = lfrc.fixed_point(handle, tol=cfg["tol"])
    print(f"r_star = {_fmt(r_star)}")
    return EXIT_OK


# ---------------------------------------------------------------- rstar
#
# Both commands refuse what their options alone fix before they read a
# matrix file: the counts, the parameters, --d-max, and an r* that no
# spectrum keeps finite.  The last is found by evaluating r* with every
# spectrum zero: each value computed there is also computed on the files'
# spectra, so nothing they would pass is refused.  A malformed or
# unreadable file (exit 3), a Gram that is not square, symmetric or PSD,
# and a spectrum or r* that is not finite are refused after the read.

def cmd_rstar_kernel(cfg):
    paths, chi, m = cfg["gram"], cfg["chi"], cfg["m"]
    if not (len(paths) == len(chi) == len(m)):
        raise ConfigError("--gram, --chi and --m must have one entry per task")
    params = _task_params(cfg, m_tilde=cfg["mtilde"])
    bnd.rstar_kernel([bnd.SpectrumProfile(np.zeros(1))] * len(paths), params)
    spectra = [bnd.spectrum_from_gram(_load_matrix(p)) for p in paths]
    r_star, cuts = bnd.rstar_kernel(spectra, params)
    print(f"r_star = {_fmt(r_star)} cuts = {','.join(str(c) for c in cuts)}")
    return EXIT_OK


def cmd_rstar_linear(cfg):
    path, d_max = cfg["weights"], cfg.get("d_max")
    norms = dict(m_tilde=cfg["mtilde"], m_bar=cfg["mbar"])
    if cfg.get("tau") is not None:
        params = bnd.BoundParams.pair_transformed(cfg["tau"], cfg["n"], **norms)
    else:
        params = _task_params(cfg, **norms)
    bnd.rstar_linear(bnd.SpectrumProfile(np.zeros(1)), params, d_max=d_max)
    spectrum = bnd.spectrum_from_weights(_load_matrix(path))
    r_star, cut = bnd.rstar_linear(spectrum, params, experiment_mode=cfg["experiment_mode"],
                                   d_max=d_max)
    print(f"r_star = {_fmt(r_star)} cut = {cut}")
    return EXIT_OK


# ---------------------------------------------------------------- experiment

def cmd_experiment(cfg):
    paths = cfg["data"]
    # a dataset is named by its file's stem, in the table and the report file
    named = {}
    for i, path in enumerate(paths):
        first = named.setdefault(Path(path).stem, i)
        if first != i:
            raise ConfigError(f"--data {paths[first]} and --data {path} share the name "
                              f"{Path(path).stem!r}; rename one")
    out_dir = Path(cfg["out"]) if cfg.get("out") else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for path in paths:
        try:
            ds = macroauc.load_dataset(path)
        except (ParseError, FormatError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return EXIT_PARSE
        name = Path(path).stem
        result = macroauc.run_experiment(
            ds, name=name, seeds=cfg["seeds"], grid=tuple(cfg["grid"]), folds=cfg["folds"],
            lr=cfg["lr"], epochs=cfg["epochs"], t=cfg["t"], rate=cfg["rate"])
        summary = result.summary()
        if out_dir:
            (out_dir / f"{name}.report.json").write_text(_report(
                {"summary": summary, "per_seed_reports": result.reports}, cfg), encoding="utf-8")
        rows.append(summary)
    header = (f"{'dataset':<20} {'ours':>16} {'prior':>16} "
              f"{'r_star':>12} {'test_auc':>9} {'smaller':>8}")
    lines = [header, "-" * len(header)]
    for s in rows:
        ours = f"{_fmt(s['ours']['mean'])}±{_fmt(s['ours']['std'])}"
        prior = f"{_fmt(s['prior']['mean'])}±{_fmt(s['prior']['std'])}"
        lines.append(
            f"{s['dataset']:<20} {ours:>16} {prior:>16} "
            f"{_fmt(s['r_star']['mean']):>12} {_fmt(s['test_macro_auc']['mean']):>9} "
            f"{s['smaller_bound']:>8}"
        )
    table = "\n".join(lines)
    print(table)
    if out_dir:
        (out_dir / "comparison.txt").write_text(table + "\n", encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------- graph

def cmd_graph_chi(cfg):
    graph = graphdep.DependencyGraph.from_text(_read_text(cfg["edges"]), exact=True)
    chi, cover = graphdep.chromatic_fractional_exact(graph)
    print(f"chi_f = {_fmt(chi)}")
    text = cover.to_text()
    if cfg.get("out"):
        Path(cfg["out"]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_graph_cover_check(cfg):
    edges, cover_path = cfg["edges"], cfg["cover"]
    graph = graphdep.DependencyGraph.from_text(_read_text(edges))
    cover = graphdep.FractionalCover.from_text(_read_text(cover_path), graph)
    report = graphdep.validate_cover(graph, cover)
    if report.ok:
        print(f"PASS total_weight = {_fmt(cover.total_weight)}")
        return EXIT_OK
    print("FAIL")
    for v in report.violations:
        print(f"  {v}")
    return EXIT_FAIL


# ---------------------------------------------------------------- commands

TAU = _opt("--tau", _floats, help="minority-label fraction tau_k per task")
CHI = _opt("--chi", _floats, help="fractional chromatic number chi_k per task")
M = _opt("--m", _floats, help="sample size m_k per task")
MTILDE = _opt("--mtilde", float, "1")

GROUPS = {"lfrc": "localized complexity tools",
          "rstar": "closed-form localization radius bounds",
          "graph": "fractional cover utilities"}

# (command path, help, function, option table)
COMMANDS = [
    (("verify",), "Monte Carlo check of one inequality", cmd_verify, (
        _opt("--structure", _structure, help="bipartite:P,N or iid:M"),
        _opt("--ineq", choices=mcverify.INEQUALITIES),
        _opt("--trials", int),
        _opt("--k", int, "1", help="number of tasks"),
        _opt("--base", default="uniform", choices=("uniform", "two_point")),
        _opt("--base-p", float, "0.5"),
        _opt("--base-lo", float, "0"),
        _opt("--base-hi", float, "1"),
        _opt("--kernel", default="product", choices=("product", "centered_product", "mean")),
        _opt("--centered", _bool, "false"),
        _opt("--form", default="probability", choices=("probability", "deviation")),
        _opt("--t-grid", _floats, "0.25,0.5,1,2,4"),
        _opt("--moments", default="analytic", choices=("analytic", "plugin"),
             help="E[Z], sigma^2 and v from the declared base and kernel, or estimated "
                  "from a calibration run; --ineq talagrand always estimates E[Z]"),
        _opt("--seed", int, "0"),
        _opt("--out", help="write the full-precision JSON report here"))),
    (("bound",), "evaluate one closed-form bound", cmd_bound, (
        _opt("formula", choices=BOUND_FORMULAS),
        _opt("--c", float), _opt("--v", float), _opt("--t", parse_t, help="a number or lnN"),
        _opt("--r", float), _opt("--rstar", float),
        _opt("--K", int, help="number of tasks"), TAU, _opt("--n", float),
        _opt("--mu", float, "1"), _opt("--B", float, "1", dest="b_const"),
        _opt("--mbar", float), _opt("--mtilde", float), CHI, M,
        _opt("--b-shift", float, "0", help="uniform block bound b of the tail-bound bundle"),
        _opt("--ez", float, help="E[Z] of the tail-bound bundle"),
        _opt("--sigma2", float, help="sum of weighted block variance factors"),
        _opt("--out", help="write the full-precision value as a JSON report here"))),
    (("lfrc", "estimate"), "Monte Carlo estimate of the localized complexity",
     cmd_lfrc_estimate, (
        _opt("--features", _paths, help="matrix file, one per task (repeatable)"),
        MTILDE,
        _opt("--r", _radius, "inf", help="localization radius; inf or none: unlocalized"),
        _opt("--draws", _int_from(1), "200"),
        _opt("--seed", _int_from(0), "0"))),
    (("lfrc", "fixed-point"), "fixed point r* of the sub-root function a*sqrt(r)+b",
     cmd_lfrc_fixed_point, (
        _opt("--a", float), _opt("--b", float, "0"),
        _opt("--tol", float, "1e-10", help="relative tolerance, in (0, 1)"),
        _opt("--r-hi", float, "1e6", help="start of the iteration and top of the sub-root "
                                          "grid check"))),
    (("rstar", "kernel"), "r* from per-task Gram spectra", cmd_rstar_kernel, (
        _opt("--gram", _paths, help="Gram matrix file per task (repeatable)"),
        CHI, M, MTILDE)),
    (("rstar", "linear"), "r* from a weight matrix spectrum", cmd_rstar_linear, (
        _opt("--weights", help="weight matrix file"),
        MTILDE, _opt("--mbar", float, "1"), CHI, M, TAU, _opt("--n", float),
        _opt("--d-max", int, help="largest cut to try"),
        _opt("--experiment-mode", _bool, "false"))),
    (("experiment",), "full Macro-AUC bound comparison", cmd_experiment, (
        _opt("--data", _paths, help="mlsvm dataset (repeatable)"),
        _opt("--seeds", _seeds, "0,1,2,3,4"),
        _opt("--epochs", int, "300"),
        _opt("--lr", float, "0.05"),
        _opt("--folds", int, "3"),
        _opt("--grid", _floats, "0.0001,0.001,0.01,0.1", help="weight-decay grid"),
        _opt("--t", parse_t, "ln100", help="a number or lnN"),
        _opt("--rate", float, "1"),
        _opt("--out", help="directory for one full-precision JSON report per dataset "
                           "and comparison.txt"))),
    (("graph", "chi"), "exact fractional chromatic number and cover", cmd_graph_chi, (
        _opt("--edges", help="graph file"),
        _opt("--out", help="write the cover text here instead of to stdout"))),
    (("graph", "cover-check"), "check a fractional cover", cmd_graph_cover_check, (
        _opt("--edges", help="graph file"), _opt("--cover", help="cover file"))),
]


def _add_option(parser, opt):
    default = None if opt.default is None else f"(default: {opt.default})"
    help_text = " ".join(filter(None, (opt.help, default))) or None
    metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else None
    if opt.flag.startswith("-"):
        parser.add_argument(opt.flag, dest=opt.dest, metavar=metavar, help=help_text,
                            action="append" if opt.convert is _paths else "store")
    else:
        parser.add_argument(opt.flag, metavar=metavar, help=help_text)


def build_parser():
    p = argparse.ArgumentParser(prog="gdbound",
                                description="Generalization-bound machinery for "
                                            "multi-task graph-dependent data")
    sub = p.add_subparsers(dest="command", required=True)
    groups = {}
    for path, help_text, func, table in COMMANDS:
        parent = sub
        if len(path) == 2:
            if path[0] not in groups:
                group = sub.add_parser(path[0], help=GROUPS[path[0]])
                groups[path[0]] = group.add_subparsers(dest="subcommand", required=True)
            parent = groups[path[0]]
        sp = parent.add_parser(path[-1], help=help_text)
        sp.add_argument("--config", help="flat key = value config file")
        for opt in table:
            _add_option(sp, opt)
        sp.set_defaults(func=func, table=table)
    return p


@functools.cache
def _parser():
    """The process's parser: built by the first `main` call and reused, as
    parsing leaves no state in it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(resolve_options(args.table, args))
    except GdboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, (ParseError, FormatError)) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
