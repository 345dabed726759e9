"""Command-line front end.

Subcommands: verify, bound <formula>, lfrc estimate|fixed-point,
rstar kernel|linear, experiment, graph chi|cover-check.

Configuration is flat `key = value` text (keys match the long option
names); command-line flags override file values, and the GDBOUND_SEED
environment variable overrides any configured seed (explicit --seed still
wins).  Every run is deterministic under a fixed (config, seed): reports
embed the resolved configuration and replaying it reproduces the report
byte for byte.  Numeric output on stdout uses 6 significant digits;
report files store full precision.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

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


def parse_t(value):
    """Accept plain floats plus the literal ln100 (and lnN generally)."""
    s = str(value).strip()
    if s.startswith("ln"):
        return math.log(float(s[2:]))
    return float(s)


def _float_list(s):
    return [float(tok) for tok in str(s).split(",") if tok != ""]


def _path_list(value):
    """Repeatable path options arrive as lists from flags and as
    comma-separated strings from config files."""
    if isinstance(value, str):
        return [tok for tok in value.split(",") if tok]
    return list(value)


def read_config_file(path):
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        cfg[key] = val
    return cfg


def resolve_config(args, parser_keys, file_key="config"):
    """Merge flag > GDBOUND_SEED > config file > parser default.

    Returns the resolved flat dict (strings still unconverted for
    file-sourced values are converted by each command as needed).
    """
    resolved = {k: v for k, v in vars(args).items() if k in parser_keys}
    path = getattr(args, file_key, None)
    if path:
        file_cfg = read_config_file(path)
        for key, val in file_cfg.items():
            attr = key.replace("-", "_")
            if attr not in parser_keys:
                raise ConfigError(f"unknown config key {key!r}")
            if resolved.get(attr) is None:
                resolved[attr] = val
    env_seed = os.environ.get("GDBOUND_SEED")
    if env_seed is not None and "seed" in parser_keys:
        if getattr(args, "seed", None) is None:
            resolved["seed"] = env_seed
    return resolved


def _require(cfg, *keys):
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ConfigError("missing required option(s): "
                          + ", ".join("--" + k.replace("_", "-") for k in missing))


def _embeddable(cfg):
    """Resolved config for report embedding; output paths are not part of
    the run semantics and would break byte-identity across locations."""
    return {k: str(v) for k, v in sorted(cfg.items()) if k != "out"}


def _write_or_print(text, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------- verify

def _sampler_from_config(cfg):
    structure = str(cfg["structure"])
    kwargs = {
        "k_tasks": int(cfg["k"]),
        "base": str(cfg["base"]),
        "base_p": float(cfg["base_p"]),
        "base_lo": float(cfg["base_lo"]),
        "base_hi": float(cfg["base_hi"]),
        "kernel": str(cfg["kernel"]),
        "centered": str(cfg["centered"]).lower() in ("1", "true", "yes"),
        "seed": int(cfg["seed"]),
    }
    if structure.startswith("bipartite:"):
        np_, nn = (int(x) for x in structure.split(":", 1)[1].split(","))
        return mcverify.DependentSampler(structure="bipartite_ranking",
                                         n_pos=np_, n_neg=nn, **kwargs)
    if structure.startswith("iid:"):
        m = int(structure.split(":", 1)[1])
        return mcverify.DependentSampler(structure="iid_blocks", m=m, **kwargs)
    raise ConfigError(f"bad --structure {structure!r}; use bipartite:P,N or iid:M")


def cmd_verify(cfg):
    _require(cfg, "structure", "ineq", "trials")
    trials = int(cfg["trials"])
    if trials < 1:
        raise ConfigError("--trials must be >= 1")
    sampler = _sampler_from_config(cfg)
    t_grid = _float_list(cfg["t_grid"])
    report = mcverify.verify_inequality(
        sampler, str(cfg["ineq"]), t_grid, trials,
        form=str(cfg["form"]), moments=str(cfg["moments"]),
    )
    payload = report.as_dict()
    payload["resolved_config"] = _embeddable(cfg)
    text = json.dumps(payload, indent=2) + "\n"
    if cfg.get("out"):
        Path(cfg["out"]).write_text(text)
    print(report.to_table())
    n_viol = len(report.violations)
    print(f"violations: {n_viol}")
    return EXIT_OK if n_viol == 0 else EXIT_FAIL


# ---------------------------------------------------------------- bound

def _macro_params(cfg, need_norms=False):
    _require(cfg, "k", "tau", "n", "t")
    taus = _float_list(cfg["tau"])
    if len(taus) != int(cfg["k"]):
        raise ConfigError("--tau list length must equal --K")
    kw = dict(mu=float(cfg["mu"]), B=float(cfg["b_const"]), t=parse_t(cfg["t"]))
    if need_norms:
        _require(cfg, "mbar", "mtilde")
        kw.update(m_bar=float(cfg["mbar"]), m_tilde=float(cfg["mtilde"]))
    return bnd.BoundParams.pair_transformed(taus, float(cfg["n"]), **kw)


def _tail_input(cfg):
    _require(cfg, "ez", "sigma2", "chi")
    return conc.TailBoundInput(
        b=float(cfg["b_shift"]), EZ=float(cfg["ez"]),
        sigma_sq=float(cfg["sigma2"]),
        chi_list=tuple(_float_list(cfg["chi"])),
    )


def cmd_bound(cfg):
    formula = cfg["formula"]
    if formula == "bernstein":
        _require(cfg, "c", "v", "t")
        val = conc.bernstein_deviation(float(cfg["c"]), float(cfg["v"]), parse_t(cfg["t"]))
        tag = "sqrt(2cvt) + 2ct/3"
    elif formula == "bennett-general":
        _require(cfg, "t")
        p_tight, p_simple = conc.bennett_tail_general(_tail_input(cfg), parse_t(cfg["t"]))
        print(f"bennett-general [exp(-(v/W) phi(tW/(Uv)))] = {_fmt(p_tight)}")
        print(f"bennett-general-simple [exp(-(v/W) phi(4t/(5v)))] = {_fmt(p_simple)}")
        if cfg.get("out"):
            payload = {"formula": formula,
                       "value": {"p_tight": p_tight, "p_simple": p_simple},
                       "resolved_config": _embeddable(cfg)}
            Path(cfg["out"]).write_text(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK
    elif formula == "bennett-refined":
        _require(cfg, "t")
        val = conc.bennett_tail_refined(_tail_input(cfg), parse_t(cfg["t"]))
        tag = "exp(-v phi(t/(vW)))"
    elif formula == "lower-tail":
        _require(cfg, "t")
        val = conc.bennett_lower_tail(_tail_input(cfg), parse_t(cfg["t"]))
        tag = "exp(-(v/W) phi(4t/(5v))) on the lower tail"
    elif formula == "talagrand-v":
        _require(cfg, "sigma2", "ez")
        val = conc.talagrand_v([[(1.0, float(cfg["sigma2"]))]], float(cfg["ez"]))
        tag = "sum(w sigma_kj^2) + 2 E[Z]"
    elif formula == "ours-macroauc":
        _require(cfg, "rstar")
        params = _macro_params(cfg)
        val = bnd.bound_ours_macroauc(float(cfg["rstar"]), params)
        tag = "704*mu*r* + (75/K)*sum(1/tau)*t/n"
    elif formula == "prior-macroauc":
        params = _macro_params(cfg, need_norms=True)
        val = bnd.bound_prior_macroauc(params)
        tag = "2*(4*mu*mbar*mtilde/sqrt(n)*avg(sqrt(1/tau)) + 3*sqrt((log2+t)/2n)*sqrt(avg(1/tau)))"
    elif formula == "kernel-macroauc":
        _require(cfg, "rstar")
        params = _macro_params(cfg)
        val = bnd.bound_kernel_macroauc(float(cfg["rstar"]), params)
        tag = "(704/B)*r* + (26B+22)*(25/16)*sum(1/tau)*t/(K*n)"
    elif formula == "excess-general":
        _require(cfg, "r", "chi", "m", "t")
        chi = _float_list(cfg["chi"])
        m = _float_list(cfg["m"])
        params = bnd.BoundParams(K=len(chi), m_list=tuple(m), chi_list=tuple(chi),
                                 B=float(cfg["b_const"]), mu=float(cfg["mu"]),
                                 t=parse_t(cfg["t"]))
        val = bnd.excess_bound_general(float(cfg["r"]), params)
        tag = "(704/B)*r + (26B+22)*(25/16)*sum(chi/m)*t/K"
    else:
        raise ConfigError(f"unknown bound formula {formula!r}")
    print(f"{formula} [{tag}] = {_fmt(val)}")
    if cfg.get("out"):
        payload = {"formula": formula, "value": val,
                   "resolved_config": _embeddable(cfg)}
        Path(cfg["out"]).write_text(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- lfrc

def _load_matrix(path):
    return np.loadtxt(path, ndmin=2)


def cmd_lfrc_estimate(cfg):
    _require(cfg, "features")
    feats = [_load_matrix(p) for p in _path_list(cfg["features"])]
    r = math.inf if str(cfg["r"]).lower() in ("inf", "none") else float(cfg["r"])
    spec = lfrc.LinearClassSpec(
        m_tilde=float(cfg["mtilde"]),
        second_moments=tuple(lfrc.second_moment_matrix(X) for X in feats),
        r=r,
    )
    est, se = lfrc.estimate_lfrc(feats, [None] * len(feats), spec,
                                 n_draws=int(cfg["draws"]), seed=int(cfg["seed"]))
    print(f"lfrc_estimate = {_fmt(est)} stderr = {_fmt(se)}")
    return EXIT_OK


def cmd_lfrc_fixed_point(cfg):
    if cfg["family"] != "sqrt":
        raise ConfigError("only the sqrt family a*sqrt(r)+b is supported")
    a, b = float(cfg["a"]), float(cfg["b"])
    if a <= 0 or b < 0:
        raise ConfigError("need a > 0 and b >= 0")
    handle = lfrc.SubRootHandle(fn=lambda r: a * math.sqrt(r) + b,
                                r_hi=float(cfg["r_hi"]))
    r_star = lfrc.fixed_point(handle, tol=float(cfg["tol"]))
    print(f"r_star = {_fmt(r_star)}")
    return EXIT_OK


# ---------------------------------------------------------------- rstar

def cmd_rstar_kernel(cfg):
    _require(cfg, "gram", "chi", "m", "mtilde")
    spectra = [bnd.spectrum_from_gram(_load_matrix(p))
               for p in _path_list(cfg["gram"])]
    chi = _float_list(cfg["chi"])
    m = _float_list(cfg["m"])
    if not (len(spectra) == len(chi) == len(m)):
        raise ConfigError("--gram, --chi and --m must have one entry per task")
    params = bnd.BoundParams(K=len(chi), m_list=tuple(m), chi_list=tuple(chi),
                             m_tilde=float(cfg["mtilde"]))
    r_star, cuts = bnd.rstar_kernel(spectra, params)
    print(f"r_star = {_fmt(r_star)} cuts = {','.join(str(c) for c in cuts)}")
    return EXIT_OK


def cmd_rstar_linear(cfg):
    _require(cfg, "weights", "mtilde", "mbar")
    spectrum = bnd.spectrum_from_weights(_load_matrix(cfg["weights"]))
    experiment = str(cfg["experiment_mode"]).lower() in ("1", "true", "yes")
    if cfg.get("tau") is not None:
        _require(cfg, "n")
        taus = _float_list(cfg["tau"])
        params = bnd.BoundParams.pair_transformed(
            taus, float(cfg["n"]), m_tilde=float(cfg["mtilde"]),
            m_bar=float(cfg["mbar"]))
    else:
        _require(cfg, "chi", "m")
        chi = _float_list(cfg["chi"])
        m = _float_list(cfg["m"])
        params = bnd.BoundParams(K=len(chi), m_list=tuple(m), chi_list=tuple(chi),
                                 m_tilde=float(cfg["mtilde"]), m_bar=float(cfg["mbar"]))
    d_max = None
    if cfg.get("d_max") is not None:
        d_max = int(cfg["d_max"])
    r_star, cut = bnd.rstar_linear(spectrum, params, experiment_mode=experiment,
                                   d_max=d_max)
    print(f"r_star = {_fmt(r_star)} cut = {cut}")
    return EXIT_OK


# ---------------------------------------------------------------- experiment

def cmd_experiment(cfg):
    _require(cfg, "data")
    seeds = [int(s) for s in str(cfg["seeds"]).split(",")]
    out_dir = Path(cfg["out"]) if cfg.get("out") else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for path in _path_list(cfg["data"]):
        try:
            ds = macroauc.load_dataset(path)
        except (ParseError, FormatError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return EXIT_PARSE
        name = Path(path).stem
        result = macroauc.run_experiment(
            ds, name=name, seeds=seeds,
            grid=tuple(_float_list(cfg["grid"])), folds=int(cfg["folds"]),
            lr=float(cfg["lr"]), epochs=int(cfg["epochs"]),
            t=parse_t(cfg["t"]), rate=float(cfg["rate"]),
        )
        summary = result.summary()
        if out_dir:
            payload = {
                "summary": summary,
                "per_seed_reports": result.reports,
                "resolved_config": _embeddable(cfg),
            }
            (out_dir / f"{name}.report.json").write_text(
                json.dumps(payload, indent=2) + "\n")
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
        (out_dir / "comparison.txt").write_text(table + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- graph

def cmd_graph_chi(cfg):
    _require(cfg, "edges")
    graph = graphdep.DependencyGraph.from_text(Path(cfg["edges"]).read_text())
    chi, cover = graphdep.chromatic_fractional_exact(graph)
    print(f"chi_f = {_fmt(chi)}")
    _write_or_print(cover.to_text(), cfg.get("out"))
    return EXIT_OK


def cmd_graph_cover_check(cfg):
    _require(cfg, "edges", "cover")
    graph = graphdep.DependencyGraph.from_text(Path(cfg["edges"]).read_text())
    cover = graphdep.FractionalCover.from_text(Path(cfg["cover"]).read_text(), graph)
    report = graphdep.validate_cover(graph, cover)
    if report.ok:
        print(f"PASS total_weight = {_fmt(cover.total_weight)}")
        return EXIT_OK
    print("FAIL")
    for v in report.violations:
        print(f"  {v}")
    return EXIT_FAIL


# ---------------------------------------------------------------- parser

def build_parser():
    p = argparse.ArgumentParser(prog="gdbound",
                                description="Generalization-bound machinery for "
                                            "multi-task graph-dependent data")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="flat key = value config file")
        sp.add_argument("--out", help="write the full-precision report here")

    sp = sub.add_parser("verify", help="Monte Carlo check of one inequality")
    add_common(sp)
    sp.add_argument("--structure", help="bipartite:P,N or iid:M")
    sp.add_argument("--ineq", choices=mcverify.INEQUALITIES)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--base", choices=["uniform", "two_point"])
    sp.add_argument("--base-p", type=float, dest="base_p")
    sp.add_argument("--base-lo", type=float, dest="base_lo")
    sp.add_argument("--base-hi", type=float, dest="base_hi")
    sp.add_argument("--kernel", choices=["product", "centered_product", "mean"])
    sp.add_argument("--centered")
    sp.add_argument("--form", choices=["probability", "deviation"])
    sp.add_argument("--t-grid", dest="t_grid")
    sp.add_argument("--moments", choices=["analytic", "plugin"])
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_verify, defaults={
        "k": 1, "base": "uniform", "base_p": 0.5, "base_lo": 0.0, "base_hi": 1.0,
        "kernel": "product", "centered": "false", "form": "probability",
        "t_grid": "0.25,0.5,1,2,4", "moments": "analytic", "seed": 0,
    })

    sp = sub.add_parser("bound", help="evaluate one closed-form bound")
    add_common(sp)
    sp.add_argument("formula", choices=["bernstein", "bennett-general",
                                        "bennett-refined", "lower-tail",
                                        "talagrand-v", "ours-macroauc",
                                        "prior-macroauc", "kernel-macroauc",
                                        "excess-general"])
    sp.add_argument("--c", type=float)
    sp.add_argument("--v", type=float)
    sp.add_argument("--t")
    sp.add_argument("--r", type=float)
    sp.add_argument("--rstar", type=float)
    sp.add_argument("--K", type=int, dest="k")
    sp.add_argument("--tau")
    sp.add_argument("--n", type=float)
    sp.add_argument("--mu", type=float)
    sp.add_argument("--B", type=float, dest="b_const")
    sp.add_argument("--mbar", type=float)
    sp.add_argument("--mtilde", type=float)
    sp.add_argument("--chi")
    sp.add_argument("--m")
    sp.add_argument("--b-shift", type=float, dest="b_shift",
                    help="uniform block bound b of the tail-bound bundle")
    sp.add_argument("--ez", type=float, help="E[Z] of the tail-bound bundle")
    sp.add_argument("--sigma2", type=float,
                    help="sum of weighted block variance factors")
    sp.set_defaults(func=cmd_bound, defaults={"mu": 1.0, "b_const": 1.0,
                                              "b_shift": 0.0})

    sp = sub.add_parser("lfrc", help="localized complexity tools")
    lfrc_sub = sp.add_subparsers(dest="subcommand", required=True)

    spe = lfrc_sub.add_parser("estimate")
    add_common(spe)
    spe.add_argument("--features", action="append",
                     help="matrix file, one per task (repeatable)")
    spe.add_argument("--mtilde", type=float)
    spe.add_argument("--r")
    spe.add_argument("--draws", type=int)
    spe.add_argument("--seed", type=int)
    spe.set_defaults(func=cmd_lfrc_estimate, defaults={
        "mtilde": 1.0, "r": "inf", "draws": 200, "seed": 0,
    })

    spf = lfrc_sub.add_parser("fixed-point")
    add_common(spf)
    spf.add_argument("--family", choices=["sqrt"])
    spf.add_argument("--a", type=float)
    spf.add_argument("--b", type=float)
    spf.add_argument("--tol", type=float)
    spf.add_argument("--r-hi", type=float, dest="r_hi")
    spf.set_defaults(func=cmd_lfrc_fixed_point, defaults={
        "family": "sqrt", "b": 0.0, "tol": 1e-10, "r_hi": 1e6,
    })

    sp = sub.add_parser("rstar", help="closed-form localization radius bounds")
    rstar_sub = sp.add_subparsers(dest="subcommand", required=True)

    spk = rstar_sub.add_parser("kernel")
    add_common(spk)
    spk.add_argument("--gram", action="append", help="Gram matrix file per task")
    spk.add_argument("--chi")
    spk.add_argument("--m")
    spk.add_argument("--mtilde", type=float)
    spk.set_defaults(func=cmd_rstar_kernel, defaults={"mtilde": 1.0})

    spl = rstar_sub.add_parser("linear")
    add_common(spl)
    spl.add_argument("--weights")
    spl.add_argument("--mtilde", type=float)
    spl.add_argument("--mbar", type=float)
    spl.add_argument("--chi")
    spl.add_argument("--m")
    spl.add_argument("--tau")
    spl.add_argument("--n", type=float)
    spl.add_argument("--d-max", type=int, dest="d_max")
    spl.add_argument("--experiment-mode", dest="experiment_mode")
    spl.set_defaults(func=cmd_rstar_linear, defaults={
        "mtilde": 1.0, "mbar": 1.0, "experiment_mode": "false",
    })

    sp = sub.add_parser("experiment", help="full Macro-AUC bound comparison")
    add_common(sp)
    sp.add_argument("--data", action="append", help="mlsvm dataset (repeatable)")
    sp.add_argument("--seeds")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--lr", type=float)
    sp.add_argument("--folds", type=int)
    sp.add_argument("--grid")
    sp.add_argument("--t")
    sp.add_argument("--rate", type=float)
    sp.set_defaults(func=cmd_experiment, defaults={
        "seeds": "0,1,2,3,4", "epochs": 300, "lr": 0.05, "folds": 3,
        "grid": "0.0001,0.001,0.01,0.1", "t": "ln100", "rate": 1.0,
    })

    sp = sub.add_parser("graph", help="fractional cover utilities")
    graph_sub = sp.add_subparsers(dest="subcommand", required=True)

    spc = graph_sub.add_parser("chi")
    add_common(spc)
    spc.add_argument("--edges")
    spc.set_defaults(func=cmd_graph_chi, defaults={})

    spv = graph_sub.add_parser("cover-check")
    add_common(spv)
    spv.add_argument("--edges")
    spv.add_argument("--cover")
    spv.set_defaults(func=cmd_graph_cover_check, defaults={})

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    defaults = dict(args.defaults)
    known = {k for k in vars(args)
             if k not in ("func", "defaults", "command", "subcommand", "config")}
    try:
        cfg = resolve_config(args, known)
        for key, val in defaults.items():
            if cfg.get(key) is None:
                cfg[key] = val
        return args.func(cfg)
    except (ConfigError, GdboundError) as exc:
        if isinstance(exc, (ParseError, FormatError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
