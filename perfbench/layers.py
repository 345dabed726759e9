"""Which gdbound functions the traced run wraps, and how its spans and
counts become the per-layer metrics.

Every per-layer figure is per op (totals over the traced pass divided by
its op count), so passes of different lengths compare directly.  A layer
that a workload does not run reads 0, and so does a ratio whose base is
0 on that workload.
"""

from __future__ import annotations

import os

CONCENTRATION_ENTRY_POINTS = (
    "bennett_tail_general", "bennett_tail_refined", "bennett_lower_tail",
    "bernstein_deviation", "talagrand_v", "general_bernstein_constant",
    "refined_bernstein_constant",
)
BOUND_ASSEMBLY = ("bound_ours_macroauc", "bound_prior_macroauc",
                  "bound_kernel_macroauc", "excess_bound_general")
IMPORTED_MODULES = ("cli", "macroauc", "lfrc", "mcverify", "graphdep",
                    "bounds", "concentration")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _sgd_steps(args, kwargs, ranker):
    dataset, config = _arg(args, kwargs, 0, "dataset"), _arg(args, kwargs, 1, "config")
    kept = dataset.n_labels - len(ranker.excluded_labels)
    return {"macroauc.sgd_steps": config.epochs * dataset.n_samples * kept}


def _dataset_bytes(args, kwargs, _):
    return {"macroauc.load_dataset.bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _summands(args, kwargs, _):
    sampler, trials = _arg(args, kwargs, 0, "sampler"), _arg(args, kwargs, 1, "n_trials")
    per_task = (sampler.n_pos * sampler.n_neg if sampler.structure == "bipartite_ranking"
                else sampler.m)
    return {"mcverify.summands": trials * sampler.k_tasks * per_task}


def _violations(args, kwargs, report):
    return {"mcverify.violations": len(report.violations)}


def _edges(args, kwargs, _):
    return {"graphdep.greedy_cover.edges": len(_arg(args, kwargs, 0, "graph").edges)}


def _lp_rows(args, kwargs, sets):
    return {"graphdep.lp_rows": len(sets)}


def _sup_evals(args, kwargs, _):
    draws = _arg(args, kwargs, 3, "n_draws")
    return {"lfrc.sup_evals": draws * len(_arg(args, kwargs, 0, "features_per_task"))}


def targets():
    """(module, attribute, span name, count hook) for every wrapped call."""
    out = [("gdbound.cli", "main", "cli.main", None)]
    for attr, hook in (("load_dataset", _dataset_bytes), ("split_train_test", None),
                       ("cv_select", None), ("train_sgd", _sgd_steps),
                       ("macro_auc", None), ("report_bounds", None),
                       ("pair_transform", None)):
        out.append(("gdbound.macroauc", attr, f"macroauc.{attr}", hook))
    for attr in ("spectrum_from_weights", "rstar_linear", "spectrum_from_gram",
                 "rstar_kernel") + BOUND_ASSEMBLY:
        out.append(("gdbound.bounds", attr, f"bounds.{attr}", None))
    for attr, hook in (("sample_Z", _summands), ("verify_inequality", _violations),
                       ("analytic_input", None), ("empirical_tail", None)):
        out.append(("gdbound.mcverify", attr, f"mcverify.{attr}", hook))
    for attr in CONCENTRATION_ENTRY_POINTS:
        out.append(("gdbound.concentration", attr, f"concentration.{attr}", None))
    for attr, hook in (("greedy_cover", _edges), ("bipartite_ranking_graph", None),
                       ("validate_cover", None), ("chromatic_fractional_exact", None),
                       ("maximal_independent_sets", _lp_rows)):
        out.append(("gdbound.graphdep", attr, f"graphdep.{attr}", hook))
    for attr, hook in (("estimate_lfrc", _sup_evals), ("fixed_point", None)):
        out.append(("gdbound.lfrc", attr, f"lfrc.{attr}", hook))
    return out


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def per_layer_metrics(tracer, n_ops, facts, import_s, overhead_ratio):
    """{metric name: (value, unit)} for one traced pass of n_ops ops.

    facts: totals over the pass of what the ops themselves report
    (greedy cover weight ratio, fixed-point evaluations, skipped CV folds).
    import_s: {module: median cumulative import seconds}.
    """
    st = tracer.self_times()

    def incl(*names):
        return sum(st.get(n, (0.0, 0.0, 0))[0] for n in names)

    def self_(name):
        return st.get(name, (0.0, 0.0, 0))[1]

    def calls(*names):
        return sum(st.get(n, (0.0, 0.0, 0))[2] for n in names)

    c = tracer.counts
    pt_calls = calls("macroauc.pair_transform")
    pt_degenerate = tracer.raised.get(("macroauc.pair_transform", "DegenerateLabelError"), 0)
    conc = [f"concentration.{a}" for a in CONCENTRATION_ENTRY_POINTS]
    op_wall = incl("op")

    per_op = {
        "cli.main.self_s": (self_("cli.main"), "s/op"),
        "macroauc.train_sgd.s": (incl("macroauc.train_sgd"), "s/op"),
        "macroauc.train_sgd.calls": (calls("macroauc.train_sgd"), "calls/op"),
        "macroauc.sgd_steps": (c["macroauc.sgd_steps"], "steps/op"),
        "macroauc.load_dataset.s": (incl("macroauc.load_dataset"), "s/op"),
        "macroauc.load_dataset.bytes": (c["macroauc.load_dataset.bytes"], "B/op"),
        "macroauc.split_train_test.s": (incl("macroauc.split_train_test"), "s/op"),
        "macroauc.cv_select.self_s": (self_("macroauc.cv_select"), "s/op"),
        "macroauc.macro_auc.s": (incl("macroauc.macro_auc"), "s/op"),
        "macroauc.macro_auc.calls": (calls("macroauc.macro_auc"), "calls/op"),
        "macroauc.report_bounds.self_s": (self_("macroauc.report_bounds"), "s/op"),
        "macroauc.pair_transform.calls": (pt_calls, "calls/op"),
        "macroauc.pair_transform.degenerate": (pt_degenerate, "calls/op"),
        "macroauc.cv_skipped_folds": (facts.get("cv_skipped_folds", 0), "folds/op"),
        "bounds.spectrum_from_weights.s": (incl("bounds.spectrum_from_weights"), "s/op"),
        "bounds.rstar_linear.s": (incl("bounds.rstar_linear"), "s/op"),
        "bounds.assembly.s": (incl(*(f"bounds.{a}" for a in BOUND_ASSEMBLY)), "s/op"),
        "bounds.spectrum_from_gram.s": (incl("bounds.spectrum_from_gram"), "s/op"),
        "bounds.rstar_kernel.s": (incl("bounds.rstar_kernel"), "s/op"),
        "mcverify.sample_Z.s": (incl("mcverify.sample_Z"), "s/op"),
        "mcverify.sample_Z.calls": (calls("mcverify.sample_Z"), "calls/op"),
        "mcverify.summands": (c["mcverify.summands"], "summands/op"),
        "mcverify.verify_inequality.self_s": (self_("mcverify.verify_inequality"), "s/op"),
        "mcverify.analytic_input.s": (incl("mcverify.analytic_input"), "s/op"),
        "mcverify.empirical_tail.s": (incl("mcverify.empirical_tail"), "s/op"),
        "mcverify.violations": (c["mcverify.violations"], "rows/op"),
        "concentration.tail.s": (incl(*conc), "s/op"),
        "concentration.tail.calls": (calls(*conc), "calls/op"),
        "graphdep.greedy_cover.s": (incl("graphdep.greedy_cover"), "s/op"),
        "graphdep.greedy_cover.edges": (c["graphdep.greedy_cover.edges"], "edges/op"),
        "graphdep.bipartite_ranking_graph.s": (incl("graphdep.bipartite_ranking_graph"), "s/op"),
        "graphdep.validate_cover.s": (incl("graphdep.validate_cover"), "s/op"),
        "graphdep.validate_cover.calls": (calls("graphdep.validate_cover"), "calls/op"),
        "graphdep.chromatic_fractional_exact.s": (incl("graphdep.chromatic_fractional_exact"), "s/op"),
        "graphdep.maximal_independent_sets.s": (incl("graphdep.maximal_independent_sets"), "s/op"),
        "graphdep.lp_rows": (c["graphdep.lp_rows"], "rows/op"),
        "lfrc.estimate_lfrc.s": (incl("lfrc.estimate_lfrc"), "s/op"),
        "lfrc.sup_evals": (c["lfrc.sup_evals"], "evals/op"),
        "lfrc.fixed_point.s": (incl("lfrc.fixed_point"), "s/op"),
        "lfrc.fixed_point.fn_evals": (facts.get("fixed_point_fn_evals", 0), "evals/op"),
        "trace.op_s": (op_wall, "s/op"),
    }
    metrics = {name: (value / n_ops, unit) for name, (value, unit) in per_op.items()}
    metrics.update({
        "macroauc.sgd_ns_per_step": (
            _ratio(incl("macroauc.train_sgd"), c["macroauc.sgd_steps"], 1e9), "ns"),
        "macroauc.label_use_ratio": (_ratio(pt_calls - pt_degenerate, pt_calls), "1"),
        "mcverify.ns_per_summand": (
            _ratio(incl("mcverify.sample_Z"), c["mcverify.summands"], 1e9), "ns"),
        "graphdep.greedy_weight_ratio": (
            _ratio(facts.get("greedy_weight_ratio", 0.0), n_ops), "1"),
        "lfrc.us_per_sup": (_ratio(incl("lfrc.estimate_lfrc"), c["lfrc.sup_evals"], 1e6), "us"),
        "trace.overhead_ratio": (overhead_ratio, "1"),
        "trace.unattributed_ratio": (_ratio(self_("op"), op_wall), "1"),
    })
    for module in IMPORTED_MODULES:
        metrics[f"setup.import.{module}_s"] = (import_s[module], "s")
    return metrics
