"""The four workloads: what one op is, its inputs, and its output checks.

An op returns (latency seconds, output bytes, facts).  Output bytes are
what must replay byte for byte: the report file a CLI op writes, or the
full-precision values a library op computes.  Checks run after the
timed passes, on every output collected.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np

import inputs
import speed
from gdbound import bounds, cli, graphdep, lfrc
from gdbound import concentration as conc

EXPERIMENT_EPOCHS = 10
MANYLABEL_EPOCHS = 5
FOLDS = 3
REFERENCE_DATA_SEED = 20250225   # fixed: reference values do not depend on --seed
REFERENCE_EXPERIMENT_SEED = 0
REFERENCE_RTOL = 1e-6            # report floats against reference.json
BOUND_RTOL = 1e-9                # verify bound column against recomputation
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def call_cli(argv):
    """cli.main in-process, stdout and stderr captured; (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


class Workload:
    """round: the input keys of one round of ops; a pass runs whole rounds
    so every pass sees the same mix.  work: what the run used, for the
    result stamp.  probe_parts: the speed-probe parts that slow down as
    this workload's op does (see speed.py)."""

    name = ""
    round: list = []
    work: dict = {}
    probe_parts = speed.ALL_PARTS

    def __init__(self, run_dir: Path, rng: np.random.Generator):
        """Writes the run's inputs, drawn from rng, under run_dir."""
        self.run_dir = run_dir

    def warmup(self):
        """Untimed ops that fill caches and lazy set-up; [(key, output)]."""
        return []

    def op(self, key, index):
        """Run one op; returns (latency_s, output bytes, facts dict)."""
        raise NotImplementedError

    def check(self, key, output):
        """Problems found in one op's output (empty list when correct)."""
        raise NotImplementedError


# ------------------------------------------------------------ experiment


def _close(a, b, rtol):
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


class Experiment(Workload):
    name = "experiment"
    shape = staticmethod(inputs.emotions_shaped)
    epochs = EXPERIMENT_EPOCHS
    probe_parts = ("sgd_steps",)

    def __init__(self, run_dir, rng):
        super().__init__(run_dir, rng)
        # Each round runs the fixed reference input, checked against
        # reference.json, and one input drawn from the seed.
        reference = self.shape(np.random.default_rng(REFERENCE_DATA_SEED))
        self.cases = {"reference": (reference, REFERENCE_EXPERIMENT_SEED),
                       "seeded": (self.shape(rng), int(rng.integers(0, 2**31 - 1)))}
        for key, ((X, Y), _) in self.cases.items():
            (run_dir / f"{key}.mlsvm").write_text(inputs.mlsvm_text(X, Y))
        self.round = list(self.cases)
        self.work = {"epochs": self.epochs, "folds": FOLDS, "seeds_per_op": 1,
                     "grid": "cli default",
                     "experiment_seeds": {k: s for k, (_, s) in self.cases.items()}}

    def op(self, key, index):
        data = self.run_dir / f"{key}.mlsvm"
        out_dir = self.run_dir / f"out{index}"
        argv = ["experiment", "--data", str(data), "--seeds", str(self.cases[key][1]),
                "--epochs", str(self.epochs), "--folds", str(FOLDS), "--out", str(out_dir)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            latency, (code, _, stderr) = _timed(lambda: call_cli(argv))
        skipped = sum("skipped" in str(w.message) for w in caught)
        report = out_dir / f"{data.stem}.report.json"
        body = report.read_bytes() if code == 0 and report.exists() else b""
        output = {"code": code, "stderr": stderr, "report": body}
        return latency, output, {"cv_skipped_folds": skipped}

    def check(self, key, output):
        if output["code"] != 0 or not output["report"]:
            return [f"exit {output['code']}: {output['stderr'].strip()[:200]}"]
        payload = json.loads(output["report"])
        summary, (rep,) = payload["summary"], payload["per_seed_reports"]
        problems = []
        values = {"bound_ours": rep["bound_ours"], "bound_prior": rep["bound_prior"],
                  "r_star": rep["r_star"]}
        if not all(math.isfinite(v) and v > 0 for v in values.values()):
            problems.append(f"non-positive or non-finite bound values {values}")
        auc = summary["test_macro_auc"]["mean"]
        if not 0.0 <= auc <= 1.0:
            problems.append(f"test Macro-AUC {auc} outside [0, 1]")
        smaller = "ours" if rep["bound_ours"] <= rep["bound_prior"] else "prior"
        if summary["smaller_bound"] != smaller:
            problems.append(f"smaller_bound {summary['smaller_bound']!r} != {smaller!r}")
        if key == "reference":
            problems += self._against_reference(rep, summary)
        return problems

    def _against_reference(self, rep, summary):
        ref = json.loads(REFERENCE_PATH.read_text())[self.name]
        got = {"bound_ours": rep["bound_ours"], "bound_prior": rep["bound_prior"],
               "r_star": rep["r_star"], "test_macro_auc": summary["test_macro_auc"]["mean"]}
        problems = [f"{k} = {got[k]!r}, reference {ref[k]!r}"
                    for k in got if not _close(got[k], ref[k], REFERENCE_RTOL)]
        exact = {"weight_decay": rep["params"]["weight_decay"], "d_star": rep["d_star"],
                 "smaller_bound": summary["smaller_bound"]}
        problems += [f"{k} = {exact[k]!r}, reference {ref[k]!r}"
                     for k in exact if exact[k] != ref[k]]
        return problems


class ExperimentManyLabel(Experiment):
    name = "experiment-manylabel"
    shape = staticmethod(inputs.cal500_shaped)
    epochs = MANYLABEL_EPOCHS


# ------------------------------------------------------------ verify


def _bundle(*, mean_g, e2_g, b, n_classes, size, k=1):
    """Closed-form tail-bound bundle of K tasks whose summands have mean
    mean_g, second moment e2_g and range bound b, covered by n_classes
    unit-weight classes of `size` summands each."""
    v_class = (1.0 + b) * size * mean_g + size * e2_g
    n_summands = n_classes * size
    return conc.TailBoundInput(
        b=b, EZ=k * n_summands * mean_g, sigma_sq=k * n_summands * e2_g,
        chi_list=(float(n_classes),) * k,
        blocks=(tuple((1.0, v_class) for _ in range(n_classes)),) * k)


def expected_bound(key, row):
    """The bound one report row must carry, recomputed from
    gdbound.concentration with moments derived here in closed form."""
    t = row["t"]
    if key.startswith("bip60x50"):     # uniform base, product kernel
        inp = _bundle(mean_g=0.25, e2_g=1 / 9, b=1.0, n_classes=60, size=50)
        return conc.bennett_tail_general(inp, t)[0]
    if key.startswith("bip30x20"):     # deviation form: the bound is e^-t
        return math.exp(-t)
    if key.startswith("bip12x10"):     # sup of {+f, -f}, f = (u w - 1/4) / (3/4)
        ez = row["threshold"] - t
        f_second = (1 / 9 - 1 / 16) / 0.75**2
        v = conc.talagrand_v((tuple((1.0, 10 * f_second) for _ in range(12)),), ez)
        inp = conc.TailBoundInput(b=1.0, EZ=ez, sigma_sq=v - 2.0 * ez, chi_list=(12.0,))
        return conc.bennett_tail_general(inp, t)[1]
    if key.startswith("bip20x20"):     # two-point {0, 1}, p = 0.3, mean kernel
        inp = _bundle(mean_g=0.3, e2_g=(0.3 + 0.09) / 2, b=1.0,
                      n_classes=20, size=20)
        return conc.bennett_lower_tail(inp, t)
    if key.startswith("iid200"):       # uniform base, K = 3 edgeless tasks
        inp = _bundle(mean_g=0.5, e2_g=1 / 3, b=1.0, n_classes=1, size=200, k=3)
        return conc.bennett_tail_refined(inp, t)
    raise KeyError(key)


class Verify(Workload):
    name = "verify"

    def __init__(self, run_dir, rng):
        super().__init__(run_dir, rng)
        self.argv = dict(inputs.verify_ops(rng))
        self.round = list(self.argv)
        self.work = {"trials": inputs.TRIALS, "mix": self.round}

    def op(self, key, index):
        out = self.run_dir / f"verify{index}.json"
        argv = self.argv[key] + ["--out", str(out)]
        latency, (code, stdout, stderr) = _timed(lambda: call_cli(argv))
        body = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        return latency, {"code": code, "stdout": stdout, "stderr": stderr, "report": body}, {}

    def check(self, key, output):
        if output["code"] != 0 or not output["report"]:
            return [f"exit {output['code']}: {output['stdout'][-200:]} {output['stderr'][-200:]}"]
        payload = json.loads(output["report"])
        problems = []
        if payload["violations"]:
            problems.append(f"violations at t = {payload['violations']}")
        for row in payload["rows"]:
            want = expected_bound(key, row)
            if not _close(row["bound"], want, BOUND_RTOL):
                problems.append(f"t = {row['t']}: bound {row['bound']!r}, recomputed {want!r}")
        return problems


# ------------------------------------------------------------ certify

RANK_POS = RANK_NEG = 22     # rook graph of the certified task
ROOK_SMALL = (3, 4)          # exact chi_f = 4 on 12 vertices
PAIR_DIM = 72
LFRC_DRAWS = 500
M_TILDE = 1.0
FIXED_POINT_TOL = 1e-10


class Certify(Workload):
    """One op: a kernel-mode certificate for one pair-transformed task."""

    name = "certify"

    def __init__(self, run_dir, rng):
        super().__init__(run_dir, rng)
        self.rook_small = run_dir / "rook34.edges"
        self.rook_small.write_text(inputs.rook_edges_text(*ROOK_SMALL))
        self.tasks = {}
        for variant in range(2):
            key = f"variant{variant}"
            X = inputs.pair_task(rng, RANK_POS, RANK_NEG, PAIR_DIM)
            graph_file = run_dir / f"random12-{variant}.edges"
            graph_file.write_text(inputs.random_graph_text(rng))
            self.tasks[key] = (X, graph_file, int(rng.integers(0, 2**31 - 1)))
        self.round = list(self.tasks)
        self.work = {"n_pos": RANK_POS, "n_neg": RANK_NEG, "pair_dim": PAIR_DIM,
                     "lfrc_draws": LFRC_DRAWS}

    def warmup(self):
        key = self.round[0]
        return [(key, self.op(key, "warm")[1])]

    def op(self, key, index):
        X, graph_file, lfrc_seed = self.tasks[key]
        covers = [self.run_dir / f"cover-{index}-{i}.txt" for i in range(2)]
        start = time.perf_counter()
        values = self._certificate(X, graph_file, lfrc_seed, covers)
        latency = time.perf_counter() - start
        cover_texts = [c.read_text() if c.exists() else "" for c in covers]
        for c in covers:
            c.unlink(missing_ok=True)
        values["cover_texts"] = cover_texts
        facts = {"greedy_weight_ratio": values["greedy_weight"] / max(RANK_POS, RANK_NEG),
                 "fixed_point_fn_evals": values["fn_evals"]}
        output = json.dumps(values, sort_keys=True).encode()
        return latency, output, facts

    def _certificate(self, X, graph_file, lfrc_seed, covers):
        graph, rook_cover = graphdep.bipartite_ranking_graph(RANK_POS, RANK_NEG)
        rook_ok = graphdep.validate_cover(graph, rook_cover).ok
        greedy = graphdep.greedy_cover(graph)
        greedy_ok = graphdep.validate_cover(graph, greedy).ok
        chi_runs = [call_cli(["graph", "chi", "--edges", str(edges), "--out", str(out)])
                    for edges, out in zip((self.rook_small, graph_file), covers)]

        S = lfrc.second_moment_matrix(X)
        r = 0.2 * float(np.trace(S)) / S.shape[0]
        spec = lfrc.LinearClassSpec(m_tilde=M_TILDE, second_moments=(S,), r=r)
        est, stderr = lfrc.estimate_lfrc([X], [rook_cover], spec,
                                         n_draws=LFRC_DRAWS, seed=lfrc_seed)

        m, chi = RANK_POS * RANK_NEG, max(RANK_POS, RANK_NEG)
        spectrum = bounds.spectrum_from_gram(X @ X.T)
        params = bounds.BoundParams(K=1, m_list=(float(m),), chi_list=(float(chi),),
                                    m_tilde=M_TILDE)
        r_star, cuts = bounds.rstar_kernel([spectrum], params)

        lam = M_TILDE**2 * spectrum.values
        evals = [0]

        def local_complexity(radius):
            # sub-root: sqrt(chi/m * sum_j min(r, lambda_j))
            evals[0] += 1
            return math.sqrt(chi / m * float(np.minimum(radius, lam).sum()))

        handle = lfrc.SubRootHandle(fn=local_complexity, r_hi=1.0)
        r_fixed = lfrc.fixed_point(handle, tol=FIXED_POINT_TOL)
        fn_evals = evals[0]
        residual = abs(local_complexity(r_fixed) - r_fixed)
        return {
            "rook_ok": rook_ok, "rook_weight": rook_cover.total_weight,
            "greedy_ok": greedy_ok, "greedy_weight": greedy.total_weight,
            "chi_codes": [code for code, _, _ in chi_runs],
            "chi_stdout": [out.splitlines()[0] if out else "" for _, out, _ in chi_runs],
            "lfrc": [est, stderr], "r": r, "r_star": r_star, "cuts": cuts,
            "r_fixed": r_fixed, "residual": residual, "fn_evals": fn_evals,
        }

    def check(self, key, output):
        v = json.loads(output)
        problems = []
        if not v["rook_ok"] or v["rook_weight"] != max(RANK_POS, RANK_NEG):
            problems.append(f"rook cover ok={v['rook_ok']} weight={v['rook_weight']}")
        if not v["greedy_ok"]:
            problems.append("greedy cover failed validation")
        if v["chi_codes"] != [0, 0]:
            problems.append(f"graph chi exit codes {v['chi_codes']}")
        else:
            problems += self._check_chi(key, v)
        if v["residual"] > FIXED_POINT_TOL * max(1.0, v["r_fixed"]):
            problems.append(f"|f(r*) - r*| = {v['residual']} at r* = {v['r_fixed']}")
        est, _ = v["lfrc"]
        if not (math.isfinite(est) and est > 0 and math.isfinite(v["r_star"]) and v["r_star"] > 0):
            problems.append(f"lfrc estimate {est}, r* {v['r_star']}")
        return problems

    def _check_chi(self, key, v):
        problems = []
        graphs = (graphdep.bipartite_ranking_graph(*ROOK_SMALL)[0],
                  graphdep.DependencyGraph.from_text(self.tasks[key][1].read_text()))
        for i, (graph, text) in enumerate(zip(graphs, v["cover_texts"])):
            cover = graphdep.FractionalCover.from_text(text, graph)
            if not graphdep.validate_cover(graph, cover).ok:
                problems.append(f"graph chi cover {i} failed validation")
        weight = graphdep.FractionalCover.from_text(v["cover_texts"][0], graphs[0]).total_weight
        if v["chi_stdout"][0] != "chi_f = 4" or abs(weight - 4.0) > 1e-9:
            problems.append(f"chi_f(rook(3,4)): printed {v['chi_stdout'][0]!r}, "
                            f"cover weight {weight}")
        return problems
