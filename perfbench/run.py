"""gdbound benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a gdbound checkout; the library is imported from
its `src/`.  One process runs one workload: a closed loop in which a
single caller runs ops back to back and waits for each.  `all` runs every
workload, each in a fresh process.

With --trace 0 the last stdout line is a JSON object carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced pass (see perfbench/README.md).  Exit status is 0 when every op
passed its output check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from spans import BenchError

WORKLOADS = ("experiment", "experiment-manylabel", "verify", "certify")
SETUP_REPEATS = 3          # fresh interpreters per run for setup_s / import times
SETUP_CODE = "import gdbound.cli as c; c.build_parser()"
IMPORTED = ("cli", "macroauc", "lfrc", "mcverify", "graphdep", "bounds", "concentration")
OUT_DIR = ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """BLAS threads <= nproc; must run before numpy is imported."""
    cap = nproc()
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= cap:
            os.environ[var] = str(cap)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def source_root():
    root = Path.cwd()
    if not (root / "src" / "gdbound" / "__init__.py").is_file():
        raise BenchError(f"no gdbound source under {root / 'src'}; run from a checkout root")
    return root


def _setup_process(root, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, *flags, "-c", SETUP_CODE], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up import failed: {proc.stderr.strip()[-500:]}")
    return proc


# ------------------------------------------------------------ set-up timing


def time_setup(root, probe):
    """(raw, scaled) wall seconds of fresh interpreters that import
    gdbound.cli and call build_parser(), as every gdbound command does."""
    raw, scaled = [], []
    before = probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _setup_process(root)
        raw.append(time.perf_counter() - start)
        after = probe()
        scaled.append(probe.scaled(raw[-1], before, after))
        before = after
    return raw, scaled


def import_times(root):
    """{module: [cumulative import seconds per run]} from -X importtime."""
    out = {m: [] for m in IMPORTED}
    pattern = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*gdbound\.(\w+)\s*$")
    for _ in range(SETUP_REPEATS):
        seen = {}
        for line in _setup_process(root, "-X", "importtime").stderr.splitlines():
            match = pattern.search(line)
            if match and match.group(2) in out:
                seen[match.group(2)] = int(match.group(1)) * 1e-6
        missing = set(IMPORTED) - set(seen)
        if missing:
            raise BenchError(f"-X importtime shows no import of gdbound.{sorted(missing)}")
        for module, value in seen.items():
            out[module].append(value)
    return out


# ------------------------------------------------------------ stamp


def stamp(root, blas_cap, work):
    import numpy as np
    import scipy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "gdbound").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": nproc(),
        "blas_thread_cap": blas_cap,
        "mem_total_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "work": work,
    }


# ------------------------------------------------------------ passes


def run_pass(workload, budget_s, min_rounds, probe, tracer=None, first_index=0):
    """Whole rounds of ops back to back, the speed probe timed before the
    first op and after each op; another round starts only while the mean
    round so far still fits in the budget.  Op latencies are kept raw and
    scaled to reference speed."""
    raw, scaled, outputs, facts, rounds = [], [], [], {}, 0
    probes = [probe()]
    index = first_index
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed + elapsed / rounds > budget_s:
            break
        for key in workload.round:
            with tracer.op(index) if tracer else nullcontext():
                latency, output, op_facts = workload.op(key, index)
            probes.append(probe())
            raw.append(latency)
            scaled.append(probe.scaled(latency, probes[-2], probes[-1]))
            outputs.append((key, output))
            for name, value in op_facts.items():
                facts[name] = facts.get(name, 0) + value
            index += 1
        rounds += 1
    return {"raw": raw, "scaled": scaled, "probes": probes, "outputs": outputs,
            "facts": facts, "round_size": len(workload.round)}


def round_times(record):
    """Scaled op time of each whole round."""
    size, lat = record["round_size"], record["scaled"]
    return [sum(lat[i:i + size]) for i in range(0, len(lat), size)]


def check_outputs(workload, outputs):
    """Per-op checks, plus byte identity among outputs of the same key
    (a replay of a (config, seed) must reproduce its report exactly)."""
    failed, problems, first = 0, [], {}
    for key, output in outputs:
        found = list(workload.check(key, output))
        if key in first and first[key] != output:
            found.append(f"{key}: output differs from an earlier run of the same input")
        first.setdefault(key, output)
        if found:
            failed += 1
            problems += [f"{key}: {p}" for p in found]
    unreplayed = [k for k in workload.round if sum(k == key for key, _ in outputs) < 2]
    if unreplayed:
        problems.append(f"never replayed: {unreplayed}")
    return failed, problems


def latency_summary(latencies):
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    out = {"p50": statistics.median(latencies), "samples": n}
    for p in (99.9, 99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p:g}"] = statistics.quantiles(latencies, n=1000)[round(p * 10) - 1]
            break
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------ one workload


def run_workload(name, seed, seconds, trace):
    blas_cap = cap_blas_threads()
    root = source_root()
    import numpy as np
    import speed
    if trace:
        imports = import_times(root)
    else:
        setup_raw, setup_scaled = time_setup(root, speed.SpeedProbe())
    sys.path.insert(0, str(root / "src"))
    import gdbound
    if Path(gdbound.__file__).resolve().parent != (root / "src" / "gdbound").resolve():
        raise BenchError(f"gdbound imported from {gdbound.__file__}, not from {root / 'src'}")
    import layers
    import spans
    import workloads

    classes = {w.name: w for w in (workloads.Experiment, workloads.ExperimentManyLabel,
                                   workloads.Verify, workloads.Certify)}
    tag = f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    out_dir = root / OUT_DIR
    run_dir = out_dir / "runs" / tag
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = classes[name](run_dir, np.random.default_rng(seed))
        probe = speed.SpeedProbe(workload.probe_parts)
        outputs = workload.warmup()
        if trace:
            plain = run_pass(workload, seconds / 2, 1, probe)
            tracer = spans.Tracer()
            tracer.install(layers.targets())
            try:
                traced = run_pass(workload, seconds / 2, 1, probe, tracer=tracer,
                                  first_index=len(plain["raw"]))
            finally:
                tracer.uninstall()
            passes = [plain, traced]
        else:
            passes = [run_pass(workload, seconds, 2, probe)]
        for p in passes:
            outputs += p["outputs"]
        failed, problems = check_outputs(workload, outputs)
    finally:
        for path in sorted(run_dir.rglob("*"), reverse=True):
            path.rmdir() if path.is_dir() else path.unlink()
        run_dir.rmdir()

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "stamp": stamp(root, blas_cap, workload.work),
              "probe": {"parts": probe.parts, "reference_s": probe.reference_s},
              "problems": problems}
    for i, p in enumerate(passes):
        record[f"pass{i}"] = {"keys": [k for k, _ in p["outputs"]], "raw_s": p["raw"],
                              "scaled_s": p["scaled"], "probes_s": p["probes"]}
    if trace:
        plain, traced = passes
        n_traced = len(traced["raw"])
        overhead = statistics.mean(traced["scaled"]) / statistics.mean(plain["scaled"]) - 1
        medians = {m: statistics.median(v) for m, v in imports.items()}
        metrics = layers.per_layer_metrics(tracer, n_traced, traced["facts"], medians, overhead)
        record["samples"] = {"traced_ops": n_traced, "untraced_ops": len(plain["raw"]),
                             "setup.import": SETUP_REPEATS}
        spans_file = out_dir / "spans" / f"{tag}.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps({"stamp": record["stamp"],
                                          "spans": tracer.as_records()}))
        record["spans_file"] = str(spans_file.relative_to(root))
    else:
        (p,) = passes
        lat = latency_summary(p["scaled"])
        rounds = round_times(p)
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "ops_per_s": (p["round_size"] / statistics.median(rounds), "ops/s"),
            "op_p50_s": (lat["p50"], "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        record["samples"] = {"setup_s": SETUP_REPEATS, "op_p50_s": lat["samples"],
                             "ops_per_s": len(rounds)}
        record["latency"] = lat
        record["raw"] = {"setup_s": setup_raw, "op_p50_s": statistics.median(p["raw"])}
    attempted = len(outputs)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["failed_ratio"] = failed / attempted
    results = out_dir / "results" / f"{tag}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=2) + "\n")

    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(f"workload {name}  seed {seed}  trace {trace}  ops attempted {attempted}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<40} {value:>14.6g} {unit}")
    print(f"  {'failed_ratio':<40} {failed / attempted:>14.6g} 1")
    if not trace:
        extra = [f"{k} {v:.6g} s" for k, v in lat.items() if k.startswith("p") and k != "p50"]
        print(f"  op latency samples {lat['samples']}; "
              + (", ".join(extra) if extra else "no percentile above p50 has 10 samples beyond it"))
        print(f"  unscaled: setup_s {statistics.median(setup_raw):.6g} s, "
              f"op_p50_s {statistics.median(p['raw']):.6g} s; "
              f"speed probe median {statistics.median(p['probes']):.6g} s "
              f"(reference {probe.reference_s:.6g} s)")
    print(f"  result file {results.relative_to(root)}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


def run_all(args):
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], timeout=900)
        status = status or proc.returncode
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
