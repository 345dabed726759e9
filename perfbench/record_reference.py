"""Record the reference values the experiment workloads check against.

    python3 perfbench/record_reference.py

Run from a checkout root.  It runs each experiment workload's reference
op (a fixed dataset and experiment seed, independent of --seed) and
writes perfbench/reference.json.  Re-record only when a change is meant
to move report values, and say why in CHANGES.md.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main():
    run.cap_blas_threads()
    root = run.source_root()
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import workloads

    values = {}
    for cls in (workloads.Experiment, workloads.ExperimentManyLabel):
        run_dir = Path(tempfile.mkdtemp(dir=root))
        try:
            _, output, _ = cls(run_dir, np.random.default_rng(0)).op("reference", "ref")
        finally:
            shutil.rmtree(run_dir)
        payload = json.loads(output["report"])
        summary, (rep,) = payload["summary"], payload["per_seed_reports"]
        values[cls.name] = {
            "bound_ours": rep["bound_ours"], "bound_prior": rep["bound_prior"],
            "r_star": rep["r_star"], "test_macro_auc": summary["test_macro_auc"]["mean"],
            "weight_decay": rep["params"]["weight_decay"], "d_star": rep["d_star"],
            "smaller_bound": summary["smaller_bound"],
        }
    workloads.REFERENCE_PATH.write_text(json.dumps(values, indent=2) + "\n")
    print(json.dumps(values, indent=2))


if __name__ == "__main__":
    main()
