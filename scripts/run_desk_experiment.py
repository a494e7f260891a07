#!/usr/bin/env python3
"""Run the full desk-scale experiment: train the shared-bank protocol and
both baselines on the frozen benchmark, evaluate each, and write one
combined results table plus a communication summary. The run-config
document of each baseline's run is written to <out>/<baseline>/config.json,
and the experiment's, without a baseline, to <out>/config.json.

Usage:
    python3 scripts/run_desk_experiment.py --out runs/desk [--seed 63] [--rounds 60]
"""

import argparse
import copy
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from feddymem.config import load_run_config
from feddymem.evaluation import write_results_csv
from feddymem.pipeline import bench_comm, eval_run, train_run

DESK_CONFIG = {
    "seed": 63,
    "federation": {"n_clients": 5, "rounds": 60, "checkpoint_interval": 20},
    "dataset": {
        "n_types": 3,
        "samples_per_type": 60,
        "test_normals_per_type": 12,
        "test_anomalies_per_type": 12,
        "anomaly_magnitude": 2.5,
        "anomaly_extent": 7,
        "noise_scale": 0.08,
        "type_spread": 1.0,
    },
}

BASELINES = ("feddymem", "plain_average", "local_only")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    doc = copy.deepcopy(DESK_CONFIG)
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.rounds is not None:
        doc["federation"]["rounds"] = args.rounds
    # the experiment's document; each run directory holds the one it
    # trained, its baseline included, so `feddymem train --resume --config`
    # on a run directory continues that run
    (out_root / "config.json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    rows = []
    for baseline in BASELINES:
        run_doc = copy.deepcopy(doc)
        run_doc["federation"]["baseline"] = baseline
        cfg = load_run_config(run_doc)
        run_dir = out_root / baseline
        run_dir.mkdir(exist_ok=True)
        (run_dir / "config.json").write_text(json.dumps(run_doc, indent=1, sort_keys=True))
        t0 = time.time()
        train_run(cfg, run_dir, threads=args.threads)
        metrics = eval_run(cfg, run_dir)
        print(f"{baseline:14s} trained in {time.time() - t0:6.1f}s  "
              f"I-AUROC {metrics.i_auroc:.4f}  P-AUROC {metrics.p_auroc:.4f}  "
              f"PRO {metrics.pro:.4f}")
        rows.append((f"seed{cfg.federation.seed}", baseline, metrics.i_auroc,
                     metrics.p_auroc, metrics.pro))
        if baseline == "feddymem":
            bench_comm(cfg, run_dir)

    write_results_csv(out_root / "results.csv", rows)
    print(f"\nresults table: {out_root / 'results.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
