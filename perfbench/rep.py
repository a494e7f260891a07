"""One benchmark repetition: set up, train and evaluate one workload, then
check the outputs.

Run as a script, it does this in a fresh process and writes result.json
(and spans.json when traced) into --out; with --setup-only it only sets up:

    python3 perfbench/rep.py --workload desk --seed 63 --out DIR [--trace | --setup-only]

The system is driven only through its public entry points:
config.load_run_config, config.load_federated_data,
orchestrator.build_client_dataset, orchestrator.run_training and
pipeline.eval_run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_library():
    """Import feddymem from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import feddymem
    # the entry points' modules, so that no timed phase includes importing them
    import feddymem.config, feddymem.orchestrator, feddymem.pipeline  # noqa: E401, F401

    if Path(feddymem.__file__).resolve().parent != SRC / "feddymem":
        raise ImportError(f"feddymem imported from {feddymem.__file__}, not {SRC}")


def bank_sha256(bank) -> str:
    """Hash of the bank's float32 values in row-major order, with its shape."""
    data = np.ascontiguousarray(bank, dtype="<f4")
    digest = hashlib.sha256(repr(data.shape).encode())
    digest.update(data.tobytes())
    return digest.hexdigest()


def check_training(run_dir: Path, result, fed) -> tuple[list[str], float]:
    """Failures of the training outputs, and the bytes exchanged per round."""
    failures = []
    bank = result.global_bank.data
    if bank.shape != fed.bank_shape:
        failures.append(f"final bank shape {bank.shape} != {fed.bank_shape}")
    if not np.isfinite(bank).all():
        failures.append("final bank is not finite")
    lines = [ln for ln in (run_dir / "metrics.jsonl").read_text().splitlines() if ln]
    if len(lines) != fed.rounds + 1:
        failures.append(f"metrics.jsonl has {len(lines)} lines, expected {fed.rounds + 1}")

    # an upload is one bank in the FDM1 format, the format of global_bank.fdm1
    bank_bytes = (run_dir / "global_bank.fdm1").stat().st_size
    per_round: dict[int, int] = {}
    uploads: dict[tuple[int, int], int] = {}
    with open(run_dir / "ledger.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            t, nbytes = int(row["round"]), int(row["bytes"])
            per_round[t] = per_round.get(t, 0) + nbytes
            if row["direction"] == "up":
                uploads[(t, int(row["client"]))] = uploads.get((t, int(row["client"])), 0) + nbytes
    for t in range(fed.rounds + 1):
        for n in range(fed.n_clients):
            got = uploads.get((t, n))
            if got != bank_bytes:
                failures.append(f"round {t} client {n} uploaded {got} bytes, expected {bank_bytes}")
    training = [per_round.get(t, 0) for t in range(1, fed.rounds + 1)]
    return failures, sum(training) / len(training)


def check_detection(metrics) -> list[str]:
    failures = []
    for name in ("i_auroc", "p_auroc", "pro"):
        value = getattr(metrics, name)
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            failures.append(f"{name} = {value} is not a finite value in [0, 1]")
    return failures


def set_up(doc: dict):
    """Config, synthetic data and frozen features of the training clients."""
    from feddymem.config import load_federated_data, load_run_config
    from feddymem.orchestrator import build_client_dataset

    cfg = load_run_config(doc)
    client_train, _ = load_federated_data(cfg)
    return cfg, [build_client_dataset(samples, cfg.federation.extractor)
                 for samples in client_train]


def run_rep(doc: dict, out_dir: Path) -> dict:
    """Set up, train and evaluate one run-config document under out_dir."""
    from feddymem.orchestrator import run_training
    from feddymem.pipeline import eval_run

    run_dir = out_dir / "run"
    rep = {"train_failures": [], "eval_failures": []}

    t0 = time.perf_counter()
    cfg, datasets = set_up(doc)
    t1 = time.perf_counter()
    result = run_training(cfg.federation, datasets, run_dir, threads=1)
    t2 = time.perf_counter()
    metrics = eval_run(cfg, run_dir)
    t3 = time.perf_counter()

    rep["train_failures"], comm = check_training(run_dir, result, cfg.federation)
    rep["eval_failures"] = check_detection(metrics)
    rep.update({
        "setup_s": t1 - t0,
        "train_s": t2 - t1,
        "eval_s": t3 - t2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "i_auroc": metrics.i_auroc,
        "p_auroc": metrics.p_auroc,
        "pro": metrics.pro,
        "comm_bytes_per_round": comm,
        "bank_sha256": bank_sha256(result.global_bank.data),
    })
    return rep


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    try:
        _import_library()
        import scipy

        doc = WORKLOADS[args.workload](args.seed)
        if args.setup_only:
            t0 = time.perf_counter()
            set_up(doc)
            rep = {"setup_s": time.perf_counter() - t0}
        elif args.trace:
            from spans import Recorder, install

            recorder = Recorder()
            with install(recorder) as absent:
                rep = run_rep(doc, args.out)
            (args.out / "spans.json").write_text(json.dumps(
                {"absent": sorted(absent), "spans": recorder.to_rows()}))
        else:
            rep = run_rep(doc, args.out)
        rep["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__}
    except Exception:
        # the run itself failed: report it as failed operations, not a crash
        reason = traceback.format_exc()
        rep = {"train_failures": [reason], "eval_failures": [reason]}
    (args.out / "result.json").write_text(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
