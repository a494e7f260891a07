"""Benchmark of the feddymem protocol: set-up, training and evaluation of
fixed workloads, each repetition in a fresh process.

    python3 perfbench/run.py --workload desk --seed 63 --seconds 40 --trace 0

Repetitions run until --seconds is spent (at least MIN_REPS, when they
fit before DEADLINE_S). The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, medians over repetitions. With --trace 1 untraced and traced repetitions
alternate, and the metrics are the per-layer ones from the traced
repetitions plus the tracing overhead. Without --workload every workload
runs in turn and the metric names are prefixed with "<workload>/".

Each repetition is two operations, train and eval; a repetition whose
outputs fail a check, or whose final bank hash differs from the first
repetition's, counts as failed. An untraced run also times set-up alone in
SETUP_SAMPLES fresh processes, one operation each. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import layer_metrics, spans_from_rows  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

E2E_UNITS = {
    "setup_s": "s", "train_s": "s", "eval_s": "s", "peak_rss_mb": "MB",
    "i_auroc": "1", "p_auroc": "1", "pro": "1", "comm_bytes_per_round": "B",
}
MIN_REPS = {False: 3, True: 4}  # untraced; traced (two of each kind)
DEADLINE_S = 170  # a workload's repetitions end by then, even when they hang
# another repetition starts only with this many times the longest one's
# wall time left, so the deadline kills hangs, not slow repetitions
MARGIN = 1.5
# set-up takes 40-150 ms, and its median needs more fresh-process samples
# than the repetitions give; these share the run's --seconds
SETUP_SAMPLES = 6
# one BLAS thread: the workloads run the protocol with threads=1, and a
# shared two-core host gives steadier timings without BLAS threads
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_one(workload: str, seed: int, traced: bool, tmp: Path, timeout: float,
            setup_only: bool = False) -> dict:
    """One repetition, or set-up alone, in a fresh process; returns its result record."""
    out = Path(tempfile.mkdtemp(dir=tmp))
    env = dict(os.environ, TMPDIR=str(tmp), **BLAS_ENV)
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)] + (["--trace"] if traced else [])
    cmd += ["--setup-only"] if setup_only else []
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        rep = json.loads((out / "result.json").read_text())
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stdout[-2000:]}")
    except (OSError, ValueError, RuntimeError, subprocess.TimeoutExpired) as exc:
        rep = {"train_failures": [repr(exc)], "eval_failures": [repr(exc)]}
    rep["traced"] = traced
    rep["wall_s"] = time.monotonic() - started
    if traced and (out / "spans.json").exists():
        doc = json.loads((out / "spans.json").read_text())
        rep["spans"] = spans_from_rows(doc["spans"])
        rep["absent"] = set(doc["absent"])
    shutil.rmtree(out, ignore_errors=True)
    return rep


def run_reps(workload: str, seed: int, seconds: float, trace: bool,
             tmp: Path) -> tuple[list[dict], list[dict]]:
    """(set-up-only records, repetition records) of one workload."""
    start = time.monotonic()
    setups = [] if trace else [
        run_one(workload, seed, False, tmp, DEADLINE_S - (time.monotonic() - start), True)
        for _ in range(SETUP_SAMPLES)]
    reps: list[dict] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_one(workload, seed, traced, tmp, DEADLINE_S - (time.monotonic() - start)))
        longest = max(r["wall_s"] for r in reps)
        elapsed = time.monotonic() - start
        if (DEADLINE_S - elapsed < MARGIN * longest
                or (len(reps) >= MIN_REPS[trace] and elapsed + longest > seconds)):
            return setups, reps


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def summarize(workload: str, seed: int, setups: list[dict], reps: list[dict],
              trace: bool) -> dict:
    """Checks across repetitions, detail lines, and the result object."""
    setup_times = [r["setup_s"] for r in setups if "setup_s" in r]
    failed = len(setups) - len(setup_times)
    if setups:
        print(json.dumps({"workload": workload, "setup_only_s": setup_times}))
    hashes = [r.get("bank_sha256") for r in reps]
    reference = next((h for h in hashes if h), None)
    for r, h in zip(reps, hashes):
        if h != reference:
            r["train_failures"].append(f"final bank hash {h} != {reference}")
        failed += bool(r["train_failures"]) + bool(r["eval_failures"])
        detail = {k: r.get(k) for k in ("traced", "setup_s", "train_s", "eval_s",
                                       "peak_rss_mb", "bank_sha256")}
        print(json.dumps({"workload": workload, "rep": detail,
                          "failures": r["train_failures"] + r["eval_failures"]}))
    print(json.dumps({"workload": workload, "seed": seed, "bank_sha256": reference}))

    ok = [r for r in reps if not (r["train_failures"] or r["eval_failures"])]
    metrics: dict[str, dict] = {}
    plain = [r for r in ok if not r["traced"]]
    if trace:
        traced = [r for r in ok if r["traced"]]
        absent = set().union(*(r["absent"] for r in traced)) if traced else set()
        if traced:
            metrics, missing = layer_metrics([r["spans"] for r in traced], absent)
            print(json.dumps({"workload": workload, "absent_spans": sorted(absent),
                              "absent_metrics": missing}))
        if traced and plain:
            metrics["trace.overhead_train_s"] = {
                "value": _median(traced, "train_s") - _median(plain, "train_s"), "unit": "s"}
    elif plain:
        metrics = {k: {"value": _median(plain, k), "unit": u} for k, u in E2E_UNITS.items()}
        metrics["setup_s"]["value"] = statistics.median(
            [r["setup_s"] for r in plain] + setup_times)
    return {"correct": failed == 0 and bool(ok), "attempted": 2 * len(reps) + len(setups),
            "failed": failed, "metrics": metrics}


def environment(reps: list[dict]) -> dict:
    versions = next((r["versions"] for r in reps if "versions" in r), {})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], **versions, **BLAS_ENV, "threads": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "feddymem" / "__init__.py").is_file():
        print(f"no feddymem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    results = {}
    env = None
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in workloads:
            setups, reps = run_reps(name, args.seed, args.seconds, bool(args.trace), Path(tmp))
            if env is None:
                env = environment(reps)
                print(json.dumps({"env": env}))
            results[name] = summarize(name, args.seed, setups, reps, bool(args.trace))
    if args.workload:
        final = results[args.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
