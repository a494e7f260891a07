#!/usr/bin/env python3
"""Digest every deterministic artifact of the desk experiment, and compare
it with the committed one.

Runs `scripts/run_desk_experiment.py` at seed 63 for 60 rounds (each
baseline trained and evaluated), then `feddymem eval --export-heatmaps` of
each baseline, and the same at seed 11 for 4 rounds. Writes the sha256 of
every file the runs leave, except the wall-clock `timings.csv`, keyed by run
and by path (baseline first), to <out>/DIGEST.json. Then compares the files'
hashes with the repository's DIGEST.json, lists every path that differs, is
missing or is new, and exits 1 if there is any.

The digest's `env` records the Python and numpy versions, numpy's BLAS and
the OpenBLAS core kernel chosen at run time (`OPENBLAS_CORETYPE` overrides
it): the banks' last bits depend on that kernel, so a digest made under
another one is expected to differ.

A change that claims bit-identical outputs shows that this exits 0; one
that changes numerics on purpose commits the new DIGEST.json and names the
paths that changed.

Usage:
    python3 scripts/digest.py --out runs/digest
"""

import argparse
import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BASELINES = ("feddymem", "plain_average", "local_only")
# (run name, seed, rounds)
RUNS = (("seed63_rounds60", 63, 60), ("seed11_rounds4", 11, 4))
SKIPPED = {"timings.csv"}


def _run(args: list[str]) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, *args], check=True, env=env, stdout=subprocess.DEVNULL)


def _env() -> dict[str, str]:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    env = {"python": sys.version.split()[0], "numpy": np.__version__,
           "blas": f"{blas['name']} {blas['version']}",
           "blas_core": os.environ.get("OPENBLAS_CORETYPE", "unknown")}
    # the OpenBLAS bundled with numpy's wheels is already loaded; ask it
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        env["blas_core"] = corename().decode()
    return env


def _hashes(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name not in SKIPPED}


def _differences(got: dict, want: dict) -> list[str]:
    lines = []
    for run in sorted(set(got) | set(want)):
        a, b = got.get(run, {}), want.get(run, {})
        for path in sorted(set(a) | set(b)):
            if path not in b:
                lines.append(f"new      {run}/{path}")
            elif path not in a:
                lines.append(f"missing  {run}/{path}")
            elif a[path] != b[path]:
                lines.append(f"differs  {run}/{path}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    runs = {}
    for name, seed, rounds in RUNS:
        run_dir = args.out / name
        _run([str(ROOT / "scripts/run_desk_experiment.py"), "--out", str(run_dir),
              "--seed", str(seed), "--rounds", str(rounds)])
        for baseline in BASELINES:
            _run(["-m", "feddymem.cli", "eval", "--config", str(run_dir / baseline / "config.json"),
                  "--out", str(run_dir / baseline), "--export-heatmaps"])
        runs[name] = _hashes(run_dir)
        print(f"{name}: {len(runs[name])} files")

    doc = {"env": _env(), "runs": runs}
    (args.out / "DIGEST.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"digest: {args.out / 'DIGEST.json'}")

    committed = ROOT / "DIGEST.json"
    if not committed.exists():
        print(f"no {committed} to compare with")
        return 0
    want = json.loads(committed.read_text())
    if want["env"] != doc["env"]:
        print(f"note: committed under {want['env']}, run under {doc['env']}; another "
              f"BLAS core kernel changes the banks' last bits")
    lines = _differences(runs, want["runs"])
    print("\n".join(lines) if lines else f"equal to {committed}")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
