"""Command-line entry point.

Subcommands: synth, init, train, eval, audit, bench-comm. Every command
takes --config (JSON document) and --out (artifact directory); --seed,
--threads and --baseline override the config. Failures print one
machine-readable error JSON to stdout and exit with 2 (config), 3 (I/O) or
4 (numeric failure). Verbosity is controlled by the FEDDYMEM_LOG env var.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import load_run_config
from .errors import ConfigError, NumericError
from .orchestrator import BASELINES
from .pipeline import bench_comm, eval_run, train_run, write_synth_dataset
from .privacy import audit_reduction

log = logging.getLogger("feddymem")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the run config JSON")
    parser.add_argument("--out", required=True, help="artifact output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--threads", type=int, default=1, help="max concurrent client workers")
    parser.add_argument("--baseline", default=None, choices=BASELINES,
                        help="override the configured baseline")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="feddymem")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("synth", "materialize the synthetic dataset as manifests + tensors"),
        ("init", "run round-0 initialization only"),
        ("train", "full federated training run"),
        ("eval", "score the test set against a trained run"),
        ("audit", "empirical privacy audit of memory-reduce"),
        ("bench-comm", "one-row table: bytes a client uploads per round, bank vs parameters"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "train":
            p.add_argument("--resume", action="store_true",
                           help="continue from the latest checkpoint in --out")
        if name == "eval":
            p.add_argument("--round", type=int, default=None,
                           help="checkpoint round to evaluate (default: latest)")
            p.add_argument("--export-heatmaps", action="store_true",
                           help="write post-processed heatmaps as FDM1 tensors")
    return parser


def _configure_logging() -> None:
    level = os.environ.get("FEDDYMEM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _fail(kind: str, exc: Exception, code: int) -> int:
    payload = {"error": {"type": kind, "message": str(exc)}}
    if isinstance(exc, ConfigError) and exc.key is not None:
        payload["error"]["key"] = exc.key
    print(json.dumps(payload, sort_keys=True))
    return code


def _run(args: argparse.Namespace) -> int:
    cfg = load_run_config(args.config, seed_override=args.seed,
                          baseline_override=args.baseline)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.command == "synth":
        root = write_synth_dataset(cfg, out_dir)
        log.info("dataset written to %s", root)
    elif args.command == "init":
        fed = replace(cfg.federation, rounds=0)
        train_run(replace(cfg, federation=fed), out_dir, threads=args.threads)
        log.info("initialization artifacts in %s", out_dir)
    elif args.command == "train":
        result = train_run(cfg, out_dir, threads=args.threads, resume=args.resume)
        log.info("trained %d rounds; metrics at %s", cfg.federation.rounds,
                 result.out_dir / "metrics.jsonl")
    elif args.command == "eval":
        metrics = eval_run(cfg, out_dir, round_index=args.round,
                           export_heatmaps=args.export_heatmaps)
        log.info("I-AUROC=%.4f P-AUROC=%.4f PRO=%.4f",
                 metrics.i_auroc, metrics.p_auroc, metrics.pro)
    elif args.command == "audit":
        report = audit_reduction(cfg.audit)
        report.write(out_dir / "audit.json")
        if report.status != "ok":
            log.warning("audit inconclusive: sampling-error budget exceeded")
        log.info("audit report at %s", out_dir / "audit.json")
    elif args.command == "bench-comm":
        path = bench_comm(cfg, out_dir)
        log.info("communication table at %s", path)
    else:  # pragma: no cover - argparse enforces the choice
        raise ValueError(f"unknown command {args.command!r}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except (json.JSONDecodeError,) as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except (OSError,) as exc:
        return _fail("io", exc, EXIT_IO)
    except (NumericError, FloatingPointError) as exc:
        return _fail("numeric", exc, EXIT_NUMERIC)
    except Exception as exc:  # noqa: BLE001 - surface anything else as internal
        return _fail("internal", exc, EXIT_INTERNAL)


if __name__ == "__main__":
    raise SystemExit(main())
