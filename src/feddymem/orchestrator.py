"""Round-based federation driver.

Implements initialization (round 0) and the synchronous training rounds over
a simulated in-process network with byte-accurate accounting. Client updates
within a round may run on a thread pool; every stochastic choice is keyed by
(seed, client, round) through counter-based streams, so results are
bit-identical regardless of worker count or scheduling, and a run can resume
from any checkpoint with an identical continuation.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensorio
from .client import (
    ClientDataset,
    ClientModelState,
    LossConfig,
    MemoryBank,
    client_update,
    extract_all_memories,
    init_adam_states,
    max_patch_norm,
    memory_reduce,
)
from .errors import ConfigError, ShapeError
from .features import ExtractorSpec, extract_pyramid, fuse_pyramid, init_projection
from .generator import init_generator
from .numerics import DTYPE, Rng
from .server import (
    AggregationConfig,
    CommLedger,
    aggregate,
    average_banks,
    bank_nbytes,
    record_exchange,
)

# feddymem and plain_average share one aggregated bank every round;
# local_only exchanges no bytes in any round, round 0 included.
BASELINES = ("feddymem", "local_only", "plain_average")


@dataclass
class FederationConfig:
    seed: int = 0
    n_clients: int = 5
    rounds: int = 200
    baseline: str = "feddymem"
    loss: LossConfig = field(default_factory=LossConfig)
    extractor: ExtractorSpec = field(default_factory=ExtractorSpec)
    memory_channels: int = 16
    grid_hw: tuple[int, int] = (8, 8)
    phi_hidden: int | None = None
    checkpoint_interval: int = 10
    kmeans_max_iterations: int = 100
    kmeans_tolerance: float = 1e-6
    kmeans_n_init: int = 1
    score_mode: str = "min"

    def __post_init__(self):
        if self.n_clients < 1:
            raise ConfigError("n_clients must be >= 1", key="federation.n_clients")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0", key="federation.rounds")
        if self.baseline not in BASELINES:
            raise ConfigError(f"baseline must be one of {BASELINES}",
                              key="federation.baseline")
        if self.memory_channels < 1:
            raise ConfigError("memory_channels must be >= 1", key="memory.channels")
        if self.score_mode not in ("min", "mean"):
            raise ConfigError("score_mode must be 'min' or 'mean'",
                              key="federation.score_mode")

    @property
    def bank_shape(self) -> tuple[int, int, int]:
        h, w = self.extractor.base_hw
        return h, w, self.memory_channels

    def aggregation_config(self, round_index: int) -> AggregationConfig:
        seed = Rng(self.seed).child("aggregate", round_index).integers(0, 2**31 - 1)
        return AggregationConfig(max_iterations=self.kmeans_max_iterations,
                                 tolerance=self.kmeans_tolerance, seed=seed,
                                 n_init=self.kmeans_n_init)


@dataclass
class RoundMetrics:
    round_index: int
    client_losses: list[float]
    client_grad_sq_norms: list[float]
    bytes_up: int
    bytes_down: int
    r_hat_m: float
    wall_time: float = 0.0  # informational; excluded from the metrics stream

    def to_json_line(self) -> str:
        doc = {
            "round": self.round_index,
            "client_losses": [float(v) for v in self.client_losses],
            "client_grad_sq_norms": [float(v) for v in self.client_grad_sq_norms],
            "bytes_up": int(self.bytes_up),
            "bytes_down": int(self.bytes_down),
            "r_hat_m": float(self.r_hat_m),
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass
class ConvergenceMonitor:
    """Tracks the observable consequences of the convergence analysis:
    bounded losses (via the running max patch norm) and the per-round mean
    squared gradient norms whose ergodic average should shrink."""

    r_hat_m: float = 0.0
    loss_sum: float = 0.0
    loss_count: int = 0
    grad_sq_sum: float = 0.0
    grad_sq_count: int = 0
    round_mean_losses: list[float] = field(default_factory=list)
    round_mean_grad_sq: list[float] = field(default_factory=list)
    bound_violations: int = 0

    def observe_patch_norm(self, value: float) -> None:
        self.r_hat_m = max(self.r_hat_m, float(value))

    def observe_round(self, losses: list[float], grad_sqs: list[float]) -> None:
        for v in losses:
            self.loss_sum += v
            self.loss_count += 1
            if v > 2.0 * self.r_hat_m + 1e-9:
                self.bound_violations += 1
        for g in grad_sqs:
            self.grad_sq_sum += g
            self.grad_sq_count += 1
        if losses:
            self.round_mean_losses.append(float(np.mean(losses)))
        if grad_sqs:
            self.round_mean_grad_sq.append(float(np.mean(grad_sqs)))

    def quartile_grad_means(self) -> tuple[float, float]:
        """Mean per-round grad-norm average over the first and last quartile."""
        series = self.round_mean_grad_sq
        q = max(len(series) // 4, 1)
        return float(np.mean(series[:q])), float(np.mean(series[-q:]))

    def to_dict(self) -> dict:
        return {
            "r_hat_m": self.r_hat_m,
            "loss_sum": self.loss_sum,
            "loss_count": self.loss_count,
            "grad_sq_sum": self.grad_sq_sum,
            "grad_sq_count": self.grad_sq_count,
            "round_mean_losses": self.round_mean_losses,
            "round_mean_grad_sq": self.round_mean_grad_sq,
            "bound_violations": self.bound_violations,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ConvergenceMonitor":
        return cls(**doc)


# ---------------------------------------------------------------------------
# Dataset plumbing
# ---------------------------------------------------------------------------


def build_client_dataset(samples, spec: ExtractorSpec) -> ClientDataset:
    """Precompute frozen fused features for a list of labeled samples, each
    written into its row of one (N, H, W, Cin) stack. Every sample must
    fuse to the first sample's shape."""
    fused = np.empty((0, 0, 0, 0), dtype=DTYPE)
    for i, s in enumerate(samples):
        source = s.features if spec.kind == "synthetic" else s.sample_id
        row = fuse_pyramid(extract_pyramid(source, spec))
        if i == 0:
            fused = np.empty((len(samples),) + row.shape, dtype=row.dtype)
        elif row.shape != fused.shape[1:]:
            raise ShapeError(f"sample {s.sample_id!r} fuses to {row.shape}, "
                             f"not the first sample's {fused.shape[1:]}")
        fused[i] = row
    return ClientDataset(fused=fused, sample_ids=[s.sample_id for s in samples])


# ---------------------------------------------------------------------------
# Initialization and rounds
# ---------------------------------------------------------------------------


def _init_client_state(cfg: FederationConfig, n: int) -> ClientModelState:
    # each client draws its own random init: the protocol exchanges no
    # parameters, so there is no channel to distribute a shared one
    rng = Rng(cfg.seed).child("client", n)
    cin = cfg.extractor.fused_channels
    state = ClientModelState(
        client_id=n,
        params={**init_projection(rng.child("proj"), cin, cfg.memory_channels),
                **init_generator(rng.child("gen"), cfg.memory_channels,
                                 cfg.grid_hw, cfg.phi_hidden)},
        adam={},
    )
    init_adam_states(state, cfg.loss)
    return state


def _aggregate_banks(banks: list[MemoryBank], cfg: FederationConfig,
                     round_index: int) -> MemoryBank:
    if cfg.baseline == "plain_average":
        return average_banks(banks)
    return aggregate(banks, cfg.aggregation_config(round_index))


def _run_clients(tasks, threads: int):
    """Run one task per client; tasks touch only their own client's state,
    and shared state (the monitor, the ledger) is updated from the returned
    results on the calling thread, in client order."""
    if threads <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [f.result() for f in futures]


def _round(states: list[ClientModelState], global_bank: MemoryBank, t: int,
           cfg: FederationConfig, datasets: list[ClientDataset], ledger: CommLedger,
           monitor: ConvergenceMonitor, threads: int) -> tuple[MemoryBank, RoundMetrics]:
    """Round t: every client trains (from round 1 on), extracts its memories
    and reduces them into a bank; the shared baselines then upload the banks,
    aggregate them and download the result. A local_only client keeps its own
    bank, nothing is exchanged and `global_bank` is returned unchanged."""
    t0 = time.perf_counter()
    rng = Rng(cfg.seed)

    def make_task(n: int):
        def task():
            state = states[n]
            losses, grad_sqs = [], []
            if t > 0:
                losses, grad_sqs = client_update(state, datasets[n], cfg.loss, t,
                                                 rng.child("update", n))
            memories = extract_all_memories(state, datasets[n], cfg.loss)
            bank = memory_reduce(memories, state.local_bank, t)
            return losses, grad_sqs, bank, max_patch_norm(memories)
        return task

    results = _run_clients([make_task(n) for n in range(cfg.n_clients)], threads)
    for r in results:
        monitor.observe_patch_norm(r[3])
    banks = [r[2] for r in results]
    client_losses: list[float] = []
    client_grad_sq: list[float] = []
    if t > 0:
        client_losses = [float(np.mean(r[0])) if r[0] else 0.0 for r in results]
        client_grad_sq = [float(np.mean(r[1])) if r[1] else 0.0 for r in results]

    bytes_up = bytes_down = 0
    if cfg.baseline == "local_only":
        for state, bank in zip(states, banks):
            state.local_bank = bank
    else:
        for n, bank in enumerate(banks):
            nbytes = bank_nbytes(bank)
            record_exchange(ledger, t, n, "up", nbytes)
            bytes_up += nbytes
        global_bank = _aggregate_banks(banks, cfg, t)
        monitor.observe_patch_norm(max_patch_norm(global_bank.data))
        for n, state in enumerate(states):
            state.local_bank = global_bank.copy()
            nbytes = bank_nbytes(global_bank)
            record_exchange(ledger, t, n, "down", nbytes)
            bytes_down += nbytes

    monitor.observe_round(client_losses, client_grad_sq)
    metrics = RoundMetrics(round_index=t, client_losses=client_losses,
                           client_grad_sq_norms=client_grad_sq,
                           bytes_up=bytes_up, bytes_down=bytes_down,
                           r_hat_m=monitor.r_hat_m,
                           wall_time=time.perf_counter() - t0)
    return global_bank, metrics


def initialize(cfg: FederationConfig, datasets: list[ClientDataset],
               ledger: CommLedger | None = None,
               monitor: ConvergenceMonitor | None = None,
               threads: int = 1) -> tuple[list[ClientModelState], MemoryBank, RoundMetrics]:
    """Round 0: random init, then the round without training. Afterwards every
    client of a shared baseline holds an identical copy of the global bank.
    For local_only the returned global bank is a zero bank of `cfg.bank_shape`
    that only fills the checkpoint's global slot, which no client reads."""
    if len(datasets) != cfg.n_clients:
        raise ConfigError("need one dataset per client", key="federation.n_clients")
    ledger = ledger if ledger is not None else CommLedger()
    monitor = monitor if monitor is not None else ConvergenceMonitor()
    states = [_init_client_state(cfg, n) for n in range(cfg.n_clients)]
    zero_bank = MemoryBank(data=np.zeros(cfg.bank_shape, dtype=DTYPE))
    global_bank, metrics = _round(states, zero_bank, 0, cfg, datasets, ledger, monitor,
                                  threads)
    return states, global_bank, metrics


def run_round(states: list[ClientModelState], global_bank: MemoryBank,
              round_index: int, cfg: FederationConfig,
              datasets: list[ClientDataset], ledger: CommLedger,
              monitor: ConvergenceMonitor,
              threads: int = 1) -> tuple[MemoryBank, RoundMetrics]:
    """One synchronous communication round (train, reduce, upload, aggregate,
    distribute)."""
    if round_index < 1:
        raise ValueError("run_round is for rounds >= 1; use initialize for round 0")
    return _round(states, global_bank, round_index, cfg, datasets, ledger, monitor, threads)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

CHECKPOINT_DIRNAME = "checkpoints"


def _checkpoint_dir(out_dir: Path, round_index: int) -> Path:
    return out_dir / CHECKPOINT_DIRNAME / f"round_{round_index:05d}"


def save_checkpoint(out_dir: Path, round_index: int, states: list[ClientModelState],
                    global_bank: MemoryBank, monitor: ConvergenceMonitor) -> Path:
    """Write the round's checkpoint into a temporary sibling directory, then
    rename it to `round_NNNNN`, so a save that stops part way never leaves a
    `round_*` directory behind. Whatever that round left before is replaced."""
    ckpt = _checkpoint_dir(out_dir, round_index)
    tmp = ckpt.with_name(f"partial_{ckpt.name}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    manifest = {"round": round_index, "clients": [], "monitor": monitor.to_dict(),
                "global_bank_round": global_bank.round_index}
    for state in states:
        sections: dict[str, np.ndarray] = {}
        steps: dict[str, int] = {}
        for name, param in state.params.items():
            sections[name] = param
            sections[f"adam_m.{name}"] = state.adam[name].m
            sections[f"adam_v.{name}"] = state.adam[name].v
            steps[name] = state.adam[name].step
        sections["bank"] = state.local_bank.data
        fname = f"client_{state.client_id}.fdmc"
        tensorio.write_container(tmp / fname, sections)
        manifest["clients"].append({
            "id": state.client_id,
            "file": fname,
            "adam_steps": steps,
            "bank_round": state.local_bank.round_index,
        })
    tensorio.write_tensor(tmp / "global_bank.fdm1", global_bank.data)
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    shutil.rmtree(ckpt, ignore_errors=True)
    os.replace(tmp, ckpt)
    return ckpt


def load_checkpoint(ckpt: Path, cfg: FederationConfig) \
        -> tuple[int, list[ClientModelState], MemoryBank, ConvergenceMonitor]:
    manifest = json.loads((ckpt / "manifest.json").read_text())
    round_index = int(manifest["round"])
    states = []
    for entry in sorted(manifest["clients"], key=lambda e: e["id"]):
        sections = tensorio.read_container(ckpt / entry["file"])
        state = _init_client_state(cfg, entry["id"])
        for name in state.params:
            state.params[name] = sections[name]
            adam = state.adam[name]
            adam.m = sections[f"adam_m.{name}"]
            adam.v = sections[f"adam_v.{name}"]
            adam.step = int(entry["adam_steps"][name])
        state.local_bank = MemoryBank(data=sections["bank"],
                                      round_index=int(entry["bank_round"]))
        states.append(state)
    global_bank = MemoryBank(data=tensorio.read_tensor(ckpt / "global_bank.fdm1"),
                             round_index=int(manifest["global_bank_round"]))
    monitor = ConvergenceMonitor.from_dict(manifest["monitor"])
    return round_index, states, global_bank, monitor


def latest_checkpoint(out_dir: Path) -> Path | None:
    """The newest complete checkpoint; a `round_*` directory without a
    manifest is skipped."""
    root = out_dir / CHECKPOINT_DIRNAME
    if not root.is_dir():
        return None
    dirs = sorted(d for d in root.iterdir()
                  if d.name.startswith("round_") and (d / "manifest.json").is_file())
    return dirs[-1] if dirs else None


# ---------------------------------------------------------------------------
# Full training run
# ---------------------------------------------------------------------------


@dataclass
class TrainingResult:
    states: list[ClientModelState]
    global_bank: MemoryBank
    metrics: list[RoundMetrics]
    ledger: CommLedger
    monitor: ConvergenceMonitor
    out_dir: Path


def _truncate_jsonl(path: Path, max_round: int) -> list[str]:
    if not path.exists():
        return []
    kept = []
    for line in path.read_text().splitlines():
        if not line:
            continue
        if json.loads(line)["round"] <= max_round:
            kept.append(line)
    return kept


def _restore_ledger(path: Path, max_round: int) -> CommLedger:
    ledger = CommLedger()
    if not path.exists():
        return ledger
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if int(row["round"]) <= max_round:
                record_exchange(ledger, int(row["round"]), int(row["client"]),
                                row["direction"], int(row["bytes"]))
    return ledger


def _truncate_timings(path: Path, max_round: int) -> list[str]:
    if not path.exists():
        return ["round,seconds"]
    kept = ["round,seconds"]
    for line in path.read_text().splitlines()[1:]:
        if line and int(line.split(",", 1)[0]) <= max_round:
            kept.append(line)
    return kept


def run_training(cfg: FederationConfig, datasets: list[ClientDataset],
                 out_dir: str | Path, threads: int = 1,
                 resume: bool = False) -> TrainingResult:
    """Initialization plus T rounds, with persistence.

    Writes metrics.jsonl (deterministic bytes), timings.csv, ledger.csv and
    periodic checkpoints under out_dir. With resume=True the latest
    checkpoint is loaded and the run continues identically to an
    uninterrupted one.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.jsonl"
    ledger_path = out_dir / "ledger.csv"
    timings_path = out_dir / "timings.csv"

    metrics: list[RoundMetrics] = []
    ckpt = latest_checkpoint(out_dir) if resume else None
    if ckpt is not None:
        start_round, states, global_bank, monitor = load_checkpoint(ckpt, cfg)
        ledger = _restore_ledger(ledger_path, start_round)
        metrics_lines = _truncate_jsonl(metrics_path, start_round)
        timing_lines = _truncate_timings(timings_path, start_round)
    else:
        start_round = 0
        monitor = ConvergenceMonitor()
        ledger = CommLedger()
        states, global_bank, init_metrics = initialize(cfg, datasets, ledger,
                                                       monitor, threads)
        metrics.append(init_metrics)
        metrics_lines = [init_metrics.to_json_line()]
        timing_lines = ["round,seconds", f"0,{init_metrics.wall_time:.6f}"]
        if cfg.checkpoint_interval > 0:
            save_checkpoint(out_dir, 0, states, global_bank, monitor)

    # the three logs hold rounds 0..start_round before any later round runs,
    # and each later round is appended and flushed as it ends, so a killed
    # run leaves them at its last finished round
    metrics_path.write_text("".join(line + "\n" for line in metrics_lines))
    timings_path.write_text("".join(line + "\n" for line in timing_lines))
    ledger.to_csv(ledger_path)
    with open(metrics_path, "a") as metrics_fh, \
            open(ledger_path, "a", newline="") as ledger_fh, \
            open(timings_path, "a") as timings_fh:
        ledger_writer = csv.writer(ledger_fh)
        for t in range(start_round + 1, cfg.rounds + 1):
            logged = len(ledger.records)
            global_bank, round_metrics = run_round(
                states, global_bank, t, cfg, datasets, ledger, monitor, threads)
            metrics.append(round_metrics)
            metrics_fh.write(round_metrics.to_json_line() + "\n")
            ledger_writer.writerows(r.csv_row() for r in ledger.records[logged:])
            timings_fh.write(f"{t},{round_metrics.wall_time:.6f}\n")
            for fh in (metrics_fh, ledger_fh, timings_fh):
                fh.flush()
            if cfg.checkpoint_interval > 0 and (
                    t % cfg.checkpoint_interval == 0 or t == cfg.rounds):
                save_checkpoint(out_dir, t, states, global_bank, monitor)

    tensorio.write_tensor(out_dir / "global_bank.fdm1", global_bank.data)

    return TrainingResult(states=states, global_bank=global_bank, metrics=metrics,
                          ledger=ledger, monitor=monitor, out_dir=out_dir)
