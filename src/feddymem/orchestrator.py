"""Round-based federation driver.

Implements initialization (round 0) and the synchronous training rounds over
a simulated in-process network with byte-accurate accounting. Client updates
within a round may run on a thread pool; every stochastic choice is keyed by
(seed, client, round) through counter-based streams, so results are
bit-identical regardless of worker count or scheduling, and a run can resume
from any checkpoint with an identical continuation.

A bank has one owner, `ClientModelState.local_bank`: every client of a shared
baseline holds the round's one global bank, which a checkpoint writes once, to
`global_bank.fdm1`; a local_only client's is its container's `bank` section.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import TextIO

import numpy as np

from . import tensorio
from .client import (
    ClientModelState,
    LossConfig,
    MemoryBank,
    client_update,
    extract_all_memories,
    max_patch_norm,
    memory_reduce,
)
from .errors import CheckpointError, ConfigError, ShapeError
from .features import ExtractorSpec, extract_pyramid, fuse_pyramid, init_projection
from .generator import init_generator
from .numerics import DTYPE, AdamState, Rng
from .server import AggregationConfig, aggregate, average_banks, bank_nbytes

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
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)

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
        for extent, key in zip(self.grid_hw, ("memory.grid_height", "memory.grid_width")):
            if extent < 2:
                raise ConfigError("grid extents must be >= 2", key=key)
        if self.phi_hidden is not None and self.phi_hidden < 1:
            raise ConfigError("phi_hidden must be >= 1", key="memory.phi_hidden")
        if self.checkpoint_interval < 0:
            raise ConfigError("checkpoint_interval must be >= 0",
                              key="federation.checkpoint_interval")
        h, w, _ = self.bank_shape
        if self.loss.knn_k > h * w:
            raise ConfigError(f"knn_k must be at most the bank's {h * w} patches",
                              key="loss.knn_k")

    @property
    def bank_shape(self) -> tuple[int, int, int]:
        h, w = self.extractor.base_hw
        return h, w, self.memory_channels

    def aggregation_config(self, round_index: int) -> AggregationConfig:
        seed = Rng(self.seed).child("aggregate", round_index).integers(0, 2**31 - 1)
        return replace(self.aggregation, seed=seed)


@dataclass
class RoundMetrics:
    """What round t reports, all of it deterministic: each client's
    mean loss and squared gradient norm (empty at round 0), the bytes each
    client uploaded and downloaded, in client order (both empty when nothing
    is exchanged), and the monitor's running R_hat_m. metrics.jsonl and
    ledger.csv are written from it; the round's wall time is not in it."""

    round_index: int
    client_losses: list[float]
    client_grad_sq_norms: list[float]
    uploads: list[int]
    downloads: list[int]
    r_hat_m: float

    def to_json_line(self) -> str:
        doc = {
            "round": self.round_index,
            "client_losses": [float(v) for v in self.client_losses],
            "client_grad_sq_norms": [float(v) for v in self.client_grad_sq_norms],
            "bytes_up": sum(self.uploads),
            "bytes_down": sum(self.downloads),
            "r_hat_m": float(self.r_hat_m),
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass
class ConvergenceMonitor:
    """The observable consequence of the convergence analysis: every
    client's round loss stays below twice the running maximum patch norm
    R_hat_m. Counts the losses that do not."""

    r_hat_m: float = 0.0
    bound_violations: int = 0

    def observe_patch_norm(self, value: float) -> None:
        self.r_hat_m = max(self.r_hat_m, float(value))

    def observe_round(self, losses: list[float]) -> None:
        self.bound_violations += sum(v > 2.0 * self.r_hat_m + 1e-9 for v in losses)


# ---------------------------------------------------------------------------
# Dataset plumbing
# ---------------------------------------------------------------------------


def build_client_dataset(samples, spec: ExtractorSpec) -> np.ndarray:
    """Precompute frozen fused features for a list of labeled samples, each
    fused straight into its row of one (N, H, W, Cin) stack. Every sample
    must fuse to the first sample's shape."""
    fused = np.empty((0, 0, 0, 0), dtype=DTYPE)
    for i, s in enumerate(samples):
        source = s.features if spec.kind == "synthetic" else s.sample_id
        pyramid = extract_pyramid(source, spec)
        if i == 0:
            fused = np.empty((len(samples),) + pyramid.fused_shape,
                             dtype=np.result_type(*pyramid.levels))
        elif pyramid.fused_shape != fused.shape[1:]:
            raise ShapeError(f"sample {s.sample_id!r} fuses to {pyramid.fused_shape}, "
                             f"not the first sample's {fused.shape[1:]}")
        fuse_pyramid(pyramid, out=fused[i])
    return fused


# ---------------------------------------------------------------------------
# Initialization and rounds
# ---------------------------------------------------------------------------


def _init_client_state(cfg: FederationConfig, n: int) -> ClientModelState:
    # each client draws its own random init: the protocol exchanges no
    # parameters, so there is no channel to distribute a shared one
    rng = Rng(cfg.seed).child("client", n)
    cin = cfg.extractor.fused_channels
    return ClientModelState(
        client_id=n,
        params={**init_projection(rng.child("proj"), cin, cfg.memory_channels),
                **init_generator(rng.child("gen"), cfg.memory_channels,
                                 cfg.grid_hw, cfg.phi_hidden)},
    )


def _aggregate_banks(banks: list[MemoryBank], cfg: FederationConfig,
                     round_index: int) -> MemoryBank:
    if cfg.baseline == "plain_average":
        return average_banks(banks)
    return aggregate(banks, cfg.aggregation_config(round_index))


def _run_clients(tasks, threads: int):
    """Run one task per client; tasks touch only their own client's state,
    and shared state (the monitor) is updated from the returned results on
    the calling thread, in client order."""
    if threads <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [f.result() for f in futures]


def _round(states: list[ClientModelState], t: int, cfg: FederationConfig,
           datasets: list[np.ndarray], monitor: ConvergenceMonitor,
           threads: int) -> RoundMetrics:
    """Round t: every client trains (from round 1 on), extracts its memories
    and reduces them into a bank; the shared baselines then upload the banks,
    aggregate them and download the result: every client then holds the one
    new global bank object, which no one writes. A local_only client keeps
    its own bank and nothing is exchanged. The returned metrics hold every
    client's uploaded and downloaded bytes."""
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

    uploads: list[int] = []
    downloads: list[int] = []
    if cfg.baseline == "local_only":
        for state, bank in zip(states, banks):
            state.local_bank = bank
    else:
        uploads = [bank_nbytes(bank) for bank in banks]
        global_bank = _aggregate_banks(banks, cfg, t)
        monitor.observe_patch_norm(max_patch_norm(global_bank.data))
        for state in states:
            state.local_bank = global_bank
        downloads = [bank_nbytes(global_bank)] * len(states)

    monitor.observe_round(client_losses)
    return RoundMetrics(round_index=t, client_losses=client_losses,
                        client_grad_sq_norms=client_grad_sq,
                        uploads=uploads, downloads=downloads, r_hat_m=monitor.r_hat_m)


def initialize(cfg: FederationConfig, datasets: list[np.ndarray],
               monitor: ConvergenceMonitor | None = None,
               threads: int = 1) -> tuple[list[ClientModelState], RoundMetrics]:
    """Round 0: random init, then the round without training. Afterwards every
    client of a shared baseline holds the global bank itself."""
    if len(datasets) != cfg.n_clients:
        raise ConfigError("need one dataset per client", key="federation.n_clients")
    monitor = monitor if monitor is not None else ConvergenceMonitor()
    states = [_init_client_state(cfg, n) for n in range(cfg.n_clients)]
    return states, _round(states, 0, cfg, datasets, monitor, threads)


def run_round(states: list[ClientModelState], round_index: int, cfg: FederationConfig,
              datasets: list[np.ndarray], monitor: ConvergenceMonitor,
              threads: int = 1) -> RoundMetrics:
    """One synchronous communication round (train, reduce, upload, aggregate,
    distribute)."""
    if round_index < 1:
        raise ValueError("run_round is for rounds >= 1; use initialize for round 0")
    return _round(states, round_index, cfg, datasets, monitor, threads)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

CHECKPOINT_DIRNAME = "checkpoints"


def _checkpoint_dir(out_dir: Path, round_index: int) -> Path:
    return out_dir / CHECKPOINT_DIRNAME / f"round_{round_index:05d}"


def save_checkpoint(out_dir: Path, round_index: int, states: list[ClientModelState],
                    monitor: ConvergenceMonitor, cfg: FederationConfig) -> Path:
    """Write the round's checkpoint into a temporary sibling directory, then
    rename it to `round_NNNNN`, so a save that stops part way never leaves a
    `round_*` directory behind. Whatever that round left before is replaced.
    Each bank is written once: the shared baselines' one bank to
    `global_bank.fdm1`, and no client container holds it; a local_only
    client's bank to its container's `bank` section, and there is no
    `global_bank.fdm1`. The manifest records the run's seed and baseline."""
    local = cfg.baseline == "local_only"
    ckpt = _checkpoint_dir(out_dir, round_index)
    tmp = ckpt.with_name(f"partial_{ckpt.name}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    manifest = {"round": round_index, "seed": cfg.seed, "baseline": cfg.baseline,
                "clients": [], "monitor": asdict(monitor)}
    for state in states:
        sections: dict[str, np.ndarray] = {}
        for name, param in state.params.items():
            sections[name] = param
            sections[f"adam_m.{name}"] = state.adam.m[name]
            sections[f"adam_v.{name}"] = state.adam.v[name]
        if local:
            sections["bank"] = state.local_bank.data
        fname = f"client_{state.client_id}.fdmc"
        tensorio.write_container(tmp / fname, sections)
        manifest["clients"].append({"id": state.client_id, "file": fname,
                                    "adam_step": state.adam.step})
    if not local:
        tensorio.write_tensor(tmp / "global_bank.fdm1", states[0].local_bank.data)
    (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    shutil.rmtree(ckpt, ignore_errors=True)
    os.replace(tmp, ckpt)
    return ckpt


def _require_shape(what: str, got: tuple, want: tuple) -> None:
    if got != tuple(want):
        raise ConfigError(f"checkpoint {what} has shape {got}; the config gives {tuple(want)}")


def _read_checkpoint_file(path: Path, read, *args):
    """`read(path, *args)`, raising `CheckpointError` that names the file
    when its bytes do not parse."""
    try:
        return read(path, *args)
    except (ShapeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint file {path}: {exc}") from exc


def load_checkpoint(ckpt: Path, cfg: FederationConfig, moments: bool = True) \
        -> tuple[int, list[ClientModelState], ConvergenceMonitor]:
    """Each client's weights, Adam moments and bank, and the monitor's
    `r_hat_m` and `bound_violations`. The shared baselines' bank is read from
    `global_bank.fdm1` into one `MemoryBank` that every client holds; a
    local_only client's from its container's `bank` section. A bank the
    baseline does not read, as older checkpoints hold, is ignored. With
    `moments=False` the Adam sections are skipped unparsed and each state
    keeps fresh zero moments: such states score, but do not resume.

    The manifest holds the `round`, `seed`, `baseline` and `monitor`, and per
    client its `id`, container `file` and one `adam_step`; other keys are
    ignored. A client without `adam_step` (older checkpoints kept an
    `adam_steps` count per tensor) raises `ConfigError`, and so does a
    checkpoint of another seed or baseline, of clients other than
    0..n_clients-1, or with a section or bank of another shape than the
    config gives it. A manifest without the seed and baseline is not checked
    for them. A checkpoint file that does not parse (bad magic, truncated),
    a manifest without one of the other keys above, or a container without
    a section that is read raises `CheckpointError`, which names the file
    and the key or section."""
    manifest_path = ckpt / "manifest.json"
    manifest = _read_checkpoint_file(manifest_path, lambda path: json.loads(path.read_text()))
    try:
        round_index = int(manifest["round"])
        entries = sorted(manifest["clients"], key=lambda e: e["id"])
        files = [entry["file"] for entry in entries]
        doc = manifest["monitor"]
        monitor = ConvergenceMonitor(float(doc["r_hat_m"]), int(doc["bound_violations"]))
    except KeyError as exc:
        raise CheckpointError(f"checkpoint file {manifest_path} has no key {exc}") from exc
    for name, key in (("seed", "seed"), ("baseline", "federation.baseline")):
        if name in manifest and manifest[name] != getattr(cfg, name):
            raise ConfigError(f"checkpoint {ckpt} is of {name} {manifest[name]!r}; the "
                              f"config gives {getattr(cfg, name)!r}", key=key)
    ids = [entry["id"] for entry in entries]
    if ids != list(range(cfg.n_clients)):
        raise ConfigError(f"checkpoint {ckpt} holds clients {ids}, not the "
                          f"{cfg.n_clients} of the config", key="federation.n_clients")
    local = cfg.baseline == "local_only"
    if not local:
        shared = MemoryBank(data=_read_checkpoint_file(ckpt / "global_bank.fdm1",
                                                       tensorio.read_tensor))
        _require_shape("global_bank.fdm1", shared.data.shape, cfg.bank_shape)
    states = []
    for entry, file in zip(entries, files):
        if "adam_step" not in entry:
            raise ConfigError(f"checkpoint {ckpt} records no adam_step for client "
                              f"{entry['id']}; it is of an older format")
        state = _init_client_state(cfg, entry["id"])
        shapes = {"bank": cfg.bank_shape} if local else {}
        for name, fresh in state.params.items():
            keys = (name, f"adam_m.{name}", f"adam_v.{name}") if moments else (name,)
            shapes.update(dict.fromkeys(keys, fresh.shape))
        path = ckpt / file
        sections = _read_checkpoint_file(path, tensorio.read_container, shapes)
        for key, shape in shapes.items():
            if key not in sections:
                raise CheckpointError(f"checkpoint file {path} has no section {key!r}")
            _require_shape(f"{file} section {key!r}", sections[key].shape, shape)
        state.params = {name: sections[name] for name in state.params}
        if moments:
            state.adam = AdamState(m={name: sections[f"adam_m.{name}"] for name in state.params},
                                   v={name: sections[f"adam_v.{name}"] for name in state.params},
                                   step=int(entry["adam_step"]))
        state.local_bank = MemoryBank(data=sections["bank"]) if local else shared
        states.append(state)
    return round_index, states, monitor


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
    global_bank: MemoryBank | None  # None under local_only
    metrics: list[RoundMetrics]
    monitor: ConvergenceMonitor
    out_dir: Path


def _log_round(line: str) -> int:
    """The round of a metrics.jsonl line, or of a ledger.csv or timings.csv row."""
    return json.loads(line)["round"] if line.startswith("{") else int(line.split(",", 1)[0])


def _open_log(path: Path, header: str, last: int) -> TextIO:
    """Open a log for appending the rounds after `last`. It is first cut
    back to its header and its lines of rounds 0..last, none when last is
    -1; every kept line keeps its own line ending."""
    kept = []
    if last >= 0 and path.exists():
        with open(path, newline="") as fh:
            kept = [line for line in fh.readlines()[1 if header else 0:]
                    if _log_round(line) <= last]
    fh = open(path, "w", newline="")
    fh.writelines([header, *kept])
    fh.flush()
    return fh


def run_training(cfg: FederationConfig, datasets: list[np.ndarray],
                 out_dir: str | Path, threads: int = 1,
                 resume: bool = False) -> TrainingResult:
    """Initialization (round 0) plus T rounds, with persistence.

    Writes metrics.jsonl, ledger.csv, timings.csv and periodic checkpoints
    under out_dir, and for the shared baselines the final global_bank.fdm1.
    metrics.jsonl and ledger.csv are written from each round's RoundMetrics
    and are deterministic bytes: ledger.csv has one `up` row per client,
    then one `down` row per client, for every round that exchanged banks.
    timings.csv holds the wall time of each initialize or run_round call,
    measured here. Each round's lines are appended and flushed as the round
    ends, so a killed run leaves the logs at its last finished round. With
    resume=True the latest checkpoint, of round r, is loaded, the logs are
    cut back to rounds 0..r and the run continues identically to an
    uninterrupted one; without a checkpoint it starts afresh. A checkpoint
    past `cfg.rounds` raises ConfigError and leaves out_dir as it was.
    `metrics` of the result holds the rounds this call ran.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = latest_checkpoint(out_dir) if resume else None
    if ckpt is None:
        last, states, monitor = -1, [], ConvergenceMonitor()
    else:
        last, states, monitor = load_checkpoint(ckpt, cfg)
        if last > cfg.rounds:
            raise ConfigError(f"{ckpt} is of round {last}, past the config's {cfg.rounds} "
                              "rounds", key="federation.rounds")

    metrics: list[RoundMetrics] = []
    # csv.writer ends the ledger rows with \r\n, so its header ends so too
    with _open_log(out_dir / "metrics.jsonl", "", last) as metrics_fh, \
            _open_log(out_dir / "ledger.csv", "round,client,direction,bytes\r\n",
                      last) as ledger_fh, \
            _open_log(out_dir / "timings.csv", "round,seconds\n", last) as timings_fh:
        ledger_writer = csv.writer(ledger_fh)
        for t in range(last + 1, cfg.rounds + 1):
            t0 = time.perf_counter()
            if t == 0:
                states, round_metrics = initialize(cfg, datasets, monitor, threads)
            else:
                round_metrics = run_round(states, t, cfg, datasets, monitor, threads)
            seconds = time.perf_counter() - t0
            metrics.append(round_metrics)
            metrics_fh.write(round_metrics.to_json_line() + "\n")
            for direction, sizes in (("up", round_metrics.uploads),
                                     ("down", round_metrics.downloads)):
                ledger_writer.writerows((t, n, direction, b) for n, b in enumerate(sizes))
            timings_fh.write(f"{t},{seconds:.6f}\n")
            for fh in (metrics_fh, ledger_fh, timings_fh):
                fh.flush()
            if cfg.checkpoint_interval > 0 and (
                    t % cfg.checkpoint_interval == 0 or t == cfg.rounds):
                save_checkpoint(out_dir, t, states, monitor, cfg)

    global_bank = None if cfg.baseline == "local_only" else states[0].local_bank
    if global_bank is not None:
        tensorio.write_tensor(out_dir / "global_bank.fdm1", global_bank.data)

    return TrainingResult(states=states, global_bank=global_bank, metrics=metrics,
                          monitor=monitor, out_dir=out_dir)
