"""Run-level glue: dataset materialization, training entry, evaluation of
checkpointed runs, and the communication benchmark. The CLI is a thin
wrapper over these functions; tests call them directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensorio
from .client import ClientModelState, MemoryBank
from .config import RunConfig, load_federated_data
from .errors import ConfigError
from .evaluation import (
    EvalMetrics,
    LabeledSample,
    anomaly_map,
    auroc,
    postprocess_heatmap,
    pro,
    write_results_csv,
)
from .features import ManifestEntry, write_manifest
from .orchestrator import (
    FederationConfig,
    TrainingResult,
    _checkpoint_dir,
    _init_client_state,
    build_client_dataset,
    latest_checkpoint,
    load_checkpoint,
    run_training,
    serialized_bank_bytes,
    serialized_param_bytes,
)


def train_run(cfg: RunConfig, out_dir: str | Path, threads: int = 1,
              resume: bool = False) -> TrainingResult:
    client_samples, _ = load_federated_data(cfg)
    datasets = [build_client_dataset(samples, cfg.federation.extractor)
                for samples in client_samples]
    return run_training(cfg.federation, datasets, out_dir, threads=threads,
                        resume=resume)


# ---------------------------------------------------------------------------
# Evaluation of a checkpointed run
# ---------------------------------------------------------------------------


@dataclass
class ScoredSample:
    sample_id: str
    label: int
    image_score: float
    pixel_scores: np.ndarray
    mask: np.ndarray


def score_test_set(state: ClientModelState, bank: MemoryBank,
                   test_samples: list[LabeledSample], test_fused: list[np.ndarray],
                   cfg: FederationConfig) -> list[ScoredSample]:
    from .client import forward_memory

    out = []
    for sample, fused in zip(test_samples, test_fused):
        m = forward_memory(state, fused, cfg.loss.activation)
        amap = anomaly_map(m, bank, cfg.loss.knn_k, cfg.score_mode)
        out.append(ScoredSample(sample_id=sample.sample_id, label=sample.label,
                                image_score=amap.image_score,
                                pixel_scores=amap.pixel_scores,
                                mask=sample.mask_or_zeros()))
    return out


def evaluate_states(states: list[ClientModelState], banks: list[MemoryBank],
                    test_samples: list[LabeledSample], cfg: FederationConfig,
                    slices: list[list[int]] | None = None) -> EvalMetrics:
    """Per-client detection metrics; banks[n] is what client n queries.

    With `slices`, client n scores only its own test indices (local test
    distribution); otherwise every client scores the whole test set.
    """
    test_dataset = build_client_dataset(test_samples, cfg.extractor)
    i_aurocs, p_aurocs, pros = [], [], []
    for n, (state, bank) in enumerate(zip(states, banks)):
        if slices is None:
            samples, fused = test_samples, test_dataset.fused
        else:
            samples = [test_samples[i] for i in slices[n]]
            fused = [test_dataset.fused[i] for i in slices[n]]
        scored = score_test_set(state, bank, samples, fused, cfg)
        labels = np.array([s.label for s in scored])
        image_scores = np.array([s.image_score for s in scored])
        i_aurocs.append(auroc(image_scores, labels))
        pixel_scores = np.concatenate([s.pixel_scores.reshape(-1) for s in scored])
        pixel_labels = np.concatenate([s.mask.reshape(-1) for s in scored])
        p_aurocs.append(auroc(pixel_scores, (pixel_labels > 0).astype(int)))
        pros.append(pro([s.pixel_scores for s in scored], [s.mask for s in scored]))
    return EvalMetrics(i_auroc_per_client=i_aurocs, p_auroc_per_client=p_aurocs,
                       pro_per_client=pros)


def eval_run(cfg: RunConfig, out_dir: str | Path, round_index: int | None = None,
             export_heatmaps: bool = False) -> EvalMetrics:
    """Evaluate a trained run directory and write results.csv into it.

    local_only clients query their own banks at every round, round 0
    included; the shared baselines query the aggregated global bank.
    """
    out_dir = Path(out_dir)
    if round_index is None:
        ckpt = latest_checkpoint(out_dir)
        if ckpt is None:
            raise FileNotFoundError(f"no checkpoints under {out_dir}")
    else:
        ckpt = _checkpoint_dir(out_dir, round_index)
        if not ckpt.is_dir():
            raise FileNotFoundError(f"no checkpoint for round {round_index} under {out_dir}")
    loaded_round, states, global_bank, _ = load_checkpoint(ckpt, cfg.federation)

    _, test_samples = load_federated_data(cfg)
    if cfg.federation.baseline == "local_only":
        banks = [s.local_bank for s in states]
    else:
        banks = [global_bank] * len(states)
    metrics = evaluate_states(states, banks, test_samples, cfg.federation)

    run_id = f"seed{cfg.federation.seed}_round{loaded_round}"
    write_results_csv(out_dir / "results.csv",
                      [(run_id, cfg.federation.baseline, metrics.i_auroc,
                        metrics.p_auroc, metrics.pro)])

    if export_heatmaps:
        heat_dir = out_dir / "heatmaps"
        heat_dir.mkdir(exist_ok=True)
        test_fused = build_client_dataset(test_samples, cfg.federation.extractor).fused
        scored = score_test_set(states[0], banks[0], test_samples, test_fused,
                                cfg.federation)
        for s in scored:
            hm = postprocess_heatmap(s.pixel_scores, s.pixel_scores.shape)
            tensorio.write_tensor(heat_dir / f"{s.sample_id}.fdm1", hm)
    return metrics


# ---------------------------------------------------------------------------
# Dataset materialization (synth subcommand)
# ---------------------------------------------------------------------------


def write_synth_dataset(cfg: RunConfig, out_dir: str | Path) -> Path:
    """Write the synthetic dataset as FDM1 tensors plus JSON manifests.

    Produces train_client{n}.json per client and test.json, all relative to
    the dataset directory, in the repo-wide manifest schema.
    """
    if cfg.synth is None:
        raise ConfigError("synth requires a synthetic dataset section", key="dataset.kind")
    client_samples, test_samples = load_federated_data(cfg)
    root = Path(out_dir) / "dataset"
    tensors = root / "tensors"
    tensors.mkdir(parents=True, exist_ok=True)

    def dump(samples: list[LabeledSample], manifest_name: str) -> None:
        entries = []
        for s in samples:
            rel = f"tensors/{s.sample_id}.fdm1"
            tensorio.write_tensor(root / rel, s.features)
            mask_rel = None
            if s.mask is not None:
                mask_rel = f"tensors/{s.sample_id}_mask.fdm1"
                tensorio.write_tensor(root / mask_rel, s.mask.astype(np.float32))
            entries.append(ManifestEntry(sample_id=s.sample_id, path=rel,
                                         label=s.label, mask_path=mask_rel))
        write_manifest(root / manifest_name, entries)

    for n, samples in enumerate(client_samples):
        dump(samples, f"train_client{n}.json")
    dump(test_samples, "test.json")
    (root / "config_echo.json").write_text(json.dumps({
        "n_clients": cfg.federation.n_clients,
        "manifests": [f"train_client{n}.json" for n in range(cfg.federation.n_clients)],
        "test_manifest": "test.json",
    }, indent=1, sort_keys=True))
    return root


# ---------------------------------------------------------------------------
# Communication benchmark
# ---------------------------------------------------------------------------


def bench_comm(cfg: RunConfig, out_dir: str | Path) -> Path:
    """Per-round byte table: memory-bank exchange vs parameter exchange."""
    fed = cfg.federation
    state = _init_client_state(fed, 0)
    bank = MemoryBank(data=np.zeros(fed.bank_shape, dtype=np.float32))
    bank_bytes = serialized_bank_bytes(bank)
    param_bytes = serialized_param_bytes(state)
    out_path = Path(out_dir) / "comm.csv"
    rounds = max(fed.rounds, 1)
    with open(out_path, "w") as fh:
        fh.write("round,bank_bytes_per_client,param_bytes_per_client\n")
        for t in range(1, rounds + 1):
            fh.write(f"{t},{bank_bytes},{param_bytes}\n")
    return out_path
