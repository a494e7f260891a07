"""Run-level glue: dataset materialization, training entry, evaluation of
checkpointed runs, and the communication benchmark. The CLI is a thin
wrapper over these functions; tests call them directly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import tensorio
from .client import MemoryBank, forward_memory
from .config import RunConfig, load_federated_data, load_test_set, load_train_sets
from .errors import ConfigError
from .evaluation import (
    AnomalyMap,
    EvalMetrics,
    LabeledSample,
    anomaly_map,
    auroc,
    label_regions,
    postprocess_heatmap,
    pro,
    stable_order,
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
)
from .server import params_nbytes


def train_run(cfg: RunConfig, out_dir: str | Path, threads: int = 1,
              resume: bool = False) -> TrainingResult:
    client_samples = load_train_sets(cfg)
    datasets = [build_client_dataset(samples, cfg.federation.extractor)
                for samples in client_samples]
    return run_training(cfg.federation, datasets, out_dir, threads=threads,
                        resume=resume)


# ---------------------------------------------------------------------------
# Evaluation of a checkpointed run
# ---------------------------------------------------------------------------


def evaluate_states(params: list[dict[str, np.ndarray]], banks: list[MemoryBank],
                    test_samples: list[LabeledSample], cfg: FederationConfig
                    ) -> tuple[EvalMetrics, list[AnomalyMap]]:
    """Per-client detection metrics over the whole test set, params[n] being
    client n's weights and banks[n] the bank it queries, and client 0's
    anomaly maps in test order.

    The test features are built one block of `cfg.loss.batch_size` samples
    at a time, and every client scores a block, one forward pass and then
    one `anomaly_map` per sample, before the block is released and the next
    one built: one block is held at a time, never two. The image labels,
    the pixel labels and the masks' regions are the test set's, the same for
    every client, so they are built once. Each client's pixel scores are
    sorted once, for both its P-AUROC and its PRO, by `stable_order`: one
    sort of packed (score, index) keys, which gives the stable argsort's
    order bit for bit.
    """
    scored: list[list[AnomalyMap]] = [[] for _ in params]
    step = cfg.loss.batch_size
    for s in range(0, len(test_samples), step):
        fused = build_client_dataset(test_samples[s:s + step], cfg.extractor)
        for n, (weights, bank) in enumerate(zip(params, banks)):
            scored[n] += [anomaly_map(m, bank)
                          for m in forward_memory(weights, fused, cfg.loss.activation)]
        del fused
    labels = np.array([s.label for s in test_samples])
    masks = [s.mask_or_zeros() for s in test_samples]
    pixel_labels = (np.concatenate([m.reshape(-1) for m in masks]) > 0).astype(int)
    regions = label_regions(masks)
    i_aurocs, p_aurocs, pros = [], [], []
    for client in scored:
        i_aurocs.append(auroc(np.array([a.image_score for a in client]), labels))
        maps = [a.pixel_scores for a in client]
        pixel_scores = np.concatenate([a.reshape(-1) for a in maps])
        order = stable_order(pixel_scores)
        p_aurocs.append(auroc(pixel_scores, pixel_labels, order))
        pros.append(pro(maps, regions, order=order))
    return EvalMetrics(i_auroc_per_client=i_aurocs, p_auroc_per_client=p_aurocs,
                       pro_per_client=pros), scored[0]


def eval_run(cfg: RunConfig, out_dir: str | Path, round_index: int | None = None,
             export_heatmaps: bool = False) -> EvalMetrics:
    """Evaluate a trained run directory and write results.csv into it.

    Each client queries the bank its state holds: its own under local_only,
    at every round, round 0 included, and the one aggregated global bank
    under the shared baselines. Of the checkpoint only what scoring reads is
    read: each client's weights and bank; the Adam moments are skipped.
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
    loaded_round, states, _ = load_checkpoint(ckpt, cfg.federation, moments=False)
    params = [s.params for s in states]
    banks = [s.local_bank for s in states]
    del states

    test_samples = load_test_set(cfg)
    metrics, first_maps = evaluate_states(params, banks, test_samples, cfg.federation)

    run_id = f"seed{cfg.federation.seed}_round{loaded_round}"
    write_results_csv(out_dir / "results.csv",
                      [(run_id, cfg.federation.baseline, metrics.i_auroc,
                        metrics.p_auroc, metrics.pro)])

    if export_heatmaps:
        heat_dir = out_dir / "heatmaps"
        heat_dir.mkdir(exist_ok=True)
        for sample, amap in zip(test_samples, first_maps):
            hm = postprocess_heatmap(amap.pixel_scores, amap.pixel_scores.shape)
            tensorio.write_tensor(heat_dir / f"{sample.sample_id}.fdm1", hm)
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
    """One-row table of the bytes each client uploads per round: its memory
    bank, against the parameters a parameter-averaging protocol sends."""
    fed = cfg.federation
    bank_bytes = tensorio.tensor_nbytes(fed.bank_shape)
    param_bytes = params_nbytes(_init_client_state(fed, 0).params)
    out_path = Path(out_dir) / "comm.csv"
    out_path.write_text("bank_bytes_per_client,param_bytes_per_client\n"
                        f"{bank_bytes},{param_bytes}\n")
    return out_path
