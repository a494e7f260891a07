"""Run configuration: one JSON document validated strictly against the
documented schema (unknown keys are rejected by name).

Sections and defaults:

    seed            u64 master seed (default 0)
    federation      n_clients, rounds, baseline, checkpoint_interval, score_mode
    loss            hinge_margin, knn_k, batch_size, learning_rate,
                    local_epochs, weight_decay, beta1, beta2, adam_eps,
                    activation
    memory          channels, grid_height, grid_width, phi_hidden
    extractor       kind ("synthetic"|"file"), seed, levels, base_height,
                    base_width, level_channels, manifest_path
    aggregation     max_iterations, tolerance, n_init
    dataset         kind ("synthetic"|"manifest"); synthetic: n_types,
                    samples_per_type, test_normals_per_type,
                    test_anomalies_per_type, anomaly_magnitude,
                    anomaly_extent, noise_scale, dirichlet_alpha,
                    prototype_cells, noise_cells, type_spread; manifest:
                    train_manifests, test_manifest
    audit           mc_samples, dataset_sizes, rho, sigma_x, sigma_y,
                    lemma_configs, lemma_mc_samples, seed
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensorio
from .client import LossConfig
from .errors import ConfigError
from .evaluation import LabeledSample, SynthSpec, synth_dataset, synth_test_set
from .features import ExtractorSpec, load_manifest
from .orchestrator import FederationConfig
from .privacy import AuditConfig

_SECTION_KEYS = {
    "": {"seed", "federation", "loss", "memory", "extractor", "aggregation",
         "dataset", "audit"},
    "federation": {"n_clients", "rounds", "baseline", "checkpoint_interval",
                   "score_mode"},
    "loss": {"hinge_margin", "knn_k", "batch_size", "learning_rate",
             "local_epochs", "weight_decay", "beta1", "beta2", "adam_eps",
             "activation"},
    "memory": {"channels", "grid_height", "grid_width", "phi_hidden"},
    "extractor": {"kind", "seed", "levels", "base_height", "base_width",
                  "level_channels", "manifest_path"},
    "aggregation": {"max_iterations", "tolerance", "n_init"},
    "dataset": {"kind", "n_types", "samples_per_type", "test_normals_per_type",
                "test_anomalies_per_type", "anomaly_magnitude", "anomaly_extent",
                "noise_scale", "dirichlet_alpha", "prototype_cells",
                "noise_cells", "type_spread", "train_manifests", "test_manifest"},
    "audit": {"mc_samples", "dataset_sizes", "rho", "sigma_x", "sigma_y",
              "lemma_configs", "lemma_mc_samples", "seed"},
}


@dataclass
class RunConfig:
    federation: FederationConfig
    synth: SynthSpec | None
    train_manifests: list[str] | None
    test_manifest: str | None
    audit: AuditConfig


def _check_keys(section: str, doc: dict) -> None:
    allowed = _SECTION_KEYS[section]
    for key in doc:
        if key not in allowed:
            dotted = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown config key {dotted!r}", key=dotted)


def _expect_mapping(section: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"section {section!r} must be an object", key=section)
    return value


def load_run_config(source, seed_override: int | None = None,
                    baseline_override: str | None = None) -> RunConfig:
    """Parse and validate a config document (path, JSON string, or dict)."""
    if isinstance(source, (str, Path)) and Path(source).exists():
        doc = json.loads(Path(source).read_text())
    elif isinstance(source, str):
        doc = json.loads(source)
    elif isinstance(source, dict):
        doc = source
    else:
        raise ConfigError(f"config file not found: {source}", key="config")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object", key="config")
    _check_keys("", doc)

    seed = int(doc.get("seed", 0)) if seed_override is None else int(seed_override)

    fed = _expect_mapping("federation", doc.get("federation", {}))
    _check_keys("federation", fed)
    loss_doc = _expect_mapping("loss", doc.get("loss", {}))
    _check_keys("loss", loss_doc)
    mem = _expect_mapping("memory", doc.get("memory", {}))
    _check_keys("memory", mem)
    ext = _expect_mapping("extractor", doc.get("extractor", {}))
    _check_keys("extractor", ext)
    agg = _expect_mapping("aggregation", doc.get("aggregation", {}))
    _check_keys("aggregation", agg)
    ds = _expect_mapping("dataset", doc.get("dataset", {}))
    _check_keys("dataset", ds)
    audit_doc = _expect_mapping("audit", doc.get("audit", {}))
    _check_keys("audit", audit_doc)

    try:
        loss = LossConfig(
            hinge_margin=float(loss_doc.get("hinge_margin", 0.01)),
            knn_k=int(loss_doc.get("knn_k", 3)),
            batch_size=int(loss_doc.get("batch_size", 10)),
            learning_rate=float(loss_doc.get("learning_rate", 1e-3)),
            local_epochs=int(loss_doc.get("local_epochs", 1)),
            weight_decay=float(loss_doc.get("weight_decay", 5e-4)),
            beta1=float(loss_doc.get("beta1", 0.9)),
            beta2=float(loss_doc.get("beta2", 0.999)),
            adam_eps=float(loss_doc.get("adam_eps", 1e-8)),
            activation=str(loss_doc.get("activation", "relu")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key="loss") from exc

    kind = str(ext.get("kind", "synthetic"))
    try:
        extractor = ExtractorSpec(
            kind=kind,
            seed=int(ext.get("seed", seed)),
            levels=int(ext.get("levels", 3)),
            base_hw=(int(ext.get("base_height", 16)), int(ext.get("base_width", 16))),
            level_channels=tuple(int(c) for c in ext.get("level_channels", (32, 64, 128))),
            manifest_path=ext.get("manifest_path"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key="extractor") from exc

    baseline = str(fed.get("baseline", "feddymem"))
    if baseline_override is not None:
        baseline = baseline_override
    grid_hw = (int(mem.get("grid_height", 8)), int(mem.get("grid_width", 8)))
    phi_hidden = mem.get("phi_hidden")
    federation = FederationConfig(
        seed=seed,
        n_clients=int(fed.get("n_clients", 5)),
        rounds=int(fed.get("rounds", 200)),
        baseline=baseline,
        loss=loss,
        extractor=extractor,
        memory_channels=int(mem.get("channels", 16)),
        grid_hw=grid_hw,
        phi_hidden=None if phi_hidden is None else int(phi_hidden),
        checkpoint_interval=int(fed.get("checkpoint_interval", 10)),
        kmeans_max_iterations=int(agg.get("max_iterations", 100)),
        kmeans_tolerance=float(agg.get("tolerance", 1e-6)),
        kmeans_n_init=int(agg.get("n_init", 1)),
        score_mode=str(fed.get("score_mode", "min")),
    )

    ds_kind = str(ds.get("kind", "synthetic"))
    synth = None
    train_manifests = None
    test_manifest = None
    if ds_kind == "synthetic":
        try:
            synth = SynthSpec(
                n_types=int(ds.get("n_types", 3)),
                samples_per_type=int(ds.get("samples_per_type", 40)),
                test_normals_per_type=int(ds.get("test_normals_per_type", 12)),
                test_anomalies_per_type=int(ds.get("test_anomalies_per_type", 12)),
                base_hw=extractor.base_hw,
                anomaly_magnitude=float(ds.get("anomaly_magnitude", 1.5)),
                anomaly_extent=int(ds.get("anomaly_extent", 5)),
                noise_scale=float(ds.get("noise_scale", 0.1)),
                dirichlet_alpha=float(ds.get("dirichlet_alpha", 0.1)),
                n_clients=federation.n_clients,
                seed=seed,
                prototype_cells=int(ds.get("prototype_cells", 4)),
                noise_cells=int(ds.get("noise_cells", 8)),
                type_spread=float(ds.get("type_spread", 0.75)),
            )
        except ValueError as exc:
            raise ConfigError(str(exc), key="dataset") from exc
    elif ds_kind == "manifest":
        train_manifests = [str(p) for p in ds.get("train_manifests", [])]
        if len(train_manifests) != federation.n_clients:
            raise ConfigError("need one train manifest per client",
                              key="dataset.train_manifests")
        if "test_manifest" not in ds:
            raise ConfigError("manifest dataset requires test_manifest",
                              key="dataset.test_manifest")
        test_manifest = str(ds["test_manifest"])
    else:
        raise ConfigError(f"unknown dataset kind {ds_kind!r}", key="dataset.kind")

    try:
        audit = AuditConfig(
            mc_samples=int(audit_doc.get("mc_samples", 100_000)),
            dataset_sizes=tuple(int(d) for d in audit_doc.get("dataset_sizes", (10, 100, 1000))),
            seed=int(audit_doc.get("seed", seed)),
            rho=float(audit_doc.get("rho", 0.8)),
            sigma_x=float(audit_doc.get("sigma_x", 1.0)),
            sigma_y=float(audit_doc.get("sigma_y", 1.0)),
            lemma_configs=int(audit_doc.get("lemma_configs", 100)),
            lemma_mc_samples=int(audit_doc.get("lemma_mc_samples", 10_000)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key="audit") from exc

    return RunConfig(federation=federation, synth=synth,
                     train_manifests=train_manifests, test_manifest=test_manifest,
                     audit=audit)


def _load_manifest_samples(manifest_path: str) -> list[LabeledSample]:
    entries = load_manifest(manifest_path)
    base = Path(manifest_path).parent
    samples = []
    for e in entries:
        features = tensorio.read_tensor(base / e.path)
        mask = None
        if e.mask_path is not None:
            mask = tensorio.read_tensor(base / e.mask_path).astype(np.uint8)
        samples.append(LabeledSample(sample_id=e.sample_id, features=features,
                                     label=e.label, mask=mask))
    return samples


def load_federated_data(cfg: RunConfig) -> tuple[list[list[LabeledSample]], list[LabeledSample]]:
    """Per-client train sample lists plus the global test set."""
    if cfg.synth is not None:
        data = synth_dataset(cfg.synth)
        return data.client_train, data.test
    return [_load_manifest_samples(p) for p in cfg.train_manifests], load_test_set(cfg)


def load_test_set(cfg: RunConfig) -> list[LabeledSample]:
    """The global test set of `load_federated_data`, without building or
    reading any training sample."""
    if cfg.synth is not None:
        return synth_test_set(cfg.synth)
    return _load_manifest_samples(cfg.test_manifest)
