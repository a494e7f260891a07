"""Run configuration: one JSON document validated strictly against the
dataclasses it fills. Unknown keys are rejected by name.

A section's keys, defaults and value types are the fields of its dataclass:

    seed         FederationConfig.seed, the u64 master seed
    federation   FederationConfig, less the fields that other sections set
    loss         LossConfig
    memory       FederationConfig.memory_channels as channels, grid_hw as
                 grid_height and grid_width, phi_hidden
    extractor    ExtractorSpec, base_hw as base_height and base_width
    aggregation  AggregationConfig, less seed
    dataset      kind "synthetic" (the default): SynthSpec, less base_hw,
                 n_clients and seed; kind "manifest":
                 RunConfig.train_manifests and test_manifest
    audit        AuditConfig

The extractor and audit seeds default to the run's seed. An int is a JSON
integer or an integral number (60.0), a float any number, a tuple or list
a list of its element type, and `X | None` also takes null. A bool is not
a number. Any other value raises ConfigError naming `section.key`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import tensorio
from .client import LossConfig
from .errors import ConfigError
from .evaluation import (
    LabeledSample,
    SynthSpec,
    synth_client_train,
    synth_dataset,
    synth_test_set,
)
from .features import ExtractorSpec, load_manifest
from .orchestrator import FederationConfig
from .privacy import AuditConfig
from .server import AggregationConfig


@dataclass
class RunConfig:
    federation: FederationConfig
    synth: SynthSpec | None
    train_manifests: list[str] | None
    test_manifest: str | None
    audit: AuditConfig


def _schema(cls, exclude=(), **renames):
    """(cls, document key -> (field, index, type)) for a section that sets
    the fields of `cls` outside `exclude` under their own names, plus
    `renames`: key=(field, None) sets a field under another name, and
    key=(field, i) sets element i of a (height, width) field."""
    hints = get_type_hints(cls)
    keys = {f.name: (f.name, None) for f in fields(cls) if f.name not in exclude}
    keys.update(renames)
    return cls, {key: (name, i, hints[name] if i is None else get_args(hints[name])[i])
                 for key, (name, i) in keys.items()}


_SECTIONS = {
    "federation": _schema(FederationConfig, exclude=("seed", "loss", "extractor", "aggregation",
                                                     "memory_channels", "grid_hw", "phi_hidden")),
    "loss": _schema(LossConfig),
    "memory": _schema(FederationConfig, exclude=[f.name for f in fields(FederationConfig)],
                      channels=("memory_channels", None), grid_height=("grid_hw", 0),
                      grid_width=("grid_hw", 1), phi_hidden=("phi_hidden", None)),
    "extractor": _schema(ExtractorSpec, exclude=("base_hw",), base_height=("base_hw", 0),
                         base_width=("base_hw", 1)),
    "aggregation": _schema(AggregationConfig, exclude=("seed",)),
    "audit": _schema(AuditConfig),
}
_DATASETS = {  # the first kind is the default
    "synthetic": _schema(SynthSpec, exclude=("base_hw", "n_clients", "seed")),
    "manifest": _schema(RunConfig, exclude=("federation", "synth", "audit")),
}
_SEED_TYPE = get_type_hints(FederationConfig)["seed"]


def _convert(key: str, value, tp):
    """`value` as type `tp`, by the rules of the module docstring."""
    args = get_args(tp)
    if isinstance(value, bool):
        pass  # a subclass of int, but never a number here
    elif type(None) in args:
        return None if value is None else _convert(key, value, args[0])
    elif tp is int and (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        return int(value)
    elif tp is float and isinstance(value, (int, float)) or tp is str and isinstance(value, str):
        return tp(value)
    elif get_origin(tp) in (tuple, list) and isinstance(value, (list, tuple)):
        return get_origin(tp)(_convert(key, v, args[0]) for v in value)
    name = tp.__name__ if isinstance(tp, type) else str(tp)
    raise ConfigError(f"config key {key!r} must be {name}, got {value!r}", key=key)


def _mapping(doc: dict, section: str) -> dict:
    value = doc.get(section, {})
    if not isinstance(value, dict):
        raise ConfigError(f"section {section!r} must be an object", key=section)
    return value


def _fields(section: str, values: dict, schema=None) -> dict:
    """A section's values, converted to the types of the fields they set and
    keyed by those fields."""
    cls, keys = schema or _SECTIONS[section]
    out = {}
    for key, value in values.items():
        dotted = f"{section}.{key}"
        if key not in keys:
            raise ConfigError(f"unknown config key {dotted!r}", key=dotted)
        name, i, tp = keys[key]
        value = _convert(dotted, value, tp)
        if i is not None:
            pair = list(out.get(name, getattr(cls, name)))
            pair[i] = value
            value = tuple(pair)
        out[name] = value
    return out


def _build(section: str, cls, **kwargs):
    """cls(**kwargs); a ValueError that names no key is keyed by the section."""
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), key=section) from exc


def _load(doc: dict, section: str, **defaults):
    """The section's dataclass; `defaults` replace the dataclass's own."""
    values = _fields(section, _mapping(doc, section))
    return _build(section, _SECTIONS[section][0], **{**defaults, **values})


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
    for key in doc:
        if key not in ("seed", "dataset", *_SECTIONS):
            raise ConfigError(f"unknown config key {key!r}", key=key)
    seed = (_convert("seed", doc.get("seed", FederationConfig.seed), _SEED_TYPE)
            if seed_override is None else int(seed_override))

    fed = _fields("federation", _mapping(doc, "federation"))
    if baseline_override is not None:
        fed["baseline"] = baseline_override
    federation = FederationConfig(
        seed=seed, loss=_load(doc, "loss"), extractor=_load(doc, "extractor", seed=seed),
        aggregation=_load(doc, "aggregation"),
        **_fields("memory", _mapping(doc, "memory")), **fed)

    ds = dict(_mapping(doc, "dataset"))
    kind = _convert("dataset.kind", ds.pop("kind", next(iter(_DATASETS))), str)
    if kind not in _DATASETS:
        raise ConfigError(f"unknown dataset kind {kind!r}", key="dataset.kind")
    data = _fields("dataset", ds, _DATASETS[kind])
    synth = None
    if kind == "synthetic":
        synth = _build("dataset", SynthSpec, base_hw=federation.extractor.base_hw,
                       n_clients=federation.n_clients, seed=seed, **data)
    elif len(data.get("train_manifests") or ()) != federation.n_clients:
        raise ConfigError("need one train manifest per client", key="dataset.train_manifests")
    elif data.get("test_manifest") is None:
        raise ConfigError("manifest dataset requires test_manifest",
                          key="dataset.test_manifest")

    return RunConfig(federation=federation, synth=synth,
                     train_manifests=data.get("train_manifests"),
                     test_manifest=data.get("test_manifest"),
                     audit=_load(doc, "audit", seed=seed))


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
    return load_train_sets(cfg), load_test_set(cfg)


def load_train_sets(cfg: RunConfig) -> list[list[LabeledSample]]:
    """The per-client train sample lists of `load_federated_data`, without
    building or reading any test sample."""
    if cfg.synth is not None:
        return synth_client_train(cfg.synth)
    return [_load_manifest_samples(p) for p in cfg.train_manifests]


def load_test_set(cfg: RunConfig) -> list[LabeledSample]:
    """The global test set of `load_federated_data`, without building or
    reading any training sample."""
    if cfg.synth is not None:
        return synth_test_set(cfg.synth)
    return _load_manifest_samples(cfg.test_manifest)
