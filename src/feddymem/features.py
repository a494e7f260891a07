"""Frozen feature pyramid, multi-level fusion and the trainable projection.

The pretrained backbone is abstracted behind `ExtractorSpec`: the synthetic
kind builds an L-level pyramid from fixed seeded 1x1 channel mixing, 2x2
mean-pool downsampling and a tanh nonlinearity; the file kind loads
precomputed pyramids from FDMC containers listed in a JSON manifest. Both
are frozen: outputs depend only on (sample, spec) and never change across
training rounds.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensorio
from .errors import ConfigError, ShapeError
from .numerics import DTYPE, Rng, bilinear_resize, require_finite, sum_samples, xavier_uniform

SAMPLE_CHANNELS = 3


@dataclass(frozen=True)
class ExtractorSpec:
    kind: str = "synthetic"
    seed: int = 0
    levels: int = 3
    base_hw: tuple[int, int] = (16, 16)
    level_channels: tuple[int, ...] = (32, 64, 128)
    manifest_path: str | None = None

    def __post_init__(self):
        if self.kind not in ("synthetic", "file"):
            raise ConfigError(f"unknown extractor kind {self.kind!r}", key="extractor.kind")
        if self.kind == "synthetic":
            if self.levels < 1:
                raise ConfigError("levels must be >= 1", key="extractor.levels")
            if len(self.level_channels) != self.levels:
                raise ConfigError("level_channels must have one entry per level",
                                  key="extractor.level_channels")
            if any(c < 1 for c in self.level_channels):
                raise ConfigError("level channel counts must be >= 1",
                                  key="extractor.level_channels")
            div = 2 ** (self.levels - 1)
            for extent, key in zip(self.base_hw, ("base_height", "base_width")):
                if extent % div:
                    raise ConfigError(f"base dims {self.base_hw} must be divisible by {div}",
                                      key=f"extractor.{key}")
        elif self.manifest_path is None:
            raise ConfigError("file extractor requires manifest_path",
                              key="extractor.manifest_path")

    @property
    def fused_channels(self) -> int:
        if self.kind == "synthetic":
            return int(sum(self.level_channels))
        return _manifest_channels(self.manifest_path)


@dataclass
class FeaturePyramid:
    """L per-level feature maps, spatial extents nonincreasing with level."""

    levels: list[np.ndarray]

    def __post_init__(self):
        if not self.levels:
            raise ShapeError("pyramid must have at least one level")
        prev = None
        for lvl in self.levels:
            if lvl.ndim != 3:
                raise ShapeError(f"pyramid level must be (H, W, C), got {lvl.shape}")
            if prev is not None and (lvl.shape[0] > prev[0] or lvl.shape[1] > prev[1]):
                raise ShapeError("pyramid spatial extents must be nonincreasing")
            prev = lvl.shape

    @property
    def fused_shape(self) -> tuple[int, int, int]:
        """(H, W, C) of the fused map: level-0 dims, every level's channels."""
        h0, w0 = self.levels[0].shape[:2]
        return h0, w0, sum(lvl.shape[2] for lvl in self.levels)


@functools.lru_cache(maxsize=32)
def _synthetic_weights(spec: ExtractorSpec) -> tuple[np.ndarray, ...]:
    """Fixed per-level 1x1 mixing weights, drawn once from the spec seed."""
    rng = Rng(spec.seed)
    weights = []
    cin = SAMPLE_CHANNELS
    for level, cout in enumerate(spec.level_channels):
        w = rng.child("extractor_mix", level).normal((cin, cout), std=1.0 / np.sqrt(cin))
        weights.append(w)
        cin = cout
    return tuple(weights)


def _mean_pool2(x: np.ndarray) -> np.ndarray:
    h, w, c = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"mean-pool needs even extents, got {x.shape}")
    return x.reshape(h // 2, 2, w // 2, 2, c).mean(axis=(1, 3))


@functools.lru_cache(maxsize=8)
def _manifest_index(manifest_path: str) -> dict[str, str]:
    entries = load_manifest(manifest_path)
    base = Path(manifest_path).parent
    return {e.sample_id: str(base / e.path) for e in entries}


@functools.lru_cache(maxsize=8)
def _manifest_channels(manifest_path: str) -> int:
    """Fused channels of the manifest's first pyramid, read once per path."""
    first = next(iter(_manifest_index(manifest_path).values()))
    return read_pyramid(first).fused_shape[2]


def extract_pyramid(sample, spec: ExtractorSpec) -> FeaturePyramid:
    """Frozen multi-level features for one sample.

    Synthetic kind takes the raw (H, W, 3) tensor; the file kind takes a
    sample id and loads the precomputed pyramid from the spec's manifest.
    """
    if spec.kind == "file":
        index = _manifest_index(spec.manifest_path)
        if sample not in index:
            raise FileNotFoundError(f"sample id {sample!r} not in manifest {spec.manifest_path}")
        return read_pyramid(index[sample])

    x = np.asarray(sample, dtype=DTYPE)
    if x.shape != (spec.base_hw[0], spec.base_hw[1], SAMPLE_CHANNELS):
        raise ShapeError(f"sample {x.shape} does not match spec base dims {spec.base_hw}")
    require_finite(x, "sample")
    levels = []
    cur = x
    for w in _synthetic_weights(spec):
        if levels:
            cur = _mean_pool2(cur)
        cur = np.tanh(cur @ w)
        levels.append(cur)
    return FeaturePyramid(levels=levels)


def fuse_pyramid(p: FeaturePyramid, out: np.ndarray | None = None) -> np.ndarray:
    """Resize every level to level-0 dims and concatenate along channels:
    a `p.fused_shape` map in the levels' common dtype.

    Each level is written straight into its channel slice of the result: a
    level at level-0 dims is copied, and the others are lerped in place
    (`bilinear_resize`) and copied, so no list of parts is concatenated.
    With `out`, such as a row of a stack of fused maps, the result is
    written there and `out` returned; each level is still resized in its
    own dtype, and `out` receives it cast, as an assignment would.
    """
    shape = p.fused_shape
    if out is None:
        out = np.empty(shape, dtype=np.result_type(*p.levels))
    elif out.shape != shape:
        raise ShapeError(f"pyramid fuses to {shape}, not out's {out.shape}")
    start = 0
    for lvl in p.levels:
        c = lvl.shape[2]
        bilinear_resize(lvl, shape[:2], out=out[..., start:start + c])
        start += c
    return out


# ---------------------------------------------------------------------------
# Trainable projection
# ---------------------------------------------------------------------------


def init_projection(rng: Rng, cin: int, c: int) -> dict[str, np.ndarray]:
    """Projection parameters: `proj_w` (Cin, C) Xavier-uniform, `proj_b` (C,) zero."""
    return {"proj_w": xavier_uniform(rng, cin, c, (cin, c)),
            "proj_b": np.zeros(c, dtype=DTYPE)}


def _activate(pre: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(pre, 0)
    if activation == "tanh":
        return np.tanh(pre)
    raise ValueError(f"unknown activation {activation!r}")


def _activate_backward(out: np.ndarray, grad_out: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return grad_out * (out > 0)
    if activation == "tanh":
        return grad_out * (1.0 - out * out)
    raise ValueError(f"unknown activation {activation!r}")


@dataclass
class ProjectionCache:
    fused: np.ndarray
    rows: Sequence[int]
    out: np.ndarray
    activation: str


def project_forward(fused: np.ndarray, params: dict[str, np.ndarray], activation: str = "relu",
                    rows: Sequence[int] | None = None) -> tuple[np.ndarray, ProjectionCache]:
    """Trainable per-pixel projection with nonlinearity, sigma(conv1x1(fused)),
    of the samples `rows` (all, in order, when None) of a (N, H, W, Cin)
    stack of fused features: (len(rows), H, W, C).

    Each sample's product is formed from a view of its row of the stack and
    written into the one output, so the rows are never gathered into a copy;
    a batch's products are the bits of batches of one. Reads `proj_w` and
    `proj_b` from `params`; other keys are ignored.
    """
    weight, bias = params["proj_w"], params["proj_b"]
    if fused.ndim != 4:
        raise ShapeError(f"fused features must be (N, H, W, Cin), got {fused.shape}")
    if fused.shape[3] != weight.shape[0]:
        raise ShapeError(
            f"fused channels {fused.shape[3]} != projection input {weight.shape[0]}")
    rows = range(len(fused)) if rows is None else rows
    pre = np.empty((len(rows),) + fused.shape[1:3] + (weight.shape[1],),
                   dtype=np.result_type(fused, weight))
    for j, i in enumerate(rows):
        np.matmul(fused[i].reshape(-1, weight.shape[0]), weight,
                  out=pre[j].reshape(-1, weight.shape[1]))
    pre += bias
    out = _activate(pre, activation)
    return out, ProjectionCache(fused=fused, rows=rows, out=out, activation=activation)


def project_backward(cache: ProjectionCache, grad_out: np.ndarray) -> dict[str, np.ndarray]:
    """The `proj_w`/`proj_b` gradients, summed over the batch in sample
    order (`sum_samples`), each sample's weight product formed from its row
    of the stack in place. The fused features are frozen, so no gradient
    w.r.t. them is formed."""
    grad_pre = _activate_backward(cache.out, grad_out, cache.activation)
    fused = cache.fused
    g = grad_pre.reshape(len(grad_pre), -1, grad_pre.shape[3])
    g_w = sum_samples(fused[i].reshape(-1, fused.shape[3]).T @ g_j
                      for i, g_j in zip(cache.rows, g))
    return {"proj_w": g_w, "proj_b": sum_samples(g.sum(axis=1))}


# ---------------------------------------------------------------------------
# Pyramid / manifest persistence
# ---------------------------------------------------------------------------


def read_pyramid(path: str | Path) -> FeaturePyramid:
    sections = tensorio.read_container(path)
    names = sorted(sections, key=lambda n: int(n.removeprefix("level")))
    return FeaturePyramid(levels=[sections[n] for n in names])


@dataclass
class ManifestEntry:
    sample_id: str
    path: str
    label: int
    mask_path: str | None = None


def write_manifest(path: str | Path, entries: list[ManifestEntry]) -> None:
    doc = []
    for e in entries:
        row = {"sample_id": e.sample_id, "path": e.path, "label": e.label}
        if e.mask_path is not None:
            row["mask_path"] = e.mask_path
        doc.append(row)
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def load_manifest(path: str | Path) -> list[ManifestEntry]:
    doc = json.loads(Path(path).read_text())
    return [ManifestEntry(sample_id=row["sample_id"], path=row["path"],
                          label=int(row["label"]), mask_path=row.get("mask_path"))
            for row in doc]
