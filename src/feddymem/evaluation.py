"""Test-time scoring, detection metrics and the synthetic benchmark.

Scoring follows the nearest-neighbor convention: per-pixel anomaly score is
the smallest distance among the K retrieved bank neighbors (the 1-NN
distance; a mean-of-K variant is available for ablation), and the image
score is a softmax-weighted maximum over the pixel map.

The synthetic dataset builds per-type smooth prototypes, adds low-magnitude
smooth noise for normal samples, and perturbs one contiguous patch for
anomalies. Types are spread across clients with a Dirichlet split, which at
small alpha concentrates most of a type on a single client.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from .client import MemoryBank, knn_lookup
from .errors import NumericError, ShapeError
from .numerics import Rng, bilinear_resize

DTYPE = np.float32


@dataclass
class LabeledSample:
    sample_id: str
    features: np.ndarray          # (H, W, 3) input tensor
    label: int                    # 0 normal, 1 anomalous
    mask: np.ndarray | None = None  # (H, W) in {0, 1}; None or all-zero iff label 0
    type_id: int = 0

    def __post_init__(self):
        if self.label == 0 and self.mask is not None and self.mask.any():
            raise ValueError("normal sample must not carry a nonzero mask")

    def mask_or_zeros(self) -> np.ndarray:
        if self.mask is None:
            return np.zeros(self.features.shape[:2], dtype=np.uint8)
        return self.mask


@dataclass
class AnomalyMap:
    pixel_scores: np.ndarray  # (H, W), >= 0
    image_score: float


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def pixel_scores(m_test: np.ndarray, bank: MemoryBank, k: int,
                 mode: str = "min") -> np.ndarray:
    """Per-pixel anomaly scores from the K nearest bank patches."""
    if mode not in ("min", "mean"):
        raise ValueError(f"unknown score mode {mode!r}")
    h, w, c = m_test.shape
    if c != bank.data.shape[2]:
        raise ShapeError(f"memory channels {c} != bank channels {bank.data.shape[2]}")
    _, dist = knn_lookup(m_test.reshape(h * w, c), bank, k)
    scores = dist[:, 0] if mode == "min" else dist.mean(axis=1)
    return scores.reshape(h, w)


def image_score(a: np.ndarray) -> float:
    """Softmax-weighted maximum of the pixel score map (stable form)."""
    flat = a.reshape(-1).astype(np.float64)
    e = np.exp(flat - flat.max())
    return float((flat * (e / e.sum())).max())


def anomaly_map(m_test: np.ndarray, bank: MemoryBank, k: int,
                mode: str = "min") -> AnomalyMap:
    scores = pixel_scores(m_test, bank, k, mode)
    return AnomalyMap(pixel_scores=scores, image_score=image_score(scores))


def postprocess_heatmap(a: np.ndarray, image_hw: tuple[int, int],
                        sigma: float = 4.0, truncate: float = 4.0) -> np.ndarray:
    """Upsample to image dims, Gaussian-blur, min-max normalize.

    A constant map normalizes to all zeros (no anomaly signal anywhere).
    """
    if image_hw[0] < a.shape[0] or image_hw[1] < a.shape[1]:
        raise ShapeError(f"target dims {image_hw} smaller than map {a.shape}")
    up = bilinear_resize(a[..., None].astype(np.float64), image_hw)[..., 0]
    blurred = ndimage.gaussian_filter(up, sigma=sigma, truncate=truncate, mode="reflect")
    lo, hi = float(blurred.min()), float(blurred.max())
    if hi - lo <= 1e-9 * max(abs(hi), abs(lo), 1.0):
        return np.zeros(image_hw, dtype=DTYPE)
    return ((blurred - lo) / (hi - lo)).astype(DTYPE)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


# Rows of the (curve points, regions) hit-count matrix built at a time in
# `pro`, so its memory stays bounded however many points the curve has.
PRO_HITS_CHUNK = 512


def _finite_scores(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(s).all():
        raise NumericError("scores contain non-finite values")
    return s


def _tie_ends(sorted_vals: np.ndarray) -> np.ndarray:
    """Last index of each run of equal values in a sorted 1-D array."""
    change = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1])
    return np.append(change, len(sorted_vals) - 1)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged."""
    order = np.argsort(values, kind="stable")
    ends = _tie_ends(values[order])
    starts = np.concatenate(([0], ends[:-1] + 1))
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def auroc(scores, labels) -> float:
    """Probability a positive outscores a negative, ties counted half."""
    s = _finite_scores(scores)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ShapeError("scores and labels must be equal-length 1-D")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc undefined: both classes must be present")
    ranks = _average_ranks(s)
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def pro(heatmaps: list[np.ndarray], masks: list[np.ndarray],
        fpr_budget: float = 0.3) -> float:
    """Per-region overlap averaged over thresholds up to the FPR budget.

    Ground-truth regions use 4-connectivity. The (FPR, PRO) curve is swept
    over the distinct score values from the highest down, and stops at the
    first one whose FPR reaches the budget; it is integrated as a step
    function from FPR 0 to the budget, normalized by the budget.

    The cost is one sort of all pixel scores plus cumulative counts: the
    false positives at each threshold are a running sum over the sorted
    pixels, and a region's hits are the number of its pixels sorted at or
    before the threshold. Only the last threshold of each run of equal FPR
    is evaluated, since the step function reads no other, and the hit
    counts are built `PRO_HITS_CHUNK` thresholds at a time, so memory
    stays bounded by the chunk, not by the length of the curve.
    """
    if not 0 < fpr_budget <= 1:
        raise ValueError("fpr_budget must be in (0, 1]")
    if len(heatmaps) != len(masks):
        raise ShapeError("need one mask per heatmap")

    region_ids = []
    offset = 0
    for hm, mask in zip(heatmaps, masks):
        if hm.shape != mask.shape:
            raise ShapeError(f"heatmap {hm.shape} and mask {mask.shape} differ")
        labeled, n_regions = ndimage.label(mask > 0)
        ids = labeled.reshape(-1).astype(np.int64)
        ids[ids > 0] += offset
        region_ids.append(ids)
        offset += n_regions
    n_regions_total = offset
    if n_regions_total == 0:
        raise ValueError("pro undefined: no anomalous regions in masks")

    scores = _finite_scores(
        np.concatenate([hm.reshape(-1).astype(np.float64) for hm in heatmaps]))
    regions = np.concatenate(region_ids)
    is_neg = regions == 0
    total_neg = int(is_neg.sum())
    if total_neg == 0:
        raise ValueError("pro undefined: no normal pixels for the FPR axis")

    # thresholds are the ends of the tie groups in descending score order;
    # the last pixel is a negative at FPR exactly 1 >= budget, so `stop`
    # always exists
    n = len(scores)
    order = np.argsort(-scores, kind="stable")
    ends = _tie_ends(scores[order])
    fpr = np.cumsum(is_neg[order])[ends] / total_neg
    stop = int(np.argmax(fpr >= fpr_budget))
    keep = np.flatnonzero(fpr[:stop] != fpr[1:stop + 1])
    points = ends[keep]

    # hits of region r at position e: its pixels keyed r * n + sorted
    # position, counted up to r * n + e, less the keys of regions before r
    sizes = np.bincount(regions, minlength=n_regions_total + 1)[1:]
    sorted_regions = regions[order]
    positions = np.flatnonzero(sorted_regions)
    keys = np.sort((sorted_regions[positions] - 1) * n + positions)
    before = np.cumsum(sizes) - sizes
    region_base = np.arange(n_regions_total, dtype=np.int64) * n
    pros = []
    for c in range(0, len(points), PRO_HITS_CHUNK):
        queries = points[c:c + PRO_HITS_CHUNK, None] + region_base
        hits = np.searchsorted(keys, queries, side="right") - before
        pros.extend((hits / sizes).mean(axis=1).tolist())

    # step integral over [0, budget]; PRO holds its value until the next
    # achieved FPR, starting from (0, 0)
    integral = 0.0
    prev_f, prev_p = 0.0, 0.0
    for f, p in zip(fpr[keep].tolist(), pros):
        integral += prev_p * (f - prev_f)
        prev_f, prev_p = f, p
    integral += prev_p * (fpr_budget - prev_f)
    return float(integral / fpr_budget)


# ---------------------------------------------------------------------------
# Synthetic heterogeneous dataset
# ---------------------------------------------------------------------------


def dirichlet_partition(type_counts: list[int], n_clients: int, alpha: float,
                        seed: int) -> list[list[int]]:
    """Assign each type's samples to clients by Dirichlet-drawn proportions.

    Sample indices are global (types laid out consecutively); rounding uses
    largest remainders so every sample is assigned exactly once.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    rng = Rng(seed).child("dirichlet")
    assignment: list[list[int]] = [[] for _ in range(n_clients)]
    offset = 0
    for t, count in enumerate(type_counts):
        props = rng.child(t).dirichlet(np.full(n_clients, alpha, dtype=np.float64))
        raw = props * count
        base = np.floor(raw).astype(np.int64)
        deficit = count - int(base.sum())
        if deficit > 0:
            order = np.argsort(-(raw - base), kind="stable")
            base[order[:deficit]] += 1
        pos = offset
        for c in range(n_clients):
            assignment[c].extend(range(pos, pos + int(base[c])))
            pos += int(base[c])
        offset += count
    return assignment


@dataclass
class SynthSpec:
    n_types: int = 3
    samples_per_type: int = 40
    test_normals_per_type: int = 12
    test_anomalies_per_type: int = 12
    base_hw: tuple[int, int] = (16, 16)
    anomaly_magnitude: float = 1.5
    anomaly_extent: int = 5
    noise_scale: float = 0.1
    dirichlet_alpha: float = 0.1
    n_clients: int = 5
    seed: int = 0
    prototype_cells: int = 4
    noise_cells: int = 8
    type_spread: float = 0.75

    def __post_init__(self):
        if self.n_types < 1:
            raise ValueError("n_types must be >= 1")
        if self.dirichlet_alpha <= 0:
            raise ValueError("dirichlet_alpha must be > 0")
        if not (1 <= self.anomaly_extent <= min(self.base_hw)):
            raise ValueError("anomaly_extent must fit inside the sample")


@dataclass
class SynthDataset:
    client_train: list[list[LabeledSample]]
    test: list[LabeledSample]
    assignment: list[list[int]]
    # per-client indices into `test`: each client's local test slice follows
    # its own training distribution (same Dirichlet proportions per type)
    test_assignment: list[list[int]] = field(default_factory=list)


def _smooth_field(rng: Rng, cells: int, hw: tuple[int, int], channels: int = 3) -> np.ndarray:
    coarse = rng.normal((cells, cells, channels))
    return bilinear_resize(coarse, hw)


def _make_normal(rng: Rng, prototype: np.ndarray, spec: SynthSpec) -> np.ndarray:
    noise = _smooth_field(rng, spec.noise_cells, spec.base_hw)
    return (prototype + spec.noise_scale * noise).astype(DTYPE)


def _add_anomaly(rng: Rng, sample: np.ndarray, spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    h, w, _ = sample.shape
    ext = spec.anomaly_extent
    top = rng.integers(0, h - ext + 1)
    left = rng.integers(0, w - ext + 1)
    direction = rng.normal((3,)).astype(np.float64)
    direction /= max(np.linalg.norm(direction), 1e-12)
    out = sample.copy()
    out[top:top + ext, left:left + ext, :] += (spec.anomaly_magnitude * direction).astype(DTYPE)
    mask = np.zeros((h, w), dtype=np.uint8)
    mask[top:top + ext, left:left + ext] = 1
    return out, mask


def synth_dataset(spec: SynthSpec) -> SynthDataset:
    """Per-client train sets (normals only) plus a global mixed test set.

    Every client is guaranteed at least one training sample: when the
    Dirichlet split starves a client, one sample is moved over from the
    currently largest client.
    """
    rng = Rng(spec.seed).child("synth")
    # every type blends a shared base pattern with a type-specific deviation
    # (spread=1 gives fully independent types): per-type distributions differ
    # without being mutually unrecognizable
    s = spec.type_spread
    base = rng.child("proto_base").uniform(-1.0, 1.0,
                                           (spec.prototype_cells, spec.prototype_cells, 3))
    prototypes = [
        bilinear_resize((1.0 - s) * base
                        + s * rng.child("proto", t).uniform(-1.0, 1.0,
                                                            (spec.prototype_cells, spec.prototype_cells, 3)),
                        spec.base_hw)
        for t in range(spec.n_types)
    ]

    train_samples: list[LabeledSample] = []
    for t in range(spec.n_types):
        for i in range(spec.samples_per_type):
            x = _make_normal(rng.child("train", t, i), prototypes[t], spec)
            train_samples.append(LabeledSample(
                sample_id=f"train_t{t}_i{i}", features=x, label=0, type_id=t))

    assignment = dirichlet_partition([spec.samples_per_type] * spec.n_types,
                                     spec.n_clients, spec.dirichlet_alpha, spec.seed)
    for c in range(spec.n_clients):
        while not assignment[c]:
            donor = max(range(spec.n_clients), key=lambda d: len(assignment[d]))
            assignment[c].append(assignment[donor].pop())
    client_train = [[train_samples[i] for i in idxs] for idxs in assignment]

    test: list[LabeledSample] = []
    for t in range(spec.n_types):
        for i in range(spec.test_normals_per_type):
            x = _make_normal(rng.child("test_norm", t, i), prototypes[t], spec)
            test.append(LabeledSample(
                sample_id=f"test_norm_t{t}_i{i}", features=x, label=0, type_id=t))
        for i in range(spec.test_anomalies_per_type):
            base_x = _make_normal(rng.child("test_anom", t, i), prototypes[t], spec)
            x, mask = _add_anomaly(rng.child("anom_patch", t, i), base_x, spec)
            test.append(LabeledSample(
                sample_id=f"test_anom_t{t}_i{i}", features=x, label=1, mask=mask, type_id=t))

    test_assignment = _assign_test_slices(spec)
    return SynthDataset(client_train=client_train, test=test, assignment=assignment,
                        test_assignment=test_assignment)


def _assign_test_slices(spec: SynthSpec) -> list[list[int]]:
    """Per-client test indices drawn with the same per-type proportions as
    the train split (the partition reuses the same seeded Dirichlet draws).
    Every client ends up with at least one normal and one anomalous sample.
    """
    tn, ta = spec.test_normals_per_type, spec.test_anomalies_per_type
    stride = tn + ta
    norm_split = dirichlet_partition([tn] * spec.n_types, spec.n_clients,
                                     spec.dirichlet_alpha, spec.seed)
    anom_split = dirichlet_partition([ta] * spec.n_types, spec.n_clients,
                                     spec.dirichlet_alpha, spec.seed)

    normals = [[(i // tn) * stride + (i % tn) for i in idxs] for idxs in norm_split]
    anomalies = [[(i // ta) * stride + tn + (i % ta) for i in idxs] for idxs in anom_split]

    for group in (normals, anomalies):
        for c in range(spec.n_clients):
            while not group[c]:
                donor = max(range(spec.n_clients), key=lambda d: len(group[d]))
                group[c].append(group[donor].pop())
    return [sorted(normals[c] + anomalies[c]) for c in range(spec.n_clients)]


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------


@dataclass
class EvalMetrics:
    i_auroc_per_client: list[float]
    p_auroc_per_client: list[float]
    pro_per_client: list[float]

    @property
    def i_auroc(self) -> float:
        return float(np.mean(self.i_auroc_per_client))

    @property
    def p_auroc(self) -> float:
        return float(np.mean(self.p_auroc_per_client))

    @property
    def pro(self) -> float:
        return float(np.mean(self.pro_per_client))


def write_results_csv(path: str | Path, rows: list[tuple[str, str, float, float, float]]) -> None:
    """Rows are (run_id, baseline, I-AUROC, P-AUROC, PRO)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "baseline", "i_auroc", "p_auroc", "pro"])
        for row in rows:
            writer.writerow(list(row))
