"""Test-time scoring, detection metrics and the synthetic benchmark.

Scoring follows the nearest-neighbor convention: per-pixel anomaly score is
the distance to the nearest bank patch (the 1-NN distance), and the image
score is a softmax-weighted maximum over the pixel map.

The synthetic dataset builds per-type smooth prototypes, adds low-magnitude
smooth noise for normal samples, and perturbs one contiguous patch for
anomalies. Types are spread across clients with a Dirichlet split, which at
small alpha concentrates most of a type on a single client.

Region labelling (`label_regions`) and the heatmap blur (`_gaussian_blur`)
are numpy implementations, equal to scipy.ndimage's `label` and
`gaussian_filter`, so a run needs numpy alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .client import MemoryBank, knn_lookup
from .errors import ConfigError, NumericError, ShapeError
from .numerics import DTYPE, Rng, bilinear_resize


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


def image_score(a: np.ndarray) -> float:
    """Softmax-weighted maximum of the pixel score map (stable form), the
    weights formed in one float64 buffer."""
    flat = a.reshape(-1).astype(np.float64)
    e = np.subtract(flat, flat.max())
    np.exp(e, out=e)
    e /= e.sum()
    e *= flat
    return float(e.max())


def anomaly_map(m_test: np.ndarray, bank: MemoryBank) -> AnomalyMap:
    """Scores of one (H, W, C) memory feature: each patch's distance to its
    nearest bank patch, and their `image_score`."""
    h, w, c = m_test.shape
    if c != bank.data.shape[2]:
        raise ShapeError(f"memory channels {c} != bank channels {bank.data.shape[2]}")
    _, dist = knn_lookup(m_test.reshape(h * w, c), bank, 1)
    scores = dist[:, 0].reshape(h, w)
    return AnomalyMap(pixel_scores=scores, image_score=image_score(scores))


def _gaussian_blur(a: np.ndarray, sigma: float, truncate: float) -> np.ndarray:
    """Separable Gaussian blur of a float64 (H, W) map, equal bit for bit to
    `scipy.ndimage.gaussian_filter(a, sigma, truncate=truncate,
    mode="reflect")`.

    The kernel is exp(-0.5 / sigma^2 * x^2) over x in [-r, r], r =
    int(truncate * sigma + 0.5), divided by its sum. Each axis, 0 then 1, is
    padded by edge-inclusive reflection (numpy's "symmetric", which repeats
    for maps shorter than r) and filtered in scipy's order of accumulation:
    y = x * w[0], then y += (x[+j] + x[-j]) * w[j] for j from r down to 1.
    """
    r = int(truncate * sigma + 0.5)
    x = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    w = (w / w.sum())[r:]
    for axis in (0, 1):
        x = np.moveaxis(a, axis, 0)
        padded = np.pad(x, ((r, r), (0, 0)), mode="symmetric")
        n = len(x)
        out = x * w[0]
        for j in range(r, 0, -1):
            out += (padded[r + j:r + j + n] + padded[r - j:r - j + n]) * w[j]
        a = np.moveaxis(out, 0, axis)
    return a


def postprocess_heatmap(a: np.ndarray, image_hw: tuple[int, int],
                        sigma: float = 4.0, truncate: float = 4.0) -> np.ndarray:
    """Upsample to image dims, Gaussian-blur (`_gaussian_blur`), min-max
    normalize.

    A constant map normalizes to all zeros (no anomaly signal anywhere).
    """
    if image_hw[0] < a.shape[0] or image_hw[1] < a.shape[1]:
        raise ShapeError(f"target dims {image_hw} smaller than map {a.shape}")
    up = bilinear_resize(a[..., None].astype(np.float64), image_hw)[..., 0]
    blurred = _gaussian_blur(up, sigma, truncate)
    lo, hi = float(blurred.min()), float(blurred.max())
    if hi - lo <= 1e-9 * max(abs(hi), abs(lo), 1.0):
        return np.zeros(image_hw, dtype=DTYPE)
    return ((blurred - lo) / (hi - lo)).astype(DTYPE)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


# Curve points whose (points, regions) hit counts `pro` builds at a time, so
# its memory stays bounded however many points the curve has.
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


def _ascending(scores: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """The stable ascending order of `scores`: `order` when the caller
    sorted them already, as `evaluate_states` does once for `auroc` and
    `pro` of the same pixel scores."""
    if order is None:
        return np.argsort(scores, kind="stable")
    if order.shape != scores.shape:
        raise ShapeError(f"order {order.shape} does not match scores {scores.shape}")
    return order


def stable_order(scores: np.ndarray) -> np.ndarray:
    """`np.argsort(scores, kind="stable")` of 1-D scores without NaN, the
    order `auroc` and `pro` take.

    Float32 scores are ordered by one sort of unique int64 keys, formed in
    the one buffer that becomes the order. The low 32 bits hold the index,
    which breaks ties as a stable sort does. The high 32 bits hold an
    order-preserving image of the score: its bits as an int32, with the low
    31 bits flipped for negative scores, after -0.0 is folded onto +0.0 (by
    adding +0.0) so that the two zeros tie as they compare. The sorted keys,
    their high bits cleared, are the order. Other dtypes, and more than
    2**32 scores, take the stable argsort itself.
    """
    n = len(scores)
    if scores.dtype != np.float32 or n > 2**32:
        return np.argsort(scores, kind="stable")
    keys = np.arange(n, dtype=np.int64)
    # the int32 halves of the keys that hold their high bits
    high = keys.view(np.int32)[int(np.little_endian)::2]
    np.add(scores, np.float32(0.0), out=high.view(np.float32))
    np.bitwise_xor(high, 0x7FFFFFFF, out=high, where=high < 0)
    keys.sort()
    keys &= 0xFFFFFFFF
    return keys


def _average_ranks(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged, from the stable ascending order."""
    ends = _tie_ends(values[order])
    starts = np.concatenate(([0], ends[:-1] + 1))
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def auroc(scores, labels, order: np.ndarray | None = None) -> float:
    """Probability a positive outscores a negative, ties counted half.
    `order`, when given, is the scores' stable ascending argsort."""
    s = _finite_scores(scores)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ShapeError("scores and labels must be equal-length 1-D")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc undefined: both classes must be present")
    ranks = _average_ranks(s, _ascending(s, order))
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def label_regions(masks: list[np.ndarray]) -> list[np.ndarray]:
    """One integer region map per (H, W) mask, for `pro`: the 4-connected
    regions of the mask's nonzero pixels, numbered 1..R across the whole
    list, and 0 for normal pixels. Ids go by each region's first pixel in
    raster order, masks taken in list order, so every id is unique to one
    region of one mask and the maps equal `scipy.ndimage.label`'s with each
    mask's ids offset by the regions of the masks before it. A test set's
    masks are labelled once for every list of heatmaps scored against them.

    All masks are labelled at once, as one raster of zero-padded masks, by
    union-find over the pairs of neighbouring foreground pixels: each round
    hooks the larger of a pair's two roots onto the smaller, then points
    every pixel at its root by pointer jumping. A root is thus the first
    pixel of its region. Pairs already in one tree drop out of later rounds.
    """
    if not masks:
        return []
    h = max(m.shape[0] for m in masks)
    w = max(m.shape[1] for m in masks)
    # a zero row and column after each mask keep the masks apart, so the
    # raster neighbours of pixel p are p + 1 and p + w + 1
    fg = np.zeros((len(masks), h + 1, w + 1), dtype=bool)
    for i, m in enumerate(masks):
        fg[i, :m.shape[0], :m.shape[1]] = m > 0
    flat = fg.reshape(-1)
    right = np.flatnonzero(flat[:-1] & flat[1:])
    down = np.flatnonzero(flat[:-w - 1] & flat[w + 1:])
    # foreground pixels are numbered 0.. in raster order
    rank = np.cumsum(flat) - 1
    u = rank[np.concatenate([right, down])]
    v = rank[np.concatenate([right + 1, down + w + 1])]
    parent = np.arange(int(rank[-1]) + 1)
    while True:
        pu, pv = parent[u], parent[v]
        split = pu != pv
        if not split.any():
            break
        u, v, pu, pv = u[split], v[split], pu[split], pv[split]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    roots = parent == np.arange(len(parent))
    ids = np.zeros(flat.shape, dtype=np.int64)
    ids[flat] = np.cumsum(roots)[parent]
    ids = ids.reshape(fg.shape)
    return [ids[i, :m.shape[0], :m.shape[1]] for i, m in enumerate(masks)]


def pro(heatmaps: list[np.ndarray], regions: list[np.ndarray],
        fpr_budget: float = 0.3, order: np.ndarray | None = None) -> float:
    """Per-region overlap averaged over thresholds up to the FPR budget.

    `regions` holds one region map per heatmap, as `label_regions` returns
    for the ground-truth masks; it is only read. The (FPR, PRO) curve is
    swept over the distinct score values from the highest down, and stops
    at the first one whose FPR reaches the budget; it is integrated as a
    step function from FPR 0 to the budget, normalized by the budget.

    The cost is one sort of all pixel scores plus cumulative counts: the
    false positives at each threshold are a running sum over the sorted
    pixels, and a region's hits are the number of its pixels sorted at or
    before the threshold. The descending order is the stable ascending one
    reversed, which is `order` when given (the order `auroc` takes, of the
    heatmaps' scores concatenated in list order, as `stable_order` forms
    it). Ties then come in
    reverse index order, but only the counts at the end of each tie group
    are read, and those do not depend on the order within it. Only the last
    threshold of each run of equal FPR is evaluated, since the step
    function reads no other. Per chunk of `PRO_HITS_CHUNK` thresholds, one
    `bincount` counts the region pixels between each threshold and the one
    before it, and a running sum down the chunk turns these into hits, so
    memory stays bounded by the chunk, not by the length of the curve.
    """
    if not 0 < fpr_budget <= 1:
        raise ValueError("fpr_budget must be in (0, 1]")
    if len(heatmaps) != len(regions):
        raise ShapeError("need one region map per heatmap")
    for hm, ids in zip(heatmaps, regions):
        if hm.shape != ids.shape:
            raise ShapeError(f"heatmap {hm.shape} and region map {ids.shape} differ")

    scores = _finite_scores(
        np.concatenate([hm.reshape(-1).astype(np.float64) for hm in heatmaps]))
    ids = np.concatenate([r.reshape(-1) for r in regions])
    n_regions = int(ids.max(initial=0))
    if n_regions == 0:
        raise ValueError("pro undefined: no anomalous regions in masks")
    is_neg = ids == 0
    total_neg = int(is_neg.sum())
    if total_neg == 0:
        raise ValueError("pro undefined: no normal pixels for the FPR axis")

    # thresholds are the ends of the tie groups in descending score order;
    # the last pixel is a negative at FPR exactly 1 >= budget, so `stop`
    # always exists
    order = _ascending(scores, order)[::-1]
    ends = _tie_ends(scores[order])
    fpr = np.cumsum(is_neg[order])[ends] / total_neg
    stop = int(np.argmax(fpr >= fpr_budget))
    keep = np.flatnonzero(fpr[:stop] != fpr[1:stop + 1])
    points = ends[keep]

    # hits of region r at point e: its pixels at sorted positions <= e
    sizes = np.bincount(ids, minlength=n_regions + 1)[1:]
    sorted_ids = ids[order]
    positions = np.flatnonzero(sorted_ids)
    hits = np.zeros(n_regions, dtype=np.int64)
    counted = 0  # region pixels, in sorted order, already in `hits`
    pros = [np.zeros(1)]  # the curve starts at PRO 0
    for c in range(0, len(points), PRO_HITS_CHUNK):
        chunk = points[c:c + PRO_HITS_CHUNK]
        upto = int(np.searchsorted(positions, chunk[-1], side="right"))
        pos = positions[counted:upto]
        counted = upto
        # segment i holds the pixels after chunk[i - 1] up to chunk[i]
        segment = np.searchsorted(chunk, pos)
        counts = np.bincount(segment * n_regions + (sorted_ids[pos] - 1),
                             minlength=len(chunk) * n_regions)
        chunk_hits = np.cumsum(counts.reshape(len(chunk), n_regions), axis=0) + hits
        hits = chunk_hits[-1]
        pros.append((chunk_hits / sizes).mean(axis=1))

    # step integral over [0, budget]; PRO holds its value until the next
    # achieved FPR, starting from (0, 0). cumsum adds the terms one at a
    # time in curve order, as a running sum from 0.0 does
    steps = np.diff(np.concatenate(([0.0], fpr[keep], [fpr_budget])))
    integral = np.cumsum(np.concatenate(pros) * steps)[-1]
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
            raise ConfigError("n_types must be >= 1", key="dataset.n_types")
        if self.n_types * self.samples_per_type < self.n_clients:
            raise ConfigError("every client needs a training sample: n_types * samples_per_type"
                              f" must be >= n_clients ({self.n_clients})",
                              key="dataset.samples_per_type")
        for key in ("test_normals_per_type", "test_anomalies_per_type", "prototype_cells",
                    "noise_cells"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1", key=f"dataset.{key}")
        if self.dirichlet_alpha <= 0:
            raise ConfigError("dirichlet_alpha must be > 0", key="dataset.dirichlet_alpha")
        if not (1 <= self.anomaly_extent <= min(self.base_hw)):
            raise ConfigError("anomaly_extent must fit inside the sample",
                              key="dataset.anomaly_extent")


@dataclass
class SynthDataset:
    client_train: list[list[LabeledSample]]
    test: list[LabeledSample]
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
    prototypes = _prototypes(rng, spec)
    return SynthDataset(client_train=_client_train(rng, prototypes, spec),
                        test=_test_set(rng, prototypes, spec),
                        test_assignment=_assign_test_slices(spec))


def synth_client_train(spec: SynthSpec) -> list[list[LabeledSample]]:
    """The per-client train sets of `synth_dataset(spec)`, built alone:
    their samples draw only from their own streams and the type
    prototypes, so no test sample is built."""
    rng = Rng(spec.seed).child("synth")
    return _client_train(rng, _prototypes(rng, spec), spec)


def synth_test_set(spec: SynthSpec) -> list[LabeledSample]:
    """The global test set of `synth_dataset(spec)`, built alone: its
    samples draw only from their own streams and the type prototypes."""
    rng = Rng(spec.seed).child("synth")
    return _test_set(rng, _prototypes(rng, spec), spec)


def _client_train(rng: Rng, prototypes: list[np.ndarray],
                  spec: SynthSpec) -> list[list[LabeledSample]]:
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
    return [[train_samples[i] for i in idxs] for idxs in assignment]


def _prototypes(rng: Rng, spec: SynthSpec) -> list[np.ndarray]:
    # every type blends a shared base pattern with a type-specific deviation
    # (spread=1 gives fully independent types): per-type distributions differ
    # without being mutually unrecognizable
    s = spec.type_spread
    base = rng.child("proto_base").uniform(-1.0, 1.0,
                                           (spec.prototype_cells, spec.prototype_cells, 3))
    return [
        bilinear_resize((1.0 - s) * base
                        + s * rng.child("proto", t).uniform(-1.0, 1.0,
                                                            (spec.prototype_cells, spec.prototype_cells, 3)),
                        spec.base_hw)
        for t in range(spec.n_types)
    ]


def _test_set(rng: Rng, prototypes: list[np.ndarray], spec: SynthSpec) -> list[LabeledSample]:
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
    return test


def _assign_test_slices(spec: SynthSpec) -> list[list[int]]:
    """Per-client test indices drawn with the same per-type proportions as
    the train split (the partition reuses the same seeded Dirichlet draws).
    Every client ends up with at least one normal and one anomalous sample:
    a client short of a kind takes one from the client that holds the most,
    and copies it instead when that client holds only one. Slices share
    samples only in that case, when a kind has fewer samples than there are
    clients.
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
                donor = group[max(range(spec.n_clients), key=lambda d: len(group[d]))]
                group[c].append(donor[-1] if len(donor) == 1 else donor.pop())
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
