"""Server side: k-means aggregation of client banks and byte accounting.

Aggregation pools the N * H * W uploaded patches, clusters them with
K = H * W (k-means++ seeding, Lloyd iterations), and reshapes the centers
row-major into the shared (H, W, C) bank that is redistributed to every
client. Center order within the bank is arbitrary. Scoring and the kNN loss
read the bank as a set of patches, but memory-reduce does not: it blends a
client's new memories into the previous bank position by position, so the
order the centers come out in changes the next round's banks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .client import MemoryBank
from .errors import ConfigError, NumericError, ShapeError
from .numerics import GramFloor, Reference, Rng, knn
from .tensorio import tensor_nbytes


@dataclass
class AggregationConfig:
    max_iterations: int = 100
    tolerance: float = 1e-6
    seed: int = 0
    n_init: int = 1  # independent seeded restarts; best objective wins

    def __post_init__(self):
        for key in ("max_iterations", "n_init"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1", key=f"aggregation.{key}")
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be > 0", key="aggregation.tolerance")


@dataclass
class KMeansResult:
    centers: np.ndarray
    assignments: np.ndarray
    objective: float
    n_iterations: int
    objective_history: list[float]


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distance of each point to its center (or to one center)."""
    return ((points - centers) ** 2).sum(axis=1).astype(np.float64)


def _plusplus_seeding(points: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    """Greedy k-means++: per step, draw several D^2-weighted candidates and
    keep the one that shrinks the potential most. Degenerate all-zero
    distances fall back to a uniform draw.

    One Gram product per step bounds every candidate's squared distances
    from below (`GramFloor`); only the (candidate, point) pairs whose bound
    does not clear the point's current D^2 (`GramFloor.near`, against
    thresholds kept beside D^2 and rewritten only where D^2 falls) get
    explicit differences, for all candidates together, so each candidate's
    D^2 row is the one a full recomputation would give. The first candidate
    of least potential wins, the potential being the numpy sum of that row.

    That sum is formed only for near ties. With S the sum of D^2 (also the
    draw's total) and m the pairs, a candidate's approx = S - (its pairs'
    reductions of D^2, one bincount) differs from its potential by at most
    (2n + m) u S to first order, u the float64 unit roundoff: every term of
    either sum is >= 0 and at most S, so any order of summing errs by at
    most gamma_{n-1} S, and the reductions add m terms. The slack
    8 (n + m + 8) u S is at least twice the gap two such errors make, so a
    candidate whose approx exceeds the least by more than the slack cannot
    have least potential. Only when two or more candidates are within it
    (repeated candidates, all-zero D^2) are their exact rows summed. A
    total D^2 that is not finite raises `NumericError`."""
    n = points.shape[0]
    n_candidates = 2 + int(np.log2(max(k, 2)))
    u = float(np.finfo(np.float64).eps) / 2
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(0, n)
    d2 = _sq_dists(points, points[chosen[0]])
    gram = GramFloor(points, Reference(points))
    t = gram.threshold(d2)
    for j in range(1, k):
        total = float(d2.sum())
        if not np.isfinite(total):
            raise NumericError("k-means++ seeding: the total squared distance is not finite")
        candidates = rng.choice_weighted(d2, total, n_candidates)
        rows, cols = gram.near(candidates, t)
        sq = np.empty(len(rows))
        # n pairs at a time: never more differences than one full candidate
        for s in range(0, len(rows), n):
            sq[s:s + n] = _sq_dists(points[cols[s:s + n]], points[candidates[rows[s:s + n]]])
        # in place: sq becomes each pair's new D^2, gain how far that lowers D^2
        gain = d2[cols]
        np.minimum(gain, sq, out=sq)
        gain -= sq
        approx = total - np.bincount(rows, weights=gain, minlength=n_candidates)
        slack = np.nextafter(8 * (n + len(rows) + 8) * u * total, np.inf)
        tied = np.flatnonzero(approx <= approx.min() + slack)
        best = int(tied[0])
        if len(tied) > 1:
            exact = np.tile(d2, (len(tied), 1))
            for row, c in zip(exact, tied):
                mine = rows == c
                row[cols[mine]] = sq[mine]
            best = int(tied[np.argmin(exact.sum(axis=1))])
        chosen[j] = candidates[best]
        mine = np.flatnonzero(rows == best)
        lowered = mine[gain[mine] > 0]
        d2[cols[lowered]] = sq[lowered]
        t[cols[lowered]] = gram.threshold(sq[lowered])
    return chosen


def _repair_empty(assignments: np.ndarray, nearest: np.ndarray, k: int) -> np.ndarray:
    """Give each empty cluster the point of the currently largest cluster
    that lies farthest from its center, `nearest` holding each point's
    distance to its assigned center (deterministic tie-breaks toward lower
    indices)."""
    counts = np.bincount(assignments, minlength=k)
    for empty in np.flatnonzero(counts == 0):
        donor = int(np.argmax(counts))
        members = np.flatnonzero(assignments == donor)
        far = members[int(np.argmax(nearest[members]))]
        assignments[far] = empty
        counts[donor] -= 1
        counts[empty] += 1
    return assignments


def kmeans(points: np.ndarray, k: int, cfg: AggregationConfig) -> KMeansResult:
    """Best of n_init seeded k-means++ / Lloyd runs, deterministic under
    cfg.seed. Lloyd is a local method; restarts make global-optimum misses
    rare on small instances."""
    if points.ndim != 2 or points.shape[0] == 0:
        raise ShapeError("kmeans expects a nonempty (P, C) matrix")
    n = points.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k={k} must be in [1, {n}]")
    best: KMeansResult | None = None
    for restart in range(cfg.n_init):
        result = _lloyd_once(points, k, cfg, Rng(cfg.seed).child("kmeanspp", restart))
        if best is None or result.objective < best.objective:
            best = result
    return best


def _lloyd_once(points: np.ndarray, k: int, cfg: AggregationConfig,
                rng: Rng) -> KMeansResult:
    """One k-means++ seeding, Lloyd iterations, then a Hartigan-style
    single-point move polish (strictly fewer local optima than plain Lloyd).

    Cluster means are accumulated in float64 so duplicated points recover
    their value exactly; the per-iteration within-cluster SSE is recorded and
    is nonincreasing.
    """
    centers = points[_plusplus_seeding(points, k, rng)].copy()
    history: list[float] = []
    # single-point-move polish costs O(P*K*C) per move; worth it only on
    # small instances, where escaping Lloyd-stable local optima matters most
    polish = points.shape[0] * k <= 32768
    for _ in range(3):  # alternate Lloyd and polish until a joint fixpoint
        assignments, centers, lloyd_hist = _lloyd_iterations(points, centers, k, cfg)
        history.extend(lloyd_hist)
        if not polish:
            break
        assignments, centers, polish_hist = _hartigan_polish(points, assignments, k)
        history.extend(polish_hist)
        if not polish_hist:
            break

    assignments = knn(points, Reference(centers), 1)[0][:, 0]
    objective = _sse(points, centers, assignments)
    return KMeansResult(centers=centers, assignments=assignments, objective=objective,
                        n_iterations=len(history), objective_history=history)


def _sse(points: np.ndarray, centers: np.ndarray, assignments: np.ndarray) -> float:
    """Within-cluster sum of squares in float64, formed in place in one
    (P, C) buffer that is freed on return: the same floats as squaring a
    fresh float64 difference."""
    residual = points.astype(np.float64)
    residual -= centers[assignments]
    return float(np.square(residual, out=residual).sum())


def _cluster_sums(pts: np.ndarray, assignments: np.ndarray, k: int) -> np.ndarray:
    """(k, C) sums of the float64 points of each cluster, from one bincount
    keyed by cluster * C + channel: each point is added in order, as
    `np.add.at` adds them, so the sums are the same floats."""
    c = pts.shape[1]
    keys = (assignments[:, None] * c + np.arange(c)).ravel()
    return np.bincount(keys, weights=pts.ravel(), minlength=k * c).reshape(k, c)


def _lloyd_iterations(points: np.ndarray, centers: np.ndarray, k: int,
                      cfg: AggregationConfig) -> tuple[np.ndarray, np.ndarray, list[float]]:
    history: list[float] = []
    assignments = np.zeros(points.shape[0], dtype=np.int64)
    pts = points.astype(np.float64)
    for _ in range(cfg.max_iterations):
        nearest_idx, nearest = knn(points, Reference(centers), 1)
        assignments = _repair_empty(nearest_idx[:, 0], nearest[:, 0], k)

        sums = _cluster_sums(pts, assignments, k)
        counts = np.bincount(assignments, minlength=k).astype(np.float64)
        new_centers = (sums / counts[:, None]).astype(points.dtype)

        history.append(_sse(pts, new_centers, assignments))

        movement = np.sqrt(((new_centers - centers).astype(np.float64) ** 2).sum(axis=1)).max()
        centers = new_centers
        if movement < cfg.tolerance:
            break
    return assignments, centers, history


def _hartigan_polish(points: np.ndarray, assignments: np.ndarray,
                     k: int, max_sweeps: int = 50) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Greedy single-point moves: relocate a point when the exact SSE delta
    n_b/(n_b+1)*d_b^2 - n_a/(n_a-1)*d_a^2 is negative. Never empties a
    cluster. Returns (assignments, centers as means, SSE history)."""
    pts = points.astype(np.float64)
    assignments = assignments.copy()
    sums = _cluster_sums(pts, assignments, k)
    counts = np.bincount(assignments, minlength=k).astype(np.float64)
    history: list[float] = []
    for _ in range(max_sweeps):
        means = sums / counts[:, None]
        d2 = ((pts[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        own = assignments
        n_own = counts[own]
        movable = n_own > 1
        gain_leave = np.where(movable, (n_own / np.maximum(n_own - 1, 1)) * d2[np.arange(len(pts)), own], -np.inf)
        cost_join = (counts / (counts + 1))[None, :] * d2
        cost_join[np.arange(len(pts)), own] = np.inf
        best_target = np.argmin(cost_join, axis=1)
        delta = cost_join[np.arange(len(pts)), best_target] - gain_leave
        candidate = int(np.argmin(delta))
        if not delta[candidate] < -1e-12:
            break
        a, b = int(assignments[candidate]), int(best_target[candidate])
        assignments[candidate] = b
        sums[a] -= pts[candidate]
        sums[b] += pts[candidate]
        counts[a] -= 1
        counts[b] += 1
        means = sums / counts[:, None]
        history.append(float(((pts - means[assignments]) ** 2).sum()))
    centers = (sums / counts[:, None]).astype(points.dtype)
    return assignments, centers, history


def aggregate(banks: list[MemoryBank], cfg: AggregationConfig) -> MemoryBank:
    """Pool all clients' bank patches and cluster back to one (H, W, C) bank."""
    if not banks:
        raise ValueError("no banks to aggregate")
    shape = banks[0].data.shape
    for b in banks:
        if b.data.shape != shape:
            raise ShapeError(f"bank shapes differ: {b.data.shape} vs {shape}")
    h, w, c = shape
    pooled = np.concatenate([b.patches for b in banks], axis=0)
    result = kmeans(pooled, h * w, cfg)
    return MemoryBank(data=result.centers.reshape(h, w, c))


def average_banks(banks: list[MemoryBank]) -> MemoryBank:
    """Elementwise mean of client banks (plain-average baseline)."""
    if not banks:
        raise ValueError("no banks to average")
    stack = np.stack([b.data for b in banks]).astype(np.float64)
    return MemoryBank(data=stack.mean(axis=0).astype(banks[0].data.dtype))


# ---------------------------------------------------------------------------
# Communication accounting
# ---------------------------------------------------------------------------


def bank_nbytes(bank: MemoryBank) -> int:
    """Exact serialized size of a bank in the repo tensor format."""
    return tensor_nbytes(bank.data.shape)


def params_nbytes(params: dict[str, np.ndarray]) -> int:
    """Exact serialized size of a parameter set as an FDMC container."""
    overhead = 4 + 4  # container magic + section count
    total = overhead
    for name, arr in params.items():
        total += 2 + len(name.encode("utf-8")) + tensor_nbytes(arr.shape)
    return total
