"""Server side: k-means aggregation of client banks and byte accounting.

Aggregation pools the N * H * W uploaded patches, clusters them with
K = H * W (k-means++ seeding, Lloyd iterations), and reshapes the centers
row-major into the shared (H, W, C) bank that is redistributed to every
client. Center order within the bank is arbitrary; every downstream consumer
is order-invariant over bank patches.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .client import MemoryBank
from .errors import ShapeError
from .numerics import GramFloor, Rng, knn
from .tensorio import tensor_nbytes


@dataclass
class AggregationConfig:
    max_iterations: int = 100
    tolerance: float = 1e-6
    seed: int = 0
    n_init: int = 1  # independent seeded restarts; best objective wins

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.n_init < 1:
            raise ValueError("n_init must be >= 1")


@dataclass
class KMeansResult:
    centers: np.ndarray
    assignments: np.ndarray
    objective: float
    n_iterations: int
    objective_history: list[float]


def _sq_dists(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    return ((points - center) ** 2).sum(axis=1).astype(np.float64)


def _plusplus_seeding(points: np.ndarray, k: int, rng: Rng) -> np.ndarray:
    """Greedy k-means++: per step, draw several D^2-weighted candidates and
    keep the one that shrinks the potential most. Degenerate all-zero
    distances fall back to a uniform draw.

    One Gram product per step bounds every candidate's squared distances
    from below (`GramFloor`); only points whose bound does not clear
    their current D^2 get explicit differences, so each candidate's D^2
    array is the one a full recomputation would give."""
    n = points.shape[0]
    n_candidates = 2 + int(np.log2(max(k, 2)))
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(0, n)
    d2 = _sq_dists(points, points[chosen[0]])
    gram = GramFloor(points, points)
    for j in range(1, k):
        candidates = rng.choice_weighted(d2, n_candidates)
        best_idx, best_d2, best_pot = -1, None, np.inf
        for idx, floor in zip(candidates, gram.floors(candidates)):
            near = np.flatnonzero(~(floor > d2))
            cand = d2.copy()
            cand[near] = np.minimum(d2[near], _sq_dists(points[near], points[idx]))
            pot = cand.sum()
            if pot < best_pot:
                best_idx, best_d2, best_pot = int(idx), cand, pot
        chosen[j] = best_idx
        d2 = best_d2
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

    assignments = knn(points, centers, 1)[0][:, 0]
    objective = float(((points.astype(np.float64)
                        - centers[assignments].astype(np.float64)) ** 2).sum())
    return KMeansResult(centers=centers, assignments=assignments, objective=objective,
                        n_iterations=len(history), objective_history=history)


def _lloyd_iterations(points: np.ndarray, centers: np.ndarray, k: int,
                      cfg: AggregationConfig) -> tuple[np.ndarray, np.ndarray, list[float]]:
    history: list[float] = []
    assignments = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(cfg.max_iterations):
        nearest_idx, nearest = knn(points, centers, 1)
        assignments = _repair_empty(nearest_idx[:, 0], nearest[:, 0], k)

        sums = np.zeros((k, points.shape[1]), dtype=np.float64)
        np.add.at(sums, assignments, points.astype(np.float64))
        counts = np.bincount(assignments, minlength=k).astype(np.float64)
        new_centers = (sums / counts[:, None]).astype(points.dtype)

        sse = float(((points.astype(np.float64)
                      - new_centers[assignments].astype(np.float64)) ** 2).sum())
        history.append(sse)

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
    sums = np.zeros((k, pts.shape[1]), dtype=np.float64)
    np.add.at(sums, assignments, pts)
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
    return MemoryBank(data=result.centers.reshape(h, w, c),
                      round_index=banks[0].round_index)


def average_banks(banks: list[MemoryBank]) -> MemoryBank:
    """Elementwise mean of client banks (plain-average baseline)."""
    if not banks:
        raise ValueError("no banks to average")
    stack = np.stack([b.data for b in banks]).astype(np.float64)
    return MemoryBank(data=stack.mean(axis=0).astype(banks[0].data.dtype),
                      round_index=banks[0].round_index)


# ---------------------------------------------------------------------------
# Communication accounting
# ---------------------------------------------------------------------------


@dataclass
class ExchangeRecord:
    round_index: int
    client: int
    direction: str  # "up" | "down"
    nbytes: int

    def csv_row(self) -> list:
        return [self.round_index, self.client, self.direction, self.nbytes]


@dataclass
class CommLedger:
    records: list[ExchangeRecord] = field(default_factory=list)

    def totals(self) -> tuple[int, int]:
        up = sum(r.nbytes for r in self.records if r.direction == "up")
        down = sum(r.nbytes for r in self.records if r.direction == "down")
        return up, down

    def message_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for r in self.records:
            counts[r.client] = counts.get(r.client, 0) + 1
        return counts

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "client", "direction", "bytes"])
            writer.writerows(r.csv_row() for r in self.records)


def record_exchange(ledger: CommLedger, round_index: int, client: int,
                    direction: str, nbytes: int) -> CommLedger:
    if direction not in ("up", "down"):
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    ledger.records.append(ExchangeRecord(round_index, client, direction, nbytes))
    return ledger


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
