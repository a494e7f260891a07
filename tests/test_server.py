import csv
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feddymem.client import MemoryBank
from feddymem.errors import ShapeError
from feddymem.numerics import Rng, pairwise_dist
from feddymem.orchestrator import BASELINES, run_training
from feddymem.server import (
    AggregationConfig,
    _cluster_sums,
    _hartigan_polish,
    _plusplus_seeding,
    aggregate,
    average_banks,
    bank_nbytes,
    kmeans,
    params_nbytes,
)
from test_orchestrator import desk_config, desk_datasets


def brute_force_sse(points: np.ndarray, k: int) -> float:
    """Optimal within-cluster SSE by enumerating every assignment."""
    n = len(points)
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        if len(set(assign)) < k:
            continue
        sse = 0.0
        assign = np.array(assign)
        for c in range(k):
            members = points[assign == c]
            sse += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, sse)
    return best


def reference_seeding(points: np.ndarray, k: int, rng: Rng) -> list[int]:
    """Greedy k-means++ recomputing every point's D^2 per candidate, one
    candidate at a time; the first strictly smaller potential wins."""
    n = points.shape[0]
    n_candidates = 2 + int(np.log2(max(k, 2)))
    chosen = [rng.integers(0, n)]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1).astype(np.float64)
    for _ in range(1, k):
        best_idx, best_d2, best_pot = -1, None, np.inf
        for _ in range(n_candidates):
            total = float(d2.sum())
            if total <= 0.0:
                idx = rng.integers(0, n)
            else:
                u = rng.generator.uniform(0.0, total)
                idx = int(np.searchsorted(np.cumsum(d2), u, side="right").clip(0, n - 1))
            cand = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1).astype(np.float64))
            if cand.sum() < best_pot:
                best_idx, best_d2, best_pot = idx, cand, cand.sum()
        chosen.append(best_idx)
        d2 = best_d2
    return chosen


def reference_kmeans(points: np.ndarray, k: int, cfg: AggregationConfig):
    """One seeded k-means run written with full distance matrices: the
    reference seeding, and Lloyd assigning by argmin over the full (P, K)
    distance matrix."""
    n = points.shape[0]
    chosen = reference_seeding(points, k, Rng(cfg.seed).child("kmeanspp", 0))
    centers = points[chosen].copy()

    def lloyd(centers):
        history = []
        for _ in range(cfg.max_iterations):
            dists = pairwise_dist(points, centers)
            assignments = np.argmin(dists, axis=1)
            counts = np.bincount(assignments, minlength=k)
            for empty in np.flatnonzero(counts == 0):
                donor = int(np.argmax(counts))
                members = np.flatnonzero(assignments == donor)
                far = members[int(np.argmax(dists[members, donor]))]
                assignments[far] = empty
                counts[donor] -= 1
                counts[empty] += 1
            sums = np.zeros((k, points.shape[1]), dtype=np.float64)
            np.add.at(sums, assignments, points.astype(np.float64))
            new = (sums / counts[:, None].astype(np.float64)).astype(points.dtype)
            history.append(float(((points.astype(np.float64)
                                   - new[assignments].astype(np.float64)) ** 2).sum()))
            movement = np.sqrt(((new - centers).astype(np.float64) ** 2).sum(axis=1)).max()
            centers = new
            if movement < cfg.tolerance:
                break
        return assignments, centers, history

    history = []
    for _ in range(3):
        assignments, centers, hist = lloyd(centers)
        history.extend(hist)
        if n * k > 32768:
            break
        assignments, centers, hist = _hartigan_polish(points, assignments, k)
        history.extend(hist)
        if not hist:
            break
    assignments = np.argmin(pairwise_dist(points, centers), axis=1)
    return chosen, centers, assignments, history


class TestKMeans:
    def test_all_identical_single_cluster(self):
        pts = np.full((6, 3), 2.5, dtype=np.float32)
        res = kmeans(pts, 1, AggregationConfig(seed=0))
        assert np.array_equal(res.centers[0], pts[0])

    def test_two_obvious_clusters(self):
        pts = np.array([[0.0], [0.0], [10.0], [10.0]], dtype=np.float32)
        res = kmeans(pts, 2, AggregationConfig(seed=1))
        assert sorted(res.centers[:, 0].tolist()) == [0.0, 10.0]

    def test_objective_nonincreasing(self):
        pts = Rng(3).normal((40, 4))
        res = kmeans(pts, 5, AggregationConfig(seed=3))
        hist = res.objective_history
        assert all(b <= a + 1e-6 for a, b in zip(hist, hist[1:]))

    def test_deterministic(self):
        pts = Rng(4).normal((30, 3))
        a = kmeans(pts, 4, AggregationConfig(seed=9))
        b = kmeans(pts, 4, AggregationConfig(seed=9))
        assert np.array_equal(a.centers, b.centers)

    def test_centers_in_convex_hull(self):
        pts = Rng(5).normal((25, 3))
        res = kmeans(pts, 6, AggregationConfig(seed=5))
        for c in range(3):
            assert res.centers[:, c].min() >= pts[:, c].min() - 1e-6
            assert res.centers[:, c].max() <= pts[:, c].max() + 1e-6

    def test_k_larger_than_points_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2), np.float32), 4, AggregationConfig())

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            kmeans(np.zeros((0, 2), np.float32), 1, AggregationConfig())

    @pytest.mark.parametrize("n,c,k,distinct,scale,seed", [
        (300, 8, 24, None, None, 0),    # distinct points, Gram-filtered kNN and seeding
        (260, 5, 30, 40, None, 1),      # duplicated points
        (120, 3, 16, 12, None, 2),      # fewer distinct points than clusters: empties repaired
        (2400, 4, 16, None, None, 3),   # n * k > 32768: no polish, several kNN chunks
        (80, 3, 12, None, 1e150, 4),    # float64 norms near overflow: no Gram filter
    ])
    def test_matches_full_matrix_reference(self, n, c, k, distinct, scale, seed):
        r = Rng(seed)
        if scale is not None:
            pts = r.child(1).normal((n, c), dtype=np.float64) * scale
        elif distinct is None:
            pts = r.child(1).normal((n, c))
        else:
            rows = r.child(1).normal((distinct, c))
            pts = rows[r.child(2).generator.integers(0, distinct, size=n)]
        cfg = AggregationConfig(seed=seed)
        chosen, centers, assignments, history = reference_kmeans(pts, k, cfg)
        if distinct is not None and distinct < k:
            assert len({tuple(p) for p in pts[chosen]}) < k  # seeding repeated a point
        res = kmeans(pts, k, cfg)
        assert np.array_equal(res.centers, centers)
        assert np.array_equal(res.assignments, assignments)
        assert res.objective_history == history

    @given(st.integers(1, 80), st.integers(1, 4), st.integers(1, 24), st.integers(1, 30),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_seeding_matches_per_candidate_loop(self, n, c, k, distinct, seed):
        # few distinct rows make candidates repeat and potentials tie
        k = min(k, n)
        r = Rng(seed)
        rows = r.child(1).normal((distinct, c))
        pts = rows[r.child(2).generator.integers(0, distinct, size=n)]
        got = _plusplus_seeding(pts, k, Rng(seed).child("s"))
        assert got.tolist() == reference_seeding(pts, k, Rng(seed).child("s"))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 5),
           st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_cluster_sums_equal_add_at(self, seed, n, c, k):
        # duplicated points, clusters left empty, and points added in an
        # order that does not follow their cluster
        r = Rng(seed)
        rows = r.child(1).normal((max(n // 3, 1), c), dtype=np.float64)
        pts = rows[r.child(2).generator.integers(0, len(rows), size=n)]
        assignments = r.child(3).generator.integers(0, k, size=n)
        want = np.zeros((k, c))
        np.add.at(want, assignments, pts)
        assert np.array_equal(_cluster_sums(pts, assignments, k), want)

    def test_against_exhaustive_oracle(self):
        # Lloyd is a local method: require >= 95% global-optimum hits and log
        # (not fail) the shortfalls
        hits = 0
        trials = 100
        shortfalls = []
        for seed in range(trials):
            pts = Rng(seed).normal((8, 2)).astype(np.float64)
            res = kmeans(pts, 2, AggregationConfig(seed=seed, n_init=10))
            opt = brute_force_sse(pts, 2)
            if res.objective <= opt * (1 + 1e-9) + 1e-12:
                hits += 1
            else:
                shortfalls.append((seed, res.objective, opt))
        for seed, got, opt in shortfalls:
            print(f"kmeans local optimum at seed {seed}: {got:.6f} > {opt:.6f}")
        assert hits >= 95


class TestAggregate:
    def test_single_client_distinct_patches(self):
        data = Rng(7).normal((3, 3, 2))
        bank = MemoryBank(data=data)
        out = aggregate([bank], AggregationConfig(seed=2))
        got = set(map(tuple, np.round(out.patches, 5).tolist()))
        want = set(map(tuple, np.round(bank.patches, 5).tolist()))
        assert got == want

    def test_identical_banks_hausdorff_zero(self):
        data = Rng(8).normal((2, 3, 2))
        banks = [MemoryBank(data=data.copy()) for _ in range(3)]
        out = aggregate(banks, AggregationConfig(seed=4))
        # exact set equality: every center recovers one duplicated point
        got = sorted(map(tuple, out.patches.tolist()))
        want = sorted(map(tuple, banks[0].patches.tolist()))
        assert got == want

    def test_well_separated_blobs_recover_means(self):
        rng = Rng(11)
        h = w = 2
        centers = rng.child(1).normal((h * w, 3), std=50.0).astype(np.float64)
        banks = []
        all_pts = {k: [] for k in range(h * w)}
        for n in range(2):
            pts = np.empty((h * w, 3), dtype=np.float32)
            for k in range(h * w):
                p = centers[k] + rng.child(2, n, k).normal((3,), std=0.01)
                pts[k] = p
                all_pts[k].append(p)
            banks.append(MemoryBank(data=pts.reshape(h, w, 3)))
        out = aggregate(banks, AggregationConfig(seed=3))
        blob_means = np.array([np.mean(all_pts[k], axis=0) for k in range(h * w)])
        for center in out.patches:
            assert np.abs(blob_means - center).min() < 1e-6

    def test_output_shape_fixed(self):
        banks = [MemoryBank(data=Rng(n).normal((4, 4, 3))) for n in range(5)]
        out = aggregate(banks, AggregationConfig(seed=1))
        assert out.data.shape == (4, 4, 3)

    def test_shape_mismatch_rejected(self):
        banks = [MemoryBank(data=Rng(0).normal((2, 2, 2))),
                 MemoryBank(data=Rng(1).normal((2, 2, 3)))]
        with pytest.raises(ShapeError):
            aggregate(banks, AggregationConfig())

    def test_average_banks(self):
        a = MemoryBank(data=np.full((2, 2, 1), 1.0, np.float32))
        b = MemoryBank(data=np.full((2, 2, 1), 3.0, np.float32))
        assert np.allclose(average_banks([a, b]).data, 2.0)


class TestLedger:
    def test_bank_byte_arithmetic(self):
        bank = MemoryBank(data=np.zeros((14, 14, 16), np.float32))
        header = 4 + 1 + 3 * 4
        assert bank_nbytes(bank) == 14 * 14 * 16 * 4 + header

    @pytest.mark.parametrize("baseline", BASELINES)
    def test_csv_rows_are_each_rounds_transfers(self, tmp_path, baseline):
        cfg = desk_config(rounds=2, baseline=baseline, n_clients=2)
        result = run_training(cfg, desk_datasets(cfg), tmp_path)
        want = [["round", "client", "direction", "bytes"]]
        for m in result.metrics:
            for direction, sizes in (("up", m.uploads), ("down", m.downloads)):
                want += [[str(m.round_index), str(n), direction, str(b)]
                         for n, b in enumerate(sizes)]
        with open(tmp_path / "ledger.csv", newline="") as fh:
            assert list(csv.reader(fh)) == want
        assert (len(want) == 1) == (baseline == "local_only")

    def test_param_bytes_exact(self):
        from feddymem.tensorio import dump_container
        params = {"w": np.zeros((3, 4), np.float32), "b": np.zeros(4, np.float32)}
        assert params_nbytes(params) == len(dump_container(params))
