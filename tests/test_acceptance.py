"""Acceptance suite: every criterion at its stated tolerance, one PASS/FAIL
line per criterion (run with `pytest -s tests/test_acceptance.py -v`).

The detection thresholds and the dataset calibration (anomaly magnitude and
friends) were fixed once from a frozen-seed pilot and are recorded here as
constants; the calibration pilot is not in the repository.
"""

import itertools
import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import finite_diff_grad, max_rel_err
from feddymem.client import LossConfig, MemoryBank, memory_reduce, metric_loss
from feddymem.config import load_run_config
from feddymem.evaluation import SynthSpec, auroc, label_regions, pro, synth_dataset
from feddymem.features import (
    FeaturePyramid,
    fuse_pyramid,
    project_backward,
    project_forward,
)
from feddymem.generator import (
    generator_backward,
    generator_forward,
    grid_sample,
    init_generator,
)
from feddymem.numerics import Rng, xavier_uniform
from feddymem.orchestrator import (
    ConvergenceMonitor,
    build_client_dataset,
    initialize,
    run_round,
)
from feddymem.pipeline import eval_run, train_run
from feddymem.privacy import AuditConfig, audit_reduction
from feddymem.server import (
    AggregationConfig,
    aggregate,
    bank_nbytes,
    kmeans,
    params_nbytes,
)

# ---------------------------------------------------------------------------
# Frozen desk configuration (calibrated once; the calibration pilot is not in
# the repository)
# ---------------------------------------------------------------------------

DESK_SEED = 63
DESK_ROUNDS = 60
FED_I_AUROC_MIN = 0.90
FED_OVER_LOCAL_MARGIN = 0.05

DESK_CONFIG = {
    "seed": DESK_SEED,
    "federation": {"n_clients": 5, "rounds": DESK_ROUNDS, "checkpoint_interval": 60},
    "dataset": {
        "n_types": 3,
        "samples_per_type": 60,
        "test_normals_per_type": 12,
        "test_anomalies_per_type": 12,
        "anomaly_magnitude": 2.5,
        "anomaly_extent": 7,
        "noise_scale": 0.08,
        "type_spread": 1.0,
    },
}


def _report(num: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")


@dataclass
class DeskRuns:
    fed_result: object
    fed_metrics: object
    fed_init_metrics: object
    local_metrics: object
    fed_seconds: float


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory) -> DeskRuns:
    root = tmp_path_factory.mktemp("desk")
    fed_cfg = load_run_config(DESK_CONFIG)
    t0 = time.perf_counter()
    fed_result = train_run(fed_cfg, root / "fed")
    fed_seconds = time.perf_counter() - t0
    fed_metrics = eval_run(fed_cfg, root / "fed")
    fed_init_metrics = eval_run(fed_cfg, root / "fed", round_index=0)

    local_doc = json.loads(json.dumps(DESK_CONFIG))
    local_doc["federation"]["baseline"] = "local_only"
    local_cfg = load_run_config(local_doc)
    train_run(local_cfg, root / "local")
    local_metrics = eval_run(local_cfg, root / "local")
    return DeskRuns(fed_result=fed_result, fed_metrics=fed_metrics,
                    fed_init_metrics=fed_init_metrics, local_metrics=local_metrics,
                    fed_seconds=fed_seconds)


# ---------------------------------------------------------------------------
# 1. Gradient integrity of the full client pipeline
# ---------------------------------------------------------------------------


def _pipeline_loss(pyramid, params, bank, cfg):
    fused = fuse_pyramid(pyramid)[None]
    projected, _ = project_forward(fused, params)
    m = generator_forward(projected, params)[0]
    return metric_loss(m, bank, cfg)[0][0]


def _pipeline_grads(pyramid, params, bank, cfg):
    fused = fuse_pyramid(pyramid)[None]
    projected, proj_cache = project_forward(fused, params)
    m, gen_cache = generator_forward(projected, params)
    loss, grad_m = metric_loss(m, bank, cfg)
    grad_projected, gen_grads = generator_backward(gen_cache, grad_m)
    return {**project_backward(proj_cache, grad_projected), **gen_grads}


def test_criterion_1_gradient_integrity():
    # The loss is piecewise smooth: the hinge, KNN selection and the bilinear
    # sampler's grid lines are measure-zero kinks where central differences
    # carry an O(1) slope-jump error no matter how small eps is. Seeds are
    # screened so every probe point stays a safe distance from each kink
    # family, and eps is small enough that no probe can cross one.
    t0 = time.perf_counter()
    c = 8
    eps = 3e-5
    kink_margin = 1e-2
    cfg = LossConfig(hinge_margin=0.01, knn_k=3)
    checked = 0
    seed = 0
    worst = 0.0
    while checked < 20:
        seed += 1
        assert seed < 3000, "could not find 20 kink-free seeds"
        r = Rng(seed)
        levels = [r.child("l0").normal((7, 7, 6)).astype(np.float64),
                  r.child("l1").normal((4, 4, 4)).astype(np.float64)]
        pyramid = FeaturePyramid(levels=levels)
        params = {
            "proj_w": xavier_uniform(r.child("pw"), 10, c, (10, c)).astype(np.float64),
            "proj_b": r.child("pb").normal((c,), std=0.1).astype(np.float64),
            **{name: value.astype(np.float64)
               for name, value in init_generator(r.child("gen"), c, (8, 8)).items()},
        }
        bank = MemoryBank(data=r.child("bank").normal((7, 7, c)).astype(np.float64))

        fused = fuse_pyramid(pyramid)[None]
        projected, _ = project_forward(fused, params)
        m, gen_cache = generator_forward(projected, params)
        from feddymem.client import knn_lookup
        _, dist = knn_lookup(m.reshape(-1, c), bank, cfg.knn_k + 1)
        if np.abs(dist - cfg.hinge_margin).min() < 5e-3:
            continue
        if np.abs(dist[:, -1] - dist[:, -2]).min() < 5e-3:
            continue
        frac = gen_cache.plan.frac  # each coordinate's fraction past its corner
        if min(frac.min(), (1.0 - frac).min()) < kink_margin:
            continue

        grads = _pipeline_grads(pyramid, params, bank, cfg)
        assert list(grads) == list(params)
        for name, analytic in grads.items():
            def loss_fn(value, name=name):
                return _pipeline_loss(pyramid, {**params, name: value}, bank, cfg)
            fd = finite_diff_grad(loss_fn, params[name], eps=eps)
            err = max_rel_err(analytic, fd)
            worst = max(worst, err)
            assert err < 1e-3, f"seed {seed} group {name}: rel err {err}"
        checked += 1

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 120
    _report(1, f"gradient integrity (worst rel err {worst:.2e}, {elapsed:.0f}s)", ok)
    assert ok


# ---------------------------------------------------------------------------
# 2. Grid sampling exactness
# ---------------------------------------------------------------------------


def test_criterion_2_grid_sampling_exactness():
    r = Rng(77)
    grid = r.normal((8, 8, 5))
    ys, xs = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    lattice = np.stack([xs, ys], axis=2).astype(np.float32)
    exact = np.array_equal(grid_sample(grid, lattice[None])[0], grid)

    mid_ok = True
    for (x, y, corners) in [(0.5, 0.0, [(0, 0), (0, 1)]),
                            (3.0, 4.5, [(4, 3), (5, 3)]),
                            (6.5, 7.0, [(7, 6), (7, 7)])]:
        out = grid_sample(grid, np.array([[[[x, y]]]], dtype=np.float32))[0, 0, 0]
        mean = (grid[corners[0]] + grid[corners[1]]) / 2.0
        mid_ok &= bool(np.abs(out - mean).max() < 1e-6)

    ok = exact and mid_ok
    _report(2, "grid sampling exactness", ok)
    assert exact, "integer lattice reconstruction must be bit-exact"
    assert mid_ok, "midpoint samples must equal two-corner means within 1e-6"


# ---------------------------------------------------------------------------
# 3. Memory-reduce algebra
# ---------------------------------------------------------------------------


def test_criterion_3_memory_reduce_algebra():
    r = Rng(5)
    mems = [r.child(i).normal((4, 4, 3)).astype(np.float64) for i in range(6)]

    mean_err = max_rel_err(memory_reduce(np.stack(mems), None, 0).data,
                           np.mean(np.stack(mems), axis=0))

    prev = MemoryBank(data=r.child("prev").normal((4, 4, 3)))
    out1 = memory_reduce(np.stack(mems), prev, 1)
    w = np.array([np.linalg.norm((m - prev.data).reshape(-1)) for m in mems])
    mbar = np.tensordot(w, np.stack(mems), axes=1) / w.sum()
    midpoint_err = max_rel_err(out1.data, 0.5 * mbar + 0.5 * prev.data)

    perm = Rng(9).permutation(6)
    perm_err = max_rel_err(memory_reduce(np.stack(mems)[perm], prev, 1).data,
                           out1.data)

    a = np.full((1, 1, 1), 1.0, dtype=np.float32)
    b = np.full((1, 1, 1), 3.0, dtype=np.float32)
    zero_prev = MemoryBank(data=np.zeros((1, 1, 1), dtype=np.float32))
    scalar = memory_reduce(np.stack([a, b]), zero_prev, 1).data.item()

    ok = mean_err <= 1e-6 and midpoint_err <= 1e-6 and perm_err < 1e-5 and scalar == 1.25
    _report(3, f"memory-reduce algebra (mean {mean_err:.1e}, mid {midpoint_err:.1e}, "
               f"perm {perm_err:.1e}, scalar {scalar})", ok)
    assert mean_err <= 1e-6
    assert midpoint_err <= 1e-6
    assert perm_err < 1e-5
    assert scalar == 1.25


# ---------------------------------------------------------------------------
# 4. Aggregation correctness
# ---------------------------------------------------------------------------


def _brute_force_sse(points: np.ndarray, k: int) -> float:
    best = np.inf
    for assign in itertools.product(range(k), repeat=len(points)):
        if len(set(assign)) < k:
            continue
        assign = np.array(assign)
        sse = 0.0
        for c in range(k):
            members = points[assign == c]
            sse += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, sse)
    return best


def test_criterion_4_aggregation_correctness():
    data = Rng(21).normal((3, 4, 3))
    banks = [MemoryBank(data=data.copy()) for _ in range(4)]
    out = aggregate(banks, AggregationConfig(seed=2, n_init=4))
    hausdorff = 0.0
    from feddymem.numerics import pairwise_dist
    d = pairwise_dist(out.patches, banks[0].patches)
    hausdorff = max(d.min(axis=1).max(), d.min(axis=0).max())

    hits = 0
    shortfalls = []
    for seed in range(100):
        pts = Rng(seed).normal((8, 2)).astype(np.float64)
        res = kmeans(pts, 2, AggregationConfig(seed=seed, n_init=10))
        opt = _brute_force_sse(pts, 2)
        if res.objective <= opt * (1 + 1e-9) + 1e-12:
            hits += 1
        else:
            shortfalls.append((seed, res.objective, opt))
    for seed, got, opt in shortfalls:
        print(f"\n  kmeans local optimum at seed {seed}: {got:.6f} > {opt:.6f}")

    ok = hausdorff == 0.0 and hits >= 95
    _report(4, f"aggregation correctness (hausdorff {hausdorff}, kmeans {hits}/100)", ok)
    assert hausdorff == 0.0
    assert hits >= 95


# ---------------------------------------------------------------------------
# 5. Protocol invariants
# ---------------------------------------------------------------------------


def test_criterion_5_protocol_invariants():
    cfg_fed = load_run_config({
        "seed": 11,
        "federation": {"n_clients": 3, "rounds": 0, "checkpoint_interval": 0},
        "dataset": {"n_types": 2, "samples_per_type": 8, "test_normals_per_type": 2,
                    "test_anomalies_per_type": 2},
    }).federation
    data = synth_dataset(SynthSpec(n_types=2, samples_per_type=8,
                                   test_normals_per_type=2, test_anomalies_per_type=2,
                                   base_hw=cfg_fed.extractor.base_hw,
                                   n_clients=3, seed=11))
    datasets = [build_client_dataset(s, cfg_fed.extractor) for s in data.client_train]
    monitor = ConvergenceMonitor()
    states, _ = initialize(cfg_fed, datasets, monitor)

    banks_identical = exact_transfers = True
    expected = bank_nbytes(states[0].local_bank)
    for t in range(1, 6):
        metrics = run_round(states, t, cfg_fed, datasets, monitor)
        bank = states[0].local_bank
        for s in states:
            banks_identical &= bool(np.array_equal(s.local_bank.data, bank.data))
        # each client's upload and download, not their mean
        exact_transfers &= metrics.uploads == metrics.downloads == [expected] * cfg_fed.n_clients

    bank_bytes = bank_nbytes(bank)
    param_bytes = params_nbytes(states[0].params)
    smaller = bank_bytes < param_bytes

    ok = banks_identical and exact_transfers and smaller
    _report(5, f"protocol invariants (bank {bank_bytes}B < params {param_bytes}B, "
               f"transfers exact {exact_transfers})", ok)
    assert banks_identical, "all clients must hold the identical bank each round"
    assert exact_transfers, "every client's upload and download must be the serialized bank"
    assert smaller, "bank exchange must be cheaper than parameter exchange"


# ---------------------------------------------------------------------------
# 6. Convergence behavior on the seeded desk run
# ---------------------------------------------------------------------------


def test_criterion_6_convergence_behavior(desk_runs):
    result = desk_runs.fed_result
    per_round_losses = [m.client_losses for m in result.metrics if m.round_index >= 1]
    mean_losses = [float(np.mean(ls)) for ls in per_round_losses]
    grads = [float(np.mean(m.client_grad_sq_norms)) for m in result.metrics
             if m.round_index >= 1]

    r_hat = result.monitor.r_hat_m
    bound_ok = all(l <= 2.0 * r_hat + 1e-9 for ls in per_round_losses for l in ls) \
        and result.monitor.bound_violations == 0
    loss_trend_ok = np.mean(mean_losses[-10:]) < np.mean(mean_losses[:10])
    q = len(grads) // 4
    grad_trend_ok = np.mean(grads[-q:]) < np.mean(grads[:q])
    runtime_ok = desk_runs.fed_seconds < 600

    ok = bound_ok and loss_trend_ok and grad_trend_ok and runtime_ok
    _report(6, f"convergence behavior (loss {np.mean(mean_losses[:10]):.4f}->"
               f"{np.mean(mean_losses[-10:]):.4f}, grad {np.mean(grads[:q]):.4f}->"
               f"{np.mean(grads[-q:]):.4f}, {desk_runs.fed_seconds:.0f}s)", ok)
    assert bound_ok, "every recorded loss must satisfy the 2*R_hat bound"
    assert loss_trend_ok
    assert grad_trend_ok
    assert runtime_ok, "desk run must finish within 10 minutes"


# ---------------------------------------------------------------------------
# 7. Detection efficacy vs the local-only baseline
# ---------------------------------------------------------------------------


def test_criterion_7_detection_efficacy(desk_runs):
    fed = desk_runs.fed_metrics.i_auroc
    local = desk_runs.local_metrics.i_auroc
    init = desk_runs.fed_init_metrics.i_auroc
    margin_ok = fed - local >= FED_OVER_LOCAL_MARGIN
    level_ok = fed > FED_I_AUROC_MIN
    trained_ok = fed >= init

    ok = margin_ok and level_ok and trained_ok
    _report(7, f"detection efficacy (fed {fed:.4f}, local {local:.4f}, init {init:.4f})", ok)
    assert margin_ok, f"fed {fed:.4f} must beat local {local:.4f} by >= {FED_OVER_LOCAL_MARGIN}"
    assert level_ok, f"fed {fed:.4f} must exceed {FED_I_AUROC_MIN} at the calibrated level"
    assert trained_ok, "training must not reduce I-AUROC below the untrained init"


# ---------------------------------------------------------------------------
# 8. Privacy audit
# ---------------------------------------------------------------------------


def test_criterion_8_privacy_audit():
    t0 = time.perf_counter()
    report = audit_reduction(AuditConfig(mc_samples=100_000,
                                         dataset_sizes=(10, 100, 1000),
                                         lemma_configs=100,
                                         lemma_mc_samples=10_000,
                                         seed=0))
    elapsed = time.perf_counter() - t0

    bounds_ok = report.lemma_violations == 0 and all(p.bound_holds for p in report.sweep)
    ratios = [p.mi_ratio for p in report.sweep]
    decreasing_ok = all(b < a for a, b in zip(ratios, ratios[1:]))
    dpi_ok = all(p.mi_reduced < p.mi_direct for p in report.sweep)
    runtime_ok = elapsed < 180

    ok = bounds_ok and decreasing_ok and dpi_ok and runtime_ok and report.status == "ok"
    _report(8, f"privacy audit (ratios {['%.4f' % r for r in ratios]}, {elapsed:.0f}s)", ok)
    assert bounds_ok, "lemma bound must hold within 3 sigma everywhere"
    assert decreasing_ok, "MI ratio must strictly decrease across the |D| sweep"
    assert dpi_ok, "reduced memory must carry less information at every sweep point"
    assert runtime_ok


# ---------------------------------------------------------------------------
# 9. Metric correctness
# ---------------------------------------------------------------------------


def test_criterion_9_metric_correctness():
    auroc_exact = True
    for seed in range(1000):
        r = Rng(seed)
        n = int(r.child(1).integers(4, 16))
        scores = np.round(r.child(2).normal((n,)).astype(np.float64), 1)
        labels = (r.child(3).uniform(0, 1, (n,)) > 0.5).astype(int)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = sum(1.0 for p in pos for q in neg if p > q)
        ties = sum(1.0 for p in pos for q in neg if p == q)
        expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
        if auroc(scores, labels) != expected:
            auroc_exact = False
            break

    # two-region toy case against an exhaustive threshold sweep
    heat = np.zeros((4, 6))
    mask = np.zeros((4, 6), dtype=np.uint8)
    mask[0, 0:2] = 1
    mask[3, 4:6] = 1
    heat[0, 0:2] = 0.9
    heat[3, 4] = 0.5
    heat[2, 0] = 0.5
    budget = 0.3
    expected_pro = (0.05 * 0.5 + (budget - 0.05) * 0.75) / budget
    pro_err = abs(pro([heat], label_regions([mask]), fpr_budget=budget) - expected_pro)

    perfect_err = abs(pro([mask.astype(np.float64)], label_regions([mask])) - 1.0)
    zero_err = abs(pro([np.zeros_like(heat)], label_regions([mask])) - 0.0)

    ok = auroc_exact and pro_err <= 1e-6 and perfect_err <= 1e-6 and zero_err <= 1e-6
    _report(9, f"metric correctness (auroc exact {auroc_exact}, pro err {pro_err:.1e})", ok)
    assert auroc_exact, "auroc must match brute-force pair counting exactly"
    assert pro_err <= 1e-6
    assert perfect_err <= 1e-6 and zero_err <= 1e-6


# ---------------------------------------------------------------------------
# 10. CLI determinism across thread counts
# ---------------------------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    from feddymem.cli import main

    doc = {
        "seed": 13,
        "federation": {"n_clients": 3, "rounds": 3, "checkpoint_interval": 3},
        "loss": {"batch_size": 4},
        "memory": {"channels": 6, "grid_height": 4, "grid_width": 4},
        "extractor": {"levels": 2, "base_height": 8, "base_width": 8,
                      "level_channels": [6, 12]},
        "dataset": {"n_types": 2, "samples_per_type": 6, "test_normals_per_type": 2,
                    "test_anomalies_per_type": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))

    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"run_t{threads}"
        code = main(["train", "--config", str(cfg_path), "--out", str(out),
                     "--threads", threads])
        assert code == 0
        outs.append(out)

    metrics_same = (outs[0] / "metrics.jsonl").read_bytes() == \
        (outs[1] / "metrics.jsonl").read_bytes()
    ledger_same = (outs[0] / "ledger.csv").read_bytes() == \
        (outs[1] / "ledger.csv").read_bytes()

    ok = metrics_same and ledger_same
    _report(10, "determinism across --threads", ok)
    assert metrics_same, "metrics files must be byte-identical"
    assert ledger_same
