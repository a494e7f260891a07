"""The outside-in trace records every layer it names, at every import site.

Each workload runs briefly (two rounds, a few samples) untraced and traced;
every span must fire with the count the protocol implies, and tracing must
not change the final bank. A function that no longer exists is reported as
absent, never as zero.

    python3 -m pytest perfbench/test_spans.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import rep  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from feddymem import orchestrator  # noqa: E402
from feddymem.config import load_federated_data, load_run_config  # noqa: E402

ROUNDS = 2


def brief(name: str, seed: int = 5) -> dict:
    doc = WORKLOADS[name](seed)
    doc["federation"]["rounds"] = ROUNDS
    doc["dataset"].update(samples_per_type=4, test_normals_per_type=1,
                          test_anomalies_per_type=1)
    if "extractor" in doc:
        doc["extractor"].update(base_height=8, base_width=8)
    return doc


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_span_fires_with_expected_count(name, tmp_path):
    doc = brief(name)
    cfg = load_run_config(doc)
    client_train, test = load_federated_data(cfg)
    fed = cfg.federation
    n_train = sum(len(samples) for samples in client_train)
    h, w, _ = fed.bank_shape
    steps = n_train * fed.loss.local_epochs * ROUNDS

    plain = rep.run_rep(doc, tmp_path / "plain")
    recorder = spans.Recorder()
    original = orchestrator.client_update
    with spans.install(recorder) as absent:
        assert orchestrator.client_update is not original
        traced = rep.run_rep(doc, tmp_path / "traced")
    assert orchestrator.client_update is original
    assert absent == set()
    for result in (plain, traced):
        assert result["train_failures"] == [] and result["eval_failures"] == []
    assert traced["bank_sha256"] == plain["bank_sha256"]

    metrics, missing = spans.layer_metrics([recorder.spans], absent)
    assert missing == []
    value = {k: v["value"] for k, v in metrics.items()}
    expected = {
        "orchestrator.round_count": ROUNDS + 1,
        "server.aggregate_calls": ROUNDS + 1,
        "server.pooled_points": (ROUNDS + 1) * fed.n_clients * h * w,
        "client.update_calls": fed.n_clients * ROUNDS,
        "client.samples_trained": steps,
        "client.knn_calls": steps,
        "client.knn_pairs": steps * (h * w) ** 2,
        "features.extract_calls": n_train + len(test),
        "evaluation.score_calls": fed.n_clients * len(test),
    }
    assert {k: value[k] for k in expected} == expected
    assert value["numerics.pairwise_dist_calls"] > steps + fed.n_clients * len(test)
    assert value["server.lloyd_iterations"] >= ROUNDS + 1
    for key, metric in metrics.items():
        assert metric["value"] > 0, key


def test_missing_function_is_absent_not_zero(tmp_path):
    targets = spans.TARGETS + [("orchestrator", "no_such_function", None, None)]
    recorder = spans.Recorder()
    with spans.install(recorder, targets) as absent:
        rep.run_rep(brief("desk"), tmp_path)
    assert absent == {"no_such_function"}

    metrics, missing = spans.layer_metrics([recorder.spans], {"run_round"})
    for name in ("orchestrator.round_s.p50", "orchestrator.round_s.p90",
                 "orchestrator.round_count", "orchestrator.round_self_s"):
        assert name in missing and name not in metrics
    assert metrics["client.update_calls"]["value"] > 0

    for span in recorder.spans:
        if span.name == "knn_lookup":
            span.work = None  # knn_lookup called with a shape the trace cannot read
    metrics, missing = spans.layer_metrics([recorder.spans], set())
    assert "client.knn_pairs" in missing and "client.knn_pairs" not in metrics


def test_self_time_excludes_children():
    s = [spans.Span("a", 0.0, 10.0, -1), spans.Span("b", 1.0, 3.0, 0),
         spans.Span("c", 2.0, 4.0, 0), spans.Span("d", 5.0, 6.0, 0)]
    assert spans._self_seconds(s) == [6.0, 2.0, 2.0, 1.0]
