"""Benchmark workloads: each is a run-config document made from a seed.

The program receives only these generated documents; every sample, split
and initial weight is derived from the seed inside the document.
"""

from __future__ import annotations

DEFAULT_SEED = 63  # the frozen desk seed of the acceptance suite

# The desk config of tests/test_acceptance.py (DESK_CONFIG), copied so the
# benchmark does not import the test suite. Only the round count differs.
_DESK_DATASET = {
    "n_types": 3,
    "samples_per_type": 60,
    "test_normals_per_type": 12,
    "test_anomalies_per_type": 12,
    "anomaly_magnitude": 2.5,
    "anomaly_extent": 7,
    "noise_scale": 0.08,
    "type_spread": 1.0,
}


def desk(seed: int) -> dict:
    """Client layer bound: 5 clients x 36 samples of kNN metric-loss steps."""
    return {
        "seed": seed,
        "federation": {"n_clients": 5, "rounds": 2, "checkpoint_interval": 60},
        "dataset": dict(_DESK_DATASET),
    }


def wide_bank(seed: int) -> dict:
    """Server layer bound: k-means over 10 x 20x20 pooled patches of C=32,
    with few samples per client so client training stays small."""
    return {
        "seed": seed,
        "federation": {"n_clients": 10, "rounds": 1, "checkpoint_interval": 60},
        "memory": {"channels": 32},
        "extractor": {"base_height": 20, "base_width": 20},
        "dataset": {
            "n_types": 5,
            "samples_per_type": 8,
            # 30 test samples: with 10, image AUROC moves by 1/25 per pair
            # and its spread over seeds exceeds the benchmark's bound
            "test_normals_per_type": 3,
            "test_anomalies_per_type": 3,
            "dirichlet_alpha": 1.0,
        },
    }


def eval_heavy(seed: int) -> dict:
    """Scoring bound: the desk model with a test set 5/3 the size of desk's
    per type, scored by every client, after a single training round."""
    doc = desk(seed)
    doc["federation"]["rounds"] = 1
    doc["dataset"]["test_normals_per_type"] = 20
    doc["dataset"]["test_anomalies_per_type"] = 20
    return doc


WORKLOADS = {"desk": desk, "wide-bank": wide_bank, "eval-heavy": eval_heavy}
