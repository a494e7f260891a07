import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from feddymem import config, evaluation, pipeline, tensorio
from feddymem.cli import main
from feddymem.config import load_federated_data, load_run_config, load_test_set, load_train_sets
from feddymem.client import LossConfig, forward_memory
from feddymem.errors import ConfigError
from feddymem.evaluation import SynthSpec
from feddymem.features import ExtractorSpec
from feddymem.orchestrator import FederationConfig
from feddymem.pipeline import write_synth_dataset
from feddymem.privacy import AuditConfig
from feddymem.server import AggregationConfig


def desk_doc(seed=3, rounds=2, baseline="feddymem"):
    return {
        "seed": seed,
        "federation": {"n_clients": 2, "rounds": rounds, "baseline": baseline,
                       "checkpoint_interval": 1},
        "loss": {"batch_size": 4},
        "memory": {"channels": 6, "grid_height": 4, "grid_width": 4},
        "extractor": {"levels": 2, "base_height": 8, "base_width": 8,
                      "level_channels": [6, 12]},
        "dataset": {"n_types": 2, "samples_per_type": 5, "test_normals_per_type": 3,
                    "test_anomalies_per_type": 3},
    }


def manifest_doc(root):
    """desk_doc() reading the dataset `synth` wrote under root."""
    doc = desk_doc()
    doc["dataset"] = {
        "kind": "manifest",
        "train_manifests": [str(root / "train_client0.json"),
                            str(root / "train_client1.json")],
        "test_manifest": str(root / "test.json"),
    }
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# The keys the loader accepted when they were listed by hand, kept as the
# reference that the dataclass fields must reproduce.
SECTION_KEYS = {
    "": {"seed", "federation", "loss", "memory", "extractor", "aggregation",
         "dataset", "audit"},
    "federation": {"n_clients", "rounds", "baseline", "checkpoint_interval"},
    "loss": {"hinge_margin", "knn_k", "batch_size", "learning_rate",
             "local_epochs", "weight_decay", "beta1", "beta2", "adam_eps",
             "activation"},
    "memory": {"channels", "grid_height", "grid_width", "phi_hidden"},
    "extractor": {"kind", "seed", "levels", "base_height", "base_width",
                  "level_channels", "manifest_path"},
    "aggregation": {"max_iterations", "tolerance", "n_init"},
    "dataset": {"kind", "n_types", "samples_per_type", "test_normals_per_type",
                "test_anomalies_per_type", "anomaly_magnitude", "anomaly_extent",
                "noise_scale", "dirichlet_alpha", "prototype_cells",
                "noise_cells", "type_spread", "train_manifests", "test_manifest"},
    "audit": {"mc_samples", "dataset_sizes", "rho", "lemma_configs", "lemma_mc_samples",
              "seed"},
}

# Every key of SECTION_KEYS at a legal value other than its default; the
# dataset section is the synthetic kind, MANIFEST_DATASET the other.
EVERY_KEY = {
    "seed": 7,
    "federation": {"n_clients": 4, "rounds": 9, "baseline": "plain_average",
                   "checkpoint_interval": 3},
    "loss": {"hinge_margin": 0.2, "knn_k": 5, "batch_size": 7, "learning_rate": 0.01,
             "local_epochs": 2, "weight_decay": 0.001, "beta1": 0.8, "beta2": 0.99,
             "adam_eps": 1e-7, "activation": "tanh"},
    "memory": {"channels": 12, "grid_height": 6, "grid_width": 5, "phi_hidden": 9},
    "extractor": {"kind": "file", "seed": 4, "levels": 2, "base_height": 12,
                  "base_width": 20, "level_channels": [3, 5], "manifest_path": "p.json"},
    "aggregation": {"max_iterations": 50, "tolerance": 1e-4, "n_init": 3},
    "dataset": {"kind": "synthetic", "n_types": 4, "samples_per_type": 9,
                "test_normals_per_type": 2, "test_anomalies_per_type": 3,
                "anomaly_magnitude": 2.0, "anomaly_extent": 3, "noise_scale": 0.2,
                "dirichlet_alpha": 0.5, "prototype_cells": 3, "noise_cells": 5,
                "type_spread": 0.5},
    "audit": {"mc_samples": 20000, "dataset_sizes": [3, 30], "rho": 0.5, "lemma_configs": 7,
              "lemma_mc_samples": 20000, "seed": 8},
}
MANIFEST_DATASET = {"kind": "manifest", "train_manifests": ["a", "b", "c", "d"],
                    "test_manifest": "t"}

# Where each section's keys land, and the keys stored under another name:
# (field, None) or element i of a (height, width) field.
TARGETS = {
    "federation": lambda c: c.federation, "loss": lambda c: c.federation.loss,
    "memory": lambda c: c.federation, "extractor": lambda c: c.federation.extractor,
    "aggregation": lambda c: c.federation.aggregation_config(0), "dataset": lambda c: c.synth,
    "audit": lambda c: c.audit,
}
RENAMED = {
    "memory.channels": ("memory_channels", None), "memory.grid_height": ("grid_hw", 0),
    "memory.grid_width": ("grid_hw", 1), "extractor.base_height": ("base_hw", 0),
    "extractor.base_width": ("base_hw", 1),
}


class TestConfig:
    def test_defaults_load(self):
        cfg = load_run_config({})
        assert cfg.federation.rounds == 200
        assert cfg.federation.loss.hinge_margin == 0.01
        assert cfg.federation.loss.knn_k == 3
        assert cfg.federation.loss.batch_size == 10
        assert cfg.federation.loss.learning_rate == 1e-3
        assert cfg.federation.loss.local_epochs == 1
        assert cfg.federation.n_clients == 5
        assert cfg.federation.grid_hw == (8, 8)
        assert cfg.synth.dirichlet_alpha == 0.1
        # field by field the dataclass defaults, with the extractor and
        # audit seeds following the run seed
        for seed in (0, 5):
            cfg = load_run_config({"seed": seed})
            assert cfg.federation == FederationConfig(seed=seed,
                                                      extractor=ExtractorSpec(seed=seed))
            assert cfg.federation.aggregation == AggregationConfig()
            assert cfg.federation.loss == LossConfig()
            assert cfg.synth == SynthSpec(seed=seed)
            assert cfg.audit == AuditConfig(seed=seed)
            assert cfg.train_manifests is None and cfg.test_manifest is None

    def test_schema_is_the_documented_key_set(self):
        assert {"seed", "dataset", *config._SECTIONS} == SECTION_KEYS[""]
        for section, (_, keys) in config._SECTIONS.items():
            assert set(keys) == SECTION_KEYS[section], section
        dataset = {"kind"}.union(*(keys for _, keys in config._DATASETS.values()))
        assert dataset == SECTION_KEYS["dataset"]

    def test_every_key_lands_in_its_field(self):
        cfg = load_run_config(EVERY_KEY)
        assert cfg.federation.seed == 7
        for section, keys in SECTION_KEYS.items():
            if not section:
                continue
            target = TARGETS[section](cfg)
            for key in sorted(keys - set(MANIFEST_DATASET) if section == "dataset" else keys):
                want = EVERY_KEY[section][key]
                field, i = RENAMED.get(f"{section}.{key}", (key, None))
                got = getattr(target, field)
                default = getattr(type(target)(), field)
                if i is not None:
                    got, default = got[i], default[i]
                want = tuple(want) if isinstance(want, list) else want
                assert got == want and type(got) is type(want), (section, key)
                assert got != default, (section, key)

        cfg = load_run_config({**EVERY_KEY, "dataset": MANIFEST_DATASET})
        assert cfg.synth is None
        assert cfg.train_manifests == MANIFEST_DATASET["train_manifests"]
        assert cfg.test_manifest == MANIFEST_DATASET["test_manifest"]

    def test_integral_numbers_load_as_ints(self):
        cfg = load_run_config({"federation": {"rounds": 60.0}, "audit": {"mc_samples": 1e5},
                               "loss": {"learning_rate": 1}})
        assert cfg.federation.rounds == 60 and type(cfg.federation.rounds) is int
        assert cfg.audit.mc_samples == 100_000 and type(cfg.audit.mc_samples) is int
        assert cfg.federation.loss.learning_rate == 1.0
        assert type(cfg.federation.loss.learning_rate) is float

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            load_run_config({"federation": {"n_clientz": 3}})
        assert err.value.key == "federation.n_clientz"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            load_run_config({"fedaration": {}})
        assert err.value.key == "fedaration"

    def test_seed_override(self):
        cfg = load_run_config({"seed": 5}, seed_override=9)
        assert cfg.federation.seed == 9

    def test_baseline_override(self):
        cfg = load_run_config({}, baseline_override="local_only")
        assert cfg.federation.baseline == "local_only"

    def test_manifest_dataset_requires_per_client(self):
        with pytest.raises(ConfigError) as err:
            load_run_config({"dataset": {"kind": "manifest", "train_manifests": ["a"],
                                         "test_manifest": "t"}})
        assert err.value.key == "dataset.train_manifests"


class TestCliSynthAndManifest:
    def test_synth_then_manifest_train(self, tmp_path):
        cfg_path = write_config(tmp_path, desk_doc())
        out = tmp_path / "out"
        assert main(["synth", "--config", cfg_path, "--out", str(out)]) == 0
        root = out / "dataset"
        manifest = json.loads((root / "test.json").read_text())
        assert all(set(e) <= {"sample_id", "path", "label", "mask_path"} for e in manifest)
        anomalous = [e for e in manifest if e["label"] == 1]
        assert anomalous and all("mask_path" in e for e in anomalous)

        # reload through the manifest dataset kind and compare tensors
        cfg = load_run_config(manifest_doc(root))
        client_samples, test_samples = load_federated_data(cfg)
        synth_cfg = load_run_config(desk_doc())
        orig_clients, orig_test = load_federated_data(synth_cfg)
        for got, want in zip(client_samples, orig_clients):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a.features, b.features)
        for a, b in zip(test_samples, orig_test):
            assert np.array_equal(a.features, b.features)
            if b.mask is not None:
                assert np.array_equal(a.mask > 0, b.mask > 0)

    def test_test_set_alone_equals_federated_data(self, tmp_path, monkeypatch):
        synth_cfg = load_run_config(desk_doc())
        root = write_synth_dataset(synth_cfg, tmp_path)
        for cfg in (synth_cfg, load_run_config(manifest_doc(root))):
            want = load_federated_data(cfg)[1]
            with monkeypatch.context() as m:
                # neither kind builds or reads a training sample
                m.setattr(config, "synth_dataset", None)
                m.setattr(cfg, "train_manifests", None)
                got = load_test_set(cfg)
            assert [(s.sample_id, s.label) for s in got] == [(s.sample_id, s.label) for s in want]
            for a, b in zip(got, want):
                assert a.features.dtype == b.features.dtype
                assert a.features.tobytes() == b.features.tobytes()
                assert (a.mask is None) == (b.mask is None)
                assert a.mask is None or a.mask.tobytes() == b.mask.tobytes()


    def test_train_sets_alone_equal_federated_data(self, tmp_path, monkeypatch):
        synth_cfg = load_run_config(desk_doc())
        root = write_synth_dataset(synth_cfg, tmp_path)
        for cfg in (synth_cfg, load_run_config(manifest_doc(root))):
            want = load_federated_data(cfg)[0]
            with monkeypatch.context() as m:
                # neither kind builds or reads a test sample
                m.setattr(config, "synth_dataset", None)
                m.setattr(evaluation, "_test_set", None)
                m.setattr(cfg, "test_manifest", None)
                got = load_train_sets(cfg)
            assert [[s.sample_id for s in c] for c in got] == \
                [[s.sample_id for s in c] for c in want]
            for a, b in zip(sum(got, []), sum(want, [])):
                assert (a.label, a.mask) == (b.label, b.mask) == (0, None)
                assert a.features.dtype == b.features.dtype
                assert a.features.tobytes() == b.features.tobytes()

    def test_training_builds_no_test_sample(self, tmp_path, monkeypatch):
        cfg = load_run_config(desk_doc(rounds=1))
        monkeypatch.setattr(config, "synth_dataset", None)
        monkeypatch.setattr(evaluation, "_test_set", None)
        pipeline.train_run(replace(cfg, federation=replace(cfg.federation, rounds=0)), tmp_path)
        assert (tmp_path / "metrics.jsonl").read_text().count("\n") == 1


class TestDeskExperimentScript:
    def test_config_json_records_the_documents_trained(self, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_desk_experiment.py"
        out = tmp_path / "desk"
        subprocess.run([sys.executable, str(script), "--out", str(out), "--rounds", "1",
                        "--seed", "5"], check=True, capture_output=True)
        experiment = json.loads((out / "config.json").read_text())
        assert (experiment["seed"], experiment["federation"]["rounds"]) == (5, 1)
        assert "baseline" not in experiment["federation"]
        for baseline in ("feddymem", "plain_average", "local_only"):
            run = out / baseline
            doc = json.loads((run / "config.json").read_text())
            assert doc["federation"] == dict(experiment["federation"], baseline=baseline)
            assert {k: v for k, v in doc.items() if k != "federation"} == \
                {k: v for k, v in experiment.items() if k != "federation"}
            assert (run / "metrics.jsonl").read_text().count("\n") == 2
            # resuming from the recorded document trains nothing more
            before = (run / "metrics.jsonl").read_bytes()
            assert main(["train", "--config", str(run / "config.json"), "--out", str(run),
                         "--resume"]) == 0
            assert (run / "metrics.jsonl").read_bytes() == before


class TestCliTrainEval:
    def test_train_t0_init_only(self, tmp_path):
        doc = desk_doc(rounds=0)
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["round"] == 0

    def test_full_flow_and_determinism_across_threads(self, tmp_path):
        cfg_path = write_config(tmp_path, desk_doc())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg_path, "--out", str(out_a),
                     "--threads", "1"]) == 0
        assert main(["train", "--config", cfg_path, "--out", str(out_b),
                     "--threads", "3"]) == 0
        assert (out_a / "metrics.jsonl").read_bytes() == (out_b / "metrics.jsonl").read_bytes()
        assert (out_a / "ledger.csv").read_bytes() == (out_b / "ledger.csv").read_bytes()

        assert main(["eval", "--config", cfg_path, "--out", str(out_a)]) == 0
        rows = (out_a / "results.csv").read_text().splitlines()
        assert rows[0] == "run_id,baseline,i_auroc,p_auroc,pro"
        assert len(rows) == 2

    def test_eval_at_specific_round(self, tmp_path):
        # trained-vs-init AUROC ordering is asserted at desk scale in the
        # acceptance suite; here we only exercise the checkpoint selector
        doc = desk_doc(rounds=4)
        doc["dataset"]["samples_per_type"] = 8
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        from feddymem.pipeline import eval_run
        cfg = load_run_config(cfg_path)
        trained = eval_run(cfg, out)
        init = eval_run(cfg, out, round_index=0)
        for m in (trained, init):
            assert 0.0 <= m.i_auroc <= 1.0
            assert 0.0 <= m.pro <= 1.0
        run_ids = (out / "results.csv").read_text()
        assert "round0" in run_ids  # last eval wrote the init row

    def test_eval_exports_heatmaps(self, tmp_path):
        cfg_path = write_config(tmp_path, desk_doc())
        out = tmp_path / "out"
        main(["train", "--config", cfg_path, "--out", str(out)])
        assert main(["eval", "--config", cfg_path, "--out", str(out),
                     "--export-heatmaps"]) == 0
        heatmaps = list((out / "heatmaps").glob("*.fdm1"))
        assert heatmaps
        hm = tensorio.read_tensor(heatmaps[0])
        assert hm.shape == (8, 8)

    def test_heatmaps_reuse_the_evaluation_scoring(self, tmp_path, monkeypatch):
        from feddymem import pipeline
        from feddymem.orchestrator import build_client_dataset, latest_checkpoint, load_checkpoint
        cfg_path = write_config(tmp_path, desk_doc())
        out = tmp_path / "out"
        assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
        scored = []
        score = pipeline.anomaly_map
        monkeypatch.setattr(pipeline, "anomaly_map", lambda *args: scored.append(1) or score(*args))
        assert main(["eval", "--config", cfg_path, "--out", str(out), "--export-heatmaps"]) == 0
        cfg = load_run_config(cfg_path)
        _, test = load_federated_data(cfg)
        assert len(scored) == cfg.federation.n_clients * len(test)

        # the files a second, separate scoring of client 0 writes
        _, states, _ = load_checkpoint(latest_checkpoint(out), cfg.federation)
        bank = states[0].local_bank
        fused = build_client_dataset(test, cfg.federation.extractor)
        memories = forward_memory(states[0].params, fused, cfg.federation.loss.activation)
        want = {f"{s.sample_id}.fdm1": score(m, bank).pixel_scores
                for s, m in zip(test, memories)}
        written = sorted((out / "heatmaps").iterdir())
        assert [path.name for path in written] == sorted(want)
        for path in written:
            ref = tmp_path / "ref.fdm1"
            scores = want[path.name]
            tensorio.write_tensor(ref, pipeline.postprocess_heatmap(scores, scores.shape))
            assert path.read_bytes() == ref.read_bytes()

    def test_resume_flag(self, tmp_path):
        doc = desk_doc(rounds=2)
        cfg_path2 = write_config(tmp_path, doc, "cfg2.json")
        doc4 = desk_doc(rounds=4)
        cfg_path4 = write_config(tmp_path, doc4, "cfg4.json")
        out_full, out_res = tmp_path / "full", tmp_path / "res"
        assert main(["train", "--config", cfg_path4, "--out", str(out_full)]) == 0
        assert main(["train", "--config", cfg_path2, "--out", str(out_res)]) == 0
        assert main(["train", "--config", cfg_path4, "--out", str(out_res),
                     "--resume"]) == 0
        assert (out_full / "metrics.jsonl").read_bytes() == \
            (out_res / "metrics.jsonl").read_bytes()


class TestCliAuditBench:
    def test_audit_writes_report(self, tmp_path):
        doc = {"audit": {"mc_samples": 10000, "dataset_sizes": [5, 50],
                         "lemma_configs": 5, "lemma_mc_samples": 10000}}
        cfg_path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["audit", "--config", cfg_path, "--out", str(out)]) == 0
        report = json.loads((out / "audit.json").read_text())
        assert report["status"] == "ok"

    def test_bench_comm_table(self, tmp_path):
        cfg_path = write_config(tmp_path, desk_doc())
        out = tmp_path / "out"
        assert main(["bench-comm", "--config", cfg_path, "--out", str(out)]) == 0
        lines = (out / "comm.csv").read_text().splitlines()
        assert lines[0] == "bank_bytes_per_client,param_bytes_per_client"
        assert len(lines) == 2
        bank_b, param_b = lines[1].split(",")
        assert int(bank_b) < int(param_b)


class TestCliErrors:
    def test_unknown_key_exit_2_with_json(self, tmp_path, capsys):
        # common_init and score_mode are removed options; a config that
        # still sets one must fail
        for key in ("n_clientz", "common_init", "score_mode"):
            cfg_path = write_config(tmp_path, {"federation": {key: 1}})
            code = main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")])
            assert code == 2
            err = json.loads(capsys.readouterr().out)
            assert err["error"]["type"] == "config"
            assert err["error"]["key"] == f"federation.{key}"

    @pytest.mark.parametrize("doc, key", [
        ({"federation": {"rounds": "ten"}}, "federation.rounds"),
        ({"federation": {"rounds": [3]}}, "federation.rounds"),
        ({"memory": {"channels": "x"}}, "memory.channels"),
        ({"aggregation": {"n_init": "two"}}, "aggregation.n_init"),
        ({"extractor": {"level_channels": 5}}, "extractor.level_channels"),
        ({"federation": {"rounds": 2.7}}, "federation.rounds"),
        ({"loss": {"knn_k": "x"}}, "loss.knn_k"),
        ({"dataset": {"n_types": "x"}}, "dataset.n_types"),
        ({"loss": {"batch_size": "4"}}, "loss.batch_size"),
        ({"federation": {"n_clients": True}}, "federation.n_clients"),
        ({"loss": {"learning_rate": False}}, "loss.learning_rate"),
        ({"dataset": {"test_manifest": "t.json"}}, "dataset.test_manifest"),
        ({"dataset": {"kind": "manifest", "n_types": 3}}, "dataset.n_types"),
        # values that load but would fail part way through a run
        ({"memory": {"grid_height": 1}}, "memory.grid_height"),
        ({"memory": {"grid_width": 0}}, "memory.grid_width"),
        ({"memory": {"phi_hidden": 0}}, "memory.phi_hidden"),
        ({"extractor": {"base_height": 4, "base_width": 4}, "loss": {"knn_k": 17}},
         "loss.knn_k"),
        ({"dataset": {"samples_per_type": 0}}, "dataset.samples_per_type"),
        ({"dataset": {"test_normals_per_type": 0}}, "dataset.test_normals_per_type"),
        ({"dataset": {"test_anomalies_per_type": 0}}, "dataset.test_anomalies_per_type"),
        ({"dataset": {"prototype_cells": 0}}, "dataset.prototype_cells"),
        ({"dataset": {"noise_cells": 0}}, "dataset.noise_cells"),
        ({"federation": {"n_clients": 5}, "dataset": {"n_types": 1, "samples_per_type": 2}},
         "dataset.samples_per_type"),
        ({"loss": {"beta1": 1.0}}, "loss.beta1"),
        ({"loss": {"beta2": 1.5}}, "loss.beta2"),
        ({"federation": {"checkpoint_interval": -1}}, "federation.checkpoint_interval"),
        # range checks of the section dataclasses name their own key
        ({"loss": {"batch_size": 0}}, "loss.batch_size"),
        ({"loss": {"hinge_margin": -1}}, "loss.hinge_margin"),
        ({"aggregation": {"n_init": 0}}, "aggregation.n_init"),
        ({"aggregation": {"tolerance": 0}}, "aggregation.tolerance"),
        ({"extractor": {"levels": 0}}, "extractor.levels"),
        ({"dataset": {"n_types": 0}}, "dataset.n_types"),
        ({"dataset": {"dirichlet_alpha": 0}}, "dataset.dirichlet_alpha"),
        ({"audit": {"lemma_mc_samples": 10}}, "audit.lemma_mc_samples"),
        ({"audit": {"rho": 1.5}}, "audit.rho"),
        ({"audit": {"dataset_sizes": []}}, "audit.dataset_sizes"),
        ({"audit": {"lemma_configs": -3}}, "audit.lemma_configs"),
        ({"audit": {"lemma_configs": 0}}, "audit.lemma_configs"),
    ])
    def test_malformed_value_exit_2_names_key(self, tmp_path, capsys, doc, key):
        out = tmp_path / "o"
        code = main(["bench-comm", "--config", write_config(tmp_path, doc), "--out", str(out)])
        err = json.loads(capsys.readouterr().out)["error"]
        assert code == 2 and err["type"] == "config"
        assert err["key"] == key
        assert not out.exists()

    def test_unknown_activation_exit_2_before_any_run_file(self, tmp_path, capsys):
        doc = desk_doc(rounds=1)
        doc["loss"]["activation"] = "sigmoid"
        out = tmp_path / "o"
        code = main(["train", "--config", write_config(tmp_path, doc), "--out", str(out)])
        err = json.loads(capsys.readouterr().out)["error"]
        assert code == 2 and err["type"] == "config"
        assert err["key"] == "loss.activation"
        assert not out.exists()

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "config"

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_non_finite_bank_exit_4(self, tmp_path, capsys, monkeypatch):
        # one client's extraction yields an inf memory, so its reduced
        # round-0 bank is non-finite: a numeric failure, not an internal one
        from feddymem import orchestrator
        extract = orchestrator.extract_all_memories

        def overflowing(state, dataset, activation="relu"):
            memories = extract(state, dataset, activation)
            memories[0] = np.full_like(memories[0], np.inf)
            return memories

        monkeypatch.setattr(orchestrator, "extract_all_memories", overflowing)
        cfg_path = write_config(tmp_path, desk_doc(rounds=0))
        code = main(["init", "--config", cfg_path, "--out", str(tmp_path / "o")])
        err = json.loads(capsys.readouterr().out)["error"]
        assert code == 4
        assert err == {"type": "numeric", "message": "bank contains non-finite patches"}

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_diverging_training_exit_4(self, tmp_path, capsys):
        # a huge step drives the sample coordinates to NaN inside round 1
        doc = desk_doc(rounds=1)
        doc["loss"] = {"batch_size": 100, "learning_rate": 1e20}
        cfg_path = write_config(tmp_path, doc)
        code = main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")])
        err = json.loads(capsys.readouterr().out)["error"]
        assert code == 4
        assert err["type"] == "numeric"

    def _checkpointed_run(self, tmp_path, baseline="feddymem"):
        """A 3-client run of one round, checkpointed at rounds 0 and 1."""
        doc = desk_doc(rounds=1, baseline=baseline)
        doc["federation"]["n_clients"] = 3
        out = tmp_path / "out"
        assert main(["train", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        return doc, out

    def _rejected(self, tmp_path, capsys, command, doc, out):
        metrics = (out / "metrics.jsonl").read_bytes()
        code = main([*command, "--config", write_config(tmp_path, doc, "changed.json"),
                     "--out", str(out)])
        err = json.loads(capsys.readouterr().out)["error"]
        assert code == 2 and err["type"] == "config"
        assert (out / "metrics.jsonl").read_bytes() == metrics
        return err

    def test_resume_with_more_clients_than_checkpointed_exit_2(self, tmp_path, capsys):
        doc, out = self._checkpointed_run(tmp_path)
        doc["federation"].update(n_clients=5, rounds=2)
        err = self._rejected(tmp_path, capsys, ["train", "--resume"], doc, out)
        assert err["key"] == "federation.n_clients"

    def test_eval_with_fewer_clients_than_checkpointed_exit_2(self, tmp_path, capsys):
        doc, out = self._checkpointed_run(tmp_path)
        doc["federation"]["n_clients"] = 2
        err = self._rejected(tmp_path, capsys, ["eval"], doc, out)
        assert err["key"] == "federation.n_clients"
        assert not (out / "results.csv").exists()

    def test_resume_with_other_memory_channels_exit_2(self, tmp_path, capsys):
        # the first bank read names the file that holds it
        for baseline, holder in (("feddymem", "global_bank.fdm1"),
                                 ("local_only", "client_0.fdmc section 'bank'")):
            (tmp_path / baseline).mkdir()
            doc, out = self._checkpointed_run(tmp_path / baseline, baseline)
            doc["memory"]["channels"] = 8
            doc["federation"]["rounds"] = 2
            err = self._rejected(tmp_path / baseline, capsys, ["train", "--resume"], doc, out)
            assert f"checkpoint {holder} has shape" in err["message"]

    def test_resume_with_other_baseline_exit_2(self, tmp_path, capsys):
        doc, out = self._checkpointed_run(tmp_path)
        doc["federation"]["rounds"] = 2
        err = self._rejected(tmp_path, capsys, ["train", "--resume", "--baseline", "local_only"],
                             doc, out)
        assert err["key"] == "federation.baseline"

    def test_resume_with_other_seed_exit_2(self, tmp_path, capsys):
        doc, out = self._checkpointed_run(tmp_path)
        doc["federation"]["rounds"] = 2
        err = self._rejected(tmp_path, capsys, ["train", "--resume", "--seed", "9"], doc, out)
        assert err["key"] == "seed"

    def test_eval_with_other_seed_exit_2(self, tmp_path, capsys):
        doc, out = self._checkpointed_run(tmp_path)
        err = self._rejected(tmp_path, capsys, ["eval", "--seed", "9"], doc, out)
        assert err["key"] == "seed"
        assert not (out / "results.csv").exists()

    def test_resume_past_the_configured_rounds_exit_2(self, tmp_path, capsys):
        doc = desk_doc(rounds=3)
        out = tmp_path / "out"
        assert main(["train", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        assert {"metrics.jsonl", "ledger.csv", "timings.csv"} <= {p.name for p in before}
        doc["federation"]["rounds"] = 1
        code = main(["train", "--resume", "--config", write_config(tmp_path, doc, "short.json"),
                     "--out", str(out)])
        err = json.loads(capsys.readouterr().out)["error"]
        assert code == 2 and err["key"] == "federation.rounds"
        assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == before

    def test_resume_from_per_tensor_adam_steps_exit_2(self, tmp_path, capsys):
        # the manifest format that kept one Adam step count per tensor
        doc, out = self._checkpointed_run(tmp_path)
        path = out / "checkpoints/round_00001/manifest.json"
        manifest = json.loads(path.read_text())
        for entry in manifest["clients"]:
            step = entry.pop("adam_step")
            entry["adam_steps"] = {name: step for name in ("proj_w", "proj_b", "grid")}
        path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        doc["federation"]["rounds"] = 2
        err = self._rejected(tmp_path, capsys, ["train", "--resume"], doc, out)
        assert "adam_step" in err["message"]

    def _unreadable(self, tmp_path, capsys, command, corruption):
        """Exit code 3 and an I/O error naming the round-1 checkpoint file
        spoilt by `corruption` (client 0's container, or the manifest), and
        metrics.jsonl left as it was."""
        doc, out = self._checkpointed_run(tmp_path)
        path = out / "checkpoints/round_00001/client_0.fdmc"
        raw = path.read_bytes()
        if corruption == "manifest without monitor":
            path = path.with_name("manifest.json")
            manifest = json.loads(path.read_text())
            del manifest["monitor"]
            path.write_text(json.dumps(manifest))
        elif corruption == "truncated":
            path.write_bytes(raw[:len(raw) // 2])
        elif corruption == "bad magic":
            path.write_bytes(b"XXXX" + raw[4:])
        else:
            sections = tensorio.read_container(path)
            del sections["proj_b"]
            tensorio.write_container(path, sections)
        doc["federation"]["rounds"] = 2
        metrics = (out / "metrics.jsonl").read_bytes()
        code = main([*command, "--config", write_config(tmp_path, doc, "changed.json"),
                     "--out", str(out)])
        err = json.loads(capsys.readouterr().out)["error"]
        assert code == 3 and err["type"] == "io"
        assert str(path) in err["message"]
        assert (out / "metrics.jsonl").read_bytes() == metrics
        return err, out

    @pytest.mark.parametrize("corruption, detail", [
        ("truncated", "truncated tensor payload"),
        ("bad magic", "bad magic"),
        ("missing section", "no section 'proj_b'"),
        ("manifest without monitor", "no key 'monitor'"),
    ])
    def test_unreadable_checkpoint_eval_exit_3(self, tmp_path, capsys, corruption, detail):
        err, out = self._unreadable(tmp_path, capsys, ["eval"], corruption)
        assert detail in err["message"]
        if corruption == "truncated":
            assert "section '" in err["message"]
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("corruption, detail", [
        ("truncated", "truncated tensor payload"),
        ("missing section", "no section 'proj_b'"),
        ("manifest without monitor", "no key 'monitor'"),
    ])
    def test_unreadable_checkpoint_resume_exit_3(self, tmp_path, capsys, corruption, detail):
        err, _ = self._unreadable(tmp_path, capsys, ["train", "--resume"], corruption)
        assert detail in err["message"]

    def test_init_command(self, tmp_path):
        cfg_path = write_config(tmp_path, desk_doc(rounds=7))
        out = tmp_path / "out"
        assert main(["init", "--config", cfg_path, "--out", str(out)]) == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 1  # init only, regardless of configured rounds
