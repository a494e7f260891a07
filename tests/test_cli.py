import json

import numpy as np
import pytest

from feddymem import tensorio
from feddymem.cli import main
from feddymem.config import load_run_config, load_federated_data
from feddymem.errors import ConfigError


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


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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
        doc = desk_doc()
        doc["dataset"] = {
            "kind": "manifest",
            "train_manifests": [str(root / "train_client0.json"),
                                str(root / "train_client1.json")],
            "test_manifest": str(root / "test.json"),
        }
        cfg = load_run_config(doc)
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
        assert lines[0] == "round,bank_bytes_per_client,param_bytes_per_client"
        _, bank_b, param_b = lines[1].split(",")
        assert int(bank_b) < int(param_b)


class TestCliErrors:
    def test_unknown_key_exit_2_with_json(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"federation": {"n_clientz": 1}})
        code = main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "config"
        assert err["error"]["key"] == "federation.n_clientz"

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

    def test_init_command(self, tmp_path):
        cfg_path = write_config(tmp_path, desk_doc(rounds=7))
        out = tmp_path / "out"
        assert main(["init", "--config", cfg_path, "--out", str(out)]) == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 1  # init only, regardless of configured rounds
