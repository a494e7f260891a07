import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import write_pyramid
from feddymem import tensorio
from feddymem.client import LossConfig, client_update, extract_all_memories, forward_memory
from feddymem.errors import ConfigError, ShapeError
from feddymem.evaluation import LabeledSample, SynthSpec, anomaly_map, synth_dataset
from feddymem.features import ExtractorSpec, FeaturePyramid, ManifestEntry, write_manifest
from feddymem.numerics import Rng
from feddymem.orchestrator import (
    BASELINES,
    ConvergenceMonitor,
    FederationConfig,
    build_client_dataset,
    initialize,
    latest_checkpoint,
    load_checkpoint,
    run_round,
    run_training,
    save_checkpoint,
)
from feddymem.pipeline import evaluate_states
from feddymem.server import bank_nbytes, params_nbytes

SRC = Path(__file__).resolve().parent.parent / "src"


def desk_config(seed=3, rounds=3, baseline="feddymem", n_clients=3, ckpt=2):
    return FederationConfig(
        seed=seed,
        n_clients=n_clients,
        rounds=rounds,
        baseline=baseline,
        loss=LossConfig(batch_size=4),
        extractor=ExtractorSpec(kind="synthetic", seed=seed, levels=2,
                                base_hw=(8, 8), level_channels=(6, 12)),
        memory_channels=6,
        grid_hw=(4, 4),
        checkpoint_interval=ckpt,
    )


def desk_datasets(cfg, n_types=2, spt=6, seed=None):
    spec = SynthSpec(n_types=n_types, samples_per_type=spt,
                     test_normals_per_type=2, test_anomalies_per_type=2,
                     base_hw=cfg.extractor.base_hw, n_clients=cfg.n_clients,
                     seed=cfg.seed if seed is None else seed)
    data = synth_dataset(spec)
    return [build_client_dataset(s, cfg.extractor) for s in data.client_train]


class TestInitialize:
    def test_all_banks_identical_to_global(self):
        cfg = desk_config()
        states, metrics = initialize(cfg, desk_datasets(cfg))
        global_bank = states[0].local_bank
        assert all(s.local_bank is global_bank for s in states)
        assert metrics.round_index == 0
        assert metrics.uploads == metrics.downloads == \
            [bank_nbytes(global_bank)] * cfg.n_clients

    def test_single_client_bank_is_own_reduction(self):
        cfg = desk_config(n_clients=1)
        datasets = desk_datasets(cfg)
        states, _ = initialize(cfg, datasets)
        from feddymem.client import extract_all_memories, memory_reduce
        memories = extract_all_memories(states[0], datasets[0], cfg.loss)
        own = memory_reduce(memories, None, 0)
        got = sorted(map(tuple, np.round(states[0].local_bank.patches, 4).tolist()))
        want = sorted(map(tuple, np.round(own.patches, 4).tolist()))
        assert got == want

    def test_frozen_seed_regression_hash(self):
        cfg = desk_config(seed=17)
        states, _ = initialize(cfg, desk_datasets(cfg))
        digest = hashlib.sha256(states[0].local_bank.data.astype("<f4").tobytes()).hexdigest()
        assert digest == INIT_BANK_SHA256


INIT_BANK_SHA256 = "283e21d45012ee7b1d13a3c1568c86f322e385f4e3bf2a09deacf66d851fd0b1"
# desk_config(rounds=2) logs; how the round records become log lines must
# not change their bytes
ARTIFACT_SHA256 = {
    "metrics.jsonl": "efcaac9cbe8266aad1359eecd241ee143cc59a0bbea201b55d3661b8b32e2108",
    "ledger.csv": "f7755886f997a804d04b307b97e6f7b1c228f21c914af9de42f52b268e283e69",
}


class TestRunRound:
    def test_message_counts(self):
        cfg = desk_config()
        datasets = desk_datasets(cfg)
        monitor = ConvergenceMonitor()
        states, _ = initialize(cfg, datasets, monitor)
        metrics = run_round(states, 1, cfg, datasets, monitor)
        assert len(metrics.uploads) == len(metrics.downloads) == cfg.n_clients
        assert metrics.round_index == 1

    def test_plain_average_is_elementwise_mean(self):
        cfg = desk_config(baseline="plain_average")
        datasets = desk_datasets(cfg)
        monitor = ConvergenceMonitor()
        states, _ = initialize(cfg, datasets, monitor)

        from feddymem.client import client_update, extract_all_memories, memory_reduce
        from feddymem.numerics import Rng
        import copy
        shadow = copy.deepcopy(states)
        expected_banks = []
        for n, s in enumerate(shadow):
            client_update(s, datasets[n], cfg.loss, 1, Rng(cfg.seed).child("update", n))
            mems = extract_all_memories(s, datasets[n], cfg.loss)
            expected_banks.append(memory_reduce(mems, s.local_bank, 1).data)
        run_round(states, 1, cfg, datasets, monitor)
        assert np.allclose(states[0].local_bank.data, np.mean(expected_banks, axis=0), atol=1e-6)

    @pytest.mark.parametrize("baseline", ["feddymem", "plain_average"])
    def test_clients_share_the_global_bank_and_never_write_it(self, baseline):
        cfg = desk_config(baseline=baseline)
        datasets = desk_datasets(cfg)
        monitor = ConvergenceMonitor()
        states, _ = initialize(cfg, datasets, monitor)
        for t in (1, 2):
            bank = states[0].local_bank
            assert all(s.local_bank is bank for s in states)
            data, operand = bank.data.tobytes(), bank.reference.operand.tobytes()
            run_round(states, t, cfg, datasets, monitor)
            assert bank.data.tobytes() == data
            assert bank.reference.operand.tobytes() == operand
        assert all(s.local_bank is states[0].local_bank for s in states)

    def test_local_only_no_exchange(self):
        cfg = desk_config(baseline="local_only")
        datasets = desk_datasets(cfg)
        monitor = ConvergenceMonitor()
        states, init_metrics = initialize(cfg, datasets, monitor)
        # round 0 exchanges nothing either
        assert init_metrics.uploads == init_metrics.downloads == []
        metrics = run_round(states, 1, cfg, datasets, monitor)
        assert metrics.uploads == metrics.downloads == []
        banks = {tuple(s.local_bank.data.reshape(-1)[:4].tolist()) for s in states}
        assert len(banks) > 1  # clients drift apart

    def test_threads_do_not_change_results(self):
        results = []
        for threads in (1, 3):
            cfg = desk_config()
            datasets = desk_datasets(cfg)
            monitor = ConvergenceMonitor()
            states, metrics = initialize(cfg, datasets, monitor, threads=threads)
            lines = [metrics.to_json_line()]
            for t in (1, 2):
                metrics = run_round(states, t, cfg, datasets, monitor, threads=threads)
                lines.append(metrics.to_json_line())
            results.append((states[0].local_bank.data, monitor.r_hat_m, lines))
        (bank_1, r_hat_1, lines_1), (bank_3, r_hat_3, lines_3) = results
        assert np.array_equal(bank_1, bank_3)
        assert r_hat_1 == r_hat_3 > 0.0
        assert lines_1 == lines_3


class TestDatasets:
    def test_fused_stack_rows_are_the_samples_fused_features(self):
        from feddymem.features import extract_pyramid, fuse_pyramid
        cfg = desk_config()
        spec = SynthSpec(n_types=2, samples_per_type=3, test_normals_per_type=1,
                         test_anomalies_per_type=1, base_hw=cfg.extractor.base_hw,
                         n_clients=1, seed=cfg.seed)
        samples = synth_dataset(spec).client_train[0]
        data = build_client_dataset(samples, cfg.extractor)
        assert data.shape == (len(samples), 8, 8, 18) and data.dtype == np.float32
        for row, s in zip(data, samples):
            assert np.array_equal(row, fuse_pyramid(extract_pyramid(s.features, cfg.extractor)))

    def test_samples_fusing_to_another_shape_are_rejected(self, tmp_path):
        # file-kind pyramids come from disk: a sample whose level-0 dims or
        # channel count differ from the first sample's must not be resampled
        # into, or left partly unwritten in, the first sample's row shape
        levels = {"first": [(8, 8, 4), (4, 4, 2)],
                  "taller": [(10, 8, 4), (4, 4, 2)],
                  "fewer_channels": [(8, 8, 4), (4, 4, 1)]}
        r = Rng(3)
        for name, shapes in levels.items():
            pyramid = FeaturePyramid(levels=[r.child(name, i).normal(shape)
                                             for i, shape in enumerate(shapes)])
            write_pyramid(tmp_path / f"{name}.fdmc", pyramid)
        write_manifest(tmp_path / "manifest.json",
                       [ManifestEntry(name, f"{name}.fdmc", 0) for name in levels])
        spec = ExtractorSpec(kind="file", manifest_path=str(tmp_path / "manifest.json"))

        def sample(name):
            return LabeledSample(sample_id=name, features=np.zeros((8, 8, 3)), label=0)

        assert build_client_dataset([sample("first")] * 2, spec).shape == (2, 8, 8, 6)
        for other in ("taller", "fewer_channels"):
            with pytest.raises(ShapeError, match=other):
                build_client_dataset([sample("first"), sample(other)], spec)

    def test_empty_dataset_builds_and_is_rejected(self):
        cfg = desk_config()
        data = build_client_dataset([], cfg.extractor)
        assert len(data) == 0
        states, _ = initialize(cfg, desk_datasets(cfg))
        with pytest.raises(ValueError, match="empty"):
            client_update(states[0], data, cfg.loss, 1, Rng(0))
        with pytest.raises(ValueError, match="empty"):
            extract_all_memories(states[0], data, cfg.loss)


class TestBlockedScoring:
    def test_blocks_equal_blocks_of_one(self):
        cfg = desk_config(n_clients=2)
        spec = SynthSpec(n_types=2, samples_per_type=6, test_normals_per_type=3,
                         test_anomalies_per_type=4, base_hw=cfg.extractor.base_hw,
                         n_clients=cfg.n_clients, seed=cfg.seed)
        data = synth_dataset(spec)
        datasets = [build_client_dataset(s, cfg.extractor) for s in data.client_train]
        states, _ = initialize(cfg, datasets)
        run_round(states, 1, cfg, datasets, ConvergenceMonitor())
        bank = states[0].local_bank
        test = data.test
        fused = build_client_dataset(test, cfg.extractor)
        act = cfg.loss.activation
        # client 0's maps, in test order, each scored alone
        singles = [anomaly_map(forward_memory(states[0].params, fused[i:i + 1], act)[0], bank)
                   for i in range(len(test))]
        results = []
        for batch_size in (1, 3, len(test)):
            fed = replace(cfg, loss=replace(cfg.loss, batch_size=batch_size))
            results.append(evaluate_states([s.params for s in states], [bank] * cfg.n_clients,
                                           test, fed))
        (one_metrics, one_first), *blocked = results
        assert len(one_first) == len(test)
        pairs = [zip(one_first, singles)]
        for metrics, first in blocked:
            assert metrics == one_metrics
            pairs.append(zip(first, one_first))
        for pair in pairs:
            for a, b in pair:
                assert a.image_score == b.image_score
                assert np.array_equal(a.pixel_scores, b.pixel_scores)

    def test_one_test_block_at_a_time(self):
        # a fused test block, (batch, H, W, Cin) with Cin far above C,
        # outweighs all else that scoring holds, so a peak under two blocks
        # means each block was released before the next one was built
        batch = 8
        cfg = replace(desk_config(n_clients=2), loss=LossConfig(batch_size=batch),
                      extractor=ExtractorSpec(kind="synthetic", seed=3, levels=1,
                                              base_hw=(8, 8), level_channels=(256,)))
        spec = SynthSpec(n_types=2, samples_per_type=4, test_normals_per_type=6,
                         test_anomalies_per_type=6, base_hw=cfg.extractor.base_hw,
                         n_clients=cfg.n_clients, seed=cfg.seed)
        data = synth_dataset(spec)
        states, _ = initialize(
            cfg, [build_client_dataset(s, cfg.extractor) for s in data.client_train])
        params, bank = [s.params for s in states], states[0].local_bank
        block = build_client_dataset(data.test[:batch], cfg.extractor).nbytes
        assert len(data.test) > 2 * batch
        evaluate_states(params, [bank] * cfg.n_clients, data.test, cfg)
        tracemalloc.start()
        try:
            evaluate_states(params, [bank] * cfg.n_clients, data.test, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * block


def _sha256_files(root: Path, pattern: str) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.glob(pattern))}


class TestBlasThreads:
    def test_two_desk_rounds_identical_under_one_and_two_blas_threads(self, tmp_path):
        # batched GEMMs are tall enough for OpenBLAS to split them over threads;
        # the evaluation's forward passes and kNN scoring run under each too
        from test_acceptance import DESK_CONFIG
        doc = json.loads(json.dumps(DESK_CONFIG))
        doc["federation"].update(rounds=2, checkpoint_interval=1)
        config = tmp_path / "desk.json"
        config.write_text(json.dumps(doc))
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
            for command in ("train", "eval"):
                subprocess.run([sys.executable, "-m", "feddymem.cli", command, "--config",
                                str(config), "--out", str(out)], env=env, check=True,
                               capture_output=True, timeout=600)
            files = {**_sha256_files(out, "global_bank.fdm1"), **_sha256_files(out, "metrics.jsonl"),
                     **_sha256_files(out, "results.csv"),
                     **_sha256_files(out, "checkpoints/*/client_*.fdmc")}
            assert len(files) == 3 + 3 * doc["federation"]["n_clients"]
            digests.append(files)
        assert digests[0] == digests[1]


class TestRunTraining:
    def test_bank_consistency_every_round(self, tmp_path):
        cfg = desk_config(rounds=3)
        result = run_training(cfg, desk_datasets(cfg), tmp_path / "run")
        assert all(s.local_bank is result.global_bank for s in result.states)

    def test_constant_upload_bytes_per_round(self, tmp_path):
        cfg = desk_config(rounds=3)
        result = run_training(cfg, desk_datasets(cfg), tmp_path / "run")
        bank_bytes = bank_nbytes(result.global_bank)
        for m in result.metrics:
            assert m.uploads == m.downloads == [bank_bytes] * cfg.n_clients
        rows = (tmp_path / "run/ledger.csv").read_bytes().split(b"\r\n")
        assert rows[:2] == [b"round,client,direction,bytes", b"0,0,up,%d" % bank_bytes]
        assert len(rows) == 1 + 4 * 2 * cfg.n_clients + 1 and rows[-1] == b""

    def test_bank_smaller_than_params(self, tmp_path):
        cfg = desk_config(rounds=1)
        result = run_training(cfg, desk_datasets(cfg), tmp_path / "run")
        bank_bytes = bank_nbytes(result.global_bank)
        param_bytes = params_nbytes(result.states[0].params)
        assert bank_bytes < param_bytes

    def test_metrics_file_deterministic(self, tmp_path):
        cfg = desk_config(rounds=2)
        run_training(cfg, desk_datasets(cfg), tmp_path / "a", threads=1)
        run_training(desk_config(rounds=2), desk_datasets(desk_config(rounds=2)),
                     tmp_path / "b", threads=2)
        for name, digest in ARTIFACT_SHA256.items():
            data = (tmp_path / "a" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name
            assert (tmp_path / "b" / name).read_bytes() == data, name

    def test_local_only_artifacts_record_no_exchange(self, tmp_path):
        cfg = desk_config(rounds=2, baseline="local_only")
        run_training(cfg, desk_datasets(cfg), tmp_path / "run")
        ledger_lines = (tmp_path / "run/ledger.csv").read_text().splitlines()
        assert ledger_lines == ["round,client,direction,bytes"]
        lines = (tmp_path / "run/metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            doc = json.loads(line)
            assert doc["bytes_up"] == 0 and doc["bytes_down"] == 0

    def test_t0_writes_init_artifacts_only(self, tmp_path):
        cfg = desk_config(rounds=0)
        result = run_training(cfg, desk_datasets(cfg), tmp_path / "run")
        lines = (tmp_path / "run/metrics.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["round"] == 0
        assert latest_checkpoint(tmp_path / "run").name == "round_00000"

    def test_resume_is_bit_identical(self, tmp_path):
        cfg = desk_config(rounds=4, ckpt=2)
        full = run_training(cfg, desk_datasets(cfg), tmp_path / "full")

        cfg_half = desk_config(rounds=2, ckpt=2)
        run_training(cfg_half, desk_datasets(cfg_half), tmp_path / "resumed")
        cfg_rest = desk_config(rounds=4, ckpt=2)
        resumed = run_training(cfg_rest, desk_datasets(cfg_rest), tmp_path / "resumed",
                               resume=True)

        assert (tmp_path / "full/metrics.jsonl").read_bytes() == \
            (tmp_path / "resumed/metrics.jsonl").read_bytes()
        assert np.array_equal(full.global_bank.data, resumed.global_bank.data)
        for a, b in zip(full.states, resumed.states):
            assert np.array_equal(a.params["proj_w"], b.params["proj_w"])
            assert np.array_equal(a.params["grid"], b.params["grid"])
            assert a.adam.step == b.adam.step
            for name in a.params:
                assert np.array_equal(a.adam.m[name], b.adam.m[name])
                assert np.array_equal(a.adam.v[name], b.adam.v[name])
        assert (tmp_path / "full/ledger.csv").read_bytes() == \
            (tmp_path / "resumed/ledger.csv").read_bytes()

    def test_logs_survive_a_crash_inside_a_round(self, tmp_path, monkeypatch):
        from feddymem import orchestrator
        cfg = desk_config(rounds=6, ckpt=2)
        run_training(cfg, desk_datasets(cfg), tmp_path / "full")

        aggregate_banks = orchestrator._aggregate_banks

        def crash_in_round_5(banks, cfg, round_index):
            # the clients of round 5 have trained and reduced by now
            if round_index == 5:
                raise RuntimeError("killed inside round 5")
            return aggregate_banks(banks, cfg, round_index)

        monkeypatch.setattr(orchestrator, "_aggregate_banks", crash_in_round_5)
        with pytest.raises(RuntimeError, match="round 5"):
            run_training(cfg, desk_datasets(cfg), tmp_path / "resumed")
        monkeypatch.undo()
        assert latest_checkpoint(tmp_path / "resumed").name == "round_00004"
        run_training(cfg, desk_datasets(cfg), tmp_path / "resumed", resume=True)

        for name in ("metrics.jsonl", "ledger.csv"):
            assert (tmp_path / "full" / name).read_bytes() == \
                (tmp_path / "resumed" / name).read_bytes()
        timings = (tmp_path / "resumed/timings.csv").read_text().splitlines()
        assert timings[0] == "round,seconds"
        assert [int(line.split(",")[0]) for line in timings[1:]] == list(range(7))

    def test_checkpoint_save_is_crash_safe(self, tmp_path, monkeypatch):
        cfg = desk_config(rounds=6, ckpt=2)
        run_training(cfg, desk_datasets(cfg), tmp_path / "full")

        write_tensor = tensorio.write_tensor

        def crash_saving_round_4(path, arr):
            # the client files of round 4 are written by now
            if "round_00004" in str(path):
                raise RuntimeError("killed while saving round 4")
            return write_tensor(path, arr)

        monkeypatch.setattr(tensorio, "write_tensor", crash_saving_round_4)
        with pytest.raises(RuntimeError, match="round 4"):
            run_training(cfg, desk_datasets(cfg), tmp_path / "resumed")
        monkeypatch.undo()
        root = tmp_path / "resumed/checkpoints"
        assert sorted(d.name for d in root.iterdir()) == \
            ["partial_round_00004", "round_00000", "round_00002"]
        assert (root / "partial_round_00004/client_0.fdmc").is_file()
        # a round directory without a manifest, as an in-place save leaves it
        (root / "round_00006").mkdir()
        (root / "round_00006/client_0.fdmc").write_bytes(b"partial")
        assert latest_checkpoint(tmp_path / "resumed").name == "round_00002"

        run_training(cfg, desk_datasets(cfg), tmp_path / "resumed", resume=True)
        assert sorted(d.name for d in root.iterdir()) == \
            ["round_00000", "round_00002", "round_00004", "round_00006"]
        for name in ("metrics.jsonl", "ledger.csv", "global_bank.fdm1"):
            assert (tmp_path / "full" / name).read_bytes() == \
                (tmp_path / "resumed" / name).read_bytes()
        for ckpt in ("round_00004", "round_00006"):
            full = tmp_path / "full/checkpoints" / ckpt
            assert sorted(f.name for f in full.iterdir()) == \
                sorted(f.name for f in (root / ckpt).iterdir())
            for f in full.iterdir():
                assert f.read_bytes() == (root / ckpt / f.name).read_bytes()

    def test_checkpoint_load_save_is_byte_identical(self, tmp_path):
        for baseline in ("feddymem", "local_only"):
            cfg = desk_config(rounds=2, ckpt=1, baseline=baseline)
            run_training(cfg, desk_datasets(cfg), tmp_path / baseline)
            ckpt = latest_checkpoint(tmp_path / baseline)
            round_index, states, monitor = load_checkpoint(ckpt, cfg)
            again = save_checkpoint(tmp_path / f"{baseline}_again", round_index, states,
                                    monitor, cfg)
            files = sorted(f.name for f in ckpt.iterdir())
            assert files == sorted(f.name for f in again.iterdir())
            assert "manifest.json" in files
            assert ("global_bank.fdm1" in files) == (baseline != "local_only")
            assert sum(f.startswith("client_") for f in files) == cfg.n_clients
            for name in files:
                assert (ckpt / name).read_bytes() == (again / name).read_bytes(), name

    def test_manifest_records_one_adam_step_per_client(self, tmp_path):
        cfg = desk_config(rounds=2, ckpt=1)
        datasets = desk_datasets(cfg)
        result = run_training(cfg, datasets, tmp_path / "run")
        for t in range(cfg.rounds + 1):
            manifest = json.loads(
                (tmp_path / f"run/checkpoints/round_{t:05d}/manifest.json").read_text())
            for entry, data in zip(manifest["clients"], datasets):
                # one step per batch: E * ceil(N / B) per round of training
                batches = -(-len(data) // cfg.loss.batch_size)
                assert entry["adam_step"] == t * cfg.loss.local_epochs * batches
                assert "adam_steps" not in entry
        assert [s.adam.step for s in result.states] == \
            [entry["adam_step"] for entry in manifest["clients"]]

    def test_checkpoint_roundtrip(self, tmp_path):
        cfg = desk_config(rounds=2, ckpt=1)
        result = run_training(cfg, desk_datasets(cfg), tmp_path / "run")
        ckpt = latest_checkpoint(tmp_path / "run")
        round_index, states, monitor = load_checkpoint(ckpt, cfg)
        assert round_index == 2
        assert np.array_equal(states[0].local_bank.data, result.global_bank.data)
        for a, b in zip(states, result.states):
            assert list(a.params) == list(b.params)
            for name in a.params:
                assert np.array_equal(a.params[name], b.params[name])
        assert monitor.r_hat_m == result.monitor.r_hat_m

    @pytest.mark.parametrize("baseline", ["feddymem", "plain_average", "local_only"])
    def test_each_bank_is_written_once_and_loaded_into_one_object(self, tmp_path, monkeypatch,
                                                                   baseline):
        from feddymem import orchestrator, pipeline
        from feddymem.config import load_run_config
        from test_cli import desk_doc
        loaded = []  # (checkpoint, each client's bank as loaded)
        load = orchestrator.load_checkpoint

        def recorded_load(ckpt, cfg, **kwargs):
            got = load(ckpt, cfg, **kwargs)
            loaded.append((ckpt, [s.local_bank for s in got[1]]))
            return got

        for module in (orchestrator, pipeline):
            monkeypatch.setattr(module, "load_checkpoint", recorded_load)
        doc = desk_doc(rounds=1, baseline=baseline)
        out = tmp_path / "run"
        pipeline.train_run(load_run_config(doc), out)
        doc["federation"]["rounds"] = 2
        cfg = load_run_config(doc)
        result = pipeline.train_run(cfg, out, resume=True)
        pipeline.eval_run(cfg, out)
        # the resume's load, of round 1, and the evaluation's, of round 2
        assert [ckpt.name for ckpt, _ in loaded] == ["round_00001", "round_00002"]

        shared = baseline != "local_only"
        n_clients = cfg.federation.n_clients
        assert (out / "global_bank.fdm1").exists() == shared
        assert (result.global_bank is None) == (not shared)
        for ckpt in sorted((out / "checkpoints").iterdir()):
            assert (ckpt / "global_bank.fdm1").exists() == shared
            for n in range(n_clients):
                assert ("bank" in tensorio.read_container(ckpt / f"client_{n}.fdmc")) != shared
        for ckpt, banks in loaded:
            if shared:
                assert all(bank is banks[0] for bank in banks)
                assert np.array_equal(banks[0].data,
                                      tensorio.read_tensor(ckpt / "global_bank.fdm1"))
            else:
                for n, bank in enumerate(banks):
                    section = tensorio.read_container(ckpt / f"client_{n}.fdmc")["bank"]
                    assert np.array_equal(bank.data, section)
        if shared:
            assert all(s.local_bank is result.global_bank for s in result.states)
            assert np.array_equal(result.global_bank.data,
                                  tensorio.read_tensor(out / "global_bank.fdm1"))

    def test_checkpoint_with_removed_keys_resumes_identically(self, tmp_path):
        # checkpoints written before the monitor kept only two fields, and
        # before banks lost their round tags, hold the keys added below;
        # those written before the seed and baseline were recorded lack them;
        # those written before each bank was written once hold more banks:
        # the shared bank in every client container too, and a zero
        # global_bank.fdm1 beside the local_only containers
        for baseline in BASELINES:
            cfg = desk_config(rounds=4, ckpt=2, baseline=baseline)
            full_dir, old_dir = tmp_path / baseline / "full", tmp_path / baseline / "old"
            full = run_training(cfg, desk_datasets(cfg), full_dir)
            run_training(replace(cfg, rounds=2), desk_datasets(cfg), old_dir)
            ckpt = old_dir / "checkpoints/round_00002"
            if baseline == "local_only":
                tensorio.write_tensor(ckpt / "global_bank.fdm1",
                                      np.zeros(cfg.bank_shape, dtype=np.float32))
            else:
                bank = tensorio.read_tensor(ckpt / "global_bank.fdm1")
                for n in range(cfg.n_clients):
                    sections = tensorio.read_container(ckpt / f"client_{n}.fdmc")
                    tensorio.write_container(ckpt / f"client_{n}.fdmc",
                                             {**sections, "bank": bank})
            path = ckpt / "manifest.json"
            manifest = json.loads(path.read_text())
            assert sorted(manifest["monitor"]) == ["bound_violations", "r_hat_m"]
            assert (manifest.pop("seed"), manifest.pop("baseline")) == (cfg.seed, baseline)
            manifest["monitor"].update(loss_sum=1.5, loss_count=6, grad_sq_sum=0.25,
                                       grad_sq_count=6, round_mean_losses=[0.75, 0.75],
                                       round_mean_grad_sq=[0.125, 0.125], bound_violations=7)
            manifest["global_bank_round"] = 2
            for entry in manifest["clients"]:
                entry["bank_round"] = 2
            path.write_text(json.dumps(manifest, indent=1, sort_keys=True))

            resumed = run_training(cfg, desk_datasets(cfg), old_dir, resume=True)
            assert (full_dir / "global_bank.fdm1").exists() == (baseline != "local_only")
            for name in ("metrics.jsonl", "ledger.csv", "global_bank.fdm1"):
                assert (full_dir / name).exists() == (old_dir / name).exists(), name
                if (full_dir / name).exists():
                    assert (full_dir / name).read_bytes() == (old_dir / name).read_bytes(), name
            assert full.monitor.bound_violations == 0
            assert resumed.monitor == replace(full.monitor, bound_violations=7)
            last = json.loads((old_dir / "checkpoints/round_00004/manifest.json").read_text())
            assert last["monitor"] == {"bound_violations": 7, "r_hat_m": full.monitor.r_hat_m}
            assert "bank_round" not in last["clients"][0] and "global_bank_round" not in last
            assert (last["seed"], last["baseline"]) == (cfg.seed, baseline)

    def test_evaluation_reads_no_adam_moments(self, tmp_path):
        # NaN moments: a load that parsed them would fail its finiteness check
        from feddymem import pipeline
        from feddymem.config import load_run_config
        from feddymem.errors import NumericError
        from test_cli import desk_doc
        cfg = load_run_config(desk_doc(rounds=1))
        out = tmp_path / "run"
        pipeline.train_run(cfg, out)
        clean = pipeline.eval_run(cfg, out)
        ckpt = out / "checkpoints/round_00001"
        for n in range(cfg.federation.n_clients):
            path = ckpt / f"client_{n}.fdmc"
            sections = tensorio.read_container(path)
            tensorio.write_container(path, {
                key: np.full_like(value, np.nan) if key.startswith("adam_") else value
                for key, value in sections.items()})
        assert pipeline.eval_run(cfg, out) == clean
        _, states, _ = load_checkpoint(ckpt, cfg.federation, moments=False)
        for state in states:
            assert not any(m.any() for m in state.adam.m.values())
            assert state.adam.step == 0
        with pytest.raises(NumericError, match="section 'adam_m.proj_w'"):
            load_checkpoint(ckpt, cfg.federation)

    def test_loss_bound_and_quartile_trend(self, tmp_path):
        cfg = desk_config(rounds=8, ckpt=8)
        result = run_training(cfg, desk_datasets(cfg, spt=8), tmp_path / "run")
        assert result.monitor.bound_violations == 0
        for m in result.metrics[1:]:
            for loss in m.client_losses:
                assert loss <= 2.0 * result.monitor.r_hat_m + 1e-9


class TestConvergenceMonitor:
    def test_bound_violation_detection(self):
        monitor = ConvergenceMonitor()
        monitor.observe_patch_norm(1.0)
        monitor.observe_round([2.5])
        assert monitor.bound_violations == 1


class TestFederationConfig:
    def test_bad_baseline_rejected(self):
        with pytest.raises(ConfigError):
            desk_config(baseline="fedavg")

    def test_bank_shape(self):
        cfg = desk_config()
        assert cfg.bank_shape == (8, 8, 6)
