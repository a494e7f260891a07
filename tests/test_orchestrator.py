import hashlib
import json

import numpy as np
import pytest

from feddymem.client import LossConfig
from feddymem.errors import ConfigError
from feddymem.evaluation import SynthSpec, synth_dataset
from feddymem.features import ExtractorSpec
from feddymem.orchestrator import (
    ConvergenceMonitor,
    FederationConfig,
    build_client_dataset,
    initialize,
    latest_checkpoint,
    load_checkpoint,
    run_round,
    run_training,
    serialized_bank_bytes,
    serialized_param_bytes,
)
from feddymem.server import CommLedger


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
        states, global_bank, metrics = initialize(cfg, desk_datasets(cfg))
        for s in states:
            assert np.array_equal(s.local_bank.data, global_bank.data)
        assert metrics.round_index == 0
        assert metrics.bytes_up == cfg.n_clients * serialized_bank_bytes(global_bank)

    def test_single_client_bank_is_own_reduction(self):
        cfg = desk_config(n_clients=1)
        datasets = desk_datasets(cfg)
        states, global_bank, _ = initialize(cfg, datasets)
        from feddymem.client import extract_all_memories, memory_reduce
        memories = extract_all_memories(states[0], datasets[0])
        own = memory_reduce(memories, None, 0)
        got = sorted(map(tuple, np.round(global_bank.patches, 4).tolist()))
        want = sorted(map(tuple, np.round(own.patches, 4).tolist()))
        assert got == want

    def test_frozen_seed_regression_hash(self):
        cfg = desk_config(seed=17)
        _, global_bank, _ = initialize(cfg, desk_datasets(cfg))
        digest = hashlib.sha256(global_bank.data.astype("<f4").tobytes()).hexdigest()
        assert digest == INIT_BANK_SHA256


INIT_BANK_SHA256 = "283e21d45012ee7b1d13a3c1568c86f322e385f4e3bf2a09deacf66d851fd0b1"


class TestRunRound:
    def test_message_counts(self):
        cfg = desk_config()
        datasets = desk_datasets(cfg)
        ledger = CommLedger()
        monitor = ConvergenceMonitor()
        states, bank, _ = initialize(cfg, datasets, ledger, monitor)
        before = len(ledger.records)
        bank, metrics = run_round(states, bank, 1, cfg, datasets, ledger, monitor)
        assert len(ledger.records) - before == 2 * cfg.n_clients
        assert metrics.round_index == 1

    def test_plain_average_is_elementwise_mean(self):
        cfg = desk_config(baseline="plain_average")
        datasets = desk_datasets(cfg)
        ledger = CommLedger()
        monitor = ConvergenceMonitor()
        states, bank, _ = initialize(cfg, datasets, ledger, monitor)

        from feddymem.client import client_update, extract_all_memories, memory_reduce
        from feddymem.numerics import Rng
        import copy
        shadow = copy.deepcopy(states)
        expected_banks = []
        for n, s in enumerate(shadow):
            client_update(s, datasets[n], cfg.loss, 1, Rng(cfg.seed).child("update", n))
            mems = extract_all_memories(s, datasets[n])
            expected_banks.append(memory_reduce(mems, s.local_bank, 1).data)
        bank, _ = run_round(states, bank, 1, cfg, datasets, ledger, monitor)
        assert np.allclose(bank.data, np.mean(expected_banks, axis=0), atol=1e-6)

    def test_local_only_no_exchange(self):
        cfg = desk_config(baseline="local_only")
        datasets = desk_datasets(cfg)
        ledger = CommLedger()
        monitor = ConvergenceMonitor()
        states, bank, init_metrics = initialize(cfg, datasets, ledger, monitor)
        assert ledger.records == []  # round 0 exchanges nothing either
        assert init_metrics.bytes_up == 0 and init_metrics.bytes_down == 0
        bank2, metrics = run_round(states, bank, 1, cfg, datasets, ledger, monitor)
        assert ledger.records == []
        assert metrics.bytes_up == 0 and metrics.bytes_down == 0
        assert np.array_equal(bank2.data, bank.data)  # global bank frozen
        banks = {tuple(s.local_bank.data.reshape(-1)[:4].tolist()) for s in states}
        assert len(banks) > 1  # clients drift apart

    def test_threads_do_not_change_results(self):
        results = []
        for threads in (1, 3):
            cfg = desk_config()
            datasets = desk_datasets(cfg)
            ledger = CommLedger()
            monitor = ConvergenceMonitor()
            states, bank, metrics = initialize(cfg, datasets, ledger, monitor, threads=threads)
            lines = [metrics.to_json_line()]
            for t in (1, 2):
                bank, metrics = run_round(states, bank, t, cfg, datasets, ledger, monitor,
                                          threads=threads)
                lines.append(metrics.to_json_line())
            results.append((bank.data.copy(), monitor.r_hat_m, lines))
        (bank_1, r_hat_1, lines_1), (bank_3, r_hat_3, lines_3) = results
        assert np.array_equal(bank_1, bank_3)
        assert r_hat_1 == r_hat_3 > 0.0
        assert lines_1 == lines_3


class TestRunTraining:
    def test_bank_consistency_every_round(self, tmp_path):
        cfg = desk_config(rounds=3)
        result = run_training(cfg, desk_datasets(cfg), tmp_path / "run")
        for s in result.states:
            assert np.array_equal(s.local_bank.data, result.global_bank.data)

    def test_constant_upload_bytes_per_round(self, tmp_path):
        cfg = desk_config(rounds=3)
        result = run_training(cfg, desk_datasets(cfg), tmp_path / "run")
        sizes = set()
        for m in result.metrics:
            sizes.add(m.bytes_up // cfg.n_clients)
        assert len(sizes) == 1
        assert sizes.pop() == serialized_bank_bytes(result.global_bank)

    def test_bank_smaller_than_params(self, tmp_path):
        cfg = desk_config(rounds=1)
        result = run_training(cfg, desk_datasets(cfg), tmp_path / "run")
        bank_bytes = serialized_bank_bytes(result.global_bank)
        param_bytes = serialized_param_bytes(result.states[0])
        assert bank_bytes < param_bytes

    def test_metrics_file_deterministic(self, tmp_path):
        cfg = desk_config(rounds=2)
        run_training(cfg, desk_datasets(cfg), tmp_path / "a", threads=1)
        run_training(desk_config(rounds=2), desk_datasets(desk_config(rounds=2)),
                     tmp_path / "b", threads=2)
        assert (tmp_path / "a/metrics.jsonl").read_bytes() == \
            (tmp_path / "b/metrics.jsonl").read_bytes()

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
            assert np.array_equal(a.projection.weight, b.projection.weight)
            assert np.array_equal(a.generator.grid, b.generator.grid)
            assert a.adam["grid"].step == b.adam["grid"].step
        assert (tmp_path / "full/ledger.csv").read_bytes() == \
            (tmp_path / "resumed/ledger.csv").read_bytes()

    def test_logs_survive_a_crash_inside_a_round(self, tmp_path, monkeypatch):
        from feddymem import orchestrator
        cfg = desk_config(rounds=6, ckpt=2)
        run_training(cfg, desk_datasets(cfg), tmp_path / "full")

        aggregate_banks = orchestrator._aggregate_banks

        def crash_in_round_5(banks, cfg, round_index):
            # round 5's uploads are already in the in-memory ledger here
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

    def test_checkpoint_roundtrip(self, tmp_path):
        cfg = desk_config(rounds=2, ckpt=1)
        result = run_training(cfg, desk_datasets(cfg), tmp_path / "run")
        ckpt = latest_checkpoint(tmp_path / "run")
        round_index, states, bank, monitor = load_checkpoint(ckpt, cfg)
        assert round_index == 2
        assert np.array_equal(bank.data, result.global_bank.data)
        for a, b in zip(states, result.states):
            for name in ("coord_w", "phi1_w", "out_w", "grid"):
                assert np.array_equal(getattr(a.generator, name),
                                      getattr(b.generator, name))
        assert monitor.r_hat_m == result.monitor.r_hat_m

    def test_loss_bound_and_quartile_trend(self, tmp_path):
        cfg = desk_config(rounds=8, ckpt=8)
        result = run_training(cfg, desk_datasets(cfg, spt=8), tmp_path / "run")
        assert result.monitor.bound_violations == 0
        for m in result.metrics[1:]:
            for loss in m.client_losses:
                assert loss <= 2.0 * result.monitor.r_hat_m + 1e-9


class TestConvergenceMonitor:
    def test_quartile_means(self):
        monitor = ConvergenceMonitor()
        monitor.observe_patch_norm(10.0)
        for i in range(8):
            monitor.observe_round([1.0], [float(8 - i)])
        first, last = monitor.quartile_grad_means()
        assert first == pytest.approx(np.mean([8.0, 7.0]))
        assert last == pytest.approx(np.mean([2.0, 1.0]))

    def test_bound_violation_detection(self):
        monitor = ConvergenceMonitor()
        monitor.observe_patch_norm(1.0)
        monitor.observe_round([2.5], [0.1])
        assert monitor.bound_violations == 1

    def test_round_trip_dict(self):
        monitor = ConvergenceMonitor()
        monitor.observe_patch_norm(3.0)
        monitor.observe_round([0.5, 0.7], [0.1, 0.2])
        back = ConvergenceMonitor.from_dict(json.loads(json.dumps(monitor.to_dict())))
        assert back.r_hat_m == monitor.r_hat_m
        assert back.round_mean_grad_sq == monitor.round_mean_grad_sq


class TestFederationConfig:
    def test_bad_baseline_rejected(self):
        with pytest.raises(ConfigError):
            desk_config(baseline="fedavg")

    def test_bank_shape(self):
        cfg = desk_config()
        assert cfg.bank_shape == (8, 8, 6)
