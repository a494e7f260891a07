import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (f64, finite_diff_grad, max_rel_err, reference_memory_reduce,
                      reference_metric_loss)
from feddymem.client import (
    ClientModelState,
    LossConfig,
    MemoryBank,
    client_update,
    extract_all_memories,
    forward_memory,
    knn_lookup,
    max_patch_norm,
    memory_reduce,
    metric_loss,
    _forward_backward,
)
from feddymem.errors import ShapeError
from feddymem.features import init_projection
from feddymem.generator import init_generator
from feddymem.numerics import Rng, adam_step, pairwise_dist


def make_bank(rng, h=4, w=4, c=3):
    return MemoryBank(data=rng.normal((h, w, c)).astype(np.float64))


def make_state(seed=0, cin=6, c=3, dtype=np.float32):
    rng = Rng(seed)
    params = {**init_projection(rng.child("p"), cin, c),
              **init_generator(rng.child("g"), c, (4, 4))}
    return ClientModelState(client_id=0, params={k: v.astype(dtype) for k, v in params.items()})


class TestKnn:
    def test_exact_hit(self, rng):
        bank = make_bank(rng)
        idx, dist = knn_lookup(bank.patches[5:6].copy(), bank, 1)
        assert idx[0, 0] == 5 and dist[0, 0] == 0.0

    def test_hand_distances(self):
        bank = MemoryBank(data=np.array([0.0, 10.0], dtype=np.float32).reshape(1, 2, 1))
        idx, dist = knn_lookup(np.array([[4.0]]), bank, 2)
        assert idx[0].tolist() == [0, 1]
        assert dist[0].tolist() == [4.0, 6.0]

    def test_matches_full_sort_oracle(self, rng):
        patches = f64(rng.child(1), (20, 4))
        bank = MemoryBank(data=f64(rng.child(2), (8, 8, 4)))
        idx, dist = knn_lookup(patches, bank, 3)
        d = pairwise_dist(patches, bank.patches)
        oracle = np.argsort(d, axis=1)[:, :3]
        assert np.array_equal(idx, oracle)
        assert max_rel_err(dist, np.take_along_axis(d, oracle, axis=1)) < 1e-12

    def test_tie_breaks_to_lower_index(self):
        data = np.zeros((1, 3, 1), dtype=np.float32)
        bank = MemoryBank(data=data)
        idx, _ = knn_lookup(np.zeros((1, 1)), bank, 2)
        assert idx[0].tolist() == [0, 1]

    def test_k_too_large(self, rng):
        bank = make_bank(rng)
        with pytest.raises(ValueError):
            knn_lookup(bank.patches, bank, bank.size + 1)

    def test_threads_share_one_bank_reference(self, rng):
        # client threads all query the one global bank and its prepared
        # reference side; with more threads than cores and a short switch
        # interval, every lookup must still equal the single-threaded one
        bank = MemoryBank(data=rng.child(1).normal((8, 8, 6)))
        queries = [rng.child(2, i).normal((64, 6)) for i in range(12)]
        want = [knn_lookup(q, bank, 3) for q in queries]
        operand = bank.reference.operand.copy()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(knn_lookup, q, bank, 3) for q in queries * 4]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for (idx, dist), (want_idx, want_dist) in zip(got, want * 4):
            assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)
        assert np.array_equal(bank.reference.operand, operand)


@st.composite
def metric_loss_case(draw):
    """A (B, H, W, C) stack, a bank and a loss config. Entries are either
    normal draws or drawn from {-1, -0, 0, 1}, where distances tie and
    zero differences of either sign are common; some patches are copies of
    bank rows (distance 0), and the largest margin switches every term
    off."""
    r = Rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.integers(1, 5))
    k = draw(st.integers(1, 5))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3)), c)
    bank_hw = (draw(st.integers(1, 3)), draw(st.integers(2, 3)))
    m_dtype, bank_dtype = (draw(st.sampled_from([np.float32, np.float64])) for _ in range(2))
    if draw(st.booleans()):
        values = np.array([-1.0, -0.0, 0.0, 1.0])
        m = values[r.child(1).generator.integers(0, 4, shape)]
        data = values[r.child(2).generator.integers(0, 4, bank_hw + (c,))]
    else:
        m = r.child(1).normal(shape, dtype=np.float64)
        data = r.child(2).normal(bank_hw + (c,), dtype=np.float64)
    bank = MemoryBank(data=data.astype(bank_dtype))
    flat = m.reshape(-1, c)
    on_bank = r.child(3).generator.random(len(flat)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    flat[on_bank] = bank.patches[r.child(4).generator.integers(0, bank.size, on_bank.sum())]
    margin = draw(st.sampled_from([0.0, 0.01, 0.5, 1e9]))
    cfg = LossConfig(hinge_margin=margin, knn_k=min(k, bank.size))
    return m.astype(m_dtype), bank, cfg


class TestMetricLoss:
    @given(metric_loss_case())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_reference(self, case):
        m, bank, cfg = case
        losses, grad = metric_loss(m, bank, cfg)
        want_losses, want_grad = reference_metric_loss(m, bank, cfg)
        assert losses == want_losses
        assert grad.dtype == want_grad.dtype == m.dtype
        assert grad.tobytes() == want_grad.tobytes()

    def test_zero_when_patches_coincide(self, rng):
        bank = make_bank(rng)
        m = bank.data[None].copy()
        cfg = LossConfig(knn_k=1)
        loss, grad = metric_loss(m, bank, cfg)
        assert loss == [0.0]
        assert not grad.any()

    def test_hand_evaluated_hinge(self):
        bank = MemoryBank(data=np.zeros((1, 1, 1), dtype=np.float32))
        m = np.full((1, 1, 1, 1), 1.01)
        (loss,), grad = metric_loss(m, bank, LossConfig(hinge_margin=0.01, knn_k=1))
        assert loss == pytest.approx(1.0, abs=1e-7)
        assert grad[0, 0, 0, 0] == pytest.approx(1.0, abs=1e-7)

    def test_matches_brute_force_oracle(self, rng):
        cfg = LossConfig(hinge_margin=0.05, knn_k=2)
        m = f64(rng.child(1), (2, 1, 2, 3))
        bank = MemoryBank(data=f64(rng.child(2), (2, 3, 3)))
        losses, _ = metric_loss(m, bank, cfg)
        assert len(losses) == 2
        for loss, sample in zip(losses, m):
            expected = 0.0
            for patch in sample.reshape(2, 3):
                dists = sorted(np.linalg.norm(patch - q) for q in bank.patches)
                expected += sum(max(0.0, d - cfg.hinge_margin) for d in dists[:2])
            expected /= 2 * 2
            assert loss == pytest.approx(expected, rel=1e-9)

    def test_loss_nonnegative_and_bounded(self, rng):
        for seed in range(10):
            m = Rng(seed).normal((3, 3, 4)).astype(np.float64)
            bank = make_bank(Rng(seed + 100), 4, 4, 4)
            cfg = LossConfig(hinge_margin=0.01, knn_k=3)
            (loss,), _ = metric_loss(m[None], bank, cfg)
            r_hat = max(max_patch_norm(m), max_patch_norm(bank.data))
            assert 0.0 <= loss <= 2.0 * r_hat

    def test_gradient_matches_finite_differences(self, rng):
        cfg = LossConfig(hinge_margin=0.05, knn_k=2)
        bank = make_bank(rng.child(1), 3, 3, 3)
        for attempt in range(20):
            m = Rng(500 + attempt).normal((1, 2, 2, 3)).astype(np.float64)
            _, dist = knn_lookup(m.reshape(4, 3), bank, cfg.knn_k + 1)
            # exclude points near the hinge kink or a KNN tie
            if np.abs(dist - cfg.hinge_margin).min() < 1e-3:
                continue
            if np.abs(dist[:, -1] - dist[:, -2]).min() < 1e-3:
                continue
            loss, grad = metric_loss(m, bank, cfg)
            fd = finite_diff_grad(lambda v: metric_loss(v, bank, cfg)[0][0], m, 1e-5)
            assert max_rel_err(grad, fd) < 1e-3
            return
        pytest.fail("no kink-free sample found")

    def test_invariant_under_bank_permutation(self, rng):
        m = f64(rng.child(1), (2, 3, 3, 4))
        bank = make_bank(rng.child(2), 4, 4, 4)
        perm = Rng(9).permutation(bank.size)
        shuffled = MemoryBank(data=bank.patches[perm].reshape(bank.data.shape))
        cfg = LossConfig(knn_k=3)
        assert metric_loss(m, bank, cfg)[0] == pytest.approx(
            metric_loss(m, shuffled, cfg)[0], rel=1e-9)
        assert np.allclose(metric_loss(m, bank, cfg)[1], metric_loss(m, shuffled, cfg)[1])


def _tiny_dataset(state, n=6, seed=3):
    rng = Rng(seed)
    return np.stack([rng.child(i).normal((4, 4, 6)) for i in range(n)])


class TestClientUpdate:
    def test_zero_epochs_is_identity(self):
        cfg = LossConfig(local_epochs=0)
        state = make_state()
        state.local_bank = make_bank(Rng(5), 4, 4, 3)
        before = {k: v.copy() for k, v in state.params.items()}
        losses, grads = client_update(state, _tiny_dataset(state), cfg, 1, Rng(0))
        assert losses == [] and grads == []
        for k, v in state.params.items():
            assert np.array_equal(v, before[k])

    def test_training_reduces_loss(self):
        cfg = LossConfig(batch_size=3, learning_rate=5e-3)
        state = make_state()
        state.local_bank = make_bank(Rng(5), 4, 4, 3)
        data = _tiny_dataset(state, n=8)
        first = None
        for t in range(1, 9):
            losses, _ = client_update(state, data, cfg, t, Rng(1).child("u"))
            if first is None:
                first = losses[0]
        assert losses[-1] < first

    def test_deterministic_across_runs(self):
        cfg = LossConfig(batch_size=2)
        results = []
        for _ in range(2):
            state = make_state()
            state.local_bank = make_bank(Rng(5), 4, 4, 3)
            client_update(state, _tiny_dataset(state), cfg, 1, Rng(7).child("x"))
            results.append({k: v.copy() for k, v in state.params.items()})
        for k in results[0]:
            assert np.array_equal(results[0][k], results[1][k])

    def test_trace_length(self):
        cfg = LossConfig(batch_size=4, local_epochs=2)
        state = make_state()
        state.local_bank = make_bank(Rng(5), 4, 4, 3)
        losses, grads = client_update(state, _tiny_dataset(state, n=6), cfg, 1, Rng(0))
        assert len(losses) == len(grads) == 2 * 2  # 2 epochs x ceil(6/4)
        # one Adam step per batch moves every tensor's moments
        assert state.adam.step == 2 * 2
        assert list(state.adam.m) == list(state.adam.v) == list(state.params)
        assert all(v.any() for v in state.adam.v.values())

    def test_a_batch_reads_its_rows_in_place(self):
        # with Cin far above C, a (B, H, W, Cin) copy of the batch's rows
        # would outweigh everything else one training step allocates
        b, cin = 8, 512
        state = make_state(cin=cin)
        state.local_bank = make_bank(Rng(5), 4, 4, 3)
        data = Rng(3).normal((b, 4, 4, cin))
        cfg = LossConfig(batch_size=b)
        client_update(state, data, cfg, 1, Rng(0))
        tracemalloc.start()
        try:
            client_update(state, data, cfg, 2, Rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes

    def test_empty_dataset_rejected(self):
        cfg = LossConfig()
        state = make_state()
        state.local_bank = make_bank(Rng(5), 4, 4, 3)
        with pytest.raises(ValueError):
            client_update(state, np.empty((0, 4, 4, 6), np.float32), cfg, 1, Rng(0))


def _per_sample_update(state, dataset, cfg, round_t, rng):
    """client_update with every batch run as batches of one sample: each
    sample's loss and gradients accumulated from 0.0 in sample order."""
    loss_trace, grad_sq_trace = [], []
    n = len(dataset)
    for epoch in range(cfg.local_epochs):
        order = rng.child("shuffle", round_t, epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            acc, batch_loss = {}, 0.0
            for i in batch:
                (loss,), grads = _forward_backward(state, dataset, [i],
                                                   state.local_bank, cfg)
                batch_loss += loss
                for name, g in grads.items():
                    acc[name] = acc.get(name, 0.0) + g
            scale = 1.0 / len(batch)
            grad_sq = 0.0
            scaled = {}
            for name in state.params:
                scaled[name] = acc[name] * scale
                grad_sq += float((scaled[name].astype(np.float64) ** 2).sum())
            adam_step(state.params, scaled, state.adam, cfg)
            loss_trace.append(batch_loss * scale)
            grad_sq_trace.append(grad_sq)
    return loss_trace, grad_sq_trace


def _typed_setup(seed, n, dtype):
    state = make_state(seed % 97, dtype=dtype)
    state.local_bank = MemoryBank(data=Rng(seed).child("bank").normal((4, 4, 3)).astype(dtype))
    data = Rng(seed).child("data").normal((n, 4, 4, 6)).astype(dtype)
    return state, data


class TestBatchedStep:
    """One forward, metric loss and backward pass over a (B, ...) batch gives
    the bits of B batches of one sample, accumulated in sample order."""

    @given(st.integers(1, 12), st.sampled_from(["relu", "tanh"]),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_batch_gradients_equal_accumulated_singles(self, b, activation, dtype, seed):
        cfg = LossConfig(activation=activation)
        state, data = _typed_setup(seed, b, dtype)
        # the batch's rows, read in place, in an order that is not the stack's
        rows = Rng(seed).child("rows").permutation(b)
        losses, grads = _forward_backward(state, data, rows, state.local_bank, cfg)
        acc, singles = {}, []
        for i in rows:
            (loss,), one = _forward_backward(state, data, [i], state.local_bank, cfg)
            singles.append(loss)
            for name, g in one.items():
                acc[name] = acc.get(name, 0.0) + g
        assert losses == singles
        assert list(grads) == list(state.params) == list(acc)
        for name, g in grads.items():
            assert g.dtype == acc[name].dtype == dtype, name
            assert np.array_equal(g, acc[name]), name

    @given(st.integers(1, 12), st.integers(1, 12), st.sampled_from(["relu", "tanh"]),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_client_update_equals_batches_of_one(self, n, batch, activation, dtype, seed):
        # n % batch != 0 in most draws: the last batch is the uneven one
        cfg = LossConfig(batch_size=batch, activation=activation, learning_rate=5e-3,
                         local_epochs=2)
        runs = []
        for update in (client_update, _per_sample_update):
            state, data = _typed_setup(seed, n, dtype)
            runs.append((update(state, data, cfg, 1, Rng(seed).child("u")), state.params))
        (traces, params), (oracle_traces, oracle_params) = runs
        assert traces == oracle_traces
        for name in params:
            assert np.array_equal(params[name], oracle_params[name]), name


class TestExtractAllMemories:
    def test_singleton(self):
        state = make_state()
        data = _tiny_dataset(state, n=1)
        assert extract_all_memories(state, data, LossConfig()).shape == (1, 4, 4, 3)

    def test_pure_repeated_calls(self):
        state = make_state()
        data = _tiny_dataset(state, n=3)
        a = extract_all_memories(state, data, LossConfig())
        b = extract_all_memories(state, data, LossConfig())
        assert np.array_equal(a, b)

    def test_matches_per_sample_forward(self):
        # blocks of any size give the bits of blocks of one
        state = make_state()
        data = _tiny_dataset(state, n=7)
        for activation in ("relu", "tanh"):
            singles = [forward_memory(state.params, data[i:i + 1], activation)[0]
                       for i in range(len(data))]
            for batch_size in (1, 2, 3, 7, 8):
                memories = extract_all_memories(
                    state, data, LossConfig(batch_size=batch_size, activation=activation))
                assert memories.shape == (7, 4, 4, 3)
                assert memories.dtype == np.float64
                for m, single in zip(memories, singles):
                    assert np.array_equal(m, single)


class TestMemoryReduce:
    def test_round0_is_mean(self, rng):
        a = f64(rng.child(1), (2, 2, 2))
        b = f64(rng.child(2), (2, 2, 2))
        out = memory_reduce(np.stack([a, b]), None, 0)
        assert max_rel_err(out.data, (a + b) / 2) < 1e-6

    def test_hand_scalar_case(self):
        a = np.full((1, 1, 1), 1.0, dtype=np.float32)
        b = np.full((1, 1, 1), 3.0, dtype=np.float32)
        prev = MemoryBank(data=np.zeros((1, 1, 1), dtype=np.float32))
        out = memory_reduce(np.stack([a, b]), prev, 1)
        # weights (1, 3) -> weighted mean 2.5; alpha=1/2 blends with prev 0
        assert out.data[0, 0, 0] == 1.25

    def test_round1_alpha_is_half(self, rng):
        mems = [f64(rng.child(i), (2, 2, 2)) for i in range(3)]
        prev = MemoryBank(data=f64(rng.child(9), (2, 2, 2)).astype(np.float32))
        out = memory_reduce(np.stack(mems), prev, 1)
        w = np.array([np.linalg.norm(m - prev.data) for m in mems])
        mbar = np.tensordot(w, np.stack(mems), axes=1) / w.sum()
        expected = 0.5 * mbar + 0.5 * prev.data
        assert max_rel_err(out.data, expected) < 1e-6

    def test_rema_alpha_schedule(self, rng):
        mems = [f64(rng.child(i), (1, 1, 1)) for i in range(2)]
        prev = MemoryBank(data=np.ones((1, 1, 1), dtype=np.float32))
        for t in (1, 2, 5):
            out = memory_reduce(np.stack(mems), prev, t)
            w = np.array([abs(float(m.item() - prev.data.item())) for m in mems])
            mbar = float((w * np.array([m.item() for m in mems])).sum() / w.sum())
            alpha = 1.0 / (t + 1)
            assert out.data[0, 0, 0] == pytest.approx(alpha * mbar + (1 - alpha) * 1.0,
                                                      rel=1e-6)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariant(self, seed):
        r = Rng(seed)
        mems = [r.child(i).normal((2, 2, 3)) for i in range(5)]
        prev = MemoryBank(data=r.child(99).normal((2, 2, 3)))
        perm = r.child(50).permutation(5)
        out_a = memory_reduce(np.stack(mems), prev, 2)
        out_b = memory_reduce(np.stack(mems)[perm], prev, 2)
        assert max_rel_err(out_a.data, out_b.data) < 1e-5

    def test_weight_monotonicity(self):
        # scaling one memory's distance up never lowers its relative pull
        prev = MemoryBank(data=np.zeros((1, 1, 1), dtype=np.float32))
        near = np.full((1, 1, 1), 0.5)
        far = np.full((1, 1, 1), 2.0)
        farther = np.full((1, 1, 1), 4.0)
        base = memory_reduce(np.stack([near, far]), prev, 1).data.item()
        moved = memory_reduce(np.stack([near, farther]), prev, 1).data.item()
        assert moved > base

    def test_degenerate_zero_weights_fall_back_uniform(self):
        prev = MemoryBank(data=np.ones((1, 1, 2), dtype=np.float32))
        mems = [prev.data.copy(), prev.data.copy()]
        out = memory_reduce(np.stack(mems), prev, 3)
        assert np.allclose(out.data, 1.0)

    @given(n=st.integers(1, 5), h=st.integers(1, 12), w=st.integers(1, 12),
           c=st.sampled_from([1, 3, 16, 70]), t=st.sampled_from([0, 1, 2, 7]),
           dtype=st.sampled_from([np.float32, np.float64]),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    @example(n=3, h=12, w=12, c=70, t=2, dtype=np.float32, scale=1.0, seed=0)
    @example(n=2, h=12, w=11, c=70, t=0, dtype=np.float64, scale=1e3, seed=1)
    def test_equals_the_whole_stack_reference(self, n, h, w, c, t, dtype, scale, seed):
        # c = 70 puts H*W*C above numpy's 8192-element reduction buffer for
        # most extents, and the examples do
        r = Rng(seed)
        mems = (r.child(1).normal((n, h, w, c)) * scale).astype(dtype)
        prev = None if t == 0 else MemoryBank(data=r.child(2).normal((h, w, c)).astype(np.float32))
        assert np.array_equal(memory_reduce(mems, prev, t).data,
                              reference_memory_reduce(mems, prev, t))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_weights_equal_the_reference(self, dtype):
        prev = MemoryBank(data=Rng(4).normal((30, 30, 12)).astype(np.float32))
        mems = np.stack([prev.data, prev.data, prev.data]).astype(dtype)
        out = memory_reduce(mems, prev, 3)
        assert np.array_equal(out.data, reference_memory_reduce(mems, prev, 3))
        assert np.array_equal(out.data, prev.data)

    def test_round0_rejects_prev(self, rng):
        with pytest.raises(ValueError):
            memory_reduce(rng.normal((1, 1, 1, 1)), make_bank(rng, 1, 1, 1), 0)

    def test_later_round_requires_prev(self, rng):
        with pytest.raises(ValueError):
            memory_reduce(rng.normal((1, 1, 1, 1)), None, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            memory_reduce(np.empty((0, 1, 1, 1)), None, 0)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            memory_reduce(rng.normal((2, 1, 1)), None, 0)
        with pytest.raises(ShapeError):
            memory_reduce(rng.normal((2, 1, 1, 2)), make_bank(rng, 1, 1, 1), 1)


class TestMaxPatchNorm:
    @given(p=st.integers(1, 9000), c=st.sampled_from([1, 3, 16, 64]),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_equals_the_one_shot_float64_formula(self, p, c, dtype, seed):
        # up to 9000 * 64 values: several blocks of rows
        arr = (Rng(seed).normal((p, c)) * 10.0).astype(dtype).reshape(p, 1, c)
        flat = arr.reshape(-1, c).astype(np.float64)
        assert max_patch_norm(arr) == float(np.sqrt((flat * flat).sum(axis=1)).max())

    def test_non_finite_patch_propagates(self):
        arr = np.ones((20000, 4))
        arr[-1, 0] = np.nan
        assert np.isnan(max_patch_norm(arr))
        arr[-1, 0] = np.inf
        assert max_patch_norm(arr) == np.inf


class TestRoundMemory:
    @pytest.mark.parametrize("t", [0, 1])
    def test_extract_reduce_and_norm_hold_one_float64_copy(self, t):
        # the memories of a client's round: one float64 (N, H, W, C) stack;
        # every other buffer is one block or one sample in size
        rng = Rng(8)
        params = {**init_projection(rng.child("p"), 6, 16),
                  **init_generator(rng.child("g"), 16, (4, 4))}
        state = ClientModelState(client_id=0, params=params)
        data = rng.child("d").normal((128, 16, 16, 6)).astype(np.float32)
        prev = None if t == 0 else MemoryBank(data=rng.child("b").normal((16, 16, 16))
                                              .astype(np.float32))
        cfg = LossConfig(batch_size=4)
        stack_bytes = 128 * 16 * 16 * 16 * 8
        tracemalloc.start()
        try:
            memories = extract_all_memories(state, data, cfg)
            memory_reduce(memories, prev, t)
            max_patch_norm(memories)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert memories.nbytes == stack_bytes
        assert peak < 1.25 * stack_bytes
