import contextlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import f64, finite_diff_grad, max_rel_err
from feddymem.client import LossConfig
from feddymem.errors import NumericError, ShapeError
from feddymem.numerics import (
    AdamState,
    Reference,
    Rng,
    adam_step,
    bilinear_resize,
    conv1x1_backward,
    conv1x1_forward,
    knn,
    pairwise_dist,
)
import feddymem.numerics as numerics


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).child("x", 3).normal((4, 4))
        b = Rng(42).child("x", 3).normal((4, 4))
        assert np.array_equal(a, b)

    def test_different_path_different_stream(self):
        a = Rng(42).child("x", 3).normal((4, 4))
        b = Rng(42).child("x", 4).normal((4, 4))
        assert not np.array_equal(a, b)

    def test_reproducible_across_instances(self):
        # rebuilding the stream from scratch must not depend on draw history
        r = Rng(7).child("a")
        _ = r.normal((2,))
        fresh = Rng(7).child("a").normal((2,))
        first = Rng(7).child("a")
        assert np.array_equal(first.normal((2,)), fresh)


class TestConv1x1:
    def test_identity_weight(self):
        x = np.arange(12, dtype=np.float32).reshape(1, 2, 3, 2)
        out = conv1x1_forward(x, np.eye(2, dtype=np.float32), np.zeros(2, np.float32))
        assert np.array_equal(out, x)

    def test_hand_sum(self):
        x = np.full((1, 2, 2, 2), 0.0, dtype=np.float32)
        x[..., 0] = 3.0
        x[..., 1] = 4.0
        out = conv1x1_forward(x, np.array([[1.0], [1.0]], np.float32), np.zeros(1, np.float32))
        assert np.allclose(out, 7.0)

    def test_matches_per_pixel_oracle(self, rng):
        x = f64(rng.child(1), (2, 3, 3, 2))
        w = f64(rng.child(2), (2, 3))
        b = f64(rng.child(3), (3,))
        out = conv1x1_forward(x, w, b)
        oracle = np.empty((2, 3, 3, 3))
        for n in range(2):
            for i in range(3):
                for j in range(3):
                    oracle[n, i, j] = x[n, i, j] @ w + b
        assert max_rel_err(out, oracle) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            conv1x1_forward(np.zeros((1, 2, 2, 3), np.float32),
                            np.zeros((2, 2), np.float32), np.zeros(2, np.float32))
        with pytest.raises(ShapeError):
            conv1x1_forward(np.zeros((2, 2, 2), np.float32),
                            np.zeros((2, 2), np.float32), np.zeros(2, np.float32))

    def test_backward_zero_grad(self, rng):
        x = f64(rng, (2, 2, 2, 3))
        w = f64(rng.child(1), (3, 2))
        gx, gw, gb = conv1x1_backward(x, w, np.zeros((2, 2, 2, 2)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_backward_scalar_product_rule(self):
        x = np.full((1, 1, 1, 1), 3.0)
        w = np.full((1, 1), 5.0)
        g = np.full((1, 1, 1, 1), 2.0)
        gx, gw, gb = conv1x1_backward(x, w, g)
        assert gx.item() == 10.0 and gw.item() == 6.0 and gb.item() == 2.0

    def test_backward_matches_finite_differences(self, rng):
        x = f64(rng.child(10), (2, 3, 2, 4))
        w = f64(rng.child(11), (4, 3))
        b = f64(rng.child(12), (3,))
        proj = f64(rng.child(13), (2, 3, 2, 3))  # fixed direction for a scalar loss

        def loss_of_x(xv):
            return float((conv1x1_forward(xv, w, b) * proj).sum())

        def loss_of_w(wv):
            return float((conv1x1_forward(x, wv, b) * proj).sum())

        gx, gw, gb = conv1x1_backward(x, w, proj)
        assert max_rel_err(gx, finite_diff_grad(loss_of_x, x, 1e-3)) < 1e-3
        assert max_rel_err(gw, finite_diff_grad(loss_of_w, w, 1e-3)) < 1e-3


class TestBilinearResize:
    def test_identity(self, rng):
        x = f64(rng, (4, 5, 2))
        assert np.array_equal(bilinear_resize(x, (4, 5)), x)

    def test_single_point_fills(self):
        x = np.array([[[2.5, -1.0]]], dtype=np.float32)
        out = bilinear_resize(x, (3, 4))
        assert out.shape == (3, 4, 2)
        assert np.all(out[..., 0] == 2.5) and np.all(out[..., 1] == -1.0)

    def test_2x2_to_4x4_hand_weights(self):
        x = np.zeros((2, 2, 1), dtype=np.float64)
        x[0, 0, 0] = 1.0
        out = bilinear_resize(x, (4, 4))[..., 0]
        # align-corners source coords are i/3 * 1; weight on the (0,0) corner
        # is (1 - y/3)(1 - x/3)
        expected = np.array([[(1 - i / 3) * (1 - j / 3) for j in range(4)] for i in range(4)])
        assert max_rel_err(out, expected) < 1e-12

    def test_constant_exact(self):
        x = np.full((3, 3, 1), 3.7, dtype=np.float32)
        out = bilinear_resize(x, (7, 5))
        assert np.all(out == np.float32(3.7))

    def test_zero_target_rejected(self):
        with pytest.raises(ShapeError):
            bilinear_resize(np.zeros((2, 2, 1), np.float32), (0, 3))

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 7), st.integers(1, 7),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_output_within_input_range(self, h, w, h0, w0, seed):
        x = Rng(seed).normal((h, w, 2))
        out = bilinear_resize(x, (h0, w0))
        eps = 1e-5
        for c in range(2):
            assert out[..., c].min() >= x[..., c].min() - eps
            assert out[..., c].max() <= x[..., c].max() + eps

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 9), st.integers(1, 9),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_per_output_row_lerp(self, h, w, h0, w0, dtype, seed):
        # oracle: gather and lerp both source rows of every output row
        x = Rng(seed).normal((h, w, 3)).astype(dtype)
        y0, y1, fy = numerics._resize_axis_coords(h, h0, x.dtype)
        x0, x1, fx = numerics._resize_axis_coords(w, w0, x.dtype)
        fy, fx = fy[:, None, None], fx[None, :, None]
        top = x[y0][:, x0] + fx * (x[y0][:, x1] - x[y0][:, x0])
        bot = x[y1][:, x0] + fx * (x[y1][:, x1] - x[y1][:, x0])
        oracle = x if (h0, w0) == (h, w) else top + fy * (bot - top)
        out = bilinear_resize(x, (h0, w0))
        assert out.dtype == dtype and np.array_equal(out, oracle)


class TestPairwiseDist:
    def test_zero_diagonal(self, rng):
        a = f64(rng, (5, 3))
        d = pairwise_dist(a, a)
        assert np.all(np.diag(d) == 0.0)

    def test_3_4_5_triangle(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        assert pairwise_dist(a, b)[0, 0] == 5.0

    def test_matches_loop_oracle(self, rng):
        a = f64(rng.child(1), (6, 4))
        b = f64(rng.child(2), (5, 4))
        d = pairwise_dist(a, b)
        for i in range(6):
            for j in range(5):
                assert abs(d[i, j] - np.linalg.norm(a[i] - b[j])) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            pairwise_dist(np.zeros((2, 3)), np.zeros((2, 4)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry_and_triangle_inequality(self, seed):
        r = Rng(seed)
        a = r.child(1).normal((4, 3)).astype(np.float64)
        b = r.child(2).normal((4, 3)).astype(np.float64)
        c = r.child(3).normal((4, 3)).astype(np.float64)
        assert np.allclose(pairwise_dist(a, b), pairwise_dist(b, a).T)
        dab, dbc, dac = pairwise_dist(a, b), pairwise_dist(b, c), pairwise_dist(a, c)
        for i in range(4):
            for k in range(4):
                assert dac[i, k] <= (dab[i] + dbc[:, k]).min() + 1e-9


def knn_oracle(a, b, k):
    """Full explicit-difference row, stable argsort: the kernel's contract."""
    d = pairwise_dist(a, b)
    idx = np.argsort(d, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(d, idx, axis=1)


def assert_same_as_oracle(a, b, k):
    idx, dist = knn(a, Reference(b), k)
    want_idx, want_dist = knn_oracle(a, b, k)
    assert np.array_equal(idx, want_idx)
    assert dist.dtype == want_dist.dtype
    assert np.array_equal(dist, want_dist)


def record_lower(monkeypatch):
    """Record every block of bounds `GramFloor.lower` returns."""
    blocks = []
    real = numerics.GramFloor.lower

    def lower(self, rows):
        blocks.append(real(self, rows))
        return blocks[-1]

    monkeypatch.setattr(numerics.GramFloor, "lower", lower)
    return blocks


def assert_within_budget(calls, blocks, budget):
    """No `pairwise_dist` call computes, and no block of bounds holds, more
    than `budget` pairs."""
    for rows, b, *cols in calls:
        assert rows.shape[0] * (cols[0].shape[1] if cols else b.shape[0]) <= budget
    assert all(lb.size <= budget for lb in blocks)


@contextlib.contextmanager
def spy(name):
    """Record the arguments of every call the kernel makes to numerics.<name>."""
    calls = []
    real = getattr(numerics, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    setattr(numerics, name, record)
    try:
        yield calls
    finally:
        setattr(numerics, name, real)


@contextlib.contextmanager
def built_references():
    """Record every `Reference` built while the block runs."""
    built = []
    real = numerics.Reference.__init__

    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self)

    numerics.Reference.__init__ = init
    try:
        yield built
    finally:
        numerics.Reference.__init__ = real


@st.composite
def knn_case(draw, dtype_a=np.float32, dtype_b=np.float32):
    """Queries, a reference set and a k; in half the cases the rows of both
    come from a pool of at most four rows, so ties are common."""
    c = draw(st.integers(1, 6))
    q = draw(st.integers(1, 40))
    p = draw(st.integers(1, 12))
    elements = st.floats(-100, 100, width=32)
    if draw(st.booleans()):
        pool = draw(hnp.arrays(np.float32, (draw(st.integers(1, 4)), c), elements=elements))
        pick = st.integers(0, len(pool) - 1)
        a = pool[draw(st.lists(pick, min_size=p, max_size=p))]
        b = pool[draw(st.lists(pick, min_size=q, max_size=q))]
    else:
        a = draw(hnp.arrays(np.float32, (p, c), elements=elements))
        b = draw(hnp.arrays(np.float32, (q, c), elements=elements))
    k = draw(st.integers(1, q))
    return a.astype(dtype_a), b.astype(dtype_b), k


class TestKnnKernel:
    """`knn` must equal a stable argsort of the full `pairwise_dist` row,
    indices and distances bit for bit, whatever the Gram filter decides."""

    @given(knn_case())
    @settings(max_examples=150, deadline=None)
    def test_float32_matches_oracle(self, case):
        assert_same_as_oracle(*case)

    @given(knn_case(dtype_a=np.float64, dtype_b=np.float64))
    @settings(max_examples=60, deadline=None)
    def test_float64_matches_oracle(self, case):
        assert_same_as_oracle(*case)

    @given(knn_case(dtype_a=np.float64, dtype_b=np.float32))
    @settings(max_examples=60, deadline=None)
    def test_float64_queries_float32_reference(self, case):
        assert_same_as_oracle(*case)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0, 1]), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_k_equal_to_and_one_below_q(self, seed, below, c):
        r = Rng(seed)
        q = 12 + 8
        a = r.child(1).normal((9, c))
        b = r.child(2).normal((q, c))
        b[3] = b[7]  # a duplicate reference row
        assert_same_as_oracle(a, b, q - below)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_duplicate_rows_tie_to_lower_index(self, seed, k):
        r = Rng(seed)
        rows = r.child(1).normal((3, 4))
        b = rows[r.child(2).generator.integers(0, 3, size=30)]
        a = np.concatenate([rows, r.child(3).normal((5, 4))])
        assert_same_as_oracle(a, b, k)
        idx, dist = knn(rows[:1], Reference(b), 1)
        assert idx[0, 0] == np.flatnonzero((b == rows[0]).all(axis=1))[0]
        assert dist[0, 0] == 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30))
    @settings(max_examples=30, deadline=None)
    def test_all_equal_reference_ties_everywhere(self, seed, k):
        b = np.full((30, 3), 0.25, dtype=np.float32)
        a = Rng(seed).normal((6, 3))
        idx, _ = knn(a, Reference(b), k)
        assert np.array_equal(idx, np.tile(np.arange(k), (6, 1)))
        assert_same_as_oracle(a, b, k)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_cancelling_offset_falls_back_to_explicit_rows(self, seed, k, c):
        # at |x| ~ 1e8 the float64 Gram error bound exceeds every true
        # squared distance, so every column of every row is a candidate
        r = Rng(seed)
        a = 1e8 + r.child(1).uniform(-1.0, 1.0, (7, c), dtype=np.float64)
        b = 1e8 + r.child(2).uniform(-1.0, 1.0, (k + 8 + 5, c), dtype=np.float64)
        with spy("_knn_near_ties") as calls:
            assert_same_as_oracle(a, b, k)
        assert sum(rows.shape[0] for rows, *_ in calls) == a.shape[0]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4),
           st.sampled_from([1e-3, 1e-2, 0.1, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_large_offset_tiny_spread_float32(self, seed, k, spread):
        # at |x| ~ 1e4 the float32 Gram error, some 1e-6 of the squared
        # norms' ~1e9, dwarfs squared distances of a spread this small, so
        # float32 certification fails on most rows and they take the
        # near-tie path; a spread of 1e-3 is about float32's spacing at 1e4,
        # so many coordinates and distances tie too
        r = Rng(seed)
        c = 8
        offset = 1e4 * r.child(0).uniform(-1.0, 1.0, (1, c), dtype=np.float64)
        a = (offset + spread * r.child(1).normal((20, c), dtype=np.float64)).astype(np.float32)
        b = (offset + spread * r.child(2).normal((30, c), dtype=np.float64)).astype(np.float32)
        with spy("_knn_near_ties") as calls:
            assert_same_as_oracle(a, b, k)
        assert sum(rows.shape[0] for rows, *_ in calls) >= a.shape[0] // 2

    def test_underflowing_squares_tie_at_zero(self):
        # float32 squares of 2e-25 and 3e-26 underflow to 0, so every column
        # but the large ones is at distance 0 and index 0 must win, although
        # the float64 Gram form ranks column 0 behind columns 1..9
        b = np.array([[2e-25]] + [[3e-26]] * (8 + 1) + [[1.0 + j] for j in range(10)],
                     dtype=np.float32)
        a = np.zeros((1, 1), dtype=np.float32)
        assert_same_as_oracle(a, b, 1)
        assert knn(a, Reference(b), 1)[0][0, 0] == 0

    def test_chunks_match_oracle(self, rng, monkeypatch):
        monkeypatch.setattr(numerics, "KNN_BOUNDS", 7 * 50 + 3)
        a = rng.child(1).normal((40, 5))
        b = rng.child(2).normal((50, 5))
        blocks = record_lower(monkeypatch)
        with spy("pairwise_dist") as calls:
            assert_same_as_oracle(a, b, 4)
        assert [lb.shape for lb in blocks] == [(7, 50)] * 5 + [(5, 50)]
        assert_within_budget(calls, blocks, 7 * 50 + 3)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_equidistant_columns_are_near_ties(self, seed, k, c):
        # the 2c columns at +-0.5 e_i lie exactly 0.5 from the origin, so
        # more than k floors sit under the seed bound of the origin's row;
        # every coordinate of the far columns is at least 3, so none of
        # them is nearer the origin than the ring
        r = Rng(seed)
        ring = 0.5 * np.concatenate([np.eye(c), -np.eye(c)]).astype(np.float32)
        far = np.abs(r.child(1).normal((20, c))) + 3.0
        b = np.concatenate([far, ring])[r.child(2).permutation(20 + 2 * c)]
        a = np.concatenate([np.zeros((1, c), np.float32), r.child(3).normal((5, c))])
        k = min(k, 2 * c - 1)
        with spy("_knn_near_ties") as calls:
            assert_same_as_oracle(a, b, k)
        assert sum(rows.shape[0] for rows, *_ in calls) >= 1

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=40, deadline=None)
    def test_duplicates_straddling_kth_place(self, seed, k, dtype):
        # five copies of one row are each query's nearest, so the k-th
        # place falls inside a group of equal distances
        r = Rng(seed)
        b = r.child(1).normal((30, 4)).astype(dtype)
        b[[5, 11, 17, 23]] = b[2]
        a = (b[2] + 1e-3 * r.child(2).normal((6, 4))).astype(dtype)
        with spy("_knn_near_ties") as calls:
            assert_same_as_oracle(a, b, k)
        assert sum(rows.shape[0] for rows, *_ in calls) == a.shape[0]

    @pytest.mark.parametrize("case", ["bound-first", "k = Q", "unusable Gram form"])
    def test_chunks_bound_every_distance_block(self, case, rng, monkeypatch):
        monkeypatch.setattr(numerics, "KNN_BOUNDS", 7 * 25)
        a = rng.child(1).normal((40, 3), dtype=np.float64)
        b = rng.child(2).normal((25, 3), dtype=np.float64)
        k = {"bound-first": 4, "k = Q": 25, "unusable Gram form": 4}[case]
        if case == "unusable Gram form":
            # squared norms overflow float64; distances stay finite
            a, b = 1e154 * (1 + 1e-10 * a), 1e154 * (1 + 1e-10 * b)
            assert not numerics.GramFloor(a, Reference(b)).usable
        blocks = record_lower(monkeypatch)
        with spy("pairwise_dist") as calls:
            assert_same_as_oracle(a, b, k)
        # one or more calls per block of 7 rows, none of them wider
        assert len(calls) >= 6
        assert all(rows.shape[0] <= 7 for rows, *_ in calls)
        assert len(blocks) == (6 if case == "bound-first" else 0)
        assert_within_budget(calls, blocks, 7 * 25)

    def test_one_row_per_block_when_q_exceeds_the_budget(self, rng, monkeypatch):
        monkeypatch.setattr(numerics, "KNN_BOUNDS", 10)
        a = rng.child(1).normal((4, 3))
        b = rng.child(2).normal((25, 3))
        blocks = record_lower(monkeypatch)
        assert_same_as_oracle(a, b, 2)
        assert [lb.shape for lb in blocks] == [(1, 25)] * 4

    def test_selected_pairs_equal_full_matrix(self, rng):
        a = rng.child(1).normal((30, 16))
        b = rng.child(2).normal((25, 16))
        cols = rng.child(3).generator.integers(0, 25, size=(30, 6))
        full = pairwise_dist(a, b)
        assert np.array_equal(pairwise_dist(a, b, cols), np.take_along_axis(full, cols, axis=1))

    def test_cols_shape_checked(self):
        with pytest.raises(ShapeError):
            pairwise_dist(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((2, 1), dtype=np.int64))

    @pytest.mark.parametrize("where", ["query", "reference"])
    def test_non_finite_input_is_numeric_error(self, where):
        a = np.zeros((3, 2), dtype=np.float32)
        b = np.ones((20, 2), dtype=np.float32)
        (a if where == "query" else b)[1, 0] = np.inf
        with pytest.raises(NumericError):
            knn(a, Reference(b), 1)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            knn(np.zeros((1, 2)), Reference(np.zeros((3, 2))), 4)

    def test_wider_queries_rebuild_the_reference_side_for_the_call(self, rng):
        # float32 rows get a float32 reference side; float64 queries
        # promote the bounds to float64, so the call builds a float64 side
        # of its own and leaves the prepared one as it was
        b = rng.child(2).normal((25, 3))
        ref = Reference(b)
        operand = ref.operand.copy()
        assert ref.dtype == np.float32 and operand.dtype == np.float32
        a = rng.child(1).normal((6, 3), dtype=np.float64)
        want_idx, want_dist = knn_oracle(a, b, 2)
        with built_references() as built:
            idx, dist = knn(a, ref, 2)
        assert [r.dtype for r in built] == [np.float64]
        assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)
        assert dist.dtype == np.float64
        assert np.array_equal(ref.operand, operand) and ref.operand.dtype == np.float32
        assert numerics.GramFloor(a, ref).lower(slice(None)).dtype == np.float64
        # float32 queries, and float64 queries against a float64 side, reuse it
        with built_references() as built:
            knn(a.astype(np.float32), ref, 2)
            knn(a.astype(np.float32), Reference(b.astype(np.float64)), 2)
        assert [r.dtype for r in built] == [np.float64]
        assert numerics.GramFloor(a.astype(np.float32), ref).lower(slice(None)).dtype == np.float32


@st.composite
def gram_case(draw):
    """Rows of a and b drawn, with repeats, from one pool of rows that share
    a common offset of up to 1e4, so the squared norms can dwarf the squared
    distances; the pool's spread runs down to below the offset's roundoff."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    c = draw(st.integers(1, 64))
    r = Rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.floats(-1e4, 1e4))
    spread = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 1.0, 10.0]))
    pool = (offset + spread * r.child(1).normal((6, c), dtype=np.float64)).astype(dtype)
    pick = st.integers(0, len(pool) - 1)
    a = pool[draw(st.lists(pick, min_size=1, max_size=8))]
    b = pool[draw(st.lists(pick, min_size=1, max_size=12))]
    return a, b, r.child(2)


class TestGramFloor:
    """The invariant `knn` and k-means++ seeding rest on: no Gram bound
    drops a pair whose explicit squared distance could matter."""

    @given(gram_case())
    @settings(max_examples=300, deadline=None)
    def test_floors_and_near_never_miss_an_explicit_distance(self, case):
        a, b, r = case
        diff = a[:, None, :] - b[None, :, :]
        q = np.einsum("pqc,pqc->pq", diff, diff).astype(np.float64)
        gram = numerics.GramFloor(a, Reference(b))
        assert gram.usable
        assert (gram.floor(gram.lower(slice(None))) <= q).all()
        # each column's D^2 sits just above one row's explicit distance, or
        # at zero, which no pair can be below
        at = r.generator.integers(0, len(a), size=len(b))
        d2 = np.nextafter(q[at, np.arange(len(b))], np.inf)
        d2[r.generator.random(len(b)) < 0.2] = 0.0
        kept = np.zeros(q.shape, dtype=bool)
        kept[gram.near(np.arange(len(a)), gram.threshold(d2))] = True
        assert kept[q < d2].all()

    @given(gram_case(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_threshold_is_elementwise(self, case, seed):
        # seeding keeps t and rewrites it at a few columns: those must hold
        # the bits a fresh threshold of the whole D^2 would
        a, b, _ = case
        gram = numerics.GramFloor(a, Reference(b))
        r = Rng(seed)
        d2 = np.abs(r.child(1).normal(len(b), dtype=np.float64)) * 10.0 ** r.integers(-30, 30)
        d2[r.generator.random(len(b)) < 0.2] = 0.0
        idx = r.generator.integers(0, len(b), size=r.integers(0, 2 * len(b)))
        whole, part = gram.threshold(d2), gram.threshold(d2[idx])
        assert whole.dtype == part.dtype == np.result_type(a.dtype, b.dtype, np.float32)
        assert whole[idx].tobytes() == part.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keep_offsets_the_product_roundoff(self, dtype):
        # the factor of ||a||^2 + ||b||^2 in the bound's error (module
        # docstring) is negative at every C the bounds are used at, and the
        # bounds are unusable from the first C where the derivation stops
        u = Fraction(float(np.finfo(dtype).eps)) / 2

        def gamma(n):
            return n * u / (1 - n * u)

        last = int((1 / (2 * u) - 16) / 4)
        while (4 * last + 16) * u >= Fraction(1, 2):
            last -= 1
        for c in [1, 2, 16, 64, 1024, 2**16, last]:
            keep = 1 - gamma(4 * c + 16)
            assert keep * (1 + u) ** 2 * (1 + gamma(c)) - 1 + (2 + gamma(c)) * gamma(c + 2) < 0
        if dtype == np.float32:
            for c, usable in [(last, True), (last + 1, False)]:
                a = np.zeros((1, c), dtype=dtype)
                assert numerics.GramFloor(a, Reference(a)).usable == usable

    def test_near_keeps_every_pair_when_unusable(self):
        a = np.full((3, 2), 1e154)
        gram = numerics.GramFloor(a, Reference(a[:2]))
        assert not gram.usable
        rows, cols = gram.near(np.array([2, 0]), gram.threshold(np.zeros(2)))
        assert sorted(zip(rows, cols)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reference_operand_is_row_major(self, dtype, rng):
        # seeding's few-row products are 1.5-3x slower against a
        # column-major operand; the values are [-2b^T; 1; keep ||b||^2]
        b = rng.child(1).normal((37, 5), dtype=dtype)
        ref = Reference(b)
        assert ref.operand.flags.c_contiguous and ref.operand.dtype == dtype
        keep = 1.0 - numerics._gamma(4 * 5 + 16, float(np.finfo(dtype).eps) / 2)
        want = np.concatenate([-2.0 * b.T, np.ones((1, 37), dtype),
                               (keep * np.einsum("pc,pc->p", b, b))[None]])
        assert ref.operand.tobytes() == np.ascontiguousarray(want).tobytes()


def zero_adam(params):
    """Zero moments keyed like params, as a fresh client holds them."""
    return AdamState(m={k: np.zeros_like(p) for k, p in params.items()},
                     v={k: np.zeros_like(p) for k, p in params.items()})


class TestAdam:
    def test_zero_grad_no_decay_keeps_params(self):
        p = np.array([1.0, -2.0], dtype=np.float32)
        params = {"p": p}
        state = zero_adam(params)
        adam_step(params, {"p": np.zeros_like(p)}, state, LossConfig(weight_decay=0.0))
        assert np.array_equal(params["p"], p)
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        # every tensor moves in the one step, whatever its shape
        g = {"a": np.array([0.5, -2.0, 1e-3]), "b": np.array([[4.0], [-0.25]])}
        params = {k: np.zeros_like(v) for k, v in g.items()}
        state = zero_adam(params)
        adam_step(params, g, state, LossConfig(learning_rate=0.01, weight_decay=0.0))
        for k in g:
            assert max_rel_err(params[k], -0.01 * g[k] / (np.abs(g[k]) + 1e-8)) < 1e-6
        assert state.step == 1

    def test_two_steps_match_hand_unrolled(self):
        lr, b1, b2, eps = 0.01, 0.8, 0.99, 1e-7
        cfg = LossConfig(learning_rate=lr, beta1=b1, beta2=b2, adam_eps=eps, weight_decay=0.0)
        g = {"a": np.array([0.3]), "b": np.array([-1.5])}
        params = {"a": np.array([1.0]), "b": np.array([0.5])}
        start = {k: float(v[0]) for k, v in params.items()}
        state = zero_adam(params)
        adam_step(params, g, state, cfg)
        adam_step(params, g, state, cfg)
        assert state.step == 2

        for k in params:
            m = v = 0.0
            pref = start[k]
            for step in (1, 2):
                m = b1 * m + (1 - b1) * g[k][0]
                v = b2 * v + (1 - b2) * g[k][0] ** 2
                mh = m / (1 - b1 ** step)
                vh = v / (1 - b2 ** step)
                pref = pref - lr * mh / (np.sqrt(vh) + eps)
            assert abs(params[k][0] - pref) < 1e-12, k

    def test_weight_decay_as_l2(self):
        params = {"p": np.array([2.0])}
        adam_step(params, {"p": np.zeros(1)}, zero_adam(params),
                  LossConfig(learning_rate=0.1, weight_decay=0.5))
        # grad becomes wd*p = 1.0; first step moves by ~lr
        assert params["p"][0] < 2.0

    def test_nonfinite_grad_rejected(self):
        params = {"a": np.ones(2, dtype=np.float32), "b": np.zeros(2, dtype=np.float32)}
        state = zero_adam(params)
        grads = {"a": np.ones(2, dtype=np.float32),
                 "b": np.array([np.nan, 0.0], dtype=np.float32)}
        with pytest.raises(NumericError):
            adam_step(params, grads, state, LossConfig())
        # the finite gradient of "a" moved nothing either
        assert np.array_equal(params["a"], np.ones(2)) and state.step == 0
        assert not state.m["a"].any()
