"""Tests of the shared test helpers in conftest.py."""

import numpy as np
import pytest

from conftest import (f64, finite_diff_grad, max_rel_err, reference_fuse_pyramid,
                      reference_grid_sample, reference_grid_sample_backward,
                      reference_memory_reduce, reference_metric_loss)
from feddymem.client import LossConfig, MemoryBank
from feddymem.errors import NumericError
from feddymem.features import FeaturePyramid


class TestFiniteDiff:
    def test_sum_gives_ones(self):
        g = finite_diff_grad(lambda x: float(x.sum()), np.zeros((2, 3)), 1e-3)
        assert np.allclose(g, 1.0)

    def test_quadratic(self, rng):
        x = f64(rng, (4,))
        g = finite_diff_grad(lambda v: float((v * v).sum()), x, 1e-4)
        assert max_rel_err(g, 2 * x) < 1e-6

    def test_nonfinite_rejected(self):
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            finite_diff_grad(lambda x: float(np.log(x.sum())), np.zeros(2), 1e-3)


class TestReferenceMemoryReduce:
    def test_hand_scalar_case(self):
        # weights (1, 3) -> weighted mean 2.5; alpha=1/2 blends with prev 0
        mems = np.array([1.0, 3.0], dtype=np.float32).reshape(2, 1, 1, 1)
        prev = MemoryBank(data=np.zeros((1, 1, 1), dtype=np.float32))
        assert reference_memory_reduce(mems, prev, 1).item() == 1.25

    def test_round0_is_mean(self):
        mems = np.array([1.0, 2.0, 6.0]).reshape(3, 1, 1, 1)
        assert reference_memory_reduce(mems, None, 0).item() == 3.0


class TestReferenceMetricLoss:
    def test_hand_evaluated_pair_of_neighbours(self):
        # the patch at x = 2 has neighbours 1 and 0 at distances 1 and 2:
        # hinge (1 - 0.5) + (2 - 0.5) over 2, and unit vectors +1 and +1
        bank = MemoryBank(data=np.array([[[0.0], [1.0], [5.0]]], dtype=np.float32))
        m = np.full((1, 1, 1, 1), 2.0, dtype=np.float32)
        (loss,), grad = reference_metric_loss(m, bank, LossConfig(hinge_margin=0.5, knn_k=2))
        assert loss == 1.0
        assert grad.dtype == np.float32 and grad.item() == 1.0

    def test_a_patch_on_a_bank_row_adds_nothing(self):
        bank = MemoryBank(data=np.array([[[0.0, 0.0], [3.0, 4.0]]]))
        m = np.zeros((1, 1, 1, 2))
        (loss,), grad = reference_metric_loss(m, bank, LossConfig(hinge_margin=0.0, knn_k=2))
        assert loss == 2.5
        assert grad.reshape(-1).tolist() == [-0.3, -0.4]


class TestReferenceSampling:
    def test_integer_lattice_reads_the_grid(self, rng):
        grid = f64(rng, (3, 4, 2))
        ys, xs = np.meshgrid(np.arange(3), np.arange(4), indexing="ij")
        coords = np.stack([xs, ys], axis=2)[None].astype(np.float64)
        assert np.array_equal(reference_grid_sample(grid, coords)[0], grid)

    def test_backward_of_a_midpoint_splits_evenly(self):
        grid = np.zeros((2, 2, 1))
        coords = np.array([[[[0.5, 0.0]]]])
        g_grid, _ = reference_grid_sample_backward(grid, coords, np.ones((1, 1, 1, 1)))
        assert g_grid[..., 0].tolist() == [[0.5, 0.5], [0.0, 0.0]]


class TestReferenceFusePyramid:
    def test_constant_levels_stay_constant(self):
        p = FeaturePyramid(levels=[np.full((5, 3, 1), 2.0), np.full((2, 2, 2), -1.0)])
        fused = reference_fuse_pyramid(p)
        assert fused.shape == (5, 3, 3)
        assert np.all(fused[..., 0] == 2.0) and np.all(fused[..., 1:] == -1.0)
