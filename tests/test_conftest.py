"""Tests of the shared test helpers in conftest.py."""

import numpy as np
import pytest

from conftest import f64, finite_diff_grad, max_rel_err, reference_memory_reduce
from feddymem.client import MemoryBank
from feddymem.errors import NumericError


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
