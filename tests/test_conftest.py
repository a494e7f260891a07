"""Tests of the shared test helpers in conftest.py."""

import numpy as np
import pytest

from conftest import f64, finite_diff_grad, max_rel_err
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
