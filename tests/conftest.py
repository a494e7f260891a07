from typing import Callable

import numpy as np
import pytest

from feddymem import tensorio
from feddymem.errors import NumericError
from feddymem.client import MemoryBank
from feddymem.features import FeaturePyramid
from feddymem.numerics import Rng


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """max |a-b| normalized by the largest magnitude present in either."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / scale)


@pytest.fixture
def rng():
    return Rng(1234)


def f64(rng: Rng, shape, scale=1.0):
    """float64 test tensor; gradient checks run the same ops in f64."""
    return rng.generator.standard_normal(shape) * scale


def write_pyramid(path, p: FeaturePyramid) -> int:
    """Write a pyramid in the format the file extractor reads
    (`features.read_pyramid`): one FDMC section per level."""
    sections = {f"level{i}": lvl for i, lvl in enumerate(p.levels)}
    return tensorio.write_container(path, sections)


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                     eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a
    time: the oracle that every hand-written backward pass is checked against."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.reshape(-1)
    xw = x.copy()
    xf = xw.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        fp = float(f(xw))
        xf[i] = orig - eps
        fm = float(f(xw))
        xf[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError("non-finite function value in finite_diff_grad")
        flat[i] = (fp - fm) / (2.0 * eps)
    return grad.astype(x.dtype)


def reference_memory_reduce(memories: np.ndarray, prev_bank: MemoryBank | None,
                            t: int) -> np.ndarray:
    """memory_reduce as whole-stack float64 arithmetic, before it read the
    stack in place: the float64 stack, its difference with the previous
    bank and the squared difference each a full copy. The floats the
    in-place version must reproduce, bit for bit."""
    stack = memories.astype(np.float64)
    if t == 0:
        weights = np.ones(len(memories), dtype=np.float64)
    else:
        diff = stack - prev_bank.data.astype(np.float64)
        weights = np.sqrt((diff * diff).sum(axis=(1, 2, 3)))
        if weights.sum() == 0.0:
            weights = np.ones(len(memories), dtype=np.float64)
    mean = np.tensordot(weights, stack, axes=1) / weights.sum()
    if t > 0:
        alpha = 1.0 / (t + 1)
        mean = alpha * mean + (1.0 - alpha) * prev_bank.data.astype(np.float64)
    return mean.astype(np.float32)
