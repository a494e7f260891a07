from typing import Callable

import numpy as np
import pytest

from feddymem import tensorio
from feddymem.errors import NumericError
from feddymem.client import MemoryBank
from feddymem.features import FeaturePyramid
from feddymem.numerics import Rng, sum_samples


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


def _reference_corners(grid: np.ndarray, coords: np.ndarray):
    hg, wg, _ = grid.shape
    px = coords[..., 0]
    py = coords[..., 1]
    if not np.isfinite(coords).all():
        raise NumericError("sample coordinates contain non-finite values")
    if px.min() < 0 or px.max() > wg - 1 or py.min() < 0 or py.max() > hg - 1:
        raise ValueError("sample coordinates outside grid index range")
    x0 = np.floor(px).astype(np.int64)
    y0 = np.floor(py).astype(np.int64)
    fx = (px - x0).astype(coords.dtype)
    fy = (py - y0).astype(coords.dtype)
    x1 = np.minimum(x0 + 1, wg - 1)
    y1 = np.minimum(y0 + 1, hg - 1)
    return x0, x1, y0, y1, fx, fy


def reference_grid_sample(grid: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """grid_sample as four 2-D fancy gathers and a whole-array weighted sum,
    before it read the grid through one sampling plan per pass. The floats
    the planned version must reproduce, bit for bit."""
    x0, x1, y0, y1, fx, fy = _reference_corners(grid, coords)
    w00 = ((1 - fy) * (1 - fx))[..., None]
    w01 = ((1 - fy) * fx)[..., None]
    w10 = (fy * (1 - fx))[..., None]
    w11 = (fy * fx)[..., None]
    return (w00 * grid[y0, x0] + w01 * grid[y0, x1]
            + w10 * grid[y1, x0] + w11 * grid[y1, x1])


def reference_grid_sample_backward(grid: np.ndarray, coords: np.ndarray,
                                   grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """grid_sample_backward before the sampling plan: its corners set up
    again from the coordinates and its cells read by 2-D fancy gathers."""
    x0, x1, y0, y1, fx, fy = _reference_corners(grid, coords)
    g00, g01, g10, g11 = grid[y0, x0], grid[y0, x1], grid[y1, x0], grid[y1, x1]
    n = coords.shape[0]
    hg, wg, c = grid.shape
    grad_grid = np.zeros(n * grid.size, dtype=grid.dtype)
    copies = np.arange(n)[:, None, None] * (hg * wg)
    channels = np.arange(c)
    for yi, xi, weight in ((y0, x0, (1 - fy) * (1 - fx)), (y0, x1, (1 - fy) * fx),
                           (y1, x0, fy * (1 - fx)), (y1, x1, fy * fx)):
        flat = ((copies + yi * wg + xi)[..., None] * c + channels).reshape(-1)
        np.add.at(grad_grid, flat, (weight[..., None] * grad_out).reshape(-1))
    grad_grid = grad_grid.reshape((n,) + grid.shape)
    d_dfx = (1 - fy)[..., None] * (g01 - g00) + fy[..., None] * (g11 - g10)
    d_dfy = (1 - fx)[..., None] * (g10 - g00) + fx[..., None] * (g11 - g01)
    grad_coords = np.empty_like(coords)
    grad_coords[..., 0] = (grad_out * d_dfx).sum(axis=3)
    grad_coords[..., 1] = (grad_out * d_dfy).sum(axis=3)
    return sum_samples(grad_grid), grad_coords


def _reference_resize(x: np.ndarray, target: tuple[int, int]) -> np.ndarray:
    def axis_coords(n_in, n_out, dtype):
        if n_out == 1 or n_in == 1:
            src = np.zeros(n_out, dtype=dtype)
        else:
            src = np.arange(n_out, dtype=dtype) * ((n_in - 1) / (n_out - 1))
        lo = np.floor(src).astype(np.int64)
        return lo, np.minimum(lo + 1, n_in - 1), (src - lo).astype(dtype)

    y0, y1, fy = axis_coords(x.shape[0], int(target[0]), x.dtype)
    x0, x1, fx = axis_coords(x.shape[1], int(target[1]), x.dtype)
    left = x[:, x0]
    rows = left + fx[None, :, None] * (x[:, x1] - left)
    top = rows[y0]
    return top + fy[:, None, None] * (rows[y1] - top)


def reference_fuse_pyramid(p: FeaturePyramid) -> np.ndarray:
    """fuse_pyramid as whole-array resizes and one concatenate, before it
    lerped each level in place into its channel slice of the output."""
    h0, w0 = p.levels[0].shape[:2]
    parts = [lvl if lvl.shape[:2] == (h0, w0) else _reference_resize(lvl, (h0, w0))
             for lvl in p.levels]
    return np.concatenate(parts, axis=2)
