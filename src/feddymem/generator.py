"""Trainable memory generator.

Pipeline for each projected feature map p of shape (H, W, C) in a
(B, H, W, C) stack:

    p_hat  = conv1x1(concat(p, X, Y))            coordinate convolution
    coords = tanh(conv1x1(relu(conv1x1(p_hat)))) per-pixel (x, y) in [-1, 1]
    norm   = affine map of coords onto grid index space   (x in [0, Wg-1], ...)
    o      = bilinear sample of the trainable grid at norm
    m      = conv1x1(concat(o, p_hat))

X and Y are Cartesian coordinate channels, linear in pixel index and
normalized to [-1, 1]. The grid is an (Hg, Wg, C) trainable array making the
memory feature space continuous. The backward pass is written by hand; at
the floor discontinuities of the sampler the almost-everywhere derivative is
used (corner indices treated as constants).

The parameters are one mapping, in this key order: coord_w (C+2, C) and
coord_b (C,) of the coordinate convolution, phi1_w (C, Ch), phi1_b (Ch,),
phi2_w (Ch, 2) and phi2_b (2,) of the coordinate map, out_w (2C, C) and
out_b (C,) of the output convolution, and grid (Hg, Wg, C).
`generator_backward` returns the gradients under the same keys.

`generator_forward` is the one forward body for training and inference. The
cache of intermediates that `generator_backward` reads is built only for
training; inference (memory extraction and scoring) frees each intermediate
once the next one is formed.

Each forward pass sets the sampler's corners up once, as a `SamplingPlan`:
the flat cell index y * Wg + x of every pixel's four corners, and its
fractions. `grid_sample` gathers each corner's cells with one `take` on the
grid's (Hg * Wg, C) view and sums the weighted corners in place, in the
order of the plain four-term sum, so the bits are those of
w00 g00 + w01 g01 + w10 g10 + w11 g11 formed array by array. The training
cache keeps the plan, so `grid_sample_backward` neither sets the corners up
again nor gathers cells by 2-D fancy indexing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericError, ShapeError
from .numerics import (DTYPE, Rng, conv1x1_backward, conv1x1_forward, sum_samples,
                       xavier_normal, xavier_uniform)


def init_generator(rng: Rng, channels: int, grid_hw: tuple[int, int] = (8, 8),
                   phi_hidden: int | None = None) -> dict[str, np.ndarray]:
    """Xavier-uniform weights, zero biases, Xavier-normal grid."""
    c = channels
    ch = phi_hidden if phi_hidden is not None else c
    hg, wg = grid_hw
    if hg < 2 or wg < 2:
        raise ValueError("grid extents must be >= 2")
    return {
        "coord_w": xavier_uniform(rng.child("coord"), c + 2, c, (c + 2, c)),
        "coord_b": np.zeros(c, dtype=DTYPE),
        "phi1_w": xavier_uniform(rng.child("phi1"), c, ch, (c, ch)),
        "phi1_b": np.zeros(ch, dtype=DTYPE),
        "phi2_w": xavier_uniform(rng.child("phi2"), ch, 2, (ch, 2)),
        "phi2_b": np.zeros(2, dtype=DTYPE),
        "out_w": xavier_uniform(rng.child("out"), 2 * c, c, (2 * c, c)),
        "out_b": np.zeros(c, dtype=DTYPE),
        "grid": xavier_normal(rng.child("grid"), c, c, (hg, wg, c)),
    }


def coordinate_channels(h: int, w: int, dtype=DTYPE) -> tuple[np.ndarray, np.ndarray]:
    """X, Y channels in [-1, 1], linear in pixel index; a single pixel maps to 0."""
    xs = np.linspace(-1.0, 1.0, w, dtype=dtype) if w > 1 else np.zeros(w, dtype=dtype)
    ys = np.linspace(-1.0, 1.0, h, dtype=dtype) if h > 1 else np.zeros(h, dtype=dtype)
    x_chan = np.broadcast_to(xs[None, :], (h, w)).astype(dtype)
    y_chan = np.broadcast_to(ys[:, None], (h, w)).astype(dtype)
    return x_chan, y_chan


@functools.lru_cache(maxsize=16)
def _coordinate_block(h: int, w: int, dtype) -> np.ndarray:
    """The (H, W, 2) X and Y channels, formed once per (h, w, dtype) and
    returned read-only."""
    xy = np.stack(coordinate_channels(h, w, dtype), axis=2)
    xy.setflags(write=False)
    return xy


def _with_coords(p: np.ndarray) -> np.ndarray:
    """concat(p, X, Y) along channels, written into one new array."""
    b, h, w, c = p.shape
    out = np.empty((b, h, w, c + 2), p.dtype)
    out[..., :c] = p
    out[..., c:] = _coordinate_block(h, w, p.dtype)
    return out


def normalize_coords(coords: np.ndarray, grid_hw: tuple[int, int]) -> np.ndarray:
    """Affine map from [-1, 1]^2 onto grid index space [0, extent-1].

    Channel 0 is x (width axis), channel 1 is y (height axis).
    """
    hg, wg = grid_hw
    if hg < 2 or wg < 2:
        raise ShapeError("grid extents must be >= 2")
    out = np.empty_like(coords)
    out[..., 0] = (coords[..., 0] + 1.0) / 2.0 * (wg - 1)
    out[..., 1] = (coords[..., 1] + 1.0) / 2.0 * (hg - 1)
    return out


class SamplingPlan(NamedTuple):
    """Where a bilinear sample of an (Hg, Wg, C) grid reads, for a
    (B, H, W, 2) stack of normalized coordinates: `corners` (4, B, H, W)
    holds the flat cell index y * Wg + x of each pixel's corners (y0, x0),
    (y0, x1), (y1, x0) and (y1, x1), and `frac` (B, H, W, 2) the pixel's
    fractions (fx, fy) past (x0, y0)."""

    corners: np.ndarray
    frac: np.ndarray

    def weights(self) -> tuple[np.ndarray, ...]:
        """The bilinear weights of the four corners, in `corners` order."""
        fx, fy = self.frac[..., 0], self.frac[..., 1]
        return (1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx


def sampling_plan(grid_hw: tuple[int, int], coords: np.ndarray) -> SamplingPlan:
    """The `SamplingPlan` of a (B, H, W, 2) stack of normalized coordinates
    on an (Hg, Wg) grid. Raises ShapeError for another shape, NumericError
    for non-finite coordinates and ValueError for coordinates outside
    [0, Wg-1] x [0, Hg-1]."""
    hg, wg = grid_hw
    if coords.ndim != 4 or coords.shape[3] != 2:
        raise ShapeError(f"coords must be (B, H, W, 2), got {coords.shape}")
    px = coords[..., 0]
    py = coords[..., 1]
    if not np.isfinite(coords).all():
        raise NumericError("sample coordinates contain non-finite values")
    if px.min() < 0 or px.max() > wg - 1 or py.min() < 0 or py.max() > hg - 1:
        raise ValueError("sample coordinates outside grid index range")
    lo = np.floor(coords).astype(np.int64)
    # the integer corner converts to +0.0, so a -0.0 coordinate keeps its
    # sign in the fraction; the difference is exact in the coords' dtype
    frac = np.subtract(coords, lo, dtype=coords.dtype)
    x0, y0 = lo[..., 0], lo[..., 1]
    # +1 exceeds the last index only at the exact upper boundary, where the
    # corresponding weight is exactly zero
    x1 = np.minimum(x0 + 1, wg - 1)
    y1 = np.minimum(y0 + 1, hg - 1)
    corners = np.empty((4,) + coords.shape[:3], dtype=np.int64)
    for corner, row, col in zip(corners, (y0, y0, y1, y1), (x0, x1, x0, x1)):
        np.multiply(row, wg, out=corner)
        corner += col
    return SamplingPlan(corners=corners, frac=frac)


def _as_plan(grid: np.ndarray, coords: np.ndarray | SamplingPlan) -> SamplingPlan:
    if grid.ndim != 3:
        raise ShapeError(f"grid must be (Hg, Wg, C), got {grid.shape}")
    if isinstance(coords, SamplingPlan):
        return coords
    return sampling_plan(grid.shape[:2], coords)


def grid_sample(grid: np.ndarray, coords: np.ndarray | SamplingPlan) -> np.ndarray:
    """Four-corner bilinear sampling of the grid at a (B, H, W, 2) stack of
    normalized coordinates, or at their `SamplingPlan`.

    Each corner's cells are gathered with one `take` on the grid's
    (Hg * Wg, C) view and weighted in place, and the four are summed in
    place left to right: w00 g00 + w01 g01 + w10 g10 + w11 g11.
    """
    plan = _as_plan(grid, coords)
    c = grid.shape[2]
    dtype = np.result_type(grid, plan.frac)
    cells = grid.reshape(-1, c).astype(dtype, copy=False)
    out = np.empty((plan.corners[0].size, c), dtype=dtype)
    part = np.empty_like(out)
    # every index is in range, so `take` need not check or buffer
    for k, (corner, weight) in enumerate(zip(plan.corners, plan.weights())):
        dst = part if k else out
        cells.take(corner.reshape(-1), axis=0, out=dst, mode="clip")
        dst *= weight.reshape(-1, 1)
        if k:
            out += part
    return out.reshape(plan.corners.shape[1:] + (c,))


def grid_sample_backward(grid: np.ndarray, coords: np.ndarray | SamplingPlan,
                         grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of grid_sample w.r.t. the grid cells, summed over the stack,
    and w.r.t. the coordinates, at the coordinates or their `SamplingPlan`.

    The four corner cells receive the bilinear weights times grad_out; the
    coordinate gradient uses the a.e. derivative (floor indices constant).
    Each sample scatters into its own copy of the grid, so every cell adds
    its contributions in the order one sample alone would, and the copies
    are then summed in sample order (`sum_samples`).
    """
    plan = _as_plan(grid, coords)
    n = grad_out.shape[0]
    hg, wg, c = grid.shape
    cells = grid.reshape(-1, c)
    g00, g01, g10, g11 = (cells.take(corner, axis=0) for corner in plan.corners)

    grad_grid = np.zeros(n * grid.size, dtype=grid.dtype)
    copies = np.arange(n)[:, None, None] * (hg * wg)
    channels = np.arange(c)
    for corner, weight in zip(plan.corners, plan.weights()):
        # flat indices, in the order the (b, h, w, c) loop visits them, take
        # numpy's fast path for np.add.at
        flat = ((copies + corner)[..., None] * c + channels).reshape(-1)
        np.add.at(grad_grid, flat, (weight[..., None] * grad_out).reshape(-1))
    grad_grid = grad_grid.reshape((n,) + grid.shape)

    # d/dfx = (1 - fy)(g01 - g00) + fy (g11 - g10) and
    # d/dfy = (1 - fx)(g10 - g00) + fx (g11 - g01), each formed in place in
    # the dtype the whole-array expression has, then times grad_out
    fx, fy = plan.frac[..., 0, None], plan.frac[..., 1, None]
    part = np.empty(g00.shape, np.result_type(plan.frac, grid))
    other = np.empty_like(part)
    prod = np.empty(g00.shape, np.result_type(grad_out, part))
    grad_coords = np.empty_like(plan.frac)
    for axis, (f, lo, hi, lo2, hi2) in enumerate(((fy, g00, g01, g10, g11),
                                                  (fx, g00, g10, g01, g11))):
        np.multiply(np.subtract(hi, lo, out=part), 1 - f, out=part)
        np.multiply(np.subtract(hi2, lo2, out=other), f, out=other)
        part += other
        grad_coords[..., axis] = np.multiply(grad_out, part, out=prod).sum(axis=3)
    return sum_samples(grad_grid), grad_coords


@dataclass
class GeneratorCache:
    params: dict[str, np.ndarray]
    p: np.ndarray
    coord_cat: np.ndarray
    p_hat: np.ndarray
    hidden: np.ndarray
    coords: np.ndarray
    plan: SamplingPlan
    out_cat: np.ndarray


def generator_forward(p: np.ndarray, params: dict[str, np.ndarray],
                      train: bool = True) -> tuple[np.ndarray, GeneratorCache | None]:
    """Memory features (B, H, W, C) for a stack of projected feature maps,
    and the cache its backward pass reads. Keys of `params` other than the
    generator's are ignored.

    Only training builds the cache (`train`); without it the cache is None
    and each intermediate is freed as soon as the next stage has been
    formed from it, so inference holds no backward state."""
    c = params["coord_w"].shape[1]
    if p.ndim != 4 or p.shape[3] != c:
        raise ShapeError(f"expected (B, H, W, {c}) input, got {p.shape}")
    grid = params["grid"]
    saved: dict[str, np.ndarray] = {}

    def kept(name: str, x: np.ndarray) -> np.ndarray:
        # each stage is named once; `del` drops the name after its last
        # use, so the cache, when there is one, holds the only reference
        if train:
            saved[name] = x
        return x

    coord_cat = kept("coord_cat", _with_coords(p))
    p_hat = kept("p_hat", conv1x1_forward(coord_cat, params["coord_w"], params["coord_b"]))
    del coord_cat
    # both activations work in place: the pre-activations are not read again
    hidden = conv1x1_forward(p_hat, params["phi1_w"], params["phi1_b"])
    hidden = kept("hidden", np.maximum(hidden, 0, out=hidden))
    # tanh bounds the coordinates, so the grid lookup never leaves the grid
    coords = conv1x1_forward(hidden, params["phi2_w"], params["phi2_b"])
    coords = kept("coords", np.tanh(coords, out=coords))
    del hidden
    plan = kept("plan", sampling_plan(grid.shape[:2], normalize_coords(coords, grid.shape[:2])))
    del coords
    out_cat = kept("out_cat", np.concatenate([grid_sample(grid, plan), p_hat], axis=3))
    del plan, p_hat
    m = conv1x1_forward(out_cat, params["out_w"], params["out_b"])
    return m, GeneratorCache(params=params, p=p, **saved) if train else None


def generator_backward(cache: GeneratorCache,
                       grad_m: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Exact gradients: the one w.r.t. the input, and one per parameter key,
    each summed over the stack in sample order."""
    params = cache.params
    c = cache.p.shape[3]
    if grad_m.shape != cache.p.shape:
        raise ShapeError(
            f"grad shape {grad_m.shape} does not match cached forward {cache.p.shape}")

    grad_cat, g_out_w, g_out_b = conv1x1_backward(cache.out_cat, params["out_w"], grad_m)
    grad_sampled = grad_cat[..., :c]
    grad_p_hat = grad_cat[..., c:].copy()

    g_grid, grad_norm = grid_sample_backward(params["grid"], cache.plan, grad_sampled)

    hg, wg = params["grid"].shape[:2]
    grad_coords = np.empty_like(grad_norm)
    grad_coords[..., 0] = grad_norm[..., 0] * ((wg - 1) / 2.0)
    grad_coords[..., 1] = grad_norm[..., 1] * ((hg - 1) / 2.0)

    grad_pre2 = grad_coords * (1.0 - cache.coords * cache.coords)
    grad_hidden, g_phi2_w, g_phi2_b = conv1x1_backward(cache.hidden, params["phi2_w"], grad_pre2)
    grad_pre1 = grad_hidden * (cache.hidden > 0)
    grad_p_hat_phi, g_phi1_w, g_phi1_b = conv1x1_backward(cache.p_hat, params["phi1_w"],
                                                          grad_pre1)

    grad_p_hat += grad_p_hat_phi
    grad_coord_cat, g_coord_w, g_coord_b = conv1x1_backward(
        cache.coord_cat, params["coord_w"], grad_p_hat)

    return grad_coord_cat[..., :c], {
        "coord_w": g_coord_w, "coord_b": g_coord_b,
        "phi1_w": g_phi1_w, "phi1_b": g_phi1_b,
        "phi2_w": g_phi2_w, "phi2_b": g_phi2_b,
        "out_w": g_out_w, "out_b": g_out_b,
        "grid": g_grid,
    }
