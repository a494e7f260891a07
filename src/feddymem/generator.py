"""Trainable memory generator.

Pipeline for one projected feature map p of shape (H, W, C):

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError
from .numerics import Rng, conv1x1_backward, conv1x1_forward, xavier_normal, xavier_uniform

DTYPE = np.float32


@dataclass
class GridSpace:
    """Trainable continuous feature space, sampled bilinearly."""

    grid: np.ndarray  # (Hg, Wg, C)

    def __post_init__(self):
        if self.grid.ndim != 3:
            raise ShapeError(f"grid must be (Hg, Wg, C), got {self.grid.shape}")
        if self.grid.shape[0] < 2 or self.grid.shape[1] < 2:
            raise ShapeError("grid extents must be >= 2 for bilinear sampling")


@dataclass
class GeneratorParams:
    coord_w: np.ndarray   # (C+2, C)
    coord_b: np.ndarray   # (C,)
    phi1_w: np.ndarray    # (C, Ch)
    phi1_b: np.ndarray    # (Ch,)
    phi2_w: np.ndarray    # (Ch, 2)
    phi2_b: np.ndarray    # (2,)
    out_w: np.ndarray     # (2C, C)
    out_b: np.ndarray     # (C,)
    grid: np.ndarray      # (Hg, Wg, C)

    @property
    def channels(self) -> int:
        return self.coord_w.shape[1]

    @property
    def grid_hw(self) -> tuple[int, int]:
        return self.grid.shape[0], self.grid.shape[1]


def init_generator(rng: Rng, channels: int, grid_hw: tuple[int, int] = (8, 8),
                   phi_hidden: int | None = None) -> GeneratorParams:
    """Xavier-uniform weights, zero biases, Xavier-normal grid."""
    c = channels
    ch = phi_hidden if phi_hidden is not None else c
    hg, wg = grid_hw
    if hg < 2 or wg < 2:
        raise ValueError("grid extents must be >= 2")
    return GeneratorParams(
        coord_w=xavier_uniform(rng.child("coord"), c + 2, c, (c + 2, c)),
        coord_b=np.zeros(c, dtype=DTYPE),
        phi1_w=xavier_uniform(rng.child("phi1"), c, ch, (c, ch)),
        phi1_b=np.zeros(ch, dtype=DTYPE),
        phi2_w=xavier_uniform(rng.child("phi2"), ch, 2, (ch, 2)),
        phi2_b=np.zeros(2, dtype=DTYPE),
        out_w=xavier_uniform(rng.child("out"), 2 * c, c, (2 * c, c)),
        out_b=np.zeros(c, dtype=DTYPE),
        grid=xavier_normal(rng.child("grid"), c, c, (hg, wg, c)),
    )


def coordinate_channels(h: int, w: int, dtype=DTYPE) -> tuple[np.ndarray, np.ndarray]:
    """X, Y channels in [-1, 1], linear in pixel index; a single pixel maps to 0."""
    xs = np.linspace(-1.0, 1.0, w, dtype=dtype) if w > 1 else np.zeros(w, dtype=dtype)
    ys = np.linspace(-1.0, 1.0, h, dtype=dtype) if h > 1 else np.zeros(h, dtype=dtype)
    x_chan = np.broadcast_to(xs[None, :], (h, w)).astype(dtype)
    y_chan = np.broadcast_to(ys[:, None], (h, w)).astype(dtype)
    return x_chan, y_chan


def _with_coords(p: np.ndarray) -> np.ndarray:
    h, w, _ = p.shape
    x_chan, y_chan = coordinate_channels(h, w, p.dtype)
    return np.concatenate([p, x_chan[..., None], y_chan[..., None]], axis=2)


def coord_conv(p: np.ndarray, params: GeneratorParams) -> np.ndarray:
    """Append coordinate channels, then 1x1 conv back to C channels."""
    if params.coord_w.shape[0] != p.shape[2] + 2:
        raise ShapeError(
            f"coordconv expects {params.coord_w.shape[0] - 2} channels, got {p.shape[2]}")
    return conv1x1_forward(_with_coords(p), params.coord_w, params.coord_b)


def map_coords(p_hat: np.ndarray, params: GeneratorParams) -> np.ndarray:
    """Two 1x1 conv layers mapping features to per-pixel (x, y) in [-1, 1].

    tanh bounds the output so the downstream grid lookup can never index
    outside the grid.
    """
    hidden = np.maximum(conv1x1_forward(p_hat, params.phi1_w, params.phi1_b), 0)
    return np.tanh(conv1x1_forward(hidden, params.phi2_w, params.phi2_b))


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


def _corner_setup(grid: np.ndarray, coords: np.ndarray):
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
    # +1 exceeds the last index only at the exact upper boundary, where the
    # corresponding weight is exactly zero
    x1 = np.minimum(x0 + 1, wg - 1)
    y1 = np.minimum(y0 + 1, hg - 1)
    return x0, x1, y0, y1, fx, fy


def grid_sample(grid: np.ndarray | GridSpace, coords: np.ndarray) -> np.ndarray:
    """Four-corner bilinear sampling of the grid at normalized coordinates."""
    if isinstance(grid, GridSpace):
        grid = grid.grid
    if grid.ndim != 3 or coords.ndim != 3 or coords.shape[2] != 2:
        raise ShapeError("grid_sample expects grid (Hg, Wg, C) and coords (H, W, 2)")
    x0, x1, y0, y1, fx, fy = _corner_setup(grid, coords)
    w00 = ((1 - fy) * (1 - fx))[..., None]
    w01 = ((1 - fy) * fx)[..., None]
    w10 = (fy * (1 - fx))[..., None]
    w11 = (fy * fx)[..., None]
    return (w00 * grid[y0, x0] + w01 * grid[y0, x1]
            + w10 * grid[y1, x0] + w11 * grid[y1, x1])


def grid_sample_backward(grid: np.ndarray, coords: np.ndarray,
                         grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of grid_sample w.r.t. the grid cells and the coordinates.

    The four corner cells receive the bilinear weights times grad_out; the
    coordinate gradient uses the a.e. derivative (floor indices constant).
    """
    x0, x1, y0, y1, fx, fy = _corner_setup(grid, coords)
    g00, g01, g10, g11 = grid[y0, x0], grid[y0, x1], grid[y1, x0], grid[y1, x1]

    grad_grid = np.zeros_like(grid)
    np.add.at(grad_grid, (y0, x0), ((1 - fy) * (1 - fx))[..., None] * grad_out)
    np.add.at(grad_grid, (y0, x1), ((1 - fy) * fx)[..., None] * grad_out)
    np.add.at(grad_grid, (y1, x0), (fy * (1 - fx))[..., None] * grad_out)
    np.add.at(grad_grid, (y1, x1), (fy * fx)[..., None] * grad_out)

    d_dfx = (1 - fy)[..., None] * (g01 - g00) + fy[..., None] * (g11 - g10)
    d_dfy = (1 - fx)[..., None] * (g10 - g00) + fx[..., None] * (g11 - g01)
    grad_coords = np.empty_like(coords)
    grad_coords[..., 0] = (grad_out * d_dfx).sum(axis=2)
    grad_coords[..., 1] = (grad_out * d_dfy).sum(axis=2)
    return grad_grid, grad_coords


@dataclass
class GeneratorCache:
    params: GeneratorParams
    p: np.ndarray
    coord_cat: np.ndarray
    p_hat: np.ndarray
    hidden: np.ndarray
    coords: np.ndarray
    coords_norm: np.ndarray
    sampled: np.ndarray
    out_cat: np.ndarray


@dataclass
class GeneratorGrads:
    coord_w: np.ndarray
    coord_b: np.ndarray
    phi1_w: np.ndarray
    phi1_b: np.ndarray
    phi2_w: np.ndarray
    phi2_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    grid: np.ndarray
    input: np.ndarray


def generator_forward(p: np.ndarray, params: GeneratorParams) -> tuple[np.ndarray, GeneratorCache]:
    if p.ndim != 3 or p.shape[2] != params.channels:
        raise ShapeError(f"expected (H, W, {params.channels}) input, got {p.shape}")
    coord_cat = _with_coords(p)
    p_hat = conv1x1_forward(coord_cat, params.coord_w, params.coord_b)
    hidden = np.maximum(conv1x1_forward(p_hat, params.phi1_w, params.phi1_b), 0)
    coords = np.tanh(conv1x1_forward(hidden, params.phi2_w, params.phi2_b))
    coords_norm = normalize_coords(coords, params.grid_hw)
    sampled = grid_sample(params.grid, coords_norm)
    out_cat = np.concatenate([sampled, p_hat], axis=2)
    m = conv1x1_forward(out_cat, params.out_w, params.out_b)
    cache = GeneratorCache(params=params, p=p, coord_cat=coord_cat, p_hat=p_hat,
                           hidden=hidden, coords=coords, coords_norm=coords_norm,
                           sampled=sampled, out_cat=out_cat)
    return m, cache


def generate_memory(p: np.ndarray, params: GeneratorParams) -> np.ndarray:
    """Memory feature (H, W, C) for one projected feature map."""
    return generator_forward(p, params)[0]


def generator_backward(cache: GeneratorCache, grad_m: np.ndarray) -> GeneratorGrads:
    """Exact gradients for every generator parameter group plus the input."""
    params = cache.params
    c = params.channels
    if grad_m.shape != cache.p.shape:
        raise ShapeError(
            f"grad shape {grad_m.shape} does not match cached forward {cache.p.shape}")

    grad_cat, g_out_w, g_out_b = conv1x1_backward(cache.out_cat, params.out_w, grad_m)
    grad_sampled = grad_cat[..., :c]
    grad_p_hat = grad_cat[..., c:].copy()

    g_grid, grad_norm = grid_sample_backward(params.grid, cache.coords_norm, grad_sampled)

    hg, wg = params.grid_hw
    grad_coords = np.empty_like(grad_norm)
    grad_coords[..., 0] = grad_norm[..., 0] * ((wg - 1) / 2.0)
    grad_coords[..., 1] = grad_norm[..., 1] * ((hg - 1) / 2.0)

    grad_pre2 = grad_coords * (1.0 - cache.coords * cache.coords)
    grad_hidden, g_phi2_w, g_phi2_b = conv1x1_backward(cache.hidden, params.phi2_w, grad_pre2)
    grad_pre1 = grad_hidden * (cache.hidden > 0)
    grad_p_hat_phi, g_phi1_w, g_phi1_b = conv1x1_backward(cache.p_hat, params.phi1_w, grad_pre1)

    grad_p_hat += grad_p_hat_phi
    grad_coord_cat, g_coord_w, g_coord_b = conv1x1_backward(
        cache.coord_cat, params.coord_w, grad_p_hat)

    return GeneratorGrads(
        coord_w=g_coord_w, coord_b=g_coord_b,
        phi1_w=g_phi1_w, phi1_b=g_phi1_b,
        phi2_w=g_phi2_w, phi2_b=g_phi2_b,
        out_w=g_out_w, out_b=g_out_b,
        grid=g_grid,
        input=grad_coord_cat[..., :c],
    )
