import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (f64, finite_diff_grad, max_rel_err, reference_grid_sample,
                      reference_grid_sample_backward)
from feddymem.errors import ShapeError
from feddymem.generator import (
    generator_backward,
    generator_forward,
    grid_sample,
    grid_sample_backward,
    init_generator,
    normalize_coords,
    sampling_plan,
)
from feddymem.numerics import Rng, conv1x1_forward


def make_params(seed=0, c=4, grid_hw=(8, 8), dtype=np.float64) -> dict[str, np.ndarray]:
    return {name: value.astype(dtype)
            for name, value in init_generator(Rng(seed), c, grid_hw).items()}


def p_hat(p, params):
    """The coordinate convolution's output for one (H, W, C) map, read from
    the forward cache."""
    return generator_forward(p[None], params)[1].p_hat[0]


def coords(p, params):
    """The per-pixel (x, y) in [-1, 1] for one (H, W, C) map, read from the
    forward cache."""
    return generator_forward(p[None], params)[1].coords[0]


def sample(grid, coords):
    """grid_sample of one (H, W, 2) coordinate map."""
    return grid_sample(grid, coords[None])[0]


class TestCoordConv:
    def test_single_pixel_coords_are_zero(self):
        params = make_params(c=2)
        # weights reading only the coordinate channels
        params["coord_w"] = np.zeros((4, 2))
        params["coord_w"][2, 0] = 1.0  # X channel
        params["coord_w"][3, 1] = 1.0  # Y channel
        params["coord_b"] = np.zeros(2)
        out = p_hat(np.ones((1, 1, 2)), params)
        assert np.array_equal(out, np.zeros((1, 1, 2)))

    def test_x_channel_readout(self):
        params = make_params(c=1)
        params["coord_w"] = np.zeros((3, 1))
        params["coord_w"][1, 0] = 1.0
        params["coord_b"] = np.zeros(1)
        out = p_hat(np.zeros((1, 3, 1)), params)
        assert np.allclose(out[0, :, 0], [-1.0, 0.0, 1.0])

    def test_matches_concat_then_conv_oracle(self, rng):
        params = make_params(3, c=3)
        p = f64(rng, (2, 4, 3))
        xs = np.linspace(-1, 1, 4)
        ys = np.linspace(-1, 1, 2)
        cat = np.concatenate([p, np.broadcast_to(xs[None, :, None], (2, 4, 1)),
                              np.broadcast_to(ys[:, None, None], (2, 4, 1))], axis=2)
        oracle = conv1x1_forward(cat[None], params["coord_w"], params["coord_b"])[0]
        assert max_rel_err(p_hat(p, params), oracle) < 1e-12

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            generator_forward(np.zeros((1, 2, 2, 5)), make_params(c=4))
        with pytest.raises(ShapeError):
            generator_forward(np.zeros((2, 2, 4)), make_params(c=4))


class TestMapCoords:
    def test_zero_weights_give_center(self):
        params = make_params(c=3)
        for name in ("phi1_w", "phi1_b", "phi2_w", "phi2_b"):
            params[name] = np.zeros_like(params[name])
        out = coords(np.ones((2, 2, 3)), params)
        assert np.array_equal(out, np.zeros((2, 2, 2)))

    def test_huge_bias_saturates(self):
        params = make_params(c=3)
        params["phi2_b"] = np.array([1e6, -1e6])
        out = coords(np.ones((1, 1, 3)), params)
        assert out[0, 0, 0] == pytest.approx(1.0)
        assert out[0, 0, 1] == pytest.approx(-1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bounded_componentwise(self, seed):
        params = make_params(seed % 97, c=4)
        p = Rng(seed).normal((10, 10, 4), std=5.0).astype(np.float64)
        out = coords(p, params)
        assert np.abs(out).max() <= 1.0


class TestNormalizeCoords:
    def test_endpoints_and_midpoint(self):
        coords = np.array([[[-1.0, -1.0], [1.0, 1.0], [0.0, 0.0]]])
        out = normalize_coords(coords, (8, 8))
        assert np.array_equal(out[0, 0], [0.0, 0.0])
        assert np.array_equal(out[0, 1], [7.0, 7.0])
        assert np.array_equal(out[0, 2], [3.5, 3.5])

    def test_rectangular_grid(self):
        coords = np.array([[[1.0, 1.0]]])
        out = normalize_coords(coords, (4, 6))  # (Hg, Wg)
        assert out[0, 0, 0] == 5.0  # x maps with Wg
        assert out[0, 0, 1] == 3.0  # y maps with Hg


class TestGridSample:
    def test_integer_coords_reconstruct_exactly(self, rng):
        grid = rng.normal((5, 6, 3))
        ys, xs = np.meshgrid(np.arange(5), np.arange(6), indexing="ij")
        coords = np.stack([xs, ys], axis=2).astype(np.float32)
        out = sample(grid, coords)
        assert np.array_equal(out, grid)

    def test_specific_cell(self, rng):
        grid = rng.normal((4, 4, 2))
        coords = np.array([[[2.0, 3.0]]], dtype=np.float32)  # (x=2, y=3)
        assert np.array_equal(sample(grid, coords)[0, 0], grid[3, 2])

    def test_midpoint_two_corner_mean(self, rng):
        grid = rng.normal((3, 3, 2)).astype(np.float64)
        coords = np.array([[[0.5, 0.0]]])
        out = sample(grid, coords)[0, 0]
        assert max_rel_err(out, (grid[0, 0] + grid[0, 1]) / 2) < 1e-9

    def test_matches_four_corner_oracle(self, rng):
        grid = f64(rng.child(1), (4, 5, 3))
        px, py = 2.3, 1.7
        coords = np.array([[[px, py]]])
        out = sample(grid, coords)[0, 0]
        x0, y0 = int(px), int(py)
        oracle = np.zeros(3)
        for m in (0, 1):
            for n_ in (0, 1):
                w = (1 - abs(px - (x0 + n_))) * (1 - abs(py - (y0 + m)))
                oracle += w * grid[y0 + m, x0 + n_]
        assert max_rel_err(out, oracle) < 1e-12

    def test_exact_upper_boundary_ok(self, rng):
        grid = rng.normal((4, 4, 1))
        coords = np.array([[[3.0, 3.0]]], dtype=np.float32)
        assert np.array_equal(sample(grid, coords)[0, 0], grid[3, 3])

    def test_out_of_range_rejected(self, rng):
        grid = rng.normal((4, 4, 1))
        with pytest.raises(ValueError):
            sample(grid, np.array([[[3.01, 0.0]]], dtype=np.float32))
        with pytest.raises(ValueError):
            sample(grid, np.array([[[-0.01, 0.0]]], dtype=np.float32))
        with pytest.raises(ShapeError):
            grid_sample(grid, np.zeros((1, 1, 2), dtype=np.float32))

    def test_accepts_generator_grid(self):
        g = init_generator(Rng(3), 1, (3, 3))["grid"]
        coords = np.zeros((1, 1, 2), dtype=np.float32)
        assert np.array_equal(sample(g, coords)[0, 0], g[0, 0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_convex_combination_bounds(self, seed):
        r = Rng(seed)
        grid = r.child(1).normal((4, 4, 2)).astype(np.float64)
        coords = np.stack([r.child(2).uniform(0, 3, (5, 5)),
                           r.child(3).uniform(0, 3, (5, 5))], axis=2).astype(np.float64)
        out = sample(grid, coords)
        for c in range(2):
            assert out[..., c].min() >= grid[..., c].min() - 1e-9
            assert out[..., c].max() <= grid[..., c].max() + 1e-9

    def test_backward_integer_coords_hit_one_cell(self, rng):
        grid = rng.normal((4, 4, 2)).astype(np.float64)
        coords = np.array([[[2.0, 1.0]]])
        g_grid, g_coords = grid_sample_backward(grid, coords[None], np.ones((1, 1, 1, 2)))
        assert g_grid[1, 2].tolist() == [1.0, 1.0]
        g_grid[1, 2] = 0
        assert not g_grid.any()

    def test_backward_matches_finite_differences(self, rng):
        grid = f64(rng.child(1), (4, 5, 3))
        coords = np.stack([rng.child(2).generator.uniform(0.1, 3.4, (2, 2, 2)),
                           rng.child(3).generator.uniform(0.1, 2.4, (2, 2, 2))], axis=3)
        direction = f64(rng.child(4), (2, 2, 2, 3))
        g_grid, g_coords = grid_sample_backward(grid, coords, direction)

        def loss_grid(gv):
            return float((grid_sample(gv, coords) * direction).sum())

        def loss_coords(cv):
            return float((grid_sample(grid, cv) * direction).sum())

        assert max_rel_err(g_grid, finite_diff_grad(loss_grid, grid, 1e-4)) < 1e-3
        assert max_rel_err(g_coords, finite_diff_grad(loss_coords, coords, 1e-4)) < 1e-3


FLOATS = st.sampled_from([np.float32, np.float64])


class TestSamplingPlan:
    """The planned sampler against the parent's four 2-D fancy gathers
    (`conftest.reference_grid_sample*`), bit for bit."""

    @staticmethod
    def case(seed, b, h, w, grid_hw, c, grid_dtype, coords_dtype, repeat):
        r = np.random.default_rng(seed)
        hg, wg = grid_hw
        grid = r.standard_normal((hg, wg, c)).astype(grid_dtype)
        # per coordinate: inside a cell, on a cell corner, at the exact upper
        # boundary, or at zero
        kind = r.integers(0, 4, (b, h, w, 2))
        extent = np.array([wg - 1, hg - 1], dtype=np.float64)
        u = r.uniform(0, 1, (b, h, w, 2)) * extent
        coords = np.select([kind == 0, kind == 1, kind == 2], [u, np.floor(u), extent + 0 * u],
                           0.0).astype(coords_dtype)
        if repeat:  # every sample and every pixel of a row reads the same cells
            coords[:] = coords[:1, :, :1]
        grad_out = r.standard_normal((b, h, w, c)).astype(np.result_type(grid, coords))
        return grid, coords, grad_out

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
           st.tuples(st.integers(2, 6), st.integers(2, 6)), st.integers(1, 5),
           FLOATS, FLOATS, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_reference(self, seed, b, h, w, grid_hw, c, grid_dtype, coords_dtype,
                                  repeat):
        grid, coords, grad_out = self.case(seed, b, h, w, grid_hw, c, grid_dtype,
                                           coords_dtype, repeat)
        want = reference_grid_sample(grid, coords)
        want_grid, want_coords = reference_grid_sample_backward(grid, coords, grad_out)
        plan = sampling_plan(grid.shape[:2], coords)
        for at in (coords, plan):
            got = grid_sample(grid, at)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            got_grid, got_coords = grid_sample_backward(grid, at, grad_out)
            assert got_grid.dtype == want_grid.dtype and np.array_equal(got_grid, want_grid)
            assert got_coords.dtype == want_coords.dtype
            assert np.array_equal(got_coords, want_coords)

    def test_training_cache_keeps_the_forward_plan(self):
        params = make_params(3, c=3, grid_hw=(4, 5), dtype=np.float32)
        p = Rng(4).normal((3, 4, 4, 3))
        _, cache = generator_forward(p, params)
        norm = normalize_coords(cache.coords, (4, 5))
        assert np.array_equal(cache.plan.corners, sampling_plan((4, 5), norm).corners)
        assert np.array_equal(cache.plan.frac, norm - np.floor(norm))
        assert np.array_equal(cache.out_cat[..., :3], reference_grid_sample(params["grid"], norm))


# Frozen regression oracle: seeded params + seeded input, hash recorded at
# build time (see scripts/freeze_regressions.py).
REGRESSION_SHA256 = "adbc0ebb2e9bf5861d41e77fa380ed8236da6bdeb2ee79689241a5528c73c8a6"


class TestGenerateMemory:
    def test_bypass_path_reproduces_p_hat(self, rng):
        c = 3
        params = make_params(c=c)
        params["out_w"] = np.zeros((2 * c, c))
        params["out_w"][c:, :] = np.eye(c)  # read only the coordconv half
        params["out_b"] = np.zeros(c)
        p = f64(rng, (2, 3, 3, c))
        m, cache = generator_forward(p, params)
        assert max_rel_err(m, cache.p_hat) < 1e-12

    def test_frozen_seed_regression(self):
        import hashlib
        params = init_generator(Rng(101), 4, (8, 8))
        p = Rng(202).normal((5, 5, 4))
        m = generator_forward(p[None], params)[0][0]
        digest = hashlib.sha256(m.astype("<f4").tobytes()).hexdigest()
        assert digest == REGRESSION_SHA256

    def test_gradcheck_all_groups(self, rng):
        params = make_params(7, c=3, grid_hw=(4, 4))
        p = f64(rng.child(1), (2, 4, 4, 3))
        direction = f64(rng.child(2), (2, 4, 4, 3))

        m, cache = generator_forward(p, params)
        grad_input, grads = generator_backward(cache, direction)
        assert list(grads) == list(params)

        for name in params:
            def loss(value, name=name):
                return float((generator_forward(p, {**params, name: value})[0]
                              * direction).sum())

            fd = finite_diff_grad(loss, params[name], 1e-3)
            assert max_rel_err(grads[name], fd) < 1e-3, name

        def loss_input(v):
            return float((generator_forward(v, params)[0] * direction).sum())

        fd = finite_diff_grad(loss_input, p, 1e-3)
        assert max_rel_err(grad_input, fd) < 1e-3

    def test_zero_grad_in_zero_grads_out(self, rng):
        params = make_params(9, c=3)
        p = f64(rng, (2, 3, 3, 3))
        _, cache = generator_forward(p, params)
        grad_input, grads = generator_backward(cache, np.zeros((2, 3, 3, 3)))
        assert not grad_input.any()
        for name in ("coord_w", "phi1_w", "phi2_w", "out_w", "grid"):
            assert not grads[name].any()

    def test_stale_cache_rejected(self, rng):
        params = make_params(9, c=3)
        _, cache = generator_forward(f64(rng, (1, 3, 3, 3)), params)
        with pytest.raises(ShapeError):
            generator_backward(cache, np.zeros((1, 2, 2, 3)))
