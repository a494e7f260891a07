import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import f64, finite_diff_grad, max_rel_err, reference_fuse_pyramid, write_pyramid
from feddymem import tensorio
from feddymem.errors import ShapeError
from feddymem.features import (
    ExtractorSpec,
    FeaturePyramid,
    extract_pyramid,
    fuse_pyramid,
    init_projection,
    load_manifest,
    project_backward,
    project_forward,
    read_pyramid,
    write_manifest,
    ManifestEntry,
)
from feddymem.numerics import Rng, bilinear_resize, conv1x1_forward

SPEC = ExtractorSpec(kind="synthetic", seed=11, levels=3, base_hw=(32, 32),
                     level_channels=(4, 8, 16))


def _sample(seed=0, hw=(32, 32)):
    return Rng(seed).normal(hw + (3,))


class TestExtractor:
    def test_deterministic(self):
        x = _sample()
        a = extract_pyramid(x, SPEC)
        b = extract_pyramid(x, SPEC)
        for la, lb in zip(a.levels, b.levels):
            assert np.array_equal(la, lb)

    def test_level_halving(self):
        p = extract_pyramid(_sample(), SPEC)
        assert [lvl.shape[:2] for lvl in p.levels] == [(32, 32), (16, 16), (8, 8)]
        assert [lvl.shape[2] for lvl in p.levels] == [4, 8, 16]

    def test_constant_across_calls_hash(self):
        x = _sample(3)
        h = [hash(extract_pyramid(x, SPEC).levels[0].tobytes()) for _ in range(3)]
        assert len(set(h)) == 1

    def test_dims_mismatch(self):
        with pytest.raises(ShapeError):
            extract_pyramid(Rng(0).normal((8, 8, 3)), SPEC)

    def test_file_roundtrip(self, tmp_path):
        p = extract_pyramid(_sample(5), SPEC)
        path = tmp_path / "pyr.fdmc"
        write_pyramid(path, p)
        back = read_pyramid(path)
        assert len(back.levels) == len(p.levels)
        for la, lb in zip(p.levels, back.levels):
            assert np.array_equal(la, lb)

    def test_file_kind_via_manifest(self, tmp_path):
        p = extract_pyramid(_sample(6), SPEC)
        write_pyramid(tmp_path / "s0.fdmc", p)
        write_manifest(tmp_path / "manifest.json",
                       [ManifestEntry(sample_id="s0", path="s0.fdmc", label=0)])
        spec = ExtractorSpec(kind="file", manifest_path=str(tmp_path / "manifest.json"))
        back = extract_pyramid("s0", spec)
        for la, lb in zip(p.levels, back.levels):
            assert np.array_equal(la, lb)
        with pytest.raises(FileNotFoundError):
            extract_pyramid("missing", spec)

    def test_manifest_roundtrip(self, tmp_path):
        entries = [ManifestEntry("a", "a.fdmc", 0), ManifestEntry("b", "b.fdmc", 1, "b_mask.fdm1")]
        write_manifest(tmp_path / "m.json", entries)
        back = load_manifest(tmp_path / "m.json")
        assert back == entries


class TestFuse:
    def test_single_level_identity(self, rng):
        lvl = rng.normal((4, 4, 2))
        fused = fuse_pyramid(FeaturePyramid(levels=[lvl]))
        assert np.array_equal(fused, lvl)

    def test_constant_levels_survive(self):
        p = FeaturePyramid(levels=[np.full((4, 4, 1), 2.0, np.float32),
                                   np.full((2, 2, 2), -1.0, np.float32)])
        fused = fuse_pyramid(p)
        assert fused.shape == (4, 4, 3)
        assert np.all(fused[..., 0] == 2.0) and np.all(fused[..., 1:] == -1.0)

    def test_matches_independent_resizes(self, rng):
        levels = [rng.child(i).normal(((8 >> i), (8 >> i), 2 + i)) for i in range(3)]
        fused = fuse_pyramid(FeaturePyramid(levels=levels))
        start = 0
        for lvl in levels:
            c = lvl.shape[2]
            expected = bilinear_resize(lvl, (8, 8))
            assert np.array_equal(fused[..., start:start + c], expected)
            start += c

    def test_output_dims_equal_level0(self, rng):
        levels = [rng.child(9).normal((6, 4, 3)), rng.child(8).normal((3, 2, 5))]
        assert fuse_pyramid(FeaturePyramid(levels=levels)).shape == (6, 4, 8)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9),
           st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 4)),
                    max_size=3),
           st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_reference(self, seed, h0, w0, sizes, dtype):
        # levels shrink by any, mostly non-integer, ratio; a level may keep
        # level-0 dims
        r = np.random.default_rng(seed)
        levels = [r.standard_normal((h0, w0, 2)).astype(dtype)]
        for h, w, c in sizes:
            prev = levels[-1].shape
            levels.append(r.standard_normal((min(h, prev[0]), min(w, prev[1]), c)).astype(dtype))
        p = FeaturePyramid(levels=levels)
        want = reference_fuse_pyramid(p)
        got = fuse_pyramid(p)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        stack = np.zeros((3,) + want.shape, dtype=dtype)
        row = stack[1]
        assert fuse_pyramid(p, out=row) is row and np.array_equal(row, want)
        assert not stack[0].any() and not stack[2].any()

    def test_mixed_dtypes_equal_the_reference(self, rng):
        p = FeaturePyramid(levels=[rng.child(1).normal((7, 5, 2)).astype(np.float64),
                                   rng.child(2).normal((3, 2, 3)).astype(np.float32)])
        want = reference_fuse_pyramid(p)
        got = fuse_pyramid(p)
        assert got.dtype == np.float64 and np.array_equal(got, want)
        out = np.empty((7, 5, 5), dtype=np.float32)
        fuse_pyramid(p, out=out)
        assert np.array_equal(out, want.astype(np.float32))

    def test_out_of_another_shape_rejected(self, rng):
        p = FeaturePyramid(levels=[rng.normal((4, 4, 2)), rng.normal((2, 2, 3))])
        with pytest.raises(ShapeError):
            fuse_pyramid(p, out=np.empty((4, 4, 4), dtype=np.float32))


class TestFusedChannels:
    def test_file_kind_reads_one_pyramid_per_manifest(self, tmp_path, monkeypatch):
        entries = []
        for i in range(3):
            write_pyramid(tmp_path / f"s{i}.fdmc", extract_pyramid(_sample(i), SPEC))
            entries.append(ManifestEntry(sample_id=f"s{i}", path=f"s{i}.fdmc", label=0))
        write_manifest(tmp_path / "manifest.json", entries)
        reads = []
        read = tensorio.read_container
        monkeypatch.setattr(tensorio, "read_container",
                            lambda path, *a, **k: reads.append(path) or read(path, *a, **k))
        # one spec per client state, as initialization and every checkpoint
        # load build them
        specs = [ExtractorSpec(kind="file", manifest_path=str(tmp_path / "manifest.json"))
                 for _ in range(4)]
        assert [spec.fused_channels for spec in specs for _ in range(2)] == [28] * 8
        assert len(reads) == 1


class TestProject:
    def test_identity_slice_passthrough(self):
        fused = np.abs(Rng(2).normal((1, 3, 3, 5)))
        w = np.zeros((5, 2), dtype=np.float32)
        w[0, 0] = w[1, 1] = 1.0
        out = project_forward(fused, {"proj_w": w, "proj_b": np.zeros(2, np.float32)})[0]
        assert np.allclose(out, fused[..., :2])

    def test_relu_floor(self, rng):
        fused = rng.normal((2, 3, 3, 4))
        params = init_projection(rng.child(1), 4, 2)
        params["proj_b"] = np.full(2, -1e6, dtype=np.float32)
        assert not project_forward(fused, params)[0].any()

    def test_matches_conv_plus_relu_oracle(self, rng):
        fused = f64(rng.child(1), (2, 4, 4, 6))
        params = {"proj_w": f64(rng.child(2), (6, 3)), "proj_b": f64(rng.child(3), (3,))}
        out = project_forward(fused, params)[0]
        oracle = np.maximum(conv1x1_forward(fused, params["proj_w"], params["proj_b"]), 0)
        assert np.array_equal(out, oracle)

    def test_channel_mismatch(self, rng):
        params = init_projection(rng, 4, 2)
        with pytest.raises(ShapeError):
            project_forward(rng.normal((1, 2, 2, 5)), params)

    def test_positive_homogeneity(self, rng):
        fused = f64(rng.child(5), (2, 3, 3, 4))
        params = {"proj_w": f64(rng.child(6), (4, 2)), "proj_b": f64(rng.child(7), (2,))}
        scaled = {name: 3.0 * value for name, value in params.items()}
        assert max_rel_err(project_forward(fused, scaled)[0],
                           3.0 * project_forward(fused, params)[0]) < 1e-12

    def test_backward_matches_finite_differences(self, rng):
        fused = f64(rng.child(1), (2, 3, 3, 4))
        params = {"proj_w": f64(rng.child(2), (4, 2)), "proj_b": f64(rng.child(3), (2,))}
        direction = f64(rng.child(4), (2, 3, 3, 2))

        out, cache = project_forward(fused, params)
        grads = project_backward(cache, direction)
        assert list(grads) == list(params)

        for name in params:
            def loss(value, name=name):
                out = project_forward(fused, {**params, name: value})[0]
                return float((out * direction).sum())

            fd = finite_diff_grad(loss, params[name], 1e-4)
            assert max_rel_err(grads[name], fd) < 1e-3, name
