import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from conftest import f64, max_rel_err
from feddymem.client import MemoryBank
from feddymem.errors import NumericError, ShapeError
from feddymem.evaluation import (
    PRO_HITS_CHUNK,
    SynthSpec,
    anomaly_map,
    auroc,
    dirichlet_partition,
    image_score,
    label_regions,
    postprocess_heatmap,
    pro,
    stable_order,
    synth_dataset,
)
from feddymem.numerics import Rng, bilinear_resize, knn, pairwise_dist
from test_numerics import built_references


# Reference loops: the sweep-per-score implementations that `auroc` and `pro`
# replaced. The array versions must return exactly (==) what these return.

def loop_auroc(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    order = np.argsort(s, kind="stable")
    sorted_vals = s[order]
    ranks = np.empty(len(s), dtype=np.float64)
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def offset_scipy_labels(masks):
    """`scipy.ndimage.label` of each mask, ids offset by the regions of the
    masks before it, and the total region count."""
    out, offset = [], 0
    for mask in masks:
        labeled, n_regions = ndimage.label(mask > 0)
        ids = labeled.astype(np.int64)
        ids[ids > 0] += offset
        out.append(ids)
        offset += n_regions
    return out, offset


def loop_pro(heatmaps, masks, fpr_budget=0.3):
    labels, n_regions = offset_scipy_labels(masks)
    regions = np.concatenate([ids.reshape(-1) for ids in labels])
    scores = np.concatenate([hm.reshape(-1).astype(np.float64) for hm in heatmaps])
    is_neg = regions == 0
    total_neg = int(is_neg.sum())
    order = np.argsort(-scores, kind="stable")
    sizes = np.array([(regions == r).sum() for r in range(1, n_regions + 1)], dtype=np.float64)
    hits = np.zeros(n_regions, dtype=np.float64)
    fp = 0
    curve = []
    i = 0
    n = len(scores)
    while i < n:
        j = i
        v = scores[order[i]]
        while j + 1 < n and scores[order[j + 1]] == v:
            j += 1
        group = order[i:j + 1]
        fp += int(is_neg[group].sum())
        touched = regions[group]
        touched = touched[touched > 0]
        if touched.size:
            np.add.at(hits, touched - 1, 1.0)
        curve.append((fp / total_neg, float((hits / sizes).mean())))
        i = j + 1
    integral = 0.0
    prev_f, prev_p = 0.0, 0.0
    for f, p in curve:
        if f == prev_f:
            prev_p = p
            continue
        seg_end = min(f, fpr_budget)
        if seg_end > prev_f:
            integral += prev_p * (seg_end - prev_f)
        if f >= fpr_budget:
            prev_f = fpr_budget
            prev_p = p
            break
        prev_f, prev_p = f, p
    if prev_f < fpr_budget:
        integral += prev_p * (fpr_budget - prev_f)
    return float(integral / fpr_budget)


def quantized(gen, shape, levels):
    """Scores on `levels` distinct values (heavy ties), or continuous when
    levels is None."""
    if levels is None:
        return gen.standard_normal(shape)
    return gen.integers(0, levels, shape) / 4.0


def random_maps(seed, n_maps, hw, levels, density, clean_share):
    """Heat maps with random masks: several 4-connected regions per mask
    (diagonal-only neighbours are separate regions), some maps region-free.
    """
    gen = Rng(seed).generator
    heatmaps, masks = [], []
    for _ in range(n_maps):
        mask = (gen.uniform(0, 1, hw) < density).astype(np.uint8)
        if gen.uniform() < clean_share:
            mask[:] = 0
        heatmaps.append(quantized(gen, hw, levels) + 0.5 * mask)
        masks.append(mask)
    if not any(m.any() for m in masks):
        masks[0][0, 0] = 1
    if all(m.all() for m in masks):
        masks[-1][-1, -1] = 0
    return heatmaps, masks


budgets = st.one_of(st.sampled_from([0.3, 1.0]), st.floats(1e-3, 1.0))
levels = st.sampled_from([1, 2, 3, 8, None])


class TestPixelScores:
    """The pixel scores, and the image score, of `anomaly_map`."""

    def test_exact_match_scores_zero(self, rng):
        bank = MemoryBank(data=rng.normal((3, 3, 4)))
        m = np.broadcast_to(bank.data[0, 0], (2, 2, 4)).copy()
        amap = anomaly_map(m, bank)
        assert np.all(amap.pixel_scores == 0.0) and amap.image_score == 0.0

    def test_hand_distance(self):
        bank = MemoryBank(data=np.array([0.0, 10.0], dtype=np.float32).reshape(1, 2, 1))
        amap = anomaly_map(np.full((1, 1, 1), 4.0, np.float32), bank)
        assert amap.pixel_scores[0, 0] == 4.0
        assert amap.image_score == image_score(amap.pixel_scores)

    def test_matches_min_oracle(self, rng):
        m = f64(rng.child(1), (3, 3, 4))
        bank = MemoryBank(data=f64(rng.child(2), (4, 4, 4)))
        scores = anomaly_map(m, bank).pixel_scores
        d = pairwise_dist(m.reshape(9, 4), bank.patches)
        assert scores.shape == (3, 3)
        assert max_rel_err(scores.reshape(-1), d.min(axis=1)) < 1e-12

    def test_invariant_under_bank_permutation(self, rng):
        m = f64(rng.child(1), (3, 3, 4))
        bank = MemoryBank(data=f64(rng.child(2), (4, 4, 4)))
        perm = Rng(3).permutation(16)
        shuffled = MemoryBank(data=bank.patches[perm].reshape(4, 4, 4))
        assert np.allclose(anomaly_map(m, bank).pixel_scores,
                           anomaly_map(m, shuffled).pixel_scores)

    def test_channel_mismatch_rejected(self, rng):
        bank = MemoryBank(data=rng.normal((3, 3, 4)))
        with pytest.raises(ShapeError):
            anomaly_map(rng.normal((2, 2, 3)), bank)

    def test_scoring_builds_the_bank_side_once(self, rng):
        with built_references() as built:
            bank = MemoryBank(data=rng.child(1).normal((4, 4, 3)))
            for m in rng.child(2).normal((7, 3, 3, 3)):
                anomaly_map(m, bank)
        assert built == [bank.reference]

    @given(st.integers(0, 2**31 - 1), st.integers(2, 12), st.integers(1, 4),
           st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=60, deadline=None)
    def test_scores_equal_first_knn_column_for_every_k(self, seed, q, c, dtype):
        # coarse values and duplicated bank rows tie the nearest distances
        gen = Rng(seed).generator
        rows = gen.integers(-2, 3, (q, c)) / 2.0
        dup = gen.uniform(0, 1, q) < 0.3
        rows = np.where(dup[:, None], rows[gen.integers(0, q, q)], rows)
        rows[-1] = rows[0]
        bank = MemoryBank(data=rows.reshape(1, q, c).astype(dtype))
        m = (gen.integers(-2, 3, (3, 4, c)) / 2.0
             + 0.25 * (gen.uniform(0, 1, (3, 4, 1)) < 0.5)).astype(dtype)
        scores = anomaly_map(m, bank).pixel_scores.reshape(-1)
        for k in range(1, q + 1):
            assert np.array_equal(scores, knn(m.reshape(12, c), bank.reference, k)[1][:, 0])


class TestImageScore:
    def test_single_patch_identity(self):
        assert image_score(np.array([[3.25]])) == pytest.approx(3.25)

    def test_uniform_map(self):
        a = np.full((4, 4), 2.0)
        assert image_score(a) == pytest.approx(2.0 / 16)

    def test_dominant_patch_closed_form(self):
        a = np.array([[10.0, 0.0], [0.0, 0.0]])
        expected = 10.0 * np.exp(10.0) / (np.exp(10.0) + 3.0)
        assert image_score(a) == pytest.approx(expected, rel=1e-12)

    def test_stable_for_large_values(self):
        a = np.array([[1000.0, 999.0]])
        s = image_score(a)
        assert np.isfinite(s)
        assert s == pytest.approx(1000.0 * np.exp(1.0) / (np.exp(1.0) + 1.0), rel=1e-9)

    def test_monotone_in_dominant_regime(self):
        hw = 16
        base = np.zeros((4, 4))
        base[0, 0] = np.log(hw) + 3.0
        higher = base.copy()
        higher[0, 0] += 1.0
        assert image_score(higher) > image_score(base)


class TestPostprocessHeatmap:
    def test_constant_maps_to_zeros(self):
        out = postprocess_heatmap(np.full((4, 4), 3.0), (8, 8))
        assert out.shape == (8, 8)
        assert not out.any()

    def test_blur_preserves_constant_before_minmax(self):
        from scipy.ndimage import gaussian_filter
        blurred = gaussian_filter(np.full((40, 40), 2.5), sigma=4.0, truncate=4.0,
                                  mode="reflect")
        assert np.allclose(blurred, 2.5, atol=1e-12)

    def test_impulse_matches_kernel_table(self):
        size = 41
        a = np.zeros((size, size))
        a[20, 20] = 1.0
        out_raw = ndimage.gaussian_filter(a, sigma=4.0, truncate=4.0, mode="reflect")
        radius = int(4.0 * 4.0 + 0.5)
        x = np.arange(-radius, radius + 1)
        k = np.exp(-0.5 * (x / 4.0) ** 2)
        k /= k.sum()
        kernel2d = np.outer(k, k)
        window = out_raw[20 - radius:20 + radius + 1, 20 - radius:20 + radius + 1]
        assert max_rel_err(window, kernel2d) < 1e-10
        # the full op then min-max normalizes to [0, 1]
        out = postprocess_heatmap(a, (size, size))
        assert out.max() == pytest.approx(1.0)
        assert out.min() == 0.0

    def test_upsamples_to_image_dims(self, rng):
        out = postprocess_heatmap(rng.normal((4, 4)).astype(np.float64), (16, 16))
        assert out.shape == (16, 16)

    def test_smaller_target_rejected(self):
        with pytest.raises(ShapeError):
            postprocess_heatmap(np.zeros((4, 4)), (2, 8))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 20), st.integers(1, 20),
           st.integers(0, 12), st.integers(0, 12), st.sampled_from([0.5, 1.0, 2.5, 4.0]),
           st.sampled_from([2.0, 4.0]))
    @settings(max_examples=150, deadline=None)
    def test_equals_scipy_gaussian_filter(self, seed, h, w, dh, dw, sigma, truncate):
        # maps and targets below the radius int(truncate * sigma + 0.5),
        # 16 at the defaults, reflect more than once
        gen = Rng(seed).generator
        a = gen.standard_normal((h, w)) * 10.0 ** gen.uniform(-3, 3)
        hw = (h + dh, w + dw)
        up = bilinear_resize(a[..., None].astype(np.float64), hw)[..., 0]
        blurred = ndimage.gaussian_filter(up, sigma=sigma, truncate=truncate, mode="reflect")
        lo, hi = float(blurred.min()), float(blurred.max())
        if hi - lo <= 1e-9 * max(abs(hi), abs(lo), 1.0):
            expected = np.zeros(hw, dtype=np.float32)
        else:
            expected = ((blurred - lo) / (hi - lo)).astype(np.float32)
        out = postprocess_heatmap(a, hw, sigma=sigma, truncate=truncate)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert np.array_equal(out, expected)


def spiral(n):
    """One 4-connected path spiralling from the top-left corner inward."""
    mask = np.zeros((n, n), dtype=np.uint8)
    top, left, bottom, right = 0, 0, n - 1, n - 1
    while top <= bottom and left <= right:
        mask[top, left:right + 1] = 1
        mask[top:bottom + 1, right] = 1
        mask[bottom, left:right + 1] = 1
        mask[top + 2:bottom + 1, left] = 1
        if top + 2 <= bottom:
            mask[top + 2, left:right - 1] = 1
        top, left, bottom, right = top + 2, left + 2, bottom - 2, right - 2
    return mask


def maze(n, seed):
    """A random depth-first spanning tree of an n x n cell grid, carved into
    (2n - 1) x (2n - 1) pixels: one winding region with many dead ends."""
    gen = Rng(seed).generator
    mask = np.zeros((2 * n - 1, 2 * n - 1), dtype=np.uint8)
    seen = np.zeros((n, n), dtype=bool)
    seen[0, 0] = mask[0, 0] = 1
    stack = [(0, 0)]
    while stack:
        r, c = stack[-1]
        free = [(r + dr, c + dc) for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if 0 <= r + dr < n and 0 <= c + dc < n and not seen[r + dr, c + dc]]
        if not free:
            stack.pop()
            continue
        rr, cc = free[int(gen.integers(len(free)))]
        seen[rr, cc] = True
        mask[2 * rr, 2 * cc] = mask[r + rr, c + cc] = 1
        stack.append((rr, cc))
    return mask


@st.composite
def mask_lists(draw):
    """1-6 masks, all of one shape or of mixed shapes (1 x N among them),
    each all zero, all one or random at some density."""
    n_masks = draw(st.integers(1, 6))
    dims = st.tuples(st.integers(1, 10), st.integers(1, 10))
    shared = draw(st.booleans())
    shape = draw(dims)
    gen = Rng(draw(st.integers(0, 2**31 - 1))).generator
    masks = []
    for _ in range(n_masks):
        hw = shape if shared else draw(dims)
        fill = draw(st.sampled_from(["zeros", "ones", "random"]))
        if fill == "random":
            mask = gen.uniform(0, 1, hw) < draw(st.floats(0.1, 0.9))
        else:
            mask = np.full(hw, fill == "ones")
        masks.append(mask.astype(draw(st.sampled_from([np.uint8, np.int64, bool]))))
    return masks


class TestLabelRegions:
    """`label_regions` against `scipy.ndimage.label` with running offsets."""

    @given(mask_lists())
    @settings(max_examples=300, deadline=None)
    def test_equals_offset_scipy_label(self, masks):
        expected, n_regions = offset_scipy_labels(masks)
        regions = label_regions(masks)
        assert len(regions) == len(masks)
        for got, want in zip(regions, expected):
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)
        assert max(int(r.max()) for r in regions) == n_regions

    @pytest.mark.parametrize("masks", [
        [spiral(31)],
        [spiral(15), maze(20, 0).T, np.ones((1, 9), dtype=np.uint8)],
        [maze(32, seed) for seed in range(3)],
    ], ids=["spiral", "mixed", "mazes"])
    def test_winding_regions_equal_offset_scipy_label(self, masks):
        # one region per mask, whose pixels reach its first pixel through
        # long winding paths; the mazes take five union rounds
        expected, n_regions = offset_scipy_labels(masks)
        assert n_regions == len(masks)
        assert all(np.array_equal(g, w) for g, w in zip(label_regions(masks), expected))

    def test_empty_list(self):
        assert label_regions([]) == []


# zeros of both signs, the extreme subnormals and normals of float32, and
# infinities: the values whose bit patterns the packed keys must order
EDGE_FLOAT32 = [0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, -1.1754942e-38, 1.1754944e-38,
                -1.1754944e-38, 3.4028235e38, -3.4028235e38, np.inf, -np.inf, 1.0, -1.0]


class TestStableOrder:
    @given(st.lists(st.one_of(st.sampled_from(EDGE_FLOAT32),
                              st.floats(width=32, allow_nan=False)), max_size=300),
           st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_equals_stable_argsort(self, values, copies):
        # repeating the list makes ties among distant indices
        scores = np.array(values * copies, dtype=np.float32)
        got = stable_order(scores)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.argsort(scores, kind="stable"))

    def test_zeros_of_both_signs_tie_in_index_order(self):
        scores = np.array([0.0, -0.0, -1e-45, 0.0, -0.0, 1e-45], dtype=np.float32)
        assert stable_order(scores).tolist() == [2, 0, 1, 3, 4, 5]

    def test_a_pixel_stack_of_eval_heavy_size(self):
        # 120 test maps of 16 x 16 pixels, as one client scores them, with
        # many exact ties and negative scores
        r = np.random.default_rng(3)
        scores = np.round(r.standard_normal(30_720), 2).astype(np.float32)
        scores[::7] = -0.0
        assert np.array_equal(stable_order(scores), np.argsort(scores, kind="stable"))

    def test_other_dtypes_take_the_stable_argsort(self):
        scores = np.array([2.0, -0.0, 1.0, 0.0, 2.0])
        assert stable_order(scores).tolist() == [1, 3, 2, 0, 4]


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_inverted(self):
        assert auroc([0.4, 0.7], [1, 0]) == 0.0

    def test_tie_case(self):
        assert auroc([0.5, 0.5, 0.1], [1, 0, 0]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc([0.1, 0.2], [1, 1])

    def test_matches_pair_counting_oracle_exactly(self):
        for seed in range(1000):
            r = Rng(seed)
            n = int(r.child(1).integers(4, 12))
            scores = np.round(r.child(2).normal((n,)).astype(np.float64), 1)
            labels = (r.child(3).uniform(0, 1, (n,)) > 0.5).astype(int)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            got = auroc(scores, labels)
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = ties = 0
            for p in pos:
                for q in neg:
                    if p > q:
                        wins += 1
                    elif p == q:
                        ties += 1
            expected = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert got == expected, seed

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        r = Rng(seed)
        scores = r.child(1).normal((12,)).astype(np.float64)
        labels = (r.child(2).uniform(0, 1, (12,)) > 0.5).astype(int)
        if labels.sum() in (0, 12):
            labels[0] = 1 - labels[0]
        transformed = np.exp(2.0 * scores) + 5.0
        assert auroc(scores, labels) == auroc(transformed, labels)

    def test_non_finite_score_raises(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NumericError):
                auroc([0.9, bad, 0.2, 0.1], [1, 1, 0, 0])

    @given(st.integers(0, 2**31 - 1), st.integers(2, 600), levels)
    @settings(max_examples=80, deadline=None)
    def test_equals_loop_reference(self, seed, n, levels):
        gen = Rng(seed).generator
        scores = quantized(gen, (n,), levels)
        labels = gen.integers(0, 2, n)
        labels[0], labels[-1] = 0, 1
        assert auroc(scores, labels) == loop_auroc(scores, labels)

    def test_all_equal_scores_equal_loop_reference(self):
        labels = np.array([0, 1, 1, 0, 1])
        assert auroc(np.full(5, 0.25), labels) == loop_auroc(np.full(5, 0.25), labels) == 0.5


class TestPro:
    def test_heatmap_equals_mask_scores_one(self):
        mask = np.zeros((8, 8), dtype=np.uint8)
        mask[2:4, 2:4] = 1
        assert pro([mask.astype(np.float64)], label_regions([mask])) == pytest.approx(1.0)

    def test_all_zero_heatmap_scores_zero(self):
        mask = np.zeros((8, 8), dtype=np.uint8)
        mask[2:4, 2:4] = 1
        assert pro([np.zeros((8, 8))], label_regions([mask])) == 0.0

    def test_two_region_case_matches_hand_sweep(self):
        # region A (2x2) found at high score, region B (1x2) found at a lower
        # score that also admits two false positives
        heat = np.zeros((4, 6))
        mask = np.zeros((4, 6), dtype=np.uint8)
        mask[0, 0:2] = 1   # region A (via labeling, 1x2)
        mask[3, 4:6] = 1   # region B (1x2)
        heat[0, 0:2] = 0.9
        heat[3, 4] = 0.5
        heat[2, 0] = 0.5   # false positive at same threshold
        total_neg = (mask == 0).sum()  # 20
        # hand sweep: tau=0.9 -> fpr 0, pro mean(1, 0) = 0.5
        #             tau=0.5 -> fpr 1/20, pro mean(1, 0.5) = 0.75
        #             tau=0   -> fpr 1, pro 1
        budget = 0.3
        # step integral: [0, 0.05) at 0.5; [0.05, 0.3) at 0.75
        expected = (0.05 * 0.5 + (budget - 0.05) * 0.75) / budget
        got = pro([heat], label_regions([mask]), fpr_budget=budget)
        assert got == pytest.approx(expected, abs=1e-9)

    def test_multiple_images(self):
        heat1 = np.zeros((4, 4))
        mask1 = np.zeros((4, 4), dtype=np.uint8)
        mask1[1, 1] = 1
        heat1[1, 1] = 1.0
        heat2 = np.zeros((4, 4))
        mask2 = np.zeros((4, 4), dtype=np.uint8)  # normal image contributes FPR pixels
        assert pro([heat1, heat2], label_regions([mask1, mask2])) == pytest.approx(1.0)

    def test_no_regions_rejected(self):
        with pytest.raises(ValueError):
            pro([np.zeros((4, 4))], label_regions([np.zeros((4, 4), dtype=np.uint8)]))

    def test_uses_4_connectivity(self):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[0, 0] = 1
        mask[1, 1] = 1  # diagonal: two separate regions under 4-connectivity
        heat = np.zeros((4, 4))
        heat[0, 0] = 1.0
        got = pro([heat], label_regions([mask]), fpr_budget=0.99)
        # only one of the two regions is ever found until threshold 0
        assert got < 0.75

    def test_non_finite_score_raises(self):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[1, 1] = 1
        for bad in (np.nan, np.inf, -np.inf):
            heat = np.zeros((4, 4))
            heat[2, 3] = bad
            with pytest.raises(NumericError):
                pro([heat], label_regions([mask]))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(2, 9),
           st.integers(1, 9), levels, st.floats(0.05, 0.6), st.floats(0.0, 0.6),
           budgets)
    @settings(max_examples=120, deadline=None)
    def test_equals_loop_reference(self, seed, n_maps, h, w, levels, density,
                                   clean_share, budget):
        heatmaps, masks = random_maps(seed, n_maps, (h, w), levels, density,
                                      clean_share)
        assert pro(heatmaps, label_regions(masks), budget) == loop_pro(heatmaps, masks, budget)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), levels, budgets)
    @settings(max_examples=40, deadline=None)
    def test_one_labelling_serves_many_score_lists(self, seed, n_maps, levels, budget):
        _, masks = random_maps(seed, n_maps, (6, 7), levels, 0.3, 0.3)
        regions = label_regions(masks)
        labelled = [r.copy() for r in regions]
        n_regions = sum(ndimage.label(m)[1] for m in masks)
        ids = np.concatenate([r.reshape(-1) for r in regions])
        assert np.array_equal(np.unique(ids[ids > 0]), np.arange(1, n_regions + 1))
        assert np.array_equal(ids > 0, np.concatenate([m.reshape(-1) > 0 for m in masks]))
        for j in range(3):
            gen = Rng(seed).child("scores", j).generator
            heatmaps = [quantized(gen, m.shape, levels) + 0.5 * m for m in masks]
            assert pro(heatmaps, regions, budget) == loop_pro(heatmaps, masks, budget)
        assert all(np.array_equal(a, b) for a, b in zip(regions, labelled))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), levels, budgets)
    @settings(max_examples=60, deadline=None)
    def test_one_sort_serves_p_auroc_and_pro(self, seed, n_maps, levels, budget):
        # the stable ascending argsort of the concatenated pixel scores, as
        # evaluate_states passes it to both metrics of a client
        heatmaps, masks = random_maps(seed, n_maps, (6, 7), levels, 0.3, 0.3)
        scores = np.concatenate([hm.reshape(-1) for hm in heatmaps])
        labels = (np.concatenate([m.reshape(-1) for m in masks]) > 0).astype(int)
        order = np.argsort(scores, kind="stable")
        assert pro(heatmaps, label_regions(masks), budget, order) == \
            loop_pro(heatmaps, masks, budget)
        assert auroc(scores, labels, order) == loop_auroc(scores, labels)

    def test_order_of_another_length_rejected(self):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[1, 1] = 1
        with pytest.raises(ShapeError):
            pro([np.zeros((4, 4))], label_regions([mask]), order=np.arange(15))
        with pytest.raises(ShapeError):
            auroc([0.9, 0.1], [1, 0], order=np.arange(3))

    def test_all_equal_scores_equal_loop_reference(self):
        mask = np.zeros((5, 5), dtype=np.uint8)
        mask[1:3, 1:3] = 1
        mask[4, 4] = 1
        for budget in (0.3, 1.0):
            heat = np.full((5, 5), 0.7)
            assert pro([heat], label_regions([mask]), budget) == loop_pro([heat], [mask], budget)

    def test_tie_plateau_straddling_budget_equals_loop_reference(self):
        # one tied group takes the FPR from 2/20 straight to 12/20, past
        # the 0.3 budget, while it also completes the second region
        heat = np.zeros((4, 6))
        mask = np.zeros((4, 6), dtype=np.uint8)
        mask[0, 0:2] = 1
        mask[3, 4:6] = 1
        heat[0, 0:2] = 0.9
        heat[1, 0:2] = 0.8
        heat[3, 4:6] = 0.5
        heat[1, 2:6] = 0.5
        heat[2, :] = 0.5
        for budget in (0.1, 0.3, 0.6, 1.0):
            assert pro([heat], label_regions([mask]), budget) == loop_pro([heat], [mask], budget)

    def test_diagonal_regions_equal_loop_reference(self):
        mask = (np.indices((6, 6)).sum(axis=0) % 2 == 0).astype(np.uint8)
        mask[5, :] = 0
        heat = Rng(4).generator.standard_normal((6, 6))
        heatmaps = [heat, np.zeros((6, 6))]
        masks = [mask, np.zeros((6, 6), dtype=np.uint8)]
        assert ndimage.label(mask)[1] == 15
        for budget in (0.3, 1.0):
            assert pro(heatmaps, label_regions(masks), budget) == loop_pro(heatmaps, masks, budget)

    @pytest.mark.parametrize("seed", range(3))
    def test_long_curve_spans_chunks_equals_loop_reference(self, seed):
        heatmaps, masks = random_maps(seed, 3, (40, 40), None, 0.1, 0.3)
        n_neg = sum(int((m == 0).sum()) for m in masks)
        for budget in (0.3, 1.0):
            # every score is distinct, so the curve has one point per
            # negative pixel below the budget
            assert budget * n_neg > 2 * PRO_HITS_CHUNK
            assert pro(heatmaps, label_regions(masks), budget) == loop_pro(heatmaps, masks, budget)


class TestDirichletPartition:
    def test_single_client_gets_all(self):
        out = dirichlet_partition([5, 7], 1, 0.1, seed=3)
        assert out[0] == list(range(12))

    def test_partition_property(self):
        counts = [13, 29, 7]
        out = dirichlet_partition(counts, 4, 0.1, seed=11)
        everything = sorted(i for part in out for i in part)
        assert everything == list(range(sum(counts)))

    def test_frozen_seed_regression(self):
        out = dirichlet_partition([6, 6], 3, 0.1, seed=42)
        assert out == DIRICHLET_REGRESSION

    def test_skew_statistic(self):
        # with alpha=0.1 and 5 clients the dominant client usually holds most
        # of a type: mean max-share over 200 seeds must exceed 0.6
        shares = []
        for seed in range(200):
            out = dirichlet_partition([40, 40, 40], 5, 0.1, seed=seed)
            counts = np.zeros((5, 3))
            for c, idxs in enumerate(out):
                for i in idxs:
                    counts[c, i // 40] += 1
            shares.extend((counts.max(axis=0) / 40.0).tolist())
        assert np.mean(shares) > 0.6


DIRICHLET_REGRESSION = [[], [6, 7], [0, 1, 2, 3, 4, 5, 8, 9, 10, 11]]


class TestSynthDataset:
    def test_zero_magnitude_keeps_distribution(self):
        spec = SynthSpec(n_types=2, samples_per_type=4, test_normals_per_type=3,
                         test_anomalies_per_type=3, anomaly_magnitude=0.0,
                         n_clients=2, seed=5)
        data = synth_dataset(spec)
        anom = [s for s in data.test if s.label == 1]
        assert all(s.mask.any() for s in anom)

    def test_masks_nonzero_iff_anomalous(self):
        spec = SynthSpec(n_types=2, samples_per_type=4, n_clients=2, seed=6)
        data = synth_dataset(spec)
        for s in data.test:
            if s.label == 1:
                assert s.mask is not None and s.mask.any()
            else:
                assert s.mask is None or not s.mask.any()
        for client in data.client_train:
            assert all(s.label == 0 for s in client)

    def test_train_clients_nonempty(self):
        for seed in range(10):
            spec = SynthSpec(n_types=3, samples_per_type=10, n_clients=5, seed=seed)
            data = synth_dataset(spec)
            assert all(len(c) >= 1 for c in data.client_train)

    def test_test_slices_cover_and_have_both_classes(self):
        spec = SynthSpec(n_types=3, samples_per_type=10, n_clients=5, seed=3)
        data = synth_dataset(spec)
        seen = sorted(i for sl in data.test_assignment for i in sl)
        assert seen == list(range(len(data.test)))
        for sl in data.test_assignment:
            labels = {data.test[i].label for i in sl}
            assert labels == {0, 1}

    def test_test_slices_have_both_classes_when_clients_outnumber_samples(self):
        # three samples of each label for five clients: some must be shared
        spec = SynthSpec(n_types=3, samples_per_type=4, test_normals_per_type=1,
                         test_anomalies_per_type=1, n_clients=5, seed=5)
        data = synth_dataset(spec)
        seen = {i for sl in data.test_assignment for i in sl}
        assert seen == set(range(len(data.test)))
        for sl in data.test_assignment:
            assert {data.test[i].label for i in sl} == {0, 1}

    def test_frozen_seed_regression_hash(self):
        import hashlib
        spec = SynthSpec(n_types=2, samples_per_type=3, test_normals_per_type=2,
                         test_anomalies_per_type=2, n_clients=2, seed=9)
        data = synth_dataset(spec)
        h = hashlib.sha256()
        for client in data.client_train:
            for s in client:
                h.update(s.features.astype("<f4").tobytes())
        for s in data.test:
            h.update(s.features.astype("<f4").tobytes())
        assert h.hexdigest() == SYNTH_REGRESSION_SHA256

    def test_deterministic(self):
        spec = SynthSpec(n_types=2, samples_per_type=3, n_clients=2, seed=1)
        a = synth_dataset(spec)
        b = synth_dataset(spec)
        assert [[s.sample_id for s in c] for c in a.client_train] == \
            [[s.sample_id for s in c] for c in b.client_train]
        for sa, sb in zip(a.test, b.test):
            assert np.array_equal(sa.features, sb.features)


SYNTH_REGRESSION_SHA256 = "65173d760c17a6867cef3bbf8e5f00feb139aceb8cedb6ae110d4dbcd48f42fc"
