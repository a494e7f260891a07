"""Dense array substrate and differentiable primitives.

Conventions used repo-wide:
  * feature maps are numpy arrays of shape (H, W, C), channels last, and
    the model's layers take a stack of B of them, (B, H, W, C);
  * patch matrices are (P, C);
  * float32 is the storage dtype, but every op preserves the dtype of its
    inputs so the exact same code paths can be exercised in float64
    (gradient checks do this to control finite-difference roundoff).

Backward passes are hand-written per operation; there is no autograd.

Nearest-neighbour contract (`knn`, used by the metric loss, scoring and
k-means): the Gram form ||a||^2 + ||b||^2 - 2ab only filters candidates;
explicit differences (`pairwise_dist`) decide. Every returned or compared
distance is the float `pairwise_dist` gives for that pair, and ties go to
the lower reference index, so results equal a stable argsort of the full
explicit row bit for bit, whatever the BLAS kernel or thread count. Two
precisions enter. The explicit differences run in the dtype of a - b,
with unit roundoff u. The bounds run in the operands' working precision w,
float32 for float32 (or narrower) operands and float64 otherwise, with unit
roundoff u_w <= u. The filter is certified with gamma_n(u) = n u / (1 - n u),
C the patch dim, and eta the larger of the smallest subnormal of a - b's
dtype and the smallest normal of w, so that a BLAS flushing subnormal
results to zero is covered too:
  * explicit differences give a squared distance q with
    |q - d^2| <= gamma_{C+2}(u) d^2 + C eta;
  * the bound lb is one product in w of augmented operands,
    [a, keep ||a||^2, 1] . [-2b, 1, keep ||b||^2], the squared norms being
    C-term sums in w and keep rounded to w; a sum of C+2 terms whose
    absolute values add up to at most (2 + gamma_C(u_w))(||a||^2 + ||b||^2).
    So
    lb <= d^2 + (keep (1 + u_w)^2 (1 + gamma_C(u_w)) - 1
                 + (2 + gamma_C(u_w)) gamma_{C+2}(u_w)) (||a||^2 + ||b||^2)
          + (3C + 2) eta,
    where the factor of (||a||^2 + ||b||^2) is (keep - 1) + (3C + 6) u_w
    to first order. With keep = 1 - gamma_{4C+16}(u_w) it is negative
    whenever (4C + 16) u_w < 1/2 (about 2 million channels in float32),
    so lb <= d^2 + (3C + 2) eta whatever order BLAS sums in;
  * so floor = (lb - (5C + 16) eta)(1 - gamma_{2C+16}(u)) <= q (1 - u)^2,
    lb converted exactly to float64 and the two float64 operations of
    `floor` included.
The bounds are usable when (4C + 16) u_w < 1/2 and the largest squared
norms of a and b sum to under 1e-8 of w's largest float: then no norm,
term or partial sum of the product, each at most about 3 (||a||^2 +
||b||^2), overflows.
Each row takes its k columns of least lb as seeds and computes their
explicit distances; U is the largest of them, squared in float64 and
rounded up. The seeds are k distinct columns, so the k-th distance D
satisfies D^2 <= U, and a column whose floor exceeds U has
fl(sqrt(q)) >= sqrt(q)(1 - u) > D strictly: it is neither among the k
nearest nor tied with the k-th. The candidates of a row are its seeds
and its columns with floor <= U. A row whose only candidates are its
seeds returns them; a row with more orders the explicit distances of its
candidates. No row is recomputed on its full explicit row.

k-means++ seeding asks which pairs could lower a point's current D^2
(`GramFloor.near`). It keeps, beside D^2, the per-point threshold
t = (D^2 / (1 - gamma_{2C+16}(u)) + (5C + 16) eta)(1 + 8 eps_64 + 4 u_w)
(`GramFloor.threshold`), three float64 operations and then one rounding to
nearest in w, and compares lb with it instead of forming floors. t is
elementwise in D^2, so seeding rewrites it only at the points whose D^2 a
chosen center lowered, not at all n points every step. t is at least
(5C + 16) eta, a normal number of w, so the rounding to w loses at most a
factor (1 - u_w), and the 4 u_w makes up for it; the three float64
roundings of t and the two of `floor` cannot undo the (1 + 8 eps_64). So
lb > t means floor > D^2 exactly, and q > D^2.

The reference side of the product, [-2b; 1; keep ||b||^2] with the largest
squared norm of b and whether b is finite, is a `Reference`, built once
per set of reference rows: a memory bank builds its own when it is made,
and every lookup against the bank reuses it. Its (C+2, Q) operand is
row-major: seeding's 10-row product runs 1.5-3x slower against a
column-major one (about 125 against 80 us on 4000 x 32 float32 rows, and
15 against 5 us on 1280 x 16, one AVX-512 core under OpenBLAS's SkylakeX
kernels), while the hundreds-of-rows products of kNN take the same time
either way. -2b is exact, and no result depends on the bits of lb, so the
layout changes no output.

A knn call works in blocks of max(1, KNN_BOUNDS // Q) query rows, so it
holds at most max(KNN_BOUNDS, Q) bounds and max(KNN_BOUNDS, Q) * C
explicit differences at a time.

The metric loss and scoring make one call per sample, each of a few
hundred rows, so a call's fixed work is kept small (ROADMAP item 10 has the
measurements). The filter's constants (keep, the floor's scale and
absolute term, the threshold's widening, the usability limits) are formed
once per (query dtype, reference dtype, C) and cached. The query side
[a, keep ||a||^2, 1] is written into one (P, C+2) buffer. The query's
finiteness is read from its squared norms, which are not finite exactly
when a row is not or when a finite row's norm overflows; only then are its
rows scanned, so a bad query raises the same NumericError, before the
reference is checked. The seed bound U, the floors and the certification
test are formed in place, and the rows needing a near-tie pass are listed
only when some row is not certified. A call of one block returns that
block's arrays.

Allocation policy. On glibc, importing this module fixes malloc's mmap
threshold at 32 MiB and its trim threshold at 64 MiB (`mallopt`), so
freed blocks below 32 MiB stay mapped and the next call reuses their
pages. Left to glibc's dynamic rule, a metric-loss knn call of 256
query patches against a 256-patch bank hands its bound block (512 KiB
while the bounds were float64) back to the kernel on free, unmapped or
trimmed off the heap, and the next call page-faults it in afresh: 118 to
186 minor faults per call on 256 x 16 float32 operands, against none with
the fixed thresholds. 32 MiB is glibc's DEFAULT_MMAP_THRESHOLD_MAX on
64-bit, the ceiling of its own dynamic threshold, and 64 MiB the twice-as-large
trim threshold its dynamic rule pairs with it; both are set, since
setting either turns the dynamic rule off. The policy is set at import
because every entry point imports the package before its set-up. Other
C libraries keep their own policy.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
# imported eagerly: numpy loads numpy.random lazily, on first use, which
# would otherwise land inside a run's timed set-up
from numpy.random import Generator, Philox, SeedSequence

from .errors import NumericError, ShapeError

DTYPE = np.float32  # storage dtype of parameters, features and banks

# mallopt parameter numbers of glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages() -> None:
    """The allocation policy of the module docstring; a no-op off glibc."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_pages()


def require_finite(arr: np.ndarray, what: str = "array") -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"{what} contains non-finite values")


# ---------------------------------------------------------------------------
# Deterministic random streams
# ---------------------------------------------------------------------------


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    if isinstance(tag, str):
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "little")
    raise TypeError(f"rng tag must be int or str, got {type(tag)!r}")


class Rng:
    """Deterministic counter-based random stream (Philox).

    Streams are identified by a 64-bit seed plus a path of int/str tags.
    Derivation is pure: the same (seed, path) always yields the same stream,
    regardless of thread scheduling or call order, so per-client and
    per-round generators can be rebuilt at any time (e.g. when resuming a
    checkpointed run) without serializing generator state.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._path = tuple(_path)
        self._gen: Generator | None = None

    def child(self, *tags) -> "Rng":
        return Rng(self.seed, self._path + tuple(_tag_to_int(t) for t in tags))

    @property
    def generator(self) -> Generator:
        if self._gen is None:
            ss = SeedSequence(entropy=self.seed, spawn_key=self._path)
            self._gen = Generator(Philox(ss))
        return self._gen

    def normal(self, shape, std: float = 1.0, dtype=DTYPE) -> np.ndarray:
        return (self.generator.standard_normal(shape) * std).astype(dtype)

    def uniform(self, low: float, high: float, shape, dtype=DTYPE) -> np.ndarray:
        return self.generator.uniform(low, high, shape).astype(dtype)

    def integers(self, low: int, high: int | None = None) -> int:
        return int(self.generator.integers(low, high))

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def dirichlet(self, alpha: np.ndarray) -> np.ndarray:
        return self.generator.dirichlet(alpha)

    def choice_weighted(self, weights: np.ndarray, total: float, draws: int) -> np.ndarray:
        """`draws` independent indices, each drawn proportionally to
        nonnegative weights whose finite sum, float(weights.sum()), the
        caller passes as total; uniform when it is zero."""
        if total <= 0.0:
            return np.array([self.integers(0, len(weights)) for _ in range(draws)],
                            dtype=np.int64)
        u = self.generator.uniform(0.0, total, size=draws)
        return np.searchsorted(np.cumsum(weights), u, side="right").clip(0, len(weights) - 1)


def xavier_uniform(rng: Rng, fan_in: int, fan_out: int, shape, dtype=DTYPE) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape, dtype=dtype)


def xavier_normal(rng: Rng, fan_in: int, fan_out: int, shape, dtype=DTYPE) -> np.ndarray:
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(shape, std=std, dtype=dtype)


# ---------------------------------------------------------------------------
# 1x1 convolution (per-pixel linear map)
# ---------------------------------------------------------------------------


def conv1x1_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Per-pixel linear map of a (B, H, W, Cin) stack:
    out[b, h, w, :] = x[b, h, w, :] @ weight + bias, as one product over
    all B * H * W rows."""
    if x.ndim != 4:
        raise ShapeError(f"conv1x1 input must be (B, H, W, Cin), got {x.shape}")
    if weight.ndim != 2 or weight.shape[0] != x.shape[3]:
        raise ShapeError(f"weight {weight.shape} incompatible with input {x.shape}")
    if bias.shape != (weight.shape[1],):
        raise ShapeError(f"bias {bias.shape} incompatible with weight {weight.shape}")
    out = x.reshape(-1, x.shape[3]) @ weight + bias
    return out.reshape(x.shape[:3] + (weight.shape[1],))


def sum_samples(per_sample: Iterable[np.ndarray]) -> np.ndarray:
    """Sum of a stack's samples (its leading axis), or of the arrays an
    iterable yields, one at a time in order and starting from 0.0: the float
    a loop accumulating each sample's gradient gives, whatever the batch's
    size."""
    total = 0.0
    for g in per_sample:
        total = total + g
    return total


def conv1x1_param_grads(x: np.ndarray,
                        grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weight and bias gradients of conv1x1_forward over a (B, H, W, .)
    stack: each sample's own products, from one batched matmul, summed
    over the samples by `sum_samples`."""
    if grad_out.shape[:3] != x.shape[:3]:
        raise ShapeError(f"grad {grad_out.shape} incompatible with input {x.shape}")
    b = x.shape[0]
    xf = x.reshape(b, -1, x.shape[3])
    g = grad_out.reshape(b, -1, grad_out.shape[3])
    return sum_samples(np.matmul(xf.transpose(0, 2, 1), g)), sum_samples(g.sum(axis=1))


def conv1x1_backward(
    x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of conv1x1_forward w.r.t. the input (per pixel), the
    weight and the bias (summed over the stack, `conv1x1_param_grads`)."""
    if grad_out.shape != x.shape[:3] + (weight.shape[1],):
        raise ShapeError(f"grad {grad_out.shape} incompatible with forward shapes")
    grad_x = (grad_out.reshape(-1, weight.shape[1]) @ weight.T).reshape(x.shape)
    return (grad_x, *conv1x1_param_grads(x, grad_out))


# ---------------------------------------------------------------------------
# Bilinear resize (align-corners)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _resize_axis_coords(n_in: int, n_out: int, dtype):
    """Source coordinates for align-corners bilinear resampling: the lower
    and upper source index of each output index and the fraction between
    them. Formed once per (n_in, n_out, dtype) and returned read-only."""
    if n_out == 1 or n_in == 1:
        src = np.zeros(n_out, dtype=dtype)
    else:
        src = np.arange(n_out, dtype=dtype) * ((n_in - 1) / (n_out - 1))
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = (src - lo).astype(dtype)
    for a in (lo, hi, frac):
        a.setflags(write=False)
    return lo, hi, frac


def bilinear_resize(x: np.ndarray, target: tuple[int, int],
                    out: np.ndarray | None = None) -> np.ndarray:
    """Align-corners bilinear interpolation of an (H, W, C) map to target
    dims, in x's dtype; a map already at target dims is copied.

    Each value is the lerp a + f*(b - a), which keeps constant inputs
    exactly constant: every source row is lerped along x once, then each
    output row between its two source rows, both in place in contiguous
    buffers of x's dtype. With `out`, an (H0, W0, C) array that may be a
    strided view such as a channel slice of a larger map, the result is
    assigned to it (cast, if `out` has another dtype) and `out` returned;
    one copy into a strided view costs less than lerping in it.
    """
    if x.ndim != 3:
        raise ShapeError(f"resize input must be (H, W, C), got {x.shape}")
    h0, w0 = int(target[0]), int(target[1])
    if h0 < 1 or w0 < 1:
        raise ShapeError(f"target extents must be >= 1, got {target}")
    h, w, c = x.shape
    if out is not None and out.shape != (h0, w0, c):
        raise ShapeError(f"out {out.shape} does not match the resized {(h0, w0, c)}")
    if (h0, w0) == (h, w):
        resized = x.copy() if out is None else x
    else:
        y0, y1, fy = _resize_axis_coords(h, h0, x.dtype)
        x0, x1, fx = _resize_axis_coords(w, w0, x.dtype)
        rows = x.take(x1, axis=1)
        left = x.take(x0, axis=1)
        rows -= left
        rows *= fx[:, None]
        rows += left
        del left
        top = rows.take(y0, axis=0)
        resized = rows.take(y1, axis=0)
        del rows
        resized -= top
        resized *= fy[:, None, None]
        resized += top
    if out is None:
        return resized
    out[...] = resized
    return out


# ---------------------------------------------------------------------------
# Pairwise Euclidean distances and exact k-nearest neighbours
# ---------------------------------------------------------------------------

# bounds per block of knn query rows: 1 MiB in float32 and 2 MiB in
# float64, within one core's L2 cache on the 2-core host the blocks were
# measured on (module docstring)
KNN_BOUNDS = 2**18


def _check_patches(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("expected 2-D patch matrices")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"patch dims differ: {a.shape[1]} vs {b.shape[1]}")


def pairwise_dist(a: np.ndarray, b: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """d[p, q] = ||a_p - b_q||_2 for patch matrices (P, C) and (Q, C).

    With `cols`, a (P, K) array of row indices into b, only those pairs are
    computed: d[p, j] = ||a_p - b_{cols[p, j]}||_2, the same float the full
    matrix holds at (p, cols[p, j]).

    Uses explicit differences rather than the |a|^2 + |b|^2 - 2ab expansion
    so that identical rows give an exact 0.
    """
    _check_patches(a, b)
    if cols is None:
        diff = a[:, None, :] - b[None, :, :]
    elif cols.ndim != 2 or cols.shape[0] != a.shape[0]:
        raise ShapeError(f"cols must be ({a.shape[0]}, K), got {cols.shape}")
    else:
        diff = a[:, None, :] - b[cols]
    return np.sqrt(np.einsum("pqc,pqc->pq", diff, diff))


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * u / (1.0 - n * u)


class _Constants(NamedTuple):
    """The filter's constants for one (query dtype, reference dtype, C)
    (module docstring): the working precision, keep, the floor's scale and
    absolute term, the threshold's widening, whether (4C + 16) u_w < 1/2,
    and the ceiling the two largest squared norms must sum to under."""

    work: np.dtype
    keep: float
    scale: float
    absolute: float
    widen: float
    usable: bool
    norm_limit: float


@functools.lru_cache(maxsize=64)
def _constants(a_dtype: np.dtype, b_dtype: np.dtype, c: int) -> _Constants:
    """The `_Constants` of a query of dtype a_dtype against reference rows
    of dtype b_dtype, C channels; formed once per key."""
    work = np.result_type(a_dtype, b_dtype, np.float32)
    w = np.finfo(work)
    # explicit differences run in a - b's dtype; float16 in the
    # promotion gives integer inputs a float's roundoff
    info = np.finfo(np.result_type(a_dtype, b_dtype, np.float16))
    eta = max(float(info.smallest_subnormal), float(w.tiny))
    return _Constants(
        work=work,
        keep=1.0 - _gamma(4 * c + 16, float(w.eps) / 2),
        scale=1.0 - _gamma(2 * c + 16, float(info.eps) / 2),
        absolute=(5 * c + 16) * eta,
        # exact in float64: 1 + 2^-49 + 4 u_w
        widen=1.0 + 8.0 * float(np.finfo(np.float64).eps) + 2.0 * float(w.eps),
        # False when keep cannot offset the product's roundoff
        usable=(4 * c + 16) * float(w.eps) / 2 < 0.5,
        norm_limit=1e-8 * float(w.max))


class Reference:
    """The reference rows b of `knn` and `GramFloor` with their side of the
    Gram product, built once: in b's working precision (float32 for float32
    and narrower rows, float64 otherwise) the (C+2, Q) operand
    [-2b^T; 1; keep ||b||^2] and the largest keep ||b||^2, and whether every
    row is finite (module docstring). Read-only once built, so threads may
    share one."""

    def __init__(self, b: np.ndarray):
        if b.ndim != 2:
            raise ShapeError("expected 2-D patch matrices")
        self.patches = b
        const = _constants(b.dtype, b.dtype, b.shape[1])
        self.dtype = const.work
        self.finite = bool(np.isfinite(b).all())
        bw = b.astype(self.dtype, copy=False)
        keep_sq = const.keep * np.einsum("pc,pc->p", bw, bw)
        self.sq_max = float(keep_sq.max(initial=0.0))
        # row-major, written in place (module docstring)
        self.operand = np.empty((b.shape[1] + 2, len(b)), self.dtype)
        np.multiply(bw.T, -2.0, out=self.operand[:-2])
        self.operand[-2] = 1.0
        self.operand[-1] = keep_sq


class GramFloor:
    """Certified floors on the explicit-difference squared distances between
    the rows of a and a `Reference`, from one augmented Gram product in the
    working precision of both (module docstring). A reference built in a
    narrower precision than a's, say float32 rows against float64 queries,
    is rebuilt in the wider one. `sq_max` is the largest keep ||a||^2, not
    finite exactly when some row of a has a norm that is not."""

    def __init__(self, a: np.ndarray, ref: Reference):
        _check_patches(a, ref.patches)
        work = np.result_type(a.dtype, ref.dtype)
        if work != ref.dtype:
            ref = Reference(ref.patches.astype(work))
        c = a.shape[1]
        const = _constants(a.dtype, ref.patches.dtype, c)
        self._scale = const.scale
        self._absolute = const.absolute
        self._widen = const.widen
        # (P, C+2) operand whose product with the reference's is
        # -2ab + keep ||a||^2 + keep ||b||^2
        self._a = np.empty((len(a), c + 2), work)
        aw = a.astype(work, copy=False)
        keep_sq = np.multiply(np.einsum("pc,pc->p", aw, aw), const.keep, out=self._a[:, c])
        self._a[:, :c] = aw
        self._a[:, c + 1] = 1.0
        self.sq_max = float(keep_sq.max(initial=0.0))
        # False also when the Gram form could overflow
        self.usable = const.usable and self.sq_max + ref.sq_max < const.norm_limit
        self._b = ref.operand

    def lower(self, rows) -> np.ndarray:
        """Lower bounds lb on the true squared distances of a[rows] to b, in
        the working precision."""
        return self._a[rows] @ self._b

    def floor(self, lb: np.ndarray) -> np.ndarray:
        """Floors, monotone in lb, of q (1 - u)^2 for the computed q, in
        float64, formed in one new array."""
        out = lb.astype(np.float64)
        out -= self._absolute
        out *= self._scale
        return out

    def threshold(self, d2: np.ndarray) -> np.ndarray:
        """The thresholds t, in the working precision, that `near` compares
        lb with for squared distances d2 (module docstring); elementwise, so
        a caller may keep t and rewrite it where d2 changes. inf when the
        Gram form is unusable."""
        if not self.usable:
            return np.full(d2.shape, np.inf, self._b.dtype)
        return ((d2 / self._scale + self._absolute) * self._widen).astype(self._b.dtype,
                                                                          copy=False)

    def near(self, rows, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (i, j), i indexing rows and j the rows of b, whose
        explicit squared distance q may be below d2[j], given
        t = threshold(d2): every pair with lb <= t[j] (module docstring).
        Every pair when the Gram form is unusable."""
        if not self.usable:
            kept = np.ones((len(self._a[rows]), self._b.shape[1]), dtype=bool)
        else:
            kept = self.lower(rows) <= t
        # row-major pairs, as np.nonzero gives them, which is several times
        # slower on a 2-D mask
        return np.divmod(np.flatnonzero(kept), kept.shape[1])


def _k_nearest(d: np.ndarray, cols: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k least of the distances d to the columns cols, ascending by
    distance, ties to the earlier position in cols."""
    if d.shape[1] == 1:  # k = 1 on a single column: no order to find
        return cols, d
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    # one flat index serves both gathers; take_along_axis builds an index
    # per call, which costs more than the gather on a few hundred short rows
    flat = order + np.arange(0, d.size, d.shape[1])[:, None]
    return cols.take(flat), d.take(flat)


def _knn_explicit(a: np.ndarray, b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    d = pairwise_dist(a, b)
    idx = np.argsort(d, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(d, idx, axis=1)


def _least_bound_columns(lb: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k columns of least lb, ascending by index, from k argmin
    passes, and the least lb outside them, from one more; lb is left with
    those columns set to inf. (numpy vectorises argmin along rows far
    better than min: 19 against 50 us on a 400 x 400 float32 block, numpy
    2.4 on the AVX-512 host the blocks were measured on.)"""
    r = np.arange(lb.shape[0])
    if k == 1:
        col = lb.argmin(axis=1)
        lb[r, col] = np.inf
        cols = col[:, None]
    else:
        cols = np.empty((lb.shape[0], k), dtype=np.intp)
        for j in range(k):
            cols[:, j] = lb.argmin(axis=1)
            lb[r, cols[:, j]] = np.inf
        cols.sort(axis=1)
    return cols, lb[r, lb.argmin(axis=1)]


def _knn_near_ties(rows: np.ndarray, b: np.ndarray, candidates: np.ndarray,
                   k: int) -> tuple[np.ndarray, np.ndarray]:
    """kNN of rows with more than k candidate columns, from the explicit
    distances of the candidates only. Each row lists its candidates first,
    ascending by index; a row with fewer candidates than the widest is
    padded with excluded columns, which are farther than the k-th (module
    docstring), so they never reach the result."""
    width = int(np.count_nonzero(candidates, axis=1).max())
    cols = np.argsort(~candidates, axis=1, kind="stable")[:, :width]
    return _k_nearest(pairwise_dist(rows, b, cols), cols, k)


def knn(a: np.ndarray, ref: Reference, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest rows of the reference for each row of a: (indices,
    distances), both (P, k), ascending by distance, ties toward the lower
    reference index.

    The result equals, bit for bit, a stable argsort of the full
    `pairwise_dist(a, ref.patches)` row. Per block of max(1, KNN_BOUNDS // Q)
    query rows one augmented Gram product, in the working precision of a and
    the reference, bounds every squared distance from below (lb). Each
    row's k columns of least lb are its seeds, and U, the largest of their
    explicit distances squared, bounds the k-th squared distance. Only the
    seeds and the columns whose floor is at most U can be among the k
    nearest (module docstring). A row with no such column beyond its seeds
    returns its seeds; a row with more, a near tie, orders the explicit
    distances of its candidates. Without a usable Gram form, or when k = Q,
    each block sorts its full explicit rows. Queries of a wider dtype than
    the reference's working precision get the reference side rebuilt in
    theirs for the call (`GramFloor`).
    """
    b = ref.patches
    _check_patches(a, b)
    q = b.shape[0]
    if not 1 <= k <= q:
        raise ValueError(f"k={k} must be in [1, {q}]")
    gram = GramFloor(a, ref)
    # a row with a non-finite entry has a norm that is not finite, so only
    # then is the row scan needed (a finite row's norm that overflows makes
    # the Gram form unusable instead)
    if not np.isfinite(gram.sq_max):
        require_finite(a, "query patches")
    if not ref.finite:
        raise NumericError("reference patches contains non-finite values")
    if a.shape[0] == 0:
        return _knn_explicit(a, b, k)
    step = max(1, KNN_BOUNDS // q)
    parts = []
    for s in range(0, a.shape[0], step):
        rows = a[s:s + step]
        if k == q or not gram.usable:
            idx, dist = _knn_explicit(rows, b, k)
        else:
            lb = gram.lower(slice(s, s + step))
            seeds, rest = _least_bound_columns(lb, k)
            idx, dist = _k_nearest(pairwise_dist(rows, b, seeds), seeds, k)
            bound = dist[:, -1].astype(np.float64)
            np.nextafter(np.square(bound, out=bound), np.inf, out=bound)
            # floor is monotone in lb, so the least bound left outside the
            # seeds certifies every other column at once
            certified = gram.floor(rest) > bound
            if not certified.all():
                ties = np.flatnonzero(~certified)
                candidates = gram.floor(lb[ties]) <= bound[ties, None]
                np.put_along_axis(candidates, seeds[ties], True, axis=1)
                idx[ties], dist[ties] = _knn_near_ties(rows[ties], b, candidates, k)
        parts.append((idx, dist))
    if len(parts) == 1:
        return parts[0]
    return np.concatenate([i for i, _ in parts]), np.concatenate([d for _, d in parts])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """One client's Adam moments, keyed like its parameters, and the one
    timestep they share; mutated only by `adam_step`."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, cfg) -> None:
    """One classic Adam update with bias correction of every tensor of
    `params`, in place; L2 weight decay is folded into the gradient. The
    learning rate, betas, eps and decay are those of cfg, a
    `client.LossConfig`. Every gradient is checked before any tensor moves."""
    for name, param in params.items():
        if grads[name].shape != param.shape:
            raise ShapeError(f"grad shape {grads[name].shape} != param shape {param.shape}")
        if not np.isfinite(grads[name]).all():
            raise NumericError("non-finite gradient passed to adam_step")
    state.step += 1
    b1, b2 = cfg.beta1, cfg.beta2
    for name, param in params.items():
        g = grads[name] + cfg.weight_decay * param if cfg.weight_decay else grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * (g * g)
        m_hat = state.m[name] / (1.0 - b1 ** state.step)
        v_hat = state.v[name] / (1.0 - b2 ** state.step)
        params[name] = param - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
