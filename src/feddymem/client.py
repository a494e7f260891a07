"""Client-side training: metric loss against the received global bank,
memory extraction over the local dataset, and memory-reduce.

A client never shares raw samples. Its local data is one (N, H, W, Cin)
stack of the samples' frozen fused features. Per round it (1) trains the
projection and generator so local memory features align with the bank from
the previous round, (2) extracts memory features for every local sample with
the trained weights, and (3) compresses them into one bank-sized tensor via
distance-weighted averaging plus a round-indexed EMA. The stack is only
read: a training step projects its batch's rows in place
(`features.project_forward`), and no step gathers them into a copy.

Steps (2) and (3) hold one float64 (N, H, W, C) copy of the client's
memories: extraction writes each block's forward pass into it, and
memory-reduce and the patch-norm bound read it in place, one sample or one
block of rows at a time. Every temporary beside it is one sample or one
block in size.

Under the shared baselines every client holds the round's one global bank
object, not a copy of it: a bank is never written after it is made.

A client's state is its trainable weights, their Adam moments and its
current bank, all kept local (only banks are exchanged). The weights are one
mapping of name to array. Its keys, in this order, are the projection's
`proj_w`, `proj_b` (`features.init_projection`) and the generator's
`coord_w`, `coord_b`, `phi1_w`, `phi1_b`, `phi2_w`, `phi2_b`, `out_w`,
`out_b`, `grid` (`generator.init_generator`). Gradients, the two Adam
moments and checkpoint sections use the same keys in the same order. The
moments start at zero with one shared step count, and every training batch
updates all of them once with the settings of the client's `LossConfig`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .features import project_backward, project_forward
from .generator import generator_backward, generator_forward
from .numerics import DTYPE, AdamState, Reference, Rng, adam_step, knn


@dataclass
class MemoryBank:
    """Fixed-size set of patch features; (H, W, C) with HW patches of dim C.

    The bank side of every kNN lookup against it (`numerics.Reference`) is
    built here, once, when the bank is made. A bank is never written after:
    one bank object is shared by every client that queries it, across
    threads, so nothing may modify `data` in place."""

    data: np.ndarray
    reference: Reference = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ShapeError(f"bank must be (H, W, C), got {self.data.shape}")
        self.reference = Reference(self.patches)
        if not self.reference.finite:
            raise NumericError("bank contains non-finite patches")

    @property
    def patches(self) -> np.ndarray:
        return self.data.reshape(-1, self.data.shape[2])

    @property
    def size(self) -> int:
        return self.data.shape[0] * self.data.shape[1]


@dataclass
class LossConfig:
    hinge_margin: float = 0.01
    knn_k: int = 3
    batch_size: int = 10
    learning_rate: float = 1e-3
    local_epochs: int = 1
    weight_decay: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    activation: str = "relu"

    def __post_init__(self):
        if self.hinge_margin < 0:
            raise ConfigError("hinge_margin must be >= 0", key="loss.hinge_margin")
        for key in ("knn_k", "batch_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1", key=f"loss.{key}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0", key="loss.learning_rate")
        for key in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must be in [0, 1)", key=f"loss.{key}")
        if self.local_epochs < 0:
            raise ConfigError("local_epochs must be >= 0", key="loss.local_epochs")
        if self.activation not in ("relu", "tanh"):
            raise ConfigError(f"unknown activation {self.activation!r}", key="loss.activation")


@dataclass
class ClientModelState:
    client_id: int
    params: dict[str, np.ndarray]
    local_bank: MemoryBank | None = None
    adam: AdamState = field(init=False)

    def __post_init__(self):
        self.adam = AdamState(m={k: np.zeros_like(p) for k, p in self.params.items()},
                              v={k: np.zeros_like(p) for k, p in self.params.items()})


# ---------------------------------------------------------------------------
# KNN and metric loss
# ---------------------------------------------------------------------------


def knn_lookup(patches: np.ndarray, bank: MemoryBank, k: int) -> tuple[np.ndarray, np.ndarray]:
    """K nearest bank entries per patch: (indices, distances), ascending,
    ties broken toward the lower bank index (`numerics.knn`), against the
    bank's own prepared reference."""
    if k > bank.size:
        raise ValueError(f"k={k} exceeds bank size {bank.size}")
    return knn(patches, bank.reference, k)


def metric_loss(m: np.ndarray, bank: MemoryBank,
                cfg: LossConfig) -> tuple[list[float], np.ndarray]:
    """Hinge loss of each memory feature of a (B, H, W, C) stack over each
    patch's K nearest bank entries, and the gradient of each sample's loss
    w.r.t. its memory feature.

    loss_b = mean over (patch, k) of max(0, dist - margin). Each sample's
    H * W patches make one kNN lookup; the hinge and the gradient are then
    formed for the whole stack. The bank and the neighbor selection are
    treated as constants: gradient flows only through the distances back to
    the memory feature.

    The gradient is formed one neighbour rank at a time in (P, C) buffers,
    P = B * H * W: each rank's unit vectors (patch - neighbour) / dist,
    zero where the hinge is off or the distance is 0, are added to +0.0 in
    rank order, which gives the floats of summing a (P, K, C) array of them
    over K (a -0.0 term included), with no such array formed.
    """
    b, h, w, c = m.shape
    if c != bank.data.shape[2]:
        raise ShapeError(f"memory channels {c} != bank channels {bank.data.shape[2]}")
    lookups = [knn_lookup(sample.reshape(h * w, c), bank, cfg.knn_k) for sample in m]
    idx = np.concatenate([i for i, _ in lookups])
    dist = np.concatenate([d for _, d in lookups])
    patches = m.reshape(-1, c)
    margin = cfg.hinge_margin
    active = dist > margin
    denom = float(h * w * cfg.knn_k)
    hinge = np.where(active, dist - margin, 0.0).reshape(b, -1)
    losses = (hinge.sum(axis=1) / denom).tolist()

    live = active & (dist > 0)
    grad = np.zeros(patches.shape, np.result_type(patches, bank.patches))
    diff = np.empty_like(grad)
    unit = np.empty_like(grad)
    # an overflowing difference over an infinite distance is NaN, as before
    with np.errstate(invalid="ignore"):
        for j in range(cfg.knn_k):
            np.subtract(patches, bank.patches.take(idx[:, j], axis=0), out=diff)
            unit.fill(0.0)
            np.divide(diff, dist[:, j, None], out=unit, where=live[:, j, None])
            grad += unit
    grad /= denom
    return losses, grad.reshape(m.shape).astype(m.dtype, copy=False)


# ---------------------------------------------------------------------------
# Forward/backward through the whole client model
# ---------------------------------------------------------------------------


def _forward_backward(state: ClientModelState, dataset: np.ndarray, rows: Sequence[int],
                      bank: MemoryBank,
                      cfg: LossConfig) -> tuple[list[float], dict[str, np.ndarray]]:
    """Each sample's loss for the batch `rows` of the (N, H, W, Cin) stack,
    and the gradients summed over its samples in order: one forward pass,
    one metric loss and one backward pass for the whole batch, reading the
    rows in place."""
    projected, proj_cache = project_forward(dataset, state.params, cfg.activation, rows)
    m, gen_cache = generator_forward(projected, state.params)
    losses, grad_m = metric_loss(m, bank, cfg)
    grad_projected, gen_grads = generator_backward(gen_cache, grad_m)
    return losses, {**project_backward(proj_cache, grad_projected), **gen_grads}


def forward_memory(params: dict[str, np.ndarray], fused: np.ndarray,
                   activation: str = "relu") -> np.ndarray:
    """Inference-only pass: (B, H, W, Cin) fused features -> (B, H, W, C)
    memory features, with no backward cache (`generator_forward`)."""
    return generator_forward(project_forward(fused, params, activation)[0], params,
                             train=False)[0]


def client_update(state: ClientModelState, dataset: np.ndarray, cfg: LossConfig,
                  round_t: int, rng: Rng) -> tuple[list[float], list[float]]:
    """Local epochs of batched training on the (N, H, W, Cin) fused stack
    against the client's current bank. Each batch reads its rows of the
    stack in place.

    Returns (per-batch loss trace, per-batch squared gradient norm trace);
    trace length is local_epochs * ceil(len(dataset) / batch_size).
    """
    if len(dataset) == 0:
        raise ValueError("client dataset is empty")
    if state.local_bank is None:
        raise ValueError("client has no bank; run initialization first")
    bank = state.local_bank
    loss_trace: list[float] = []
    grad_sq_trace: list[float] = []
    n = len(dataset)
    for epoch in range(cfg.local_epochs):
        order = rng.child("shuffle", round_t, epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            losses, grads = _forward_backward(state, dataset, batch, bank, cfg)
            batch_loss = 0.0
            for loss in losses:
                batch_loss += loss
            scale = 1.0 / len(batch)
            batch_loss *= scale
            grads = {name: grads[name] * scale for name in state.params}
            grad_sq = 0.0
            for g in grads.values():
                grad_sq += float((g.astype(np.float64) ** 2).sum())
            adam_step(state.params, grads, state.adam, cfg)
            loss_trace.append(batch_loss)
            grad_sq_trace.append(grad_sq)
    return loss_trace, grad_sq_trace


def extract_all_memories(state: ClientModelState, dataset: np.ndarray,
                         cfg: LossConfig) -> np.ndarray:
    """Pure inference pass over the (N, H, W, Cin) fused stack in manifest
    order, one forward pass per block of `cfg.batch_size` samples, each
    block written into its rows of one float64 (N, H, W, C) stack."""
    if len(dataset) == 0:
        raise ValueError("client dataset is empty")
    step = cfg.batch_size
    memories = np.empty(0)
    for s in range(0, len(dataset), step):
        block = forward_memory(state.params, dataset[s:s + step], cfg.activation)
        if s == 0:
            memories = np.empty((len(dataset),) + block.shape[1:], dtype=np.float64)
        memories[s:s + step] = block
    return memories


# ---------------------------------------------------------------------------
# Memory-reduce
# ---------------------------------------------------------------------------


def memory_reduce(memories: np.ndarray, prev_bank: MemoryBank | None,
                  t: int) -> MemoryBank:
    """Compress an (N, H, W, C) stack of per-sample memory features into
    one bank-sized tensor.

    Round 0 uses uniform weights; later rounds weight each memory by the
    Frobenius norm of its difference from the previous bank, then blend the
    weighted mean with the previous bank using alpha = 1 / (t + 1). If every
    memory coincides with the previous bank (all weights zero) the weights
    fall back to uniform, the limit of the weighting as distances vanish.

    A float64 stack is read in place; any other is cast to float64 once.
    Each weight is formed from its own sample's difference, in one
    bank-sized buffer, and the weighted mean is one product over the whole
    stack.
    """
    if memories.ndim != 4:
        raise ShapeError(f"memories must be (N, H, W, C), got {memories.shape}")
    if len(memories) == 0:
        raise ValueError("memory_reduce needs at least one memory feature")
    if t == 0:
        if prev_bank is not None:
            raise ValueError("round 0 must not have a previous bank")
    elif prev_bank is None:
        raise ValueError(f"round {t} requires the previous bank")
    elif memories.shape[1:] != prev_bank.data.shape:
        raise ShapeError(f"memories {memories.shape[1:]} != bank {prev_bank.data.shape}")

    stack = np.asarray(memories, dtype=np.float64)
    weights = np.ones(len(stack), dtype=np.float64)
    if t > 0:
        prev = prev_bank.data.astype(np.float64)
        diff = np.empty_like(prev)
        for i, memory in enumerate(stack):
            np.subtract(memory, prev, out=diff)
            weights[i] = np.multiply(diff, diff, out=diff).sum()
        weights = np.sqrt(weights)
        if weights.sum() == 0.0:
            weights = np.ones(len(stack), dtype=np.float64)

    mean = np.tensordot(weights, stack, axes=1) / weights.sum()
    if t > 0:
        alpha = 1.0 / (t + 1)
        mean = alpha * mean + (1.0 - alpha) * prev
    return MemoryBank(data=mean.astype(DTYPE))


# patch vectors squared per block of `max_patch_norm`: 512 KiB of float64
NORM_BLOCK = 1 << 16


def max_patch_norm(arr: np.ndarray) -> float:
    """Largest L2 norm over the patch vectors of an (..., C) tensor, squared
    in float64 one block of patch rows at a time, in one buffer."""
    flat = arr.reshape(-1, arr.shape[-1])
    rows = max(1, NORM_BLOCK // flat.shape[1])
    buf = np.empty((min(rows, len(flat)), flat.shape[1]), dtype=np.float64)
    largest = []
    for s in range(0, len(flat), rows):
        part = flat[s:s + rows]
        block = buf[:len(part)]
        np.copyto(block, part)
        largest.append(np.multiply(block, block, out=block).sum(axis=1).max())
    return float(np.sqrt(np.max(largest)))
