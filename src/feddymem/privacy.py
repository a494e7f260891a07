"""Empirical audit of the privacy effect of memory-reduce.

The audit instantiates a scalar Gaussian model in which a raw-sample
statistic X is correlated with exactly one per-sample memory statistic Y_j,
while the other Y_i are independent of X and of each other. The correlation
between X and the reduced (weighted-average) memory is then bounded by

    |rho(X, Y)| <= w_j * sigma_j / sqrt(sum_i w_i^2 sigma_i^2) * |rho(X, Y_j)|

whenever the weights are constants. Mutual information under the Gaussian
assumption is -0.5 * log(1 - rho^2), so the bound translates directly into
an MI reduction that grows with the number of local samples.

The sweep over local dataset sizes averages unit-variance Y_i (rho does not
depend on a common scale) with memory-reduce's round-0 uniform weights, so
the bound's hypotheses hold and it is asserted. The Y_i are drawn and summed
one at a time, so memory does not grow with the dataset size. The lemma
trials draw random variances and weights.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError
from .numerics import Rng


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Sample Pearson correlation, clamped into [-1, 1]."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("pearson needs two equal-length 1-D series, length >= 2")
    xm = x - x.mean()
    ym = y - y.mean()
    sx = np.sqrt((xm * xm).sum())
    sy = np.sqrt((ym * ym).sum())
    if sx == 0.0 or sy == 0.0:
        raise NumericError("pearson undefined for zero-variance series")
    return float(np.clip((xm * ym).sum() / (sx * sy), -1.0, 1.0))


def gaussian_mi(rho: float) -> float:
    """Mutual information of a bivariate Gaussian with correlation rho, in nats."""
    if abs(rho) >= 1.0:
        raise NumericError("|rho| >= 1 implies infinite mutual information")
    return float(-0.5 * np.log1p(-rho * rho))


def lemma1_bound(weights: np.ndarray, stddevs: np.ndarray, j: int) -> float:
    """Correlation scaling factor of a normalized weighted average.

    Returns w_j * sigma_j / sqrt(sum_i w_i^2 sigma_i^2): the factor by which
    |rho(X_j, Y_j)| shrinks when Y_j enters the average.
    """
    w = np.asarray(weights, dtype=np.float64)
    s = np.asarray(stddevs, dtype=np.float64)
    if w.shape != s.shape or w.ndim != 1:
        raise ValueError("weights and stddevs must be equal-length 1-D")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    if (s <= 0).any():
        raise ValueError("stddevs must be positive")
    if not 0 <= j < len(w):
        raise ValueError(f"index j={j} out of range")
    return float(w[j] * s[j] / np.sqrt((w * w * s * s).sum()))


# ---------------------------------------------------------------------------
# Monte Carlo audit
# ---------------------------------------------------------------------------


@dataclass
class AuditConfig:
    mc_samples: int = 100_000
    dataset_sizes: tuple[int, ...] = (10, 100, 1000)
    seed: int = 0
    rho: float = 0.8
    lemma_configs: int = 100
    lemma_mc_samples: int = 10_000

    def __post_init__(self):
        for key in ("mc_samples", "lemma_mc_samples"):
            if getattr(self, key) < 10_000:
                raise ConfigError("bound checks need at least 1e4 Monte Carlo samples",
                                  key=f"audit.{key}")
        if not 0 < abs(self.rho) < 1:
            raise ConfigError("rho must be in (0, 1)", key="audit.rho")
        if not self.dataset_sizes or min(self.dataset_sizes) < 1:
            raise ConfigError("dataset sizes must be a non-empty list of values >= 1",
                              key="audit.dataset_sizes")
        if self.lemma_configs < 1:
            raise ConfigError("the audit needs at least one lemma configuration",
                              key="audit.lemma_configs")


@dataclass
class SweepPoint:
    dataset_size: int
    rho_direct: float
    rho_reduced: float
    bound_factor: float
    bound_rhs: float
    sampling_error: float
    bound_holds: bool
    mi_direct: float
    mi_reduced: float
    mi_ratio: float


@dataclass
class LemmaTrial:
    dataset_size: int
    bound_factor: float
    lhs: float
    rhs: float
    margin_sigmas: float
    holds: bool


@dataclass
class AuditReport:
    sweep: list[SweepPoint]
    lemma_trials: list[LemmaTrial]
    lemma_violations: int
    mi_ratios_strictly_decreasing: bool
    dpi_ordering_holds: bool
    leakage_slope: float
    status: str  # "ok" | "inconclusive"

    def to_json(self) -> str:
        doc = {
            "status": self.status,
            "lemma_violations": self.lemma_violations,
            "mi_ratios_strictly_decreasing": self.mi_ratios_strictly_decreasing,
            "dpi_ordering_holds": self.dpi_ordering_holds,
            "leakage_slope": self.leakage_slope,
            "sweep": [vars(p) for p in self.sweep],
            "lemma_trials": [vars(t) for t in self.lemma_trials],
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())


def _draw_model(rng: Rng, n: int, rho: float,
                sigma_y: np.ndarray) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """n trials of (X, Y_1..Y_d), d = len(sigma_y): X correlated rho with Y_1
    only. The Y_i come as (n,) rows, each drawn from one stream when it is
    asked for."""
    x = rng.child("x").generator.standard_normal(n)
    gen = rng.child("y").generator

    def rows():
        for i, sigma in enumerate(sigma_y):
            z = gen.standard_normal(n)
            yield sigma * (rho * x + np.sqrt(1.0 - rho * rho) * z) if i == 0 else sigma * z

    return x, rows()


def _uniform_reduce(rows: Iterable[np.ndarray], n: int) -> np.ndarray:
    """Round-0 memory_reduce of scalar memories, one trial in each of the n
    elements of a row: the float32-rounded rows summed in turn in float64,
    divided by their count and rounded to float32."""
    total = np.zeros(n)
    for d, row in enumerate(rows, 1):
        total += row.astype(np.float32)
    return (total / d).astype(np.float32)


def audit_reduction(cfg: AuditConfig) -> AuditReport:
    """Run the full audit: |D| sweep with asserted uniform-weight bounds,
    plus randomized lemma configurations."""
    rng = Rng(cfg.seed).child("audit")
    n = cfg.mc_samples
    sweep: list[SweepPoint] = []
    inconclusive = False

    for d in cfg.dataset_sizes:
        x, rows = _draw_model(rng.child("sweep", int(d)), n, cfg.rho, np.ones(d))
        y_first = next(rows)
        rho_direct = pearson(x, y_first)
        rho_red = pearson(x, _uniform_reduce(itertools.chain([y_first], rows), n))
        factor = lemma1_bound(np.full(d, 1.0 / d), np.ones(d), 0)
        se = (1.0 + factor) / np.sqrt(n - 3)
        rhs = factor * abs(rho_direct) + 3.0 * se
        mi_direct = gaussian_mi(rho_direct)
        mi_red = gaussian_mi(rho_red)
        sweep.append(SweepPoint(
            dataset_size=int(d),
            rho_direct=rho_direct,
            rho_reduced=rho_red,
            bound_factor=factor,
            bound_rhs=float(rhs),
            sampling_error=float(se),
            bound_holds=bool(abs(rho_red) <= rhs),
            mi_direct=mi_direct,
            mi_reduced=mi_red,
            mi_ratio=mi_red / mi_direct,
        ))
        if abs(rho_red) <= 3.0 * se and d > 1:
            # reduced correlation indistinguishable from zero at this sample
            # count: ordering claims would not be supportable
            if mi_red >= mi_direct:
                inconclusive = True

    trials: list[LemmaTrial] = []
    violations = 0
    for i in range(cfg.lemma_configs):
        trng = rng.child("lemma", i)
        d = trng.child("d").integers(2, 51)
        sigma_y = trng.child("sigma").generator.uniform(0.5, 2.0, d)
        rho = float(trng.child("rho").generator.uniform(0.1, 0.95))
        if trng.child("mode").integers(0, 2) == 0:
            weights = np.full(d, 1.0 / d)
        else:
            weights = trng.child("w").generator.dirichlet(np.ones(d))
        x, rows = _draw_model(trng.child("draw"), cfg.lemma_mc_samples, rho, sigma_y)
        y = np.array(list(rows))
        y_avg = weights @ y
        rho_direct = pearson(x, y[0])
        rho_red = pearson(x, y_avg)
        factor = lemma1_bound(weights, sigma_y, 0)
        se = (1.0 + factor) / np.sqrt(cfg.lemma_mc_samples - 3)
        lhs = abs(rho_red)
        rhs = factor * abs(rho_direct)
        margin = (lhs - rhs) / se
        holds = bool(lhs <= rhs + 3.0 * se)
        if not holds:
            violations += 1
        trials.append(LemmaTrial(dataset_size=int(d), bound_factor=factor,
                                 lhs=float(lhs), rhs=float(rhs),
                                 margin_sigmas=float(margin), holds=holds))

    ratios = [p.mi_ratio for p in sweep]
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    dpi = all(p.mi_reduced < p.mi_direct for p in sweep)
    log_d = np.log([p.dataset_size for p in sweep])
    log_rho = np.log([max(abs(p.rho_reduced), 1e-12) for p in sweep])
    slope = float(np.polyfit(log_d, log_rho, 1)[0]) if len(sweep) > 1 else 0.0

    return AuditReport(
        sweep=sweep,
        lemma_trials=trials,
        lemma_violations=violations,
        mi_ratios_strictly_decreasing=decreasing,
        dpi_ordering_holds=dpi,
        leakage_slope=slope,
        status="inconclusive" if inconclusive else "ok",
    )
