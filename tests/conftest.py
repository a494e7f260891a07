import numpy as np
import pytest

from feddymem import tensorio
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
