import struct

import numpy as np
import pytest

from feddymem.errors import NumericError, ShapeError
from feddymem import tensorio


def test_roundtrip(tmp_path, rng):
    arr = rng.normal((3, 4, 2))
    path = tmp_path / "t.fdm1"
    n = tensorio.write_tensor(path, arr)
    assert n == tensorio.tensor_nbytes(arr.shape) == path.stat().st_size
    back = tensorio.read_tensor(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_header_layout(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    raw = tensorio.dump_tensor(arr)
    assert raw[:4] == b"FDM1"
    assert raw[4] == 2
    assert struct.unpack_from("<2I", raw, 5) == (2, 3)
    payload = np.frombuffer(raw[13:], dtype="<f4")
    assert np.array_equal(payload, arr.reshape(-1))


def test_bad_magic():
    with pytest.raises(ShapeError):
        tensorio.load_tensor(b"NOPE" + bytes(10))


def test_trailing_bytes_rejected():
    raw = tensorio.dump_tensor(np.zeros(2, np.float32)) + b"x"
    with pytest.raises(ShapeError):
        tensorio.load_tensor(raw)


def test_truncated_rejected():
    raw = tensorio.dump_tensor(np.zeros(4, np.float32))
    with pytest.raises(ShapeError):
        tensorio.load_tensor(raw[:-2])


def test_nonfinite_rejected_on_read():
    arr = np.array([1.0, np.inf], dtype=np.float32)
    raw = b"FDM1" + struct.pack("<B", 1) + struct.pack("<I", 2) + arr.tobytes()
    with pytest.raises(NumericError):
        tensorio.load_tensor(raw)


def test_zero_extent_rejected():
    with pytest.raises(ShapeError):
        tensorio.dump_tensor(np.zeros((2, 0), np.float32))


def test_container_roundtrip(tmp_path, rng):
    sections = {"alpha": rng.child(1).normal((2, 2)),
                "beta/nested": rng.child(2).normal((3,))}
    path = tmp_path / "c.fdmc"
    tensorio.write_container(path, sections)
    back = tensorio.read_container(path)
    assert list(back) == list(sections)
    for k in sections:
        assert np.array_equal(back[k], sections[k])


def test_container_bad_magic():
    with pytest.raises(ShapeError):
        tensorio.load_container(b"XXXX" + bytes(4))


def test_container_reads_only_the_named_sections():
    # a skipped section is not checked for finiteness, only for its length
    raw = tensorio.dump_container({"keep": np.ones(2, np.float32),
                                   "skip": np.array([np.nan, 1.0], np.float32)})
    assert list(tensorio.load_container(raw, {"keep"})) == ["keep"]
    with pytest.raises(NumericError, match="section 'skip'"):
        tensorio.load_container(raw)
    with pytest.raises(ShapeError, match="section 'skip': truncated tensor payload"):
        tensorio.load_container(raw[:-2], {"keep"})


@pytest.mark.parametrize("cut", [2, 6, 9, 12, 17])
def test_truncated_container_raises_shape_error(cut):
    # cut inside the header, a section name, a tensor header or a payload
    raw = tensorio.dump_container({"alpha": np.ones((2, 3), np.float32)})
    with pytest.raises(ShapeError):
        tensorio.load_container(raw[:cut])
