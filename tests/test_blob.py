"""The GQNB container: bit-exact round trips, the returned digest, rejection
of damaged files, and atomic replacement."""

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gqn.blob import load_blob, save_blob, write_atomic

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8),
                         st.floats(allow_nan=False))
metas = st.dictionaries(st.text(max_size=8),
                        st.recursive(json_scalars, lambda inner: st.lists(inner, max_size=3)
                                     | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                                     max_leaves=8), max_size=4)


@st.composite
def blob_arrays(draw):
    """Named <f8/<i8/<u8 arrays: 0-d, empty and non-contiguous ones included."""
    out = {}
    for name in draw(st.lists(st.text(max_size=6), unique=True, max_size=4)):
        dtype = draw(st.sampled_from(["<f8", "<i8", "<u8"]))
        shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
        arr = draw(hnp.arrays(dtype, shape))
        view = draw(st.sampled_from(["as_is", "transposed", "strided"]))
        if view == "transposed":
            arr = arr.T
        elif view == "strided" and arr.ndim:
            arr = arr[..., ::2]
        out[name] = arr
    return out


@given(metas, blob_arrays())
@settings(max_examples=100, deadline=None)
def test_round_trip_is_bit_exact(meta, arrays):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.bin"
        digest = save_blob(path, meta, arrays)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        got_meta, got = load_blob(path)
        assert os.listdir(tmp) == ["x.bin"]  # the temporary file was renamed away
    assert got_meta == meta
    assert list(got) == list(arrays)
    for name, arr in arrays.items():
        assert got[name].dtype == arr.dtype and got[name].shape == arr.shape
        assert got[name].tobytes() == arr.tobytes()


@pytest.fixture
def blob_file(tmp_path):
    path = tmp_path / "x.bin"
    save_blob(path, {"k": 1}, {"a": np.arange(6.0), "b": np.arange(3)})
    return path


def test_truncated_payload_rejected(blob_file):
    data = blob_file.read_bytes()
    blob_file.write_bytes(data[:-1])
    with pytest.raises(ValueError, match="truncated payload for array 'b'"):
        load_blob(blob_file)


def test_trailing_bytes_rejected(blob_file):
    blob_file.write_bytes(blob_file.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_blob(blob_file)


def test_failed_write_keeps_the_old_file(blob_file):
    before = blob_file.read_bytes()

    def chunks():
        yield b"GQNB"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_atomic(blob_file, chunks())
    assert blob_file.read_bytes() == before
    assert os.listdir(blob_file.parent) == [blob_file.name]


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(TypeError, match="unsupported array dtype"):
        save_blob(tmp_path / "x.bin", {}, {"flags": np.ones(2, dtype=bool)})
