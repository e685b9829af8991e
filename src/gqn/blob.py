"""Single-file container: a JSON header describing named float/int arrays,
followed by their raw little-endian bytes. Round-trips are bit-exact, which
checkpoint resume relies on. Files are replaced atomically (temporary file,
fsync, rename), so a kill leaves the old file or the new one, never a mix.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

_MAGIC = b"GQNB"
_STORED_DTYPES = {"f": "<f8", "i": "<i8", "u": "<u8"}  # by numpy dtype kind


def write_atomic(path: str | Path, chunks) -> str:
    """Write the byte chunks (bytes or C-contiguous arrays) to `path` through a
    temporary file, fsync and os.replace; returns their sha256 hex digest."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only by a write that failed
    return digest.hexdigest()


def save_blob(path: str | Path, meta: dict, arrays: dict[str, np.ndarray]) -> str:
    """Write `meta` (JSON-serializable) plus named arrays to one file; returns
    the file's sha256 hex digest. Array buffers go to the file uncopied unless
    an array is non-contiguous or needs a dtype conversion."""
    entries = []
    payloads = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype.kind not in _STORED_DTYPES:
            raise TypeError(f"unsupported array dtype {arr.dtype!r}")
        dtype = _STORED_DTYPES[arr.dtype.kind]
        arr = np.asarray(arr, dtype=dtype, order="C")
        entries.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
        payloads.append(arr.reshape(-1))  # a flat view: sha256 takes 1-d buffers only
    header = json.dumps({"meta": meta, "arrays": entries}).encode("utf-8")
    return write_atomic(path, [_MAGIC, struct.pack("<Q", len(header)), header, *payloads])


def load_blob(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a file written by save_blob; returns (meta, arrays)."""
    with open(path, "rb") as fh:
        preamble = fh.read(12)  # magic, then the header's byte length
        if preamble[:4] != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint container (bad magic {preamble[:4]!r})")
        if len(preamble) < 12:
            raise ValueError(f"{path}: cut inside the 12-byte preamble")
        (header_len,) = struct.unpack_from("<Q", preamble, 4)
        raw = fh.read(header_len)
        if len(raw) < header_len:
            raise ValueError(f"{path}: cut inside the {header_len}-byte header")
        header = json.loads(raw.decode("utf-8"))
        arrays: dict[str, np.ndarray] = {}
        for entry in header["arrays"]:
            dtype = entry["dtype"]
            if dtype not in _STORED_DTYPES.values():
                raise ValueError(f"{path}: unsupported dtype {dtype!r} in header")
            arr = np.empty(tuple(entry["shape"]), dtype=dtype)
            if fh.readinto(arr.reshape(-1)) != arr.nbytes:
                raise ValueError(f"{path}: truncated payload for array {entry['name']!r}")
            arrays[entry["name"]] = arr
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last array")
    return header["meta"], arrays
