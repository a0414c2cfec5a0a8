"""Parameter checkpoint file: length-prefixed named float64 arrays.

Layout (all integers little-endian):
    magic   : 5 bytes b"WSGT1"
    count   : uint32, number of arrays
    per array:
        name_len : uint32
        name     : name_len bytes, UTF-8
        ndim     : uint32
        dims     : ndim * uint64
        data     : prod(dims) * float64, little-endian, C order
    nothing after the last array
"""

from __future__ import annotations

import math
import os
import secrets
import struct

import numpy as np

MAGIC = b"WSGT1"


def save_arrays(path, arrays):
    """arrays: dict name -> ndarray (stored as float64).

    The file is written beside `path` under a temporary name, then renamed over
    it, so a save that fails part-way leaves any previous checkpoint whole."""
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    # created as open(path, "wb") creates a file, so the umask sets its mode
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", len(arrays)))
            for name in sorted(arrays):
                arr = np.asarray(arrays[name]).astype("<f8", order="C", copy=False)
                encoded = name.encode("utf-8")
                f.write(struct.pack("<I", len(encoded)))
                f.write(encoded)
                f.write(struct.pack("<I", arr.ndim))
                for dim in arr.shape:
                    f.write(struct.pack("<Q", dim))
                f.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_arrays(path):
    """name -> writable float64 array; ValueError for a foreign or truncated
    file, a name that is not UTF-8, one that names an array twice, or one with
    bytes after its last array."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n):
            # checked first, so a corrupt length cannot ask for more memory than the file holds
            if n > size - f.tell():
                raise ValueError(f"{path}: truncated checkpoint ({n} bytes needed)")
            return f.read(n)

        if read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path}: not a wsgat checkpoint")
        (count,) = struct.unpack("<I", read(4))
        out = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", read(4))
            try:
                name = read(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: array name is not UTF-8") from None
            if name in out:
                raise ValueError(f"{path}: array {name!r} stored twice")
            (ndim,) = struct.unpack("<I", read(4))
            shape = tuple(struct.unpack("<Q", read(8))[0] for _ in range(ndim))
            data = np.frombuffer(read(8 * math.prod(shape)), dtype="<f8").reshape(shape)
            out[name] = np.array(data)  # writable copy
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after the last array")
        return out
